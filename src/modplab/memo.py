"""A bounded memo for the kernels at the bottom of the stack.

A ``Memo`` maps keys to values within a budget of cells.  Each entry is
stored with the cells its caller counts for it; past the budget the oldest
entries go first (dict order), and an entry that alone exceeds the budget
is not stored.  The memo never copies: its callers store private copies
and hand out fresh ones.
"""

from __future__ import annotations

# Cells every caller adds to an entry's own cells for its key tuple, bytes
# objects and array headers: about 500 bytes, the size of 250 int16 cells.
# It bounds the entry count of a memo of tiny entries, and with it the memo's
# memory, at about 2 bytes a budget cell.
ENTRY_OVERHEAD = 256


class Memo:
    __slots__ = ("budget", "cells", "_entries")

    def __init__(self, budget: int):
        self.budget = budget
        self.cells = 0
        self._entries: dict = {}  # key -> (value, cells), oldest first

    def get(self, key):
        """The value stored under key, or None."""
        hit = self._entries.get(key)
        return None if hit is None else hit[0]

    def put(self, key, value, cells: int) -> None:
        """Store value under key as the newest entry, counting cells against
        the budget, and evict the oldest entries past it.  An entry already
        under key is dropped first."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.cells -= old[1]
        if cells > self.budget:
            return
        self._entries[key] = (value, cells)
        self.cells += cells
        while self.cells > self.budget:
            _, old_cells = self._entries.pop(next(iter(self._entries)))
            self.cells -= old_cells

    def clear(self) -> None:
        self._entries.clear()
        self.cells = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        """The stored keys, oldest first."""
        return list(self._entries)
