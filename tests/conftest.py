import pytest

from modplab import fields, reps
from modplab.memo import Memo


@pytest.fixture
def fresh_memos(monkeypatch):
    """Swap the product memo and the memo of equivariant kernels and
    equivariant solves for empty ones with the same budgets, so that
    entries from earlier tests neither hit nor evict."""
    monkeypatch.setattr(fields, "_MATMUL_MEMO", Memo(fields.MATMUL_MEMO_CELLS))
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(reps.KERNEL_MEMO_CELLS))
