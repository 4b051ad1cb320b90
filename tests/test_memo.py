"""The bounded memo type and the product table ax_matmul_batch keeps in it."""

import tracemalloc

import numpy as np
from test_oracles import field, ref_matmul

from modplab import fields
from modplab.memo import ENTRY_OVERHEAD, Memo

F4, F5 = field(2, 2), field(5)


def test_memo_evicts_oldest_first_within_its_budget():
    memo = Memo(10)
    for key in "abc":
        memo.put(key, key.upper(), 4)
    assert memo.keys() == ["b", "c"] and memo.cells == 8
    assert memo.get("a") is None and memo.get("c") == "C"
    memo.put("d", "D", 11)  # alone over the budget: not stored
    assert memo.keys() == ["b", "c"] and memo.cells == 8
    memo.put("e", "E", 10)  # fills the budget alone: every older entry goes
    assert memo.keys() == ["e"] and memo.cells == 10
    memo.clear()
    assert len(memo) == 0 and memo.cells == 0 and memo.get("e") is None


def test_memo_put_under_a_stored_key_replaces_its_entry():
    memo = Memo(10)
    memo.put("a", "A", 4)
    memo.put("b", "B", 4)
    memo.put("a", "A2", 5)  # the old entry's cells are released, not counted twice
    assert memo.keys() == ["b", "a"] and memo.cells == 9 and memo.get("a") == "A2"
    memo.put("b", "B2", 11)  # over the budget: the old entry goes, nothing is stored
    assert memo.keys() == ["a"] and memo.cells == 5


# ---- the product table ----


def _ref_batch(F, A, B):
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for idx in np.ndindex(*lead):
        out[idx] = ref_matmul(F, A[idx], B[idx])
    return out


def _memo_cells():
    memo = fields._MATMUL_MEMO
    return sum(
        np.prod(k[3]) + np.prod(k[4]) + memo.get(k).size + ENTRY_OVERHEAD
        for k in memo.keys()
    )


def _entries():
    return {k: fields._MATMUL_MEMO.get(k) for k in fields._MATMUL_MEMO.keys()}


def test_product_memo_keys_on_field_shapes_and_dtypes(fresh_memos):
    codes = np.array([1, 2, 3, 3, 1, 2, 0, 1], dtype=np.int16)  # codes of both F4 and F5
    cases = [
        (F, codes[:6].reshape(sa), codes[:6].reshape(sb))
        for F in (F4, F5)
        for sa, sb in (((2, 3), (3, 2)), ((3, 2), (2, 3)))
    ]
    cases += [
        (F4, codes.reshape(2, 2, 2), codes[:4].reshape(2, 2)),  # broadcast B
        (F4, codes.reshape(2, 2, 2), codes[:4].reshape(1, 2, 2)),
        (F4, codes.reshape(2, 2, 2).view(np.uint16), codes[:4].reshape(2, 2)),
    ]
    for _ in range(2):  # cold, then every product read from the memo
        for F, A, B in cases:
            assert np.array_equal(F.ax_matmul_batch(A, B), _ref_batch(F, A, B))
        assert len(fields._MATMUL_MEMO) == len(cases)
    # the fields disagree on these bytes: 2 * 2 is 3 in F4 and 4 in F5
    A = np.array([[2]], dtype=np.int16)
    assert F4.ax_matmul(A, A).tolist() == [[3]] and F5.ax_matmul(A, A).tolist() == [[4]]


def test_product_memo_results_are_fresh_and_writable(fresh_memos):
    rng = np.random.default_rng(3)
    A = rng.integers(0, 4, (3, 4, 5)).astype(np.int16)
    B = rng.integers(0, 4, (5, 2)).astype(np.int16)
    want = _ref_batch(F4, A, B)
    for _ in range(3):  # a miss, then two hits
        C = F4.ax_matmul_batch(A, B)
        assert np.array_equal(C, want) and C.dtype == np.int16
        assert C.flags.writeable
        (key,) = fields._MATMUL_MEMO.keys()
        stored = fields._MATMUL_MEMO.get(key)
        assert not stored.flags.writeable and not np.shares_memory(C, stored)
        C[:] = 1  # a write into a result never reaches the stored copy
    assert np.array_equal(stored, want)


def test_product_memo_stays_within_its_budget(fresh_memos):
    budget = 3 * ENTRY_OVERHEAD + 60  # room for at most three entries
    fields._MATMUL_MEMO.budget = budget
    rng = np.random.default_rng(5)
    order = []
    for _ in range(40):
        n, m, r = rng.integers(1, 4, 3)
        A = rng.integers(0, 5, (n, m)).astype(np.int16)
        B = rng.integers(0, 5, (m, r)).astype(np.int16)
        key = (F5.key(), A.dtype, B.dtype, A.shape, B.shape, A.tobytes(), B.tobytes())
        if key not in fields._MATMUL_MEMO.keys():  # a miss stores it as the newest
            if key in order:
                order.remove(key)
            order.append(key)
        assert np.array_equal(F5.ax_matmul(A, B), ref_matmul(F5, A, B))
        assert fields._MATMUL_MEMO.cells == _memo_cells() <= budget
        # the oldest entries go first: what is left is the newest suffix
        keys = fields._MATMUL_MEMO.keys()
        assert keys == order[len(order) - len(keys) :]
    before = _entries()
    big = rng.integers(0, 5, (14, 14)).astype(np.int16)  # 588 cells with its square
    assert np.array_equal(F5.ax_matmul(big, big), ref_matmul(F5, big, big))
    assert _entries() == before
    fields._MATMUL_MEMO.budget = fields.MATMUL_MEMO_CELLS
    m = fields.MATMUL_MEMO_ENTRY_CELLS // 2 + 1  # operands just over the entry cap
    A = rng.integers(0, 5, (1, m)).astype(np.int16)
    B = rng.integers(0, 5, (m, 1)).astype(np.int16)
    assert np.array_equal(F5.ax_matmul(A, B), ref_matmul(F5, A, B))
    assert _entries() == before


def test_product_memo_bounds_its_memory_on_tiny_products(fresh_memos):
    # distinct 1 x 1 products are the cheapest entries in cells and the
    # dearest per cell in Python objects; the per-entry charge bounds both
    F = field(127)
    cap = fields.MATMUL_MEMO_CELLS // (3 + ENTRY_OVERHEAD)
    operands = [np.array([[a]], dtype=np.int16) for a in range(127)]
    tracemalloc.start()
    try:
        for b in operands[:40]:  # 5,080 distinct products, more than cap
            for a in operands:
                assert F.ax_matmul(a, b)[0, 0] == a[0, 0] * b[0, 0] % 127
        held = tracemalloc.get_traced_memory()[0]
        assert len(fields._MATMUL_MEMO) == cap  # full, and evicting
        fields._MATMUL_MEMO.clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fields._MATMUL_MEMO.cells == 0
    assert held < 3 * fields.MATMUL_MEMO_CELLS  # bytes: about 2 a cell
