import tracemalloc

import numpy as np
import pytest

from hplus import _kernels

from oracles import (
    convolve_rows_unchunked,
    convolve_support_rows,
    dirichlet_convolve_loop,
    dirichlet_convolve_quadratic,
    divisor_sum_loop,
    mult_extend_loop,
    smallest_factor,
    trial_division_primes,
)


def test_convolve_matches_quadratic_definition(rng):
    n = 64
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = _kernels.dirichlet_convolve(a, b, n)
    want = np.zeros(n, dtype=np.complex128)
    for i in range(1, n + 1):
        for d in range(1, i + 1):
            if i % d == 0:
                want[i - 1] += a[d - 1] * b[i // d - 1]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_convolve_output_shorter_and_longer(rng):
    a = rng.normal(size=10) + 0j
    b = rng.normal(size=7) + 0j
    short = _kernels.dirichlet_convolve(a, b, 5)
    long = _kernels.dirichlet_convolve(a, b, 10)
    assert np.allclose(short, long[:5])


def test_convolve_deterministic(rng):
    a = rng.normal(size=500) + 1j * rng.normal(size=500)
    b = rng.normal(size=500) + 1j * rng.normal(size=500)
    first = _kernels.dirichlet_convolve(a, b, 500)
    second = _kernels.dirichlet_convolve(a, b, 500)
    assert np.array_equal(first, second)


def _sparse_operand(rng, length, nnz, out_len):
    """Coefficients of the given length with nnz nonzeros at indices <= out_len."""
    a = np.zeros(length, dtype=np.complex128)
    idx = rng.choice(min(length, out_len), size=nnz, replace=False)
    a[idx] = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    return a


def _dense_loop(a, b, out_len):
    """The strided dense loop, iterating over the sparser operand."""
    if np.count_nonzero(b[:out_len]) < np.count_nonzero(a[:out_len]):
        a, b = b, a
    return dirichlet_convolve_loop(a, b, out_len)


def _count_support_calls(monkeypatch):
    calls = []
    real = _kernels.convolve_support

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(_kernels, "convolve_support", spy)
    return calls


@pytest.mark.parametrize("out_len,sparse", [(61, True), (60, True), (59, False)])
def test_convolve_choice_rule_at_the_boundary(rng, monkeypatch, out_len, sparse):
    # nnz_a * nnz_b = 60 = out_len - 1, out_len, out_len + 1
    a = _sparse_operand(rng, out_len, 6, out_len)
    b = _sparse_operand(rng, out_len, 10, out_len)
    calls = _count_support_calls(monkeypatch)
    got = _kernels.dirichlet_convolve(a, b, out_len)
    assert (len(calls) == 1) == sparse
    want = dirichlet_convolve_quadratic(a, b, out_len)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert np.array_equal(got.view(np.uint64), _dense_loop(a, b, out_len).view(np.uint64))


def test_convolve_support_bit_identical_to_dense_loop(rng):
    for _ in range(200):
        out_len = int(rng.integers(1, 400))
        la, lb = (int(x) for x in rng.integers(1, 500, size=2))
        a = _sparse_operand(rng, la, int(rng.integers(0, min(la, out_len) + 1)), out_len)
        b = _sparse_operand(rng, lb, int(rng.integers(0, min(lb, out_len) + 1)), out_len)
        got = _kernels.dirichlet_convolve(a, b, out_len)
        want = _dense_loop(a, b, out_len)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_convolve_support_cut_by_truncation(rng):
    # support beyond out_len on both sides: those terms cannot reach n <= out_len
    out_len = 40
    a = _sparse_operand(rng, 100, 8, 100)
    b = _sparse_operand(rng, 100, 5, 100)
    ia, va = _kernels.support(a, out_len)
    assert np.all(ia <= out_len) and np.array_equal(va, a[ia - 1])
    n, v = _kernels.convolve_support(ia, va, *_kernels.support(b, out_len), out_len)
    got = np.zeros(out_len, dtype=np.complex128)
    got[n - 1] = v
    want = dirichlet_convolve_quadratic(a, b, out_len)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert np.all(np.diff(n) > 0) and np.all(v != 0)
    assert np.array_equal(got, _kernels.dirichlet_convolve(a, b, out_len))


def test_convolve_zero_operand(rng):
    a = _sparse_operand(rng, 50, 7, 50)
    zero = np.zeros(50, dtype=np.complex128)
    for x, y in ((a, zero), (zero, a), (zero, zero)):
        got = _kernels.dirichlet_convolve(x, y, 50)
        assert np.array_equal(got.view(np.uint64), np.zeros(100, dtype=np.uint64))
    n, v = _kernels.convolve_support(*_kernels.support(a, 50), *_kernels.support(zero, 50), 50)
    assert len(n) == 0 and len(v) == 0


def test_convolve_support_operand_order(rng):
    out_len = 500
    for nnz_a, nnz_b in ((5, 40), (12, 12), (30, 3)):
        ia, va = _kernels.support(_sparse_operand(rng, out_len, nnz_a, out_len), out_len)
        ib, vb = _kernels.support(_sparse_operand(rng, out_len, nnz_b, out_len), out_len)
        n1, v1 = _kernels.convolve_support(ia, va, ib, vb, out_len)
        n2, v2 = _kernels.convolve_support(ib, vb, ia, va, out_len)
        assert np.array_equal(n1, n2)
        if nnz_a != nnz_b:  # the sparser operand is the outer axis either way
            assert np.array_equal(v1.view(np.uint64), v2.view(np.uint64))
        else:  # ties keep the first operand outer: the sums agree to rounding
            assert np.allclose(v1, v2, rtol=1e-13, atol=1e-13)


def _random_support(rng, nnz, top):
    """nnz ascending 1-based indices drawn from 1..top, with complex values."""
    idx = np.sort(rng.choice(top, size=nnz, replace=False)) + 1
    return idx, rng.normal(size=nnz) + 1j * rng.normal(size=nnz)


def test_convolve_support_bit_identical_to_row_oracle(rng, monkeypatch):
    # blocks of 8 products, so that rows straddle block edges; each merge
    # is recorded as marks (max index <= 16 x products) or unique
    monkeypatch.setattr(_kernels, "_SUPPORT_BLOCK", 8)
    branches = []
    real = _kernels._merge_indices

    def spy(idx):
        slots = _kernels._MARK_SLOTS_PER_PRODUCT * len(idx)
        branches.append(int(idx.max(initial=0)) <= slots)
        return real(idx)

    monkeypatch.setattr(_kernels, "_merge_indices", spy)
    cases = [
        (5, ([5], [1.0 + 2.0j]), ([2, 3], [1.0, -1.0j])),  # every top 0: no products
        (40, ([1], [1.0]), ([1, 32], [1.0, 2.0])),  # max index 32 = 16 x 2 products
        (40, ([1], [1.0]), ([1, 33], [1.0, 2.0])),  # 33 > 16 x 2
        (100, ([1, 2], [1.0, 2.0j]), ([1, 3, 5, 7], [1.0, -1.0, 0.5j, 3.0])),  # one block
        (100, ([1, 2, 3], [1.0, 2.0j, -1.0]), ([1, 2, 3], [0.5, 1.0j, 2.0])),  # a block and one
    ]
    for _ in range(400):
        out_len = int(np.exp(rng.uniform(0.0, np.log(200_000))))
        spread = int(rng.integers(1, out_len + 1))  # indices crowded into 1..spread
        nnz_a = int(rng.integers(0, min(spread, 40) + 1))
        nnz_b = nnz_a if rng.random() < 0.25 else int(rng.integers(0, min(spread, 40) + 1))
        cases.append(
            (out_len, _random_support(rng, nnz_a, spread), _random_support(rng, nnz_b, spread))
        )
    for out_len, (ia, va), (ib, vb) in cases:
        ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
        va, vb = np.asarray(va, dtype=np.complex128), np.asarray(vb, dtype=np.complex128)
        got_n, got_v = _kernels.convolve_support(ia, va, ib, vb, out_len)
        want_n, want_v = convolve_support_rows(ia, va, ib, vb, out_len)
        assert got_n.dtype == want_n.dtype and np.array_equal(got_n, want_n)
        assert got_v.dtype == want_v.dtype and _same_bits(got_v, want_v)
    assert branches[:3] == [True, True, False]
    assert True in branches[3:] and False in branches[3:]


def _spy_merges(monkeypatch):
    """Record the length of every index array _merge_indices merges."""
    merges = []
    real = _kernels._merge_indices

    def spy(idx):
        merges.append(len(idx))
        return real(idx)

    monkeypatch.setattr(_kernels, "_merge_indices", spy)
    return merges


def _assert_matches_row_oracle(ia, va, ib, vb, out_len):
    got_n, got_v = _kernels.convolve_support(ia, va, ib, vb, out_len)
    want_n, want_v = convolve_support_rows(ia, va, ib, vb, out_len)
    assert got_n.dtype == want_n.dtype and np.array_equal(got_n, want_n)
    assert got_v.dtype == want_v.dtype and _same_bits(got_v, want_v)
    return got_n, got_v


def test_support_product_holds_its_output_and_three_blocks(rng):
    # the P^3 x P step of a 30-term P at 30^4 slots: 57 270 products into
    # 8 679 coefficients, from a kept plan; the arrays of one slot per
    # product that each call used to allocate took about 0.9 MB each
    out_len = 30**4
    ia, va = np.arange(1, 31), rng.normal(size=30) + 1j * rng.normal(size=30)
    ib, vb = ia, va
    for _ in range(2):
        ib, vb = _kernels.convolve_support(ia, va, ib, vb, out_len)
    _kernels.convolve_support(ia, va, ib, vb, out_len)
    tracemalloc.start()
    try:
        n, v = _kernels.convolve_support(ia, va, ib, vb, out_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(n) == 8679
    # the sums and their nonzero mask, the output, three complex buffers of
    # 2^12 products and one block's int32 gather indices as intp
    output = 2 * v.nbytes + len(v) + n.nbytes
    assert peak <= output + 3 * 2**12 * 16 + 2**12 * 8 + 8 * 2**10


def test_support_plan_hits_and_misses_match_row_oracle(rng, monkeypatch):
    # every support pair is multiplied three times with fresh values: one
    # merge (the miss), then two products from the kept plan
    merges = _spy_merges(monkeypatch)
    pairs = []
    for _ in range(60):
        out_len = int(np.exp(rng.uniform(0.0, np.log(50_000))))
        spread = int(rng.integers(1, out_len + 1))
        nnz_a, nnz_b = (int(x) for x in rng.integers(1, min(spread, 30) + 1, size=2))
        ia = _random_support(rng, nnz_a, spread)[0]
        ib = _random_support(rng, nnz_b, spread)[0]
        pairs.append((ia, ib, out_len))
    for _ in range(3):
        for ia, ib, out_len in pairs:
            va = rng.normal(size=len(ia)) + 1j * rng.normal(size=len(ia))
            vb = rng.normal(size=len(ib)) + 1j * rng.normal(size=len(ib))
            n, v = _assert_matches_row_oracle(ia, va, ib, vb, out_len)
            assert n.flags.writeable  # never the kept plan's own array
    distinct = {(a.tobytes(), b.tobytes(), o) for a, b, o in pairs}
    assert len(merges) == len(distinct) and len(_kernels._plans) == len(distinct)


def test_support_plan_after_a_cancelled_coefficient(monkeypatch):
    # P = 1 + 2^-s + 3 * 3^-s + c 6^-s: the coefficient of 6^-s in P^2 is
    # 2c + 6 (row order: -3 + 3 + 3 - 3 for c = -3), exactly 0 at c = -3, so
    # that P^2 has one term less and P^3 = P * P^2 misses the plan of the
    # other P^2 by its key
    merges = _spy_merges(monkeypatch)
    out_len = 6**3
    ia = np.array([1, 2, 3, 6], dtype=np.int64)
    squares = []
    for c in (-1.5, -3.0):
        va = np.array([1.0, 1.0, 3.0, c], dtype=np.complex128)
        ib, vb = _assert_matches_row_oracle(ia, va, ia, va, out_len)
        squares.append(ib)
        _assert_matches_row_oracle(ia, va, ib, vb, out_len)
    assert 6 in squares[0] and 6 not in squares[1] and len(squares[1]) == len(squares[0]) - 1
    assert len(merges) == 3  # P^2 once, and one P^3 for each support of P^2


# int32 [1, 2] and uint32 [1, 2] have the same bytes at one length, int64
# [2^33 + 1] the same bytes at another; none may read another's plan
_SAME_BYTES = [
    np.array([1, 2], dtype=np.int32),
    np.array([1, 2], dtype=np.uint32),
    np.array([2**33 + 1], dtype=np.int64),
]


@pytest.mark.parametrize(
    "side,same_bytes,out_len",
    [("outer", _SAME_BYTES[:2], 1000), ("inner", _SAME_BYTES, 2**36)],
)
def test_support_plan_keys_tell_equal_bytes_apart(side, same_bytes, out_len):
    assert len({x.tobytes() for x in same_bytes}) == 1
    other = np.array([1, 2, 3] if side == "outer" else [1], dtype=np.int64)
    vo = np.full(len(other), 2.0 - 1.0j)
    for order in (same_bytes, same_bytes[::-1]):
        _kernels._clear_plans()
        for idx in order:
            vals = np.arange(1, len(idx) + 1) * (1.0 + 0.5j)
            args = (idx, vals, other, vo) if side == "outer" else (other, vo, idx, vals)
            _assert_matches_row_oracle(*args, out_len)
        assert len(_kernels._plans) == len(same_bytes)


def _kept_plan_bytes():
    return sum(
        sum(a.nbytes for a in plan) + len(key[2]) + len(key[5])
        for key, (plan, _) in _kernels._plans.items()
    )


def test_support_plans_stay_within_their_byte_budget(rng):
    budget = _kernels._PLAN_BUDGET_BYTES
    out_len = 10**7
    first = None
    for _ in range(40):
        # about 12 000 products each: some 10 plans fill the budget
        ia = _random_support(rng, 30, 3000)[0]
        ib, vb = _random_support(rng, 400, 3000)
        _assert_matches_row_oracle(ia, np.ones(30, np.complex128), ib, vb, out_len)
        assert _kernels._plan_bytes == _kept_plan_bytes() <= budget
        if first is None:
            first = next(iter(_kernels._plans))
    assert first not in _kernels._plans  # the oldest plans went first
    # a plan above the whole budget serves its product but is not kept
    ia, va = _random_support(rng, 300, 300)
    ib, vb = _random_support(rng, 2000, 2000)
    kept = list(_kernels._plans)
    _assert_matches_row_oracle(ia, va, ib, vb, out_len)
    assert list(_kernels._plans) == kept and _kernels._plan_bytes <= budget


def test_support_plans_keep_the_recently_used(rng):
    ia, va = _random_support(rng, 30, 3000)
    ib, vb = _random_support(rng, 400, 3000)
    _kernels.convolve_support(ia, va, ib, vb, 10**7)
    key = next(iter(_kernels._plans))
    for _ in range(40):
        _kernels.convolve_support(ia, va, ib, vb, 10**7)  # a hit moves it last
        ic, vc = _random_support(rng, 400, 3000)
        _kernels.convolve_support(ia, va, ic, vc, 10**7)
        assert key in _kernels._plans


def _dense_operand(rng, length):
    return rng.normal(size=length) + 1j * rng.normal(size=length)


def _same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.uint64), np.asarray(y).view(np.uint64))


@pytest.mark.parametrize("root", [2, 3, 7, 10, 31])
def test_split_kernels_bit_identical_at_square_boundaries(rng, root):
    # out_len = D^2 - 1, D^2, D(D+1) - 1, D^2 + D: isqrt and the row count of
    # loop 2, out_len // (isqrt + 1), each change at one of these
    for out_len in (root * root - 1, root * root, root * (root + 1) - 1, root * root + root):
        a, b = _dense_operand(rng, out_len), _dense_operand(rng, out_len)
        for x, y in ((a, b), (b, a)):
            got = _kernels._convolve_rows(x, y, out_len)
            assert _same_bits(got, dirichlet_convolve_loop(x, y, out_len))
        t = rng.integers(0, 2**62, size=out_len, dtype=np.uint64)
        got, flag = _kernels.divisor_sum_u64(t)
        want, want_flag = divisor_sum_loop(t)
        assert np.array_equal(got, want) and flag == want_flag


def _signed_operand(rng, length):
    """Dense coefficients of mixed signs, with -0.0 and +0.0 parts in both halves."""
    a = _dense_operand(rng, length)
    a.real[::7] = -0.0
    a.imag[::5] = -0.0
    a.imag[3::11] = 0.0
    a[13::17] = -0.0 - 0.0j
    return a


_OPERANDS = {
    "dense": _dense_operand,
    "sparse": lambda rng, length: _sparse_operand(rng, length, max(1, length // 20), length),
    "signed": _signed_operand,
}


@pytest.mark.parametrize("kind", sorted(_OPERANDS))
@pytest.mark.parametrize(
    "out_len",
    # loop 1's first slice and loop 2's first run (out_len - isqrt(out_len)
    # slots; 2^14 + 128 has isqrt 128) below, at and above one buffer
    [2**14 - 1, 2**14, 2**14 + 1, 2**14 + 127, 2**14 + 128, 2**14 + 129, 3 * 2**14 + 5],
)
def test_convolve_rows_bit_identical_to_unchunked_loop(rng, kind, out_len):
    a, b = _OPERANDS[kind](rng, out_len), _signed_operand(rng, out_len)
    for x, y in ((a, b), (b, a)):
        got = _kernels._convolve_rows(x, y, out_len)
        assert _same_bits(got, convolve_rows_unchunked(x, y, out_len))


def test_convolve_rows_bit_identical_with_a_small_buffer(rng, monkeypatch):
    # a 7-slot buffer puts chunk edges at every residue of short slices
    monkeypatch.setattr(_kernels, "_ROW_BLOCK", 7)
    kinds = sorted(_OPERANDS)
    for _ in range(60):
        out_len = int(rng.integers(1, 700))
        la, lb = (int(v) for v in rng.integers(1, 2 * out_len + 1, size=2))
        a = _OPERANDS[kinds[int(rng.integers(3))]](rng, la)
        b = _OPERANDS[kinds[int(rng.integers(3))]](rng, lb)
        got = _kernels._convolve_rows(a, b, out_len)
        assert _same_bits(got, convolve_rows_unchunked(a, b, out_len))
        assert _same_bits(got, dirichlet_convolve_loop(a, b, out_len))


def test_dense_product_holds_its_output_and_one_buffer(rng):
    # measured 5.4 KiB above the output and the 256 KiB buffer; a
    # whole-slice product a_1 * b took another 3.05 MiB
    out_len = 200_000
    a, b = _dense_operand(rng, out_len), _dense_operand(rng, out_len)
    tracemalloc.start()
    try:
        c = _kernels.dirichlet_convolve(a, b, out_len)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= c.nbytes + 16 * _kernels._ROW_BLOCK + 64 * 2**10


def test_split_convolve_operands_shorter_than_split_and_longer_than_output(rng):
    out_len = 400  # split at D = 20
    for la, lb in ((7, 400), (400, 7), (19, 1000), (1000, 19), (1000, 1000), (5, 3)):
        a, b = _dense_operand(rng, la), _dense_operand(rng, lb)
        got = _kernels._convolve_rows(a, b, out_len)
        assert _same_bits(got, dirichlet_convolve_loop(a, b, out_len))
        want = dirichlet_convolve_quadratic(a, b, out_len)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
        assert _same_bits(_kernels.dirichlet_convolve(a, b, out_len), _dense_loop(a, b, out_len))


@pytest.mark.parametrize("indices", [[49, 122, 300, 399], [1, 4, 16, 18]])
def test_split_rule_keeps_the_plain_loop_for_a_very_sparse_operand(rng, monkeypatch, indices):
    # four nonzeros only above sqrt(400) = 20, or only below it, times a dense
    # operand: 4 * 400 > out_len, so the dense kernel runs, and the four
    # nonzeros above D are no more than the 19 rows loop 2 would walk
    out_len = 400
    a = np.zeros(out_len, dtype=np.complex128)
    a[indices] = _dense_operand(rng, len(indices))
    b = _dense_operand(rng, out_len)
    assert _kernels._hyperbola_split(a, b, out_len) == out_len
    calls = _count_support_calls(monkeypatch)
    for x, y in ((a, b), (b, a)):
        got = _kernels.dirichlet_convolve(x, y, out_len)
        assert _same_bits(got, dirichlet_convolve_loop(a, b, out_len))
    assert not calls


def test_split_rule_takes_the_split_for_a_half_dense_operand(rng):
    out_len = 900  # D = 30, loop 2 walks the nonzero b_m with m <= 29
    a = _sparse_operand(rng, out_len, 450, out_len)
    b = _dense_operand(rng, out_len)
    assert _kernels._hyperbola_split(a, b, out_len) == 30
    got = _kernels.dirichlet_convolve(a, b, out_len)
    assert _same_bits(got, dirichlet_convolve_loop(a, b, out_len))


def test_divisor_sum_counts_divisors():
    ones = np.ones(30, dtype=np.uint64)
    out, overflow = _kernels.divisor_sum_u64(ones)
    assert not overflow
    # out[n-1] = number of divisors of n
    assert out[0] == 1 and out[5] == 4 and out[11] == 6 and out[28] == 2


def test_divisor_sum_overflow_detected():
    t = np.array([2**63, 2**63], dtype=np.uint64)
    out, overflow = _kernels.divisor_sum_u64(t)
    assert overflow  # 2^63 + 2^63 wraps at n = 2


def test_divisor_sum_wraps_only_in_a_loop_two_slot():
    # n = 10: d = 5 and d = 10 lie above the split D = 3, so their terms reach
    # slot 10 from loop 2 (rows m = 2 and m = 1); only that slot wraps
    t = np.ones(10, dtype=np.uint64)
    t[4], t[9] = 2**63, 2**63 - 2
    assert _kernels._hyperbola_split(t, np.ones(10, dtype=np.uint64), 10) == 3
    out, overflow = _kernels.divisor_sum_u64(t)
    assert overflow
    assert out[9] == 0 and out[4] == 2**63 + 1
    want, want_flag = divisor_sum_loop(t)
    assert np.array_equal(out, want) and want_flag
    t[9] -= 1
    out, overflow = _kernels.divisor_sum_u64(t)
    assert not overflow and out[9] == 2**64 - 1


def test_divisor_sum_matches_the_loop_on_random_tables(rng):
    for i in range(60):
        n = int(rng.integers(1, 3000))
        if i % 3 == 0:  # dense, no wrap
            t = rng.integers(0, 2**40, size=n, dtype=np.uint64)
        elif i % 3 == 1:  # dense, wraps from n = 6, the first with four divisors
            t = rng.integers(2**62, 2**63, size=n, dtype=np.uint64)
        else:  # sparse: the plain loop
            t = np.where(rng.uniform(size=n) < 0.01, rng.integers(0, 2**63, size=n), 0)
            t = t.astype(np.uint64)
        out, overflow = _kernels.divisor_sum_u64(t)
        want, want_flag = divisor_sum_loop(t)
        assert np.array_equal(out, want) and overflow == want_flag


@pytest.mark.parametrize("n", [1, 2, 30, 1000])
def test_divisor_sum_skips_checks_only_below_the_bound(n):
    # max(t) * n < 2^64 proves that no slot wraps, so the checks are skipped;
    # at the bound and above they run; either way table and flag are the
    # checked loop's
    top = -(-(2**64) // n)  # the least max(t) with max(t) * n >= 2^64
    for t_max in (top - 1, top):
        if t_max >= 2**64:
            continue
        for fill in (t_max, 1):  # every entry at the max, or one entry there
            t = np.full(n, fill, dtype=np.uint64)
            t[-1] = t_max
            out, overflow = _kernels.divisor_sum_u64(t)
            want, want_flag = divisor_sum_loop(t)
            assert np.array_equal(out, want) and overflow == want_flag
            if t_max * n < 2**64:
                assert not overflow


def test_divisor_sum_below_the_bound_runs_no_wrap_check(monkeypatch):
    t = np.full(1000, (2**64 - 1) // 1000, dtype=np.uint64)
    want, want_flag = divisor_sum_loop(t)
    compared = []
    real_any = np.any
    monkeypatch.setattr(np, "any", lambda x: compared.append(1) or real_any(x))
    out, overflow = _kernels.divisor_sum_u64(t)
    assert not compared
    t[0] += np.uint64(1)  # max(t) * n is now at least 2^64
    _kernels.divisor_sum_u64(t)
    assert compared
    assert np.array_equal(out, want) and overflow == want_flag


def test_sieve_matches_trial_division():
    spf, primes = _kernels.sieve_spf(500)
    assert list(primes) == trial_division_primes(500)
    for n in range(2, 501):
        assert spf[n] == smallest_factor(n)


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 25, 26, 500, 10_001])
def test_sieve_primes_matches_trial_division(limit):
    primes = _kernels.sieve_primes(limit)
    assert primes.dtype == np.int64
    assert primes.tolist() == trial_division_primes(limit)


def test_sieve_primes_bounded_memory():
    # the marked slots become primes in place: the peak is the sieve (8.25 MiB)
    # and one int64 array of the 1.1 * 10^6 primes (8.46 MiB); prepending 2 to
    # 2 * flatnonzero(odd) + 1 took 25 MiB
    tracemalloc.start()
    try:
        primes = _kernels.sieve_primes(17_300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * 2**20
    assert primes[:4].tolist() == [2, 3, 5, 7]
    assert len(primes) == 1_109_288  # pi(1.73 * 10^7), as sieve_spf counts


@pytest.mark.parametrize(
    "n_max",
    [0, 1, 2, 3, 15, 16, 17, 2**16 - 1, 2**16, 2**16 + 1, 10**5, 2**18 + 1, 251**2, 257**2],
)
@pytest.mark.parametrize("kind", ["weights", "signed", "unimodular", "minus-zero"])
def test_mult_extend_bits_match_loop(n_max, kind):
    # blocks [2^j, 2^{j+1}) end at 2^k - 1; from 2^17 on they are filled in
    # several vectorized steps of _EXTEND_BLOCK slots.  Each step sieves its
    # own smallest prime factors with the primes up to isqrt(last slot):
    # 251^2 and 257^2 put a prime square, the one slot its largest sieving
    # prime marks, at the last slot of a step
    rng = np.random.default_rng(n_max)
    spf, primes = _kernels.sieve_spf(max(n_max, 2))
    vals = np.zeros(len(primes), dtype=np.complex128)
    if kind == "weights":  # as in weighted_h2_norm
        vals.real = primes.astype(np.float64) ** (-2.0 / 3)
    elif kind == "signed":
        vals.real = rng.normal(size=len(primes))
    elif kind == "unimodular":  # a character, as in vertical_limit
        vals[:] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    else:  # chi(p) = -0 +- 1j: (1+0j) * (-0 - 1j) is +0 - 1j, so a table
        # extended in its own prime slots would read a rewritten f(p)
        vals.real = -0.0
        vals.imag = rng.choice([-1.0, 1.0], size=len(primes))
    dense = np.zeros(len(spf), dtype=np.complex128)  # the loop reads f(p) at p
    dense[primes] = vals
    out = _kernels.mult_extend(primes, vals, n_max)
    assert out.tobytes() == mult_extend_loop(spf, dense, n_max).tobytes()


@pytest.mark.parametrize("n_max", [0, 1, 2, 17, 2**16 + 1, 2**18 + 1])
@pytest.mark.parametrize("kind", ["weights", "signed"])
def test_mult_extend_real_values_bits_match_complex(n_max, kind):
    # real values give a float64 table holding the complex table's real part
    rng = np.random.default_rng(n_max)
    primes = _kernels.sieve_primes(max(n_max, 2))
    if kind == "weights":  # as in weighted_h2_norm
        vals = primes.astype(np.float64) ** (-2.0 / 3)
    else:
        vals = rng.normal(size=len(primes))
    out = _kernels.mult_extend(primes, vals, n_max)
    assert out.dtype == np.float64
    want = _kernels.mult_extend(primes, vals.astype(np.complex128), n_max)
    assert want.dtype == np.complex128
    assert out.tobytes() == want.real.tobytes()


@pytest.mark.parametrize("n_max", [0, 1, 17, 2**16 + 1])
def test_mult_extend_writes_no_prime_value(n_max):
    # the table is a fresh array, for real and complex values alike
    primes = _kernels.sieve_primes(max(n_max, 2) + 5)
    for vals in (primes.astype(np.float64) ** -0.5, np.exp(1j * primes.astype(np.float64))):
        before = vals.tobytes()
        out = _kernels.mult_extend(primes, vals, n_max)
        assert len(out) == n_max + 1 and not np.shares_memory(out, vals)
        assert vals.tobytes() == before


def test_mult_extend_is_completely_multiplicative(rng):
    n_max = 2000
    primes = _kernels.sieve_primes(n_max)
    vals = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    out = _kernels.mult_extend(primes, vals, n_max)
    assert out[1] == 1.0
    assert out[primes].tobytes() == vals.tobytes()  # f(p_j) lands at p_j
    for m, n in ((2, 3), (4, 9), (6, 35), (8, 125), (30, 49)):
        assert out[m * n] == pytest.approx(out[m] * out[n], rel=1e-12)
    assert out[8] == pytest.approx(out[2] ** 3, rel=1e-12)
