import numpy as np
import pytest

from hplus import _kernels

from oracles import dirichlet_convolve_quadratic, smallest_factor, trial_division_primes

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


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


@needs_numba
def test_convolve_backends_agree(rng):
    for n, density in ((257, 1.0), (1000, 0.05)):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        mask = rng.uniform(size=n) < density
        a = np.where(mask, a, 0)
        got_np = _kernels._convolve_numpy(a, b, n)
        got_nb = _kernels._convolve_numba(a, b, n)
        assert np.allclose(got_np, got_nb, rtol=1e-12, atol=1e-12)


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
    return _kernels._convolve_numpy(a, b, out_len)


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


@needs_numba
def test_divisor_sum_backends_identical():
    t = np.arange(1, 5000, dtype=np.uint64)
    np_out, np_flag = _kernels._divisor_sum_u64_numpy(t)
    nb_out, nb_flag = _kernels._divisor_sum_u64_numba(t)
    assert np.array_equal(np_out, nb_out)
    assert np_flag == nb_flag


def test_sieve_matches_trial_division():
    spf, primes = _kernels.sieve_spf(500)
    assert list(primes) == trial_division_primes(500)
    for n in range(2, 501):
        assert spf[n] == smallest_factor(n)


@needs_numba
def test_sieve_backends_identical():
    np_spf, np_primes = _kernels._spf_sieve_numpy(10_000)
    nb_spf, nb_primes = _kernels._spf_sieve_numba(10_000)
    assert np.array_equal(np_spf, nb_spf)
    assert np.array_equal(np_primes, nb_primes)


def test_mult_extend_is_completely_multiplicative(rng):
    n_max = 2000
    spf, primes = _kernels.sieve_spf(n_max)
    vals = np.zeros(n_max + 1, dtype=np.complex128)
    vals[primes] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    out = _kernels.mult_extend(spf, vals, n_max)
    assert out[1] == 1.0
    for m, n in ((2, 3), (4, 9), (6, 35), (8, 125), (30, 49)):
        assert out[m * n] == pytest.approx(out[m] * out[n], rel=1e-12)
    assert out[8] == pytest.approx(out[2] ** 3, rel=1e-12)


@needs_numba
def test_mult_extend_backends_identical(rng):
    n_max = 3000
    spf, primes = _kernels.sieve_spf(n_max)
    vals = np.zeros(n_max + 1, dtype=np.complex128)
    vals[primes] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    assert np.array_equal(
        _kernels._mult_extend_numpy(spf, vals, n_max),
        _kernels._mult_extend_numba(spf, vals, n_max),
    )
