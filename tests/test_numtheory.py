import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hplus import _kernels
from hplus.errors import BeyondDeskScale, TableTooSmall
from hplus.numtheory import (
    MultiIndex,
    chebyshev_theta,
    divisor_power_table,
    euler_product,
    factorize,
    prime_pi,
    sieve,
    smooth_numbers,
)

from hplus.series import seminorm_comparison_constant

from oracles import (
    eratosthenes,
    euler_product_loop,
    ordered_factorizations_enumerated,
    trial_division_primes,
)


# -- sieve -------------------------------------------------------------------

def test_sieve_smallest_case():
    assert list(sieve(2).primes) == [2]


def test_sieve_ten_vs_trial_division():
    assert list(sieve(10).primes) == [2, 3, 5, 7] == trial_division_primes(10)


def test_sieve_invariants(table_200):
    assert np.all(np.diff(table_200.primes) > 0)
    assert table_200.primes[-1] == 199 and table_200.limit == 200


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve(1)
    with pytest.raises(ValueError, match="int32"):  # mult_extend's steps could not hold it
        sieve(2**31)


@pytest.mark.parametrize("limit", [2, 3, 4, 9, 25, 26, 500, 10_001])
def test_sieve_matches_spf_sieve_and_builds_spf_lazily(limit):
    # a table holds its primes alone: the spf table is sieved only where
    # asked for, by sieve_spf, and each extension step sieves its own factors
    table = sieve(limit)
    assert not hasattr(table, "spf")
    _, primes = _kernels.sieve_spf(limit)
    assert table.primes.tobytes() == primes.tobytes()
    assert not table.primes.flags.writeable


# -- factorize / MultiIndex ---------------------------------------------------

def test_factorize_examples(table_200):
    assert factorize(1, table_200).exponents == ()
    assert factorize(12, table_200).exponents == (2, 1)
    assert factorize(5, table_200).exponents == (0, 0, 1)


def test_factorize_errors(table_200):
    with pytest.raises(TableTooSmall):
        factorize(300, table_200)
    with pytest.raises(ValueError):
        factorize(0, table_200)


def test_multiindex_trims_and_rejects():
    assert MultiIndex((1, 0, 0)).exponents == (1,)
    assert len(MultiIndex(())) == 0
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


@pytest.mark.parametrize("zeros", [1, 2, 8000])
def test_multiindex_long_trailing_zeros_equal_short_form(zeros):
    for short in ((1,), (0, 3), (2, 0, 5)):
        long = MultiIndex(short + (0,) * zeros)
        assert long.exponents == short
        assert long == MultiIndex(short)
        assert hash(long) == hash(MultiIndex(short))
    assert MultiIndex((0,) * zeros) == MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((-1,) + (0,) * zeros)


def test_factorize_roundtrip_exhaustive(table_100k):
    for n in range(1, 100_001):
        assert factorize(n, table_100k).to_int(table_100k) == n


@given(st.integers(min_value=1, max_value=99_999))
def test_factorize_roundtrip_property(table_100k, n):
    alpha = factorize(n, table_100k)
    assert alpha.to_int(table_100k) == n
    if n > 1:
        assert alpha.exponents[-1] > 0  # trailing zeros trimmed


# -- divisor tables ------------------------------------------------------------

def test_divisor_table_degenerate_orders():
    d0 = divisor_power_table(0, 8)
    assert list(d0) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert np.all(divisor_power_table(1, 50) == 1)


def test_divisor_table_unit_row():
    for k in range(1, 7):
        assert divisor_power_table(k, 5)[0] == 1


def test_d2_of_6_brute_force():
    pairs = [(a, b) for a in range(1, 7) for b in range(1, 7) if a * b == 6]
    assert len(pairs) == 4
    assert divisor_power_table(2, 6)[5] == 4


@pytest.mark.parametrize("k", [2, 3, 4])
def test_divisor_table_vs_enumeration(k):
    table = divisor_power_table(k, 60)
    for n in range(1, 61):
        assert table[n - 1] == ordered_factorizations_enumerated(n, k)


def test_divisor_table_primorial_identity():
    # d_k(product of primes <= 10) = k^pi(10) = k^4
    table210 = {k: divisor_power_table(k, 210) for k in range(2, 6)}
    for k in range(2, 6):
        assert table210[k][209] == k**4


def test_divisor_convolution_semigroup():
    n_max = 2000
    tables = {j: divisor_power_table(j, n_max) for j in range(0, 6)}
    for j, m in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
        lhs = np.zeros(n_max, dtype=np.uint64)
        for n in range(1, n_max + 1):
            acc = 0
            for d in range(1, int(math.isqrt(n)) + 1):
                if n % d == 0:
                    acc += int(tables[j][d - 1]) * int(tables[m][n // d - 1])
                    if d * d != n:
                        acc += int(tables[j][n // d - 1]) * int(tables[m][d - 1])
            lhs[n - 1] = acc
        assert np.array_equal(lhs, tables[j + m])


def test_divisor_table_multiplicative():
    n_max = 2000
    tables = {k: divisor_power_table(k, n_max) for k in range(2, 5)}
    for k in range(2, 5):
        t = tables[k]
        for m in range(2, n_max):
            for n in range(2, n_max // m + 1):
                if math.gcd(m, n) == 1:
                    assert t[m * n - 1] == t[m - 1] * t[n - 1]


def test_divisor_table_overflow_raises(monkeypatch):
    monkeypatch.setattr(
        "hplus.numtheory._kernels.divisor_sum_u64",
        lambda t: (t, True),
    )
    with pytest.raises(OverflowError):
        divisor_power_table(2, 10)


# -- prime counts --------------------------------------------------------------

def test_prime_pi_small(table_200):
    assert prime_pi(1, table_200) == 0
    assert prime_pi(2, table_200) == 1
    assert prime_pi(10, table_200) == 4
    assert prime_pi(10.99, table_200) == 4


def test_prime_pi_agrees_with_direct_count(table_3k):
    for x in (2, 3, 97, 100, 1000, 2999):
        assert prime_pi(x, table_3k) == int(np.sum(table_3k.primes <= x))


def test_prime_pi_errors(table_200):
    with pytest.raises(ValueError):
        prime_pi(-1, table_200)
    with pytest.raises(TableTooSmall):
        prime_pi(201, table_200)


def test_theta_small(table_200):
    assert chebyshev_theta(1, table_200) == 0.0
    assert chebyshev_theta(10, table_200) == pytest.approx(math.log(210), rel=1e-15)


def test_theta_agrees_with_direct_sum(table_3k):
    for x in (10, 100, 1234, 3000):
        direct = sum(math.log(int(p)) for p in table_3k.primes if p <= x)
        assert chebyshev_theta(x, table_3k) == pytest.approx(direct, rel=1e-13)


def test_theta_over_x_approaches_one_monotonically(table_100k):
    ratios = [chebyshev_theta(10**e, table_100k) / 10**e for e in (3, 4, 5)]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


# -- smooth numbers --------------------------------------------------------------

def test_smooth_numbers_examples(table_200):
    assert list(smooth_numbers(1, 10, table_200)) == [1, 2, 4, 8]
    assert list(smooth_numbers(2, 10, table_200)) == [1, 2, 3, 4, 6, 8, 9]


def test_smooth_numbers_all_when_enough_primes(table_200):
    limit = 50
    n_primes = prime_pi(limit, table_200)
    assert list(smooth_numbers(n_primes, limit, table_200)) == list(range(1, limit + 1))


def test_nth_prime(table_200):
    assert table_200.nth_prime(1) == 2
    assert table_200.nth_prime(10) == 29
    with pytest.raises(TableTooSmall):
        table_200.nth_prime(10_000)


# -- Euler products ------------------------------------------------------------

def _same_bits(got, want):
    return [(j, float(v).hex()) for j, v in got] == [(j, float(v).hex()) for j, v in want]


def test_euler_product_matches_old_loops():
    # each ladder is asked for largest bound first, as superpose_entire asks
    primes = eratosthenes(10**6)
    for m in (1, 2, 3, 4):
        # chain constants: every k with (k/2)^{2m} <= 10^6, strict cut r > t
        ks = [k for k in range(1, 2001) if k ** (2 * m) <= 10**6 * 4**m]
        thresholds = [math.sqrt(2.0 / k) for k in ks]
        got = [euler_product(4 * m, t)[:2] for t in reversed(thresholds)][::-1]
        assert _same_bits(got, euler_product_loop(4 * m, thresholds, primes, strict=True))
    for p, q in ((1, 2), (2, 4)):
        # comparison constants: every k with (q/p)^k <= 10^6, cut r >= t
        for k in range(1, 20):
            want = euler_product_loop(2 * k, [math.sqrt(p / q)], primes, strict=False)
            got = euler_product(2 * k, math.sqrt(p / q))[:2]
            assert _same_bits([got], want)
            assert seminorm_comparison_constant(k, p, q) == want[0][1]


def test_euler_product_log_sum_stays_finite():
    # m = 4, k = 8: the chain product overflows, its log does not
    j_cut, prod, log_prod = euler_product(16, math.sqrt(2.0 / 8))
    primes = eratosthenes(4**8 + 1)[:j_cut]
    assert prod == math.inf
    want = math.fsum(-math.log1p(-float(p) ** (-1 / 16)) for p in primes)
    assert log_prod == pytest.approx(want, rel=1e-12)


def test_euler_product_empty_and_invalid():
    assert euler_product(4, 1.0) == (0, 1.0, 0.0)
    assert euler_product(2, 2.0) == (0, 1.0, 0.0)
    with pytest.raises(ValueError):
        euler_product(0, 0.5)
    with pytest.raises(ValueError):
        euler_product(4, 0.0)
    with pytest.raises(BeyondDeskScale, match="beyond desk scale"):
        euler_product(2, 1e-5)  # primes up to 1e10
