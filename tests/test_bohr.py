import math
import tracemalloc

import numpy as np
import pytest

from hplus import _kernels, bohr
from hplus.bohr import (
    MultiPoly,
    _term_arrays,
    lift,
    nonextension_partial_sums,
    parseval_rho2,
    rho_estimate,
    sieve_for_n_primes,
    weighted_h2_norm,
)
from hplus.errors import TableTooSmall
from hplus.numtheory import MultiIndex, sieve
from hplus.operators import Character, vertical_limit
from hplus.series import DirichletSeries, evaluate, seminorm_2

from oracles import (
    lift_by_factorize,
    mult_extend_loop,
    nonextension_one_pass,
    parseval_rho2_loop,
    poly_from_terms,
    rho_estimate_phases,
    rho_from_values,
    rho_per_sample,
    rho_phase_values,
    term_arrays_dict_loop,
)


def parseval_value(poly: MultiPoly, k: int, table) -> float:
    primes = table.primes[: poly.n_vars].astype(float)
    total = 0.0
    for alpha, c in poly.terms.items():
        w = 1.0
        for j, e in enumerate(alpha.exponents):
            w *= primes[j] ** (-2.0 * e / k)
        total += abs(c) ** 2 * w
    return math.sqrt(total)


def random_poly(rng, n_vars=3, n_terms=20, max_exp=4) -> MultiPoly:
    terms = {}
    while len(terms) < n_terms:
        alpha = tuple(int(e) for e in rng.integers(0, max_exp, size=n_vars))
        terms[alpha] = terms.get(alpha, 0j) + complex(rng.normal(), rng.normal())
    return MultiPoly(n_vars, list(terms), list(terms.values()))


# -- MultiPoly -------------------------------------------------------------------

@pytest.mark.parametrize("rows, fault", [
    ([(1, 2, 0), (0, 1, 0), (1, 2, 0)], "repeated exponent row [1, 2, 0]"),
    ([(1, 2, 0), (0, -1, 0), (2, 0, 0)], "exponents must be >= 0"),
    ([(1, 2, 0), (0, 1), (2, 0, 0)], "n_vars = 3 exponents"),
    ([(1, 2), (0, 1), (2, 0)], "n_vars = 3 exponents"),
])
def test_multipoly_names_the_faulty_row(rows, fault):
    with pytest.raises(ValueError) as err:
        MultiPoly(3, rows, [1.0, 2j, 3.0])
    assert fault in str(err.value)


def test_multipoly_drops_zero_coefficients_and_is_read_only():
    f = MultiPoly(2, [(0, 1), (3, 0), (2, 2)], [1.5, 0j, -1j])
    assert f.exponents.tolist() == [[0, 1], [2, 2]]
    assert f.coeffs.tolist() == [1.5, -1j]
    assert f.exponents.dtype == np.int64 and f.coeffs.dtype == np.complex128
    assert list(f.terms.items()) == [(MultiIndex((0, 1)), 1.5), (MultiIndex((2, 2)), -1j)]
    for arr in (f.exponents, f.coeffs):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_multipoly_without_terms():
    f = MultiPoly(3, [], [])
    assert f.exponents.shape == (0, 3) and len(f.coeffs) == 0
    assert f.terms == {}
    assert f.evaluate(np.ones(3)) == 0


# -- lift ------------------------------------------------------------------------

def test_lift_monomial(table_200):
    res = lift(DirichletSeries.monomial(2, 1.0, 10), 1, table_200)
    assert res.poly.terms == {MultiIndex((1,)): 1.0}
    assert res.dropped_count == 0


def test_lift_ones_two_vars(table_200):
    res = lift(DirichletSeries.ones(10), 2, table_200)
    kept = sorted(alpha.to_int(table_200) for alpha in res.poly.terms)
    assert kept == [1, 2, 3, 4, 6, 8, 9]
    assert res.dropped_count == 3  # n = 5, 7, 10
    assert res.dropped_sq_mass == pytest.approx(3.0)


def test_lift_substitution_identity(table_200, rng):
    # evaluating the lift at z_j = p_j^{-s} reproduces the smooth part of D(s)
    d = DirichletSeries(rng.normal(size=30) + 1j * rng.normal(size=30))
    n_vars = 3
    res = lift(d, n_vars, table_200)
    s = 1.3 + 0.7j
    z = np.array([complex(p) ** -s for p in table_200.primes[:n_vars]])
    smooth = [alpha.to_int(table_200) for alpha in res.poly.terms]
    restricted = DirichletSeries(
        np.array(
            [d.coeffs[n - 1] if (n in smooth) else 0 for n in range(1, 31)],
            dtype=np.complex128,
        )
    )
    assert res.poly.evaluate(z) == pytest.approx(evaluate(restricted, s), rel=1e-12)


def assert_same_lift(got, want):
    assert got.poly.n_vars == want.poly.n_vars
    assert list(got.poly.terms.items()) == list(want.poly.terms.items())  # insertion order too
    assert got.dropped_count == want.dropped_count
    assert got.dropped_sq_mass.hex() == want.dropped_sq_mass.hex()


@pytest.mark.parametrize("n_vars", [1, 2, 5, 12, 500])
@pytest.mark.parametrize("seed", range(4))
def test_lift_matches_factorize_oracle(table_3k, n_vars, seed):
    rng = np.random.default_rng(seed)
    truncation = int(rng.integers(10, 3000))
    coeffs = np.zeros(truncation, dtype=np.complex128)
    idx = rng.choice(truncation, size=min(truncation, 300), replace=False)
    mags = 10.0 ** rng.uniform(-150, 150, size=len(idx))
    coeffs[idx] = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(idx)))
    d = DirichletSeries(coeffs)
    assert_same_lift(lift(d, n_vars, table_3k), lift_by_factorize(d, n_vars, table_3k))


def test_lift_matches_factorize_oracle_on_ones_and_zero(table_3k):
    for d in (DirichletSeries.ones(3000), DirichletSeries.zero(50), DirichletSeries.monomial(1, 2.0, 5)):
        for n_vars in (1, 8, 430):
            assert_same_lift(lift(d, n_vars, table_3k), lift_by_factorize(d, n_vars, table_3k))


def test_lift_table_too_small_matches_oracle(table_200):
    coeffs = np.zeros(400, dtype=np.complex128)
    coeffs[[5, 260, 350]] = 1.0  # n = 6, 261, 351: the first index past the table is 261
    d = DirichletSeries(coeffs.copy())
    with pytest.raises(TableTooSmall) as got:
        lift(d, 3, table_200)
    with pytest.raises(TableTooSmall) as want:
        lift_by_factorize(d, 3, table_200)
    assert str(got.value) == str(want.value)
    # zeros beyond the table do not count
    coeffs[[260, 350]] = 0.0
    d = DirichletSeries(coeffs)
    assert_same_lift(lift(d, 3, table_200), lift_by_factorize(d, 3, table_200))


def test_lift_is_linear(table_200, rng):
    a = DirichletSeries(rng.normal(size=20) + 0j)
    b = DirichletSeries(rng.normal(size=20) + 0j)
    la = lift(a, 2, table_200).poly
    lb = lift(b, 2, table_200).poly
    lsum = lift(a + b, 2, table_200).poly
    combined = poly_from_terms(2, {alpha: la.terms.get(alpha, 0j) + lb.terms.get(alpha, 0j)
                                   for alpha in la.terms.keys() | lb.terms.keys()})
    assert set(lsum.terms) == set(combined.terms)
    for alpha, c in lsum.terms.items():
        assert c == pytest.approx(combined.terms[alpha], rel=1e-12)


# -- rho estimation ------------------------------------------------------------------

def test_rho_constant_polynomial():
    poly = MultiPoly(2, [(0, 0)], [3 - 4j])
    est = rho_estimate(poly, k=2, p=3.0, samples=500, seed=7)
    assert est.value == pytest.approx(5.0, rel=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-9)


def test_rho_single_variable_monomial():
    # |z_1| is constant on the scaled torus, so any p gives exactly 2^{-1/k}
    poly = MultiPoly(1, [(1,)], [1.0])
    for k, p in ((1, 1.0), (3, 2.0), (2, 5.5)):
        est = rho_estimate(poly, k=k, p=p, samples=200, seed=11)
        assert est.value == pytest.approx(2 ** (-1.0 / k), rel=1e-12)


def test_rho_deterministic_for_fixed_seed(rng):
    poly = random_poly(rng)
    a = rho_estimate(poly, 1, 2.0, 4000, seed=123)
    b = rho_estimate(poly, 1, 2.0, 4000, seed=123)
    assert a.value == b.value and a.std_error == b.std_error
    c = rho_estimate(poly, 1, 2.0, 4000, seed=124)
    assert c.value != a.value


def test_rho_matches_parseval_within_three_se(rng):
    table = sieve_for_n_primes(3)
    poly = random_poly(rng)
    est = rho_estimate(poly, k=1, p=2.0, samples=40_000, seed=99, table=table)
    exact = parseval_value(poly, 1, table)
    assert abs(est.value - exact) <= 3 * est.std_error + 1e-9


# every n up to 10^4, then a spread up to nonextension's largest --nmax
FIRST_N_PRIMES = [*range(1, 10**4 + 1), 12_345, 10**5, 314_159, 10**6, 2 * 10**6,
                  3_141_592, 4 * 10**6, 5 * 10**6]


def test_sieve_for_n_primes_sieves_once_past_the_nth_prime(monkeypatch):
    limits = []
    monkeypatch.setattr(bohr, "sieve", lambda limit: limits.append(limit) or limit)
    for n in FIRST_N_PRIMES:
        bohr.sieve_for_n_primes(n)
    monkeypatch.undo()
    assert len(limits) == len(FIRST_N_PRIMES)  # one sieve per call
    held = np.searchsorted(sieve(max(limits)).primes, limits, side="right")
    assert np.all(held >= FIRST_N_PRIMES)
    # the limit nonextension's manifest records at its default --nmax 10^6
    assert limits[FIRST_N_PRIMES.index(10**6)] == 17_263_367


def test_rho_consistent_with_per_sample_path(rng):
    # the vectorized estimator agrees with naive per-sample evaluation on the
    # same Philox stream
    table = sieve_for_n_primes(3)
    poly = random_poly(rng, n_terms=8)
    count, seed, k, p = 400, 31, 2, 2.0
    est = rho_estimate(poly, k=k, p=p, samples=count, seed=seed, table=table)
    naive = rho_per_sample(poly, k, p, count, seed, table)
    assert est.value == pytest.approx(naive, rel=1e-12)


ORACLE_SEED = 2024
ORACLE_SAMPLES = (1, 1023, 1025, 16384, 16385, 40_000)


@pytest.fixture(scope="module")
def oracle_polys():
    return {
        "constant": MultiPoly(2, [(0, 0)], [3 - 4j]),
        "no-terms": MultiPoly(3, [], []),
        "draw": random_poly(np.random.default_rng(5)),  # 20 terms, exponents in {0..3}^3
        # 1641 terms in 8 variables, exponents up to 14
        "lift": lift(DirichletSeries.ones(20_000), 8, sieve(20_000)).poly,
    }


@pytest.fixture(scope="module")
def oracle_values(oracle_polys):
    # one oracle run per (polynomial, k); shorter runs are its prefixes
    cache = {}

    def values(name, k):
        if (name, k) not in cache:
            cache[name, k] = rho_phase_values(
                oracle_polys[name], k, max(ORACLE_SAMPLES), ORACLE_SEED
            )
        return cache[name, k]

    return values


def assert_same_estimate(got, want, rel=1e-13):
    for a, b in ((got.value, want.value), (got.std_error, want.std_error)):
        assert a == b or abs(a - b) <= rel * abs(b), (got, want)


@pytest.mark.parametrize("samples", ORACLE_SAMPLES)
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", ["constant", "no-terms", "draw", "lift"])
def test_rho_matches_phase_oracle(oracle_polys, oracle_values, name, k, samples):
    # power tables against one exponential per term and sample, on the same
    # stream: sub-block and chunk edges, a single sample, no terms at all
    vals = oracle_values(name, k)[:samples]
    for p in (1, 1.5, 2, 4):
        got = rho_estimate(oracle_polys[name], k, p, samples, ORACLE_SEED)
        assert_same_estimate(got, rho_from_values(vals, k, p, ORACLE_SEED))


def test_rho_many_variables_few_exponents():
    # more variables than any term holds, some never used: only the used
    # ones enter the power table
    rng = np.random.default_rng(3)
    terms = {}
    while len(terms) < 12:
        alpha = np.zeros(40, dtype=int)
        alpha[rng.choice(40, size=2, replace=False)] = rng.integers(1, 3, size=2)
        terms[tuple(alpha.tolist())] = complex(rng.normal(), rng.normal())
    f = MultiPoly(40, list(terms), list(terms.values()))
    got = rho_estimate(f, 2, 3.0, 3000, 9)
    assert_same_estimate(got, rho_estimate_phases(f, 2, 3.0, 3000, 9))


@pytest.mark.parametrize("alpha", [(10**5,), (0, 10**5, 1)])
def test_rho_high_degree_monomial_bounded_memory(alpha):
    # the power table holds one row per exponent that occurs, not one per
    # exponent up to the degree: a table up to 10^5 would take 1.6 GB per
    # 1024-sample sub-block.  k = 10^5 keeps the radius near 2^{-1} or 3^{-1}.
    f = MultiPoly(len(alpha), [alpha], [2 - 1j])
    tracemalloc.start()
    try:
        got = rho_estimate(f, 10**5, 3.0, 16_385, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    want = rho_estimate_phases(f, 10**5, 3.0, 16_385, 5)
    assert abs(got.value - want.value) <= 1e-13 * want.value
    # |f| is constant on the torus, so the standard error is rounding noise
    assert got.std_error <= 1e-9 * got.value


@pytest.mark.parametrize(
    "alpha, k, coef, exact",
    [((10**5,), 10**5, 2 - 1j, math.sqrt(5) / 2), ((10**6,), 10**6, 1.0, 0.5)],
)
def test_radius_factor_rounded_once_at_high_degree(alpha, k, coef, exact):
    # |f| is |coef| 2^{-alpha/k} on the whole torus; raising the rounded
    # 2^{-1/k} to the power alpha once put it 7.2e-12 and 4.4e-11 off
    f = MultiPoly(len(alpha), [alpha], [coef])
    coefs, rad, _ = _term_arrays(f, k, sieve_for_n_primes(1))
    assert abs(abs(coefs[0]) * rad[0] - exact) <= 1e-14 * exact
    got = rho_estimate_phases(f, k, 3.0, 1000, 5).value
    assert abs(got - exact) <= 1e-14 * exact


# -- weighted Parseval path ------------------------------------------------------------

def test_weighted_norm_matches_seminorm(rng):
    table = sieve(600)
    for _ in range(100):
        n = int(rng.integers(5, 600))
        d = DirichletSeries(rng.normal(size=n) + 1j * rng.normal(size=n))
        k = int(rng.integers(1, 6))
        assert weighted_h2_norm(d, k, table) == pytest.approx(
            seminorm_2(d, k), rel=1e-12
        )


def test_weighted_norm_monomial(table_200):
    for n, k in ((2, 1), (12, 3), (97, 2)):
        d = DirichletSeries.monomial(n, 1.0, 100)
        assert weighted_h2_norm(d, k, table_200) == pytest.approx(
            n ** (-1.0 / k), rel=1e-12
        )


def test_weighted_norm_zero(table_200):
    assert weighted_h2_norm(DirichletSeries.zero(10), 2, table_200) == 0.0


def test_extension_builds_no_spf_table_on_any_table_length(rng):
    # multiplicative extension sieves each step's smallest prime factors
    # itself and reads the values at the primes by rank: a table sieved to
    # the series and one far longer give the same bits
    big, exact = sieve(200_000), sieve(1000)
    d = DirichletSeries(rng.normal(size=1000) + 1j * rng.normal(size=1000))
    chi = Character(np.exp(2j * np.pi * rng.uniform(size=200)))
    for n_max in (1, 2, 999, 1000):
        want = chi.values_up_to(n_max, exact)
        assert np.array_equal(chi.values_up_to(n_max, big).view(np.uint64), want.view(np.uint64))
    # the values at 1000 are those of the per-n loop over an spf table
    spf, _ = _kernels.sieve_spf(1000)
    dense = np.zeros(1001, dtype=np.complex128)
    dense[exact.primes] = chi.prime_values[: len(exact.primes)]
    chi_values = mult_extend_loop(spf, dense, 1000)
    assert want.tobytes() == chi_values.tobytes()
    twisted = vertical_limit(d, chi, exact)
    assert vertical_limit(d, chi, big).coeffs.tobytes() == twisted.coeffs.tobytes()
    assert twisted.coeffs.tobytes() == (d.coeffs * chi_values[1:]).tobytes()
    for k in (1, 2, 5):
        want = weighted_h2_norm(d, k, exact)
        assert weighted_h2_norm(d, k, big).hex() == want.hex()
        assert weighted_h2_norm(DirichletSeries.ones(1000), k, big) > 0


def test_weighted_norm_needs_coverage(table_200):
    with pytest.raises(TableTooSmall):
        weighted_h2_norm(DirichletSeries.ones(500), 1, table_200)


def test_parseval_rho2_matches_independent_sum(rng):
    table = sieve_for_n_primes(5)
    for n_vars in (1, 3, 5):
        poly = random_poly(rng, n_vars=n_vars, n_terms=min(20, 4**n_vars))
        for k in (1, 2, 7):
            assert parseval_rho2(poly, k, table) == pytest.approx(
                parseval_value(poly, k, table), rel=1e-14
            )
    assert parseval_rho2(MultiPoly(2, [], []), 1, table) == 0.0
    with pytest.raises(TableTooSmall):
        parseval_rho2(MultiPoly(9, [(0,) * 8 + (1,)], [1.0]), 1, sieve(20))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("mag", [1e200, 1e-200])
def test_parseval_rho2_at_extreme_magnitudes(mag, k):
    # |c|^2 overflows at 1e200 and underflows to 0 at 1e-200; the norm does neither
    got = parseval_rho2(MultiPoly(2, [(1, 0)], [mag]), k, sieve_for_n_primes(2))
    want = mag * 2.0 ** (-1.0 / k)
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mag", [1e200, 1e-200])
def test_rho_estimate_at_extreme_magnitudes(mag):
    # |f|^2 overflows at 1e200 and underflows to 0 at 1e-200; |z_1| is
    # constant on the torus, so the estimate is the Parseval value mag / 2
    f = MultiPoly(1, [(1,)], [mag])
    got = rho_estimate(f, 1, 2.0, 10, 0)
    want = parseval_rho2(f, 1, sieve_for_n_primes(1))
    assert abs(got.value - want) <= 1e-14 * want
    assert got.std_error <= 1e-14 * want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e100, 1e160, 1e-200])
def test_rho_estimate_scales_with_its_polynomial(c):
    # c (z_1 + z_2): |f|^4 overflows at 1e100, |f|^2 at 1e160, and both
    # underflow at 1e-200; the estimate and its error are c times those at 1
    table = sieve_for_n_primes(2)
    at_one = rho_estimate(MultiPoly(2, [(1, 0), (0, 1)], [1.0, 1.0]), 1, 2.0, 4000, 0, table)
    f = MultiPoly(2, [(1, 0), (0, 1)], [c, c])
    got = rho_estimate(f, 1, 2.0, 4000, 0, table)
    assert got.value == pytest.approx(c * at_one.value, rel=1e-12)
    assert got.std_error == pytest.approx(c * at_one.std_error, rel=1e-12)
    assert abs(got.value - parseval_rho2(f, 1, table)) <= 3 * got.std_error


@pytest.mark.filterwarnings("error")
def test_rho_estimate_when_its_bound_overflows():
    # B = 1.5e308 * (1 + 1/2) passes the float range, the norm does not
    f = MultiPoly(1, [(0,), (1,)], [1.5e308, 1.5e308])
    got = rho_estimate(f, 1, 2.0, 4000, 0)
    want = parseval_rho2(f, 1, sieve_for_n_primes(1))
    assert math.isfinite(got.value) and math.isfinite(got.std_error)
    assert abs(got.value - want) <= 3 * got.std_error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mag", [1e200, 1e-200])
def test_weighted_h2_norm_at_extreme_magnitudes(mag, table_200):
    # |a_n|^2 overflows at 1e200 and underflows to 0 at 1e-200
    d = DirichletSeries(np.full(50, mag, dtype=np.complex128))
    want = seminorm_2(d, 2)
    assert abs(weighted_h2_norm(d, 2, table_200) - want) <= 1e-14 * want


def random_rows_poly(rng, n_vars: int, n_terms: int) -> MultiPoly:
    # small exponents, a fifth of the rows with one exponent up to 10^5, and
    # rows cut to zero from a random column on
    terms = {}
    while len(terms) < n_terms:
        alpha = rng.integers(0, 4, size=n_vars)
        if rng.random() < 0.2:
            alpha[rng.integers(n_vars)] = rng.integers(0, 10**5 + 1)
        alpha[rng.integers(0, n_vars + 1):] = 0
        c = complex(rng.normal(), rng.normal())
        terms[tuple(alpha.tolist())] = c * 10.0 ** rng.uniform(-3, 3)
    return MultiPoly(n_vars, list(terms), list(terms.values()))


@pytest.fixture(scope="module")
def matrix_polys():
    rng = np.random.default_rng(27)
    polys = [random_rows_poly(rng, n_vars, n_terms)
             for n_vars, n_terms in ((1, 20), (3, 60), (8, 200), (40, 200))]
    return polys + [lift(DirichletSeries.ones(20_000), 8, sieve(20_000)).poly]


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_term_arrays_bits_match_dict_loop(matrix_polys, k):
    for f in matrix_polys:
        table = sieve_for_n_primes(f.n_vars)
        for got, want in zip(_term_arrays(f, k, table), term_arrays_dict_loop(f, k, table)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_parseval_rho2_bits_match_loop(matrix_polys, k):
    for f in matrix_polys:
        table = sieve_for_n_primes(f.n_vars)
        assert parseval_rho2(f, k, table).hex() == parseval_rho2_loop(f, k, table).hex()


def test_rho_k2_monotone_in_k_exact_path(rng):
    # the exact Parseval value of rho_{k,2} grows with k (weights increase)
    table = sieve_for_n_primes(3)
    poly = random_poly(rng)
    vals = [parseval_value(poly, k, table) for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# -- nonextension experiment -------------------------------------------------------------

@pytest.fixture(scope="module")
def nonextension_10k():
    table = sieve(140_000)  # covers the first 10^4 primes
    return nonextension_partial_sums(10_000, table)


def test_nonextension_increasing(nonextension_10k):
    s = nonextension_10k.partial_sums
    assert np.all(s > 0)
    assert np.all(np.diff(s) > 0)


def test_nonextension_checkpoint_growth(nonextension_10k):
    t = nonextension_10k
    ladder = list(t.checkpoints)
    assert 1000 in ladder and 10_000 in ladder
    s = dict(zip(ladder, t.partial_sums))
    assert s[10_000] > s[1000]


def test_nonextension_termwise_lower_bound(nonextension_10k):
    # every term z_n/sqrt(p_n) >= C/(n ln n lnln n) makes S dominate the bound column
    t = nonextension_10k
    assert t.prime_bound_ok
    assert np.all(t.partial_sums >= t.lower_bound)


def test_nonextension_term_bound_directly():
    table = sieve(2000)
    n = np.arange(3, 150, dtype=float)
    p_n = table.primes[2:149].astype(float)
    z = 1.0 / (np.sqrt(n * np.log(n)) * np.log(np.log(n)))
    lhs = z / np.sqrt(p_n)
    rhs = (1 / math.sqrt(2)) / (n * np.log(n) * np.log(np.log(n)))
    assert np.all(p_n <= 2 * n * np.log(n))
    assert np.all(lhs >= rhs)


def test_nonextension_requires_enough_primes(table_200):
    with pytest.raises(TableTooSmall):
        nonextension_partial_sums(10_000, table_200)


@pytest.fixture(scope="module")
def first_million_primes():
    return sieve_for_n_primes(10**6)


BLOCK = _kernels._EXTEND_BLOCK


# the blocks of n >= 3 start at 3, BLOCK + 3, 2 BLOCK + 3, ...: BLOCK + 2 ends
# the first and 2 BLOCK + 3 is alone in the third
@pytest.mark.parametrize("n_max", [3, 9, 10, 11, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 3, 10**6])
def test_nonextension_bits_match_one_pass(n_max, first_million_primes):
    t = nonextension_partial_sums(n_max, first_million_primes)
    ladder, sums, lower, bound_ok = nonextension_one_pass(n_max, first_million_primes.primes)
    assert t.checkpoints.tobytes() == ladder.tobytes()
    assert t.partial_sums.tobytes() == sums.tobytes()
    assert t.lower_bound.tobytes() == lower.tobytes()
    assert t.prime_bound_ok is bound_ok


def test_nonextension_bounded_memory(first_million_primes):
    # the sums are taken in blocks: the whole-range arrays took 61 MiB at 10^6
    tracemalloc.start()
    try:
        nonextension_partial_sums(10**6, first_million_primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_weighted_h2_norm_bounded_memory():
    # float64 weights with |a_n|^2 w_n formed in them: complex weights took
    # 50 MiB at 10^6, a second float64 table 21.7 MiB, and the
    # smallest-prime-factor table the extension sieved 14.0 MiB.  The peak
    # now is one float64 table, the weights at the primes and one step's
    # temporaries (10.1 MiB); the character's values, their complex table
    # and one step's temporaries (19.6 MiB; 34.3 with the values at the
    # primes spread over a dense complex array).  Each bound is that peak
    # plus about 1 MiB.
    table = sieve(10**6)
    d = DirichletSeries.ones(10**6)
    chi = Character(np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=len(table.primes))))
    for call, bound in (
        (lambda: weighted_h2_norm(d, 2, table), 11 * 2**20),
        (lambda: chi.values_up_to(10**6, table), 20.5 * 2**20),
    ):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
