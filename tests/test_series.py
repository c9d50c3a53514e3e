import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hplus import _kernels
from hplus.errors import UndefinedAbscissa
from hplus.numtheory import divisor_power_table
from hplus.series import (
    DirichletSeries,
    SeminormParams,
    abscissa_estimates,
    add,
    evaluate,
    multiply,
    power,
    scale,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    series_from_json,
    series_to_json,
    translate,
    with_truncation,
)
from hplus.superposition import power_norm_chain_check

from oracles import dirichlet_convolve_quadratic

coeff_arrays = st.lists(
    st.tuples(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
).map(lambda pairs: np.array([complex(re, im) for re, im in pairs]))


def series(coeffs) -> DirichletSeries:
    return DirichletSeries(np.asarray(coeffs, dtype=np.complex128))


# -- construction and linear ops ----------------------------------------------

def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        series([1.0, np.nan])
    with pytest.raises(ValueError):
        series([np.inf])


def test_coeffs_immutable():
    d = DirichletSeries.ones(4)
    with pytest.raises(ValueError):
        d.coeffs[0] = 5.0


def test_add_zero_identity():
    d = series([1, 2, 3])
    assert add(d, DirichletSeries.zero(3)) == d


def test_add_truncates_to_shorter():
    d, e = series([1, 2, 3, 4]), series([1, 1])
    assert add(d, e) == series([2, 3])


def test_scale_zero():
    assert scale(0, series([1, 2])) == DirichletSeries.zero(2)


def test_monomial_sum_example():
    s = DirichletSeries.monomial(2, 1, 10) + DirichletSeries.monomial(3, 1, 10)
    assert s.coeff(2) == 1 and s.coeff(3) == 1 and s.coeff(4) == 0


def test_monomial_out_of_range():
    with pytest.raises(ValueError):
        DirichletSeries.monomial(11, 1.0, 10)


def test_with_truncation_pads_and_cuts():
    d = series([1, 2])
    assert with_truncation(d, 4) == series([1, 2, 0, 0])
    assert with_truncation(d, 1) == series([1])


# -- translation ----------------------------------------------------------------

def test_translate_zero_is_identity():
    d = series([1, 2, 3])
    assert translate(d, 0) == d


def test_translate_composes_additively(rng):
    d = series(rng.normal(size=20) + 1j * rng.normal(size=20))
    lhs = translate(translate(d, 0.3), 0.9)
    rhs = translate(d, 1.2)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12)


def test_translate_ones_gives_inverse_sqrt():
    d = translate(DirichletSeries.ones(100), 0.5)
    n = np.arange(1, 101, dtype=float)
    assert np.array_equal(d.coeffs.real, n**-0.5)


def test_translate_rejects_negative():
    with pytest.raises(ValueError):
        translate(DirichletSeries.ones(3), -0.1)


# -- multiplication and powers ----------------------------------------------------

def test_multiply_unit():
    d = series([1, 2, 3, 4])
    assert multiply(d, DirichletSeries.monomial(1, 1, 4)) == d


def test_multiply_monomials():
    two = DirichletSeries.monomial(2, 1, 10)
    three = DirichletSeries.monomial(3, 1, 10)
    assert multiply(two, three) == DirichletSeries.monomial(6, 1, 10)


def test_multiply_ones_gives_divisor_counts():
    n = 500
    prod = multiply(DirichletSeries.ones(n), DirichletSeries.ones(n))
    assert np.array_equal(prod.coeffs.real.astype(np.uint64), divisor_power_table(2, n))
    assert np.all(prod.coeffs.imag == 0)


def test_power_one_is_identity():
    d = series([1, 2, 3])
    assert power(d, 1, 3) == d


def test_power_zero_is_unit():
    assert power(series([3, 1]), 0, 5) == DirichletSeries.monomial(1, 1, 5)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_power_of_ones_matches_divisor_table(k):
    n = 300
    got = power(DirichletSeries.ones(n), k, n)
    assert np.array_equal(got.coeffs.real.astype(np.uint64), divisor_power_table(k, n))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_power_of_half_translate(k):
    # powers of the half-translated zeta carry d_k(n)/sqrt(n)
    n = 400
    d = translate(DirichletSeries.ones(n), 0.5)
    got = power(d, k, n)
    nn = np.arange(1, n + 1, dtype=float)
    want = divisor_power_table(k, n).astype(float) / np.sqrt(nn)
    assert np.allclose(got.coeffs.real, want, rtol=1e-10)


def test_power_pads_beyond_input_truncation():
    d = series([0, 1])  # 2^{-s}
    p = power(d, 3, 10)
    assert p == DirichletSeries.monomial(8, 1, 10)


def _sparse_series(rng, support, nnz, truncation=None):
    coeffs = np.zeros(support, dtype=np.complex128)
    idx = rng.choice(support, size=nnz, replace=False)
    coeffs[idx] = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    return with_truncation(series(coeffs), truncation or support)


def _power_by_multiply(d, k, out_truncation):
    """power's definition: k - 1 successive dense products with d."""
    if k == 0:
        return DirichletSeries.monomial(1, 1.0, out_truncation)
    base = with_truncation(d, out_truncation)
    result = base
    for _ in range(k - 1):
        result = DirichletSeries(
            _kernels._convolve_numpy(*_sparser_first(base.coeffs, result.coeffs), out_truncation)
        )
    return result


def _sparser_first(a, b):
    return (b, a) if np.count_nonzero(b) < np.count_nonzero(a) else (a, b)


def _same_bits(x, y):
    return len(x) == len(y) and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("k", [0, 1, 4])
def test_power_on_supports_bit_identical(rng, monkeypatch, k):
    paths = []
    for name in ("convolve_support", "_convolve_numpy"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *a, _real=real, _name=name: paths.append(_name) or _real(*a)
        )
    dense_12 = series(rng.normal(size=12) + 1j * rng.normal(size=12))
    cases = [  # (series, out_truncation, paths taken by the k - 1 = 3 products)
        (_sparse_series(rng, 30, 30), 30**4, {"convolve_support"}),
        # 12 * 12 <= 144, but the square has more than 12 terms: dense partway
        (dense_12, 144, {"convolve_support", "_convolve_numpy"}),
        (_sparse_series(rng, 200, 200), 200, {"_convolve_numpy"}),
        # support cut by the truncation
        (_sparse_series(rng, 50, 9, truncation=400), 300, {"convolve_support"}),
        (DirichletSeries.zero(20), 400, {"convolve_support"}),
    ]
    # single terms: 1 x 1 products, where numpy's broadcast multiply can round
    # differently from the dense loop's scalar-times-slice
    cases += [(_sparse_series(rng, 3, 1), 81, {"convolve_support"}) for _ in range(5)]
    for d, out_truncation, want_paths in cases:
        paths.clear()
        got = power(d, k, out_truncation)
        assert set(paths) == (want_paths if k == 4 else set())
        want = _power_by_multiply(d, k, out_truncation)
        assert _same_bits(got.coeffs, want.coeffs)


def test_power_of_sparse_polynomial_matches_quadratic_oracle(rng):
    d = _sparse_series(rng, 12, 5)
    got = power(d, 3, 150)
    square = dirichlet_convolve_quadratic(d.coeffs, d.coeffs, 150)
    want = dirichlet_convolve_quadratic(d.coeffs, square, 150)
    assert np.allclose(got.coeffs, want, rtol=1e-13, atol=1e-13)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_power_overflow_raises_on_both_paths():
    sparse = series([1e200, 1e200])  # 2 * 2 <= 4: support path
    dense = series(np.full(30, 1e200))  # 30 * 30 > 30: dense loop
    for d, out_truncation in ((sparse, 4), (dense, 30)):
        with pytest.raises(ValueError, match="finite"):
            power(d, 2, out_truncation)
        with pytest.raises(ValueError, match="finite"):
            seminorm_even(d, 2, 1, out_truncation)
    with pytest.raises(ValueError, match="finite"):
        power_norm_chain_check(with_truncation(sparse, 4), 1, 2)


def _rel(x, y):
    return abs(x - y) / abs(y)


def test_seminorm_even_on_supports_matches_dense(rng):
    for support, nnz, q, out_truncation in (
        (30, 30, 4, 30**4),
        (30, 10, 2, 900),
        (100, 100, 2, 10_000),
        (40, 40, 3, 2000),  # support^q > truncation: a lower bound, not exact
        (60, 60, 2, 1000),  # too dense for the first product: dense from the start
    ):
        d = _sparse_series(rng, support, nnz)
        for k in (1, 3, 8):
            got = seminorm_even(d, q, k, out_truncation)
            p = _power_by_multiply(translate(d, 1.0 / k), q, out_truncation).coeffs
            want = float(np.sum(p.real**2 + p.imag**2) ** (0.5 / q))
            assert _rel(got.value, want) <= 1e-15
            assert got.exact == (d.support_max() ** q <= out_truncation)


def test_power_norm_chain_check_on_supports_matches_dense(rng):
    for nnz, m, k in ((30, 1, 4), (30, 2, 3), (10, 1, 2), (30, 1, 1)):
        p_poly = _sparse_series(rng, 30, nnz, truncation=30**k)
        chk = power_norm_chain_check(p_poly, m, k)
        lhs = seminorm_2(_power_by_multiply(p_poly, k, p_poly.truncation), m)
        base = seminorm_2(p_poly, 4 * m)
        rhs = chk.c_m * chk.prime_product**k * base**k
        assert _rel(chk.lhs, lhs) <= 1e-15
        assert _rel(chk.base_norm, base) <= 1e-15
        assert _rel(chk.rhs, rhs) <= 1e-15


# -- evaluation --------------------------------------------------------------------

def test_evaluate_zero_and_monomial():
    assert evaluate(DirichletSeries.zero(5), 2 + 1j) == 0
    val = evaluate(DirichletSeries.monomial(2, 1, 5), 1.5 + 0.5j)
    assert val == pytest.approx(2 ** -(1.5 + 0.5j), rel=1e-14)


def test_evaluate_zeta_two():
    d = DirichletSeries.ones(1_000_000)
    # tail bound: sum_{n>N} n^{-2} < 1/N = 1e-6
    assert abs(evaluate(d, 2.0) - math.pi**2 / 6) < 1e-6


# -- seminorms ----------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(2, 1), (5, 3), (10, 7)])
def test_seminorm2_monomial(n, k):
    d = DirichletSeries.monomial(n, 1.0, 16)
    assert seminorm_2(d, k) == pytest.approx(n ** (-1.0 / k), rel=1e-14)


def test_seminorm2_zero():
    assert seminorm_2(DirichletSeries.zero(4), 2) == 0.0


def test_seminorm2_ones_three_terms():
    d = DirichletSeries.ones(3)
    assert seminorm_2(d, 1) == pytest.approx(math.sqrt(1 + 0.25 + 1 / 9), rel=1e-14)


def test_seminorm_even_q1_reduces(rng):
    d = series(rng.normal(size=30) + 1j * rng.normal(size=30))
    got = seminorm_even(d, 1, 3, 30)
    assert got.exact and got.value == seminorm_2(d, 3)


def test_seminorm_even_monomial():
    d = DirichletSeries.monomial(3, 1.0, 10)
    got = seminorm_even(d, 2, 4, 100)
    assert got.exact
    assert got.value == pytest.approx(3 ** (-1.0 / 4), rel=1e-12)


def test_seminorm_even_binomial_limit():
    # (1 + 2^{-s}): at huge k, the fourth power of ||.||_{4,k} tends to 1+4+1
    d = series([1, 1])
    got = seminorm_even(d, 2, 10**6, 16)
    assert got.exact
    assert got.value**4 == pytest.approx(6.0, abs=1e-4)


def test_seminorm_even_flags_support_overflow():
    d = DirichletSeries.monomial(5, 1.0, 5)
    tight = seminorm_even(d, 2, 1, 16)  # support of the square is 25 > 16
    assert not tight.exact
    wide = seminorm_even(d, 2, 1, 25)
    assert wide.exact
    assert tight.value <= wide.value + 1e-15


def test_comparison_constant_p_equals_q():
    assert seminorm_comparison_constant(3, 2, 2) == 1.0


def test_comparison_constant_k1_p2_q4():
    want = 1.0 / (1.0 - 2**-0.5)
    assert seminorm_comparison_constant(1, 2, 4) == pytest.approx(want, rel=1e-14)


def test_comparison_constant_monotone_in_q():
    for k in (1, 2):
        vals = [seminorm_comparison_constant(k, 2, q) for q in (2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_comparison_constant_rejects_bad_order():
    with pytest.raises(ValueError):
        seminorm_comparison_constant(1, 4, 2)


def test_seminorm_params_validation():
    assert SeminormParams(2.0, 3).k == 3
    with pytest.raises(ValueError):
        SeminormParams(0.5, 1)
    with pytest.raises(ValueError):
        SeminormParams(2.0, 0)


# -- seminorm invariants -------------------------------------------------------------

@given(coeff_arrays, st.integers(1, 6))
def test_seminorm_monotone_in_k(coeffs, k):
    d = DirichletSeries(coeffs)
    assert seminorm_2(d, k) <= seminorm_2(d, k + 1) * (1 + 1e-12)


@given(coeff_arrays, st.integers(1, 4))
def test_seminorm_triangle(coeffs, k):
    d = DirichletSeries(coeffs)
    e = DirichletSeries(coeffs[::-1].copy())
    assert seminorm_2(add(d, e), k) <= (seminorm_2(d, k) + seminorm_2(e, k)) * (1 + 1e-12)


@given(
    coeff_arrays,
    st.integers(1, 4),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
def test_seminorm_homogeneous(coeffs, k, re, im):
    d = DirichletSeries(coeffs)
    c = complex(re, im)
    assert seminorm_2(scale(c, d), k) == pytest.approx(abs(c) * seminorm_2(d, k), abs=1e-12)


def test_seminorm_chain_small_corpus(rng):
    # ||D||_{2,k} <= ||D||_{4,k} <= C_{k,2,4} ||D||_{2,2k} on random polynomials
    for _ in range(20):
        d = series(rng.normal(size=40) + 1j * rng.normal(size=40))
        for k in (1, 2):
            lhs = seminorm_2(d, k)
            mid = seminorm_even(d, 2, k, 1600)
            assert mid.exact
            rhs = seminorm_comparison_constant(k, 2, 4) * seminorm_2(d, 2 * k)
            assert lhs <= mid.value * (1 + 1e-9)
            assert mid.value <= rhs * (1 + 1e-9)


def test_koethe_regression_identity(rng):
    # weighted-l2 with weights n^{-1/k}, computed as an explicit echelon sum
    d = series(rng.normal(size=64) + 1j * rng.normal(size=64))
    for k in (1, 2, 5):
        b = np.arange(1, 65, dtype=float) ** (-1.0 / k)
        echelon = math.sqrt(float(np.sum(np.abs(b * d.coeffs) ** 2)))
        assert seminorm_2(d, k) == pytest.approx(echelon, rel=1e-13)


def test_unconditional_under_unimodular_twist(rng):
    d = series(rng.normal(size=50) + 1j * rng.normal(size=50))
    chi = np.exp(1j * rng.uniform(0, 2 * np.pi, size=50))
    twisted = DirichletSeries(d.coeffs * chi)
    for k in (1, 3):
        assert seminorm_2(twisted, k) == pytest.approx(seminorm_2(d, k), rel=1e-12)


def test_unconditional_under_sign_flip(rng):
    d = series(rng.normal(size=50))
    signs = rng.choice([-1.0, 1.0], size=50)
    flipped = DirichletSeries(d.coeffs * signs)
    for k in (1, 4):
        assert seminorm_2(flipped, k) == seminorm_2(d, k)


def test_permutation_with_permuted_weights(rng):
    d = series(rng.normal(size=30) + 1j * rng.normal(size=30))
    k = 2
    w = np.arange(1, 31, dtype=float) ** (-2.0 / k)
    perm = rng.permutation(30)
    direct = float(np.sum(np.abs(d.coeffs) ** 2 * w))
    permuted = float(np.sum(np.abs(d.coeffs[perm]) ** 2 * w[perm]))
    assert permuted == pytest.approx(direct, rel=1e-12)


# -- abscissas ------------------------------------------------------------------------

def test_abscissa_ones_near_one():
    rep = abscissa_estimates(DirichletSeries.ones(10_000))
    assert rep.sigma_a_estimate == pytest.approx(1.0, abs=0.05)


def test_abscissa_half_translate_near_half():
    d = translate(DirichletSeries.ones(10_000), 0.5)
    rep = abscissa_estimates(d)
    assert rep.sigma_a_estimate == pytest.approx(0.5, abs=0.05)


def test_abscissa_monomial_sentinel():
    rep = abscissa_estimates(DirichletSeries.monomial(2, 1.0, 64))
    assert rep.sigma_a_estimate == -math.inf
    assert rep.sigma_c_estimate == -math.inf


def test_abscissa_zero_series_raises():
    with pytest.raises(UndefinedAbscissa):
        abscissa_estimates(DirichletSeries.zero(10))


def test_abscissa_order_invariant(rng):
    d = series(1 + rng.uniform(size=4096))
    rep = abscissa_estimates(d)
    assert rep.sigma_c_estimate <= rep.sigma_a_estimate


# -- serialization ---------------------------------------------------------------------

def test_json_roundtrip(rng):
    d = series(rng.normal(size=17) + 1j * rng.normal(size=17))
    assert series_from_json(json.loads(json.dumps(series_to_json(d)))) == d


def test_json_rejects_missing_fields():
    with pytest.raises(ValueError, match="truncation"):
        series_from_json({"coeffs": [[1, 0]]})
    with pytest.raises(ValueError, match="coeffs"):
        series_from_json({"truncation": 2, "coeffs": [[1, 0]]})
