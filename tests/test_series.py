import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hplus import _kernels, numtheory
from hplus.errors import BeyondDeskScale, CoefficientOverflow, HplusError, UndefinedAbscissa
from hplus.numtheory import divisor_power_table, euler_product
from hplus.series import (
    DirichletSeries,
    _atomic_write_json,
    _atomic_write_text,
    _series_json_text,
    _weighted_l2_roots,
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

from oracles import (
    dirichlet_convolve_loop,
    dirichlet_convolve_quadratic,
    eratosthenes,
    euler_product_loop,
    seminorm_even_translated,
    translate_unfused,
    weighted_l2_roots_unfused,
)

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


def test_checked_once_results_keep_their_error_types_and_immutability():
    # add, scale, multiply and power check their result once, with
    # _in_float_range, and build the series without a second check
    d, big = series([1e150, -2.0, 3j]), series([1e308, 1.0])
    for out in (add(d, d), scale(2, d), multiply(d, d), power(d, 2, 3)):
        assert not out.coeffs.flags.writeable and out.coeffs.dtype == np.complex128
    assert add(d, d) == series([2e150, -4.0, 6j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: add(big, big), lambda: scale(1e10, big), lambda: multiply(d, big)):
            with pytest.raises(CoefficientOverflow):
                call()
        # a non-finite factor is a usage error, as a non-finite coefficient is
        with pytest.raises(ValueError) as exc:
            scale(np.inf, d)
        assert not isinstance(exc.value, HplusError)


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
            dirichlet_convolve_loop(*_sparser_first(base.coeffs, result.coeffs), out_truncation)
        )
    return result


def _sparser_first(a, b):
    return (b, a) if np.count_nonzero(b) < np.count_nonzero(a) else (a, b)


def _same_bits(x, y):
    return len(x) == len(y) and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("k", [0, 1, 4])
def test_power_on_supports_bit_identical(rng, monkeypatch, k):
    paths = []
    for name in ("convolve_support", "_convolve_rows"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *a, _real=real, _name=name: paths.append(_name) or _real(*a)
        )
    dense_12 = series(rng.normal(size=12) + 1j * rng.normal(size=12))
    cases = [  # (series, out_truncation, paths taken by the k - 1 = 3 products)
        (_sparse_series(rng, 30, 30), 30**4, {"convolve_support"}),
        # 12 * 12 <= 144, but the square has more than 12 terms: dense partway
        (dense_12, 144, {"convolve_support", "_convolve_rows"}),
        (_sparse_series(rng, 200, 200), 200, {"_convolve_rows"}),
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


def test_products_past_the_float_range_raise_a_domain_error_without_a_warning():
    sparse = series([1e200, 1e200])
    dense = series(np.full(30, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, out_truncation in ((sparse, 4), (dense, 30)):
            with pytest.raises(CoefficientOverflow):
                multiply(with_truncation(d, out_truncation), with_truncation(d, out_truncation))
            with pytest.raises(CoefficientOverflow):
                power(d, 3, out_truncation)
            with pytest.raises(CoefficientOverflow):
                seminorm_even(d, 2, [1, 2], out_truncation)
    # a non-finite input is a usage error, not a domain error
    with pytest.raises(ValueError) as exc:
        series([1.0, np.inf])
    assert not isinstance(exc.value, HplusError)


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


def test_seminorm_even_list_matches_translated_oracle(rng):
    ks = list(range(1, 9))
    cases = [  # (series, q, out_truncation)
        (_sparse_series(rng, 30, 30), 2, 900),
        (_sparse_series(rng, 30, 12), 3, 30**3),
        (_sparse_series(rng, 30, 30), 4, 30**4),
        (_sparse_series(rng, 100, 100), 2, 10_000),
        (_sparse_series(rng, 50, 9, truncation=400), 3, 300),  # support cut, inexact
        (_sparse_series(rng, 40, 40), 3, 2000),  # dense fallback, inexact
        (_sparse_series(rng, 60, 60), 2, 1000),  # dense from the start, inexact
        (DirichletSeries.monomial(5, 1.0, 5), 2, 16),  # the square's support is lost
        (series(rng.normal(size=30) + 1j * rng.normal(size=30)), 1, 30),
        (DirichletSeries.zero(20), 3, 400),
    ]
    # squares of the power's coefficients, 1e-400 .. 1e600, leave the normal range
    cases += [(series([3.0 * c, 4j * c]), 2, 4) for c in (1e-100, 1e-80, 1e100, 1e150)]
    for d, q, out_truncation in cases:
        got = seminorm_even(d, q, ks, out_truncation)
        assert len(got) == len(ks)
        for k, value in zip(ks, got):
            want = seminorm_even_translated(d, q, k, out_truncation)
            assert value.exact == want.exact == (q == 1 or d.support_max() ** q <= out_truncation)
            if want.value == 0.0:
                assert value.value == 0.0
            else:
                assert _rel(value.value, want.value) <= 4e-16
            single = seminorm_even(d, q, k, out_truncation)
            assert type(single) is type(value) and single.exact == value.exact
            assert _same_bits(np.array([single.value]), np.array([value.value]))


def test_seminorm_even_list_keeps_the_order_and_checks_every_k():
    d = series([1.0, 0.5, 0.25])
    got = seminorm_even(d, 2, (3, 1, 3), 9)
    assert [v.value for v in got] == [seminorm_even(d, 2, k, 9).value for k in (3, 1, 3)]
    assert seminorm_even(d, 2, [], 9) == []
    with pytest.raises(ValueError, match="k must be >= 1"):
        seminorm_even(d, 2, [1, 0], 9)


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


@pytest.mark.parametrize("scale", [1e-161, 1e-200, 1e160, 1e300])
def test_seminorm2_rescales_squares_out_of_range(scale):
    d = DirichletSeries(np.array([3.0 * scale, 4j * scale]))
    expected = scale * math.sqrt(9 + 16 / 4)
    assert seminorm_2(d, 1) == pytest.approx(expected, rel=1e-14, abs=0)


def _signed_values(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v.real[::7] = -0.0
    v.imag[::5] = -0.0
    v[3::11] = 0.0
    return v


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("ks", [[1], [2], [8], [1, 2, 8], [8, 2, 1, 2]])
def test_weighed_roots_bit_identical_to_unfused_expressions(rng, scale, ks):
    # k = 2 takes numpy's reciprocal for n^-1; at 1e-200 and 1e200 the sum
    # of squares leaves its safe range and the rescaled sum runs on an index
    # array rebuilt after the last k raised the first in place
    for n in (1, 7, 2**14, 2**14 + 1, 50_000):
        vals = scale * _signed_values(rng, n)
        idx = np.sort(rng.choice(10 * n, size=n, replace=False)) + 1
        for q in (1, 2):
            for where in (None, idx):
                got = _weighted_l2_roots(where, vals, ks, q)
                want = weighted_l2_roots_unfused(where, vals, ks, q)
                assert [r.hex() for r in got] == [r.hex() for r in want]


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_translate_bit_identical_to_unfused_expression(rng, delta):
    for n in (1, 1000, 2**14 + 1):
        d = series(_signed_values(rng, n))
        got = translate(d, delta).coeffs
        assert np.array_equal(got.view(np.uint64), translate_unfused(d, delta).view(np.uint64))


def test_seminorm2_holds_two_index_length_arrays(rng):
    # |a_n|^2 and the weights n^{-2/k}, 8 MB each at 10^6; measured 1.9 KiB
    # above them, where the index array, the squares and their product took
    # three.  Several k hold a third, the index array the last k raises.
    d = series(rng.normal(size=10**6) + 1j * rng.normal(size=10**6))
    for weigh, arrays in ((lambda: seminorm_2(d, 1), 2), (lambda: seminorm_2(d, 2), 2),
                          (lambda: seminorm_even(d, 1, [1, 2, 8], 10**6), 3)):
        tracemalloc.start()
        try:
            weigh()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * 10**6 + 64 * 2**10


def test_seminorm2_ones_three_terms():
    d = DirichletSeries.ones(3)
    assert seminorm_2(d, 1) == pytest.approx(math.sqrt(1 + 0.25 + 1 / 9), rel=1e-14)


def test_seminorm_even_q1_reduces(rng):
    d = series(rng.normal(size=30) + 1j * rng.normal(size=30))
    got = seminorm_even(d, 1, 3, 30)
    assert got.exact and got.value == seminorm_2(d, 3)
    # above the input's truncation: the same bits; below it: the cut input,
    # a lower bound unless the support fits
    assert seminorm_even(d, 1, 3, 100) == got
    below = seminorm_even(d, 1, [3, 1], 12)
    assert [v.value for v in below] == [seminorm_2(with_truncation(d, 12), k) for k in (3, 1)]
    assert not any(v.exact for v in below)
    assert below[0].value < got.value
    short = with_truncation(with_truncation(d, 12), 30)
    assert seminorm_even(short, 1, 3, 12) == (seminorm_2(with_truncation(d, 12), 3), True)
    for q in (1, 2):
        with pytest.raises(ValueError, match="out_truncation"):
            seminorm_even(DirichletSeries.ones(5), q, 1, 0)


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


@pytest.mark.parametrize("scale", [1e-100, 1e-80, 1e100, 1e150])
def test_seminorm_even_rescales_squares_out_of_range(scale):
    # translate(D, 1)^2 has coefficients 9c^2, 12j c^2, -4c^2 at n = 1, 2, 4
    # with c = scale: 1e-200 .. 1e300, whose squares leave the normal range
    d = DirichletSeries(np.array([3.0 * scale, 4j * scale]))
    got = seminorm_even(d, 2, 1, 4)
    assert got.exact
    assert got.value == pytest.approx(scale * 241**0.25, rel=1e-14, abs=0)


def test_seminorm_even_forms_an_underflowed_power_again(rng):
    # every product of D^2 underflows to 0.0 at the scales below; D's parts
    # lie in [-1, 1) with the largest in [0.5, 1), so D * 2^e scaled back
    # is D itself and each root is the bits of D's times 2^e
    c = rng.normal(size=30) + 1j * rng.normal(size=30)
    c = np.ldexp(c.view(np.float64), -math.frexp(np.abs(c.view(np.float64)).max())[1])
    d = series(c.view(np.complex128))
    for q in (2, 3):
        want = seminorm_even(d, q, [1, 2], 30**q)
        for e in (-700, -1000):
            tiny = series(np.ldexp(d.coeffs.view(np.float64), e).view(np.complex128))
            got = seminorm_even(tiny, q, [1, 2], 30**q)
            assert [v.value for v in got] == [math.ldexp(v.value, e) for v in want]
            assert all(v.exact for v in got)
    got = seminorm_even(scale(1e-200, d), 2, [1, 2], 900)
    for v, w in zip(got, seminorm_even(d, 2, [1, 2], 900)):
        assert v.exact and v.value == pytest.approx(1e-200 * w.value, rel=1e-14, abs=0)
    # a power that is zero below the truncation, not by underflow, stays 0
    cut = seminorm_even(DirichletSeries.monomial(5, 1e-200, 5), 2, 1, 24)
    assert cut == (0.0, False)


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


def test_chain_constants_memoized(monkeypatch):
    # one prefix per exponent: descending chain ladders, then comparison
    # constants below their bounds, sieve once per exponent; repeats return
    # the same bits and calls beyond desk scale keep raising
    limits = []
    real = numtheory.sieve

    def counted(limit, *args, **kwargs):
        limits.append(limit)
        return real(limit, *args, **kwargs)

    monkeypatch.setattr(numtheory, "sieve", counted)
    monkeypatch.setattr(numtheory, "_euler_prefixes", {})
    rounds = []
    for _ in range(3):
        chain = [euler_product(4 * m, math.sqrt(2.0 / k)) for m in (1, 2) for k in (8, 6, 3)]
        consts = [seminorm_comparison_constant(k, 2, 4) for k in (1, 2, 3, 4)]
        rounds.append([float(v).hex() for v in consts] + [repr(c) for c in chain])
        for args in ((30, 2, 4), (5, 1, 100)):
            with pytest.raises(BeyondDeskScale):
                seminorm_comparison_constant(*args)
        with pytest.raises(BeyondDeskScale):
            euler_product(16, math.sqrt(2.0 / 40))  # chain constant for m = 4, k = 40
    assert len(limits) == 4  # exponents 4 and 8 (chains), 2 and 6 (comparisons)
    assert rounds[0] == rounds[1] == rounds[2]
    primes = eratosthenes(4**8 + 1)
    for m in (1, 2):
        want = euler_product_loop(4 * m, [math.sqrt(2.0 / k) for k in (3, 6, 8)], primes, True)
        assert [c[:2] for c in chain[3 * m - 3 : 3 * m]] == want[::-1]
    # a larger bound than any asked for sieves again
    want = euler_product_loop(4, [math.sqrt(2.0 / 16)], primes, True)
    assert euler_product(4, math.sqrt(2.0 / 16))[:2] == want[0]
    assert len(limits) == 5
    # one prefix above 10^6 at most: a ladder asked for its largest bound
    # first sieves once, and a second large prefix evicts the first
    def large():
        return [e for e, kept in numtheory._euler_prefixes.items() if kept[0] > 10**6]

    ladder = [euler_product(4, t) for t in (0.03, 0.05, 0.1)]  # primes to 1.2e6
    assert len(limits) == 6 and large() == [4]
    euler_product(8, 0.17)  # primes to 1.4e6
    assert len(limits) == 7 and large() == [8]
    assert euler_product(4, 0.03) == ladder[0]  # sieved again, to the same bits
    assert len(limits) == 8 and large() == [4]


def test_comparison_constant_rejects_bad_order():
    with pytest.raises(ValueError):
        seminorm_comparison_constant(1, 4, 2)


# -- seminorm invariants -------------------------------------------------------------

@given(coeff_arrays, st.integers(1, 6))
def test_seminorm_monotone_in_k(coeffs, k):
    d = DirichletSeries(coeffs)
    assert seminorm_2(d, k) <= seminorm_2(d, k + 1) * (1 + 1e-12)


@given(coeff_arrays, st.integers(1, 4))
@example(np.array([1.260876e-161j]), 1)
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


def test_json_coeffs_match_per_element_floats():
    # -0.0, subnormals and huge values survive as the same JSON text
    vals = np.array([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1, 1 / 3])
    d = series(vals + 1j * vals[::-1])
    per_element = {
        "truncation": d.truncation,
        "coeffs": [[float(c.real), float(c.imag)] for c in d.coeffs],
    }
    assert json.dumps(series_to_json(d), sort_keys=True) == json.dumps(per_element, sort_keys=True)


def test_json_rejects_missing_fields():
    with pytest.raises(ValueError, match="truncation"):
        series_from_json({"coeffs": [[1, 0]]})
    with pytest.raises(ValueError, match="coeffs"):
        series_from_json({"truncation": 2, "coeffs": [[1, 0]]})


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_atomic_write_leaves_no_temp_file_when_it_fails(tmp_path, monkeypatch, fails):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    if fails == "replace":
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            _atomic_write_json(str(path), {"a": 1})
    else:
        with pytest.raises(TypeError):
            _atomic_write_text(str(path), ["first text", 2])  # not a str: fails mid-write
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert path.read_text() == "old\n"


def test_atomic_write_of_texts_that_raise_partway_leaves_no_temp_file(tmp_path):
    # a generator is encoded inside the write: its error is a failed write
    path = tmp_path / "out.json"
    path.write_text("old\n")

    def texts():
        yield from _series_json_text(series(np.ones(3 * 2**14 + 5)))
        raise ValueError("encoding failed")

    with pytest.raises(ValueError, match="encoding failed"):
        _atomic_write_text(str(path), texts())
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert path.read_text() == "old\n"


def _signed_zero_coeffs(n: int) -> np.ndarray:
    """n coefficients, with -0.0 in the real part, the imaginary part or both."""
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    coeffs.real[::3] = -0.0
    coeffs.imag[::5] = -0.0
    return coeffs


@pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
@pytest.mark.parametrize("fields", [{}, {"exact": True}, {"exact": False}])
def test_series_json_text_matches_the_one_shot_encoding(n, fields):
    d = series(_signed_zero_coeffs(n))
    want = json.dumps({**series_to_json(d), **fields}, sort_keys=True) + "\n"
    got = "".join(_series_json_text(d, **fields))
    assert got == want
    assert "-0.0" in got


def test_series_json_write_bounded_memory(tmp_path):
    # slices of 2^14 rows: the whole list of [re, im] lists and its text
    # took 205 MiB at 10^6 coefficients
    d = series(np.full(10**6, 0.1 - 0.2j))
    path = tmp_path / "series.json"
    tracemalloc.start()
    try:
        _atomic_write_text(str(path), _series_json_text(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    rows = ", ".join(["[0.1, -0.2]"] * 10**6)
    assert path.read_text() == '{"coeffs": [' + rows + '], "truncation": 1000000}\n'

