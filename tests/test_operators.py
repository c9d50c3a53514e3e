import json
import math

import numpy as np
import pytest

from hplus.errors import (
    MissingCutoff,
    NonzeroConstantTerm,
    SpectrumPoint,
    TableTooSmall,
)
from hplus.numtheory import factorize, sieve
from hplus.operators import (
    Character,
    GridSpec,
    Symbol,
    character_from_json,
    character_to_json,
    classify_symbol,
    compose_general,
    differentiate,
    integrate,
    resolvent,
    symbol_from_json,
    symbol_to_json,
    twist_symbol,
    vertical_limit,
    volterra,
)
from hplus.series import (
    DirichletSeries,
    evaluate,
    seminorm_2,
)

from oracles import (
    compose_affine,
    compose_general_clongdouble,
    compose_general_loop,
    dict_compose,
)


def series(coeffs):
    return DirichletSeries(np.asarray(coeffs, dtype=np.complex128))


def random_series(rng, n):
    return series(rng.normal(size=n) + 1j * rng.normal(size=n))


def random_symbol(rng, c0, trunc=8, size=0.4):
    coeffs = size * (rng.normal(size=trunc) + 1j * rng.normal(size=trunc))
    return Symbol(c0, series(coeffs))


def trivial_character(n_primes):
    return Character(np.ones(n_primes, dtype=np.complex128))


def random_character(rng, n_primes):
    return Character(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n_primes)))


# -- compose_affine (the oracle for constant series parts) -------------------------

def test_affine_identity(rng):
    d = random_series(rng, 20)
    assert compose_affine(d, 1, 0.0) == d


def test_affine_square_reindexing():
    got = compose_affine(DirichletSeries.ones(20), 2, 0.0)
    want = np.zeros(20)
    for n in (1, 4, 9, 16):
        want[n - 1] = 1.0
    assert np.array_equal(got.coeffs.real, want)


def test_affine_rejects_zero_slope():
    with pytest.raises(ValueError):
        compose_affine(DirichletSeries.ones(4), 0, 0.0)


def test_affine_contraction_without_constant(rng):
    # with c1 = 0 the seminorms can only shrink
    for _ in range(10):
        d = random_series(rng, 50)
        c0 = int(rng.integers(1, 4))
        comp = compose_affine(d, c0, 0.0)
        for k in (1, 2, 5):
            assert seminorm_2(comp, k) <= seminorm_2(d, k) * (1 + 1e-12)


# -- compose_general -------------------------------------------------------------

def test_general_with_constant_symbol_equals_affine(rng):
    for c0 in (1, 2, 3):
        d = random_series(rng, 30)
        c1 = complex(rng.normal(), rng.normal())
        phi = Symbol(c0, series([c1]))
        got = compose_general(d, phi, 30)
        assert got.exact
        assert np.array_equal(got.series.coeffs, compose_affine(d, c0, c1).coeffs)


def test_general_closed_form_single_prime():
    # phi(s) = s + c 2^{-s} applied to 2^{-s}: coefficients (-c log 2)^j / j!
    c = 0.37
    d = DirichletSeries.monomial(2, 1.0, 8)
    phi = Symbol(1, series([0.0, c]))
    got = compose_general(d, phi, 512).series
    for j in range(0, 9):
        idx = 2 ** (j + 1)
        want = (-c * math.log(2)) ** j / math.factorial(j)
        assert got.coeffs[idx - 1] == pytest.approx(want, rel=1e-13, abs=1e-300)
    nonzero = set(int(i) + 1 for i in np.flatnonzero(got.coeffs))
    assert nonzero == {2 ** (j + 1) for j in range(9)}


def test_general_matches_dict_oracle(rng):
    for trial in range(8):
        c0 = int(rng.integers(0, 3))
        d = random_series(rng, 12)
        phi = random_symbol(rng, c0, trunc=8)
        m_out = 512
        cutoff = 12 if c0 == 0 else None
        got = compose_general(d, phi, m_out, n_cutoff=cutoff)
        want = dict_compose(
            {n: complex(d.coeffs[n - 1]) for n in range(1, 13)},
            c0,
            {n: complex(phi.varphi.coeffs[n - 1]) for n in range(1, 9)},
            m_out,
            n_cutoff=cutoff,
        )
        dense = np.zeros(m_out, dtype=np.complex128)
        for m, v in want.items():
            dense[m - 1] = v
        assert np.allclose(got.series.coeffs, dense, rtol=1e-10, atol=1e-12)


def test_general_pointwise_oracle(rng):
    s = 3.0
    for _ in range(5):
        c0 = int(rng.integers(1, 3))
        d = random_series(rng, 15)
        phi = random_symbol(rng, c0, trunc=6, size=0.3)
        comp = compose_general(d, phi, 4096)
        assert comp.exact
        direct = evaluate(d, c0 * s + evaluate(phi.varphi, s))
        assert evaluate(comp.series, s) == pytest.approx(direct, abs=1e-6)


def _composition_case(rng, dense_symbol):
    """A 300-term series with zero gaps, and the series part of a symbol.

    The dense part has 64 terms shrinking like 1/(2m); the sparse one three
    terms at random indices in 2..64.
    """
    a = rng.normal(size=300) + 1j * rng.normal(size=300)
    a[rng.random(300) < 0.3] = 0
    a[40:90] = 0
    if dense_symbol:
        varphi = (rng.normal(size=64) + 1j * rng.normal(size=64)) / (2.0 * np.arange(1, 65))
    else:
        varphi = np.zeros(64, dtype=np.complex128)
        varphi[rng.choice(np.arange(1, 64), size=3, replace=False)] = rng.normal(size=3)
    varphi[0] = complex(rng.uniform(0.25, 0.75), rng.normal())
    return series(a), varphi


def _assert_near_clongdouble(got, want, c0):
    """max |got - want| <= 1e-15 max |want| (5e-15 for c0 = 0), want in np.clongdouble."""
    bound = 5e-15 if c0 == 0 else 1e-15
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= bound * scale


@pytest.mark.parametrize("m_out", [16, 40, 512, 4096])
@pytest.mark.parametrize("c0", [0, 1, 2, 3])
def test_general_matches_clongdouble_oracle(rng, c0, m_out):
    # compose_general sums over the n in another order than the per-n loop,
    # so both are held to one bound against the expansion in extended precision
    cutoff = 20 if c0 == 0 else None
    for dense_symbol in (True, False):
        d, varphi = _composition_case(rng, dense_symbol)
        phi = Symbol(c0, series(varphi))
        want = compose_general_clongdouble(d, phi, m_out, n_cutoff=cutoff)
        got = compose_general(d, phi, m_out, n_cutoff=cutoff).series.coeffs
        _assert_near_clongdouble(got, want, c0)
        loop = compose_general_loop(d, phi, m_out, n_cutoff=cutoff)
        _assert_near_clongdouble(loop, want, c0)


@pytest.mark.parametrize("cutoff", [-3, 0, 1, 2])
def test_general_flat_symbol_with_tiny_cutoff(rng, cutoff):
    d, varphi = _composition_case(rng, True)
    phi = Symbol(0, series(varphi))
    want = compose_general_clongdouble(d, phi, 64, n_cutoff=cutoff)
    got = compose_general(d, phi, 64, n_cutoff=cutoff).series.coeffs
    _assert_near_clongdouble(got, want, 0)
    _assert_near_clongdouble(compose_general_loop(d, phi, 64, n_cutoff=cutoff), want, 0)
    if cutoff < 1:  # no n contributes
        assert not np.any(got)


def test_general_requires_cutoff_when_flat():
    phi = Symbol(0, series([0.5, 0.1]))
    with pytest.raises(MissingCutoff):
        compose_general(DirichletSeries.ones(5), phi, 64)
    res = compose_general(DirichletSeries.ones(5), phi, 64, n_cutoff=5)
    assert not res.exact


# -- classification -------------------------------------------------------------

def test_classify_shifted_identity():
    phi = Symbol(1, series([1.0]))
    rep = classify_symbol(phi)
    assert rep.verdicts["bounded"].holds
    assert rep.verdicts["into_hp"].holds
    assert rep.epsilon_estimate == pytest.approx(1.0, abs=1e-9)


def test_classify_double_slope_not_bounded():
    phi = Symbol(2, series([0.0]))
    rep = classify_symbol(phi)
    assert rep.verdicts["continuous"].holds
    assert not rep.verdicts["bounded"].holds
    assert not rep.verdicts["into_hp"].holds


def test_classify_constant_into_hinf():
    phi = Symbol(0, series([1.0]))
    rep = classify_symbol(phi)
    assert rep.verdicts["into_hinf"].holds
    assert rep.verdicts["into_hinf_plus"].holds
    assert rep.heuristic


def test_classify_reports_grid(rng):
    grid = GridSpec(sigma_min=0.01, n_sigma=10, t_max=5.0, n_t=11)
    rep = classify_symbol(Symbol(1, series([0.0, 0.2])), grid)
    assert rep.grid == grid
    assert "HEURISTIC" in rep.notes


# -- vertical limits --------------------------------------------------------------

def test_vertical_limit_trivial_character(table_200, rng):
    d = random_series(rng, 40)
    chi = trivial_character(12)
    assert vertical_limit(d, chi, table_200) == d


def test_vertical_limit_sign_flip_at_two(table_200):
    n_max = 40
    vals = np.ones(12, dtype=np.complex128)
    vals[0] = -1.0  # chi(2) = -1
    chi = Character(vals)
    got = vertical_limit(DirichletSeries.ones(n_max), chi, table_200)
    for n in range(1, n_max + 1):
        e2 = factorize(n, table_200)[0]
        assert got.coeffs[n - 1] == pytest.approx((-1.0) ** e2, rel=1e-14)


def test_vertical_limit_preserves_seminorms(table_200, rng):
    d = random_series(rng, 60)
    chi = random_character(rng, 20)
    tw = vertical_limit(d, chi, table_200)
    for k in (1, 2, 4):
        assert seminorm_2(tw, k) == pytest.approx(seminorm_2(d, k), rel=1e-12)


def test_vertical_limit_insufficient_coverage(table_200):
    chi = Character(np.ones(2, dtype=np.complex128))
    with pytest.raises(TableTooSmall):
        vertical_limit(DirichletSeries.ones(50), chi, table_200)


def test_character_rejects_nonunimodular():
    with pytest.raises(ValueError):
        Character(np.array([0.5 + 0j]))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(1.0, math.nan), math.inf])
def test_character_rejects_non_finite_values(bad):
    # |nan| - 1 compares False against the tolerance, so nan once passed
    with pytest.raises(ValueError, match="finite and unimodular"):
        Character(np.array([bad, 1.0]))


def test_twist_symbol_trivial(table_200, rng):
    phi = random_symbol(rng, 1)
    assert twist_symbol(phi, trivial_character(4), table_200).varphi == phi.varphi


def test_twist_monomial_relation(table_200, rng):
    # twisting the composed monomial matches chi(n)^{c0} n^{-phi_chi(s)}
    m_out = 4096
    big_table = sieve(m_out)
    chi = random_character(rng, len(big_table.primes))
    chi_vals = chi.values_up_to(m_out, big_table)
    for c0 in (1, 2):
        for n in (2, 3, 6):
            phi = random_symbol(rng, c0, trunc=6, size=0.25)
            comp = compose_general(DirichletSeries.monomial(n, 1.0, 16), phi, m_out)
            lhs_series = vertical_limit(comp.series, chi, big_table)
            phi_chi = twist_symbol(phi, chi, table_200)
            for s in (3.0, 3.5 + 1j):
                lhs = evaluate(lhs_series, s)
                z = c0 * s + evaluate(phi_chi.varphi, s)
                rhs = chi_vals[n] ** c0 * np.exp(-z * math.log(n))
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_twist_composition_relation(table_200, rng):
    # vertical limit of a composition equals composing the twisted pieces
    m_out = 512
    big_table = sieve(m_out)
    chi = random_character(rng, 97)
    for c0 in (1, 2):
        d = random_series(rng, 10)
        phi = random_symbol(rng, c0, trunc=6, size=0.3)
        comp = compose_general(d, phi, m_out)
        lhs_series = vertical_limit(comp.series, chi, big_table)
        d_tw = vertical_limit(d, chi**c0, table_200)
        comp_tw = compose_general(d_tw, twist_symbol(phi, chi, table_200), m_out)
        for s in (2.0, 2.2 + 0.8j, 3.0 - 1.1j):
            assert evaluate(lhs_series, s) == pytest.approx(
                evaluate(comp_tw.series, s), abs=1e-8
            )


# -- differentiation / integration --------------------------------------------------

def test_differentiate_constant_is_zero():
    assert differentiate(series([5.0])) == DirichletSeries.zero(1)


def test_differentiate_monomial():
    got = differentiate(DirichletSeries.monomial(2, 1.0, 4))
    assert got.coeffs[1] == pytest.approx(-math.log(2), rel=1e-15)


def test_derivative_norm_bound(rng):
    # sup log(t) t^{-1/(2k)} = 2k/e gives ||D'||_{2,k} <= (2k/e) ||D||_{2,2k}
    for _ in range(10):
        d = random_series(rng, 80)
        for k in (1, 2, 3):
            bound = (2 * k / math.e) * seminorm_2(d, 2 * k)
            assert seminorm_2(differentiate(d), k) <= bound * (1 + 1e-12)


def test_integrate_monomial():
    got = integrate(DirichletSeries.monomial(2, 1.0, 4))
    assert got.coeffs[1] == pytest.approx(-1.0 / math.log(2), rel=1e-15)


def test_integrate_rejects_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        integrate(series([1.0, 2.0]))


def test_derivative_integral_inverse_pair(rng):
    d = random_series(rng, 64)
    d0 = series(np.concatenate([[0.0], d.coeffs[1:]]))  # kill a_1
    assert np.allclose(integrate(differentiate(d0)).coeffs, d0.coeffs, rtol=1e-14)
    assert np.allclose(differentiate(integrate(d0)).coeffs, d0.coeffs, rtol=1e-14)


def test_integration_norm_bound(rng):
    # 1/log n <= 1/log 2 for n >= 2 (the constant-1 display fails at n = 2)
    for _ in range(10):
        d = random_series(rng, 60)
        d0 = series(np.concatenate([[0.0], d.coeffs[1:]]))
        for k in (1, 3):
            bound = seminorm_2(d0, k) / math.log(2)
            assert seminorm_2(integrate(d0), k) <= bound * (1 + 1e-12)


def test_volterra_constant_symbol_vanishes(rng):
    e = random_series(rng, 32)
    assert volterra(series([3.0] + [0] * 31), e) == DirichletSeries.zero(32)


def test_volterra_on_unit_recovers_series(rng):
    d = random_series(rng, 32)
    unit = DirichletSeries.monomial(1, 1.0, 32)
    got = volterra(d, unit)
    want = series(np.concatenate([[0.0], d.coeffs[1:]]))  # D - a_1
    assert np.allclose(got.coeffs, want.coeffs, rtol=1e-13)


def test_volterra_hand_convolution_at_six():
    d = series([0, 1, 1] + [0] * 7)  # 2^{-s} + 3^{-s}
    e = DirichletSeries.ones(10)
    got = volterra(d, e)
    # (D'E)_6 = -log2 - log3 = -log6, then J flips it to +1
    assert got.coeffs[5] == pytest.approx(1.0, rel=1e-14)


# -- resolvent ------------------------------------------------------------------------

def test_resolvent_monomial_coefficient():
    d = DirichletSeries.monomial(2, 1.0, 8)
    got = resolvent(1.0, d)
    assert got.coeffs[1] == pytest.approx(1.0 / (1.0 + math.log(2)), rel=1e-14)


def test_resolvent_spectrum_point():
    d = DirichletSeries.monomial(2, 1.0, 8)
    with pytest.raises(SpectrumPoint) as exc:
        resolvent(-math.log(3), d)
    assert exc.value.n == 3


def test_resolvent_requires_zero_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        resolvent(1.0, DirichletSeries.ones(4))


def test_resolvent_roundtrip(rng):
    d = random_series(rng, 50)
    d0 = series(np.concatenate([[0.0], d.coeffs[1:]]))
    lam = 0.7 - 0.3j
    r = resolvent(lam, d0)
    back = series(lam * r.coeffs) - differentiate(r)
    assert np.allclose(back.coeffs, d0.coeffs, rtol=1e-12, atol=1e-15)


def test_factorization_display_exact(rng):
    # (lam I - Del) scales each coefficient by lam + log n, to the last ulp
    d = random_series(rng, 20)
    lam = 2.3 + 0.1j
    shifted = series(lam * d.coeffs) - differentiate(d)
    n = np.arange(1, 21, dtype=float)
    assert np.allclose(shifted.coeffs, d.coeffs * (lam + np.log(n)), rtol=1e-14, atol=0)


# -- serialization ----------------------------------------------------------------------

def test_symbol_json_roundtrip(rng):
    phi = random_symbol(rng, 2)
    back = symbol_from_json(json.loads(json.dumps(symbol_to_json(phi))))
    assert back.c0 == phi.c0 and back.varphi == phi.varphi


def test_character_json_roundtrip(rng):
    chi = random_character(rng, 5)
    back = character_from_json(json.loads(json.dumps(character_to_json(chi))))
    assert np.array_equal(back.prime_values, chi.prime_values)
