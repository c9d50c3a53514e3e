import math

import numpy as np
import pytest

from hplus import superposition
from hplus.errors import InexactPower
from hplus.numtheory import chebyshev_theta, divisor_power_table, prime_pi, sieve
from hplus.series import (
    DirichletSeries,
    power,
    seminorm_2,
    translate,
    with_truncation,
)
from hplus.superposition import (
    EntireCoeffs,
    composition_criterion,
    noncomposition_exponent,
    power_norm_chain_check,
    superpose_entire,
    superpose_poly,
    zeta_growth_witness,
)


def series(coeffs):
    return DirichletSeries(np.asarray(coeffs, dtype=np.complex128))


# -- polynomial superposition ----------------------------------------------------

def test_superpose_identity_coefficients(rng):
    d = series(rng.normal(size=20) + 1j * rng.normal(size=20))
    assert superpose_poly(d, [0, 1]) == d


def test_superpose_quadratic_on_monomial():
    d = DirichletSeries.monomial(2, 1.0, 10)
    got = superpose_poly(d, [1, 0, 1])  # 1 + D^2
    want = np.zeros(10, dtype=np.complex128)
    want[0] = 1.0
    want[3] = 1.0
    assert np.array_equal(got.coeffs, want)


def test_superpose_distributes_over_coefficients(rng):
    d = series(rng.normal(size=24) + 1j * rng.normal(size=24))
    b = rng.normal(size=4)
    c = rng.normal(size=4)
    lhs = superpose_poly(d, b + c)
    rhs = superpose_poly(d, b) + superpose_poly(d, c)
    assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-14)


def test_superpose_matches_power_sum_two_paths(rng):
    d = series(rng.normal(size=30))
    b = [0.5, -1.0, 0.25, 0.125]
    got = superpose_poly(d, b)
    want = np.zeros(30, dtype=np.complex128)
    for j, bj in enumerate(b):
        want += bj * power(d, j, 30).coeffs
    assert np.allclose(got.coeffs, want, rtol=1e-12, atol=1e-14)


# -- entire superposition -----------------------------------------------------------

def test_entire_linear_coefficients_give_series(rng):
    d = series(rng.normal(size=16))
    ec = EntireCoeffs(coeff=lambda k: 1.0 if k == 1 else 0.0, tag="z")
    total, diags = superpose_entire(d, ec, big_k=3, m_check=1)
    assert np.allclose(total.coeffs, d.coeffs, rtol=1e-14)
    assert diags[-1].k_from == 2


def test_entire_zero_coefficients(rng):
    d = series(rng.normal(size=8))
    ec = EntireCoeffs(coeff=lambda k: 0.0, tag="0")
    total, diags = superpose_entire(d, ec, big_k=4, m_check=2)
    assert total == DirichletSeries.zero(8)
    assert all(diag.tail_seminorm == 0.0 for diag in diags)


def test_entire_weighs_each_distinct_m_once(monkeypatch):
    # [2, 1, 2]: one majorant base norm and one weight per tail for m = 2 and
    # m = 1 each; the repeated m gets the entries of its first occurrence
    d = translate(DirichletSeries.ones(300), 1.0)
    ec = EntireCoeffs.exp_neg_k_to_k()
    norms, weighed = [], []
    real_norm, real_roots = superposition.seminorm_2, superposition._weighted_l2_roots
    monkeypatch.setattr(superposition, "seminorm_2",
                        lambda d, k: norms.append(k) or real_norm(d, k))
    monkeypatch.setattr(superposition, "_weighted_l2_roots",
                        lambda idx, v, ks, q: weighed.append(list(ks)) or real_roots(idx, v, ks, q))
    total, diags_per_m = superpose_entire(d, ec, 6, [2, 1, 2])
    assert norms == [8, 4]
    assert weighed == [[2, 1]] * 6
    assert diags_per_m[0] == diags_per_m[2]
    for m, diags in zip([2, 1, 2], diags_per_m):
        assert diags == superpose_entire(d, ec, 6, m)[1]


@pytest.mark.parametrize("m_check", [1, 2, 4])
def test_entire_tail_collapses_fast(m_check):
    # doubly-exponential coefficient decay beats the power-norm growth
    d = translate(DirichletSeries.ones(500), 1.0)
    ec = EntireCoeffs.exp_neg_k_to_k()
    _, diags = superpose_entire(d, ec, big_k=8, m_check=m_check)
    below = [diag.k_from for diag in diags if diag.tail_seminorm < 1e-12]
    assert below and min(below) <= 6


def test_entire_majorant_present_for_tagged_coeffs():
    # at m = 4 the chain product overflows from k = 8; its log does not
    d = translate(DirichletSeries.ones(100), 1.0)
    for m in (1, 4):
        _, diags = superpose_entire(d, EntireCoeffs.exp_neg_k_to_k(), 10, m)
        for diag in diags:
            # finite, and it really dominates: log(tail) <= log_majorant
            assert math.isfinite(diag.log_majorant)
            if diag.tail_seminorm > 0:
                assert math.log(diag.tail_seminorm) <= diag.log_majorant + 1e-9


def test_inverse_factorial_tag():
    ec = EntireCoeffs.inverse_factorial()
    assert ec.coeff(0) == 1.0
    assert ec.coeff(5) == pytest.approx(1 / 120, rel=1e-12)
    assert ec.log_abs(10) == pytest.approx(-math.lgamma(11), rel=1e-12)


# -- composition criterion ------------------------------------------------------------

def test_criterion_monomial_constant_roots():
    d = DirichletSeries.monomial(2, 1.0, 64)
    rep = composition_criterion(d, m=3, k_max=5)
    want = 2 ** (-1.0 / 3)
    assert np.allclose(rep.roots, want, rtol=1e-12)


def test_criterion_first_root_is_seminorm(rng):
    d = series(rng.normal(size=50))
    rep = composition_criterion(d, m=2, k_max=3)
    assert rep.norms[0] == seminorm_2(d, 2)
    assert rep.roots[0] == rep.norms[0]


def test_criterion_zeta_half_roots_increase():
    d = translate(DirichletSeries.ones(2000), 0.5)
    rep = composition_criterion(d, m=4, k_max=4)
    assert np.all(np.diff(rep.roots) > 0)


def test_criterion_monotone_in_truncation():
    for n1, n2 in ((500, 2000),):
        r1 = composition_criterion(translate(DirichletSeries.ones(n1), 0.5), 4, 4)
        r2 = composition_criterion(translate(DirichletSeries.ones(n2), 0.5), 4, 4)
        assert np.all(r1.roots <= r2.roots + 1e-12)


def test_criterion_rejects_small_kmax():
    with pytest.raises(ValueError):
        composition_criterion(DirichletSeries.ones(4), 1, 1)


# -- power norm chain ------------------------------------------------------------------

def test_chain_k1_reduces_to_seminorm_comparison(rng):
    d = series(rng.normal(size=30))
    chk = power_norm_chain_check(d, m=2, k=1)
    assert chk.j_cut == 0 and chk.prime_product == 1.0
    assert chk.lhs <= chk.rhs * (1 + 1e-12)
    assert chk.lhs == seminorm_2(d, 2)


def test_chain_k2_empty_product(rng):
    d = with_truncation(series(rng.normal(size=20)), 400)
    chk = power_norm_chain_check(d, m=1, k=2)
    assert chk.j_cut == 0
    assert chk.prime_product == 1.0
    assert chk.lhs <= chk.rhs * (1 + 1e-12)


def test_chain_random_instance(rng):
    support = 30
    base = np.zeros(support, dtype=np.complex128)
    idx = rng.choice(support, size=10, replace=False)
    base[idx] = rng.normal(size=10) + 1j * rng.normal(size=10)
    p_poly = with_truncation(series(base), 27_000)
    chk = power_norm_chain_check(p_poly, m=1, k=3)
    assert chk.lhs <= chk.rhs * (1 + 1e-9)
    assert chk.slack >= 1.0 - 1e-9


def test_chain_inexact_power_raises(rng):
    p_poly = with_truncation(series(rng.normal(size=30)), 27_000)
    with pytest.raises(InexactPower):
        power_norm_chain_check(p_poly, m=1, k=4)  # 30^4 > 27000


def test_chain_threshold_cut_k3():
    # k = 3, m = 1: primes with p^{-1/4} > sqrt(2/3) are exactly {2}
    chk = power_norm_chain_check(with_truncation(series([0, 1.0]), 8), 1, 3)
    assert chk.j_cut == 1
    assert chk.prime_product == pytest.approx(1 / (1 - 2 ** (-1 / 4)), rel=1e-13)


def test_chain_working_truncation_matches_padded(rng):
    sup = 30
    base = series(rng.normal(size=sup) + 1j * rng.normal(size=sup))
    fields = ("lhs", "rhs", "base_norm", "prime_product")
    for k in (1, 2, 3, 4):
        got = power_norm_chain_check(base, 1, k, out_truncation=sup**k)
        want = power_norm_chain_check(with_truncation(base, sup**k), 1, k)
        assert got.j_cut == want.j_cut
        bits = [np.float64(getattr(c, f)).view(np.uint64) for c in (got, want) for f in fields]
        assert bits[:4] == bits[4:]
        with pytest.raises(InexactPower):
            power_norm_chain_check(base, 1, k, out_truncation=sup**k - 1)
    with pytest.raises(ValueError):
        power_norm_chain_check(base, 1, 1, out_truncation=0)


# -- log-space witnesses -----------------------------------------------------------------

def test_witness_matches_direct_small_case():
    # x = 5^{1.3} ~ 8.1: n_k = 2*3*5*7 = 210, d_5(210) = 5^4
    table = sieve(300)
    w = zeta_growth_witness(1, 0.3, [5], table=table)
    x = 5**1.3
    n_k = 210
    d5 = int(divisor_power_table(5, 210)[209])
    assert d5 == 5 ** prime_pi(x, table)
    direct = math.log(d5**2 / n_k ** (1 + 0.5)) / (2 * 5)
    assert w.values[0] == pytest.approx(direct, rel=1e-10)
    assert math.log(n_k) == pytest.approx(chebyshev_theta(x, table), rel=1e-12)


def test_witness_omega_negative_reported():
    w = zeta_growth_witness(1, 0.3, range(20, 31))
    assert w.omega < 0
    assert w.targets is None
    assert len(w.values) == 11


def test_witness_omega_positive_targets():
    w = zeta_growth_witness(1, 0.05, range(10, 21))
    assert w.omega > 0
    assert w.targets is not None
    assert len(w.targets) == len(w.ks)


def test_witness_summation_order_stability():
    # recompute theta by descending fsum; log-space rows agree to 1e-10
    table = sieve(3000)
    w = zeta_growth_witness(1, 0.3, range(20, 61), table=table)
    for i, k in enumerate(w.ks):
        x = float(w.xs[i])
        logs = sorted(
            (math.log(int(p)) for p in table.primes if p <= x), reverse=True
        )
        theta_desc = math.fsum(logs)
        direct = (
            2 * prime_pi(x, table) * math.log(int(k)) - 1.5 * theta_desc
        ) / (2 * int(k))
        assert w.values[i] == pytest.approx(direct, abs=1e-10)


def test_noncomposition_trivial_rows():
    t = noncomposition_exponent(1.2, 1.6, 0.05, 0.05, [1])
    assert t.values[0] == pytest.approx(-1.0, rel=1e-12)  # x < 2: pi = theta = 0


def test_noncomposition_omega_and_growth():
    t = noncomposition_exponent(1.2, 1.6, 0.05, 0.05, range(40, 101))
    assert t.omega > 0
    assert t.values[-1] > t.values[0]


def test_noncomposition_factorial_penalty():
    t = noncomposition_exponent(
        1.2,
        1.6,
        0.05,
        0.05,
        [200, 500],
        penalty_log=lambda k: math.lgamma(k + 1),
        penalty_tag="1/k!",
    )
    assert t.penalty_tag == "1/k!"
    assert t.values[0] < 0 < t.values[1]


def test_noncomposition_rejects_bad_exponents():
    with pytest.raises(ValueError):
        noncomposition_exponent(2.5, 2.6, 0.05, 0.05, [10])
    with pytest.raises(ValueError):
        noncomposition_exponent(1.2, 1.1, 0.05, 0.05, [10])
