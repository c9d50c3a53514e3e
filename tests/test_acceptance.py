"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.  Criterion 11 checks that the
non-extension sum S(M) = sum z_n / sqrt(p_n) grows, and at exactly the
triple-log rate that explicit bounds on the n-th prime force: each decade
increment must lie in the bracket of ``oracles.nonextension_increment_bracket``.
"""

import math
import time

import numpy as np
import pytest

from hplus.bohr import (
    MultiPoly,
    nonextension_partial_sums,
    rho_estimate,
    sieve_for_n_primes,
    weighted_h2_norm,
)
from hplus.errors import SpectrumPoint
from hplus.numtheory import divisor_power_table, sieve
from hplus.operators import (
    Symbol,
    compose_general,
    differentiate,
    integrate,
    resolvent,
    twist_symbol,
    vertical_limit,
)
from hplus.operators import Character
from hplus.series import (
    DirichletSeries,
    evaluate,
    multiply,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    translate,
    with_truncation,
)
from hplus.superposition import (
    EntireCoeffs,
    composition_criterion,
    noncomposition_exponent,
    power_norm_chain_check,
    superpose_entire,
    zeta_growth_witness,
)

from oracles import compose_affine, nonextension_increment_bracket, ordered_factorizations

SEED = 20250802


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _series(arr) -> DirichletSeries:
    return DirichletSeries(np.asarray(arr, dtype=np.complex128))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(SEED)
    return [
        _series(rng.normal(size=100) + 1j * rng.normal(size=100)) for _ in range(100)
    ]


# -- 1: divisor oracle ---------------------------------------------------------------

def test_01_divisor_oracle():
    t0 = time.perf_counter()
    n_max, k_max = 3000, 5
    tables = {k: divisor_power_table(k, n_max) for k in range(1, k_max + 1)}
    mismatches = 0
    for k in range(1, k_max + 1):
        tab = tables[k]
        for n in range(1, n_max + 1):
            if int(tab[n - 1]) != ordered_factorizations(n, k):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(1, "divisor oracle", ok, f"n<=3000, k<=5, mismatches={mismatches}, {elapsed:.1f}s")


# -- 2: seminorm chain ----------------------------------------------------------------

def test_02_seminorm_chain(corpus):
    t0 = time.perf_counter()
    out_trunc = 100 * 100
    worst = 0.0
    inexact = 0
    for d in corpus:
        for k in (1, 2, 3, 4):
            lhs = seminorm_2(d, k)
            mid = seminorm_even(d, 2, k, out_trunc)
            if not mid.exact:
                inexact += 1
            rhs = seminorm_comparison_constant(k, 2, 4) * seminorm_2(d, 2 * k)
            worst = max(worst, lhs / mid.value - 1.0, mid.value / rhs - 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and inexact == 0 and elapsed < 30.0
    _report(
        2,
        "seminorm chain 2-4-2k",
        ok,
        f"100 polys, k in 1..4, worst rel slack={worst:.2e}, {elapsed:.1f}s",
    )


# -- 3: algebra inequality ---------------------------------------------------------------

def test_03_algebra_inequality(corpus):
    out_trunc = 100 * 100
    worst = 0.0
    for i in range(0, 100, 2):
        p_s = with_truncation(corpus[i], out_trunc)
        q_s = with_truncation(corpus[i + 1], out_trunc)
        prod = multiply(p_s, q_s)
        for m in (1, 2):
            lhs = seminorm_2(prod, m)
            rhs = (
                seminorm_comparison_constant(m, 1, 2)
                * seminorm_2(corpus[i], 2 * m)
                * seminorm_2(corpus[i + 1], 2 * m)
            )
            worst = max(worst, lhs / rhs - 1.0)
    ok = worst <= 1e-9
    _report(3, "algebra inequality", ok, f"50 pairs, m in (1,2), worst rel slack={worst:.2e}")


# -- 4: power-norm chain -------------------------------------------------------------------

def test_04_power_norm_chain():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(50):
        base = np.zeros(30, dtype=np.complex128)
        idx = rng.choice(30, size=10, replace=False)
        base[idx] = rng.normal(size=10) + 1j * rng.normal(size=10)
        sup = int(np.flatnonzero(base)[-1]) + 1
        for k in (1, 2, 3, 4):
            padded = with_truncation(_series(base), max(sup, sup**k))
            chk = power_norm_chain_check(padded, 1, k)
            worst = max(worst, chk.lhs / chk.rhs - 1.0)
    ok = worst <= 1e-9
    _report(4, "power-norm chain", ok, f"50 polys, m=1, k<=4, worst rel slack={worst:.2e}")


# -- 5: Bohr lift / Parseval ------------------------------------------------------------------

def test_05_bohr_parseval():
    rng = np.random.default_rng(SEED + 5)
    table = sieve_for_n_primes(3)
    primes = table.primes[:3].astype(float)
    worst_rel = 0.0
    for trial in range(10):
        terms = {}
        while len(terms) < 20:
            alpha = tuple(int(e) for e in rng.integers(0, 4, size=3))
            terms[alpha] = terms.get(alpha, 0j) + complex(rng.normal(), rng.normal())
        poly = MultiPoly(3, list(terms), list(terms.values()))
        est = rho_estimate(poly, k=1, p=2.0, samples=100_000, seed=SEED + trial, table=table)
        exact = math.sqrt(
            sum(
                abs(c) ** 2 * float(np.prod(primes ** (-2.0 * np.array(
                    [alpha[j] for j in range(3)], dtype=float))))
                for alpha, c in poly.terms.items()
            )
        )
        worst_rel = max(worst_rel, abs(est.value - exact) / exact)

    table600 = sieve(700)
    worst_id = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 600))
        d = _series(rng.normal(size=n) + 1j * rng.normal(size=n))
        k = int(rng.integers(1, 6))
        a, b = weighted_h2_norm(d, k, table600), seminorm_2(d, k)
        worst_id = max(worst_id, abs(a - b) / b)
    ok = worst_rel <= 0.03 and worst_id <= 1e-12
    _report(
        5,
        "Bohr lift / Parseval",
        ok,
        f"MC worst rel err={worst_rel:.2%} (<=3%), identity worst={worst_id:.2e} (<=1e-12)",
    )


# -- 6: composition ------------------------------------------------------------------------------

def test_06_composition():
    rng = np.random.default_rng(SEED + 6)
    # (a) constant series part reduces to the affine reindexing, exactly
    exact_affine = True
    for _ in range(10):
        d = _series(rng.normal(size=40) + 1j * rng.normal(size=40))
        c0 = int(rng.integers(1, 4))
        c1 = complex(rng.normal(), rng.normal())
        got = compose_general(d, Symbol(c0, _series([c1])), 40)
        exact_affine &= got.exact and np.array_equal(
            got.series.coeffs, compose_affine(d, c0, c1).coeffs
        )

    # (b) pointwise oracle at s = 3
    worst_pt = 0.0
    for _ in range(20):
        c0 = int(rng.integers(1, 3))
        d = _series(rng.normal(size=15) + 1j * rng.normal(size=15))
        varphi = _series(0.3 * (rng.normal(size=6) + 1j * rng.normal(size=6)))
        phi = Symbol(c0, varphi)
        comp = compose_general(d, phi, 4096)
        direct = evaluate(d, c0 * 3.0 + evaluate(varphi, 3.0))
        worst_pt = max(worst_pt, abs(evaluate(comp.series, 3.0) - direct))

    # (c) seminorm contraction with zero constant term
    contraction = True
    for _ in range(20):
        d = _series(rng.normal(size=60) + 1j * rng.normal(size=60))
        c0 = int(rng.integers(1, 4))
        comp = compose_affine(d, c0, 0.0)
        for k in (1, 2, 4):
            contraction &= seminorm_2(comp, k) <= seminorm_2(d, k) * (1 + 1e-12)

    # (d) vertical-limit relation at 20 points with Re s >= 2
    m_out = 512
    big_table = sieve(m_out)
    small_table = sieve(64)
    worst_vl = 0.0
    pts = [2.0, 2.5, 3.0 + 1.0j, 2.2 - 0.7j, 4.0]
    for _ in range(4):
        c0 = int(rng.integers(1, 3))
        d = _series(rng.normal(size=10) + 1j * rng.normal(size=10))
        varphi = _series(0.3 * (rng.normal(size=6) + 1j * rng.normal(size=6)))
        phi = Symbol(c0, varphi)
        chi = Character(np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(big_table.primes))))
        lhs_series = vertical_limit(compose_general(d, phi, m_out).series, chi, big_table)
        rhs_series = compose_general(
            vertical_limit(d, chi**c0, small_table),
            twist_symbol(phi, chi, small_table),
            m_out,
        ).series
        for s in pts:
            worst_vl = max(worst_vl, abs(evaluate(lhs_series, s) - evaluate(rhs_series, s)))

    ok = exact_affine and worst_pt <= 1e-6 and contraction and worst_vl <= 1e-8
    _report(
        6,
        "composition",
        ok,
        f"affine-exact={exact_affine}, pointwise={worst_pt:.1e} (<=1e-6), "
        f"contraction={contraction}, vertical={worst_vl:.1e} (<=1e-8)",
    )


# -- 7: differentiation / integration / resolvent --------------------------------------------------

def test_07_operators(corpus):
    # D(J(.)) and J(D(.)) are the identity on zero-constant-term series
    worst_inv = 0.0
    for d in corpus[:25]:
        d0 = _series(np.concatenate([[0.0], d.coeffs[1:]]))
        a = integrate(differentiate(d0))
        b = differentiate(integrate(d0))
        scale_ref = float(np.max(np.abs(d0.coeffs)))
        worst_inv = max(
            worst_inv,
            float(np.max(np.abs(a.coeffs - d0.coeffs))) / scale_ref,
            float(np.max(np.abs(b.coeffs - d0.coeffs))) / scale_ref,
        )

    bound_ok = True
    for d in corpus[:25]:
        for k in (1, 2, 3):
            bound_ok &= seminorm_2(differentiate(d), k) <= (
                2 * k / math.e
            ) * seminorm_2(d, 2 * k) * (1 + 1e-12)

    spectrum_hits = 0
    d0 = _series(np.concatenate([[0.0], np.ones(63)]))
    for n in range(2, 51):
        try:
            resolvent(-math.log(n), d0)
        except SpectrumPoint as exc:
            spectrum_hits += exc.n == n

    rng = np.random.default_rng(SEED + 7)
    worst_rt = 0.0
    for _ in range(20):
        d = _series(rng.normal(size=50) + 1j * rng.normal(size=50))
        d0 = _series(np.concatenate([[0.0], d.coeffs[1:]]))
        lam = complex(rng.normal(), rng.normal()) + 5.0  # far from -log n
        r = resolvent(lam, d0)
        back = lam * r.coeffs - differentiate(r).coeffs
        worst_rt = max(worst_rt, float(np.max(np.abs(back - d0.coeffs))))

    ok = worst_inv <= 1e-12 and bound_ok and spectrum_hits == 49 and worst_rt <= 1e-12
    _report(
        7,
        "differentiation/integration/resolvent",
        ok,
        f"inverse-pair={worst_inv:.1e}, derivative bound={bound_ok}, "
        f"spectrum hits={spectrum_hits}/49, roundtrip={worst_rt:.1e} (<=1e-12)",
    )


# -- 8: translated-zeta growth --------------------------------------------------------------------

def test_08_zeta_growth():
    t0 = time.perf_counter()
    d = translate(DirichletSeries.ones(100_000), 0.5)
    rep = composition_criterion(d, m=4, k_max=6)
    roots_increasing = bool(np.all(np.diff(rep.roots) > 0))

    wit = zeta_growth_witness(1, 0.3, range(20, 61))
    vals = wit.values
    lag = 5
    lag_increasing = all(vals[i + lag] > vals[i] for i in range(len(vals) - lag))
    endpoints = vals[-1] > vals[0]
    positive_from = None
    for i, k in enumerate(wit.ks):
        if np.all(vals[i:] > 0):
            positive_from = int(k)
            break
    elapsed = time.perf_counter() - t0
    ok = (
        roots_increasing
        and lag_increasing
        and endpoints
        and positive_from is not None
        and positive_from <= 60
        and elapsed < 60.0
    )
    _report(
        8,
        "translated-zeta growth",
        ok,
        f"r_k strictly increasing={roots_increasing} (k<=6, N=1e5), witness lag-{lag} "
        f"increasing={lag_increasing}, positive from k*={positive_from} (<=60), {elapsed:.1f}s",
    )


# -- 9: doubly-exponential superposition -------------------------------------------------------------

def test_09_superposition_tails():
    d = translate(DirichletSeries.ones(2000), 1.0)
    ec = EntireCoeffs.exp_neg_k_to_k()
    thresholds = {}
    for m in (1, 2, 4):
        _, diags = superpose_entire(d, ec, big_k=8, m_check=m)
        below = [diag.k_from for diag in diags if diag.tail_seminorm < 1e-12]
        thresholds[m] = min(below) if below else None
    ok = all(v is not None and v <= 6 for v in thresholds.values())
    _report(
        9,
        "superposition exp(-k^k)",
        ok,
        f"tail < 1e-12 from K'={thresholds} (all <= 6)",
    )


# -- 10: non-composition exponent ----------------------------------------------------------------------

def test_10_noncomposition_exponent():
    main = noncomposition_exponent(1.2, 1.6, 0.05, 0.05, range(40, 201))
    vals = main.values
    lag = 5
    lag_increasing = all(vals[i + lag] > vals[i] for i in range(len(vals) - lag))
    positive_by = None
    for i, k in enumerate(main.ks):
        if np.all(vals[i:] > 0):
            positive_by = int(k)
            break

    ladder = [40, 80, 120, 160, 200, 300, 400, 500, 750, 1000]
    fact = noncomposition_exponent(
        1.2, 1.6, 0.05, 0.05, ladder,
        penalty_log=lambda k: math.lgamma(k + 1), penalty_tag="1/k!",
    )
    tail = [float(v) for k, v in zip(fact.ks, fact.values) if k >= 200]
    fact_diverges = all(a < b for a, b in zip(tail, tail[1:])) and tail[-1] > 0

    ok = (
        main.omega > 0
        and lag_increasing
        and positive_by is not None
        and positive_by <= 200
        and fact_diverges
    )
    _report(
        10,
        "non-composition exponent",
        ok,
        f"omega={main.omega:.4f}>0, lag-{lag} increasing={lag_increasing}, positive from "
        f"k={positive_by} (<=200), factorial row increasing past 200 and positive by 1000="
        f"{fact_diverges}",
    )


# -- 11: non-extension experiment -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nonextension_primes():
    # p_n for n <= 1e6 requires the sieve to reach ~15.5M
    return sieve(16_600_000)


@pytest.fixture(scope="module")
def nonextension_table(nonextension_primes):
    return nonextension_partial_sums(1_000_000, nonextension_primes)


def test_11a_nonextension_increasing(nonextension_table):
    t = nonextension_table
    increasing = bool(np.all(np.diff(t.partial_sums) > 0)) and bool(
        np.all(t.partial_sums > 0)
    )
    dominates = bool(np.all(t.partial_sums >= t.lower_bound)) and t.prime_bound_ok
    ok = increasing and dominates
    _report(
        11,
        "non-extension: monotone growth",
        ok,
        f"S strictly increasing={increasing}, term-wise lower bound column dominated="
        f"{dominates}",
    )


def test_11b_nonextension_ratio_threshold(nonextension_table, nonextension_primes):
    t = nonextension_table
    sums = dict(zip((int(m) for m in t.checkpoints), t.partial_sums))
    # The brackets rest on p_n > n ln n (n >= 1) and p_n < n (ln n + lnln n)
    # (n >= 6); confirm both on the primes the sums were built from.
    n = np.arange(1, 1_000_001, dtype=np.float64)
    p_n = nonextension_primes.primes[:1_000_000].astype(np.float64)
    rosser = bool(np.all(p_n > n * np.log(n)))
    ln = np.log(n[5:])
    schoenfeld = bool(np.all(p_n[5:] < n[5:] * (ln + np.log(ln))))
    # Every decade increment of S on the 1e3..1e6 ladder, and the whole
    # 1e3 -> 1e6 increment, must lie in its bracket.
    spans = [(1000, 10_000), (10_000, 100_000), (100_000, 1_000_000), (1000, 1_000_000)]
    brackets = {span: nonextension_increment_bracket(*span) for span in spans}
    in_bracket = True
    lines = []
    for (a, b), (lo, hi) in brackets.items():
        inc = sums[b] - sums[a]
        in_bracket = in_bracket and lo <= inc <= hi
        lines.append(f"S({b})-S({a})={inc:.4f} in [{lo:.4f}, {hi:.4f}]")
    # The whole-range bracket read as a ratio.  With S(1e3) >= z_1/sqrt(2) +
    # z_2/sqrt(3) = 0.642, its upper end never exceeds 1 + 0.3065/0.642 = 1.477.
    lo, hi = brackets[(1000, 1_000_000)]
    ratio = sums[1_000_000] / sums[1000]
    r_lo, r_hi = 1 + lo / sums[1000], 1 + hi / sums[1000]
    ok = rosser and schoenfeld and in_bracket and r_lo <= ratio <= r_hi
    _report(
        11,
        "non-extension: triple-log growth",
        ok,
        f"{'; '.join(lines)}; S(1e6)/S(1e3)={ratio:.4f} in [{r_lo:.4f}, {r_hi:.4f}]; "
        f"p_n > n ln n: {rosser}, p_n < n(ln n + lnln n) for n>=6: {schoenfeld}",
    )
