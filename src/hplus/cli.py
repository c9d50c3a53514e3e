"""Command-line front end: series I/O, norm tables, operators, experiments.

Subcommands: norms, compose, superpose, spectrum, vertical-limit,
experiment <name>.  One JSON format is shared with the library modules.
Outputs are deterministic for a fixed (config, seed) pair.  Every file goes
through one writer, ``series._atomic_write_text`` (temp file, then rename),
and a failed write leaves no temp file behind; an experiment runs in a
temporary directory whose files are moved into --out-dir only when it
succeeds.
Exit codes: 0 success, 2 usage or parse error, 3 domain error (spectrum
point, support overflow, missing coverage, beyond desk scale), surfaced
verbatim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__, _kernels, bohr, operators, superposition
from .errors import BeyondDeskScale, HplusError
from .numtheory import MultiIndex, sieve
from .series import (
    DirichletSeries,
    _atomic_write_json,
    _atomic_write_text,
    load_series,
    multiply,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    series_to_json,
    translate,
    with_truncation,
)

# inequality-suite's largest --support: its even seminorms form support^2
# index products each, and its products run at truncation support^2; at
# 2 000 a --count 2 run peaks near 260 MB of RSS.
SUITE_SUPPORT_LIMIT = 2000
# inequality-suite's largest --count x --support: all polynomials are drawn
# before the first row, 16 B per coefficient (16 MB at this limit).
SUITE_COEFF_LIMIT = 10**6
# ejemplo-growth's largest --truncation: the series takes 16 B a slot, and
# one dense product at 10^6 peaks near 90 MB of RSS.
EJEMPLO_TRUNCATION_LIMIT = 10**6
# ejemplo-growth's largest --kmax x --truncation: it forms one dense product
# per k, about 11 ms each at truncation 10^5 and 0.15 s at 10^6.
EJEMPLO_WORK_LIMIT = 2 * 10**7
# norms' largest output truncation: for p >= 4 a call raises the input to
# the p/2-th power at it once, and on a dense 1000-term input --p 26 --k 1
# at 4*10^6 (12 products) takes about 6.5 s and peaks near 245 MB (the
# truncation of inequality-suite's products at its largest --support).
NORMS_TRUNCATION_LIMIT = 4 * 10**6
# norms' largest --p: a call does p/2 - 1 products, and a small product costs
# about 30 us of call overhead whatever its size.
NORMS_P_LIMIT = 64
# norms' largest (p/2 - 1) products x output truncation, and len(ks) x the
# slots each k weighs (the output truncation; the input's for p = 2).  On a
# dense 1000-term input (numpy backend, 2 cores) --p 26 --k 1 at 4*10^6
# takes 6.5-7.8 s, --p 6 --k 1..87 at 4*10^6 4.0 s, and --p 26 --k 1..87
# at 4*10^6, both limits at once, 9.3 s.
NORMS_WORK_LIMIT = 5 * 10**7
NORMS_WEIGH_LIMIT = 35 * 10**7
# compose's largest output truncation: at 10^6 a dense input takes about 7 s
# end to end, most of it JSON, and peaks near 300 MB.
COMPOSE_TRUNCATION_LIMIT = 10**6

# superpose's largest (--kmax + 1) x truncation, and superpose-exp's largest
# len(--m-list) x (--kmax + 1) x --truncation: a run forms one product per
# power and keeps at most K + 1 arrays, a_k D^k for k = 0..K, 16 B a slot.
# A dense 10^6-term input at --kmax 7 takes 6.5-9 s end to end and peaks
# near 355 MB, most of it the JSON of the input and the output.
SUPERPOSE_WORK_LIMIT = 8 * 10**6
# bohr-parseval's largest --samples x --trials: about 0.6 s per 10^6 samples
# at its defaults (3 variables, 20 terms).
BOHR_SAMPLE_LIMIT = 10**7
# bohr-parseval's largest --n-vars: it sieves for that many primes, and each
# sample takes one exponential and one row of powers per variable (10^7
# samples of a 1-term polynomial in 8 variables take 5-7 s).
BOHR_VARS_LIMIT = 8
# bohr-parseval's largest --trials x --terms: each term is drawn in a
# Python-level loop, each trial makes one estimate, and the Monte Carlo
# multiplies (terms x 1024-sample) arrays, about 32 KB a term.  One trial of
# 4 096 terms in 8 variables at 12 207 samples takes 3.8 s and peaks near
# 170 MB; 4 096 one-term trials take 1.3 s.
BOHR_TERMS_LIMIT = 4096
# bohr-parseval's largest --samples x --trials x --terms, the monomials its
# Monte Carlo evaluates (2 * 10^7 at the defaults): 10^7 samples of 5 terms
# in 8 variables, the slowest in-bound call, take about 8.6 s.
BOHR_MONOMIAL_LIMIT = 5 * 10**7
# The largest k of noncomposition (--kmax) and of ejemplo-growth's witness
# (--witness-kmax): they sieve to k^C' and k^(1 + delta), below 10^8 for
# C' < 2 and delta < 1, which takes about 2 s and 155 MB.
K_RANGE_LIMIT = 10**4

# The longest integer list (norms --k, superpose-exp --m-list): each value
# is one seminorm of the input, or one superpose_entire run (about 4 ms at
# superpose-exp's defaults).
INT_LIST_LIMIT = 1000

EXPERIMENTS = (
    "inequality-suite",
    "bohr-parseval",
    "nonextension",
    "ejemplo-growth",
    "noncomposition",
    "superpose-exp",
)


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str) -> list[int]:
    """Accept '4', '1,2,3', or '1..8'; a list that selects nothing is an error.

    A list longer than INT_LIST_LIMIT is beyond desk scale; a range's length
    is checked before the range is built.
    """
    text = text.strip()
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        length, values = hi - lo + 1, range(lo, hi + 1)
    else:
        values = [int(tok) for tok in text.split(",") if tok]
        length = len(values)
    if length < 1:
        raise ValueError(f"integer list {text!r} selects no values")
    if length > INT_LIST_LIMIT:
        raise BeyondDeskScale(
            f"integer list {text!r} holds {length} values; beyond desk scale "
            f"(limit {INT_LIST_LIMIT})"
        )
    return list(values)


def _out_truncation(args, d: DirichletSeries, limit: int) -> int:
    """--truncation when given (it must be >= 1), else the input's truncation.

    Either must be at most limit, checked before any work on the input.
    """
    out_trunc = d.truncation if args.truncation is None else args.truncation
    if out_trunc < 1:
        raise ValueError(f"--truncation must be >= 1, got {args.truncation}")
    if out_trunc > limit:
        raise BeyondDeskScale(
            f"output truncation {out_trunc} is beyond desk scale (limit {limit})"
        )
    return out_trunc


def _check_superpose_work(runs: int, kmax: int, truncation: int) -> None:
    """Refuse runs x (kmax + 1) x truncation power slots past SUPERPOSE_WORK_LIMIT."""
    if runs * (kmax + 1) * truncation > SUPERPOSE_WORK_LIMIT:
        raise BeyondDeskScale(
            f"{runs} x (--kmax {kmax} + 1) x truncation {truncation} power slots; "
            f"beyond desk scale (limit {SUPERPOSE_WORK_LIMIT})"
        )


def _check_k_range(flag: str, kmin: int, kmax: int, least: int) -> None:
    """Refuse the k range of the flags <flag>kmin..<flag>kmax, before it is built,
    when it starts below least or ends past K_RANGE_LIMIT."""
    if kmin < least:
        raise ValueError(f"{flag}kmin must be >= {least}, got {kmin}")
    if kmax > K_RANGE_LIMIT:
        raise BeyondDeskScale(f"{flag}kmax {kmax} is beyond desk scale (limit {K_RANGE_LIMIT})")


def _finite_float(text: str) -> float:
    """A float flag: nan and infinities are usage errors, not values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(_finite_float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(_finite_float(parts[0]), _finite_float(parts[1]))
    raise ValueError(f"expected 're' or 're,im', got {text!r}")


def _manifest(name: str, parameters: dict, outputs: list[str], **extra) -> dict:
    doc = {
        "experiment": name,
        "version": __version__,
        "backend": _kernels.BACKEND,
        "parameters": parameters,
        "outputs": sorted(outputs),
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------

def _cmd_norms(args) -> int:
    ks = _parse_int_list(args.k)
    p = args.p
    if p < 2 or p % 2 != 0:
        raise ValueError(f"--p must be an even integer >= 2 for exact norms, got {p}")
    if p > NORMS_P_LIMIT:
        raise BeyondDeskScale(f"--p {p} is beyond desk scale (limit {NORMS_P_LIMIT})")
    d = load_series(args.infile)
    out_trunc = _out_truncation(args, d, NORMS_TRUNCATION_LIMIT)
    weighed = d.truncation if p == 2 else out_trunc
    if (p // 2 - 1) * out_trunc > NORMS_WORK_LIMIT or len(ks) * weighed > NORMS_WEIGH_LIMIT:
        raise BeyondDeskScale(
            f"{p // 2 - 1} products at truncation {out_trunc} and {len(ks)} k values weighing "
            f"{weighed} slots; beyond desk scale (limits {NORMS_WORK_LIMIT}, {NORMS_WEIGH_LIMIT})"
        )
    vals = seminorm_even(d, p // 2, ks, out_trunc)
    rows = [f"{k},{p},{v.value!r},{str(v.exact).lower()}" for k, v in zip(ks, vals)]
    text = _csv_text("k,p,value,exact", rows)
    if args.out:
        _atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compose(args) -> int:
    d = load_series(args.infile)
    with open(args.symbol) as f:
        phi = operators.symbol_from_json(json.load(f))
    out_trunc = _out_truncation(args, d, COMPOSE_TRUNCATION_LIMIT)
    result = operators.compose_general(d, phi, out_trunc, n_cutoff=args.cutoff)
    doc = series_to_json(result.series)
    doc["exact"] = result.exact
    _atomic_write_json(args.out, doc)
    return 0


def _tail_rows(diagnostics) -> list[tuple]:
    """Growth-table rows (k_from, tail seminorm, majorant) of tail diagnostics.

    The majorant is left empty where it is missing or its log is 700 or
    more, past which exp overflows.
    """
    rows = []
    for diag in diagnostics:
        maj = None
        if diag.log_majorant is not None and diag.log_majorant < 700:
            maj = math.exp(diag.log_majorant)
        rows.append((diag.k_from, diag.tail_seminorm, maj))
    return rows


def _cmd_superpose(args) -> int:
    d = load_series(args.infile)
    if args.coeffs:
        b = [_parse_complex(tok) for tok in args.coeffs.split(";")]
        result = superposition.superpose_poly(d, b)
        diagnostics = []
    else:
        if args.entire == "exp-kk":
            ec = superposition.EntireCoeffs.exp_neg_k_to_k()
        elif args.entire == "exp-kC":
            ec = superposition.EntireCoeffs.exp_neg_k_to_c(args.cc)
        elif args.entire == "inv-factorial":
            ec = superposition.EntireCoeffs.inverse_factorial()
        else:
            raise ValueError(f"unknown entire-coefficient tag {args.entire!r}")
        _check_superpose_work(1, args.kmax, d.truncation)
        result, diagnostics = superposition.superpose_entire(d, ec, args.kmax, args.m)
    _atomic_write_json(args.out, series_to_json(result))
    if args.diagnostics and diagnostics:
        try:
            superposition.write_growth_table(_tail_rows(diagnostics), args.diagnostics)
        except BaseException:
            os.remove(args.out)  # a failed run leaves no output
            raise
    return 0


def _cmd_spectrum(args) -> int:
    d = load_series(args.infile)
    lam = _parse_complex(args.lam)
    result = operators.resolvent(lam, d, tol=args.tol)
    _atomic_write_json(args.out, series_to_json(result))
    return 0


def _cmd_vertical_limit(args) -> int:
    d = load_series(args.infile)
    with open(args.character) as f:
        chi = operators.character_from_json(json.load(f))
    table = sieve(max(2, d.truncation))
    result = operators.vertical_limit(d, chi, table)
    _atomic_write_json(args.out, series_to_json(result))
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _random_polynomial(rng: np.random.Generator, support: int) -> DirichletSeries:
    coeffs = rng.normal(size=support) + 1j * rng.normal(size=support)
    return DirichletSeries(coeffs)


def _exp_inequality_suite(args, outdir: str) -> dict:
    count, support = args.count, args.support
    if count < 2:
        raise ValueError(f"--count must be >= 2 (the products pair polynomials), got {count}")
    if support < 1:
        raise ValueError(f"--support must be >= 1, got {support}")
    if support > SUITE_SUPPORT_LIMIT:
        raise BeyondDeskScale(
            f"--support {support} forms {support}^2 products per seminorm; "
            f"beyond desk scale (limit {SUITE_SUPPORT_LIMIT})"
        )
    if count * support > SUITE_COEFF_LIMIT:
        raise BeyondDeskScale(
            f"--count {count} x --support {support} coefficients are drawn up front; "
            f"beyond desk scale (limit {SUITE_COEFF_LIMIT})"
        )
    rng = np.random.default_rng(args.seed)
    out_trunc = support * support
    chain_rows, algebra_rows, power_rows = [], [], []
    polys = [_random_polynomial(rng, support) for _ in range(count)]
    ks, norm_ks = (1, 2, 3, 4), (1, 2, 3, 4, 6, 8)
    norms = []  # norms[i][k] = ||polys[i]||_{2,k}, the bits of seminorm_2(polys[i], k)
    for i, d in enumerate(polys):
        norms.append({k: v.value for k, v in zip(norm_ks, seminorm_even(d, 1, norm_ks, support))})
        for k, mid in zip(ks, seminorm_even(d, 2, ks, out_trunc)):
            lhs = norms[i][k]
            c = seminorm_comparison_constant(k, 2, 4)
            rhs = c * norms[i][2 * k]
            ok = lhs <= mid.value * (1 + 1e-9) and mid.value <= rhs * (1 + 1e-9)
            chain_rows.append(
                f"{i},{k},{lhs!r},{mid.value!r},{c!r},{rhs!r},{str(ok).lower()}"
            )
    for i in range(0, count - 1, 2):
        p_s, q_s = with_truncation(polys[i], out_trunc), with_truncation(polys[i + 1], out_trunc)
        prod = multiply(p_s, q_s)
        for m in (1, 2):
            lhs = seminorm_2(prod, m)
            rhs = seminorm_comparison_constant(m, 1, 2) * norms[i][2 * m] * norms[i + 1][2 * m]
            ok = lhs <= rhs * (1 + 1e-9)
            algebra_rows.append(f"{i},{m},{lhs!r},{rhs!r},{str(ok).lower()}")
    small_support = 30
    for i in range(min(count, 50)):
        base = _random_polynomial(rng, small_support)
        checks = superposition.power_norm_chain_check(base, 1, (2, 3, 4), small_support**4)
        for k, chk in zip((2, 3, 4), checks):
            ok = chk.lhs <= chk.rhs * (1 + 1e-9)
            power_rows.append(f"{i},{k},{chk.lhs!r},{chk.rhs!r},{chk.slack!r},{str(ok).lower()}")

    files = {
        "seminorm_chain.csv": _csv_text("poly,k,lhs_2k,mid_4k,constant,rhs,ok", chain_rows),
        "algebra.csv": _csv_text("pair,m,lhs,rhs,ok", algebra_rows),
        "power_chain.csv": _csv_text("poly,k,lhs,rhs,slack,ok", power_rows),
    }
    for name, text in files.items():
        _atomic_write_text(os.path.join(outdir, name), text)
    params = {"seed": args.seed, "count": count, "support": support, "out_truncation": out_trunc}
    return _manifest("inequality-suite", params, list(files))


def _exp_bohr_parseval(args, outdir: str) -> dict:
    # exponents are drawn from {0..3}^n_vars: at most 4^n_vars distinct terms,
    # and terms <= 4^n_vars  <=>  (terms - 1).bit_length() <= 2 n_vars
    if args.n_vars < 1:
        raise ValueError(f"--n-vars must be >= 1, got {args.n_vars}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.terms < 1 or (args.terms - 1).bit_length() > 2 * args.n_vars:
        raise ValueError(
            f"--terms must lie in 1..4^{args.n_vars} (distinct exponents), got {args.terms}"
        )
    for size, flags, limit in (
        (args.n_vars, f"--n-vars {args.n_vars}", BOHR_VARS_LIMIT),
        (args.samples * args.trials, f"--samples {args.samples} x --trials {args.trials}",
         BOHR_SAMPLE_LIMIT),
        (args.trials * args.terms, f"--trials {args.trials} x --terms {args.terms}",
         BOHR_TERMS_LIMIT),
        (args.samples * args.trials * args.terms,
         f"--samples {args.samples} x --trials {args.trials} x --terms {args.terms}",
         BOHR_MONOMIAL_LIMIT),
    ):
        if size > limit:
            raise BeyondDeskScale(f"{flags} is beyond desk scale (limit {limit})")
    rng = np.random.default_rng(args.seed)
    table = bohr.sieve_for_n_primes(args.n_vars)
    rows = []
    for trial in range(args.trials):
        terms = {}
        while len(terms) < args.terms:
            alpha = MultiIndex(tuple(int(e) for e in rng.integers(0, 4, size=args.n_vars)))
            c = complex(rng.normal(), rng.normal())
            terms[alpha] = terms.get(alpha, 0j) + c
        poly = bohr.MultiPoly(args.n_vars, terms)
        est = bohr.rho_estimate(
            poly, args.k, args.p, args.samples, seed=args.seed + trial, table=table
        )
        tail = repr(bohr.parseval_rho2(poly, args.k, table)) if args.p == 2 else ""
        rows.append(f"{args.k},{args.p},{args.samples},{est.value!r},{est.std_error!r},{tail}")
    text = _csv_text("k,p,samples,estimate,std_err,exact_value_if_p2", rows)
    _atomic_write_text(os.path.join(outdir, "estimates.csv"), text)
    params = {
        "seed": args.seed,
        "samples": args.samples,
        "trials": args.trials,
        "n_vars": args.n_vars,
        "terms": args.terms,
        "k": args.k,
        "p": args.p,
        "prng": bohr.MC_PRNG_NAME,
    }
    return _manifest("bohr-parseval", params, ["estimates.csv"])


def _exp_nonextension(args, outdir: str) -> dict:
    n_max = args.nmax
    # p_n < n (ln n + ln ln n) for n >= 6
    limit = max(100, int(n_max * (math.log(max(n_max, 6)) + math.log(math.log(max(n_max, 6)))) * 1.05))
    table = sieve(limit)
    result = bohr.nonextension_partial_sums(n_max, table)
    rows = [
        f"{int(m)},{float(s)!r},{float(lb)!r}"
        for m, s, lb in zip(result.checkpoints, result.partial_sums, result.lower_bound)
    ]
    _atomic_write_text(
        os.path.join(outdir, "partial_sums.csv"), _csv_text("M,partial_sum,lower_bound", rows)
    )
    params = {"nmax": n_max}
    return _manifest(
        "nonextension",
        params,
        ["partial_sums.csv"],
        sieve_limit=table.limit,
        constant=result.constant,
        prime_bound_ok=result.prime_bound_ok,
    )


def _exp_ejemplo_growth(args, outdir: str) -> dict:
    kmax = args.kmax if args.kmax is not None else 6
    delta = args.delta if args.delta is not None else 0.3
    truncation = args.truncation if args.truncation is not None else 100000
    if truncation > EJEMPLO_TRUNCATION_LIMIT:
        raise BeyondDeskScale(
            f"--truncation {truncation} is beyond desk scale (limit {EJEMPLO_TRUNCATION_LIMIT})"
        )
    if kmax * truncation > EJEMPLO_WORK_LIMIT:
        raise BeyondDeskScale(
            f"--kmax {kmax} x --truncation {truncation} forms one product per k; "
            f"beyond desk scale (limit {EJEMPLO_WORK_LIMIT})"
        )
    _check_k_range("--witness-", args.witness_kmin, args.witness_kmax, 2)
    d = translate(DirichletSeries.ones(truncation), 0.5)
    report = superposition.composition_criterion(d, args.m, kmax)
    growth_rows = [
        (int(k), float(r), None) for k, r in zip(report.ks, report.roots)
    ]
    witness = superposition.zeta_growth_witness(
        args.witness_m, delta, range(args.witness_kmin, args.witness_kmax + 1)
    )
    witness_rows = []
    for i, k in enumerate(witness.ks):
        target = None if witness.targets is None else float(witness.targets[i])
        witness_rows.append((int(k), float(witness.values[i]), target))

    superposition.write_growth_table(growth_rows, os.path.join(outdir, "growth.csv"))
    superposition.write_growth_table(witness_rows, os.path.join(outdir, "witness.csv"))

    params = {
        "truncation": truncation,
        "m": args.m,
        "kmax": kmax,
        "witness_m": args.witness_m,
        "witness_delta": delta,
        "witness_k_range": [args.witness_kmin, args.witness_kmax],
    }
    return _manifest(
        "ejemplo-growth",
        params,
        ["growth.csv", "witness.csv"],
        sieve_limit=witness.sieve_limit,
        omega=witness.omega,
    )


def _exp_noncomposition(args, outdir: str) -> dict:
    kmax = args.kmax if args.kmax is not None else 200
    delta = args.delta if args.delta is not None else 0.05
    _check_k_range("--", args.kmin, kmax, 1)
    main = superposition.noncomposition_exponent(
        args.cc, args.cprime, args.epsilon, delta, range(args.kmin, kmax + 1)
    )
    ladder = sorted(set(list(range(args.kmin, kmax + 1, 10)) + [kmax]))
    extended = sorted(set(ladder + [200, 300, 400, 500, 750, 1000]))
    factorial = superposition.noncomposition_exponent(
        args.cc,
        args.cprime,
        args.epsilon,
        delta,
        extended,
        penalty_log=lambda k: math.lgamma(k + 1),
        penalty_tag="1/k!",
    )
    superposition.write_growth_table(
        [(int(k), float(v), 0.0) for k, v in zip(main.ks, main.values)],
        os.path.join(outdir, "exponent.csv"),
    )
    superposition.write_growth_table(
        [(int(k), float(v), 0.0) for k, v in zip(factorial.ks, factorial.values)],
        os.path.join(outdir, "factorial.csv"),
    )
    params = {
        "C": args.cc,
        "C_prime": args.cprime,
        "epsilon": args.epsilon,
        "delta": delta,
        "k_range": [args.kmin, kmax],
        "factorial_ladder_max": int(max(extended)),
    }
    return _manifest(
        "noncomposition",
        params,
        ["exponent.csv", "factorial.csv"],
        omega=main.omega,
        sieve_limit=factorial.sieve_limit,
    )


def _exp_superpose_exp(args, outdir: str) -> dict:
    kmax = args.kmax if args.kmax is not None else 8
    truncation = args.truncation if args.truncation is not None else 2000
    m_checks = _parse_int_list(args.m_list)
    if kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {kmax}")
    _check_superpose_work(len(m_checks), kmax, truncation)
    d = translate(DirichletSeries.ones(truncation), 1.0)
    ec = superposition.EntireCoeffs.exp_neg_k_to_k()
    outputs = []
    series_doc = None
    for m in m_checks:
        result, diags = superposition.superpose_entire(d, ec, kmax, m)
        if series_doc is None:
            series_doc = series_to_json(result)
        name = f"tails_m{m}.csv"
        superposition.write_growth_table(_tail_rows(diags), os.path.join(outdir, name))
        outputs.append(name)
    _atomic_write_json(os.path.join(outdir, "superposed.json"), series_doc)
    outputs.append("superposed.json")
    params = {
        "truncation": truncation,
        "kmax": kmax,
        "m_checks": m_checks,
        "coefficients": ec.tag,
    }
    return _manifest("superpose-exp", params, outputs)


def _cmd_experiment(args) -> int:
    """Run one experiment in a temporary directory, then move its files into --out-dir.

    The temporary directory sits in the nearest existing directory on the
    path to --out-dir (--out-dir itself when it exists), and --out-dir is
    created only once the experiment has succeeded.  A run that fails
    deletes the temporary directory: it leaves no file and creates no
    directory.  The manifest is moved last.
    """
    outdir = os.path.abspath(args.out_dir)
    where = outdir
    while not os.path.isdir(where):
        where = os.path.dirname(where)
    runners = {
        "inequality-suite": _exp_inequality_suite,
        "bohr-parseval": _exp_bohr_parseval,
        "nonextension": _exp_nonextension,
        "ejemplo-growth": _exp_ejemplo_growth,
        "noncomposition": _exp_noncomposition,
        "superpose-exp": _exp_superpose_exp,
    }
    staging = tempfile.mkdtemp(prefix=".hplus-experiment-", dir=where)
    try:
        manifest = runners[args.name](args, staging)
        _atomic_write_json(os.path.join(staging, "manifest.json"), manifest)
        os.makedirs(outdir, exist_ok=True)
        for name in sorted(os.listdir(staging), key=lambda n: n == "manifest.json"):
            os.replace(os.path.join(staging, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hplus",
        description="Computational toolkit for translated Dirichlet series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", help="seminorm table of a series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", default="1..8", help="k values: 'a..b', 'a,b,c', or 'a'")
    p.add_argument("--p", type=int, default=2, help="even norm index (2, 4, ...)")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("compose", help="apply a composition symbol")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None, help="n cutoff when c0 = 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("superpose", help="apply a superposition operator")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--coeffs", default=None, help="polynomial coefficients 'b0;b1;...'")
    p.add_argument("--entire", default=None, choices=("exp-kk", "exp-kC", "inv-factorial"))
    p.add_argument("--cc", type=_finite_float, default=1.2, help="C for --entire exp-kC")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--m", type=int, default=1, help="seminorm index for diagnostics")
    p.add_argument("--out", required=True)
    p.add_argument("--diagnostics", default=None)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("spectrum", help="apply the resolvent of differentiation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lam", required=True, help="shift lambda as 're' or 're,im'")
    p.add_argument("--tol", type=_finite_float, default=operators.SPECTRUM_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("vertical-limit", help="twist coefficients by a character")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--character", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_vertical_limit)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENTS)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--support", type=int, default=100)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--n-vars", type=int, default=3)
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--p", type=_finite_float, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--m-list", default="1,2,4")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--kmin", type=int, default=40)
    p.add_argument("--witness-m", type=int, default=1)
    p.add_argument("--witness-kmin", type=int, default=20)
    p.add_argument("--witness-kmax", type=int, default=60)
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--epsilon", type=_finite_float, default=0.05)
    p.add_argument("--cc", type=_finite_float, default=1.2, help="exponent C")
    p.add_argument("--cprime", type=_finite_float, default=1.6, help="exponent C'")
    p.add_argument("--nmax", type=int, default=1000000)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HplusError, OverflowError) as exc:  # OverflowError: past the float range
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
