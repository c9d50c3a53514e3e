"""Command-line front end: series I/O, norm tables, operators, experiments.

Subcommands: norms, compose, superpose poly|entire, spectrum, vertical-limit,
experiment <name>.  One JSON format is shared with the library modules.
Outputs are deterministic for a fixed (config, seed) pair.  Every file goes
through one writer, ``series._atomic_write_text`` (temp file, then rename),
series files as ``series._series_json_text`` slices of 2^14 rows, and a
failed write leaves no temp file behind; an experiment runs in a
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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, _kernels, bohr, operators, superposition
from .errors import BeyondDeskScale, CoefficientOverflow, HplusError
from .numtheory import sieve
from .series import (
    DirichletSeries,
    _atomic_write_json,
    _atomic_write_text,
    _csv_text,
    _series_json_text,
    load_series,
    multiply,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    series_to_json,  # noqa: F401  (perfbench/tracing.py times cli.series_to_json)
    translate,
    with_truncation,
)


def _parse_int_list(flag: str, text: str) -> list[int] | range:
    """Accept '4', '1,2,3', or '1..8' as flag's value; a list with an empty
    or non-integer item, or that selects nothing, is an error naming flag.

    A range 'a..b' is returned unbuilt, so that its length can be bounded
    before it is built.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = map(int, text.split("..", 1))
            values = range(lo, hi + 1)
        else:
            values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be integers 'a', 'a,b,c' or 'a..b', got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} {text!r} selects no values")
    return values


def _count(flag: str, text: str) -> int:
    values = _parse_int_list(flag, text)  # len() of a range fails past 2^63 values
    return values.stop - values.start if isinstance(values, range) else len(values)


def _out_truncation(args, truncation: int) -> int:
    """--truncation when given, else the input's truncation."""
    return truncation if args.truncation is None else args.truncation


class Bound(NamedTuple):
    """A run of command, as typed ('norms', 'superpose entire', 'experiment
    nonextension'), whose size(args, input truncation or None) passes limit
    exits 3; flags names the size by the flags it reads."""

    name: str
    command: str
    flags: str
    size: Callable[[argparse.Namespace, int | None], int]
    limit: int


# Every exit-3 size limit of the CLI, in the order _check_bounds checks them.
# --truncation of norms and compose is the output truncation, the input's
# when the flag is omitted.
BOUNDS = (
    # The longest integer list (norms --k, superpose-exp --m-list): each value
    # is one seminorm of the input, or one majorant and one weighing of each
    # tail (about 0.4 ms at superpose-exp's defaults; its products are formed
    # once for every m).
    Bound("norms-k", "norms", "len(--k)", lambda a, t: _count("--k", a.k), 1000),
    # norms' largest --p, 64: a call does p/2 - 1 products, and a small product
    # costs about 30 us of call overhead whatever its size.
    Bound("norms-p", "norms", "--p/2", lambda a, t: a.p // 2, 32),
    # norms' largest output truncation: for p >= 4 a call raises the input to
    # the p/2-th power at it once, and on a dense 1000-term input --p 26 --k 1
    # at 4*10^6 (12 products) takes about 3.9 s and peaks near 181 MB (the
    # truncation of inequality-suite's products at its largest --support).
    Bound("norms-truncation", "norms", "--truncation", _out_truncation, 4 * 10**6),
    # norms' largest (p/2 - 1) products x output truncation, and len(ks) x the
    # slots each k weighs (the output truncation; the input's for p = 2).  On a
    # dense 1000-term input (numpy backend, 2 cores) --p 26 --k 1 at 4*10^6
    # takes about 3.9 s, --p 6 --k 1..87 at 4*10^6 2.8 s and 184 MB, and
    # --p 26 --k 1..87 at 4*10^6, both limits at once, 6.2 s and 184 MB.
    Bound("norms-work", "norms", "(--p/2 - 1) x --truncation",
          lambda a, t: (a.p // 2 - 1) * _out_truncation(a, t), 5 * 10**7),
    Bound("norms-weigh", "norms", "len(--k) x --truncation (--in's at --p 2)",
          lambda a, t: _count("--k", a.k) * (t if a.p == 2 else _out_truncation(a, t)), 35 * 10**7),
    # compose's largest output truncation: at 10^6 a dense input takes about
    # 5.6 s end to end, most of it JSON, and peaks near 245 MB.
    Bound("compose-truncation", "compose", "--truncation", _out_truncation, 10**6),
    # superpose's largest powers (one per --coeffs entry, or --kmax + 1) x input
    # truncation, and superpose-exp's largest len(--m-list) x (--kmax + 1) x
    # --truncation: a run forms each power once, weighs each tail once per m, and
    # keeps at most K + 1 arrays, a_k D^k for k = 0..K, 16 B a slot.
    # A dense 10^6-term input at --kmax 7 takes 6.5-11 s end to end and peaks
    # near 355 MB, most of it the JSON of the input and the output; 8 --coeffs
    # on it take 10 s and peak near 305 MB.  One argument holds at most 128 KiB,
    # about 65 000 coefficients: 60 000 on a 1-term input take 5 s.
    Bound("superpose-coeffs", "superpose poly", "len(--coeffs) x --in truncation",
          lambda a, t: len(a.coeffs.split(";")) * t, 8 * 10**6),
    Bound("superpose-powers", "superpose entire", "(--kmax + 1) x --in truncation",
          lambda a, t: (a.kmax + 1) * t, 8 * 10**6),
    # superpose entire's largest --kmax: the tail majorant sums the whole tail
    # at each k, K^2 / 2 terms in Python.  At 10^4 a 1-term input takes 6-8 s
    # end to end, and the largest input superpose-powers admits there, 799
    # dense terms, 7.7 s (inv-factorial) and 8.9 s with 194 MB (exp-kC, C 0.5).
    Bound("superpose-kmax", "superpose entire", "--kmax", lambda a, t: a.kmax, 10**4),
    # inequality-suite's largest --support: its even seminorms form support^2
    # index products each, and its products run at truncation support^2; at
    # 2 000 a --count 2 run peaks near 260 MB of RSS.
    Bound("suite-support", "experiment inequality-suite", "--support",
          lambda a, t: a.support, 2000),
    # inequality-suite's largest --count x --support: all polynomials are drawn
    # before the first row, 16 B per coefficient (16 MB at this limit).
    Bound("suite-coeffs", "experiment inequality-suite", "--count x --support",
          lambda a, t: a.count * a.support, 10**6),
    # bohr-parseval's largest --n-vars: it sieves for that many primes, and each
    # sample takes one exponential and one row of powers per variable (10^7
    # samples of a 1-term polynomial in 8 variables take 5-7 s).
    Bound("bohr-vars", "experiment bohr-parseval", "--n-vars", lambda a, t: a.n_vars, 8),
    # bohr-parseval's largest --samples x --trials: about 0.6 s per 10^6 samples
    # at its defaults (3 variables, 20 terms).
    Bound("bohr-samples", "experiment bohr-parseval", "--samples x --trials",
          lambda a, t: a.samples * a.trials, 10**7),
    # bohr-parseval's largest --trials x --terms: each term is drawn in a
    # Python-level loop, each trial makes one estimate, and the Monte Carlo
    # multiplies (terms x 1024-sample) arrays, about 32 KB a term.  One trial of
    # 4 096 terms in 8 variables at 12 207 samples takes 3.8 s and peaks near
    # 170 MB; 4 096 one-term trials take 1.3 s.
    Bound("bohr-terms", "experiment bohr-parseval", "--trials x --terms",
          lambda a, t: a.trials * a.terms, 4096),
    # bohr-parseval's largest --samples x --trials x --terms, the monomials its
    # Monte Carlo evaluates (2 * 10^7 at the defaults): 10^7 samples of 5 terms
    # in 8 variables, the slowest in-bound call, take about 8.6 s.
    Bound("bohr-monomials", "experiment bohr-parseval", "--samples x --trials x --terms",
          lambda a, t: a.samples * a.trials * a.terms, 5 * 10**7),
    # nonextension's largest --nmax: its sieve reaches past the nmax-th prime,
    # and the sieve and its primes take about 18 MB of RSS per 10^6 (the sums
    # go in blocks of 2^16).  At 5*10^6 a run's process takes 1.1-1.3 s and
    # peaks near 118 MB; at the default 10^6, 0.23-0.34 s and 47 MB.
    Bound("nonextension-nmax", "experiment nonextension", "--nmax", lambda a, t: a.nmax, 5 * 10**6),
    # ejemplo-growth's largest --truncation: the series takes 16 B a slot, and
    # a run at 10^6 peaks near 84 MB of RSS (each product holds its output and
    # one 256 KiB buffer).
    Bound("ejemplo-truncation", "experiment ejemplo-growth", "--truncation",
          lambda a, t: a.truncation, 10**6),
    # ejemplo-growth's largest --kmax x --truncation: it forms one dense product
    # per k, about 5 ms each at truncation 10^5 and 0.08 s at 10^6.
    Bound("ejemplo-work", "experiment ejemplo-growth", "--kmax x --truncation",
          lambda a, t: a.kmax * a.truncation, 2 * 10**7),
    # The largest k of ejemplo-growth's witness and of noncomposition: they
    # sieve to k^(1 + delta) and k^C', below 10^8 for delta < 1 and C' < 2,
    # which takes about 2 s and 155 MB.
    Bound("ejemplo-witness-k", "experiment ejemplo-growth", "--witness-kmax",
          lambda a, t: a.witness_kmax, 10**4),
    Bound("noncomposition-k", "experiment noncomposition", "--kmax", lambda a, t: a.kmax, 10**4),
    # as norms-k and superpose-powers
    Bound("superpose-exp-m-list", "experiment superpose-exp", "len(--m-list)",
          lambda a, t: _count("--m-list", a.m_list), 1000),
    Bound("superpose-exp-powers", "experiment superpose-exp",
          "len(--m-list) x (--kmax + 1) x --truncation",
          lambda a, t: _count("--m-list", a.m_list) * (a.kmax + 1) * a.truncation, 8 * 10**6),
)


def _check_bounds(args, truncation: int | None = None) -> None:
    """Refuse the command's first row of BOUNDS whose size passes its limit.

    Each command calls it after its usage checks and before any work.
    """
    for row in BOUNDS:
        if row.command == args.full_command:
            size = row.size(args, truncation)
            if size > row.limit:
                raise BeyondDeskScale(
                    f"{row.flags} = {size} is beyond desk scale (limit {row.limit})"
                )


def _coeffs_in_float_range(ec: superposition.EntireCoeffs, kmax: int) -> None:
    """Refuse a --kmax that reaches a k whose a_k or log|a_k| leaves the float
    range (k^k does at k = 144), naming that first k."""
    for k in range(kmax + 1):
        try:
            ec.coeff(k)
            if ec.log_abs is not None:
                ec.log_abs(k)
        except OverflowError:
            raise CoefficientOverflow(
                f"--kmax = {kmax} reaches k = {k}, the first k where computing "
                f"{ec.tag} leaves the float range"
            ) from None


def _at_least(flag: str, value: float, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")


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


# ---------------------------------------------------------------------------
# plain subcommands
# ---------------------------------------------------------------------------

def _cmd_norms(args) -> int:
    ks = _parse_int_list("--k", args.k)
    p = args.p
    if p < 2 or p % 2 != 0:
        raise ValueError(f"--p must be an even integer >= 2 for exact norms, got {p}")
    d = load_series(args.infile)
    out_trunc = _out_truncation(args, d.truncation)
    _at_least("--truncation", out_trunc, 1)
    _check_bounds(args, d.truncation)
    ks = list(ks)
    vals = seminorm_even(d, p // 2, ks, out_trunc)
    rows = [f"{k},{p},{v.value!r},{str(v.exact).lower()}" for k, v in zip(ks, vals)]
    text = _csv_text("k,p,value,exact", rows)
    if args.out:
        _atomic_write_text(args.out, [text])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compose(args) -> int:
    d = load_series(args.infile)
    with open(args.symbol) as f:
        phi = operators.symbol_from_json(json.load(f))
    out_trunc = _out_truncation(args, d.truncation)
    _at_least("--truncation", out_trunc, 1)
    _check_bounds(args, d.truncation)
    result = operators.compose_general(d, phi, out_trunc, n_cutoff=args.cutoff)
    _atomic_write_text(args.out, _series_json_text(result.series, exact=result.exact))
    return 0


def _tail_rows(diagnostics) -> list[tuple]:
    """Growth-table rows (k_from, tail seminorm, majorant) of tail diagnostics.

    The majorant is left empty where it is missing or its log is 700 or
    more, past which exp overflows.
    """
    return [(diag.k_from, diag.tail_seminorm,
             None if diag.log_majorant is None or diag.log_majorant >= 700
             else math.exp(diag.log_majorant)) for diag in diagnostics]


def _cmd_superpose_poly(args) -> int:
    d = load_series(args.infile)
    b = [_parse_complex(tok) for tok in args.coeffs.split(";")]
    _check_bounds(args, d.truncation)
    _atomic_write_text(args.out, _series_json_text(superposition.superpose_poly(d, b)))
    return 0


def _cmd_superpose_entire(args) -> int:
    if args.cc is not None and args.function != "exp-kC":
        raise ValueError(f"--cc is C of --function exp-kC; --function {args.function} takes none")
    d = load_series(args.infile)
    if args.function == "exp-kk":
        ec = superposition.EntireCoeffs.exp_neg_k_to_k()
    elif args.function == "exp-kC":
        cc = 1.2 if args.cc is None else args.cc
        _at_least("--cc", cc, 0)  # a_0 = exp(-0^C) needs C >= 0
        ec = superposition.EntireCoeffs.exp_neg_k_to_c(cc)
    else:
        ec = superposition.EntireCoeffs.inverse_factorial()
    _check_bounds(args, d.truncation)
    _coeffs_in_float_range(ec, args.kmax)
    result, diagnostics = superposition.superpose_entire(d, ec, args.kmax, args.m)
    _atomic_write_text(args.out, _series_json_text(result))
    if args.diagnostics:
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
    _atomic_write_text(args.out, _series_json_text(result))
    return 0


def _cmd_vertical_limit(args) -> int:
    d = load_series(args.infile)
    with open(args.character) as f:
        chi = operators.character_from_json(json.load(f))
    table = sieve(max(2, d.truncation))
    result = operators.vertical_limit(d, chi, table)
    _atomic_write_text(args.out, _series_json_text(result))
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
    _at_least("--support", support, 1)
    _check_bounds(args)
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

    for name, header, rows in (
        ("seminorm_chain.csv", "poly,k,lhs_2k,mid_4k,constant,rhs,ok", chain_rows),
        ("algebra.csv", "pair,m,lhs,rhs,ok", algebra_rows),
        ("power_chain.csv", "poly,k,lhs,rhs,slack,ok", power_rows),
    ):
        _atomic_write_text(os.path.join(outdir, name), [_csv_text(header, rows)])
    return {"parameters": {
        "seed": args.seed, "count": count, "support": support, "out_truncation": out_trunc}}


def _exp_bohr_parseval(args, outdir: str) -> dict:
    # exponents are drawn from {0..3}^n_vars: at most 4^n_vars distinct terms,
    # and terms <= 4^n_vars  <=>  (terms - 1).bit_length() <= 2 n_vars
    _at_least("--n-vars", args.n_vars, 1)
    _at_least("--samples", args.samples, 1)
    _at_least("--trials", args.trials, 1)
    if args.terms < 1 or (args.terms - 1).bit_length() > 2 * args.n_vars:
        raise ValueError(
            f"--terms must lie in 1..4^{args.n_vars} (distinct exponents), got {args.terms}"
        )
    _check_bounds(args)
    rng = np.random.default_rng(args.seed)
    table = bohr.sieve_for_n_primes(args.n_vars)
    rows = []
    for trial in range(args.trials):
        terms = {}  # exponent row -> coefficient; a repeated draw adds to its row
        while len(terms) < args.terms:
            alpha = tuple(int(e) for e in rng.integers(0, 4, size=args.n_vars))
            c = complex(rng.normal(), rng.normal())
            terms[alpha] = terms.get(alpha, 0j) + c
        poly = bohr.MultiPoly(args.n_vars, list(terms), list(terms.values()))
        est = bohr.rho_estimate(
            poly, args.k, args.p, args.samples, seed=args.seed + trial, table=table
        )
        tail = repr(bohr.parseval_rho2(poly, args.k, table)) if args.p == 2 else ""
        rows.append(f"{args.k},{args.p},{args.samples},{est.value!r},{est.std_error!r},{tail}")
    text = _csv_text("k,p,samples,estimate,std_err,exact_value_if_p2", rows)
    _atomic_write_text(os.path.join(outdir, "estimates.csv"), [text])
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
    return {"parameters": params}


def _exp_nonextension(args, outdir: str) -> dict:
    _check_bounds(args)
    n_max = args.nmax
    table = bohr.sieve_for_n_primes(n_max)
    result = bohr.nonextension_partial_sums(n_max, table)
    rows = [
        f"{int(m)},{float(s)!r},{float(lb)!r}"
        for m, s, lb in zip(result.checkpoints, result.partial_sums, result.lower_bound)
    ]
    _atomic_write_text(
        os.path.join(outdir, "partial_sums.csv"), [_csv_text("M,partial_sum,lower_bound", rows)]
    )
    return {
        "parameters": {"nmax": n_max},
        "sieve_limit": table.limit,
        "constant": result.constant,
        "prime_bound_ok": result.prime_bound_ok,
    }


def _exp_ejemplo_growth(args, outdir: str) -> dict:
    kmax, delta, truncation = args.kmax, args.delta, args.truncation
    _at_least("--truncation", truncation, 1)
    _at_least("--kmax", kmax, 2)
    _at_least("--witness-kmin", args.witness_kmin, 2)
    _check_bounds(args)
    d = translate(DirichletSeries.ones(truncation), 0.5)
    report = superposition.composition_criterion(d, args.m, kmax)
    growth_rows = [
        (int(k), float(r), None) for k, r in zip(report.ks, report.roots)
    ]
    witness = superposition.zeta_growth_witness(
        args.witness_m, delta, range(args.witness_kmin, args.witness_kmax + 1)
    )
    targets = [None] * len(witness.ks) if witness.targets is None else map(float, witness.targets)
    witness_rows = [(int(k), float(v), t) for k, v, t in zip(witness.ks, witness.values, targets)]

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
    return {"parameters": params, "sieve_limit": witness.sieve_limit, "omega": witness.omega}


def _exp_noncomposition(args, outdir: str) -> dict:
    kmax, delta = args.kmax, args.delta
    _at_least("--kmin", args.kmin, 1)
    _check_bounds(args)
    main = superposition.noncomposition_exponent(
        args.cc, args.cprime, args.epsilon, delta, range(args.kmin, kmax + 1)
    )
    extended = sorted({*range(args.kmin, kmax + 1, 10), kmax, 200, 300, 400, 500, 750, 1000})
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
    return {"parameters": params, "omega": main.omega, "sieve_limit": factorial.sieve_limit}


def _exp_superpose_exp(args, outdir: str) -> dict:
    kmax, truncation = args.kmax, args.truncation
    m_checks = _parse_int_list("--m-list", args.m_list)
    _at_least("--kmax", kmax, 1)
    _at_least("--truncation", truncation, 1)
    _check_bounds(args)
    m_checks = list(m_checks)
    d = translate(DirichletSeries.ones(truncation), 1.0)
    ec = superposition.EntireCoeffs.exp_neg_k_to_k()
    _coeffs_in_float_range(ec, kmax)
    result, diags_per_m = superposition.superpose_entire(d, ec, kmax, m_checks)
    for m, diags in dict(zip(m_checks, diags_per_m)).items():  # one file per distinct m
        superposition.write_growth_table(_tail_rows(diags), os.path.join(outdir, f"tails_m{m}.csv"))
    _atomic_write_text(os.path.join(outdir, "superposed.json"), _series_json_text(result))
    params = {
        "truncation": truncation,
        "kmax": kmax,
        "m_checks": m_checks,
        "coefficients": ec.tag,
    }
    return {"parameters": params}


# Each experiment's runner and the flags it reads, as (flag, type, default);
# its sub-parser takes --out-dir and these alone.  A runner writes its files
# into the directory it is given and returns its manifest's "parameters" and
# any further manifest fields.  bohr-parseval's --p defaults to the int 2,
# which its manifest and estimates.csv write as 2.
EXPERIMENTS = {
    "inequality-suite": (_exp_inequality_suite, (
        ("--seed", int, 1234), ("--count", int, 100), ("--support", int, 100))),
    "bohr-parseval": (_exp_bohr_parseval, (
        ("--seed", int, 1234), ("--samples", int, 100000), ("--trials", int, 10),
        ("--n-vars", int, 3), ("--terms", int, 20), ("--k", int, 1),
        ("--p", _finite_float, 2))),
    "nonextension": (_exp_nonextension, (("--nmax", int, 1000000),)),
    "ejemplo-growth": (_exp_ejemplo_growth, (
        ("--truncation", int, 100000), ("--m", int, 4), ("--kmax", int, 6),
        ("--delta", _finite_float, 0.3), ("--witness-m", int, 1),
        ("--witness-kmin", int, 20), ("--witness-kmax", int, 60))),
    "noncomposition": (_exp_noncomposition, (
        ("--kmin", int, 40), ("--kmax", int, 200), ("--delta", _finite_float, 0.05),
        ("--epsilon", _finite_float, 0.05), ("--cc", _finite_float, 1.2),
        ("--cprime", _finite_float, 1.6))),
    "superpose-exp": (_exp_superpose_exp, (
        ("--truncation", int, 2000), ("--kmax", int, 8), ("--m-list", str, "1,2,4"))),
}


def _cmd_experiment(args) -> int:
    """Run one experiment in a temporary directory, then move its files into --out-dir.

    The temporary directory sits in the nearest existing directory on the
    path to --out-dir (--out-dir itself when it exists), and --out-dir is
    created only once the experiment has succeeded.  A run that fails
    deletes the temporary directory: it leaves no file and creates no
    directory.  The manifest lists every file in the temporary directory
    and is moved last.
    """
    outdir = os.path.abspath(args.out_dir)
    where = outdir
    while not os.path.isdir(where):
        where = os.path.dirname(where)
    staging = tempfile.mkdtemp(prefix=".hplus-experiment-", dir=where)
    try:
        fields = EXPERIMENTS[args.name][0](args, staging)
        manifest = {
            "experiment": args.name,
            "version": __version__,
            "backend": _kernels.BACKEND,
            "outputs": sorted(os.listdir(staging)),
            **fields,
        }
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

def _parser(**kwargs) -> argparse.ArgumentParser:
    """A parser that takes no abbreviation of its flags."""
    return argparse.ArgumentParser(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _parser(
        prog="hplus",
        description="Computational toolkit for translated Dirichlet series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)
    # --in and --out of the commands that read one series and write one file
    inout = _parser(add_help=False)
    inout.add_argument("--in", dest="infile", required=True)
    inout.add_argument("--out", required=True)

    p = sub.add_parser("norms", help="seminorm table of a series")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", default="1..8", help="k values: 'a..b', 'a,b,c', or 'a'")
    p.add_argument("--p", type=int, default=2, help="even norm index (2, 4, ...)")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_norms, full_command="norms")

    p = sub.add_parser("compose", parents=[inout], help="apply a composition symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--cutoff", type=int, default=None, help="n cutoff when c0 = 0")
    p.set_defaults(func=_cmd_compose, full_command="compose")

    p = sub.add_parser("superpose", help="apply a superposition operator")
    modes = p.add_subparsers(dest="mode", required=True, parser_class=_parser)
    p = modes.add_parser("poly", parents=[inout], help="the operator of a polynomial")
    p.add_argument("--coeffs", required=True, help="polynomial coefficients 'b0;b1;...'")
    p.set_defaults(func=_cmd_superpose_poly, full_command="superpose poly")
    p = modes.add_parser("entire", parents=[inout], help="the operator of an entire function")
    p.add_argument("--function", required=True, choices=("exp-kk", "exp-kC", "inv-factorial"))
    p.add_argument("--cc", type=_finite_float, default=None, help="C of exp-kC (default 1.2)")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--m", type=int, default=1, help="seminorm index for diagnostics")
    p.add_argument("--diagnostics", default=None, help="tail table")
    p.set_defaults(func=_cmd_superpose_entire, full_command="superpose entire")

    p = sub.add_parser("spectrum", parents=[inout], help="apply the resolvent of differentiation")
    p.add_argument("--lam", required=True, help="shift lambda as 're' or 're,im'")
    p.add_argument("--tol", type=_finite_float, default=operators.SPECTRUM_TOL)
    p.set_defaults(func=_cmd_spectrum, full_command="spectrum")

    p = sub.add_parser("vertical-limit", parents=[inout], help="twist coefficients by a character")
    p.add_argument("--character", required=True)
    p.set_defaults(func=_cmd_vertical_limit, full_command="vertical-limit")

    p = sub.add_parser("experiment", help="run a named experiment")
    names = p.add_subparsers(dest="name", required=True, parser_class=_parser)
    for name, (_, flags) in EXPERIMENTS.items():
        e = names.add_parser(name)
        e.add_argument("--out-dir", default=".")
        for flag, kind, default in flags:
            e.add_argument(flag, type=kind, default=default)
        e.set_defaults(func=_cmd_experiment, full_command=f"experiment {name}")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (HplusError, OverflowError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a domain error (OverflowError: past the float range) exits 3, a usage error 2
        return 3 if isinstance(exc, (HplusError, OverflowError)) else 2


if __name__ == "__main__":
    sys.exit(main())
