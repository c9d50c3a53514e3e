"""Command-line front end: series I/O, norm tables, operators, experiments.

Subcommands: norms, compose, superpose, spectrum, vertical-limit,
experiment <name>.  One JSON format is shared with the library modules.
Outputs are deterministic for a fixed (config, seed) pair and written
atomically (temp file, then rename).  Exit codes: 0 success, 2 usage or
parse error, 3 domain error (spectrum point, support overflow, missing
coverage), surfaced verbatim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, _kernels, bohr, operators, superposition
from .errors import HplusError
from .numtheory import MultiIndex, sieve
from .series import (
    DirichletSeries,
    load_series,
    multiply,
    seminorm_2,
    seminorm_comparison_constant,
    seminorm_even,
    series_to_json,
    translate,
    with_truncation,
)

CACHE_FLAG_HELP = "sieve cache directory (overrides HPLUS_CACHE_DIR)"

EXPERIMENTS = (
    "inequality-suite",
    "bohr-parseval",
    "nonextension",
    "ejemplo-growth",
    "noncomposition",
    "superpose-exp",
)


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _atomic_write_json(path: str, obj: dict) -> None:
    _atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str) -> list[int]:
    """Accept '4', '1,2,3', or '1..8'; a list that selects nothing is an error."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"integer list {text!r} selects no values")
    return values


def _out_truncation(args, d: DirichletSeries) -> int:
    """--truncation when given (it must be >= 1), else the input's truncation."""
    if args.truncation is None:
        return d.truncation
    if args.truncation < 1:
        raise ValueError(f"--truncation must be >= 1, got {args.truncation}")
    return args.truncation


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
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
    d = load_series(args.infile)
    ks = _parse_int_list(args.k)
    p = args.p
    if p < 2 or p % 2 != 0:
        raise ValueError(f"--p must be an even integer >= 2 for exact norms, got {p}")
    out_trunc = _out_truncation(args, d)
    rows = []
    for k in ks:
        if p == 2:
            rows.append(f"{k},{p},{seminorm_2(d, k)!r},true")
        else:
            val = seminorm_even(d, p // 2, k, out_trunc)
            rows.append(f"{k},{p},{val.value!r},{str(val.exact).lower()}")
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
    out_trunc = _out_truncation(args, d)
    result = operators.compose_general(d, phi, out_trunc, n_cutoff=args.cutoff)
    doc = series_to_json(result.series)
    doc["exact"] = result.exact
    _atomic_write_json(args.out, doc)
    return 0


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
        result, diagnostics = superposition.superpose_entire(d, ec, args.kmax, args.m)
    _atomic_write_json(args.out, series_to_json(result))
    if args.diagnostics and diagnostics:
        rows = []
        for diag in diagnostics:
            maj = None
            if diag.log_majorant is not None and diag.log_majorant < 700:
                maj = math.exp(diag.log_majorant)
            rows.append((diag.k_from, diag.tail_seminorm, maj))
        tmp = args.diagnostics + ".part"
        superposition.write_growth_table(rows, tmp)
        os.replace(tmp, args.diagnostics)
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
    table = sieve(max(2, d.truncation), cache_dir=args.cache_dir)
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
    rng = np.random.default_rng(args.seed)
    count, support = args.count, args.support
    out_trunc = support * support
    chain_rows, algebra_rows, power_rows = [], [], []
    polys = [_random_polynomial(rng, support) for _ in range(count)]
    for i, d in enumerate(polys):
        for k in (1, 2, 3, 4):
            lhs = seminorm_2(d, k)
            mid = seminorm_even(d, 2, k, out_trunc)
            c = seminorm_comparison_constant(k, 2, 4)
            rhs = c * seminorm_2(d, 2 * k)
            ok = lhs <= mid.value * (1 + 1e-9) and mid.value <= rhs * (1 + 1e-9)
            chain_rows.append(
                f"{i},{k},{lhs!r},{mid.value!r},{c!r},{rhs!r},{str(ok).lower()}"
            )
    for i in range(0, count - 1, 2):
        p_s, q_s = with_truncation(polys[i], out_trunc), with_truncation(polys[i + 1], out_trunc)
        prod = multiply(p_s, q_s)
        for m in (1, 2):
            lhs = seminorm_2(prod, m)
            rhs = (
                seminorm_comparison_constant(m, 1, 2)
                * seminorm_2(polys[i], 2 * m)
                * seminorm_2(polys[i + 1], 2 * m)
            )
            ok = lhs <= rhs * (1 + 1e-9)
            algebra_rows.append(f"{i},{m},{lhs!r},{rhs!r},{str(ok).lower()}")
    small_support = 30
    for i in range(min(count, 50)):
        base = _random_polynomial(rng, small_support)
        for k in (2, 3, 4):
            padded = with_truncation(base, small_support**k)
            chk = superposition.power_norm_chain_check(padded, 1, k)
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
    if args.terms < 1 or (args.terms - 1).bit_length() > 2 * args.n_vars:
        raise ValueError(
            f"--terms must lie in 1..4^{args.n_vars} (distinct exponents), got {args.terms}"
        )
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
        exact = None
        if args.p == 2:
            exact = math.sqrt(
                sum(
                    abs(c) ** 2
                    * float(
                        np.prod(
                            table.primes[: args.n_vars].astype(float)
                            ** (-2.0 * np.array([alpha[j] for j in range(args.n_vars)]) / args.k)
                        )
                    )
                    for alpha, c in poly.terms.items()
                )
            )
        tail = "" if exact is None else repr(exact)
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
    table = sieve(limit, cache_dir=args.cache_dir)
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

    tmp = os.path.join(outdir, "growth.csv")
    superposition.write_growth_table(growth_rows, tmp + ".part")
    os.replace(tmp + ".part", tmp)
    tmp = os.path.join(outdir, "witness.csv")
    superposition.write_growth_table(witness_rows, tmp + ".part")
    os.replace(tmp + ".part", tmp)

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
    tmp = os.path.join(outdir, "exponent.csv")
    superposition.write_growth_table(
        [(int(k), float(v), 0.0) for k, v in zip(main.ks, main.values)], tmp + ".part"
    )
    os.replace(tmp + ".part", tmp)
    tmp = os.path.join(outdir, "factorial.csv")
    superposition.write_growth_table(
        [(int(k), float(v), 0.0) for k, v in zip(factorial.ks, factorial.values)],
        tmp + ".part",
    )
    os.replace(tmp + ".part", tmp)
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
    d = translate(DirichletSeries.ones(truncation), 1.0)
    ec = superposition.EntireCoeffs.exp_neg_k_to_k()
    outputs = []
    series_doc = None
    for m in _parse_int_list(args.m_list):
        result, diags = superposition.superpose_entire(d, ec, kmax, m)
        if series_doc is None:
            series_doc = series_to_json(result)
        rows = [(diag.k_from, diag.tail_seminorm, 1e-12) for diag in diags]
        name = f"tails_m{m}.csv"
        tmp = os.path.join(outdir, name)
        superposition.write_growth_table(rows, tmp + ".part")
        os.replace(tmp + ".part", tmp)
        outputs.append(name)
    _atomic_write_json(os.path.join(outdir, "superposed.json"), series_doc)
    outputs.append("superposed.json")
    params = {
        "truncation": truncation,
        "kmax": kmax,
        "m_checks": _parse_int_list(args.m_list),
        "coefficients": ec.tag,
    }
    return _manifest("superpose-exp", params, outputs)


def _cmd_experiment(args) -> int:
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    runners = {
        "inequality-suite": _exp_inequality_suite,
        "bohr-parseval": _exp_bohr_parseval,
        "nonextension": _exp_nonextension,
        "ejemplo-growth": _exp_ejemplo_growth,
        "noncomposition": _exp_noncomposition,
        "superpose-exp": _exp_superpose_exp,
    }
    manifest = runners[args.name](args, outdir)
    _atomic_write_json(os.path.join(outdir, "manifest.json"), manifest)
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
    p.add_argument("--cc", type=float, default=1.2, help="C for --entire exp-kC")
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--m", type=int, default=1, help="seminorm index for diagnostics")
    p.add_argument("--out", required=True)
    p.add_argument("--diagnostics", default=None)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("spectrum", help="apply the resolvent of differentiation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lam", required=True, help="shift lambda as 're' or 're,im'")
    p.add_argument("--tol", type=float, default=operators.SPECTRUM_TOL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("vertical-limit", help="twist coefficients by a character")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--character", required=True)
    p.add_argument("--cache-dir", default=None, help=CACHE_FLAG_HELP)
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
    p.add_argument("--p", type=float, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--m-list", default="1,2,4")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--kmin", type=int, default=40)
    p.add_argument("--witness-m", type=int, default=1)
    p.add_argument("--witness-kmin", type=int, default=20)
    p.add_argument("--witness-kmax", type=int, default=60)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--cc", type=float, default=1.2, help="exponent C")
    p.add_argument("--cprime", type=float, default=1.6, help="exponent C'")
    p.add_argument("--nmax", type=int, default=1000000)
    p.add_argument("--cache-dir", default=None, help=CACHE_FLAG_HELP)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HplusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
