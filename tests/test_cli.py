import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import numpy as np
import pytest

import hplus
from cli_bounds import TERMS, edge, message, refusal, size_flags, with_flag
from hplus import __version__, _kernels, bohr, cli, operators, superposition
from hplus.cli import BOUNDS, _parse_int_list, main
from hplus.numtheory import sieve
from hplus.operators import Character, Symbol, character_to_json, symbol_to_json
from hplus.series import (
    DirichletSeries,
    _atomic_write_json,
    load_series,
    seminorm_2,
    series_from_json,
    series_to_json,
    translate,
    with_truncation,
)
from hplus.superposition import composition_criterion

from oracles import mult_extend_loop

LIMIT = {row.name: row.limit for row in BOUNDS}
P_MAX = 2 * LIMIT["norms-p"]  # norms' largest --p

def save_series(d, path):
    with open(path, "w") as f:
        f.write(json.dumps(series_to_json(d), sort_keys=True) + "\n")


@pytest.fixture()
def series_file(tmp_path, rng):
    d = DirichletSeries(rng.normal(size=20) + 1j * rng.normal(size=20))
    path = tmp_path / "series.json"
    save_series(d, str(path))
    return d, path


def test_norms_emits_eight_rows(series_file, tmp_path, capsys):
    d, path = series_file
    out = tmp_path / "norms.csv"
    rc = main(["norms", "--in", str(path), "--k", "1..8", "--p", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,p,value,exact"
    assert len(lines) == 9
    k, p, value, exact = lines[1].split(",")
    assert (k, p, exact) == ("1", "2", "true")
    assert float(value) == pytest.approx(seminorm_2(d, 1), rel=1e-15)


def test_norms_row_of_a_k_list_matches_the_single_k_run(series_file, tmp_path):
    # the k list shares one power of the input; each row keeps the single-k bytes
    d, path = series_file
    rows = {}
    for k in ("1..8", "3"):
        out = tmp_path / f"norms-{k}.csv"
        argv = ["norms", "--in", str(path), "--p", "8", "--k", k, "--out", str(out)]
        assert main(argv) == 0
        rows[k] = out.read_text().splitlines()
    assert len(rows["1..8"]) == 9 and len(rows["3"]) == 2
    assert rows["1..8"][3] == rows["3"][1]
    assert rows["3"][1].startswith("3,8,")


def test_norms_p2_weighs_the_input_cut_at_the_truncation(series_file, tmp_path):
    # below the input's truncation the cut input is weighed, a lower bound,
    # as for p >= 4; at or above it the whole input, exactly
    d, path = series_file
    rows = {}
    for t in ("5", "20", "50"):
        out = tmp_path / f"norms-{t}.csv"
        argv = ["norms", "--in", str(path), "--k", "1,3", "--p", "2", "--truncation", t,
                "--out", str(out)]
        assert main(argv) == 0
        rows[t] = out.read_text().splitlines()[1:]
    assert rows["5"] == [f"{k},2,{seminorm_2(with_truncation(d, 5), k)!r},false" for k in (1, 3)]
    assert rows["20"] == rows["50"] == [f"{k},2,{seminorm_2(d, k)!r},true" for k in (1, 3)]


def test_norms_stdout_and_odd_p_rejected(series_file, capsys):
    d, path = series_file
    assert main(["norms", "--in", str(path), "--k", "2", "--p", "2"]) == 0
    assert "k,p,value,exact" in capsys.readouterr().out
    assert main(["norms", "--in", str(path), "--k", "2", "--p", "3"]) == 2


@pytest.mark.parametrize("truncation", ["0", "-3"])
def test_norms_and_compose_reject_truncation_below_one(series_file, tmp_path, truncation):
    d, path = series_file
    out = tmp_path / "out.csv"
    argv = ["norms", "--in", str(path), "--p", "4", "--truncation", truncation, "--out", str(out)]
    assert main(argv) == 2
    sym_path = tmp_path / "symbol.json"
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05], dtype=np.complex128)))
    sym_path.write_text(json.dumps(symbol_to_json(phi)))
    argv = ["compose", "--in", str(path), "--symbol", str(sym_path),
            "--truncation", truncation, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_norms_empty_k_range_is_usage_error(series_file, tmp_path):
    d, path = series_file
    out = tmp_path / "norms.csv"
    for k in ("3..1", "1,,2", "2,"):  # 1,,2 and 2, once ran as 1,2 and 2
        assert main(["norms", "--in", str(path), "--k", k, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "k",
    [f"1..{LIMIT['norms-k'] + 1}", ",".join(["1"] * (LIMIT["norms-k"] + 1)), "1..100000000"],
    ids=["range", "list", "huge-range"],
)
def test_norms_rejects_k_lists_past_the_limit(series_file, tmp_path, k):
    # 1..100000000 was once built whole: a MemoryError, or minutes of work
    d, path = series_file
    out = tmp_path / "norms.csv"
    start = time.perf_counter()
    assert main(["norms", "--in", str(path), "--k", k, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def _norms_sizes(limit, factor_max):
    """(factor, truncation) with factor x truncation = limit, the truncation in range."""
    return next(
        (n, limit // n) for n in range(1, factor_max + 1)
        if limit % n == 0 and limit // n <= LIMIT["norms-truncation"]
    )


@pytest.mark.parametrize("p", [4, 8])
def test_norms_rejects_work_past_the_limit(series_file, tmp_path, p):
    # len(ks) x truncation = the norms-weigh limit + 1 at this p, and
    # (p/2 - 1) x truncation = the norms-work limit + 1 at a larger p
    d, path = series_file
    out = tmp_path / "norms.csv"
    n, trunc = _norms_sizes(LIMIT["norms-weigh"] + 1, LIMIT["norms-k"])
    argv = ["norms", "--in", str(path), "--p", str(p), "--k", f"1..{n}",
            "--truncation", str(trunc), "--out", str(out)]
    assert main(argv) == 3
    products, trunc = _norms_sizes(LIMIT["norms-work"] + 1, P_MAX // 2 - 1)
    argv = ["norms", "--in", str(path), "--p", str(2 * products + 2), "--k", "1",
            "--truncation", str(trunc), "--out", str(out)]
    assert main(argv) == 3
    argv = ["norms", "--in", str(path), "--p", str(P_MAX + 2), "--k", "1",
            "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()


def test_norms_runs_at_each_work_limit(tmp_path):
    # a one-term input keeps every power one term long, so the calls at the
    # limits are quick; one slot past either limit is refused
    path = tmp_path / "one.json"
    save_series(DirichletSeries.monomial(1, 0.5 - 0.25j, 1), str(path))
    out = tmp_path / "norms.csv"
    n, trunc = _norms_sizes(LIMIT["norms-weigh"], LIMIT["norms-k"])
    argv = ["norms", "--in", str(path), "--p", "4", "--k", f"1..{n}", "--out", str(out)]
    assert main([*argv, "--truncation", str(trunc)]) == 0
    assert len(out.read_text().splitlines()) == n + 1
    assert main([*argv, "--truncation", str(trunc + 1)]) == 3
    products, trunc = _norms_sizes(LIMIT["norms-work"], P_MAX // 2 - 1)
    argv = ["norms", "--in", str(path), "--p", str(2 * products + 2), "--k", "1,2",
            "--out", str(out)]
    assert main([*argv, "--truncation", str(trunc)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("1", "true"), ("2", "true")]
    assert all(abs(float(row[2]) - abs(0.5 - 0.25j)) <= 1e-15 for row in rows)
    assert main([*argv, "--truncation", str(trunc + 1)]) == 3


def test_norms_bounds_products_and_weighing_apart(tmp_path, rng):
    # p/2 - 1 = 1 product at 4 * 10^6 and 13 weighings of it: once refused
    # as 13 x 1 x 4 * 10^6 > the norms-work limit, now inside both bounds
    assert 13 * LIMIT["norms-truncation"] <= LIMIT["norms-weigh"]
    assert LIMIT["norms-truncation"] <= LIMIT["norms-work"] < 13 * LIMIT["norms-truncation"]
    path = tmp_path / "poly.json"
    save_series(DirichletSeries(rng.normal(size=30) + 1j * rng.normal(size=30)), str(path))
    out = tmp_path / "norms.csv"
    argv = ["norms", "--in", str(path), "--p", "4", "--k", "1..13",
            "--truncation", str(LIMIT["norms-truncation"]), "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 14


def test_default_lists_lie_inside_the_bounds():
    assert len(_parse_int_list("--k", "1..8")) <= LIMIT["norms-k"]
    assert len(_parse_int_list("--m-list", "1,2,4")) <= LIMIT["superpose-exp-m-list"]
    # the sparse-algebra benchmark: norms --p 8 --k 1..8 at 30^4
    assert 3 * 30**4 <= LIMIT["norms-work"] and 8 * 30**4 <= LIMIT["norms-weigh"]
    assert 8 <= P_MAX
    # the default k list at p = 4 and the largest output truncation
    assert LIMIT["norms-truncation"] <= LIMIT["norms-work"]
    assert 8 * LIMIT["norms-truncation"] <= LIMIT["norms-weigh"]


def test_superpose_exp_rejects_m_lists_past_the_limit(tmp_path):
    out_dir = tmp_path / "se"
    argv = ["experiment", "superpose-exp", "--out-dir", str(out_dir),
            "--m-list", ",".join(["1"] * (LIMIT["superpose-exp-m-list"] + 1))]
    assert main(argv) == 3
    assert not any(tmp_path.iterdir())


def test_output_onto_a_directory_leaves_nothing_behind(series_file, tmp_path):
    # norms once left <dir>.tmp-<pid>; superpose left <dir>.part and its --out
    d, path = series_file
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["norms", "--in", str(path), "--k", "1..2", "--out", str(target)]) == 2
    out = tmp_path / "sup.json"
    argv = ["superpose", "entire", "--in", str(path), "--function", "exp-kk", "--kmax", "4",
            "--out", str(out), "--diagnostics", str(target)]
    assert main(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.json", "taken"]
    assert not any(target.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "bohr-parseval", "--trials", "0"],
        ["experiment", "bohr-parseval", "--trials", "-3"],
        ["experiment", "bohr-parseval", "--p", "nan"],
        ["experiment", "noncomposition", "--epsilon", "nan"],
        ["experiment", "noncomposition", "--delta", "inf"],
        ["experiment", "bohr-parseval", "--p", "1e400"],
        # once exit 3: the product of two negative sizes passed for a large one
        ["experiment", "ejemplo-growth", "--truncation", "-1000000", "--kmax", "-1000"],
        # once numpy's "negative dimensions are not allowed"
        ["experiment", "ejemplo-growth", "--truncation", "-3"],
        ["experiment", "superpose-exp", "--truncation", "-3"],
        ["experiment", "superpose-exp", "--m-list", "1,,2"],  # once ran as 1,2
    ],
)
def test_experiments_reject_empty_and_non_finite_values(tmp_path, capsys, argv):
    # each of these once ran to exit 0 with an empty or nan table
    out_dir = tmp_path / "run"
    try:
        rc = main([*argv, "--out-dir", str(out_dir)])
    except SystemExit as exc:  # argparse rejects the flag itself
        rc = exc.code
    assert rc == 2
    assert argv[2] in capsys.readouterr().err  # the message names the flag
    assert not any(tmp_path.iterdir())


def test_spectrum_rejects_non_finite_shift_and_negative_tolerance(series_file, tmp_path):
    d, path = series_file
    out = tmp_path / "res.json"
    assert main(["spectrum", "--in", str(path), "--lam", "inf", "--out", str(out)]) == 2
    assert main(["spectrum", "--in", str(path), "--lam", "1,nan", "--out", str(out)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--in", str(path), "--lam", "1", "--tol", "nan", "--out", str(out)])
    assert exc.value.code == 2
    assert main(["spectrum", "--in", str(path), "--lam", "1", "--tol", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_superpose_past_the_float_range_is_domain_error(series_file, tmp_path, capsys):
    # exp(-k^k) leaves the float range at k = 144: once an OverflowError
    # traceback, then "(34, 'Numerical result out of range')"
    d, path = series_file
    out = tmp_path / "sup.json"
    argv = ["superpose", "entire", "--in", str(path), "--function", "exp-kk", "--kmax", "1000",
            "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--kmax = 1000 reaches k = 144," in err
    assert "out of range" not in err


def test_superpose_entire_refuses_a_negative_cc(series_file, tmp_path, capsys):
    # a_0 = exp(-0^C): --cc -1 once ended in a ZeroDivisionError traceback, exit 1
    d, path = series_file
    out = tmp_path / "sup.json"
    argv = ["superpose", "entire", "--in", str(path), "--function", "exp-kC", "--cc", "-1",
            "--out", str(out)]
    assert main(argv) == 2
    assert "--cc must be >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()
    argv[argv.index("--cc") + 1] = "0"
    assert main(argv) == 0 and out.exists()


@pytest.mark.parametrize("function", ["exp-kk", "inv-factorial"])
def test_superpose_entire_refuses_cc_without_exp_kc(series_file, tmp_path, capsys, function):
    # --cc is C of exp(-k^C) alone; another function read it and ignored it
    d, path = series_file
    out = tmp_path / "sup.json"
    argv = ["superpose", "entire", "--in", str(path), "--function", function, "--cc", "9",
            "--kmax", "4", "--out", str(out), "--diagnostics", str(tmp_path / "tails.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--cc" in err and f"--function {function}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["series.json"]
    del argv[argv.index("--cc") : argv.index("--cc") + 2]
    assert main(argv) == 0 and out.exists()


def test_superpose_exp_past_the_float_range_is_domain_error(tmp_path, capsys):
    argv = ["experiment", "superpose-exp", "--out-dir", str(tmp_path / "se"),
            "--m-list", "1", "--kmax", "144", "--truncation", "5"]
    assert main(argv) == 3
    assert not any(tmp_path.iterdir())
    assert "--kmax = 144 reaches k = 144," in capsys.readouterr().err
    argv[-3] = "143"
    assert main(argv) == 0


# --coeffs on the input 1e10 + 2^{-s}: a term a_k D^k, or a sum of terms
# that each stay inside, leaves the float range
COEFFS_PAST_THE_FLOAT_RANGE = {
    "superpose-coeffs-term": "0;1e300",
    "superpose-coeffs-terms": "1e308;1e308",
    "superpose-coeffs-sum": "1.7e308;1e298",
}


@pytest.mark.parametrize("case", ["superpose", "norms", *COEFFS_PAST_THE_FLOAT_RANGE])
def test_products_past_the_float_range_exit_3_without_a_warning(tmp_path, case):
    # once exit 2 ("coefficients must be finite") after numpy's RuntimeWarning
    if case in COEFFS_PAST_THE_FLOAT_RANGE:
        coeffs = np.array([1e10, 1.0])
        argv = ["superpose", "poly", "--coeffs", COEFFS_PAST_THE_FLOAT_RANGE[case]]
    elif case == "superpose":
        # a_1 = 0.50 - 7.86i: a_1^k alone leaves the float range near k = 344
        rng = np.random.default_rng(0)
        n = np.arange(1, 4097)
        coeffs = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) * 4 / n**2
        argv = ["superpose", "entire", "--function", "inv-factorial", "--kmax", "1000"]
    else:
        coeffs = np.full(20, 1e200)
        argv = ["norms", "--p", "4"]
    path = tmp_path / "in.json"
    save_series(DirichletSeries(coeffs), str(path))
    out = tmp_path / "out"
    proc = _run_cli(*argv, "--in", str(path), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "past the float range" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def _run_cli(*argv, timeout=60, **env_vars):
    """hplus.cli in a subprocess with a timeout, so a regression cannot hang the suite."""
    src = os.path.dirname(os.path.dirname(hplus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-m", "hplus.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_norms_and_compose_reject_truncation_past_their_limits(series_file, tmp_path):
    d, path = series_file
    out = tmp_path / "out.csv"
    argv = ["norms", "--in", str(path), "--p", "4", "--truncation",
            str(LIMIT["norms-truncation"] + 1), "--out", str(out)]
    assert main(argv) == 3
    sym_path = tmp_path / "symbol.json"
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05], dtype=np.complex128)))
    sym_path.write_text(json.dumps(symbol_to_json(phi)))
    argv = ["compose", "--in", str(path), "--symbol", str(sym_path),
            "--truncation", str(LIMIT["compose-truncation"] + 1), "--out", str(out)]
    assert main(argv) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.json", "symbol.json"]
    # the sparse-algebra benchmark runs norms at 30^4
    assert 30**4 <= LIMIT["norms-truncation"]


def test_compose_flat_symbol_at_full_cutoff_is_fast(tmp_path, rng):
    # c0 = 0 with --cutoff = --truncation = 4096 once took 15-20 s: every n
    # expanded its own exponential series to the full truncation
    path = tmp_path / "series.json"
    save_series(DirichletSeries(rng.normal(size=4096) + 1j * rng.normal(size=4096)), str(path))
    varphi = (rng.normal(size=64) + 1j * rng.normal(size=64)) / (2.0 * np.arange(1, 65))
    varphi[0] = 0.5 + 0.2j
    sym_path = tmp_path / "symbol.json"
    sym_path.write_text(json.dumps(symbol_to_json(Symbol(0, DirichletSeries(varphi)))))
    out = tmp_path / "composed.json"
    proc = _run_cli("compose", "--in", str(path), "--symbol", str(sym_path), "--cutoff", "4096",
                    "--truncation", "4096", "--out", str(out), timeout=10)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exact"] is False and series_from_json(doc).truncation == 4096


@pytest.mark.parametrize(
    "flags", [["--n-vars", "0"], ["--n-vars", "1", "--terms", "5"], ["--terms", "0"]]
)
def test_bohr_parseval_rejects_unreachable_term_counts(tmp_path, flags):
    # the exponent draw has 4^n_vars distinct values: these would never finish
    out_dir = tmp_path / "bp"
    proc = _run_cli("experiment", "bohr-parseval", "--out-dir", str(out_dir), *flags)
    assert proc.returncode == 2, proc.stderr
    assert not out_dir.exists()
    assert not any(tmp_path.iterdir())  # no staging directory left either


class _Sieved(Exception):
    pass


def _fail_at_sieve(n_primes):
    raise _Sieved(n_primes)


def _monomials_past_the_limit():
    """(samples, trials, terms): samples x trials x terms = the bohr-monomials limit + 1,
    the other two bounds kept."""
    work = LIMIT["bohr-monomials"] + 1
    for terms in range(2, LIMIT["bohr-terms"] + 1):
        for trials in range(1, LIMIT["bohr-terms"] // terms + 1):
            if work % (terms * trials) == 0 and work // terms <= LIMIT["bohr-samples"]:
                return work // (terms * trials), trials, terms
    raise AssertionError("no factorization of the bohr-monomials limit + 1 fits")


@pytest.mark.parametrize(
    "flags,inside",
    [
        ([("--n-vars", LIMIT["bohr-vars"]), ("--terms", 3)], True),
        ([("--n-vars", LIMIT["bohr-vars"] + 1), ("--terms", 3)], False),
        # once drawing terms for more than 8 s
        ([("--n-vars", 20), ("--terms", 100_000_000), ("--samples", 1), ("--trials", 1)], False),
        # once sieving up to about 10^9 before it failed
        ([("--n-vars", 10**9), ("--samples", 1), ("--trials", 1)], False),
        ([("--n-vars", 8), ("--samples", 1), ("--trials", 2),
          ("--terms", LIMIT["bohr-terms"] // 2)], True),
        ([("--n-vars", 8), ("--samples", 1), ("--trials", 1),
          ("--terms", LIMIT["bohr-terms"] + 1)], False),
        # samples x trials and samples x trials x terms both at their limits
        ([("--samples", LIMIT["bohr-samples"] // 10), ("--trials", 10),
          ("--terms", LIMIT["bohr-monomials"] // LIMIT["bohr-samples"])], True),
        ([("--samples", LIMIT["bohr-samples"] + 1), ("--trials", 1), ("--terms", 1)], False),
        (list(zip(("--samples", "--trials", "--terms"), _monomials_past_the_limit())), False),
    ],
)
def test_bohr_parseval_sizes_at_and_past_their_limits(tmp_path, monkeypatch, flags, inside):
    # the sieve is the first work: a run inside every bound reaches it, a run
    # past one exits 3 before it and before any draw
    assert LIMIT["bohr-terms"] % 2 == 0 and LIMIT["bohr-samples"] % 10 == 0
    assert LIMIT["bohr-monomials"] % LIMIT["bohr-samples"] == 0
    monkeypatch.setattr(bohr, "sieve_for_n_primes", _fail_at_sieve)
    out_dir = tmp_path / "bp"
    argv = ["experiment", "bohr-parseval", "--out-dir", str(out_dir)]
    argv += [str(arg) for pair in flags for arg in pair]
    if inside:
        with pytest.raises(_Sieved):
            main(argv)
    else:
        assert main(argv) == 3
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("existing", [False, True])
def test_experiment_beyond_desk_scale_is_domain_error(tmp_path, existing):
    # the m = 4 tail majorant needs primes up to 20^8: exit 3 before any
    # power is formed or any file written, with nothing left behind
    out_dir = tmp_path / "se"
    if existing:
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("kept\n")
    proc = _run_cli("experiment", "superpose-exp", "--kmax", "40", "--out-dir", str(out_dir))
    assert proc.returncode == 3, proc.stderr
    assert "beyond desk scale" in proc.stderr
    if existing:
        assert [p.name for p in tmp_path.iterdir()] == ["se"]
        assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
    else:
        assert not any(tmp_path.iterdir())


def test_bohr_parseval_accepts_every_distinct_exponent(tmp_path):
    out_dir = tmp_path / "bp"
    argv = ["experiment", "bohr-parseval", "--out-dir", str(out_dir), "--n-vars", "1",
            "--terms", "4", "--trials", "1", "--samples", "64"]
    assert main(argv) == 0
    assert (out_dir / "estimates.csv").exists()
    # the staging directory next to the new --out-dir is gone
    assert [p.name for p in tmp_path.iterdir()] == ["bp"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["estimates.csv", "manifest.json"]


def test_compose_roundtrips_series_json(series_file, tmp_path):
    d, path = series_file
    sym_path = tmp_path / "symbol.json"
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05], dtype=np.complex128)))
    sym_path.write_text(json.dumps(symbol_to_json(phi)))
    out = tmp_path / "result.json"
    rc = main([
        "compose", "--in", str(path), "--symbol", str(sym_path),
        "--truncation", "64", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    back = series_from_json(doc)  # extra "exact" key is tolerated
    assert back.truncation == 64
    resaved = tmp_path / "resaved.json"
    save_series(back, str(resaved))
    assert load_series(str(resaved)) == back


@pytest.mark.parametrize("c0", [1.5, "1", True])
def test_compose_rejects_non_integer_c0(series_file, tmp_path, c0):
    # each of these once ran as c0 = 1
    d, path = series_file
    sym_path = tmp_path / "symbol.json"
    doc = symbol_to_json(Symbol(1, DirichletSeries(np.array([0.2, 0.05], dtype=np.complex128))))
    doc["c0"] = c0
    sym_path.write_text(json.dumps(doc))
    out = tmp_path / "result.json"
    assert main(["compose", "--in", str(path), "--symbol", str(sym_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("truncation", [3.7, "3", 3.0, True])
def test_series_file_refuses_a_non_integer_truncation(tmp_path, capsys, truncation):
    # each of these once read as 3 (true as 1)
    path = tmp_path / "series.json"
    rows = [[1.0, 0.0]] * (1 if truncation is True else 3)
    path.write_text(json.dumps({"truncation": truncation, "coeffs": rows}))
    out = tmp_path / "norms.csv"
    assert main(["norms", "--in", str(path), "--k", "1", "--out", str(out)]) == 2
    assert "field 'truncation' must be a JSON integer" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_exit_codes(series_file, tmp_path):
    d, path = series_file
    zeroed = DirichletSeries(np.concatenate([[0.0], d.coeffs[1:]]))
    zpath = tmp_path / "zeroed.json"
    save_series(zeroed, str(zpath))
    out = tmp_path / "res.json"
    assert main(["spectrum", "--in", str(zpath), "--lam", "1.0", "--out", str(out)]) == 0
    rc = main(["spectrum", "--in", str(zpath), "--lam", repr(-math.log(3)), "--out", str(out)])
    assert rc == 3  # spectrum point
    rc = main(["spectrum", "--in", str(path), "--lam", "1.0", "--out", str(out)])
    assert rc == 3  # nonzero constant term -> domain error


def test_bad_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norms", "--in", str(bad), "--k", "1"]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"coeffs": [[1, 0]]}))
    assert main(["norms", "--in", str(missing), "--k", "1"]) == 2


def test_vertical_limit_command(series_file, tmp_path):
    d, path = series_file
    chi_path = tmp_path / "chi.json"
    vals = np.exp(1j * np.linspace(0.1, 1.0, 10))
    chi_path.write_text(json.dumps(character_to_json(Character(vals))))
    out = tmp_path / "twisted.json"
    rc = main([
        "vertical-limit", "--in", str(path), "--character", str(chi_path),
        "--out", str(out),
    ])
    assert rc == 0
    tw = load_series(str(out))
    assert seminorm_2(tw, 2) == pytest.approx(seminorm_2(d, 2), rel=1e-12)


def test_twisted_json_holds_the_per_n_complex_twist(tmp_path, rng):
    # the H^2 weights are extended in float64; a character keeps the complex
    # extension, whose bits are those of one complex product per n
    n = 5000
    d = DirichletSeries(rng.normal(size=n) + 1j * rng.normal(size=n))
    path = tmp_path / "series.json"
    save_series(d, str(path))
    table = sieve(n)
    chi = Character(np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(table.primes))))
    chi_path = tmp_path / "chi.json"
    chi_path.write_text(json.dumps(character_to_json(chi)))
    out = tmp_path / "twisted.json"
    argv = ["vertical-limit", "--in", str(path), "--character", str(chi_path), "--out", str(out)]
    assert main(argv) == 0
    dense = np.zeros(n + 1, dtype=np.complex128)
    dense[table.primes] = chi.prime_values
    spf, _ = _kernels.sieve_spf(n)
    twisted = DirichletSeries(d.coeffs * mult_extend_loop(spf, dense, n)[1:])
    want = tmp_path / "want.json"
    _atomic_write_json(str(want), series_to_json(twisted))
    assert out.read_bytes() == want.read_bytes()


# -- series files are written in slices with the bytes of the one-shot encoding --

WIDE = 2**14 + 1  # two slices of the series writer


def one_shot(d, **fields) -> bytes:
    """The series file's bytes as one ``json.dumps`` of ``series_to_json``."""
    return (json.dumps({**series_to_json(d), **fields}, sort_keys=True) + "\n").encode()


@pytest.fixture()
def wide_series_file(tmp_path, rng):
    # a_1 = -0.0 (spectrum needs a zero constant term), and -0.0 elsewhere
    coeffs = rng.normal(size=WIDE) + 1j * rng.normal(size=WIDE)
    coeffs.real[::3] = -0.0
    coeffs.imag[::5] = -0.0
    d = DirichletSeries(coeffs)
    path = tmp_path / "wide.json"
    save_series(d, str(path))
    return d, path


def test_compose_file_is_the_one_shot_encoding(wide_series_file, tmp_path):
    d, path = wide_series_file
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, -0.0, 0.05], dtype=np.complex128)))
    sym_path = tmp_path / "symbol.json"
    sym_path.write_text(json.dumps(symbol_to_json(phi)))
    out = tmp_path / "composed.json"
    assert main(["compose", "--in", str(path), "--symbol", str(sym_path), "--out", str(out)]) == 0
    result = operators.compose_general(d, phi, WIDE)
    assert out.read_bytes() == one_shot(result.series, exact=result.exact)


def test_superpose_file_is_the_one_shot_encoding(wide_series_file, tmp_path):
    d, path = wide_series_file
    out = tmp_path / "sup.json"
    argv = ["superpose", "poly", "--in", str(path), "--coeffs", "0,0;1,-0.5;0.25",
            "--out", str(out)]
    assert main(argv) == 0
    want = superposition.superpose_poly(d, [0j, complex(1, -0.5), complex(0.25, 0)])
    assert out.read_bytes() == one_shot(want)


def test_spectrum_file_is_the_one_shot_encoding(wide_series_file, tmp_path):
    d, path = wide_series_file
    out = tmp_path / "res.json"
    assert main(["spectrum", "--in", str(path), "--lam", "1.5,0.5", "--out", str(out)]) == 0
    want = operators.resolvent(complex(1.5, 0.5), d, tol=operators.SPECTRUM_TOL)
    assert out.read_bytes() == one_shot(want)


def test_vertical_limit_file_is_the_one_shot_encoding(wide_series_file, tmp_path, rng):
    d, path = wide_series_file
    table = sieve(WIDE)
    chi = Character(np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(table.primes))))
    chi_path = tmp_path / "chi.json"
    chi_path.write_text(json.dumps(character_to_json(chi)))
    out = tmp_path / "twisted.json"
    argv = ["vertical-limit", "--in", str(path), "--character", str(chi_path), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == one_shot(operators.vertical_limit(d, chi, table))


def test_superposed_json_is_the_one_shot_encoding_of_the_first_m(tmp_path):
    argv = ["experiment", "superpose-exp", "--out-dir", str(tmp_path),
            "--truncation", str(WIDE), "--kmax", "3", "--m-list", "2,1"]
    assert main(argv) == 0
    d = translate(DirichletSeries.ones(WIDE), 1.0)
    ec = superposition.EntireCoeffs.exp_neg_k_to_k()
    result, _ = superposition.superpose_entire(d, ec, 3, 2)
    assert (tmp_path / "superposed.json").read_bytes() == one_shot(result)


def test_vertical_limit_refuses_a_nan_character(series_file, tmp_path, capsys):
    # refused when the character is read, not by the twisted output
    d, path = series_file
    chi_path = tmp_path / "chi.json"
    chi_path.write_text(json.dumps({"prime_values": [[math.nan, 0.0], [1.0, 0.0]]}))
    out = tmp_path / "twisted.json"
    argv = ["vertical-limit", "--in", str(path), "--character", str(chi_path), "--out", str(out)]
    assert main(argv) == 2
    assert "character values must be finite and unimodular" in capsys.readouterr().err
    assert not out.exists()


def test_superpose_polynomial_command(series_file, tmp_path):
    d, path = series_file
    out = tmp_path / "sup.json"
    rc = main([
        "superpose", "poly", "--in", str(path), "--coeffs", "1,0;0,0;1,0", "--out", str(out),
    ])
    assert rc == 0
    got = load_series(str(out))
    assert got.truncation == d.truncation


def test_experiment_superpose_exp(tmp_path):
    out = str(tmp_path)
    rc = main([
        "experiment", "superpose-exp", "--out-dir", out,
        "--truncation", "200", "--kmax", "6", "--m-list", "1,2",
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "superpose-exp"
    assert manifest["version"] == __version__
    assert manifest["parameters"]["kmax"] == 6
    assert sorted(manifest["outputs"]) == ["superposed.json", "tails_m1.csv", "tails_m2.csv"]
    for m in (1, 2):
        tails = (tmp_path / f"tails_m{m}.csv").read_text().splitlines()
        assert tails[0] == "k,value,target,margin"
        assert len(tails) == 7  # header + k_from 0..5
        # the target is the tail majorant, which bounds the tail
        for row in tails[1:]:
            _, value, target, _ = row.split(",")
            assert float(value) <= float(target)


def test_superpose_exp_forms_each_power_once(tmp_path, monkeypatch):
    # at the defaults D^2..D^8 are 7 dense products, however many m are weighed
    calls = []
    convolve = _kernels.dirichlet_convolve

    def counted(*args, **kwargs):
        calls.append(args[2])
        return convolve(*args, **kwargs)

    monkeypatch.setattr(_kernels, "dirichlet_convolve", counted)
    for m_list in ("1", "1,2,4"):
        calls.clear()
        argv = ["experiment", "superpose-exp", "--out-dir", str(tmp_path / m_list),
                "--m-list", m_list]
        assert main(argv) == 0
        assert calls == [2000] * 7, m_list


def test_superpose_exp_writes_each_distinct_m_once(tmp_path, monkeypatch):
    # --m-list 3,1,3 writes tails_m3.csv and tails_m1.csv once each, with the
    # bytes of a 3,1 run, and keeps the list as given in the manifest
    written = []
    write = superposition.write_growth_table
    monkeypatch.setattr(superposition, "write_growth_table",
                        lambda rows, path: written.append(os.path.basename(path)) or write(rows, path))
    runs = {}
    for m_list in ("3,1,3", "3,1"):
        written.clear()
        out = tmp_path / m_list
        argv = ["experiment", "superpose-exp", "--out-dir", str(out), "--truncation", "300",
                "--kmax", "5", "--m-list", m_list]
        assert main(argv) == 0
        assert written == ["tails_m3.csv", "tails_m1.csv"]
        runs[m_list] = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(runs["3,1,3"].pop("manifest.json"))
    assert manifest["parameters"]["m_checks"] == [3, 1, 3]
    assert json.loads(runs["3,1"].pop("manifest.json"))["outputs"] == manifest["outputs"]
    assert runs["3,1,3"] == runs["3,1"]


def test_experiment_ejemplo_growth_matches_library(tmp_path):
    out = str(tmp_path)
    rc = main([
        "experiment", "ejemplo-growth", "--out-dir", out,
        "--truncation", "2000", "--m", "4", "--kmax", "4",
        "--witness-kmin", "20", "--witness-kmax", "25",
    ])
    assert rc == 0
    rows = (tmp_path / "growth.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    d = translate(DirichletSeries.ones(2000), 0.5)
    rep = composition_criterion(d, 4, 4)
    for row, want in zip(rows, rep.roots):
        assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-15)
    assert (tmp_path / "witness.csv").exists()


def test_experiment_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main([
            "experiment", "bohr-parseval", "--out-dir", str(out),
            "--samples", "2000", "--trials", "2", "--seed", "42",
        ])
        assert rc == 0
    for name in ("manifest.json", "estimates.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bohr_parseval_bytes_do_not_depend_on_blas_threads(tmp_path):
    # two chunks, the second ending inside a sub-block
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = _run_cli(
            "experiment", "bohr-parseval", "--out-dir", str(out),
            "--samples", "20000", "--trials", "2", "--seed", "5",
            OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        bodies.append((out / "estimates.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_bohr_parseval_imports_no_masked_arrays(tmp_path):
    # a polynomial's distinct rows are checked by a sort, not by
    # np.unique(axis=0), whose first call imports numpy.ma (about 1.7 MB of RSS)
    argv = ["experiment", "bohr-parseval", "--out-dir", str(tmp_path / "bp"), "--samples", "200"]
    script = (f"import sys\nfrom hplus import cli\nassert cli.main({argv!r}) == 0\n"
              "print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(hplus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_experiment_inequality_suite_small(tmp_path):
    rc = main([
        "experiment", "inequality-suite", "--out-dir", str(tmp_path),
        "--count", "6", "--support", "20", "--seed", "7",
    ])
    assert rc == 0
    # staged inside the existing --out-dir, and that staging directory is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "algebra.csv", "manifest.json", "power_chain.csv", "seminorm_chain.csv"
    ]
    for name in ("seminorm_chain.csv", "algebra.csv", "power_chain.csv"):
        body = (tmp_path / name).read_text()
        assert "false" not in body.split("\n", 1)[1]


@pytest.mark.parametrize(
    "flags,code",
    [
        (["--count", "1"], 2),
        (["--count", "0"], 2),
        (["--support", "0"], 2),
        (["--support", str(LIMIT["suite-support"] + 1)], 3),
        (["--count", str(LIMIT["suite-coeffs"] // 100 + 1), "--support", "100"], 3),
    ],
)
def test_inequality_suite_rejects_sizes_before_any_work(tmp_path, flags, code):
    # with an existing parent of --out-dir and with a missing one
    for out_dir in (tmp_path / "suite", tmp_path / "lim" / "suite"):
        assert main(["experiment", "inequality-suite", "--out-dir", str(out_dir), *flags]) == code
        assert not any(tmp_path.iterdir())  # no --out-dir, parent or staging directory


def test_experiment_noncomposition_small(tmp_path):
    rc = main([
        "experiment", "noncomposition", "--out-dir", str(tmp_path),
        "--kmin", "40", "--kmax", "60",
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["C"] == 1.2
    assert (tmp_path / "exponent.csv").exists()
    assert (tmp_path / "factorial.csv").exists()


def test_experiment_nonextension_small(tmp_path):
    rc = main([
        "experiment", "nonextension", "--out-dir", str(tmp_path), "--nmax", "2000",
    ])
    assert rc == 0
    rows = (tmp_path / "partial_sums.csv").read_text().strip().splitlines()[1:]
    sums = [float(r.split(",")[1]) for r in rows]
    assert sums == sorted(sums)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["prime_bound_ok"] is True


@pytest.mark.parametrize(
    "flags",
    [
        ["--truncation", str(LIMIT["ejemplo-truncation"] + 1), "--kmax", "2"],
        ["--kmax", "100000"],  # at the default truncation 10^5
        ["--kmax", str(LIMIT["ejemplo-work"] // 1000 + 1), "--truncation", "1000"],
    ],
)
def test_ejemplo_growth_rejects_sizes_before_any_work(tmp_path, flags):
    # the defaults, kmax 6 at truncation 10^5, lie inside both bounds
    assert 100_000 <= LIMIT["ejemplo-truncation"] and 6 * 100_000 <= LIMIT["ejemplo-work"]
    out_dir = tmp_path / "eg"
    proc = _run_cli("experiment", "ejemplo-growth", "--out-dir", str(out_dir), *flags)
    assert proc.returncode == 3, proc.stderr
    assert "beyond desk scale" in proc.stderr
    assert not any(tmp_path.iterdir())  # no --out-dir and no staging directory


@pytest.mark.parametrize(
    "argv",
    [
        # once a MemoryError traceback (exit 1) allocating 10^9 slots
        ["superpose-exp", "--truncation", "1000000000"],
        # 1 run x (2 + 1) powers x truncation = the superpose-exp-powers limit + 1
        ["superpose-exp", "--m-list", "1", "--kmax", "2",
         "--truncation", str((LIMIT["superpose-exp-powers"] + 1) // 3)],
        # once a MemoryError traceback building the k list
        ["noncomposition", "--kmax", "1000000000"],
        ["noncomposition", "--kmax", str(LIMIT["noncomposition-k"] + 1)],
        ["ejemplo-growth", "--witness-kmax", str(LIMIT["ejemplo-witness-k"] + 1)],
        ["bohr-parseval", "--samples", str(LIMIT["bohr-samples"] + 1), "--trials", "1"],
        ["bohr-parseval", "--samples", str((LIMIT["bohr-samples"] + 10) // 10)],  # 10 trials
    ],
)
def test_experiment_sizes_past_their_limits_exit_3_before_any_work(tmp_path, argv):
    assert (LIMIT["superpose-exp-powers"] + 1) % 3 == 0 and LIMIT["bohr-samples"] % 10 == 0
    # the defaults and the benchmark's calls lie inside every bound: superpose-exp
    # 3 runs x 9 powers at 2 000, noncomposition k <= 1 000 (its factorial
    # ladder), the witness k <= 60, bohr-parseval 10 x 10^5 samples of 20 terms
    # in 3 variables
    assert 3 * 9 * 2000 <= LIMIT["superpose-exp-powers"] and 1000 <= LIMIT["noncomposition-k"]
    assert 60 <= LIMIT["ejemplo-witness-k"] and 10 * 100_000 <= LIMIT["bohr-samples"]
    assert 3 <= LIMIT["bohr-vars"] and 10 * 20 <= LIMIT["bohr-terms"]
    assert 10 * 100_000 * 20 <= LIMIT["bohr-monomials"]
    out_dir = tmp_path / "run"
    proc = _run_cli("experiment", *argv, "--out-dir", str(out_dir))
    assert proc.returncode == 3, proc.stderr
    assert "beyond desk scale" in proc.stderr
    assert not any(tmp_path.iterdir())  # no --out-dir and no staging directory


@pytest.mark.parametrize(
    "argv,code",
    [
        (["noncomposition", "--kmin", "-1000000000"], 2),  # not a k list of 10^9 values
        (["ejemplo-growth", "--witness-kmin", "-1000000000"], 2),
        (["superpose-exp", "--kmax", "-1", "--truncation", "1000000000"], 2),
    ],
)
def test_experiment_k_ranges_are_checked_before_they_are_built(tmp_path, argv, code):
    proc = _run_cli("experiment", *argv, "--out-dir", str(tmp_path / "run"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_superpose_rejects_powers_past_the_limit(tmp_path):
    # a 1-term input at --kmax the superpose-powers limit: (kmax + 1) x 1 slots
    # is the limit + 1; the default --kmax 8 holds 8 x 10^5 input terms
    assert 9 * 800_000 <= LIMIT["superpose-powers"]
    path = tmp_path / "one.json"
    save_series(DirichletSeries(np.array([0.5 + 0j])), str(path))
    out = tmp_path / "sup.json"
    argv = ["superpose", "entire", "--in", str(path), "--function", "inv-factorial",
            "--kmax", str(LIMIT["superpose-powers"]), "--out", str(out)]
    proc = _run_cli(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "beyond desk scale" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["one.json"]
    argv[argv.index("--kmax") + 1] = "40"
    assert main(argv) == 0 and out.exists()


def test_nonextension_past_the_sieve_range_is_domain_error(tmp_path):
    # the sieve for 10^11 primes would reach past 2^31, the int32 range of
    # the extension's steps; the nonextension-nmax row refuses it before the sieve
    out_dir = tmp_path / "ne"
    proc = _run_cli(
        "experiment", "nonextension", "--nmax", "100000000000", "--out-dir", str(out_dir)
    )
    assert proc.returncode == 3, proc.stderr
    assert "--nmax = 100000000000 is beyond desk scale" in proc.stderr
    assert not any(tmp_path.iterdir())


class _Checked(Exception):
    pass


def _stop_after(check):
    """check, then stop the run: a run that raises _Checked passed every bound."""
    def checked(*args):
        check(*args)
        raise _Checked

    return checked


def test_superpose_coeffs_count_against_the_power_slots(series_file, tmp_path, monkeypatch):
    # --coeffs once had no bound: len(b) x the input's truncation is checked
    # as (--kmax + 1) x truncation is by superpose entire
    assert LIMIT["superpose-coeffs"] == LIMIT["superpose-powers"]
    d, path = series_file
    out = tmp_path / "sup.json"
    at = LIMIT["superpose-coeffs"] // d.truncation
    argv = ["superpose", "poly", "--in", str(path), "--out", str(out), "--coeffs"]
    assert main([*argv, ";".join(["0.5"] * (at + 1))]) == 3
    monkeypatch.setattr(cli, "_check_bounds", _stop_after(cli._check_bounds))
    with pytest.raises(_Checked):
        main([*argv, ";".join(["0.5"] * at)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.json"]


# Command lines per command as typed: each row is isolated from one of them by
# one flag.  {long} is an input of LONG terms: on TERMS, superpose entire's
# --kmax reaches superpose-kmax long before superpose-powers.
LONG = 1000
BASES = {
    "norms": [["norms", "--in", "{series}", "--p", p, "--k", k, "--truncation", "64",
               "--out", "{out}"]
              for p, k in (("4", "1..3"), (str(P_MAX), "1..3"), ("4", "1..1000"))],
    "compose": [["compose", "--in", "{series}", "--symbol", "{symbol}", "--truncation", "64",
                 "--out", "{out}"]],
    "superpose poly": [["superpose", "poly", "--in", "{series}", "--coeffs", "1;1",
                        "--out", "{out}"]],
    "superpose entire": [["superpose", "entire", "--in", "{series}", "--function",
                          "inv-factorial", "--kmax", "4", "--out", "{out}"],
                         ["superpose", "entire", "--in", "{long}", "--function",
                          "inv-factorial", "--kmax", "4", "--out", "{out}"]],
    "inequality-suite": [["--count", "2", "--support", "5"]],
    "bohr-parseval": [["--samples", "64", "--trials", "1", "--n-vars", "2", "--terms", terms]
                      for terms in ("3", "16")],
    "nonextension": [["--nmax", "1000"]],
    "ejemplo-growth": [["--truncation", "200", "--kmax", "2"]],
    "noncomposition": [["--kmin", "40", "--kmax", "45"]],
    "superpose-exp": [["--truncation", "50", "--kmax", "4", "--m-list", "1,2"]],
}
for _name in cli.EXPERIMENTS:
    BASES[f"experiment {_name}"] = [["experiment", _name, *flags, "--out-dir", "{out}"]
                                    for flags in BASES.pop(_name)]


def _edge(row):
    """(argv at the limit, argv one step past it, the input's truncation): one
    size flag of a base command line set by cli_bounds.edge, with every other
    row inside its limit."""
    for base in BASES[row.command]:
        terms = LONG if "{long}" in base else TERMS
        for flag in size_flags(row):
            values = edge(row, base, flag, terms)
            if values is None:
                continue
            at, past = (with_flag(base, flag, value) for value in values)
            if refusal(at, terms) is None and refusal(past, terms) == message(row, past, terms):
                return at, past, terms
    raise AssertionError(f"no command line of BASES isolates {row.name}")


@pytest.fixture()
def bound_inputs(tmp_path, rng):
    names = {"series": str(tmp_path / "series.json"), "symbol": str(tmp_path / "symbol.json"),
             "long": str(tmp_path / "long.json"), "out": str(tmp_path / "out")}
    for name, terms in (("series", TERMS), ("long", LONG)):
        save_series(DirichletSeries(rng.normal(size=terms) + 1j * rng.normal(size=terms)),
                    names[name])
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05], dtype=np.complex128)))
    with open(names["symbol"], "w") as f:
        json.dump(symbol_to_json(phi), f)
    return names


@pytest.mark.parametrize("row", BOUNDS, ids=[row.name for row in BOUNDS])
def test_every_bound_passes_its_limit_and_refuses_one_step_past(
    row, bound_inputs, tmp_path, monkeypatch, capsys
):
    *argvs, terms = _edge(row)
    at, past = ([arg.format(**bound_inputs) for arg in argv] for argv in argvs)
    inputs = ["long.json", "series.json", "symbol.json"]
    assert main(past) == 3
    assert capsys.readouterr().err == f"error: {message(row, past, terms)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs
    monkeypatch.setattr(cli, "_check_bounds", _stop_after(cli._check_bounds))
    with pytest.raises(_Checked):
        main(at)
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize(
    "argv,truncation",
    [
        # the benchmark's calls: norms on 30-term inputs, compose on 4096 terms
        (["norms", "--in", "x", "--p", "8", "--k", "1..8", "--truncation", str(30**4)], 30),
        (["compose", "--in", "x", "--symbol", "y", "--out", "z"], 4096),
        # every experiment at its defaults
        *[(["experiment", name], None) for name in cli.EXPERIMENTS],
        # superpose at its default --kmax 8 on 8 x 10^5 input terms
        (["superpose", "entire", "--in", "x", "--function", "exp-kk", "--out", "z"], 800_000),
    ],
)
def test_defaults_and_benchmark_calls_lie_inside_every_bound(argv, truncation):
    assert refusal(argv, truncation) is None


# each experiment's flags at their defaults, with the types the shared
# parser of all experiments once gave them
DEFAULTS = {
    "inequality-suite": {"seed": 1234, "count": 100, "support": 100},
    "bohr-parseval": {"seed": 1234, "samples": 100000, "trials": 10, "n_vars": 3, "terms": 20,
                      "k": 1, "p": 2},
    "nonextension": {"nmax": 1000000},
    "ejemplo-growth": {"truncation": 100000, "m": 4, "kmax": 6, "delta": 0.3, "witness_m": 1,
                       "witness_kmin": 20, "witness_kmax": 60},
    "noncomposition": {"kmin": 40, "kmax": 200, "delta": 0.05, "epsilon": 0.05, "cc": 1.2,
                       "cprime": 1.6},
    "superpose-exp": {"truncation": 2000, "kmax": 8, "m_list": "1,2,4"},
}


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_an_experiment_parses_its_own_flags_at_their_defaults(name):
    args = vars(cli.parse_args(["experiment", name]))
    assert args.pop("func") is cli._cmd_experiment
    want = {"command": "experiment", "name": name, "full_command": f"experiment {name}",
            "out_dir": ".", **DEFAULTS[name]}
    assert {k: (v, type(v)) for k, v in args.items()} == {k: (v, type(v)) for k, v in want.items()}


# every flag some experiment reads, with its default there
EXPERIMENT_FLAGS = {flag: str(default) for _, flags in cli.EXPERIMENTS.values()
                    for flag, _, default in flags}
FOREIGN = [(name, flag) for name, (_, flags) in cli.EXPERIMENTS.items()
           for flag in EXPERIMENT_FLAGS if flag not in [row[0] for row in flags]]


@pytest.mark.parametrize("name,flag", FOREIGN, ids=[f"{name}{flag}" for name, flag in FOREIGN])
def test_an_experiment_refuses_a_flag_it_does_not_read(tmp_path, capsys, name, flag):
    # the 105 pairs of 6 experiments x 22 flags that no run read once exited 0
    assert len(FOREIGN) == 105
    with pytest.raises(SystemExit) as exc:
        main(["experiment", name, flag, EXPERIMENT_FLAGS[flag], "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "nonextension", "--nm", "1000"],  # once read as --nmax
        ["experiment", "ejemplo-growth", "--witness-kma", "30"],
        ["experiment", "--nmax", "1000", "nonextension"],
        ["experiment", "--out-dir", "{out}", "nonextension", "--nmax", "1000"],
        ["norms", "--in", "{series}", "--trunc", "64", "--out", "{out}"],
        ["superpose", "poly", "--in", "{series}", "--coeff", "1;1", "--out", "{out}"],
    ],
)
def test_abbreviated_and_misplaced_flags_are_usage_errors(series_file, tmp_path, capsys, argv):
    d, path = series_file
    names = {"series": str(path), "out": str(tmp_path / "out")}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**names) for arg in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["series.json"]


@pytest.mark.parametrize(
    "mode",
    [
        [],  # once exit 2 with "unknown entire-coefficient tag None"
        # each mode, its own flags, then one flag that only the other mode reads
        ["poly", "--coeffs", "1;1", "--function", "exp-kk"],
        ["poly", "--coeffs", "1;1", "--kmax", "5"],  # once exit 0, --kmax unread
        ["poly", "--coeffs", "1;1", "--m", "3"],  # once exit 0, --m unread
        ["poly", "--coeffs", "1;1", "--cc", "9"],  # once exit 0, --cc unread
        ["poly", "--coeffs", "1;1", "--diagnostics", "{out}.csv"],
        ["entire", "--function", "exp-kk", "--coeffs", "1;1"],
    ],
)
def test_superpose_takes_one_mode_and_diagnostics_only_with_entire(
    series_file, tmp_path, capsys, mode
):
    d, path = series_file
    out = str(tmp_path / "out")
    argv = ["superpose", *mode[:1], "--in", str(path),
            *[arg.format(out=out) for arg in mode[1:]], "--out", out]
    with pytest.raises(SystemExit) as exc:  # argparse refuses the command line
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.split("error: ", 1)[1]
    assert (f"unrecognized arguments: {mode[-2]} " if mode else "argument mode: ") in err
    assert [p.name for p in tmp_path.iterdir()] == ["series.json"]


def _readme_number(text):
    """'1 000', '10⁶' or '3.5·10⁸' as a number."""
    power = re.fullmatch(r"(?:([\d.]+)·)?10([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", text)
    if power is None:
        return int(text.replace(" ", ""))
    exponent = int(power[2].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")))
    return float(power[1] or 1) * 10**exponent


def test_readme_lists_every_bound_with_its_limit():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        rows = [line.split("|")[1:-1] for line in f if line.startswith("| `")]
    table = {cells[0].strip().strip("`"): [c.strip().strip("`") for c in cells[1:]]
             for cells in rows}
    for row in BOUNDS:
        assert row.name in table, row.name
        listed_command, flags, limit = table[row.name]
        assert listed_command == row.command
        assert flags == row.flags
        assert _readme_number(limit) == row.limit, row.name


def test_readme_lists_every_experiment_with_its_flags_and_defaults():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("### Experiments", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    listed = {cells[0].strip().strip("`"): re.findall(r"`(--[a-z-]+) ([^`]+)`", cells[1])
              for cells in rows}
    assert list(listed) == list(cli.EXPERIMENTS)
    for name, (_, flags) in cli.EXPERIMENTS.items():
        assert listed[name] == [(flag, str(default)) for flag, _, default in flags], name


def test_readme_usage_lines_parse():
    # every concrete command line of the README, its [optional] flags given
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = f.read().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hplus ") and "<name>" not in line]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
        assert cli.parse_args(argv[1:]).command == argv[1], line


def test_cli_has_one_raise_of_beyond_desk_scale_and_no_limit_constants():
    # every size bound is a row of BOUNDS, checked by _check_bounds alone
    with open(cli.__file__) as f:
        tree = ast.parse(f.read())
    raised = [
        node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        for node in ast.walk(tree) if isinstance(node, ast.Raise)
    ]
    raises = [exc for exc in raised if getattr(exc, "id", None) == "BeyondDeskScale"]
    assert len(raises) == 1
    constants = [
        target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z0-9_]*_LIMIT", target.id)
    ]
    assert constants == []
