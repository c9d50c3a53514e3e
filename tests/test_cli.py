import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hplus
from hplus import __version__, bohr
from hplus.cli import (
    BOHR_MONOMIAL_LIMIT,
    BOHR_SAMPLE_LIMIT,
    BOHR_TERMS_LIMIT,
    BOHR_VARS_LIMIT,
    COMPOSE_TRUNCATION_LIMIT,
    EJEMPLO_TRUNCATION_LIMIT,
    EJEMPLO_WORK_LIMIT,
    INT_LIST_LIMIT,
    K_RANGE_LIMIT,
    NORMS_P_LIMIT,
    NORMS_TRUNCATION_LIMIT,
    NORMS_WEIGH_LIMIT,
    NORMS_WORK_LIMIT,
    SUITE_COEFF_LIMIT,
    SUITE_SUPPORT_LIMIT,
    SUPERPOSE_WORK_LIMIT,
    _parse_int_list,
    main,
)
from hplus.operators import Symbol, character_to_json, symbol_to_json
from hplus.series import (
    DirichletSeries,
    load_series,
    seminorm_2,
    series_from_json,
    series_to_json,
    translate,
)
from hplus.superposition import composition_criterion


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
    assert main(["norms", "--in", str(path), "--k", "3..1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "k",
    [f"1..{INT_LIST_LIMIT + 1}", ",".join(["1"] * (INT_LIST_LIMIT + 1)), "1..100000000"],
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
        if limit % n == 0 and limit // n <= NORMS_TRUNCATION_LIMIT
    )


@pytest.mark.parametrize("p", [4, 8])
def test_norms_rejects_work_past_the_limit(series_file, tmp_path, p):
    # len(ks) x truncation = NORMS_WEIGH_LIMIT + 1 at this p, and
    # (p/2 - 1) x truncation = NORMS_WORK_LIMIT + 1 at a larger p
    d, path = series_file
    out = tmp_path / "norms.csv"
    n, trunc = _norms_sizes(NORMS_WEIGH_LIMIT + 1, INT_LIST_LIMIT)
    argv = ["norms", "--in", str(path), "--p", str(p), "--k", f"1..{n}",
            "--truncation", str(trunc), "--out", str(out)]
    assert main(argv) == 3
    products, trunc = _norms_sizes(NORMS_WORK_LIMIT + 1, NORMS_P_LIMIT // 2 - 1)
    argv = ["norms", "--in", str(path), "--p", str(2 * products + 2), "--k", "1",
            "--truncation", str(trunc), "--out", str(out)]
    assert main(argv) == 3
    argv = ["norms", "--in", str(path), "--p", str(NORMS_P_LIMIT + 2), "--k", "1",
            "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()


def test_norms_runs_at_each_work_limit(tmp_path):
    # a one-term input keeps every power one term long, so the calls at the
    # limits are quick; one slot past either limit is refused
    path = tmp_path / "one.json"
    save_series(DirichletSeries.monomial(1, 0.5 - 0.25j, 1), str(path))
    out = tmp_path / "norms.csv"
    n, trunc = _norms_sizes(NORMS_WEIGH_LIMIT, INT_LIST_LIMIT)
    argv = ["norms", "--in", str(path), "--p", "4", "--k", f"1..{n}", "--out", str(out)]
    assert main([*argv, "--truncation", str(trunc)]) == 0
    assert len(out.read_text().splitlines()) == n + 1
    assert main([*argv, "--truncation", str(trunc + 1)]) == 3
    products, trunc = _norms_sizes(NORMS_WORK_LIMIT, NORMS_P_LIMIT // 2 - 1)
    argv = ["norms", "--in", str(path), "--p", str(2 * products + 2), "--k", "1,2",
            "--out", str(out)]
    assert main([*argv, "--truncation", str(trunc)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("1", "true"), ("2", "true")]
    assert all(abs(float(row[2]) - abs(0.5 - 0.25j)) <= 1e-15 for row in rows)
    assert main([*argv, "--truncation", str(trunc + 1)]) == 3


def test_norms_bounds_products_and_weighing_apart(tmp_path, rng):
    # p/2 - 1 = 1 product at 4 * 10^6 and 13 weighings of it: once refused
    # as 13 x 1 x 4 * 10^6 > NORMS_WORK_LIMIT, now inside both bounds
    assert 13 * NORMS_TRUNCATION_LIMIT <= NORMS_WEIGH_LIMIT
    assert NORMS_TRUNCATION_LIMIT <= NORMS_WORK_LIMIT < 13 * NORMS_TRUNCATION_LIMIT
    path = tmp_path / "poly.json"
    save_series(DirichletSeries(rng.normal(size=30) + 1j * rng.normal(size=30)), str(path))
    out = tmp_path / "norms.csv"
    argv = ["norms", "--in", str(path), "--p", "4", "--k", "1..13",
            "--truncation", str(NORMS_TRUNCATION_LIMIT), "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 14


def test_default_lists_lie_inside_the_bounds():
    assert len(_parse_int_list("1..8")) <= INT_LIST_LIMIT
    assert len(_parse_int_list("1,2,4")) <= INT_LIST_LIMIT
    # the sparse-algebra benchmark: norms --p 8 --k 1..8 at 30^4
    assert 3 * 30**4 <= NORMS_WORK_LIMIT and 8 * 30**4 <= NORMS_WEIGH_LIMIT
    assert 8 <= NORMS_P_LIMIT
    # the default k list at p = 4 and the largest output truncation
    assert NORMS_TRUNCATION_LIMIT <= NORMS_WORK_LIMIT
    assert 8 * NORMS_TRUNCATION_LIMIT <= NORMS_WEIGH_LIMIT


def test_superpose_exp_rejects_m_lists_past_the_limit(tmp_path):
    out_dir = tmp_path / "se"
    argv = ["experiment", "superpose-exp", "--out-dir", str(out_dir),
            "--m-list", ",".join(["1"] * (INT_LIST_LIMIT + 1))]
    assert main(argv) == 3
    assert not any(tmp_path.iterdir())


def test_output_onto_a_directory_leaves_nothing_behind(series_file, tmp_path):
    # norms once left <dir>.tmp-<pid>; superpose left <dir>.part and its --out
    d, path = series_file
    target = tmp_path / "taken"
    target.mkdir()
    assert main(["norms", "--in", str(path), "--k", "1..2", "--out", str(target)]) == 2
    out = tmp_path / "sup.json"
    argv = ["superpose", "--in", str(path), "--entire", "exp-kk", "--kmax", "4",
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
    ],
)
def test_experiments_reject_empty_and_non_finite_values(tmp_path, argv):
    # each of these once ran to exit 0 with an empty or nan table
    out_dir = tmp_path / "run"
    try:
        rc = main([*argv, "--out-dir", str(out_dir)])
    except SystemExit as exc:  # argparse rejects the flag itself
        rc = exc.code
    assert rc == 2
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


def test_superpose_past_the_float_range_is_domain_error(series_file, tmp_path):
    # exp(-k^k) leaves the float range at k = 144: once an OverflowError traceback
    d, path = series_file
    out = tmp_path / "sup.json"
    argv = ["superpose", "--in", str(path), "--entire", "exp-kk", "--kmax", "1000",
            "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()


@pytest.mark.parametrize("case", ["superpose", "norms"])
def test_products_past_the_float_range_exit_3_without_a_warning(tmp_path, case):
    # once exit 2 ("coefficients must be finite") after numpy's RuntimeWarning
    if case == "superpose":
        # a_1 = 0.50 - 7.86i: a_1^k alone leaves the float range near k = 344
        rng = np.random.default_rng(0)
        n = np.arange(1, 4097)
        coeffs = (rng.normal(size=4096) + 1j * rng.normal(size=4096)) * 4 / n**2
        argv = ["superpose", "--entire", "inv-factorial", "--kmax", "1000"]
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
            str(NORMS_TRUNCATION_LIMIT + 1), "--out", str(out)]
    assert main(argv) == 3
    sym_path = tmp_path / "symbol.json"
    phi = Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05], dtype=np.complex128)))
    sym_path.write_text(json.dumps(symbol_to_json(phi)))
    argv = ["compose", "--in", str(path), "--symbol", str(sym_path),
            "--truncation", str(COMPOSE_TRUNCATION_LIMIT + 1), "--out", str(out)]
    assert main(argv) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.json", "symbol.json"]
    # the sparse-algebra benchmark runs norms at 30^4
    assert 30**4 <= NORMS_TRUNCATION_LIMIT


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
    """(samples, trials, terms): samples x trials x terms = BOHR_MONOMIAL_LIMIT + 1, the
    other two bounds kept."""
    work = BOHR_MONOMIAL_LIMIT + 1
    for terms in range(2, BOHR_TERMS_LIMIT + 1):
        for trials in range(1, BOHR_TERMS_LIMIT // terms + 1):
            if work % (terms * trials) == 0 and work // terms <= BOHR_SAMPLE_LIMIT:
                return work // (terms * trials), trials, terms
    raise AssertionError("no factorization of BOHR_MONOMIAL_LIMIT + 1 fits")


@pytest.mark.parametrize(
    "flags,inside",
    [
        ([("--n-vars", BOHR_VARS_LIMIT), ("--terms", 3)], True),
        ([("--n-vars", BOHR_VARS_LIMIT + 1), ("--terms", 3)], False),
        # once drawing terms for more than 8 s
        ([("--n-vars", 20), ("--terms", 100_000_000), ("--samples", 1), ("--trials", 1)], False),
        # once sieving up to about 10^9 before it failed
        ([("--n-vars", 10**9), ("--samples", 1), ("--trials", 1)], False),
        ([("--n-vars", 8), ("--samples", 1), ("--trials", 2), ("--terms", BOHR_TERMS_LIMIT // 2)],
         True),
        ([("--n-vars", 8), ("--samples", 1), ("--trials", 1), ("--terms", BOHR_TERMS_LIMIT + 1)],
         False),
        # samples x trials and samples x trials x terms both at their limits
        ([("--samples", BOHR_SAMPLE_LIMIT // 10), ("--trials", 10),
          ("--terms", BOHR_MONOMIAL_LIMIT // BOHR_SAMPLE_LIMIT)], True),
        ([("--samples", BOHR_SAMPLE_LIMIT + 1), ("--trials", 1), ("--terms", 1)], False),
        (list(zip(("--samples", "--trials", "--terms"), _monomials_past_the_limit())), False),
    ],
)
def test_bohr_parseval_sizes_at_and_past_their_limits(tmp_path, monkeypatch, flags, inside):
    # the sieve is the first work: a run inside every bound reaches it, a run
    # past one exits 3 before it and before any draw
    assert BOHR_TERMS_LIMIT % 2 == 0 and BOHR_SAMPLE_LIMIT % 10 == 0
    assert BOHR_MONOMIAL_LIMIT % BOHR_SAMPLE_LIMIT == 0
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
    # the m = 4 tail majorant needs primes up to 20^8: exit 3 once m = 1 and
    # m = 2 have run, with none of their files left behind
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
    from hplus.operators import Character

    chi_path.write_text(json.dumps(character_to_json(Character(vals))))
    out = tmp_path / "twisted.json"
    rc = main([
        "vertical-limit", "--in", str(path), "--character", str(chi_path),
        "--out", str(out),
    ])
    assert rc == 0
    tw = load_series(str(out))
    assert seminorm_2(tw, 2) == pytest.approx(seminorm_2(d, 2), rel=1e-12)


def test_superpose_polynomial_command(series_file, tmp_path):
    d, path = series_file
    out = tmp_path / "sup.json"
    rc = main([
        "superpose", "--in", str(path), "--coeffs", "1,0;0,0;1,0", "--out", str(out),
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
        (["--support", str(SUITE_SUPPORT_LIMIT + 1)], 3),
        (["--count", str(SUITE_COEFF_LIMIT // 100 + 1), "--support", "100"], 3),
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
        ["--truncation", str(EJEMPLO_TRUNCATION_LIMIT + 1), "--kmax", "2"],
        ["--kmax", "100000"],  # at the default truncation 10^5
        ["--kmax", str(EJEMPLO_WORK_LIMIT // 1000 + 1), "--truncation", "1000"],
    ],
)
def test_ejemplo_growth_rejects_sizes_before_any_work(tmp_path, flags):
    # the defaults, kmax 6 at truncation 10^5, lie inside both bounds
    assert 100_000 <= EJEMPLO_TRUNCATION_LIMIT and 6 * 100_000 <= EJEMPLO_WORK_LIMIT
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
        # 1 run x (2 + 1) powers x truncation = SUPERPOSE_WORK_LIMIT + 1
        ["superpose-exp", "--m-list", "1", "--kmax", "2",
         "--truncation", str((SUPERPOSE_WORK_LIMIT + 1) // 3)],
        # once a MemoryError traceback building the k list
        ["noncomposition", "--kmax", "1000000000"],
        ["noncomposition", "--kmax", str(K_RANGE_LIMIT + 1)],
        ["ejemplo-growth", "--witness-kmax", str(K_RANGE_LIMIT + 1)],
        ["bohr-parseval", "--samples", str(BOHR_SAMPLE_LIMIT + 1), "--trials", "1"],
        ["bohr-parseval", "--samples", str((BOHR_SAMPLE_LIMIT + 10) // 10)],  # 10 trials
    ],
)
def test_experiment_sizes_past_their_limits_exit_3_before_any_work(tmp_path, argv):
    assert (SUPERPOSE_WORK_LIMIT + 1) % 3 == 0 and BOHR_SAMPLE_LIMIT % 10 == 0
    # the defaults and the benchmark's calls lie inside every bound: superpose-exp
    # 3 runs x 9 powers at 2 000, noncomposition k <= 1 000 (its factorial
    # ladder), the witness k <= 60, bohr-parseval 10 x 10^5 samples of 20 terms
    # in 3 variables
    assert 3 * 9 * 2000 <= SUPERPOSE_WORK_LIMIT and 1000 <= K_RANGE_LIMIT
    assert 60 <= K_RANGE_LIMIT and 10 * 100_000 <= BOHR_SAMPLE_LIMIT
    assert 3 <= BOHR_VARS_LIMIT and 10 * 20 <= BOHR_TERMS_LIMIT
    assert 10 * 100_000 * 20 <= BOHR_MONOMIAL_LIMIT
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
    # a 1-term input at --kmax SUPERPOSE_WORK_LIMIT: (kmax + 1) x 1 slots is
    # the limit + 1; the default --kmax 8 holds 8 x 10^5 input terms
    assert 9 * 800_000 <= SUPERPOSE_WORK_LIMIT
    path = tmp_path / "one.json"
    save_series(DirichletSeries(np.array([0.5 + 0j])), str(path))
    out = tmp_path / "sup.json"
    argv = ["superpose", "--in", str(path), "--entire", "inv-factorial",
            "--kmax", str(SUPERPOSE_WORK_LIMIT), "--out", str(out)]
    proc = _run_cli(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "beyond desk scale" in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["one.json"]
    argv[argv.index("--kmax") + 1] = "40"
    assert main(argv) == 0 and out.exists()


def test_nonextension_past_the_sieve_range_is_domain_error(tmp_path):
    # the sieve for 10^11 primes would reach past 2^31, the int32 range of spf
    out_dir = tmp_path / "ne"
    proc = _run_cli(
        "experiment", "nonextension", "--nmax", "100000000000", "--out-dir", str(out_dir)
    )
    assert proc.returncode == 3, proc.stderr
    assert "int32" in proc.stderr
    assert not any(tmp_path.iterdir())
