import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hplus
from hplus import __version__
from hplus.cli import main
from hplus.operators import Symbol, character_to_json, symbol_to_json
from hplus.series import (
    DirichletSeries,
    load_series,
    save_series,
    seminorm_2,
    series_from_json,
    translate,
)
from hplus.superposition import composition_criterion


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
    "flags", [["--n-vars", "0"], ["--n-vars", "1", "--terms", "5"], ["--terms", "0"]]
)
def test_bohr_parseval_rejects_unreachable_term_counts(tmp_path, flags):
    # the exponent draw has 4^n_vars distinct values: these would never finish
    out_dir = tmp_path / "bp"
    src = os.path.dirname(os.path.dirname(hplus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hplus.cli", "experiment", "bohr-parseval",
         "--out-dir", str(out_dir), *flags],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_bohr_parseval_accepts_every_distinct_exponent(tmp_path):
    out_dir = tmp_path / "bp"
    argv = ["experiment", "bohr-parseval", "--out-dir", str(out_dir), "--n-vars", "1",
            "--terms", "4", "--trials", "1", "--samples", "64"]
    assert main(argv) == 0
    assert (out_dir / "estimates.csv").exists()


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
    tails = (tmp_path / "tails_m1.csv").read_text().splitlines()
    assert tails[0] == "k,value,target,margin"
    assert len(tails) == 7  # header + k_from 0..5


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


def test_experiment_inequality_suite_small(tmp_path):
    rc = main([
        "experiment", "inequality-suite", "--out-dir", str(tmp_path),
        "--count", "6", "--support", "20", "--seed", "7",
    ])
    assert rc == 0
    for name in ("seminorm_chain.csv", "algebra.csv", "power_chain.csv"):
        body = (tmp_path / name).read_text()
        assert "false" not in body.split("\n", 1)[1]


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
