"""Bounded fuzz test of the hplus command line.

Each case runs ``python -m hplus.cli`` as its own subprocess, one at a time,
with a timeout.  A case starts from a small valid command line and replaces
one or two of its flags with values drawn around the places where hplus
stops: small valid sizes, each exit-3 limit + 1, 0, negatives, empty
ranges, non-numbers, a superposition past the float range and outputs onto
an existing directory.  No drawn
value asks for much memory: every size past a limit is refused before any
work.  Every case must exit 0, 2 or 3 without a traceback and leave no
temp file or staging directory, and a failed case leaves its directory as
it found it: no output and no new --out-dir.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hplus
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
    SUITE_COEFF_LIMIT,
    SUITE_SUPPORT_LIMIT,
    SUPERPOSE_WORK_LIMIT,
)
from hplus.operators import Character, Symbol, character_to_json, symbol_to_json
from hplus.series import DirichletSeries, series_to_json

SRC = os.path.dirname(os.path.dirname(hplus.__file__))
# stand-ins for paths, resolved per case
EXISTING_DIR = "<existing dir>"
MISSING_FILE = "<missing file>"
BAD = ["0", "-3", "abc"]
LONG_LIST = [f"1..{INT_LIST_LIMIT + 1}", ",".join(["1"] * (INT_LIST_LIMIT + 1))]
# --k 1..n at --truncation t with n * t = NORMS_WEIGH_LIMIT + 1 (each k weighs t slots)
_N_WORK = next(
    n for n in range(2, INT_LIST_LIMIT + 1)
    if (NORMS_WEIGH_LIMIT + 1) % n == 0 and (NORMS_WEIGH_LIMIT + 1) // n <= NORMS_TRUNCATION_LIMIT
)

# subcommand -> (fixed arguments, {flag: (base value, values to draw)})
COMMANDS = {
    "norms": (["--in", "{series}"], {
        "--k": ("1..3", ["2", "1,2,4", "3..1", f"1..{_N_WORK}", *LONG_LIST, *BAD]),
        "--p": ("4", ["2", "8", "3", str(NORMS_P_LIMIT + 2), *BAD]),
        "--truncation": ("64", ["1", str((NORMS_WEIGH_LIMIT + 1) // _N_WORK),
                                str(NORMS_TRUNCATION_LIMIT + 1), *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "compose": (["--in", "{series}", "--symbol", "{symbol}"], {
        "--truncation": ("64", ["1", str(COMPOSE_TRUNCATION_LIMIT + 1), *BAD]),
        "--cutoff": ("8", ["1", *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "superpose": (["--in", "{series}"], {
        "--entire": ("exp-kk", ["exp-kC", "inv-factorial", "abc"]),
        "--coeffs": (None, ["1,0;0,0;1,0", "2", "1;abc"]),
        # (kmax + 1) x the input's 20 terms past SUPERPOSE_WORK_LIMIT
        "--kmax": ("4", ["1", "1000", str(SUPERPOSE_WORK_LIMIT // 20), *BAD]),
        "--m": ("1", ["2", *BAD]),
        "--cc": ("1.2", ["0.5", "nan", *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
        "--diagnostics": ("{out}.csv", [EXISTING_DIR]),
    }),
    "spectrum": ([], {
        "--in": ("{zeroed}", ["{series}", MISSING_FILE, EXISTING_DIR]),
        "--lam": ("1.0", ["-1.0986122886681098", "0,1", "1,2,3", "nan", *BAD]),
        "--tol": ("1e-9", ["1e-3", *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "vertical-limit": ([], {
        "--in": ("{series}", ["{symbol}", MISSING_FILE, EXISTING_DIR]),
        "--character": ("{character}", ["{series}", MISSING_FILE, EXISTING_DIR]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "experiment inequality-suite": ([], {
        "--count": ("2", ["3", str(SUITE_COEFF_LIMIT + 1), *BAD]),
        "--support": ("5", ["1", str(SUITE_SUPPORT_LIMIT + 1), *BAD]),
        "--seed": ("1", BAD),
    }),
    "experiment bohr-parseval": ([], {
        # with --terms 16, the most 2 variables hold, past BOHR_MONOMIAL_LIMIT
        "--samples": ("64", ["1", str(BOHR_MONOMIAL_LIMIT // 16 + 1),
                             str(BOHR_SAMPLE_LIMIT + 1), *BAD]),
        # x the base 3 terms past BOHR_TERMS_LIMIT
        "--trials": ("1", ["2", str(BOHR_TERMS_LIMIT // 3 + 1), str(BOHR_SAMPLE_LIMIT + 1), *BAD]),
        "--n-vars": ("2", ["1", str(BOHR_VARS_LIMIT), str(BOHR_VARS_LIMIT + 1), *BAD]),
        "--terms": ("3", ["1", "16", "17", str(BOHR_TERMS_LIMIT + 1), *BAD]),
        "--k": ("1", ["2", *BAD]),
        "--p": ("2", ["4", "nan", *BAD]),
    }),
    "experiment nonextension": ([], {
        "--nmax": ("1000", ["1", str(2**31), *BAD]),  # 2^31 primes reach past the sieve range
    }),
    "experiment ejemplo-growth": ([], {
        "--truncation": ("200", ["1", str(EJEMPLO_TRUNCATION_LIMIT + 1), *BAD]),
        "--kmax": ("2", ["1", str(EJEMPLO_WORK_LIMIT + 1), *BAD]),
        "--m": ("2", ["1", *BAD]),
        "--witness-m": ("1", ["2", *BAD]),
        "--witness-kmin": ("20", ["2", "30", *BAD]),
        "--witness-kmax": ("22", ["21", str(K_RANGE_LIMIT + 1), *BAD]),
        "--delta": ("0.3", ["0.9", "1.5", *BAD]),
    }),
    "experiment noncomposition": ([], {
        "--kmin": ("40", ["1", *BAD]),
        "--kmax": ("45", ["40", "39", str(K_RANGE_LIMIT + 1), *BAD]),
        "--cc": ("1.2", ["1.9", "nan", *BAD]),
        "--cprime": ("1.6", ["1.1", "1.9", *BAD]),
        "--epsilon": ("0.05", ["0.5", *BAD]),
        "--delta": ("0.05", ["0.5", *BAD]),
    }),
    "experiment superpose-exp": ([], {
        # 1 run x (1 + 1) powers, the least drawn, past SUPERPOSE_WORK_LIMIT
        "--truncation": ("50", ["1", str(SUPERPOSE_WORK_LIMIT // 2 + 1), *BAD]),
        "--kmax": ("4", ["1", "40", *BAD]),
        "--m-list": ("1,2", ["1", "4", "3..1", *LONG_LIST, *BAD]),
    }),
}
for _name, (_fixed, _flags) in COMMANDS.items():
    if _name.startswith("experiment"):
        _flags["--out-dir"] = ("{out}", [EXISTING_DIR, "{out}/nested/deeper", "{series}"])

LEFTOVER_MARKS = (".tmp-", ".part", ".hplus-experiment-")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    rng = np.random.default_rng(3)
    where = tmp_path_factory.mktemp("fuzz-inputs")
    coeffs = rng.normal(size=20) + 1j * rng.normal(size=20)
    docs = {
        "series": series_to_json(DirichletSeries(coeffs)),
        "zeroed": series_to_json(DirichletSeries(np.concatenate([[0.0], coeffs[1:]]))),
        "symbol": symbol_to_json(Symbol(1, DirichletSeries(np.array([0.2 + 0.1j, 0.05])))),
        "character": character_to_json(Character(np.exp(1j * np.linspace(0.1, 1.0, 10)))),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(where / f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(doc, f)
    return paths


def _entries(root):
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, dirs, files in os.walk(root) for n in dirs + files)


@settings(max_examples=32, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_ends_cleanly_on_drawn_flags(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    fixed, flags = COMMANDS[command]
    changed = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2, unique=True),
                        label="flags")
    values = {flag: base for flag, (base, _) in flags.items()}
    for flag in changed:
        values[flag] = data.draw(st.sampled_from(flags[flag][1]), label=flag)

    with tempfile.TemporaryDirectory() as case:
        existing = os.path.join(case, "existing")
        os.mkdir(existing)
        names = dict(inputs, out=os.path.join(case, "out"))
        special = {EXISTING_DIR: existing, MISSING_FILE: os.path.join(case, "missing.json")}
        argv = command.split() + [arg.format(**names) for arg in fixed]
        for flag, value in values.items():
            if value is not None:
                argv += [flag, special.get(value, value).format(**names)]
        before = _entries(case)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "hplus.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=env)

        assert proc.returncode in (0, 2, 3), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        after = _entries(case)
        assert not [e for e in after if any(m in e for m in LEFTOVER_MARKS)], (argv, after)
        if proc.returncode != 0:
            assert after == before, (argv, proc.stderr, after)  # no output, no new --out-dir
