"""Bounded fuzz test of the hplus command line.

Each case runs ``python -m hplus.cli`` as its own subprocess, one at a time,
with a timeout.  A case starts from a small valid command line and replaces
one or two of its flags with values drawn around the places where hplus
stops: small valid sizes, each exit-3 limit + 1, 0, negatives, empty
ranges, non-numbers, a superposition past the float range, outputs onto
an existing directory and, for each experiment and each superpose mode, a
flag that only another experiment or the other mode reads, which it must
refuse with exit 2.  The values past the limits
come from the rows of ``hplus.cli.BOUNDS``, so a new row is drawn without a
new case here.  No
drawn value asks for much memory: every size past a limit is refused before
any work.  Every case must exit 0, 2 or 3 without a traceback and leave no
temp file or staging directory, and a failed case leaves its directory as
it found it: no output and no new --out-dir.
"""

import contextlib
import io
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
from cli_bounds import edge, size_flags, text
from hplus.cli import BOUNDS, EXPERIMENTS
from hplus.operators import Character, Symbol, character_to_json, symbol_to_json
from hplus.series import DirichletSeries, series_to_json

SRC = os.path.dirname(os.path.dirname(hplus.__file__))
# stand-ins for paths, resolved per case
EXISTING_DIR = "<existing dir>"
MISSING_FILE = "<missing file>"
BAD = ["0", "-3", "abc"]
LIMIT = {row.name: row.limit for row in BOUNDS}
LONG_LIST = [f"1..{LIMIT['norms-k'] + 1}", ",".join(["1"] * (LIMIT["norms-k"] + 1))]
# --k 1..n at --truncation t with n * t = the norms-weigh limit + 1 (each k weighs t slots)
_N_WORK = next(
    n for n in range(2, LIMIT["norms-k"] + 1)
    if (LIMIT["norms-weigh"] + 1) % n == 0
    and (LIMIT["norms-weigh"] + 1) // n <= LIMIT["norms-truncation"]
)

# subcommand -> (fixed arguments, {flag: (base value, values to draw)})
COMMANDS = {
    "norms": (["--in", "{series}"], {
        "--k": ("1..3", ["2", "1,2,4", "3..1", f"1..{_N_WORK}", *LONG_LIST, *BAD]),
        "--p": ("4", ["2", "8", "3", str(2 * LIMIT["norms-p"] + 2), *BAD]),
        "--truncation": ("64", ["1", str((LIMIT["norms-weigh"] + 1) // _N_WORK),
                                str(LIMIT["norms-truncation"] + 1), *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "compose": (["--in", "{series}", "--symbol", "{symbol}"], {
        "--truncation": ("64", ["1", str(LIMIT["compose-truncation"] + 1), *BAD]),
        "--cutoff": ("8", ["1", *BAD]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "superpose poly": (["--in", "{series}"], {
        "--coeffs": ("1,0;0,0;1,0", ["2", "1;abc"]),
        "--out": ("{out}", [EXISTING_DIR]),
    }),
    "superpose entire": (["--in", "{series}"], {
        "--function": ("exp-kk", ["exp-kC", "inv-factorial", "abc"]),
        # (kmax + 1) x the input's 20 terms past the superpose-powers limit
        "--kmax": ("4", ["1", "1000", str(LIMIT["superpose-powers"] // 20), *BAD]),
        "--m": ("1", ["2", *BAD]),
        # read with exp-kC alone, so not passed by the base line
        "--cc": (None, ["1.2", "0.5", "nan", *BAD]),
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
        "--count": ("2", ["3", str(LIMIT["suite-coeffs"] + 1), *BAD]),
        "--support": ("5", ["1", str(LIMIT["suite-support"] + 1), *BAD]),
        "--seed": ("1", BAD),
    }),
    "experiment bohr-parseval": ([], {
        # with --terms 16, the most 2 variables hold, past the bohr-monomials limit
        "--samples": ("64", ["1", str(LIMIT["bohr-monomials"] // 16 + 1),
                             str(LIMIT["bohr-samples"] + 1), *BAD]),
        # x the base 3 terms past the bohr-terms limit
        "--trials": ("1", ["2", str(LIMIT["bohr-terms"] // 3 + 1),
                           str(LIMIT["bohr-samples"] + 1), *BAD]),
        "--n-vars": ("2", ["1", str(LIMIT["bohr-vars"]), str(LIMIT["bohr-vars"] + 1), *BAD]),
        "--terms": ("3", ["1", "16", "17", str(LIMIT["bohr-terms"] + 1), *BAD]),
        "--k": ("1", ["2", *BAD]),
        "--p": ("2", ["4", "nan", *BAD]),
    }),
    "experiment nonextension": ([], {
        "--nmax": ("1000", ["1", str(2**31), *BAD]),  # 2^31 primes reach past the sieve range
    }),
    "experiment ejemplo-growth": ([], {
        "--truncation": ("200", ["1", str(LIMIT["ejemplo-truncation"] + 1), *BAD]),
        "--kmax": ("2", ["1", str(LIMIT["ejemplo-work"] + 1), *BAD]),
        "--m": ("2", ["1", *BAD]),
        "--witness-m": ("1", ["2", *BAD]),
        "--witness-kmin": ("20", ["2", "30", *BAD]),
        "--witness-kmax": ("22", ["21", str(LIMIT["ejemplo-witness-k"] + 1), *BAD]),
        "--delta": ("0.3", ["0.9", "1.5", *BAD]),
    }),
    "experiment noncomposition": ([], {
        "--kmin": ("40", ["1", *BAD]),
        "--kmax": ("45", ["40", "39", str(LIMIT["noncomposition-k"] + 1), *BAD]),
        "--cc": ("1.2", ["1.9", "nan", *BAD]),
        "--cprime": ("1.6", ["1.1", "1.9", *BAD]),
        "--epsilon": ("0.05", ["0.5", *BAD]),
        "--delta": ("0.05", ["0.5", *BAD]),
    }),
    "experiment superpose-exp": ([], {
        # 1 run x (1 + 1) powers, the least drawn, past the superpose-exp-powers limit
        "--truncation": ("50", ["1", str(LIMIT["superpose-exp-powers"] // 2 + 1), *BAD]),
        "--kmax": ("4", ["1", "40", *BAD]),
        "--m-list": ("1,2", ["1", "4", "3..1", *LONG_LIST, *BAD]),
    }),
}
# command -> the flags it does not read, drawn only with their base values of
# the command that reads them (the first drawn value where the base line
# leaves a flag out): for an experiment, the one flag of the next experiment
# in cli.EXPERIMENTS it does not read; for a superpose mode, every flag that
# only the other mode reads
FOREIGN = {}
_names = list(EXPERIMENTS)
for _name, _next in zip(_names, _names[1:] + _names[:1]):
    _own = [flag for flag, _, _ in EXPERIMENTS[_name][1]]
    _flag, _value = next((flag, str(default)) for flag, _, default in EXPERIMENTS[_next][1]
                         if flag not in _own)
    FOREIGN[f"experiment {_name}"] = {_flag: _value}
for _mode, _other in (("poly", "entire"), ("entire", "poly")):
    _own, _theirs = COMMANDS[f"superpose {_mode}"][1], COMMANDS[f"superpose {_other}"][1]
    FOREIGN[f"superpose {_mode}"] = {flag: values[0] if base is None else base
                                     for flag, (base, values) in _theirs.items()
                                     if flag not in _own}
for _command, _flags in list(FOREIGN.items()):
    for _flag, _value in _flags.items():
        COMMANDS[_command][1][_flag] = (None, [_value])
for _name, (_fixed, _flags) in COMMANDS.items():
    if _name.startswith("experiment"):
        _flags["--out-dir"] = ("{out}", [EXISTING_DIR, "{out}/nested/deeper", "{series}"])


def _past_every_draw(command, fixed, flags):
    """{flag: values}: for each row of command and each flag it reads, the
    least value past the row's limit whatever another flag it reads is drawn
    as (a drawn value that is a usage error is skipped)."""
    base = command.split() + fixed
    base += [arg for flag, (value, _) in flags.items() if value is not None for arg in (flag, value)]
    found = {}
    for row in BOUNDS:
        if row.command != command:
            continue
        # a flag written with characters per value (--coeffs) cannot hold a
        # value past a limit in one argument
        drawn = [f for f in size_flags(row) if f in flags and len(text(f, 2**20)) < 1000]
        for flag in drawn:
            values = []
            for other in [None] + [f for f in drawn if f != flag]:
                for value in flags[other][1] if other else [None]:
                    argv = base + [other, value] if other else base
                    try:
                        with contextlib.redirect_stderr(io.StringIO()):  # argparse's usage
                            at_past = edge(row, argv, flag)
                    except (SystemExit, ValueError):
                        continue
                    if at_past is not None:
                        values.append(at_past[1])
            if values:
                found.setdefault(flag, []).append(text(flag, max(values)))
    return found


for _name, (_fixed, _flags) in COMMANDS.items():
    for _flag, _values in _past_every_draw(_name, _fixed, _flags).items():
        _flags[_flag][1][:] = dict.fromkeys(_flags[_flag][1] + _values)

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


def _drawn(command, changed):
    """{flag: value} of command's base line with the flags of changed replaced."""
    return {**{flag: base for flag, (base, _) in COMMANDS[command][1].items()}, **changed}


def _run_case(inputs, command, values):
    """Run one command line; check that it ends cleanly and return its exit code."""
    with tempfile.TemporaryDirectory() as case:
        existing = os.path.join(case, "existing")
        os.mkdir(existing)
        names = dict(inputs, out=os.path.join(case, "out"))
        special = {EXISTING_DIR: existing, MISSING_FILE: os.path.join(case, "missing.json")}
        argv = command.split() + [arg.format(**names) for arg in COMMANDS[command][0]]
        for flag, value in values.items():
            if value is not None:
                argv += [flag, special.get(value, value).format(**names)]
        before = _entries(case)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "hplus.cli", *argv],
                              capture_output=True, text=True, timeout=20, env=env)

        assert proc.returncode in (0, 2, 3), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        if any(values.get(flag) is not None for flag in FOREIGN.get(command, {})):
            assert proc.returncode == 2, (argv, proc.stderr)
        after = _entries(case)
        assert not [e for e in after if any(m in e for m in LEFTOVER_MARKS)], (argv, after)
        if proc.returncode != 0:
            assert after == before, (argv, proc.stderr, after)  # no output, no new --out-dir
    return proc.returncode


@settings(max_examples=32, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_ends_cleanly_on_drawn_flags(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    flags = COMMANDS[command][1]
    changed = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2, unique=True),
                        label="flags")
    _run_case(inputs, command, _drawn(command, {
        flag: data.draw(st.sampled_from(flags[flag][1]), label=flag) for flag in changed
    }))

