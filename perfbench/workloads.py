"""The three workloads: seeded inputs and the fixed list of calls into hplus.

``make_inputs`` runs in the benchmark's parent process and needs numpy only.
``operations`` runs in the workload process and returns the calls in order;
each call is a name and a function of no arguments.  A call into
``cli.main`` must return exit code 0; a library call returns the value the
checks in ``checks.py`` read.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("dense-series", "sparse-algebra", "primes-bohr")

COMPOSE_TRUNCATION = 4096
SYMBOL_TRUNCATION = 64
NORMS_POLYS = 3
NORMS_SUPPORT = 30
NORMS_TRUNCATION = NORMS_SUPPORT**4
VERTICAL_TRUNCATION = 100_000
VERTICAL_PRIMES = 9592  # pi(10^5)
H2_TRUNCATION = 1_000_000
LIFT_TRUNCATION = 20_000
LIFT_VARS = 8


def hplus_seed(seed: int) -> int:
    """The seed handed to hplus experiments (Philox keys must be non-negative)."""
    return seed % 2**31


def _series_doc(coeffs: np.ndarray) -> dict:
    return {
        "truncation": len(coeffs),
        "coeffs": [[float(c.real), float(c.imag)] for c in coeffs],
    }


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f)


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def make_inputs(workload: str, seed: int, inputs_dir: str) -> None:
    """Write the workload's input files, a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)])
    os.makedirs(inputs_dir, exist_ok=True)
    if workload == "dense-series":
        _write_json(
            os.path.join(inputs_dir, "series.json"),
            _series_doc(_complex_normal(rng, COMPOSE_TRUNCATION)),
        )
        # c0 = 1, constant term c1 with Re c1 in [1/4, 3/4], and e_m shrinking
        # like 1/(2m) so that the exponential expansion stays well conditioned
        varphi = _complex_normal(rng, SYMBOL_TRUNCATION)
        varphi /= 2.0 * np.arange(1, SYMBOL_TRUNCATION + 1)
        varphi[0] = complex(rng.uniform(0.25, 0.75), rng.normal() * 0.5)
        _write_json(
            os.path.join(inputs_dir, "symbol.json"),
            {"c0": 1, "varphi": _series_doc(varphi)},
        )
    elif workload == "sparse-algebra":
        for i in range(NORMS_POLYS):
            _write_json(
                os.path.join(inputs_dir, f"poly{i}.json"),
                _series_doc(_complex_normal(rng, NORMS_SUPPORT)),
            )
    elif workload == "primes-bohr":
        _write_json(
            os.path.join(inputs_dir, "series.json"),
            _series_doc(_complex_normal(rng, VERTICAL_TRUNCATION)),
        )
        angles = rng.uniform(0.0, 2.0 * np.pi, size=VERTICAL_PRIMES)
        _write_json(
            os.path.join(inputs_dir, "character.json"),
            {"prime_values": [[float(np.cos(t)), float(np.sin(t))] for t in angles]},
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int, inputs_dir: str, out_dir: str) -> list:
    """The workload's calls, in order, as (name, thunk) pairs."""
    import hplus
    from hplus import cli

    def inp(name):
        return os.path.join(inputs_dir, name)

    def out(name):
        return os.path.join(out_dir, name)

    def cli_call(*argv):
        def call():
            code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"hplus {argv[0]} exited with {code}")

        return call

    s = str(hplus_seed(seed))
    if workload == "dense-series":
        return [
            ("ejemplo-growth", cli_call("experiment", "ejemplo-growth", "--out-dir", out("ejemplo"))),
            ("superpose-exp", cli_call("experiment", "superpose-exp", "--out-dir", out("superpose"))),
            ("divisor-power-table", lambda: hplus.divisor_power_table(3, 100_000)),
            (
                "compose",
                cli_call(
                    "compose", "--in", inp("series.json"), "--symbol", inp("symbol.json"),
                    "--out", out("composed.json"),
                ),
            ),
        ]
    if workload == "sparse-algebra":
        ops = [
            (
                "inequality-suite",
                cli_call("experiment", "inequality-suite", "--out-dir", out("suite"), "--seed", s),
            )
        ]
        for i in range(NORMS_POLYS):
            ops.append(
                (
                    f"norms-p8-{i}",
                    cli_call(
                        "norms", "--in", inp(f"poly{i}.json"), "--p", "8",
                        "--truncation", str(NORMS_TRUNCATION), "--out", out(f"norms{i}.csv"),
                    ),
                )
            )
        return ops
    if workload == "primes-bohr":
        return [
            ("nonextension", cli_call("experiment", "nonextension", "--out-dir", out("nonext"))),
            (
                "bohr-parseval",
                cli_call("experiment", "bohr-parseval", "--out-dir", out("parseval"), "--seed", s),
            ),
            ("noncomposition", cli_call("experiment", "noncomposition", "--out-dir", out("noncomp"))),
            (
                "vertical-limit",
                cli_call(
                    "vertical-limit", "--in", inp("series.json"), "--character",
                    inp("character.json"), "--out", out("twisted.json"),
                ),
            ),
            (
                "weighted-h2-norm",
                lambda: hplus.weighted_h2_norm(
                    hplus.DirichletSeries.ones(H2_TRUNCATION), 2, hplus.sieve(H2_TRUNCATION)
                ),
            ),
            (
                "lift",
                lambda: hplus.lift(
                    hplus.DirichletSeries.ones(LIFT_TRUNCATION), LIFT_VARS, hplus.sieve(LIFT_TRUNCATION)
                ),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
