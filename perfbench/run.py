#!/usr/bin/env python3
"""End-to-end benchmark of hplus: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hplus is imported from ``src``.  The
run writes the workload's seeded inputs, times ``import hplus`` in fresh
processes, then runs whole rounds of the workload's calls, one fresh
process per round, until ``--seconds`` have passed.  Every output of every
round is checked by ``checks.py``.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md.
"""

import os

# The parent's own numpy (input generation, checks) gets one BLAS thread too.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS = 2  # import-only processes before each round
DEADLINE_S = 170.0  # every run ends within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("HPLUS_CACHE_DIR", "HPLUS_NO_NUMBA"):
        env.pop(name, None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC
    return env


class Run:
    def __init__(self, args):
        self.args = args
        self.work = os.path.join(WORK_ROOT, str(os.getpid()))
        self.inputs = os.path.join(self.work, "inputs")
        self.env = child_env()
        self.ref = checks.Reference()
        self.deadline = time.monotonic() + DEADLINE_S
        self.setup_s: list[float] = []
        self.rounds: list[dict] = []
        self.attempted = self.failed = 0
        self.correct = True

    def _spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER, *argv],
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, self.deadline - start),
        )
        return start, proc

    def measure_setup(self) -> dict:
        """Time SETUP_SPAWNS processes that only import hplus; return their environment."""
        for _ in range(SETUP_SPAWNS):
            start, proc = self._spawn(["--setup-only"])
            if proc.returncode != 0:
                raise RuntimeError(f"worker setup failed:\n{proc.stderr}")
            doc = json.loads(proc.stdout)
            self.setup_s.append(doc["setup_done"] - start)
        return doc["env"]

    def round(self, traced: bool) -> None:
        out = os.path.join(self.work, f"round{len(self.rounds)}")
        os.makedirs(out)
        argv = ["--workload", self.args.workload, "--seed", str(self.args.seed),
                "--inputs", self.inputs, "--out", out]
        start, proc = self._spawn(argv + (["--trace"] if traced else []))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        self.setup_s.append(report["setup_done"] - start)
        for op in report["ops"]:
            self.attempted += 1
            problems = [op["error"]] if op["error"] else checks.check(
                op["name"], out, self.inputs, self.args.seed, self.ref
            )
            if problems:
                self.failed += 1
                if op["error"] is None:
                    self.correct = False
                for problem in problems:
                    print(f"{op['name']}: {problem}", file=sys.stderr)
        report["traced"] = traced
        if traced:
            report["layers"] = tracing.aggregate(os.path.join(out, "spans.json"))
        self.rounds.append(report)
        shutil.rmtree(out)

    def end_to_end(self) -> dict:
        plain = [r for r in self.rounds if not r["traced"]]

        def per_call_median(key):
            # sum over the calls of each call's median over the rounds
            return sum(
                statistics.median(r["ops"][i][key] for r in plain)
                for i in range(len(plain[0]["ops"]))
            )

        return {
            "wall_s": {"value": per_call_median("wall_s"), "unit": "s"},
            "cpu_s": {"value": per_call_median("cpu_s"), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_kb"] / 1024.0 for r in plain),
                "unit": "MB",
            },
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
        }

    def per_layer(self) -> dict:
        traced = [r for r in self.rounds if r["traced"]]
        units = tracing.metric_units()
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": units[name]}
            for name in traced[0]["layers"]
        }

        def round_wall(rounds):
            return statistics.median(sum(op["wall_s"] for op in r["ops"]) for r in rounds)

        plain = [r for r in self.rounds if not r["traced"]]
        metrics["trace.overhead_s"] = {"value": round_wall(traced) - round_wall(plain), "unit": "s"}
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hplus", "__init__.py")):
        print(f"error: no hplus source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    try:
        workloads.make_inputs(args.workload, args.seed, run.inputs)
        modes = (False, True) if args.trace else (False,)
        started = time.monotonic()
        print(json.dumps({"environment": run.measure_setup()}), file=sys.stderr)
        while True:
            for traced in modes:
                if run.rounds:
                    run.measure_setup()
                run.round(traced)
            if time.monotonic() - started >= args.seconds:
                break
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
