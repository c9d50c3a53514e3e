"""One workload process: import hplus, run one round of calls, report.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --inputs DIR --out DIR [--trace]

The parent (``run.py``) starts this process with a one-thread BLAS pool and
the ``src`` tree on PYTHONPATH.  The report, written to ``<out>/report.json``,
holds the monotonic time at which setup finished, each call's wall and CPU
time, and the peak resident set read after the last call.  Library return
values are saved after that for the checks.
"""

import time  # noqa: I001  (first, so setup is timed from the earliest import)
import argparse
import json
import os
import sys

import hplus
import hplus.cli  # noqa: F401  (the CLI's own imports belong to setup)

import workloads

SETUP_DONE = time.monotonic()


def _save_result(path: str, value) -> None:
    import numpy as np

    if isinstance(value, np.ndarray):
        np.save(path + ".npy", value)
        return
    if isinstance(value, hplus.LiftResult):
        terms = sorted(value.poly.terms.items(), key=lambda kv: kv[0].exponents)
        doc = {
            "n_vars": value.poly.n_vars,
            "exponents": [list(alpha.exponents) for alpha, _ in terms],
            "coeffs": [[c.real, c.imag] for _, c in terms],
            "dropped_count": value.dropped_count,
            "dropped_sq_mass": value.dropped_sq_mass,
        }
    else:
        doc = {"value": float(value)}
    with open(path + ".json", "w") as f:
        json.dump(doc, f)


def _peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    Not ru_maxrss: Linux carries the parent's high-water mark into a child
    started by fork or vfork and exec, so the checks' tables in the parent
    would show up here.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "backend": hplus._kernels.BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "writes_bytecode": not sys.dont_write_bytecode,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_done": SETUP_DONE, "env": _environment()}))
        return 0

    ops = workloads.operations(args.workload, args.seed, args.inputs, args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, records = {}, []
    for name, call in ops:
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            results[name] = call()
        except Exception as exc:  # a failed call is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        records.append({"name": name, "wall_s": t1 - t0, "cpu_s": c1 - c0, "error": error})
    peak_rss_kb = _peak_rss_kb()

    for name, value in results.items():
        if value is not None:
            _save_result(os.path.join(args.out, name), value)
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "spans.json"))
    report = {"setup_done": SETUP_DONE, "ops": records, "peak_rss_kb": peak_rss_kb}
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
