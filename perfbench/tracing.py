"""Spans and work counts around hplus's public functions, from outside hplus.

``install`` replaces every binding of each traced function in every loaded
``hplus`` module with a wrapper, because ``sieve``, ``factorize`` and the
``series`` functions are imported by name into other modules.  Spans are
kept in memory as (name, parent index, start, end, excluded) and written out
by ``dump``; ``aggregate`` turns them into the per-layer metrics.  Work
counts are computed from each call's arguments; the time spent computing
them is excluded from every open span, so self times cover hplus alone.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

# Layer "_kernels" is reported as "kernels": metric names start with a letter.
LAYER_NAMES = {"_kernels": "kernels"}


def _convolve_counts(tr, a, b, out_len):
    a = np.asarray(a)
    b = np.asarray(b)
    da = np.flatnonzero(a[:out_len]) + 1
    mb = np.flatnonzero(b[:out_len]) + 1
    tr.count("kernels.dirichlet_convolve.out_len", out_len)
    tr.count(
        "kernels.dirichlet_convolve.products",
        int(np.searchsorted(mb, out_len // da, side="right").sum()),
    )


def _seminorm_counts(tr, d, k):
    tr.count("series.seminorm_2.coeffs", d.truncation)
    tr.count("series.seminorm_2.nnz", int(np.count_nonzero(d.coeffs)))


def _with_truncation_counts(tr, d, truncation):
    tr.count("series.with_truncation.padded", max(0, int(truncation) - d.truncation))


def _sieve_counts(tr, limit, cache_dir=None):
    tr.sieve_limits.add(int(limit))


def _cli_bytes_read(tr, argv=None):
    for flag in ("--in", "--symbol", "--character"):
        if argv and flag in argv:
            tr.count("cli.bytes_read", os.path.getsize(argv[argv.index(flag) + 1]))


def _cli_bytes_written(tr, argv=None):
    for flag in ("--out", "--out-dir", "--diagnostics"):
        if not argv or flag not in argv:
            continue
        path = argv[argv.index(flag) + 1]
        if os.path.isdir(path):
            tr.count("cli.bytes_written", sum(e.stat().st_size for e in os.scandir(path)))
        elif os.path.exists(path):
            tr.count("cli.bytes_written", os.path.getsize(path))


# (module, function, span name, counts before the call, counts after it)
TRACED = [
    ("_kernels", "dirichlet_convolve", None, _convolve_counts, None),
    ("_kernels", "divisor_sum_u64", None,
     lambda tr, t: tr.count("kernels.divisor_sum_u64.len", len(t)), None),
    ("_kernels", "sieve_spf", None,
     lambda tr, limit: tr.count("kernels.sieve_spf.limit", int(limit)), None),
    ("_kernels", "mult_extend", None,
     lambda tr, spf, vals, n_max: tr.count("kernels.mult_extend.len", int(n_max)), None),
    ("numtheory", "divisor_power_table", None, None, None),
    ("numtheory", "sieve", None, _sieve_counts, None),
    ("numtheory", "factorize", None, None, None),
    ("series", "seminorm_2", None, _seminorm_counts, None),
    ("series", "with_truncation", None, _with_truncation_counts, None),
    ("series", "power", None, None, None),
    ("series", "multiply", None, None, None),
    ("series", "seminorm_even", None, None, None),
    ("superposition", "power_norm_chain_check", None, None, None),
    ("superposition", "composition_criterion", None, None, None),
    ("superposition", "superpose_entire", None, None, None),
    ("superposition", "noncomposition_exponent", None, None, None),
    ("superposition", "zeta_growth_witness", None, None, None),
    ("bohr", "weighted_h2_norm", None, None, None),
    ("bohr", "lift", None, None, None),
    ("bohr", "rho_estimate", None,
     lambda tr, f, k, p, samples, *a, **kw: tr.count("bohr.rho_estimate.samples", int(samples)),
     None),
    ("bohr", "nonextension_partial_sums", None, None, None),
    ("operators", "vertical_limit", None, None, None),
    ("operators", "compose_general", None, None, None),
    ("cli", "main", None, _cli_bytes_read, _cli_bytes_written),
    # series/symbol/character JSON load and the atomic writers
    ("cli", "load_series", "cli.io", None, None),
    ("operators", "symbol_from_json", "cli.io", None, None),
    ("operators", "character_from_json", "cli.io", None, None),
    ("cli", "series_to_json", "cli.io", None, None),
    ("cli", "_atomic_write_text", "cli.io", None, None),
    ("cli", "_atomic_write_json", "cli.io", None, None),
    ("superposition", "write_growth_table", "cli.io", None, None),
]

# Reported with zero when a workload never calls the function.
CALLS_AND_SELF = [
    "kernels.dirichlet_convolve", "kernels.divisor_sum_u64", "numtheory.divisor_power_table",
    "kernels.sieve_spf", "numtheory.sieve", "kernels.mult_extend", "numtheory.factorize",
    "bohr.lift", "series.seminorm_2", "series.power", "superposition.power_norm_chain_check",
    "series.multiply", "series.seminorm_even", "operators.compose_general",
    "bohr.rho_estimate", "cli.main",
]
SELF_ONLY = [
    "bohr.weighted_h2_norm", "operators.vertical_limit", "superposition.composition_criterion",
    "superposition.superpose_entire", "bohr.nonextension_partial_sums",
    "superposition.noncomposition_exponent", "superposition.zeta_growth_witness", "cli.io",
]
COUNTS = [
    "kernels.dirichlet_convolve.out_len", "kernels.dirichlet_convolve.products",
    "kernels.divisor_sum_u64.len", "kernels.sieve_spf.limit", "numtheory.sieve.distinct",
    "kernels.mult_extend.len", "series.seminorm_2.coeffs", "series.seminorm_2.nnz",
    "series.with_truncation.padded", "bohr.rho_estimate.samples",
    "cli.bytes_read", "cli.bytes_written",
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sieve_limits: set[int] = set()
        self.excluded = 0.0

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def _counted(self, hook, args, kwargs) -> None:
        t0 = time.perf_counter()
        hook(self, *args, **kwargs)
        self.excluded += time.perf_counter() - t0

    def wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._counted(before, args, kwargs)
            self.counts[name + ".calls"] += 1
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            excluded0 = self.excluded
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, parent, start, end, self.excluded - excluded0)
                if after is not None:
                    self._counted(after, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name any hplus module binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n == "hplus" or n.startswith("hplus.")]
        for module, function, name, before, after in TRACED:
            original = getattr(sys.modules[f"hplus.{module}"], function)
            name = name or f"{LAYER_NAMES.get(module, module)}.{function}"
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        # cli reads symbol and character files with json.load inline
        cli = sys.modules["hplus.cli"]
        real_json = cli.json
        cli.json = types.SimpleNamespace(
            load=self.wrap("cli.io", real_json.load, None, None),
            dumps=real_json.dumps,
            JSONDecodeError=real_json.JSONDecodeError,
        )

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        counts["numtheory.sieve.distinct"] = len(self.sieve_limits)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": counts}, f)


def aggregate(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced round: calls, self times and work counts."""
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    net = [end - start - excl for _, _, start, end, excl in spans]
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, parent, _, _, _) in enumerate(spans):
        self_s[name] += net[i]
        if parent >= 0:
            self_s[spans[parent][0]] -= net[i]
    counts = doc["counts"]
    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[name + ".calls"] = counts.get(name + ".calls", 0)
        metrics[name + ".self_s"] = self_s.get(name, 0.0)
    for name in SELF_ONLY:
        metrics[name + ".self_s"] = self_s.get(name, 0.0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric, trace.overhead_s included."""
    units = {}
    for name in CALLS_AND_SELF:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SELF_ONLY:
        units[name + ".self_s"] = "s"
    for name in COUNTS:
        units[name] = "B" if name.startswith("cli.bytes") else "count"
    units["trace.overhead_s"] = "s"
    return units
