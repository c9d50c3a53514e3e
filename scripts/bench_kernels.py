#!/usr/bin/env python3
"""Time the numpy kernels, best of 3, and the dense kernel against the
support path on a sparse power.

    PYTHONPATH=src python scripts/bench_kernels.py
"""

import time

import numpy as np

from hplus import _kernels
from hplus.series import DirichletSeries, power


def _time(fn, *args, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    rng = np.random.default_rng(0)
    rows = []

    for exp in (4, 5, 6):
        n = 10**exp
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        rows.append((f"dirichlet_convolve (dense, N=1e{exp})",
                     _time(_kernels.dirichlet_convolve, a, b, n)))

    n = 100_000
    rows.append(("divisor_sum_u64 (N=1e5)",
                 _time(_kernels.divisor_sum_u64, np.ones(n, dtype=np.uint64))))
    rows.append(("spf sieve (limit=2e6)", _time(_kernels.sieve_spf, 2_000_000)))
    spf, primes = _kernels.sieve_spf(n)
    vals = np.zeros(n + 1, dtype=np.complex128)
    vals[primes] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    rows.append(("mult_extend (N=1e5)", _time(_kernels.mult_extend, spf, vals, n)))

    print(f"{'kernel':<38} {'best of 3 [s]':>14}")
    for name, seconds in rows:
        print(f"{name:<38} {seconds:>14.4f}")

    # P^4 for a 30-term P at 30^4 slots: three passes of the dense kernel
    # against the support path that power() takes (nnz_a * nnz_b <= out_len
    # throughout)
    out_len = 30**4
    poly = DirichletSeries(rng.normal(size=30) + 1j * rng.normal(size=30))
    base = np.zeros(out_len, dtype=np.complex128)
    base[:30] = poly.coeffs

    def dense_power():
        result = base
        for _ in range(3):
            result = _kernels._convolve_numpy(base, result, out_len)
        return result

    t_dense = _time(dense_power)
    t_support = _time(power, poly, 4, out_len)
    print(f"\n{'sparse product':<38} {'dense [s]':>12} {'support [s]':>12} {'speedup':>9}")
    print(f"{'P^4, 30 terms, 810000 slots':<38} {t_dense:>12.4f} {t_support:>12.4f} "
          f"{t_dense / t_support:>8.1f}x")


if __name__ == "__main__":
    main()
