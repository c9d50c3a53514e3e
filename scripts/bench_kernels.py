#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks, and the
dense convolution loop against the support path on a sparse power.

Run after installing the package (the numba path needs a warm-up call to
compile, excluded from the timings):

    python scripts/bench_kernels.py
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
    print(f"numba available: {_kernels.HAVE_NUMBA} (active backend: {_kernels.BACKEND})")
    rng = np.random.default_rng(0)

    rows = []

    n = 100_000
    a = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex128)
    b = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.complex128)
    if _kernels.HAVE_NUMBA:
        _kernels._convolve_numba(a, b, n)  # warm-up / compile
        rows.append(("dirichlet_convolve (dense, N=1e5)",
                     _time(_kernels._convolve_numpy, a, b, n),
                     _time(_kernels._convolve_numba, a, b, n)))
    else:
        rows.append(("dirichlet_convolve (dense, N=1e5)",
                     _time(_kernels._convolve_numpy, a, b, n), None))

    t = np.ones(n, dtype=np.uint64)
    if _kernels.HAVE_NUMBA:
        _kernels._divisor_sum_u64_numba(t)
        rows.append(("divisor_sum_u64 (N=1e5)",
                     _time(_kernels._divisor_sum_u64_numpy, t),
                     _time(_kernels._divisor_sum_u64_numba, t)))
    else:
        rows.append(("divisor_sum_u64 (N=1e5)",
                     _time(_kernels._divisor_sum_u64_numpy, t), None))

    limit = 2_000_000
    if _kernels.HAVE_NUMBA:
        _kernels._spf_sieve_numba(limit)
        rows.append(("spf sieve (limit=2e6)",
                     _time(_kernels._spf_sieve_numpy, limit),
                     _time(_kernels._spf_sieve_numba, limit)))
    else:
        rows.append(("spf sieve (limit=2e6)",
                     _time(_kernels._spf_sieve_numpy, limit), None))

    spf, primes = _kernels.sieve_spf(n)
    vals = np.zeros(n + 1, dtype=np.complex128)
    vals[primes] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(primes)))
    if _kernels.HAVE_NUMBA:
        _kernels._mult_extend_numba(spf, vals, n)
        rows.append(("mult_extend (N=1e5)",
                     _time(_kernels._mult_extend_numpy, spf, vals, n),
                     _time(_kernels._mult_extend_numba, spf, vals, n)))
    else:
        rows.append(("mult_extend (N=1e5)",
                     _time(_kernels._mult_extend_numpy, spf, vals, n), None))

    print(f"{'kernel':<38} {'numpy [s]':>12} {'numba [s]':>12} {'speedup':>9}")
    for name, t_np, t_nb in rows:
        if t_nb is None:
            print(f"{name:<38} {t_np:>12.4f} {'n/a':>12} {'n/a':>9}")
        else:
            print(f"{name:<38} {t_np:>12.4f} {t_nb:>12.4f} {t_np / t_nb:>8.1f}x")

    # P^4 for a 30-term P at 30^4 slots: three dense passes against the
    # support path that power() takes (nnz_a * nnz_b <= out_len throughout)
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
