"""Hot numeric kernels: numba-jitted fast paths with pure-numpy fallbacks.

The numba path is used when numba imports successfully and the environment
variable ``HPLUS_NO_NUMBA`` is unset (or "0").  Both paths accumulate in the
same order, so each is deterministic run-to-run; across backends results
agree to floating-point rounding (instruction selection may differ in the
last ulp).  ``scripts/bench_kernels.py`` compares their speed.

Dirichlet products of sparse operands run on supports, (1-based index,
value) pairs, in numpy on either backend: ``convolve_support`` forms the
nnz_a * nnz_b products directly instead of walking output slots.
``dirichlet_convolve`` takes that path when nnz_a * nnz_b <= out_len and
the strided dense loop otherwise.  Both paths add the terms of each output
coefficient in ascending divisor of the sparser operand, so the support
path gives the numpy loop's bits.
"""

from __future__ import annotations

import math
import os

import numpy as np

_env = os.environ.get("HPLUS_NO_NUMBA", "").strip()
NUMBA_REQUESTED = _env in ("", "0")

if NUMBA_REQUESTED:
    try:
        from numba import njit

        HAVE_NUMBA = True
    except ImportError:
        njit = None
        HAVE_NUMBA = False
else:
    njit = None
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Dirichlet convolution: c[n-1] = sum_{d | n} a[d-1] * b[n/d - 1]
# ---------------------------------------------------------------------------

def _convolve_numpy(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    c = np.zeros(out_len, dtype=np.complex128)
    lb = len(b)
    for i in np.flatnonzero(a[:out_len]):
        d = i + 1
        top = min(lb, out_len // d)
        if top:
            c[d - 1 : d * top : d] += a[i] * b[:top]
    return c


if HAVE_NUMBA:

    @njit(cache=True)
    def _convolve_numba(a, b, out_len):  # pragma: no cover - jitted
        c = np.zeros(out_len, dtype=np.complex128)
        la = min(len(a), out_len)
        lb = len(b)
        for i in range(la):
            av = a[i]
            if av == 0:
                continue
            d = i + 1
            top = min(lb, out_len // d)
            for m in range(1, top + 1):
                c[d * m - 1] += av * b[m - 1]
        return c

else:
    _convolve_numba = None


def support(a: np.ndarray, out_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero terms of a[:out_len] as (ascending 1-based indices, values)."""
    idx = np.flatnonzero(a[:out_len])
    return idx + 1, a[idx]


def from_support(idx: np.ndarray, vals: np.ndarray, out_len: int) -> np.ndarray:
    """Coefficient array of length out_len holding vals at the 1-based idx."""
    c = np.zeros(out_len, dtype=np.complex128)
    c[idx - 1] = vals
    return c


def convolve_support(
    ia: np.ndarray, va: np.ndarray, ib: np.ndarray, vb: np.ndarray, out_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Dirichlet convolution of two supports, returned as a support.

    Each operand is a pair of ascending 1-based indices (all <= out_len) and
    nonzero values.  The sparser operand is the outer axis of the index
    products; products landing above out_len are dropped and equal indices
    merged with ``np.bincount``, which adds them in ascending index of the
    outer operand.  Coefficients that cancel to zero are dropped.
    """
    if len(ib) < len(ia):
        ia, va, ib, vb = ib, vb, ia, va
    if len(ia) == 0:
        return ia, va
    # row i keeps the prefix ib[:tops[i]] of the inner indices; the values
    # are one scalar-times-slice product per row, as in the dense loop,
    # because numpy's complex multiply rounds differently on some broadcast
    # layouts
    tops = np.searchsorted(ib, out_len // ia, side="right")
    idx = np.concatenate([d * ib[:top] for d, top in zip(ia, tops)])
    vals = np.concatenate([v * vb[:top] for v, top in zip(va, tops)])
    n, inv = np.unique(idx, return_inverse=True)
    c = np.empty(len(n), dtype=np.complex128)
    c.real = np.bincount(inv, weights=vals.real, minlength=len(n))
    c.imag = np.bincount(inv, weights=vals.imag, minlength=len(n))
    nz = c != 0
    return n[nz], c[nz]


def dirichlet_convolve(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """Truncated Dirichlet convolution of coefficient arrays a and b.

    With nnz_a * nnz_b <= out_len (nonzeros counted below out_len) the
    product runs on the supports (``convolve_support``); otherwise a strided
    loop over the nonzeros of the sparser operand adds each of them times
    the other operand into every slot it reaches.  The product is
    commutative; the support path gives the numpy loop's bits.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    na = int(np.count_nonzero(a[:out_len]))
    nb = int(np.count_nonzero(b[:out_len]))
    if na * nb <= out_len:
        terms = convolve_support(*support(a, out_len), *support(b, out_len), out_len)
        return from_support(*terms, out_len)
    if nb < na:
        a, b = b, a
    if HAVE_NUMBA:
        return _convolve_numba(a, b, out_len)
    return _convolve_numpy(a, b, out_len)


# ---------------------------------------------------------------------------
# Divisor-sum transform on exact uint64 tables: out[n-1] = sum_{d | n} t[d-1]
# ---------------------------------------------------------------------------

def _divisor_sum_u64_numpy(t: np.ndarray) -> tuple[np.ndarray, bool]:
    n = len(t)
    out = np.zeros(n, dtype=np.uint64)
    overflow = False
    for d in range(1, n + 1):
        v = t[d - 1]
        if v == 0:
            continue
        sl = out[d - 1 :: d]
        sl += v
        # uint64 wraparound: adding v to x >= 0 wrapped iff result < v
        if np.any(sl < v):
            overflow = True
    return out, overflow


if HAVE_NUMBA:

    @njit(cache=True)
    def _divisor_sum_u64_numba(t):  # pragma: no cover - jitted
        n = len(t)
        out = np.zeros(n, dtype=np.uint64)
        overflow = False
        for d in range(1, n + 1):
            v = t[d - 1]
            if v == 0:
                continue
            for m in range(d - 1, n, d):
                out[m] += v
                if out[m] < v:
                    overflow = True
        return out, overflow

else:
    _divisor_sum_u64_numba = None


def divisor_sum_u64(t: np.ndarray) -> tuple[np.ndarray, bool]:
    """One Dirichlet-convolution step against the all-ones vector, uint64 exact.

    Returns (table, overflowed).
    """
    t = np.ascontiguousarray(t, dtype=np.uint64)
    if HAVE_NUMBA:
        out, overflow = _divisor_sum_u64_numba(t)
        return out, bool(overflow)
    return _divisor_sum_u64_numpy(t)


# ---------------------------------------------------------------------------
# Smallest-prime-factor sieve
# ---------------------------------------------------------------------------

def _spf_sieve_numpy(limit: int) -> tuple[np.ndarray, np.ndarray]:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = (np.flatnonzero(spf[2:] == 0) + 2).astype(np.int64)
    spf[primes] = primes.astype(np.int32)
    spf[1] = 1
    return spf, primes


if HAVE_NUMBA:

    @njit(cache=True)
    def _spf_sieve_numba(limit):  # pragma: no cover - jitted
        spf = np.zeros(limit + 1, dtype=np.int32)
        spf[1] = 1
        # pi(x) < 1.26 x / ln x for x >= 17
        cap = 32 + int(1.26 * limit / math.log(limit + 2.0))
        primes = np.zeros(cap, dtype=np.int64)
        cnt = 0
        for i in range(2, limit + 1):
            if spf[i] == 0:
                spf[i] = i
                primes[cnt] = i
                cnt += 1
            for j in range(cnt):
                p = primes[j]
                if p > spf[i] or i * p > limit:
                    break
                spf[i * p] = np.int32(p)
        return spf, primes[:cnt]

else:
    _spf_sieve_numba = None


def sieve_spf(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-prime-factor table and ascending prime list up to limit."""
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} exceeds int32 range")
    if HAVE_NUMBA:
        return _spf_sieve_numba(limit)
    return _spf_sieve_numpy(limit)


# ---------------------------------------------------------------------------
# Completely multiplicative extension from values at the primes
# ---------------------------------------------------------------------------

def _mult_extend_numpy(spf: np.ndarray, prime_vals: np.ndarray, n_max: int) -> np.ndarray:
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[0] = 0.0
    if n_max >= 1:
        out[1] = 1.0
    for n in range(2, n_max + 1):
        p = spf[n]
        out[n] = out[n // p] * prime_vals[p]
    return out


if HAVE_NUMBA:

    @njit(cache=True)
    def _mult_extend_numba(spf, prime_vals, n_max):  # pragma: no cover - jitted
        out = np.empty(n_max + 1, dtype=np.complex128)
        out[0] = 0.0
        if n_max >= 1:
            out[1] = 1.0
        for n in range(2, n_max + 1):
            p = spf[n]
            out[n] = out[n // p] * prime_vals[p]
        return out

else:
    _mult_extend_numba = None


def mult_extend(spf: np.ndarray, prime_vals: np.ndarray, n_max: int) -> np.ndarray:
    """Extend f(p) given at primes to f(n) = prod f(p)^{alpha_p} for n <= n_max.

    prime_vals is indexed by integer value (prime_vals[p] for prime p).
    out[1] = 1; out[0] is a zero placeholder.
    """
    prime_vals = np.ascontiguousarray(prime_vals, dtype=np.complex128)
    if HAVE_NUMBA:
        return _mult_extend_numba(spf, prime_vals, n_max)
    return _mult_extend_numpy(spf, prime_vals, n_max)
