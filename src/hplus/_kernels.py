"""Hot numeric kernels, in numpy.

Dense Dirichlet products and divisor sums use the Dirichlet hyperbola split
(Apostol, *Introduction to Analytic Number Theory*, Thm 3.17): every term
a_d b_m of c_n with n = dm <= N has d <= D or d > D for D = isqrt(N).  Loop 1
adds each nonzero a_d with d <= D times b into the slots d, 2d, ... as one
strided slice; loop 2 adds, for each nonzero b_m with m <= N // (D + 1),
the run a_{D+1}, a_{D+2}, ... times b_m into the slots (D+1)m, (D+2)m, ....
That is at most about 2 sqrt(N) slice steps instead of one per nonzero a_d.
Loop 2 walks m in descending order, so every slot still receives its terms
in ascending d, the order of the plain strided loop over the nonzero a_d:
for finite operands the coefficients are that loop's bits (the zero a_d
that loop 2 also multiplies add exact zeros).  When the nonzero a_d above D
are no more than the rows loop 2 would walk, the split moves to D = N and
loop 2 is empty, which keeps a very sparse operand as cheap as that plain
loop.  Each slice's products are formed at most ``_ROW_BLOCK`` at a time in
one reused buffer, so a dense product holds its output and that buffer.

Dirichlet products of sparse operands run on supports, (1-based index,
value) pairs: ``convolve_support`` forms the nnz_a * nnz_b products directly
instead of walking output slots.  ``dirichlet_convolve`` takes that path
when nnz_a * nnz_b <= out_len and the split loops otherwise.  Both paths add
the terms of each output coefficient in ascending divisor of the sparser
operand, so they give the same bits.  A support product splits into a plan
and its values: the plan (row lengths, inner offsets, merged indices) is a
function of the two index arrays and out_len alone, so ``_support_plan``
keeps it in a memo keyed by both arrays' dtype, length and bytes and
out_len, within ``_PLAN_BUDGET_BYTES`` (least recently used dropped
first).  Random polynomials of one support length share their indices, so
their powers share plans.  The values are multiplied and added per call
with the same expressions in the same order, so a kept plan gives the bits
of a fresh one; a product whose coefficients cancel has a smaller support,
and the next product on it a different key.

``sieve_primes`` finds the primes, with one byte per odd number.
``mult_extend`` fills a completely multiplicative function from its values
at the primes, given by rank (f(p_{j+1}) at j), one dyadic block
[2^j, 2^{j+1}) at a time, as out[n] = out[n // spf(n)] * f(spf(n)) with
every n // spf(n) < 2^j, in vectorized steps of at most ``_EXTEND_BLOCK``
slots that each sieve their own spf(n) and its rank (a segmented sieve,
Bays and Hudson).  ``sieve_spf``, the whole int32 smallest-prime-factor
table, is the tests' reference for those factors.
"""

from __future__ import annotations

import math
import threading

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# Dirichlet convolution: c[n-1] = sum_{d | n} a[d-1] * b[n/d - 1]
# ---------------------------------------------------------------------------

def _hyperbola_split(a: np.ndarray, b: np.ndarray, out_len: int) -> int:
    """Split point D of a * b truncated at out_len.

    Loop 1 takes the nonzero a_d with d <= D, loop 2 the nonzero b_m with
    m <= out_len // (D + 1).  D = isqrt(out_len), unless the nonzero a_d
    above it are no more than those b_m; then D = out_len and loop 2 is empty.
    """
    split = math.isqrt(out_len)
    if np.count_nonzero(a[split:out_len]) <= np.count_nonzero(b[: out_len // (split + 1)]):
        return out_len
    return split


# Slots of the one product buffer _convolve_rows reuses for every slice:
# 256 KiB of complex128, where a whole-slice product a_1 * b took 16 B per
# output slot.
_ROW_BLOCK = 1 << 14


def _convolve_rows(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """Split loops: a * b truncated at out_len, a_d the left factor.

    Each slice's products are formed _ROW_BLOCK at a time in one reused
    buffer and added into the strided output slots they belong to, so
    besides the output only that buffer is held.  Every slot receives one
    product per slice, so the chunks give the bits of whole-slice steps.
    """
    c = np.zeros(out_len, dtype=np.complex128)
    buf = np.empty(min(_ROW_BLOCK, out_len), dtype=np.complex128)
    split = _hyperbola_split(a, b, out_len)
    for i in np.flatnonzero(a[:split]):
        d = i + 1
        top = min(len(b), out_len // d)
        for lo in range(0, top, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, top)
            prod = np.multiply(a[i], b[lo:hi], out=buf[: hi - lo])
            s = c[d * (lo + 1) - 1 : d * hi : d]
            np.add(s, prod, out=s)
    # descending m: each slot gets its d > split terms in ascending d; a_d
    # stays the left factor as in loop 1, because numpy's complex multiply
    # can round x * y and y * x differently
    for j in np.flatnonzero(b[: out_len // (split + 1)])[::-1]:
        m = j + 1
        top = min(len(a), out_len // m)
        for lo in range(split, top, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, top)
            prod = np.multiply(a[lo:hi], b[j], out=buf[: hi - lo])
            s = c[m * (lo + 1) - 1 : m * hi : m]
            np.add(s, prod, out=s)
    return c


def support(a: np.ndarray, out_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero terms of a[:out_len] as (ascending 1-based indices, values)."""
    idx = np.flatnonzero(a[:out_len])
    return idx + 1, a[idx]


def from_support(idx: np.ndarray, vals: np.ndarray, out_len: int) -> np.ndarray:
    """Coefficient array of length out_len holding vals at the 1-based idx."""
    c = np.zeros(out_len, dtype=np.complex128)
    c[idx - 1] = vals
    return c


# Largest ratio max(index) / products at which _merge_indices marks slots
# instead of sorting: it bounds the mark and int32 rank tables (5 bytes a
# slot) to 80 bytes per product, however large the indices.
_MARK_SLOTS_PER_PRODUCT = 16


def _merge_indices(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, inv): the distinct values of idx ascending, and idx == n[inv].

    Marks the values in a boolean table over 0..max(idx) and reads n off it
    when max(idx) <= _MARK_SLOTS_PER_PRODUCT * len(idx); a rank table over
    the same range then maps each marked value to its place in n (slots
    that are not marked are never written or read).  Otherwise
    ``np.unique(idx, return_inverse=True)``.  Both give the same (n, inv),
    with inv in int32 when len(n) < 2^31.
    """
    top = int(idx.max(initial=0))
    if top > _MARK_SLOTS_PER_PRODUCT * len(idx):
        n, inv = np.unique(idx, return_inverse=True)
        return n, inv.astype(_rank_dtype(len(n)), copy=False)
    marks = np.zeros(top + 1, dtype=bool)
    marks[idx] = True
    n = np.flatnonzero(marks)
    rank = np.empty(top + 1, dtype=_rank_dtype(len(n)))
    rank[n] = np.arange(len(n))
    return n, rank[idx]


def _rank_dtype(count: int) -> type:
    """int32 when every place in 0..count - 1 fits in it, else intp."""
    return np.int32 if count < 2**31 else np.intp


# Bytes the support-product plans may hold together, keys included.  One
# sparse-algebra benchmark round keeps 4 plans in 750 752 bytes: the 100-term
# P^2 at 10^4 slots and the 30-term P^2, P^3 and P^4 at 810 000.
_PLAN_BUDGET_BYTES = 2 << 20
_plans: dict[tuple, tuple[tuple[np.ndarray, ...], int]] = {}  # key -> (plan, bytes)
_plan_bytes = 0
_plans_lock = threading.Lock()


def _support_plan(
    ia: np.ndarray, ib: np.ndarray, out_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index plan (tops, inner, n, inv) of the support product ia x ib at out_len.

    Row i pairs the outer term i with the inner prefix ib[:tops[i]]; the
    rows are laid end to end, so inner[j] counts j's place in its row, and
    the products ia[i] * ib[inner] merge to the ascending n with inv.  The
    plan depends on the indices alone, so it is kept in ``_plans`` under
    both arrays' dtype, length and bytes and out_len, read-only, and the
    least recently used plans are dropped once the plans would hold more
    than _PLAN_BUDGET_BYTES.  A plan above that budget is not kept.
    """
    global _plan_bytes
    key = (ia.dtype.str, len(ia), ia.tobytes(), ib.dtype.str, len(ib), ib.tobytes(), out_len)
    with _plans_lock:
        kept = _plans.pop(key, None)
        if kept is not None:
            _plans[key] = kept  # most recently used last
            return kept[0]
    tops = np.searchsorted(ib, out_len // ia, side="right")
    ends = np.cumsum(tops)
    place = _rank_dtype(int(ends[-1]))  # the products' places fit, so the offsets do
    inner = np.arange(ends[-1], dtype=place) - np.repeat((ends - tops).astype(place), tops)
    n, inv = _merge_indices(np.repeat(ia, tops) * ib[inner])
    plan = (tops.astype(_rank_dtype(len(ib) + 1)), inner, n, inv)
    for arr in plan:
        arr.flags.writeable = False
    size = sum(arr.nbytes for arr in plan) + len(key[2]) + len(key[5])
    with _plans_lock:
        if size <= _PLAN_BUDGET_BYTES and key not in _plans:
            while _plan_bytes + size > _PLAN_BUDGET_BYTES:
                _plan_bytes -= _plans.pop(next(iter(_plans)))[1]
            _plans[key] = (plan, size)
            _plan_bytes += size
    return plan


def _clear_plans() -> None:
    """Forget every support-product plan."""
    global _plan_bytes
    with _plans_lock:
        _plans.clear()
        _plan_bytes = 0


def convolve_support(
    ia: np.ndarray, va: np.ndarray, ib: np.ndarray, vb: np.ndarray, out_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated Dirichlet convolution of two supports, returned as a support.

    Each operand is a pair of ascending 1-based indices (all <= out_len) and
    nonzero values.  The sparser operand is the outer axis of the index
    products; products landing above out_len are dropped and equal indices
    merged with ``np.bincount``, which adds them in ascending index of the
    outer operand.  Coefficients that cancel to zero are dropped.  The index
    work comes from ``_support_plan``; only the values are multiplied and
    added per call, the outer value the left factor as in the dense loop.
    """
    if len(ib) < len(ia):
        ia, va, ib, vb = ib, vb, ia, va
    if len(ia) == 0:
        return ia, va
    tops, inner, n, inv = _support_plan(ia, ib, out_len)
    # take, not vb[inner]: the same gather, without casting the int32 inner
    # to intp on every call
    vals = np.repeat(va, tops) * vb.take(inner)
    c = np.empty(len(n), dtype=np.complex128)
    c.real = np.bincount(inv, weights=vals.real, minlength=len(n))
    c.imag = np.bincount(inv, weights=vals.imag, minlength=len(n))
    nz = c != 0
    return n[nz], c[nz]


def dirichlet_convolve(a: np.ndarray, b: np.ndarray, out_len: int) -> np.ndarray:
    """Truncated Dirichlet convolution of coefficient arrays a and b.

    With nnz_a * nnz_b <= out_len (nonzeros counted below out_len) the
    product runs on the supports (``convolve_support``); otherwise the two
    loops of the hyperbola split run with the sparser operand as a.  The
    product is commutative; both paths give the bits of the strided loop
    over the nonzeros of the sparser operand.
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
    return _convolve_rows(a, b, out_len)


# ---------------------------------------------------------------------------
# Divisor-sum transform on exact uint64 tables: out[n-1] = sum_{d | n} t[d-1]
# ---------------------------------------------------------------------------

def divisor_sum_u64(t: np.ndarray) -> tuple[np.ndarray, bool]:
    """One Dirichlet-convolution step against the all-ones vector, uint64 exact.

    Returns (table, overflowed).  The table is exact modulo 2^64, and the
    flag is set iff some entry's true sum reached 2^64.
    """
    t = np.ascontiguousarray(t, dtype=np.uint64)
    n = len(t)
    out = np.zeros(n, dtype=np.uint64)
    overflow = False
    # a slot sums at most n entries of t, so below this bound none can wrap
    # and the checks are skipped
    checked = int(t.max(initial=0)) * n >= 2**64
    # the hyperbola split of t * (all-ones vector); uint64 addition wraps,
    # and adding x >= 0 wrapped a slot iff the slot ends below x
    split = _hyperbola_split(t, np.broadcast_to(np.uint64(1), (n,)), n)
    for i in np.flatnonzero(t[:split]):
        v = t[i]
        sl = out[i :: i + 1]
        sl += v
        if checked and np.any(sl < v):
            overflow = True
    for m in range(n // (split + 1), 0, -1):
        add = t[split : n // m]
        sl = out[(split + 1) * m - 1 : (n // m) * m : m]
        sl += add
        if checked and np.any(sl < add):
            overflow = True
    return out, overflow


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> np.ndarray:
    """Ascending primes up to limit >= 2, from a boolean sieve of the odd numbers.

    Slot i stands for 2i + 1, so the sieve takes (limit + 1) // 2 bytes;
    slot 0, the number 1, stays marked and stands for 2.  The marked slots
    become primes in place, so the peak is the sieve and one int64 array of
    the primes (about 17 MiB at limit 1.73 * 10^7).
    """
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def sieve_spf(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-prime-factor table and ascending prime list up to limit."""
    if limit >= 2**31:
        raise ValueError(f"sieve limit {limit} exceeds int32 range")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = (np.flatnonzero(spf[2:] == 0) + 2).astype(np.int64)
    spf[primes] = primes.astype(np.int32)
    spf[1] = 1
    return spf, primes


# ---------------------------------------------------------------------------
# Completely multiplicative extension from values at the primes
# ---------------------------------------------------------------------------

# Slots per vectorized step of mult_extend, and per block of
# bohr.nonextension_partial_sums: their temporaries take about 70 (complex
# values; 30 real) and 64 bytes a slot, so this bounds them to a few MB.
_EXTEND_BLOCK = 1 << 16


def mult_extend(primes: np.ndarray, prime_vals: np.ndarray, n_max: int) -> np.ndarray:
    """Extend f(p_j) given by rank to f(n) = prod f(p)^{alpha_p} for n <= n_max.

    primes holds the primes up to at least n_max, ascending; n_max < 2^31.
    prime_vals[j] = f(primes[j]) for every prime up to n_max.  out[1] = 1;
    out[0] is a zero placeholder.  out[n] = out[n // p] * f(p) with p =
    spf(n), sieved per step together with its rank; every n // p in the
    block [2^j, 2^{j+1}) is below 2^j, so it is filled already.  The slots
    no sieving prime marks are the step's primes, which take the ranks
    that follow the primes below the step.

    Real values give a float64 table, complex values a complex128 one;
    prime_vals is not written.  Where no f(n) is zero, the float64 table
    holds the bits of the real part of the complex table of the same
    values.  The complex product is spelled out on the real and imaginary
    parts, which gives the bits of numpy's scalar product in a per-n loop.
    """
    real = not np.iscomplexobj(prime_vals)
    prime_vals = np.asarray(prime_vals, dtype=np.float64 if real else np.complex128)
    out = np.empty(n_max + 1, dtype=prime_vals.dtype)
    out[0] = 0.0
    if n_max >= 1:
        out[1] = 1.0
    lo = 2
    while lo <= n_max:
        block_end = min(2 * lo, n_max + 1)
        for start in range(lo, block_end, _EXTEND_BLOCK):
            stop = min(start + _EXTEND_BLOCK, block_end)
            n = np.arange(start, stop, dtype=np.int32)
            p = n.copy()  # spf(n): n itself unless a prime up to isqrt(n) divides it
            rank = np.empty(stop - start, dtype=np.intp)
            sieving = int(np.searchsorted(primes, math.isqrt(stop - 1), "right"))
            for j in range(sieving - 1, -1, -1):  # the smallest prime divisor writes last
                q = int(primes[j])
                p[-start % q :: q] = q
                rank[-start % q :: q] = j
            unmarked = p == n
            below = int(np.searchsorted(primes, start))
            rank[unmarked] = np.arange(below, below + np.count_nonzero(unmarked))
            if real:  # f(p) * out[n // p]: real products commute, bit for bit
                seg = prime_vals.take(rank, out=out[start:stop])
                seg *= out[n // p]
            else:
                a = out[n // p]
                b = prime_vals[rank]
                out.real[start:stop] = a.real * b.real - a.imag * b.imag
                out.imag[start:stop] = a.real * b.imag + a.imag * b.real
        lo = block_end
    return out
