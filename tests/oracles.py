"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's kernels: trial division instead of
sieves, dict arithmetic instead of array convolution, recursive counting
instead of table transforms.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def smallest_factor(n: int) -> int:
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def divisors(n: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


@lru_cache(maxsize=None)
def ordered_factorizations(n: int, k: int) -> int:
    """Number of ordered k-tuples (n_1, ..., n_k) with product n."""
    if k == 0:
        return 1 if n == 1 else 0
    if k == 1:
        return 1
    return sum(ordered_factorizations(n // d, k - 1) for d in divisors(n))


def ordered_factorizations_enumerated(n: int, k: int) -> int:
    """Count by explicit tuple enumeration; only viable for tiny n, k."""
    if k == 0:
        return 1 if n == 1 else 0
    count = 0

    def rec(remaining: int, slots: int):
        nonlocal count
        if slots == 1:
            count += 1
            return
        for d in divisors(remaining):
            rec(remaining // d, slots - 1)

    rec(n, k)
    return count


def nonextension_increment_bracket(a: int, b: int) -> tuple[float, float]:
    """Bracket [lo, hi] on sum_{a<n<=b} z_n / sqrt(p_n), z_n = 1/(sqrt(n ln n) lnln n).

    Both ends follow from explicit bounds on the n-th prime, with no primes
    computed:

    * hi: Rosser (1939), p_n > n ln n for n >= 1, gives each term at most
      f(n) = 1/(n ln n lnln n).  f decreases on (e, inf), so by the integral
      test the sum is at most lnlnln b - lnlnln a.
    * lo: Rosser-Schoenfeld (1962), p_n < n (ln n + lnln n) for n >= 6,
      gives each term more than z_n / sqrt(n (ln n + lnln n)).
    """
    if not 5 <= a < b:
        raise ValueError(f"need 5 <= a < b, got a={a}, b={b}")
    hi = math.log(math.log(math.log(b))) - math.log(math.log(math.log(a)))
    lo_terms = []
    for n in range(a + 1, b + 1):
        ln = math.log(n)
        lnln = math.log(ln)
        lo_terms.append(1.0 / (math.sqrt(n * ln) * lnln * math.sqrt(n * (ln + lnln))))
    return math.fsum(lo_terms), hi


def dict_compose(coeffs: dict[int, complex], c0: int, varphi: dict[int, complex],
                 m_out: int, n_cutoff: int | None = None) -> dict[int, complex]:
    """Dirichlet composition via plain dict arithmetic.

    Expands each n^{-varphi} with the term-by-term exponential series to
    depth floor(log2(m_out)); mirrors the defining rearrangement with no
    shared code with the library implementation.
    """
    c1 = varphi.get(1, 0j)
    e_part = {m: c for m, c in varphi.items() if m >= 2 and c != 0}
    out: dict[int, complex] = defaultdict(complex)
    depth = int(math.log2(m_out)) if m_out > 1 else 0
    for n, a in sorted(coeffs.items()):
        if a == 0:
            continue
        shift = n**c0
        if c0 >= 1:
            if shift > m_out:
                continue
        elif n_cutoff is not None and n > n_cutoff:
            continue
        log_n = math.log(n)
        scale = a * complex(math.e) ** (-c1 * log_n) if n > 1 else a
        expo: dict[int, complex] = defaultdict(complex)
        expo[1] = 1.0
        term: dict[int, complex] = {1: 1.0}
        for r in range(1, depth + 1):
            nxt: dict[int, complex] = defaultdict(complex)
            for m1, v1 in term.items():
                for m2, v2 in e_part.items():
                    if m1 * m2 <= m_out:
                        nxt[m1 * m2] += v1 * (-log_n * v2)
            term = {m: v / r for m, v in nxt.items()}
            if not term:
                break
            for m, v in term.items():
                expo[m] += v
        for m, v in expo.items():
            idx = m * shift
            if idx <= m_out:
                out[idx] += scale * v
    return dict(out)


def dirichlet_convolve_quadratic(a, b, out_len: int) -> list[complex]:
    """c_n = sum_{d | n} a_d b_{n/d} for n <= out_len, by trial of every d <= n."""
    out = []
    for n in range(1, out_len + 1):
        total = 0j
        for d in range(1, n + 1):
            if n % d == 0 and d <= len(a) and n // d <= len(b):
                total += complex(a[d - 1]) * complex(b[n // d - 1])
        out.append(total)
    return out
