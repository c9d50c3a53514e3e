"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's kernels: trial division instead of
sieves, dict arithmetic instead of array convolution, recursive counting
instead of table transforms.  The strided loops at the end are the dense
kernels as they were before the hyperbola split, and the per-index loops
after them are multiplicative extension and the Bohr lift as they were
before they were vectorized; each is kept as the bit-for-bit reference for
its replacement.  The last is the Monte Carlo rho estimator as it was
before it built monomials from power tables, the reference within 1e-13
relative for its replacement; ``rho_per_sample`` evaluates the polynomial
point by point on the same draws.  ``convolve_support_rows`` is the support
product as it was before its rows were built with one gather.
``euler_product_loop`` is the prime loop the comparison and chain constants
each ran before they shared ``numtheory.euler_product``, and
``compose_affine`` is the affine reindexing that ``compose_general`` must
reproduce for a constant series part.  ``compose_general_loop`` is
``compose_general`` as it was before the indices n shared one ladder of
powers of the symbol, with one expansion per n in float64, and
``compose_general_clongdouble`` the same per-n expansion in
``np.clongdouble``, the reference within rounding for both.
``seminorm_even_translated`` is ``series.seminorm_even`` as it was before
it weighed one untranslated power for every k: it translates D by 1/k and
raises the translate to the q-th power for each k.  ``power_terms_loop``,
``superpose_poly_loop``, ``superpose_entire_loop`` and
``composition_criterion_loop`` are the four loops that formed D^k, each on
its own, before they shared ``series._power_ladder``; they are the
bit-for-bit references for ``power``, ``seminorm_even``, the two
superpositions and the composition criterion.  ``nonextension_one_pass``
is the non-extension table as it was before its sums were taken in blocks,
with whole-range arrays and one cumsum, the bit-for-bit reference for
``bohr.nonextension_partial_sums``.  ``convolve_rows_unchunked``,
``weighted_l2_roots_unfused`` and ``translate_unfused`` are the split loops,
the seminorm weighing and the translation as they were before their
temporaries were bounded: one whole-slice product per slice step, and a
fresh array for every intermediate of the weights; they are the
bit-for-bit references for ``_kernels._convolve_rows``,
``series._weighted_l2_roots`` and ``series.translate``.
``term_arrays_dict_loop`` and ``parseval_rho2_loop`` are ``bohr._term_arrays``
and ``bohr.parseval_rho2`` as they were when a polynomial was a dict of
terms: a sort of the dict and a per-term sum, the bit-for-bit references
for the reads of the exponent matrix.  ``poly_from_terms`` builds a
polynomial from such a dict.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache

import numpy as np


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


def nonextension_one_pass(n_max: int, primes: np.ndarray):
    """(checkpoints, partial_sums, lower_bound, prime_bound_ok) of the
    non-extension table from whole-range arrays and one cumsum each."""
    tail = np.arange(3, n_max + 1, dtype=np.float64)  # the n >= 3
    log_tail = np.log(tail)
    tail_log = tail * log_tail  # n ln n
    loglog_tail = np.log(log_tail, out=log_tail)  # ln ln n, over ln n
    z = np.empty(n_max, dtype=np.float64)
    z[:2] = 0.5
    z[2:] = 1.0 / (np.sqrt(tail_log) * loglog_tail)
    c_lb = 1.0 / math.sqrt(2.0)
    lb_terms = np.zeros(n_max, dtype=np.float64)
    lb_terms[2:] = c_lb / (tail_log * loglog_tail)
    p_n = primes[:n_max].astype(np.float64)
    # 2 (n ln n) has the bits of (2n) ln n, since doubling is exact
    bound_ok = bool(np.all(p_n[2:] <= 2.0 * tail_log))
    cum = np.cumsum(z / np.sqrt(p_n))
    lb_cum = np.cumsum(lb_terms)

    ladder = []
    m = 10
    while m < n_max:
        ladder.append(m)
        m *= 10
    ladder.append(n_max)
    ladder = np.array(sorted(set(ladder)), dtype=np.int64)
    return ladder, cum[ladder - 1], lb_cum[ladder - 1], bound_ok


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


def dirichlet_convolve_loop(a, b, out_len: int):
    """The plain strided loop over the nonzero a_d, in ascending d.

    Each nonzero a_d adds a_d * b into the slots d, 2d, ... <= out_len: one
    numpy slice step per nonzero, the order the split kernels must reproduce
    bit for bit.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    c = np.zeros(out_len, dtype=np.complex128)
    for i in np.flatnonzero(a[:out_len]):
        d = i + 1
        top = min(len(b), out_len // d)
        if top:
            c[d - 1 : d * top : d] += a[i] * b[:top]
    return c


def convolve_support_rows(ia, va, ib, vb, out_len: int):
    """Truncated Dirichlet convolution of two supports, built row by row.

    The sparser operand is the outer axis; each outer term d, v contributes
    the products d * ib[:top], v * vb[:top] of one row, and equal indices are
    merged through ``np.unique`` and ``np.bincount`` in row order.  The
    support kernel as it was before it built all rows with one gather.
    """
    if len(ib) < len(ia):
        ia, va, ib, vb = ib, vb, ia, va
    if len(ia) == 0:
        return ia, va
    tops = np.searchsorted(ib, out_len // ia, side="right")
    idx = np.concatenate([d * ib[:top] for d, top in zip(ia, tops)])
    vals = np.concatenate([v * vb[:top] for v, top in zip(va, tops)])
    n, inv = np.unique(idx, return_inverse=True)
    c = np.empty(len(n), dtype=np.complex128)
    c.real = np.bincount(inv, weights=vals.real, minlength=len(n))
    c.imag = np.bincount(inv, weights=vals.imag, minlength=len(n))
    nz = c != 0
    return n[nz], c[nz]


def divisor_sum_loop(t):
    """uint64 table out[n-1] = sum_{d | n} t[d-1], one slice step per nonzero t_d.

    Returns (table, overflowed); a slot wrapped iff it ends below the addend.
    """
    t = np.asarray(t, dtype=np.uint64)
    out = np.zeros(len(t), dtype=np.uint64)
    overflow = False
    for i in np.flatnonzero(t):
        sl = out[i :: i + 1]
        sl += t[i]
        overflow |= bool(np.any(sl < t[i]))
    return out, overflow


def mult_extend_loop(spf, prime_vals, n_max: int) -> np.ndarray:
    """out[n] = out[n // p] * f(p) with p = spf[n], one numpy scalar product per n."""
    prime_vals = np.ascontiguousarray(prime_vals, dtype=np.complex128)
    out = np.empty(n_max + 1, dtype=np.complex128)
    out[0] = 0.0
    if n_max >= 1:
        out[1] = 1.0
    for n in range(2, n_max + 1):
        p = spf[n]
        out[n] = out[n // p] * prime_vals[p]
    return out


def lift_by_factorize(d, n_vars: int, table):
    """Bohr lift by factoring each nonzero index in ascending order.

    Returns a ``LiftResult``; dropped mass is accumulated in index order.
    """
    # imported here: the benchmark's checks load this module without hplus
    from hplus.bohr import LiftResult
    from hplus.numtheory import factorize

    terms = {}
    dropped = 0
    dropped_sq = 0.0
    for i in np.flatnonzero(d.coeffs):
        alpha = factorize(int(i) + 1, table)
        if len(alpha) <= n_vars:
            terms[alpha] = complex(d.coeffs[i])
        else:
            dropped += 1
            dropped_sq += abs(d.coeffs[i]) ** 2
    return LiftResult(poly_from_terms(n_vars, terms), dropped, dropped_sq)


def poly_from_terms(n_vars: int, terms: dict):
    """``MultiPoly`` of a {exponents: c} dict, keys ``MultiIndex`` or tuples, rows in dict order.

    Each key is padded with zeros to n_vars entries.
    """
    from hplus.bohr import MultiPoly

    rows = []
    for alpha in terms:
        exps = tuple(getattr(alpha, "exponents", alpha))
        rows.append(exps + (0,) * (n_vars - len(exps)))
    return MultiPoly(n_vars, rows, list(terms.values()))


def term_arrays_dict_loop(f, k: int, table):
    """Coefficients, radius factors and exponent matrix, one term at a time from the sorted dict."""
    from hplus.errors import TableTooSmall

    if len(table.primes) < f.n_vars:
        raise TableTooSmall(f"need {f.n_vars} primes, table has {len(table.primes)}")
    primes = table.primes[: f.n_vars].astype(np.float64)
    n_terms = len(f.terms)
    coefs = np.empty(n_terms, dtype=np.complex128)
    expo = np.zeros((n_terms, f.n_vars), dtype=np.int64)
    for t, (alpha, c) in enumerate(sorted(f.terms.items(), key=lambda kv: kv[0].exponents)):
        coefs[t] = c
        expo[t, : len(alpha)] = alpha.exponents
    rad_factors = np.prod(primes[None, :] ** (-expo / k), axis=1)
    return coefs, rad_factors, expo


def parseval_rho2_loop(f, k: int, table) -> float:
    """sqrt(sum |c_alpha|^2 prod p_j^{-2 alpha_j/k}), one ``np.prod`` per term in dict order."""
    primes = table.primes[: f.n_vars].astype(float)
    return math.sqrt(
        sum(
            abs(c) ** 2
            * float(np.prod(primes ** (-2.0 * np.array([alpha[j] for j in range(f.n_vars)]) / k)))
            for alpha, c in f.terms.items()
        )
    )


def rho_phase_values(f, k: int, samples: int, seed: int, table=None) -> np.ndarray:
    """Values of f on the scaled torus at the first ``samples`` draws of the Philox stream.

    The phase of every term is theta @ alpha, exponentiated directly: one
    complex exponential per term and sample, contracted by a matrix
    product.  This is ``bohr.rho_estimate``'s loop before it built
    monomials from per-variable power tables; rows go through it 1024 at a
    time only to bound memory.  A shorter run is a prefix of a longer one.
    """
    from hplus.bohr import _term_arrays, sieve_for_n_primes

    if table is None:
        table = sieve_for_n_primes(f.n_vars)
    coefs, rad, expo = _term_arrays(f, k, table)
    expo = expo.astype(np.float64)
    scaled = coefs * rad
    gen = np.random.Generator(np.random.Philox(key=seed))
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(samples, f.n_vars))
    vals = np.empty(samples, dtype=np.complex128)
    for lo in range(0, samples, 1024):
        phases = theta[lo : lo + 1024] @ expo.T  # (rows, n_terms)
        vals[lo : lo + 1024] = np.exp(1j * phases) @ scaled
    return vals


def rho_from_values(vals: np.ndarray, k: int, p: float, seed: int):
    """``RhoEstimate`` from per-sample values, |f|^p summed in the library's chunks."""
    from hplus.bohr import _MC_CHUNK, RhoEstimate

    samples = len(vals)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, samples, _MC_CHUNK):
        stat = np.abs(vals[lo : lo + _MC_CHUNK]) ** p
        total += float(np.sum(stat))
        total_sq += float(np.sum(stat * stat))
    mean = total / samples
    value = mean ** (1.0 / p)
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        se_mean = math.sqrt(var / samples)
        se = se_mean / p * mean ** (1.0 / p - 1.0) if mean > 0 else se_mean
    else:
        se = math.inf
    return RhoEstimate(value=value, std_error=se, samples=samples, seed=seed, k=k, p=p)


def rho_estimate_phases(f, k: int, p: float, samples: int, seed: int, table=None):
    """``bohr.rho_estimate`` with one complex exponential per term and sample."""
    return rho_from_values(rho_phase_values(f, k, samples, seed, table), k, p, seed)


def rho_per_sample(f, k: int, p: float, samples: int, seed: int, table) -> float:
    """The rho_{k,p} estimate from one ``MultiPoly.evaluate`` per draw of the Philox stream.

    Each draw is pulled onto the polydisc variable by variable, p_j^{-1/k}
    exp(i theta_j), and f is evaluated there: the product of the radii over
    several variables comes out of the evaluation, not out of a per-term
    radius table.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(samples, f.n_vars))
    radii = table.primes[: f.n_vars].astype(np.float64) ** (-1.0 / k)
    stat = [abs(f.evaluate(radii * np.exp(1j * row))) ** p for row in theta]
    return (sum(stat) / samples) ** (1.0 / p)


def compose_affine(d: DirichletSeries, c0: int, c1: complex) -> DirichletSeries:
    """Composition with the affine symbol c0*s + c1, c0 >= 1: reindexing n -> n^{c0}.

    The coefficient landing at m = n^{c0} is a_n * n^{-c1}; everything else
    is zero.  Output truncation equals the input truncation.
    """
    from hplus.series import DirichletSeries

    if c0 < 1 or int(c0) != c0:
        raise ValueError(f"c0 must be a positive integer, got {c0}")
    c0 = int(c0)
    n_trunc = d.truncation
    out = np.zeros(n_trunc, dtype=np.complex128)
    c1 = complex(c1)
    n = 1
    while n**c0 <= n_trunc:
        a = d.coeffs[n - 1]
        if a != 0:
            out[n**c0 - 1] = a * np.exp(-c1 * math.log(n)) if n > 1 else a
        n += 1
    return DirichletSeries(out)


def eratosthenes(limit: int) -> np.ndarray:
    """Ascending primes up to limit, from a plain boolean sieve of 0..limit."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for n in range(2, math.isqrt(limit) + 1):
        if is_prime[n]:
            is_prime[n * n :: n] = False
    return np.flatnonzero(is_prime)


def euler_product_loop(
    exponent: int, thresholds, primes: np.ndarray, strict: bool
) -> list[tuple[int, float]]:
    """(count, product) of the Euler product at ``exponent`` for each threshold.

    The loop multiplies 1/(1 - r) for r = p^{-1/exponent} over the ascending
    primes and stops at the first r below the threshold: r < t for the
    comparison constant (strict=False), r <= t for the chain constant
    (strict=True).  ``thresholds`` must not increase: one walk then serves
    them all, and its state at each stop is what the per-threshold loop
    returned.  ``primes`` must reach past the last stop.
    """
    out = []
    count, prod = 0, 1.0
    for t in thresholds:
        while count < len(primes):
            r = float(primes[count]) ** (-1.0 / exponent)
            if r <= t if strict else r < t:
                break
            count += 1
            prod *= 1.0 / (1.0 - r)
        out.append((count, prod))
    return out


def _exp_series_loop(e_coeffs: np.ndarray, log_n: float, out_len: int) -> np.ndarray:
    """exp(-log_n * E) truncated at out_len, one 1-D product per power of E."""
    from hplus import _kernels

    out = np.zeros(out_len, dtype=np.complex128)
    out[0] = 1.0
    scaled = np.zeros(out_len, dtype=np.complex128)
    upto = min(len(e_coeffs), out_len)
    scaled[:upto] = -log_n * e_coeffs[:upto]
    if not np.any(scaled):
        return out
    term = scaled.copy()
    out += term
    r = 1
    while 2 ** (r + 1) <= out_len:
        r += 1
        term = _kernels.dirichlet_convolve(term, scaled, out_len) / r
        out += term
    return out


def compose_general_loop(d, phi, out_truncation: int, n_cutoff: int | None = None):
    """Coefficients of ``operators.compose_general``, one expansion per n.

    Each nonzero a_n with n >= 2 expands n^{-phi~} on its own and adds
    a_n n^{-c1} times it into the slots n^{c0}, 2 n^{c0}, ... in ascending n:
    the loop as it was before the n shared one ladder of powers of E.  n
    runs to M^{1/c0} for c0 >= 1 and to n_cutoff for c0 = 0.
    """
    from hplus.operators import _int_root

    m_out = int(out_truncation)
    c0 = phi.c0
    n_top = min(int(n_cutoff) if c0 == 0 else _int_root(m_out, c0), d.truncation)
    e_coeffs = phi.varphi.coeffs.copy()
    e_coeffs[0] = 0.0
    c1 = phi.c1
    out = np.zeros(m_out, dtype=np.complex128)
    for n in range(1, n_top + 1):
        a = d.coeffs[n - 1]
        if a == 0:
            continue
        shift = n**c0
        room = m_out // shift
        if room < 1:
            continue
        if n == 1:
            out[0] += a
            continue
        log_n = math.log(n)
        scale = a * np.exp(-c1 * log_n)
        g = _exp_series_loop(e_coeffs, log_n, room)
        out[shift - 1 : shift * room : shift] += scale * g
    return out


def compose_general_clongdouble(d, phi, out_truncation: int, n_cutoff: int | None = None):
    """``compose_general_loop`` in ``np.clongdouble``, returned as such.

    Each nonzero a_n expands a_n n^{-c1} exp(-log(n) E) on its own, by the
    recursion term_r = term_{r-1} * (-log(n) E) / r with the Dirichlet
    product written as one strided slice per nonzero e_m, and adds it into
    the slots n^{c0}, 2 n^{c0}, ...  No float64 rounding enters after the
    inputs are read (on x86 the extended type carries 64 mantissa bits).
    """
    from hplus.operators import _int_root

    m_out = int(out_truncation)
    c0 = phi.c0
    n_top = max(0, min(int(n_cutoff) if c0 == 0 else _int_root(m_out, c0), d.truncation))
    e = phi.varphi.coeffs.astype(np.clongdouble)
    c1 = e[0]
    e_terms = [(m, e[m - 1]) for m in range(2, len(e) + 1) if e[m - 1] != 0]
    out = np.zeros(m_out, dtype=np.clongdouble)
    for n in range(1, n_top + 1):
        a = np.clongdouble(d.coeffs[n - 1])
        shift = n**c0
        room = m_out // shift
        if a == 0 or room < 1:
            continue
        neg_log = -np.log(np.longdouble(n))
        g = np.zeros(room, dtype=np.clongdouble)
        g[0] = 1
        term = g.copy()
        r = 0
        while 2 ** (r + 1) <= room:
            r += 1
            nxt = np.zeros(room, dtype=np.clongdouble)
            for m, em in e_terms:
                top = room // m
                nxt[m - 1 : m * top : m] += term[:top] * (neg_log * em)
            term = nxt / r
            g += term
        out[shift - 1 : shift * room : shift] += a * np.exp(c1 * neg_log) * g
    return out


def seminorm_even_translated(d, q: int, k: int, out_truncation: int):
    """||D||_{2q,k} as ||translate(D, 1/k)^q||_{H^2}^{1/q}, one power per k."""
    from hplus import _kernels
    from hplus.series import (
        _SAFE_SQUARE_SUM_MIN,
        SeminormValue,
        _rescaled_l2_norm,
        seminorm_2,
        translate,
    )

    if q == 1:
        return SeminormValue(seminorm_2(d, k), True)
    shifted = translate(d, 1.0 / k)
    _, vals = power_terms_loop(*_kernels.support(shifted.coeffs, out_truncation), q, out_truncation)
    with np.errstate(over="ignore", under="ignore"):
        l2 = np.sum(vals.real**2 + vals.imag**2)
    if _SAFE_SQUARE_SUM_MIN <= l2 < math.inf:
        value = float(l2 ** (0.5 / q))
    else:
        scale, norm = _rescaled_l2_norm(np.abs(vals))
        value = scale ** (1.0 / q) * norm ** (1.0 / q)
    return SeminormValue(value, d.support_max() ** q <= out_truncation)


def power_terms_loop(ia, va, k: int, out_len: int):
    """k-th convolution power (k >= 1) of the support (ia, va) at out_len.

    (indices, values) while every product has nnz_a * nnz_b <= out_len,
    else (None, coefficient array); raises CoefficientOverflow past the
    float range.
    """
    from hplus import _kernels
    from hplus.series import _in_float_range

    ib, vb = ia, va
    with np.errstate(over="ignore", invalid="ignore"):
        while k > 1 and len(ia) * len(ib) <= out_len:
            ib, vb = _kernels.convolve_support(ia, va, ib, vb, out_len)
            k -= 1
        if k > 1:
            base = _kernels.from_support(ia, va, out_len)
            ib, vb = None, _kernels.from_support(ib, vb, out_len)
            for _ in range(k - 1):
                vb = _kernels.dirichlet_convolve(base, vb, out_len)
    return ib, _in_float_range(vb)


def superpose_poly_loop(d, b):
    """sum_j b_j D^j, each power one ``multiply`` by D from the unit."""
    from hplus.series import DirichletSeries, multiply, with_truncation

    n_trunc = d.truncation
    out = DirichletSeries.zero(n_trunc)
    cur = DirichletSeries.monomial(1, 1.0, n_trunc)
    base = with_truncation(d, n_trunc)
    for j, bj in enumerate(b):
        if j > 0:
            cur = multiply(base, cur)
        if bj != 0:
            out = out + complex(bj) * cur
    return out


def superpose_entire_loop(d, ec, big_k: int, m_check: int):
    """sum_{k<=K} a_k D^k and its tail diagnostics, with all K + 1 powers and
    all K + 1 tails kept."""
    from hplus.numtheory import euler_product
    from hplus.series import DirichletSeries, multiply, seminorm_2, with_truncation
    from hplus.superposition import TailDiagnostic

    base_norm = seminorm_2(d, 4 * m_check)
    log_terms = []
    if ec.log_abs is not None and base_norm > 0:
        log_c_m = euler_product(2 * m_check, math.sqrt(1 / 2))[2]
        for k in range(big_k, 0, -1):
            log_prod = euler_product(4 * m_check, math.sqrt(2.0 / k))[2]
            log_terms.append(log_c_m + k * (log_prod + math.log(base_norm)) + ec.log_abs(k))
        log_terms.reverse()
    n_trunc = d.truncation
    powers = [DirichletSeries.monomial(1, 1.0, n_trunc)]
    base = with_truncation(d, n_trunc)
    for _ in range(big_k):
        powers.append(multiply(base, powers[-1]))
    coeffs = [complex(ec.coeff(k)) for k in range(big_k + 1)]
    total = DirichletSeries.zero(n_trunc)
    for k in range(big_k + 1):
        if coeffs[k] != 0:
            total = total + coeffs[k] * powers[k]
    diagnostics = []
    tail = DirichletSeries.zero(n_trunc)
    tails = [tail]
    for k in range(big_k, 0, -1):
        tail = tail + coeffs[k] * powers[k]
        tails.append(tail)
    tails.reverse()
    for k_from in range(0, big_k):
        delta = seminorm_2(tails[k_from], m_check)
        log_maj = None
        if log_terms:
            logs = log_terms[k_from:]
            top = max(logs)
            log_maj = top + math.log(sum(math.exp(v - top) for v in logs))
        diagnostics.append(TailDiagnostic(k_from, delta, log_maj))
    return total, diagnostics


def composition_criterion_loop(d, m: int, k_max: int):
    """(norms, roots): ||D^k||_{2,m} and its k-th root for k = 1..k_max, each
    power one ``multiply`` by D from the one before."""
    from hplus.series import multiply, seminorm_2, with_truncation

    ks = np.arange(1, k_max + 1)
    norms = np.empty(k_max, dtype=np.float64)
    cur = with_truncation(d, d.truncation)
    base = cur
    for k in range(1, k_max + 1):
        if k > 1:
            cur = multiply(base, cur)
        norms[k - 1] = seminorm_2(cur, m)
    return norms, norms ** (1.0 / ks)


def convolve_rows_unchunked(a, b, out_len: int) -> np.ndarray:
    """The split loops of a * b truncated at out_len, each slice's products
    formed whole, a_d the left factor."""
    from hplus import _kernels

    c = np.zeros(out_len, dtype=np.complex128)
    split = _kernels._hyperbola_split(a, b, out_len)
    for i in np.flatnonzero(a[:split]):
        d = i + 1
        top = min(len(b), out_len // d)
        if top:
            c[d - 1 : d * top : d] += a[i] * b[:top]
    for j in np.flatnonzero(b[: out_len // (split + 1)])[::-1]:
        m = j + 1
        hi = min(len(a), out_len // m)
        c[(split + 1) * m - 1 : hi * m : m] += a[split:hi] * b[j]
    return c


def weighted_l2_roots_unfused(idx, vals, ks, q: int) -> list[float]:
    """(sum |v_i|^2 idx_i^{-2/k})^{1/(2q)} for each k, with the rescaled
    fallback of ``series._weighted_l2_roots``, every intermediate a fresh array."""
    from hplus.series import _SAFE_SQUARE_SUM_MIN, _rescaled_l2_norm

    if idx is None:
        n = np.arange(1, len(vals) + 1, dtype=np.float64)
    else:
        n = idx.astype(np.float64)
    roots = []
    with np.errstate(over="ignore", under="ignore"):
        squares = vals.real**2 + vals.imag**2
        for k in ks:
            square_sum = float(np.sum(squares * n ** (-2.0 / k)))
            if _SAFE_SQUARE_SUM_MIN <= square_sum < math.inf:
                roots.append(math.sqrt(square_sum) if q == 1 else square_sum ** (0.5 / q))
            else:
                scale, norm = _rescaled_l2_norm(np.abs(vals) * n ** (-1.0 / k))
                roots.append(scale ** (1.0 / q) * norm ** (1.0 / q))
    return roots


def translate_unfused(d, delta: float) -> np.ndarray:
    """The coefficients a_n * n^{-delta} of d shifted by delta > 0."""
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    return d.coeffs * n ** (-float(delta))
