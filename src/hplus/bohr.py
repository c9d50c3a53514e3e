"""Bohr lift to prime-scaled polytori, rho norm estimation, non-extension sums.

The lift identifies a series supported on P_N-smooth indices with a
polynomial in N variables, c_alpha = a_n for n = prod p_j^{alpha_j}, held as
its exponent matrix (a row alpha per term) and coefficient vector.  Norms
over the scaled polydisc are estimated by seeded Monte Carlo on the torus;
the p = 2 case has an exact weighted-Parseval companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import TableTooSmall
from .numtheory import MultiIndex, PrimeTable, prime_pi, sieve
from .series import _SAFE_SQUARE_SUM_MIN, DirichletSeries, _l2_root

MC_PRNG_NAME = "philox"  # counter-based; partitioned streams stay reproducible
_MC_CHUNK = 1 << 14
_MC_BLOCK = 1 << 10  # samples per sub-block: the (terms x block) arrays stay in cache


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Polynomial sum c_alpha z^alpha in n_vars variables, one row of exponents per term.

    Row t of the read-only int64 matrix ``exponents`` (terms x n_vars) is the
    alpha of ``coeffs[t]`` (read-only complex128); rows are distinct and
    non-negative, and zero coefficients are dropped.  ``terms`` derives the
    {MultiIndex: c} dict in row order, for readers that key a term by n or alpha.
    """

    n_vars: int
    exponents: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        coeffs = np.array(self.coeffs, dtype=np.complex128).reshape(-1)
        try:
            expo = np.array(self.exponents, dtype=np.int64)
        except ValueError:  # rows of unequal length
            expo = None
        if expo is not None and expo.size == 0:
            expo = expo.reshape(0, self.n_vars)
        if expo is None or expo.shape != (len(coeffs), self.n_vars):
            raise ValueError(f"need one row of n_vars = {self.n_vars} exponents per coefficient")
        if expo.min(initial=0) < 0:
            raise ValueError(f"exponents must be >= 0, got {int(expo.min())}")
        ordered = expo[np.lexsort(expo.T[::-1])]
        same = np.flatnonzero(np.all(ordered[1:] == ordered[:-1], axis=1))
        if len(same):
            raise ValueError(f"repeated exponent row {ordered[same[0]].tolist()}")
        expo, coeffs = expo[coeffs != 0], coeffs[coeffs != 0]
        for name, arr in (("exponents", expo), ("coeffs", coeffs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def terms(self) -> dict[MultiIndex, complex]:
        return dict(zip(map(MultiIndex, self.exponents.tolist()), self.coeffs.tolist()))

    def evaluate(self, z: np.ndarray) -> complex:
        """Value at a point z of length n_vars."""
        return complex(np.sum(self.coeffs * np.prod(np.asarray(z) ** self.exponents, axis=1)))


@dataclass(frozen=True)
class LiftResult:
    """Lift of a series plus an accounting of the dropped non-smooth mass."""

    poly: MultiPoly
    dropped_count: int
    dropped_sq_mass: float  # sum |a_n|^2 over dropped indices


@dataclass(frozen=True)
class RhoEstimate:
    """Monte Carlo estimate of a rho_{k,p} norm with its standard error.

    ``std_error`` is the delta-method error of the final p-th root, derived
    from the sample deviation of the |f|^p statistic.
    """

    value: float
    std_error: float
    samples: int
    seed: int
    k: int
    p: float
    prng: str = MC_PRNG_NAME


@dataclass(frozen=True)
class NonextensionTable:
    """Partial sums S(M) = sum z_n / sqrt(p_n) on a geometric ladder of M.

    ``lower_bound`` carries the independent column sum_{3<=n<=M} C/(n ln n lnln n)
    with C = 1/sqrt(2), valid term by term whenever p_n <= 2 n ln n (checked).
    """

    checkpoints: np.ndarray  # int64 ladder of M values
    partial_sums: np.ndarray
    lower_bound: np.ndarray
    constant: float
    prime_bound_ok: bool
    notes: str = field(default="")


def _divide_out(n: np.ndarray, primes: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """What is left of each n after dividing out every power of the given primes.

    expo[i, j] is incremented once per division of n[i] by primes[j], which
    leaves it holding the exponent of primes[j] when it started at 0.
    """
    rest = n.copy()
    for j, p in enumerate(primes):
        rows = np.flatnonzero(rest % p == 0)
        while len(rows):
            rest[rows] //= p
            expo[rows, j] += 1
            rows = rows[rest[rows] % p == 0]
    return rest


def lift(d: DirichletSeries, n_vars: int, table: PrimeTable) -> LiftResult:
    """Bohr lift of the series restricted to indices smooth over the first n_vars primes.

    Coefficients at non-smooth indices are dropped, counted, and their
    squared mass reported, so callers get an explicit accounting of the
    restriction.  One pass divides the first n_vars primes out of the whole
    support and counts every index's exponents; the rows of the smooth
    indices, in ascending index, become the polynomial's exponent matrix.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    idx = np.flatnonzero(d.coeffs)
    n = idx + 1
    beyond = np.searchsorted(n, table.limit, side="right")
    if beyond < len(n):
        raise TableTooSmall(f"n = {int(n[beyond])} exceeds sieve limit {table.limit}")
    expo = np.zeros((len(n), n_vars), dtype=np.int8)  # n < 2^63: every exponent < 63
    kept = _divide_out(n, table.primes[:n_vars], expo) == 1
    dropped = d.coeffs[idx[~kept]]
    dropped_sq = 0.0
    # hypot is abs(c); +=, not sum(), which compensates from Python 3.12 on
    for m in np.hypot(dropped.real, dropped.imag).tolist():
        dropped_sq += m**2
    poly = MultiPoly(n_vars, expo[kept], d.coeffs[idx[kept]])
    return LiftResult(poly, int(np.count_nonzero(~kept)), dropped_sq)


def _term_arrays(f: MultiPoly, k: int, table: PrimeTable):
    """Per-term coefficient, radius factor prod p_j^{-alpha_j/k}, integer exponent matrix.

    Terms come in lexicographic order of their exponents; ``rho_estimate``
    sums them in that order.
    """
    table.nth_prime(f.n_vars)
    primes = table.primes[: f.n_vars].astype(np.float64)
    order = np.lexsort(f.exponents.T[::-1])  # column 0 the primary key
    coefs, expo = f.coeffs[order], f.exponents[order]
    # p_j ** (-alpha_j / k) rounds each factor once; (p_j ** (-1 / k)) ** alpha_j
    # would raise the rounding of p_j ** (-1 / k) to the power alpha_j
    rad_factors = np.prod(primes[None, :] ** (-expo / k), axis=1)
    return coefs, rad_factors, expo


def _power_rows(expo: np.ndarray):
    """The powers w_j^e a monomial table needs, and the rows whose product is each monomial.

    Row 0 of the table is 1; the other rows hold w_j^e for the distinct
    nonzero exponents e of each variable j that some term holds, so the
    table grows with the exponents that occur, not with the degree.
    Returns the variables that occur (``used``), the position in ``used``
    and the exponent of each row from 1 on, and a (terms, variables) matrix
    of rows: each term is the product of its rows, one per used variable
    in ascending order, with row 0 for the variables it does not hold.
    """
    used = np.flatnonzero(expo.any(axis=0))
    var: list[int] = []
    exps: list[int] = []
    rows = np.zeros((len(expo), max(1, len(used))), dtype=np.intp)
    for c, j in enumerate(used):
        es, inv = np.unique(expo[:, j], return_inverse=True)
        first = 1 + len(exps) - int(es[0] == 0)  # es[i] > 0 takes row first + i
        rows[:, c] = np.where(expo[:, j] > 0, first + inv, 0)
        held = es[es > 0].tolist()
        var += [c] * len(held)
        exps += held
    return used, np.array(var, dtype=np.intp), np.array(exps, dtype=np.int64), rows


def rho_estimate(
    f: MultiPoly,
    k: int,
    p: float,
    samples: int,
    seed: int,
    table: PrimeTable | None = None,
) -> RhoEstimate:
    """Monte Carlo mean of |f(p^{-1/k} z)|^p over uniform torus samples, rooted at the end.

    Sampling uses a Philox counter-based generator keyed by ``seed``; for a
    fixed (seed, samples) pair the estimate is deterministic.  Each sample
    costs one cosine and one sine per variable, written as the real and
    imaginary parts of w_j = exp(i theta_j) (the bits of ``np.exp``).  The
    powers w_j^e are built by square-and-multiply, only for the exponents
    that occur (``_power_rows``), so the cost grows with the number of terms
    and of distinct exponents and with log2 of the degree, not with the
    degree.  Each monomial z^alpha is the product of its variables' powers,
    and the terms are summed in lexicographic order of their exponents
    without a BLAS call, so the bits do not depend on the BLAS thread count.
    Chunks of ``_MC_CHUNK`` samples and the sub-blocks of ``_MC_BLOCK``
    samples inside them only group the stream, they do not reorder it.
    |f| is at most B = sum |c_alpha| prod p_j^{-alpha_j/k} on the torus, held
    as top * spread (the largest term, and the sum of the terms over it) so
    that it cannot overflow.  When B^p or B^{2p} leaves
    ``[series._SAFE_SQUARE_SUM_MIN, inf)``, f / top / spread is sampled and
    the estimate and its error x are scaled back as top * (spread * x).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if table is None:
        table = sieve_for_n_primes(f.n_vars)
    coefs, rad, expo = _term_arrays(f, k, table)
    used, var, exps, rows = _power_rows(expo)
    # for each bit b of the exponents: the rows that take the factor w_j^(2^b), and their j
    steps = []
    for b in range(int(exps.max(initial=0)).bit_length()):
        sel = np.flatnonzero((exps >> b) & 1)
        steps.append((1 + sel, var[sel]))
    gen = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    done = 0
    scaled = coefs * rad
    moduli = np.abs(scaled)
    top = float(moduli.max(initial=0.0))
    spread = float(np.sum(moduli / top)) if top else 1.0
    with np.errstate(over="ignore", under="ignore"):
        if top == 0 or all(_SAFE_SQUARE_SUM_MIN <= np.float64(top * spread) ** e < math.inf
                           for e in (p, 2 * p)):
            top = spread = 1.0
    scaled = (scaled / top / spread)[:, None]
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        theta = gen.uniform(0.0, 2.0 * np.pi, size=(m, f.n_vars))
        t = theta[:, used].T  # (used variables, m)
        w = np.empty(t.shape, dtype=np.complex128)
        np.cos(t, out=w.real)
        np.sin(t, out=w.imag)
        vals = np.empty(m, dtype=np.complex128)
        for lo in range(0, m, _MC_BLOCK):
            hi = min(lo + _MC_BLOCK, m)
            powers = np.ones((1 + len(exps), hi - lo), dtype=np.complex128)
            square = w[:, lo:hi]  # w_j^(2^b)
            for b, (at, of) in enumerate(steps):
                if b:
                    square = square * square
                powers[at] *= square[of]
            mono = powers[rows[:, 0]]
            for c in range(1, rows.shape[1]):
                mono *= powers[rows[:, c]]
            mono *= scaled
            vals[lo:hi] = mono.sum(axis=0)  # term by term, no BLAS call
        stat = np.abs(vals) ** p
        total += float(np.sum(stat))
        total_sq += float(np.sum(stat * stat))
        done += m
    mean = total / samples
    value = top * (spread * mean ** (1.0 / p))
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        se_mean = math.sqrt(var / samples)
        se = top * (spread * (se_mean / p * mean ** (1.0 / p - 1.0) if mean > 0 else se_mean))
    else:
        se = math.inf
    return RhoEstimate(value=value, std_error=se, samples=samples, seed=seed, k=k, p=p)


def parseval_rho2(f: MultiPoly, k: int, table: PrimeTable) -> float:
    """Exact rho_{k,2} norm by weighted Parseval: sqrt(sum |c_alpha|^2 prod p_j^{-2 alpha_j/k}).

    Terms are summed in row order and rooted by ``series._l2_root``, which
    rescales a sum past the safe range.  ``rho_estimate`` at p = 2 estimates it.
    """
    table.nth_prime(f.n_vars)
    primes = table.primes[: f.n_vars].astype(float)
    weights = np.prod(primes ** (-2.0 * f.exponents / k), axis=1)
    moduli = np.hypot(f.coeffs.real, f.coeffs.imag)  # the bits of abs(complex)
    with np.errstate(over="ignore", under="ignore"):
        square_sum = sum((moduli**2 * weights).tolist())
    return _l2_root(square_sum, lambda: moduli * np.sqrt(weights))


def sieve_for_n_primes(n_primes: int) -> PrimeTable:
    """A table holding at least the first n_primes primes, from one sieve.

    p_n < n (ln n + ln ln n) for n >= 6 (Rosser and Schoenfeld 1962): the
    limit is that bound, with ln n taken at max(n, 6), 5 % above it and
    never below 100.
    """
    n = max(n_primes, 6)
    return sieve(max(100, int(n_primes * (math.log(n) + math.log(math.log(n))) * 1.05)))


def weighted_h2_norm(d: DirichletSeries, k: int, table: PrimeTable) -> float:
    """The Hilbert seminorm computed through prime-power weights.

    Weights prod p_j^{-2 alpha_j / k} are built multiplicatively from the
    factorization of each index, an independent code path from
    ``series.seminorm_2`` (which raises n to -2/k directly); the two agree
    as a regression identity.  The sum of |a_n|^2 w_n is formed in the
    weights' array, which is dropped before ``series._l2_root`` roots it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_max = d.truncation
    prime_vals = table.primes[: prime_pi(n_max, table)].astype(np.float64)
    prime_vals **= -2.0 / k  # as primes ** (-2 / k): at -1.0 numpy's ** divides
    weights = _kernels.mult_extend(table.primes, prime_vals, n_max)[1:]
    re, im = d.coeffs.real, d.coeffs.imag
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, n_max, _kernels._EXTEND_BLOCK):  # |a_n|^2 w_n, in place
            hi = lo + _kernels._EXTEND_BLOCK
            weights[lo:hi] *= re[lo:hi] ** 2 + im[lo:hi] ** 2
        square_sum = float(np.sum(weights))
    del weights  # before the fallback forms them anew
    return _l2_root(square_sum, lambda: np.hypot(re, im)
                    * np.sqrt(_kernels.mult_extend(table.primes, prime_vals, n_max)[1:]))


def nonextension_partial_sums(n_max: int, table: PrimeTable) -> NonextensionTable:
    """Growth of sum z_n / sqrt(p_n) for the slowly-divergent boundary sequence.

    z_1 = z_2 = 1/2 and z_n = 1 / (sqrt(n ln n) lnln n) for n >= 3.  The
    divergence is triple-log slow; alongside S(M) the table carries the
    term-wise lower bound column (valid while p_n <= 2 n ln n, which is
    verified over the range and reported).

    The n >= 3 are summed in blocks of ``_kernels._EXTEND_BLOCK``; each
    block's cumsum starts from the running sum in its slot 0, so the sums
    are added in the order of one cumsum over the whole range, and only the
    checkpoints are kept.
    """
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    table.nth_prime(n_max)
    # the powers of 10 below n_max, then n_max
    ladder = np.array([10**e for e in range(1, len(str(n_max - 1)))] + [n_max], dtype=np.int64)

    c_lb = 1.0 / math.sqrt(2.0)
    sums = np.empty(len(ladder), dtype=np.float64)
    lower = np.empty(len(ladder), dtype=np.float64)
    cum = 0.5 / math.sqrt(2.0) + 0.5 / math.sqrt(3.0)  # n = 1, 2: z_n = 1/2, p_n = 2, 3
    lb_cum = 0.0
    bound_ok = True
    for lo in range(3, n_max + 1, _kernels._EXTEND_BLOCK):
        hi = min(lo + _kernels._EXTEND_BLOCK, n_max + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        log_n = np.log(n)
        n_log = n * log_n  # n ln n
        loglog_n = np.log(log_n, out=log_n)  # ln ln n, over ln n
        p_n = table.primes[lo - 1 : hi - 1].astype(np.float64)
        # 2 (n ln n) has the bits of (2n) ln n, since doubling is exact
        bound_ok &= bool(np.all(p_n <= 2.0 * n_log))
        terms = 1.0 / (np.sqrt(n_log) * loglog_n) / np.sqrt(p_n)
        lb_terms = c_lb / (n_log * loglog_n)
        terms[0] += cum
        lb_terms[0] += lb_cum
        np.cumsum(terms, out=terms)
        np.cumsum(lb_terms, out=lb_terms)
        cum, lb_cum = terms[-1], lb_terms[-1]
        here = (ladder >= lo) & (ladder < hi)
        sums[here] = terms[ladder[here] - lo]
        lower[here] = lb_terms[ladder[here] - lo]

    return NonextensionTable(
        checkpoints=ladder,
        partial_sums=sums,
        lower_bound=lower,
        constant=c_lb,
        prime_bound_ok=bound_ok,
        notes="z_1=z_2=1/2; z_n = 1/(sqrt(n ln n) lnln n) for n >= 3",
    )
