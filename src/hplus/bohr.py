"""Bohr lift to prime-scaled polytori, rho norm estimation, non-extension sums.

The lift identifies a series supported on P_N-smooth indices with a
polynomial in N variables,c_alpha = a_n for n = prod p_j^{alpha_j}.  Norms
over the scaled polydisc are estimated by seeded Monte Carlo on the torus;
the p = 2 case has an exact weighted-Parseval companion used as a
cross-check everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import TableTooSmall
from .numtheory import MultiIndex, PrimeTable, sieve
from .series import DirichletSeries

MC_PRNG_NAME = "philox"  # counter-based; partitioned streams stay reproducible
_MC_CHUNK = 1 << 14
_MC_BLOCK = 1 << 10  # samples per sub-block: the (terms x block) arrays stay in cache


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial sum c_alpha z^alpha in n_vars variables, terms keyed by exponent."""

    n_vars: int
    terms: dict[MultiIndex, complex]

    def __post_init__(self):
        if self.n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {self.n_vars}")
        clean = {}
        for alpha, c in self.terms.items():
            if len(alpha) > self.n_vars:
                raise ValueError(
                    f"index {alpha.exponents} uses more than {self.n_vars} variables"
                )
            c = complex(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "terms", clean)

    def evaluate(self, z: np.ndarray) -> complex:
        """Value at a point z of length n_vars."""
        total = 0j
        for alpha, c in self.terms.items():
            prod = c
            for j, e in enumerate(alpha.exponents):
                if e:
                    prod *= z[j] ** e
            total += prod
        return total

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if other.n_vars != self.n_vars:
            raise ValueError("cannot add polynomials in different variable counts")
        merged = dict(self.terms)
        for alpha, c in other.terms.items():
            merged[alpha] = merged.get(alpha, 0j) + c
        return MultiPoly(self.n_vars, merged)


@dataclass(frozen=True)
class TorusSample:
    """A point on the n_vars-torus: unimodular coordinates."""

    z: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(self.z, dtype=np.complex128)
        if z.ndim != 1 or len(z) < 1:
            raise ValueError("torus sample must be a non-empty 1-d array")
        if np.max(np.abs(np.abs(z) - 1.0)) > 1e-9:
            raise ValueError("torus coordinates must be unimodular")
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def n_vars(self) -> int:
        return len(self.z)

    @staticmethod
    def draw(n_vars: int, count: int, seed: int) -> list["TorusSample"]:
        """Uniform i.i.d. samples from the torus (Philox stream keyed by seed)."""
        gen = np.random.Generator(np.random.Philox(key=seed))
        theta = gen.uniform(0.0, 2.0 * np.pi, size=(count, n_vars))
        return [TorusSample(np.exp(1j * row)) for row in theta]

    def scaled(self, k: int, table: PrimeTable) -> np.ndarray:
        """Coordinates pulled onto the prime-scaled polydisc: p_j^{-1/k} z_j."""
        if len(table.primes) < self.n_vars:
            raise TableTooSmall(
                f"need {self.n_vars} primes, table has {len(table.primes)}"
            )
        radii = table.primes[: self.n_vars].astype(np.float64) ** (-1.0 / k)
        return radii * self.z


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


def _divide_out(n: np.ndarray, primes: np.ndarray, expo: np.ndarray | None = None) -> np.ndarray:
    """What is left of each n after dividing out every power of the given primes.

    When ``expo`` is given, expo[i, j] is incremented once per division of
    n[i] by primes[j], which leaves it holding the exponent of primes[j].
    """
    rest = n.copy()
    for j, p in enumerate(primes):
        rows = np.flatnonzero(rest % p == 0)
        while len(rows):
            rest[rows] //= p
            if expo is not None:
                expo[rows, j] += 1
            rows = rows[rest[rows] % p == 0]
    return rest


def lift(d: DirichletSeries, n_vars: int, table: PrimeTable) -> LiftResult:
    """Bohr lift of the series restricted to indices smooth over the first n_vars primes.

    Coefficients at non-smooth indices are dropped, counted, and their
    squared mass reported, so callers get an explicit accounting of the
    restriction.  Smoothness and exponents come from dividing the first
    n_vars primes out of the whole support at once; terms are inserted in
    ascending index.
    """
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    idx = np.flatnonzero(d.coeffs)
    n = idx + 1
    beyond = np.searchsorted(n, table.limit, side="right")
    if beyond < len(n):
        raise TableTooSmall(f"n = {int(n[beyond])} exceeds sieve limit {table.limit}")
    primes = table.primes[:n_vars]
    kept = _divide_out(n, primes) == 1
    smooth = n[kept]
    # exponents only for the kept indices, and only over primes up to the
    # largest of them: one int8 row per term of the result
    if len(smooth):
        primes = primes[: np.searchsorted(primes, smooth[-1], side="right")]
    expo = np.zeros((len(smooth), len(primes)), dtype=np.int8)
    _divide_out(smooth, primes, expo)
    terms = {
        MultiIndex(tuple(alpha)): c
        for alpha, c in zip(expo.tolist(), d.coeffs[idx[kept]].tolist())
    }
    dropped_sq = 0.0
    for c in d.coeffs[idx[~kept]]:
        dropped_sq += abs(c) ** 2
    return LiftResult(MultiPoly(n_vars, terms), len(n) - len(smooth), dropped_sq)


def _term_arrays(f: MultiPoly, k: int, table: PrimeTable):
    """Per-term coefficient, radius factor prod p_j^{-alpha_j/k}, integer exponent matrix.

    Terms come in lexicographic order of their exponents; ``rho_estimate``
    sums them in that order.
    """
    if len(table.primes) < f.n_vars:
        raise TableTooSmall(f"need {f.n_vars} primes, table has {len(table.primes)}")
    primes = table.primes[: f.n_vars].astype(np.float64)
    n_terms = len(f.terms)
    coefs = np.empty(n_terms, dtype=np.complex128)
    expo = np.zeros((n_terms, f.n_vars), dtype=np.int64)
    for t, (alpha, c) in enumerate(sorted(f.terms.items(), key=lambda kv: kv[0].exponents)):
        coefs[t] = c
        expo[t, : len(alpha)] = alpha.exponents
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
    costs one complex exponential per variable, w_j = exp(i theta_j).  The
    powers w_j^e are built by square-and-multiply, only for the exponents
    that occur (``_power_rows``), so the cost grows with the number of terms
    and of distinct exponents and with log2 of the degree, not with the
    degree.  Each monomial z^alpha is the product of its variables' powers,
    and the terms are summed in lexicographic order of their exponents
    without a BLAS call, so the bits do not depend on the BLAS thread count.
    Chunks of ``_MC_CHUNK`` samples and the sub-blocks of ``_MC_BLOCK``
    samples inside them only group the stream, they do not reorder it.
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
    scaled = (coefs * rad)[:, None]
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        theta = gen.uniform(0.0, 2.0 * np.pi, size=(m, f.n_vars))
        w = np.exp(1j * theta[:, used].T)  # (used variables, m)
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
    value = mean ** (1.0 / p)
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        se_mean = math.sqrt(var / samples)
        se = se_mean / p * mean ** (1.0 / p - 1.0) if mean > 0 else se_mean
    else:
        se = math.inf
    return RhoEstimate(value=value, std_error=se, samples=samples, seed=seed, k=k, p=p)


def parseval_rho2(f: MultiPoly, k: int, table: PrimeTable) -> float:
    """Exact rho_{k,2} norm by weighted Parseval: sqrt(sum |c_alpha|^2 prod p_j^{-2 alpha_j/k}).

    Terms are summed in insertion order.  ``rho_estimate`` at p = 2
    estimates the same value.
    """
    if len(table.primes) < f.n_vars:
        raise TableTooSmall(f"need {f.n_vars} primes, table has {len(table.primes)}")
    primes = table.primes[: f.n_vars].astype(float)
    return math.sqrt(
        sum(
            abs(c) ** 2
            * float(np.prod(primes ** (-2.0 * np.array([alpha[j] for j in range(f.n_vars)]) / k)))
            for alpha, c in f.terms.items()
        )
    )


def sieve_for_n_primes(n_primes: int) -> PrimeTable:
    """A table guaranteed to hold at least n_primes primes."""
    limit = 16
    while True:
        table = sieve(limit)
        if len(table.primes) >= n_primes:
            return table
        limit *= 4


def weighted_h2_norm(d: DirichletSeries, k: int, table: PrimeTable) -> float:
    """The Hilbert seminorm computed through prime-power weights.

    Weights prod p_j^{-2 alpha_j / k} are built multiplicatively from the
    factorization of each index, an independent code path from
    ``series.seminorm_2`` (which raises n to -2/k directly); the two agree
    as a regression identity.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_max = d.truncation
    if n_max > table.limit:
        raise TableTooSmall(f"truncation {n_max} exceeds sieve limit {table.limit}")
    prime_vals = np.zeros(n_max + 1, dtype=np.complex128)
    pr = table.primes[table.primes <= n_max]
    prime_vals[pr] = pr.astype(np.float64) ** (-2.0 / k)
    weights = _kernels.mult_extend(table.spf_up_to(n_max), prime_vals, n_max).real
    mags = d.coeffs.real**2 + d.coeffs.imag**2
    return float(np.sqrt(np.sum(mags * weights[1:])))


def nonextension_partial_sums(n_max: int, table: PrimeTable) -> NonextensionTable:
    """Growth of sum z_n / sqrt(p_n) for the slowly-divergent boundary sequence.

    z_1 = z_2 = 1/2 and z_n = 1 / (sqrt(n ln n) lnln n) for n >= 3.  The
    divergence is triple-log slow; alongside S(M) the table carries the
    term-wise lower bound column (valid while p_n <= 2 n ln n, which is
    verified over the range and reported).
    """
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    if len(table.primes) < n_max:
        raise TableTooSmall(
            f"need the first {n_max} primes, table holds {len(table.primes)}"
        )
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
    p_n = table.primes[:n_max].astype(np.float64)
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

    return NonextensionTable(
        checkpoints=ladder,
        partial_sums=cum[ladder - 1],
        lower_bound=lb_cum[ladder - 1],
        constant=c_lb,
        prime_bound_ok=bound_ok,
        notes="z_1=z_2=1/2; z_n = 1/(sqrt(n ln n) lnln n) for n >= 3",
    )
