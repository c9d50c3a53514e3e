"""Prime sieve, factorization, divisor functions d_k, exact prime counts, and
the truncated Euler products behind the comparison and chain constants.

Everything here is exact and sieve-backed: no analytic approximations of
pi(x) are used anywhere.  A ``PrimeTable`` holds the primes alone, and
everything indexed by prime is indexed by rank (p_{j+1} at j): ``factorize``
divides by the primes up to the square root, and the multiplicative
extensions take their values at the primes in the table's order.  Tables
are immutable after construction and safe to share across threads.

``euler_product(e, t)`` is the one routine that walks primes to form an
Euler product: prod over the primes with p^{-1/e} >= t of (1 - p^{-1/e})^{-1},
with its log.  It keeps one prefix per exponent e over the primes up to the
largest bound t^{-e} asked for so far: the factors r_j = p_j^{-1/e} (libm
``pow``, as Python's float ``**``), their running product of 1/(1 - r_j)
and the running sum of -log1p(-r_j).  A call reads its cut off that prefix
and sieves again only when it needs a larger bound.  Only one prefix whose
sieve limit exceeds 10^6 is kept: building a second evicts the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from . import _kernels
from .errors import BeyondDeskScale, TableTooSmall

# Euler products need primes up to threshold^(-exponent); above this bound
# they are beyond desk scale.
DESK_SCALE_PRIME_BOUND = 1e8


@dataclass(frozen=True)
class PrimeTable:
    """Sieve output up to ``limit``: the ascending primes, p_{j+1} at j."""

    limit: int
    primes: np.ndarray  # int64, ascending

    def __post_init__(self):
        self.primes.flags.writeable = False

    @cached_property
    def _cum_log_primes(self) -> np.ndarray:
        # cum[i] = sum of log p over the first i primes, accumulated ascending
        return np.concatenate([[0.0], np.cumsum(np.log(self.primes.astype(np.float64)))])

    def nth_prime(self, n: int) -> int:
        """The n-th prime (1-based); requires the sieve to reach that far."""
        if n < 1 or n > len(self.primes):
            raise TableTooSmall(f"table holds {len(self.primes)} primes, need the {n}-th")
        return int(self.primes[n - 1])


@dataclass(frozen=True)
class MultiIndex:
    """Exponent vector alpha with n = prod p_j^{alpha_j}; trailing zeros trimmed."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(map(int, self.exponents))
        end = len(exps)
        while end and exps[end - 1] == 0:
            end -= 1
        exps = exps[:end]
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    def __len__(self) -> int:
        return len(self.exponents)

    def __getitem__(self, j: int) -> int:
        return self.exponents[j] if j < len(self.exponents) else 0

    def to_int(self, table: PrimeTable) -> int:
        """Reconstruct n = prod p_j^{alpha_j}."""
        if len(self.exponents) > len(table.primes):
            raise TableTooSmall(
                f"index uses {len(self.exponents)} primes, table has {len(table.primes)}"
            )
        n = 1
        for j in compress(range(len(self.exponents)), self.exponents):
            n *= int(table.primes[j]) ** self.exponents[j]
        return n


def sieve(limit: int) -> PrimeTable:
    """The primes up to ``limit`` (inclusive), from an odd-only boolean sieve.

    The limit stays below 2^31, the int32 range of the numbers in each
    step of the multiplicative extension.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 2**31:
        raise BeyondDeskScale(f"sieve limit {limit} exceeds the int32 range of mult_extend's steps")
    limit = int(limit)
    return PrimeTable(limit=limit, primes=_kernels.sieve_primes(limit))


def factorize(n: int, table: PrimeTable) -> MultiIndex:
    """Factor n by the primes up to isqrt(n); what they leave is 1 or one prime."""
    n = int(n)
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    if n > table.limit:
        raise TableTooSmall(f"n = {n} exceeds sieve limit {table.limit}")
    if n == 1:
        return MultiIndex(())
    primes = table.primes
    small = primes[: np.searchsorted(primes, math.isqrt(n), side="right")]
    ranks = np.nonzero(n % small == 0)[0].tolist()
    exps = []
    for j in ranks:
        p = int(primes[j])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    if n > 1:  # a prime above isqrt of the n given, so above every rank found
        ranks.append(int(np.searchsorted(primes, n)))
        exps.append(1)
    out = [0] * (ranks[-1] + 1)
    for j, e in zip(ranks, exps):
        out[j] = e
    return MultiIndex(tuple(out))


def divisor_power_table(k: int, n_max: int) -> np.ndarray:
    """Table of d_k(1..n_max): ordered factorizations of n into k factors.

    Built by (k-1)-fold Dirichlet convolution of the all-ones vector against
    itself, in exact uint64 arithmetic.  d_0 is the indicator of n = 1 and
    d_1 is identically 1.  Raises OverflowError if any entry wraps.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if k == 0:
        out = np.zeros(n_max, dtype=np.uint64)
        out[0] = 1
        return out
    table = np.ones(n_max, dtype=np.uint64)
    for _ in range(k - 1):
        table, overflow = _kernels.divisor_sum_u64(table)
        if overflow:
            raise OverflowError(f"d_{k} table overflows uint64 below n = {n_max}")
    return table


def prime_pi(x: float, table: PrimeTable) -> int:
    """Exact count of primes <= x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x > table.limit:
        raise TableTooSmall(f"x = {x} exceeds sieve limit {table.limit}")
    return int(np.searchsorted(table.primes, math.floor(x), side="right"))


def chebyshev_theta(x: float, table: PrimeTable) -> float:
    """First Chebyshev function: sum of log p over primes p <= x.

    The logs are accumulated in ascending order in double precision.
    """
    return float(table._cum_log_primes[prime_pi(x, table)])


# exponent -> (sieve limit, -r_j, running products, running log sums), over
# the primes up to the sieve limit; see the module docstring.
_euler_prefixes: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}

# Sieve limit above which euler_product keeps one prefix only: a prefix holds
# three float64 arrays over its primes, 138 MB for the primes to 10^8.
_EULER_PREFIX_KEEP_LIMIT = 10**6

# primes turned into floats per Python-level pow batch
_POW_CHUNK = 1 << 16


def euler_product(exponent: int, threshold: float) -> tuple[int, float, float]:
    """(j_cut, product, log_product) of the Euler product at ``exponent``.

    The product runs over the j_cut primes p_j with r_j = p_j^{-1/exponent}
    >= ``threshold`` (the first j_cut primes) of (1 - r_j)^{-1}, multiplied
    in ascending order; log_product sums -log1p(-r_j) in the same order and
    stays finite where the product overflows to inf.  The empty product,
    (0, 1.0, 0.0), is returned without sieving when threshold >= 1.  The
    primes lie below threshold^(-exponent); BeyondDeskScale is raised when
    that bound exceeds DESK_SCALE_PRIME_BOUND.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if threshold >= 1.0:
        return 0, 1.0, 0.0
    bound = threshold ** (-float(exponent))
    if bound > DESK_SCALE_PRIME_BOUND:
        raise BeyondDeskScale(
            f"Euler product at exponent {exponent}, threshold {threshold!r} needs primes "
            f"up to {bound:.2e}; beyond desk scale"
        )
    limit = math.ceil(bound) + 1  # a bound rounded just below a prime still reaches it
    prefix = _euler_prefixes.get(exponent)
    if prefix is None or prefix[0] < limit:
        if limit > _EULER_PREFIX_KEEP_LIMIT:  # evict the large prefix before building one
            large = [e for e, kept in _euler_prefixes.items() if kept[0] > _EULER_PREFIX_KEEP_LIMIT]
            for e in large:
                del _euler_prefixes[e]
        prefix = _euler_prefixes[exponent] = _euler_prefix(exponent, limit)
    _, neg_r, products, log_products = prefix
    j_cut = int(np.searchsorted(neg_r, -threshold, side="right"))  # r_j descends
    if j_cut == 0:
        return 0, 1.0, 0.0
    return j_cut, float(products[j_cut - 1]), float(log_products[j_cut - 1])


def _euler_prefix(exponent: int, limit: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    primes = sieve(limit).primes
    power = -1.0 / exponent
    neg_r = np.empty(len(primes), dtype=np.float64)
    for start in range(0, len(primes), _POW_CHUNK):
        chunk = primes[start : start + _POW_CHUNK].tolist()
        neg_r[start : start + len(chunk)] = [-(float(p) ** power) for p in chunk]
    del primes
    products = np.add(1.0, neg_r)  # 1 - r_j
    np.divide(1.0, products, out=products)
    with np.errstate(over="ignore"):  # the log sums stay finite
        np.cumprod(products, out=products)
    log_products = np.log1p(neg_r)
    np.negative(log_products, out=log_products)
    np.cumsum(log_products, out=log_products)
    return limit, neg_r, products, log_products
