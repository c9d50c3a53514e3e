"""Superposition operators and the growth experiments behind them.

Polynomial superposition rides on the algebra product.  Entire-function
superposition returns Cauchy-tail diagnostics in place of a convergence
proof.  The growth experiments (power-norm roots, prime-product chain,
log-space witnesses) verify the exact finite inequalities the asymptotic
arguments rest on: truncated power norms are certified lower bounds, and
all large-n work happens in log space on exact sieve data (pi, theta),
never materializing the underlying integers.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import support
from .errors import InexactPower
from .numtheory import PrimeTable, chebyshev_theta, euler_product, prime_pi, sieve
from .series import (
    DirichletSeries,
    _atomic_write_text,
    _csv_text,
    _power_ladder,
    _unit_scaled,
    _weighted_l2_roots,
    scale,
    seminorm_2,
    seminorm_comparison_constant,
)


@dataclass(frozen=True)
class EntireCoeffs:
    """Taylor coefficients a_k of an entire function, with a closed-form tag.

    ``log_abs`` (optional) returns log|a_k| for log-space majorants where the
    closed form admits one.
    """

    coeff: Callable[[int], complex]
    tag: str
    log_abs: Callable[[int], float] | None = None

    @staticmethod
    def exp_neg_k_to_k() -> "EntireCoeffs":
        """a_k = exp(-k^k), with 0^0 = 1."""
        return EntireCoeffs(
            coeff=lambda k: math.exp(-float(k) ** k) if k > 0 else math.exp(-1.0),
            tag="exp(-k^k)",
            log_abs=lambda k: -(float(k) ** k) if k > 0 else -1.0,
        )

    @staticmethod
    def exp_neg_k_to_c(c: float) -> "EntireCoeffs":
        """a_k = exp(-k^C)."""
        return EntireCoeffs(
            coeff=lambda k: math.exp(-float(k) ** c),
            tag=f"exp(-k^{c})",
            log_abs=lambda k: -(float(k) ** c),
        )

    @staticmethod
    def inverse_factorial() -> "EntireCoeffs":
        """a_k = 1/k! (the exponential function)."""
        return EntireCoeffs(
            coeff=lambda k: math.exp(-math.lgamma(k + 1)),
            tag="1/k!",
            log_abs=lambda k: -math.lgamma(k + 1),
        )


@dataclass(frozen=True)
class TailDiagnostic:
    """Seminorm of the partial-sum tail past k_from, with a log-space majorant
    when the coefficient tag admits one."""

    k_from: int
    tail_seminorm: float
    log_majorant: float | None


@dataclass(frozen=True)
class GrowthReport:
    """Power-norm growth table: rows (k, ||D^k||_{2,m}, r_k = ||D^k||^{1/k}).

    Boundedness of r_k is the composition-type criterion the report
    addresses; truncated norms make each row a certified lower bound.
    """

    m: int
    truncation: int
    ks: np.ndarray
    norms: np.ndarray
    roots: np.ndarray


@dataclass(frozen=True)
class ChainCheck:
    """Both sides of the power-norm chain inequality with its explicit constant.

    lhs = ||P^k||_{2,m} (exact), rhs = C_m * prod^k * ||P||_{2,4m}^k, where
    prod runs over the primes with p_j^{-1/(4m)} >= sqrt(2/k).  slack = rhs / lhs
    (inf where lhs = 0) stays finite where a side underflows as it stands.
    """

    lhs: float
    rhs: float
    c_m: float
    prime_product: float
    j_cut: int
    base_norm: float
    slack: float


@dataclass(frozen=True)
class LogWitnessTable:
    """Log-space growth rows for the translated-zeta power experiment.

    value[i] carries L_k at ks[i]; target is omega*k^delta/2 when omega > 0,
    else None (reported, table still produced).
    """

    m: int
    delta: float
    omega: float
    sieve_limit: int
    ks: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    targets: np.ndarray | None


@dataclass(frozen=True)
class ExponentTable:
    """Log-space exponent rows for the non-superposition experiments."""

    c: float
    c_prime: float
    eps: float
    delta: float
    omega: float
    penalty_tag: str
    sieve_limit: int
    ks: np.ndarray
    xs: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# superposition operators
# ---------------------------------------------------------------------------

def _terms(d: DirichletSeries, coeffs: Sequence[complex]):
    """a_k D^k for k < len(coeffs) at d's truncation, None where a_k = 0.

    D^0 is the unit and D^k for k >= 1 is rung k of the ``_power_ladder``
    of D's coefficient array: D itself, then one dense product D * D^{k-1}
    per power, as ``multiply`` forms it; the ladder checks each power and
    ``scale`` each a_k D^k to stay in the float range.  D^1 is D itself, signed
    zeros included: the sums of the terms start at +0.0, so no output holds -0.0.
    """
    unit = (None, DirichletSeries.monomial(1, 1.0, d.truncation).coeffs)
    powers = _power_ladder((None, d.coeffs), d.truncation)
    for a_k, (_, vals) in zip(coeffs, itertools.chain([unit], powers)):
        yield scale(a_k, DirichletSeries._of_finite(vals)) if a_k != 0 else None


def superpose_poly(d: DirichletSeries, b: Sequence[complex]) -> DirichletSeries:
    """Polynomial superposition sum_j b_j D^j at the series' own truncation."""
    terms = _terms(d, [complex(bj) for bj in b])
    return sum((t for t in terms if t is not None), DirichletSeries.zero(d.truncation))


def superpose_entire(
    d: DirichletSeries,
    ec: EntireCoeffs,
    big_k: int,
    m_check: int | Sequence[int],
) -> tuple[DirichletSeries, list[TailDiagnostic] | list[list[TailDiagnostic]]]:
    """Partial sum sum_{k<=K} a_k D^k with Cauchy-tail diagnostics at one
    seminorm index m or at each of a list (then one list per m, in its order).

    For every ladder point K' < K the diagnostic records the seminorm
    || sum_{K'<k<=K} a_k D^k ||_{2,m}, plus (when the tag admits it) the
    explicit log-space majorant assembled from the power-norm chain
    constant: log|a_k| + k log(prod_k * ||D||_{2,4m}) + log C_m, summed over
    the tail in log space.  log prod_k and log C_m are the log sums of their
    Euler products, finite where the products overflow.  Every m's majorant
    comes first: a constant beyond desk scale at any m raises BeyondDeskScale
    before any power is formed.  The powers and tails are formed once, each tail is
    weighed once for every distinct m, and each entry has the bits of its
    single-m call.
    """
    single = isinstance(m_check, numbers.Integral)
    ms = [m_check] if single else list(m_check)
    if big_k < 1 or min(ms, default=1) < 1:
        raise ValueError(f"need K >= 1 and m_check >= 1, got K={big_k}, m_check={m_check}")
    distinct = list(dict.fromkeys(ms))  # first occurrences, in list order
    majorants = []  # per distinct m, the log majorant of the tail past each k_from < K
    for m in distinct:
        norm_4m = seminorm_2(d, 4 * m)
        majorants.append([None] * big_k)
        if ec.log_abs is not None and norm_4m > 0:
            log_c_m = euler_product(2 * m, math.sqrt(1 / 2))[2]  # C_{m,1,2}
            # k = K first: its prime bound decides desk scale, and its one sieve serves every k
            logs = [log_c_m + k * (euler_product(4 * m, math.sqrt(2.0 / k))[2] + math.log(norm_4m))
                    + ec.log_abs(k) for k in range(big_k, 0, -1)][::-1]
            for j in range(big_k):
                top = max(logs[j:])
                majorants[-1][j] = top + math.log(sum(math.exp(v - top) for v in logs[j:]))
    coeffs = [complex(ec.coeff(k)) for k in range(big_k + 1)]
    # terms[k] = a_k D^k, None where a_k = 0: the sums start at +0.0 and so
    # never hold -0.0, and adding 0 * D^k to them would change no bit
    terms = list(_terms(d, coeffs))
    total = sum((t for t in terms if t is not None), DirichletSeries.zero(d.truncation))
    weights = [None] * big_k  # weights[j]: the seminorm_2 at each distinct m of the tail past j
    tail = DirichletSeries.zero(d.truncation)  # the tail past k - 1: sum_{k <= j <= K} a_j D^j
    for k in range(big_k, 0, -1):
        tail = tail if terms[k] is None else tail + terms[k]
        weights[k - 1] = _weighted_l2_roots(None, tail.coeffs, distinct, 1)
    diagnostics = [[TailDiagnostic(j, weights[j][i], maj[j]) for j in range(big_k)]
                   for i, maj in enumerate(majorants)]
    per_m = [diagnostics[distinct.index(m)] for m in ms]
    return total, per_m[0] if single else per_m


# ---------------------------------------------------------------------------
# growth criteria
# ---------------------------------------------------------------------------

_TINY = np.finfo(np.float64).tiny  # the smallest normal float


def composition_criterion(d: DirichletSeries, m: int, k_max: int) -> GrowthReport:
    """Exact roots r_k = ||D^k||_{2,m}^{1/k} for k = 1..k_max at the series'
    truncation; bounded r_k is the composition-type criterion.

    The powers are those of ``_unit_scaled`` D / 2^e, each norm scaled back by
    2^{ke}.  A norm below the normal range (it may read 0.0) has its scaled
    norm rooted and the root multiplied by 2^e, so r_k stays finite.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    n_trunc = d.truncation
    ks = np.arange(1, k_max + 1)
    scaled, e = _unit_scaled(d.coeffs)
    norms = np.empty(k_max, dtype=np.float64)
    # D^1 = D and D^k = D * D^{k-1}, each weighed densely, as seminorm_2
    # weighs: a sum over a support can move the last ulp
    for k, (_, vals) in zip(ks, _power_ladder((None, scaled), n_trunc)):
        norms[k - 1] = _weighted_l2_roots(None, vals, [m], 1)[0]
    unscaled = np.ldexp(norms, ks * e)
    roots = np.where(unscaled >= _TINY, unscaled ** (1.0 / ks), np.ldexp(norms ** (1.0 / ks), e))
    return GrowthReport(m=m, truncation=n_trunc, ks=ks, norms=unscaled, roots=roots)


def power_norm_chain_check(
    p_series: DirichletSeries,
    m: int,
    k: int | Sequence[int],
    out_truncation: int | None = None,
) -> ChainCheck | list[ChainCheck]:
    """Verify ||P^k||_{2,m} <= C_m * prod^k * ||P||_{2,4m}^k on a polynomial,
    at one k or at each of a list (then a list of checks, in its order).

    The powers P^k are rungs of one ``_power_ladder`` at the working
    truncation ``out_truncation`` (default: P's own truncation), which must
    hold support(P)^k, else InexactPower is raised for the largest k before
    any power is formed.  Every check has the bits of its single-k call.
    Both norms are summed over supports while the rungs are supports, so a
    P padded to the working truncation costs what its nonzero terms cost.
    The ladder is that of ``_unit_scaled`` P / 2^e, its norms scaled back by
    ``ldexp``; the slack is taken on the scaled sides where a side is not normal.
    """
    single = isinstance(k, numbers.Integral)
    ks = [k] if single else list(k)
    if m < 1 or min(ks, default=1) < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    n_trunc = p_series.truncation if out_truncation is None else out_truncation
    if n_trunc < 1:
        raise ValueError(f"out_truncation must be >= 1, got {n_trunc}")
    idx, vals = support(p_series.coeffs, p_series.truncation)
    sup = int(idx[-1]) if len(idx) else 0
    k_top = max(ks, default=0)
    if sup**k_top > n_trunc:
        raise InexactPower(
            f"support {sup}^{k_top} exceeds working truncation {n_trunc}; power inexact"
        )
    vals, e = _unit_scaled(vals)
    rungs = zip(range(1, k_top + 1), _power_ladder((idx, vals), n_trunc))
    lhs = {r: _weighted_l2_roots(ri, rv, [m], 1)[0]
           for r, (ri, rv) in rungs if r in ks}
    c_m = seminorm_comparison_constant(m, 1, 2)
    base = _weighted_l2_roots(idx, vals, [4 * m], 1)[0]
    base_norm = math.ldexp(base, e)
    checks = []
    for kk in ks:
        j_cut, prod, _ = euler_product(4 * m, math.sqrt(2.0 / kk))
        sides = math.ldexp(lhs[kk], kk * e), c_m * prod**kk * base_norm**kk
        # P / 2^e's sides both carry 2^{-e kk}, so their ratio is the slack too
        den, num = sides if min(sides) >= _TINY else (lhs[kk], c_m * prod**kk * base**kk)
        slack = num / den if den > 0 else math.inf
        checks.append(ChainCheck(*sides, c_m, prod, j_cut, base_norm, slack))
    return checks[0] if single else checks


# ---------------------------------------------------------------------------
# log-space witnesses
# ---------------------------------------------------------------------------

def _prime_counts(k_range: Sequence[int], k_min: int, exponent: float, table: PrimeTable | None):
    """k_range sorted (each k an integer >= k_min), x_k = k^exponent, (pi(x_k), theta(x_k))
    per k, and the table read: ``table`` if it reaches past every x_k, else a new sieve."""
    ks = np.array(sorted(int(k) for k in k_range), dtype=np.int64)
    if len(ks) == 0 or ks[0] < k_min:
        raise ValueError(f"k_range must hold integers >= {k_min}")
    xs = ks.astype(np.float64) ** exponent
    limit = max(4, math.ceil(float(xs[-1])) + 1)
    if table is None or table.limit < limit:
        table = sieve(limit)
    counts = [(prime_pi(x, table), chebyshev_theta(x, table)) for x in xs.tolist()]
    return ks, xs, counts, table


def zeta_growth_witness(
    m: int,
    delta: float,
    k_range: Sequence[int],
    table: PrimeTable | None = None,
) -> LogWitnessTable:
    """Exact log-space growth of the k-th power roots of the half-translated zeta.

    For each k: x_k = k^{1+delta} and
    L_k = (2 pi(x_k) log k - (1 + 1/(2m)) theta(x_k)) / (2k), so that the
    norm root ||D^k||_{2,4m}^{1/k} is at least e^{L_k} without ever
    materializing n_k = prod_{p<=x_k} p.  The target omega*k^delta/2 with
    omega = 2(1-delta)/(1+delta) - (1+1/(2m))(1+delta) is attached when
    omega > 0; otherwise targets are None and the table is still produced.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    ks, xs, counts, table = _prime_counts(k_range, 2, 1.0 + delta, table)
    sigma = 1.0 / (2.0 * m)
    values = np.array([(2.0 * pi_x * math.log(k) - (1.0 + sigma) * theta_x) / (2.0 * k)
                       for k, (pi_x, theta_x) in zip(ks, counts)])
    omega = 2.0 * (1.0 - delta) / (1.0 + delta) - (1.0 + sigma) * (1.0 + delta)
    targets = omega * ks.astype(np.float64) ** delta / 2.0 if omega > 0 else None
    return LogWitnessTable(
        m=m,
        delta=delta,
        omega=omega,
        sieve_limit=table.limit,
        ks=ks,
        xs=xs,
        values=values,
        targets=targets,
    )


def noncomposition_exponent(
    c: float,
    c_prime: float,
    eps: float,
    delta: float,
    k_range: Sequence[int],
    table: PrimeTable | None = None,
    penalty_log: Callable[[int], float] | None = None,
    penalty_tag: str = "exp(-k^C)",
) -> ExponentTable:
    """Exact log-space exponent showing certain entire coefficients fail to
    superpose.

    For each k: x = k^{C'} and the row value is
    log(k) * pi(x) - penalty(k) - theta(x) * (1/2 + eps), with the default
    penalty k^C matching coefficients exp(-k^C).  Pass
    penalty_log = lgamma(k+1) (tag "1/k!") for the exponential-function
    comparison row.  omega = (1-delta)/C' - (1/2+eps)(1+delta) is reported;
    a non-positive omega is reported but the table is still produced.
    """
    if not 0 < c < 2:
        raise ValueError(f"C must be in (0,2), got {c}")
    if not c < c_prime < 2:
        raise ValueError(f"C' must be in (C,2), got {c_prime}")
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if penalty_log is None:
        penalty_log = lambda k: float(k) ** c  # noqa: E731
    ks, xs, counts, table = _prime_counts(k_range, 1, c_prime, table)
    values = np.array([math.log(k) * pi_x - penalty_log(int(k)) - theta_x * (0.5 + eps)
                       for k, (pi_x, theta_x) in zip(ks, counts)])
    omega = (1.0 - delta) / c_prime - (0.5 + eps) * (1.0 + delta)
    return ExponentTable(
        c=c,
        c_prime=c_prime,
        eps=eps,
        delta=delta,
        omega=omega,
        penalty_tag=penalty_tag,
        sieve_limit=table.limit,
        ks=ks,
        xs=xs,
        values=values,
    )


def write_growth_table(rows, path: str) -> None:
    """Write the CSV k, value, target, margin (empty target and margin when
    the target is None) atomically, through ``series._csv_text``."""
    lines = []
    for k, value, target in rows:
        value = float(value)
        if target is None:
            lines.append(f"{int(k)},{value!r},,")
        else:
            target = float(target)
            lines.append(f"{int(k)},{value!r},{target!r},{value - target!r}")
    _atomic_write_text(path, [_csv_text("k,value,target,margin", lines)])
