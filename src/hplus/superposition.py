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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._kernels import support
from .errors import InexactPower
from .numtheory import PrimeTable, chebyshev_theta, euler_product, prime_pi, sieve
from .series import (
    DirichletSeries,
    _atomic_write_text,
    _power_terms,
    _weighted_l2_norm,
    multiply,
    seminorm_2,
    seminorm_comparison_constant,
    with_truncation,
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
    prod runs over the primes with p_j^{-1/(4m)} >= sqrt(2/k).
    """

    lhs: float
    rhs: float
    c_m: float
    prime_product: float
    j_cut: int
    base_norm: float

    @property
    def slack(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else math.inf


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

def superpose_poly(d: DirichletSeries, b: Sequence[complex]) -> DirichletSeries:
    """Polynomial superposition sum_j b_j D^j at the series' own truncation."""
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


def superpose_entire(
    d: DirichletSeries,
    ec: EntireCoeffs,
    big_k: int,
    m_check: int,
) -> tuple[DirichletSeries, list[TailDiagnostic]]:
    """Partial sum sum_{k<=K} a_k D^k with Cauchy-tail diagnostics.

    For every ladder point K' < K the diagnostic records the seminorm
    || sum_{K'<k<=K} a_k D^k ||_{2,m_check}, plus (when the tag admits it)
    the explicit log-space majorant assembled from the power-norm chain
    constant: log|a_k| + k log(prod_k * ||D||_{2,4m}) + log C_m, summed over
    the tail in log space.  log prod_k and log C_m are the log sums of their
    Euler products, finite where the products overflow, so the majorant is
    finite for every m.  When that constant for k = K needs primes beyond
    desk scale, BeyondDeskScale is raised before any power is formed.
    """
    if big_k < 1:
        raise ValueError(f"K must be >= 1, got {big_k}")
    if m_check < 1:
        raise ValueError(f"m_check must be >= 1, got {m_check}")
    base_norm = seminorm_2(d, 4 * m_check)
    log_terms = []  # log of the k-th majorant term, k = 1..K
    if ec.log_abs is not None and base_norm > 0:
        log_c_m = euler_product(2 * m_check, math.sqrt(1 / 2))[2]  # C_{m,1,2}
        # k = K first: its prime bound decides desk scale, and its one sieve
        # serves every k
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
    tails: list[DirichletSeries] = [tail]
    for k in range(big_k, 0, -1):
        tail = tail + coeffs[k] * powers[k]
        tails.append(tail)
    tails.reverse()  # tails[K'] = sum over K' < k <= K
    for k_from in range(0, big_k):
        delta = seminorm_2(tails[k_from], m_check)
        log_maj = None
        if log_terms:
            logs = log_terms[k_from:]
            top = max(logs)
            log_maj = top + math.log(sum(math.exp(v - top) for v in logs))
        diagnostics.append(TailDiagnostic(k_from, delta, log_maj))
    return total, diagnostics


# ---------------------------------------------------------------------------
# growth criteria
# ---------------------------------------------------------------------------

def composition_criterion(d: DirichletSeries, m: int, k_max: int) -> GrowthReport:
    """Exact roots r_k = ||D^k||_{2,m}^{1/k} for k = 1..k_max at the series'
    truncation; bounded r_k is the composition-type criterion."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    n_trunc = d.truncation
    ks = np.arange(1, k_max + 1)
    norms = np.empty(k_max, dtype=np.float64)
    cur = with_truncation(d, n_trunc)
    base = cur
    for k in range(1, k_max + 1):
        if k > 1:
            cur = multiply(base, cur)
        norms[k - 1] = seminorm_2(cur, m)
    roots = norms ** (1.0 / ks)
    return GrowthReport(m=m, truncation=n_trunc, ks=ks, norms=norms, roots=roots)


def power_norm_chain_check(
    p_series: DirichletSeries, m: int, k: int, out_truncation: int | None = None
) -> ChainCheck:
    """Verify ||P^k||_{2,m} <= C_m * prod^k * ||P||_{2,4m}^k on a polynomial.

    The power is computed at the working truncation ``out_truncation``
    (default: P's own truncation), which must contain the full support of
    P^k (support(P)^k <= out_truncation), else InexactPower is raised.  Both
    norms are summed over supports (see ``power``), so P need not be padded
    to the working truncation, and a padded P costs what its nonzero terms
    cost.
    """
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    n_trunc = p_series.truncation if out_truncation is None else out_truncation
    if n_trunc < 1:
        raise ValueError(f"out_truncation must be >= 1, got {n_trunc}")
    idx, vals = support(p_series.coeffs, p_series.truncation)
    sup = int(idx[-1]) if len(idx) else 0
    if sup**k > n_trunc:
        raise InexactPower(
            f"support {sup}^{k} exceeds working truncation {n_trunc}; power inexact"
        )
    lhs = _weighted_l2_norm(*_power_terms(idx, vals, k, n_trunc), m)
    c_m = seminorm_comparison_constant(m, 1, 2)
    j_cut, prod, _ = euler_product(4 * m, math.sqrt(2.0 / k))
    base = _weighted_l2_norm(idx, vals, 4 * m)
    rhs = c_m * prod**k * base**k
    return ChainCheck(
        lhs=lhs,
        rhs=rhs,
        c_m=c_m,
        prime_product=prod,
        j_cut=j_cut,
        base_norm=base,
    )


# ---------------------------------------------------------------------------
# log-space witnesses
# ---------------------------------------------------------------------------

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
    ks = np.array(sorted(int(k) for k in k_range), dtype=np.int64)
    if len(ks) == 0 or ks[0] < 2:
        raise ValueError("k_range must hold integers >= 2")
    xs = ks.astype(np.float64) ** (1.0 + delta)
    limit = max(4, math.ceil(float(xs[-1])) + 1)
    if table is None or table.limit < limit:
        table = sieve(limit)
    sigma = 1.0 / (2.0 * m)
    values = np.empty(len(ks), dtype=np.float64)
    for i, k in enumerate(ks):
        x = float(xs[i])
        values[i] = (
            2.0 * prime_pi(x, table) * math.log(k) - (1.0 + sigma) * chebyshev_theta(x, table)
        ) / (2.0 * k)
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
    ks = np.array(sorted(int(k) for k in k_range), dtype=np.int64)
    if len(ks) == 0 or ks[0] < 1:
        raise ValueError("k_range must hold integers >= 1")
    xs = ks.astype(np.float64) ** c_prime
    limit = max(4, math.ceil(float(xs[-1])) + 1)
    if table is None or table.limit < limit:
        table = sieve(limit)
    values = np.empty(len(ks), dtype=np.float64)
    for i, k in enumerate(ks):
        x = float(xs[i])
        values[i] = (
            math.log(k) * prime_pi(x, table)
            - penalty_log(int(k))
            - chebyshev_theta(x, table) * (0.5 + eps)
        )
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
    """Write the CSV k, value, target, margin (empty target when undefined) atomically."""
    lines = ["k,value,target,margin"]
    for k, value, target in rows:
        value = float(value)
        if target is None:
            lines.append(f"{int(k)},{value!r},,")
        else:
            target = float(target)
            lines.append(f"{int(k)},{value!r},{target!r},{value - target!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")
