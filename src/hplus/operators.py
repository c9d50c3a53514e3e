"""Composition operators for affine-plus-series symbols, vertical limits, and
the differentiation / integration / Volterra / resolvent operators.

A symbol is phi(s) = c0*s + phi~(s) with integer c0 >= 0 and phi~ itself a
(truncated) Dirichlet series whose coefficient at 1 is the constant term.
Composition with c0 >= 1 is an exact finite algorithm: the exponential
series of -log(n) * E terminates below any truncation because E is
supported on indices >= 2.  Classification of a symbol against the range
thresholds {0, eps, 1/2, 1/2+eps} is a grid heuristic and is labelled as
such in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import MissingCutoff, NonzeroConstantTerm, SpectrumPoint, TableTooSmall
from .numtheory import PrimeTable, prime_pi
from .series import (
    DirichletSeries,
    evaluate,
    multiply,
    series_from_json,
    series_to_json,
)

UNIMODULAR_TOL = 1e-9
SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class Symbol:
    """Composition symbol phi(s) = c0*s + varphi(s).

    ``varphi.coeffs[0]`` is the constant term c_1; entries at n >= 2 are the
    series part.
    """

    c0: int
    varphi: DirichletSeries

    def __post_init__(self):
        if self.c0 < 0 or int(self.c0) != self.c0:
            raise ValueError(f"c0 must be a non-negative integer, got {self.c0}")
        object.__setattr__(self, "c0", int(self.c0))

    @property
    def c1(self) -> complex:
        return complex(self.varphi.coeffs[0])

    def eval_varphi(self, s: complex) -> complex:
        return evaluate(self.varphi, s)

    def eval(self, s: complex) -> complex:
        return self.c0 * complex(s) + self.eval_varphi(s)


@dataclass(frozen=True)
class Character:
    """Completely multiplicative unimodular map, given by its values at the
    first N primes; chi(n) = prod chi(p_j)^{alpha_j}."""

    prime_values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.prime_values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("prime_values must be a non-empty 1-d array")
        if np.max(np.abs(np.abs(vals) - 1.0)) > UNIMODULAR_TOL:
            raise ValueError("character values must be unimodular")
        vals.flags.writeable = False
        object.__setattr__(self, "prime_values", vals)

    def __pow__(self, e: int) -> "Character":
        if e < 0 or int(e) != e:
            raise ValueError(f"character power must be a non-negative integer, got {e}")
        if e == 0:
            return Character(np.ones_like(self.prime_values))
        return Character(self.prime_values ** int(e))

    def values_up_to(self, n_max: int, table: PrimeTable) -> np.ndarray:
        """chi(n) for 0 <= n <= n_max (entry 0 is a placeholder)."""
        if n_max > table.limit:
            raise TableTooSmall(f"n_max {n_max} exceeds sieve limit {table.limit}")
        needed = prime_pi(n_max, table) if n_max >= 2 else 0
        if needed > len(self.prime_values):
            raise TableTooSmall(
                f"character defines {len(self.prime_values)} prime values, "
                f"needs {needed} to cover n <= {n_max}"
            )
        dense = np.zeros(table.limit + 1, dtype=np.complex128)
        pr = table.primes[:needed]
        dense[pr] = self.prime_values[:needed]
        return _kernels.mult_extend(table.spf, dense, n_max)


class CompositionResult(NamedTuple):
    series: DirichletSeries
    exact: bool


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling of the right half-plane, hugging the boundary."""

    sigma_min: float = 1e-3
    sigma_max: float = 2.0
    n_sigma: int = 40
    t_max: float = 30.0
    n_t: int = 121
    log_sigma: bool = True

    def sigmas(self) -> np.ndarray:
        if self.log_sigma:
            return np.geomspace(self.sigma_min, self.sigma_max, self.n_sigma)
        return np.linspace(self.sigma_min, self.sigma_max, self.n_sigma)

    def ts(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_t)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    threshold: float
    basis: str


@dataclass(frozen=True)
class ClassificationReport:
    """Grid screening of a symbol against the range conditions of the
    composition theorems.  HEURISTIC: the grid infimum only upper-bounds the
    true infimum over the half-plane, so a True verdict is a consistency
    screening while a False verdict on the strict conditions is a certified
    disproof witness.
    """

    inf_re_estimate: float
    boundary_margin: float  # c0 * sigma_min, subtracted before thresholding
    grid: GridSpec
    c0: int
    verdicts: dict[str, Verdict]
    heuristic: bool = True
    notes: str = field(default="")

    @property
    def epsilon_estimate(self) -> float:
        return self.inf_re_estimate - self.boundary_margin


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose_affine(d: DirichletSeries, c0: int, c1: complex) -> DirichletSeries:
    """Composition with the affine symbol c0*s + c1, c0 >= 1: reindexing n -> n^{c0}.

    The coefficient landing at m = n^{c0} is a_n * n^{-c1}; everything else
    is zero.  Output truncation equals the input truncation.
    """
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


def _int_root(m: int, c0: int) -> int:
    """Largest t with t^c0 <= m, exact integer arithmetic."""
    t = int(round(m ** (1.0 / c0)))
    while t**c0 > m:
        t -= 1
    while (t + 1) ** c0 <= m:
        t += 1
    return t


def _exp_series(e_coeffs: np.ndarray, log_n: float, out_len: int) -> np.ndarray:
    """Coefficients of exp(-log_n * E) truncated at out_len.

    E is supported on indices >= 2, so E^r vanishes below 2^r and the sum
    over r terminates once 2^r exceeds the truncation: the result is exact,
    not an approximation.
    """
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


def compose_general(
    d: DirichletSeries,
    phi: Symbol,
    out_truncation: int,
    n_cutoff: int | None = None,
) -> CompositionResult:
    """Dirichlet-series composition D(phi(s)) rearranged to truncation M.

    For each contributing index n the factor n^{-phi~(s)} is expanded as
    n^{-c1} * exp(-log(n) * E) with E the part of phi~ supported on indices
    >= 2; the expansion is exact below M (see ``_exp_series``), and shifting
    by index multiplication with n^{c0} places it.  With c0 >= 1 only
    n <= M^{1/c0} can contribute below M, so the sum is finite and the
    result exact.  With c0 = 0 every n contributes at index 1 and no finite
    cutoff is canonical: ``n_cutoff`` is required and the result flagged as
    an approximation.

    Parameters
    ----------
    d : DirichletSeries
        Input coefficients, treated as a Dirichlet polynomial.
    phi : Symbol
    out_truncation : int
        Truncation M of the composed series.
    n_cutoff : int, optional
        Summation bound over n when c0 = 0 (ignored when c0 >= 1).
    """
    m_out = int(out_truncation)
    if m_out < 1:
        raise ValueError(f"out_truncation must be >= 1, got {out_truncation}")
    c0 = phi.c0
    if c0 == 0:
        if n_cutoff is None:
            raise MissingCutoff("composition with c0 = 0 requires an explicit n_cutoff")
        n_top = min(int(n_cutoff), d.truncation)
        exact = False
    else:
        n_top = min(_int_root(m_out, c0), d.truncation)
        exact = True

    e_coeffs = phi.varphi.coeffs.copy()
    e_coeffs[0] = 0.0  # constant term handled by the n^{-c1} factor
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
        g = _exp_series(e_coeffs, log_n, room)
        out[shift - 1 : shift * room : shift] += scale * g
    return CompositionResult(DirichletSeries(out), exact)


def classify_symbol(phi: Symbol, grid: GridSpec | None = None) -> ClassificationReport:
    """Screen a symbol against the composition-theorem range conditions.

    Computes the grid infimum of Re(phi) over a rectangle adjacent to the
    boundary of the right half-plane, subtracts the affine part's
    contribution at the grid's closest approach (c0 * sigma_min), and
    compares against the thresholds.  The verdicts are necessary-condition
    screenings, not proofs; see ClassificationReport.
    """
    if grid is None:
        grid = GridSpec()
    sig = grid.sigmas()
    ts = grid.ts()
    s_grid = sig[:, None] + 1j * ts[None, :]
    re_phi = phi.c0 * sig[:, None] * np.ones_like(ts)[None, :]
    nz = np.flatnonzero(phi.varphi.coeffs)
    for i in nz:
        n = int(i) + 1
        c = phi.varphi.coeffs[i]
        if n == 1:
            re_phi = re_phi + c.real
        else:
            re_phi = re_phi + (c * np.exp(-s_grid * math.log(n))).real
    inf_re = float(np.min(re_phi))
    margin = phi.c0 * grid.sigma_min
    base = inf_re - margin
    tol = 1e-9
    c0 = phi.c0

    if c0 >= 1:
        continuous = base >= -tol
        bounded = base > tol
        basis_cont = "integer leading coefficient: needs range inside Re > 0"
        basis_bdd = "integer leading coefficient: needs range inside Re > eps"
    else:
        continuous = base >= 0.5 - tol
        bounded = base > 0.5 + tol
        basis_cont = "constant leading coefficient: needs range inside Re > 1/2"
        basis_bdd = "constant leading coefficient: needs range inside Re > 1/2 + eps"

    verdicts = {
        "well_defined": Verdict(True, math.nan, "affine-plus-series form maps into convergent Dirichlet series"),
        "continuous": Verdict(continuous, 0.0 if c0 >= 1 else 0.5, basis_cont),
        "bounded": Verdict(bounded, 0.0 if c0 >= 1 else 0.5, basis_bdd),
        "into_hp": Verdict(
            c0 >= 1 and bounded,
            0.0,
            "positive slope and range inside Re > eps puts the image in every H^p",
        ),
        "into_hinf": Verdict(
            base > 0.5 + tol, 0.5, "range inside Re > 1/2 + eps gives bounded values"
        ),
        "into_hinf_plus": Verdict(
            base >= 0.5 - tol, 0.5, "range inside Re > 1/2 keeps all translations bounded"
        ),
    }
    notes = (
        "HEURISTIC grid screening: grid infimum is an upper bound on the true "
        "infimum over the half-plane; True verdicts are consistency checks, "
        "False verdicts on strict thresholds certify a disproof witness. "
        f"boundary margin c0*sigma_min = {margin!r} subtracted before thresholding."
    )
    return ClassificationReport(
        inf_re_estimate=inf_re,
        boundary_margin=margin,
        grid=grid,
        c0=c0,
        verdicts=verdicts,
        heuristic=True,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# vertical limits
# ---------------------------------------------------------------------------

def vertical_limit(d: DirichletSeries, chi: Character, table: PrimeTable) -> DirichletSeries:
    """Coefficient twist b_n = a_n * chi(n); preserves every Hilbert seminorm."""
    values = chi.values_up_to(d.truncation, table)
    return DirichletSeries(d.coeffs * values[1 : d.truncation + 1])


def twist_symbol(phi: Symbol, chi: Character, table: PrimeTable) -> Symbol:
    """Symbol with the series part twisted; c0 and the constant term survive
    (chi(1) = 1)."""
    return Symbol(phi.c0, vertical_limit(phi.varphi, chi, table))


# ---------------------------------------------------------------------------
# differentiation, integration, Volterra, resolvent
# ---------------------------------------------------------------------------

def differentiate(d: DirichletSeries) -> DirichletSeries:
    """Term-by-term derivative: b_n = -a_n log n (so b_1 = 0)."""
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    return DirichletSeries(-d.coeffs * np.log(n))


def integrate(d: DirichletSeries) -> DirichletSeries:
    """Inverse of differentiation on series with zero constant coefficient."""
    if d.coeffs[0] != 0:
        raise NonzeroConstantTerm(
            f"integration requires a_1 = 0, got a_1 = {complex(d.coeffs[0])}"
        )
    out = np.zeros(d.truncation, dtype=np.complex128)
    if d.truncation > 1:
        n = np.arange(2, d.truncation + 1, dtype=np.float64)
        out[1:] = -d.coeffs[1:] / np.log(n)
    return DirichletSeries(out)


def volterra(d: DirichletSeries, e: DirichletSeries) -> DirichletSeries:
    """Volterra-type operator: integrate the product of d' with e.

    The product d' * e automatically has zero coefficient at 1.
    """
    return integrate(multiply(differentiate(d), e))


def resolvent(
    lam: complex, d: DirichletSeries, tol: float = SPECTRUM_TOL
) -> DirichletSeries:
    """Apply (lambda I - Del)^{-1} coefficientwise, Del the differentiation operator.

    Requires a_1 = 0 and |lambda + log n| > tol for all 2 <= n <= N;
    otherwise the offending n is reported as a spectrum point.  The output
    satisfies (lambda I - Del)(result) = d exactly on coefficients.
    """
    if d.coeffs[0] != 0:
        raise NonzeroConstantTerm(
            f"resolvent domain requires a_1 = 0, got a_1 = {complex(d.coeffs[0])}"
        )
    lam = complex(lam)
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    denom = lam + np.log(n)
    bad = np.flatnonzero(np.abs(denom[1:]) <= tol)
    if len(bad):
        raise SpectrumPoint(int(bad[0]) + 2, lam)
    out = np.zeros(d.truncation, dtype=np.complex128)
    if d.truncation > 1:
        out[1:] = d.coeffs[1:] / denom[1:]
    return DirichletSeries(out)


def _translate_back(d: DirichletSeries, delta: float) -> DirichletSeries:
    """Backward translation b_n = a_n * n^{+delta}; finite supports only.

    Private: unlike ``series.translate`` this inflates coefficients and is
    only meaningful on Dirichlet polynomials.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    return DirichletSeries(d.coeffs * n ** float(delta))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def symbol_to_json(phi: Symbol) -> dict:
    return {"c0": phi.c0, "varphi": series_to_json(phi.varphi)}


def symbol_from_json(obj: dict) -> Symbol:
    if not isinstance(obj, dict) or "c0" not in obj or "varphi" not in obj:
        raise ValueError("symbol JSON must hold fields 'c0' and 'varphi'")
    return Symbol(int(obj["c0"]), series_from_json(obj["varphi"]))


def character_to_json(chi: Character) -> dict:
    return {
        "prime_values": [[float(v.real), float(v.imag)] for v in chi.prime_values]
    }


def character_from_json(obj: dict) -> Character:
    if not isinstance(obj, dict) or "prime_values" not in obj:
        raise ValueError("character JSON must hold field 'prime_values'")
    try:
        vals = np.array(
            [complex(re, im) for re, im in obj["prime_values"]], dtype=np.complex128
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field 'prime_values' must hold [re, im] pairs: {exc}") from None
    return Character(vals)


def classification_to_json(report: ClassificationReport) -> dict:
    return {
        "inf_re_estimate": report.inf_re_estimate,
        "boundary_margin": report.boundary_margin,
        "epsilon_estimate": report.epsilon_estimate,
        "heuristic": report.heuristic,
        "c0": report.c0,
        "grid": {
            "sigma_min": report.grid.sigma_min,
            "sigma_max": report.grid.sigma_max,
            "n_sigma": report.grid.n_sigma,
            "t_max": report.grid.t_max,
            "n_t": report.grid.n_t,
            "log_sigma": report.grid.log_sigma,
        },
        "verdicts": {
            name: {"holds": v.holds, "threshold": v.threshold, "basis": v.basis}
            for name, v in report.verdicts.items()
        },
        "notes": report.notes,
    }
