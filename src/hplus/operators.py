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
    _complex_pairs,
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


@dataclass(frozen=True)
class Character:
    """Completely multiplicative unimodular map, given by its values at the
    first N primes; chi(n) = prod chi(p_j)^{alpha_j}."""

    prime_values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.prime_values, dtype=np.complex128)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("prime_values must be a non-empty 1-d array")
        # not (... <= tol), so that a nan value is refused too
        if not np.all(np.abs(np.abs(vals) - 1.0) <= UNIMODULAR_TOL):
            raise ValueError("character values must be finite and unimodular")
        vals.flags.writeable = False
        object.__setattr__(self, "prime_values", vals)

    def __pow__(self, e: int) -> "Character":
        if e < 0 or int(e) != e:
            raise ValueError(f"character power must be a non-negative integer, got {e}")
        if e == 0:
            return Character(np.ones_like(self.prime_values))
        return Character(self.prime_values ** int(e))

    def values_up_to(self, n_max: int, table: PrimeTable) -> np.ndarray:
        """chi(n) for 0 <= n <= n_max (entry 0 is a placeholder), from the
        values at the prime_pi(n_max) primes, which raises past the table."""
        needed = prime_pi(n_max, table)
        if needed > len(self.prime_values):
            raise TableTooSmall(
                f"character defines {len(self.prime_values)} prime values, "
                f"needs {needed} to cover n <= {n_max}"
            )
        return _kernels.mult_extend(table.primes, self.prime_values[:needed], n_max)


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

def _int_root(m: int, c0: int) -> int:
    """Largest t with t^c0 <= m, exact integer arithmetic."""
    t = int(round(m ** (1.0 / c0)))
    while t**c0 > m:
        t -= 1
    while (t + 1) ** c0 <= m:
        t += 1
    return t


def _weights(a: np.ndarray, c1: complex, c0: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, -log n) for n = 1..len(a), with w_n = a_n n^{-c1}.

    With c0 >= 1 both sit on the slots n^{c0} - 1 of arrays that are zero
    elsewhere (for c0 = 1 the slot of n is n - 1); with c0 = 0 they hold
    one entry per n.  log n is ``math.log`` and the complex product is
    spelled out on real and imaginary parts, as numpy's scalar product rounds
    it (its array product can round differently): an affine symbol then gives
    the bits of reindexing a_n n^{-c1} to n^{c0} one n at a time.
    """
    n_top = len(a)
    neglog = -np.fromiter(map(math.log, range(1, n_top + 1)), np.float64, n_top)
    scale = np.exp(c1 * neglog)
    w = np.empty(n_top, dtype=np.complex128)
    w.real = a.real * scale.real - a.imag * scale.imag
    w.imag = a.real * scale.imag + a.imag * scale.real
    if c0 < 2:
        return w, neglog
    slots = np.arange(1, n_top + 1) ** c0 - 1
    w_slots = np.zeros(slots[-1] + 1, dtype=np.complex128)
    w_slots[slots] = w
    log_slots = np.zeros(slots[-1] + 1)
    log_slots[slots] = neglog
    return w_slots, log_slots


def compose_general(
    d: DirichletSeries,
    phi: Symbol,
    out_truncation: int,
    n_cutoff: int | None = None,
) -> CompositionResult:
    """Dirichlet-series composition D(phi(s)) rearranged to truncation M.

    Each contributing index n adds a_n n^{-phi~(s)} = w_n exp(-log(n) * E)
    at the index n^{c0}, with w_n = a_n n^{-c1} and E the part of phi~ on
    indices >= 2.  With P_r = E^r / r! and W_r holding w_n (-log n)^r at
    the index n^{c0}, the composition is the sum over r of the Dirichlet
    products W_r * P_r.  One ladder P_r = (P_{r-1} * E) / r serves every n,
    and W_r is W_{r-1} times -log n on the same slots: about 2 log2(M) calls
    of ``_kernels.dirichlet_convolve``, with a few arrays of at most M slots
    live.  E^r vanishes below 2^r, so the sum stops once 2^r > M.

    With c0 >= 1 only n <= M^{1/c0} can contribute below M, and the result
    is exact.  With c0 = 0 every n lands on index 1, so W_r * P_r is the
    moment sum_n w_n (-log n)^r times P_r; no finite cutoff is canonical:
    ``n_cutoff`` is required and the result flagged as an approximation.

    The sums run in another order than one expansion per n, so the
    coefficients match that expansion within rounding, not bit for bit.
    For a constant phi~ they are the bits of reindexing a_n n^{-c1} to
    n^{c0} (see ``_weights``).

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
        n_top = max(0, min(int(n_cutoff), d.truncation))
        exact = False
    else:
        n_top = min(_int_root(m_out, c0), d.truncation)
        exact = True

    e_coeffs = phi.varphi.coeffs.copy()
    e_coeffs[0] = 0.0  # constant term handled by the n^{-c1} factor
    out = np.zeros(m_out, dtype=np.complex128)
    w, neglog = _weights(d.coeffs[:n_top], phi.c1, c0)
    if c0 == 0:
        out[0] = w.sum()
    else:
        out[: len(w)] = w
    # for r >= 1, W_r vanishes at slot 1 (log 1 = 0), so with c0 >= 1 it
    # meets P_r only at indices <= M / 2^{c0}: the ladder stops there
    ladder_len = m_out >> c0
    power = np.zeros(ladder_len, dtype=np.complex128)
    power[:1] = 1.0  # P_0
    for r in range(1, ladder_len.bit_length()):  # every r with 2^r <= ladder_len
        power = _kernels.dirichlet_convolve(power, e_coeffs, ladder_len)
        power /= r
        if c0 == 0:
            w *= neglog
            out += w.sum() * power
        else:
            top = m_out >> r  # a slot above M / 2^r meets only P_r[j] = 0, j < 2^r
            w[:top] *= neglog[:top]
            out += _kernels.dirichlet_convolve(w[:top], power, m_out)
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
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def symbol_to_json(phi: Symbol) -> dict:
    return {"c0": phi.c0, "varphi": series_to_json(phi.varphi)}


def symbol_from_json(obj: dict) -> Symbol:
    if not isinstance(obj, dict) or "c0" not in obj or "varphi" not in obj:
        raise ValueError("symbol JSON must hold fields 'c0' and 'varphi'")
    c0 = obj["c0"]
    if type(c0) is not int:  # bool is an int subclass; 1.5, "1" and true are rejected
        raise ValueError(f"field 'c0' must be a JSON integer, got {c0!r}")
    return Symbol(c0, series_from_json(obj["varphi"]))


def character_to_json(chi: Character) -> dict:
    return {
        "prime_values": [[float(v.real), float(v.imag)] for v in chi.prime_values]
    }


def character_from_json(obj: dict) -> Character:
    if not isinstance(obj, dict) or "prime_values" not in obj:
        raise ValueError("character JSON must hold field 'prime_values'")
    return Character(_complex_pairs(obj, "prime_values"))
