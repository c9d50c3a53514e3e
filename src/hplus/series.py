"""Truncated Dirichlet series: exact arithmetic, translations, and seminorms.

A series is stored as its coefficient prefix a_1..a_N (N = truncation).
Binary operations truncate to the shorter operand so that every stored
coefficient stays exact; convolution powers take an explicit output
truncation and treat the input as a Dirichlet polynomial (zero beyond its
truncation).  Truncated norms are monotone lower bounds of the full ones,
and operations that can lose support report an exactness flag instead of
guessing.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import CoefficientOverflow, UndefinedAbscissa
from .numtheory import euler_product


@dataclass(frozen=True)
class DirichletSeries:
    """Coefficient vector a_1..a_N of sum a_n n^{-s}; immutable.

    ``coeffs[i]`` is the coefficient of (i+1)^{-s}.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("coeffs must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def support_max(self) -> int:
        """Largest n with a_n != 0, or 0 for the zero series."""
        nz = np.flatnonzero(self.coeffs)
        return int(nz[-1]) + 1 if len(nz) else 0

    def coeff(self, n: int) -> complex:
        """a_n (1-based); zero beyond the truncation."""
        if n < 1:
            raise ValueError(f"index n must be >= 1, got {n}")
        return complex(self.coeffs[n - 1]) if n <= self.truncation else 0j

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(truncation: int) -> "DirichletSeries":
        return DirichletSeries(np.zeros(truncation, dtype=np.complex128))

    @staticmethod
    def monomial(n: int, c: complex, truncation: int) -> "DirichletSeries":
        """c * n^{-s} at the given truncation."""
        if not 1 <= n <= truncation:
            raise ValueError(f"monomial index {n} outside 1..{truncation}")
        coeffs = np.zeros(truncation, dtype=np.complex128)
        coeffs[n - 1] = c
        return DirichletSeries(coeffs)

    @staticmethod
    def ones(truncation: int) -> "DirichletSeries":
        """The truncated zeta series: a_n = 1 for n <= truncation."""
        return DirichletSeries(np.ones(truncation, dtype=np.complex128))

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other: "DirichletSeries") -> "DirichletSeries":
        return add(self, other)

    def __sub__(self, other: "DirichletSeries") -> "DirichletSeries":
        return add(self, scale(-1.0, other))

    def __neg__(self) -> "DirichletSeries":
        return scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, DirichletSeries):
            return multiply(self, other)
        return scale(other, self)

    def __rmul__(self, other):
        return scale(other, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, DirichletSeries) and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None


class SeminormValue(NamedTuple):
    """A seminorm together with its exactness status.

    ``exact`` is False when the computation could only certify a lower
    bound (support lost above the working truncation).
    """

    value: float
    exact: bool


@dataclass(frozen=True)
class AbscissaReport:
    """Heuristic abscissa estimates from partial-sum growth on a geometric ladder.

    Estimates are truncation-dependent; sigma_c is clamped to sigma_a (a
    theorem for the true abscissas), so sigma_c_estimate <= sigma_a_estimate.
    """

    sigma_a_estimate: float
    sigma_c_estimate: float
    notes: str


# ---------------------------------------------------------------------------
# linear operations
# ---------------------------------------------------------------------------

def add(d: DirichletSeries, e: DirichletSeries) -> DirichletSeries:
    """Pointwise sum at the shorter truncation."""
    n = min(d.truncation, e.truncation)
    return DirichletSeries(d.coeffs[:n] + e.coeffs[:n])


def scale(c: complex, d: DirichletSeries) -> DirichletSeries:
    return DirichletSeries(complex(c) * d.coeffs)


def with_truncation(d: DirichletSeries, truncation: int) -> DirichletSeries:
    """Zero-extend or cut to the requested truncation.

    Extension is exact under polynomial semantics (the stored prefix is the
    whole object); cutting drops coefficients.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    n = d.truncation
    if truncation == n:
        return d
    if truncation < n:
        return DirichletSeries(d.coeffs[:truncation].copy())
    out = np.zeros(truncation, dtype=np.complex128)
    out[:n] = d.coeffs
    return DirichletSeries(out)


def translate(d: DirichletSeries, delta: float) -> DirichletSeries:
    """Shift right by delta: b_n = a_n * n^{-delta}.

    Negative delta is rejected; the backward shift exists only as a private
    helper on finite supports inside the operators module.
    """
    if delta < 0:
        raise ValueError(f"translation delta must be >= 0, got {delta}")
    if delta == 0:
        return d
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    return DirichletSeries(d.coeffs * n ** (-float(delta)))


def multiply(d: DirichletSeries, e: DirichletSeries) -> DirichletSeries:
    """Dirichlet product c_n = sum_{d | n} a_d b_{n/d} at the shorter truncation.

    Divisors of n never exceed n, so every output coefficient equals that of
    the formal product of the two polynomials.  A product that leaves the
    float range raises ``CoefficientOverflow``.
    """
    out_len = min(d.truncation, e.truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _kernels.dirichlet_convolve(d.coeffs, e.coeffs, out_len)
    return DirichletSeries(_finite_product(coeffs))


def power(d: DirichletSeries, k: int, out_truncation: int) -> DirichletSeries:
    """k-fold convolution power of the polynomial d, truncated at out_truncation.

    power(d, 0) is the convolution unit 1^{-s} and power(d, 1) is d at
    out_truncation.  Coefficients are exact up to the output truncation
    whenever support(d)^k fits below it; otherwise they are the truncated
    prefix of the formal power.  For k >= 2 the power is rung k of the
    ``_power_ladder`` of d's support, laid out densely at the end, bit for
    bit the coefficients of k - 1 successive ``multiply`` calls.
    """
    if k < 0:
        raise ValueError(f"power exponent must be >= 0, got {k}")
    if out_truncation < 1:
        raise ValueError(f"out_truncation must be >= 1, got {out_truncation}")
    if k == 0:
        return DirichletSeries.monomial(1, 1.0, out_truncation)
    if k == 1:
        return with_truncation(d, out_truncation)
    idx, vals = _power_rung(d.coeffs, k, out_truncation)
    if idx is not None:
        vals = _kernels.from_support(idx, vals, out_truncation)
    return DirichletSeries(vals)


def _power_ladder(base, out_len: int, rung=None):
    """The convolution powers of ``base`` at out_len, without end.

    ``base`` and ``rung`` are (ascending 1-based indices, values) supports
    or (None, coefficient array) pairs.  The first rung is the base itself,
    or base * rung for a given ``rung``; each later one is base * (the rung
    before), base the left operand.  Products run on the supports while
    both operands are supports with nnz_a * nnz_b <= out_len; from the first
    that is not, both are laid out densely and every product goes through
    ``_kernels.dirichlet_convolve``.  A caller passes each rung it reads
    through ``_finite_product``.
    """
    (ia, va), (ib, vb) = base, rung or base
    if rung is None:
        yield ib, vb
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            if ia is not None and ib is not None and len(ia) * len(ib) <= out_len:
                ib, vb = _kernels.convolve_support(ia, va, ib, vb, out_len)
            else:
                if ia is not None:
                    ia, va = None, _kernels.from_support(ia, va, out_len)
                if ib is not None:
                    ib, vb = None, _kernels.from_support(ib, vb, out_len)
                vb = _kernels.dirichlet_convolve(va, vb, out_len)
        yield ib, vb


def _power_rung(coeffs: np.ndarray, k: int, out_len: int):
    """Rung k >= 1 of the ladder of the support of coeffs[:out_len], checked finite."""
    ladder = _power_ladder(_kernels.support(coeffs, out_len), out_len)
    idx, vals = next(itertools.islice(ladder, k - 1, None))
    return idx, _finite_product(vals)


def _finite_product(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, the product of finite coefficients, if it stayed in the float range."""
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise CoefficientOverflow("product coefficients are not finite: past the float range")
    return coeffs


def evaluate(d: DirichletSeries, s: complex) -> complex:
    """Partial sum of a_n n^{-s} over the stored prefix (deterministic order)."""
    n = np.arange(1, d.truncation + 1, dtype=np.float64)
    return complex(np.sum(d.coeffs * np.exp(-complex(s) * np.log(n))))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def _weighted_l2_roots(
    idx: np.ndarray | None, vals: np.ndarray, ks: Sequence[int], q: int
) -> list[float]:
    """(sum |v_i|^2 idx_i^{-2/k})^{1/(2q)} for each k of ks, over (1-based index, value) pairs.

    ``idx`` None stands for the full range 1..len(vals), which is never
    materialised as a gathered copy.  The indices and squared moduli are
    formed once for all k.  When the plain sum of squares underflows into
    the subnormal range or overflows, the terms are rescaled by their
    largest modulus first, as in ``math.hypot``, and the root is taken
    factor by factor.
    """
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


def _rescaled_l2_norm(terms: np.ndarray) -> tuple[float, float]:
    """(scale, r) with ||terms||_2 = scale * r, scale the largest of the terms.

    The terms are non-negative; r is 1 when scale is 0 or not finite.
    """
    scale = float(terms.max()) if len(terms) else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return scale, 1.0
    return scale, math.sqrt(float(np.sum((terms / scale) ** 2)))


# Below this sum, squares lost to the subnormal range could move the norm by
# more than ~1e-30 relative, so the norm is taken on rescaled terms instead.
_SAFE_SQUARE_SUM_MIN = 2.0**-900


def seminorm_2(d: DirichletSeries, k: int) -> float:
    """The Hilbert seminorm (sum |a_n|^2 n^{-2/k})^{1/2}."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _weighted_l2_roots(None, d.coeffs, [k], 1)[0]


def seminorm_even(
    d: DirichletSeries, q: int, k: int | Sequence[int], out_truncation: int
) -> SeminormValue | list[SeminormValue]:
    """Even-index seminorm of order p = 2q via the power identity, at one k or at each of a list.

    ||D||_{2q,k} = || translate(D, 1/k)^q ||_{H^2}^{1/q}.  Translation is
    multiplicative, [translate(D, 1/k)^q]_N = N^{-1/k} [D^q]_N, and commutes
    with truncation, so ||D||_{2q,k}^{2q} = sum_N |[D^q]_N|^2 N^{-2/k}: D^q
    is rung q of ``_power_ladder`` at ``out_truncation``, formed once and
    weighed for every k.  With an int k the result is one ``SeminormValue``;
    with a sequence of ints it is the list of their values in the same
    order, each entry the bits of the single-k call.  A value is exact when
    the support of the q-th power fits below the truncation (support(D)^q <=
    out_truncation); otherwise it is a certified lower bound and ``exact``
    is False.  The sum runs over the rung's support while it is one, so no
    array of out_truncation slots is built for a sparse D.  For q = 1 D
    itself is weighed, and the values are the bits of ``seminorm_2``.
    """
    single = isinstance(k, numbers.Integral)
    ks = [k] if single else list(k)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    for kk in ks:
        if kk < 1:
            raise ValueError(f"k must be >= 1, got {kk}")
    if q == 1:
        idx, vals, exact = None, d.coeffs, True
    else:
        idx, vals = _power_rung(d.coeffs, q, out_truncation)
        exact = d.support_max() ** q <= out_truncation
    values = [SeminormValue(v, exact) for v in _weighted_l2_roots(idx, vals, ks, q)]
    return values[0] if single else values


def seminorm_comparison_constant(k: int, p: float, q: float) -> float:
    """Constant C_{k,p,q} comparing ||.||_{q,k} against ||.||_{p,2k}.

    Equals prod_{j <= j0} (1 - p_j^{-1/(2k)})^{-1} where j0 counts the primes
    with p_j^{-1/(2k)} >= sqrt(p/q); the empty product is 1.  Read off the
    prefix ``numtheory.euler_product`` keeps for exponent 2k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    return euler_product(2 * k, math.sqrt(p / q))[1]


# ---------------------------------------------------------------------------
# abscissa estimation
# ---------------------------------------------------------------------------

def abscissa_estimates(d: DirichletSeries) -> AbscissaReport:
    """Heuristic estimates of the absolute/conditional convergence abscissas.

    Uses the classical limsup formulas on a geometric checkpoint ladder
    N' in {2^4, 2^5, ..., N} and reports the last-window slope of
    log(partial sum) against log N'.  A series whose support ends at or
    below half its truncation is treated as a polynomial (abscissa -inf).
    """
    sup = d.support_max()
    if sup == 0:
        raise UndefinedAbscissa("abscissa estimates are undefined for the zero series")
    n_trunc = d.truncation
    if 2 * sup <= n_trunc:
        notes = (
            f"support ends at n={sup} <= truncation/2: treated as a Dirichlet "
            "polynomial; both abscissas reported as -inf"
        )
        return AbscissaReport(-math.inf, -math.inf, notes)

    checkpoints = [2**j for j in range(4, int(math.log2(n_trunc)) + 1) if 2**j <= n_trunc]
    if not checkpoints or checkpoints[-1] != n_trunc:
        checkpoints.append(n_trunc)
    if len(checkpoints) < 2:
        checkpoints = [max(2, n_trunc // 2), n_trunc]

    abs_partial = np.cumsum(np.abs(d.coeffs))
    raw_partial = np.cumsum(d.coeffs)
    n_hi, n_lo = checkpoints[-1], checkpoints[-2]

    def _slope(values: np.ndarray) -> float:
        hi, lo = values[n_hi - 1], values[n_lo - 1]
        if hi <= 0 or lo <= 0:
            return -math.inf
        return (math.log(hi) - math.log(lo)) / (math.log(n_hi) - math.log(n_lo))

    sigma_a = _slope(abs_partial)
    sigma_c_raw = _slope(np.abs(raw_partial))
    sigma_c = min(sigma_c_raw, sigma_a)
    notes = (
        f"last-window slope over N'={n_lo}..{n_hi} of a {len(checkpoints)}-step "
        "geometric ladder; truncation-dependent heuristic; sigma_c clamped to sigma_a"
    )
    return AbscissaReport(sigma_a, sigma_c, notes)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def series_to_json(d: DirichletSeries) -> dict:
    """JSON form {"truncation": N, "coeffs": [[re, im], ...]}; coeffs[i] is a_{i+1}."""
    return {
        "truncation": d.truncation,
        "coeffs": np.stack((d.coeffs.real, d.coeffs.imag), axis=1).tolist(),
    }


def series_from_json(obj: dict) -> DirichletSeries:
    if not isinstance(obj, dict):
        raise ValueError("series JSON must be an object")
    for field in ("truncation", "coeffs"):
        if field not in obj:
            raise ValueError(f"series JSON missing field '{field}'")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != int(obj["truncation"]):
        raise ValueError("field 'coeffs' must be a list of length 'truncation'")
    try:
        arr = np.array([complex(re, im) for re, im in coeffs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field 'coeffs' must hold [re, im] pairs: {exc}") from None
    return DirichletSeries(arr)


def load_series(path: str) -> DirichletSeries:
    with open(path) as f:
        return series_from_json(json.load(f))


# Characters per write of _atomic_write_text: a text written at once is
# first encoded whole, a second full copy of it.
_WRITE_SLICE = 1 << 20


def _atomic_write_text(path: str, *texts: str) -> None:
    """Write the texts one after another to path, through a renamed temp file.

    Every file hplus writes goes through here.  When the write or the rename
    raises, the temp file is deleted and the error re-raised: a failed write
    leaves path as it was and no temp file.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            for text in texts:
                for start in range(0, len(text), _WRITE_SLICE):
                    f.write(text[start : start + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _atomic_write_json(path: str, obj: dict) -> None:
    """obj as sorted-key JSON and a newline, through ``_atomic_write_text``."""
    _atomic_write_text(path, json.dumps(obj, sort_keys=True), "\n")
