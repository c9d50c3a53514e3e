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

import cmath
import contextlib
import itertools
import json
import math
import numbers
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
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

    @classmethod
    def _of_finite(cls, arr: np.ndarray) -> "DirichletSeries":
        """The series of a 1-d complex128 array ``_in_float_range`` passed, not checked again."""
        d = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(d, "coeffs", arr)
        return d

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
    """Pointwise sum at the shorter truncation; past the float range raises
    ``CoefficientOverflow``."""
    n = min(d.truncation, e.truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = d.coeffs[:n] + e.coeffs[:n]
    return DirichletSeries._of_finite(_in_float_range(coeffs))


def scale(c: complex, d: DirichletSeries) -> DirichletSeries:
    """c * d; with a finite c, past the float range raises ``CoefficientOverflow``."""
    c = complex(c)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = c * d.coeffs
    if cmath.isfinite(c):
        return DirichletSeries._of_finite(_in_float_range(coeffs))
    return DirichletSeries(coeffs)


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

    Negative delta is rejected: hplus has no backward shift.
    """
    if delta < 0:
        raise ValueError(f"translation delta must be >= 0, got {delta}")
    if delta == 0:
        return d
    w = np.arange(1, d.truncation + 1, dtype=np.float64)
    w **= -float(delta)
    return DirichletSeries(d.coeffs * w)


def multiply(d: DirichletSeries, e: DirichletSeries) -> DirichletSeries:
    """Dirichlet product c_n = sum_{d | n} a_d b_{n/d} at the shorter truncation.

    Divisors of n never exceed n, so every output coefficient equals that of
    the formal product of the two polynomials.  A product that leaves the
    float range raises ``CoefficientOverflow``.
    """
    out_len = min(d.truncation, e.truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _kernels.dirichlet_convolve(d.coeffs, e.coeffs, out_len)
    return DirichletSeries._of_finite(_in_float_range(coeffs))


def power(d: DirichletSeries, k: int, out_truncation: int) -> DirichletSeries:
    """k-fold convolution power of the polynomial d, truncated at out_truncation.

    power(d, 0) is the convolution unit 1^{-s} and power(d, 1) is d at
    out_truncation.  Coefficients are exact up to the output truncation
    whenever support(d)^k fits below it; otherwise they are the truncated
    prefix of the formal power.  For k >= 2 the power is rung k of the
    ``_power_ladder`` of d's support, laid out densely at the end, bit for
    bit the coefficients of k - 1 successive ``multiply`` calls; like them
    it raises ``CoefficientOverflow`` wherever a rung it forms leaves the
    float range, though a later rung would lose the overflow to truncation.
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
    return DirichletSeries._of_finite(vals)


def _power_ladder(base, out_len: int):
    """The convolution powers of ``base`` at out_len, without end.

    ``base`` is an (ascending 1-based indices, values) support or a (None,
    coefficient array) pair.  The first rung is the base itself; each later
    one is base * (the rung before), base the left operand.  Products run on
    the supports while both operands are supports with nnz_a * nnz_b <=
    out_len; from the first that is not, both are laid out densely and every
    product goes through ``_kernels.dirichlet_convolve``.  Each rung formed
    goes through ``_in_float_range``, as each ``multiply`` result does.
    """
    ia, va = ib, vb = base
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
        yield ib, _in_float_range(vb)


def _power_rung(coeffs: np.ndarray, k: int, out_len: int):
    """Rung k >= 1 of the ladder of the support of coeffs[:out_len]."""
    ladder = _power_ladder(_kernels.support(coeffs, out_len), out_len)
    return next(itertools.islice(ladder, k - 1, None))


def _in_float_range(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, computed from finite coefficients, if it stayed in the float range."""
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise CoefficientOverflow("coefficients are not finite: past the float range")
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
    materialised as a gathered copy.  The squared moduli are formed once,
    before the indices.  The squares are multiplied into each k's weights
    idx^{-2/k}: the last k raises the index array itself in place, an earlier
    k a fresh array that is dropped before the next.  So besides vals one k
    holds two float64 arrays of its length and several k hold three.
    ``_l2_root`` takes each root, from the moduli |v_i| idx_i^{-1/k} if need be.
    """

    def indices() -> np.ndarray:
        if idx is None:
            return np.arange(1, len(vals) + 1, dtype=np.float64)
        return idx.astype(np.float64)

    roots = []
    with np.errstate(over="ignore", under="ignore"):
        squares = vals.real**2
        squares += vals.imag**2
        n = indices()
        for i, k in enumerate(ks):
            # spelled ** and **=, not np.power(n, e, out=...): numpy's
            # operator takes scalar fast paths (a reciprocal at -1.0)
            if i + 1 < len(ks):
                w = n ** (-2.0 / k)  # a later k reads n
            else:
                n **= -2.0 / k
                w = n
            w *= squares
            square_sum = float(np.sum(w))
            del w  # before the next k's weights are formed
            roots.append(_l2_root(square_sum, lambda: np.abs(vals) * indices() ** (-1.0 / k), q))
    return roots


def _l2_root(square_sum: float, moduli: Callable[[], np.ndarray], q: int = 1) -> float:
    """square_sum^{1/(2q)}, square_sum the plain sum of the squares of moduli().

    Outside ``[_SAFE_SQUARE_SUM_MIN, inf)`` the sum has lost squares to the
    subnormal range or overflowed, so moduli() is formed and rescaled by its
    largest, as in ``math.hypot``, and the root is taken factor by factor.
    """
    if _SAFE_SQUARE_SUM_MIN <= square_sum < math.inf:
        return math.sqrt(square_sum) if q == 1 else square_sum ** (0.5 / q)
    with np.errstate(over="ignore", under="ignore"):
        terms = moduli()
        scale = float(terms.max()) if len(terms) else 0.0
        norm = math.sqrt(float(np.sum((terms / scale) ** 2))) if 0 < scale < math.inf else 1.0
    return scale * norm if q == 1 else scale ** (1.0 / q) * norm ** (1.0 / q)


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
    array of out_truncation slots is built for a sparse D.  For q = 1 D cut
    at out_truncation is weighed, with the bits of its ``seminorm_2``.
    """
    single = isinstance(k, numbers.Integral)
    ks = [k] if single else list(k)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if min(ks, default=1) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if out_truncation < 1:
        raise ValueError(f"out_truncation must be >= 1, got {out_truncation}")
    if q == 1:
        idx, vals = None, d.coeffs[:out_truncation]
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
    truncation, coeffs = obj["truncation"], obj["coeffs"]
    if type(truncation) is not int:  # bool is an int subclass; 3.7, "3", 3.0 and true are rejected
        raise ValueError(f"field 'truncation' must be a JSON integer, got {truncation!r}")
    if not isinstance(coeffs, list) or len(coeffs) != truncation:
        raise ValueError("field 'coeffs' must be a list of length 'truncation'")
    return DirichletSeries(_complex_pairs(obj, "coeffs"))


def _complex_pairs(obj: dict, field: str) -> np.ndarray:
    """obj[field], a list of [re, im] pairs, as a complex array; else a ValueError naming field."""
    try:
        return np.array([complex(re, im) for re, im in obj[field]], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field '{field}' must hold [re, im] pairs: {exc}") from None


def load_series(path: str) -> DirichletSeries:
    with open(path) as f:
        return series_from_json(json.load(f))


# Rows per slice of _series_json_text: one slice's [re, im] lists and their
# text take about 3 MB, where the whole list of 10^6 rows took 200 MB.
_JSON_ROWS = 1 << 14


def _series_json_text(d: DirichletSeries, **fields) -> Iterator[str]:
    """The text of a series file, in slices of ``_JSON_ROWS`` coefficients.

    The slices join to ``json.dumps({**series_to_json(d), **fields},
    sort_keys=True)`` and a newline, byte for byte: "coeffs" first, each
    slice of rows as ``json.dumps`` writes it, then "truncation" and the
    extra fields (such as ``exact``) in sorted order.  Every extra field
    name sorts after "coeffs".
    """
    yield '{"coeffs": ['
    for lo in range(0, d.truncation, _JSON_ROWS):
        c = d.coeffs[lo : lo + _JSON_ROWS]
        if lo:
            yield ", "
        yield json.dumps(np.stack((c.real, c.imag), axis=1).tolist())[1:-1]
    yield "], " + json.dumps({"truncation": d.truncation, **fields}, sort_keys=True)[1:] + "\n"


# Characters per write of _atomic_write_text: a text written at once is
# first encoded whole, a second full copy of it.
_WRITE_SLICE = 1 << 20


def _atomic_write_text(path: str, texts: Iterable[str]) -> None:
    """Write the texts one after another to path, through a renamed temp file.

    Every file hplus writes goes through here.  texts is consumed inside the
    write, so a generator such as ``_series_json_text`` is encoded one slice
    at a time.  When encoding, the write or the rename raises, the temp file
    is deleted and the error re-raised: a failed write leaves path as it was
    and no temp file.
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


def _csv_text(header: str, rows: Iterable[str]) -> str:
    """The header and the rows, one line each, with a final newline."""
    return "\n".join([header, *rows]) + "\n"


def _atomic_write_json(path: str, obj: dict) -> None:
    """obj as sorted-key JSON and a newline, through ``_atomic_write_text``."""
    _atomic_write_text(path, (json.dumps(obj, sort_keys=True), "\n"))
