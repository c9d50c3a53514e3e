"""Domain-specific exceptions shared across the package.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes
here mark conditions a caller may want to catch specifically (the CLI maps
them to exit code 3).
"""

from __future__ import annotations


class HplusError(Exception):
    """Base class for domain errors."""


class TableTooSmall(HplusError):
    """A prime table / character does not cover the requested range."""


class MissingCutoff(HplusError):
    """Composition with zero leading coefficient requires an explicit n cutoff."""


class NonzeroConstantTerm(HplusError):
    """Operation requires the coefficient at n = 1 to vanish."""


class SpectrumPoint(HplusError):
    """The shift lambda hits the spectrum of the differentiation operator."""

    def __init__(self, n: int, lam: complex):
        self.n = int(n)
        self.lam = lam
        super().__init__(f"lambda = {lam!r} is within tolerance of -log({n}); spectrum point")


class UndefinedAbscissa(HplusError):
    """Abscissa estimates are undefined for the zero series."""


class InexactPower(HplusError):
    """A convolution power would lose support beyond the working truncation."""


class BeyondDeskScale(HplusError, ValueError):
    """A constant needs a prime table beyond desk scale (primes up to 1e8)."""


class CoefficientOverflow(HplusError, ValueError):
    """A product of finite coefficients leaves the float range."""
