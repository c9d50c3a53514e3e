"""Command lines at and just past the rows of ``hplus.cli.BOUNDS``.

Each row names the flags it reads; a value for one of them is found by
bisection on the row's own size function, so a new row needs no hand-made
case.  ``{series}`` and ``{symbol}`` in a command line stand for input files
that the caller writes; sizes are computed for an input of ``TERMS`` terms.
"""

import copy
import re

from hplus import cli
from hplus.errors import BeyondDeskScale

TERMS = 20
# how a list flag holding v values is written; every other size flag is an integer
LIST_FLAGS = {
    "--k": lambda v: f"1..{v}",
    "--m-list": lambda v: f"1..{v}",
    "--coeffs": lambda v: ";".join(["1"] * v),
}


def size_flags(row) -> list[str]:
    """The flags a row's size reads that take a count: integer flags in the
    order the row names them, then list flags (--in only names a file)."""
    flags = [f for f in dict.fromkeys(re.findall(r"--[a-z-]+", row.flags)) if f != "--in"]
    return sorted(flags, key=lambda f: f in LIST_FLAGS)


def text(flag: str, value: int) -> str:
    return LIST_FLAGS[flag](value) if flag in LIST_FLAGS else str(value)


def with_flag(argv: list[str], flag: str, value: int) -> list[str]:
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = text(flag, value)
    else:
        argv += [flag, text(flag, value)]
    return argv


def _least(holds, lo: int, hi: int) -> int:
    """The least value in (lo, hi] where holds, which is false at lo and true at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def edge(row, argv: list[str], flag: str, truncation=TERMS):
    """(at, past) for one flag, the rest of argv kept: past is the least value
    >= 2 that puts row's size past its limit, at the least value whose size is
    that of past - 1 (so --p 64, not 65, for norms' --p/2).  None when the
    value 1 is already past the limit or no value up to 2^64 is."""
    args = cli.parse_args(argv)
    dest = flag.lstrip("-").replace("-", "_")

    def size(value):
        varied = copy.copy(args)
        setattr(varied, dest, text(flag, value) if flag in LIST_FLAGS else value)
        return row.size(varied, truncation)

    if size(1) > row.limit:
        return None
    lo, hi = 1, 2
    while size(hi) <= row.limit:
        lo, hi = hi, 2 * hi
        if hi > 2**64:
            return None
    past = _least(lambda v: size(v) > row.limit, lo, hi)
    inside = size(past - 1)
    return _least(lambda v: size(v) >= inside, 0, past - 1), past


def refusal(argv: list[str], truncation=TERMS):
    """The message _check_bounds refuses argv with, or None when it passes."""
    try:
        cli._check_bounds(cli.parse_args(argv), truncation)
    except BeyondDeskScale as exc:
        return str(exc)
    return None


def message(row, argv: list[str], truncation=TERMS) -> str:
    size = row.size(cli.parse_args(argv), truncation)
    return f"{row.flags} = {size} is beyond desk scale (limit {row.limit})"
