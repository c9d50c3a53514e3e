"""Output checks for every call, computed apart from hplus.

Each check uses the benchmark's own number theory (an Eratosthenes sieve,
valuations by repeated division, trial division), plain numpy and ``math``,
or a property the method must have.  None compares against a stored copy of
an earlier output.  ``check`` returns a list of problems; empty means pass.
The reference tables are independent of the seed and the round, so one
``Reference`` serves every round of a run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import cached_property

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RTOL = 1e-12
# compose: |computed - expansion| <= COMPOSE_TOL * (the same expansion in absolute values)
COMPOSE_TOL = 1e-11
COMPOSE_SAMPLES = 64
VERTICAL_SAMPLES = 200
NTH_PRIME_1E6 = 15_485_863


# ---------------------------------------------------------------------------
# the benchmark's own number theory
# ---------------------------------------------------------------------------

def primes_upto(n: int) -> np.ndarray:
    """Sieve of Eratosthenes on a boolean array."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


class Factorization:
    """Exponents of every n <= n_max: small primes by repeated division,
    primes above sqrt(n_max) (which divide at most once) as a count."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        primes = primes_upto(n_max)
        root = math.isqrt(n_max)
        self.small = []  # (p, valuation of p in each multiple of p)
        for p in primes[primes <= root]:
            p = int(p)
            q = np.arange(1, n_max // p + 1)
            v = np.ones(len(q), dtype=np.int64)
            while True:
                hit = q % p == 0
                if not hit.any():
                    break
                v[hit] += 1
                q[hit] //= p
            self.small.append((p, v))
        self.big = np.zeros(n_max + 1, dtype=np.int64)
        for p in primes[primes > root]:
            self.big[p::p] += 1

    def divisor_power(self, k: int) -> np.ndarray:
        """d_k(n) for n = 0..n_max as prod over p^e || n of C(e+k-1, k-1); d_k(0) = 0."""
        if k == 0:
            out = np.zeros(self.n_max + 1, dtype=np.int64)
            out[1] = 1
            return out
        out = np.ones(self.n_max + 1, dtype=np.int64)
        out[0] = 0
        for p, v in self.small:
            comb = np.array([math.comb(e + k - 1, k - 1) for e in range(int(v.max()) + 1)])
            out[p::p] *= comb[v]
        out *= np.int64(k) ** self.big
        return out


class Reference:
    """Lazily built tables shared by the checks of one run."""

    def __init__(self):
        self._brackets: dict[tuple[int, int], tuple[float, float]] = {}

    def bracket(self, a: int, b: int) -> tuple[float, float]:
        """Bracket on S(b) - S(a) from tests/oracles.py, which uses math only."""
        if (a, b) not in self._brackets:
            sys.path.insert(0, os.path.join(HERE, "..", "tests"))
            try:
                from oracles import nonextension_increment_bracket
            finally:
                sys.path.pop(0)
            self._brackets[a, b] = nonextension_increment_bracket(a, b)
        return self._brackets[a, b]

    @cached_property
    def fact_1e5(self) -> Factorization:
        return Factorization(100_000)

    @cached_property
    def fact_2000(self) -> Factorization:
        return Factorization(2000)

    @cached_property
    def primes_small(self) -> np.ndarray:
        return primes_upto(100_000)

    @cached_property
    def primes_1e6th(self) -> np.ndarray:
        return primes_upto(NTH_PRIME_1E6)[:1_000_000]

    def pi_theta(self, x: float) -> tuple[int, float]:
        primes = self.primes_small
        if x > primes[-1] + 1:
            raise ValueError(f"x = {x} beyond the reference sieve")
        count = int(np.searchsorted(primes, math.floor(x), side="right"))
        return count, math.fsum(np.log(primes[:count].astype(np.float64)))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as f:
        lines = f.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _complex_pairs(pairs: list) -> np.ndarray:
    values = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return values[:, 0] + 1j * values[:, 1]


def _load_series(path: str) -> np.ndarray:
    with open(path) as f:
        doc = json.load(f)
    coeffs = _complex_pairs(doc["coeffs"])
    if len(coeffs) != doc["truncation"]:
        raise ValueError(f"{path}: truncation {doc['truncation']} != {len(coeffs)} coefficients")
    return coeffs


def _close(value: float, ref: float, scale: float | None = None) -> bool:
    return abs(value - ref) <= RTOL * (abs(ref) if scale is None else scale) + 1e-300


def _sparse_mul(a: dict[int, complex], b: dict[int, complex]) -> dict[int, complex]:
    """Dirichlet product of two polynomials stored by their support."""
    ia, va = np.array(list(a)), np.array(list(a.values()))
    ib, vb = np.array(list(b)), np.array(list(b.values()))
    idx = np.multiply.outer(ia, ib).ravel()
    vals = np.multiply.outer(va, vb).ravel()
    keys, inverse = np.unique(idx, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.complex128)
    np.add.at(sums, inverse, vals)
    return dict(zip(keys.tolist(), sums.tolist()))


def _sample(seed: int, salt: int, n_max: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed % 2**63, salt])
    return sorted(set(rng.integers(1, n_max + 1, size=count).tolist()) | {1, n_max})


# ---------------------------------------------------------------------------
# dense-series
# ---------------------------------------------------------------------------

def _check_ejemplo(out: str, ref: Reference, problems: list) -> None:
    _, rows = _read_csv(os.path.join(out, "ejemplo", "growth.csv"))
    if [int(r[0]) for r in rows] != list(range(1, 7)):
        problems.append(f"growth.csv rows {[r[0] for r in rows]}")
        return
    n = np.arange(1, 100_001, dtype=np.float64)
    w = n**-1.5
    for k, row in enumerate(rows, start=1):
        dk = ref.fact_1e5.divisor_power(k)[1:].astype(np.float64)
        r_k = math.fsum(dk * dk * w) ** (1.0 / (2 * k))
        if not _close(float(row[1]), r_k):
            problems.append(f"growth.csv k={k}: {row[1]} != {r_k!r}")
    _, rows = _read_csv(os.path.join(out, "ejemplo", "witness.csv"))
    if [int(r[0]) for r in rows] != list(range(20, 61)):
        problems.append("witness.csv rows")
        return
    for row in rows:
        k = int(row[0])
        x = float(np.float64(k) ** 1.3)
        pi, theta = ref.pi_theta(x)
        a, b = 2.0 * pi * math.log(k), 1.5 * theta
        if not _close(float(row[1]), (a - b) / (2 * k), (a + b) / (2 * k)) or row[2] != "":
            problems.append(f"witness.csv k={k}: {row[1:3]}")


def _check_superpose(out: str, ref: Reference, problems: list) -> None:
    n = np.arange(1, 2001, dtype=np.float64)
    a = [math.exp(-1.0)] + [math.exp(-float(k) ** k) for k in range(1, 9)]
    terms = [a[k] * ref.fact_2000.divisor_power(k)[1:] / n for k in range(9)]
    coeffs = _load_series(os.path.join(out, "superpose", "superposed.json"))
    total = np.sum(terms, axis=0)
    if len(coeffs) != 2000 or not np.all(np.abs(coeffs - total) <= RTOL * np.abs(total)):
        problems.append("superposed.json differs from sum_k a_k d_k(n)/n")
    for m in (1, 2, 4):
        _, rows = _read_csv(os.path.join(out, "superpose", f"tails_m{m}.csv"))
        if [int(r[0]) for r in rows] != list(range(8)):
            problems.append(f"tails_m{m}.csv rows")
            continue
        for row in rows:
            k_from = int(row[0])
            tail = np.sum(terms[k_from + 1 :], axis=0)
            value = math.sqrt(math.fsum(np.abs(tail) ** 2 * n ** (-2.0 / m)))
            if not _close(float(row[1]), value):
                problems.append(f"tails_m{m}.csv k={k_from}: {row[1]} != {value!r}")


def _check_divisor_table(out: str, ref: Reference, problems: list) -> None:
    table = np.load(os.path.join(out, "divisor-power-table.npy"))
    expected = ref.fact_1e5.divisor_power(3)[1:].astype(np.uint64)
    if table.dtype != np.uint64 or not np.array_equal(table, expected):
        problems.append("divisor_power_table(3, 10^5) differs from the multiplicative formula")


def _check_compose(out: str, inputs: str, seed: int, problems: list) -> None:
    a = _load_series(os.path.join(inputs, "series.json"))
    with open(os.path.join(inputs, "symbol.json")) as f:
        symbol = json.load(f)
    varphi = _complex_pairs(symbol["varphi"]["coeffs"])
    c1, e = varphi[0], {m: varphi[m - 1] for m in range(2, len(varphi) + 1)}
    with open(os.path.join(out, "composed.json")) as f:
        doc = json.load(f)
    got = _complex_pairs(doc["coeffs"])
    if doc.get("exact") is not True or len(got) != len(a):
        problems.append("composed.json: not exact or wrong truncation")
        return
    powers: dict[int, list[complex]] = {}  # j -> [E^r]_j, r = 0, 1, ...
    abs_powers: dict[int, list[float]] = {}

    def e_powers(j: int) -> tuple[list[complex], list[float]]:
        # [E^r]_j over ordered factorizations of j into r factors m with 2 <= m <= 64
        if j not in powers:
            g, h = [1.0 + 0j if j == 1 else 0j], [1.0 if j == 1 else 0.0]
            depth = j.bit_length() - 1
            for r in range(1, depth + 1):
                s, t = 0j, 0.0
                for m, em in e.items():
                    if m > j:
                        break
                    if j % m == 0:
                        gm, hm = e_powers(j // m)
                        if r - 1 < len(gm):
                            s += em * gm[r - 1]
                            t += abs(em) * hm[r - 1]
                g.append(s)
                h.append(t)
            powers[j], abs_powers[j] = g, h
        return powers[j], abs_powers[j]

    for big_n in _sample(seed, 1, len(a), COMPOSE_SAMPLES):
        value, bound = 0j, 0.0
        for n in range(1, big_n + 1):
            if big_n % n:
                continue
            g, h = e_powers(big_n // n)
            log_n = math.log(n)
            scale = a[n - 1] * complex(np.exp(-c1 * log_n))
            for r, (gr, hr) in enumerate(zip(g, h)):
                coef = (-log_n) ** r / math.factorial(r)
                value += scale * coef * gr
                bound += abs(scale) * abs(coef) * hr
        computed = got[big_n - 1]
        if abs(computed - value) > COMPOSE_TOL * bound + 1e-300:
            problems.append(f"composed.json n={big_n}: {computed} != {value}")


# ---------------------------------------------------------------------------
# sparse-algebra
# ---------------------------------------------------------------------------

def _comparison_constant(k: int, primes: np.ndarray) -> float:
    """C_{k,2,4} = prod over p <= 2^k of (1 - p^{-1/(2k)})^{-1}."""
    const = 1.0
    for p in primes[primes <= 2**k]:
        const /= 1.0 - float(p) ** (-1.0 / (2 * k))
    return const


def _check_suite(out: str, ref: Reference, problems: list) -> None:
    suite = os.path.join(out, "suite")
    _, chain = _read_csv(os.path.join(suite, "seminorm_chain.csv"))
    _, algebra = _read_csv(os.path.join(suite, "algebra.csv"))
    _, power = _read_csv(os.path.join(suite, "power_chain.csv"))
    if (len(chain), len(algebra), len(power)) != (400, 100, 150):
        problems.append(f"suite row counts {len(chain)}, {len(algebra)}, {len(power)}")
        return
    const = {k: _comparison_constant(k, ref.primes_small) for k in (1, 2, 3, 4)}
    lhs = {}
    for row in chain:
        i, k = int(row[0]), int(row[1])
        lo, mid, c, rhs = map(float, row[2:6])
        lhs[i, k] = lo
        if row[6] != "true" or not (lo <= mid * (1 + 1e-9) and mid <= rhs * (1 + 1e-9)):
            problems.append(f"seminorm_chain.csv poly {i} k={k}: chain fails")
        if not _close(c, const[k]):
            problems.append(f"seminorm_chain.csv k={k}: constant {c!r} != {const[k]!r}")
    for row in chain:
        # rhs / C = ||P||_{2,2k}, which the k' = 2k row reports as its lhs
        i, k = int(row[0]), int(row[1])
        if (i, 2 * k) in lhs and not _close(float(row[5]) / float(row[4]), lhs[i, 2 * k]):
            problems.append(f"seminorm_chain.csv poly {i} k={k}: rhs/C != ||P||_(2,{2 * k})")
    for row in algebra:
        lo, hi = float(row[2]), float(row[3])
        if row[4] != "true" or not lo <= hi * (1 + 1e-9):
            problems.append(f"algebra.csv pair {row[0]} m={row[1]}: inequality fails")
    for row in power:
        lo, hi, slack = map(float, row[2:5])
        if row[5] != "true" or not lo <= hi * (1 + 1e-9) or not _close(slack, hi / lo):
            problems.append(f"power_chain.csv poly {row[0]} k={row[1]}: chain fails")


def _check_norms(out: str, inputs: str, i: int, problems: list) -> None:
    coeffs = _load_series(os.path.join(inputs, f"poly{i}.json"))
    p = {n + 1: complex(c) for n, c in enumerate(coeffs) if c != 0}
    p2 = _sparse_mul(p, p)
    p4 = _sparse_mul(p2, p2)
    idx = np.array(list(p4), dtype=np.float64)
    mags = np.abs(np.array(list(p4.values()))) ** 2
    _, rows = _read_csv(os.path.join(out, f"norms{i}.csv"))
    if [(r[0], r[1], r[3]) for r in rows] != [(str(k), "8", "true") for k in range(1, 9)]:
        problems.append(f"norms{i}.csv rows {[r[:2] + r[3:] for r in rows]}")
        return
    for k, row in enumerate(rows, start=1):
        value = math.fsum(mags * idx ** (-2.0 / k)) ** 0.125
        if not _close(float(row[2]), value):
            problems.append(f"norms{i}.csv k={k}: {row[2]} != {value!r}")


# ---------------------------------------------------------------------------
# primes-bohr
# ---------------------------------------------------------------------------

def _check_nonextension(out: str, ref: Reference, problems: list) -> None:
    _, rows = _read_csv(os.path.join(out, "nonext", "partial_sums.csv"))
    ladder = [10**j for j in range(1, 7)]
    if [int(r[0]) for r in rows] != ladder:
        problems.append(f"partial_sums.csv ladder {[r[0] for r in rows]}")
        return
    n = np.arange(1, 1_000_001, dtype=np.float64)
    z = np.full(len(n), 0.5)
    z[2:] = 1.0 / (np.sqrt(n[2:] * np.log(n[2:])) * np.log(np.log(n[2:])))
    terms = z / np.sqrt(ref.primes_1e6th.astype(np.float64))
    lb_terms = np.zeros(len(n))
    lb_terms[2:] = 1.0 / (math.sqrt(2.0) * n[2:] * np.log(n[2:]) * np.log(np.log(n[2:])))
    sums = {m: float(row[1]) for m, row in zip(ladder, rows)}
    for m, row in zip(ladder, rows):
        if not _close(sums[m], math.fsum(terms[:m])):
            problems.append(f"partial_sums.csv S({m}) = {row[1]}")
        if not _close(float(row[2]), math.fsum(lb_terms[:m])):
            problems.append(f"partial_sums.csv lower bound at {m} = {row[2]}")
    for lo_m, hi_m in zip(ladder, ladder[1:]):
        lo, hi = ref.bracket(lo_m, hi_m)
        if not lo <= sums[hi_m] - sums[lo_m] <= hi:
            problems.append(f"partial_sums.csv S({hi_m}) - S({lo_m}) outside [{lo}, {hi}]")


def _check_parseval(out: str, seed: int, problems: list) -> None:
    _, rows = _read_csv(os.path.join(out, "parseval", "estimates.csv"))
    if len(rows) != 10:
        problems.append(f"estimates.csv has {len(rows)} rows")
        return
    # the experiment's draw: 20 distinct exponent vectors in {0..3}^3 with
    # complex normal coefficients, from default_rng(seed), trial by trial
    rng = np.random.default_rng(workloads.hplus_seed(seed))
    radii = np.array([2.0, 3.0, 5.0])
    for row in rows:
        terms: dict[tuple, complex] = {}
        while len(terms) < 20:
            alpha = tuple(int(e) for e in rng.integers(0, 4, size=3))
            c = complex(rng.normal(), rng.normal())
            terms[alpha] = terms.get(alpha, 0j) + c
        exact = math.sqrt(
            math.fsum(abs(c) ** 2 * float(np.prod(radii ** (-2.0 * np.array(al)))) for al, c in terms.items())
        )
        est, se, listed = float(row[3]), float(row[4]), float(row[5])
        if (int(row[0]), float(row[1]), int(row[2])) != (1, 2.0, 100000) or not _close(listed, exact):
            problems.append(f"estimates.csv row {row[:3]}: exact {listed!r} != {exact!r}")
        if not abs(est - exact) <= 5.0 * se:
            problems.append(f"estimates.csv: |{est} - {exact}| > 5 x {se}")


def _check_noncomposition(out: str, ref: Reference, problems: list) -> None:
    def expect(k: int, penalty: float) -> tuple[float, float]:
        x = float(np.float64(k) ** 1.6)
        pi, theta = ref.pi_theta(x)
        parts = (math.log(k) * pi, penalty, theta * 0.55)
        return parts[0] - parts[1] - parts[2], sum(abs(v) for v in parts)

    main_ks = list(range(40, 201))
    ladder = sorted(set(range(40, 201, 10)) | {200, 300, 400, 500, 750, 1000})
    for name, ks, penalty in (
        ("exponent.csv", main_ks, lambda k: float(k) ** 1.2),
        ("factorial.csv", ladder, lambda k: math.lgamma(k + 1)),
    ):
        _, rows = _read_csv(os.path.join(out, "noncomp", name))
        if [int(r[0]) for r in rows] != ks:
            problems.append(f"{name} rows")
            continue
        for row in rows:
            k = int(row[0])
            value, scale = expect(k, penalty(k))
            if not _close(float(row[1]), value, scale):
                problems.append(f"{name} k={k}: {row[1]} != {value!r}")


def _check_vertical(out: str, inputs: str, ref: Reference, seed: int, problems: list) -> None:
    a = _load_series(os.path.join(inputs, "series.json"))
    b = _load_series(os.path.join(out, "twisted.json"))
    with open(os.path.join(inputs, "character.json")) as f:
        chi = _complex_pairs(json.load(f)["prime_values"])
    if len(b) != len(a) or not np.allclose(np.abs(b), np.abs(a), rtol=RTOL, atol=0):
        problems.append("twisted.json: |b_n| != |a_n|")
        return
    index = {int(p): j for j, p in enumerate(ref.primes_small)}
    for n in _sample(seed, 2, len(a), VERTICAL_SAMPLES):
        value, m, d = 1.0 + 0j, n, 2
        while m > 1:  # trial division
            if d * d > m:
                d = m
            while m % d == 0:
                value *= complex(chi[index[d]])
                m //= d
            d += 1
        if abs(b[n - 1] / a[n - 1] - value) > 1e-12:
            problems.append(f"twisted.json n={n}: b/a != chi(n)")


def _check_h2(out: str, problems: list) -> None:
    with open(os.path.join(out, "weighted-h2-norm.json")) as f:
        value = json.load(f)["value"]
    expected = math.sqrt(math.fsum(1.0 / np.arange(1, workloads.H2_TRUNCATION + 1)))
    if not _close(value, expected):
        problems.append(f"weighted_h2_norm {value!r} != {expected!r}")


def _check_lift(out: str, problems: list) -> None:
    with open(os.path.join(out, "lift.json")) as f:
        doc = json.load(f)
    small = (2, 3, 5, 7, 11, 13, 17, 19)
    smooth = set()
    for n in range(1, workloads.LIFT_TRUNCATION + 1):
        m = n
        for p in small:
            while m % p == 0:
                m //= p
        if m == 1:
            smooth.add(n)
    kept = [math.prod(p**e for p, e in zip(small, alpha)) for alpha in doc["exponents"]]
    dropped = workloads.LIFT_TRUNCATION - len(smooth)
    if (
        doc["n_vars"] != workloads.LIFT_VARS
        or any(len(alpha) > len(small) for alpha in doc["exponents"])
        or sorted(kept) != sorted(smooth)
        or any(c != [1.0, 0.0] for c in doc["coeffs"])
    ):
        problems.append(f"lift keeps {len(kept)} indices, not the {len(smooth)} 19-smooth n")
    if doc["dropped_count"] != dropped or doc["dropped_sq_mass"] != float(dropped):
        problems.append(f"lift dropped {doc['dropped_count']}, mass {doc['dropped_sq_mass']}, not {dropped}")


# ---------------------------------------------------------------------------

def check(name: str, out: str, inputs: str, seed: int, ref: Reference) -> list[str]:
    """Problems with the output of the call ``name``; empty when it is correct."""
    problems: list[str] = []
    try:
        if name == "ejemplo-growth":
            _check_ejemplo(out, ref, problems)
        elif name == "superpose-exp":
            _check_superpose(out, ref, problems)
        elif name == "divisor-power-table":
            _check_divisor_table(out, ref, problems)
        elif name == "compose":
            _check_compose(out, inputs, seed, problems)
        elif name == "inequality-suite":
            _check_suite(out, ref, problems)
        elif name.startswith("norms-p8-"):
            _check_norms(out, inputs, int(name.rsplit("-", 1)[1]), problems)
        elif name == "nonextension":
            _check_nonextension(out, ref, problems)
        elif name == "bohr-parseval":
            _check_parseval(out, seed, problems)
        elif name == "noncomposition":
            _check_noncomposition(out, ref, problems)
        elif name == "vertical-limit":
            _check_vertical(out, inputs, ref, seed, problems)
        elif name == "weighted-h2-norm":
            _check_h2(out, problems)
        elif name == "lift":
            _check_lift(out, problems)
        else:
            problems.append(f"no check for {name}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"{name}: unreadable output ({type(exc).__name__}: {exc})")
    return problems
