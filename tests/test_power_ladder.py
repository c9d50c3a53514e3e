"""Every caller of D^k against the loop it ran before the shared power ladder.

Each comparison is bit for bit, through int64 views of the float64 parts,
on sparse, dense and signed-zero inputs; inputs whose powers leave the
float range must raise ``CoefficientOverflow`` as the loops do.
"""

import numpy as np
import pytest

from hplus import _kernels
from hplus.errors import CoefficientOverflow, InexactPower
from hplus.series import (
    DirichletSeries,
    _weighted_l2_roots,
    multiply,
    power,
    seminorm_even,
    with_truncation,
)
from hplus.superposition import (
    EntireCoeffs,
    TailDiagnostic,
    composition_criterion,
    power_norm_chain_check,
    superpose_entire,
    superpose_poly,
)

from oracles import (
    composition_criterion_loop,
    power_terms_loop,
    superpose_entire_loop,
    superpose_poly_loop,
)


def _bits(x):
    return np.ascontiguousarray(np.asarray(x, dtype=np.complex128)).view(np.int64)


def _same_bits(x, y):
    x, y = _bits(x), _bits(y)
    return x.shape == y.shape and np.array_equal(x, y)


def _inputs():
    rng = np.random.default_rng(16)
    sparse = np.zeros(400, dtype=np.complex128)
    at = rng.choice(40, size=6, replace=False)
    sparse[at] = rng.normal(size=6) + 1j * rng.normal(size=6)
    dense = (rng.normal(size=120) + 1j * rng.normal(size=120)) / np.arange(1, 121)
    signed = dense.copy()
    signed.real[::3] = -0.0
    signed.imag[1::4] = -0.0
    signed[[4, 9]] = complex(-0.0, -0.0)
    signed_sparse = sparse.copy()
    signed_sparse.real[at[:3]] = -0.0
    return {
        "sparse": DirichletSeries(sparse),
        "dense": DirichletSeries(dense),
        "signed": DirichletSeries(signed),
        "signed-sparse": DirichletSeries(signed_sparse),
        "one-term": DirichletSeries.monomial(3, complex(-0.0, 2.0), 90),
        "zero": DirichletSeries.zero(50),
    }


INPUTS = _inputs()
OVERFLOWING = {
    "sparse": DirichletSeries(np.array([1e200, 1e200, 0, 0], dtype=np.complex128)),
    "dense": DirichletSeries(np.full(30, 1e200, dtype=np.complex128)),
}


def test_signed_zero_inputs_hold_negative_zeros():
    # the cases below test something only if the inputs keep their -0.0 parts
    for name in ("signed", "signed-sparse", "one-term"):
        parts = INPUTS[name].coeffs.view(np.float64)
        assert np.any((parts == 0) & np.signbit(parts)), name


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_superpose_poly_matches_multiply_loop(name):
    d = INPUTS[name]
    for b in ([0, 1], [1, 0, 0.5 - 0.25j], [0.3, -1, 0, 2j, 0.125], [2.0], []):
        assert _same_bits(superpose_poly(d, b).coeffs, superpose_poly_loop(d, b).coeffs), b


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("ec", [EntireCoeffs.exp_neg_k_to_k(), EntireCoeffs.inverse_factorial()],
                         ids=["exp-kk", "inv-factorial"])
def test_superpose_entire_matches_multiply_loop(name, ec):
    d = INPUTS[name]
    for big_k, m_check in ((1, 1), (6, 1), (8, 2)):
        total, diags = superpose_entire(d, ec, big_k, m_check)
        want_total, want_diags = superpose_entire_loop(d, ec, big_k, m_check)
        assert _same_bits(total.coeffs, want_total.coeffs)
        assert [g.k_from for g in diags] == [w.k_from for w in want_diags]
        assert _same_bits([g.tail_seminorm for g in diags], [w.tail_seminorm for w in want_diags])
        assert [g.log_majorant for g in diags] == [w.log_majorant for w in want_diags]
        assert all(isinstance(g, TailDiagnostic) for g in diags)
    # a list of m: one ladder, each entry the bits of its single-m loop
    total, diags_per_m = superpose_entire(d, ec, 8, [2, 1, 2])
    assert len(diags_per_m) == 3
    for m, diags in zip([2, 1, 2], diags_per_m):
        want_total, want_diags = superpose_entire_loop(d, ec, 8, m)
        assert _same_bits(total.coeffs, want_total.coeffs)
        assert [g.k_from for g in diags] == [w.k_from for w in want_diags]
        assert _same_bits([g.tail_seminorm for g in diags], [w.tail_seminorm for w in want_diags])
        assert [g.log_majorant for g in diags] == [w.log_majorant for w in want_diags]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_composition_criterion_matches_multiply_loop(name):
    d = INPUTS[name]
    for m, k_max in ((1, 2), (3, 6)):
        rep = composition_criterion(d, m, k_max)
        norms, roots = composition_criterion_loop(d, m, k_max)
        assert _same_bits(rep.norms, norms) and _same_bits(rep.roots, roots)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_power_and_seminorm_even_match_the_power_loop(name):
    d = INPUTS[name]
    ks = [1, 2, 5]
    for out_truncation in (d.truncation, 3000):
        for k in range(2, 6):
            idx, vals = power_terms_loop(*_kernels.support(d.coeffs, out_truncation), k,
                                         out_truncation)
            want = vals if idx is None else _kernels.from_support(idx, vals, out_truncation)
            assert _same_bits(power(d, k, out_truncation).coeffs, want), (k, out_truncation)
            got = seminorm_even(d, k, ks, out_truncation)
            want_roots = _weighted_l2_roots(idx, vals, ks, k)
            assert _same_bits([v.value for v in got], want_roots), (k, out_truncation)
        assert power(d, 0, out_truncation) == DirichletSeries.monomial(1, 1.0, out_truncation)
        assert _same_bits(power(d, 1, out_truncation).coeffs,
                          with_truncation(d, out_truncation).coeffs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_every_caller_raises_on_overflow_as_its_loop(name):
    d = OVERFLOWING[name]
    ec = EntireCoeffs.inverse_factorial()
    for call, loop in (
        (lambda: superpose_poly(d, [0, 0, 1]), lambda: superpose_poly_loop(d, [0, 0, 1])),
        # the last power overflows though its coefficient is 0
        (lambda: superpose_poly(d, [1, 0, 0]), lambda: superpose_poly_loop(d, [1, 0, 0])),
        (lambda: superpose_entire(d, ec, 3, 1), lambda: superpose_entire_loop(d, ec, 3, 1)),
        (lambda: composition_criterion(d, 1, 3), lambda: composition_criterion_loop(d, 1, 3)),
        (lambda: power(d, 2, d.truncation),
         lambda: power_terms_loop(*_kernels.support(d.coeffs, d.truncation), 2, d.truncation)),
        (lambda: seminorm_even(d, 2, [1, 2], d.truncation),
         lambda: power_terms_loop(*_kernels.support(d.coeffs, d.truncation), 2, d.truncation)),
    ):
        with pytest.raises(CoefficientOverflow):
            loop()
        with pytest.raises(CoefficientOverflow):
            call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs", [[0, 1e200, 0, 0, 0], [0, 1e200, 1, 1, 1]],
                         ids=["sparse", "dense"])
def test_a_rung_past_the_float_range_raises_where_it_is_formed(coeffs):
    # 10^200 2^{-s} at truncation 5: its square holds 10^400 4^{-s}, its cube
    # lies past the truncation.  The multiply chain raises at the square, and
    # so does every power formed on the ladder, though the last rung is zero.
    d = DirichletSeries(np.array(coeffs, dtype=np.complex128))
    with pytest.raises(CoefficientOverflow):
        multiply(d, d)
    with pytest.raises(CoefficientOverflow):
        power(d, 3, 5)
    with pytest.raises(CoefficientOverflow):
        seminorm_even(d, 3, 1, 5)


def _random_poly(rng, support):
    return DirichletSeries(rng.normal(size=support) + 1j * rng.normal(size=support))


def test_chain_check_over_a_k_list_equals_the_single_k_calls():
    rng = np.random.default_rng(7)
    for _ in range(5):
        base = _random_poly(rng, 30)
        for m in (1, 2):
            checks = power_norm_chain_check(base, m, (2, 3, 4), 30**4)
            assert len(checks) == 3
            for k, chk in zip((2, 3, 4), checks):
                for single in (power_norm_chain_check(base, m, k, 30**k),
                               power_norm_chain_check(base, m, k, 30**4)):
                    assert chk == single, (m, k)
    assert power_norm_chain_check(base, 1, [], 30) == []
    assert power_norm_chain_check(base, 1, (3, 1), 30**3) == [
        power_norm_chain_check(base, 1, 3, 30**3), power_norm_chain_check(base, 1, 1, 30**3)
    ]


def test_chain_check_over_a_k_list_raises_as_the_single_k_calls():
    base = _random_poly(np.random.default_rng(8), 30)
    with pytest.raises(InexactPower) as single:
        power_norm_chain_check(base, 1, 4, 30**3)
    with pytest.raises(InexactPower) as listed:
        power_norm_chain_check(base, 1, (2, 3, 4), 30**3)
    assert str(listed.value) == str(single.value)
    with pytest.raises(ValueError, match="k >= 1"):
        power_norm_chain_check(base, 1, (2, 0), 30**4)
    with pytest.raises(CoefficientOverflow):
        power_norm_chain_check(OVERFLOWING["sparse"], 1, (1, 2), 4)
