"""Exact 2-adic arithmetic, the ultrametric, and prefix-surgery dilatations."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dilatation_lab.core.scales import DYADIC_POWERS as DP
from dilatation_lab.affine import barycentric_defect
from dilatation_lab.errors import DomainViolation, PrecisionExhausted
from dilatation_lab.models import DyadicBoundaryModel
from dilatation_lab.models.dyadic import (
    DyadicPoint, identity_isometries, w_dilatation, w_smoothness_defect, xor_mask_isometries)

TWO = DP.scale(1)  # the group element 2, nu = 1/2

words = st.integers(min_value=0, max_value=2 ** 64 - 1)


def test_distance_is_prefix_based(dyadic):
    assert dyadic.distance(dyadic.point(0b0), dyadic.point(0b1)) == 1.0
    assert dyadic.distance(dyadic.point(0b01), dyadic.point(0b11)) == 0.5
    assert dyadic.distance(dyadic.point(5), dyadic.point(5)) == 0.0


def test_a_dyadic_point_is_an_immutable_value():
    p = DyadicPoint(-3, 4)
    assert repr(p) == "DyadicPoint(residue=13, known=4)"
    assert p == DyadicPoint(13, 4) and p != DyadicPoint(13, 5) and p != (13, 4)
    assert hash(p) == hash(DyadicPoint(29, 4)) == hash((13, 4))
    assert copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p
    for change in (lambda: setattr(p, "residue", 1), lambda: delattr(p, "known"),
                   lambda: setattr(p, "other", 1)):
        with pytest.raises(AttributeError):
            change()
    assert (p.residue, p.known) == (13, 4)
    with pytest.raises(PrecisionExhausted, match="no known digits"):
        DyadicPoint(1, 0)


def test_trivial_dilatation_worked_example(dyadic):
    got = dyadic.dilate(dyadic.point(1), TWO, dyadic.point(3))
    assert got.residue == 5
    assert dyadic.distance(dyadic.point(1), got) == 0.25
    assert dyadic.distance(dyadic.point(1), dyadic.point(3)) == 0.5


@given(words, words, words)
def test_ultrametric_inequality_exact(x, y, z):
    model = DyadicBoundaryModel(64)
    a, b, c = model.point(x), model.point(y), model.point(z)
    assert model.distance(a, c) <= max(model.distance(a, b), model.distance(b, c))


@given(words, words, st.integers(min_value=1, max_value=6))
def test_contraction_scales_distance_exactly(x, y, p):
    model = DyadicBoundaryModel(64)
    a, b = model.point(x), model.point(y)
    eps = DP.scale(p)
    moved = model.dilate(a, eps, b)
    d0 = model.distance(a, b)
    want = eps.nu * d0
    if want < 2.0 ** -63:
        want = 0.0  # contracted below the last kept digit
    assert model.distance(a, moved) == want


def test_a1_identities_exact(dyadic):
    x, y = dyadic.point(0b100110), dyadic.point(0b011010)
    e2, e3 = DP.scale(2), DP.scale(3)
    composed = dyadic.dilate(x, e2, dyadic.dilate(x, e3, y))
    direct = dyadic.dilate(x, e2 * e3, y)
    assert dyadic.distance(composed, direct) == 0.0
    assert dyadic.distance(dyadic.dilate(x, DP.one, y), y) == 0.0
    assert dyadic.distance(dyadic.dilate(x, e2, x), x) == 0.0


def test_expansion_needs_valuation(dyadic):
    x = dyadic.point(0)
    y = dyadic.point(0b100)  # valuation 2
    half = TWO.inverse()  # multiply by 2^-1
    out = dyadic.dilate(x, half, y)
    assert out.residue == 0b10
    with pytest.raises(DomainViolation):
        dyadic.dilate(x, DP.scale(-3), y)  # needs valuation >= 3


def test_expansion_tracks_known_digits(dyadic):
    x, y = dyadic.point(0), dyadic.point(1 << 40)
    out = dyadic.dilate(x, DP.scale(-40), y)
    assert out.residue == 1 and out.known == 24
    # an odd word cannot be divided further
    with pytest.raises(DomainViolation):
        dyadic.dilate(x, DP.scale(-24), out)


def test_indistinguishable_points_report_precision_bound(dyadic):
    x, y = dyadic.point(0), dyadic.point(1 << 40)
    reduced = dyadic.dilate(x, DP.scale(-10), y)  # knows 54 digits
    same_prefix = dyadic.point(reduced.residue)
    assert dyadic.distance(reduced, same_prefix) == 2.0 ** -54


def test_ambiguous_valuation_raises(dyadic):
    x = dyadic.point(0)
    fuzzy = dyadic.dilate(x, DP.scale(-10), dyadic.point(1 << 40))  # 54 known
    zeroish = dyadic.dilate(fuzzy, DP.scale(1), x)  # fine: contraction
    with pytest.raises(PrecisionExhausted):
        # difference vanishes on all known digits: valuation uncertifiable
        dyadic.dilate(dyadic.point(fuzzy.residue), DP.scale(-1), fuzzy)
    assert zeroish.known <= 54


def test_linearity_identity_exact(dyadic):
    x, y, z = dyadic.point(9), dyadic.point(133), dyadic.point(77)
    e, m = DP.scale(1), DP.scale(2)
    lhs = dyadic.dilate(x, e, dyadic.dilate(y, m, z))
    rhs = dyadic.dilate(dyadic.dilate(x, e, y), m, dyadic.dilate(x, e, z))
    assert dyadic.distance(lhs, rhs) == 0.0


def test_barycentric_identity_exact_in_ring_arithmetic(dyadic):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = dyadic.point(int(rng.integers(0, 1 << 62)))
        y = dyadic.point(int(rng.integers(0, 1 << 62)))
        left, right = dyadic.barycentric_pair(x, y, DP.scale(2))
        assert dyadic.distance(left, right) == 0.0


def test_barycentric_defect_vanishes_on_the_commutative_dyadic_group(dyadic):
    # barycentric_defect takes the model's ring arithmetic, barycentric_pair
    rng = np.random.default_rng(4)
    for p in (1, 2, 5):
        x, y = (dyadic.point(int(rng.integers(0, 1 << 62))) for _ in range(2))
        assert barycentric_defect(dyadic, x, y, DP.scale(p)) == 0.0
    with pytest.raises(DomainViolation):
        barycentric_defect(dyadic, x, y, DP.scale(0))


# --- prefix-surgery dilatations ------------------------------------------------

def test_w_dilatation_fixes_base(dyadic):
    x = dyadic.point(0b1011)
    assert w_dilatation(dyadic, identity_isometries, x, x) is x


def test_w_dilatation_identity_family_formula(dyadic):
    # empty common prefix, base letter 0: output = [0][flipped x_1][tail of y]
    x = dyadic.point(0b0110)  # alpha = 0, next letter 1
    y = dyadic.point(0b1101)
    out = w_dilatation(dyadic, identity_isometries, x, y)
    assert out.residue & 1 == 0
    assert (out.residue >> 1) & 1 == 0  # complement of the base's second letter
    assert out.residue >> 2 == (0b1101 >> 1) & ((1 << 62) - 1)


def test_w_dilatation_halves_distance_to_base(dyadic):
    rng = np.random.default_rng(5)
    for family in (identity_isometries, xor_mask_isometries(0xDEADBEEF)):
        for _ in range(50):
            x = dyadic.point(int(rng.integers(0, 1 << 62)))
            y = dyadic.point(int(rng.integers(0, 1 << 62)))
            if dyadic.coincide(x, y):
                continue
            out = w_dilatation(dyadic, family, x, y)
            assert dyadic.distance(x, out) == 0.5 * dyadic.distance(x, y)


def test_w_dilatation_needs_digits(dyadic):
    # base and argument differing only in the last kept digit: the surgery
    # would write at position K+1
    x = dyadic.point(0)
    y = dyadic.point(1 << 63)
    with pytest.raises(PrecisionExhausted):
        w_dilatation(dyadic, identity_isometries, x, y)


def test_w_smoothness_identity_family_is_flat(dyadic):
    x, xp = dyadic.point(0b0110), dyadic.point(0b0111000)
    for k in (1, 2, 5):
        assert w_smoothness_defect(dyadic, identity_isometries, k, x, xp, 0b1011) == 0.0
    # xor masks do not depend on the base point either
    fam = xor_mask_isometries(0x1234)
    assert w_smoothness_defect(dyadic, fam, 3, x, xp, 0b1011) == 0.0


def test_menelaos_exact_on_dyadic(dyadic):
    from dilatation_lab.affine import menelaos_iterate
    res = menelaos_iterate(dyadic, dyadic.point(1), DP.scale(1),
                           dyadic.point(3), DP.scale(1), tol=0.0)
    assert res.residual == 0.0
    # the composite really is the dilatation of coefficient 4 based at w
    e4 = DP.scale(2)
    for t in (0, 7, 101):
        p = dyadic.point(t)
        lhs = dyadic.dilate(dyadic.point(1), DP.scale(1),
                            dyadic.dilate(dyadic.point(3), DP.scale(1), p))
        rhs = dyadic.dilate(res.w, e4, p)
        assert dyadic.distance(lhs, rhs) == 0.0
