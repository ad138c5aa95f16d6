"""The int kernels against the x-only formulas on Fp2 objects, on toy431:
2000 random projective points and every corner the chain code meets
(infinity, (0 : 0), x = 0, points of order 2, 3 and 4, singular and
undefined coefficients).  Outputs must be exactly the reference's ints,
which pins xtpl's fixed points and exact_order_multiple_int's early returns.
"""

import random

import pytest

from sidhlab import SidhlabInputError
from sidhlab.isogeny import (
    xeval2_int,
    xeval3,
    xeval3_int,
    xeval4,
    xeval4_int,
    xisog2_int,
    xisog3,
    xisog3_int,
    xisog4,
    xisog4_int,
)
from sidhlab.montgomery import (
    ProjCoeff,
    XPoint,
    coeff_ints,
    exact_order_multiple_int,
    ladder3pt,
    point_ints,
    xadd,
    xadd_int,
    xdbl,
    xdbl_e_int,
    xdbl_int,
    xtpl,
    xtpl_e,
    xtpl_e_int,
    xtpl_int,
)

from helpers import (
    ref_exact_order_multiple,
    ref_ladder3pt,
    ref_xadd,
    ref_xdbl,
    ref_xdbl_e,
    ref_xeval2,
    ref_xeval3,
    ref_xeval4,
    ref_xisog2,
    ref_xisog2_zero,
    ref_xisog3,
    ref_xisog4,
    ref_xtpl,
    ref_xtpl_e,
    sample_point_of_order,
    start_curve,
    xpoint,
)


@pytest.fixture(scope="module")
def cases(toy):
    """(points, coefficients): 2000 random (X : Z) plus the corner points,
    and the start curve (scaled), random pairs and the singular ones."""
    F, E = toy.field, start_curve(toy)
    rng = random.Random(8)
    pts = [XPoint(F.random_element(rng), F.random_element(rng)) for _ in range(2000)]
    pts += [XPoint(F.one, F.zero), XPoint(F.zero, F.zero), XPoint(F.zero, F.one), XPoint(F(5, 7), F.zero)]
    pts += [XPoint(F.zero, F(3, 1))]
    for d in (2, 3, 4):
        for _ in range(20):
            pts.append(xpoint(E, sample_point_of_order(E, d, rng)))
    c0 = toy.coeff0
    coeffs = [c0, ProjCoeff(c0.alpha * F(3, 2), c0.beta * F(3, 2))]
    coeffs += [ProjCoeff(F.random_element(rng), F.random_element(rng)) for _ in range(6)]
    a = F(9, 4)
    coeffs += [ProjCoeff(F.zero, a), ProjCoeff(a, F.zero), ProjCoeff(a, a), ProjCoeff(F.zero, F.zero)]
    return pts, coeffs


def ints(P):
    return None if P is None else point_ints(P)


def test_xdbl_xtpl_and_their_loops(toy, cases):
    p = toy.field.p
    pts, coeffs = cases
    for C in coeffs:
        c = coeff_ints(C)
        for P in pts:
            t = point_ints(P)
            assert xdbl_int(t, c, p) == ints(ref_xdbl(P, C)) == ints(xdbl(P, C))
            assert xtpl_int(t, c, p) == ints(ref_xtpl(P, C)) == ints(xtpl(P, C))
        for P in pts[::40] + pts[2000:]:
            t = point_ints(P)
            for e in (0, 1, 2, 5):
                assert xdbl_e_int(t, c, e, p) == ints(ref_xdbl_e(P, C, e))
                assert xtpl_e_int(t, c, e, p) == ints(ref_xtpl_e(P, C, e)) == ints(xtpl_e(P, C, e))


def test_xtpl_fixed_points_come_back_unchanged(toy):
    F, p = toy.field, toy.field.p
    c = coeff_ints(toy.coeff0)
    for t in ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0), (5, 7, 0, 0)):
        assert xtpl_int(t, c, p) is t
    P = XPoint(F.zero, F.one)
    assert xtpl(P, toy.coeff0) == P


def test_xadd(toy, cases):
    p = toy.field.p
    pts, _ = cases
    rng = random.Random(9)
    for _ in range(2000):
        P, Q, D = (rng.choice(pts) for _ in range(3))
        want = ref_xadd(P, Q, D)
        assert xadd_int(point_ints(P), point_ints(Q), point_ints(D), p) == ints(want)
        assert ints(xadd(P, Q, D)) == ints(want)


def test_exact_order_multiple(toy, cases):
    p = toy.field.p
    pts, coeffs = cases
    hits = 0
    for C in coeffs:
        c = coeff_ints(C)
        for P in pts[::10] + pts[2000:]:
            t = point_ints(P)
            for ell, e in ((2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3)):
                want = ints(ref_exact_order_multiple(P, C, ell, e))
                assert exact_order_multiple_int(t, c, ell, e, p) == want
                hits += want is not None
    assert hits > 50  # the search finds points of every order it asks for


def test_ladder(toy, cases):
    pts, coeffs = cases
    rng = random.Random(10)
    for _ in range(300):
        P, Q, D = (rng.choice(pts) for _ in range(3))
        C = rng.choice(coeffs)
        k = rng.randrange(3**toy.e3 * 4)
        assert ints(ladder3pt(k, P, Q, D, C)) == ints(ref_ladder3pt(k, P, Q, D, C))


def test_isogeny_kernels(toy, cases):
    p = toy.field.p
    pts, _ = cases
    rng = random.Random(11)
    for K in pts[::4] + pts[2000:]:
        Q = rng.choice(pts)
        for isog_int, ev_int, isog, ev, ref_isog, ref_ev in (
            (xisog3_int, xeval3_int, xisog3, xeval3, ref_xisog3, ref_xeval3),
            (xisog4_int, xeval4_int, xisog4, xeval4, ref_xisog4, ref_xeval4),
        ):
            want_coeff, want_data = ref_isog(K)
            coeff, data = isog_int(point_ints(K), p)
            assert coeff == coeff_ints(want_coeff)
            assert ints(ev(Q, isog(K))) == ev_int(point_ints(Q), data, p) == ints(ref_ev(Q, want_data))
            assert coeff_ints(isog(K).new_coeff) == coeff


def test_two_isogeny_kernels(toy, cases):
    """xisog2_int and xeval2_int against the object formulas, on every
    curve of the cases: (0, 0) kernels need sqrt(A + 2), and the singular
    or undefined curves and non-square A + 2 raise the same way."""
    F, p = toy.field, toy.field.p
    pts, coeffs = cases
    rng = random.Random(12)
    zero_kernels = 0
    for C in coeffs:
        for K in pts[::20] + pts[2000:]:
            try:
                want_coeff, want_data = ref_xisog2_zero(C, F) if K.X.is_zero() else ref_xisog2(K)
            except SidhlabInputError as exc:
                with pytest.raises(type(exc)):
                    xisog2_int(point_ints(K), coeff_ints(C), F)
                continue
            coeff, data = xisog2_int(point_ints(K), coeff_ints(C), F)
            assert coeff == coeff_ints(want_coeff)
            zero_kernels += len(data) == 2
            for Q in [rng.choice(pts) for _ in range(4)] + pts[2000:2005]:
                assert xeval2_int(point_ints(Q), data, p) == ints(ref_xeval2(Q, want_data))
    assert zero_kernels > 0
