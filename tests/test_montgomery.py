import random

import pytest

from sidhlab.montgomery import (
    DegenerateCoefficientError,
    ProjCoeff,
    SingularCurveError,
    XPoint,
    affine_a_from_projective,
    coeff_in_fp,
    j_invariant,
    ladder3pt,
    xdbl,
    xpoint_in_fp,
    xtpl,
    xtpl_e,
)

from helpers import (
    FullPoint,
    ReferenceCurve,
    on_curve,
    sample_point_of_order,
    xpoint,
    xpoint_eq,
    xpoint_infinity,
)


@pytest.fixture(scope="module")
def E(F431):
    return ReferenceCurve(F431(6), F431)


class TestDoublingTripling:
    def test_xdbl_of_order2_is_infinity(self, F431, E, rng):
        P = sample_point_of_order(E, 2, rng)
        assert xdbl(xpoint(E, P), E.coeff()).is_infinity()

    def test_xtpl_of_order3_is_infinity(self, F431, E, rng):
        P = sample_point_of_order(E, 3, rng)
        assert xtpl(xpoint(E, P), E.coeff()).is_infinity()

    def test_iterated_zero_is_identity(self, F431, E, rng):
        P = sample_point_of_order(E, 27, rng)
        xp = xpoint(E, P)
        assert xtpl_e(xp, E.coeff(), 0) == xp

    def test_order_annihilation(self, F431, E, rng):
        P = sample_point_of_order(E, 27, rng)
        xp = xpoint(E, P)
        almost = xtpl_e(xp, E.coeff(), 2)
        assert not almost.is_infinity()
        assert xtpl(almost, E.coeff()).is_infinity()

    def test_infinity_is_fixed(self, F431, E):
        inf = xpoint_infinity(F431)
        assert xdbl(inf, E.coeff()).is_infinity()
        assert xtpl(inf, E.coeff()).is_infinity()


class TestLadder:
    def test_k_zero_returns_p(self, toy, F431, E):
        xP, xQ, xD = toy.basis_xpoints("bob")
        assert ladder3pt(0, xP, xQ, xD, E.coeff()) == xP

    def test_negative_scalar_rejected(self, toy, E):
        xP, xQ, xD = toy.basis_xpoints("bob")
        with pytest.raises(ValueError):
            ladder3pt(-1, xP, xQ, xD, E.coeff())


class TestCoefficientForms:
    def test_affine_a_definitional(self, F431):
        assert affine_a_from_projective(ProjCoeff(F431(8), F431(4))) == F431(6)

    def test_projective_invariance(self, F431, rng):
        base = ProjCoeff(F431(8), F431(4))
        for _ in range(100):
            lam = F431.random_nonzero(rng)
            scaled = ProjCoeff(base.alpha * lam, base.beta * lam)
            assert affine_a_from_projective(scaled) == F431(6)

    def test_scaled_by_one_plus_i(self, F431):
        c = ProjCoeff(F431(2, 2), F431(1, 1))
        assert affine_a_from_projective(c) == F431(6)  # same as (2 : 1)

    def test_degenerate_raises(self, F431):
        with pytest.raises(DegenerateCoefficientError):
            affine_a_from_projective(ProjCoeff(F431(3), F431(3)))
        with pytest.raises(DegenerateCoefficientError):
            coeff_in_fp(ProjCoeff(F431(3), F431(3)))

    def test_coeff_in_fp_real_pair(self, F431):
        assert coeff_in_fp(ProjCoeff(F431(7), F431(3)))

    def test_coeff_in_fp_scaled_pair(self, F431):
        assert coeff_in_fp(ProjCoeff(F431(2, 4), F431(1, 2)))  # (2:1) times 1+2i


class TestXPointMembership:
    def test_examples(self, F431):
        assert xpoint_in_fp(XPoint(F431(5), F431.one))
        assert not xpoint_in_fp(XPoint(F431(0, 1), F431.one))
        assert xpoint_in_fp(xpoint_infinity(F431))

    def test_scaling_invariance(self, F431, rng):
        for _ in range(10000):
            x = F431(rng.randrange(431))
            lam = F431.random_nonzero(rng)
            assert xpoint_in_fp(XPoint(x * lam, lam))

    def test_degenerate_rejected(self, F431):
        with pytest.raises(ValueError):
            xpoint_in_fp(XPoint(F431.zero, F431.zero))


class TestJInvariant:
    def test_reference_value_toy(self, F431):
        assert j_invariant(F431(6), F431) == F431(287496 % 431)
        assert 287496 % 431 == 19

    def test_reference_value_p434(self, p434):
        F = p434.field
        assert j_invariant(F(6), F) == F(287496)

    def test_j_of_zero_coefficient(self, F431):
        assert j_invariant(F431.zero, F431) == F431(1728 % 431)

    def test_singular_rejected(self, F431):
        with pytest.raises(SingularCurveError):
            j_invariant(F431(2), F431)


class TestFullPoint:
    def test_add_negate_is_infinity(self, F431, E, rng):
        P = sample_point_of_order(E, 27, rng)
        assert E.add(P, E.negate(P)).infinity

    def test_group_order_annihilates(self, F431, E, rng):
        for _ in range(20):
            x = F431.random_element(rng)
            if not F431.is_square(E.rhs(x)):
                continue
            P = E.lift_x(x)
            assert E.scalar_mul(432, P).infinity  # p + 1

    def test_differential_relation(self, F431, E, rng):
        """x(P+Q) and x(P-Q) are the two roots of the Montgomery quadratic in
        x(P), x(Q) - the same identity the three-point ladder relies on."""
        F = F431
        checked = 0
        while checked < 60:
            x1, x2 = F.random_element(rng), F.random_element(rng)
            if x1 == x2 or not (F.is_square(E.rhs(x1)) and F.is_square(E.rhs(x2))):
                continue
            P, Q = E.lift_x(x1), E.lift_x(x2)
            S, D = E.add(P, Q), E.sub(P, Q)
            if S.infinity or D.infinity:
                continue
            d2 = (x1 - x2).sqr()
            prod = (x1 * x2 - F.one).sqr()
            s_num = (x1 + x2) * (x1 * x2 + F.one) + (E.A + E.A) * x1 * x2
            assert S.x * D.x * d2 == prod
            assert (S.x + D.x) * d2 == s_num + s_num
            assert E.chord_x((x1, P.y), (x2, Q.y)) == S.x
            assert E.chord_x((x1, P.y), (x2, -Q.y)) == D.x
            checked += 1

    def test_contains(self, F431, E, rng):
        P = sample_point_of_order(E, 16, rng)
        assert on_curve(E, P)
        assert not on_curve(E, FullPoint(P.x, P.y + F431.one))


class TestSampling:
    def test_exact_order_27(self, F431, E, rng):
        T = sample_point_of_order(E, 27, rng)
        assert not E.scalar_mul(9, T).infinity
        assert E.scalar_mul(27, T).infinity
        assert on_curve(E, T)

    def test_order_one_is_infinity(self, F431, E, rng):
        assert sample_point_of_order(E, 1, rng).infinity

    def test_bad_order_rejected(self, F431, E, rng):
        with pytest.raises(ValueError):
            sample_point_of_order(E, 5, rng)  # 5 is not a 2/3 power
        with pytest.raises(ValueError):
            sample_point_of_order(E, 64, rng)  # does not divide p + 1

    def test_deterministic_under_seed(self, F431, E):
        a = sample_point_of_order(E, 27, random.Random(5))
        b = sample_point_of_order(E, 27, random.Random(5))
        assert a.x == b.x and a.y == b.y


class TestXPointEquality:
    def test_projective_eq(self, F431, rng):
        x = F431(17, 5)
        lam = F431.random_nonzero(rng)
        assert xpoint_eq(XPoint(x, F431.one), XPoint(x * lam, lam))
        assert xpoint_eq(xpoint_infinity(F431), XPoint(F431(9), F431.zero))
