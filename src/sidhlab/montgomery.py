"""Montgomery-curve arithmetic: x-only projective kernels, the projective
curve-coefficient representation the fault model targets, the
GF(p)-membership predicates, and the one affine step that parameter
generation and forging need: a chord.

Curves are B*y^2 = x^3 + A*x^2 + x with B fixed to 1 throughout; x-only
formulas never involve B, so the twist is handled transparently.

The curve coefficient is stored projectively as (alpha : beta) =
(A + 2C : A - 2C).  This is the tripling- and 3-isogeny-native form and the
target of the simulated fault (zeroing both imaginary parts).  The
doubling-friendly (A + 2C : 4C) pair is derived on demand as
(alpha, alpha - beta).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .field import Fp2, Fp2Field, SidhlabInputError


class DegenerateCoefficientError(SidhlabInputError):
    """alpha = beta: the affine coefficient A is undefined (singular curve)."""


class SingularCurveError(SidhlabInputError):
    """A^2 = 4: the curve is singular."""


class SamplingExhaustedError(SidhlabInputError):
    """Bounded rejection sampling ran out of tries; parameters look corrupt."""


class ProjCoeff(NamedTuple):
    """Projective curve coefficient (alpha : beta) = (A + 2C : A - 2C)."""

    alpha: Fp2
    beta: Fp2


class XPoint(NamedTuple):
    """Projective x-only point (X : Z); infinity is Z = 0 with X != 0.
    Equality compares the components exactly, not projectively.

    (0, 0) is not a valid point; it can appear transiently inside degenerate
    post-fault chains and is deliberately NOT treated as infinity.
    """

    X: Fp2
    Z: Fp2

    def is_infinity(self) -> bool:
        return self.Z.is_zero() and not self.X.is_zero()

    def is_degenerate(self) -> bool:
        return self.Z.is_zero() and self.X.is_zero()


def coeff_from_a(A: Fp2, field: Fp2Field) -> ProjCoeff:
    """(A + 2 : A - 2), i.e. the C = 1 representative."""
    two = field(2)
    return ProjCoeff(A + two, A - two)


def affine_a_from_projective(coeff: ProjCoeff) -> Fp2:
    """A = 2(alpha + beta) / (alpha - beta)."""
    d = coeff.alpha - coeff.beta
    if d.is_zero():
        raise DegenerateCoefficientError("alpha = beta")
    s = coeff.alpha + coeff.beta
    return (s + s) * d.inv()


def _ratio_in_fp(u: Fp2, v: Fp2) -> bool:
    """True iff u/v lies in GF(p), for (u : v) != (0 : 0): with u = a + ib
    and v = c + id, that is a*d - b*c = 0."""
    return (u.re * v.im - u.im * v.re) % u.p == 0


def coeff_in_fp(coeff: ProjCoeff) -> bool:
    """True iff the affine A lies in GF(p), that is alpha/beta does."""
    if (coeff.alpha - coeff.beta).is_zero():
        raise DegenerateCoefficientError("alpha = beta")
    return _ratio_in_fp(coeff.alpha, coeff.beta)


def xpoint_in_fp(P: XPoint) -> bool:
    """True iff the affine x-coordinate X/Z lies in GF(p).  Infinity counts
    as in GF(p)."""
    if P.is_degenerate():
        raise ValueError("(0 : 0) is not a point")
    return _ratio_in_fp(P.X, P.Z)


def zero_imaginary_parts(coeff: ProjCoeff) -> ProjCoeff:
    """The injected fault: (a + ib : c + id) -> (a : c).

    When both real parts are zero the pair is an i-multiple of a GF(p) pair
    (so the curve is a GF(p) curve already); rotate by the unit i first so
    the zeroing still lands on a nonzero representative of the same curve.
    At cryptographic sizes that branch has probability ~1/p per injection;
    tiny toy fields do hit it.
    """
    p = coeff.alpha.p
    a, c = coeff.alpha.re, coeff.beta.re
    if a == 0 and c == 0:
        a, c = coeff.alpha.im, coeff.beta.im
    return ProjCoeff(Fp2(a, 0, p), Fp2(c, 0, p))


def j_invariant(A: Fp2, field: Fp2Field) -> Fp2:
    """j = 256 (A^2 - 3)^3 / (A^2 - 4); equals 287496 at A = 6."""
    A2 = A.sqr()
    den = A2 - field(4)
    if den.is_zero():
        raise SingularCurveError("A^2 = 4")
    num = A2 - field(3)
    return field(256) * num.sqr() * num * den.inv()


# --------------------------------------------------------------------------
# x-only projective arithmetic.  All formulas are total: no divisions, no
# checks on operand validity; garbage propagates (post-fault chains rely on
# the order tests downstream, never on exceptions here).
#
# Each formula is one kernel on int 4-tuples of canonical residues: a point
# (X : Z) is (X.re, X.im, Z.re, Z.im), a coefficient (alpha : beta) is
# (alpha.re, alpha.im, beta.re, beta.im), and p comes last.  Products are
# Karatsuba over GF(p).  Only xDBL and xADD are unrolled: xTPL and the
# 3-isogeny push (isogeny.xeval3_int) are built from them.  The object-level
# names convert at the edges and run the same kernels, so chains stay on ints.
# --------------------------------------------------------------------------


def point_ints(P: XPoint) -> tuple:
    return P.X.re, P.X.im, P.Z.re, P.Z.im


def xpoint_from_ints(t: tuple, p: int) -> XPoint:
    return XPoint(Fp2._raw(t[0], t[1], p), Fp2._raw(t[2], t[3], p))


def coeff_ints(coeff: ProjCoeff) -> tuple:
    return coeff.alpha.re, coeff.alpha.im, coeff.beta.re, coeff.beta.im


def coeff_from_ints(t: tuple, p: int) -> ProjCoeff:
    return ProjCoeff(Fp2._raw(t[0], t[1], p), Fp2._raw(t[2], t[3], p))


def xdbl_int(P: tuple, C: tuple, p: int) -> tuple:
    """x([2]P) using (A + 2C : 4C) = (alpha, alpha - beta):

        t0 = (X - Z)^2,  t1 = (X + Z)^2,  t2 = t1 - t0 (= 4XZ)
        X2 = 4C * t0 * t1,  Z2 = t2 * (4C * t0 + (A + 2C) * t2)
    """
    Xr, Xi, Zr, Zi = P
    ar, ai, br, bi = C
    cr = ar - br
    ci = ai - bi
    dr = Xr - Zr
    di = Xi - Zi
    sr = Xr + Zr
    si = Xi + Zi
    t0r = ((dr + di) * (dr - di)) % p
    t0i = (2 * dr * di) % p
    t1r = ((sr + si) * (sr - si)) % p
    t1i = (2 * sr * si) % p
    t2r = t1r - t0r
    t2i = t1i - t0i
    m0 = cr * t0r
    m1 = ci * t0i
    m2 = (cr + ci) * (t0r + t0i)
    c0r = m0 - m1
    c0i = m2 - m0 - m1
    m0 = c0r * t1r
    m1 = c0i * t1i
    m2 = (c0r + c0i) * (t1r + t1i)
    X2r = (m0 - m1) % p
    X2i = (m2 - m0 - m1) % p
    m0 = ar * t2r
    m1 = ai * t2i
    m2 = (ar + ai) * (t2r + t2i)
    ur = c0r + m0 - m1
    ui = c0i + m2 - m0 - m1
    m0 = t2r * ur
    m1 = t2i * ui
    m2 = (t2r + t2i) * (ur + ui)
    return X2r, X2i, (m0 - m1) % p, (m2 - m0 - m1) % p


def xadd_int(P: tuple, Q: tuple, D: tuple, p: int) -> tuple:
    """Differential addition: x(P + Q) from x(P), x(Q), D = x(P - Q):

        u = (X_P - Z_P)(X_Q + Z_Q),  v = (X_P + Z_P)(X_Q - Z_Q)
        X+ = Z_D * (u + v)^2,        Z+ = X_D * (u - v)^2

    x-only symmetry: the same call with D = x(P + Q) returns x(P - Q).
    """
    PXr, PXi, PZr, PZi = P
    QXr, QXi, QZr, QZi = Q
    DXr, DXi, DZr, DZi = D
    d1r = PXr - PZr
    d1i = PXi - PZi
    s0r = QXr + QZr
    s0i = QXi + QZi
    m0 = d1r * s0r
    m1 = d1i * s0i
    m2 = (d1r + d1i) * (s0r + s0i)
    ur = m0 - m1
    ui = m2 - m0 - m1
    s1r = PXr + PZr
    s1i = PXi + PZi
    d0r = QXr - QZr
    d0i = QXi - QZi
    m0 = s1r * d0r
    m1 = s1i * d0i
    m2 = (s1r + s1i) * (d0r + d0i)
    vr = m0 - m1
    vi = m2 - m0 - m1
    ar = (ur + vr) % p
    ai = (ui + vi) % p
    br = (ur - vr) % p
    bi = (ui - vi) % p
    a2r = ((ar + ai) * (ar - ai)) % p
    a2i = (2 * ar * ai) % p
    b2r = ((br + bi) * (br - bi)) % p
    b2i = (2 * br * bi) % p
    m0 = DZr * a2r
    m1 = DZi * a2i
    m2 = (DZr + DZi) * (a2r + a2i)
    Xr = (m0 - m1) % p
    Xi = (m2 - m0 - m1) % p
    m0 = DXr * b2r
    m1 = DXi * b2i
    m2 = (DXr + DXi) * (b2r + b2i)
    return Xr, Xi, (m0 - m1) % p, (m2 - m0 - m1) % p


def xtpl_int(P: tuple, C: tuple, p: int) -> tuple:
    """x([3]P) as xadd(xdbl(P), P, diff=P).

    Two self-difference corner cases are fixed points of [3] and returned
    as-is, where the composition would otherwise produce the degenerate
    (0, 0): infinity, and the x = 0 order-2 point.  The degenerate input
    itself propagates unchanged.
    """
    if not (P[2] or P[3]) or not (P[0] or P[1]):
        return P  # infinity and the x = 0 point are [3]-fixed; (0,0) propagates
    return xadd_int(xdbl_int(P, C, p), P, P, p)


def xdbl_e_int(P: tuple, C: tuple, e: int, p: int) -> tuple:
    for _ in range(e):
        P = xdbl_int(P, C, p)
    return P


def xtpl_e_int(P: tuple, C: tuple, e: int, p: int) -> tuple:
    for _ in range(e):
        P = xtpl_int(P, C, p)
    return P


def exact_order_multiple_int(P: tuple, C: tuple, ell: int, e: int, p: int) -> Optional[tuple]:
    """[ell^(e-1)]P when x(P) has exact order ell^e (ell = 2 or 3), else None."""
    if not (P[2] or P[3]):
        return None  # infinity or the degenerate (0, 0)
    mul_e, mul = (xdbl_e_int, xdbl_int) if ell == 2 else (xtpl_e_int, xtpl_int)
    below = mul_e(P, C, e - 1, p)
    if not (below[2] or below[3]):
        return None
    Xr, Xi, Zr, Zi = mul(below, C, p)
    if Zr or Zi or not (Xr or Xi):
        return None  # [ell]below is not infinity
    return below


def xdbl(P: XPoint, coeff: ProjCoeff) -> XPoint:
    p = P.X.p
    return xpoint_from_ints(xdbl_int(point_ints(P), coeff_ints(coeff), p), p)


def xadd(P: XPoint, Q: XPoint, diff: XPoint) -> XPoint:
    p = P.X.p
    return xpoint_from_ints(xadd_int(point_ints(P), point_ints(Q), point_ints(diff), p), p)


def xtpl(P: XPoint, coeff: ProjCoeff) -> XPoint:
    p = P.X.p
    return xpoint_from_ints(xtpl_int(point_ints(P), coeff_ints(coeff), p), p)


def xtpl_e(P: XPoint, coeff: ProjCoeff, e: int) -> XPoint:
    p = P.X.p
    return xpoint_from_ints(xtpl_e_int(point_ints(P), coeff_ints(coeff), e, p), p)


def ladder3pt(k: int, xP: XPoint, xQ: XPoint, xPQ: XPoint, coeff: ProjCoeff) -> XPoint:
    """x(P + [k]Q) from x(P), x(Q), x(P - Q); LSB-first three-point ladder."""
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    p = xP.X.p
    C = coeff_ints(coeff)
    R0, R1, R2 = point_ints(xQ), point_ints(xP), point_ints(xPQ)  # R2 = R1 - R0 throughout
    while k:
        if k & 1:
            R1 = xadd_int(R1, R0, R2, p)
        else:
            R2 = xadd_int(R2, R0, R1, p)  # diff slot holds x(R2 + R0) = x(R1)
        R0 = xdbl_int(R0, C, p)
        k >>= 1
    return xpoint_from_ints(R1, p)


def xpoint_from_affine(x: Fp2, field: Fp2Field) -> XPoint:
    return XPoint(x, field.one)


def x_affine(P: XPoint) -> Fp2:
    """X/Z; at infinity Z.inv() raises ZeroDivisionError."""
    return P.X * P.Z.inv()


class MontgomeryCurve:
    """y^2 = x^3 + A x^2 + x over GF(p^2); affine points are (x, y) pairs."""

    def __init__(self, A: Fp2, field: Fp2Field):
        if (A.sqr() - field(4)).is_zero():
            raise SingularCurveError("A^2 = 4")
        self.A = A
        self.field = field

    def coeff(self) -> ProjCoeff:
        return coeff_from_a(self.A, self.field)

    def rhs(self, x: Fp2) -> Fp2:
        return x * x.sqr() + self.A * x.sqr() + x

    def chord_x(self, P: tuple[Fp2, Fp2], Q: tuple[Fp2, Fp2]) -> Fp2:
        """x(P + Q) for affine P = (x_P, y_P) and Q = (x_Q, y_Q) with
        x_P != x_Q; Q = (x_Q, -y_Q) gives x(P - Q)."""
        (xP, yP), (xQ, yQ) = P, Q
        lam = (yQ - yP) * (xQ - xP).inv()
        return lam.sqr() - self.A - xP - xQ
