"""Montgomery-curve arithmetic: x-only projective kernels, the projective
curve-coefficient representation the fault model targets, full affine points
for attacker-side bookkeeping and test oracles, and the GF(p)-membership
predicates.

Curves are B*y^2 = x^3 + A*x^2 + x with B fixed to 1 throughout; x-only
formulas never involve B, so the twist is handled transparently.

The curve coefficient is stored projectively as (alpha : beta) =
(A + 2C : A - 2C).  This is the tripling- and 3-isogeny-native form and the
target of the simulated fault (zeroing both imaginary parts).  The
doubling-friendly (A + 2C : 4C) pair is derived on demand as
(alpha, alpha - beta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .field import Fp2, Fp2Field, SidhlabInputError


class DegenerateCoefficientError(SidhlabInputError):
    """alpha = beta: the affine coefficient A is undefined (singular curve)."""


class SingularCurveError(SidhlabInputError):
    """A^2 = 4: the curve is singular."""


class SamplingExhaustedError(SidhlabInputError):
    """Bounded rejection sampling ran out of tries; parameters look corrupt."""


class ProjCoeff:
    """Projective curve coefficient (alpha : beta) = (A + 2C : A - 2C)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Fp2, beta: Fp2):
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other):
        if not isinstance(other, ProjCoeff):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __repr__(self):
        return f"ProjCoeff({self.alpha!r}, {self.beta!r})"


class XPoint:
    """Projective x-only point (X : Z); infinity is Z = 0 with X != 0.

    (0, 0) is not a valid point; it can appear transiently inside degenerate
    post-fault chains and is deliberately NOT treated as infinity.
    Plain slots class (built in every ladder step) - treat as immutable.
    """

    __slots__ = ("X", "Z")

    def __init__(self, X: Fp2, Z: Fp2):
        self.X = X
        self.Z = Z

    def is_infinity(self) -> bool:
        return self.Z.is_zero() and not self.X.is_zero()

    def is_degenerate(self) -> bool:
        return self.Z.is_zero() and self.X.is_zero()

    def __eq__(self, other):  # exact component equality; use xpoint_eq for projective
        if not isinstance(other, XPoint):
            return NotImplemented
        return self.X == other.X and self.Z == other.Z

    def __repr__(self):
        return f"XPoint({self.X!r}, {self.Z!r})"


@dataclass(frozen=True, slots=True)
class FullPoint:
    """Affine point (x, y) or infinity; attacker-side and oracle use only."""

    x: Optional[Fp2]
    y: Optional[Fp2]
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "FullPoint":
        return cls(x=None, y=None, infinity=True)


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


def coeff_in_fp(coeff: ProjCoeff) -> bool:
    """True iff the affine A lies in GF(p): with alpha = a + ib and
    beta = c + id, that is a*d - b*c = 0."""
    if (coeff.alpha - coeff.beta).is_zero():
        raise DegenerateCoefficientError("alpha = beta")
    a, b = coeff.alpha.re, coeff.alpha.im
    c, d = coeff.beta.re, coeff.beta.im
    return (a * d - b * c) % coeff.alpha.p == 0


def xpoint_in_fp(P: XPoint) -> bool:
    """True iff the affine x-coordinate lies in GF(p): x0*z1 = z0*x1 for
    (X : Z) = (x0 + i*x1 : z0 + i*z1).  Infinity counts as in GF(p)."""
    if P.is_degenerate():
        raise ValueError("(0 : 0) is not a point")
    x0, x1 = P.X.re, P.X.im
    z0, z1 = P.Z.re, P.Z.im
    return (x0 * z1 - z0 * x1) % P.X.p == 0


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
# --------------------------------------------------------------------------


def xdbl(P: XPoint, coeff: ProjCoeff) -> XPoint:
    """x([2]P) using (A + 2C : 4C) = (alpha, alpha - beta):

        t0 = (X - Z)^2,  t1 = (X + Z)^2,  t2 = t1 - t0 (= 4XZ)
        X2 = 4C * t0 * t1,  Z2 = t2 * (4C * t0 + (A + 2C) * t2)

    Inlined at base-field level (Karatsuba, one reduction per product):
    this and xadd carry the whole simulator's load.
    """
    p = P.X.p
    Xr, Xi = P.X.re, P.X.im
    Zr, Zi = P.Z.re, P.Z.im
    ar, ai = coeff.alpha.re, coeff.alpha.im
    cr = ar - coeff.beta.re
    ci = ai - coeff.beta.im
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
    X2 = Fp2._raw((m0 - m1) % p, (m2 - m0 - m1) % p, p)
    m0 = ar * t2r
    m1 = ai * t2i
    m2 = (ar + ai) * (t2r + t2i)
    ur = c0r + m0 - m1
    ui = c0i + m2 - m0 - m1
    m0 = t2r * ur
    m1 = t2i * ui
    m2 = (t2r + t2i) * (ur + ui)
    Z2 = Fp2._raw((m0 - m1) % p, (m2 - m0 - m1) % p, p)
    return XPoint(X2, Z2)


def xadd(P: XPoint, Q: XPoint, diff: XPoint) -> XPoint:
    """Differential addition: x(P + Q) from x(P), x(Q), diff = x(P - Q):

        u = (X_P - Z_P)(X_Q + Z_Q),  v = (X_P + Z_P)(X_Q - Z_Q)
        X+ = Z_diff * (u + v)^2,     Z+ = X_diff * (u - v)^2

    x-only symmetry: the same call with diff = x(P + Q) returns x(P - Q).
    Inlined at base-field level like xdbl.
    """
    p = P.X.p
    d1r = P.X.re - P.Z.re
    d1i = P.X.im - P.Z.im
    s0r = Q.X.re + Q.Z.re
    s0i = Q.X.im + Q.Z.im
    m0 = d1r * s0r
    m1 = d1i * s0i
    m2 = (d1r + d1i) * (s0r + s0i)
    ur = m0 - m1
    ui = m2 - m0 - m1
    s1r = P.X.re + P.Z.re
    s1i = P.X.im + P.Z.im
    d0r = Q.X.re - Q.Z.re
    d0i = Q.X.im - Q.Z.im
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
    m0 = diff.Z.re * a2r
    m1 = diff.Z.im * a2i
    m2 = (diff.Z.re + diff.Z.im) * (a2r + a2i)
    Xo = Fp2._raw((m0 - m1) % p, (m2 - m0 - m1) % p, p)
    m0 = diff.X.re * b2r
    m1 = diff.X.im * b2i
    m2 = (diff.X.re + diff.X.im) * (b2r + b2i)
    Zo = Fp2._raw((m0 - m1) % p, (m2 - m0 - m1) % p, p)
    return XPoint(Xo, Zo)


def xtpl(P: XPoint, coeff: ProjCoeff) -> XPoint:
    """x([3]P) as xadd(xdbl(P), P, diff=P).

    Two self-difference corner cases are fixed points of [3] and returned
    as-is, where the composition would otherwise produce the degenerate
    (0, 0): infinity, and the x = 0 order-2 point.  The degenerate input
    itself propagates unchanged.
    """
    if P.Z.is_zero() or P.X.is_zero():
        return P  # infinity and the x = 0 point are [3]-fixed; (0,0) propagates
    return xadd(xdbl(P, coeff), P, P)


def xdbl_e(P: XPoint, coeff: ProjCoeff, e: int) -> XPoint:
    for _ in range(e):
        P = xdbl(P, coeff)
    return P


def xtpl_e(P: XPoint, coeff: ProjCoeff, e: int) -> XPoint:
    for _ in range(e):
        P = xtpl(P, coeff)
    return P


def exact_order_multiple(P: XPoint, coeff: ProjCoeff, ell: int, e: int) -> Optional[XPoint]:
    """[ell^(e-1)]P when x(P) has exact order ell^e (ell = 2 or 3), else None."""
    if P.Z.is_zero():
        return None  # infinity or the degenerate (0, 0)
    mul_e, mul = (xdbl_e, xdbl) if ell == 2 else (xtpl_e, xtpl)
    below = mul_e(P, coeff, e - 1)
    if below.Z.is_zero() or not mul(below, coeff).is_infinity():
        return None
    return below


def ladder3pt(k: int, xP: XPoint, xQ: XPoint, xPQ: XPoint, coeff: ProjCoeff) -> XPoint:
    """x(P + [k]Q) from x(P), x(Q), x(P - Q); LSB-first three-point ladder."""
    if k < 0:
        raise ValueError("scalar must be nonnegative")
    R0, R1, R2 = xQ, xP, xPQ  # R2 = R1 - R0 throughout
    while k:
        if k & 1:
            R1 = xadd(R1, R0, R2)
        else:
            R2 = xadd(R2, R0, R1)  # diff slot holds x(R2 + R0) = x(R1)
        R0 = xdbl(R0, coeff)
        k >>= 1
    return R1


def xpoint_from_affine(x: Fp2, field: Fp2Field) -> XPoint:
    return XPoint(x, field.one)


def xpoint_infinity(field: Fp2Field) -> XPoint:
    return XPoint(field.one, field.zero)


def x_affine(P: XPoint) -> Fp2:
    if P.Z.is_zero():
        raise ZeroDivisionError("point at infinity has no affine x")
    return P.X * P.Z.inv()


def xpoint_eq(P: XPoint, Q: XPoint) -> bool:
    """Projective equality X_P * Z_Q = X_Q * Z_P (infinity-aware)."""
    return (P.X * Q.Z) == (Q.X * P.Z)


# --------------------------------------------------------------------------
# Full-point affine arithmetic (the independent oracle and attacker toolbox).
# --------------------------------------------------------------------------


class MontgomeryCurve:
    """y^2 = x^3 + A x^2 + x over GF(p^2) with the affine group law."""

    def __init__(self, A: Fp2, field: Fp2Field):
        if (A.sqr() - field(4)).is_zero():
            raise SingularCurveError("A^2 = 4")
        self.A = A
        self.field = field

    def coeff(self) -> ProjCoeff:
        return coeff_from_a(self.A, self.field)

    def rhs(self, x: Fp2) -> Fp2:
        return x * x.sqr() + self.A * x.sqr() + x

    def lift_x(self, x: Fp2) -> FullPoint:
        """The point (x, y) with the canonical square root as y.

        Raises ValueError when x is on the twist (rhs is a non-square).
        """
        return FullPoint(x, self.field.sqrt(self.rhs(x)))

    def negate(self, P: FullPoint) -> FullPoint:
        if P.infinity:
            return P
        return FullPoint(P.x, -P.y)

    def add(self, P: FullPoint, Q: FullPoint) -> FullPoint:
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        if P.x == Q.x:
            if P.y == Q.y:
                return self.double(P)
            return FullPoint.at_infinity()
        lam = (Q.y - P.y) * (Q.x - P.x).inv()
        x3 = lam.sqr() - self.A - P.x - Q.x
        return FullPoint(x3, lam * (P.x - x3) - P.y)

    def double(self, P: FullPoint) -> FullPoint:
        if P.infinity or P.y.is_zero():
            return FullPoint.at_infinity()
        f = self.field
        num = f(3) * P.x.sqr() + (self.A + self.A) * P.x + f.one
        lam = num * (P.y + P.y).inv()
        x3 = lam.sqr() - self.A - P.x - P.x
        return FullPoint(x3, lam * (P.x - x3) - P.y)

    def sub(self, P: FullPoint, Q: FullPoint) -> FullPoint:
        return self.add(P, self.negate(Q))

    def scalar_mul(self, k: int, P: FullPoint) -> FullPoint:
        if k < 0:
            return self.scalar_mul(-k, self.negate(P))
        R = FullPoint.at_infinity()
        Q = P
        while k:
            if k & 1:
                R = self.add(R, Q)
            Q = self.double(Q)
            k >>= 1
        return R


def sample_point_of_order(
    curve: MontgomeryCurve,
    d: int,
    rng: random.Random,
) -> FullPoint:
    """A uniform-ish point of exact order d on the curve (not its twist).

    d must be a power of 2 or 3 dividing p + 1; cofactor-cleared random
    points are rejected until [d/l]P != infinity.
    """
    if d == 1:
        return FullPoint.at_infinity()
    ell = 2 if d % 2 == 0 else 3
    e = 0
    m = d
    while m % ell == 0:
        m //= ell
        e += 1
    if m != 1:
        raise ValueError("order must be a power of 2 or 3")
    p = curve.field.p
    if (p + 1) % d != 0:
        raise ValueError("order does not divide p + 1")
    cofactor = (p + 1) // d
    for _ in range(1000):
        x = curve.field.random_element(rng)
        rhs = curve.rhs(x)
        if not curve.field.is_square(rhs):
            continue  # on the twist
        P = FullPoint(x, curve.field.sqrt(rhs))
        Q = curve.scalar_mul(cofactor, P)
        if Q.infinity:
            continue
        if not curve.scalar_mul(d // ell, Q).infinity:
            return Q
    raise SamplingExhaustedError(f"no point of order {d} after 1000 tries")
