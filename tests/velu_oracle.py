"""Independent isogeny oracle for the test suite: textbook Velu formulas on
a short-Weierstrass model reached by the substitution x -> x + A/3, driven
entirely by the affine group law.  Nothing here shares code with the x-only
production formulas it checks.
"""

from sidhlab.field import Fp2, Fp2Field

from helpers import FullPoint, ReferenceCurve


def to_short_weierstrass(A: Fp2, F: Fp2Field):
    """y^2 = x^3 + ax + b matching y^2 = x^3 + Ax^2 + x under x -> x + A/3."""
    inv3 = F(3).inv()
    a = F.one - A.sqr() * inv3
    b = (A.sqr() * A) * F(2) * F(27).inv() - A * inv3
    return a, b


def j_short_weierstrass(a: Fp2, b: Fp2, F: Fp2Field) -> Fp2:
    num = F(4) * a.sqr() * a
    return F(1728) * num * (num + F(27) * b.sqr()).inv()


def velu_isogeny(curve: ReferenceCurve, gen: FullPoint):
    """Velu data for the cyclic kernel <gen> on the Montgomery curve.

    Returns (a', b', xmap) where (a', b') is the short-Weierstrass codomain
    and xmap takes a Montgomery x-coordinate to the short-Weierstrass
    x-coordinate of its image.
    """
    F = curve.field
    A = curve.A
    a, b = to_short_weierstrass(A, F)
    shift = A * F(3).inv()

    reps = []
    seen = set()
    P = gen
    while not P.infinity:
        key = (int(P.x.re), int(P.x.im))
        if key not in seen:
            seen.add(key)
            reps.append(P)
        P = curve.add(P, gen)

    terms = []
    t_sum = F.zero
    w_sum = F.zero
    for T in reps:
        xT = T.x + shift
        gx = F(3) * xT.sqr() + a
        gy = -(T.y + T.y)
        tT = gx if T.y.is_zero() else gx + gx
        uT = gy.sqr()
        t_sum = t_sum + tT
        w_sum = w_sum + uT + xT * tT
        terms.append((xT, tT, uT))

    a2 = a - F(5) * t_sum
    b2 = b - F(7) * w_sum

    def xmap(x_mont: Fp2) -> Fp2:
        X = x_mont + shift
        acc = X
        for xT, tT, uT in terms:
            d = (X - xT).inv()  # ZeroDivisionError on kernel x's
            acc = acc + tT * d + uT * d.sqr()
        return acc

    return a2, b2, xmap


def fit_linear(pairs):
    """The unique x' = s*x + r through the first two pairs."""
    (x1, y1), (x2, y2) = pairs[0], pairs[1]
    s = (y1 - y2) * (x1 - x2).inv()
    return s, y1 - s * x1
