"""Degree-2, -3 and -4 x-only isogenies and the strategy-driven chain
evaluator, including the fault that zeroes the imaginary parts of a freshly
computed projective curve coefficient at one chosen row.

One traversal serves every degree (the strategies of De Feo, Jao and Plut,
J. Math. Cryptol. 2014): a strategy becomes an index schedule, which rejects
a malformed one with StrategyError, and one walker follows the schedule with
the degree's point operations; strategy_eval2, strategy_eval3 and
strategy_eval4 only pick those operations.  The walk runs on int 4-tuples
(montgomery's int kernels and the xisog/xeval kernels here); XPoint and
ProjCoeff objects are built only for the trace, the fault and the results.

Chains never raise on corrupted data: a kernel that fails its order check
marks the trace degenerate and the run stops, mirroring how a faulted victim
computation just produces garbage downstream.  The one exception is a (0, 0)
2-isogeny kernel on a curve with non-square A + 2 (DegenerateChainError).

Which kernels are checked.  Row 0's kernel is always checked, and later
rows only from the row after a fault that moved the curve (alpha * beta' !=
alpha' * beta).  Everywhere else a check cannot fail:

  * 3-isogenies.  Let row 0's kernel [3^(n-1)]R have exact order 3 on a
    non-singular curve.  Then R has exact order 3^n, and the 3-isogeny with
    kernel <[3^(n-1)]R> maps it to a point of exact order 3^(n-1) on a
    non-singular codomain; by induction row r's kernel, [3^(n-1-r)] of R's
    image, has exact order 3.  The x-only formulas compute these images
    exactly: a tripling is wrong only on (0 : 0), which a point of exact
    order 3^k is not, and the points the walk pushes are multiples of R of
    order above 3, never in a kernel.  No formula involves B, so the same
    holds for a point on the quadratic twist, which is where a random x
    lands half of the time.
  * 4-isogenies.  The formulas need a kernel K of exact order 4 with
    x(K) != +-1, i.e. [2]K != (0, 0).  Exact order passes from row to row as
    above.  For the second condition, let phi have kernel <K> with
    [2]K != (0, 0).  Then (0, 0) is not in the kernel, and xeval4 maps
    (0 : 1) to (0 : 16 X_K^2 (X_K^2 + Z_K^2)), where x(K) = 0 has order 2
    and x(K) = +-i never has order 4: phi((0, 0)) = (0, 0) on the codomain,
    a point of phi(E[4]), the kernel of the dual.  The next kernel is
    K' = phi(K'') with [4]K'' = K, and phi^([2]K') = [8]K'' = [2]K != O, so
    [2]K' is not in the dual's kernel and differs from (0, 0).
  * 2-isogenies (kernel check: not infinity).  The masking walk's R has
    exact order 2^k (sampled, or such a point's image under odd-degree
    isogenies), which passes from row to row as above, and the formulas are
    exact on (0, 0) and at infinity: xeval2 maps only (0 : 0) to (0 : 0).
  * A fault that is a no-op leaves the curve projectively where it was:
    zeroing the imaginary parts of a GF(p) coefficient rescales (alpha :
    beta), every later point is the honest one up to a nonzero factor, and
    the honest run's checks pass.  This is the bit-1 path of the fault
    oracle.

A fault that moves the curve breaks the induction at the faulted row, so
those runs check every row after it; ChainTrace.fault_moved_curve records
which case a run was in.  A singular or undefined start (alpha = 0, beta = 0
or alpha = beta) needs no more checks than these: alpha = beta fails row 0
for every point, and the non-singular points of the nodal curves A = +-2
form a group that the formulas map to A = +-2 again, so the argument holds
there as well.  test_check_rule.test_singular_starts runs such starts
against a walker that checks every row.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .field import Fp2Field, SidhlabInputError
from .montgomery import (
    ProjCoeff,
    XPoint,
    affine_a_from_projective,
    coeff_from_ints,
    coeff_ints,
    exact_order_multiple_int,
    point_ints,
    xadd_int,
    xdbl_e_int,
    xpoint_from_ints,
    xtpl_e_int,
    zero_imaginary_parts,
)


class IsogenyStep(NamedTuple):
    """One computed isogeny: codomain coefficient plus eval data (a 3-isogeny's is its kernel)."""

    new_coeff: ProjCoeff
    eval_data: tuple


class ChainTrace(NamedTuple):
    """Per-run record: coefficients E_0..E_e (post-fault values included),
    each step's kernel x-point, where (if anywhere) the chain went bad, and
    whether the fault moved the curve (alpha * beta' != alpha' * beta)."""

    coeffs: tuple
    kernels: tuple
    degenerate_at: Optional[int]
    fault_fired_at: Optional[int]
    fault_moved_curve: bool

    @property
    def completed(self) -> bool:
        return self.degenerate_at is None

    def require_completed(self, chain: str) -> None:
        if self.degenerate_at is not None:
            raise DegenerateChainError(f"{chain} degenerate at step {self.degenerate_at}")


class StrategyError(ValueError):
    """The strategy does not drive the chain through every leaf exactly once."""


class DegenerateChainError(SidhlabInputError):
    """An isogeny chain hit a kernel that failed its order check."""


def xisog2_int(K: tuple, C: tuple, field: Fp2Field) -> tuple:
    """2-isogeny from the order-2 kernel x(K) on the curve C: codomain
    (Z^2 - X^2 : -X^2), constants (X, Z) off (0, 0); on (0, 0), with s the
    field's canonical sqrt(A + 2), ((s + 2)^2 : (s - 2)^2), constant 2s.  A
    non-square A + 2 (a malformed curve) raises DegenerateChainError."""
    p = field.p
    Xr, Xi, Zr, Zi = K
    if Xr or Xi:
        x2r = ((Xr + Xi) * (Xr - Xi)) % p
        x2i = (2 * Xr * Xi) % p
        z2r = ((Zr + Zi) * (Zr - Zi)) % p
        z2i = (2 * Zr * Zi) % p
        return ((z2r - x2r) % p, (z2i - x2i) % p, -x2r % p, -x2i % p), K
    two = field(2)
    a2 = affine_a_from_projective(coeff_from_ints(C, p)) + two
    if not field.is_square(a2):
        raise DegenerateChainError("A + 2 is not a square at a (0, 0) kernel")
    s = field.sqrt(a2)
    return coeff_ints(ProjCoeff((s + two).sqr(), (s - two).sqr())), ((2 * s.re) % p, (2 * s.im) % p)


def xeval2_int(Q: tuple, data: tuple, p: int) -> tuple:
    """Push x(Q) through a 2-isogeny: (X (X X_K - Z Z_K) : Z (X Z_K - Z X_K))
    off (0, 0), and ((X - Z)^2 : 2s X Z) on the (0, 0) kernel, whose
    constants are (2s).  Both are two products P (X a - Z b): the second
    with P = X - Z, a = b = 1, and with P = X, a = 0, b = -2s."""
    Xr, Xi, Zr, Zi = Q
    if len(data) == 2:
        rows = (((Xr - Zr, Xi - Zi), (1, 0), (1, 0)), ((Xr, Xi), (0, 0), (-data[0], -data[1])))
    else:
        rows = (((Xr, Xi), data[:2], data[2:]), ((Zr, Zi), data[2:], data[:2]))
    out = []
    for (Pr, Pi), (ar, ai), (br, bi) in rows:  # P (X a - Z b)
        m0 = Xr * ar
        m1 = Xi * ai
        m2 = (Xr + Xi) * (ar + ai)
        n0 = Zr * br
        n1 = Zi * bi
        n2 = (Zr + Zi) * (br + bi)
        ur = (m0 - m1 - n0 + n1) % p
        ui = (m2 - m0 - m1 - n2 + n0 + n1) % p
        m0 = Pr * ur
        m1 = Pi * ui
        m2 = (Pr + Pi) * (ur + ui)
        out += ((m0 - m1) % p, (m2 - m0 - m1) % p)
    return tuple(out)


def xisog3_int(K: tuple, p: int) -> tuple:
    """3-isogeny from the order-3 kernel x(K): (codomain coefficient in
    (alpha : beta) form, K itself as the evaluation data).

    alpha' = (X - Z)(3X + Z)^3, beta' = (X + Z)(3X - Z)^3.
    """
    Xr, Xi, Zr, Zi = K
    coeff = []
    for kr, ki, ur, ui in (
        (Xr - Zr, Xi - Zi, 3 * Xr + Zr, 3 * Xi + Zi),
        (Xr + Zr, Xi + Zi, 3 * Xr - Zr, 3 * Xi - Zi),
    ):
        sr = ((ur + ui) * (ur - ui)) % p  # u^2
        si = (2 * ur * ui) % p
        m0 = sr * ur
        m1 = si * ui
        m2 = (sr + si) * (ur + ui)
        cr = (m0 - m1) % p  # u^3
        ci = (m2 - m0 - m1) % p
        m0 = kr * cr
        m1 = ki * ci
        m2 = (kr + ki) * (cr + ci)
        coeff += ((m0 - m1) % p, (m2 - m0 - m1) % p)
    return tuple(coeff), K


def xeval3_int(Q: tuple, K: tuple, p: int) -> tuple:
    """Push x(Q) through the 3-isogeny with kernel x(K) (Costello and Hisil,
    ASIACRYPT 2017): x' = x (x*xK - 1)^2 / (x - xK)^2.  That is xadd_int's
    formula with x(K), x(Q) as summands and 1/x(Q) = (Z : X) as difference."""
    return xadd_int(K, Q, (Q[2], Q[3], Q[0], Q[1]), p)


def xisog4_int(K: tuple, p: int) -> tuple:
    """4-isogeny from the order-4 kernel x(K) with x(K) != +-1: codomain
    (A' + 2C' : 4C') = (4X^4 : 4Z^4), returned as (alpha : alpha - 4Z^4),
    and evaluation constants (4Z^2, X - Z, X + Z)."""
    Xr, Xi, Zr, Zi = K
    x2r = ((Xr + Xi) * (Xr - Xi)) % p
    x2i = (2 * Xr * Xi) % p
    z2r = ((Zr + Zi) * (Zr - Zi)) % p
    z2i = (2 * Zr * Zi) % p
    ar = (4 * (x2r + x2i) * (x2r - x2i)) % p  # (2 X^2)^2
    ai = (8 * x2r * x2i) % p
    cr = 4 * (z2r + z2i) * (z2r - z2i)  # (2 Z^2)^2
    ci = 8 * z2r * z2i
    coeff = (ar, ai, (ar - cr) % p, (ai - ci) % p)
    return coeff, ((4 * z2r) % p, (4 * z2i) % p, (Xr - Zr) % p, (Xi - Zi) % p, (Xr + Zr) % p, (Xi + Zi) % p)


def xeval4_int(Q: tuple, data: tuple, p: int) -> tuple:
    """Push x(Q) through a 4-isogeny: with t0 = X + Z, t1 = X - Z,
    xq = t0 (X_K - Z_K), zq = t1 (X_K + Z_K) and s = 4Z_K^2 t0 t1,
    X' = (s + (xq + zq)^2)(xq + zq)^2, Z' = (xq - zq)^2 ((xq - zq)^2 - s)."""
    Xr, Xi, Zr, Zi = Q
    k1r, k1i, k2r, k2i, k3r, k3i = data
    t0r = Xr + Zr
    t0i = Xi + Zi
    t1r = Xr - Zr
    t1i = Xi - Zi
    m0 = t0r * k2r
    m1 = t0i * k2i
    m2 = (t0r + t0i) * (k2r + k2i)
    xr = (m0 - m1) % p
    xi = (m2 - m0 - m1) % p
    m0 = t1r * k3r
    m1 = t1i * k3i
    m2 = (t1r + t1i) * (k3r + k3i)
    zr = (m0 - m1) % p
    zi = (m2 - m0 - m1) % p
    m0 = t0r * t1r
    m1 = t0i * t1i
    m2 = (t0r + t0i) * (t1r + t1i)
    ur = (m0 - m1) % p
    ui = (m2 - m0 - m1) % p
    m0 = ur * k1r
    m1 = ui * k1i
    m2 = (ur + ui) * (k1r + k1i)
    sr = (m0 - m1) % p
    si = (m2 - m0 - m1) % p
    ar = xr + zr
    ai = xi + zi
    a2r = ((ar + ai) * (ar - ai)) % p  # (xq + zq)^2
    a2i = (2 * ar * ai) % p
    br = xr - zr
    bi = xi - zi
    b2r = ((br + bi) * (br - bi)) % p  # (xq - zq)^2
    b2i = (2 * br * bi) % p
    ur = sr + a2r
    ui = si + a2i
    m0 = ur * a2r
    m1 = ui * a2i
    m2 = (ur + ui) * (a2r + a2i)
    Xo_r = (m0 - m1) % p
    Xo_i = (m2 - m0 - m1) % p
    ur = b2r - sr
    ui = b2i - si
    m0 = b2r * ur
    m1 = b2i * ui
    m2 = (b2r + b2i) * (ur + ui)
    return Xo_r, Xo_i, (m0 - m1) % p, (m2 - m0 - m1) % p


def _step(isog_int, K: XPoint) -> IsogenyStep:
    p = K.X.p
    coeff, data = isog_int(point_ints(K), p)
    return IsogenyStep(coeff_from_ints(coeff, p), data)


def xisog3(K: XPoint) -> IsogenyStep:
    """3-isogeny from the order-3 kernel x(K); codomain in (alpha : beta) form."""
    return _step(xisog3_int, K)


def xeval3(Q: XPoint, step: IsogenyStep) -> XPoint:
    p = Q.X.p
    return xpoint_from_ints(xeval3_int(point_ints(Q), step.eval_data, p), p)


def xisog4(K: XPoint) -> IsogenyStep:
    """4-isogeny from the order-4 kernel x(K) with x(K) != +-1."""
    return _step(xisog4_int, K)


def xeval4(Q: XPoint, step: IsogenyStep) -> XPoint:
    p = Q.X.p
    return xpoint_from_ints(xeval4_int(point_ints(Q), step.eval_data, p), p)


def _not_infinity(R: tuple, C: tuple, p: int) -> bool:
    return bool(R[2] or R[3])


def _has_order_3(R: tuple, C: tuple, p: int) -> bool:
    return exact_order_multiple_int(R, C, 3, 1, p) is not None


def _has_order_4(R: tuple, C: tuple, p: int) -> bool:
    """Exact order 4 with x != +-1 (the kernels the 4-isogeny formulas take)."""
    Xr, Xi, Zr, Zi = R
    if (Xr == Zr and Xi == Zi) or ((Xr + Zr) % p == 0 and (Xi + Zi) % p == 0):
        return False  # kernel above (0, 0): outside the formulas' domain
    return exact_order_multiple_int(R, C, 2, 2, p) is not None


def _same_curve(C: tuple, D: tuple, p: int) -> bool:
    """(alpha : beta) = (alpha' : beta'), i.e. alpha * beta' = alpha' * beta."""
    ar, ai, br, bi = C
    cr, ci, dr, di = D
    re = ar * dr - ai * di - (cr * br - ci * bi)
    im = ar * di + ai * dr - (cr * bi + ci * br)
    return re % p == 0 and im % p == 0


def _schedule(strategy: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Per chain step, the leaf distances the walk moves toward that step's
    kernel, saving its point before each move.  Raises StrategyError unless
    n - 1 positive entries visit every leaf exactly once."""
    if n < 1 or len(strategy) != n - 1:
        raise StrategyError(f"{n} leaves need {n - 1} strategy entries, got {len(strategy)}")
    rows, stack, i, k = [], [], 0, 0
    for row in range(1, n + 1):
        moves = []
        while i < n - row:
            if strategy[k] <= 0:
                raise StrategyError(f"strategy entry {k} is not positive")
            stack.append(i)
            moves.append(strategy[k])
            i += strategy[k]
            k += 1
        if i != n - row:
            raise StrategyError(f"strategy overshoots leaf {row}")
        rows.append(tuple(moves))
        if row < n:
            i = stack.pop()
    return rows


def _walk(R, coeff, strategy, push_points, fault_at, mul_e, per_leaf, has_order, isog, ev):
    """The chain with kernel <R> that the strategy schedules, from one
    degree's int kernels: mul_e(R, C, per_leaf * m, p) moves m leaves toward
    the kernel, has_order(R, C, p) checks a kernel, isog(R, C, p) and
    ev(Q, data, p) compute and evaluate one isogeny.  Points and the
    coefficient stay int tuples; the trace and the results are objects.
    The imaginary parts of row fault_at's codomain coefficient are zeroed.

    Row 0's kernel is always checked; later rows only after a fault that
    moved the curve (the module docstring gives the argument)."""
    p = coeff.alpha.p
    C = coeff_ints(coeff)
    R = point_ints(R)
    pushed = [point_ints(Q) for Q in push_points]
    coeffs, kernels, stack = [coeff], [], []
    degenerate_at, fired_at, moved = None, None, False
    for row, moves in enumerate(_schedule(strategy, len(strategy) + 1)):
        for m in moves:
            stack.append(R)
            R = mul_e(R, C, per_leaf * m, p)
        kernels.append(xpoint_from_ints(R, p))
        if (row == 0 or moved) and not has_order(R, C, p):
            degenerate_at = row
            break
        C, data = isog(R, C, p)
        coeff = coeff_from_ints(C, p)
        if row == fault_at:
            coeff = zero_imaginary_parts(coeff)
            C, honest_C = coeff_ints(coeff), C
            moved = not _same_curve(honest_C, C, p)
            fired_at = row
        coeffs.append(coeff)
        if stack:
            stack = [ev(pt, data, p) for pt in stack]
            R = stack.pop()
        pushed = [ev(pt, data, p) for pt in pushed]
    trace = ChainTrace(tuple(coeffs), tuple(kernels), degenerate_at, fired_at, moved)
    return coeff, [xpoint_from_ints(Q, p) for Q in pushed], trace


def strategy_eval2(
    R: XPoint, coeff: ProjCoeff, k: int, push_points: Sequence[XPoint], field: Fp2Field
) -> tuple[ProjCoeff, list, ChainTrace]:
    """2^k-isogeny with kernel <R>, R of exact order 2^k and k >= 1, as k
    2-isogenies: the strategy k - 1, ..., 1, which doubles afresh from R's
    image at each row, with a not-infinity kernel check.  A (0, 0) kernel on
    a curve with non-square A + 2 raises DegenerateChainError."""
    if k < 1:
        raise StrategyError(f"a 2^k walk needs k >= 1, got {k}")
    return _walk(R, coeff, range(k - 1, 0, -1), push_points, None, xdbl_e_int, 1, _not_infinity,
                 lambda K, C, p: xisog2_int(K, C, field), xeval2_int)


def strategy_eval3(
    R: XPoint,
    coeff: ProjCoeff,
    strategy: Sequence[int],
    push_points: Sequence[XPoint] = (),
    fault_at: Optional[int] = None,
) -> tuple[ProjCoeff, list, ChainTrace]:
    """Compute the 3^n-isogeny with kernel <R> as n sequential 3-isogenies,
    n = len(strategy) + 1, optionally pushing auxiliary points through every
    step and zeroing the imaginary parts of row fault_at's new coefficient.

    Kernels are order-3 checked where a check can fail (row 0 and the rows
    after a fault that moved the curve); a failure marks the trace
    degenerate and returns early instead of raising.
    """
    return _walk(R, coeff, strategy, push_points, fault_at, xtpl_e_int, 1, _has_order_3,
                 lambda K, C, p: xisog3_int(K, p), xeval3_int)


def strategy_eval4(
    R: XPoint,
    coeff: ProjCoeff,
    strategy: Sequence[int],
    push_points: Sequence[XPoint] = (),
) -> tuple[ProjCoeff, list, ChainTrace]:
    """2^(2n)-isogeny with kernel <R> as n 4-isogenies, n = len(strategy) + 1:
    strategy_eval3 with doublings in place of triplings and no fault (the
    2-power side is not a fault target here)."""
    return _walk(R, coeff, strategy, push_points, None, xdbl_e_int, 2, _has_order_4,
                 lambda K, C, p: xisog4_int(K, p), xeval4_int)


def balanced_strategy(n: int) -> list[int]:
    """Minimum-cost strategy for an n-leaf chain under the usual recursion
    with unit weights: splitting at b costs C(n-b) + C(b) + b + (n-b).

    Ties break toward the smallest split so runs are reproducible.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    S: dict[int, list[int]] = {1: []}
    C: dict[int, int] = {1: 0}
    for size in range(2, n + 1):
        best_b, best_cost = None, None
        for b in range(1, size):
            cost = C[size - b] + C[b] + size
            if best_cost is None or cost < best_cost:
                best_b, best_cost = b, cost
        S[size] = [best_b] + S[size - best_b] + S[best_b]
        C[size] = best_cost
    _schedule(S[n], n)  # raises StrategyError should the recursion be wrong
    return S[n]
