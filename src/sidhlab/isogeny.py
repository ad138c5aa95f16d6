"""Degree-3 and degree-4 x-only isogenies and the strategy-driven chain
evaluator, including the fault hook that zeroes the imaginary parts of a
freshly computed projective curve coefficient.

One traversal serves both degrees (the strategies of De Feo, Jao and Plut,
J. Math. Cryptol. 2014): a strategy becomes an index schedule, which rejects
a malformed one with StrategyError, and one walker follows the schedule with
the degree's point operations; strategy_eval3 and strategy_eval4 only pick
those operations.

Chains never raise on corrupted data: a kernel that fails its order check
marks the trace degenerate and the run stops, mirroring how a faulted victim
computation just produces garbage downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .montgomery import (
    ProjCoeff,
    XPoint,
    exact_order_multiple,
    xdbl_e,
    xtpl_e,
    zero_imaginary_parts,
)


@dataclass(frozen=True, slots=True)
class IsogenyStep:
    """One computed isogeny: codomain coefficient plus evaluation constants."""

    degree: int
    new_coeff: ProjCoeff
    eval_data: tuple


@dataclass
class FaultHook:
    """Zeroes the imaginary parts of the output coefficient of the isogeny
    with 0-based chain index ``target_index``; fires at most once."""

    target_index: int
    armed: bool = True
    fired: bool = False

    def maybe_fire(self, isogeny_index: int, coeff: ProjCoeff) -> ProjCoeff:
        if self.armed and not self.fired and isogeny_index == self.target_index:
            self.fired = True
            return zero_imaginary_parts(coeff)
        return coeff


@dataclass
class ChainTrace:
    """Per-run record: coefficients E_0..E_e (post-fault values included),
    each step's kernel x-point, and where (if anywhere) the chain went bad."""

    coeffs: list = dc_field(default_factory=list)
    kernels: list = dc_field(default_factory=list)
    degenerate_at: Optional[int] = None
    fault_fired_at: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.degenerate_at is None


class StrategyError(ValueError):
    """The strategy does not drive the chain through every leaf exactly once."""


def xisog3(K: XPoint) -> IsogenyStep:
    """3-isogeny from the order-3 kernel x(K); codomain in (alpha : beta) form.

    alpha' = (X - Z)(3X + Z)^3, beta' = (X + Z)(3X - Z)^3.
    """
    X, Z = K.X, K.Z
    k1 = X - Z
    k2 = X + Z
    t = X + X + X
    u = t + Z
    v = t - Z
    alpha = k1 * u.sqr() * u
    beta = k2 * v.sqr() * v
    return IsogenyStep(3, ProjCoeff(alpha, beta), (k1, k2))


def xeval3(Q: XPoint, step: IsogenyStep) -> XPoint:
    """Push x(Q) through a 3-isogeny: x' = x (x*xK - 1)^2 / (x - xK)^2."""
    k1, k2 = step.eval_data
    t0 = k1 * (Q.X + Q.Z)
    t1 = k2 * (Q.X - Q.Z)
    return XPoint(Q.X * (t0 + t1).sqr(), Q.Z * (t0 - t1).sqr())


def xisog4(K: XPoint) -> IsogenyStep:
    """4-isogeny from the order-4 kernel x(K) with x(K) != +-1."""
    X, Z = K.X, K.Z
    x2 = X.sqr()
    z2 = Z.sqr()
    alpha = (x2 + x2).sqr()  # 4 X^4 = A' + 2C'
    c24 = (z2 + z2).sqr()  # 4 Z^4 = 4 C'
    zz2 = z2 + z2
    return IsogenyStep(4, ProjCoeff(alpha, alpha - c24), (zz2 + zz2, X - Z, X + Z))


def xeval4(Q: XPoint, step: IsogenyStep) -> XPoint:
    k1, k2, k3 = step.eval_data
    t0 = Q.X + Q.Z
    t1 = Q.X - Q.Z
    xq = t0 * k2
    zq = t1 * k3
    t0 = t0 * t1 * k1
    t1 = (xq + zq).sqr()
    zq = (xq - zq).sqr()
    return XPoint((t0 + t1) * t1, zq * (zq - t0))


def _has_order_3(R: XPoint, coeff: ProjCoeff) -> bool:
    return exact_order_multiple(R, coeff, 3, 1) is not None


def _has_order_4(R: XPoint, coeff: ProjCoeff) -> bool:
    """Exact order 4 with x != +-1 (the kernels the 4-isogeny formulas take)."""
    if (R.X - R.Z).is_zero() or (R.X + R.Z).is_zero():
        return False  # kernel above (0, 0): outside the formulas' domain
    return exact_order_multiple(R, coeff, 2, 2) is not None


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


def _walk(R, coeff, strategy, push_points, hook, mul_e, per_leaf, has_order, isog, ev):
    """The chain with kernel <R> that the strategy schedules, from one
    degree's point operations: mul_e(R, coeff, per_leaf * m) moves m leaves
    toward the kernel, has_order(R, coeff) checks a kernel, isog(R) and
    ev(Q, step) compute and evaluate one isogeny."""
    trace = ChainTrace(coeffs=[coeff])
    pushed = list(push_points)
    stack: list[XPoint] = []
    for row, moves in enumerate(_schedule(strategy, len(strategy) + 1)):
        for m in moves:
            stack.append(R)
            R = mul_e(R, coeff, per_leaf * m)
        trace.kernels.append(R)
        if not has_order(R, coeff):
            trace.degenerate_at = row
            return coeff, pushed, trace
        step = isog(R)
        coeff = step.new_coeff
        if hook is not None:
            coeff = hook.maybe_fire(row, coeff)
            if hook.fired and trace.fault_fired_at is None:
                trace.fault_fired_at = row
        trace.coeffs.append(coeff)
        if stack:
            stack = [ev(pt, step) for pt in stack]
            R = stack.pop()
        pushed = [ev(pt, step) for pt in pushed]
    return coeff, pushed, trace


def strategy_eval3(
    R: XPoint,
    coeff: ProjCoeff,
    strategy: Sequence[int],
    push_points: Sequence[XPoint] = (),
    hook: Optional[FaultHook] = None,
) -> tuple[ProjCoeff, list, ChainTrace]:
    """Compute the 3^n-isogeny with kernel <R> as n sequential 3-isogenies,
    n = len(strategy) + 1, optionally pushing auxiliary points through every
    step and applying the fault hook to freshly computed coefficients.

    Every step's kernel is order-3 checked first; a failure (possible after a
    fault) marks the trace degenerate and returns early instead of raising.
    """
    return _walk(R, coeff, strategy, push_points, hook, xtpl_e, 1, _has_order_3, xisog3, xeval3)


def strategy_eval4(
    R: XPoint,
    coeff: ProjCoeff,
    strategy: Sequence[int],
    push_points: Sequence[XPoint] = (),
) -> tuple[ProjCoeff, list, ChainTrace]:
    """2^(2n)-isogeny with kernel <R> as n 4-isogenies, n = len(strategy) + 1:
    strategy_eval3 with doublings in place of triplings and no fault hook
    (the 2-power side is not a fault target here)."""
    return _walk(R, coeff, strategy, push_points, None, xdbl_e, 2, _has_order_4, xisog4, xeval4)


def validate_strategy(strategy: Sequence[int], n: int) -> bool:
    """True iff the strategy drives an n-leaf chain through every leaf once."""
    try:
        _schedule(strategy, n)
    except StrategyError:
        return False
    return True


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
