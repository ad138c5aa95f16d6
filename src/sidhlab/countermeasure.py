"""The responder's derive under two defences.

  * randomized pushforward: conjugate the secret 3-power chain by a random
    2^k-isogeny rho, so a forger can no longer force passage through a curve
    of her choosing; the shared j comes back through the dual of rho.
  * naive GF(p)-reject: abort whenever an intermediate 3-isogeny codomain
    coefficient lies in GF(p).  This one backfires: accept/reject is itself
    a one-bit oracle (attack.faultless_attack recovers the key from it).

The 2^k walk is built from x-only 2-isogenies; sampling retries until the
two sampled points span the 2^k-torsion.  The fault oracle against the
masked responder lives in faultsim, next to the unmasked one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .field import Fp2
from .isogeny import IsogenyStep, strategy_eval3
from .montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    SamplingExhaustedError,
    XPoint,
    affine_a_from_projective,
    coeff_in_fp,
    j_invariant,
    ladder3pt,
    x_affine,
    xdbl_e,
)
from .protocol import (
    BOB,
    DegenerateChainError,
    PublicKey,
    SidhParams,
    chain_inputs,
    derive,
    derive_with_trace,
    sample_torsion_x,
)


@dataclass(frozen=True, slots=True)
class PushforwardConfig:
    """Degree exponent of the masking isogeny rho; k = 0 means no masking."""

    k: int


@dataclass(frozen=True, slots=True)
class NaiveRejectOutcome:
    accepted: bool
    shared_j: Optional[Fp2] = None
    rejected_step: Optional[int] = None


def xisog2(K: XPoint) -> IsogenyStep:
    """2-isogeny from an order-2 kernel x(K) != 0 (kernel not (0, 0)):
    codomain (alpha' : beta') = (Z^2 - X^2 : -X^2), map x(x*xK - 1)/(x - xK).

    Both complementary 2-torsion points land on x = 0 of the codomain, so a
    walk's backward direction always starts from the (0, 0) kernel below.
    """
    x2 = K.X.sqr()
    z2 = K.Z.sqr()
    return IsogenyStep(2, ProjCoeff(z2 - x2, -x2), (K.X, K.Z))


def xisog2_zero(coeff: ProjCoeff, field) -> IsogenyStep:
    """2-isogeny with the (0, 0) kernel: with s = sqrt(A + 2) (rational
    here: the x = 1 points above (0, 0) are), the codomain is
    ((s + 2)^2 : (s - 2)^2) and the map is x -> (x - 1)^2 / (2 s x).

    The sign of s picks one of two isomorphic Montgomery coordinatizations;
    the canonical square root keeps runs reproducible.  A non-square
    A + 2 (a malformed curve) raises DegenerateChainError.
    """
    A = affine_a_from_projective(coeff)
    two = field(2)
    if not field.is_square(A + two):
        raise DegenerateChainError("A + 2 is not a square at a (0, 0) kernel")
    s = field.sqrt(A + two)
    return IsogenyStep(2, ProjCoeff((s + two).sqr(), (s - two).sqr()), (s + s,))


def xeval2(Q: XPoint, step: IsogenyStep) -> XPoint:
    if len(step.eval_data) == 1:  # (0,0)-kernel normalization
        (two_s,) = step.eval_data
        return XPoint((Q.X - Q.Z).sqr(), two_s * Q.X * Q.Z)
    kx, kz = step.eval_data
    return XPoint(Q.X * (Q.X * kx - Q.Z * kz), Q.Z * (Q.X * kz - Q.Z * kx))


def two_power_walk(kernel: XPoint, coeff: ProjCoeff, k: int, push: list, field) -> tuple:
    """k-step 2-isogeny chain with kernel <kernel> (exact order 2^k),
    pushing the given points; each step dispatches on whether its kernel is
    the (0, 0) point.  Returns (codomain coefficient, pushed points); raises
    DegenerateChainError when a step's kernel collapses to infinity."""
    R = kernel
    pushed = list(push)
    for j in range(k):
        K = xdbl_e(R, coeff, k - 1 - j)
        if K.Z.is_zero():
            raise DegenerateChainError(f"2-power walk kernel collapsed at step {j}")
        step = xisog2_zero(coeff, field) if K.X.is_zero() else xisog2(K)
        coeff = step.new_coeff
        if j < k - 1:
            R = xeval2(R, step)
        pushed = [xeval2(pt, step) for pt in pushed]
    return coeff, pushed


def derive_bob_randomized(
    params: SidhParams,
    sk: int,
    pk: PublicKey,
    config: PushforwardConfig,
    rng: random.Random,
) -> Fp2:
    """Derive with the masking pushforward: rho: E_A -> E'_A of degree 2^k,
    Bob's 3-chain on the pushed values, then the dual walk back via the
    pushed basis-completion point.  Equals the honest derive for honest pk.

    A pk that corrupts either chain raises DegenerateChainError, as in derive.
    """
    k = config.k
    if not 0 <= k <= params.e2:
        raise ValueError("pushforward exponent k outside [0, e2]")
    if k == 0:
        return derive(params, BOB, sk, pk)
    F = params.field
    coeff_A, *triple = chain_inputs(pk, F)
    E_A = MontgomeryCurve(affine_a_from_projective(coeff_A), F)
    for _ in range(100):
        R = sample_torsion_x(params, E_A, 2, k, rng)
        D = sample_torsion_x(params, E_A, 2, k, rng)
        if x_affine(xdbl_e(R, coeff_A, k - 1)) != x_affine(xdbl_e(D, coeff_A, k - 1)):
            break  # <R, D> spans the 2^k-torsion
    else:
        raise SamplingExhaustedError("no spanning 2-power pair")
    coeff_masked, pushed = two_power_walk(R, coeff_A, k, triple + [D], F)
    xP1, xQ1, xD1, d_img = pushed
    kernel = ladder3pt(sk, xP1, xQ1, xD1, coeff_masked)
    final, pushed3, trace = strategy_eval3(kernel, coeff_masked, params.strategy3, [d_img])
    if not trace.completed:
        raise DegenerateChainError(f"masked chain degenerate at step {trace.degenerate_at}")
    back, _ = two_power_walk(pushed3[0], final, k, [], F)
    return j_invariant(affine_a_from_projective(back), F)


def derive_bob_naive_reject(params: SidhParams, sk: int, pk: PublicKey) -> NaiveRejectOutcome:
    """Honest derive that aborts when any intermediate codomain coefficient
    (isogenies 1 .. e3-1) lies in GF(p)."""
    final, trace = derive_with_trace(params, BOB, sk, pk)
    limit = min(params.e3 - 1, len(trace.coeffs) - 1)
    for step in range(1, limit + 1):
        try:
            if coeff_in_fp(trace.coeffs[step]):
                return NaiveRejectOutcome(accepted=False, rejected_step=step)
        except ValueError:
            return NaiveRejectOutcome(accepted=False, rejected_step=step)
    if not trace.completed:
        return NaiveRejectOutcome(accepted=False, rejected_step=trace.degenerate_at)
    return NaiveRejectOutcome(
        accepted=True,
        shared_j=j_invariant(affine_a_from_projective(final), params.field),
    )

