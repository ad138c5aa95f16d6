"""Defensive variants of the responder's derive and the attacks they invite.

Two countermeasures are modeled:

  * randomized pushforward: conjugate the secret 3-power chain by a random
    2^k-isogeny rho, so a forger can no longer force passage through a curve
    of her choosing; the shared j comes back through the dual of rho.
  * naive GF(p)-reject: abort whenever an intermediate 3-isogeny codomain
    coefficient lies in GF(p).  This one backfires: accept/reject is itself
    a one-bit oracle, and a faultless adaptive attack recovers the key.

The 2^k walk is built from x-only 2-isogenies (kernel away from (0, 0));
sampling retries until the walk avoids the excluded kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .field import Fp2
from .attack import OracleContradictionError, _last_trit, forge_public_keys
from .faultsim import _supersingular_spot_check
from .isogeny import FaultHook, IsogenyStep, strategy_eval3
from .montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    SamplingExhaustedError,
    SingularCurveError,
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
    InconsistentPublicKeyError,
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
    the canonical square root keeps runs reproducible.
    """
    A = affine_a_from_projective(coeff)
    s = field.sqrt(A + field(2))
    two = field(2)
    return IsogenyStep(2, ProjCoeff((s + two).sqr(), (s - two).sqr()), (s + s,))


def xeval2(Q: XPoint, step: IsogenyStep) -> XPoint:
    if len(step.eval_data) == 1:  # (0,0)-kernel normalization
        (two_s,) = step.eval_data
        return XPoint((Q.X - Q.Z).sqr(), two_s * Q.X * Q.Z)
    kx, kz = step.eval_data
    return XPoint(Q.X * (Q.X * kx - Q.Z * kz), Q.Z * (Q.X * kz - Q.Z * kx))


def _two_power_walk(
    kernel: XPoint,
    coeff: ProjCoeff,
    k: int,
    push: list,
    field,
) -> tuple:
    """k-step 2-isogeny chain with kernel <kernel> (exact order 2^k),
    pushing the given points; each step dispatches on whether its kernel is
    the (0, 0) point."""
    R = kernel
    pushed = list(push)
    for j in range(k):
        K = xdbl_e(R, coeff, k - 1 - j)
        if K.Z.is_zero():
            raise OracleContradictionError("2-power walk kernel collapsed")
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
    max_tries: int = 100,
) -> Fp2:
    """Derive with the masking pushforward: rho: E_A -> E'_A of degree 2^k,
    Bob's 3-chain on the pushed values, then the dual walk back via the
    pushed basis-completion point.  Equals the honest derive for honest pk.
    """
    k = config.k
    if not 0 <= k <= params.e2:
        raise ValueError("pushforward exponent k outside [0, e2]")
    if k == 0:
        return derive(params, BOB, sk, pk)
    F = params.field
    coeff_A, *triple = chain_inputs(pk, F)
    E_A = MontgomeryCurve(affine_a_from_projective(coeff_A), F)
    for _ in range(max_tries):
        R = sample_torsion_x(params, E_A, 2, k, rng)
        D = sample_torsion_x(params, E_A, 2, k, rng)
        if x_affine(xdbl_e(R, coeff_A, k - 1)) != x_affine(xdbl_e(D, coeff_A, k - 1)):
            break  # <R, D> spans the 2^k-torsion
    else:
        raise SamplingExhaustedError("no spanning 2-power pair")
    coeff_masked, pushed = _two_power_walk(R, coeff_A, k, triple + [D], F)
    xP1, xQ1, xD1, d_img = pushed
    kernel = ladder3pt(sk, xP1, xQ1, xD1, coeff_masked)
    final, pushed3, trace = strategy_eval3(kernel, coeff_masked, params.strategy3, [d_img])
    if not trace.completed:
        raise OracleContradictionError(f"masked chain degenerate at step {trace.degenerate_at}")
    back, _ = _two_power_walk(pushed3[0], final, k, [], F)
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


def faultless_attack(
    params: SidhParams,
    reject_oracle: Callable[[PublicKey], bool],
    bob_pk: PublicKey,
    rng: random.Random,
    max_ambiguous: int = 8,
) -> int:
    """Key recovery against the naive GF(p)-reject using only accept/reject.

    Guess trit t by sending the instance that backtracks one step further,
    forge(prefix + t*3^i, i + 1): the walk reaches the A = 6 curve at step
    i+1 exactly when the guess is right, so a rejection confirms it.  Guess
    0 first, then 1 (rejection -> 1, acceptance -> 2).  No fault injections
    anywhere.

    Tiny fields add a wrinkle: an honest intermediate curve that already
    lies in GF(p) makes every instance for that position reject, so the
    oracle carries no information there.  A final verification catches the
    mis-read, the ambiguous positions are re-probed with all three guesses,
    and the leftover space is enumerated against the public key.
    """
    prefix = 0
    for i in range(params.e3 - 1):
        if reject_oracle(forge_public_keys(params, prefix, i + 1, rng).pk):
            trit = 0
        elif reject_oracle(forge_public_keys(params, prefix + 3**i, i + 1, rng).pk):
            trit = 1
        else:
            trit = 2
        prefix += trit * 3**i

    top = 3 ** (params.e3 - 1)

    def complete(prefix: int) -> Optional[int]:
        t = _last_trit(params, prefix, bob_pk)
        return None if t is None else prefix + t * top

    sk = complete(prefix)
    if sk is not None:
        return sk

    # Stage 2: a correct guess ALWAYS rejects (the walk provably reaches the
    # A = 6 curve), so the true trit is in every position's reject set;
    # accidental GF(p) visits only add false branches.  Depth-first search
    # over rejecting guesses, pruning branches where nothing rejects.
    budget = [3**max_ambiguous]

    def dfs(prefix: int, i: int) -> Optional[int]:
        if i == params.e3 - 1:
            return complete(prefix)
        rejected = []
        for t in range(3):
            inst = forge_public_keys(params, prefix + t * 3**i, i + 1, rng)
            if reject_oracle(inst.pk):
                rejected.append(t)
        if not rejected:
            return None  # the true guess would have rejected: wrong branch
        for t in rejected:
            budget[0] -= 1
            if budget[0] < 0:
                raise OracleContradictionError("search budget exhausted")
            found = dfs(prefix + t * 3**i, i + 1)
            if found is not None:
                return found
        return None

    sk = dfs(0, 0)
    if sk is None:
        raise OracleContradictionError("no completion matches the public key")
    return sk


def make_reject_oracle(params: SidhParams, sk: int) -> Callable[[PublicKey], bool]:
    """True iff the naive GF(p)-reject responder rejects the public key."""

    def _oracle(pk: PublicKey) -> bool:
        return not derive_bob_naive_reject(params, sk, pk).accepted

    return _oracle


def oracle_randomized(
    params: SidhParams,
    sk: int,
    pk: PublicKey,
    i: int,
    config: PushforwardConfig,
    rng: random.Random,
) -> int:
    """The fault oracle against a responder running the randomized
    pushforward: the hook fires inside the masked 3-chain.  Used to measure
    how the masking degrades the forger's success rate."""
    if not 0 <= i <= params.e3 - 2:
        raise ValueError(f"fault index {i} outside [0, e3 - 2]")
    k = config.k
    try:
        coeff_A, *triple = chain_inputs(pk, params.field)
        E_A = MontgomeryCurve(affine_a_from_projective(coeff_A), params.field)
    except (InconsistentPublicKeyError, ZeroDivisionError, SingularCurveError):
        return 0  # a malformed pk gets bit 0, as from the unmasked oracle
    if k == 0:
        coeff_masked, (xP1, xQ1, xD1) = coeff_A, triple
    else:
        R = sample_torsion_x(params, E_A, 2, k, rng)
        coeff_masked, (xP1, xQ1, xD1) = _two_power_walk(R, coeff_A, k, triple, params.field)
    kernel = ladder3pt(sk, xP1, xQ1, xD1, coeff_masked)
    hook = FaultHook(target_index=i)
    final, _, trace = strategy_eval3(kernel, coeff_masked, params.strategy3, (), hook)
    if not trace.completed:
        return 0
    return 1 if _supersingular_spot_check(params, final, rng) else 0
