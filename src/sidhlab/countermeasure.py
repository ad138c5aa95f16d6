"""The responder's derive under two defences.

  * randomized pushforward: conjugate the secret 3-power chain by a random
    2^k-isogeny rho, so a forger can no longer force passage through a curve
    of her choosing; the shared j comes back through the dual of rho.
  * naive GF(p)-reject: abort whenever an intermediate 3-isogeny codomain
    coefficient lies in GF(p).  This one backfires: accept/reject is itself
    a one-bit oracle (attack.faultless_attack recovers the key from it).

Both 2^k walks, rho and its dual, run on isogeny.strategy_eval2, the secret
3-chain between them on protocol.secret_isogeny; sampling retries until the
two sampled points span the 2^k-torsion.  The fault oracle, masked or not,
lives in faultsim, and masking_degree checks k for it and for the derive.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .field import Fp2
from .isogeny import strategy_eval2
from .montgomery import (
    MontgomeryCurve,
    SamplingExhaustedError,
    affine_a_from_projective,
    coeff_in_fp,
    j_invariant,
)
from .protocol import (
    BOB,
    PublicKey,
    SidhParams,
    chain_inputs,
    check_sk,
    derive,
    derive_with_trace,
    sample_torsion_x,
    secret_isogeny,
)


class PushforwardConfig(NamedTuple):
    """Degree exponent of the masking isogeny rho; k = 0 means no masking."""

    k: int


class NaiveRejectOutcome(NamedTuple):
    accepted: bool
    shared_j: Optional[Fp2] = None
    rejected_step: Optional[int] = None


def masking_degree(params: SidhParams, config: PushforwardConfig) -> int:
    """config.k; a plain ValueError when it lies outside [0, e2]."""
    if not 0 <= config.k <= params.e2:
        raise ValueError(f"pushforward exponent k = {config.k} outside [0, e2 = {params.e2}]")
    return config.k


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
    k = masking_degree(params, config)
    check_sk(params, BOB, sk)
    if k == 0:
        return derive(params, BOB, sk, pk)
    F = params.field
    coeff_A, *triple = chain_inputs(pk, F)
    E_A = MontgomeryCurve(affine_a_from_projective(coeff_A), F)
    for _ in range(100):
        _, R, r_top = sample_torsion_x(E_A, 2, k, lambda: F.random_element(rng))
        _, D, d_top = sample_torsion_x(E_A, 2, k, lambda: F.random_element(rng))
        if r_top != d_top:
            break  # <R, D> spans the 2^k-torsion
    else:
        raise SamplingExhaustedError("no spanning 2-power pair")
    coeff_masked, (*triple, d_img), trace = strategy_eval2(R, coeff_A, k, triple + [D], F)
    trace.require_completed("masking walk")
    final, (d_img,), trace = secret_isogeny(params, BOB, sk, coeff_masked, triple, [d_img])
    trace.require_completed("masked chain")
    back, _, trace = strategy_eval2(d_img, final, k, (), F)
    trace.require_completed("dual walk")
    return j_invariant(affine_a_from_projective(back), F)


def derive_bob_naive_reject(params: SidhParams, sk: int, pk: PublicKey) -> NaiveRejectOutcome:
    """Honest derive that aborts when any intermediate codomain coefficient
    (isogenies 1 .. e3-1) lies in GF(p).

    coeff_in_fp raises only on alpha = beta, and no row tested here has it:
    the rows exist only after row 0's kernel passed its order check, every
    later kernel then has exact order 3 (isogeny's module docstring, nodal
    starts included), and xisog3_int's alpha' - beta' = (X - Z)(3X + Z)^3 -
    (X + Z)(3X - Z)^3 = -16 X Z^3 is nonzero for such a kernel."""
    final, trace = derive_with_trace(params, BOB, sk, pk)
    limit = min(params.e3 - 1, len(trace.coeffs) - 1)
    for step in range(1, limit + 1):
        if coeff_in_fp(trace.coeffs[step]):
            return NaiveRejectOutcome(accepted=False, rejected_step=step)
    if not trace.completed:
        return NaiveRejectOutcome(accepted=False, rejected_step=trace.degenerate_at)
    return NaiveRejectOutcome(
        accepted=True,
        shared_j=j_invariant(affine_a_from_projective(final), params.field),
    )

