"""The fault oracles: run the victim's derive, plain (oracle) or masked by the
randomized pushforward (oracle_randomized), with one injected coefficient
zeroing and report whether the chain still looks supersingular.

The verdict combines (a) the per-step kernel order checks the chain evaluator
already performs (a faulted coefficient outside GF(p) derails the very next
kernel) and (b) a final-curve spot check that three random on-curve points
are annihilated by p + 1.  Honest GF(p)-coefficient faults are literal
no-ops, so the whole run, including the final j-invariant, is unchanged.
Both oracles map every malformed public key to bit 0 by catching
SidhlabInputError; a plain ValueError (an out-of-range i or sk) propagates.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .countermeasure import PushforwardConfig, two_power_walk
from .field import Fp2Field, SidhlabInputError
from .isogeny import ChainTrace, FaultHook, strategy_eval3
from .montgomery import (
    DegenerateCoefficientError,
    MontgomeryCurve,
    ProjCoeff,
    affine_a_from_projective,
    coeff_in_fp,
    ladder3pt,
    xdbl_e,
    xpoint_from_affine,
    xtpl_e,
)
from .protocol import (
    BOB,
    PublicKey,
    SidhParams,
    chain_inputs,
    derive_with_trace,
    sample_torsion_x,
)

SPOT_CHECK_POINTS = 3


@dataclass(frozen=True, slots=True)
class OracleVerdict:
    """bit = 1 iff the faulted run kept every kernel order-3 and the final
    curve passed the supersingularity spot check."""

    bit: int
    failure_step: Optional[int] = None
    trace: Optional[ChainTrace] = None


def oracle(
    params: SidhParams,
    sk_bob: int,
    pk: PublicKey,
    i: int,
    keep_trace: bool = False,
) -> OracleVerdict:
    """O_sk(pk, i): victim derive with the (i+1)-th 3-isogeny output
    coefficient's imaginary parts zeroed.

    Every malformed pk maps to bit 0 with failure_step -1; only an
    out-of-range i (and, from derive, an out-of-range sk) is rejected.
    Deterministic: the spot-check randomness is derived from (pk, i).
    """
    hook = _fault_hook(params, i)
    try:
        final, trace = derive_with_trace(params, BOB, sk_bob, pk, hook)
    except SidhlabInputError:
        return OracleVerdict(bit=0, failure_step=-1)
    bit, failure_step = _verdict(params, final, trace, random.Random(_spot_seed(params, pk, i)))
    return OracleVerdict(bit, failure_step, trace if keep_trace else None)


def oracle_randomized(
    params: SidhParams,
    sk: int,
    pk: PublicKey,
    i: int,
    config: PushforwardConfig,
    rng: random.Random,
) -> int:
    """The fault oracle's bit against a responder running the randomized
    pushforward: the hook fires inside the masked 3-chain, and the masking
    kernel and the spot-check points are drawn from rng.  Used to measure
    how the masking degrades the forger's success rate."""
    hook = _fault_hook(params, i)
    k, F = config.k, params.field
    try:
        coeff, *triple = chain_inputs(pk, F)
        E_A = MontgomeryCurve(affine_a_from_projective(coeff), F)
        if k > 0:
            R = sample_torsion_x(params, E_A, 2, k, rng)
            coeff, triple = two_power_walk(R, coeff, k, triple, F)
    except SidhlabInputError:
        return 0
    kernel = ladder3pt(sk, *triple, coeff)
    final, _, trace = strategy_eval3(kernel, coeff, params.strategy3, (), hook)
    return _verdict(params, final, trace, rng)[0]


def _fault_hook(params: SidhParams, i: int) -> FaultHook:
    if not 0 <= i <= params.e3 - 2:
        raise ValueError(f"fault index {i} outside [0, e3 - 2]")
    return FaultHook(target_index=i)


def _verdict(params: SidhParams, final: ProjCoeff, trace: ChainTrace, rng: random.Random) -> tuple:
    """(bit, failure_step) of a faulted run: bit 0 at the step whose kernel
    failed its order check; otherwise the spot check on the final curve."""
    if not trace.completed:
        return 0, trace.degenerate_at
    if _supersingular_spot_check(params, final, rng):
        return 1, None
    return 0, params.e3


def make_oracle(params: SidhParams, sk_bob: int) -> Callable[[PublicKey, int], int]:
    """Close over a fixed static key; the attack only ever sees the bit."""

    def _oracle(pk: PublicKey, i: int) -> int:
        return oracle(params, sk_bob, pk, i).bit

    return _oracle


def _spot_seed(params: SidhParams, pk: PublicKey, i: int) -> int:
    F = params.field
    material = "|".join((F.encode(pk.xP), F.encode(pk.xQ), F.encode(pk.xPQ), str(i)))
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def _supersingular_spot_check(params: SidhParams, coeff, rng: random.Random) -> bool:
    """Sample on-curve points and require [p+1]P = [2^e2][3^e3]P = infinity."""
    F = params.field
    try:  # alpha = beta, or a singular curve
        E = MontgomeryCurve(affine_a_from_projective(coeff), F)
    except SidhlabInputError:
        return False
    cc = E.coeff()
    checked = 0
    tries = 0
    while checked < SPOT_CHECK_POINTS and tries < 100 * SPOT_CHECK_POINTS:
        tries += 1
        x = F.random_element(rng)
        if x.is_zero() or not F.is_square(E.rhs(x)):
            continue
        pt = xpoint_from_affine(x, F)
        out = xtpl_e(xdbl_e(pt, cc, params.e2), cc, params.e3)
        if not out.is_infinity():
            return False
        checked += 1
    return checked == SPOT_CHECK_POINTS


def dump_chain_trace(trace: ChainTrace, field: Fp2Field) -> str:
    """Line-oriented trace dump: index, alpha, beta, affine A, GF(p) flag."""
    lines = []
    for idx, coeff in enumerate(trace.coeffs):
        try:
            a_str = field.encode(affine_a_from_projective(coeff))
            fp_flag = "fp" if coeff_in_fp(coeff) else "fp2"
        except DegenerateCoefficientError:
            a_str, fp_flag = "-", "degenerate"
        lines.append(
            f"{idx} alpha={field.encode(coeff.alpha)} beta={field.encode(coeff.beta)} "
            f"A={a_str} {fp_flag}"
        )
    if trace.fault_fired_at is not None:
        lines.append(f"fault_at={trace.fault_fired_at}")
    if trace.degenerate_at is not None:
        lines.append(f"degenerate_at={trace.degenerate_at}")
    return "\n".join(lines)
