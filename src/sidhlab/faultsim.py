"""The fault oracle: run the victim's derive, plain or masked by the
randomized pushforward, with one injected coefficient zeroing and report
whether the chain still looks supersingular.  The victim's chain runs on
protocol.secret_isogeny with the fault as a row index.

The verdict combines (a) the per-step kernel order checks the chain evaluator
already performs (a faulted coefficient outside GF(p) derails the very next
kernel) and (b) a final-curve spot check that three random on-curve points
are annihilated by p + 1.  Honest GF(p)-coefficient faults are literal
no-ops, so the whole run, including the final j-invariant, is unchanged.
The oracle maps every malformed public key to bit 0 by catching
SidhlabInputError; a plain ValueError (an out-of-range i, sk or masking
degree) propagates, checked before the public key is read.

The spot check always makes its draws, but it multiplies the drawn points
only when the chain has not already proven the final curve's group.  A chain
proves it when it completed, no fault moved its curve, and some row's
coefficient is (8 : 4), the A = 6 curve E_0; every bit-1 query that the
attack makes of the unmasked oracle gives such a chain.  Three facts make
this exact:

  * E_0 has E(F_{p^2}) = E[p + 1].  With p = 3 (mod 4) it is supersingular
    (2-isogenous to y^2 = x^3 + x), so its GF(p) Frobenius pi has trace 0
    and pi^2 = [-p]: the p^2-power Frobenius fixes exactly E[p + 1].
  * Such a chain is a chain of F_{p^2}-rational 3-isogenies from E_0 (the
    argument in isogeny's module docstring: every kernel it takes has exact
    order 3, and a no-op fault leaves the curve where it was).  An isogeny
    commutes with Frobenius, so the final curve's p^2-power Frobenius is
    [-p] as well, and its group is E[p + 1].
  * On a non-singular curve, xDBL and xTPL from an affine x != 0 never reach
    (0 : 0), so the x-only clearing of every drawn point ends at infinity.

So on such a chain the full check would find each of the three drawn points
at infinity, and the verdict is whether three on-curve x came up within the
try budget, from the same draws.
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice
from typing import Callable, NamedTuple, Optional

from .countermeasure import PushforwardConfig, masking_degree
from .field import Fp2Field, SidhlabInputError
from .isogeny import ChainTrace, strategy_eval2
from .montgomery import (
    DegenerateCoefficientError,
    MontgomeryCurve,
    ProjCoeff,
    affine_a_from_projective,
    coeff_in_fp,
)
from .protocol import (
    BOB,
    PublicKey,
    SidhParams,
    chain_inputs,
    check_sk,
    cleared_points,
    curve_x_draws,
    derive_with_trace,
    sample_torsion_x,
    secret_isogeny,
)

SPOT_CHECK_POINTS = 3
SPOT_CHECK_TRIES = 100 * SPOT_CHECK_POINTS


class OracleVerdict(NamedTuple):
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
    config: PushforwardConfig = PushforwardConfig(0),
    rng: Optional[random.Random] = None,
    keep_trace: bool = False,
) -> OracleVerdict:
    """O_sk(pk, i): victim derive with the (i+1)-th 3-isogeny output
    coefficient's imaginary parts zeroed.  With config.k > 0 the victim runs
    the randomized pushforward: the fault hits the 3-chain from the curve a
    random 2^k-isogeny reaches.

    Every malformed pk maps to bit 0 with failure_step -1; only an
    out-of-range i, k or sk is rejected.  The masking kernel and the
    spot-check points are drawn from rng; rng=None derives it from (pk, i),
    which makes the verdict deterministic.
    """
    if not 0 <= i <= params.e3 - 2:
        raise ValueError(f"fault index {i} outside [0, e3 - 2]")
    k, F = masking_degree(params, config), params.field
    check_sk(params, BOB, sk_bob)
    if rng is None:
        rng = random.Random(_spot_seed(params, pk, i))
    try:
        if k == 0:
            final, trace = derive_with_trace(params, BOB, sk_bob, pk, i)
        else:
            coeff, *triple = chain_inputs(pk, F)
            E_A = MontgomeryCurve(affine_a_from_projective(coeff), F)
            _, R, _ = sample_torsion_x(E_A, 2, k, lambda: F.random_element(rng))
            coeff, triple, mask = strategy_eval2(R, coeff, k, triple, F)
            mask.require_completed("masking walk")
            final, _, trace = secret_isogeny(params, BOB, sk_bob, coeff, triple, (), i)
    except SidhlabInputError:
        return OracleVerdict(bit=0, failure_step=-1)
    bit, failure_step = _verdict(params, final, trace, rng)
    return OracleVerdict(bit, failure_step, trace if keep_trace else None)


def _verdict(params: SidhParams, final: ProjCoeff, trace: ChainTrace, rng: random.Random) -> tuple:
    """(bit, failure_step) of a faulted run: bit 0 at the step whose kernel
    failed its order check; otherwise the spot check on the final curve."""
    if not trace.completed:
        return 0, trace.degenerate_at
    if _supersingular_spot_check(params, final, rng, _order_known(trace)):
        return 1, None
    return 0, params.e3


def _order_known(trace: ChainTrace) -> bool:
    """True for a completed chain that no fault moved and that has a row on
    A = 6, i.e. (alpha : beta) = (8 : 4): alpha = 2 beta with beta != 0.
    Its final curve's group is E[p + 1] (the module docstring gives the
    argument)."""
    return (
        trace.completed
        and not trace.fault_moved_curve
        and any(not c.beta.is_zero() and c.alpha == c.beta + c.beta for c in trace.coeffs)
    )


def make_oracle(params: SidhParams, sk_bob: int) -> Callable[[PublicKey, int], int]:
    """Close over a fixed static key; the attack only ever sees the bit."""

    def _oracle(pk: PublicKey, i: int) -> int:
        return oracle(params, sk_bob, pk, i).bit

    return _oracle


def _spot_seed(params: SidhParams, pk: PublicKey, i: int) -> int:
    F = params.field
    material = "|".join((F.encode(pk.xP), F.encode(pk.xQ), F.encode(pk.xPQ), str(i)))
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:8], "big")


def _supersingular_spot_check(
    params: SidhParams, coeff: ProjCoeff, rng: random.Random, order_known: bool = False
) -> bool:
    """Draw SPOT_CHECK_POINTS on-curve points within SPOT_CHECK_TRIES draws
    and require [p+1]P = [2^e2][3^e3]P = infinity for each.

    With order_known, the caller has proven that the curve's group is
    E[p + 1] (a completed, unmoved chain through A = 6; the module docstring
    gives the three facts).  Then each multiple is infinity, so the check
    makes the same draws and returns whether SPOT_CHECK_POINTS came up,
    without multiplying: the same bool, and the rng left in the same state."""
    F = params.field
    try:  # alpha = beta, or a singular curve
        E = MontgomeryCurve(affine_a_from_projective(coeff), F)
    except SidhlabInputError:
        return False
    if order_known:
        draws = curve_x_draws(E, lambda: F.random_element(rng), SPOT_CHECK_TRIES)
        return sum(1 for _ in islice(draws, SPOT_CHECK_POINTS)) == SPOT_CHECK_POINTS
    points = cleared_points(E, rng, SPOT_CHECK_TRIES)
    checked = 0
    for pt in islice(points, SPOT_CHECK_POINTS):
        if not pt.is_infinity():
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
