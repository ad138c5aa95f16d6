"""Adaptive trit-by-trit recovery of the victim's static 3-power private key
from the fault oracle, or from a naive GF(p)-reject's accept/reject bit with
no faults (Galbraith, Petit, Shani and Ti, https://eprint.iacr.org/2016/859).

Per recovered prefix sk and position i, the forger builds a public key that
makes the victim's first i derive steps walk BACKWARD along the honest chain
for sk, landing exactly on the starting A = 6 curve at step i.  The victim's
(i+1)-th kernel is then one of three known order-3 points there, and the
fault verdict reveals which GF(p)-membership class it fell in; at most one
extra instance (a basis shift by [3^i]Q') pins the trit down.

Sign discipline: public keys carry x-coordinates only, so every scalar
combination here runs through the three-point ladder seeded with a genuine
difference x-coordinate.  The only y-coordinates ever recovered are for the
forger's own auxiliary point T against phi(Q) (one square root each); their
signs are arbitrary and cancel, which the sign-robustness test pins down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

from .field import Fp2
from .montgomery import (
    MontgomeryCurve,
    XPoint,
    affine_a_from_projective,
    coeff_from_a,
    ladder3pt,
    x_affine,
    xpoint_from_affine,
    xpoint_in_fp,
    xtpl_e,
)
from .protocol import (
    BOB,
    PublicKey,
    SidhParams,
    chain_inputs,
    keygen,
    prefix_chain,
    sample_torsion_x,
)


class OracleContradictionError(RuntimeError):
    """No trit is consistent with the verdicts: the oracle is broken."""


@dataclass
class ForgedKeys:
    """The two oracle instances for one trit, plus candidate bookkeeping.

    candidates[t] (filled by candidate_kernels) is the x-point of the
    victim's (i+1)-th kernel if the trit is t and pk was sent; the second
    instance shifts the mapping to candidates[(t + 1) % 3].
    """

    pk: PublicKey
    pk_second: PublicKey
    candidates: Optional[tuple] = None


@dataclass
class AttackState:
    """Recovered prefix so far plus the per-trit oracle-call ledger."""

    sk: int = 0
    calls_per_trit: list = dc_field(default_factory=list)

    @property
    def total_calls(self) -> int:
        return sum(self.calls_per_trit)


def forge_public_keys(
    params: SidhParams,
    sk_prefix: int,
    i: int,
    rng: random.Random,
    negate_phi_q: bool = False,
) -> ForgedKeys:
    """Build the two adaptive instances for trit i given a correct prefix.

    For i = 0 the instances are the plain basis (P, Q, P-Q) and its shift
    (P+Q, Q, P).  For i >= 1: walk phi: E -> E_i with kernel
    [3^(e3-i)](P + [sk_prefix]Q), find T of order 3^e3 on E_i independent of
    phi(Q) at the order-3 level, and emit the triples for P' = phi(Q) +
    [sk_prefix]T, Q' = -T and for the [3^i]Q'-shifted second instance.

    negate_phi_q flips the recovered sign of phi(Q); it exists to exercise
    the sign-robustness property and must not change any verdict.
    """
    F = params.field
    if i == 0:
        E = params.curve
        P = E.lift_x(params.xPB)
        Q = E.lift_x(params.xQB)
        if E.sub(P, Q).x != params.xDB:
            Q = E.negate(Q)
        pk = PublicKey(params.xPB, params.xQB, params.xDB)
        pk_second = PublicKey(E.add(P, Q).x, params.xQB, params.xPB)
        return ForgedKeys(pk=pk, pk_second=pk_second)

    basis = params.basis_xpoints(BOB)
    final, pushed, trace = prefix_chain(params, sk_prefix, i, (params.coeff0, *basis), [basis[1]])
    if not trace.completed:
        raise OracleContradictionError(f"attacker chain degenerate at step {trace.degenerate_at}")
    A_i = affine_a_from_projective(final)
    E_i = MontgomeryCurve(A_i, F)
    coeff_i = coeff_from_a(A_i, F)
    x_phiq = x_affine(pushed[0])
    xq_pt = xpoint_from_affine(x_phiq, F)
    anchor_x = x_affine(xtpl_e(xq_pt, coeff_i, params.e3 - 1))
    # exact order 3^e3, independent of phi(Q) at the order-3 level
    x_t = x_affine(sample_torsion_x(params, E_i, 3, params.e3, rng, avoid=anchor_x))

    phi_q = E_i.lift_x(x_phiq)
    if negate_phi_q:
        phi_q = E_i.negate(phi_q)
    t_full = E_i.lift_x(x_t)
    x_sum = E_i.add(phi_q, t_full).x  # x(phiQ + T)
    x_dif = E_i.sub(phi_q, t_full).x  # x(phiQ - T)

    xt_pt = xpoint_from_affine(x_t, F)
    dif_pt = xpoint_from_affine(x_dif, F)
    sum_pt = xpoint_from_affine(x_sum, F)

    def combo(m: int, diff: XPoint) -> Fp2:
        # x(phiQ + [m]T) with diff = x(phiQ - T); x(phiQ - [m]T) with the sum
        return x_affine(ladder3pt(m, xq_pt, xt_pt, diff, coeff_i))

    # P' = phiQ + [sk]T, Q' = -T: the triple is (P', Q', P' + T)
    pk = PublicKey(combo(sk_prefix, dif_pt), x_t, combo(sk_prefix + 1, dif_pt))
    # P' + [3^i]Q' = phiQ - [3^i - sk]T and its Q'-difference one step back
    m2 = 3**i - sk_prefix
    pk_second = PublicKey(combo(m2, sum_pt), x_t, combo(m2 - 1, sum_pt))
    return ForgedKeys(pk=pk, pk_second=pk_second)


def candidate_kernels(
    params: SidhParams,
    sk_prefix: int,
    i: int,
    forged: ForgedKeys,
) -> tuple:
    """The three possible (i+1)-th kernels of the victim, as x-points on the
    A = 6 curve, labeled by trit: candidates[t] = the victim's kernel when
    s_i = t and forged.pk was sent.

    Computed by replaying the victim's backtracking walk on forged.pk (its
    kernel [3^(e3-i)](P' + [sk_prefix]Q') is known to the forger), pushing
    the whole pk triple through, then laddering [3^(e3-1-i)](P~ + [k_t]Q~)
    with k_t = sk_prefix + t*3^i on the landing curve.
    """
    inputs = chain_inputs(forged.pk, params.field)
    final, (pP, pQ, pD), trace = prefix_chain(params, sk_prefix, i, inputs, inputs[1:])
    if not trace.completed:
        raise OracleContradictionError(f"attacker chain degenerate at step {trace.degenerate_at}")
    down = params.e3 - 1 - i
    cands = []
    for t in range(3):
        k_t = sk_prefix + t * 3**i
        cands.append(xtpl_e(ladder3pt(k_t, pP, pQ, pD, final), final, down))
    forged.candidates = tuple(cands)
    return forged.candidates


def infer_trit(
    memberships: Sequence[bool],
    verdicts: Sequence[int],
) -> tuple[Optional[int], int]:
    """Decide the trit from candidate GF(p)-memberships and oracle bits.

    Returns (trit, calls); trit is None when one verdict is not enough and
    the second instance must be queried.  With c_b candidates in the class
    the first verdict b selected: one candidate decides immediately; two
    are separated by the second verdict, whose class is the membership of
    candidate (t+1) mod 3; zero means the oracle is broken.
    """
    m = tuple(bool(x) for x in memberships)
    if len(m) != 3:
        raise ValueError("three candidate memberships required")
    b1 = bool(verdicts[0])
    cands = [t for t in range(3) if m[t] == b1]
    if not cands:
        raise OracleContradictionError(f"verdict {int(b1)} matches no candidate of {m}")
    if len(cands) == 1:
        return cands[0], len(verdicts)
    if len(verdicts) == 1:
        return None, 1
    b2 = bool(verdicts[1])
    picks = [t for t in cands if m[(t + 1) % 3] == b2]
    if len(picks) != 1:
        raise OracleContradictionError(
            f"verdicts ({int(b1)}, {int(b2)}) leave {len(picks)} of {cands} for {m}"
        )
    return picks[0], len(verdicts)


def recover_key(
    params: SidhParams,
    oracle: Callable[[PublicKey, int], int],
    bob_pk: PublicKey,
    rng: random.Random,
) -> AttackState:
    """Full key recovery: trits 0..e3-2 adaptively through the oracle, the
    top trit by brute force against the victim's public key.

    The oracle wraps the fixed static key and returns the verdict bit.
    """
    state = AttackState()
    for i in range(params.e3 - 1):
        forged = forge_public_keys(params, state.sk, i, rng)
        cands = candidate_kernels(params, state.sk, i, forged)
        memberships = tuple(xpoint_in_fp(c) for c in cands)
        verdicts = [oracle(forged.pk, i)]
        trit, calls = infer_trit(memberships, verdicts)
        if trit is None:
            verdicts.append(oracle(forged.pk_second, i))
            trit, calls = infer_trit(memberships, verdicts)
        state.sk += trit * 3**i
        state.calls_per_trit.append(calls)
    top = _last_trit(params, state.sk, bob_pk)
    if top is None:
        raise OracleContradictionError("no top trit reproduces the public key")
    state.sk += top * 3 ** (params.e3 - 1)
    return state


def faultless_attack(
    params: SidhParams,
    reject_oracle: Callable[[PublicKey], bool],
    bob_pk: PublicKey,
    rng: random.Random,
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
    # over rejecting guesses, pruning branches where nothing rejects, and
    # giving up after 3^8 branches.
    budget = [3**8]

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


def _last_trit(params: SidhParams, prefix: int, bob_pk: PublicKey) -> Optional[int]:
    """Brute force s_(e3-1): the first t whose completion prefix + t*3^(e3-1)
    has exactly the victim's public key; None when no completion does (some
    lower trit is wrong).  All three keygens always run, so the cost of the
    search does not depend on the key."""
    top = 3 ** (params.e3 - 1)
    pks = [keygen(params, BOB, prefix + t * top) for t in range(3)]
    return next((t for t, pk in enumerate(pks) if pk == bob_pk), None)
