"""Test-only helpers: views of the parameters and curves that the program
itself never needs, and the forger's earlier recipes, kept as references for
sidhlab.attack: the forged pair from a fresh ladder and strategy walk from
E_0 per call, and the candidate kernels from three binary ladders over the
pushed-back forged triple.
"""

import random

from sidhlab.attack import OracleContradictionError
from sidhlab.isogeny import ChainTrace, balanced_strategy, strategy_eval3, xeval3
from sidhlab.montgomery import (
    FullPoint,
    MontgomeryCurve,
    affine_a_from_projective,
    coeff_from_a,
    ladder3pt,
    x_affine,
    xpoint_from_affine,
    xtpl_e,
)
from sidhlab.protocol import ALICE, BOB, PublicKey, chain_inputs, sample_torsion_x


def public_basis(params, side):
    """The starting-curve basis triple viewed as a PublicKey."""
    if side == ALICE:
        return PublicKey(params.xPA, params.xQA, params.xDA)
    return PublicKey(params.xPB, params.xQB, params.xDB)


def on_curve(curve: MontgomeryCurve, P: FullPoint) -> bool:
    if P.infinity:
        return True
    return P.y.sqr() == curve.rhs(P.x)


def prefix_chain(params, sk_prefix, i, inputs, push):
    """The first i steps of Bob's chain for any key = sk_prefix mod 3^i:
    kernel [3^(e3-i)](P + [sk_prefix]Q) from inputs = (coeff, x(P), x(Q),
    x(P - Q)), pushing the given points; strategy_eval3's result shape."""
    coeff, xP, xQ, xD = inputs
    if i == 0:
        return coeff, list(push), ChainTrace(coeffs=[coeff])
    kernel = xtpl_e(ladder3pt(sk_prefix, xP, xQ, xD, coeff), coeff, params.e3 - i)
    return strategy_eval3(kernel, coeff, balanced_strategy(i), push)


def debug_assert_forced_curve(params, sk_prefix, pk, i) -> bool:
    """Replay the victim's first i steps on pk (kernel [3^(e3-i)](P'+[sk]Q'),
    which the forger arranged to be the backtracking walk) and confirm the
    i-th codomain is exactly the A = 6 curve."""
    final, _, trace = prefix_chain(params, sk_prefix, i, chain_inputs(pk, params.field), ())
    return trace.completed and affine_a_from_projective(final) == params.field(6)


def reference_forge(params, sk_prefix: int, i: int, rng: random.Random) -> tuple:
    """The forged pair (pk, pk_second) for trit i >= 1 built from a fresh
    i-step walk of E_0, a fresh anchor [3^(e3-1)]phi(Q) and four binary
    ladders; the same random draws as attack.forge_public_keys."""
    F = params.field
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
    x_t = x_affine(sample_torsion_x(params, E_i, 3, params.e3, rng, avoid=anchor_x))

    phi_q = E_i.lift_x(x_phiq)
    t_full = E_i.lift_x(x_t)
    xt_pt = xpoint_from_affine(x_t, F)
    dif_pt = xpoint_from_affine(E_i.sub(phi_q, t_full).x, F)
    sum_pt = xpoint_from_affine(E_i.add(phi_q, t_full).x, F)

    def combo(m, diff):
        return x_affine(ladder3pt(m, xq_pt, xt_pt, diff, coeff_i))

    pk = PublicKey(combo(sk_prefix, dif_pt), x_t, combo(sk_prefix + 1, dif_pt))
    m2 = 3**i - sk_prefix
    pk_second = PublicKey(combo(m2, sum_pt), x_t, combo(m2 - 1, sum_pt))
    return pk, pk_second


def reference_candidates(walk, pk: PublicKey) -> tuple:
    """The candidate kernels for the walk's trit from the forged pk alone:
    the triple pushed back through the walk's duals to the A = 6 curve, then
    [3^(e3-1-i)](P~ + [sk + t*3^i]Q~) by a three-point ladder for each t."""
    params, i = walk.params, walk.i
    F = params.field
    pts = [xpoint_from_affine(x, F) for x in (pk.xP, pk.xQ, pk.xPQ)]
    for dual in reversed(walk.duals):
        pts = [xeval3(pt, dual) for pt in pts]
    coeff = params.coeff0
    return tuple(
        xtpl_e(ladder3pt(walk.sk + t * 3**i, *pts, coeff), coeff, params.e3 - 1 - i)
        for t in range(3)
    )
