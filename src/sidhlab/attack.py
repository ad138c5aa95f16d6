"""Adaptive trit-by-trit recovery of the victim's static 3-power private key
from the fault oracle, or from a naive GF(p)-reject's accept/reject bit with
no faults (Galbraith, Petit, Shani and Ti, https://eprint.iacr.org/2016/859).

Per recovered prefix sk and position i, the forger builds a public key that
makes the victim's first i derive steps walk BACKWARD along the honest chain
for sk, landing exactly on the starting A = 6 curve at step i.  The victim's
(i+1)-th kernel is then one of three known order-3 points there, and the
fault verdict reveals which GF(p)-membership class it fell in; at most one
extra instance (a basis shift by [3^i]Q') pins the trit down.

The forger's own copy of the honest chain's first i steps (PrefixWalk) is
carried from trit to trit: each recovered trit costs one forward 3-isogeny
and that step's dual, which is the very step the victim's backtracking walk
takes.  Forging reads E_i and phi(Q) off the walk, and the candidate kernels
push the forged triple back to the A = 6 curve through the cached duals, so
no trit re-walks the chain from E_0.

Sign discipline: public keys carry x-coordinates only, so every scalar
combination here is a chain of differential additions seeded with a genuine
difference x-coordinate, stepped digit by digit through the base-3 digits of
the recovered prefix (_ternary_step): the attacker already knows them, so no
binary ladder is needed.  The only y-coordinates ever recovered are for the
forger's own auxiliary point T against phi(Q) (one square root each); their
signs are arbitrary and cancel, which the sign-robustness test pins down.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional, Sequence

from .field import Fp2
from .isogeny import strategy_eval3, xeval3, xisog3
from .montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    XPoint,
    affine_a_from_projective,
    x_affine,
    xadd,
    xpoint_from_affine,
    xpoint_in_fp,
    xtpl,
    xtpl_e,
)
from .protocol import (
    BOB,
    PublicKey,
    SidhParams,
    keygen,
    sample_torsion_x,
)


class OracleContradictionError(RuntimeError):
    """No trit is consistent with the verdicts: the oracle is broken."""


class ForgedKeys(NamedTuple):
    """The two oracle instances for one trit, plus the candidates' preimages.

    preimages[t] is x(P' + [sk + t*3^i]Q') on pk's curve E_i, where
    (P', Q') is the basis pk describes; candidate_kernels maps them to the
    victim's possible (i+1)-th kernels.
    """

    pk: PublicKey
    pk_second: PublicKey
    preimages: tuple


class AttackState(NamedTuple):
    """The recovered key and the per-trit oracle-call ledger."""

    sk: int
    calls_per_trit: list

    @property
    def total_calls(self) -> int:
        return sum(self.calls_per_trit)


def _ternary_step(a: XPoint, b: XPoint, d: XPoint, trit: int) -> tuple[XPoint, XPoint]:
    """One base-3 digit of a scalar chain: given d = a - b, the new
    a = a + [trit]b and d = (new a) - [3]b, in two differential additions.
    The caller triples b."""
    if trit == 0:
        return a, xadd(xadd(d, b, a), b, d)  # a - 2b, then a - 3b
    if trit == 1:
        return xadd(a, b, d), xadd(d, b, a)  # a + b and a - 2b
    if trit == 2:
        return xadd(xadd(a, b, d), b, a), d  # a + b, then a + 2b; d = a - b stays
    raise ValueError(f"trit {trit} outside 0..2")


class PrefixWalk(NamedTuple):
    """The forger's copy of the first i steps of Bob's chain for a key
    = sk mod 3^i, carried from trit to trit.

    It holds E_i (coeff and its affine A), the x-points a = phi_i(P + [sk]Q),
    b = phi_i([3^i]Q), d = a - b, q = phi_i(Q) and q3 = phi_i([3^(e3-1)]Q),
    and per forward step E_j -> E_(j+1) its dual E_(j+1) -> E_j: the
    3-isogeny with kernel <q3> there, which lands on E_j's exact model.
    The victim's backtracking walk on a forged key takes these dual steps.
    """

    params: SidhParams
    sk: int
    i: int
    coeff: ProjCoeff
    A: Fp2
    a: XPoint
    b: XPoint
    d: XPoint
    q: XPoint
    q3: XPoint
    duals: tuple

    @classmethod
    def start(cls, params: SidhParams) -> "PrefixWalk":
        """The empty walk on E_0, the A = 6 curve."""
        xP, xQ, xD = params.basis_xpoints(BOB)
        coeff = params.coeff0
        q3 = xtpl_e(xQ, coeff, params.e3 - 1)
        return cls(params, 0, 0, coeff, params.field(6), xP, xQ, xD, xQ, q3, ())

    def step(self, trit: int) -> "PrefixWalk":
        """The walk one step further, for the next trit of the key.

        Raises OracleContradictionError when the step's kernel fails its
        order check or its dual misses E_i's model.
        """
        a, d = _ternary_step(self.a, self.b, self.d, trit)
        b = xtpl(self.b, self.coeff)
        kernel = xtpl_e(a, self.coeff, self.params.e3 - self.i - 1)
        coeff, pushed, trace = strategy_eval3(kernel, self.coeff, [], [a, b, d, self.q, self.q3])
        if not trace.completed:
            raise OracleContradictionError(f"attacker chain degenerate at step {self.i}")
        dual = xisog3(pushed[-1])  # kernel <q3> on the new curve
        if affine_a_from_projective(dual.new_coeff) != self.A:
            raise OracleContradictionError(f"dual of step {self.i} misses the model of E_{self.i}")
        return PrefixWalk(
            self.params,
            self.sk + trit * 3**self.i,
            self.i + 1,
            coeff,
            affine_a_from_projective(coeff),
            *pushed,
            self.duals + (dual,),
        )


def prefix_walk(params: SidhParams, sk_prefix: int, i: int) -> PrefixWalk:
    """The walk for any key = sk_prefix mod 3^i, stepped trit by trit from E_0."""
    walk = PrefixWalk.start(params)
    for j in range(i):
        walk = walk.step(sk_prefix // 3**j % 3)
    return walk


def forge_public_keys(walk: PrefixWalk, rng: random.Random) -> ForgedKeys:
    """Build the two adaptive instances for trit i = walk.i given a correct
    prefix sk = walk.sk, with the candidate preimages on their curve.

    For i = 0 the instances are the plain basis (P, Q, P-Q) and its shift
    (P+Q, Q, P), and the preimages are P, P+Q and P+2Q.  For i >= 1, on the
    walk's E_i: find T of order 3^e3 independent of phi(Q) at the order-3
    level, and emit the triples for P' = phi(Q) + [sk]T, Q' = -T and for the
    [3^i]Q'-shifted second instance.  Three chains over the digits of sk
    share one tripling of b = [3^j]T per digit: from (phiQ, phiQ - T) and
    (phiQ + T, phiQ) they end at a = phiQ + [sk]T and phiQ + [sk+1]T, with
    d = a - [3^i]T the second instance's points; a third chain stepping
    with trit 0 ends at phiQ - [3^i]T.  The preimages
    P' + [sk + t*3^i]Q' = phiQ - [t*3^i]T are phiQ, that point and one more
    addition of -[3^i]T.
    """
    params, sk_prefix, i = walk.params, walk.sk, walk.i
    F = params.field
    if i == 0:
        xP, xQ, xD = params.basis_xpoints(BOB)
        x_sum = xadd(xP, xQ, xD)  # P + Q
        pk = PublicKey(params.xPB, params.xQB, params.xDB)
        pk_second = PublicKey(x_affine(x_sum), params.xQB, params.xPB)
        return ForgedKeys(pk, pk_second, (xP, x_sum, xadd(x_sum, xQ, xP)))

    E_i = MontgomeryCurve(walk.A, F)
    # exact order 3^e3, independent of phi(Q) at the order-3 level
    _, T, _ = sample_torsion_x(E_i, 3, params.e3, lambda: F.random_element(rng), avoid=x_affine(walk.q3))
    x_t = x_affine(T)

    x_q = x_affine(walk.q)
    phi_q = (x_q, F.sqrt(E_i.rhs(x_q)))
    y_t = F.sqrt(E_i.rhs(x_t))
    x_sum = xpoint_from_affine(E_i.chord_x(phi_q, (x_t, y_t)), F)  # x(phiQ + T)
    x_dif = xpoint_from_affine(E_i.chord_x(phi_q, (x_t, -y_t)), F)  # x(phiQ - T)

    q, b = walk.q, xpoint_from_affine(x_t, F)
    a1, d1, a2, d2, d0 = q, x_dif, x_sum, q, x_dif
    for j in range(i):
        trit = sk_prefix // 3**j % 3
        a1, d1 = _ternary_step(a1, b, d1, trit)
        a2, d2 = _ternary_step(a2, b, d2, trit)
        _, d0 = _ternary_step(q, b, d0, 0)
        b = xtpl(b, walk.coeff)
    # pk = (P', Q', P' - Q'); pk_second shifts P' and P' - Q' by [3^i]Q'
    pk = PublicKey(x_affine(a1), x_t, x_affine(a2))
    pk_second = PublicKey(x_affine(d1), x_t, x_affine(d2))
    return ForgedKeys(pk, pk_second, (q, d0, xadd(d0, b, q)))


def candidate_kernels(walk: PrefixWalk, forged: ForgedKeys) -> tuple:
    """The three possible (i+1)-th kernels of the victim, as x-points on the
    A = 6 curve, labeled by trit: entry t is the victim's kernel when
    s_i = t and forged.pk was sent, entry (t + 1) % 3 when forged.pk_second was.

    The victim's first i steps on forged.pk have kernel [3^(e3-i)]phi(Q),
    so they are the walk's dual steps: the preimages
    P' + [sk + t*3^i]Q' are pushed back through them to the A = 6 curve
    (i xeval3 calls each) and tripled down to order 3 there.
    """
    params = walk.params
    pts = forged.preimages
    for dual in reversed(walk.duals):
        pts = [xeval3(pt, dual) for pt in pts]
    coeff = params.coeff0
    down = params.e3 - 1 - walk.i
    return tuple(xtpl_e(pt, coeff, down) for pt in pts)


def infer_trit(
    memberships: Sequence[bool],
    oracle: Callable[[PublicKey, int], int],
    forged: ForgedKeys,
    i: int,
) -> tuple[int, int]:
    """Decide trit i from the candidates' GF(p)-memberships, asking the
    oracle forged.pk and, only when that verdict leaves more than one
    trit, forged.pk_second.

    Returns (trit, oracle calls made).  The first verdict b keeps the
    trits t with memberships[t] == b; the second keeps those whose shifted
    candidate (t + 1) mod 3 has its class.  Anything but exactly one trit
    left means the oracle is broken.
    """
    bit = bool(oracle(forged.pk, i))
    cands, calls = [t for t in range(3) if memberships[t] == bit], 1
    if len(cands) > 1:
        bit, calls = bool(oracle(forged.pk_second, i)), 2
        cands = [t for t in cands if memberships[(t + 1) % 3] == bit]
    if len(cands) != 1:
        raise OracleContradictionError(f"{calls} verdicts leave trits {cands} for {tuple(memberships)}")
    return cands[0], calls


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
    sk, calls_per_trit = 0, []
    walk = PrefixWalk.start(params)
    for i in range(params.e3 - 1):
        forged = forge_public_keys(walk, rng)
        memberships = [xpoint_in_fp(c) for c in candidate_kernels(walk, forged)]
        trit, calls = infer_trit(memberships, oracle, forged, i)
        sk += trit * 3**i
        calls_per_trit.append(calls)
        if i < params.e3 - 2:
            walk = walk.step(trit)
    top = _last_trit(params, sk, bob_pk)
    if top is None:
        raise OracleContradictionError("no top trit reproduces the public key")
    return AttackState(sk + top * 3 ** (params.e3 - 1), calls_per_trit)


def faultless_attack(
    params: SidhParams,
    reject_oracle: Callable[[PublicKey], bool],
    bob_pk: PublicKey,
    rng: random.Random,
) -> int:
    """Key recovery against the naive GF(p)-reject using only accept/reject,
    with no fault injections anywhere.

    Guessing trit t of a prefix walk sends the instance that backtracks one
    step further, forge(prefix + t*3^i, i + 1): the victim's walk reaches
    the A = 6 curve at step i+1 whenever the guess is right, so a correct
    guess always rejects.  One depth-first search from E_0 tries t = 0, 1, 2
    at each position, descends only into guesses that reject, and completes
    each full-depth prefix with the top trit that reproduces bob_pk.  An
    honest intermediate curve that already lies in GF(p) makes every guess
    at that position reject; such positions only add branches, which the
    public key prunes at the leaves.  The search gives up after 3^8
    branches.
    """
    budget = 3**8

    def search(walk: PrefixWalk) -> Optional[int]:
        nonlocal budget
        if walk.i == params.e3 - 1:
            top = _last_trit(params, walk.sk, bob_pk)
            return None if top is None else walk.sk + top * 3**walk.i
        for trit in range(3):
            guess = walk.step(trit)
            if not reject_oracle(forge_public_keys(guess, rng).pk):
                continue
            budget -= 1
            if budget < 0:
                raise OracleContradictionError("search budget exhausted")
            found = search(guess)
            if found is not None:
                return found
        return None

    sk = search(PrefixWalk.start(params))
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
