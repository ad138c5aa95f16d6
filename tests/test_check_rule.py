"""The chain walker's check rule against a walker that checks every kernel.

strategy_eval2, strategy_eval3 and strategy_eval4 check row 0's kernel,
and later rows only after a fault that moved the curve; the isogeny module
docstring argues that no other check can fail, from a singular start too.
Here each must give exactly what helpers.reference_walk gives, and
strategy_eval2 also what helpers.two_power_walk gives, on what the program
feeds them: honest keys, forged instances at each fault index, the masking
walks and their duals, random and edited keys, and singular starting curves.
"""

import random
from collections import Counter

import pytest

from sidhlab import SidhlabInputError, countermeasure, faultsim
from sidhlab.attack import PrefixWalk, forge_public_keys
from sidhlab.countermeasure import PushforwardConfig, derive_bob_randomized
from sidhlab.faultsim import oracle
from sidhlab.isogeny import DegenerateChainError, strategy_eval2, strategy_eval3, strategy_eval4
from sidhlab.montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    XPoint,
    affine_a_from_projective,
    coeff_from_a,
    coeff_ints,
    ladder3pt,
    point_ints,
)
from sidhlab.protocol import ALICE, BOB, chain_inputs, derive, keygen, sample_torsion_x

from helpers import check_each, public_keys, reference_walk, setting, two_power_walk, xmul


def same_run(params, degree, kernel, coeff, push=(), fault_at=None, k=None):
    """Run the chain both ways (a degree-2 chain of k steps three ways),
    assert every output is the same int for int, and return the walker's
    (final, pushed, trace).  A degree-2 chain that raises a SidhlabInputError
    raises it every way."""
    F = params.field
    if degree == 2:
        strategy = list(range(k - 1, 0, -1))
        try:
            got = strategy_eval2(kernel, coeff, k, push, F)
        except SidhlabInputError as exc:
            with pytest.raises(type(exc)):
                reference_walk(2, kernel, coeff, strategy, push, field=F)
            with pytest.raises(type(exc)):
                two_power_walk(kernel, coeff, k, push, F)
            raise
    elif degree == 3:
        strategy = params.strategy3
        got = strategy_eval3(kernel, coeff, strategy, push, fault_at)
    else:
        strategy = params.strategy4
        got = strategy_eval4(kernel, coeff, strategy, push)
    want = reference_walk(degree, kernel, coeff, strategy, push, fault_at, F)
    (final, pushed, trace), (ref_final, ref_pushed, ref_trace) = got, want
    if degree == 2:
        if trace.completed:
            old_final, old_pushed = two_power_walk(kernel, coeff, k, push, F)
            assert coeff_ints(old_final) == coeff_ints(final)
            assert [point_ints(Q) for Q in old_pushed] == [point_ints(Q) for Q in pushed]
        else:
            with pytest.raises(DegenerateChainError):
                two_power_walk(kernel, coeff, k, push, F)
    assert (trace.completed, trace.degenerate_at, trace.fault_fired_at) == (
        ref_trace.completed,
        ref_trace.degenerate_at,
        ref_trace.fault_fired_at,
    )
    assert [coeff_ints(c) for c in trace.coeffs] == [coeff_ints(c) for c in ref_trace.coeffs]
    assert [point_ints(K) for K in trace.kernels] == [point_ints(K) for K in ref_trace.kernels]
    assert [point_ints(Q) for Q in pushed] == [point_ints(Q) for Q in ref_pushed]
    assert coeff_ints(final) == coeff_ints(ref_final)
    return got


def keyed_chain(params, side, sk, pk=None):
    """(kernel, coeff, push) of side's keygen (pk None) or derive on pk."""
    if pk is None:
        coeff, (xP, xQ, xD) = params.coeff0, params.basis_xpoints(side)
        push = params.basis_xpoints(ALICE if side == BOB else BOB)
    else:
        coeff, xP, xQ, xD = chain_inputs(pk, params.field)
        push = ()
    return ladder3pt(sk, xP, xQ, xD, coeff), coeff, push


def degree(side):
    return 3 if side == BOB else 4


@pytest.mark.parametrize("name, keys", [("toy431", 8), ("mid", 8), ("p434", 1)])
def test_honest_keygens_and_derives(name, keys, toy, mid, p434):
    params = {"toy431": toy, "mid": mid, "p434": p434}[name]
    rng = random.Random(20)
    for _ in range(keys):
        sks = {side: params.sample_sk(side, rng) for side in (ALICE, BOB)}
        for side, other in ((ALICE, BOB), (BOB, ALICE)):
            assert same_run(params, degree(side), *keyed_chain(params, side, sks[side]))[2].completed
            pk = keygen(params, other, sks[other])
            assert same_run(params, degree(side), *keyed_chain(params, side, sks[side], pk))[2].completed


def forged_runs(params, keys, indices, rng):
    """(sk, i, pk) for the forged pair of every key and index."""
    for sk in keys:
        walk = PrefixWalk.start(params)
        for i in range(max(indices) + 1):
            if i in indices:
                forged = forge_public_keys(walk, rng)
                yield sk, i, forged.pk
                yield sk, i, forged.pk_second
            walk = walk.step(sk // 3**i % 3)


@pytest.mark.parametrize(
    "name, keys, indices",
    [("toy431", range(27), None), ("mid", (5, 77_777, 1_234_567), None), ("p434", (None,), (0, 1, 67, 135))],
)
def test_forged_instances_at_each_fault_index(name, keys, indices, toy, mid, p434):
    params = {"toy431": toy, "mid": mid, "p434": p434}[name]
    rng = random.Random(21)
    keys = [params.sample_sk(BOB, rng) if sk is None else sk for sk in keys]
    indices = indices or range(params.e3 - 1)
    completed = derailed = 0
    for sk, i, pk in forged_runs(params, keys, indices, rng):
        kernel, coeff, _ = keyed_chain(params, BOB, sk, pk)
        _, _, trace = same_run(params, 3, kernel, coeff, fault_at=i)
        completed += trace.completed
        derailed += trace.degenerate_at == i + 1
        same_run(params, 3, kernel, coeff)
    assert completed > 0 and derailed > 0  # the no-op fault and the curve-moving one


def check_masking_walks(monkeypatch, params):
    """Send every 2^k walk that countermeasure and faultsim run through
    same_run; returns a Counter of the rows at which they met a (0, 0)
    kernel."""
    zero_rows = Counter()

    def eval2(R, coeff, k, push, field):
        got = same_run(params, 2, R, coeff, push, k=k)
        zero_rows.update(row for row, K in enumerate(got[2].kernels) if K.X.is_zero())
        return got

    for module in (countermeasure, faultsim):
        monkeypatch.setattr(module, "strategy_eval2", eval2)
    return zero_rows


@pytest.mark.parametrize("name", ["toy431", "mid"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_masked_chains(name, k, toy, mid):
    """The chains the masked oracle runs: the forged key pushed through a
    random 2^k-isogeny, then the faulted 3-chain."""
    params = {"toy431": toy, "mid": mid}[name]
    F = params.field
    rng = random.Random(22)
    keys = [params.sample_sk(BOB, rng) for _ in range(4)]
    for sk, i, pk in forged_runs(params, keys, range(params.e3 - 1), rng):
        coeff, *triple = chain_inputs(pk, F)
        E_A = MontgomeryCurve(affine_a_from_projective(coeff), F)
        _, R, _ = sample_torsion_x(E_A, 2, k, lambda: F.random_element(rng))
        coeff, triple, _ = same_run(params, 2, R, coeff, triple, k=k)
        same_run(params, 3, ladder3pt(sk, *triple, coeff), coeff, fault_at=i)


@pytest.mark.parametrize("name, ks, derives", [("toy431", (1, 2, 4), 100), ("mid", (1, 2, 4), 10), ("p434", (8,), 2)])
def test_masked_derives(name, ks, derives, monkeypatch, toy, mid, p434):
    """Both walks of derive_bob_randomized, rho and its dual, on honest
    keys; at toy431 they meet (0, 0) kernels at later rows, not only at
    row 0."""
    ps = {"toy431": toy, "mid": mid, "p434": p434}[name]
    zero_rows = check_masking_walks(monkeypatch, ps)
    rng = random.Random(25)
    for k in ks:
        for _ in range(derives):
            ska, skb = ps.sample_sk(ALICE, rng), ps.sample_sk(BOB, rng)
            pka = keygen(ps, ALICE, ska)
            assert derive_bob_randomized(ps, skb, pka, PushforwardConfig(k), rng) == derive(ps, BOB, skb, pka)
    assert zero_rows[0] > 0
    if name == "toy431":
        assert all(zero_rows[row] > 0 for row in range(1, 4)), zero_rows


@pytest.mark.parametrize("name, examples", [("toy431", 300), ("p434", 60)])
def test_random_and_edited_keys(name, examples, monkeypatch):
    ps, sk, _ = setting(name)
    ska = ps.sample_sk(ALICE, random.Random(5))
    check_masking_walks(monkeypatch, ps)

    def check(pk, i):
        for k in (1, 2):
            oracle(ps, sk, pk, i, PushforwardConfig(k), random.Random(i))
        try:
            kernel, coeff, _ = keyed_chain(ps, BOB, sk, pk)
            alice = keyed_chain(ps, ALICE, ska, pk)
        except SidhlabInputError:
            return  # no curve carries the triple
        same_run(ps, 3, kernel, coeff, fault_at=i)
        same_run(ps, 3, kernel, coeff)
        same_run(ps, 4, *alice)

    check_each(public_keys(name, examples, random.Random(0)), check)


@pytest.mark.parametrize("name", ["toy431", "mid"])
def test_singular_starts(name, toy, mid):
    """A = 2, A = -2 and alpha = beta, scaled by a random factor: random
    points and points of exact order 3^e3 and 2^e2 in the group of the
    nodal curve (of order p^2 - 1), with and without a fault."""
    params = {"toy431": toy, "mid": mid}[name]
    F, p = params.field, params.field.p
    rng = random.Random(23)
    completed = 0
    for _ in range(30):
        lam = F.random_nonzero(rng)
        for base in (coeff_from_a(F(2), F), coeff_from_a(F(-2), F), ProjCoeff(F.one, F.one)):
            coeff = ProjCoeff(base.alpha * lam, base.beta * lam)
            P = XPoint(F.random_element(rng), F.one)
            for deg, order in ((3, 3**params.e3), (4, 1 << params.e2)):
                for R in (P, xmul((p * p - 1) // order, P, coeff, F)):
                    if deg == 3:
                        completed += same_run(params, 3, R, coeff, fault_at=rng.randrange(params.e3 - 1))[2].completed
                    completed += same_run(params, deg, R, coeff)[2].completed
    assert completed > 0


@pytest.mark.parametrize("name, keys", [("toy431", range(27)), ("mid", (5, 77_777, 1_234_567, 333))])
def test_bit_zero_fails_at_the_step_after_the_fault(name, keys, toy, mid):
    """The paper's mechanism: a zero injected into a coefficient off GF(p)
    derails the chain at the very next step, so every bit-0 verdict on a
    forged instance has failure_step i + 1."""
    params = {"toy431": toy, "mid": mid}[name]
    rng = random.Random(24)
    zeros = 0
    for sk, i, pk in forged_runs(params, keys, range(params.e3 - 1), rng):
        verdict = oracle(params, sk, pk, i)
        if verdict.bit == 0:
            assert verdict.failure_step == i + 1, (sk, i)
            zeros += 1
    assert zeros > 10
