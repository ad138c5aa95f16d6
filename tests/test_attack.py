import itertools
import random

import pytest

from sidhlab.attack import (
    AttackState,
    ForgedKeys,
    OracleContradictionError,
    candidate_kernels,
    forge_public_keys,
    PrefixWalk,
    _ternary_step,
    infer_trit,
    prefix_walk,
    recover_key,
)
from sidhlab.faultsim import make_oracle
from sidhlab.montgomery import (
    affine_a_from_projective,
    ladder3pt,
    x_affine,
    xadd,
    xpoint_in_fp,
    xtpl,
)
from sidhlab.protocol import BOB, derive_with_trace, keygen

from helpers import (
    difference_consistent,
    prefix_chain,
    public_basis,
    reference_candidates,
    reference_forge,
    xpoint_eq,
)


class TestForge:
    def test_i_zero_is_the_public_basis(self, toy, rng):
        forged = forge_public_keys(prefix_walk(toy, 0, 0), rng)
        assert forged.pk == public_basis(toy, BOB)
        # second instance: (P+Q, Q, P)
        assert forged.pk_second.xQ == toy.xQB
        assert forged.pk_second.xPQ == toy.xPB

    def test_instances_are_consistent_triples(self, toy, rng):
        from sidhlab.protocol import get_a

        F = toy.field
        for i in (1, 2):
            forged = forge_public_keys(prefix_walk(toy, 4 % 3**i, i), rng)
            for pk in (forged.pk, forged.pk_second):
                A = get_a(pk, F)
                assert difference_consistent(pk.xP, pk.xQ, pk.xPQ, A, F)

    def test_deterministic_under_seed(self, toy):
        f1 = forge_public_keys(prefix_walk(toy, 2, 1), random.Random(9))
        f2 = forge_public_keys(prefix_walk(toy, 2, 1), random.Random(9))
        assert f1.pk == f2.pk and f1.pk_second == f2.pk_second

    def test_auxiliary_point_independence(self, toy):
        """T never shares its order-3 subgroup with phi(Q): the two
        backtracking directions stay distinct (rejection rule)."""
        from sidhlab.montgomery import coeff_from_a, ladder3pt, xpoint_from_affine, xtpl_e
        from sidhlab.protocol import get_a

        F = toy.field
        for seed in range(8):
            rng = random.Random(seed)
            i = 1
            prefix = 2
            forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
            A = get_a(forged.pk, F)
            coeff = coeff_from_a(A, F)
            xQp = xpoint_from_affine(forged.pk.xQ, F)  # x(Q') = x(T)
            xPp = xpoint_from_affine(forged.pk.xP, F)
            xDp = xpoint_from_affine(forged.pk.xPQ, F)
            # phi(Q) = P' + [prefix]Q'
            phi_q = ladder3pt(prefix, xPp, xQp, xDp, coeff)
            t_top = xtpl_e(xQp, coeff, toy.e3 - 1)
            q_top = xtpl_e(phi_q, coeff, toy.e3 - 1)
            assert not xpoint_eq(t_top, q_top)


class TestCandidates:
    def test_labels_match_victim_kernels(self, toy):
        """candidates[s_i] is the victim's actual (i+1)-th kernel for the
        first instance; the second instance shifts by one."""
        rng = random.Random(48)
        for sk in range(27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                walk = prefix_walk(toy, prefix, i)
                forged = forge_public_keys(walk, rng)
                cands = candidate_kernels(walk, forged)
                s_i = (sk // 3**i) % 3
                _, tr1 = derive_with_trace(toy, BOB, sk, forged.pk)
                assert xpoint_eq(tr1.kernels[i], cands[s_i])
                _, tr2 = derive_with_trace(toy, BOB, sk, forged.pk_second)
                assert xpoint_eq(tr2.kernels[i], cands[(s_i + 1) % 3])

    def test_distinct_order3_points(self, toy, rng):
        for i in range(toy.e3 - 1):
            walk = prefix_walk(toy, 1 % 3**i if i else 0, i)
            forged = forge_public_keys(walk, rng)
            cands = candidate_kernels(walk, forged)
            xs = {(int(x_affine(c).re), int(x_affine(c).im)) for c in cands}
            assert len(xs) == 3
            for c in cands:
                assert xtpl(c, toy.coeff0).is_infinity()

    def test_membership_split_matches_table(self, toy, rng):
        """Membership counts are always a (1,2) split: the six realizable
        rows of the instance table."""
        for seed in range(10):
            r = random.Random(seed)
            for i in range(toy.e3 - 1):
                prefix = seed % 3**i if i else 0
                walk = prefix_walk(toy, prefix, i)
                forged = forge_public_keys(walk, r)
                cands = candidate_kernels(walk, forged)
                m = [xpoint_in_fp(c) for c in cands]
                assert sum(m) in (1, 2)


class TestCarriedWalk:
    def test_walk_matches_fresh_recipe_and_victim(self, mid):
        """For several keys and every i: the forged pair equals the fresh
        i-step recipe's, the candidates equal the victim's (i+1)-th kernels
        on both instances, and every dual step lands on its forward model."""
        F = mid.field
        keys = random.Random(7).sample(range(3**mid.e3), 4)
        for sk in keys:
            walk = PrefixWalk.start(mid)
            models = []
            for i in range(mid.e3 - 1):
                prefix = sk % 3**i
                assert (walk.i, walk.sk) == (i, prefix)
                models.append(walk.A)
                for j, dual in enumerate(walk.duals):
                    assert affine_a_from_projective(dual.new_coeff) == models[j], (sk, i, j)
                final, _, _ = prefix_chain(mid, prefix, i, (mid.coeff0, *mid.basis_xpoints(BOB)), ())
                assert walk.A == affine_a_from_projective(final)

                forged = forge_public_keys(walk, random.Random(sk + i))
                if i == 0:
                    assert forged.pk == public_basis(mid, BOB)
                else:
                    ref = reference_forge(mid, prefix, i, random.Random(sk + i))
                    assert (forged.pk, forged.pk_second) == ref, (sk, i)
                cands = candidate_kernels(walk, forged)
                ref_cands = reference_candidates(walk, forged.pk)
                assert [x_affine(c) for c in cands] == [x_affine(c) for c in ref_cands], (sk, i)
                s_i = sk // 3**i % 3
                for pk, t in ((forged.pk, s_i), (forged.pk_second, (s_i + 1) % 3)):
                    _, trace = derive_with_trace(mid, BOB, sk, pk)
                    assert trace.completed
                    if i:
                        assert affine_a_from_projective(trace.coeffs[i]) == F(6)
                    assert x_affine(trace.kernels[i]) == x_affine(cands[t]), (sk, i)
                walk = walk.step(s_i)

    def test_prefix_walk_steps_through_the_prefix(self, toy):
        walk = prefix_walk(toy, 5, 2)
        assert (walk.i, walk.sk, len(walk.duals)) == (2, 5, 2)
        assert walk == PrefixWalk.start(toy).step(2).step(1)

    def test_step_rejects_a_non_trit(self, toy):
        with pytest.raises(ValueError):
            PrefixWalk.start(toy).step(3)


def _chain(xP, xQ, xD, k, digits, coeff):
    """x(P + [k]Q) and x(P + [k - 3^digits]Q) by _ternary_step over the
    base-3 digits of k, from x(P), x(Q) and x(P - Q)."""
    a, b, d = xP, xQ, xD
    for j in range(digits):
        a, d = _ternary_step(a, b, d, k // 3**j % 3)
        b = xtpl(b, coeff)
    return a, d


class TestTernaryChains:
    """The digit chains agree with the binary three-point ladder."""

    @staticmethod
    def _check(params, k, digits):
        coeff = params.coeff0
        xP, xQ, xD = params.basis_xpoints(BOB)
        a, d = _chain(xP, xQ, xD, k, digits, coeff)
        assert x_affine(a) == x_affine(ladder3pt(k, xP, xQ, xD, coeff)), (k, digits)
        # P + [k - 3^m]Q = P + [3^m - k](-Q), whose difference with P is P + Q
        xS = xadd(xP, xQ, xD)
        assert x_affine(d) == x_affine(ladder3pt(3**digits - k, xP, xQ, xS, coeff)), (k, digits)

    def test_every_scalar_on_toy431(self, toy):
        for digits in range(toy.e3 + 1):
            for k in range(3**digits):
                self._check(toy, k, digits)

    def test_random_scalars_on_p434(self, p434):
        r = random.Random(434)
        for digits in (1, 5, 40, p434.e3):
            self._check(p434, r.randrange(3**digits), digits)

    def test_rejects_a_non_trit(self, toy):
        xP, xQ, xD = toy.basis_xpoints(BOB)
        with pytest.raises(ValueError):
            _ternary_step(xP, xQ, xD, 3)


def test_first_p434_trits_match_the_ladder_recipes(p434):
    """On p434, the forged pairs equal the fresh-walk ladder recipe and the
    candidates equal the three-ladder recipe by affine x."""
    sk = random.Random(5).randrange(3**p434.e3)
    walk = PrefixWalk.start(p434)
    for i in range(4):
        forged = forge_public_keys(walk, random.Random(i))
        if i:
            assert (forged.pk, forged.pk_second) == reference_forge(p434, walk.sk, i, random.Random(i))
        cands = candidate_kernels(walk, forged)
        ref = reference_candidates(walk, forged.pk)
        assert [x_affine(c) for c in cands] == [x_affine(c) for c in ref], i
        walk = walk.step(sk // 3**i % 3)


class ScriptedOracle:
    """Answers bits[0] to the first query and bits[1] to the second, and
    records which of the two instances each query sent."""

    def __init__(self, *bits):
        self.bits, self.asked = list(bits), []

    def __call__(self, pk, i):
        assert i == 4
        self.asked.append(pk)
        return self.bits[len(self.asked) - 1]


FORGED = ForgedKeys("pk", "pk_second", ())


class TestInferTrit:
    def decide(self, memberships, *bits):
        oracle = ScriptedOracle(*bits)
        return infer_trit(memberships, oracle, FORGED, 4), oracle.asked

    def test_single_call_hit(self):
        # memberships: only candidate 0 in GF(p); verdict 1 => trit 0
        assert self.decide((True, False, False), 1) == ((0, 1), ["pk"])

    def test_two_calls_resolves_two(self):
        # same row, verdicts (0, then 1) => trit 2
        assert self.decide((True, False, False), 0, 1) == ((2, 2), ["pk", "pk_second"])

    def test_two_calls_elimination(self):
        # same row, verdicts (0, 0) => trit 1 by discard
        assert self.decide((True, False, False), 0, 0) == ((1, 2), ["pk", "pk_second"])

    def test_undecided_asks_for_second(self):
        # verdict 0 leaves trits 1 and 2, so the second instance is asked
        _, asked = self.decide((True, False, False), 0, 1)
        assert asked == ["pk", "pk_second"]

    def test_verdicts_are_read_as_bools(self):
        assert self.decide((False, True, False), 7) == ((1, 1), ["pk"])
        assert self.decide((False, True, False), 0, 5) == ((0, 2), ["pk", "pk_second"])

    def test_contradictions(self):
        cases = [
            ((False, False, False), (1,), ["pk"]),  # no trit left: no second query
            ((True, True, True), (0,), ["pk"]),
            # three trits left: the second instance is asked, and cannot settle them
            ((True, True, True), (1, 1), ["pk", "pk_second"]),
        ]
        for memberships, bits, asked in cases:
            oracle = ScriptedOracle(*bits)
            with pytest.raises(OracleContradictionError):
                infer_trit(memberships, oracle, FORGED, 4)
            assert oracle.asked == asked

    def test_second_instance_asked_exactly_when_more_than_one_trit_is_left(self):
        for memberships in itertools.product((False, True), repeat=3):
            for first, second in itertools.product((0, 1), repeat=2):
                left = sum(m == bool(first) for m in memberships)
                oracle = ScriptedOracle(first, second)
                try:
                    infer_trit(memberships, oracle, FORGED, 4)
                except OracleContradictionError:
                    pass
                assert oracle.asked == (["pk", "pk_second"] if left > 1 else ["pk"])


class TestRecovery:
    def test_exhaustive_toy_three_seeds(self, toy):
        for seed in (1, 2, 3):
            for sk in toy.sk_range(BOB):
                orc = make_oracle(toy, sk)
                state = recover_key(toy, orc, keygen(toy, BOB, sk), random.Random(seed))
                assert state.sk % 27 == sk % 27

    def test_call_bounds(self, toy):
        for sk in range(27):
            orc = make_oracle(toy, sk)
            state = recover_key(toy, orc, keygen(toy, BOB, sk), random.Random(5))
            assert all(c in (1, 2) for c in state.calls_per_trit)
            assert toy.e3 - 1 <= state.total_calls <= 2 * (toy.e3 - 1)
            assert len(state.calls_per_trit) == toy.e3 - 1

    def test_sign_robustness(self, toy):
        """Negating phi(Q) in the forger relabels the +-T candidates
        coherently: the inferred trit never changes."""
        for sk in range(27):
            i = 1
            prefix = sk % 3
            orc = make_oracle(toy, sk)
            walk = prefix_walk(toy, prefix, i)
            trits = []
            for negate in (False, True):
                pk, pk_second = reference_forge(toy, prefix, i, random.Random(60), negate)
                m = [xpoint_in_fp(c) for c in reference_candidates(walk, pk)]
                trits.append(infer_trit(m, orc, ForgedKeys(pk, pk_second, ()), i)[0])
            assert trits[0] == trits[1] == (sk // 3) % 3

    def test_broken_oracle_raises(self, toy, rng):
        state_calls = {"n": 0}

        def broken(pk, i):
            state_calls["n"] += 1
            return state_calls["n"] % 2  # alternating nonsense

        with pytest.raises(OracleContradictionError):
            for sk in range(1, 9):
                recover_key(toy, broken, keygen(toy, BOB, sk), random.Random(1))

    def test_attack_state_totals(self):
        st = AttackState(sk=5, calls_per_trit=[1, 2, 2, 1])
        assert st.total_calls == 6
