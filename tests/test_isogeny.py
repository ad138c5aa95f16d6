import random

import pytest

from sidhlab.isogeny import (
    StrategyError,
    balanced_strategy,
    strategy_eval3,
    strategy_eval4,
    xeval3,
    xeval4,
    xisog3,
    xisog4,
)
from sidhlab.montgomery import (
    affine_a_from_projective,
    coeff_in_fp,
    j_invariant,
    xtpl_e,
    zero_imaginary_parts,
)

from helpers import ReferenceCurve, ref_xdbl_e, sample_point_of_order, schedule, start_curve, xpoint


@pytest.fixture(scope="module")
def E(F431):
    return ReferenceCurve(F431(6), F431)


def all_points_of_order(E, d, rng, rounds=500):
    found = {}
    for _ in range(rounds):
        P = sample_point_of_order(E, d, rng)
        found[(int(P.x.re), int(P.x.im))] = P
    return list(found.values())


class TestIsogeny3:
    def test_kernel_maps_to_infinity(self, E, rng):
        K = sample_point_of_order(E, 3, rng)
        step = xisog3(xpoint(E, K))
        assert xeval3(xpoint(E, K), step).Z.is_zero()

    def test_first_bob_codomain_over_fp(self, toy):
        """The 3-isogeny built from the GF(p)-x kernel below the public basis
        lands on a GF(p) coefficient."""
        coeff = toy.coeff0
        xP, _, _ = toy.basis_xpoints("bob")
        K = xtpl_e(xP, coeff, toy.e3 - 1)
        step = xisog3(K)
        assert coeff_in_fp(step.new_coeff)
        assert affine_a_from_projective(step.new_coeff).im == 0

    def test_dual_kernel_returns_to_domain_j(self, F431, E, rng):
        """For kernel <K> with E[3] = <K, Q>: the 3-isogeny from the codomain
        with kernel <phi(Q)> lands on a curve with the domain's j."""
        K = sample_point_of_order(E, 3, rng)
        Q = sample_point_of_order(E, 3, rng)
        while Q.x == K.x:
            Q = sample_point_of_order(E, 3, rng)
        step = xisog3(xpoint(E, K))
        imgQ = xeval3(xpoint(E, Q), step)
        back = xisog3(imgQ)
        assert j_invariant(affine_a_from_projective(back.new_coeff), F431) == j_invariant(E.A, F431)


class TestIsogeny4:
    def test_kernel_maps_to_infinity(self, F431, E, rng):
        for K in all_points_of_order(E, 4, rng):
            xp = xpoint(E, K)
            if (xp.X - xp.Z).is_zero() or (xp.X + xp.Z).is_zero():
                continue
            assert xeval4(xp, xisog4(xp)).Z.is_zero()

    def test_image_order_bookkeeping(self, F431, E, rng):
        while True:
            P16 = sample_point_of_order(E, 16, rng)
            K = E.scalar_mul(4, P16)
            xp = xpoint(E, K)
            if not ((xp.X - xp.Z).is_zero() or (xp.X + xp.Z).is_zero()):
                break
        step = xisog4(xp)
        img = xeval4(xpoint(E, P16), step)
        cc = step.new_coeff
        assert ref_xdbl_e(img, cc, 2).is_infinity()
        assert not ref_xdbl_e(img, cc, 1).is_infinity()


class TestStrategyEval:
    def test_matches_naive_loop(self, toy, rng):
        """Final j of the strategy walk equals the plain quadratic loop that
        re-triples the running kernel at every step."""
        F = toy.field
        E = start_curve(toy)
        coeff = toy.coeff0
        for _ in range(10):
            R = sample_point_of_order(E, 27, rng)
            final, _, trace = strategy_eval3(xpoint(E, R), coeff, toy.strategy3)
            assert trace.completed
            cur, cc = xpoint(E, R), coeff
            for j in range(3):
                K = xtpl_e(cur, cc, 3 - 1 - j)
                step = xisog3(K)
                cur = xeval3(cur, step)
                cc = step.new_coeff
            assert j_invariant(affine_a_from_projective(final), F) == j_invariant(
                affine_a_from_projective(cc), F
            )

    def test_strategy_independence(self, toy, rng):
        E = start_curve(toy)
        R = sample_point_of_order(E, 27, rng)
        f1, _, _ = strategy_eval3(xpoint(E, R), toy.coeff0, [1, 1])
        f2, _, _ = strategy_eval3(xpoint(E, R), toy.coeff0, [2, 1])
        F = toy.field
        assert j_invariant(affine_a_from_projective(f1), F) == j_invariant(
            affine_a_from_projective(f2), F
        )

    def test_pushed_points_keep_their_order(self, toy, rng):
        E = start_curve(toy)
        R = sample_point_of_order(E, 27, rng)
        PA = sample_point_of_order(E, 16, rng)
        final, pushed, trace = strategy_eval3(
            xpoint(E, R), toy.coeff0, toy.strategy3, [xpoint(E, PA)]
        )
        assert trace.completed
        img = pushed[0]
        assert ref_xdbl_e(img, final, 4).is_infinity()
        assert not ref_xdbl_e(img, final, 3).is_infinity()

    def test_eval4_round_trip_keygen(self, toy, rng):
        """Alice keygen then Bob derive agree with the mirror direction."""
        from sidhlab.protocol import ALICE, BOB, derive, keygen

        ska, skb = 5, 7
        assert derive(toy, BOB, skb, keygen(toy, ALICE, ska)) == derive(
            toy, ALICE, ska, keygen(toy, BOB, skb)
        )

    def test_eval4_all_ones_strategy(self, toy, rng):
        # honest-form kernel P + [sk]Q: the basis convention keeps every
        # 4-isogeny step away from the excluded x = +-1 kernels
        from sidhlab.montgomery import ladder3pt

        xP, xQ, xD = toy.basis_xpoints("alice")
        R = ladder3pt(5, xP, xQ, xD, toy.coeff0)
        f1, _, t1 = strategy_eval4(R, toy.coeff0, [1])
        f2, _, t2 = strategy_eval4(R, toy.coeff0, balanced_strategy(2))
        assert t1.completed and t2.completed
        F = toy.field
        assert j_invariant(affine_a_from_projective(f1), F) == j_invariant(
            affine_a_from_projective(f2), F
        )


class TestFaultHook:
    def _trace_for(self, toy, sk, i, rng):
        from sidhlab.attack import forge_public_keys, prefix_walk
        from sidhlab.protocol import BOB, derive_with_trace

        prefix = sk % 3**i if i else 0
        forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
        final, trace = derive_with_trace(toy, BOB, sk, forged.pk, i)
        base_final, base_trace = derive_with_trace(toy, BOB, sk, forged.pk)
        return final, trace, base_final, base_trace

    def test_noop_when_coefficient_in_fp(self, toy):
        """Zeroing the imaginary parts of a GF(p) coefficient leaves the
        affine A of every later step literally unchanged."""
        F = toy.field
        rng = random.Random(17)
        found = 0
        for sk in range(27):
            for i in range(toy.e3 - 1):
                final, tr, base_final, base_tr = self._trace_for(toy, sk, i, rng)
                assert tr.fault_fired_at == i
                if not coeff_in_fp(base_tr.coeffs[i + 1]):
                    continue
                found += 1
                assert tr.completed
                for step in range(i + 1, toy.e3 + 1):
                    assert affine_a_from_projective(tr.coeffs[step]) == (
                        affine_a_from_projective(base_tr.coeffs[step])
                    )
        assert found > 10

    def test_garbage_when_coefficient_outside_fp(self, toy):
        rng = random.Random(18)
        for sk in range(27):
            for i in range(toy.e3 - 1):
                final, tr, base_final, base_tr = self._trace_for(toy, sk, i, rng)
                if coeff_in_fp(base_tr.coeffs[i + 1]):
                    continue
                assert not tr.completed
                assert tr.degenerate_at is not None and tr.degenerate_at >= i + 1

    def test_hook_fires_once(self, toy, rng):
        """The fault zeroes row i's coefficient, and only that one: every
        earlier row is the honest run's."""
        E = start_curve(toy)
        R = xpoint(E, sample_point_of_order(E, 27, rng))
        _, _, honest = strategy_eval3(R, toy.coeff0, toy.strategy3)
        for i in range(toy.e3 - 1):
            _, _, trace = strategy_eval3(R, toy.coeff0, toy.strategy3, (), i)
            assert trace.fault_fired_at == i
            assert trace.coeffs[: i + 1] == honest.coeffs[: i + 1]
            assert trace.coeffs[i + 1] == zero_imaginary_parts(honest.coeffs[i + 1])

    def test_disarmed_hook_is_inert(self, toy, rng):
        E = start_curve(toy)
        R = sample_point_of_order(E, 27, rng)
        final, _, trace = strategy_eval3(xpoint(E, R), toy.coeff0, toy.strategy3, (), None)
        assert trace.completed and trace.fault_fired_at is None


class TestStrategies:
    def test_trivial_sizes(self):
        assert balanced_strategy(1) == []
        assert balanced_strategy(2) == [1]

    @pytest.mark.parametrize("n", [3, 5, 21, 108, 137])
    def test_validity(self, n):
        assert len(schedule(balanced_strategy(n), n)) == n

    def test_rejects_bad_strategies(self):
        for bad in ([1], [0, 1], [2, 2]):  # wrong length, non-positive entry, overshoots a leaf
            with pytest.raises(StrategyError):
                schedule(bad, 3)
        schedule([2, 1], 3)
        schedule([1, 1], 3)

    @pytest.mark.parametrize("bad", [[0, 1], [-1, 1], [2, 2], [1, 3]])
    def test_evaluators_reject_bad_strategies(self, toy, bad):
        """A malformed strategy raises before any isogeny is computed; a zero
        entry would otherwise never advance the walk."""
        coeff = toy.coeff0
        xPB, _, _ = toy.basis_xpoints("bob")
        xPA, _, _ = toy.basis_xpoints("alice")
        with pytest.raises(StrategyError):
            strategy_eval3(xPB, coeff, bad)
        with pytest.raises(StrategyError):
            strategy_eval4(xPA, coeff, bad)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            balanced_strategy(0)
