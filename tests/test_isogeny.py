import random

import pytest

from sidhlab.field import Fp2Field, FieldParams
from sidhlab.isogeny import (
    ChainTrace,
    FaultHook,
    StrategyError,
    balanced_strategy,
    strategy_eval3,
    strategy_eval4,
    validate_strategy,
    xeval3,
    xeval4,
    xisog3,
    xisog4,
)
from sidhlab.montgomery import (
    MontgomeryCurve,
    affine_a_from_projective,
    coeff_from_a,
    coeff_in_fp,
    j_invariant,
    sample_point_of_order,
    x_affine,
    xdbl_e,
    xpoint_from_affine,
    xtpl_e,
    zero_imaginary_parts,
)

from helpers import xpoint
from velu_oracle import fit_linear, j_short_weierstrass, velu_isogeny


@pytest.fixture(scope="module")
def E(F431):
    return MontgomeryCurve(F431(6), F431)


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

    def test_codomain_and_xmap_match_velu(self, F431, E, rng):
        """Every order-3 kernel on the start curve: j of the codomain equals
        textbook Velu's, and the x-map is Velu's up to the forced linear
        coordinate change (fitted on two points, verified on the rest)."""
        kernels = all_points_of_order(E, 3, rng)
        assert len(kernels) == 4
        for K in kernels:
            step = xisog3(xpoint(E, K))
            A_new = affine_a_from_projective(step.new_coeff)
            a2, b2, xmap = velu_isogeny(E, K)
            assert j_invariant(A_new, F431) == j_short_weierstrass(a2, b2, F431)
            pairs = []
            for _ in range(60):
                x = F431.random_element(rng)
                if not F431.is_square(E.rhs(x)) or x == K.x:
                    continue
                img = xeval3(xpoint_from_affine(x, F431), step)
                if img.Z.is_zero():
                    continue
                pairs.append((xmap(x), x_affine(img)))
            s, r = fit_linear(pairs)
            assert all(s * xv + r == ym for xv, ym in pairs[2:])

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

    def test_codomain_and_xmap_match_velu(self, F431, E, rng):
        checked = 0
        for K in all_points_of_order(E, 4, rng):
            xp = xpoint(E, K)
            if (xp.X - xp.Z).is_zero() or (xp.X + xp.Z).is_zero():
                continue  # kernels above (0,0) are outside the formulas
            step = xisog4(xp)
            A_new = affine_a_from_projective(step.new_coeff)
            a2, b2, xmap = velu_isogeny(E, K)
            assert j_invariant(A_new, F431) == j_short_weierstrass(a2, b2, F431)
            kernel_xs = {
                (int(T.x.re), int(T.x.im))
                for T in (K, E.double(K), E.negate(K))
            }
            pairs = []
            for _ in range(80):
                x = F431.random_element(rng)
                if not F431.is_square(E.rhs(x)):
                    continue
                if (int(x.re), int(x.im)) in kernel_xs:
                    continue
                img = xeval4(xpoint_from_affine(x, F431), step)
                if img.Z.is_zero():
                    continue
                pairs.append((xmap(x), x_affine(img)))
            s, r = fit_linear(pairs)
            assert all(s * xv + r == ym for xv, ym in pairs[2:])
            checked += 1
        assert checked >= 4

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
        assert xdbl_e(img, cc, 2).is_infinity()
        assert not xdbl_e(img, cc, 1).is_infinity()


class TestStrategyEval:
    def test_matches_naive_loop(self, toy, rng):
        """Final j of the strategy walk equals the plain quadratic loop that
        re-triples the running kernel at every step."""
        F = toy.field
        E = toy.curve
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
        E = toy.curve
        R = sample_point_of_order(E, 27, rng)
        f1, _, _ = strategy_eval3(xpoint(E, R), toy.coeff0, [1, 1])
        f2, _, _ = strategy_eval3(xpoint(E, R), toy.coeff0, [2, 1])
        F = toy.field
        assert j_invariant(affine_a_from_projective(f1), F) == j_invariant(
            affine_a_from_projective(f2), F
        )

    def test_pushed_points_keep_their_order(self, toy, rng):
        E = toy.curve
        R = sample_point_of_order(E, 27, rng)
        PA = sample_point_of_order(E, 16, rng)
        final, pushed, trace = strategy_eval3(
            xpoint(E, R), toy.coeff0, toy.strategy3, [xpoint(E, PA)]
        )
        assert trace.completed
        img = pushed[0]
        assert xdbl_e(img, final, 4).is_infinity()
        assert not xdbl_e(img, final, 3).is_infinity()

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
        hook = FaultHook(target_index=i)
        final, trace = derive_with_trace(toy, BOB, sk, forged.pk, hook)
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
        E = toy.curve
        R = sample_point_of_order(E, 27, rng)
        hook = FaultHook(target_index=0)
        strategy_eval3(xpoint(E, R), toy.coeff0, toy.strategy3, (), hook)
        assert hook.fired
        before = zero_imaginary_parts(toy.coeff0)
        assert hook.maybe_fire(0, toy.coeff0) == toy.coeff0  # second shot is dead

    def test_disarmed_hook_is_inert(self, toy, rng):
        E = toy.curve
        R = sample_point_of_order(E, 27, rng)
        hook = FaultHook(target_index=0, armed=False)
        final, _, trace = strategy_eval3(xpoint(E, R), toy.coeff0, toy.strategy3, (), hook)
        assert trace.completed and not hook.fired and trace.fault_fired_at is None


class TestStrategies:
    def test_trivial_sizes(self):
        assert balanced_strategy(1) == []
        assert balanced_strategy(2) == [1]

    @pytest.mark.parametrize("n", [3, 5, 21, 108, 137])
    def test_validity(self, n):
        assert validate_strategy(balanced_strategy(n), n)

    def test_rejects_bad_strategies(self):
        assert not validate_strategy([1], 3)  # wrong length
        assert not validate_strategy([0, 1], 3)  # non-positive entry
        assert not validate_strategy([2, 2], 3)  # overshoots a leaf
        assert validate_strategy([2, 1], 3)
        assert validate_strategy([1, 1], 3)

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
