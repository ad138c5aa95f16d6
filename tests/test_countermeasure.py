import random

import pytest

from sidhlab.attack import (
    OracleContradictionError,
    candidate_kernels,
    faultless_attack,
    forge_public_keys,
    prefix_walk,
)
from sidhlab import countermeasure
from sidhlab.countermeasure import (
    NaiveRejectOutcome,
    PushforwardConfig,
    derive_bob_naive_reject,
    derive_bob_randomized,
)
from sidhlab.faultsim import oracle
from sidhlab.field import SidhlabInputError
from sidhlab.isogeny import DegenerateChainError, StrategyError, strategy_eval2, xeval2_int, xisog2_int
from sidhlab.montgomery import (
    MontgomeryCurve,
    SamplingExhaustedError,
    affine_a_from_projective,
    coeff_from_a,
    coeff_from_ints,
    coeff_ints,
    j_invariant,
    point_ints,
    xpoint_from_affine,
    xpoint_in_fp,
)
from sidhlab.protocol import ALICE, BOB, PublicKey, derive, keygen, sample_torsion_x

from helpers import ReferenceCurve, make_reject_oracle, sample_point_of_order, xpoint
from velu_oracle import j_short_weierstrass, velu_isogeny


class TestTwoIsogenies:
    """The int 2-isogeny kernels against Velu's formulas."""

    def _step(self, E, P):
        """(codomain, image of the kernel point) of the 2-isogeny with kernel <P>."""
        F = E.field
        C, data = xisog2_int(point_ints(xpoint(E, P)), coeff_ints(E.coeff()), F)
        return coeff_from_ints(C, F.p), xeval2_int(point_ints(xpoint(E, P)), data, F.p)

    def test_generic_kernel_matches_velu(self, F431, rng):
        E = ReferenceCurve(F431(6), F431)
        seen = {}
        for _ in range(300):
            P = sample_point_of_order(E, 2, rng)
            seen[(int(P.x.re), int(P.x.im))] = P
        assert len(seen) == 3
        checked = 0
        for key, P in seen.items():
            if P.x.is_zero():
                continue
            coeff, image = self._step(E, P)
            a2, b2, _ = velu_isogeny(E, P)
            assert j_invariant(affine_a_from_projective(coeff), F431) == j_short_weierstrass(a2, b2, F431)
            assert image[2:] == (0, 0)  # the kernel maps to infinity
            checked += 1
        assert checked == 2

    def test_zero_kernel_matches_velu(self, F431, rng):
        E = ReferenceCurve(F431(6), F431)
        P00 = sample_point_of_order(E, 2, rng)
        while not P00.x.is_zero():
            P00 = sample_point_of_order(E, 2, rng)
        coeff, image = self._step(E, P00)
        a2, b2, _ = velu_isogeny(E, P00)
        assert j_invariant(affine_a_from_projective(coeff), F431) == j_short_weierstrass(a2, b2, F431)
        assert image[2:] == (0, 0)

    def test_zero_kernel_eval_sends_x1_to_zero(self, F431):
        # the order-4 points above (0,0) map onto the codomain's (0,0)
        E = MontgomeryCurve(F431(6), F431)
        _, data = xisog2_int((0, 0, 1, 0), coeff_ints(E.coeff()), F431)
        image = xeval2_int((1, 0, 1, 0), data, F431.p)
        assert image[:2] == (0, 0) and image[2:] != (0, 0)

    def test_zero_kernel_needs_a_square_a_plus_2(self, F431, rng):
        """A curve whose A + 2 is not a square has no rational x = 1 point
        above (0, 0): the (0, 0) kernel raises, in the walker too."""
        A = next(A for A in iter(lambda: F431.random_element(rng), None) if not F431.is_square(A + F431(2)))
        coeff = coeff_from_a(A, F431)
        with pytest.raises(DegenerateChainError):
            xisog2_int((0, 0, 1, 0), coeff_ints(coeff), F431)
        with pytest.raises(DegenerateChainError):
            strategy_eval2(xpoint_from_affine(F431.zero, F431), coeff, 1, (), F431)

    def test_walk_of_no_steps_is_refused(self, toy):
        with pytest.raises(StrategyError):
            strategy_eval2(toy.basis_xpoints("alice")[0], toy.coeff0, 0, (), toy.field)


class TestRandomizedPushforward:
    def test_k_zero_degenerates_to_honest(self, toy, rng):
        pka = keygen(toy, ALICE, 3)
        assert derive_bob_randomized(
            toy, 5, pka, PushforwardConfig(0), rng
        ) == derive(toy, BOB, 5, pka)

    def test_k_out_of_range(self, toy, rng):
        """The masked derive and the masked oracle share one check, a plain
        ValueError, at k = e2 + 1 and at k = -1."""
        pka = keygen(toy, ALICE, 3)
        forged = forge_public_keys(prefix_walk(toy, 2, 1), rng)
        for k in (toy.e2 + 1, -1):
            cfg = PushforwardConfig(k)
            for call in (
                lambda: derive_bob_randomized(toy, 5, pka, cfg, rng),
                lambda: oracle(toy, 5, forged.pk, 1, cfg, rng),
            ):
                with pytest.raises(ValueError, match="outside") as info:
                    call()
                assert not isinstance(info.value, SidhlabInputError)

    def test_gives_up_without_a_spanning_pair(self, toy, rng, monkeypatch):
        """derive_bob_randomized's raise after 100 pairs whose tops agree: a
        sampler that repeats its first result never spans the 2^k-torsion."""
        first = []

        def repeat(*args, **kwargs):
            if not first:
                first.append(sample_torsion_x(*args, **kwargs))
            return first[0]

        monkeypatch.setattr(countermeasure, "sample_torsion_x", repeat)
        with pytest.raises(SamplingExhaustedError, match="no spanning 2-power pair"):
            derive_bob_randomized(toy, 5, keygen(toy, ALICE, 3), PushforwardConfig(2), rng)

    def test_p434_round_trip(self, p434, rng):
        ska = p434.sample_sk(ALICE, rng)
        skb = p434.sample_sk(BOB, rng)
        pka = keygen(p434, ALICE, ska)
        assert derive_bob_randomized(
            p434, skb, pka, PushforwardConfig(8), rng
        ) == derive(p434, BOB, skb, pka)

    def test_success_rate_drops_with_masking(self, toy):
        """A forged instance whose unmasked verdict is 1 keeps that verdict
        only when the random mask collides with the forger's assumption."""
        rng = random.Random(88)
        hits = {0: 0, 2: 0}
        total = 0
        for trial in range(40):
            sk = toy.sample_sk(BOB, rng)
            i = 1
            prefix = sk % 3
            walk = prefix_walk(toy, prefix, i)
            forged = forge_public_keys(walk, rng)
            cands = candidate_kernels(walk, forged)
            if not xpoint_in_fp(cands[(sk // 3) % 3]):
                continue
            total += 1
            for k in (0, 2):
                hits[k] += oracle(
                    toy, sk, forged.pk, i, PushforwardConfig(k), random.Random(trial)
                ).bit
        assert total >= 10
        assert hits[0] == total          # unmasked: always 1
        assert hits[2] < total           # masked: strictly degraded


class TestNaiveReject:
    def test_forced_instance_rejected(self, toy, rng):
        """Instances that force the A = 6 curve mid-chain hit the GF(p)
        check by construction."""
        sk = 5
        forged = forge_public_keys(prefix_walk(toy, sk % 3, 1), rng)
        out = derive_bob_naive_reject(toy, sk, forged.pk)
        assert not out.accepted and out.rejected_step == 1

    def test_honest_p434_accepts(self, p434, rng):
        """At cryptographic size, honest chains never pass through GF(p)."""
        skb = p434.sample_sk(BOB, rng)
        pka = keygen(p434, ALICE, p434.sample_sk(ALICE, rng))
        out = derive_bob_naive_reject(p434, skb, pka)
        assert out.accepted
        assert out.shared_j == derive(p434, BOB, skb, pka)

    def test_chain_that_fails_at_row_0_is_rejected_there(self, toy):
        """A random triple whose chain fails its first kernel check has no
        intermediate coefficient to test: rejected at step 0."""
        F = toy.field
        pk = PublicKey(F(5, 7), F(11, 3), F(2, 9))
        assert derive_bob_naive_reject(toy, 5, pk) == NaiveRejectOutcome(False, None, 0)

    def test_outcome_is_a_value_not_an_exception(self, toy, rng):
        out = derive_bob_naive_reject(toy, 3, keygen(toy, ALICE, 2))
        assert isinstance(out, NaiveRejectOutcome)


class TestFaultlessAttack:
    def test_recovers_full_range(self, toy):
        for sk in range(27):
            rej = make_reject_oracle(toy, sk)
            got = faultless_attack(toy, rej, keygen(toy, BOB, sk), random.Random(91))
            assert got % 27 == sk % 27, sk

    def test_recovers_keys_at_e3_13(self, mid):
        """Walks of up to 12 steps, where toy431's search has 2."""
        rng = random.Random(13)
        for _ in range(10):
            sk = mid.sample_sk(BOB, rng)
            assert faultless_attack(mid, make_reject_oracle(mid, sk), keygen(mid, BOB, sk), rng) == sk

    def test_an_oracle_that_never_rejects_leaves_no_completion(self, toy):
        with pytest.raises(OracleContradictionError, match="no completion matches the public key"):
            faultless_attack(toy, lambda pk: False, keygen(toy, BOB, 5), random.Random(5))

    def test_an_oracle_that_always_rejects_leaves_an_exhaustive_search(self, toy):
        for sk in range(27):
            assert faultless_attack(toy, lambda pk: True, keygen(toy, BOB, sk), random.Random(5)) == sk

    def test_an_oracle_that_always_rejects_exhausts_the_budget_at_e3_13(self, mid):
        """faultless_attack's budget raise: every guess rejects, so the
        depth-first search spends its 3^8 descents under the first trits 0
        and 1, before it tries the key's, 2."""
        with pytest.raises(OracleContradictionError, match="search budget exhausted"):
            faultless_attack(mid, lambda pk: True, keygen(mid, BOB, 5), random.Random(5))
