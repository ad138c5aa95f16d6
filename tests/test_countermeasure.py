import random

import pytest

from sidhlab.attack import candidate_kernels, faultless_attack, forge_public_keys, prefix_walk
from sidhlab.countermeasure import (
    NaiveRejectOutcome,
    PushforwardConfig,
    derive_bob_naive_reject,
    derive_bob_randomized,
    xeval2,
    xisog2,
    xisog2_zero,
)
from sidhlab.faultsim import oracle_randomized
from sidhlab.montgomery import (
    MontgomeryCurve,
    affine_a_from_projective,
    j_invariant,
    sample_point_of_order,
    xpoint_in_fp,
)
from sidhlab.protocol import ALICE, BOB, derive, keygen

from helpers import make_reject_oracle, xpoint
from velu_oracle import j_short_weierstrass, velu_isogeny


class TestTwoIsogenies:
    def test_generic_kernel_matches_velu(self, F431, rng):
        E = MontgomeryCurve(F431(6), F431)
        seen = {}
        for _ in range(300):
            P = sample_point_of_order(E, 2, rng)
            seen[(int(P.x.re), int(P.x.im))] = P
        assert len(seen) == 3
        checked = 0
        for key, P in seen.items():
            if P.x.is_zero():
                continue
            step = xisog2(xpoint(E, P))
            A2 = affine_a_from_projective(step.new_coeff)
            a2, b2, _ = velu_isogeny(E, P)
            assert j_invariant(A2, F431) == j_short_weierstrass(a2, b2, F431)
            assert xeval2(xpoint(E, P), step).Z.is_zero()
            checked += 1
        assert checked == 2

    def test_zero_kernel_matches_velu(self, F431, rng):
        E = MontgomeryCurve(F431(6), F431)
        P00 = next(
            sample_point_of_order(E, 2, rng)
            for _ in range(100)
            if True
        )
        while not P00.x.is_zero():
            P00 = sample_point_of_order(E, 2, rng)
        step = xisog2_zero(E.coeff(), F431)
        A2 = affine_a_from_projective(step.new_coeff)
        a2, b2, _ = velu_isogeny(E, P00)
        assert j_invariant(A2, F431) == j_short_weierstrass(a2, b2, F431)
        assert xeval2(xpoint(E, P00), step).Z.is_zero()

    def test_zero_kernel_eval_sends_x1_to_zero(self, F431):
        # the order-4 points above (0,0) map onto the codomain's (0,0)
        E = MontgomeryCurve(F431(6), F431)
        step = xisog2_zero(E.coeff(), F431)
        from sidhlab.montgomery import x_affine, xpoint_from_affine

        img = xeval2(xpoint_from_affine(F431.one, F431), step)
        assert x_affine(img).is_zero()


class TestRandomizedPushforward:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_preserves_honest_derive_exhaustive(self, toy, k):
        cfg = PushforwardConfig(k)
        for ska in toy.sk_range(ALICE):
            pka = keygen(toy, ALICE, ska)
            for skb in toy.sk_range(BOB):
                want = derive(toy, BOB, skb, pka)
                got = derive_bob_randomized(
                    toy, skb, pka, cfg, random.Random(31 * ska + skb + k)
                )
                assert got == want, (k, ska, skb)

    def test_k_zero_degenerates_to_honest(self, toy, rng):
        pka = keygen(toy, ALICE, 3)
        assert derive_bob_randomized(
            toy, 5, pka, PushforwardConfig(0), rng
        ) == derive(toy, BOB, 5, pka)

    def test_k_out_of_range(self, toy, rng):
        pka = keygen(toy, ALICE, 3)
        with pytest.raises(ValueError):
            derive_bob_randomized(toy, 5, pka, PushforwardConfig(toy.e2 + 1), rng)

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
                hits[k] += oracle_randomized(
                    toy, sk, forged.pk, i, PushforwardConfig(k), random.Random(trial)
                )
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

    def test_outcome_is_a_value_not_an_exception(self, toy, rng):
        out = derive_bob_naive_reject(toy, 3, keygen(toy, ALICE, 2))
        assert isinstance(out, NaiveRejectOutcome)


class TestFaultlessAttack:
    def test_recovers_every_toy_key(self, toy):
        for sk in toy.sk_range(BOB):
            rej = make_reject_oracle(toy, sk)
            got = faultless_attack(toy, rej, keygen(toy, BOB, sk), random.Random(90))
            assert got % 27 == sk % 27, sk

    def test_recovers_full_range(self, toy):
        for sk in range(27):
            rej = make_reject_oracle(toy, sk)
            got = faultless_attack(toy, rej, keygen(toy, BOB, sk), random.Random(91))
            assert got % 27 == sk % 27, sk

    def test_zero_fault_injections(self, toy, monkeypatch):
        """The reject-oracle path can never reach the fault machinery."""
        import sidhlab.faultsim as fs
        import sidhlab.isogeny as iso

        calls = {"oracle": 0, "hook": 0}
        real_init = iso.FaultHook.__init__

        def counting_oracle(*a, **kw):
            calls["oracle"] += 1
            raise AssertionError("fault oracle used")

        def counting_hook(self, *a, **kw):
            calls["hook"] += 1
            return real_init(self, *a, **kw)

        monkeypatch.setattr(fs, "oracle", counting_oracle)
        monkeypatch.setattr(iso.FaultHook, "__init__", counting_hook)
        sk = 7
        rej = make_reject_oracle(toy, sk)
        got = faultless_attack(toy, rej, keygen(toy, BOB, sk), random.Random(92))
        assert got % 27 == sk % 27
        assert calls == {"oracle": 0, "hook": 0}
