import random

import pytest

from sidhlab.attack import forge_public_keys
from sidhlab.countermeasure import PushforwardConfig
from sidhlab.faultsim import (
    debug_assert_forced_curve,
    dump_chain_trace,
    make_oracle,
    oracle,
    oracle_randomized,
)
from sidhlab.montgomery import affine_a_from_projective, coeff_in_fp
from sidhlab.protocol import ALICE, BOB, PublicKey, derive_with_trace, get_a, j_invariant, keygen


def truth_table(toy, sk, i, pk):
    """Ground truth the test computes omnisciently: is the victim's (i+1)-th
    codomain coefficient in GF(p) on the unfaulted run?"""
    _, trace = derive_with_trace(toy, BOB, sk, pk)
    assert trace.completed
    return coeff_in_fp(trace.coeffs[i + 1])


class TestOracleContract:
    def test_index_range_enforced(self, toy):
        pk = keygen(toy, BOB, 5)
        with pytest.raises(ValueError):
            oracle(toy, 5, pk, -1)
        with pytest.raises(ValueError):
            oracle(toy, 5, pk, toy.e3 - 1)

    def test_malformed_pk_maps_to_zero(self, toy):
        F = toy.field
        v = oracle(toy, 5, PublicKey(F.zero, F(3), F(7)), 0)
        assert v.bit == 0 and v.failure_step == -1

    @pytest.mark.parametrize("x", [1, -1])
    def test_singular_curve_pk_maps_to_zero_under_masking(self, toy, x):
        """x(P) = x(Q) = +-1 recovers A = -+2, a singular curve: bit 0 at
        every masking degree, as from the unmasked oracle."""
        F = toy.field
        pk = PublicKey(F(x), F(x), F(5))
        assert get_a(pk, F) == F(-2 * x)
        assert oracle(toy, 5, pk, 0).bit == 0
        for k in (0, 1, 2):
            assert oracle_randomized(toy, 5, pk, 0, PushforwardConfig(k), random.Random(k)) == 0

    def test_random_triples_give_a_bit_at_every_masking_degree(self, toy):
        """Random triples are almost all malformed keys (no supersingular
        curve, no 2^k-torsion to mask with): each gives bit 0 or 1 and
        never raises, masked or not."""
        F = toy.field
        triples_rng = random.Random(5)
        pks = [PublicKey(*(F.random_element(triples_rng) for _ in range(3))) for _ in range(200)]
        rng = random.Random(6)
        for pk in pks:
            assert oracle(toy, 5, pk, 0).bit in (0, 1)
            for k in (0, 1, 2):
                assert oracle_randomized(toy, 5, pk, 0, PushforwardConfig(k), rng) in (0, 1)

    def test_deterministic(self, toy, rng):
        forged = forge_public_keys(toy, 2, 1, rng)
        a = oracle(toy, 5, forged.pk, 1)
        b = oracle(toy, 5, forged.pk, 1)
        assert a.bit == b.bit and a.failure_step == b.failure_step

    def test_make_oracle_returns_bits(self, toy, rng):
        orc = make_oracle(toy, 5)
        forged = forge_public_keys(toy, 2, 1, rng)
        assert orc(forged.pk, 1) in (0, 1)


class TestOracleSoundness:
    def test_exhaustive_toy_agreement(self, toy):
        """verdict = 1 exactly when the targeted coefficient is in GF(p),
        over every key, fault position, and both forged instances."""
        rng = random.Random(44)
        for sk in range(27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(toy, prefix, i, rng)
                for pk in (forged.pk, forged.pk_second):
                    want = truth_table(toy, sk, i, pk)
                    assert oracle(toy, sk, pk, i).bit == int(want), (sk, i)

    def test_honest_pk_with_fp_step(self, toy):
        """An honest public key whose chain naturally passes through a GF(p)
        coefficient at step i+1 yields verdict 1."""
        pk = toy.public_basis(BOB)
        hits = 0
        for sk in range(27):
            if truth_table(toy, sk, 0, pk):
                assert oracle(toy, sk, pk, 0).bit == 1
                hits += 1
        assert hits > 0

    def test_verdict_one_preserves_final_j(self, toy):
        """When the fault is a no-op the faulted run's final j equals the
        unfaulted run's final j exactly."""
        rng = random.Random(45)
        F = toy.field
        checked = 0
        for sk in range(27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(toy, prefix, i, rng)
                v = oracle(toy, sk, forged.pk, i, keep_trace=True)
                if v.bit == 0:
                    continue
                base_final, base_trace = derive_with_trace(toy, BOB, sk, forged.pk)
                assert base_trace.completed
                j_fault = j_invariant(affine_a_from_projective(v.trace.coeffs[-1]), F)
                j_base = j_invariant(affine_a_from_projective(base_final), F)
                assert j_fault == j_base
                checked += 1
        assert checked > 10


class TestDebugAssert:
    def test_i_zero_on_basis(self, toy):
        assert debug_assert_forced_curve(toy, 0, toy.public_basis(BOB), 0)

    def test_correct_forges(self, toy):
        rng = random.Random(46)
        for sk in range(1, 27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(toy, prefix, i, rng)
                assert debug_assert_forced_curve(toy, prefix, forged.pk, i)
                assert debug_assert_forced_curve(toy, prefix, forged.pk_second, i)

    def test_wrong_prefix_fails(self, toy):
        rng = random.Random(47)
        i = 1
        forged = forge_public_keys(toy, 1, i, rng)
        assert debug_assert_forced_curve(toy, 1, forged.pk, i)
        assert not debug_assert_forced_curve(toy, 2, forged.pk, i)


class TestTraceDump:
    def test_dump_format(self, toy):
        _, trace = derive_with_trace(toy, BOB, 5, toy.public_basis(BOB))
        text = dump_chain_trace(trace, toy.field)
        lines = text.splitlines()
        assert len(lines) == toy.e3 + 1
        assert lines[0].startswith("0 alpha=")
        assert all(("fp" in ln or "degenerate" in ln) for ln in lines)

    def test_dump_marks_fault_and_degeneracy(self, toy, rng):
        from sidhlab.isogeny import FaultHook

        forged = forge_public_keys(toy, 0, 1, rng)
        sk = next(s for s in range(27) if not truth_table(toy, s, 1, forged.pk))
        hook = FaultHook(1)
        _, trace = derive_with_trace(toy, BOB, sk, forged.pk, hook)
        text = dump_chain_trace(trace, toy.field)
        assert "fault_at=1" in text and "degenerate_at=" in text
