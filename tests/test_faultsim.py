import random

import pytest

from sidhlab import faultsim
from sidhlab.attack import forge_public_keys, prefix_walk, recover_key
from sidhlab.countermeasure import PushforwardConfig
from sidhlab.faultsim import (
    dump_chain_trace,
    make_oracle,
    oracle,
)
from sidhlab.montgomery import XPoint, affine_a_from_projective, coeff_from_a, coeff_in_fp, x_affine
from sidhlab.protocol import (
    ALICE,
    BOB,
    PublicKey,
    derive_with_trace,
    get_a,
    j_invariant,
    keygen,
    secret_isogeny,
)

from helpers import debug_assert_forced_curve, public_basis, xmul


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
        every masking degree, as from the unmasked oracle.  Masked, it is a
        rejected key (failure_step -1): there is no curve to mask on."""
        F = toy.field
        pk = PublicKey(F(x), F(x), F(5))
        assert get_a(pk, F) == F(-2 * x)
        assert oracle(toy, 5, pk, 0).bit == 0
        for k in (0, 1, 2):
            v = oracle(toy, 5, pk, 0, PushforwardConfig(k), random.Random(k))
            assert v.bit == 0 and (k == 0 or v.failure_step == -1)

    def test_nodal_curve_pk_fails_the_spot_check(self, toy):
        """pk = x([m]G), x([3m]G), x([2m]G) for G on the nodal curve A = 2 or
        A = -2, whose non-singular points form a group of order p^2 - 1, and
        m = (p^2 - 1) / 3^e3.  Unmasked, every chain that completes walks
        nodal curves to a singular final curve, which the spot check refuses:
        bit 0 at failure step e3 for every sk and i."""
        F, p = toy.field, toy.field.p
        m = (p * p - 1) // 3**toy.e3
        rng = random.Random(1)
        for a in (2, -2):
            coeff, completed = coeff_from_a(F(a), F), 0
            for _ in range(3):
                G = XPoint(F.random_element(rng), F.one)
                pk = PublicKey(*(x_affine(xmul(n * m, G, coeff, F)) for n in (1, 3, 2)))
                assert get_a(pk, F) == F(a)
                for sk in toy.sk_range(BOB):
                    for i in range(toy.e3 - 1):
                        v = oracle(toy, sk, pk, i)
                        assert v.bit == 0
                        if v.trace.completed:
                            assert v.failure_step == toy.e3
                            completed += 1
            assert completed, a

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
                assert oracle(toy, 5, pk, 0, PushforwardConfig(k), rng).bit in (0, 1)

    @pytest.mark.parametrize("k", [0, 2])
    def test_deterministic(self, toy, rng, k):
        forged = forge_public_keys(prefix_walk(toy, 2, 1), rng)
        a = oracle(toy, 5, forged.pk, 1, PushforwardConfig(k))
        b = oracle(toy, 5, forged.pk, 1, PushforwardConfig(k))
        assert a.bit == b.bit and a.failure_step == b.failure_step

    def test_make_oracle_returns_bits(self, toy, rng):
        orc = make_oracle(toy, 5)
        forged = forge_public_keys(prefix_walk(toy, 2, 1), rng)
        assert orc(forged.pk, 1) in (0, 1)


class TestOracleSoundness:
    def test_exhaustive_toy_agreement(self, toy):
        """verdict = 1 exactly when the targeted coefficient is in GF(p),
        over every key, fault position, and both forged instances."""
        rng = random.Random(44)
        for sk in range(27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
                for pk in (forged.pk, forged.pk_second):
                    want = truth_table(toy, sk, i, pk)
                    assert oracle(toy, sk, pk, i).bit == int(want), (sk, i)

    def test_honest_pk_with_fp_step(self, toy):
        """An honest public key whose chain naturally passes through a GF(p)
        coefficient at step i+1 yields verdict 1."""
        pk = public_basis(toy, BOB)
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
                forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
                v = oracle(toy, sk, forged.pk, i)
                if v.bit == 0:
                    continue
                base_final, base_trace = derive_with_trace(toy, BOB, sk, forged.pk)
                assert base_trace.completed
                j_fault = j_invariant(affine_a_from_projective(v.trace.coeffs[-1]), F)
                j_base = j_invariant(affine_a_from_projective(base_final), F)
                assert j_fault == j_base
                checked += 1
        assert checked > 10


class TestSpotCheckShortPath:
    """A completed chain that no fault moved and that passes A = 6 proves the
    final curve's group E[p + 1]; the spot check then only draws."""

    @pytest.mark.parametrize("name", ["toy", "mid"])
    def test_short_path_matches_full_path(self, request, name):
        """On every final curve of a completed, unmoved chain (each forged
        curve is supersingular, so masked chains qualify too), both paths
        give the same bool and leave the rng in the same state.  Every
        unmasked forged query takes the short path."""
        params = request.getfixturevalue(name)
        rng = random.Random(48)
        compared = {0: 0, 1: 0, 2: 0}
        for sk in (5, 17):
            for i in range(params.e3 - 1):
                forged = forge_public_keys(prefix_walk(params, sk % 3**i, i), rng)
                for pk in (forged.pk, forged.pk_second):
                    for k in (0, 1, 2):
                        v = oracle(params, sk, pk, i, PushforwardConfig(k), random.Random(k))
                        trace = v.trace
                        if k == 0:
                            assert faultsim._order_known(trace) == (v.failure_step is None)
                        if not trace.completed or trace.fault_moved_curve:
                            continue
                        runs = []
                        for known in (False, True):
                            r = random.Random(i)
                            ok = faultsim._supersingular_spot_check(params, trace.coeffs[-1], r, known)
                            runs.append((ok, r.random()))
                        assert runs[0] == runs[1] and runs[0][0], (sk, i, k)
                        compared[k] += 1
        assert all(compared.values()), compared

    def test_full_path_for_a_fault_that_moved_the_curve(self, toy, monkeypatch):
        """A fault on the last row of a chain from A = 6 can move the curve
        to a non-singular one that is not supersingular, and the chain still
        completes: the full check runs and refuses the curve at its first
        point, where drawing alone would have passed it."""
        cleared = _count_cleared_points(monkeypatch)
        triple = toy.basis_xpoints(BOB)
        for sk in toy.sk_range(BOB):
            final, _, trace = secret_isogeny(toy, BOB, sk, toy.coeff0, triple, (), toy.e3 - 1)
            singular = final.alpha.is_zero() or final.beta.is_zero() or final.alpha == final.beta
            if trace.fault_moved_curve and not singular:
                break
        else:
            pytest.fail("no chain whose last row moves to a non-singular curve")
        assert trace.completed and not faultsim._order_known(trace)
        assert faultsim._verdict(toy, final, trace, random.Random(1)) == (0, toy.e3)
        assert len(cleared) == 1
        assert faultsim._supersingular_spot_check(toy, final, random.Random(1), order_known=True)

    def test_full_path_for_an_honest_key(self, toy, monkeypatch):
        """An honest Alice key's chains miss A = 6: every completed one gets
        the full check, which clears at least one point."""
        cleared = _count_cleared_points(monkeypatch)
        pk = keygen(toy, ALICE, 3)
        runs = []
        for sk in range(1, 9):
            before = len(cleared)
            runs.append((oracle(toy, sk, pk, 0).trace, len(cleared) - before))
        assert any(t.completed for t, _ in runs)
        assert not any(faultsim._order_known(t) for t, _ in runs)
        assert all((n > 0) == t.completed for t, n in runs)

    @pytest.mark.parametrize("k", [1, 2])
    def test_full_path_for_a_masked_chain_that_misses_a6(self, toy, monkeypatch, k):
        """The masking walk moves the victim's 3-chain off the forger's path
        back to A = 6, so the masked oracle gets the full check."""
        cleared = _count_cleared_points(monkeypatch)
        forged = forge_public_keys(prefix_walk(toy, 5 % 3, 1), random.Random(49))
        v = oracle(toy, 5, forged.pk, 1, PushforwardConfig(k), random.Random(k))
        assert v.trace.completed and not faultsim._order_known(v.trace)
        assert all(c.alpha != c.beta + c.beta for c in v.trace.coeffs)
        assert v.bit == 1 and len(cleared) == faultsim.SPOT_CHECK_POINTS

    def test_recovery_never_clears_a_point(self, toy, monkeypatch):
        """Every spot check of a toy431 recovery takes the short path: with
        the clearing loop disabled it returns the same keys and ledgers."""

        def recover(sk, seed):
            state = recover_key(toy, make_oracle(toy, sk), keygen(toy, BOB, sk), random.Random(seed))
            return state.sk, state.calls_per_trit

        runs = [(sk, seed) for seed in (1, 2) for sk in toy.sk_range(BOB)]
        want = [recover(sk, seed) for sk, seed in runs]

        def refuse(*args):
            raise AssertionError("the spot check cleared a point")

        monkeypatch.setattr(faultsim, "cleared", refuse)
        assert [recover(sk, seed) for sk, seed in runs] == want


def _count_cleared_points(monkeypatch) -> list:
    """Record the x of every point the spot check clears (faultsim.cleared)."""
    points = []
    orig = faultsim.cleared

    def counted(x, *args):
        points.append(x)
        return orig(x, *args)

    monkeypatch.setattr(faultsim, "cleared", counted)
    return points


class TestDebugAssert:
    def test_i_zero_on_basis(self, toy):
        assert debug_assert_forced_curve(toy, 0, public_basis(toy, BOB), 0)

    def test_correct_forges(self, toy):
        rng = random.Random(46)
        for sk in range(1, 27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
                assert debug_assert_forced_curve(toy, prefix, forged.pk, i)
                assert debug_assert_forced_curve(toy, prefix, forged.pk_second, i)

    def test_wrong_prefix_fails(self, toy):
        rng = random.Random(47)
        i = 1
        forged = forge_public_keys(prefix_walk(toy, 1, i), rng)
        assert debug_assert_forced_curve(toy, 1, forged.pk, i)
        assert not debug_assert_forced_curve(toy, 2, forged.pk, i)


class TestTraceDump:
    def test_dump_format(self, toy):
        _, trace = derive_with_trace(toy, BOB, 5, public_basis(toy, BOB))
        text = dump_chain_trace(trace, toy.field)
        lines = text.splitlines()
        assert len(lines) == toy.e3 + 1
        assert lines[0].startswith("0 alpha=")
        assert all(("fp" in ln or "degenerate" in ln) for ln in lines)

    def test_dump_marks_fault_and_degeneracy(self, toy, rng):
        forged = forge_public_keys(prefix_walk(toy, 0, 1), rng)
        sk = next(s for s in range(27) if not truth_table(toy, s, 1, forged.pk))
        _, trace = derive_with_trace(toy, BOB, sk, forged.pk, 1)
        text = dump_chain_trace(trace, toy.field)
        assert "fault_at=1" in text and "degenerate_at=" in text
