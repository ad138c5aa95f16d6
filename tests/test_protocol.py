import random

import pytest

from sidhlab.field import FieldParams, Fp2Field
from sidhlab.isogeny import strategy_eval3, strategy_eval4
from sidhlab.montgomery import (
    MontgomeryCurve,
    SamplingExhaustedError,
    affine_a_from_projective,
    j_invariant,
    ladder3pt,
    x_affine,
    xdbl,
    xdbl_e,
    xtpl,
    xtpl_e,
    xpoint_from_affine,
)
from sidhlab.protocol import (
    ALICE,
    BOB,
    InconsistentPublicKeyError,
    PublicKey,
    bundled_params,
    derive,
    derive_with_trace,
    get_a,
    keygen,
    loads_params,
    param_gen,
    sample_torsion_x,
    save_params,
)

from helpers import public_basis


class TestParams:
    def test_toy_invariants(self, toy):
        toy.validate()  # raises on any violation
        assert toy.e2 == 4 and toy.e3 == 3
        assert toy.xPB.im == 0 and toy.xQB.im == 0 and toy.xDB.im != 0

    def test_p434_invariants(self, p434):
        p434.validate()
        assert p434.e2 == 216 and p434.e3 == 137
        assert int(p434.field_params.p).bit_length() == 434

    def test_param_gen_deterministic(self):
        a = param_gen(4, 3, random.Random(7))
        b = param_gen(4, 3, random.Random(7))
        assert a.xPB == b.xPB and a.xQA == b.xQA

    def test_param_gen_rejects_non_prime(self):
        with pytest.raises(ValueError):
            param_gen(3, 3, random.Random(0))

    def test_param_gen_rejects_odd_e2(self):
        with pytest.raises(ValueError):
            param_gen(5, 2, random.Random(0))  # 2^5 * 9 - 1 = 287 = 7*41 anyway

    def test_dependent_basis_rejected(self, toy):
        import dataclasses

        broken = dataclasses.replace(toy, xQB=toy.xPB)
        with pytest.raises(ValueError):
            broken.validate()

    def test_file_roundtrip(self, toy, tmp_path):
        path = tmp_path / "toy.txt"
        save_params(toy, path)
        again = loads_params(path.read_text())
        assert again.xPA == toy.xPA and again.xDB == toy.xDB

    def test_file_rejects_wrong_p(self, toy, tmp_path):
        path = tmp_path / "toy.txt"
        save_params(toy, path)
        text = path.read_text().replace("p=1af", "p=1b1")
        with pytest.raises(ValueError):
            loads_params(text)

    def test_unknown_bundle(self):
        with pytest.raises(FileNotFoundError):
            bundled_params("p9999")

    def test_sk_ranges(self, toy):
        assert toy.sk_range(BOB) == range(1, 9)
        assert toy.sk_range(ALICE) == range(1, 8)


class TestKeygen:
    def test_pushed_points_have_expected_orders(self, toy):
        """Bob pushes Alice's 2^e2 basis: images keep exact order 2^e2."""
        pk = keygen(toy, BOB, 5)
        A = get_a(pk, toy.field)
        from sidhlab.montgomery import coeff_from_a

        coeff = coeff_from_a(A, toy.field)
        for x in (pk.xP, pk.xQ, pk.xPQ):
            pt = xpoint_from_affine(x, toy.field)
            assert xdbl_e(pt, coeff, toy.e2).is_infinity()
            assert not xdbl_e(pt, coeff, toy.e2 - 1).is_infinity()

    def test_sk_congruence_gives_same_key(self, toy):
        # same kernel subgroup => byte-identical public key
        assert keygen(toy, BOB, 5) == keygen(toy, BOB, 5)
        _, trace = derive_with_trace(toy, BOB, 2, public_basis(toy, BOB))
        assert trace.completed

    def test_image_of_difference_is_difference_of_images(self, toy, rng):
        """x(phi(P - Q)) equals x(phi(P) - phi(Q)) via the full-point oracle."""
        pk = keygen(toy, BOB, 7)
        F = toy.field
        E1 = MontgomeryCurve(get_a(pk, F), F)
        P = E1.lift_x(pk.xP)
        Q = E1.lift_x(pk.xQ)
        diffs = {E1.sub(P, Q).x, E1.add(P, Q).x}  # sign of Q unknown
        assert pk.xPQ in diffs

    def test_out_of_range_sk_rejected(self, toy):
        with pytest.raises(ValueError):
            keygen(toy, BOB, 27)
        with pytest.raises(ValueError):
            keygen(toy, ALICE, -1)
        with pytest.raises(ValueError):
            keygen(toy, "carol", 1)


class TestDerive:
    def test_round_trip_exhaustive_toy(self, toy):
        for ska in toy.sk_range(ALICE):
            pka = keygen(toy, ALICE, ska)
            for skb in toy.sk_range(BOB):
                pkb = keygen(toy, BOB, skb)
                assert derive(toy, ALICE, ska, pkb) == derive(toy, BOB, skb, pka)

    def test_round_trip_p434(self, p434, rng):
        ska = p434.sample_sk(ALICE, rng)
        skb = p434.sample_sk(BOB, rng)
        assert derive(p434, ALICE, ska, keygen(p434, BOB, skb)) == derive(
            p434, BOB, skb, keygen(p434, ALICE, ska)
        )

    def test_derive_on_basis_matches_direct_quotient(self, toy):
        """Deriving against the raw own-side basis computes j(E/<P + [sk]Q>),
        which is also the curve of the honest public key."""
        sk = 5
        j_direct = j_invariant(get_a(keygen(toy, BOB, sk), toy.field), toy.field)
        j_derive = derive(toy, BOB, sk, public_basis(toy, BOB))
        assert j_derive == j_direct


class TestGetA:
    def test_honest_key_matches_chain_codomain(self, toy):
        sk = 4
        pk = keygen(toy, BOB, sk)
        coeff = toy.coeff0
        xP, xQ, xD = toy.basis_xpoints(BOB)
        kernel = ladder3pt(sk, xP, xQ, xD, coeff)
        final, _, trace = strategy_eval3(kernel, coeff, toy.strategy3)
        assert trace.completed
        F = toy.field
        assert get_a(pk, F) == affine_a_from_projective(final)

    def test_starting_basis_recovers_six(self, toy):
        F = toy.field
        assert get_a(public_basis(toy, BOB), F) == F(6)
        assert get_a(public_basis(toy, ALICE), F) == F(6)

    def test_garbage_triple(self, toy, rng):
        """Vanishing denominators trip the error; generic garbage resolves to
        the unique A satisfying the triple identity (the recovery formula IS
        that identity), but its entries then generally fail to lift onto the
        recovered curve."""
        F = toy.field
        with pytest.raises(InconsistentPublicKeyError):
            get_a(PublicKey(F.zero, F(3), F(7)), F)
        from sidhlab.protocol import _difference_consistent

        unliftable = 0
        for _ in range(50):
            bad = PublicKey(
                F.random_nonzero(rng), F.random_nonzero(rng), F.random_nonzero(rng)
            )
            try:
                A = get_a(bad, F)
            except InconsistentPublicKeyError:
                continue
            assert _difference_consistent(bad.xP, bad.xQ, bad.xPQ, A, F)
            try:
                E = MontgomeryCurve(A, F)
            except ValueError:
                unliftable += 1
                continue
            if not all(F.is_square(E.rhs(x)) for x in (bad.xP, bad.xQ, bad.xPQ)):
                unliftable += 1
        assert unliftable > 0


class TestTorsionSampler:
    def _tries(self, monkeypatch, params, curve, ell, k):
        """(sampled point or the raised error, samples cleared)."""
        import sidhlab.protocol as proto

        count = [0]
        lift = proto.xpoint_from_affine

        def counting(x, field):
            count[0] += 1
            return lift(x, field)

        monkeypatch.setattr(proto, "xpoint_from_affine", counting)
        try:
            result = sample_torsion_x(params, curve, ell, k, random.Random(1))
        except SamplingExhaustedError as exc:
            result = exc
        monkeypatch.undo()
        return result, count[0]

    def test_malformed_curve_fails_at_the_first_large_order(self, toy, monkeypatch):
        """A = 5 over GF(431^2) is not a (Z/432)^2 curve: the sampler gives
        up at the first point [ell^k] does not kill (it spent 1000 full
        clearings before), while the honest curve still samples."""
        F = toy.field
        bad = MontgomeryCurve(F(5), F)
        xs = [F(v) for v in range(2, 40) if F.is_square(bad.rhs(F(v)))]
        assert any(not bad.scalar_mul(432, bad.lift_x(x)).infinity for x in xs)
        for ell, k in ((2, 2), (3, 1), (3, 3)):
            result, tries = self._tries(monkeypatch, toy, bad, ell, k)
            assert isinstance(result, SamplingExhaustedError)
            assert tries == 1, (ell, k)
            result, tries = self._tries(monkeypatch, toy, toy.curve, ell, k)
            assert not isinstance(result, SamplingExhaustedError)
            assert tries >= 1


class TestVictimUnawareness:
    def test_victim_code_never_tests_membership(self):
        """keygen/derive and the chain evaluators never consult the GF(p)
        membership predicate (recursively through their code objects)."""
        import sidhlab.isogeny as iso
        import sidhlab.protocol as proto
        from sidhlab.montgomery import ladder3pt, xadd, xdbl, xtpl

        def names(code, acc):
            acc.update(code.co_names)
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    names(const, acc)
            return acc

        for fn in (
            proto.keygen,
            proto.derive,
            proto.derive_with_trace,
            proto.chain_inputs,
            iso.strategy_eval3,
            iso.strategy_eval4,
            iso._walk,
            iso._schedule,
            iso.xisog3,
            iso.xeval3,
            iso.xisog4,
            iso.xeval4,
            ladder3pt,
            xadd,
            xdbl,
            xtpl,
        ):
            found = names(fn.__code__, set())
            assert "coeff_in_fp" not in found, fn.__qualname__
            assert "xpoint_in_fp" not in found, fn.__qualname__
