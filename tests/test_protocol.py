import random
import re

import pytest

from sidhlab.field import SidhlabInputError
from sidhlab.isogeny import strategy_eval3
from sidhlab.montgomery import (
    MontgomeryCurve,
    SamplingExhaustedError,
    affine_a_from_projective,
    j_invariant,
    ladder3pt,
    x_affine,
    xdbl,
    xtpl,
    xpoint_from_affine,
)
from sidhlab.protocol import (
    ALICE,
    BOB,
    InconsistentPublicKeyError,
    PublicKey,
    bundled_params,
    curve_x_draws,
    derive,
    derive_with_trace,
    dumps_params,
    get_a,
    keygen,
    loads_params,
    param_gen,
    sample_torsion_x,
)

from helpers import (
    P47_TEXT,
    ReferenceCurve,
    difference_consistent,
    public_basis,
    ref_xdbl_e,
    sample_point_of_order,
    start_curve,
)


class TestParams:
    def test_toy_invariants(self, toy):
        toy.validate()  # raises on any violation
        assert toy.e2 == 4 and toy.e3 == 3
        assert toy.xPB.im == 0 and toy.xQB.im == 0 and toy.xDB.im != 0

    def test_p434_invariants(self, p434):
        p434.validate()
        assert p434.e2 == 216 and p434.e3 == 137
        assert int(p434.field.p).bit_length() == 434

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

    def test_param_gen_rejects_e3_of_one(self):
        # 2^4 * 3 - 1 = 47 is prime, but Bob's key range [1, 3^0 - 1] is empty
        with pytest.raises(SidhlabInputError, match="e3 must be at least 2"):
            param_gen(4, 1, random.Random(1))

    @pytest.mark.parametrize("name", ["a\nb", "a\r", "a\u2028b", " a", "a\t"])
    def test_param_gen_refuses_a_name_the_file_would_change(self, name):
        with pytest.raises(SidhlabInputError, match="line break or surrounding blanks"):
            param_gen(4, 3, random.Random(1), name=name)

    def test_name_reads_back(self):
        params = param_gen(4, 3, random.Random(1), name="toy set #1")
        assert loads_params(dumps_params(params)).name == "toy set #1"

    def test_e3_of_one_file_refused(self):
        """The p = 47 set that params gen --e2 4 --e3 1 --seed 1 used to write."""
        with pytest.raises(SidhlabInputError, match="e3 must be at least 2"):
            loads_params(P47_TEXT)

    def test_dependent_basis_rejected(self, toy):
        broken = toy._replace(xQB=toy.xPB)
        with pytest.raises(ValueError):
            broken.validate()

    @pytest.mark.parametrize(
        "sources, message",
        [
            ({"xPA": "xQA"}, "Alice basis is dependent"),
            ({"xPA": "xQA", "xQA": "xPA"}, "[2^(e2-1)]QA must be (0, 0)"),
            ({"xPB": "xDB"}, "x(PB), x(QB) must lie in GF(p)"),
        ],
    )
    def test_edited_basis_file_refused(self, toy, sources, message):
        """Each basis entry in sources takes the value of the entry named."""
        edited = toy._replace(**{key: getattr(toy, src) for key, src in sources.items()})
        with pytest.raises(SidhlabInputError, match=re.escape(message)):
            loads_params(dumps_params(edited))

    def test_odd_e2_file_refused(self):
        """p = 2^3 * 3^2 - 1 = 71 is prime, but Alice's chain takes 4-isogenies."""
        text = P47_TEXT.replace("e2=4", "e2=3").replace("e3=1", "e3=2").replace("p=2f", "p=47")
        with pytest.raises(SidhlabInputError, match="e2 must be even"):
            loads_params(text)

    @pytest.mark.parametrize("key", ["xDA", "xDB"])
    def test_wrong_difference_refused(self, toy, key):
        """A difference x-coordinate moved off its basis, or zero, does not
        load."""
        F = toy.field
        for bad in (getattr(toy, key) + F.one, F.zero):
            with pytest.raises(SidhlabInputError):
                loads_params(dumps_params(toy._replace(**{key: bad})))

    def test_file_roundtrip(self, toy, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text(dumps_params(toy))
        again = loads_params(path.read_text())
        assert again == toy and again.field is not toy.field

    def test_file_rejects_wrong_p(self, toy, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text(dumps_params(toy))
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
            assert ref_xdbl_e(pt, coeff, toy.e2).is_infinity()
            assert not ref_xdbl_e(pt, coeff, toy.e2 - 1).is_infinity()

    def test_sk_congruence_gives_same_key(self, toy):
        # same kernel subgroup => byte-identical public key
        assert keygen(toy, BOB, 5) == keygen(toy, BOB, 5)
        _, trace = derive_with_trace(toy, BOB, 2, public_basis(toy, BOB))
        assert trace.completed

    def test_image_of_difference_is_difference_of_images(self, toy, rng):
        """x(phi(P - Q)) equals x(phi(P) - phi(Q)) via the full-point oracle."""
        pk = keygen(toy, BOB, 7)
        F = toy.field
        E1 = ReferenceCurve(get_a(pk, F), F)
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

        unliftable = 0
        for _ in range(50):
            bad = PublicKey(
                F.random_nonzero(rng), F.random_nonzero(rng), F.random_nonzero(rng)
            )
            try:
                A = get_a(bad, F)
            except InconsistentPublicKeyError:
                continue
            assert difference_consistent(bad.xP, bad.xQ, bad.xPQ, A, F)
            try:
                E = MontgomeryCurve(A, F)
            except ValueError:
                unliftable += 1
                continue
            if not all(F.is_square(E.rhs(x)) for x in (bad.xP, bad.xQ, bad.xPQ)):
                unliftable += 1
        assert unliftable > 0


def scripted(values):
    """A draw that hands out values in order, and the list of its calls."""
    calls, it = [], iter(values)

    def draw():
        calls.append(next(it))
        return calls[-1]

    return draw, calls


class TestCurveXDraws:
    def test_yields_the_nonzero_on_curve_draws_in_order(self, toy, rng):
        """0 and twist x are skipped; a 2-torsion x (rhs = 0) is on the
        curve and yielded.  With nothing left to yield, the draw is called
        exactly tries times, the skipped draws included."""
        F, E = toy.field, start_curve(toy)
        on, twist = [], []
        while len(on) < 4 or len(twist) < 3:
            x = F.random_nonzero(rng)
            (on if F.is_square(E.rhs(x)) else twist).append(x)
        two_torsion = next(F(v) for v in range(1, 431) if E.rhs(F(v)).is_zero())
        script = [F.zero, twist[0], on[0], on[1], twist[1], two_torsion, F.zero, on[2], twist[2], on[3], twist[0]]
        want = [on[0], on[1], two_torsion, on[2], on[3]]
        for tries in range(len(script) + 1):
            draw, calls = scripted(script)
            assert list(curve_x_draws(E, draw, tries)) == [x for x in script[:tries] if x in want]
            assert calls == script[:tries]

    def test_a_gf_p_draw_is_never_on_the_twist(self, toy, rng):
        """On A = 6 every nonzero GF(p) x is on the curve: a GF(p)-only draw
        yields each of its nonzero draws, and only GF(p) x."""
        F, E = toy.field, start_curve(toy)
        draw, calls = scripted([F(rng.randrange(F.p)) for _ in range(300)])
        drawn = list(curve_x_draws(E, draw, 300))
        assert len(calls) == 300
        assert drawn == [x for x in calls if not x.is_zero()]
        assert all(x.im == 0 for x in drawn)


class TestTorsionSampler:
    CASES = ((2, 2), (2, 4), (3, 1), (3, 3))

    @staticmethod
    def _exact(E, ell, k, x):
        """(P, [ell^(k-1)]P) by the affine group law, for P = [(p + 1) / ell^k]P0
        and x(P0) = x, when x is nonzero, on E and P has exact order ell^k;
        otherwise None."""
        if x.is_zero() or not E.field.is_square(E.rhs(x)):
            return None
        P = E.scalar_mul((E.field.p + 1) // ell**k, E.lift_x(x))
        top = E.scalar_mul(ell ** (k - 1), P)
        if top.infinity or not E.scalar_mul(ell, top).infinity:
            return None
        return P, top

    def _accepted(self, E, ell, k, rng, count):
        """count draws whose points clear to exact order ell^k, with
        distinct tops."""
        xs, tops = [], set()
        while len(xs) < count:
            x = E.field.random_element(rng)
            ref = self._exact(E, ell, k, x)
            if ref and ref[1].x not in tops:
                xs.append(x)
                tops.add(ref[1].x)
        return xs

    @staticmethod
    def _x_of_order(E, d, rng):
        """A nonzero x of a point of exact order d on E."""
        while (x := sample_point_of_order(E, d, rng).x).is_zero():
            pass
        return x

    @staticmethod
    def _twist_x(E, rng):
        while E.field.is_square(E.rhs(x := E.field.random_element(rng))):
            pass
        return x

    def test_malformed_curve_fails_at_the_first_large_order(self, toy, rng):
        """A = 5 over GF(431^2) is not a (Z/432)^2 curve: the sampler raises
        at the first point [ell^k] does not kill, here the one draw it
        accepts after a zero and a twist x, while the honest curve samples."""
        F = toy.field
        bad = ReferenceCurve(F(5), F)
        big = next(F(v) for v in range(2, 40) if not bad.scalar_mul(432, bad.lift_x(F(v))).infinity)
        script = [F.zero, self._twist_x(bad, rng), big]
        for ell, k in self.CASES:
            draw, calls = scripted(script)
            with pytest.raises(SamplingExhaustedError, match="malformed"):
                sample_torsion_x(bad, ell, k, draw)
            assert calls == script, (ell, k)
            sample_torsion_x(start_curve(toy), ell, k, lambda: F.random_element(rng))

    def test_returns_the_drawn_x0_and_the_top_of_its_point(self, toy, rng):
        """x0 is the last draw, and the first one whose point clears to exact
        order ell^k: a zero, a twist x, a point the cofactor kills and one of
        too small an order come before it.  P and x([ell^(k-1)]P) agree with
        the affine group law."""
        F, E = toy.field, start_curve(toy)
        for ell, k in self.CASES:
            script = [F.zero, self._twist_x(E, rng), self._x_of_order(E, 3 if ell == 2 else 4, rng)]
            if k > 1:
                script.append(self._x_of_order(E, ell ** (k - 1), rng))
            script += self._accepted(E, ell, k, rng, 1)
            draw, calls = scripted(script)
            x0, P, top = sample_torsion_x(E, ell, k, draw)
            assert calls == script and x0 == script[-1], (ell, k)
            assert not any(self._exact(E, ell, k, x) for x in script[:-1])
            want_P, want_top = self._exact(E, ell, k, x0)
            assert (x_affine(P), top) == (want_P.x, want_top.x), (ell, k)

    def test_an_avoid_hit_is_skipped(self, toy, rng):
        """A point whose top is avoid is skipped and the next one returned."""
        E = start_curve(toy)
        for ell, k in self.CASES:
            xs = self._accepted(E, ell, k, rng, 2)
            _, _, avoid = sample_torsion_x(E, ell, k, scripted(xs)[0])
            draw, calls = scripted(xs)
            x0, _, top = sample_torsion_x(E, ell, k, draw, avoid=avoid)
            assert calls == xs and x0 == xs[1] and top != avoid, (ell, k)

    def test_gives_up_after_1000_draws(self, toy, rng):
        """Zero draws, points of too small an order and avoid hits all count
        against the 1000 draws, and the sampler raises after the last."""
        F, E = toy.field, start_curve(toy)
        (hit,) = self._accepted(E, 3, 3, rng, 1)
        _, _, avoid = sample_torsion_x(E, 3, 3, scripted([hit])[0])
        draw, calls = scripted([F.zero, self._x_of_order(E, 9, rng), hit] * 400)
        with pytest.raises(SamplingExhaustedError, match="no point of order"):
            sample_torsion_x(E, 3, 3, draw, avoid=avoid)
        assert len(calls) == 1000


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
            proto.secret_isogeny,
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
