import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sidhlab.field import FieldParams, Fp2, Fp2Field, _strong_lucas_probable_prime, is_probable_prime

P = 431


def elem(F, re, im=0):
    return F(re, im)


class TestBasics:
    def test_norm_of_one_plus_i(self, F431):
        assert F431(1, 1) * F431(1, -1) == F431(2)

    def test_defining_relation(self, F431):
        assert F431(0, 1) * F431(0, 1) == F431(P - 1)

    def test_square_against_schoolbook(self, F431):
        # (3 + 5i)^2, expanded by hand over the integers mod 431
        re = (3 * 3 - 5 * 5) % P
        im = (2 * 3 * 5) % P
        assert F431(3, 5).sqr() == F431(re, im)
        assert F431(3, 5) * F431(3, 5) == F431(re, im)

    def test_inverse_trivial(self, F431):
        assert F431.one.inv() == F431.one
        assert F431(0, 1).inv() == -F431(0, 1)  # i * (-i) = 1

    def test_inverse_random(self, F431, rng):
        for _ in range(200):
            x = F431.random_nonzero(rng)
            assert x * x.inv() == F431.one

    def test_inversion_of_zero(self, F431):
        with pytest.raises(ZeroDivisionError):
            F431.zero.inv()


class TestSquares:
    def test_sqrt_four_canonical(self, F431):
        r = F431.sqrt(F431(4))
        assert r in (F431(2), F431(P - 2))
        neg = -r
        assert (int(r.im), int(r.re)) <= (int(neg.im), int(neg.re))

    def test_base_field_nonsquare_lifts_to_square(self, F431):
        # every GF(p) element has square norm, hence is a square in GF(p^2)
        g = next(
            v for v in range(2, P) if pow(v, (P - 1) // 2, P) == P - 1
        )
        x = F431(g)
        assert F431.is_square(x)
        assert F431.sqrt(x).sqr() == x

    def test_euler_criterion_exhaustive(self, F431):
        """is_square must agree with x^((p^2-1)/2) over the whole field."""
        exp = (P * P - 1) // 2
        mismatches = 0
        for re in range(P):
            for im in range(P):
                x = F431(re, im)
                if x.is_zero():
                    continue
                acc = F431.one
                base = x
                e = exp
                while e:
                    if e & 1:
                        acc = acc * base
                    base = base.sqr()
                    e >>= 1
                if F431.is_square(x) != (acc == F431.one):
                    mismatches += 1
        assert mismatches == 0

    def test_sqrt_roundtrip_random(self, F431, rng):
        for _ in range(300):
            y = F431.random_element(rng)
            x = y.sqr()
            r = F431.sqrt(x)
            assert r.sqr() == x

    def test_sqrt_of_nonsquare_raises(self, F431, rng):
        for _ in range(50):
            x = F431.random_nonzero(rng)
            if not F431.is_square(x):
                with pytest.raises(ValueError):
                    F431.sqrt(x)
                break
        else:
            pytest.fail("no non-square found")

    def test_is_square_multiplicative(self, F431, rng):
        for _ in range(200):
            x = F431.random_nonzero(rng)
            y = F431.random_nonzero(rng)
            assert F431.is_square(x * y) == (F431.is_square(x) == F431.is_square(y))


coord = st.integers(min_value=0, max_value=P - 1)


class TestFieldAxioms:
    @given(a=coord, b=coord, c=coord, d=coord, e=coord, f=coord)
    @settings(max_examples=80, deadline=None)
    def test_mul_associative_distributive(self, F431, a, b, c, d, e, f):
        x, y, z = F431(a, b), F431(c, d), F431(e, f)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(a=coord, b=coord)
    @settings(max_examples=80, deadline=None)
    def test_inverse_axiom(self, F431, a, b):
        x = F431(a, b)
        if not x.is_zero():
            assert x * x.inv() == F431.one

    @given(a=coord, b=coord)
    @settings(max_examples=60, deadline=None)
    def test_frobenius(self, F431, a, b):
        x = F431(a, b)

        def powi(v, e):
            acc = F431.one
            while e:
                if e & 1:
                    acc = acc * v
                v = v.sqr()
                e >>= 1
            return acc

        assert powi(x, P * P) == x
        assert (powi(x, P) == x) == (x.im == 0)


class TestSerialization:
    def test_roundtrip(self, F431, rng):
        for _ in range(50):
            x = F431.random_element(rng)
            assert F431.decode(F431.encode(x)) == x

    def test_fixed_width_hex(self, F431):
        s = F431.encode(F431(6))
        re, im = s.split(",")
        assert re == "0006" and im == "0000"  # 431 needs two bytes

    def test_decode_rejects_overflow(self, F431):
        with pytest.raises(ValueError):
            F431.decode_fp("ffff")


class TestFieldParams:
    def test_from_exponents(self):
        fp = FieldParams.from_exponents(4, 3)
        assert fp.p == 431 and fp.p % 4 == 3

    # 215 = 5 * 43, 35 = 5 * 7, 143 = 11 * 13, and a 434-bit composite
    @pytest.mark.parametrize("e2,e3", [(3, 3), (2, 2), (4, 2), (216, 136)])
    def test_rejects_non_prime(self, e2, e3):
        with pytest.raises(ValueError):
            FieldParams.from_exponents(e2, e3)

    @pytest.mark.parametrize("e2,e3", [(4, 3), (216, 137)])  # toy431, p434
    def test_accepts_bundled_primes(self, e2, e3):
        assert is_probable_prime(FieldParams.from_exponents(e2, e3).p)

    def test_prime_check_matches_trial_division(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(10**5) if is_probable_prime(n) != trial_division(n)] == []

    def test_lucas_half_admits_only_strong_lucas_pseudoprimes(self):
        """Below 10^5 the strong Lucas test (Selfridge parameters) passes
        exactly the primes and the known strong Lucas pseudoprimes (OEIS
        A217255), so it is exercised on its own too."""
        slpsp = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439}
        for n in range(41, 10**5, 2):
            if any(n % q == 0 for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
                continue
            assert _strong_lucas_probable_prime(n) == (is_probable_prime(n) or n in slpsp), n

    def test_rejects_composites_that_fool_small_bases(self):
        assert not is_probable_prime(3825123056546413051)  # strong psp to bases 2..23
        # a strong pseudoprime to every base 2..37: only the Lucas half rejects it
        assert not is_probable_prime(318665857834031151167461)
        p = FieldParams.from_exponents(216, 137).p
        assert not is_probable_prime(p * p)

    def test_rejects_mismatched_p(self):
        with pytest.raises(ValueError):
            FieldParams(p=433, e2=4, e3=3)
