import math
import random

import pytest

from sidhlab.field import (
    Fp2Field,
    SidhlabInputError,
    _jacobi,
    _strong_lucas_probable_prime,
    is_probable_prime,
)
from sidhlab.protocol import dumps_params, loads_params

from helpers import check_each, element_cases

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

    def test_legendre_is_eulers_criterion_on_p434(self, p434):
        """The Jacobi-symbol Legendre equals v^((p-1)/2) on p434 residues."""
        F = p434.field
        p = int(F.p)
        r = random.Random(434)
        for v in [0, 1, 2, p - 1] + [r.randrange(p) for _ in range(300)]:
            e = pow(v, (p - 1) // 2, p)
            assert F._legendre(v) == (-1 if e == p - 1 else e), v

    def test_jacobi_is_the_product_of_legendre_symbols(self):
        """(a/n) for odd n < 300 equals the product of (a/q) over the prime
        factors q of n, each by Euler's criterion."""
        for n in range(3, 300, 2):
            factors, m, q = [], n, 3
            while m > 1:
                while m % q == 0:
                    factors.append(q)
                    m //= q
                q += 2
            for a in range(-n, 2 * n):
                want = 1
                for q in factors:
                    e = pow(a, (q - 1) // 2, q)
                    want *= -1 if e == q - 1 else e
                assert _jacobi(a, n) == want, (a, n)


class TestFieldAxioms:
    def test_mul_associative_distributive(self, F431):
        def check(x, y, z):
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

        check_each(element_cases(F431, 3, 80, random.Random(0)), check)

    def test_inverse_axiom(self, F431):
        def check(x):
            if not x.is_zero():
                assert x * x.inv() == F431.one

        check_each(element_cases(F431, 1, 80, random.Random(0)), check)

    def test_frobenius(self, F431):
        def powi(v, e):
            acc = F431.one
            while e:
                if e & 1:
                    acc = acc * v
                v = v.sqr()
                e >>= 1
            return acc

        def check(x):
            assert powi(x, P * P) == x
            assert (powi(x, P) == x) == (x.im == 0)

        check_each(element_cases(F431, 1, 60, random.Random(0)), check)


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
    """Fp2Field(e2, e3) computes p = 2^e2 * 3^e3 - 1 and refuses exponents
    that do not give a usable prime."""

    def test_from_exponents(self):
        F = Fp2Field(4, 3)
        assert (F.p, F.e2, F.e3) == (431, 4, 3) and F.p % 4 == 3

    # 2^1 * 27 - 1 = 53 is prime but 1 (mod 4), where sqrt would be wrong;
    # e3 = 0 gives the Mersenne numbers, with no 3-torsion at all
    @pytest.mark.parametrize("e2,e3", [(1, 3), (4, 0)])
    def test_exponent_floor(self, e2, e3):
        with pytest.raises(SidhlabInputError, match="e2 >= 2 and e3 >= 1"):
            Fp2Field(e2, e3)

    # 215 = 5 * 43, 35 = 5 * 7, 143 = 11 * 13, and a 434-bit composite
    @pytest.mark.parametrize("e2,e3", [(3, 3), (2, 2), (4, 2), (216, 136)])
    def test_rejects_non_prime(self, e2, e3):
        with pytest.raises(ValueError):
            Fp2Field(e2, e3)

    @pytest.mark.parametrize("e2,e3", [(4, 3), (216, 137)])  # toy431, p434
    def test_accepts_bundled_primes(self, e2, e3):
        assert is_probable_prime(Fp2Field(e2, e3).p)

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
        p = Fp2Field(216, 137).p
        assert not is_probable_prime(p * p)

    def test_rejects_mismatched_p(self, toy):
        """A parameter file is the one place a p can disagree with its
        exponents: toy431's with p = 433 does not load."""
        text = dumps_params(toy).replace("p=1af\n", "p=1b1\n")
        with pytest.raises(SidhlabInputError, match="p does not match its exponents"):
            loads_params(text)
