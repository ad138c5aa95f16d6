"""Arithmetic in GF(p) and GF(p^2) = GF(p)[i]/(i^2+1) for primes p = 2^e2 * 3^e3 - 1.

Elements are kept as canonical residues in [0, p).  Since p = 3 (mod 4),
x^2 + 1 is irreducible over GF(p) and the quadratic extension is realized
with a formal square root of -1.

NOT constant-time.  This package is an attack simulator; operand-dependent
timing is everywhere and by design (see README).
"""

from __future__ import annotations

import math
import random

_mpz = int  # read by perfbench/run.py for the backend line of its reports

MAX_P_BITS = 1024  # SIKE's p751 fits; a larger p would stall the primality test


class SidhlabInputError(ValueError):
    """A key, parameter set or file that cannot be used: the one class, with
    its subclasses, that the library raises for untrusted input."""


def parse_int(s: str, base: int = 10) -> int:
    """int(s, base), with SidhlabInputError for text that is not a number."""
    try:
        return int(s, base)
    except ValueError:
        raise SidhlabInputError(f"{s!r} is not a number") from None


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong probable prime to the bases 2..37 (which alone
    decides every n < 3.3e24) and a strong Lucas probable prime with
    Selfridge's parameters.  No composite is known to pass both."""
    if n < 2 or any(n % q == 0 for q in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in _SMALL_PRIMES:
        powers = [pow(a, (n - 1) >> (s - r), n) for r in range(s)]  # a^(d 2^r)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1  # a = 2^twos * odd
        a >>= twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 37 with P = 1 and Q = (1 - D)/4, D the
    first of 5, -7, 9, -11, ... with (D/n) = -1."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1: n is composite
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n  # U_k, V_k and Q^k for k = 1
    for bit in bin((n + 1) >> s)[3:]:  # k -> 2k, then k -> k + 1 on a set bit
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):  # V at k = d * 2^r, r = 0 .. s - 1
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


class Fp2:
    """An element re + i*im of GF(p^2), canonical residues.

    Treat as immutable (nothing in this package mutates one after creation;
    runtime enforcement is skipped because these are built millions of times
    per attack trial).  Arithmetic assumes both operands share p: no
    per-operation field check in the hot path.  Not hashable.
    """

    __slots__ = ("re", "im", "p")

    def __init__(self, re, im, p):
        self.re = re % p
        self.im = im % p
        self.p = p

    @staticmethod
    def _raw(re, im, p) -> "Fp2":
        # fast path: values already canonical residues
        el = object.__new__(Fp2)
        el.re = re
        el.im = im
        el.p = p
        return el

    def __add__(self, other: "Fp2") -> "Fp2":
        p = self.p
        return Fp2._raw((self.re + other.re) % p, (self.im + other.im) % p, p)

    def __sub__(self, other: "Fp2") -> "Fp2":
        p = self.p
        return Fp2._raw((self.re - other.re) % p, (self.im - other.im) % p, p)

    def __neg__(self) -> "Fp2":
        p = self.p
        return Fp2._raw(-self.re % p, -self.im % p, p)

    def __mul__(self, other: "Fp2") -> "Fp2":
        # Karatsuba: 3 base-field multiplications
        p = self.p
        t0 = self.re * other.re
        t1 = self.im * other.im
        t2 = (self.re + self.im) * (other.re + other.im)
        return Fp2._raw((t0 - t1) % p, (t2 - t0 - t1) % p, p)

    def sqr(self) -> "Fp2":
        p = self.p
        return Fp2._raw(
            ((self.re + self.im) * (self.re - self.im)) % p,
            (2 * self.re * self.im) % p,
            p,
        )

    def inv(self) -> "Fp2":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        p = self.p
        norm = (self.re * self.re + self.im * self.im) % p
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        d = pow(norm, -1, p)
        return Fp2._raw((self.re * d) % p, (-self.im * d) % p, p)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fp2):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.p == other.p

    def __repr__(self):
        return f"Fp2({self.re}, {self.im})"


class Fp2Field:
    """GF(p^2) for p = 2^e2 * 3^e3 - 1, built from the exponents alone and
    refused unless p is prime; e2 >= 2 makes p = 3 (mod 4), which _sqrt_fp
    relies on.  Element construction, square roots, serialization.  Fields
    compare by identity, elements by value."""

    def __init__(self, e2: int, e3: int):
        if e2 < 2 or e3 < 1:
            raise SidhlabInputError("need e2 >= 2 and e3 >= 1")
        if e3 > MAX_P_BITS or e2 + (3**e3).bit_length() > MAX_P_BITS:  # p's bit length
            raise SidhlabInputError(f"2^{e2} * 3^{e3} - 1 exceeds {MAX_P_BITS} bits")
        p = (1 << e2) * 3**e3 - 1
        if not is_probable_prime(p):
            raise SidhlabInputError(f"2^{e2} * 3^{e3} - 1 = {p} is not prime")
        self.p, self.e2, self.e3 = p, e2, e3
        self.zero = Fp2(0, 0, p)
        self.one = Fp2(1, 0, p)
        self._nbytes = (p.bit_length() + 7) // 8

    def __call__(self, re, im=0) -> Fp2:
        return Fp2(re, im, self.p)

    def random_element(self, rng: random.Random) -> Fp2:
        return Fp2._raw(rng.randrange(self.p), rng.randrange(self.p), self.p)

    def random_nonzero(self, rng: random.Random) -> Fp2:
        while True:
            x = self.random_element(rng)
            if x:
                return x

    # --- base-field helpers -------------------------------------------------

    def _legendre(self, v) -> int:
        """Legendre symbol of v in GF(p): 1, -1, or 0, as a Jacobi symbol
        (equal for a prime modulus, and several times faster than Euler's
        criterion v^((p-1)/2) on pure-Python ints)."""
        return _jacobi(v, self.p)

    def _sqrt_fp(self, v):
        """A square root of the square v in GF(p), v^((p+1)/4) as p = 3
        (mod 4); sqrt passes only squares (its docstring says why)."""
        return pow(v, (self.p + 1) >> 2, self.p)

    # --- squares ------------------------------------------------------------

    def is_square(self, x: Fp2) -> bool:
        """True iff x = y^2 for some y in GF(p^2): x is a square exactly when
        its norm re^2 + im^2 is one in GF(p), and _legendre tells that from
        the norm's Jacobi symbol."""
        if x.is_zero():
            return True
        # norm = 0 with x != 0 cannot happen: -1 is a non-square in GF(p)
        norm = (x.re * x.re + x.im * x.im) % self.p
        return self._legendre(norm) == 1

    def sqrt(self, x: Fp2) -> Fp2:
        """Canonical square root: of the two roots +-r, the one whose
        (im, re) pair is lexicographically smaller as integers.

        Raises ValueError for non-squares; the root it finds squares to x.
        For im = 0, re or -re is a square in GF(p) (-1 is not, p = 3 mod 4).
        For im != 0, the roots (re +- s)/2 of t^2 - re t - im^2/4, with
        s^2 = re^2 + im^2, have the non-square product -im^2/4, so one is a
        nonzero square t, and (r + i im/(2r))^2 = t + t' + i im = x for
        r^2 = t and t' = -im^2/(4t) the other root.
        """
        p = self.p
        if x.is_zero():
            return self.zero
        if x.im == 0:
            if self._legendre(x.re) == 1:
                root = Fp2._raw(self._sqrt_fp(x.re), 0, p)
            else:
                # (i*w)^2 = -w^2, so lift through the imaginary axis
                root = Fp2._raw(0, self._sqrt_fp(-x.re % p), p)
        else:
            norm = (x.re * x.re + x.im * x.im) % p
            if self._legendre(norm) != 1:
                raise ValueError("not a square in GF(p^2)")
            s = self._sqrt_fp(norm)
            half = pow(2, -1, p)
            t = ((x.re + s) * half) % p
            if self._legendre(t) != 1:
                t = ((x.re - s) * half) % p
            re = self._sqrt_fp(t)
            im = (x.im * pow(2 * re, -1, p)) % p
            root = Fp2._raw(re, im, p)
        neg = -root
        return root if (root.im, root.re) <= (neg.im, neg.re) else neg

    # --- serialization: big-endian hex, zero-padded to the field size -------

    def encode_fp(self, v: int) -> str:
        return format(v % self.p, f"0{2 * self._nbytes}x")

    def decode_fp(self, s: str) -> int:
        v = parse_int(s, 16)
        if not 0 <= v < self.p:
            raise SidhlabInputError("encoded value outside [0, p)")
        return v

    def encode(self, x: Fp2) -> str:
        return f"{self.encode_fp(x.re)},{self.encode_fp(x.im)}"

    def decode(self, s: str) -> Fp2:
        re_s, _, im_s = s.partition(",")
        return Fp2._raw(self.decode_fp(re_s), self.decode_fp(im_s), self.p)
