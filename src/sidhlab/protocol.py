"""SIDH key generation and shared-secret derivation for both sides, plus
parameter-set construction, validation, and the on-disk formats of
parameter sets and public keys.

Conventions (SIKE-shaped):
  - starting curve A = 6,
  - Alice works with the 2^e2 torsion (e2 even, 4-isogeny chains),
  - Bob works with the 3^e3 torsion (3-isogeny chains),
  - [2^(e2-1)]Q_A = (0, 0), which keeps every 4-isogeny kernel away from
    the formulas' excluded x = +-1 points (preserved through 3-isogeny
    pushes since they fix x = 0),
  - x(P_B), x(Q_B) lie in GF(p) while x(P_B - Q_B) does not.
"""

from __future__ import annotations

import random
from functools import cache
from importlib.resources import files
from typing import Callable, Iterator, NamedTuple, Optional

from .field import Fp2, Fp2Field, SidhlabInputError, parse_int
from .isogeny import (
    ChainTrace,
    balanced_strategy,
    strategy_eval3,
    strategy_eval4,
)
from .montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    SamplingExhaustedError,
    XPoint,
    affine_a_from_projective,
    coeff_from_a,
    coeff_ints,
    exact_order_multiple_int,
    j_invariant,
    ladder3pt,
    x_affine,
    xdbl_e_int,
    xdbl_int,
    xpoint_from_affine,
    xpoint_from_ints,
    xtpl_e_int,
    xtpl_int,
)

ALICE = "alice"
BOB = "bob"


class InconsistentPublicKeyError(SidhlabInputError):
    """The three x-coordinates cannot sit on one curve as (P, Q, P-Q)."""


class PublicKey(NamedTuple):
    """Affine x-coordinates (x(P'), x(Q'), x(P'-Q')) of a pushed basis."""

    xP: Fp2
    xQ: Fp2
    xPQ: Fp2


class SidhParams(NamedTuple):
    """Public parameter set as its file holds it: the field, which keeps the
    exponents, and both torsion bases on A = 6."""

    name: str
    field: Fp2Field
    xPA: Fp2
    xQA: Fp2
    xDA: Fp2
    xPB: Fp2
    xQB: Fp2
    xDB: Fp2

    @property
    def strategy3(self) -> tuple:
        return _strategy(self.e3)

    @property
    def strategy4(self) -> tuple:
        return _strategy(self.e2 // 2)

    @property
    def e2(self) -> int:
        return self.field.e2

    @property
    def e3(self) -> int:
        return self.field.e3

    @property
    def coeff0(self) -> ProjCoeff:
        return coeff_from_a(self.field(6), self.field)

    def sk_range(self, side: str) -> range:
        """The honest private-key sampling range [1, l^(e-1) - 1]."""
        if side == ALICE:
            return range(1, (1 << (self.e2 - 1)) - 1 + 1)
        return range(1, 3 ** (self.e3 - 1) - 1 + 1)

    def sample_sk(self, side: str, rng: random.Random) -> int:
        r = self.sk_range(side)
        return rng.randrange(r.start, r.stop)

    def basis_xpoints(self, side: str) -> tuple[XPoint, XPoint, XPoint]:
        F = self.field
        if side == ALICE:
            xs = (self.xPA, self.xQA, self.xDA)
        else:
            xs = (self.xPB, self.xQB, self.xDB)
        return tuple(xpoint_from_affine(x, F) for x in xs)

    def validate(self) -> None:
        F, p = self.field, self.field.p
        check_exponents(self.e2, self.e3)
        C = coeff_ints(self.coeff0)
        tops = []  # x([l^(e-1)]P) of each basis point
        for label, x, ell, e in (
            ("x(PA)", self.xPA, 2, self.e2),
            ("x(QA)", self.xQA, 2, self.e2),
            ("x(PB)", self.xPB, 3, self.e3),
            ("x(QB)", self.xQB, 3, self.e3),
        ):
            top = exact_order_multiple_int((x.re, x.im, 1, 0), C, ell, e, p)
            if top is None:
                raise SidhlabInputError(f"{label} does not have exact order {ell}^{e}")
            tops.append(x_affine(xpoint_from_ints(top, p)))
        pa2, qa2, pb3, qb3 = tops
        if pa2 == qa2:
            raise SidhlabInputError("Alice basis is dependent")
        if not qa2.is_zero():
            raise SidhlabInputError("[2^(e2-1)]QA must be (0, 0)")
        if pb3 == qb3:
            raise SidhlabInputError("Bob basis is dependent")
        if self.xPB.im != 0 or self.xQB.im != 0:
            raise SidhlabInputError("x(PB), x(QB) must lie in GF(p)")
        if self.xDB.im == 0:
            raise SidhlabInputError("x(PB - QB) must not lie in GF(p)")
        # The basis x-coordinates are nonzero and distinct by now, so each
        # triple sits on A = 6 exactly when get_a recovers 6 from it.
        for label, triple in (
            ("Alice", (self.xPA, self.xQA, self.xDA)),
            ("Bob", (self.xPB, self.xQB, self.xDB)),
        ):
            if get_a(PublicKey(*triple), F) != F(6):
                raise SidhlabInputError(f"{label} difference x-coordinate is inconsistent")


@cache
def _strategy(n: int) -> tuple:
    """balanced_strategy(n), computed once per n; a tuple, so it is shared
    safely."""
    return tuple(balanced_strategy(n))


def check_exponents(e2: int, e3: int) -> None:
    """SidhlabInputError unless e2 is even (4-isogeny chains only) and e3 >= 2
    (Bob's key range [1, 3^(e3-1) - 1] is empty at e3 = 1)."""
    if e2 % 2 != 0:
        raise SidhlabInputError("e2 must be even (4-isogeny chains only)")
    if e3 < 2:
        raise SidhlabInputError("e3 must be at least 2 (no Bob private keys at e3 = 1)")


def get_a(pk: PublicKey, field: Fp2Field) -> Fp2:
    """Recover the Montgomery coefficient of the curve the triple sits on:
    A = (1 - xP xQ - xP xPQ - xQ xPQ)^2 / (4 xP xQ xPQ) - xP - xQ - xPQ."""
    F = field
    den = F(4) * pk.xP * pk.xQ * pk.xPQ
    if den.is_zero():
        raise InconsistentPublicKeyError("vanishing denominator in coefficient recovery")
    t = F.one - pk.xP * pk.xQ - pk.xP * pk.xPQ - pk.xQ * pk.xPQ
    return t.sqr() * den.inv() - pk.xP - pk.xQ - pk.xPQ


def chain_inputs(pk: PublicKey, field: Fp2Field) -> tuple[ProjCoeff, XPoint, XPoint, XPoint]:
    """What a chain keyed by pk starts from: (A + 2 : A - 2) for the curve
    the triple sits on, and the triple as x-points.  Raises
    InconsistentPublicKeyError when no curve carries the triple."""
    coeff = coeff_from_a(get_a(pk, field), field)
    return (coeff,) + tuple(xpoint_from_affine(x, field) for x in (pk.xP, pk.xQ, pk.xPQ))


def curve_x_draws(curve: MontgomeryCurve, draw: Callable[[], Fp2], tries: int) -> Iterator[Fp2]:
    """The x = draw() that are nonzero and on the curve, not its twist, in
    the order drawn.  Every draw counts against tries, skipped ones too."""
    F = curve.field
    for _ in range(tries):
        x = draw()
        if not x.is_zero() and F.is_square(curve.rhs(x)):
            yield x


def cleared(x: Fp2, C: tuple, e2: int, e3: int, p: int) -> tuple:
    """The ints of x([2^e2][3^e3]P) for x(P) = x, doublings first."""
    return xtpl_e_int(xdbl_e_int((x.re, x.im, 1, 0), C, e2, p), C, e3, p)


def at_infinity(t: tuple) -> bool:
    """(X : 0) with X != 0; (0 : 0) is not a point."""
    return not (t[2] or t[3]) and bool(t[0] or t[1])


def sample_torsion_x(
    curve: MontgomeryCurve,
    ell: int,
    k: int,
    draw: Callable[[], Fp2],
    avoid: Optional[Fp2] = None,
) -> tuple[Fp2, XPoint, Fp2]:
    """(x0, P, x([ell^(k-1)]P)) for P of exact order ell^k (ell = 2 or 3):
    the first x0 = draw() on the curve whose point P0 leaves P = [n]P0 of
    exact order ell^k, n = (p + 1) / ell^k (doublings first).  P keeps the
    clearing's projective ints: the representative decides what a fault in
    the masked chain does.  With avoid given, points whose order-ell
    multiple has x = avoid are skipped.

    On a curve with group (Z/(p+1))^2, [ell^k] kills every cleared point;
    the first one it does not kill proves the curve malformed and raises
    SamplingExhaustedError at once.  Only points of too small an order and
    avoid hits are retried, within 1000 draws."""
    F = curve.field
    p, C = F.p, coeff_ints(curve.coeff())
    e2, e3 = (F.e2 - k, F.e3) if ell == 2 else (F.e2, F.e3 - k)
    mul_e, mul = (xdbl_e_int, xdbl_int) if ell == 2 else (xtpl_e_int, xtpl_int)
    for x0 in curve_x_draws(curve, draw, 1000):
        P = cleared(x0, C, e2, e3, p)
        below = mul_e(P, C, k - 1, p)
        if at_infinity(P) or at_infinity(below):
            continue
        if not at_infinity(mul(below, C, p)):
            raise SamplingExhaustedError(f"a point of order above {ell}^{k}: malformed curve")
        top = x_affine(xpoint_from_ints(below, p))
        if avoid is None or top != avoid:
            return x0, xpoint_from_ints(P, p), top
    raise SamplingExhaustedError(f"no point of order {ell}^{k}")


def secret_isogeny(
    params: SidhParams, side: str, sk: int, coeff: ProjCoeff, triple, push=(), fault_at: Optional[int] = None
) -> tuple[ProjCoeff, list, ChainTrace]:
    """The side's chain from coeff with kernel x(P + [sk]Q), triple = (x(P), x(Q),
    x(P - Q)), on the side's strategy: strategy_eval3's result for Bob (push and
    fault_at as there), strategy_eval4's for Alice, who has no fault."""
    check_sk(params, side, sk)
    kernel = ladder3pt(sk, *triple, coeff)
    if side == BOB:
        return strategy_eval3(kernel, coeff, params.strategy3, push, fault_at)
    if fault_at is not None:
        raise ValueError("the fault targets the 3-isogeny side only")
    return strategy_eval4(kernel, coeff, params.strategy4, push)


def keygen(params: SidhParams, side: str, sk: int) -> PublicKey:
    """Compute the side's public key: quotient by <P + [sk]Q> and push the
    other side's basis triple through the chain."""
    push = params.basis_xpoints(ALICE if side == BOB else BOB)
    _, pushed, trace = secret_isogeny(params, side, sk, params.coeff0, params.basis_xpoints(side), push)
    trace.require_completed("keygen chain")
    return PublicKey(*(x_affine(pt) for pt in pushed))


def derive_with_trace(
    params: SidhParams,
    side: str,
    sk: int,
    pk: PublicKey,
    fault_at: Optional[int] = None,
) -> tuple[Optional[ProjCoeff], ChainTrace]:
    """The derive chain with its trace; fault_at is strategy_eval3's (Bob only).

    Returns (final coefficient, trace); the coefficient is the last one
    computed even when the trace is degenerate.  A bad side or sk raises
    before the pk is read."""
    check_sk(params, side, sk)
    coeff, *triple = chain_inputs(pk, params.field)
    final, _, trace = secret_isogeny(params, side, sk, coeff, triple, (), fault_at)
    return final, trace


def derive(params: SidhParams, side: str, sk: int, pk: PublicKey) -> Fp2:
    """Honest derive: the shared j-invariant.

    Raises SidhlabInputError for a pk it cannot use (DegenerateChainError
    when the pk corrupts the chain), and a plain ValueError for a bad side
    or sk.
    """
    final, trace = derive_with_trace(params, side, sk, pk)
    trace.require_completed("derive chain")
    return j_invariant(affine_a_from_projective(final), params.field)


def check_sk(params: SidhParams, side: str, sk: int) -> None:
    """A plain ValueError unless side is alice or bob and 0 <= sk < l^e."""
    if side not in (ALICE, BOB):
        raise ValueError(f"unknown side {side!r}")
    if not 0 <= sk < (1 << params.e2 if side == ALICE else 3**params.e3):
        raise ValueError("private scalar out of range")


# --------------------------------------------------------------------------
# Parameter generation and the key=value parameter and public-key files.
# --------------------------------------------------------------------------


def param_gen(
    e2: int,
    e3: int,
    rng: random.Random,
    name: Optional[str] = None,
) -> SidhParams:
    """Search a full parameter set over p = 2^e2 * 3^e3 - 1 (must be prime).

    Deterministic for a given rng seed.  SidhlabInputError for a name that
    the parameter file would not read back unchanged: one with a line break
    or surrounding blanks.
    """
    F = Fp2Field(e2, e3)
    check_exponents(e2, e3)
    if name and (name.splitlines() != [name] or name.strip() != name):
        raise SidhlabInputError(f"name {name!r} has a line break or surrounding blanks")
    E = MontgomeryCurve(F(6), F)
    C, p = coeff_ints(E.coeff()), F.p

    def difference_x(xP0: Fp2, xQ0: Fp2, n2: int, n3: int) -> Fp2:
        """x(P - Q) = x([n](P0 - Q0)) for P = [n]P0 and Q = [n]Q0, with
        n = 2^n2 3^n3 and P != +-Q: the chord of P0 = (xP0, sqrt(rhs)) and
        -Q0, cleared."""
        yP0, yQ0 = F.sqrt(E.rhs(xP0)), F.sqrt(E.rhs(xQ0))
        D = cleared(E.chord_x((xP0, yP0), (xQ0, -yQ0)), C, n2, n3, p)
        return x_affine(xpoint_from_ints(D, p))

    def sample_alice(want_zero_top: bool) -> tuple[Fp2, Fp2]:
        for _ in range(1000):
            x0, P, top = sample_torsion_x(E, 2, e2, lambda: F.random_element(rng))
            if top.is_zero() == want_zero_top:
                return x0, x_affine(P)
        raise SamplingExhaustedError("no suitable 2-power basis point")

    xQA0, xQA = sample_alice(True)
    xPA0, xPA = sample_alice(False)
    xDA = difference_x(xPA0, xQA0, 0, e3)

    # x(P_B), x(Q_B) in GF(p): the whole multiple tower stays there too.  A
    # GF(p) draw is never on the twist.
    for _ in range(1000):
        xPB0, PB, pb3 = sample_torsion_x(E, 3, e3, lambda: F(rng.randrange(p)))
        xQB0, QB, qb3 = sample_torsion_x(E, 3, e3, lambda: F(rng.randrange(p)))
        if pb3 == qb3:
            continue
        xDB = difference_x(xPB0, xQB0, e2, 0)
        if xDB.im != 0:
            break
    else:
        raise SamplingExhaustedError("no independent Bob basis with x(D) outside GF(p)")

    params = SidhParams(
        name=name or f"p{p.bit_length()}",
        field=F,
        xPA=xPA,
        xQA=xQA,
        xDA=xDA,
        xPB=x_affine(PB),
        xQB=x_affine(QB),
        xDB=xDB,
    )
    params.validate()
    return params


PARAM_KEYS = ("xPA", "xQA", "xDA", "xPB", "xQB", "xDB")
PK_KEYS = ("xP", "xQ", "xPQ")


def dumps_params(params: SidhParams) -> str:
    """The parameter file that loads_params reads back."""
    F = params.field
    lines = [
        "# sidhlab parameter set",
        f"name={params.name}",
        f"e2={params.e2}",
        f"e3={params.e3}",
        f"p={params.field.p:x}",
        "A=" + F.encode(F(6)),
    ]
    for key in PARAM_KEYS:
        lines.append(f"{key}={F.encode(getattr(params, key))}")
    return "\n".join(lines) + "\n"


def loads_params(text: str) -> SidhParams:
    """Parse and validate a parameter file; SidhlabInputError when it
    cannot be used."""
    kv = _entries(text, ("e2", "e3", "p", "A") + PARAM_KEYS)
    F = Fp2Field(parse_int(kv["e2"]), parse_int(kv["e3"]))
    if parse_int(kv["p"], 16) != F.p:
        raise SidhlabInputError("parameter file p does not match its exponents")
    if F.decode(kv["A"]) != F(6):
        raise SidhlabInputError("parameter file must use the A = 6 starting curve")
    params = SidhParams(
        name=kv.get("name", "unnamed"),
        field=F,
        **{key: F.decode(kv[key]) for key in PARAM_KEYS},
    )
    params.validate()
    return params


def dumps_public_key(params: SidhParams, side: str, pk: PublicKey) -> str:
    """The public-key file: the parameter set it belongs to, the side that
    made it, and the triple."""
    F = params.field
    lines = [f"params={params.name}", f"p={params.field.p:x}", f"side={side}"]
    lines += [f"{key}={F.encode(getattr(pk, key))}" for key in PK_KEYS]
    return "\n".join(lines) + "\n"


def loads_public_key(text: str, params: SidhParams) -> tuple[str, PublicKey]:
    """(side, public key) from a public-key file made under params;
    SidhlabInputError when it cannot be used."""
    kv = _entries(text, ("p", "side") + PK_KEYS)
    if parse_int(kv["p"], 16) != params.field.p:
        raise SidhlabInputError("public key was produced under different parameters")
    if kv["side"] not in (ALICE, BOB):
        raise SidhlabInputError(f"unknown side {kv['side']!r}")
    return kv["side"], PublicKey(*(params.field.decode(kv[key]) for key in PK_KEYS))


def _entries(text: str, required: tuple) -> dict:
    """The key=value lines of a parameter or public-key file; blank lines
    and # comments are skipped, and a key may appear only once."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            key = key.strip()
            if key in kv:
                raise SidhlabInputError(f"repeated {key!r} entry")
            kv[key] = value.strip()
    for key in required:
        if key not in kv:
            raise SidhlabInputError(f"no {key!r} entry")
    return kv


def bundled_params(name: str) -> SidhParams:
    """Load one of the parameter sets shipped with the package."""
    path = files("sidhlab").joinpath(f"params/{name}.txt")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled parameter set named {name!r}")
    return loads_params(path.read_text())
