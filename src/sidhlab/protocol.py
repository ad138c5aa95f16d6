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
from dataclasses import dataclass
from importlib.resources import files
from typing import Optional

from .field import FieldParams, Fp2, Fp2Field, SidhlabInputError, parse_int
from .isogeny import (
    ChainTrace,
    FaultHook,
    balanced_strategy,
    strategy_eval3,
    strategy_eval4,
    validate_strategy,
)
from .montgomery import (
    FullPoint,
    MontgomeryCurve,
    ProjCoeff,
    SamplingExhaustedError,
    XPoint,
    affine_a_from_projective,
    coeff_from_a,
    exact_order_multiple,
    j_invariant,
    ladder3pt,
    sample_point_of_order,
    x_affine,
    xdbl,
    xdbl_e,
    xpoint_from_affine,
    xtpl,
    xtpl_e,
)

ALICE = "alice"
BOB = "bob"


class InconsistentPublicKeyError(SidhlabInputError):
    """The three x-coordinates cannot sit on one curve as (P, Q, P-Q)."""


class DegenerateChainError(SidhlabInputError):
    """An isogeny chain hit a kernel that failed its order check."""


@dataclass(frozen=True, slots=True)
class PublicKey:
    """Affine x-coordinates (x(P'), x(Q'), x(P'-Q')) of a pushed basis."""

    xP: Fp2
    xQ: Fp2
    xPQ: Fp2


@dataclass
class SidhParams:
    """Public parameter set: field, starting curve A = 6, both torsion bases
    as x-coordinate triples, and default strategies."""

    name: str
    field_params: FieldParams
    field: Fp2Field
    xPA: Fp2
    xQA: Fp2
    xDA: Fp2
    xPB: Fp2
    xQB: Fp2
    xDB: Fp2
    strategy3: list
    strategy4: list

    @property
    def e2(self) -> int:
        return self.field_params.e2

    @property
    def e3(self) -> int:
        return self.field_params.e3

    @property
    def curve(self) -> MontgomeryCurve:
        return MontgomeryCurve(self.field(6), self.field)

    @property
    def coeff0(self) -> ProjCoeff:
        return coeff_from_a(self.field(6), self.field)

    def order_of(self, side: str) -> int:
        return 1 << self.e2 if side == ALICE else 3**self.e3

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
        F = self.field
        if self.e2 % 2 != 0:
            raise SidhlabInputError("e2 must be even (4-isogeny chains only)")
        coeff = self.coeff0
        xPA, xQA, xDA = self.basis_xpoints(ALICE)
        xPB, xQB, xDB = self.basis_xpoints(BOB)
        for label, P, ell, e in (
            ("x(PA)", xPA, 2, self.e2),
            ("x(QA)", xQA, 2, self.e2),
            ("x(PB)", xPB, 3, self.e3),
            ("x(QB)", xQB, 3, self.e3),
        ):
            if exact_order_multiple(P, coeff, ell, e) is None:
                raise SidhlabInputError(f"{label} does not have exact order {ell}^{e}")
        pa2 = xdbl_e(xPA, coeff, self.e2 - 1)
        qa2 = xdbl_e(xQA, coeff, self.e2 - 1)
        if x_affine(pa2) == x_affine(qa2):
            raise SidhlabInputError("Alice basis is dependent")
        if not x_affine(qa2).is_zero():
            raise SidhlabInputError("[2^(e2-1)]QA must be (0, 0)")
        if x_affine(pa2).is_zero():
            raise SidhlabInputError("[2^(e2-1)]PA must avoid (0, 0)")
        pb3 = xtpl_e(xPB, coeff, self.e3 - 1)
        qb3 = xtpl_e(xQB, coeff, self.e3 - 1)
        if x_affine(pb3) == x_affine(qb3):
            raise SidhlabInputError("Bob basis is dependent")
        if self.xPB.im != 0 or self.xQB.im != 0:
            raise SidhlabInputError("x(PB), x(QB) must lie in GF(p)")
        if self.xDB.im == 0:
            raise SidhlabInputError("x(PB - QB) must not lie in GF(p)")
        for (xP, xQ, xD, label) in (
            (self.xPA, self.xQA, self.xDA, "Alice"),
            (self.xPB, self.xQB, self.xDB, "Bob"),
        ):
            if not _difference_consistent(xP, xQ, xD, F(6), F):
                raise SidhlabInputError(f"{label} difference x-coordinate is inconsistent")
        for s, n in ((self.strategy3, self.e3), (self.strategy4, self.e2 // 2)):
            if not validate_strategy(s, n):
                raise SidhlabInputError("invalid default strategy")


def _difference_consistent(xP: Fp2, xQ: Fp2, xD: Fp2, A: Fp2, F: Fp2Field) -> bool:
    """xD must be a root of X^2 - S X + T = 0 where S and T are the known
    sum/product of x(P+Q) and x(P-Q) on the curve A."""
    if xP == xQ:
        return False
    d2 = (xP - xQ).sqr()
    prod = (xP * xQ - F.one).sqr()
    s_num = (xP + xQ) * (xP * xQ + F.one) + (A + A) * xP * xQ
    # X^2 - (2 s_num / d2) X + prod / d2 = 0, cleared of denominators:
    return (xD.sqr() * d2 - (s_num + s_num) * xD + prod).is_zero()


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


def sample_torsion_x(
    params: SidhParams,
    curve: MontgomeryCurve,
    ell: int,
    k: int,
    rng: random.Random,
    avoid: Optional[Fp2] = None,
) -> XPoint:
    """x-point of exact order ell^k (ell = 2 or 3) on the curve: a random x
    on the curve, the rest of p + 1 cleared (doublings first).  With avoid
    given, points whose order-ell multiple has x = avoid are skipped.

    On a curve with group (Z/(p+1))^2, [ell^k] kills every cleared point;
    the first one it does not kill proves the curve malformed and raises
    SamplingExhaustedError at once.  Only points of too small an order and
    avoid hits are retried."""
    F = params.field
    coeff = curve.coeff()
    e2 = params.e2 - k if ell == 2 else params.e2
    e3 = params.e3 - k if ell == 3 else params.e3
    mul_e, mul = (xdbl_e, xdbl) if ell == 2 else (xtpl_e, xtpl)
    for _ in range(1000):
        x = F.random_element(rng)
        if x.is_zero() or not F.is_square(curve.rhs(x)):
            continue
        pt = xtpl_e(xdbl_e(xpoint_from_affine(x, F), coeff, e2), coeff, e3)
        if pt.is_infinity():
            continue
        below = mul_e(pt, coeff, k - 1)
        if below.is_infinity():
            continue
        if not mul(below, coeff).is_infinity():
            raise SamplingExhaustedError(f"a point of order above {ell}^{k}: malformed curve")
        if avoid is None or x_affine(below) != avoid:
            return pt
    raise SamplingExhaustedError(f"no point of order {ell}^{k}")


def keygen(params: SidhParams, side: str, sk: int) -> PublicKey:
    """Compute the side's public key: quotient by <P + [sk]Q> and push the
    other side's basis triple through the chain."""
    _check_sk(params, side, sk)
    F = params.field
    coeff = params.coeff0
    xP, xQ, xD = params.basis_xpoints(side)
    kernel = ladder3pt(sk, xP, xQ, xD, coeff)
    other = ALICE if side == BOB else BOB
    push = list(params.basis_xpoints(other))
    if side == BOB:
        _, pushed, trace = strategy_eval3(kernel, coeff, params.strategy3, push)
    else:
        _, pushed, trace = strategy_eval4(kernel, coeff, params.strategy4, push)
    if not trace.completed:
        raise DegenerateChainError(f"keygen chain degenerate at step {trace.degenerate_at}")
    return PublicKey(*(x_affine(pt) for pt in pushed))


def derive_with_trace(
    params: SidhParams,
    side: str,
    sk: int,
    pk: PublicKey,
    hook: Optional[FaultHook] = None,
) -> tuple[Optional[ProjCoeff], ChainTrace]:
    """The derive chain with its trace; hook is the fault-injection surface.

    Returns (final coefficient, trace); the coefficient is the last one
    computed even when the trace is degenerate.
    """
    _check_sk(params, side, sk)
    coeff, xP, xQ, xD = chain_inputs(pk, params.field)
    kernel = ladder3pt(sk, xP, xQ, xD, coeff)
    if side == BOB:
        final, _, trace = strategy_eval3(kernel, coeff, params.strategy3, (), hook)
    else:
        if hook is not None:
            raise ValueError("the fault hook targets the 3-isogeny side only")
        final, _, trace = strategy_eval4(kernel, coeff, params.strategy4, ())
    return final, trace


def derive(params: SidhParams, side: str, sk: int, pk: PublicKey) -> Fp2:
    """Honest derive: the shared j-invariant.

    Raises SidhlabInputError for a pk it cannot use (DegenerateChainError
    when the pk corrupts the chain), and a plain ValueError for a bad side
    or sk.
    """
    final, trace = derive_with_trace(params, side, sk, pk)
    if not trace.completed:
        raise DegenerateChainError(f"derive chain degenerate at step {trace.degenerate_at}")
    return j_invariant(affine_a_from_projective(final), params.field)


def _check_sk(params: SidhParams, side: str, sk: int) -> None:
    if side not in (ALICE, BOB):
        raise ValueError(f"unknown side {side!r}")
    if not 0 <= sk < params.order_of(side):
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

    Deterministic for a given rng seed.
    """
    fp = FieldParams.from_exponents(e2, e3)
    if e2 % 2 != 0:
        raise SidhlabInputError("e2 must be even")
    F = Fp2Field(fp)
    E = MontgomeryCurve(F(6), F)
    p = fp.p

    def sample_alice(want_zero_below: bool):
        for _ in range(1000):
            P = sample_point_of_order(E, 1 << e2, rng)
            below = E.scalar_mul(1 << (e2 - 1), P)
            if below.x.is_zero() == want_zero_below:
                return P
        raise SamplingExhaustedError("no suitable 2-power basis point")

    QA = sample_alice(True)
    PA = sample_alice(False)
    DA = E.sub(PA, QA)

    def sample_bob_fp_x():
        """Exact order 3^e3 with x in GF(p); every GF(p) value lifts to E
        because its rhs has square norm, and the whole multiple tower then
        stays at GF(p) x-coordinates."""
        d = 3**e3
        for _ in range(1000):
            x = F(rng.randrange(p))
            rhs = E.rhs(x)
            if rhs.is_zero():
                continue
            P = FullPoint(x, F.sqrt(rhs))
            Q = E.scalar_mul((p + 1) // d, P)
            if Q.infinity:
                continue
            if not E.scalar_mul(d // 3, Q).infinity:
                return Q
        raise SamplingExhaustedError("no suitable 3-power basis point")

    d3 = 3 ** (e3 - 1)
    for _ in range(1000):
        PB = sample_bob_fp_x()
        QB = sample_bob_fp_x()
        if E.scalar_mul(d3, PB).x == E.scalar_mul(d3, QB).x:
            continue
        DB = E.sub(PB, QB)
        if DB.x.im != 0:
            break
    else:
        raise SamplingExhaustedError("no independent Bob basis with x(D) outside GF(p)")

    params = SidhParams(
        name=name or f"p{fp.p.bit_length()}",
        field_params=fp,
        field=F,
        xPA=PA.x,
        xQA=QA.x,
        xDA=DA.x,
        xPB=PB.x,
        xQB=QB.x,
        xDB=DB.x,
        strategy3=balanced_strategy(e3),
        strategy4=balanced_strategy(e2 // 2),
    )
    params.validate()
    return params


PARAM_KEYS = ("xPA", "xQA", "xDA", "xPB", "xQB", "xDB")
PK_KEYS = ("xP", "xQ", "xPQ")


def save_params(params: SidhParams, path) -> None:
    F = params.field
    lines = [
        "# sidhlab parameter set",
        f"name={params.name}",
        f"e2={params.e2}",
        f"e3={params.e3}",
        f"p={params.field_params.p:x}",
        "A=" + F.encode(F(6)),
    ]
    for key in PARAM_KEYS:
        lines.append(f"{key}={F.encode(getattr(params, key))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def loads_params(text: str) -> SidhParams:
    """Parse and validate a parameter file; SidhlabInputError when it
    cannot be used."""
    kv = _entries(text, ("e2", "e3", "p", "A") + PARAM_KEYS)
    fp = FieldParams.from_exponents(parse_int(kv["e2"]), parse_int(kv["e3"]))
    if parse_int(kv["p"], 16) != fp.p:
        raise SidhlabInputError("parameter file p does not match its exponents")
    F = Fp2Field(fp)
    if F.decode(kv["A"]) != F(6):
        raise SidhlabInputError("parameter file must use the A = 6 starting curve")
    params = SidhParams(
        name=kv.get("name", "unnamed"),
        field_params=fp,
        field=F,
        **{key: F.decode(kv[key]) for key in PARAM_KEYS},
        strategy3=balanced_strategy(fp.e3),
        strategy4=balanced_strategy(fp.e2 // 2),
    )
    params.validate()
    return params


def dumps_public_key(params: SidhParams, side: str, pk: PublicKey) -> str:
    """The public-key file: the parameter set it belongs to, the side that
    made it, and the triple."""
    F = params.field
    lines = [f"params={params.name}", f"p={params.field_params.p:x}", f"side={side}"]
    lines += [f"{key}={F.encode(getattr(pk, key))}" for key in PK_KEYS]
    return "\n".join(lines) + "\n"


def loads_public_key(text: str, params: SidhParams) -> tuple[str, PublicKey]:
    """(side, public key) from a public-key file made under params;
    SidhlabInputError when it cannot be used."""
    kv = _entries(text, ("p", "side") + PK_KEYS)
    if parse_int(kv["p"], 16) != params.field_params.p:
        raise SidhlabInputError("public key was produced under different parameters")
    if kv["side"] not in (ALICE, BOB):
        raise SidhlabInputError(f"unknown side {kv['side']!r}")
    return kv["side"], PublicKey(*(params.field.decode(kv[key]) for key in PK_KEYS))


def _entries(text: str, required: tuple) -> dict:
    """The key=value lines of a parameter or public-key file; blank lines
    and # comments are skipped."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
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
