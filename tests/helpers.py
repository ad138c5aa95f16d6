"""Test-only helpers: views of the parameters, curves and responders that the
program itself never needs, and references the program is checked against.
The affine group law lives here alone (ReferenceCurve and FullPoint), as the
independent reference for the x-only kernels, the ladder, the curve's affine
multiple and chord, the Velu oracle and a full-point torsion sampler.  The
other references are earlier recipes: for sidhlab.attack, the forged pair
from a fresh ladder and strategy walk from E_0 per call, and the candidate
kernels from three binary ladders over the pushed-back forged triple; for
get_a, the sum/product relation for x(P +- Q); for the int kernels and the
chain walker, the x-only formulas on Fp2 objects, a walker that checks every
kernel, and the 2^k masking walk as it stood before it ran on the chain
walker; an e3 = 1 parameter file that nothing may load; CliRunner, which
runs the command line in-process and captures what it prints; and the
seeded case generators of the property tests, which put boundary cases
first and name a failing case, since nothing shrinks it.
"""

import contextlib
import functools
import io
import random
from typing import NamedTuple, Optional

import pytest

from sidhlab.attack import OracleContradictionError
from sidhlab.countermeasure import derive_bob_naive_reject
from sidhlab.field import Fp2
from sidhlab.isogeny import (
    ChainTrace,
    DegenerateChainError,
    balanced_strategy,
    strategy_eval3,
    xeval3,
)
from sidhlab.isogeny import _schedule as schedule
from sidhlab.montgomery import (
    MontgomeryCurve,
    ProjCoeff,
    SamplingExhaustedError,
    XPoint,
    affine_a_from_projective,
    coeff_from_a,
    ladder3pt,
    x_affine,
    xadd,
    xdbl,
    xpoint_from_affine,
    xtpl_e,
    zero_imaginary_parts,
)
from sidhlab.protocol import (
    ALICE,
    BOB,
    PublicKey,
    bundled_params,
    chain_inputs,
    keygen,
    sample_torsion_x,
)


def public_basis(params, side):
    """The starting-curve basis triple viewed as a PublicKey."""
    if side == ALICE:
        return PublicKey(params.xPA, params.xQA, params.xDA)
    return PublicKey(params.xPB, params.xQB, params.xDB)


class FullPoint(NamedTuple):
    """Affine point (x, y) or infinity."""

    x: Optional[Fp2]
    y: Optional[Fp2]
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "FullPoint":
        return cls(x=None, y=None, infinity=True)


class ReferenceCurve(MontgomeryCurve):
    """The curve with the textbook affine group law on FullPoints."""

    def lift_x(self, x: Fp2) -> FullPoint:
        """The point (x, y) with the canonical square root as y.

        Raises ValueError when x is on the twist (rhs is a non-square).
        """
        return FullPoint(x, self.field.sqrt(self.rhs(x)))

    def negate(self, P: FullPoint) -> FullPoint:
        if P.infinity:
            return P
        return FullPoint(P.x, -P.y)

    def add(self, P: FullPoint, Q: FullPoint) -> FullPoint:
        if P.infinity:
            return Q
        if Q.infinity:
            return P
        if P.x == Q.x:
            if P.y == Q.y:
                return self.double(P)
            return FullPoint.at_infinity()
        lam = (Q.y - P.y) * (Q.x - P.x).inv()
        x3 = lam.sqr() - self.A - P.x - Q.x
        return FullPoint(x3, lam * (P.x - x3) - P.y)

    def double(self, P: FullPoint) -> FullPoint:
        if P.infinity or P.y.is_zero():
            return FullPoint.at_infinity()
        f = self.field
        num = f(3) * P.x.sqr() + (self.A + self.A) * P.x + f.one
        lam = num * (P.y + P.y).inv()
        x3 = lam.sqr() - self.A - P.x - P.x
        return FullPoint(x3, lam * (P.x - x3) - P.y)

    def sub(self, P: FullPoint, Q: FullPoint) -> FullPoint:
        return self.add(P, self.negate(Q))

    def scalar_mul(self, k: int, P: FullPoint) -> FullPoint:
        if k < 0:
            return self.scalar_mul(-k, self.negate(P))
        R = FullPoint.at_infinity()
        Q = P
        while k:
            if k & 1:
                R = self.add(R, Q)
            Q = self.double(Q)
            k >>= 1
        return R


def start_curve(params):
    """The starting curve A = 6 of a parameter set, with the affine group law."""
    return ReferenceCurve(params.field(6), params.field)


def xpoint_eq(P: XPoint, Q: XPoint) -> bool:
    """Projective equality X_P * Z_Q = X_Q * Z_P (infinity-aware)."""
    return (P.X * Q.Z) == (Q.X * P.Z)


def difference_consistent(xP, xQ, xD, A, F) -> bool:
    """xD must be a root of X^2 - S X + T = 0 where S and T are the known
    sum/product of x(P+Q) and x(P-Q) on the curve A."""
    if xP == xQ:
        return False
    d2 = (xP - xQ).sqr()
    prod = (xP * xQ - F.one).sqr()
    s_num = (xP + xQ) * (xP * xQ + F.one) + (A + A) * xP * xQ
    # X^2 - (2 s_num / d2) X + prod / d2 = 0, cleared of denominators:
    return (xD.sqr() * d2 - (s_num + s_num) * xD + prod).is_zero()


def sample_point_of_order(curve: ReferenceCurve, d: int, rng: random.Random) -> FullPoint:
    """A uniform-ish point of exact order d on the curve (not its twist).

    d must be a power of 2 or 3 dividing p + 1; cofactor-cleared random
    points are rejected until [d/l]P != infinity.
    """
    if d == 1:
        return FullPoint.at_infinity()
    ell = 2 if d % 2 == 0 else 3
    m = d
    while m % ell == 0:
        m //= ell
    if m != 1:
        raise ValueError("order must be a power of 2 or 3")
    p = curve.field.p
    if (p + 1) % d != 0:
        raise ValueError("order does not divide p + 1")
    for _ in range(1000):
        x = curve.field.random_element(rng)
        rhs = curve.rhs(x)
        if not curve.field.is_square(rhs):
            continue  # on the twist
        Q = curve.scalar_mul((p + 1) // d, FullPoint(x, curve.field.sqrt(rhs)))
        if not Q.infinity and not curve.scalar_mul(d // ell, Q).infinity:
            return Q
    raise SamplingExhaustedError(f"no point of order {d} after 1000 tries")


def xpoint_infinity(field):
    """The x-only point at infinity, (1 : 0)."""
    return XPoint(field.one, field.zero)


def xmul(k, P, coeff, field):
    """x([k]P) by the Montgomery ladder, which, unlike ladder3pt, needs no
    x(P - Q) and so starts from infinity."""
    R0, R1 = xpoint_infinity(field), P
    for bit in bin(k)[2:]:
        if bit == "1":
            R0, R1 = xadd(R0, R1, P), xdbl(R1, coeff)
        else:
            R0, R1 = xdbl(R0, coeff), xadd(R0, R1, P)
    return R0


def xpoint(curve: ReferenceCurve, P: FullPoint):
    """The x-only view of a full point."""
    if P.infinity:
        return xpoint_infinity(curve.field)
    return xpoint_from_affine(P.x, curve.field)


@functools.cache
def setting(name):
    """(params, the victim's sk, an honest Alice key) for a bundled set."""
    ps = bundled_params(name)
    sk = ps.sample_sk(BOB, random.Random(3))
    return ps, sk, keygen(ps, ALICE, ps.sample_sk(ALICE, random.Random(4)))


def check_each(cases, check):
    """check(*case) for each case in turn; a failure, an error or a failed
    pytest.raises inside check, names its case."""
    for case in cases:
        try:
            check(*case)
        except (Exception, pytest.fail.Exception) as exc:
            raise AssertionError(f"failing case {case!r}") from exc


def element_cases(F, elements, examples, rng):
    """examples tuples of elements GF(p^2) elements: first the nine elements
    whose coordinates are 0, 1 or p - 1, each filling a whole tuple, then
    uniform draws from rng."""
    edges = [(F(re, im),) * elements for re in (0, 1, F.p - 1) for im in (0, 1, F.p - 1)]
    draws = [
        tuple(F(rng.randrange(F.p), rng.randrange(F.p)) for _ in range(elements))
        for _ in range(examples - len(edges))
    ]
    return edges + draws


def public_keys(name, examples, rng):
    """examples (public key, fault index i) cases for a bundled set. First
    the honest key, whose chain runs to the fault; the triples of 0, 1 or
    p - 1; and the honest key with one coordinate set to 0, 1 or p - 1,
    moved by one or projected to GF(p); each at i = 0 and at i = e3 - 2.
    Then random triples and randomly edited honest keys, at a random i."""
    ps, _, honest = setting(name)
    F = ps.field
    slots, edges = ("xP", "xQ", "xPQ"), (F(0), F(1), F(F.p - 1))

    def edit(slot, how, x=None):
        old = getattr(honest, slot)
        new = {"replace": x, "nudge": old + F.one, "project": F(old.re)}[how]
        return honest._replace(**{slot: new})

    keys = [honest] + [PublicKey(x, x, x) for x in edges]
    keys += [edit(slot, how) for slot in slots for how in ("nudge", "project")]
    keys += [edit(slot, "replace", x) for slot in slots for x in edges]
    cases = [(pk, i) for pk in keys for i in (0, ps.e3 - 2)]
    while len(cases) < examples:
        triple = [F(rng.randrange(F.p), rng.randrange(F.p)) for _ in slots]
        if rng.randrange(2):
            pk = PublicKey(*triple)
        else:
            pk = edit(rng.choice(slots), rng.choice(("replace", "nudge", "project")), triple[0])
        cases.append((pk, rng.randrange(ps.e3 - 1)))
    return cases


def mutated_texts(text, examples, rng):
    """examples edits of a parameter or public-key file's text. First each
    line dropped, emptied after its "=" or set to 0; then one to three lines
    dropped, given a new value, or changed in one character."""
    lines = text.splitlines()
    cases = []
    for i, line in enumerate(lines):
        key = line.partition("=")[0]
        cases += [lines[:i] + edit + lines[i + 1 :] for edit in ([], [key + "="], [key + "=0"])]
    while len(cases) < examples:
        edited = list(lines)
        for _ in range(rng.randint(1, 3)):
            if not edited:
                break
            i = rng.randrange(len(edited))
            kind = rng.choice(("drop", "value", "char"))
            if kind == "drop":
                del edited[i]
            elif kind == "value":
                if rng.randrange(2):
                    value = str(rng.randint(-2, 70000))
                else:
                    value = "".join(rng.choices("0123456789abcdefx,=-+_# ", k=rng.randint(0, 16)))
                edited[i] = edited[i].partition("=")[0] + "=" + value
            elif edited[i]:
                j = rng.randrange(len(edited[i]))
                edited[i] = edited[i][:j] + rng.choice("0123456789abcdef,=-x# ") + edited[i][j + 1 :]
        cases.append(edited)
    return ["\n".join(case) + "\n" for case in cases]


def make_reject_oracle(params, sk: int):
    """True iff the naive GF(p)-reject responder rejects the public key."""

    def _oracle(pk: PublicKey) -> bool:
        return not derive_bob_naive_reject(params, sk, pk).accepted

    return _oracle


def on_curve(curve: ReferenceCurve, P: FullPoint) -> bool:
    if P.infinity:
        return True
    return P.y.sqr() == curve.rhs(P.x)


def prefix_chain(params, sk_prefix, i, inputs, push):
    """The first i steps of Bob's chain for any key = sk_prefix mod 3^i:
    kernel [3^(e3-i)](P + [sk_prefix]Q) from inputs = (coeff, x(P), x(Q),
    x(P - Q)), pushing the given points; strategy_eval3's result shape."""
    coeff, xP, xQ, xD = inputs
    if i == 0:
        return coeff, list(push), ChainTrace((coeff,), (), None, None, False)
    kernel = xtpl_e(ladder3pt(sk_prefix, xP, xQ, xD, coeff), coeff, params.e3 - i)
    return strategy_eval3(kernel, coeff, balanced_strategy(i), push)


def debug_assert_forced_curve(params, sk_prefix, pk, i) -> bool:
    """Replay the victim's first i steps on pk (kernel [3^(e3-i)](P'+[sk]Q'),
    which the forger arranged to be the backtracking walk) and confirm the
    i-th codomain is exactly the A = 6 curve."""
    final, _, trace = prefix_chain(params, sk_prefix, i, chain_inputs(pk, params.field), ())
    return trace.completed and affine_a_from_projective(final) == params.field(6)


def reference_forge(params, sk_prefix: int, i: int, rng: random.Random, negate_phi_q=False) -> tuple:
    """The forged pair (pk, pk_second) for trit i >= 1 built from a fresh
    i-step walk of E_0, a fresh anchor [3^(e3-1)]phi(Q) and four binary
    ladders; the same random draws as attack.forge_public_keys.
    negate_phi_q flips the sign recovered for phi(Q), which must not change
    any verdict."""
    F = params.field
    basis = params.basis_xpoints(BOB)
    final, pushed, trace = prefix_chain(params, sk_prefix, i, (params.coeff0, *basis), [basis[1]])
    if not trace.completed:
        raise OracleContradictionError(f"attacker chain degenerate at step {trace.degenerate_at}")
    A_i = affine_a_from_projective(final)
    E_i = ReferenceCurve(A_i, F)
    coeff_i = coeff_from_a(A_i, F)
    x_phiq = x_affine(pushed[0])
    xq_pt = xpoint_from_affine(x_phiq, F)
    anchor_x = x_affine(xtpl_e(xq_pt, coeff_i, params.e3 - 1))
    _, T, _ = sample_torsion_x(E_i, 3, params.e3, lambda: F.random_element(rng), avoid=anchor_x)
    x_t = x_affine(T)

    phi_q = E_i.lift_x(x_phiq)
    if negate_phi_q:
        phi_q = E_i.negate(phi_q)
    t_full = E_i.lift_x(x_t)
    xt_pt = xpoint_from_affine(x_t, F)
    dif_pt = xpoint_from_affine(E_i.sub(phi_q, t_full).x, F)
    sum_pt = xpoint_from_affine(E_i.add(phi_q, t_full).x, F)

    def combo(m, diff):
        return x_affine(ladder3pt(m, xq_pt, xt_pt, diff, coeff_i))

    pk = PublicKey(combo(sk_prefix, dif_pt), x_t, combo(sk_prefix + 1, dif_pt))
    m2 = 3**i - sk_prefix
    pk_second = PublicKey(combo(m2, sum_pt), x_t, combo(m2 - 1, sum_pt))
    return pk, pk_second


def reference_candidates(walk, pk: PublicKey) -> tuple:
    """The candidate kernels for the walk's trit from the forged pk alone:
    the triple pushed back through the walk's duals to the A = 6 curve, then
    [3^(e3-1-i)](P~ + [sk + t*3^i]Q~) by a three-point ladder for each t."""
    params, i = walk.params, walk.i
    F = params.field
    pts = [xpoint_from_affine(x, F) for x in (pk.xP, pk.xQ, pk.xPQ)]
    for dual in reversed(walk.duals):
        pts = [xeval3(pt, dual) for pt in pts]
    coeff = params.coeff0
    return tuple(
        xtpl_e(ladder3pt(walk.sk + t * 3**i, *pts, coeff), coeff, params.e3 - 1 - i)
        for t in range(3)
    )


# --------------------------------------------------------------------------
# The chain arithmetic on Fp2 objects, as it stood before the int kernels:
# each formula written out from its docstring, and the walker that checks
# every kernel.  The int kernels must return exactly these canonical ints,
# and strategy_eval2/3/4 exactly this walker's results.
# --------------------------------------------------------------------------


def ref_xdbl(P, coeff):
    t0 = (P.X - P.Z).sqr()
    t1 = (P.X + P.Z).sqr()
    t2 = t1 - t0
    c0 = (coeff.alpha - coeff.beta) * t0  # 4C t0
    return XPoint(c0 * t1, t2 * (c0 + coeff.alpha * t2))


def ref_xadd(P, Q, diff):
    u = (P.X - P.Z) * (Q.X + Q.Z)
    v = (P.X + P.Z) * (Q.X - Q.Z)
    return XPoint(diff.Z * (u + v).sqr(), diff.X * (u - v).sqr())


def ref_xtpl(P, coeff):
    if P.Z.is_zero() or P.X.is_zero():
        return P
    return ref_xadd(ref_xdbl(P, coeff), P, P)


def ref_xdbl_e(P, coeff, e):
    for _ in range(e):
        P = ref_xdbl(P, coeff)
    return P


def ref_xtpl_e(P, coeff, e):
    for _ in range(e):
        P = ref_xtpl(P, coeff)
    return P


def ref_exact_order_multiple(P, coeff, ell, e):
    if P.Z.is_zero():
        return None
    mul_e, mul = (ref_xdbl_e, ref_xdbl) if ell == 2 else (ref_xtpl_e, ref_xtpl)
    below = mul_e(P, coeff, e - 1)
    if below.Z.is_zero() or not mul(below, coeff).is_infinity():
        return None
    return below


def ref_ladder3pt(k, xP, xQ, xPQ, coeff):
    R0, R1, R2 = xQ, xP, xPQ
    while k:
        if k & 1:
            R1 = ref_xadd(R1, R0, R2)
        else:
            R2 = ref_xadd(R2, R0, R1)
        R0 = ref_xdbl(R0, coeff)
        k >>= 1
    return R1


def ref_xisog3(K):
    """(codomain coefficient, (X - Z, X + Z))."""
    k1, k2 = K.X - K.Z, K.X + K.Z
    t = K.X + K.X + K.X
    u, v = t + K.Z, t - K.Z
    return ProjCoeff(k1 * u.sqr() * u, k2 * v.sqr() * v), (k1, k2)


def ref_xeval3(Q, data):
    k1, k2 = data
    t0 = k1 * (Q.X + Q.Z)
    t1 = k2 * (Q.X - Q.Z)
    return XPoint(Q.X * (t0 + t1).sqr(), Q.Z * (t0 - t1).sqr())


def ref_xisog4(K):
    """(codomain coefficient, (4Z^2, X - Z, X + Z))."""
    x2, z2 = K.X.sqr(), K.Z.sqr()
    alpha = (x2 + x2).sqr()
    zz2 = z2 + z2
    return ProjCoeff(alpha, alpha - zz2.sqr()), (zz2 + zz2, K.X - K.Z, K.X + K.Z)


def ref_xeval4(Q, data):
    k1, k2, k3 = data
    t0, t1 = Q.X + Q.Z, Q.X - Q.Z
    xq, zq = t0 * k2, t1 * k3
    s = t0 * t1 * k1
    a, b = (xq + zq).sqr(), (xq - zq).sqr()
    return XPoint((s + a) * a, b * (b - s))


def ref_xisog2(K):
    """2-isogeny from an order-2 kernel x(K) != 0: (codomain, (X, Z))."""
    x2 = K.X.sqr()
    return ProjCoeff(K.Z.sqr() - x2, -x2), (K.X, K.Z)


def ref_xisog2_zero(coeff, field):
    """2-isogeny with the (0, 0) kernel: (((s + 2)^2 : (s - 2)^2), (2s,)),
    s the canonical sqrt(A + 2); DegenerateChainError when A + 2 is not a
    square."""
    A = affine_a_from_projective(coeff)
    two = field(2)
    if not field.is_square(A + two):
        raise DegenerateChainError("A + 2 is not a square at a (0, 0) kernel")
    s = field.sqrt(A + two)
    return ProjCoeff((s + two).sqr(), (s - two).sqr()), (s + s,)


def ref_xeval2(Q, data):
    if len(data) == 1:  # the (0, 0) kernel
        (two_s,) = data
        return XPoint((Q.X - Q.Z).sqr(), two_s * Q.X * Q.Z)
    kx, kz = data
    return XPoint(Q.X * (Q.X * kx - Q.Z * kz), Q.Z * (Q.X * kz - Q.Z * kx))


def two_power_walk(kernel, coeff, k, push, field):
    """The k-step 2-isogeny chain with kernel <kernel>, doubling afresh from
    the kernel's image at each step and checking every step's kernel:
    (codomain, pushed points), or DegenerateChainError when a kernel is
    infinity."""
    R = kernel
    pushed = list(push)
    for j in range(k):
        K = ref_xdbl_e(R, coeff, k - 1 - j)
        if K.Z.is_zero():
            raise DegenerateChainError(f"2-power walk kernel collapsed at step {j}")
        coeff, data = ref_xisog2_zero(coeff, field) if K.X.is_zero() else ref_xisog2(K)
        if j < k - 1:
            R = ref_xeval2(R, data)
        pushed = [ref_xeval2(pt, data) for pt in pushed]
    return coeff, pushed


def _ref_has_order_3(R, coeff):
    return ref_exact_order_multiple(R, coeff, 3, 1) is not None


def _ref_has_order_4(R, coeff):
    if (R.X - R.Z).is_zero() or (R.X + R.Z).is_zero():
        return False
    return ref_exact_order_multiple(R, coeff, 2, 2) is not None


def reference_walk(degree, R, coeff, strategy, push_points=(), fault_at=None, field=None):
    """strategy_eval2 (degree 2, field given), strategy_eval3 (degree 3) or
    strategy_eval4 (degree 4) with every kernel checked.  A fault moved the
    curve when the zeroed (alpha' : beta') is not the honest (alpha : beta),
    i.e. alpha * beta' != alpha' * beta."""

    def ref_xisog2_on(K, c):
        return ref_xisog2_zero(c, field) if K.X.is_zero() else ref_xisog2(K)

    mul_e, per_leaf, has_order, isog, ev = {
        2: (ref_xdbl_e, 1, lambda K, c: not K.Z.is_zero(), ref_xisog2_on, ref_xeval2),
        3: (ref_xtpl_e, 1, _ref_has_order_3, lambda K, c: ref_xisog3(K), ref_xeval3),
        4: (ref_xdbl_e, 2, _ref_has_order_4, lambda K, c: ref_xisog4(K), ref_xeval4),
    }[degree]
    coeffs, kernels, stack = [coeff], [], []
    degenerate_at, fired_at, moved = None, None, False
    pushed = list(push_points)
    for row, moves in enumerate(schedule(strategy, len(strategy) + 1)):
        for m in moves:
            stack.append(R)
            R = mul_e(R, coeff, per_leaf * m)
        kernels.append(R)
        if not has_order(R, coeff):
            degenerate_at = row
            break
        coeff, data = isog(R, coeff)
        if row == fault_at:
            honest, coeff = coeff, zero_imaginary_parts(coeff)
            moved = honest.alpha * coeff.beta != coeff.alpha * honest.beta
            fired_at = row
        coeffs.append(coeff)
        if stack:
            stack = [ev(pt, data) for pt in stack]
            R = stack.pop()
        pushed = [ev(pt, data) for pt in pushed]
    return coeff, pushed, ChainTrace(tuple(coeffs), tuple(kernels), degenerate_at, fired_at, moved)


# a parameter set with e3 = 1, as params gen wrote it before such sets were
# refused: every check but the exponents' passes on it
P47_TEXT = """\
# sidhlab parameter set
name=p6
e2=4
e3=1
p=2f
A=06,00
xPA=20,03
xQA=25,21
xDA=10,2e
xPB=19,00
xQB=29,00
xDB=0a,01
"""


class CliResult(NamedTuple):
    """What one in-process run of the command line did."""

    output: str  # stdout and stderr, interleaved as they were written
    stdout: str
    exit_code: int
    exception: Optional[BaseException]


class _Tee(io.StringIO):
    """A captured stream that also copies what it is given into shared."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    """Runs main(args) with stdout and stderr captured.  A nonzero
    SystemExit is both the exit code and the exception; any other
    exception is exit code 1."""

    def invoke(self, main, args) -> CliResult:
        output = io.StringIO()
        stdout = _Tee(output)
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(output):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return CliResult(output.getvalue(), stdout.getvalue(), exit_code, exception)
