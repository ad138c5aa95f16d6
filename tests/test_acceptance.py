"""The acceptance gate: one test per criterion, each printing a PASS line
with the measured figures (run with -s or look at captured output).

Criterion 2 drives ~50 full key recoveries at the 434-bit parameter scale
and dominates the suite's runtime; everything else is toy-scale.
"""

import hashlib
import json
import multiprocessing
import random
import time
from collections import Counter

from sidhlab import isogeny
from sidhlab.attack import (
    candidate_kernels,
    faultless_attack,
    forge_public_keys,
    prefix_walk,
    recover_key,
)
from sidhlab.cli import TrialReport
from sidhlab.countermeasure import PushforwardConfig, derive_bob_randomized
from sidhlab.faultsim import make_oracle, oracle
from sidhlab.isogeny import xeval3, xeval4, xisog3, xisog4
from sidhlab.montgomery import (
    ProjCoeff,
    affine_a_from_projective,
    coeff_in_fp,
    j_invariant,
    ladder3pt,
    x_affine,
    xdbl,
    xpoint_from_affine,
    xtpl,
)
from sidhlab.protocol import ALICE, BOB, bundled_params, derive, derive_with_trace, keygen

from helpers import (
    ReferenceCurve,
    debug_assert_forced_curve,
    make_reject_oracle,
    sample_point_of_order,
    xpoint,
    xpoint_eq,
)
from velu_oracle import fit_linear, j_short_weierstrass, velu_isogeny


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_full_recovery_exhaustive_toy(toy):
    """Every Bob key in [1, 3^(e3-1)-1], >= 3 seeds, recovered mod 27, < 10 s."""
    t0 = time.perf_counter()
    n = 0
    for seed in (1, 2, 3):
        for sk in toy.sk_range(BOB):
            state = recover_key(
                toy, make_oracle(toy, sk), keygen(toy, BOB, sk), random.Random(seed)
            )
            assert state.sk % 27 == sk % 27, (seed, sk)
            n += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"{n} exhaustive toy recoveries exact in {elapsed:.2f}s (< 10s)")


def _p434_trial(seed: int):
    """(key recovered, oracle calls, the (i, failure_step) of every bit-0
    verdict not decided at step i + 1, the key as recovered, its per-trit
    ledger)."""
    params = _P434[0]
    rng = random.Random(seed)
    sk = params.sample_sk(BOB, rng)
    pk = keygen(params, BOB, sk)
    off_step = []

    def victim(forged_pk, i):
        v = oracle(params, sk, forged_pk, i)
        if v.bit == 0 and v.failure_step != i + 1:
            off_step.append((i, v.failure_step))
        return v.bit

    state = recover_key(params, victim, pk, rng)
    ok = state.sk % 3**params.e3 == sk
    return ok, state.total_calls, off_step, state.sk, state.calls_per_trit


_P434 = []


def _p434_init():
    _P434.append(bundled_params("p434"))


# sha256 of repr([(seed, key recovered, calls_per_trit)]) over the 50 seeds
P434_LEDGERS = "ce9f239c5203d228734249c88f81e00d79096c5d7bf02fc0d8b6e1ac4ee103ac"
# sha256 of `sidhlab attack --params p434 --trials 2 --seed 1000 --stable-durations`
P434_REPORT = "e45d89610307b0dba6887810fe96b2c7317268240f94e1cc74a7206cb7f4be69"


def _p434_report(results):
    """The report `sidhlab attack --params p434 --trials 2 --seed 1000
    --stable-durations` prints, rebuilt from the trials of seeds 1000 and
    1001."""
    reports = [
        TrialReport("p434", seed, 137, ok, calls, Counter(map(str, ledger)), 0.0)
        for seed, (ok, calls, _, _, ledger) in zip((1000, 1001), results)
    ]
    summary = {
        "type": "summary",
        "param_set": "p434",
        "trials": 2,
        "successes": sum(r.success for r in reports),
        "success_rate": sum(r.success for r in reports) / 2,
        "mean_oracle_calls": sum(r.oracle_calls for r in reports) / 2,
        "mean_duration_s": 0.0,
    }
    lines = [r.to_json() for r in reports] + [json.dumps(summary, sort_keys=True)]
    return "\n".join(lines) + "\n"


def test_criterion_2_table_query_count():
    """>= 50 random SIDHp434-scale keys: mean oracle calls in [215, 237].
    The paper's mechanism holds at this scale too: every bit-0 verdict comes
    from the order check at step i + 1, the kernel after the fault. The keys
    and per-trit ledgers are pinned, and seeds 1000 and 1001 rebuild the
    p434 attack report."""
    trials = 50
    seeds = range(1000, 1000 + trials)
    t0 = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2, initializer=_p434_init) as pool:
        results = pool.map(_p434_trial, seeds)
    elapsed = time.perf_counter() - t0
    assert all(ok for ok, _, _, _, _ in results)
    mean_calls = sum(c for _, c, _, _, _ in results) / trials
    assert 215.0 <= mean_calls <= 237.0, mean_calls
    off_step = [v for _, _, off, _, _ in results for v in off]
    assert not off_step, off_step
    records = [(seed, key, ledger) for seed, (_, _, _, key, ledger) in zip(seeds, results)]
    ledgers = hashlib.sha256(repr(records).encode()).hexdigest()
    assert ledgers == P434_LEDGERS, ledgers
    report = _p434_report(results[:2])
    assert hashlib.sha256(report.encode()).hexdigest() == P434_REPORT, report
    _report(
        2,
        f"{trials} recoveries at e3=137, all exact; mean oracle calls "
        f"{mean_calls:.2f} in [215, 237]; every bit 0 at step i + 1; "
        f"ledgers {ledgers[:8]}... (wall-clock {elapsed:.0f}s, informational)",
    )


def test_criterion_3_per_trit_statistics(toy):
    """>= 10^4 uniformly random trits: mean oracle calls per trit -> 5/3."""
    rng = random.Random(7)
    calls = []
    target_trits = 10000
    while len(calls) < target_trits:
        sk = rng.randrange(0, 27)  # uniform trits at the probed positions
        state = recover_key(toy, make_oracle(toy, sk), keygen(toy, BOB, sk), rng)
        assert state.sk % 27 == sk % 27
        calls.extend(state.calls_per_trit)
    mean = sum(calls) / len(calls)
    assert 1.62 <= mean <= 1.72, mean
    _report(3, f"{len(calls)} trit recoveries, mean calls/trit {mean:.4f} in [1.62, 1.72]")


def test_criterion_4_membership_equivalence(F431):
    """10^4 random projective coefficients, half GF(p)-pairs scaled by random
    lambda, half generic: the register test equals the affine-A test."""
    rng = random.Random(11)
    mismatches = 0
    total = 0
    for idx in range(10000):
        if idx % 2 == 0:
            lam = F431.random_nonzero(rng)
            coeff = ProjCoeff(
                F431(rng.randrange(431)) * lam, F431(rng.randrange(431)) * lam
            )
        else:
            coeff = ProjCoeff(F431.random_element(rng), F431.random_element(rng))
        if (coeff.alpha - coeff.beta).is_zero():
            continue
        total += 1
        expected = affine_a_from_projective(coeff).im == 0
        if coeff_in_fp(coeff) != expected:
            mismatches += 1
    assert mismatches == 0 and total > 9900
    _report(4, f"{total} coefficients, zero mismatches between register and affine tests")


def test_criterion_5_fault_is_noop(toy):
    """Targeted coefficient in GF(p) => faulted final j equals unfaulted final
    j exactly (>= 10^3 runs); outside GF(p) => verdict 0, exhaustively."""
    F = toy.field
    in_fp_runs = 0
    out_fp_zero = 0
    seed = 0
    while in_fp_runs < 1000:
        seed += 1
        rng = random.Random(seed)
        for sk in range(27):
            for i in range(toy.e3 - 1):
                prefix = sk % 3**i if i else 0
                forged = forge_public_keys(prefix_walk(toy, prefix, i), rng)
                for pk in (forged.pk, forged.pk_second):
                    base_final, base_trace = derive_with_trace(toy, BOB, sk, pk)
                    assert base_trace.completed
                    targeted_in_fp = coeff_in_fp(base_trace.coeffs[i + 1])
                    v = oracle(toy, sk, pk, i)
                    if targeted_in_fp:
                        in_fp_runs += 1
                        assert v.bit == 1
                        j_fault = j_invariant(
                            affine_a_from_projective(v.trace.coeffs[-1]), F
                        )
                        j_base = j_invariant(affine_a_from_projective(base_final), F)
                        assert j_fault == j_base
                    else:
                        assert v.bit == 0
                        out_fp_zero += 1
    _report(
        5,
        f"{in_fp_runs} GF(p)-target runs: faulted final j identical; "
        f"{out_fp_zero} non-GF(p) runs: verdict 0 in every case",
    )


def test_criterion_6_forced_curve_replay(toy):
    """Every forged instance, all prefixes and positions: the victim's i-th
    codomain has affine A = 6 exactly and the (i+1)-th kernel is one of the
    three candidates."""
    rng = random.Random(13)
    checked = 0
    for sk in range(27):
        for i in range(toy.e3 - 1):
            prefix = sk % 3**i if i else 0
            walk = prefix_walk(toy, prefix, i)
            forged = forge_public_keys(walk, rng)
            cands = candidate_kernels(walk, forged)
            for pk in (forged.pk, forged.pk_second):
                assert debug_assert_forced_curve(toy, prefix, pk, i)
                _, trace = derive_with_trace(toy, BOB, sk, pk)
                assert trace.completed
                if i > 0:
                    assert affine_a_from_projective(trace.coeffs[i]) == toy.field(6)
                assert any(xpoint_eq(trace.kernels[i], c) for c in cands)
                checked += 1
    _report(6, f"{checked} forged instances: exact A=6 at step i, kernel among candidates")


def test_criterion_7_protocol_soundness(toy, p434):
    """Honest round-trip equality over every toy key pair, and the starting
    curve's j reduces to the reference value."""
    pairs = 0
    for ska in toy.sk_range(ALICE):
        pka = keygen(toy, ALICE, ska)
        for skb in toy.sk_range(BOB):
            pkb = keygen(toy, BOB, skb)
            assert derive(toy, ALICE, ska, pkb) == derive(toy, BOB, skb, pka)
            pairs += 1
    assert j_invariant(toy.field(6), toy.field) == toy.field(287496 % 431)
    assert 287496 % 431 == 19
    assert j_invariant(p434.field(6), p434.field) == p434.field(287496)
    _report(7, f"{pairs} honest key pairs agree; j(A=6) = 287496 mod p (19 at p=431)")


def test_criterion_8_countermeasures(toy, monkeypatch):
    """Randomized pushforward preserves honest derive for all toy keys and
    k in {1, 2, 4}; the faultless attack beats the naive GF(p)-reject on
    every toy key with zero fault injections."""
    runs = 0
    for k in (1, 2, 4):
        cfg = PushforwardConfig(k)
        for ska in toy.sk_range(ALICE):
            pka = keygen(toy, ALICE, ska)
            for skb in toy.sk_range(BOB):
                want = derive(toy, BOB, skb, pka)
                got = derive_bob_randomized(
                    toy, skb, pka, cfg, random.Random(100 * k + 8 * ska + skb)
                )
                assert got == want
                runs += 1

    injections = 0
    zero_imaginary_parts = isogeny.zero_imaginary_parts

    def counting(coeff):
        nonlocal injections
        injections += 1
        return zero_imaginary_parts(coeff)

    # the chain walker's one fault injection point, looked up in its module
    monkeypatch.setattr(isogeny, "zero_imaginary_parts", counting)
    recovered = 0
    for sk in toy.sk_range(BOB):
        rej = make_reject_oracle(toy, sk)
        got = faultless_attack(toy, rej, keygen(toy, BOB, sk), random.Random(17))
        assert got % 27 == sk % 27
        recovered += 1
    assert injections == 0, injections
    _report(
        8,
        f"pushforward identical on {runs} derives (k in 1,2,4); faultless attack "
        f"recovered {recovered}/8 keys with {injections} fault injections",
    )


def test_criterion_9_xonly_vs_independent_oracle(toy, F431):
    """xdbl, xtpl, ladder3pt, xisog3/xeval3, xisog4/xeval4 against the affine
    group law and textbook Velu, exhaustively at p = 431."""
    E = ReferenceCurve(F431(6), F431)
    coeff = E.coeff()

    # (a) doubling/tripling over every point of E(F_p^2)
    points = 0
    for re in range(431):
        for im in range(431):
            x = F431(re, im)
            if not F431.is_square(E.rhs(x)):
                continue
            P = E.lift_x(x)
            xp = xpoint_from_affine(x, F431)
            for got, want in (
                (xdbl(xp, coeff), E.double(P)),
                (xtpl(xp, coeff), E.scalar_mul(3, P)),
            ):
                if want.infinity:
                    assert got.is_infinity()
                else:
                    assert x_affine(got) == want.x
            points += 1
    assert points > 40000  # roughly half of p^2

    # (b) three-point ladder over the full scalar range of the toy basis
    P = E.lift_x(toy.xPB)
    Q = E.lift_x(toy.xQB)
    if E.sub(P, Q).x != toy.xDB:
        Q = E.negate(Q)
    assert E.sub(P, Q).x == toy.xDB
    xP, xQ, xD = toy.basis_xpoints(BOB)
    for k in range(27):
        got = ladder3pt(k, xP, xQ, xD, coeff)
        want = E.add(P, E.scalar_mul(k, Q))
        if want.infinity:
            assert got.is_infinity()
        else:
            assert x_affine(got) == want.x

    # (c) 3- and 4-isogenies against textbook Velu on every usable kernel
    rng = random.Random(5)
    kernels3 = {}
    kernels4 = {}
    for _ in range(600):
        T3 = sample_point_of_order(E, 3, rng)
        kernels3[(int(T3.x.re), int(T3.x.im))] = T3
        T4 = sample_point_of_order(E, 4, rng)
        kernels4[(int(T4.x.re), int(T4.x.im))] = T4
    assert len(kernels3) == 4 and len(kernels4) == 6
    iso_checked = 0
    for d, kernels, make, evaluate in (
        (3, kernels3, xisog3, xeval3),
        (4, kernels4, xisog4, xeval4),
    ):
        for K in kernels.values():
            xp = xpoint(E, K)
            if d == 4 and ((xp.X - xp.Z).is_zero() or (xp.X + xp.Z).is_zero()):
                continue
            step = make(xp)
            a2, b2, xmap = velu_isogeny(E, K)
            assert j_invariant(
                affine_a_from_projective(step.new_coeff), F431
            ) == j_short_weierstrass(a2, b2, F431)
            kernel_xs = set()
            T = K
            while not T.infinity:
                kernel_xs.add((int(T.x.re), int(T.x.im)))
                T = E.add(T, K)
            pairs = []
            for re in range(0, 431, 3):
                # a parabola: on a line through 0, x / conj(x) is constant
                # and a defect that scales by it would fit a linear map
                x = F431(re, re * re % 431)
                if not F431.is_square(E.rhs(x)):
                    continue
                if (int(x.re), int(x.im)) in kernel_xs:
                    continue
                img = evaluate(xpoint_from_affine(x, F431), step)
                if img.Z.is_zero():
                    continue
                pairs.append((xmap(x), x_affine(img)))
            assert len(pairs) > 10
            s, r = fit_linear(pairs)
            assert all(s * xv + r == ym for xv, ym in pairs[2:])
            iso_checked += 1
    assert iso_checked == 4 + 4  # all order-3 kernels, the order-4 ones off x = +-1
    _report(
        9,
        f"x-only ops match the independent oracle: {points} points (dbl/tpl), "
        f"27 ladder scalars, {iso_checked} isogeny kernels vs Velu",
    )
