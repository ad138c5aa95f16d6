"""Primitive microbenchmarks on realistic operands.

Field elements are uniform in GF(p^2).  Points and curve coefficients are
projective with a full-size Z (and C): the bundled basis points have Z = 1
and the starting curve has A = 6, C = 1, and on those small operands the
multiplications are cheaper than anywhere inside a chain, which understates
xtpl by up to half.  Each figure is the median over batches of the per-call
time, loop overhead included.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter_ns

from sidhlab.isogeny import xeval3, xeval4, xisog3, xisog4
from sidhlab.montgomery import ProjCoeff, XPoint, ladder3pt, xadd, xdbl, xtpl
from sidhlab.protocol import BOB

BATCHES = 5


def _per_call(run, args_list) -> float:
    """Median over BATCHES of the mean ns per call of run over args_list."""
    times = []
    for _ in range(BATCHES):
        t0 = perf_counter_ns()
        run(args_list)
        times.append((perf_counter_ns() - t0) / len(args_list))
    return median(times)


def measure(params, seed: int) -> dict:
    """Per-call times in µs (ladder3pt in ms) on random operands."""
    F = params.field
    rng = random.Random(f"micro:{seed}")

    def elements(n):
        return [F.random_nonzero(rng) for _ in range(n)]

    def points(n):
        return [XPoint(F.random_nonzero(rng), F.random_nonzero(rng)) for _ in range(n)]

    def coeff():
        # the starting curve's (A + 2C : A - 2C), scaled to full size
        base = params.coeff0
        lam = F.random_nonzero(rng)
        return ProjCoeff(base.alpha * lam, base.beta * lam)

    def mul(args):
        for a, b in args:
            a * b

    def sqr(args):
        for a in args:
            a.sqr()

    def inv(args):
        for a in args:
            a.inv()

    def sqrt(args):
        for a in args:
            F.sqrt(a)

    def dbl(args):
        for P, c in args:
            xdbl(P, c)

    def add(args):
        for P, Q, D in args:
            xadd(P, Q, D)

    def tpl(args):
        for P, c in args:
            xtpl(P, c)

    def ladder(args):
        for k, P, Q, D, c in args:
            ladder3pt(k, P, Q, D, c)

    def isog3(args):
        for K in args:
            xisog3(K)

    def eval3(args):
        for Q, step in args:
            xeval3(Q, step)

    def isog4(args):
        for K in args:
            xisog4(K)

    def eval4(args):
        for Q, step in args:
            xeval4(Q, step)

    n = 400
    a, b = elements(n), elements(n)
    squares = [x.sqr() for x in elements(20)]
    pts = points(n)
    cs = [coeff() for _ in range(n)]
    sk = params.sk_range(BOB)
    ladders = [
        (rng.randrange(sk.start, sk.stop), *points(3), coeff()) for _ in range(3)
    ]
    steps3 = [xisog3(K) for K in points(n)]
    steps4 = [xisog4(K) for K in points(n)]
    us = 1e-3
    return {
        "field.mul_us": _per_call(mul, list(zip(a, b))) * us,
        "field.sqr_us": _per_call(sqr, a) * us,
        "field.inv_us": _per_call(inv, a[:100]) * us,
        "field.sqrt_us": _per_call(sqrt, squares) * us,
        "montgomery.xdbl_us": _per_call(dbl, list(zip(pts, cs))) * us,
        "montgomery.xadd_us": _per_call(add, list(zip(pts, points(n), points(n)))) * us,
        "montgomery.xtpl_us": _per_call(tpl, list(zip(pts, cs))) * us,
        "montgomery.ladder3pt_ms": _per_call(ladder, ladders) * 1e-6,
        "isogeny.xisog3_us": _per_call(isog3, pts) * us,
        "isogeny.xeval3_us": _per_call(eval3, list(zip(points(n), steps3))) * us,
        "isogeny.xisog4_us": _per_call(isog4, pts) * us,
        "isogeny.xeval4_us": _per_call(eval4, list(zip(points(n), steps4))) * us,
    }
