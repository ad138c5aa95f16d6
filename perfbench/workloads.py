"""The workloads, each a closed loop of one client in one process.

An operation takes (seed, k): its inputs come from a generator seeded with
the workload name, the run's seed and the operation's index k, so replaying
the same k in a later pass gives the same inputs and must give the same
outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from sidhlab import attack, cli, countermeasure, faultsim, protocol
from sidhlab.protocol import ALICE, BOB

# k of the masking 2^k-isogeny in the exchange's third derive, as in the
# p434 countermeasure test (capped by e2 on smaller parameter sets).
MASK_K = 8
# Trials per `sidhlab attack` invocation in the campaign.
CAMPAIGN_TRIALS = 20


@dataclass
class OpResult:
    """One operation: wall time, trials it stands for, and its outcome.

    ``fingerprint`` is the output that must repeat exactly when the same
    operation is replayed; ``info`` holds workload-specific outputs.
    """

    k: int
    wall_s: float
    units: int
    failed: int
    fingerprint: str = ""
    error: str = ""
    info: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Recovery:
    """Sample Bob's static key, run keygen, recover the key through the
    fault oracle.  Only the recover_key call is timed."""

    name = "p434-recovery"
    params_name = "p434"
    imports = ("sidhlab.attack", "sidhlab.faultsim")

    def __init__(self, params):
        self.params = params

    def op(self, seed: int, k: int) -> OpResult:
        ps = self.params
        rng = _rng(self.name, seed, k)
        sk = ps.sample_sk(BOB, rng)
        pk = protocol.keygen(ps, BOB, sk)
        inner = faultsim.make_oracle(ps, sk)
        oracle_s = [0.0]

        def timed_oracle(pk_forged, i):
            t = perf_counter()
            bit = inner(pk_forged, i)
            oracle_s[0] += perf_counter() - t
            return bit

        t0 = perf_counter()
        try:
            state = attack.recover_key(ps, timed_oracle, pk, rng)
        except Exception as exc:  # any exception is a failed operation
            return OpResult(k, perf_counter() - t0, 1, 1, error=f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        ledger = list(state.calls_per_trit)
        ok = state.sk == sk
        return OpResult(
            k,
            wall,
            1,
            0 if ok else 1,
            fingerprint=_digest([sk, ledger]),
            error="" if ok else f"recovered {state.sk} for key {sk}",
            info={
                "oracle_calls": state.total_calls,
                "second_queries": sum(c == 2 for c in ledger),
                "trits": len(ledger),
                "oracle_s": oracle_s[0],
            },
        )


class Exchange:
    """Fresh keys for both sides, keygen and derive on both sides, and Bob's
    masked derive; all three j-invariants must agree."""

    name = "p434-exchange"
    params_name = "p434"
    imports = ("sidhlab.protocol", "sidhlab.countermeasure")

    def __init__(self, params):
        self.params = params
        self.cfg = countermeasure.PushforwardConfig(min(MASK_K, params.e2))

    def op(self, seed: int, k: int) -> OpResult:
        ps = self.params
        rng = _rng(self.name, seed, k)
        ska = ps.sample_sk(ALICE, rng)
        skb = ps.sample_sk(BOB, rng)
        t0 = perf_counter()
        try:
            pka = protocol.keygen(ps, ALICE, ska)
            pkb = protocol.keygen(ps, BOB, skb)
            ja = protocol.derive(ps, ALICE, ska, pkb)
            jb = protocol.derive(ps, BOB, skb, pka)
            jm = countermeasure.derive_bob_randomized(ps, skb, pka, self.cfg, rng)
        except Exception as exc:  # any exception is a failed operation
            return OpResult(k, perf_counter() - t0, 1, 1, error=f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        ok = ja == jb == jm
        F = ps.field
        return OpResult(
            k,
            wall,
            1,
            0 if ok else 1,
            fingerprint=_digest([F.encode(ja), F.encode(jb), F.encode(jm)]),
            error="" if ok else "j-invariants disagree",
        )


class Campaign:
    """`sidhlab attack --params toy431 --trials N --seed S --jobs 1
    --stable-durations`, run in-process through cli.main and timed from
    outside.  Operation k uses trial seeds S .. S+N-1 with S = N * k plus a
    per-run offset, so a run cycles through many victim keys."""

    name = "toy431-campaign"
    params_name = "toy431"
    imports = ("sidhlab.cli",)

    def __init__(self, params):
        self.params = params

    def trial_seeds(self, seed: int, k: int) -> range:
        start = (seed % 100_000) * 1_000_000 + k * CAMPAIGN_TRIALS
        return range(start, start + CAMPAIGN_TRIALS)

    def op(self, seed: int, k: int) -> OpResult:
        seeds = self.trial_seeds(seed, k)
        args = [
            "attack", "--params", self.params.name, "--trials", str(len(seeds)),
            "--seed", str(seeds.start), "--jobs", "1", "--stable-durations",
        ]  # fmt: skip
        out = io.StringIO()
        code = 0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any exception fails the whole invocation
            return OpResult(k, perf_counter() - t0, len(seeds), len(seeds), error=f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        report = out.getvalue()
        try:
            lines = [json.loads(line) for line in report.splitlines()]
            summary, trials = lines[-1], lines[:-1]
        except (ValueError, IndexError) as exc:
            return OpResult(k, wall, len(seeds), len(seeds), error=f"unreadable report: {exc}")
        successes = sum(1 for t in trials if t.get("success") is True)
        ok = (
            code in (0, None)
            and summary.get("success_rate") == 1.0
            and len(trials) == len(seeds)
            and successes == len(seeds)
        )
        failed = 0 if ok else max(len(seeds) - successes, 1)
        hist = Counter()
        for t in trials:
            hist.update(t.get("calls_histogram", {}))
        return OpResult(
            k,
            wall,
            len(seeds),
            failed,
            fingerprint=hashlib.sha256(report.encode()).hexdigest(),
            error="" if ok else f"exit {code}, success_rate {summary.get('success_rate')}",
            info={
                "oracle_calls": sum(t.get("oracle_calls", 0) for t in trials),
                "second_queries": hist.get("2", 0),
                "trits": sum(hist.values()),
                "keys": sorted({self.params.sample_sk(BOB, random.Random(s)) for s in seeds}),
            },
        )


WORKLOADS = {w.name: w for w in (Recovery, Exchange, Campaign)}


def run_loop(wl, seed: int, seconds: float, between=None) -> tuple[list, float]:
    """Run operations k = 0, 1, ... for about ``seconds``, and at least one.
    The run ends at the operation boundary nearest to ``seconds``: the next
    operation starts only if, at the median duration so far, it would end
    closer to ``seconds`` than the run stands now.  So a 30 s recovery ends a
    40 s run instead of doubling it.  between(busy_s), if given, runs before
    each operation and its time is not counted.  Returns (results, seconds
    spent in operations)."""
    results = []
    durations = []
    busy = 0.0
    while not results or busy + median(durations) / 2 < seconds:
        if between is not None:
            between(busy)
        t0 = perf_counter()
        results.append(wl.op(seed, len(results)))
        durations.append(perf_counter() - t0)
        busy += durations[-1]
    return results, busy


def replay(wl, seed: int, ks, tracer=None) -> list:
    """Run exactly the operations ks, tagging spans with the operation id."""
    results = []
    for k in ks:
        if tracer is not None:
            tracer.op = k
        results.append(wl.op(seed, k))
    return results
