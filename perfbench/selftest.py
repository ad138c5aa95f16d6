"""Seconds-long self-test on toy431 only:

    python3 perfbench/run.py --selftest

Checks that every workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names, with the same units, and passes its correctness gate;
that call counts and the oracle-call ledger repeat for a fixed seed; and
that a wrong program trips each gate: an oracle with its bit inverted
(recovery and campaign) and a masked derive that returns a wrong j-invariant
(exchange).
"""

from __future__ import annotations

import json

import run
from sidhlab import countermeasure, faultsim
from tracing import Rebinder
from workloads import WORKLOADS, replay

SECONDS = 0.3


def inverted_oracle(fn):
    def make(params, sk):
        honest = fn(params, sk)
        return lambda pk, i: 1 - honest(pk, i)

    return make


def wrong_j(fn):
    def masked(params, *args):
        return fn(params, *args) + params.field.one

    return masked


def gate_trips(name: str, wrap) -> bool:
    """Run three operations with one function replaced; the gate must fail them."""
    wl = run.make_workload(name, "toy431")
    module, attr, make = wrap
    with Rebinder() as rb:
        rb.wrap(module, attr, make)
        results = replay(wl, 1, range(3))
    report = run.Report(name)
    run.summarize_ops(report, results, sum(r.wall_s for r in results))
    report.metric_units = {}
    line = run.result_line(report)
    return not line["correct"] and line["failed"] > 0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    reports = {}
    for trace, units in declared.items():
        for name in WORKLOADS:
            report = run.run_workload(name, seed=1, seconds=SECONDS, trace=bool(trace), small=True)
            reports[name, trace] = report
            line = run.result_line(report)
            emitted = {m: v["unit"] for m, v in line["metrics"].items()}
            if emitted != units:
                problems.append(f"{name} --trace {trace}: metrics differ from BENCHMARK.json")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{name} --trace {trace}: gate failed on honest code: {report.errors}")
            print(f"selftest: {name} --trace {trace}: {len(emitted)} metrics, correct={line['correct']}")

    # primitive call counts and the oracle-call ledger repeat for a fixed seed
    again = run.run_workload("p434-recovery", seed=1, seconds=SECONDS, trace=True, small=True)
    counted = [f"{m}.{a}.calls" for m, attrs in run.COUNTED.items() for a in attrs]
    first = reports["p434-recovery", 1]
    counts_repeat = all(first.values[n][0] == again.values[n][0] for n in counted)
    wl = run.make_workload("p434-recovery", "toy431")
    op1, op2 = wl.op(1, 0), wl.op(1, 0)
    ledger_repeats = (op1.fingerprint, op1.info["oracle_calls"]) == (op2.fingerprint, op2.info["oracle_calls"])
    print(f"selftest: for a fixed seed, call counts repeat={counts_repeat}, ledger repeats={ledger_repeats}")
    if not counts_repeat:
        problems.append("call counts differ between two traced runs with the same seed")
    if not ledger_repeats:
        problems.append("a replayed recovery changed its oracle-call ledger")

    wrongs = {
        "p434-recovery": (faultsim, "make_oracle", inverted_oracle),
        "toy431-campaign": (faultsim, "make_oracle", inverted_oracle),
        "p434-exchange": (countermeasure, "derive_bob_randomized", wrong_j),
    }
    for name, wrap in wrongs.items():
        tripped = gate_trips(name, wrap)
        print(f"selftest: {name} with {wrap[1]} broken: gate tripped={tripped}")
        if not tripped:
            problems.append(f"{name}: broken {wrap[1]} passed the correctness gate")

    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0
