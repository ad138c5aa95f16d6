#!/usr/bin/env python3
"""The sidhlab benchmark: p434 key recovery, p434 key exchange and a toy431
attack campaign.  Run from the root of a checkout:

    python3 perfbench/run.py --workload p434-recovery --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5
    python3 perfbench/run.py --selftest

It prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  It exits 1 when an output
is wrong and 2 when the sidhlab sources are missing.  README.md describes
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

# Fresh processes timed for setup_s, spread over the run; the median is
# reported.  CPU speed on the reference machine switches between a fast and
# a slow state every few seconds, so samples bunched together read one state.
SETUP_RUNS = 8
# Operations replayed under the call counters in a traced run.
COUNT_OPS = 3
# Exchanges run for the protocol and countermeasure figures when the
# workload itself makes no exchange, and toy431 campaign invocations run
# for the cli figures when the workload itself does not go through cli.
PROBE_EXCHANGES = 3
PROBE_CAMPAIGNS = 3

END_TO_END = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
}

PER_LAYER = {
    "field.mul_us": "us",
    "field.sqr_us": "us",
    "field.inv_us": "us",
    "field.sqrt_us": "us",
    "montgomery.xdbl_us": "us",
    "montgomery.xadd_us": "us",
    "montgomery.xtpl_us": "us",
    "montgomery.ladder3pt_ms": "ms",
    "montgomery.xdbl.calls": "count",
    "montgomery.xadd.calls": "count",
    "montgomery.xtpl.calls": "count",
    "montgomery.ladder3pt.calls": "count",
    "isogeny.xisog3_us": "us",
    "isogeny.xeval3_us": "us",
    "isogeny.xisog4_us": "us",
    "isogeny.xeval4_us": "us",
    "isogeny.xisog3.calls": "count",
    "isogeny.xeval3.calls": "count",
    "isogeny.xisog4.calls": "count",
    "isogeny.xeval4.calls": "count",
    "isogeny.strategy_eval3.calls": "count",
    "isogeny.strategy_eval4.calls": "count",
    "isogeny.strategy_eval3.self_ms": "ms",
    "isogeny.strategy_eval4.self_ms": "ms",
    "protocol.keygen_ms.alice": "ms",
    "protocol.keygen_ms.bob": "ms",
    "protocol.derive_ms.alice": "ms",
    "protocol.derive_ms.bob": "ms",
    "protocol.load_params_s": "s",
    "faultsim.oracle_ms.p50": "ms",
    "faultsim.oracle_ms.p90": "ms",
    "faultsim.oracle.calls": "count",
    "faultsim.derive_share": "fraction",
    "faultsim.spot_check_ms": "ms",
    "faultsim.spot_check.calls": "count",
    "faultsim.bit1_ratio": "fraction",
    "faultsim.decided_by.order_check": "count",
    "faultsim.decided_by.spot_check": "count",
    "faultsim.decided_by.pk_reject": "count",
    "attack.forge_ms": "ms",
    "attack.candidates_ms": "ms",
    "attack.top_trit_ms": "ms",
    "attack.self_s": "s",
    "attack.second_query_ratio": "fraction",
    "countermeasure.masked_derive_ms": "ms",
    "countermeasure.overhead_ratio": "ratio",
    "cli.params_load.calls": "count",
    "cli.overhead_ms_per_trial": "ms",
    "trace.overhead_ratio": "ratio",
}

# Primitives counted per operation in the counting pass: module -> names.
COUNTED = {
    "montgomery": ("xdbl", "xadd", "xtpl", "ladder3pt"),
    "isogeny": ("xisog3", "xeval3", "xisog4", "xeval4", "strategy_eval3", "strategy_eval4"),
}


def bootstrap() -> None:
    """Import sidhlab from this checkout's src/, and from nowhere else."""
    if not (SRC / "sidhlab" / "__init__.py").is_file():
        print(f"perfbench: no sidhlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sidhlab

    if Path(sidhlab.__file__).resolve().parent != (SRC / "sidhlab").resolve():
        print(f"perfbench: sidhlab imported from {sidhlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment(seed: int) -> dict:
    from sidhlab import field

    return {
        "backend": "int" if field._mpz is int else "gmpy2",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; the single value when there is one."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def measure_setup(wl) -> float:
    """Wall seconds from spawning a fresh interpreter to the workload's
    modules imported and its parameter set loaded and validated."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        + "".join(f"import {m}\n" for m in wl.imports)
        + "from sidhlab.protocol import bundled_params\n"
        f"bundled_params({wl.params_name!r})\n"
    )
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-300:]}")
    return elapsed


class Report:
    """Metric values with sample counts, plus report lines and failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.values: dict = {}
        self.lines: list = []
        self.errors: list = []
        self.attempted = 0
        self.failed = 0
        self.metric_units: dict = {}
        self.env: dict = {}

    def put(self, name: str, value: float, n: int) -> None:
        self.values[name] = (float(value), n)

    def say(self, text: str) -> None:
        self.lines.append(f"{self.workload}: {text}")

    def table(self, units: dict) -> None:
        for name, unit in units.items():
            value, n = self.values[name]
            self.say(f"{name:34s} {value:14.6g} {unit:9s} n={n}")


def digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def summarize_ops(report: Report, results: list, elapsed: float) -> None:
    """End-to-end figures of one untraced pass."""
    good = [r for r in results if not r.failed] or results
    latency = [1e3 * r.wall_s / r.units for r in good]
    units = sum(r.units for r in good)
    report.put("op_ms.p50", median(latency), len(latency))
    report.put("op_ms.p90", percentile(latency, 0.9), len(latency))
    report.put("ops_per_s", units / sum(r.wall_s for r in good), units)
    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    report.attempted, report.failed = attempted, failed
    for r in results:
        if r.failed:
            report.errors.append(f"operation {r.k}: {r.error}")
    report.say(f"{len(results)} operations, {attempted} attempted, {failed} failed, {elapsed:.3f} s in operations")


def workload_lines(report: Report, wl, results: list) -> None:
    """The workload's own end-to-end names, each with unit and sample count."""
    v = report.values
    n_att, n_fail = report.attempted, report.failed
    p50, n = v["op_ms.p50"]
    if wl.name.endswith("recovery"):
        report.say(f"recovery_s.p50 = {p50 / 1e3:.4f} s (n={n}; = op_ms.p50)")
        oracle_s = sum(r.info.get("oracle_s", 0.0) for r in results)
        report.say(f"oracle calls took {oracle_s:.4f} s of {sum(r.wall_s for r in results):.4f} s in recover_key")
    if wl.name.endswith("exchange"):
        report.say(f"exchange_ms.p50 = {p50:.4f} ms (n={n}; = op_ms.p50)")
        report.say(f"exchange_ms.p90 = {v['op_ms.p90'][0]:.4f} ms (n={n}; = op_ms.p90)")
    if wl.name.endswith("campaign"):
        report.say(f"trials_per_s = {v['ops_per_s'][0]:.3f} 1/s (n={v['ops_per_s'][1]}; = ops_per_s)")
        keys = sorted({key for r in results for key in r.info.get("keys", ())})
        report.say(f"victim keys seen: {len(keys)} of {len(wl.params.sk_range('bob'))} {keys}")
    if any("oracle_calls" in r.info for r in results):
        trials = sum(r.units for r in results if "oracle_calls" in r.info)
        calls = sum(r.info["oracle_calls"] for r in results if "oracle_calls" in r.info)
        report.say(f"oracle_calls.mean = {calls / trials:.4f} calls/key (n={trials})")
    report.say(f"setup_s = {v['setup_s'][0]:.4f} s (n={v['setup_s'][1]})")
    report.say(f"error_rate = {n_fail / n_att:.6g} fraction (n={n_att})")
    report.say(f"fingerprint op0 sha256={results[0].fingerprint}")
    report.say(
        f"fingerprint ops0-{len(results) - 1} sha256={digest(r.fingerprint for r in results)}"
    )


def run_untraced(wl, seed: int, seconds: float) -> Report:
    from workloads import run_loop

    report = Report(wl.name)
    setup = []

    def setup_when_due(busy_s):
        while len(setup) < SETUP_RUNS and busy_s >= len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup(wl))

    results, elapsed = run_loop(wl, seed, seconds, between=setup_when_due)
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup(wl))
    summarize_ops(report, results, elapsed)
    report.put("setup_s", median(setup), len(setup))
    workload_lines(report, wl, results)
    report.table(END_TO_END)
    report.metric_units = END_TO_END
    return report


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def install_spans(rb, tracer) -> None:
    """Span every layer entry point the workloads reach."""
    from sidhlab import attack, cli, countermeasure, faultsim, isogeny, protocol

    def side(args):
        return args[1]

    def verdict(sid, args, result):
        tracer.attrs[sid] = {"i": args[3], "bit": result.bit, "failure_step": result.failure_step}

    targets = [
        (attack, "recover_key", None, None),
        (attack, "forge_public_keys", None, None),
        (attack, "candidate_kernels", None, None),
        (attack, "_last_trit", None, None),
        (faultsim, "oracle", None, verdict),
        (faultsim, "_supersingular_spot_check", None, None),
        (protocol, "derive_with_trace", side, None),
        (protocol, "keygen", side, None),
        (protocol, "derive", side, None),
        (isogeny, "strategy_eval3", None, None),
        (isogeny, "strategy_eval4", None, None),
        (countermeasure, "derive_bob_randomized", None, None),
        (cli, "_load", None, None),
    ]
    for module, attr, label, on_result in targets:
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        rb.wrap(module, attr, lambda fn, n=name, lb=label, cb=on_result: tracer.span(n, fn, lb, cb))


def install_counters(rb, counts: Counter) -> None:
    import importlib

    from tracing import counting

    for mod_name, names in COUNTED.items():
        module = importlib.import_module(f"sidhlab.{mod_name}")
        for attr in names:
            rb.wrap(module, attr, counting(counts, f"{mod_name}.{attr}"))


class SpanIndex:
    """Spans of one traced pass grouped by name, with self times."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = tracer.finished()
        self.self_ns = tracer.self_times()
        self.by_name: dict = {}
        for s in self.spans:
            self.by_name.setdefault(s[3], []).append(s)
        self.names_of = {s[0]: s[3] for s in self.spans}

    def durations_ms(self, name: str) -> list:
        return [(s[5] - s[4]) / 1e6 for s in self.by_name.get(name, ())]

    def total_ms(self, name: str, parent: str | None = None) -> float:
        return sum(
            (s[5] - s[4]) / 1e6
            for s in self.by_name.get(name, ())
            if parent is None or self.names_of.get(s[1]) == parent
        )

    def self_ms(self, name: str) -> float:
        return sum(self.self_ns[s[0]] for s in self.by_name.get(name, ())) / 1e6


def _med(values) -> float:
    return median(values) if values else 0.0


def layer_metrics(report, wl, spanned, idx, counted, counts_per_op, exch_idx, camp) -> None:
    units = sum(r.units for r in spanned)
    put = report.put

    oracle = idx.durations_ms("faultsim.oracle")
    put("faultsim.oracle_ms.p50", _med(oracle), len(oracle))
    put("faultsim.oracle_ms.p90", percentile(oracle, 0.9) if oracle else 0.0, len(oracle))
    put("faultsim.oracle.calls", len(oracle) / units, units)
    derive_in_oracle = idx.total_ms("protocol.derive_with_trace.bob", parent="faultsim.oracle")
    oracle_total = sum(oracle)
    put("faultsim.derive_share", derive_in_oracle / oracle_total if oracle_total else 0.0, len(oracle))
    spot = idx.durations_ms("faultsim._supersingular_spot_check")
    put("faultsim.spot_check_ms", _med(spot), len(spot))
    put("faultsim.spot_check.calls", len(spot) / units, units)
    verdicts = [idx.tracer.attrs[s[0]] for s in idx.by_name.get("faultsim.oracle", ())]
    bits = [v["bit"] for v in verdicts]
    put("faultsim.bit1_ratio", sum(bits) / len(bits) if bits else 0.0, len(bits))
    e3 = wl.params.e3
    decided = Counter()
    for v in verdicts:
        step = v["failure_step"]
        if v["bit"] == 1:
            continue
        if step == -1:
            decided["pk_reject"] += 1
        elif step is not None and step >= e3:
            decided["spot_check"] += 1
        else:
            decided["order_check"] += 1
            if step != v["i"] + 1:
                decided["order_check_elsewhere"] += 1
    for kind in ("order_check", "spot_check", "pk_reject"):
        put(f"faultsim.decided_by.{kind}", decided[kind] / units, units)
    if verdicts:
        report.say(
            f"verdicts: {len(verdicts)} oracle calls, {sum(bits)} bit 1, bit 0 decided by "
            f"order check {decided['order_check']} (not at step i+1: {decided['order_check_elsewhere']}), "
            f"spot check {decided['spot_check']}, pk reject {decided['pk_reject']}"
        )

    forge = idx.durations_ms("attack.forge_public_keys")
    cands = idx.durations_ms("attack.candidate_kernels")
    top = idx.durations_ms("attack._last_trit")
    recover = idx.by_name.get("attack.recover_key", ())
    put("attack.forge_ms", _med(forge), len(forge))
    put("attack.candidates_ms", _med(cands), len(cands))
    put("attack.top_trit_ms", _med(top), len(top))
    put("attack.self_s", idx.self_ms("attack.recover_key") / 1e3 / len(recover) if recover else 0.0, len(recover))
    trits = sum(r.info.get("trits", 0) for r in spanned)
    second = sum(r.info.get("second_queries", 0) for r in spanned)
    put("attack.second_query_ratio", second / trits if trits else 0.0, trits)

    for n in ("3", "4"):
        name = f"isogeny.strategy_eval{n}"
        put(f"{name}.self_ms", idx.self_ms(name) / units, units)

    camp_idx, invocations = camp
    trials = sum(r.units for r in invocations)
    loads = len(camp_idx.by_name.get("cli._load", ()))
    put("cli.params_load.calls", loads / len(invocations), len(invocations))
    outside = sum(r.wall_s for r in invocations) * 1e3 - camp_idx.total_ms("attack.recover_key")
    put("cli.overhead_ms_per_trial", outside / trials, trials)

    for side in ("alice", "bob"):
        for kind in ("keygen", "derive"):
            d = exch_idx.durations_ms(f"protocol.{kind}.{side}")
            put(f"protocol.{kind}_ms.{side}", _med(d), len(d))
    masked = exch_idx.durations_ms("countermeasure.derive_bob_randomized")
    honest = report.values["protocol.derive_ms.bob"][0]
    put("countermeasure.masked_derive_ms", _med(masked), len(masked))
    put("countermeasure.overhead_ratio", _med(masked) / honest if honest else 0.0, len(masked))

    counted_units = sum(r.units for r in counted)
    for mod_name, names in COUNTED.items():
        for attr in names:
            key = f"{mod_name}.{attr}"
            total = sum(c[key] for c in counts_per_op)
            put(f"{key}.calls", total / counted_units, counted_units)

    if recover and not wl.name.endswith("campaign"):
        split = [
            ("forge", idx.total_ms("attack.forge_public_keys")),
            ("candidates", idx.total_ms("attack.candidate_kernels")),
            ("victim derive", derive_in_oracle),
            ("spot check", idx.total_ms("faultsim._supersingular_spot_check")),
            ("oracle self", idx.self_ms("faultsim.oracle")),
            ("top trit", idx.total_ms("attack._last_trit")),
            ("attack self", idx.self_ms("attack.recover_key")),
        ]
        whole = idx.total_ms("attack.recover_key")
        parts = sum(ms for _, ms in split)
        report.say(
            "recover_key split: "
            + ", ".join(f"{label} {ms / 1e3:.3f} s ({ms / whole:.1%})" for label, ms in split)
        )
        report.say(
            f"split sum {parts / 1e3:.4f} s, recover_key spans {whole / 1e3:.4f} s, "
            f"timed from outside {sum(r.wall_s for r in spanned):.4f} s"
        )


def probe_pass(probe_wl, seed: int, n: int) -> tuple:
    """n spanned operations of another workload, for layers the traced
    workload never reaches; kept apart from the workload's own spans."""
    from tracing import Rebinder, Tracer
    from workloads import replay

    tracer = Tracer()
    with Rebinder() as rb:
        install_spans(rb, tracer)
        results = replay(probe_wl, seed, range(n), tracer)
    return SpanIndex(tracer), results


def run_traced(wl, seed: int, seconds: float, probe_params) -> Report:
    import micro
    from sidhlab.protocol import bundled_params
    from tracing import Rebinder, Tracer
    from workloads import Campaign, Exchange, replay, run_loop

    report = Report(wl.name)
    base, _ = run_loop(wl, seed, seconds / 2)
    ks = [r.k for r in base]

    tracer = Tracer()
    with Rebinder() as rb:
        install_spans(rb, tracer)
        spanned = replay(wl, seed, ks, tracer)

    counts_per_op = []
    counts = Counter()
    with Rebinder() as rb:
        install_counters(rb, counts)
        counted = []
        for k in ks[:COUNT_OPS]:
            counts.clear()
            counted.extend(replay(wl, seed, [k]))
            counts_per_op.append(Counter(counts))

    idx = SpanIndex(tracer)
    probes = []
    if isinstance(wl, Exchange):
        exch_idx = idx
    else:
        exch_idx, ops = probe_pass(Exchange(probe_params), seed, PROBE_EXCHANGES)
        probes += ops
    if isinstance(wl, Campaign):
        camp = idx, spanned
    else:
        camp = probe_pass(Campaign(bundled_params("toy431")), seed, PROBE_CAMPAIGNS)
        probes += camp[1]

    for name, value in micro.measure(probe_params, seed).items():
        report.put(name, value, micro.BATCHES)
    loads = []
    for _ in range(3):
        t0 = perf_counter()
        bundled_params(wl.params_name)
        loads.append(perf_counter() - t0)
    report.put("protocol.load_params_s", median(loads), len(loads))

    layer_metrics(report, wl, spanned, idx, counted, counts_per_op, exch_idx, camp)
    base_s = sum(r.wall_s for r in base)
    traced_s = sum(r.wall_s for r in spanned)
    report.put("trace.overhead_ratio", traced_s / base_s - 1, len(ks))
    report.say(
        f"tracing overhead: traced {traced_s:.4f} s - untraced {base_s:.4f} s = "
        f"{traced_s - base_s:+.4f} s over the same {len(ks)} operations"
    )

    everything = base + spanned + counted + probes
    report.attempted = sum(r.units for r in everything)
    report.failed = sum(r.failed for r in everything)
    for r in everything:
        if r.failed:
            report.errors.append(f"operation {r.k}: {r.error}")
    first = {r.k: r.fingerprint for r in base}
    changed = [r for r in spanned + counted if r.fingerprint != first[r.k]]
    for r in changed:
        report.failed += r.units
        report.errors.append(f"operation {r.k} did not repeat its outputs when replayed")
    report.say(
        f"{len(ks)} operations replayed untraced, spanned and ({len(counted)}) counted; "
        f"outputs and oracle-call ledgers repeat: {not changed}"
    )

    path = TRACE_DIR / f"{wl.name}-seed{seed}.jsonl"
    tracer.write(path, {"workload": wl.name, **environment(seed)})
    report.say(f"{len(tracer.finished())} spans written to {path.relative_to(ROOT)}")
    report.table(PER_LAYER)
    report.metric_units = PER_LAYER
    return report


# --------------------------------------------------------------------------


def make_workload(name: str, params_name: str | None = None):
    from sidhlab.protocol import bundled_params
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    return cls(bundled_params(params_name or cls.params_name))


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> Report:
    """One workload; small=True runs everything on toy431 (self-test)."""
    from sidhlab.protocol import bundled_params

    wl = make_workload(name, "toy431" if small else None)
    if small:
        wl.params_name = "toy431"
    if trace:
        probe_params = wl.params if wl.params.name != "toy431" or small else bundled_params("p434")
        report = run_traced(wl, seed, seconds, probe_params)
    else:
        report = run_untraced(wl, seed, seconds)
    report.env = environment(seed)
    return report


def result_line(report: Report) -> dict:
    return {
        "correct": report.failed == 0 and not report.errors,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.values[name][0], "unit": unit}
            for name, unit in report.metric_units.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="seconds-long toy431-only self-test")
    args = ap.parse_args(argv)

    bootstrap()
    sys.path.insert(0, str(HERE))
    if args.selftest:
        import selftest

        return selftest.main()

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    results = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        env = report.env
        print(f"{name}: environment backend={env['backend']} python={env['python']} "
              f"nproc={env['nproc']} seed={env['seed']}")
        for line in report.lines:
            print(line)
        for err in report.errors:
            print(f"{name}: FAILED {err}")
        results.append(result_line(report))
        if len(names) > 1:
            print(f"{name}: {json.dumps(results[-1], sort_keys=True)}")
    if len(names) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}/{m}": v for n, r in zip(names, results) for m, v in r["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
