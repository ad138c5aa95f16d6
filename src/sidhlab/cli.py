"""Command-line front door: parameter generation, honest keygen/derive, the
fault-attack campaign runner, and the countermeasure bench.

Reports are JSON-lines (one trial per line, aggregate summary last); exit
status is 0 when every trial succeeded, 1 on any recovery mismatch, 2 for
usage or I/O problems.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import click

from . import attack as attack_mod
from . import countermeasure as cm
from .faultsim import make_oracle, oracle_randomized
from .montgomery import xpoint_in_fp
from .protocol import (
    ALICE,
    BOB,
    PublicKey,
    SidhParams,
    bundled_params,
    derive,
    keygen,
    load_params,
    param_gen,
    save_params,
)

BUNDLED = ("toy431", "p434")


@dataclass
class TrialReport:
    """One attack trial: what was recovered, at what oracle cost."""

    param_set: str
    seed: int
    e3: int
    success: bool
    oracle_calls: int
    calls_histogram: dict
    duration_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _load(params_arg: str) -> SidhParams:
    if params_arg in BUNDLED:
        return bundled_params(params_arg)
    path = Path(params_arg)
    if not path.exists():
        raise click.UsageError(f"no such parameter set or file: {params_arg}")
    return load_params(path)


@click.group()
def main():
    """SIDH + fault-injection laboratory."""


@main.group()
def params():
    """Parameter-set utilities."""


@params.command("gen")
@click.option("--e2", type=int, required=True)
@click.option("--e3", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--name", type=str, default=None)
def params_gen(e2: int, e3: int, seed: int, out: str, name: Optional[str]):
    """Search a parameter set over p = 2^e2 * 3^e3 - 1 and write it."""
    try:
        ps = param_gen(e2, e3, random.Random(seed), name=name)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    save_params(ps, out)
    click.echo(f"p = {format(int(ps.field_params.p), 'x')}")
    click.echo(f"wrote {out}")


def _run_trial(args) -> TrialReport:
    params_arg, seed = args
    ps = _PARAMS_CACHE.get(params_arg)
    if ps is None:
        ps = _PARAMS_CACHE[params_arg] = _load(params_arg)
    rng = random.Random(seed)
    sk = ps.sample_sk(BOB, rng)
    bob_pk = keygen(ps, BOB, sk)
    t0 = time.perf_counter()
    state = attack_mod.recover_key(ps, make_oracle(ps, sk), bob_pk, rng)
    duration = time.perf_counter() - t0
    hist: dict = {}
    for c in state.calls_per_trit:
        hist[str(c)] = hist.get(str(c), 0) + 1
    return TrialReport(
        param_set=ps.name,
        seed=seed,
        e3=ps.e3,
        success=state.sk % 3**ps.e3 == sk % 3**ps.e3,
        oracle_calls=state.total_calls,
        calls_histogram=hist,
        duration_s=duration,
    )


_PARAMS_CACHE: dict = {}


@main.command("attack")
@click.option("--params", "params_arg", type=str, required=True, help="bundled name or file path")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None)
@click.option("--csv", "csv_out", type=click.Path(dir_okay=False), default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option(
    "--stable-durations",
    is_flag=True,
    help="zero the per-trial durations so equal seeds give byte-identical reports",
)
def attack_cmd(params_arg, trials, seed, json_out, csv_out, jobs, stable_durations):
    """Run full key-recovery trials against fresh static keys."""
    _load(params_arg)  # fail fast on bad input
    tasks = [(params_arg, seed + idx) for idx in range(trials)]
    if jobs > 1 and trials > 1:
        with multiprocessing.Pool(jobs) as pool:
            reports = list(pool.imap_unordered(_run_trial, tasks))
    else:
        reports = [_run_trial(t) for t in tasks]
    if stable_durations:
        for r in reports:
            r.duration_s = 0.0
    lines = [r.to_json() for r in reports]
    n = len(reports)
    successes = sum(r.success for r in reports)
    summary = {
        "type": "summary",
        "param_set": params_arg,
        "trials": n,
        "successes": successes,
        "success_rate": (successes / n) if n else None,
        "mean_oracle_calls": (sum(r.oracle_calls for r in reports) / n) if n else None,
        "mean_duration_s": (sum(r.duration_s for r in reports) / n) if n else None,
    }
    lines.append(json.dumps(summary, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if json_out:
        Path(json_out).write_text(text)
    else:
        click.echo(text, nl=False)
    if csv_out:
        keys = ["param_set", "trials", "successes", "success_rate", "mean_oracle_calls", "mean_duration_s"]
        Path(csv_out).write_text(
            ",".join(keys) + "\n" + ",".join(str(summary[k]) for k in keys) + "\n"
        )
    if successes != n:
        sys.exit(1)


@main.group()
def countermeasure():
    """Countermeasure evaluation."""


@countermeasure.command("bench")
@click.option("--params", "params_arg", type=str, required=True)
@click.option("--k", type=int, required=True)
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "json_out", type=click.Path(dir_okay=False), default=None)
def countermeasure_bench(params_arg, k, trials, seed, json_out):
    """Measure randomized-pushforward overhead and attack degradation."""
    ps = _load(params_arg)
    rng = random.Random(seed)
    cfg = cm.PushforwardConfig(k)

    t_honest = t_masked = 0.0
    mismatches = 0
    for _ in range(max(trials, 1)):
        ska = ps.sample_sk(ALICE, rng)
        skb = ps.sample_sk(BOB, rng)
        pka = keygen(ps, ALICE, ska)
        t0 = time.perf_counter()
        want = derive(ps, BOB, skb, pka)
        t_honest += time.perf_counter() - t0
        t0 = time.perf_counter()
        got = cm.derive_bob_randomized(ps, skb, pka, cfg, rng)
        t_masked += time.perf_counter() - t0
        mismatches += got != want

    hits = total = 0
    for trial in range(max(trials, 1)):
        skb = ps.sample_sk(BOB, rng)
        i = min(1, ps.e3 - 2)
        prefix = skb % 3**i
        forged = attack_mod.forge_public_keys(ps, prefix, i, rng)
        cands = attack_mod.candidate_kernels(ps, prefix, i, forged)
        if not xpoint_in_fp(cands[(skb // 3**i) % 3]):
            continue  # only instances whose unmasked verdict is 1 are informative
        total += 1
        hits += oracle_randomized(ps, skb, forged.pk, i, cfg, rng)

    out = {
        "param_set": ps.name,
        "k": k,
        "trials": trials,
        "derive_mismatches": mismatches,
        "overhead_ratio": (t_masked / t_honest) if t_honest else None,
        "forged_oracle_hits": hits,
        "forged_oracle_total": total,
        "forged_oracle_success_rate": (hits / total) if total else None,
    }
    text = json.dumps(out, sort_keys=True) + "\n"
    if json_out:
        Path(json_out).write_text(text)
    else:
        click.echo(text, nl=False)
    if mismatches:
        sys.exit(1)


def _write_pk(path: str, ps: SidhParams, side: str, pk: PublicKey) -> None:
    F = ps.field
    lines = [
        f"params={ps.name}",
        f"p={format(int(ps.field_params.p), 'x')}",
        f"side={side}",
        f"xP={F.encode(pk.xP)}",
        f"xQ={F.encode(pk.xQ)}",
        f"xPQ={F.encode(pk.xPQ)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_pk(path: str, ps: SidhParams) -> tuple[str, PublicKey]:
    kv = {}
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    if int(kv["p"], 16) != int(ps.field_params.p):
        raise click.UsageError("public key was produced under different parameters")
    F = ps.field
    return kv["side"], PublicKey(F.decode(kv["xP"]), F.decode(kv["xQ"]), F.decode(kv["xPQ"]))


@main.command("keygen")
@click.option("--params", "params_arg", type=str, required=True)
@click.option("--side", type=click.Choice([ALICE, BOB]), required=True)
@click.option("--sk", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def keygen_cmd(params_arg, side, sk, out):
    """Write the public key for a given private scalar."""
    ps = _load(params_arg)
    try:
        pk = keygen(ps, side, sk)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_pk(out, ps, side, pk)
    click.echo(f"wrote {out}")


@main.command("derive")
@click.option("--params", "params_arg", type=str, required=True)
@click.option("--side", type=click.Choice([ALICE, BOB]), required=True)
@click.option("--sk", type=int, required=True)
@click.option("--pk", "pk_path", type=click.Path(exists=True, dir_okay=False), required=True)
def derive_cmd(params_arg, side, sk, pk_path):
    """Print the shared j-invariant for a private scalar and a peer key."""
    ps = _load(params_arg)
    pk_side, pk = _read_pk(pk_path, ps)
    if pk_side == side:
        raise click.UsageError(f"cannot derive {side} against a {pk_side} public key")
    try:
        j = derive(ps, side, sk, pk)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(ps.field.encode(j))


if __name__ == "__main__":
    main()
