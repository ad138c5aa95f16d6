"""Command-line front door: parameter generation, honest keygen/derive, the
fault-attack campaign runner, and the countermeasure bench.

Reports are JSON-lines (one trial per line, aggregate summary last).  A
trial whose recovery raises OracleContradictionError or a SidhlabInputError
is reported with success false and the class name under "error", and the
campaign goes on.  Exit status is 0 when every trial succeeded, 1 on any
recovery mismatch or failed trial, 2 for usage or I/O problems.  Untrusted
input that cannot be used (a parameter file, a public-key file, a public key
whose chain degenerates) makes the library raise SidhlabInputError, a
ValueError, and so does an argument it refuses (a private scalar out of
range, exponents param_gen cannot use).  main alone turns such a ValueError
into exit 2 with one error line, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

from . import attack as attack_mod
from . import countermeasure as cm
from .faultsim import make_oracle, oracle
from .field import SidhlabInputError
from .montgomery import xpoint_in_fp
from .protocol import (
    ALICE,
    BOB,
    PublicKey,
    SidhParams,
    bundled_params,
    derive,
    dumps_params,
    dumps_public_key,
    keygen,
    loads_params,
    loads_public_key,
    param_gen,
)

BUNDLED = ("toy431", "p434")


class UsageError(Exception):
    """A usage or I/O problem: one `Error:` line on stderr and exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Every argument error is a UsageError, reported like any other."""

    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}.")
        return value

    return integer


class TrialReport(NamedTuple):
    """One attack trial: what was recovered, at what oracle cost."""

    param_set: str
    seed: int
    e3: int
    success: bool
    oracle_calls: int
    calls_histogram: dict
    duration_s: float
    error: Optional[str] = None  # the exception class that ended a failed trial

    def to_json(self) -> str:
        fields = self._asdict()
        if self.error is None:
            del fields["error"]
        return json.dumps(fields, sort_keys=True)


def _load(params_arg: str) -> SidhParams:
    if params_arg in BUNDLED:
        return bundled_params(params_arg)
    if not Path(params_arg).exists():
        raise UsageError(f"no such parameter set or file: {params_arg}")
    return _parse_file("parameter", params_arg, loads_params)


def _parse_file(kind: str, path: str, loads, *args):
    """loads(the text of path, *args); a file that cannot be read or used
    is a usage error."""
    try:
        return loads(Path(path).read_text(), *args)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad {kind} file {path}: {exc}")


def _write(path: str, text: str) -> None:
    """Write an output file; one that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def params_gen(e2: int, e3: int, seed: int, out: str, name: Optional[str]):
    """Search a parameter set over p = 2^e2 * 3^e3 - 1 and write it."""
    ps = param_gen(e2, e3, random.Random(seed), name=name)
    _write(out, dumps_params(ps))
    print(f"p = {ps.field.p:x}")
    print(f"wrote {out}")


def _run_trial(args) -> TrialReport:
    ps, seed = args
    rng = random.Random(seed)
    sk = ps.sample_sk(BOB, rng)
    bob_pk = keygen(ps, BOB, sk)
    oracle = make_oracle(ps, sk)
    calls = 0

    def counted(pk: PublicKey, i: int) -> int:
        nonlocal calls
        calls += 1
        return oracle(pk, i)

    t0 = time.perf_counter()
    try:
        state = attack_mod.recover_key(ps, counted, bob_pk, rng)
    except (attack_mod.OracleContradictionError, SidhlabInputError) as exc:
        duration = time.perf_counter() - t0
        return TrialReport(ps.name, seed, ps.e3, False, calls, {}, duration, type(exc).__name__)
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


def attack_cmd(params_arg, trials, seed, json_out, csv_out, jobs, stable_durations):
    """Run full key-recovery trials against fresh static keys."""
    ps = _load(params_arg)
    tasks = [(ps, seed + idx) for idx in range(trials)]
    if jobs > 1 and trials > 1:
        with multiprocessing.Pool(min(jobs, trials)) as pool:
            reports = list(pool.imap(_run_trial, tasks))
    else:
        reports = [_run_trial(t) for t in tasks]
    if stable_durations:
        reports = [r._replace(duration_s=0.0) for r in reports]
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
        _write(json_out, text)
    else:
        print(text, end="")
    if csv_out:
        keys = ["param_set", "trials", "successes", "success_rate", "mean_oracle_calls", "mean_duration_s"]
        _write(csv_out, ",".join(keys) + "\n" + ",".join(str(summary[k]) for k in keys) + "\n")
    if successes != n:
        sys.exit(1)


def countermeasure_bench(params_arg, k, trials, seed, json_out):
    """Measure randomized-pushforward overhead and attack degradation."""
    ps = _load(params_arg)
    cfg = cm.PushforwardConfig(k)
    try:
        cm.masking_degree(ps, cfg)
    except ValueError as exc:
        raise UsageError(f"argument --k: {exc}")
    rng = random.Random(seed)

    t_honest = t_masked = 0.0
    mismatches = 0
    for _ in range(trials):
        ska = ps.sample_sk(ALICE, rng)
        skb = ps.sample_sk(BOB, rng)
        pka = keygen(ps, ALICE, ska)
        # the process's own CPU time: load elsewhere on the machine does not
        # skew the ratio
        t0 = time.process_time()
        want = derive(ps, BOB, skb, pka)
        t_honest += time.process_time() - t0
        t0 = time.process_time()
        got = cm.derive_bob_randomized(ps, skb, pka, cfg, rng)
        t_masked += time.process_time() - t0
        mismatches += got != want

    hits = total = 0
    for _ in range(trials):
        skb = ps.sample_sk(BOB, rng)
        i = min(1, ps.e3 - 2)
        prefix = skb % 3**i
        walk = attack_mod.prefix_walk(ps, prefix, i)
        forged = attack_mod.forge_public_keys(walk, rng)
        cands = attack_mod.candidate_kernels(walk, forged)
        if not xpoint_in_fp(cands[(skb // 3**i) % 3]):
            continue  # only instances whose unmasked verdict is 1 are informative
        total += 1
        hits += oracle(ps, skb, forged.pk, i, cfg, rng).bit

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
        _write(json_out, text)
    else:
        print(text, end="")
    if mismatches:
        sys.exit(1)


def keygen_cmd(params_arg, side, sk, out):
    """Write the public key for a given private scalar."""
    ps = _load(params_arg)
    pk = keygen(ps, side, sk)
    _write(out, dumps_public_key(ps, side, pk))
    print(f"wrote {out}")


def derive_cmd(params_arg, side, sk, pk_path):
    """Print the shared j-invariant for a private scalar and a peer key."""
    ps = _load(params_arg)
    pk_side, pk = _parse_file("public-key", pk_path, loads_public_key, ps)
    if pk_side == side:
        raise UsageError(f"cannot derive {side} against a {pk_side} public key")
    print(ps.field.encode(derive(ps, side, sk, pk)))


def _parser() -> _Parser:
    """The command line; each command's options are its function's keyword arguments."""
    top = _Parser(prog="sidhlab", description="SIDH + fault-injection laboratory.", allow_abbrev=False)
    commands = top.add_subparsers(metavar="COMMAND", required=True)

    def group(name, doc):
        parser = commands.add_parser(name, help=doc, description=doc)
        return parser.add_subparsers(metavar="COMMAND", required=True)

    def command(parent, name, run):
        cmd = parent.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False)
        cmd.set_defaults(run=run)
        return cmd

    cmd = command(group("params", "Parameter-set utilities."), "gen", params_gen)
    cmd.add_argument("--e2", type=int, required=True)
    cmd.add_argument("--e3", type=int, required=True)
    cmd.add_argument("--seed", type=int, default=0, help="default: %(default)s")
    cmd.add_argument("--out", required=True)
    cmd.add_argument("--name")

    cmd = command(commands, "attack", attack_cmd)
    cmd.add_argument("--params", dest="params_arg", required=True, help="bundled name or file path")
    cmd.add_argument("--trials", type=_int_at_least(0), required=True)
    cmd.add_argument("--seed", type=int, default=0, help="default: %(default)s")
    cmd.add_argument("--json", dest="json_out")
    cmd.add_argument("--csv", dest="csv_out")
    cmd.add_argument("--jobs", type=_int_at_least(1), default=1, help="default: %(default)s")
    stable = "zero the per-trial durations so equal seeds give byte-identical reports"
    cmd.add_argument("--stable-durations", action="store_true", help=stable)

    cmd = command(group("countermeasure", "Countermeasure evaluation."), "bench", countermeasure_bench)
    cmd.add_argument("--params", dest="params_arg", required=True)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--trials", type=_int_at_least(1), default=20, help="default: %(default)s")
    cmd.add_argument("--seed", type=int, default=0, help="default: %(default)s")
    cmd.add_argument("--json", dest="json_out")

    file_options = (("keygen", keygen_cmd, "--out", "out"), ("derive", derive_cmd, "--pk", "pk_path"))
    for name, run, path, dest in file_options:
        cmd = command(commands, name, run)
        cmd.add_argument("--params", dest="params_arg", required=True)
        cmd.add_argument("--side", choices=[ALICE, BOB], required=True)
        cmd.add_argument("--sk", type=int, required=True)
        cmd.add_argument(path, dest=dest, required=True)
    return top


def main(args=None, standalone_mode: bool = True) -> None:
    """Run the sidhlab command in args (sys.argv[1:] when None).  The one
    error boundary: a UsageError or a library ValueError prints one `Error:`
    line on stderr and exits 2; with standalone_mode false it is re-raised
    unchanged instead."""
    try:
        options = vars(_parser().parse_args(args))
        options.pop("run")(**options)
    except (UsageError, ValueError) as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
