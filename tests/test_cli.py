import json
import time

import pytest
from click.testing import CliRunner

from sidhlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestParamsGen:
    def test_toy_generation(self, runner, tmp_path):
        out = tmp_path / "toy.txt"
        res = runner.invoke(main, ["params", "gen", "--e2", "4", "--e3", "3", "--seed", "1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "p = 1af" in res.output
        assert out.exists()
        from sidhlab.protocol import loads_params

        loads_params(out.read_text()).validate()

    def test_non_prime_rejected(self, runner, tmp_path):
        res = runner.invoke(
            main, ["params", "gen", "--e2", "3", "--e3", "3", "--out", str(tmp_path / "x.txt")]
        )
        assert res.exit_code == 2
        assert "not prime" in res.output

    def test_p434_exponents_accepted_via_bundle(self, runner, tmp_path):
        # the full p434 search is exercised once at pin time; here the bundled
        # file must load and carry the Table-2 exponent e3 = 137
        from sidhlab.protocol import bundled_params

        assert bundled_params("p434").e3 == 137


class TestAttackCommand:
    def test_zero_trials(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        res = runner.invoke(
            main, ["attack", "--params", "toy431", "--trials", "0", "--json", str(out)]
        )
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["type"] == "summary" and summary["trials"] == 0

    def test_report_schema_and_success(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        res = runner.invoke(
            main,
            ["attack", "--params", "toy431", "--trials", "6", "--seed", "3", "--json", str(out)],
        )
        assert res.exit_code == 0, res.output
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        trials, summary = lines[:-1], lines[-1]
        assert len(trials) == 6
        for t in trials:
            assert t["param_set"] == "toy431"
            assert t["e3"] == 3
            assert t["success"] is True
            assert t["oracle_calls"] == sum(
                int(k) * v for k, v in t["calls_histogram"].items()
            )
            assert t["duration_s"] >= 0
        assert summary["successes"] == 6 and summary["success_rate"] == 1.0
        # aggregate recomputable from the lines
        assert summary["mean_oracle_calls"] == sum(t["oracle_calls"] for t in trials) / 6

    def test_byte_identical_reports_under_seed(self, runner, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            res = runner.invoke(
                main,
                [
                    "attack", "--params", "toy431", "--trials", "4", "--seed", "12",
                    "--json", str(out), "--stable-durations",
                ],
            )
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_aggregate(self, runner, tmp_path):
        out = tmp_path / "r.jsonl"
        csv = tmp_path / "r.csv"
        res = runner.invoke(
            main,
            ["attack", "--params", "toy431", "--trials", "2", "--json", str(out), "--csv", str(csv)],
        )
        assert res.exit_code == 0
        header, row = csv.read_text().splitlines()
        assert header.split(",")[0] == "param_set"
        assert row.split(",")[1] == "2"

    def test_failed_trial_sets_exit_one(self, runner, tmp_path, monkeypatch):
        import sidhlab.cli as cli_mod
        from sidhlab.attack import AttackState

        monkeypatch.setattr(
            cli_mod.attack_mod,
            "recover_key",
            lambda params, oracle, pk, rng: AttackState(sk=0, calls_per_trit=[1, 1]),
        )
        res = runner.invoke(
            main, ["attack", "--params", "toy431", "--trials", "1", "--json", str(tmp_path / "r.jsonl")]
        )
        assert res.exit_code == 1

    def test_campaign_survives_a_raising_trial(self, runner, tmp_path, monkeypatch):
        """A trial whose recovery raises is reported with success false and
        the error class; the other trials still run, and the exit is 1."""
        import sidhlab.cli as cli_mod
        from sidhlab.attack import OracleContradictionError

        recover = cli_mod.attack_mod.recover_key

        def flaky(params, oracle, pk, rng):
            flaky.calls += 1
            if flaky.calls == 2:
                oracle(pk, 0)
                raise OracleContradictionError("planted")
            return recover(params, oracle, pk, rng)

        flaky.calls = 0
        monkeypatch.setattr(cli_mod.attack_mod, "recover_key", flaky)
        out = tmp_path / "r.jsonl"
        res = runner.invoke(
            main,
            ["attack", "--params", "toy431", "--trials", "3", "--seed", "4", "--json", str(out)],
        )
        assert res.exit_code == 1, res.output
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        trials, summary = lines[:-1], lines[-1]
        assert [t["seed"] for t in trials] == [4, 5, 6]
        assert [t["success"] for t in trials] == [True, False, True]
        failed = trials[1]
        assert failed["error"] == "OracleContradictionError"
        assert failed["oracle_calls"] == 1 and failed["calls_histogram"] == {}
        assert all("error" not in t for t in (trials[0], trials[2]))
        assert summary["trials"] == 3 and summary["successes"] == 2

    def test_unknown_params(self, runner):
        res = runner.invoke(main, ["attack", "--params", "nope", "--trials", "1"])
        assert res.exit_code == 2


class TestKeygenDerive:
    def test_round_trip(self, runner, tmp_path):
        pka = tmp_path / "pka.txt"
        pkb = tmp_path / "pkb.txt"
        for side, sk, out in (("alice", 3, pka), ("bob", 5, pkb)):
            res = runner.invoke(
                main,
                ["keygen", "--params", "toy431", "--side", side, "--sk", str(sk), "--out", str(out)],
            )
            assert res.exit_code == 0, res.output
        ja = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "alice", "--sk", "3", "--pk", str(pkb)]
        )
        jb = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "bob", "--sk", "5", "--pk", str(pka)]
        )
        assert ja.exit_code == 0 and jb.exit_code == 0
        assert ja.output == jb.output

    def test_deterministic_given_sk(self, runner, tmp_path):
        outs = []
        for name in ("k1.txt", "k2.txt"):
            out = tmp_path / name
            runner.invoke(
                main,
                ["keygen", "--params", "toy431", "--side", "bob", "--sk", "7", "--out", str(out)],
            )
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_mismatched_params_rejected(self, runner, tmp_path):
        pkb = tmp_path / "pkb.txt"
        runner.invoke(
            main, ["keygen", "--params", "toy431", "--side", "bob", "--sk", "5", "--out", str(pkb)]
        )
        res = runner.invoke(
            main, ["derive", "--params", "p434", "--side", "alice", "--sk", "3", "--pk", str(pkb)]
        )
        assert res.exit_code == 2
        assert "different parameters" in res.output

    def test_same_side_rejected(self, runner, tmp_path):
        pkb = tmp_path / "pkb.txt"
        runner.invoke(
            main, ["keygen", "--params", "toy431", "--side", "bob", "--sk", "5", "--out", str(pkb)]
        )
        res = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "bob", "--sk", "5", "--pk", str(pkb)]
        )
        assert res.exit_code == 2

    def test_out_of_range_sk(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["keygen", "--params", "toy431", "--side", "bob", "--sk", "99", "--out", str(tmp_path / "x.txt")],
        )
        assert res.exit_code == 2


def _usage_error(res, text):
    """Exit 2, no traceback, and exactly one error line, which names text."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and text in errors[0], res.output


class TestUntrustedInput:
    """Files and keys the CLI cannot use give a usage error, never a traceback."""

    def test_degenerate_chain_pk(self, runner, tmp_path):
        # a random toy431 triple: it sits on a curve, but Bob's chain on it
        # hits a kernel of the wrong order at step 0
        pk = tmp_path / "pk.txt"
        pk.write_text(
            "params=toy431\np=1af\nside=alice\n"
            "xP=0044,0123\nxQ=019a,0187\nxPQ=0020,0082\n"
        )
        res = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "bob", "--sk", "5", "--pk", str(pk)]
        )
        _usage_error(res, "degenerate")

    def test_pk_file_missing_a_key(self, runner, tmp_path):
        pk = tmp_path / "pk.txt"
        runner.invoke(
            main, ["keygen", "--params", "toy431", "--side", "bob", "--sk", "5", "--out", str(pk)]
        )
        pk.write_text("".join(l for l in pk.read_text().splitlines(True) if not l.startswith("xQ=")))
        res = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "alice", "--sk", "3", "--pk", str(pk)]
        )
        _usage_error(res, "'xQ'")

    def test_params_file_missing_a_key(self, runner, tmp_path):
        from sidhlab.protocol import bundled_params, save_params

        path = tmp_path / "params.txt"
        save_params(bundled_params("toy431"), path)
        path.write_text("".join(l for l in path.read_text().splitlines(True) if not l.startswith("e3=")))
        res = runner.invoke(
            main,
            ["keygen", "--params", str(path), "--side", "bob", "--sk", "5", "--out", str(tmp_path / "k")],
        )
        _usage_error(res, "'e3'")

    def test_pk_file_with_an_unknown_side(self, runner, tmp_path):
        # a Bob key relabelled side=carol must not derive as if it were Bob's
        pk = tmp_path / "pk.txt"
        runner.invoke(
            main, ["keygen", "--params", "toy431", "--side", "bob", "--sk", "5", "--out", str(pk)]
        )
        pk.write_text(pk.read_text().replace("side=bob", "side=carol"))
        res = runner.invoke(
            main, ["derive", "--params", "toy431", "--side", "alice", "--sk", "3", "--pk", str(pk)]
        )
        _usage_error(res, "'carol'")

    def test_oversized_exponents_fail_fast(self, runner, tmp_path):
        """p = 2^60000 * 3 - 1 is refused by its size, before any primality
        test, both from params gen and from a parameter file."""
        from sidhlab.protocol import bundled_params, save_params

        path = tmp_path / "params.txt"
        save_params(bundled_params("toy431"), path)
        path.write_text(path.read_text().replace("e2=4\n", "e2=60000\n").replace("e3=3\n", "e3=1\n"))
        for args in (
            ["params", "gen", "--e2", "60000", "--e3", "1", "--out", str(tmp_path / "gen.txt")],
            ["attack", "--params", str(path), "--trials", "1"],
        ):
            t0 = time.perf_counter()
            res = runner.invoke(main, args)
            assert time.perf_counter() - t0 < 1.0, args
            _usage_error(res, "1024 bits")


class TestCountermeasureBench:
    def test_bench_json(self, runner, tmp_path):
        out = tmp_path / "bench.json"
        res = runner.invoke(
            main,
            [
                "countermeasure", "bench", "--params", "toy431", "--k", "2",
                "--trials", "6", "--json", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        data = json.loads(out.read_text())
        assert data["k"] == 2
        assert data["derive_mismatches"] == 0
        assert data["overhead_ratio"] > 1.0

    def test_bench_k0_overhead_near_one(self, runner):
        res = runner.invoke(
            main, ["countermeasure", "bench", "--params", "toy431", "--k", "0", "--trials", "8"]
        )
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert data["derive_mismatches"] == 0
        assert 0.5 < data["overhead_ratio"] < 1.5
        assert data["forged_oracle_success_rate"] == 1.0
