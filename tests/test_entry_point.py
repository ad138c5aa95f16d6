"""The command line as a user runs it, `python -m sidhlab.cli` in a fresh
interpreter: the interpreter's own exit path, which the in-process CliRunner
of the other CLI tests never reaches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ("params", "attack", "countermeasure", "keygen", "derive")


def _run(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "200"}  # help lines unwrapped
    command = [sys.executable, "-m", "sidhlab.cli", *args]
    return subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "args, text",
    [
        (["attack", "--params", "nope", "--trials", "1"], "no such parameter set or file: nope"),
        (["derive", "--params", "toy431", "--side", "alice", "--sk", "3", "--pk", "missing.txt"], "missing.txt"),
    ],
)
def test_usage_error_is_one_line_and_exit_two(tmp_path, args, text):
    res = _run(*args, cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and text in errors[0], res.stderr
    assert "Traceback" not in res.stderr


def test_help_names_every_command():
    res = _run("--help")
    assert res.returncode == 0, res.stderr
    listed = {line.split()[0] for line in res.stdout.splitlines() if line.startswith("    ")}
    assert set(COMMANDS) <= listed, res.stdout


def test_attack_help_lists_every_option():
    res = _run("attack", "--help")
    assert res.returncode == 0, res.stderr
    for option in ("--params", "--trials", "--seed", "--json", "--csv", "--jobs", "--stable-durations"):
        assert option in res.stdout
    assert "zero the per-trial durations so equal seeds give byte-identical reports" in res.stdout
