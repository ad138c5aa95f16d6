"""Line coverage of src/sidhlab under a pytest run, on the standard library
alone:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

runs pytest in this process under sys.settrace and then prints, per module,
the line starts (dis.findlinestarts over every code object compiled from the
file) that no traced frame ran.  A code object stops being traced once all
of its line starts have run, so a kernel called millions of times costs one
trace call per call after its first.  Forked workers and subprocesses run
untraced: what they alone reach is listed as unreached.  Not collected by
pytest (the name does not start with test_).
"""

import dis
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sidhlab"


def line_starts(code) -> set:
    """The line starts of code and of every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= line_starts(const)
    return lines


def main(args) -> int:
    ran = {str(path): set() for path in sorted(SRC.glob("*.py"))}
    left = {}  # code object -> (its line starts not yet run, its file's set in ran)

    def local(frame, event, arg):
        todo, seen = left[frame.f_code]
        seen.add(frame.f_lineno)
        todo.discard(frame.f_lineno)
        return local if todo else None

    def start(frame, event, arg):
        code = frame.f_code
        if code not in left:
            seen = ran.get(str(Path(code.co_filename).resolve()))
            todo = {line for _, line in dis.findlinestarts(code) if line} if seen is not None else set()
            left[code] = todo, seen
        # nothing to trace outside src/sidhlab, nor in a code object whose
        # line starts have all run
        return local(frame, event, arg) if left[code][0] else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, seen in ran.items():
        unreached = sorted(line_starts(compile(Path(path).read_text(), path, "exec")) - seen)
        total += len(unreached)
        if unreached:
            print(f"{Path(path).name}: {', '.join(map(str, unreached))}")
    print(f"{total} line starts in {SRC} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
