"""Lines of ``src/`` that the test suite never runs, with the standard
library only (Python 3.11+).

    PYTHONPATH=src python tests/tools/linecover.py [pytest arguments]

Runs pytest in this process under ``sys.settrace`` and prints each line of
a function body under ``src/`` that never ran and that ``ALLOWED`` does not
name.  Exits 1 if it printed one, or if an entry of ``ALLOWED`` names a line
that ran or no longer exists; otherwise with pytest's exit code.  The tests
that start a fresh interpreter are not followed.
"""

import inspect
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "teescrow"

_CLOSED_STDOUT = ("a closed standard output: only a fresh interpreter meets "
                  "it (test_closed_stdout_exits_quietly)")
_TAG = ("a tampered AEAD tag: tested only as a fresh interpreter's first "
        "backend call (test_first_call_into_the_backend_catches_its_own_"
        "exceptions)")

#: (file, function, source text, why the test process never runs it).
ALLOWED = {
    ("cli.py", "main", "devnull = os.open(os.devnull, os.O_WRONLY)",
     _CLOSED_STDOUT),
    ("cli.py", "main", "os.dup2(devnull, sys.stdout.fileno())",
     _CLOSED_STDOUT),
    ("cli.py", "main", "os.close(devnull)", _CLOSED_STDOUT),
    ("cli.py", "main", "return EXIT_CLOSED_STDOUT", _CLOSED_STDOUT),
    ("crypto.py", "open_result", "except backend.InvalidTag:", _TAG),
    ("crypto.py", "open_result",
     'raise TamperDetected("authentication tag check failed") from None',
     _TAG),
}


def body_lines(path: Path) -> dict:
    """(file name, line) -> function, for each line of a function body in
    ``path`` that holds an instruction, its ``def`` line left out."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], {}
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class
            lines.update(((path.name, n), code.co_qualname)
                         for _, _, n in code.co_lines()
                         if n is not None and n != code.co_firstlineno)
    return lines


def main(args: list[str]) -> int:
    ran, files = set(), {}

    def line(frame, event, _):
        if event == "line":
            ran.add((files[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(os.path.realpath(name))
            files[name] = path.name if path.parent == SRC else None
        return line if files[name] else None

    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    allowed = {entry[:3] for entry in ALLOWED}
    unused, missed, total = set(allowed), [], 0
    for path in sorted(SRC.glob("*.py")):
        source, lines = path.read_text().splitlines(), body_lines(path)
        total += len(lines)
        for key, function in sorted(lines.items()):
            entry = (path.name, function, source[key[1] - 1].strip())
            if key in ran:
                continue
            if entry in allowed:
                unused.discard(entry)
            else:
                missed.append(f"never ran: {path.name}:{key[1]} "
                              f"{function}: {entry[2]}")
    missed += [f"allowed, but ran or gone: {entry}" for entry in unused]
    print("\n".join(missed)
          or f"each of {total} function-body lines ran or is allowed")
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
