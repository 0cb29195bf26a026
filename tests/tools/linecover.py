"""Lines of ``src/`` that the test suite never runs, with the standard
library only (Python 3.11+).

    PYTHONPATH=src python tests/tools/linecover.py [pytest arguments]

Runs pytest in this process under ``sys.settrace`` and prints each line of
a function body under ``src/`` that never ran.  Exits 1 if it printed one;
otherwise with pytest's exit code.  The tests that start a fresh interpreter
are followed: a ``sitecustomize`` on a directory prepended to
``PYTHONPATH`` starts the same tracer in each child, which writes the lines
it ran to a file in that directory, and this process merges the files.
"""

import atexit
import inspect
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "teescrow"

#: The ``sitecustomize`` each fresh interpreter imports as it starts.
_SITECUSTOMIZE = """\
import sys
sys.path.insert(0, {tools!r})
import linecover
sys.path.pop(0)
linecover.follow({site!r})
"""


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


def tracer(ran: set):
    """A ``sys.settrace`` function that adds (file name, line) to ``ran``
    for each line of ``src/`` that runs."""
    files = {}

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

    return call


def follow(site: str) -> None:
    """Trace this fresh interpreter, and write the lines it ran to a new
    file in ``site`` as it exits."""
    ran = set()
    sys.settrace(tracer(ran))

    def write():
        handle, _ = tempfile.mkstemp(suffix=".json", dir=site)
        with open(handle, "w") as out:
            json.dump(sorted(ran), out)

    atexit.register(write)


def main(args: list[str]) -> int:
    import pytest  # here, not above: every followed child imports this file

    ran = set()
    with tempfile.TemporaryDirectory() as site:
        Path(site, "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            tools=str(Path(__file__).resolve().parent), site=site))
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, (site, os.environ.get("PYTHONPATH"))))
        sys.settrace(tracer(ran))
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
        for path in Path(site).glob("*.json"):
            ran.update(map(tuple, json.loads(path.read_text())))
    missed, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        source, lines = path.read_text().splitlines(), body_lines(path)
        total += len(lines)
        missed += [f"never ran: {path.name}:{n} {function}: "
                   f"{source[n - 1].strip()}"
                   for (_, n), function in sorted(lines.items())
                   if (path.name, n) not in ran]
    print("\n".join(missed) or f"each of {total} function-body lines ran")
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
