"""List every ``raise`` statement in ``src/rahar`` that the tier-1 tests never run.

Run from anywhere: ``python tests/raise_audit.py``.  It runs the tier-1
suite in this process under ``sys.settrace`` (hypothesis on its derandomized
``ci`` profile, so every run draws the same examples), then prints each raise
site no test reached.  It exits 1 when a site is unreached and not listed in
``UNREACHED`` with the reason no test can run it, or when a test fails.

Work done in a forked worker process is not seen, so a site that only a
worker runs reads as unreached.  Tracing roughly doubles the suite's time,
so this is a CI step of its own, not a tier-1 test; pytest does not collect
this module.  It imports only the standard library, and pytest to run the
suite.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rahar"

# (file under src/rahar, enclosing function, first line of the raise) -> why no test runs it
UNREACHED: dict[tuple[str, str, str], str] = {}


def raise_sites() -> dict[str, dict[int, tuple[int, str, str]]]:
    """Per source file, each line a raise statement spans -> (its first line, its
    enclosing function, its first line of source)."""
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, spans = text.splitlines(), {}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Raise):
                    site = (child.lineno, scope, lines[child.lineno - 1].strip())
                    for line in range(child.lineno, child.end_lineno + 1):
                        spans[line] = site
                visit(child, inner)

        visit(ast.parse(text, str(path)), "")
        sites[os.path.realpath(path)] = spans
    return sites


def run_traced(sites) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for the tier-1 suite, and the (file, first line) of each
    raise site that ran."""
    ran: set[tuple[str, int]] = set()
    files: dict[str, dict | None] = {}  # a code object's file name -> its raise lines

    def local(frame, event, arg):
        if event == "line":
            site = files[frame.f_code.co_filename].get(frame.f_lineno)
            if site is not None:
                ran.add((frame.f_code.co_filename, site[0]))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = sites.get(os.path.realpath(name))
        return local if files[name] is not None else None

    os.environ.setdefault("HYPOTHESIS_PROFILE", "ci")
    # as the tier-1 command line sets it, for the tests' subprocesses too
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    os.chdir(ROOT)
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {(os.path.realpath(name), line) for name, line in ran}


def main() -> int:
    sites = raise_sites()
    code, ran = run_traced(sites)
    listed, unlisted = [], []
    total = 0
    for path, spans in sites.items():
        relative = Path(path).relative_to(PACKAGE.resolve()).as_posix()
        for first, scope, source in sorted(set(spans.values())):
            total += 1
            if (path, first) in ran:
                continue
            reason = UNREACHED.get((relative, scope, source))
            (listed if reason else unlisted).append(f"{relative}:{first} ({scope}) {source}"
                                                   + (f"  -- {reason}" if reason else ""))
    print(f"\n{total} raise sites in src/rahar, {total - len(listed) - len(unlisted)} reached, "
          f"{len(listed)} unreached with a reason, {len(unlisted)} unreached without one")
    for line in listed + unlisted:
        print(line)
    if code:
        print(f"the tests failed (pytest exit code {code})")
    return 1 if code or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
