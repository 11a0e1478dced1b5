"""List the statements of src/thlrecon that no tier-1 test executes.

Runs the tests in this process under a ``sys.settrace`` line tracer,
without tests/test_acceptance.py (whose end-to-end runs reach no
statement the other tests miss and take longest), and appends a
Markdown listing to the file named on the command line, or prints it:

    python3 tools/unexecuted.py [OUT]

A statement is executable when the compiler emitted code for one of its
own lines (a compound statement's own lines are its header), and
executed when the tracer saw one of them.  Informational: the exit
status is 0 whatever the tests do.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thlrecon"


def code_lines(code):
    """Lines the compiler emitted code for, in ``code`` and the code
    objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, own lines) of every statement and except clause."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, set(range(first, last + 1))


def unexecuted(path: Path, executed):
    source = path.read_text()
    emitted = code_lines(compile(source, str(path), "exec"))
    lines = source.splitlines()
    return sorted(
        (first, lines[first - 1].strip())
        for first, own in statements(ast.parse(source))
        if own & emitted and not own & executed
    )


def main(argv):
    files = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest

        status = pytest.main(
            ["-q", str(ROOT / "tests"), "--ignore", str(ROOT / "tests" / "test_acceptance.py")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    listing = [
        f"{Path(name).relative_to(ROOT)}:{line}: {text}"
        for name, executed in files.items()
        for line, text in unexecuted(Path(name), executed)
    ]
    report = (
        f"### Unexecuted src statements: {len(listing)}\n\n"
        f"Tier-1 without tests/test_acceptance.py, pytest exit status {int(status)}.\n\n"
        "```\n" + "".join(line + "\n" for line in listing) + "```\n"
    )
    if len(argv) > 1:
        with open(argv[1], "a") as out:
            out.write(report)
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
