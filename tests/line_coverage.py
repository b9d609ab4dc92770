"""Line coverage of src/volgap by the tier-1 suite, with the stdlib's tracer.

  python tests/line_coverage.py

runs the suite in this process under sys.settrace and exits 1 if a test
fails, if a line of src/volgap/*.py runs in no test and is not in
ALLOWED, or if an ALLOWED entry is stale (no line of its module has its
text) or covered (every line with its text ran).  The executable lines
are those that a module's code objects list in co_lines().  Extra
arguments go to pytest in place of the tests/ directory.  pytest does
not collect this file: its name does not start with test_.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "volgap"

# (module, stripped source text) -> why no in-process test runs that line.
# _write_stdout's error path runs only in the subprocesses of
# test_cli.TestStreamedTable, whose stdout is a closed pipe or a full device
ALLOWED = {
    ("cli", "except OSError as exc:"): "subprocess only: a write to stdout failed",
    ("cli", "devnull = os.open(os.devnull, os.O_WRONLY)"): "subprocess only: a write to stdout failed",
    ("cli", "os.dup2(devnull, sys.stdout.fileno())"): "subprocess only: a write to stdout failed",
    ("cli", "os.close(devnull)"): "subprocess only: a write to stdout failed",
    ("cli", "if not isinstance(exc, BrokenPipeError):"): "subprocess only: a write to stdout failed",
    ("cli", "raise"): "subprocess only: stdout is a full device",
    ("cli", "sys.exit(main())"): "subprocess only: `python -m volgap.cli`",
}


def executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from path lists in co_lines()."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None and line > 0)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_suite(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run of each file under src/volgap."""
    import pytest

    package = str(PACKAGE)
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        # a call runs its first line, which no line event reports
        hits.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local(frame, event, arg)

    sys.path.insert(0, str(SRC))  # trace this checkout, not an installed copy
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv) -> int:
    code, hits = run_suite(argv or [str(ROOT / "tests")])
    if code != 0:
        print(f"line_coverage: the suite exited {code}")
        return 1
    problems, unused, texts = [], set(ALLOWED), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        texts.update((path.stem, text.strip()) for text in source)
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            key = (path.stem, source[line - 1].strip())
            if key in ALLOWED:
                unused.discard(key)
            else:
                problems.append(f"{path.relative_to(ROOT)}:{line} runs in no test: {key[1]}")
    problems += [f"allowlist entry {key} is " + ("stale: no such line" if key not in texts else "covered")
                 for key in ALLOWED if key in unused]
    for problem in problems:
        print(f"line_coverage: {problem}")
    print(f"line_coverage: {len(problems)} problems; {len(ALLOWED) - len(unused)} allowlist entries in use")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
