"""README's CLI block, run line by line.

Every `volgap ...` line of the first sh block under "## CLI" runs as
`python -m volgap.cli ...` in a fresh directory and must keep the exit
contract the README states: 0 on success, 1 for the fault-injection
line, never 2 and never a traceback.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def cli_lines() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("volgap ")]


def test_the_block_is_found():
    lines = cli_lines()
    assert len(lines) >= 10
    assert any("--cn-scale" in line for line in lines)
    assert any("--alpha auto" in line for line in lines)


@pytest.mark.parametrize("line", cli_lines())
def test_readme_line_keeps_the_exit_contract(tmp_path, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "volgap.cli", *shlex.split(line)[1:]]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    expected = 1 if "--cn-scale" in line else 0
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout or any(tmp_path.iterdir())
