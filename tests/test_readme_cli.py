"""Every `eps` example in README.md prints exactly its recorded stdout and
exit code.

The recordings live in ``tests/golden/readme_cli.json``.  After an
intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from epsym.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "readme_cli.json"


def readme_commands() -> list[str]:
    """The README's `eps` commands: the lines of its sh blocks, then the
    inline `eps ...` spans, each with comments and repeated blanks removed."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            line = line.split("#")[0].strip()
            if line.startswith("eps "):
                out.append(" ".join(line.split()))
    out += [" ".join(span.split()) for span in re.findall(r"`(eps [^`]+)`", text)]
    return out


def run_command(command: str) -> tuple[int, str]:
    """Exit code and stdout of one `eps ...` command, run in process."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = main(shlex.split(command)[1:])
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


def _golden() -> dict[str, dict]:
    return {g["command"]: g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_readme_example():
    assert list(_golden()) == readme_commands()


@pytest.mark.parametrize("command", readme_commands(), ids=[
    f"{n:02d}-{c.split()[1]}" for n, c in enumerate(readme_commands(), start=1)])
def test_readme_example_output_is_unchanged(command):
    want = _golden()[command]
    code, out = run_command(command)
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    records = []
    for command in readme_commands():
        code, out = run_command(command)
        records.append({"command": command, "exit": code, "stdout": out})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
