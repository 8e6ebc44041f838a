"""The CLI surface prints exactly its recorded stdout and exit code: the
example battery as text and JSON, every README command with ``--json``,
and the identity suites on the five-point patterns and the examples.

The recordings live in ``tests/golden/cli_surface.json``.  After an
intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_cli_surface.py

``--help`` texts are not recorded: argparse lays them out differently
across Python versions.
"""

import json
from pathlib import Path

import pytest

from test_readme_cli import readme_commands, run_command

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_surface.json"
SUITE_PATTERNS = ("--preset comm --n 5", "--preset free --n 5",
                  "--preset ex-d", "--preset ex-f")


def surface_commands() -> list[str]:
    commands = ["eps paper-examples", "eps paper-examples --json"]
    commands += [f"{c} --json" for c in readme_commands()]
    for pattern in SUITE_PATTERNS:
        commands += [f"eps intertwiner-suite {pattern}",
                     f"eps intertwiner-suite {pattern} --json"]
    return list(dict.fromkeys(commands))


def _golden() -> dict[str, dict]:
    return {g["command"]: g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_the_surface():
    assert list(_golden()) == surface_commands()


@pytest.mark.parametrize("command", surface_commands(), ids=[
    f"{n:02d}-{'-'.join(c.split()[1:3])}" for n, c in enumerate(surface_commands(), start=1)])
def test_cli_surface_output_is_unchanged(command):
    want = _golden()[command]
    code, out = run_command(command)
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    records = []
    for command in surface_commands():
        code, out = run_command(command)
        records.append({"command": command, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
