"""Every demo exits 0 and prints exactly its recorded stdout.

The recordings live in ``tests/golden/demos.json``.  After an intended
change of output, rewrite them with

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "demos.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name: str) -> str:
    """Stdout of one demo, run as its own script with src on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _golden() -> dict[str, str]:
    return {g["demo"]: g["stdout"] for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_demo():
    assert list(_golden()) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_unchanged(name):
    assert run_demo(name) == _golden()[name]


if __name__ == "__main__":
    records = [{"demo": name, "stdout": run_demo(name)} for name in DEMOS]
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
