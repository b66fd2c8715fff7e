"""The demo scripts run, print what they printed when pinned, and
rewrite their output files byte for byte.

Each script runs as a subprocess on a copy of ``demos/`` with the
package on ``PYTHONPATH``, so a run never touches the committed files.
Stdout is compared with ``tests/golden/demo-<script>.txt`` and the files
the demos write (``sample.corpus``, ``coauthorship.net``) with
``tests/golden/demo-<file>``.

Run ``PYTHONPATH=src python3 tests/test_demos.py`` from the repository
root to write the fixtures again; only do that for a deliberate change
of output.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = sorted(p.name for p in DEMOS.glob("[0-9][0-9]_*.py"))
WRITTEN = ("sample.corpus", "coauthorship.net")


def run_demos(demo_dir: Path) -> dict[str, subprocess.CompletedProcess]:
    """Copy ``demos/`` to ``demo_dir`` without its written files and run
    every script there in order."""
    shutil.copytree(DEMOS, demo_dir, ignore=shutil.ignore_patterns(*WRITTEN, "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return {
        script: subprocess.run(
            [sys.executable, str(demo_dir / script)],
            cwd=demo_dir, env=env, capture_output=True, text=True, timeout=120,
        )
        for script in SCRIPTS
    }


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("demos") / "demos"


@pytest.fixture(scope="module")
def runs(demo_dir):
    return run_demos(demo_dir)


def test_all_six_demos_are_found():
    assert len(SCRIPTS) == 6


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_stdout_matches_golden(script, runs):
    proc = runs[script]
    assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"
    expected = (GOLDEN / f"demo-{Path(script).stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected


@pytest.mark.parametrize("name", WRITTEN)
def test_demo_written_file_matches_golden(name, demo_dir, runs):
    assert (demo_dir / name).read_bytes() == (GOLDEN / f"demo-{name}").read_bytes()


def write_fixtures() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        demo_dir = Path(tmp) / "demos"
        for script, proc in run_demos(demo_dir).items():
            if proc.returncode != 0:
                sys.exit(f"{script} exited {proc.returncode}:\n{proc.stderr}")
            path = GOLDEN / f"demo-{Path(script).stem}.txt"
            path.write_text(proc.stdout, encoding="utf-8")
            print(f"wrote {path} ({len(proc.stdout)} bytes)")
        for name in WRITTEN:
            data = (demo_dir / name).read_bytes()
            (GOLDEN / f"demo-{name}").write_bytes(data)
            print(f"wrote {GOLDEN / f'demo-{name}'} ({len(data)} bytes)")


if __name__ == "__main__":
    write_fixtures()
