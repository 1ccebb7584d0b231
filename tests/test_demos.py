"""Smoke test: the demos that read a CSV and run K-means exit cleanly and
leave no temp files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import factorclust

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_pipeline_walkthrough.py", "04_csv_and_sector_map.py"]
)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(factorclust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env["TMPDIR"] = str(tmpdir)  # demo 04 writes its CSVs to a temp dir
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300,
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert list(tmpdir.iterdir()) == []  # no temp file or directory left behind
