"""Every script in scripts/ runs end to end at a tiny size, in a fresh
interpreter that turns numpy RuntimeWarnings into errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, out, rows", [
    ("tne_volume_sweep.py", ("--betas", "0,1", "--samples", "2000"), "sweep.csv", 3),
    ("jc_negativity_sweep.py", ("--points", "2"), "jc.csv", 3),
])
def test_csv_sweeps(tmp_path, name, args, out, rows):
    proc = run_script(name, *args, "--out", str(tmp_path / out), cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = (tmp_path / out).read_text().splitlines()
    assert len(lines) == rows and all(len(l.split(",")) == len(lines[0].split(",")) for l in lines)


def test_boundary_mesh(tmp_path):
    obj = tmp_path / "tne.obj"
    proc = run_script("boundary_mesh.py", "--grid", "4", "--samples", "2000", "--obj", str(obj),
                      cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert "hull fraction" in proc.stdout
    faces = [l for l in obj.read_text().splitlines() if l.startswith("f ")]
    assert len(faces) >= 4
    assert os.listdir(tmp_path) == ["tne.obj"]
