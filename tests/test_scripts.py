import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_full_verification_small():
    proc = run_script("full_verification.py", "--n-max", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 11  # ten instances with n <= 5, then the suite
    assert lines[-1].startswith("all ") and lines[-1].endswith(" checks passed")


def test_emit_fk_curves(tmp_path):
    proc = run_script("emit_fk_curves.py", "--ks", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "fk_2.csv").read_text().splitlines()
    assert lines[0] == "x,F"
    x, f = map(float, lines[-1].split(","))
    assert x == 100.0 and f > 0


def test_emit_fk_curves_refuses_what_fk_refuses(tmp_path):
    proc = run_script("emit_fk_curves.py", "--ks", "2", "--step", "0",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert "--step" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "fk_2.csv").exists()
