"""The example scripts run end to end and print what they promise."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_build_surface():
    lines = run_script("build_surface.py")
    assert "27 quadrics over Q (every one vanishes on the parametrization):" in lines
    assert ("  pullback through the parametrization = "
            "(1/4) * [X^3 + 2*Y^3 + 4*Z^3]") in lines


def test_count_survey():
    lines = run_script("count_survey.py", "--primes", "2", "3", "--bound", "20")
    assert "p = 3  (expected 13)" in lines
    assert any(line.startswith("  a = 2: count 13, smooth-spot pass  [ok, ")
               for line in lines)
