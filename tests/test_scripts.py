"""The example scripts run end to end and print what they promise."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(name, *args, python=sys.executable, code=0, timeout=120):
    """The finished process of one script run, which must exit with `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([python, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    assert proc.returncode == code, proc.stderr
    return proc


def run_script(name, *args, python=sys.executable, timeout=120):
    return run(name, *args, python=python, timeout=timeout).stdout.splitlines()


def test_build_surface():
    lines = run_script("build_surface.py")
    assert "27 quadrics over Q (every one vanishes on the parametrization):" in lines
    assert ("  pullback through the parametrization = "
            "(1/4) * [X^3 + 2*Y^3 + 4*Z^3]") in lines


@pytest.mark.parametrize("args, error", [
    (["--a", "1e99999999"], "GrammarError: scalar '1e99999999' uses exponent"),
    (["--a", "x"], "GrammarError: cannot parse scalar 'x'"),
    (["--a", "0"], "ZeroA: a must be nonzero"),
    (["--field", "bogus"], "GrammarError: field spec needs a kind prefix"),
    (["--dprime", "0"], "InputError: d' must be >= 1"),
])
def test_build_surface_refuses_bad_input(args, error):
    # the CLI's reader, exit code and empty stdout: no hang on an exponent,
    # no traceback, no partial report before a late refusal
    proc = run("build_surface.py", *args, code=2, timeout=10)
    assert proc.stderr.startswith("input error: " + error)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_count_survey():
    lines = run_script("count_survey.py", "--primes", "2", "3", "--bound", "20")
    assert "p = 3  (expected 13)" in lines
    assert any(line.startswith("  a = 2: count 13, smooth-spot pass  [ok, ")
               for line in lines)


def interpreter(version):
    """A runnable python<version> from PATH, else from a pyenv install."""
    name = f"python{version}"
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    for exe in [shutil.which(name), *sorted(root.glob(f"versions/{version}.*/bin/{name}"))]:
        if exe and subprocess.run([str(exe), "-c", ""], capture_output=True).returncode == 0:
            return str(exe)
    return None


@pytest.mark.parametrize("version", ["3.10", "3.13"])
def test_cli_checks_on_oldest_and_newest_python(version):
    # the package's whole standard-library surface, with the n = 3 stdout
    # digests, on the interpreters CI's no-extras job covers
    python = interpreter(version)
    if python is None:
        pytest.skip(f"python{version} is not installed")
    lines = run_script("cli_checks.py", python=python)
    assert f" 0 failed on Python {version}." in lines[-1]
