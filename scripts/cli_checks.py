#!/usr/bin/env python3
"""Run the `severi` command line on a fixed table of inputs and check each run.

Each row gives the arguments, the exit code the run must return, the
sha256 of its stdout (None when only the exit code is checked) and a time
limit in seconds.  Two of the n = 3 `surface` digests are the pins of
tests/test_acceptance.py, so a run under another interpreter is checked
for byte identity, not only for success; the third, over F_3, is the one
n = 3 run with p <= SMOOTHNESS_MAX_P, so it runs the Jacobian spot check.
The four digests over Shanks cubics with a fractional a pin n = 2
emissions over Q whose elements of L have denominators: one with an a of
six-digit numerator and denominator, whose model runs large denominators
through the integer row reduction of the descent and the JSON writers,
and one of the `algebra` suite, whose center rank is a row reduction over
Q.  Apart from them only the seed-0 benchmark digests pin such an
emission.  The `split` suite has one digest for every field and n, since
its report names no field; it is pinned at n = 2 over a Shanks cubic and
at n = 3 over F_{5^4} and over Q(zeta_5), where it proves six 35x35
splits invertible by eliminations over k.  The `counts` digest pins the
suite whose Jacobian ranks at the F_2- and F_3-points stop at their
ceiling m - 1 - n, and the `triviality` digest at n = 3 over F_{5^4}
pins a witness coboundary proven invertible by its k-rank and the base
change built on it.  The `algebra` and the two `picard` JSON digests
complete the set: every JSON emitter (surface, verify, algebra, picard)
has a pinned row, so each interpreter is checked for byte identity of
the JSON writer `severi.cli.dumps`.  The text row over the real quintic
field Q(zeta_11)^+ at n = 4 checks associativity and the center of a
cyclic algebra of dimension 25 over Q.  The exit-2 rows are inputs that
must be refused at once, so their limits are short; one is a d' far
above `PICARD_MAX_DPRIME`.  Of the 26 rows, 15 pin a digest and 6 must
exit 2.  Uses the standard library only, and runs each row
as `python -m severi` with the interpreter that runs this script.

Usage:
    python scripts/cli_checks.py
"""
import hashlib
import subprocess
import sys
import time

CHECKS = [
    # (argv, exit code, stdout sha256 or None, time limit in s)
    (["surface", "--field", "finite:p=3", "--a", "2", "--check"], 0, None, 120),
    (["surface", "--field", "finite:p=3", "--n", "3", "--a", "2", "--check"], 0,
     "d4aeecf1573d9ee5d1e6085729169e07b4e9d24673e2d3e419453dbdc5d8ba6e", 60),
    (["surface", "--field", "finite:p=5", "--n", "3", "--a", "2", "--check",
      "--emit", "json"], 0,
     "32635f4d8cdea2b98389f38874de7bf8740a90f5e581415bbccdc100ade8ca9f", 120),
    (["surface", "--field", "poly:x^4+x^3+x^2+x+1;galois:x^2", "--n", "3",
      "--a", "5", "--check"], 0,
     "e236edd830dd2a2b74e1631d8ffd838c00048d2915ca05d50609d8e8ee2e46b9", 60),
    (["surface", "--field", "shanks:t=3", "--a=12/5", "--check", "--emit",
      "json"], 0,
     "4f0324f89488067ea783557cf1277485b65fd03f38c308da314092baa4f6e8cc", 60),
    (["verify", "--field", "shanks:t=2", "--a=-9/2", "--suite", "split",
      "--emit", "json"], 0,
     "06b63027a90da62352cde8b7143db74593e6ba27ee0dbe5548649d0a9a3cb708", 60),
    (["verify", "--field", "finite:p=5", "--n", "3", "--a", "2", "--suite",
      "split", "--emit", "json"], 0,
     "06b63027a90da62352cde8b7143db74593e6ba27ee0dbe5548649d0a9a3cb708", 20),
    (["verify", "--field", "poly:x^4+x^3+x^2+x+1;galois:x^2", "--n", "3",
      "--a", "5", "--suite", "split", "--emit", "json"], 0,
     "06b63027a90da62352cde8b7143db74593e6ba27ee0dbe5548649d0a9a3cb708", 20),
    (["surface", "--field", "shanks:t=6", "--a=-1000003/999983", "--check",
      "--emit", "json"], 0,
     "362940362e1c4d8a1685d0fd8ed1d88d79e6d4187441a011dad098c8714a71df", 60),
    (["verify", "--field", "shanks:t=4", "--a=-7/3", "--suite", "algebra",
      "--emit", "json"], 0,
     "182b6c80b5906cd9062149a6483e0a1496e36fa90eddb626602708cfe2f3368c", 60),
    (["verify", "--suite", "counts", "--emit", "json"], 0,
     "50f00f868b593b4a810ebecdee837ad21ea069e434cd393a5ef3802af390845f", 120),
    (["verify", "--field", "finite:p=5", "--n", "3", "--a", "2",
      "--suite", "triviality", "--emit", "json"], 0,
     "fa7a433426bcda3b83d407c4b3fc089f212741dc7e7053a28c365900a3ab5a4e", 120),
    (["verify", "--suite", "picard", "--dprime", "4"], 0, None, 120),
    (["verify"], 0, None, 120),
    (["algebra"], 0, None, 120),
    (["algebra", "--field", "finite:p=5", "--emit", "json"], 0,
     "69628254f20bf079a51fe635db8b7747df09fbd0a4ff59fafb2630ee0885a2c9", 120),
    (["algebra", "--field",
      "poly:x^5 + x^4 - 4*x^3 - 3*x^2 + 3*x + 1;galois:x^2 - 2", "--n", "4",
      "--a", "2"], 0,
     "e1842a904487fcbb51e68679fcd1e56931fb30e232b28ae68979aa47df21e266", 10),
    (["picard", "--emit", "json"], 0,
     "b997bd5a59ee23b3ed5e371b858b2923679a4c81d07c84d6f88c2b6fec6648c9", 60),
    (["picard", "--field", "finite:p=7", "--a", "3", "--emit", "json"], 0,
     "8250f1efabd9feb9f1dc031eec4e4c99cd82dd4fedb7220ae5da7e3195bac683", 60),
    (["surface", "--field", "finite:p=5", "--n", "-1"], 2, None, 10),
    (["surface", "--field", "poly:x^99999999999;galois:x"], 2, None, 10),
    (["surface", "--field", "finite:p=5", "--a", "1e999999999"], 2, None, 10),
    (["surface", "--field", "finite:p=2", "--n", "8"], 2, None, 10),
    (["verify", "--field", "finite:p=2", "--n", "4", "--a", "1", "--suite",
      "split"], 2, None, 10),
    (["picard", "--field", "finite:p=7", "--a", "3", "--dprime", "100000"], 2,
     None, 10),
    (["algebra", "--field", "finite:p=2", "--n", "6", "--a", "1"], 0, None, 10),
]


def run_check(argv, code, digest, limit):
    """The failure of one row as a message, or None when it passes."""
    try:
        proc = subprocess.run([sys.executable, "-m", "severi", *argv],
                              capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return f"no exit within {limit} s"
    if proc.returncode != code:
        return (f"exit {proc.returncode}, expected {code}: "
                f"{proc.stderr.decode(errors='replace').strip()[-500:]}")
    got = hashlib.sha256(proc.stdout).hexdigest()
    if digest is not None and got != digest:
        return f"stdout sha256 {got}, expected {digest}"
    return None


def main() -> int:
    failed = 0
    for argv, code, digest, limit in CHECKS:
        t0 = time.perf_counter()
        error = run_check(argv, code, digest, limit)
        status = "FAIL" if error else "ok"
        print(f"{status:4} {time.perf_counter() - t0:5.1f}s  severi {' '.join(argv)}"
              + (f"\n     {error}" if error else ""), flush=True)
        failed += error is not None
    print(f"{len(CHECKS)} checks, {failed} failed on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
