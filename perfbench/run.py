"""Benchmark of the severi pipeline, end to end and per module.

    python3 perfbench/run.py --workload q-surface --seed 3 --seconds 10 --trace 0

Runs one workload as a closed loop from the root of a source checkout: one
process, one thread, each job starting after the previous one ends.  A job
is one in-process call of `severi.cli.main(argv)` (or, for `fp-n3-twist`,
one library pipeline) writing its emission to a temporary file.  The run
finishes the seed's round of jobs, then repeats it while the next job is
expected to end within `--seconds`, and gates every emission (see gate.py).

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of one traced round, measured
after the round's first job has run once untraced (the reference for
`trace.overhead`).  Run records and spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh-interpreter samples for setup_s: some before the first job and some
# after the last, so that they span the run rather than one moment of it.
SETUP_FIRST = 3
SETUP_LAST = 2


def load_severi():
    """Import the checkout's own `severi` (never an installed copy), with
    numpy's thread pools limited to one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SEVERI_SEED", None)  # jobs see only their argv
    pkg = SRC / "severi"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no severi sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import severi
    import severi.cli  # noqa: F401  (the CLI module is not imported by the package)
    if Path(severi.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported severi from {severi.__file__}")
    return severi


def setup_samples(count: int) -> list[float]:
    """Seconds for each of `count` fresh interpreters to start and import
    severi and its CLI."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import severi, severi.cli")
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


@contextlib.contextmanager
def no_threads_or_processes():
    """Make any attempt by a job to start a thread or a process fail it."""
    def refuse(*args, **kwargs):
        raise RuntimeError("benchmark jobs may not start threads or processes")

    saved = [(threading.Thread, "start"), (subprocess.Popen, "__init__"),
             (os, "fork")]
    originals = [getattr(obj, name) for obj, name in saved]
    for obj, name in saved:
        setattr(obj, name, refuse)
    try:
        yield
    finally:
        for (obj, name), orig in zip(saved, originals):
            setattr(obj, name, orig)


def _twist_job(severi, p: int, a: int, out: Path):
    """The finishing part of `severi surface --n 3`: split the lifted
    cocycle and twist all 465 Veronese quadrics.  Names are looked up on
    their modules at call time so that traced wrappers apply."""
    fields, cohomology = severi.fields, severi.cohomology
    L = fields.frobenius_extension(p, 4)
    lift = cohomology.lift_to_veronese(cohomology.cyclic_cocycle(L, a))
    nb = fields.find_normal_basis(L, seed=L.theta())
    M = cohomology.split_structured(lift, nb)
    basis = severi.veronese.monomial_basis(3, 4)
    quads = severi.veronese.veronese_ideal(basis, L)
    twisted = [severi.polyring.substitute_linear(Q, M) for Q in quads]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"p": p, "a": a,
                             "field": fields.extension_to_json(L),
                             "splitting_matrix":
                                 severi.linalg.matrix_to_json(M)}) + "\n")
        for F in twisted:
            fh.write(gate.format_quadric(F) + "\n")


class Runner:
    """Runs jobs one after another and gates their emissions."""

    def __init__(self, severi, tmp: Path, digests: dict | None):
        self.severi = severi
        self.tmp = tmp
        self.digests = digests  # checked when given, i.e. at the default seed
        self._references: dict[tuple[int, int], dict] = {}

    def run(self, job: workloads.Job):
        """Run one job; return (seconds, emission bytes, failure or None)."""
        out = self.tmp / "emission"
        if out.exists():
            out.unlink()
        gc.collect()  # every job starts without the previous one's garbage
        error = None
        rc = 0
        with open(self.tmp / "console", "w", encoding="utf-8") as sink:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink), \
                        no_threads_or_processes():
                    if job.twist is not None:
                        _twist_job(self.severi, *job.twist, out)
                    else:
                        rc = self.severi.cli.main(list(job.argv)
                                                  + ["--output", str(out)])
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a failed job is counted, not fatal
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - t0
        data = out.read_bytes() if out.exists() else b""
        if error is None:
            try:
                error = self.judge(job, rc, data)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                error = f"malformed emission: {type(e).__name__}: {e}"
        return elapsed, data, error

    def judge(self, job, rc, data: bytes) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if not data:
            return "no emission"
        if job.twist is not None:
            p, a = job.twist
            err = gate.check_twist(data, p, a, self._reference(p, a))
        else:
            obj = json.loads(data)
            if job.argv[0] == "verify":
                err = gate.check_verify(obj, _suites(job.argv))
            else:
                err = gate.check_surface(obj, _field_prime(job.argv))
        if err is None and self.digests is not None:
            err = gate.check_digest(job.workload, job.key, data, self.digests)
        return err

    def _reference(self, p: int, a: int) -> dict:
        """What a twist emission for (p, a) is gated against, rebuilt from
        (p, a) by the program's own untwisted steps."""
        if (p, a) not in self._references:
            sv = self.severi
            L = sv.fields.frobenius_extension(p, 4)
            quads = sv.veronese.veronese_ideal(sv.veronese.monomial_basis(3, 4), L)
            xi = sv.cohomology.lift_to_veronese(sv.cohomology.cyclic_cocycle(L, a))
            self._references[(p, a)] = {
                "field": sv.fields.extension_to_json(L),
                "quadrics": [gate.format_quadric(Q) for Q in quads],
                "xi": sv.linalg.matrix_to_json(xi.at_generator)["entries"]}
        return self._references[(p, a)]


def _suites(argv) -> tuple[str, ...]:
    """The suites a `verify` argv asks for; all of them when none is named."""
    named = tuple(argv[i + 1] for i, v in enumerate(argv) if v == "--suite")
    return named or gate.SUITES


def _field_prime(argv) -> int | None:
    spec = argv[list(argv).index("--field") + 1]
    return int(spec.split("=", 1)[1]) if spec.startswith("finite:") else None


def run_plain(runner: Runner, jobs, seconds: float):
    """Closed loop over the round: the whole round once, then further jobs
    while the next one, at its median time so far, ends within `seconds`
    of the start.  Set-up samples are taken before and after the jobs."""
    times: list[list[float]] = [[] for _ in jobs]
    failures = []
    setup = setup_samples(SETUP_FIRST)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(jobs)
        if i >= len(jobs) and \
                time.perf_counter() + statistics.median(times[k]) > deadline:
            break
        elapsed, _, error = runner.run(jobs[k])
        times[k].append(elapsed)
        if error is not None:
            failures.append((k, error))
        i += 1
    setup += setup_samples(SETUP_LAST)
    return times, failures, setup


def end_to_end(times, failures, setup: list[float]) -> dict:
    """Job times are taken per input of the round, as the median over that
    input's repeats, so that a faster program, which repeats more of the
    round, is still measured on the same inputs."""
    attempted = sum(len(ts) for ts in times)
    per_input = [statistics.median(ts) for ts in times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s_p50": (statistics.median(per_input), "s"),
        "wall_s": (sum(per_input), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }


def run_traced(runner: Runner, jobs):
    """The round's first job untraced, then the whole round traced.  Only
    one job runs untraced so that the longest round still fits one run."""
    untraced, _, error = runner.run(jobs[0])
    failures = [] if error is None else [(0, error)]
    tracer = tracing.Tracer()
    tracer.install()
    wall, emit_bytes = [], []
    try:
        for k, job in enumerate(jobs):
            tracer.job = k
            elapsed, data, error = runner.run(job)
            tracer.job = -1  # gate work is not part of the job
            wall.append(elapsed)
            emit_bytes.append(len(data))
            if error is not None:
                failures.append((k, error))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, wall, untraced, emit_bytes)
    return metrics, failures, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    jobs = workloads.round_for(args.workload, args.seed)
    severi = load_severi()
    for k, job in enumerate(jobs):
        print(f"job {k}: {job.key}")

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="jobs-", dir=OUT))
    try:
        digests = gate.load_digests() if args.seed == gate.DEFAULT_SEED else None
        runner = Runner(severi, tmp, digests)
        tracer = None
        if args.trace:
            metrics, failures, tracer = run_traced(runner, jobs)
            attempted = 1 + len(jobs)
        else:
            times, failures, setup = run_plain(runner, jobs, args.seconds)
            metrics = end_to_end(times, failures, setup)
            attempted = sum(len(ts) for ts in times)
            print(f"job_s_p50 over {attempted} jobs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for k, error in failures:
        print(f"FAIL job {k}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": [list(j.argv) if j.twist is None else list(j.twist)
                       for j in jobs],
              "failures": failures,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    if not args.trace:
        record["job_seconds"] = times
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.jsonl", {"jobs": record["jobs"]})
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
