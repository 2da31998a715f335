"""Tests of the benchmark's own parts: generator, gate and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

severi = run.load_severi()

FP_ARGV = ("surface", "--field", "finite:p=53", "--a=5", "--check", "--emit", "json")


@pytest.fixture(scope="module")
def runner():
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield run.Runner(severi, tmp, digests=None)
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.fixture(scope="module")
def fp_emission(runner):
    _, data, error = runner.run(workloads.Job("surface", FP_ARGV))
    assert error is None
    return data


@pytest.fixture(scope="module")
def twist_emission(runner):
    _, data, error = runner.run(workloads.Job("fp-n3-twist", twist=(3, 2)))
    assert error is None
    return data


def test_rounds_repeat_per_seed():
    for w in workloads.GENERATORS:
        assert workloads.round_for(w, 7) == workloads.round_for(w, 7)
        assert workloads.round_for(w, 7) != workloads.round_for(w, 8)


def _suite(job) -> str:
    return job.argv[job.argv.index("--suite") + 1]


def test_rounds_have_a_fixed_make_up():
    for seed in range(20):
        q = workloads.round_for("q-surface", seed)
        assert len({j.argv[2] for j in q}) == len(q) == 5
        primes = [j.twist[0] for j in workloads.round_for("fp-n3-twist", seed)]
        assert sorted(primes) == sorted(workloads._N3_PRIMES)
        v = workloads.round_for("verify-suites", seed)
        assert sorted(_suite(j) for j in v) == sorted(gate.SUITES)
        pairs = {(j.argv[2], j.argv[3], _suite(j) in workloads._NORM_SUITES)
                 for j in v}
        assert len(pairs) == 2
        assert sum(int(t.split("=")[1]) for t, _, _ in pairs) == 9


def test_norm_suites_run_on_a_norm():
    for seed in range(5):
        for j in workloads.round_for("verify-suites", seed):
            if _suite(j) in workloads._NORM_SUITES:
                L = severi.fields.make_shanks_cubic(int(j.argv[2].split("=")[1]))
                a = L.base.coerce(Fraction(j.argv[3].split("=", 1)[1]))
                assert severi.fields.norm_witness(L, a).status == "witness"


def test_shanks_norm_matches_program():
    for t, lam in [(1, (1, 1, 0)), (3, (2, -1, 1)), (8, (0, -2, 2))]:
        L = severi.fields.make_shanks_cubic(t)
        x = L.el([severi.fields.QQ.coerce(v) for v in lam])
        assert workloads.shanks_norm(t, lam) == severi.fields.norm(L, x)


def test_expected_equation_counts():
    assert gate.expected_equations(2) == 27
    assert gate.expected_equations(3) == 465


def _judge(runner, job, data, digests=None):
    runner.digests = digests
    try:
        return runner.judge(job, 0, data)
    finally:
        runner.digests = None


def test_gate_accepts_and_rejects_altered_surface(runner, fp_emission):
    job = workloads.Job("surface", FP_ARGV)
    assert _judge(runner, job, fp_emission) is None
    obj = json.loads(fp_emission)

    dropped = dict(obj, equations_over_k=obj["equations_over_k"][:-1])
    assert "equations" in _judge(runner, job, json.dumps(dropped).encode())

    outside = json.loads(fp_emission)
    outside["equations_over_k"][0][0][1][1] = 1
    assert "base field" in _judge(runner, job, json.dumps(outside).encode())

    failed = json.loads(fp_emission)
    failed["report"]["checks"][0]["status"] = "fail"
    assert "failed checks" in _judge(runner, job, json.dumps(failed).encode())

    cubic = json.loads(fp_emission)
    cubic["equations_over_k"][0][0][0][0] += 1
    assert "degree-2" in _judge(runner, job, json.dumps(cubic).encode())


def test_gate_checks_verify_suites():
    report = {"checks": [{"name": "split:generic", "status": "pass"},
                         {"name": "algebra:assoc", "status": "pass"}]}
    assert gate.check_verify(report, ("split", "algebra")) is None
    assert "without checks" in gate.check_verify(report, ("split", "counts", "algebra"))
    assert "not asked for" in gate.check_verify(report, ("split",))
    report["checks"][1]["status"] = "fail"
    assert "failed checks" in gate.check_verify(report, ("split", "algebra"))


def test_gate_checks_digest_at_default_seed(runner, fp_emission):
    job = workloads.Job("surface", FP_ARGV)
    recorded = {"surface": {job.key: gate.digest(fp_emission)}}
    assert _judge(runner, job, fp_emission, recorded) is None
    obj = json.loads(fp_emission)
    coeff = obj["equations_over_k"][0][0][1]
    coeff[0] = (coeff[0] + 1) % 53 or 1
    altered = json.dumps(obj, indent=2).encode() + b"\n"
    assert "digest" in _judge(runner, job, altered, recorded)
    assert "no recorded digest" in _judge(runner, job, fp_emission, {})


def test_gate_rejects_altered_twist(runner, twist_emission):
    job = workloads.Job("fp-n3-twist", twist=(3, 2))
    assert _judge(runner, job, twist_emission) is None
    head, *lines = twist_emission.decode().splitlines()

    short = "\n".join([head] + lines[:-1]) + "\n"
    assert "465" in _judge(runner, job, short.encode())

    def bump(line):  # change the constant coordinate of every first term
        first, _, rest = line.partition(" ")
        mono, _, coords = first.partition(":")
        cs = coords.split(",")
        cs[0] = str((int(cs[0]) + 1) % 3)
        return f"{mono}:{','.join(cs)} {rest}".rstrip()

    altered = "\n".join([head] + [bump(x) for x in lines]) + "\n"
    assert "Q(M w)" in _judge(runner, job, altered.encode())


def test_gate_rejects_matrix_that_does_not_split(runner, monkeypatch):
    """theta * M twists the quadrics consistently but is no longer a split,
    since sigma(theta) != theta."""
    split = severi.cohomology.split_structured

    def scaled(xi, nb):
        return split(xi, nb).scale(xi.extension.theta())

    monkeypatch.setattr(severi.cohomology, "split_structured", scaled)
    _, data, error = runner.run(workloads.Job("fp-n3-twist", twist=(3, 2)))
    assert "does not split" in error


def test_gate_detects_singular_matrix():
    mul = gate._ext_mul([2, 0, 0, 1, 1], 3)  # any monic quartic will do here
    one, zero, x = [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]
    assert gate._invertible([[one, x], [zero, one]], mul, 3, 4)
    assert not gate._invertible([[one, x], [x, mul(x, x)]], mul, 3, 4)


def test_job_may_not_start_threads(runner):
    with run.no_threads_or_processes():
        import threading
        with pytest.raises(RuntimeError):
            threading.Thread(target=lambda: None).start()


def test_tracer_counts_and_restores(runner):
    original = severi.polyring.rref
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert severi.polyring.rref is not original
        tracer.job = 0
        elapsed, data, error = runner.run(workloads.Job("surface", FP_ARGV))
        tracer.job = -1
    finally:
        tracer.uninstall()
    assert error is None
    assert severi.polyring.rref is original
    m = tracing.layer_metrics(tracer, [elapsed], elapsed, [len(data)])
    assert set(m) >= {name + "_s" for name in tracing.SELF_TIME}
    assert m["linalg.rref_calls"][0] > 0
    assert m["twisting.equations"][0] == 27
    assert m["verify.points_per_s"][0] > 0
    assert 0.9 < m["trace.coverage"][0] <= 1.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([[1.0]], [], [0.2])
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layers = tracing.layer_metrics(tracing.Tracer(), [1.0], 1.0, [0])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)
