"""Per-layer tracing from outside the program.

`Tracer.install` replaces each public function named in `TARGETS` by a
pass-through wrapper at every module attribute of the `severi` package that
holds it (for example `severi.polyring.rref` and `severi.cli.surface_model`),
so callers that imported the name directly are traced too.  Each call records
a span (job, id, parent, name, start, end) in memory; spans nest by call
stack, and a layer's self time is its span duration minus its children's.
Nothing called per field element is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable

# (module, function) pairs, named "<module>.<function>" in the metrics.
TARGETS = (
    ("twisting", "descend_to_base"),
    ("twisting", "surface_model"),
    ("twisting", "appendix_model"),
    ("twisting", "verify_theorem1_equations"),
    ("twisting", "model_to_json"),
    ("linalg", "rref"),
    ("linalg", "inverse"),
    ("polyring", "substitute_linear"),
    ("polyring", "substitute"),
    ("polyring", "span_reduce"),
    ("cohomology", "lift_to_veronese"),
    ("cohomology", "split_structured"),
    ("cohomology", "split_generic"),
    ("cohomology", "lift_split_from_witness"),
    ("verify", "count_points"),
    ("verify", "smoothness_spot"),
    ("verify", "run_all"),
    ("fields", "find_normal_basis"),
    ("fields", "norm_witness"),
    ("veronese", "veronese_ideal"),
    ("algebra", "build_algebra"),
    ("algebra", "is_associative"),
    ("grammar", "parse_field_spec"),
)

SELF_TIME = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
COUNTED_CALLS = ("linalg.rref", "linalg.inverse", "polyring.substitute_linear",
                 "polyring.span_reduce")


def _coeff_bits(polys) -> int:
    bits = 0
    for F in polys:
        for _, c in F.terms:
            for x in c.coeffs:
                if isinstance(x, Fraction):
                    bits = max(bits, x.numerator.bit_length(),
                               x.denominator.bit_length())
                else:
                    bits = max(bits, int(x).bit_length())
    return bits


def _count_rref(tr: "Tracer", args, result) -> None:
    A = args[0]
    tr.count("linalg.rref_cells", A.rows * A.cols)


def _count_descent(tr: "Tracer", args, result) -> None:
    tr.count("twisting.equations", len(result))
    tr.maximum("twisting.coeff_bits_max", _coeff_bits(result))


def _count_witness(tr: "Tracer", args, result) -> None:
    tr.count("fields.norm_witness_tried", result.tried)
    tr.count("fields.norm_witness_found", result.status == "witness")


def _count_quadrics(tr: "Tracer", args, result) -> None:
    tr.count("veronese.quadrics", len(result))


def _count_points(tr: "Tracer", args, result) -> None:
    tr.count("verify.points", result)


# Counters taken from a call's arguments or result, after its span ends.
HOOKS: dict[str, Callable] = {
    "linalg.rref": _count_rref,
    "twisting.descend_to_base": _count_descent,
    "fields.norm_witness": _count_witness,
    "veronese.veronese_ideal": _count_quadrics,
    "verify.count_points": _count_points,
}


class Tracer:
    """Span recorder for one benchmark process; spans stay in memory until
    `dump` writes them out at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (job, id, parent, name, start, end)
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.job = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "severi"
                                         or name.startswith("severi."))]
        for mod_name, fn_name in TARGETS:
            try:
                home = importlib.import_module(f"severi.{mod_name}")
            except ImportError:
                continue
            orig = getattr(home, fn_name, None)
            if orig is None:
                continue  # a name the program no longer has reports 0 calls
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        stack, spans, ids = self._stack, self.spans, self._ids
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((tracer.job, sid, parent, name, t0, t1))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters -------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        self.counts[self.job][key] += value

    def maximum(self, key: str, value: float) -> None:
        cur = self.counts[self.job]
        cur[key] = max(cur.get(key, 0), value)

    # -- aggregation ----------------------------------------------------

    def job_summary(self, job: int) -> dict:
        """Self time and calls per layer, inclusive time per layer and the
        time covered by root spans, for one job."""
        spans = [s for s in self.spans if s[0] == job]
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for _, sid, parent, name, t0, t1 in spans:
            self_s[name] += (t1 - t0) - child[sid]
            calls[name] += 1
            incl_s[name] += t1 - t0
            if parent is None:
                covered += t1 - t0
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls,
                "covered_s": covered, "counts": self.counts.get(job, {})}

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for job, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def layer_metrics(tracer: Tracer, job_wall: list[float], untraced_first: float,
                  emit_bytes: list[int]) -> dict:
    """Per-layer metrics of one traced round of jobs 0, 1, ...: times and
    counts per job (mean over the round's jobs), coverage over the whole
    round, and overhead as job 0 traced over `untraced_first`, the same job
    untraced."""
    njobs = len(job_wall)
    sums: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    bits = 0
    covered = 0.0
    for job in range(njobs):
        s = tracer.job_summary(job)
        for name, v in s["self_s"].items():
            sums[name] += v
        for name, v in s["incl_s"].items():
            incl[name] += v
        for name, v in s["calls"].items():
            counts[name + "_calls"] += v
        for name, v in s["counts"].items():
            if name == "twisting.coeff_bits_max":
                bits = max(bits, v)
            else:
                counts[name] += v
        covered += s["covered_s"]
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME:
        out[name + "_s"] = (sums[name] / njobs, "s")
    for name in COUNTED_CALLS:
        out[name + "_calls"] = (counts[name + "_calls"] / njobs, "count")
    for name in ("linalg.rref_cells", "twisting.equations",
                 "fields.norm_witness_tried", "fields.norm_witness_found",
                 "veronese.quadrics"):
        out[name] = (counts[name] / njobs, "count")
    out["twisting.coeff_bits_max"] = (bits, "bits")
    count_s = incl["verify.count_points"]
    out["verify.points_per_s"] = (
        counts["verify.points"] / count_s if count_s else 0.0, "1/s")
    out["cli.emit_bytes"] = (sum(emit_bytes) / njobs, "bytes")
    out["trace.coverage"] = (covered / sum(job_wall), "ratio")
    out["trace.overhead"] = (job_wall[0] / untraced_first - 1.0, "ratio")
    return out
