"""Record the sha256 of every default-seed emission in digests.json.

    python3 perfbench/record_digests.py

Runs each workload's default-seed round once, gating shapes and check
lines as usual.  Run it only at a commit whose emissions are the reference:
afterwards the benchmark requires byte-identical emissions at that seed.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import gate
import run
import workloads


def main() -> None:
    severi = run.load_severi()
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="digests-", dir=run.OUT))
    recorded: dict[str, dict[str, str]] = {}
    try:
        runner = run.Runner(severi, tmp, digests=None)
        for workload in sorted(workloads.GENERATORS):
            for job in workloads.round_for(workload, gate.DEFAULT_SEED):
                _, data, error = runner.run(job)
                if error is not None:
                    raise SystemExit(f"{job.key}: {error}")
                recorded.setdefault(workload, {})[job.key] = gate.digest(data)
                print(f"{workload}: {job.key}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    gate.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")


if __name__ == "__main__":
    main()
