"""Run every benchmark job once through ``main()`` and pin its ``--json-out`` bytes.

Each job of each workload in ``bench/jobs.py`` runs in this process under the
one id prefix ``PREFIX``, with ``--json-out``.  ``tests/test_bench_reports.py``
checks every report and compares the sha256 of each ``--json-out`` file with
the digest pinned in ``bench_report_pins.json``.  After a deliberate change
of a report, rewrite the pins with

    PYTHONPATH=src python tests/pin_bench_reports.py

and name each digest that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

from support import load_jobs

PREFIX = "pin0_"
PINS = Path(__file__).resolve().parent / "bench_report_pins.json"


class JobRun(NamedTuple):
    job: object       # the bench Job
    paths: dict       # doc name -> path of its written document
    code: object      # main()'s exit code, or the exception it raised
    out: str
    err: str
    json_out: bytes   # the --json-out file, empty when none was written


def run_jobs(workload: str, directory: Path) -> dict:
    """``workload/job name`` -> its JobRun, in job order."""
    from finstack.cli import main
    runs = {}
    for job in load_jobs().WORKLOADS[workload]():
        paths = job.write_docs(PREFIX, directory)
        json_path = directory / f"{job.name}.report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*job.render(PREFIX, paths), "--json-out", str(json_path)])
            except Exception as exc:  # a traceback out of main() is a failed job
                code = exc
        json_out = json_path.read_bytes() if json_path.exists() else b""
        runs[f"{workload}/{job.name}"] = JobRun(job, paths, code, out.getvalue(),
                                                err.getvalue(), json_out)
    return runs


def digest(run: JobRun) -> str:
    return hashlib.sha256(run.json_out).hexdigest()


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory() as directory:
        for workload in load_jobs().WORKLOADS:
            pins.update((key, digest(run)) for key, run in
                        run_jobs(workload, Path(directory)).items())
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} reports in {PINS.name}")


if __name__ == "__main__":
    main()
