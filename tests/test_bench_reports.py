"""Every benchmark job's whole report, checked through ``main()``.

Each job of ``bench/jobs.py`` runs once in process, under one id prefix and
with ``--json-out`` (``pin_bench_reports.run_jobs``).  Per job:

- ``Job.check`` passes: the exit code, the digest line and every report line
  against the closed forms the job was built from;
- nothing is written to stderr;
- the ``--json-out`` document holds the same lines and verdicts as stdout;
- the sha256 of the ``--json-out`` bytes is the one pinned in
  ``bench_report_pins.json``, so any change of a report's bytes shows.
"""

from __future__ import annotations

import json

import pytest

from pin_bench_reports import PINS, PREFIX, digest, run_jobs
from support import load_jobs

WORKLOADS = list(load_jobs().WORKLOADS)


def text_of(json_out: bytes) -> str:
    """The stdout report that a ``--json-out`` document stands for."""
    doc = json.loads(json_out)
    lines = [f"command: {doc['command']}", f"inputs: sha256:{doc['inputs_digest']}",
             *doc["outputs"]]
    for verdict in doc["verdicts"]:
        mark = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[verdict["passed"]]
        witness = verdict["witness"] if verdict["witness"] and not verdict["passed"] else ""
        lines.append(f"[{mark}] {verdict['name']}" + (f": {witness}" if witness else ""))
    return "\n".join(lines) + "\n"


def problem(run, pin) -> str:
    """Empty when the job's report is whole and unchanged, else the first fault."""
    if not isinstance(run.code, int):
        return f"main() raised {run.code!r}"
    found = run.job.check(PREFIX, run.paths, run.code, run.out)
    if found:
        return found
    if run.err:
        return f"stderr {run.err!r}"
    if not run.json_out:
        return "no --json-out file"
    if text_of(run.json_out) != run.out:
        return "--json-out differs from stdout"
    if digest(run) != pin:
        return f"--json-out sha256 {digest(run)}, pinned {pin}"
    return ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_report_is_whole_and_pinned(workload, tmp_path):
    pins = json.loads(PINS.read_text())
    runs = run_jobs(workload, tmp_path)
    assert sorted(runs) == sorted(k for k in pins if k.startswith(f"{workload}/"))
    faults = {key: found for key, run in runs.items() if (found := problem(run, pins[key]))}
    assert not faults, f"{len(faults)} of {len(runs)} jobs: {dict(list(faults.items())[:3])}"
