"""Self-test of the benchmark.

    python3 -m unittest discover -s bench -p "test_*.py"     # from the repository root

It runs one round of passes over a tiny job list, and one traced pass. It
shows that a wrong expected answer, a corrupted report line or a wrong exit
code counts as a failed job. It checks that the inputs are a function of the
seed, that relabelling keeps the ``repr`` order of ids, that every search
stays under finstack's budget, and that the benchmark refuses to run without
the finstack sources.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import docs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402


def scratch() -> tempfile.TemporaryDirectory:
    run.WORK.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def tiny() -> list:
    return [make()[0] for make in jobs.WORKLOADS.values()]


def ids(doc) -> list:
    """The strings ``docs.relabel`` puts a prefix on."""
    found = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key not in docs.SCHEMA_KEYS:
                found.extend(key.split(","))
            if key != "kind":
                found.extend(ids(value))
    elif isinstance(doc, list):
        for x in doc:
            found.extend(ids(x))
    elif isinstance(doc, str):
        found.append(doc)
    return found


class SmokeTest(unittest.TestCase):
    def test_one_round_of_a_tiny_job_list(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        with scratch() as d:
            outcome = run.measure(tiny(), seconds=0, seed=3, workdir=Path(d), min_jobs=1)
        self.assertEqual(outcome["runner"].failures, [])
        self.assertEqual(outcome["detail"]["passes"], len(run.RELABELLINGS))
        self.assertEqual(outcome["runner"].attempted,
                         len(run.RELABELLINGS) * len(tiny()) + run.SETUP_LAUNCHES)
        for metric in spec["end_to_end"]:
            value, unit = outcome["metrics"][metric["name"]]
            self.assertGreater(value, 0)
            self.assertEqual(unit, metric["unit"])


    def test_traced_pass_reports_every_layer_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        with scratch() as d:
            outcome = run.measure_layers(tiny(), seconds=0, seed=3, workdir=Path(d))
        self.assertEqual(outcome["runner"].failures, [])
        self.assertEqual(sorted(outcome["metrics"]), sorted(m["name"] for m in spec["per_layer"]))
        self.assertGreater(outcome["metrics"]["jsonio.docs"][0], 0)


class FailureTest(unittest.TestCase):
    def setUp(self):
        self.tmp = scratch()
        self.workdir = Path(self.tmp.name)
        self.job = jobs.nerve_homology_jobs()[0]
        self.px = "abcd000_"
        self.paths = self.job.write_docs(self.px, self.workdir)

    def tearDown(self):
        self.tmp.cleanup()

    def run_job(self, job) -> list:
        runner = run.Runner(self.workdir)
        runner.run(job, self.px, self.paths)
        return runner.failures

    def test_correct_job_passes(self):
        self.assertEqual(self.run_job(self.job), [])

    def test_wrong_expected_answer_is_a_failed_job(self):
        wrong = dataclasses.replace(self.job, lines=("objects: 2",) + self.job.lines[1:])
        failures = self.run_job(wrong)
        self.assertEqual(len(failures), 1)
        self.assertIn("objects: 2", failures[0]["problem"])

    def test_wrong_exit_code_is_a_failed_job(self):
        failures = self.run_job(dataclasses.replace(self.job, code=1))
        self.assertEqual(len(failures), 1)

    def test_corrupted_report_line_is_caught(self):
        import contextlib
        import io

        import finstack.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = finstack.cli.main(self.job.render(self.px, self.paths))
        text = out.getvalue()
        self.assertEqual(self.job.check(self.px, self.paths, code, text), "")
        for i, line in enumerate(text.splitlines()):
            lines = text.splitlines()
            lines[i] = line[:-1] + ("X" if line[-1] != "X" else "Y")
            self.assertNotEqual(self.job.check(self.px, self.paths, code, "\n".join(lines) + "\n"), "")
        self.assertNotEqual(self.job.check(self.px, self.paths, code, text + "extra\n"), "")


class InputTest(unittest.TestCase):
    def test_prefixes_follow_the_seed(self):
        def prefixes(seed):
            return [run.pass_prefix(seed, i) for i in range(6)]
        self.assertEqual(prefixes(7), prefixes(7))
        self.assertNotEqual(prefixes(7), prefixes(8))
        self.assertEqual(sorted(prefixes(7)[:3]), sorted(prefixes(8)[:3]))
        self.assertEqual(len(set(prefixes(7))), 6)
        self.assertEqual({len(p) for p in prefixes(7) + prefixes(8)}, {8})

    def test_documents_follow_the_seed(self):
        px = run.pass_prefix(5, 0)
        for make in jobs.WORKLOADS.values():
            first, second = make(), make()
            self.assertEqual([j.name for j in first], [j.name for j in second])
            for a, b in zip(first, second):
                self.assertEqual(json.dumps(docs.relabel(a.docs, px)), json.dumps(docs.relabel(b.docs, px)))

    def test_relabelling_keeps_the_repr_order(self):
        rng = random.Random(11)
        px = run.pass_prefix(11, 42)
        for make in jobs.WORKLOADS.values():
            for job in make():
                raw = sorted(set(ids(job.docs)))
                self.assertFalse(set(raw) & docs.SCHEMA_KEYS, job.name)
                relabelled = sorted(set(ids(docs.relabel(job.docs, px))))
                self.assertEqual(sorted(px + x for x in raw), relabelled)
                self.assertEqual([px + x for x in sorted(raw, key=repr)], sorted(relabelled, key=repr))
                pairs = list(itertools.product(raw, repeat=2))
                pairs = rng.sample(pairs, min(len(pairs), 200))
                self.assertEqual([(px + a, px + b) for a, b in sorted(pairs, key=repr)],
                                 sorted(((px + a, px + b) for a, b in pairs), key=repr))

    def test_searches_stay_under_the_budget(self):
        for job in jobs.descent_jobs():
            target = docs.Groupoid(job.docs["g"])
            c1 = job.docs["c"]
            space = docs.search_space(target, c1, job.docs.get("c2", c1))
            self.assertLessEqual(space, 131072, job.name)

    def test_invariant_factors(self):
        self.assertEqual(jobs.invariant_factors([2, 3]), (6,))
        self.assertEqual(jobs.invariant_factors([2, 2]), (2, 2))
        self.assertEqual(jobs.invariant_factors([4, 2, 3]), (2, 12))
        self.assertEqual(jobs.invariant_factors([1]), ())


class RefusalTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        with scratch() as d:
            shutil.copytree(BENCH, Path(d) / "bench",
                            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", d)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "descent",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
