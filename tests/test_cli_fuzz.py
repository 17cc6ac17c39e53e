"""Exit-code fuzz of ``main()`` on mutated valid documents.

The documents come from the benchmark's job generators (``bench/jobs.py``),
the smallest job of every subcommand, and of each Kan instance kind.  A
mutation deletes one key or list entry, or replaces one value by a number,
a string, a list, an object or null.  Whatever the input, ``main()`` must
return 0, 1, 2 or 3 and raise nothing.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstack.cli import main
from support import load_jobs


def smallest_jobs() -> dict:
    """Subcommand (with the torsor mode, and the Kan instance kind) -> its
    job with the fewest document bytes."""
    jobs = load_jobs()
    chosen: dict = {}
    for generate in jobs.WORKLOADS.values():
        for job in generate():
            command = job.argv[0]
            if command == "torsor":
                command += " " + job.argv[1]
            elif command == "kan":
                command += " " + re.match("kan-([a-z]+)", job.name).group(1)
            size = len(json.dumps(job.docs))
            if command not in chosen or size < chosen[command][0]:
                chosen[command] = (size, job)
    return {command: job for command, (_, job) in sorted(chosen.items())}


JOBS = smallest_jobs()


def strings(doc) -> list:
    if isinstance(doc, dict):
        return [s for k, v in doc.items() for s in [k, *strings(v)]]
    if isinstance(doc, list):
        return [s for x in doc for s in strings(x)]
    return [doc] if isinstance(doc, str) else []


@st.composite
def mutated(draw, docs: dict) -> dict:
    """A copy of ``docs`` with one document changed at one place, the place
    found by a random walk down from the document's root."""
    docs = copy.deepcopy(docs)
    name = draw(st.sampled_from(sorted(docs)))
    ids = sorted(set(strings(docs[name]))) or ["x"]
    values = st.one_of(
        st.integers(-1, 5), st.sampled_from(ids), st.text(max_size=2), st.none(),
        st.lists(st.sampled_from(ids), max_size=3),
        st.dictionaries(st.sampled_from(ids), st.sampled_from(ids), max_size=2))
    holder, key = docs, name
    while isinstance(holder[key], (dict, list)) and holder[key] and draw(st.integers(0, 3)):
        node = holder[key]
        holder, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                 else range(len(node))))
    if holder is not docs and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(values)
    return docs


@pytest.mark.parametrize("command", JOBS)
def test_mutated_documents_keep_the_exit_code_contract(command):
    job = JOBS[command]

    @settings(max_examples=25, deadline=None)
    @given(mutated(job.docs))
    def run(docs):
        with tempfile.TemporaryDirectory() as directory:
            paths = {}
            for doc_name, doc in docs.items():
                path = Path(directory) / f"{doc_name}.json"
                path.write_text(json.dumps(doc))
                paths[doc_name] = str(path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(job.render("", paths)) in {0, 1, 2, 3}

    run()
