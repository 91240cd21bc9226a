"""Artifacts pinned by digest.

Core claim: ``locdep run --threads 1`` writes the same bytes, file for
file, as when ``tests/data/artifact_digests.json`` was pinned, for the
benchmark's ten specs at seed 301 (Monte-Carlo, local exact and full
enumeration routes), and for five more specs at seed 301 that reach
routes those ten do not: the pattern field, the ``w2bar`` and ``sum``
statistics, the ``graph`` bound, a star graph, declared neighborhoods,
and a source with nonzero means.  The
spec documents are copies held in the table, so the test does not read
the benchmark's files.  ``manifest.json`` is
hashed without its ``created_unix`` field; every other artifact is
hashed as written.  A deliberate change of sampled values or of an
artifact's format re-pins the table and says so in CHANGES.md.

The bytes do not depend on numpy's BLAS threads: a second test reruns the
table in a process with one OpenBLAS thread, as every benchmark worker
has, since a BLAS dot product splits a long vector over its threads and
adds the parts in another order.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import locdep.cli as cli

TABLE = Path(__file__).parent / "data" / "artifact_digests.json"


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in ``out_dir``; the manifest without its
    creation time."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["created_unix"]
            data = (json.dumps(manifest, indent=2) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def run_spec(doc: dict, work: Path) -> tuple[int, dict[str, str]]:
    """Exit code and artifact digests of one in-process ``locdep run``."""
    spec, out = work / "spec.json", work / "out"
    spec.write_text(json.dumps(doc))
    code = cli.main(["run", "--spec", str(spec), "--threads", "1", "--out", str(out)])
    return code, artifact_digests(out)


def test_artifacts_match_pinned_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    assert len(table["specs"]) == 15
    mismatches = []
    for entry in table["specs"]:
        work = tmp_path / entry["name"].replace("/", "-")
        work.mkdir()
        code, digests = run_spec(entry["spec"], work)
        if code != entry["exit"]:
            mismatches.append(f"{entry['name']}: exit {code}, pinned {entry['exit']}")
        for name in sorted(set(digests) | set(entry["digests"])):
            if digests.get(name) != entry["digests"].get(name):
                mismatches.append(
                    f"{entry['name']}/{name}: sha256 {digests.get(name)}, "
                    f"pinned {entry['digests'].get(name)}"
                )
    assert not mismatches, "artifacts differ from the pinned table:\n" + "\n".join(mismatches)


def test_artifacts_match_pinned_digests_with_one_blas_thread(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    code = ("import pathlib, sys, test_artifact_digests as t; "
            "t.test_artifacts_match_pinned_digests(pathlib.Path(sys.argv[1]))")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-4000:]
