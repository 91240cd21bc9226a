"""Record ``reference.json``: the program's outputs at a known-good commit.

    python3 perfbench/record_reference.py

Run from the repository root.  Runs one pass of every workload with
``REFERENCE_SEED`` and keeps, per spec and grid point, the moment route,
moment rows, variance, bound values and Kolmogorov distance, and the
verdict columns of checker suites, which must all pass.  For
Monte-Carlo grid points whose field is small enough to enumerate, it also
stores the exact Kolmogorov distance of the statistic's law, computed by
the program's enumeration oracle.  Re-record only when an output is meant
to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0
ENUMERABLE_OUTCOMES = 2**20


def exact_ks(doc: dict, n: int) -> float | None:
    from locdep import cli, oracle

    built = cli.build_family(doc["family"], doc["params"], n)
    count = built.field.outcome_count()
    if count is None or count > ENUMERABLE_OUTCOMES:
        return None
    return oracle.exact_kolmogorov(built.field, doc["statistic"])


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    try:
        for workload in workloads.WORKLOADS:
            specs = workloads.specs(workload, REFERENCE_SEED)
            (tmp / "specs").mkdir(exist_ok=True)
            for name, doc in specs:
                (tmp / "specs" / f"{name}.json").write_text(json.dumps(doc))
            pass_dir = tmp / workload
            worker = run.run_worker(root, tmp, [n for n, _ in specs], pass_dir, False,
                                    time.monotonic() + run.DEADLINE_S)
            refs = {}
            for (name, doc), result in zip(specs, worker["runs"]):
                if result["rc"] != 0 or result["traceback"]:
                    raise SystemExit(f"{workload}/{name} failed: {result}")
                got = checks.read_outputs(pass_dir / name)
                for n, point in got["per_n"].items():
                    point["moments"] = checks.compress_rows(point["moments"])
                    if doc["mode"]["kind"] == "mc":
                        ks = exact_ks(doc, int(n))
                        if ks is not None:
                            point["exact_ks"] = ks
                ref = {"per_n": got["per_n"]}
                if doc.get("checkers"):
                    ref["verdicts"] = [
                        [v["check"], v["precondition"], v["verdict"]] for v in got["verdicts"]
                    ]
                    if any(v != "pass" and p != "violated" for _, p, v in ref["verdicts"]):
                        raise SystemExit(f"{workload}/{name}: a checker verdict fails")
                refs[name] = ref
                print(f"{workload}/{name}: {len(got['per_n'])} grid points", file=sys.stderr)
            out["workloads"][workload] = refs
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
