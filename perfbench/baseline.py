"""Record the benchmark baseline of the current commit: ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --seeds 1,2,3 [--seconds 30]

Run from the repository root.  For every workload and seed it runs
``run.py`` untraced and traced, then writes per workload: the medians and
per-seed values of the end-to-end metrics and of ``cpu_s``, the traced
per-layer table (every
metric of ``run.PER_LAYER``, including function self times that only some
workloads exercise), the tracing overhead and unattributed remainder, the
layer split the workload was chosen for, and the provenance of the runs.
It prints the one-screen table of the top layers per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SAMPLING = (
    "rng.self_s", "fields.draw_source_rows.self_s", "fields.evaluate_values.self_s",
    "fields.compute_means.self_s", "statistics.self_s", "harness.self_s",
)
LOCAL_EXACT = ("moments.self_s", "fields.build.self_s", "neighborhood.self_s", "bounds.self_s")
ENUMERATION = ("oracle.self_s", "fields.outcome_blocks.self_s")


def record(root: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    print(proc.stderr, end="", file=sys.stderr)
    path = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def split(layer: dict, traced_wall: float) -> dict:
    def share(keys):
        return sum(layer[k] for k in keys) / traced_wall

    return {
        "traced_wall_s": traced_wall,
        "sampling_share": share(SAMPLING),
        "local_exact_share": share(LOCAL_EXACT),
        "enumeration_share": share(ENUMERATION),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    root = Path.cwd()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    tables = []
    for workload in workloads.WORKLOADS:
        plain = [record(root, workload, s, 0, args.seconds) for s in seeds]
        traced = [record(root, workload, s, 1, args.seconds) for s in seeds]
        e2e = {
            m: {
                "median": statistics.median(r["end_to_end"][m] for r in plain),
                "per_seed": [r["end_to_end"][m] for r in plain],
            }
            for m in run.END_TO_END
        }
        cpu = [r["cpu_s"] for r in plain]
        layer = {
            m: statistics.median(r["per_layer"][m] for r in traced) for m, _ in run.PER_LAYER
        }
        traced_wall = statistics.median(
            statistics.fmean(p["wall_s"] for p in r["passes"] if p["traced"]) for r in traced
        )
        spans = traced[-1]["trace_spans"]
        out["workloads"][workload] = {
            "why": workloads.WORKLOADS[workload].why,
            "end_to_end": e2e,
            "cpu_s": {"median": statistics.median(cpu), "per_seed": cpu},
            "fail_frac": sum(r["failed"] for r in plain) / sum(r["attempted"] for r in plain),
            "mc_reps_per_s": statistics.median(r["mc_reps_per_s"] for r in plain),
            "per_layer": layer,
            "trace_overhead_s": layer["trace_overhead_s"],
            "unattributed_s": layer["unattributed_s"],
            "split": split(layer, traced_wall),
            "substream_calls_per_instance": (
                layer["rng.substream.calls"] / traced[-1]["trace_counts"]["oracle.instances"]
                if traced[-1]["trace_counts"].get("oracle.instances") else None
            ),
            "top_spans": dict(sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:20]),
            "provenance": [r["provenance"] for r in plain + traced],
        }
        tables.append(run.layer_table(workload, layer, traced_wall, e2e["wall_s"]["median"], spans))
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(tables))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
