"""locdep benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload mc_stream --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads are in ``workloads.py``.  A
run first times ``SETUP_PROBES`` processes that only import ``locdep`` and
parse the specs, then runs ``round(seconds / pass_s)`` passes of the workload (``pass_s``
is its nominal pass length; at least one pass), each in a fresh
``perfbench/worker.py`` process.  Every spec's artifacts are checked against
``reference.json`` (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (all specs
through ``locdep run``; the mean over passes), ``setup_s`` (process start
to specs parsed; the median over probes and passes) and ``peak_rss_mb``
(the median over passes).  The run record also holds ``cpu_s``, the CPU
time of the ``wall_s`` span.
``--trace 1`` runs an even number of passes, traced and untraced in turn,
and reports the per-layer metrics from the traced ones, with the tracing
overhead and the unattributed remainder, and prints a table of the top
layers to stderr.

The last line of stdout is the JSON result.  The full record, with
per-spec times and a provenance block, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``; spans of traced
passes go next to it.  Scratch files live in ``.perfbench_tmp/`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
# Worker environment.  The baseline is single-threaded throughout: locdep
# runs with --threads 1 and numpy's BLAS gets one thread too.  No bytecode
# is written, so every set-up compiles locdep from source the same way.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
# A run gives up (and stops its worker) once this much time has passed.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run, as (metric, unit).  One rule splits
# them: REPORTED go into the result line and are non-zero on every
# workload; RECORD_ONLY read 0 on some workload (a function it never calls,
# a counter it never moves).  Those stay in the run record, the printed
# table and the baseline.
REPORTED = [
    *[(f"{layer}.self_s", "s") for layer in (
        "rng", "fields", "statistics", "harness", "moments",
        "neighborhood", "bounds", "oracle", "cli",
    )],
    ("rng.substream.self_s", "s"),
    ("rng.substream.calls", "count"),
    ("fields.evaluate_values.self_s", "s"),
    ("fields.evaluate_values.cells", "count"),
    ("fields.compute_means.self_s", "s"),
    ("fields.build.self_s", "s"),
    ("fields.induced_neighborhoods.self_s", "s"),
    ("harness.accepted_ratio", "ratio"),
    ("moments.exact_moment_table.self_s", "s"),
    ("moments.local_enums_per_index", "ratio"),
    ("neighborhood.derive.self_s", "s"),
    ("neighborhood.make_system.self_s", "s"),
    ("bounds.evaluate.self_s", "s"),
    ("oracle.merge_atoms.merge_ratio", "ratio"),
    ("oracle.instance_accept_ratio", "ratio"),
    ("cli.parse_spec.self_s", "s"),
    ("cli.run_experiment.self_s", "s"),
    ("cli.write_artifacts.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
]
RECORD_ONLY = [
    ("fields.draw_source_rows.rows", "count"),
    ("fields.compute_means.prepass_draws", "count"),
    ("fields.outcome_blocks.outcomes", "count"),
    ("oracle.merge_atoms.atoms_in", "count"),
    ("oracle.instance_retries", "count"),
    *[(f"{name}.self_s", "s") for name in (
        "fields.draw_source_rows", "fields.induced_adjacency", "fields.outcome_blocks",
        "statistics.w1_batch", "statistics.w2_batch", "statistics.w2bar_batch",
        "harness.mc_run", "harness.ks_against_normal",
        "moments.mc_moment_table", "moments.hoeffding_sigma1",
        "bounds.bound_general_beta", "bounds.delta_components",
        "oracle.enumerate_field", "oracle.precompute",
        *[f"oracle.check.{c}" for c in (
            "lemma_xiyi", "lemma_s2", "lemma_s4", "lemma_r4", "prop1", "prop2",
        )],
        "oracle.validate_test_function", "oracle.merge_atoms",
        "oracle.exact_kolmogorov", "oracle.check_ld_independence",
    )],
]
PER_LAYER = REPORTED + RECORD_ONLY


def _ratio(num: float, den: float) -> float:
    """num / den, and 1.0 when nothing was attempted (nothing was wasted)."""
    return num / den if den else 1.0


def paired_overhead(passes: list[dict]) -> float:
    """Median over adjacent (traced, untraced) pass pairs of the wall-time
    difference.  Pairing keeps each difference within one stretch of host
    speed; an overhead below the pass-to-pass noise can still read < 0."""
    return statistics.median(
        t["worker"]["wall_s"] - u["worker"]["wall_s"]
        for t, u in zip(passes[0::2], passes[1::2])
    )


def layer_metrics(trace: dict) -> dict[str, float]:
    """The PER_LAYER values of one traced pass (without the overhead)."""
    spans, counts = trace["spans"], trace["counts"]

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    out = {f"{layer}.self_s": s for layer, s in trace["layers"].items()}
    for metric, _ in PER_LAYER:
        if metric in out or not metric.endswith(".self_s"):
            continue
        base = metric[: -len(".self_s")]
        if base == "fields.build":
            out[metric] = self_s(*[n for n in spans if n.startswith("fields.build")])
        elif base == "bounds.delta_components":
            out[metric] = self_s("bounds.delta_components_prop1", "bounds.delta_components_prop2")
        else:
            out[metric] = self_s(base)
    out["rng.substream.calls"] = calls("rng.substream")
    for key in (
        "fields.draw_source_rows.rows", "fields.evaluate_values.cells",
        "fields.compute_means.prepass_draws", "fields.outcome_blocks.outcomes",
        "oracle.merge_atoms.atoms_in",
    ):
        out[key] = counts.get(key, 0)
    out["harness.accepted_ratio"] = _ratio(
        counts.get("harness.w2.accepted", 0), counts.get("harness.w2.drawn", 0)
    )
    enums = calls("moments.exact_index_norms") + calls("moments.exact_pair_covariance")
    indices = counts.get("moments.exact_moment_table.indices", 0)
    out["moments.local_enums_per_index"] = enums / indices if indices else 0.0
    out["oracle.merge_atoms.merge_ratio"] = _ratio(
        counts.get("oracle.merge_atoms.atoms_out", 0), counts.get("oracle.merge_atoms.atoms_in", 0)
    )
    instances = counts.get("oracle.instances", 0)
    tries = counts.get("oracle.instance_precompute_calls", 0)
    out["oracle.instance_accept_ratio"] = _ratio(instances, tries)
    out["oracle.instance_retries"] = tries - instances
    out["unattributed_s"] = trace["unattributed_s"]
    return out


# ---------------------------------------------------------------------------
# Provenance


def provenance(root: Path, seed: int, trace: bool, versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "locdep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        **versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": 1,
        "blas_threads": 1,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Running


class WorkerFailed(RuntimeError):
    pass


def run_worker(root: Path, tmp: Path, names: list[str], out: Path, trace: bool,
               deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py to completion, or kill it at ``deadline`` (monotonic)."""
    result = tmp / f"result-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--specs", str(tmp / "specs"), "--names", ",".join(names),
        "--out", str(out), "--result", str(result),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=root, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0), env={**os.environ, **WORKER_ENV},
    )
    if proc.returncode != 0 or not result.is_file():
        raise WorkerFailed(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(result.read_text())


def check_pass(pass_dir: Path, workload: str, specs: list[tuple[str, dict]],
               reference: dict, worker: dict) -> list[dict]:
    """One record per spec run: its time and the reasons it failed, if any."""
    refs = reference["workloads"][workload]
    records = []
    for (name, doc), run in zip(specs, worker["runs"]):
        why = []
        if run["traceback"]:
            why.append("traceback: " + run["traceback"].strip().splitlines()[-1])
        if "Traceback" in run["stderr"]:
            why.append("traceback on stderr")
        if run["rc"] != 0:
            why.append(f"exit code {run['rc']}: {run['stderr'].strip()[-500:]}")
        if not why:
            why = checks.check_spec(
                pass_dir / name, refs[name], exact_mode=doc["mode"]["kind"] == "exact"
            )
        records.append({"name": name, "wall_s": run["wall_s"], "failures": why})
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "locdep" / "__init__.py").is_file():
        print(f"error: no locdep sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    reference = checks.load_reference(HERE / "reference.json")
    specs = workloads.specs(args.workload, args.seed)
    names = [name for name, _ in specs]

    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    try:
        (tmp / "specs").mkdir()
        for name, doc in specs:
            (tmp / "specs" / f"{name}.json").write_text(json.dumps(doc))
        try:
            return _measure(args, root, tmp, specs, names, reference)
        except (WorkerFailed, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, root: Path, tmp: Path, specs, names, reference) -> int:
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    # Warm the file cache with one untimed set-up, then time set-up alone.
    run_worker(root, tmp, names, tmp, False, deadline, setup_only=True)
    setups = [
        run_worker(root, tmp, names, tmp, False, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    # The pass count comes from the workload's nominal pass length, never
    # from how fast a pass happened to be.
    n_passes = max(1, round(args.seconds / workloads.WORKLOADS[args.workload].pass_s))
    if args.trace:
        n_passes += n_passes % 2  # whole (traced, untraced) pairs
    passes = []
    for k in range(n_passes):
        traced = bool(args.trace) and k % 2 == 0
        pass_dir = tmp / f"pass{k}"
        worker = run_worker(root, tmp, names, pass_dir, traced, deadline)
        records = check_pass(pass_dir, args.workload, specs, reference, worker)
        if traced:
            out = root / ".perfbench_out"
            out.mkdir(exist_ok=True)
            shutil.move(pass_dir / "spans.npz",
                        out / f"{args.workload}-seed{args.seed}-pass{k}-spans.npz")
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append({"traced": traced, "worker": worker, "specs": records})

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["specs"]) for p in passes)
    failed = sum(1 for p in passes for r in p["specs"] if r["failures"])
    # The host's speed swings by up to 1.4x in phases of seconds, so a pass
    # time is a sample of that mix: the mean over passes (the run's total)
    # varies less from run to run than their median does.
    plain_wall = statistics.fmean(p["worker"]["wall_s"] for p in plain)
    mc_reps = workloads.mc_reps(args.workload)
    end_to_end = {
        "wall_s": plain_wall,
        "setup_s": statistics.median(setups + [p["worker"]["setup_s"] for p in plain]),
        "peak_rss_mb": statistics.median([p["worker"]["peak_rss_mb"] for p in plain]),
    }
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "provenance": provenance(root, args.seed, bool(args.trace), passes[0]["worker"]["versions"]),
        "seconds": args.seconds,
        "elapsed_s": time.monotonic() - t_begin,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "end_to_end": end_to_end,
        "cpu_s": statistics.fmean(p["worker"]["cpu_s"] for p in plain),
        "mc_reps_per_pass": mc_reps,
        "mc_reps_per_s": mc_reps / plain_wall,
        "setup_probes_s": setups,
        "passes": [
            {
                "traced": p["traced"],
                **{m: p["worker"][m] for m in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")},
                "specs": p["specs"],
            }
            for p in passes
        ],
        "failures": [
            f"pass {k} {r['name']}: {why}"
            for k, p in enumerate(passes) for r in p["specs"] for why in r["failures"]
        ],
    }
    if traced:
        per_pass = [layer_metrics(p["worker"]["trace"]) for p in traced]
        layer = {m: statistics.median(pp[m] for pp in per_pass) for m in per_pass[0]}
        traced_wall = statistics.fmean(p["worker"]["wall_s"] for p in traced)
        layer["trace_overhead_s"] = paired_overhead(passes)
        record["per_layer"] = layer
        record["trace_spans"] = traced[-1]["worker"]["trace"]["spans"]
        record["trace_counts"] = traced[-1]["worker"]["trace"]["counts"]
        print(layer_table(args.workload, layer, traced_wall, plain_wall, record["trace_spans"]),
              file=sys.stderr)
        metrics = {m: {"value": layer[m], "unit": unit} for m, unit in REPORTED}
    else:
        metrics = {m: {"value": end_to_end[m], "unit": unit} for m, unit in END_TO_END.items()}

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in record["failures"][:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def layer_table(workload: str, layer: dict, traced_wall: float, plain_wall: float,
                spans: dict, top: int = 12) -> str:
    """One screen: layer self times, the heaviest spans, remainder, overhead."""
    lines = [f"== {workload}: traced wall {traced_wall:.3f} s, untraced {plain_wall:.3f} s"]
    layers = sorted(
        ((name[:-len('.self_s')], v) for name, v in layer.items()
         if name.count(".") == 1 and name.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    lines.append("  layer          self_s   share")
    for name, v in layers:
        lines.append(f"  {name:<12} {v:8.3f}  {v / traced_wall:6.1%}")
    lines.append(f"  {'unattributed':<12} {layer['unattributed_s']:8.3f}")
    lines.append(f"  {'overhead':<12} {layer['trace_overhead_s']:8.3f}")
    lines.append("  top spans (last traced pass)        calls    self_s")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:top]:
        lines.append(f"  {name:<34} {row['calls']:7d} {row['self_s']:9.3f}")
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
