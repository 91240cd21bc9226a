"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root; exits 1 if any check fails.

* Self-time arithmetic on synthetic nested, overlapping and protruding
  spans, and the unattributed remainder of a window.
* ``tracing.install`` rebinds every copy of a wrapped function, including
  the ones taken with ``from .x import y``.
* The Monte-Carlo output check rejects a deliberately biased sampler (a
  Rademacher field drawn with P(+1) = 0.55 but centred and scaled as the
  fair one) and accepts a correct run under a seed other than the
  reference's.
* ``BENCHMARK.json`` lists the metrics ``run.py`` reports, and every
  reported per-layer metric is non-zero on every workload of the baseline.
* The tracing overhead pairs each traced pass with the untraced one after it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILED: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'}: {what}")
    if not cond:
        FAILED.append(what)


def check_self_times() -> None:
    # root [0,10] > A [1,4] > A1 [2,3];  root > B [5,6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    got = tracing.self_times(parent, start, end)
    expect(np.allclose(got, [6.0, 2.0, 1.0, 1.0]), f"nested self times {got.tolist()}")

    # two children overlapping each other: covered once, [1,7]
    got = tracing.self_times(np.array([-1, 0, 0]), np.array([0.0, 1.0, 3.0]),
                             np.array([10.0, 5.0, 7.0]))
    expect(np.allclose(got, [4.0, 4.0, 4.0]), f"overlapping self times {got.tolist()}")

    # a child sticking out of its parent is clipped to it; an empty child
    # covers nothing
    got = tracing.self_times(np.array([-1, 0, 0]), np.array([0.0, 8.0, 3.0]),
                             np.array([10.0, 12.0, 3.0]))
    expect(np.allclose(got, [8.0, 4.0, 0.0]), f"protruding self times {got.tolist()}")

    tr = tracing.Tracer()
    a, b = tr.name_id("cli.main"), tr.name_id("fields.build")
    spans = [(a, -1, 0.0, 10.0), (b, 0, 2.0, 5.0), (a, -1, 12.0, 15.0), (a, -1, 30.0, 31.0)]
    for nid, par, s, e in spans:
        tr.name_of.append(nid)
        tr.parent.append(par)
        tr.start.append(s)
        tr.end.append(e)
    summary = tracing.summarize(tr, (0.0, 20.0))
    expect(abs(summary["unattributed_s"] - 7.0) < 1e-12,
           f"unattributed remainder {summary['unattributed_s']} == 7")
    expect(abs(summary["layers"]["cli"] - 11.0) < 1e-12 and abs(summary["layers"]["fields"] - 3.0) < 1e-12,
           f"layer self times {summary['layers']['cli']}, {summary['layers']['fields']}")


def check_paired_overhead() -> None:
    walls = [5.0, 4.0, 9.0, 3.0, 6.0, 5.5]  # traced, untraced, ...
    passes = [{"worker": {"wall_s": w}} for w in walls]
    got = run.paired_overhead(passes)
    expect(got == 1.0, f"paired tracing overhead {got} == median(1, 6, 0.5)")


def check_install(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    import locdep
    import locdep.cli  # noqa: F401  (the package does not import its CLI)

    originals = {}
    for name in tracing.LAYERS:
        mod = getattr(locdep, name)
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                originals[id(obj)] = f"{name}.{attr}"
    tr = tracing.Tracer()
    wrapped = tracing.install(tr, locdep)
    expect(wrapped == len(originals), f"{wrapped} public functions wrapped")
    stale = [
        f"{mod_name}.{attr} -> {originals[id(obj)]}"
        for mod_name in ("__init__", *tracing.LAYERS)
        for mod in [locdep if mod_name == "__init__" else getattr(locdep, mod_name)]
        for attr, obj in vars(mod).items()
        if id(obj) in originals
    ]
    expect(not stale, f"no unwrapped bindings left {stale[:5]}")
    expect(locdep.harness.draw_source_rows is locdep.fields.draw_source_rows
           and locdep.moments.evaluate_values is locdep.fields.evaluate_values,
           "from-imports share the wrapper")

    field = locdep.fields.build_m_dependent(16, 1, locdep.fields.rademacher())
    locdep.harness.mc_run(field, "w2", 1000, 5)
    counts = tr.counts
    spans = {tr.names[k] for k in tr.name_of}
    expect({"harness.mc_run", "fields.draw_source_rows", "rng.substream",
            "fields.evaluate_values", "statistics.w2_batch"} <= spans,
           "mc_run records spans through its from-imports")
    expect(counts["fields.draw_source_rows.rows"] == 1000 and counts["harness.w2.drawn"] == 1000,
           "counters at the layer boundaries")
    metrics = run.layer_metrics(tracing.summarize(tr, (0.0, tr.clock())))
    expect(set(metrics) | {"trace_overhead_s"} == {m for m, _ in run.PER_LAYER},
           "layer_metrics yields every PER_LAYER metric")


def check_biased_sampler_rejected(root: Path) -> None:
    from locdep import cli, harness, fields as F

    reference = checks.load_reference(HERE / "reference.json")
    for spec_name, n in (("mdep_w1", 8), ("mdep_w2", 16)):
        doc = dict(workloads.WORKLOADS["mc_stream"].specs)[spec_name]
        ref = reference["workloads"]["mc_stream"][spec_name]["per_n"][str(n)]
        built = cli.build_family(doc["family"], doc["params"], n)
        table = cli._moment_table_for(built, cli.parse_spec({**doc, "seed": 0}), n)
        reps = doc["mode"]["reps"]
        fair = built.field
        biased = dataclasses.replace(
            fair, sources=(F.DiscreteSource((-1.0, 1.0), (0.45, 0.55)),) * fair.n_sources,
            metadata={k: v for k, v in fair.metadata.items() if k != "_source_runs"},
        )
        for label, field, seed, want_ok in (
            ("fair, re-seeded", fair, reference["seed"] + 12345, True),
            ("biased p=0.55", biased, reference["seed"] + 12345, False),
        ):
            s = harness.mc_run(field, doc["statistic"], reps, seed, sigma=table.sigma, path=(0,))
            why = checks.check_mc_ks(
                {"R": s.reps, "ks": s.ks, "rejected": s.rejected}, ref
            )
            ok = why is None
            expect(ok == want_ok,
                   f"{spec_name} n={n} {label}: check {'accepts' if ok else 'rejects'}"
                   f" (ks {s.ks:.4f}, exact {ref['exact_ks']:.4f})")


def check_benchmark_json(root: Path) -> None:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    expect(listed == run.REPORTED, "BENCHMARK.json per_layer matches run.REPORTED")
    expect([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics are the ones run.py reports")
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
    zero = [f"{w}: {m}" for w, b in baseline.items() for m, _ in run.REPORTED if not b["per_layer"][m]]
    expect(not zero, f"every reported per-layer metric is non-zero in the baseline {zero[:5]}")


def main() -> int:
    root = Path.cwd()
    check_self_times()
    check_paired_overhead()
    check_install(root)
    check_biased_sampler_rejected(root)
    check_benchmark_json(root)
    print(f"{len(FAILED)} self-check(s) failed" if FAILED else "all self-checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    raise SystemExit(main())
