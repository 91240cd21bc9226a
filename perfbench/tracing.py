"""Out-of-process tracing for the benchmark: spans around locdep's layers.

The program is not instrumented.  ``install`` wraps the public functions of
every ``locdep`` module from outside and rebinds every name that refers to
them, including the copies other modules took with ``from .x import y``.
Each call records one span (name, start, end, parent) in memory; a few
wrappers also record counts (rows drawn, outcomes enumerated, atoms
merged, ...).  ``summarize`` turns the spans into self times per span name
and per layer.

Spans use one stack, so a traced run must be single-threaded
(``--threads 1``); the workloads are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = (
    "rng", "fields", "statistics", "harness", "moments",
    "neighborhood", "bounds", "oracle", "cli",
)

# Span names that differ from "<module>.<function>": the CLI's family
# dispatch is field construction, its bound dispatch (with the per-block
# overlap loop) is bound evaluation, and checker names are grouped.
ALIASES = {
    "cli.build_family": "fields.build",
    "cli.evaluate_bounds": "bounds.evaluate",
    "oracle.check_lemma_xiyi": "oracle.check.lemma_xiyi",
    "oracle.check_lemma_s2": "oracle.check.lemma_s2",
    "oracle.check_lemma_s4": "oracle.check.lemma_s4",
    "oracle.check_lemma_r4": "oracle.check.lemma_r4",
    "oracle.check_prop1": "oracle.check.prop1",
    "oracle.check_prop2": "oracle.check.prop2",
}


class Tracer:
    """Spans and counters held in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_of": np.asarray(self.name_of, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def save(self, path) -> None:
        """Write the spans out as arrays; span k is named
        ``names[name_of[k]]`` and has parent span ``parent[k]`` (-1: none)."""
        np.savez_compressed(path, **self.arrays())


# ---------------------------------------------------------------------------
# Counters recorded at the layer boundaries: HOOKS maps a span name to
# (before, after); ``before(tr, args, kwargs)`` runs ahead of the call and
# its result is passed on as ``after(tr, args, kwargs, result, before)``.


def _on_draw_rows(tr, args, kwargs, result, before):
    tr.count("fields.draw_source_rows.rows", result.shape[0])


def _on_evaluate(tr, args, kwargs, result, before):
    tr.count("fields.evaluate_values.cells", result.size)


def _before_means(tr, args, kwargs):
    return args[0].metadata.get("mean_prepass")


def _on_means(tr, args, kwargs, result, before):
    after = args[0].metadata.get("mean_prepass")
    if after is not None and after is not before:
        tr.count("fields.compute_means.prepass_draws", after["draws"])


def _on_mc_run(tr, args, kwargs, result, before):
    if result.statistic == "w2":
        tr.count("harness.w2.drawn", result.reps)
        tr.count("harness.w2.accepted", result.extras.get("accepted", result.reps))


def _on_exact_table(tr, args, kwargs, result, before):
    tr.count("moments.exact_moment_table.indices", result.n)


def _on_merge(tr, args, kwargs, result, before):
    tr.count("oracle.merge_atoms.atoms_in", np.asarray(args[0]).size)
    tr.count("oracle.merge_atoms.atoms_out", result[0].size)


def _on_instance(tr, args, kwargs, result, before):
    tr.count("oracle.instances", 1)


HOOKS = {
    "fields.draw_source_rows": (None, _on_draw_rows),
    "fields.evaluate_values": (None, _on_evaluate),
    "fields.compute_means": (_before_means, _on_means),
    "harness.mc_run": (None, _on_mc_run),
    "moments.exact_moment_table": (None, _on_exact_table),
    "oracle.merge_atoms": (None, _on_merge),
    "oracle.random_enumerable_instance": (None, _on_instance),
}


# ---------------------------------------------------------------------------
# Wrapping


def _wrap_function(tr: Tracer, fn, name: str):
    nid = tr.name_id(name)
    before, after = HOOKS.get(name, (None, None))

    if inspect.isgeneratorfunction(fn):
        # Time spent inside next(): one span per step of the generator.
        outcome_key = f"{name}.outcomes"

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tr.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.close(idx)
                if isinstance(item, tuple) and item and hasattr(item[0], "size"):
                    tr.count(outcome_key, item[0].size)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(tr, args, kwargs) if before is not None else None
        idx = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(tr, args, kwargs, result, state)
        return result

    return wrapper


def install(tr: Tracer, package) -> int:
    """Wrap every public function of every ``package`` module; returns
    the number of functions wrapped.

    A module's public functions are those defined in it whose name does
    not start with an underscore.  After wrapping, every module attribute
    in the package that still points at an original function is rebound
    to its wrapper, so ``from .fields import evaluate_values`` copies in
    ``harness``, ``moments`` and ``oracle`` go through the wrapper too.
    """
    layers = {
        name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
    }
    wrapped: dict[int, tuple] = {}
    for short, mod in layers.items():
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                span = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapped[id(obj)] = (obj, _wrap_function(tr, obj, span))
    for mod in (package, *layers.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return len(wrapped)


# ---------------------------------------------------------------------------
# Self time


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover.  Children may overlap one another (the union is
    subtracted once) or stick out of the parent (clipped to it)."""
    dur = end - start
    out = dur.copy()
    children: dict[int, list[int]] = defaultdict(list)
    for c, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(c)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        ivals = sorted(
            (max(start[c], lo_p), min(end[c], hi_p)) for c in kids
        )
        covered = 0.0
        cur_lo, cur_hi = None, None
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] = dur[p] - covered
    return out


def summarize(tr: Tracer, window: tuple[float, float]) -> dict:
    """Per span name: calls and self seconds; per layer: self seconds;
    plus the counters and the part of ``window`` (the timed workload, in
    the tracer's clock) that no span covers."""
    a = tr.arrays()
    selfs = self_times(a["parent"], a["start"], a["end"])
    n_names = len(tr.names)
    self_by = np.bincount(a["name_of"], weights=selfs, minlength=n_names)
    calls_by = np.bincount(a["name_of"], minlength=n_names)
    spans = {
        tr.names[k]: {"calls": int(calls_by[k]), "self_s": float(self_by[k])}
        for k in range(n_names)
        if calls_by[k]
    }
    layers = {layer: 0.0 for layer in LAYERS}
    for name, row in spans.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    t0, t1 = window
    roots = (a["parent"] < 0) & (a["start"] >= t0) & (a["end"] <= t1)
    attributed = float((a["end"][roots] - a["start"][roots]).sum())
    counts = dict(tr.counts)

    # precompute calls made while drawing checker instances; run.py takes
    # away the instances that came out to get the retries
    pre_id = tr._name_ids.get("oracle.precompute")
    inst_id = tr._name_ids.get("oracle.random_enumerable_instance")
    if pre_id is not None and inst_id is not None:
        parent = a["parent"]
        is_pre = a["name_of"] == pre_id
        under = is_pre & (parent >= 0)
        under[under] = a["name_of"][parent[under]] == inst_id
        counts["oracle.instance_precompute_calls"] = int(under.sum())
    return {
        "spans": spans,
        "layers": layers,
        "counts": counts,
        "attributed_s": attributed,
        "unattributed_s": (t1 - t0) - attributed,
        "n_spans": int(selfs.size),
    }
