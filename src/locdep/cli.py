"""Experiment configuration, orchestration, and the ``locdep`` CLI.

One JSON document describes an experiment: a field family with its
parameters, a size grid, a statistic, an evaluation mode (exact or
Monte-Carlo), the bound shapes to evaluate, optional checker suites, and
optional acceptance assertions.  ``locdep run`` produces a moments CSV,
a bound-report JSON, a summary CSV, a verdict CSV, and a gnuplot-ready
rate-plot file, then exits 0 iff all configured assertions pass (2 on
config errors, 1 on assertion failures).

``FAMILIES`` holds each family's typed parameters, builder and bounds.
One schema walker checks every block of a spec: an unknown key, a wrong
type (a boolean is never a number) or a value out of range exits 2
naming its JSON path, and absent keys take the schema's defaults.

Subcommands ``derive``, ``bound``, ``oracle``, ``mc`` run single stages;
``count`` exposes the naive counting oracles.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys as _sys
import time
import types
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds, fields, harness, moments, neighborhood, oracle, statistics
from .errors import (ComplexityCapExceeded, ConfigError, EmptyIndexSet, InvalidSize, LocdepError,
                     NonFiniteBound, NonFiniteMoments)

TABLE_CAP = 2**20  # largest outcome space whose grid point takes an exact Var(S)
LD_CAP = 2**16  # largest outcome space the LD test (require_ld) enumerates


# ---------------------------------------------------------------------------
# Config schema
#
# A check takes a JSON value and its path and returns the checked value,
# or raises ConfigError at that path.  An object schema maps each key to
# (check, default); a default of None leaves the key unset (null also
# does), REQUIRED has none, and any other default is checked as given.
# Checked values stay JSON-shaped: checking them again changes nothing.

REQUIRED = object()


def _typed(ok: Callable, expected: str) -> Callable:
    """A check that passes the values for which ``ok`` holds."""
    def check(v, where):
        if not ok(v):
            raise ConfigError(where, f"expected {expected}, got {v!r}")
        return v
    return check


def _integer(lo: int, hi: float = math.inf) -> Callable:
    return _typed(lambda v: type(v) is int and lo <= v < hi, f"an integer in [{lo}, {hi})")


NUMBER = _typed(lambda v: type(v) in (int, float) and -math.inf <= v <= math.inf, "a number")
POSITIVE = _typed(lambda v: type(v) in (int, float) and v > 0, "a positive number")
PROBABILITY = _typed(lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]")
BOOLEAN = _typed(lambda v: type(v) is bool, "a boolean")
TEXT = _typed(lambda v: type(v) is str, "a string")
SEED = _integer(0, 2**64)


def _choice(names) -> Callable:
    return _typed(lambda v: type(v) is str and v in names, f"one of {list(names)}")


def _list(item: Callable, lo: int = 0, hi: float = math.inf, expected: str = "a list") -> Callable:
    def check(v, where):
        if type(v) is not list or not lo <= len(v) <= hi:
            raise ConfigError(where, f"expected {expected}, got {v!r}")
        return [item(x, f"{where}[{k}]") for k, x in enumerate(v)]
    return check


def _object(schema: dict, check: Callable = lambda out, where: None) -> Callable:
    """Walk an object: reject unknown keys, check the others, fill in the
    defaults, then run ``check(out, where)`` across the keys."""
    def walk(doc, where):
        if type(doc) is not dict:
            raise ConfigError(where, f"expected an object, got {type(doc).__name__}")
        for key in doc:
            if key not in schema:
                raise ConfigError(f"{where}.{key}", f"unknown key; one of {list(schema)}")
        out = {}
        for key, (chk, default) in schema.items():
            v = doc.get(key, default)
            if v is REQUIRED:
                raise ConfigError(f"{where}.{key}", "missing required key")
            out[key] = None if v is None and default is None else chk(v, f"{where}.{key}")
        check(out, where)
        return out
    return walk


def _tagged(variants: dict) -> Callable:
    """An object whose ``kind`` picks the schema of its other keys."""
    walks = {kind: _object({"kind": (TEXT, REQUIRED), **keys}) for kind, keys in variants.items()}
    def walk(doc, where):
        kind = doc.get("kind") if type(doc) is dict else None
        return walks[_choice(walks)(kind, f"{where}.kind")](doc, where)
    return walk


GAPS = _list(lambda v, where: None if v in ("inf", None) else _integer(1)(v, where))
EDGES = _list(_list(_integer(0), 2, 2, "a pair [u, v]"))
PATTERNS = {
    "edge": [[0, 1]],
    "path3": [[0, 1], [1, 2]],
    "triangle": [[0, 1], [0, 2], [1, 2]],
}

# source kind -> (parameter schema, maker called with the checked parameters)
SOURCES = {
    "rademacher": ({}, lambda: fields.rademacher()),
    "bernoulli": ({"p": (PROBABILITY, REQUIRED)}, lambda p: fields.bernoulli(p)),
    "three_point": ({"spread": (POSITIVE, 1.0), "p_zero": (PROBABILITY, 0.5)},
                    lambda spread, p_zero: fields.three_point(spread, p_zero)),
    "letters": ({"k": (_integer(1), REQUIRED)}, lambda k: fields.uniform_letters(k)),
    "uniform": ({}, lambda: fields.ContinuousSource("uniform")),
    "normal": ({}, lambda: fields.ContinuousSource("normal")),
}
SOURCE = _tagged({kind: schema for kind, (schema, _) in SOURCES.items()})


def _source(doc: dict) -> fields.Source:
    """The source a checked source object describes."""
    return SOURCES[doc["kind"]][1](**{k: v for k, v in doc.items() if k != "kind"})


def _some_check(c: dict, where: str) -> None:
    if not (c["checks"] or c["include_r4"]):
        raise ConfigError(f"{where}.checks", "no check to run")


MODE = _tagged({"exact": {"reps": (_integer(1), 10**4)}, "mc": {"reps": (_integer(1000), 10**4)}})
CHECKERS = _object({
    "instances": (_integer(1), 50),
    "checks": (_list(_choice(oracle.SUITE_CHECKS)), list(oracle.SUITE_CHECKS)),
    "include_r4": (BOOLEAN, False),
}, _some_check)
ASSERTIONS = _object({
    "slope_range": (_list(NUMBER, 2, 2, "two numbers [lo, hi]"), None),
    "max_ratio_spread": (NUMBER, None),
    "max_ks": (NUMBER, None),
    "zero_rejections": (BOOLEAN, False),
    "ks_decreasing": (BOOLEAN, False),
    "require_ld": (BOOLEAN, False),
    "require_zero_check_failures": (BOOLEAN, True),
})


class BuiltInstance(NamedTuple):
    """The field of a family at one grid size, ``system()``, its
    neighborhood system (see :func:`_system`), and ``derived()``, that
    system's kappa and tau, each built on the first call and kept for the
    later ones."""

    field: fields.LatentSourceField
    system: Callable[[], neighborhood.NeighborhoodSystem]
    derived: Callable[[], neighborhood.DerivedNeighborhoods]


class Family(NamedTuple):
    """``params`` walks a params object; ``build(params, n, where)`` makes
    the field at size n, checking only what depends on n; ``bounds`` maps
    the family's own bound shapes to ``(built, params, n, table) -> report``.
    Entries reach ``fields`` and ``bounds`` through their modules."""

    params: Callable
    build: Callable
    bounds: dict = {}
    default_bounds: tuple = ("main", "self_normalized")


# the bound shapes of the neighborhood system, which every family allows,
# as ``(built, params, n, table) -> report`` like a family's own
SHARED_BOUNDS = {
    "main": lambda b, p, n, t: bounds.bound_main(t, b.derived().kappa, b.derived().tau),
    "self_normalized": lambda b, p, n, t: bounds.bound_self_normalized(
        t, b.derived().kappa, b.derived().tau),
    "general_beta": lambda b, p, n, t: bounds.bound_general_beta(t, b.system(), b.derived()),
}


# params of every family: declared neighborhoods
COMMON_PARAMS = {"declared_A": (_list(_list(_integer(0))), None)}


def _build_graph(p: dict, n: int, where: str) -> fields.LatentSourceField:
    if p["graph"] == "cycle" and n < 3:
        raise ConfigError("$.grid", f"n={n}: a cycle needs n >= 3")
    edges = {"cycle": [(i, (i + 1) % n) for i in range(n)], "star": [(0, i) for i in range(1, n)],
             "edgeless": [], "explicit": p["edges"]}[p["graph"]]
    if any(v >= n for e in edges for v in e):
        raise ConfigError(f"{where}.edges", f"expected pairs [u, v] of ints in [0, {n})")
    return fields.build_graph_dependency(n, edges, _source(p["source"]))


def _graph_report(field: fields.LatentSourceField, n: int, table) -> bounds.BoundReport:
    """The graph bound at d = D - 1, which a graph of maximal degree D = 0 does not have."""
    if field.metadata["max_degree"] == 0:
        raise ConfigError("$.params.graph", f"n={n}: the 'graph' bound needs an edge, "
                          "and the graph has maximal degree 0")
    return bounds.bound_graph(table, field.metadata["max_degree"] - 1)


def _elementary_symmetric(x: np.ndarray, m: int) -> np.ndarray:
    """e_m of each row of x: the sum of the products of its m-subsets, by
    e_j += x_t e_{j - 1} over the columns t."""
    e = np.zeros((m + 1, x.shape[0]))
    e[0] = 1.0
    for col in x.T:
        e[1:] += col * e[:-1]
    return e[m]


class Kernel(NamedTuple):
    """A symmetric kernel ``h(*cols)`` and ``block_sum(x, m)``, h summed
    over the m-subsets of each row of a block's points x (see
    ``fields.build_ustat_field``)."""

    h: Callable
    block_sum: Callable


KERNELS = {
    "product": Kernel(lambda *cols: math.prod(cols), _elementary_symmetric),
    "sum": Kernel(lambda *cols: sum(cols),
                  lambda x, m: math.comb(x.shape[1] - 1, m - 1) * x.sum(axis=1)),
    "diff_sq_half": Kernel(  # m = 2 only
        lambda x, y: (x - y) ** 2 / 2.0,
        lambda x, m: (x.shape[1] * (x * x).sum(axis=1) - x.sum(axis=1) ** 2) / 2.0,
    ),
}


def _check_ustat(p: dict, where: str) -> None:
    if p["kernel"] == "diff_sq_half" and p["m"] != 2:
        raise ConfigError(f"{where}.m", f"kernel 'diff_sq_half' takes m = 2, got {p['m']}")
    if p["source"]["kind"] in ("uniform", "normal"):  # theta and sigma1 are enumerated
        raise ConfigError(f"{where}.source.kind", "expected a discrete source, got "
                          f"{p['source']['kind']!r}")


def _build_ustat(p: dict, n: int, where: str) -> fields.LatentSourceField:
    m, k = p["m"], p["k"]
    if n < k * m:
        raise ConfigError(f"{where}.k", f"need n >= k*m, got k={k}, m={m}, n={n}")
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    kernel = KERNELS[p["kernel"]]
    return fields.build_ustat_field(sizes, m, kernel.h, _source(p["source"]), kernel.block_sum)


def _check_constrained(p: dict, where: str) -> None:
    if (p["word"] is None) == (p["pattern"] is None):
        raise ConfigError(where, "constrained_ustat needs one of 'word' and 'pattern'")
    if p["word"] is not None and max(ord(ch) - ord("a") for ch in p["word"]) >= p["alphabet"]:
        raise ConfigError(f"{where}.word", f"letters must be the first {p['alphabet']} of a-z")
    steps = len(p["pattern"] if p["word"] is None else p["word"]) - 1
    if p["gaps"] is None:  # by default every step is unconstrained
        p["gaps"] = [None] * steps
    elif len(p["gaps"]) != steps:
        raise ConfigError(f"{where}.gaps", f"need {steps}, one per step, got {len(p['gaps'])}")


RADEMACHER = {"kind": "rademacher"}
FAMILIES = {
    "iid": Family(
        _object({"source": (SOURCE, RADEMACHER), **COMMON_PARAMS}),
        lambda p, n, where: fields.build_iid_field(n, _source(p["source"])),
    ),
    "m_dependent": Family(
        _object({"m": (_integer(0), 1), "source": (SOURCE, RADEMACHER), **COMMON_PARAMS}),
        lambda p, n, where: fields.build_m_dependent(n, p["m"], _source(p["source"])),
    ),
    "graph": Family(
        _object({
            "graph": (_choice(("cycle", "star", "edgeless", "explicit")), "cycle"),
            "edges": (EDGES, []),  # read when graph is "explicit"
            "source": (SOURCE, RADEMACHER),
            **COMMON_PARAMS,
        }),
        _build_graph,
        {"graph": lambda b, p, n, t: _graph_report(b.field, n, t)},
        ("graph",),
    ),
    "ustat": Family(
        _object({
            "m": (_integer(1), 2),
            "k": (_integer(1), 1),
            "kernel": (_choice(KERNELS), "product"),
            "source": (SOURCE, {"kind": "three_point"}),
            **COMMON_PARAMS,
        }, _check_ustat),
        _build_ustat,
        {
            "distributed_u": lambda b, p, n, t: bounds.bound_distributed_u(
                moments.hoeffding_sigma1(KERNELS[p["kernel"]].h, p["m"], _source(p["source"])),
                n, p["m"], b.field.metadata["block_sizes"],
            ),
            "distributed_general": lambda b, p, n, t: _distributed_general_report(b, t),
        },
        ("distributed_u", "distributed_general"),
    ),
    "constrained_ustat": Family(
        _object({
            "word": (_typed(lambda v: type(v) is str and v.isascii() and v.isalpha() and v.islower(),
                            "a nonempty string of letters a-z"), None),
            "alphabet": (_integer(1), 26),
            "pattern": (_list(_integer(1), 1), None),
            "gaps": (GAPS, None),  # one "inf" per step when left out
            **COMMON_PARAMS,
        }, _check_constrained),
        lambda p, n, where: (
            fields.build_pattern_field(n, p["pattern"], p["gaps"]) if p["word"] is None else
            fields.build_word_field(
                [ord(ch) - ord("a") for ch in p["word"]], n, p["alphabet"], p["gaps"]
            )
        ),
        {"constrained_u": lambda b, p, n, t: bounds.bound_constrained_u(t, n, b.field.metadata["b"])},
        ("constrained_u",),
    ),
    "decorated_graph": Family(
        _object({
            # a pattern name is checked as the edge list it names
            "pattern": (lambda v, where: EDGES(
                PATTERNS[_choice(PATTERNS)(v, where)] if type(v) is str else v, where
            ), "triangle"),
            "p": (PROBABILITY, 0.5),
            **COMMON_PARAMS,
        }),
        lambda p, n, where: fields.build_decorated_graph_field(
            n, [tuple(e) for e in p["pattern"]], fields.bernoulli(p["p"])
        ),
        {"decorated": lambda b, p, n, t: bounds.bound_decorated(t, n, b.field.metadata["v"])},
        ("decorated",),
    ),
}


class ExperimentSpec(types.SimpleNamespace):
    """A checked spec: one attribute per top-level key of the spec schema,
    plus ``raw``, the document as written."""


def parse_spec(doc: dict) -> ExperimentSpec:
    """Check a spec document and fill in its defaults."""
    if type(doc) is not dict:
        raise ConfigError("$", f"expected an object, got {type(doc).__name__}")
    family = FAMILIES[_choice(FAMILIES)(doc.get("family"), "$.family")]
    checked = _object({
        "notes": (lambda v, where: v, None),  # free text
        "family": (TEXT, REQUIRED),
        "params": (family.params, {}),
        "grid": (_list(_integer(1), 1, expected="a nonempty list"), REQUIRED),
        "statistic": (_choice(statistics.STATISTICS), "w1"),
        "mode": (MODE, {"kind": "mc"}),
        "bounds": (_list(_choice([*SHARED_BOUNDS, *family.bounds])), list(family.default_bounds)),
        "checkers": (CHECKERS, None),
        "seed": (SEED, REQUIRED),
        "out": (TEXT, "locdep-out"),
        "assertions": (ASSERTIONS, {}),
    })(doc, "$")
    grid = checked["grid"]  # ks_decreasing and the rate fit read it in order
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("$.grid", f"expected strictly increasing sizes, got {grid}")
    if checked["assertions"]["max_ratio_spread"] is not None and not checked["bounds"]:
        raise ConfigError("$.assertions.max_ratio_spread", "needs a bound shape, but bounds is empty")
    return ExperimentSpec(**checked, raw=doc)


def build_family(family: str, params: dict, n: int) -> BuiltInstance:
    """Construct the configured family at grid size n from a params
    object, raw or as ``parse_spec`` checked it."""
    entry, where = FAMILIES[family], "$.params"
    try:
        params = entry.params(params, where)
        field = entry.build(params, n, where)
    except ValueError as e:  # an argument the field builder refuses
        raise ConfigError(where, str(e)) from None
    except (EmptyIndexSet, InvalidSize) as e:  # a grid size below the family's smallest n
        raise ConfigError("$.grid", f"n={n}: {e}") from None
    system = functools.cache(lambda: _system(field, params["declared_A"]))
    return BuiltInstance(field, system, functools.cache(lambda: neighborhood.derive(system())))


# ---------------------------------------------------------------------------
# Orchestration


def _moment_table_for(built: BuiltInstance, spec: ExperimentSpec, n: int,
                      sigma2: float | None = None):
    """The field's own moments: the declared neighborhoods play no part.
    ``sigma2`` is the exact Var(S) of the grid point's walk, if
    :func:`_walk_for` asked for one; without it an enumerable field's
    table is hybrid, its Var(S) the covariance identity."""
    f = built.field
    if f.is_enumerable():
        return moments.exact_moment_table(f, sigma2)
    reps = max(spec.mode["reps"] // 10, 1000)
    return moments.mc_moment_table(f, reps=reps, master_seed=spec.seed)


def _walk_for(built: BuiltInstance, spec: ExperimentSpec, do_stat: bool):
    """The one walk of a grid point's outcome space, taking only what the
    point reads: the exact Var(S) of its moment table (within
    ``TABLE_CAP`` outcomes; past it the table is hybrid), the exact-mode
    statistic, and every outcome for the LD test (within ``LD_CAP``);
    None when nothing reads a walk."""
    f, count = built.field, built.field.outcome_count() or math.inf
    statistic = spec.statistic if do_stat and spec.mode["kind"] == "exact" else None
    ld = spec.assertions["require_ld"] and count <= LD_CAP
    var = count <= TABLE_CAP
    if not (statistic or ld or var):
        return None
    sys = built.system() if statistic in statistics.READS_VALUES else None
    return oracle.walk_outcomes(f, statistic, sys, var=var, keep=ld)


def _system(field: fields.LatentSourceField, declared) -> neighborhood.NeighborhoodSystem:
    """The declared neighborhoods, or else the induced ones.  Raises
    :class:`ComplexityCapExceeded` when the induced system exceeds
    ``fields.INDUCED_CAP`` neighbor entries."""
    if declared is None:
        return fields.induced_neighborhoods(field)
    # user-declared neighborhoods: checked for structure here, but
    # independence is only verified when the LD assertion is switched on
    where = "$.params.declared_A"
    n = field.n
    if len(declared) != n or any(i >= n for a in declared for i in a):
        raise ConfigError(where, f"expected {n} lists, one per index, of ids in [0, {n})")
    sys = neighborhood.make_system(declared)
    violations = neighborhood.validate_structure(sys)
    if violations:
        raise ConfigError(where, "; ".join(violations))
    return sys


def evaluate_bounds(
    built: BuiltInstance, spec: ExperimentSpec, n: int, table
) -> list[bounds.BoundReport]:
    """The spec's bound shapes at n; :class:`NonFiniteBound` when one
    overflows, divides by zero, or gives a value or term that is not finite."""
    reports = []
    shapes = {**SHARED_BOUNDS, **FAMILIES[spec.family].bounds}
    for name in spec.bounds:
        try:
            report = shapes[name](built, spec.params, n, table)
        except (ZeroDivisionError, OverflowError) as e:
            raise NonFiniteBound(f"bound {name} at n={n}: {e}") from None
        if not all(map(math.isfinite, (report.value, *report.terms.values()))):
            raise NonFiniteBound(f"bound {name} at n={n} is not finite: {report.value} {report.terms}")
        if spec.params["declared_A"] is not None:
            report.inputs["independence"] = "unverified (declared neighborhoods)"
        reports.append(report)
    return reports


def _distributed_general_report(built: BuiltInstance, table) -> bounds.BoundReport:
    """Per block: its rows of the table's l4, and kappa and tau of its
    diagonal block of the system's matrix."""
    M = built.system().M
    I, J = M.rows, M.indices
    block_l4 = []
    kappas = []
    taus = []
    for (lo, hi) in built.field.metadata["block_slices"]:
        block_l4.append(table.l4[lo:hi])
        inside = (I >= lo) & (I < hi) & (J >= lo) & (J < hi)
        block = neighborhood.from_entries(I[inside] - lo, J[inside] - lo, (hi - lo, hi - lo))
        der_b = neighborhood.derive(neighborhood.NeighborhoodSystem(M=block))
        kappas.append(der_b.kappa)
        taus.append(der_b.tau)
    return bounds.bound_distributed_general(block_l4, kappas, taus, table.sigma)


def run_experiment(
    spec: ExperimentSpec,
    threads: int = 1,
    do_bounds: bool = True,
    do_stat: bool = True,
    do_checkers: bool = True,
) -> dict:
    """Execute the experiment; returns the result bundle for artifact
    emission.  Each grid point's field and system are dropped when the
    point is done: ``per_n`` keeps its table, reports and summary."""
    per_n = []
    failures: list[str] = []
    for gi, n in enumerate(spec.grid):
        built = build_family(spec.family, spec.params, n)
        f = built.field
        walk = _walk_for(built, spec, do_stat)
        table = _moment_table_for(built, spec, n, sigma2=walk and walk.sigma2)
        if not all(np.isfinite(v).all() for v in (table.sigma2, table.l2, table.l3, table.l4)):
            raise NonFiniteMoments(f"moments at n={n}: Var(S)={table.sigma2:g}, or a norm, is not finite")
        reports = evaluate_bounds(built, spec, n, table) if do_bounds else []
        sigma = table.sigma if not table.degenerate else None
        if not do_stat:
            summary = None
        elif spec.mode["kind"] == "exact":  # exact_law checks sigma as mc_run does
            ks = oracle.kolmogorov_from_atoms(*oracle.exact_law(walk, sigma))
            summary = harness.EmpiricalSummary(
                statistic=spec.statistic, reps=0, ks=ks, ks_band=0.0,
                rejected=0,
            )
        else:
            sys = built.system() if spec.statistic in statistics.READS_VALUES else None
            summary = harness.mc_run(
                f, spec.statistic, spec.mode["reps"], spec.seed,
                sigma=sigma, sys=sys, path=(gi,), threads=threads,
            )
        if walk is not None and walk.X is not None:
            failures.extend(
                f"n={n}: {v}" for v in oracle.check_ld_independence(built.system(), walk)
            )
        elif spec.assertions["require_ld"]:  # fails closed past the enumeration cap
            count = f.outcome_count()
            why = ("continuous sources" if count is None
                   else f"{count} outcomes over the cap of {LD_CAP}")
            failures.append(f"n={n}: LD test not run: {why}")
        del walk  # not held into the next grid point
        per_n.append({"n": n, "table": table, "reports": reports, "summary": summary})

    fit = None
    if do_stat and len(per_n) >= 3:
        try:
            fit = harness.rate_fit([(e["n"], e["summary"].ks) for e in per_n])
        except LocdepError as e:
            failures.append(f"rate fit failed: {e}")

    ratio = None
    if do_stat and do_bounds and per_n and per_n[0]["reports"]:
        try:
            ratio = harness.ratio_table(
                [e["n"] for e in per_n],
                [e["summary"] for e in per_n],
                [e["reports"][0] for e in per_n],
            )
        except LocdepError as e:
            failures.append(f"ratio table failed: {e}")

    verdicts = []
    if do_checkers and spec.checkers:
        verdicts = oracle.run_checker_suite(
            spec.checkers["instances"], spec.seed,
            checks=spec.checkers["checks"],
            include_r4=spec.checkers["include_r4"],
        )
        bad = [v for v in verdicts if v.counts_as_failure]
        if bad and spec.assertions["require_zero_check_failures"]:
            failures.extend(
                f"checker failure: {v.check_id} {v.digest} margin={v.margin:g}" for v in bad[:20]
            )

    if do_stat:
        failures.extend(_check_assertions(spec, per_n, fit, ratio))
    return {
        "per_n": per_n, "fit": fit, "ratio": ratio, "verdicts": verdicts,
        "failures": failures,
    }


def _check_assertions(spec: ExperimentSpec, per_n, fit, ratio) -> list[str]:
    out = []
    asserts = spec.assertions
    if asserts["slope_range"] is not None:
        lo, hi = asserts["slope_range"]
        if fit is None:
            out.append("slope asserted but no rate fit available")
        elif not (lo <= fit.slope <= hi):
            out.append(f"slope {fit.slope:.4f} outside [{lo}, {hi}]")
    if asserts["max_ratio_spread"] is not None and ratio is not None:
        if not ratio.finite:
            out.append("ratio table has non-finite entries")
        elif ratio.spread >= asserts["max_ratio_spread"]:
            out.append(f"ratio spread {ratio.spread:.3f} >= {asserts['max_ratio_spread']}")
    if asserts["max_ks"] is not None:
        for e in per_n:
            if e["summary"].ks > asserts["max_ks"]:
                out.append(f"ks={e['summary'].ks:.4f} at n={e['n']} exceeds {asserts['max_ks']}")
    if asserts["zero_rejections"]:
        for e in per_n:
            if e["summary"].rejected:
                out.append(f"{e['summary'].rejected} rejections at n={e['n']}")
    if asserts["ks_decreasing"]:
        ks = [e["summary"].ks for e in per_n]
        if any(b >= a for a, b in zip(ks, ks[1:])):
            out.append(f"ks values not strictly decreasing: {ks}")
    return out


# ---------------------------------------------------------------------------
# Artifacts


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_artifacts(spec: ExperimentSpec, result: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(spec.raw)
    stamp = f"# config_hash={chash} seed={spec.seed}"

    with (out_dir / "moments.csv").open("wb") as fh:
        fh.write(f"{stamp}\n".encode())
        for e in result["per_n"]:
            fh.write(f"# n={e['n']}\n".encode())
            moments.write_csv(fh, e["table"])

    bound_doc = {
        "config_hash": chash,
        "seed": spec.seed,
        "per_n": [
            {
                "n": e["n"],
                "reports": [r.to_json_dict() for r in e["reports"]],
                "moments_header": moments.table_header(e["table"]),
            }
            for e in result["per_n"]
        ],
    }
    (out_dir / "bounds.json").write_text(json.dumps(bound_doc, indent=2) + "\n")

    grid_rows = [stamp, "n,theorem,term,value"]
    for e in result["per_n"]:
        for r in e["reports"]:
            grid_rows.append(f"{e['n']},{r.theorem},total,{r.value:.17g}")
            for term, val in r.terms.items():
                grid_rows.append(f"{e['n']},{r.theorem},{term},{val:.17g}")
    (out_dir / "bounds_grid.csv").write_text("\n".join(grid_rows) + "\n")

    rows = [stamp, "family,n,statistic,R,ks,ks_band,rejected,slope"]
    slope = result["fit"].slope if result["fit"] else float("nan")
    for e in result["per_n"]:
        s = e["summary"]
        if s is None:
            continue
        rows.append(
            f"{spec.family},{e['n']},{s.statistic},{s.reps},{s.ks:.17g},"
            f"{s.ks_band:.17g},{s.rejected},{slope:.17g}"
        )
    (out_dir / "summary.csv").write_text("\n".join(rows) + "\n")

    vrows = [stamp] + oracle.verdicts_to_csv_rows(result["verdicts"])
    (out_dir / "verdicts.csv").write_text("\n".join(vrows) + "\n")

    plot = [stamp, "log_n,log_ks,fitted_log_ks"]
    if result["fit"]:
        fit = result["fit"]
        for n, k in zip(fit.ns, fit.ks):
            fitted = fit.slope * math.log(n) + fit.intercept
            plot.append(f"{math.log(n):.17g},{math.log(k):.17g},{fitted:.17g}")
    (out_dir / "rate_plot.csv").write_text("\n".join(plot) + "\n")

    manifest = {
        "version": __version__,
        "seed": spec.seed,
        "config_hash": chash,
        "created_unix": int(time.time()),
        "failures": result["failures"],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Entry points


def _load_spec(path: str, overrides: argparse.Namespace) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("$", f"spec file not found: {path}") from None
    except OSError as e:
        raise ConfigError("$", f"cannot read spec file {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError("$", f"spec file {path} is not UTF-8 ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ConfigError("$", f"invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
    spec = parse_spec(doc)
    if getattr(overrides, "seed", None) is not None:
        spec.seed = SEED(overrides.seed, "--seed")
    if getattr(overrides, "out", None) is not None:
        spec.out = overrides.out
    return spec


def _threads(args: argparse.Namespace) -> int:
    """Monte-Carlo worker threads (the checker suite runs in one): --threads,
    a positive int, else the core count."""
    if args.threads is not None:
        return _integer(1)(args.threads, "--threads")
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="locdep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="experiment config JSON")
        p.add_argument("--threads", type=int, default=None, help="Monte-Carlo worker threads")
        p.add_argument("--seed", type=int, default=None, help="override spec seed")
        p.add_argument("--out", default=None, help="override output directory")

    for name in ("run", "derive", "bound", "oracle", "mc"):
        add_common(sub.add_parser(name))

    pc = sub.add_parser("count", help="naive counting oracles")
    pc.add_argument("kind", choices=("word", "pattern", "subgraph"))
    pc.add_argument("--string", help="host string (word)")
    pc.add_argument("--word", help="word to count")
    pc.add_argument("--perm", help="comma-separated permutation (pattern)")
    pc.add_argument("--tau", help="comma-separated pattern (pattern)")
    pc.add_argument("--gaps", default="", help="comma-separated gaps, 'inf' allowed")
    pc.add_argument("--exact-gaps", action="store_true")
    pc.add_argument("--host-edges", help="semicolon-separated host edges u,v (subgraph)")
    pc.add_argument("--host-n", type=int, help="host vertex count (subgraph)")
    pc.add_argument("--pattern", default="triangle", help="edge|path3|triangle (subgraph)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return 2
    except LocdepError as e:
        print(f"error: {type(e).__name__}: {e}", file=_sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "count":
        return _run_count(args)
    spec = _load_spec(args.spec, args)
    threads = _threads(args)
    if args.command == "derive":
        for n in spec.grid:
            built = build_family(spec.family, spec.params, n)
            try:
                der = built.derived()
            except ComplexityCapExceeded:
                print(f"n={n}: system too large to materialize")
            else:
                print(f"n={n}: kappa={der.kappa} tau={der.tau}")
        return 0
    if args.command == "oracle" and spec.checkers is None:
        spec.checkers = CHECKERS({}, "$.checkers")
    # out is made before the grid runs, so that one that cannot be made
    # fails first, and what it made goes again if the run raises
    out_dir = Path(spec.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError("$.out", f"cannot create {out_dir}: {e.strerror or e}") from None
    try:
        result = run_experiment(
            spec, threads=threads, do_bounds=args.command in ("run", "bound"),
            do_stat=args.command in ("run", "mc"), do_checkers=args.command in ("run", "oracle"),
        )
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    write_artifacts(spec, result, out_dir)
    for f in result["failures"]:
        print(f"FAIL: {f}", file=_sys.stderr)
    if result["fit"]:
        print(f"slope={result['fit'].slope:.4f}")
    if result["ratio"]:
        print(f"ratio spread={result['ratio'].spread:.4f}")
    print(f"artifacts in {out_dir}")
    return 1 if result["failures"] else 0


def _cli_int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigError(flag, f"expected an integer, got {token!r}") from None


def _run_count(args: argparse.Namespace) -> int:
    tokens = [g.strip() for g in args.gaps.split(",")] if args.gaps else []
    gaps = tuple(GAPS([None if g == "inf" else _cli_int(g, "--gaps") for g in tokens], "--gaps"))
    if args.kind == "word":
        if not args.string or not args.word:
            raise ConfigError("count", "word counting needs --string and --word")
        count = lambda: fields.count_word_occurrences(
            list(args.string), list(args.word), gaps, exact_gaps=args.exact_gaps
        )
    elif args.kind == "pattern":
        if not args.perm or not args.tau:
            raise ConfigError("count", "pattern counting needs --perm and --tau")
        perm = [_cli_int(x, "--perm") for x in args.perm.split(",")]
        tau = [_cli_int(x, "--tau") for x in args.tau.split(",")]
        count = lambda: statistics.count_pattern_occurrences(
            perm, tau, gaps, exact_gaps=args.exact_gaps
        )
    else:
        if not args.host_edges or (args.host_n or 0) < 1:
            raise ConfigError("count", "subgraph counting needs --host-edges and --host-n >= 1")
        adj = np.zeros((args.host_n, args.host_n), dtype=int)
        for part in args.host_edges.split(";"):
            edge = [_cli_int(x, "--host-edges") for x in part.split(",")]
            if len(edge) != 2 or not all(0 <= x < args.host_n for x in edge):
                raise ConfigError(
                    "--host-edges", f"expected u,v with 0 <= u, v < {args.host_n}, got {part!r}"
                )
            adj[edge[0], edge[1]] = adj[edge[1], edge[0]] = 1
        pattern = PATTERNS[_choice(PATTERNS)(args.pattern, "--pattern")]
        count = lambda: "{} {}".format(*statistics.subgraph_statistic(adj, pattern))
    try:
        print(count())
    except ValueError as e:  # arguments the counting oracle refuses
        raise ConfigError("count", str(e)) from None
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
