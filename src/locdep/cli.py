"""Experiment configuration, orchestration, and the ``locdep`` CLI.

One JSON document describes an experiment: a field family with its
parameters, a size grid, a statistic, an evaluation mode (exact or
Monte-Carlo), the bound shapes to evaluate, optional checker suites, and
optional acceptance assertions.  ``locdep run`` produces a moments CSV,
a bound-report JSON, a summary CSV, a verdict CSV, and a gnuplot-ready
rate-plot file, then exits 0 iff all configured assertions pass (2 on
schema errors, 1 on assertion failures).

Subcommands ``derive``, ``bound``, ``oracle``, ``mc`` run single stages;
``count`` exposes the naive counting oracles.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, bounds, fields, harness, moments, neighborhood, oracle, statistics
from .errors import ComplexityCapExceeded, ConfigError, LocdepError

FAMILIES = ("iid", "m_dependent", "graph", "ustat", "constrained_ustat", "decorated_graph")
STATISTICS = ("w1", "w2", "w2bar", "sum")


# ---------------------------------------------------------------------------
# Config parsing


@dataclass
class ExperimentSpec:
    family: str
    params: dict
    grid: list[int]
    statistic: str
    mode: str  # "exact" | "mc"
    reps: int
    bound_set: list[str]
    checkers: dict | None
    seed: int
    out: str
    assertions: dict
    raw: dict = dc_field(default_factory=dict)


NUMBER = (int, float)


def _need(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}", "missing required field")
    val = doc[key]
    if kind in (int, NUMBER) and isinstance(val, bool):
        raise ConfigError(f"{where}.{key}", "expected a number, got boolean")
    if not isinstance(val, kind):
        expected = getattr(kind, "__name__", "number")
        raise ConfigError(f"{where}.{key}", f"expected {expected}, got {type(val).__name__}")
    return val


# bounds every family takes; the others need a family's own parameters
GENERIC_BOUNDS = ("main", "self_normalized", "general_beta")
FAMILY_BOUNDS = {
    "graph": ("graph",),
    "ustat": ("distributed_u", "distributed_general"),
    "constrained_ustat": ("constrained_u",),
    "decorated_graph": ("decorated",),
}

DEFAULT_BOUNDS = {
    "iid": ["main", "self_normalized"],
    "m_dependent": ["main", "self_normalized"],
    "graph": ["graph"],
    "ustat": ["distributed_u", "distributed_general"],
    "constrained_ustat": ["constrained_u"],
    "decorated_graph": ["decorated"],
}


def parse_spec(doc: dict) -> ExperimentSpec:
    family = _need(doc, "family", str, "$")
    if family not in FAMILIES:
        raise ConfigError("$.family", f"unknown family {family!r}; one of {FAMILIES}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("$.params", "expected object")
    grid = _need(doc, "grid", list, "$")
    if not grid or not all(isinstance(n, int) and n >= 1 for n in grid):
        raise ConfigError("$.grid", "expected nonempty list of positive integers")
    statistic = doc.get("statistic", "w1")
    if statistic not in STATISTICS:
        raise ConfigError("$.statistic", f"unknown statistic {statistic!r}")
    mode_doc = doc.get("mode", {"kind": "mc", "reps": 10**4})
    if not isinstance(mode_doc, dict) or mode_doc.get("kind") not in ("exact", "mc"):
        raise ConfigError("$.mode.kind", "expected 'exact' or 'mc'")
    mode = mode_doc["kind"]
    reps = _need(mode_doc, "reps", int, "$.mode") if "reps" in mode_doc else 10**4
    if mode == "mc" and reps < 10**3:
        raise ConfigError("$.mode.reps", f"mc mode needs reps >= 1000, got {reps}")
    bound_set = doc.get("bounds", DEFAULT_BOUNDS[family])
    if not isinstance(bound_set, list):
        raise ConfigError("$.bounds", "expected list of bound names")
    allowed = GENERIC_BOUNDS + FAMILY_BOUNDS.get(family, ())
    for name in bound_set:
        if name not in allowed:
            raise ConfigError(
                "$.bounds", f"bound {name!r} is not defined for family {family!r}; one of {allowed}"
            )
    checkers = doc.get("checkers")
    if checkers is not None and not isinstance(checkers, dict):
        raise ConfigError("$.checkers", "expected object or null")
    if checkers is not None and "instances" in checkers:
        _need(checkers, "instances", int, "$.checkers")
    seed = _need(doc, "seed", int, "$")
    out = doc.get("out", "locdep-out")
    assertions = doc.get("assertions", {})
    if not isinstance(assertions, dict):
        raise ConfigError("$.assertions", "expected object")
    if "slope_range" in assertions:
        window = _need(assertions, "slope_range", list, "$.assertions")
        if len(window) != 2 or any(isinstance(x, bool) or not isinstance(x, NUMBER) for x in window):
            raise ConfigError("$.assertions.slope_range", "expected two numbers [lo, hi]")
    for key in ("max_ratio_spread", "max_ks"):
        if key in assertions:
            _need(assertions, key, NUMBER, "$.assertions")
    return ExperimentSpec(
        family=family, params=params, grid=[int(n) for n in grid],
        statistic=statistic, mode=mode, reps=reps, bound_set=bound_set,
        checkers=checkers, seed=seed, out=str(out), assertions=assertions, raw=doc,
    )


def parse_source(doc, where: str) -> fields.Source:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(where, "expected source object with 'kind'")
    kind = doc["kind"]
    try:
        if kind == "rademacher":
            return fields.rademacher()
        if kind == "bernoulli":
            return fields.bernoulli(float(doc["p"]))
        if kind == "three_point":
            return fields.three_point(
                float(doc.get("spread", 1.0)), float(doc.get("p_zero", 0.5))
            )
        if kind == "letters":
            return fields.uniform_letters(int(doc["k"]))
        if kind in ("uniform", "normal"):
            return fields.ContinuousSource(kind)
    except KeyError as e:
        raise ConfigError(where, f"source kind {kind!r} missing parameter {e}") from None
    raise ConfigError(where, f"unknown source kind {kind!r}")


def _parse_gaps(doc, where: str) -> tuple[int | None, ...]:
    if not isinstance(doc, list):
        raise ConfigError(where, "expected list of gaps (int or 'inf')")
    out = []
    for k, g in enumerate(doc):
        if g in ("inf", None):
            out.append(None)
        elif isinstance(g, int) and g >= 1:
            out.append(g)
        else:
            raise ConfigError(f"{where}[{k}]", f"gap must be a positive int or 'inf', got {g!r}")
    return tuple(out)


KERNELS = {
    "product": lambda *cols: math.prod(cols) if not cols else _prod(cols),
    "sum": lambda *cols: sum(cols),
    "diff_sq_half": lambda x, y: (x - y) ** 2 / 2.0,
}


def _prod(cols):
    out = cols[0]
    for c in cols[1:]:
        out = out * c
    return out


PATTERNS = {
    "edge": [(0, 1)],
    "path3": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (0, 2), (1, 2)],
}


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


@dataclass
class BuiltInstance:
    """A field at one grid size plus what the bound shapes need."""

    field: fields.LatentSourceField
    info: dict


def build_family(family: str, params: dict, n: int, where: str = "$.params") -> BuiltInstance:
    """Construct the configured family at grid size n."""
    try:
        if family == "iid":
            source = parse_source(params.get("source", {"kind": "rademacher"}), f"{where}.source")
            return BuiltInstance(fields.build_iid_field(n, source), {})
        if family == "m_dependent":
            m = int(params.get("m", 1))
            source = parse_source(params.get("source", {"kind": "rademacher"}), f"{where}.source")
            return BuiltInstance(fields.build_m_dependent(n, m, source), {"m": m})
        if family == "graph":
            kind = params.get("graph", "cycle")
            source = parse_source(params.get("source", {"kind": "rademacher"}), f"{where}.source")
            if kind == "cycle":
                edges = cycle_edges(n)
            elif kind == "star":
                edges = star_edges(n)
            elif kind == "edgeless":
                edges = []
            elif kind == "explicit":
                edges = [tuple(e) for e in params.get("edges", [])]
            else:
                raise ConfigError(f"{where}.graph", f"unknown graph kind {kind!r}")
            f = fields.build_graph_dependency(n, edges, source)
            return BuiltInstance(f, {"d": f.metadata["max_degree"] - 1})
        if family == "ustat":
            m = int(params.get("m", 2))
            k = int(params.get("k", 1))
            if k < 1 or n < k * m:
                raise ConfigError(f"{where}.k", f"need k >= 1 and n >= k*m, got k={k}, n={n}")
            kern_name = params.get("kernel", "product")
            if kern_name not in KERNELS:
                raise ConfigError(f"{where}.kernel", f"unknown kernel {kern_name!r}")
            kernel = KERNELS[kern_name]
            source = parse_source(params.get("source", {"kind": "three_point"}), f"{where}.source")
            sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
            f = fields.build_ustat_field(sizes, m, kernel, source)
            return BuiltInstance(
                f, {"m": m, "block_sizes": sizes, "kernel": kernel, "source": source}
            )
        if family == "constrained_ustat":
            gaps = _parse_gaps(params.get("gaps", [None]), f"{where}.gaps")
            if "word" in params:
                word = [ord(ch) - ord("a") for ch in params["word"]]
                alpha = int(params.get("alphabet", 26))
                f = fields.build_word_field(word, n, alpha, gaps)
            elif "pattern" in params:
                f = fields.build_pattern_field(n, [int(x) for x in params["pattern"]], gaps)
            else:
                raise ConfigError(where, "constrained_ustat needs 'word' or 'pattern'")
            return BuiltInstance(f, {"b": f.metadata["b"]})
        if family == "decorated_graph":
            pat = params.get("pattern", "triangle")
            edges = PATTERNS[pat] if isinstance(pat, str) and pat in PATTERNS else [
                tuple(e) for e in pat
            ]
            p = float(params.get("p", 0.5))
            f = fields.build_decorated_graph_field(n, edges, fields.bernoulli(p))
            return BuiltInstance(f, {"v": f.metadata["v"], "p": p})
    except LocdepError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(where, f"bad parameters for family {family!r}: {e}") from None
    raise ConfigError("$.family", f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Orchestration


def _moment_table_for(built: BuiltInstance, spec: ExperimentSpec, n: int,
                      cap: int = fields.DEFAULT_ENUM_CAP):
    f = built.field
    count = f.outcome_count()
    if count is not None and count <= min(cap, 2**20):
        sys = fields.induced_neighborhoods(f)
        table = moments.exact_moment_table(f, sys, cap=cap)
    elif f.is_enumerable():
        table = moments.exact_moment_table(f, sigma2_mode="local")
    else:
        table = moments.mc_moment_table(f, reps=max(spec.reps // 10, 1000), master_seed=spec.seed)
    if "sigma2" in spec.params:
        # closed-form variance supplied by the experiment; provenance recorded
        table.sigma2 = float(spec.params["sigma2"])
        table.extras["sigma2_provenance"] = "config"
    return table


def _derive_system(built: BuiltInstance, spec: ExperimentSpec, cap_terms: int = 10**7):
    """(system, derived): the declared or induced neighborhoods.  Raises
    :class:`ComplexityCapExceeded` when the induced system exceeds
    ``cap_terms`` neighbor entries."""
    declared = spec.params.get("declared_A")
    if declared is not None:
        # user-declared neighborhoods: accepted, but independence is only
        # verified when the LD assertion is switched on
        sys = neighborhood.make_system([tuple(x) for x in declared])
    else:
        sys = fields.induced_neighborhoods(built.field, cap_terms=cap_terms)
    return sys, neighborhood.derive(sys)


def evaluate_bounds(
    built: BuiltInstance, spec: ExperimentSpec, n: int, table
) -> list[bounds.BoundReport]:
    reports = []
    declared = "declared_A" in spec.params
    sys = der = None
    for name in spec.bound_set:
        if name in GENERIC_BOUNDS and sys is None:
            sys, der = _derive_system(built, spec)
        if name == "main":
            reports.append(bounds.bound_main(table, der.kappa, der.tau))
        elif name == "self_normalized":
            reports.append(bounds.bound_self_normalized(table, der.kappa, der.tau))
        elif name == "general_beta":
            reports.append(bounds.bound_general_beta(table, sys, der))
        elif name == "graph":
            reports.append(bounds.bound_graph(table, built.info["d"]))
        elif name == "constrained_u":
            reports.append(bounds.bound_constrained_u(table, n, built.info["b"]))
        elif name == "decorated":
            reports.append(bounds.bound_decorated(table, n, built.info["v"]))
        elif name == "distributed_u":
            km = moments.hoeffding_sigma1(
                built.info["kernel"], built.info["m"], built.info["source"]
            )
            reports.append(
                bounds.bound_distributed_u(km, n, built.info["m"], built.info["block_sizes"])
            )
        elif name == "distributed_general":
            reports.append(_distributed_general_report(built, table))
        if declared:
            reports[-1].inputs["independence"] = "unverified (declared neighborhoods)"
    return reports


def _distributed_general_report(built: BuiltInstance, table) -> bounds.BoundReport:
    f = built.field
    slices = f.metadata["block_slices"]
    block_tables = []
    kappas = []
    taus = []
    for (lo, hi) in slices:
        sub = moments.MomentTable(
            l2=table.l2[lo:hi], l3=table.l3[lo:hi], l4=table.l4[lo:hi],
            sigma2=table.sigma2, mode=table.mode,
        )
        block_tables.append(sub)
        block = dataclasses.replace(
            f, supports=f.supports[lo:hi], params=tuple(p[lo:hi] for p in f.params),
            means=f.means[lo:hi], metadata={},
        )
        der_b = neighborhood.derive(fields.induced_neighborhoods(block))
        kappas.append(der_b.kappa)
        taus.append(der_b.tau)
    return bounds.bound_distributed_general(block_tables, kappas, taus, table.sigma)


def run_experiment(
    spec: ExperimentSpec,
    threads: int = 1,
    cap: int = fields.DEFAULT_ENUM_CAP,
    do_bounds: bool = True,
    do_stat: bool = True,
    do_checkers: bool = True,
) -> dict:
    """Execute the experiment; returns the result bundle for artifact emission."""
    per_n = []
    failures: list[str] = []
    for gi, n in enumerate(spec.grid):
        built = build_family(spec.family, spec.params, n)
        table = _moment_table_for(built, spec, n, cap=cap)
        reports = evaluate_bounds(built, spec, n, table) if do_bounds else []
        sigma = table.sigma if not table.degenerate else None
        if not do_stat:
            summary = None
        elif spec.mode == "exact":
            ks = oracle.exact_kolmogorov(built.field, spec.statistic, sigma=sigma, cap=cap)
            summary = harness.EmpiricalSummary(
                statistic=spec.statistic, reps=0, ks=ks, ks_band=0.0,
                rejected=0, mean=float("nan"), var=float("nan"), m4=float("nan"),
                extras={"exact": True},
            )
        else:
            summary = harness.mc_run(
                built.field, spec.statistic, spec.reps, spec.seed,
                sigma=sigma, path=(gi,), threads=threads,
            )
        per_n.append({"n": n, "built": built, "table": table, "reports": reports, "summary": summary})

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
        count = spec.checkers.get("instances", 50)
        checks = spec.checkers.get("checks", list(oracle.SUITE_CHECKS))
        verdicts = oracle.run_checker_suite(
            count, spec.seed, checks=checks,
            include_r4=bool(spec.checkers.get("include_r4", False)),
            threads=threads,
        )
        bad = [v for v in verdicts if v.counts_as_failure]
        if bad and spec.assertions.get("require_zero_check_failures", True):
            failures.extend(
                f"checker failure: {v.check_id} {v.digest} margin={v.margin:g}" for v in bad[:20]
            )

    if spec.assertions.get("require_ld", False):
        for e in per_n:
            f = e["built"].field
            if f.is_enumerable() and (f.outcome_count() or 0) <= 2**16:
                sysn = fields.induced_neighborhoods(f)
                declared = spec.params.get("declared_A")
                if declared is not None:
                    sysn = neighborhood.make_system([tuple(x) for x in declared])
                viol = oracle.check_ld_independence(f, sysn)
                failures.extend(f"n={e['n']}: {v}" for v in viol)

    if do_stat:
        failures.extend(_check_assertions(spec, per_n, fit, ratio))
    return {
        "per_n": per_n, "fit": fit, "ratio": ratio, "verdicts": verdicts,
        "failures": failures,
    }


def _check_assertions(spec: ExperimentSpec, per_n, fit, ratio) -> list[str]:
    out = []
    asserts = spec.assertions
    if "slope_range" in asserts:
        lo, hi = asserts["slope_range"]
        if fit is None:
            out.append("slope asserted but no rate fit available")
        elif not (lo <= fit.slope <= hi):
            out.append(f"slope {fit.slope:.4f} outside [{lo}, {hi}]")
    if "max_ratio_spread" in asserts and ratio is not None:
        if not ratio.finite:
            out.append("ratio table has non-finite entries")
        elif ratio.spread >= float(asserts["max_ratio_spread"]):
            out.append(f"ratio spread {ratio.spread:.3f} >= {asserts['max_ratio_spread']}")
    if "max_ks" in asserts:
        for e in per_n:
            if e["summary"].ks > float(asserts["max_ks"]):
                out.append(f"ks={e['summary'].ks:.4f} at n={e['n']} exceeds {asserts['max_ks']}")
    if asserts.get("zero_rejections", False):
        for e in per_n:
            if e["summary"].rejected:
                out.append(f"{e['summary'].rejected} rejections at n={e['n']}")
    if asserts.get("ks_decreasing", False):
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

    lines = [stamp]
    for e in result["per_n"]:
        lines.append(f"# n={e['n']}")
        lines.extend(moments.table_to_csv_rows(e["table"]))
    (out_dir / "moments.csv").write_text("\n".join(lines) + "\n")

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
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("$", f"spec file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError("$", f"invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
    spec = parse_spec(doc)
    if getattr(overrides, "seed", None) is not None:
        spec.seed = overrides.seed
    if getattr(overrides, "out", None) is not None:
        spec.out = overrides.out
    return spec


def _threads(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None):
        return args.threads
    env = os.environ.get("LOCDEP_THREADS")
    if env and env.isdigit():
        return int(env)
    return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="locdep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="experiment config JSON")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None, help="override spec seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--cap", type=int, default=fields.DEFAULT_ENUM_CAP,
                       help="enumeration cap (outcomes)")

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
                _, der = _derive_system(built, spec)
            except ComplexityCapExceeded:
                print(f"n={n}: system too large to materialize")
            else:
                print(f"n={n}: kappa={der.kappa} tau={der.tau}")
        return 0
    if args.command in ("bound", "mc", "oracle", "run"):
        stages = {
            "run": dict(do_bounds=True, do_stat=True, do_checkers=True),
            "bound": dict(do_bounds=True, do_stat=False, do_checkers=False),
            "mc": dict(do_bounds=False, do_stat=True, do_checkers=False),
            "oracle": dict(do_bounds=False, do_stat=False, do_checkers=True),
        }[args.command]
        if args.command == "oracle" and spec.checkers is None:
            spec.checkers = {"instances": 50}
        result = run_experiment(spec, threads=threads, cap=args.cap, **stages)
        out_dir = Path(spec.out)
        write_artifacts(spec, result, out_dir)
        for f in result["failures"]:
            print(f"FAIL: {f}", file=_sys.stderr)
        if result["fit"]:
            print(f"slope={result['fit'].slope:.4f}")
        if result["ratio"]:
            print(f"ratio spread={result['ratio'].spread:.4f}")
        print(f"artifacts in {out_dir}")
        return 1 if result["failures"] else 0
    raise ConfigError("$", f"unknown command {args.command}")


def _parse_cli_gaps(text: str) -> tuple[int | None, ...]:
    if not text:
        return ()
    return tuple(None if g.strip() == "inf" else int(g) for g in text.split(","))


def _run_count(args: argparse.Namespace) -> int:
    gaps = _parse_cli_gaps(args.gaps)
    if args.kind == "word":
        if not args.string or not args.word:
            raise ConfigError("count", "word counting needs --string and --word")
        n = statistics.count_word_occurrences(
            list(args.string), list(args.word), gaps, exact_gaps=args.exact_gaps
        )
        print(n)
        return 0
    if args.kind == "pattern":
        if not args.perm or not args.tau:
            raise ConfigError("count", "pattern counting needs --perm and --tau")
        perm = [int(x) for x in args.perm.split(",")]
        tau = [int(x) for x in args.tau.split(",")]
        print(statistics.count_pattern_occurrences(perm, tau, gaps, exact_gaps=args.exact_gaps))
        return 0
    if args.kind == "subgraph":
        if not args.host_edges or not args.host_n:
            raise ConfigError("count", "subgraph counting needs --host-edges and --host-n")
        adj = np.zeros((args.host_n, args.host_n), dtype=int)
        for part in args.host_edges.split(";"):
            u, v = (int(x) for x in part.split(","))
            adj[u, v] = adj[v, u] = 1
        pattern = PATTERNS.get(args.pattern)
        if pattern is None:
            raise ConfigError("count", f"unknown pattern {args.pattern!r}")
        inj, copies = statistics.subgraph_statistic(adj, pattern)
        print(f"{inj} {copies}")
        return 0
    raise ConfigError("count", f"unknown count kind {args.kind!r}")


if __name__ == "__main__":
    raise SystemExit(main())
