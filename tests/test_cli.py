"""CLI and config-contract tests.

Core claims:
    - a minimal spec produces the artifact set and exits 0
    - schema errors exit 2 with field diagnostics; assertion failures
      (including deliberately wrong declared neighborhoods) exit 1; a spec
      path that is a directory or not UTF-8, and an out that cannot be
      created, exit 2 before the grid runs
    - re-running a spec reproduces byte-identical CSV bodies, and every
      artifact embeds the config hash and seed
    - counting subcommands expose the naive oracles
    - declared neighborhoods are checked (one list per index, integer ids
      in [0, n), i in A_i) and a bad declaration exits 2; W2 and W2bar
      read them
    - a grid point builds its neighborhood system at most once, only when
      a consumer asks for it, and an induced system over the cap exits 1
    - a grid point walks its outcome space at most once: the table's
      Var(S), the exact law and the LD test share the walk
    - the graph bound at maximal degree 0 exits 2 naming ``$.params.graph``
    - the checkers block takes a list of known check names and a boolean
      include_r4, family and source parameters are read with their types
      (a pattern of ints, explicit edges as in-range int pairs, a word in
      its alphabet), and malformed count arguments (a --perm or --tau that
      is not a permutation among them) exit 2; none runs a config other
      than the one written
    - an unknown key at any level (``sigma2`` among them: Var(S) always
      comes from the field), a wrong-typed value (a boolean is never a
      number), a grid that is not strictly increasing, a seed outside
      [0, 2^64) and a --threads that is not a positive int exit 2 naming
      the JSON path or flag; a --cap flag exits 2, and LOCDEP_THREADS is
      not read
    - the example configs and the benchmark's specs parse under the schema
    - mutated example configs exit 0, 1 or 2 under derive and bound,
      never with a traceback, and exit 2 when a key is unknown or the
      seed out of range
    - a grid size below the family's smallest n exits 2 naming ``$.grid``
      (``$.params.k`` for the distributed U-statistic)
    - an exact U-statistic run of each kernel gives the same ks and
      table Var(S), within 1e-12, from its blocks' power sums as from
      gathering every index
    - ``verdicts.csv`` reads back with the csv module, digests and all
    - importing the CLI, or running a W2 spec (Monte-Carlo or exact), loads
      no scipy module, and ``python -m locdep`` runs the CLI
    - ``require_ld`` fails a grid point past its enumeration cap
      (``LD_CAP``, 2^16) as untested
    - a ratio spread over its assertion, and a bound shape that is not
      positive, exit 1 naming the ratio table's failure; a spread
      assertion with no bound shape to check it on exits 2
    - a grid point takes an exact Var(S) within TABLE_CAP outcomes and a
      hybrid table past it, in the exact and Monte-Carlo modes alike, for
      sum and other fields
    - a grid point with Var(S) = 0 exits 1 from the statistic's sigma
      check in the exact and Monte-Carlo modes alike, after one moment
      table; non-finite moments exit 1 before any bound reads them; an
      index whose local grid passes the byte cap exits 1 naming it
    - the benchmark's self-check passes against the package as it stands
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import locdep.cli as cli
import locdep.fields as fields
import locdep.moments as moments
import locdep.neighborhood as nb
import locdep.oracle as oracle
import locdep.statistics as statistics


def write_spec(tmp_path: Path, doc: dict) -> str:
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return str(p)


def minimal_spec(tmp_path: Path, **overrides) -> dict:
    doc = {
        "family": "iid",
        "params": {"source": {"kind": "rademacher"}},
        "grid": [6],
        "statistic": "w1",
        "mode": {"kind": "exact"},
        "seed": 42,
        "out": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


ARTIFACTS = ["moments.csv", "bounds.json", "bounds_grid.csv", "summary.csv",
             "verdicts.csv", "rate_plot.csv", "manifest.json"]


def test_minimal_spec_produces_artifacts(tmp_path):
    spec = write_spec(tmp_path, minimal_spec(tmp_path))
    assert cli.main(["run", "--spec", spec]) == 0
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists()


def test_unknown_family_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, minimal_spec(tmp_path, family="mystery"))
    assert cli.main(["run", "--spec", spec]) == 2
    assert "family" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["run", "--spec", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def _spec_dir(tmp_path):
    return str(tmp_path)


def _spec_not_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    doc = minimal_spec(tmp_path, family="café")
    p.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    return str(p)


def _spec_out_under_a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return write_spec(tmp_path, minimal_spec(tmp_path, out=str(tmp_path / "file" / "out")))


@pytest.mark.parametrize("spec,where", [(_spec_dir, "$"), (_spec_not_utf8, "$"),
                                        (_spec_out_under_a_file, "$.out")],
                         ids=["directory", "not_utf8", "out_not_creatable"])
def test_unreadable_spec_or_out_exits_2_before_the_grid(tmp_path, capsys, monkeypatch, spec, where):
    """A spec path that is a directory or holds no UTF-8 text, and an out
    that cannot be created, exit 2 as config errors before any grid point
    runs."""
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("the grid ran"))
    assert cli.main(["run", "--spec", spec(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}:") and "Traceback" not in err


def test_missing_seed_exits_2(tmp_path):
    doc = minimal_spec(tmp_path)
    del doc["seed"]
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 2


def test_shrunk_neighborhoods_exit_1_citing_ld(tmp_path, capsys):
    doc = minimal_spec(tmp_path, family="m_dependent",
                       params={"m": 1, "source": {"kind": "rademacher"},
                               "declared_A": [[0], [0, 1, 2], [1, 2]]},
                       grid=[3],
                       assertions={"require_ld": True})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    assert "LD1" in capsys.readouterr().err


@pytest.mark.parametrize("n", [6, 12])
def test_require_ld_fails_closed_past_the_enumeration_cap(tmp_path, capsys, n):
    """Wrong declared neighborhoods (A_i = {i} on a 1-dependent field) fail
    LD2 where the outcome space is enumerable, and fail as untested past
    its cap instead of passing."""
    doc = minimal_spec(tmp_path, family="m_dependent",
                       params={"m": 1, "source": {"kind": "three_point"},
                               "declared_A": [[i] for i in range(n)]},
                       grid=[n], mode={"kind": "mc", "reps": 1000},
                       assertions={"require_ld": True})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    if n == 6:
        assert "n=6: LD2 fails" in err
    else:
        assert f"n=12: LD test not run: {3 ** 13} outcomes over the cap of {2 ** 16}" in err


RATIO_FAILURES = {
    "spread": ({"family": "m_dependent", "params": {"m": 1, "source": {"kind": "rademacher"}},
                "grid": [16, 64, 256], "mode": {"kind": "mc", "reps": 1000}, "seed": 1,
                "assertions": {"max_ratio_spread": 1.0}},
               ["FAIL: ratio spread ", " >= 1.0"]),
    "shape": ({"family": "decorated_graph", "params": {"p": 0}, "grid": [3, 4, 5],
               "statistic": "sum", "mode": {"kind": "exact"}},
              ["FAIL: ratio table failed: bound shape at n=3 is not positive"]),
}


@pytest.mark.parametrize("overrides,parts", RATIO_FAILURES.values(), ids=RATIO_FAILURES.keys())
def test_ratio_table_failures_exit_1(tmp_path, capsys, overrides, parts):
    """A ratio spread over its assertion, and a grid point whose bound
    shape is not positive, each exit 1 with one failure line."""
    assert cli.main(["run", "--spec", write_spec(tmp_path, minimal_spec(tmp_path, **overrides))]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(ln.startswith(parts[0]) and all(p in ln for p in parts)
               for ln in err.splitlines()), err


def test_rerun_reproduces_csv_bodies(tmp_path):
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    spec = write_spec(tmp_path, doc)
    assert cli.main(["run", "--spec", spec]) == 0
    first = {n: (tmp_path / "out" / n).read_bytes() for n in ARTIFACTS if n.endswith(".csv")}
    assert cli.main(["run", "--spec", spec]) == 0
    second = {n: (tmp_path / "out" / n).read_bytes() for n in first}
    assert first == second


def test_artifacts_embed_config_hash_and_seed(tmp_path):
    doc = minimal_spec(tmp_path)
    spec = write_spec(tmp_path, doc)
    cli.main(["run", "--spec", spec])
    chash = cli.config_hash(doc)
    for name in ("moments.csv", "summary.csv", "verdicts.csv", "rate_plot.csv"):
        head = (tmp_path / "out" / name).read_text().splitlines()[0]
        assert chash in head and "seed=42" in head
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == chash and manifest["seed"] == 42


def test_seed_override_changes_hashed_outputs(tmp_path):
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    spec = write_spec(tmp_path, doc)
    cli.main(["run", "--spec", spec])
    a = (tmp_path / "out" / "summary.csv").read_text()
    cli.main(["run", "--spec", spec, "--seed", "43"])
    b = (tmp_path / "out" / "summary.csv").read_text()
    assert a != b


def test_derive_subcommand(tmp_path, capsys):
    doc = minimal_spec(tmp_path, family="m_dependent",
                       params={"m": 1, "source": {"kind": "rademacher"}}, grid=[8])
    assert cli.main(["derive", "--spec", write_spec(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "kappa=4" in out and "tau=11" in out


def test_oracle_subcommand_writes_verdicts(tmp_path):
    doc = minimal_spec(tmp_path, checkers={"instances": 5})
    assert cli.main(["oracle", "--spec", write_spec(tmp_path, doc)]) == 0
    text = (tmp_path / "out" / "verdicts.csv").read_text()
    assert "prop1" in text and "fail" not in text.replace("failures", "")


def test_verdicts_csv_parses_as_csv(tmp_path):
    # the oracle config's digests hold commas; each row still reads as 7 fields
    config = Path(__file__).resolve().parent.parent / "configs" / "oracle_suite.json"
    doc = {**json.loads(config.read_text()), "out": str(tmp_path / "out")}
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    with open(tmp_path / "out" / "verdicts.csv", newline="") as fh:
        assert fh.readline().startswith("# config_hash=")
        rows = list(csv.DictReader(fh))
    assert len(rows) > 60 and any("," in r["digest"] for r in rows)
    for r in rows:
        assert len(r) == 7 and None not in r and None not in r.values(), r
        assert r["check"] in oracle.SUITE_CHECKS or r["check"].startswith("lemma_")
        assert r["verdict"] in ("pass", "fail")
        [float(r[k]) for k in ("lhs", "rhs", "margin")]


def test_mc_subcommand_fits_slope(tmp_path, capsys):
    doc = minimal_spec(
        tmp_path, grid=[16, 64, 256], mode={"kind": "mc", "reps": 5000},
        assertions={"slope_range": [-0.9, -0.2]},
    )
    assert cli.main(["mc", "--spec", write_spec(tmp_path, doc)]) == 0
    assert "slope=" in capsys.readouterr().out


def test_count_subcommands(capsys):
    assert cli.main(["count", "word", "--string", "abab", "--word", "ab",
                     "--gaps", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cli.main(["count", "word", "--string", "abab", "--word", "ab",
                     "--gaps", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["count", "pattern", "--perm", "3,2,1", "--tau", "2,1",
                     "--gaps", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cli.main(["count", "subgraph", "--host-n", "4", "--pattern", "triangle",
                     "--host-edges", "0,1;0,2;0,3;1,2;1,3;2,3"]) == 0
    assert capsys.readouterr().out.strip() == "24 4"


def test_threads_env_var_is_not_read(tmp_path, monkeypatch):
    """--threads alone sets the thread count: a LOCDEP_THREADS that is not
    a positive int is not read, so the run passes."""
    monkeypatch.setenv("LOCDEP_THREADS", "0")
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0


THREAD_CASES = {
    "flag_zero": ["--threads", "0"],
    "flag_negative": ["--threads", "-3"],
    "flag_word": ["--threads", "two"],
    "flag_fraction": ["--threads", "1.5"],
}


@pytest.mark.parametrize("argv", THREAD_CASES.values(), ids=THREAD_CASES.keys())
def test_bad_thread_count_exits_2(tmp_path, capsys, argv):
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    try:
        code = cli.main(["run", "--spec", write_spec(tmp_path, doc), *argv])
    except SystemExit as e:  # argparse refuses a flag value that is not an int
        code = e.code
    assert code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mc_subcommand_writes_summary(tmp_path):
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    assert cli.main(["mc", "--spec", write_spec(tmp_path, doc)]) == 0
    text = (tmp_path / "out" / "summary.csv").read_text()
    assert "iid,6,w1,2000," in text


def test_bound_subcommand_skips_statistics(tmp_path):
    doc = minimal_spec(tmp_path)
    assert cli.main(["bound", "--spec", write_spec(tmp_path, doc)]) == 0
    body = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(body) == 2  # stamp + header only
    grid = (tmp_path / "out" / "bounds_grid.csv").read_text()
    assert "6,main,total," in grid


# an exact-mode U-statistic run per kernel, N <= 12, on sources with
# theta != 0 and theta = 0, in equal and unequal blocks
USTAT_EXACT = {
    "product": ({"m": 3, "k": 2, "kernel": "product", "source": {"kind": "bernoulli", "p": 0.3}},
                [8, 11]),
    "sum": ({"m": 2, "k": 3, "kernel": "sum", "source": {"kind": "three_point"}}, [7, 9]),
    "diff_sq_half": ({"m": 2, "k": 1, "kernel": "diff_sq_half",
                      "source": {"kind": "letters", "k": 3}}, [6, 8]),
}


@pytest.mark.parametrize("name", USTAT_EXACT)
def test_exact_ustat_runs_move_only_by_rounding_without_block_sums(tmp_path, monkeypatch, name):
    params, grid = USTAT_EXACT[name]

    def run(out: str) -> tuple[list[float], list[float]]:
        """The exact ks and the table's Var(S) at each grid point."""
        doc = minimal_spec(tmp_path, family="ustat", params=params, grid=grid,
                           bounds=["distributed_general"], out=str(tmp_path / out))
        assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
        rows = list(csv.DictReader((tmp_path / out / "summary.csv").read_text().splitlines()[1:]))
        per_n = json.loads((tmp_path / out / "bounds.json").read_text())["per_n"]
        return [float(r["ks"]) for r in rows], [p["moments_header"]["sigma2"] for p in per_n]

    ks, sigma2 = run("block_sums")
    # the walk's S by gathering every index instead
    monkeypatch.setitem(cli.KERNELS, name, cli.KERNELS[name]._replace(block_sum=None))
    gather_ks, gather_sigma2 = run("gather")
    assert len(ks) == len(sigma2) == len(grid)
    assert ks == pytest.approx(gather_ks, rel=1e-12, abs=1e-12)
    assert sigma2 == pytest.approx(gather_sigma2, rel=1e-12, abs=1e-12)


def test_example_configs_parse(monkeypatch):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    found = sorted(config_dir.glob("*.json"))
    assert len(found) >= 6  # one annotated example per family
    for p in found:
        cli.parse_spec(json.loads(p.read_text()))
    # the benchmark's specs run through the same schema
    monkeypatch.syspath_prepend(str(config_dir.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        specs = workloads.specs(name, 0)
        assert specs
        for _, doc in specs:
            spec = cli.parse_spec(doc)
            assert cli.parse_spec({**doc, "params": spec.params}).params == spec.params


def test_declared_neighborhoods_flag_bound_reports(tmp_path):
    doc = minimal_spec(
        tmp_path, family="m_dependent",
        params={"m": 1, "source": {"kind": "rademacher"},
                "declared_A": [[0, 1], [0, 1, 2], [1, 2]]},
        grid=[3],
        bounds=["main"],
    )
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    bounds_doc = json.loads((tmp_path / "out" / "bounds.json").read_text())
    rep = bounds_doc["per_n"][0]["reports"][0]
    assert rep["inputs"]["independence"].startswith("unverified")


def test_capped_neighborhood_system_exits_1_naming_the_cap(tmp_path, capsys):
    doc = minimal_spec(tmp_path, family="decorated_graph",
                       params={"pattern": "triangle", "p": 0.3}, grid=[40],
                       mode={"kind": "mc", "reps": 1000}, bounds=["main"])
    assert cli.main(["bound", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "ComplexityCapExceeded" in err and "cap 10000000" in err


def test_w2_over_the_system_cap_exits_1_naming_the_cap(tmp_path, capsys):
    doc = minimal_spec(tmp_path, family="decorated_graph",
                       params={"pattern": "triangle", "p": 0.3}, grid=[40], statistic="w2",
                       mode={"kind": "mc", "reps": 1000})
    assert cli.main(["mc", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "ComplexityCapExceeded" in err and "cap 10000000" in err


IID = {"family": "iid", "grid": [3, 4, 5], "seed": 1}
NON_FINITE_CASES = {
    "tiny_bernoulli_p": ({**IID, "params": {"source": {"kind": "bernoulli", "p": 1e-300}}},
                         "NonFiniteBound: bound main"),
    "tiny_bernoulli_p_general_beta": ({**IID, "params": {"source": {"kind": "bernoulli",
                                                                    "p": 1e-300}},
                                       "bounds": ["general_beta"]},
                                      "NonFiniteBound: bound general_beta"),
    # the moments are checked before any bound reads them
    "huge_three_point_exact": ({**IID, "params": {"source": {"kind": "three_point", "spread": 1e200}},
                                "mode": {"kind": "exact"}}, "NonFiniteMoments: moments"),
}


def run_recording_warnings(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of ``cli.main(argv)`` and every RuntimeWarning it raised,
    each of which a plain run would print to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("doc,shape", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
def test_non_finite_bound_exits_1_naming_shape_and_n(tmp_path, capsys, doc, shape):
    """A shape that overflows, divides by zero or is not finite, or the
    moments it reads, ends the run with exit 1 and no artifacts, so no NaN
    or Infinity is written; no numpy RuntimeWarning is printed ahead of
    the error."""
    doc = {**doc, "out": str(tmp_path / "out")}
    code, runtime_warnings = run_recording_warnings(["run", "--spec", write_spec(tmp_path, doc)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{shape} at n=3" in err and "Traceback" not in err
    assert runtime_warnings == [] and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


def test_non_finite_moments_exit_1_naming_n(tmp_path, capsys):
    """Var(S) and the norms of an exact three-point field with spread
    1e200 overflow: the run stops at n = 3 with exit 1 and no artifacts,
    instead of writing inf norms and ks = 0.5 (W1 = S / inf), and prints
    no numpy RuntimeWarning ahead of the error.  With no bounds asked for
    the error is the same as with the family's defaults (the
    huge_three_point_exact case above)."""
    doc = {**IID, "params": {"source": {"kind": "three_point", "spread": 1e200}},
           "mode": {"kind": "exact"}, "bounds": [], "out": str(tmp_path / "out")}
    code, runtime_warnings = run_recording_warnings(["run", "--spec", write_spec(tmp_path, doc)])
    assert code == 1
    err = capsys.readouterr().err
    assert "NonFiniteMoments: moments at n=3: Var(S)=inf" in err and "Traceback" not in err
    assert runtime_warnings == [] and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", [{"kind": "exact"}, {"kind": "mc", "reps": 1000}])
def test_degenerate_grid_point_exits_1_as_both_modes_apply_sigma(tmp_path, capsys, monkeypatch,
                                                                  mode):
    """Triangle counts at p = 0 are 0, so Var(S) = 0.  Both modes stop at
    n = 3 with the error of the statistic's sigma check, and the exact
    mode builds the grid point's moment table once, as the MC mode does."""
    tables = []
    exact_moment_table = moments.exact_moment_table

    def counted(*args, **kwargs):
        tables.append(args[0].metadata["n"])
        return exact_moment_table(*args, **kwargs)

    monkeypatch.setattr(moments, "exact_moment_table", counted)  # the one module that binds it
    doc = minimal_spec(tmp_path, family="decorated_graph", params={"p": 0}, grid=[3, 4, 5],
                       mode=mode)
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "DegenerateVariance: w1 needs a positive finite sigma, got None" in err
    assert "Traceback" not in err
    assert tables == [3]


MDEP_RADEMACHER = dict(family="m_dependent", params={"m": 1, "source": {"kind": "rademacher"}},
                       grid=[6, 8])
EDGE_COUNTS = dict(family="decorated_graph", params={"pattern": "edge", "p": 0.5}, grid=[3, 4, 5])
MC_1000 = {"kind": "mc", "reps": 1000}
# (spec overrides, table mode per n) with an exact Var(S) up to 2^8
# outcomes: m = 1 windows read n + 1 sources (2^7, 2^9 outcomes), the
# edge counts C(n, 2) (2^3, 2^6, 2^10)
TABLE_CAP_CASES = {
    "m_dependent_mc": (dict(MDEP_RADEMACHER, mode=MC_1000), ["exact", "hybrid"]),
    "m_dependent_exact": (MDEP_RADEMACHER, ["exact", "hybrid"]),
    "edge_mc": (dict(EDGE_COUNTS, mode=MC_1000), ["exact", "exact", "hybrid"]),
    "edge_exact": (EDGE_COUNTS, ["exact", "exact", "hybrid"]),
}


@pytest.mark.parametrize("overrides,modes", TABLE_CAP_CASES.values(), ids=TABLE_CAP_CASES.keys())
def test_table_cap_sets_each_table_mode(tmp_path, monkeypatch, overrides, modes):
    """In exact mode the m = 1 walk at n = 8 still takes S for the law."""
    monkeypatch.setattr(cli, "TABLE_CAP", 2**8)
    doc = minimal_spec(tmp_path, bounds=["main"], **overrides)
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    per_n = json.loads((tmp_path / "out" / "bounds.json").read_text())["per_n"]
    assert [e["moments_header"]["mode"] for e in per_n] == modes


def test_star_past_the_local_byte_cap_exits_1_naming_it(tmp_path, capsys):
    """The hub of a star on 32 vertices reads 32 sources: its local grid
    (2^32 outcomes x 32 values) is refused before it is allocated."""
    doc = minimal_spec(tmp_path, family="graph", params={"graph": "star"}, grid=[32],
                       mode={"kind": "mc", "reps": 1000})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "EnumerationCapExceeded: index 0: 4294967296 outcomes x 32 values" in err
    assert f"over the cap of {fields.ENUM_BYTES_CAP}" in err and "Traceback" not in err


def test_constrained_word_past_the_index_cap_exits_1_naming_it(tmp_path, capsys):
    """The word "abcd" with three infinite gaps at n = 10,000 has 4.2e14
    tuples: counted and refused before any is built."""
    doc = minimal_spec(tmp_path, family="constrained_ustat",
                       params={"word": "abcd", "alphabet": 4, "gaps": ["inf"] * 3},
                       grid=[10_000], mode={"kind": "mc", "reps": 1000})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert ("EnumerationCapExceeded: n=10000, gaps=(None, None, None): more tuples than "
            f"the index cap of {fields.DEFAULT_INDEX_CAP}") in err
    assert "Traceback" not in err


def summary_ks(out: Path) -> list[float]:
    rows = (out / "summary.csv").read_text().splitlines()[2:]
    return [float(r.split(",")[4]) for r in rows]


@pytest.mark.parametrize("statistic", ["w2", "w2bar"])
def test_declared_neighborhoods_drive_the_self_normalized_statistics(tmp_path, statistic):
    # A_i = [i-2, i+2], wider than the induced [i-1, i+1] of an m = 1 window field
    declared = [[j for j in range(i - 2, i + 3) if 0 <= j < 6] for i in range(6)]
    doc = minimal_spec(tmp_path, family="m_dependent",
                       params={"m": 1, "source": {"kind": "rademacher"}, "declared_A": declared},
                       statistic=statistic)
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    (ks,) = summary_ks(tmp_path / "out")
    field = fields.build_m_dependent(6, 1, fields.rademacher())
    walk = oracle.walk_outcomes(field, statistic, nb.make_system(declared), var=True)
    assert ks == oracle.kolmogorov_from_atoms(*oracle.exact_law(walk, math.sqrt(walk.sigma2)))
    assert ks != oracle.exact_kolmogorov(field, statistic)


# (family, params, statistic, bounds, assertions) -> systems and overlap
# matrices built per grid point: the w2 spec builds its system once (the
# bounds, W2 and the LD check share it), and the moment table's identity
# builds no overlap
ONE_SYSTEM_CASES = {
    "exact_w2": (("m_dependent", {"m": 1, "source": {"kind": "three_point"}}, "w2",
                  ["main", "self_normalized"], {"require_ld": True}), 1, 1),
    "triangle_w1": (("decorated_graph", {"pattern": "triangle", "p": 0.3}, "w1",
                     ["decorated"], {}), 0, 0),
}


@pytest.mark.parametrize("case,systems,overlaps", ONE_SYSTEM_CASES.values(),
                         ids=ONE_SYSTEM_CASES.keys())
def test_one_system_per_grid_point_built_on_demand(tmp_path, monkeypatch, case, systems, overlaps):
    family, params, statistic, bounds, assertions = case
    calls = {"system": 0, "overlap": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "_system", counted("system", cli._system))
    overlap = counted("overlap", fields.overlap_matrix)
    monkeypatch.setattr(fields, "overlap_matrix", overlap)
    doc = minimal_spec(tmp_path, family=family, params=params, grid=[4, 5, 6],
                       statistic=statistic, bounds=bounds, assertions=assertions)
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    assert calls == {"system": 3 * systems, "overlap": 3 * overlaps}


CYCLE = {"graph": "cycle", "source": {"kind": "three_point"}}
# specs whose every grid point reads a walk: the LD test, an exact law, a
# non-sum field's Var(S), or an MC table's Var(S)
ONE_WALK_CASES = {
    # m = 1 three-point windows: 5^n lattice cells > 3^(n+1) outcomes
    "m_dependent_w1_ld": dict(family="m_dependent", grid=[4, 6],
                              params={"m": 1, "source": {"kind": "three_point"}},
                              assertions={"require_ld": True}),
    "triangle_w1_ld": dict(family="decorated_graph", grid=[4, 5],
                           params={"pattern": "triangle", "p": 0.3}, bounds=["decorated"],
                           assertions={"require_ld": True}),
    "path3_w2bar": dict(family="decorated_graph", grid=[4, 5], statistic="w2bar",
                        params={"pattern": "path3", "p": 0.3}, bounds=["decorated"]),
    "ustat_mc": dict(family="ustat", grid=[8, 12], mode={"kind": "mc", "reps": 1000},
                     params={"m": 2, "k": 2, "kernel": "sum", "source": {"kind": "three_point"}},
                     bounds=["distributed_u"]),
    # 7^n lattice cells <= 3^(2n) outcomes
    "cycle_w2": dict(family="graph", grid=[4, 5, 6], statistic="w2", params=CYCLE,
                     bounds=["graph"]),
    # values off the integers
    "cycle_spread_w2": dict(family="graph", grid=[4, 5], statistic="w2", bounds=["graph"],
                            params={**CYCLE, "source": {"kind": "three_point", "spread": 1.5}}),
    # S alone, no X: a walk that takes no X enumerates
    "iid_sum": dict(family="iid", grid=[4, 6, 8], statistic="sum",
                    params={"source": {"kind": "bernoulli", "p": 0.3}}),
}
LATTICE_WALKS = {"cycle_w2"}  # read the law of X from the value lattice


@pytest.mark.parametrize("name", ONE_WALK_CASES)
def test_one_outcome_walk_per_grid_point(tmp_path, monkeypatch, name):
    """One walk per grid point: over the field's value lattice
    (``fields.lattice_blocks``) for the cases of LATTICE_WALKS, by
    enumeration (``fields.outcome_blocks``) for the others."""
    walks = {"outcome_blocks": [], "lattice_blocks": []}
    for walk, seen in walks.items():
        blocks = getattr(fields, walk)

        def counted(*args, blocks=blocks, seen=seen, **kwargs):
            seen.append(args[0])
            return blocks(*args, **kwargs)

        for mod in (fields, moments, oracle):  # every module that binds the walk's blocks
            if getattr(mod, walk, None) is blocks:
                monkeypatch.setattr(mod, walk, counted)
    doc = minimal_spec(tmp_path, **ONE_WALK_CASES[name])
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    route = "lattice_blocks" if name in LATTICE_WALKS else "outcome_blocks"
    assert len(walks[route]) == sum(map(len, walks.values())) == len(doc["grid"])


def test_lattice_walk_keeps_the_outcome_cap(tmp_path, capsys, monkeypatch):
    """The cap counts outcomes (3^12 at n = 6), not lattice cells."""
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", 1000)
    doc = minimal_spec(tmp_path, family="graph", grid=[6], statistic="w2", params=CYCLE,
                       bounds=["graph"])
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "EnumerationCapExceeded: 531441 outcomes exceed cap 1000" in err
    assert "Traceback" not in err


def test_require_ld_fails_closed_past_ld_cap_on_a_lattice_walk(tmp_path, capsys):
    """The exact W2 walk reads 46,529 lattice rows at n = 6, but LD_CAP
    counts the 3^12 outcomes, so the LD test is not run."""
    doc = minimal_spec(tmp_path, family="graph", grid=[6], statistic="w2", params=CYCLE,
                       bounds=["graph"], assertions={"require_ld": True})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert f"n=6: LD test not run: {3 ** 12} outcomes over the cap of {cli.LD_CAP}" in err


@pytest.mark.parametrize("graph,n", [("edgeless", 4), ("star", 1)])
def test_graph_bound_at_maximal_degree_0_exits_2(tmp_path, capsys, graph, n):
    doc = minimal_spec(tmp_path, family="graph", params={"graph": graph}, grid=[n],
                       mode={"kind": "mc", "reps": 1000})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "$.params.graph" in err and "Traceback" not in err
    doc["bounds"] = ["main"]  # the shared bounds do not read the degree
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_bound_outside_the_family_exits_2(tmp_path, capsys):
    doc = minimal_spec(tmp_path, bounds=["graph"])
    assert cli.main(["bound", "--spec", write_spec(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "$.bounds" in err and "'graph'" in err


def test_non_integer_reps_exits_2(tmp_path, capsys):
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": "many"})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "$.mode.reps" in capsys.readouterr().err


def test_non_integer_checker_instances_exits_2(tmp_path, capsys):
    doc = minimal_spec(tmp_path, checkers={"instances": "many"})
    assert cli.main(["oracle", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "$.checkers.instances" in capsys.readouterr().err


def test_one_number_slope_range_exits_2(tmp_path, capsys):
    doc = minimal_spec(tmp_path, grid=[16, 64, 256], mode={"kind": "mc", "reps": 1000},
                       assertions={"slope_range": [1]})
    assert cli.main(["mc", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "$.assertions.slope_range" in capsys.readouterr().err


CHECKER_CASES = {
    "unknown_name": {"checks": ["lemma_xyz"]},
    "name_as_string": {"checks": "lemma_xiyi_corollary"},
    "string_boolean": {"include_r4": "false"},
    "no_instances": {"instances": 0},
    "no_check": {"checks": []},
}


@pytest.mark.parametrize("block", CHECKER_CASES.values(), ids=CHECKER_CASES.keys())
def test_bad_checkers_block_exits_2(tmp_path, capsys, block):
    doc = minimal_spec(tmp_path, checkers={"instances": 2, **block})
    assert cli.main(["oracle", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "$.checkers" in capsys.readouterr().err


PARAM_CASES = {
    "m_float": ("m_dependent", {"m": 1.7}, "$.params.m"),
    "m_boolean": ("m_dependent", {"m": True}, "$.params.m"),
    "ustat_k_float": ("ustat", {"m": 2, "k": 1.5}, "$.params.k"),
    "letters_k_float": ("iid", {"source": {"kind": "letters", "k": 2.9}}, "$.params.source.k"),
    "decorated_p_string": ("decorated_graph", {"pattern": "triangle", "p": "0.3"}, "$.params.p"),
    "pattern_floats": ("constrained_ustat", {"pattern": [2.7, 1.2]}, "$.params.pattern"),
    "edges_float": ("graph", {"graph": "explicit", "edges": [[0, 1.9], [2, 3]]}, "$.params.edges"),
    "edges_out_of_range": ("graph", {"graph": "explicit", "edges": [[0, 6]]}, "$.params.edges"),
    "word_upper_case": ("constrained_ustat", {"word": "AB"}, "$.params.word"),
    "word_outside_alphabet": ("constrained_ustat", {"word": "az", "alphabet": 2}, "$.params.word"),
    "word_and_pattern": ("constrained_ustat", {"word": "ab", "pattern": [2, 1]}, "$.params"),
    "gaps_longer_than_word": ("constrained_ustat", {"word": "ab", "gaps": ["inf", 1]},
                              "$.params.gaps"),
    "gaps_shorter_than_pattern": ("constrained_ustat", {"pattern": [2, 1, 3], "gaps": ["inf"]},
                                  "$.params.gaps"),
    "pattern_empty": ("constrained_ustat", {"pattern": []}, "$.params.pattern"),
    "kernel_degree": ("ustat", {"m": 3, "kernel": "diff_sq_half"}, "$.params.m"),
    "ustat_uniform_source": ("ustat", {"source": {"kind": "uniform"}}, "$.params.source.kind"),
    "ustat_normal_source": ("ustat", {"source": {"kind": "normal"}}, "$.params.source.kind"),
    "edges_loop": ("graph", {"graph": "explicit", "edges": [[1, 1]]}, "$.params"),
    "pattern_no_edge": ("decorated_graph", {"pattern": []}, "$.params"),
}


@pytest.mark.parametrize("family,params,where", PARAM_CASES.values(), ids=PARAM_CASES.keys())
def test_mistyped_family_parameters_exit_2(tmp_path, capsys, family, params, where):
    doc = minimal_spec(tmp_path, family=family, params=params, grid=[6],
                       bounds=list(cli.FAMILIES[family].default_bounds))
    assert cli.main(["derive", "--spec", write_spec(tmp_path, doc)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"word": "abc", "alphabet": 3}, {"pattern": [1, 2, 3]}],
                         ids=["word", "pattern"])
def test_default_gaps_leave_every_step_unconstrained(tmp_path, params):
    doc = minimal_spec(tmp_path, family="constrained_ustat", params=params, grid=[6],
                       bounds=["constrained_u"])
    assert cli.parse_spec(doc).params["gaps"] == [None, None]
    assert cli.main(["derive", "--spec", write_spec(tmp_path, doc)]) == 0


# a grid size below the family's smallest n: the word or pattern length,
# the decorated pattern's order, k*m for ustat, 3 for a cycle
GRID_CASES = {
    "word_abc": ("constrained_ustat", {"word": "abc", "alphabet": 3}, [2, 16], "$.grid"),
    "pattern_132": ("constrained_ustat", {"pattern": [1, 3, 2]}, [8, 2], "$.grid"),
    "triangle": ("decorated_graph", {"pattern": "triangle"}, [2, 8], "$.grid"),
    "cycle": ("graph", {"graph": "cycle"}, [2, 8], "$.grid"),
    "ustat_k_m": ("ustat", {"m": 2, "k": 3}, [5, 12], "$.params.k"),
}


@pytest.mark.parametrize("family,params,grid,where", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_grid_size_below_the_familys_smallest_n_exits_2(tmp_path, capsys, family, params, grid,
                                                         where):
    doc = minimal_spec(tmp_path, family=family, params=params, grid=grid,
                       bounds=list(cli.FAMILIES[family].default_bounds), mode={"kind": "mc"})
    for command in ("derive", "run"):
        assert cli.main([command, "--spec", write_spec(tmp_path, doc)]) == 2
        assert where in capsys.readouterr().err


# each names the JSON path (or flag) that the error message must name
SPEC_CASES = {
    "params_key_typo": ({"params": {"sourc": {"kind": "normal"}}}, [], "$.params.sourc"),
    "mode_key_typo": ({"mode": {"kind": "mc", "rep": 5}}, [], "$.mode.rep"),
    "top_key_typo": ({"statistc": "w2"}, [], "$.statistc"),
    "source_extra_key": ({"params": {"source": {"kind": "bernoulli", "p": 0.5, "q": 0.5}}}, [],
                         "$.params.source.q"),
    "checkers_key_typo": ({"checkers": {"instance": 3}}, [], "$.checkers.instance"),
    "assertions_key_typo": ({"assertions": {"max_kss": 0}}, [], "$.assertions.max_kss"),
    "m_dependent_key_typo": ({"family": "m_dependent", "params": {"mm": 3}}, [], "$.params.mm"),
    "sigma2_unknown_key": ({"params": {"sigma2": 10}}, [], "$.params.sigma2"),
    "grid_unsorted": ({"grid": [16, 4, 8]}, [], "$.grid"),
    "grid_repeated": ({"grid": [8, 16, 8]}, [], "$.grid"),
    "seed_negative": ({"seed": -1}, [], "$.seed"),
    "seed_past_64_bits": ({"seed": 2**64}, [], "$.seed"),
    "seed_flag_negative": ({}, ["--seed", "-1"], "--seed"),
    "grid_boolean": ({"grid": [True, 8]}, [], "$.grid[0]"),
    "gaps_boolean": ({"family": "constrained_ustat", "params": {"word": "ab", "gaps": [True]}}, [],
                     "$.params.gaps[0]"),
    "decorated_float_vertex": ({"family": "decorated_graph", "params": {"pattern": [[0, 1.5]]}}, [],
                               "$.params.pattern[0][1]"),
    "decorated_unknown_pattern": ({"family": "decorated_graph", "params": {"pattern": "square"}},
                                  [], "$.params.pattern"),
    "zero_rejections_string": ({"assertions": {"zero_rejections": "yes"}}, [],
                               "$.assertions.zero_rejections"),
    # no bound shape, so no ratio table that the spread could be checked on
    "ratio_spread_without_bounds": ({"bounds": [], "assertions": {"max_ratio_spread": 1.0}}, [],
                                    "$.assertions.max_ratio_spread"),
}


@pytest.mark.parametrize("overrides,argv,where", SPEC_CASES.values(), ids=SPEC_CASES.keys())
def test_bad_spec_exits_2_naming_its_path(tmp_path, capsys, overrides, argv, where):
    doc = minimal_spec(tmp_path, **overrides)
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc), *argv]) == 2
    assert where in capsys.readouterr().err


def test_cap_flag_exits_2(tmp_path):
    """The enumeration cap is ``fields.DEFAULT_ENUM_CAP``, set by no flag."""
    with pytest.raises(SystemExit) as e:  # argparse refuses an unknown flag
        cli.main(["run", "--spec", write_spec(tmp_path, minimal_spec(tmp_path)), "--cap", "100"])
    assert e.value.code == 2


COUNT_CASES = {
    "gaps_not_integer": ["word", "--string", "abab", "--word", "ab", "--gaps", "x"],
    "perm_not_integer": ["pattern", "--perm", "1,a,3", "--tau", "2,1"],
    "host_edge_out_of_range": ["subgraph", "--host-edges", "0,9", "--host-n", "3"],
    "too_many_gaps": ["word", "--string", "abab", "--word", "ab", "--gaps", "1,2"],
    "tau_not_a_permutation": ["pattern", "--perm", "3,1,2,4", "--tau", "1,1", "--gaps", "inf"],
    "perm_not_a_permutation": ["pattern", "--perm", "3,1,1,4", "--tau", "1,2", "--gaps", "inf"],
}


@pytest.mark.parametrize("argv", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_bad_count_arguments_exit_2(capsys, argv):
    assert cli.main(["count", *argv]) == 2
    assert "config error" in capsys.readouterr().err


DECLARED_CASES = {
    "out_of_range": [[0, 5], [1], [2], [3]],
    "not_a_list": "x",
    "non_integer_id": [[0, 1], [1, "a"], [2], [3]],
    "too_few_lists": [[0], [1]],
    "negative_id": [[0, -1], [1], [2], [3]],
    "not_reflexive": [[1], [0, 1], [2], [3]],
}


@pytest.mark.parametrize("declared", DECLARED_CASES.values(), ids=DECLARED_CASES.keys())
def test_bad_declared_neighborhoods_exit_2(tmp_path, capsys, declared):
    doc = minimal_spec(tmp_path, family="m_dependent",
                       params={"m": 1, "source": {"kind": "rademacher"}, "declared_A": declared},
                       grid=[4], bounds=["main"])
    assert cli.main(["bound", "--spec", write_spec(tmp_path, doc)]) == 2
    assert "$.params.declared_A" in capsys.readouterr().err


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# the largest grid size per family that keeps one bound pass well under a second
MAX_N = {"ustat": 16, "decorated_graph": 10, "constrained_ustat": 32}
BOUND_NAMES = sorted({*cli.SHARED_BOUNDS, *(b for f in cli.FAMILIES.values() for b in f.bounds)})
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(-2, 2))
nested_junk = st.one_of(junk, st.integers(-2, 2), st.lists(junk, max_size=2),
                        st.dictionaries(st.text(max_size=2), junk, max_size=1))
# the objects a spec nests, as key paths from the document
BLOCKS = {"top": (), "params": ("params",), "source": ("params", "source"), "mode": ("mode",),
          "checkers": ("checkers",), "assertions": ("assertions",)}
# typed keys per object, to be given values of a wrong type
TYPED_KEYS = {
    ("mode",): ["kind", "reps"],
    ("checkers",): ["instances", "checks", "include_r4"],
    ("assertions",): ["slope_range", "max_ratio_spread", "max_ks", "zero_rejections",
                      "ks_decreasing", "require_ld", "require_zero_check_failures"],
    ("params",): ["gaps", "pattern", "word", "alphabet", "edges", "graph", "kernel"],
}


def mostly(valid, bad=junk):
    """Values of ``valid`` nine times in ten, else of ``bad``."""
    return st.sampled_from([valid] * 9 + [bad]).flatmap(lambda strategy: strategy)


def block(doc: dict, path: tuple) -> dict:
    """The object at ``path`` in ``doc``, made empty where it is missing."""
    for key in path:
        doc = doc.setdefault(key, {})
    return doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_example_configs_exit_0_1_or_2(tmp_path, data):
    doc = json.loads(data.draw(st.sampled_from(CONFIGS)).read_text())
    family = doc["family"]
    top = MAX_N.get(family, 64)
    allowed = [*cli.SHARED_BOUNDS, *cli.FAMILIES[family].bounds]
    doc["grid"] = data.draw(mostly(st.lists(st.integers(1, top), min_size=1, max_size=3,
                                            unique=True).map(sorted)))
    mutations = {
        "bounds": mostly(
            st.lists(st.sampled_from(allowed), max_size=3),
            st.one_of(junk, st.lists(st.sampled_from(BOUND_NAMES), min_size=1, max_size=2)),
        ),
        "statistic": mostly(st.sampled_from(statistics.STATISTICS)),
        "m": mostly(st.integers(-1, 3)),
        "k": mostly(st.integers(-1, 4)),
        "declared_A": mostly(st.lists(st.lists(mostly(st.integers(-1, top)), max_size=4), max_size=8)),
        "p": mostly(st.floats(0.0, 1.0)),
        "source": st.fixed_dictionaries(
            {"kind": st.sampled_from(["rademacher", "bernoulli", "three_point", "letters"])},
            optional={
                "p": mostly(st.floats(0.0, 1.0)),
                "k": mostly(st.integers(1, 4)),
                "spread": mostly(st.floats(0.5, 2.0)),
                "p_zero": mostly(st.floats(0.0, 1.0)),
            },
        ),
    }
    for key in data.draw(st.sets(st.sampled_from(sorted(mutations)))):
        target = doc["params"] if key in ("m", "k", "declared_A", "p", "source") else doc
        target[key] = data.draw(mutations[key])
    # an unknown key at any level, a wrong-typed nested value, a seed outside [0, 2^64)
    extra = data.draw(st.sets(st.sampled_from(["unknown_key", "wrong_type", "bad_seed"])))
    if "wrong_type" in extra:
        path = data.draw(st.sampled_from(sorted(TYPED_KEYS)))
        block(doc, path)[data.draw(st.sampled_from(TYPED_KEYS[path]))] = data.draw(nested_junk)
    if "unknown_key" in extra:
        target = block(doc, BLOCKS[data.draw(st.sampled_from(sorted(BLOCKS)))])
        target["zz_" + data.draw(st.text("ab", max_size=2))] = data.draw(nested_junk)
    if "bad_seed" in extra:
        doc["seed"] = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)))
    doc["out"] = str(tmp_path / "out")
    command = data.draw(st.sampled_from(["derive", "bound"]))
    rc = cli.main([command, "--spec", write_spec(tmp_path, doc)])
    assert rc in (0, 1, 2)
    if extra & {"unknown_key", "bad_seed"}:
        assert rc == 2


W2_SPECS = {
    "mc": {"family": "m_dependent", "params": {"m": 1, "source": {"kind": "rademacher"}},
           "grid": [16], "statistic": "w2", "mode": {"kind": "mc", "reps": 1000}, "seed": 3},
    "exact": {"family": "graph", "params": {"graph": "cycle", "source": {"kind": "three_point"}},
              "grid": [4], "statistic": "w2", "mode": {"kind": "exact"}, "seed": 3},
}


def test_cli_import_leaves_scipy_special_out(tmp_path):
    """No scipy module loads when the CLI is imported, nor while it runs an
    m-dependent Rademacher W2 Monte-Carlo spec or an exact cycle W2 spec."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for run in (None, *W2_SPECS):
        code = "import sys, locdep.cli"
        if run is not None:
            doc = {**W2_SPECS[run], "out": str(tmp_path / run)}
            code += f"; assert locdep.cli.main(['run', '--spec', {write_spec(tmp_path, doc)!r}]) == 0"
        code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]", (run, out.stdout)


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "locdep", "count", "word", "--string", "abab",
                          "--word", "ab", "--gaps", "inf"], env=env, capture_output=True,
                         text=True)
    assert (out.returncode, out.stdout.strip()) == (0, "3")


def test_benchmark_selfcheck_passes():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=root, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
