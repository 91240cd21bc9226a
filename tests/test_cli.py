"""CLI and config-contract tests.

Core claims:
    - a minimal spec produces the artifact set and exits 0
    - schema errors exit 2 with field diagnostics; assertion failures
      (including deliberately wrong declared neighborhoods) exit 1
    - re-running a spec reproduces byte-identical CSV bodies, and every
      artifact embeds the config hash and seed
    - counting subcommands expose the naive oracles
"""

from __future__ import annotations

import json
from pathlib import Path

import locdep.cli as cli


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


def test_threads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCDEP_THREADS", "2")
    doc = minimal_spec(tmp_path, mode={"kind": "mc", "reps": 2000})
    assert cli.main(["run", "--spec", write_spec(tmp_path, doc)]) == 0


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


def test_example_configs_parse():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    found = sorted(config_dir.glob("*.json"))
    assert len(found) >= 6  # one annotated example per family
    for p in found:
        cli.parse_spec(json.loads(p.read_text()))


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
