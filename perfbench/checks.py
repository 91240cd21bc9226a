"""Output checks for one spec run, against a reference recorded from the
program at a known-good commit (``reference.json``).

The checks are built to survive a deliberate change of the random-stream
format:

* Exact-route outputs (exact or hybrid moment rows, bounds computed from
  them, exact-mode Kolmogorov distances) do not depend on the stream and
  must match the reference to ``EXACT_RTOL``.
* A Monte-Carlo Kolmogorov distance is compared by the Dvoretzky-Kiefer-
  Wolfowitz (DKW) inequality: the empirical CDF of ``r`` accepted draws is
  within ``eps(r) = sqrt(ln(2/alpha) / (2 r))`` of the true law except with
  probability ``alpha``.  Where the reference holds the exact law (small
  enumerable fields) the distance must be within ``eps`` of it; elsewhere
  within ``eps(run) + eps(reference)`` of the reference's own MC value.
* Monte-Carlo moment rows must lie within ``MC_Z`` combined batch-means
  standard errors of the reference.
* Checker suites run on fixed instances, so their verdict columns (check,
  precondition, verdict) must equal the reference's row for row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12
DKW_ALPHA = 1e-6
MC_Z = 6.0
EXACT_MODES = ("exact", "hybrid")


def dkw_eps(accepted: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * accepted))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def read_outputs(out_dir: Path) -> dict:
    """The artifacts of one ``locdep run`` as plain numbers, keyed by n."""
    out_dir = Path(out_dir)
    summary = {}
    rows = _csv_rows(out_dir / "summary.csv")
    for row in rows[1:]:
        rec = dict(zip(rows[0], row))
        summary[rec["n"]] = {
            "R": int(rec["R"]), "ks": float(rec["ks"]), "rejected": int(rec["rejected"]),
        }
    # moments.csv: "# n=<n>" opens a section of "index,l2,l3,l4,se2,se3,se4" rows
    sections: dict[str, list[str]] = {}
    n = None
    with open(out_dir / "moments.csv") as fh:
        for line in fh:
            if line.startswith("# n="):
                n = line[4:].strip()
                sections[n] = []
            elif n is not None and not line.startswith(("#", "index")) and line.strip():
                sections[n].append(line)
    moments = {
        n: np.loadtxt(io.StringIO("".join(lines)), delimiter=",", ndmin=2)[:, 1:]
        for n, lines in sections.items()
    }
    doc = json.loads((out_dir / "bounds.json").read_text())
    per_n = {}
    for e in doc["per_n"]:
        head = e["moments_header"]
        per_n[str(e["n"])] = {
            "mode": head["mode"],
            "sigma2": head["sigma2"],
            "se_sigma2": head["se_sigma2"],
            "moments": moments[str(e["n"])],
            "bounds": {
                r["theorem"]: {"value": r["value"], **r["terms"]} for r in e["reports"]
            },
            **({"summary": summary[str(e["n"])]} if str(e["n"]) in summary else {}),
        }
    # the digest column holds unquoted commas: read the others from the end
    verdicts = [
        {"check": r[-6], "precondition": r[-2], "verdict": r[-1]}
        for r in _csv_rows(out_dir / "verdicts.csv")[1:]
    ]
    return {"per_n": per_n, "verdicts": verdicts}


def compress_rows(rows: np.ndarray) -> list:
    """Run-length code of equal consecutive rows: [[count, row], ...]."""
    out: list = []
    for row in rows.tolist():
        if out and out[-1][1] == row:
            out[-1][0] += 1
        else:
            out.append([1, row])
    return out


def load_reference(path: Path) -> dict:
    """reference.json with its run-length coded moment rows expanded."""
    ref = json.loads(Path(path).read_text())
    for specs in ref["workloads"].values():
        for spec in specs.values():
            for point in spec["per_n"].values():
                counts = [k for k, _ in point["moments"]]
                point["moments"] = np.repeat([row for _, row in point["moments"]], counts, axis=0)
    return ref


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_RTOL * abs(b) + EXACT_ATOL


def check_mc_ks(got: dict, ref: dict) -> str | None:
    """None if a Monte-Carlo ks agrees with the reference, else why not."""
    accepted = got["R"] - got["rejected"]
    if "exact_ks" in ref:
        eps = dkw_eps(accepted)
        target, what = ref["exact_ks"], "exact law"
    else:
        ref_s = ref["summary"]
        eps = dkw_eps(accepted) + dkw_eps(ref_s["R"] - ref_s["rejected"])
        target, what = ref_s["ks"], "reference MC"
    if abs(got["ks"] - target) > eps:
        return f"MC ks {got['ks']:.6g} is {abs(got['ks'] - target):.4g} from the {what} {target:.6g} (band {eps:.4g})"
    return None


def check_point(got: dict, ref: dict, exact_mode: bool) -> list[str]:
    """Differences between one grid point's outputs and the reference."""
    bad = []
    if got["mode"] != ref["mode"]:
        return [f"moment route {got['mode']} != reference {ref['mode']}"]
    g, r = got["moments"], ref["moments"]
    if g.shape != r.shape:
        return [f"moment table {g.shape} != reference {r.shape}"]
    if ref["mode"] in EXACT_MODES:
        if not _close(got["sigma2"], ref["sigma2"]):
            bad.append(f"sigma2 {got['sigma2']!r} != reference {ref['sigma2']!r}")
        ok = np.abs(g - r) <= EXACT_RTOL * np.abs(r) + EXACT_ATOL
        if not ok.all():
            i = int(np.argmin(ok.all(axis=1)))
            bad.append(f"moment row {i + 1} {g[i].tolist()} != reference {r[i].tolist()}")
        if set(got["bounds"]) != set(ref["bounds"]):
            bad.append(f"bounds {sorted(got['bounds'])} != reference {sorted(ref['bounds'])}")
        else:
            for name, terms in ref["bounds"].items():
                for term, val in terms.items():
                    if not _close(got["bounds"][name].get(term, math.nan), val):
                        bad.append(f"bound {name}.{term} {got['bounds'][name].get(term)!r} != reference {val!r}")
    else:
        band = MC_Z * np.hypot(g[:, 3:], r[:, 3:])
        ok = np.abs(g[:, :3] - r[:, :3]) <= band
        if not ok.all():
            i, k = np.argwhere(~ok)[0]
            bad.append(f"MC moment row {i + 1} col {k} {g[i, k]:.6g} vs reference "
                       f"{r[i, k]:.6g} (band {band[i, k]:.3g})")
        band = MC_Z * math.hypot(got["se_sigma2"], ref["se_sigma2"])
        if not abs(got["sigma2"] - ref["sigma2"]) <= band:
            bad.append(f"MC sigma2 {got['sigma2']:.6g} vs reference {ref['sigma2']:.6g} (band {band:.3g})")
        for name, terms in got["bounds"].items():
            if not all(math.isfinite(v) for v in terms.values()):
                bad.append(f"bound {name} from MC moments is not finite")
    if "summary" in ref:
        s = got.get("summary")
        if s is None:
            bad.append("missing summary row")
        elif s["R"] != ref["summary"]["R"]:
            bad.append(f"R {s['R']} != reference {ref['summary']['R']}")
        elif exact_mode:
            if not _close(s["ks"], ref["summary"]["ks"]):
                bad.append(f"exact ks {s['ks']!r} != reference {ref['summary']['ks']!r}")
        else:
            why = check_mc_ks(s, ref)
            if why:
                bad.append(why)
    return bad


def check_spec(out_dir: Path, ref: dict, exact_mode: bool) -> list[str]:
    """Every difference between a spec run's artifacts and its reference."""
    try:
        got = read_outputs(out_dir)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable artifacts: {type(e).__name__}: {e}"]
    bad = []
    if set(got["per_n"]) != set(ref["per_n"]):
        return [f"grid {sorted(got['per_n'])} != reference {sorted(ref['per_n'])}"]
    for n, r in ref["per_n"].items():
        bad.extend(f"n={n}: {b}" for b in check_point(got["per_n"][n], r, exact_mode))
    if "verdicts" in ref:
        rows = [[v["check"], v["precondition"], v["verdict"]] for v in got["verdicts"]]
        if len(rows) != len(ref["verdicts"]):
            bad.append(f"{len(rows)} verdicts != reference {len(ref['verdicts'])}")
        else:
            diff = [k for k, (g, r) in enumerate(zip(rows, ref["verdicts"])) if g != r]
            if diff:
                k = diff[0]
                bad.append(f"{len(diff)} verdicts differ, first row {k + 1} "
                           f"{rows[k]} != reference {ref['verdicts'][k]}")
    return bad
