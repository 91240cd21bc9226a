"""Moment-table tests.

Core claims:
    - exact tables reproduce hand values (Rademacher norms, window-field
      variances, Bernoulli variances); a table without a Var(S) is
      hybrid, its Var(S) the identity
    - a constant field is flagged degenerate, and a header says
      ``degenerate`` last and only while Var(S) is not positive
    - Monte-Carlo tables agree with exact ones within standard errors,
      and batch-means errors shrink like 1/sqrt(reps)
    - L_p monotonicity holds entrywise; lambda is scale-invariant
    - the kernel projection quantities match two-point enumerations and
      flag the degenerate case
    - signature-grouped exact means, norms and Var(S) equal one local
      enumeration per index and per pair, for every builder family and
      for random enumerable instances
    - a table's norms are, bit for bit, those of each index group's first
      index enumerated alone, on a star, a constrained m = 1 field, a
      U-statistic of unequal blocks, a triangle and a two-law field (the
      last two with indices of one group whose sources sit in several
      slot orders)
    - the index groups frozen on a field equal the full-key grouping
      (pattern of repeated sources over the support row, laws slot by
      slot, params and means), group order included, with pads, repeated
      sources, per-index params, given means and continuous sources;
      exact tables read the frozen index groups
    - the CSV section equals the per-row formatter byte for byte for
      exact, hybrid and Monte-Carlo tables (one whose rows are all
      equal), interleaved groups, equal rows across groups, NaN rows,
      -0.0 beside 0.0, special floats, and single-group runs whose
      index crosses each digit width, with default and small blocks
    - a Var(S) that disagrees with the covariance identity fails, the
      true Var(S) passes, and the norms and Var(S) that the checker
      suite's stacks precompute equal the locally enumerated ones
    - a copy of an index-transitive field with other sources takes no
      one-index shortcut, and the shortcut (index 0's subsets weighted by
      n) equals the sum over every index within 1e-12 relative on
      triangles, 4-cycles, one-block U-statistics and an iid field
    - the Var(S) identity, a Hoeffding sum over the source subsets that
      two or more indices read, equals a plain loop over the covariances
      of overlapping pairs (each by local enumeration, test-side)
      within 1e-12 relative on word fields with infinite and finite gaps,
      constrained U-statistics with repeated sources, two-block
      U-statistics, windows, a cycle and a star, padded supports and 20
      random enumerable instances; for the word "ab" at n = 300 and m = 1
      windowed constrained U at n = 128 it equals the exact polynomial
      fitted to walks at small n, builds no overlap and stays within a
      tracemalloc bound, and for a star of 16 leaves it equals the closed
      form
    - an index whose local grid is over the byte cap is refused before
      its source subsets are listed
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import locdep.bounds as B
import locdep.cli as cli
import locdep.fields as F
import locdep.moments as M
import locdep.oracle as O
from locdep.errors import DegenerateKernel, EnumerationCapExceeded
from locdep.rng import STREAM_INSTANCES, substream
from test_oracle import random_instance


def test_iid_rademacher_table():
    f = F.build_iid_field(2, F.rademacher())
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    assert np.allclose(t.l2, 1) and np.allclose(t.l3, 1) and np.allclose(t.l4, 1)
    assert t.sigma2 == pytest.approx(2.0)
    assert B.lam_scale(B.norm_sums(t)[0], 1) == pytest.approx(1.0)
    assert t.mode == "exact"


def test_window_field_variance_identity_two_ways():
    f = F.build_m_dependent(4, 1, F.rademacher())
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    assert t.sigma2 == pytest.approx(4 * 4 - 2)  # Var(U_1 + 2U_2 + 2U_3 + U_4 ... )
    assert t.l2[0] ** 2 == pytest.approx(2.0)  # Var of a two-Rademacher sum
    t_hybrid = M.exact_moment_table(f)  # without a Var(S): the identity
    assert t_hybrid.mode == "hybrid"
    assert t_hybrid.sigma2 == pytest.approx(t.sigma2, rel=1e-12)


def test_centered_bernoulli_variance():
    f = F.build_iid_field(3, F.bernoulli(0.3))
    t = M.exact_moment_table(f)
    assert t.l2[0] ** 2 == pytest.approx(0.3 * 0.7)


def test_constant_field_flagged_degenerate():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    t = M.exact_moment_table(f)
    assert t.degenerate and np.allclose(t.l4, 0.0)
    tm = M.mc_moment_table(f, reps=1000, master_seed=1)
    assert tm.degenerate
    # the header says so last, and only while Var(S) is not positive
    assert M.table_header(t)["extras"] == {"degenerate": True}
    assert list(M.table_header(tm)["extras"]) == ["reps", "batches", "degenerate"]
    for table in (t, tm):
        assert "degenerate" not in M.table_header(dataclasses.replace(table, sigma2=2.0))["extras"]


def test_mc_agrees_with_exact_within_three_ses():
    f = F.build_m_dependent(5, 1, F.rademacher())
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    tm = M.mc_moment_table(f, reps=20000, master_seed=3)
    for p, (exact, est, se) in enumerate(
        [(t.l2, tm.l2, tm.se_l2), (t.l3, tm.l3, tm.se_l3), (t.l4, tm.l4, tm.se_l4)]
    ):
        assert np.all(np.abs(est - exact) <= 3 * se + 1e-9), f"p-index {p}"
    assert abs(tm.sigma2 - t.sigma2) <= 3 * tm.se_sigma2


def test_batch_means_se_shrinks_like_sqrt_reps():
    f = F.build_m_dependent(5, 1, F.rademacher())
    t1 = M.mc_moment_table(f, reps=8000, master_seed=4)
    t2 = M.mc_moment_table(f, reps=32000, master_seed=5)
    # quadrupling reps should halve the typical se, within +-40%
    ratio = float(np.mean(t1.se_l4 / t2.se_l4))
    assert 2.0 * 0.6 <= ratio <= 2.0 * 1.4


def test_lp_monotonicity_random_fields():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = F.build_m_dependent(n, int(rng.integers(0, 2)), F.three_point(2.0, 1 / 3))
        t = M.exact_moment_table(f)
        assert np.all(t.l2 <= t.l3 + 1e-12) and np.all(t.l3 <= t.l4 + 1e-12)


def test_lambda_scale_invariance():
    f = F.build_m_dependent(5, 1, F.rademacher())
    fc = F.build_m_dependent(5, 1, F.DiscreteSource((-2.5, 2.5), (0.5, 0.5)))  # 2.5 (a + b)
    t = M.exact_moment_table(f)
    tc = M.exact_moment_table(fc)
    assert B.lam_scale(B.norm_sums(tc)[0], 4) == pytest.approx(B.lam_scale(B.norm_sums(t)[0], 4), rel=1e-12)


def test_hoeffding_projection_hand_values():
    km = M.hoeffding_sigma1(lambda x, y: x + y, 2, F.rademacher())
    assert km.sigma1 == pytest.approx(1.0)
    assert km.var == pytest.approx(2.0)
    with pytest.raises(DegenerateKernel):
        M.hoeffding_sigma1(lambda x, y: x * y, 2, F.rademacher())
    # h = (x-y)^2/2 on Rademacher: theta = 1 and the conditional mean
    # g(x) = (x^2 - 1)/2 vanishes on the support, so it is degenerate too
    with pytest.raises(DegenerateKernel):
        M.hoeffding_sigma1(lambda x, y: (x - y) ** 2 / 2, 2, F.rademacher())
    with pytest.raises(EnumerationCapExceeded):  # sigma1 is enumerated
        M.hoeffding_sigma1(lambda x, y: x + y, 2, F.ContinuousSource("uniform"))


def test_hoeffding_sigma1_reads_the_enumeration_cap_when_it_runs(monkeypatch):
    """The kernel grid is held to ``fields.DEFAULT_ENUM_CAP`` as it is at
    the call, as every other enumeration is: a three-point kernel of two
    arguments has 9 cells, over a cap of 2."""
    monkeypatch.setattr(F, "DEFAULT_ENUM_CAP", 2)
    with pytest.raises(EnumerationCapExceeded, match="kernel enumeration too large"):
        M.hoeffding_sigma1(lambda x, y: x + y, 2, F.three_point())


def test_transitive_sigma2_shortcut_matches_full_sum():
    f = F.build_decorated_graph_field(5, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4))
    fast = M.exact_local_moments(f)[1]
    plain = dataclasses.replace(
        f, metadata={k: v for k, v in f.metadata.items() if k != "index_transitive"})
    slow = M.exact_local_moments(plain)[1]  # summed over every index
    assert fast == pytest.approx(slow, rel=1e-10)
    full = O.walk_outcomes(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)), var=True).sigma2
    fast4 = M.exact_local_moments(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)))[1]
    assert fast4 == pytest.approx(full, rel=1e-10)


def reference_csv_rows(table: M.MomentTable) -> list[str]:
    """The per-row formatter: one f-string per index."""
    rows = ["index,l2,l3,l4,se2,se3,se4"]
    z = np.zeros(table.n)
    se2 = table.se_l2 if table.se_l2 is not None else z
    se3 = table.se_l3 if table.se_l3 is not None else z
    se4 = table.se_l4 if table.se_l4 is not None else z
    for i in range(table.n):
        rows.append(
            f"{i + 1},{table.l2[i]:.17g},{table.l3[i]:.17g},{table.l4[i]:.17g},"
            f"{se2[i]:.17g},{se3[i]:.17g},{se4[i]:.17g}"
        )
    return rows


def reference_csv(table: M.MomentTable) -> bytes:
    return ("\n".join(reference_csv_rows(table)) + "\n").encode()


def csv_bytes(table: M.MomentTable) -> bytes:
    buf = io.BytesIO()
    M.write_csv(buf, table)
    return buf.getvalue()


def test_csv_rows_match_per_row_formatter():
    f = F.build_constrained_ustat_field(7, 1, lambda x, y: x * y + x, (None,), F.three_point())
    exact = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    hybrid = M.exact_moment_table(f)
    mc = M.mc_moment_table(f, reps=1000, master_seed=8)
    assert exact.mode == "exact" and hybrid.mode == "hybrid"
    # an iid Rademacher field has |X_i| = 1: every Monte-Carlo row is 1, 1, 1, 0, 0, 0
    flat = M.mc_moment_table(F.build_iid_field(200, F.rademacher()), reps=1000, master_seed=8)
    assert np.all(flat.l4 == 1.0) and np.all(flat.se_l2 == 0.0)
    rng = np.random.default_rng(9)
    odd = np.array([0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, 1 / 3, 2.0**-1074])
    bare = M.MomentTable(l2=odd, l3=rng.normal(size=8), l4=odd[::-1].copy(), sigma2=1.0,
                         mode="monte_carlo", se_l3=rng.normal(size=8))
    for table in (exact, hybrid, mc, flat, bare):
        assert csv_bytes(table) == reference_csv(table)


def test_csv_serialization_shape():
    f = F.build_iid_field(3, F.rademacher())
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    rows = csv_bytes(t).decode().splitlines()
    assert rows[0] == "index,l2,l3,l4,se2,se3,se4"
    assert len(rows) == 4 and rows[1].startswith("1,")
    hdr = M.table_header(t)
    assert hdr["sigma2"] == pytest.approx(3.0) and hdr["mode"] == "exact"


def grouped_table(groups, values, se=True) -> M.MomentTable:
    """A table whose entries are ``values`` (one per group) read by ``groups``."""
    g = np.asarray(groups)
    cols = [np.asarray(values)[g] * k for k in (1.0, 2.0, -3.0)]
    return M.MomentTable(l2=cols[0], l3=cols[1], l4=cols[2], sigma2=1.0, mode="exact",
                         se_l2=cols[2] / 7 if se else None)


# (long-run threshold, rows per block): the defaults, and every run long
# with blocks that split each run
LAYOUTS = [(M._LONG_RUN, M._BLOCK_ROWS), (1, 7)]


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "small_blocks"])
@pytest.mark.parametrize("n", [12, 150, 10_050, 100_020])
def test_csv_single_group_crosses_each_digit_width(monkeypatch, layout, n):
    """Rows 9 -> 10, 99 -> 100, 9,999 -> 10,000 and 99,999 -> 100,000 of
    one group: the index digits change width inside the run."""
    monkeypatch.setattr(M, "_LONG_RUN", layout[0])
    monkeypatch.setattr(M, "_BLOCK_ROWS", layout[1])
    table = grouped_table(np.zeros(n, dtype=np.int64), [1 / 3])
    assert csv_bytes(table) == reference_csv(table)


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "small_blocks"])
def test_csv_interleaved_groups_and_no_groups(monkeypatch, layout):
    monkeypatch.setattr(M, "_LONG_RUN", layout[0])
    monkeypatch.setattr(M, "_BLOCK_ROWS", layout[1])
    rng = np.random.default_rng(3)
    values = rng.normal(size=4)
    alternating = np.arange(300) % 3
    runs = np.repeat([0, 1, 0, 2, 1, 3, 0], [100, 3, 70, 1, 200, 64, 63])
    # groups 0 and 1 hold equal rows, as do 2 and 3 (NaN), while 4 (-0.0)
    # and 5 (0.0) differ in their bits only
    equal = [values[0], values[0], np.nan, np.nan, -0.0, 0.0]
    across = np.repeat([0, 1, 2, 3, 4, 5, 0, 5, 4], [40, 30, 1, 70, 64, 64, 2, 1, 1])
    for groups, vals in ((alternating, values), (runs, values), (runs[::-1].copy(), values),
                         (across, equal), (np.arange(6).repeat(3), equal)):
        table = grouped_table(groups, vals)
        assert csv_bytes(table) == reference_csv(table)
    empty = grouped_table(np.zeros(0, dtype=np.int64), values, se=False)
    assert csv_bytes(empty) == b"index,l2,l3,l4,se2,se3,se4\n"


@pytest.mark.parametrize("layout", LAYOUTS, ids=["default", "small_blocks"])
def test_csv_special_floats_in_long_runs(monkeypatch, layout):
    monkeypatch.setattr(M, "_LONG_RUN", layout[0])
    monkeypatch.setattr(M, "_BLOCK_ROWS", layout[1])
    odd = [0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf, 1 / 3, 2.0**-1074, 5e-324 * 3]
    table = grouped_table(np.repeat(np.arange(len(odd)), 90), odd)
    body = csv_bytes(table)
    assert body == reference_csv(table)
    assert all(v in body for v in (b",-0,", b",nan,", b",-inf,", b"e-324,"))


def test_run_writes_the_triangle_moments_csv_byte_for_byte(tmp_path, monkeypatch):
    """``locdep run`` of the decorated triangle at n = 20 (6,840 rows of
    one group) writes the stamp, ``# n=20`` and the per-row reference."""
    tables, write = [], M.write_csv
    monkeypatch.setattr(M, "write_csv", lambda fh, t: (tables.append(t), write(fh, t)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "family": "decorated_graph", "params": {"pattern": "triangle", "p": 0.3},
        "grid": [20], "statistic": "w1", "mode": {"kind": "mc", "reps": 1000},
        "bounds": [], "seed": 5, "out": str(tmp_path / "out"),
    }))
    assert cli.main(["run", "--spec", str(spec)]) == 0
    (table,) = tables
    rows = np.stack([table.l2, table.l3, table.l4], axis=1)
    assert table.n == 6840 and np.unique(rows, axis=0).shape[0] == 1
    stamp, rest = (tmp_path / "out" / "moments.csv").read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# config_hash=") and stamp.endswith(b" seed=5")
    assert rest == b"# n=20\n" + reference_csv(table)


def window_field(n: int, fn) -> F.LatentSourceField:
    """The 1-dependent Rademacher window field X_i = fn(U_i, U_{i+1}), on the
    m-dependent builder's supports."""
    return F.LatentSourceField(
        sources=(F.rademacher(),) * (n + 1),
        supports=np.arange(n)[:, None] + np.arange(2),
        ev=lambda G: fn(G[..., 0], G[..., 1]),
    )


GROUPING_CASES = {
    "iid": lambda: F.build_iid_field(4, F.three_point()),
    "iid_bernoulli": lambda: F.build_iid_field(3, F.bernoulli(0.3)),
    "m_dependent": lambda: F.build_m_dependent(5, 2, F.three_point(2.0, 1 / 3)),
    "m_dependent_window": lambda: window_field(5, lambda a, b: a * b + a),
    "graph_star": lambda: F.build_graph_dependency(
        5, [(0, 1), (0, 2), (0, 3), (3, 4)], F.three_point()),
    "ustat": lambda: F.build_ustat_field([4, 3], 2, lambda x, y: x * y + x, F.three_point()),
    "word": lambda: F.build_word_field([0, 1], 5, 2, [None]),
    "constrained_m1": lambda: F.build_constrained_ustat_field(
        6, 1, lambda x, y: x * y + x, (None,), F.rademacher()),
    "decorated_path": lambda: F.build_decorated_graph_field(
        4, [(0, 1), (1, 2)], F.bernoulli(0.4)),
    **{
        f"random_{k}": (lambda k=k: random_instance(substream(77, 5, k))[2])
        for k in range(20)
    },
}


def ungrouped_values(f: F.LatentSourceField, idx) -> tuple[np.ndarray, np.ndarray]:
    """(probs, X) of one enumeration over the product grid of the sources
    the indices ``idx`` read, in increasing source order: no grouping and
    no batching."""
    S = f.supports[list(idx)]
    used = np.unique(S[S >= 0])
    probs, grid = F.product_grid([f.sources[s] for s in used])
    G = (grid if used.size else np.zeros((1, 1)))[:, np.searchsorted(used, S)]
    G[:, S < 0] = 0.0
    X = f.ev(G, *(p[list(idx)] for p in f.params))
    return probs, np.broadcast_to(np.asarray(X, dtype=float), (probs.size, len(idx)))


def pair_covariance(field: F.LatentSourceField, ij) -> np.ndarray:
    """Cov(X_i, X_j) for the rows (i, j) of ``ij``, by enumeration over the
    union of the two supports: the reference for the Var(S) identity."""
    out = []
    for i, j in np.asarray(ij, dtype=np.int64).reshape(-1, 2).tolist():
        probs, X = ungrouped_values(field, [i, j])
        out.append(float(probs @ (X[:, 0] * X[:, 1])) - float(probs @ X[:, 0]) * float(probs @ X[:, 1]))
    return np.array(out)


@pytest.mark.parametrize("case", sorted(GROUPING_CASES))
def test_signature_grouping_matches_ungrouped_enumeration(case):
    f = GROUPING_CASES[case]()
    # one local enumeration per index and per pair, no grouping
    means, norms = [], []
    for i in range(f.n):
        probs, X = ungrouped_values(f, [i])
        means.append(float(probs @ X[:, 0]))
        a = np.abs(X[:, 0] - f.means[i])
        norms.append([float(probs @ a**p) ** (1 / p) for p in (2, 3, 4)])
    assert np.allclose(F.compute_means(f), means, rtol=1e-12, atol=1e-13)
    t = M.exact_moment_table(f)
    assert np.allclose(np.stack([t.l2, t.l3, t.l4], axis=1), norms, rtol=1e-12, atol=1e-13)
    local_norms, local = M.exact_local_moments(f)
    assert np.allclose(local_norms, norms, rtol=1e-12, atol=1e-13)
    sys = F.induced_neighborhoods(f)
    pair_sum = float(pair_covariance(f, [(i, j) for i in range(f.n) for j in sys.M.row(i)]).sum())
    assert local == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    assert local == pytest.approx(O.walk_outcomes(f, var=True).sigma2, rel=1e-10, abs=1e-12)


def _two_law_field() -> F.LatentSourceField:
    """Three-point even sources and two-point odd ones.  Rows (2k, 2k+1)
    and (2k+2, 2k+1) read an even source first, so they form one group
    whose sources sit in two slot orders; rows (2k+1, 2k+2) form another.
    The two orders lay the group's grid out transposed, and with these
    laws their sums round differently: only index 0's order gives the
    bits of the group's first index."""
    k = np.arange(4)[:, None]
    supports = np.concatenate([2 * k + [0, 1], 2 * k + [2, 1], 2 * k + [1, 2]])
    laws = (F.DiscreteSource((1.5, 2.3, -0.8), (0.1, 0.4, 0.5)),
            F.DiscreteSource((1.4, -1.5), (0.2, 0.8)))
    return F.LatentSourceField(tuple(laws[s % 2] for s in range(9)), supports,
                               lambda G: G[..., 0] * (1 + G[..., 1]) + G[..., 1] ** 2)


TABLE_NORM_CASES = {
    "star": lambda: F.build_graph_dependency(9, [(0, i) for i in range(1, 9)], F.three_point()),
    "constrained_m1": lambda: F.build_constrained_ustat_field(
        8, 1, lambda x, y: x * y + x, (None,), F.three_point()),
    "ustat_unequal_blocks": lambda: F.build_ustat_field([5, 3], 2, lambda x, y: x * y + x,
                                                        F.three_point()),
    "triangle": lambda: F.build_decorated_graph_field(6, [(0, 1), (1, 2), (0, 2)],
                                                      F.bernoulli(0.3)),
    "two_laws": _two_law_field,
}


@pytest.mark.parametrize("case", sorted(TABLE_NORM_CASES))
def test_table_norms_are_each_groups_first_index_norms_bit_for_bit(case):
    """Each index's table norms are ||X - E X||_p of its group's first
    index, by local enumeration of that index alone, bit for bit, on fields
    of several index groups or of a group whose indices hold their sources
    in several slot orders (the triangle and the two-law field both)."""
    f = TABLE_NORM_CASES[case]()
    first, inverse = f.groups
    orders = {(g, tuple(np.argsort(row, kind="stable"))) for g, row in zip(inverse, f.supports)}
    assert first.size > 1 or len(orders) > 1
    assert (len(orders) > first.size) == (case in ("triangle", "two_laws"))
    want = np.empty((first.size, 3))
    for g, i in enumerate(first.tolist()):
        ((_, probs, X),) = F.local_values(f, [i])
        a = np.abs(X - f.means[[i], None])
        want[g] = [(np.add.reduce(a**p * probs, axis=1) ** (1 / p))[0] for p in (2, 3, 4)]
    t = M.exact_moment_table(f)
    assert np.array_equal(np.stack([t.l2, t.l3, t.l4], axis=1), want[inverse])


def reference_signature_groups(field: F.LatentSourceField, idx) -> tuple[np.ndarray, np.ndarray]:
    """The full-key grouping of the indices ``idx``: the first slot holding
    each slot's source over the index's support row (pads coincide with
    pads), the law of every slot (pads as one more law), and the index's
    params and means.  Groups in key order."""
    rows = np.asarray(idx, dtype=np.int64)
    S = field.supports[rows]
    first_slot = np.array([[row.index(v) for v in row] for row in S.tolist()])
    laws = np.append(field.law_ids, field.law_ids.max(initial=0) + 1)[S]
    # one class per index: its params and means, ranked as a tuple
    values = [p.reshape(field.n, -1) for p in (*field.params, field.means)]
    values = np.concatenate([np.zeros((field.n, 1)), *values], axis=1)
    classes = np.unique(values, axis=0, return_inverse=True)[1].reshape(-1)[rows, None]
    keys = np.concatenate([first_slot, laws, classes], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _weighted(G, w, q):
    return (G * w).sum(axis=-1) + q


def random_grouping_field(seed: int, kind: str) -> F.LatentSourceField:
    """A field with many coinciding signatures: few sources and params."""
    rng = np.random.default_rng(seed)
    laws = [F.rademacher(), F.three_point(2.0, 1 / 3)]
    if kind == "continuous":
        laws.append(F.ContinuousSource("normal"))
    n_src = int(rng.integers(3, 6))
    sources = tuple(laws[k] for k in rng.integers(0, len(laws), size=n_src))
    n = int(rng.integers(8, 30))
    if kind == "pads":  # a random graph: uneven degrees pad short rows
        edges = {tuple(sorted(e)) for e in rng.integers(0, n, size=(n, 2)).tolist() if e[0] != e[1]}
        return F.build_graph_dependency(n, sorted(edges), sources[0])
    supports = rng.integers(0, n_src, size=(n, 3))
    if kind != "repeats":  # distinct sources per row, except in "repeats"
        supports = np.array([rng.choice(n_src, size=3, replace=False) for _ in range(n)])
    supports[rng.random(supports.shape) < 0.2] = -1
    w = rng.choice([0.5, 1.0], size=supports.shape) if kind == "params" else np.ones(supports.shape)
    q = rng.choice([0.0, 1.0], size=n) if kind == "params" else np.zeros(n)
    means = rng.choice([0.0, 0.25], size=n) if kind in ("given_means", "continuous") else None
    return F.LatentSourceField(sources, supports, _weighted, params=(w, q), means=means)


GROUP_KINDS = ("pads", "repeats", "params", "given_means", "continuous")


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_frozen_and_pair_groups_match_full_key_grouping(kind):
    # the index groups frozen on the field; pairs are no longer grouped
    shared = 0
    for seed in range(6):
        f = random_grouping_field(seed, kind)
        first, inverse = f.groups
        ref_first, ref_inverse = reference_signature_groups(f, np.arange(f.n))
        assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse)
        assert not first.flags.writeable and not inverse.flags.writeable
        shared += f.n - first.size
    assert shared > 0  # some indices share a signature


def test_exact_moment_table_reads_frozen_index_groups(monkeypatch):
    f = F.build_m_dependent(6, 1, F.three_point())

    def recomputed(*args):
        raise AssertionError("index signatures recomputed after build")

    monkeypatch.setattr(F, "_signatures", recomputed)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    h = M.exact_moment_table(f)
    first, inverse = f.groups
    assert np.array_equal(t.l2, t.l2[first][inverse]) and np.array_equal(h.l2, t.l2)


def test_wrong_sigma2_fails_the_identity_on_every_route():
    # a 1-dependent window field: the covariances over A_i = {i} leave the
    # neighbor terms out, so their sum falls short of Var(S) and fails the
    # identity over the field's own overlap, read by local enumeration; a
    # sum field (closed-form Var(S)) and one whose Var(S) is enumerated
    # alike (the checker stacks' route is tested in test_oracle.py)
    f = F.build_m_dependent(6, 1, F.rademacher())
    g = window_field(6, lambda a, b: (1 + a) * (1 + b))
    for field in (f, g):
        walk = O.walk_outcomes(field, var=True, keep=True)
        short = float(pair_covariance(field, np.repeat(np.arange(6)[:, None], 2, 1)).sum())
        assert short < walk.sigma2
        with pytest.raises(AssertionError, match="variance identity violated"):
            M.exact_moment_table(field, short)
        table = M.exact_moment_table(field, walk.sigma2)
        assert table.mode == "exact" and table.sigma2 == walk.sigma2


def test_stale_transitive_flag_takes_no_shortcut():
    # a copy of an iid field with other sources keeps its metadata, the
    # index_transitive flag included; its three index groups show the change
    f = F.build_iid_field(9, F.rademacher())
    laws = (F.rademacher(), F.bernoulli(0.55), F.three_point())
    g = dataclasses.replace(f, sources=tuple(laws[s % 3] for s in range(9)), means=None)
    assert g.metadata["index_transitive"] and g.groups[0].size == 3
    walk = O.walk_outcomes(g, keep=True)
    s = walk.X.sum(axis=1)
    enumerated = float(walk.probs @ s**2) - float(walk.probs @ s) ** 2
    closed = O.walk_outcomes(g, var=True).sigma2
    assert closed == pytest.approx(5.2425, rel=1e-12)
    assert enumerated == pytest.approx(closed, rel=1e-12)
    assert M.exact_local_moments(g)[1] == pytest.approx(closed, rel=1e-12)
    assert M.exact_moment_table(g).sigma2 == pytest.approx(closed, rel=1e-12)
    assert M.exact_moment_table(g, closed).mode == "exact"


TRANSITIVE_CASES = {
    "triangle_8": lambda: F.build_decorated_graph_field(8, [(0, 1), (1, 2), (0, 2)], F.bernoulli(0.3)),
    "triangle_20": lambda: F.build_decorated_graph_field(20, [(0, 1), (1, 2), (0, 2)], F.bernoulli(0.3)),
    "cycle4_9": lambda: F.build_decorated_graph_field(9, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                                      F.bernoulli(0.3)),
    "cycle4_12": lambda: F.build_decorated_graph_field(12, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                                       F.bernoulli(0.3)),
    "ustat_m2_40": lambda: F.build_ustat_field([40], 2, lambda *x: sum(x), F.three_point()),
    "ustat_m3_20": lambda: F.build_ustat_field([20], 3, lambda *x: sum(x), F.three_point()),
    "iid_100": lambda: F.build_iid_field(100, F.rademacher()),
}


@pytest.mark.parametrize("case", sorted(TRANSITIVE_CASES))
def test_transitive_shortcut_equals_the_sum_over_every_index(case):
    # the shortcut (index 0's subsets, weighted by n) against the same field
    # without its index_transitive flag, which sums over every index
    f = TRANSITIVE_CASES[case]()
    assert f.metadata["index_transitive"] and f.groups[0].size == 1
    g = dataclasses.replace(f, metadata={k: v for k, v in f.metadata.items() if k != "index_transitive"})
    assert M.exact_local_moments(f)[1] == pytest.approx(M.exact_local_moments(g)[1],
                                                        rel=1e-12, abs=0)


def test_plan_tables_match_local_enumeration():
    # the first 20 instances of a checker suite: the norms that its stacks
    # precompute from the enumerated outcomes against local enumeration,
    # and the stacked walk's Var(S) cross-checked by the Hoeffding sum over
    # shared source subsets
    for k in range(20):
        pre, _, f, _ = random_instance(substream(314, STREAM_INSTANCES, k))
        local = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
        assert local.mode == "exact"
        first, inverse = f.groups
        for a, b in ((pre.l2[0], local.l2), (pre.l3[0], local.l3), (pre.l4[0], local.l4)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
            assert np.array_equal(a, a[first][inverse])  # one value per index group
        assert pre.norms[0]["sigma2"] == pytest.approx(local.sigma2, rel=1e-12, abs=0)
        kappa = pre.kappa[0]
        assert B.lam_scale(pre.norms[0], kappa) == pytest.approx(
            B.lam_scale(B.norm_sums(local)[0], kappa), rel=1e-12, abs=0)


def overlap_loop_sigma2(f: F.LatentSourceField) -> float:
    """Var(S) as a plain loop over the pairs (i, j) whose supports overlap,
    summing their pair_covariance."""
    supp = [set(row[row >= 0].tolist()) for row in f.supports]
    ij = [(i, j) for i in range(f.n) for j in range(f.n) if supp[i] & supp[j]]
    return math.fsum(pair_covariance(f, np.array(ij, dtype=np.int64).reshape(-1, 2)))


IDENTITY_CASES = {
    "word_inf": lambda: F.build_word_field([0, 1], 14, 2, [None]),
    "word_finite": lambda: F.build_word_field([0, 1, 0], 12, 2, [2, None]),
    "word_three_letters": lambda: F.build_word_field([0, 2], 10, 3, [3]),
    "constrained_m1": lambda: F.build_constrained_ustat_field(
        9, 1, lambda x, y: x * y + x, (None,), F.three_point()),
    "constrained_m2": lambda: F.build_constrained_ustat_field(
        8, 2, lambda x, y: x * y + y, (2,), F.rademacher()),
    "ustat_two_blocks": lambda: F.build_ustat_field([5, 4], 2, lambda x, y: x * y + x,
                                                    F.three_point()),
    "m_dependent": lambda: F.build_m_dependent(10, 2, F.three_point(2.0, 1 / 3)),
    "m_dependent_window": lambda: window_field(8, lambda a, b: (1 + a) * (2 + b) + a),
    "graph_cycle": lambda: F.build_graph_dependency(
        7, [(i, (i + 1) % 7) for i in range(7)], F.three_point()),
    "graph_star": lambda: F.build_graph_dependency(6, [(0, i) for i in range(1, 6)],
                                                   F.bernoulli(0.3)),
    **{f"pads_{seed}": (lambda seed=seed: random_grouping_field(seed, "pads")) for seed in range(2)},
    **{f"repeats_{seed}": (lambda seed=seed: random_grouping_field(seed, "repeats"))
       for seed in range(3)},
    **{
        f"random_{k}": (lambda k=k: random_instance(substream(2027, STREAM_INSTANCES, k))[2])
        for k in range(20)
    },
}


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_sigma2_identity_equals_the_overlapping_pair_loop(case):
    f = IDENTITY_CASES[case]()
    assert not f.metadata.get("index_transitive")  # no one-index shortcut
    if case.startswith("random_"):  # mixed laws, one index group per index
        assert f.groups[0].size == f.n
    if case.startswith(("pads_", "repeats_")):
        assert (f.supports < 0).any()
    if case.startswith("repeats_"):  # a source read by two slots of one index
        assert any(np.unique(row[row >= 0]).size < np.count_nonzero(row >= 0) for row in f.supports)
    assert M.exact_local_moments(f)[1] == pytest.approx(overlap_loop_sigma2(f), rel=1e-12, abs=0)


def exact_cubic(ns, values):
    """The cubic in n through four (n, value) points, in exact fractions."""
    pts = [(Fraction(n), Fraction(v)) for n, v in zip(ns, values)]

    def at(x):
        x = Fraction(x)
        return sum(v * math.prod((x - m) / (n - m) for m, _ in pts if m != n) for n, v in pts)
    return at


def test_word_sigma2_identity_at_n_300_is_the_exact_cubic(monkeypatch):
    # Var(S) of the word "ab" (gaps [inf], two fair letters) is a cubic in n:
    # fit through exact walks at n = 2..5, checked by walks at n = 6..12
    walk = {n: O.walk_outcomes(F.build_word_field([0, 1], n, 2, [None]), var=True).sigma2
            for n in range(2, 13)}
    cubic = exact_cubic(range(2, 6), [walk[n] for n in range(2, 6)])
    assert all(cubic(n) == Fraction(walk[n]) for n in range(6, 13))

    def no_overlap(field):
        raise AssertionError("the identity built the induced overlap")
    monkeypatch.setattr(F, "overlap_matrix", no_overlap)
    f = F.build_word_field([0, 1], 300, 2, [None])  # 44,850 indices
    tracemalloc.start()
    try:
        got = M.exact_local_moments(f)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(float(cubic(300)), rel=1e-12, abs=0)
    assert peak < 64 * 2**20  # about 9 MB; the overlap route peaked at about 1.2 GB


def test_windowed_constrained_u_sigma2_identity_at_n_128_is_the_exact_polynomial(monkeypatch):
    # m = 1 Rademacher windows, kernel x y, gaps [inf]: two tuples that share
    # a position share a whole window, so the pairs sharing two or more
    # sources grow as n^3 (2,118,884 at n = 128).  Var(S) is a polynomial in
    # n of degree at most 3: fit through exact walks at n = 2..5, checked by
    # walks at n = 6..12
    def build(n):
        return F.build_constrained_ustat_field(n, 1, lambda x, y: x * y, (None,), F.rademacher())
    walk = {n: O.walk_outcomes(build(n), var=True).sigma2 for n in range(2, 13)}
    cubic = exact_cubic(range(2, 6), [walk[n] for n in range(2, 6)])
    assert all(cubic(n) == Fraction(walk[n]) for n in range(6, 13))

    def no_overlap(field):
        raise AssertionError("the identity built the induced overlap")
    monkeypatch.setattr(F, "overlap_matrix", no_overlap)
    f = build(128)  # 8,128 indices
    tracemalloc.start()
    try:
        got = M.exact_local_moments(f)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(float(cubic(128)), rel=1e-12, abs=0)
    assert peak < 32 * 2**20  # about 15 MB; the pair remainder peaked at about 72 MB


def test_star_sigma2_identity_lists_only_the_center_subsets():
    # the center of a star of 16 leaves reads 17 sources: 2^17 - 1 subsets
    # listed, 3^17 or 4^17 would not fit the bound; only the 16 edge
    # sources are read by two indices.  A sum field's Var(S) is closed form
    f = F.build_graph_dependency(17, [(0, i) for i in range(1, 17)], F.bernoulli(0.3))
    tracemalloc.start()
    try:
        got = M.exact_local_moments(f)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(O.walk_outcomes(f, var=True).sigma2, rel=1e-12, abs=0)
    assert peak < 128 * 2**20  # about 61 MB


def test_wide_index_is_refused_by_the_byte_cap_before_its_subsets_are_listed(monkeypatch):
    # one index reading 16 sources: its 2^16 subsets would take about 17 MB
    # to list, its grid 65,536 outcomes x 16 values 8 MB
    f = F.LatentSourceField(tuple(F.rademacher() for _ in range(16)), np.arange(16)[None, :],
                            lambda G: G.prod(axis=-1), means=np.zeros(1))
    monkeypatch.setattr(F, "ENUM_BYTES_CAP", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded, match="index 0: 65536 outcomes x 16 values"):
            M.exact_local_moments(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # about 13 kB
