"""Moment-table tests.

Core claims:
    - exact tables reproduce hand values (Rademacher norms, window-field
      variances, Bernoulli variances) and the two Var(S) routes agree
    - Monte-Carlo tables agree with exact ones within standard errors,
      and batch-means errors shrink like 1/sqrt(reps)
    - L_p monotonicity holds entrywise; lambda is scale-invariant
    - the kernel projection quantities match two-point enumerations and
      flag the degenerate case
    - signature-grouped exact means, norms and Var(S) equal one local
      enumeration per index and per pair, for every builder family and
      for random enumerable instances
    - the index groups frozen on a field and the pair groups built from
      them equal the full-key grouping (pattern of repeated sources over
      the concatenated support rows, laws slot by slot, params and means),
      group order included, with pads, repeated sources, per-index
      params, given means and continuous sources; exact tables read the
      frozen index groups
    - the CSV section equals the per-row formatter byte for byte for
      exact, hybrid and Monte-Carlo tables, tables without groups,
      interleaved groups, special floats, and single-group runs whose
      index crosses each digit width, with default and small blocks
    - a system too small for the field fails the variance identity on
      every route (closed form, plan, enumeration), and tables read from
      an enumeration plan equal the locally enumerated ones
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

import locdep.bounds as B
import locdep.cli as cli
import locdep.fields as F
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O
from locdep.errors import DegenerateKernel, EnumerationCapExceeded
from locdep.rng import STREAM_INSTANCES, substream


def test_iid_rademacher_table():
    f = F.build_iid_field(2, F.rademacher())
    t = M.exact_moment_table(f, F.induced_neighborhoods(f))
    assert np.allclose(t.l2, 1) and np.allclose(t.l3, 1) and np.allclose(t.l4, 1)
    assert t.sigma2 == pytest.approx(2.0)
    assert B.lam_scale(t, 1) == pytest.approx(1.0)
    assert t.mode == "exact"


def test_window_field_variance_identity_two_ways():
    f = F.build_m_dependent(4, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    t = M.exact_moment_table(f, sys)
    assert t.sigma2 == pytest.approx(4 * 4 - 2)  # Var(U_1 + 2U_2 + 2U_3 + U_4 ... )
    assert t.l2[0] ** 2 == pytest.approx(2.0)  # Var of a two-Rademacher sum
    t_local = M.exact_moment_table(f, sys, cap=0)
    assert t_local.sigma2 == pytest.approx(t.sigma2, rel=1e-12)


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


def test_mc_agrees_with_exact_within_three_ses():
    f = F.build_m_dependent(5, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    t = M.exact_moment_table(f, sys)
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
    fc = F.build_m_dependent(5, 1, F.rademacher(), window_evaluator=lambda a, b: 2.5 * (a + b))
    t = M.exact_moment_table(f)
    tc = M.exact_moment_table(fc)
    assert B.lam_scale(tc, 4) == pytest.approx(B.lam_scale(t, 4), rel=1e-12)


def test_hoeffding_projection_hand_values():
    km = M.hoeffding_sigma1(lambda x, y: x + y, 2, F.rademacher())
    assert km.sigma1 == pytest.approx(1.0)
    assert km.theta == pytest.approx(0.0)
    assert km.var == pytest.approx(2.0)
    with pytest.raises(DegenerateKernel):
        M.hoeffding_sigma1(lambda x, y: x * y, 2, F.rademacher())
    # h = (x-y)^2/2 on Rademacher: theta = 1 and the conditional mean
    # g(x) = (x^2 - 1)/2 vanishes on the support, so it is degenerate too
    with pytest.raises(DegenerateKernel):
        M.hoeffding_sigma1(lambda x, y: (x - y) ** 2 / 2, 2, F.rademacher())
    with pytest.raises(EnumerationCapExceeded):  # sigma1 is enumerated
        M.hoeffding_sigma1(lambda x, y: x + y, 2, F.ContinuousSource("uniform"))


def test_transitive_sigma2_shortcut_matches_full_sum():
    f = F.build_decorated_graph_field(5, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4))
    fast = M.exact_sigma2_local(f)
    slow = M.exact_sigma2_local(f, F.induced_neighborhoods(f))
    assert fast == pytest.approx(slow, rel=1e-10)
    full = O.walk_outcomes(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)), var=True).sigma2
    fast4 = M.exact_sigma2_local(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)))
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
    exact = M.exact_moment_table(f, F.induced_neighborhoods(f))
    hybrid = M.exact_moment_table(f, cap=0)
    mc = M.mc_moment_table(f, reps=1000, master_seed=8)
    assert exact.mode == "exact" and hybrid.mode == "hybrid" and exact.groups is not None
    assert mc.groups is None
    rng = np.random.default_rng(9)
    odd = np.array([0.0, -0.0, 1e-300, 1e300, np.nan, np.inf, 1 / 3, 2.0**-1074])
    bare = M.MomentTable(l2=odd, l3=rng.normal(size=8), l4=odd[::-1].copy(), sigma2=1.0,
                         mode="monte_carlo", se_l3=rng.normal(size=8))
    for table in (exact, hybrid, mc, bare, dataclasses.replace(exact, groups=None)):
        assert csv_bytes(table) == reference_csv(table)


def test_csv_serialization_shape():
    f = F.build_iid_field(3, F.rademacher())
    t = M.exact_moment_table(f)
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
                         se_l2=cols[2] / 7 if se else None, groups=g)


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
    for groups in (alternating, runs, runs[::-1].copy()):
        table = grouped_table(groups, values)
        assert csv_bytes(table) == reference_csv(table)
        assert csv_bytes(dataclasses.replace(table, groups=None)) == reference_csv(table)
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
    assert table.n == 6840 and np.unique(table.groups).size == 1
    stamp, rest = (tmp_path / "out" / "moments.csv").read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# config_hash=") and stamp.endswith(b" seed=5")
    assert rest == b"# n=20\n" + reference_csv(table)


GROUPING_CASES = {
    "iid": lambda: F.build_iid_field(4, F.three_point()),
    "iid_bernoulli": lambda: F.build_iid_field(3, F.bernoulli(0.3)),
    "m_dependent": lambda: F.build_m_dependent(5, 2, F.three_point(2.0, 1 / 3)),
    "m_dependent_window": lambda: F.build_m_dependent(
        5, 1, F.rademacher(), window_evaluator=lambda a, b: a * b + a),
    "graph_star": lambda: F.build_graph_dependency(
        5, [(0, 1), (0, 2), (0, 3), (3, 4)], F.three_point()),
    "ustat": lambda: F.build_ustat_field([4, 3], 2, lambda x, y: x * y + x, F.three_point()),
    "word": lambda: F.build_word_field([0, 1], 5, 2, [None]),
    "constrained_m1": lambda: F.build_constrained_ustat_field(
        6, 1, lambda x, y: x * y + x, (None,), F.rademacher()),
    "decorated_path": lambda: F.build_decorated_graph_field(
        4, [(0, 1), (1, 2)], F.bernoulli(0.4)),
    **{
        f"random_{k}": (lambda k=k: O.random_enumerable_instance(substream(77, 5, k)).pre.field)
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
    if f.center:
        assert np.allclose(F.compute_means(f), means, rtol=1e-12, atol=1e-13)
    t = M.exact_moment_table(f, cap=0)
    assert np.allclose(np.stack([t.l2, t.l3, t.l4], axis=1), norms, rtol=1e-12, atol=1e-13)
    assert np.allclose(M.exact_index_norms(f, np.arange(f.n)), norms, rtol=1e-12, atol=1e-13)
    sys = F.induced_neighborhoods(f)
    pair_sum = 0.0
    A = [sys.M.row(i) for i in range(f.n)]
    for i, a in enumerate(A):
        for j in a:
            probs, X = ungrouped_values(f, [i, j])
            pair_sum += float(probs @ (X[:, 0] * X[:, 1])) - float(probs @ X[:, 0]) * float(probs @ X[:, 1])
    ij = np.array([(i, j) for i, a in enumerate(A) for j in a])
    assert M.exact_pair_covariance(f, ij).sum() == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    local = M.exact_sigma2_local(f)
    assert local == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    assert M.exact_sigma2_local(f, sys) == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    assert local == pytest.approx(O.walk_outcomes(f, var=True).sigma2, rel=1e-10, abs=1e-12)


def reference_signature_groups(field: F.LatentSourceField, idx) -> tuple[np.ndarray, np.ndarray]:
    """The full-key grouping of indices ((N,)) or pairs ((N, 2)): the first
    slot holding each slot's source over the concatenated support rows
    (pads coincide with pads), the law of every slot (pads as one more
    law), and the params and means of each index.  Groups in key order."""
    rows = np.asarray(idx, dtype=np.int64).reshape(len(idx), -1)
    S = field.supports[rows].reshape(len(rows), -1)
    first_slot = np.array([[row.index(v) for v in row] for row in S.tolist()])
    laws = np.append(field.law_ids, field.law_ids.max(initial=0) + 1)[S]
    # one class per index: its params and means, ranked as a tuple
    values = [p.reshape(field.n, -1) for p in (*field.params, *(() if field.means is None else (field.means,)))]
    values = np.concatenate([np.zeros((field.n, 1)), *values], axis=1)
    classes = np.unique(values, axis=0, return_inverse=True)[1].reshape(-1)[rows]
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
def test_frozen_and_pair_groups_match_full_key_grouping(kind, monkeypatch):
    # pairs are keyed in chunks: each field here fits one chunk of the
    # default size, and in chunks of 5 pairs the groups merge across many
    for chunk in (F.PAIR_CHUNK, 5):
        monkeypatch.setattr(F, "PAIR_CHUNK", chunk)
        shared = 0
        for seed in range(6):
            f = random_grouping_field(seed, kind)
            first, inverse = f.groups
            ref_first, ref_inverse = reference_signature_groups(f, np.arange(f.n))
            assert np.array_equal(first, ref_first) and np.array_equal(inverse, ref_inverse)
            assert not first.flags.writeable and not inverse.flags.writeable
            ij = np.array(list(itertools.product(range(f.n), repeat=2)))
            got = F.signature_groups(f, ij)
            ref = reference_signature_groups(f, ij)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            shared += ij.shape[0] - ref[0].size
        assert shared > 0  # some pairs share a signature


def test_exact_moment_table_reads_frozen_index_groups(monkeypatch):
    f = F.build_m_dependent(6, 1, F.three_point())
    pair_groups = F.signature_groups

    def pairs_only(field, idx):
        if np.ndim(idx) == 1:
            raise AssertionError("index signatures recomputed after build")
        return pair_groups(field, idx)

    monkeypatch.setattr(F, "signature_groups", pairs_only)
    monkeypatch.setattr(M, "signature_groups", pairs_only)
    t = M.exact_moment_table(f, F.induced_neighborhoods(f))
    h = M.exact_moment_table(f, cap=0)
    assert np.array_equal(t.groups, f.groups[1]) and np.array_equal(h.l2, t.l2)


def test_too_small_system_fails_the_identity_on_every_route():
    # a 1-dependent window field checked against A_i = {i}: the neighbor
    # covariances are left out, so the identity sum falls short of Var(S)
    f = F.build_m_dependent(6, 1, F.rademacher())
    alone = nb.make_system([[i] for i in range(6)])
    with pytest.raises(AssertionError, match="variance identity violated"):
        M.exact_moment_table(f, alone)  # closed-form Var(S) of a sum field
    with pytest.raises(AssertionError, match="variance identity violated"):
        O.precompute(f, alone)  # Var(S) and the identity read from the plan
    g = F.build_m_dependent(6, 1, F.rademacher(), window_evaluator=lambda a, b: (1 + a) * (1 + b))
    with pytest.raises(AssertionError, match="variance identity violated"):
        M.exact_moment_table(g, alone)  # enumerated Var(S)
    for field in (f, g):  # the induced system passes on every route
        sys = F.induced_neighborhoods(field)
        assert M.exact_moment_table(field, sys).sigma2 == pytest.approx(
            O.precompute(field, sys).table.sigma2, rel=1e-12)


def test_plan_tables_match_local_enumeration():
    # the first 20 instances of a checker suite: the table precompute reads
    # from the enumerated outcomes against local enumeration and the
    # enumerated Var(S) cross-checked by pair groups
    for k in range(20):
        pre = O.random_enumerable_instance(substream(314, STREAM_INSTANCES, k)).pre
        f = pre.field
        local = M.exact_moment_table(f, pre.sys)
        plan = pre.table
        assert plan.mode == local.mode == "exact"
        assert np.array_equal(plan.groups, local.groups)
        for a, b in ((plan.l2, local.l2), (plan.l3, local.l3), (plan.l4, local.l4)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
            first, inverse = f.groups
            assert np.array_equal(a, a[first][inverse])  # one value per index group
        assert plan.sigma2 == pytest.approx(local.sigma2, rel=1e-12, abs=0)
        kappa = pre.derived.kappa
        assert B.lam_scale(plan, kappa) == pytest.approx(B.lam_scale(local, kappa), rel=1e-12, abs=0)
