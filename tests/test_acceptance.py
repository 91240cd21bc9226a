"""Acceptance suite: one test per criterion, each printing a PASS line.

The theorem-level bound constants are unspecified, so absolute bound
values are never asserted; acceptance combines exact-oracle certification
of the explicit-constant inequalities, exact-vs-Monte-Carlo agreement,
and rate/ratio properties of the bound shapes.  All Monte-Carlo criteria
run under the pinned master seed below and report their margins.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import locdep.bounds as B
import locdep.fields as F
import locdep.harness as H
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O
import locdep.statistics as st
from locdep.rng import substream

ACCEPT_SEED = 20260810
PASS_TOL = 1e-10


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def checker_verdicts():
    """200 randomized enumerable instances through every checker; shared
    by criteria 1-3."""
    return O.run_checker_suite(
        200, ACCEPT_SEED, checks=O.SUITE_CHECKS, include_r4=True, max_indices=10
    )


def test_criterion_1_explicit_constant_suite(checker_verdicts):
    """200 instances: quadratic-fluctuation lemma (16), second-moment
    lemma, and both concentration inequalities (156, 8755): zero failures
    at margin >= -1e-10 max(1, rhs)."""
    wanted = ("lemma_xiyi", "lemma_xiyi_corollary", "lemma_s2", "prop1", "prop2")
    verds = [v for v in checker_verdicts if v.check_id in wanted]
    assert len(verds) == 200 * len(wanted)
    failures = [v for v in verds if v.counts_as_failure]
    assert failures == [], [f"{v.check_id} {v.digest}" for v in failures]
    for v in verds:
        assert v.margin >= -PASS_TOL * max(1.0, abs(v.rhs))
    worst = min(v.margin / max(1.0, abs(v.rhs)) for v in verds)
    _report("1", f"{len(verds)} verdicts, zero failures, worst relative margin {worst:.3e}")


def test_criterion_2_fourth_moment(checker_verdicts):
    """Fourth-moment bound at constant 13: every precondition-satisfied
    instance passes; the large-n Monte-Carlo regime has E(S/sigma)^4
    within 3 SE of 3, hence below 13."""
    s4 = [v for v in checker_verdicts if v.check_id.startswith("lemma_s4")]
    assert len(s4) == 3 * 200
    satisfied = [v for v in s4 if v.precondition == "satisfied"]
    bad = [v for v in satisfied if not v.passed]
    assert bad == []
    all_pass = sum(v.passed for v in s4)

    # iid Rademacher n = 250000 with 2000 replications.  The first
    # fourth-moment precondition holds with equality (n^{-1/2} = 1/500);
    # the second evaluates to 2/sqrt(n), which only reaches 1/500 at
    # n = 1e6, so that size is run as the fully-satisfied case.
    def sampled_w4(f, table, reps: int) -> tuple[float, float]:
        w4 = (F.draw_sums(f, ACCEPT_SEED, range(reps)) / table.sigma) ** 4
        return float(w4.mean()), float(w4.std(ddof=1) / math.sqrt(reps))

    f_250k = F.build_iid_field(250000, F.rademacher())
    t_250k = M.exact_moment_table(f_250k, cap=0)
    _, info = O.fourth_moment_precondition(t_250k, 1, 1, 1)
    assert info["pre1"] <= 1.0 / 500.0  # the stated n^{-1/2} <= 1/500
    mean_w4, se = sampled_w4(f_250k, t_250k, 2000)
    assert abs(mean_w4 - 3.0) <= 3 * se
    assert mean_w4 <= 13.0

    f_1m = F.build_iid_field(10**6, F.rademacher())
    t_1m = M.exact_moment_table(f_1m, cap=0)
    pre_ok_1m, _ = O.fourth_moment_precondition(t_1m, 1, 1, 1)
    assert pre_ok_1m
    mean_w4_1m, se_1m = sampled_w4(f_1m, t_1m, 2000)
    assert abs(mean_w4_1m - 3.0) <= 3 * se_1m and mean_w4_1m <= 13.0
    _report(
        "2",
        f"{len(satisfied)}/{len(s4)} precondition-satisfied (all pass; "
        f"{all_pass}/{len(s4)} pass overall); E W^4 = {mean_w4:.3f}+-{se:.3f} "
        f"at n=250000, {mean_w4_1m:.3f}+-{se_1m:.3f} at n=1e6 (both within "
        f"3 SE of 3, <= 13)",
    )


def test_criterion_3_clamped_term_bound(checker_verdicts):
    """Four-function family at constants 27/11: zero failures among
    precondition-satisfied instances; the family also holds on the
    dependent reference instances."""
    r4 = [v for v in checker_verdicts if v.check_id.startswith("lemma_r4")]
    assert len(r4) == 4 * 200
    bad = [v for v in r4 if v.counts_as_failure]
    assert bad == []
    n_sat = sum(v.precondition == "satisfied" for v in r4)
    # non-vacuous reference instances (precondition violated but inequality holds)
    for build in (
        lambda: F.build_m_dependent(6, 1, F.rademacher()),
        lambda: F.build_iid_field(8, F.rademacher()),
    ):
        f = build()
        sysn = F.induced_neighborhoods(f)
        verds = O.check_lemma_r4(O.precompute(f, sysn))
        assert all(v.passed for v in verds)
    all_pass = sum(v.passed for v in r4)
    _report(
        "3",
        f"{n_sat}/{len(r4)} precondition-satisfied (zero failures); "
        f"{all_pass}/{len(r4)} pass overall; reference instances pass",
    )


def test_criterion_4_exact_vs_mc_kolmogorov():
    """|mc ks - exact ks| <= 2/sqrt(R) at R = 1e5 in at least 19/20 seeds."""
    reps = 10**5
    f = F.build_m_dependent(7, 1, F.rademacher())
    sysn = F.induced_neighborhoods(f)
    table = M.exact_moment_table(f, sysn)
    exact = O.exact_kolmogorov(f, "w1", sys=sysn, sigma=table.sigma)
    tol = 2.0 / math.sqrt(reps)
    hits = 0
    gaps = []
    for seed in range(20):
        s = H.mc_run(f, "w1", reps, ACCEPT_SEED + seed, sigma=table.sigma)
        gaps.append(abs(s.ks - exact))
        hits += gaps[-1] <= tol
    assert hits >= 19, f"{hits}/20 within {tol:.4f}; gaps={gaps}"
    _report("4", f"{hits}/20 seeds within 2/sqrt(R)={tol:.4f} of exact ks={exact:.5f}")


GRID = [64, 256, 1024, 4096]


def _grid_run(build, statistic, reps, path0, bound_fn):
    summaries, reports = [], []
    for gi, n in enumerate(GRID):
        f = build(n)
        table = M.exact_moment_table(f, cap=0)
        sys = F.induced_neighborhoods(f) if statistic in ("w2", "w2bar") else None
        s = H.mc_run(
            f, statistic, reps, ACCEPT_SEED, sigma=table.sigma,
            sys=sys, path=(path0 + gi,),
        )
        summaries.append(s)
        reports.append(bound_fn(f, table, n))
    return summaries, reports


def test_criterion_5_iid_rate_and_ratio():
    """iid Rademacher W1 on the n grid: log-log slope in [-0.75, -0.35]
    (shape 3 n^{-1/2}); ks/shape spread < 3."""
    summaries, reports = _grid_run(
        lambda n: F.build_iid_field(n, F.rademacher()),
        "w1", 10**5, 0,
        lambda f, t, n: B.bound_main(t, 1, 1),
    )
    for n, rep in zip(GRID, reports):
        assert rep.value == pytest.approx(3.0 / math.sqrt(n), rel=1e-12)
    fit = H.rate_fit([(n, s.ks) for n, s in zip(GRID, summaries)])
    assert -0.75 <= fit.slope <= -0.35, fit.slope
    ratio = H.ratio_table(GRID, summaries, reports)
    assert ratio.spread < 3.0, ratio.spread
    _report("5", f"slope={fit.slope:.4f}, ratio spread={ratio.spread:.3f}")


def test_criterion_6_self_normalized_normal():
    """iid standard-normal sources, n = 200, R = 5e4: ks(W2) <= 0.05 with
    zero rejections."""
    n, reps = 200, 5 * 10**4
    f = F.build_iid_field(n, F.ContinuousSource("normal"), center=False)
    s = H.mc_run(f, "w2", reps, ACCEPT_SEED, sys=F.induced_neighborhoods(f))
    assert s.rejected == 0
    assert s.ks <= 0.05, s.ks
    _report("6", f"ks(W2)={s.ks:.4f} <= 0.05, rejections=0")


@pytest.mark.slow
def test_criterion_7_m_dependent_regime():
    """m = 1 adjacent-sum Rademacher field on the grid: W1 slope in the
    window and the self-normalized ratio table finite with spread < 5."""
    def build(n):
        return F.build_m_dependent(n, 1, F.rademacher())

    def shape(f, t, n):
        der = nb.derive(F.induced_neighborhoods(f))
        return B.bound_self_normalized(t, der.kappa, der.tau)

    w1_summ, _ = _grid_run(build, "w1", 10**5, 10, shape)
    fit = H.rate_fit([(n, s.ks) for n, s in zip(GRID, w1_summ)])
    assert -0.75 <= fit.slope <= -0.35, fit.slope
    w2_summ, w2_reports = _grid_run(build, "w2", 10**5, 20, shape)
    assert all(s.rejected == 0 for s in w2_summ)
    ratio = H.ratio_table(GRID, w2_summ, w2_reports)
    assert ratio.finite
    assert ratio.spread < 5.0, ratio.spread
    _report("7", f"W1 slope={fit.slope:.4f}, W2 ratio spread={ratio.spread:.3f}")


def test_criterion_8_decorated_triangles():
    """Triangle counts in G(n, 0.3), n in {20, 40, 80}, R = 2e4: ks
    strictly decreasing and ks / decorated-shape spread < 5."""
    grid = [20, 40, 80]
    summaries, reports = [], []
    for gi, n in enumerate(grid):
        f = F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.3))
        table = M.exact_moment_table(f, cap=0)
        s = H.mc_run(f, "w1", 2 * 10**4, ACCEPT_SEED, sigma=table.sigma, path=(30 + gi,))
        summaries.append(s)
        reports.append(B.bound_decorated(table, n, 3))
    ks = [s.ks for s in summaries]
    assert all(b < a for a, b in zip(ks, ks[1:])), ks
    ratio = H.ratio_table(grid, summaries, reports)
    assert ratio.spread < 5.0, ratio.spread
    _report("8", f"ks={['%.4f' % k for k in ks]} decreasing, spread={ratio.spread:.3f}")


def test_criterion_9_oracle_equivalence():
    """Field sums equal the naive counters exactly: 100 random strings
    (n <= 500), 100 random permutations (n <= 10, l <= 3), 50 random
    graphs (n <= 8)."""
    rng = substream(ACCEPT_SEED, 90)
    # 100 random word instances; sizes chosen to keep the tuple set affordable
    for k in range(100):
        l = int(rng.integers(2, 4))
        style = int(rng.integers(0, 3))
        if style == 0:  # all gaps finite, full length
            n = int(rng.integers(20, 501))
            gaps = tuple(int(rng.integers(1, 4)) for _ in range(l - 1))
        elif style == 1 and l == 2:  # one infinite gap at pair level
            n = int(rng.integers(20, 501))
            gaps = (None,)
        else:
            n = int(rng.integers(20, 61))
            gaps = tuple(None if rng.random() < 0.5 else int(rng.integers(1, 4))
                         for _ in range(l - 1))
        alpha = int(rng.integers(2, 4))
        word = rng.integers(0, alpha, size=l).tolist()
        f = F.build_word_field(word, n, alpha, gaps)
        rows = F.draw_source_rows(f, ACCEPT_SEED, [k], path=(91,))
        total = float((F.evaluate_values(f, rows) + f.means).sum())
        direct = F.count_word_occurrences(rows[0].astype(int).tolist(), word, gaps)
        assert int(round(total)) == direct and abs(total - round(total)) < 1e-9
    # 100 random permutation instances
    for k in range(100):
        n = int(rng.integers(3, 11))
        l = int(rng.integers(2, 4))
        tau = (rng.permutation(l) + 1).tolist()
        gaps = tuple(None if rng.random() < 0.5 else int(rng.integers(1, 4))
                     for _ in range(l - 1))
        f = F.build_pattern_field(n, tau, gaps)
        rows = F.draw_source_rows(f, ACCEPT_SEED, [k], path=(92,))
        total = float((F.evaluate_values(f, rows) + f.means).sum())
        perm = (np.argsort(np.argsort(rows[0])) + 1).tolist()
        direct = st.count_pattern_occurrences(perm, tau, gaps)
        assert int(round(total)) == direct and abs(total - round(total)) < 1e-9
    # 50 random decorated graphs
    patterns = [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]]
    for k in range(50):
        edges = patterns[int(rng.integers(0, 3))]
        v = max(max(e) for e in edges) + 1
        n = int(rng.integers(v, 9))
        p = float(rng.uniform(0.2, 0.8))
        f = F.build_decorated_graph_field(n, edges, F.bernoulli(p))
        rows = F.draw_source_rows(f, ACCEPT_SEED, [k], path=(93,))
        total = float((F.evaluate_values(f, rows) + f.means).sum())
        adj = np.zeros((n, n), dtype=int)
        triu = np.triu_indices(n, k=1)
        adj[triu] = rows[0].astype(int)
        adj += adj.T
        inj, _ = st.subgraph_statistic(adj, edges)
        assert int(round(total)) == inj and abs(total - round(total)) < 1e-9
    _report("9", "100 word + 100 pattern + 50 graph instances: exact integer equality")


def test_criterion_10_distributed_u_identities():
    """k = 1 distributed U equals the classical U to 1e-12 relative on 50
    random datasets; Var(W) >= 0.98 by Monte Carlo; per-block neighborhood
    sizes obey the binomial bound."""
    rng = substream(ACCEPT_SEED, 100)
    kernel = lambda x, y: x * y + 0.5 * (x + y)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        data = rng.normal(size=n)
        u_d = st.distributed_u([data], kernel, 2)
        u_c = st.classical_u(data, kernel, 2)
        assert u_d == pytest.approx(u_c, rel=1e-12)
    # field route agrees with the direct oracle on sampled data
    f1 = F.build_ustat_field([9], 2, kernel, F.three_point())
    rows = F.draw_source_rows(f1, ACCEPT_SEED, range(5), path=(101,))
    x = F.evaluate_values(f1, rows)
    for r in range(5):
        direct = st.classical_u(rows[r], kernel, 2) - f1.metadata["theta"]
        assert x[r].sum() == pytest.approx(direct, rel=1e-12, abs=1e-12)

    # Var(W) >= 1 - 0.02 with W = sqrt(N)/(m sigma1) (U_d - theta)
    m, sizes = 2, [8, 8, 8]
    n_total = sum(sizes)
    h = lambda x, y: x + y
    km = M.hoeffding_sigma1(h, m, F.three_point())
    f = F.build_ustat_field(sizes, m, h, F.three_point())
    table = M.mc_moment_table(f, reps=2 * 10**4, master_seed=ACCEPT_SEED)
    var_w = n_total * table.sigma2 / (m**2 * km.sigma1**2)
    assert var_w >= 0.98, var_w

    # per-block reverse-neighborhood bound
    slices = f.metadata["block_slices"]
    kappas = []
    for bi, (lo, hi) in enumerate(slices):
        supports = f.supports[lo:hi]
        a_sets = [
            tuple(j for j, t in enumerate(supports) if set(s) & set(t))
            for s in supports
        ]
        sys_b = nb.make_system(a_sets)
        der_b = nb.derive(sys_b)
        bound = m * math.comb(sizes[bi] - 1, m - 1)
        max_rev = int(np.diff(der_b.Mt.indptr).max())  # max |N_j|
        assert max_rev <= bound, (max_rev, bound)
        assert der_b.kappa <= 2 * bound, (der_b.kappa, bound)
        kappas.append(der_b.kappa)
    _report(
        "10",
        f"50 identities exact; Var(W)={var_w:.3f} >= 0.98; per-block "
        f"kappas={kappas} within bounds",
    )


def test_criterion_11_structural_invariants():
    """Scale invariance of shapes and W2, relabeling invariance of
    kappa/tau/shapes/exact ks, and the beta evaluator against the naive
    quadruple-loop oracle at n = 30."""
    rng = substream(ACCEPT_SEED, 110)
    # scale invariance
    f = F.build_m_dependent(6, 1, F.rademacher())
    fc = F.build_m_dependent(6, 1, F.rademacher(),
                             window_evaluator=lambda a, b: 2.5 * (a + b))
    sysn = F.induced_neighborhoods(f)
    der = nb.derive(sysn)
    t, tc = M.exact_moment_table(f, sysn), M.exact_moment_table(fc, sysn)
    shape_fns = [
        lambda tt: B.bound_main(tt, der.kappa, der.tau).value,
        lambda tt: B.bound_self_normalized(tt, der.kappa, der.tau).value,
        lambda tt: B.bound_general_beta(tt, sysn, der).value,
        lambda tt: B.bound_graph(tt, 2).value,
        lambda tt: B.bound_constrained_u(tt, 6, 1).value,
        lambda tt: B.bound_decorated(tt, 6, 2).value,
    ]
    for fn in shape_fns:
        assert fn(tc) == pytest.approx(fn(t), rel=1e-12)
    for _ in range(10):
        x = rng.normal(size=(1, 6))
        (w2a,), (rejected,) = st.w2_batch(x, sysn)
        (w2b,), _ = st.w2_batch(4.2 * x, sysn)
        if not rejected:
            assert w2b == pytest.approx(w2a, rel=1e-13)
    # relabeling invariance (kappa, tau, shapes, exact ks)
    perm = rng.permutation(6)
    sys_p = nb.make_system([perm[sysn.M.row(i)] for i in np.argsort(perm)])  # i -> perm[i]
    der_p = nb.derive(sys_p)
    assert (der.kappa, der.tau) == (der_p.kappa, der_p.tau)
    inv = np.empty(6, dtype=int)
    inv[perm] = np.arange(6)
    t_p = M.MomentTable(l2=t.l2[inv], l3=t.l3[inv], l4=t.l4[inv],
                        sigma2=t.sigma2, mode="exact")
    assert B.bound_general_beta(t_p, sys_p, der_p).value == pytest.approx(
        B.bound_general_beta(t, sysn, der).value, rel=1e-12
    )
    f_rev = F.LatentSourceField(
        sources=f.sources, supports=f.supports[::-1],
        ev=f.ev, center=True,
        means=f.means[::-1].copy(),
    )
    ks_a = O.exact_kolmogorov(f, "w1", sys=sysn, sigma=t.sigma)
    ks_b = O.exact_kolmogorov(f_rev, "w1", sys=F.induced_neighborhoods(f_rev),
                              sigma=t.sigma)
    assert ks_b == pytest.approx(ks_a, abs=1e-12)
    # beta evaluator vs naive loops at n = 30
    from test_bounds import naive_beta

    n = 30
    A = []
    for i in range(n):
        extra = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        A.append(sorted({i, *extra.tolist()}))
    sys30 = nb.make_system(A)
    der30 = nb.derive(sys30)
    l4 = rng.uniform(0.2, 2.0, size=n)
    t30 = M.MomentTable(l2=0.8 * l4, l3=0.9 * l4, l4=l4, sigma2=float(n), mode="exact")
    rep = B.bound_general_beta(t30, sys30, der30)
    b1, b2, b3 = naive_beta(l4, sys30, math.sqrt(n))
    assert rep.terms["beta1"] == pytest.approx(b1, rel=1e-12)
    assert rep.terms["beta2"] == pytest.approx(b2, rel=1e-12)
    assert rep.terms["beta3"] == pytest.approx(b3, rel=1e-12)
    _report("11", "scale, relabeling, and naive-loop beta equalities hold")
