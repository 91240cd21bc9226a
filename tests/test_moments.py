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
"""

from __future__ import annotations

import numpy as np
import pytest

import locdep.fields as F
import locdep.moments as M
import locdep.oracle as O
from locdep.errors import DegenerateKernel
from locdep.rng import substream


def test_iid_rademacher_table():
    f = F.build_iid_field(2, F.rademacher())
    t = M.exact_moment_table(f, F.induced_neighborhoods(f), kappa=1)
    assert np.allclose(t.l2, 1) and np.allclose(t.l3, 1) and np.allclose(t.l4, 1)
    assert t.sigma2 == pytest.approx(2.0)
    assert t.lam == pytest.approx(1.0)
    assert t.mode == "exact"


def test_window_field_variance_identity_two_ways():
    f = F.build_m_dependent(4, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    t = M.exact_moment_table(f, sys, sigma2_mode="enumerate")
    assert t.sigma2 == pytest.approx(4 * 4 - 2)  # Var(U_1 + 2U_2 + 2U_3 + U_4 ... )
    assert t.l2[0] ** 2 == pytest.approx(2.0)  # Var of a two-Rademacher sum
    t_local = M.exact_moment_table(f, sys, sigma2_mode="local")
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
    t = M.exact_moment_table(f, kappa=4)
    tc = M.exact_moment_table(fc, kappa=4)
    assert tc.lam == pytest.approx(t.lam, rel=1e-12)


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


def test_hoeffding_mc_path_matches_exact():
    exact = M.hoeffding_sigma1(lambda x, y: x + 0.5 * y, 2, F.three_point())
    mc = M.hoeffding_sigma1(
        lambda x, y: x + 0.5 * y, 2, F.three_point(), reps=40000, inner_reps=400
    )
    assert mc.sigma1 == pytest.approx(exact.sigma1, rel=0.1)
    assert mc.theta == pytest.approx(exact.theta, abs=0.05)


def test_transitive_sigma2_shortcut_matches_full_sum():
    f = F.build_decorated_graph_field(5, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4))
    fast = M.exact_sigma2_local(f)
    slow = M.exact_sigma2_local(f, F.induced_neighborhoods(f))
    assert fast == pytest.approx(slow, rel=1e-10)
    full = M.exact_sigma2_enumerated(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)))
    fast4 = M.exact_sigma2_local(F.build_decorated_graph_field(
        4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.4)))
    assert fast4 == pytest.approx(full, rel=1e-10)


def test_csv_serialization_shape():
    f = F.build_iid_field(3, F.rademacher())
    t = M.exact_moment_table(f, kappa=1)
    rows = M.table_to_csv_rows(t)
    assert rows[0] == "index,l2,l3,l4,se2,se3,se4"
    assert len(rows) == 4 and rows[1].startswith("1,")
    hdr = M.table_header(t)
    assert hdr["sigma2"] == pytest.approx(3.0) and hdr["mode"] == "exact"


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


@pytest.mark.parametrize("case", sorted(GROUPING_CASES))
def test_signature_grouping_matches_ungrouped_enumeration(case):
    f = GROUPING_CASES[case]()
    # one local enumeration per index and per pair, no grouping
    means = []
    for i in range(f.n):
        probs, X = F.local_values(f, [i])
        means.append(float(probs @ X[:, 0]))
    if f.center:
        assert np.allclose(F.compute_means(f), means, rtol=1e-12, atol=1e-13)
    norms = np.array([M.exact_index_norms(f, i) for i in range(f.n)])
    l2, l3, l4 = M.exact_norm_arrays(f)
    assert np.allclose(np.stack([l2, l3, l4], axis=1), norms, rtol=1e-12, atol=1e-13)
    sys = F.induced_neighborhoods(f)
    pair_sum = sum(M.exact_pair_covariance(f, i, j) for i, a in enumerate(sys.A) for j in a)
    local = M.exact_sigma2_local(f)
    assert local == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    assert M.exact_sigma2_local(f, sys) == pytest.approx(pair_sum, rel=1e-12, abs=1e-13)
    assert local == pytest.approx(M.exact_sigma2_enumerated(f), rel=1e-10, abs=1e-12)
