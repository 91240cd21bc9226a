"""Exact-enumeration oracle tests.

Core claims:
    - exact expectations match closed forms (E S = 0, E S^2 = Var(S),
      E S^4 = 3n^2 - 2n for iid Rademacher) and are linear in the functional
    - exact Kolmogorov distances match two-atom hand computations, decrease
      with n for iid Rademacher, and are relabeling-invariant
    - every explicit-constant checker passes on hand instances and on
      randomized enumerable instances, with margins at worst -1e-10 rhs
    - the normal CDF matches tabulated values to 1e-14
    - precondition handling is tri-state and never counts violated
      instances as failures
"""

from __future__ import annotations

import numpy as np
import pytest

import locdep.fields as F
import locdep.neighborhood as nb
import locdep.oracle as O
from locdep.errors import DegenerateVariance, InvalidTestFunction

# Phi values to 15 digits (Abramowitz-Stegun style reference points)
PHI_TABLE = {
    0.0: 0.5,
    1.0: 0.841344746068543,
    2.0: 0.977249868051821,
    3.0: 0.998650101968370,
    -1.96: 0.024997895148220,
    0.5: 0.691462461274013,
}


def test_normal_cdf_matches_tabulated_values():
    for z, val in PHI_TABLE.items():
        assert abs(float(O.phi(z)) - val) <= 1e-14


def test_exact_expectation_closed_forms():
    for n in (2, 5, 9, 12):
        f = F.build_iid_field(n, F.rademacher())
        assert O.exact_expectation(f, lambda X: X.sum(axis=1)) == pytest.approx(0.0, abs=1e-12)
        assert O.exact_expectation(f, lambda X: X.sum(axis=1) ** 2) == pytest.approx(n)
        assert O.exact_expectation(f, lambda X: X.sum(axis=1) ** 4) == pytest.approx(
            3 * n**2 - 2 * n
        )


def test_exact_expectation_is_linear():
    f = F.build_m_dependent(4, 1, F.three_point())
    rng = np.random.default_rng(2)
    fa = lambda X: X.sum(axis=1) ** 2
    fb = lambda X: np.abs(X[:, 0])
    for _ in range(5):
        a, b = rng.normal(size=2)
        combo = O.exact_expectation(f, lambda X: a * fa(X) + b * fb(X))
        assert combo == pytest.approx(
            a * O.exact_expectation(f, fa) + b * O.exact_expectation(f, fb), rel=1e-10
        )


def test_exact_kolmogorov_point_mass():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    assert O.exact_kolmogorov(f, "sum") == pytest.approx(0.5)


def test_exact_kolmogorov_two_atoms():
    f = F.build_iid_field(1, F.rademacher())
    assert O.exact_kolmogorov(f, "w1") == pytest.approx(0.341344746068543, abs=1e-12)


def test_exact_kolmogorov_decreases_with_n():
    vals = [O.exact_kolmogorov(F.build_iid_field(n, F.rademacher()), "w1") for n in (2, 4, 8)]
    assert vals[0] > vals[1] > vals[2]


def test_exact_kolmogorov_relabeling_invariance():
    f = F.build_m_dependent(5, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    ks = O.exact_kolmogorov(f, "w1", sys=sys)
    # relabel field indices by reversing: rebuild with reversed supports
    f_rev = F.LatentSourceField(
        sources=f.sources,
        supports=f.supports[::-1],
        ev=f.ev,
        center=True,
        means=f.means[::-1].copy(),
    )
    sys_rev = F.induced_neighborhoods(f_rev)
    assert O.exact_kolmogorov(f_rev, "w1", sys=sys_rev) == pytest.approx(ks, abs=1e-12)


def test_exact_w2_distribution_conditions_on_acceptance():
    f = F.build_iid_field(2, F.rademacher())
    atoms, probs, rejected = O.exact_distribution(f, "w2", sys=F.induced_neighborhoods(f))
    # X1 = X2 gives V = 0: half the outcomes reject
    assert rejected == pytest.approx(0.5)
    assert probs.sum() == pytest.approx(1.0)


def test_lemma_xiyi_hand_instances():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_lemma_xiyi(f, sys, [2], xi=O.xi_function("abs", [2]), p=1.0, pre=pre)
    assert v.passed
    v0 = O.check_lemma_xiyi(f, sys, [2], xi=lambda X: np.zeros(X.shape[0]), p=1.0, pre=pre)
    assert v0.lhs == 0.0 and v0.rhs == 0.0 and v0.passed
    vc = O.check_lemma_xiyi(f, sys, [], pre=pre)
    assert vc.check_id == "lemma_xiyi_corollary" and vc.passed
    # iid: X_i^2 = 1 identically, so the corollary LHS vanishes
    fi = F.build_iid_field(4, F.rademacher())
    si = F.induced_neighborhoods(fi)
    vi = O.check_lemma_xiyi(fi, si, [], pre=O.precompute(fi, si))
    assert vi.lhs == pytest.approx(0.0, abs=1e-12)
    assert vi.rhs == pytest.approx(16.0 * 4)


def test_lemma_s2_hand_instances():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v1 = O.check_lemma_s2(f, sys, [0], xi=None, p=0.0, pre=pre)
    assert v1.lhs == pytest.approx(3.0) and v1.margin == pytest.approx(2.0)
    v2 = O.check_lemma_s2(f, sys, [0], xi=O.xi_function("abs", [0]), p=1.0, pre=pre)
    assert v2.passed
    v3 = O.check_lemma_s2(f, sys, list(range(4)), xi=None, p=0.0, pre=pre)
    assert v3.lhs == 0.0  # N_A = [n]: S_A is the empty sum


def test_lemma_s4_small_n_precondition_recorded():
    for n in (4, 8, 12):
        f = F.build_iid_field(n, F.rademacher())
        sys = F.induced_neighborhoods(f)
        verds = O.check_lemma_s4(f, sys, [0], pre=O.precompute(f, sys))
        by_id = {v.check_id: v for v in verds}
        s4 = by_id["lemma_s4_s"]
        assert s4.precondition == "violated"  # n^{-1/2} >> 1/500 at these sizes
        assert s4.lhs == pytest.approx(3 * n**2 - 2 * n)
        assert s4.passed  # inequality holds anyway: 3 - 2/n <= 13
        assert by_id["lemma_s4_y"].passed and by_id["lemma_s4_xi"].passed


def test_lemma_r4_instances():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    verds = O.check_lemma_r4(f, sys, pre=pre)
    assert all(v.passed for v in verds)
    assert any(v.lhs > 0 for v in verds)
    zero = O.check_lemma_r4(f, sys, {"zero": lambda w: 0.0 * w}, pre=pre)
    assert zero[0].lhs == 0.0 and zero[0].passed
    f8 = F.build_iid_field(8, F.rademacher())
    s8 = F.induced_neighborhoods(f8)
    verds8 = O.check_lemma_r4(f8, s8, {"clamp": O.TEST_FUNCTIONS["clamp"]},
                              pre=O.precompute(f8, s8))
    assert verds8[0].passed


def test_invalid_test_function_rejected():
    f = F.build_iid_field(3, F.rademacher())
    sys = F.induced_neighborhoods(f)
    with pytest.raises(InvalidTestFunction):
        O.check_lemma_r4(f, sys, {"big": lambda w: 2.0 * np.tanh(w)})
    with pytest.raises(InvalidTestFunction):
        O.check_lemma_r4(f, sys, {"steep": lambda w: np.clip(3 * w, -1, 1)})


def test_prop1_hand_instance_and_monotonicity():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_prop1(f, sys, [0], [1], 0.0, 0.0, 1.0, xi=O.xi_function("abs", [0]), pre=pre)
    assert v.lhs == pytest.approx(0.75)
    assert v.passed
    # widening [a, b] raises both sides
    prev_lhs = prev_rhs = -1.0
    for b in (0.0, 0.5, 1.5):
        vb = O.check_prop1(f, sys, [0], [1], 0.0, b, 1.0, xi=O.xi_function("abs", [0]), pre=pre)
        assert vb.lhs >= prev_lhs - 1e-12 and vb.rhs >= prev_rhs - 1e-12
        prev_lhs, prev_rhs = vb.lhs, vb.rhs
    vz = O.check_prop1(f, sys, [0], [1], 0.0, 0.0, 1.0, xi=lambda X: np.zeros(X.shape[0]), pre=pre)
    assert vz.lhs == 0.0 and vz.passed


def test_prop2_hand_instance():
    f = F.build_iid_field(6, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_prop2(f, sys, [0], [1], 0.0, 0.0, 1.0, xi=O.xi_function("abs", [0]), pre=pre)
    assert v.passed
    vz = O.check_prop2(f, sys, [0], [1], 0.0, 0.0, 1.0, xi=lambda X: np.zeros(X.shape[0]), pre=pre)
    assert vz.lhs == 0.0 and vz.passed


def test_randomized_suite_zero_failures():
    verds = O.run_checker_suite(40, master_seed=314, include_r4=True)
    failures = [v for v in verds if v.counts_as_failure]
    assert failures == []
    # margins respect the tolerance definition
    for v in verds:
        if v.precondition != "violated":
            assert v.margin >= -1e-10 * max(1.0, abs(v.rhs))


def test_suite_results_independent_of_thread_count():
    a = O.run_checker_suite(12, master_seed=99, threads=1)
    b = O.run_checker_suite(12, master_seed=99, threads=4)
    assert [(v.check_id, v.digest, v.lhs, v.rhs) for v in a] == [
        (v.check_id, v.digest, v.lhs, v.rhs) for v in b
    ]


def test_exact_expectation_threads_agree():
    f = F.build_m_dependent(10, 1, F.rademacher())
    fn = lambda X: X.sum(axis=1) ** 2
    assert O.exact_expectation(f, fn) == O.exact_expectation(f, fn, threads=4)


def test_ld_independence_reports():
    f = F.build_iid_field(3, F.rademacher())
    assert O.check_ld_independence(f, F.induced_neighborhoods(f)) == []
    fm = F.build_m_dependent(3, 1, F.rademacher())
    assert O.check_ld_independence(fm, F.induced_neighborhoods(fm)) == []
    shrunk = nb.make_system([(0,), (0, 1, 2), (1, 2)])
    viol = O.check_ld_independence(fm, shrunk)
    assert any(v.startswith("LD1") for v in viol)


def test_degenerate_statistic_raises():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    with pytest.raises(DegenerateVariance):
        O.exact_kolmogorov(f, "w1")
    with pytest.raises(DegenerateVariance):
        O.exact_distribution(f, "w2", sys=F.induced_neighborhoods(f))


def test_verdict_csv_rows():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_lemma_s2(f, sys, [0], pre=pre)
    rows = O.verdicts_to_csv_rows([v])
    assert rows[0].startswith("digest,check,")
    assert "lemma_s2" in rows[1] and "pass" in rows[1]


def test_merge_atoms_groups_close_values():
    atoms, probs = O.merge_atoms(
        np.array([1.0, 1.0 + 5e-13, 2.0]), np.array([0.25, 0.25, 0.5])
    )
    assert atoms.size == 2 and probs[0] == pytest.approx(0.5)
