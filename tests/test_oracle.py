"""Exact-enumeration oracle tests.

Core claims:
    - enumerated expectations match closed forms (E S = 0, E S^2 = Var(S),
      E S^4 = 3n^2 - 2n for iid Rademacher)
    - exact Kolmogorov distances match two-atom hand computations, decrease
      with n for iid Rademacher, and are relabeling-invariant
    - a walk's exact laws of W1, S, W2 and W2bar on non-sum fields equal
      the statistics of the whole outcome matrix, merged
    - every explicit-constant checker passes on hand instances and on
      randomized enumerable instances, with margins at worst -1e-10 rhs
    - the normal CDF matches tabulated values to 1e-14
    - precondition handling is tri-state and never counts violated
      instances as failures
    - the suite's verdicts match a table recorded before the checkers
      shared one instance record, and a suite of one check gives the full
      suite's rows of that check
    - merging atoms by array code matches the chained-merge loop
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import locdep.fields as F
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O
from locdep.errors import DegenerateVariance, EnumerationCapExceeded, InvalidTestFunction
import locdep.statistics as st

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
        plan = O.walk_outcomes(F.build_iid_field(n, F.rademacher()), keep=True)
        s = plan.X.sum(axis=1)
        assert plan.probs @ s == pytest.approx(0.0, abs=1e-12)
        assert plan.probs @ s**2 == pytest.approx(n)
        assert plan.probs @ s**4 == pytest.approx(3 * n**2 - 2 * n)


def test_a_kept_walk_refuses_a_matrix_over_the_byte_cap():
    # 2^24 outcomes (within the outcome cap) x 24 values: about 3 GiB
    f = F.build_iid_field(24, F.rademacher())
    with pytest.raises(EnumerationCapExceeded, match=str(2**24 * 24 * 8)):
        O.walk_outcomes(f, keep=True)
    assert 2**24 * 24 * 8 > O.ENUM_BYTES_CAP


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


NON_SUM_FIELDS = {
    "triangle": lambda n: F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.3)),
    "path3": lambda n: F.build_decorated_graph_field(n, [(0, 1), (1, 2)], F.bernoulli(0.3)),
    "word": lambda n: F.build_word_field([0, 1], n, 2, [None]),
}


@pytest.mark.parametrize("statistic", ["w1", "sum", "w2", "w2bar"])
@pytest.mark.parametrize("family,n", [("triangle", 4), ("triangle", 5), ("path3", 4),
                                      ("path3", 5), ("word", 4), ("word", 6)])
def test_exact_laws_of_non_sum_fields_match_the_brute_force_law(family, n, statistic):
    f = NON_SUM_FIELDS[family](n)
    assert f.ev is not F._sum_columns and f.outcome_count() <= F.ENUM_BLOCK  # one block
    sys = F.induced_neighborhoods(f)
    sigma = M.exact_moment_table(f).sigma
    # the whole outcome matrix at once, through the Monte-Carlo statistics
    probs, rows = F.product_grid(f.sources)
    X = F.evaluate_values(f, rows)
    parts, rej = st.statistic_parts(statistic, X if statistic in st.READS_VALUES else X.sum(axis=1), sys)
    vals = st.finish(statistic, parts, sigma)
    if rej.any():
        probs = probs[~rej] / (1.0 - float(probs[rej].sum()))
    want = O.merge_atoms(vals[~rej], probs)
    walk = O.walk_outcomes(f, statistic, sys, var=True)
    got = O.exact_law(walk, sigma)
    assert walk.parts is None and walk.law_probs is None  # handed over
    assert np.array_equal(got[1], want[1])
    if family == "triangle" and statistic in ("w1", "sum"):
        # its S is trace(A^3) / 6 (``batch_sum``), not the row sums of X
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-13)
    else:
        assert np.array_equal(got[0], want[0])
    assert walk.sigma2 == pytest.approx(sigma**2, rel=1e-12)


def test_exact_w2_distribution_conditions_on_acceptance():
    f = F.build_iid_field(2, F.rademacher())
    walk = O.walk_outcomes(f, "w2", F.induced_neighborhoods(f))
    atoms, probs = O.exact_law(walk)
    # X1 = X2 gives V = 0: half the outcomes reject
    assert walk.rejected == pytest.approx(0.5)
    assert probs.sum() == pytest.approx(1.0)


def test_lemma_xiyi_hand_instances():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_lemma_xiyi(pre, [2], xi=O.xi_function("abs", [2]), p=1.0)
    assert v.passed
    v0 = O.check_lemma_xiyi(pre, [2], xi=lambda X: np.zeros(X.shape[0]), p=1.0)
    assert v0.lhs == 0.0 and v0.rhs == 0.0 and v0.passed
    vc = O.check_lemma_xiyi(pre, [])
    assert vc.check_id == "lemma_xiyi_corollary" and vc.passed
    # iid: X_i^2 = 1 identically, so the corollary LHS vanishes
    fi = F.build_iid_field(4, F.rademacher())
    si = F.induced_neighborhoods(fi)
    vi = O.check_lemma_xiyi(O.precompute(fi, si), [])
    assert vi.lhs == pytest.approx(0.0, abs=1e-12)
    assert vi.rhs == pytest.approx(16.0 * 4)


def test_lemma_s2_hand_instances():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v1 = O.check_lemma_s2(pre, [0], xi=None, p=0.0)
    assert v1.lhs == pytest.approx(3.0) and v1.margin == pytest.approx(2.0)
    v2 = O.check_lemma_s2(pre, [0], xi=O.xi_function("abs", [0]), p=1.0)
    assert v2.passed
    v3 = O.check_lemma_s2(pre, list(range(4)), xi=None, p=0.0)
    assert v3.lhs == 0.0  # N_A = [n]: S_A is the empty sum


def test_lemma_s4_small_n_precondition_recorded():
    for n in (4, 8, 12):
        f = F.build_iid_field(n, F.rademacher())
        sys = F.induced_neighborhoods(f)
        verds = O.check_lemma_s4(O.precompute(f, sys), [0])
        by_id = {v.check_id: v for v in verds}
        s4 = by_id["lemma_s4_s"]
        assert s4.precondition == "violated"  # n^{-1/2} >> 1/500 at these sizes
        assert s4.lhs == pytest.approx(3 * n**2 - 2 * n)
        assert s4.passed  # inequality holds anyway: 3 - 2/n <= 13
        assert by_id["lemma_s4_y"].passed and by_id["lemma_s4_xi"].passed


def test_lemma_r4_instances(monkeypatch):
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    verds = O.check_lemma_r4(pre)
    assert all(v.passed for v in verds)
    assert any(v.lhs > 0 for v in verds)
    f8 = F.build_iid_field(8, F.rademacher())
    s8 = F.induced_neighborhoods(f8)
    clamp = O.TEST_FUNCTIONS["clamp"]
    monkeypatch.setattr(O, "TEST_FUNCTIONS", {"zero": lambda w: 0.0 * w})
    zero = O.check_lemma_r4(pre)
    assert zero[0].lhs == 0.0 and zero[0].passed
    monkeypatch.setattr(O, "TEST_FUNCTIONS", {"clamp": clamp})
    verds8 = O.check_lemma_r4(O.precompute(f8, s8))
    assert verds8[0].passed


def test_invalid_test_function_rejected(monkeypatch):
    f = F.build_iid_field(3, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    for bad in ({"big": lambda w: 2.0 * np.tanh(w)}, {"steep": lambda w: np.clip(3 * w, -1, 1)}):
        monkeypatch.setattr(O, "TEST_FUNCTIONS", bad)
        with pytest.raises(InvalidTestFunction):
            O.check_lemma_r4(pre)


def test_prop1_hand_instance_and_monotonicity():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_prop1(pre, [0], [1], 0.0, 0.0, 1.0, xi=O.xi_function("abs", [0]))
    assert v.lhs == pytest.approx(0.75)
    assert v.passed
    # widening [a, b] raises both sides
    prev_lhs = prev_rhs = -1.0
    for b in (0.0, 0.5, 1.5):
        vb = O.check_prop1(pre, [0], [1], 0.0, b, 1.0, xi=O.xi_function("abs", [0]))
        assert vb.lhs >= prev_lhs - 1e-12 and vb.rhs >= prev_rhs - 1e-12
        prev_lhs, prev_rhs = vb.lhs, vb.rhs
    vz = O.check_prop1(pre, [0], [1], 0.0, 0.0, 1.0, xi=lambda X: np.zeros(X.shape[0]))
    assert vz.lhs == 0.0 and vz.passed


def test_prop2_hand_instance():
    f = F.build_iid_field(6, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_prop2(pre, [0], [1], 0.0, 0.0, 1.0, xi=O.xi_function("abs", [0]))
    assert v.passed
    vz = O.check_prop2(pre, [0], [1], 0.0, 0.0, 1.0, xi=lambda X: np.zeros(X.shape[0]))
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


SUITE_TABLE = Path(__file__).resolve().parent / "data" / "checker_suite_30_314.json"


def test_suite_matches_recorded_verdict_table():
    """Verdicts of run_checker_suite(30, 314, include_r4=True) as recorded
    when each checker still rebuilt its own instance state."""
    recorded = json.loads(SUITE_TABLE.read_text())["rows"]
    verds = O.run_checker_suite(30, master_seed=314, include_r4=True)
    assert len(verds) == len(recorded)
    for v, (check, digest, precondition, verdict, lhs, rhs) in zip(verds, recorded):
        assert (v.check_id, v.digest, v.precondition) == (check, digest, precondition)
        assert ("pass" if v.passed else "fail") == verdict
        assert v.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert v.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_single_check_suites_match_the_full_suite():
    full = O.run_checker_suite(10, master_seed=7, include_r4=True)
    rows = lambda verds: [(v.check_id, v.digest, v.lhs, v.rhs, v.precondition) for v in verds]
    suite_name = lambda check_id: "lemma_s4" if check_id.startswith("lemma_s4_") else check_id
    for name in O.SUITE_CHECKS:
        alone = O.run_checker_suite(10, master_seed=7, checks=[name])
        want = [v for v in full if suite_name(v.check_id) == name]
        assert alone and rows(alone) == rows(want)
    r4 = O.run_checker_suite(10, master_seed=7, checks=[], include_r4=True)
    assert rows(r4) == rows([v for v in full if v.check_id.startswith("lemma_r4[")])


def test_unknown_suite_check_raises():
    with pytest.raises(ValueError, match="unknown checks"):
        O.run_checker_suite(1, master_seed=7, checks=["lemma_xyz"])
    with pytest.raises(ValueError, match="unknown checks"):
        O.run_checker_suite(1, master_seed=7, checks="lemma_xiyi_corollary")


def test_ld_independence_reports():
    f = F.build_iid_field(3, F.rademacher())
    assert O.check_ld_independence(f, F.induced_neighborhoods(f)) == []
    fm = F.build_m_dependent(3, 1, F.rademacher())
    assert O.check_ld_independence(fm, F.induced_neighborhoods(fm)) == []
    shrunk = nb.make_system([(0,), (0, 1, 2), (1, 2)])
    viol = O.check_ld_independence(fm, shrunk)
    assert any(v.startswith("LD1") for v in viol)


def ld_reference(field, sys, tol=1e-12):
    """The per-outcome dict loop of the LD factorization test, on values
    rounded to 9 digits with -0.0 folded into 0.0."""
    plan = O.walk_outcomes(field, keep=True)
    X = np.round(plan.X, 9) + 0.0
    probs = plan.probs

    def factorizes(cols_a, cols_b):
        joint, pa, pb = {}, {}, {}
        for m in range(X.shape[0]):
            ka, kb = X[m, cols_a].tobytes(), X[m, cols_b].tobytes()
            joint[(ka, kb)] = joint.get((ka, kb), 0.0) + probs[m]
            pa[ka] = pa.get(ka, 0.0) + probs[m]
            pb[kb] = pb.get(kb, 0.0) + probs[m]
        return all(
            abs(joint.get((ka, kb), 0.0) - va * vb) <= tol
            for ka, va in pa.items() for kb, vb in pb.items()
        )

    A = [set(sys.M.row(i).tolist()) for i in range(sys.n)]
    out = []
    for i in range(sys.n):
        outside = [j for j in range(sys.n) if j not in A[i]]
        if outside and not factorizes([i], outside):
            out.append(f"LD1 fails at i={i}")
    for i in range(sys.n):
        for j in sorted(A[i]):
            outside = [k for k in range(sys.n) if k not in A[i] | A[j]]
            if outside and not factorizes([i, j], outside):
                out.append(f"LD2 fails at (i,j)=({i},{j})")
    return out


def shrink(sys, rng):
    """Drop one other member from each neighborhood that has one."""
    A = []
    for i in range(sys.n):
        a = sys.M.row(i)
        others = [int(j) for j in a if j != i]
        drop = others[int(rng.integers(len(others)))] if others else None
        A.append([int(j) for j in a if j != drop])
    return nb.make_system(A)


def test_ld_factorization_matches_dict_loop_reference():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(12):
        inst = O.random_enumerable_instance(rng, max_indices=6, max_sources=6, max_outcomes=3**6)
        cases += [(inst.pre.field, inst.pre.sys), (inst.pre.field, shrink(inst.pre.sys, rng))]
    for n in (4, 6):
        f = F.build_m_dependent(n, 1, F.three_point())
        cases += [(f, F.induced_neighborhoods(f)), (f, shrink(F.induced_neighborhoods(f), rng))]
    verdicts = [O.check_ld_independence(f, sys) for f, sys in cases]
    assert verdicts == [ld_reference(f, sys) for f, sys in cases]
    assert sum(bool(v) for v in verdicts) >= 10  # shrunk systems do fail


def test_degenerate_statistic_raises():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    with pytest.raises(DegenerateVariance):
        O.exact_kolmogorov(f, "w1")
    with pytest.raises(DegenerateVariance):
        O.walk_outcomes(f, "w2", F.induced_neighborhoods(f))


def test_verdict_csv_rows():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pre = O.precompute(f, sys)
    v = O.check_lemma_s2(pre, [0])
    rows = O.verdicts_to_csv_rows([v])
    assert rows[0].startswith("digest,check,")
    assert "lemma_s2" in rows[1] and "pass" in rows[1]


def test_merge_atoms_groups_close_values():
    atoms, probs = O.merge_atoms(
        np.array([1.0, 1.0 + 5e-13, 2.0]), np.array([0.25, 0.25, 0.5])
    )
    assert atoms.size == 2 and probs[0] == pytest.approx(0.5)


def merge_atoms_reference(values, probs):
    """The chained-merge loop: a group starts at its first sorted value and
    takes later values within ATOM_MERGE_TOL * max(1, |start|) of it."""
    order = np.argsort(values, kind="stable")
    out_v, out_p = [], []
    for val, pr in zip(values[order], probs[order]):
        if out_v and abs(val - out_v[-1]) <= O.ATOM_MERGE_TOL * max(1.0, abs(out_v[-1])):
            out_p[-1] += pr
        else:
            out_v.append(float(val))
            out_p.append(float(pr))
    return np.asarray(out_v), np.asarray(out_p)


def test_merge_atoms_matches_chained_merge_loop():
    rng = np.random.default_rng(5)
    tol = O.ATOM_MERGE_TOL
    for trial in range(60):
        centers = np.concatenate([
            rng.choice([-3.0, -1e-13, 0.0, 0.5, 2.0, 1e3], size=2),
            rng.uniform(-3.0, 3.0, size=2), rng.uniform(-1e-11, 1e-11, size=2),
            rng.uniform(-2e3, 2e3, size=2),
        ])
        parts = []
        for c in centers:
            scale = tol * max(1.0, abs(c))
            k = int(rng.integers(1, 40))
            # steps of 0.1-0.7 tolerances: chains of near-ties longer than one
            # tolerance, plus exact repeats and the floats around the edge,
            # where c + tol rounds to either side of the merge rule
            chain = c + np.cumsum(rng.uniform(0.1, 0.7, size=k)) * scale
            edge = np.array([c + scale, np.nextafter(c + scale, np.inf), c + 2 * scale])
            parts += [chain, np.full(3, c), edge, rng.normal(c, 1.0, size=5)]
        values = rng.permutation(np.concatenate(parts))
        probs = rng.uniform(0.0, 1.0, size=values.size)
        atoms, merged = O.merge_atoms(values, probs)
        want_atoms, want_probs = merge_atoms_reference(values, probs)
        assert np.array_equal(atoms, want_atoms)
        np.testing.assert_allclose(merged, want_probs, rtol=1e-15, atol=0.0)
        assert atoms.size < values.size
