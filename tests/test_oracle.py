"""Exact-enumeration oracle tests.

Core claims:
    - enumerated expectations match closed forms (E S = 0, E S^2 = Var(S),
      E S^4 = 3n^2 - 2n for iid Rademacher)
    - exact Kolmogorov distances match two-atom hand computations, decrease
      with n for iid Rademacher, and are relabeling-invariant
    - a walk's exact laws of W1, S, W2 and W2bar on non-sum fields equal
      the statistics of the whole outcome matrix, merged
    - a sum field's walk over its value lattice gives the enumerated law:
      bit for bit over the distinct enumerated rows for dyadic source laws
      (W2, W2bar, W1 with the kept rows, which are those rows), with the
      rejected mass of enumeration, within 1e-13 otherwise, and the cycle's W2 law at n = 6 peaks within 13 MB
    - every explicit-constant checker passes on hand instances and on
      randomized enumerable instances, with margins at worst -1e-10 rhs
    - the normal CDF matches tabulated values to 1e-14
    - precondition handling is tri-state and never counts violated
      instances as failures
    - the suite's verdicts match a recorded table, a suite of one check
      gives the full suite's rows of that check, and a shorter suite's
      verdicts are a prefix of a longer one's
    - an instance checked as a stack of one, or precomputed and checked
      in a stack of others in any order, gives the suite's rows bit for
      bit, and a stack is checked with one instance per draw
    - the suite's stacked precompute of its drawn fields equals the
      per-field composition (the field's walk, induced neighborhoods,
      derived system and beta sums, each norm one pairwise sum over the
      walk) bit for bit, and an instance rejected on its first
      draw is redrawn from its substream, each draw precomputed as a stack
      of one, into the instance drawn one at a time and precomputed by that
      composition, with no pending group past ENUM_BLOCK outcome rows
    - a stacked Var(S) off the covariance identity fails the suite
    - each suite instance's walk keeps only the outcomes of the sources
      its indices read, in one evaluator call per block of outcomes (a
      gather past GATHER_CELLS splits into blocks within it), and its
      field is given means of exactly 0, which holds: every source's mean
      is 0 exactly, every index reads distinct sources, and a local
      enumeration gives 0 within 1e-15
    - lemma_s2's two sides equal those of its statement, computed by
      plain loops over the outcomes, and a stack refuses test ids outside
      its draws' indices
    - merging atoms by array code matches the chained-merge loop
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import locdep.bounds as B
import locdep.fields as F
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O
from locdep.errors import DegenerateVariance, EnumerationCapExceeded
from locdep.rng import STREAM_INSTANCES, substream
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
    assert 2**24 * 24 * 8 > F.ENUM_BYTES_CAP


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
    ks = O.exact_kolmogorov(f, "w1")
    # relabel field indices by reversing: rebuild with reversed supports
    f_rev = F.LatentSourceField(
        sources=f.sources,
        supports=f.supports[::-1],
        ev=f.ev,
        means=f.means[::-1].copy(),
    )
    assert O.exact_kolmogorov(f_rev, "w1") == pytest.approx(ks, abs=1e-12)


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


def cycle(n, source=None):
    """The graph-dependency sum field of an n-cycle, three-point sources by
    default: every walk that takes X reads its value lattice."""
    f = F.build_graph_dependency(n, [(i, (i + 1) % n) for i in range(n)], source or F.three_point())
    assert F.value_lattice(f) is not None
    return f


def enumerated_law(field, statistic, sys, sigma=None, distinct=False):
    """(atoms, probs, rejected mass) of a statistic's exact law over every
    enumerated outcome, or with ``distinct`` over each distinct value row
    once, with its outcomes' probabilities summed; each conditioned on
    acceptance before the merge.  S is the row sum of the values."""
    probs, X = [], []
    for p, rows in F.outcome_blocks(field):
        probs.append(p), X.append(F.evaluate_values(field, rows))
    probs, X = np.concatenate(probs), np.concatenate(X)
    if distinct:  # rows in lexicographic order, the order of the lattice's cells
        X, inverse = np.unique(X, axis=0, return_inverse=True)
        probs = np.bincount(inverse.reshape(-1), weights=probs)
    parts, rej = st.statistic_parts(statistic, X if statistic in st.READS_VALUES else X.sum(axis=1), sys)
    vals = st.finish(statistic, parts, sigma)
    rejected = float(probs[rej].sum())
    return *O.merge_atoms(vals[~rej], probs[~rej] / (1.0 - rejected)), rejected


# (source, statistic, n) of the three-point cycle, walked through its lattice
DYADIC_LATTICE_CASES = {
    "w2_4": (F.three_point(), "w2", 4),
    "w2_5": (F.three_point(), "w2", 5),
    "w2_6": (F.three_point(), "w2", 6),
    "w2bar_4": (F.three_point(), "w2bar", 4),
    "w2bar_5": (F.three_point(), "w2bar", 5),
    "w2_p_zero_0": (F.three_point(p_zero=0.0), "w2", 5),
}


@pytest.mark.parametrize("source,statistic,n", DYADIC_LATTICE_CASES.values(),
                         ids=DYADIC_LATTICE_CASES.keys())
def test_lattice_law_equals_enumeration_bit_for_bit(source, statistic, n):
    """Dyadic source laws: every cell's probability is an exact sum of the
    enumerated outcomes' exact products, so the law over distinct rows and
    the rejected mass are the enumerated ones bit for bit.  Conditioning on
    acceptance divides each cell's sum, not each outcome, so a merged
    atom's probability, and ks, may move in the last digit."""
    f = cycle(n, source)
    sys = F.induced_neighborhoods(f)
    walk = O.walk_outcomes(f, statistic, sys, var=True)
    sigma = math.sqrt(walk.sigma2)
    atoms, probs, rejected = enumerated_law(f, statistic, sys, sigma)
    assert walk.rejected == rejected
    got = O.exact_law(walk, sigma)
    want = enumerated_law(f, statistic, sys, sigma, distinct=True)
    assert want[2] == rejected
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert O.kolmogorov_from_atoms(*got) == O.kolmogorov_from_atoms(*want[:2])
    assert np.array_equal(got[0], atoms)
    np.testing.assert_allclose(got[1], probs, rtol=1e-15, atol=0)
    assert O.kolmogorov_from_atoms(*got) == pytest.approx(
        O.kolmogorov_from_atoms(atoms, probs), rel=1e-15, abs=0)


def test_lattice_w2_of_the_three_point_cycle_rejects_the_enumerated_mass():
    walks = [O.walk_outcomes(cycle(n), "w2") for n in (4, 5, 6)]
    assert [w.rejected for w in walks] == [0.1458740234375, 0.1492938995361328, 0.0798342227935791]
    # n = 6: 46,529 distinct values among 3^12 outcomes, 43,056 of them accepted
    assert walks[-1].law_probs.size == 43056


@pytest.mark.parametrize("source", [F.three_point(), F.three_point(p_zero=0.0)],
                         ids=["p_zero_half", "p_zero_0"])
def test_kept_lattice_rows_are_the_distinct_enumerated_rows(source):
    """Each distinct row once, with its outcomes' summed probability; a row
    reached only through zero probabilities is kept, as enumeration keeps
    it.  S (for W1) comes from the lattice too."""
    f = cycle(5, source)
    walk = O.walk_outcomes(f, "w1", var=True, keep=True)
    probs, rows = F.product_grid(f.sources)
    distinct, inverse = np.unique(F.evaluate_values(f, rows), axis=0, return_inverse=True)
    order = np.lexsort(walk.X.T[::-1])
    assert np.array_equal(walk.X[order], distinct)
    assert np.array_equal(walk.probs[order], np.bincount(inverse.reshape(-1), weights=probs))
    sigma = math.sqrt(walk.sigma2)
    atoms, law, _ = enumerated_law(f, "w1", None, sigma, distinct=True)
    got = O.exact_law(walk, sigma)
    assert np.array_equal(got[0], atoms) and np.array_equal(got[1], law)


@pytest.mark.parametrize("source", [F.bernoulli(0.55), F.three_point(p_zero=1.0 / 3.0)],
                         ids=["bernoulli_0.55", "three_point_third"])
def test_lattice_law_of_non_dyadic_sources_within_1e_13(source):
    """Cell sums add the same products in another order, so a non-dyadic
    law moves only in its last digits."""
    f = cycle(5, source)
    sys = F.induced_neighborhoods(f)
    walk = O.walk_outcomes(f, "w2", sys)
    atoms, probs, rejected = enumerated_law(f, "w2", sys)
    assert walk.rejected == pytest.approx(rejected, rel=1e-13, abs=0)
    got = O.exact_law(walk)
    np.testing.assert_allclose(got[0], atoms, rtol=1e-13, atol=0)
    np.testing.assert_allclose(got[1], probs, rtol=1e-13, atol=0)
    assert O.kolmogorov_from_atoms(*got) == pytest.approx(
        O.kolmogorov_from_atoms(atoms, probs), rel=1e-13, abs=0)


def test_lattice_w2_law_of_the_cycle_at_n_6_peaks_within_13_mb():
    """The exact W2 law of ``enum_oracle``'s cycle at its largest n: the
    walk, the merge and the Kolmogorov distance, under tracemalloc (26.56
    MB when the walk enumerated all 3^12 outcomes)."""
    f = cycle(6)
    sys = F.induced_neighborhoods(f)
    tracemalloc.start()
    try:
        O.kolmogorov_from_atoms(*O.exact_law(O.walk_outcomes(f, "w2", sys)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20


def rademacher_draw(n: int, m: int = 0) -> O.FieldDraw:
    """n Rademacher indices as a suite draw: iid (m = 0), or the m = 1
    windows X_i = U_i + U_{i+1} of ``fields.build_m_dependent``.  Law
    codes all 0, supports ascending and padded with -1 to 3 columns,
    weights 1.0 (0 at a pad) and q = 0."""
    supports = np.full((n, 3), -1, dtype=np.int64)
    supports[:, :m + 1] = np.arange(n)[:, None] + np.arange(m + 1)
    return O.FieldDraw((0,) * (n + m), supports, (supports >= 0).astype(float), np.zeros(n))


def stack_of(draw, A=(), B=(), a=0.0, b=0.0, c=1.0, xi_kind="one", p=1.0):
    """A stack of one: ``draw``, precomputed as the suite precomputes it,
    checked with these test parameters."""
    inst = O.CheckInstance(tuple(A), tuple(B), a, b, c, xi_kind, p)
    return O.stack_instances(O.precompute_stack([draw]), [inst])


def field_of(draw: O.FieldDraw) -> F.LatentSourceField:
    """The field of a draw, evaluated by ``oracle._weighted_sum``, with
    its means given as 0 exactly (see ``oracle.FieldDraw``)."""
    return F.LatentSourceField(
        sources=tuple(O.LAWS[code] for code in draw.codes),
        supports=draw.supports,
        ev=O._weighted_sum,
        params=(draw.weights, draw.q),
        means=np.zeros(draw.n),
        metadata={"family": "random_instance"},
    )


def random_instance(rng: np.random.Generator) -> tuple[
        O.PrecomputedStack, O.CheckInstance, F.LatentSourceField, O.FieldDraw]:
    """The checker suite's instance of ``rng``, drawn one at a time, as its
    stack of one, its test parameters, its field and its draw: fields are
    drawn (``_draw_field``) and precomputed as stacks of one until one is
    kept (``_kept``), then its test parameters are drawn, the calls that
    ``run_checker_suite`` makes on the instance's substream."""
    while True:
        draw = O._draw_field(rng)
        pre = O.precompute_stack([draw])
        if O._kept(pre.norms[0]["sigma2"], pre.l2[0]):
            return pre, O.CheckInstance(*O._draw_tests(rng, draw.n)), field_of(draw), draw


# the beta sums that the checkers read, beside the vector w_an
CHECKED_SUMS = ("b1a", "b1b", "t21", "t22", "t23_delta6", "t31", "t32", "t33", "t34")


def reference_stack(field: F.LatentSourceField) -> O.PrecomputedStack:
    """The stack of one instance of ``field`` by the per-field composition:
    the walk that keeps every outcome and takes Var(S), the induced
    neighborhoods, ``neighborhood.derive``, ``bounds.beta_sums`` and each
    index's norm ||X_i||_p as the p-th root of ``neighborhood.dot`` of the
    probabilities and |X_i|^p.  ``precompute_stack`` equals it bit for
    bit."""
    walk = O.walk_outcomes(field, var=True, keep=True)
    sys = F.induced_neighborhoods(field)
    der = nb.derive(sys)
    l2, l3, l4 = (np.array([nb.dot(walk.probs, np.abs(x) ** p) for x in walk.X.T]) ** (1 / p)
                  for p in (2, 3, 4))
    table = M.MomentTable(l2=l2, l3=l3, l4=l4, sigma2=walk.sigma2, mode="exact")
    sums = B.beta_sums(l4, sys, der)
    exx = (walk.X * walk.probs[:, None]).T @ walk.X
    return O.PrecomputedStack(
        spans=((0, walk.probs.size),), X=walk.X, probs=walk.probs,
        l2=l2[None], l3=l3[None], l4=l4[None], exx=exx[None], P=sys.M.toarray()[None],
        kappa=(der.kappa,), tau=(der.tau,), norms=(B.norm_sums(table)[0],),
        sums=({name: sums[name] for name in CHECKED_SUMS},), w_an=sums["w_an"][None],
    )


def zero_xi(monkeypatch):
    monkeypatch.setitem(O.XI_FUNCTIONS, "zero", lambda x0, x1: np.zeros(x0.size))


def test_lemma_xiyi_hand_instances(monkeypatch):
    draw = rademacher_draw(6, 1)
    [v] = O.check_lemma_xiyi(stack_of(draw, [2], xi_kind="abs", p=1.0))
    assert v.passed
    zero_xi(monkeypatch)
    [v0] = O.check_lemma_xiyi(stack_of(draw, [2], xi_kind="zero", p=1.0))
    assert v0.lhs == 0.0 and v0.rhs == 0.0 and v0.passed
    [vc] = O.check_lemma_xiyi_corollary(stack_of(draw))
    assert vc.check_id == "lemma_xiyi_corollary" and vc.passed
    # iid: X_i^2 = 1 identically, so the corollary LHS vanishes
    [vi] = O.check_lemma_xiyi_corollary(stack_of(rademacher_draw(4)))
    assert vi.lhs == pytest.approx(0.0, abs=1e-12)
    assert vi.rhs == pytest.approx(16.0 * 4)


def test_lemma_s2_hand_instances():
    draw = rademacher_draw(4)
    [v1] = O.check_lemma_s2(stack_of(draw, [0], p=0.0))
    assert v1.lhs == pytest.approx(3.0) and v1.margin == pytest.approx(2.0)
    [v2] = O.check_lemma_s2(stack_of(draw, [0], xi_kind="abs", p=1.0))
    assert v2.passed
    [v3] = O.check_lemma_s2(stack_of(draw, range(4), p=0.0))
    assert v3.lhs == 0.0  # N_A = [n]: S_A is the empty sum


def s2_by_its_statement(draw: O.FieldDraw, inst: O.CheckInstance) -> tuple[float, float]:
    """(lhs, rhs) of lemma_s2 at ``inst`` on ``draw``, from its statement

        E{xi^p S_A^2} <= ||xi||_p^p (E S_A^2 + 2 sum_{D_A} ||X_i||_4 ||X_j||_4),

    with no Stack, Csr or set_sums: the outcomes of the read sources by
    ``itertools.product``, each X_i written out from its supports, weights
    and product weight; A_k = {j : X_j reads a source of X_k}, N_A = {k :
    A_k & A != {}}, S_A the sum of X_i over i outside N_A, and D_A =
    {(i, j) : j in A_i, A & (A_i | A_j) != {}}."""
    n, A = draw.n, set(inst.A)
    reads = [set(row) - {-1} for row in draw.supports.tolist()]
    read = sorted(set().union(*reads))
    laws = [O.LAWS[draw.codes[s]] for s in read]
    U = np.array(list(itertools.product(*(law.values for law in laws))))
    probs = np.array([math.prod(p) for p in itertools.product(*(law.probs for law in laws))])
    X = np.zeros((probs.size, n))
    for i in range(n):
        slots = [(read.index(s), w) for s, w in zip(draw.supports[i], draw.weights[i]) if s >= 0]
        X[:, i] = sum(w * U[:, c] for c, w in slots) + draw.q[i] * np.prod(
            [U[:, c] for c, _ in slots], axis=0)
    nbhd = [{j for j in range(n) if reads[i] & reads[j]} for i in range(n)]
    outside = [i for i in range(n) if not nbhd[i] & A]
    s_a = X[:, outside].sum(axis=1)
    l4 = (probs @ X**4) ** 0.25
    d_a = sum(l4[i] * l4[j] for i in range(n) for j in nbhd[i] if A & (nbhd[i] | nbhd[j]))
    x0 = X[:, inst.A[0]] if inst.A else np.ones(probs.size)
    x1 = X[:, inst.A[1]] if len(inst.A) == 2 else np.ones(probs.size)
    xi = {"one": np.ones(probs.size), "abs": np.abs(x0), "square": x0**2,
          "abs_product": np.abs(x0 * x1),
          "clipped_exp": np.minimum(np.exp(O.CLIPPED_EXP_RATE * x0), 3.0)}[inst.xi_kind]
    xi_p = xi**inst.p
    xi_norm = probs @ xi_p if inst.p != 0 else 1.0
    return probs @ (xi_p * s_a**2), xi_norm * (probs @ s_a**2 + 2.0 * d_a)


def test_lemma_s2_matches_its_statement_by_plain_loops():
    """lemma_s2's lhs and rhs equal :func:`s2_by_its_statement` within
    1e-12 relative, on the hand instances above, an m = 1 window and the
    first 50 instances of the suite at seed 20260217: every term of each
    side is nonnegative, so no sum cancels.  This also covers the stack's
    ||X_i||_4 and its set sums over N_A and D_A."""
    cases = [(rademacher_draw(4), O.CheckInstance((0,), (), 0.0, 0.0, 1.0, "one", 0.0)),
             (rademacher_draw(4), O.CheckInstance((0,), (), 0.0, 0.0, 1.0, "abs", 1.0)),
             (rademacher_draw(4), O.CheckInstance((0, 1, 2, 3), (), 0.0, 0.0, 1.0, "one", 0.0)),
             (rademacher_draw(6, 1), O.CheckInstance((2,), (), 0.0, 0.0, 1.0, "abs", 1.0))]
    cases += [(draw, inst) for _, inst, _, draw in
              (random_instance(substream(20260217, STREAM_INSTANCES, k)) for k in range(50))]
    assert {inst.xi_kind for _, inst in cases} == set(O.XI_KINDS)
    for draw, inst in cases:
        [v] = O.check_lemma_s2(O.stack_instances(O.precompute_stack([draw]), [inst]))
        lhs, rhs = s2_by_its_statement(draw, inst)
        assert v.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert v.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_lemma_s4_small_n_precondition_recorded():
    for n in (4, 8, 12):
        verds = O.check_lemma_s4(stack_of(rademacher_draw(n), [0]))
        by_id = {v.check_id: v for v in verds}
        s4 = by_id["lemma_s4_s"]
        assert s4.precondition == "violated"  # n^{-1/2} >> 1/500 at these sizes
        assert s4.lhs == pytest.approx(3 * n**2 - 2 * n)
        assert s4.passed  # inequality holds anyway: 3 - 2/n <= 13
        assert by_id["lemma_s4_y"].passed and by_id["lemma_s4_xi"].passed


def test_lemma_r4_instances(monkeypatch):
    st = stack_of(rademacher_draw(6, 1))
    verds = O.check_lemma_r4(st)
    assert all(v.passed for v in verds)
    assert any(v.lhs > 0 for v in verds)
    clamp = O.TEST_FUNCTIONS["clamp"]
    monkeypatch.setattr(O, "TEST_FUNCTIONS", {"zero": lambda w: 0.0 * w})
    zero = O.check_lemma_r4(st)
    assert len(zero) == 1 and zero[0].lhs == 0.0 and zero[0].passed
    monkeypatch.setattr(O, "TEST_FUNCTIONS", {"clamp": clamp})
    verds8 = O.check_lemma_r4(stack_of(rademacher_draw(8)))
    assert verds8[0].passed


def sup_and_slope_within_one(f) -> bool:
    """||f||_inf <= 1 and ||f'||_inf <= 1 on a dense grid of [-40, 40]."""
    w = np.linspace(-40.0, 40.0, 160001)
    vals = np.asarray(f(w), dtype=float)
    slopes = np.abs(np.diff(vals) / np.diff(w))
    return bool(np.max(np.abs(vals)) <= 1.0 + 1e-9 and np.max(slopes) <= 1.0 + 1e-6)


def test_r4_test_functions_have_sup_and_slope_at_most_one():
    """The clamped-term bound that check_lemma_r4 certifies holds for f
    with ||f||_inf <= 1 and ||f'||_inf <= 1.  The family is fixed, so its
    norms are checked here rather than on every run."""
    assert [name for name, f in O.TEST_FUNCTIONS.items() if not sup_and_slope_within_one(f)] == []
    assert not sup_and_slope_within_one(lambda w: 2.0 * np.tanh(w))  # sup norm 2
    assert not sup_and_slope_within_one(lambda w: np.clip(3 * w, -1, 1))  # slope 3


def test_prop1_hand_instance_and_monotonicity(monkeypatch):
    draw = rademacher_draw(4)
    [v] = O.check_prop1(stack_of(draw, [0], [1], 0.0, 0.0, 1.0, xi_kind="abs"))
    assert v.lhs == pytest.approx(0.75)
    assert v.passed
    # widening [a, b] raises both sides
    prev_lhs = prev_rhs = -1.0
    for b in (0.0, 0.5, 1.5):
        [vb] = O.check_prop1(stack_of(draw, [0], [1], 0.0, b, 1.0, xi_kind="abs"))
        assert vb.lhs >= prev_lhs - 1e-12 and vb.rhs >= prev_rhs - 1e-12
        prev_lhs, prev_rhs = vb.lhs, vb.rhs
    zero_xi(monkeypatch)
    [vz] = O.check_prop1(stack_of(draw, [0], [1], 0.0, 0.0, 1.0, xi_kind="zero"))
    assert vz.lhs == 0.0 and vz.passed


def test_prop2_hand_instance(monkeypatch):
    draw = rademacher_draw(6)
    [v] = O.check_prop2(stack_of(draw, [0], [1], 0.0, 0.0, 1.0, xi_kind="abs"))
    assert v.passed
    zero_xi(monkeypatch)
    [vz] = O.check_prop2(stack_of(draw, [0], [1], 0.0, 0.0, 1.0, xi_kind="zero"))
    assert vz.lhs == 0.0 and vz.passed


def test_randomized_suite_zero_failures():
    verds = O.run_checker_suite(40, master_seed=314, include_r4=True)
    failures = [v for v in verds if v.counts_as_failure]
    assert failures == []
    # margins respect the tolerance definition
    for v in verds:
        if v.precondition != "violated":
            assert v.margin >= -1e-10 * max(1.0, abs(v.rhs))


def test_suite_is_a_prefix_of_a_longer_suite():
    """Instance k draws only from its own substream, so the first six
    instances give the same verdicts in a suite of six or of twelve."""
    a = O.run_checker_suite(6, master_seed=99)
    b = O.run_checker_suite(12, master_seed=99)
    assert len(a) == 48
    assert [(v.check_id, v.digest, v.lhs, v.rhs) for v in a] == [
        (v.check_id, v.digest, v.lhs, v.rhs) for v in b[:48]
    ]


def counting(ev, calls):
    """``ev``, recording the size of each gathered block it is called on."""
    def wrapped(G, *params):
        calls.append(G.size)
        return ev(G, *params)
    return wrapped


@pytest.mark.parametrize("block", [F.ENUM_BLOCK, 64])
def test_a_suite_walk_calls_its_evaluator_once_per_outcome_block(monkeypatch, block):
    """The walk of a checker instance gathers every index of a block of
    outcomes in one evaluator call while the gather fits GATHER_CELLS,
    and keeps the X of the suite's stacked walk bit for bit."""
    monkeypatch.setattr(F, "ENUM_BLOCK", block)
    for k in range(10):
        pre, _, field, _ = random_instance(substream(20260217, STREAM_INSTANCES, k))
        calls = []
        f = dataclasses.replace(field, ev=counting(field.ev, calls))
        walk = O.walk_outcomes(f, keep=True)
        assert len(calls) == -(-f.outcome_count() // block)
        assert max(calls) <= F.GATHER_CELLS
        assert walk.X.tobytes() == pre.X.tobytes()


def test_a_gather_beyond_gather_cells_splits_into_blocks_within_it(monkeypatch):
    """Past GATHER_CELLS, an evaluation gathers blocks of at most
    GATHER_CELLS cells (one index at least), with the same values."""
    f = random_instance(substream(314, STREAM_INSTANCES, 3))[2]
    rows = F.product_grid(f.sources, 0, 40)[1]
    whole = F.evaluate_values(f, rows)
    K = f.supports.shape[1]
    for cells, per_block in ((2 * 40 * K, 2), (40 * K - 1, 1), (40 * K * f.n, f.n)):
        monkeypatch.setattr(F, "GATHER_CELLS", cells)
        calls = []
        X = F.evaluate_values(dataclasses.replace(f, ev=counting(f.ev, calls)), rows)
        assert len(calls) == -(-f.n // per_block)
        assert max(calls) == 40 * K * per_block
        assert X.tobytes() == whole.tobytes()


def test_suite_instances_walk_only_their_read_sources():
    """The 100 instances of a suite at seed 20260217 (the benchmark's
    checker spec) keep 24,583 outcome rows, the product of each one's read
    supports, in the suite's stacks and in their fields' walks alike; a
    walk of every source's outcomes would keep 212,299."""
    drawn = [random_instance(substream(20260217, STREAM_INSTANCES, k)) for k in range(100)]
    rows = [pre.X.shape[0] for pre, *_ in drawn]
    walked = [O.walk_outcomes(f, keep=True).X.shape[0] for _, _, f, _ in drawn]
    read = [math.prod(len(src.values) for src, c in zip(f.sources, f.counts) if c)
            for _, _, f, _ in drawn]
    assert rows == walked == read and sum(rows) == 24_583


def test_suite_instances_have_mean_zero_exactly():
    """A suite instance is given means of exactly 0 in place of enumerated
    ones.  That holds when every source is symmetric about 0 and no index
    reads a source twice (each term of X_i, a weighted source or the
    product of its sources, has mean 0), on 200 instances from two master
    seeds; a local enumeration gives the same means within 1e-15."""
    laws = set()
    for seed in (20260217, 314):
        for k in range(100):
            field = random_instance(substream(seed, STREAM_INSTANCES, k))[2]
            for src in field.sources:
                assert sum(Fraction(p) * Fraction(v) for p, v in zip(src.probs, src.values)) == 0
                laws.add(src)
            for row in field.supports.tolist():
                ids = [s for s in row if s >= 0]
                assert len(set(ids)) == len(ids)
            assert np.all(field.means == 0.0)
            assert np.abs(F.compute_means(field)).max() <= 1e-15
    assert laws == {O.RADEMACHER, *(law for row in O.THREE_POINT for law in row)}


SUITE_TABLE = Path(__file__).resolve().parent / "data" / "checker_suite_30_314.json"


def test_suite_matches_recorded_verdict_table():
    """Verdicts of run_checker_suite(30, 314, include_r4=True) as recorded
    once walks enumerated only the sources some index reads; every check,
    digest, precondition and verdict equals the table recorded when each
    checker still rebuilt its own instance state.  The 32 lemma_r4 lhs
    values are rounding residues of sums that are 0 exactly (below 1e-16),
    re-recorded when the checkers' dot products became pairwise sums; 23
    of them were re-recorded again when the instances were given their
    exact means, 0, in place of enumerated ones."""
    recorded = json.loads(SUITE_TABLE.read_text())["rows"]
    verds = O.run_checker_suite(30, master_seed=314, include_r4=True)
    assert len(verds) == len(recorded)
    for v, (check, digest, precondition, verdict, lhs, rhs) in zip(verds, recorded):
        assert (v.check_id, v.digest, v.precondition) == (check, digest, precondition)
        assert ("pass" if v.passed else "fail") == verdict
        assert v.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert v.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_stacks_give_each_instance_its_own_rows_bit_for_bit():
    """Each of the 20 instances of a suite at seed 314, checked as a stack
    of one, and all 20 precomputed and checked in reverse order (one
    ``precompute_stack`` per index count), give the suite's rows bit for
    bit: no instance's rows depend on which instances share its stack or
    on their order, in the precompute or in the checkers."""
    bits = lambda verds: [(v.check_id, v.digest, v.precondition, v.lhs.hex(), v.rhs.hex())
                          for v in verds]
    want = bits(O.run_checker_suite(20, master_seed=314, include_r4=True))
    drawn = [random_instance(substream(314, STREAM_INSTANCES, k)) for k in range(20)]
    alone = [row for pre, inst, _, _ in drawn for row in suite_rows(O.stack_instances(pre, [inst]))]
    assert bits(v for row in alone for v in row) == want
    rows = {}
    for n in dict.fromkeys(draw.n for *_, draw in drawn[::-1]):
        ks = [k for k in reversed(range(20)) if drawn[k][3].n == n]
        pre = O.precompute_stack([drawn[k][3] for k in ks])
        rows.update(zip(ks, suite_rows(O.stack_instances(pre, [drawn[k][1] for k in ks]))))
    assert bits(v for k in range(20) for v in rows[k]) == want
    assert max(sum(draw.n == n for *_, draw in drawn) for n in range(2, 9)) >= 4  # stacks of several


def test_a_stack_is_checked_with_one_instance_per_draw():
    """``stack_instances`` pairs draw k of a stack with instance k, so a
    count of instances other than the stack's draw count raises
    ValueError.  Without that check, one instance against a stack of two
    goes through ``bounds.reverse_set_of`` unnoticed, its A broadcast
    over both draws' matrices, and the first error is a numpy shape
    mismatch further on."""
    pre = O.precompute_stack([rademacher_draw(4), rademacher_draw(4, 1)])
    inst = O.CheckInstance((0,), (1,), 0.0, 0.0, 1.0, "one", 0.0)
    for insts in ([inst], [inst] * 3):
        with pytest.raises(ValueError, match=f"{len(insts)} instances for a stack of 2 draws"):
            O.stack_instances(pre, insts)
    assert O.stack_instances(pre, [inst, inst]).comp.shape == (2, 4)
    in_na = B.reverse_set_of(pre.P, O._index_masks([inst.A], pre.n))
    assert in_na.shape == (2, 4) and in_na[0].sum() < in_na[1].sum()


def test_stack_instances_refuses_ids_outside_the_draw():
    """Every id of A and B lies in [0, n), else ValueError naming the
    instance: numpy would read A = (-1,) as index n - 1, and A = (n,)
    would fail as a bare IndexError."""
    pre = O.precompute_stack([rademacher_draw(8)])
    for A, B in (((-1,), (0,)), ((8,), (0,)), ((0,), (-1,)), ((0, 1), (3, 8))):
        inst = O.CheckInstance(A, B, 0.0, 0.0, 1.0, "abs", 1.0)
        with pytest.raises(ValueError, match=r"instance 0 \(A=.*\) has an index outside \[0, 8\)"):
            O.stack_instances(pre, [inst])


def suite_rows(stack):
    """Per instance of the stack, its verdicts in suite order, with r4."""
    k = len(stack.instances)
    rows = [[] for _ in range(k)]
    for name in [*O.SUITE_CHECKS, "lemma_r4"]:
        verds = O._SUITE_CALLS[name](stack)
        per = len(verds) // k
        for j in range(k):
            rows[j] += verds[j * per:(j + 1) * per]
    return rows


def test_stacked_precompute_equals_precompute_bit_for_bit(monkeypatch):
    """For every instance of the 30-instance suite at seed 314, the arrays
    that the suite's stacks precompute equal the per-field composition of
    the instance's field (:func:`reference_stack`) bit for bit, because
    every sum keeps its order:

    - X and the probabilities are elementwise, and Var(S) sums
      E S and E S^2 ENUM_BLOCK outcomes at a time, each by one pairwise
      sum, as the walk does;
    - l2, l3 and l4 are one pairwise sum per draw, index and power, over
      the draw's own rows, as ``neighborhood.dot`` sums them;
    - E[X X^T] is one BLAS product per draw, as in the composition;
    - P, kappa and tau are integers;
    - every beta sum adds a neighborhood's terms one by one in index
      order, as a Csr product does, and its dot products are pairwise
      sums over the system's terms in order, as ``neighborhood.dot``.

    So none of them is compared within a tolerance."""
    stacks = []
    stacked = O.precompute_stack
    monkeypatch.setattr(O, "precompute_stack",
                        lambda draws: stacks.append((draws, stacked(draws))) or stacks[-1][1])
    O.run_checker_suite(30, master_seed=314)
    assert sum(len(draws) for draws, _ in stacks) == 30 and len(stacks) > 1
    for draws, pre in stacks:
        assert np.array_equal(pre.P, pre.P.transpose(0, 2, 1))  # the checkers read P as P^T
        for j, draw in enumerate(draws):
            got, want = pre.take([j]), reference_stack(field_of(draw))
            for name in ("X", "probs", "l2", "l3", "l4", "exx", "P", "w_an"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (got.kappa, got.tau) == (want.kappa, want.tau)
            assert dict(got.norms[0]) == want.norms[0] and dict(got.sums[0]) == want.sums[0]


@pytest.mark.parametrize("block", [F.ENUM_BLOCK, 600])
def test_redrawn_instances_match_instances_drawn_one_at_a_time(monkeypatch, block):
    """Instances 3, 11 and 17 of the suite at seed 314 are rejected on
    their first draws (no instance of it is otherwise): the stacked suite
    redraws them from their substreams, each draw precomputed as a stack
    of one, and gives, row for row and bit for bit, the verdicts of the
    instances drawn one at a time and precomputed by the per-field
    composition (:func:`reference_stack`), stacked one each, so the same
    instances (digest, A, B, a, b, c, p).  With ENUM_BLOCK at 600 outcome
    rows, no pending group holds more rows, except a draw with more rows
    alone."""
    monkeypatch.setattr(F, "ENUM_BLOCK", block)
    draw = lambda k: random_instance(substream(314, STREAM_INSTANCES, k))
    chosen = {draw(k)[0].l2.tobytes() for k in (3, 11, 17)}
    kept, rejected = O._kept, []

    def first_draws_rejected(sigma2, l2):
        if l2.tobytes() in chosen:
            rejected.append(l2.tobytes())
            return False
        return kept(sigma2, l2)

    bits = lambda verds: [(v.check_id, v.digest, v.precondition, v.lhs.hex(), v.rhs.hex())
                          for v in verds]
    plain = bits(O.run_checker_suite(30, master_seed=314, include_r4=True))
    monkeypatch.setattr(O, "_kept", first_draws_rejected)
    drawn = [draw(k) for k in range(30)]
    assert sorted(rejected) == sorted(chosen)
    want = bits(v for _, inst, field, _ in drawn
                for v in suite_rows(O.stack_instances(reference_stack(field), [inst]))[0])
    rejected.clear()
    groups = []
    stacked = O.precompute_stack
    monkeypatch.setattr(O, "precompute_stack", lambda draws: groups.append(
        [d.rows for d in draws]) or stacked(draws))
    got = bits(O.run_checker_suite(30, master_seed=314, include_r4=True))
    assert got == want and sorted(rejected) == sorted(chosen)
    # the 30 first draws in pending groups, and the 3 redraws a stack of one each
    assert sum(map(len, groups)) == 33 and all(sum(g) <= block or len(g) == 1 for g in groups)
    per = len(got) // 30
    changed = [k for k in range(30) if got[k * per:(k + 1) * per] != plain[k * per:(k + 1) * per]]
    assert changed == [3, 11, 17]
    if block < F.ENUM_BLOCK:
        assert any(len(g) == 1 and g[0] > block for g in groups) and len(groups) > 7


def test_a_stacked_var_s_off_the_covariance_identity_fails_the_suite(monkeypatch):
    """The stacked walk's Var(S) is cross-checked against the covariance
    identity over each draw's overlap: one draw's Var(S) short by 1e-8
    relative, far past SIGMA2_IDENTITY_RTOL, fails the suite."""
    walk = O._stacked_walk

    def short(*args):
        spans, X, probs, sigma2, inc = walk(*args)
        return spans, X, probs, [sigma2[0] * (1.0 - 1e-8), *sigma2[1:]], inc

    monkeypatch.setattr(O, "_stacked_walk", short)
    with pytest.raises(AssertionError, match="variance identity violated"):
        O.run_checker_suite(5, master_seed=314)


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
    assert O.check_ld_independence(F.induced_neighborhoods(f), O.walk_outcomes(f, keep=True)) == []
    fm = F.build_m_dependent(3, 1, F.rademacher())
    walk = O.walk_outcomes(fm, keep=True)
    assert O.check_ld_independence(F.induced_neighborhoods(fm), walk) == []
    shrunk = nb.make_system([(0,), (0, 1, 2), (1, 2)])
    viol = O.check_ld_independence(shrunk, walk)
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


def test_ld_factorization_matches_dict_loop_reference(monkeypatch):
    rng = np.random.default_rng(41)
    cases = []
    for name in ("INSTANCE_MAX_INDICES", "INSTANCE_MAX_SOURCES"):
        monkeypatch.setattr(O, name, 6)
    monkeypatch.setattr(O, "INSTANCE_MAX_OUTCOMES", 3**6)
    for _ in range(12):
        f = random_instance(rng)[2]
        assert f.n <= 6 and f.n_sources <= 6 and f.outcome_count() <= 3**6
        sys = F.induced_neighborhoods(f)
        cases += [(f, sys), (f, shrink(sys, rng))]
    for n in (4, 6):
        f = F.build_m_dependent(n, 1, F.three_point())
        cases += [(f, F.induced_neighborhoods(f)), (f, shrink(F.induced_neighborhoods(f), rng))]
    verdicts = [O.check_ld_independence(sys, O.walk_outcomes(f, keep=True)) for f, sys in cases]
    assert verdicts == [ld_reference(f, sys) for f, sys in cases]
    assert sum(bool(v) for v in verdicts) >= 10  # shrunk systems do fail


def test_degenerate_statistic_raises():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    with pytest.raises(DegenerateVariance):
        O.exact_kolmogorov(f, "w1")
    with pytest.raises(DegenerateVariance):
        O.walk_outcomes(f, "w2", F.induced_neighborhoods(f))


def test_verdict_csv_rows():
    rows = O.verdicts_to_csv_rows(O.check_lemma_s2(stack_of(rademacher_draw(4), [0])))
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
