"""Latent-source field tests.

Core claims:
    - induced neighborhoods equal support-overlap enumeration for every
      builder, and the induced systems satisfy both local-dependence
      conditions exactly (factorization of the joint pmf)
    - sampling is a bit-for-bit deterministic function of
      (master seed, path, replication), whatever block boundaries the
      requested range crosses; distinct replications are independent, and
      every sampler draws its source's exact law
    - the family builders reproduce their hand-derived structure examples
      (window fields, graph fields, U-statistic subsets, constrained
      tuples, decorated injections)
    - a built field is immutable, and sampling leaves it unchanged
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import locdep.fields as F
import locdep.harness as H
import locdep.neighborhood as nb
import locdep.oracle as oracle
import locdep.statistics as st
from locdep.errors import (
    BlockTooSmall,
    EmptyIndexSet,
    GraphTooLarge,
    InvalidSize,
)
from locdep.rng import block_size, substream


def test_induced_m_dependent_windows():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    for i in range(6):
        assert set(sys.A[i]) == {j for j in (i - 1, i, i + 1) if 0 <= j < 6}


def test_induced_ustat_pairs_overlap():
    f = F.build_ustat_field([4], 2, lambda x, y: x * y, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pairs = list(itertools.combinations(range(4), 2))
    idx = {p: k for k, p in enumerate(sorted(pairs, key=lambda t: t[::-1]))}
    a_01 = set(sys.A[idx[(0, 1)]])
    expect = {idx[p] for p in pairs if set(p) & {0, 1}}
    assert a_01 == expect and len(a_01) == 5


def test_induced_iid_singletons():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    assert sys.A == tuple((i,) for i in range(4))


def test_sample_determinism_and_independence():
    f = F.build_m_dependent(5, 1, F.rademacher())
    r1 = F.sample(f, 99, 3)
    r2 = F.sample(f, 99, 3)
    assert np.array_equal(r1.values, r2.values)
    # correlation between distinct replications near 0
    rows = F.draw_source_rows(f, 99, range(4000))
    x = F.evaluate_values(f, rows)
    s = x.sum(axis=1)
    a, b = s[0::2], s[1::2]
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(a.size)


def test_rademacher_identity_values():
    f = F.build_iid_field(8, F.rademacher(), center=False)
    rows = F.draw_source_rows(f, 5, range(10))
    vals = F.evaluate_values(f, rows)
    assert set(np.unique(vals)) <= {-1.0, 1.0}


def test_m_dependent_degenerate_cases():
    f0 = F.build_m_dependent(4, 0, F.rademacher())
    sys = F.induced_neighborhoods(f0)
    assert sys.A == tuple((i,) for i in range(4))
    with pytest.raises(InvalidSize):
        F.build_m_dependent(0, 1, F.rademacher())
    with pytest.raises(InvalidSize):
        F.build_m_dependent(4, -1, F.rademacher())


def test_graph_builder_neighborhoods():
    edgeless = F.build_graph_dependency(4, [], F.rademacher())
    d = nb.derive(F.induced_neighborhoods(edgeless))
    assert d.kappa == 1

    c6 = F.build_graph_dependency(6, [(i, (i + 1) % 6) for i in range(6)], F.rademacher())
    sys6 = F.induced_neighborhoods(c6)
    assert all(len(a) == 3 for a in sys6.A)
    assert nb.derive(sys6).kappa == 4

    star = F.build_graph_dependency(4, [(0, 1), (0, 2), (0, 3)], F.rademacher())
    sys_star = F.induced_neighborhoods(star)
    assert len(sys_star.A[0]) == 4
    assert all(len(sys_star.A[i]) == 2 for i in (1, 2, 3))


def test_ustat_field_sum_matches_direct_u():
    # single block: field sum equals U_N - theta on the sampled data
    kernel = lambda x, y: x * y
    f = F.build_ustat_field([5], 2, kernel, F.three_point())
    rows = F.draw_source_rows(f, 21, range(6))
    x = F.evaluate_values(f, rows)
    for r in range(6):
        data = rows[r]
        u = st.classical_u(data, kernel, 2)
        assert x[r].sum() == pytest.approx(u - f.metadata["theta"], abs=1e-12)
    # two blocks: field sum equals the blockwise weighted average
    f2 = F.build_ustat_field([4, 3], 2, kernel, F.three_point())
    rows2 = F.draw_source_rows(f2, 22, range(4))
    x2 = F.evaluate_values(f2, rows2)
    for r in range(4):
        blocks = [rows2[r][:4], rows2[r][4:]]
        u_d = st.distributed_u(blocks, kernel, 2)
        assert x2[r].sum() == pytest.approx(u_d - f2.metadata["theta"], abs=1e-12)


def test_ustat_field_block_too_small():
    with pytest.raises(BlockTooSmall):
        F.build_ustat_field([1, 4], 2, lambda x, y: x * y, F.rademacher())


def test_constrained_gap_orders():
    assert F.gap_order((None, None)) == 3
    assert F.gap_order((1, 2)) == 1
    assert F.gap_order((2, None)) == 2


def test_word_field_tuple_set():
    f = F.build_word_field([0, 1], 4, 2, [None])
    assert len(f.metadata["tuples"]) == math.comb(4, 2)
    with pytest.raises(EmptyIndexSet):
        F.build_constrained_ustat_field(
            2, 0, lambda *xs: xs[0], (1, 1), F.rademacher()
        )


def test_constrained_iid_neighborhoods_are_overlap_only():
    # m = 0: the proximity part is vacuous, A_i is tuple overlap only
    f = F.build_word_field([0, 1], 5, 2, [None])
    sys = F.induced_neighborhoods(f)
    tuples = f.metadata["tuples"]
    for i, ti in enumerate(tuples):
        expect = {j for j, tj in enumerate(tuples) if set(ti) & set(tj)}
        assert set(sys.A[i]) == expect


def test_constrained_m_dependent_neighborhoods():
    # m = 1: overlap or gap <= 1
    f = F.build_constrained_ustat_field(
        6, 1, lambda x, y: x * y, (None,), F.rademacher()
    )
    sys = F.induced_neighborhoods(f)
    tuples = f.metadata["tuples"]
    for i, ti in enumerate(tuples):
        expect = set()
        for j, tj in enumerate(tuples):
            dist = min(abs(p - q) for p in ti for q in tj)
            if set(ti) & set(tj) or dist <= 1:
                expect.add(j)
        assert set(sys.A[i]) == expect


def test_unconstrained_symmetric_tuples_are_subsets():
    for n, l in [(6, 2), (6, 3), (5, 4)]:
        tuples = F.admissible_tuples(n, (None,) * (l - 1))
        assert len(tuples) == math.comb(n, l)
        assert all(all(a < b for a, b in zip(t, t[1:])) for t in tuples)


def test_pattern_field_mean_is_inverse_factorial():
    f = F.build_pattern_field(6, [2, 1], [None])
    assert np.allclose(f.means, 0.5)
    f3 = F.build_pattern_field(6, [1, 3, 2], [None, None])
    assert np.allclose(f3.means, 1.0 / 6.0)


def test_decorated_field_structure_and_means():
    f = F.build_decorated_graph_field(4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(1.0))
    # all edges present: every injection contributes 1 (uncentered)
    rows = F.draw_source_rows(f, 1, range(1))
    uncentered = F.evaluate_values(f, rows) + f.means
    assert uncentered.sum() == pytest.approx(24.0)
    f5 = F.build_decorated_graph_field(4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))
    assert float(np.sum(f5.means)) == pytest.approx(3.0)  # 4*3*2 * (1/2)^3
    with pytest.raises(GraphTooLarge):
        F.build_decorated_graph_field(50, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5), cap=1000)


def test_decorated_induced_neighbors_share_an_edge():
    f = F.build_decorated_graph_field(4, [(0, 1), (1, 2)], F.bernoulli(0.5))
    sys = F.induced_neighborhoods(f)
    inj = f.metadata["injections"]
    eid = f.metadata["edge_ids"]
    for i in range(len(inj)):
        expect = {j for j in range(len(inj)) if set(eid[i]) & set(eid[j])}
        assert set(sys.A[i]) == expect


def test_induced_systems_satisfy_local_dependence_exactly():
    cases = [
        F.build_iid_field(4, F.three_point()),
        F.build_m_dependent(5, 1, F.rademacher()),
        F.build_graph_dependency(4, [(0, 1), (1, 2)], F.rademacher()),
        F.build_word_field([0, 1], 4, 2, [None]),
    ]
    for f in cases:
        sys = F.induced_neighborhoods(f)
        assert oracle.check_ld_independence(f, sys) == []


def test_shrunk_neighborhood_fails_independence():
    f = F.build_m_dependent(3, 1, F.rademacher())
    bad = nb.make_system([(0,), (0, 1, 2), (1, 2)])
    violations = oracle.check_ld_independence(f, bad)
    assert any("LD1" in v for v in violations)


def test_outcome_blocks_probabilities_sum_to_one():
    f = F.build_m_dependent(4, 1, F.three_point())
    total = sum(float(p.sum()) for p, _ in F.outcome_blocks(f))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mean_prepass_for_continuous_sources():
    # 50 indices alternating between U_i and U_i * U_{i+1}: the pre-pass
    # estimates one mean per signature group and spreads it over the group
    n = 50
    has_v = np.arange(n) % 2 == 1
    f = F.LatentSourceField(
        sources=(F.ContinuousSource("uniform"),) * (n + 1),
        supports=np.stack([np.arange(n), np.where(has_v, np.arange(n) + 1, -1)], axis=1),
        ev=lambda G, has_v: G[..., 0] * np.where(has_v, G[..., 1], 1.0),
        params=(has_v,),
        center=True,
    )
    means = F.compute_means(f, prepass=200_000)
    assert np.unique(means).size == 2
    assert np.all(np.abs(means[~has_v] - 0.5) <= 0.01)
    assert np.all(np.abs(means[has_v] - 0.25) <= 0.01)
    normal = F.build_m_dependent(40, 1, F.ContinuousSource("normal"))
    assert normal.metadata["mean_prepass"]["draws"] == 10**6
    assert np.unique(normal.means).size == 1
    assert abs(normal.means[0]) <= 6 / math.sqrt(10**6)


def test_sampler_laws():
    # bits (fair two-point), integers (equiprobable letters) and the
    # inverse-cdf fallback (everything else) each draw their exact law
    rng = substream(2024, 7)
    size = 2**20
    for source in (F.rademacher(), F.uniform_letters(5), F.bernoulli(0.55), F.three_point()):
        x = F._draw(source, rng, size)
        assert x.shape == (size,)
        for value, p in zip(source.values, source.probs):
            freq = np.mean(x == value)
            assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / size), (source, value, freq)
        for shape in (13, (3, 5), (0, 4), (7, 9)):
            y = F._draw(source, rng, shape)
            assert y.shape == np.empty(shape).shape
            assert set(np.unique(y)) <= set(source.values)


@pytest.mark.parametrize("n_sources", [8, 300, 40_000])
def test_block_rows_are_a_function_of_the_replication(n_sources):
    # B = 4096, 128 and 1: a range that starts inside a block and crosses
    # block edges reads the same rows as a range from 0
    f = F.build_iid_field(n_sources, F.rademacher(), center=False)
    B = block_size(n_sources)
    assert B == {8: 4096, 300: 128, 40_000: 1}[n_sources]
    a, b = B + B // 2 + 1, 3 * B + 2
    full = F.draw_source_rows(f, 17, range(0, b + B))
    assert np.array_equal(F.draw_source_rows(f, 17, range(a, b)), full[a:b])
    picks = [b - 1, a, 0, a]
    assert np.array_equal(F.draw_source_rows(f, 17, picks), full[picks])
    other = F.draw_source_rows(f, 17, range(0, b + B), path=(1,))
    assert not np.array_equal(other, full)
    assert not np.array_equal(other, F.draw_source_rows(f, 17, range(0, b + B), path=(2,)))


def test_fields_are_immutable_and_sampling_leaves_them_unchanged():
    f = F.build_m_dependent(64, 1, F.three_point())
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.means = np.zeros(f.n)
    with pytest.raises(TypeError):
        f.metadata["family"] = "other"
    with pytest.raises(ValueError):
        f.means[0] = 1.0
    with pytest.raises(ValueError):
        f.supports[0, 0] = 1
    means, metadata = f.means.copy(), dict(f.metadata)
    rows = F.draw_source_rows(f, 1, range(10))
    F.evaluate_values(f, rows)
    H.mc_run(f, "w2", 2000, 3, chunk=256, threads=2)
    assert np.array_equal(f.means, means)
    assert dict(f.metadata) == metadata
