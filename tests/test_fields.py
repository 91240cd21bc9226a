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
      tuples, decorated injections and their edge ids); word and pattern
      fields are constructed once
    - a built field is immutable, and sampling leaves it unchanged; its
      frozen source counts are the incidence column sums
    - sum fields (iid, m-dependent, graph) take the linear route: their
      values, sums and exact means agree with the gather route and with
      local enumeration, and their closed-form Var(S) with the full walk;
      other fields that read continuous sources need given means
    - the product grid equals the div/mod grid bit for bit on any block
    - fair two-point fields keep their draws packed: source-major rows and
      S counted from the packed bits equal the float route bit for bit at
      any block size, on unaligned, unsorted and repeated replications;
      every other law (and integer sums that could reach 2^53) draws rows,
      and S from rows does not depend on their layout or batch
    - a word field's S is its occurrence count less the summed means, with
      no per-tuple value matrix: equal to the summed values bit for bit
      for dyadic means, and within 1e-9 |I| otherwise
    - a law drawn by counting its cumulative thresholds equals the binary
      search bit for bit; the triangle's chunked trace(A^3) equals the
      whole-batch formula; the first-slot pattern equals the argsort one
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import locdep.fields as F
import locdep.harness as H
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as oracle
import locdep.statistics as st
from locdep.errors import (
    BlockTooSmall,
    EmptyIndexSet,
    GraphTooLarge,
    InvalidSize,
)
from locdep.rng import STREAM_SAMPLE, block_size, substream


def test_induced_m_dependent_windows():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    for i in range(6):
        assert set(sys.M.row(i)) == {j for j in (i - 1, i, i + 1) if 0 <= j < 6}


def test_induced_ustat_pairs_overlap():
    f = F.build_ustat_field([4], 2, lambda x, y: x * y, F.rademacher())
    sys = F.induced_neighborhoods(f)
    pairs = list(itertools.combinations(range(4), 2))
    idx = {p: k for k, p in enumerate(sorted(pairs, key=lambda t: t[::-1]))}
    a_01 = set(sys.M.row(idx[(0, 1)]))
    expect = {idx[p] for p in pairs if set(p) & {0, 1}}
    assert a_01 == expect and len(a_01) == 5


def test_induced_iid_singletons():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    assert np.array_equal(sys.M.toarray(), np.eye(4))  # A_i = {i}


def test_sample_determinism_and_independence():
    f = F.build_m_dependent(5, 1, F.rademacher())
    r1 = F.evaluate_values(f, F.draw_source_rows(f, 99, [3]))
    r2 = F.evaluate_values(f, F.draw_source_rows(f, 99, [3]))
    assert np.array_equal(r1, r2)
    # correlation between distinct replications near 0
    rows = F.draw_source_rows(f, 99, range(4000))
    x = F.evaluate_values(f, rows)
    assert np.array_equal(x[3], r1[0])
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
    assert np.array_equal(sys.M.toarray(), np.eye(4))  # A_i = {i}
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
    assert np.all(np.diff(sys6.M.indptr) == 3)  # |A_i| = 3
    assert nb.derive(sys6).kappa == 4

    star = F.build_graph_dependency(4, [(0, 1), (0, 2), (0, 3)], F.rademacher())
    sys_star = F.induced_neighborhoods(star)
    assert np.diff(sys_star.M.indptr).tolist() == [4, 2, 2, 2]


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
    with pytest.raises(ValueError, match="gap entries"):  # one gap per step of the word
        F.build_word_field([0, 1], 4, 2, [None, None])


def test_constrained_iid_neighborhoods_are_overlap_only():
    # m = 0: the proximity part is vacuous, A_i is tuple overlap only
    f = F.build_word_field([0, 1], 5, 2, [None])
    sys = F.induced_neighborhoods(f)
    tuples = f.metadata["tuples"]
    for i, ti in enumerate(tuples):
        expect = {j for j, tj in enumerate(tuples) if set(ti) & set(tj)}
        assert set(sys.M.row(i)) == expect


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
        assert set(sys.M.row(i)) == expect


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
    with pytest.raises(ValueError, match="gap entries"):  # one gap per step of the pattern
        F.build_pattern_field(6, [1, 3, 2], [None])


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
        assert set(sys.M.row(i)) == expect


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


def divmod_product_grid(sources, start=0, stop=None):
    """The product grid by int64 division: each outcome's digits taken
    with % and //, least significant source first."""
    stop = math.prod(len(s.values) for s in sources) if stop is None else stop
    idx = np.arange(start, stop, dtype=np.int64)
    rows = np.empty((idx.size, len(sources)))
    p = np.ones(idx.size)
    for s in range(len(sources) - 1, -1, -1):
        radix = len(sources[s].values)
        digit = idx % radix
        idx //= radix
        rows[:, s] = np.asarray(sources[s].values)[digit]
        p *= np.asarray(sources[s].probs)[digit]
    return p, rows


def test_product_grid_matches_the_divmod_grid():
    # radices (2, 3, 5, 3) with unequal probabilities: 90 outcomes
    rng = np.random.default_rng(12)
    sources = []
    for radix in (2, 3, 5, 3):
        w = rng.random(radix)
        sources.append(F.DiscreteSource(tuple(rng.normal(size=radix).tolist()), tuple((w / w.sum()).tolist())))
    spans = [(0, None), (0, 90), (7, 8), (7, 53), (14, 46), (44, 46), (45, 90), (89, 90), (31, 31), (0, 0), (90, 90)]
    spans += [(a, b) for a in range(0, 91, 13) for b in range(a, 91, 11)]
    for k in range(len(sources) + 1):  # the empty source list too
        for start, stop in spans:
            total = math.prod(len(s.values) for s in sources[:k])
            if start > total or (stop is not None and stop > total):
                continue
            p, rows = F.product_grid(sources[:k], start, stop)
            p_ref, rows_ref = divmod_product_grid(sources[:k], start, stop)
            assert rows.shape == rows_ref.shape and p.shape == p_ref.shape
            assert np.array_equal(rows, rows_ref) and np.array_equal(p, p_ref)
    # blocks of one enumeration, as outcome_blocks cuts them
    f = F.build_m_dependent(4, 1, F.three_point())
    blocks = list(F.outcome_blocks(f, block=50))
    assert len(blocks) == 5  # 243 outcomes, the last block partial
    p_ref, rows_ref = divmod_product_grid(f.sources)
    assert np.array_equal(np.concatenate([p for p, _ in blocks]), p_ref)
    assert np.array_equal(np.concatenate([r for _, r in blocks]), rows_ref)


def test_continuous_sources_need_given_means():
    # 50 indices alternating between U_i and U_i * U_{i+1} over uniform
    # sources: no exact mean, so construction asks for given means
    n = 50
    has_v = np.arange(n) % 2 == 1
    kwargs = dict(
        sources=(F.ContinuousSource("uniform"),) * (n + 1),
        supports=np.stack([np.arange(n), np.where(has_v, np.arange(n) + 1, -1)], axis=1),
        ev=lambda G, has_v: G[..., 0] * np.where(has_v, G[..., 1], 1.0),
        params=(has_v,),
        center=True,
    )
    with pytest.raises(ValueError, match="means"):
        F.LatentSourceField(**kwargs)
    given = np.where(has_v, 0.25, 0.5)
    f = F.LatentSourceField(**kwargs, means=given)
    assert np.array_equal(f.means, given)
    # a sum field is linear in its sources: its means are exact, with no pre-pass
    normal = F.build_m_dependent(40, 1, F.ContinuousSource("normal"))
    assert "mean_prepass" not in normal.metadata
    assert np.array_equal(normal.means, np.zeros(40))


# pattern edge lists: triangle, a 4-vertex path, an edge, path3, a triangle with a tail
@pytest.mark.parametrize("n, edges", [
    (6, [(0, 1), (0, 2), (1, 2)]),
    (7, [(0, 1), (1, 2), (2, 3)]),
    (8, [(0, 1)]),
    (5, [(0, 1), (1, 2)]),
    (6, [(0, 1), (0, 2), (1, 2), (0, 3)]),
])
def test_decorated_injections_are_the_lexicographic_permutations(n, edges):
    f = F.build_decorated_graph_field(n, edges, F.bernoulli(0.5))
    v = max(max(e) for e in edges) + 1
    expect = np.array(list(itertools.permutations(range(n), v)), dtype=np.int64)
    assert f.metadata["injections"].dtype == np.int64
    assert np.array_equal(f.metadata["injections"], expect)
    # an edge's id is its rank among the host's pairs in lexicographic order
    rank = {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}
    ids = [[rank[tuple(sorted((phi[a], phi[b])))] for a, b in edges] for phi in expect]
    assert f.metadata["edge_ids"].dtype == np.int64
    assert np.array_equal(f.metadata["edge_ids"], ids)
    assert np.array_equal(f.supports, ids)


SUM_FIELDS = {
    "iid": lambda src: F.build_iid_field(9, src),
    **{f"m{m}": (lambda src, m=m: F.build_m_dependent(9, m, src)) for m in range(4)},
    "cycle": lambda src: F.build_graph_dependency(6, [(i, (i + 1) % 6) for i in range(6)], src),
    "star": lambda src: F.build_graph_dependency(6, [(0, j) for j in range(1, 6)], src),
}
SUM_LAWS = {
    "rademacher": F.rademacher(),
    "bernoulli": F.bernoulli(0.55),
    "three_point": F.three_point(),
    "normal": F.ContinuousSource("normal"),
    "mixed": (F.rademacher(), F.bernoulli(0.55), F.three_point()),
}


def sum_field(family: str, law: str) -> F.LatentSourceField:
    """A SUM_FIELDS field of one SUM_LAWS law; a tuple of laws is cycled
    over the sources."""
    laws = SUM_LAWS[law]
    if not isinstance(laws, tuple):
        return SUM_FIELDS[family](laws)
    f = SUM_FIELDS[family](laws[0])
    mixed = tuple(laws[s % len(laws)] for s in range(f.n_sources))
    return dataclasses.replace(f, sources=mixed, means=None)


@pytest.mark.parametrize("law", SUM_LAWS)
@pytest.mark.parametrize("family", SUM_FIELDS)
def test_sum_fields_take_the_linear_route(family, law, monkeypatch):
    # the star pads its leaves' supports.  Only normal sources leave the
    # integer lattice; Bernoulli(0.55) means are not dyadic, so their sums
    # round differently in another summation order
    f = sum_field(family, law)
    rows = F.draw_source_rows(f, 23, range(300))
    X = F.evaluate_values(f, rows)
    gathered = F._sum_columns(F._gather(rows, f.supports)) - f.means
    S = F.sum_values(f, rows)
    if law == "normal":
        np.testing.assert_allclose(X, gathered, rtol=0, atol=1e-12)
        assert np.array_equal(f.means, np.zeros(f.n))
    else:
        assert np.array_equal(X, gathered)
        np.testing.assert_array_max_ulp(f.means, F.compute_means(f), maxulp=1)
    if law in ("rademacher", "three_point"):  # integer values: every order is exact
        assert np.array_equal(f.means, F.compute_means(f))
        assert np.array_equal(S, X.sum(axis=1))
    else:
        np.testing.assert_allclose(S, X.sum(axis=1), rtol=0, atol=1e-12)
    # a replication's S does not depend on the other rows of its batch
    assert np.array_equal(F.sum_values(f, rows[5:6]), S[5:6])
    assert np.array_equal(F.sum_values(f, rows[3:250]), S[3:250])
    assert f.incidence.shape == (f.n, f.n_sources)
    assert np.array_equal(f.incidence.toarray().sum(axis=1), (f.supports >= 0).sum(axis=1))
    if law != "normal":
        # Var(S) = sum_s c_s^2 Var(U_s) in closed form, with no walk of the
        # outcome space, equals Var(S) over the whole outcome space
        enumerated = oracle.walk_outcomes(f, var=True).sigma2
        monkeypatch.setattr(oracle, "outcome_blocks", None)
        table = M.exact_moment_table(f, F.induced_neighborhoods(f))
        assert table.mode == "exact"
        assert table.sigma2 == pytest.approx(enumerated, rel=1e-12, abs=0.0)


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


def _searchsorted_draw(source, rng, size):
    """The former ``_draw`` of a discrete law: bits for a fair two-point
    law, ``integers`` for an equiprobable one, else a binary search of
    one uniform draw in the cumulative probs."""
    values = np.asarray(source.values)
    if F._is_fair_two_point(source):
        return values.take(F._fair_bits(rng, size))
    if len(set(source.probs)) == 1:
        return values[rng.integers(len(values), size=size)]
    idx = np.searchsorted(np.cumsum(source.probs), rng.random(size), side="right")
    return values[np.minimum(idx, len(values) - 1)]


class _GivenUniforms:
    """A generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return self.u.reshape(size)


DRAW_LAWS = {
    "bernoulli": F.bernoulli(0.3),
    "three_point": F.three_point(1.3, 0.2),
    "ten_point": F.DiscreteSource(tuple(map(float, range(10))),
                                  (0.02, 0.08, 0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.12, 0.08)),
    "zero_atoms": F.DiscreteSource((-1.0, 0.0, 2.0, 5.0), (0.5, 0.0, 0.5, 0.0)),
    "zero_first": F.DiscreteSource((0.0, 1.0, 2.0), (0.0, 0.3, 0.7)),
    "short_cumsum": F.DiscreteSource(tuple(map(float, range(10))), (0.05,) + (0.1,) * 8 + (0.15,)),
    "tenths": F.DiscreteSource(tuple(map(float, range(10))), (0.1,) * 10),
}


@pytest.mark.parametrize("law", DRAW_LAWS.values(), ids=DRAW_LAWS.keys())
def test_threshold_draws_match_the_binary_search(law):
    # counting the cumulative probs at or below u is the binary search's
    # index, capped at the last value, bit for bit and for any shape
    for size in (1, 5000, (37, 11), (0, 3)):
        got = F._draw(law, np.random.default_rng(99), size)
        want = _searchsorted_draw(law, np.random.default_rng(99), size)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if len(set(law.probs)) > 1:  # uniforms on and next to every threshold
        cum = np.cumsum(law.probs)
        # short_cumsum's cumsum ends below 1: u in [cum[-1], 1) takes the last value
        assert law is not DRAW_LAWS["short_cumsum"] or cum[-1] < 1.0
        u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 2), [0.0, 1 - 2**-53]])
        u = u[u < 1]
        got = F._draw(law, _GivenUniforms(u), u.size)
        assert np.array_equal(got, _searchsorted_draw(law, _GivenUniforms(u), u.size))


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


def float_rows(f: F.LatentSourceField, seed: int, reps, path=()) -> np.ndarray:
    """Index-major float rows drawn run by run with ``_draw``: the route
    every law took before fair two-point draws were kept as bits."""
    B = block_size(f.n_sources)
    blocks = {}
    for b in sorted({r // B for r in reps}):
        rng = substream(seed, STREAM_SAMPLE, *path, b)
        blocks[b] = np.concatenate(
            [F._draw(src, rng, (B, sl.stop - sl.start)) for sl, src in f.runs], axis=1)
    return np.array([blocks[r // B][r % B] for r in reps])


def count_row_draws(monkeypatch) -> list:
    """Record each call of ``draw_source_rows`` (a route that expands rows)."""
    calls, draw = [], F.draw_source_rows
    monkeypatch.setattr(F, "draw_source_rows", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
    return calls


def mixed_fair(n: int) -> F.LatentSourceField:
    """An m = 2 window field whose first five sources are Rademacher and
    the others Bernoulli(1/2): two runs of fair two-point laws."""
    f = F.build_m_dependent(n, 2, F.rademacher())
    laws = tuple(F.rademacher() if s < 5 else F.bernoulli(0.5) for s in range(f.n_sources))
    return dataclasses.replace(f, sources=laws, means=None)


# fair two-point sum fields of about k sources
FAIR_FIELDS = {
    "iid": lambda k: F.build_iid_field(k, F.rademacher()),
    "m1": lambda k: F.build_m_dependent(k - 1, 1, F.bernoulli(0.5)),
    "m3": lambda k: F.build_m_dependent(k - 3, 3, F.rademacher()),
    "cycle": lambda k: F.build_graph_dependency(  # k + 1 sources
        (k + 1) // 2, [(i, (i + 1) % ((k + 1) // 2)) for i in range((k + 1) // 2)],
        F.rademacher()),
    "star": lambda k: F.build_graph_dependency(
        (k + 1) // 2, [(0, j) for j in range(1, (k + 1) // 2)], F.rademacher()),
    "mixed": lambda k: mixed_fair(k - 2),
}


# (family, B); no star at B = 1, whose 20,000-leaf hub pads 20,001 x 20,001 supports
@pytest.mark.parametrize("family, B", [
    (family, B) for family in FAIR_FIELDS for B in (4096, 16, 1) if (family, B) != ("star", 1)
])
def test_fair_two_point_routes_match_the_float_route(family, B, monkeypatch):
    # bits read from the stream give the float route's rows (now
    # source-major) and its S (now from popcounts), bit for bit, on
    # unaligned ranges and on unsorted lists with repeats
    f = FAIR_FIELDS[family]({4096: 13, 16: 3001, 1: 40_001}[B])
    assert block_size(f.n_sources) == B and f.n_sources % 8
    calls = count_row_draws(monkeypatch)
    for reps in (range(B + 3, 3 * B + 5), [2 * B + 1, 0, B + 1, 2 * B + 1, 5, 0, 3 * B - 1]):
        reps = list(reps)
        want = float_rows(f, 41, reps, path=(6,))
        rows = F.draw_source_rows(f, 41, reps, path=(6,))
        assert rows.T.flags.c_contiguous and np.array_equal(rows, want)
        assert np.array_equal(F.evaluate_values(f, rows), F.evaluate_values(f, want))
        S = F.sum_values(f, want)
        assert np.array_equal(F.sum_values(f, rows), S)
        calls.clear()
        assert np.array_equal(F.draw_sums(f, 41, reps, path=(6,)), S)
        assert calls == []


FALLBACKS = {
    "three_point": F.build_m_dependent(29, 2, F.three_point()),
    "bernoulli_055": F.build_m_dependent(29, 2, F.bernoulli(0.55)),
    "normal": F.build_m_dependent(29, 2, F.ContinuousSource("normal")),
    "quarters": F.build_m_dependent(29, 2, F.DiscreteSource((0.25, 0.75), (0.5, 0.5))),
    "word": F.build_word_field([0, 1], 13, 2, [None]),
    # sum_s c_s |v_s| = 3 * 2^52 reaches 2^53, past which floats skip integers
    "two_pow_52": F.build_iid_field(3, F.DiscreteSource((-2.0**52, 2.0**52), (0.5, 0.5))),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_draw_sums_falls_back_to_the_rows(name, monkeypatch):
    f = FALLBACKS[name]
    calls = count_row_draws(monkeypatch)
    reps = [4100, 3, 3, 70]
    S = F.draw_sums(f, 5, reps, path=(1,))
    assert len(calls) == 1
    assert np.array_equal(S, F.sum_values(f, float_rows(f, 5, reps, path=(1,))))


def fair(a: float, b: float) -> F.DiscreteSource:
    return F.DiscreteSource((a, b), (0.5, 0.5))


def window_system(n: int, half: int) -> nb.NeighborhoodSystem:
    """A declared system wider than the induced one: A_i = [i-half, i+half]."""
    return nb.make_system([range(max(0, i - half), min(n, i + half + 1)) for i in range(n)])


def cycle(n: int, source: F.Source) -> F.LatentSourceField:
    return F.build_graph_dependency(n, [(i, (i + 1) % n) for i in range(n)], source)


# (field, declared system or None for the induced one, the dtype its values take)
INTEGER_FIELDS = {
    "iid2": (F.build_iid_field(2, F.rademacher()), None, np.int8),  # rejects half the time
    "iid": (F.build_iid_field(40, F.rademacher()), None, np.int8),
    "m1": (F.build_m_dependent(60, 1, F.rademacher()), None, np.int8),
    "m3": (F.build_m_dependent(60, 3, F.rademacher()), None, np.int8),
    "cycle": (cycle(30, F.rademacher()), None, np.int8),
    "star": (F.build_graph_dependency(30, [(0, j) for j in range(1, 30)], F.rademacher()),
             None, np.int16),  # hub: |X| <= 30, |A| = 30, |X Y| <= 27,000
    # |X| <= 2, |A_i| <= 81: |X Y| <= 324
    "m1_declared": (F.build_m_dependent(200, 1, F.rademacher()), window_system(200, 40), np.int16),
    # |X| <= 4,000, |A_i| <= 7: |X Y| <= 1.12e8
    "m3_wide": (F.build_m_dependent(40, 3, fair(-1000.0, 1000.0)), None, np.int32),
    # means 3 (values 0 and 2 over 3 sources) are subtracted as integers
    "m2_shifted": (F.build_m_dependent(50, 2, fair(0.0, 2.0)), None, np.int8),
}


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_values_give_the_float_routes_w2(name):
    # integer values, and W2, W2bar and the rejection masks computed from
    # them, equal the float route bit for bit on unaligned ranges and on
    # unsorted lists with repeats
    f, sys, dtype = INTEGER_FIELDS[name]
    sys = F.induced_neighborhoods(f) if sys is None else sys
    assert F.value_dtype(f, sys) == dtype
    B = block_size(f.n_sources)
    for reps in (range(B + 3, 9 * B + 5), [2 * B + 1, 0, B + 1, 2 * B + 1, 5, 0, 3 * B - 1]):
        want = F.evaluate_values(f, F.draw_source_rows(f, 17, reps, path=(2,)))
        rows = F.draw_source_rows(f, 17, reps, path=(2,), dtype=dtype)
        assert rows.dtype == dtype and rows.T.flags.c_contiguous
        X = F.evaluate_values(f, rows)
        assert X.dtype == dtype and np.array_equal(X, want)
        w2, rejected = st.w2_batch(X, sys)
        w2_f, rejected_f = st.w2_batch(want, sys)
        assert np.array_equal(w2, w2_f, equal_nan=True) and np.array_equal(rejected, rejected_f)
        assert all(np.array_equal(a, b) for a, b in zip(st.statistic_parts("w2bar", X, sys)[0],
                                                         st.statistic_parts("w2bar", want, sys)[0]))
    if name == "iid2":
        assert rejected.any()


FLOAT_FIELDS = {
    # n max|X| max|Y| = 3 * 2^52 reaches 2^53, though S still counts from bits
    "two_pow_26": F.build_iid_field(3, fair(-2.0**26, 2.0**26)),
    "bernoulli_half": F.build_iid_field(30, F.bernoulli(0.5)),  # mean 1/2
    "three_point": F.build_m_dependent(29, 2, F.three_point()),
    "normal": F.build_m_dependent(29, 2, F.ContinuousSource("normal")),
    "quarters": F.build_m_dependent(29, 2, fair(0.25, 0.75)),
    "word": F.build_word_field([0, 1], 13, 2, [None]),
}


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_integer_route_leaves_other_fields_on_floats(name):
    f = FLOAT_FIELDS[name]
    assert (f.bit_plan is not None) == (name in ("two_pow_26", "bernoulli_half"))
    assert F.value_dtype(f, F.induced_neighborhoods(f)) == np.float64
    if f.bit_plan is None:
        with pytest.raises(ValueError, match="integer rows"):
            F.draw_source_rows(f, 1, [0], dtype=np.int8)


def test_packed_route_plan_is_frozen_at_build():
    f = F.build_m_dependent(30, 2, F.rademacher())
    runs, base = f.bit_plan
    assert base == -int(f.counts.sum()) and f.mean_sum == 0.0
    for _, cuts, slope in runs:
        assert not cuts.flags.writeable and not slope.flags.writeable
    g = F.build_m_dependent(30, 2, fair(0.0, 2.0))
    assert g.mean_sum == float(np.sum(g.means)) == 90.0


@pytest.mark.parametrize("build", [
    lambda: F.build_iid_field(5, F.three_point()),
    lambda: F.build_m_dependent(6, 2, F.rademacher()),
    lambda: F.build_graph_dependency(5, [(0, 1), (1, 2), (0, 4)], F.rademacher()),
    lambda: F.build_ustat_field([4, 3], 2, lambda x, y: x * y, F.three_point()),
    lambda: F.build_constrained_ustat_field(6, 1, lambda x, y: x * y, (None,), F.rademacher()),
    lambda: F.build_word_field([0, 1], 5, 2, [None]),
    lambda: F.build_pattern_field(6, [1, 3, 2], [None, None]),
    lambda: F.build_decorated_graph_field(4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5)),
], ids=["iid", "m_dependent", "graph", "ustat", "constrained", "word", "pattern", "decorated"])
def test_frozen_source_counts_are_the_incidence_column_sums(build):
    f = build()
    c = f.incidence.toarray().sum(axis=0)
    assert f.counts.shape == (f.n_sources,) and np.array_equal(f.counts, c)
    assert np.array_equal(f.count_starts, np.flatnonzero(np.r_[True, np.diff(c) != 0]))
    for a in (f.counts, f.count_starts):
        with pytest.raises(ValueError):
            a[0] = 7


def test_sums_do_not_depend_on_the_row_layout():
    # normal sources and 11 runs of c (1..5, 6, 5..1): S of each row is the
    # same from index-major rows, source-major rows and one row at a time
    f = F.build_m_dependent(40, 5, F.ContinuousSource("normal"))
    rows = F.draw_source_rows(f, 3, range(64))
    c = f.counts
    assert np.count_nonzero(np.diff(c)) + 1 == 11
    S = F.sum_values(f, rows)
    assert np.array_equal(F.sum_values(f, np.asfortranarray(rows)), S)
    assert np.array_equal(np.concatenate([F.sum_values(f, r) for r in rows]), S)


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


# (word, n, alphabet, gaps): dyadic means for 2 and 4 letters, not for 3 and 5
WORD_FIELDS = {
    "ab_inf": ([0, 1], 24, 2, [None]),
    "aba_mixed": ([0, 1, 0], 14, 2, [None, 3]),
    "dcb_four": ([3, 2, 1], 12, 4, [2, None]),
    "ac_three": ([0, 2], 20, 3, [None]),
    "abca_five": ([0, 1, 2, 0], 12, 5, [None, 2, None]),
    "one_letter": ([1], 9, 3, []),
}


@pytest.mark.parametrize("name", WORD_FIELDS)
def test_word_sums_are_counted_with_no_value_matrix(name, monkeypatch):
    word, n, k, gaps = WORD_FIELDS[name]
    f = F.build_word_field(word, n, k, gaps)
    rows = F.draw_source_rows(f, 8, range(4096))
    want = F.evaluate_values(f, rows).sum(axis=1)
    assert np.array_equal(f.metadata["batch_sum"](rows),
                          F.count_word_occurrences(rows, word, gaps))

    def no_value_matrix(*args):
        raise AssertionError("a word field's S needs no per-tuple values")

    monkeypatch.setattr(F, "evaluate_values", no_value_matrix)
    for reps in (4096, 16, 1):
        S = F.draw_sums(f, 8, range(reps))
        assert np.array_equal(F.sum_values(f, rows[:reps]), S)
        if k in (2, 4):  # dyadic means: both sums are exact
            assert np.array_equal(S, want[:reps])
        else:
            assert np.abs(S - want[:reps]).max() <= 1e-9 * f.n


@pytest.mark.parametrize("build", [
    lambda: F.build_word_field([0, 1, 0], 7, 2, [None, 2]),
    lambda: F.build_pattern_field(6, [1, 3, 2], [None, None]),
], ids=["word", "pattern"])
def test_word_and_pattern_fields_are_built_once(build, monkeypatch):
    calls, post_init = [], F.LatentSourceField.__post_init__
    monkeypatch.setattr(F.LatentSourceField, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    f = build()
    assert calls == [f]
    assert f.metadata["family"] in ("word", "pattern") and "tuples" in f.metadata


def test_chunked_triangle_sums_equal_the_whole_batch_formula():
    # a non-0/1 edge law makes the products inexact; 700 replications at
    # n = 23 span six stacks of adjacency matrices
    n, reps = 23, 700
    f = F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.three_point(1.3, 0.2))
    assert reps // (F.ADJ_CELLS // (n * n)) >= 5
    rows = F.draw_source_rows(f, 5, np.arange(reps))
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((reps, n, n))
    adj[:, iu, ju] = rows
    adj[:, ju, iu] = rows
    want = np.einsum("rij,rij->r", adj @ adj, adj)
    assert np.array_equal(f.metadata["batch_sum"](rows), want)
    assert np.array_equal(F.sum_values(f, rows), want - f.mean_sum)
    # gathering every injection agrees up to summation order
    np.testing.assert_allclose(F.evaluate_values(f, rows).sum(axis=1), want - f.mean_sum,
                               rtol=1e-12, atol=1e-9)


def _argsort_first_slots(S):
    """The coincidence pattern from one stable argsort of every row."""
    order = np.argsort(S, axis=1, kind="stable")
    ordered = np.take_along_axis(S, order, axis=1)
    starts = np.zeros(S.shape, dtype=np.int64)
    starts[:, 1:] = np.where(ordered[:, 1:] != ordered[:, :-1], np.arange(1, S.shape[1]), 0)
    first = np.take_along_axis(order, np.maximum.accumulate(starts, axis=1), axis=1)
    F_ = np.empty_like(S)
    np.put_along_axis(F_, order, first, axis=1)
    return F_


def test_first_slots_match_the_argsort_pattern():
    star = F.build_graph_dependency(9, [(0, v) for v in range(1, 9)], F.rademacher())
    assert star.supports.shape == (9, 9)  # K = n; every leaf row repeats its pads
    rng = np.random.default_rng(3)
    distinct = np.array([rng.permutation(np.arange(-1, 40))[:6] for _ in range(100)])
    repeats = rng.integers(-1, 4, size=(100, 6))
    mixed = np.concatenate([distinct, repeats])[rng.permutation(200)]
    has_repeat = np.array([len(set(r)) < len(r) for r in mixed.tolist()])
    assert has_repeat.any() and not has_repeat.all() and (distinct == -1).any()
    for S in (star.supports, mixed, mixed[:0], np.arange(5)[:, None]):
        got = F._first_slots(S)
        assert got.dtype == np.int64 and np.array_equal(got, _argsort_first_slots(S))
