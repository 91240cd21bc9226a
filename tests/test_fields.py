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
      tuples, decorated injections' edge ids as supports); word and pattern
      fields are constructed once
    - a built field is immutable, and sampling leaves it unchanged; its
      frozen source counts are the incidence column sums
    - sum fields (iid, m-dependent, graph) take the linear route: their
      values, sums and exact means agree with the gather route and with
      local enumeration, and their closed-form Var(S) with the full walk;
      other fields that read continuous sources need given means
    - the product grid equals the div/mod grid bit for bit on any block
    - a walk enumerates only the sources some index reads: a field with
      unread sources keeps the outcomes, law of X and Var(S) of the field
      built without them, and its outcome count (which the caps read)
      leaves them out
    - fair two-point fields keep their draws packed: source-major rows and
      S counted from the packed bits equal the float route bit for bit at
      any block size, on unaligned, unsorted and repeated replications;
      every other law (and integer sums that could reach 2^53) draws rows,
      and S from rows does not depend on their layout or batch
    - a word field's S is its occurrence count less the summed means, with
      no per-tuple value matrix: equal to the summed values bit for bit
      for dyadic means, and within 1e-9 |I| otherwise; a U-statistic
      field's S comes from its blocks' power sums for every CLI kernel,
      with no per-index value matrix, within rtol 1e-12 of the summed
      values
    - a discrete law drawn a byte each through its code table equals a
      scalar binary search of each byte, and of the float after a byte
      that straddles a threshold, bit for bit; the triangle's chunked
      6 sum (U U) o U over the upper triangle U equals the whole-batch
      formula, and on 0/1 edges (float32) the symmetric float64
      trace(A^3) bit for bit; past C(n, 3) = 2^24 a 0/1 sum is still
      exact (float64); the first-slot pattern equals the argsort one
    - index groups follow np.unique of the signature rows: -0.0 and 0.0
      are one value, and so are all NaNs, ordered last
    - the distributed U-statistic builder refuses a continuous source with
      ValueError, as other refused builder arguments are refused
    - one byte cap, ``ENUM_BYTES_CAP``, read at call time, bounds both a
      row's gathered local grid and a walk's kept outcome matrix
    - the array builders equal plain Python references: admissible tuples
      a filter over combinations, decorated supports a permutations
      loop, U-statistic supports the colex-sorted combinations, and a
      field's groups, incidence and counts a per-row loop on supports
      with pads and repeated ids; a constrained field past the index cap
      is refused before any tuple is built
    - a param of several columns groups the indices as the unique rows
      of ``np.unique(axis=0)``, with -0.0 and 0.0 one value
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import locdep.cli as cli
import locdep.fields as F
import locdep.harness as H
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as oracle
import locdep.statistics as st
from locdep.errors import (
    BlockTooSmall,
    EmptyIndexSet,
    EnumerationCapExceeded,
    GraphTooLarge,
    InvalidSize,
)
from locdep.rng import STREAM_SAMPLE, substream
from test_statistics import classical_u, distributed_u


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
    f = F.build_iid_field(8, F.rademacher())
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
        u = classical_u(data, kernel, 2)
        assert x[r].sum() == pytest.approx(u - f.metadata["theta"], abs=1e-12)
    # two blocks: field sum equals the blockwise weighted average
    f2 = F.build_ustat_field([4, 3], 2, kernel, F.three_point())
    rows2 = F.draw_source_rows(f2, 22, range(4))
    x2 = F.evaluate_values(f2, rows2)
    for r in range(4):
        blocks = [rows2[r][:4], rows2[r][4:]]
        u_d = distributed_u(blocks, kernel, 2)
        assert x2[r].sum() == pytest.approx(u_d - f2.metadata["theta"], abs=1e-12)


def test_ustat_field_block_too_small():
    with pytest.raises(BlockTooSmall):
        F.build_ustat_field([1, 4], 2, lambda x, y: x * y, F.rademacher())


def test_ustat_field_refuses_a_continuous_source():
    with pytest.raises(ValueError, match="must be discrete"):
        F.build_ustat_field([4], 2, lambda x, y: x * y, F.ContinuousSource("uniform"))


def test_every_cli_kernel_has_a_block_sum():
    assert cli.KERNELS and all(callable(k.block_sum) for k in cli.KERNELS.values())


# (kernel, m): diff_sq_half is a kernel of degree 2 only
KERNEL_DEGREES = [(name, m) for name in cli.KERNELS
                  for m in ((2,) if name == "diff_sq_half" else (1, 2, 3))]


@pytest.mark.parametrize("name,m", KERNEL_DEGREES, ids=[f"{k}_m{m}" for k, m in KERNEL_DEGREES])
def test_ustat_sums_from_block_power_sums_build_no_value_matrix(name, m, monkeypatch):
    # N points in k blocks as the CLI splits them (equal and unequal
    # blocks), on sources with theta = 0 and theta != 0
    kernel, cases = cli.KERNELS[name], []
    for N, k in itertools.product((10, 14, 24), (1, 2, 3)):
        sizes = [N // k + (i < N % k) for i in range(k)]
        for src in (F.three_point(), F.bernoulli(0.3), F.uniform_letters(3)):
            f = F.build_ustat_field(sizes, m, kernel.h, src, kernel.block_sum)
            rows = F.draw_source_rows(f, 9, range(300))
            X = F.evaluate_values(f, rows)
            cases.append((f, rows, X.sum(axis=1), np.abs(X).sum(axis=1).max()))
    thetas = {f.metadata["theta"] for f, *_ in cases}
    assert thetas - {0.0} and (0.0 in thetas or name == "diff_sq_half")  # its theta is Var > 0

    def no_value_matrix(*args):
        raise AssertionError("a U-statistic field's S needs no per-index values")

    monkeypatch.setattr(F, "evaluate_values", no_value_matrix)
    for f, rows, want, scale in cases:
        S = F.sum_values(f, rows)
        np.testing.assert_allclose(S, want, rtol=1e-12, atol=1e-12 * scale)
        assert np.array_equal(F.draw_sums(f, 9, range(300)), S)


def test_one_byte_cap_bounds_local_grids_and_kept_walks(monkeypatch):
    # each index reads 2 of the 5 sources: a local grid of 4 outcomes x 2
    # values takes 64 bytes, the kept walk 32 outcomes x 4 values 1024
    f = F.build_m_dependent(4, 1, F.rademacher())
    monkeypatch.setattr(F, "ENUM_BYTES_CAP", 64)
    assert M.exact_local_moments(f)[0].shape == (4, 3)
    with pytest.raises(EnumerationCapExceeded, match="need 1024 bytes, over the cap of 64"):
        oracle.walk_outcomes(f, keep=True)
    monkeypatch.setattr(F, "ENUM_BYTES_CAP", 63)
    with pytest.raises(EnumerationCapExceeded,
                       match="index 0: 4 outcomes x 2 values need 64 bytes"):
        M.exact_local_moments(f)


def test_constrained_gap_orders():
    assert F.gap_order((None, None)) == 3
    assert F.gap_order((1, 2)) == 1
    assert F.gap_order((2, None)) == 2


def test_word_field_tuple_set():
    f = F.build_word_field([0, 1], 4, 2, [None])
    assert len(f.supports) == math.comb(4, 2)
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
    tuples = f.supports  # m = 0: a support is its tuple
    for i, ti in enumerate(tuples):
        expect = {j for j, tj in enumerate(tuples) if set(ti) & set(tj)}
        assert set(sys.M.row(i)) == expect


def test_constrained_m_dependent_neighborhoods():
    # m = 1: overlap or gap <= 1
    f = F.build_constrained_ustat_field(
        6, 1, lambda x, y: x * y, (None,), F.rademacher()
    )
    sys = F.induced_neighborhoods(f)
    tuples = f.supports[:, ::2]  # each window of width m + 1 = 2 starts at its tuple entry
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
        assert tuples.shape == (math.comb(n, l), l) and tuples.dtype == np.int64
        assert (np.diff(tuples, axis=1) > 0).all()


GAP_CASES = [(), (None,), (1,), (2,), (None, 1), (2, None), (1, 3), (None, None), (3, 2, None),
             (0,), (-1,), (None, -2)]


@pytest.mark.parametrize("gaps", GAP_CASES, ids=str)
def test_admissible_tuples_match_filtered_combinations(gaps):
    """Every gap kind, bounded and exact, at n = 0..12, against a filter
    over itertools.combinations; the count without building agrees, and
    stops at its limit + 1.  A gap below 1, bounded or exact, admits no
    tuple."""
    l = len(gaps) + 1
    for n in range(13):
        for exact in (False, True):
            want = [t for t in itertools.combinations(range(n), l)
                    if all(d is None or (t[j + 1] - t[j] == d if exact else t[j + 1] - t[j] <= d)
                           for j, d in enumerate(gaps))]
            got = F.admissible_tuples(n, gaps, exact_gaps=exact)
            assert got.shape == (len(want), l) and got.dtype == np.int64
            assert got.tolist() == [list(t) for t in want]
            if not exact:
                for limit in (0, 3, len(want), 10**6):
                    assert F._count_admissible(n, gaps, limit) == min(len(want), limit + 1)


@pytest.mark.parametrize("pattern", [[(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)],
                                     [(0, 1), (1, 2), (2, 3), (0, 3)]],
                         ids=["triangle", "path", "4-cycle"])
def test_decorated_supports_match_a_permutations_loop(pattern):
    v = max(max(e) for e in pattern) + 1
    for n in range(v, 8):
        edge_id = {e: k for k, e in enumerate(itertools.combinations(range(n), 2))}
        want = [[edge_id[tuple(sorted((phi[a], phi[b])))] for a, b in pattern]
                for phi in itertools.permutations(range(n), v)]
        f = F.build_decorated_graph_field(n, pattern, F.bernoulli(0.5))
        assert f.supports.tolist() == want


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_groups_incidence_and_counts_match_a_per_row_loop(K):
    """Random supports with pads and repeated ids, two laws and a param:
    each index's group, incidence row and the counts from plain Python."""
    rng = np.random.default_rng(K)
    laws = (F.rademacher(), F.three_point())
    for trial in range(8):
        n, n_sources = int(rng.integers(1, 40)), int(rng.integers(1, 7))
        S = rng.integers(-1, n_sources, size=(n, K))
        if trial % 4 < 2:  # rows with no pad and no repeat, as builders make
            n_sources = max(n_sources, K)
            S = np.array([rng.permutation(n_sources)[:K] for _ in range(n)])
        law_of = rng.integers(0, 2 if trial % 2 else 1, size=n_sources)
        sources = tuple(laws[k] for k in law_of)
        w = rng.integers(0, 3, size=n) * 0.5
        means = rng.integers(0, 2, size=n) * 0.25 if trial % 3 == 0 else None
        f = F.LatentSourceField(sources, S, lambda G, w: w * G.sum(axis=-1), (w,), means)
        # per row: first slot of each id, law per slot (pads last), param, given mean
        law_ids = {src: k for k, src in enumerate(dict.fromkeys(sources))}
        keys = []
        for i, row in enumerate(S.tolist()):
            pattern = tuple(row.index(s) for s in row)
            slot_laws = tuple(len(law_ids) if s < 0 else law_ids[sources[s]] for s in row)
            keys.append((pattern, slot_laws, w[i]) + (() if means is None else (means[i],)))
        order = sorted(set(keys))
        assert f.groups[0].tolist() == [keys.index(k) for k in order]
        assert f.groups[1].tolist() == [order.index(k) for k in keys]
        indptr, indices, data = [0], [], []
        for row in S.tolist():
            ids = sorted(set(s for s in row if s >= 0))
            indices += ids
            data += [float(row.count(s)) for s in ids]
            indptr.append(len(indices))
        inc = f.incidence
        assert inc.indptr.tolist() == indptr and inc.indices.tolist() == indices
        assert inc.data.tolist() == data
        counts = [float((S == s).sum()) for s in range(n_sources)]
        assert f.counts.tolist() == counts
        assert f.count_starts.tolist() == [s for s in range(n_sources)
                                           if s == 0 or counts[s] != counts[s - 1]]


def test_a_param_of_several_columns_groups_as_its_unique_rows():
    """A float param of three columns groups the indices as
    ``np.unique(axis=0)`` of its rows does, by partition and by group
    order: repeated rows, rows that differ in one column only, and -0.0
    beside 0.0 (one value), in shuffled orders, alone and followed by a
    one-column param."""
    rows = np.array([[0.5, 1.0, -1.0], [0.5, 1.0, -1.0], [0.5, 1.0, 1.0], [0.5, 2.0, -1.0],
                     [1.5, 1.0, -1.0], [-0.0, 1.0, 0.0], [0.0, 1.0, -0.0], [0.0, -0.0, 0.0],
                     [-0.0, 0.0, 0.0], [-1.0, 3.0, 2.0], [0.5, 1.0, 1.0], [2.0, -1.0, 0.5]])
    n = len(rows)
    rng = np.random.default_rng(5)
    for trial in range(6):
        w = rows[rng.permutation(n)]
        q = rng.integers(0, 2, size=n) * 0.5
        params = (w,) if trial % 2 else (w, q)
        f = F.LatentSourceField((F.rademacher(),) * n, np.arange(n)[:, None],
                                lambda G, w, q=0.0: w[:, 0] * G[..., 0] + q, params,
                                np.zeros(n))
        keys = w if trial % 2 else np.column_stack([w, q])
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        assert f.groups[0].tolist() == first.tolist()
        assert f.groups[1].tolist() == inverse.reshape(-1).tolist()
    assert len(np.unique(rows, axis=0)) == 8  # -0.0 and 0.0 are one value


def test_nan_and_signed_zero_params_group_as_np_unique_does():
    """A param holding NaNs (of two bit patterns), -0.0 and 0.0 groups the
    indices as ``np.unique`` does: every NaN one value, ordered last, and
    -0.0 beside 0.0 one value, alone and with a second param."""
    nan2 = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0]
    vals = np.array([np.nan, 1.0, -0.0, nan2, 0.0, -2.0, 1.0, np.nan, 0.0])
    rng = np.random.default_rng(3)
    for trial in range(4):
        w = vals[rng.permutation(vals.size)]
        q = rng.integers(0, 2, size=vals.size) * 0.5
        params = (w, q) if trial % 2 else (w,)
        f = F.LatentSourceField((F.rademacher(),) * vals.size, np.arange(vals.size)[:, None],
                                lambda G, w, q=0.0: w * G[..., 0] + q, params, np.zeros(vals.size))
        ranks = [np.unique(p, return_inverse=True)[1] for p in params]
        key = ranks[0] * 2 + ranks[1] if trial % 2 else ranks[0]
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        assert f.groups[0].tolist() == first.tolist()
        assert f.groups[1].tolist() == inverse.tolist()
    assert np.unique(vals).size == 4  # -2, 0, 1 and one NaN


@pytest.mark.parametrize("blocks,m", [([5], 1), ([6], 2), ([6, 3], 2), ([4, 4, 7], 3), ([3], 3)])
def test_ustat_supports_match_sorted_combinations(blocks, m):
    want, offset = [], 0
    for b in blocks:
        want += [[offset + x for x in t]
                 for t in sorted(itertools.combinations(range(b), m), key=lambda t: t[::-1])]
        offset += b
    f = F.build_ustat_field(blocks, m, lambda *xs: sum(xs), F.three_point())
    assert f.supports.tolist() == want


def test_constrained_ustat_past_the_index_cap_is_refused_before_building(monkeypatch):
    """4.2e14 tuples of the word "abcd" at n = 10,000 are counted, not built;
    so are the none that a bounded gap below 1 admits."""
    monkeypatch.setattr(F, "admissible_tuples", None)  # any call would fail
    for build in (lambda: F.build_word_field([0, 1, 2, 3], 10_000, 4, [None] * 3),
                  lambda: F.build_pattern_field(10_000, [1, 2, 3, 4], [None] * 3)):
        with pytest.raises(EnumerationCapExceeded,
                           match=f"more tuples than the index cap of {F.DEFAULT_INDEX_CAP}"):
            build()
    for gaps in ([0], [-1], [None, -3]):
        with pytest.raises(EmptyIndexSet):
            F.build_constrained_ustat_field(12, 1, lambda *xs: sum(xs), gaps, F.rademacher())


def test_pattern_field_mean_is_inverse_factorial():
    f = F.build_pattern_field(6, [2, 1], [None])
    assert np.allclose(f.means, 0.5)
    f3 = F.build_pattern_field(6, [1, 3, 2], [None, None])
    assert np.allclose(f3.means, 1.0 / 6.0)
    with pytest.raises(ValueError, match="gap entries"):  # one gap per step of the pattern
        F.build_pattern_field(6, [1, 3, 2], [None])


def test_decorated_field_structure_and_means(monkeypatch):
    f = F.build_decorated_graph_field(4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(1.0))
    # all edges present: every injection contributes 1 (uncentered)
    rows = F.draw_source_rows(f, 1, range(1))
    uncentered = F.evaluate_values(f, rows) + f.means
    assert uncentered.sum() == pytest.approx(24.0)
    f5 = F.build_decorated_graph_field(4, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))
    assert float(np.sum(f5.means)) == pytest.approx(3.0)  # 4*3*2 * (1/2)^3
    monkeypatch.setattr(F, "DEFAULT_INDEX_CAP", 1000)
    with pytest.raises(GraphTooLarge):
        F.build_decorated_graph_field(50, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))


def test_decorated_induced_neighbors_share_an_edge():
    f = F.build_decorated_graph_field(4, [(0, 1), (1, 2)], F.bernoulli(0.5))
    sys = F.induced_neighborhoods(f)
    eid = f.supports  # each injection's edge ids
    for i in range(len(eid)):
        expect = {j for j in range(len(eid)) if set(eid[i]) & set(eid[j])}
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
        assert oracle.check_ld_independence(sys, oracle.walk_outcomes(f, keep=True)) == []


def test_shrunk_neighborhood_fails_independence():
    f = F.build_m_dependent(3, 1, F.rademacher())
    bad = nb.make_system([(0,), (0, 1, 2), (1, 2)])
    violations = oracle.check_ld_independence(bad, oracle.walk_outcomes(f, keep=True))
    assert any("LD1" in v for v in violations)


def test_outcome_blocks_probabilities_sum_to_one():
    f = F.build_m_dependent(4, 1, F.three_point())
    total = sum(float(p.sum()) for p, _ in F.outcome_blocks(f))
    assert total == pytest.approx(1.0, abs=1e-12)


# three indices over three read sources: X_i = sum_k w_ik G_ik + q_i prod_k G_ik
READ_SOURCES = (F.rademacher(), F.three_point(2.0, 1 / 3), F.rademacher())
READ_SUPPORTS = np.array([[0, 1, -1], [1, 2, -1], [0, 2, 1]])
READ_PARAMS = (np.array([[1.0, -0.5, 0.0], [0.75, 1.25, 0.0], [-1.0, 0.5, 1.5]]),
               np.array([0.5, 0.0, 0.5]))


def weighted_field(slots, width):
    """The three-index field over READ_SOURCES placed at ``slots`` among
    ``width`` sources; the others are read by no index."""
    fillers = (F.three_point(), F.bernoulli(0.3), F.uniform_letters(3))
    sources = [fillers[s % 3] for s in range(width)]
    for s, src in zip(slots, READ_SOURCES):
        sources[s] = src
    supports = np.where(READ_SUPPORTS >= 0, np.asarray(slots)[READ_SUPPORTS], -1)
    return F.LatentSourceField(tuple(sources), supports, oracle._weighted_sum, READ_PARAMS)


@pytest.mark.parametrize("slots,width", [((1, 2, 3), 4), ((0, 2, 3), 5), ((0, 1, 2), 6),
                                         ((2, 4, 6), 8)])
def test_walk_enumerates_only_the_read_sources(slots, width):
    """Unread sources are pinned to their first value: the walk keeps the
    12 outcomes of the read sources, in the same order and with the same
    probabilities as the field built without them, so X, its law and
    Var(S) do not change."""
    wide, narrow = weighted_field(slots, width), weighted_field((0, 1, 2), 3)
    assert wide.outcome_count() == narrow.outcome_count() == 2 * 3 * 2
    a, b = (oracle.walk_outcomes(f, var=True, keep=True) for f in (wide, narrow))
    assert a.X.shape == (12, 3) and np.array_equal(a.X, b.X)
    assert np.array_equal(a.probs, b.probs) and a.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert a.sigma2 == b.sigma2
    # the merged laws of S and of each X_i
    laws = [[oracle.exact_law(oracle.walk_outcomes(f, "sum"))] for f in (wide, narrow)]
    for law, w in zip(laws, (a, b)):
        law += [oracle.merge_atoms(w.X[:, i], w.probs) for i in range(3)]
    for (u, p), (v, q) in zip(*laws):
        assert np.array_equal(u, v) and np.array_equal(p, q)
    # every row reads each unread source at its first value
    rows = np.concatenate([r for _, r in F.outcome_blocks(wide)])
    for s in set(range(width)) - set(slots):
        assert np.all(rows[:, s] == wide.sources[s].values[0])


def test_unread_sources_do_not_count_against_the_cap():
    """2 read and 30 unread Rademacher sources: 4 outcomes, not 2^32 over
    the default cap."""
    f = F.LatentSourceField((F.rademacher(),) * 32, [[0, 31], [31, -1]], oracle._weighted_sum,
                            (np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.0])))
    assert f.outcome_count() == 4 < 2**32
    walk = oracle.walk_outcomes(f, var=True, keep=True)
    assert walk.X.shape == (4, 2)
    # X_0 = a + b + ab / 2, X_1 = b over fair signs: Var(S) = Var(a + 2b + ab / 2)
    assert walk.sigma2 == pytest.approx(1 + 4 + 0.25, rel=1e-15)


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


def test_product_grid_matches_the_divmod_grid(monkeypatch):
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
    monkeypatch.setattr(F, "ENUM_BLOCK", 50)
    blocks = list(F.outcome_blocks(f))
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
    # an edge's id is its rank among the host's pairs in lexicographic order
    rank = {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}
    ids = [[rank[tuple(sorted((phi[a], phi[b])))] for a, b in edges] for phi in expect]
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
        walk = oracle.walk_outcomes(f, "sum")
        (s,), probs = walk.parts, walk.law_probs
        enumerated = float(probs @ s**2) - float(probs @ s) ** 2
        monkeypatch.setattr(oracle, "outcome_blocks", None)
        table = M.exact_moment_table(f, oracle.walk_outcomes(f, var=True).sigma2)
        assert table.mode == "exact"
        assert table.sigma2 == pytest.approx(enumerated, rel=1e-12, abs=0.0)


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
# the draw laws, letters whose thresholds straddle bytes 85 and 170, and a
# law whose whole mass rides the straddling byte 255
BYTE_LAWS = {**DRAW_LAWS, "letters_3": F.uniform_letters(3), "bernoulli_1e-3": F.bernoulli(1e-3)}


def test_sampler_laws():
    # every discrete law, drawn a byte each through its code table, draws
    # its exact law: each atom within 5 standard errors, and an atom of
    # probability 0 never
    rng = substream(2024, 7)
    size = 2**20
    for source in (F.rademacher(), F.uniform_letters(5), F.bernoulli(0.55), F.three_point(),
                   *BYTE_LAWS.values()):
        x = F._draw(source, rng, (size,), np.empty(size))
        for value, p in zip(source.values, source.probs):
            freq = np.mean(x == value)
            assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / size), (source, value, freq)
            assert p > 0 or freq == 0
        for shape in ((13,), (3, 5), (0, 4), (7, 9)):
            y = F._draw(source, rng, shape, np.empty(shape))
            assert y.shape == shape
            assert set(np.unique(y)) <= set(source.values)


def _scalar_draws(law, data: bytes, floats) -> list[float]:
    """A draw per byte b of ``data``, one at a time: with the thresholds
    t_j = 256 c_j of the cumulative probs c_j, j < k - 1, the value at
    count(t_j <= b), unless some t_j lies strictly inside (b, b + 1); such
    a byte takes the next of ``floats``, v, and the value at
    count(t_j - b <= v)."""
    cuts = [256 * c for c in itertools.accumulate(law.probs)][:-1]
    floats = iter(floats)
    out = []
    for b in data:
        if any(b < t < b + 1 for t in cuts):
            out.append(law.values[bisect.bisect_right([t - b for t in cuts], next(floats))])
        else:
            out.append(law.values[bisect.bisect_right(cuts, b)])
    return out


class _GivenBytes:
    """A generator whose raw stream bytes and uniform draws are given."""

    def __init__(self, data: bytes, u):
        self.data, self.u = data + bytes(-len(data) % 8), iter(u)
        self.bit_generator = self

    def random_raw(self, size):
        words, self.data = self.data[:8 * size], self.data[8 * size:]
        return np.frombuffer(words, dtype="<u8")

    def random(self, size):
        return np.array([next(self.u) for _ in range(size)], dtype=float)


def _straddles(law) -> list[tuple[int, float]]:
    """(b, t - b) for each threshold t = 256 c_j, j < k - 1, strictly
    inside a byte's (b, b + 1)."""
    cuts = [256 * c for c in itertools.accumulate(law.probs)][:-1]
    return [(int(t), t - int(t)) for t in cuts if t < 256 and t != int(t)]


@pytest.mark.parametrize("law", BYTE_LAWS.values(), ids=BYTE_LAWS.keys())
def test_threshold_draws_match_the_binary_search(law):
    # the code table and its straddling bytes equal a scalar binary search
    # of each byte, and of the float after a straddling byte, bit for bit:
    # on the stream for any shape, and on every byte and every straddling
    # byte with v on, just below and just above its threshold
    straddles = dict(_straddles(law))
    for size in ((1,), (5000,), (37, 11), (0, 3)):
        got = F._draw(law, np.random.default_rng(99), size, np.empty(size))
        rng = np.random.default_rng(99)
        data = rng.bit_generator.random_raw(-(-got.size // 8)).astype("<u8").tobytes()[:got.size]
        want = _scalar_draws(law, data, rng.random(sum(b in straddles for b in data)))
        assert got.dtype == float and np.array_equal(got.reshape(-1), want)
    forced = [(b, v) for b, t in _straddles(law) for v in (t, np.nextafter(t, 0), np.nextafter(t, 1))]
    assert forced or law is DRAW_LAWS["zero_atoms"]
    data = bytes(range(256)) + bytes(b for b, _ in forced)
    u = [0.5] * len(straddles) + [v for _, v in forced]
    got = F._draw(law, _GivenBytes(data, u), (len(data),), np.empty(len(data)))
    assert np.array_equal(got, _scalar_draws(law, data, u))
    if law is BYTE_LAWS["bernoulli_1e-3"]:  # every 1 comes from byte 255
        assert got[:255].max() == 0.0 and sorted(got[256:]) == [0.0, 1.0, 1.0]
    # rows of a block written alone are those rows of the whole block
    block = F._draw(law, np.random.default_rng(7), (400, 11), np.empty((400, 11)))
    for first, k in ((0, 400), (0, 1), (390, 10), (123, 45)):
        part = F._draw(law, np.random.default_rng(7), (400, 11), np.empty((k, 11)), first)
        assert np.array_equal(part, block[first:first + k])


def test_many_atom_laws_draw_in_memory_linear_in_the_block():
    # a 1000-letter law has a threshold inside every byte, so each byte
    # takes a float; a 128-source field's 2^19-cell block is drawn with
    # temporaries of a few cells' worth each (not one per threshold), and
    # its first rows equal the scalar binary search on the block's stream
    law = F.uniform_letters(1000)
    f = F.build_iid_field(128, law)
    B = f.block_rows
    assert B == 4096 and not f.bit_draws
    tracemalloc.start()
    try:
        got = F.draw_source_rows(f, 5, range(B))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * got.nbytes
    rng = substream(5, STREAM_SAMPLE, 0)
    data = rng.bit_generator.random_raw(B * 128 // 8).astype("<u8").tobytes()
    straddles = {b for b, _ in _straddles(law)}
    assert len(straddles) == 256
    head = data[:16 * 128]
    want = _scalar_draws(law, head, rng.random(len(data))[:len(head)])
    assert np.array_equal(got[:16].reshape(-1), want)
    assert np.array_equal(F.draw_source_rows(f, 5, range(100, 116)), got[100:116])
    assert np.array_equal(F.draw_source_rows(f, 5, [B - 1, 7, 7]), got[[B - 1, 7, 7]])


@pytest.mark.parametrize("n_sources", [8, 300, 40_000])
def test_block_rows_are_a_function_of_the_replication(n_sources, monkeypatch):
    # fair bits give B = 4096, 4096 and 64, and in blocks of 2^16 bits
    # B = 4096, 128 and 1: a range that starts inside a block and crosses
    # block edges reads the same rows as a range from 0
    for bits, sizes in ((2**22, {8: 4096, 300: 4096, 40_000: 64}), (2**16, {8: 4096, 300: 128, 40_000: 1})):
        monkeypatch.setattr("locdep.rng.BLOCK_BITS", bits)
        f = F.build_iid_field(n_sources, F.rademacher())
        B = f.block_rows
        assert B == sizes[n_sources]
        a, b = B + B // 2 + 1, 3 * B + 2
        full = F.draw_source_rows(f, 17, range(0, b + B))
        assert np.array_equal(F.draw_source_rows(f, 17, range(a, b)), full[a:b])
        picks = [b - 1, a, 0, a]
        assert np.array_equal(F.draw_source_rows(f, 17, picks), full[picks])
        other = F.draw_source_rows(f, 17, range(0, b + B), path=(1,))
        assert not np.array_equal(other, full)
        assert not np.array_equal(other, F.draw_source_rows(f, 17, range(0, b + B), path=(2,)))


@pytest.mark.parametrize("law", [F.three_point(), F.bernoulli(0.3), F.ContinuousSource("normal"),
                                 F.ContinuousSource("uniform")],
                         ids=["three_point", "bernoulli_03", "normal", "uniform"])
@pytest.mark.parametrize("n_sources", [8, 300, 40_000])
def test_float_draws_keep_their_block_rows(n_sources, law):
    # a discrete draw other than a fair bit takes a byte of stream, so its
    # blocks hold 2^19 cells, B = 4096, 1024 and 8; a continuous draw takes
    # 64 bits and keeps 2^16-cell blocks, B = 4096, 128 and 1, and its rows
    # bit for bit.  Rows of in-order ranges (drawn in place) and of
    # unsorted and repeated lists (taken from a buffer) equal the blocks
    # drawn run by run
    f = F.build_iid_field(n_sources, law)
    if isinstance(law, F.ContinuousSource):
        sizes = {8: 4096, 300: 128, 40_000: 1}
    else:
        sizes = {8: 4096, 300: 1024, 40_000: 8}
    assert not f.bit_draws and f.block_rows == sizes[n_sources]
    B = f.block_rows
    for reps in (list(range(B // 2 + 1, 2 * B + 3)) + [3 * B + 1, 0, B], range(0, 3 * B + 5)):
        reps = list(reps)
        assert np.array_equal(F.draw_source_rows(f, 23, reps, path=(4,)), float_rows(f, 23, reps, path=(4,)))


def test_runs_of_discrete_laws_draw_into_their_blocks():
    # a field of several runs draws the runs of a block one after the
    # other, through their buffers, for unsorted and repeated rows and
    # for one row
    laws = (F.three_point(),) * 5 + (F.bernoulli(0.3),) * 7 + (F.uniform_letters(3),) * 2
    f = F.LatentSourceField(laws, np.arange(14)[:, None], F._sum_columns)
    assert len(f.runs) == 3 and f.block_rows == 4096
    reps = [4097, 3, 4095, 3, 0]
    want = float_rows(f, 8, reps)
    assert np.array_equal(F.draw_source_rows(f, 8, reps), want)
    assert np.array_equal(F.draw_source_rows(f, 8, [4095]), want[2:3])


def float_rows(f: F.LatentSourceField, seed: int, reps, path=()) -> np.ndarray:
    """Index-major rows drawn run by run, in blocks of the field's
    ``block_rows``: a fair two-point run as bits, a continuous one by
    ``random`` or ``standard_normal``, and any other with ``_draw``."""
    B = f.block_rows
    blocks = {}
    for b in sorted({r // B for r in reps}):
        rng = substream(seed, STREAM_SAMPLE, *path, b)
        parts = []
        for sl, src in f.runs:
            shape = (B, sl.stop - sl.start)
            if F._is_fair_two_point(src):
                parts.append(np.asarray(src.values).take(F._fair_bits(rng, shape)))
            elif isinstance(src, F.ContinuousSource):
                parts.append(rng.random(shape) if src.kind == "uniform" else rng.standard_normal(shape))
            else:
                parts.append(F._draw(src, rng, shape, np.empty(shape)))
        blocks[b] = np.concatenate(parts, axis=1)
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


# B: (sources, BLOCK_BITS).  About 13, 3001 and 40,001 fair sources take
# B = 4096, 1024 and 64 rows, 2^22 / n_sources; in blocks of 2^16 bits
# 3001 and 40,001 take B = 16 and 1, where a block of an odd number of
# sources ends inside a byte.  No star at 40,001, whose 20,000-leaf hub
# pads 20,001 x 20,001 supports
FAIR_ROUTE_BLOCKS = {4096: (13, 2**22), 1024: (3001, 2**22), 64: (40_001, 2**22),
                     16: (3001, 2**16), 1: (40_001, 2**16)}


@pytest.mark.parametrize("family, B", [
    (family, B) for family in FAIR_FIELDS for B in FAIR_ROUTE_BLOCKS
    if not (family == "star" and FAIR_ROUTE_BLOCKS[B][0] == 40_001)
])
def test_fair_two_point_routes_match_the_float_route(family, B, monkeypatch):
    # bits read from the stream give the float route's rows (now
    # source-major) and its S (now from popcounts), bit for bit, on
    # unaligned ranges and on unsorted lists with repeats
    n, bits = FAIR_ROUTE_BLOCKS[B]
    monkeypatch.setattr("locdep.rng.BLOCK_BITS", bits)
    f = FAIR_FIELDS[family](n)
    assert f.bit_draws and f.block_rows == B and f.n_sources % 8
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


# (field, declared system or None for the induced one), each with a packed
# index-sum plan, built in blocks of 2^16 bits (B = 256 for the 201 sources
# of m1_declared, 1024 for 40 to 63 sources), so the ranges of 9 B rows
# below stay small
with pytest.MonkeyPatch.context() as blocks:
    blocks.setattr("locdep.rng.BLOCK_BITS", 2**16)
    INTEGER_FIELDS = {
        "iid2": (F.build_iid_field(2, F.rademacher()), None),  # rejects half the time
        "iid": (F.build_iid_field(40, F.rademacher()), None),
        "m1": (F.build_m_dependent(60, 1, F.rademacher()), None),
        "m3": (F.build_m_dependent(60, 3, F.rademacher()), None),
        "cycle": (cycle(30, F.rademacher()), None),
        "star": (F.build_graph_dependency(30, [(0, j) for j in range(1, 30)], F.rademacher()), None),
        "m1_declared": (F.build_m_dependent(200, 1, F.rademacher()), window_system(200, 40)),
        # |X| <= 4,000, |A_i| <= 7: |X Y| <= 1.12e8
        "m3_wide": (F.build_m_dependent(40, 3, fair(-1000.0, 1000.0)), None),
        # means 3 (values 0 and 2 over 3 sources) are subtracted as integers
        "m2_shifted": (F.build_m_dependent(50, 2, fair(0.0, 2.0)), None),
    }


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_integer_values_give_the_float_routes_w2(name):
    # W2, W2bar and the rejection masks finished from the index sums
    # counted from the packed bits equal those of the float values bit for
    # bit, on an unaligned range and on an unsorted list with repeats
    f, sys = INTEGER_FIELDS[name]
    sys = F.induced_neighborhoods(f) if sys is None else sys
    plan, B = F._index_sum_terms(f, sys), f.block_rows
    for reps in (range(B + 3, 3 * B + 5), [2 * B + 1, 0, B + 1, 2 * B + 1, 5, 0, 3 * B - 1]):
        X = F.evaluate_values(f, F.draw_source_rows(f, 17, reps, path=(2,)))
        sums = F.draw_index_sums(f, plan, 17, reps, path=(2,))
        for statistic in ("w2bar", "w2"):
            parts, rejected = st.parts_from_sums(statistic, f.n, sums)
            want, rejected_f = st.statistic_parts(statistic, X, sys)
            assert np.array_equal(rejected, rejected_f)
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(parts, want))
    if name == "iid2":
        assert rejected.any()  # of W2


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
    # S counts from the bits of fair laws on integers whatever the means
    # and n max|X| max|Y|; W2 of each of these fields reads float rows
    f = FLOAT_FIELDS[name]
    assert (f.bit_plan is not None) == (name in ("two_pow_26", "bernoulli_half"))
    assert F.index_sum_plan(f, F.induced_neighborhoods(f)) is None


@pytest.mark.parametrize("B", ["built", 1])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_packed_index_sums_equal_the_integer_routes(name, B, monkeypatch):
    # S, sum Y and sum X Y counted from the packed bits (no value matrix)
    # equal the float route's index sums bit for bit, on unaligned ranges
    # across block edges and on unsorted lists with repeats, also when
    # every row is a block of its own (which ends inside a byte unless the
    # width is a multiple of 8)
    f, sys = INTEGER_FIELDS[name]
    sys = F.induced_neighborhoods(f) if sys is None else sys
    if B == 1:
        monkeypatch.setattr("locdep.rng.BLOCK_BITS", 1)
        f = dataclasses.replace(f)
        assert f.block_rows == 1
    plan = F._index_sum_terms(f, sys)
    B = f.block_rows
    for reps in (range(B + 3, 9 * B + 5), [2 * B + 1, 0, B + 1, 2 * B + 1, 5, 0, 3 * B - 1]):
        X = F.evaluate_values(f, F.draw_source_rows(f, 17, reps, path=(2,)))
        got = F.draw_index_sums(f, plan, 17, reps, path=(2,))
        assert all(a.dtype == float and np.array_equal(a, b) for a, b in zip(got, st.index_sums(X, sys)))
        assert np.array_equal(got[0], F.draw_sums(f, 17, reps, path=(2,)))


def two_fair_laws(n: int) -> F.LatentSourceField:
    """An m = 1 window field whose first five sources are Rademacher and
    the others fair on (-2, 2): two runs, integer values, means 0."""
    f = F.build_m_dependent(n, 1, F.rademacher())
    laws = tuple(F.rademacher() if s < 5 else fair(-2.0, 2.0) for s in range(f.n_sources))
    return dataclasses.replace(f, sources=laws, means=None)


@pytest.mark.parametrize("name", [*FLOAT_FIELDS, "two_runs"])
def test_other_fields_have_no_packed_index_sums(name):
    # values past the exactness guard, non-integer means, non-integer or
    # non-fair laws, and a field of two source runs, which the packed
    # counts do not cover although its values are integers, have no plan
    f = two_fair_laws(40) if name == "two_runs" else FLOAT_FIELDS[name]
    sys = F.induced_neighborhoods(f)
    assert F._index_sum_terms(f, sys) is None and F.index_sum_plan(f, sys) is None


def test_packed_index_sums_are_taken_where_they_cost_less_than_rows():
    # the W2 grid points of the benchmark's mc_stream workload: m = 1
    # Rademacher windows read lags 1 and 2 in 12 cuts, which costs more
    # than expanding 16 windows into float values (a measured tie, and the
    # benchmark's self-check pins the rows route at n = 16) and less at 64
    # and 4096; normal windows have no plan; the 30-vertex star's 58 lags
    # never pay, though it has a plan
    for n, packed in ((16, False), (64, True), (4096, True)):
        f = F.build_m_dependent(n, 1, F.rademacher())
        sys = F.induced_neighborhoods(f)
        lags = [lag for lag, _, _ in F._index_sum_terms(f, sys)[1][0]]
        assert lags == [0, 1, 2] and (F.index_sum_plan(f, sys) is not None) == packed
    for n in (16, 24, 40):
        f = F.build_m_dependent(n, 1, F.ContinuousSource("normal"))
        assert F.index_sum_plan(f, F.induced_neighborhoods(f)) is None
    star = INTEGER_FIELDS["star"][0]
    assert len(F._index_sum_terms(star, F.induced_neighborhoods(star))[1][0]) == 59
    assert F.index_sum_plan(star, F.induced_neighborhoods(star)) is None


def test_plans_refused_by_their_lags_sum_no_weights(monkeypatch):
    # the fewest cuts of the terms (lag 0 one more than the runs of equal c,
    # two at each lag of a pair) already cost more than the rows of 16 m = 3
    # windows, of the star and of 16 m = 1 windows (150 against 143), so no
    # weight is summed; 64 m = 1 windows still take the plan
    sums, int_sums = [], F._int_sums
    monkeypatch.setattr(F, "_int_sums", lambda *a: sums.append(a) or int_sums(*a))
    star = INTEGER_FIELDS["star"][0]
    for f in (F.build_m_dependent(16, 3, F.rademacher()), star, F.build_m_dependent(16, 1, F.rademacher())):
        sums.clear()
        assert F.index_sum_plan(f, F.induced_neighborhoods(f)) is None and not sums
    f = F.build_m_dependent(64, 1, F.rademacher())
    assert F.index_sum_plan(f, F.induced_neighborhoods(f)) is not None and sums


def test_packed_route_plan_is_frozen_at_build():
    # S's plan: per source run one lag-0 term over the segments of equal
    # c, each set bit weighing c (b - a); a field of two fair laws keeps it
    f = F.build_m_dependent(30, 2, F.rademacher())
    base, runs = f.bit_plan
    assert base.tolist() == [-int(f.counts.sum())] and f.mean_sum == 0.0
    ((lag, cuts, slopes),), = runs
    assert lag == 0 and cuts.tolist() == [0, 1, 2, 30, 31, 32]
    assert slopes.tolist() == [[2], [4], [6], [4], [2]]
    assert not any(a.flags.writeable for a in (base, cuts, slopes))
    assert len(two_fair_laws(40).bit_plan[1]) == 2
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


def test_fields_are_immutable_and_sampling_leaves_them_unchanged(monkeypatch):
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
    monkeypatch.setattr("locdep.rng.DEFAULT_CHUNK", 256)  # eight chunks over two threads
    H.mc_run(f, "w2", 2000, 3, threads=2)
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
    assert f.metadata["family"] in ("word", "pattern") and "b" in f.metadata


def _symmetric_trace(rows: np.ndarray, n: int) -> np.ndarray:
    """trace(A^3) of each row's symmetric float64 adjacency matrix A."""
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((len(rows), n, n))
    adj[:, iu, ju] = rows
    adj[:, ju, iu] = rows
    return np.einsum("rij,rij->r", adj @ adj, adj)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_binary_triangle_sums_equal_the_symmetric_trace_bit_for_bit(p):
    # 0/1 edges take float32 upper triangles; 400 replications span more
    # than one stack of adjacency matrices from n = 13 on
    reps = 400
    assert reps > F.ADJ_CELLS // (13 * 13)
    for n in range(3, 31):
        f = F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.bernoulli(p))
        rows = F.draw_source_rows(f, n, np.arange(reps))
        assert np.array_equal(f.metadata["batch_sum"](rows), _symmetric_trace(rows, n)), n


def test_binary_triangle_sums_stay_exact_past_the_float32_range():
    # at n = 467, C(n, 3) exceeds 2^24 and a float32 sum of the complete
    # graph's triangles loses its last digits; the sum must take float64
    n = 467
    assert math.comb(n, 3) > 2**24 > math.comb(n - 1, 3)
    for m in (n - 1, n):
        complete = np.ones((1, math.comb(m, 2)))
        assert F._triangle_batch_sum(m, True)(complete)[0] == m * (m - 1) * (m - 2)


def test_chunked_triangle_sums_equal_the_whole_batch_formula():
    # a non-0/1 edge law makes the products inexact: S is 6 sum (U U) o U
    # in float64 over the upper triangle U; 700 replications at n = 23
    # span six stacks of adjacency matrices
    n, reps = 23, 700
    f = F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.three_point(1.3, 0.2))
    assert reps // (F.ADJ_CELLS // (n * n)) >= 5
    rows = F.draw_source_rows(f, 5, np.arange(reps))
    iu, ju = np.triu_indices(n, k=1)
    upper = np.zeros((reps, n, n))
    upper[:, iu, ju] = rows
    want = 6 * np.einsum("rij,rij->r", upper @ upper, upper)
    assert np.array_equal(f.metadata["batch_sum"](rows), want)
    assert np.array_equal(F.sum_values(f, rows), want - f.mean_sum)
    # the symmetric trace(A^3) and gathering every injection agree up to
    # summation order
    np.testing.assert_allclose(_symmetric_trace(rows, n), want, rtol=1e-12, atol=1e-9)
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
        got = F._first_slots(S, np.sort(S, axis=1))
        assert got.dtype == np.int64 and np.array_equal(got, _argsort_first_slots(S))
