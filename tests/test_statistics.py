"""Statistic and counting-oracle tests.

Core claims:
    - W1, W2, the psi clamp, and the clamped W2bar match their definitions
      on hand-checked inputs, with exact scale invariance of W2 and the
      |W2bar| <= 2|S|/sigma envelope
    - the word / pattern / subgraph counters agree with exhaustive scans
    - constrained-U and decorated field sums reproduce the counters
      exactly (integer equality) on sampled inputs
    - classical and distributed U-statistic evaluators match hand values
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import locdep.fields as F
import locdep.neighborhood as nb
import locdep.statistics as st
from locdep.errors import DegenerateVariance


def test_sum_and_w1_examples():
    assert st.sum_and_w1(np.zeros(5), 2.0) == (0.0, 0.0)
    s, w1 = st.sum_and_w1(np.array([1.0, 1.0]), math.sqrt(2))
    assert (s, w1) == (2.0, pytest.approx(math.sqrt(2)))
    x = np.array([0.5, -1.5, 2.0])
    s1, w1a = st.sum_and_w1(x, 3.0)
    s2, w1b = st.sum_and_w1(-x, 3.0)
    assert s2 == -s1 and w1b == -w1a
    with pytest.raises(DegenerateVariance):
        st.sum_and_w1(x, 0.0)


def test_w2_zero_field_rejected():
    sys = nb.iid_system(3)
    v, w2 = st.self_normalized_w2(np.zeros(3), sys)
    assert v == 0.0 and w2 is None


def test_w2_iid_reduces_to_centered_second_moment():
    rng = np.random.default_rng(3)
    sys = nb.iid_system(6)
    for _ in range(20):
        x = rng.normal(size=6)
        v, w2 = st.self_normalized_w2(x, sys)
        v2_direct = max(np.sum(x**2) - 6 * x.mean() ** 2, 0.0)
        assert v == pytest.approx(math.sqrt(v2_direct), abs=1e-12)
        assert w2 == pytest.approx(x.sum() / math.sqrt(v2_direct))


def test_w2_scale_invariance():
    rng = np.random.default_rng(4)
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    for _ in range(20):
        x = rng.normal(size=6)
        _, w2 = st.self_normalized_w2(x, sys)
        _, w2c = st.self_normalized_w2(3.7 * x, sys)
        if w2 is not None:
            assert w2c == pytest.approx(w2, rel=1e-14)


def test_psi_clamp_examples():
    assert st.psi_clamp(0.0, 2.0) == 1.0
    assert st.psi_clamp(100.0, 2.0) == pytest.approx(math.sqrt(8))
    assert st.psi_clamp(3.0, 2.0) == pytest.approx(math.sqrt(3))
    xs = np.linspace(-5, 50, 200)
    vals = [st.psi_clamp(float(x), 2.0) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert min(vals) >= 1.0 and max(vals) <= math.sqrt(8) + 1e-15


def test_w2bar_examples_and_envelope():
    sys = nb.iid_system(4)
    vbar, w2bar = st.clamped_w2bar(np.zeros(4), sys, 2.0)
    assert (vbar, w2bar) == (1.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        x = rng.normal(size=4)
        sigma = 1.3
        vbar, w2bar = st.clamped_w2bar(x, sys, sigma)
        assert abs(w2bar) <= 2 * abs(x.sum()) / sigma + 1e-12
    # interior fixed point: sum X_i Y_i == sigma^2
    x = np.array([1.0, 1.0, 1.0, 1.0])
    vbar, _ = st.clamped_w2bar(x, sys, 2.0)
    assert vbar == pytest.approx(2.0)


def brute_word_count(s, w, gaps, exact=False):
    n, l = len(s), len(w)
    count = 0
    for tup in itertools.combinations(range(n), l):
        ok = all(s[t] == w[k] for k, t in enumerate(tup))
        for k in range(l - 1):
            d = gaps[k]
            g = tup[k + 1] - tup[k]
            if d is not None:
                ok = ok and (g == d if exact else g <= d)
        if ok:
            count += 1
    return count


def test_word_counter_examples():
    assert st.count_word_occurrences("abab", "ab", [None]) == 3
    assert st.count_word_occurrences("abab", "ab", [1]) == 2
    assert st.count_word_occurrences("ab", "aaa", [None, None]) == 0
    assert st.count_word_occurrences("abab", "ab", [3], exact_gaps=True) == 1


def test_word_counter_random_vs_brute():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        s = rng.integers(0, 2, size=n).tolist()
        l = int(rng.integers(1, 4))
        w = rng.integers(0, 2, size=l).tolist()
        gaps = [None if rng.random() < 0.5 else int(rng.integers(1, 4)) for _ in range(l - 1)]
        exact = bool(rng.random() < 0.3)
        assert st.count_word_occurrences(s, w, gaps, exact_gaps=exact) == brute_word_count(
            s, w, gaps, exact
        )


def test_pattern_counter_examples():
    assert st.count_pattern_occurrences([3, 2, 1], [2, 1], [None]) == 3
    assert st.count_pattern_occurrences([1, 2, 3, 4], [2, 1], [None]) == 0
    assert st.count_pattern_occurrences([2, 3, 1], [2, 3, 1], [None, None]) == 1


def test_subgraph_statistic_examples():
    k4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    inj, copies = st.subgraph_statistic(k4, [(0, 1), (0, 2), (1, 2)])
    assert (inj, copies) == (24, 4)
    with pytest.raises(Exception) as exc:
        st.subgraph_statistic(k4, [(0, 1), (0, 2), (1, 2)], cap=10)
    assert "cap" in str(exc.value)
    tri = np.zeros((3, 3), dtype=int)
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        tri[a, b] = tri[b, a] = 1
    assert st.subgraph_statistic(tri, [(0, 1)]) == (6, 3)
    empty = np.zeros((4, 4), dtype=int)
    assert st.subgraph_statistic(empty, [(0, 1), (0, 2), (1, 2)]) == (0, 0)
    assert st.automorphism_count([(0, 1), (0, 2), (1, 2)]) == 6
    assert st.automorphism_count([(0, 1)]) == 2


def test_word_field_sum_equals_counter():
    f = F.build_word_field([0, 1], 7, 2, [2])
    rows = F.draw_source_rows(f, 31, range(10))
    x = F.evaluate_values(f, rows) + f.means
    for r in range(10):
        direct = st.count_word_occurrences(rows[r].astype(int).tolist(), [0, 1], [2])
        assert int(round(x[r].sum())) == direct


def test_pattern_field_sum_equals_counter():
    f = F.build_pattern_field(7, [2, 1], [None])
    rows = F.draw_source_rows(f, 32, range(10))
    x = F.evaluate_values(f, rows) + f.means
    for r in range(10):
        perm = (np.argsort(np.argsort(rows[r])) + 1).tolist()
        direct = st.count_pattern_occurrences(perm, [2, 1], [None])
        assert int(round(x[r].sum())) == direct


def test_decorated_field_sum_equals_injective_count():
    f = F.build_decorated_graph_field(5, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))
    rows = F.draw_source_rows(f, 33, range(8))
    x = F.evaluate_values(f, rows) + f.means
    triu = np.triu_indices(5, k=1)
    for r in range(8):
        adj = np.zeros((5, 5), dtype=int)
        adj[triu] = rows[r].astype(int)
        adj += adj.T
        inj, _ = st.subgraph_statistic(adj, [(0, 1), (0, 2), (1, 2)])
        assert int(round(x[r].sum())) == inj


def test_u_statistic_hand_values():
    assert st.classical_u([1, 2, 3, 4], lambda x, y: x * y, 2) == pytest.approx(35 / 6)
    u_d = st.distributed_u([[1, 2], [3, 4]], lambda x, y: x * y, 2)
    assert u_d == pytest.approx(7.0)


def test_batch_statistics_match_scalar():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    adj = nb.adjacency(sys)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(16, 6))
    w2s, rej = st.w2_batch(X, adj)
    w2bars = st.w2bar_batch(X, adj, 2.0)
    for r in range(16):
        v, w2 = st.self_normalized_w2(X[r], sys)
        if w2 is None:
            assert rej[r]
        else:
            assert w2s[r] == pytest.approx(w2, rel=1e-12)
        _, w2b = st.clamped_w2bar(X[r], sys, 2.0)
        assert w2bars[r] == pytest.approx(w2b, rel=1e-12)


def test_statistic_value_bundle():
    f = F.build_m_dependent(5, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    import locdep.moments as M

    t = M.exact_moment_table(f, sys)
    r = F.sample(f, 77, 0)
    sv = st.evaluate_statistics(r, sys, t.sigma)
    assert sv.w1 == pytest.approx(sv.s / t.sigma)
    assert sys is not None and (sv.w2 is None or sv.w2 == pytest.approx(sv.s / sv.v))
    assert t.sigma / 2 <= sv.vbar <= math.sqrt(2) * t.sigma
    assert sv.w2bar == pytest.approx(sv.s / sv.vbar)
