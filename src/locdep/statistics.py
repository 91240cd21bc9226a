"""Scalar statistics of a realization and direct counting oracles.

The field statistics are

    S    = sum X_i,            W1 = S / sigma,
    Y_i  = sum_{j in A_i} X_j,
    V    = sqrt( (sum_i X_i Y_i - n Xbar Ybar)_+ ),   W2 = S / V,
    Vbar = psi( sum_i X_i Y_i ),                      W2bar = S / Vbar,

with psi(x) = ((x v sigma^2/4) ^ 2 sigma^2)^{1/2} clamping the variance
proxy into [sigma^2/4, 2 sigma^2].  W2 is undefined (rejected) when V = 0;
rejection is a value, not an error.

The counters (word occurrences, permutation-pattern occurrences, subgraph
statistics, classical and distributed U-statistics) are independent naive
computations used as oracles against the field constructions.

All reductions run in fixed index-ascending order with numpy's pairwise
summation, so results do not depend on worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateVariance, GraphTooLarge
from .fields import Realization, admissible_tuples
from .neighborhood import adjacency


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, Realization) else np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# Field statistics


@dataclass(frozen=True)
class StatisticValue:
    """All per-realization statistics of one field sample.

    ``w2`` is None when the self-normalizer V is zero (a rejection, not an
    error); ``vbar`` always lies in [sigma/2, sqrt(2) sigma].
    """

    s: float
    w1: float
    v: float
    w2: float | None
    vbar: float
    w2bar: float


def evaluate_statistics(x, sys_or_adj, sigma: float) -> StatisticValue:
    """Bundle S, W1, V, W2, Vbar, W2bar for one realization."""
    s, w1 = sum_and_w1(x, sigma)
    v, w2 = self_normalized_w2(x, sys_or_adj)
    vbar, w2bar = clamped_w2bar(x, sys_or_adj, sigma)
    assert sigma / 2 - 1e-12 <= vbar <= math.sqrt(2) * sigma + 1e-12
    return StatisticValue(s=s, w1=w1, v=v, w2=w2, vbar=vbar, w2bar=w2bar)


def sum_and_w1(x, sigma: float) -> tuple[float, float]:
    """(S, W1 = S / sigma); requires sigma > 0."""
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    s = float(np.sum(_values(x)))
    return s, s / sigma


def neighbor_sums(x, sys_or_adj) -> np.ndarray:
    """Y_i = sum_{j in A_i} X_j."""
    return np.asarray(adjacency(sys_or_adj) @ _values(x))


def self_normalized_w2(x, sys_or_adj) -> tuple[float, float | None]:
    """(V, W2): V per the positive-part definition; W2 is None when V = 0."""
    vals = _values(x)
    y = neighbor_sums(vals, sys_or_adj)
    n = vals.size
    v2 = float(vals @ y) - n * float(vals.mean()) * float(y.mean())
    v = math.sqrt(max(v2, 0.0))
    if v > 0.0:
        return v, float(np.sum(vals)) / v
    return 0.0, None


def psi_clamp(x: float, sigma: float) -> float:
    """((x v sigma^2/4) ^ 2 sigma^2)^{1/2}, in [sigma/2, sqrt(2) sigma]."""
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    s2 = sigma * sigma
    return math.sqrt(min(max(x, 0.25 * s2), 2.0 * s2))


def clamped_w2bar(x, sys_or_adj, sigma: float) -> tuple[float, float]:
    """(Vbar, W2bar): the clamped self-normalizer, always defined."""
    vals = _values(x)
    y = neighbor_sums(vals, sys_or_adj)
    vbar = psi_clamp(float(vals @ y), sigma)
    return vbar, float(np.sum(vals)) / vbar


# Batch variants over a (reps, n) value matrix.


def w1_batch(X: np.ndarray, sigma: float) -> np.ndarray:
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    return X.sum(axis=1) / sigma


def w2_batch(X: np.ndarray, sys_or_adj) -> tuple[np.ndarray, np.ndarray]:
    """(W2 with NaN at rejections, rejection mask)."""
    adj = adjacency(sys_or_adj)
    Y = np.asarray(adj @ X.T).T
    n = X.shape[1]
    v2 = np.einsum("ri,ri->r", X, Y) - n * X.mean(axis=1) * Y.mean(axis=1)
    v = np.sqrt(np.maximum(v2, 0.0))
    rejected = ~(v > 0.0)
    w2 = np.full(X.shape[0], np.nan)
    np.divide(X.sum(axis=1), v, out=w2, where=~rejected)
    return w2, rejected


def w2bar_batch(X: np.ndarray, sys_or_adj, sigma: float) -> np.ndarray:
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    adj = adjacency(sys_or_adj)
    Y = np.asarray(adj @ X.T).T
    s2 = sigma * sigma
    vbar = np.sqrt(np.clip(np.einsum("ri,ri->r", X, Y), 0.25 * s2, 2.0 * s2))
    return X.sum(axis=1) / vbar


# ---------------------------------------------------------------------------
# Counting oracles


def count_word_occurrences(
    string: Sequence, word: Sequence, gaps: Sequence[int | None],
    exact_gaps: bool = False,
) -> int:
    """Occurrences of ``word`` in ``string`` under the gap constraints.

    An occurrence is an index tuple i_1 < ... < i_l with letter matches and
    i_{j+1} - i_j <= gaps[j] (= gaps[j] exactly, when ``exact_gaps`` and the
    gap is finite).  Dynamic program over (position, matched prefix).
    """
    s = list(string)
    w = list(word)
    l = len(w)
    if l == 0:
        return 0
    if len(gaps) != l - 1:
        raise ValueError(f"need {l - 1} gap entries, got {len(gaps)}")
    n = len(s)
    if l > n:
        return 0
    ways = [1 if s[t] == w[0] else 0 for t in range(n)]
    for j in range(1, l):
        d = gaps[j - 1]
        prefix = list(itertools.accumulate(ways, initial=0))  # prefix[t] = sum ways[:t]
        nxt = [0] * n
        for t in range(n):
            if s[t] != w[j]:
                continue
            if exact_gaps and d is not None:
                tp = t - d
                nxt[t] = ways[tp] if tp >= 0 else 0
            elif d is None:
                nxt[t] = prefix[t]
            else:
                lo = max(0, t - d)
                nxt[t] = prefix[t] - prefix[lo]
        ways = nxt
    return int(sum(ways))


def count_pattern_occurrences(
    pi: Sequence[int], tau: Sequence[int], gaps: Sequence[int | None],
    exact_gaps: bool = False,
) -> int:
    """Occurrences of the order pattern ``tau`` in the permutation ``pi``
    at gap-constrained index tuples."""
    l = len(tau)
    if len(gaps) != l - 1:
        raise ValueError(f"need {l - 1} gap entries, got {len(gaps)}")
    n = len(pi)
    if l > n:
        return 0
    tuples = admissible_tuples(n, gaps, exact_gaps=exact_gaps)
    if not tuples:
        return 0
    arr = np.asarray(tuples)
    vals = np.asarray(pi)[arr]
    t = np.asarray(tau)
    ok = np.ones(arr.shape[0], dtype=bool)
    for a in range(l):
        for b in range(a + 1, l):
            ok &= (vals[:, a] - vals[:, b]) * (t[a] - t[b]) > 0
    return int(np.count_nonzero(ok))


def automorphism_count(pattern_edges: Sequence[tuple[int, int]]) -> int:
    """|Aut(F)| by brute force over vertex permutations."""
    edges = {tuple(sorted(e)) for e in pattern_edges}
    v = max(max(e) for e in edges) + 1
    count = 0
    for perm in itertools.permutations(range(v)):
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in edges}
        if mapped == edges:
            count += 1
    return count


def subgraph_statistic(
    host_adj: np.ndarray,
    pattern_edges: Sequence[tuple[int, int]],
    cap: int = 10**7,
) -> tuple[int, int]:
    """(injective homomorphism count, copy count) of a pattern in a 0/1 host.

    The two are related by the automorphism factor, which is asserted.
    """
    adj = np.asarray(host_adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("host adjacency must be square")
    if not np.array_equal(adj, adj.T) or np.any(np.diag(adj) != 0):
        raise ValueError("host adjacency must be symmetric with zero diagonal")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("host adjacency must be 0/1")
    edges = [tuple(sorted(e)) for e in pattern_edges]
    v = max(max(e) for e in edges) + 1
    n = adj.shape[0]
    if n >= v and math.perm(n, v) > cap:
        raise GraphTooLarge(f"{math.perm(n, v)} injections exceed cap {cap}")
    inj = 0
    for phi in itertools.permutations(range(n), v):
        if all(adj[phi[a], phi[b]] for a, b in edges):
            inj += 1
    aut = automorphism_count(edges)
    if inj % aut != 0:
        raise AssertionError(f"injective count {inj} not divisible by |Aut|={aut}")
    return inj, inj // aut


# ---------------------------------------------------------------------------
# U-statistic oracles


def classical_u(data: Sequence[float], kernel: Callable, m: int) -> float:
    """The plain U-statistic: average of the kernel over all m-subsets."""
    arr = np.asarray(data, dtype=float)
    if arr.size < m:
        raise ValueError(f"need at least m={m} points, got {arr.size}")
    combos = np.asarray(list(itertools.combinations(range(arr.size), m)))
    vals = kernel(*(arr[combos[:, j]] for j in range(m)))
    return float(np.mean(vals))


def distributed_u(blocks: Sequence[Sequence[float]], kernel: Callable, m: int) -> float:
    """Blockwise weighted average (n_i / N) of per-block U-statistics."""
    sizes = [len(b) for b in blocks]
    n_total = sum(sizes)
    acc = 0.0
    for b in blocks:
        acc += len(b) * classical_u(b, kernel, m)
    return acc / n_total
