"""Field statistics of batches of realizations and direct counting oracles.

The field statistics are

    S    = sum X_i,            W1 = S / sigma,
    Y_i  = sum_{j in A_i} X_j,                        Y = M X,
    V    = sqrt( (sum_i X_i Y_i - n Xbar Ybar)_+ ),   W2 = S / V,
    Vbar = psi( sum_i X_i Y_i ),                      W2bar = S / Vbar,

with psi(x) = ((x v sigma^2/4) ^ 2 sigma^2)^{1/2} clamping the variance
proxy into [sigma^2/4, 2 sigma^2].  W2 is undefined (rejected) when V = 0;
rejection is a value, not an error.  The neighborhoods A_i are those of
a :class:`NeighborhoodSystem`, the same system whose kappa and tau enter
the bounds: Y is one product with its 0/1 index record M
(``neighborhood.Csr``), which adds each row's entries in column order.

The counters (permutation-pattern occurrences, subgraph statistics,
classical and distributed U-statistics) are independent naive
computations used as oracles against the field constructions.  The word
counter is ``fields.count_word_occurrences``, which also gives a word
field's S; its per-tuple evaluator is the independent check.

W2 and W2bar reduce the (n, reps) transpose of the value matrix over axis
0, adding the indices in ascending order one after another (not pairwise)
for every replication, so a value depends neither on the other rows of
its batch nor on the worker count.  A value matrix of integers (the
Monte-Carlo harness draws one for fair two-point integer sum fields, see
``fields.value_dtype``) is multiplied by M in its own narrow dtype and
summed exactly in int64; its index sums are the float route's, converted.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateVariance, GraphTooLarge
from .fields import admissible_tuples, count_word_occurrences  # noqa: F401
from .neighborhood import NeighborhoodSystem


# ---------------------------------------------------------------------------
# Field statistics over a (reps, n) value matrix


def w1_batch(X: np.ndarray, sigma: float) -> np.ndarray:
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    return X.sum(axis=1) / sigma


def _index_sums(AT: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of an (n, reps) array as float64: row after row for
    every column (numpy's ``sum(axis=0)`` sums a single column pairwise
    instead), or exactly in int64 for integers."""
    if AT.dtype.kind == "i":
        return AT.sum(axis=0, dtype=np.int64).astype(float)
    return AT.sum(axis=0) if AT.shape[1] > 1 else np.cumsum(AT, axis=0)[-1]


def _neighborhood_sums(X: np.ndarray, sys: NeighborhoodSystem) -> tuple[np.ndarray, np.ndarray]:
    """(X^T, Y^T = M X^T), (n, reps), in the dtype of X: integer values
    must hold Y and X_i Y_i (see ``fields.value_dtype``)."""
    XT = np.ascontiguousarray(X.T)
    return XT, sys.M @ XT


def w2_batch(X: np.ndarray, sys: NeighborhoodSystem) -> tuple[np.ndarray, np.ndarray]:
    """(W2 with NaN at rejections, rejection mask)."""
    XT, YT = _neighborhood_sums(X, sys)
    n = XT.shape[0]
    s = _index_sums(XT)
    centering = n * (s / n) * (_index_sums(YT) / n)
    YT *= XT  # X_i Y_i in place: no second (n, reps) array
    v = np.sqrt(np.maximum(_index_sums(YT) - centering, 0.0))
    rejected = ~(v > 0.0)
    w2 = np.full(XT.shape[1], np.nan)
    np.divide(s, v, out=w2, where=~rejected)
    return w2, rejected


def w2bar_sums(X: np.ndarray, sys: NeighborhoodSystem) -> tuple[np.ndarray, np.ndarray]:
    """W2bar's sigma-free parts: (S, sum_i X_i Y_i) per replication."""
    XT, YT = _neighborhood_sums(X, sys)
    YT *= XT
    return _index_sums(XT), _index_sums(YT)


def w2bar_finish(s: np.ndarray, xy: np.ndarray, sigma: float) -> np.ndarray:
    """W2bar = S / psi(sum_i X_i Y_i) from the parts of :func:`w2bar_sums`."""
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    s2 = sigma * sigma
    return s / np.sqrt(np.clip(xy, 0.25 * s2, 2.0 * s2))


def w2bar_batch(X: np.ndarray, sys: NeighborhoodSystem, sigma: float) -> np.ndarray:
    return w2bar_finish(*w2bar_sums(X, sys), sigma)


def statistic_batch(
    name: str, X: np.ndarray, sys: NeighborhoodSystem | None, sigma: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejection mask) of the statistic ``name`` (w1, w2, w2bar
    or sum) over a (reps, n) value matrix; only W2 rejects, and only W2
    and W2bar read ``sys``."""
    if name in ("w1", "w2bar") and sigma is None:
        raise DegenerateVariance(f"{name} needs sigma")
    none = np.zeros(X.shape[0], dtype=bool)
    if name == "w1":
        return w1_batch(X, sigma), none
    if name == "w2":
        return w2_batch(X, sys)
    if name == "w2bar":
        return w2bar_batch(X, sys, sigma), none
    if name == "sum":
        return X.sum(axis=1), none
    raise ValueError(f"unknown statistic {name!r}")


# ---------------------------------------------------------------------------
# Counting oracles


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
