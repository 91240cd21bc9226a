"""Moment tables: per-index L2/L3/L4 norms and Var(S), and the
U-statistic kernel quantities sigma_1 and ||h||_p.

Norms are absolute central moments of the field values actually used by
the statistics, ``||X||_p = (E|X|^p)^{1/p}``, computed exactly by local
enumeration over each index's (discrete) support, once per index group
frozen on the field (exact tables carry the groups on), or by Monte
Carlo with batch-means standard errors.

An exact table takes its Var(S) from the caller, who has it from the
one walk of the outcome space (``oracle.walk_outcomes(..., var=True)``),
and cross-checks it against the local-dependence identity
Var(S) = sum_i sum_{j in A_i} Cov(X_i, X_j) over the field's own
overlap.  By local enumeration the identity visits no pair of indices:
it is one sum of Hoeffding terms over the source subsets that two or
more indices read (see :func:`exact_sigma2_local`), which costs one
enumeration per refined index group and 2^k listed subsets per index of
k sources (k for a sum field).  An index-transitive field lists index 0
and the indices sharing a source with it only, weighting index 0's
subsets by n.  Without a Var(S) the table is hybrid: the identity alone
gives Var(S), which scales to fields whose full outcome space is out of
reach (the word "ab" at n = 300, 44,850 indices with 26.8M overlapping
pairs, in about 20 ms).  This module walks nothing and decides no cap.
``write_csv`` writes ``moments.csv`` as bytes, a block of rows at a
time, with each group's values formatted once and no string built per
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DegenerateKernel, DegenerateVariance, EnumerationCapExceeded
from . import fields
from .fields import (
    DiscreteSource,
    LatentSourceField,
    Source,
    draw_source_rows,
    evaluate_values,
    _key_ids,
    local_values,
    _pack,
    product_grid,
    _sum_columns,
)
from .neighborhood import distinct, dot
from .rng import STREAM_MOMENTS, chunk_rows

SIGMA2_IDENTITY_RTOL = 1e-10
MC_BATCHES = 32  # batches of a Monte-Carlo table's batch-means standard errors
SIGMA1_RTOL = 1e-9  # sigma1^2 at most this times Var(h) is a degenerate kernel
_LONG_RUN, _BLOCK_ROWS = 64, 1 << 14  # moments.csv: rows of a long run, rows per block


@dataclass(frozen=True)
class MomentTable:
    """Per-index norms plus the field-level variance.

    ``mode`` is "exact", "monte_carlo", or "hybrid" (exact norms, identity
    variance).  Monte-Carlo entries carry batch-means standard errors, and
    ``extras`` their int ``reps`` and ``batches``.  Exact and hybrid tables
    carry ``groups``, each entry's index group.
    """

    l2: np.ndarray
    l3: np.ndarray
    l4: np.ndarray
    sigma2: float
    mode: str
    se_l2: np.ndarray | None = None
    se_l3: np.ndarray | None = None
    se_l4: np.ndarray | None = None
    se_sigma2: float | None = None
    extras: dict = dc_field(default_factory=dict)
    groups: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.l2.size

    @property
    def sigma(self) -> float:
        if not self.sigma2 > 0:
            raise DegenerateVariance(f"sigma2={self.sigma2} is not positive")
        return math.sqrt(self.sigma2)

    @property
    def degenerate(self) -> bool:
        return not self.sigma2 > 0


# ---------------------------------------------------------------------------
# Exact evaluation


def exact_index_norms(field: LatentSourceField, idx) -> np.ndarray:
    """Rows (||X_i||_2, ||X_i||_3, ||X_i||_4) of the centered X_i for the
    indices i of ``idx``, by local enumeration."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    out = np.empty((idx.size, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # run_experiment checks finiteness
        for part, probs, X in local_values(field, idx):
            a = np.abs(X - field.means[idx[part], None])
            out[part] = np.stack([np.add.reduce(a**p * probs, axis=1) ** (1 / p) for p in (2, 3, 4)], 1)
    return out


def exact_sigma2_local(field: LatentSourceField) -> float:
    """Var(S) by Hoeffding's decomposition over the field's independent
    sources, by local enumeration, without visiting any pair of indices.

    X_i is the sum over the subsets T of its sources of the terms
    X_i^T = sum_{R subset T} (-1)^{|T| - |R|} E[X_i | U_R], which are
    orthogonal across T, so with weights v_i that sum the inner sums as
    sum_i does,

        Var(S) = sum_i v_i sum_{T subset supp i} E[X_i^T sum_{j reads T} X_j^T]
               = sum_i v_i Var(X_i)
                 + sum over the T read by two or more indices of
                   E[(sum_{i reads T} v_i X_i^T)(sum_{j reads T} X_j^T)]
                   - sum_{i reads T} v_i E(X_i^T)^2.

    Every v_i is 1, except on an index-transitive field of one index
    group, where every i gives the same inner sum: there v_0 = n and the
    other v_i are 0, and only index 0 and the indices sharing a source
    with it are listed, with the subsets of index 0's sources only.  The
    flag alone does not settle it: a copy of the field with other sources
    keeps its metadata, and its groups show the change.

    Each listed index's distinct sources are put in ascending order, those
    of the weighted indices first, and its nonempty subsets of the latter
    are listed from one matrix of picked columns and keyed by their sorted
    source ids; a sum field, whose X is linear in its sources, lists its
    singletons only, its other terms being zero.  Listing costs 2^k
    entries for an index of k sources.  Indices of one index group whose
    sources sit at the same slots in that order take one representative,
    whose grid lines up with every member's sources.  Only the subsets
    that two or more indices read take a table, X^T on the
    representative's grid (its sources ascending, among which T's, all
    weighted, keep their order): the probability-weighted mean over each
    axis outside T, less it over each axis inside T, kept with the
    probabilities of T's cells.  The representatives of one
    :func:`~locdep.fields.local_values` block, whose sources have the same
    laws, are stacked, one pass per set of T's axes.  Every reader's table
    of T then lies on one grid of T's values, and the bracket is read a
    cell at a time.
    """
    inc, N, rows, weight = field.incidence, field.n_sources, np.arange(field.n), np.ones(field.n)
    hit = np.append(np.ones(N, dtype=bool), False)  # the weighted indices' sources, then a filler
    if field.metadata.get("index_transitive") and field.groups[0].size == 1:
        hit[:] = False
        hit[inc.row(0)] = True
        rows = distinct(inc.rows[hit[inc.indices]])  # index 0 and the indices sharing a source with it
        weight = np.where(rows == 0, float(field.n), 0.0)
    supports = field.supports.take(rows, axis=0)
    (n, K), deg = supports.shape, np.diff(inc.indptr)[rows]
    # each listed index's distinct sources, ascending, the weighted indices'
    # first, then a filler N, and the first slot holding each (a stable sort
    # keeps equal ids in slot order): indices of one group with equal slots
    # take one representative
    order = np.argsort(supports + (N + 1) * ~hit[supports], axis=1, kind="stable")
    srt = np.take_along_axis(supports, order, axis=1)
    new = srt >= 0
    new[:, 1:] &= srt[:, 1:] != srt[:, :-1]
    width = int(deg.max(initial=0))
    at = np.repeat(np.arange(n), deg)
    at = (at, np.arange(at.size) - (np.cumsum(deg) - deg)[at])
    ids, slots = np.full((n, width + 1), N), np.full((n, width), K)
    src = srt[new]
    ids[at], slots[at] = src, order[new]
    _, first, cls = np.unique(_pack([field.groups[1].take(rows), *slots.T]), return_index=True,
                              return_inverse=True)
    # the listed subsets b of each index (bit a: its a-th source), keyed by
    # their sources: subset b reads the columns picks[b] of ids, ascending,
    # then fillers; subset b + 2^a reads those of b, then column a
    picks = np.full((1, width), width, dtype=np.min_scalar_type(width))
    count = np.zeros(1, dtype=np.int64)  # the sources of each subset
    for a in range(width):
        more = picks.copy()
        more[np.arange(count.size), count] = a
        picks, count = np.concatenate([picks, more]), np.concatenate([count, count + 1])
    # the subsets listed per index: those of its weighted sources, and for a
    # sum field, whose X is linear in its sources, the singletons only
    listed = 1 << np.arange(width) if field.ev is _sum_columns else np.arange(1, 1 << width)
    per = np.searchsorted(listed, 1 << deg - np.bincount(at[0][~hit[src]], minlength=n))
    i = np.repeat(np.arange(n), per)
    b = listed[np.arange(i.size) - np.repeat(np.cumsum(per) - per, per)]
    row = i * (width + 1)
    keys = _pack([np.zeros(i.size, dtype=np.int64), *(ids.reshape(-1)[row + c] for c in picks.T[:, b])])
    key = _key_ids(keys, int(keys.max(initial=0)) + 1)[1]
    readers = np.bincount(key)
    shared = readers[key] > 1
    key, i, b = key[shared], i[shared], b[shared]
    # the tables: one per (representative, subset) that a shared entry
    # reads, on the representative's grid, whose axes are its sources in
    # ascending order: bit a of a subset is ids' column a, the grid's axis
    # rank[c, a] (T, all weighted sources, keeps its order on both)
    tabs, tab = _key_ids(cls[i] << width | b, first.size << width)
    rank = np.argsort(np.argsort(ids[first, :width], axis=1, kind="stable"), axis=1)
    var, tables = np.zeros(first.size), []  # (table ids, their X^T, the probabilities of T's cells)
    with np.errstate(over="ignore", invalid="ignore"):  # run_experiment checks finiteness
        for part, p, X in local_values(field, rows[first]):
            x = X - np.add.reduce(X * p, axis=1)[:, None]
            var[part] = np.add.reduce(x * x * p, axis=1)
            used = np.sort(ids[first[part[0]], :deg[first[part[0]]]])  # the grid's axes
            P = [np.reshape(field.sources[s].probs, [-1 if d == a else 1 for d in range(-1, used.size)])
                 for a, s in enumerate(used)]
            Y = X.reshape(-1, *(q.size for q in P))
            t = np.concatenate([np.arange(*np.searchsorted(tabs, [c << width, (c + 1) << width]))
                                for c in part])
            stack = np.searchsorted(part, tabs[t] >> width)
            bits = tabs[t, None] >> np.arange(width) & 1
            mask = np.sum(bits << rank[tabs[t] >> width], axis=1)  # T's axes on the grid
            for inside in distinct(mask).tolist():
                y, w = Y, 1.0
                for a in range(used.size):  # the mean over each axis outside T
                    if not inside >> a & 1:
                        y = (y * P[a]).sum(axis=a + 1, keepdims=True)
                for a in range(used.size):  # less it over each axis inside T
                    if inside >> a & 1:
                        y, w = y - (y * P[a]).sum(axis=a + 1, keepdims=True), w * P[a]
                k = np.flatnonzero(mask == inside)
                tables.append((t[k], y[stack[k]].reshape(k.size, -1), w.reshape(-1)))
    # each shared entry adds its table to its subset's cells, tables of one size at a time
    total = dot(np.bincount(cls, weight, minlength=first.size), var)
    for cells in distinct([y.shape[1] for _, y, _ in tables]):
        t, Y, W = (np.concatenate(c) for c in zip(*[(t, y, np.broadcast_to(w, y.shape))
                                                    for t, y, w in tables if y.shape[1] == cells]))
        at = np.full(tabs.size, -1)
        at[t] = np.arange(t.size)
        on = at[tab] >= 0
        at, v = at[tab[on]], weight[i[on]]  # each entry's table among these, and its weight
        subset = _key_ids(key[on], readers.size)[1]  # each entry's subset among these
        for y, w in zip(Y.T, W.T):  # one cell of T's grid at a time
            y = y[at]
            acc = np.bincount(subset, y)
            prob = np.zeros_like(acc)
            prob[subset] = w[at]
            total += dot(prob * np.bincount(subset, y * v), acc)
        total -= dot(np.bincount(at, v, minlength=len(Y)), np.sum(W * Y * Y, axis=1))
    return total


def exact_moment_table(field: LatentSourceField, sigma2: float | None = None) -> MomentTable:
    """Exact norms and Var(S), by local enumeration: the norms once per
    index group, and the covariance identity from
    :func:`exact_sigma2_local`, the Hoeffding terms of the source subsets
    that two or more indices read.

    ``sigma2`` is the exact Var(S) of the caller's walk
    (``oracle.walk_outcomes(..., var=True)``).  When given, the mode is
    "exact" and it is cross-checked against the covariance identity over
    the field's induced neighborhoods; a failed cross-check raises
    AssertionError.  When None, the mode is "hybrid" and Var(S) is the
    identity.
    """
    first, inverse = field.groups
    l2, l3, l4 = exact_index_norms(field, first)[inverse].T.copy()
    sigma2_id = exact_sigma2_local(field)
    mode = "hybrid" if sigma2 is None else "exact"
    if sigma2 is None:
        sigma2 = sigma2_id
    elif abs(sigma2 - sigma2_id) > SIGMA2_IDENTITY_RTOL * max(1.0, abs(sigma2)):
        raise AssertionError(
            f"variance identity violated: Var(S)={sigma2} vs "
            f"covariance sum {sigma2_id}"
        )
    return MomentTable(l2=l2, l3=l3, l4=l4, sigma2=sigma2, mode=mode, groups=inverse)


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


def mc_moment_table(
    field: LatentSourceField,
    reps: int = 10**4,
    master_seed: int = 0,
) -> MomentTable:
    """Monte-Carlo norms and Var(S) with standard errors over MC_BATCHES
    batch means."""
    if reps < 10**3:
        raise ValueError(f"reps={reps} below the 10^3 floor")
    n = field.n
    batches = min(MC_BATCHES, reps)
    bounds = np.linspace(0, reps, batches + 1).astype(int)
    acc = {p: np.zeros((batches, n)) for p in (2, 3, 4)}
    s_sum = np.zeros(batches)
    s2_sum = np.zeros(batches)
    counts = np.diff(bounds)
    # chunks of whole sample blocks, each split at the batch bounds it spans
    chunk = chunk_rows(field.n_sources, field.block_rows)
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        rows = draw_source_rows(field, master_seed, range(start, stop), path=(STREAM_MOMENTS,))
        X_chunk = evaluate_values(field, rows)
        cuts = np.clip(bounds, start, stop) - start
        for b in np.flatnonzero(cuts[1:] > cuts[:-1]):
            X = X_chunk[cuts[b]:cuts[b + 1]]
            a = np.abs(X)
            for p in (2, 3, 4):
                acc[p][b] += (a**p).sum(axis=0)
            s = X.sum(axis=1)
            s_sum[b] += s.sum()
            s2_sum[b] += (s**2).sum()
    mom = {p: acc[p].sum(axis=0) / reps for p in (2, 3, 4)}
    norms = {p: mom[p] ** (1.0 / p) for p in (2, 3, 4)}
    batch_norms = {p: (acc[p] / counts[:, None]) ** (1.0 / p) for p in (2, 3, 4)}
    ses = {p: batch_norms[p].std(axis=0, ddof=1) / math.sqrt(batches) for p in (2, 3, 4)}
    mean_s = s_sum.sum() / reps
    sigma2 = s2_sum.sum() / reps - mean_s**2
    sigma2 = sigma2 * reps / (reps - 1)
    batch_sigma2 = s2_sum / counts - (s_sum / counts) ** 2
    se_sigma2 = float(batch_sigma2.std(ddof=1) / math.sqrt(batches))
    return MomentTable(
        l2=norms[2],
        l3=norms[3],
        l4=norms[4],
        sigma2=float(sigma2),
        mode="monte_carlo",
        se_l2=ses[2],
        se_l3=ses[3],
        se_l4=ses[4],
        se_sigma2=se_sigma2,
        extras={"reps": reps, "batches": batches},
    )


# ---------------------------------------------------------------------------
# Kernel quantities for U-statistics


@dataclass(frozen=True)
class KernelMoments:
    """sigma1 = sd of the first-order projection, var = Var(h), and the
    raw norm ||h||_4 = (E|h|^4)^{1/4}; the bounds read these three."""

    sigma1: float
    var: float
    l4: float


def hoeffding_sigma1(
    kernel: Callable,
    m: int,
    source: Source,
) -> KernelMoments:
    """sigma1^2 = Var( E[h(X_1..X_m) - theta | X_1] ) with theta = E h,
    exact by nested enumeration over a discrete source.  Raises
    :class:`EnumerationCapExceeded` for a continuous source or a grid
    beyond ``fields.DEFAULT_ENUM_CAP`` (read when it runs), and
    :class:`DegenerateKernel` when sigma1^2 falls below
    ``SIGMA1_RTOL * max(Var(h), tiny)`` (the degenerate case).
    """
    if not isinstance(source, DiscreteSource):
        raise EnumerationCapExceeded("continuous source; sigma1 needs a discrete source")
    prb = np.asarray(source.probs)
    if len(prb) ** m > fields.DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded("kernel enumeration too large")
    w, grid = product_grid([source] * m)
    h = np.asarray(kernel(*grid.T), dtype=float)
    theta = float(np.sum(w * h))
    var_h = float(np.sum(w * (h - theta) ** 2))
    l4 = float(np.sum(w * np.abs(h) ** 4)) ** 0.25
    # condition on the first argument (the most significant grid digit)
    g = (w * h).reshape(len(prb), -1).sum(axis=1) / prb - theta
    sigma1_sq = float(prb @ g**2)
    if sigma1_sq <= SIGMA1_RTOL * max(var_h, 1e-300):
        raise DegenerateKernel(
            f"sigma1^2={sigma1_sq} is degenerate relative to Var(h)={var_h}"
        )
    return KernelMoments(sigma1=math.sqrt(sigma1_sq), var=var_h, l4=l4)


# ---------------------------------------------------------------------------
# Serialization


def write_csv(fh, table: MomentTable) -> None:
    """Writes the CSV section ``index,l2,l3,l4,se2,se3,se4`` (RFC-4180,
    1-based index) to the binary handle ``fh``: a run of _LONG_RUN or more
    rows of one group in uint8 blocks with the index digits computed, other
    rows by one join per block.  Values are formatted once per group."""
    n, z = table.n, np.zeros(table.n)
    cols = [table.l2, table.l3, table.l4,
            *(z if se is None else se for se in (table.se_l2, table.se_l3, table.se_l4))]
    groups = np.arange(n) if table.groups is None else table.groups
    starts = np.r_[0, np.flatnonzero(np.diff(groups)) + 1][:n]  # runs of one group
    ends = [*starts[1:].tolist(), n]
    _, first, run_body = np.unique(groups[starts], return_index=True, return_inverse=True)
    values = np.stack([c[starts[first]] for c in cols], axis=1).tolist()
    bodies = [b",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(v) for v in values]
    row_body = np.repeat(run_body, np.subtract(ends, starts))
    fh.write(b"index,l2,l3,l4,se2,se3,se4\n")
    long_runs = [(lo, hi) for lo, hi in zip(starts.tolist(), ends) if hi - lo >= _LONG_RUN]
    done = 0  # rows written
    for lo, hi in [*long_runs, (n, n)]:
        for a in range(done, lo, _BLOCK_ROWS):  # the short runs before this long one
            rows = enumerate(row_body[a:min(a + _BLOCK_ROWS, lo)].tolist(), a + 1)
            fh.write(b"".join([b"%d%b" % (i, bodies[g]) for i, g in rows]))
        a = lo + 1
        while a <= hi:  # blocks of at most _BLOCK_ROWS rows, cut where the index gains a digit
            d, body = len(str(a)), np.frombuffer(bodies[row_body[lo]], np.uint8)
            b = min(a + _BLOCK_ROWS, hi + 1, 10**d)
            out = np.empty((b - a, d + body.size), np.uint8)
            out[:, d:] = body
            idx = np.arange(a, b, dtype=np.min_scalar_type(b))
            for k in range(d):
                out[:, d - 1 - k] = idx // 10**k % 10 + 48
            fh.write(out)
            a = b
        done = hi


def table_header(table: MomentTable) -> dict:
    """JSON header accompanying the CSV body; its extras end with
    ``"degenerate": true`` when Var(S) is not positive."""
    extras = dict(table.extras)
    if table.degenerate:
        extras["degenerate"] = True
    return {"sigma2": table.sigma2, "mode": table.mode, "se_sigma2": table.se_sigma2,
            "extras": extras}
