"""Sampleable locally dependent random fields built from latent sources.

Every field value is a deterministic function of a small set of mutually
independent source variables.  A field stores which sources each index
reads as an ``(n, K)`` integer array ``supports`` (row i lists X_i's
source ids in argument order; -1 pads read a constant 0) and computes all
n values with **one** evaluator over the gathered source values,

    G[..., i, k] = U[..., supports[i, k]],      X = ev(G, *params),

where each entry of ``params`` is a per-index array (leading axis n).  The
evaluator treats every index alike: X_i depends only on row i of G and of
each param.  Indices (or pairs of indices) whose support rows have the
same coincidence pattern, source laws and params therefore share one law,
and exact moments enumerate once per such signature.

Dependence neighborhoods are *induced* by support overlap,

    A_i  = {j : supp(j) & supp(i) != {}},
    A_ij = {k : supp(k) & (supp(i) | supp(j)) != {}} = A_i | A_j,

which makes both local-dependence conditions hold by construction:
disjoint supports imply independence.

Builders cover the application families: iid fields, m-dependent moving
windows, dependency-graph fields, distributed U-statistic fields,
constrained U-statistic fields over m-dependent sequences (word and
pattern counting), and decorated injective homomorphism sums over random
edge variables.

Fields are immutable after construction.  Sampling is a pure function of
(master_seed, path, replication_index): replications are drawn in blocks
of ``rng.block_size(n_sources)``, one counter-based substream per block,
so blocks parallelize and every replication reproduces bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    BlockTooSmall,
    ComplexityCapExceeded,
    EmptyIndexSet,
    EnumerationCapExceeded,
    GraphTooLarge,
    InvalidSize,
)
from .neighborhood import NeighborhoodSystem, make_system
from .rng import STREAM_MEAN_PREPASS, STREAM_SAMPLE, block_size, substream

DEFAULT_ENUM_CAP = 2**24
DEFAULT_INDEX_CAP = 2**22
ENUM_BLOCK = 2**16
# largest gathered (reps, indices, K) block one evaluator call sees
GATHER_CELLS = 2**21


# ---------------------------------------------------------------------------
# Sources


@dataclass(frozen=True)
class DiscreteSource:
    """A finite-discrete source with numeric outcome values."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be nonempty and same length")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ValueError("probs must be nonnegative and sum to 1")


@dataclass(frozen=True)
class ContinuousSource:
    """A continuous source; ``kind`` is 'uniform' (on (0,1)) or 'normal'."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ValueError(f"unknown continuous source kind: {self.kind}")


Source = DiscreteSource | ContinuousSource


def rademacher() -> DiscreteSource:
    return DiscreteSource((-1.0, 1.0), (0.5, 0.5))


def bernoulli(p: float) -> DiscreteSource:
    return DiscreteSource((0.0, 1.0), (1.0 - p, p))


def three_point(spread: float = 1.0, p_zero: float = 0.5) -> DiscreteSource:
    """Symmetric three-point source on {-spread, 0, +spread}."""
    q = (1.0 - p_zero) / 2.0
    return DiscreteSource((-spread, 0.0, spread), (q, p_zero, q))


def uniform_letters(k: int) -> DiscreteSource:
    """Uniform source over an alphabet encoded as 0..k-1."""
    return DiscreteSource(tuple(float(a) for a in range(k)), (1.0 / k,) * k)


def _draw(source: Source, rng: np.random.Generator, size) -> np.ndarray:
    """``size`` (an int or a shape) draws of ``source``.  Equiprobable
    discrete sources take exact shortcuts: random bits for two points,
    ``integers`` for more; other laws invert the cumulative probs."""
    if isinstance(source, ContinuousSource):
        if source.kind == "uniform":
            return rng.random(size)
        return rng.standard_normal(size)
    values = np.asarray(source.values)
    if len(set(source.probs)) == 1:
        if len(values) == 2:
            count = int(np.prod(size))
            raw = np.frombuffer(rng.bytes(-(-count // 8)), dtype=np.uint8)
            return values[np.unpackbits(raw, count=count)].reshape(size)
        return values[rng.integers(len(values), size=size)]
    cum = np.cumsum(source.probs)
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return values[np.minimum(idx, len(values) - 1)]


def product_grid(sources: Sequence[Source], start: int = 0, stop: int | None = None):
    """(probs, rows) for outcomes start..stop-1 of the product grid over
    discrete ``sources``: rows[k] is one joint outcome, with sources[0] as
    the most significant mixed-radix digit."""
    if any(not isinstance(s, DiscreteSource) for s in sources):
        raise EnumerationCapExceeded("continuous source; no exact grid")
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


# ---------------------------------------------------------------------------
# The field type


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _source_runs(sources: tuple[Source, ...]) -> tuple[tuple[slice, Source], ...]:
    """Maximal runs of equal consecutive sources (one draw call each)."""
    runs = []
    start = 0
    for s in range(1, len(sources) + 1):
        head = sources[start]
        if s == len(sources) or (sources[s] is not head and sources[s] != head):
            runs.append((slice(start, s), head))
            start = s
    return tuple(runs)


def _law_ids(runs) -> np.ndarray:
    """Per source, the index of its law among the distinct laws."""
    laws: list[Source] = []
    ids = []
    for _, src in runs:
        k = next((j for j, law in enumerate(laws) if law is src or law == src), len(laws))
        if k == len(laws):
            laws.append(src)
        ids.append(k)
    return np.repeat(np.asarray(ids, dtype=np.int64), [sl.stop - sl.start for sl, _ in runs])


@dataclass(frozen=True, eq=False)
class LatentSourceField:
    """A field X_1..X_n of evaluator outputs over independent sources.

    ``supports`` is the (n, K) source-id array (-1 pads read 0); ``ev`` and
    ``params`` are the evaluator and its per-index arrays (see the module
    docstring).  ``means`` holds E X_i before centering and is computed at
    construction when ``center`` is set and none are given; sampled values
    are centered iff ``center`` is set.  Arrays and metadata are read-only.
    """

    sources: tuple[Source, ...]
    supports: np.ndarray
    ev: Callable
    params: tuple = ()
    center: bool = True
    means: np.ndarray | None = None
    metadata: Mapping = dc_field(default_factory=dict)
    runs: tuple = dc_field(init=False, repr=False)
    law_ids: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        put = object.__setattr__
        sources = tuple(self.sources)
        supports = np.array(self.supports, dtype=np.int64, ndmin=2)
        if supports.ndim != 2 or (
            supports.size and not -1 <= supports.min() <= supports.max() < len(sources)
        ):
            raise ValueError("supports must be an (n, K) array of source ids, -1 for a pad")
        params = tuple(_read_only(np.array(p)) for p in self.params)
        if any(p.shape[:1] != (supports.shape[0],) for p in params):
            raise ValueError("every param needs one entry per index")
        runs = _source_runs(sources)
        put(self, "sources", sources)
        put(self, "supports", _read_only(supports))
        put(self, "params", params)
        put(self, "runs", runs)
        put(self, "law_ids", _read_only(_law_ids(runs)))
        put(self, "metadata", dict(self.metadata))
        means = self.means
        if means is None and self.center:
            means = compute_means(self)
        if means is not None:
            put(self, "means", _read_only(np.array(means, dtype=float)))
        put(self, "metadata", MappingProxyType(self.metadata))

    @property
    def n(self) -> int:
        return self.supports.shape[0]

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def is_enumerable(self) -> bool:
        return all(isinstance(src, DiscreteSource) for _, src in self.runs)

    def outcome_count(self) -> int | None:
        if not self.is_enumerable():
            return None
        return math.prod(len(src.values) ** (sl.stop - sl.start) for sl, src in self.runs)


@dataclass(frozen=True)
class Realization:
    """One sampled field vector with its seed lineage."""

    values: np.ndarray
    master_seed: int
    replication: int


# ---------------------------------------------------------------------------
# Evaluation


def _gather(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """G[..., i, k] = U[..., S[i, k]], with 0 where S is -1."""
    G = U[..., S]
    pads = S < 0
    if pads.any():
        G[..., pads] = 0.0
    return G


def _blocks(count: int, width: int, reps: int) -> list[slice]:
    """Index slices whose gathered (reps, block, width) array stays within
    GATHER_CELLS and no larger than a (reps, count) output."""
    width = max(width, 1)
    step = max(1, min(count // width, GATHER_CELLS // max(1, reps * width)))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _localize(field: LatentSourceField, idx) -> tuple[np.ndarray, np.ndarray]:
    """(used, local): the sorted source ids the indices ``idx`` read, and
    their support rows renumbered into positions of ``used`` (-1 kept)."""
    S = field.supports[idx]
    used = np.unique(S[S >= 0])
    return used, np.where(S >= 0, np.searchsorted(used, S), -1)


def local_values(field: LatentSourceField, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(probs, X) over the product grid of the sources the indices ``idx``
    read: X[k, j] is the uncentered X_{idx[j]} at grid point k."""
    idx = np.asarray(idx, dtype=np.int64)
    used, local = _localize(field, idx)
    probs, grid = product_grid([field.sources[s] for s in used])
    if not used.size:
        grid = np.zeros((1, 1))
    X = field.ev(_gather(grid, local), *(p[idx] for p in field.params))
    return probs, np.broadcast_to(np.asarray(X, dtype=float), (probs.size, len(idx)))


# ---------------------------------------------------------------------------
# Signatures: indices and pairs with one law by construction


def _pack(keys: np.ndarray) -> np.ndarray:
    """One int64 per row of a nonnegative integer matrix; equal rows get
    equal values (columns are re-densified before they could overflow)."""
    out = np.zeros(keys.shape[0], dtype=np.int64)
    span = 1
    for col in keys.T:
        radix = int(col.max()) + 1 if col.size else 1
        if span * radix >= 2**62:
            out = np.unique(out, return_inverse=True)[1].reshape(-1)
            span = int(out.max()) + 1
        out = out * radix + col
        span *= radix
    return out


def _first_slots(S: np.ndarray) -> np.ndarray:
    """Coincidence pattern: F[r, c] is the first slot of row r holding the
    same source id as slot c."""
    order = np.argsort(S, axis=1, kind="stable")
    ordered = np.take_along_axis(S, order, axis=1)
    starts = np.zeros(S.shape, dtype=np.int64)
    starts[:, 1:] = np.where(ordered[:, 1:] != ordered[:, :-1], np.arange(1, S.shape[1]), 0)
    first = np.take_along_axis(order, np.maximum.accumulate(starts, axis=1), axis=1)
    F = np.empty_like(S)
    np.put_along_axis(F, order, first, axis=1)
    return F


def _index_classes(field: LatentSourceField) -> np.ndarray:
    """Per index, an id shared exactly by indices with equal params and means."""
    cols = [np.zeros(field.n, dtype=np.int64)]
    for p in (*field.params, *(() if field.means is None else (field.means,))):
        flat = p.reshape(field.n, -1)
        inv = np.unique(flat, axis=0 if flat.shape[1] > 1 else None, return_inverse=True)[1]
        cols.append(inv.reshape(-1))
    return _pack(np.stack(cols, axis=1))


def signature_groups(field: LatentSourceField, idx) -> tuple[np.ndarray, np.ndarray]:
    """Group indices (``idx`` of shape (N,)) or index pairs ((N, 2)) whose
    joint law is the same by construction: equal coincidence pattern of
    their support rows, equal source laws slot by slot, equal params and
    means.  Returns (first, inverse): row first[g] of ``idx`` represents
    group g, and row r belongs to group inverse[r]."""
    rows = np.asarray(idx, dtype=np.int64).reshape(len(idx), -1)
    S = field.supports[rows].reshape(len(rows), -1)
    laws = np.append(field.law_ids, field.law_ids.max(initial=0) + 1)[S]
    keys = np.concatenate([_first_slots(S), laws, _index_classes(field)[rows]], axis=1)
    _, first, inverse = np.unique(_pack(keys), return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


# ---------------------------------------------------------------------------
# Means


def compute_means(
    field: LatentSourceField,
    master_seed: int = 0,
    prepass: int = 10**6,
) -> np.ndarray:
    """E X_i for every index, computed once per signature group (whose
    indices share one law): exact by local enumeration when the supporting
    sources are discrete, otherwise a Monte-Carlo pre-pass of ``prepass``
    draws of the sources the group representatives read."""
    first, inverse = signature_groups(field, np.arange(field.n))
    discrete = np.repeat(
        [isinstance(src, DiscreteSource) for _, src in field.runs],
        [sl.stop - sl.start for sl, _ in field.runs],
    )
    exact = np.append(discrete, True)[field.supports[first]].all(axis=1)
    group_means = np.empty(first.size)
    for g in np.flatnonzero(exact):
        probs, X = local_values(field, [first[g]])
        group_means[g] = probs @ X[:, 0]
    todo = first[~exact]
    if todo.size:
        used, local = _localize(field, todo)
        params = [p[todo] for p in field.params]
        acc = np.zeros(todo.size)
        done = 0
        chunk = max(1, min(prepass, (1 << 25) // max(1, used.size)))
        rng = substream(master_seed, STREAM_MEAN_PREPASS)
        while done < prepass:
            size = min(chunk, prepass - done)
            rows = np.empty((size, used.size))
            for c, s in enumerate(used):
                rows[:, c] = _draw(field.sources[s], rng, size)
            for sl in _blocks(todo.size, local.shape[1], size):
                G = _gather(rows, local[sl])
                acc[sl] += field.ev(G, *(p[sl] for p in params)).sum(axis=0)
            done += size
        group_means[~exact] = acc / prepass
        if isinstance(field.metadata, dict):  # provenance, recorded while the field is built
            field.metadata["mean_prepass"] = {"draws": prepass, "groups": int(todo.size),
                                              "indices": int((~exact)[inverse].sum())}
    return group_means[inverse]


# ---------------------------------------------------------------------------
# Sampling and evaluation


def draw_source_rows(
    field: LatentSourceField,
    master_seed: int,
    reps: Sequence[int],
    path: tuple[int, ...] = (),
) -> np.ndarray:
    """Source draws for the given replication indices, one row each.

    Replication r is row r % B of block r // B, and each block is drawn
    whole from the substream (master_seed, STREAM_SAMPLE, *path, block),
    B = block_size(n_sources); so a row depends only on (seed, path, r).
    """
    reps = np.asarray(reps, dtype=np.int64).reshape(-1)
    B = block_size(field.n_sources)
    out = np.empty((reps.size, field.n_sources))
    order = np.argsort(reps, kind="stable")
    blocks, starts = np.unique(reps[order] // B, return_index=True)
    for b, hit in zip(blocks, np.split(order, starts[1:])):
        rng = substream(master_seed, STREAM_SAMPLE, *path, int(b))
        block = np.empty((B, field.n_sources))
        for sl, src in field.runs:
            block[:, sl] = _draw(src, rng, (B, sl.stop - sl.start))
        out[hit] = block[reps[hit] % B]
    return out


def evaluate_values(field: LatentSourceField, rows: np.ndarray) -> np.ndarray:
    """Field values for source rows; shape (reps, n), centered iff the
    field is.  Indices are evaluated in blocks (see :func:`_blocks`)."""
    rows = np.atleast_2d(rows)
    out = np.empty((rows.shape[0], field.n))
    for sl in _blocks(field.n, field.supports.shape[1], rows.shape[0]):
        out[:, sl] = field.ev(_gather(rows, field.supports[sl]), *(p[sl] for p in field.params))
    if field.center:
        out -= field.means
    return out


def sample(field: LatentSourceField, master_seed: int, replication: int) -> Realization:
    rows = draw_source_rows(field, master_seed, [replication])
    return Realization(
        values=evaluate_values(field, rows)[0],
        master_seed=master_seed,
        replication=replication,
    )


def outcome_blocks(
    field: LatentSourceField,
    cap: int = DEFAULT_ENUM_CAP,
    block: int = ENUM_BLOCK,
):
    """Yield (probs, source_rows) blocks covering the full outcome space.

    Outcomes are ordered with source 0 as the most significant mixed-radix
    digit.  Raises :class:`EnumerationCapExceeded` beyond ``cap`` outcomes.
    """
    total = field.outcome_count()
    if total is None:
        raise EnumerationCapExceeded("field has continuous sources")
    if total > cap:
        raise EnumerationCapExceeded(f"{total} outcomes exceed cap {cap}")
    for start in range(0, total, block):
        yield product_grid(field.sources, start, min(start + block, total))


# ---------------------------------------------------------------------------
# Induced neighborhoods


def incidence(field: LatentSourceField) -> sparse.csr_matrix:
    """Sparse 0/1 (n, n_sources) matrix: M[i, s] = 1 iff X_i reads source s."""
    S = field.supports
    rows = np.repeat(np.arange(field.n), S.shape[1])
    cols = S.reshape(-1)
    keep = cols >= 0
    M = sparse.csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=(field.n, field.n_sources)
    )
    M.data[:] = 1.0  # a row may list a source twice
    return M


def overlap_matrix(field: LatentSourceField) -> sparse.csr_matrix:
    """Sparse 0/1 matrix with M[i, j] = 1 iff j is in the induced A_i."""
    inc = incidence(field)
    M = (inc @ inc.T).tocsr()
    M.sort_indices()
    M.data[:] = 1.0
    return M


def induced_neighborhoods(
    field: LatentSourceField, cap_terms: int | None = 10**8
) -> NeighborhoodSystem:
    """The support-overlap neighborhood system with the union pair cover.

    Local dependence holds by construction: indices outside A_i share no
    source with i.  ``cap_terms`` guards against materializing systems
    whose pair covers would be astronomically large.
    """
    users = np.bincount(incidence(field).indices, minlength=field.n_sources)
    estimate = int(users @ users)
    if cap_terms is not None and estimate > cap_terms:
        raise ComplexityCapExceeded(
            f"induced system would hold ~{estimate} neighbor entries (cap {cap_terms})"
        )
    M = overlap_matrix(field)
    return make_system(np.split(M.indices, M.indptr[1:-1]))


# ---------------------------------------------------------------------------
# Builders


def _columnwise(fn: Callable) -> Callable:
    """An evaluator that passes the K slots to ``fn`` as separate arrays."""
    return lambda G: fn(*(G[..., k] for k in range(G.shape[-1])))


def _sum_columns(G: np.ndarray) -> np.ndarray:
    out = G[..., 0]
    for k in range(1, G.shape[-1]):
        out = out + G[..., k]
    return out


def build_iid_field(
    n: int, source: Source, evaluator: Callable | None = None, center: bool = True
) -> LatentSourceField:
    """n independent copies of evaluator(source)."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return LatentSourceField(
        sources=(source,) * n,
        supports=np.arange(n)[:, None],
        ev=_sum_columns if evaluator is None else _columnwise(evaluator),
        center=center,
        metadata={"family": "iid", "n": n, "index_transitive": True},
    )


def build_m_dependent(
    n: int,
    m: int,
    source: Source,
    window_evaluator: Callable | None = None,
    center: bool = True,
) -> LatentSourceField:
    """Stationary m-dependent field: X_i = w(U_i, ..., U_{i+m}).

    Windows overlap iff |i - j| <= m, so A_i = [i-m, i+m] among valid
    indices; m = 0 reduces to an iid field.
    """
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    if m < 0:
        raise InvalidSize(f"m must be >= 0, got {m}")
    return LatentSourceField(
        sources=(source,) * (n + m),
        supports=np.arange(n)[:, None] + np.arange(m + 1),
        ev=_sum_columns if window_evaluator is None else _columnwise(window_evaluator),
        center=center,
        metadata={"family": "m_dependent", "n": n, "m": m},
    )


def build_graph_dependency(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    source: Source,
    evaluator: Callable | None = None,
    center: bool = True,
) -> LatentSourceField:
    """Dependency-graph field: one source per vertex and per edge,
    X_i = ev(own source, incident edge sources).

    A custom ``evaluator`` receives 1 + max_degree arguments; those beyond
    a vertex's own degree read 0.  Induced A_i is the closed neighborhood
    of i, so with the union pair cover kappa <= 2d and tau <= 4d^2 for
    maximal degree d >= 3 (2kappa^2 in general).  An edgeless graph
    reduces to an iid field.
    """
    if n_vertices < 1:
        raise InvalidSize(f"n_vertices must be >= 1, got {n_vertices}")
    edges = [tuple(sorted((int(u), int(v)))) for u, v in edges]
    if any(u == v for u, v in edges) or len(set(edges)) != len(edges):
        raise ValueError("graph must be simple (no loops, no multi-edges)")
    if any(u < 0 or v >= n_vertices for u, v in edges):
        raise ValueError("edge endpoint out of range")
    incident: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(n_vertices + e)
        incident[v].append(n_vertices + e)
    max_degree = max(len(inc) for inc in incident)
    supports = np.full((n_vertices, 1 + max_degree), -1, dtype=np.int64)
    for i, inc in enumerate(incident):
        supports[i, : 1 + len(inc)] = (i, *inc)
    return LatentSourceField(
        sources=(source,) * (n_vertices + len(edges)),
        supports=supports,
        ev=_sum_columns if evaluator is None else _columnwise(evaluator),
        center=center,
        metadata={
            "family": "graph",
            "n": n_vertices,
            "edges": edges,
            "max_degree": max_degree,
        },
    )


def build_ustat_field(
    block_sizes: Sequence[int],
    m: int,
    kernel: Callable,
    source: Source,
    theta: float | None = None,
    cap: int = DEFAULT_INDEX_CAP,
) -> LatentSourceField:
    """Distributed U-statistic field over k blocks of sample points.

    One field index per (block, m-subset); X = w_i (h(points) - theta)
    with w_i = n_i / (N C(n_i, m)), so the field sum equals U_d - theta.
    A single block recovers the classical U-statistic, up to the recorded
    normalization.  theta is computed exactly from the source when not
    supplied.
    """
    block_sizes = [int(b) for b in block_sizes]
    if any(b < m for b in block_sizes):
        raise BlockTooSmall(f"every block needs >= m={m} points, got {block_sizes}")
    if m < 1:
        raise InvalidSize(f"kernel degree m must be >= 1, got {m}")
    N = sum(block_sizes)
    n_idx = sum(math.comb(b, m) for b in block_sizes)
    if n_idx > cap:
        raise EnumerationCapExceeded(f"{n_idx} field indices exceed cap {cap}")
    if theta is None:
        if not isinstance(source, DiscreteSource):
            raise EnumerationCapExceeded(
                "theta must be supplied for continuous sources"
            )
        if len(source.values) ** m > DEFAULT_ENUM_CAP:
            raise EnumerationCapExceeded("kernel mean enumeration too large")
        probs, grid = product_grid([source] * m)
        theta = float(np.sum(probs * kernel(*grid.T)))
    subsets, weights, block_slices = [], [], []
    offset = 0
    for b in block_sizes:
        sub = sorted(itertools.combinations(range(b), m), key=lambda t: t[::-1])
        start = sum(len(s) for s in subsets)
        subsets.append(np.asarray(sub, dtype=np.int64).reshape(-1, m) + offset)
        weights.append(np.full(len(sub), b / (N * math.comb(b, m))))
        block_slices.append((start, start + len(sub)))
        offset += b
    h = _columnwise(kernel)
    return LatentSourceField(
        sources=(source,) * N,
        supports=np.concatenate(subsets),
        ev=lambda G, w: w * (h(G) - theta),
        params=(np.concatenate(weights),),
        center=False,
        means=np.zeros(n_idx),
        metadata={
            "family": "ustat",
            "m": m,
            "theta": theta,
            "block_sizes": block_sizes,
            "block_slices": block_slices,
            "index_transitive": len(block_sizes) == 1,
            "sum_is": "U_d - theta",
        },
    )


def admissible_tuples(
    n: int, gaps: Sequence[int | None], exact_gaps: bool = False
) -> list[tuple[int, ...]]:
    """Increasing index tuples (0-based) with i_{j+1} - i_j <= gaps[j];
    ``None`` encodes an unconstrained (infinite) gap.  With ``exact_gaps``
    finite gaps must be met exactly (the exactly-constrained variant)."""
    tuples: list[tuple[int, ...]] = []
    l = len(gaps) + 1

    def extend(prefix: tuple[int, ...]):
        j = len(prefix)
        if j == l:
            tuples.append(prefix)
            return
        if not prefix:
            lo, hi = 0, n
        elif gaps[j - 1] is None:
            lo, hi = prefix[-1] + 1, n
        elif exact_gaps:
            lo = prefix[-1] + gaps[j - 1]
            hi = min(n, lo + 1)
        else:
            lo = prefix[-1] + 1
            hi = min(n, prefix[-1] + gaps[j - 1] + 1)
        for t in range(lo, hi):
            if n - t < l - j:
                break
            extend(prefix + (t,))

    extend(())
    return tuples


def gap_order(gaps: Sequence[int | None]) -> int:
    """b = 1 + #infinite gaps: the growth exponent |I| = Theta(n^b)."""
    return 1 + sum(1 for g in gaps if g is None)


def build_constrained_ustat_field(
    n: int,
    m: int,
    f: Callable,
    gaps: Sequence[int | None],
    source: Source,
    window_evaluator: Callable | None = None,
    known_mean: float | None = None,
    cap: int = DEFAULT_INDEX_CAP,
) -> LatentSourceField:
    """Constrained U-statistic field over a stationary m-dependent sequence.

    The underlying sequence is xi_t = w(U_t, ..., U_{t+m}); field indices
    are the admissible tuples and X = f(xi over tuple) - mean.  A support
    row concatenates the tuple's windows, so overlapping windows repeat a
    source.  Induced neighborhoods combine tuple overlap with gap-<=-m
    interference, which is exactly the union of the overlap and
    proximity sets.
    """
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    gaps = tuple(None if g is None else int(g) for g in gaps)
    tuples = admissible_tuples(n, gaps)
    if not tuples:
        raise EmptyIndexSet(f"no admissible tuple for n={n}, gaps={gaps}")
    if len(tuples) > cap:
        raise EnumerationCapExceeded(f"{len(tuples)} tuples exceed cap {cap}")
    window = window_evaluator
    if window is None:
        window = (lambda u: u) if m == 0 else (lambda *cols: sum(cols))
    l, width = len(gaps) + 1, m + 1

    def ev(G):
        seq = [
            window(*(G[..., j * width + d] for d in range(width))) for j in range(l)
        ]
        return f(*seq)

    windows = np.asarray(tuples, dtype=np.int64)[:, :, None] + np.arange(width)
    return LatentSourceField(
        sources=(source,) * (n + m),
        supports=windows.reshape(len(tuples), l * width),
        ev=ev,
        center=True,
        means=None if known_mean is None else np.full(len(tuples), float(known_mean)),
        metadata={
            "family": "constrained_ustat",
            "n": n,
            "m": m,
            "gaps": gaps,
            "b": gap_order(gaps),
            "tuples": tuples,
        },
    )


def _pattern_indicator(tau: Sequence[int]) -> Callable:
    taus = np.asarray(tau, dtype=float)

    def f(*xs):
        out = np.ones_like(np.asarray(xs[0], dtype=float))
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                out = out * ((np.asarray(xs[a]) - np.asarray(xs[b])) * (taus[a] - taus[b]) > 0)
        return out

    return f


def build_pattern_field(
    n: int, tau: Sequence[int], gaps: Sequence[int | None], cap: int = DEFAULT_INDEX_CAP
) -> LatentSourceField:
    """Permutation-pattern counting field via the rank construction:
    iid Uniform(0,1) sources stand in for the permutation values, since
    only order relations enter the indicator.  Exact mean is 1/l!."""
    l = len(tau)
    if sorted(tau) != list(range(1, l + 1)):
        raise ValueError("tau must be a permutation of 1..l")
    field = build_constrained_ustat_field(
        n=n,
        m=0,
        f=_pattern_indicator(tau),
        gaps=gaps,
        source=ContinuousSource("uniform"),
        known_mean=1.0 / math.factorial(l),
        cap=cap,
    )
    return dataclasses.replace(field, metadata={
        **field.metadata, "family": "pattern", "tau": tuple(int(t) for t in tau),
    })


def build_word_field(
    word: Sequence[int],
    n: int,
    alphabet_size: int,
    gaps: Sequence[int | None],
    cap: int = DEFAULT_INDEX_CAP,
) -> LatentSourceField:
    """Word-occurrence counting field over iid uniform letters 0..k-1."""
    w = np.asarray(word, dtype=float)

    def f(*xs):
        out = np.ones_like(np.asarray(xs[0], dtype=float))
        for k, x in enumerate(xs):
            out = out * (np.asarray(x) == w[k])
        return out

    field = build_constrained_ustat_field(
        n=n,
        m=0,
        f=f,
        gaps=gaps,
        source=uniform_letters(alphabet_size),
        cap=cap,
    )
    return dataclasses.replace(field, metadata={
        **field.metadata,
        "family": "word",
        "word": tuple(int(x) for x in word),
        "alphabet_size": alphabet_size,
    })


def build_decorated_graph_field(
    n: int,
    pattern_edges: Sequence[tuple[int, int]],
    edge_source: Source,
    h: Callable | None = None,
    decoration: Sequence[float] | None = None,
    cap: int = DEFAULT_INDEX_CAP,
) -> LatentSourceField:
    """Decorated injective homomorphism field over iid edge variables.

    Field indices are the injections phi of the pattern's vertices into
    [n]; X_phi is the centered product over pattern edges uv of
    h(decoration(uv), g(phi(u), phi(v))), where g holds the C(n,2) edge
    sources of the complete host graph.  Induced A_phi is the set of
    injections whose image shares an edge with phi's image.
    """
    edges = [tuple(sorted((int(u), int(v)))) for u, v in pattern_edges]
    if not edges:
        raise ValueError("pattern must have at least one edge")
    if any(u == v for u, v in edges) or len(set(edges)) != len(edges):
        raise ValueError("pattern must be simple")
    v = max(max(e) for e in edges) + 1
    if n < v:
        raise InvalidSize(f"n={n} smaller than pattern order {v}")
    n_inj = math.perm(n, v)
    if n_inj > cap:
        raise GraphTooLarge(f"{n_inj} injections exceed cap {cap}")
    deco = np.ones(len(edges)) if decoration is None else np.asarray(decoration, dtype=float)
    if deco.shape != (len(edges),):
        raise ValueError("decoration must have one value per pattern edge")
    hh = h if h is not None else (lambda x, y: x * y)

    def ev(G):
        out = hh(deco[0], G[..., 0])
        for e in range(1, G.shape[-1]):
            out = out * hh(deco[e], G[..., e])
        return out

    injections = np.array(list(itertools.permutations(range(n), v)), dtype=np.int64)
    edge_ids = np.empty((n_inj, len(edges)), dtype=np.int64)
    for e, (a, b) in enumerate(edges):
        ua = np.minimum(injections[:, a], injections[:, b])
        ub = np.maximum(injections[:, a], injections[:, b])
        edge_ids[:, e] = ua * (2 * n - ua - 1) // 2 + (ub - ua - 1)
    metadata = {
        "family": "decorated_graph",
        "n": n,
        "v": v,
        "pattern_edges": edges,
        "injections": injections,
        "edge_ids": edge_ids,
        "index_transitive": True,
    }
    if h is None and decoration is None and sorted(edges) == [(0, 1), (0, 2), (1, 2)]:
        metadata["batch_sum"] = _triangle_batch_sum(n)
    return LatentSourceField(
        sources=(edge_source,) * math.comb(n, 2),
        supports=edge_ids,
        ev=ev,
        center=True,
        metadata=metadata,
    )


def _triangle_batch_sum(n: int) -> Callable:
    """Whole-field triangle sums, trace(A^3) per replication: one matrix
    product instead of gathering every injection."""
    triu = np.triu_indices(n, k=1)

    def batch_sum(rows: np.ndarray) -> np.ndarray:
        adj = np.zeros((rows.shape[0], n, n))
        adj[:, triu[0], triu[1]] = rows
        adj[:, triu[1], triu[0]] = rows
        return np.einsum("rij,rij->r", adj @ adj, adj)

    return batch_sum
