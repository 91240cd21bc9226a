"""Sampleable locally dependent random fields built from latent sources.

Every field value is a deterministic function of a small set of mutually
independent source variables.  A field stores which sources each index
reads as an ``(n, K)`` integer array ``supports`` (row i lists X_i's
source ids in argument order; -1 pads read a constant 0) and computes all
n values with **one** evaluator over the gathered source values,

    G[..., i, k] = U[..., supports[i, k]],      X = ev(G, *params),

where each entry of ``params`` is a per-index array (leading axis n).  The
evaluator treats every index alike: X_i depends only on row i of G and of
each param.  Indices whose support rows have the same coincidence
pattern, source laws and params therefore share one law.  A field groups
its indices by this signature once, at construction (``groups``); means,
exact norms and the Var(S) identity read that grouping.

Construction sorts each support row once: the validity check, the
coincidence pattern and the incidence record all read that sort.  A
signature part that is the same on every index is not packed (the laws
for a single law and no pad, the pattern when no row repeats an id, a
param with one value).  When no row holds a pad or a repeated id, the
sorted rows are the incidence indices as they stand.  Builders emit
their index tuples as arrays: :func:`admissible_tuples` grows an (N, l)
array one letter at a time, the decorated builder computes its
injections and edge ids on broadcast grids, and the U-statistic builder
mirrors lexicographic subsets into colex order.  Builders with an index
cap count their indices before they build any.

``incidence`` is the (n, n_sources) read-only ``neighborhood.Csr`` record
counting the slots of row i that read source s.  A sum field (evaluator
``_sum_columns``, as from the iid, m-dependent and graph builders) is
linear in its sources, X = incidence @ U - means and S = U @ c -
sum(means), c the column sums: its values are one product with that
record in index-major layout, with no gather, and its means are
incidence @ E[U], exact for every source law.  When its sources are
discrete on integers, its uncentered X lies on a lattice of
prod_i (max X_i - min X_i + 1) cells: where that is no more than the
outcome count, :func:`lattice_blocks` gives the law of X by adding one
source at a time to a dense table over the cells, in place of
:func:`outcome_blocks`' enumeration.

A field's outcome space is the product grid over the sources some index
reads (c_s > 0), as :func:`local_values` enumerates an index's: X does not
depend on the others, and every enumeration cap counts these outcomes.

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
of ``block_rows`` rows, one counter-based substream per block, so blocks
parallelize and every replication reproduces bit-for-bit.  A block takes
about 512 kB of raw stream (``rng.block_size``): 2^22 / n_sources rows
when every source is a fair two-point law, drawn one bit each
(``bit_draws``), 2^19 / n_sources rows when every source is discrete,
and 2^16 / n_sources rows otherwise (powers of two, at most 4096); the
rows are frozen with the field.  Any other discrete law is drawn one
random byte per value, looked up in its 256-entry code table
(:func:`_code_table`, built once per law): byte b picks the atom at the
count of thresholds 256 c_j at or below b, c_j the cumulative probs, and
a byte with a threshold strictly inside (b, b + 1) takes one
float more from the stream, so each atom keeps its probability to the
float's resolution.  A field of fair two-point sources is
drawn as packed random bits, and the bits stay packed as long as the
statistic allows, counted by one loop (:func:`_count_bits`) over a plan
of terms: weights for the set bits of segments of a row, and at lag d
for the bits ANDed with themselves shifted by d.  A sum field whose
every source is such a law on integers counts its S from them (its
``bit_plan``: lag 0 only, one term per source run, frozen with the
field and the summed means, :func:`draw_sums`).  For W2 and W2bar, such
a field of one source law with integer means, where n max|X| max|Y|
< 2^53, counts its index sums S, sum Y and sum X o Y by a plan built
once per run (:func:`index_sum_plan`): S and sum Y are linear in the
bits, and sum X o Y a quadratic form whose pairs of sources lie at a
few lags.  Every other field, and one whose plan would cost more than
its rows, expands its rows: :func:`draw_source_rows` expands a field of
fair two-point sources once, into source-major rows that the incidence
product reads in place.  The counts equal the sums of the expanded rows
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    BlockTooSmall,
    ComplexityCapExceeded,
    EmptyIndexSet,
    EnumerationCapExceeded,
    GraphTooLarge,
    InvalidSize,
)
from .neighborhood import CHUNK, Csr, NeighborhoodSystem, distinct, product_pattern
from .rng import BIT_DRAW, BYTE_DRAW, FLOAT_DRAW, STREAM_SAMPLE, block_size, substream

DEFAULT_ENUM_CAP = 2**24
DEFAULT_INDEX_CAP = 2**22
ENUM_BLOCK = 2**16
# largest float64 outcome matrix an enumeration holds: a walk's kept (M, n)
# values, or one row's gathered local grid
ENUM_BYTES_CAP = 2**30
INDUCED_CAP = 10**7  # most neighbor entries an induced system may hold
# largest gathered (reps, indices, K) block one evaluator call sees
GATHER_CELLS = 2**21
ADJ_CELLS = 2**16  # adjacency cells a triangle sum holds
CUT_WORK = 18  # work of one cut of a packed index-sum plan (see index_sum_plan)
# keys that a dense presence table may span per key it ids (see _key_ids)
DENSE_SPAN = 4


# ---------------------------------------------------------------------------
# Sources


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    @cached_property
    def codes(self) -> tuple[np.ndarray, ...]:
        """The law's byte code table (:func:`_code_table`), built at its
        first draw: a law that is only enumerated never needs it."""
        return _code_table(self.values, self.probs)


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


def _code_table(values, probs) -> tuple[np.ndarray, ...]:
    """(values, table, straddles, cuts) by which a byte b draws a k-point
    law: ``cuts`` are the thresholds 256 c_j of its cumulative probs c_j,
    j < k - 1, and b picks the atom count(cuts <= b), the value
    ``table[b]``.  A byte with a cut strictly inside (b, b + 1) (one of
    ``straddles``) picks count(cuts - b <= v) for a uniform float v
    instead, so atom j keeps probability p_j to the float's resolution
    (256 c_j - b is exact).  All read-only."""
    cuts = 256.0 * np.cumsum(probs)[:-1]
    vals = np.asarray(values, dtype=float)
    table = vals[np.searchsorted(cuts, np.arange(256), side="right")]
    straddles = np.array(sorted({int(c) for c in cuts if c < 256 and c % 1}), dtype=np.uint8)
    return tuple(_read_only(a) for a in (vals, table, straddles, cuts))


def _draw(source: Source, rng: np.random.Generator, shape: tuple[int, ...], out: np.ndarray,
          first: int = 0) -> np.ndarray:
    """Draw a block of ``shape`` draws of ``source``, in C order, write its
    rows ``first`` .. ``first + len(out) - 1`` to the C-contiguous float
    array ``out``, and return ``out``.  A discrete law takes one random
    byte per draw (the raw 64-bit words' bytes, low byte first), and then
    one float v per byte that straddles a threshold, in position order;
    only the rows written are looked up in its code table
    (:func:`_code_table`).  A continuous law draws the whole block, in
    place when ``out`` is the whole block."""
    k, width = len(out), math.prod(shape[1:])
    if isinstance(source, ContinuousSource):
        fill = rng.random if source.kind == "uniform" else rng.standard_normal
        if k == shape[0]:
            return fill(out=out)
        out[...] = fill(shape)[first:first + k]
        return out
    values, table, straddles, cuts = source.codes
    size = shape[0] * width
    raw = rng.bit_generator.random_raw(-(-size // 8)).astype("<u8", copy=False)
    codes = raw.view(np.uint8)[:size].reshape(shape)
    np.take(table, codes[first:first + k], out=out, mode="clip")
    if straddles.size:
        hit = codes == straddles[0]
        for s in straddles[1:]:
            hit |= codes == s
        pos = np.flatnonzero(hit)
        lo, hi = np.searchsorted(pos, (first * width, (first + k) * width))
        v = rng.random(pos.size)[lo:hi]
        pos = pos[lo:hi]
        b = codes.reshape(-1)[pos]
        # the bytes grouped by value, each group against its own cuts, so
        # memory stays linear in the bytes at any number of atoms
        order = np.argsort(b, kind="stable")
        counts = np.bincount(b, minlength=256)
        ends = np.cumsum(counts)
        atom = np.empty(pos.size, dtype=np.intp)
        for s in straddles.tolist():
            grp = order[ends[s] - counts[s]:ends[s]]
            atom[grp] = np.searchsorted(cuts - s, v[grp], side="right")
        np.put(out, pos - first * width, values[atom])
    return out


def _fair_bytes(rng: np.random.Generator, count: int) -> np.ndarray:
    """The packed bits of ``count`` fair two-point draws, big-endian within
    each byte: bit k is draw k, and 1 picks the second value."""
    return np.frombuffer(rng.bytes(-(-count // 8)), dtype=np.uint8)


def _fair_bits(rng: np.random.Generator, size) -> np.ndarray:
    """``size`` (an int or a shape) fair two-point draws as 0/1 codes."""
    count = int(np.prod(size))
    return np.unpackbits(_fair_bytes(rng, count), count=count).reshape(size)


def _is_fair_two_point(source: Source) -> bool:
    """True for a two-point source drawn as bits (see :func:`_fair_bits`)."""
    return (isinstance(source, DiscreteSource) and len(source.values) == 2
            and source.probs[0] == source.probs[1])


def product_grid(sources: Sequence[Source], start: int = 0, stop: int | None = None):
    """(probs, rows) for outcomes start..stop-1 of the product grid over
    discrete ``sources``: rows[k] is one joint outcome, with sources[0] as
    the most significant mixed-radix digit."""
    if any(not isinstance(s, DiscreteSource) for s in sources):
        raise EnumerationCapExceeded("continuous source; no exact grid")
    stop = math.prod(len(s.values) for s in sources) if stop is None else stop
    rows = np.empty((stop - start, len(sources)))
    p = np.ones(stop - start)
    # source s holds each digit for a run of `inner` outcomes and repeats
    # its digits every `cycle`: whole cycles are written by broadcasting,
    # the partial ones at the block's ends run by run, so no outcome is
    # divided and nothing larger than the block is built
    inner = 1
    for s in range(len(sources) - 1, -1, -1):
        values, probs = sources[s].values, sources[s].probs
        cycle = inner * len(values)
        lo = min(-(-start // cycle) * cycle, stop)  # first whole cycle
        hi = max(stop // cycle * cycle, lo)
        if hi > lo:  # (cycles, digit, run) views of the whole cycles
            rows[lo - start:hi - start].reshape(-1, len(values), inner, len(sources))[..., s] = \
                np.asarray(values)[:, None]
            whole = p[lo - start:hi - start].reshape(-1, len(values), inner)
            whole *= np.asarray(probs)[:, None]
        for a, b in ((start, lo), (hi, stop)):
            while a < b:  # one run of one digit per step
                end = min((a // inner + 1) * inner, b)
                digit = a // inner % len(values)
                rows[a - start:end - start, s] = values[digit]
                p[a - start:end - start] *= probs[digit]
                a = end
        inner = cycle
    return p, rows


# ---------------------------------------------------------------------------
# The field type


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
    docstring).  ``means`` holds E X_i, and every value and sum the field
    gives is centered by them.  They are computed exactly at construction
    when none are given (a field other than a sum field that reads
    continuous sources must be given its means).
    ``groups`` is (first, inverse) of ``np.unique`` over the indices'
    :func:`_signatures`: groups in lexicographic order of the signatures,
    each led by its lowest index.  ``incidence`` counts the
    slots reading each source, ``counts`` holds its column sums c_s (a
    sum field's S is U @ c less ``mean_sum``, the summed means) and
    ``count_starts`` the starts of the runs of equal c.  ``bit_draws`` says whether every
    source is a fair two-point law, drawn as one random bit;
    ``block_rows`` is the rows B of a sample block, ``rng.block_size`` at
    the bits each draw takes.  ``bit_plan`` is the plan by which
    :func:`draw_sums` counts S from the packed bits (:func:`_sum_plan`),
    None off that route.  Everything is read-only.
    """

    sources: tuple[Source, ...]
    supports: np.ndarray
    ev: Callable
    params: tuple = ()
    means: np.ndarray | None = None
    metadata: Mapping = dc_field(default_factory=dict)
    runs: tuple = dc_field(init=False, repr=False)
    law_ids: np.ndarray = dc_field(init=False, repr=False)
    groups: tuple = dc_field(init=False, repr=False)
    incidence: Csr = dc_field(init=False, repr=False)
    counts: np.ndarray = dc_field(init=False, repr=False)
    count_starts: np.ndarray = dc_field(init=False, repr=False)
    mean_sum: float = dc_field(init=False, repr=False)
    bit_draws: bool = dc_field(init=False, repr=False)
    block_rows: int = dc_field(init=False, repr=False)
    bit_plan: tuple | None = dc_field(init=False, repr=False)

    def __post_init__(self):
        put = object.__setattr__
        sources = tuple(self.sources)
        supports = np.array(self.supports, dtype=np.int64, ndmin=2)
        # each row's source ids, ascending: the one sort that the validity
        # check, the coincidence pattern and the incidence record read
        srt = np.sort(supports, axis=-1)
        if supports.ndim != 2 or (
            srt.size and not -1 <= srt[:, 0].min() <= srt[:, -1].max() < len(sources)
        ):
            raise ValueError("supports must be an (n, K) array of source ids, -1 for a pad")
        params = tuple(_read_only(np.array(p)) for p in self.params)
        n, K = supports.shape
        if any(p.shape[:1] != (n,) for p in params):
            raise ValueError("every param needs one entry per index")
        runs = _source_runs(sources)
        put(self, "sources", sources)
        put(self, "supports", _read_only(supports))
        put(self, "params", params)
        put(self, "runs", runs)
        put(self, "law_ids", _read_only(_law_ids(runs)))
        put(self, "metadata", dict(self.metadata))
        if self.means is not None:
            put(self, "means", _read_only(np.array(self.means, dtype=float)))
        new = _new_ids(srt)
        cols = _signatures(supports, srt, new, self.law_ids, (
            *params, *(() if self.means is None else (self.means,))))
        if cols:
            _, first, inverse = np.unique(_pack(cols), return_index=True, return_inverse=True)
        else:  # one signature: every index in group 0
            first, inverse = np.zeros(min(n, 1), dtype=np.int64), np.zeros(n, dtype=np.int64)
        put(self, "groups", (_read_only(first), _read_only(inverse)))
        if new.all() and srt[:, :1].min(initial=0) >= 0:
            # no pad and no repeated id: the sorted rows are the record, unmasked
            inc = Csr((n, len(sources)), np.arange(n + 1) * K, srt.reshape(-1), np.ones(n * K),
                      np.arange(n).repeat(K))
            c = np.bincount(inc.indices, minlength=len(sources)).astype(float)
        else:  # a source read by several slots of a row is one entry counting them
            valid = srt >= 0
            new &= valid
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(new.sum(axis=1), out=indptr[1:])
            starts = np.flatnonzero(new[valid])
            counts = np.diff(np.append(starts, valid.sum())).astype(float)
            inc = Csr((n, len(sources)), indptr, srt[new], counts)
            c = np.bincount(inc.indices, inc.data, len(sources))
        put(self, "incidence", inc)
        put(self, "counts", _read_only(c))
        put(self, "count_starts", _read_only(np.flatnonzero(np.r_[True, c[1:] != c[:-1]])))
        if self.means is None and self.ev is _sum_columns:
            # E U: sum p v for a discrete source, 1/2 for uniform, 0 for normal
            mu = [np.dot(src.probs, src.values) if isinstance(src, DiscreteSource)
                  else 0.5 * (src.kind == "uniform") for _, src in runs]
            put(self, "means", _read_only(inc @ np.repeat(mu, [sl.stop - sl.start for sl, _ in runs])))
        elif self.means is None:
            put(self, "means", _read_only(compute_means(self)))
        put(self, "mean_sum", float(np.sum(self.means)))
        bits = all(_is_fair_two_point(src) for _, src in runs)
        put(self, "bit_draws", bits)
        draw = BIT_DRAW if bits else BYTE_DRAW if self.is_enumerable() else FLOAT_DRAW
        put(self, "block_rows", block_size(len(sources), draw))
        put(self, "bit_plan", _sum_plan(self))
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
        """The product of the read sources' support sizes, the outcomes
        :func:`outcome_blocks` walks; None if any source is continuous."""
        if not self.is_enumerable():
            return None
        return math.prod(len(src.values) ** int(np.count_nonzero(self.counts[sl]))
                         for sl, src in self.runs)


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
    GATHER_CELLS (at least one index a block): one slice while the whole
    gather fits."""
    step = max(1, GATHER_CELLS // max(1, reps * width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def local_values(field: LatentSourceField, idx):
    """An iterator of (part, probs, X) for blocks of the indices ``idx``:
    X[r, k] is the uncentered X_{idx[part[r]]} at point k of the product
    grid over the sources that index reads, in increasing order (the first
    source the most significant digit).  Indices whose sources have the
    same laws share one grid and one evaluator call (at most GATHER_CELLS
    gathered).  Raises :class:`EnumerationCapExceeded`, when called, for
    an index whose gathered grid (outcomes x K values) would take more
    than ENUM_BYTES_CAP bytes."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    S, K = field.supports[idx], field.supports.shape[1]
    srt = np.sort(S, axis=1)
    # per index: its distinct sources in increasing order, then n_sources fillers
    used = np.where((srt < 0) | (np.diff(srt, axis=1, prepend=-1) == 0), field.n_sources, srt)
    used = np.sort(used, axis=1)
    local = np.where(S >= 0, (used[:, None, :] < S[:, :, None]).sum(axis=2), -1)
    laws = np.append(field.law_ids, -1)[used] + 1
    batches = _pack([np.zeros(idx.size, dtype=np.int64), *laws.T])
    grids = []  # (indices, sources) of each batch
    for key in distinct(batches):
        sel = np.flatnonzero(batches == key)
        sources = [field.sources[s] for s in used[sel[0]] if s < field.n_sources]
        count = math.prod(len(s.values) for s in sources if isinstance(s, DiscreteSource))
        if count * K * 8 > ENUM_BYTES_CAP:
            raise EnumerationCapExceeded(
                f"index {idx[sel[0]]}: {count} outcomes x {K} values need {count * K * 8} "
                f"bytes, over the cap of {ENUM_BYTES_CAP}"
            )
        grids.append((sel, sources))

    def blocks():
        for sel, sources in grids:
            probs, grid = product_grid(sources)
            grid = grid if grid.size else np.zeros((1, 1))
            step = max(1, GATHER_CELLS // (probs.size * K))
            for part in np.split(sel, np.arange(step, sel.size, step)):
                X = field.ev(_gather(grid, local[part]), *(p[idx[part]] for p in field.params))
                X = np.broadcast_to(np.asarray(X, dtype=float), (probs.size, part.size))
                yield part, probs, np.ascontiguousarray(X.T)  # one contiguous row per index
    return blocks()


# ---------------------------------------------------------------------------
# Signatures: indices with one law by construction


def _pack(cols) -> np.ndarray:
    """One int64 per row of equal-length nonnegative integer columns; equal
    rows get equal values, ordered as the rows are lexicographically
    (columns are re-densified before they could overflow)."""
    out = np.zeros(len(cols[0]), dtype=np.int64)
    span = 1
    for col in cols:
        radix = int(col.max()) + 1 if col.size else 1
        if span * radix >= 2**62:
            out = np.unique(out, return_inverse=True)[1].reshape(-1)
            span = int(out.max()) + 1
        out = out * radix + col
        span *= radix
    return out


def _key_ids(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys, ascending; the id of each key among them) of
    nonnegative integer keys below ``span``, as ``np.unique`` gives them
    with its inverse: by a dense presence table when ``span`` is at most
    DENSE_SPAN times the number of keys, else by sorting."""
    if span <= DENSE_SPAN * keys.size:
        present = np.zeros(span, dtype=bool)
        present[keys] = True
        return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]
    distinct_keys, ids = np.unique(keys, return_inverse=True)
    return distinct_keys, ids.reshape(-1)


def _new_ids(srt: np.ndarray) -> np.ndarray:
    """new[r, c]: slot c of the sorted row ``srt[r]`` holds another id than
    slot c - 1 (slot 0 always), compared along the flat array."""
    flat = srt.reshape(-1)
    new = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    new[::max(srt.shape[1], 1)] = True
    return new.reshape(srt.shape)


def _first_slots(S: np.ndarray, srt: np.ndarray) -> np.ndarray:
    """Coincidence pattern: F[r, c] is the first slot of row r holding the
    same source id as slot c; ``srt`` is S sorted row by row.  Only rows
    that repeat an id (a pad included) are argsorted; every other row is
    0..K-1."""
    F = np.tile(np.arange(S.shape[1]), (S.shape[0], 1))
    rep = distinct(np.flatnonzero(srt[:, 1:] == srt[:, :-1]) // max(S.shape[1] - 1, 1))
    order = np.argsort(S[rep], axis=1, kind="stable")
    ordered = srt[rep]  # the values in argsort order
    starts = np.zeros(order.shape, dtype=np.int64)
    starts[:, 1:] = np.where(ordered[:, 1:] != ordered[:, :-1], np.arange(1, S.shape[1]), 0)
    first = np.take_along_axis(order, np.maximum.accumulate(starts, axis=1), axis=1)
    F[rep[:, None], order] = first
    return F


def _signatures(S: np.ndarray, srt: np.ndarray, new: np.ndarray, law_ids: np.ndarray,
                params: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The columns of the full signatures of the indices whose support rows
    are ``S`` and, sorted row by row, ``srt`` (``new`` its
    :func:`_new_ids`), over sources of the laws ``law_ids``: the
    coincidence pattern of S, the source laws slot by slot (pads as one
    more law), then the per-index ``params`` (a field's params and means),
    a param of several columns column by column, each value as its
    ``np.unique`` rank among all the param's values (so -0.0 and 0.0 are
    one value, and so are all NaNs), all nonnegative ints whose rows order
    as the signatures do lexicographically.  Equal signatures mean one
    law.  A part that is the same on every row is not built: the pattern
    when no row repeats an id, the laws for a single law and no pad, a
    param with one value."""
    cols = []
    if not new.all():
        cols.extend(_first_slots(S, srt).T)
    if law_ids.max(initial=0) > 0 or (srt[:, :1] < 0).any():
        cols.extend(np.append(law_ids, law_ids.max(initial=0) + 1)[S].T)
    for p in params:
        flat = p.reshape(len(S), -1)
        if not (flat == flat[:1]).all():
            cols.extend(np.unique(flat, return_inverse=True)[1].reshape(flat.shape).T)
    return cols


# ---------------------------------------------------------------------------
# Means


def compute_means(field: LatentSourceField) -> np.ndarray:
    """E X_i for every index, exact by local enumeration once per group of
    the field's ``groups`` (whose indices share one law).  Raises
    ValueError when the indices read a continuous source: such a field
    needs its ``means`` given."""
    first, inverse = field.groups
    read = distinct(field.supports[first])
    if any(not isinstance(field.sources[s], DiscreteSource) for s in read[read >= 0]):
        raise ValueError("means must be given for a field whose values read continuous sources")
    group_means = np.empty(first.size)
    for part, probs, X in local_values(field, first):
        group_means[part] = [probs @ x for x in X]
    return group_means[inverse]


# ---------------------------------------------------------------------------
# Sampling and evaluation


# the bits of each byte value, first bit first
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


def _sample_blocks(reps: np.ndarray, B: int):
    """(block, positions in ``reps``) of every sample block the
    replications fall in, blocks in increasing order."""
    order = np.argsort(reps, kind="stable")
    blocks, starts = np.unique(reps[order] // B, return_index=True)
    return zip(blocks.tolist(), np.split(order, starts[1:]))


def draw_source_rows(
    field: LatentSourceField,
    master_seed: int,
    reps: Sequence[int],
    path: tuple[int, ...] = (),
) -> np.ndarray:
    """Source draws for the given replication indices, one row each.

    Replication r is row r % B of block r // B, and each block is drawn
    whole from the substream (master_seed, STREAM_SAMPLE, *path, block),
    B = ``field.block_rows``; so a row depends only on (seed, path, r).
    In a field of one source run, rows of a block that ``reps`` holds in
    order, one after another, are drawn straight into the result; any
    other rows are taken from each run's whole block, drawn into one
    buffer per run that is reused across blocks.  When every source
    is a fair two-point law (``bit_draws``) the rows are gathered as 0/1
    codes and expanded once into a source-major array: the result is the
    transpose of a C-contiguous (n_sources, reps) array.
    """
    reps = np.asarray(reps, dtype=np.int64).reshape(-1)
    if field.bit_draws:
        return _fair_rows(field, master_seed, reps, path)
    B = field.block_rows
    out = np.empty((reps.size, field.n_sources))
    bufs = [np.empty((B, sl.stop - sl.start)) for sl, _ in field.runs]
    for b, hit in _sample_blocks(reps, B):
        rng = substream(master_seed, STREAM_SAMPLE, *path, b)
        rows = reps[hit] % B
        lo, first, k = hit[0], rows[0], hit.size
        # the block's rows first .. first + k - 1, wanted at lo .. lo + k - 1
        in_order = (np.array_equal(hit, np.arange(lo, lo + k))
                    and np.array_equal(rows, np.arange(first, first + k)))
        for (sl, src), buf in zip(field.runs, bufs):
            if in_order and len(bufs) == 1:
                _draw(src, rng, buf.shape, out[lo:lo + k], first)
            else:
                out[hit, sl] = _draw(src, rng, buf.shape, buf)[rows]
    return out


def _fair_rows(field: LatentSourceField, master_seed: int, reps: np.ndarray,
               path: tuple[int, ...]) -> np.ndarray:
    """:func:`draw_source_rows` of a field of fair two-point sources."""
    B, n = field.block_rows, field.n_sources
    # 0/1 codes, in whole groups of 8 rows and whole 8-byte words a row
    out = np.zeros((-(-reps.size // 8) * 8, -(-n // 8) * 8), dtype=np.uint8)
    for b, hit in _sample_blocks(reps, B):
        rng = substream(master_seed, STREAM_SAMPLE, *path, b)
        parts = [_fair_bits(rng, (B, sl.stop - sl.start)) for sl, _ in field.runs]
        block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        out[hit, :n] = block[reps[hit] % B]
    # each source's codes packed 8 replications to a byte, first bit first
    # (a code shifted by at most 7 stays in its byte, so a word op packs 8
    # sources), then expanded through a per-law table of the 8 values
    # each byte stands for
    words = out.view(np.uint64)
    packed = words[0::8] << np.uint64(7)
    for k in range(1, 8):
        packed |= words[k::8] << np.uint64(7 - k)
    packed = np.ascontiguousarray(packed.view(np.uint8)[:, :n].T)
    eight = np.dtype((np.void, 64))  # 8 float64 values as one item
    rows = np.empty(packed.shape, dtype=eight)
    for sl, src in field.runs:
        table = np.asarray(src.values, dtype=float)[_BYTE_BITS]
        np.take(table.view(eight).reshape(256), packed[sl], out=rows[sl], mode="clip")
    return np.ascontiguousarray(rows.view(float)[:, :reps.size]).T


def _words(parts) -> np.ndarray:
    """The packed bit string of big-endian byte strings ``parts``, one
    after another, as uint64 words whose highest bit comes first, padded
    with zeros to a whole word."""
    size = sum(p.size for p in parts)
    out = np.zeros(-(-size // 8), dtype=">u8")
    np.concatenate(parts, out=out.view(np.uint8)[:size])
    return out.astype(np.uint64)


def _ones_before(words: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Set bits of the packed bit string ``words`` (see :func:`_words`)
    before each bit position of ``pos`` (at most 64 * words.size)."""
    prefix = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(np.bitwise_count(words), out=prefix[1:])
    word = pos >> 6
    # the leading (pos & 63) bits of the partial word, none at a word's
    # start (a position at the very end reads a clipped word, shifted out)
    head = (words[np.minimum(word, words.size - 1)] >> 1) >> (63 - (pos & 63)).astype(np.uint64)
    return prefix[word] + np.bitwise_count(head)


def _and_shifted(words: np.ndarray, lag: int) -> np.ndarray:
    """The packed bit string (see :func:`_words`) whose bit k is bit k AND
    bit k + lag of ``words``, with 0 past the end."""
    q, r = lag >> 6, lag & 63
    out = np.zeros_like(words)
    out[:words.size - q] = words[q:]
    if r:
        out <<= r
        out[:words.size - q - 1] |= words[q + 1:] >> (64 - r)
    out &= words
    return out


def _sum_plan(field: LatentSourceField):
    """The plan (see :func:`_count_bits`) by which :func:`draw_sums` counts
    the uncentered S = sum_s c_s U_s of a sum field over fair two-point
    laws on integers (a, b) from its bits: base sum_s c_s a_s, and per
    source run one lag-0 term whose segments of equal c weigh a set bit by
    c (b - a).  None for any other field, or when sum_s c_s |v_s| reaches
    2^53, where a float sum stops being exact.  Built once, with the field
    (its ``bit_plan``), as read-only arrays."""
    if field.ev is not _sum_columns or not field.bit_draws or not all(
        float(v).is_integer() for _, src in field.runs for v in src.values
    ):
        return None
    c = field.counts
    if sum(c[sl].sum() * max(map(abs, src.values)) for sl, src in field.runs) >= 2.0**53:
        return None
    base, runs = 0, []
    for sl, src in field.runs:
        a, b = (int(v) for v in src.values)
        weight = c[sl].astype(np.int64)
        base += int(weight.sum()) * a
        runs.append(((0, *_segments(np.arange(weight.size), weight[:, None] * (b - a))),))
    return _read_only(np.array([base])), tuple(runs)


def _packed_groups(field: LatentSourceField, master_seed: int, reps: np.ndarray, path: tuple[int, ...]):
    """Yield (hit, [(bits, head) per source run]) per group of the sample
    blocks that ``reps`` fall in, about 128 kB of bits at a time: ``hit``
    are the positions in ``reps`` that the group's blocks hold, ``bits``
    the packed bits of the run in those blocks, block after block, and
    ``head`` the bit where each hit's row of the run starts."""
    B, widths = field.block_rows, [sl.stop - sl.start for sl, _ in field.runs]
    blocks = list(_sample_blocks(reps, B))
    step = max(1, 2**20 // (B * field.n_sources))  # blocks per 128 kB of bits
    for g in range(0, len(blocks), step):
        group = blocks[g:g + step]
        raws = []  # per block, the bytes of each run
        for b, _ in group:
            rng = substream(master_seed, STREAM_SAMPLE, *path, b)
            raws.append([_fair_bytes(rng, B * width) for width in widths])
        hit = np.concatenate([h for _, h in group])
        at = np.repeat(np.arange(len(group)), [h.size for _, h in group])  # block of each hit
        yield hit, [(_words([r[k] for r in raws]), at * (8 * raws[0][k].size) + reps[hit] % B * width)
                    for k, width in enumerate(widths)]


def _count_bits(field: LatentSourceField, plan, master_seed: int, reps: Sequence[int],
                path: tuple[int, ...]) -> np.ndarray:
    """The int64 sums of a packed-bit ``plan`` (base, per source run its
    terms) over the given replications, shape (reps, base.size): base
    plus, for each term (lag, cuts, slopes) of a run, the set bits
    u_s u_{s + lag} (u_s for lag 0) in each segment [cuts[k], cuts[k + 1])
    of the run's row, weighed by the row slopes[k].  Each block's bits are
    read from the stream that :func:`draw_source_rows` expands, and a
    term counts the word popcounts of the bits ANDed with themselves
    shifted by its lag, over about 128 kB of bits at a time
    (:func:`_packed_groups`)."""
    base, runs = plan
    reps = np.asarray(reps, dtype=np.int64).reshape(-1)
    out = np.tile(base, (reps.size, 1))
    for hit, parts in _packed_groups(field, master_seed, reps, path):
        for (bits, head), terms in zip(parts, runs):
            for lag, cuts, slopes in terms:
                ones = _ones_before(_and_shifted(bits, lag) if lag else bits, head[:, None] + cuts)
                out[hit] += np.diff(ones, axis=1) @ slopes
    return out


def draw_sums(
    field: LatentSourceField,
    master_seed: int,
    reps: Sequence[int],
    path: tuple[int, ...] = (),
) -> np.ndarray:
    """Field sums S of the given replications, equal bit for bit to
    ``sum_values(field, draw_source_rows(field, master_seed, reps, path))``.

    A sum field whose sources are all fair two-point laws on integers
    never expands its draws: its plan (``bit_plan``) counts the
    uncentered S from the packed bits (:func:`_count_bits`), exact in
    int64, which converts to the same float before ``mean_sum`` is
    subtracted.  Every other field draws its rows.
    """
    if field.bit_plan is None:
        return sum_values(field, draw_source_rows(field, master_seed, reps, path))
    (s,) = _count_bits(field, field.bit_plan, master_seed, reps, path).T
    return s.astype(float) - field.mean_sum


def _value_range(field: LatentSourceField) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): each uncentered X_i of a sum field over discrete sources
    with every source at its lowest, and at its highest, value."""
    widths = [sl.stop - sl.start for sl, _ in field.runs]
    return tuple(field.incidence @ np.repeat([pick(src.values) for _, src in field.runs], widths)
                 for pick in (min, max))


def _int_sums(at: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(at, weights, size), exact in int64."""
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, at, weights)
    return out


def _segments(pos: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, slopes) of the weight rows at ascending positions ``pos``:
    a segment [cuts[k], cuts[k + 1]) is a run of consecutive positions
    with one weight row, slopes[k], or a gap between runs, with zeros."""
    new = np.r_[True, (np.diff(pos) != 1) | np.any(np.diff(weights, axis=0) != 0, axis=1)]
    first = np.flatnonzero(new)
    ends = np.append(pos[first[1:] - 1], pos[-1]) + 1
    cuts = distinct(np.append(pos[first], ends))
    slopes = np.zeros((cuts.size - 1, weights.shape[1]), dtype=np.int64)
    slopes[np.searchsorted(cuts, pos[first])] = weights[first]
    return _read_only(cuts), _read_only(slopes)


def index_sum_plan(field: LatentSourceField, sys: NeighborhoodSystem):
    """The plan (see :func:`_index_sum_terms`) by which
    :func:`draw_index_sums` counts W2's index sums under ``sys`` from the
    packed bits, or None when the field is off that route or when
    counting the bits of a row over the plan's terms and cuts takes more
    work than expanding the row into float values (N draws, the
    incidence and M products and three passes over the n values).
    Measured per row on a 2-core Xeon, in units of that work (about
    1.5 ns), a term reads N bits in N / 64 words (about N / 8) and a cut
    costs about CUT_WORK (:func:`_term_work`).  Built once per
    Monte-Carlo run."""
    rows = field.n_sources + field.incidence.nnz + sys.M.nnz + 3 * field.n
    plan = _index_sum_terms(field, sys, rows)
    if plan is None:
        return None
    packed = sum(_term_work(field.n_sources, cuts.size) for _, cuts, _ in plan[1][0])
    return plan if packed <= rows else None


def _term_work(n_sources: int, cuts: int) -> int:
    """Work per row of counting one term of a plan over ``cuts`` cuts."""
    return n_sources // 8 + CUT_WORK * cuts


def _index_sum_terms(field: LatentSourceField, sys: NeighborhoodSystem, limit: float = math.inf):
    """(base, (terms,)): how S, sum_i Y_i and sum_i X_i Y_i under ``sys``
    follow from a row's bits (a plan of one source run, see
    :func:`_count_bits`), or None when the field is off the route.

    With one fair law on integers (a, b) for every source and bits u,
    U = a + (b - a) u and X = x0 + G u, where x0 = a incidence 1 - means
    are the values at u = 0 and G = (b - a) incidence.  So S = 1'X and
    sum Y = r'X (r_j = |N_j|, the column sums of M) are linear in u, and
    sum X_i Y_i = X'MX = x0'M x0 + ((M + M')x0)'G u + u'(G'MG)u is
    quadratic, with u_s u_s = u_s.  ``base`` holds the three sums at
    u = 0, and each term (lag, cuts, slopes) weighs the set bits
    u_s u_{s + lag} (u_s for lag 0) of the segments [cuts[k], cuts[k + 1])
    of s with one row of weights slopes[k] for the three sums.  The pairs
    of sources that some entry of M reads through the incidence are the
    entries of G'MG, in runs of equal weight along each lag (m-dependent
    windows read lags 1..2m).

    The route needs a field whose S counts from its bits (``bit_plan``)
    with one source run and integer means, and n times the largest of
    max|X|, max|Y| and max|X| max|Y|, and of X before centering, below
    2^53: then every value and index sum that the float route forms is an
    exact integer, and the plan's int64 sums (every partial sum below
    4 n max|X| max|Y| < 2^55, as |b - a| incidence 1 <= 2 max|X|) convert
    to the same floats.  max|X| is exact (every source at its lowest or
    highest value, :func:`_value_range`); max|Y| is bounded by the
    largest |A_i| times max|X|.  It also needs G'MG to take at most
    ``neighborhood.CHUNK`` products.  None too, before any weight is
    summed, when the terms of the lags that the pairs lie at would cost
    more than ``limit`` per row with the fewest cuts (see
    :func:`index_sum_plan`): two for a lag of pairs, and for lag 0 one
    more than the runs of equal c, as S's weight changes at each run."""
    if field.bit_plan is None or len(field.runs) != 1 or np.any(np.mod(field.means, 1)):
        return None
    lo, hi = _value_range(field)
    x = float(np.abs(np.concatenate([lo - field.means, hi - field.means])).max(initial=0))
    y = float(np.diff(sys.M.indptr).max(initial=0)) * x
    if field.n * max(float(np.maximum(-lo, hi).max(initial=0)), x, y, x * y) >= 2.0**53:
        return None
    inc, M, n, N = field.incidence, sys.M, field.n, field.n_sources
    size = np.diff(inc.indptr)
    pairs = size[M.rows] * size[M.indices]  # source pairs of each entry of M
    if pairs.sum() > CHUNK:
        return None
    # every product G_is M_ij G_jt: entry e of M, slot k of its pairs
    e = np.repeat(np.arange(M.nnz), pairs)
    k = np.arange(e.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    width = size[M.indices[e]]
    u, v = inc.indptr[M.rows[e]] + k // width, inc.indptr[M.indices[e]] + k % width
    s, t = inc.indices[u], inc.indices[v]
    apart = np.abs(s - t)
    n_lags = np.count_nonzero(np.bincount(apart)[1:])  # the lags of the pairs
    if _term_work(N, field.count_starts.size + 1) + n_lags * _term_work(N, 2) > limit:
        return None
    ((_, src),) = field.runs
    a, b = (int(v) for v in src.values)
    d = b - a
    cnt = inc.data.astype(np.int64)
    x0 = a * _int_sums(inc.rows, cnt, n) - field.means.astype(np.int64)
    r = np.bincount(M.indices, minlength=n)
    Mx0 = _int_sums(M.rows, x0[M.indices], n)
    P = Mx0 + _int_sums(M.indices, x0[M.rows], n)
    base = np.array([x0.sum(), r @ x0, x0 @ Mx0], dtype=np.int64)
    linear = d * np.stack([_int_sums(inc.indices, cnt * w[inc.rows], N)
                           for w in (np.ones(n, dtype=np.int64), r, P)], axis=1)
    keys, at = _key_ids(apart * N + np.minimum(s, t), (int(apart.max(initial=0)) + 1) * N)
    weight = _int_sums(at, d * d * cnt[u] * cnt[v], keys.size)
    lags, lo = np.divmod(keys, N)  # ascending lags
    diagonal = int(np.searchsorted(lags, 1))  # u_s u_s = u_s is linear
    linear[:, 2] += _int_sums(lo[:diagonal], weight[:diagonal], N)
    terms = [(0, *_segments(np.arange(N), linear))]
    for on in np.split(np.arange(diagonal, keys.size), np.flatnonzero(np.diff(lags[diagonal:])) + 1):
        if on.size:
            w = np.zeros((on.size, 3), dtype=np.int64)
            w[:, 2] = weight[on]
            terms.append((int(lags[on[0]]), *_segments(lo[on], w)))
    return _read_only(base), (tuple(terms),)


def draw_index_sums(
    field: LatentSourceField,
    plan,
    master_seed: int,
    reps: Sequence[int],
    path: tuple[int, ...] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, sum_i Y_i, sum_i X_i Y_i) of the given replications by the
    field's :func:`index_sum_plan` under a system (counted by
    :func:`_count_bits`): equal bit for bit to ``statistics.index_sums``
    of the replications' values, with no value matrix."""
    return tuple(_count_bits(field, plan, master_seed, reps, path).T.astype(float))


def evaluate_values(field: LatentSourceField, rows: np.ndarray) -> np.ndarray:
    """Field values for source rows, centered by the field's means; shape
    (reps, n): a sum field's is the transpose of incidence @ rows.T,
    others gather their indices in blocks (see :func:`_blocks`)."""
    rows = np.atleast_2d(rows)
    if field.ev is _sum_columns:
        XT = field.incidence @ rows.T
        if field.means.any():  # zero means leave every value as it is
            XT -= field.means[:, None]
        return XT.T
    out = np.empty((rows.shape[0], field.n))
    for sl in _blocks(field.n, field.supports.shape[1], rows.shape[0]):
        out[:, sl] = field.ev(_gather(rows, field.supports[sl]), *(p[sl] for p in field.params))
    out -= field.means
    return out


def sum_values(field: LatentSourceField, rows: np.ndarray, X: np.ndarray | None = None) -> np.ndarray:
    """Field sums S of source rows, centered by the summed means, shape
    (reps,): U @ c for a sum field (summed row by row over runs of equal
    c, so S does not depend on the batch or on the rows' memory layout), the
    field's ``batch_sum`` (the triangle's trace(A^3), a word's count, a
    U-statistic's block sums), or else the row sums of ``X``, the rows'
    :func:`evaluate_values` (built here when not given)."""
    rows = np.atleast_2d(rows)
    batch_sum = field.metadata.get("batch_sum")
    if field.ev is _sum_columns:
        starts = field.count_starts
        s = (np.add.reduceat(rows, starts, axis=1) * field.counts[starts]).sum(axis=1)
    elif batch_sum is not None:
        s = batch_sum(rows)
    else:
        return (evaluate_values(field, rows) if X is None else X).sum(axis=1)
    return s - field.mean_sum


def outcome_blocks(field: LatentSourceField):
    """Yield (probs, source_rows) blocks of ENUM_BLOCK outcomes covering
    the outcome space: a source no index reads is pinned to its first
    value with probability 1, so rows keep all ``n_sources`` columns and
    only duplicate atoms of X go.

    Outcomes are ordered with source 0 as the most significant mixed-radix
    digit.  Raises :class:`EnumerationCapExceeded` beyond DEFAULT_ENUM_CAP
    outcomes.
    """
    total = field.outcome_count()
    if total is None:
        raise EnumerationCapExceeded("field has continuous sources")
    if total > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(f"{total} outcomes exceed cap {DEFAULT_ENUM_CAP}")
    sources = [src if c else DiscreteSource(src.values[:1], (1.0,))
               for src, c in zip(field.sources, field.counts)]
    for start in range(0, total, ENUM_BLOCK):
        yield product_grid(sources, start, min(start + ENUM_BLOCK, total))


def value_lattice(field: LatentSourceField):
    """(lo, radix) of a sum field's value lattice: its uncentered X_i runs
    over the integers lo_i .. lo_i + radix_i - 1.  None unless every source
    is discrete on integers, sum_i |X_i| stays below 2^53, the field has at
    most DEFAULT_ENUM_CAP outcomes and the lattice no more cells than that."""
    count = field.outcome_count() if field.ev is _sum_columns else None
    if count is None or count > DEFAULT_ENUM_CAP:
        return None
    if not all(float(v).is_integer() for _, src in field.runs for v in src.values):
        return None
    lo, hi = _value_range(field)
    if np.maximum(-lo, hi).sum() >= 2.0**53:  # every X_i and S an exact float
        return None
    radix = (hi - lo).astype(np.int64) + 1
    cells = 1
    for r in radix.tolist():
        cells *= r
        if cells > count:
            return None
    return lo.astype(np.int64), radix


def lattice_blocks(field: LatentSourceField, lattice, sums: bool = False):
    """Yield (probs, X, S) blocks of at most ENUM_BLOCK reachable cells of
    a sum field's value lattice (:func:`value_lattice`), in lexicographic
    order of X: each cell's probability, its values centered as
    :func:`evaluate_values` centers them, and with ``sums`` its S as
    :func:`sum_values` forms it (else None).

    Cells are numbered in mixed radix, index 0 most significant.  The pmf
    starts at the all-minimum cell; each source s, last to first (the order
    :func:`product_grid` multiplies in), adds p_v times the table shifted
    by (v - min v) d_s, with d_s = sum_i c_is mult_i.  A cell reached only
    through zero probabilities is kept, as enumeration keeps its outcomes.
    During a step the table and its reach mask take about 18 bytes a cell."""
    lo, radix = lattice
    mult = np.cumprod(np.r_[1, radix[:0:-1]])[::-1]
    d = field.incidence.tdot(mult).astype(np.int64)
    table, reach = np.ones(1), np.ones(1, dtype=bool)
    for s in range(field.n_sources - 1, -1, -1):
        v, probs = np.asarray(field.sources[s].values), field.sources[s].probs
        shifts = (v - v.min()).astype(np.int64) * d[s]
        top = table.size + int(shifts.max())
        new, new_reach = np.zeros(top), np.zeros(top, dtype=bool)
        for a in range(0, table.size, ENUM_BLOCK):  # no product larger than a block
            part, seen = table[a:a + ENUM_BLOCK], reach[a:a + ENUM_BLOCK]
            for sh, p in zip(shifts, probs):
                new[a + sh:a + sh + part.size] += part * p
                new_reach[a + sh:a + sh + part.size] |= seen
        table, reach = new, new_reach
    cells = np.flatnonzero(reach)
    del reach
    for a in range(0, cells.size, ENUM_BLOCK):
        cell = cells[a:a + ENUM_BLOCK]
        digits = cell // mult[:, None] % radix[:, None] + lo[:, None]
        s = digits.sum(axis=0) - field.mean_sum if sums else None
        XT = digits.astype(float)
        if field.means.any():
            XT -= field.means[:, None]
        yield table[cell], XT.T, s


# ---------------------------------------------------------------------------
# Induced neighborhoods


def overlap_matrix(field: LatentSourceField) -> Csr:
    """The 0/1 matrix with M[i, j] = 1 iff j is in the induced A_i: the
    pattern of incidence @ incidence^T."""
    inc = field.incidence
    return product_pattern(inc, inc.transpose())


def induced_neighborhoods(field: LatentSourceField) -> NeighborhoodSystem:
    """The support-overlap neighborhood system.

    Local dependence holds by construction: indices outside A_i share no
    source with i, and indices outside A_i | A_j none with i or j.  Raises
    :class:`ComplexityCapExceeded` when the system would hold more than
    INDUCED_CAP neighbor entries.
    """
    users = np.bincount(field.incidence.indices, minlength=field.n_sources)
    estimate = int(users @ users)
    if estimate > INDUCED_CAP:
        raise ComplexityCapExceeded(
            f"induced system would hold ~{estimate} neighbor entries (cap {INDUCED_CAP})"
        )
    return NeighborhoodSystem(M=overlap_matrix(field))


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


def build_iid_field(n: int, source: Source) -> LatentSourceField:
    """n independent copies of the source."""
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    return LatentSourceField(
        sources=(source,) * n,
        supports=np.arange(n)[:, None],
        ev=_sum_columns,
        metadata={"family": "iid", "n": n, "index_transitive": True},
    )


def build_m_dependent(n: int, m: int, source: Source) -> LatentSourceField:
    """Stationary m-dependent sum field: X_i = U_i + ... + U_{i+m}.

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
        ev=_sum_columns,
        metadata={"family": "m_dependent", "n": n, "m": m},
    )


def build_graph_dependency(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    source: Source,
) -> LatentSourceField:
    """Dependency-graph sum field: one source per vertex and per edge,
    X_i = its own source plus those of its incident edges.

    Induced A_i is the closed neighborhood of i, so with the union pair
    cover kappa <= 2d and tau <= 4d^2 for maximal degree d >= 3
    (2kappa^2 in general).  An edgeless graph reduces to an iid field.
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
        ev=_sum_columns,
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
    block_sum: Callable | None = None,
) -> LatentSourceField:
    """Distributed U-statistic field over k blocks of sample points.

    One field index per (block, m-subset); X = w_i (h(points) - theta)
    with w_i = n_i / (N C(n_i, m)), so the field sum equals U_d - theta.
    A single block recovers the classical U-statistic, up to the recorded
    normalization.  theta = E h is computed exactly from the source, which
    must be discrete.  ``block_sum(x, m)``, when given, is the kernel
    summed over the m-subsets of each row of a block's points x, shape
    (reps, n_i); it becomes the field's ``batch_sum``
    (:func:`_ustat_batch_sum`), so S needs no per-index values.
    """
    block_sizes = [int(b) for b in block_sizes]
    if any(b < m for b in block_sizes):
        raise BlockTooSmall(f"every block needs >= m={m} points, got {block_sizes}")
    if m < 1:
        raise InvalidSize(f"kernel degree m must be >= 1, got {m}")
    N = sum(block_sizes)
    n_idx = sum(math.comb(b, m) for b in block_sizes)
    if n_idx > DEFAULT_INDEX_CAP:
        raise EnumerationCapExceeded(f"{n_idx} field indices exceed cap {DEFAULT_INDEX_CAP}")
    if not isinstance(source, DiscreteSource):
        raise ValueError("theta is enumerated, so the source must be discrete")
    if len(source.values) ** m > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded("kernel mean enumeration too large")
    probs, grid = product_grid([source] * m)
    theta = float(np.sum(probs * kernel(*grid.T)))
    subsets, weights, block_slices = [], [], []
    offset = 0
    for b in block_sizes:
        # colex order (largest point most significant): the lexicographic
        # m-subsets mirrored by t -> b - 1 - t, rows and columns reversed
        sub = b - 1 - admissible_tuples(b, (None,) * (m - 1))[::-1, ::-1]
        start = sum(len(s) for s in subsets)
        subsets.append(sub + offset)
        weights.append(np.full(len(sub), b / (N * math.comb(b, m))))
        block_slices.append((start, start + len(sub)))
        offset += b
    h = _columnwise(kernel)
    metadata = {
        "family": "ustat",
        "m": m,
        "theta": theta,
        "block_sizes": block_sizes,
        "block_slices": block_slices,
        "index_transitive": len(block_sizes) == 1,
    }
    if block_sum is not None:
        metadata["batch_sum"] = _ustat_batch_sum(block_sizes, m, theta, block_sum)
    return LatentSourceField(
        sources=(source,) * N,
        supports=np.concatenate(subsets),
        ev=lambda G, w: w * (h(G) - theta),
        params=(np.concatenate(weights),),
        means=np.zeros(n_idx),
        metadata=metadata,
    )


def _ustat_batch_sum(block_sizes: list[int], m: int, theta: float, block_sum: Callable) -> Callable:
    """Whole-field U-statistic sums from each block's points: the sum over
    blocks b of w_b (K_b - C(n_b, m) theta), K_b = block_sum(points, m)
    the kernel summed over the block's m-subsets, with no index gathered."""
    N, ends = sum(block_sizes), np.cumsum(block_sizes).tolist()
    terms = [(slice(e - b, e), b / (N * math.comb(b, m)), math.comb(b, m) * theta)
             for b, e in zip(block_sizes, ends)]

    def batch_sum(rows: np.ndarray) -> np.ndarray:
        out = np.zeros(rows.shape[0])
        for points, w, mean in terms:
            out += w * (block_sum(rows[:, points], m) - mean)
        return out

    return batch_sum


def admissible_tuples(
    n: int, gaps: Sequence[int | None], exact_gaps: bool = False
) -> np.ndarray:
    """Increasing index tuples (0-based) with i_{j+1} - i_j <= gaps[j], as
    an (N, l) int64 array in lexicographic order; ``None`` encodes an
    unconstrained (infinite) gap.  With ``exact_gaps`` finite gaps must be
    met exactly (the exactly-constrained variant).  A gap below 1 admits
    no next letter.  The array grows one letter at a time: each row
    repeats once per position its next letter can take, leaving room for
    the letters after it."""
    l = len(gaps) + 1
    tuples = np.arange(max(n - l + 1, 0), dtype=np.int64)[:, None]
    for j, d in enumerate(gaps, start=1):
        last = tuples[:, -1]
        lo = last + (max(d, 1) if exact_gaps and d is not None else 1)
        hi = np.minimum(n - l + j + 1, last + d + 1) if d is not None else n - l + j + 1
        width = np.maximum(hi - lo, 0)
        step = np.repeat(lo - (np.cumsum(width) - width), width) + np.arange(width.sum())
        tuples = np.column_stack([np.repeat(tuples, width, axis=0), step])
    return tuples


def _count_admissible(n: int, gaps: Sequence[int | None], limit: int) -> int:
    """The number of :func:`admissible_tuples` (finite gaps as bounds), or
    limit + 1 if there are more, without building them: ways[t] counts the
    tuple prefixes ending at t, one letter at a time by a prefix sum over
    the gap, each clipped at limit + 1 so int64 holds every sum."""
    ways = np.ones(n, dtype=np.int64)
    for d in gaps:
        reach = np.cumsum(ways) - ways  # prefixes ending before t
        if d is not None and d < n:
            d = max(d, 0)  # a gap below 1 admits no next letter
            reach[d:] -= reach[:n - d].copy()
        ways = np.minimum(reach, limit + 1)
    return min(int(ways.sum()), limit + 1)


def count_word_occurrences(
    string, word: Sequence, gaps: Sequence[int | None], exact_gaps: bool = False,
):
    """Occurrences of ``word`` in ``string`` under the gap constraints: an
    int for one string, int64 counts for each row of a (reps, n) array.

    An occurrence is an index tuple i_1 < ... < i_l with letter matches and
    i_{j+1} - i_j <= gaps[j] (= gaps[j] exactly, when ``exact_gaps`` and the
    gap is finite), so a gap below 1 admits none.  Dynamic program over
    (position, matched prefix), left to right, all rows at once:
    ways[..., t] counts the matches of the first j letters that end at t,
    and the next letter adds up the ways within its gap by a prefix sum.
    """
    s = np.asarray(list(string) if isinstance(string, str) else string)
    l, n = len(word), s.shape[-1]
    if l and len(gaps) != l - 1:
        raise ValueError(f"need {l - 1} gap entries, got {len(gaps)}")
    if not 0 < l <= n:
        return 0 if s.ndim == 1 else np.zeros(s.shape[:-1], dtype=np.int64)
    ways = (s == word[0]).astype(np.int64)
    for j in range(1, l):
        d = gaps[j - 1]
        if d is not None and d < 1:  # a gap below 1 admits no next letter
            reach = np.zeros_like(ways)
        elif exact_gaps and d is not None:  # ways[t - d]
            reach = np.zeros_like(ways)
            reach[..., d:] = ways[..., :max(n - d, 0)]
        else:  # sum of ways[lo:t], lo = max(0, t - d) (0 for an infinite gap)
            reach = np.cumsum(ways, axis=-1) - ways
            if d is not None and d < n:
                reach[..., d:] -= reach[..., :n - d].copy()
        ways = np.where(s == word[j], reach, 0)
    return int(ways.sum()) if s.ndim == 1 else ways.sum(axis=-1)


def gap_order(gaps: Sequence[int | None]) -> int:
    """b = 1 + #infinite gaps: the growth exponent |I| = Theta(n^b)."""
    return 1 + sum(1 for g in gaps if g is None)


def build_constrained_ustat_field(
    n: int,
    m: int,
    f: Callable,
    gaps: Sequence[int | None],
    source: Source,
    known_mean: float | None = None,
    metadata: Mapping | None = None,
) -> LatentSourceField:
    """Constrained U-statistic field over a stationary m-dependent sequence.

    The underlying sequence is xi_t = U_t + ... + U_{t+m}; field indices
    are the admissible tuples and X = f(xi over tuple) - mean.  A support
    row concatenates the tuple's windows, so overlapping windows repeat a
    source.  Induced neighborhoods combine tuple overlap with gap-<=-m
    interference, which is exactly the union of the overlap and
    proximity sets.  ``metadata`` adds to (or overrides) the family's.
    """
    if n < 1:
        raise InvalidSize(f"n must be >= 1, got {n}")
    gaps = tuple(None if g is None else int(g) for g in gaps)
    count = _count_admissible(n, gaps, DEFAULT_INDEX_CAP)
    if not count:
        raise EmptyIndexSet(f"no admissible tuple for n={n}, gaps={gaps}")
    if count > DEFAULT_INDEX_CAP:
        raise EnumerationCapExceeded(
            f"n={n}, gaps={gaps}: more tuples than the index cap of {DEFAULT_INDEX_CAP}"
        )
    tuples = admissible_tuples(n, gaps)
    window = (lambda u: u) if m == 0 else (lambda *cols: sum(cols))
    l, width = len(gaps) + 1, m + 1

    def ev(G):
        seq = [
            window(*(G[..., j * width + d] for d in range(width))) for j in range(l)
        ]
        return f(*seq)

    windows = tuples[:, :, None] + np.arange(width)
    return LatentSourceField(
        sources=(source,) * (n + m),
        supports=windows.reshape(len(tuples), l * width),
        ev=ev,
        means=None if known_mean is None else np.full(len(tuples), float(known_mean)),
        metadata={
            "family": "constrained_ustat",
            "n": n,
            "m": m,
            "gaps": gaps,
            "b": gap_order(gaps),
            **(metadata or {}),
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


def build_pattern_field(n: int, tau: Sequence[int], gaps: Sequence[int | None]) -> LatentSourceField:
    """Permutation-pattern counting field via the rank construction:
    iid Uniform(0,1) sources stand in for the permutation values, since
    only order relations enter the indicator.  Exact mean is 1/l!."""
    l = len(tau)
    if sorted(tau) != list(range(1, l + 1)):
        raise ValueError("tau must be a permutation of 1..l")
    if len(gaps) != l - 1:
        raise ValueError(f"need {l - 1} gap entries, got {len(gaps)}")
    return build_constrained_ustat_field(
        n=n,
        m=0,
        f=_pattern_indicator(tau),
        gaps=gaps,
        source=ContinuousSource("uniform"),
        known_mean=1.0 / math.factorial(l),
        metadata={"family": "pattern", "tau": tuple(int(t) for t in tau)},
    )


def build_word_field(
    word: Sequence[int],
    n: int,
    alphabet_size: int,
    gaps: Sequence[int | None],
) -> LatentSourceField:
    """Word-occurrence counting field over iid uniform letters 0..k-1.
    Its ``batch_sum`` is :func:`count_word_occurrences` over the letter
    rows, so S needs no per-tuple values."""
    if len(gaps) != len(word) - 1:
        raise ValueError(f"need {len(word) - 1} gap entries, got {len(gaps)}")
    word, gaps = tuple(int(x) for x in word), tuple(gaps)
    w = np.asarray(word, dtype=float)

    def f(*xs):
        match = np.asarray(xs[0]) == w[0]
        for k in range(1, len(xs)):
            match = match & (np.asarray(xs[k]) == w[k])
        return match.astype(float)

    return build_constrained_ustat_field(
        n=n,
        m=0,
        f=f,
        gaps=gaps,
        source=uniform_letters(alphabet_size),
        metadata={
            "family": "word",
            "word": word,
            "alphabet_size": alphabet_size,
            "batch_sum": lambda rows: count_word_occurrences(rows, word, gaps),
        },
    )


def build_decorated_graph_field(
    n: int,
    pattern_edges: Sequence[tuple[int, int]],
    edge_source: Source,
) -> LatentSourceField:
    """Decorated injective homomorphism field over iid edge variables.

    Field indices are the injections phi of the pattern's vertices into
    [n]; X_phi is the centered product over pattern edges uv of
    g(phi(u), phi(v)), where g holds the C(n,2) edge sources of the
    complete host graph.  Induced A_phi is the set of injections whose
    image shares an edge with phi's image.
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
    if n_inj > DEFAULT_INDEX_CAP:
        raise GraphTooLarge(f"{n_inj} injections exceed cap {DEFAULT_INDEX_CAP}")

    def ev(G):
        out = G[..., 0]
        for e in range(1, G.shape[-1]):
            out = out * G[..., e]
        return out

    # the injections in lexicographic order as broadcast grids over axes
    # (n, n - 1, ..., n - v + 1): vertex k maps to the d-th smallest point
    # that vertices 0..k-1 left free, d the index on axis k, found by
    # stepping d past each taken point in increasing order
    phi, taken = [], []  # taken: the points of vertices 0..k-1, sorted
    for k in range(v):
        x = np.arange(n - k).reshape((1,) * k + (n - k,) + (1,) * (v - 1 - k))
        for t in taken:
            x = x + (x >= t)
        phi.append(x)
        if k < v - 1:
            for i, t in enumerate(taken):  # insert x, keeping the order
                taken[i], x = np.minimum(t, x), np.maximum(t, x)
            taken.append(x)
    ids = np.zeros((n, n), dtype=np.int64)  # ids[u, w]: the id of host edge {u, w}
    ids[np.triu_indices(n, k=1)] = np.arange(math.comb(n, 2))
    ids += ids.T
    edge_ids = np.empty(tuple(range(n, n - v, -1)) + (len(edges),), dtype=np.int64)
    for e, (a, b) in enumerate(edges):
        edge_ids[..., e] = ids[phi[a], phi[b]]
    del phi, taken, ids
    metadata = {
        "family": "decorated_graph",
        "n": n,
        "v": v,
        "pattern_edges": edges,
        "index_transitive": True,
    }
    if sorted(edges) == [(0, 1), (0, 2), (1, 2)]:
        binary = isinstance(edge_source, DiscreteSource) and set(edge_source.values) <= {0.0, 1.0}
        metadata["batch_sum"] = _triangle_batch_sum(n, binary)
    return LatentSourceField(
        sources=(edge_source,) * math.comb(n, 2),
        supports=edge_ids.reshape(n_inj, len(edges)),
        ev=ev,
        metadata=metadata,
    )


def _triangle_batch_sum(n: int, binary: bool) -> Callable:
    """Whole-field triangle sums, trace(A^3) = 6 sum (U U) o U per
    replication, U the upper triangle of the adjacency matrix A: one
    matrix product instead of gathering every injection, over stacks of
    about ADJ_CELLS cells at a time.  With 0/1 edges (``binary``) and
    C(n, 3) < 2^24 (n <= 466; DEFAULT_INDEX_CAP admits n <= 162) U is
    float32: every partial sum is then an integer of at most C(n, 3),
    so S is exact; any other field takes float64."""
    iu, ju = np.triu_indices(n, k=1)
    upper = iu * n + ju  # flat cells of U[i, j], in host edge order
    step = max(1, ADJ_CELLS // (n * n))
    dtype = np.float32 if binary and math.comb(n, 3) < 2**24 else np.float64

    def batch_sum(rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.shape[0])
        cells = np.zeros((min(step, rows.shape[0]), n * n), dtype=dtype)  # the rest stays 0
        for lo in range(0, rows.shape[0], step):
            u = cells[:len(rows[lo:lo + step])]
            u[:, upper] = rows[lo:lo + step]
            u = u.reshape(-1, n, n)
            out[lo:lo + len(u)] = np.einsum("rij,rij->r", u @ u, u)
        return 6 * out

    return batch_sum
