"""Dependence skeletons: neighborhoods A_i under the union pair cover, and
the derived quantities N_i, D_i, kappa, tau.

A system over indices 0..n-1 is one 0/1 matrix M with M[i, j] = 1 iff j
is in A_i, the neighborhood shielding X_i from the rest of the field,
held as a read-only :class:`Csr` record of index arrays.  The pair
{X_i, X_j}, j in A_i, is shielded by the union cover A_ij = A_i | A_j, so
covers are never stored.  With s the row sums of M (s_i = |A_i|) and r
its column sums (r_j = |N_j|):

    N_j   = {k : j in A_k}                      (the rows of M^T)
    D_l   = {(k, m) : m in A_k, l in A_k | A_m}
    kappa = max( max_j |N_j|, max_{(i,j) in M} |A_i | A_j| )
          = max( max r, max_{(i,j) in M} s_i + s_j - |A_i & A_j| )
    tau   = max_l |D_l|
          = max( M^T s + M^T r - column sums of M o M^2 )

(o is the elementwise product; (M o M^2)[i, l] = |A_i & N_l| on the
entries of M.)  Systems are immutable, with read-only arrays, and safe
for concurrent reads.

A system is either declared (:func:`make_system` from lists of ids) or
induced by a field's support overlap (``fields.induced_neighborhoods``).
One experiment uses one system per grid point: the bounds read its kappa
and tau, W2 and W2bar its rows (Y = M X), and the LD check its members.
Every consumer takes the :class:`NeighborhoodSystem` itself; rows are
read off ``M`` (A_i) and ``Mt`` (N_j).

The products a :class:`Csr` offers add each row's entries in ascending
column order, starting from 0, as a compiled CSR product does, so their
floats do not depend on how the rows are split into work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# set bits of each byte value
POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1).astype(np.uint8)
# rows of one column offset that a product adds as one slice rather than
# gathers, and the bytes of the result it fills at a time
RUN_MIN, TILE_BYTES = 16, 2**18
# elements (or bytes) one chunk of an expansion or a bitset comparison
# holds, and the bytes of ANDs that cost about one sorted-key lookup
CHUNK, LOOKUP_BYTES = 2**20, 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Csr:
    """A read-only sparse matrix by rows: row i's entries are
    ``indices[indptr[i]:indptr[i + 1]]`` (column ids, ascending and
    distinct), with values ``data``, or all 1 when ``data`` is None.
    ``rows`` holds the row id of each entry (found from ``indptr`` when
    not given)."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray | None = None
    rows: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.rows is None:
            rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
            object.__setattr__(self, "rows", rows)
        for a in (self.indptr, self.indices, self.data, self.rows):
            if a is not None:
                _read_only(a)

    @property
    def nnz(self) -> int:
        return self.indices.size

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = 1.0 if self.data is None else self.data
        return out

    def transpose(self) -> Csr:
        order = np.argsort(self.indices, kind="stable")
        return from_entries(self.indices[order], self.rows[order], self.shape[::-1],
                            None if self.data is None else self.data[order])

    def take(self, ids) -> Csr:
        """The rows ``ids``, in that order."""
        ids = np.asarray(ids, dtype=np.int64)
        lengths = np.diff(self.indptr)[ids]
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rows = np.repeat(np.arange(ids.size), lengths)
        pos = np.arange(indptr[-1]) + (self.indptr[ids] - indptr[:-1])[rows]
        return Csr((ids.size, self.shape[1]), indptr, self.indices[pos],
                   None if self.data is None else self.data[pos], rows)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector (float64), or for an (A.shape[1], reps) array
        (see :func:`_product`)."""
        x = np.asarray(x)
        if x.ndim == 2:
            return _product(self, x)
        w = x[self.indices] if self.data is None else x[self.indices] * self.data
        return np.bincount(self.rows, w, self.shape[0]).astype(float, copy=False)

    def tdot(self, x: np.ndarray) -> np.ndarray:
        """A^T x for a vector, adding A's entries in storage order."""
        x = np.asarray(x)
        w = x[self.rows] if self.data is None else x[self.rows] * self.data
        return np.bincount(self.indices, w, self.shape[1]).astype(float, copy=False)


def from_entries(rows, cols, shape, data=None) -> Csr:
    """The :class:`Csr` of entries (rows, cols), sorted by row, then
    column, with no repeats."""
    rows = np.asarray(rows, dtype=np.int64)
    indptr = np.searchsorted(rows, np.arange(shape[0] + 1))
    return Csr((int(shape[0]), int(shape[1])), indptr, np.asarray(cols, dtype=np.int64), data, rows)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal sorted keys starts."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def distinct(a) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    gives them, without its masked-array check, which imports numpy.ma
    (about 15 ms) on first use."""
    a = np.sort(np.asarray(a).reshape(-1))
    return a[_firsts(a)]


def union(*parts: Csr) -> Csr:
    """The 0/1 matrix whose row p is the union of row p of every part (all
    of one shape).  Each part's keys are sorted, so the stable sort of
    their concatenation merges runs."""
    m = max(parts[0].shape[1], 1)
    keys = np.sort(np.concatenate([p.rows * m + p.indices for p in parts]), kind="stable")
    keys = keys[_firsts(keys)]
    rows = keys // m
    return from_entries(rows, keys - rows * m, parts[0].shape)


def _spans(cost: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive (lo, hi) spans of items whose costs sum to at most
    ``budget`` (at least one item per span)."""
    cum = np.cumsum(cost)
    spans, lo = [], 0
    while lo < cost.size:
        start = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, start + budget, side="right")))
        spans.append((lo, hi))
        lo = hi
    return spans


def product_pattern(A: Csr, B: Csr) -> Csr:
    """The 0/1 pattern of A @ B: row i holds every column of the rows of B
    that row i of A reaches.  Rows are expanded a chunk at a time, and
    each chunk's keys sorted (which merges each row's sorted runs and
    leaves the rows in place) and stripped of repeats."""
    m = max(B.shape[1], 1)
    lengths = np.diff(B.indptr)[A.indices]
    rows, keys = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo, hi in _spans(np.bincount(A.rows, lengths, A.shape[0]), CHUNK):
        e = slice(A.indptr[lo], A.indptr[hi])
        size, ends = lengths[e], np.cumsum(lengths[e])  # B's entries reached from each entry
        pos = np.repeat(B.indptr[A.indices[e]] - ends + size, size)
        pos += np.arange(pos.size)
        owner = np.repeat(A.rows[e], size)
        part = np.sort(owner * m + B.indices[pos], kind="stable")
        first = _firsts(part)
        rows.append(owner[first])
        keys.append(part[first])
    rows = np.concatenate(rows)
    return from_entries(rows, np.concatenate(keys) - rows * m, (A.shape[0], B.shape[1]))


def _product(A: Csr, XT: np.ndarray) -> np.ndarray:
    """A @ XT for an (A.shape[1], reps) array, in XT's dtype when it holds
    signed integers (which must hold the result) and in float64 otherwise.

    Slot k of every row is one step, taken in order of k, so each row adds
    its entries in column order, starting from 0.  A slot's rows split
    into runs of consecutive rows reading consecutive columns with one
    weight: a run of at least RUN_MIN rows is a slice add, and the other
    rows one gather.  The steps go over the rows a tile of about TILE_BYTES
    of the result at a time, which stays in cache through every slot.
    """
    if XT.dtype.kind != "i":
        XT = XT.astype(float, copy=False)
    XT = np.ascontiguousarray(XT)
    Y = np.zeros((A.shape[0], XT.shape[1]), dtype=XT.dtype)
    lengths = np.diff(A.indptr)
    w = None if A.data is None else A.data.astype(XT.dtype)
    step = max(1, TILE_BYTES // max(1, Y[:1].nbytes))
    tiles = np.arange(0, A.shape[0] + step, step)
    steps = []  # per slot: its runs (first row, end row, column offset, weight), its gather
    for k in range(int(lengths.max(initial=0))):
        r = np.flatnonzero(lengths > k)
        e = A.indptr[r] + k
        c = A.indices[e]
        cut = (np.diff(r) != 1) | (np.diff(c) != 1)
        if w is not None:
            cut |= np.diff(w[e]) != 0
        starts = np.flatnonzero(np.r_[True, cut])
        sizes = np.diff(np.r_[starts, r.size])
        s = starts[sizes >= RUN_MIN]
        g = np.repeat(sizes < RUN_MIN, sizes)
        ends = r[s] + sizes[sizes >= RUN_MIN]
        steps.append((
            list(zip(r[s].tolist(), ends.tolist(), (c[s] - r[s]).tolist(),
                     [1] * s.size if w is None else w[e[s]].tolist())),
            r[g], c[g], None if w is None else w[e[g]][:, None],
            np.searchsorted(r[g], tiles).tolist(),  # the gather's rows in each tile
        ))
    for t, lo in enumerate(tiles[:-1].tolist()):
        hi = lo + step
        for runs, rg, cg, wg, at in steps:
            for a, b, d, wt in runs:
                a, b = max(a, lo), min(b, hi)
                if a < b:
                    Y[a:b] += XT[a + d:b + d] if wt == 1 else wt * XT[a + d:b + d]
            i, j = at[t], at[t + 1]
            if i < j:
                Y[rg[i:j]] += XT[cg[i:j]] if wg is None else wg[i:j] * XT[cg[i:j]]
    return Y


@dataclass(frozen=True, eq=False)
class NeighborhoodSystem:
    """The neighborhoods of a locally dependent field: a read-only 0/1
    :class:`Csr` ``M`` with M[i, j] = 1 iff j in A_i.  Build with
    :func:`make_system`."""

    n: int
    M: Csr


@dataclass(frozen=True, eq=False)
class DerivedNeighborhoods:
    """The reverse neighborhoods (``Mt`` = M^T, a read-only 0/1
    :class:`Csr`) and the size constants kappa, tau of a system."""

    Mt: Csr
    kappa: int
    tau: int


@dataclass
class ValidationReport:
    """Structural violations of a system."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def pairs(M: Csr) -> tuple[np.ndarray, np.ndarray]:
    """(I, J): the row and column ids of the entries of M, row-major."""
    return M.rows, M.indices


def make_system(A) -> NeighborhoodSystem:
    """Build a system from neighborhoods: one list of integer ids per index.

    Raises ValueError naming the first neighborhood that holds an id
    outside [0, n) or a non-integer id.
    """
    rows = [np.asarray(list(a)) for a in A]
    n = len(rows)
    for i, a in enumerate(rows):
        if a.size and a.dtype.kind not in "iu":
            raise ValueError(f"A[{i}] holds non-integer ids: {a.tolist()}")
        bad = a[(a < 0) | (a >= n)]
        if bad.size:
            raise ValueError(f"A[{i}] holds index {int(bad[0])}, outside [0, {n})")
    cols = np.concatenate([a.astype(np.int64) for a in rows]) if n else np.zeros(0, np.int64)
    owner = np.repeat(np.arange(n), [a.size for a in rows])
    rows, cols = np.divmod(distinct(owner * n + cols), max(n, 1))
    return NeighborhoodSystem(n=n, M=from_entries(rows, cols, (n, n)))


def _bit_rows(A: Csr, width: int) -> np.ndarray:
    """Each row's column ids as a (rows, width) array of bits."""
    out = np.zeros((A.shape[0], width), dtype=np.uint8)
    bits = np.left_shift(1, A.indices & 7).astype(np.uint8)
    np.bitwise_or.at(out, (A.rows, A.indices >> 3), bits)
    return out


def _overlaps(M: Csr, Mt: Csr) -> tuple[np.ndarray, np.ndarray]:
    """Per entry (i, j) of M: |A_i & A_j| and |A_i & N_j| (the same counts
    when M is symmetric, as every induced system is).

    Two routes give the same counts.  The bitset route ANDs rows packed
    into ceil(n/8) bytes, nnz ceil(n/8) bytes per count; the expansion
    looks each k in A_i up among M's sorted entry keys, as (j, k) and as
    (k, j), sum_e s_i lookups per count.  A lookup costs about
    LOOKUP_BYTES bytes' worth of ANDs, and the cheaper route is taken:
    dense rows (U-statistics, word counts) take the bitsets, and bands
    over many indices the expansion.
    """
    n = M.shape[0]
    I, J = M.rows, M.indices
    symmetric = np.array_equal(M.indptr, Mt.indptr) and np.array_equal(J, Mt.indices)
    shared = np.empty(M.nnz, dtype=np.int64)
    hits = shared if symmetric else np.empty(M.nnz, dtype=np.int64)
    width = (n + 7) // 8
    if M.nnz * width <= LOOKUP_BYTES * int(np.diff(M.indptr)[I].sum()):
        A = _bit_rows(M, width)
        N = A if symmetric else _bit_rows(Mt, width)
        step = max(1, CHUNK // width)
        for lo in range(0, M.nnz, step):
            i, j = I[lo:lo + step], J[lo:lo + step]
            shared[lo:lo + step] = POPCOUNT[A[i] & A[j]].sum(axis=1)
            if not symmetric:
                hits[lo:lo + step] = POPCOUNT[A[i] & N[j]].sum(axis=1)
        return shared, hits
    keys = I * n + J
    for lo, hi in _spans(np.diff(M.indptr)[I], CHUNK):
        part = M.take(I[lo:hi])  # row e - lo: A_i of entry e
        j, k = J[lo:hi][part.rows], part.indices
        for out, q in ((shared, j * n + k), (hits, k * n + j))[:2 - symmetric]:
            found = keys[np.minimum(np.searchsorted(keys, q), keys.size - 1)] == q
            out[lo:hi] = np.bincount(part.rows, found, hi - lo)
    return shared, hits


def derive(sys: NeighborhoodSystem) -> DerivedNeighborhoods:
    """N (as M^T), kappa and tau, in integers, from M's entries and their
    overlaps (see :func:`_overlaps`)."""
    M = sys.M
    Mt = M.transpose()
    I, J = pairs(M)
    s, r = np.diff(M.indptr), np.diff(Mt.indptr)
    shared, hits = _overlaps(M, Mt)
    cover = s[I] + s[J] - shared
    # (M^T s + M^T r)[l] and column l of M o M^2, both summed over the entries (k, l)
    dsize = np.bincount(J, s[I] + r[I] - hits, sys.n)
    kappa = max(r.max(initial=0), cover.max(initial=0))
    return DerivedNeighborhoods(Mt=Mt, kappa=int(kappa), tau=int(dsize.max(initial=0)))


def validate_structure(sys: NeighborhoodSystem) -> ValidationReport:
    """Report every structural violation; never raises.

    Checks that M is (n, n), so no id lies outside [0, n), that no A_i is
    empty, and reflexivity (i in A_i).
    """
    report = ValidationReport()
    if sys.M.shape != (sys.n, sys.n):
        report.violations.append(
            f"M has shape {sys.M.shape}: ids outside [0, {sys.n})"
        )
        return report
    sizes = np.diff(sys.M.indptr)
    reflexive = np.zeros(sys.n, dtype=bool)
    reflexive[sys.M.rows[sys.M.rows == sys.M.indices]] = True
    for i in np.flatnonzero(sizes == 0):
        report.violations.append(f"A[{i}] is empty")
    for i in np.flatnonzero(~reflexive & (sizes > 0)):
        report.violations.append(f"reflexivity: {i} not in A[{i}]")
    return report
