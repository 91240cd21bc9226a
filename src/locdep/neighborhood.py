"""Dependence skeletons: neighborhoods A_i under the union pair cover, and
the derived quantities N_i, D_i, kappa, tau.

A system over indices 0..n-1 is one sparse 0/1 matrix M with M[i, j] = 1
iff j is in A_i, the neighborhood shielding X_i from the rest of the
field.  The pair {X_i, X_j}, j in A_i, is shielded by the union cover
A_ij = A_i | A_j, so covers are never stored.  With s the row sums of M
(s_i = |A_i|) and r its column sums (r_j = |N_j|):

    N_j   = {k : j in A_k}                      (the rows of M^T)
    D_l   = {(k, m) : m in A_k, l in A_k | A_m}
    kappa = max( max_j |N_j|, max_{(i,j) in M} |A_i | A_j| )
          = max( max r, max_{(i,j) in M} s_i + s_j - (M M^T)[i, j] )
    tau   = max_l |D_l|
          = max( M^T s + M^T r - column sums of M o M^2 )

(o is the elementwise product.)  Systems are immutable, with read-only
matrix arrays, and safe for concurrent reads.

A system is either declared (:func:`make_system` from lists of ids) or
induced by a field's support overlap (``fields.induced_neighborhoods``).
One experiment uses one system per grid point: the bounds read its kappa
and tau, W2 and W2bar its rows (Y = M X), and the LD check its members.
Every consumer takes the :class:`NeighborhoodSystem` itself; rows are
read off ``M`` (A_i) and ``Mt`` (N_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


def _read_only(M: sparse.csr_matrix) -> sparse.csr_matrix:
    for a in (M.data, M.indices, M.indptr):
        a.flags.writeable = False
    return M


def pairs(M: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(I, J): the row and column ids of the entries of M, row-major."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices


@dataclass(frozen=True, eq=False)
class NeighborhoodSystem:
    """The neighborhoods of a locally dependent field: a read-only CSR 0/1
    matrix ``M`` with M[i, j] = 1 iff j in A_i.  Build with
    :func:`make_system`."""

    n: int
    M: sparse.csr_matrix


@dataclass(frozen=True, eq=False)
class DerivedNeighborhoods:
    """The reverse neighborhoods (``Mt`` = M^T, read-only CSR) and the
    size constants kappa, tau of a system."""

    Mt: sparse.csr_matrix
    kappa: int
    tau: int


@dataclass
class ValidationReport:
    """Structural violations of a system."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def make_system(A) -> NeighborhoodSystem:
    """Build a system from neighborhoods: one list of integer ids per
    index, or an (n, n) sparse matrix whose nonzeros mark the members.

    Raises ValueError naming the first neighborhood that holds an id
    outside [0, n) or a non-integer id.
    """
    if sparse.issparse(A):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"neighborhood matrix has shape {A.shape}, not square")
        M = sparse.csr_matrix(A, dtype=float, copy=True)
        M.eliminate_zeros()
    else:
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
        M = sparse.csr_matrix((np.ones(cols.size), (owner, cols)), shape=(n, n))
    M.sum_duplicates()
    M.data[:] = 1.0
    return NeighborhoodSystem(n=M.shape[0], M=_read_only(M))


def derive(sys: NeighborhoodSystem) -> DerivedNeighborhoods:
    """N (as M^T), kappa and tau from sparse products of M."""
    M = sys.M
    Mt = _read_only(M.T.tocsr())
    s = np.diff(M.indptr).astype(float)
    r = np.diff(Mt.indptr).astype(float)
    I, J = pairs(M)
    shared = np.asarray((M @ Mt)[I, J]).reshape(-1)
    cover = s[I] + s[J] - shared
    dsize = Mt @ s + Mt @ r - np.asarray(M.multiply(M @ M).sum(axis=0)).reshape(-1)
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
    for i in np.flatnonzero(sizes == 0):
        report.violations.append(f"A[{i}] is empty")
    for i in np.flatnonzero((sys.M.diagonal() == 0) & (sizes > 0)):
        report.violations.append(f"reflexivity: {i} not in A[{i}]")
    return report

