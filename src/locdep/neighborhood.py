"""Dependence skeletons: neighborhoods A_i, pair covers A_ij, and the
derived quantities N_i, D_i, kappa, tau.

A system over indices 0..n-1 stores, for every index i, the neighborhood
A_i shielding X_i from the rest of the field, and for every ordered pair
(i, j) with j in A_i a pair cover A_ij >= A_i shielding {X_i, X_j}.  From
these it derives

    N_i   = {k : i in A_k}                      (reverse neighborhoods)
    D_i   = {(k, l) : l in A_k, i in A_kl}      (pair interference sets)
    kappa = max( max_i |N_i|, max_{(i,j)} |A_ij| )
    tau   = max_i |D_i|

Indices are 0-based in memory and 1-based in the JSON interchange format.
Systems are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import MissingPairCover

IndexSet = tuple[int, ...]
PairCover = dict[tuple[int, int], IndexSet]


def _as_index_set(xs) -> IndexSet:
    return tuple(sorted({int(x) for x in xs}))


@dataclass(frozen=True)
class NeighborhoodSystem:
    """The (A_i, A_ij) skeleton of a locally dependent field.

    ``A[i]`` is the sorted neighborhood of index i; ``A2[(i, j)]`` is the
    pair cover for j in A[i].  Use :func:`make_system` to construct with
    the default pair cover filled in.
    """

    n: int
    A: tuple[IndexSet, ...]
    A2: PairCover

    def pair_cover(self, i: int, j: int) -> IndexSet:
        try:
            return self.A2[(i, j)]
        except KeyError:
            raise MissingPairCover(f"no pair cover for ({i}, {j})") from None


@dataclass(frozen=True)
class DerivedNeighborhoods:
    """N_i, D_i and the size constants kappa, tau of a system."""

    N: tuple[IndexSet, ...]
    D: tuple[tuple[tuple[int, int], ...], ...]
    kappa: int
    tau: int


@dataclass
class ValidationReport:
    """Structural violations (fatal) and warnings (advisory) of a system."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def default_pair_cover(A: tuple[IndexSet, ...]) -> PairCover:
    """The fallback cover A_ij = A_i | A_j for every j in A_i."""
    sets = [set(a) for a in A]
    cover: PairCover = {}
    for i, a in enumerate(A):
        for j in a:
            cover[(i, j)] = tuple(sorted(sets[i] | sets[j]))
    return cover


def make_system(A, A2: PairCover | None = None) -> NeighborhoodSystem:
    """Build a system from neighborhoods, filling in the default pair cover.

    Applications may pass a tighter ``A2``; any pair missing from it falls
    back to the union cover.
    """
    A_norm = tuple(_as_index_set(a) for a in A)
    cover = default_pair_cover(A_norm)
    if A2:
        for key, val in A2.items():
            cover[(int(key[0]), int(key[1]))] = _as_index_set(val)
    return NeighborhoodSystem(n=len(A_norm), A=A_norm, A2=cover)


def iid_system(n: int) -> NeighborhoodSystem:
    return make_system([(i,) for i in range(n)])


def adjacency(sys) -> sparse.csr_matrix:
    """Sparse 0/1 matrix M with M[i, j] = 1 iff j in A_i, so Y = M @ X.

    Takes a system or a sequence of neighborhoods; a matrix is returned
    as it is.
    """
    if sparse.issparse(sys) or isinstance(sys, np.ndarray):
        return sys
    A = sys.A if isinstance(sys, NeighborhoodSystem) else [sorted(a) for a in sys]
    indptr = np.zeros(len(A) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in A], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(A), dtype=np.int64, count=indptr[-1])
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(len(A), len(A)))


def reverse_neighborhoods(sys: NeighborhoodSystem) -> tuple[IndexSet, ...]:
    """N_i = {k : i in A_k}, by scattering each A_k onto its members."""
    N: list[list[int]] = [[] for _ in range(sys.n)]
    for k, a in enumerate(sys.A):
        for i in a:
            N[i].append(k)
    return tuple(tuple(sorted(ns)) for ns in N)


def pair_interference(sys: NeighborhoodSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """D_i = {(k, l) : l in A_k, i in A_kl}.

    Scatters each pair cover onto its members, so the cost is
    sum over pairs of |A_kl| rather than n times the pair count.
    Raises :class:`MissingPairCover` if some (k, l) lacks an A2 entry.
    """
    D: list[list[tuple[int, int]]] = [[] for _ in range(sys.n)]
    for k, a in enumerate(sys.A):
        for l in a:
            for i in sys.pair_cover(k, l):
                D[i].append((k, l))
    return tuple(tuple(sorted(ds)) for ds in D)


def derive(sys: NeighborhoodSystem) -> DerivedNeighborhoods:
    """Compute N, D, kappa, tau in one pass."""
    N = reverse_neighborhoods(sys)
    D = pair_interference(sys)
    max_rev = max((len(ns) for ns in N), default=0)
    max_cover = max((len(c) for c in sys.A2.values()), default=0)
    tau = max((len(ds) for ds in D), default=0)
    return DerivedNeighborhoods(N=N, D=D, kappa=max(max_rev, max_cover), tau=tau)


def validate_structure(sys: NeighborhoodSystem) -> ValidationReport:
    """Report every structural violation; never raises.

    Checks index bounds, reflexivity (i in A_i), cover containment
    (A_ij >= A_i), and A2 completeness (exactly one entry per pair).
    Warns, without failing, when j not in A_ij or A_j is not contained
    in A_ij: the stated containment only requires A_ij >= A_i, but the
    symmetric containment is what makes {X_i, X_j} verifiably shielded.
    """
    report = ValidationReport()
    for i, a in enumerate(sys.A):
        if not a:
            report.violations.append(f"A[{i}] is empty")
            continue
        if any(j < 0 or j >= sys.n for j in a):
            report.violations.append(f"A[{i}] has out-of-range indices: {a}")
        if i not in a:
            report.violations.append(f"reflexivity: {i} not in A[{i}]")
    expected = {(i, j) for i, a in enumerate(sys.A) for j in a}
    present = set(sys.A2.keys())
    for key in sorted(expected - present):
        report.violations.append(f"A2 missing entry for pair {key}")
    for key in sorted(present - expected):
        report.violations.append(f"A2 has extraneous entry for pair {key}")
    for (i, j) in sorted(expected & present):
        cover = set(sys.A2[(i, j)])
        if any(k < 0 or k >= sys.n for k in cover):
            report.violations.append(f"A2[{(i, j)}] has out-of-range indices")
        missing = set(sys.A[i]) - cover
        if missing:
            report.violations.append(
                f"containment: A2[{(i, j)}] misses A[{i}] members {sorted(missing)}"
            )
        if j not in cover:
            report.warnings.append(f"A2[{(i, j)}] does not contain j={j}")
        elif not set(sys.A[j]) <= cover:
            report.warnings.append(f"A2[{(i, j)}] does not contain all of A[{j}]")
    return report


def permute(sys: NeighborhoodSystem, perm) -> NeighborhoodSystem:
    """Relabel indices by i -> perm[i]; kappa and tau are invariants."""
    p = [int(x) for x in perm]
    if sorted(p) != list(range(sys.n)):
        raise ValueError("perm must be a permutation of range(n)")
    A_new: list[IndexSet] = [()] * sys.n
    for i, a in enumerate(sys.A):
        A_new[p[i]] = tuple(sorted(p[j] for j in a))
    A2_new = {
        (p[i], p[j]): tuple(sorted(p[k] for k in cover))
        for (i, j), cover in sys.A2.items()
    }
    return NeighborhoodSystem(n=sys.n, A=tuple(A_new), A2=A2_new)


def to_json_dict(sys: NeighborhoodSystem) -> dict:
    """Serialize with 1-based indices."""
    return {
        "n": sys.n,
        "A": [[j + 1 for j in a] for a in sys.A],
        "A2": [
            {"i": i + 1, "j": j + 1, "set": [k + 1 for k in cover]}
            for (i, j), cover in sorted(sys.A2.items())
        ],
    }


def from_json_dict(doc: dict) -> NeighborhoodSystem:
    """Deserialize the 1-based JSON document format."""
    n = int(doc["n"])
    A = tuple(_as_index_set(x - 1 for x in a) for a in doc["A"])
    if len(A) != n:
        raise ValueError(f"A has {len(A)} entries for n={n}")
    A2 = {
        (int(e["i"]) - 1, int(e["j"]) - 1): _as_index_set(x - 1 for x in e["set"])
        for e in doc["A2"]
    }
    return NeighborhoodSystem(n=n, A=A, A2=A2)
