"""Dependence-skeleton tests.

Core claims:
    - reverse neighborhoods, pair interference, kappa/tau match brute-force
      enumeration of their definitions under the union cover A_i | A_j, on
      hand-checked systems and on random systems with non-reflexive rows
    - the pair cover read back from the interference sets is A_i | A_j
    - make_system rejects out-of-range and non-integer ids, naming the
      index; validation reports every violation and never raises
    - kappa/tau are relabeling-invariant, satisfy the double-counting
      identity, and obey tau <= 2 kappa^2 for the union cover
    - the index-array kernels (products, unions, row selection, overlap
      patterns, derive's two overlap routes) equal scipy.sparse's results
      bit for bit
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import locdep.fields as fields
import locdep.neighborhood as nb
from locdep.bounds import interference_set_of


def rows(M) -> list[np.ndarray]:
    """The sorted column ids of each row of a CSR matrix: A_i for M, N_j for Mt."""
    return [M.indices[M.indptr[i]:M.indptr[i + 1]] for i in range(M.shape[0])]


def iid_system(n: int) -> nb.NeighborhoodSystem:
    return nb.make_system([[i] for i in range(n)])


def window_system(n: int, m: int) -> nb.NeighborhoodSystem:
    return nb.make_system(
        [tuple(j for j in range(i - m, i + m + 1) if 0 <= j < n) for i in range(n)]
    )


def brute_reverse(sys: nb.NeighborhoodSystem) -> list[set[int]]:
    A = rows(sys.M)
    return [{k for k in range(sys.n) if i in A[k]} for i in range(sys.n)]


def brute_interference(sys: nb.NeighborhoodSystem) -> list[set[tuple[int, int]]]:
    out = []
    A = rows(sys.M)
    for i in range(sys.n):
        d = set()
        for k in range(sys.n):
            for l in A[k]:
                if i in set(A[k]) | set(A[l]):
                    d.add((k, int(l)))
        out.append(d)
    return out


def interference(sys: nb.NeighborhoodSystem, i: int) -> set[tuple[int, int]]:
    """D_i read from the library: D_{i} is D_A at A = {i}."""
    I, J = interference_set_of(sys, [i])
    return set(zip(I.tolist(), J.tolist()))


def random_system(rng: np.random.Generator, n: int) -> nb.NeighborhoodSystem:
    A = []
    for i in range(n):
        extra = rng.choice(n, size=rng.integers(0, min(3, n)), replace=False)
        A.append(sorted({i, *extra.tolist()}))
    return nb.make_system(A)


def random_non_reflexive_system(rng: np.random.Generator, n: int) -> nb.NeighborhoodSystem:
    """Nonempty rows of up to three ids; about half leave out their own index."""
    A = []
    for i in range(n):
        extra = rng.choice(n, size=rng.integers(1, min(3, n) + 1), replace=False)
        A.append(sorted({*([i] if rng.random() < 0.5 else []), *extra.tolist()}))
    return nb.make_system(A)


def check_against_brute_force(sys: nb.NeighborhoodSystem) -> None:
    d = nb.derive(sys)
    assert [set(x.tolist()) for x in rows(d.Mt)] == brute_reverse(sys)
    D = brute_interference(sys)
    assert [interference(sys, i) for i in range(sys.n)] == D
    assert d.tau == max(len(x) for x in D)
    A = rows(sys.M)
    covers = [len(set(A[i]) | set(A[j])) for i in range(sys.n) for j in A[i]]
    assert d.kappa == max(max(len(x) for x in brute_reverse(sys)), max(covers))


def test_reverse_neighborhoods_hand_example():
    sys = nb.make_system([(0, 1), (1,)])
    assert [x.tolist() for x in rows(nb.derive(sys).Mt)] == [[0], [0, 1]]
    check_against_brute_force(sys)


def test_reverse_neighborhoods_iid_identity():
    sys = iid_system(5)
    assert [x.tolist() for x in rows(nb.derive(sys).Mt)] == [[i] for i in range(5)]


def test_reverse_neighborhoods_window_brute_force():
    sys = window_system(6, 1)
    rev = rows(nb.derive(sys).Mt)
    assert [set(r.tolist()) for r in rev] == brute_reverse(sys)
    # symmetric windows: N_i = A_i
    assert all(np.array_equal(r, a) for r, a in zip(rev, rows(sys.M)))


def test_pair_interference_iid():
    sys = iid_system(4)
    assert [interference(sys, i) for i in range(4)] == [{(i, i)} for i in range(4)]
    assert nb.derive(sys).tau == 1


def test_pair_interference_window_interior():
    sys = window_system(8, 1)
    D = [interference(sys, i) for i in range(8)]
    assert D == brute_interference(sys)
    assert len(D[3]) == 11  # interior index of the m=1 window system


def test_pair_interference_single_index():
    sys = iid_system(1)
    assert interference(sys, 0) == {(0, 0)}
    assert (nb.derive(sys).kappa, nb.derive(sys).tau) == (1, 1)


def test_pair_interference_random_systems_with_non_reflexive_rows():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        check_against_brute_force(random_system(rng, n))
        check_against_brute_force(random_non_reflexive_system(rng, n))


def test_kappa_tau_values():
    assert nb.derive(iid_system(3)).kappa == 1
    d = nb.derive(window_system(10, 1))
    assert (d.kappa, d.tau) == (4, 11)


def test_kappa_cycle_closed_neighborhoods():
    # cycle dependency field: closed neighborhoods, degree d = 2, kappa = 2d
    for n in (5, 6, 9):
        f = fields.build_graph_dependency(n, [(i, (i + 1) % n) for i in range(n)],
                                          fields.rademacher())
        d = nb.derive(fields.induced_neighborhoods(f))
        assert d.kappa == 4


def covers_read_back(sys: nb.NeighborhoodSystem) -> dict[tuple[int, int], set[int]]:
    """The cover of (i, j): every l whose interference set holds (i, j)."""
    out: dict[tuple[int, int], set[int]] = {}
    for l in range(sys.n):
        for pair in interference(sys, l):
            out.setdefault(pair, set()).add(l)
    return out


def test_default_pair_cover_union():
    cover = covers_read_back(nb.make_system([(0, 1), (1, 2), (2,)]))
    assert cover[(0, 1)] == {0, 1, 2}
    assert cover[(0, 0)] == {0, 1}
    assert covers_read_back(nb.make_system([(0,), (1,)]))[(0, 0)] == {0}


def test_default_pair_cover_window_interior():
    assert covers_read_back(window_system(8, 1))[(3, 4)] == {2, 3, 4, 5}


def test_make_system_rejects_bad_ids_naming_the_index():
    with pytest.raises(ValueError, match=r"A\[0\] holds index 5"):
        nb.make_system([(0, 5), (1,), (2,), (3,)])
    with pytest.raises(ValueError, match=r"A\[0\] holds index -1"):
        nb.make_system([(0, -1), (1,)])
    with pytest.raises(ValueError, match=r"A\[1\] holds non-integer ids"):
        nb.make_system([(0, 1), (1, "a")])


def test_system_is_read_only():
    sys = window_system(5, 1)
    with pytest.raises(ValueError):
        sys.M.indptr[1] = 2
    with pytest.raises(ValueError):
        sys.M.indices[0] = 3


def test_validate_valid_system_empty_report():
    rep = nb.validate_structure(iid_system(4))
    assert rep.ok and not rep.violations


def test_validate_reflexivity_violation():
    sys = nb.make_system([(0,), (1,), (1,)])
    rep = nb.validate_structure(sys)
    assert any("reflexivity: 2" in v for v in rep.violations)
    rep_empty = nb.validate_structure(nb.make_system([(0,), (), (2,)]))
    assert rep_empty.violations == ["A[1] is empty"]


def test_relabeling_invariance_of_kappa_tau():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sys = random_system(rng, int(rng.integers(2, 9)))
        d = nb.derive(sys)
        perm = rng.permutation(sys.n)
        A = rows(sys.M)
        d2 = nb.derive(nb.make_system([perm[A[i]] for i in np.argsort(perm)]))  # i -> perm[i]
        assert (d.kappa, d.tau) == (d2.kappa, d2.tau)


def test_double_counting_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = random_system(rng, int(rng.integers(2, 9)))
        rev = rows(nb.derive(sys).Mt)
        assert sum(map(len, rows(sys.M))) == sum(map(len, rev))


def test_union_cover_tau_at_most_two_kappa_squared():
    rng = np.random.default_rng(17)
    for _ in range(30):
        sys = random_system(rng, int(rng.integers(2, 9)))
        d = nb.derive(sys)
        assert d.tau <= 2 * d.kappa**2


# ---------------------------------------------------------------------------
# The index-array kernels against scipy.sparse, bit for bit


def scipy_csr(rows_, cols, shape, data=None) -> sparse.csr_matrix:
    """scipy's canonical CSR of COO entries (repeats add up)."""
    data = np.ones(len(cols)) if data is None else data
    S = sparse.csr_matrix((data, (rows_, cols)), shape=shape)
    S.sum_duplicates()
    return S


def same_csr(A: nb.Csr, S: sparse.csr_matrix) -> bool:
    return (A.shape == S.shape and np.array_equal(A.indptr, S.indptr)
            and np.array_equal(A.indices, S.indices)
            and np.array_equal(np.ones(A.nnz) if A.data is None else A.data, S.data))


def pattern_of(S: sparse.csr_matrix) -> sparse.csr_matrix:
    """The 0/1 pattern of a product's nonzeros, in canonical order."""
    S = S.tocsr()
    S.sort_indices()
    S.data[:] = 1.0
    return S


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtypes and equal values bit for bit (signed zeros included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scipy_overlaps(S: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Per entry (i, j): |A_i & A_j| and (M o M^2)[i, j]; then kappa, tau,
    all by scipy's sparse products."""
    St = S.T.tocsr()
    s, r = np.diff(S.indptr), np.diff(St.indptr)
    I, J = np.repeat(np.arange(S.shape[0]), s), S.indices
    shared = (S @ St).toarray()[I, J]
    hits = S.multiply(S @ S).toarray()[I, J]
    cover = s[I] + s[J] - shared
    dsize = St @ s + St @ r - np.asarray(S.multiply(S @ S).sum(axis=0)).reshape(-1)
    return shared, hits, int(max(r.max(initial=0), cover.max(initial=0))), int(dsize.max(initial=0))


@st.composite
def neighborhood_lists(draw):
    """One list of ids per index: random rows (repeats, empty rows), bands,
    or cycles (wrap-around entries), at n = 1..40."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "band", "cycle"]))
    if kind == "random":
        return n, [draw(st.lists(st.integers(0, n - 1), max_size=6)) for _ in range(n)]
    offsets = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=4))
    if kind == "band":
        return n, [[i + d for d in offsets if 0 <= i + d < n] for i in range(n)]
    return n, [[(i + d) % n for d in offsets] for i in range(n)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=neighborhood_lists(), seed=st.integers(0, 2**16), reps=st.integers(1, 5),
       run_min=st.sampled_from([1, 2, 16, 10**9]), tile=st.sampled_from([1, 64, 2**18]))
def test_kernels_match_scipy_bit_for_bit(case, seed, reps, run_min, tile):
    """make_system, the matvec, the transpose matvec, the (n, reps) product
    in int8, int64 and float64, row selection, unions, the product pattern
    and derive's overlaps through both routes equal scipy.sparse's results
    bit for bit, whatever the run length and tile size of the product.  The
    incidence of a field whose rows read a source twice has counts above 1."""
    n, A = case
    rng = np.random.default_rng(seed)
    owner = np.repeat(np.arange(n), [len(a) for a in A])
    S = scipy_csr(owner, np.concatenate([np.asarray(a, dtype=np.int64) for a in A]), (n, n))
    S.data[:] = 1.0
    sys = nb.make_system(A)
    assert same_csr(sys.M, S)
    M, der = sys.M, nb.derive(sys)
    assert same_csr(der.Mt, S.T.tocsr())
    x = rng.standard_normal(n)
    assert same_array(M @ x, S @ x) and same_array(M.tdot(x), S.T @ x)
    with mock.patch.object(nb, "RUN_MIN", run_min), mock.patch.object(nb, "TILE_BYTES", tile):
        for dtype in (np.int8, np.int64, np.float64):
            X = (rng.integers(-3, 4, size=(n, reps)) if dtype != np.float64
                 else rng.standard_normal((n, reps))).astype(dtype)
            assert same_array(M @ X, (S.astype(dtype) if dtype != np.float64 else S) @ X)

    # row selections and unions (the beta sums' A_i | N_j | A_j), and their products
    I, J = nb.pairs(M)
    St = S.T.tocsr()
    assert same_csr(M.take(J), S[J])
    for parts, ref in [((M, der.Mt), S + St), ((M.take(I), der.Mt.take(J), M.take(J)), S[I] + St[J] + S[J])]:
        U = nb.union(*parts)
        ref = ref.sign()
        assert same_csr(U, ref)
        y = rng.standard_normal(U.shape[1])
        z = rng.standard_normal(U.shape[0])
        assert same_array(U @ y, ref @ y) and same_array(U.tdot(z), ref.T @ z)

    # derive: both overlap routes (bitsets always, expansion always), and kappa, tau
    shared, hits, kappa, tau = scipy_overlaps(S)
    for lookup_bytes in (2**62, 0):
        with mock.patch.object(nb, "LOOKUP_BYTES", lookup_bytes):
            got = nb._overlaps(M, der.Mt)
            assert np.array_equal(got[0], shared) and np.array_equal(got[1], hits)
            assert (nb.derive(sys).kappa, nb.derive(sys).tau) == (kappa, tau)
    assert (der.kappa, der.tau) == (kappa, tau)

    # an incidence with counts above 1 (repeated and padded slots), its
    # products and its overlap pattern
    supports = rng.integers(-1, n, size=(n, 3))
    supports[:, 2] = supports[:, 0] = rng.integers(0, n, size=n)  # a source read twice
    f = fields.LatentSourceField((fields.rademacher(),) * n, supports, ev=fields._sum_columns, center=False)
    keep = supports >= 0
    inc = scipy_csr(np.nonzero(keep)[0], supports[keep], (n, n))
    assert same_csr(f.incidence, inc) and f.incidence.data.max() >= 2
    assert same_array(f.incidence @ x, inc @ x)
    with mock.patch.object(nb, "RUN_MIN", run_min), mock.patch.object(nb, "TILE_BYTES", tile):
        for dtype in (np.int8, np.int64, np.float64):
            U = (rng.integers(-3, 4, size=(n, reps)) if dtype != np.float64
                 else rng.standard_normal((n, reps))).astype(dtype)
            assert same_array(f.incidence @ U, (inc.astype(dtype) if dtype != np.float64 else inc) @ U)
    assert same_csr(fields.overlap_matrix(f), pattern_of(inc @ inc.T))
    assert same_csr(nb.product_pattern(M, M), pattern_of(S @ S))  # empty rows included
