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
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

import locdep.fields as fields
import locdep.neighborhood as nb
from locdep.bounds import interference_set_of


def rows(M) -> list[np.ndarray]:
    """The sorted column ids of each row of a CSR matrix: A_i for M, N_j for Mt."""
    return [M.indices[M.indptr[i]:M.indptr[i + 1]] for i in range(M.shape[0])]


def iid_system(n: int) -> nb.NeighborhoodSystem:
    return nb.make_system(sparse.identity(n, format="csr"))


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
        sys.M.data[0] = 2.0
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
