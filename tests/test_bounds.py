"""Bound-shape tests.

Core claims:
    - the two-term main shape and its lambda-scaled variant reproduce hand
      arithmetic (0.3 at n=100 iid Rademacher, 3 at n=1)
    - every shape is exactly invariant under X -> cX and index relabeling
    - the beta evaluator equals an independent naive quadruple-loop oracle
      on random declared systems, symmetric or not, and induced ones, and
      sits below its kappa/tau majorants
    - application shapes (graph, distributed U, constrained U, decorated)
      match direct formula evaluation and their structural identities
    - the delta components reproduce the hand-enumerated instance
    - the beta sums refuse, before building any union, a system whose
      unions exceed the term budget, counting only the unions they build
      (the pair cover alone on a symmetric system)
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import locdep.bounds as B
import locdep.fields as F
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O
from locdep.errors import BlockTooSmall, ComplexityCapExceeded, DegenerateVariance
from locdep.rng import STREAM_INSTANCES, substream
from test_oracle import random_instance


def iid_table(n: int) -> M.MomentTable:
    return M.MomentTable(
        l2=np.ones(n), l3=np.ones(n), l4=np.ones(n), sigma2=float(n), mode="exact"
    )


def test_bound_main_hand_arithmetic():
    rep = B.bound_main(iid_table(100), 1, 1)
    assert rep.terms["third_moment"] == pytest.approx(0.1)
    assert rep.terms["fourth_moment"] == pytest.approx(0.2)
    assert rep.value == pytest.approx(0.3)
    assert B.bound_main(iid_table(1), 1, 1).value == pytest.approx(3.0)


def test_bound_self_normalized_iid_lambda_one():
    rep = B.bound_self_normalized(iid_table(100), 1, 1)
    assert rep.terms["lambda"] == pytest.approx(1.0)
    assert rep.value == pytest.approx(0.3)


def test_kappa_homogeneity_of_terms():
    t = iid_table(50)
    r1 = B.bound_main(t, 1, 1)
    r2 = B.bound_main(t, 2, 1)
    assert r2.terms["third_moment"] == pytest.approx(4 * r1.terms["third_moment"])
    lam1 = B.bound_self_normalized(t, 1, 1).terms["lambda"]
    lam2 = B.bound_self_normalized(t, 2, 1).terms["lambda"]
    assert lam2 == pytest.approx(2 * lam1)


def _random_field_and_system(rng, n_max=8):
    n = int(rng.integers(2, n_max))
    m = int(rng.integers(0, 2))
    f = F.build_m_dependent(n, m, F.three_point(float(rng.choice([1.0, 2.0]))))
    sys = F.induced_neighborhoods(f)
    return f, sys


def test_scale_invariance_of_shapes():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        f = F.build_m_dependent(n, 1, F.rademacher())
        c = float(rng.uniform(0.5, 4.0))
        fc = F.build_m_dependent(n, 1, F.DiscreteSource((-c, c), (0.5, 0.5)))  # c (a + b)
        sys = F.induced_neighborhoods(f)
        der = nb.derive(sys)
        t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
        tc = M.exact_moment_table(fc, O.walk_outcomes(fc, var=True).sigma2)
        for fn in (
            lambda tt: B.bound_main(tt, der.kappa, der.tau).value,
            lambda tt: B.bound_self_normalized(tt, der.kappa, der.tau).value,
            lambda tt: B.bound_general_beta(tt, sys, der).value,
            lambda tt: B.bound_graph(tt, 2).value,
            lambda tt: B.bound_constrained_u(tt, n, 1).value,
            lambda tt: B.bound_decorated(tt, n, 2).value,
        ):
            assert fn(tc) == pytest.approx(fn(t), rel=1e-12)


def test_relabeling_invariance_of_shapes():
    rng = np.random.default_rng(6)
    for _ in range(5):
        f, sys = _random_field_and_system(rng)
        der = nb.derive(sys)
        t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
        perm = rng.permutation(sys.n)
        sys_p = nb.make_system([perm[sys.M.row(i)] for i in np.argsort(perm)])  # i -> perm[i]
        der_p = nb.derive(sys_p)
        inv = np.empty(sys.n, dtype=int)
        inv[perm] = np.arange(sys.n)
        t_p = M.MomentTable(
            l2=t.l2[inv], l3=t.l3[inv], l4=t.l4[inv], sigma2=t.sigma2, mode="exact"
        )
        assert B.bound_main(t_p, der_p.kappa, der_p.tau).value == pytest.approx(
            B.bound_main(t, der.kappa, der.tau).value, rel=1e-12
        )
        assert B.bound_general_beta(t_p, sys_p, der_p).value == pytest.approx(
            B.bound_general_beta(t, sys, der).value, rel=1e-12
        )


def naive_beta(l4, sys, sigma):
    """Literal quadruple loops over the displayed sums, with the union
    cover A_i | A_j and D_i = {(k, l) : l in A_k, i in A_k | A_l} built
    by brute force."""
    n = sys.n
    A = [set(sys.M.row(i).tolist()) for i in range(n)]
    N = [{k for k in range(n) if i in A[k]} for i in range(n)]
    D = [[(k, l) for k in range(n) for l in A[k] if i in A[k] | A[l]] for i in range(n)]
    size = [len(a) for a in A]
    b1 = sum(size[i] ** 2 * l4[i] ** 3 for i in range(n))
    b1 += sum(size[i] * l4[j] ** 3 for i in range(n) for j in A[i])
    t21 = sum(
        l4[i] * l4[j] * l4[k] * l4[l]
        for i in range(n)
        for j in A[i]
        for k in (A[i] | A[j])
        for l in (A[k] | N[k])
    )
    t22 = sum(
        size[i] ** 2 * l4[i] ** 3 * l4[j] for i in range(n) for j in (A[i] | N[i])
    )
    t23 = sum(
        size[i] * l4[j] ** 3 * l4[k]
        for i in range(n)
        for j in A[i]
        for k in (A[i] | N[j] | A[j])
    )
    t31 = sum(
        size[i] ** 2 * l4[i] ** 3 * l4[j] * l4[k]
        for i in range(n)
        for j in (A[i] | N[i])
        for k in N[j]
    )
    t32 = sum(
        size[i] * l4[j] ** 3 * l4[k] * l4[l]
        for i in range(n)
        for j in A[i]
        for k in (A[i] | N[j])
        for l in N[k]
    )
    t33 = sum(
        size[i] ** 2 * l4[i] ** 3 * l4[k] * l4[l]
        for i in range(n)
        for (k, l) in D[i]
    )
    t34 = sum(
        size[i] * l4[j] ** 3 * l4[k] * l4[l]
        for i in range(n)
        for j in A[i]
        for (k, l) in D[j]
    )
    beta1 = b1 / sigma**3
    beta2 = math.sqrt((t21 + t22 + t23) / sigma**4)
    beta3 = math.sqrt((t31 + t32 + t33 + t34) / sigma**5)
    return beta1, beta2, beta3


def test_beta_evaluator_equals_naive_loops():
    """Declared systems (most of them not symmetric), each also made
    symmetric, and the induced systems of random fields: the symmetric
    ones take the route that builds only the pair cover."""
    rng = np.random.default_rng(7)
    systems = []
    for _ in range(10):
        n = int(rng.integers(2, 12))
        A = []
        for i in range(n):
            extra = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
            A.append(sorted({i, *extra.tolist()}))
        systems.append(nb.make_system(A))
        both = [set(a) for a in A]
        for i, a in enumerate(A):
            for j in a:
                both[j].add(i)
        systems.append(nb.make_system([sorted(a) for a in both]))
    for k in range(6):
        f = random_instance(substream(99, STREAM_INSTANCES, k))[2]
        systems.append(F.induced_neighborhoods(f))
    symmetric = 0
    for sys in systems:
        n = sys.n
        der = nb.derive(sys)
        symmetric += der.Mt is sys.M
        l4 = rng.uniform(0.2, 2.0, size=n)
        t = M.MomentTable(l2=l4 * 0.8, l3=l4 * 0.9, l4=l4, sigma2=float(n), mode="exact")
        rep = B.bound_general_beta(t, sys, der)
        b1, b2, b3 = naive_beta(l4, sys, math.sqrt(n))
        assert rep.terms["beta1"] == pytest.approx(b1, rel=1e-12)
        assert rep.terms["beta2"] == pytest.approx(b2, rel=1e-12)
        assert rep.terms["beta3"] == pytest.approx(b3, rel=1e-12)
    assert symmetric >= 16 and len(systems) - symmetric >= 5


def test_beta_below_kappa_tau_majorants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        f, sys = _random_field_and_system(rng)
        der = nb.derive(sys)
        t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
        rep = B.bound_general_beta(t, sys, der)
        sigma = t.sigma
        major1 = 2 * der.kappa**2 / sigma**3 * float(np.sum(t.l4**3))
        assert rep.terms["beta1"] <= major1 + 1e-12
        major2 = (
            3.0
            * der.kappa**0.5
            * (der.kappa + der.tau**0.5)
            / sigma**2
            * math.sqrt(float(np.sum(t.l4**4)))
        )
        assert rep.terms["beta2"] <= major2 + 1e-12


def test_all_zero_norms_give_zero_beta():
    sys = nb.make_system([[i] for i in range(3)])
    der = nb.derive(sys)
    t = M.MomentTable(l2=np.zeros(3), l3=np.zeros(3), l4=np.zeros(3),
                      sigma2=1.0, mode="exact")
    assert B.bound_general_beta(t, sys, der).value == 0.0


def test_term_budget_raises_before_any_union(monkeypatch):
    """TERM_BUDGET caps the summed row lengths of the unions beta_sums
    builds, checked before any is built: on a symmetric (induced) system
    the pair cover alone, sum over the entries (i, j) of |A_i| + |A_j|;
    on one that is not, all four unions."""
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    der = nb.derive(sys)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    s = np.diff(sys.M.indptr)
    cover = int(s[sys.M.rows].sum() + s[sys.M.indices].sum())
    want = B.beta_sums(t.l4, sys, der)
    monkeypatch.setattr(B, "TERM_BUDGET", cover)
    got = B.beta_sums(t.l4, sys, der)  # exactly at the cap
    assert all(np.array_equal(got[k], want[k]) for k in want)
    monkeypatch.setattr(B, "TERM_BUDGET", cover - 1)
    monkeypatch.setattr(B, "union", lambda *parts: pytest.fail("union built over the cap"))
    with pytest.raises(ComplexityCapExceeded, match=f"needs {cover} term visits, over the cap {cover - 1}$"):
        B.bound_general_beta(t, sys, der)
    with pytest.raises(ComplexityCapExceeded):
        B.beta_sums(t.l4, sys, der)
    # one-sided windows: A_i = {i, i + 1}, not symmetric, four unions
    one_sided = nb.make_system([[i, i + 1] if i < 5 else [i] for i in range(6)])
    der1 = nb.derive(one_sided)
    M1, s1, r1 = one_sided.M, np.diff(one_sided.M.indptr), np.diff(der1.Mt.indptr)
    I, J = M1.rows, M1.indices
    four = int(2 * M1.nnz + 3 * s1[I].sum() + 2 * s1[J].sum() + 2 * r1[J].sum())
    with pytest.raises(ComplexityCapExceeded, match=f"needs {four} term visits"):
        B.beta_sums(t.l4, one_sided, der1)


def test_bound_graph_examples():
    t = iid_table(10)
    rep0 = B.bound_graph(t, 0)
    assert rep0.value == 0.0 and rep0.inputs["degenerate_degree"]
    # cycle C6 with Rademacher sums: graph shape within a factor 8 of the
    # kappa/tau shape under the substitution kappa=2d, tau=4d^2
    f = F.build_graph_dependency(6, [(i, (i + 1) % 6) for i in range(6)], F.rademacher())
    sys = F.induced_neighborhoods(f)
    table = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    d = f.metadata["max_degree"] - 1
    g = B.bound_graph(table, d)
    main_sub = B.bound_main(table, 2 * d, 4 * d**2)
    assert main_sub.value / 8 <= g.value <= 8 * main_sub.value
    # lambda_1 scale invariance
    fc = F.build_graph_dependency(
        6, [(i, (i + 1) % 6) for i in range(6)], F.DiscreteSource((-2.0, 2.0), (0.5, 0.5)),
    )
    tc = M.exact_moment_table(fc, O.walk_outcomes(fc, var=True).sigma2)
    assert B.bound_graph(tc, d).terms["lambda1"] == pytest.approx(
        g.terms["lambda1"], rel=1e-12
    )


def test_bound_distributed_u_examples():
    km = M.KernelMoments(sigma1=1.3, var=1.0, l4=1.3)
    rep = B.bound_distributed_u(km, 100, 2, [100])
    assert rep.terms["normalized"] == pytest.approx(0.2)
    sizes = [8, 8, 9]
    rep2 = B.bound_distributed_u(km, 25, 2, sizes)
    assert rep2.inputs["block_ratio_sum"] <= 2 * len(sizes)  # n_i >= 2m
    with pytest.raises(BlockTooSmall):
        B.bound_distributed_u(km, 5, 3, [2, 3])
    # k = O(sqrt(N)) with n_i >= 2m keeps the shape O(N^{-1/2})
    vals = []
    for n_total in (100, 400):
        k = int(math.sqrt(n_total))
        sizes = [n_total // k] * k
        r = B.bound_distributed_u(km, sum(sizes), 2, sizes)
        vals.append(r.value * math.sqrt(sum(sizes)))
    assert vals[1] <= 1.5 * vals[0]


def test_bound_constrained_u_formula():
    n, b_exp = 50, 2
    f = F.build_word_field([0, 1], n, 2, [None])
    table = M.exact_moment_table(f)
    rep = B.bound_constrained_u(table, n, b_exp)
    sfd = table.sigma / n ** (b_exp - 0.5)
    t3 = float(np.sum(table.l4**3))
    t4 = float(np.sum(table.l4**4))
    assert rep.terms["third_moment"] == pytest.approx(n ** (-b_exp - 0.5) / sfd**3 * t3)
    assert rep.terms["fourth_moment"] == pytest.approx(
        n ** (-b_exp / 2 - 0.5) / sfd**2 * math.sqrt(t4)
    )
    assert rep.terms["self_normalized_scale"] == pytest.approx(
        n ** (-b_exp) / sfd**2 * float(np.sum(table.l2**2))
    )
    # gaps (2, inf) at l = 3 use b = 2
    f2 = F.build_constrained_ustat_field(
        10, 0, lambda x, y, z: x * y * z, (2, None), F.rademacher()
    )
    assert f2.metadata["b"] == 2


def test_bounded_f_unconstrained_shape_is_root_n():
    # |I| = Theta(n^b) with bounded f: shape * sqrt(n) stays bounded
    vals = []
    for n in (30, 120):
        f = F.build_word_field([0, 1], n, 2, [None])
        table = M.exact_moment_table(f)
        rep = B.bound_constrained_u(table, n, f.metadata["b"])
        vals.append(rep.value * math.sqrt(n))
    assert 0.5 <= vals[1] / vals[0] <= 2.0


def test_bound_decorated_examples():
    f = F.build_decorated_graph_field(6, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))
    table = M.exact_moment_table(f)
    rep = B.bound_decorated(table, 6, 3)
    e3 = float(np.sum(table.l3**3))
    assert rep.terms["third_moment"] == pytest.approx(
        6 ** (2 * 3 - 4) * e3 / table.sigma**3
    )
    assert rep.terms["lambda2"] == pytest.approx(
        6 ** (3 - 2) * float(np.sum(table.l2**2)) / table.sigma2
    )
    # zero-variance decorations give zero shapes
    z = M.MomentTable(l2=np.zeros(4), l3=np.zeros(4), l4=np.zeros(4),
                      sigma2=0.0, mode="exact")
    assert B.bound_decorated(z, 6, 3).value == 0.0


def test_decorated_shape_order_one_over_n():
    # fixed p: the shape decays like 1/n across a small grid
    vals = []
    for n in (8, 16):
        f = F.build_decorated_graph_field(n, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.3))
        table = M.exact_moment_table(f)
        vals.append(B.bound_decorated(table, n, 3).value * n)
    assert 0.4 <= vals[1] / vals[0] <= 2.5


def test_bound_distributed_general_identities():
    t = iid_table(20)
    single = B.bound_distributed_general([t.l4], [1], [1], t.sigma)
    main = B.bound_main(t, 1, 1)
    # first terms coincide exactly; the root terms differ by construction
    # of the two displayed forms, by a factor within [1, sqrt(2)]
    assert single.terms["third_moment"] == pytest.approx(
        main.terms["third_moment"], rel=1e-12
    )
    ratio = main.terms["fourth_moment"] / single.terms["fourth_moment"]
    assert 1.0 - 1e-12 <= ratio <= math.sqrt(2) + 1e-12
    assert main.value / math.sqrt(2) <= single.value <= main.value * math.sqrt(2)
    # homogeneous blocks: aggregate of one block's sums
    t_block = iid_table(10)
    sigma = math.sqrt(20)
    double = B.bound_distributed_general([t_block.l4, t_block.l4], [2, 2], [3, 3], sigma)
    term1 = 2 * (2**2 * 10) / sigma**3
    term2 = math.sqrt(2 * (2**3 + 2 * 3) * 10) / sigma**2
    assert double.value == pytest.approx(term1 + term2, rel=1e-12)


def prop_deltas(t, sys, der, A, B_, a, b, c, sums):
    """(delta_components_prop1, delta_components_prop2) of one instance at
    the test sets A and B_: its table's norm sums and its set sums over
    the dense matrix of its system."""
    in_a, in_b = (np.isin(np.arange(sys.n), S)[None] for S in (A, B_))
    sets = B.set_sums(sys.M.toarray()[None], t.l4[None], sums["w_an"][None], in_a, in_b)[0]
    norms = B.norm_sums(t)[0]
    return (B.delta_components_prop1(norms, sets, a, b, c, sums),
            B.delta_components_prop2(norms, der.kappa, der.tau, sets, a, b, c))


def test_delta_components_hand_instance():
    f = F.build_iid_field(4, F.rademacher())
    sys = F.induced_neighborhoods(f)
    der = nb.derive(sys)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    sums = B.beta_sums(t.l4, sys, der)
    d, (lam, d2) = prop_deltas(t, sys, der, [0], [1], 0.0, 0.0, 1.0, sums)
    assert d["delta0"] == 0.0
    assert d["delta1"] == pytest.approx(0.5) and d["delta2"] == pytest.approx(0.5)
    assert d["delta3"] == pytest.approx(0.25) and d["delta4"] == pytest.approx(0.25)
    assert d["delta5"] == pytest.approx(1.0)
    assert lam == pytest.approx(1.0)
    assert d2["delta2"] == pytest.approx(4 / 8)  # c lam kappa^2 |A|^2 / s^3 * sum l4^3


def test_delta_monotone_in_c():
    f = F.build_m_dependent(5, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    der = nb.derive(sys)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    prev, sums = None, B.beta_sums(t.l4, sys, der)
    for c in (1.0, 1.5, 2.5):
        d, (_, d2) = prop_deltas(t, sys, der, [0], [1], -0.5, 0.5, c, sums)
        total = sum(d.values())
        if prev is not None:
            assert total >= prev
        prev = total
        assert all(v >= 0 for v in d2.values())


def test_prop2_delta4_zero_for_isolated_zero_index():
    # X_0 identically zero and isolated: N_A = {0} carries zero norms
    f = F.LatentSourceField(
        sources=(F.rademacher(),) * 3,
        supports=((0, -1), (1, -1), (1, 2)),
        ev=lambda G, c: (G * c).sum(axis=-1),
        params=(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),),
    )
    sys = F.induced_neighborhoods(f)
    der = nb.derive(sys)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    _, (_, d2) = prop_deltas(t, sys, der, [0], [1], 0.0, 0.0, 1.0, B.beta_sums(t.l4, sys, der))
    assert d2["delta4"] == 0.0


def test_degenerate_variance_raises():
    t = M.MomentTable(l2=np.ones(3), l3=np.ones(3), l4=np.ones(3), sigma2=0.0, mode="exact")
    with pytest.raises(DegenerateVariance):
        B.bound_main(t, 1, 1)


def test_mc_tables_carry_uncertainty_band():
    f = F.build_m_dependent(6, 1, F.rademacher())
    tm = M.mc_moment_table(f, reps=4000, master_seed=9)
    rep = B.bound_main(tm, 4, 11)
    assert rep.se is not None and rep.se > 0
    t = M.exact_moment_table(f)
    exact_rep = B.bound_main(t, 4, 11)
    assert abs(rep.value - exact_rep.value) <= 5 * rep.se


def test_beta_iid_closed_forms():
    # iid: beta1 = 2n/s^3, beta2^2 = 3n/s^4, beta3^2 = 4n/s^5
    n = 9
    sys = nb.make_system([[i] for i in range(n)])
    der = nb.derive(sys)
    t = iid_table(n)
    rep = B.bound_general_beta(t, sys, der)
    s = math.sqrt(float(n))
    assert rep.terms["beta1"] == pytest.approx(2 * n / s**3, rel=1e-12)
    assert rep.terms["beta2"] ** 2 == pytest.approx(3 * n / s**4, rel=1e-12)
    assert rep.terms["beta3"] ** 2 == pytest.approx(4 * n / s**5, rel=1e-12)


def test_delta_components_scale_invariant():
    f = F.build_m_dependent(5, 1, F.rademacher())
    fc = F.build_m_dependent(5, 1, F.DiscreteSource((-3.0, 3.0), (0.5, 0.5)))  # 3 (a + b)
    sys = F.induced_neighborhoods(f)
    der = nb.derive(sys)
    t = M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2)
    tc = M.exact_moment_table(fc, O.walk_outcomes(fc, var=True).sigma2)
    sums, sums_c = B.beta_sums(t.l4, sys, der), B.beta_sums(tc.l4, sys, der)
    d, (lam, d2) = prop_deltas(t, sys, der, [0], [1], -0.3, 0.7, 2.0, sums)
    dc, (lam_c, d2c) = prop_deltas(tc, sys, der, [0], [1], -0.3, 0.7, 2.0, sums_c)
    for k in d:
        assert dc[k] == pytest.approx(d[k], rel=1e-12)
    assert lam_c == pytest.approx(lam, rel=1e-12)
    for k in d2:
        assert d2c[k] == pytest.approx(d2[k], rel=1e-12)
