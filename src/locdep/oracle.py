"""Exact enumeration over finite-discrete fields and the explicit-constant
inequality checkers.

For an enumerable field the joint law is a finite list of (probability,
realization) pairs, so expectations, distributions, Kolmogorov distances,
and both sides of every explicit-constant inequality are computed exactly
(up to floating round-off).  A check passes when

    margin = rhs - lhs >= -1e-10 * max(1, |rhs|).

Preconditions are tri-state ("satisfied" / "violated" / "not_applicable"):
a violated precondition never counts as a failure, and suites require zero
failures among precondition-satisfied instances.

The normal CDF is scipy's complementary-error-function based ``ndtr``
(absolute error below 1e-14; unit-tested against tabulated values).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .bounds import (
    _beta_sums,
    _Budget,
    DEFAULT_TERM_BUDGET,
    delta_components_prop1,
    delta_components_prop2,
    interference_set_of,
    reverse_set_of,
)
from .errors import DegenerateVariance, InvalidTestFunction
from .fields import (
    DEFAULT_ENUM_CAP,
    DiscreteSource,
    LatentSourceField,
    evaluate_values,
    induced_neighborhoods,
    outcome_blocks,
    overlap_matrix,
)
from .moments import MomentTable, exact_moment_table, lam_scale
from .neighborhood import DerivedNeighborhoods, NeighborhoodSystem, adjacency, derive
from .statistics import w1_batch, w2_batch, w2bar_batch

PASS_TOL = 1e-10
ATOM_MERGE_TOL = 1e-12


def phi(z):
    """Standard normal CDF."""
    return ndtr(z)


# ---------------------------------------------------------------------------
# Enumeration plans


@dataclass
class EnumerationPlan:
    """Materialized outcome space of an enumerable field."""

    probs: np.ndarray  # (M,)
    X: np.ndarray      # (M, n) centered field values

    def expectation(self, values: np.ndarray) -> float:
        return float(self.probs @ values)


def enumerate_field(
    field: LatentSourceField, cap: int = DEFAULT_ENUM_CAP
) -> EnumerationPlan:
    probs_parts = []
    x_parts = []
    for p, rows in outcome_blocks(field, cap=cap):
        probs_parts.append(p)
        x_parts.append(evaluate_values(field, rows))
    probs = np.concatenate(probs_parts)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {total}")
    return EnumerationPlan(probs=probs, X=np.concatenate(x_parts, axis=0))


@dataclass
class Precomputed:
    """Shared state for running several checkers on one instance."""

    field: LatentSourceField
    sys: NeighborhoodSystem
    derived: DerivedNeighborhoods
    plan: EnumerationPlan
    table: MomentTable
    sigma: float


def precompute(
    field: LatentSourceField,
    sys: NeighborhoodSystem | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> Precomputed:
    if sys is None:
        sys = induced_neighborhoods(field)
    der = derive(sys)
    plan = enumerate_field(field, cap=cap)
    table = exact_moment_table(field, sys, kappa=der.kappa, cap=cap)
    if table.degenerate:
        raise DegenerateVariance("instance has Var(S) = 0")
    return Precomputed(
        field=field, sys=sys, derived=der, plan=plan, table=table, sigma=table.sigma
    )


# ---------------------------------------------------------------------------
# Exact expectation / distribution / Kolmogorov distance


def exact_expectation(
    field: LatentSourceField,
    functional: Callable,
    cap: int = DEFAULT_ENUM_CAP,
    threads: int = 1,
) -> float:
    """sum over outcomes of probability * functional(realization row).

    Blocks of the mixed-radix outcome range evaluate independently (in
    waves of ``threads`` blocks, keeping memory bounded); partial sums
    merge in block order.
    """
    gen = outcome_blocks(field, cap=cap)

    def one(block) -> float:
        p, rows = block
        vals = np.asarray(functional(evaluate_values(field, rows)), dtype=float)
        return float(p @ vals)

    parts: list[float] = []
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            while True:
                wave = list(itertools.islice(gen, threads))
                if not wave:
                    break
                parts.extend(pool.map(one, wave))
    else:
        parts = [one(b) for b in gen]
    return float(sum(parts))


def merge_atoms(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge numerically identical atoms."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    p = probs[order]
    out_v: list[float] = []
    out_p: list[float] = []
    for val, pr in zip(v, p):
        if out_v and abs(val - out_v[-1]) <= ATOM_MERGE_TOL * max(1.0, abs(out_v[-1])):
            out_p[-1] += pr
        else:
            out_v.append(float(val))
            out_p.append(float(pr))
    return np.asarray(out_v), np.asarray(out_p)


def _statistic_batch(name: str, X: np.ndarray, sys_or_adj, sigma: float | None):
    if name == "w1":
        if sigma is None:
            raise DegenerateVariance("w1 needs sigma")
        return w1_batch(X, sigma), np.zeros(X.shape[0], dtype=bool)
    if name == "w2":
        return w2_batch(X, sys_or_adj)
    if name == "w2bar":
        if sigma is None:
            raise DegenerateVariance("w2bar needs sigma")
        return w2bar_batch(X, sys_or_adj, sigma), np.zeros(X.shape[0], dtype=bool)
    if name == "sum":
        return X.sum(axis=1), np.zeros(X.shape[0], dtype=bool)
    raise ValueError(f"unknown statistic {name!r}")


def exact_distribution(
    field: LatentSourceField,
    statistic: str,
    sys: NeighborhoodSystem | None = None,
    sigma: float | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(atoms, probs, rejected_probability) of a statistic's exact law.

    For the self-normalized statistic, outcomes with V = 0 are rejected
    and the remaining law is conditioned on acceptance.
    """
    adj = overlap_matrix(field) if sys is None else adjacency(sys)
    vals_parts = []
    probs_parts = []
    rejected = 0.0
    for p, rows in outcome_blocks(field, cap=cap):
        X = evaluate_values(field, rows)
        vals, rej = _statistic_batch(statistic, X, adj, sigma)
        if rej.any():
            rejected += float(p[rej].sum())
            vals, p = vals[~rej], p[~rej]
        vals_parts.append(vals)
        probs_parts.append(p)
    values = np.concatenate(vals_parts)
    probs = np.concatenate(probs_parts)
    if rejected > 0:
        if rejected >= 1.0 - 1e-15:
            raise DegenerateVariance("statistic rejected on every outcome")
        probs = probs / (1.0 - rejected)
    atoms, aprobs = merge_atoms(values, probs)
    return atoms, aprobs, rejected


def kolmogorov_from_atoms(atoms: np.ndarray, probs: np.ndarray) -> float:
    """sup_z |F(z) - Phi(z)| for an atomic F, taking left and right limits
    at every atom."""
    cdf = np.cumsum(probs)
    cdf_left = cdf - probs
    ph = phi(atoms)
    return float(max(np.max(cdf - ph), np.max(ph - cdf_left)))


def exact_kolmogorov(
    field: LatentSourceField,
    statistic: str,
    sys: NeighborhoodSystem | None = None,
    sigma: float | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> float:
    if statistic in ("w1", "w2bar") and sigma is None:
        table = exact_moment_table(field, sys)
        if table.degenerate:
            raise DegenerateVariance("Var(S) = 0")
        sigma = table.sigma
    atoms, probs, _ = exact_distribution(field, statistic, sys=sys, sigma=sigma, cap=cap)
    return kolmogorov_from_atoms(atoms, probs)


# ---------------------------------------------------------------------------
# The xi catalog


XI_KINDS = ("one", "abs", "square", "abs_product", "clipped_exp")


def xi_function(kind: str, A: Sequence[int], param: float = 0.5) -> Callable:
    """A nonnegative, A-measurable test factor: X-matrix -> (M,) values."""
    A = tuple(A)

    if kind == "one":
        return lambda X: np.ones(X.shape[0])
    if not A:
        raise ValueError(f"xi kind {kind!r} needs a nonempty A")
    a0 = A[0]
    if kind == "abs":
        return lambda X: np.abs(X[:, a0])
    if kind == "square":
        return lambda X: X[:, a0] ** 2
    if kind == "abs_product":
        return lambda X: np.prod(np.abs(X[:, A]), axis=1)
    if kind == "clipped_exp":
        return lambda X: np.minimum(np.exp(param * X[:, a0]), 3.0)
    raise ValueError(f"unknown xi kind {kind!r}")


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class InequalityVerdict:
    """One checked instance of an explicit-constant inequality."""

    check_id: str
    lhs: float
    rhs: float
    constant: float
    precondition: str  # "satisfied" | "violated" | "not_applicable"
    digest: str
    extras: dict = dc_field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -PASS_TOL * max(1.0, abs(self.rhs))

    @property
    def counts_as_failure(self) -> bool:
        return (not self.passed) and self.precondition != "violated"


def verdicts_to_csv_rows(verdicts: Sequence[InequalityVerdict]) -> list[str]:
    rows = ["digest,check,lhs,rhs,margin,precondition,verdict"]
    for v in verdicts:
        rows.append(
            f"{v.digest},{v.check_id},{v.lhs:.17g},{v.rhs:.17g},{v.margin:.17g},"
            f"{v.precondition},{'pass' if v.passed else 'fail'}"
        )
    return rows


def _xi_moments(plan: EnumerationPlan, xi_vals: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(xi^p per outcome, ||xi||_p^p); p = 0 gives (ones, 1)."""
    if p == 0:
        return np.ones_like(xi_vals), 1.0
    pw = xi_vals**p
    return pw, float(plan.probs @ pw)


def _complement_mask(n: int, members: Sequence[int]) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for m in members:
        mask[m] = False
    return mask


def gamma_quad(table: MomentTable, sys: NeighborhoodSystem, derived: DerivedNeighborhoods) -> float:
    """gamma = sum_i sum_{j in A_i} sum_{k in A_ij} sum_{l in N_k | A_k}
    of the four L4 norms."""
    raw = _beta_sums(
        table.l4, sys, derived, _Budget(DEFAULT_TERM_BUDGET), third_union_includes_aj=False
    )
    return raw["t21"]


# ---------------------------------------------------------------------------
# Lemma checkers


def check_lemma_xiyi(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    A: Sequence[int],
    xi: Callable | None = None,
    p: float = 1.0,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> InequalityVerdict:
    """Second moment of the off-neighborhood quadratic fluctuation:

        E{ xi^p | sum_{i,j} (X_i X_j - E X_i X_j) |^2 }
            <= 4 ||xi||_p^p (gamma_A^2 + 4 gamma),

    summing over i outside N_A and j in A_i outside N_A.  With empty A and
    xi = 1 this is the 16-gamma corollary for the full double sum.
    """
    pre = pre or precompute(field, sys, cap=cap)
    plan, der, table = pre.plan, pre.derived, pre.table
    n = sys.n
    comp = _complement_mask(n, reverse_set_of(sys, A))
    P = adjacency(sys).toarray() * np.outer(comp, comp)
    cov = (plan.X * plan.probs[:, None]).T @ plan.X  # E[X_i X_j]
    center = float(np.sum(P * cov))
    quad = np.einsum("mi,ij,mj->m", plan.X, P, plan.X) - center
    xi_vals = xi(plan.X) if xi is not None else np.ones(plan.X.shape[0])
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = float(plan.probs @ (xi_pow * quad**2))
    d_a = interference_set_of(sys, A)
    gamma_a = float(sum(table.l4[i] * table.l4[j] for (i, j) in d_a))
    gamma = gamma_quad(table, sys, der)
    rhs = 4.0 * xi_norm * (gamma_a**2 + 4.0 * gamma)
    return InequalityVerdict(
        check_id="lemma_xiyi" if A else "lemma_xiyi_corollary",
        lhs=lhs,
        rhs=rhs,
        constant=16.0,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};p={p}",
        extras={"gamma_A": gamma_a, "gamma": gamma},
    )


def check_lemma_s2(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    A: Sequence[int],
    xi: Callable | None = None,
    p: float = 1.0,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> InequalityVerdict:
    """E{xi^p S_A^2} <= ||xi||_p^p (E S_A^2 + 2 sum_{D_A} ||X_i||_4 ||X_j||_4)."""
    pre = pre or precompute(field, sys, cap=cap)
    plan, table = pre.plan, pre.table
    comp = _complement_mask(sys.n, reverse_set_of(sys, A))
    s_a = plan.X[:, comp].sum(axis=1)
    xi_vals = xi(plan.X) if xi is not None else np.ones(plan.X.shape[0])
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = float(plan.probs @ (xi_pow * s_a**2))
    es2 = float(plan.probs @ s_a**2)
    d_a = interference_set_of(sys, A)
    pair_term = float(sum(table.l4[i] * table.l4[j] for (i, j) in d_a))
    rhs = xi_norm * (es2 + 2.0 * pair_term)
    return InequalityVerdict(
        check_id="lemma_s2",
        lhs=lhs,
        rhs=rhs,
        constant=2.0,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};p={p}",
        extras={"E_SA2": es2, "pair_term": pair_term},
    )


def fourth_moment_precondition(
    table: MomentTable, kappa: int, tau: int, a_size: int
) -> tuple[bool, dict[str, float]]:
    """Both fourth-moment preconditions at threshold 1/500."""
    sigma = table.sigma
    lhs1 = a_size**2 * kappa**2 / sigma**3 * float(np.sum(table.l4**3))
    lhs2 = (
        a_size**0.5
        * kappa**0.5
        * (kappa + tau**0.5)
        / sigma**2
        * math.sqrt(float(np.sum(table.l4**4)))
    )
    ok = lhs1 <= 1.0 / 500.0 and lhs2 <= 1.0 / 500.0
    return ok, {"pre1": lhs1, "pre2": lhs2, "threshold": 1.0 / 500.0}


def check_lemma_s4(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    A: Sequence[int],
    xi: Callable | None = None,
    p: float = 1.0,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[InequalityVerdict]:
    """Fourth-moment bounds at constant 13: E{xi^p S_A^4} <= 13 lam s^4 E xi^p,
    with companions E S^4 <= 13 lam s^4 and E(sum Y_i)^4 <= 13 kappa^4 lam s^4."""
    pre = pre or precompute(field, sys, cap=cap)
    plan, der, table = pre.plan, pre.derived, pre.table
    kappa, tau = der.kappa, der.tau
    sigma = pre.sigma
    lam = lam_scale(table, kappa)
    ok, pre_info = fourth_moment_precondition(table, kappa, tau, max(len(A), 1))
    status = "satisfied" if ok else "violated"
    digest = f"n={sys.n};A={sorted(A)};p={p}"

    comp = _complement_mask(sys.n, reverse_set_of(sys, A))
    s_a = plan.X[:, comp].sum(axis=1)
    xi_vals = xi(plan.X) if xi is not None else np.ones(plan.X.shape[0])
    xi_pow, e_xi = _xi_moments(plan, xi_vals, p)
    verdicts = [
        InequalityVerdict(
            check_id="lemma_s4_xi",
            lhs=float(plan.probs @ (xi_pow * s_a**4)),
            rhs=13.0 * lam * sigma**4 * e_xi,
            constant=13.0,
            precondition=status,
            digest=digest,
            extras=pre_info,
        )
    ]
    s = plan.X.sum(axis=1)
    verdicts.append(
        InequalityVerdict(
            check_id="lemma_s4_s",
            lhs=float(plan.probs @ s**4),
            rhs=13.0 * lam * sigma**4,
            constant=13.0,
            precondition=status,
            digest=digest,
            extras=pre_info,
        )
    )
    rev_sizes = np.array([len(ns) for ns in der.N], dtype=float)
    y_total = plan.X @ rev_sizes
    verdicts.append(
        InequalityVerdict(
            check_id="lemma_s4_y",
            lhs=float(plan.probs @ y_total**4),
            rhs=13.0 * kappa**4 * lam * sigma**4,
            constant=13.0,
            precondition=status,
            digest=digest,
            extras=pre_info,
        )
    )
    return verdicts


TEST_FUNCTIONS: dict[str, Callable] = {
    "clamp": lambda w: np.clip(w, -1.0, 1.0),
    "tanh": np.tanh,
    "sine": np.sin,
    "smoothstep": lambda w: w / np.sqrt(1.0 + w**2),
}


def validate_test_function(f: Callable, grid_half_width: float = 40.0) -> None:
    """||f||_inf <= 1 and ||f'||_inf <= 1, validated on a dense grid once
    per distinct (f, grid_half_width) in a process."""
    _validate_once(f, grid_half_width)


@functools.cache
def _validate_once(f: Callable, grid_half_width: float) -> None:
    w = np.linspace(-grid_half_width, grid_half_width, 160001)
    vals = np.asarray(f(w), dtype=float)
    if np.max(np.abs(vals)) > 1.0 + 1e-9:
        raise InvalidTestFunction("sup norm exceeds 1")
    slopes = np.abs(np.diff(vals) / np.diff(w))
    if np.max(slopes) > 1.0 + 1e-6:
        raise InvalidTestFunction("derivative norm exceeds 1")


def check_lemma_r4(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    test_functions: dict[str, Callable] | None = None,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[InequalityVerdict]:
    """Necessary-condition check of the clamped self-normalized term bound:

        sum_i | E{ (X_i/Vbar) f(W2bar - Y_i/Vbar) } |
            <= 27 kappa^2/s^3 sum E|X_i|^3 + 11 kappa^3/s^4 sum E|X_i|^4

    for each test function in a finite family (the quantifier over all
    absolutely continuous f cannot be verified universally).
    """
    pre = pre or precompute(field, sys, cap=cap)
    plan, der, table = pre.plan, pre.derived, pre.table
    sigma = pre.sigma
    kappa = der.kappa
    fam = test_functions if test_functions is not None else TEST_FUNCTIONS
    for f in fam.values():
        validate_test_function(f)
    pre_lhs = kappa**2 * float(np.sum(table.l3**3)) / sigma**3
    status = "satisfied" if pre_lhs <= 1.0 / 500.0 else "violated"
    # per-outcome Vbar and W2bar
    P = adjacency(sys).toarray()
    xy = np.einsum("mi,ij,mj->m", plan.X, P, plan.X)
    vbar = np.sqrt(np.clip(xy, 0.25 * sigma**2, 2.0 * sigma**2))
    s = plan.X.sum(axis=1)
    w2bar = s / vbar
    y = plan.X @ P.T  # Y_i = sum_{j in A_i} X_j per outcome
    rhs = (
        27.0 * kappa**2 / sigma**3 * float(np.sum(table.l3**3))
        + 11.0 * kappa**3 / sigma**4 * float(np.sum(table.l4**4))
    )
    out = []
    for name, f in fam.items():
        lhs = 0.0
        for i in range(sys.n):
            term = plan.probs @ (plan.X[:, i] / vbar * f(w2bar - y[:, i] / vbar))
            lhs += abs(float(term))
        out.append(
            InequalityVerdict(
                check_id=f"lemma_r4[{name}]",
                lhs=lhs,
                rhs=rhs,
                constant=27.0,
                precondition=status,
                digest=f"n={sys.n};f={name}",
                extras={"pre": pre_lhs, "threshold": 1.0 / 500.0},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Concentration checkers


def check_prop1(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    A: Sequence[int],
    B: Sequence[int],
    a: float,
    b: float,
    c: float,
    xi: Callable | None = None,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> InequalityVerdict:
    """Randomized concentration at constant 156:

        E{ xi 1(eta_B <= S_A/sigma <= zeta_B) }
            <= 156 ||xi||_{4/3} sum_{i=0}^{7} delta_i.
    """
    pre = pre or precompute(field, sys, cap=cap)
    plan, der, table = pre.plan, pre.derived, pre.table
    sigma = pre.sigma
    comp = _complement_mask(sys.n, reverse_set_of(sys, A))
    s_a = plan.X[:, comp].sum(axis=1)
    b_abs = np.abs(plan.X[:, list(B)]).sum(axis=1)
    eta = a - c * b_abs / sigma
    zeta = b + c * b_abs / sigma
    ind = (eta <= s_a / sigma) & (s_a / sigma <= zeta)
    xi_vals = xi(plan.X) if xi is not None else np.ones(plan.X.shape[0])
    lhs = float(plan.probs @ (xi_vals * ind))
    xi_43 = float(plan.probs @ xi_vals ** (4.0 / 3.0)) ** 0.75
    deltas = delta_components_prop1(table, sys, der, A, B, a, b, c)
    rhs = 156.0 * xi_43 * sum(deltas.values())
    return InequalityVerdict(
        check_id="prop1",
        lhs=lhs,
        rhs=rhs,
        constant=156.0,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
        extras={"xi_43": xi_43, **deltas},
    )


def check_prop2(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    A: Sequence[int],
    B: Sequence[int],
    a: float,
    b: float,
    c: float,
    xi: Callable | None = None,
    pre: Precomputed | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> InequalityVerdict:
    """Self-normalized randomized concentration at constant 8755:

        E{ xi 1(eta_{A,B} <= S_A/Vbar_A <= zeta_{A,B}) }
            <= 8755 ||xi||_{4/3} ((b-a)/1500 + delta_1+delta_2+delta_3+delta_4),

    with Vbar_A the clamped off-neighborhood variance proxy and the window
    widened by c |S_A| min(1, T_A) / sigma.
    """
    pre = pre or precompute(field, sys, cap=cap)
    plan, der, table = pre.plan, pre.derived, pre.table
    sigma = pre.sigma
    n = sys.n
    n_a = reverse_set_of(sys, A)
    comp = _complement_mask(n, n_a)
    in_na = ~comp
    s_a = plan.X[:, comp].sum(axis=1)
    P_v = adjacency(sys).toarray() * np.outer(comp, comp)
    vbar_a = np.sqrt(
        np.clip(
            np.einsum("mi,ij,mj->m", plan.X, P_v, plan.X),
            0.25 * sigma**2,
            2.0 * sigma**2,
        )
    )
    absx = np.abs(plan.X)
    # rows k in N_A: P_t1[k, l] = 1 iff l in A_k, P_t2[k, l] = 1 iff l in N_k
    D = adjacency(sys).toarray()
    P_t1 = D * in_na[:, None]
    P_t2 = D.T * in_na[:, None]
    t_a = np.sqrt(
        (
            np.einsum("mi,ij,mj->m", absx, P_t1, absx)
            + np.einsum("mi,ij,mj->m", absx, P_t2, absx)
        )
        / sigma**2
    )
    q_a = np.minimum(1.0, t_a)
    assert np.all(q_a <= 1.0 + 1e-12)
    assert np.all(vbar_a >= sigma / 2 - 1e-12) and np.all(
        vbar_a <= math.sqrt(2.0) * sigma + 1e-12
    )
    b_abs = absx[:, list(B)].sum(axis=1)
    widen = c * np.abs(s_a) * q_a / sigma
    eta = a - c * b_abs / sigma - widen
    zeta = b + c * b_abs / sigma + widen
    ratio = s_a / vbar_a
    ind = (eta <= ratio) & (ratio <= zeta)
    xi_vals = xi(plan.X) if xi is not None else np.ones(plan.X.shape[0])
    lhs = float(plan.probs @ (xi_vals * ind))
    xi_43 = float(plan.probs @ xi_vals ** (4.0 / 3.0)) ** 0.75
    lam, deltas = delta_components_prop2(table, sys, der, A, B, a, b, c)
    rhs = 8755.0 * xi_43 * ((b - a) / 1500.0 + sum(deltas.values()))
    return InequalityVerdict(
        check_id="prop2",
        lhs=lhs,
        rhs=rhs,
        constant=8755.0,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
        extras={"xi_43": xi_43, "lambda": lam, **deltas},
    )


# ---------------------------------------------------------------------------
# Randomized instance generation for checker suites


@dataclass
class CheckInstance:
    """One randomized enumerable instance with window/test parameters."""

    field: LatentSourceField
    sys: NeighborhoodSystem
    pre: Precomputed
    A: tuple[int, ...]
    B: tuple[int, ...]
    a: float
    b: float
    c: float
    xi_kind: str
    p: float

    @property
    def xi(self) -> Callable:
        return xi_function(self.xi_kind, self.A)


def random_enumerable_instance(
    rng: np.random.Generator,
    max_indices: int = 8,
    max_sources: int = 10,
    max_outcomes: int = 3**10,
) -> CheckInstance:
    """A random field of weighted sums (plus an optional product term) over
    a random mix of Rademacher / three-point sources, with random overlapping supports
    (random induced neighborhoods), window parameters a <= b, c in [1,3],
    and a xi factor from the catalog."""
    while True:
        n_src = int(rng.integers(3, max_sources + 1))
        sources = []
        count = 1
        for _ in range(n_src):
            if rng.random() < 0.5:
                src = DiscreteSource((-1.0, 1.0), (0.5, 0.5))
            else:
                spread = float(rng.choice([1.0, 2.0]))
                p0 = float(rng.choice([1.0 / 3.0, 0.5]))
                src = DiscreteSource(
                    (-spread, 0.0, spread), ((1 - p0) / 2, p0, (1 - p0) / 2)
                )
            if count * len(src.values) > max_outcomes:
                src = DiscreteSource((-1.0, 1.0), (0.5, 0.5))
            count *= len(src.values)
            sources.append(src)
        n_idx = int(rng.integers(2, max_indices + 1))
        supports = np.full((n_idx, min(3, n_src)), -1, dtype=np.int64)
        weights = np.zeros(supports.shape)
        q = np.zeros(n_idx)
        for i in range(n_idx):
            size = int(rng.integers(1, min(3, n_src) + 1))
            supports[i, :size] = sorted(rng.choice(n_src, size=size, replace=False).tolist())
            weights[i, :size] = rng.uniform(0.5, 1.5, size=size) * rng.choice([-1.0, 1.0], size=size)
            q[i] = float(rng.choice([0.0, 0.5]))
        field = LatentSourceField(
            sources=tuple(sources),
            supports=supports,
            ev=_weighted_sum,
            params=(weights, q),
            center=True,
            metadata={"family": "random_instance"},
        )
        sys = induced_neighborhoods(field)
        try:
            pre = precompute(field, sys)
        except DegenerateVariance:
            continue
        if float(np.min(pre.table.l2)) <= 1e-9:
            continue
        a_set = tuple(sorted(rng.choice(n_idx, size=int(rng.integers(1, 3)), replace=False).tolist()))
        b_set = tuple(sorted(rng.choice(n_idx, size=int(rng.integers(1, 3)), replace=False).tolist()))
        lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2).tolist())
        if rng.random() < 0.25:
            lo = hi
        c = float(rng.uniform(1.0, 3.0))
        xi_kind = str(rng.choice(XI_KINDS))
        p = float(rng.choice([0.0, 1.0, 4.0 / 3.0, 2.0]))
        return CheckInstance(
            field=field, sys=sys, pre=pre,
            A=a_set, B=b_set, a=lo, b=hi, c=c, xi_kind=xi_kind, p=p,
        )


def _weighted_sum(G: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X_i = sum_k w_ik G_ik + q_i prod_k G_ik over the index's own slots;
    pad slots carry w = 0 and are left out of the product."""
    out = w[:, 0] * G[..., 0]
    prod = G[..., 0]
    for k in range(1, G.shape[-1]):
        out = out + w[:, k] * G[..., k]
        prod = prod * np.where(w[:, k] != 0, G[..., k], 1.0)
    return out + q * prod


SUITE_CHECKS = ("lemma_xiyi", "lemma_xiyi_corollary", "lemma_s2", "lemma_s4", "prop1", "prop2")


def _run_instance_checks(
    master_seed: int,
    k: int,
    checks: Sequence[str],
    include_r4: bool,
    max_indices: int,
) -> list[InequalityVerdict]:
    """All configured checks on instance k of the seed's instance stream."""
    from .rng import STREAM_INSTANCES, substream

    inst = random_enumerable_instance(
        substream(master_seed, STREAM_INSTANCES, k), max_indices=max_indices
    )
    verdicts: list[InequalityVerdict] = []
    args = dict(pre=inst.pre)
    if "lemma_xiyi" in checks:
        verdicts.append(
            check_lemma_xiyi(inst.field, inst.sys, inst.A, inst.xi, inst.p, **args)
        )
    if "lemma_xiyi_corollary" in checks:
        verdicts.append(check_lemma_xiyi(inst.field, inst.sys, (), None, 0.0, **args))
    if "lemma_s2" in checks:
        verdicts.append(
            check_lemma_s2(inst.field, inst.sys, inst.A, inst.xi, inst.p, **args)
        )
    if "lemma_s4" in checks:
        verdicts.extend(
            check_lemma_s4(inst.field, inst.sys, inst.A, inst.xi, inst.p, **args)
        )
    if "prop1" in checks:
        verdicts.append(
            check_prop1(
                inst.field, inst.sys, inst.A, inst.B, inst.a, inst.b, inst.c,
                inst.xi, **args,
            )
        )
    if "prop2" in checks:
        verdicts.append(
            check_prop2(
                inst.field, inst.sys, inst.A, inst.B, inst.a, inst.b, inst.c,
                inst.xi, **args,
            )
        )
    if include_r4:
        verdicts.extend(check_lemma_r4(inst.field, inst.sys, **args))
    for v in verdicts:
        v.extras.setdefault("instance", k)
    return verdicts


def run_checker_suite(
    n_instances: int,
    master_seed: int,
    checks: Sequence[str] = SUITE_CHECKS,
    include_r4: bool = False,
    max_indices: int = 8,
    threads: int = 1,
) -> list[InequalityVerdict]:
    """Run the explicit-constant checkers on randomized instances.

    Instance k draws from its own substream, so instances parallelize and
    the verdict list is identical for every worker count.
    """
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda k: _run_instance_checks(
                        master_seed, k, checks, include_r4, max_indices
                    ),
                    range(n_instances),
                )
            )
    else:
        results = [
            _run_instance_checks(master_seed, k, checks, include_r4, max_indices)
            for k in range(n_instances)
        ]
    return [v for chunk in results for v in chunk]


# ---------------------------------------------------------------------------
# Independence validation


def check_ld_independence(
    field: LatentSourceField,
    sys: NeighborhoodSystem,
    cap: int = DEFAULT_ENUM_CAP,
    tol: float = 1e-12,
) -> list[str]:
    """Exact factorization tests of both local-dependence conditions on the
    joint pmf.  Returns a list of named violations (empty iff all pass)."""
    plan = enumerate_field(field, cap=cap)
    X = np.round(plan.X, 9)
    probs = plan.probs
    violations: list[str] = []

    def factorizes(cols_a: list[int], cols_b: list[int]) -> bool:
        joint: dict = {}
        pa: dict = {}
        pb: dict = {}
        for m in range(X.shape[0]):
            ka = X[m, cols_a].tobytes()
            kb = X[m, cols_b].tobytes()
            joint[(ka, kb)] = joint.get((ka, kb), 0.0) + probs[m]
            pa[ka] = pa.get(ka, 0.0) + probs[m]
            pb[kb] = pb.get(kb, 0.0) + probs[m]
        for ka, va in pa.items():
            for kb, vb in pb.items():
                if abs(joint.get((ka, kb), 0.0) - va * vb) > tol:
                    return False
        return True

    n = sys.n
    for i in range(n):
        outside = [j for j in range(n) if j not in sys.A[i]]
        if outside and not factorizes([i], outside):
            violations.append(f"LD1 fails at i={i}")
    for i in range(n):
        for j in sys.A[i]:
            cover = set(sys.pair_cover(i, j))
            outside = [k for k in range(n) if k not in cover]
            if outside and not factorizes([i, j], outside):
                violations.append(f"LD2 fails at (i,j)=({i},{j})")
    return violations
