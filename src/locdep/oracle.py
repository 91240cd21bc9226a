"""Exact enumeration over finite-discrete fields and the explicit-constant
inequality checkers.

For an enumerable field the joint law is a finite list of (probability,
realization) pairs, so distributions, Kolmogorov distances, and both
sides of every explicit-constant inequality are computed exactly (up to
floating round-off).

:func:`walk_outcomes` is the one loop over the outcome space.  It walks
it block by block and takes only what its reader asks for: S for Var(S),
the whole (M, n) value matrix (the checkers and the LD factorization
test), and a statistic's sigma-free parts, to which :func:`exact_law`
applies sigma once the moment table exists, both through ``statistics``.
So one walk serves a grid point's Var(S), exact law and LD test together.

Every checker reads one frozen instance record, :class:`Precomputed`,
built once per instance by :func:`precompute`: the field and its
neighborhood system with kappa, tau and M^T, the enumerated outcomes, the
exact moment table, the dense 0/1 neighborhood matrix and the nested beta
sums of :func:`bounds.beta_sums`.  The outcome space is walked once per
instance: the moment table (norms, Var(S) and its covariance-identity
cross-check) is read from the enumerated outcomes.  A check passes when

    margin = rhs - lhs >= -1e-10 * max(1, |rhs|).

Preconditions are tri-state ("satisfied" / "violated" / "not_applicable"):
a violated precondition never counts as a failure, and suites require zero
failures among precondition-satisfied instances.

The normal CDF is 0.5 erfc(-z / sqrt 2) with the standard library's
``math.erfc`` (unit-tested against tabulated values to 1e-14), so no
scipy.special import is paid for it.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    beta_sums,
    delta_components_prop1,
    delta_components_prop2,
    interference_set_of,
    lam_scale,
    main_terms,
    reverse_set_of,
)
from .errors import DegenerateVariance, EnumerationCapExceeded, InvalidTestFunction
from .fields import (
    DEFAULT_ENUM_CAP,
    DiscreteSource,
    LatentSourceField,
    evaluate_values,
    induced_neighborhoods,
    _pack,
    outcome_blocks,
    sum_values,
)
from .moments import MomentTable, exact_moment_table
from .neighborhood import DerivedNeighborhoods, NeighborhoodSystem, derive, pairs
from .statistics import NEEDS_SIGMA, READS_VALUES, finish, statistic_parts

PASS_TOL = 1e-10
ATOM_MERGE_TOL = 1e-12
# largest (M, n) float64 outcome matrix a walk keeps
ENUM_BYTES_CAP = 2**30


_erfc = np.frompyfunc(math.erfc, 1, 1)


def phi(z):
    """Standard normal CDF, elementwise, as a float64 array.  ``math.erfc``
    runs through numpy's buffered casts, so no object array of the whole
    input is built."""
    out = np.array(z, dtype=float)  # one array, worked in place: -z / sqrt 2, erfc, halved
    np.negative(out, out=out)
    out /= math.sqrt(2.0)
    _erfc(out, out=out, casting="unsafe")
    out *= 0.5
    return out


# ---------------------------------------------------------------------------
# The outcome-space walk


@dataclass
class Walk:
    """What one walk of an enumerable field's outcome space took.

    ``probs`` and ``X`` are every outcome's probability and its (M, n)
    field values (centered iff the field is), when the walk kept them;
    ``sigma2`` is Var(S), when the walk took S.  ``parts`` are the
    statistic's sigma-free parts over the accepted outcomes, with
    ``law_probs`` conditioned on acceptance and the ``rejected`` mass:
    :func:`exact_law` takes them over, once.
    """

    probs: np.ndarray | None = None
    X: np.ndarray | None = None
    sigma2: float | None = None
    statistic: str | None = None
    parts: list | None = None
    law_probs: np.ndarray | None = None
    rejected: float = 0.0


def walk_outcomes(
    field: LatentSourceField,
    statistic: str | None = None,
    sys: NeighborhoodSystem | None = None,
    var: bool = False,
    keep: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
) -> Walk:
    """The one walk of the outcome space, block by block, taking only what
    is asked for: S for Var(S) (``var``) and for W1 and sum; X, kept whole
    (``keep``) or for W2 and W2bar block by block; and the ``statistic``'s
    sigma-free parts: S, W2 with its rejections dropped per block, or
    W2bar's two index sums.  W2 and W2bar read the neighborhoods of
    ``sys``, by default the field's induced ones.

    Raises :class:`EnumerationCapExceeded` beyond ``cap`` outcomes, or,
    when X is kept, before anything is allocated when it would take more
    than ENUM_BYTES_CAP bytes.
    """
    count = field.outcome_count()
    if keep and count is not None and count * field.n * 8 > ENUM_BYTES_CAP:
        raise EnumerationCapExceeded(
            f"{count} outcomes x {field.n} values need {count * field.n * 8} bytes, "
            f"over the cap of {ENUM_BYTES_CAP}"
        )
    reads_values = statistic in READS_VALUES
    if sys is None and reads_values:
        sys = induced_neighborhoods(field)
    take_s = var or (statistic is not None and not reads_values)
    take_x = keep or reads_values
    kept, law = [], []  # per block: (probs, X); (the statistic's parts..., their probs)
    es = es2 = rejected = 0.0
    for p, rows in outcome_blocks(field, cap=cap):
        X = evaluate_values(field, rows) if take_x else None
        if take_s:
            s = sum_values(field, rows, X)
            es += float(p @ s)
            es2 += float(p @ s**2)
        if keep:
            kept.append((p, X))
        if statistic is not None:
            parts, rej = statistic_parts(statistic, X if reads_values else s, sys)
            if rej.any():
                rejected += float(p[rej].sum())
                parts, p = [a[~rej] for a in parts], p[~rej]
            law.append((*parts, p))
    walk = Walk(sigma2=es2 - es * es if take_s else None, statistic=statistic, rejected=rejected)
    if keep:
        walk.probs = np.concatenate([p for p, _ in kept])
        total = float(walk.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(f"outcome probabilities sum to {total}")
        walk.X = np.concatenate([X for _, X in kept], axis=0)
    if law:
        *walk.parts, probs = (np.concatenate(c) for c in zip(*law))
        del kept, law  # not held through the sort in merge_atoms
        if rejected > 0:
            if rejected >= 1.0 - 1e-15:
                raise DegenerateVariance("statistic rejected on every outcome")
            probs = probs / (1.0 - rejected)
        walk.law_probs = probs
    return walk


@dataclass(frozen=True)
class Precomputed:
    """The frozen record of one checked instance: everything the checkers
    read, built once by :func:`precompute`.  The outcome space is walked
    once, into ``plan``, which keeps every outcome; the moment table is
    read from it."""

    field: LatentSourceField
    sys: NeighborhoodSystem
    derived: DerivedNeighborhoods
    plan: Walk
    table: MomentTable
    sigma: float
    P: np.ndarray  # (n, n) dense 0/1, P[i, j] = 1 iff j in A_i; read-only
    sums: MappingProxyType  # beta_sums(table.l4, sys, derived)


def precompute(
    field: LatentSourceField,
    sys: NeighborhoodSystem | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> Precomputed:
    if sys is None:
        sys = induced_neighborhoods(field)
    der = derive(sys)
    plan = walk_outcomes(field, keep=True, cap=cap)
    table = exact_moment_table(field, sys, outcomes=(plan.probs, plan.X))
    if table.degenerate:
        raise DegenerateVariance("instance has Var(S) = 0")
    P = sys.M.toarray()
    P.setflags(write=False)
    return Precomputed(
        field=field, sys=sys, derived=der, plan=plan, table=table, sigma=table.sigma,
        P=P, sums=MappingProxyType(beta_sums(table.l4, sys, der)),
    )


# ---------------------------------------------------------------------------
# Exact distribution / Kolmogorov distance


def merge_atoms(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort and merge numerically identical atoms: a group starts at its
    first sorted value v and takes every later value within
    ATOM_MERGE_TOL * max(1, |v|) of v."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    p = probs[order]
    # a walk over the group starts, one binary search each; no array of
    # the atom count is built beyond the sorted copies
    starts = []
    k, n = 0, v.size
    while k < n:
        starts.append(k)
        start = float(v[k])
        tol = ATOM_MERGE_TOL * max(1.0, abs(start))
        k = int(np.searchsorted(v, start + tol, side="right"))
        # start + tol may round across the group's edge; the difference settles it
        while abs(v[k - 1] - start) > tol:
            k -= 1
        while k < n and abs(v[k] - start) <= tol:
            k += 1
    return v[starts], np.add.reduceat(p, starts)


def exact_law(walk: Walk, sigma: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, probs) of the walked statistic's exact law, conditioned on
    acceptance, with ``sigma`` applied to the walk's sigma-free parts.  The
    walk hands its parts over: they are not held through the sort in
    :func:`merge_atoms`."""
    parts, probs = walk.parts, walk.law_probs
    walk.parts = walk.law_probs = None
    values = finish(walk.statistic, parts, sigma)
    del parts
    return merge_atoms(values, probs)


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
    walk: Walk | None = None,
) -> float:
    """Kolmogorov distance of the statistic's exact law from the normal,
    read from ``walk``, a walk of that statistic, or else from a walk of
    its own.  ``sigma`` defaults to the field's exact moment table's."""
    default_sigma = statistic in NEEDS_SIGMA and sigma is None
    if walk is None:
        walk = walk_outcomes(field, statistic, sys, var=default_sigma, cap=cap)
    if default_sigma:
        table = exact_moment_table(field, cap=cap, sigma2=walk.sigma2)
        if table.degenerate:
            raise DegenerateVariance("Var(S) = 0")
        sigma = table.sigma
    return kolmogorov_from_atoms(*exact_law(walk, sigma))


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
    """The lines of ``verdicts.csv``, written by the csv module: a digest
    holds commas (``n=8;A=[1, 4];p=0.0``), so it is quoted."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["digest", "check", "lhs", "rhs", "margin", "precondition", "verdict"])
    for v in verdicts:
        out.writerow([v.digest, v.check_id, f"{v.lhs:.17g}", f"{v.rhs:.17g}", f"{v.margin:.17g}",
                      v.precondition, "pass" if v.passed else "fail"])
    return buf.getvalue().splitlines()


def _xi_moments(plan: Walk, xi_vals: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """(xi^p per outcome, ||xi||_p^p); p = 0 gives (ones, 1)."""
    if p == 0:
        return np.ones_like(xi_vals), 1.0
    pw = xi_vals**p
    return pw, float(plan.probs @ pw)


def _off_neighborhood(
    pre: Precomputed, A: Sequence[int], xi: Callable | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask of the indices outside N_A, S_A per outcome, xi per outcome;
    xi = None is the constant 1)."""
    X = pre.plan.X
    comp = np.ones(pre.sys.n, dtype=bool)
    comp[reverse_set_of(pre.sys, A)] = False
    xi_vals = xi(X) if xi is not None else np.ones(X.shape[0])
    return comp, X[:, comp].sum(axis=1), xi_vals


# ---------------------------------------------------------------------------
# Lemma checkers


def _quadratic_forms(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """x P x^T for every row x of X: one BLAS product, then the row sums of
    its product with X, formed in place."""
    Q = X @ P
    Q *= X
    return Q.sum(axis=1)


def check_lemma_xiyi(
    pre: Precomputed, A: Sequence[int], xi: Callable | None = None, p: float = 1.0
) -> InequalityVerdict:
    """Second moment of the off-neighborhood quadratic fluctuation:

        E{ xi^p | sum_{i,j} (X_i X_j - E X_i X_j) |^2 }
            <= 4 ||xi||_p^p (gamma_A^2 + 4 gamma),

    summing over i outside N_A and j in A_i outside N_A.  With empty A and
    xi = 1 this is the 16-gamma corollary for the full double sum.  gamma
    is the nested sum t21 of the beta sums, over i, j in A_i, k in
    A_i | A_j and l in N_k | A_k of the four L4 norms.
    """
    plan, table, sys = pre.plan, pre.table, pre.sys
    n = sys.n
    comp, _, xi_vals = _off_neighborhood(pre, A, xi)
    P = pre.P * np.outer(comp, comp)
    cov = (plan.X * plan.probs[:, None]).T @ plan.X  # E[X_i X_j]
    center = float(np.sum(P * cov))
    quad = _quadratic_forms(plan.X, P) - center
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = float(plan.probs @ (xi_pow * quad**2))
    I, J = interference_set_of(sys, A)
    gamma_a = float(table.l4[I] @ table.l4[J])
    gamma = pre.sums["t21"]
    rhs = 4.0 * xi_norm * (gamma_a**2 + 4.0 * gamma)
    return InequalityVerdict(
        check_id="lemma_xiyi" if A else "lemma_xiyi_corollary",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};p={p}",
        extras={"gamma_A": gamma_a, "gamma": gamma},
    )


def check_lemma_s2(
    pre: Precomputed, A: Sequence[int], xi: Callable | None = None, p: float = 1.0
) -> InequalityVerdict:
    """E{xi^p S_A^2} <= ||xi||_p^p (E S_A^2 + 2 sum_{D_A} ||X_i||_4 ||X_j||_4)."""
    plan, table, sys = pre.plan, pre.table, pre.sys
    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = float(plan.probs @ (xi_pow * s_a**2))
    es2 = float(plan.probs @ s_a**2)
    I, J = interference_set_of(sys, A)
    pair_term = float(table.l4[I] @ table.l4[J])
    rhs = xi_norm * (es2 + 2.0 * pair_term)
    return InequalityVerdict(
        check_id="lemma_s2",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};p={p}",
        extras={"E_SA2": es2, "pair_term": pair_term},
    )


def fourth_moment_precondition(
    table: MomentTable, kappa: int, tau: int, a_size: int
) -> tuple[bool, dict[str, float]]:
    """Both fourth-moment preconditions at threshold 1/500: the two main
    terms, times |A|^2 and |A|^{1/2}."""
    term1, term2 = main_terms(float(np.sum(table.l4**3)), float(np.sum(table.l4**4)),
                              table.sigma, kappa, tau)
    lhs1 = a_size**2 * term1
    lhs2 = a_size**0.5 * term2
    ok = lhs1 <= 1.0 / 500.0 and lhs2 <= 1.0 / 500.0
    return ok, {"pre1": lhs1, "pre2": lhs2, "threshold": 1.0 / 500.0}


def check_lemma_s4(
    pre: Precomputed, A: Sequence[int], xi: Callable | None = None, p: float = 1.0
) -> list[InequalityVerdict]:
    """Fourth-moment bounds at constant 13: E{xi^p S_A^4} <= 13 lam s^4 E xi^p,
    with companions E S^4 <= 13 lam s^4 and E(sum Y_i)^4 <= 13 kappa^4 lam s^4."""
    plan, der, table = pre.plan, pre.derived, pre.table
    kappa, tau = der.kappa, der.tau
    sigma = pre.sigma
    lam = lam_scale(table, kappa)
    ok, pre_info = fourth_moment_precondition(table, kappa, tau, max(len(A), 1))
    status = "satisfied" if ok else "violated"
    digest = f"n={pre.sys.n};A={sorted(A)};p={p}"

    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    xi_pow, e_xi = _xi_moments(plan, xi_vals, p)
    verdicts = [
        InequalityVerdict(
            check_id="lemma_s4_xi",
            lhs=float(plan.probs @ (xi_pow * s_a**4)),
            rhs=13.0 * lam * sigma**4 * e_xi,
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
            precondition=status,
            digest=digest,
            extras=pre_info,
        )
    )
    rev_sizes = np.diff(der.Mt.indptr).astype(float)
    y_total = plan.X @ rev_sizes
    verdicts.append(
        InequalityVerdict(
            check_id="lemma_s4_y",
            lhs=float(plan.probs @ y_total**4),
            rhs=13.0 * kappa**4 * lam * sigma**4,
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


def validate_test_function(f: Callable) -> None:
    """||f||_inf <= 1 and ||f'||_inf <= 1, validated on a dense grid of
    [-40, 40] once per distinct f in a process."""
    _validate_once(f)


@functools.cache
def _validate_once(f: Callable) -> None:
    w = np.linspace(-40.0, 40.0, 160001)
    vals = np.asarray(f(w), dtype=float)
    if np.max(np.abs(vals)) > 1.0 + 1e-9:
        raise InvalidTestFunction("sup norm exceeds 1")
    slopes = np.abs(np.diff(vals) / np.diff(w))
    if np.max(slopes) > 1.0 + 1e-6:
        raise InvalidTestFunction("derivative norm exceeds 1")


def check_lemma_r4(pre: Precomputed) -> list[InequalityVerdict]:
    """Necessary-condition check of the clamped self-normalized term bound:

        sum_i | E{ (X_i/Vbar) f(W2bar - Y_i/Vbar) } |
            <= 27 kappa^2/s^3 sum E|X_i|^3 + 11 kappa^3/s^4 sum E|X_i|^4

    for each test function in the finite family TEST_FUNCTIONS (the quantifier
    over all absolutely continuous f cannot be verified universally).
    """
    plan, table = pre.plan, pre.table
    sigma = pre.sigma
    kappa = pre.derived.kappa
    for f in TEST_FUNCTIONS.values():
        validate_test_function(f)
    pre_lhs = kappa**2 * float(np.sum(table.l3**3)) / sigma**3
    status = "satisfied" if pre_lhs <= 1.0 / 500.0 else "violated"
    # per-outcome Vbar and W2bar, as (M, 1) columns
    xy = np.einsum("mi,ij,mj->m", plan.X, pre.P, plan.X)
    vbar = np.sqrt(np.clip(xy, 0.25 * sigma**2, 2.0 * sigma**2))[:, None]
    w2bar = plan.X.sum(axis=1)[:, None] / vbar
    y = plan.X @ pre.P.T  # Y_i = sum_{j in A_i} X_j per outcome
    rhs = (
        27.0 * kappa**2 / sigma**3 * float(np.sum(table.l3**3))
        + 11.0 * kappa**3 / sigma**4 * float(np.sum(table.l4**4))
    )
    out = []
    for name, f in TEST_FUNCTIONS.items():
        # row i: X_i / Vbar * f(W2bar - Y_i / Vbar) per outcome
        Z = np.ascontiguousarray((plan.X / vbar * f(w2bar - y / vbar)).T)
        # one dot product per row, summed in index order: a lhs that is
        # rounding noise around 0 does not depend on a BLAS kernel's order
        lhs = sum(abs(float(plan.probs @ z)) for z in Z)
        out.append(
            InequalityVerdict(
                check_id=f"lemma_r4[{name}]",
                lhs=lhs,
                rhs=rhs,
                precondition=status,
                digest=f"n={pre.sys.n};f={name}",
                extras={"pre": pre_lhs, "threshold": 1.0 / 500.0},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Concentration checkers


def check_prop1(
    pre: Precomputed,
    A: Sequence[int],
    B: Sequence[int],
    a: float,
    b: float,
    c: float,
    xi: Callable | None = None,
) -> InequalityVerdict:
    """Randomized concentration at constant 156:

        E{ xi 1(eta_B <= S_A/sigma <= zeta_B) }
            <= 156 ||xi||_{4/3} sum_{i=0}^{7} delta_i.
    """
    plan, sys = pre.plan, pre.sys
    sigma = pre.sigma
    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    b_abs = np.abs(plan.X[:, list(B)]).sum(axis=1)
    eta = a - c * b_abs / sigma
    zeta = b + c * b_abs / sigma
    ind = (eta <= s_a / sigma) & (s_a / sigma <= zeta)
    lhs = float(plan.probs @ (xi_vals * ind))
    xi_43 = float(plan.probs @ xi_vals ** (4.0 / 3.0)) ** 0.75
    deltas = delta_components_prop1(pre.table, sys, pre.derived, A, B, a, b, c, pre.sums)
    rhs = 156.0 * xi_43 * sum(deltas.values())
    return InequalityVerdict(
        check_id="prop1",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
        extras={"xi_43": xi_43, **deltas},
    )


def check_prop2(
    pre: Precomputed,
    A: Sequence[int],
    B: Sequence[int],
    a: float,
    b: float,
    c: float,
    xi: Callable | None = None,
) -> InequalityVerdict:
    """Self-normalized randomized concentration at constant 8755:

        E{ xi 1(eta_{A,B} <= S_A/Vbar_A <= zeta_{A,B}) }
            <= 8755 ||xi||_{4/3} ((b-a)/1500 + delta_1+delta_2+delta_3+delta_4),

    with Vbar_A the clamped off-neighborhood variance proxy and the window
    widened by c |S_A| min(1, T_A) / sigma.
    """
    plan, sys = pre.plan, pre.sys
    sigma = pre.sigma
    n = sys.n
    comp, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    in_na = ~comp
    P_v = pre.P * np.outer(comp, comp)
    vbar_a = np.sqrt(
        np.clip(
            _quadratic_forms(plan.X, P_v),
            0.25 * sigma**2,
            2.0 * sigma**2,
        )
    )
    absx = np.abs(plan.X)
    # rows k in N_A: P_t1[k, l] = 1 iff l in A_k, P_t2[k, l] = 1 iff l in N_k
    P_t1 = pre.P * in_na[:, None]
    P_t2 = pre.P.T * in_na[:, None]
    t_a = np.sqrt(
        (
            _quadratic_forms(absx, P_t1) + _quadratic_forms(absx, P_t2)
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
    lhs = float(plan.probs @ (xi_vals * ind))
    xi_43 = float(plan.probs @ xi_vals ** (4.0 / 3.0)) ** 0.75
    lam, deltas = delta_components_prop2(pre.table, sys, pre.derived, A, B, a, b, c)
    rhs = 8755.0 * xi_43 * ((b - a) / 1500.0 + sum(deltas.values()))
    return InequalityVerdict(
        check_id="prop2",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
        extras={"xi_43": xi_43, "lambda": lam, **deltas},
    )


# ---------------------------------------------------------------------------
# Randomized instance generation for checker suites


@dataclass(frozen=True)
class CheckInstance:
    """One randomized enumerable instance with window/test parameters."""

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
        try:
            pre = precompute(field, induced_neighborhoods(field))
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
            pre=pre, A=a_set, B=b_set, a=lo, b=hi, c=c, xi_kind=xi_kind, p=p,
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

# each check as verdicts of one instance; the checker names resolve when
# the call runs, so a rebound module attribute is what gets called
_SUITE_CALLS: dict[str, Callable[[CheckInstance], list[InequalityVerdict]]] = {
    "lemma_xiyi": lambda i: [check_lemma_xiyi(i.pre, i.A, i.xi, i.p)],
    "lemma_xiyi_corollary": lambda i: [check_lemma_xiyi(i.pre, (), None, 0.0)],
    "lemma_s2": lambda i: [check_lemma_s2(i.pre, i.A, i.xi, i.p)],
    "lemma_s4": lambda i: check_lemma_s4(i.pre, i.A, i.xi, i.p),
    "prop1": lambda i: [check_prop1(i.pre, i.A, i.B, i.a, i.b, i.c, i.xi)],
    "prop2": lambda i: [check_prop2(i.pre, i.A, i.B, i.a, i.b, i.c, i.xi)],
    "lemma_r4": lambda i: check_lemma_r4(i.pre),
}


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
    names = [c for c in SUITE_CHECKS if c in checks] + ["lemma_r4"] * include_r4
    verdicts = [v for name in names for v in _SUITE_CALLS[name](inst)]
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
    the verdict list is identical for every worker count.  ``checks`` are
    names from SUITE_CHECKS, run in that order; an unknown name raises
    ValueError.
    """
    if isinstance(checks, str) or any(c not in SUITE_CHECKS for c in checks):
        raise ValueError(f"unknown checks {checks!r}; each one of {SUITE_CHECKS}")
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
    walk: Walk | None = None,
) -> list[str]:
    """Exact factorization tests of both local-dependence conditions on the
    joint pmf: X_i against the indices outside A_i (LD1), and (X_i, X_j)
    for each j in A_i against those outside the cover A_i | A_j (LD2).
    Reads ``walk``, a walk that kept every outcome, or else walks the
    outcome space itself.  Returns a list of named violations (empty iff
    all pass)."""
    plan = walk if walk is not None else walk_outcomes(field, keep=True, cap=cap)
    # values rounded to 9 digits, as integer ids per column; np.unique
    # compares values, so the -0.0 that rounding yields joins 0.0
    codes = np.stack(
        [np.unique(col, return_inverse=True)[1].reshape(-1) for col in np.round(plan.X, 9).T],
        axis=1,
    )
    member = sys.M.toarray() > 0
    violations: list[str] = []
    for i in range(sys.n):
        outside = ~member[i]
        if outside.any() and not _factorizes(codes[:, [i]], codes[:, outside], plan.probs, tol):
            violations.append(f"LD1 fails at i={i}")
    for i, j in zip(*pairs(sys.M)):
        outside = ~(member[i] | member[j])
        if outside.any() and not _factorizes(codes[:, [i, j]], codes[:, outside], plan.probs, tol):
            violations.append(f"LD2 fails at (i,j)=({i},{j})")
    return violations


FACTOR_BLOCK_CELLS = 1 << 22


def _factorizes(a: np.ndarray, b: np.ndarray, probs: np.ndarray, tol: float) -> bool:
    """Whether the joint pmf of the rows of two id matrices is the outer
    product of its marginals within ``tol`` at every pair of values.  The
    joint table is built in blocks of at most FACTOR_BLOCK_CELLS cells."""
    ia = np.unique(_pack(a.T), return_inverse=True)[1].reshape(-1)
    ib = np.unique(_pack(b.T), return_inverse=True)[1].reshape(-1)
    na, nb = int(ia.max()) + 1, int(ib.max()) + 1
    pa = np.bincount(ia, weights=probs, minlength=na)
    pb = np.bincount(ib, weights=probs, minlength=nb)
    step = max(1, FACTOR_BLOCK_CELLS // nb)
    for lo in range(0, na, step):
        hi = min(lo + step, na)
        sel = (ia >= lo) & (ia < hi)
        joint = np.bincount(
            (ia[sel] - lo) * nb + ib[sel], weights=probs[sel], minlength=(hi - lo) * nb
        ).reshape(hi - lo, nb)
        if np.any(np.abs(joint - np.outer(pa[lo:hi], pb)) > tol):
            return False
    return True
