"""Exact enumeration over finite-discrete fields and the explicit-constant
inequality checkers.

For an enumerable field the joint law is a finite list of (probability,
realization) pairs, so distributions, Kolmogorov distances, and both
sides of every explicit-constant inequality are computed exactly (up to
floating round-off), over the outcomes of the sources some index reads.

:func:`walk_outcomes` is the one loop over the outcome space.  It walks
it block by block and takes only what its reader asks for: S for Var(S),
the whole (M, n) value matrix (the checkers and the LD factorization
test), and a statistic's sigma-free parts, to which :func:`exact_law`
applies sigma once the moment table exists, both through ``statistics``.
So one walk serves a grid point's Var(S), exact law and LD test together.
Where a sum field's value lattice is no larger than its outcome space, a
walk that takes X reads each distinct X once from it.  The walk is also
the one source of an exact Var(S): a sum field's is the closed form
sum_s c_s^2 Var(U_s), with no enumeration, any other field's is
E S^2 - (E S)^2 over the walk.  The moment table takes that value from
its caller and cross-checks it against the covariance identity.

Every checker reads one frozen instance record, :class:`Precomputed`,
built once per instance by :func:`precompute`: the field and its
neighborhood system with kappa, tau and M^T, the enumerated outcomes and
their E[X X^T], the exact moment table, the dense 0/1 neighborhood
matrix and the nested beta sums of :func:`bounds.beta_sums`.  The
outcome space is walked once per instance, taking Var(S) and keeping
every outcome, and the moment table's norms and covariance-identity
cross-check are read from the outcomes.  A check passes when

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
import io
import math
from dataclasses import dataclass
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
)
from . import fields
from .errors import DegenerateVariance, EnumerationCapExceeded
from .fields import (
    LatentSourceField,
    evaluate_values,
    induced_neighborhoods,
    _key_ids,
    _pack,
    outcome_blocks,
    rademacher,
    _sum_columns,
    sum_values,
    three_point,
)
from .moments import MomentTable, exact_moment_table
from .neighborhood import DerivedNeighborhoods, NeighborhoodSystem, derive, dot
from .rng import STREAM_INSTANCES, substream
from .statistics import NEEDS_SIGMA, READS_VALUES, finish, statistic_parts

PASS_TOL = 1e-10
ATOM_MERGE_TOL = 1e-12
LD_TOL = 1e-12  # largest |joint - product of marginals| that still factorizes


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

    ``probs`` and ``X`` are the probability and the (M, n) centered field
    values of every outcome of the read sources, when the walk kept them
    (on a value-lattice walk, every distinct X once, with its outcomes'
    summed probability); ``sigma2`` is the exact Var(S), when it was asked
    for.  ``parts`` are the statistic's sigma-free parts over the accepted
    outcomes, with ``law_probs`` conditioned on acceptance and the
    ``rejected`` mass: :func:`exact_law` takes them over, once.
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
) -> Walk:
    """The one walk of the outcome space, block by block, taking only what
    is asked for: the exact Var(S) (``var``); S for W1 and sum; X, kept
    whole (``keep``) or for W2 and W2bar block by block; and the
    ``statistic``'s sigma-free parts: S, W2 with its rejections dropped per
    block, or W2bar's two index sums.  W2 and W2bar read the neighborhoods
    of ``sys``, by default the field's induced ones.  A sum field's Var(S)
    is the closed form sum_s c_s^2 Var(U_s), any other field's
    E S^2 - (E S)^2 over the walk; a walk with nothing else to take
    enumerates nothing.

    A walk that takes X (``keep``, W2, W2bar) of a sum field whose value
    lattice has no more cells than the field has outcomes
    (``fields.value_lattice``) reads every distinct X once, with its
    outcomes' probabilities summed in another order, from that lattice's
    pmf (``fields.lattice_blocks``); every other walk enumerates
    (``fields.outcome_blocks``).

    Raises :class:`EnumerationCapExceeded` beyond ``fields.DEFAULT_ENUM_CAP``
    outcomes (``field.outcome_count()``), or, when X is kept, before anything is
    allocated when it would take more than ``fields.ENUM_BYTES_CAP`` bytes.
    """
    count = field.outcome_count()
    if keep and count is not None and count * field.n * 8 > fields.ENUM_BYTES_CAP:
        raise EnumerationCapExceeded(
            f"{count} outcomes x {field.n} values need {count * field.n * 8} bytes, "
            f"over the cap of {fields.ENUM_BYTES_CAP}"
        )
    reads_values = statistic in READS_VALUES
    if sys is None and reads_values:
        sys = induced_neighborhoods(field)
    closed = var and field.ev is _sum_columns and field.is_enumerable()
    take_s = (var and not closed) or (statistic is not None and not reads_values)
    take_x = keep or reads_values
    lattice = fields.value_lattice(field) if take_x else None
    if lattice is not None:
        blocks = fields.lattice_blocks(field, lattice, sums=take_s)
    else:
        blocks = _enumerated(field, take_x, take_s) if take_s or take_x else ()
    kept, law = [], []  # per block: (probs, X); (the statistic's parts..., their probs)
    es = es2 = rejected = 0.0
    for p, X, s in blocks:
        if take_s:
            with np.errstate(over="ignore", invalid="ignore"):  # its reader checks Var(S)
                es += dot(p, s)
                es2 += dot(p, s**2)
        if keep:
            kept.append((p, X))
        if statistic is not None:
            parts, rej = statistic_parts(statistic, X if reads_values else s, sys)
            if rej.any():
                rejected += float(p[rej].sum())
                parts, p = [a[~rej] for a in parts], p[~rej]
            law.append((*parts, p))
    sigma2 = _sum_field_sigma2(field) if closed else es2 - es * es if var else None
    walk = Walk(sigma2=sigma2, statistic=statistic, rejected=rejected)
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


def _enumerated(field: LatentSourceField, take_x: bool, take_s: bool):
    """(probs, X or None, S or None) per block of the enumerated outcomes."""
    for p, rows in outcome_blocks(field):
        X = evaluate_values(field, rows) if take_x else None
        yield p, X, sum_values(field, rows, X) if take_s else None


def _sum_field_sigma2(field: LatentSourceField) -> float:
    """Var(S) = sum_s c_s^2 Var(U_s) of a sum field over discrete sources,
    c the slot counts ``field.counts``."""
    var = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, src in field.runs:
            v, p = np.asarray(src.values), np.asarray(src.probs)
            var.append(float(p @ (v - p @ v) ** 2))
    lengths = [sl.stop - sl.start for sl, _ in field.runs]
    return dot(field.counts**2, np.repeat(var, lengths))


@dataclass(frozen=True)
class Precomputed:
    """The frozen record of one checked instance: everything the checkers
    read, built once by :func:`precompute`.  The outcome space is walked
    once, into ``plan``, which keeps every outcome and takes Var(S); the
    moment table is read from it.  ``P`` is the dense 0/1 matrix of the
    system's M, and ``exx`` the (n, n) matrix of E[X_i X_j] over the
    walk, formed once: the table's covariance identity and both
    :func:`check_lemma_xiyi` calls read it.  Both are read-only."""

    field: LatentSourceField
    sys: NeighborhoodSystem
    derived: DerivedNeighborhoods
    plan: Walk
    table: MomentTable
    P: np.ndarray  # (n, n) dense 0/1, P[i, j] = 1 iff j in A_i
    exx: np.ndarray  # (n, n), E[X_i X_j]
    sums: MappingProxyType  # beta_sums(table.l4, sys, derived)


def precompute(field: LatentSourceField) -> Precomputed:
    sys = induced_neighborhoods(field)
    der = derive(sys)
    plan = walk_outcomes(field, var=True, keep=True)
    exx = (plan.X * plan.probs[:, None]).T @ plan.X
    table = exact_moment_table(field, plan.sigma2, outcomes=(plan.probs, plan.X, exx, sys.M))
    if table.degenerate:
        raise DegenerateVariance("instance has Var(S) = 0")
    P = sys.M.toarray()
    P.setflags(write=False)
    exx.setflags(write=False)
    return Precomputed(
        field=field, sys=sys, derived=der, plan=plan, table=table, P=P, exx=exx,
        sums=MappingProxyType(beta_sums(table.l4, sys, der)),
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


def exact_kolmogorov(field: LatentSourceField, statistic: str) -> float:
    """Kolmogorov distance of the statistic's exact law from the normal,
    from a walk of the field's outcome space.  sigma is the square root of
    the walk's exact Var(S) (:class:`DegenerateVariance` when that is not
    positive), and W2 and W2bar read the field's induced neighborhoods."""
    needs_sigma = statistic in NEEDS_SIGMA
    walk = walk_outcomes(field, statistic, var=needs_sigma)
    sigma = math.sqrt(walk.sigma2) if needs_sigma and walk.sigma2 > 0 else None
    return kolmogorov_from_atoms(*exact_law(walk, sigma))


# ---------------------------------------------------------------------------
# The xi catalog


XI_KINDS = ("one", "abs", "square", "abs_product", "clipped_exp")
CLIPPED_EXP_RATE = 0.5  # clipped_exp is min(exp(rate X_a), 3)


def xi_function(kind: str, A: Sequence[int]) -> Callable:
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
        return lambda X: np.minimum(np.exp(CLIPPED_EXP_RATE * X[:, a0]), 3.0)
    raise ValueError(f"unknown xi kind {kind!r}")


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class InequalityVerdict:
    """One checked instance of an explicit-constant inequality: its two
    sides, its precondition's status and the instance's digest, the
    fields ``verdicts.csv`` writes beside the margin and the verdict."""

    check_id: str
    lhs: float
    rhs: float
    precondition: str  # "satisfied" | "violated" | "not_applicable"
    digest: str

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
    return pw, dot(plan.probs, pw)


def _off_neighborhood(
    pre: Precomputed, A: Sequence[int], xi: Callable | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask of the indices outside N_A, S_A per outcome, xi per outcome;
    xi = None is the constant 1)."""
    X = pre.plan.X
    comp = ~pre.P[:, list(A)].any(axis=1)  # k is in N_A iff A_k meets A
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
    center = float(np.sum(P * pre.exx))
    quad = _quadratic_forms(plan.X, P) - center
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = dot(plan.probs, xi_pow * quad**2)
    I, J = interference_set_of(sys, A)
    gamma_a = dot(table.l4[I], table.l4[J])
    gamma = pre.sums["t21"]
    rhs = 4.0 * xi_norm * (gamma_a**2 + 4.0 * gamma)
    return InequalityVerdict(
        check_id="lemma_xiyi" if A else "lemma_xiyi_corollary",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};p={p}",
    )


def check_lemma_s2(
    pre: Precomputed, A: Sequence[int], xi: Callable | None = None, p: float = 1.0
) -> InequalityVerdict:
    """E{xi^p S_A^2} <= ||xi||_p^p (E S_A^2 + 2 sum_{D_A} ||X_i||_4 ||X_j||_4)."""
    plan, table, sys = pre.plan, pre.table, pre.sys
    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    xi_pow, xi_norm = _xi_moments(plan, xi_vals, p)
    lhs = dot(plan.probs, xi_pow * s_a**2)
    es2 = dot(plan.probs, s_a**2)
    I, J = interference_set_of(sys, A)
    pair_term = dot(table.l4[I], table.l4[J])
    rhs = xi_norm * (es2 + 2.0 * pair_term)
    return InequalityVerdict(
        check_id="lemma_s2",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};p={p}",
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
    sigma = table.sigma
    lam = lam_scale(table, kappa)
    ok, _ = fourth_moment_precondition(table, kappa, tau, max(len(A), 1))
    status = "satisfied" if ok else "violated"
    digest = f"n={pre.sys.n};A={sorted(A)};p={p}"

    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    xi_pow, e_xi = _xi_moments(plan, xi_vals, p)
    verdicts = [
        InequalityVerdict(
            check_id="lemma_s4_xi",
            lhs=dot(plan.probs, xi_pow * s_a**4),
            rhs=13.0 * lam * sigma**4 * e_xi,
            precondition=status,
            digest=digest,
        )
    ]
    s = plan.X.sum(axis=1)
    verdicts.append(
        InequalityVerdict(
            check_id="lemma_s4_s",
            lhs=dot(plan.probs, s**4),
            rhs=13.0 * lam * sigma**4,
            precondition=status,
            digest=digest,
        )
    )
    rev_sizes = np.diff(der.Mt.indptr).astype(float)
    y_total = plan.X @ rev_sizes
    verdicts.append(
        InequalityVerdict(
            check_id="lemma_s4_y",
            lhs=dot(plan.probs, y_total**4),
            rhs=13.0 * kappa**4 * lam * sigma**4,
            precondition=status,
            digest=digest,
        )
    )
    return verdicts


TEST_FUNCTIONS: dict[str, Callable] = {
    "clamp": lambda w: np.clip(w, -1.0, 1.0),
    "tanh": np.tanh,
    "sine": np.sin,
    "smoothstep": lambda w: w / np.sqrt(1.0 + w**2),
}


def check_lemma_r4(pre: Precomputed) -> list[InequalityVerdict]:
    """Necessary-condition check of the clamped self-normalized term bound:

        sum_i | E{ (X_i/Vbar) f(W2bar - Y_i/Vbar) } |
            <= 27 kappa^2/s^3 sum E|X_i|^3 + 11 kappa^3/s^4 sum E|X_i|^4

    for each test function in the finite family TEST_FUNCTIONS (the quantifier
    over all absolutely continuous f cannot be verified universally).  Each
    needs ||f||_inf <= 1 and ||f'||_inf <= 1; ``tests/test_oracle.py``
    checks the family on a dense grid of [-40, 40].
    """
    plan, table = pre.plan, pre.table
    sigma = table.sigma
    kappa = pre.derived.kappa
    pre_lhs = kappa**2 * float(np.sum(table.l3**3)) / sigma**3
    status = "satisfied" if pre_lhs <= 1.0 / 500.0 else "violated"
    # per-outcome Vbar and W2bar, as (M, 1) columns
    xy = np.einsum("mi,ij,mj->m", plan.X, pre.P, plan.X)
    vbar = np.sqrt(np.clip(xy, 0.25 * sigma**2, 2.0 * sigma**2))[:, None]
    w2bar = plan.X.sum(axis=1)[:, None] / vbar
    y = plan.X @ pre.P.T  # Y_i = sum_{j in A_i} X_j per outcome
    xv, w2bar_y = plan.X / vbar, w2bar - y / vbar
    rhs = (
        27.0 * kappa**2 / sigma**3 * float(np.sum(table.l3**3))
        + 11.0 * kappa**3 / sigma**4 * float(np.sum(table.l4**4))
    )
    out = []
    for name, f in TEST_FUNCTIONS.items():
        # row i: X_i / Vbar * f(W2bar - Y_i / Vbar) per outcome
        Z = np.ascontiguousarray((xv * f(w2bar_y)).T)
        # one pairwise sum per row, the rows summed in index order: a lhs
        # that is rounding noise around 0 does not depend on a BLAS kernel's order
        lhs = sum(np.abs(np.add.reduce(Z * plan.probs, axis=1)).tolist())
        out.append(
            InequalityVerdict(
                check_id=f"lemma_r4[{name}]",
                lhs=lhs,
                rhs=rhs,
                precondition=status,
                digest=f"n={pre.sys.n};f={name}",
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
    sigma = pre.table.sigma
    _, s_a, xi_vals = _off_neighborhood(pre, A, xi)
    b_abs = np.abs(plan.X[:, list(B)]).sum(axis=1)
    eta = a - c * b_abs / sigma
    zeta = b + c * b_abs / sigma
    ind = (eta <= s_a / sigma) & (s_a / sigma <= zeta)
    lhs = dot(plan.probs, xi_vals * ind)
    xi_43 = dot(plan.probs, xi_vals ** (4.0 / 3.0)) ** 0.75
    deltas = delta_components_prop1(pre.table, sys, pre.derived, A, B, a, b, c, pre.sums)
    rhs = 156.0 * xi_43 * sum(deltas.values())
    return InequalityVerdict(
        check_id="prop1",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={sys.n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
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
    sigma = pre.table.sigma
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
    b_abs = absx[:, list(B)].sum(axis=1)
    widen = c * np.abs(s_a) * q_a / sigma
    eta = a - c * b_abs / sigma - widen
    zeta = b + c * b_abs / sigma + widen
    ratio = s_a / vbar_a
    ind = (eta <= ratio) & (ratio <= zeta)
    lhs = dot(plan.probs, xi_vals * ind)
    xi_43 = dot(plan.probs, xi_vals ** (4.0 / 3.0)) ** 0.75
    _, deltas = delta_components_prop2(pre.table, sys, pre.derived, A, B, a, b, c, pre.sums)
    rhs = 8755.0 * xi_43 * ((b - a) / 1500.0 + sum(deltas.values()))
    return InequalityVerdict(
        check_id="prop2",
        lhs=lhs,
        rhs=rhs,
        precondition="not_applicable",
        digest=f"n={n};A={sorted(A)};B={sorted(B)};a={a:g};b={b:g};c={c:g}",
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


# the largest random instance: indices, sources and outcomes
INSTANCE_MAX_INDICES, INSTANCE_MAX_SOURCES, INSTANCE_MAX_OUTCOMES = 8, 10, 3**10
# the instances' source laws, each symmetric about 0, shared by every
# instance: Rademacher, and three-point laws by spread (1, 2), then by
# the mass at 0 (1/3, 1/2)
RADEMACHER = rademacher()
THREE_POINT = tuple(tuple(three_point(spread, p0) for p0 in (1.0 / 3.0, 0.5))
                    for spread in (1.0, 2.0))


def random_enumerable_instance(rng: np.random.Generator) -> CheckInstance:
    """A random field of weighted sums (plus an optional product term) over
    a random mix of Rademacher / three-point sources, with random overlapping supports
    (random induced neighborhoods), window parameters a <= b, c in [1,3],
    and a xi factor from the catalog.  It has 2..INSTANCE_MAX_INDICES
    indices over 3..INSTANCE_MAX_SOURCES sources, and at most
    INSTANCE_MAX_OUTCOMES outcomes.

    The field is given its means, all 0, exactly: every catalog law is
    symmetric about 0, and an index reads distinct sources, so each term
    of X_i, a weighted source or the product of its independent sources,
    has mean 0.  A local enumeration would give the same means up to
    rounding residues."""
    while True:
        n_src = int(rng.integers(3, INSTANCE_MAX_SOURCES + 1))
        sources = []
        count = 1
        for _ in range(n_src):
            if rng.random() < 0.5:
                src = RADEMACHER
            else:  # its spread, then its mass at 0
                src = THREE_POINT[rng.integers(0, 2)][rng.integers(0, 2)]
            if count * len(src.values) > INSTANCE_MAX_OUTCOMES:
                src = RADEMACHER
            count *= len(src.values)
            sources.append(src)
        n_idx = int(rng.integers(2, INSTANCE_MAX_INDICES + 1))
        supports = np.full((n_idx, min(3, n_src)), -1, dtype=np.int64)
        weights = np.zeros(supports.shape)
        q = np.zeros(n_idx)
        for i in range(n_idx):
            size = int(rng.integers(1, min(3, n_src) + 1))
            supports[i, :size] = sorted(rng.choice(n_src, size=size, replace=False).tolist())
            weights[i, :size] = rng.uniform(0.5, 1.5, size=size) * (2 * rng.integers(0, 2, size) - 1)
            q[i] = (0.0, 0.5)[rng.integers(0, 2)]
        field = LatentSourceField(
            sources=tuple(sources),
            supports=supports,
            ev=_weighted_sum,
            params=(weights, q),
            means=np.zeros(n_idx),
            metadata={"family": "random_instance"},
        )
        try:
            pre = precompute(field)
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
        xi_kind = XI_KINDS[rng.integers(0, len(XI_KINDS))]
        p = (0.0, 1.0, 4.0 / 3.0, 2.0)[rng.integers(0, 4)]
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


def run_checker_suite(
    n_instances: int,
    master_seed: int,
    checks: Sequence[str] = SUITE_CHECKS,
    include_r4: bool = False,
) -> list[InequalityVerdict]:
    """Run the explicit-constant checkers on randomized instances in one
    thread (a pool lost at every thread count measured: the work is many
    small numpy calls that hold the GIL).  Instance k draws from its own
    substream, so a suite's verdicts are a prefix of any longer suite's.
    ``checks`` are names from SUITE_CHECKS, run in that order; an unknown
    name raises ValueError."""
    if isinstance(checks, str) or any(c not in SUITE_CHECKS for c in checks):
        raise ValueError(f"unknown checks {checks!r}; each one of {SUITE_CHECKS}")
    names = [c for c in SUITE_CHECKS if c in checks] + ["lemma_r4"] * include_r4
    instances = (random_enumerable_instance(substream(master_seed, STREAM_INSTANCES, k))
                 for k in range(n_instances))
    return [v for inst in instances for name in names for v in _SUITE_CALLS[name](inst)]


# ---------------------------------------------------------------------------
# Independence validation


def check_ld_independence(sys: NeighborhoodSystem, plan: Walk) -> list[str]:
    """Exact factorization tests of both local-dependence conditions on the
    joint pmf: X_i against the indices outside A_i (LD1), and (X_i, X_j)
    for each j in A_i against those outside the cover A_i | A_j (LD2).
    Reads ``plan``, a walk of the field that kept every outcome
    (``walk_outcomes(field, keep=True)``).  Returns a list of named
    violations (empty iff all pass).  Each distinct test runs once: LD2 at
    (i, i) is LD1 at i, and LD2 at (j, i) is LD2 at (i, j)."""
    # values rounded to 9 digits, as integer ids per index (one row each);
    # np.unique compares values, so the -0.0 that rounding yields joins 0.0
    codes = np.stack([np.unique(col, return_inverse=True)[1].reshape(-1)
                      for col in np.round(plan.X, 9).T])
    member = sys.M.toarray() > 0
    holds: dict[tuple[int, int], bool] = {}  # by the pair (i, j), i <= j

    def factorizes(i: int, j: int) -> bool:
        key = (min(i, j), max(i, j))
        if key not in holds:
            outside = ~(member[i] | member[j])
            holds[key] = not outside.any() or _factorizes(
                codes[sorted({i, j})], codes[outside], plan.probs)
        return holds[key]

    violations = [f"LD1 fails at i={i}" for i in range(sys.n) if not factorizes(i, i)]
    violations += [f"LD2 fails at (i,j)=({i},{j})" for i, j in zip(sys.M.rows, sys.M.indices)
                   if not factorizes(i, j)]
    return violations


FACTOR_BLOCK_CELLS = 1 << 22


def _factorizes(a: np.ndarray, b: np.ndarray, probs: np.ndarray) -> bool:
    """Whether the joint pmf of two id matrices (one row per index, one
    column per outcome) is the outer product of its marginals within
    LD_TOL at every pair of values.  Each matrix's columns are keyed by a
    dense table when the product of its rows' id counts is at most a few
    times the outcome count (``fields._key_ids``), else by sorting.  The
    joint table is built in blocks of at most FACTOR_BLOCK_CELLS cells."""
    ia, ib = (_key_ids(_pack(c), math.prod(int(row.max()) + 1 for row in c))[1] for c in (a, b))
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
        if np.any(np.abs(joint - np.outer(pa[lo:hi], pb)) > LD_TOL):
            return False
    return True
