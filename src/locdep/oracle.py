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

Each instance is one frozen record, :class:`Precomputed`, built once by
:func:`precompute`: the field and its neighborhood system with kappa,
tau and M^T, the enumerated outcomes and their E[X X^T], the exact
moment table, the dense 0/1 neighborhood matrix and the nested beta
sums of :func:`bounds.beta_sums`.  The outcome space is walked once per
instance, taking Var(S) and keeping every outcome, and the moment
table's norms and covariance-identity cross-check are read from the
outcomes.  The checkers take instances in stacks of one index count
(:class:`Stack`, one instance being a stack of one): the outcomes of
the stacked instances are rows of one array, every elementwise
integrand is formed once over all of them, and each instance keeps its
own BLAS products, its row sums over a column subset and one pairwise
sum per integrand over its own rows, so its verdicts are the same bits
in any stack.  A check passes when

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


CLIPPED_EXP_RATE = 0.5  # clipped_exp is min(exp(rate X_a), 3)
# nonnegative, A-measurable test factors by kind, over outcome rows: each
# takes the columns X_{A[0]} and X_{A[1]} (all 1 where A holds one index)
XI_FUNCTIONS: dict[str, Callable] = {
    "one": lambda x0, x1: np.ones(x0.size),
    "abs": lambda x0, x1: np.abs(x0),
    "square": lambda x0, x1: x0**2,
    "abs_product": lambda x0, x1: np.abs(x0) * np.abs(x1),
    "clipped_exp": lambda x0, x1: np.minimum(np.exp(CLIPPED_EXP_RATE * x0), 3.0),
}
XI_KINDS = tuple(XI_FUNCTIONS)


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


# ---------------------------------------------------------------------------
# Checked instances, stacked by index count


@dataclass(frozen=True)
class CheckInstance:
    """One enumerable instance with its test parameters: the index sets A
    (one or two indices; none only under a factor of kind "one") and B,
    the window [a, b] widened by c, and the factor xi^p, xi of kind
    ``xi_kind`` in XI_FUNCTIONS."""

    pre: Precomputed
    A: tuple[int, ...]
    B: tuple[int, ...]
    a: float
    b: float
    c: float
    xi_kind: str
    p: float


@dataclass(frozen=True, eq=False)
class Stack:
    """Checked instances of one index count n, their outcomes stacked:
    rows ``lo:hi`` of every per-outcome array, ``(lo, hi) = spans[k]``,
    are instance k's.  :func:`stack_instances` forms the integrands that
    several checks read once over all rows: |X|, S_A (X summed over the
    indices outside N_A), sum_B |X|, xi and xi^p.  Per instance: ``P``,
    the dense 0/1 matrix of M; ``exx``, E[X X^T]; ``comp``, the indices
    outside N_A; and ``gamma_a``, the sum of ||X_i||_4 ||X_j||_4 over the
    pairs (i, j) of D_A."""

    instances: tuple[CheckInstance, ...]
    spans: tuple[tuple[int, int], ...]
    X: np.ndarray  # (R, n)
    probs: np.ndarray  # (R,)
    absx: np.ndarray  # (R, n)
    s_a: np.ndarray  # (R,)
    b_abs: np.ndarray  # (R,)
    xi: np.ndarray  # (R,)
    xi_pow: np.ndarray  # (R,), 1 where p = 0
    P: np.ndarray  # (k, n, n)
    exx: np.ndarray  # (k, n, n)
    comp: np.ndarray  # (k, n), bool
    gamma_a: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def rows(self, values) -> np.ndarray:
        """Per-instance values, one (or one row) per instance, repeated
        over each instance's outcome rows."""
        return np.repeat(np.asarray(values), [hi - lo for lo, hi in self.spans], axis=0)

    def sums(self, *integrands: np.ndarray) -> list[list[float]]:
        """Per instance, E[f] of each (R,) integrand f over its own
        outcomes: the pairwise sum of probs * f over its rows, one numpy
        reduction per instance, as :func:`neighborhood.dot` sums one
        instance's products."""
        Q = np.stack(integrands) * self.probs
        return [np.add.reduce(Q[:, lo:hi], axis=1).tolist() for lo, hi in self.spans]

    def xi_norms(self, sums: Sequence[float]) -> list[float]:
        """E xi^p per instance from its sum of xi^p, exactly 1 at p = 0."""
        return [s if inst.p != 0 else 1.0 for s, inst in zip(sums, self.instances)]

    def products(self, Y: np.ndarray, mats) -> np.ndarray:
        """Each instance's rows of Y times its own (n, n) matrix, by one
        BLAS product per instance into one (R, n) array."""
        out = np.empty((Y.shape[0], mats[0].shape[1]))
        for (lo, hi), m in zip(self.spans, mats):
            np.matmul(Y[lo:hi], m, out=out[lo:hi])
        return out


def stack_instances(instances: Sequence[CheckInstance]) -> Stack:
    """The :class:`Stack` of instances that share one index count.  Each
    row of its integrands holds the floats that the instance's own
    arrays would: elementwise steps are formed over all rows, and a row
    sum over a column subset is taken per instance over those columns."""
    instances = tuple(instances)
    pres = [inst.pre for inst in instances]
    if len({pre.sys.n for pre in pres}) != 1:
        raise ValueError("a stack's instances share one index count")
    for inst in instances:
        if inst.xi_kind != "one" and not 1 <= len(inst.A) <= 2:
            raise ValueError(f"xi kind {inst.xi_kind!r} needs one or two indices in A")
    sizes = [pre.plan.probs.size for pre in pres]
    ends = np.cumsum(sizes).tolist()
    spans = tuple(zip([0, *ends[:-1]], ends))
    X = np.concatenate([pre.plan.X for pre in pres])
    P = np.stack([pre.P for pre in pres])
    comp = ~np.stack([pre.P[:, list(inst.A)].any(axis=1) for pre, inst in zip(pres, instances)])
    absx = np.abs(X)
    s_a, b_abs = np.empty(X.shape[0]), np.empty(X.shape[0])
    for (lo, hi), inst, keep in zip(spans, instances, comp):
        np.sum(X[lo:hi, keep], axis=1, out=s_a[lo:hi])
        np.sum(absx[lo:hi, list(inst.B)], axis=1, out=b_abs[lo:hi])

    # xi, then xi^p, by kind and by power over their own rows
    at = np.arange(X.shape[0])
    x0 = X[at, np.repeat([inst.A[0] if inst.A else 0 for inst in instances], sizes)]
    x1 = X[at, np.repeat([inst.A[-1] if inst.A else 0 for inst in instances], sizes)]
    x1[np.repeat([len(inst.A) < 2 for inst in instances], sizes)] = 1.0
    kinds = list(dict.fromkeys(inst.xi_kind for inst in instances))
    powers = list(dict.fromkeys(inst.p for inst in instances))
    kind_of = np.repeat([kinds.index(inst.xi_kind) for inst in instances], sizes)
    power_of = np.repeat([powers.index(inst.p) for inst in instances], sizes)
    xi, xi_pow = np.empty(X.shape[0]), np.ones(X.shape[0])
    for k, kind in enumerate(kinds):
        hit = kind_of == k
        xi[hit] = XI_FUNCTIONS[kind](x0[hit], x1[hit])
    for k, p in enumerate(powers):
        if p != 0:
            hit = power_of == k
            xi_pow[hit] = xi[hit] ** p

    # D_A: the entries (i, j) of M with i or j in N_A, in M's entry order
    in_na = ~comp
    l4 = np.stack([pre.table.l4 for pre in pres])
    keep = (P > 0) & (in_na[:, :, None] | in_na[:, None, :])
    pairs = (l4[:, :, None] * l4[:, None, :])[keep]
    cuts = np.cumsum(keep.sum(axis=(1, 2))).tolist()
    gamma_a = tuple(float(np.add.reduce(pairs[lo:hi])) for lo, hi in zip([0, *cuts[:-1]], cuts))

    arrays = dict(X=X, probs=np.concatenate([pre.plan.probs for pre in pres]), absx=absx,
                  s_a=s_a, b_abs=b_abs, xi=xi, xi_pow=xi_pow, P=P,
                  exx=np.stack([pre.exx for pre in pres]), comp=comp)
    for a in arrays.values():
        a.setflags(write=False)
    return Stack(instances=instances, spans=spans, gamma_a=gamma_a, **arrays)


# ---------------------------------------------------------------------------
# Lemma checkers, each over a stack: one verdict list, instance by instance


def _quadratic_forms(st: Stack, Y: np.ndarray, mats) -> np.ndarray:
    """y P y^T for every row y of Y, P its instance's matrix in ``mats``:
    one BLAS product per instance, then the row sums of its product with
    Y, formed in place."""
    Q = st.products(Y, mats)
    Q *= Y
    return Q.sum(axis=1)


def _off(st: Stack, comp: np.ndarray) -> np.ndarray:
    """Each instance's P on the rows and columns that ``comp`` marks."""
    return st.P * (comp[:, :, None] & comp[:, None, :])


def _xiyi_verdicts(st: Stack, lhs, norms, gammas, a_and_p) -> list[InequalityVerdict]:
    """The xiyi verdicts from each instance's E[xi^p quad^2], E xi^p and
    gamma_A, at its (A, p)."""
    out = []
    for inst, v, xi_norm, gamma_a, (A, p) in zip(st.instances, lhs, norms, gammas, a_and_p):
        rhs = 4.0 * xi_norm * (gamma_a**2 + 4.0 * inst.pre.sums["t21"])
        out.append(InequalityVerdict("lemma_xiyi" if A else "lemma_xiyi_corollary", v, rhs,
                                     "not_applicable", f"n={st.n};A={sorted(A)};p={p}"))
    return out


def _quad_squared(st: Stack, comp: np.ndarray) -> np.ndarray:
    """Per outcome, |sum_{i,j} (X_i X_j - E X_i X_j)|^2 over i in ``comp``
    and j in A_i and ``comp``, each instance centered by its E[X X^T]."""
    P = _off(st, comp)
    center = np.sum(P * st.exx, axis=(1, 2))
    return (_quadratic_forms(st, st.X, P) - st.rows(center)) ** 2


def check_lemma_xiyi(st: Stack) -> list[InequalityVerdict]:
    """Second moment of the off-neighborhood quadratic fluctuation:

        E{ xi^p | sum_{i,j} (X_i X_j - E X_i X_j) |^2 }
            <= 4 ||xi||_p^p (gamma_A^2 + 4 gamma),

    summing over i outside N_A and j in A_i outside N_A.  gamma_A is the
    sum of ||X_i||_4 ||X_j||_4 over D_A, and gamma is the nested sum t21
    of the beta sums, over i, j in A_i, k in A_i | A_j and l in N_k | A_k
    of the four L4 norms.
    """
    sums = st.sums(st.xi_pow, st.xi_pow * _quad_squared(st, st.comp))
    return _xiyi_verdicts(st, [s[1] for s in sums], st.xi_norms([s[0] for s in sums]),
                          st.gamma_a, [(inst.A, inst.p) for inst in st.instances])


def check_lemma_xiyi_corollary(st: Stack) -> list[InequalityVerdict]:
    """The 16-gamma corollary of :func:`check_lemma_xiyi` for the full
    double sum: empty A (gamma_A = 0) and xi = 1 (p = 0)."""
    k = len(st.instances)
    sums = [s[0] for s in st.sums(_quad_squared(st, np.ones_like(st.comp)))]
    return _xiyi_verdicts(st, sums, [1.0] * k, [0.0] * k, [((), 0.0)] * k)


def check_lemma_s2(st: Stack) -> list[InequalityVerdict]:
    """E{xi^p S_A^2} <= ||xi||_p^p (E S_A^2 + 2 sum_{D_A} ||X_i||_4 ||X_j||_4)."""
    s_a2 = st.s_a**2
    sums = st.sums(st.xi_pow, st.xi_pow * s_a2, s_a2)
    norms = st.xi_norms([s[0] for s in sums])
    out = []
    for inst, (_, lhs, es2), xi_norm, pair_term in zip(st.instances, sums, norms, st.gamma_a):
        rhs = xi_norm * (es2 + 2.0 * pair_term)
        out.append(InequalityVerdict("lemma_s2", lhs, rhs, "not_applicable",
                                     f"n={st.n};A={sorted(inst.A)};p={inst.p}"))
    return out


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


def check_lemma_s4(st: Stack) -> list[InequalityVerdict]:
    """Fourth-moment bounds at constant 13: E{xi^p S_A^4} <= 13 lam s^4 E xi^p,
    with companions E S^4 <= 13 lam s^4 and E(sum Y_i)^4 <= 13 kappa^4 lam s^4;
    three verdicts per instance."""
    y_total = np.empty(st.X.shape[0])  # sum_i Y_i = sum_j |N_j| X_j, one BLAS product each
    for (lo, hi), inst in zip(st.spans, st.instances):
        rev_sizes = np.diff(inst.pre.derived.Mt.indptr).astype(float)
        np.matmul(st.X[lo:hi], rev_sizes, out=y_total[lo:hi])
    sums = st.sums(st.xi_pow, st.xi_pow * st.s_a**4, st.X.sum(axis=1) ** 4, y_total**4)
    norms = st.xi_norms([s[0] for s in sums])
    out = []
    for inst, (_, lhs_xi, lhs_s, lhs_y), e_xi in zip(st.instances, sums, norms):
        table, der = inst.pre.table, inst.pre.derived
        kappa, tau = der.kappa, der.tau
        sigma = table.sigma
        lam = lam_scale(table, kappa)
        ok, _ = fourth_moment_precondition(table, kappa, tau, max(len(inst.A), 1))
        status = "satisfied" if ok else "violated"
        digest = f"n={st.n};A={sorted(inst.A)};p={inst.p}"
        out += [
            InequalityVerdict("lemma_s4_xi", lhs_xi, 13.0 * lam * sigma**4 * e_xi, status, digest),
            InequalityVerdict("lemma_s4_s", lhs_s, 13.0 * lam * sigma**4, status, digest),
            InequalityVerdict("lemma_s4_y", lhs_y, 13.0 * kappa**4 * lam * sigma**4, status, digest),
        ]
    return out


TEST_FUNCTIONS: dict[str, Callable] = {
    "clamp": lambda w: np.clip(w, -1.0, 1.0),
    "tanh": np.tanh,
    "sine": np.sin,
    "smoothstep": lambda w: w / np.sqrt(1.0 + w**2),
}


def check_lemma_r4(st: Stack) -> list[InequalityVerdict]:
    """Necessary-condition check of the clamped self-normalized term bound:

        sum_i | E{ (X_i/Vbar) f(W2bar - Y_i/Vbar) } |
            <= 27 kappa^2/s^3 sum E|X_i|^3 + 11 kappa^3/s^4 sum E|X_i|^4

    for each test function in the finite family TEST_FUNCTIONS (the quantifier
    over all absolutely continuous f cannot be verified universally), one
    verdict per function and instance.  Each needs ||f||_inf <= 1 and
    ||f'||_inf <= 1; ``tests/test_oracle.py`` checks the family on a dense
    grid of [-40, 40].
    """
    sigmas = [inst.pre.table.sigma for inst in st.instances]
    # per-outcome Vbar and W2bar, as (R, 1) columns; x P x^T by one einsum per instance
    xy = np.empty(st.X.shape[0])
    for (lo, hi), P in zip(st.spans, st.P):
        np.einsum("mi,ij,mj->m", st.X[lo:hi], P, st.X[lo:hi], out=xy[lo:hi])
    lo_clip = st.rows([0.25 * s**2 for s in sigmas])
    hi_clip = st.rows([2.0 * s**2 for s in sigmas])
    vbar = np.sqrt(np.clip(xy, lo_clip, hi_clip))[:, None]
    w2bar = st.X.sum(axis=1)[:, None] / vbar
    y = st.products(st.X, [P.T for P in st.P])  # Y_i = sum_{j in A_i} X_j per outcome
    xv, w2bar_y = st.X / vbar, w2bar - y / vbar
    del xy, y, w2bar
    # row i of f's terms: X_i / Vbar * f(W2bar - Y_i / Vbar) per outcome; one
    # pairwise sum per row, the rows summed in index order: a lhs that is
    # rounding noise around 0 does not depend on a BLAS kernel's order
    terms = [[] for _ in st.instances]
    for f in TEST_FUNCTIONS.values():
        Z = np.ascontiguousarray((xv * f(w2bar_y)).T)
        Z *= st.probs
        for row, (lo, hi) in zip(terms, st.spans):
            row.append(sum(np.abs(np.add.reduce(Z[:, lo:hi], axis=1)).tolist()))
    out = []
    for row, inst, sigma in zip(terms, st.instances, sigmas):
        table, kappa = inst.pre.table, inst.pre.derived.kappa
        pre_lhs = kappa**2 * float(np.sum(table.l3**3)) / sigma**3
        status = "satisfied" if pre_lhs <= 1.0 / 500.0 else "violated"
        rhs = (
            27.0 * kappa**2 / sigma**3 * float(np.sum(table.l3**3))
            + 11.0 * kappa**3 / sigma**4 * float(np.sum(table.l4**4))
        )
        out += [InequalityVerdict(f"lemma_r4[{name}]", lhs, rhs, status, f"n={st.n};f={name}")
                for name, lhs in zip(TEST_FUNCTIONS, row)]
    return out


# ---------------------------------------------------------------------------
# Concentration checkers


def _window(st: Stack, widen: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per outcome, the window a - c B/sigma - widen .. b + c B/sigma + widen
    of each instance, B = sum_B |X|."""
    a, b, c, sigma = (st.rows(v) for v in zip(*[
        (inst.a, inst.b, inst.c, inst.pre.table.sigma) for inst in st.instances]))
    spread = c * st.b_abs / sigma
    return a - spread - widen, b + spread + widen


def check_prop1(st: Stack) -> list[InequalityVerdict]:
    """Randomized concentration at constant 156:

        E{ xi 1(eta_B <= S_A/sigma <= zeta_B) }
            <= 156 ||xi||_{4/3} sum_{i=0}^{7} delta_i.
    """
    eta, zeta = _window(st)
    ratio = st.s_a / st.rows([inst.pre.table.sigma for inst in st.instances])
    ind = (eta <= ratio) & (ratio <= zeta)
    out = []
    for inst, (lhs, xi_43) in zip(st.instances, st.sums(st.xi * ind, st.xi ** (4.0 / 3.0))):
        pre = inst.pre
        deltas = delta_components_prop1(pre.table, pre.sys, pre.derived, inst.A, inst.B,
                                        inst.a, inst.b, inst.c, pre.sums)
        rhs = 156.0 * xi_43**0.75 * sum(deltas.values())
        out.append(InequalityVerdict(
            "prop1", lhs, rhs, "not_applicable",
            f"n={st.n};A={sorted(inst.A)};B={sorted(inst.B)};a={inst.a:g};b={inst.b:g};c={inst.c:g}",
        ))
    return out


def check_prop2(st: Stack) -> list[InequalityVerdict]:
    """Self-normalized randomized concentration at constant 8755:

        E{ xi 1(eta_{A,B} <= S_A/Vbar_A <= zeta_{A,B}) }
            <= 8755 ||xi||_{4/3} ((b-a)/1500 + delta_1+delta_2+delta_3+delta_4),

    with Vbar_A the clamped off-neighborhood variance proxy and the window
    widened by c |S_A| min(1, T_A) / sigma.
    """
    sigmas = [inst.pre.table.sigma for inst in st.instances]
    sigma, sigma2 = st.rows(sigmas), st.rows([s**2 for s in sigmas])
    vbar_a = np.sqrt(np.clip(_quadratic_forms(st, st.X, _off(st, st.comp)),
                             st.rows([0.25 * s**2 for s in sigmas]),
                             st.rows([2.0 * s**2 for s in sigmas])))
    # rows k in N_A: P_t1[k, l] = 1 iff l in A_k, P_t2[k, l] = 1 iff l in N_k
    in_na = ~st.comp
    P_t1 = [P * m[:, None] for P, m in zip(st.P, in_na)]
    P_t2 = [P.T * m[:, None] for P, m in zip(st.P, in_na)]
    t_a = np.sqrt((_quadratic_forms(st, st.absx, P_t1) + _quadratic_forms(st, st.absx, P_t2))
                  / sigma2)
    q_a = np.minimum(1.0, t_a)
    c = st.rows([inst.c for inst in st.instances])
    eta, zeta = _window(st, c * np.abs(st.s_a) * q_a / sigma)
    ratio = st.s_a / vbar_a
    ind = (eta <= ratio) & (ratio <= zeta)
    out = []
    for inst, (lhs, xi_43) in zip(st.instances, st.sums(st.xi * ind, st.xi ** (4.0 / 3.0))):
        pre = inst.pre
        _, deltas = delta_components_prop2(pre.table, pre.sys, pre.derived, inst.A, inst.B,
                                           inst.a, inst.b, inst.c, pre.sums)
        rhs = 8755.0 * xi_43**0.75 * ((inst.b - inst.a) / 1500.0 + sum(deltas.values()))
        out.append(InequalityVerdict(
            "prop2", lhs, rhs, "not_applicable",
            f"n={st.n};A={sorted(inst.A)};B={sorted(inst.B)};a={inst.a:g};b={inst.b:g};c={inst.c:g}",
        ))
    return out


# ---------------------------------------------------------------------------
# Randomized instance generation for checker suites


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

# each check by name, over a stack; the checker names resolve when the
# call runs, so a rebound module attribute is what gets called
_SUITE_CALLS: dict[str, Callable[[Stack], list[InequalityVerdict]]] = {
    "lemma_xiyi": lambda st: check_lemma_xiyi(st),
    "lemma_xiyi_corollary": lambda st: check_lemma_xiyi_corollary(st),
    "lemma_s2": lambda st: check_lemma_s2(st),
    "lemma_s4": lambda st: check_lemma_s4(st),
    "prop1": lambda st: check_prop1(st),
    "prop2": lambda st: check_prop2(st),
    "lemma_r4": lambda st: check_lemma_r4(st),
}


def run_checker_suite(
    n_instances: int,
    master_seed: int,
    checks: Sequence[str] = SUITE_CHECKS,
    include_r4: bool = False,
) -> list[InequalityVerdict]:
    """Run the explicit-constant checkers on randomized instances, in one
    thread.  Instance k draws from its own substream, so a suite's
    verdicts are a prefix of any longer suite's.  The instances are
    checked in stacks of one index count (:func:`stack_instances`), each
    checked once it would pass ``fields.ENUM_BLOCK`` outcome rows with
    the next instance, or at the end; an instance with more rows is a
    stack of its own.  The verdicts are listed instance by instance, each
    instance's checks in the order of SUITE_CHECKS.  ``checks`` are names
    from SUITE_CHECKS; an unknown name raises ValueError."""
    if isinstance(checks, str) or any(c not in SUITE_CHECKS for c in checks):
        raise ValueError(f"unknown checks {checks!r}; each one of {SUITE_CHECKS}")
    names = [c for c in SUITE_CHECKS if c in checks] + ["lemma_r4"] * include_r4
    rows: list[list[InequalityVerdict]] = []

    def check(group: list[tuple[int, CheckInstance]]) -> None:
        st = stack_instances([inst for _, inst in group])
        for name in names:
            verdicts = _SUITE_CALLS[name](st)
            per = len(verdicts) // len(group)
            for j, (k, _) in enumerate(group):
                rows[k] += verdicts[j * per:(j + 1) * per]

    pending: dict[int, list[tuple[int, CheckInstance]]] = {}  # by index count
    held: dict[int, int] = {}  # their outcome rows
    for k in range(n_instances):
        inst = random_enumerable_instance(substream(master_seed, STREAM_INSTANCES, k))
        rows.append([])
        n, size = inst.pre.sys.n, inst.pre.plan.probs.size
        if n in pending and held[n] + size > fields.ENUM_BLOCK:
            check(pending.pop(n))
            held[n] = 0
        pending.setdefault(n, []).append((k, inst))
        held[n] = held.get(n, 0) + size
    for group in pending.values():
        check(group)
    return [v for row in rows for v in row]


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
