"""Exact enumeration over finite-discrete fields and the explicit-constant
inequality checkers.

For an enumerable field the joint law is a finite list of (probability,
realization) pairs, so distributions, Kolmogorov distances, and both
sides of every explicit-constant inequality are computed exactly (up to
floating round-off), over the outcomes of the sources some index reads.

:func:`walk_outcomes` is the one loop over the outcome space.  It walks
it block by block and takes only what its reader asks for: S for Var(S),
the whole (M, n) value matrix (the LD factorization test), and a
statistic's sigma-free parts, to which :func:`exact_law`
applies sigma once the moment table exists, both through ``statistics``.
So one walk serves a grid point's Var(S), exact law and LD test together.
Where a sum field's value lattice is no larger than its outcome space, a
walk that takes X reads each distinct X once from it.  The walk is also
the one source of an exact Var(S): a sum field's is the closed form
sum_s c_s^2 Var(U_s), with no enumeration, any other field's is
E S^2 - (E S)^2 over the walk.  The moment table takes that value from
its caller and cross-checks it against the covariance identity.

A checked instance is a drawn field of plain arrays (:class:`FieldDraw`),
precomputed with the other draws of its index count in one
:class:`PrecomputedStack` (:func:`precompute_stack`): the outcomes of
the sources some index reads, walked together, and per instance its
Var(S), cross-checked against the covariance identity, its norms (each
index's one pairwise sum over the instance's own outcomes), E[X X^T],
the dense 0/1 neighborhood matrix, kappa, tau and the beta sums the
checks read, with no field, system or moment table built per instance.
The checkers take a precomputed stack as it stands, with the test
parameters of one instance per draw (:class:`Stack`): the outcomes
of the stacked instances are rows of one array, every elementwise
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
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounds import (
    delta_components_prop1,
    delta_components_prop2,
    lam_scale,
    main_terms,
    reverse_set_of,
    set_sums,
    sigma_of,
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
from .moments import SIGMA2_IDENTITY_RTOL
from .neighborhood import NeighborhoodSystem, dot
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


@dataclass(frozen=True, eq=False)
class PrecomputedStack:
    """What the checkers read of instances of one index count n, their
    outcomes stacked: rows ``lo:hi`` of ``X`` and ``probs``,
    ``(lo, hi) = spans[k]``, are instance k's.  Per instance: its norms
    (rows of ``l2``, ``l3``, ``l4``), E[X X^T] (``exx``), the dense 0/1
    matrix ``P`` of its induced (symmetric) system, kappa and tau, its
    :func:`bounds.norm_sums` with Var(S) as ``sigma2`` (``norms``), the
    beta sums that the checks read (``sums``: b1a, b1b, t21, t22,
    t23_delta6, t31, t32, t33 and t34) and the vector ``w_an`` of
    :func:`bounds.beta_sums`.  :func:`precompute_stack` builds one from
    drawn fields (:class:`FieldDraw`) of one index count."""

    spans: tuple[tuple[int, int], ...]
    X: np.ndarray  # (R, n)
    probs: np.ndarray  # (R,)
    l2: np.ndarray  # (k, n)
    l3: np.ndarray  # (k, n)
    l4: np.ndarray  # (k, n)
    exx: np.ndarray  # (k, n, n)
    P: np.ndarray  # (k, n, n)
    kappa: tuple[int, ...]
    tau: tuple[int, ...]
    norms: tuple[Mapping[str, float], ...]
    sums: tuple[Mapping[str, float], ...]
    w_an: np.ndarray  # (k, n)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def sigmas(self) -> list[float]:
        return [sigma_of(m) for m in self.norms]

    def take(self, ks: Sequence[int]) -> PrecomputedStack:
        """The stack of instances ``ks``, in that order (itself when that
        is every instance in order)."""
        ks = list(ks)
        if ks == list(range(len(self.spans))):
            return self
        rows = np.concatenate([np.arange(*self.spans[k]) for k in ks])
        ends = np.cumsum([hi - lo for lo, hi in (self.spans[k] for k in ks)]).tolist()
        pick = lambda values: tuple(values[k] for k in ks)
        return PrecomputedStack(
            spans=tuple(zip([0, *ends[:-1]], ends)), X=self.X[rows], probs=self.probs[rows],
            l2=self.l2[ks], l3=self.l3[ks], l4=self.l4[ks], exx=self.exx[ks], P=self.P[ks],
            kappa=pick(self.kappa), tau=pick(self.tau), norms=pick(self.norms),
            sums=pick(self.sums), w_an=self.w_an[ks],
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
    """The test parameters of one enumerable instance: the index sets A
    (one or two indices; none only under a factor of kind "one") and B,
    the window [a, b] widened by c, and the factor xi^p, xi of kind
    ``xi_kind`` in XI_FUNCTIONS.  Its field is a draw of a
    :class:`PrecomputedStack`, with which :func:`stack_instances` pairs
    it."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    a: float
    b: float
    c: float
    xi_kind: str
    p: float


@dataclass(frozen=True, eq=False)
class Stack:
    """Checked instances of one index count n: their
    :class:`PrecomputedStack` ``pre``, whose draw k and rows ``lo:hi``,
    ``(lo, hi) = spans[k]``, are instance k's, and the integrands that
    several checks read, formed once over all rows by
    :func:`stack_instances`: |X|, S_A (X summed over the indices outside
    N_A), sum_B |X|, xi, xi^p and xi^{4/3}.  Per instance: ``comp``, the
    indices outside N_A, and ``sets``, its :func:`bounds.set_sums` (the
    sums over N_A, D_A and B)."""

    instances: tuple[CheckInstance, ...]
    pre: PrecomputedStack
    absx: np.ndarray  # (R, n)
    s_a: np.ndarray  # (R,)
    b_abs: np.ndarray  # (R,)
    xi: np.ndarray  # (R,)
    xi_pow: np.ndarray  # (R,), 1 where p = 0
    xi_43: np.ndarray  # (R,), xi^{4/3}
    comp: np.ndarray  # (k, n), bool
    sets: tuple[Mapping[str, float], ...]

    @property
    def n(self) -> int:
        return self.pre.n

    @property
    def X(self) -> np.ndarray:
        return self.pre.X

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        return self.pre.spans

    def rows(self, values) -> np.ndarray:
        """Per-instance values, one (or one row) per instance, repeated
        over each instance's outcome rows."""
        return np.repeat(np.asarray(values), [hi - lo for lo, hi in self.spans], axis=0)

    def sums(self, *integrands: np.ndarray) -> list[list[float]]:
        """Per instance, E[f] of each (R,) integrand f over its own
        outcomes: the pairwise sum of probs * f over its rows, one numpy
        reduction per instance, as :func:`neighborhood.dot` sums one
        instance's products."""
        Q = np.stack(integrands) * self.pre.probs
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


def _index_masks(sets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """(k, n) bool: row k marks the indices of ``sets[k]``."""
    mask = np.zeros((len(sets), n), dtype=bool)
    mask[np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
         np.asarray([i for s in sets for i in s], dtype=np.int64)] = True
    return mask


def stack_instances(pre: PrecomputedStack, instances: Sequence[CheckInstance]) -> Stack:
    """The :class:`Stack` of the draws of ``pre``, draw k checked with the
    test parameters ``instances[k]``; one instance per draw, and every id
    of A and B in [0, n), else ValueError.  Each row of its integrands
    holds the floats that the instance's own arrays would: elementwise
    steps are formed over all rows, and a row sum over a column subset is
    taken per instance over those columns."""
    instances = tuple(instances)
    if len(instances) != len(pre.spans):
        raise ValueError(f"{len(instances)} instances for a stack of {len(pre.spans)} draws")
    for k, inst in enumerate(instances):
        if inst.xi_kind != "one" and not 1 <= len(inst.A) <= 2:
            raise ValueError(f"xi kind {inst.xi_kind!r} needs one or two indices in A")
        if any(not 0 <= i < pre.n for i in (*inst.A, *inst.B)):
            raise ValueError(f"instance {k} (A={list(inst.A)}, B={list(inst.B)}) "
                             f"has an index outside [0, {pre.n})")
    X, sizes = pre.X, [hi - lo for lo, hi in pre.spans]
    in_a = _index_masks([inst.A for inst in instances], pre.n)
    in_b = _index_masks([inst.B for inst in instances], pre.n)
    comp = ~reverse_set_of(pre.P, in_a)
    absx = np.abs(X)
    s_a, b_abs = np.empty(X.shape[0]), np.empty(X.shape[0])
    for (lo, hi), keep, inst in zip(pre.spans, comp, instances):
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

    sets = tuple(set_sums(pre.P, pre.l4, pre.w_an, in_a, in_b))
    arrays = dict(absx=absx, s_a=s_a, b_abs=b_abs, xi=xi, xi_pow=xi_pow,
                  xi_43=xi ** (4.0 / 3.0), comp=comp)
    for a in arrays.values():
        a.setflags(write=False)
    return Stack(instances=instances, pre=pre, sets=sets, **arrays)


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
    return st.pre.P * (comp[:, :, None] & comp[:, None, :])


def _xiyi_verdicts(st: Stack, lhs, norms, gammas, a_and_p) -> list[InequalityVerdict]:
    """The xiyi verdicts from each instance's E[xi^p quad^2], E xi^p and
    gamma_A, at its (A, p)."""
    out = []
    for sums, v, xi_norm, gamma_a, (A, p) in zip(st.pre.sums, lhs, norms, gammas, a_and_p):
        rhs = 4.0 * xi_norm * (gamma_a**2 + 4.0 * sums["t21"])
        out.append(InequalityVerdict("lemma_xiyi" if A else "lemma_xiyi_corollary", v, rhs,
                                     "not_applicable", f"n={st.n};A={sorted(A)};p={p}"))
    return out


def _quad_squared(st: Stack, comp: np.ndarray) -> np.ndarray:
    """Per outcome, |sum_{i,j} (X_i X_j - E X_i X_j)|^2 over i in ``comp``
    and j in A_i and ``comp``, each instance centered by its E[X X^T]."""
    P = _off(st, comp)
    center = np.sum(P * st.pre.exx, axis=(1, 2))
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
                          [sets["d_a"] for sets in st.sets],
                          [(inst.A, inst.p) for inst in st.instances])


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
    for inst, (_, lhs, es2), xi_norm, sets in zip(st.instances, sums, norms, st.sets):
        rhs = xi_norm * (es2 + 2.0 * sets["d_a"])
        out.append(InequalityVerdict("lemma_s2", lhs, rhs, "not_applicable",
                                     f"n={st.n};A={sorted(inst.A)};p={inst.p}"))
    return out


def fourth_moment_precondition(
    norms: Mapping[str, float], kappa: int, tau: int, a_size: int
) -> tuple[bool, dict[str, float]]:
    """Both fourth-moment preconditions at threshold 1/500: the two main
    terms, times |A|^2 and |A|^{1/2}, from the :func:`bounds.norm_sums`
    ``norms``."""
    term1, term2 = main_terms(norms["t3"], norms["t4"], sigma_of(norms), kappa, tau)
    lhs1 = a_size**2 * term1
    lhs2 = a_size**0.5 * term2
    ok = lhs1 <= 1.0 / 500.0 and lhs2 <= 1.0 / 500.0
    return ok, {"pre1": lhs1, "pre2": lhs2, "threshold": 1.0 / 500.0}


def _fourth(x: np.ndarray) -> np.ndarray:
    """x^4 elementwise as the square of the square: numpy's float power
    runs a scalar loop on arrays with negative values."""
    return np.square(np.square(x))


def check_lemma_s4(st: Stack) -> list[InequalityVerdict]:
    """Fourth-moment bounds at constant 13: E{xi^p S_A^4} <= 13 lam s^4 E xi^p,
    with companions E S^4 <= 13 lam s^4 and E(sum Y_i)^4 <= 13 kappa^4 lam s^4;
    three verdicts per instance."""
    y_total = np.empty(st.X.shape[0])  # sum_i Y_i = sum_j |N_j| X_j, one BLAS product each
    for (lo, hi), rev_sizes in zip(st.spans, st.pre.P.sum(axis=1)):
        np.matmul(st.X[lo:hi], rev_sizes, out=y_total[lo:hi])
    sums = st.sums(st.xi_pow, st.xi_pow * _fourth(st.s_a), _fourth(st.X.sum(axis=1)),
                   _fourth(y_total))
    norms = st.xi_norms([s[0] for s in sums])
    out = []
    pre = st.pre
    for inst, (_, lhs_xi, lhs_s, lhs_y), e_xi, moms, kappa, tau, sigma in zip(
            st.instances, sums, norms, pre.norms, pre.kappa, pre.tau, pre.sigmas):
        lam = lam_scale(moms, kappa)
        ok, _ = fourth_moment_precondition(moms, kappa, tau, max(len(inst.A), 1))
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
    sigmas = st.pre.sigmas
    # per-outcome Vbar and W2bar, as (R, 1) columns; x P x^T by one einsum per instance
    xy = np.empty(st.X.shape[0])
    for (lo, hi), P in zip(st.spans, st.pre.P):
        np.einsum("mi,ij,mj->m", st.X[lo:hi], P, st.X[lo:hi], out=xy[lo:hi])
    lo_clip = st.rows([0.25 * s**2 for s in sigmas])
    hi_clip = st.rows([2.0 * s**2 for s in sigmas])
    vbar = np.sqrt(np.clip(xy, lo_clip, hi_clip))[:, None]
    w2bar = st.X.sum(axis=1)[:, None] / vbar
    y = st.products(st.X, st.pre.P)  # Y_i = sum_{j in A_i} X_j per outcome (P symmetric)
    xv, w2bar_y = st.X / vbar, w2bar - y / vbar
    del xy, y, w2bar
    # row i of f's terms: X_i / Vbar * f(W2bar - Y_i / Vbar) per outcome; one
    # pairwise sum per row, the rows summed in index order: a lhs that is
    # rounding noise around 0 does not depend on a BLAS kernel's order
    terms = [[] for _ in st.instances]
    for f in TEST_FUNCTIONS.values():
        Z = np.ascontiguousarray((xv * f(w2bar_y)).T)
        Z *= st.pre.probs
        for row, (lo, hi) in zip(terms, st.spans):
            row.append(sum(np.abs(np.add.reduce(Z[:, lo:hi], axis=1)).tolist()))
    out = []
    for row, moms, kappa, sigma in zip(terms, st.pre.norms, st.pre.kappa, sigmas):
        pre_lhs = kappa**2 * moms["e3"] / sigma**3
        status = "satisfied" if pre_lhs <= 1.0 / 500.0 else "violated"
        rhs = 27.0 * kappa**2 / sigma**3 * moms["e3"] + 11.0 * kappa**3 / sigma**4 * moms["t4"]
        out += [InequalityVerdict(f"lemma_r4[{name}]", lhs, rhs, status, f"n={st.n};f={name}")
                for name, lhs in zip(TEST_FUNCTIONS, row)]
    return out


# ---------------------------------------------------------------------------
# Concentration checkers


def _window(st: Stack, widen: np.ndarray | float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per outcome, the window a - c B/sigma - widen .. b + c B/sigma + widen
    of each instance, B = sum_B |X|."""
    a, b, c = (st.rows(v) for v in zip(*[(inst.a, inst.b, inst.c) for inst in st.instances]))
    spread = c * st.b_abs / st.rows(st.pre.sigmas)
    return a - spread - widen, b + spread + widen


def _prop_digest(st: Stack, inst: CheckInstance) -> str:
    return (f"n={st.n};A={sorted(inst.A)};B={sorted(inst.B)};"
            f"a={inst.a:g};b={inst.b:g};c={inst.c:g}")


def check_prop1(st: Stack) -> list[InequalityVerdict]:
    """Randomized concentration at constant 156:

        E{ xi 1(eta_B <= S_A/sigma <= zeta_B) }
            <= 156 ||xi||_{4/3} sum_{i=0}^{7} delta_i.
    """
    eta, zeta = _window(st)
    ratio = st.s_a / st.rows(st.pre.sigmas)
    ind = (eta <= ratio) & (ratio <= zeta)
    out = []
    for inst, (lhs, xi_43), moms, sets, sums in zip(
            st.instances, st.sums(st.xi * ind, st.xi_43), st.pre.norms, st.sets, st.pre.sums):
        deltas = delta_components_prop1(moms, sets, inst.a, inst.b, inst.c, sums)
        rhs = 156.0 * xi_43**0.75 * sum(deltas.values())
        out.append(InequalityVerdict("prop1", lhs, rhs, "not_applicable", _prop_digest(st, inst)))
    return out


def check_prop2(st: Stack) -> list[InequalityVerdict]:
    """Self-normalized randomized concentration at constant 8755:

        E{ xi 1(eta_{A,B} <= S_A/Vbar_A <= zeta_{A,B}) }
            <= 8755 ||xi||_{4/3} ((b-a)/1500 + delta_1+delta_2+delta_3+delta_4),

    with Vbar_A the clamped off-neighborhood variance proxy and the window
    widened by c |S_A| min(1, T_A) / sigma.
    """
    sigmas = st.pre.sigmas
    sigma, sigma2 = st.rows(sigmas), st.rows([s**2 for s in sigmas])
    vbar_a = np.sqrt(np.clip(_quadratic_forms(st, st.X, _off(st, st.comp)),
                             st.rows([0.25 * s**2 for s in sigmas]),
                             st.rows([2.0 * s**2 for s in sigmas])))
    # rows k in N_A of P: l in A_k, and l in N_k too, since P is symmetric,
    # so the forms over A_k and over N_k are one q
    q = _quadratic_forms(st, st.absx, st.pre.P * (~st.comp)[:, :, None])
    t_a = np.sqrt((q + q) / sigma2)
    q_a = np.minimum(1.0, t_a)
    c = st.rows([inst.c for inst in st.instances])
    eta, zeta = _window(st, c * np.abs(st.s_a) * q_a / sigma)
    ratio = st.s_a / vbar_a
    ind = (eta <= ratio) & (ratio <= zeta)
    out = []
    pre = st.pre
    for inst, (lhs, xi_43), moms, kappa, tau, sets in zip(
            st.instances, st.sums(st.xi * ind, st.xi_43), pre.norms, pre.kappa, pre.tau, st.sets):
        _, deltas = delta_components_prop2(moms, kappa, tau, sets, inst.a, inst.b, inst.c)
        rhs = 8755.0 * xi_43**0.75 * ((inst.b - inst.a) / 1500.0 + sum(deltas.values()))
        out.append(InequalityVerdict("prop2", lhs, rhs, "not_applicable", _prop_digest(st, inst)))
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
# the same laws by code: Rademacher is 0, THREE_POINT[a][b] is 1 + 2 a + b;
# their values and probabilities as rows of (laws, 3) tables
LAWS = (RADEMACHER, *THREE_POINT[0], *THREE_POINT[1])
_LAW_SIZES = np.array([len(law.values) for law in LAWS])
_LAW_VALUES, _LAW_PROBS = (np.array([list(getattr(law, attr)) + [0.0] * (3 - len(law.values))
                                     for law in LAWS]) for attr in ("values", "probs"))


@dataclass(frozen=True, eq=False)
class FieldDraw:
    """The drawn field of one suite instance, before anything is built
    from it: source s has the law ``LAWS[codes[s]]``, and index i reads
    the sources ``supports[i]`` (ascending, then -1 pads) with the weights
    ``weights[i]`` (0 at a pad) and the product weight ``q[i]``, as
    :func:`_weighted_sum` evaluates them.  Its values are taken
    uncentered, because every X_i has mean 0 exactly: every law of LAWS
    is symmetric about 0, and an index reads distinct sources, so each
    term of X_i, a weighted source or the product of its independent
    sources, has mean 0.  A local enumeration would give the same means up
    to rounding residues."""

    codes: tuple[int, ...]
    supports: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n, 3)
    q: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.supports.shape[0]

    @property
    def rows(self) -> int:
        """Its outcome count: the product of its read sources' support sizes."""
        return math.prod(_LAW_SIZES[self.codes[s]] for s in set(self.supports.flat) - {-1})


def _draw_field(rng: np.random.Generator) -> FieldDraw:
    """One random field: 3..INSTANCE_MAX_SOURCES sources, a random mix of
    the laws (any law past INSTANCE_MAX_OUTCOMES outcomes turned
    Rademacher), then 2..INSTANCE_MAX_INDICES indices, each with a random
    support of one to three sources, random weights and product weight."""
    n_src = int(rng.integers(3, INSTANCE_MAX_SOURCES + 1))
    codes = []
    count = 1
    for _ in range(n_src):
        if rng.random() < 0.5:
            code = 0
        else:  # its spread, then its mass at 0
            code = 1 + 2 * int(rng.integers(0, 2)) + int(rng.integers(0, 2))
        if count * _LAW_SIZES[code] > INSTANCE_MAX_OUTCOMES:
            code = 0
        count *= int(_LAW_SIZES[code])
        codes.append(code)
    n_idx = int(rng.integers(2, INSTANCE_MAX_INDICES + 1))
    supports = np.full((n_idx, min(3, n_src)), -1, dtype=np.int64)
    weights = np.zeros(supports.shape)
    q = np.zeros(n_idx)
    for i in range(n_idx):
        size = int(rng.integers(1, min(3, n_src) + 1))
        supports[i, :size] = sorted(rng.choice(n_src, size=size, replace=False).tolist())
        weights[i, :size] = rng.uniform(0.5, 1.5, size=size) * (2 * rng.integers(0, 2, size) - 1)
        q[i] = (0.0, 0.5)[rng.integers(0, 2)]
    return FieldDraw(tuple(codes), supports, weights, q)


def _draw_tests(rng: np.random.Generator, n: int) -> tuple:
    """An instance's test parameters over its n indices, in CheckInstance's
    order: A and B of one or two indices, the window a <= b
    (a = b a quarter of the time), c in [1, 3], the xi kind and p."""
    a_set = tuple(sorted(rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()))
    b_set = tuple(sorted(rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()))
    lo, hi = sorted(rng.uniform(-1.5, 1.5, size=2).tolist())
    if rng.random() < 0.25:
        lo = hi
    c = float(rng.uniform(1.0, 3.0))
    xi_kind = XI_KINDS[rng.integers(0, len(XI_KINDS))]
    p = (0.0, 1.0, 4.0 / 3.0, 2.0)[rng.integers(0, 4)]
    return a_set, b_set, lo, hi, c, xi_kind, p


def _kept(sigma2: float, l2: np.ndarray) -> bool:
    """Whether a drawn instance is kept: Var(S) > 0 and every ||X_i||_2
    above 1e-9.  Otherwise the instance is drawn again."""
    return sigma2 > 0 and float(np.min(l2)) > 1e-9


def _weighted_sum(G: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X_i = sum_k w_ik G_ik + q_i prod_k G_ik over the index's own slots;
    pad slots carry w = 0 and are left out of the product."""
    out = w[:, 0] * G[..., 0]
    prod = G[..., 0]
    for k in range(1, G.shape[-1]):
        out = out + w[:, k] * G[..., k]
        prod = prod * np.where(w[:, k] != 0, G[..., k], 1.0)
    return out + q * prod


def _stacked_walk(draws: Sequence[FieldDraw], sup: np.ndarray, codes: np.ndarray) -> tuple:
    """(spans, X, probs, Var(S) per draw, the (k, n, sources) bool
    incidence) of the walks of draws of one index count, whose supports
    and law codes are stacked in ``sup`` and ``codes``.  The outcomes of
    each draw's read sources are numbered in mixed radix, the first source
    most significant and a source no index reads pinned to its first
    value, as ``fields.outcome_blocks`` numbers them, and each probability
    is multiplied out last source first; one :func:`_weighted_sum` call
    evaluates the grids of all draws.  Per draw, the probabilities must
    sum to 1 within 1e-12, and Var(S) is E S^2 - (E S)^2 summed
    ENUM_BLOCK outcomes at a time, as :func:`walk_outcomes` sums it."""
    (k, n, K), n_src = sup.shape, codes.shape[1]
    slot = np.where(sup < 0, n_src, sup)  # a pad reads column n_src, all 0
    inc = np.zeros((k, n, n_src + 1), dtype=bool)
    inc[np.arange(k)[:, None, None], np.arange(n)[None, :, None], slot] = True
    inc = inc[:, :, :n_src]
    read = inc.any(axis=1)
    sizes = np.where(read, _LAW_SIZES[codes], 1)
    counts = sizes.prod(axis=1)
    ends = np.cumsum(counts)
    spans = tuple(zip((ends - counts).tolist(), ends.tolist()))
    R = int(ends[-1])

    # each row's digits, last source first, its values and probability (a
    # source that a draw does not read has probability 1)
    rest = np.arange(R) - np.repeat(ends - counts, counts)
    base = np.repeat(np.arange(k) * (n_src * 3), counts)  # row r's draw in (draw, source, atom) tables
    values = _LAW_VALUES[codes]
    atoms = np.where(read[:, :, None], _LAW_PROBS[codes], [1.0, 0.0, 0.0])
    row_sizes = np.repeat(sizes, counts, axis=0)
    U = np.zeros((R, n_src + 1))
    probs = np.ones(R)
    for s in range(n_src - 1, -1, -1):
        if read[:, s].any():
            rest, digit = np.divmod(rest, row_sizes[:, s])
            at = base + (3 * s + digit)
            U[:, s] = values.reshape(-1)[at]
            probs *= atoms.reshape(-1)[at]
    G = U.reshape(-1)[(np.arange(R) * (n_src + 1))[:, None, None]
                      + np.repeat(slot, counts, axis=0)]
    X = _weighted_sum(G.reshape(-1, K),
                      np.repeat(np.stack([draw.weights for draw in draws]), counts, axis=0).reshape(-1, K),
                      np.repeat(np.stack([draw.q for draw in draws]), counts, axis=0).reshape(-1)
                      ).reshape(R, n)
    del U, G
    s_row = X.sum(axis=1)
    Q = np.stack([probs * s_row, probs * s_row**2])
    sigma2 = []
    for lo, hi in spans:
        total = float(probs[lo:hi].sum())
        if abs(total - 1.0) > 1e-12:
            raise AssertionError(f"outcome probabilities sum to {total}")
        es = es2 = 0.0
        for a in range(lo, hi, fields.ENUM_BLOCK):
            e1, e2 = np.add.reduce(Q[:, a:min(a + fields.ENUM_BLOCK, hi)], axis=1).tolist()
            es += e1
            es2 += e2
        sigma2.append(es2 - es * es)
    return spans, X, probs, sigma2, inc


def precompute_stack(draws: Sequence[FieldDraw]) -> PrecomputedStack:
    """What the checkers read of the instance of each drawn field, for
    draws of one index count at once, with no field, system or moment
    table built per draw.  Every reduction is taken per draw in the order
    that the draw's field would take it (its :func:`walk_outcomes`, its
    induced neighborhoods, ``neighborhood.derive`` and
    :func:`bounds.beta_sums`), so the floats are the same bits.

    The outcome spaces are walked together (:func:`_stacked_walk`), and
    each draw's Var(S) is cross-checked against the covariance identity
    over its overlap, sum_i sum_{j in A_i} Cov(X_i, X_j), at
    ``moments.SIGMA2_IDENTITY_RTOL``: a failed cross-check raises
    AssertionError.  Each index's ||X_i||_p, p = 2, 3, 4, is the p-th root
    of one pairwise sum of probs |X_i|^p over the draw's own rows, the rule
    of :meth:`Stack.sums`, so it depends on neither the other draws of the
    stack nor a BLAS layout; E[X X^T] is one BLAS product per draw.  The
    overlap, kappa, tau and the beta sums are dense
    (:func:`_dense_beta_sums`)."""
    k, n = len(draws), draws[0].n
    if any(draw.n != n for draw in draws):
        raise ValueError("a stack's draws share one index count")
    n_src = max(len(draw.codes) for draw in draws)
    sup = np.stack([draw.supports for draw in draws])  # (k, n, K)
    codes = np.zeros((k, n_src), dtype=np.int64)  # a padding source is read by no index
    for j, draw in enumerate(draws):
        codes[j, :len(draw.codes)] = draw.codes
    spans, X, probs, sigma2, inc = _stacked_walk(draws, sup, codes)
    W = X * probs[:, None]
    exx = np.empty((k, n, n))
    for j, (lo, hi) in enumerate(spans):
        np.matmul(W[lo:hi].T, X[lo:hi], out=exx[j])
    incf = inc.astype(float)
    P = (incf @ incf.transpose(0, 2, 1) > 0).astype(float)
    mu = np.add.reduceat(W, [lo for lo, _ in spans], axis=0)
    identity = ((exx - mu[:, :, None] * mu[:, None, :]) * P).sum(axis=(1, 2))
    for var, var_id in zip(sigma2, identity.tolist()):
        if abs(var - var_id) > SIGMA2_IDENTITY_RTOL * max(1.0, abs(var)):
            raise AssertionError(
                f"variance identity violated: Var(S)={var} vs covariance sum {var_id}")

    # E|X_i|^p of every index and power p: one pairwise sum of probs |X_i|^p
    # over the draw's rows, each index's outcomes contiguous (as Stack.sums)
    absT = np.ascontiguousarray(np.abs(X).T)
    Q = np.stack([absT**2, absT**3, absT**4]) * probs  # (3, n, R)
    e = np.stack([np.add.reduce(Q[:, :, lo:hi], axis=2) for lo, hi in spans], axis=1)
    l2, l3, l4 = (e[m] ** (1 / p) for m, p in enumerate((2, 3, 4)))
    moment_sums = np.add.reduce(np.stack([l2**2, l3**3, l4**3, l4**4]), axis=2).T.tolist()
    norms = tuple(MappingProxyType({"t2": t2, "e3": e3, "t3": t3, "t4": t4, "sigma2": var})
                  for (t2, e3, t3, t4), var in zip(moment_sums, sigma2))

    # kappa and tau of each symmetric overlap (see neighborhood.derive)
    s = P.sum(axis=2)
    shared = P @ P
    cover = np.where(P > 0, s[:, :, None] + s[:, None, :] - shared, 0.0)
    kappa = np.maximum(s.max(axis=1), cover.max(axis=(1, 2)))
    tau = (P * (2.0 * s[:, :, None] - shared)).sum(axis=1).max(axis=1)
    sums, w_an = _dense_beta_sums(P, l4)
    arrays = dict(X=X, probs=probs, l2=l2, l3=l3, l4=l4, exx=exx, P=P, w_an=w_an)
    for arr in arrays.values():
        arr.setflags(write=False)
    return PrecomputedStack(
        spans=spans, kappa=tuple(int(v) for v in kappa), tau=tuple(int(v) for v in tau),
        norms=norms, sums=sums, **arrays,
    )


def _dense_beta_sums(P: np.ndarray, l4: np.ndarray) -> tuple[tuple, np.ndarray]:
    """(the beta sums that the checks read of each system, as a mapping;
    the (k, n) vectors w_an) of :func:`bounds.beta_sums` for stacked
    symmetric systems of few indices, P (k, n, n) dense 0/1 and l4 (k, n),
    bit for bit.  A
    neighborhood sum there, a Csr product, adds its terms one by one in
    index order from 0: here the cumulative sum of the terms, 0 off the
    neighborhood, does (a nonnegative partial sum plus 0.0 is itself).  A
    dot product is one pairwise sum over the system's terms in index
    order, or over the entries of its M in row order.  The (n, n, n)
    covers A_i | A_j of the entries (i, j) are built ENUM_BLOCK cells at a
    time."""
    k, n = l4.shape

    def in_order(mask, v):  # sum_l mask[..., l] v[..., l], term by term in l
        return np.cumsum(mask * v, axis=-1)[..., -1]

    s = P.sum(axis=2)
    l43 = l4**3
    lead = s**2 * l43
    w_an = in_order(P, l4[:, None, :])
    lw = l4 * w_an
    lij = l4[:, :, None] * l4[:, None, :]
    pair_lead = s[:, :, None] * l43[:, None, :]
    cov_lw, cov_l4, d_pair = np.empty((k, n, n)), np.empty((k, n, n)), np.empty((k, n))
    step = max(1, fields.ENUM_BLOCK // n**3)
    for lo in range(0, k, step):
        b = slice(lo, lo + step)
        cover = (P[b, :, :, None] > 0) & (P[b, :, None, :] + P[b, None, :, :] > 0)
        cov_lw[b] = in_order(cover, lw[b, None, None, :])
        cov_l4[b] = in_order(cover, l4[b, None, None, :])
        d_pair[b] = np.cumsum((cover * lij[b, :, :, None]).reshape(-1, n * n, n), axis=1)[:, -1]
    per_index = np.add.reduce(np.stack([
        lead, s * in_order(P, l43[:, None, :]), lead * w_an, lead * in_order(P, lw[:, None, :]),
        lead * d_pair, s * in_order(P, (l43 * d_pair)[:, None, :]),
    ]), axis=2).T.tolist()
    entries = P > 0
    per_entry = np.stack([(lij * cov_lw)[entries], (pair_lead * cov_l4)[entries],
                          (pair_lead * cov_lw)[entries]])
    ends = np.cumsum(P.sum(axis=(1, 2))).astype(np.int64).tolist()
    sums = []
    for (b1a, b1b, t22, t31, t33, t34), lo, hi in zip(per_index, [0, *ends[:-1]], ends):
        t21, t23_delta6, t32 = np.add.reduce(per_entry[:, lo:hi], axis=1).tolist()
        sums.append(MappingProxyType({
            "b1a": b1a, "b1b": b1b, "t21": t21, "t22": t22, "t23_delta6": t23_delta6,
            "t31": t31, "t32": t32, "t33": t33, "t34": t34,
        }))
    return tuple(sums), w_an


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
    verdicts are a prefix of any longer suite's.  Each instance is a
    random field of weighted sums (plus an optional product term) over a
    random mix of the LAWS, with random overlapping supports (random
    induced neighborhoods), window parameters a <= b, c in [1, 3], and a
    xi factor from the catalog.  It has 2..INSTANCE_MAX_INDICES indices
    over 3..INSTANCE_MAX_SOURCES sources, and at most
    INSTANCE_MAX_OUTCOMES outcomes.

    The fields are drawn a stack at a time: each drawn field
    (:func:`_draw_field`) waits in a pending group of its index count,
    which is precomputed at once (:func:`precompute_stack`) when the next
    field would take it past ``fields.ENUM_BLOCK`` outcome rows, or at the
    end (a field with more rows is a group of its own).  Then each kept
    instance (:func:`_kept`) draws its test parameters, and the kept
    draws are checked together, as the group's stack taken at their
    positions (:func:`stack_instances`).  An instance that is not kept
    draws its field again, from where its substream stands, each draw
    precomputed as a stack of one, until one is kept; it then draws its
    test parameters and is checked with that stack of one.  The
    verdicts are listed instance by instance, each instance's checks in
    the order of SUITE_CHECKS.  ``checks`` are names from SUITE_CHECKS; an
    unknown name raises ValueError."""
    if isinstance(checks, str) or any(c not in SUITE_CHECKS for c in checks):
        raise ValueError(f"unknown checks {checks!r}; each one of {SUITE_CHECKS}")
    names = [c for c in SUITE_CHECKS if c in checks] + ["lemma_r4"] * include_r4
    rows: list[list[InequalityVerdict]] = [[] for _ in range(n_instances)]

    def check(pre: PrecomputedStack, group: list[tuple[int, CheckInstance]]) -> None:
        st = stack_instances(pre, [inst for _, inst in group])
        for name in names:
            verdicts = _SUITE_CALLS[name](st)
            per = len(verdicts) // len(group)
            for j, (k, _) in enumerate(group):
                rows[k] += verdicts[j * per:(j + 1) * per]

    def flush(group: list[tuple[int, np.random.Generator, FieldDraw]]) -> None:
        pre = precompute_stack([draw for _, _, draw in group])
        kept, at, redrawn = [], [], []
        for j, (k, rng, draw) in enumerate(group):
            stack, i = pre, j
            while not _kept(stack.norms[i]["sigma2"], stack.l2[i]):
                draw = _draw_field(rng)
                stack, i = precompute_stack([draw]), 0
            item = (k, CheckInstance(*_draw_tests(rng, draw.n)))
            if stack is pre:
                kept.append(item)
                at.append(j)
            else:
                redrawn.append((stack, [item]))
        if kept:
            check(pre.take(at), kept)
        for stack, items in redrawn:
            check(stack, items)

    pending: dict[int, list[tuple[int, np.random.Generator, FieldDraw]]] = {}  # by index count
    held: dict[int, int] = {}  # their outcome rows
    for k in range(n_instances):
        rng = substream(master_seed, STREAM_INSTANCES, k)
        draw = _draw_field(rng)
        n, size = draw.n, draw.rows
        if n in pending and held[n] + size > fields.ENUM_BLOCK:
            flush(pending.pop(n))
            held[n] = 0
        pending.setdefault(n, []).append((k, rng, draw))
        held[n] = held.get(n, 0) + size
    for group in pending.values():
        flush(group)
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
