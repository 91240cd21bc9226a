"""Moment tables: per-index L2/L3/L4 norms and Var(S), and the
U-statistic kernel quantities sigma_1 and ||h||_p.

Norms are absolute central moments of the field values actually used by
the statistics, ``||X||_p = (E|X|^p)^{1/p}``, computed exactly by local
enumeration over each index's (discrete) support, once per index group
frozen on the field (exact tables carry the groups on), or by Monte
Carlo with batch-means standard errors.

Exact Var(S) is cross-checked against the local-dependence identity
Var(S) = sum_i sum_{j in A_i} Cov(X_i, X_j).  A sum field takes the
closed form sum_s c_s^2 Var(U_s), other fields the Var(S) of a walk of
the full outcome space (``oracle.walk_outcomes``; a caller that already
walks it hands the value in), and the identity is summed by local
enumeration once per pair group.  Past the enumeration cap the identity
alone gives Var(S), which scales to fields whose full outcome space is
out of reach.  A caller that holds the materialized outcome space (the
checkers' ``oracle.precompute``) passes it in, and norms, Var(S) and the
identity are all read from it, with no further enumeration.  ``write_csv``
writes ``moments.csv`` as bytes, a block of rows at a time, with each
group's values formatted once and no string built per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DegenerateKernel, DegenerateVariance, EnumerationCapExceeded
from .fields import (
    DEFAULT_ENUM_CAP,
    DiscreteSource,
    LatentSourceField,
    Source,
    draw_source_rows,
    evaluate_values,
    local_values,
    _sum_columns,
    overlap_matrix,
    product_grid,
    signature_groups,
)
from .neighborhood import NeighborhoodSystem, pairs
from .rng import STREAM_MOMENTS, chunk_rows

SIGMA2_IDENTITY_RTOL = 1e-10
_LONG_RUN, _BLOCK_ROWS = 64, 1 << 14  # moments.csv: rows of a long run, rows per block


@dataclass
class MomentTable:
    """Per-index norms plus the field-level variance.

    ``mode`` is "exact", "monte_carlo", or "hybrid" (exact norms, identity
    variance).  Monte-Carlo entries carry batch-means standard errors.
    Exact and hybrid tables carry ``groups``, each entry's index group.
    """

    l2: np.ndarray
    l3: np.ndarray
    l4: np.ndarray
    sigma2: float
    mode: str
    se_l2: np.ndarray | None = None
    se_l3: np.ndarray | None = None
    se_l4: np.ndarray | None = None
    se_sigma2: float | None = None
    extras: dict = dc_field(default_factory=dict)
    groups: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.l2.size

    @property
    def sigma(self) -> float:
        if not self.sigma2 > 0:
            raise DegenerateVariance(f"sigma2={self.sigma2} is not positive")
        return math.sqrt(self.sigma2)

    @property
    def degenerate(self) -> bool:
        return not self.sigma2 > 0


# ---------------------------------------------------------------------------
# Exact evaluation


def exact_index_norms(field: LatentSourceField, idx) -> np.ndarray:
    """Rows (||X_i||_2, ||X_i||_3, ||X_i||_4) of the centered X_i for the
    indices i of ``idx``, by local enumeration."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    out = np.empty((idx.size, 3))
    for r, probs, X in local_values(field, idx[:, None]):
        a = np.abs(X[:, 0] if field.means is None else X[:, 0] - field.means[idx[r]])
        out[r] = [float(probs @ a**p) ** (1 / p) for p in (2, 3, 4)]
    return out


def exact_pair_covariance(field: LatentSourceField, ij) -> np.ndarray:
    """Cov(X_i, X_j) for the rows (i, j) of ``ij``, by enumeration over the
    union of the two supports."""
    ij = np.asarray(ij, dtype=np.int64).reshape(-1, 2)
    out = np.empty(len(ij))
    for r, probs, X in local_values(field, ij):
        xi, xj = X[:, 0], X[:, 1]
        out[r] = float(probs @ (xi * xj)) - float(probs @ xi) * float(probs @ xj)
    return out


def exact_sigma2_local(
    field: LatentSourceField, sys: NeighborhoodSystem | None = None
) -> float:
    """Var(S) = sum_i sum_{j in A_i} Cov(X_i, X_j), by local enumeration,
    one per signature group of pairs.  ``sys`` defaults to the induced
    neighborhoods.

    Index-transitive fields (every index's neighborhood sum is identical
    by exchangeability) use one reference index.
    """
    if field.metadata.get("index_transitive") and sys is None:
        hit = np.zeros(field.n_sources)
        hit[field.incidence.row(0)] = 1.0
        a0 = np.flatnonzero(field.incidence @ hit)  # the indices sharing a source with 0
        return field.n * _covariance_sum(field, np.stack([np.zeros_like(a0), a0], axis=1))
    I, J = pairs(overlap_matrix(field) if sys is None else sys.M)
    return _covariance_sum(field, np.stack([I, J], axis=1))


def _covariance_sum(field: LatentSourceField, ij: np.ndarray) -> float:
    """sum of Cov(X_i, X_j) over the rows (i, j) of ``ij``."""
    first, inverse = signature_groups(field, ij)
    cov = exact_pair_covariance(field, ij[first])
    return float(np.bincount(inverse, minlength=first.size) @ cov)


def _sum_field_sigma2(field: LatentSourceField) -> float:
    """Var(S) = sum_s c_s^2 Var(U_s) of a sum field over discrete sources,
    c the slot counts ``field.counts``."""
    var = []
    for _, src in field.runs:
        v, p = np.asarray(src.values), np.asarray(src.probs)
        var.append(float(p @ (v - p @ v) ** 2))
    lengths = [sl.stop - sl.start for sl, _ in field.runs]
    return float(field.counts**2 @ np.repeat(var, lengths))


def exact_moment_table(
    field: LatentSourceField,
    sys: NeighborhoodSystem | None = None,
    cap: int = DEFAULT_ENUM_CAP,
    outcomes: tuple[np.ndarray, np.ndarray] | None = None,
    sigma2: float | None = None,
) -> MomentTable:
    """Exact norms and Var(S).

    ``outcomes`` is the field's materialized outcome space, (probs, X) with
    X the (M, n) field values (centered iff the field is).  When it is
    given, every quantity is read from it: the norms at the columns of the
    index-group representatives, Var(S) from the row sums, and the
    covariance identity from the covariance matrix summed over ``sys``.
    Otherwise the norms come from local enumeration once per index group,
    and Var(S), when the field has at most ``cap`` outcomes, from the
    closed form sum_s c_s^2 Var(U_s) for a sum field or else from
    ``sigma2``, the Var(S) of the caller's walk of the outcome space (a
    walk of its own when None), cross-checked against the covariance
    identity over ``sys`` by local enumeration once per pair group.  Past
    the cap Var(S) is the identity alone (mode "hybrid").  A failed
    cross-check raises AssertionError: the neighborhoods do not cover the
    true dependence.
    """
    first, inverse = field.groups
    count = field.outcome_count()
    mode = "exact"
    if outcomes is not None:
        probs, X = outcomes
        Xg = X[:, first]
        if not field.center and field.means is not None:
            Xg = Xg - field.means[first]
        a = np.abs(Xg)
        l2, l3, l4 = np.stack([(probs @ a**p) ** (1 / p) for p in (2, 3, 4)])[:, inverse]
        s = X.sum(axis=1)
        es = float(probs @ s)
        sigma2 = float(probs @ s**2) - es * es
        mu = probs @ X
        cov = (X * probs[:, None]).T @ X - np.outer(mu, mu)
        I, J = pairs(overlap_matrix(field) if sys is None else sys.M)
        sigma2_id = float(cov[I, J].sum())
    else:
        l2, l3, l4 = exact_index_norms(field, first)[inverse].T.copy()
        if count is not None and count <= cap:
            if field.ev is _sum_columns:
                sigma2 = _sum_field_sigma2(field)
            elif sigma2 is None:
                from .oracle import walk_outcomes  # oracle imports this module
                sigma2 = walk_outcomes(field, var=True, cap=cap).sigma2
            sigma2_id = exact_sigma2_local(field, sys)
        else:
            sigma2 = sigma2_id = exact_sigma2_local(field, sys)
            mode = "hybrid"
    scale = max(1.0, abs(sigma2))
    if abs(sigma2 - sigma2_id) > SIGMA2_IDENTITY_RTOL * scale:
        raise AssertionError(
            f"variance identity violated: Var(S)={sigma2} vs "
            f"covariance sum {sigma2_id}"
        )
    table = MomentTable(l2=l2, l3=l3, l4=l4, sigma2=sigma2, mode=mode, groups=inverse)
    if table.degenerate:
        table.extras["degenerate"] = True
    return table


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


def mc_moment_table(
    field: LatentSourceField,
    reps: int = 10**4,
    master_seed: int = 0,
    batches: int = 32,
) -> MomentTable:
    """Monte-Carlo norms and Var(S) with batch-means standard errors."""
    if reps < 10**3:
        raise ValueError(f"reps={reps} below the 10^3 floor")
    n = field.n
    batches = min(batches, reps)
    bounds = np.linspace(0, reps, batches + 1).astype(int)
    acc = {p: np.zeros((batches, n)) for p in (2, 3, 4)}
    s_sum = np.zeros(batches)
    s2_sum = np.zeros(batches)
    counts = np.diff(bounds)
    # chunks of whole sample blocks, each split at the batch bounds it spans
    chunk = chunk_rows(field.n_sources)
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        rows = draw_source_rows(field, master_seed, range(start, stop), path=(STREAM_MOMENTS,))
        X_chunk = evaluate_values(field, rows)
        cuts = np.clip(bounds, start, stop) - start
        for b in np.flatnonzero(cuts[1:] > cuts[:-1]):
            X = X_chunk[cuts[b]:cuts[b + 1]]
            a = np.abs(X)
            for p in (2, 3, 4):
                acc[p][b] += (a**p).sum(axis=0)
            s = X.sum(axis=1)
            s_sum[b] += s.sum()
            s2_sum[b] += (s**2).sum()
    mom = {p: acc[p].sum(axis=0) / reps for p in (2, 3, 4)}
    norms = {p: mom[p] ** (1.0 / p) for p in (2, 3, 4)}
    batch_norms = {p: (acc[p] / counts[:, None]) ** (1.0 / p) for p in (2, 3, 4)}
    ses = {p: batch_norms[p].std(axis=0, ddof=1) / math.sqrt(batches) for p in (2, 3, 4)}
    mean_s = s_sum.sum() / reps
    sigma2 = s2_sum.sum() / reps - mean_s**2
    sigma2 = sigma2 * reps / (reps - 1)
    batch_sigma2 = s2_sum / counts - (s_sum / counts) ** 2
    se_sigma2 = float(batch_sigma2.std(ddof=1) / math.sqrt(batches))
    table = MomentTable(
        l2=norms[2],
        l3=norms[3],
        l4=norms[4],
        sigma2=float(sigma2),
        mode="monte_carlo",
        se_l2=ses[2],
        se_l3=ses[3],
        se_l4=ses[4],
        se_sigma2=se_sigma2,
        extras={"reps": reps, "batches": batches},
    )
    if table.degenerate:
        table.extras["degenerate"] = True
    return table


# ---------------------------------------------------------------------------
# Kernel quantities for U-statistics


@dataclass(frozen=True)
class KernelMoments:
    """theta = E h, sigma1 = sd of the first-order projection,
    var = Var(h), and the raw norm ||h||_4 = (E|h|^4)^{1/4}."""

    theta: float
    sigma1: float
    var: float
    l4: float


def hoeffding_sigma1(
    kernel: Callable,
    m: int,
    source: Source,
    tol: float = 1e-9,
) -> KernelMoments:
    """sigma1^2 = Var( E[h(X_1..X_m) - theta | X_1] ), exact by nested
    enumeration over a discrete source.  Raises
    :class:`EnumerationCapExceeded` for a continuous source or a grid
    beyond DEFAULT_ENUM_CAP, and :class:`DegenerateKernel` when sigma1^2
    falls below ``tol * max(Var(h), tiny)`` (the degenerate case).
    """
    if not isinstance(source, DiscreteSource):
        raise EnumerationCapExceeded("continuous source; sigma1 needs a discrete source")
    prb = np.asarray(source.probs)
    if len(prb) ** m > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded("kernel enumeration too large")
    w, grid = product_grid([source] * m)
    h = np.asarray(kernel(*grid.T), dtype=float)
    theta = float(np.sum(w * h))
    var_h = float(np.sum(w * (h - theta) ** 2))
    l4 = float(np.sum(w * np.abs(h) ** 4)) ** 0.25
    # condition on the first argument (the most significant grid digit)
    g = (w * h).reshape(len(prb), -1).sum(axis=1) / prb - theta
    sigma1_sq = float(prb @ g**2)
    if sigma1_sq <= tol * max(var_h, 1e-300):
        raise DegenerateKernel(
            f"sigma1^2={sigma1_sq} is degenerate relative to Var(h)={var_h}"
        )
    return KernelMoments(theta=theta, sigma1=math.sqrt(sigma1_sq), var=var_h, l4=l4)


# ---------------------------------------------------------------------------
# Serialization


def write_csv(fh, table: MomentTable) -> None:
    """Writes the CSV section ``index,l2,l3,l4,se2,se3,se4`` (RFC-4180,
    1-based index) to the binary handle ``fh``: a run of _LONG_RUN or more
    rows of one group in uint8 blocks with the index digits computed, other
    rows by one join per block.  Values are formatted once per group."""
    n, z = table.n, np.zeros(table.n)
    cols = [table.l2, table.l3, table.l4,
            *(z if se is None else se for se in (table.se_l2, table.se_l3, table.se_l4))]
    groups = np.arange(n) if table.groups is None else table.groups
    starts = np.r_[0, np.flatnonzero(np.diff(groups)) + 1][:n]  # runs of one group
    ends = [*starts[1:].tolist(), n]
    _, first, run_body = np.unique(groups[starts], return_index=True, return_inverse=True)
    values = np.stack([c[starts[first]] for c in cols], axis=1).tolist()
    bodies = [b",%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(v) for v in values]
    row_body = np.repeat(run_body, np.subtract(ends, starts))
    fh.write(b"index,l2,l3,l4,se2,se3,se4\n")
    long_runs = [(lo, hi) for lo, hi in zip(starts.tolist(), ends) if hi - lo >= _LONG_RUN]
    done = 0  # rows written
    for lo, hi in [*long_runs, (n, n)]:
        for a in range(done, lo, _BLOCK_ROWS):  # the short runs before this long one
            rows = enumerate(row_body[a:min(a + _BLOCK_ROWS, lo)].tolist(), a + 1)
            fh.write(b"".join([b"%d%b" % (i, bodies[g]) for i, g in rows]))
        a = lo + 1
        while a <= hi:  # blocks of at most _BLOCK_ROWS rows, cut where the index gains a digit
            d, body = len(str(a)), np.frombuffer(bodies[row_body[lo]], np.uint8)
            b = min(a + _BLOCK_ROWS, hi + 1, 10**d)
            out = np.empty((b - a, d + body.size), np.uint8)
            out[:, d:] = body
            idx = np.arange(a, b, dtype=np.min_scalar_type(b))
            for k in range(d):
                out[:, d - 1 - k] = idx // 10**k % 10 + 48
            fh.write(out)
            a = b
        done = hi


def table_header(table: MomentTable) -> dict:
    """JSON header accompanying the CSV body."""
    return {
        "sigma2": table.sigma2,
        "mode": table.mode,
        "se_sigma2": table.se_sigma2,
        "extras": {k: v for k, v in table.extras.items() if _jsonable(v)},
    }


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))
