"""Moment tables: per-index L2/L3/L4 norms, Var(S), lambda, and the
U-statistic kernel quantities sigma_1 and ||h||_p.

Norms are absolute central moments of the field values actually used by
the statistics, ``||X||_p = (E|X|^p)^{1/p}``, computed exactly by local
enumeration over each index's (discrete) support, or by Monte Carlo with
batch-means standard errors.

Var(S) is computed either by global enumeration (cross-checked against
the local-dependence identity Var(S) = sum_i sum_{j in A_i} Cov(X_i, X_j))
or from that identity alone via per-pair local enumeration, which scales
to fields whose full outcome space is out of reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateKernel, DegenerateVariance, EnumerationCapExceeded
from .fields import (
    DEFAULT_ENUM_CAP,
    DiscreteSource,
    LatentSourceField,
    Source,
    _draw,
    draw_source_rows,
    evaluate_values,
    incidence,
    local_values,
    outcome_blocks,
    overlap_matrix,
    product_grid,
    signature_groups,
)
from .neighborhood import NeighborhoodSystem, adjacency
from .rng import STREAM_MOMENTS, block_size, substream

SIGMA2_IDENTITY_RTOL = 1e-10


@dataclass
class MomentTable:
    """Per-index norms plus the field-level variance and lambda scale.

    ``mode`` is "exact", "monte_carlo", or "hybrid" (exact norms, identity
    variance).  Monte-Carlo entries carry batch-means standard errors.
    ``lam`` is kappa * sum ||X_i||_2^2 / sigma2 when kappa was supplied.
    """

    l2: np.ndarray
    l3: np.ndarray
    l4: np.ndarray
    sigma2: float
    mode: str
    lam: float | None = None
    kappa: int | None = None
    se_l2: np.ndarray | None = None
    se_l3: np.ndarray | None = None
    se_l4: np.ndarray | None = None
    se_sigma2: float | None = None
    extras: dict = dc_field(default_factory=dict)

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

    def with_kappa(self, kappa: int) -> "MomentTable":
        self.kappa = int(kappa)
        self.lam = lam_scale(self, kappa)
        return self


def lam_scale(table: MomentTable, kappa: int) -> float:
    """lambda = kappa * sum ||X_i||_2^2 / sigma2."""
    return float(kappa) * float(np.sum(table.l2**2)) / table.sigma2


# ---------------------------------------------------------------------------
# Exact evaluation


def exact_index_norms(field: LatentSourceField, i: int) -> tuple[float, float, float]:
    """(||X_i||_2, ||X_i||_3, ||X_i||_4) of the centered X_i by local enumeration."""
    probs, X = local_values(field, [i])
    vals = X[:, 0] if field.means is None else X[:, 0] - field.means[i]
    a = np.abs(vals)
    return (
        float(probs @ a**2) ** (1 / 2),
        float(probs @ a**3) ** (1 / 3),
        float(probs @ a**4) ** (1 / 4),
    )


def exact_norm_arrays(field: LatentSourceField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact per-index norms, one enumeration per signature group."""
    first, inverse = signature_groups(field, np.arange(field.n))
    norms = np.array([exact_index_norms(field, i) for i in first])[inverse]
    return norms[:, 0].copy(), norms[:, 1].copy(), norms[:, 2].copy()


def exact_pair_covariance(field: LatentSourceField, i: int, j: int) -> float:
    """Cov(X_i, X_j) by enumeration over the union of the two supports."""
    probs, X = local_values(field, [i, j])
    xi, xj = X[:, 0], X[:, 1]
    mi = float(probs @ xi)
    mj = float(probs @ xj)
    return float(probs @ (xi * xj)) - mi * mj


def exact_sigma2_local(
    field: LatentSourceField, neighbor_sets: Sequence[Sequence[int]] | None = None
) -> float:
    """Var(S) = sum_i sum_{j in A_i} Cov(X_i, X_j), by local enumeration,
    one per signature group of pairs.  ``neighbor_sets`` defaults to the
    induced neighborhoods.

    Index-transitive fields (every index's neighborhood sum is identical
    by exchangeability) use one reference index.
    """
    if field.metadata.get("index_transitive") and neighbor_sets is None:
        inc = incidence(field)
        a0 = np.sort((inc[0] @ inc.T).indices)
        return field.n * _covariance_sum(field, np.stack([np.zeros_like(a0), a0], axis=1))
    M = overlap_matrix(field) if neighbor_sets is None else adjacency(neighbor_sets)
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return _covariance_sum(field, np.stack([rows, M.indices], axis=1))


def _covariance_sum(field: LatentSourceField, pairs: np.ndarray) -> float:
    """sum of Cov(X_i, X_j) over the rows (i, j) of ``pairs``."""
    first, inverse = signature_groups(field, pairs)
    cov = np.array([exact_pair_covariance(field, *pairs[g]) for g in first])
    return float(np.bincount(inverse, minlength=first.size) @ cov)


def exact_sigma2_enumerated(field: LatentSourceField, cap: int = DEFAULT_ENUM_CAP) -> float:
    """Var(S) over the full outcome space."""
    es = 0.0
    es2 = 0.0
    for probs, rows in outcome_blocks(field, cap=cap):
        s = evaluate_values(field, rows).sum(axis=1)
        es += float(probs @ s)
        es2 += float(probs @ s**2)
    return es2 - es * es


def exact_moment_table(
    field: LatentSourceField,
    sys: NeighborhoodSystem | None = None,
    kappa: int | None = None,
    cap: int = DEFAULT_ENUM_CAP,
    sigma2_mode: str = "auto",
) -> MomentTable:
    """Exact norms and Var(S).

    ``sigma2_mode``: "enumerate" (global enumeration, cross-checked against
    the covariance identity when affordable), "local" (identity only), or
    "auto".  The cross-check failing means the declared neighborhoods do
    not cover the true dependence; it raises AssertionError.
    """
    l2, l3, l4 = exact_norm_arrays(field)
    count = field.outcome_count()
    mode = "exact"
    if sigma2_mode == "auto":
        sigma2_mode = "enumerate" if (count is not None and count <= cap) else "local"
    if sigma2_mode == "enumerate":
        if count is None or count > cap:
            raise EnumerationCapExceeded(
                f"outcome count {count} exceeds cap {cap} for global enumeration"
            )
        sigma2 = exact_sigma2_enumerated(field, cap=cap)
        sigma2_id = exact_sigma2_local(field, sys.A if sys is not None else None)
        scale = max(1.0, abs(sigma2))
        if abs(sigma2 - sigma2_id) > SIGMA2_IDENTITY_RTOL * scale:
            raise AssertionError(
                f"variance identity violated: Var(S)={sigma2} vs "
                f"covariance sum {sigma2_id}"
            )
    else:
        sigma2 = exact_sigma2_local(field, sys.A if sys is not None else None)
        mode = "hybrid"
    table = MomentTable(l2=l2, l3=l3, l4=l4, sigma2=sigma2, mode=mode)
    if table.degenerate:
        table.extras["degenerate"] = True
    if kappa is not None and not table.degenerate:
        table.with_kappa(kappa)
    return table


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation


def mc_moment_table(
    field: LatentSourceField,
    sys: NeighborhoodSystem | None = None,
    kappa: int | None = None,
    reps: int = 10**4,
    master_seed: int = 0,
    batches: int = 32,
    chunk: int = 4096,
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
    B = block_size(field.n_sources)
    chunk = max(B, chunk // B * B)
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
    elif kappa is not None:
        table.with_kappa(kappa)
    _ = sys
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
    reps: int | None = None,
    master_seed: int = 0,
    inner_reps: int = 2000,
    tol: float = 1e-9,
) -> KernelMoments:
    """sigma1^2 = Var( E[h(X_1..X_m) - theta | X_1] ).

    Exact by nested enumeration for discrete sources (default), nested
    Monte Carlo otherwise.  Raises :class:`DegenerateKernel` when sigma1^2
    falls below ``tol * max(Var(h), tiny)`` (the degenerate case).
    """
    if reps is None and isinstance(source, DiscreteSource):
        prb = np.asarray(source.probs)
        if len(prb) ** m > DEFAULT_ENUM_CAP:
            raise EnumerationCapExceeded("kernel enumeration too large; pass reps")
        w, grid = product_grid([source] * m)
        h = np.asarray(kernel(*grid.T), dtype=float)
        theta = float(np.sum(w * h))
        var_h = float(np.sum(w * (h - theta) ** 2))
        l4 = float(np.sum(w * np.abs(h) ** 4)) ** 0.25
        # condition on the first argument (the most significant grid digit)
        g = (w * h).reshape(len(prb), -1).sum(axis=1) / prb - theta
        sigma1_sq = float(prb @ g**2)
    else:
        if reps is None:
            reps = 10**5
        rng = substream(master_seed, STREAM_MOMENTS, 1)
        cols = [
            _draw(source, rng, reps) for _ in range(m)
        ]
        h = np.asarray(kernel(*cols), dtype=float)
        theta = float(h.mean())
        var_h = float(h.var(ddof=1))
        l4 = float(np.mean(np.abs(h) ** 4)) ** 0.25
        x1 = _draw(source, rng, reps)
        cond = np.empty(reps)
        chunk = max(1, (1 << 22) // max(inner_reps, 1))
        for start in range(0, reps, chunk):
            stop = min(start + chunk, reps)
            rest = [
                _draw(source, rng, (stop - start) * inner_reps).reshape(
                    stop - start, inner_reps
                )
                for _ in range(m - 1)
            ]
            xs = np.broadcast_to(
                x1[start:stop, None], (stop - start, inner_reps)
            )
            cond[start:stop] = np.asarray(kernel(xs, *rest), dtype=float).mean(axis=1)
        # the inner average inflates Var(cond) by E Var(h|X1)/inner;
        # solve for sigma1^2 using Var(h) = sigma1^2 + E Var(h|X1)
        raw = float(cond.var(ddof=1))
        sigma1_sq = max((raw * inner_reps - var_h) / (inner_reps - 1), 0.0)
    if sigma1_sq <= tol * max(var_h, 1e-300):
        raise DegenerateKernel(
            f"sigma1^2={sigma1_sq} is degenerate relative to Var(h)={var_h}"
        )
    return KernelMoments(theta=theta, sigma1=math.sqrt(sigma1_sq), var=var_h, l4=l4)


# ---------------------------------------------------------------------------
# Serialization


def table_to_csv_rows(table: MomentTable) -> list[str]:
    """CSV body: index, l2, l3, l4, se2, se3, se4 (RFC-4180, 1-based index)."""
    rows = ["index,l2,l3,l4,se2,se3,se4"]
    z = np.zeros(table.n)
    se2 = table.se_l2 if table.se_l2 is not None else z
    se3 = table.se_l3 if table.se_l3 is not None else z
    se4 = table.se_l4 if table.se_l4 is not None else z
    for i in range(table.n):
        rows.append(
            f"{i + 1},{table.l2[i]:.17g},{table.l3[i]:.17g},{table.l4[i]:.17g},"
            f"{se2[i]:.17g},{se3[i]:.17g},{se4[i]:.17g}"
        )
    return rows


def table_header(table: MomentTable) -> dict:
    """JSON header accompanying the CSV body."""
    return {
        "sigma2": table.sigma2,
        "lambda": table.lam,
        "kappa": table.kappa,
        "mode": table.mode,
        "se_sigma2": table.se_sigma2,
        "extras": {k: v for k, v in table.extras.items() if _jsonable(v)},
    }


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))
