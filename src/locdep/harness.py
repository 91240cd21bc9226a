"""Monte-Carlo experiments: empirical Kolmogorov distances, rate fits,
and bound-ratio tables.

Replications are embarrassingly parallel: each block of replications
draws from its own counter-derived substream (``rng.block_size``), chunks
of whole blocks run independently (numpy releases the GIL for the heavy
parts) and merge in chunk order, so summaries are independent of the
worker count and chunk size and stable under increasing R.

The Kolmogorov distance is against the fixed continuous reference Phi via
the exact order-statistic formula

    D = max_i max( i/R - Phi(x_(i)),  Phi(x_(i)) - (i-1)/R ).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .bounds import BoundReport
from .errors import DegeneratePoints, DegenerateVariance, ExcessRejections, GridMismatch
from .fields import LatentSourceField, draw_source_rows, evaluate_values, overlap_matrix
from .neighborhood import adjacency
from .oracle import phi
from .rng import block_size
from .statistics import w1_batch, w2_batch, w2bar_batch

DEFAULT_CHUNK = 4096
MAX_REJECT_FRACTION = 0.01


@dataclass
class EmpiricalSummary:
    """One Monte-Carlo run of a statistic against Phi."""

    statistic: str
    reps: int
    ks: float
    ks_band: float  # 1/sqrt(accepted) envelope
    rejected: int
    mean: float
    var: float
    m4: float
    extras: dict = dc_field(default_factory=dict)


@dataclass
class RateFit:
    """Least-squares line of log ks against log n."""

    ns: list[int]
    ks: list[float]
    slope: float
    intercept: float
    residual_norm: float


def ks_against_normal(sample: np.ndarray) -> float:
    """Exact empirical sup-distance of a sample's ECDF to Phi."""
    x = np.sort(np.asarray(sample, dtype=float))
    r = x.size
    if r == 0:
        raise DegenerateVariance("empty sample")
    ph = phi(x)
    up = np.arange(1, r + 1) / r - ph
    down = ph - np.arange(0, r) / r
    return float(max(up.max(), down.max()))


def mc_run(
    field: LatentSourceField,
    statistic: str,
    reps: int,
    master_seed: int,
    sigma: float | None = None,
    sys_or_adj=None,
    path: tuple[int, ...] = (),
    chunk: int = DEFAULT_CHUNK,
    threads: int = 1,
    max_reject_fraction: float = MAX_REJECT_FRACTION,
) -> EmpiricalSummary:
    """R independent replications of a statistic and its distance to Phi.

    ``path`` extends the substream derivation (grid position etc.), so a
    grid experiment under one master seed is individually reproducible.
    """
    if reps < 10**3:
        raise ValueError(f"reps={reps} below the 10^3 floor")
    if statistic in ("w1", "w2bar") and sigma is None:
        raise DegenerateVariance(f"{statistic} needs sigma")
    # keep each chunk's source matrix around ~32 MB, in whole sample blocks
    B = block_size(field.n_sources)
    chunk = max(B, min(chunk, (1 << 22) // max(1, field.n_sources)) // B * B)
    adj = None
    if statistic in ("w2", "w2bar"):
        adj = adjacency(sys_or_adj) if sys_or_adj is not None else overlap_matrix(field)
    batch_sum = field.metadata.get("batch_sum")
    mean_total = (
        float(np.sum(field.means)) if (field.center and field.means is not None) else 0.0
    )

    def run_chunk(start: int) -> tuple[np.ndarray, int]:
        stop = min(start + chunk, reps)
        rows = draw_source_rows(field, master_seed, range(start, stop), path=path)
        if statistic in ("w1", "sum") and batch_sum is not None:
            s = batch_sum(rows) - mean_total
            vals = s / sigma if statistic == "w1" else s
            return vals, 0
        X = evaluate_values(field, rows)
        if statistic == "w1":
            return w1_batch(X, sigma), 0
        if statistic == "sum":
            return X.sum(axis=1), 0
        if statistic == "w2":
            vals, rej = w2_batch(X, adj)
            return vals[~rej], int(rej.sum())
        if statistic == "w2bar":
            return w2bar_batch(X, adj, sigma), 0
        raise ValueError(f"unknown statistic {statistic!r}")

    starts = list(range(0, reps, chunk))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, starts))
    else:
        results = [run_chunk(s) for s in starts]
    values = np.concatenate([v for v, _ in results])
    rejected = sum(r for _, r in results)
    if rejected > max_reject_fraction * reps:
        raise ExcessRejections(
            f"{rejected}/{reps} rejections exceed {max_reject_fraction:.2%}"
        )
    ks = ks_against_normal(values)
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    m4 = float(np.mean((values - mean) ** 4))
    return EmpiricalSummary(
        statistic=statistic,
        reps=reps,
        ks=ks,
        ks_band=1.0 / math.sqrt(values.size),
        rejected=rejected,
        mean=mean,
        var=var,
        m4=m4,
        extras={"accepted": int(values.size)},
    )


def rate_fit(points: list[tuple[int, float]]) -> RateFit:
    """Fit log ks = slope * log n + intercept by least squares."""
    if len(points) < 3:
        raise DegeneratePoints(f"need >= 3 grid points, got {len(points)}")
    ns = [int(n) for n, _ in points]
    ks = [float(k) for _, k in points]
    if any(k <= 0 for k in ks) or len(set(ns)) != len(ns):
        raise DegeneratePoints("ks values must be positive at distinct n")
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(ks))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    if not np.isfinite(slope):
        raise DegeneratePoints("slope is not finite")
    return RateFit(
        ns=ns,
        ks=ks,
        slope=float(slope),
        intercept=float(intercept),
        residual_norm=float(np.linalg.norm(resid)),
    )


@dataclass
class RatioRow:
    n: int
    ks: float
    shape: float
    ratio: float
    band: float  # MC uncertainty on the ratio (ks band + shape se, first order)


@dataclass
class RatioTable:
    rows: list[RatioRow]

    @property
    def spread(self) -> float:
        ratios = [r.ratio for r in self.rows]
        return max(ratios) / min(ratios)

    @property
    def finite(self) -> bool:
        return all(math.isfinite(r.ratio) for r in self.rows)


def ratio_table(
    grid: list[int],
    summaries: list[EmpiricalSummary],
    reports: list[BoundReport],
) -> RatioTable:
    """Per-grid-point ks / bound-shape ratios (the implied-constant view)."""
    if not (len(grid) == len(summaries) == len(reports)):
        raise GridMismatch(
            f"grid/summaries/reports lengths differ: "
            f"{len(grid)}/{len(summaries)}/{len(reports)}"
        )
    rows = []
    for n, summ, rep in zip(grid, summaries, reports):
        if rep.value <= 0:
            raise GridMismatch(f"bound shape at n={n} is not positive")
        ratio = summ.ks / rep.value
        band = summ.ks_band / rep.value
        if rep.se:
            band += summ.ks * rep.se / rep.value**2
        rows.append(RatioRow(n=n, ks=summ.ks, shape=rep.value, ratio=ratio, band=band))
    return RatioTable(rows=rows)
