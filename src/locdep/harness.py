"""Monte-Carlo experiments: empirical Kolmogorov distances, rate fits,
and bound-ratio tables.

Replications are embarrassingly parallel: each block of replications
draws from its own counter-derived substream (``rng.block_size``), chunks
of whole blocks run independently (numpy releases the GIL for the heavy
parts) and merge in chunk order, so summaries are independent of the
worker count and chunk size and stable under increasing R.  Sigma is
checked before anything is drawn, and ``statistics`` reduces each chunk.
W1 and the raw sum read S from ``fields.draw_sums``, which counts it from
the packed bits of fair two-point sum fields.  W2 and W2bar evaluate
drawn source rows (source-major when every source is fair two-point): as
integers of the narrowest type that holds X, Y and X o Y where
``fields.value_dtype`` allows (fair two-point integer sum fields with
integer means), else as floats.

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
from .fields import (
    LatentSourceField,
    draw_source_rows,
    draw_sums,
    evaluate_values,
    induced_neighborhoods,
    value_dtype,
)
from .neighborhood import NeighborhoodSystem
from .oracle import phi
from .rng import DEFAULT_CHUNK, chunk_rows
from .statistics import READS_VALUES, check_sigma, finish, statistic_parts

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
    sys: NeighborhoodSystem | None = None,
    path: tuple[int, ...] = (),
    chunk: int = DEFAULT_CHUNK,
    threads: int = 1,
    max_reject_fraction: float = MAX_REJECT_FRACTION,
) -> EmpiricalSummary:
    """R independent replications of a statistic and its distance to Phi.

    ``path`` extends the substream derivation (grid position etc.), so a
    grid experiment under one master seed is individually reproducible.
    W2 and W2bar read the neighborhoods of ``sys``, by default the
    field's induced ones.
    """
    if reps < 10**3:
        raise ValueError(f"reps={reps} below the 10^3 floor")
    check_sigma(statistic, sigma)
    chunk = chunk_rows(field.n_sources, chunk)
    reads_values = statistic in READS_VALUES
    if reads_values:
        sys = induced_neighborhoods(field) if sys is None else sys
        dtype = value_dtype(field, sys)  # of the source rows and values

    def run_chunk(start: int) -> tuple[np.ndarray, int]:
        part = range(start, min(start + chunk, reps))
        if reads_values:
            batch = evaluate_values(field, draw_source_rows(field, master_seed, part, path=path, dtype=dtype))
        else:
            batch = draw_sums(field, master_seed, part, path=path)
        parts, rej = statistic_parts(statistic, batch, sys)
        return finish(statistic, [a[~rej] for a in parts], sigma), int(rej.sum())

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
    return EmpiricalSummary(
        statistic=statistic,
        reps=reps,
        ks=ks,
        ks_band=1.0 / math.sqrt(values.size),
        rejected=rejected,
        mean=float(values.mean()),
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
        rows.append(RatioRow(n=n, ks=summ.ks, shape=rep.value, ratio=summ.ks / rep.value))
    return RatioTable(rows=rows)
