"""Monte-Carlo experiments: empirical Kolmogorov distances, rate fits,
and bound-ratio tables.

Replications are embarrassingly parallel: each block of replications
draws from its own counter-derived substream, the field's ``block_rows``
rows of about 512 kB of raw stream (``rng.block_size``: 512 rows of fair
bits at 4097 sources, 64 of bytes, 8 of floats).  Chunks of whole blocks
(``rng.chunk_rows``) run independently (numpy releases the GIL for the
heavy parts) and merge in chunk order, so summaries are independent of
the worker count and chunk size and stable under increasing R.  Sigma is
checked before anything is drawn, and ``statistics`` reduces each chunk.
W1 and the raw sum read S from ``fields.draw_sums``, which counts it from
the packed bits of fair two-point sum fields.  W2 and W2bar read the
index sums S, sum Y and sum X o Y, by one of two routes: where
``fields.index_sum_plan`` gives a plan (fair two-point integer sum fields
of one source law with integer means, whose sums stay exact in float,
where counting costs less than expanding rows), ``fields.draw_index_sums``
counts them from the packed bits, with no value matrix; other fields
evaluate drawn source rows as floats (source-major when every source is
fair two-point).  Both routes finish in ``statistics.parts_from_sums``.

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
    draw_index_sums,
    draw_source_rows,
    draw_sums,
    evaluate_values,
    index_sum_plan,
    induced_neighborhoods,
)
from .neighborhood import NeighborhoodSystem
from .oracle import phi
from .rng import chunk_rows
from .statistics import READS_VALUES, check_sigma, finish, parts_from_sums, statistic_parts

MAX_REJECT_FRACTION = 0.01


@dataclass
class EmpiricalSummary:
    """One Monte-Carlo run of a statistic against Phi."""

    statistic: str
    reps: int
    ks: float
    ks_band: float  # 1/sqrt(accepted) envelope
    rejected: int
    extras: dict = dc_field(default_factory=dict)


@dataclass
class RateFit:
    """Least-squares line of log ks against log n, with the points it was
    fitted to (``cli`` writes each point's fitted value beside its ks)."""

    ns: list[int]
    ks: list[float]
    slope: float
    intercept: float


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
    threads: int = 1,
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
    chunk = chunk_rows(field.n_sources, field.block_rows)
    reads_values = statistic in READS_VALUES
    plan = None
    if reads_values:
        sys = induced_neighborhoods(field) if sys is None else sys
        plan = index_sum_plan(field, sys)

    def run_chunk(start: int) -> tuple[np.ndarray, int]:
        part = range(start, min(start + chunk, reps))
        if plan is not None:
            sums = draw_index_sums(field, plan, master_seed, part, path=path)
            parts, rej = parts_from_sums(statistic, field.n, sums)
        elif reads_values:
            rows = draw_source_rows(field, master_seed, part, path=path)
            parts, rej = statistic_parts(statistic, evaluate_values(field, rows), sys)
        else:
            parts, rej = statistic_parts(statistic, draw_sums(field, master_seed, part, path=path))
        return finish(statistic, [a[~rej] for a in parts], sigma), int(rej.sum())

    starts = list(range(0, reps, chunk))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, starts))
    else:
        results = [run_chunk(s) for s in starts]
    values = np.concatenate([v for v, _ in results])
    rejected = sum(r for _, r in results)
    if rejected > MAX_REJECT_FRACTION * reps:
        raise ExcessRejections(
            f"{rejected}/{reps} rejections exceed {MAX_REJECT_FRACTION:.2%}"
        )
    ks = ks_against_normal(values)
    return EmpiricalSummary(
        statistic=statistic,
        reps=reps,
        ks=ks,
        ks_band=1.0 / math.sqrt(values.size),
        rejected=rejected,
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
    if not np.isfinite(slope):
        raise DegeneratePoints("slope is not finite")
    return RateFit(ns=ns, ks=ks, slope=float(slope), intercept=float(intercept))


@dataclass
class RatioTable:
    """The ks / bound-shape ratio of each grid point, in grid order."""

    ratios: list[float]

    @property
    def spread(self) -> float:
        return max(self.ratios) / min(self.ratios)

    @property
    def finite(self) -> bool:
        return all(math.isfinite(r) for r in self.ratios)


def ratio_table(
    grid: list[int],
    summaries: list[EmpiricalSummary],
    reports: list[BoundReport],
) -> RatioTable:
    """Per-grid-point ks / bound-shape ratios (the implied-constant view).
    ``grid`` only names the point in an error: a bound shape that is not
    positive, like unequal lengths, raises :class:`GridMismatch`."""
    if not (len(grid) == len(summaries) == len(reports)):
        raise GridMismatch(
            f"grid/summaries/reports lengths differ: "
            f"{len(grid)}/{len(summaries)}/{len(reports)}"
        )
    ratios = []
    for n, summ, rep in zip(grid, summaries, reports):
        if rep.value <= 0:
            raise GridMismatch(f"bound shape at n={n} is not positive")
        ratios.append(summ.ks / rep.value)
    return RatioTable(ratios=ratios)
