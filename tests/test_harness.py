"""Monte-Carlo harness tests.

Core claims:
    - the empirical Kolmogorov distance matches the exact oracle within
      the sampling envelope and reproduces with the seed
    - the block streams are stable under increasing R, thread counts and
      chunk sizes; rejections reproduce
    - rate fits recover synthetic power laws; ratio tables are exact on
      synthetic data and enforce grid agreement
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import locdep.bounds as B
import locdep.fields as F
import locdep.harness as H
import locdep.moments as M
import locdep.oracle as O
from locdep.errors import DegeneratePoints, ExcessRejections, GridMismatch


def test_degenerate_statistic_has_ks_half():
    f = F.build_iid_field(3, F.DiscreteSource((0.0,), (1.0,)))
    s = H.mc_run(f, "sum", 1000, 1)
    assert s.ks == pytest.approx(0.5)


def test_mc_matches_exact_within_envelope():
    f = F.build_iid_field(1, F.rademacher())
    exact = O.exact_kolmogorov(f, "w1")
    s = H.mc_run(f, "w1", 20000, 5, sigma=1.0)
    assert abs(s.ks - exact) <= 2.0 / math.sqrt(20000)


def test_same_seed_reproduces_summary():
    f = F.build_m_dependent(6, 1, F.rademacher())
    t = M.exact_moment_table(f)
    a = H.mc_run(f, "w1", 2000, 42, sigma=t.sigma)
    b = H.mc_run(f, "w1", 2000, 42, sigma=t.sigma)
    assert a == b


def test_stream_stability_under_increasing_r():
    f = F.build_m_dependent(5, 1, F.rademacher())
    rows_small = F.draw_source_rows(f, 9, range(100))
    rows_big = F.draw_source_rows(f, 9, range(250))
    assert np.array_equal(rows_small, rows_big[:100])


def test_thread_count_does_not_change_results():
    f = F.build_m_dependent(64, 1, F.rademacher())
    t = M.exact_moment_table(f)
    a = H.mc_run(f, "w1", 4000, 3, sigma=t.sigma, chunk=512, threads=1)
    b = H.mc_run(f, "w1", 4000, 3, sigma=t.sigma, chunk=512, threads=4)
    assert a.ks == b.ks and a.mean == b.mean


def test_chunk_size_and_thread_count_do_not_change_summaries():
    # 301 sources give 128-row sample blocks, so every chunk size here
    # splits the replications differently
    f = F.build_m_dependent(300, 1, F.rademacher())
    t = M.exact_moment_table(f, sigma2_mode="local")
    runs = [
        H.mc_run(f, "w1", 4000, 3, sigma=t.sigma, threads=threads, **chunk)
        for chunk in ({"chunk": 256}, {"chunk": 512}, {})
        for threads in (1, 2)
    ]
    assert all(r == runs[0] for r in runs[1:])


def test_rejections_reproduce_and_excess_raises():
    # two iid Rademacher points: V = 0 whenever X1 = X2 (half the time)
    f = F.build_iid_field(2, F.rademacher())
    adj = F.induced_neighborhoods(f)
    a = H.mc_run(f, "w2", 1000, 11, sys_or_adj=adj, max_reject_fraction=1.0)
    b = H.mc_run(f, "w2", 1000, 11, sys_or_adj=adj, max_reject_fraction=1.0)
    assert a.rejected == b.rejected > 0
    with pytest.raises(ExcessRejections):
        H.mc_run(f, "w2", 1000, 11, sys_or_adj=adj)


def test_w2_on_continuous_field_has_no_rejections():
    f = F.build_iid_field(50, F.ContinuousSource("normal"), center=False)
    s = H.mc_run(f, "w2", 2000, 13, sys_or_adj=F.induced_neighborhoods(f))
    assert s.rejected == 0
    assert s.ks < 0.1


def test_rate_fit_synthetic():
    fit = H.rate_fit([(n, n**-0.5) for n in (64, 256, 1024, 4096)])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.residual_norm == pytest.approx(0.0, abs=1e-10)
    flat = H.rate_fit([(n, 0.25) for n in (10, 100, 1000)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegeneratePoints):
        H.rate_fit([(10, 0.1), (20, 0.05)])
    with pytest.raises(DegeneratePoints):
        H.rate_fit([(10, 0.1), (20, 0.0), (40, 0.01)])


def _summary(ks: float) -> H.EmpiricalSummary:
    return H.EmpiricalSummary(
        statistic="w1", reps=1000, ks=ks, ks_band=0.01, rejected=0,
        mean=0.0, var=1.0, m4=3.0,
    )


def _report(val: float) -> B.BoundReport:
    return B.BoundReport(theorem="main", value=val, terms={})


def test_ratio_table_synthetic_and_mismatch():
    grid = [10, 20, 40]
    t = H.ratio_table(grid, [_summary(0.3)] * 3, [_report(0.3)] * 3)
    assert t.spread == pytest.approx(1.0)
    assert all(r.ratio == pytest.approx(1.0) for r in t.rows)
    with pytest.raises(GridMismatch):
        H.ratio_table(grid, [_summary(0.3)] * 2, [_report(0.3)] * 3)
    with pytest.raises(GridMismatch):
        H.ratio_table([5], [_summary(0.3)], [_report(0.0)])


def test_grid_paths_give_independent_streams():
    f = F.build_iid_field(8, F.rademacher())
    a = H.mc_run(f, "w1", 1000, 77, sigma=math.sqrt(8), path=(0,))
    b = H.mc_run(f, "w1", 1000, 77, sigma=math.sqrt(8), path=(1,))
    assert a.ks != b.ks
