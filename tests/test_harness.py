"""Monte-Carlo harness tests.

Core claims:
    - the empirical Kolmogorov distance matches the exact oracle within
      the sampling envelope and reproduces with the seed
    - the block streams are stable under increasing R, thread counts and
      chunk sizes; rejections reproduce; a word field's summaries do not
      depend on the thread count
    - W2 and W2bar of fair two-point integer sum fields run on integer
      values and give the float route's summaries; other fields run on
      floats
    - both Monte-Carlo loops (``mc_run`` and ``mc_moment_table``) draw
      chunks of at most 2^22 source draws
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
from locdep.errors import DegeneratePoints, DegenerateVariance, ExcessRejections, GridMismatch


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
    # splits the replications differently.  Normal sources leave the
    # integer lattice, so S and the W2 reductions must not depend on the
    # split to the last bit
    f = F.build_m_dependent(300, 1, F.rademacher())
    t = M.exact_moment_table(f, cap=0)
    for statistic in ("w1", "w2"):  # W2 takes integer values here
        runs = [
            H.mc_run(f, statistic, 4000, 3, sigma=t.sigma, threads=threads, **chunk)
            for chunk in ({"chunk": 256}, {"chunk": 512}, {})
            for threads in (1, 2)
        ]
        assert all(r == runs[0] for r in runs[1:]), statistic
    normal = F.build_m_dependent(300, 1, F.ContinuousSource("normal"))
    for statistic in ("w1", "w2"):
        runs = [
            H.mc_run(normal, statistic, 4000, 3, sigma=math.sqrt(4 * 300 - 2),  # Var(S) = 4n - 2
                     threads=threads, **chunk)
            for chunk in ({"chunk": 256}, {"chunk": 512}, {})
            for threads in (1, 2)
        ]
        assert all(r == runs[0] for r in runs[1:]), statistic


def test_word_field_summaries_do_not_depend_on_the_thread_count():
    # a word field's S is its occurrence count (the field's batch_sum);
    # three letters give means that are not dyadic
    for f in (F.build_word_field([0, 1], 40, 2, [None]), F.build_word_field([0, 2], 30, 3, [4])):
        t = M.mc_moment_table(f, reps=2000, master_seed=5)
        for statistic in ("w1", "sum"):
            runs = [H.mc_run(f, statistic, 3000, 3, sigma=t.sigma, threads=threads, chunk=512)
                    for threads in (1, 2)]
            assert runs[0] == runs[1], statistic


def record_value_dtypes(monkeypatch) -> list:
    """Record the dtype of every value matrix ``mc_run`` reduces."""
    dtypes, parts = [], H.statistic_parts
    monkeypatch.setattr(H, "statistic_parts",
                        lambda name, X, *a: dtypes.append(X.dtype) or parts(name, X, *a))
    return dtypes


@pytest.mark.parametrize("statistic", ["w2", "w2bar"])
def test_integer_route_gives_the_float_routes_summary(statistic, monkeypatch):
    f = F.build_m_dependent(500, 1, F.rademacher())
    dtypes = record_value_dtypes(monkeypatch)
    ints = H.mc_run(f, statistic, 3000, 8, sigma=math.sqrt(4 * 500 - 2), chunk=1024)
    assert set(dtypes) == {np.dtype(np.int8)} and len(dtypes) == 3
    dtypes.clear()
    monkeypatch.setattr(H, "value_dtype", lambda field, sys: np.dtype(float))
    floats = H.mc_run(f, statistic, 3000, 8, sigma=math.sqrt(4 * 500 - 2), chunk=1024)
    assert set(dtypes) == {np.dtype(float)}
    assert ints == floats


@pytest.mark.parametrize("field", [
    F.build_iid_field(3, F.DiscreteSource((-2.0**26, 2.0**26), (0.5, 0.5))),  # 3 * 2^52 >= 2^53
    F.build_iid_field(30, F.bernoulli(0.5)),  # mean 1/2
    F.build_m_dependent(30, 1, F.three_point()),
], ids=["past_2_pow_53", "bernoulli_half", "three_point"])
def test_other_fields_take_the_float_route(field, monkeypatch):
    dtypes = record_value_dtypes(monkeypatch)
    H.mc_run(field, "w2", 1000, 4, max_reject_fraction=1.0)
    assert set(dtypes) == {np.dtype(float)}


def test_rejections_reproduce_and_excess_raises():
    # two iid Rademacher points: V = 0 whenever X1 = X2 (half the time)
    f = F.build_iid_field(2, F.rademacher())
    sys = F.induced_neighborhoods(f)
    a = H.mc_run(f, "w2", 1000, 11, sys=sys, max_reject_fraction=1.0)
    b = H.mc_run(f, "w2", 1000, 11, sys=sys, max_reject_fraction=1.0)
    assert a.rejected == b.rejected > 0
    with pytest.raises(ExcessRejections):
        H.mc_run(f, "w2", 1000, 11, sys=sys)


def test_w2_on_continuous_field_has_no_rejections():
    f = F.build_iid_field(50, F.ContinuousSource("normal"), center=False)
    s = H.mc_run(f, "w2", 2000, 13, sys=F.induced_neighborhoods(f))
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
        mean=0.0,
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


def test_both_mc_loops_keep_chunks_under_the_cell_cap(monkeypatch):
    # 4097 sources: at most 2^22 // 4097 = 1023 rows per draw, 1016 in
    # whole 8-row blocks, where a 4096-row chunk would hold 64 MB
    f = F.build_m_dependent(4096, 1, F.ContinuousSource("normal"))
    rows, draw = [], F.draw_source_rows

    def counted(field, seed, reps, *args, **kwargs):
        rows.append(len(reps))
        return draw(field, seed, reps, *args, **kwargs)

    for module in (F, M):
        monkeypatch.setattr(module, "draw_source_rows", counted)
    M.mc_moment_table(f, reps=2000, master_seed=1)
    H.mc_run(f, "sum", 2000, 1)
    assert sum(rows) == 4000
    assert max(rows) == 1016 <= (1 << 22) // f.n_sources


@pytest.mark.parametrize("sigma", [None, 0.0, float("inf"), float("nan")])
@pytest.mark.parametrize("statistic", ["w1", "w2bar"])
def test_statistics_that_need_sigma_refuse_a_missing_one_before_any_draw(statistic, sigma, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking sigma")

    monkeypatch.setattr(H, "draw_sums", no_draw)
    monkeypatch.setattr(H, "draw_source_rows", no_draw)
    f = F.build_m_dependent(8, 1, F.rademacher())
    with pytest.raises(DegenerateVariance):
        H.mc_run(f, statistic, 1000, 1, sigma=sigma)
