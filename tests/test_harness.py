"""Monte-Carlo harness tests.

Core claims:
    - the empirical Kolmogorov distance matches the exact oracle within
      the sampling envelope and reproduces with the seed
    - the block streams are stable under increasing R, thread counts and
      chunk sizes; rejections reproduce; a word field's summaries do not
      depend on the thread count
    - W2 and W2bar of fair two-point integer sum fields count their index
      sums from the packed bits and give the float route's summaries;
      other fields run on floats
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
import locdep.rng as rng
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


def test_thread_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr(rng, "BLOCK_BITS", 2**16)  # 512-row blocks of fair bits
    f = F.build_m_dependent(64, 1, F.rademacher())
    t = M.exact_moment_table(f)
    monkeypatch.setattr(rng, "DEFAULT_CHUNK", 512)
    assert rng.chunk_rows(f.n_sources, f.block_rows) == 512
    a = H.mc_run(f, "w1", 4000, 3, sigma=t.sigma, threads=1)
    b = H.mc_run(f, "w1", 4000, 3, sigma=t.sigma, threads=4)
    assert a == b


def chunked_runs(monkeypatch, field, statistic, sigma) -> list:
    """Summaries at chunks of 256 and 512 rows and the default, each on
    one and two threads."""
    runs = []
    for chunk in (256, 512, rng.DEFAULT_CHUNK):
        monkeypatch.setattr(rng, "DEFAULT_CHUNK", chunk)
        assert rng.chunk_rows(field.n_sources, field.block_rows) == chunk
        runs += [H.mc_run(field, statistic, 4000, 3, sigma=sigma, threads=t) for t in (1, 2)]
    return runs


def test_chunk_size_and_thread_count_do_not_change_summaries(monkeypatch):
    # 301 sources give 128-row sample blocks (fair ones in blocks of 2^16
    # bits), so every chunk size here splits the replications differently.
    # Normal sources leave the integer lattice, so S and the W2 reductions
    # must not depend on the split to the last bit
    normal = F.build_m_dependent(300, 1, F.ContinuousSource("normal"))
    monkeypatch.setattr(rng, "BLOCK_BITS", 2**16)
    f = F.build_m_dependent(300, 1, F.rademacher())
    t = M.exact_moment_table(f)
    for statistic in ("w1", "w2"):  # W2 takes integer values here
        runs = chunked_runs(monkeypatch, f, statistic, t.sigma)
        assert all(r == runs[0] for r in runs[1:]), statistic
    for statistic in ("w1", "w2"):
        runs = chunked_runs(monkeypatch, normal, statistic, math.sqrt(4 * 300 - 2))  # Var(S) = 4n - 2
        assert all(r == runs[0] for r in runs[1:]), statistic


def test_word_field_summaries_do_not_depend_on_the_thread_count(monkeypatch):
    # a word field's S is its occurrence count (the field's batch_sum);
    # three letters give means that are not dyadic
    monkeypatch.setattr(rng, "DEFAULT_CHUNK", 512)
    three = F.build_word_field([0, 2], 30, 3, [4])
    monkeypatch.setattr(rng, "BLOCK_BITS", 2**16)  # 1024-row blocks of two fair letters
    for f in (F.build_word_field([0, 1], 40, 2, [None]), three):
        t = M.mc_moment_table(f, reps=2000, master_seed=5)
        for statistic in ("w1", "sum"):
            runs = [H.mc_run(f, statistic, 3000, 3, sigma=t.sigma, threads=threads)
                    for threads in (1, 2)]
            assert runs[0] == runs[1], statistic


def record_value_dtypes(monkeypatch) -> list:
    """Record the dtype of every value matrix ``mc_run`` reduces."""
    dtypes, parts = [], H.statistic_parts
    monkeypatch.setattr(H, "statistic_parts",
                        lambda name, X, *a: dtypes.append(X.dtype) or parts(name, X, *a))
    return dtypes


def record_index_sum_draws(monkeypatch) -> list:
    """Record each call of ``draw_index_sums`` that ``mc_run`` makes."""
    calls, draw = [], H.draw_index_sums
    monkeypatch.setattr(H, "draw_index_sums", lambda *a, **kw: calls.append(a) or draw(*a, **kw))
    return calls


@pytest.mark.parametrize("statistic", ["w2", "w2bar"])
def test_integer_route_gives_the_float_routes_summary(statistic, monkeypatch):
    # two routes, one summary: index sums counted from the packed bits and
    # float values (the packed route forced off)
    monkeypatch.setattr(rng, "BLOCK_BITS", 2**16)  # 128-row blocks, so 3 chunks of 1024 rows
    f = F.build_m_dependent(500, 1, F.rademacher())
    sigma = math.sqrt(4 * 500 - 2)
    dtypes, counted = record_value_dtypes(monkeypatch), record_index_sum_draws(monkeypatch)
    monkeypatch.setattr(rng, "DEFAULT_CHUNK", 1024)
    packed = H.mc_run(f, statistic, 3000, 8, sigma=sigma)
    assert dtypes == [] and len(counted) == 3  # no value matrix
    monkeypatch.setattr(H, "index_sum_plan", lambda field, sys: None)
    floats = H.mc_run(f, statistic, 3000, 8, sigma=sigma)
    assert set(dtypes) == {np.dtype(float)} and len(dtypes) == 3 and len(counted) == 3
    assert packed == floats


@pytest.mark.parametrize("field", [
    F.build_iid_field(3, F.DiscreteSource((-2.0**26, 2.0**26), (0.5, 0.5))),  # 3 * 2^52 >= 2^53
    F.build_iid_field(30, F.bernoulli(0.5)),  # mean 1/2
    F.build_m_dependent(30, 1, F.three_point()),
], ids=["past_2_pow_53", "bernoulli_half", "three_point"])
def test_other_fields_take_the_float_route(field, monkeypatch):
    dtypes = record_value_dtypes(monkeypatch)
    monkeypatch.setattr(H, "MAX_REJECT_FRACTION", 1.0)
    H.mc_run(field, "w2", 1000, 4)
    assert set(dtypes) == {np.dtype(float)}


def test_rejections_reproduce_and_excess_raises(monkeypatch):
    # two iid Rademacher points: V = 0 whenever X1 = X2 (half the time)
    f = F.build_iid_field(2, F.rademacher())
    sys = F.induced_neighborhoods(f)
    with pytest.raises(ExcessRejections):
        H.mc_run(f, "w2", 1000, 11, sys=sys)
    monkeypatch.setattr(H, "MAX_REJECT_FRACTION", 1.0)
    a = H.mc_run(f, "w2", 1000, 11, sys=sys)
    b = H.mc_run(f, "w2", 1000, 11, sys=sys)
    assert a.rejected == b.rejected > 0


def test_w2_on_continuous_field_has_no_rejections():
    f = F.build_iid_field(50, F.ContinuousSource("normal"))
    s = H.mc_run(f, "w2", 2000, 13, sys=F.induced_neighborhoods(f))
    assert s.rejected == 0
    assert s.ks < 0.1


def test_rate_fit_synthetic():
    fit = H.rate_fit([(n, n**-0.5) for n in (64, 256, 1024, 4096)])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    flat = H.rate_fit([(n, 0.25) for n in (10, 100, 1000)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegeneratePoints):
        H.rate_fit([(10, 0.1), (20, 0.05)])
    with pytest.raises(DegeneratePoints):
        H.rate_fit([(10, 0.1), (20, 0.0), (40, 0.01)])


def _summary(ks: float) -> H.EmpiricalSummary:
    return H.EmpiricalSummary(
        statistic="w1", reps=1000, ks=ks, ks_band=0.01, rejected=0,
    )


def _report(val: float) -> B.BoundReport:
    return B.BoundReport(theorem="main", value=val, terms={})


def test_ratio_table_synthetic_and_mismatch():
    grid = [10, 20, 40]
    t = H.ratio_table(grid, [_summary(0.3)] * 3, [_report(0.3)] * 3)
    assert t.spread == pytest.approx(1.0)
    assert t.ratios == pytest.approx([1.0] * 3)
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


def test_fair_bit_blocks_take_one_substream_per_512_kb(monkeypatch):
    # m = 1 Rademacher windows at n = 4096 draw 4097 fair bits a row, so a
    # block holds 512 rows: W2 at R = 4000 and W1 at R = 6000 derive one
    # substream per block read, 8 and 12 (500 and 750 in 8-row blocks)
    f = F.build_m_dependent(4096, 1, F.rademacher())
    assert f.block_rows == 512
    calls, substream = [], F.substream
    monkeypatch.setattr(F, "substream", lambda *path: calls.append(path) or substream(*path))
    H.mc_run(f, "w2", 4000, 1)
    assert len(calls) <= math.ceil(4000 / 512)
    calls.clear()
    H.mc_run(f, "w1", 6000, 1, sigma=math.sqrt(4 * 4096 - 2))
    assert len(calls) <= math.ceil(6000 / 512)


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
