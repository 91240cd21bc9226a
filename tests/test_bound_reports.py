"""Pinned bound reports.

``data/bound_reports.json`` holds the value, terms and se of every bound
shape on three tables of m-dependent fields, one exact, one hybrid and one
Monte Carlo (normal sources, fixed seed), with the fourth-moment
preconditions and both delta-component sets on each, and one
distributed-U report.  It was recorded before the shapes were rewritten
as single functions of the norm sums.  Every report must reproduce it bit
for bit; the preconditions and delta_2/delta_3, which now rescale the
main terms instead of spelling them out, may move by rounding only.  The
Monte-Carlo constrained_u se was re-pinned when it began to propagate the
se of sigma2 (0.6864956267422554 -> 2.906932529755671).  Five values moved
by one or two units in the last place, and were re-pinned, when the dense
dot products of the beta sums and delta components became pairwise sums
that do not depend on the BLAS thread count: delta4 of the exact and
hybrid prop1 sets, and beta1, delta3 and delta5 of the Monte-Carlo table.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

import locdep.bounds as B
import locdep.fields as F
import locdep.moments as M
import locdep.neighborhood as nb
import locdep.oracle as O

PINNED = json.loads((Path(__file__).parent / "data" / "bound_reports.json").read_text())
REWRITTEN_RTOL = 1e-15


@functools.cache
def _instance(name: str):
    """(field, induced system, moment table) of the named table."""
    f = {
        "exact": lambda: F.build_m_dependent(8, 1, F.three_point()),
        "hybrid": lambda: F.build_m_dependent(64, 2, F.three_point(0.5, 0.25)),
        "monte_carlo": lambda: F.build_m_dependent(16, 1, F.ContinuousSource("normal")),
    }[name]()
    sys = F.induced_neighborhoods(f)
    t = {
        "exact": lambda: M.exact_moment_table(f, O.walk_outcomes(f, var=True).sigma2),
        "hybrid": lambda: M.exact_moment_table(f),
        "monte_carlo": lambda: M.mc_moment_table(f, reps=2000, master_seed=11),
    }[name]()
    return f, sys, t


def _rep(r: B.BoundReport) -> dict:
    return {"value": r.value, "terms": r.terms, "se": r.se}


def _reports(f, sys, t, der) -> dict:
    n = f.n
    block_l4, kappas, taus = [], [], []
    for lo, hi in [(0, n // 2), (n // 2, n)]:
        block_l4.append(t.l4[lo:hi])
        d = nb.derive(nb.make_system([np.flatnonzero(a) for a in sys.M.toarray()[lo:hi, lo:hi]]))
        kappas.append(d.kappa)
        taus.append(d.tau)
    return {
        "main": _rep(B.bound_main(t, der.kappa, der.tau)),
        "self_normalized": _rep(B.bound_self_normalized(t, der.kappa, der.tau)),
        "general_beta": _rep(B.bound_general_beta(t, sys, der)),
        "graph": _rep(B.bound_graph(t, 2)),
        "constrained_u": _rep(B.bound_constrained_u(t, n, 2)),
        "decorated": _rep(B.bound_decorated(t, n, 3)),
        "distributed_general": _rep(B.bound_distributed_general(block_l4, kappas, taus, t.sigma)),
    }


def _assert_close(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=REWRITTEN_RTOL, abs=0), k


@pytest.mark.parametrize("name", ["exact", "hybrid", "monte_carlo"])
def test_reports_reproduce_the_pinned_values(name):
    f, sys, t = _instance(name)
    pinned = PINNED[name]
    assert t.mode == name
    der = nb.derive(sys)
    assert (der.kappa, der.tau) == (pinned["kappa"], pinned["tau"])
    assert _reports(f, sys, t, der) == pinned["reports"]  # bit for bit, se included
    sums = B.beta_sums(t.l4, sys, der)
    in_a, in_b = (np.isin(np.arange(sys.n), S)[None] for S in ([0, 2], [1, 3]))
    sets = B.set_sums(sys.M.toarray()[None], t.l4[None], sums["w_an"][None], in_a, in_b)[0]
    norms = B.norm_sums(t)[0]
    d1 = B.delta_components_prop1(norms, sets, -0.3, 0.7, 2.0, sums)
    assert d1 == pinned["delta_components_prop1"]
    lam, d2 = B.delta_components_prop2(norms, der.kappa, der.tau, sets, -0.3, 0.7, 2.0)
    _assert_close({"lambda": lam, **d2}, pinned["delta_components_prop2"])
    ok, pre = O.fourth_moment_precondition(norms, der.kappa, der.tau, 2)
    want = dict(pinned["fourth_moment_precondition"])
    assert ok == want.pop("ok")
    _assert_close(pre, want)


def test_distributed_u_reproduces_the_pinned_value():
    km = M.KernelMoments(sigma1=1.3, var=2.1, l4=1.7)
    assert _rep(B.bound_distributed_u(km, 40, 2, [20, 20])) == PINNED["distributed_u"]
