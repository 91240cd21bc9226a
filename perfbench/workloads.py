"""The benchmark's workloads: locdep experiment specs made from a seed.

Each workload is a list of named specs in the ``locdep run`` config
format, modelled on the shipped ``configs/*.json``.  One *pass* of a
workload runs every spec once, in a fresh process.  The seed only picks
the master seeds of the Monte-Carlo streams; field parameters and sizes
are fixed, so every seed costs the same work and exact-route outputs can
be checked against one reference.  A spec that carries its own ``seed``
keeps it: the checker suite draws the size of each random instance from
its seed, so it gets a fixed one.  ``enum_oracle`` is all exact and does
not depend on the seed at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    pass_s: float  # nominal length of one pass on a 2-core Xeon
    specs: list[tuple[str, dict]]


RADEMACHER = {"kind": "rademacher"}
THREE_POINT = {"kind": "three_point"}

# specs are (name, spec without its seed)
WORKLOADS: dict[str, Workload] = {
    "mc_stream": Workload(
        "Monte-Carlo replications: stream derivation, source draws, evaluators, "
        "the mean pre-pass and the W1/W2 reductions carry most of the time",
        9.0,
        [
            ("mdep_w1", {
                "family": "m_dependent",
                "params": {"m": 1, "source": RADEMACHER},
                "grid": [8, 64, 4096],
                "statistic": "w1",
                "mode": {"kind": "mc", "reps": 6000},
                "bounds": ["main", "self_normalized"],
            }),
            ("mdep_w2", {
                "family": "m_dependent",
                "params": {"m": 1, "source": RADEMACHER},
                "grid": [16, 64, 4096],
                "statistic": "w2",
                "mode": {"kind": "mc", "reps": 4000},
                "bounds": ["self_normalized"],
            }),
            ("normal_w2", {
                "family": "m_dependent",
                "params": {"m": 1, "source": {"kind": "normal"}},
                "grid": [16, 24, 40],
                "statistic": "w2",
                "mode": {"kind": "mc", "reps": 3000},
                "bounds": ["self_normalized"],
            }),
        ],
    ),
    "exact_local": Workload(
        "field builders, local exact moments, neighborhood derivation and bound "
        "sums carry most of the time; MC runs at the 1000-replication floor",
        10.0,
        [
            ("word", {
                "family": "constrained_ustat",
                "params": {"word": "ab", "alphabet": 2, "gaps": ["inf"]},
                "grid": [32, 64, 96],
                "statistic": "w1",
                "mode": {"kind": "mc", "reps": 1000},
                "bounds": ["constrained_u"],
            }),
            ("triangle", {
                "family": "decorated_graph",
                "params": {"pattern": "triangle", "p": 0.3},
                "grid": [20, 40, 56],
                "statistic": "w1",
                "mode": {"kind": "mc", "reps": 1000},
                "bounds": ["decorated"],
            }),
            ("ustat", {
                "family": "ustat",
                "params": {"m": 2, "k": 2, "kernel": "sum", "source": THREE_POINT},
                "grid": [24, 40, 60],
                "statistic": "w1",
                "mode": {"kind": "mc", "reps": 1000},
                "bounds": ["distributed_u", "distributed_general"],
            }),
            ("three_point", {
                "family": "m_dependent",
                "params": {"m": 2, "source": THREE_POINT},
                "grid": [256, 1024, 2048],
                "statistic": "w1",
                "mode": {"kind": "mc", "reps": 1000},
                "bounds": ["general_beta"],
            }),
        ],
    ),
    "enum_oracle": Workload(
        "full outcome-space enumeration with no replication draws: checker "
        "suites, exact W2 laws (merge_atoms) and the LD factorization test",
        7.5,
        [
            ("checkers", {
                "family": "iid",
                "params": {"source": RADEMACHER},
                "grid": [6],
                "statistic": "w1",
                "mode": {"kind": "exact"},
                # fixed: instance sizes (3-10 sources, 2-8 indices) follow the seed
                "seed": 20260217,
                "checkers": {"instances": 100, "include_r4": True},
                "assertions": {"require_zero_check_failures": True, "require_ld": True},
            }),
            ("cycle_w2", {
                "family": "graph",
                "params": {"graph": "cycle", "source": THREE_POINT},
                "grid": [4, 5, 6],
                "statistic": "w2",
                "mode": {"kind": "exact"},
            }),
            ("mdep_ld", {
                "family": "m_dependent",
                "params": {"m": 1, "source": THREE_POINT},
                "grid": [4, 6, 8],
                "statistic": "w1",
                "mode": {"kind": "exact"},
                "assertions": {"require_ld": True},
            }),
        ],
    ),
}


def specs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's specs with master seeds drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return [
        (name, {"seed": rng.randrange(2**32), **doc})
        for name, doc in WORKLOADS[workload].specs
    ]


def mc_reps(workload: str) -> int:
    """Replications one pass asks of ``harness.mc_run``."""
    return sum(
        doc["mode"]["reps"] * len(doc["grid"])
        for _, doc in WORKLOADS[workload].specs
        if doc["mode"]["kind"] == "mc"
    )
