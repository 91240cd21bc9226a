"""Berry-Esseen bound shapes and concentration-inequality components.

Unspecified absolute constants are stripped (set to 1) and every report is
labeled a *shape value*: downstream comparisons use ratios and rates, never
absolute bound values.  The explicit-constant results (16, 13, 27/11, 156,
8755) live in the oracle checkers, which consume the delta components
computed here.

Shapes (all dimensionless, invariant under X -> cX and index relabeling):

    main:             kappa^2/s^3 sum ||X||_4^3
                      + kappa^{1/2}(kappa + tau^{1/2})/s^2 (sum ||X||_4^4)^{1/2}
    self-normalized:  lambda * main,  lambda = kappa sum ||X||_2^2 / s^2
    general beta:     beta_1 + beta_2 + beta_3 with the literal
                      neighborhood sums (quadruple loops)
    graph:            degree-d specialization; lambda_1 = d sum E|X|^2 / s^2
    distributed U:    (m/sqrt(N)) ||h||_4^3/sigma_1^3, variance-deviation
                      companion, and the general per-block kappa/tau form
    constrained U:    n^{-b-1/2}, n^{-b/2-1/2} powers with b = 1 + #infinite gaps
    decorated:        n^{2v-4}, n^{3v-6} powers; lambda_2 = n^{v-2} sum E|eta|^2/s^2

The two main terms come from :func:`main_terms` alone, which the
self-normalized shape, the oracle's fourth-moment preconditions and the
self-normalized delta components rescale.  Every shape of a moment table
is one function of the table's :func:`norm_sums` that returns its value
and terms; the report's value, its terms and, on a Monte-Carlo table, its
standard error all come from that function (:func:`_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BlockTooSmall, ComplexityCapExceeded, DegenerateVariance
from .moments import KernelMoments, MomentTable
from .neighborhood import DerivedNeighborhoods, NeighborhoodSystem, dot, union

# cap on the summed row lengths of the unions behind the beta sums
TERM_BUDGET = 10**9


@dataclass
class BoundReport:
    """A named bound-shape value with its per-term breakdown."""

    theorem: str
    value: float
    terms: dict[str, float]
    inputs: dict = dc_field(default_factory=dict)
    se: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "value": self.value,
            "terms": self.terms,
            "constant_policy": "C=1 shape",
            "inputs": {k: v for k, v in self.inputs.items() if isinstance(v, (int, float, str, bool))},
            "se": self.se,
        }


def sigma_of(norms: Mapping[str, float]) -> float:
    """sigma from the :func:`norm_sums` ``norms``, as ``MomentTable.sigma``
    gives it: :class:`DegenerateVariance` unless sigma2 > 0."""
    if not norms["sigma2"] > 0:
        raise DegenerateVariance(f"sigma2={norms['sigma2']} is not positive")
    return math.sqrt(norms["sigma2"])


def lam_scale(norms: Mapping[str, float], kappa: int) -> float:
    """lambda = kappa * sum ||X_i||_2^2 / sigma2, from the :func:`norm_sums`
    ``norms``."""
    return float(kappa) * norms["t2"] / norms["sigma2"]


def norm_sums(table: MomentTable) -> tuple[dict[str, float], dict[str, float] | None]:
    """(sums, ses): t2 = sum ||X||_2^2, e3 = sum ||X||_3^3, t3 = sum ||X||_4^3,
    t4 = sum ||X||_4^4 and sigma2, and on a table with standard errors
    theirs, the norms' propagated to first order (else None)."""
    l2, l3, l4 = table.l2, table.l3, table.l4
    sums = {
        "t2": float(np.sum(l2**2)),
        "e3": float(np.sum(l3**3)),
        "t3": float(np.sum(l4**3)),
        "t4": float(np.sum(l4**4)),
        "sigma2": table.sigma2,
    }
    if any(se is None for se in (table.se_l2, table.se_l3, table.se_l4, table.se_sigma2)):
        return sums, None
    slopes = {"t2": (2 * l2, table.se_l2), "e3": (3 * l3**2, table.se_l3),
              "t3": (3 * l4**2, table.se_l4), "t4": (4 * l4**3, table.se_l4)}
    ses = {k: math.sqrt(float(np.sum((g * se) ** 2))) for k, (g, se) in slopes.items()}
    return sums, {**ses, "sigma2": table.se_sigma2}


def _propagate(fn, values: dict[str, float], ses: dict[str, float]) -> float:
    """First-order uncertainty band by numeric linearization."""
    base = fn(**values)
    var = 0.0
    for name, se in ses.items():
        if not se:
            continue
        step = max(abs(values[name]) * 1e-6, 1e-12)
        bumped = dict(values)
        bumped[name] += step
        grad = (fn(**bumped) - base) / step
        var += (grad * se) ** 2
    return math.sqrt(var)


def _report(theorem: str, shape: Callable, table_sums: tuple, inputs: dict) -> BoundReport:
    """The report of ``shape``, a function of the :func:`norm_sums` (as
    keywords) that returns (value, terms).  With standard errors on the
    sums, the report's se propagates them through the same function."""
    sums, ses = table_sums
    value, terms = shape(**sums)
    report = BoundReport(theorem=theorem, value=value, terms=terms, inputs=inputs)
    if ses is not None:
        report.se = _propagate(lambda **kw: shape(**kw)[0], sums, ses)
    return report


# ---------------------------------------------------------------------------
# kappa/tau shapes


def main_terms(t3: float, t4: float, s: float, kappa: int, tau: int) -> tuple[float, float]:
    """The two terms of the main shape, kappa^2/s^3 t3 and
    kappa^{1/2}(kappa + tau^{1/2})/s^2 t4^{1/2}, for t3 = sum ||X||_4^3
    and t4 = sum ||X||_4^4."""
    return kappa**2 / s**3 * t3, kappa**0.5 * (kappa + tau**0.5) / s**2 * math.sqrt(t4)


def bound_main(table: MomentTable, kappa: int, tau: int) -> BoundReport:
    """The two-term shape of the main normalized-sum bound."""
    sigma = table.sigma

    def shape(t2, e3, t3, t4, sigma2):
        term1, term2 = main_terms(t3, t4, math.sqrt(sigma2), kappa, tau)
        return term1 + term2, {"third_moment": term1, "fourth_moment": term2}

    sums = norm_sums(table)
    return _report("main", shape, sums, {
        "kappa": kappa, "tau": tau, "sigma": sigma,
        "sum_l4_3": sums[0]["t3"], "sum_l4_4": sums[0]["t4"],
    })


def bound_self_normalized(table: MomentTable, kappa: int, tau: int) -> BoundReport:
    """lambda-scaled shape of the self-normalized bound."""
    sigma = table.sigma

    def shape(t2, e3, t3, t4, sigma2):
        lam = kappa * t2 / sigma2
        term1, term2 = main_terms(t3, t4, math.sqrt(sigma2), kappa, tau)
        return lam * (term1 + term2), {
            "lambda": lam, "third_moment": lam * term1, "fourth_moment": lam * term2,
        }

    sums = norm_sums(table)
    return _report("self_normalized", shape, sums, {
        "kappa": kappa, "tau": tau, "sigma": sigma, "lambda": lam_scale(sums[0], kappa),
    })


# ---------------------------------------------------------------------------
# The literal beta sums and their delta relatives


def beta_sums(
    l4: np.ndarray, sys: NeighborhoodSystem, derived: DerivedNeighborhoods
) -> dict[str, float | np.ndarray]:
    """The raw nested sums shared by the beta and delta-5/6/7 components,
    and ``w_an``, the read-only vector of sum_{l in A_k | N_k} ||X_l||_4
    per k, that the delta_4 of :func:`delta_components_prop2` reads.

    The third second-order term comes twice: ``t23_beta2`` over k in
    A_i | N_j | A_j and ``t23_delta6`` over k in A_i | N_j.  Unions of
    neighborhoods are rows of ``neighborhood.union`` matrices; the pair
    rows run over the entries (i, j) of M, and A_i | A_j is their cover.
    On a symmetric system (``derived.Mt is M``) N_j is A_j, so A | N is M
    and both pair unions are the cover: only the cover is built.  Before
    any union is built, the summed row lengths of the unions to build (an
    upper bound on their entries) are checked against TERM_BUDGET.
    """
    M, Mt = sys.M, derived.Mt
    I, J = M.rows, M.indices
    s = np.diff(M.indptr).astype(float)
    r = np.diff(Mt.indptr).astype(float)
    symmetric = Mt is M
    terms = s[I].sum() + s[J].sum()
    if not symmetric:
        terms += 2 * M.nnz + 2 * s[I].sum() + s[J].sum() + 2 * r[J].sum()
    if terms > TERM_BUDGET:
        raise ComplexityCapExceeded(
            f"nested-sum evaluation needs {terms:.0f} term visits, over the cap {TERM_BUDGET}"
        )
    Ai, Aj = M.take(I), M.take(J)
    cover = union(Ai, Aj)
    if symmetric:
        AuN, AiNj, AiNjAj = M, cover, cover
    else:
        AuN = union(M, Mt)
        AiNj = union(Ai, Mt.take(J))
        AiNjAj = union(AiNj, Aj)

    l43 = l4**3
    lead = s**2 * l43
    pair_lead = s[I] * l43[J]
    w_an = AuN @ l4
    w_an.flags.writeable = False
    w_n = Mt @ l4
    lij = l4[I] * l4[J]
    d_pair = cover.tdot(lij)
    return {
        "b1a": float(np.sum(lead)),
        "b1b": dot(s, M @ l43),
        "t21": dot(lij, cover @ (l4 * w_an)),
        "t22": dot(lead, w_an),
        "t23_beta2": dot(pair_lead, AiNjAj @ l4),
        "t23_delta6": dot(pair_lead, AiNj @ l4),
        "t31": dot(lead, AuN @ (l4 * w_n)),
        "t32": dot(pair_lead, AiNj @ (l4 * w_n)),
        "t33": dot(lead, d_pair),
        "t34": dot(s, M @ (l43 * d_pair)),
        "w_an": w_an,
    }


def bound_general_beta(
    table: MomentTable,
    sys: NeighborhoodSystem,
    derived: DerivedNeighborhoods,
) -> BoundReport:
    """beta_1 + beta_2 + beta_3 with all nested sums evaluated literally
    over the stored neighborhood sets."""
    sigma = table.sigma
    raw = beta_sums(table.l4, sys, derived)
    beta1 = (raw["b1a"] + raw["b1b"]) / sigma**3
    beta2 = math.sqrt((raw["t21"] + raw["t22"] + raw["t23_beta2"]) / sigma**4)
    beta3 = math.sqrt((raw["t31"] + raw["t32"] + raw["t33"] + raw["t34"]) / sigma**5)
    return BoundReport(
        theorem="general_beta",
        value=beta1 + beta2 + beta3,
        terms={"beta1": beta1, "beta2": beta2, "beta3": beta3},
        inputs={"sigma": sigma, "n": sys.n},
    )


# ---------------------------------------------------------------------------
# Application shapes


def bound_graph(table: MomentTable, d: int) -> BoundReport:
    """Dependency-graph shapes in the maximal degree d."""
    sigma = table.sigma

    def shape(t2, e3, t3, t4, sigma2):
        s = math.sqrt(sigma2)
        term1 = d**2 * t3 / s**3
        term2 = d**1.5 * math.sqrt(t4 / s**4)
        lam1 = d * t2 / s**2
        return term1 + term2, {
            "third_moment": term1,
            "fourth_moment": term2,
            "lambda1": lam1,
            "self_normalized": lam1 * (term1 + term2),
        }

    return _report("graph", shape, norm_sums(table),
                   {"d": d, "sigma": sigma, "degenerate_degree": d == 0})


def bound_distributed_u(
    kernel_moments: KernelMoments, n_total: int, m: int, block_sizes: Sequence[int]
) -> BoundReport:
    """Distributed U-statistic shapes: the normalized-statistic shape,
    the variance-deviation bound, and their sum (the unnormalized shape)."""
    if any(b < m for b in block_sizes):
        raise BlockTooSmall(f"every block needs >= m={m} points, got {list(block_sizes)}")
    s1 = kernel_moments.sigma1
    normalized = (m / math.sqrt(n_total)) * (kernel_moments.l4 / s1) ** 3
    ratio_sum = float(sum(b / (b - m + 1) for b in block_sizes))
    var_dev = m * kernel_moments.var / (n_total * s1**2) * ratio_sum
    return BoundReport(
        theorem="distributed_u",
        value=normalized + var_dev,
        terms={
            "normalized": normalized,
            "variance_deviation": var_dev,
            "unnormalized": normalized + var_dev,
        },
        inputs={
            "N": n_total,
            "m": m,
            "k": len(block_sizes),
            "sigma1": s1,
            "h_l4": kernel_moments.l4,
            "block_ratio_sum": ratio_sum,
        },
    )


def bound_constrained_u(table: MomentTable, n: int, b: int) -> BoundReport:
    """Constrained U-statistic shapes in the growth exponent b.

    sigma_fd, the scale constant with Var = sigma_fd^2 n^{2b-1}
    asymptotically, is estimated as sigma_n / n^{b-1/2} from the table's
    sigma2, so the se propagates the uncertainty of sigma2 too.
    """
    sigma_fd = table.sigma / n ** (b - 0.5)

    def shape(t2, e3, t3, t4, sigma2):
        fd = math.sqrt(sigma2) / n ** (b - 0.5)
        term1 = n ** (-b - 0.5) / fd**3 * t3
        term2 = n ** (-b / 2 - 0.5) / fd**2 * math.sqrt(t4)
        scale = n ** (-b) / fd**2 * t2
        return term1 + term2, {
            "third_moment": term1,
            "fourth_moment": term2,
            "self_normalized_scale": scale,
            "self_normalized": scale * (term1 + term2),
        }

    return _report("constrained_u", shape, norm_sums(table), {"n": n, "b": b, "sigma_fd": sigma_fd})


def bound_decorated(table: MomentTable, n: int, v: int) -> BoundReport:
    """Decorated injective homomorphism shapes.

    Consistent with kappa = Theta(n^{v-2}), the powers are n^{2v-4} on the
    third-moment term, n^{3v-6} inside the root, and n^{v-2} in lambda_2;
    for edge probabilities independent of n both terms are O(1/n).
    Zero-variance decorations give zero shapes.
    """
    sums = norm_sums(table)
    if sums[0]["t2"] == 0.0 and sums[0]["e3"] == 0.0 and sums[0]["t4"] == 0.0:
        return BoundReport(
            theorem="decorated",
            value=0.0,
            terms={"third_moment": 0.0, "fourth_moment": 0.0, "lambda2": 0.0,
                   "self_normalized": 0.0},
            inputs={"n": n, "v": v, "degenerate": True},
        )
    sigma = table.sigma

    def shape(t2, e3, t3, t4, sigma2):
        s = math.sqrt(sigma2)
        term1 = n ** (2 * v - 4) * e3 / s**3
        term2 = math.sqrt(n ** (3 * v - 6) * t4 / s**4)
        lam2 = n ** (v - 2) * t2 / sigma2
        return term1 + term2, {
            "third_moment": term1,
            "fourth_moment": term2,
            "lambda2": lam2,
            "self_normalized": lam2 * (term1 + term2),
        }

    return _report("decorated", shape, sums, {"n": n, "v": v, "sigma": sigma})


def bound_distributed_general(
    block_l4: Sequence[np.ndarray],
    kappas: Sequence[int],
    taus: Sequence[int],
    sigma: float,
) -> BoundReport:
    """Per-block kappa/tau form of the distributed bound, from each block's
    ||X_ij||_4 in ``block_l4``:
    s^{-3} sum_i kappa_i^2 sum_j ||X_ij||_4^3
    + s^{-2} (sum_i (kappa_i^3 + kappa_i tau_i) sum_j ||X_ij||_4^4)^{1/2}."""
    if not sigma > 0:
        raise DegenerateVariance(f"sigma={sigma} must be positive")
    if not (len(block_l4) == len(kappas) == len(taus)):
        raise ValueError("need one (kappa, tau) pair per block")
    term1 = 0.0
    inner = 0.0
    for l4, k_i, t_i in zip(block_l4, kappas, taus):
        term1 += k_i**2 * float(np.sum(l4**3))
        inner += (k_i**3 + k_i * t_i) * float(np.sum(l4**4))
    term1 /= sigma**3
    term2 = math.sqrt(inner) / sigma**2
    return BoundReport(
        theorem="distributed_general",
        value=term1 + term2,
        terms={"third_moment": term1, "fourth_moment": term2},
        inputs={"sigma": sigma, "k": len(block_l4)},
    )


# ---------------------------------------------------------------------------
# Delta components for the concentration checkers


def reverse_set_of(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """N_A = {k : A_k & A != {}} as a bool mask over the rows of P, the
    dense 0/1 matrix of M (P[k, j] = 1 iff j in A_k): the rows that hit A,
    A given as a bool mask over the indices.  Stacked systems, P (k, n, n)
    with A (k, n), give one mask per system."""
    return (P * A[..., None, :]).any(axis=-1)


def interference_set_of(P: np.ndarray, in_na: np.ndarray) -> np.ndarray:
    """D_A = {(i, j) : j in A_i, A & (A_i | A_j) != {}} as a bool mask over
    P's entries, N_A given as the mask ``in_na`` (:func:`reverse_set_of`):
    under the union cover, the entries (i, j) of M with i or j in N_A.
    Stacked systems give one mask per system."""
    return (P > 0) & (in_na[..., :, None] | in_na[..., None, :])


def set_sums(
    P: np.ndarray,
    l4: np.ndarray,
    w_an: np.ndarray,
    in_a: np.ndarray,
    in_b: np.ndarray,
) -> list[dict[str, float]]:
    """Per induced system k of a stack (P the (k, n, n) dense 0/1
    matrices of M, symmetric; l4 and w_an (k, n), w_an the
    :func:`beta_sums` vector over A_j | N_j, which is N_j on an induced
    system), the sums over its test sets, given as the bool masks
    ``in_a[k]`` and ``in_b[k]``, that the delta components read:

        n_a   = sum_{j in N_A} ||X_j||_4     n_a_w = sum_{j in N_A} ||X_j||_4 w_an_j
        d_a   = sum_{(i,j) in D_A} ||X_i||_4 ||X_j||_4
        l4_b  = sum_{j in B} ||X_j||_4       w_b   = sum_{j in B} ||X_j||_4 w_an_j

    with the sizes ``size_a`` and ``size_b`` of A and B.  Each is one
    pairwise sum over its set, in index order (D_A in M's entry order), as
    :func:`neighborhood.dot` sums one system's products."""
    k = l4.shape[0]
    in_na, l4_w = reverse_set_of(P, in_a), l4 * w_an
    parts = {
        "n_a": (in_na, l4),
        "n_a_w": (in_na, l4_w),
        "d_a": (interference_set_of(P, in_na), l4[:, :, None] * l4[:, None, :]),
        "l4_b": (in_b, l4),
        "w_b": (in_b, l4_w),
    }
    out = [{"size_a": int(a), "size_b": int(b)}
           for a, b in zip(in_a.sum(axis=1).tolist(), in_b.sum(axis=1).tolist())]
    for name, (mask, values) in parts.items():
        picked = values[mask]  # system by system, in index (entry) order
        ends = np.cumsum(mask.reshape(k, -1).sum(axis=1)).tolist()
        for row, lo, hi in zip(out, [0, *ends[:-1]], ends):
            row[name] = float(np.add.reduce(picked[lo:hi]))
    return out


def delta_components_prop1(
    norms: Mapping[str, float],
    sets: Mapping[str, float],
    a: float,
    b: float,
    c: float,
    sums: Mapping[str, float],
) -> dict[str, float]:
    """delta_0..delta_7 of the randomized concentration inequality for
    S_A / sigma, evaluated literally over the neighborhood system:
    ``norms`` holds sigma2 (as :func:`norm_sums` names it), ``sets`` the
    instance's :func:`set_sums` and ``sums`` its :func:`beta_sums`."""
    if not sets["size_a"] or not sets["size_b"]:
        raise ValueError("A and B must be nonempty")
    if not (a <= b and c >= 1):
        raise ValueError("need a <= b and c >= 1")
    sigma = sigma_of(norms)
    delta = {
        "delta0": (b - a) / 100.0,
        "delta1": c / sigma * sets["n_a"],
        "delta2": c / sigma * sets["l4_b"],
        "delta3": c / sigma**2 * sets["w_b"],
        "delta4": c / sigma**2 * sets["d_a"],
        "delta5": c / sigma**3 * (sums["b1a"] + sums["b1b"]),
        "delta6": math.sqrt(c**2 / sigma**4 * (sums["t21"] + sums["t22"] + sums["t23_delta6"])),
        "delta7": math.sqrt(
            c**2 / sigma**5 * (sums["t31"] + sums["t32"] + sums["t33"] + sums["t34"])
        ),
    }
    return delta


def delta_components_prop2(
    norms: Mapping[str, float],
    kappa: int,
    tau: int,
    sets: Mapping[str, float],
    a: float,
    b: float,
    c: float,
) -> tuple[float, dict[str, float]]:
    """(lambda, delta_1..delta_4) of the self-normalized concentration
    inequality for S_A / Vbar_A, from the :func:`norm_sums` ``norms``, the
    system's kappa and tau and the instance's :func:`set_sums`."""
    if not sets["size_a"] or not sets["size_b"]:
        raise ValueError("A and B must be nonempty")
    if not (a <= b and c >= 1):
        raise ValueError("need a <= b and c >= 1")
    sigma = sigma_of(norms)
    lam = lam_scale(norms, kappa)
    main3, main4 = main_terms(norms["t3"], norms["t4"], sigma, kappa, tau)
    # sum over k in N_A and l in N_k | A_k of ||X_k||_4 ||X_l||_4
    d4_sq = lam**2 * c**2 / sigma**2 * sets["n_a_w"]
    delta = {
        "delta1": c / sigma * sets["l4_b"],
        "delta2": c * lam * sets["size_a"] ** 2 * main3,
        "delta3": c * lam * sets["size_a"] ** 0.5 * main4,
        "delta4": math.sqrt(d4_sq),
    }
    return lam, delta
