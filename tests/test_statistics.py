"""Statistic and counting-oracle tests.

Core claims:
    - the batch W1, W2 and clamped W2bar (with its psi clamp) match their
      definitions on hand-checked one-row inputs and against the scalar
      references kept here, with exact scale invariance of W2 and the
      |W2bar| <= 2|S|/sigma envelope
    - W2 and W2bar give the same bits on C- and F-ordered copies of one
      value matrix, and a replication's value does not depend on the other
      rows of its batch
    - the word / pattern / subgraph counters agree with exhaustive scans;
      the word counter also row by row over a (reps, n) letter array
    - the classical and distributed U-statistic oracles kept here, which
      the field tests read, match hand values
    - constrained-U and decorated field sums reproduce the counters
      exactly (integer equality) on sampled inputs
    - only ``statistics`` compares statistic names, no package module
      (``__init__``'s re-exports aside) imports a name it never reads,
      every option of a package function is passed by some call, every
      top-level package function is read outside its own body, and every
      top-level UPPER_CASE constant is read beyond its own assignment
"""

from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import locdep
import locdep.fields as F
import locdep.neighborhood as nb
import locdep.statistics as st
from locdep.errors import DegenerateVariance


def classical_u(data, kernel, m: int) -> float:
    """The plain U-statistic: the kernel's mean over all m-subsets."""
    arr = np.asarray(data, dtype=float)
    combos = np.asarray(list(itertools.combinations(range(arr.size), m)))
    return float(np.mean(kernel(*(arr[combos[:, j]] for j in range(m)))))


def distributed_u(blocks, kernel, m: int) -> float:
    """The blockwise average of per-block U-statistics, weighted n_i / N."""
    return sum(len(b) * classical_u(b, kernel, m) for b in blocks) / sum(map(len, blocks))


def iid_system(n: int) -> nb.NeighborhoodSystem:
    return nb.make_system([[i] for i in range(n)])


def one_row(x) -> np.ndarray:
    return np.asarray(x, dtype=float)[None, :]


def batch(name: str, X: np.ndarray, sys=None, sigma=None) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejection mask) of a statistic over a (reps, n) value
    matrix, through its parts: W1 and the sum read S = the row sums."""
    parts, rejected = st.statistic_parts(name, X if name in st.READS_VALUES else X.sum(axis=1), sys)
    return st.finish(name, parts, sigma), rejected


def w2bar(X: np.ndarray, sys, sigma: float) -> np.ndarray:
    return batch("w2bar", X, sys, sigma)[0]


def reference_w2(x: np.ndarray, sys) -> tuple[float, float | None]:
    """(V, W2) of one realization by the definition; W2 is None when V = 0."""
    y = sys.M @ x
    v = math.sqrt(max(float(x @ y) - x.size * float(x.mean()) * float(y.mean()), 0.0))
    return v, (float(x.sum()) / v if v > 0.0 else None)


def reference_w2bar(x: np.ndarray, sys, sigma: float) -> tuple[float, float]:
    """(Vbar, W2bar) of one realization by the definition."""
    q = float(x @ (sys.M @ x))
    vbar = math.sqrt(min(max(q, sigma * sigma / 4), 2 * sigma * sigma))
    return vbar, float(x.sum()) / vbar


def vbar_at(q: float, sigma: float) -> float:
    """Vbar at sum_i X_i Y_i = q, read off W2bar: X = (q, -q, 1) with
    A_0 = {2} and A_1, A_2 empty gives that sum with S = 1, so Vbar = 1 / W2bar."""
    sys = nb.make_system([[2], [], []])
    return 1.0 / w2bar(one_row([q, -q, 1.0]), sys, sigma)[0]


def test_sum_and_w1_examples():
    zeros = one_row(np.zeros(5))
    assert batch("sum", zeros)[0][0] == 0.0
    assert batch("w1", zeros, sigma=2.0)[0][0] == 0.0
    assert batch("sum", one_row([1.0, 1.0]))[0][0] == 2.0
    assert batch("w1", one_row([1.0, 1.0]), sigma=math.sqrt(2))[0][0] == pytest.approx(math.sqrt(2))
    x = np.array([0.5, -1.5, 2.0])
    s1, s2 = batch("sum", np.stack([x, -x]))[0]
    w1a, w1b = batch("w1", np.stack([x, -x]), sigma=3.0)[0]
    assert s2 == -s1 and w1b == -w1a
    for sigma in (0.0, None, math.nan):
        with pytest.raises(DegenerateVariance):
            batch("w1", one_row(x), sigma=sigma)


def test_parts_and_finish_by_name():
    """S in, for W1 and the sum, with nothing rejected; W2bar's parts are
    (S, sum_i X_i Y_i); only W1 and W2bar need sigma; an unknown name is
    refused."""
    s = np.array([3.0, -1.0, 0.0])
    for name in ("w1", "sum"):
        (part,), rejected = st.statistic_parts(name, s)
        assert part is s and not rejected.any()
    assert np.array_equal(st.finish("w1", (s,), 2.0), s / 2.0)
    assert st.finish("sum", (s,)) is s
    sys = iid_system(2)
    (S, xy), rejected = st.statistic_parts("w2bar", np.array([[1.0, 2.0], [0.0, 0.0]]), sys)
    assert S.tolist() == [3.0, 0.0] and xy.tolist() == [5.0, 0.0] and not rejected.any()
    # W2bar's parts do without sum Y, which index_sums then leaves unreduced
    assert st.index_sums(np.array([[1.0, 2.0]]), sys, need_y=False)[1] is None
    (w2,), rejected = st.statistic_parts("w2", np.array([[1.0, 2.0], [0.0, 0.0]]), sys)
    assert rejected.tolist() == [False, True] and np.isnan(w2[1])
    assert st.finish("w2", (w2,)) is w2
    assert st.NEEDS_SIGMA <= set(st.STATISTICS) and st.READS_VALUES <= set(st.STATISTICS)
    for name in st.NEEDS_SIGMA:
        with pytest.raises(DegenerateVariance):
            st.finish(name, (s, s))
    with pytest.raises(ValueError, match="unknown statistic"):
        st.statistic_parts("w3", s)


def statistic_name_comparisons(source: str) -> list[int]:
    """Lines of ==, !=, in and not in comparisons against a statistic-name
    literal, alone or in a tuple, list or set display."""
    names = set(st.STATISTICS)

    def named(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
        and any(named(e) for e in (node.left, *node.comparators))
    ]


def test_only_statistics_compares_statistic_names():
    """The facts about each statistic (its input, whether it rejects, how
    sigma finishes it) live in ``statistics``: no other module branches on
    a statistic's name."""
    package = Path(locdep.__file__).parent
    found = {p.name: statistic_name_comparisons(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert found.pop("statistics.py")  # the scan sees the owner's own branches
    assert not {name: lines for name, lines in found.items() if lines}
    assert statistic_name_comparisons('ok = s in ("w1", "sum") or s != "w2"') == [1, 1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` (``from
    __future__`` aside) that no name in the module reads."""
    tree = ast.parse(source)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read)


def test_src_modules_read_every_import():
    """No module of the package imports a name it does not use;
    ``__init__`` re-exports its imports."""
    package = Path(locdep.__file__).parent
    found = {p.name: unused_imports(p.read_text()) for p in sorted(package.glob("*.py"))
             if p.name != "__init__.py"}
    assert not {name: names for name, names in found.items() if names}
    snippet = "from __future__ import annotations\nimport os, a.b, sys as s\nfrom m import b, c\nc(os)"
    assert unused_imports(snippet) == ["a", "b", "s"]


def record_options(cls: ast.ClassDef) -> list[tuple[int, str]]:
    """(position, name) of each constructor field of a dataclass or
    NamedTuple that has a plain default: ``field(default_factory=...)``
    and ``init=False`` fields are not counted."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators) \
            and not any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases):
        return []
    out, k = [], 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        v = node.value
        is_field = isinstance(v, ast.Call) and getattr(v.func, "id", None) in ("field", "dc_field")
        kw = {w.arg: w.value for w in v.keywords} if is_field else None
        if kw is not None and getattr(kw.get("init"), "value", True) is False:
            continue
        if v is not None and (kw is None or "default" in kw):
            out.append((k, node.target.id))
        k += 1
    return out


def unpassed_options(def_sources: list[str], call_sources: list[str]) -> list[str]:
    """``name(param)`` for each parameter with a default, of a function
    defined in ``def_sources``, that no call of that name in
    ``call_sources`` passes: by keyword, by position or through ``*`` or
    ``**``.  A method's ``self`` is not counted, and ``__init__`` is
    called by its class's name.  A dataclass or NamedTuple field with a
    plain default (:func:`record_options`) is a parameter of its class's
    constructor, passed also where some call source assigns it as an
    attribute."""
    calls: dict[str, list[ast.Call]] = {}
    assigned: set[str] = set()
    for source in call_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)

    def passes(call: ast.Call, param: str, k: int | None) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        return k is not None and (
            len(call.args) > k or any(isinstance(a, ast.Starred) for a in call.args[:k + 1])
        )

    found = []
    for source in def_sources:
        tree = ast.parse(source)
        owner = {id(fn): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for fn in c.body}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.ClassDef):
                found += [f"{fn.name}({p})" for k, p in record_options(fn)
                          if p not in assigned
                          and not any(passes(c, p, k) for c in calls.get(fn.name, []))]
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = (a.posonlyargs + a.args)[1 if id(fn) in owner else 0:]
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            options = list(enumerate(positional))[len(positional) - len(a.defaults):]
            options += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{name}({p.arg})" for k, p in options
                      if not any(passes(c, p.arg, k) for c in calls.get(name, []))]
    return sorted(found)


def test_src_options_are_each_passed_somewhere():
    """Every parameter with a default, of every function of the package,
    and every defaulted field of its dataclasses and NamedTuples, is passed
    by some call in the package or in ``perfbench/``: an option that only
    ever takes its default, or that only the tests pass, is dead code."""
    package = Path(locdep.__file__).parent
    src = [p.read_text() for p in sorted(package.glob("*.py"))]
    bench = [p.read_text() for p in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))]
    assert unpassed_options(src, src + bench) == []
    defs = ("def f(a, b=1, *, c=2, d=3): pass\ndef g(a=0): pass\n"
            "class K:\n    def __init__(self, x=0): pass\n    def m(self, y=0): pass\n"
            "@dataclass\nclass D:\n    a: int\n    b: int = 0\n    c: list = field(default_factory=list)\n"
            "    d: int = field(init=False)\n    e: int = 1\n    h: int = 2\n")
    calls = "f(1, 2, d=4)\ng(*args)\nK(5)\nk.m()\nD(1, 2, [], 3)\nrec.h = 4"
    assert unpassed_options([defs], [calls]) == ["f(c)", "m(y)"]
    assert unpassed_options([defs], [calls.replace("[], 3", "[]")]) == ["D(e)", "f(c)", "m(y)"]


def unread_functions(def_sources: list[str], read_sources: list[str]) -> list[str]:
    """The top-level functions defined in ``def_sources`` that no code of
    ``read_sources`` reads, by name or as an attribute, outside the
    function's own body.  An import is not a read, so ``__init__``'s
    re-export of a function does not count."""
    defined = [fn for source in def_sources for fn in ast.parse(source).body
               if isinstance(fn, ast.FunctionDef)]
    everywhere = [name for source in read_sources for name in loaded_names(ast.parse(source))]
    return sorted(fn.name for fn in defined
                  if everywhere.count(fn.name) <= loaded_names(fn).count(fn.name))


def loaded_names(tree: ast.AST) -> list[str]:
    """Every name that ``tree`` reads, by name or as an attribute."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


def test_src_functions_are_each_read_somewhere():
    """Every top-level function of the package is read by the package or
    by ``perfbench/``, beyond its own def and ``__init__``'s re-export: a
    helper that a refactor left without a caller is dead code."""
    package = Path(locdep.__file__).parent
    src = [p.read_text() for p in sorted(package.glob("*.py"))]
    bench = [p.read_text() for p in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))]
    assert unread_functions(src, src + bench) == []
    defs = "def f(): pass\ndef g(n): return g(n - 1)\ndef h(): pass\nclass K:\n    def m(self): pass\n"
    reads = defs + "from .x import g, h\nf()\nk.h\n"
    assert unread_functions([defs], [reads]) == ["g"]
    assert unread_functions([defs], [reads.replace("k.h", "k.h = 1")]) == ["g", "h"]


def unread_classes(def_sources: list[str], read_sources: list[str]) -> list[str]:
    """The top-level classes defined in ``def_sources`` that no code of
    ``read_sources`` reads, by name or as an attribute, outside the
    class's own body.  An import is not a read."""
    defined = [cls for source in def_sources for cls in ast.parse(source).body
               if isinstance(cls, ast.ClassDef)]
    everywhere = [name for source in read_sources for name in loaded_names(ast.parse(source))]
    return sorted(cls.name for cls in defined
                  if everywhere.count(cls.name) <= loaded_names(cls).count(cls.name))


def test_src_classes_are_each_read_somewhere():
    """Every top-level class of the package is read by the package or by
    ``perfbench/``, beyond its own body and ``__init__``'s re-export: a
    record that a refactor left without a builder or a reader is dead
    code."""
    package = Path(locdep.__file__).parent
    src = [p.read_text() for p in sorted(package.glob("*.py"))]
    bench = [p.read_text() for p in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))]
    assert unread_classes(src, src + bench) == []
    defs = ("class K:\n    pass\nclass L:\n    def m(self) -> L: return L()\n"
            "class J(K):\n    pass\ndef f(): pass\n")
    reads = defs + "from .x import J, L\nx: J = f()\n"
    assert unread_classes([defs], [reads]) == ["L"]
    assert unread_classes([defs], [reads.replace("x: J", "x")]) == ["J", "L"]


def unread_constants(def_sources: list[str], read_sources: list[str]) -> list[str]:
    """The top-level UPPER_CASE names assigned in ``def_sources`` that no
    code of ``read_sources`` reads, by name or as an attribute, beyond
    their own assignment.  An import is not a read."""
    assigned = [(node, target.id) for source in def_sources for node in ast.parse(source).body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in ast.walk(ast.Tuple(
                    elts=node.targets if isinstance(node, ast.Assign) else [node.target]))
                if isinstance(target, ast.Name) and target.id.isupper()]
    everywhere = [name for source in read_sources for name in loaded_names(ast.parse(source))]
    return sorted(name for node, name in assigned
                  if everywhere.count(name) <= loaded_names(node).count(name))


def test_src_constants_are_each_read_somewhere():
    """Every top-level UPPER_CASE constant of the package is read by the
    package or by ``perfbench/``, beyond its own assignment: a constant
    that a refactor left without a reader is dead code."""
    package = Path(locdep.__file__).parent
    src = [p.read_text() for p in sorted(package.glob("*.py"))]
    bench = [p.read_text() for p in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))]
    assert unread_constants(src, src + bench) == []
    defs = "A, B = 1, 2\n_C: int = 3\nD = D_OLD = 4\nlower = 5\ndef f():\n    E = 6\n"
    reads = defs + "from .x import B\nf(A)\nm.D_OLD\nm.D = 7\n"
    assert unread_constants([defs], [reads]) == ["B", "D", "_C"]


def test_w2_zero_field_rejected():
    sys = iid_system(3)
    w2, rejected = st.w2_batch(one_row(np.zeros(3)), sys)
    assert rejected[0] and np.isnan(w2[0])  # rejected exactly when V = 0


def test_w2_iid_reduces_to_centered_second_moment():
    rng = np.random.default_rng(3)
    sys = iid_system(6)
    X = rng.normal(size=(20, 6))
    w2, rejected = st.w2_batch(X, sys)
    for x, w, rej in zip(X, w2, rejected):
        v2_direct = max(np.sum(x**2) - 6 * x.mean() ** 2, 0.0)
        assert not rej
        assert x.sum() / w == pytest.approx(math.sqrt(v2_direct), abs=1e-12)  # V = S / W2
        assert w == pytest.approx(x.sum() / math.sqrt(v2_direct))


def test_w2_scale_invariance():
    rng = np.random.default_rng(4)
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    for _ in range(20):
        x = one_row(rng.normal(size=6))
        w2, rejected = st.w2_batch(x, sys)
        w2c, _ = st.w2_batch(3.7 * x, sys)
        if not rejected[0]:
            assert w2c[0] == pytest.approx(w2[0], rel=1e-14)


def test_psi_clamp_examples():
    assert vbar_at(0.0, 2.0) == 1.0
    assert vbar_at(100.0, 2.0) == pytest.approx(math.sqrt(8))
    assert vbar_at(3.0, 2.0) == pytest.approx(math.sqrt(3))
    xs = np.linspace(-5, 50, 200)
    vals = [vbar_at(float(x), 2.0) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert min(vals) >= 1.0 and max(vals) <= math.sqrt(8) + 1e-15


def test_w2bar_examples_and_envelope():
    sys = iid_system(4)
    # all zeros: sum X_i Y_i = 0, so Vbar = sigma / 2
    assert w2bar(one_row(np.zeros(4)), sys, 2.0)[0] == 0.0
    assert vbar_at(0.0, 2.0) == 1.0
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    sigma = 1.3
    for x, w in zip(X, w2bar(X, sys, sigma)):
        assert abs(w) <= 2 * abs(x.sum()) / sigma + 1e-12
    # interior fixed point: sum X_i Y_i == sigma^2
    x = one_row([1.0, 1.0, 1.0, 1.0])
    assert x.sum() / w2bar(x, sys, 2.0)[0] == pytest.approx(2.0)


def test_w2_batches_ignore_layout_and_batch():
    f = F.build_m_dependent(50, 1, F.ContinuousSource("normal"))
    sys = F.induced_neighborhoods(f)
    X = F.evaluate_values(f, F.draw_source_rows(f, 8, range(200)))
    C, Fo = np.ascontiguousarray(X), np.asfortranarray(X)
    w2, rejected = st.w2_batch(C, sys)
    w2_f, rejected_f = st.w2_batch(Fo, sys)
    assert np.array_equal(w2, w2_f) and np.array_equal(rejected, rejected_f)
    assert np.array_equal(st.w2_batch(C[50:123], sys)[0], w2[50:123])
    w2bar_c = w2bar(C, sys, 7.0)
    assert np.array_equal(w2bar_c, w2bar(Fo, sys, 7.0))
    assert np.array_equal(w2bar(Fo[7:8], sys, 7.0), w2bar_c[7:8])


def brute_word_count(s, w, gaps, exact=False):
    n, l = len(s), len(w)
    count = 0
    for tup in itertools.combinations(range(n), l):
        ok = all(s[t] == w[k] for k, t in enumerate(tup))
        for k in range(l - 1):
            d = gaps[k]
            g = tup[k + 1] - tup[k]
            if d is not None:
                ok = ok and (g == d if exact else g <= d)
        if ok:
            count += 1
    return count


def test_word_counter_examples():
    assert F.count_word_occurrences("abab", "ab", [None]) == 3
    assert F.count_word_occurrences("abab", "ab", [1]) == 2
    assert F.count_word_occurrences("ab", "aaa", [None, None]) == 0
    assert F.count_word_occurrences("abab", "ab", [3], exact_gaps=True) == 1
    # a gap below 1 admits no next letter, bounded or exact
    for exact in (False, True):
        assert F.count_word_occurrences("abab", "ab", [-1], exact_gaps=exact) == 0
        assert F.count_word_occurrences("aaaa", "aa", [0], exact_gaps=exact) == 0


def test_word_counter_random_vs_brute():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        s = rng.integers(0, 2, size=n).tolist()
        l = int(rng.integers(1, 4))
        w = rng.integers(0, 2, size=l).tolist()
        gaps = [None if rng.random() < 0.5 else int(rng.integers(1, 4)) for _ in range(l - 1)]
        exact = bool(rng.random() < 0.3)
        assert F.count_word_occurrences(s, w, gaps, exact_gaps=exact) == brute_word_count(
            s, w, gaps, exact
        )


# (alphabet, n, word, gaps, exact_gaps): the counter over a (reps, n) letter array
BATCH_WORD_CASES = {
    "infinite_gap": (3, 9, [0, 1], [None], False),
    "finite_gaps": (3, 10, [1, 0, 1], [2, 3], False),
    "exact_gaps": (3, 10, [0, 1, 1], [2, None], True),
    "one_letter": (2, 8, [1], [], False),
    "n_is_word_length": (2, 3, [0, 1, 0], [1, None], False),
    "n_is_exact_word_length": (2, 3, [0, 1, 0], [1, 1], True),
    "gap_at_least_n": (3, 6, [1, 0], [6], False),
    "exact_gap_at_least_n": (3, 6, [1, 0], [7], True),
    "word_longer_than_n": (2, 2, [0, 1, 0], [None, None], False),
    "gap_zero": (2, 7, [0, 0], [0], False),
    "negative_gap": (2, 7, [0, 1], [-1], False),
    "gap_below_minus_n": (2, 5, [1, 1, 0], [None, -9], False),
    "exact_gap_zero": (2, 7, [0, 0], [0], True),
    "exact_negative_gap": (3, 7, [1, 0, 1], [2, -3], True),
    "exact_gap_below_minus_n": (2, 5, [0, 0], [-6], True),
}


@pytest.mark.parametrize("k, n, word, gaps, exact", BATCH_WORD_CASES.values(),
                         ids=BATCH_WORD_CASES.keys())
def test_batched_word_counts_match_brute_force_row_by_row(k, n, word, gaps, exact):
    # every letter string over k letters, or 200 random ones when there
    # are more, one string per row
    strings = np.array(list(itertools.product(range(k), repeat=n)))
    if len(strings) > 200:
        strings = strings[np.random.default_rng(n).choice(len(strings), 200, replace=False)]
    counts = F.count_word_occurrences(strings, word, gaps, exact_gaps=exact)
    assert counts.dtype == np.int64 and counts.shape == (len(strings),)
    want = [brute_word_count(s.tolist(), word, gaps, exact) for s in strings]
    assert counts.tolist() == want
    assert F.count_word_occurrences(strings[0], word, gaps, exact_gaps=exact) == want[0]


def test_pattern_counter_examples():
    assert st.count_pattern_occurrences([3, 2, 1], [2, 1], [None]) == 3
    assert st.count_pattern_occurrences([1, 2, 3, 4], [2, 1], [None]) == 0
    assert st.count_pattern_occurrences([2, 3, 1], [2, 3, 1], [None, None]) == 1


def test_subgraph_statistic_examples(monkeypatch):
    k4 = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    inj, copies = st.subgraph_statistic(k4, [(0, 1), (0, 2), (1, 2)])
    assert (inj, copies) == (24, 4)
    monkeypatch.setattr(st, "INJECTION_CAP", 10)
    with pytest.raises(Exception) as exc:
        st.subgraph_statistic(k4, [(0, 1), (0, 2), (1, 2)])
    assert "cap" in str(exc.value)
    monkeypatch.undo()
    tri = np.zeros((3, 3), dtype=int)
    for a, b in [(0, 1), (1, 2), (0, 2)]:
        tri[a, b] = tri[b, a] = 1
    assert st.subgraph_statistic(tri, [(0, 1)]) == (6, 3)
    empty = np.zeros((4, 4), dtype=int)
    assert st.subgraph_statistic(empty, [(0, 1), (0, 2), (1, 2)]) == (0, 0)
    assert st.automorphism_count([(0, 1), (0, 2), (1, 2)]) == 6
    assert st.automorphism_count([(0, 1)]) == 2


def test_word_field_sum_equals_counter():
    f = F.build_word_field([0, 1], 7, 2, [2])
    rows = F.draw_source_rows(f, 31, range(10))
    x = F.evaluate_values(f, rows) + f.means
    for r in range(10):
        direct = F.count_word_occurrences(rows[r].astype(int).tolist(), [0, 1], [2])
        assert int(round(x[r].sum())) == direct


def test_pattern_field_sum_equals_counter():
    f = F.build_pattern_field(7, [2, 1], [None])
    rows = F.draw_source_rows(f, 32, range(10))
    x = F.evaluate_values(f, rows) + f.means
    for r in range(10):
        perm = (np.argsort(np.argsort(rows[r])) + 1).tolist()
        direct = st.count_pattern_occurrences(perm, [2, 1], [None])
        assert int(round(x[r].sum())) == direct


def test_decorated_field_sum_equals_injective_count():
    f = F.build_decorated_graph_field(5, [(0, 1), (0, 2), (1, 2)], F.bernoulli(0.5))
    rows = F.draw_source_rows(f, 33, range(8))
    x = F.evaluate_values(f, rows) + f.means
    triu = np.triu_indices(5, k=1)
    for r in range(8):
        adj = np.zeros((5, 5), dtype=int)
        adj[triu] = rows[r].astype(int)
        adj += adj.T
        inj, _ = st.subgraph_statistic(adj, [(0, 1), (0, 2), (1, 2)])
        assert int(round(x[r].sum())) == inj


def test_u_statistic_hand_values():
    assert classical_u([1, 2, 3, 4], lambda x, y: x * y, 2) == pytest.approx(35 / 6)
    u_d = distributed_u([[1, 2], [3, 4]], lambda x, y: x * y, 2)
    assert u_d == pytest.approx(7.0)


def test_batch_statistics_match_scalar():
    f = F.build_m_dependent(6, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(16, 6))
    w2s, rej = st.w2_batch(X, sys)
    w2bars = w2bar(X, sys, 2.0)
    for r in range(16):
        v, w2 = reference_w2(X[r], sys)
        if w2 is None:
            assert rej[r]
        else:
            assert w2s[r] == pytest.approx(w2, rel=1e-12)
        _, w2b = reference_w2bar(X[r], sys, 2.0)
        assert w2bars[r] == pytest.approx(w2b, rel=1e-12)


def test_statistic_value_bundle():
    """The statistics of one replication: W1 = S / sigma, W2 = S / V or a
    rejection, Vbar within its clamp and W2bar = S / Vbar."""
    f = F.build_m_dependent(5, 1, F.rademacher())
    sys = F.induced_neighborhoods(f)
    import locdep.moments as M

    t = M.exact_moment_table(f)
    x = F.evaluate_values(f, F.draw_source_rows(f, 77, [0]))
    s = float(x.sum())
    v, w2_ref = reference_w2(x[0], sys)
    vbar, _ = reference_w2bar(x[0], sys, t.sigma)
    assert batch("w1", x, sigma=t.sigma)[0][0] == pytest.approx(s / t.sigma)
    w2, rejected = st.w2_batch(x, sys)
    assert rejected[0] == (w2_ref is None)
    assert sys is not None and (rejected[0] or w2[0] == pytest.approx(s / v))
    assert t.sigma / 2 <= vbar <= math.sqrt(2) * t.sigma
    assert w2bar(x, sys, t.sigma)[0] == pytest.approx(s / vbar)
