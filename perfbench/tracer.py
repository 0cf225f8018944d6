"""Outside-in tracer for the nlie layers.

The tracer times the package from outside: it replaces a public function
with a wrapper at every module binding that holds it (``nlie.cli.cohomology``
as well as ``nlie.cohomology.cohomology``), records one span per outermost
call, and puts every original back on ``close()``.  Nothing inside ``src/``
is touched.

Every traced name gets ``calls``, ``busy_s`` and ``self_s``.  Self time is
busy time minus the part of it covered by wrapped children; a child covers
its own instrumentation too, so counter bookkeeping never lands in the
parent's self time.  A call of a traced name made while the same name is
already running (``path_from_json`` calling ``algebra_from_json``, both
under ``io.parse``) passes straight through and is counted once, by the
outer call.

Counters are deterministic work counts (matrix shapes, nonzeros, ranks,
bit lengths, keys, tuples); ratios are formed from their sums when the
metrics are read.  The layer is single-threaded with no queues, so there
are no wait times to record.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional

_MARK = "__perfbench_original__"


class Stat:
    __slots__ = ("calls", "busy", "self_", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)


# ------------------------------------------------------------- counters

def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_matrix(st: Stat, mat) -> None:
    st.add("rows", mat.rows)
    st.add("cols", mat.cols)
    st.add("nnz", _nnz(mat.entries))
    st.add("cells", mat.rows * mat.cols)


def _count_bracket_eval(tr: "Tracer", st: Stat, args, kwargs, result) -> None:
    alg, vecs = args[0], args[1]
    st.add("tuples", alg.dim ** alg.arity)
    st.add("useful", math.prod(sum(1 for c in v if c) for v in vecs))


def _count_cochain_product(tr, st: Stat, args, kwargs, result) -> None:
    d = result
    if d.degree == 0:
        keys = d.dim
    else:
        keys = math.comb(d.dim, d.arity - 1) ** (d.degree - 1) \
            * math.comb(d.dim, d.arity)
    st.add("keys", keys)
    st.add("nonzero", len(d.entries))


def _structure_key(alg) -> tuple:
    return (alg.arity, alg.dim, tuple(sorted(alg.structure.items())))


def _count_differential(tr: "Tracer", st: Stat, args, kwargs, result) -> None:
    _count_matrix(st, result)
    pair = (_structure_key(args[0]), args[1])
    if pair not in tr.job_pairs:
        tr.job_pairs.add(pair)
        st.add("distinct", 1)


def _count_rank(tr, st: Stat, args, kwargs, result) -> None:
    mat = args[0]
    _count_matrix(st, mat)
    st.add("rank", result.rank)
    scaled = 0
    for row in mat.entries:
        mult = math.lcm(*(x.denominator for x in row)) if row else 1
        for x in row:
            if x:
                scaled = max(scaled, (x.numerator * (mult // x.denominator))
                             .bit_length())
    st.high("input_bits", scaled)
    st.high("nullspace_bits", max((_bits(x) for v in result.nullspace
                                   for x in v), default=0))


def _count_solve(tr, st: Stat, args, kwargs, result) -> None:
    st.add("solved", 1 if result is not None else 0)


def _count_load(tr, st: Stat, args, kwargs, result) -> None:
    try:
        st.add("bytes", os.path.getsize(args[0]))
    except OSError:
        pass


def _count_render(tr, st: Stat, args, kwargs, result) -> None:
    st.add("bytes", len(result.encode()))


# What is traced: metric name -> (module, attribute names, counter).  A
# class attribute is written "Class.method".
def _targets() -> list[tuple[str, str, list[str], Optional[Callable]]]:
    io = importlib.import_module("nlie.io")
    parse = sorted(n for n in vars(io) if n.endswith("_from_json"))
    encode = sorted(n for n in vars(io) if n.endswith("_to_json"))
    encode.append("report_value")
    return [
        ("cli.main", "nlie.cli", ["main"], None),
        ("cli.render", "nlie.cli", ["Report.render"], _count_render),
        ("io.load", "nlie.io", ["load_document"], _count_load),
        ("io.parse", "nlie.io", parse, None),
        ("io.encode", "nlie.io", encode, None),
        ("algebra.bracket_eval", "nlie.algebra", ["bracket_eval"],
         _count_bracket_eval),
        ("algebra.check_fundamental_identity", "nlie.algebra",
         ["check_fundamental_identity"], None),
        ("algebra.check_o_operator", "nlie.algebra", ["check_o_operator"],
         None),
        ("cochains.gla_bracket", "nlie.cochains", ["gla_bracket"],
         _count_cochain_product),
        ("cochains.circle", "nlie.cochains", ["circle"],
         _count_cochain_product),
        ("cohomology.differential_matrix", "nlie.cohomology",
         ["differential_matrix"], _count_differential),
        ("linalg.rank_nullspace", "nlie.linalg", ["rank_nullspace"],
         _count_rank),
        ("linalg.solve_linear", "nlie.linalg", ["solve_linear"],
         _count_solve),
        ("chevalley.ce_differential_matrix", "nlie.chevalley",
         ["ce_differential_matrix"], None),
    ] + [
        (f"deformations.{name}", "nlie.deformations", [name], None)
        for name in ("nijenhuis_bracket", "check_nijenhuis",
                     "conjugate_path", "rigidity_probe", "extend",
                     "obstruction", "check_deformation", "o_operator_lift")
    ] + [
        (f"algebroid.{name}", "nlie.algebroid", [name], None)
        for name in ("section_bracket", "anchor_eval",
                     "check_algebroid_axioms", "check_symbol_leibniz")
    ]


def _nlie_namespaces() -> list[Any]:
    """Every module of the package plus the classes defined in it."""
    spaces = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "nlie" or name.startswith("nlie.")):
            continue
        spaces.append(mod)
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__ == name:
                spaces.append(val)
    return spaces


class Tracer:
    """Install with ``Tracer()``; read ``stats``/``spans``; ``close()``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.job: Optional[str] = None
        self.job_pairs: set = set()
        self._stack: list[list] = []
        self._running: set[str] = set()
        self._patched: list[tuple[Any, str, Any]] = []
        targets = _targets()
        for _, modname, _, _ in targets:  # load every binding first
            importlib.import_module(modname)
        spaces = _nlie_namespaces()
        for metric, modname, attrs, counter in targets:
            self.stats[metric] = Stat()
            mod = sys.modules[modname]
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                home = getattr(mod, owner) if owner else mod
                original = vars(home)[leaf]
                wrapper = self._wrap(metric, original, counter)
                for space in spaces:
                    for name, val in list(vars(space).items()):
                        if val is original:
                            setattr(space, name, wrapper)
                            self._patched.append((space, name, original))

    def start_job(self, name: str) -> None:
        self.job = name
        self.job_pairs = set()

    def _wrap(self, metric: str, original: Callable,
              counter: Optional[Callable]) -> Callable:
        stat = self.stats[metric]
        stack, running, spans = self._stack, self._running, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if metric in running:
                return original(*args, **kwargs)
            running.add(metric)
            frame = [0.0, len(spans)]
            parent = stack[-1] if stack else None
            stack.append(frame)
            spans.append(None)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                running.discard(metric)
                stat.calls += 1
                stat.busy += t1 - t0
                stat.self_ += t1 - t0 - frame[0]
                spans[frame[1]] = (frame[1], parent[1] if parent else None,
                                   metric, t0, t1, self.job)
                if parent is not None:
                    parent[0] += t1 - t0
            if counter is not None:
                t2 = perf_counter()
                counter(self, stat, args, kwargs, result)
                if parent is not None:
                    parent[0] += perf_counter() - t2
            return result

        setattr(wrapper, _MARK, original)
        return wrapper

    def close(self) -> list[str]:
        """Put every original back; return a list of bindings that did not
        come back (empty when the restore is complete)."""
        for space, name, original in reversed(self._patched):
            setattr(space, name, original)
        problems = [f"{getattr(space, '__name__', space)}.{name} not "
                    f"restored" for space, name, original in self._patched
                    if vars(space).get(name) is not original]
        for space in _nlie_namespaces():
            for name, val in vars(space).items():
                if hasattr(val, _MARK):
                    problems.append(f"{space.__name__}.{name} still wrapped")
        return problems

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each with its unit."""
        out: dict[str, tuple[float, str]] = {}
        for metric, st in self.stats.items():
            out[f"{metric}.calls"] = (st.calls, "count")
            out[f"{metric}.busy_s"] = (st.busy, "s")
            out[f"{metric}.self_s"] = (st.self_, "s")
            ex = st.extra
            if metric == "cohomology.differential_matrix":
                for key in ("rows", "cols", "nnz"):
                    out[f"{metric}.{key}"] = (ex.get(key, 0), "count")
                out[f"{metric}.density"] = (
                    _ratio(ex.get("nnz", 0), ex.get("cells", 0)), "ratio")
                out[f"{metric}.repeat_ratio"] = (
                    _ratio(ex.get("distinct", 0), st.calls), "ratio")
            elif metric in ("cochains.gla_bracket", "cochains.circle"):
                out[f"{metric}.keys"] = (ex.get("keys", 0), "count")
                out[f"{metric}.nonzero_ratio"] = (
                    _ratio(ex.get("nonzero", 0), ex.get("keys", 0)), "ratio")
            elif metric == "linalg.rank_nullspace":
                for key in ("rows", "cols", "nnz", "rank"):
                    out[f"{metric}.{key}"] = (ex.get(key, 0), "count")
                for key in ("input_bits", "nullspace_bits"):
                    out[f"{metric}.{key}"] = (ex.get(key, 0), "bits")
            elif metric == "linalg.solve_linear":
                out[f"{metric}.solved_ratio"] = (
                    _ratio(ex.get("solved", 0), st.calls), "ratio")
            elif metric == "algebra.bracket_eval":
                out[f"{metric}.tuples"] = (ex.get("tuples", 0), "count")
                out[f"{metric}.useful_ratio"] = (
                    _ratio(ex.get("useful", 0), ex.get("tuples", 0)),
                    "ratio")
            elif metric in ("io.load", "cli.render"):
                out[f"{metric}.bytes"] = (ex.get("bytes", 0), "bytes")
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, name, t0, t1, job = span
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "job": job,
                                     "start": t0, "end": t1}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
