"""Spans around the public calls of each fatmagnus layer.

``Tracer.install`` wraps every target and rebinds the wrapper wherever
the package looks the name up: on its class for methods, and in every
module whose globals hold the original object (``magnus`` imports
``exp_t`` from ``algebra``, ``johnson`` imports ``get_table`` from
``magnus``, and so on).  Spans are kept in memory as flat arrays and
reduced to per-layer metrics at the end.
"""

from __future__ import annotations

from array import array
from types import ModuleType

from fatmagnus import algebra, cocycle, fatgraph, johnson, magnus

MODULES = (algebra, fatgraph, magnus, johnson, cocycle)

# (layer, owner, attribute, metric name); metric names read
# <layer>.<function>.<counter>
TARGETS = [
    ("fatgraph", fatgraph, "whitehead", "whitehead"),
    ("fatgraph", fatgraph.MarkedFatgraph, "__init__", "MarkedFatgraph.init"),
    ("magnus", magnus, "get_table", "get_table"),
    ("magnus", magnus.MagnusTable, "__init__", "MagnusTable.init"),
    ("magnus", magnus.MagnusTable, "ell", "MagnusTable.ell"),
    ("algebra", algebra.TruncatedTensor, "__mul__", "TruncatedTensor.mul"),
    ("algebra", algebra.TruncatedTensor, "__add__", "TruncatedTensor.add"),
    ("algebra", algebra.TruncatedTensor, "scaled", "TruncatedTensor.scaled"),
    ("algebra", algebra.TruncatedTensor, "bracket", "TruncatedTensor.bracket"),
    ("algebra", algebra, "exp_t", "exp_t"),
    ("algebra", algebra, "log_t", "log_t"),
    ("algebra", algebra, "hausdorff_tail", "hausdorff_tail"),
    ("algebra", algebra, "is_lie", "is_lie"),
    ("algebra", algebra.IAMap, "apply", "IAMap.apply"),
    ("algebra", algebra.IAMap, "compose", "IAMap.compose"),
    ("johnson", johnson, "tau_move", "tau_move"),
    ("johnson", johnson.GradedTau, "__init__", "GradedTau.init"),
    ("johnson", johnson, "ia_between", "ia_between"),
    ("johnson", johnson, "tau_path", "tau_path"),
    ("cocycle", cocycle.H2Element, "__init__", "H2Element.init"),
    ("cocycle", cocycle, "bar_project", "bar_project"),
    ("cocycle", cocycle, "varpi", "varpi"),
    ("cocycle", cocycle, "morita_pair", "morita_pair"),
    ("cocycle", cocycle, "j2", "j2"),
    ("cocycle", cocycle, "j2_compose", "j2_compose"),
]

# counters that mean nothing for a target: setup-time graph building has
# no tensor output, is_lie returns a bool, get_table hands back a table
NO_TERMS = {"fatgraph.whitehead", "fatgraph.MarkedFatgraph.init",
            "algebra.is_lie", "magnus.get_table"}


def count_terms(obj) -> int:
    """Nonzero terms in the tensors an object holds, via public terms()."""
    if isinstance(obj, algebra.TruncatedTensor):
        return sum(1 for _ in obj.terms())
    if isinstance(obj, (list, tuple)):
        return sum(count_terms(x) for x in obj)
    if isinstance(obj, dict):
        return sum(count_terms(x) for x in obj.values())
    if isinstance(obj, johnson.MoveTau):
        return count_terms(obj.tau)
    if isinstance(obj, johnson.GradedTau):
        return count_terms(obj.values)
    if isinstance(obj, algebra.IAMap):
        return count_terms(obj.corrections)
    if isinstance(obj, cocycle.H2Element):
        return count_terms(obj.components)
    if isinstance(obj, cocycle.J2Value):
        return count_terms(obj.s) + sum(1 for _ in obj.xi.terms())
    if isinstance(obj, magnus.MagnusTable):
        ell = getattr(magnus.MagnusTable.ell, "__wrapped__",
                      magnus.MagnusTable.ell)
        return sum(count_terms(ell(obj, h))
                   for h in obj.mg.graph.half_edges)
    return 0


class Tracer:
    """Collects one span per wrapped call while ``on`` is set.

    Counting a result's terms happens outside the clock: the time it takes
    is added to ``paused`` and subtracted from every later reading, so no
    span, open or closed, is charged for it.
    """

    def __init__(self, clock):
        self._clock = clock
        self.paused = 0.0
        self.on = False
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.terms = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return self._clock() - self.paused

    def _wrap(self, name: str, fn, init: bool):
        nid = len(self.names)
        self.names.append(name)
        count = name not in NO_TERMS

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.terms.append(0)
            self._stack.append(idx)
            self.start.append(self.now())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = self.now()
                self._stack.pop()
            if count:
                t0 = self._clock()
                self.terms[idx] = count_terms(args[0] if init else out)
                self.paused += self._clock() - t0
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, owner, attr, short in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{layer}.{short}", orig, attr == "__init__")
            homes = MODULES if isinstance(owner, ModuleType) else (owner,)
            for home in homes:
                for key, val in list(vars(home).items()):
                    if val is orig:
                        self._undo.append((home, key, orig))
                        setattr(home, key, wrapped)

    def uninstall(self) -> None:
        for home, key, orig in reversed(self._undo):
            setattr(home, key, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """calls, self_s and terms_out per target; get_table hit counts."""
        n = len(self.start)
        child = [0.0] * n
        has_build = bytearray(n)
        build = self.names.index("magnus.MagnusTable.init")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name_id[i] == build:
                    has_build[p] = 1
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        terms = [0] * len(self.names)
        hits = 0
        get_table = self.names.index("magnus.get_table")
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
            terms[k] += self.terms[i]
            if k == get_table and not has_build[i]:
                hits += 1
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            if name not in NO_TERMS:
                out[f"{name}.terms_out"] = terms[k]
        out["magnus.get_table.hits"] = hits
        out["magnus.get_table.hit_ratio"] = hits / calls[get_table] \
            if calls[get_table] else 0.0
        out["trace.spans"] = n
        return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("hit_ratio"):
        return "ratio"
    return "count"
