"""Magnus expansion tables over marked trivalent fatgraphs.

The series for each oriented edge is built degree by degree along the
boundary cycle.  theta multiplies to one around every vertex below the new
degree n, and the cyclic rotations of that product are conjugates, so the
three corners of a vertex share one increment: the degree-n part of the
product.  Degree n of an edge is plus a third of the sum of the increments
over its tail-avoiding arc, so one sweep of the cycle per degree covers
every edge at once, and no log is taken.

Each edge has one arc half-edge, whose tail-avoiding arc runs forward
along the cycle; the other half is its reverse, with ell(reverse) =
-ell(arc half), so theta(reverse) is theta(arc half) inverted.  Only the
arc halves run exp_t, and one degree-n product of two of them gives a
vertex's increment X_n.  If (x, y, z) is any rotation of the vertex's
relation order, theta(x)theta(y)theta(z) = 1 + X_n through degree n, so

    X_n = [theta(x)theta(y)]_n - theta_n(pair z)
        = theta_n(x) - [theta(pair z)theta(pair y)]_n.

Every non-tail vertex v has two halves of one kind, arc or reversed: the
cycle starts at the tail and pos(v[i+1]) = pos(pair v[i]) + 1, so three
arc halves would need pos(v[0]) < pos(v[1]) < pos(v[2]) < pos(v[0]), and
three reversed halves the same with >.  With two arc halves the first
form reads X_n off them, the reversed half as z; with two reversed halves
the second form does, the arc half as x.  Either way only arc
exponentials enter.

The sweep puts each degree's increments over one denominator, with the
1/3 folded in, and walks the cycle once with a running dict of integer
numerators.  It copies that dict at each arc's start and takes the
difference at the arc's end, so each edge is reduced once per degree.
A table stores ell and nothing it can derive: the integral
tensors P = 6 ell_2, Q = 36 ell_3 and R = 216 ell_4 are exact rescalings
of its graded parts, read off on each call.

Along a path of Whitehead moves only the first table needs the sweep:
by naturality of the log expansion (Kawazumi 2005) each later table,
pulled back to the initial graph, changes only on the moved edge, so
johnson.path_ia reads every move off the initial table.
"""

from __future__ import annotations

import weakref
from math import gcd, lcm
from types import MappingProxyType
from typing import Optional, Sequence

from .algebra import TruncatedTensor, exp_t, lie_pretty, star
from .fatgraph import MarkedFatgraph, WhiteheadMove


def get_table(mg: MarkedFatgraph, max_degree: int) -> "MagnusTable":
    """The table of mg through max_degree, built once and kept on mg."""
    per = mg.magnus_tables
    if max_degree not in per:
        per[max_degree] = MagnusTable(mg, max_degree)
    return per[max_degree]


class MagnusTable:
    """The expansion ell of every half-edge of one marked fatgraph up to
    a fixed degree; theta = exp(ell) is computed on each read.

    The table holds its marked graph weakly, since the graph keeps its
    tables (see get_table), and keeps nothing else of it: the build
    reads the Fatgraph and drops it.  It checks nothing of the graph:
    every Fatgraph is trivalent by construction.
    """

    def __init__(self, mg: MarkedFatgraph, max_degree: int):
        G = mg.graph
        tail_v = G.vertex_of[G.tail]
        self._mg = weakref.ref(mg)
        self.max_degree = max_degree
        g = mg.genus()
        cycle = G.boundary_cycle()
        pair = G.pair_
        # the half-edges whose tail-avoiding arc runs forward on the cycle
        key = G.chord_key()
        arcs = {h for i, h in enumerate(cycle) if i < key[i]}

        # per non-tail vertex, (s, x, y, z) with arc halves x, y, z and
        # theta(x) theta(y) = theta(z) + s X through degree n, where X is
        # the vertex's increment; the module docstring says why one exists
        forms = {}
        for i, v in enumerate(G.vertices):
            if i == tail_v:
                continue
            r = (v[2], v[1], v[0])  # the relation order
            two_arcs = sum(h in arcs for h in r) == 2
            k = next(k for k, h in enumerate(r) if (h in arcs) != two_arcs)
            # the rotation (a, b, lone) puts the half of the odd kind last
            lone, a, b = r[k], r[k - 2], r[k - 1]
            forms[i] = ((1, a, b, pair[lone]) if two_arcs
                        else (-1, pair[b], pair[a], lone))

        ell = {h: TruncatedTensor.from_vector(g, mg.h[h], max_degree)
               for h in arcs}
        for n in range(2, max_degree + 1):
            exps = {h: exp_t(ell[h].truncated(n)) for h in arcs}
            # a corner's increment: its vertex product in degree n (theta
            # closes below n); step x -> y of the cycle turns at y's vertex
            close = {i: TruncatedTensor.combination(
                         g, ((s, exps[x].mul_graded(exps[y], n)),
                             (-s, exps[z].graded(n))), n)
                     for i, (s, x, y, z) in forms.items()}
            inc = [close[G.vertex_of[y]] for y in cycle[1:]]
            ell = self._arc_sums(cycle, pair, arcs, inc, n, ell)
        for h in arcs:
            ell[pair[h]] = -ell[h]
        self._ell = ell
        self.ell_map = MappingProxyType(ell)  # ell of every half-edge

    @property
    def mg(self) -> Optional[MarkedFatgraph]:
        """The marked graph, or None once it has been dropped."""
        return self._mg()

    # -- series values ----------------------------------------------------

    def _value(self, half: int) -> TruncatedTensor:
        try:
            return self._ell[half]
        except KeyError:
            raise ValueError(f"half-edge {half} is not in the graph") from None

    def ell(self, half: int) -> TruncatedTensor:
        return self._value(half)

    def theta(self, half: int) -> TruncatedTensor:
        return exp_t(self._value(half))

    def P(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(2).scaled(6)

    def Q(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(3).scaled(36)

    def R(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(4).scaled(216)

    # -- the arc sweep -----------------------------------------------------

    def _arc_sums(self, cycle: list[int], pair: dict[int, int],
                  arcs: set[int], inc: list[TruncatedTensor], n: int,
                  base: dict[int, TruncatedTensor]
                  ) -> dict[int, TruncatedTensor]:
        """base[h] plus a third of inc[p] + ... + inc[q - 1] on each arc
        [p..q], where each increment is the degree-n part of a vertex
        product (the vertex relation), sign and all, in the table's shape.
        Arc h starts where h sits on the cycle and ends at its reverse,
        pair[h]."""
        N = self.max_degree
        den = lcm(*(t.den for t in inc))
        mult = [den // t.den for t in inc]
        den *= 3
        run: dict[int, int] = {}
        opened: dict[int, dict[int, int]] = {}
        out = {}
        for j, h in enumerate(cycle):
            if h in arcs:
                opened[h] = dict(run)
            else:
                h = pair[h]
                # run only gains keys, so it has every key of the copy
                start = opened.pop(h)
                diff = {k: d for k, v in run.items()
                        if (d := v - start.get(k, 0))}
                # part = diff / den in lowest terms; old and part are
                # reduced, so their sum over the lcm is too
                g = gcd(den, *diff.values())
                old = base[h]
                sum_den = lcm(old.den, den // g)
                a, b = sum_den // old.den, sum_den // (den // g)
                comps = [{k: v * a for k, v in c.items()} for c in old.comps]
                comps[n] = {k: v // g * b for k, v in diff.items()}
                out[h] = TruncatedTensor._of(old.genus, N, sum_den, comps)
            if j < len(inc):
                m = mult[j]
                for k, v in inc[j].comps[n].items():
                    run[k] = run.get(k, 0) + m * v
        return out


# -- module-level API ------------------------------------------------------


def ell_word(mg: MarkedFatgraph, halves: Sequence[int],
             max_degree: int) -> TruncatedTensor:
    """Expansion of a word of oriented edges: the star product of values."""
    if not halves:
        raise ValueError("empty edge word")
    table = get_table(mg, max_degree)
    total = table.ell(halves[0])
    for h in halves[1:]:
        total = star(total, table.ell(h))
    return total


def check_relations(move: WhiteheadMove,
                    max_degree: int) -> Optional[str]:
    """Verify the local edge relations around a Whitehead move.

    They are read off ell_1, ell_2 and ell_3 of the source table itself:
    ell_1 sums to zero around the vertex and across the move, P = 6 ell_2
    meets the vertex and move bracket identities and Q = 36 ell_3 the
    vertex one.  Returns None if everything holds, else a description of
    the first violated relation.  Below degree three P or Q is cut off,
    so max_degree must be at least 3.
    """
    if max_degree < 3:
        raise ValueError(
            f"check_relations needs max_degree >= 3, got {max_degree}")
    t = get_table(move.source, max_degree)
    a, b, c, d, e = move.a, move.b, move.c, move.d, move.e_head
    fa, fb, fc, fd, fe = (t.ell(x).graded(1) for x in (a, b, c, d, e))
    Pa, Pb, Pc, Pd, Pe = (t.P(x) for x in (a, b, c, d, e))
    Qa, Qb, Qe = t.Q(a), t.Q(b), t.Q(e)

    if not (fa + fb + fe).is_zero():
        return "vertex H relation a+b+e=0 fails"
    if not (fa + fb + fc + fd).is_zero():
        return "move H relation a+b+c+d=0 fails"
    if Pa + Pb + Pe != fa.bracket(fb).scaled(-3):
        return "vertex P relation fails"
    if Pa + Pb + Pc + Pd != (fa.bracket(fb) + fc.bracket(fd)).scaled(-3):
        return "move P relation fails"
    rhs = (Pa.bracket(fb) + fa.bracket(Pb)
           + fa.bracket(fa.bracket(fb))
           - fb.bracket(fa.bracket(fb))).scaled(-3)
    if Qa + Qb + Qe != rhs:
        return "vertex Q relation fails"
    return None


def dump_table(mg: MarkedFatgraph, max_degree: int) -> str:
    """Readable listing of the expansion of every edge, one per line."""
    table = get_table(mg, max_degree)
    by_id = {eid: name for name, eid in mg.edge_names.items()}
    lines = []
    for eid in sorted(mg.graph.edges):
        head = mg.graph.oriented(eid)
        label = by_id.get(eid, str(eid))
        lines.append(f"{label}: {lie_pretty(table.ell(head))}")
    return "\n".join(lines)
