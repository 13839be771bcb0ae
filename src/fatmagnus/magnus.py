"""Magnus expansion tables over marked trivalent fatgraphs.

The series for each oriented edge is built degree by degree along the
boundary cycle, as the generalized Magnus expansion of Kawazumi (2005).
theta = exp(ell) multiplies to one around every vertex below the new
degree n, and the cyclic rotations of that product are conjugates, so the
three corners of a vertex share one increment: the degree-n part of the
product.  Degree n of an edge is plus a third of the sum of the increments
over its tail-avoiding arc, and no log is taken.

Each edge has one arc half-edge, whose tail-avoiding arc runs forward
along the cycle; the other half is its reverse, with ell(reverse) =
-ell(arc half), so theta(reverse) is theta(arc half) inverted.  Only the
arc halves are built, and one degree-n product of the thetas of two of
them gives a vertex's increment X_n.  If (x, y, z) is any rotation of the
vertex's relation order, theta(x)theta(y)theta(z) = 1 + X_n through
degree n, so

    X_n = [theta(x)theta(y)]_n - theta_n(pair z)
        = theta_n(x) - [theta(pair z)theta(pair y)]_n.

Every non-tail vertex v has two halves of one kind, arc or reversed: the
cycle starts at the tail and pos(v[i+1]) = pos(pair v[i]) + 1, so three
arc halves would need pos(v[0]) < pos(v[1]) < pos(v[2]) < pos(v[0]), and
three reversed halves the same with >.  With two arc halves the first
form reads X_n off them, the reversed half as z; with two reversed halves
the second form does, the arc half as x.  Either way only the thetas of
arc halves enter.

The build works on homogeneous pieces, each over its own denominator,
summed by algebra._graded_sum.  Per arc half it keeps ell_d, theta_d =
[exp ell]_d and p_{r,d} = [ell^r / r!]_d below n.  At degree n, p_{r,n} =
(1/r) sum_k ell_k p_{r-1,n-k}, and R_n = sum_{r>=2} p_{r,n} is theta_n
less the still unknown ell_n, so in the form (s, x, y, z) of a vertex

    X_n = s (sum_{0<d<n} theta_d(x) theta_{n-d}(y) + R_n(x) + R_n(y) - R_n(z))

ell_n of an arc is the sum of ell_n over the arcs nested directly inside
it plus k/3 X_n(w) for each vertex w with k of its corners left over, a
split fixed by the chord key and taken shortest arc first.  Then theta_n =
ell_n + R_n; after the last degree N nothing reads p_{r,N} or theta_N, so
neither is formed.  A table stores ell and nothing it can derive: P =
6 ell_2 and Q = 36 ell_3 are read off on each call.

Along a path of Whitehead moves only the first table is built: by
naturality of the log expansion (Kawazumi 2005) each later table, pulled
back to the initial graph, changes only on the moved edge, so
johnson.path_ia reads every move off the initial table.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from .algebra import TruncatedTensor, _graded_sum, exp_t, lie_pretty
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
        self.max_degree = N = max_degree
        g = mg.genus()
        nl = 2 * g
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

        # per arc, shortest first: the arcs nested directly inside it and
        # how many of its corners are left over at each vertex; corner j
        # turns at the vertex of cycle[j + 1]
        splits = []
        for i in sorted((i for i in range(len(cycle)) if i < key[i]),
                        key=lambda i: key[i] - i):
            inner, corners, j = [], {}, i
            while j < key[i]:
                if i < j < key[j] < key[i]:
                    inner.append(cycle[j])
                    j = key[j]
                else:
                    w = G.vertex_of[cycle[j + 1]]
                    corners[w] = corners.get(w, 0) + 1
                    j += 1
            splits.append((cycle[i], inner,
                           [(Fraction(k, 3), w) for w, k in corners.items()]))

        # pieces of each arc half: pw[h][r, d] = [ell^r / r!]_d, so
        # pw[h][1, d] is ell_d, and theta[h][d] = [exp ell]_d below degree n
        one = {h: TruncatedTensor.from_vector(g, mg.h[h], N) for h in arcs}
        pw = {h: {(1, 1): (t.den, t.comps[1])} for h, t in one.items()}
        theta = {h: {1: p[1, 1]} for h, p in pw.items()}
        for n in range(2, N + 1):
            # R[h] = theta_n(h) less ell_n(h), which is still to be found
            R = {}
            for h, p in pw.items():
                prods = [[(Fraction(1, r), p[1, k], p[r - 1, n - k], n - k)
                          for k in range(1, n - r + 2)]
                         for r in range(2, n + 1)]
                if n == N:  # no later degree reads p[r, N]
                    R[h] = _graded_sum(nl, [x for v in prods for x in v], ())
                    continue
                for r, v in enumerate(prods, 2):
                    p[r, n] = _graded_sum(nl, v, ())
                R[h] = _graded_sum(nl, (), [(1, p[r, n])
                                            for r in range(2, n + 1)])
            X = {i: _graded_sum(nl, ((s, theta[x][d], theta[y][n - d], n - d)
                                     for d in range(1, n)),
                                ((s, R[x]), (s, R[y]), (-s, R[z])))
                 for i, (s, x, y, z) in forms.items()}
            for h, inner, corners in splits:
                pw[h][1, n] = _graded_sum(
                    nl, (), [(1, pw[x][1, n]) for x in inner]
                    + [(c, X[w]) for c, w in corners])
            if n < N:
                for h, t in theta.items():
                    t[n] = _graded_sum(nl, (), ((1, pw[h][1, n]), (1, R[h])))
        ell = {h: TruncatedTensor._from_pieces(
                   g, [(1, {})] + [p[1, d] for d in range(1, N + 1)])
               for h, p in pw.items()}
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


# -- module-level API ------------------------------------------------------


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
