"""Magnus expansion tables over marked trivalent fatgraphs.

The series for each oriented edge is built degree by degree along the
boundary cycle: each new degree is a scaled sum of Hausdorff-series tails of
consecutive boundary edges over the tail-avoiding arc, so one sweep of the
cycle per degree covers every edge at once.

Each edge has one arc half-edge, whose tail-avoiding arc runs forward
along the cycle; the other half is its reverse, with ell(reverse) =
-ell(arc half).  Only the arc halves run exp_t: a reversed half-edge gets
the antipode of its reverse's exponential, since S(exp x) = exp(-x) for
Lie x.  The sweep puts each degree's increments over one denominator,
with the -1/3 folded in, and walks the cycle once with a running dict of
integer numerators.  It copies that dict at each arc's start and takes
the difference at the arc's end, so each edge is reduced once per
degree.  A table stores ell and nothing it can derive: the integral
tensors P = 6 ell_2, Q = 36 ell_3 and R = 216 ell_4 are exact rescalings
of its graded parts, read off on each call.

Along a path of Whitehead moves only the first table needs the sweep.
The move map phi = move_ia(move, N - 1), read off the source table,
carries the result's expansion to the source's, so the result table is
phi^-1 of the source table off the moved edge, and the moved edge closes
its new vertex (MagnusTable.transported).  get_table builds and keeps
tables; a transported table is never kept on its graph.
"""

from __future__ import annotations

import weakref
from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_MAX_DEGREE,
    IAMap,
    TruncatedTensor,
    _horner,
    _log_coeffs,
    antipode,
    exp_t,
    lie_pretty,
    star,
)
from .fatgraph import MarkedFatgraph, WhiteheadMove


def get_table(mg: MarkedFatgraph,
              max_degree: int = DEFAULT_MAX_DEGREE) -> "MagnusTable":
    """The table of mg through max_degree, built once and kept on mg."""
    per = mg.magnus_tables
    if max_degree not in per:
        per[max_degree] = MagnusTable(mg, max_degree)
    return per[max_degree]


class MagnusTable:
    """The expansion ell of every half-edge of one marked fatgraph up to
    a fixed degree, with theta = exp(ell) cached on first read.

    The table holds its marked graph weakly, since the graph keeps its
    tables (see get_table), and its Fatgraph strongly.
    """

    def __init__(self, mg: MarkedFatgraph,
                 max_degree: int = DEFAULT_MAX_DEGREE):
        G = mg.graph
        tail_v = G.vertex_of[G.tail]
        for i, v in enumerate(G.vertices):
            if i != tail_v and len(v) != 3:
                raise ValueError(f"Magnus expansion needs a trivalent "
                                 f"fatgraph: vertex {i} {v} has valence "
                                 f"{len(v)}")
        self._mg = weakref.ref(mg)
        self.graph = G
        self.max_degree = max_degree
        g = mg.genus()
        cycle = G.boundary_cycle()
        pair = G.pair_
        # the half-edges whose tail-avoiding arc runs forward on the cycle
        key = G.chord_key()
        arcs = {h for i, h in enumerate(cycle) if i < key[i]}

        ell = {h: TruncatedTensor.from_vector(g, mg.h[h], max_degree)
               for h in arcs}
        for n in range(2, max_degree + 1):
            exps = {}
            for h in arcs:
                exps[h] = exp_t(ell[h].truncated(n))
                exps[pair[h]] = antipode(exps[h])
            # the degree-n part of log(exp ell(x) * exp ell(reverse y))
            # per step x -> y of the cycle
            coeffs = _log_coeffs(n)
            inc = [_horner(exps[x] * exps[pair[y]], coeffs, n)
                   for x, y in zip(cycle, cycle[1:])]
            ell = self._arc_sums(cycle, arcs, inc, n, ell)
        for h in arcs:
            ell[pair[h]] = -ell[h]
        self._ell = ell
        self._theta: dict[int, TruncatedTensor] = {}

    @classmethod
    def transported(cls, source: "MagnusTable", move: WhiteheadMove,
                    phi: IAMap) -> "MagnusTable":
        """The table of move.result, carried across the move from source.

        source must be the table of move.source and phi the move map
        move_ia(move, N - 1), of the table's genus and degree N.  phi
        carries the result's expansion to the source's (naturality of
        the log of a generalized Magnus expansion, Kawazumi 2005), so
        every half-edge off the moved edge gets phi^-1 of its source
        value, its reverse the negative; the moved edge is read off the
        result vertex (e_head, a, d), where theta multiplies to one:
        ell(e_head) = -star(ell(d), ell(a)).  The values equal those of
        MagnusTable(move.result, N).

        The table is not kept on move.result: get_table hands out built
        tables only, so the oracles ia_between and tau_move_oracle always
        compare two built tables, never one carried from the other.
        """
        if source.mg is not move.source:
            raise ValueError("the table is not the table of the move's source")
        mg, N = move.result, source.max_degree
        g = mg.genus()
        if (phi.genus, phi.max_degree) != (g, N):
            raise ValueError(
                f"move map has genus {phi.genus} and max_degree "
                f"{phi.max_degree}, not the table's {g} and {N}")
        back = phi.inverse()
        G = mg.graph
        ell = {}
        for eid, (h, rev) in G.edges.items():
            if eid != move.edge_id:
                ell[h] = back.apply(source._ell[h])
                ell[rev] = -ell[h]
        head = move.e_head
        ell[head] = -star(ell[move.d], ell[move.a])
        ell[G.reverse(head)] = -ell[head]
        table = object.__new__(cls)
        table._mg = weakref.ref(mg)
        table.graph = G
        table.max_degree = N
        table._ell = ell
        table._theta = {}
        return table

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
        if half not in self._theta:
            self._theta[half] = exp_t(self._value(half))
        return self._theta[half]

    def P(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(2).scaled(6)

    def Q(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(3).scaled(36)

    def R(self, half: int) -> TruncatedTensor:
        return self._value(half).graded(4).scaled(216)

    # -- the arc sweep -----------------------------------------------------

    def _arc_sums(self, cycle: list[int], arcs: set[int],
                  inc: list[TruncatedTensor], n: int,
                  base: dict[int, TruncatedTensor]
                  ) -> dict[int, TruncatedTensor]:
        """base[h] - (inc[p] + ... + inc[q - 1]) / 3 on each arc [p..q].

        Every increment is homogeneous of degree n and has the table's
        shape.  Arc h starts where h sits on the cycle and ends at its
        reverse.
        """
        N = self.max_degree
        den = lcm(*(t.den for t in inc))
        mult = [-(den // t.den) for t in inc]
        den *= 3
        pair = self.graph.pair_
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


def ell(mg: MarkedFatgraph, half: int,
        max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    return get_table(mg, max_degree).ell(half)


def theta(mg: MarkedFatgraph, half: int,
          max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    return get_table(mg, max_degree).theta(half)


def ell_word(mg: MarkedFatgraph, halves: Sequence[int],
             max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    """Expansion of a word of oriented edges: the star product of values."""
    if not halves:
        raise ValueError("empty edge word")
    table = get_table(mg, max_degree)
    total = table.ell(halves[0])
    for h in halves[1:]:
        total = star(total, table.ell(h))
    return total


def P(mg: MarkedFatgraph, half: int,
      max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    return get_table(mg, max_degree).P(half)


def Q(mg: MarkedFatgraph, half: int,
      max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    return get_table(mg, max_degree).Q(half)


def R(mg: MarkedFatgraph, half: int,
      max_degree: int = DEFAULT_MAX_DEGREE) -> TruncatedTensor:
    return get_table(mg, max_degree).R(half)


def check_relations(move: WhiteheadMove,
                    max_degree: int = DEFAULT_MAX_DEGREE) -> Optional[str]:
    """Verify the local edge relations around a Whitehead move.

    They are read off ell_1, ell_2 and ell_3 of the source table itself:
    ell_1 sums to zero around the vertex and across the move, P = 6 ell_2
    meets the vertex and move bracket identities and Q = 36 ell_3 the
    vertex one.  Returns None if everything holds, else a description of
    the first violated relation.
    """
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


def dump_table(mg: MarkedFatgraph,
               max_degree: int = DEFAULT_MAX_DEGREE) -> str:
    """Readable listing of the expansion of every edge, one per line."""
    table = get_table(mg, max_degree)
    by_id = {eid: name for name, eid in mg.edge_names.items()}
    lines = []
    for eid in sorted(mg.graph.edges):
        head = mg.graph.oriented(eid)
        label = by_id.get(eid, str(eid))
        lines.append(f"{label}: {lie_pretty(table.ell(head))}")
    return "\n".join(lines)
