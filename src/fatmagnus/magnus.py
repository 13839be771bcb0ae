"""Magnus expansion tables over marked trivalent fatgraphs.

The series for each oriented edge is built degree by degree along the
boundary cycle: each new degree is a scaled sum of Hausdorff-series tails of
consecutive boundary edges over the tail-avoiding arc, so one pass of prefix
sums per degree covers every edge at once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_MAX_DEGREE,
    TruncatedTensor,
    _horner,
    _log_coeffs,
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
    """All expansion values of one marked fatgraph up to a fixed degree."""

    def __init__(self, mg: MarkedFatgraph,
                 max_degree: int = DEFAULT_MAX_DEGREE):
        if not mg.graph.is_trivalent():
            raise ValueError("Magnus expansion needs a trivalent fatgraph")
        self.mg = mg
        self.max_degree = max_degree
        G = mg.graph
        g = mg.genus()
        cycle = G.boundary_cycle()
        self._cycle = cycle
        self._pos = {h: i for i, h in enumerate(cycle)}

        # boundary arcs [p..q] for the edges whose tail-avoiding path exists
        self._arc: dict[int, tuple[int, int]] = {}
        for h in G.half_edges:
            p, q = self._pos[h], self._pos[G.pair_[h]]
            if p < q:
                self._arc[h] = (p, q)

        self.one = {h: TruncatedTensor.from_vector(g, mg.h[h], max_degree)
                    for h in G.half_edges}
        ell = dict(self.one)
        for n in range(2, max_degree + 1):
            exps = [exp_t(ell[h].truncated(n)) for h in cycle]
            # the degree-n part of log(exps[j - 1] * exps[rev]) per step
            inc = [_horner(exps[j - 1] * exps[self._pos[G.pair_[cycle[j]]]],
                           _log_coeffs(n), n)
                   for j in range(1, len(cycle))]
            for h, part in self._arc_sums(inc).items():
                ell[h] = ell[h] + part.scaled(Fraction(-1, 3)).truncated(
                    max_degree)
            self._fill_reversed(ell)
        self._ell = ell
        self._theta: dict[int, TruncatedTensor] = {}
        self._integrals: Optional[tuple[dict, dict, dict, dict]] = None

    # -- series values ----------------------------------------------------

    def ell(self, half: int) -> TruncatedTensor:
        return self._ell[half]

    def theta(self, half: int) -> TruncatedTensor:
        if half not in self._theta:
            self._theta[half] = exp_t(self._ell[half])
        return self._theta[half]

    # -- integral tables ---------------------------------------------------

    def _arc_sums(self, inc: list[TruncatedTensor]
                  ) -> dict[int, TruncatedTensor]:
        """inc[p] + ... + inc[q - 1] on each arc [p..q], by prefix sums."""
        prefix = [TruncatedTensor(inc[0].genus, inc[0].max_degree)]
        for x in inc:
            prefix.append(prefix[-1] + x)
        return {h: prefix[q] - prefix[p] for h, (p, q) in self._arc.items()}

    def _fill_reversed(self, vals: dict[int, TruncatedTensor]) -> None:
        """Give each half-edge off the arcs minus its reverse's value."""
        G = self.mg.graph
        for h in G.half_edges:
            if h not in self._arc:
                vals[h] = -vals[G.pair_[h]]

    def _arc_table(self, inc_fn) -> dict[int, TruncatedTensor]:
        cycle = self._cycle
        out = self._arc_sums([inc_fn(cycle[j - 1], cycle[j])
                              for j in range(1, len(cycle))])
        self._fill_reversed(out)
        return out

    def _integral_tables(self) -> tuple[dict, dict, dict, dict]:
        if self._integrals is not None:
            return self._integrals
        one = self.one

        P = self._arc_table(lambda x, y: one[x].bracket(one[y]))

        def q_inc(x, y):
            fx, fy = one[x], one[y]
            fxy = fx.bracket(fy)
            return fx.bracket(fxy) + fy.bracket(fxy) \
                + fx.bracket(P[y]) + P[x].bracket(fy)

        Q = self._arc_table(q_inc)

        def qhat_inc(x, y):
            return one[x].bracket(P[y]) + P[x].bracket(one[y])

        Qhat = self._arc_table(qhat_inc)

        def r_inc(x, y):
            fx, fy = one[x], one[y]
            fxy = fx.bracket(fy)
            t = fy.bracket(fx.bracket(fxy)).scaled(3)
            t = t + fx.bracket(fx.bracket(P[y])) \
                + fx.bracket(P[x].bracket(fy)) + P[x].bracket(fxy)
            t = t + fy.bracket(fx.bracket(P[y])) \
                + fy.bracket(P[x].bracket(fy)) + P[y].bracket(fxy)
            return t + P[x].bracket(P[y]) \
                + fx.bracket(Q[y]) + Q[x].bracket(fy)

        R = self._arc_table(r_inc)
        self._integrals = (P, Q, R, Qhat)
        return self._integrals

    def P(self, half: int) -> TruncatedTensor:
        return self._integral_tables()[0][half]

    def Q(self, half: int) -> TruncatedTensor:
        return self._integral_tables()[1][half]

    def R(self, half: int) -> TruncatedTensor:
        return self._integral_tables()[2][half]

    def qhat(self, half: int) -> TruncatedTensor:
        return self._integral_tables()[3][half]


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

    Returns None if everything holds, else a description of the first
    violated relation.
    """
    t = get_table(move.source, max_degree)
    a, b, c, d, e = move.a, move.b, move.c, move.d, move.e_head
    fa, fb, fc, fd, fe = (t.one[x] for x in (a, b, c, d, e))
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
