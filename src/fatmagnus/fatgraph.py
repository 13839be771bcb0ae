"""Once-bordered fatgraphs with homology and free-group edge markings.

Half-edges are integers. An oriented edge is represented by the half-edge at
its head, the vertex it points into; the reverse orientation is the paired
half. The single boundary cycle is the orbit of a fixed successor permutation
on oriented edges, normalized to start at the tail.

Two conventions fix the expansion.  The boundary successor of an oriented
edge is ``next_`` applied to its reverse, so the successor of the reversed
tail is the tail itself and the cycle runs tail ... reversed-tail.  Vertex
relations multiply edge markings in the reverse of the stored cyclic order.

A rooted fatgraph has a canonical form that is read off, not searched for:
its chord key, the boundary position of each half-edge's reverse in
boundary order.  Two graphs are rooted-isomorphic iff their keys are equal,
and the isomorphism matches their boundary cycles position by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import _check_positive_int, dot, is_symplectic_matrix, row_reduce

Word = tuple[int, ...]


# -- free-group words ------------------------------------------------------
# letters are nonzero ints: +k is generator k (1-based), -k its inverse;
# generator k corresponds to tensor-algebra letter k-1


def w_reduce(word: Iterable[int]) -> Word:
    word = tuple(word)
    if 0 in word:
        raise ValueError("0 is not a letter")
    return w_mul(word)


def w_mul(*words: Iterable[int]) -> Word:
    out: list[int] = []
    for w in words:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def w_inv(word: Sequence[int]) -> Word:
    return tuple(-c for c in reversed(word))


def w_abelianize(word: Sequence[int], rank: int) -> tuple[int, ...]:
    v = [0] * rank
    for c in word:
        v[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(v)


def w_endo(images: Sequence[Word], word: Sequence[int]) -> Word:
    """Apply the endomorphism generator k -> images[k-1] and reduce."""
    return w_mul(*(images[c - 1] if c > 0 else w_inv(images[-c - 1])
                   for c in word))


def boundary_word(genus: int) -> Word:
    """The surface relator: the product of [u_i, v_i] over all handles."""
    _check_positive_int("genus", genus)
    out: list[int] = []
    for i in range(1, genus + 1):
        out += [i, genus + i, -i, -(genus + i)]
    return tuple(out)


# -- combinatorial fatgraph ------------------------------------------------


class Fatgraph:
    """Trivalent once-bordered fatgraph with a tail.

    vertices: a tuple of cyclic tuples of half-edge ids; edges: map edge
    id -> (half, half), where the canonical orientation of an edge points
    at its second half; tail: the half at the univalent vertex.

    The constructor admits valence exactly 1 at the tail's vertex and
    exactly 3 at every other vertex.  So no edge is a loop: a loop
    a = (a0, a1) at a trivalent vertex has one half follow the other,
    say next(a0) = a1, and then succ(a1) = next(a0) = a1 closes a
    second boundary cycle.  And the genus is at least 1: a tree would
    need a second univalent vertex.

    A graph is a value: nothing changes it once it is built.  That is why
    a Whitehead move's graph may share its source's structure (_moved),
    and why the copies of a genus's canonical graph may all share one
    Fatgraph (symplectic_graph).
    """

    def __init__(self, vertices: Iterable[Sequence[int]],
                 edges: Mapping[int, tuple[int, int]], tail: int):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.edges = {int(e): (int(a), int(b)) for e, (a, b) in edges.items()}
        self.tail = tail

        seen: set[int] = set()
        for vi, v in enumerate(self.vertices):
            if not v:
                raise ValueError(f"empty vertex {vi} {v}: no half-edges")
            for h in v:
                if h in seen:
                    raise ValueError(f"half-edge {h} listed twice")
                seen.add(h)
        self.half_edges = frozenset(seen)

        self.pair_: dict[int, int] = {}
        self.edge_of: dict[int, int] = {}
        for e, (a, b) in self.edges.items():
            if a == b:
                raise ValueError(f"edge {e} pairs a half-edge with itself")
            for h in (a, b):
                if h not in seen:
                    raise ValueError(f"edge {e} uses unknown half-edge {h}")
                if h in self.edge_of:
                    raise ValueError(f"half-edge {h} used by two edges")
                self.edge_of[h] = e
            self.pair_[a], self.pair_[b] = b, a
        if set(self.edge_of) != seen:
            missing = sorted(seen - set(self.edge_of))
            raise ValueError(f"half-edges not covered by edges: {missing}")

        self.next_: dict[int, int] = {}
        self.vertex_of: dict[int, int] = {}
        for vi, v in enumerate(self.vertices):
            for j, h in enumerate(v):
                self.next_[h] = v[(j + 1) % len(v)]
                self.vertex_of[h] = vi

        if tail not in seen:
            raise ValueError(f"tail {tail!r} is not a half-edge of the graph")
        for vi, v in enumerate(self.vertices):
            want = 1 if vi == self.vertex_of[tail] else 3
            if len(v) == 1 < want:
                raise ValueError(
                    f"univalent vertex {vi} {v} away from the tail {tail}")
            if len(v) != want:
                raise ValueError(
                    f"vertex {vi} {v} has valence {len(v)}, expected {want}")

        self._cycle = self._trace_boundary()
        self._pos = {h: i for i, h in enumerate(self._cycle)}

        # the trace found one boundary cycle, so V - E + 1 = 2 - 2g exactly
        self._genus = (1 + len(self.edges) - len(self.vertices)) // 2

    @classmethod
    def _moved(cls, src: "Fatgraph", old_vertices: tuple[int, int],
               new_vertices: Sequence[tuple[int, int, int]]) -> "Fatgraph":
        """src with two vertices replaced in place, unchecked: only for
        whitehead, whose new vertices hold the same half-edges.  Each new
        vertex takes the index of the old vertex in the same position, so
        every other vertex keeps its index.  It shares src's edges and
        pairing, patches next_ and vertex_of at the six moved half-edges,
        and re-traces the boundary."""
        G = object.__new__(cls)
        vertices = list(src.vertices)
        G.edges, G.tail, G.half_edges = src.edges, src.tail, src.half_edges
        G.pair_, G.edge_of = src.pair_, src.edge_of
        G.next_, G.vertex_of = dict(src.next_), dict(src.vertex_of)
        for vi, v in zip(old_vertices, new_vertices):
            vertices[vi] = v
            for j, h in enumerate(v):
                G.next_[h] = v[(j + 1) % 3]
                G.vertex_of[h] = vi
        G.vertices = tuple(vertices)
        G._cycle = G._trace_boundary()
        G._pos = {h: i for i, h in enumerate(G._cycle)}
        G._genus = src._genus
        return G

    def _trace_boundary(self) -> list[int]:
        """The orbit of the tail under the boundary successor, succ = next
        o pair.  It is a permutation that keeps to one component, so the
        orbit covers every half-edge only on a connected, once-bordered
        graph."""
        nxt, pair = self.next_, self.pair_
        cycle = [self.tail]
        h = nxt[pair[self.tail]]
        while h != self.tail:
            cycle.append(h)
            h = nxt[pair[h]]
        if len(cycle) != len(self.half_edges):
            raise ValueError(
                f"{len(cycle)} of {len(self.half_edges)} oriented edges on "
                "the boundary: not connected, or not once-bordered")
        return cycle

    # -- queries ----------------------------------------------------------

    def boundary_cycle(self) -> list[int]:
        """All oriented edges in boundary order, starting at the tail."""
        return list(self._cycle)

    def genus(self) -> int:
        return self._genus

    def oriented(self, edge_id: int) -> int:
        """The canonical orientation of an edge: head = its second half."""
        return self.edges[edge_id][1]

    def skew_pair(self, a: int, b: int) -> int:
        """Linking pattern of two oriented edges along the boundary."""
        if self.edge_of[a] == self.edge_of[b]:
            return 0
        L = len(self._cycle)
        base = self._pos[a]
        rb = (self._pos[b] - base) % L
        rar = (self._pos[self.pair_[a]] - base) % L
        rbr = (self._pos[self.pair_[b]] - base) % L
        if rb < rar < rbr:
            return -1
        if rbr < rar < rb:
            return 1
        return 0

    def chord_key(self) -> tuple[int, ...]:
        """The canonical form: pos(reverse(h)) for h in boundary order.

        Position i holds an edge's arc half, the one that comes first on
        the boundary, iff i < key[i].
        """
        return tuple(self._pos[self.pair_[h]] for h in self._cycle)

    def movable_edges(self) -> list[int]:
        """Every edge but the tail's: the rest join two distinct trivalent
        vertices, since the constructor admits no loop and no other
        valence."""
        return sorted(set(self.edges) - {self.edge_of[self.tail]})


def rooted_isomorphism(g1: Fatgraph, g2: Fatgraph) -> Optional[dict[int, int]]:
    """The unique half-edge bijection g1 -> g2 fixing the tail and commuting
    with both pair and next, if one exists.

    A rooted isomorphism commutes with succ = next o pair, so it sends the
    i-th half-edge of one boundary cycle to the i-th of the other.  That
    map commutes with pair exactly when the chord keys agree, and then
    with next too, since next(h) = succ(pair(h)).
    """
    if g1.chord_key() != g2.chord_key():
        return None
    return dict(zip(g1._cycle, g2._cycle))


# -- markings --------------------------------------------------------------


HVec = tuple[int | Fraction, ...]


def _hvec_entry(x) -> int | Fraction:
    """An exact marking entry: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _as_hvec(v: Sequence, genus: int, half: int) -> HVec:
    vec = tuple(_hvec_entry(x) for x in v)
    if len(vec) != 2 * genus:
        raise ValueError(f"marking vector at half-edge {half} has length "
                         f"{len(vec)}, expected {2 * genus}")
    return vec


def solve_vertex_word(order: Sequence[int], known: Mapping[int, Word],
                      unknown: int) -> Word:
    """Solve the cyclic product relation for one missing edge word."""
    order = tuple(reversed(order))
    p = order.index(unknown)
    rest = [known[order[(p + j) % len(order)]] for j in range(1, len(order))]
    return w_inv(w_mul(*rest)) if rest else ()


class MarkedFatgraph:
    """A fatgraph together with an H-marking and optional pi-marking.

    h maps every half-edge (as an oriented edge) to its homology vector,
    whose entries are ints where integral and Fractions otherwise;
    pi, when given, maps every half-edge to a reduced free-group word.
    Both are read-only properties over read-only views, since the tables
    and is_geometric are read off them once.  The public constructor
    validates eagerly and raises ValueError with a diagnostic.  Two kinds
    of marked graph skip that check.  The results of whitehead are valid
    by construction from their already-validated source (see whitehead).
    The copies that symplectic_graph hands out are valid because each
    copies a template that the public constructor checked.
    edge_names maps construction names to edge ids where a constructor
    gives them; magnus_tables holds the expansion tables built for this
    graph, by degree (see magnus.get_table).  is_geometric is set by the
    constructors that can tell and computed once, on ask, otherwise;
    whitehead asks it of its source and hands the answer on.
    """

    def __init__(self, graph: Fatgraph, h: Mapping[int, Sequence],
                 pi: Optional[Mapping[int, Sequence[int]]] = None):
        self.graph = graph
        g = graph.genus()
        self._h: Mapping[int, HVec] = MappingProxyType({
            half: _as_hvec(vec, g, half) for half, vec in h.items()})
        self._pi: Optional[Mapping[int, Word]] = None
        if pi is not None:
            self._pi = MappingProxyType(
                {half: w_reduce(word) for half, word in pi.items()})
        self.edge_names: dict[str, int] = {}
        self.magnus_tables: dict[int, object] = {}
        self._geometric: Optional[bool] = None
        self._validate()

    @classmethod
    def _trusted(cls, graph: Fatgraph, h: dict[int, HVec],
                 pi: Optional[dict[int, Word]],
                 geometric: Optional[bool]) -> "MarkedFatgraph":
        """Wrap markings without validation or re-normalization.

        Only for whitehead, whose h and pi are built by the move formula
        from a validated source, with every entry already normalized, and
        for symplectic_graph, whose copies share the markings of a
        template that the public constructor checked.  Nothing writes to
        the dicts it wraps, so copies may share them.
        """
        mg = object.__new__(cls)
        mg.graph = graph
        mg._h = MappingProxyType(h)
        mg._pi = None if pi is None else MappingProxyType(pi)
        mg.edge_names = {}
        mg.magnus_tables = {}
        mg._geometric = geometric
        return mg

    @property
    def h(self) -> Mapping[int, HVec]:
        return self._h

    @property
    def pi(self) -> Optional[Mapping[int, Word]]:
        return self._pi

    def genus(self) -> int:
        return self.graph.genus()

    def _validate(self) -> None:
        G, h, pi = self.graph, self._h, self._pi
        g = G.genus()
        self._check_cover("H-marking", h)
        zero = (0,) * (2 * g)
        for half in G.half_edges:
            if tuple(-c for c in h[half]) != h[G.pair_[half]]:
                raise ValueError(
                    f"H-marking not odd under reversal at half-edge {half}")
        if h[G.tail] != zero:
            raise ValueError("tail H-marking must vanish")
        tail_v = G.vertex_of[G.tail]
        for vi, v in enumerate(G.vertices):
            if vi == tail_v:
                continue
            total = [0] * 2 * g
            for half in v:
                for j, c in enumerate(h[half]):
                    total[j] += c
            if any(total):
                raise ValueError(f"H-marking does not balance at vertex {v}")
        if self._h_rank() != 2 * g:
            raise ValueError("marking values do not span the full homology")

        if pi is None:
            return
        self._check_cover("pi-marking", pi)
        for half in G.half_edges:
            if w_inv(pi[half]) != pi[G.pair_[half]]:
                raise ValueError(
                    f"pi-marking not inverse under reversal at {half}")
            try:
                ab = w_abelianize(pi[half], 2 * g)
            except IndexError:  # a generator past 2g has no slot
                gen = max(map(abs, pi[half]))
                raise ValueError(f"pi-marking at half-edge {half} uses "
                                 f"generator {gen}, out of range for genus "
                                 f"{g}") from None
            if ab != tuple(h[half]):
                raise ValueError(
                    f"pi-marking abelianization mismatch at {half}")
        for vi, v in enumerate(G.vertices):
            if vi == tail_v:
                continue
            if w_mul(*(pi[half] for half in reversed(v))):
                raise ValueError(f"pi-marking product at vertex {v} is not 1")
        if pi[G.pair_[G.tail]] != boundary_word(g):
            raise ValueError(
                "pi-marking of the reversed tail is not the boundary word")

    def _check_cover(self, what: str, marking: Mapping[int, object]) -> None:
        """Raise naming the first half-edge the marking misses or adds."""
        missing = sorted(self.graph.half_edges - set(marking))
        extra = set(marking) - self.graph.half_edges  # keys of any type
        if missing or extra:
            gap = (f"{missing[0]} is missing" if missing else
                   f"{min(extra, key=repr)!r} is not in the graph")
            raise ValueError(f"{what} must cover every oriented edge: "
                             f"half-edge {gap}")

    def _h_rank(self) -> int:
        # one half per edge: _validate has checked that reversal negates
        # the marking, so the other half adds nothing to the span
        _, pivots = row_reduce(
            [self.h[self.graph.oriented(e)] for e in self.graph.edges])
        return len(pivots)

    def _mismatch(self) -> Optional[tuple[int, int, int, Fraction]]:
        """(a, b, linking, pairing) for the first half-edge pair whose
        boundary linking and marking pairing differ, or None."""
        G, h, halves = self.graph, self.h, sorted(self.graph.half_edges)
        return next(((a, b, G.skew_pair(a, b), dot(h[a], h[b]))
                     for i, a in enumerate(halves) for b in halves[i + 1:]
                     if G.skew_pair(a, b) != dot(h[a], h[b])), None)

    def is_geometric(self) -> bool:
        """Whether the boundary linking of every edge pair matches the
        symplectic pairing of the H-marking vectors."""
        if self._geometric is None:
            self._geometric = self._mismatch() is None
        return self._geometric

    def check_geometric(self) -> None:
        """Raise ValueError naming a pair that breaks is_geometric."""
        if not self.is_geometric():
            raise ValueError("marking is not geometric: half-edges %d and %d "
                             "link %s on the boundary but their markings "
                             "pair to %s" % self._mismatch())

    def apply_basis_change(self, matrix: Sequence[Sequence]) -> "MarkedFatgraph":
        """Replace every marking vector v by v . matrix (rows are the images
        of the basis letters). The pi-marking does not transport and is
        dropped.  A geometric marking stays geometric iff the matrix is
        symplectic."""
        g = self.genus()
        n = 2 * g
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("matrix must be 2g x 2g")
        new_h = {}
        for half, vec in self.h.items():
            out = [0] * n
            for i, c in enumerate(vec):
                if c:
                    for j in range(n):
                        out[j] += c * Fraction(matrix[i][j])
            new_h[half] = tuple(out)
        moved = MarkedFatgraph(self.graph, new_h, None)
        if self._geometric:
            moved._geometric = is_symplectic_matrix(g, matrix)
        return moved


# -- Whitehead moves -------------------------------------------------------


@dataclass(frozen=True)
class WhiteheadMove:
    """One edge collapse-and-reexpand, with the four surrounding oriented
    edges recorded as (a, b, c, d): a, b point into the head vertex of the
    collapsed edge e, c, d into its source vertex, each pair listed in the
    orientation the vertex relations are read in. The new edge f reuses e's
    half-edges; e_head is the head half of e in the source and of f in the
    result, and f ends up between a and d."""
    source: MarkedFatgraph
    result: MarkedFatgraph
    edge_id: int
    a: int
    b: int
    c: int
    d: int
    e_head: int


def whitehead(mg: MarkedFatgraph, edge_id: int) -> WhiteheadMove:
    """Collapse edge edge_id and re-expand it the other way.

    Raises ValueError on a non-int edge id, an unknown edge or the tail
    edge; every other edge joins two trivalent vertices (see Fatgraph).
    The result is valid by construction from the validated source, so it
    is not validated again, and its graph shares the source's pairing
    (Fatgraph._moved).  The move keeps the half-edge set and the
    tail edge with its markings; the new edge f takes e's half-edges,
    its marking negated across the reversal.  The source's two vertices
    at e give the move relation a + b + c + d = 0, so both new vertices,
    (f, a, d) with f = -(a + d) and (f reversed, c, b), balance.  f lies
    in the source's span and e = -(a + b) in the result's, so the span
    is kept.  The word of f solves the vertex rule at (f, a, d), the
    source's relation on the words of a, b, c, d closes the other
    vertex, and f's word abelianizes to f's vector.  Copied entries are
    already normalized; f's vector is normalized anew, since a sum of
    Fractions can be an int, and its negation stays normalized.  The two
    new vertices take the indices of the two old ones.
    """
    G = mg.graph
    if type(edge_id) is not int:
        raise ValueError(f"edge id {edge_id!r} is not an int")
    if edge_id not in G.edges:
        raise ValueError(f"no edge {edge_id}")
    e0, e1 = G.edges[edge_id]
    if G.edge_of[G.tail] == edge_id:
        raise ValueError(f"cannot move on the tail edge {edge_id}")
    v1, v2 = G.vertex_of[e1], G.vertex_of[e0]

    # labels follow the vertex-relation reading direction, which is the
    # reverse of the stored cyclic order
    b = G.next_[e1]
    a = G.next_[b]
    d = G.next_[e0]
    c = G.next_[d]

    graph2 = Fatgraph._moved(G, (v1, v2), ((e1, a, d), (e0, c, b)))

    h2 = dict(mg.h)
    h2[e1] = f_vec = _as_hvec([-(x + y) for x, y in zip(mg.h[a], mg.h[d])],
                              G.genus(), e1)
    h2[e0] = tuple(-x for x in f_vec)
    pi2 = None
    if mg.pi is not None:
        pi2 = dict(mg.pi)
        f_word = solve_vertex_word((e1, a, d), mg.pi, e1)
        pi2[e1] = f_word
        pi2[e0] = w_inv(f_word)
    # a move keeps is_geometric either way, so a walk decides it once
    result = MarkedFatgraph._trusted(graph2, h2, pi2, mg.is_geometric())
    return WhiteheadMove(mg, result, edge_id, a, b, c, d, e1)


@dataclass(frozen=True)
class MovePath:
    """A composable sequence of Whitehead moves with all intermediates."""
    initial: MarkedFatgraph
    moves: tuple[WhiteheadMove, ...]

    def __post_init__(self) -> None:
        end = self.initial
        for step, mv in enumerate(self.moves):
            if not isinstance(mv, WhiteheadMove):
                raise ValueError(f"step {step} is {mv!r}, not a "
                                 "WhiteheadMove")
            if mv.source is not end:
                where = (f"the result of step {step - 1}" if step
                         else "the initial graph")
                raise ValueError(f"step {step} (edge {mv.edge_id}) does not "
                                 f"start from {where}")
            end = mv.result

    @property
    def final(self) -> MarkedFatgraph:
        return self.moves[-1].result if self.moves else self.initial

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(m.edge_id for m in self.moves)

    def __len__(self) -> int:
        return len(self.moves)


def apply_path(mg: MarkedFatgraph, edge_ids: Sequence[int]) -> MovePath:
    moves = []
    current = mg
    for step, e in enumerate(edge_ids):
        try:
            mv = whitehead(current, e)
        except ValueError as exc:
            raise ValueError(f"step {step} (edge {e}): {exc}") from exc
        moves.append(mv)
        current = mv.result
    return MovePath(mg, tuple(moves))


def markings_equal(m1: MarkedFatgraph, m2: MarkedFatgraph,
                   iso: Mapping[int, int]) -> bool:
    for half in m1.graph.half_edges:
        if m1.h[half] != m2.h[iso[half]]:
            return False
    if (m1.pi is None) != (m2.pi is None):
        return False
    if m1.pi is not None:
        for half in m1.graph.half_edges:
            if m1.pi[half] != m2.pi[iso[half]]:
                return False
    return True


def pi_verify(path: MovePath, images: Sequence[Word]) -> bool:
    """Whether the path realizes the free-group endomorphism sending
    generator k to images[k-1], compared edge by edge through the rooted
    isomorphism between the endpoints."""
    start, end = path.initial, path.final
    if start.pi is None or end.pi is None:
        raise ValueError("pi_verify needs pi-markings on both ends")
    if len(images) != 2 * start.genus():
        raise ValueError(f"pi_verify needs {2 * start.genus()} images, one "
                         f"per generator, got {len(images)}")
    iso = rooted_isomorphism(start.graph, end.graph)
    if iso is None:
        raise ValueError("endpoint fatgraphs are not isomorphic")
    for half in start.graph.half_edges:
        if w_endo(images, start.pi[half]) != end.pi[iso[half]]:
            return False
    return True


# -- the canonical chain-of-handles graph ----------------------------------

def _build_chain(g: int) -> tuple[Fatgraph, dict[str, int]]:
    """Construct the genus-g chain graph; returns (graph, edge name map).

    Handle blocks hang left to right off a spine of junction vertices, each
    attached by a single separating edge, with handle g closing the spine.
    Handle i is a theta-shaped block: frame edges p_i, q_i from its entry
    vertex to the two endpoints of the parallel handle edges u_i, v_i.  The
    spine edge with h handles beyond it is named s_h; it serves as the
    virtual tail of the genus-h subgraph it separates.  Junction i also
    carries the connector c_i leading down into handle block i.
    """
    counter = 0
    edges: dict[int, tuple[int, int]] = {}
    names: dict[str, int] = {}

    def edge(name: str) -> tuple[int, int]:
        nonlocal counter
        h0, h1 = counter, counter + 1
        counter += 2
        names[name] = len(edges)
        edges[len(edges)] = (h0, h1)
        return h0, h1

    vertices: list[tuple[int, ...]] = []

    def block(i: int, entry: int) -> None:
        xp, pa = edge(f"p{i}")
        xq, qb = edge(f"q{i}")
        ua, ub = edge(f"u{i}")
        va, vb = edge(f"v{i}")
        vertices.append((entry, xp, xq))
        vertices.append((pa, ua, va))
        vertices.append((ub, vb, qb))

    t0, t1 = edge("t")
    along = t1
    for i in range(1, g):
        cs, cx = edge(f"c{i}")
        ss, sx = edge(f"s{g - i}")
        vertices.append((along, cs, ss))
        block(i, cx)
        along = sx
    block(g, along)
    vertices.append((t0,))

    graph = Fatgraph(vertices, edges, tail=t0)
    return graph, names


def _solve_markings(graph: Fatgraph, names: Mapping[str, int],
                    g: int) -> dict[int, Word]:
    """Assign generators to the handle edges and solve every other word by
    solve_vertex_word, the vertex rule whitehead uses: each pass solves the
    one unsolved half-edge of every non-tail vertex that has just one."""
    pi: dict[int, Word] = {}
    for i in range(1, g + 1):
        for sym, gen in (("u", i), ("v", g + i)):
            head = graph.oriented(names[f"{sym}{i}"])
            pi[head] = (gen,)
            pi[graph.pair_[head]] = (-gen,)
    while len(pi) < len(graph.half_edges):
        solved = len(pi)
        for v in graph.vertices:  # the tail's vertex alone has one half-edge
            unknown = [h for h in v if h not in pi]
            if len(unknown) == 1 < len(v):
                pi[unknown[0]] = solve_vertex_word(v, pi, unknown[0])
                pi[graph.pair_[unknown[0]]] = w_inv(pi[unknown[0]])
        if len(pi) == solved:
            raise ValueError("non-handle edges do not span the graph")
    return pi


@cache
def _canonical(g: int) -> tuple[Fatgraph, dict[int, HVec], dict[int, Word],
                                 dict[str, int]]:
    """The genus-g template that symplectic_graph copies, built once per
    genus: (graph, h, pi, edge names), with the markings checked once by
    the public constructor and kept as the plain dicts it validated."""
    graph, names = _build_chain(g)
    pi = _solve_markings(graph, names, g)
    h = {half: w_abelianize(word, 2 * g) for half, word in pi.items()}
    mg = MarkedFatgraph(graph, h, pi)
    return graph, dict(mg.h), dict(mg.pi), names


def symplectic_graph(g: int) -> MarkedFatgraph:
    """The canonical marked genus-g fatgraph: a chain of handle blocks with
    the tail at the left end, marked by the standard symplectic generators.

    Each call is a fresh marked graph, with its own edge_names and its own
    empty table cache, so no two walks from it share a table.  The copies
    share one validated template per genus (see MarkedFatgraph._trusted):
    mg.graph is the same Fatgraph in every copy in the process, so its
    dicts must not be edited.
    """
    _check_positive_int("genus", g)
    graph, h, pi, names = _canonical(g)
    mg = MarkedFatgraph._trusted(graph, h, pi, True)
    mg.edge_names = dict(names)
    return mg
