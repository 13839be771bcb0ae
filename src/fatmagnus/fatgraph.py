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
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import dot, is_symplectic_matrix, row_reduce

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


def w_conjugate(word: Sequence[int], by: Sequence[int]) -> Word:
    return w_mul(by, word, w_inv(by))


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
    out: list[int] = []
    for i in range(1, genus + 1):
        out += [i, genus + i, -i, -(genus + i)]
    return tuple(out)


# -- combinatorial fatgraph ------------------------------------------------


class Fatgraph:
    """Trivalent once-bordered fatgraph with a tail.

    vertices: cyclic tuples of half-edge ids; edges: map edge id -> (half,
    half), where the canonical orientation of an edge points at its second
    half; tail: the half at the univalent vertex.
    """

    def __init__(self, vertices: Iterable[Sequence[int]],
                 edges: Mapping[int, tuple[int, int]], tail: int):
        self.vertices = [tuple(v) for v in vertices]
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
        self.half_edges = seen

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
            raise ValueError("tail is not a half-edge of the graph")
        for vi, v in enumerate(self.vertices):
            want = 1 if vi == self.vertex_of[tail] else 3
            if len(v) == 1 and vi != self.vertex_of[tail]:
                raise ValueError(
                    f"univalent vertex {vi} {v} away from the tail {tail}")
            if len(v) < want or (want == 1 and len(v) != 1):
                raise ValueError(
                    f"vertex {vi} {v} has valence {len(v)}, expected {want}")

        self._cycle = self._trace_boundary()
        self._pos = {h: i for i, h in enumerate(self._cycle)}

        v_count, e_count = len(self.vertices), len(self.edges)
        twice = 1 + e_count - v_count
        if twice <= 0 or twice % 2:
            raise ValueError(
                f"V={v_count}, E={e_count} is not a once-bordered surface "
                "with positive genus")
        self._genus = twice // 2

    def succ(self, h: int) -> int:
        """Boundary-cycle successor of the oriented edge with head h."""
        return self.next_[self.pair_[h]]

    def _trace_boundary(self) -> list[int]:
        """The orbit of the tail under succ.  succ = next o pair is a
        permutation that keeps to one component, so the orbit covers every
        half-edge only on a connected, once-bordered graph."""
        cycle = [self.tail]
        h = self.succ(self.tail)
        while h != self.tail:
            cycle.append(h)
            h = self.succ(h)
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

    def reverse(self, h: int) -> int:
        return self.pair_[h]

    def oriented(self, edge_id: int) -> int:
        """The canonical orientation of an edge: head = its second half."""
        return self.edges[edge_id][1]

    def is_trivalent(self) -> bool:
        tail_v = self.vertex_of[self.tail]
        return all(len(v) == 3 for i, v in enumerate(self.vertices)
                   if i != tail_v)

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

    def edge_path_to_reverse(self, x: int) -> Optional[list[int]]:
        """The boundary arc x ... reverse(x) avoiding the tail, or None.

        The tail's own path is the whole boundary cycle; exactly one of
        x, reverse(x) has a path for every other edge.
        """
        p, q = self._pos[x], self._pos[self.pair_[x]]
        if p > q:
            return None
        return self._cycle[p:q + 1]

    def chord_key(self) -> tuple[int, ...]:
        """The canonical form: pos(reverse(h)) for h in boundary order.

        Position i holds an edge's arc half, the one that comes first on
        the boundary, iff i < key[i].
        """
        return tuple(self._pos[self.pair_[h]] for h in self._cycle)

    def movable_edges(self) -> list[int]:
        out = []
        for e, (a, b) in self.edges.items():
            if self.vertex_of[a] == self.vertex_of[b]:
                continue
            if len(self.vertices[self.vertex_of[a]]) != 3:
                continue
            if len(self.vertices[self.vertex_of[b]]) != 3:
                continue
            out.append(e)
        return sorted(out)


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


def _as_hvec(v: Sequence, genus: int) -> HVec:
    vec = tuple(_hvec_entry(x) for x in v)
    if len(vec) != 2 * genus:
        raise ValueError(f"marking vector has length {len(vec)}, "
                         f"expected {2 * genus}")
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
    Validation is eager and raises ValueError with a diagnostic.
    edge_names maps construction names to edge ids where a constructor
    gives them; magnus_tables holds the expansion tables built for this
    graph, by degree (see magnus.get_table).  is_geometric is set by the
    constructors that can tell and computed once, on ask, otherwise.
    """

    def __init__(self, graph: Fatgraph, h: Mapping[int, Sequence],
                 pi: Optional[Mapping[int, Sequence[int]]] = None):
        self.graph = graph
        g = graph.genus()
        self.h: dict[int, HVec] = {
            half: _as_hvec(vec, g) for half, vec in h.items()}
        self.pi: Optional[dict[int, Word]] = None
        if pi is not None:
            self.pi = {half: w_reduce(word) for half, word in pi.items()}
        self.edge_names: dict[str, int] = {}
        self.magnus_tables: dict[int, object] = {}
        self._geometric: Optional[bool] = None
        self._validate()

    def genus(self) -> int:
        return self.graph.genus()

    def pi_of(self, half: int) -> Word:
        if self.pi is None:
            raise ValueError("no pi-marking present")
        return self.pi[half]

    def _validate(self) -> None:
        G = self.graph
        g = G.genus()
        if set(self.h) != G.half_edges:
            raise ValueError("H-marking must cover every oriented edge")
        zero = (0,) * (2 * g)
        for half in G.half_edges:
            if tuple(-c for c in self.h[half]) != self.h[G.pair_[half]]:
                raise ValueError(
                    f"H-marking not odd under reversal at half-edge {half}")
        if self.h[G.tail] != zero:
            raise ValueError("tail H-marking must vanish")
        tail_v = G.vertex_of[G.tail]
        for vi, v in enumerate(G.vertices):
            if vi == tail_v:
                continue
            total = [0] * 2 * g
            for half in v:
                for j, c in enumerate(self.h[half]):
                    total[j] += c
            if any(total):
                raise ValueError(f"H-marking does not balance at vertex {v}")
        if self._h_rank() != 2 * g:
            raise ValueError("marking values do not span the full homology")

        if self.pi is None:
            return
        if set(self.pi) != G.half_edges:
            raise ValueError("pi-marking must cover every oriented edge")
        for half in G.half_edges:
            if w_inv(self.pi[half]) != self.pi[G.pair_[half]]:
                raise ValueError(
                    f"pi-marking not inverse under reversal at {half}")
            try:
                ab = w_abelianize(self.pi[half], 2 * g)
            except IndexError:  # a generator past 2g has no slot
                gen = max(map(abs, self.pi[half]))
                raise ValueError(f"pi-marking at half-edge {half} uses "
                                 f"generator {gen}, out of range for genus "
                                 f"{g}") from None
            if ab != tuple(self.h[half]):
                raise ValueError(
                    f"pi-marking abelianization mismatch at {half}")
        for vi, v in enumerate(G.vertices):
            if vi == tail_v:
                continue
            if w_mul(*(self.pi[half] for half in reversed(v))):
                raise ValueError(f"pi-marking product at vertex {v} is not 1")
        if self.pi[G.pair_[G.tail]] != boundary_word(g):
            raise ValueError(
                "pi-marking of the reversed tail is not the boundary word")

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
    G = mg.graph
    if edge_id not in G.edges:
        raise ValueError(f"no edge {edge_id}")
    e0, e1 = G.edges[edge_id]
    if G.edge_of[G.tail] == edge_id:
        raise ValueError("cannot move on the tail edge")
    v1, v2 = G.vertex_of[e1], G.vertex_of[e0]
    if v1 == v2:
        raise ValueError(f"edge {edge_id} is a loop")
    if len(G.vertices[v1]) != 3 or len(G.vertices[v2]) != 3:
        raise ValueError(f"edge {edge_id} does not join trivalent vertices")

    # labels follow the vertex-relation reading direction, which is the
    # reverse of the stored cyclic order
    b = G.next_[e1]
    a = G.next_[b]
    d = G.next_[e0]
    c = G.next_[d]

    new_vertices = [v for i, v in enumerate(G.vertices) if i not in (v1, v2)]
    new_vertices.append((e1, a, d))
    new_vertices.append((e0, c, b))
    graph2 = Fatgraph(new_vertices, G.edges, G.tail)

    g = mg.genus()
    h2 = dict(mg.h)
    f_vec = tuple(-(x + y) for x, y in zip(mg.h[a], mg.h[d]))
    h2[e1] = f_vec
    h2[e0] = tuple(-x for x in f_vec)
    pi2 = None
    if mg.pi is not None:
        pi2 = dict(mg.pi)
        known = {a: mg.pi[a], d: mg.pi[d]}
        f_word = solve_vertex_word((e1, a, d), known, e1)
        pi2[e1] = f_word
        pi2[e0] = w_inv(f_word)
    result = MarkedFatgraph(graph2, h2, pi2)
    result._geometric = mg._geometric  # a move keeps it either way
    return WhiteheadMove(mg, result, edge_id, a, b, c, d, e1)


@dataclass(frozen=True)
class MovePath:
    """A composable sequence of Whitehead moves with all intermediates."""
    initial: MarkedFatgraph
    moves: tuple[WhiteheadMove, ...]

    def __post_init__(self) -> None:
        ends = (self.initial,) + tuple(mv.result for mv in self.moves)
        for step, mv in enumerate(self.moves):
            if mv.source is not ends[step]:
                where = (f"the result of step {step - 1}" if step
                         else "the initial graph")
                raise ValueError(f"step {step} (edge {mv.edge_id}) does not "
                                 f"start from {where}")

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
    """Assign generators to the handle edges and solve all other words from
    the vertex relations, working upward from the leaves of the spanning
    tree of non-handle edges."""
    pi: dict[int, Word] = {}
    handle_edges = set()
    for i in range(1, g + 1):
        for sym, gen in (("u", i), ("v", g + i)):
            eid = names[f"{sym}{i}"]
            handle_edges.add(eid)
            head = graph.oriented(eid)
            pi[head] = (gen,)
            pi[graph.pair_[head]] = (-gen,)

    # spanning tree = all non-handle edges; BFS depth from the tail vertex
    tail_v = graph.vertex_of[graph.tail]
    depth = {tail_v: 0}
    parent_half: dict[int, int] = {}
    queue = [tail_v]
    while queue:
        v = queue.pop(0)
        for half in graph.vertices[v]:
            if graph.edge_of[half] in handle_edges:
                continue
            other = graph.vertex_of[graph.pair_[half]]
            if other not in depth:
                depth[other] = depth[v] + 1
                # oriented edge pointing from other toward the root
                parent_half[other] = half
                queue.append(other)
    if len(depth) != len(graph.vertices):
        raise ValueError("non-handle edges do not span the graph")

    for v in sorted(depth, key=lambda v: -depth[v]):
        if v == tail_v:
            continue
        up = parent_half[v]
        order = graph.vertices[graph.vertex_of[graph.pair_[up]]]
        known = {h: pi[h] for h in order if h != graph.pair_[up]}
        word = solve_vertex_word(order, known, graph.pair_[up])
        pi[graph.pair_[up]] = word
        pi[up] = w_inv(word)
    return pi


def symplectic_graph(g: int) -> MarkedFatgraph:
    """The canonical marked genus-g fatgraph: a chain of handle blocks with
    the tail at the left end, marked by the standard symplectic generators."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    graph, names = _build_chain(g)
    pi = _solve_markings(graph, names, g)
    h = {half: w_abelianize(word, 2 * g) for half, word in pi.items()}
    mg = MarkedFatgraph(graph, h, pi)
    mg.edge_names = names
    mg._geometric = True
    return mg


def symplectic_edge_names(g: int) -> dict[str, int]:
    return _build_chain(g)[1]
