"""Fatgraph layer: words, construction, boundary structure, markings, moves."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    edge_path_to_reverse,
    figure_eight,
    random_symplectic_matrix,
    random_walk,
    reference_rooted_isomorphism,
)
from fatmagnus.magnus import MagnusTable, get_table
from fatmagnus.fatgraph import (
    Fatgraph,
    MarkedFatgraph,
    MovePath,
    apply_path,
    boundary_word,
    markings_equal,
    pi_verify,
    rooted_isomorphism,
    solve_vertex_word,
    symplectic_graph,
    w_abelianize,
    w_endo,
    w_inv,
    w_mul,
    w_reduce,
    whitehead,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0)
words = st.lists(letters, max_size=8).map(tuple)


# -- free-group words ------------------------------------------------------


def test_reduce_cancels_adjacent_inverses():
    assert w_reduce((1, 2, -2, -1, 3)) == (3,)
    assert w_reduce(()) == ()
    with pytest.raises(ValueError):
        w_reduce((1, 0))


@given(words, words, words)
def test_mul_associative(a, b, c):
    assert w_mul(w_mul(a, b), c) == w_mul(a, w_mul(b, c))


@given(words)
def test_inverse_cancels(w):
    assert w_mul(w, w_inv(w)) == ()
    assert w_inv(w_inv(w)) == tuple(w)


@given(words, words)
def test_abelianize_is_additive(a, b):
    va = w_abelianize(a, 6)
    vb = w_abelianize(b, 6)
    assert w_abelianize(w_mul(a, b), 6) == tuple(x + y for x, y in zip(va, vb))


def test_conjugate_and_endo():
    assert w_mul((2,), (1,), w_inv((2,))) == (2, 1, -2)
    doubled = [(1, 1), (2,)]
    assert w_endo(doubled, (1, 2, -1)) == (1, 1, 2, -1, -1)


def test_boundary_word_is_product_of_commutators():
    assert boundary_word(1) == (1, 2, -1, -2)
    assert boundary_word(2) == (1, 3, -1, -3, 2, 4, -2, -4)


# -- construction and validation -------------------------------------------


def test_rejects_reused_half_edge():
    with pytest.raises(ValueError, match="listed twice"):
        Fatgraph([(0,), (1, 2, 2)], {0: (0, 1), 1: (2, 2)}, tail=0)


def test_rejects_self_paired_edge():
    with pytest.raises(ValueError, match="pairs a half-edge with itself"):
        Fatgraph([(0,), (1, 2, 3)], {0: (0, 1), 1: (2, 2)}, tail=0)


def test_rejects_uncovered_half_edge():
    with pytest.raises(ValueError, match="not covered"):
        Fatgraph([(0,), (1, 2, 3)], {0: (0, 1)}, tail=0)
    with pytest.raises(ValueError, match="unknown half-edge"):
        Fatgraph([(0,), (1, 2, 3)], {0: (0, 1), 1: (2, 3), 2: (4, 5)}, tail=0)


def test_rejects_low_valence():
    with pytest.raises(ValueError, match="valence"):
        Fatgraph([(0,), (1, 2), (3,)], {0: (0, 1), 1: (2, 3)}, tail=0)
    with pytest.raises(ValueError, match=r"vertex 1 \(1, 2\) has valence 2"):
        Fatgraph([(0,), (1, 2), (3, 4, 5)],
                 {0: (0, 1), 1: (2, 3), 2: (4, 5)}, tail=0)


def test_figure_eight_is_valid_but_not_trivalent():
    verts, edges, tail, pi = figure_eight()
    # every half-edge is paired once and the marking closes around the
    # 5-valent vertex with the genus-1 boundary word ...
    halves = sorted(h for v in verts for h in v)
    assert halves == sorted(h for pair in edges.values() for h in pair)
    assert len(set(halves)) == len(halves)
    assert pi[1] == boundary_word(1)
    assert 1 + len(edges) - len(verts) == 2 * 1
    # ... so valence is the one thing the constructor rejects
    with pytest.raises(ValueError, match=r"vertex 1 \(1, 3, 5, 2, 4\) "
                                         r"has valence 5, expected 3"):
        Fatgraph(verts, edges, tail=tail)


def test_trivalence_error_names_the_vertex_and_its_valence():
    # two handle edges from a 4-valent vertex to a trivalent one
    t0, t1, u0, u1, v0, v1, s0, s1 = range(8)
    with pytest.raises(ValueError, match=r"vertex 1 \(1, 2, 4, 6\) "
                                         r"has valence 4, expected 3"):
        Fatgraph([(t0,), (t1, u0, v0, s0), (u1, v1, s1)],
                 {0: (t0, t1), 1: (u0, u1), 2: (v0, v1), 3: (s0, s1)},
                 tail=t0)
    # the tail's vertex must be univalent
    with pytest.raises(ValueError, match=r"vertex 0 \(0, 5\) has valence "
                                         r"2, expected 1"):
        Fatgraph([(0, 5), (1, 2, 3), (4, 6, 7)],
                 {0: (0, 1), 1: (2, 4), 2: (3, 6), 3: (5, 7)}, tail=0)


def test_rejects_second_univalent_vertex():
    # a bare edge is a tree with two univalent ends
    with pytest.raises(ValueError, match="univalent"):
        Fatgraph([(0,), (1,)], {0: (0, 1)}, tail=0)
    # the message names the vertex and its half-edges
    with pytest.raises(ValueError, match=r"univalent vertex 1 \(1,\) away"):
        Fatgraph([(0,), (1,)], {0: (0, 1)}, tail=0)


def test_rejects_empty_vertex():
    with pytest.raises(ValueError, match=r"empty vertex 1 \(\)"):
        Fatgraph([(0,), (), (1, 2, 3)], {0: (0, 1), 1: (2, 3)}, tail=0)


def test_rejects_disconnected():
    mg = symplectic_graph(1)
    verts = list(mg.graph.vertices) + [(20, 21, 22), (23, 24, 25)]
    edges = dict(mg.graph.edges)
    edges.update({10: (20, 23), 11: (21, 24), 12: (22, 25)})
    with pytest.raises(ValueError, match="not connected"):
        Fatgraph(verts, edges, tail=mg.graph.tail)


def test_rejects_multiple_boundary_components():
    # reversing one theta vertex splits the boundary into several orbits
    mg = symplectic_graph(1)
    names = mg.edge_names
    flip = mg.graph.vertex_of[mg.graph.oriented(names["u1"])]
    verts = [tuple(reversed(v)) if i == flip else v
             for i, v in enumerate(mg.graph.vertices)]
    with pytest.raises(ValueError, match="not once-bordered"):
        Fatgraph(verts, mg.graph.edges, tail=mg.graph.tail)


def test_rejects_tail_outside_the_graph():
    with pytest.raises(ValueError, match="tail 7 is not a half-edge"):
        Fatgraph([(0,), (1, 2, 3)], {0: (0, 1), 1: (2, 3)}, tail=7)


def test_rejects_loop_with_tail_stub():
    # a loop at a trivalent vertex pinches off extra boundary components
    with pytest.raises(ValueError, match="not once-bordered"):
        Fatgraph([(0,), (1, 2, 3)], {0: (0, 1), 1: (2, 3)}, tail=0)


# -- boundary structure ----------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_boundary_cycle_visits_every_oriented_edge_once(g):
    G = symplectic_graph(g).graph
    cycle = G.boundary_cycle()
    assert len(cycle) == len(G.half_edges) == 2 * len(G.edges)
    assert len(set(cycle)) == len(cycle)
    assert cycle[0] == G.tail
    assert cycle[-1] == G.pair_[G.tail]


@pytest.mark.parametrize("g", [1, 2])
def test_edge_paths_partition_orientations(g):
    G = symplectic_graph(g).graph
    assert edge_path_to_reverse(G, G.tail) == G.boundary_cycle()
    assert edge_path_to_reverse(G, G.pair_[G.tail]) is None
    for h in G.half_edges:
        if G.edge_of[h] == G.edge_of[G.tail]:
            continue
        path = edge_path_to_reverse(G, h)
        rev = edge_path_to_reverse(G, G.pair_[h])
        # exactly one orientation of every other edge carries a path,
        # and that path stays clear of the tail
        assert (path is None) != (rev is None)
        got = path if path is not None else rev
        assert got[0] in (h, G.pair_[h])
        assert got[-1] == G.pair_[got[0]]
        assert G.tail not in got


def test_skew_pair_is_skew_symmetric():
    G = symplectic_graph(2).graph
    halves = sorted(G.half_edges)
    for a in halves:
        for b in halves:
            s = G.skew_pair(a, b)
            assert s in (-1, 0, 1)
            assert s == -G.skew_pair(b, a)
            if G.edge_of[a] == G.edge_of[b]:
                assert s == 0


def test_genus_and_size():
    for g in (1, 2, 3, 4):
        G = symplectic_graph(g).graph
        assert G.genus() == g
        assert len(G.vertices) == 4 * g
        assert len(G.edges) == 6 * g - 1
        assert sorted(map(len, G.vertices)) == [1] + [3] * (4 * g - 1)


def test_movable_edges_excludes_tail():
    mg = symplectic_graph(2)
    names = mg.edge_names
    movable = mg.graph.movable_edges()
    assert names["t"] not in movable
    assert set(movable) == set(mg.graph.edges) - {names["t"]}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_walk_graphs_have_no_loops_and_move_on_every_non_tail_edge(g):
    path = random_walk(symplectic_graph(g), 12, random.Random(30 + g))
    for G in [path.initial.graph] + [mv.result.graph for mv in path.moves]:
        ends = {e: (G.vertex_of[a], G.vertex_of[b])
                for e, (a, b) in G.edges.items()}
        assert all(v != w for v, w in ends.values())
        # the filter movable_edges once applied: both ends trivalent
        joined = sorted(e for e, (v, w) in ends.items()
                        if len(G.vertices[v]) == len(G.vertices[w]) == 3)
        assert G.movable_edges() == joined
        assert joined == sorted(set(G.edges) - {G.edge_of[G.tail]})


# -- markings --------------------------------------------------------------


def test_marking_validation_catches_tampering():
    mg = symplectic_graph(1)
    bad = dict(mg.h)
    some = next(h for h in mg.graph.half_edges if any(bad[h]))
    bad[some] = tuple(2 * c for c in bad[some])
    with pytest.raises(ValueError):
        MarkedFatgraph(mg.graph, bad)


def test_marking_validation_catches_wrong_boundary_word():
    # swapping the two generators everywhere keeps every vertex relation
    # but conjugates the tail word away from the standard relator
    mg = symplectic_graph(1)
    swap = [(2,), (1,)]
    pi = {x: w_endo(swap, w) for x, w in mg.pi.items()}
    h = {x: w_abelianize(w, 2) for x, w in pi.items()}
    with pytest.raises(ValueError, match="boundary word"):
        MarkedFatgraph(mg.graph, h, pi)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_marking_validation_catches_degenerate_homology(g):
    # a rank-deficient linear image keeps reversal oddness and every
    # vertex balance, so only the rank check can catch it
    mg = symplectic_graph(g)
    crush = {x: (v[0] + v[1], *v[1:-1], 0) for x, v in mg.h.items()}
    with pytest.raises(ValueError, match="span"):
        MarkedFatgraph(mg.graph, crush)


def test_marking_validation_names_out_of_range_generators():
    # generator 7 on both halves of an edge passes the reversal check and
    # must be caught before the abelianization reads its slot
    mg = symplectic_graph(1)
    x = next(h for h in mg.graph.half_edges if mg.pi[h] == (1,))
    pi = dict(mg.pi)
    pi[x], pi[mg.graph.pair_[x]] = (7,), (-7,)
    named = f"half-edge ({x}|{mg.graph.pair_[x]}) uses generator 7"
    with pytest.raises(ValueError, match=named):
        MarkedFatgraph(mg.graph, mg.h, pi)


def test_marking_validation_names_the_half_edge_at_fault():
    mg = symplectic_graph(1)
    x = mg.graph.oriented(mg.edge_names["u1"])
    short = dict(mg.h)
    short[x] = (1,)
    with pytest.raises(ValueError,
                       match=f"marking vector at half-edge {x} has length 1"):
        MarkedFatgraph(mg.graph, short)
    missing = {y: v for y, v in mg.h.items() if y != x}
    with pytest.raises(ValueError, match=f"H-marking must cover every "
                       f"oriented edge: half-edge {x} is missing"):
        MarkedFatgraph(mg.graph, missing)
    extra = dict(mg.h)
    extra[99] = (0, 0)
    with pytest.raises(ValueError,
                       match="H-marking .* half-edge 99 is not in the graph"):
        MarkedFatgraph(mg.graph, extra)
    # a key of another type is named too, not compared with the ints
    extra = {**mg.h, "x": (0, 0)}
    with pytest.raises(ValueError, match="half-edge 'x' is not in the graph"):
        MarkedFatgraph(mg.graph, extra)
    pi = {y: w for y, w in mg.pi.items() if y != x}
    with pytest.raises(ValueError,
                       match=f"pi-marking .* half-edge {x} is missing"):
        MarkedFatgraph(mg.graph, mg.h, pi)


def test_h_marking_alone_is_enough():
    mg = symplectic_graph(2)
    just_h = MarkedFatgraph(mg.graph, mg.h)
    assert just_h.pi is None


def test_markings_are_read_only():
    # tables and the cached is_geometric are read off the markings once,
    # so a marking changed in place would leave them describing the old one
    mg = symplectic_graph(1)
    x = next(h for h in mg.graph.half_edges if mg.pi[h] == (1,))
    with pytest.raises(TypeError):
        mg.h[x] = (5, 5)
    with pytest.raises(TypeError):
        mg.pi[x] = (2,)
    # nor can a whole marking be rebound, here to the handle-swapped one
    other = mg.apply_basis_change([[0, 1], [1, 0]])
    with pytest.raises(AttributeError):
        mg.h = other.h
    with pytest.raises(AttributeError):
        mg.pi = None
    assert mg.h[x] == (1, 0) and mg.pi[x] == (1,)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_symplectic_graph_is_geometric(g):
    mg = symplectic_graph(g)
    assert mg.is_geometric()
    tbar = mg.graph.pair_[mg.graph.tail]
    assert mg.pi[tbar] == boundary_word(g)


def test_geometricity_respects_symplectic_change_of_basis():
    mg = symplectic_graph(2)
    # exchanging the two handles preserves the pairing
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert mg.apply_basis_change(swap).is_geometric()
    # exchanging u's with v's flips it
    flip = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert not mg.apply_basis_change(flip).is_geometric()


def test_basis_change_checks_shape():
    with pytest.raises(ValueError, match="2g x 2g"):
        symplectic_graph(1).apply_basis_change([[1, 0]])


def test_integral_markings_are_stored_as_ints():
    mg = symplectic_graph(2)
    as_fracs = {x: tuple(Fraction(c) for c in v) for x, v in mg.h.items()}
    mf = MarkedFatgraph(mg.graph, as_fracs, mg.pi)
    assert mf.h == mg.h
    assert all(type(c) is int for v in mf.h.values() for c in v)
    for x in mg.graph.half_edges:
        assert MagnusTable(mf, 3).ell(x) == MagnusTable(mg, 3).ell(x)
    moved = mg.apply_basis_change(random_symplectic_matrix(2, random.Random(5)))
    assert moved.is_geometric()
    assert all(type(c) is int for v in moved.h.values() for c in v)
    # a non-integral marking keeps its Fractions exactly
    half = MarkedFatgraph(mg.graph, {x: tuple(Fraction(c, 2) for c in v)
                                     for x, v in mg.h.items()})
    assert all(c.denominator == 2 for v in half.h.values() for c in v
               if isinstance(c, Fraction))
    assert {x: tuple(2 * c for c in v) for x, v in half.h.items()} == mg.h


# -- Whitehead move input checks ------------------------------------------


def test_whitehead_rejects_the_tail_edge_and_an_unknown_edge():
    mg = symplectic_graph(2)
    tail_edge = mg.edge_names["t"]
    with pytest.raises(ValueError, match=f"cannot move on the tail edge "
                                         f"{tail_edge}$"):
        whitehead(mg, tail_edge)
    with pytest.raises(ValueError, match="no edge 99"):
        whitehead(mg, 99)
    # apply_path names the step that failed
    with pytest.raises(ValueError, match=r"step 1 \(edge 99\): no edge 99"):
        apply_path(mg, [mg.graph.movable_edges()[0], 99])


@pytest.mark.parametrize("as_other_type", [float, bool])
def test_whitehead_rejects_a_non_int_edge_id(as_other_type):
    mg = symplectic_graph(2)
    # 3.0 == 3 and True == 1 both find a movable edge by dict lookup
    eid = 1 if as_other_type is bool else 3
    assert eid in mg.graph.movable_edges()
    bad = as_other_type(eid)
    with pytest.raises(ValueError, match=f"edge id {bad!r} is not an int"):
        whitehead(mg, bad)


# -- Whitehead moves -------------------------------------------------------


def test_move_preserves_genus_and_edges():
    mg = symplectic_graph(2)
    for eid in mg.graph.movable_edges():
        mv = whitehead(mg, eid)
        assert mv.result.genus() == 2
        assert set(mv.result.graph.edges) == set(mg.graph.edges)
        assert mv.source is mg
        assert mv.edge_id == eid


def test_move_labels_sit_at_the_right_vertices():
    mg = symplectic_graph(1)
    for eid in mg.graph.movable_edges():
        mv = whitehead(mg, eid)
        G = mg.graph
        e1 = mv.e_head
        e0 = G.pair_[e1]
        assert {G.vertex_of[x] for x in (mv.a, mv.b)} == {G.vertex_of[e1]}
        assert {G.vertex_of[x] for x in (mv.c, mv.d)} == {G.vertex_of[e0]}
        # the new edge balances against a and d at its head vertex
        fa, fd = mv.source.h[mv.a], mv.source.h[mv.d]
        assert mv.result.h[e1] == tuple(-(x + y) for x, y in zip(fa, fd))


def test_move_is_involutive_up_to_rooted_isomorphism():
    rng = random.Random(3)
    mg = symplectic_graph(2)
    for _ in range(6):
        eid = rng.choice(mg.graph.movable_edges())
        once = whitehead(mg, eid)
        twice = whitehead(once.result, eid)
        iso = rooted_isomorphism(mg.graph, twice.result.graph)
        assert iso is not None
        assert markings_equal(mg, twice.result, iso)
        mg = once.result


def test_geometricity_is_transported():
    rng = random.Random(11)
    path = random_walk(symplectic_graph(2), 12, rng)
    for mv in path.moves:
        assert mv.result.is_geometric()
        # the copied flag agrees with a fresh computation
        assert MarkedFatgraph(mv.result.graph, mv.result.h).is_geometric()
    flip = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    off = symplectic_graph(2).apply_basis_change(flip)
    for mv in random_walk(off, 12, rng).moves:
        assert not mv.result.is_geometric()
        assert not MarkedFatgraph(mv.result.graph, mv.result.h).is_geometric()


def test_geometricity_is_known_by_construction():
    # constructors that can tell set the flag; other graphs compute it
    # once, on first ask
    mg = symplectic_graph(2)
    assert mg._geometric is True
    assert whitehead(mg, mg.graph.movable_edges()[0]).result._geometric
    flip = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    off = mg.apply_basis_change(flip)
    assert off._geometric is False
    assert whitehead(off, off.graph.movable_edges()[0]).result._geometric \
        is False
    # a non-symplectic matrix can undo a non-geometric marking, so from
    # one the result is left to compute
    back = off.apply_basis_change(flip)
    assert back._geometric is None
    assert back.is_geometric() and back._geometric is True
    bare = MarkedFatgraph(mg.graph, mg.h)
    assert bare._geometric is None
    assert bare.is_geometric() and bare._geometric is True
    mg.check_geometric()
    with pytest.raises(ValueError, match=r"not geometric: half-edges \d+ "
                                         r"and \d+ link -?\d+ on the boundary "
                                         r"but their markings pair to -?\d+"):
        off.check_geometric()


def assert_equals_full_construction(mg):
    """mg passes the full check and equals the validated construction of
    its own markings, entry types and geometric flag included."""
    mg._validate()
    full = MarkedFatgraph(mg.graph, mg.h, mg.pi)
    assert mg.h == full.h and mg.pi == full.pi
    assert {x: tuple(map(type, v)) for x, v in mg.h.items()} \
        == {x: tuple(map(type, v)) for x, v in full.h.items()}
    assert mg._geometric == full.is_geometric()


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_canonical_graphs_are_distinct_valid_copies(g):
    # symplectic_graph copies one validated template per genus; each call
    # must be its own marked graph with its own names and table cache
    first, second = symplectic_graph(g), symplectic_graph(g)
    assert first is not second
    assert first.magnus_tables == {} and second.magnus_tables == {}
    assert first.magnus_tables is not second.magnus_tables
    assert first.h == second.h and first.pi == second.pi
    assert first.graph.chord_key() == second.graph.chord_key()
    assert first.edge_names == second.edge_names
    assert first.edge_names is not second.edge_names
    for mg in (first, second):
        assert_equals_full_construction(mg)
    # the copies share one graph, whose vertices and half-edge set
    # cannot be edited in place
    assert first.graph is second.graph
    assert type(first.graph.vertices) is tuple
    assert type(first.graph.half_edges) is frozenset
    names = dict(first.edge_names)
    first.edge_names["t"] = -1
    del first.edge_names["u1"]
    assert symplectic_graph(g).edge_names == names == second.edge_names
    get_table(first, 2)
    assert list(first.magnus_tables) == [2]
    assert second.magnus_tables == {}
    assert symplectic_graph(g).magnus_tables == {}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_whitehead_results_are_valid_by_construction(g):
    # whitehead trusts its results; each must still pass the full check
    rng = random.Random(100 + g)
    for _ in range(3):
        for mv in random_walk(symplectic_graph(g), 10, rng).moves:
            assert mv.result.pi is not None
            assert_equals_full_construction(mv.result)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_whitehead_graphs_equal_the_checked_construction(g):
    # whitehead builds its graph unchecked, sharing the source's pairing;
    # it must equal what the public constructor builds from its vertices
    for mv in random_walk(symplectic_graph(g), 12, random.Random(g)).moves:
        src, G = mv.source.graph, mv.result.graph
        full = Fatgraph(G.vertices, G.edges, G.tail)
        assert vars(G) == vars(full)
        assert G.chord_key() == full.chord_key()
        for name in ("edges", "pair_", "edge_of", "half_edges"):
            assert getattr(G, name) is getattr(src, name)
        assert G.next_ is not src.next_ and G.vertex_of is not src.vertex_of
        # the two new vertices take the indices of the two old ones, and
        # every other vertex keeps its own
        e1, e0 = mv.e_head, src.pair_[mv.e_head]
        moved = {src.vertex_of[e1]: (e1, mv.a, mv.d),
                 src.vertex_of[e0]: (e0, mv.c, mv.b)}
        assert G.vertices is not src.vertices
        assert G.vertices == tuple(moved.get(i, v)
                                   for i, v in enumerate(src.vertices))


def test_whitehead_results_normalize_fraction_markings():
    # a Fraction marking with no pi: the sum that marks f can be integral,
    # and must then be stored as an int
    mg = symplectic_graph(2).apply_basis_change(
        [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]])
    assert mg.pi is None and mg._geometric is False
    integral_sums = 0
    for mv in random_walk(mg, 40, random.Random(7)).moves:
        fa, fd = mv.source.h[mv.a], mv.source.h[mv.d]
        integral_sums += any(
            type(x) is Fraction and type(y) is Fraction
            and (x + y).denominator == 1 for x, y in zip(fa, fd))
        assert_equals_full_construction(mv.result)
    assert integral_sums


def test_apply_path_records_and_reports():
    rng = random.Random(5)
    mg = symplectic_graph(1)
    path = random_walk(mg, 5, rng)
    assert len(path) == 5
    assert path.initial is mg
    replay = apply_path(mg, path.edge_ids)
    iso = rooted_isomorphism(path.final.graph, replay.final.graph)
    assert iso is not None and markings_equal(path.final, replay.final, iso)

    names = mg.edge_names
    with pytest.raises(ValueError, match="step 0"):
        apply_path(mg, [names["t"]])


def test_move_paths_must_chain():
    mg = symplectic_graph(2)
    e1, e2 = mg.graph.movable_edges()[:2]
    m1, m2 = whitehead(mg, e1), whitehead(mg, e2)
    with pytest.raises(ValueError,
                       match=f"step 1 \\(edge {e2}\\) does not start from "
                             "the result of step 0"):
        MovePath(mg, (m1, m2))
    with pytest.raises(ValueError,
                       match=f"step 0 \\(edge {e1}\\) does not start from "
                             "the initial graph"):
        MovePath(symplectic_graph(2), (m1,))
    chained = MovePath(mg, (m1, whitehead(m1.result, e2)))
    assert chained.final is chained.moves[1].result
    assert MovePath(mg, ()).final is mg


def test_move_paths_take_only_moves():
    with pytest.raises(ValueError, match="step 0 is 3, not a WhiteheadMove"):
        MovePath(symplectic_graph(2), (3,))


def test_identity_path_verifies_identity_endomorphism():
    mg = symplectic_graph(2)
    gens = [(k,) for k in range(1, 5)]
    assert pi_verify(apply_path(mg, []), gens)


def test_move_and_undo_verifies_identity_endomorphism():
    mg = symplectic_graph(2)
    eid = mg.graph.movable_edges()[0]
    path = apply_path(mg, [eid, eid])
    gens = [(k,) for k in range(1, 5)]
    assert pi_verify(path, gens)
    # and it is not the endomorphism inverting a generator
    bad = [(-1,)] + gens[1:]
    assert not pi_verify(path, bad)


def test_pi_verify_needs_isomorphic_endpoints():
    mg = symplectic_graph(2)
    eid = mg.graph.movable_edges()[0]
    path = apply_path(mg, [eid])
    if rooted_isomorphism(mg.graph, path.final.graph) is None:
        with pytest.raises(ValueError, match="not isomorphic"):
            pi_verify(path, [(k,) for k in range(1, 5)])


def test_pi_verify_needs_one_image_per_generator():
    path = apply_path(symplectic_graph(2), [])
    with pytest.raises(ValueError, match="needs 4 images, one per generator, "
                                         "got 3"):
        pi_verify(path, [(k,) for k in range(1, 4)])


# -- rooted isomorphism ----------------------------------------------------


def test_rooted_isomorphism_identity_and_relabel():
    G = symplectic_graph(2).graph
    iso = rooted_isomorphism(G, G)
    assert iso == {h: h for h in G.half_edges}

    shift = 100
    verts = [tuple(h + shift for h in v) for v in G.vertices]
    edges = {e: (a + shift, b + shift) for e, (a, b) in G.edges.items()}
    G2 = Fatgraph(verts, edges, tail=G.tail + shift)
    iso = rooted_isomorphism(G, G2)
    assert iso == {h: h + shift for h in G.half_edges}

    assert rooted_isomorphism(G, symplectic_graph(3).graph) is None


def relabelled(G, shift):
    """A copy of G with every half-edge id moved up by shift."""
    edges = {e: (a + shift, b + shift) for e, (a, b) in G.edges.items()}
    return Fatgraph([tuple(h + shift for h in v) for v in G.vertices], edges,
                    tail=G.tail + shift)


def isomorphism_pool():
    """Genus 1-3 graphs along fixed-seed walks, each step with its
    move-then-undo graph and, where two movable edges share no vertex,
    both corners of their commuting square; plus a relabelled copy of
    each walk's end."""
    rng = random.Random(17)
    pool = []
    for g in (1, 2, 3):
        mg = symplectic_graph(g)
        for _ in range(8):
            G = mg.graph
            e1 = rng.choice(G.movable_edges())
            once = whitehead(mg, e1)
            pool += [G, whitehead(once.result, e1).result.graph]
            ends1 = {G.vertex_of[h] for h in G.edges[e1]}
            apart = [e for e in G.movable_edges()
                     if not ends1 & {G.vertex_of[h] for h in G.edges[e]}]
            if apart:
                e2 = rng.choice(apart)
                pool += [whitehead(once.result, e2).result.graph,
                         whitehead(whitehead(mg, e2).result, e1).result.graph]
            mg = once.result
        pool.append(relabelled(mg.graph, 1000))
    return pool


def test_rooted_isomorphism_equals_the_traversal_reference():
    pool = isomorphism_pool()
    keys = [G.chord_key() for G in pool]
    isomorphic = 0
    for G1, k1 in zip(pool, keys):
        for G2, k2 in zip(pool, keys):
            want = reference_rooted_isomorphism(G1, G2)
            assert rooted_isomorphism(G1, G2) == want
            assert (k1 == k2) == (want is not None)
            isomorphic += want is not None
    assert len(pool) ** 2 >= 1000 and isomorphic >= 100


def test_solve_vertex_word_solves_the_relation():
    rng = random.Random(2)
    mg = symplectic_graph(2)
    tail_v = mg.graph.vertex_of[mg.graph.tail]
    for vi, v in enumerate(mg.graph.vertices):
        if vi == tail_v:
            continue
        missing = rng.choice(v)
        known = {h: mg.pi[h] for h in v if h != missing}
        assert solve_vertex_word(v, known, missing) == mg.pi[missing]


# -- the canonical family --------------------------------------------------


def test_edge_names_cover_the_construction():
    names = symplectic_graph(3).edge_names
    expected = {"t", "c1", "c2", "s1", "s2"}
    expected |= {f"{s}{i}" for s in "pquv" for i in (1, 2, 3)}
    assert set(names) == expected
    mg = symplectic_graph(3)
    assert mg.graph.edge_of[mg.graph.tail] == names["t"]
    assert mg.edge_names == names


def test_handle_edges_carry_the_standard_generators():
    g = 3
    mg = symplectic_graph(g)
    names = mg.edge_names
    for i in range(1, g + 1):
        assert mg.pi[mg.graph.oriented(names[f"u{i}"])] == (i,)
        assert mg.pi[mg.graph.oriented(names[f"v{i}"])] == (g + i,)


def test_canonical_pi_markings_word_for_word():
    # every half-edge of the genus-1 and genus-2 chains, by id
    assert symplectic_graph(1).pi == {
        0: (2, 1, -2, -1), 1: (1, 2, -1, -2), 2: (-2, -1), 3: (1, 2),
        4: (2, 1), 5: (-1, -2), 6: (-1,), 7: (1,), 8: (-2,), 9: (2,)}
    assert symplectic_graph(2).pi == {
        0: (4, 2, -4, -2, 3, 1, -3, -1), 1: (1, 3, -1, -3, 2, 4, -2, -4),
        2: (3, 1, -3, -1), 3: (1, 3, -1, -3), 4: (4, 2, -4, -2),
        5: (2, 4, -2, -4), 6: (-3, -1), 7: (1, 3), 8: (3, 1), 9: (-1, -3),
        10: (-1,), 11: (1,), 12: (-3,), 13: (3,), 14: (-4, -2),
        15: (2, 4), 16: (4, 2), 17: (-2, -4), 18: (-2,), 19: (2,),
        20: (-4,), 21: (4,)}


def test_spine_edges_cut_off_subchains():
    # the spine edge named s_h separates a genus-h subgraph
    g = 3
    mg = symplectic_graph(g)
    names = mg.edge_names
    G = mg.graph
    for hh in (1, 2):
        head = G.oriented(names[f"s{hh}"])
        seen = set()
        stack = [head]
        while stack:
            x = stack.pop()
            for nb in G.vertices[G.vertex_of[x]]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
                    far = G.pair_[nb]
                    if nb != head and far not in seen:
                        seen.add(far)
                        stack.append(far)
        handle_edges = {G.edge_of[h] for h in seen}
        inside = {i for i in range(1, g + 1)
                  if names[f"u{i}"] in handle_edges}
        assert len(inside) == hh


def test_symplectic_graph_rejects_bad_genus():
    with pytest.raises(ValueError):
        symplectic_graph(0)


@pytest.mark.parametrize("genus", [2.5, "2"])
def test_symplectic_graph_rejects_a_non_int_genus(genus):
    with pytest.raises(ValueError, match="genus must be an int, "
                                         f"got {genus!r}"):
        symplectic_graph(genus)
