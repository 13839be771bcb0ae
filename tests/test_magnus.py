"""Edge-series tables: group-like expansions attached to marked fatgraphs.

The degree-4 series of the canonical chain graphs are frozen here as
independently reconstructed bracket combinations; everything else is
checked through structural identities that hold on every reachable graph.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from helpers import (
    ReferenceMagnusTable,
    figure_eight,
    random_walk,
    reference_lie_pretty,
)
from fatmagnus.algebra import (
    TruncatedTensor,
    apply_letter_map,
    exp_t,
    is_lie,
    is_symplectic_matrix,
    lie_pretty,
    matrix_letter_images,
    right_bracketing,
    symplectic_form,
)
from fatmagnus.fatgraph import (
    MarkedFatgraph,
    MovePath,
    symplectic_edge_names,
    symplectic_graph,
    whitehead,
)
from fatmagnus.johnson import _path_steps, path_ia
from fatmagnus.magnus import (
    MagnusTable,
    check_relations,
    dump_table,
    ell_word,
    get_table,
)

N = 4


def rb(g, *letters):
    return right_bracketing(g, letters, N)


# frozen reference series for the canonical graph, reconstructed from
# scratch as explicit bracket combinations (handle i uses letters
# u = i-1, v = g+i-1)


def series_u(g, i):
    u, v = i - 1, g + i - 1
    t = TruncatedTensor.letter(g, u, N)
    t = t + rb(g, u, v).scaled(Fraction(1, 2))
    t = t - rb(g, u, u, v).scaled(Fraction(1, 9))
    t = t - rb(g, v, u, v).scaled(Fraction(1, 18))
    return t + (rb(g, u, u, u, v) + rb(g, u, v, u, v)
                - rb(g, v, v, u, v)).scaled(Fraction(1, 72))


def series_v(g, i):
    u, v = i - 1, g + i - 1
    t = TruncatedTensor.letter(g, v, N)
    t = t - rb(g, u, v).scaled(Fraction(1, 2))
    t = t + rb(g, v, u, v).scaled(Fraction(1, 9))
    t = t + rb(g, u, u, v).scaled(Fraction(1, 18))
    return t + (rb(g, u, u, u, v) - rb(g, u, v, u, v)
                - rb(g, v, v, u, v)).scaled(Fraction(1, 72))


def series_tail(g):
    t = TruncatedTensor(g, N)
    for i in range(1, g + 1):
        u, v = i - 1, g + i - 1
        t = t - rb(g, u, v)
        t = t + (rb(g, u, u, u, v) + rb(g, u, v, u, v)
                 + rb(g, v, v, u, v)).scaled(Fraction(1, 36))
    # cross-handle correction forced by multiplicativity over the
    # boundary word; absent at genus 1
    for i in range(1, g + 1):
        for j in range(i + 1, g + 1):
            wi = rb(g, i - 1, g + i - 1)
            wj = rb(g, j - 1, g + j - 1)
            t = t - wi.bracket(wj).scaled(Fraction(1, 2))
    return t


@pytest.mark.parametrize("g", [1, 2])
def test_frozen_series_on_canonical_graph(g):
    mg = symplectic_graph(g)
    names = symplectic_edge_names(g)
    tab = get_table(mg, N)
    for i in range(1, g + 1):
        u_head = mg.graph.oriented(names[f"u{i}"])
        v_head = mg.graph.oriented(names[f"v{i}"])
        assert tab.ell(u_head) == series_u(g, i)
        assert tab.ell(v_head) == series_v(g, i)
    assert tab.ell(mg.graph.tail) == series_tail(g)


def test_frozen_tail_series_genus_three():
    mg = symplectic_graph(3)
    assert get_table(mg, N).ell(mg.graph.tail) == series_tail(3)


# -- structural identities on arbitrary reachable graphs -------------------


def walked(g, steps, seed):
    rng = random.Random(seed)
    return random_walk(symplectic_graph(g), steps, rng).final


def test_degree_one_is_the_homology_marking():
    mg = walked(2, 6, seed=1)
    tab = get_table(mg, N)
    for x in mg.graph.half_edges:
        want = TruncatedTensor.from_vector(2, mg.h[x], N)
        assert tab.ell(x).graded(1) == want


def test_reversal_flips_ell_and_inverts_theta():
    mg = walked(2, 6, seed=2)
    tab = get_table(mg, N)
    unit = TruncatedTensor.unit(2, N)
    for x in mg.graph.half_edges:
        xb = mg.graph.reverse(x)
        assert tab.ell(xb) == tab.ell(x).scaled(-1)
        assert tab.theta(x) * tab.theta(xb) == unit


def test_theta_multiplies_to_one_around_vertices():
    mg = walked(2, 5, seed=3)
    tab = get_table(mg, N)
    unit = TruncatedTensor.unit(2, N)
    tail_v = mg.graph.vertex_of[mg.graph.tail]
    for vi, v in enumerate(mg.graph.vertices):
        if vi == tail_v:
            continue
        prod = unit
        # the relation reads the stored cyclic order backwards
        for x in reversed(v):
            prod = prod * tab.theta(x)
        assert prod == unit


def test_degree_two_is_the_boundary_bracket_sum():
    mg = walked(2, 5, seed=4)
    G = mg.graph
    tab = get_table(mg, N)
    for x in G.half_edges:
        path = G.edge_path_to_reverse(x)
        if path is None:
            continue
        f = [TruncatedTensor.from_vector(2, mg.h[p], N) for p in path]
        acc = TruncatedTensor(2, N)
        for i in range(1, len(f)):
            acc = acc + f[i - 1].bracket(f[i])
        assert tab.ell(x).graded(2) == acc.scaled(Fraction(1, 6))


@pytest.mark.parametrize("g", [1, 2])
def test_tail_theta_is_constant_through_degree_three(g):
    for seed in (5, 6):
        mg = walked(g, 7, seed=seed)
        tab = get_table(mg, N)
        th = tab.theta(mg.graph.tail)
        assert th.graded(0) == TruncatedTensor.unit(g, N)
        assert th.graded(1).is_zero()
        assert th.graded(2) == symplectic_form(g, N).scaled(-1)
        assert th.graded(3).is_zero()


def test_all_values_are_lie_elements():
    mg = walked(2, 4, seed=7)
    tab = get_table(mg, N)
    for x in mg.graph.half_edges:
        assert is_lie(tab.ell(x))


def test_degree_five_properties():
    mg = symplectic_graph(1)
    tab = get_table(mg, 5)
    for x in mg.graph.half_edges:
        v = tab.ell(x)
        assert not v.graded(5).is_zero() or v.is_zero()
        assert is_lie(v)
        assert tab.ell(mg.graph.reverse(x)) == v.scaled(-1)


def test_tables_are_memoized_and_hand_out_their_values():
    mg = symplectic_graph(1)
    assert get_table(mg, N) is get_table(mg, N)
    tab = get_table(mg, N)
    a = tab.ell(mg.graph.tail)
    b = tab.ell(mg.graph.tail)
    # tensors are values, so a read shares the stored tensor, uncopied
    assert a == b and a is b


def test_cached_tables_do_not_keep_their_graph_alive():
    mg = symplectic_graph(1)
    get_table(mg, 2)
    ref = weakref.ref(mg)
    del mg
    gc.collect()
    assert ref() is None


def test_dropping_a_graph_frees_its_tables_without_the_collector():
    mg = symplectic_graph(2)
    refs = [weakref.ref(get_table(mg, n)) for n in (2, 3)]
    assert refs[0]().mg is mg and refs[0]().graph is mg.graph
    gc.disable()
    try:
        del mg
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_build_equals_the_prefix_sum_reference(g):
    # degrees 2-6, each on a fixed-seed walk of 0-3 moves
    rng = random.Random(g)
    for n in range(2, 7):
        mg = random_walk(symplectic_graph(g), (n + g) % 4, rng).final
        ref = ReferenceMagnusTable(mg, n)
        tab = MagnusTable(mg, n)
        for h in mg.graph.half_edges:
            assert tab.ell(h) == ref.ell[h]
            assert tab.theta(h) == exp_t(ref.ell[h])
            assert tab.P(h) == ref.P[h]
            assert tab.Q(h) == ref.Q[h]
            assert tab.R(h) == ref.R[h]


def theta_closes(theta, mg):
    """theta multiplies to one around every vertex but the tail's."""
    G = mg.graph
    unit = TruncatedTensor.unit(mg.genus(), theta(G.tail).max_degree)
    tail_v = G.vertex_of[G.tail]
    for vi, v in enumerate(G.vertices):
        if vi != tail_v:
            prod = unit
            for x in reversed(v):
                prod = prod * theta(x)
            if prod != unit:
                return False
    return True


@pytest.mark.parametrize("g,n", [(1, 6), (2, 5), (3, 4), (4, 3)])
def test_transported_tables_equal_the_built_tables(g, n):
    # whole-table naturality in the initial frame: the table L_k that
    # path_ia reads at step k, carried along the walk by changing only
    # the moved edges, is the built table of graph k pulled back by the
    # path map of the first k moves
    path = random_walk(symplectic_graph(g), 6, random.Random(100 * g))
    for k, (mv, ell) in enumerate(_path_steps(path, n - 1)):
        assert mv is path.moves[k]
        pull = path_ia(MovePath(path.initial, path.moves[:k]), n - 1)
        built = MagnusTable(mv.source, n)
        assert set(ell) == mv.source.graph.half_edges
        for h in ell:
            assert pull.apply(built.ell(h)) == ell[h]
        assert theta_closes(lambda x: exp_t(ell[x]), mv.source)
    # only the initial table is built and kept
    assert all(mv.result.magnus_tables == {} for mv in path.moves)


def test_expansion_ignores_the_pi_marking():
    mg = symplectic_graph(2)
    bare = MarkedFatgraph(mg.graph, mg.h)
    ta, tb = get_table(mg, N), get_table(bare, N)
    for x in mg.graph.half_edges:
        assert ta.ell(x) == tb.ell(x)


def test_equivariance_under_symplectic_basis_change():
    g = 2
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    shear = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    mg = walked(g, 4, seed=8)
    tab = get_table(mg, N)
    for m in (swap, shear):
        assert is_symplectic_matrix(g, m)
        moved = get_table(mg.apply_basis_change(m), N)
        images = matrix_letter_images(g, m, N)
        for x in mg.graph.half_edges:
            assert moved.ell(x) == apply_letter_map(tab.ell(x), images)


# -- integral tables -------------------------------------------------------


def test_integral_tables_scale_the_graded_parts():
    # the reference's recursive bracket formulas against ell itself, on
    # genus 1-3 walks and one walk from a marking with Fraction entries
    half = [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
            [0, 0, 0, Fraction(1, 2)]]
    fractional = symplectic_graph(2).apply_basis_change(half)
    graphs = [(walked(g, 4, seed=9), True) for g in (1, 2, 3)]
    graphs.append((random_walk(fractional, 4, random.Random(9)).final, False))
    for mg, unimodular in graphs:
        ref = ReferenceMagnusTable(mg, N)
        tab = MagnusTable(mg, N)
        for x in mg.graph.half_edges:
            lv = ref.ell[x]
            assert ref.P[x] == lv.graded(2).scaled(6) == tab.P(x)
            assert ref.Q[x] == lv.graded(3).scaled(36) == tab.Q(x)
            assert ref.R[x] == lv.graded(4).scaled(216) == tab.R(x)
            if unimodular:
                for t in (ref.P[x], ref.Q[x], ref.R[x], ref.qhat[x]):
                    assert all(c.denominator == 1 for _, c in t.terms())


def test_table_readers_name_a_half_edge_not_in_the_graph():
    mg = symplectic_graph(1)
    tab = get_table(mg, N)
    assert 999 not in mg.graph.half_edges
    for read in (tab.ell, tab.theta, tab.P, tab.Q, tab.R):
        with pytest.raises(ValueError, match="half-edge 999 is not in the graph"):
            read(999)


def test_tail_P_is_minus_six_omega():
    for g in (1, 2, 3):
        mg = symplectic_graph(g)
        want = symplectic_form(g, N).scaled(-6)
        assert get_table(mg, N).P(mg.graph.tail) == want


def vertex_q_relation(mg, tab, q_of):
    """First failing vertex for the cubic vertex identity, or None."""
    G = mg.graph
    tail_v = G.vertex_of[G.tail]
    for vi, v in enumerate(G.vertices):
        if vi == tail_v:
            continue
        a, b, e = tuple(reversed(v))
        ha = TruncatedTensor.from_vector(mg.genus(), mg.h[a], N)
        hb = TruncatedTensor.from_vector(mg.genus(), mg.h[b], N)
        rhs = (tab.P(a).bracket(hb) + ha.bracket(tab.P(b))
               + ha.bracket(ha.bracket(hb))
               - hb.bracket(ha.bracket(hb))).scaled(-3)
        if q_of(a) + q_of(b) + q_of(e) != rhs:
            return vi
    return None


def test_q_and_qhat_satisfy_the_vertex_identity():
    mg = walked(2, 5, seed=10)
    tab = get_table(mg, N)
    assert vertex_q_relation(mg, tab, tab.Q) is None
    qhat = ReferenceMagnusTable(mg, N).qhat
    assert vertex_q_relation(mg, tab, qhat.__getitem__) is None


def test_relations_need_degree_three():
    mv = whitehead(symplectic_graph(2), 1)
    for n in (1, 2):
        with pytest.raises(ValueError, match=f"needs max_degree >= 3, got {n}"):
            check_relations(mv, n)
    assert check_relations(mv, 3) is None


def test_move_relations_hold_on_random_walks():
    rng = random.Random(11)
    cur = symplectic_graph(2)
    for _ in range(100):
        eid = rng.choice(cur.graph.movable_edges())
        mv = whitehead(cur, eid)
        assert check_relations(mv, N) is None
        cur = mv.result


# -- words of edges --------------------------------------------------------


def test_ell_word_cancels_and_closes():
    mg = walked(2, 3, seed=12)
    G = mg.graph
    x = G.oriented(G.movable_edges()[0])
    assert ell_word(mg, [x, G.reverse(x)], N).is_zero()
    tail_v = G.vertex_of[G.tail]
    vi = next(i for i in range(len(G.vertices)) if i != tail_v)
    assert ell_word(mg, tuple(reversed(G.vertices[vi])), N).is_zero()
    with pytest.raises(ValueError, match="empty edge word"):
        ell_word(mg, [], N)


def test_ell_word_reproduces_marking_words():
    # spelling out pi(x) in handle edges recovers the series of x itself
    g = 2
    mg = symplectic_graph(g)
    names = symplectic_edge_names(g)
    G = mg.graph
    gen_half = {}
    for i in range(1, g + 1):
        gen_half[i] = G.oriented(names[f"u{i}"])
        gen_half[g + i] = G.oriented(names[f"v{i}"])
    tab = get_table(mg, N)
    for x in G.half_edges:
        word = mg.pi[x]
        assert word
        halves = [gen_half[c] if c > 0 else G.reverse(gen_half[-c])
                  for c in word]
        assert ell_word(mg, halves, N) == tab.ell(x)


# -- reporting and rejection -----------------------------------------------


def test_dump_table_lists_every_edge():
    mg = symplectic_graph(1)
    out = dump_table(mg, N)
    for name in symplectic_edge_names(1):
        assert name in out
    assert len(out.splitlines()) >= len(mg.graph.edges)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_lie_pretty_of_table_values_equals_the_greedy_reference(g):
    path = random_walk(symplectic_graph(g), 2, random.Random(g))
    for mg in (path.initial, path.final):
        table = get_table(mg, 5)
        for eid in mg.graph.edges:
            x = table.ell(mg.graph.oriented(eid))
            assert lie_pretty(x) == reference_lie_pretty(x)


def test_table_requires_trivalent_graph():
    with pytest.raises(ValueError, match="trivalent"):
        MagnusTable(figure_eight(), N)
    with pytest.raises(ValueError, match="trivalent"):
        get_table(figure_eight(), N)


def test_trivalence_error_names_the_vertex_and_its_valence():
    mg = figure_eight()
    v = mg.graph.vertices[1]
    with pytest.raises(ValueError,
                       match=rf"vertex 1 \({', '.join(map(str, v))}\) "
                             rf"has valence 5"):
        MagnusTable(mg, N)
