"""Shared hypothesis strategies and small utilities for the test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from fatmagnus.algebra import IAMap, TruncatedTensor
from fatmagnus.fatgraph import (
    MovePath,
    solve_vertex_word,
    symplectic_graph,
    w_inv,
    whitehead,
)

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6).filter(lambda c: c != 0)


@st.composite
def tensors(draw, genus=1, max_degree=4, min_degree=0, max_terms=4):
    """A random truncated tensor with a handful of small-coefficient terms."""
    t = TruncatedTensor(genus, max_degree)
    nterms = draw(st.integers(0, max_terms))
    for _ in range(nterms):
        d = draw(st.integers(min_degree, max_degree))
        word = tuple(draw(st.lists(
            st.integers(0, 2 * genus - 1), min_size=d, max_size=d)))
        t = t + TruncatedTensor.from_terms(genus, {word: draw(coeffs)}, max_degree)
    return t


@st.composite
def lie_tensors(draw, genus=1, max_degree=4, max_terms=3):
    """A random Lie element: a combination of right-bracketed words."""
    from fatmagnus.algebra import right_bracketing

    t = TruncatedTensor(genus, max_degree)
    for _ in range(draw(st.integers(1, max_terms))):
        d = draw(st.integers(1, max_degree))
        word = tuple(draw(st.lists(
            st.integers(0, 2 * genus - 1), min_size=d, max_size=d)))
        t = t + right_bracketing(genus, word, max_degree).scaled(draw(coeffs))
    return t


@st.composite
def ia_maps(draw, genus=1, max_degree=4):
    corr = [draw(tensors(genus, max_degree, min_degree=2, max_terms=2))
            for _ in range(2 * genus)]
    return IAMap(corr)


def figure_eight():
    """Genus-1 graph data with a single 5-valent vertex carrying two loops.

    Returns (vertices, edges, tail, pi): well-formed but not trivalent, so
    Fatgraph rejects it; pi solves the vertex relation around vertex 1.
    """
    t0, t1, a0, a1, b0, b1 = range(6)
    edges = {0: (t0, t1), 1: (a0, a1), 2: (b0, b1)}
    verts = [(t0,), (t1, a1, b1, a0, b0)]
    pi = {a0: (1,), a1: (-1,), b0: (2,), b1: (-2,)}
    known = {h: pi[h] for h in verts[1] if h != t1}
    pi[t1] = solve_vertex_word(verts[1], known, t1)
    pi[t0] = w_inv(pi[t1])
    return verts, edges, t0, pi


def random_walk(mg, steps, rng):
    """A random Whitehead-move path of the given length, as a MovePath."""
    moves = []
    cur = mg
    for _ in range(steps):
        mv = whitehead(cur, rng.choice(cur.graph.movable_edges()))
        moves.append(mv)
        cur = mv.result
    return MovePath(mg, tuple(moves))


def walk_moves(g, steps, seed):
    """The individual moves of a fixed random walk from symplectic_graph(g)."""
    return random_walk(symplectic_graph(g), steps, random.Random(seed)).moves


def wedge_rich_path():
    """A 10-move genus-2 path on which 9 moves have a nonzero j1.

    The last 10 moves of the 40-move random walk from symplectic_graph(2)
    with seed 0, so folding j2 along it exercises the twisted term.  Each
    call rebuilds the graphs, so no two calls share a cached table.
    """
    moves = random_walk(symplectic_graph(2), 40, random.Random(0)).moves[30:]
    return MovePath(moves[0].source, moves)


def random_symplectic_matrix(genus, rng, transvections=3):
    """Random integral symplectic matrix as a product of transvections
    x -> x + dot(x, a) a; rows are letter images, the convention of
    MarkedFatgraph.apply_basis_change."""
    from fatmagnus.algebra import dot, is_symplectic_matrix

    n = 2 * genus
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(transvections):
        a = [rng.randint(-1, 1) for _ in range(n)]
        if not any(a):
            a[rng.randrange(n)] = 1
        pair = [int(dot([int(k == i) for k in range(n)], a))
                for i in range(n)]
        tr = [[int(i == j) + pair[i] * a[j] for j in range(n)]
              for i in range(n)]
        mat = [[sum(mat[i][k] * tr[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
    assert is_symplectic_matrix(genus, mat)
    return mat


def single_sector_vector(mg, edge_id, x):
    """Classify a test half-edge whose boundary run to its reverse crosses
    exactly one corner of the move on edge_id.

    Returns (sector label, pairing triple against the labels a, b, c).
    Asserts the structure that makes the reading well posed: the labels
    sit on four distinct edges, and the only a/b/c crossings between x
    and its reverse are the consecutive halves of a single corner
    passage.
    """
    from fatmagnus.algebra import dot

    G = mg.graph
    mv = whitehead(mg, edge_id)
    a, b, c, d = mv.a, mv.b, mv.c, mv.d
    e0, e1 = G.edges[edge_id]
    pr = G.pair_
    label_edges = {G.edge_of[h] for h in (a, b, c, d)}
    assert len(label_edges) == 4 and edge_id not in label_edges
    assert G.edge_of[x] not in label_edges | {edge_id, G.edge_of[G.tail]}
    passages = {
        "I": (pr[a], e1, d),
        "II": (pr[b], a),
        "III": (pr[c], e0, b),
        "IV": (pr[d], c),
    }
    cyc = G.boundary_cycle()
    i, j = cyc.index(x), cyc.index(pr[x])
    seg = cyc[i + 1:j] if i < j else cyc[i + 1:] + cyc[:j]
    abc = {a, pr[a], b, pr[b], c, pr[c]}
    hits = [h for h in seg if h in abc]
    for label, pat in passages.items():
        if hits != [h for h in pat if h in abc]:
            continue
        if not all(h in seg for h in pat):
            continue
        pos = [seg.index(h) for h in pat]
        assert pos == list(range(pos[0], pos[0] + len(pat)))
        return label, tuple(dot(mg.h[x], mg.h[y]) for y in (a, b, c))
    raise AssertionError("not a single-sector test edge")


def reference_exp_t(x: TruncatedTensor) -> TruncatedTensor:
    """The full-truncation Horner exp, kept as the reference for exp_t."""
    if x.comps[0]:
        raise ValueError("exp needs zero constant term")
    N = x.max_degree
    one = TruncatedTensor.unit(x.genus, N)
    acc = one
    for k in range(N, 0, -1):
        acc = one + (x * acc).scaled(Fraction(1, k))
    return acc


def reference_log_t(x: TruncatedTensor) -> TruncatedTensor:
    """The full-truncation Horner log, kept as the reference for log_t."""
    if Fraction(x.comps[0].get(0, 0), x.den) != 1:
        raise ValueError("log needs constant term 1")
    N = x.max_degree
    one = TruncatedTensor.unit(x.genus, N)
    y = x - one
    # log(1+y) = y(1 - y(1/2 - y(1/3 - ...))), Horner from the inside out
    acc = one.scaled(Fraction(1, N))
    for k in range(N - 1, 0, -1):
        acc = one.scaled(Fraction(1, k)) - y * acc
    return y * acc


def reference_ia_apply(m: IAMap, t: TruncatedTensor) -> TruncatedTensor:
    """The position-subset IAMap.apply, kept as a reference for the
    substitution routine."""
    if t.genus != m.genus or t.max_degree != m.max_degree:
        raise ValueError("shape mismatch")
    N = m.max_degree
    out = t
    corr = m.corrections
    extra = TruncatedTensor(m.genus, N)
    for word, coeff in t.terms():
        k = len(word)
        if k == 0 or k >= N:
            continue
        budget = N - k
        hot = [i for i, c in enumerate(word) if not corr[c].is_zero()]
        if not hot:
            continue
        # subsets of substitution positions, smallest first
        for mask_positions in _subsets(hot, budget):
            if not mask_positions:
                continue
            prod = None
            for i, c in enumerate(word):
                if i in mask_positions:
                    factor = corr[c]
                else:
                    factor = TruncatedTensor.letter(m.genus, c, N)
                prod = factor if prod is None else prod * factor
            extra = extra + prod.scaled(coeff)
    return out + extra


def _subsets(items, max_size):
    from itertools import combinations
    for r in range(1, min(len(items), max_size) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def reference_apply_letter_map(t: TruncatedTensor,
                               images) -> TruncatedTensor:
    """The word-by-word full-truncation substitution, kept as a reference
    for apply_letter_map."""
    if len(images) != t.nletters:
        raise ValueError("need one image per letter")
    out = TruncatedTensor(t.genus, t.max_degree)
    cache = {}
    for word, coeff in t.terms():
        if not word:
            out = out + TruncatedTensor.unit(t.genus, t.max_degree).scaled(coeff)
            continue
        if word not in cache:
            prod = images[word[0]]
            for c in word[1:]:
                prod = prod * images[c]
            cache[word] = prod
        out = out + cache[word].scaled(coeff)
    return out


def ell_word(mg, halves, max_degree):
    """Expansion of a word of oriented edges: the star product of their
    table values, kept as a reference routine."""
    from fatmagnus.algebra import star
    from fatmagnus.magnus import get_table

    if not halves:
        raise ValueError("empty edge word")
    table = get_table(mg, max_degree)
    total = table.ell(halves[0])
    for h in halves[1:]:
        total = star(total, table.ell(h))
    return total


def table_R(table, half):
    """The integral table R = 216 ell_4 of a half-edge, read off a
    MagnusTable as P and Q are."""
    return table.ell(half).graded(4).scaled(216)


class ReferenceMagnusTable:
    """The prefix-sum table build, kept as the reference for MagnusTable:
    exp_t on every half-edge, one BCH log per boundary corner where the
    table reads a vertex product, and TruncatedTensor prefix sums per
    degree.
    It also keeps the recursive bracket formulas for the integral tables
    P, Q, R and qhat; MagnusTable.P, MagnusTable.Q and table_R read the
    first three off ell's graded parts."""

    def __init__(self, mg, max_degree):
        from fatmagnus.algebra import exp_t, log_t

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
            inc = [log_t(exps[j - 1]
                         * exps[self._pos[G.pair_[cycle[j]]]]).graded(n)
                   for j in range(1, len(cycle))]
            for h, part in self._arc_sums(inc).items():
                ell[h] = ell[h] + part.scaled(Fraction(-1, 3)).truncated(
                    max_degree)
            self._fill_reversed(ell)
        self.ell = ell
        self.P, self.Q, self.R, self.qhat = self._integral_tables()

    def _arc_sums(self, inc):
        """inc[p] + ... + inc[q - 1] on each arc [p..q], by prefix sums."""
        prefix = [TruncatedTensor(inc[0].genus, inc[0].max_degree)]
        for x in inc:
            prefix.append(prefix[-1] + x)
        return {h: prefix[q] - prefix[p] for h, (p, q) in self._arc.items()}

    def _fill_reversed(self, vals):
        """Give each half-edge off the arcs minus its reverse's value."""
        G = self.mg.graph
        for h in G.half_edges:
            if h not in self._arc:
                vals[h] = -vals[G.pair_[h]]

    def _arc_table(self, inc_fn):
        cycle = self._cycle
        out = self._arc_sums([inc_fn(cycle[j - 1], cycle[j])
                              for j in range(1, len(cycle))])
        self._fill_reversed(out)
        return out

    def _integral_tables(self):
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
        return P, Q, R, Qhat


# -- the bracket-product Lie and cocycle routines, kept as references for
# the word-level right-normed expansion ---------------------------------


def reference_right_bracketing(genus, word, max_degree):
    """[w_1, [w_2, [..., w_k]]] as a tensor."""
    t = TruncatedTensor.letter(genus, word[-1], max_degree)
    for c in reversed(word[:-1]):
        t = TruncatedTensor.letter(genus, c, max_degree).bracket(t)
    return t


def _dynkin_left(t):
    """Left-to-right Dynkin map: w_1...w_k -> [[..[w_1,w_2],..],w_k]."""
    out = TruncatedTensor(t.genus, t.max_degree)
    for word, coeff in t.terms():
        if not word:
            continue
        b = TruncatedTensor.letter(t.genus, word[0], t.max_degree)
        for c in word[1:]:
            b = b.bracket(TruncatedTensor.letter(t.genus, c, t.max_degree))
        out = out + b.scaled(coeff)
    return out


def reference_is_lie(t):
    """Whether every homogeneous piece lies in the free Lie algebra.

    Uses the Dynkin criterion: a degree-n tensor w is a Lie element iff
    applying the bracketing map gives n*w.
    """
    for n in range(t.max_degree + 1):
        part = t.graded(n)
        if part.is_zero():
            continue
        if n == 0:
            return False
        if _dynkin_left(part) != part.scaled(n):
            return False
    return True


def _zero_components(genus):
    from fatmagnus.cocycle import LIE_DEGREE

    return [TruncatedTensor(genus, LIE_DEGREE) for _ in range(2 * genus)]


def _letter(genus, i):
    from fatmagnus.cocycle import LIE_DEGREE

    return TruncatedTensor.letter(genus, i, LIE_DEGREE)


def _wedge_matrix(t):
    """Antisymmetric coefficient matrix of a degree-two Lie element."""
    g = t.genus
    if any(len(w) != 2 for w, _ in t.terms()):
        raise ValueError("expected a pure degree-two element")
    if not reference_is_lie(t):
        raise ValueError("expected a Lie element")
    S = [[Fraction(0)] * (2 * g) for _ in range(2 * g)]
    for w, c in t.terms():
        i, j = w
        if i < j:
            # the (j, i) word of the same Lie element carries -c
            S[i][j] += c
            S[j][i] -= c
    return S


def reference_varpi(s, t):
    """One-sided pairing of two degree-two Lie elements."""
    from fatmagnus.cocycle import LIE_DEGREE

    if s.genus != t.genus:
        raise ValueError("genus mismatch")
    g = s.genus
    S = _wedge_matrix(s)
    _wedge_matrix(t)  # validates the second argument
    t3 = t.truncated(LIE_DEGREE)
    out = _zero_components(g)
    for i in range(2 * g):
        for j in range(2 * g):
            if S[i][j]:
                out[i] = out[i] + _letter(g, j).bracket(t3).scaled(S[i][j])
    return tuple(out)


def reference_bar_components(comps):
    """The quarter rule through bracket products, one term at a time."""
    from fatmagnus.cocycle import LIE_DEGREE

    g = comps[0].genus
    out = _zero_components(g)
    quarter = Fraction(1, 4)
    for x, t in enumerate(comps):
        for (y, z, w), c in t.truncated(LIE_DEGREE).terms():
            # right-normed presentation of a Lie element: t = (1/3) sum
            # of [w1,[w2,w3]] over its words, then the quarter rule
            c3 = Fraction(c, 3)
            inner = _letter(g, z).bracket(_letter(g, w))
            outer = _letter(g, x).bracket(_letter(g, y))
            out[x] = out[x] + _letter(g, y).bracket(inner).scaled(c3 * quarter)
            out[y] = out[y] - _letter(g, x).bracket(inner).scaled(c3 * quarter)
            out[z] = out[z] + _letter(g, w).bracket(outer).scaled(c3 * quarter)
            out[w] = out[w] - _letter(g, z).bracket(outer).scaled(c3 * quarter)
    return out


def reference_morita_pair(xi, eta):
    """The nine-term skew pairing of wedge triples."""
    from fatmagnus.algebra import dot
    from fatmagnus.cocycle import H2Element

    if xi.genus != eta.genus:
        raise ValueError("genus mismatch")
    g = xi.genus
    unit = [[int(m == x) for m in range(2 * g)] for x in range(2 * g)]
    out = _zero_components(g)
    for (i, j, k), cx in xi.terms():
        xs = (i, j, k)
        for (p, q, r), cy in eta.terms():
            ys = (p, q, r)
            for a in range(3):
                xbr = _letter(g, xs[(a + 1) % 3]).bracket(
                    _letter(g, xs[(a + 2) % 3]))
                for b in range(3):
                    s = dot(unit[xs[a]], unit[ys[b]])
                    if not s:
                        continue
                    ybr = _letter(g, ys[(b + 1) % 3]).bracket(
                        _letter(g, ys[(b + 2) % 3]))
                    piece = [u + v for u, v in zip(reference_varpi(xbr, ybr),
                                                   reference_varpi(ybr, xbr))]
                    for m in range(2 * g):
                        out[m] = out[m] + piece[m].scaled(cx * cy * s)
    return H2Element(out)


# -- the dot-based duality and the per-degree move routines, kept as
# references for the signed permutation and the one-pass move map -------


def reference_tensor_values(genus, parts, scale=Fraction(1)):
    """Values of sum_i vec_i (x) S_i on the letter basis, by pairing each
    vec_i against every unit vector."""
    from fatmagnus.algebra import dot

    n = 2 * genus
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    out = []
    for u in units:
        acc = None
        for vec, series in parts:
            c = dot(vec, u)
            if c:
                term = series.scaled(c * scale)
                acc = term if acc is None else acc + term
        if acc is None:
            acc = TruncatedTensor(genus, parts[0][1].max_degree)
        out.append(acc)
    return tuple(out)


def reference_tensor_components(values):
    """Letter-slot components, by spreading each value over the entries
    of its dual vector."""
    from fatmagnus.johnson import dual_vector

    g = values[0].genus
    n = values[0].max_degree
    out = [TruncatedTensor(g, n) for _ in range(2 * g)]
    for k, v in enumerate(values):
        for j, cj in enumerate(dual_vector(g, k)):
            if cj:
                out[j] = out[j] + v.scaled(cj)
    return tuple(out)


def reference_bracket_map(values):
    """sum_j [dual letter j, value j], one degree up."""
    from fatmagnus.johnson import dual_vector

    g = values[0].genus
    n = values[0].max_degree + 1
    out = TruncatedTensor(g, n)
    for j, v in enumerate(values):
        d = TruncatedTensor.from_vector(g, dual_vector(g, j), n)
        out = out + d.bracket(v.truncated(n))
    return out


def reference_tau_move(move, m):
    """The closed formula sliced degree by degree into a GradedTau."""
    from fatmagnus.johnson import GradedTau, MoveTau, sector_contributions

    src = move.source
    g = src.genus()
    secs = sector_contributions(move, m)
    av, bv, cv = (src.h[x] for x in (move.a, move.b, move.c))
    values = {}
    for k in range(1, m + 1):
        parts = [
            (av, secs["I"][k]),
            (bv, secs["I"][k] + secs["II"][k]),
            (cv, secs["IV"][k].scaled(-1)),
        ]
        values[k] = reference_tensor_values(g, parts)
    return MoveTau(move, GradedTau(g, values))


def reference_move_ia(move, m):
    """The move map, re-summed from the graded pieces of reference_tau_move."""
    tau = reference_tau_move(move, m).tau
    g = tau.genus
    corr = []
    for j in range(2 * g):
        c = TruncatedTensor(g, m + 1)
        for k in tau.degrees():
            c = c + tau.values[k][j]
        corr.append(c)
    return IAMap(corr)


# -- the searches that canonical forms replaced, kept as references --------


def reference_rooted_isomorphism(g1, g2):
    """The unique half-edge bijection g1 -> g2 fixing the tail and commuting
    with both pair and next, if one exists: a co-traversal from the tail."""
    if len(g1.half_edges) != len(g2.half_edges):
        return None
    iso = {g1.tail: g2.tail}
    stack = [g1.tail]
    while stack:
        h = stack.pop()
        for f1, f2 in ((g1.next_, g2.next_), (g1.pair_, g2.pair_)):
            a, b = f1[h], f2[iso[h]]
            if a in iso:
                if iso[a] != b:
                    return None
            elif b in iso.values():
                return None
            else:
                iso[a] = b
                stack.append(a)
    if len(iso) != len(g1.half_edges):
        return None
    return iso


def _lyndon_words(nletters, maxlen):
    # Duval's algorithm
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        out.append(tuple(w))
        while len(w) < maxlen:
            w.append(w[-m])
        while w and w[-1] == nletters - 1:
            w.pop()
    return sorted(out, key=lambda t: (len(t), t))


def _reference_lyndon_bracket(genus, word, max_degree):
    from fatmagnus.algebra import _lyndon_factor

    if len(word) == 1:
        return TruncatedTensor.letter(genus, word[0], max_degree)
    a, b = _lyndon_factor(word)
    return _reference_lyndon_bracket(genus, a, max_degree).bracket(
        _reference_lyndon_bracket(genus, b, max_degree))


def _bracket_string(genus, word):
    from fatmagnus.algebra import _lyndon_factor, letter_name

    if len(word) == 1:
        return letter_name(genus, word[0])
    a, b = _lyndon_factor(word)
    return f"[{_bracket_string(genus, a)},{_bracket_string(genus, b)}]"


def reference_lie_pretty(t):
    """Render a Lie element in the Lyndon bracket basis.

    Greedy: for every Lyndon word of each degree, in order, subtract the
    bracketing times the word's coefficient in what is left.  Falls back to
    the plain rendering for non-Lie input.
    """
    from fatmagnus.algebra import is_lie, signed_sum

    if not is_lie(t):
        return t.pretty()
    bits = []
    for n in range(1, t.max_degree + 1):
        rem = t.graded(n)
        if rem.is_zero():
            continue
        for lw in _lyndon_words(t.nletters, n):
            if len(lw) != n:
                continue
            c = rem.coefficient(lw)
            if c == 0:
                continue
            rem = rem - _reference_lyndon_bracket(
                t.genus, lw, t.max_degree).scaled(c)
            bits.append((c, _bracket_string(t.genus, lw)))
        if not rem.is_zero():
            return t.pretty()
    return signed_sum(bits)
