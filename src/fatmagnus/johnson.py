"""Graded automorphism data carried by Whitehead moves.

Each move induces an automorphism of the completed free Lie algebra that
fixes degree one.  A closed Hausdorff-series formula reads its
corrections off the source table alone; the vertex relations make the
tails at the move's corners linear in the ell values and in one star,
the new edge's value (_move_map).  A path's map (path_ia) is one sum in
the initial frame: each move adds its corrections read off the initial
table, changed only on the edges moved so far, and the sum becomes one
IAMap; no map is applied or composed.  A move is a path of one move, so
move_ia is path_ia on that path, and tau_move is its graded view, linear
maps from homology into Lie elements one degree higher.  Every path
value is a view of path_ia: tau_path grades it, and cocycle.j2_path
projects its degree-two part.  Two oracles recover a move's pieces: the
BCH tails of all four corners (sector_contributions) and a solver that
compares the two expansion tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .algebra import (
    IAMap,
    TruncatedTensor,
    _check_letters,
    _check_lie,
    _check_positive_int,
    hausdorff_tail,
    letter_name,
    row_reduce,
    star,
)
from .fatgraph import MarkedFatgraph, MovePath, WhiteheadMove
from .magnus import get_table

SECTOR_LABELS = ("I", "II", "III", "IV")


# -- Poincare duality ------------------------------------------------------


def dual_vector(genus: int, letter: int) -> tuple[int, ...]:
    """The homology vector whose pairing reads off one letter coefficient.

    dot(dual_vector(g, j), x) == x[j] for every vector x.  This function
    is the one owner of the convention identifying maps on homology with
    tensors: its single nonzero entry, -1 in slot g + j for j < g and +1
    in slot j - g otherwise, is the signed permutation between letter
    values and letter-slot components that tensor_values,
    tensor_components and bracket_map read off it.
    """
    _check_letters(genus, (letter,))
    vec = [0] * (2 * genus)
    if letter < genus:
        vec[genus + letter] = -1
    else:
        vec[letter - genus] = 1
    return tuple(vec)


def _signed_slots(genus: int) -> list[tuple[int, int]]:
    """(slot, sign) of the one nonzero entry of each letter's dual vector."""
    return [next((k, x) for k, x in enumerate(dual_vector(genus, j)) if x)
            for j in range(2 * genus)]


def tensor_values(parts: Sequence[tuple[Sequence, TruncatedTensor]],
                  scale: Fraction = Fraction(1)) -> tuple[TruncatedTensor, ...]:
    """Map values of scale * sum_i vec_i (x) S_i on the letter basis.

    A tensor vec (x) S acts on homology by x -> dot(vec, x) S.  The sum
    has letter-slot components c_k = scale * sum_i vec_i[k] S_i, and its
    value on letter j is sign * c_slot for the (slot, sign) entry of
    dual_vector(genus, j): the inverse of tensor_components.  The genus
    and truncation are read off the first series; every series must
    share them.
    """
    if not parts:
        raise ValueError("need at least one part")
    genus, n = parts[0][1].genus, parts[0][1].max_degree
    if any(len(vec) != 2 * genus for vec, _ in parts):
        raise ValueError("need one vector entry per letter")
    return tuple(TruncatedTensor.combination(
        genus, [(sign * vec[k] * scale, series) for vec, series in parts], n)
        for k, sign in _signed_slots(genus))


def tensor_components(values: Sequence[TruncatedTensor]
                      ) -> tuple[TruncatedTensor, ...]:
    """Letter-slot components of the tensor behind a letter-value list.

    A map on homology given by its values on the letters corresponds,
    through the signed permutation fixed in dual_vector, to a tensor with
    one Lie component per letter slot: the value on letter j, times the
    sign, lands in the slot of dual_vector(g, j).  This is the inverse
    permutation of tensor_values.
    """
    if not values or len(values) != 2 * values[0].genus:
        raise ValueError("need one value per letter")
    if any(v.genus != values[0].genus for v in values):
        raise ValueError("genus mismatch: values of mixed genus")
    out: list = [None] * len(values)
    for v, (k, sign) in zip(values, _signed_slots(values[0].genus)):
        out[k] = v.scaled(sign)
    return tuple(out)


def _contract(comps: Sequence[TruncatedTensor]) -> TruncatedTensor:
    """sum_k [x_k, comps[k]], lifted one degree so that the brackets of
    top-degree components are not cut off."""
    g = comps[0].genus
    n = comps[0].max_degree + 1
    return TruncatedTensor.combination(
        g, [(1, TruncatedTensor.letter(g, k, n).bracket(t.truncated(n)))
            for k, t in enumerate(comps)], n)


def bracket_map(values: Sequence[TruncatedTensor]) -> TruncatedTensor:
    """Contract a homology-to-Lie map into a single Lie element.

    The input lists the map's values on the letter basis; the result sums
    [dual letter, value], that is [x_k, c_k] over the letter-slot
    components c_k.  Its kernel singles out the good subspaces that wedge
    powers of homology embed into.
    """
    return _contract(tensor_components(values))


# -- graded values ---------------------------------------------------------


@dataclass(frozen=True)
class GradedTau:
    """Graded pieces of a move (or path) automorphism.

    values[k] lists, per basis letter, the degree-(k+1) Lie element the
    automorphism adds to that letter; pairing with dual_vector turns the
    list back into a homology tensor.
    """

    genus: int
    values: Mapping[int, tuple[TruncatedTensor, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values",
            {int(k): tuple(v) for k, v in sorted(self.values.items())})
        for k, vals in self.values.items():
            if k < 1:
                raise ValueError("degrees start at 1")
            if len(vals) != 2 * self.genus:
                raise ValueError(f"degree {k} needs one value per letter")
            for i, v in enumerate(vals):
                where = f"degree-{k} value of {letter_name(self.genus, i)}"
                if v.genus != self.genus:
                    raise ValueError(
                        f"{where} has genus {v.genus}, not {self.genus}")
                _check_lie(v, k + 1, where)

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.values)

    def _degree(self, k: int) -> tuple[TruncatedTensor, ...]:
        try:
            return self.values[k]
        except KeyError:
            raise ValueError(f"degree {k} not held: this value holds degrees "
                             f"{self.degrees()}") from None

    def value(self, k: int, vec: Sequence[Fraction | int]) -> TruncatedTensor:
        """The degree-k piece evaluated on a homology vector."""
        if len(vec) != 2 * self.genus:
            raise ValueError(f"vector needs {2 * self.genus} entries, "
                             f"not {len(vec)}")
        vals = self._degree(k)
        return TruncatedTensor.combination(
            self.genus, zip(vec, vals), vals[0].max_degree)

    def bracket_image(self, k: int) -> TruncatedTensor:
        """Bracket contraction of the degree-k piece (see bracket_map).

        The automorphism carries the final tail series to the initial
        one, and the tail series is -omega in degree two and zero in
        degrees one and three.  Degree three of that identity gives
        bracket_image(1) = 0; degree four reads

            bracket_image(2) = ell_4(final tail) - ell_4(initial tail)
                               - sum_i [tau_1(u_i), tau_1(v_i)].

        This expansion pins the
        tail to exp(-omega) only through degree three, so the image is
        nonzero from degree two on wherever the degree-four tail changes
        and the degree-one piece vanishes (always so at genus one).
        """
        return bracket_map(self._degree(k))

    def is_zero(self) -> bool:
        return all(v.is_zero() for vals in self.values.values() for v in vals)


@dataclass(frozen=True)
class MoveTau:
    """A Whitehead move together with its graded automorphism data."""

    move: WhiteheadMove
    tau: GradedTau

    def __post_init__(self) -> None:
        if self.tau.genus != self.move.source.genus():
            raise ValueError("genus mismatch")


def derive(values: Sequence[TruncatedTensor],
           t: TruncatedTensor) -> TruncatedTensor:
    """Extend a letter-to-tensor map to a derivation over words.

    values lists the image of each letter; every letter occurrence in t
    is replaced in turn and the results summed.  Turns the degree-1 data
    of a GradedTau into an operator on higher Lie elements.  No path
    routine calls it; the tests use it to state the mixing term of the
    twisted law (cocycle.j2_compose).
    """
    g, n = t.genus, t.max_degree
    if len(values) != 2 * g:
        raise ValueError("need one value per letter")
    def mono(word):
        return TruncatedTensor.from_terms(g, {word: 1}, n)
    return TruncatedTensor.combination(g, [
        (coeff, mono(word[:i]) * values[c] * mono(word[i + 1:]))
        for word, coeff in t.terms() for i, c in enumerate(word)], n)


# -- closed formula --------------------------------------------------------


# each corner: the labels of the two series whose tail it is, and the
# sign of its 1/3
_CORNERS = {"I": ("b", "c", -1), "II": ("c", "d", 1),
            "III": ("d", "a", -1), "IV": ("a", "b", 1)}


def sector_contributions(move: WhiteheadMove, m: int
                         ) -> dict[str, dict[int, TruncatedTensor]]:
    """The four corner passages of a move, as signed Hausdorff tails:
    {label: {k: degree-(k+1) part}} for k = 1..m, labels in SECTOR_LABELS
    order.

    Their sum vanishes in every degree because the boundary cycle of the
    tail crosses all four corners while carrying zero homology.  This is
    the one place a corner tail is taken by BCH, and it stays as the
    oracle of the move maps, which read the same corners off the vertex
    relations (_move_map).
    """
    _check_positive_int("degree", m)
    ell = get_table(move.source, m + 1).ell_map
    out = {}
    for lab in SECTOR_LABELS:
        x, y, sign = _CORNERS[lab]
        tail = hausdorff_tail(ell[getattr(move, x)], ell[getattr(move, y)])
        tail = tail.scaled(Fraction(sign, 3))
        out[lab] = {k: tail.graded(k + 1) for k in range(1, m + 1)}
    return out


def _move_map(move: WhiteheadMove, ell: Mapping[int, TruncatedTensor],
              head: TruncatedTensor) -> tuple[TruncatedTensor, ...]:
    """The corrections a move adds, one per letter, read off the ell
    values of a table of move.source (built, or pulled back to a path's
    initial graph by _path_steps) and head = -star(ell(d), ell(a)), the
    value of e_head in the result.  The vertex relations theta(a)theta(b) =
    theta(e)^-1 = (theta(c)theta(d))^-1 make the corner tails linear:
    3 I = ell(b) + ell(c) - head, 3 II = ell(e) - ell(c) - ell(d) and
    3 IV = -(ell(e) + ell(a) + ell(b))."""
    src = move.source
    la, lb, lc, ld, le = (ell[x] for x in
                          (move.a, move.b, move.c, move.d, move.e_head))
    av, bv, cv = (src.h[x] for x in (move.a, move.b, move.c))
    # reconstruction from the corner pieces: a(x)I + b(x)(I+II) - c(x)IV,
    # with the overall orientation pinned against the table-comparison
    # solver (the corner pieces alone leave a global sign free)
    parts = [(av, lb + lc - head), (bv, lb - ld + le - head),
             (cv, la + lb + le)]
    return tensor_values(parts, Fraction(1, 3))


def move_ia(move: WhiteheadMove, m: int) -> IAMap:
    """The move automorphism through degree m + 1, as a substitution map:
    path_ia of the path of this one move, so read off the source table
    alone (_move_map).  It is the move automorphism only on a geometric
    marking: raises ValueError on any other.
    """
    return path_ia(MovePath(move.source, (move,)), m)


def tau_move(move: WhiteheadMove, m: int) -> MoveTau:
    """All graded pieces of the move automorphism through degree m: the
    graded view of move_ia, so it raises ValueError on a non-geometric
    marking."""
    return MoveTau(move, ia_graded(move_ia(move, m)))


# -- printed low-degree formulas (independent transcriptions) --------------


def tau2_closed(move: WhiteheadMove) -> MoveTau:
    """Degree-2 piece from the explicit bracket formula over P-values."""
    n = 3
    src = move.source
    g = src.genus()
    tab = get_table(src, n)
    ha, hb, hc, _ = (TruncatedTensor.from_vector(g, src.h[x], n)
                     for x in (move.a, move.b, move.c, move.d))
    pa, pb, pc = (tab.P(x) for x in (move.a, move.b, move.c))
    sa = hb.bracket(pc) - hc.bracket(pb) + (hb - hc).bracket(hb.bracket(hc))
    sb = (hc.bracket(pa) - ha.bracket(pc)
          - ha.bracket(hb.bracket(hc)).scaled(4)
          - (ha - hb.scaled(2) - hc).bracket(ha.bracket(hc)))
    sc = ha.bracket(pb) - hb.bracket(pa) + (ha - hb).bracket(ha.bracket(hb))
    parts = [(src.h[move.a], sa), (src.h[move.b], sb), (src.h[move.c], sc)]
    values = {2: tensor_values(parts, Fraction(-1, 36))}
    return MoveTau(move, GradedTau(g, values))


def tau3_closed(move: WhiteheadMove) -> MoveTau:
    """Degree-3 piece from the explicit bracket formula over P and Q."""
    n = 4
    src = move.source
    g = src.genus()
    tab = get_table(src, n)
    a, b, c, _ = (TruncatedTensor.from_vector(g, src.h[x], n)
                  for x in (move.a, move.b, move.c, move.d))
    pa, pb, pc = (tab.P(x) for x in (move.a, move.b, move.c))
    qa, qb, qc = (tab.Q(x) for x in (move.a, move.b, move.c))

    def br(x, y):
        return x.bracket(y)

    sa = (br(b, qc) + br(b, br(b, pc)) - br(b, br(c, pb)).scaled(2)
          + br(b, br(c, pc)) - br(b, br(c, br(b, c))).scaled(3)
          - br(c, qb) + br(c, br(b, pb)) - br(c, br(b, pc)).scaled(2)
          + br(c, br(c, pb)) + br(pb, pc))
    sb = (-br(a, qc) - br(a, br(a, pc))
          - br(a, br(a, br(b, c))).scaled(6) - br(a, br(b, pc)).scaled(4)
          + br(a, br(b, br(a, c))).scaled(6)
          - br(a, br(b, br(b, c))).scaled(6)
          + br(a, br(c, pa)).scaled(2) + br(a, br(c, pb)).scaled(2)
          - br(a, br(c, pc)) + br(a, br(c, br(a, c))).scaled(3)
          + br(b, br(a, pc)).scaled(2) + br(b, br(a, br(b, c))).scaled(6)
          + br(b, br(c, pa)).scaled(2)
          + br(c, qa) - br(c, br(a, pa)) + br(c, br(a, pb)).scaled(2)
          + br(c, br(a, pc)).scaled(2) + br(c, br(a, br(b, c))).scaled(6)
          - br(c, br(b, pa)).scaled(4) - br(c, br(c, pa))
          - br(pa, pc))
    sc = (br(a, qb) + br(a, br(a, pb)) - br(a, br(b, pa)).scaled(2)
          + br(a, br(b, pb)) - br(a, br(b, br(a, b))).scaled(3)
          - br(b, qa) + br(b, br(a, pa)) - br(b, br(a, pb)).scaled(2)
          + br(b, br(b, pa)) + br(pa, pb))
    parts = [(src.h[move.a], sa), (src.h[move.b], sb), (src.h[move.c], sc)]
    values = {3: tensor_values(parts, Fraction(-1, 216))}
    return MoveTau(move, GradedTau(g, values))


# -- table-comparison solver -----------------------------------------------


def _basis_halves(mg: MarkedFatgraph, avoid_edges) -> list[int]:
    """Half-edges avoiding the given edges whose markings form a basis.

    The first-come greedy choice in sorted order: the pivot columns of
    the matrix whose columns are the candidates' markings.
    """
    cands = [h for h in sorted(mg.graph.half_edges)
             if mg.graph.edge_of[h] not in avoid_edges]
    n = 2 * mg.genus()
    _, pivots = row_reduce([[mg.h[h][i] for h in cands] for i in range(n)])
    if len(pivots) < n:
        raise ValueError(
            "markings of the shared edges do not span the homology")
    return [cands[c] for c in pivots]


def ia_between(source: MarkedFatgraph, target: MarkedFatgraph,
               avoid_edges, m: int) -> IAMap:
    """The substitution map carrying the target table to the source table.

    Solved degree by degree on a basis of edges the two graphs share
    unchanged (both graphs must use the same edge ids, with the edges in
    avoid_edges excluded as remarked).  An oracle compares two built
    tables: both come from get_table, never from a table derived from
    move maps.
    """
    _check_positive_int("degree", m)
    if source.genus() != target.genus():
        raise ValueError("genus mismatch")
    n = m + 1
    g = source.genus()
    ts, tt = get_table(source, n), get_table(target, n)
    basis = _basis_halves(source, set(avoid_edges))
    # invert the basis matrix by reducing [A | I]
    eye = [[int(k == j) for j in range(2 * g)] for k in range(2 * g)]
    rows, _ = row_reduce([list(source.h[x]) + e for x, e in zip(basis, eye)])
    # entries no elimination step touched are still ints
    inv = [[Fraction(y) / r[j] for y in r[2 * g:]]
           for j, r in enumerate(rows)]
    ls = [ts.ell(x) for x in basis]
    lt = [tt.ell(x) for x in basis]
    corr = [TruncatedTensor(g, n) for _ in range(2 * g)]
    for d in range(2, n + 1):
        phi = IAMap(corr)
        resid = [(ls[i] - phi.apply(lt[i])).graded(d)
                 for i in range(2 * g)]
        corr = [TruncatedTensor.combination(
                    g, [(1, corr[j])] + list(zip(inv[j], resid)), n)
                for j in range(2 * g)]
    return IAMap(corr)


def ia_graded(phi: IAMap) -> GradedTau:
    """Slice a substitution map into its graded homology-to-Lie pieces."""
    values = {k: tuple(c.graded(k + 1) for c in phi.corrections)
              for k in range(1, phi.max_degree)}
    return GradedTau(phi.genus, values)


def tau_move_oracle(move: WhiteheadMove, m: int) -> MoveTau:
    """Graded pieces recovered by comparing the two expansion tables.

    Independent of the closed formula: only the moved edge is excluded
    from the solving basis, since its remarking changes the underlying
    group element.  The two tables compared are both built (get_table),
    so the check is not circular where the closed formula reads tables
    pulled back along paths (path_ia).
    """
    phi = ia_between(move.source, move.result, {move.edge_id}, m)
    return MoveTau(move, ia_graded(phi))


# -- paths -----------------------------------------------------------------


def _path_steps(path: MovePath, m: int) -> Iterator[tuple[
        WhiteheadMove, Mapping[int, TruncatedTensor], TruncatedTensor]]:
    """(move, L, head) per move of a path on a geometric marking: L is the
    table of move.source through degree m + 1, pulled back to the
    initial graph by the map Psi of the moves before it.  Psi commutes
    with star and fixes L off the moved edges; the new edge closes its
    vertex, so the next table has L(e_head) = head = -star(L(d), L(a)),
    the one star of the move.  path_ia checks the degree and the
    marking."""
    ell = get_table(path.initial, m + 1).ell_map
    for mv in path.moves:
        head = -star(ell[mv.d], ell[mv.a])
        yield mv, ell, head
        rev = mv.source.graph.pair_[mv.e_head]
        ell = {**ell, mv.e_head: head, rev: -head}


def path_ia(path: MovePath, m: int) -> IAMap:
    """The path automorphism through degree m + 1, carrying the final
    table to the initial one: Psi_k = phi_1 o ... o phi_k for the move
    maps phi_k(x_i) = x_i + c_i, so later moves act first.  Psi_{k-1} is
    an algebra automorphism, so

        Psi_k(x_i) = Psi_{k-1}(x_i) + C_i^(k),  C^(k) = Psi_{k-1}(c),

    and C^(k) is the move's formula (_move_map) read off its pulled-back
    table L (_path_steps).  The C^(k) are summed and wrapped in one IAMap,
    the identity on the empty path; no move's map is built on its own.
    tau_path and cocycle.j2_path are views of this map, and move_ia is it
    on a one-move path.  Raises ValueError on a bad degree or a
    non-geometric initial marking."""
    _check_positive_int("degree", m)
    path.initial.check_geometric()
    g, n = path.initial.genus(), m + 1
    steps = [_move_map(*step) for step in _path_steps(path, m)]
    return IAMap([TruncatedTensor.combination(
        g, [(1, corr[i]) for corr in steps], n) for i in range(2 * g)])


def tau_path(path: MovePath, m: int) -> GradedTau:
    """Graded pieces of the path automorphism path_ia through degree m."""
    return ia_graded(path_ia(path, m))
