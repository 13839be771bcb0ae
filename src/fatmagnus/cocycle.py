"""Wedge and symmetrized forms of the low-degree move data.

The degree-one value of a move collapses to an integral wedge of the
three label markings.  The degree-two value is pushed into the subspace
spanned by symmetrized wedge-square images, where it becomes reversal
antisymmetric.  Pairing wedges lets the two levels compose along paths
through a twisted group law with integer coefficients.

Values in (homology) x (Lie elements) are held as letter-slot
components c_k, one Lie element per letter.  A move's letter values
enter through tensor_components, the signed permutation that
johnson.dual_vector owns, and the bracket contraction that membership
asks to vanish is johnson's sum_k [x_k, c_k].  Every degree-three value
is built from a right-normed presentation {(x, y, z, w): c}, which
stands for sum c * x (x) [y, [z, w]], and is expanded into letter-slot
tensors once, by _expand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .algebra import (
    TruncatedTensor,
    _check_lie,
    _check_positive_int,
    _right_normed,
    letter_name,
    lie_pretty,
    signed_sum,
)
from .fatgraph import MovePath, WhiteheadMove
from .johnson import _contract, move_ia, path_ia, tensor_components

__all__ = [
    "LIE_DEGREE",
    "Lambda3",
    "H2Element",
    "J2Value",
    "wedge_components",
    "varpi",
    "symmetric_pair",
    "bar_project",
    "morita_pair",
    "j1",
    "bar_tau2",
    "j2",
    "j2_compose",
    "j2_identity",
    "j2_inverse",
    "j2_path",
]

# symmetrized degree-two values live in (homology) x (Lie elements of
# this degree); everything in this module is truncated there
LIE_DEGREE = 3


def _sort_triple(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int]:
    """Sorted index triple and the permutation sign, 0 on repeats."""
    if len({i, j, k}) < 3:
        return (i, j, k), 0
    return tuple(sorted((i, j, k))), (-1) ** ((i > j) + (i > k) + (j > k))


class Lambda3:
    """Antisymmetric rank-three array over the letter basis.

    Coefficients are stored on strictly increasing index triples; any
    triple fed in is sorted with its permutation sign.
    """

    __slots__ = ("genus", "coeffs")

    def __init__(self, genus: int,
                 coeffs: Mapping[tuple[int, int, int], Fraction | int]
                 | None = None):
        _check_positive_int("genus", genus)
        self.genus = genus
        n = 2 * genus
        store: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in (coeffs or {}).items():
            if not all(isinstance(x, int) and 0 <= x < n for x in (i, j, k)):
                raise ValueError(f"letter index out of range: {(i, j, k)} "
                                 f"for genus {genus}")
            key, sign = _sort_triple(i, j, k)
            store[key] = store.get(key, 0) + Fraction(c) * sign
        self.coeffs = {key: c for key, c in store.items() if c}

    @classmethod
    def wedge(cls, genus: int,
              u: Sequence[Fraction | int],
              v: Sequence[Fraction | int],
              w: Sequence[Fraction | int]) -> "Lambda3":
        """Wedge product of three homology vectors: the constructor sorts
        each triple of sum u_i v_j w_k with its sign, summing the minors."""
        if not len(u) == len(v) == len(w) == 2 * genus:
            raise ValueError("vectors must have one entry per letter")
        return cls(genus, {(i, j, k): a * b * c
                           for i, a in enumerate(u) if a
                           for j, b in enumerate(v) if b
                           for k, c in enumerate(w) if c})

    def _check(self, other: "Lambda3") -> None:
        if not isinstance(other, Lambda3):
            raise TypeError("expected a Lambda3")
        if self.genus != other.genus:
            raise ValueError("genus mismatch")

    def __add__(self, other: "Lambda3") -> "Lambda3":
        self._check(other)
        co = dict(self.coeffs)
        for key, c in other.coeffs.items():
            co[key] = co.get(key, Fraction(0)) + c
        return Lambda3(self.genus, co)

    def __neg__(self) -> "Lambda3":
        return Lambda3(self.genus, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "Lambda3") -> "Lambda3":
        return self + (-other)

    def scaled(self, c: Fraction | int) -> "Lambda3":
        return Lambda3(self.genus, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lambda3):
            return NotImplemented
        return self.genus == other.genus and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.genus, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def terms(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        yield from sorted(self.coeffs.items())

    def __str__(self) -> str:
        return signed_sum(
            (c, "^".join(letter_name(self.genus, x) for x in triple))
            for triple, c in self.terms())

    def __repr__(self) -> str:
        return f"Lambda3(genus={self.genus}, {self})"


# a right-normed presentation {(x, y, z, w): c}: sum c * x (x) [y, [z, w]]
Presentation = dict[tuple[int, int, int, int], Fraction]


def _expand(genus: int, pres: Presentation) -> list[TruncatedTensor]:
    """The letter-slot components a presentation stands for."""
    slots: list[dict] = [{} for _ in range(2 * genus)]
    for (x, *inner), c in pres.items():
        for w, s in _right_normed(inner).items():
            slots[x][w] = slots[x].get(w, 0) + s * c
    return [TruncatedTensor.from_terms(genus, t, LIE_DEGREE) for t in slots]


def _check_components(comps: Sequence[TruncatedTensor],
                      degree: int) -> int:
    if not comps or len(comps) != 2 * comps[0].genus:
        raise ValueError("need one component per letter")
    g = comps[0].genus
    for j, t in enumerate(comps):
        where = f"component {letter_name(g, j)}"
        if t.genus != g:
            raise ValueError(f"genus mismatch: {where} has genus {t.genus}, "
                             f"not {g}")
        _check_lie(t, degree, where)
    return g


def _wedge_words(xi: Lambda3) -> list[dict[tuple[int, int], Fraction]]:
    # slot i of a^b^c carries -[b, c], cyclically
    out: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(2 * xi.genus)]
    for (i, j, k), c in xi.terms():
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            out[x][(y, z)] = out[x].get((y, z), 0) - c
            out[x][(z, y)] = out[x].get((z, y), 0) + c
    return out


def wedge_components(xi: Lambda3) -> tuple[TruncatedTensor, ...]:
    """The degree-one tensor a wedge triple stands for.

    Orientation is pinned by the frozen duality: six times the
    degree-one value of a move has exactly the components of its label
    wedge under this map.
    """
    return tuple(TruncatedTensor.from_terms(xi.genus, w, 2)
                 for w in _wedge_words(xi))


def _pairing_words(s: TruncatedTensor, t: TruncatedTensor) -> list[dict]:
    """The words of two degree-two Lie elements, validated."""
    if s.genus != t.genus:
        raise ValueError("genus mismatch")
    for which, x in (("first", s), ("second", t)):
        _check_lie(x, 2, f"{which} argument")
    return [dict(s.terms()), dict(t.terms())]


def _add_pairing(pres: Presentation, s: dict, t: dict, scale: int = 1) -> None:
    """Add scale * varpi(s, t), given the degree-two words of s and t:
    t = (1/2) sum t_kl [k, l], so key (i, j, k, l) gets s_ij t_kl / 2."""
    for (i, j), a in s.items():
        for (k, l), b in t.items():
            key = (i, j, k, l)
            pres[key] = pres.get(key, 0) + Fraction(scale, 2) * a * b


def varpi(s: TruncatedTensor, t: TruncatedTensor
          ) -> tuple[TruncatedTensor, ...]:
    """One-sided pairing of two degree-two Lie elements.

    On wedge generators the first argument donates the letter slot and
    the inner bracket position: the image of a^b (x) t is
    a (x) [b, t] - b (x) [a, t].  Symmetric inputs land in the
    symmetrized subspace; see symmetric_pair.
    """
    pres: Presentation = {}
    _add_pairing(pres, *_pairing_words(s, t))
    return tuple(_expand(s.genus, pres))


def _bar_components(comps: Sequence[TruncatedTensor]) -> list[TruncatedTensor]:
    """The symmetrizing projection of pure degree-three Lie components.

    By Dynkin-Specht-Wever a degree-three Lie element t is (1/3) sum_w
    c_w [w_1, [w_2, w_3]], so slot x presents as {(x, w_1, w_2, w_3):
    c_w / 3}.  The quarter rule sends each key (x, y, z, w) to
    (x, y, z, w) and (z, w, x, y) with +1/4, and to (y, x, z, w) and
    (w, z, x, y) with -1/4.
    """
    pres: Presentation = {}
    for x, t in enumerate(comps):
        for (y, z, w), c in t.terms():
            q = c / 12
            for key, v in (((x, y, z, w), q), ((y, x, z, w), -q),
                           ((z, w, x, y), q), ((w, z, x, y), -q)):
                pres[key] = pres.get(key, 0) + v
    return _expand(comps[0].genus, pres)


class H2Element:
    """A tensor in the symmetrized degree-two target space.

    Stored as one degree-three Lie component per letter slot.  The
    public constructor enforces membership: each component is a pure
    degree-three Lie element, the bracket contraction vanishes and the
    symmetrizing projection fixes the element.  bar_project,
    symmetric_pair and morita_pair validate their inputs instead and
    return their results unchecked, since they land in the space by
    construction; the test suite checks that the constructor accepts
    them.  Raw move and path values generally lie outside this space
    and enter it only through bar_project.
    """

    __slots__ = ("genus", "components")

    def __init__(self, components: Sequence[TruncatedTensor]):
        g = _check_components(components, LIE_DEGREE)
        comps = tuple(t.truncated(LIE_DEGREE) for t in components)
        if not _contract(comps).is_zero():
            raise ValueError("bracket contraction does not vanish")
        if any(a != b for a, b in zip(_bar_components(comps), comps)):
            raise ValueError("element is not fixed by the symmetrizing projection")
        self.genus = g
        self.components = comps

    @classmethod
    def zero(cls, genus: int) -> "H2Element":
        return cls([TruncatedTensor(genus, LIE_DEGREE)] * (2 * genus))

    @classmethod
    def _trusted(cls, genus: int,
                 components: Sequence[TruncatedTensor]) -> "H2Element":
        """Wrap fresh components without validation.

        Only for sums, negatives and multiples of elements, which the
        space is closed under, and for the outputs of the projections
        into it (bar_project, symmetric_pair, morita_pair).
        """
        el = object.__new__(cls)
        el.genus = genus
        el.components = tuple(components)
        return el

    def _check(self, other: "H2Element") -> None:
        if not isinstance(other, H2Element):
            raise TypeError("expected an H2Element")
        if self.genus != other.genus:
            raise ValueError("genus mismatch")

    def __add__(self, other: "H2Element") -> "H2Element":
        self._check(other)
        return H2Element._trusted(self.genus, [
            a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "H2Element":
        return H2Element._trusted(self.genus, [-t for t in self.components])

    def __sub__(self, other: "H2Element") -> "H2Element":
        return self + (-other)

    def scaled(self, c: Fraction | int) -> "H2Element":
        return H2Element._trusted(self.genus,
                                  [t.scaled(c) for t in self.components])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, H2Element):
            return NotImplemented
        return (self.genus == other.genus
                and self.components == other.components)

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.components)

    def is_integral(self) -> bool:
        return all(c.denominator == 1
                   for t in self.components for _, c in t.terms())

    def symbol_terms(self) -> list[tuple[Fraction,
                                         tuple[int, int], tuple[int, int]]]:
        """Greedy split into symmetrized bracket-pair symbols.

        Exact on elements this type admits; returned as (coefficient,
        first pair, second pair) with each pair increasing and the two
        pairs sorted, since the symbol is symmetric in them.  On four
        distinct letters the three symbols satisfy one null relation,
        which is used to shorten the answer, so a plain symmetrized
        pair prints as itself.
        """
        acc: dict[tuple[tuple[int, int], tuple[int, int]], Fraction] = {}
        for x, t in enumerate(self.components):
            for (y, z, w), c in t.terms():
                p, q, r, s, sign = x, y, z, w, 1
                if p == q or r == s:
                    continue
                if p > q:
                    p, q, sign = q, p, -sign
                if r > s:
                    r, s, sign = s, r, -sign
                key = tuple(sorted(((p, q), (r, s))))
                acc[key] = acc.get(key, 0) + Fraction(c, 12) * sign
        acc = {key: c for key, c in acc.items() if c}
        supports = {frozenset(p + q) for (p, q) in acc}
        for sup in supports:
            if len(sup) != 4:
                continue
            x0, x1, x2, x3 = sorted(sup)
            # the null relation: A - B + C = 0 for the three pairings
            keys = (((x0, x1), (x2, x3)),
                    ((x0, x2), (x1, x3)),
                    ((x0, x3), (x1, x2)))
            a, b, c = (acc.get(k, Fraction(0)) for k in keys)
            best = None
            for t in (Fraction(0), a, -b, c):
                trial = (a - t, b + t, c - t)
                score = (sum(1 for x in trial if x),
                         sum(1 for x in trial if x.denominator != 1))
                if best is None or score < best[0]:
                    best = (score, trial)
            acc.update(zip(keys, best[1]))
        return [(c, a, b) for (a, b), c in sorted(acc.items()) if c]

    def symbol_form(self) -> str:
        name = [letter_name(self.genus, x) for x in range(2 * self.genus)]
        return signed_sum(
            (c, f"[{name[p]},{name[q]}]<->[{name[r]},{name[s]}]")
            for c, (p, q), (r, s) in self.symbol_terms())

    def __str__(self) -> str:
        live = [f"{letter_name(self.genus, j)}: {lie_pretty(t)}"
                for j, t in enumerate(self.components) if not t.is_zero()]
        return "; ".join(live) if live else "0"

    def __repr__(self) -> str:
        return f"H2Element(genus={self.genus}, {self})"


def symmetric_pair(s: TruncatedTensor, t: TruncatedTensor) -> H2Element:
    """Symmetrized pairing varpi(s, t) + varpi(t, s) of two degree-two
    Lie elements."""
    a, b = _pairing_words(s, t)
    pres: Presentation = {}
    _add_pairing(pres, a, b)
    _add_pairing(pres, b, a)
    return H2Element._trusted(s.genus, _expand(s.genus, pres))


def bar_project(comps: Sequence[TruncatedTensor]) -> H2Element:
    """Symmetrizing projection of letter-slot components.

    Linear, idempotent, the identity on symmetric_pair images; the
    quarter rule on a single right-normed bracket spreads it over the
    four letters involved.  Raw move and path values generally lie
    outside the symmetrized space; this is how they enter it.  The
    input components are validated as pure degree-three Lie elements;
    the projection runs once and its output is not re-checked.
    """
    g = _check_components(comps, LIE_DEGREE)
    return H2Element._trusted(g, _bar_components(
        [t.truncated(LIE_DEGREE) for t in comps]))


def morita_pair(xi: Lambda3, eta: Lambda3) -> H2Element:
    """Skew pairing of wedge triples into the symmetrized space.

    With W and V the wedge_components of xi and eta, this is
    sum_i symmetric_pair(W[u_i], V[v_i]) - symmetric_pair(W[v_i], V[u_i]):
    each letter of a triple of xi is paired against each letter of a
    triple of eta, weighted by their intersection number, with the
    remaining brackets joined symmetrically.  This is the twist the
    path group law adds.
    """
    if xi.genus != eta.genus:
        raise ValueError("genus mismatch")
    g = xi.genus
    W, V = _wedge_words(xi), _wedge_words(eta)
    pres: Presentation = {}
    for i in range(g):
        for a, b, sign in ((W[i], V[g + i], 1), (W[g + i], V[i], -1)):
            _add_pairing(pres, a, b, sign)
            _add_pairing(pres, b, a, sign)
    return H2Element._trusted(g, _expand(g, pres))


def j1(move: WhiteheadMove) -> Lambda3:
    """Integral wedge of the three label markings.

    Six times the degree-one value of the move; vanishes whenever a
    label marking is zero, and flips sign under move reversal.
    """
    src = move.source
    g = src.genus()
    return Lambda3.wedge(g, src.h[move.a], src.h[move.b], src.h[move.c])


def _bar_degree_two(corrections: Sequence[TruncatedTensor]) -> H2Element:
    """Symmetrized degree-two part of a move or path map's corrections."""
    return bar_project(tensor_components(
        [c.graded(LIE_DEGREE) for c in corrections]))


def bar_tau2(move: WhiteheadMove) -> H2Element:
    """Symmetrized degree-two value of a single move."""
    return _bar_degree_two(move_ia(move, 2).corrections)


@dataclass(frozen=True)
class J2Value:
    """Twisted pair carried along a path: symmetrized degree-two level
    plus the wedge level that controls the mixing.

    The first slot holds 72 times the symmetrized degree-two value, the
    second the label wedge (six times the degree-one value); both are
    integral on integral markings.
    """

    s: H2Element
    xi: Lambda3

    def __post_init__(self):
        if self.s.genus != self.xi.genus:
            raise ValueError("genus mismatch")

    def is_zero(self) -> bool:
        return self.s.is_zero() and self.xi.is_zero()

    def is_integral(self) -> bool:
        return self.s.is_integral() and self.xi.is_integral()


def j2(move: WhiteheadMove) -> J2Value:
    """72 times the symmetrized degree-two value of a move, with its
    label wedge."""
    return J2Value(bar_tau2(move).scaled(72), j1(move))


def j2_compose(x: J2Value, y: J2Value) -> J2Value:
    """Twisted group law, first value then second.

    The twist constant is pinned by the two-move composition identity
    for the symmetrized degree-two level: with the scalings stored in
    J2Value the correction is exactly the wedge pairing, so folding
    j2 over a path reproduces 72 times the symmetrized degree-two value
    of the whole path.
    """
    return J2Value(x.s + y.s + morita_pair(x.xi, y.xi), x.xi + y.xi)


def j2_identity(genus: int) -> J2Value:
    return J2Value(H2Element.zero(genus), Lambda3(genus))


def j2_inverse(v: J2Value) -> J2Value:
    # the twist of a wedge against itself vanishes by skewness, so no
    # correction term survives
    return J2Value(-v.s, -v.xi)


def j2_path(path: MovePath) -> J2Value:
    """72 times the symmetrized degree-two value of the whole path, with
    the sum of its label wedges: the view of johnson.path_ia that
    tau_path is too.  By the twisted law it equals the fold of
    j2_compose over the j2 of the moves; the tests check that identity.
    Raises ValueError on a non-geometric marking.
    """
    g = path.initial.genus()
    xi = sum((j1(mv) for mv in path.moves), Lambda3(g))
    return J2Value(_bar_degree_two(path_ia(path, 2).corrections).scaled(72),
                   xi)
