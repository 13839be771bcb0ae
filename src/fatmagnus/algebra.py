"""Exact truncated tensor algebra over the first homology of a surface.

Everything downstream (Magnus expansions, Johnson lifts, cocycles) is computed
inside the degree-truncated tensor algebra T = Q<x_1,...,x_{2g}> / (deg > N).
Elements are kept exact: each graded component is a dict from packed integer
words to integer numerators over a single shared denominator, and Fractions
only appear at the API surface.

Every tensor is in one canonical form: a positive denominator, no zero
numerator and gcd(den, numerators) == 1, so equal values compare equal
whatever the route.  Two routines make it.  The producers that can cancel
terms (combination, bracket, _product, apply_letter_map) drop zeros
themselves; the private factory TruncatedTensor._of then reduces the gcd
once, dividing in place the per-degree dicts handed to it, which it owns
from then on.  TruncatedTensor.combination, sum c * t over (c, t) pairs
put over one lcm, is the one linear combination: +, -, negation, scaled
and hausdorff_tail are each one call to it.  _graded_sum is its twin on
homogeneous pieces, each over its own denominator; a Magnus table is built
from such pieces and assembled by TruncatedTensor._from_pieces.

exp_t and log_t run one Horner loop (_horner) over y, the argument less its
constant term.  If every term of y has degree >= m, the accumulator after
coefficient j is still to be multiplied by y j times, so only its degrees
<= N - j*m can reach the result, and each step's product stops there.  The
loop works on integer numerators over one common denominator and reduces
once, when it builds the result.  A Magnus table is built with neither,
a move path takes one star per move, and hausdorff_tail serves the BCH
oracles.

apply_letter_map, the one substitution routine, takes images with zero
constant term, so the images of the first i letters of a degree-k word
reach the result only through degrees i..N - (k - i), and each prefix
product stops there.  A word whose letters' images differ from the
letters only above the truncation goes straight to the output.  It also
works over one common denominator and reduces once.

Letters 0..g-1 are the u_i, letters g..2g-1 are the v_i.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

# one homogeneous degree of a tensor: (den, {packed word: numerator}),
# reduced by itself, with no zero numerator
Piece = tuple[int, dict[int, int]]


def _check_positive_int(name: str, x) -> None:
    """The rule for a genus or a degree: an int (not a bool), at least 1."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {x!r}")
    if x < 1:
        raise ValueError(f"{name} must be >= 1")


def _check_letters(genus: int, letters: Iterable[int]) -> None:
    _check_positive_int("genus", genus)
    for c in letters:
        if not 0 <= c < 2 * genus:
            raise ValueError(f"letter {c} out of range for genus {genus}")


def _zero_comps(genus: int, max_degree: int) -> list[dict[int, int]]:
    """Fresh empty components of a tensor of this shape."""
    _check_positive_int("genus", genus)
    _check_positive_int("max_degree", max_degree)
    return [{} for _ in range(max_degree + 1)]


def _check_shape(genus: int, max_degree: int, x) -> None:
    """Raise unless x, a tensor or an IAMap, has this genus and max_degree."""
    if x.genus != genus or x.max_degree != max_degree:
        what = "genus" if x.genus != genus else "max_degree"
        raise ValueError(f"{what} mismatch: genus {x.genus}, N {x.max_degree}"
                         f" vs genus {genus}, N {max_degree}")


def letter_name(genus: int, letter: int) -> str:
    _check_letters(genus, (letter,))
    if letter < genus:
        return f"u{letter + 1}"
    return f"v{letter - genus + 1}"


def letter_index(genus: int, name: str) -> int:
    """The index of a letter name as letter_name prints it: u1, ..., vg."""
    _check_positive_int("genus", genus)
    kind, num = name[:1], name[1:]
    # ASCII decimal digits with no leading zero, so that only the names
    # letter_name prints are read back
    if (kind not in ("u", "v") or not (num.isascii() and num.isdecimal())
            or len(num) > 1 and num[0] == "0"):
        raise ValueError(f"bad letter name {name!r}")
    i = int(num)
    if not 1 <= i <= genus:
        raise ValueError(f"letter {name!r} out of range for genus {genus}")
    return i - 1 if kind == "u" else genus + i - 1


def signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Render (coefficient, monomial) pairs as ``a - 1/2 b + 3``.

    Unit coefficients are dropped, an empty monomial prints as the bare
    scalar, and the empty sum prints as ``0``.
    """
    text = ""
    for coeff, mono in terms:
        a = abs(coeff)
        body = str(a) if not mono else mono if a == 1 else f"{a} {mono}"
        if not text:
            text = "-" + body if coeff < 0 else body
        else:
            text += f" - {body}" if coeff < 0 else f" + {body}"
    return text or "0"


def _pack(word: Sequence[int], nletters: int) -> int:
    key = 0
    for c in word:
        key = key * nletters + c
    return key


def _unpack(key: int, degree: int, nletters: int) -> tuple[int, ...]:
    out = []
    for _ in range(degree):
        key, c = divmod(key, nletters)
        out.append(c)
    return tuple(reversed(out))


def _product(a: Sequence[dict[int, int]], b: Sequence[dict[int, int]],
             nletters: int, lo: int, hi: int) -> list[dict[int, int]]:
    """Integer numerators of a*b in degrees lo..hi, zero terms dropped.

    a and b are per-degree components; the result has hi + 1 components,
    those below lo empty.
    """
    out: list[dict[int, int]] = [{} for _ in range(hi + 1)]
    for d1, c1 in enumerate(a[:hi + 1]):
        if not c1:
            continue
        for d2 in range(max(lo - d1, 0), min(hi - d1, len(b) - 1) + 1):
            c2 = b[d2]
            if not c2:
                continue
            shift = nletters ** d2
            target = out[d1 + d2]
            for k1, n1 in c1.items():
                base = k1 * shift
                for k2, n2 in c2.items():
                    key = base + k2
                    target[key] = target.get(key, 0) + n1 * n2
    return [{k: n for k, n in comp.items() if n} for comp in out]


def _graded_sum(nletters: int,
                products: Iterable[tuple[Fraction | int, Piece, Piece, int]],
                pieces: Iterable[tuple[Fraction | int, Piece]]) -> Piece:
    """sum c * a * b over (c, a, b, degree of b) plus sum c * p over
    (c, p), as a piece in lowest terms.  Unlike _product, which forms
    whole series over one shared denominator and leaves the sum to its
    caller, it works on one degree over that degree's own denominator, so
    numerators stay small, and adds each product in as it forms it."""
    prods = [(c, a, b, nletters ** db) for c, a, b, db in products
             if c and a[1] and b[1]]
    lins = [(c, p) for c, p in pieces if c and p[1]]
    den = lcm(*(c.denominator * a[0] * b[0] for c, a, b, _ in prods),
              *(c.denominator * p[0] for c, p in lins))
    acc: dict[int, int] = {}
    for c, (da, ca), (db, cb), shift in prods:
        m = c.numerator * (den // (c.denominator * da * db))
        for k1, n1 in ca.items():
            base, mn = k1 * shift, m * n1
            for k2, n2 in cb.items():
                key = base + k2
                acc[key] = acc.get(key, 0) + mn * n2
    for c, (dp, cp) in lins:
        m = c.numerator * (den // (c.denominator * dp))
        for k, n in cp.items():
            acc[k] = acc.get(k, 0) + m * n
    g = gcd(den, *acc.values())
    return den // g, {k: n // g for k, n in acc.items() if n}


class TruncatedTensor:
    """An element of the tensor algebra truncated above ``max_degree``.

    Components are stored per degree as {packed word: integer numerator};
    ``den`` is the common positive denominator for the whole element.

    Tensors are values: no operation changes its operands, and a tensor
    is not changed once an operation has returned it, so results (table
    entries, IAMap corrections) are shared, not copied.
    """

    __slots__ = ("genus", "nletters", "max_degree", "den", "comps")

    def __init__(self, genus: int, max_degree: int):
        self.comps = _zero_comps(genus, max_degree)
        self.genus, self.nletters = genus, 2 * genus
        self.max_degree, self.den = max_degree, 1

    @classmethod
    def _of(cls, genus: int, max_degree: int, den: int,
            comps: list[dict[int, int]]) -> "TruncatedTensor":
        """The tensor comps / den in lowest terms.  den > 0, and comps holds
        max_degree + 1 fresh dicts with no zero numerator, which the tensor
        takes over: the gcd is divided out of them in place."""
        g = den
        for comp in comps:
            if comp:
                g = gcd(g, *comp.values())
                if g == 1:
                    break
        if g > 1:
            den //= g
            for comp in comps:
                for k in comp:
                    comp[k] //= g
        t = cls.__new__(cls)
        t.genus, t.nletters = genus, 2 * genus
        t.max_degree, t.den, t.comps = max_degree, den, comps
        return t

    @classmethod
    def _from_pieces(cls, genus: int,
                     pieces: Sequence[Piece]) -> "TruncatedTensor":
        """The tensor whose degree-d part is pieces[d], d = 0..max_degree."""
        den = lcm(*(d for d, _ in pieces))
        return cls._of(genus, len(pieces) - 1, den,
                       [{k: n * (den // d) for k, n in c.items()}
                        for d, c in pieces])

    # -- construction -----------------------------------------------------

    @classmethod
    def unit(cls, genus: int, max_degree: int) -> "TruncatedTensor":
        return cls.from_terms(genus, {(): 1}, max_degree)

    @classmethod
    def letter(cls, genus: int, letter: int,
               max_degree: int) -> "TruncatedTensor":
        return cls.from_terms(genus, {(letter,): 1}, max_degree)

    @classmethod
    def from_terms(cls, genus: int,
                   terms: Mapping[tuple[int, ...], Fraction | int],
                   max_degree: int) -> "TruncatedTensor":
        """The sum of c * word over {word: c}, truncated above max_degree."""
        comps = _zero_comps(genus, max_degree)
        _check_letters(genus, {c for word in terms for c in word})
        fracs = {w: Fraction(c) for w, c in terms.items()
                 if c and len(w) <= max_degree}
        den = lcm(*(c.denominator for c in fracs.values()))
        for w, c in fracs.items():
            comps[len(w)][_pack(w, 2 * genus)] = (
                c.numerator * (den // c.denominator))
        return cls._of(genus, max_degree, den, comps)

    @classmethod
    def from_vector(cls, genus: int, vec: Sequence[Fraction | int],
                    max_degree: int) -> "TruncatedTensor":
        """Degree-1 element with the given coordinates in the letter basis."""
        if len(vec) != 2 * genus:
            raise ValueError("vector length must be 2*genus")
        return cls.from_terms(genus, {(i,): x for i, x in enumerate(vec)},
                              max_degree)

    @classmethod
    def combination(cls, genus: int,
                    pairs: Iterable[tuple[Fraction | int, "TruncatedTensor"]],
                    max_degree: int) -> "TruncatedTensor":
        """sum c * t over the (c, t) pairs, every t of the given shape,
        summed as integers over one lcm."""
        terms = []
        for c, t in pairs:
            _check_shape(genus, max_degree, t)
            if c:
                terms.append((c.numerator, t.den * c.denominator, t.comps))
        den = lcm(*(d for _, d, _ in terms))
        mults = [(n * (den // d), tc) for n, d, tc in terms]
        comps = []
        for d in range(max_degree + 1):
            acc: dict[int, int] = {}
            for m, tc in mults:
                if acc:
                    for k, n in tc[d].items():
                        acc[k] = acc.get(k, 0) + m * n
                else:
                    acc = {k: m * n for k, n in tc[d].items()}
            # one pair cannot cancel: its tensor holds no zero
            comps.append({k: n for k, n in acc.items() if n}
                         if len(mults) > 1 else acc)
        return cls._of(genus, max_degree, den, comps)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not comp for comp in self.comps)

    def coefficient(self, word: Sequence[int]) -> Fraction:
        _check_letters(self.genus, word)
        if len(word) > self.max_degree:
            return Fraction(0)
        n = self.comps[len(word)].get(_pack(word, self.nletters), 0)
        return Fraction(n, self.den)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Yield (word, coefficient) pairs, degree by degree."""
        for d, comp in enumerate(self.comps):
            for key in sorted(comp):
                yield _unpack(key, d, self.nletters), Fraction(comp[key], self.den)

    def min_degree(self) -> int | None:
        for d, comp in enumerate(self.comps):
            if comp:
                return d
        return None

    def graded(self, degree: int) -> "TruncatedTensor":
        """The homogeneous degree-``degree`` part."""
        comps: list[dict[int, int]] = [{} for _ in self.comps]
        if 0 <= degree <= self.max_degree:
            comps[degree] = dict(self.comps[degree])
        return self._of(self.genus, self.max_degree, self.den, comps)

    def truncated(self, max_degree: int) -> "TruncatedTensor":
        """Image under the projection to a lower truncation degree, or the
        same element read in a higher one."""
        comps = _zero_comps(self.genus, max_degree)
        keep = self.comps[:max_degree + 1]
        comps[:len(keep)] = map(dict, keep)
        return self._of(self.genus, max_degree, self.den, comps)

    # -- ring operations --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        if self.genus != other.genus or self.max_degree != other.max_degree:
            return False
        return self.den == other.den and self.comps == other.comps

    def __hash__(self):
        raise TypeError("TruncatedTensor is not hashable")

    def __neg__(self) -> "TruncatedTensor":
        return self.combination(self.genus, ((-1, self),), self.max_degree)

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return self.combination(self.genus, ((1, self), (1, other)),
                                self.max_degree)

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return self.combination(self.genus, ((1, self), (-1, other)),
                                self.max_degree)

    def scaled(self, c: Fraction | int) -> "TruncatedTensor":
        return self.combination(self.genus, ((c, self),), self.max_degree)

    def __mul__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        """Concatenation (tensor) product, truncated."""
        _check_shape(self.genus, self.max_degree, other)
        N = self.max_degree
        return self._of(self.genus, N, self.den * other.den,
                        _product(self.comps, other.comps, self.nletters, 0, N))

    def bracket(self, other: "TruncatedTensor") -> "TruncatedTensor":
        """self * other - other * self, as one integer difference."""
        _check_shape(self.genus, self.max_degree, other)
        N, n = self.max_degree, self.nletters
        ab = _product(self.comps, other.comps, n, 0, N)
        for p, q in zip(ab, _product(other.comps, self.comps, n, 0, N)):
            for k, v in q.items():
                p[k] = p.get(k, 0) - v
        return self._of(self.genus, N, self.den * other.den,
                        [{k: v for k, v in p.items() if v} for p in ab])

    def __repr__(self) -> str:
        return f"TruncatedTensor(genus={self.genus}, N={self.max_degree}, {self.pretty()})"

    # -- display ----------------------------------------------------------

    def pretty(self) -> str:
        """Plain word-by-word rendering, e.g. ``1/2 u1.v1 - 1/2 v1.u1``."""
        return signed_sum(
            (coeff, ".".join(letter_name(self.genus, c) for c in word))
            for word, coeff in self.terms())


# -- Lie structure --------------------------------------------------------


def _right_normed(word: Sequence[int]) -> dict[tuple[int, ...], int]:
    """[w_1, [w_2, [..., w_k]]] as {word: coefficient}, zeros dropped."""
    out = {tuple(word[-1:]): 1}
    for c in reversed(word[:-1]):
        new: dict[tuple[int, ...], int] = {}
        for w, n in out.items():
            new[(c,) + w] = new.get((c,) + w, 0) + n
            new[w + (c,)] = new.get(w + (c,), 0) - n
        out = {w: n for w, n in new.items() if n}
    return out


def right_bracketing(genus: int, word: Sequence[int],
                     max_degree: int) -> TruncatedTensor:
    """[w_1, [w_2, [..., w_k]]] as a tensor."""
    return TruncatedTensor.from_terms(genus, _right_normed(word), max_degree)


def is_lie(t: TruncatedTensor) -> bool:
    """Whether every homogeneous piece lies in the free Lie algebra.

    The Dynkin-Specht-Wever criterion, on the integer numerators: a
    degree-n tensor t = sum_w c_w w is Lie iff sum_w c_w r(w) = n t, with
    r(w) = [w_1, [w_2, [..., w_n]]].  A constant term is never Lie.
    """
    if t.comps[0]:
        return False
    nl = t.nletters
    for n, comp in enumerate(t.comps[1:], 1):
        if not comp:
            continue
        acc: dict[int, int] = {}
        for key, c in comp.items():
            for w, s in _right_normed(_unpack(key, n, nl)).items():
                k = _pack(w, nl)
                acc[k] = acc.get(k, 0) + s * c
        if {k: c for k, c in acc.items() if c} != {
                k: n * c for k, c in comp.items()}:
            return False
    return True


def _check_lie(t: TruncatedTensor, degree: int, where: str) -> None:
    """Raise ValueError unless t is a Lie element, pure of this degree."""
    if any(comp for d, comp in enumerate(t.comps) if d != degree):
        raise ValueError(f"{where} is not pure of degree {degree}")
    if not is_lie(t):
        raise ValueError(f"{where} is not a Lie element")


def _lyndon_factor(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # standard factorization: the lexicographically smallest proper suffix
    best = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:best], word[best:]


def _lyndon_bracket(genus: int, word: tuple[int, ...], max_degree: int
                    ) -> tuple[TruncatedTensor, str]:
    """The standard bracketing of a Lyndon word, as a tensor and as text."""
    if len(word) == 1:
        return (TruncatedTensor.letter(genus, word[0], max_degree),
                letter_name(genus, word[0]))
    (ta, sa), (tb, sb) = (_lyndon_bracket(genus, w, max_degree)
                          for w in _lyndon_factor(word))
    return ta.bracket(tb), f"[{sa},{sb}]"


def lie_pretty(t: TruncatedTensor) -> str:
    """Render a Lie element in the Lyndon bracket basis.

    The standard bracketing of a Lyndon word w is w plus larger words of
    its degree, so the least word in the support of a nonzero homogeneous
    Lie element is Lyndon and its coefficient is the Lyndon coordinate.
    Each degree is peeled off word by word from the bottom.  Non-Lie
    input falls back to the plain rendering.
    """
    if not is_lie(t):
        return t.pretty()
    bits: list[tuple[Fraction, str]] = []
    for n in range(1, t.max_degree + 1):
        rem = t.graded(n)
        while not rem.is_zero():
            lw, c = next(rem.terms())
            br, text = _lyndon_bracket(t.genus, lw, t.max_degree)
            rem = rem - br.scaled(c)
            bits.append((c, text))
    return signed_sum(bits)


# -- exponential / logarithm / Hausdorff ----------------------------------


def _horner(x: TruncatedTensor, coeffs: Sequence[Fraction]) -> TruncatedTensor:
    """sum_j coeffs[j] y^j, where y is x less its constant.

    coeffs holds the coefficients of y^0..y^N.  Horner's rule from the top
    coefficient down, each product truncated as the module docstring
    says.  The coefficients are scaled to integers over one common
    denominator, so each step is one integer product plus a constant.
    """
    N = x.max_degree
    y = [{}] + x.comps[1:]
    m = next((d for d, comp in enumerate(y) if comp), N + 1)
    top = N // m  # y^j vanishes for j > top
    den = lcm(*(c.denominator for c in coeffs[:top + 1]))
    b = [c.numerator * (den // c.denominator) * x.den ** (top - j)
         for j, c in enumerate(coeffs[:top + 1])]
    acc = [{0: b[top]} if b[top] else {}]
    for j in range(top - 1, -1, -1):
        acc = _product(y, acc, x.nletters, 0, N - j * m)
        if b[j]:
            acc[0][0] = b[j]
    comps: list[dict[int, int]] = [{} for _ in range(N + 1)]
    comps[:len(acc)] = acc
    return TruncatedTensor._of(x.genus, N, den * x.den ** top, comps)


def exp_t(x: TruncatedTensor) -> TruncatedTensor:
    """exp of an element with zero constant term."""
    if x.comps[0]:
        raise ValueError("exp needs zero constant term")
    return _horner(x, [Fraction(1, factorial(j))
                       for j in range(x.max_degree + 1)])


def log_t(x: TruncatedTensor) -> TruncatedTensor:
    """log of an element with constant term 1."""
    if Fraction(x.comps[0].get(0, 0), x.den) != 1:
        raise ValueError("log needs constant term 1")
    return _horner(x, [Fraction(0)] + [Fraction((-1) ** (j + 1), j)
                                       for j in range(1, x.max_degree + 1)])


def star(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """Baker-Campbell-Hausdorff product log(exp x * exp y)."""
    return log_t(exp_t(x) * exp_t(y))


def hausdorff_tail(x: TruncatedTensor, y: TruncatedTensor) -> TruncatedTensor:
    """star(x, y) - x - y: the higher correction terms."""
    return TruncatedTensor.combination(
        x.genus, ((1, star(x, y)), (-1, x), (-1, y)), x.max_degree)


# -- H-coefficient vectors ------------------------------------------------


def dot(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> Fraction:
    """Symplectic pairing of two coordinate vectors in the letter basis."""
    if len(a) != len(b) or len(a) % 2:
        raise ValueError("need two vectors of equal even length")
    g = len(a) // 2
    total = Fraction(0)
    for i in range(g):
        total += Fraction(a[i]) * Fraction(b[g + i]) - Fraction(a[g + i]) * Fraction(b[i])
    return total


def row_reduce(rows: Sequence[Sequence[Fraction | int]]
               ) -> tuple[list[list[Fraction | int]], list[int]]:
    """Exact Gauss-Jordan elimination.

    Returns the reduced rows and the pivot column of each of the first
    len(pivots) rows.  Pivot entries are left unscaled; every other entry
    of a pivot column is cleared, and entries no step changes keep their
    input type.  The pivot columns are the first-come greedy choice of
    independent columns, and their number is the rank.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        # prow is zero left of col, so only its nonzero entries from col
        # on change a row
        p, tail = prow[col], prow[col:]
        for row in rows:
            if row is not prow and row[col]:
                f = Fraction(row[col]) / p
                row[col:] = [x - f * y if y else x
                             for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return rows, pivots


def symplectic_form(genus: int, max_degree: int) -> TruncatedTensor:
    """omega = sum_i [u_i, v_i] as a degree-2 tensor."""
    _check_positive_int("genus", genus)
    return TruncatedTensor.from_terms(
        genus, {w: s for i in range(genus)
                for w, s in _right_normed((i, genus + i)).items()}, max_degree)


def apply_letter_map(t: TruncatedTensor,
                     images: Sequence[TruncatedTensor]) -> TruncatedTensor:
    """The algebra endomorphism sending letter i to images[i].

    Every image must have the shape of t and zero constant term; the
    truncation rule is in the module docstring.
    """
    genus, N, n = t.genus, t.max_degree, t.nletters
    if len(images) != n:
        raise ValueError("need one image per letter")
    # lift[c]: how far the image of c, less c itself, raises degree
    lift = []
    for c, im in enumerate(images):
        where = f"image of {letter_name(genus, c)}"
        if (im.genus, im.max_degree) != (genus, N):
            raise ValueError(f"{where} has genus {im.genus} and max_degree "
                             f"{im.max_degree}, not {genus} and {N}")
        if im.comps[0]:
            raise ValueError(f"{where} has a constant term")
        lift.append(0 if im.comps[1] != {c: im.den} else
                    next((d - 1 for d in range(2, N + 1) if im.comps[d]), N))
    den = lcm(*(im.den for im in images))
    imgs = [[{w: v * (den // im.den) for w, v in comp.items()}
             for comp in im.comps] for im in images]
    out: list[dict[int, int]] = [{} for _ in range(N + 1)]
    for k, comp in enumerate(t.comps):
        # a degree-k word whose letters all lift by more than N - k is fixed
        fixed = {c for c in range(n) if lift[c] > N - k}
        for key, x in comp.items():
            word = _unpack(key, k, n)
            if fixed.issuperset(word):
                out[k][key] = out[k].get(key, 0) + x * den ** N
                continue
            prod = [{0: 1}]  # the image of word[:j]
            for j, c in enumerate(word):
                prod = _product(prod, imgs[c], n, j + 1, N - k + j + 1)
            coeff = x * den ** (N - k)
            for d in range(k, N + 1):
                acc = out[d]
                for w, v in prod[d].items():
                    acc[w] = acc.get(w, 0) + coeff * v
    return TruncatedTensor._of(
        genus, N, t.den * den ** N,
        [{w: v for w, v in comp.items() if v} for comp in out])


def matrix_letter_images(genus: int, matrix: Sequence[Sequence[int]],
                         max_degree: int) -> list[TruncatedTensor]:
    """Images of the letters under a linear map given by rows = letter images."""
    if len(matrix) != 2 * genus or any(len(r) != 2 * genus for r in matrix):
        raise ValueError("matrix must be 2g x 2g")
    return [TruncatedTensor.from_vector(genus, row, max_degree) for row in matrix]


def is_symplectic_matrix(genus: int,
                         matrix: Sequence[Sequence[int]]) -> bool:
    """Whether row-images preserve the pairing ``dot``."""
    _check_positive_int("genus", genus)
    n = 2 * genus
    if len(matrix) != n or any(len(r) != n for r in matrix):
        return False
    basis = [[Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    return all(dot(matrix[i], matrix[j]) == dot(basis[i], basis[j])
               for i in range(n) for j in range(i + 1, n))


# -- IA automorphism maps -------------------------------------------------


class IAMap:
    """Substitution x_i -> x_i + corrections[i], corrections of degree >= 2.

    Models the action on the completed tensor algebra of an automorphism
    that is the identity on degree 1. Supports application and
    composition (self after other is ``other.compose(self)`` in the group
    sense used here: see ``compose``), both exactly to the truncation.
    The genus and truncation are read off corrections[0], and every
    correction must share them; identity(genus, max_degree) is the map
    with zero corrections.  corrections is a read-only tuple, since apply
    caches the images built from it.
    """

    __slots__ = ("genus", "max_degree", "_corrections", "_images")

    def __init__(self, corrections: Sequence[TruncatedTensor]):
        if not corrections or len(corrections) != 2 * corrections[0].genus:
            raise ValueError("need one correction per letter")
        genus, max_degree = corrections[0].genus, corrections[0].max_degree
        for i, c in enumerate(corrections):
            where = f"correction of {letter_name(genus, i)}"
            if (c.genus, c.max_degree) != (genus, max_degree):
                raise ValueError(
                    f"{where} has genus {c.genus} and max_degree "
                    f"{c.max_degree}, not {genus} and {max_degree}")
            md = c.min_degree()
            if md is not None and md < 2:
                raise ValueError(f"{where} has a degree-{md} term, below 2")
        self.genus = genus
        self.max_degree = max_degree
        self._corrections = tuple(corrections)
        self._images: list[TruncatedTensor] | None = None

    @property
    def corrections(self) -> tuple[TruncatedTensor, ...]:
        return self._corrections

    @classmethod
    def identity(cls, genus: int, max_degree: int) -> "IAMap":
        return cls([TruncatedTensor(genus, max_degree)] * (2 * genus))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IAMap):
            return NotImplemented
        return (self.genus == other.genus
                and self.max_degree == other.max_degree
                and self.corrections == other.corrections)

    def apply(self, t: TruncatedTensor) -> TruncatedTensor:
        """Apply the substitution to an arbitrary truncated tensor."""
        _check_shape(self.genus, self.max_degree, t)
        if self._images is None:  # x_i + corrections[i], built once
            self._images = [
                TruncatedTensor.letter(self.genus, i, self.max_degree) + c
                for i, c in enumerate(self.corrections)]
        return apply_letter_map(t, self._images)

    def compose(self, other: "IAMap") -> "IAMap":
        """The map "self then other": x -> other(self(x)).

        Corrections: new(x_i) = self(x_i) applied through other, minus x_i,
        i.e. other.apply(x_i + self_corr_i) - x_i
            = other_corr_i + other.apply(self_corr_i).
        """
        _check_shape(self.genus, self.max_degree, other)
        new = [other.corrections[i] + other.apply(self.corrections[i])
               for i in range(2 * self.genus)]
        return IAMap(new)
