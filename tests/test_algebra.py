from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatmagnus.algebra import (
    IAMap,
    TruncatedTensor,
    apply_letter_map,
    dot,
    exp_t,
    hausdorff_tail,
    is_lie,
    is_symplectic_matrix,
    letter_index,
    letter_name,
    lie_pretty,
    log_t,
    matrix_letter_images,
    right_bracketing,
    row_reduce,
    star,
    symplectic_form,
)
from fatmagnus.fatgraph import boundary_word
from fatmagnus.johnson import dual_vector
from helpers import (
    coeffs,
    ia_maps,
    lie_tensors,
    reference_apply_letter_map,
    reference_exp_t,
    reference_ia_apply,
    reference_is_lie,
    reference_lie_pretty,
    reference_log_t,
    reference_right_bracketing,
    tensors,
)


def letters(genus, max_degree):
    return [TruncatedTensor.letter(genus, i, max_degree)
            for i in range(2 * genus)]


def genus_1_or_2(*strategies):
    """A genus, 1 or 2, and one draw from each strategy at that genus."""
    return st.integers(1, 2).flatmap(
        lambda g: st.tuples(*(f(g) for f in strategies)))


def test_letter_names_roundtrip():
    for g in (1, 2, 3):
        for i in range(2 * g):
            assert letter_index(g, letter_name(g, i)) == i
    assert letter_name(2, 0) == "u1"
    assert letter_name(2, 3) == "v2"
    with pytest.raises(ValueError):
        letter_name(1, 2)
    with pytest.raises(ValueError):
        letter_index(1, "u2")


def test_letter_index_rejects_an_empty_name():
    with pytest.raises(ValueError, match="bad letter name ''"):
        letter_index(1, "")


@pytest.mark.parametrize("name", ["u01", "u\u00b2", "v\u0663"])
def test_letter_index_rejects_names_letter_name_never_prints(name):
    # a leading zero, a superscript digit and a non-ASCII decimal digit
    with pytest.raises(ValueError, match=f"bad letter name {name!r}"):
        letter_index(3, name)


@pytest.mark.parametrize("genus, max_degree, what", [
    (1.5, 2, "genus must be an int, got 1.5"),
    (True, 2, "genus must be an int, got True"),
    (1, 2.0, "max_degree must be an int, got 2.0"),
], ids=["float-genus", "bool-genus", "float-degree"])
def test_tensor_shape_must_be_ints(genus, max_degree, what):
    with pytest.raises(ValueError, match=what):
        TruncatedTensor(genus, max_degree)
    if type(max_degree) is int:
        # every genus-taking helper applies the tensor's genus rule
        for call in (lambda: boundary_word(genus),
                     lambda: symplectic_form(genus, max_degree),
                     lambda: dual_vector(genus, 0),
                     lambda: letter_name(genus, 0),
                     lambda: letter_index(genus, "u1"),
                     lambda: is_symplectic_matrix(genus, [[1, 0], [0, 1]])):
            with pytest.raises(ValueError, match=what):
                call()


def test_product_truncates():
    u, v = letters(1, 2)
    one = TruncatedTensor.unit(1, 2)
    p = (one + u) * (one - u)
    assert p.coefficient(()) == 1
    assert p.coefficient((0, 0)) == -1
    assert p.coefficient((0,)) == 0
    # degree-3 part killed by truncation
    assert (u * u * u).is_zero()


def test_coefficient_and_terms():
    t = TruncatedTensor.from_terms(2, {(0, 3): Fraction(5, 6)}, 5) \
        + TruncatedTensor.from_terms(2, {(1,): -2}, 5)
    assert t.coefficient((0, 3)) == Fraction(5, 6)
    assert t.coefficient((3, 0)) == 0
    assert dict((w, c) for w, c in t.terms()) == {
        (1,): Fraction(-2), (0, 3): Fraction(5, 6)}


@given(tensors(), tensors(), tensors())
def test_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(tensors(), tensors(), tensors())
def test_product_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(tensors(), tensors())
def test_addition_commutes(a, b):
    assert a + b == b + a
    assert (a - b) + b == a


@given(tensors())
def test_scaling(a):
    assert a.scaled(Fraction(3, 2)).scaled(Fraction(2, 3)) == a
    assert a.scaled(0).is_zero()
    assert -(-a) == a


@given(tensors())
def test_graded_parts_sum_back(a):
    total = TruncatedTensor(a.genus, a.max_degree)
    for d in range(a.max_degree + 1):
        part = a.graded(d)
        assert part.min_degree() in (None, d)
        total = total + part
    assert total == a


@given(tensors(min_degree=1))
def test_exp_log_roundtrip(x):
    assert log_t(exp_t(x)) == x


@given(tensors(min_degree=1))
def test_exp_of_negation_inverts(x):
    assert exp_t(x) * exp_t(-x) == TruncatedTensor.unit(x.genus, x.max_degree)


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        exp_t(TruncatedTensor.unit(1, 5))
    with pytest.raises(ValueError):
        log_t(TruncatedTensor.letter(1, 0, 5))


@st.composite
def kernel_inputs(draw):
    """Genus 1-3 and degree 1-6: arbitrary (mostly non-Lie) x and y with
    zero constant term, small-denominator coefficients, and x sometimes
    starting above degree one."""
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    x = draw(tensors(g, n, min_degree=draw(st.integers(1, n)), max_terms=3))
    y = draw(tensors(g, n, min_degree=1, max_terms=3))
    return x, y


@settings(deadline=None, max_examples=150)
@given(kernel_inputs())
def test_exp_log_star_equal_the_full_truncation_reference(xy):
    x, y = xy
    one = TruncatedTensor.unit(x.genus, x.max_degree)
    ex = exp_t(x)
    # == compares the canonical den and comps, so this is bit-identity
    assert ex == reference_exp_t(x)
    assert log_t(one + y) == reference_log_t(one + y)
    p = ex * exp_t(y)
    assert log_t(p) == reference_log_t(p)
    assert star(x, y) == reference_log_t(reference_exp_t(x)
                                         * reference_exp_t(y))


@pytest.mark.parametrize("const", [Fraction(2), Fraction(1, 2), Fraction(-1),
                                   Fraction(0)])
def test_exp_and_log_reject_a_bad_constant_term(const):
    x = TruncatedTensor.letter(2, 1, 4) + TruncatedTensor.from_terms(
        2, {(0, 3): Fraction(1, 3)}, 4)
    c = TruncatedTensor.unit(2, 4).scaled(const)
    if const:
        with pytest.raises(ValueError, match="exp needs zero constant term"):
            exp_t(x + c)
    with pytest.raises(ValueError, match="log needs constant term 1"):
        log_t(x + c)


def test_hausdorff_low_degrees():
    u, v = letters(1, 5)
    uv = u.bracket(v)
    h = hausdorff_tail(u, v)
    assert h.graded(1).is_zero()
    assert h.graded(2) == uv.scaled(Fraction(1, 2))
    assert h.graded(3) == (u.bracket(uv) - v.bracket(uv)).scaled(Fraction(1, 12))
    assert h.graded(4) == u.bracket(v.bracket(uv)).scaled(Fraction(-1, 24))


@settings(deadline=None)
@given(lie_tensors(max_degree=3), lie_tensors(max_degree=3),
       lie_tensors(max_degree=3))
def test_star_associative(x, y, z):
    assert star(star(x, y), z) == star(x, star(y, z))


@settings(deadline=None)
@given(lie_tensors(), lie_tensors())
def test_star_of_lie_is_lie(x, y):
    assert is_lie(star(x, y))


@settings(deadline=None)
@given(tensors(min_degree=1), tensors(min_degree=1))
def test_hausdorff_tail_degree_depends_on_lower_parts(x, y):
    # the degree-n part of star(x,y)-x-y only sees degrees < n of x and y
    for n in range(2, x.max_degree + 1):
        xt = sum_parts(x, n - 1)
        yt = sum_parts(y, n - 1)
        assert hausdorff_tail(x, y).graded(n) == \
            hausdorff_tail(xt, yt).graded(n)


def sum_parts(t, through):
    out = TruncatedTensor(t.genus, t.max_degree)
    for d in range(through + 1):
        out = out + t.graded(d)
    return out


def test_is_lie_detects():
    u, v = letters(1, 5)
    assert is_lie(u.bracket(v))
    assert is_lie(u.bracket(u.bracket(v)) + v)
    assert not is_lie(u * v)
    assert not is_lie(TruncatedTensor.unit(1, 5))
    assert is_lie(TruncatedTensor(1, 5))


@st.composite
def is_lie_inputs(draw):
    """A genus 1-3, degree 1-6 tensor of one of four kinds: Lie, Lie
    plus one stray word, random words, or Lie plus a constant term."""
    g, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["lie", "perturbed", "words", "constant"]))
    if kind == "words":
        return kind, draw(tensors(g, n, min_degree=1, max_terms=4))
    t = draw(lie_tensors(g, n, max_terms=3))
    if kind == "perturbed":
        t = t + draw(tensors(g, n, min_degree=min(2, n), max_terms=1))
    if kind == "constant":
        t = t + TruncatedTensor.unit(g, n).scaled(draw(coeffs))
    return kind, t


@given(is_lie_inputs())
@settings(max_examples=150, deadline=None)
def test_is_lie_equals_the_dynkin_product_reference(kind_t):
    kind, t = kind_t
    got = is_lie(t)
    assert got == reference_is_lie(t)
    if kind == "lie":
        assert got
    if kind == "constant":
        assert not got


@given(st.integers(1, 3).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.integers(0, 2 * g - 1), min_size=1, max_size=6),
    st.integers(1, 6))))
@settings(max_examples=80, deadline=None)
def test_right_bracketing_equals_the_bracket_product_reference(args):
    g, word, n = args
    assert right_bracketing(g, word, n) == reference_right_bracketing(g, word, n)


@pytest.mark.parametrize("word, bad", [((2,), 2), ((0, 5), 5), ((-1,), -1)])
def test_words_with_out_of_range_letters_are_rejected(word, bad):
    # these once printed as u1, u1.v1 and v1 at genus 1 but stored a
    # packed key no in-range word has
    with pytest.raises(ValueError, match=rf"letter {bad} out of range for genus 1"):
        TruncatedTensor.from_terms(1, {word: 1}, 5)
    with pytest.raises(ValueError, match=rf"letter {bad} out of range for genus 1"):
        TruncatedTensor.from_terms(1, {(0,): 1, word: 2}, 5)


@pytest.mark.parametrize("word, bad", [((0, 2), 2), ((-1,), -1)])
def test_coefficient_rejects_out_of_range_letters(word, bad):
    # at genus 1 these once read 1 (the coefficient of v1.u1) and 0
    t = TruncatedTensor.from_terms(1, {(1, 0): 1}, 5)
    with pytest.raises(ValueError, match=rf"letter {bad} out of range for genus 1"):
        t.coefficient(word)
    assert t.coefficient((1, 0)) == 1


def test_lie_pretty_examples():
    u, v = letters(1, 5)
    assert lie_pretty(u.bracket(v)) == "[u1,v1]"
    assert lie_pretty(u.bracket(v).scaled(Fraction(-1, 2))) == "-1/2 [u1,v1]"
    assert lie_pretty(TruncatedTensor(1, 5)) == "0"
    # non-Lie input falls back to the word rendering
    assert "u1.v1" in lie_pretty(u * v)


def test_pretty_prints_scalar_terms_bare():
    one = TruncatedTensor.unit(1, 5)
    u, _ = letters(1, 5)
    assert one.scaled(2).pretty() == "2"
    assert (one - u).pretty() == "1 - u1"
    assert (-one).pretty() == "-1"
    assert (u.scaled(Fraction(-1, 2)) + one).pretty() == "1 - 1/2 u1"


@given(lie_tensors(genus=2))
def test_lie_pretty_parses_back(t):
    # the rendering is a faithful linear combination of bracketings
    rec = eval_bracket_text(lie_pretty(t), 2, t.max_degree)
    assert rec == t


@given(st.integers(1, 3).flatmap(
    lambda g: lie_tensors(g, max_degree=5, max_terms=4)))
@settings(max_examples=60, deadline=None)
def test_lie_pretty_equals_the_greedy_reference(t):
    # the least-word peel gives the coordinates the Duval-ordered
    # greedy loop finds, in the same order
    assert lie_pretty(t) == reference_lie_pretty(t)
    u, v = letters(t.genus, t.max_degree)[:2]
    assert lie_pretty(t + u * v) == reference_lie_pretty(t + u * v)


def eval_bracket_text(text, genus, max_degree):
    """Tiny evaluator for the lie_pretty output format."""
    total = TruncatedTensor(genus, max_degree)
    if text == "0":
        return total
    text = text.replace(" - ", " + -")
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        if " " in chunk:
            num, expr = chunk.split(" ", 1)
            coeff = Fraction(num)
        else:
            expr, coeff = chunk, Fraction(1)
        if neg:
            coeff = -coeff
        total = total + eval_bracket_expr(expr, genus, max_degree).scaled(coeff)
    return total


def eval_bracket_expr(expr, genus, max_degree):
    if not expr.startswith("["):
        return TruncatedTensor.letter(genus, letter_index(genus, expr), max_degree)
    depth = 0
    for i, ch in enumerate(expr):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 1:
            left = eval_bracket_expr(expr[1:i], genus, max_degree)
            right = eval_bracket_expr(expr[i + 1:-1], genus, max_degree)
            return left.bracket(right)
    raise ValueError(expr)


def test_dot_on_basis():
    assert dot([1, 0], [0, 1]) == 1
    assert dot([0, 1], [1, 0]) == -1
    assert dot([1, 0, 0, 0], [0, 0, 1, 0]) == 1
    assert dot([1, 0, 0, 0], [0, 1, 0, 0]) == 0


@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_dot_antisymmetric(a, b):
    assert dot(a, b) == -dot(b, a)


def test_symplectic_form_is_lie():
    w = symplectic_form(2, 5)
    assert is_lie(w)
    assert w.coefficient((0, 2)) == 1
    assert w.coefficient((2, 0)) == -1
    assert w.coefficient((1, 3)) == 1


def test_symplectic_matrix_checks():
    # transvection along u1
    assert is_symplectic_matrix(1, [[1, 1], [0, 1]])
    assert is_symplectic_matrix(1, [[0, 1], [-1, 0]])
    assert not is_symplectic_matrix(1, [[2, 0], [0, 1]])
    assert not is_symplectic_matrix(1, [[1, 0]])
    swap_handles = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert is_symplectic_matrix(2, swap_handles)
    # exchanging u's with v's flips the pairing sign
    assert not is_symplectic_matrix(
        2, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])


def test_apply_letter_map_substitutes():
    u, v = letters(1, 5)
    images = matrix_letter_images(1, [[1, 1], [0, 1]], 5)
    t = apply_letter_map(u.bracket(v), images)
    # [u+v, v] = [u,v]
    assert t == u.bracket(v)
    t2 = apply_letter_map(u * u, images)
    assert t2 == (u + v) * (u + v)


@given(tensors(), tensors())
def test_apply_letter_map_is_ring_hom(a, b):
    images = matrix_letter_images(1, [[1, 2], [1, 1]], a.max_degree)
    f = lambda t: apply_letter_map(t, images)
    assert f(a * b) == f(a) * f(b)
    assert f(a + b) == f(a) + f(b)


@st.composite
def substitutions(draw):
    """Genus 1-3 and degree 1-6: an input with a constant term and a
    degree-N word, a map x_i -> x_i + corrections[i] with some
    corrections zero, and linear images from a non-identity integer
    matrix, plus the same with the corrections added on."""
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    top = tuple(draw(st.lists(st.integers(0, 2 * g - 1),
                              min_size=n, max_size=n)))
    t = (draw(tensors(g, n, max_terms=3))
         + TruncatedTensor.unit(g, n).scaled(draw(coeffs))
         + TruncatedTensor.from_terms(g, {top: draw(coeffs)}, n))
    zero = TruncatedTensor(g, n)
    corr = [draw(tensors(g, n, min_degree=2, max_terms=2))
            if n >= 2 and draw(st.booleans()) else zero
            for _ in range(2 * g)]
    entries = st.sampled_from([-1, 0, 0, 0, 1, 2])
    mat = draw(st.lists(st.lists(entries, min_size=2 * g, max_size=2 * g),
                        min_size=2 * g, max_size=2 * g)
               .filter(lambda m: m != [[int(i == j) for j in range(2 * g)]
                                       for i in range(2 * g)]))
    return t, IAMap(corr), matrix_letter_images(g, mat, n)


@settings(deadline=None, max_examples=120)
@given(substitutions())
def test_substitution_equals_both_old_routines(args):
    t, m, linear = args
    g, n = t.genus, t.max_degree
    ia_images = [TruncatedTensor.letter(g, i, n) + c
                 for i, c in enumerate(m.corrections)]
    # == compares the canonical den and comps, so this is bit-identity
    assert m.apply(t) == reference_ia_apply(m, t)
    assert apply_letter_map(t, ia_images) == reference_ia_apply(m, t)
    assert apply_letter_map(t, linear) == reference_apply_letter_map(
        t, linear)
    mixed = [a + c for a, c in zip(linear, m.corrections)]
    assert apply_letter_map(t, mixed) == reference_apply_letter_map(
        t, mixed)


@pytest.mark.parametrize("bad, message", [
    (TruncatedTensor.unit(2, 3) + TruncatedTensor.letter(2, 3, 3),
     "image of v2 has a constant term"),
    (TruncatedTensor.letter(1, 1, 3),
     "image of v2 has genus 1 and max_degree 3, not 2 and 3"),
    (TruncatedTensor.letter(2, 3, 4),
     "image of v2 has genus 2 and max_degree 4, not 2 and 3"),
], ids=["constant_term", "genus", "max_degree"])
def test_substitution_rejects_images_it_cannot_substitute(bad, message):
    images = [TruncatedTensor.letter(2, i, 3) for i in range(3)] + [bad]
    t = TruncatedTensor.from_terms(2, {(3, 0): 1}, 3)
    with pytest.raises(ValueError, match=message):
        apply_letter_map(t, images)


def test_substitution_rejects_a_constant_term_at_any_truncation():
    # u -> 1 + u has no truncation-independent value on u^2 + u^3
    for n in (2, 3):
        u = TruncatedTensor.letter(1, 0, n)
        images = [TruncatedTensor.unit(1, n) + u,
                  TruncatedTensor.letter(1, 1, n)]
        with pytest.raises(ValueError, match="image of u1 has a constant"):
            apply_letter_map(u * u + u * u * u, images)


def _state(t):
    return t.den, [dict(c) for c in t.comps]


def _is_canonical(t):
    """Positive denominator, no zero numerator, gcd reduced, and one
    component per degree 0..max_degree."""
    nums = [n for comp in t.comps for n in comp.values()]
    return (t.den > 0 and 0 not in nums and gcd(t.den, *nums) == 1
            and len(t.comps) == t.max_degree + 1)


@settings(deadline=None)
@given(genus_1_or_2(tensors, lambda g: tensors(g, min_degree=1), ia_maps))
def test_operations_leave_their_operands_unchanged(args):
    a, x, m = args
    one = TruncatedTensor.unit(x.genus, x.max_degree)
    images = [TruncatedTensor.letter(x.genus, i, x.max_degree) + c
              for i, c in enumerate(m.corrections)]
    operands = [a, x, one] + list(m.corrections) + images
    before = [_state(t) for t in operands]
    results = [
        a + x, a - x, a * x, x * a, -a, a.scaled(Fraction(-2, 3)),
        a.bracket(x), a.graded(2), a.truncated(2), a.truncated(6),
        exp_t(x), log_t(one + x), m.apply(a), apply_letter_map(a, images),
        # a cancels out, leaving x / 3 wherever a had terms
        TruncatedTensor.combination(
            x.genus, [(2, a), (Fraction(1, 3), x), (-2, a)], x.max_degree),
        hausdorff_tail(x, images[0])]
    assert [_state(t) for t in operands] == before
    assert all(_is_canonical(t) for t in results)


# -- IAMap ----------------------------------------------------------------


def test_ia_identity():
    m = IAMap.identity(2, 5)
    t = TruncatedTensor.from_terms(2, {(0, 1, 2): Fraction(7, 3)}, 5)
    assert m.apply(t) == t
    assert m == IAMap([TruncatedTensor(2, 5)] * 4)


def test_ia_corrections_cannot_be_reassigned():
    # apply caches the letter images built from corrections, so an item
    # assignment would leave equality and apply disagreeing
    phi = IAMap.identity(1, 3)
    u, v = TruncatedTensor.letter(1, 0, 3), TruncatedTensor.letter(1, 1, 3)
    phi.apply(u)
    with pytest.raises(TypeError):
        phi.corrections[0] = u.bracket(v)
    assert phi.apply(u) == u


def test_ia_corrections_cannot_be_rebound():
    # rebinding the whole tuple would leave the cached images stale too
    phi = IAMap.identity(1, 3)
    u, v = TruncatedTensor.letter(1, 0, 3), TruncatedTensor.letter(1, 1, 3)
    psi = IAMap([u.bracket(v), TruncatedTensor(1, 3)])
    phi.apply(u)
    with pytest.raises(AttributeError):
        phi.corrections = psi.corrections
    assert phi != psi and phi.apply(u) == u


def test_ia_rejects_low_degree_corrections():
    with pytest.raises(ValueError,
                       match="correction of u1 has a degree-1 term, below 2"):
        IAMap([TruncatedTensor.letter(1, 0, 5), TruncatedTensor(1, 5)])
    # the message names the letter whose correction is at fault
    with pytest.raises(ValueError, match="correction of v1 has genus 1 and "
                       "max_degree 3, not 1 and 5"):
        IAMap([TruncatedTensor(1, 5), TruncatedTensor(1, 3)])
    # the shape is read off the first correction, so a mixed genus is named
    # at the first letter that differs from it
    with pytest.raises(ValueError, match="correction of v1 has genus 2 and "
                       "max_degree 5, not 1 and 5"):
        IAMap([TruncatedTensor(1, 5), TruncatedTensor(2, 5)])
    with pytest.raises(ValueError, match="correction of u2 has genus 2 and "
                       "max_degree 4, not 2 and 5"):
        IAMap([TruncatedTensor(2, 5), TruncatedTensor(2, 4),
               TruncatedTensor(2, 5), TruncatedTensor(2, 5)])
    for corrections in ([], [TruncatedTensor(2, 5)] * 2):
        with pytest.raises(ValueError, match="need one correction per letter"):
            IAMap(corrections)
    # shape errors name both shapes
    m = IAMap.identity(1, 5)
    with pytest.raises(ValueError, match="max_degree mismatch: genus 1, N 3 "
                       "vs genus 1, N 5"):
        m.apply(TruncatedTensor.letter(1, 0, 3))
    with pytest.raises(ValueError, match="genus mismatch: genus 2, N 5 vs "
                       "genus 1, N 5"):
        m.compose(IAMap.identity(2, 5))
    u1, u2 = TruncatedTensor.letter(1, 0, 5), TruncatedTensor.letter(2, 0, 5)
    for op in (u1.__add__, u1.__mul__, u1.bracket):
        with pytest.raises(ValueError, match="genus mismatch: genus 2, N 5 "
                           "vs genus 1, N 5"):
            op(u2)
    with pytest.raises(ValueError, match="max_degree mismatch: genus 1, N 3 "
                       "vs genus 1, N 5"):
        TruncatedTensor.combination(1, [(1, u1), (0, u1.truncated(3))], 5)


@given(genus_1_or_2(ia_maps, tensors, tensors))
def test_ia_apply_is_ring_hom(mab):
    m, a, b = mab
    assert m.apply(a * b) == m.apply(a) * m.apply(b)
    assert m.apply(a + b) == m.apply(a) + m.apply(b)


@given(genus_1_or_2(ia_maps, ia_maps, tensors))
def test_ia_compose_matches_sequential_apply(m12t):
    m1, m2, t = m12t
    assert m1.compose(m2).apply(t) == m2.apply(m1.apply(t))


@given(genus_1_or_2(ia_maps, ia_maps, ia_maps))
@settings(deadline=None, max_examples=25)
def test_ia_compose_associative(abc):
    a, b, c = abc
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_ia_top_degree_words_pass_through():
    N = 3
    u, v = letters(1, N)
    m = IAMap([u.bracket(v).truncated(N), TruncatedTensor(1, N)])
    w = TruncatedTensor.from_terms(1, {(0, 0, 1): 1}, N)
    assert m.apply(w) == w
    u1, u2, v1, v2 = letters(2, N)
    m = IAMap([u1.bracket(v2), v1 * v1, TruncatedTensor(2, N),
               u2.bracket(u1)])
    w = TruncatedTensor.from_terms(2, {(3, 0, 1): Fraction(-5, 2)}, N)
    assert m.apply(w) == w


# -- exact elimination -----------------------------------------------------


def test_row_reduce_rank_and_first_come_pivots():
    # the second column is twice the first, so the pivots skip it
    rows = [[1, 2, 0], [2, 4, 1], [3, 6, 1]]
    reduced, pivots = row_reduce(rows)
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [2, 4, 1], [3, 6, 1]]
    for r, col in enumerate(pivots):
        assert reduced[r][col] != 0
        assert all(reduced[k][col] == 0 for k in range(len(rows)) if k != r)
    assert all(x == 0 for x in reduced[2])
    assert row_reduce([[0, 0], [0, 0]])[1] == []
    assert row_reduce([])[1] == []


def test_row_reduce_inverts_through_the_augmented_matrix():
    a = [[2, 1, 0, 3], [1, 1, 0, 0], [0, 4, 1, 1], [1, 0, 2, 5]]
    n = len(a)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = row_reduce([r + e for r, e in zip(a, eye)])
    assert pivots == list(range(n))
    inv = [[Fraction(y) / r[i] for y in r[n:]] for i, r in enumerate(reduced)]
    prod = [[sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == eye
    assert any(x.denominator != 1 for r in inv for x in r)
