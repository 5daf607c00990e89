"""Exact polynomial arithmetic and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit.polynomials import IntPoly, _tokenize, parse_poly


def poly_strategy(num_vars=3, max_monomials=4, max_exp=3, max_coeff=9):
    exps = st.tuples(*[st.integers(0, max_exp)] * num_vars)
    mono = st.tuples(exps, st.integers(-max_coeff, max_coeff))
    return st.lists(mono, max_size=max_monomials).map(
        lambda ms: IntPoly(num_vars, {e: c for e, c in ms})
    )


def reference_parse_poly(text, num_vars=None):
    """The parser as it was written before it built the monomial dict
    directly: every atom, product and sum is an IntPoly operation."""
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")
    max_idx = -1
    for t in toks:
        if t.startswith("x"):
            max_idx = max(max_idx, int(t[1:]))
    nv = max_idx + 1 if num_vars is None else num_vars
    if max_idx >= nv:
        raise ValueError(f"variable x{max_idx} out of range for {nv} variables")

    pos = 0

    def atom():
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of polynomial text")
        t = toks[pos]
        pos += 1
        if t.startswith("x"):
            return IntPoly.var(nv, int(t[1:]))
        if t.isdigit():
            return IntPoly.const(nv, int(t))
        raise ValueError(f"expected a number or variable, got {t!r}")

    def factor():
        nonlocal pos
        base = atom()
        if pos < len(toks) and toks[pos] == "^":
            pos += 1
            if pos >= len(toks) or not toks[pos].isdigit():
                raise ValueError("exponent must be a plain nonnegative integer")
            k = int(toks[pos])
            pos += 1
            return base**k
        return base

    def term():
        nonlocal pos
        acc = factor()
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            acc = acc * factor()
        return acc

    total = IntPoly.zero(nv)
    sign = 1
    if toks[pos] in ("+", "-"):
        sign = -1 if toks[pos] == "-" else 1
        pos += 1
    total = total + sign * term()
    while pos < len(toks):
        t = toks[pos]
        if t not in ("+", "-"):
            raise ValueError(f"expected + or - between terms, got {t!r}")
        pos += 1
        total = total + (term() if t == "+" else -term())
    return total


# the token set, its unicode spellings, and a few bytes the tokenizer rejects;
# numbers stay small so that powers stay cheap for the reference parser
_TOKENS = ["0", "1", "2", "3", "12", "x0", "x1", "x2", "x3", "x10",
           "+", "-", "*", "^", "−", "·", "⋅", "y", "(", "**"]


@st.composite
def poly_texts(draw):
    """Mostly well-formed sums of products, some with one token spliced in."""
    atoms = st.sampled_from(["0", "1", "2", "3", "12", "x0", "x1", "x2", "x3", "x10"])
    factor = st.tuples(atoms, st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join)
    product = st.lists(factor, min_size=1, max_size=3).flatmap(
        lambda fs: st.sampled_from(["*", " * ", "·", "⋅"]).map(lambda op: op.join(fs))
    )
    toks = [draw(st.sampled_from(["", "-", "+", "−"]))]
    for i in range(draw(st.integers(1, 4))):
        if i:
            toks.append(draw(st.sampled_from(["+", "-", "−"])))
        toks.append(draw(product))
    for _ in range(draw(st.integers(0, 2))):
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_TOKENS)))
    text = ""
    for t in filter(None, toks):
        sep = draw(st.sampled_from(["", " ", "  ", "\t"]))
        if text[-1:].isdigit() and t[0].isdigit():
            sep = " "  # adjacent digits would merge into one large number
        text += sep + t
    return text + draw(st.sampled_from(["", " ", "\n"]))


def parse_outcome(parse, text, num_vars):
    try:
        return parse(text, num_vars)
    except ValueError as exc:
        return type(exc), str(exc)


class TestConstruction:
    def test_zero_and_const(self):
        z = IntPoly.zero(2)
        assert z.is_zero() and str(z) == "0"
        assert IntPoly.const(2, 7).evaluate((3, 4)) == 7

    def test_var(self):
        x1 = IntPoly.var(3, 1)
        assert x1.evaluate((5, 7, 11)) == 7
        assert str(x1) == "x1"

    def test_zero_coefficients_dropped(self):
        p = IntPoly(1, {(1,): 0, (0,): 3})
        assert p.monomials == (((0,), 3),)

    def test_canonical_order_is_graded_lex_descending(self):
        p = parse_poly("x1 + x0 + x0*x1 + 1", 2)
        assert str(p) == "x0*x1 + x0 + x1 + 1"


class TestArithmetic:
    def test_known_product(self):
        x0, x1 = IntPoly.var(2, 0), IntPoly.var(2, 1)
        assert str((x0 + x1) * (x0 - x1)) == "x0^2 - x1^2"

    def test_power(self):
        x0 = IntPoly.var(1, 0)
        assert str((x0 + 1) ** 2) == "x0^2 + 2*x0 + 1"

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p - p == IntPoly.zero(p.num_vars)

    @given(poly_strategy(num_vars=2), st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_a_homomorphism(self, p, point):
        q = p * p + p
        assert q.evaluate(point) == p.evaluate(point) ** 2 + p.evaluate(point)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("x0", "x0"),
            ("x0 + x1", "x0 + x1"),
            ("x0*x1 + x2^2", "x0*x1 + x2^2"),
            ("3*x0 - x1", "3*x0 - x1"),
            ("2*x0^3*x1", "2*x0^3*x1"),
            ("0", "0"),
            ("x0 - 2", "x0 - 2"),
            ("1 + 1", "2"),
            ("x0 - x0", "0"),
        ],
    )
    def test_parse_print(self, text, expected):
        assert str(parse_poly(text)) == expected

    def test_unicode_minus_and_dot(self):
        assert str(parse_poly("3*x0 − x1")) == "3*x0 - x1"
        assert str(parse_poly("x0·x1", 2)) == "x0*x1"

    @given(poly_strategy())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, p):
        assert parse_poly(str(p), p.num_vars) == p

    def test_num_vars_inference_and_override(self):
        assert parse_poly("x2").num_vars == 3
        assert parse_poly("x0", 4).num_vars == 4

    def test_rejects_bad_input(self):
        for bad in ["x0 +", "y0", "x0 ** 2", "(x0)", ""]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    @given(poly_texts(), st.sampled_from([None, 0, 1, 2, 3, 4, 11]))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_parser(self, text, num_vars):
        got = parse_outcome(parse_poly, text, num_vars)
        want = parse_outcome(reference_parse_poly, text, num_vars)
        if isinstance(want, IntPoly):
            assert isinstance(got, IntPoly)
            assert (got.num_vars, got.monomials) == (want.num_vars, want.monomials)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "text",
        ["x0^2*3*x0 - 3*x0^3 + 2", "0^0 + x1^0", "-x0*x0*x1 + x1*x0^2", "2^3*x0 - 8*x0", "x0 x1"],
    )
    def test_matches_reference_parser_on_folded_products(self, text):
        assert parse_outcome(parse_poly, text, 2) == parse_outcome(reference_parse_poly, text, 2)

    def test_rejects_too_small_num_vars(self):
        with pytest.raises(ValueError):
            parse_poly("x3", 2)


class TestHelpers:
    def test_shift_vars(self):
        f = parse_poly("x0*x1", 2)
        g = f.shift_vars(2, 5)
        assert g.evaluate((9, 9, 3, 5, 9)) == 15

    def test_used_vars_and_positivity(self):
        p = parse_poly("x0 + 2*x2", 3)
        assert p.used_vars() == frozenset({0, 2})
        assert p.all_coeffs_positive()
        assert not parse_poly("x0 - x1").all_coeffs_positive()

    def test_max_abs_on_box(self):
        p = parse_poly("x0*x1 - 3", 2)
        bound = p.max_abs_on_box((10, 10))
        assert bound >= 100 - 3
        assert p.max_abs_on_box((1, 1)) >= abs(p.evaluate((1, 1)))

