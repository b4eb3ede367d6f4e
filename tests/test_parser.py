"""Expression grammar and the inverse pretty-printer."""

import pytest
import sympy as sp

from levitype import ParseError, Q, TruncatedSeries, parse_expression, series_to_expression
from levitype.parser import MAX_CONSTANT_BITS, MAX_DEGREE, MAX_NESTING

from conftest import make_rng, monomials, random_rational


def series(nv, cap, terms):
    return TruncatedSeries(nv, cap, {k: Q(v) for k, v in terms.items()})


class TestGrammar:
    def test_sphere_expression(self):
        s = parse_expression("2*x2 + abs2(z1)", 2)
        assert s == series(4, 2, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1,
                                  (0, 2, 0, 0): 1})

    def test_harmonic_expression(self):
        s = parse_expression("Re(z1^2)", 2)
        assert s == series(4, 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1})

    def test_quartic_expression(self):
        s = parse_expression("2*x2 + abs2(z1)^2", 2)
        assert s == series(4, 4, {(0, 0, 1, 0): 2, (4, 0, 0, 0): 1,
                                  (2, 2, 0, 0): 2, (0, 4, 0, 0): 1})

    def test_rational_literals_and_precedence(self):
        s = parse_expression("1/2*x1 - 3 * y2 ^ 2 + x1*y1*2", 2, cap=3)
        assert s == series(4, 3, {(1, 0, 0, 0): Q(1, 2), (0, 0, 0, 2): -3,
                                  (1, 1, 0, 0): 2})

    def test_unary_minus_binds_outside_powers(self):
        assert parse_expression("-x1^2", 1, cap=2) == \
            series(2, 2, {(2, 0): -1})

    def test_subtraction_associates_left(self):
        s = parse_expression("x1 - y1 - x2", 2, cap=1)
        assert s == series(4, 1, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -1,
                                  (0, 0, 1, 0): -1})

    def test_power_chain(self):
        assert parse_expression("x1^2^3", 1, cap=6) == \
            parse_expression("x1^6", 1, cap=6)

    def test_complex_sugar(self):
        assert parse_expression("Im(z1^2)", 1) == \
            series(2, 2, {(1, 1): 2})
        assert parse_expression("conj(z1)*z1", 1) == \
            parse_expression("abs2(z1)", 1)
        assert parse_expression("Im(conj(z1))", 1, cap=2) == \
            series(2, 2, {(0, 1): -1})
        assert parse_expression("abs2(z1 + z2)", 2) == \
            parse_expression("abs2(z1) + abs2(z2) + 2*x1*x2 + 2*y1*y2", 2)

    def test_default_cap_is_the_degree(self):
        assert parse_expression("abs2(z1)^2", 1).cap == 4
        assert parse_expression("x1", 1).cap == 2  # floor for geometry use

    def test_explicit_cap_truncates(self):
        s = parse_expression("abs2(z1)^2", 1, cap=2)
        assert s.cap == 2 and s.is_zero()

    def test_complex_results_rejected(self):
        with pytest.raises(ParseError, match="real-valued"):
            parse_expression("z1", 1)
        with pytest.raises(ParseError, match="real-valued"):
            parse_expression("z1^2 + x1", 1)

    def test_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_expression("x1 $ y1", 2)
        assert info.value.position == 3
        with pytest.raises(ParseError) as info:
            parse_expression("x1 + sin(x1)", 2)
        assert info.value.position == 5

    def test_rejected_constructs(self):
        for text in ("x3", "x1/2", "3/0", "x1^y1", "x1^(2)", "(x1", "x1 +",
                     "", "x1 x1", "Re x1"):
            with pytest.raises(ParseError):
                parse_expression(text, 2)

    def test_degree_limit(self):
        assert MAX_DEGREE == 64
        assert parse_expression("x1^64", 1).cap == 64
        for text in ("x1^65", "abs2(z1)^33", "x1^10000000", "(x1+1)^3000",
                     "x1^8*(x1^8)^8"):
            with pytest.raises(ParseError, match="above the limit of 64"):
                parse_expression(text, 1)

    def test_constant_limits(self):
        assert parse_expression("2^64", 1) == series(2, 2, {(0, 0): 2 ** 64})
        assert parse_expression("(x1^8)^8", 1).cap == 64
        for text in ("2^65", "2^8^8^8", "(1+1)^10000000"):
            with pytest.raises(ParseError, match="above the limit of 64"):
                parse_expression(text, 1)
        # abs2 squares a constant at every level; the degree stays 0
        assert MAX_CONSTANT_BITS == 1 << 14
        big = "abs2(" * 12 + "3" + ")" * 12  # 3^4096: 6,493 bits
        assert parse_expression(big, 1) == series(2, 2, {(0, 0): 3 ** 4096})
        for text in ("abs2(" * 64 + "2" + ")" * 64,
                     "*".join(["7" * 4000] * 2),
                     "*".join(["(2^64+1)^64"] * 4)):
            with pytest.raises(ParseError, match="above the limit of 16384"):
                parse_expression(text, 1)

    def test_long_chains_parse_flat(self):
        x1 = series(2, 2, {(1, 0): 1})
        assert parse_expression("+".join(["x1"] * 3000), 1) == x1.scale(3000)
        assert parse_expression("x1" + "-x1" * 3000, 1) == x1.scale(-2999)
        assert parse_expression("*".join(["1"] * 3000) + "*x1", 1) == x1
        assert parse_expression("-" * 1501 + "x1", 1) == -x1
        assert parse_expression("-" * 1500 + "x1", 1) == x1
        assert parse_expression("x1" + "^1" * 3000, 1) == x1

    def test_nesting_limit(self):
        assert MAX_NESTING == 64
        x1 = series(2, 2, {(1, 0): 1})
        assert parse_expression("(" * 64 + "x1" + ")" * 64, 1) == x1
        assert parse_expression("Re(" * 63 + "(x1)" + ")" * 63, 1) == x1
        for text in ("(" * 65 + "x1" + ")" * 65,
                     "Re(" * 64 + "(x1)" + ")" * 64,
                     "(" * 300 + "x1" + ")" * 300):
            with pytest.raises(ParseError, match="limit of 64"):
                parse_expression(text, 1)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            parse_expression("x1", 0)


class TestPrinter:
    def test_graded_rendering(self):
        s = series(4, 4, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
        assert series_to_expression(s) == "2*x2 + y1^2 + x1^2"

    def test_signs_and_unit_coefficients(self):
        s = series(4, 4, {(1, 0, 0, 0): -1, (0, 1, 0, 0): 1,
                          (0, 0, 2, 0): Q(-3, 4)})
        assert series_to_expression(s) == "y1 - x1 - 3/4*x2^2"

    def test_zero_series(self):
        assert series_to_expression(TruncatedSeries.zero(4, 3)) == "0"
        assert series_to_expression(series(2, 3, {(0, 0): Q(5, 2)})) == "5/2"

    def test_odd_variable_count_rejected(self):
        with pytest.raises(ValueError):
            series_to_expression(TruncatedSeries.zero(3, 2))

    def test_round_trip_randomized(self):
        rng = make_rng("parser-roundtrip")
        pool = monomials(4, 0, 5)
        for _ in range(30):
            terms = {}
            for exps in rng.sample(pool, rng.randint(0, 7)):
                c = random_rational(rng)
                if c != 0:
                    terms[exps] = c
            s = TruncatedSeries(4, 6, terms)
            assert parse_expression(series_to_expression(s), 2, cap=6) == s


def random_expression(rng, n, depth):
    """(text, sympy value, degree by the parser's rule) of a random
    expression in x1..xn, y1..yn, z1..zn, every compound operand in
    parentheses."""
    kind = rng.choice(("num", "var") if depth == 0 else
                      ("var", "sum", "prod", "pow", "neg", "fun", "fun"))
    if kind == "num":
        a, b = rng.randint(0, 5), rng.choice((1, 1, 2, 3, 4))
        return (f"{a}/{b}" if b > 1 else f"{a}"), sp.Rational(a, b), 0
    if kind == "var":
        letter, idx = rng.choice("xyz"), rng.randint(1, n)
        x, y = sp.symbols(f"x{idx} y{idx}", real=True)
        value = {"x": x, "y": y, "z": x + sp.I * y}[letter]
        return f"{letter}{idx}", value, 1
    if kind == "fun":
        name = rng.choice(("Re", "Im", "conj", "abs2"))
        text, value, degree = random_expression(rng, n, depth - 1)
        re_, im_ = sp.expand(value).as_real_imag()
        value = {"Re": re_, "Im": im_, "conj": re_ - sp.I * im_,
                 "abs2": re_ ** 2 + im_ ** 2}[name]
        degree = 2 * degree if name == "abs2" else degree
        return f"{name}({text})", value, degree
    if kind == "pow":
        text, value, degree = random_expression(rng, n, depth - 1)
        e = rng.randint(0, 3)
        return f"({text})^{e}", value ** e, degree * e
    if kind == "neg":
        text, value, degree = random_expression(rng, n, depth - 1)
        return f"-({text})", -value, degree
    parts = [random_expression(rng, n, depth - 1)
             for _ in range(rng.randint(2, 3))]
    if kind == "prod":
        return ("*".join(f"({t})" for t, _, _ in parts),
                sp.Mul(*(v for _, v, _ in parts)),
                sum(d for _, _, d in parts))
    text, value, _ = parts[0]
    text = f"({text})"
    for t, v, _ in parts[1:]:
        sign = rng.choice("+-")
        text += f" {sign} ({t})"
        value = value + v if sign == "+" else value - v
    return text, value, max(d for _, _, d in parts)


def test_expansion_matches_sympy():
    """Random expressions, parsed below, at and above their degree, against
    sympy's expansion with z = x + i y; a string with an imaginary part is
    refused, and its Re and Im parse to sympy's real and imaginary parts."""
    rng = make_rng("parser-sympy")
    seen = {"real": 0, "complex": 0}
    for n in (1, 2, 3, 4):
        gens = sp.symbols(" ".join(f"x{i} y{i}" for i in range(1, n + 1)),
                          real=True)
        for _ in range(20):
            text, value, degree = random_expression(rng, n, 3)
            while degree > 6:
                text, value, degree = random_expression(rng, n, 3)
            re_, im_ = sp.expand(value).as_real_imag()
            parts = [(text, re_)]
            if sp.expand(im_) != 0:
                seen["complex"] += 1
                with pytest.raises(ParseError, match="real-valued"):
                    parse_expression(text, n)
                parts = [(f"Re({text})", re_), (f"Im({text})", im_)]
            else:
                seen["real"] += 1
            for text, part in parts:
                expected = {exps: Q(int(c.p), int(c.q)) for exps, c in
                            sp.Poly(part, *gens).terms() if c != 0}
                for cap in sorted({max(degree - 1, 0), degree, degree + 1}):
                    s = parse_expression(text, n, cap=cap)
                    assert s.cap == cap, text
                    assert dict(s.terms()) == {
                        e: c for e, c in expected.items() if sum(e) <= cap}, \
                        text
    assert seen["real"] >= 10 and seen["complex"] >= 10, seen
