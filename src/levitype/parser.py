"""Expression language for defining functions and structure entries.

Grammar: rational literals (INT or INT/INT), variables x1..xn, y1..yn and
the complex sugar z1..zn, operators + - * ^ with natural exponents,
functions Re, Im, conj, abs2, and parentheses.  No general division; a
slash is only part of a rational literal.  Expressions are expanded into
exact truncated series over the 2n real coordinates; an expression whose
imaginary part survives the expansion is rejected.

Evaluation.  A real monomial (a number, x_i or y_i, or a power, product or
negation of real monomials) is one packed term, read in one pass: its
coefficient is the product of its numbers, its key the sum of its factors'
keys, with no series product.  A sum gathers its real monomials into one
dict over the lcm of their denominators, reduced once.  Every other node
(z_i, Re, Im, conj, abs2, and powers and products of sums) is expanded by
products of (real, imaginary) series.

Limits.  The degree and exponent limit (MAX_DEGREE) and the nesting limit
(MAX_NESTING) are checked before any expansion.  The coefficient limit
(MAX_CONSTANT_BITS) holds for every term that a product, power or abs2
forms, on both paths alike: it is checked after each multiplication, so
the monomial path refuses the inputs the series path refuses, with the
same message.
"""

import re as _re
from math import gcd, lcm

from .errors import ParseError
from .jets import TruncatedSeries, _new, _reduced, _width

_TOKEN = _re.compile(r"""
    (?P<num>\d+(?:\s*/\s*\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+\-*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", _re.VERBOSE)

_FUNCTIONS = ("Re", "Im", "conj", "abs2")

# Largest total degree, and largest exponent, parse_expression expands: it
# works at a cap no smaller than the degree, so (x1+1)^3000 would take most
# of a minute, and a constant is multiplied out once per unit of exponent.
MAX_DEGREE = 64

# Largest coefficient, in bits of its reduced numerator plus denominator,
# of any term a product, power or abs2 may produce: a little above a literal
# of 4,300 digits.  The degree limit bounds how often a variable is
# multiplied, but constant factors escape it, alone or in front of a
# variable, and abs2 nested on a literal squares it at every level.
MAX_CONSTANT_BITS = 1 << 14

# Deepest nesting of parentheses and function calls: each level costs a few
# Python stack frames in parsing and in evaluation.  Sums, products, unary
# minus chains and exponent chains are flat and add no depth.
MAX_NESTING = 64


def _int(text, at):
    """int(text), with Python's digit limit reported as a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number of {len(text)} digits is too long",
                         at) from None


def _tokenize(text):
    """(kind, text, position) of each token, then an end token.  The kind
    of an operator or parenthesis is its own character, so the grammar
    tests one field per token."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        val = m.group()
        out.append((val if kind == "op" else kind, val, m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the token list, building a small tree.

    Sums and products are n-ary nodes, so only parentheses and function
    calls nest, at most MAX_NESTING deep.  Each method reads the tokens
    by index at self.pos and leaves self.pos after what it read.
    """

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0

    def expect_op(self, op):
        kind, _, at = self.tokens[self.pos]
        if kind != op:
            raise ParseError(f"expected {op!r}", at)
        self.pos += 1
        return at

    def parse(self):
        node = self.expr()
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return node

    def expr(self):
        tokens = self.tokens
        terms = [self.term()]
        while True:
            op = tokens[self.pos][0]
            if op == "+":
                self.pos += 1
                terms.append(self.term())
            elif op == "-":
                self.pos += 1
                terms.append(("neg", self.term()))
            else:
                return terms[0] if len(terms) == 1 else ("sum", terms)

    def term(self):
        tokens = self.tokens
        factors = [self.factor()]
        while tokens[self.pos][0] == "*":
            self.pos += 1
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("prod", factors)

    def factor(self):
        """Unary minus signs, an atom and its exponents."""
        tokens = self.tokens
        pos = self.pos
        negate = False
        while tokens[pos][0] == "-":
            pos += 1
            negate = not negate
        self.pos = pos
        node = self.atom()
        while tokens[self.pos][0] == "^":
            nk, nv, at = tokens[self.pos + 1]
            self.pos += 2
            if nk != "num" or "/" in nv:
                raise ParseError("exponent must be a natural number", at)
            exponent = _int(nv, at)
            if node[0] == "pow":  # (a^b)^c = a^(b*c)
                node, exponent = node[1], node[2] * exponent
            if exponent > MAX_DEGREE:
                raise ParseError(f"exponent {exponent} is above the limit of "
                                 f"{MAX_DEGREE}", at)
            node = ("pow", node, exponent)
        return ("neg", node) if negate else node

    def nested(self, at):
        """The expression inside an opened parenthesis, up to its close."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"nesting is deeper than the limit of {MAX_NESTING}", at)
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return inner

    def atom(self):
        kind, val, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":  # ("num", numerator, denominator), reduced
            if "/" in val:
                a, b = (_int(t, at) for t in val.split("/"))
                if b == 0:
                    raise ParseError("zero denominator", at)
                g = gcd(a, b)
                return ("num", a // g, b // g)
            return ("num", _int(val, at), 1)
        if kind == "name":
            if val in _FUNCTIONS:
                return ("fun", val, self.nested(self.expect_op("(")))
            # x, y or z and an index without a leading zero; a name token
            # holds ASCII only, so isdigit reads 0-9 only
            if (len(val) > 1 and val[0] in "xyz" and val[1] != "0"
                    and val[1:].isdigit()):
                idx = _int(val[1:], at)
                if idx > self.n:
                    raise ParseError(
                        f"variable {val} out of range for n={self.n}", at)
                return ("var", val[0], idx)
            raise ParseError(f"unknown name {val!r}", at)
        if kind == "(":
            return self.nested(at)
        raise ParseError(f"unexpected {val!r}", at)


def _degree(node) -> int:
    tag = node[0]
    if tag == "num":
        return 0
    if tag == "var":
        return 1
    if tag == "neg":
        return _degree(node[1])
    if tag == "sum":
        return max(_degree(t) for t in node[1])
    if tag == "prod":
        return sum(_degree(f) for f in node[1])
    if tag == "pow":
        return _degree(node[1]) * node[2]
    if tag == "fun":
        d = _degree(node[2])
        return 2 * d if node[1] == "abs2" else d
    raise AssertionError(tag)


def _bounded(pair):
    """The (real, imaginary) pair, refusing a coefficient above the limit."""
    for part in pair:
        if part is None:
            continue
        den = part._den
        # a coefficient's bits over den bound those of its reduced form, so
        # only a term beyond the limit unreduced needs a gcd
        room = MAX_CONSTANT_BITS - den.bit_length()
        for c in part._terms.values():
            if c.bit_length() > room:
                g = gcd(c, den)
                _check_bits(c // g, den // g)
    return pair


def _check_bits(num, den):
    """Refuse the reduced coefficient num/den if it is above the limit."""
    bits = num.bit_length() + den.bit_length()
    if bits > MAX_CONSTANT_BITS:
        raise ParseError(f"constant of {bits} bits is above the limit "
                         f"of {MAX_CONSTANT_BITS}")


def _monomial(node, n, width):
    """A real monomial node as (numerator, denominator, key), or None.

    A real monomial is a number, x_i or y_i, a power or a product of real
    monomials, or the negation of one.  Its coefficient is the product of
    its numbers, kept reduced, and its key the sum of its factors' keys
    (see jets), laid out with field width width.  The coefficient is
    checked after each multiplication, where the series path checks each
    product it forms, so both refuse the same inputs with the same error;
    any other node gives None once the monomial factors before it are
    read.
    """
    tag = node[0]
    if tag == "num":
        return node[1], node[2], 0
    if tag == "var":
        kind, idx = node[1], node[2]
        if kind == "z":
            return None
        # degree 1 and one exponent 1, x_idx's field left of y_idx's
        field = 2 * (n - idx) + (kind == "x")
        return 1, 1, 1 << 2 * n * width | 1 << width * field
    if tag == "neg":
        m = _monomial(node[1], n, width)
        return None if m is None else (-m[0], m[1], m[2])
    if tag == "pow":
        m = _monomial(node[1], n, width)
        if m is None:
            return None
        a, b, key = m
        e = node[2]
        if b == 1 and -1 <= a <= 1:
            return a ** e, 1, key * e
        num = den = 1
        for _ in range(e):  # powers of coprime a and b stay coprime
            num *= a
            den *= b
            if num.bit_length() + den.bit_length() > MAX_CONSTANT_BITS:
                _check_bits(num, den)
        return num, den, key * e
    if tag == "prod":
        factors = iter(node[1])
        m = _monomial(next(factors), n, width)
        if m is None:
            return None
        num, den, key = m
        for f in factors:
            m = _monomial(f, n, width)
            if m is None:
                return None
            a, b, k = m
            num *= a
            den *= b
            key += k
            if den != 1:
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
            if num.bit_length() + den.bit_length() > MAX_CONSTANT_BITS:
                _check_bits(num, den)
        return num, den, key
    return None


def _mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi); a real factor has ai or bi None."""
    if ai is None:
        return ar * br, None if bi is None else ar * bi
    if bi is None:
        return ar * br, ai * br
    return ar * br - ai * bi, ar * bi + ai * br


def _eval(node, n, cap):
    """Evaluate to a (real, imaginary) pair; a real value's second is None.

    A real monomial (see _monomial) is one packed term, formed with no
    series product.  A sum gathers its real monomials into one dict of
    terms over the lcm of their denominators, reduced once, and adds the
    series of its other terms.  Every other node (z_i, Re, Im, conj, abs2,
    and powers and products of sums) is expanded by series products.  On
    both paths every coefficient a product, power or abs2 forms is held
    to MAX_CONSTANT_BITS as it is formed (_monomial, _bounded).
    """
    m = _monomial(node, n, _width(cap))
    if m is None:
        return _series(node, n, cap)
    num, den, key = m
    return _new(2 * n, cap, {key: num} if num else {}, den), None


def _series(node, n, cap):
    """_eval of a node that is not a real monomial."""
    tag = node[0]
    if tag == "sum":
        width = _width(cap)
        monomials = []
        ar = ai = None
        for t in node[1]:
            m = _monomial(t, n, width)
            if m is not None:
                monomials.append(m)
                continue
            br, bi = _series(t, n, cap)
            ar = br if ar is None else ar + br
            ai = ai if bi is None else bi if ai is None else ai + bi
        if monomials:
            den = lcm(*(b for _, b, _ in monomials))
            out = {}
            get = out.get
            for a, b, key in monomials:
                out[key] = get(key, 0) + a * (den // b)
            if not all(out.values()):
                out = {k: c for k, c in out.items() if c}
            mr = _reduced(2 * n, cap, out, den)
            ar = mr if ar is None else ar + mr
        return ar, ai
    if tag == "var":  # z_i = x_i + i y_i
        return tuple(_eval(("var", c, node[2]), n, cap)[0] for c in "xy")
    if tag == "neg":
        re_, im_ = _series(node[1], n, cap)
        return -re_, None if im_ is None else -im_
    if tag == "prod":
        ar, ai = _eval(node[1][0], n, cap)
        for t in node[1][1:]:
            br, bi = _eval(t, n, cap)
            ar, ai = _bounded(_mul(ar, ai, br, bi))
        return ar, ai
    if tag == "pow":
        ar, ai = _series(node[1], n, cap)
        rr, ri = _new(2 * n, cap, {0: 1}, 1), None
        for _ in range(node[2]):
            rr, ri = _bounded(_mul(rr, ri, ar, ai))
        return rr, ri
    if tag == "fun":
        fr, fi = _eval(node[2], n, cap)
        name = node[1]
        if name == "Re":
            return fr, None
        if name == "Im":
            return (_new(2 * n, cap, {}, 1) if fi is None else fi), None
        if name == "conj":
            return fr, None if fi is None else -fi
        return _bounded((fr * fr if fi is None else fr * fr + fi * fi,
                         None))  # abs2
    raise AssertionError(tag)


def parse_expression(text: str, n: int, cap: int | None = None) -> TruncatedSeries:
    """Expand an expression into an exact series in the 2n real variables.

    Evaluation runs at a cap no smaller than the expression's total degree,
    so the expansion is an exact polynomial identity; the result is then
    re-capped to the requested truncation order.  A degree or an exponent
    above MAX_DEGREE, or nesting above MAX_NESTING, raises ParseError before
    any expansion; a coefficient above MAX_CONSTANT_BITS raises it as soon
    as a product, power or abs2 forms it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    node = _Parser(_tokenize(text), n).parse()
    degree = _degree(node)
    if degree > MAX_DEGREE:
        raise ParseError(
            f"expression has degree {degree}, above the limit of {MAX_DEGREE}")
    work = max(degree, cap or 0, 2)
    re_, im_ = _eval(node, n, work)
    if im_ is not None and not im_.is_zero():
        raise ParseError("expression is not real-valued")
    if cap is not None and cap < work:
        re_ = re_.truncate(cap)
    return re_


def _monomial_text(exps) -> str:
    parts = []
    for idx, e in enumerate(exps):
        if e == 0:
            continue
        name = ("x" if idx % 2 == 0 else "y") + str(idx // 2 + 1)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def series_to_expression(s: TruncatedSeries) -> str:
    """Render a series in the input grammar; re-parsing at the same cap
    reproduces the series exactly."""
    if s.num_vars % 2:
        raise ValueError("the grammar only covers an even number of variables")
    bits: list[str] = []
    for exps, c in s.terms():
        mono = _monomial_text(exps)
        neg = c < 0
        mag = -c if neg else c
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = f"{mag}"
        if not bits:
            bits.append(f"-{body}" if neg else body)
        else:
            bits.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(bits) if bits else "0"
