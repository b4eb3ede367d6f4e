"""Expression language for defining functions and structure entries.

Grammar: rational literals (INT or INT/INT), variables x1..xn, y1..yn and
the complex sugar z1..zn, operators + - * ^ with natural exponents,
functions Re, Im, conj, abs2, and parentheses.  No general division; a
slash is only part of a rational literal.  Expressions are expanded into
exact truncated series over the 2n real coordinates; an expression whose
imaginary part survives the expansion is rejected.
"""

import re as _re

from .errors import ParseError
from .jets import TruncatedSeries, _new, _width
from .rational import Q

_TOKEN = _re.compile(r"""
    (?P<num>\d+(?:\s*/\s*\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+\-*^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", _re.VERBOSE)

_VAR = _re.compile(r"^([xyz])([1-9][0-9]*)$")
_FUNCTIONS = ("Re", "Im", "conj", "abs2")

# Largest total degree, and largest exponent, parse_expression expands: it
# works at a cap no smaller than the degree, so (x1+1)^3000 would take most
# of a minute, and a constant is multiplied out once per unit of exponent.
MAX_DEGREE = 64

# Largest constant, in bits of numerator plus denominator, that a product,
# power or abs2 may produce: a little above a literal of 4,300 digits.  The
# degree limit bounds how often a nonconstant term is multiplied; constants
# escape it, and abs2 nested on a literal squares it at every level.
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
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the token list, building a small tree.

    Sums and products are n-ary nodes, so only parentheses and function
    calls nest, at most MAX_NESTING deep.
    """

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at_op(self, ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def expect_op(self, op):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return node

    def expr(self):
        terms = [self.term()]
        while self.at_op("+-"):
            op = self.take()[1]
            terms.append(self.term() if op == "+" else ("neg", self.term()))
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def term(self):
        factors = [self.unary()]
        while self.at_op("*"):
            self.take()
            factors.append(self.unary())
        return factors[0] if len(factors) == 1 else ("prod", factors)

    def unary(self):
        negate = False
        while self.at_op("-"):
            self.take()
            negate = not negate
        node = self.power()
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        while self.at_op("^"):
            self.take()
            nk, nv, at = self.take()
            if nk != "num" or "/" in nv:
                raise ParseError("exponent must be a natural number", at)
            exponent = _int(nv, at)
            if node[0] == "pow":  # (a^b)^c = a^(b*c)
                node, exponent = node[1], node[2] * exponent
            if exponent > MAX_DEGREE:
                raise ParseError(f"exponent {exponent} is above the limit of "
                                 f"{MAX_DEGREE}", at)
            node = ("pow", node, exponent)
        return node

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
        kind, val, at = self.take()
        if kind == "num":
            if "/" in val:
                a, b = (_int(t, at) for t in val.split("/"))
                if b == 0:
                    raise ParseError("zero denominator", at)
                return ("num", Q(a, b))
            return ("num", Q(_int(val, at)))
        if kind == "name":
            if val in _FUNCTIONS:
                _, _, paren = self.expect_op("(")
                return ("fun", val, self.nested(paren))
            m = _VAR.match(val)
            if m:
                idx = _int(m.group(2), at)
                if idx > self.n:
                    raise ParseError(
                        f"variable {val} out of range for n={self.n}", at)
                return ("var", m.group(1), idx)
            raise ParseError(f"unknown name {val!r}", at)
        if kind == "op" and val == "(":
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
    """The (real, imaginary) pair, refusing a constant above the limit."""
    for part in pair:
        if part is not None and part._terms.keys() == {0}:
            # a reduced constant: its numerator and _den are coprime
            bits = part._terms[0].bit_length() + part._den.bit_length()
            if bits > MAX_CONSTANT_BITS:
                raise ParseError(f"constant of {bits} bits is above the limit "
                                 f"of {MAX_CONSTANT_BITS}")
    return pair


def _mul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi); a real factor has ai or bi None."""
    if ai is None:
        return ar * br, None if bi is None else ar * bi
    if bi is None:
        return ar * br, ai * br
    return ar * br - ai * bi, ar * bi + ai * br


def _eval(node, n, cap):
    """Evaluate to a (real, imaginary) pair; a real value's second is None."""
    tag = node[0]
    if tag == "num":
        c = node[1]
        num = int(c.numerator)
        return _new(2 * n, cap, {0: num} if num else {},
                    int(c.denominator)), None
    if tag == "var":
        kind, idx = node[1], node[2]
        width = _width(cap)
        # x_idx and y_idx, each one packed key: degree 1, one exponent 1
        xs, ys = (_new(2 * n, cap, {1 << 2 * n * width | 1 << width * e: 1}, 1)
                  for e in (2 * (n - idx) + 1, 2 * (n - idx)))
        if kind == "z":
            return xs, ys  # z_i = x_i + i y_i
        return (xs if kind == "x" else ys), None
    if tag == "neg":
        re_, im_ = _eval(node[1], n, cap)
        return -re_, None if im_ is None else -im_
    if tag in ("sum", "prod"):
        ar, ai = _eval(node[1][0], n, cap)
        for t in node[1][1:]:
            br, bi = _eval(t, n, cap)
            if tag == "sum":
                ar = ar + br
                ai = ai if bi is None else bi if ai is None else ai + bi
            else:
                ar, ai = _bounded(_mul(ar, ai, br, bi))
        return ar, ai
    if tag == "pow":
        ar, ai = _eval(node[1], n, cap)
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
    any expansion; a constant above MAX_CONSTANT_BITS raises it as soon as
    it is formed.
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
