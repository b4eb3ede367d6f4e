"""Exact truncated multivariate power series over Q.

A TruncatedSeries is a polynomial jet in num_vars variables together with a
degree cap.  Every stored term has total degree <= cap, and the cap is the
contract: coefficients of degree <= cap are exact, nothing is known beyond.

Caps are carried per series and checked on every binary operation; they are
never inferred or silently widened.  Differentiation returns a series with
cap reduced by one because the (unknown) degree cap+1 stratum of the input
would have contributed to the top stratum of the derivative; dropping that
stratum is how "unreliable" is represented here.

Representation.  The coefficients are Python-int numerators over one
positive denominator per series, ``_den``, kept reduced so that
gcd(den, *numerators) == 1; equal series therefore have equal dicts and
denominators.  ``_terms`` maps a packed monomial key to its nonzero
numerator.  The key of x_0^e_0 ... x_{m-1}^e_{m-1}, of total degree d, is

    d << w*m  |  e_0 << w*(m-1)  |  ...  |  e_{m-1}

with one field width w for the whole series: 8 bits for every cap below
256, cap.bit_length() bits from 256 on (the width rule).  No exponent of a
stored term exceeds the cap, so every field holds its exponent, the integer
order of keys is graded lexicographic order, and:

- the product of two monomials is the sum of their keys, and it lies within
  the cap exactly when that sum is below (cap+1) << w*m (a field can only
  overflow when the degree passes the cap, and a carry only raises the key);
- truncation is a filter on keys, differentiation a subtraction from them.

An operation that changes the cap repacks its keys only when the width
changes, which needs a cap of 256 or more.  Rationals (``Q``) appear only
at the boundary: the constructor from exponent-tuple dicts, ``scale``,
``coefficient``, ``constant_term``, ``terms``, ``shift`` and ``evaluate``.

Products.  One kernel, ``_dot``, forms every sum of products sum_i a_i b_i:
``*`` is its one-pair case, ``mat_vec`` is one ``_dot`` per row, and
``compose`` calls it for each step of its Horner scheme or of its table.
It reads its operands at the product's cap (the cap-aware read rule):
an operand may have a higher cap, and its terms above the product's cap are
never read, so it is used as it is, with no truncated copy.  Only an
operand whose key width differs from the product's (one cap below 256, the
other not) is truncated first.  The products are summed over the lcm of
their denominators and reduced once.

Composition.  ``compose(series, args)`` substitutes one argument list into
a list of series, and ``TruncatedSeries.compose`` is its one-series case.
Every argument g has zero constant term, so g^e has valuation at least e,
and each product is formed only through the degree its answer reads (the
budget rule).  It chooses its scheme by the number of series:
- one series runs Horner's scheme, whose prefix that g^e multiplies is
  read through cap - e only; it multiplies prefix sums of the series and
  forms no product of the arguments alone;
- two or more share one table of the products u^alpha = u^(alpha - e_k)
  * u_k of the arguments, k the last variable of alpha (``_parent``, the
  rule ``disks._Plan`` follows too).  Each product is formed once, through
  the cap for a monomial that some series holds and one less for each step
  up to a product built from it, and each series is one ``_dot`` over its
  (coefficient, u^alpha) pairs, where Horner would form a product again in
  each series that reads it.
From cap 256 on, no budget or needed cap drops below the least cap of the
cap's key width, 1 << (cap.bit_length() - 1), so every product is laid out
as the arguments are.

Term iteration and printing use graded lexicographic order so outputs are
deterministic.
"""

from __future__ import annotations

from math import comb, gcd, lcm

from .errors import CapError
from .rational import Q, ZERO, rat

_WIDTH = 8                 # field width, in bits, for every cap below _WIDE
_WIDE = 1 << _WIDTH


def _width(cap: int) -> int:
    return _WIDTH if cap < _WIDE else cap.bit_length()


def _pack(exps, width: int) -> int:
    key = sum(exps)
    for e in exps:
        key = (key << width) | e
    return key


def _unpack(key: int, num_vars: int, width: int) -> tuple:
    mask = (1 << width) - 1
    return tuple((key >> (width * (num_vars - 1 - i))) & mask
                 for i in range(num_vars))


def _low_terms(s: "TruncatedSeries", degree: int) -> list:
    """(variables, numerator) of each term of s of degree 1..degree, the
    variables listed with multiplicity (x_a x_b -> (a, b)), the numerators
    over s._den: read from the keys, whose top field is the degree."""
    nv, width = s.num_vars, _width(s.cap)
    top = width * nv
    return [(tuple(v for v, e in enumerate(_unpack(k, nv, width))
                   for _ in range(e)), c)
            for k, c in s._terms.items() if 0 < k >> top <= degree]


def _relayout(terms: dict, num_vars: int, old_cap: int, new_cap: int) -> dict:
    """Repack keys laid out for old_cap into the layout of new_cap."""
    old, new = _width(old_cap), _width(new_cap)
    if old == new:
        return terms
    return {_pack(_unpack(k, num_vars, old), new): c for k, c in terms.items()}


def _new(num_vars: int, cap: int, terms: dict, den: int) -> "TruncatedSeries":
    """A series from parts already reduced and laid out for cap."""
    s = object.__new__(TruncatedSeries)
    s.num_vars = num_vars
    s.cap = cap
    s._terms = terms
    s._den = den
    return s


def _reduced(num_vars: int, cap: int, terms: dict, den: int):
    """A series from numerators over den > 0, their common factor divided out."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return _new(num_vars, cap, terms, den)


class TruncatedSeries:
    __slots__ = ("num_vars", "cap", "_terms", "_den")

    def __init__(self, num_vars: int, cap: int, terms=None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.num_vars = num_vars
        self.cap = cap
        self._terms = {}
        self._den = 1
        if not terms:
            return
        width = _width(cap)
        top = width * num_vars
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"multi-index {exps} has {len(exps)} entries, expected {num_vars}"
                )
            key = degree = 0
            for e in exps:
                if e < 0 or not isinstance(e, int):
                    raise ValueError(
                        f"multi-index {exps} must hold non-negative ints")
                degree += e
                key = (key << width) | e
            if degree > cap:
                raise ValueError(f"term of degree {degree} exceeds cap {cap}")
            c = rat(c)
            if c != 0:
                key |= degree << top
                acc = clean.get(key)
                if acc is None:
                    clean[key] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del clean[key]
                    else:
                        clean[key] = acc
        ratios = {k: (int(c.numerator), int(c.denominator))
                  for k, c in clean.items()}
        # the lcm of reduced denominators leaves numerators without a
        # common factor with it
        den = lcm(*(d for _, d in ratios.values()))
        self._terms = {k: n * (den // d) for k, (n, d) in ratios.items()}
        self._den = den

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, num_vars: int, cap: int) -> "TruncatedSeries":
        return cls(num_vars, cap)

    @classmethod
    def constant(cls, c, num_vars: int, cap: int) -> "TruncatedSeries":
        res = cls(num_vars, cap)
        c = rat(c)
        if c != 0:
            res._terms = {0: int(c.numerator)}
            res._den = int(c.denominator)
        return res

    @classmethod
    def variable(cls, i: int, num_vars: int, cap: int) -> "TruncatedSeries":
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range")
        if cap < 1:
            raise CapError("cap 0 cannot hold a degree 1 term")
        exps = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, cap, {exps: 1})

    @classmethod
    def variables(cls, num_vars: int, cap: int):
        return tuple(cls.variable(i, num_vars, cap) for i in range(num_vars))

    def _rational(self, num):
        if num is None:
            return ZERO
        return Q(num) if self._den == 1 else Q(num, self._den)

    def coefficient(self, exponents):
        exponents = tuple(exponents)
        if len(exponents) != self.num_vars:
            raise ValueError("multi-index arity mismatch")
        if sum(exponents) > self.cap:
            raise CapError(
                f"degree {sum(exponents)} coefficient is beyond cap {self.cap}"
            )
        if min(exponents) < 0:
            return ZERO
        return self._rational(self._terms.get(_pack(exponents, _width(self.cap))))

    def constant_term(self):
        return self._rational(self._terms.get(0))

    def is_zero(self) -> bool:
        return not self._terms

    def _top(self) -> int:
        """The shift of the degree field in this series' keys."""
        return self.num_vars * _width(self.cap)

    def total_degree(self):
        """Max total degree of a stored term, or None for the zero series."""
        if not self._terms:
            return None
        return max(self._terms) >> self._top()

    def valuation(self):
        """Min total degree of a stored term, or None for the zero series."""
        if not self._terms:
            return None
        return min(self._terms) >> self._top()

    def terms(self):
        """Terms in graded lexicographic order."""
        num_vars, width, terms = self.num_vars, _width(self.cap), self._terms
        for key in sorted(terms):
            yield _unpack(key, num_vars, width), Q(terms[key], self._den)

    # ------------------------------------------------------------ arithmetic

    def _check_binary(self, other: "TruncatedSeries"):
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"num_vars mismatch: {self.num_vars} vs {other.num_vars}"
            )
        if self.cap != other.cap:
            raise ValueError(
                f"cap mismatch: {self.cap} vs {other.cap}; truncate explicitly"
            )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.cap == other.cap
            and self._den == other._den
            and self._terms == other._terms
        )

    __hash__ = None

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other for sign = 1 or -1."""
        if self.num_vars != other.num_vars or self.cap != other.cap:
            self._check_binary(other)
        a, b = self._terms, other._terms
        if not b:
            return self
        da, db = self._den, other._den
        if da == db:
            den, out, fb = da, dict(a), sign
        else:
            den = lcm(da, db)
            fa = den // da
            out = {k: c * fa for k, c in a.items()} if fa != 1 else dict(a)
            fb = sign * (den // db)
        get = out.get
        for k, c in b.items():
            s = get(k, 0) + c * fb
            if s:
                out[k] = s
            else:
                del out[k]
        return _reduced(self.num_vars, self.cap, out, den)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if not self._terms:
            self._check_binary(other)
            return other
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self):
        return _new(self.num_vars, self.cap,
                    {k: -c for k, c in self._terms.items()}, self._den)

    def scale(self, c) -> "TruncatedSeries":
        c = rat(c)
        if c == 0:
            return _new(self.num_vars, self.cap, {}, 1)
        p = int(c.numerator)
        return _reduced(self.num_vars, self.cap,
                        {k: v * p for k, v in self._terms.items()},
                        self._den * int(c.denominator))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        cap, num_vars = self.cap, self.num_vars
        if num_vars != other.num_vars or cap != other.cap:
            self._check_binary(other)
        return _dot((((sorted(self._terms.items()), self._den),
                      (sorted(other._terms.items()), other._den)),),
                    num_vars, cap)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit series (nonzero constant term).

        Newton iteration inv <- inv (2 - s inv): an inverse exact through
        degree k becomes exact through 2k + 1, so each step works at the
        doubled precision only.
        """
        c = self.constant_term()
        if c == 0:
            raise ValueError("series with zero constant term has no inverse")
        num_vars = self.num_vars
        inv = TruncatedSeries.constant(Q(1) / c, num_vars, 0)
        while inv.cap < self.cap:
            prec = min(2 * inv.cap + 1, self.cap)
            inv = _new(num_vars, prec,
                       _relayout(inv._terms, num_vars, inv.cap, prec), inv._den)
            two = TruncatedSeries.constant(2, num_vars, prec)
            inv = inv * (two - self.truncate(prec) * inv)
        return inv

    # ------------------------------------------------------- reparametrizing

    def truncate(self, new_cap: int) -> "TruncatedSeries":
        cap = self.cap
        if new_cap == cap:
            return self
        if new_cap > cap:
            raise ValueError(
                f"cannot raise cap from {cap} to {new_cap}: strata unknown"
            )
        if new_cap < 0:
            raise ValueError("cap must be >= 0")
        num_vars, terms = self.num_vars, self._terms
        limit = (new_cap + 1) << (_width(cap) * num_vars)
        kept = {k: c for k, c in terms.items() if k < limit}
        if cap >= _WIDE:
            kept = _relayout(kept, num_vars, cap, new_cap)
        if self._den == 1 or len(kept) == len(terms):
            return _new(num_vars, new_cap, kept, self._den)
        return _reduced(num_vars, new_cap, kept, self._den)

    def partial(self, i: int) -> "TruncatedSeries":
        """Formal partial derivative; the result carries cap-1.

        The input's degree cap+1 stratum is unknown and would feed the
        derivative's degree-cap stratum, so that stratum is dropped.
        """
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        if self.cap == 0:
            raise CapError("cannot differentiate a series with cap 0")
        cap, num_vars = self.cap, self.num_vars
        out = dict(_partial_terms(self._terms.items(), num_vars, cap, i))
        if self._den == 1:
            return _new(num_vars, cap - 1, out, 1)
        return _reduced(num_vars, cap - 1, out, self._den)

    def compose(self, args) -> "TruncatedSeries":
        """Substitute args[i] for variable i: the one-series case of
        ``compose``, by its budgeted Horner scheme (see ``_horner``).

        Every substituted series must share one num_vars and this series' cap,
        and must have zero constant term (composition with a unit constant
        term is not a jet operation at the origin).  Several series
        composed with one argument list go through ``compose`` instead,
        which shares one table of the arguments' products (see
        "Composition" in the module docstring).
        """
        return compose((self,), args)[0]

    def shift(self, point) -> "TruncatedSeries":
        """Exact translation: the series of x -> f(x + point).

        Translation never raises total degree, so the cap is unchanged.  This
        treats the stored polynomial as exact, which is the contract for user
        supplied defining data.
        """
        point = [rat(p) for p in point]
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        out = {}
        for e, c in self.terms():
            partial_terms = {(): c}
            for i, ei in enumerate(e):
                p = point[i]
                new_terms = {}
                if p == 0:
                    for k, v in partial_terms.items():
                        new_terms[k + (ei,)] = v
                else:
                    powers = [Q(1)]
                    for _ in range(ei):
                        powers.append(powers[-1] * p)
                    for k, v in partial_terms.items():
                        for j in range(ei + 1):
                            kk = k + (j,)
                            add = v * comb(ei, j) * powers[ei - j]
                            acc = new_terms.get(kk)
                            new_terms[kk] = add if acc is None else acc + add
                partial_terms = new_terms
            for k, v in partial_terms.items():
                acc = out.get(k)
                out[k] = v if acc is None else acc + v
        return TruncatedSeries(self.num_vars, self.cap, out)

    def evaluate(self, point):
        """Exact value of the stored polynomial at a rational point."""
        point = [rat(p) for p in point]
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        total = ZERO
        cache = [{0: Q(1)} for _ in range(self.num_vars)]
        for e, c in self.terms():
            v = c
            for i, ei in enumerate(e):
                if ei:
                    pw = cache[i].get(ei)
                    if pw is None:
                        pw = point[i] ** ei
                        cache[i][ei] = pw
                    v = v * pw
            total = total + v
        return total

    # --------------------------------------------------------------- display

    def __repr__(self):
        return (
            f"TruncatedSeries(num_vars={self.num_vars}, cap={self.cap}, "
            f"terms={self.as_list()!r})"
        )

    def as_list(self):
        """Graded-lex list of [exponents, coefficient-string] pairs."""
        return [[list(e), str(c)] for e, c in self.terms()]


def _operand(s: TruncatedSeries, num_vars: int, cap: int):
    """s as an operand of _dot at cap <= s.cap: (sorted terms, denominator).

    A series whose keys have another width than cap's is truncated first."""
    if s.num_vars != num_vars:
        raise ValueError(f"num_vars mismatch: {s.num_vars} vs {num_vars}")
    if s.cap < cap:
        raise ValueError(f"cap {s.cap} is below the product's cap {cap}")
    if s.cap >= _WIDE and _width(s.cap) != _width(cap):
        s = s.truncate(cap)
    return sorted(s._terms.items()), s._den


def _partial_terms(items, num_vars: int, cap: int, i: int) -> list:
    """The terms of d/dx_i of the terms items of a series of cap cap.

    They are (key, numerator) pairs over that series' denominator,
    unreduced, keyed in the layout of cap - 1 and in the order of items.
    """
    width = _width(cap)
    shift = width * (num_vars - 1 - i)
    mask = (1 << width) - 1
    # lowers the degree field and the field of variable i by one
    step = (1 << (width * num_vars)) + (1 << shift)
    out = [(k - step, c * e) for k, c in items if (e := (k >> shift) & mask)]
    if cap >= _WIDE:
        out = list(_relayout(dict(out), num_vars, cap, cap - 1).items())
    return out


def _dot(pairs, num_vars: int, cap: int) -> TruncatedSeries:
    """The series sum a * b over pairs of operands a, b, at cap.

    An operand is (terms, den): (key, numerator) pairs in increasing key
    order, keyed in the layout of cap, over the denominator den (see
    _operand).  Terms of degree above cap are never read.  The products
    are summed over the lcm of their denominators and reduced once.
    """
    limit = (cap + 1) << (num_vars * _width(cap))
    out = {}
    get = out.get
    den = 1
    for (a, da), (b, db) in pairs:
        if not (a and b):
            continue
        d = da * db
        if den % d:  # the sum so far moves to the lcm
            g = lcm(den, d) // den
            den *= g
            if out:
                out = {k: c * g for k, c in out.items()}
                get = out.get
        f = den // d
        if len(a) > len(b):
            a, b = b, a
        # the keys are sorted by degree, so the inner loop can stop early
        for ka, ca in a:
            lim = limit - ka
            ca *= f
            for kb, cb in b:
                if kb >= lim:
                    break
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    if not all(out.values()):
        out = {k: c for k, c in out.items() if c}
    if den == 1:
        return _new(num_vars, cap, out, 1)
    return _reduced(num_vars, cap, out, den)


def _parent(key: int, num_vars: int, width: int):
    """(the key of alpha - e_k, k) for the key of a nonzero multi-index
    alpha laid out with field width width, k the last variable of alpha:
    every table of products forms u^alpha as u^(alpha - e_k) * u_k
    (compose, disks._Plan)."""
    top = width * num_vars
    low = key & ((1 << top) - 1)
    field = ((low & -low).bit_length() - 1) // width  # from the right
    return key - (1 << top) - (1 << width * field), num_vars - 1 - field


def compose(series, args) -> list:
    """[f.compose(args) for f in series]: each f with args[i] substituted
    for its variable i.

    Every series must share one num_vars and cap, there must be one
    argument per variable, and every argument must share one num_vars,
    have the series' cap and have zero constant term; all of this is
    checked before any product is formed.  One series runs the budgeted
    Horner scheme (_horner), which does least for one sparse series in a
    dense argument list; two or more share one table of the arguments'
    products (_table), so that a product several series read is formed
    once instead of once in each (see "Composition" above).
    """
    series, args = list(series), list(args)
    if not series:
        return []
    f = series[0]
    for s in series:
        if s.num_vars != f.num_vars:
            raise ValueError("composed series disagree on num_vars")
        if s.cap != f.cap:
            raise ValueError(
                f"composed series disagree on cap: {f.cap} vs {s.cap}")
    if len(args) != f.num_vars:
        raise ValueError(
            f"need {f.num_vars} substitution series, got {len(args)}")
    for g in args:
        if g.num_vars != args[0].num_vars:
            raise ValueError("substitution series disagree on num_vars")
        if g.cap != f.cap:
            raise ValueError(
                f"cap mismatch in composition: {f.cap} vs {g.cap}")
        if 0 in g._terms:
            raise ValueError(
                "composition requires zero constant term in substituted series"
            )
    # every product is read through at least the least cap of the cap's
    # key width, so it is laid out as the arguments are
    floor = 0 if f.cap < _WIDE else 1 << (f.cap.bit_length() - 1)
    if len(series) == 1:
        return [_horner(f, args, floor)]
    return _table(series, args, floor)


def _horner(f: TruncatedSeries, args: list, floor: int) -> TruncatedSeries:
    """f composed with args by Horner's scheme, under a budget.

    It runs on one variable at a time: the sum of the terms whose exponent
    of that variable is e gets multiplied by g^e, whose valuation is at
    least e, so it is formed and read through cap - e only.  Its terms have
    degree at most cap - e, so no term is lost to its budget.  Budgets stay
    at or above floor, the least cap of cap's key width, so every product
    is laid out as the arguments are.  The answer is the same series
    through the cap as the one formed at the full cap.
    """
    d = args[0].num_vars
    ops = [None] * len(args)  # each argument as a _dot operand

    def horner(sub_terms: dict, k: int, c: int) -> TruncatedSeries:
        # sub_terms maps length-k exponent prefixes, of degree <= c,
        # to numerators; their sum comes back at cap c, exact through c
        if not sub_terms:
            return _new(d, c, {}, 1)
        if k == 0:
            return _new(d, c, {0: sub_terms[()]}, 1)
        buckets: dict = {}
        for exps, coef in sub_terms.items():
            buckets.setdefault(exps[k - 1], {})[exps[:-1]] = coef
        g = ops[k - 1]
        if g is None:
            g = ops[k - 1] = (sorted(args[k - 1]._terms.items()),
                              args[k - 1]._den)
        emax = max(buckets)
        acc = horner(buckets[emax], k - 1, max(c - emax, floor))
        for e in range(emax - 1, -1, -1):
            # the prefix that g^e multiplies is read through c - e only
            ce = max(c - e, floor)
            acc = _dot((((sorted(acc._terms.items()), acc._den), g),), d, ce)
            if e in buckets:
                acc = acc + horner(buckets[e], k - 1, ce)
        return acc

    # Horner's scheme runs on the numerators; the denominator is put back
    # once, at the end
    cap, width = f.cap, _width(f.cap)
    numerators = {_unpack(k, f.num_vars, width): c
                  for k, c in f._terms.items()}
    acc = horner(numerators, f.num_vars, cap)
    del horner  # it calls itself: free it without the cyclic collector
    return _reduced(d, cap, acc._terms, acc._den * f._den)


def _table(series: list, args: list, floor: int) -> list:
    """Every series of one num_vars and cap composed with args through one
    table of the products u^alpha = u^(alpha - e_k) * u_k (_parent) of the
    arguments u (Brent and Kung, J. ACM 1978), each formed once, with _dot,
    through the cap its readers need; each series is then one _dot over
    its (coefficient, u^alpha) pairs.
    """
    f = series[0]
    num_vars, cap, width = f.num_vars, f.cap, _width(f.cap)
    d, top = args[0].num_vars, width * num_vars
    need: dict = {}  # the key of alpha -> the cap u^alpha is read at
    for s in series:
        for key in s._terms:
            c = cap
            # an ancestor of a product already read at c or more is too
            while key >> top > 1 and need.get(key, -1) < c:
                need[key] = c
                key = _parent(key, num_vars, width)[0]
                c = max(c - 1, floor)
    unit = [(1 << top) | (1 << width * (num_vars - 1 - k))
            for k in range(num_vars)]
    ops = {0: ([(0, 1)], 1)}  # u^alpha as a _dot operand
    for e, g in zip(unit, args):
        ops[e] = (sorted(g._terms.items()), g._den)
    for key in sorted(need):  # keys grow with degree: parents first
        parent, k = _parent(key, num_vars, width)
        p = _dot(((ops[parent], ops[unit[k]]),), d, need[key])
        ops[key] = (sorted(p._terms.items()), p._den)
    return [_dot([(([(0, c)], s._den), ops[key])
                  for key, c in s._terms.items()], d, cap)
            for s in series]


def mat_vec(matrix, vector, cap=None):
    """The series vector out[i] = sum_j matrix[i][j] * vector[j] at cap.

    cap defaults to that of the vector's first component; every entry and
    component shares one num_vars and has a cap of at least cap, and is read
    through cap only.  Zero entries and zero components are skipped.
    """
    num_vars = vector[0].num_vars
    if cap is None:
        cap = vector[0].cap
    vec = [_operand(v, num_vars, cap) if v._terms else None for v in vector]
    return [_dot([(_operand(e, num_vars, cap), v)
                  for e, v in zip(row, vec) if v and e._terms],
                 num_vars, cap)
            for row in matrix]


def mat_mul(a, b):
    """The matrix product a . b of two matrices of series, via mat_vec."""
    cols = [mat_vec(a, [row[k] for row in b]) for k in range(len(b[0]))]
    return [list(row) for row in zip(*cols)]
