"""Exact truncated multivariate power series over Q.

A TruncatedSeries stores a polynomial jet: a dict from exponent tuples (the
multi-indices, one entry per variable) to nonzero rationals, together with a
degree cap.  Every stored term has total degree <= cap, and the cap is the
contract: coefficients of degree <= cap are exact, nothing is known beyond.

Caps are carried per series and checked on every binary operation; they are
never inferred or silently widened.  Differentiation returns a series with
cap reduced by one because the (unknown) degree cap+1 stratum of the input
would have contributed to the top stratum of the derivative; dropping that
stratum is how "unreliable" is represented here.

Term iteration and printing use graded lexicographic order so outputs are
deterministic.
"""

from __future__ import annotations

from math import comb

from .errors import CapError
from .rational import Q, ZERO

_QTYPE = type(ZERO)


def graded_key(exponents):
    """Sort key for graded lexicographic order."""
    return (sum(exponents), exponents)


def _coerce_scalar(c):
    if isinstance(c, _QTYPE):
        return c
    if isinstance(c, float):
        raise TypeError("floats are not exact rationals")
    return Q(c)


class TruncatedSeries:
    __slots__ = ("num_vars", "cap", "_terms")

    def __init__(self, num_vars: int, cap: int, terms=None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if cap < 0:
            raise ValueError("cap must be >= 0")
        self.num_vars = num_vars
        self.cap = cap
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, c in items:
                exps = tuple(exps)
                if len(exps) != num_vars:
                    raise ValueError(
                        f"multi-index {exps} has {len(exps)} entries, expected {num_vars}"
                    )
                if any(e < 0 or not isinstance(e, int) for e in exps):
                    raise ValueError(f"multi-index {exps} must hold non-negative ints")
                if sum(exps) > cap:
                    raise ValueError(
                        f"term of degree {sum(exps)} exceeds cap {cap}"
                    )
                c = _coerce_scalar(c)
                if c != 0:
                    acc = clean.get(exps)
                    if acc is None:
                        clean[exps] = c
                    else:
                        acc = acc + c
                        if acc == 0:
                            del clean[exps]
                        else:
                            clean[exps] = acc
        self._terms = clean

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, num_vars: int, cap: int) -> "TruncatedSeries":
        return cls(num_vars, cap)

    @classmethod
    def constant(cls, c, num_vars: int, cap: int) -> "TruncatedSeries":
        return cls(num_vars, cap, {(0,) * num_vars: c})

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

    def coefficient(self, exponents):
        exponents = tuple(exponents)
        if len(exponents) != self.num_vars:
            raise ValueError("multi-index arity mismatch")
        if sum(exponents) > self.cap:
            raise CapError(
                f"degree {sum(exponents)} coefficient is beyond cap {self.cap}"
            )
        return self._terms.get(exponents, ZERO)

    def constant_term(self):
        return self._terms.get((0,) * self.num_vars, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self):
        """Max total degree of a stored term, or None for the zero series."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def valuation(self):
        """Min total degree of a stored term, or None for the zero series."""
        if not self._terms:
            return None
        return min(sum(e) for e in self._terms)

    def terms(self):
        """Terms in graded lexicographic order."""
        for exps in sorted(self._terms, key=graded_key):
            yield exps, self._terms[exps]

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
            and self._terms == other._terms
        )

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_binary(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc == 0:
                    del out[e]
                else:
                    out[e] = acc
        res = TruncatedSeries(self.num_vars, self.cap)
        res._terms = out
        return res

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        res = TruncatedSeries(self.num_vars, self.cap)
        res._terms = {e: -c for e, c in self._terms.items()}
        return res

    def scale(self, c) -> "TruncatedSeries":
        c = _coerce_scalar(c)
        res = TruncatedSeries(self.num_vars, self.cap)
        if c != 0:
            res._terms = {e: v * c for e, v in self._terms.items()}
        return res

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_binary(other)
        cap = self.cap
        # sorted by degree so the inner loop can stop early
        a = sorted(((sum(e), e, c) for e, c in self._terms.items()),
                   key=lambda t: t[0])
        b = sorted(((sum(e), e, c) for e, c in other._terms.items()),
                   key=lambda t: t[0])
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for da, ea, ca in a:
            limit = cap - da
            for db, eb, cb in b:
                if db > limit:
                    break
                key = tuple(x + y for x, y in zip(ea, eb))
                acc = out.get(key)
                prod = ca * cb
                if acc is None:
                    out[key] = prod
                else:
                    acc = acc + prod
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
        res = TruncatedSeries(self.num_vars, cap)
        res._terms = out
        return res

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit series (nonzero constant term).

        Newton iteration inv <- inv (2 - s inv): an inverse exact through
        degree k becomes exact through 2k + 1, so each step works at the
        doubled precision only.
        """
        c = self.constant_term()
        if c == 0:
            raise ValueError("series with zero constant term has no inverse")
        inv = TruncatedSeries.constant(Q(1) / c, self.num_vars, 0)
        while inv.cap < self.cap:
            prec = min(2 * inv.cap + 1, self.cap)
            inv = TruncatedSeries(self.num_vars, prec, inv._terms)
            two = TruncatedSeries.constant(2, self.num_vars, prec)
            inv = inv * (two - self.truncate(prec) * inv)
        return inv

    # ------------------------------------------------------- reparametrizing

    def truncate(self, new_cap: int) -> "TruncatedSeries":
        if new_cap > self.cap:
            raise ValueError(
                f"cannot raise cap from {self.cap} to {new_cap}: strata unknown"
            )
        if new_cap < 0:
            raise ValueError("cap must be >= 0")
        res = TruncatedSeries(self.num_vars, new_cap)
        res._terms = {e: c for e, c in self._terms.items() if sum(e) <= new_cap}
        return res

    def partial(self, i: int) -> "TruncatedSeries":
        """Formal partial derivative; the result carries cap-1.

        The input's degree cap+1 stratum is unknown and would feed the
        derivative's degree-cap stratum, so that stratum is dropped.
        """
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        if self.cap == 0:
            raise CapError("cannot differentiate a series with cap 0")
        new_cap = self.cap - 1
        out = {}
        for e, c in self._terms.items():
            k = e[i]
            if k:
                ne = e[:i] + (k - 1,) + e[i + 1:]
                acc = out.get(ne)
                v = c * k
                out[ne] = v if acc is None else acc + v
        res = TruncatedSeries(self.num_vars, new_cap)
        res._terms = {e: c for e, c in out.items() if c != 0}
        return res

    def compose(self, args) -> "TruncatedSeries":
        """Substitute args[i] for variable i.

        Every substituted series must share one num_vars and this series' cap,
        and must have zero constant term (composition with a unit constant
        term is not a jet operation at the origin).
        """
        args = list(args)
        if len(args) != self.num_vars:
            raise ValueError(
                f"need {self.num_vars} substitution series, got {len(args)}"
            )
        d = args[0].num_vars
        for g in args:
            if g.num_vars != d:
                raise ValueError("substitution series disagree on num_vars")
            if g.cap != self.cap:
                raise ValueError(
                    f"cap mismatch in composition: {self.cap} vs {g.cap}"
                )
            if g.constant_term() != 0:
                raise ValueError(
                    "composition requires zero constant term in substituted series"
                )
        cap = self.cap
        zero = TruncatedSeries.zero(d, cap)

        def horner(sub_terms: dict, k: int) -> TruncatedSeries:
            # sub_terms maps length-k exponent prefixes to coefficients
            if not sub_terms:
                return zero
            if k == 0:
                return TruncatedSeries.constant(sub_terms.get((), ZERO), d, cap)
            g = args[k - 1]
            buckets: dict = {}
            for exps, c in sub_terms.items():
                buckets.setdefault(exps[k - 1], {})[exps[:-1]] = c
            emax = max(buckets)
            acc = horner(buckets[emax], k - 1)
            for e in range(emax - 1, -1, -1):
                acc = acc * g
                if e in buckets:
                    acc = acc + horner(buckets[e], k - 1)
            return acc

        return horner(dict(self._terms), self.num_vars)

    def shift(self, point) -> "TruncatedSeries":
        """Exact translation: the series of x -> f(x + point).

        Translation never raises total degree, so the cap is unchanged.  This
        treats the stored polynomial as exact, which is the contract for user
        supplied defining data.
        """
        point = [_coerce_scalar(p) for p in point]
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        out = {}
        for e, c in self._terms.items():
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
        res = TruncatedSeries(self.num_vars, self.cap)
        res._terms = {e: c for e, c in out.items() if c != 0}
        return res

    def evaluate(self, point):
        """Exact value of the stored polynomial at a rational point."""
        point = [_coerce_scalar(p) for p in point]
        if len(point) != self.num_vars:
            raise ValueError("point arity mismatch")
        total = ZERO
        cache = [{0: Q(1)} for _ in range(self.num_vars)]
        for e, c in self._terms.items():
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

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, c in self.terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"v{i}")
                elif e > 1:
                    factors.append(f"v{i}^{e}")
            if factors:
                if c == 1:
                    parts.append("*".join(factors))
                elif c == -1:
                    parts.append("-" + "*".join(factors))
                else:
                    parts.append(f"{c}*" + "*".join(factors))
            else:
                parts.append(str(c))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def as_list(self):
        """Graded-lex list of [exponents, coefficient-string] pairs."""
        return [[list(e), str(c)] for e, c in self.terms()]


def mat_vec(matrix, vector):
    """The series vector out[i] = sum_j matrix[i][j] * vector[j].

    Every entry and component shares one num_vars and one cap; zero entries
    and zero components are skipped.
    """
    zero = TruncatedSeries.zero(vector[0].num_vars, vector[0].cap)
    live = [(j, v) for j, v in enumerate(vector) if v._terms]
    out = []
    for row in matrix:
        acc = zero
        for j, v in live:
            e = row[j]
            if e._terms:
                acc = acc + e * v
        out.append(acc)
    return out


def mat_mul(a, b):
    """The matrix product a . b of two matrices of series, via mat_vec."""
    cols = [mat_vec(a, [row[k] for row in b]) for k in range(len(b[0]))]
    return [list(row) for row in zip(*cols)]
