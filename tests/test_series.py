"""Truncated series arithmetic: pinned examples and algebraic laws.

All assertions are exact equalities; there is no tolerance anywhere.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levitype.jets as jets
from levitype import (ACStructure, Hypersurface, Q, TruncatedSeries,
                      higher_levi, propagate_cr_jet)
from levitype.disks import holomorphic_reparam_series
from levitype.jets import compose

X = TruncatedSeries.variable


def graded_key(exponents):
    """Sort key for graded lexicographic order."""
    return (sum(exponents), exponents)


def S(num_vars, cap, terms):
    return TruncatedSeries(num_vars, cap, terms)


class TestPinnedExamples:
    def test_add_variables(self):
        a = X(0, 2, 4)
        b = X(1, 2, 4)
        assert a + b == S(2, 4, {(1, 0): 1, (0, 1): 1})

    def test_additive_identity(self):
        f = S(2, 4, {(1, 1): Q(2, 3), (3, 0): -1})
        assert f + TruncatedSeries.zero(2, 4) == f

    def test_scale(self):
        f = S(1, 4, {(2,): 1})
        assert f.scale(Q(3, 2)) == S(1, 4, {(2,): Q(3, 2)})

    def test_mul_variables(self):
        assert X(0, 2, 4) * X(1, 2, 4) == S(2, 4, {(1, 1): 1})

    def test_mul_conjugates(self):
        one = TruncatedSeries.constant(1, 1, 3)
        x = X(0, 1, 3)
        assert (one + x) * (one - x) == S(1, 3, {(0,): 1, (2,): -1})

    def test_mul_truncates_at_cap(self):
        k = 5
        f = S(1, k, {(k,): 1})
        assert (f * X(0, 1, k)).is_zero()

    def test_compose_square_of_sum(self):
        f = S(1, 4, {(2,): 1})
        g = X(0, 2, 4) + X(1, 2, 4)
        assert f.compose([g]) == S(2, 4, {(2, 0): 1, (1, 1): 2,
                                           (0, 2): 1})

    def test_compose_identity(self):
        f = S(2, 5, {(1, 0): 2, (2, 3): Q(-1, 2), (0, 4): 7})
        ident = [X(0, 2, 5), X(1, 2, 5)]
        assert f.compose(ident) == f

    def test_compose_monomial_images(self):
        f = S(2, 5, {(1, 1): 1})
        g = [S(2, 5, {(2, 0): 1}), S(2, 5, {(0, 3): 1})]
        assert f.compose(g) == S(2, 5, {(2, 3): 1})

    def test_partial_power(self):
        f = S(2, 4, {(2, 1): 1})
        assert f.partial(0) == S(2, 3, {(1, 1): 2})

    def test_partial_absent_variable(self):
        f = S(2, 4, {(2, 0): 1})
        assert f.partial(1).is_zero()

    def test_mismatched_caps_rejected(self):
        with pytest.raises(ValueError):
            X(0, 1, 3) + X(0, 1, 4)
        with pytest.raises(ValueError):
            X(0, 2, 3) * X(0, 2, 4)

    def test_mismatched_arity_rejected(self):
        with pytest.raises(ValueError):
            X(0, 1, 3) + X(0, 2, 3)

    def test_compose_nonzero_constant_rejected(self, monkeypatch):
        def refused(*_):
            raise AssertionError("a product was formed")

        # refused before any product, in whichever place the unit stands
        monkeypatch.setattr("levitype.jets._dot", refused)
        f = S(2, 3, {(2, 1): 1, (0, 2): Q(1, 2)})
        good = S(2, 3, {(1, 0): 1})
        unit = TruncatedSeries.constant(1, 2, 3) + X(1, 2, 3)
        for args in ([unit, good], [good, unit]):
            with pytest.raises(ValueError, match="zero constant term"):
                f.compose(args)
            with pytest.raises(ValueError, match="zero constant term"):
                compose([f, f], args)
        # the list form refuses series that disagree, and arguments that
        # miss a variable or the series' cap or disagree, before any product
        bad = [([f, S(3, 3, {(1, 0, 0): 1})], [good, good], "num_vars"),
               ([f, S(2, 4, {(1, 0): 1})], [good, good], "cap"),
               ([f, f], [good], "need 2"),
               ([f, f], [good, S(2, 4, {(1, 0): 1})], "cap mismatch"),
               ([f, f], [good, X(0, 3, 3)], "num_vars")]
        for series, args, message in bad:
            with pytest.raises(ValueError, match=message):
                compose(series, args)


def rational_st():
    return st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


def series_st(num_vars=2, cap=4):
    pool = [e for e in iproduct(range(cap + 1), repeat=num_vars)
            if sum(e) <= cap]
    return st.builds(
        lambda d: TruncatedSeries(num_vars, cap, d),
        st.dictionaries(st.sampled_from(pool), rational_st(), max_size=6),
    )


def zero_const_series_st(num_vars=2, cap=4):
    pool = [e for e in iproduct(range(cap + 1), repeat=num_vars)
            if 1 <= sum(e) <= cap]
    return st.builds(
        lambda d: TruncatedSeries(num_vars, cap, d),
        st.dictionaries(st.sampled_from(pool), rational_st(), max_size=5),
    )


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_st(), series_st(), series_st())
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @settings(max_examples=60, deadline=None)
    @given(series_st(), series_st(), series_st())
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(series_st(), series_st())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(series_st(), series_st(), series_st())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(series_st())
    def test_neg_and_sub(self, a):
        assert (a - a).is_zero()
        assert a + (-a) == a - a


class TestCalculusLaws:
    @settings(max_examples=40, deadline=None)
    @given(series_st(num_vars=2, cap=4))
    def test_schwarz_symmetry(self, f):
        assert f.partial(0).partial(1) == f.partial(1).partial(0)

    @settings(max_examples=40, deadline=None)
    @given(series_st(num_vars=2, cap=4),
           zero_const_series_st(), zero_const_series_st())
    def test_chain_rule(self, f, g0, g1):
        comp = f.compose([g0, g1])
        for var in (0, 1):
            lhs = comp.partial(var)
            rhs = (f.partial(0).compose([g0.truncate(3), g1.truncate(3)])
                   * g0.partial(var)
                   + f.partial(1).compose([g0.truncate(3), g1.truncate(3)])
                   * g1.partial(var))
            assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(series_st(num_vars=1, cap=4),
           zero_const_series_st(num_vars=1, cap=4),
           zero_const_series_st(num_vars=1, cap=4))
    def test_composition_associative(self, f, g, h):
        gh = g.compose([h])
        assert f.compose([g]).compose([h]) == f.compose([gh])

    @settings(max_examples=40, deadline=None)
    @given(series_st(), series_st(), st.integers(0, 4))
    def test_truncation_consistency(self, a, b, k):
        assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)
        assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)


def reference_inverse(s):
    """The fixed-point iteration acc <- 1 + h acc with h = 1 - s / s(0)."""
    c = s.constant_term()
    one = TruncatedSeries.constant(1, s.num_vars, s.cap)
    h = one - s.scale(Q(1) / c)
    acc = one
    for _ in range(s.cap):
        acc = one + h * acc
    return acc.scale(Q(1) / c)


@st.composite
def unit_series_st(draw):
    num_vars, cap = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    f = draw(series_st(num_vars, cap))
    c = draw(rational_st().filter(lambda q: q != 0))
    return f + TruncatedSeries.constant(c - f.constant_term(), num_vars, cap)


class TestInverse:
    @settings(max_examples=60, deadline=None)
    @given(unit_series_st())
    def test_inverse_through_the_cap(self, s):
        inv = s.inverse()
        assert inv.cap == s.cap
        assert s * inv == TruncatedSeries.constant(1, s.num_vars, s.cap)
        assert inv == reference_inverse(s)

    def test_geometric_series(self):
        one = TruncatedSeries.constant(1, 1, 5)
        assert (one - X(0, 1, 5)).inverse() == \
            S(1, 5, {(k,): 1 for k in range(6)})

    def test_zero_constant_term_rejected(self):
        for f in (S(2, 3, {(1, 0): 1}), TruncatedSeries.zero(1, 0)):
            with pytest.raises(ValueError):
                f.inverse()


class TestOrderingAndAccess:
    def test_graded_iteration_order(self):
        f = S(2, 4, {(0, 2): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1})
        keys = [e for e, _ in f.terms()]
        assert keys == sorted(keys, key=graded_key)
        assert [sum(e) for e in keys] == sorted(sum(e) for e in keys)

    def test_coefficient_lookup(self):
        f = S(2, 4, {(1, 2): Q(5, 3)})
        assert f.coefficient((1, 2)) == Q(5, 3)
        assert f.coefficient((2, 1)) == 0

    def test_zero_coefficients_dropped(self):
        f = S(2, 4, {(1, 0): 0, (0, 1): 1})
        assert f == S(2, 4, {(0, 1): 1})

    def test_evaluate(self):
        f = S(2, 4, {(1, 0): 2, (0, 2): 1})
        assert f.evaluate([Q(1, 2), Q(3)]) == 1 + 9


# ------------------------------------------------------------------ oracle
# A naive reference kernel: dicts from exponent tuples to Fractions, every
# operation written from its definition.  The packed kernel must agree with
# it term for term, in graded-lex order, and in its reduced representation.


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(a, b, cap):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= cap:
                out[e] = out.get(e, 0) + ca * cb
    return ref_clean(out)


def ref_truncate(a, cap):
    return {e: c for e, c in a.items() if sum(e) <= cap}


def ref_partial(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


def ref_one(num_vars):
    return {(0,) * num_vars: Fraction(1)}


def ref_compose(a, args, num_vars, cap):
    out = {}
    for e, c in a.items():
        term = {(0,) * num_vars: c}
        for g, k in zip(args, e):
            for _ in range(k):
                term = ref_mul(term, g, cap)
        out = ref_add(out, term)
    return out


def ref_inverse(a, num_vars, cap):
    # 1/a = (1/c) sum_k h^k with h = 1 - a/c, exact through the cap
    c = Fraction(a[(0,) * num_vars])
    one = ref_one(num_vars)
    h = ref_add(one, {e: -v / c for e, v in a.items()})
    acc, power = dict(one), dict(one)
    for _ in range(cap):
        power = ref_mul(power, h, cap)
        acc = ref_add(acc, power)
    return {e: v / c for e, v in acc.items()}


def assert_matches(s, ref, num_vars, cap):
    assert (s.num_vars, s.cap) == (num_vars, cap)
    assert [e for e, _ in s.terms()] == sorted(ref, key=graded_key)
    assert dict(s.terms()) == ref
    assert s == S(num_vars, cap, ref)
    assert s._den > 0 and gcd(s._den, *s._terms.values()) == 1


# coefficients over several denominators, so that sums and products move
# the series' common denominator both up and down
mixed_rational_st = st.builds(Fraction, st.integers(-30, 30),
                              st.sampled_from((1, 2, 3, 4, 6, 9, 10)))


@st.composite
def multi_index_st(draw, num_vars, cap, min_degree=0):
    e = [0] * num_vars
    for _ in range(draw(st.integers(min_degree, cap))):
        e[draw(st.integers(0, num_vars - 1))] += 1
    return tuple(e)


def ref_terms_st(num_vars, cap, max_size=6, min_degree=0):
    if cap < min_degree:
        return st.just({})
    return st.dictionaries(multi_index_st(num_vars, cap, min_degree),
                           mixed_rational_st, max_size=max_size).map(ref_clean)


@st.composite
def shape_st(draw, max_vars=8, max_cap=12):
    return draw(st.integers(1, max_vars)), draw(st.integers(0, max_cap))


ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


class TestOracle:
    @ORACLE
    @given(st.data())
    def test_add_sub_mul(self, data):
        nv, cap = data.draw(shape_st())
        a = data.draw(ref_terms_st(nv, cap))
        b = data.draw(ref_terms_st(nv, cap))
        sa, sb = S(nv, cap, a), S(nv, cap, b)
        assert_matches(sa + sb, ref_add(a, b), nv, cap)
        assert_matches(sa - sb, ref_add(a, {e: -c for e, c in b.items()}),
                       nv, cap)
        assert_matches(sa * sb, ref_mul(a, b, cap), nv, cap)

    @ORACLE
    @given(st.data())
    def test_partial_and_truncate(self, data):
        nv, cap = data.draw(shape_st())
        a = data.draw(ref_terms_st(nv, cap, max_size=10))
        s = S(nv, cap, a)
        k = data.draw(st.integers(0, cap))
        assert_matches(s.truncate(k), ref_truncate(a, k), nv, k)
        if cap:
            i = data.draw(st.integers(0, nv - 1))
            assert_matches(s.partial(i), ref_partial(a, i), nv, cap - 1)

    @ORACLE
    @given(st.data())
    def test_compose(self, data):
        nv, cap = data.draw(shape_st(max_vars=4, max_cap=8))
        d = data.draw(st.integers(1, 8))
        a = data.draw(ref_terms_st(nv, cap, max_size=4))
        args = [data.draw(ref_terms_st(d, cap, max_size=3, min_degree=1))
                for _ in range(nv)]
        got = S(nv, cap, a).compose([S(d, cap, g) for g in args])
        assert_matches(got, ref_compose(a, args, d, cap), d, cap)

    @ORACLE
    @given(st.data())
    def test_inverse(self, data):
        nv, cap = data.draw(shape_st())
        a = data.draw(ref_terms_st(nv, min(cap, 12 // nv), max_size=4,
                                   min_degree=1))
        a[(0,) * nv] = data.draw(mixed_rational_st.filter(bool))
        assert_matches(S(nv, cap, a).inverse(), ref_inverse(a, nv, cap),
                       nv, cap)


def expanded_compose(f, args):
    """sum c * prod g_i^e_i over the terms of f, each product by * at cap."""
    d, cap = args[0].num_vars, f.cap
    one = TruncatedSeries.constant(1, d, cap)
    powers = [[one] for _ in args]
    out = TruncatedSeries.zero(d, cap)
    for exps, c in f.terms():
        term = one.scale(c)
        for g, pw, e in zip(args, powers, exps):
            while len(pw) <= e:
                pw.append(pw[-1] * g)
            term = term * pw[e]
        out = out + term
    return out


@st.composite
def compose_case_st(draw, caps, max_vars=4, max_subs=3, max_terms=5):
    """(f, args): f in 1..max_vars variables at a cap drawn from caps, one
    zero-constant argument per variable in 1..max_subs variables.

    f draws some terms of top degree and single-variable powers; each
    argument has a valuation of 1, 2 or 3 (with a linear term when 1), so
    some images lie above the cap and some reach it exactly."""
    nv, d = draw(st.integers(1, max_vars)), draw(st.integers(1, max_subs))
    cap = draw(st.sampled_from(caps))
    top = [tuple(cap if j == i else 0 for j in range(nv)) for i in range(nv)]
    a = dict(draw(ref_terms_st(nv, cap, max_size=max_terms)))
    for e in draw(st.lists(st.sampled_from(top), max_size=2)):
        a[e] = draw(mixed_rational_st.filter(bool))
    args = []
    for _ in range(nv):
        v = draw(st.integers(1, 3))
        g = dict(draw(ref_terms_st(d, cap, max_size=3, min_degree=v)))
        if v == 1 and cap:
            i = draw(st.integers(0, d - 1))
            g[tuple(int(j == i) for j in range(d))] = draw(
                mixed_rational_st.filter(bool))
        args.append(S(d, cap, g))
    return S(nv, cap, a), args


@st.composite
def compose_list_case_st(draw, caps, **shape):
    """(series, args): 2-5 series of one num_vars and cap and one argument
    list, drawn as compose_case_st draws (f, args).

    After f come series that share some of its monomials, fresh draws
    (often disjoint from it), constants with or without other terms, and
    zero series."""
    f, args = draw(compose_case_st(caps, **shape))
    nv, cap = f.num_vars, f.cap
    own = sorted(e for e, _ in f.terms())
    series = [f]
    for kind in draw(st.lists(st.sampled_from(
            ("overlap", "fresh", "constant", "zero")),
            min_size=1, max_size=4)):
        terms = {}
        if kind == "overlap" and own:
            for e in draw(st.lists(st.sampled_from(own), min_size=1)):
                terms[e] = draw(mixed_rational_st)
        if kind in ("overlap", "fresh", "constant"):
            terms.update(draw(ref_terms_st(nv, cap, max_size=3)))
        if kind == "constant":
            terms[(0,) * nv] = draw(mixed_rational_st.filter(bool))
        series.append(S(nv, cap, terms))
    return series, args


class TestComposeBudget:
    """compose forms each Horner prefix, or each product of its table,
    only through the degree it is read; the answer must be the expansion
    formed at the full cap."""

    @ORACLE
    @given(compose_case_st(caps=range(11)))
    def test_equals_full_cap_expansion(self, case):
        f, args = case
        assert f.compose(args) == expanded_compose(f, args)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(compose_case_st(caps=(256, 300), max_vars=2, max_subs=2,
                           max_terms=3))
    def test_equals_full_cap_expansion_wide(self, case):
        f, args = case
        assert f.compose(args) == expanded_compose(f, args)

    @ORACLE
    @given(compose_list_case_st(caps=range(11)))
    def test_list_equals_full_cap_expansion(self, case):
        series, args = case
        assert compose(series, args) == [expanded_compose(f, args)
                                         for f in series]

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(compose_list_case_st(caps=(256, 300), max_vars=2, max_subs=2,
                                max_terms=3))
    def test_list_equals_full_cap_expansion_wide(self, case):
        series, args = case
        assert compose(series, args) == [expanded_compose(f, args)
                                         for f in series]

    def test_list_forms_each_product_once(self, monkeypatch):
        # the table: u^alpha = u^(alpha - e_k) u_k, k the last variable of
        # alpha, read at the cap for a monomial some series holds and one
        # less per step up to a product built from it
        cap = 7
        series = [S(3, cap, {(2, 1, 0): 1, (0, 0, 3): Q(1, 2),
                             (1, 2, 2): 3}),
                  S(3, cap, {(2, 1, 0): -2, (1, 1, 1): 1, (2, 2, 0): 1}),
                  S(3, cap, {(0, 0, 0): 5, (1, 0, 0): 1}),
                  TruncatedSeries.zero(3, cap)]
        args = [S(2, cap, {(1, 0): 1, (1, 1): 2}), S(2, cap, {(0, 1): 3}),
                S(2, cap, {(1, 0): 1, (0, 2): Q(1, 3)})]
        need = {}
        for f in series:
            for alpha, _ in f.terms():
                c = cap
                while sum(alpha) > 1:
                    need[alpha] = max(need.get(alpha, 0), c)
                    k = max(i for i, e in enumerate(alpha) if e)
                    alpha = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                    c -= 1
        caps = []
        dot = jets._dot

        def counted(pairs, num_vars, c):
            caps.append(c)
            return dot(pairs, num_vars, c)
        monkeypatch.setattr(jets, "_dot", counted)
        got = compose(series, args)
        assert sorted(caps) == sorted([*need.values(), *[cap] * len(series)])
        assert len(need) == 10
        monkeypatch.setattr(jets, "_dot", dot)
        assert got == [expanded_compose(f, args) for f in series]


class TestPackedEdges:
    def test_halves_sum_to_an_integer_series(self):
        half = S(1, 3, {(1,): Q(1, 2)})
        total = half + half
        assert total == X(0, 1, 3)
        assert total._den == 1

    def test_truncating_the_only_fraction_leaves_an_integer_series(self):
        s = S(2, 4, {(1, 0): 2, (0, 1): -3, (2, 1): Q(1, 3)})
        assert s.truncate(2) == S(2, 2, {(1, 0): 2, (0, 1): -3})
        assert s.truncate(2)._den == 1

    @pytest.mark.parametrize("cap", [256, 300, 512])
    def test_caps_from_256_repack(self, cap):
        # from cap 256 on the field width grows, so truncation and
        # differentiation across 256 (or any power of two) repack the keys
        a = {(cap, 0): Q(1, 3), (0, cap): 2, (cap // 2, cap // 2 - 1): Q(5, 2),
             (255, 0): 7, (1, 0): -1, (0, 0): Q(4, 9)}
        s = S(2, cap, a)
        for k in (cap - 1, 255, 10, 0):
            assert_matches(s.truncate(k), ref_truncate(a, k), 2, k)
        for i in (0, 1):
            assert_matches(s.partial(i), ref_partial(a, i), 2, cap - 1)
        b = {(cap - 200, 0): 3, (cap - 199, 0): Q(1, 2), (0, 1): 1}
        sb = S(2, cap, b)
        assert_matches(s * sb, ref_mul(a, b, cap), 2, cap)
        assert_matches(s + sb, ref_add(a, b), 2, cap)
        args = [{(1, 0): 1}, {(0, 1): 1, (1, 1): Q(1, 2)}]
        assert_matches(s.compose([S(2, cap, g) for g in args]),
                       ref_compose(a, args, 2, cap), 2, cap)
        unit = {(0, 0): 2, (100, 0): Q(1, 3), (0, 129): -1}
        assert_matches(S(2, cap, unit).inverse(), ref_inverse(unit, 2, cap),
                       2, cap)


def test_floats_are_refused_at_every_boundary():
    # one refusal (rational.rat) for every entry point that takes scalars
    f = S(2, 4, {(1, 0): 1})
    j = ACStructure.standard(2, 4)
    m = Hypersurface(2, S(4, 4, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1}))
    refused = [
        lambda: S(2, 4, {(1, 0): 0.5}),
        lambda: TruncatedSeries.constant(0.5, 2, 4),
        lambda: f.scale(0.5),
        lambda: f.shift((0.5, 0)),
        lambda: f.evaluate((0.5, 0)),
        lambda: propagate_cr_jet([(0.5, 0, 0, 0)], j, 2),
        lambda: higher_levi(m, j, [(0.5, 0, 0, 0)], 0, 0),
        lambda: holomorphic_reparam_series([0.5], 3),
    ]
    for call in refused:
        with pytest.raises(TypeError, match="floats are not exact"):
            call()
