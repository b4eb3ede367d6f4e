"""Truncated series arithmetic: pinned examples and algebraic laws.

All assertions are exact equalities; there is no tolerance anywhere.
"""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitype import Q, TruncatedSeries
from levitype.jets import graded_key

X = TruncatedSeries.variable


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

    def test_compose_nonzero_constant_rejected(self):
        f = S(1, 3, {(1,): 1})
        g = TruncatedSeries.constant(1, 2, 3)
        with pytest.raises(ValueError):
            f.compose([g])


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
