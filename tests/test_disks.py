"""Disk-jet transport, traces along disks, and holomorphic reparametrization."""

import gc
import sys
import threading
import weakref
from copy import deepcopy
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from levitype import (
    ACStructure,
    CapError,
    ContactOrder,
    DiskJet,
    GeometryError,
    Hypersurface,
    Q,
    TruncatedSeries,
    compose_phi_u,
    contact_order,
    higher_levi,
    perturbed_structure,
    propagate_cr_jet,
    reparametrize_disk_jet,
    type_search,
)
import levitype.disks as disks
import levitype.engine as engine
from levitype.disks import (_Transport, _aligned, _convolve, _stratum,
                            holomorphic_reparam_series, is_cr_jet)
from levitype.geometry import apply_jstd
from levitype.rational import ZERO

from conftest import (
    fresh_disk,
    make_rng,
    nonlinear_structure,
    random_positive_unit,
    random_phi,
    random_structure,
    random_vector,
)
from oracle_cr import cr_disk_oracle, jet_matches_oracle

CAP = 8
JSTD = ACStructure.standard(2, CAP)


def surface(n, cap, terms):
    nv = 2 * n
    return Hypersurface(n, TruncatedSeries(nv, cap, {k: Q(v) for k, v in terms.items()}))


# graph surfaces over the z1 plane: 2*x2 + (quadratic or quartic part)
SPHERE = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
QUARTIC = surface(2, CAP, {(0, 0, 1, 0): 2, (4, 0, 0, 0): 1, (2, 2, 0, 0): 2,
                           (0, 4, 0, 0): 1})
HARMONIC = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): -1})


def straight_disk(cap=CAP):
    """u(z) = (z, 0) in complex notation."""
    x = TruncatedSeries.variable(0, 2, cap)
    y = TruncatedSeries.variable(1, 2, cap)
    zero = TruncatedSeries.zero(2, cap)
    return DiskJet(2, [x, y, zero, zero])


def bent_disk(cap=CAP):
    """u(z) = (z, -z^2/2), holomorphic, so transported for the standard J."""
    x = TruncatedSeries.variable(0, 2, cap)
    y = TruncatedSeries.variable(1, 2, cap)
    re2 = TruncatedSeries(2, cap, {(2, 0): Q(-1, 2), (0, 2): Q(1, 2)})
    im2 = TruncatedSeries(2, cap, {(1, 1): Q(-1)})
    return DiskJet(2, [x, y, re2, im2])


def jstd_power(vec, q):
    for _ in range(q):
        vec = apply_jstd(vec)
    return tuple(vec)


class TestDiskJet:
    def test_component_arity_checked(self):
        x = TruncatedSeries.variable(0, 2, 4)
        with pytest.raises(ValueError):
            DiskJet(2, [x, x, x])

    def test_centering_required(self):
        x = TruncatedSeries.variable(0, 2, 4)
        one = TruncatedSeries.constant(Q(1), 2, 4)
        with pytest.raises(GeometryError):
            DiskJet(1, [x, one])

    def test_shared_cap_required(self):
        with pytest.raises(ValueError):
            DiskJet(1, [TruncatedSeries.variable(0, 2, 4),
                        TruncatedSeries.variable(1, 2, 5)])

    def test_derivative_is_factorial_times_coefficient(self):
        u = DiskJet(1, [TruncatedSeries(2, 4, {(2, 1): Q(5)}),
                        TruncatedSeries.zero(2, 4)])
        assert u.coefficient(2, 1) == (Q(5), 0)
        assert u.derivative(2, 1) == (Q(10), 0)

    def test_truncate_same_cap_is_identity(self):
        u = straight_disk()
        assert u.truncate(u.cap) is u


class TestStandardTransport:
    def test_low_order_derivatives(self):
        rng = make_rng("disks-low")
        v = random_vector(rng, 4)
        w = random_vector(rng, 4)
        u = propagate_cr_jet([v, w], JSTD)
        assert u.derivative(1, 0) == tuple(v)
        assert u.derivative(0, 1) == tuple(apply_jstd(v))
        assert u.derivative(2, 0) == tuple(w)
        assert u.derivative(1, 1) == tuple(apply_jstd(w))
        assert u.derivative(0, 2) == tuple(-c for c in w)

    def test_constant_structure_power_law(self):
        # with J frozen at J_std each y-derivative is one J_std application
        rng = make_rng("disks-pow")
        derivs = [random_vector(rng, 4) for _ in range(3)]
        u = propagate_cr_jet(derivs, JSTD, 4)
        padded = derivs + [(Q(0),) * 4]
        for p in range(5):
            for q in range(5 - p):
                if p + q == 0:
                    continue
                expect = jstd_power(padded[p + q - 1], q)
                assert u.derivative(p, q) == expect

    def test_transport_equation_holds(self):
        rng = make_rng("disks-eq")
        derivs = [random_vector(rng, 4) for _ in range(4)]
        u = propagate_cr_jet(derivs, JSTD, 5)
        assert is_cr_jet(u, JSTD)

    def test_tampered_coefficient_detected(self):
        rng = make_rng("disks-tamper")
        derivs = [random_vector(rng, 4) for _ in range(3)]
        u = propagate_cr_jet(derivs, JSTD, 4)
        comps = list(u.components)
        comps[2] = comps[2] + TruncatedSeries(2, u.cap, {(1, 1): Q(1)})
        assert not is_cr_jet(DiskJet(2, comps), JSTD)

    def test_zero_padding_matches_order_argument(self):
        rng = make_rng("disks-pad")
        v = random_vector(rng, 4)
        zero = (Q(0),) * 4
        assert propagate_cr_jet([v], JSTD, 5) == \
            propagate_cr_jet([v, zero, zero, zero, zero], JSTD)

    def test_truncation_coherence(self):
        rng = make_rng("disks-trunc")
        derivs = [random_vector(rng, 4) for _ in range(3)]
        long = propagate_cr_jet(derivs, JSTD, 6)
        assert long.truncate(3) == propagate_cr_jet(derivs, JSTD, 3)

    def test_bent_disk_is_the_transported_jet(self):
        u = propagate_cr_jet([(1, 0, 0, 0), (0, 0, -1, 0)], JSTD, CAP)
        assert u == bent_disk()


class TestPerturbedTransport:
    def test_matches_undetermined_coefficients_oracle(self):
        rng = make_rng("disks-oracle")
        cases = []
        for k in range(4):
            n = rng.choice((2, 3))
            j = random_structure(rng, n, 6)
            derivs = [random_vector(rng, 2 * n, 2) for _ in range(3)]
            cases.append((j, derivs, 4 if k < 2 else 5))
        # n = 4 at order 6
        j = random_structure(rng, 4, 6)
        cases.append((j, [random_vector(rng, 8, 2) for _ in range(3)], 6))
        # zero entries and a zero order: only nonzero terms are stored
        sparse = [tuple(v if rng.random() < 0.5 else 0
                        for v in random_vector(rng, 4, 2)) for _ in range(4)]
        sparse[1] = (0,) * 4
        cases.append((random_structure(rng, 2, 6), sparse, 6))
        # an order below len(derivs) cuts them, one above pads with zero
        j = random_structure(rng, 3, 6)
        cases.append((j, [random_vector(rng, 6, 2) for _ in range(5)], 3))
        j = random_structure(rng, 2, 6)
        cases.append((j, [random_vector(rng, 4, 2) for _ in range(2)], 6))
        j = random_structure(rng, 3, 6)
        cases.append((j, [random_vector(rng, 6, 2) for _ in range(2)], 1))
        # nonlinear J, whose products u^alpha share parents: j.cap above the
        # order, with an entry of degree above order - 1; then j.cap equal
        # to order - 1
        for n, cap, order in ((2, 6, 4), (2, 4, 5), (3, 5, 4)):
            j = nonlinear_structure(rng, n, cap)
            degrees = [sum(x) for row in j.entries for e in row
                       for x, _ in e.terms()]
            assert len([d for d in degrees if 2 <= d <= 4]) >= 8
            assert max(degrees) == cap
            derivs = [random_vector(rng, 2 * n, 2) for _ in range(3)]
            cases.append((j, derivs, order))
        for j, derivs, order in cases:
            u = propagate_cr_jet(derivs, j, order)
            assert u.cap == order
            ok, info = jet_matches_oracle(u, cr_disk_oracle(derivs, j, order),
                                          order)
            assert ok, info

    def test_transport_equation_holds(self):
        rng = make_rng("disks-eq-pert")
        j = random_structure(rng, 2, 6)
        derivs = [random_vector(rng, 4, 2) for _ in range(2)]
        u = propagate_cr_jet(derivs, j, 5)
        assert is_cr_jet(u, j)

    def test_components_are_canonical(self):
        # equal series have equal _terms and _den, so a component built
        # unreduced would compare unequal to the same series built afresh
        rng = make_rng("disks-canonical")
        for n in (1, 2, 3, 4):
            cap = 6 if n <= 2 else 4
            for j in (ACStructure.standard(n, cap),
                      random_structure(rng, n, cap),
                      nonlinear_structure(rng, n, cap)):
                for order in range(cap + 2):
                    if not j.is_standard and j.cap < order - 1:
                        continue
                    count = rng.choice((0, 1, order // 2, order, order + 2))
                    derivs = [tuple(c if rng.random() < 0.7 else 0
                                    for c in random_vector(rng, 2 * n))
                              for _ in range(count)]
                    u = propagate_cr_jet(derivs, j, order)
                    assert u.cap == order
                    for c in u.components:
                        assert c == TruncatedSeries(2, order, dict(c.terms()))

    def test_copied_state_packs_to_the_transported_disk(self):
        # a copy extended with the rest of the derivatives is the disk
        # transported from scratch, term for term, and the state copied
        # from goes on unchanged
        rng = make_rng("disks-copy")
        for n in (1, 2, 3):
            cap = 6 if n <= 2 else 5
            for j in (ACStructure.standard(n, cap),
                      random_structure(rng, n, cap),
                      nonlinear_structure(rng, n, cap)):
                m = random_phi(rng, n, cap)
                derivs = [tuple(Q(c) for c in random_vector(rng, 2 * n, 2))
                          for _ in range(cap)]
                other = [tuple(Q(c) for c in random_vector(rng, 2 * n, 2))
                         for _ in range(cap)]
                for split in range(cap + 1):
                    base = _Transport(j, cap, m)
                    for vec in derivs[:split]:
                        base.extend(vec)
                    if split >= 2:
                        base.read(split)  # fills some product strata
                    fork = base.copy()
                    for vec in other[split:]:
                        fork.extend(vec)
                    for vec in derivs[split:]:
                        base.extend(vec)
                    for state, vecs in ((fork, derivs[:split] + other[split:]),
                                        (base, derivs)):
                        u = propagate_cr_jet(vecs, j, cap)
                        disk = state.disk()
                        assert disk == u
                        for c, d in zip(disk.components, u.components):
                            assert (c._terms, c._den) == (d._terms, d._den)
                        assert state.read(cap) == [
                            compose_phi_u(m, u).a(cap - q, q)
                            for q in range(cap + 1)]

    def test_wrong_arity_rejected(self):
        j = ACStructure.standard(2, 4)
        for vec in ((1, 0, 0), (1, 0, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match="wrong arity"):
                propagate_cr_jet([(1, 0, 0, 0), vec], j, 3)
            state = _Transport(j, 3)
            with pytest.raises(ValueError, match="wrong arity"):
                state.extend(vec)
            assert state.order == 0

    def test_structure_cap_guard(self):
        rng = make_rng("disks-capguard")
        j = random_structure(rng, 2, 2)
        v = random_vector(rng, 4)
        with pytest.raises(CapError):
            propagate_cr_jet([v], j, 5)


def random_strata(rng, length, dens):
    """length strata: None, or k + 1 numerators over a denominator, reduced."""
    out = []
    for k in range(length):
        if rng.random() < 0.25:
            out.append(None)
            continue
        nums = [rng.randint(-3, 3) for _ in range(k + 1)]
        nums[rng.randrange(k + 1)] = rng.choice((-2, -1, 1, 2))
        den = rng.choice(dens)
        g = gcd(den, *nums)
        out.append(([c // g for c in nums], den // g))
    return out


def as_fractions(st, d):
    return [Fraction(0)] * (d + 1) if st is None else \
        [Fraction(c, st[1]) for c in st[0]]


def fraction_stratum(pairs, d):
    """Stratum d of sum(a * b) over pairs of strata lists, in Fractions."""
    out = [Fraction(0)] * (d + 1)
    for a, b in pairs:
        for t in range(d + 1):
            if t < len(a) and d - t < len(b):
                fa, fb = as_fractions(a[t], t), as_fractions(b[d - t], d - t)
                for i, x in enumerate(fa):
                    for k, y in enumerate(fb, i):
                        out[k] += x * y
    return out


def assert_reduced(st, want):
    """st is the unique reduced (numerators, den) of want, or None if zero."""
    if not any(want):
        assert st is None
        return
    nums, den = st
    assert den > 0 and gcd(den, *nums) == 1
    assert [Fraction(c, den) for c in nums] == want


def padded_states(rng):
    """(J, m, derivs, state at order k) over n, structures and orders k,
    the states read at k + 1, one order past them."""
    for n in (1, 2, 3):
        cap = 6 if n <= 2 else 5
        for j in (ACStructure.standard(n, cap), random_structure(rng, n, cap),
                  nonlinear_structure(rng, n, cap)):
            m = random_phi(rng, n, cap)
            derivs = [tuple(Q(c) for c in random_vector(rng, 2 * n, 2))
                      for _ in range(cap)]
            for k in range(cap):
                yield j, m, derivs, _Transport(j, cap, m).extend(*derivs[:k])


def shape(state):
    """What a read one order past a state must leave as it found: the
    order and the strata of u, u_x and e(u)."""
    return (state.order, [len(st) for st in state.strata[:state.n2]],
            [len(st) for st in state.ux], [len(st) for st in state.eu])


class TestStratumKernels:
    DENS = ((1,), (1, 2, 3, 4, 6))

    def test_stratum_is_the_reduced_sum_of_products(self):
        rng = make_rng("disks-kernel-stratum")
        for dens in self.DENS:
            for _ in range(200):
                d = rng.randint(0, 7)
                pairs = [(random_strata(rng, rng.randint(0, d + 2), dens),
                          random_strata(rng, rng.randint(0, d + 2), dens))
                         for _ in range(rng.randint(0, 4))]
                assert_reduced(_stratum(pairs, d), fraction_stratum(pairs, d))

    def test_product_is_the_one_pair_stratum(self):
        # a product of two lists of strata is _convolve over their _aligned
        # pairs; lists may stop short of d, and a zero list and a
        # cancelling pair read as None
        rng = make_rng("disks-kernel-product")
        for dens in self.DENS:
            for _ in range(300):
                d = rng.randint(0, 8)
                a = random_strata(rng, rng.randint(0, d + 2), dens)
                b = random_strata(rng, rng.randint(0, d + 2), dens)
                want = _stratum([(a, b)], d)
                assert _convolve(_aligned(a, b, d), d) == want
                assert_reduced(want, fraction_stratum([(a, b)], d))
                neg = [None if st is None else ([-c for c in st[0]], st[1])
                       for st in b]
                assert _stratum([(a, b), (a, neg)], d) is None
        b = random_strata(rng, 4, (2,))
        assert _convolve(_aligned([None] * 3, b, 3), 3) is None

    def test_combine_is_the_stratum_of_constant_series(self):
        # e(u) and phi . u: each plan term pairs a constant, the degree-0
        # stratum ([c], den), with a stratum of degree d (or None); a sum
        # that cancels reads as None
        rng = make_rng("disks-kernel-constants")
        cancelled = 0
        for dens in self.DENS:
            for _ in range(300):
                d = rng.randint(0, 8)
                terms = [(([rng.choice((-3, -2, -1, 1, 2, 5))],
                           rng.choice(dens)),
                          random_strata(rng, d + 1, dens)[d])
                         for _ in range(rng.randint(0, 5))]
                if terms and rng.random() < 0.3:
                    (c, dc), st = terms[0]
                    terms.append((([-c[0]], dc), st))
                want = fraction_stratum([([c], [None] * d + [st])
                                         for c, st in terms], d)
                cancelled += not any(want)
                assert_reduced(_convolve(terms, d), want)
            st = random_strata(rng, 4, (max(dens),))[3] or ([1, 0, 0, 1], 1)
            assert _convolve([(([2], 3), st), (([-4], 6), st)], 3) is None
        assert cancelled

    def test_transport_below_the_plans_top_degree(self):
        # the plan of (J, phi) holds every term; a transport of lower cap
        # never fills the products above it, which read as None
        rng = make_rng("disks-kernel-plan")
        j = random_structure(rng, 2, 8)
        m = random_phi(rng, 2, 8, max_degree=6)
        derivs = [tuple(Q(c) for c in random_vector(rng, 4, 2))
                  for _ in range(8)]
        top = _Transport(j, 8, m).extend(*derivs)
        high = max(deg for deg, _, _ in top.table)
        assert high >= 5
        for cap in range(1, high):
            state = _Transport(j, cap, m).extend(*derivs[:cap])
            assert state.table is top.table
            u = state.disk()
            assert u == propagate_cr_jet(derivs[:cap], j, cap)
            assert u == top.disk().truncate(cap)
            assert is_cr_jet(u, j)
            assert state.read(cap) == [compose_phi_u(m, u).a(cap - q, q)
                                       for q in range(cap + 1)]

    def test_read_one_order_past_is_the_zero_extension(self):
        # read(order + 1) is the read of a copy extended by a zero
        # x-derivative, and leaves the state to go on like a fresh
        # transport; a read two orders past is refused
        rng = make_rng("disks-kernel-inplace")
        for j, m, derivs, state in padded_states(rng):
            k = state.order
            before = shape(state)
            want = state.copy().extend((ZERO,) * state.n2).read(k + 1)
            assert state.read(k + 1) == want
            assert shape(state) == before
            with pytest.raises(ValueError, match="more than one order past"):
                state.read(k + 2)
            assert shape(state) == before
            assert state.read(k + 1) == want
            fresh = _Transport(j, state.cap, m).extend(*derivs[:k + 1])
            state.extend(derivs[k])
            assert state.disk() == fresh.disk()
            assert state.read(k + 1) == fresh.read(k + 1)
            if k + 2 <= state.cap:
                assert state.read(k + 2) == fresh.read(k + 2)

    def test_read_one_order_past_extends_nothing(self, monkeypatch):
        # the read solves u's stratum without _Transport.extend, and the
        # lists of u, u_x and e(u) stay the same objects, unchanged
        rng = make_rng("disks-kernel-read-fixed")
        extend = _Transport.extend

        def refused(self, *vecs):
            raise AssertionError("read extended the state")
        for j, m, derivs, state in padded_states(rng):
            k = state.order
            want = state.copy().extend((ZERO,) * state.n2).read(k + 1)
            lists = [*state.strata[:state.n2], *state.ux, *state.eu]
            before = deepcopy(lists)
            monkeypatch.setattr(_Transport, "extend", refused)
            assert state.read(k + 1) == want
            monkeypatch.setattr(_Transport, "extend", extend)
            assert state.order == k
            now = [*state.strata[:state.n2], *state.ux, *state.eu]
            assert all(a is b for a, b in zip(now, lists))
            assert now == before

    def test_read_past_the_cap_is_refused(self):
        # a state at its cap reads no further order, under any J: at cap
        # + 1 the stratum of u would read J past the cap it was built for
        rng = make_rng("disks-kernel-read-cap")
        m = random_phi(rng, 2, 6)
        derivs = [tuple(Q(c) for c in random_vector(rng, 4, 2))
                  for _ in range(6)]
        for j in (ACStructure.standard(2, 6), random_structure(rng, 2, 6),
                  nonlinear_structure(rng, 2, 6)):
            for cap in range(6):
                state = _Transport(j, cap, m).extend(*derivs[:cap])
                before = shape(state)
                for op in (lambda: state.read(cap + 1),
                           lambda: state.extend((ZERO,) * 4)):
                    with pytest.raises(ValueError, match="stops at its cap"):
                        op()
                    assert shape(state) == before
                with pytest.raises(ValueError, match="more than one order"):
                    state.read(cap + 2)

    def test_failed_in_place_read_leaves_the_state(self, monkeypatch):
        # _convolve raising at any one of the calls a read makes (e(u) and
        # R of the order read, or phi . u) leaves the state intact
        rng = make_rng("disks-kernel-inplace-fail")
        convolve = disks._convolve
        for j, m, derivs, state in padded_states(rng):
            k = state.order
            before = shape(state)
            want = state.copy().extend((ZERO,) * state.n2).read(k + 1)
            fork = state.copy()
            calls = counting(monkeypatch, disks, "_convolve")
            fork.read(k + 1)
            for fail_at in range(1, len(calls) + 1):
                count = [0]

                def failing(pairs, d):
                    count[0] += 1
                    if count[0] == fail_at:
                        raise ArithmeticError("injected")
                    return convolve(pairs, d)

                monkeypatch.setattr(disks, "_convolve", failing)
                with pytest.raises(ArithmeticError, match="injected"):
                    state.read(k + 1)
                assert shape(state) == before
            monkeypatch.setattr(disks, "_convolve", convolve)
            assert state.read(k + 1) == want
            if k < state.cap - 1:
                fresh = _Transport(j, state.cap, m).extend(*derivs[:k + 1])
                assert state.extend(derivs[k]).read(k + 2) == \
                    fresh.read(k + 2)


def counting(monkeypatch, module, name):
    """Patch module.name to record its calls: a list of their arguments."""
    calls, call = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return call(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def count_transports(monkeypatch):
    """Patch _Transport.__init__ to count the transports built."""
    built, init = [], _Transport.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(_Transport, "__init__", counted)
    return built


class TestOneRPerOrder:
    """Each order's e(u) and R strata are formed once: a read, a probe and
    the real x-derivative of that order all read the slot that formed
    them first, and a copy shares it."""

    def test_read_then_extend_forms_each_row_of_r_once(self, monkeypatch):
        rng = make_rng("disks-one-r")
        calls = counting(monkeypatch, disks, "_stratum")
        rows_seen = 0
        for j, m, derivs, state in padded_states(rng):
            k = state.order
            rows = sum(1 for row in state.rows if row)
            rows_seen += rows
            fresh = _Transport(j, state.cap, m).extend(*derivs[:k + 1])
            calls.clear()
            state.read(k + 1)
            fork = state.copy().extend(derivs[k])
            state.extend(derivs[k])
            assert [d for _, d in calls] == [k] * rows
            for st in (state, fork):
                assert st.disk() == fresh.disk()
                assert st.read(k + 1) == fresh.read(k + 1)
        assert rows_seen

    def test_probes_of_a_level_form_no_r_of_its_order(self, monkeypatch):
        # force_normals reads order l + 1 of the state before attempt_level
        # probes it, so the 2 probes, each a copy extended by order l + 1
        # and a zero order l + 2, form only R of order l + 2, at every d
        calls = counting(monkeypatch, disks, "_stratum")
        levels = []
        attempt = engine._Stager.attempt_level

        def watched(self, state, *args):
            calls.clear()
            out = attempt(self, state, *args)
            rows = sum(1 for row in state.rows if row)
            levels.append((state.order, self.d, rows,
                           [d for _, d in calls]))
            return out
        monkeypatch.setattr(engine._Stager, "attempt_level", watched)
        for n in (2, 3, 4):
            # 2 x_n + Re(z1^2)
            terms = {(0,) * (2 * n - 2) + (1, 0): 2,
                     (2,) + (0,) * (2 * n - 1): 1,
                     (0, 2) + (0,) * (2 * n - 2): -1}
            type_search(surface(n, 10, terms), perturbed_structure(n, 10, 1),
                        6)
        assert {d for _, d, _, _ in levels} == {2, 4, 6}
        for ell, d, rows, degrees in levels:
            assert rows
            assert degrees == [ell + 1] * (2 * rows)

    def test_failed_slot_leaves_the_state_and_the_slot(self, monkeypatch):
        # _convolve (e(u) and R) or _stratum (R) raising at any one of the
        # calls that form the slot, in a read or in an extension, leaves the
        # state's shape and its slot as they were; copy() fills products
        # through _convolve too, so only the calls of _next are counted
        rng = make_rng("disks-one-r-fail")
        for name in ("_convolve", "_stratum"):
            kernel = getattr(disks, name)
            for j, m, derivs, state in padded_states(rng):
                k = state.order
                before, slot = shape(state), state.slot
                calls = counting(monkeypatch, disks, name)
                c = state.copy()
                calls.clear()
                c._next()
                formed = len(calls)
                for fail_at in range(1, formed + 1):
                    for op in (lambda: state.read(k + 1),
                               lambda: state.extend(derivs[k])):
                        count = [0]

                        def failing(*args):
                            count[0] += 1
                            if count[0] == fail_at:
                                raise ArithmeticError("injected")
                            return kernel(*args)

                        monkeypatch.setattr(disks, name, failing)
                        with pytest.raises(ArithmeticError, match="injected"):
                            op()
                        assert shape(state) == before
                        assert state.slot is slot
                monkeypatch.setattr(disks, name, kernel)
                fresh = _Transport(j, state.cap, m).extend(*derivs[:k + 1])
                state.read(k + 1)
                assert state.slot[0] == k + 1
                assert state.extend(derivs[k]).disk() == fresh.disk()


class TestNegativeOrder:
    def test_refused_before_any_transport(self, monkeypatch):
        # a negative order is refused, not read as a slice of the jet
        rng = make_rng("disks-negative-order")
        jet = [random_vector(rng, 4, 2) for _ in range(3)]
        for j in (ACStructure.standard(2, 6), random_structure(rng, 2, 6)):
            built = count_transports(monkeypatch)
            for order in (-1, -3):
                with pytest.raises(ValueError, match="order >= 0"):
                    propagate_cr_jet(jet, j, order)
            monkeypatch.undo()
            assert built == []
            assert propagate_cr_jet(jet, j, 0).cap == 0


class TestHeldDisk:
    """propagate_cr_jet starts from a copy of the one state that _read_held
    holds for J when that state transported a prefix of the padded jet and
    reaches the order; the disk is the fresh transport's, and the held
    state is left as it was."""

    def held(self, rng, standard=False, m_cap=6, length=3):
        """(m, J, jet) with J holding the state of m at jet[:length]."""
        j = ACStructure.standard(2, 6) if standard \
            else random_structure(rng, 2, 6)
        m = random_phi(rng, 2, m_cap)
        jet = [tuple(Q(c) for c in random_vector(rng, 4, 2))
               for _ in range(6)]
        disks._read_held(j, m, jet[:length])
        return m, j, jet

    def assert_disk(self, monkeypatch, j, jet, order, builds):
        """propagate_cr_jet(jet, j, order) is the fresh disk, term for
        term, and builds that many transports; J's one record of its held
        state, (plan, state, jet, stratum), is left as it was."""
        want = fresh_disk(j, jet, order)
        held = vars(j).get("_held")
        before = held and shape(held[1])
        built = count_transports(monkeypatch)
        got = propagate_cr_jet(jet, j, order)
        monkeypatch.undo()
        assert len(built) == builds
        assert got == want
        for c, d in zip(got.components, want.components):
            assert (c._terms, c._den) == (d._terms, d._den)
        assert vars(j).get("_held") is held
        assert (held and shape(held[1])) == before

    def test_prefix_equal_longer_and_diverging_jets(self, monkeypatch):
        rng = make_rng("disks-held-cases")
        for standard in (True, False):
            # a strict prefix, padded or not, and an equal jet: no transport
            for jet_len, order in ((5, 5), (4, 6), (3, 3), (3, 5)):
                m, j, jet = self.held(rng, standard)
                self.assert_disk(monkeypatch, j, jet[:jet_len], order, 0)
            # the held jet longer than the order, and one that diverges
            m, j, jet = self.held(rng, standard)
            self.assert_disk(monkeypatch, j, jet, 2, 1)
            other = list(jet)
            other[1] = tuple(c + 1 for c in jet[1])
            self.assert_disk(monkeypatch, j, other, 5, 1)
            # a held jet of zeros is a prefix of a zero-padded jet
            m, j, jet = self.held(rng, standard)
            disks._read_held(j, m, [(ZERO,) * 4])
            self.assert_disk(monkeypatch, j, [], 4, 0)

    def test_held_cap_below_the_order(self, monkeypatch):
        # a surface of cap 4 holds a state of cap 4, which cannot reach
        # order 5 of a structure of cap 6
        rng = make_rng("disks-held-cap")
        for standard in (True, False):
            m, j, jet = self.held(rng, standard, m_cap=4)
            assert vars(j)["_held"][1].cap == 4
            self.assert_disk(monkeypatch, j, jet, 5, 1)
            self.assert_disk(monkeypatch, j, jet, 4, 0)

    def test_no_plan_or_no_held_state(self, monkeypatch):
        rng = make_rng("disks-held-none")
        for standard in (True, False):
            j = ACStructure.standard(2, 6) if standard \
                else random_structure(rng, 2, 6)
            jet = [random_vector(rng, 4, 2) for _ in range(4)]
            assert "_plans" not in vars(j)
            self.assert_disk(monkeypatch, j, jet, 5, 1)
            _Transport(j, 4, random_phi(rng, 2, 6))  # a plan, no state
            self.assert_disk(monkeypatch, j, jet, 5, 1)
            assert "_held" not in vars(j)

    def test_one_state_per_structure(self):
        # a read on a second surface replaces the first one's state, which
        # nothing else holds: with the cyclic collector off it is freed at
        # once.  The two surfaces then alternate, each replacing the
        # other's state, and every value and disk is the fresh route's
        rng = make_rng("disks-held-one")
        gc.disable()
        try:
            for standard in (True, False):
                m1, j, jet = self.held(rng, standard)
                m2 = random_phi(rng, 2, 6)
                first = weakref.ref(vars(j)["_held"][1])
                disks._read_held(j, m2, jet[:3])
                assert first() is None
                assert vars(j)["_held"][0] is disks._plan(j, m2)
                for s in range(5):
                    want = fresh_disk(j, jet[:s + 1], s + 2)
                    for m in (m1, m2, m1, m2):
                        tr = compose_phi_u(m, want)
                        assert [higher_levi(m, j, jet, p, s - p)
                                for p in range(s + 1)] == \
                            [tr.levi_entry(p, s - p) for p in range(s + 1)]
                        assert propagate_cr_jet(jet[:s + 1], j, s + 2) == want
        finally:
            gc.enable()

    def test_higher_levi_after_the_disk_builds_nothing(self, monkeypatch):
        rng = make_rng("disks-held-after")
        for standard in (True, False):
            # the same prefix reads the held stratum, a longer one extends
            # the held state
            m, j, jet = self.held(rng, standard)
            want = [[compose_phi_u(m, fresh_disk(j, jet[:s + 1], s + 2))
                     .levi_entry(p, s - p) for p in range(s + 1)]
                    for s in (2, 3)]
            propagate_cr_jet(jet, j, 6)
            built = count_transports(monkeypatch)
            assert [[higher_levi(m, j, jet[:s + 1], p, s - p)
                     for p in range(s + 1)] for s in (2, 3)] == want
            monkeypatch.undo()
            assert built == []

    def test_two_threads_alternating_levi_forms_and_disks(self):
        # two threads under one J, on one surface or on one each, switching
        # as often as the interpreter allows, each alternating the L^(p, q)
        # of a prefix of its jet with the whole jet's disk.  The jets share
        # a prefix and are given as strings, so every call compares new
        # rationals
        rng = make_rng("disks-held-threads")
        for standard, shared in iproduct((True, False), (True, False)):
            j = ACStructure.standard(2, 6) if standard \
                else random_structure(rng, 2, 6)
            m = random_phi(rng, 2, 6)
            ms = [m, m if shared else random_phi(rng, 2, 6)]
            common = [random_vector(rng, 4, 2) for _ in range(2)]
            jets = [[tuple(map(str, v)) for v in
                     common + [random_vector(rng, 4, 2) for _ in range(3)]]
                    for _ in range(2)]

            def sweep(k):
                out, jet = [], jets[k]
                for s in range(4):
                    out.append([higher_levi(ms[k], j, jet[:s + 1], p, s - p)
                                for p in range(s + 1)])
                    out.append(propagate_cr_jet(jet, j, 5))
                return out

            want = [sweep(k) for k in range(len(jets))]
            for jet, w in zip(jets, want):
                assert w[1::2] == [fresh_disk(j, jet, 5)] * 4
            got = [[] for _ in jets]

            def worker(k):
                for _ in range(10):
                    got[k].append(sweep(k))

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(k,))
                           for k in range(len(jets))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(old)
            assert got == [[w] * 10 for w in want]


class TestTraceAndContact:
    def test_straight_disk_in_sphere(self):
        trace = compose_phi_u(SPHERE, straight_disk())
        assert trace.series == TruncatedSeries(2, CAP, {(2, 0): Q(1),
                                                        (0, 2): Q(1)})
        assert contact_order(SPHERE, straight_disk()) == ContactOrder(2, True)

    def test_straight_disk_in_quartic(self):
        trace = compose_phi_u(QUARTIC, straight_disk())
        assert trace.series == TruncatedSeries(2, CAP, {(4, 0): Q(1),
                                                        (2, 2): Q(2),
                                                        (0, 4): Q(1)})
        assert contact_order(QUARTIC, straight_disk()) == ContactOrder(4, True)

    def test_bent_disk_lies_in_harmonic_surface(self):
        # the trace vanishes identically: only a lower bound is reported
        trace = compose_phi_u(HARMONIC, bent_disk())
        assert trace.series.is_zero()
        assert trace.vanishing_order() == (CAP + 1, False)
        assert contact_order(HARMONIC, bent_disk()) == \
            ContactOrder(CAP + 1, False)

    def test_trace_derivative_convention(self):
        trace = compose_phi_u(SPHERE, straight_disk())
        assert trace.a(2, 0) == 2
        assert trace.a(0, 2) == 2
        assert trace.a(1, 1) == 0
        assert trace.levi_entry(0, 0) == 4

    def test_trace_cap_is_the_smaller_cap(self):
        small = surface(2, 5, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1,
                               (0, 2, 0, 0): 1})
        assert compose_phi_u(small, straight_disk()).cap == 5
        assert compose_phi_u(SPHERE, straight_disk(3)).cap == 3


class TestReparametrization:
    def test_identity(self):
        u = bent_disk()
        assert reparametrize_disk_jet(u, [1]) == u

    def test_needs_nonzero_derivative_at_zero(self):
        with pytest.raises(GeometryError):
            reparametrize_disk_jet(straight_disk(), [0, 1])
        with pytest.raises(GeometryError):
            reparametrize_disk_jet(straight_disk(), [])

    def test_linear_rescaling(self):
        u = reparametrize_disk_jet(straight_disk(), [2])
        assert u.components[0].coefficient((1, 0)) == 2
        assert u.components[1].coefficient((0, 1)) == 2
        assert contact_order(SPHERE, u) == ContactOrder(2, True)

    def test_rotation_by_i(self):
        u = reparametrize_disk_jet(straight_disk(), [(0, 1)])
        assert u.components[0].coefficient((0, 1)) == -1
        assert u.components[1].coefficient((1, 0)) == 1
        assert contact_order(SPHERE, u) == ContactOrder(2, True)

    def test_quadratic_change_keeps_quartic_contact(self):
        v = reparametrize_disk_jet(straight_disk(), [1, 1])
        assert contact_order(QUARTIC, v) == ContactOrder(4, True)
        # composing the trace with theta gives the trace of the composition
        re_s, im_s = holomorphic_reparam_series([1, 1], CAP)
        direct = compose_phi_u(QUARTIC, v).series
        chained = compose_phi_u(QUARTIC, straight_disk()).series.compose(
            [re_s, im_s])
        assert direct == chained

    def test_contact_order_invariance_randomized(self):
        rng = make_rng("disks-reparam")
        for _ in range(6):
            m = random_phi(rng, 2, 6)
            derivs = [random_vector(rng, 4, 2) for _ in range(2)]
            u = propagate_cr_jet(derivs, ACStructure.standard(2, 6), 4)
            coeffs = [rng.choice(((1, 0), (2, 0), (-1, 0), (0, 1))),
                      random_vector(rng, 2, 2)]
            v = reparametrize_disk_jet(u, coeffs)
            assert contact_order(m, u) == contact_order(m, v)

    def test_perturbed_structure_is_preserved(self):
        rng = make_rng("disks-reparam-j")
        j = random_structure(rng, 2, 6)
        derivs = [random_vector(rng, 4, 2) for _ in range(2)]
        u = propagate_cr_jet(derivs, j, 5)
        v = reparametrize_disk_jet(u, [1, (0, 1)], j)
        assert is_cr_jet(v, j)

    def test_structure_cap_guard_for_standard_structure(self):
        u = propagate_cr_jet([(1, 0, 0, 0)], ACStructure.standard(2, 8),
                             order=6)
        with pytest.raises(CapError):
            reparametrize_disk_jet(u, [1, 0, 1], ACStructure.standard(2, 3))

    def test_cap_zero_series_are_zero(self):
        re_s, im_s = holomorphic_reparam_series([1, (2, 3)], 0)
        assert re_s.is_zero() and im_s.is_zero() and re_s.cap == 0

    def test_group_law(self):
        u = bent_disk()
        twice = reparametrize_disk_jet(reparametrize_disk_jet(u, [2]), [1, 1])
        assert twice == reparametrize_disk_jet(u, [2, 2])


class TestDefiningFunctionScaling:
    def test_unit_multiple_keeps_contact_order(self):
        # f*phi with f(0) > 0 cuts out the same surface near 0
        rng = make_rng("disks-unit")
        for _ in range(5):
            m = random_phi(rng, 2, 6)
            f = random_positive_unit(rng, 4, 6)
            scaled = Hypersurface(2, m.phi * f)
            derivs = [random_vector(rng, 4, 2) for _ in range(2)]
            u = propagate_cr_jet(derivs, ACStructure.standard(2, 6), 4)
            assert contact_order(m, u) == contact_order(scaled, u)
