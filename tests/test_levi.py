"""Levi forms: route agreement, higher forms, printed formulas, classification."""

import gc
import re
import sys
import threading
import weakref
from itertools import product as iproduct

import pytest
import sympy as sp

import levitype.disks as disks
import levitype.geometry as geometry
import levitype.jets as jets
import levitype.levi as levi
from levitype import (
    ACStructure,
    CapError,
    ClosedFormMismatch,
    GeometryError,
    Hypersurface,
    Q,
    TruncatedSeries,
    VectorField,
    classify_point,
    complex_tangent_basis,
    compose_phi_u,
    hermitian_levi_matrix,
    higher_levi,
    higher_levi_closed_form,
    is_complex_tangent,
    levi_form_bracket,
    levi_form_hessian,
    levi_polar,
    project_to_complex_tangent,
    propagate_cr_jet,
)
from levitype.geometry import apply_jstd
from levitype.rational import QC

from conftest import (
    fresh_disk,
    make_rng,
    nonlinear_structure,
    random_phi,
    random_positive_unit,
    random_structure,
    random_tangent_field,
    random_vector,
    scale_field,
    truncated_structure,
)

CAP = 8
JSTD = ACStructure.standard(2, CAP)
E1 = (1, 0, 0, 0)


def surface(n, cap, terms):
    nv = 2 * n
    return Hypersurface(n, TruncatedSeries(nv, cap, {k: Q(v) for k, v in terms.items()}))


SPHERE = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
FLAT = surface(2, CAP, {(0, 0, 1, 0): 2})
SADDLE = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): -1})
QUARTIC = surface(2, CAP, {(0, 0, 1, 0): 2, (4, 0, 0, 0): 1, (2, 2, 0, 0): 2,
                           (0, 4, 0, 0): 1})


def sphere_tangent():
    """X = d/dx1 - x1 d/dx2 + y1 d/dy2, complex tangent to SPHERE, X(0)=e_x1."""
    zero = TruncatedSeries.zero(4, CAP)
    one = TruncatedSeries.constant(Q(1), 4, CAP)
    mx1 = TruncatedSeries(4, CAP, {(1, 0, 0, 0): Q(-1)})
    y1 = TruncatedSeries(4, CAP, {(0, 1, 0, 0): Q(1)})
    return VectorField(2, [one, zero, mx1, y1])


def quadratic_surface(rng, n, cap):
    """A random quadratic part under random terms of degree <= 4."""
    return Hypersurface(n, random_phi(rng, n, cap, max_degree=2).phi
                        + random_phi(rng, n, cap).phi)


def coordinate_scaled_tangent(rng, m, j, cap):
    """Tangent field vanishing at 0: coordinate series times a tangent field."""
    w = random_tangent_field(rng, m, j, cap, nonzero_at_0=False)
    return scale_field(w, TruncatedSeries.variable(0, 2 * m.n, cap))


def rational_form(m, j):
    """The matrices Q and K of levi._levi_form, as rationals."""
    _, q, k, den = levi._levi_form(m, j)
    return [[Q(x, den) for x in row] for row in q + k]


class TestTwoRoutes:
    def test_sphere_pinned_value(self):
        x = sphere_tangent()
        assert is_complex_tangent(SPHERE, JSTD, x)
        br = levi_form_bracket(SPHERE, JSTD, x)
        he = levi_form_hessian(SPHERE, JSTD, x)
        assert br.value == 4 and he.value == 4
        assert br.route == "bracket" and he.route == "hessian"
        assert he.correction_term == 0

    def test_flat_is_flat(self):
        zero = TruncatedSeries.zero(4, CAP)
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        x = VectorField(2, [one, zero, zero, zero])
        assert levi_form_bracket(FLAT, JSTD, x).value == 0
        assert levi_form_hessian(FLAT, JSTD, x).value == 0

    def test_saddle_vanishes_along_x1(self):
        zero = TruncatedSeries.zero(4, CAP)
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        mx1 = TruncatedSeries(4, CAP, {(1, 0, 0, 0): Q(-1)})
        my1 = TruncatedSeries(4, CAP, {(0, 1, 0, 0): Q(-1)})
        x = VectorField(2, [one, zero, mx1, my1])
        assert is_complex_tangent(SADDLE, JSTD, x)
        assert levi_form_bracket(SADDLE, JSTD, x).value == 0

    def test_routes_agree_randomized(self):
        rng = make_rng("levi-routes")
        corrections = 0
        for _ in range(12):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            br = levi_form_bracket(m, j, x)
            he = levi_form_hessian(m, j, x)
            assert br.value == he.value
            if he.correction_term != 0:
                corrections += 1
        assert corrections > 0

    def test_rejects_non_tangent_fields(self):
        zero = TruncatedSeries.zero(4, CAP)
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        normalish = VectorField(2, [zero, zero, one, zero])
        with pytest.raises(GeometryError):
            levi_form_bracket(SPHERE, JSTD, normalish)
        with pytest.raises(GeometryError):
            levi_form_hessian(SPHERE, JSTD, normalish)


def multilinear_reference(f, vectors):
    """D^k f(0)(v_1, ..., v_k) as the coefficient of t_1 ... t_k in
    f(t_1 v_1 + ... + t_k v_k), by composition."""
    k = len(vectors)
    ts = TruncatedSeries.variables(k, k)
    zero = TruncatedSeries.zero(k, k)
    line = [sum((t.scale(Q(v[c])) for t, v in zip(ts, vectors)), zero)
            for c in range(f.num_vars)]
    return f.truncate(k).compose(line).coefficient((1,) * k)


class TestDerivativeAtZero:
    def test_reads_the_degree_k_part_of_phi_and_of_j(self):
        # terms above degree k change nothing; D^k f(0) is the mixed
        # coefficient of f along the line the vectors span
        rng = make_rng("levi-derivative-at-zero")
        for n in (1, 2, 3):
            m = random_phi(rng, n, 6, max_degree=5)
            j = nonlinear_structure(rng, n, 5)
            entries = [e for row in j.entries for e in row
                       if not e.truncate(1).is_zero()]
            assert entries
            for f in (m.phi, rng.choice(entries)):
                high = TruncatedSeries(2 * n, f.cap, {
                    exps: Q(1, 3) for exps in [(f.cap,) + (0,) * (2 * n - 1)]})
                for k in range(1, f.cap):
                    vecs = [random_vector(rng, 2 * n) for _ in range(k)]
                    want = levi._derivative_at_zero(f, vecs)
                    assert want == multilinear_reference(f, vecs)
                    assert levi._derivative_at_zero(f + high, vecs) == want
                    assert levi._derivative_at_zero(f.truncate(k), vecs) \
                        == want

    def test_order_past_the_cap_is_refused(self):
        rng = make_rng("levi-derivative-at-zero-cap")
        m = random_phi(rng, 2, 3, max_degree=3)
        j = random_structure(rng, 2, 2)
        for f in (m.phi, j.entries[0][1]):
            vecs = [random_vector(rng, 4) for _ in range(f.cap + 1)]
            assert levi._derivative_at_zero(f, vecs[:-1]) == \
                multilinear_reference(f, vecs[:-1])
            with pytest.raises(CapError, match="exceeds"):
                levi._derivative_at_zero(f, vecs)


class TestTensorialityAndGauge:
    def test_value_at_zero_is_all_that_matters(self):
        rng = make_rng("levi-tensor")
        for _ in range(8):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            w = coordinate_scaled_tangent(rng, m, j, 5)
            assert levi_form_bracket(m, j, x + w).value == \
                levi_form_bracket(m, j, x).value

    def test_gauge_scaling_law(self):
        # L((alpha + beta J)X)(0) = (alpha(0)^2 + beta(0)^2) L(X)(0)
        rng = make_rng("levi-gauge")
        for _ in range(8):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            alpha = random_positive_unit(rng, 2 * n, 5)
            beta = random_positive_unit(rng, 2 * n, 5) - \
                TruncatedSeries.constant(Q(rng.randint(0, 4)), 2 * n, 5)
            y = scale_field(x, alpha) + scale_field(j.apply(x), beta)
            a0 = alpha.constant_term()
            b0 = beta.constant_term()
            lx = levi_form_bracket(m, j, x).value
            assert levi_form_bracket(m, j, y).value == (a0 * a0 + b0 * b0) * lx

    def test_defining_function_covariance(self):
        rng = make_rng("levi-unit")
        for _ in range(6):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            f = random_positive_unit(rng, 2 * n, 6)
            scaled = Hypersurface(n, m.phi * f)
            xs = project_to_complex_tangent(scaled, j, x)
            assert xs.at_zero() == x.at_zero()
            assert levi_form_bracket(scaled, j, xs).value == \
                f.constant_term() * levi_form_bracket(m, j, x).value


def integrable_disk_polys(derivs, order):
    """Sympy disk components for the standard structure: c_pq = J^q u_(p+q)/p!q!."""
    x, y = sp.symbols("x y")
    n2 = len(derivs[0])
    comps = [sp.Integer(0)] * n2
    for total in range(1, order + 1):
        vec = [sp.Rational(str(v)) for v in derivs[total - 1]] \
            if total <= len(derivs) else [sp.Integer(0)] * n2
        for q in range(total + 1):
            p = total - q
            scale = sp.Rational(1, sp.factorial(p) * sp.factorial(q))
            for i in range(n2):
                comps[i] += scale * vec[i] * x ** p * y ** q
            vec = apply_jstd(vec)
    return comps, x, y


def sympy_lpq(m, derivs, p, q):
    """Independent expansion of the disk Laplacian of phi . u at 0."""
    comps, x, y = integrable_disk_polys(derivs, p + q + 2)
    tr = sp.Integer(0)
    for exps, c in m.phi.terms():
        term = sp.Rational(str(c))
        for i, e in enumerate(exps):
            if e:
                term *= comps[i] ** e
        tr += term
    lap = sp.expand(sp.diff(tr, x, 2) + sp.diff(tr, y, 2))
    out = sp.diff(lap, x, p)
    out = sp.diff(out, y, q)
    return out.subs({x: 0, y: 0})


class TestHigherLevi:
    def test_sphere_first_form(self):
        assert higher_levi(SPHERE, JSTD, [E1], 0, 0) == 4

    def test_flat_hyperplane_all_zero(self):
        rng = make_rng("levi-flatpq")
        for p in range(3):
            for q in range(3 - p):
                jets = [random_vector(rng, 4) for _ in range(p + q + 1)]
                assert higher_levi(FLAT, JSTD, jets, p, q) == 0

    def test_matches_direct_expansion(self):
        rng = make_rng("levi-sympy")
        for _ in range(6):
            m = random_phi(rng, 2, 6, max_degree=3)
            v, w = random_vector(rng, 4, 2), random_vector(rng, 4, 2)
            mine = higher_levi(m, JSTD, [v, w], 1, 0)
            assert sp.Rational(str(mine)) == sympy_lpq(m, [v, w], 1, 0)

    def test_master_identity_with_padding(self):
        # a_(i+2,j) + a_(i,j+2) of any transported disk equals L^(i,j) of its
        # leading x-derivatives, whatever the later derivatives are
        rng = make_rng("levi-master")
        for _ in range(10):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6) if rng.random() < 0.5 \
                else ACStructure.standard(n, 6)
            i, jj = rng.choice(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
            jets = [random_vector(rng, 2 * n, 2) for _ in range(i + jj + 2)]
            u = propagate_cr_jet(jets, j, i + jj + 4)
            tr = compose_phi_u(m, u)
            assert tr.levi_entry(i, jj) == \
                higher_levi(m, j, jets[:i + jj + 1], i, jj)

    def test_plan_lives_and_dies_with_its_surface(self):
        # transports of one (J, surface) pair share a plan held by J; each
        # of 50 surfaces in turn, built after the last one is freed (so at
        # its address, often), must read its own plan, and a freed surface
        # must not be kept alive by it
        rng = make_rng("levi-plan")
        for j in (ACStructure.standard(2, 6), random_structure(rng, 2, 6)):
            dropped = []
            for _ in range(50):
                m = random_phi(rng, 2, 6)
                i, jj = rng.choice(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                                    (0, 2)))
                jets = [random_vector(rng, 4, 2) for _ in range(i + jj + 2)]
                u = propagate_cr_jet(jets, j, i + jj + 4)
                assert higher_levi(m, j, jets[:i + jj + 1], i, jj) == \
                    compose_phi_u(m, u).levi_entry(i, jj)
                dropped.append(weakref.ref(m))
                del m
            gc.collect()
            assert all(ref() is None for ref in dropped)

    def test_laplacian_identity_for_tangent_fields(self):
        rng = make_rng("levi-lap")
        for _ in range(8):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            assert levi_form_bracket(m, j, x).value == \
                higher_levi(m, j, [x.at_zero()], 0, 0)

    def test_cap_guard(self):
        small = surface(2, 3, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1})
        with pytest.raises(CapError):
            higher_levi(small, ACStructure.standard(2, 3), [E1, E1], 1, 1)

    def test_needs_enough_jets(self):
        with pytest.raises(ValueError):
            higher_levi(SPHERE, JSTD, [E1], 1, 0)

    def test_negative_indices_rejected_before_transport(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("transported a disk for a negative index")
        monkeypatch.setattr(disks, "_Transport", forbidden)
        for p, q in ((-1, 2), (2, -1), (-1, 1), (1, -1), (-1, -1)):
            with pytest.raises(ValueError):
                higher_levi(SPHERE, JSTD, [E1, E1, E1], p, q)
        for s in (-1, -2):
            with pytest.raises(ValueError):
                levi.levi_trace(SPHERE, JSTD, [E1], s)

    def test_mismatched_inputs_rejected(self):
        # a vector of the wrong length, or a surface and a structure of
        # different dimensions, fail instead of being read partly
        with pytest.raises(ValueError, match="wrong arity"):
            higher_levi(SPHERE, JSTD, [(1, 0, 0, 0, 7, 9)], 0, 0)
        with pytest.raises(ValueError, match="wrong arity"):
            higher_levi(SPHERE, JSTD, [(1, 0)], 0, 0)
        with pytest.raises(ValueError, match=r"C\^2, structure on C\^3"):
            higher_levi(SPHERE, ACStructure.standard(3, CAP),
                        [(1, 0, 0, 0, 0, 0)], 0, 0)

    def test_trace_values_match_the_whole_trace(self):
        # every L^(p, s - p) that levi_trace reads off one stratum equals
        # the levi_entry of the whole phi . u of the padded disk
        rng = make_rng("levi-trace-oracle")
        for n in (1, 2, 3, 4):
            cap = 6 if n <= 2 else 5
            for j in (ACStructure.standard(n, cap),
                      random_structure(rng, n, cap),
                      nonlinear_structure(rng, n, cap)):
                m = random_phi(rng, n, cap, 4 if n <= 3 else 3)
                for s in range(cap - 1):
                    # zero vectors and zero entries; x_jet cut at s + 1
                    jets = [tuple(c if rng.random() < 0.7 else 0
                                  for c in random_vector(rng, 2 * n, 2))
                            if rng.random() < 0.8 else (0,) * (2 * n)
                            for _ in range(s + 1 + rng.choice((0, 0, 1, 2)))]
                    jets = [tuple(Q(c) for c in v) for v in jets]
                    # a disk of its own: the held state of an earlier s may
                    # be a prefix of jets, and levi_trace reads it
                    tr = compose_phi_u(m, fresh_disk(j, jets[:s + 1], s + 2))
                    assert levi.levi_trace(m, j, jets, s) == [
                        tr.levi_entry(p, s - p) for p in range(s + 1)]


def fresh_trace(m, j, jet, s):
    """L^(p, s - p), p = 0..s, by the route of the master-identity test: a
    disk transported afresh to order s + 2 and composed with phi whole.
    The disk is a transport of its own: propagate_cr_jet may start from the
    held state that these tests check."""
    tr = compose_phi_u(m, fresh_disk(j, jet[:s + 1], s + 2))
    return [tr.levi_entry(p, s - p) for p in range(s + 1)]


def pair(rng, n=2, cap=6, standard=False):
    j = ACStructure.standard(n, cap) if standard \
        else random_structure(rng, n, cap)
    return random_phi(rng, n, cap), j


class TestHeldTransport:
    """levi_trace grows the one transport state that J holds, for the
    surface last read; every value must be the fresh route's, whatever
    sequence of calls it serves."""

    def assert_fresh(self, m, j, jet, s):
        want = fresh_trace(m, j, jet, s)
        assert levi.levi_trace(m, j, jet, s) == want
        for p in range(s + 1):
            assert higher_levi(m, j, jet[:s + 1], p, s - p) == want[p]

    def test_interleaved_jets_on_one_pair(self):
        rng = make_rng("levi-held-interleaved")
        for standard in (True, False):
            m, j = pair(rng, standard=standard)
            jets = [[random_vector(rng, 4, 2) for _ in range(5)]
                    for _ in range(3)]
            for s in range(5):
                for jet in jets + jets[::-1]:
                    self.assert_fresh(m, j, jet, s)

    def test_jets_differing_in_an_early_derivative(self):
        # the later derivatives agree, so only the prefix check tells the
        # two disks apart
        rng = make_rng("levi-held-early")
        for standard in (True, False):
            m, j = pair(rng, standard=standard)
            base = [random_vector(rng, 4, 2) for _ in range(5)]
            for at in (0, 1, 2):
                other = list(base)
                other[at] = tuple(c + 1 for c in base[at])
                for s in range(at, 4):
                    self.assert_fresh(m, j, base, s)
                    self.assert_fresh(m, j, other, s + 1)
                    self.assert_fresh(m, j, base, s + 1)

    def test_shorter_jet_after_a_longer_one(self):
        rng = make_rng("levi-held-shorter")
        for standard in (True, False):
            m, j = pair(rng, standard=standard)
            jet = [random_vector(rng, 4, 2) for _ in range(5)]
            for s in (4, 1, 3, 0, 2, 2, 4):
                self.assert_fresh(m, j, jet, s)

    def test_two_surfaces_under_one_structure(self):
        rng = make_rng("levi-held-surfaces")
        for standard in (True, False):
            m1, j = pair(rng, standard=standard)
            m2 = random_phi(rng, 2, 6)
            jet = [random_vector(rng, 4, 2) for _ in range(5)]
            for s in range(5):
                for m in (m1, m2, m1):
                    self.assert_fresh(m, j, jet, s)

    def test_list_jet_mutated_in_place(self):
        # the state holds a snapshot of the jet, not the caller's lists
        rng = make_rng("levi-held-mutated")
        m, j = pair(rng)
        jet = [list(random_vector(rng, 4, 2)) for _ in range(5)]
        for s in range(4):
            self.assert_fresh(m, j, jet, s)
            jet[s][0] += 1  # a vector already read
            self.assert_fresh(m, j, jet, s)
            jet[0] = list(random_vector(rng, 4, 2))  # a vector replaced
            self.assert_fresh(m, j, jet, s + 1)

    def test_returned_list_mutated(self):
        rng = make_rng("levi-held-returned")
        m, j = pair(rng)
        jet = [random_vector(rng, 4, 2) for _ in range(4)]
        for s in range(4):
            values = levi.levi_trace(m, j, jet, s)
            values[0] += 1
            values.append(Q(7))
            self.assert_fresh(m, j, jet, s)

    def test_wrong_arity_vector_mid_jet(self):
        # a failed extension, of the held state or of a fresh one, leaves
        # no half-grown state behind
        rng = make_rng("levi-held-arity")
        for standard in (True, False):
            m, j = pair(rng, standard=standard)
            good = [random_vector(rng, 4, 2) for _ in range(5)]
            bad = good[:3] + [(1, 0, 0)] + good[4:]
            self.assert_fresh(m, j, good, 1)
            # extends the held state by good[2], then fails; a state kept
            # at good[:3] would be extended by good[2] once more
            with pytest.raises(ValueError, match="wrong arity"):
                levi.levi_trace(m, j, bad, 3)
            self.assert_fresh(m, j, good, 3)
            other = [random_vector(rng, 4, 2)] + bad[1:]
            with pytest.raises(ValueError, match="wrong arity"):
                levi.levi_trace(m, j, other, 3)
            self.assert_fresh(m, j, other, 2)
            self.assert_fresh(m, j, good, 3)

    def test_structure_cap_error_is_the_transports(self):
        # J of cap 4 transports to order 5 only: the largest state is of
        # cap 5, and s = 4 must fail as a transport to order 6 does
        rng = make_rng("levi-held-capguard")
        j = random_structure(rng, 2, 4)
        m = random_phi(rng, 2, 6)
        assert j.cap < m.cap - 1
        jet = [random_vector(rng, 4, 2) for _ in range(5)]
        message = re.escape(
            f"structure cap {j.cap} too small to transport to order "
            f"{j.cap + 2}")
        for s in range(j.cap):
            self.assert_fresh(m, j, jet, s)
        for _ in range(2):
            with pytest.raises(CapError, match=message):
                levi.levi_trace(m, j, jet, j.cap)
            with pytest.raises(CapError, match=message):
                higher_levi(m, j, jet, 1, j.cap - 1)
            self.assert_fresh(m, j, jet, j.cap - 1)

    def test_state_dies_with_structure_and_surface(self):
        # the held state makes no reference cycle and holds no surface:
        # with the cyclic collector off, dropping J or the surface frees it
        # at once
        rng = make_rng("levi-held-weak")
        gc.disable()
        try:
            for standard in (True, False):
                m, j = pair(rng, standard=standard)
                jet = [random_vector(rng, 4, 2) for _ in range(4)]
                for s in range(4):
                    higher_levi(m, j, jet, 0, s)
                ref_m, ref_j = weakref.ref(m), weakref.ref(j)
                del m
                assert ref_m() is None
                m = random_phi(rng, 2, 6)
                higher_levi(m, j, jet, 1, 1)
                ref_m = weakref.ref(m)
                del j
                assert ref_j() is None
                del m
                assert ref_m() is None
        finally:
            gc.enable()

    def test_threads_on_one_pair_match_serial_calls(self):
        # four threads, each sweeping its own jet on one (J, surface) pair,
        # switching as often as the interpreter allows.  The jets share a
        # prefix, so that each thread may extend the state another left,
        # and are given as strings, so that every call compares new
        # rationals (a Python-level __eq__, where a thread can switch)
        rng = make_rng("levi-held-threads")
        for standard in (True, False):
            m, j = pair(rng, standard=standard)
            common = [random_vector(rng, 4, 2) for _ in range(2)]
            jets = [[tuple(map(str, v)) for v in
                     common + [random_vector(rng, 4, 2) for _ in range(3)]]
                    for _ in range(4)]

            def sweep(jet):
                return [[higher_levi(m, j, jet, p, s - p)
                         for p in range(s + 1)] for s in range(5)]

            want = [[fresh_trace(m, j, jet, s) for s in range(5)]
                    for jet in jets]
            assert [sweep(jet) for jet in jets] == want
            got = [[] for _ in jets]

            def worker(k):
                for _ in range(10):
                    got[k].append(sweep(jets[k]))

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


class TestPrintedClosedForms:
    def test_first_form_pinned(self):
        assert higher_levi_closed_form(0, 0, SPHERE, E1) == 4
        assert higher_levi_closed_form(0, 0, FLAT, E1) == 0

    def test_first_form_agrees_with_disk_route(self):
        rng = make_rng("levi-cf00")
        for _ in range(50):
            m = random_phi(rng, 2, 6)
            v = random_vector(rng, 4)
            assert higher_levi_closed_form(0, 0, m, v) == \
                higher_levi(m, ACStructure.standard(2, 6), [v], 0, 0)

    def test_second_forms_agree_on_matched_arguments(self):
        # frozen agreement cases for the printed L^(1,0) and L^(0,1)
        assert higher_levi_closed_form(1, 0, SPHERE, E1, E1) == 8
        assert higher_levi_closed_form(0, 1, SPHERE, E1, E1) == 0
        zero = (0, 0, 0, 0)
        assert higher_levi_closed_form(1, 0, SPHERE, E1, zero) == 0
        assert higher_levi_closed_form(0, 1, SPHERE, E1, zero) == 0

    def test_printed_term_quadratic_in_second_slot_is_caught(self):
        # the disk route is linear in u_2; the printed form is not, and the
        # gate reports the disagreement instead of patching it
        for s in range(4):
            u2 = (s, 0, 0, 0)
            assert higher_levi(SPHERE, JSTD, [E1, u2], 1, 0) == 8 * s
        with pytest.raises(ClosedFormMismatch) as info:
            higher_levi_closed_form(1, 0, SPHERE, E1, (2, 0, 0, 0))
        assert info.value.printed == 24
        assert info.value.disk_route == 16

    def test_mixed_form_mismatch_is_caught(self):
        m = surface(2, CAP, {(0, 0, 1, 0): 2, (0, 0, 1, 1): 1})
        with pytest.raises(ClosedFormMismatch) as info:
            higher_levi_closed_form(0, 1, m, E1, (0, 0, 1, 0))
        assert info.value.printed == -2
        assert info.value.disk_route == 0

    def test_unsupported_orders_rejected(self):
        with pytest.raises(ValueError):
            higher_levi_closed_form(1, 1, SPHERE, E1, E1, E1)

    def test_calls_on_one_surface_share_one_transport(self, monkeypatch):
        # one J_std per n: its plan of the surface and its held state serve
        # every call with the same vectors
        m = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
        built = {"_Plan": 0, "_Transport": 0}
        for name in built:
            cls = getattr(disks, name)

            def counted(self, *args, _init=cls.__init__, _name=name):
                built[_name] += 1
                _init(self, *args)
            monkeypatch.setattr(cls, "__init__", counted)
        for _ in range(5):
            assert higher_levi_closed_form(1, 0, m, E1, E1) == 8
            assert higher_levi_closed_form(0, 1, m, E1, E1) == 0
        assert built == {"_Plan": 1, "_Transport": 1}


class TestPolarForm:
    def test_diagonal_is_the_levi_form(self):
        rng = make_rng("levi-polar")
        for _ in range(6):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            v = levi_polar(m, j, x, x)
            assert v.re == levi_form_bracket(m, j, x).value
            assert v.im == 0

    def test_hermitian_symmetry(self):
        rng = make_rng("levi-herm")
        for _ in range(6):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            y = random_tangent_field(rng, m, j, 5)
            assert levi_polar(m, j, x, y) == levi_polar(m, j, y, x).conj()

    def test_matrix_is_hermitian_with_real_diagonal(self):
        rng = make_rng("levi-mat")
        m = random_phi(rng, 3, 6)
        j = random_structure(rng, 3, 6)
        mat = hermitian_levi_matrix(m, j)
        d = len(mat.entries)
        assert d == 2 and len(mat.basis) == 2
        for i in range(d):
            assert mat.entries[i][i].im == 0
            for k in range(d):
                assert mat.entries[i][k] == mat.entries[k][i].conj()
        real = mat.realified()
        assert len(real) == 2 * d
        for i in range(2 * d):
            for k in range(2 * d):
                assert real[i][k] == real[k][i]

    def test_matrix_matches_the_full_cap_basis(self):
        # the matrix is built on the 2-jet of phi and the 1-jet of J; the
        # reference takes the polar form on the full-cap basis fields
        rng = make_rng("levi-jets")
        for n, perturbed, _ in iproduct((2, 3, 4), (False, True), range(2)):
            m = quadratic_surface(rng, n, 6)
            j = (random_structure(rng, n, 6) if perturbed
                 else ACStructure.standard(n, 6))
            mat = hermitian_levi_matrix(m, j)
            full = complex_tangent_basis(m, j)
            assert [b.at_zero() for b in mat.basis] == \
                [b.at_zero() for b in full]
            for i, x in enumerate(full):
                for k, y in enumerate(full):
                    assert mat.entries[i][k] == levi_polar(m, j, x, y)

    def test_matrix_matches_the_polarized_bracket_and_the_hessian(self):
        # every entry from the bracket route alone, by polarizing L:
        # Re Theta(X, Y) = (L(X+Y) - L(X-Y)) / 4,
        # Im Theta(X, Y) = (L(X-JY) - L(X+JY)) / 4; the diagonal is also
        # the Hessian route's L(X)
        rng = make_rng("levi-polarize")
        structures = (lambda n: ACStructure.standard(n, 4),
                      lambda n: random_structure(rng, n, 4),
                      lambda n: nonlinear_structure(rng, n, 4))
        nonzero_re = nonzero_im = 0
        for n, make_j, _ in iproduct((2, 3, 4), structures, range(2)):
            m = quadratic_surface(rng, n, 4)
            j = make_j(n)
            mat = hermitian_levi_matrix(m, j)

            def bracket(f):
                return levi_form_bracket(m, j, f).value

            for i, x in enumerate(mat.basis):
                assert mat.entries[i][i].re == \
                    levi_form_hessian(m, j, x).value
                for k, y in enumerate(mat.basis):
                    jy = j.apply(y)
                    polar = QC((bracket(x + y) - bracket(x - y)) / 4,
                               (bracket(x - jy) - bracket(x + jy)) / 4)
                    assert mat.entries[i][k] == polar
                    nonzero_re += polar.re != 0
                    nonzero_im += polar.im != 0
        assert nonzero_re and nonzero_im

    def test_matrix_checks_each_field_once_and_forms_no_bracket(
            self, monkeypatch):
        rng = make_rng("levi-calls")
        checked = []
        tangent = levi.is_complex_tangent

        def recording(m, j, x):
            checked.append(x)
            return tangent(m, j, x)

        def forbidden(*args):
            raise AssertionError("the Levi matrix forms no bracket of fields")
        monkeypatch.setattr(levi, "is_complex_tangent", recording)
        for module in (levi, geometry):
            monkeypatch.setattr(module, "lie_bracket", forbidden)
        monkeypatch.setattr(levi, "levi_polar", forbidden)
        for n, perturbed in iproduct((2, 3, 4), (False, True)):
            j = (random_structure(rng, n, 6) if perturbed
                 else ACStructure.standard(n, 6))
            checked.clear()
            mat = hermitian_levi_matrix(quadratic_surface(rng, n, 6), j)
            assert len(mat.basis) == n - 1
            assert [id(x) for x in checked] == [id(x) for x in mat.basis]

    def test_matrix_is_the_polar_form_of_the_basis_fields(self):
        # the form at 0 reads the 2-jet of phi and the 1-jet of J: terms of
        # phi of degree >= 3 and of J of degree >= 2 change nothing, while
        # the polar form on the full-cap basis fields reads them
        rng = make_rng("levi-form")
        structures = (lambda n: ACStructure.standard(n, 6),
                      lambda n: random_structure(rng, n, 6),
                      lambda n: nonlinear_structure(rng, n, 6))
        nonzero_im = high_j = 0
        for n, make_j, _ in iproduct((2, 3, 4), structures, range(2)):
            m = quadratic_surface(rng, n, 6)
            j = make_j(n)
            high = {}
            for degree in (3, 4, 5):
                exps = [0] * (2 * n)
                for _ in range(degree):
                    exps[rng.randrange(2 * n)] += 1
                high[tuple(exps)] = Q(rng.choice((-2, -1, 1, 2)),
                                      rng.choice((1, 3)))
            m = Hypersurface(n, m.phi + TruncatedSeries(2 * n, 6, high))
            assert m.phi.total_degree() == 5
            high_j += max(e.total_degree() or 0
                          for row in j.entries for e in row) >= 2
            mat = hermitian_levi_matrix(m, j)
            basis = complex_tangent_basis(m, j)
            assert mat.basis_at_zero == [x.at_zero() for x in basis]
            assert mat.entries == [[levi_polar(m, j, x, y) for y in basis]
                                   for x in basis]
            low = hermitian_levi_matrix(m.truncate(2), j)
            assert low.basis_at_zero == mat.basis_at_zero
            assert low.entries == mat.entries
            assert rational_form(m, j) == \
                rational_form(m.truncate(2), truncated_structure(j, 1))
            nonzero_im += any(e.im for row in mat.entries for e in row)
        # the 6 nonlinear structures have terms of degree >= 2
        assert nonzero_im and high_j >= 6

    @staticmethod
    def forbid_series_work(mp):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Levi matrix runs no series operation")
        for module in (jets, geometry):
            mp.setattr(module, "_dot", forbidden)
        for name in ("__mul__", "__add__", "__sub__", "__neg__", "partial",
                     "truncate", "compose", "inverse", "scale"):
            mp.setattr(TruncatedSeries, name, forbidden)

    def test_errors_match_the_basis_and_come_before_any_work(
            self, monkeypatch):
        # n = 1 raises complex_tangent_basis's error; a basis cap of 0
        # raises what differentiating the cap-0 basis fields raises
        rng = make_rng("levi-form-errors")
        line = surface(1, 4, {(1, 0): 2})
        j1 = ACStructure.standard(1, 4)
        with pytest.raises(GeometryError) as want:
            complex_tangent_basis(line, j1)
        cases = []
        for n in (2, 3):
            m = quadratic_surface(rng, n, 4)
            for j in (ACStructure.standard(n, 0), random_structure(rng, n, 1)):
                x = complex_tangent_basis(m, j)[0]
                assert x.cap == 0
                with pytest.raises(CapError) as cap_error:
                    levi_polar(m, j, x, x)
                cases.append((m, j, cap_error))
        with monkeypatch.context() as mp:
            self.forbid_series_work(mp)
            with pytest.raises(GeometryError) as got:
                hermitian_levi_matrix(line, j1)
            assert str(got.value) == str(want.value) == \
                "no complex tangent directions in complex dim 1"
            for m, j, cap_error in cases:
                with pytest.raises(CapError) as got:
                    hermitian_levi_matrix(m, j)
                assert str(got.value) == str(cap_error.value) == \
                    "cannot differentiate a field with cap 0"

    def test_matrix_forms_no_series_and_builds_basis_on_read(
            self, monkeypatch):
        rng = make_rng("levi-form-lazy")
        calls = []
        build = levi.complex_tangent_basis

        def counted(m, j):
            calls.append(m.cap)
            return build(m, j)
        monkeypatch.setattr(levi, "complex_tangent_basis", counted)
        for n, perturbed in iproduct((2, 3, 4), (False, True)):
            m = quadratic_surface(rng, n, 6)
            j = (random_structure(rng, n, 6) if perturbed
                 else ACStructure.standard(n, 6))
            with monkeypatch.context() as mp:
                self.forbid_series_work(mp)
                mat = hermitian_levi_matrix(m, j)
                taus = mat.basis_at_zero
                label = mat.classify()
            assert calls == [] and len(taus) == n - 1
            fields = mat.basis
            assert calls == [2] and mat.basis is fields
            assert [x.at_zero() for x in fields] == taus
            assert hermitian_levi_matrix(m, j).classify() == label
            calls.clear()


class TestClassification:
    def test_pinned_labels(self):
        assert classify_point(SPHERE, JSTD).label == "strictly_pseudoconvex"
        assert classify_point(SADDLE, JSTD).label == "levi_flat"
        assert classify_point(QUARTIC, JSTD).label == "levi_flat"
        ball3 = surface(3, 6, {(0, 0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0, 0): 1,
                               (0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): 1,
                               (0, 0, 0, 2, 0, 0): 1})
        c = classify_point(ball3, ACStructure.standard(3, 6))
        assert (c.label, c.positive, c.negative, c.zero) == \
            ("strictly_pseudoconvex", 2, 0, 0)
        mixed = surface(3, 6, {(0, 0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0, 0): 1,
                               (0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): -1,
                               (0, 0, 0, 2, 0, 0): -1})
        c = classify_point(mixed, ACStructure.standard(3, 6))
        assert (c.label, c.positive, c.negative, c.zero) == ("indefinite", 1, 1, 0)

    def test_degenerate_labels(self):
        half = surface(3, 6, {(0, 0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0, 0): 1,
                              (0, 2, 0, 0, 0, 0): 1})
        c = classify_point(half, ACStructure.standard(3, 6))
        assert (c.label, c.positive, c.zero) == ("pseudoconvex_degenerate", 1, 1)
        conc = surface(3, 6, {(0, 0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0, 0): -1,
                              (0, 2, 0, 0, 0, 0): -1})
        assert classify_point(conc, ACStructure.standard(3, 6)).label == \
            "pseudoconcave_degenerate"

    def test_curve_has_no_complex_tangent_directions(self):
        line = surface(1, 4, {(1, 0): 2})
        assert classify_point(line, ACStructure.standard(1, 4)).label == \
            "levi_flat"

    def test_concave_sphere(self):
        inverted = Hypersurface(2, -SPHERE.phi)
        assert classify_point(inverted, JSTD).label == "strictly_pseudoconcave"

    def test_label_survives_unit_rescaling(self):
        rng = make_rng("levi-classunit")
        for _ in range(4):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            f = random_positive_unit(rng, 2 * n, 6)
            assert classify_point(m, j) == \
                classify_point(Hypersurface(n, m.phi * f), j)
