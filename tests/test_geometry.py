"""Surfaces, structures, tangent projections, brackets, jets, recentering."""

import math

import pytest
from conftest import (
    SEED,
    make_rng,
    random_field,
    random_phi,
    random_structure,
    random_tangent_field,
    random_vector,
    scale_field,
    truncated_structure,
)

from levitype import (
    ACStructure,
    CapError,
    GeometryError,
    Hypersurface,
    Q,
    TruncatedSeries,
    VectorField,
    complex_tangent_basis,
    covariant_derivative,
    field_jet,
    is_complex_tangent,
    lie_bracket,
    parse_expression,
    perturbed_structure,
    project_to_complex_tangent,
    recenter,
)
import levitype.geometry as geometry
from levitype.geometry import (
    FieldJet,
    _rational_roots,
    apply_jstd,
    constant_matrix,
    project_point_to_surface,
    standard_matrix,
)
from levitype.jets import mat_vec
from levitype.linalg import identity, mat_mul


def surface(text, n, cap=6):
    return Hypersurface(n, parse_expression(text, n, cap=cap))


def dpq_derivative(x: VectorField, j: ACStructure, p: int, q: int):
    """Value of (JX)^q X^p . X at 0, nesting right to left.

    The reference for field_jet, which shares the D_X chains instead.
    """
    k = p + q
    if k > x.cap:
        raise CapError(f"order {k} exceeds the field's cap {x.cap}")
    if not j.is_standard and k > j.cap:
        raise CapError(f"order {k} exceeds the structure's cap {j.cap}")
    w = x.truncate(k)
    xdir = w
    jx = j.apply(x).truncate(k)
    for _ in range(p):
        w = covariant_derivative(xdir.truncate(w.cap), w)
    for _ in range(q):
        w = covariant_derivative(jx.truncate(w.cap), w)
    return w.at_zero()


SPHERE = surface("2*x2 + abs2(z1)", 2)
FLAT = surface("2*x2", 2)
JSTD = ACStructure.standard(2, 6)


class TestInvariants:
    def test_phi_must_vanish_at_origin(self):
        with pytest.raises(GeometryError):
            Hypersurface(2, parse_expression("1 + 2*x2", 2, cap=4))

    def test_gradient_must_not_vanish(self):
        with pytest.raises(GeometryError):
            Hypersurface(2, parse_expression("abs2(z1)", 2, cap=4))

    def test_structure_squares_to_minus_identity(self):
        bad = [[TruncatedSeries.zero(4, 4) for _ in range(4)]
               for _ in range(4)]
        std = standard_matrix(2)
        for a in range(4):
            for b in range(4):
                bad[a][b] = TruncatedSeries.constant(std[a][b], 4, 4)
        bad[0][1] = bad[0][1] + TruncatedSeries.variable(0, 4, 4)
        with pytest.raises(GeometryError):
            ACStructure(2, bad)

    def test_structure_value_at_origin_must_be_standard(self):
        ident = [[TruncatedSeries.constant(1 if a == b else 0, 4, 4)
                  for b in range(4)] for a in range(4)]
        with pytest.raises(GeometryError):
            ACStructure(2, ident)


class TestProjection:
    def test_already_tangent_passes_through(self):
        v = VectorField.coordinate(2, 0, 5)
        x = project_to_complex_tangent(FLAT, JSTD, v)
        assert x == v

    def test_normal_direction_dies(self):
        v = VectorField.coordinate(2, 2, 5)
        x = project_to_complex_tangent(FLAT, JSTD, v)
        assert all(c.is_zero() for c in x.components)

    def test_projection_is_tangent_as_series(self):
        v = VectorField.coordinate(2, 0, 5)
        x = project_to_complex_tangent(SPHERE, JSTD, v)
        assert x.at_zero() == (1, 0, 0, 0)
        assert is_complex_tangent(SPHERE, JSTD, x)
        assert SPHERE.dphi(x).is_zero()
        assert SPHERE.dphi(JSTD.apply(x)).is_zero()

    def test_projection_randomized(self):
        rng = make_rng("geom-proj")
        for _ in range(20):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = project_to_complex_tangent(m, j, random_field(rng, n, 5))
            assert is_complex_tangent(m, j, x)

    def test_idempotent(self):
        rng = make_rng("geom-idem")
        m = random_phi(rng, 2, 6)
        j = random_structure(rng, 2, 6)
        x = project_to_complex_tangent(m, j, random_field(rng, 2, 5))
        assert project_to_complex_tangent(m, j, x) == x


class TestBracketAndDerivative:
    def test_constant_fields_commute(self):
        x = VectorField.constant(2, (1, 2, 3, 4), 5)
        y = VectorField.constant(2, (0, 1, 0, Q(1, 2)), 5)
        assert all(c.is_zero() for c in lie_bracket(x, y).components)

    def test_pinned_bracket(self):
        # [d/dx1, x1 d/dy1] = d/dy1
        x = VectorField.coordinate(2, 0, 5)
        comps = [TruncatedSeries.zero(4, 5) for _ in range(4)]
        comps[1] = TruncatedSeries.variable(0, 4, 5)
        y = VectorField(2, comps)
        br = lie_bracket(x, y)
        assert br.at_zero() == (0, 1, 0, 0)
        assert br == VectorField.constant(2, (0, 1, 0, 0), 4)

    def test_antisymmetry_and_jacobi(self):
        rng = make_rng("geom-jacobi")
        for _ in range(6):
            x = random_field(rng, 2, 6)
            y = random_field(rng, 2, 6)
            z = random_field(rng, 2, 6)
            assert lie_bracket(x, y) == -lie_bracket(y, x)
            xy = lie_bracket(x, y).truncate(4)
            yz = lie_bracket(y, z).truncate(4)
            zx = lie_bracket(z, x).truncate(4)
            total = (lie_bracket(xy, z.truncate(4))
                     + lie_bracket(yz, x.truncate(4))
                     + lie_bracket(zx, y.truncate(4)))
            assert all(c.is_zero() for c in total.components)

    def test_torsion_free(self):
        rng = make_rng("geom-torsion")
        for _ in range(10):
            x = random_field(rng, 2, 6)
            y = random_field(rng, 2, 6)
            lhs = covariant_derivative(x, y) - covariant_derivative(y, x)
            assert lhs == lie_bracket(x, y)

    def test_matches_dense_jacobian_product(self):
        # (D_X Y)_i = sum over every v of X_v d_v Y_i; X has zero
        # components, and the first X is zero
        rng = make_rng("geom-dense-jacobian")
        for trial in range(12):
            n = rng.choice((2, 3))
            nv = 2 * n
            zero = TruncatedSeries.zero(nv, 5)
            comps = list(random_field(rng, n, 6).components)
            dead = nv if trial == 0 else rng.randint(1, nv - 1)
            for v in rng.sample(range(nv), dead):
                comps[v] = TruncatedSeries.zero(nv, 6)
            x, y = VectorField(n, comps), random_field(rng, n, 6)
            dense = []
            for yi in y.components:
                acc = zero
                for v in range(nv):
                    acc = acc + x.components[v].truncate(5) * yi.partial(v)
                dense.append(acc)
            assert covariant_derivative(x, y) == VectorField(n, dense)

    def test_derivative_of_constant_vanishes(self):
        x = random_field(make_rng("geom-dc"), 2, 6)
        y = VectorField.constant(2, (1, -2, Q(1, 3), 0), 6)
        assert all(c.is_zero()
                   for c in covariant_derivative(x, y).components)

    def test_pinned_directional_derivative(self):
        x = VectorField.coordinate(2, 0, 5)
        comps = [TruncatedSeries.zero(4, 5) for _ in range(4)]
        comps[1] = TruncatedSeries.variable(0, 4, 5)
        y = VectorField(2, comps)
        assert covariant_derivative(x, y).at_zero() == (0, 1, 0, 0)

    def test_sphere_projection_second_derivative(self):
        # Frozen: the tangent projection of d/dx1 on the sphere curves into
        # the inward normal, nabla_X X(0) = (0, 0, -1, 0).
        x = project_to_complex_tangent(SPHERE, JSTD,
                                       VectorField.coordinate(2, 0, 5))
        assert covariant_derivative(x, x).at_zero() == (0, 0, -1, 0)
        assert dpq_derivative(x, JSTD, 1, 0) == (0, 0, -1, 0)


class TestFieldJet:
    def test_constant_field_jet(self):
        x = VectorField.constant(2, (1, 0, 2, 0), 5)
        fj = field_jet(x, JSTD, 3)
        assert fj.entry(0, 0) == (1, 0, 2, 0)
        for (p, q), v in fj.entries.items():
            if p + q >= 1:
                assert v == (0, 0, 0, 0)

    def test_order_zero_singleton(self):
        x = VectorField.constant(2, (0, 1, 0, 0), 5)
        fj = field_jet(x, JSTD, 0)
        assert set(fj.entries) == {(0, 0)}

    def test_matches_dpq(self):
        rng = make_rng("geom-fj")
        m = random_phi(rng, 2, 6)
        j = random_structure(rng, 2, 6)
        x = random_tangent_field(rng, m, j, 5)
        fj = field_jet(x, j, 3)
        for (p, q), v in fj.entries.items():
            assert v == dpq_derivative(x, j, p, q)

    def test_equal_jets_have_tangential_top_difference(self):
        # Two tangent fields with equal k-jets: at p+q = k+1 the entry
        # differences annihilate both dphi(.)(0) and dphi(J.)(0).
        rng = make_rng("geom-topdiff")
        for _ in range(8):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            x = random_tangent_field(rng, m, j, 5)
            w = random_tangent_field(rng, m, j, 5, nonzero_at_0=False)
            # scaling by a coordinate keeps tangency and kills w(0),
            # so x and y share the 0-jet
            w = scale_field(w, TruncatedSeries.variable(0, 2 * n, w.cap))
            y = x + w
            k = 0
            fx, fy = field_jet(x, j, k + 1), field_jet(y, j, k + 1)
            assert field_jet(x, j, k) == field_jet(y, j, k)
            g0 = m.grad_at_zero()
            for p in range(k + 2):
                q = k + 1 - p
                d = [a - b for a, b in zip(fx.entry(p, q), fy.entry(p, q))]
                assert sum((gi * di for gi, di in zip(g0, d)), Q(0)) == 0
                jd = j.apply(VectorField.constant(n, d, 2)).at_zero()
                assert sum((gi * di for gi, di in zip(g0, jd)), Q(0)) == 0


    def test_equality_reads_every_field(self):
        entries = {(0, 0): (Q(1), Q(0)), (1, 0): (Q(0), Q(2))}
        fj = FieldJet(1, 1, dict(entries))
        assert fj == FieldJet(1, 1, dict(entries))
        assert fj != FieldJet(2, 1, dict(entries))
        assert fj != FieldJet(1, 2, dict(entries))
        assert fj != FieldJet(1, 1, {**entries, (1, 0): (Q(0), Q(3))})
        assert fj != fj.entries
        assert fj != (1, 1, entries)
        with pytest.raises(TypeError):
            hash(fj)


class TestTangentBasis:
    def test_count_and_tangency(self):
        rng = make_rng("geom-basis")
        for _ in range(6):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 6)
            j = random_structure(rng, n, 6)
            basis = complex_tangent_basis(m, j)
            assert len(basis) == n - 1
            g0 = m.grad_at_zero()
            for b in basis:
                v = b.at_zero()
                assert sum((gi * vi for gi, vi in zip(g0, v)), Q(0)) == 0
                jv = j.apply(b).at_zero()
                assert sum((gi * vi for gi, vi in zip(g0, jv)), Q(0)) == 0

    def test_deterministic(self):
        assert [b.at_zero() for b in complex_tangent_basis(SPHERE, JSTD)] \
            == [b.at_zero() for b in complex_tangent_basis(SPHERE, JSTD)]


class TestPerturbedStructure:
    def test_admissible_through_cap(self):
        # revalidation re-runs the J(0) = J_std and J*J = -I gates
        for seed in range(SEED, SEED + 12):
            j = perturbed_structure(2, 6, seed)
            ACStructure(2, [list(row) for row in j.entries])

    def test_value_at_zero_is_standard(self):
        std = standard_matrix(2)
        j = perturbed_structure(2, 6, 5)
        for a in range(4):
            for b in range(4):
                assert j.entries[a][b].coefficient((0, 0, 0, 0)) == std[a][b]


class TestACStructure:
    @staticmethod
    def constant_std(j):
        """is_standard by its definition: every entry the constant J_std
        entry."""
        std = standard_matrix(j.n)
        return all(e.constant_term() == std[a][b]
                   and e.total_degree() in (None, 0)
                   for a, row in enumerate(j.entries)
                   for b, e in enumerate(row))

    def test_is_standard_is_the_constant_definition(self):
        assert ACStructure.standard(2, 4).is_standard
        for n in (1, 2, 3):
            for seed in range(SEED, SEED + 4):
                j = perturbed_structure(n, 5, seed)
                assert truncated_structure(j, 0).is_standard
                for cap in range(j.cap + 1):
                    jc = truncated_structure(j, cap)
                    assert jc.is_standard == self.constant_std(jc)

    def test_truncation_below_the_perturbation_is_standard(self):
        # J = A J_std A^-1 with A = I + x1^2 E_12: J*J = -I exactly
        rows = [["x1^2", "-1 - x1^4"], ["1", "-x1^2"]]
        j = ACStructure(1, [[parse_expression(e, 1, cap=4) for e in row]
                            for row in rows])
        assert not j.is_standard
        assert not truncated_structure(j, 2).is_standard
        low = truncated_structure(j, 1)
        assert low.is_standard and self.constant_std(low)

    @staticmethod
    def x1_structure(n, cap):
        """J_std with J[2][1] = J[3][0] = -x1: J*J = -I exactly."""
        entries = [list(row) for row in
                   constant_matrix(standard_matrix(n), 2 * n, cap)]
        entries[2][1] = entries[3][0] = -TruncatedSeries.variable(0, 2 * n,
                                                                  cap)
        return entries

    @pytest.mark.parametrize("n", (2, 40))
    def test_built_without_a_standard_matrix(self, n, monkeypatch):
        std = constant_matrix(standard_matrix(n), 2 * n, 3)
        bent = self.x1_structure(n, 3)

        def forbidden(*args):
            raise AssertionError("the constructor builds no J_std matrix")
        monkeypatch.setattr(geometry, "standard_matrix", forbidden)
        j = ACStructure(n, std)
        assert j.is_standard and j.known == math.inf
        j = ACStructure(n, bent)
        assert not j.is_standard and j.known == 3

    def test_first_failing_entry_and_messages(self):
        bent = self.x1_structure(2, 3)
        half = [row[:] for row in bent]
        half[3][0] = half[0][0]
        with pytest.raises(GeometryError,
                           match=r"^J\*J != -I through cap 3 at entry \(2,0\)$"):
            ACStructure(2, half)
        # J(0) is checked in the same pass, after every entry's cap
        moved = [row[:] for row in bent]
        moved[0][0] = moved[0][0] + TruncatedSeries.constant(Q(1, 2), 4, 3)
        with pytest.raises(GeometryError, match=r"^J\(0\) != J_std; conjugate"):
            ACStructure(2, moved)
        moved[3][3] = TruncatedSeries.zero(4, 2)
        with pytest.raises(GeometryError, match="share num_vars and cap"):
            ACStructure(2, moved)

    def test_apply_below_the_structure_cap(self):
        rng = make_rng("acstructure-apply")
        j = perturbed_structure(2, 6, rng.randrange(1_000_000))
        for cap in (2, 4, 6):
            x = random_field(rng, 2, cap)
            entries = [[e.truncate(cap) for e in row] for row in j.entries]
            assert j.apply(x).components == tuple(
                mat_vec(entries, list(x.components)))


class TestRecenter:
    def test_translation_only(self):
        m2, j2, basis = recenter(SPHERE, JSTD, (0, 0, 0, 0))
        assert m2.phi == SPHERE.phi
        assert j2.is_standard or j2.cap >= 0

    def test_origin_returns_the_problem_for_every_structure(self):
        # J(0) = J_std holds for every ACStructure, so the origin needs no
        # translation and no change of frame
        origin = (0, 0, 0, 0)
        for j in (JSTD, perturbed_structure(2, 6, 2)):
            m2, j2, basis = recenter(SPHERE, j, origin)
            assert m2 is SPHERE and j2 is j
            assert basis == identity(4)

    def test_recentered_surface_vanishes_at_origin(self):
        pt = (Q(1, 2), 0, Q(-1, 8), 0)
        assert SPHERE.phi.evaluate(list(pt)) == 0
        m2, j2, basis = recenter(SPHERE, JSTD, pt)
        assert m2.phi.constant_term() == 0
        assert m2.grad_at_zero() != tuple(Q(0) for _ in range(4))

    def test_recenter_perturbed_structure(self):
        j = perturbed_structure(2, 6, 2)
        pt = (Q(1, 2), 0, Q(-1, 8), 0)
        m2, j2, basis = recenter(SPHERE, j, pt)
        std = standard_matrix(2)
        for a in range(4):
            for b in range(4):
                assert j2.entries[a][b].coefficient((0, 0, 0, 0)) \
                    == std[a][b]

    def test_recenter_conjugates_the_whole_structure(self):
        # J'(y) = B^-1 J(p + B y) B, checked as B J'(y) = J(p + B y) B
        j = perturbed_structure(2, 6, 2)
        pt = (Q(1, 2), 0, Q(-1, 8), 0)
        std = standard_matrix(2)
        assert [[e.evaluate(pt) for e in row] for row in j.entries] != std
        m2, j2, b = recenter(SPHERE, j, pt)
        for y in ((Q(1, 3), 0, Q(-1), Q(2)), (Q(-2), Q(1, 2), 0, Q(1, 5)),
                  (Q(1), Q(1), Q(1), Q(-1, 4))):
            x = [p + sum(b[r][s] * y[s] for s in range(4))
                 for r, p in enumerate(pt)]
            jx = [[e.evaluate(x) for e in row] for row in j.entries]
            jy = [[e.evaluate(y) for e in row] for row in j2.entries]
            assert mat_mul(b, jy) == mat_mul(jx, b)
            assert m2.phi.evaluate(y) == SPHERE.phi.evaluate(x)

    def test_project_point_already_on_surface(self):
        pt = (Q(1, 2), 0, Q(-1, 8), 0)
        assert tuple(project_point_to_surface(SPHERE, pt)) == pt

    def test_project_point_along_gradient(self):
        pt = (0, 0, Q(1, 4), 0)  # off the flat hyperplane
        proj = project_point_to_surface(FLAT, pt)
        assert FLAT.phi.evaluate(list(proj)) == 0

    def test_project_point_without_rational_root(self):
        pt = (Q(1, 4), 0, Q(1, 4), 0)
        with pytest.raises(GeometryError):
            project_point_to_surface(SPHERE, pt)


def poly_mul(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


class TestRationalRoots:
    def test_products_of_linear_and_irreducible_quadratic_factors(self):
        rng = make_rng("geometry-roots")
        non_squares = (2, 3, 5, 6, 7, 10)
        for _ in range(60):
            poly = [Q(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))]
            want = set()
            for _ in range(rng.randint(0, 4)):
                root = Q(rng.randint(-9, 9), rng.randint(1, 7))
                want.add(root)
                for _ in range(rng.randint(1, 2)):
                    poly = poly_mul(poly, [-root, Q(1)])
            for _ in range(rng.randint(0, 2)):
                # t^2 - c (two irrational real roots) or t^2 + c (none)
                c = Q(rng.choice(non_squares), rng.choice([1, 3]) ** 2)
                poly = poly_mul(poly, [rng.choice([c, -c]), Q(0), Q(1)])
            assert _rational_roots(poly) == sorted(want)

    def test_zero_polynomial_and_root_at_origin(self):
        assert _rational_roots([Q(0), Q(0)]) == [Q(0)]
        assert _rational_roots([Q(0), Q(0), Q(-2), Q(1)]) == [Q(0), Q(2)]
        assert _rational_roots([Q(5)]) == []
