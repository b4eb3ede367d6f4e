"""The multiply-accumulate kernel and the tangent basis chosen at 0.

mat_vec, dphi, ACStructure.apply and covariant_derivative are checked
against a reference that truncates every operand to the product's cap and
then multiplies term by term over rationals.  complex_tangent_basis and
adapted_frame_matrix are checked against the greedy that re-solved the kept
system with solve_affine for every candidate; that greedy and the Span test
solve with reference_solve_affine, since Span and solve_affine share one
echelon.
"""

from math import gcd
from operator import add

import pytest
from conftest import (SEED, make_rng, nonlinear_structure, random_rational,
                      reference_solve_affine)

from levitype import (
    ACStructure,
    GeometryError,
    Hypersurface,
    Q,
    TruncatedSeries,
    VectorField,
    complex_tangent_basis,
    covariant_derivative,
    hermitian_levi_matrix,
    linalg,
    perturbed_structure,
    project_to_complex_tangent,
)
from levitype.geometry import adapted_frame_matrix, apply_jstd, standard_matrix
from levitype.jets import mat_vec
from levitype.linalg import Span

# caps on both sides of the key-width boundary at 256
WIDE_CAPS = (255, 256, 300)


def reference_dot(pairs, num_vars, cap):
    """sum a * b through cap: each operand truncated to cap, then every
    product formed term by term."""
    acc = {}
    for a, b in pairs:
        for ea, ca in a.truncate(cap).terms():
            for eb, cb in b.truncate(cap).terms():
                e = tuple(map(add, ea, eb))
                if sum(e) <= cap:
                    acc[e] = acc.get(e, 0) + ca * cb
    return TruncatedSeries(num_vars, cap, acc)


def reference_mat_vec(matrix, vector, cap):
    return [reference_dot(zip(row, vector), vector[0].num_vars, cap)
            for row in matrix]


def random_series(rng, num_vars, cap, terms=4, zero=0.0):
    """Up to terms monomials of random degree 0..cap; zero with the given
    probability."""
    if rng.random() < zero:
        return TruncatedSeries.zero(num_vars, cap)
    out = {}
    for _ in range(terms):
        e = [0] * num_vars
        for _ in range(rng.randint(0, cap)):
            e[rng.randrange(num_vars)] += 1
        out[tuple(e)] = random_rational(rng)
    return TruncatedSeries(num_vars, cap, out)


def random_vector_field(rng, n, cap, zero=0.3):
    return VectorField(n, [random_series(rng, 2 * n, cap, zero=zero)
                           for _ in range(2 * n)])


def cap_pairs(rng):
    """(product cap, operand caps): random small caps, then caps across the
    key-width boundary."""
    out = []
    for _ in range(6):
        cap = rng.randint(1, 9)
        out.append((cap, [cap + rng.randint(0, 3) for _ in range(2)]))
    for cap in WIDE_CAPS:
        out.append((cap, [c for c in WIDE_CAPS if c >= cap][-2:] + [cap]))
    return out


class TestMatVec:
    def test_matches_the_reference(self):
        rng = make_rng("kernel-mat-vec")
        for cap, caps in cap_pairs(rng):
            nv = rng.choice((1, 2, 3))
            size = rng.randint(1, 4)
            matrix = [[random_series(rng, nv, rng.choice(caps), zero=0.3)
                       for _ in range(size)] for _ in range(size)]
            matrix[rng.randrange(size)] = [TruncatedSeries.zero(nv, c)
                                           for c in caps[:1] * size]
            vector = [random_series(rng, nv, rng.choice(caps), zero=0.3)
                      for _ in range(size)]
            assert mat_vec(matrix, vector, cap) \
                == reference_mat_vec(matrix, vector, cap)

    def test_default_cap_is_the_vectors(self):
        rng = make_rng("kernel-mat-vec-default")
        for _ in range(10):
            cap = rng.randint(1, 8)
            matrix = [[random_series(rng, 2, cap + rng.randint(0, 2))
                       for _ in range(3)] for _ in range(2)]
            vector = [random_series(rng, 2, cap, zero=0.3) for _ in range(3)]
            out = mat_vec(matrix, vector)
            assert [s.cap for s in out] == [cap, cap]
            assert out == reference_mat_vec(matrix, vector, cap)

    def test_zero_vector_gives_zero_rows(self):
        zero = TruncatedSeries.zero(2, 4)
        one = TruncatedSeries.constant(Q(3, 2), 2, 4)
        out = mat_vec([[one, one], [zero, zero]], [zero, zero])
        assert all(s == zero for s in out)

    def test_operand_below_the_cap_is_rejected(self):
        x = TruncatedSeries.variable(0, 2, 3)
        with pytest.raises(ValueError):
            mat_vec([[x]], [TruncatedSeries.variable(1, 2, 5)], 5)
        with pytest.raises(ValueError):
            mat_vec([[TruncatedSeries.variable(0, 3, 5)]], [x])


class TestGeometryOnTheKernel:
    def test_dphi(self):
        rng = make_rng("kernel-dphi")
        for cap, caps in cap_pairs(rng):
            n = rng.choice((1, 2))
            phi = random_series(rng, 2 * n, max(caps) + 1, terms=6)
            # phi(0) = 0 and d phi / d x_n (0) = 1
            linear = tuple(int(t == 2 * n - 2) for t in range(2 * n))
            phi = (phi - TruncatedSeries.constant(phi.constant_term(), 2 * n,
                                                  phi.cap)
                   + TruncatedSeries.variable(2 * n - 2, 2 * n, phi.cap)
                   .scale(1 - phi.coefficient(linear)))
            m = Hypersurface(n, phi)
            x = random_vector_field(rng, n, min(caps))
            want = reference_dot(zip(m.gradient, x.components), 2 * n,
                                 min(x.cap, m.cap - 1))
            assert m.dphi(x) == want

    def test_apply(self):
        rng = make_rng("kernel-apply")
        for cap, caps in cap_pairs(rng):
            n = rng.choice((1, 2))
            j = perturbed_structure(n, max(caps), rng.randrange(1_000_000))
            x = random_vector_field(rng, n, min(caps))
            low = min(j.cap, x.cap)
            want = reference_mat_vec(j.entries, x.components, low)
            assert j.apply(x) == VectorField(n, want)
            y = random_vector_field(rng, n, max(caps))
            jl = perturbed_structure(n, min(caps), rng.randrange(1_000_000))
            want = reference_mat_vec(jl.entries, y.components, jl.cap)
            assert jl.apply(y) == VectorField(n, want)

    def test_standard_apply_is_the_product_by_its_entries(self):
        # J_std moves components, term for term what mat_vec of its
        # constant entries gives, at the field's cap
        rng = make_rng("kernel-apply-std")
        for cap in (*range(7), 256):
            for n in (1, 2):
                j = ACStructure.standard(n, cap)
                x = random_vector_field(rng, n, cap)
                out = j.apply(x)
                want = mat_vec(j.entries, x.components)
                assert out.cap == cap
                assert [(c._terms, c._den) for c in out.components] == \
                    [(c._terms, c._den) for c in want]

    def test_apply_of_a_zero_field(self):
        j = perturbed_structure(2, 4, SEED)
        zero = VectorField.constant(2, (0, 0, 0, 0), 4)
        assert j.apply(zero) == zero

    def test_covariant_derivative(self):
        rng = make_rng("kernel-covariant")
        for cap, caps in cap_pairs(rng):
            n = rng.choice((1, 2))
            ycap = max(cap, 1) + 1
            x = random_vector_field(rng, n, ycap)
            y = random_vector_field(rng, n, ycap)
            want = [reference_dot(((xv, yi.partial(v))
                                   for v, xv in enumerate(x.components)),
                                  2 * n, ycap - 1)
                    for yi in y.components]
            assert covariant_derivative(x, y) == VectorField(n, want)

    def test_covariant_derivative_reuses_its_direction(self):
        # a word table differentiates many fields along one direction,
        # whose operands are formed once; a zero component of Y gives the
        # zero series in its reduced form
        rng = make_rng("kernel-covariant-reuse")
        for n in (1, 2, 3):
            x = random_vector_field(rng, n, 5)
            for _ in range(4):
                y = random_vector_field(rng, n, 5, zero=0.6)
                want = [reference_dot(((xv, yi.partial(v))
                                       for v, xv in enumerate(x.components)),
                                      2 * n, 4)
                        for yi in y.components]
                got = covariant_derivative(x, y).components
                assert [(c._terms, c._den) for c in got] == \
                    [(c._terms, c._den) for c in want]

    def test_covariant_derivative_along_a_zero_field(self):
        rng = make_rng("kernel-covariant-zero")
        y = random_vector_field(rng, 2, 5)
        zero = VectorField.constant(2, (0, 0, 0, 0), 5)
        assert covariant_derivative(zero, y) == zero.truncate(4)


# ---------------------------------------------------------------------------
# the tangent basis at 0


def solve_affine_basis(m, j):
    """complex_tangent_basis as the greedy that projects every coordinate
    field and keeps it unless its value at 0 solves the system of the kept
    values and their J_std images."""
    cap = min(m.cap - 1, (j.cap if j.is_standard else j.cap - 1))
    basis, values = [], []
    for i in range(2 * m.n):
        if len(basis) == m.n - 1:
            break
        cand = project_to_complex_tangent(
            m, j, VectorField.coordinate(m.n, i, cap))
        val = list(cand.at_zero())
        if all(v == 0 for v in val):
            continue
        if values and reference_solve_affine([list(c) for c in zip(*values)],
                                             val).consistent:
            continue
        basis.append(cand)
        values += [val, apply_jstd(val)]
    assert len(basis) == m.n - 1
    return basis


def solve_affine_frame(j0):
    """adapted_frame_matrix as the greedy that re-solves the kept columns
    for every candidate."""
    size = len(j0)
    cols = []
    for idx in range(size):
        if len(cols) == size:
            break
        cand = [Q(int(r == idx)) for r in range(size)]
        if cols and reference_solve_affine([list(c) for c in zip(*cols)],
                                           cand).consistent:
            continue
        cols += [cand, linalg.mat_vec(j0, cand)]
    if len(cols) != size:
        raise GeometryError("could not build a complex-adapted basis")
    return [list(col) for col in zip(*cols)]


def slanted_surface(rng, n, cap):
    """phi with a random linear part, so that grad phi(0) is not a
    coordinate direction, plus random quadratic terms."""
    nv = 2 * n
    terms = {}
    for i in range(nv):
        if rng.random() < 0.6:
            terms[tuple(int(t == i) for t in range(nv))] = random_rational(rng)
    i = rng.randrange(nv)
    terms[tuple(int(t == i) for t in range(nv))] = Q(1)
    for _ in range(4):
        e = [0] * nv
        e[rng.randrange(nv)] += 1
        e[rng.randrange(nv)] += 1
        terms[tuple(e)] = random_rational(rng)
    return Hypersurface(n, TruncatedSeries(nv, cap, terms))


def structures(rng, n, cap):
    yield ACStructure.standard(n, cap)
    yield perturbed_structure(n, cap, rng.randrange(1_000_000))
    yield nonlinear_structure(rng, n, cap)


class TestTangentBasisOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_the_solve_affine_greedy(self, n):
        rng = make_rng(f"kernel-basis-{n}")
        for _ in range(2):
            m = slanted_surface(rng, n, 3)
            for j in structures(rng, n, 3):
                assert complex_tangent_basis(m, j) == solve_affine_basis(m, j)

    def test_basis_calls_no_solve_affine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("solve_affine was called")

        rng = make_rng("kernel-basis-no-solve")
        m = slanted_surface(rng, 4, 3)
        j = perturbed_structure(4, 3, rng.randrange(1_000_000))
        want = solve_affine_basis(m, j)
        monkeypatch.setattr(linalg, "solve_affine", refuse)
        assert complex_tangent_basis(m, j) == want
        hermitian_levi_matrix(m, j)
        adapted_frame_matrix(standard_matrix(3))

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_adapted_frame_matches_the_solve_affine_greedy(self, size):
        rng = make_rng(f"kernel-frame-{size}")
        std = standard_matrix(size // 2)
        for _ in range(6):
            # b J_std b^-1 for a random invertible b, and a matrix that is
            # no complex structure at all
            while True:
                b = [[random_rational(rng) for _ in range(size)]
                     for _ in range(size)]
                try:
                    b_inv = linalg.mat_inverse(b)
                except ValueError:
                    continue
                break
            for j0 in (linalg.mat_mul(linalg.mat_mul(b, std), b_inv), b):
                try:
                    want = solve_affine_frame(j0)
                except GeometryError:
                    with pytest.raises(GeometryError):
                        adapted_frame_matrix(j0)
                    continue
                assert adapted_frame_matrix(j0) == want


class TestSpan:
    def test_rank_and_membership(self):
        rng = make_rng("kernel-span")
        for _ in range(20):
            dim = rng.randint(1, 6)
            span, kept = Span(), []
            for _ in range(dim + 3):
                v = [random_rational(rng, 2) if rng.random() < 0.6 else Q(0)
                     for _ in range(dim)]
                outside = not kept or not reference_solve_affine(
                    [list(c) for c in zip(*kept)], v).consistent
                outside = outside and any(v)
                assert span.add(v) == outside
                if outside:
                    kept.append(v)
                assert len(span.rows) == len(kept)
                assert all(gcd(*row) == 1 for _, row in span.rows)

    def test_rows_are_primitive_integers(self):
        span = Span()
        span.add([Q(2, 3), Q(4, 3), 0])
        span.add([Q(1, 2), 0, Q(-3, 4)])
        for _, row in span.rows:
            assert all(type(c) is int for c in row)
            assert gcd(*row) == 1
