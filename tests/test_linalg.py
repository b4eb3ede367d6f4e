"""Exact linear algebra: affine solving and symmetric signatures.

solve_affine is checked bit for bit against reference_solve_affine, the
Gauss-Jordan elimination on rationals that it replaced.
"""

from conftest import make_rng, random_rational, reference_solve_affine

import pytest

from levitype.linalg import (
    identity,
    mat_inverse,
    mat_mul,
    real_symmetric_signature,
    solve_affine,
)
from levitype.rational import Q


def mat_vec(mat, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Q(0)) for row in mat]


class TestSolveAffine:
    def test_unique_solution(self):
        mat = [[Q(2), Q(1)], [Q(1), Q(-1)]]
        rhs = [Q(3), Q(0)]
        sol = solve_affine(mat, rhs)
        assert sol.consistent
        assert mat_vec(mat, sol.particular) == rhs
        assert sol.nullspace == []

    def test_underdetermined_nullspace(self):
        mat = [[Q(1), Q(2), Q(0)], [Q(0), Q(0), Q(1)]]
        rhs = [Q(4), Q(5)]
        sol = solve_affine(mat, rhs)
        assert sol.consistent
        assert mat_vec(mat, sol.particular) == rhs
        assert len(sol.nullspace) == 1
        for vec in sol.nullspace:
            assert mat_vec(mat, vec) == [Q(0), Q(0)]

    def test_inconsistent(self):
        mat = [[Q(1), Q(1)], [Q(2), Q(2)]]
        rhs = [Q(1), Q(3)]
        assert not solve_affine(mat, rhs).consistent

    def test_randomized_consistency(self):
        rng = make_rng("linalg")
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[random_rational(rng) for _ in range(cols)]
                   for _ in range(rows)]
            target = [random_rational(rng) for _ in range(cols)]
            rhs = mat_vec(mat, target)
            sol = solve_affine(mat, rhs)
            assert sol.consistent
            assert mat_vec(mat, sol.particular) == rhs
            for vec in sol.nullspace:
                assert mat_vec(mat, vec) == [Q(0)] * rows


def answer(sol):
    """Every value of a solution with its type, so equal answers are equal
    bit for bit."""
    def typed(vec):
        return [(type(x), x) for x in vec]
    return (sol.consistent,
            None if sol.particular is None else typed(sol.particular),
            [typed(v) for v in sol.nullspace])


def random_system(rng, rows, cols, rank, rational):
    """rows x cols with right-hand side, its augmented rows drawn from the
    span of rank random rows, so rank below rows makes it rank-deficient;
    one right-hand side is then moved half the time, which mostly makes it
    inconsistent."""
    basis = [[rational() for _ in range(cols + 1)] for _ in range(rank)]
    aug = [[sum((c * v[k] for c, v in
                 zip([rational() for _ in basis], basis)), Q(0))
            for k in range(cols + 1)] for _ in range(rows)]
    if rows and rng.random() < 0.5:
        aug[rng.randrange(rows)][cols] += 1
    return [row[:cols] for row in aug], [row[cols] for row in aug]


class TestAgainstReference:
    def check(self, mat, rhs):
        assert answer(solve_affine(mat, rhs)) == \
            answer(reference_solve_affine(mat, rhs))

    def test_random_systems(self):
        rng = make_rng("linalg-reference")

        def sparse():
            return random_rational(rng) if rng.random() < 0.6 else Q(0)
        for _ in range(400):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            self.check(*random_system(rng, rows, cols,
                                      rng.randint(0, min(rows, cols + 1)),
                                      sparse))

    def test_large_denominators(self):
        rng = make_rng("linalg-reference-large")

        def large():
            return Q(rng.randint(-10**30, 10**30),
                     rng.choice((1, 3, 10**20 + 39, 2**61 - 1)))
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check(*random_system(rng, rows, cols,
                                      rng.randint(0, min(rows, cols)), large))

    def test_edge_shapes(self):
        rng = make_rng("linalg-reference-edges")
        one, zero = Q(1), Q(0)
        for mat, rhs in (([], []), ([[]], [zero]), ([[]], [one]),
                         ([[], []], [zero, one]), ([[zero]], [zero]),
                         ([[zero]], [one]), ([[zero, zero]], [zero]),
                         ([[zero] * 3] * 4, [zero] * 4),
                         ([[zero] * 3] * 4, [zero, zero, one, zero]),
                         ([[Q(3)], [Q(-6)]], [Q(1, 2), Q(-1)]),
                         ([[Q(3)], [Q(-6)]], [Q(1, 2), Q(1)])):
            self.check(mat, rhs)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            mat = [[random_rational(rng) for _ in range(cols)]
                   for _ in range(rows)]
            rhs = [random_rational(rng) for _ in range(rows)]
            for r in rng.sample(range(rows), rng.randint(0, rows)):
                mat[r] = [Q(0)] * cols  # zero rows, some with rhs 0
                if rng.random() < 0.5:
                    rhs[r] = Q(0)
            self.check(mat, rhs)
            self.check([row[:1] for row in mat], rhs)  # one column
            self.check([[Q(0)] * cols] * rows, [Q(0)] * rows)
            self.check([[Q(0)] * cols] * rows, rhs)


class TestInverse:
    def test_randomized_inverse(self):
        rng = make_rng("linalg-inverse")
        tried = 0
        while tried < 30:
            size = rng.randint(1, 5)
            mat = [[random_rational(rng) for _ in range(size)]
                   for _ in range(size)]
            try:
                inv = mat_inverse(mat)
            except ValueError:
                continue
            tried += 1
            assert mat_mul(mat, inv) == identity(size)
            assert mat_mul(inv, mat) == identity(size)

    def test_singular_raises(self):
        for mat in ([[Q(1), Q(2)], [Q(2), Q(4)]],
                    [[Q(0), Q(0)], [Q(0), Q(1)]],
                    [[Q(1), Q(0), Q(1)], [Q(0), Q(1), Q(1)],
                     [Q(1), Q(1), Q(2)]]):
            with pytest.raises(ValueError):
                mat_inverse(mat)


class TestMatMul:
    def test_matches_the_schoolbook_product(self):
        # rectangular, mostly zero: mat_mul is one mat_vec per column
        rng = make_rng("linalg-mat-mul")

        def sparse(r, c):
            return [[random_rational(rng) if rng.random() < 0.3 else Q(0)
                     for _ in range(c)] for _ in range(r)]
        for _ in range(40):
            rows, inner, cols = (rng.randint(1, 5) for _ in range(3))
            a, b = sparse(rows, inner), sparse(inner, cols)
            want = [[sum((a[i][k] * b[k][j] for k in range(inner)), Q(0))
                     for j in range(cols)] for i in range(rows)]
            assert mat_mul(a, b) == want


class TestSignature:
    def test_diagonal(self):
        mat = [[Q(2), Q(0), Q(0)],
               [Q(0), Q(-3), Q(0)],
               [Q(0), Q(0), Q(0)]]
        assert real_symmetric_signature(mat) == (1, 1, 1)

    def test_congruence_invariance(self):
        # A = P^T D P with invertible P keeps the signature of D
        d = [[Q(1), Q(0)], [Q(0), Q(-2)]]
        p = [[Q(1), Q(3)], [Q(1), Q(4)]]
        a = [[sum((p[k][i] * d[k][l] * p[l][j] for k in range(2)
                   for l in range(2)), Q(0))
              for j in range(2)] for i in range(2)]
        assert real_symmetric_signature(a) == real_symmetric_signature(d)

    def test_rank_one(self):
        # v v^T is positive semidefinite of rank 1
        v = [Q(1), Q(-2), Q(1, 2)]
        mat = [[vi * vj for vj in v] for vi in v]
        assert real_symmetric_signature(mat) == (1, 0, 2)

    def test_zero_diagonal(self):
        # no diagonal pivot: the pair step makes 2 a[i][k] the pivot
        mat = [[Q(0), Q(1)], [Q(1), Q(0)]]
        assert real_symmetric_signature(mat) == (1, 1, 0)
        mat = [[Q(0), Q(1), Q(0)],
               [Q(1), Q(0), Q(0)],
               [Q(0), Q(0), Q(0)]]
        assert real_symmetric_signature(mat) == (1, 1, 1)
