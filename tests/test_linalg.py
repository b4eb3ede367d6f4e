"""Exact linear algebra: affine solving and symmetric signatures."""

from conftest import make_rng, random_rational

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
