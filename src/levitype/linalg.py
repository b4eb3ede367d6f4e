"""Small exact linear algebra toolkit over Q.

Dense Gaussian elimination with deterministic pivoting (first nonzero entry
in column order), affine solves returning particular solution plus nullspace,
matrix inverse, an incremental span of vectors in fraction-free echelon
form, and the inertia of a symmetric matrix by symmetric elimination.  All matrices are lists of lists of rationals; sizes here are
tiny (<= ~10).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import gcd, lcm

from .rational import Q, ZERO


def identity(m: int):
    return [[Q(1) if i == j else ZERO for j in range(m)] for i in range(m)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        ai = a[i]
        for j in range(cols):
            s = ZERO
            for k in range(inner):
                aik = ai[k]
                if aik != 0:
                    s = s + aik * b[k][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if x != 0:
                s = s + x * y
        out.append(s)
    return out


@dataclass
class AffineSolution:
    consistent: bool
    particular: list | None  # free variables set to zero
    nullspace: list  # basis vectors of the homogeneous solution space


def solve_affine(a, b) -> AffineSolution:
    """Solve a x = b exactly; a is rows x cols, b length rows."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(map(Q, row)) + [Q(bi)] for row, bi in zip(a, b)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return AffineSolution(False, None, [])
    particular = [ZERO] * cols
    for row_idx, c in enumerate(pivots):
        particular[c] = m[row_idx][cols]
    free = [c for c in range(cols) if c not in pivots]
    nullspace = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = Q(1)
        for row_idx, c in enumerate(pivots):
            v[c] = -m[row_idx][fc]
        nullspace.append(v)
    return AffineSolution(True, particular, nullspace)


def mat_inverse(a):
    """Inverse of a square matrix, column i solving a x = e_i."""
    cols = []
    for e in identity(len(a)):
        sol = solve_affine(a, e)
        if not sol.consistent or sol.nullspace:
            raise ValueError("matrix is singular")
        cols.append(sol.particular)
    return [list(row) for row in zip(*cols)]


def _primitive(ints):
    """ints divided by their greatest common divisor."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


class Span:
    """The span over Q of vectors added one at a time.

    The span is kept as primitive integer rows in echelon form, each with
    its own pivot column.  A vector is reduced against the rows by
    fraction-free two-term elimination (in the style of Bareiss), each step
    made primitive again, so every entry stays a small integer and no
    fraction is formed.
    """

    def __init__(self):
        self.rows = []  # (pivot column, row), sorted by pivot

    def add(self, vec) -> bool:
        """Add vec; True when it was outside the span (and the span grew)."""
        vec = [Q(x) for x in vec]
        den = lcm(*(int(x.denominator) for x in vec))
        v = _primitive([int(x.numerator) * (den // int(x.denominator))
                        for x in vec])
        for p, row in self.rows:
            c = v[p]
            if c:
                a = row[p]
                v = _primitive([a * x - c * y for x, y in zip(v, row)])
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        insort(self.rows, (pivot, v))
        return True


def real_symmetric_signature(a):
    """(positive, negative, zero) eigenvalue counts of a symmetric rational matrix.

    Symmetric elimination a -> E a E^T reduces a to diagonal form; by
    Sylvester's law of inertia the signs of the pivots are the signs of the
    eigenvalues.  When every remaining diagonal entry is zero but a[i][k] is
    not, adding row k to row i and column k to column i makes 2 a[i][k] the
    next pivot.
    """
    m = len(a)
    for i in range(m):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    a = [list(map(Q, row)) for row in a]
    live = list(range(m))
    pos = neg = 0
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            pair = next(((i, k) for i in live for k in live if a[i][k] != 0),
                        None)
            if pair is None:
                break
            p, k = pair
            for t in live:
                a[p][t] += a[k][t]
            for t in live:
                a[t][p] += a[t][k]
        pivot = a[p][p]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        live.remove(p)
        for r in live:
            f = a[r][p] / pivot
            if f != 0:
                for c in live:
                    a[r][c] -= f * a[p][c]
    return pos, neg, m - pos - neg
