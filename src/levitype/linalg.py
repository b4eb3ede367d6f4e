"""Small exact linear algebra toolkit over Q.

One row elimination serves every exact solve and span test: rows are kept
as primitive integer vectors in echelon form, and _reduce clears their
pivots from a vector by fraction-free two-term steps (in the style of
Bareiss).  Span grows such rows one vector at a time; solve_affine puts
the rows of [a | b] in a Span, reduces them on to reduced row echelon
form and reads its particular solution and nullspace from that form;
mat_inverse solves for each column.  real_symmetric_signature is no row
reduction but a congruence a -> E a E^T, and counts the signs of its
pivots.  All matrices are lists of lists of rationals; sizes here are tiny
(<= ~10).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import gcd, lcm

from .rational import Q, ZERO


def identity(m: int):
    return [[Q(1) if i == j else ZERO for j in range(m)] for i in range(m)]


def mat_mul(a, b):
    """The matrix product a . b, one mat_vec per column of b."""
    cols = [mat_vec(a, [row[k] for row in b]) for k in range(len(b[0]))]
    return [list(row) for row in zip(*cols)]


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


def primitive(vec):
    """The primitive integer vector that is a positive multiple of the
    rational vector vec; the zero vector stays zero."""
    den = lcm(*(int(x.denominator) for x in vec))
    ints = [int(x.numerator) * (den // int(x.denominator)) for x in vec]
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _reduce(v, rows):
    """The integer vector v with its entry at each row's pivot cleared.

    rows holds (pivot, row) pairs sorted by pivot, each row zero before its
    pivot.  Each step is fraction-free two-term elimination (in the style
    of Bareiss), made primitive again, so the entries stay small integers.
    """
    for p, row in rows:
        c = v[p]
        if c:
            a = row[p]
            v = [a * x - c * y for x, y in zip(v, row)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
    return v


class Span:
    """The span over Q of vectors added one at a time.

    The span is kept as primitive integer rows in echelon form, each with
    its own pivot column, and a vector is reduced against them by
    _reduce, so no fraction is formed.
    """

    def __init__(self):
        self.rows = []  # (pivot column, row), sorted by pivot

    def add(self, vec) -> bool:
        """Add vec; True when it was outside the span (and the span grew)."""
        v = _reduce(primitive(vec), self.rows)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        insort(self.rows, (pivot, v))
        return True


def solve_affine(a, b) -> AffineSolution:
    """Solve a x = b exactly; a is rows x cols, b length rows.

    A Span of the rows of [a | b] holds them in integer echelon form, and
    each row is then reduced against the rows below it, which gives the
    reduced row echelon form up to the scale of each row.  That form is
    unique, and the answer is read from it: the particular solution with
    every free variable 0, and one nullspace vector per free column, with
    that column 1.
    """
    cols = len(a[0]) if a else 0
    span = Span()
    for row, bi in zip(a, b):
        span.add([*row, bi])
    rows = span.rows
    if rows and rows[-1][0] == cols:  # a row 0 = nonzero
        return AffineSolution(False, None, [])
    for i in range(len(rows) - 2, -1, -1):
        p, v = rows[i]
        rows[i] = p, _reduce(v, rows[i + 1:])
    particular = [ZERO] * cols
    for p, v in rows:
        particular[p] = Q(v[cols], v[p])
    pivots = {p for p, _ in rows}
    nullspace = []
    for f in range(cols):
        if f not in pivots:
            w = [ZERO] * cols
            w[f] = Q(1)
            for p, v in rows:
                if v[f]:
                    w[p] = Q(-v[f], v[p])
            nullspace.append(w)
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
