"""Shared randomized-input generators.

Every suite draws from random.Random streams keyed by LEVITYPE_SEED (default
0) plus a per-suite tag, so runs are reproducible and suites stay independent
of execution order.
"""

import os
import random
from functools import lru_cache
from itertools import product as iproduct

from levitype import (
    ACStructure,
    Hypersurface,
    Q,
    TruncatedSeries,
    VectorField,
    perturbed_structure,
    project_to_complex_tangent,
)
from levitype.disks import _Transport
from levitype.geometry import constant_matrix, standard_matrix
from levitype.jets import mat_mul
from levitype.linalg import AffineSolution
from levitype.rational import ZERO, rat

SEED = int(os.environ.get("LEVITYPE_SEED", "0"))


def make_rng(tag: str) -> random.Random:
    return random.Random(f"{SEED}:{tag}")


@lru_cache(maxsize=None)
def monomials(num_vars: int, lo: int, hi: int):
    out = []
    for exps in iproduct(range(hi + 1), repeat=num_vars):
        if lo <= sum(exps) <= hi:
            out.append(exps)
    return tuple(out)


def random_rational(rng, span=4):
    return Q(rng.randint(-span, span), rng.choice((1, 2, 3)))


def random_phi(rng, n: int, cap: int, max_degree: int = 4) -> Hypersurface:
    """Graph-form surface: 2*x_n plus random terms of degree 2..max_degree."""
    nv = 2 * n
    terms = {}
    pool = monomials(nv, 2, max_degree)
    for exps in rng.sample(pool, min(rng.randint(3, 8), len(pool))):
        c = random_rational(rng)
        if c != 0:
            terms[exps] = c
    terms[tuple(1 if i == 2 * (n - 1) else 0 for i in range(nv))] = Q(2)
    return Hypersurface(n, TruncatedSeries(nv, cap, terms))


def random_structure(rng, n: int, cap: int) -> ACStructure:
    return perturbed_structure(n, cap, rng.randrange(1_000_000))


def truncated_structure(j: ACStructure, cap: int) -> ACStructure:
    """J with every entry truncated to cap, built and checked afresh."""
    return ACStructure(j.n, [[e.truncate(cap) for e in row]
                             for row in j.entries])


def random_vector(rng, nv: int, span=3):
    return tuple(random_rational(rng, span) for _ in range(nv))


def fresh_disk(j: ACStructure, jet, order: int):
    """The disk of jet, padded with zeros to order, by a transport of its
    own: an oracle that shares no state with the transport states that J
    holds, from which propagate_cr_jet may start."""
    vecs = [tuple(rat(c) for c in v) for v in jet[:order]]
    vecs += [(ZERO,) * (2 * j.n)] * (order - len(vecs))
    return _Transport(j, order).extend(*vecs).disk()


def random_field(rng, n: int, cap: int, degree: int = 2) -> VectorField:
    """Random polynomial vector field, not tangent to anything."""
    nv = 2 * n
    comps = []
    pool = monomials(nv, 0, degree)
    for _ in range(nv):
        terms = {}
        for exps in rng.sample(pool, min(3, len(pool))):
            c = random_rational(rng, 2)
            if c != 0:
                terms[exps] = c
        comps.append(TruncatedSeries(nv, cap, terms))
    return VectorField(n, comps)


def random_tangent_field(rng, m: Hypersurface, j: ACStructure, cap: int,
                         degree: int = 2, nonzero_at_0: bool = True):
    """Random polynomial field projected into the complex tangent bundle."""
    for _ in range(32):
        x = project_to_complex_tangent(m, j, random_field(rng, m.n, cap,
                                                          degree))
        if not nonzero_at_0 or any(v != 0 for v in x.at_zero()):
            return x
    raise AssertionError("could not draw a tangent field with X(0) != 0")


def scale_field(x: VectorField, s: TruncatedSeries) -> VectorField:
    """The field s * X, each component multiplied at the common cap."""
    cap = min(s.cap, x.cap)
    s = s.truncate(cap)
    return VectorField(x.n, [s * c.truncate(cap) for c in x.components])


def random_positive_unit(rng, nv: int, cap: int, degree: int = 2):
    """Series f with f(0) > 0, random higher terms: a positive multiplier."""
    terms = {tuple(0 for _ in range(nv)): Q(rng.randint(1, 3))}
    for exps in rng.sample(monomials(nv, 1, degree),
                           min(3, len(monomials(nv, 1, degree)))):
        c = random_rational(rng, 2)
        if c != 0:
            terms[exps] = c
    return TruncatedSeries(nv, cap, terms)


def nonlinear_structure(rng, n, cap):
    """J = A J_std A^-1 with A = I + N, N strictly upper triangular.

    Each entry of N above the diagonal sums a linear monomial and a
    quadratic one, pure or mixed, so A^-1 = I - N + N^2 - ... terminates
    and J's entries hold several monomials of degree 2..4 sharing variables.
    """
    n2 = 2 * n
    zero = TruncatedSeries.zero(n2, cap)

    def monomial(degree):
        exps = [0] * n2
        for _ in range(degree):
            exps[rng.randrange(n2)] += 1
        return tuple(exps)

    nmat = [[zero] * n2 for _ in range(n2)]
    for i in range(n2):
        for k in range(i + 1, n2):
            nmat[i][k] = TruncatedSeries(n2, cap, {
                monomial(1): Q(rng.choice((-2, -1, 1, 2)),
                               rng.choice((1, 2, 3))),
                monomial(2): Q(rng.choice((-1, 1)), rng.choice((1, 2)))})
    ident = constant_matrix([[int(i == k) for k in range(n2)]
                             for i in range(n2)], n2, cap)
    amat = [[ident[i][k] + nmat[i][k] for k in range(n2)] for i in range(n2)]
    ainv, power, sign = ident, nmat, -1
    while any(not e.is_zero() for row in power for e in row):
        ainv = [[ainv[i][k] + power[i][k].scale(sign) for k in range(n2)]
                for i in range(n2)]
        power, sign = mat_mul(power, nmat), -sign
    jstd = constant_matrix(standard_matrix(n), n2, cap)
    return ACStructure(n, mat_mul(mat_mul(amat, jstd), ainv))


def reference_solve_affine(a, b) -> AffineSolution:
    """solve_affine as Gauss-Jordan elimination on rationals, pivoting on
    the first nonzero entry in column order: an oracle that shares no code
    with the fraction-free echelon of levitype.linalg."""
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
