"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python over ``fractions.Fraction``: it imports
neither levitype nor sympy, so input generation stays out of every timed
region and shares no code with the program under test.  The same seed always
gives the same inputs.

A round is the fixed list of operations of one workload.  Each operation
has a shape: its dimension, caps, and which monomials of phi and which
entries of the structure are nonzero.  Shapes come from a random stream keyed
by the workload name alone, so they are the same for every seed (see
nonintegrable_structure for the one exception); the seed draws the
coefficients, jets and scan points.  Exact rational
arithmetic costs what the monomial structure makes it cost, so two seeds
give rounds of nearly the same cost while no two seeds give the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("standard", "nonstandard", "higher-levi")

# The six surfaces of `levitype catalog`: (name, n, phi, k_max, cap).
CATALOG = (
    ("sphere", 2, "2*x2 + abs2(z1)", 4, 8),
    ("circular quartic", 2, "2*x2 + abs2(z1)^2", 6, 10),
    ("circular sextic", 2, "2*x2 + abs2(z1)^3", 8, 12),
    ("harmonic quartic", 2, "2*x2 + Re(z1^2)", 8, 12),
    ("flat hyperplane", 2, "2*x2", 4, 8),
    ("indefinite quadric", 3, "2*x3 + abs2(z1) - abs2(z2)", 4, 8),
)

# Rigid n = 2 surfaces 2*x2 + P(z1, conj z1): (lowest mixed degree of P or
# None for a purely harmonic P, k_max).  Types 2..8 and the cap case; types
# 3..5 twice, so that the median query sits among many of similar cost.
RIGID_SHAPES = ((2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8), (8, 10),
                (None, 8), (None, 10), (3, 8), (4, 8), (5, 8))

# Surfaces through the complex line {z2 = 0} (see LINE_MONOMIALS): k_max.
LINE_SHAPES = (6, 8)

# Scans along curves through the origin of 2*x2 + abs2(z1)^m: (m, k_max, cap).
SCAN_SHAPES = ((2, 6, 10), (3, 8, 10))

# Non-standard structures: (n, cap, k_max, nilpotent entries, phi terms).
# The last, cheap shape moves the median query into a cluster of queries of
# similar cost; without it the median sat on a 12 % gap between two queries.
NONSTANDARD_SHAPES = ((2, 8, 6, 3, 4), (2, 8, 6, 4, 4), (2, 7, 5, 4, 5),
                      (3, 7, 5, 3, 4), (3, 7, 5, 4, 5), (3, 6, 4, 5, 5),
                      (3, 6, 4, 4, 5), (4, 6, 4, 3, 5), (4, 6, 4, 5, 6),
                      (4, 6, 4, 4, 6), (2, 6, 4, 2, 3))

# higher-levi instances: (n, r, nilpotent entries, phi terms).  The two
# r = 7 shapes appear twice, so that the median instance sits among four of
# similar cost.
HIGHER_LEVI_SHAPES = ((2, 6, 2, 4), (2, 7, 2, 4), (2, 8, 2, 4), (2, 8, 3, 5),
                      (3, 6, 2, 5), (3, 7, 2, 5), (3, 8, 2, 5), (2, 7, 2, 4),
                      (3, 7, 2, 5))


@dataclass(frozen=True)
class Problem:
    """One surface with its structure, as the program receives it.

    ``j_rows`` is None for J_std, else the 2n x 2n matrix of expression
    strings handed over as a ``("matrix", rows)`` spec.  ``kind`` tells the
    checker which independent expectation applies: "rigid" (n = 2 and
    phi = 2*x2 + P(z1, conj z1): Bloom-Graham type of P), "line" (contains
    the complex line spanned by ``line``: the search reaches its cap) or
    "random" (no expected type).
    """

    name: str
    n: int
    phi: str
    cap: int
    k_max: int
    j_rows: tuple | None = None
    kind: str = "random"
    line: tuple | None = None


@dataclass(frozen=True)
class Query:
    """One ``run_command`` call: command, problem index and scan points."""

    command: str
    problem: int
    points: tuple = ()


@dataclass(frozen=True)
class Instance:
    """One higher-levi instance: a problem, the order r and the x-jet."""

    problem: int
    order: int
    x_jet: tuple


@dataclass
class Workload:
    name: str
    problems: list
    queries: list = field(default_factory=list)
    instances: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}


def padd(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def mat_mul(a, b):
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for k in range(d):
            acc = {}
            for t in range(d):
                if a[i][t] and b[t][k]:
                    acc = padd(acc, pmul(a[i][t], b[t][k]))
            row.append(acc)
        out.append(row)
    return out


def var_name(i: int) -> str:
    return ("x" if i % 2 == 0 else "y") + str(i // 2 + 1)


def render(poly) -> str:
    """A polynomial in the program's expression language (real variables)."""
    bits = []
    for e, c in sorted(poly.items(), key=lambda t: (sum(t[0]), t[0])):
        mono = "*".join(var_name(i) + (f"^{k}" if k > 1 else "")
                        for i, k in enumerate(e) if k)
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else f"{mag}*{mono}"
        else:
            body = str(mag)
        bits.append(("-" if c < 0 else "+") + " " + body)
    if not bits:
        return "0"
    text = " ".join(bits)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _unit(d, i):
    return tuple(1 if t == i else 0 for t in range(d))


def _rational(rng, span=3, dens=(1, 2, 3)):
    return F(rng.choice([v for v in range(-span, span + 1) if v]),
             rng.choice(dens))


def _monomials(d, lo, hi):
    out = []

    def rec(prefix, left):
        if len(prefix) == d:
            if lo <= sum(prefix) <= hi:
                out.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    rec([], hi)
    return out


# ---------------------------------------------------------------------------
# structures


def standard_rows(n):
    d = 2 * n
    rows = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = {(0,) * d: F(-1)}
        rows[2 * i + 1][2 * i] = {(0,) * d: F(1)}
    return rows


def nijenhuis_at_zero(rows, n):
    """N_J(e_a, e_b)(0) for the coordinate fields, from the 1-jet of J.

    N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]; with constant X, Y
    only first derivatives of the entries enter.
    """
    d = 2 * n
    j0 = [[rows[i][k].get((0,) * d, F(0)) for k in range(d)] for i in range(d)]

    def dj(i, k, v):  # d J[i][k] / d x_v at 0
        return rows[i][k].get(_unit(d, v), F(0))

    out = {}
    for a in range(d):
        for b in range(a + 1, d):
            vec = []
            for i in range(d):
                s = F(0)
                for k in range(d):
                    s += j0[k][a] * dj(i, b, k) - j0[k][b] * dj(i, a, k)
                for l in range(d):
                    s += j0[i][l] * (dj(l, a, b) - dj(l, b, a))
                vec.append(s)
            out[(a, b)] = vec
    return out


def nonintegrable_structure(shape_rng, rng, n, entries):
    """J = A J_std A^-1 with A = I + N, N strictly triangular and linear.

    N has exactly ``entries`` nonzero entries, each a rational multiple of
    one coordinate, so A^-1 = I - N + N^2 - ... terminates and J^2 = -I is
    an exact polynomial identity.  ``shape_rng`` places the entries and
    ``rng`` draws their coefficients; draws repeat until the Nijenhuis
    tensor is nonzero at the origin, so J is not integrable there.  Only
    when sixteen coefficient draws in a row leave J integrable are the
    entries placed anew, which changes the shape for that seed.
    """
    d = 2 * n
    slots = [(i, k) for i in range(d) for k in range(i + 1, d)]
    while True:
        lower = shape_rng.random() < 0.5
        places = [(i, k, shape_rng.randrange(d))
                  for i, k in shape_rng.sample(slots, entries)]
        for _ in range(16):
            rows = _conjugated(n, places, lower,
                               [_rational(rng, 2) for _ in places])
            if any(any(v) for v in nijenhuis_at_zero(rows, n).values()):
                return rows


def _conjugated(n, places, lower, coeffs):
    d = 2 * n
    ident = [[{(0,) * d: F(1)} if i == k else {} for k in range(d)]
             for i in range(d)]
    nmat = [[{} for _ in range(d)] for _ in range(d)]
    for (i, k, var), c in zip(places, coeffs):
        if lower:
            i, k = k, i
        nmat[i][k] = {_unit(d, var): c}
    amat = [[padd(ident[i][k], nmat[i][k]) for k in range(d)]
            for i in range(d)]
    ainv = [row[:] for row in ident]
    power = [row[:] for row in nmat]
    sign = -1
    while any(e for row in power for e in row):
        ainv = [[padd(ainv[i][k], power[i][k], sign) for k in range(d)]
                for i in range(d)]
        power = mat_mul(power, nmat)
        sign = -sign
    return mat_mul(mat_mul(amat, standard_rows(n)), ainv)


def random_phi(shape_rng, rng, n, terms, lo=2, hi=4):
    """2*x_n plus ``terms`` monomials of degree lo..hi chosen by shape_rng."""
    d = 2 * n
    poly = {_unit(d, d - 2): F(2)}
    for e in shape_rng.sample(_monomials(d, lo, hi), terms):
        poly[e] = _rational(rng)
    return poly


# ---------------------------------------------------------------------------
# standard workload


def _rigid_term(c, a, b, part):
    """c * part(z1^a conj(z1)^b) in the expression language."""
    if a == b:
        body = f"abs2(z1)^{a}" if a > 1 else "abs2(z1)"
    else:
        factors = [f"z1^{a}" if a > 1 else "z1"] if a else []
        if b:
            factors.append(f"conj(z1)^{b}" if b > 1 else "conj(z1)")
        body = f"{part}({'*'.join(factors)})"
    mag = abs(c)
    return f" {'-' if c < 0 else '+'} " + (body if mag == 1
                                           else f"{mag}*{body}")


def rigid_phi(shape_rng, rng, lowest):
    """2*x2 + P(z1, conj z1) whose lowest mixed degree is ``lowest``.

    P also carries two harmonic terms (z1^a or conj(z1)^b) of degree
    2..lowest+1, which a holomorphic change of coordinates removes, and one
    mixed term of higher degree.  ``lowest`` None gives a harmonic P.
    """
    shape = []
    top = lowest if lowest is not None else 5
    for deg in sorted(shape_rng.sample(range(2, top + 2), 2)):
        a = shape_rng.choice((0, deg))
        shape.append((a, deg - a))
    if lowest is not None:
        a = shape_rng.randint(1, lowest - 1) if lowest > 2 else 1
        shape.append((a, lowest - a))
        deg = lowest + shape_rng.randint(1, 2)
        a = shape_rng.randint(1, deg - 1)
        shape.append((a, deg - a))
    parts = [shape_rng.choice(("Re", "Im")) for _ in shape]
    return "2*x2" + "".join(_rigid_term(_rational(rng), a, b, part)
                            for (a, b), part in zip(shape, parts))


# 2*x2 + x2*R + y2*S: every term but 2*x2 vanishes on the line {z2 = 0}.
LINE_MONOMIALS = (
    ((0, 1, 1, 0), (2, 0, 0, 1), (0, 0, 1, 1)),   # x2*y1, x1^2*y2, x2*y2
    ((1, 1, 0, 1), (0, 0, 2, 0), (0, 2, 1, 0)),   # x1*y1*y2, x2^2, y1^2*x2
)


def line_phi(rng, monomials):
    poly = {(0, 0, 1, 0): F(2)}
    for e in monomials:
        poly[e] = _rational(rng)
    return render(poly)


def _curve_points(rng, m):
    """The origin, two points with z1 != 0 of 2*x2 + abs2(z1)^m = 0, and
    one point of the same surface on the y2 axis."""
    pts = [(F(0), F(0), F(0), F(0))]
    for _ in range(2):
        t, s = _rational(rng, 2, (2, 4)), _rational(rng, 2, (2, 4))
        pts.append((t, s, -((t * t + s * s) ** m) / 2, F(0)))
    pts.append((F(0), F(0), F(0), _rational(rng, 2, (1, 2))))
    return tuple(pts)


def _streams(workload, seed):
    """(shape stream, value stream): shapes do not depend on the seed."""
    return (random.Random(f"{workload}:shapes"),
            random.Random(f"{workload}:{seed}"))


def standard_workload(seed: int) -> Workload:
    shape_rng, rng = _streams("standard", seed)
    problems = []
    for name, n, phi, k_max, cap in CATALOG:
        if n == 3:  # contains the complex line z1 = z2, z3 = 0
            problems.append(Problem(name, n, phi, cap, k_max, kind="line",
                                    line=((1, 0, 1, 0, 0, 0),
                                          (0, 1, 0, 1, 0, 0))))
        else:
            problems.append(Problem(name, n, phi, cap, k_max, kind="rigid"))
    for i, (lowest, k_max) in enumerate(RIGID_SHAPES):
        problems.append(Problem(f"rigid-{i}", 2,
                                rigid_phi(shape_rng, rng, lowest),
                                k_max + 2, k_max, kind="rigid"))
    for i, (k_max, monomials) in enumerate(zip(LINE_SHAPES, LINE_MONOMIALS)):
        problems.append(Problem(f"line-{i}", 2, line_phi(rng, monomials),
                                k_max + 2, k_max, kind="line",
                                line=((1, 0, 0, 0), (0, 1, 0, 0))))
    queries = []
    for idx in range(len(problems)):
        queries.append(Query("levi", idx))
        queries.append(Query("validate", idx))
    for m, k_max, cap in SCAN_SHAPES:
        problems.append(Problem(f"scan-{m}", 2, f"2*x2 + abs2(z1)^{m}", cap,
                                k_max, kind="rigid"))
        queries.append(Query("scan", len(problems) - 1,
                             _curve_points(rng, m)))
    return Workload("standard", problems, queries)


# ---------------------------------------------------------------------------
# non-standard workload


def nonstandard_workload(seed: int) -> Workload:
    shape_rng, rng = _streams("nonstandard", seed)
    problems, queries = [], []
    for i, (n, cap, k_max, entries, terms) in enumerate(NONSTANDARD_SHAPES):
        rows = nonintegrable_structure(shape_rng, rng, n, entries)
        phi = random_phi(shape_rng, rng, n, terms)
        problems.append(Problem(
            f"nonstandard-{i}", n, render(phi), cap,
            k_max, tuple(tuple(render(e) for e in row) for row in rows)))
        queries.append(Query("levi", i))
        queries.append(Query("validate", i))
    return Workload("nonstandard", problems, queries)


# ---------------------------------------------------------------------------
# higher-levi workload


def higher_levi_workload(seed: int) -> Workload:
    shape_rng, rng = _streams("higher-levi", seed)
    problems, instances = [], []
    for i, (n, r, entries, terms) in enumerate(HIGHER_LEVI_SHAPES):
        rows = nonintegrable_structure(shape_rng, rng, n, entries)
        phi = random_phi(shape_rng, rng, n, terms, 2, 5)
        problems.append(Problem(
            f"higher-levi-{i}", n, render(phi),
            r, 0, tuple(tuple(render(e) for e in row) for row in rows)))
        # integer x-jets: the cost of transport grows with the size of the
        # jet's rationals, which made the r = 8 instances vary by 30 %
        # from seed to seed
        jet = tuple(tuple(_rational(rng, 2, (1,)) for _ in range(2 * n))
                    for _ in range(r))
        instances.append(Instance(i, r, jet))
    return Workload("higher-levi", problems, instances=instances)


BUILDERS = {
    "standard": standard_workload,
    "nonstandard": nonstandard_workload,
    "higher-levi": higher_levi_workload,
}


def make_workload(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
