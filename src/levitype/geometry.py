"""Hypersurface geometry in R^(2n) with an almost complex structure.

Coordinates are ordered (x1, y1, x2, y2, ..., xn, yn); the standard structure
J_std acts per 2x2 block as J(d/dx_i) = d/dy_i, J(d/dy_i) = -d/dx_i.

All ingestion normalizes the base point to the origin.  A hypersurface is a
defining polynomial jet phi with phi(0) = 0 and grad phi(0) != 0; an almost
complex structure is a matrix of series with J(0) = J_std and J*J = -I as a
series identity through the cap.  Its constructor, the one way to build one,
checks both and decides once whether J is J_std, every entry its constant
(is_standard).  J_std is known at every order and any other J through its
cap (ACStructure.known); each cap check on a structure reads that, and
ACStructure.apply keeps its own J_std path.  Vector fields are tuples of
series sharing one cap.  The flat symmetric connection of the coordinates
is used for all covariant derivatives, so iterated derivatives are plain
directional derivatives of components.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CapError, GeometryError
from .jets import (TruncatedSeries, _dot, _new, _operand, _partial_terms,
                   compose, mat_mul, mat_vec)
from .rational import Q, ZERO


def standard_matrix(n: int):
    """J_std as a rational 2n x 2n matrix."""
    m = [[ZERO for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        m[2 * i][2 * i + 1] = Q(-1)
        m[2 * i + 1][2 * i] = Q(1)
    return m


def constant_matrix(mat, num_vars: int, cap: int):
    """A rational matrix as a matrix of constant series, one series per
    distinct value, shared by the entries that equal it.  Values are keyed
    by (numerator, denominator), which hashes faster than a Fraction."""
    keys = [[(v.numerator, v.denominator) for v in row] for row in mat]
    made = {k: TruncatedSeries.constant(Q(*k), num_vars, cap)
            for k in set().union(*keys)}
    return [[made[k] for k in row] for row in keys]


def apply_jstd(vec):
    """J_std applied to a rational vector."""
    out = []
    for i in range(0, len(vec), 2):
        out.append(-vec[i + 1])
        out.append(vec[i])
    return out


class VectorField:
    """Vector field on a neighborhood of 0 in R^(2n), components as series.

    _direction holds the field's operands as a direction of
    covariant_derivative, formed on first use.
    """

    __slots__ = ("n", "components", "_direction")

    def __init__(self, n: int, components):
        components = tuple(components)
        if len(components) != 2 * n:
            raise ValueError(f"need {2 * n} components, got {len(components)}")
        cap = components[0].cap
        for c in components:
            if c.num_vars != 2 * n:
                raise ValueError("component has wrong num_vars")
            if c.cap != cap:
                raise ValueError("components must share one cap")
        self.n = n
        self.components = components
        self._direction = None

    @property
    def cap(self) -> int:
        return self.components[0].cap

    @classmethod
    def constant(cls, n: int, vec, cap: int) -> "VectorField":
        return cls(n, [TruncatedSeries.constant(v, 2 * n, cap) for v in vec])

    @classmethod
    def coordinate(cls, n: int, i: int, cap: int) -> "VectorField":
        vec = [1 if j == i else 0 for j in range(2 * n)]
        return cls.constant(n, vec, cap)

    def at_zero(self):
        return tuple(c.constant_term() for c in self.components)

    def truncate(self, cap: int) -> "VectorField":
        if cap == self.cap:
            return self
        return VectorField(self.n, [c.truncate(cap) for c in self.components])

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.n, [a + b for a, b in
                                    zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.n, [a - b for a, b in
                                    zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.n, [-c for c in self.components])

    def scale(self, q) -> "VectorField":
        return VectorField(self.n, [c.scale(q) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    __hash__ = None

    def __repr__(self):
        return f"VectorField(n={self.n}, cap={self.cap}, value0={self.at_zero()})"


class Hypersurface:
    """Real hypersurface through the origin: the zero set of phi."""

    def __init__(self, n: int, phi: TruncatedSeries):
        if n < 1:
            raise GeometryError("ambient complex dimension must be >= 1")
        if phi.num_vars != 2 * n:
            raise GeometryError(
                f"phi has {phi.num_vars} variables, expected {2 * n}"
            )
        if phi.cap < 2:
            raise CapError("phi needs cap >= 2 to carry any geometry")
        if phi.constant_term() != 0:
            raise GeometryError("phi(0) != 0: the origin is not on the surface")
        self.n = n
        self.phi = phi
        self.gradient = tuple(phi.partial(i) for i in range(2 * n))
        if all(g.constant_term() == 0 for g in self.gradient):
            raise GeometryError("dphi(0) = 0: the surface is singular at the origin")

    @property
    def cap(self) -> int:
        return self.phi.cap

    def truncate(self, cap: int) -> "Hypersurface":
        if cap == self.cap:
            return self
        return Hypersurface(self.n, self.phi.truncate(cap))

    def grad_at_zero(self):
        return tuple(g.constant_term() for g in self.gradient)

    def dphi(self, x: VectorField) -> TruncatedSeries:
        """The series dphi(X); reliable cap is min(X.cap, phi.cap - 1)."""
        return mat_vec((self.gradient,), x.components,
                       min(x.cap, self.cap - 1))[0]

    def dphi_at_zero(self, vec):
        g = self.grad_at_zero()
        return sum((a * b for a, b in zip(g, vec)), ZERO)


class ACStructure:
    """Almost complex structure: 2n x 2n matrix of series, J(0)=J_std, J*J=-I.

    The constructor is the one way to build one, and it decides what J is
    in one row-major pass over the entries: each entry's constant, read
    as an integer numerator over the entry's denominator, must be the
    J_std entry (0 or +-1), and J is standard (is_standard) when every
    entry is exactly that integer constant.  J*J = -I is then checked as
    a series identity through the cap, for a non-standard J only.  J_std
    is known at every order, any other J through its cap (known).  apply
    keeps a J_std path, which reads no entry and keeps the field's cap.
    """

    def __init__(self, n: int, entries):
        n2 = 2 * n
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != n2 or any(len(r) != n2 for r in entries):
            raise GeometryError(f"J must be a {n2} x {n2} matrix")
        cap = entries[0][0].cap
        self.n = n
        self.entries = entries
        at_std = standard = True
        for a, row in enumerate(entries):
            for b, e in enumerate(row):
                if e.num_vars != n2 or e.cap != cap:
                    raise GeometryError("J entries must share num_vars and cap")
                # J_std is -1 at (2c, 2c+1), 1 at (2c+1, 2c) and 0 elsewhere
                v = (a & 1) - (b & 1) if a ^ b == 1 else 0
                if e._terms.get(0, 0) != v * e._den:
                    at_std = False
                elif e._den != 1 or len(e._terms) != (v != 0):
                    standard = False
        if not at_std:
            raise GeometryError(
                "J(0) != J_std; conjugate the structure at ingestion")
        self.is_standard = standard
        if standard:
            return
        # columns of J*J, scanned in row-major order for the error message
        cols = [mat_vec(entries, [row[b] for row in entries])
                for b in range(n2)]
        one = TruncatedSeries.constant(1, n2, cap)
        for a in range(n2):
            for b in range(n2):
                acc = cols[b][a] + one if a == b else cols[b][a]
                if not acc.is_zero():
                    raise GeometryError(
                        f"J*J != -I through cap {cap} at entry ({a},{b})")

    @property
    def cap(self) -> int:
        return self.entries[0][0].cap

    @property
    def known(self):
        """The order J is known through: math.inf for J_std, else the cap."""
        return math.inf if self.is_standard else self.cap

    @classmethod
    def standard(cls, n: int, cap: int) -> "ACStructure":
        return cls(n, constant_matrix(standard_matrix(n), 2 * n, cap))

    def apply(self, x: VectorField) -> VectorField:
        """J applied to a field; standard structures keep the field's cap."""
        if self.is_standard:
            return VectorField(self.n, apply_jstd(x.components))
        return VectorField(self.n, mat_vec(self.entries, x.components,
                                           min(self.cap, x.cap)))


def _projector(m: Hypersurface, j: ACStructure, cap: int):
    """project_to_complex_tangent for fields of cap >= cap, frame built once:
    N = grad phi and JN, whose cap is at most N's."""
    nf = VectorField(m.n, m.gradient)
    jn = j.apply(nf)
    cap = min(cap, jn.cap)
    nf, jn = nf.truncate(cap), jn.truncate(cap)
    p = m.dphi(nf)
    q = m.dphi(jn)
    denom = (p * p + q * q).inverse()

    def project(v: VectorField) -> VectorField:
        vt = v.truncate(cap)
        jv = j.apply(vt)  # cap <= j.cap
        r = m.dphi(vt)
        s = m.dphi(jv)
        a = (p * r + q * s) * denom
        b = (q * r - p * s) * denom
        an = VectorField(m.n, [a * c for c in nf.components])
        bjn = VectorField(m.n, [b * c for c in jn.components])
        return vt - an - bjn

    return project


def project_to_complex_tangent(m: Hypersurface, j: ACStructure,
                               v: VectorField) -> VectorField:
    """Component of V in the complex tangent bundle of M.

    Solves V = X + a N + b JN with dphi(X) = dphi(JX) = 0; the 2x2 system has
    unit determinant -(dphi(N)^2 + dphi(JN)^2), so a and b are honest series.
    The identities hold exactly through the returned cap.
    """
    return _projector(m, j, v.cap)(v)


def is_complex_tangent(m: Hypersurface, j: ACStructure, x: VectorField) -> bool:
    """Check dphi(X) = 0 and dphi(JX) = 0 as series identities."""
    if m.dphi(x).is_zero():
        jx = j.apply(x)
        return m.dphi(jx).is_zero()
    return False


def covariant_derivative(x: VectorField, y: VectorField) -> VectorField:
    """Flat connection: (D_X Y)_i = X(Y_i).  Result cap drops by one."""
    if x.cap != y.cap:
        raise ValueError("covariant_derivative needs matching caps")
    if y.cap == 0:
        raise CapError("cannot differentiate a field with cap 0")
    n2, cap = 2 * x.n, y.cap - 1
    xs = x._direction
    if xs is None:
        # X_v is read through cap; where it is zero, Y is not differentiated
        xs = x._direction = [(v, _operand(c, n2, cap))
                             for v, c in enumerate(x.components) if c._terms]
    comps = []
    for yi in y.components:
        if yi._terms and xs:
            items = sorted(yi._terms.items())
            comps.append(_dot([(xv, (_partial_terms(items, n2, y.cap, v),
                                     yi._den)) for v, xv in xs], n2, cap))
        else:
            comps.append(_new(n2, cap, {}, 1))
    return VectorField(x.n, comps)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = D_X Y - D_Y X for the flat connection.  Cap drops by one."""
    if x.cap != y.cap:
        raise ValueError("lie_bracket needs matching caps")
    return covariant_derivative(x, y) - covariant_derivative(y, x)


@dataclass
class FieldJet:
    """The triangle D^(p,q)X(0) = (JX)^q X^p . X (0) for p+q <= order."""

    order: int
    n: int
    entries: dict  # (p, q) -> tuple of rationals

    def entry(self, p: int, q: int):
        return self.entries[(p, q)]

    def to_dict(self):
        keys = sorted(self.entries, key=lambda pq: (pq[0] + pq[1], pq[1]))
        return {
            "order": self.order,
            "entries": {f"{p},{q}": [str(v) for v in self.entries[(p, q)]]
                        for p, q in keys},
        }


def word_table(fields):
    """word(bits) = D_{F_b1} ... D_{F_b(m-1)} F_bm for the fields F_b.

    Each word is built once from its inner word, its direction truncated to
    that word's cap, so a word of length m has cap F_bm.cap - (m - 1).  Each
    letter is truncated once per cap, for all the words of the table, so its
    operands as a direction are formed once per cap too.
    """
    table = {(b,): f for b, f in enumerate(fields)}
    letters = {}

    def word(bits):
        # outward from the longest suffix built; not recursive, so the
        # table is freed without the cyclic collector
        i = 0
        while bits[i:] not in table:
            i += 1
        f = table[bits[i:]]
        for i in range(i - 1, -1, -1):
            key = (bits[i], f.cap)
            if key not in letters:
                letters[key] = fields[bits[i]].truncate(f.cap)
            f = table[bits[i:]] = covariant_derivative(letters[key], f)
        return f

    return word


def field_jet(x: VectorField, j: ACStructure, k: int) -> FieldJet:
    """All D^(p,q)X(0), p + q <= k, on the word table of (X, JX) at cap k."""
    if k > x.cap:
        raise CapError(f"order {k} exceeds the field's cap {x.cap}")
    if k > j.known:
        raise CapError(f"order {k} exceeds the structure's cap {j.cap}")
    return _word_jet(word_table((x.truncate(k), j.apply(x).truncate(k))),
                     x.n, k)


def _word_jet(word, n: int, k: int) -> FieldJet:
    """D^(p,q)X(0), p + q <= k, on a word table of X and JX at cap k."""
    return FieldJet(k, n, {(p, q): word((1,) * q + (0,) * p + (0,)).at_zero()
                           for p in range(k + 1) for q in range(k + 1 - p)})


def _tangent_indices(grad):
    """The coordinates i whose projections complex_tangent_basis keeps.

    The greedy walks e_0, e_1, ... and keeps e_i when it lies outside
    span{g, J_std g, e_c, J_std e_c} over the kept c, g = grad; it stops
    at n - 1.  Each such span is J_std-invariant, so an odd i is never
    kept (e_i = J_std e_(i-1)), and over C it is the line of g plus the
    kept coordinate axes.  Axis c lies in the line of g plus axes 0..c-1
    exactly when g has a nonzero (x_c, y_c) part and none past it.  So the
    greedy skips the last axis c* where g is nonzero and keeps 2c for
    every other c: read at 0 from which entries of g are zero, with no
    elimination.
    """
    n = len(grad) // 2
    if n < 2:
        raise GeometryError("no complex tangent directions in complex dim 1")
    last = max(c for c in range(n) if grad[2 * c] or grad[2 * c + 1])
    return [2 * c for c in range(n) if c != last]


def complex_tangent_basis(m: Hypersurface, j: ACStructure):
    """Projections of coordinate directions spanning T^J_0 M over C.

    Greedy in coordinate order (_tangent_indices); returns n-1 fields whose
    values at 0 are complex linearly independent.  Deterministic.  The
    projection P at 0 is onto T^J_0 M along span{N(0), JN(0)}; both are
    J(0)-invariant and J(0) = J_std, so P commutes with J_std, and P e_i
    lies in the span of the kept P e_c and J_std P e_c exactly when e_i
    lies in span{N(0), JN(0), e_c, J_std e_c}.  That is decided at 0, and
    only the kept coordinate fields are projected.
    """
    kept = _tangent_indices(m.grad_at_zero())
    cap = min(m.cap - 1, (j.cap if j.is_standard else j.cap - 1))
    project = _projector(m, j, cap)
    return [project(VectorField.coordinate(m.n, i, cap)) for i in kept]


def adapted_frame_matrix(j0):
    """Columns (v1, J v1, v2, J v2, ...) for a constant complex structure j0.

    The returned matrix B satisfies B^-1 j0 B = J_std.
    """
    m = len(j0)
    span = linalg.Span()
    cols = []
    for cand_idx in range(m):
        if len(cols) == m:
            break
        cand = [Q(1) if r == cand_idx else ZERO for r in range(m)]
        if not span.add(cand):
            continue
        jc = linalg.mat_vec(j0, cand)
        span.add(jc)
        cols.append(cand)
        cols.append(jc)
    if len(cols) != m:
        raise GeometryError("could not build a complex-adapted basis")
    return [list(col) for col in zip(*cols)]  # columns -> matrix


def recenter(m: Hypersurface, j: ACStructure, point):
    """Translate a surface point to the origin and renormalize J(0) to J_std.

    Returns (hypersurface, structure, basis_matrix); the basis matrix B is the
    linear change of coordinates used after translation (identity when J(0)
    was already standard at the point).  At the origin, where every J is
    J_std (see ACStructure), m and j are returned as they are.
    """
    point = [Q(p) for p in point]
    if len(point) != 2 * m.n:
        raise GeometryError("point arity mismatch")
    if m.phi.evaluate(point) != 0:
        raise GeometryError("point does not lie on the surface")
    if all(p == 0 for p in point):
        return m, j, linalg.identity(2 * m.n)
    phi_p = m.phi.shift(point)
    entries_p = [[e.shift(point) for e in row] for row in j.entries]
    j0 = [[e.constant_term() for e in row] for row in entries_p]
    std = standard_matrix(m.n)
    if j0 == std:
        b = linalg.identity(2 * m.n)
        new_phi = phi_p
        new_entries = entries_p
    else:
        # J(p) must itself square to -I for a linear conjugation to exist
        minus_id = [[-v for v in row] for row in linalg.identity(2 * m.n)]
        if linalg.mat_mul(j0, j0) != minus_id:
            raise GeometryError("J at the point does not square to -I "
                                "exactly; cannot recenter")
        b = adapted_frame_matrix(j0)
        b_inv = linalg.mat_inverse(b)
        cap = m.cap
        lin = [TruncatedSeries(2 * m.n, cap,
                               {tuple(1 if t == s else 0 for t in range(2 * m.n)):
                                b[r][s] for s in range(2 * m.n) if b[r][s] != 0})
               for r in range(2 * m.n)]
        new_phi = phi_p.compose(lin)
        jcap = j.cap
        lin_j = [ls.truncate(jcap) for ls in lin] if jcap != cap else lin
        n2 = 2 * m.n
        flat = compose([e for row in entries_p for e in row], lin_j)
        comp = [flat[a:a + n2] for a in range(0, n2 * n2, n2)]
        new_entries = mat_mul(mat_mul(constant_matrix(b_inv, 2 * m.n, jcap),
                                      comp), constant_matrix(b, 2 * m.n, jcap))
    return Hypersurface(m.n, new_phi), ACStructure(m.n, new_entries), b


def project_point_to_surface(m: Hypersurface, point):
    """Exact projection of a nearby point onto the surface.

    Searches rational roots of t -> phi(point + t * grad phi(point)) and
    returns the corrected point for the root of smallest |t|.  Raises when
    phi(point) != 0 and no rational root exists: the engine never rounds.
    """
    point = [Q(p) for p in point]
    val = m.phi.evaluate(point)
    if val == 0:
        return point
    grad = [g.evaluate(point) for g in m.gradient]
    if all(g == 0 for g in grad):
        raise GeometryError("gradient vanishes at the point; cannot project")
    poly = _line_restriction(m.phi, point, grad)
    roots = _rational_roots(poly)
    if not roots:
        raise GeometryError(
            "point is off the surface and has no exact rational projection "
            "along the gradient line"
        )
    t = min(roots, key=lambda r: (abs(r), r < 0))
    return [p + t * g for p, g in zip(point, grad)]


def _line_restriction(phi: TruncatedSeries, point, direction):
    """Coefficients [c0, ..., c_cap] of t -> phi(point + t*direction).

    Exact: phi has degree <= cap and the substitution is linear in t.
    """
    t = TruncatedSeries.variable(0, 1, phi.cap)
    line = phi.shift(point).compose([t.scale(d) for d in direction])
    return [line.coefficient((k,)) for k in range(phi.cap + 1)]


def _rational_roots(coeffs):
    """All rational roots of a polynomial with rational coefficients.

    Sturm sequences isolate the real roots of the square-free part, and
    bisection by sign narrows each below 1/(2 lead^2), where lead is the
    leading coefficient of that part as a primitive integer polynomial.  A
    rational root p/q has q dividing lead, so it is the fraction nearest the
    narrowed interval with denominator <= |lead|: one exact check per real
    root.  The interval of an irrational root may also snap to a nearby
    rational root, which the check accepts; a set keeps each root once.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return [ZERO]
    if len(coeffs) == 1:
        return []
    common, rem = coeffs, _poly_deriv(coeffs)
    while rem:
        common, rem = rem, _poly_divmod(common, rem)[1]
    sturm = [_poly_divmod(coeffs, common)[0]]  # square-free: simple roots
    sturm.append(_poly_deriv(sturm[0]))
    while len(sturm[-1]) > 1:  # ends in a nonzero constant
        sturm.append([-c for c in _poly_divmod(sturm[-2], sturm[-1])[1]])
    sturm = [linalg.primitive(p) for p in sturm]  # same signs, integers
    poly = sturm[0]
    lead = abs(poly[-1])

    def changes(x):
        vals = [v for v in (_poly_eval(p, x) for p in sturm) if v]
        return sum((a > 0) != (b > 0) for a, b in zip(vals, vals[1:]))

    bound = 1 + max(abs(Q(c, lead)) for c in poly)
    roots = set()
    width = Q(1, 2 * lead * lead)
    # half-open intervals (lo, hi] with the sign changes at both ends
    stack = [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, c_lo, c_hi = stack.pop()
        if c_lo - c_hi > 1:
            mid = (lo + hi) / 2
            c_mid = changes(mid)
            stack += [(lo, mid, c_lo, c_mid), (mid, hi, c_mid, c_hi)]
        elif c_lo - c_hi == 1:
            # the root stays in [lo, hi]: poly keeps the sign of poly(hi)
            # strictly on the side of hi
            v_hi = _poly_eval(poly, hi)
            while hi - lo >= width:
                mid = (lo + hi) / 2
                if _poly_eval(poly, mid) * v_hi > 0:
                    hi = mid
                else:
                    lo = mid
            cand = Q(Fraction((lo + hi) / 2).limit_denominator(lead))
            if _poly_eval(poly, cand) == 0:
                roots.add(cand)
    return sorted(roots)


def _poly_eval(p, x):
    """b^deg p(a/b) for x = a/b, b > 0: an integer with the sign of p(x).

    p holds integer coefficients, low to high.
    """
    a, b = int(x.numerator), int(x.denominator)
    val, b_pow = 0, 1
    for c in reversed(p):
        val = val * a + c * b_pow
        b_pow *= b
    return val


def _poly_deriv(p):
    return [c * i for i, c in enumerate(p) if i]


def _poly_divmod(a, b):
    """(quotient, remainder) over Q; the remainder has no trailing zeros."""
    a, quo = list(a), [ZERO] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        quo[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return quo, a


def perturbed_structure(n: int, cap: int, seed: int) -> ACStructure:
    """Admissible test structure J = A J_std A^-1 with A = I + nilpotent linear.

    The perturbation N is strictly triangular (upper or lower, per seed) with
    entries linear in the coordinates, so A^-1 = I - N + N^2 - ... terminates
    and J*J = -I holds as an exact polynomial identity (then truncated to the
    cap).
    """
    rng = random.Random(seed)
    n2 = 2 * n
    zero = TruncatedSeries.zero(n2, cap)
    lower = rng.random() < 0.5

    def rand_linear():
        var = rng.randrange(n2)
        num = rng.choice([-2, -1, 1, 2])
        den = rng.choice([1, 2, 3])
        exps = tuple(1 if t == var else 0 for t in range(n2))
        return TruncatedSeries(n2, cap, {exps: Q(num, den)})

    nmat = [[zero for _ in range(n2)] for _ in range(n2)]
    placed = 0
    for i in range(n2):
        for k in range(i + 1, n2):
            if rng.random() < 0.6:
                if lower:
                    nmat[k][i] = rand_linear()
                else:
                    nmat[i][k] = rand_linear()
                placed += 1
    if placed == 0:
        nmat[0][n2 - 1] = rand_linear()

    ident = constant_matrix(linalg.identity(n2), n2, cap)
    amat = [[ident[i][k] + nmat[i][k] for k in range(n2)] for i in range(n2)]
    ainv = [row[:] for row in ident]
    power = [row[:] for row in nmat]
    sign = -1
    while any(not e.is_zero() for row in power for e in row):
        ainv = [[ainv[i][k] + power[i][k].scale(sign) for k in range(n2)]
                for i in range(n2)]
        power = mat_mul(power, nmat)
        sign = -sign
    jstd = constant_matrix(standard_matrix(n), n2, cap)
    j = mat_mul(mat_mul(amat, jstd), ainv)
    return ACStructure(n, j)
