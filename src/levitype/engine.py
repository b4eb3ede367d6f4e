"""Exact contact-type engine.

Ties together three descriptions of higher-order contact between a
hypersurface and holomorphic disks: jets of tangent disks, complex tangent
fields whose iterated derivatives commute at the point, and vanishing of the
higher-order trace combinations.  Everything runs in exact rational
arithmetic.  The three routes are provably equivalent, so any observed
disagreement is raised as TheoremViolation instead of being smoothed over.
"""

from dataclasses import dataclass, replace
from itertools import product
from math import factorial, isqrt

from .disks import DiskJet, _Transport, contact_order, propagate_cr_jet
from .errors import CapError, GeometryError, TheoremViolation
from .geometry import (
    ACStructure,
    FieldJet,
    Hypersurface,
    VectorField,
    _word_jet,
    apply_jstd,
    is_complex_tangent,
    lie_bracket,
    project_point_to_surface,
    project_to_complex_tangent,
    recenter,
    word_table,
)
from .jets import TruncatedSeries, compose
from .levi import _levi_values, hermitian_levi_matrix, levi_trace
from .linalg import Span, mat_vec, real_symmetric_signature, solve_affine
from .rational import Q, ZERO, rat


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_scale(c, v):
    return tuple(c * x for x in v)


def _is_zero_vec(v):
    return all(x == 0 for x in v)


# ---------------------------------------------------------------------------
# disk <-> field conversion


def _dual_pair_forms(v):
    """Linear forms l1, l2 with l1(v)=1, l1(J_std v)=0, l2(v)=0 and
    l2(J_std v)=1 for v != 0, on (x_c, y_c) for the first c where v is
    nonzero: with (a, b) = (v[2c], v[2c+1]), J_std v is (-b, a) there, so
    the forms are [[a, b], [-b, a]] / (a^2 + b^2)."""
    i1 = next(i for i in range(0, len(v), 2) if v[i] or v[i + 1])
    a, b = v[i1], v[i1 + 1]
    norm = a * a + b * b
    return (i1, i1 + 1), [[a / norm, b / norm], [-b / norm, a / norm]]


def _disk_triangle(u: DiskJet, k: int) -> FieldJet:
    """The derivatives d^(p+q+1)u/dx^(p+1)dy^q (0), p+q <= k, as a field jet,
    read from the terms of each component of the (k+1)-jet in one pass."""
    entries = {(p, q): [ZERO] * (2 * u.n)
               for p in range(k + 1) for q in range(k + 1 - p)}
    for i, c in enumerate(u.truncate(k + 1).components):
        for (a, b), v in c.terms():
            if a:
                entries[(a - 1, b)][i] = v * (factorial(a) * factorial(b))
    return FieldJet(k, u.n, {pq: tuple(v) for pq, v in entries.items()})


def realize_field_from_disk(m: Hypersurface, j: ACStructure, u: DiskJet,
                            k: int | None = None) -> VectorField:
    """Complex tangent field whose derivative triangle matches the disk.

    Produces X with D^(p,q)X(0) = d^(p+q+1)u/dx^(p+1)dy^q (0) for all
    p+q <= k; requires contact order at least k+2.  X is the projection to
    the complex tangent bundle of the flow-box field V = u_x o sigma o
    (l1, l2): l1, l2 are linear forms dual to (u_x(0), J_0 u_x(0)), and
    sigma inverts psi = (l1 o u, l2 o u) = id + O(2), so V o u = u_x.
    Contact k+2 makes dphi(u_x) o u = d(phi o u)/dx and dphi(J u_x) o u =
    d(phi o u)/dy vanish to order k+1, so X o u = u_x + O(k+1) and
    JX o u = u_y + O(k+1).  Those identities read only the k-jet of X, so X
    is built in one pass on phi truncated at max(k+1, 2), J read through
    the caps of the fields it acts on, and has cap k.  They are checked as
    written, on the k-jets of X, JX and u, and they give the triangle by
    the chain rule: (D_Z F) o u = dF(u)(Z o u), so a word in X and JX of
    length m pulls back to its derivative of u up to O(k+2-m), exact at 0
    for m <= k+1.  A field that misses them is a TheoremViolation.  Each
    round of sigma, the components of V and the pullback of X and JX
    together are one jets.compose of a list of series with one argument
    list, so each product of the arguments is formed once.
    """
    co = contact_order(m, u)
    max_k = co.order - 2
    if k is None:
        k = max_k
    if k < 0:
        raise ValueError("realization order must be nonnegative")
    if k > max_k:
        raise GeometryError(
            f"contact order {co.order} is below the required {k + 2}")
    u1 = u.derivative(1, 0)
    if _is_zero_vec(u1):
        raise GeometryError("disk is not regular at 0")
    # contact k+2 needs phi.cap >= k+1
    cap = max(k + 1, 2)
    m = m.truncate(cap)
    disk = u.truncate(k + 1).components
    base = [c.truncate(k) for c in disk]
    ux = [c.partial(0) for c in disk]
    v = VectorField.constant(m.n, u1, k)
    if k > 0:
        (i1, i2), dual = _dual_pair_forms(u1)
        ident = TruncatedSeries.variables(2, k)
        # psi - id = O(2); each round of sigma = id - (psi - id) o sigma
        # fixes one more degree, from degree 1 up to k
        bend = [base[i1].scale(a) + base[i2].scale(b) - t
                for (a, b), t in zip(dual, ident)]
        sigma = ident
        for _ in range(k - 1):
            sigma = [t - h for t, h in zip(ident, compose(bend, sigma))]
        var = [TruncatedSeries.variable(i, 2 * m.n, k) for i in (i1, i2)]
        forms = [var[0].scale(a) + var[1].scale(b) for a, b in dual]
        v = VectorField(m.n, compose(compose(ux, sigma), forms))
    x = project_to_complex_tangent(m, j, v)
    if x.cap < k:
        raise CapError(f"order {k} exceeds the field's cap {x.cap}")
    # X and JX pulled back as one list, through one table of u's products
    axes = [*ux, *(c.partial(1) for c in disk)]
    if compose([*x.components, *j.apply(x).components], base) != axes:
        raise TheoremViolation(
            f"field realized from a contact-{co.order} disk misses its jet")
    return x


def disk_from_commuting_field(m: Hypersurface, j: ACStructure,
                              x: VectorField, k: int) -> DiskJet:
    """Disk jet built from the x-axis derivatives of a commuting field.

    Gate: the field must be complex tangent and commute at 0 to order k+1.
    The propagated disk then has contact order at least k+2; anything less
    is a broken theorem.
    """
    rep, word = _commutation(x, j, k + 1)
    if rep.max_vanishing_order < k + 1:
        raise GeometryError(
            f"field commutes only to order {rep.max_vanishing_order}, "
            f"needed {k + 1}; defects: {sorted(rep.defects)}")
    if not is_complex_tangent(m, j, x):
        raise GeometryError("field is not complex tangent as a series")
    x_jet = [word((0,) * mm).at_zero() for mm in range(1, k + 2)]
    u = propagate_cr_jet(x_jet, j, order=k + 1)
    co = contact_order(m, u)
    if co.order < k + 2:
        raise TheoremViolation(
            f"commuting field produced contact {co.order} < {k + 2}")
    return u


# ---------------------------------------------------------------------------
# commutation criteria


@dataclass
class CommutationReport:
    """Vanishing orders of the three equivalent commutation criteria."""

    order_tested: int
    # sorted right-normed bracket -> value at 0, first failing length only;
    # these brackets decide each length, so they fail first
    defects: dict
    max_vanishing_order: int
    criterion_orders: dict  # criterion index 2, 3 or 4 -> vanishing order
    agreement: bool


def commutation_defect(x: VectorField, j: ACStructure,
                       k: int) -> CommutationReport:
    """Test commutation of X and JX at 0 up to order k, three ways.

    The criteria: (2) appending JX to a word in {X, JX} equals rotating one
    X slot; (3) all iterated Lie brackets of lengths 2..k vanish at 0; (4)
    derivatives of [X, JX] of orders <= k-2 vanish at 0.  All three are
    equivalent at the same order, so the report carries an agreement flag
    and disagreement raises TheoremViolation.  Word symmetry is no fourth
    test: word(s + (X, JX)) - word(s + (JX, X)) = D_s[X, JX], as (4) reads.

    Criterion 4 reads only the sorted words s = JX^q X^p.  With no
    curvature, D_A D_B F - D_B D_A F = D_[A,B] F, so a swap of the last two
    letters changes a word by exactly +-D_s[X, JX], and an earlier swap, by
    Leibniz at 0, by terms that each carry a shorter D_w[X, JX](0).  Once
    the shorter lengths pass, values at 0 depend only on letter counts (and
    the last letter), so it suffices to test D_s[X, JX](0) over the sorted
    s.

    Criterion 3 forms only the sorted right-normed brackets
    ad_JX^q ad_X^p [X, JX], p + q = m - 2, each a letter bracketed with one
    of length m - 1: k(k-1)/2 in all.  Right-normed brackets span every
    bracket of their length (Dynkin-Specht-Wever), so the
    ad_Z1 ... ad_Z(m-2) [X, JX] span length m.  Once shorter brackets vanish
    at 0, such a bracket equals D_Z1 ... D_Z(m-2) [X, JX] there: ad_Z W =
    D_Z W - D_W Z, and each D_W Z term, and each derivative of one, carries
    a shorter bracket W at 0.  By the lemma, those word values depend only
    on letter counts, so the sorted brackets fail first, at the same order.
    """
    return _commutation(x, j, k)[0]


def _commutation(x: VectorField, j: ACStructure, k: int):
    """commutation_defect(x, j, k) and its word table, whose letters 0 and 1
    are X and JX at cap k - 1, as in field_jet(x, j, k - 1)."""
    if k < 1:
        raise ValueError("commutation order must be at least 1")
    jx_full = j.apply(x)
    cap = min(x.cap, jx_full.cap)
    if cap < k - 1:
        raise CapError(f"order {k} needs field caps >= {k - 1}, have {cap}")
    base = (x.truncate(k - 1), jx_full.truncate(k - 1))
    # letters 0, 1 and 2 are X, JX and [X, JX]; k = 1 leaves no cap for 2
    word = word_table(base + (lie_bracket(*base),) if k >= 2 else base)

    def crit2():
        for length in range(2, k + 1):
            for p in range(1, length):
                q = length - 1 - p
                lhs = word((1,) * q + (0,) * p + (1,)).at_zero()
                rhs = word((1,) * (q + 1) + (0,) * (p - 1) + (0,)).at_zero()
                if lhs != rhs:
                    return length - 1
        return k

    defects = {}

    def crit3():
        # level[p] = (label, ad_JX^q ad_X^p [X, JX]), p + q = length - 2
        level = [("[X,JX]", word((2,)))] if k >= 2 else []
        for length in range(2, k + 1):
            if length > 2:
                bx, bjx = (f.truncate(level[0][1].cap) for f in base)
                top = level[-1]
                level = [(f"[JX,{s}]", lie_bracket(bjx, f))
                         for s, f in level]
                level.append((f"[X,{top[0]}]", lie_bracket(bx, top[1])))
            for label, f in level:
                val = f.at_zero()
                if not _is_zero_vec(val):
                    defects[label] = val
            if defects:
                return length - 1
        return k

    def crit4():
        # k = 1 reads no word: letter 2 does not exist then
        for mlen in range(0, k - 1):
            for p in range(mlen + 1):
                if any(word((1,) * (mlen - p) + (0,) * p + (2,)).at_zero()):
                    return mlen + 1
        return k

    orders = {2: crit2(), 3: crit3(), 4: crit4()}
    agreement = len(set(orders.values())) == 1
    if not agreement:
        raise TheoremViolation(
            f"equivalent commutation criteria disagree: {orders}")
    return CommutationReport(k, defects, orders[3], orders, agreement), word


# ---------------------------------------------------------------------------
# staged type search


@dataclass
class TypeReport:
    """Result of a contact-type search at one surface point.

    witness_field has cap lower_bound - 2: its jet and brackets read no more,
    and a cap-reached witness disk carries no more.
    """

    point: tuple
    lower_bound: int
    certified_exact: bool
    cap_reached: bool
    witness_disk: DiskJet | None
    witness_field_jet: FieldJet | None
    obstruction: str | None
    witness_field: VectorField | None = None


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    num, den = int(q.numerator), int(q.denominator)
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Q(rn, rd)


def _rational_isotropic(r0):
    """A nonzero rational vector with t' r0 t = 0, or None.

    Tries coordinate vectors, then pairs via the quadratic formula when the
    discriminant is a rational square, then a small box over index triples.
    The form is indefinite here, so a real solution always exists; a
    rational one need not.
    """
    d = len(r0)

    def e(i):
        return tuple(Q(1) if p == i else ZERO for p in range(d))

    for i in range(d):
        if r0[i][i] == 0:
            return e(i)
    for i in range(d):
        for p in range(i + 1, d):
            qii, qpp, qip = r0[i][i], r0[p][p], r0[i][p]
            root = _rational_sqrt(qip * qip - qii * qpp)
            if root is not None:
                s = (-qip + root) / qpp
                t = list(e(i))
                t[p] = s
                return tuple(t)
    small = [Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2)]
    for i in range(d):
        for p in range(i + 1, d):
            for r in range(p + 1, d):
                for a in small:
                    for b in small:
                        t = list(e(i))
                        t[p], t[r] = a, b
                        rt = mat_vec(r0, t)
                        if sum(x * y for x, y in zip(t, rt)) == 0:
                            return tuple(t)
    return None


class _Stager:
    """Exact staged solver shared by all type_search strategies.

    A search fixes u1 and then solves one level per order: the level-ell
    system is affine in the tangential coordinates of u_{ell+1}, and its
    coefficient matrix is the Levi row of u1 in a fixed rotation (see
    attempt_level), formed from R0 = levi.realified() without a probe.  A
    level transports only its right-hand side and one check of the formed
    matrix: 2 probes, whatever d is.
    """

    def __init__(self, m: Hypersurface, j: ACStructure, k_max: int):
        if k_max < 2:
            raise ValueError("K_max must be at least 2")
        if k_max + 2 > m.cap:
            raise CapError(
                f"K_max={k_max} needs a defining function cap of at least "
                f"{k_max + 2}, have {m.cap}")
        if j.known < k_max - 1:
            raise CapError(
                f"K_max={k_max} needs the structure through order {k_max - 1}")
        self.m = m
        self.j = j
        self.k_max = k_max
        # the gradient frame at 0; J(0) = J_std
        self.n0 = m.grad_at_zero()
        self.jn0 = tuple(apply_jstd(self.n0))
        self.p0 = m.dphi_at_zero(self.n0)
        self.levi = hermitian_levi_matrix(m, j)
        self.r0 = self.levi.realified()
        self.taus = self.levi.basis_at_zero
        # tau_1, ..., tau_d, J_std tau_1, ..., J_std tau_d, as colmat's columns
        self.columns = [*self.taus, *(apply_jstd(t) for t in self.taus)]
        self.colmat = [list(row) for row in zip(*self.columns)]
        self.d = len(self.columns)
        # the check probe's tangential part, sum (c + 1) columns[c]: every
        # column weighed differently, so a wrong entry in any one shows
        self.weights = [Q(c + 1) for c in range(self.d)]
        self.check = self.tangential(self.weights)

    # -- tangential coordinates

    def tangential(self, coords):
        return mat_vec(self.colmat, coords)

    def coords_of(self, vec):
        sol = solve_affine(self.colmat, list(vec))
        if not sol.consistent:
            raise GeometryError("vector is not complex tangential at 0")
        return tuple(sol.particular)

    def normalize_coords(self, coords):
        """(u1, c(u1)) for the candidate of tangential coordinates coords,
        scaled so that its first nonzero coordinate is 1.  Every candidate
        but a user direction is built from its coordinates, so only those
        are solved for (coords_of)."""
        for c in coords:
            if c != 0:
                coords = _vec_scale(Q(1) / c, coords)
                return tuple(self.tangential(coords)), coords
        raise GeometryError("candidate direction is zero")

    # -- trace probes

    def _solve_normal_2x2(self, rhs1, rhs2):
        """a N0 + b JN0 with dphi(a N0 + b JN0) = rhs1 and
        dphi(J(a N0 + b JN0)) = rhs2 at 0.  As dphi(JN0) = g.J_std g = 0
        for g = grad phi(0), the system is diag(p0, -p0) with p0 = |g|^2."""
        a, b = rhs1 / self.p0, -rhs2 / self.p0
        return _vec_add(_vec_scale(a, self.n0), _vec_scale(b, self.jn0))

    def start(self, u1):
        """u1 transported, at the deepest stratum any level reads: the one
        state that the search extends by each solved jet."""
        return _Transport(self.j, max(self.k_max - 1, 2), self.m).extend(u1)

    def force_normals(self, state):
        """Normal part of u_mnext killing the two leading trace heads.

        state holds the jets through mnext-1.  After the stage at level
        mnext-2 is solved, the pairwise relations chain the whole
        degree-mnext stratum to these two heads, so the stratum must vanish
        entirely; that is asserted, not assumed.
        """
        mnext = state.order + 1
        a = state.read(mnext)
        vec = self._solve_normal_2x2(-a[0], -a[1])
        a2 = state.copy().extend(vec).read(mnext)
        for p in range(mnext + 1):
            if a2[mnext - p] != 0:
                raise TheoremViolation(
                    f"degree-{mnext} stratum survives normal forcing at "
                    f"({p},{mnext - p})")
        return vec

    # -- stages

    def levi_row(self, a):
        """The four rows 2 rho, -2 rho', -2 rho, 2 rho' that every level
        system of u1 cycles through (see attempt_level), from the
        coordinates a = c(u1) that the search started from: rho = R0 c(u1)
        and rho' = R0 c(J_std u1), with c the tangential coordinates and
        R0 = levi.realified().  If c(u1) = (a, b), then
        c(J_std u1) = (-b, a), so no solve is needed."""
        h = self.d // 2
        rho = mat_vec(self.r0, a)
        rho_j = mat_vec(self.r0, [*(-x for x in a[h:]), *a[:h]])
        return ([2 * x for x in rho], [-2 * x for x in rho_j],
                [-2 * x for x in rho], [2 * x for x in rho_j])

    def attempt_level(self, state, normals_next, cycle):
        """Solve the level-ell constraints for the tangential unknown.

        state holds the ell jets found, and u_{ell+1} = normals_next +
        tangential(t).  Row i is L^(ell-i, i) = 0, read from stratum ell + 2
        of phi . u, and is affine in t with coefficient row cycle[i % 4],
        cycle = levi_row(c(u1)).  Two probes, each a copy of state extended
        by u_{ell+1} and read one order past it (_Transport.read), give the
        right-hand side at t = 0 and check the formed matrix at
        t = weights.  Returns (u_next, nullspace) or None when the system is
        inconsistent.

        Why the rows are the Levi row of u1.  Let m = ell + 1 >= 2, [f]_k the
        degree-k part of f in (x, y), z.w = x w + y J_std w, A(w) = DJ(0) w,
        H = D^2 phi(0), c = dphi(0) J_std, and dbar, d the operators
        (d_x +- J_std d_y) / 2 on vector functions, so that the Laplacian is
        4 d dbar.  Adding w to the m-th x-derivative adds z^m.w / m! to [u]_m
        and changes no lower stratum.  [u]_{m+1} solves dbar u = J_std R / 2
        up to a holomorphic part, which the Laplacian does not see, with
        [R]_m = sum_{t=1..m} [(J - J_std)(u)]_t [u_x]_{m-t}, whose only
        terms that read [u]_m are A([u]_m) u1 and A([u]_1) d_x [u]_m.  In
        [phi . u]_{m+1}, [u]_m meets only H([u]_1, [u]_m), as three strata
        of degree >= 1 summing to m + 1 hold none of degree m, and [u]_{m+1}
        only dphi(0).  So the stratum is affine in w.  Let B = z^ell.w / ell!
        = d_x of the added stratum.  J^2 = -I gives A(v) J_std = -J_std A(v),
        so d(A([u]_1) B) = (A(u1) B - J_std A(J_std u1) B) / 2: its term in
        d_x B cancels.  With d_y = J_std d_x on z-polynomials, the
        Laplacian of the stratum changes by S(u1, B), where
            S(X, Y) = 2 H(X, Y) + 2 H(J_std X, J_std Y)
                      + c (A(X) Y + A(Y) X - J_std A(J_std X) Y
                           - J_std A(J_std Y) X)
        is symmetric and J_std-invariant.  The same computation at m = 1
        gives L^(0,0)(X) = S(X, X) / 2 for the disk of u1 = X, and
        L^(0,0)(X) = Theta(X, X) = c(X)' R0 c(X) on complex tangent X (the
        Laplacian identity of the Levi form), so by polarization
        S(X, Y) = 2 c(X)' R0 c(Y), and S(u1, w) = 2 rho.c(w),
        S(u1, J_std w) = -S(J_std u1, w) = -2 rho'.c(w).  As
        B = (Re z^ell w + Im z^ell J_std w) / ell! and d_x^(ell-i) d_y^i
        z^ell = ell! i^i, row i changes by alpha rho.c(w) + beta rho'.c(w)
        with alpha + i beta = 2 (-i)^i: 2 rho, -2 rho', -2 rho, 2 rho' mod 4.
        Nothing but J(0) = J_std and J^2 = -I entered, which ACStructure
        enforces; the check probe still tests the formed matrix against the
        transport, on every column at once.
        """
        ell = state.order

        def probe(vec):
            return _levi_values(state.copy().extend(vec).read(ell + 2))[::-1]

        base = probe(normals_next)
        a_mat = [cycle[i % 4] for i in range(ell + 1)]
        predicted = [b + s for b, s in zip(base, mat_vec(a_mat, self.weights))]
        if probe(_vec_add(normals_next, self.check)) != predicted:
            raise TheoremViolation(
                f"level-{ell} system is not the Levi row of u1")
        sol = solve_affine(a_mat, [-b for b in base])
        if not sol.consistent:
            return None
        vec = _vec_add(normals_next, self.tangential(sol.particular))
        return vec, sol.nullspace

    def gauge_span_ok(self, u1, nullspace):
        """Nullspace directions must be jet reparametrizations of u1.

        Adding multiples of the tangential coordinates of u1 and J_0 u1 to a
        higher derivative is realized by z -> z + gamma z^m, which does not
        change the contact order; a nullspace inside that span keeps the
        obstruction certificate exact.  The columns of colmat are
        independent, so coordinates w lie in that span exactly when
        tangential(w) lies in span{u1, J_0 u1}.
        """
        span = Span()
        span.add(u1)
        span.add(apply_jstd(u1))
        return not any(span.add(self.tangential(w)) for w in nullspace)

    # -- full runs

    def witness_report(self, state, lower_bound, certified, obstruction):
        """The report on the witness disk grown in state.

        An obstructed witness is padded with zero x-derivatives to the bound,
        where its first nonzero stratum of phi . u must lie; that stratum
        does not depend on the padding.  A witness at the cap must have no
        nonzero stratum through its order.
        """
        if obstruction is not None:
            state.extend(*[(ZERO,) * state.n2] * (lower_bound - state.order))
        first = next((d for d in range(1, state.order + 1)
                      if any(state.read(d))), None)
        if first != (None if obstruction is None else lower_bound):
            raise TheoremViolation(
                f"witness of bound {lower_bound} has its first nonzero "
                f"stratum at {first} ({obstruction or 'cap reached'})")
        return TypeReport((ZERO,) * (2 * self.m.n), lower_bound, certified,
                          obstruction is None, state.disk(), None,
                          obstruction)

    def levi_witness(self, state, certified, obstruction):
        """The bound-2 witness (u1, u2) of a direction with nonzero Levi
        value, u2 making phi . u = L(u1)/2 (x^2+y^2) + higher; state is
        start(u1)."""
        a_, b_, c_ = state.read(2)
        u2 = self._solve_normal_2x2((c_ - a_) / Q(2), -b_)
        return self.witness_report(state.extend(u2), 2, certified,
                                   obstruction)

    def run_from_u1(self, u1, coords, unique, certify):
        """The search from u1, whose tangential coordinates are coords."""
        state = self.start(u1)
        if _levi_values(state.read(2))[0] != 0:
            return self.levi_witness(
                state, False, "chosen direction has nonzero Levi value")
        normals_next = self.force_normals(state)
        cycle = self.levi_row(coords)
        while 2 + state.order < self.k_max:
            ell = state.order
            res = self.attempt_level(state, normals_next, cycle)
            if res is None:
                return self.witness_report(
                    state.extend(normals_next), ell + 2, certify and unique,
                    f"inconsistent affine system at stage {ell + 1} "
                    f"(constraints L^(i,j), i+j={ell})")
            vec, nullspace = res
            if unique and not self.gauge_span_ok(u1, nullspace):
                unique = False
            normals_next = self.force_normals(state.extend(vec))
        return self.witness_report(state.extend(normals_next), self.k_max,
                                   False, None)

    def run_exact(self):
        r0 = self.r0
        pos, neg, zero = real_symmetric_signature(r0)
        if pos == 0 and neg == 0:
            # taus[0] is columns[0], so its coordinates are e_0
            e0 = (Q(1), *(ZERO,) * (self.d - 1))
            return self.run_from_u1(self.taus[0], e0, self.m.n == 2, True)
        if zero == 0 and (pos == 0 or neg == 0):
            sign = "positive" if neg == 0 else "negative"
            return self.levi_witness(
                self.start(self.taus[0]), True,
                f"Levi form {sign} definite: no isotropic direction exists")
        if pos == 0 or neg == 0:
            kernel = solve_affine(r0, [ZERO] * self.d).nullspace
            u1, coords = self.normalize_coords(kernel[0])
            return self.run_from_u1(u1, coords, zero == 2, True)
        t = _rational_isotropic(r0)
        if t is None:
            return self.levi_witness(
                self.start(self.taus[0]), False,
                "indefinite Levi form with no rational isotropic direction "
                "found; bound is not certified")
        u1, coords = self.normalize_coords(t)
        return self.run_from_u1(u1, coords, False, True)


# each grid candidate costs a full staged search
GRID_CANDIDATE_LIMIT = 1000


def grid_candidate_count(d, step) -> int:
    """Number of grid candidates in d tangential coordinates.

    Raises ValueError for a step outside (0, 1] or a count above
    GRID_CANDIDATE_LIMIT.
    """
    step = rat(step)
    if step <= 0 or step > 1:
        raise ValueError("grid step must be in (0, 1]")
    ticks = int(2 / step) + 1
    count = sum(ticks ** (d - lead - 1) for lead in range(d))
    if count > GRID_CANDIDATE_LIMIT:
        raise ValueError(
            f"grid step {step} gives {count} candidates in {d} tangential "
            f"coordinates, above the limit of {GRID_CANDIDATE_LIMIT}")
    return count


def _grid_candidates(d, step):
    """Projective enumeration: leading coordinate 1, the rest on a grid."""
    grid_candidate_count(d, step)
    step = rat(step)
    ticks = [Q(-1) + i * step for i in range(int(2 / step) + 1)]
    return [(ZERO,) * lead + (Q(1),) + tail
            for lead in range(d)
            for tail in product(ticks, repeat=d - lead - 1)]


def type_search(m: Hypersurface, j: ACStructure, k_max: int,
                strategy="exact_staged") -> TypeReport:
    """Search for the smallest non-spanned contact order at the origin.

    exact_staged solves each stage's affine system exactly and certifies
    unsolvability when the stage-one form is definite or a later affine
    system is inconsistent with a gauge-only nullspace history.  grid and
    directions strategies try prescribed first derivatives and report lower
    bounds only.  The report carries the witness disk, a complex tangent
    field realizing its jet to order k = lower_bound - 2, and that field's
    derivative triangle; the field is built in one pass from the disk and
    has cap k, all that its checks read.
    """
    stager = _Stager(m, j, k_max)
    if strategy == "exact_staged":
        rep = stager.run_exact()
    elif isinstance(strategy, tuple) and len(strategy) == 2:
        kind, arg = strategy
        # each candidate by its tangential coordinates
        if kind == "grid":
            candidates = _grid_candidates(stager.d, arg)
        elif kind == "directions":
            if not arg:
                raise ValueError("empty direction list")
            projections = []
            for v in arg:
                # the value at 0 of a projection reads only values at 0
                vf = VectorField.constant(m.n, [rat(c) for c in v], 0)
                proj = project_to_complex_tangent(m, j, vf).at_zero()
                if not _is_zero_vec(proj):
                    projections.append(proj)
            if not projections:
                raise GeometryError(
                    "no direction has a nonzero tangential part")
            candidates = map(stager.coords_of, projections)
        else:
            raise ValueError(f"unknown strategy {kind!r}")
        rep = None
        for cand in candidates:
            r = stager.run_from_u1(*stager.normalize_coords(cand), False,
                                   False)
            if rep is None or r.lower_bound > rep.lower_bound:
                rep = r
            if rep.lower_bound >= k_max:
                break
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # the one realization of the witness field; cross_validate checks it.
    # It asserts X o u = u_x and JX o u = u_y, so its triangle is the disk's
    k = rep.lower_bound - 2
    x = realize_field_from_disk(m, j, rep.witness_disk, k)
    return replace(rep, witness_field=x,
                   witness_field_jet=_disk_triangle(rep.witness_disk, k))


# ---------------------------------------------------------------------------
# cross validation and scans


@dataclass
class ValidationRecord:
    """Outcome of the three-route consistency check on one witness."""

    k: int
    contact_order: int
    realized_order: int
    commutation_order: int
    levi_slots_checked: int
    derivative_matches: int


def cross_validate(m: Hypersurface, j: ACStructure,
                   report: TypeReport) -> ValidationRecord:
    """Check a witness against all three routes; failures are hard errors.

    The report must come with its witness field, as type_search and
    scan_type build it.
    (a) that field is complex tangent and realizes the disk's jet to order k,
    (b) it commutes at 0 to order k+1,
    (c) all trace combinations L^(p,q), p+q <= k-1, vanish on the x-jet.
    The k+1 pure x-derivatives are among the slots (a) matches.
    """
    if report.witness_disk is None or report.witness_field is None:
        raise ValueError("report carries no witness disk and field")
    u, x = report.witness_disk, report.witness_field
    k = report.lower_bound - 2
    co = contact_order(m, u)
    if co.order < k + 2:
        raise TheoremViolation(
            f"witness contact {co.order} below reported bound {k + 2}")
    if not is_complex_tangent(m, j, x):
        raise GeometryError("witness field is not complex tangent")
    crep, word = _commutation(x, j, k + 1)
    if _word_jet(word, x.n, k) != _disk_triangle(u, k):
        raise TheoremViolation("realized field misses the disk jet")
    if crep.max_vanishing_order < k + 1:
        raise TheoremViolation(
            f"realized field commutes to {crep.max_vanishing_order}, "
            f"expected {k + 1}")
    slots = 0
    jet = [u.derivative(s + 1, 0) for s in range(k)]
    for s in range(k):
        for p, value in enumerate(levi_trace(m, j, jet, s)):
            if value != 0:
                raise TheoremViolation(
                    f"L^({p},{s - p}) nonzero on a contact-{co.order} witness")
            slots += 1
    return ValidationRecord(k, co.order, k, crep.max_vanishing_order,
                            slots, k + 1)


def scan_type(m: Hypersurface, j: ACStructure, points, k_max: int,
              strategy="exact_staged"):
    """Type reports at several surface points, in input order.

    Each point is translated to the origin (projecting onto the surface
    first when it is off it), J(point) is renormalized to the standard
    block form by a constant linear change, and the exact staged search
    runs there.  Witness data in each report lives in the recentered
    adapted coordinates; the reported point is in the original ones.
    """
    out = []
    for point in points:
        pt = project_point_to_surface(m, [rat(c) for c in point])
        mc, jc, _ = recenter(m, j, pt)
        rep = type_search(mc, jc, k_max, strategy)
        out.append(replace(rep, point=tuple(pt)))
    return out
