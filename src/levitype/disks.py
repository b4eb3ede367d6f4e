"""Jets of J-holomorphic disks and their contact with a hypersurface.

A disk jet is a polynomial map u: (R^2, 0) -> (R^(2n), 0) in disk coordinates
(x, y), truncated at a cap.  The structure equation is the transport system

    du/dy = J(u) . du/dx,

which determines the whole jet from the x-axis derivatives u_m = d^m u/dx^m(0)
degree by degree: writing u = sum c_{p,q} x^p y^q, matching the coefficient of
x^(m-1-q) y^q gives

    (q+1) c_{m-1-q, q+1} = (m-q) J_std c_{m-q, q} + R_{m-1-q, q},

where R collects the positive-degree part of J composed with the part of the
jet already known (total degree < m).  The split is exact: J - J_std has
no constant term, so degree m-1 of R reads du/dx only through degree m-2.
The stratum of degree m-1 of du/dx, which holds stratum m of u and so is
still being filled, meets only the constant term of J - J_std, which is
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import CapError, GeometryError, TheoremViolation
from .geometry import ACStructure, Hypersurface, apply_jstd, standard_matrix
from .jets import TruncatedSeries, mat_vec
from .rational import Q, ZERO, rat


class DiskJet:
    """Polynomial jet of a disk, components as 2-variable series, u(0) = 0."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components):
        components = tuple(components)
        if len(components) != 2 * n:
            raise ValueError(f"need {2 * n} components, got {len(components)}")
        cap = components[0].cap
        for c in components:
            if c.num_vars != 2:
                raise ValueError("disk components live in 2 variables")
            if c.cap != cap:
                raise ValueError("components must share one cap")
            if c.constant_term() != 0:
                raise GeometryError("disk jets are centered: u(0) must be 0")
        self.n = n
        self.components = components

    @property
    def cap(self) -> int:
        return self.components[0].cap

    def coefficient(self, p: int, q: int):
        return tuple(c.coefficient((p, q)) for c in self.components)

    def derivative(self, p: int, q: int):
        """The vector d^(p+q) u / dx^p dy^q at 0."""
        f = Q(factorial(p) * factorial(q))
        return tuple(v * f for v in self.coefficient(p, q))

    def truncate(self, cap: int) -> "DiskJet":
        if cap == self.cap:
            return self
        return DiskJet(self.n, [c.truncate(cap) for c in self.components])

    def __eq__(self, other):
        if not isinstance(other, DiskJet):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    __hash__ = None

    def __repr__(self):
        return f"DiskJet(n={self.n}, cap={self.cap})"


def propagate_cr_jet(x_derivs, j: ACStructure, order: int | None = None) -> DiskJet:
    """Disk jet with the given x-axis derivatives, transported by J.

    x_derivs[m-1] is d^m u/dx^m(0) for m = 1..len(x_derivs); missing orders up
    to the requested cap are padded with zero.  The returned jet satisfies the
    transport equation through cap-1 and is the unique such jet.

    The jet is built stratum by stratum, one nonzero-term dict per component.
    Order m first stores the axis term c_{m,0}; for a non-standard J the dicts
    then become series u of cap m, and R is read from (J - J_std)(u_{<m}) u_x.
    The top stratum of u_x holds m c_{m,0} x^(m-1) only, and in degree m-1 of
    R it meets only (J - J_std)(0) = 0, so it cannot change R.
    """
    n = j.n
    n2 = 2 * n
    derivs = [tuple(rat(v) for v in vec) for vec in x_derivs]
    for vec in derivs:
        if len(vec) != n2:
            raise ValueError("x-axis derivative has wrong arity")
    if order is None:
        order = len(derivs)
    derivs = derivs[:order] + [(ZERO,) * n2] * (order - len(derivs))
    if not j.is_standard and j.cap < max(order - 1, 0):
        raise CapError(
            f"structure cap {j.cap} too small to transport to order {order}"
        )

    std = standard_matrix(n)
    # nonzero entries of J - J_std: as J(0) = J_std, those of nonconstant
    # entries of J; none for J_std
    j_plus = []
    for a in range(n2):
        for b in range(n2):
            e = j.entries[a][b]
            if e.total_degree():
                c0 = TruncatedSeries.constant(std[a][b], n2, j.cap)
                j_plus.append((a, b, e - c0))
    terms = [{} for _ in range(n2)]  # component i: (p, q) -> c_{p,q} != 0
    f = 1
    for m in range(1, order + 1):
        f *= m
        vec = [v / f for v in derivs[m - 1]]
        for t, v in zip(terms, vec):
            if v:
                t[(m, 0)] = v
        r_rows = None
        if m >= 2 and j_plus:
            low = m - 1
            u = [TruncatedSeries(2, m, t) for t in terms]
            comps = [c.truncate(low) for c in u]
            ux = [c.partial(0) for c in u]
            zero = TruncatedSeries.zero(2, low)
            jpu = [[zero] * n2 for _ in range(n2)]  # (J - J_std) o u
            for a, b, e in j_plus:
                if not ux[b].is_zero():
                    jpu[a][b] = e.truncate(low).compose(comps)
            r_rows = mat_vec(jpu, ux)
        # vec runs along stratum m: c_{m-q,q} -> c_{m-1-q,q+1}
        for q in range(m):
            scale = Q(m - q, q + 1)
            vec = [scale * v for v in apply_jstd(vec)]
            if r_rows is not None:
                inv = Q(1, q + 1)
                for i in range(n2):
                    vec[i] += inv * r_rows[i].coefficient((m - 1 - q, q))
            for t, v in zip(terms, vec):
                if v:
                    t[(m - 1 - q, q + 1)] = v
    return DiskJet(n, [TruncatedSeries(2, order, t) for t in terms])


def is_cr_jet(u: DiskJet, j: ACStructure) -> bool:
    """Check du/dy = J(u) du/dx coefficientwise through cap-1."""
    if u.cap == 0:
        return True
    low = u.cap - 1
    if j.cap < low:
        raise CapError("structure cap too small for the check")
    ux = [c.partial(0) for c in u.components]
    uy = [c.partial(1) for c in u.components]
    comps = [c.truncate(low) for c in u.components]
    zero = TruncatedSeries.zero(2, low)
    ju = [[zero if e.is_zero() or ux[b].is_zero()
           else e.truncate(low).compose(comps) for b, e in enumerate(row)]
          for row in j.entries]
    return all((a - b).is_zero() for a, b in zip(uy, mat_vec(ju, ux)))


class DiskTrace:
    """The restriction phi . u of a defining function to a disk jet."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.num_vars != 2:
            raise ValueError("a trace is a series in the 2 disk variables")
        self.series = series

    @property
    def cap(self) -> int:
        return self.series.cap

    def a(self, p: int, q: int):
        """Derivative d^(p+q)(phi . u)/dx^p dy^q at 0."""
        return self.series.coefficient((p, q)) * factorial(p) * factorial(q)

    def levi_entry(self, p: int, q: int):
        """The combination a(p+2, q) + a(p, q+2)."""
        return self.a(p + 2, q) + self.a(p, q + 2)

    def vanishing_order(self):
        """(order, exact): smallest total degree of a nonzero term.

        When the trace is zero through the cap the order is cap + 1 and the
        flag is False: only a lower bound is known at this truncation.
        """
        v = self.series.valuation()
        if v is None:
            return self.cap + 1, False
        return v, True


def compose_phi_u(m: Hypersurface, u: DiskJet) -> DiskTrace:
    """phi . u, reliable through min(phi.cap, u.cap).

    Dropped strata of phi start at degree phi.cap + 1 and u has no constant
    term, so they cannot pollute the kept degrees.
    """
    cap = min(m.cap, u.cap)
    phi = m.phi.truncate(cap)
    comps = [c.truncate(cap) for c in u.components]
    return DiskTrace(phi.compose(comps))


@dataclass(frozen=True)
class ContactOrder:
    order: int
    exact: bool


def contact_order(m: Hypersurface, u: DiskJet) -> ContactOrder:
    """Order of vanishing of phi . u at 0, as far as the caps can see."""
    order, exact = compose_phi_u(m, u).vanishing_order()
    return ContactOrder(order, exact)


def holomorphic_reparam_series(coeffs, cap: int):
    """(Re theta, Im theta) for theta(z) = sum coeffs[k-1] z^k, as 2-var series.

    Coefficients are (re, im) pairs or rationals; theta(0) = 0 by shape and
    theta'(0) = coeffs[0] must be nonzero.
    """
    pairs = []
    for c in coeffs:
        if isinstance(c, tuple):
            pairs.append((rat(c[0]), rat(c[1])))
        else:
            pairs.append((rat(c), ZERO))
    if not pairs or (pairs[0][0] == 0 and pairs[0][1] == 0):
        raise GeometryError("reparametrization needs theta'(0) != 0")
    re = im = TruncatedSeries.zero(2, cap)
    if cap == 0:
        return re, im
    x, y = TruncatedSeries.variables(2, cap)
    zr, zi = TruncatedSeries.constant(1, 2, cap), re  # Re, Im of z^0
    for a, b in pairs[:cap]:
        zr, zi = zr * x - zi * y, zr * y + zi * x  # z^k = z^(k-1) (x + i y)
        re = re + zr.scale(a) - zi.scale(b)
        im = im + zi.scale(a) + zr.scale(b)
    return re, im


def reparametrize_disk_jet(u: DiskJet, coeffs,
                           j: ACStructure | None = None) -> DiskJet:
    """Precompose the jet with a holomorphic polynomial z -> theta(z).

    Composition with a holomorphic change of disk variable preserves the
    transport equation through the cap, so the result is again a disk jet
    for the same structure.  When the structure is supplied that claim is
    verified rather than trusted.
    """
    re_s, im_s = holomorphic_reparam_series(coeffs, u.cap)
    out = DiskJet(u.n, [c.compose([re_s, im_s]) for c in u.components])
    if j is not None and not is_cr_jet(out, j):
        raise TheoremViolation(
            "holomorphic reparametrization broke the transport equation")
    return out
