"""Jets of J-holomorphic disks and their contact with a hypersurface.

A disk jet is a polynomial map u: (R^2, 0) -> (R^(2n), 0) in disk coordinates
(x, y), truncated at a cap.  The structure equation is the transport system

    du/dy = J(u) . du/dx,

which determines the whole jet from the x-axis derivatives u_m = d^m u/dx^m(0)
degree by degree: writing u = sum c_{p,q} x^p y^q, matching the coefficient of
x^(m-1-q) y^q gives

    (q+1) c_{m-1-q, q+1} = (m-q) J_std c_{m-q, q} + R_{m-1-q, q},

with R = (J - J_std)(u) . du/dx.  J - J_std has no constant term, so R at
degree m-1 reads only strata (terms of one total degree) below m of u, all
known before order m starts.  One private state, _Transport, fills u one
stratum per order as a relaxed product (van der Hoeven, "Relax, but don't
be too lazy", JSC 2002) and reads one stratum of phi . u, each product of
u's components filled only as far as a reader needs.  A copy shares every
stratum formed, so disks that differ only from some order on transport
their common part once.  propagate_cr_jet is that state extended to its
order.  Strata are Python-int numerators over one denominator; rationals
appear only in the x-derivatives read and in what is returned.

What a transport reads of J and phi, its plan (_Plan: the products u^alpha
that their monomials need, the entries of J - J_std and the rows of R as
combinations of them, and phi . u as one), depends on neither the cap nor
the disk, so it is built once per (J, phi) pair and held by J (see _plan).
J also holds one transport state, grown by _read_held for the surface last
read, so that the higher Levi forms of one disk, asked one (p, q) at a
time, transport each order once.  propagate_cr_jet starts from a copy of
that state when its x-jet begins with the held one, and leaves the held
state as it was.  A read one order past a state solves u's stratum of
that order for a zero x-derivative by the same step as an extension
(_Transport._solve) and adds nothing to the state; the e(u) and R strata
of that order read only strata below it, so the state keeps them aside,
and the order's next read or extension, probed or real, forms them no
more (see _Transport._next).
Every stratum is formed by one convolution loop, _convolve: a product of
u's components convolves two strata, and e(u) and phi . u convolve each
term's constant, a degree-0 stratum, with its product's stratum; _stratum
sums over the rows of R.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import factorial, gcd, lcm
from threading import Lock
from weakref import WeakKeyDictionary

from .errors import CapError, GeometryError, TheoremViolation
from .geometry import ACStructure, Hypersurface
from .jets import (TruncatedSeries, _new, _parent, _relayout, _width, compose,
                   mat_vec)
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


def _convolve(pairs, d: int):
    """Stratum d of sum(sa * sb for sa, sb in pairs), as (nums, den) or None.

    A series is held as the list of its strata, indexed by degree, with None
    for a zero stratum.  Stratum k is a pair (nums, den) of k + 1 Python-int
    numerators over one positive denominator: nums[q] / den is the
    coefficient of x^(k-q) y^q.  pairs holds strata (or None) whose degrees
    sum to d.  The result is reduced, so it is the unique (nums, den) of
    its value.
    """
    out = [0] * (d + 1)
    den = 0
    for sa, sb in pairs:
        if sa is None or sb is None:
            continue
        na, da = sa
        nb, db = sb
        if len(na) > len(nb):
            na, nb = nb, na
        f = da * db
        if f != den:
            if not den:
                den = f
            else:
                m = lcm(den, f)
                if m != den:
                    g = m // den
                    out = [c * g for c in out]
                    den = m
                if m != f:
                    g = m // f
                    na = [c * g for c in na]
        for i, ca in enumerate(na):
            if ca:
                for k, cb in enumerate(nb, i):
                    out[k] += ca * cb
    if not den or not any(out):
        return None
    if den != 1:
        g = gcd(den, *out)
        if g != 1:
            den //= g
            out = [c // g for c in out]
    return out, den


def _aligned(a, b, d: int):
    """The pairs (a[t], b[d-t]) of strata that both lists hold.

    Strata of degree d or more that a series does not hold yet are never
    read.
    """
    lo = max(0, d + 1 - len(b))
    return zip(a[lo:d + 1], b[d - lo::-1])


def _stratum(pairs, d: int):
    """Stratum d of sum(a * b for a, b in pairs) for lists of strata."""
    return _convolve(chain.from_iterable(_aligned(a, b, d) for a, b in pairs),
                     d)


class _Plan:
    """What every transport of J, and of phi . u, reads of their terms.

    table holds (|alpha|, parent, k) of each product u^alpha that a monomial
    of J - J_std or of phi needs, u^alpha = u^(alpha - e_k) * u_k by the
    rule of jets._parent, the first 2n being the u_k.  entries holds e(u)
    for each entry e of J - J_std with a term, as (constant, product)
    terms, the constant a degree-0 stratum ([c], den) (see _convolve), and
    rows[a] the (entry, b) pairs of row a of R; phi holds phi . u as such
    terms.  Every term of positive degree is planned, whatever the cap of a
    transport: a product above what a cap reads is never filled, and reads
    as None.
    """

    __slots__ = ("table", "entries", "rows", "phi")

    def __init__(self, j: ACStructure, phi: TruncatedSeries | None):
        n2 = 2 * j.n
        # one key layout for the terms of J and of phi
        cap = max(j.cap, 0 if phi is None else phi.cap)
        width = _width(cap)
        top = width * n2
        table = self.table = [(1, None, None)] * n2
        index = {(1 << top) | (1 << width * (n2 - 1 - k)): k
                 for k in range(n2)}

        def product(key):
            i = index.get(key)
            if i is None:
                beta, k = _parent(key, n2, width)
                parent = product(beta)
                i = index[key] = len(table)
                table.append((key >> top, parent, k))
            return i

        def combination(e):
            return [(([c], e._den), product(key)) for key, c in
                    _relayout(e._terms, n2, e.cap, cap).items() if key >> top]

        # row a of R pairs (e(u), du_b/dx) over the entries e = (J - J_std)_ab;
        # J(0) = J_std, so e is J_ab without its constant
        self.entries, self.rows = [], [[] for _ in range(n2)]
        for a, row in enumerate(j.entries):
            for b, e in enumerate(row):
                comb = combination(e)
                if comb:
                    self.rows[a].append((len(self.entries), b))
                    self.entries.append(comb)
        self.phi = [] if phi is None else combination(phi)
        del product  # it calls itself: free it without the cyclic collector


def _plan(j: ACStructure, m: Hypersurface | None) -> _Plan:
    """The plan of J and phi, or of J alone when m is None, built once.

    J holds both: its own plan as an attribute, and the plan of each
    surface in a WeakKeyDictionary keyed by the surface, so a plan dies
    with either object.  It is keyed neither by cap, since one plan serves
    every cap, nor by id(m): a freed surface's id is reused by a new one,
    which would read the old surface's plan.  A plan is stored with
    setdefault, so threads that build one at once all get the one stored.
    """
    held = vars(j)
    if m is None:
        plan = held.get("_plan")
        return plan or held.setdefault("_plan", _Plan(j, None))
    plans = held.get("_plans")
    if plans is None:
        plans = held.setdefault("_plans", WeakKeyDictionary())
    plan = plans.get(m)
    return plan or plans.setdefault(m, _Plan(j, m.phi))


def _transport_plan(j: ACStructure, cap: int, m: Hypersurface | None):
    """The plan of a transport to order cap, after the checks that every
    transport makes: m and J live on one C^n, and J reaches order cap."""
    if m is not None and m.n != j.n:
        raise ValueError(f"surface in C^{m.n}, structure on C^{j.n}")
    if j.known < cap - 1:
        raise CapError(
            f"structure cap {j.cap} too small to transport to order {cap}")
    return _plan(j, m)


class _Transport:
    """One disk transported order by order, with phi . u read by stratum.

    Order m needs degree m-1 of R = (J - J_std)(u) u_x, which is

        sum_{t=1..m-1} [(J - J_std)(u)]_t [u_x]_{m-1-t}:

    t starts at 1 because J - J_std has no constant term and u(0) = 0.  So
    [u_x]_{m-1-t} reads stratum m-t <= m-1 of u, and [(J - J_std)(u)]_t
    reads strata <= t <= m-1: all final before order m starts, while
    stratum m, still being filled, never enters R.  The state holds u, u_x,
    each entry e(u) of J - J_std and each product u^alpha of the plan of
    (J, phi) (see _Plan), all as lists of strata (see _convolve).  The plan
    is built once per pair and shared by every transport of it, at any cap.
    u^alpha = u^(alpha - e_k) * u_k, parents shared, so its stratum t reads
    strata < t of its parent and <= t + 1 - |alpha| of u_k.  Order m needs
    the products of J - J_std through m-1 and stratum d of phi . u those of
    phi through d, so a degree-k factor of a degree-K monomial is formed
    only through d - (K - k).  A stratum never changes once formed, so
    copy() shares them all, after filling those that the order makes final
    and the cap will read, so that the copies do not each form them.  The
    e(u) strata and the rows of R of order + 1 are formed once, whether a
    read, a probe or the real x-derivative comes first, and shared the same
    way (see _next).
    """

    def __init__(self, j: ACStructure, cap: int, m: Hypersurface | None = None):
        plan = _transport_plan(j, cap, m)
        self.n2, self.cap, self.order = 2 * j.n, cap, 0
        table = self.table = plan.table
        self.entries, self.rows, self.phi = plan.entries, plan.rows, plan.phi
        # the stratum through which the cap reads each product, for copy()
        self.tops = {i: cap - 1 for comb in self.entries for _, i in comb
                     if table[i][0] < cap}
        self.tops.update((i, cap) for _, i in self.phi if table[i][0] <= cap)
        self.strata = [[None] * deg for deg, _, _ in table]
        self.ux = [[] for _ in range(self.n2)]
        self.eu = [[] for _ in self.entries]
        self.slot = None  # (order + 1, its e(u) strata, its R): see _next

    def _fill(self, i, d):
        """Form the strata of product i through d."""
        s = self.strata[i]
        if len(s) <= d:
            _, parent, k = self.table[i]
            self._fill(parent, d - 1)
            a, b = self.strata[parent], self.strata[k]
            s.extend(_convolve(_aligned(a, b, t), t)
                     for t in range(len(s), d + 1))

    def copy(self) -> "_Transport":
        for i, top in self.tops.items():
            self._fill(i, min(top, self.order + self.table[i][0] - 1))
        new = object.__new__(_Transport)
        new.__dict__.update(self.__dict__)
        new.strata = [list(s) for s in self.strata]
        new.ux = [list(s) for s in self.ux]
        new.eu = [list(s) for s in self.eu]
        return new

    def _next(self):
        """(order + 1, e(u)'s strata, the rows of R) that order + 1 reads.

        R of order m reads only strata of u below m, so it is the same
        whatever x-derivative order m then takes: a read's zero one, a
        probe's or the real one.  So it is formed once per order and held
        in slot, tagged with its order, until the next order's replaces it;
        copy() shares it, and a failure while forming it leaves slot as it
        was.
        """
        m = self.order + 1
        slot = self.slot
        if slot is None or slot[0] != m:
            low, strata = m - 1, self.strata
            eus = []
            for comb in self.entries:
                for _, i in comb:
                    self._fill(i, low)
                eus.append(_convolve([(c, strata[i][low]) for c, i in comb],
                                     low))
            eu = [s + [t] for s, t in zip(self.eu, eus)]
            r = [_stratum([(eu[e], self.ux[b]) for e, b in row], low)
                 if row else None for row in self.rows]
            slot = self.slot = m, eus, r
        return slot

    def _solve(self, vec):
        """(e(u)'s strata, u's strata) of order m = order + 1 for the
        x-derivative vec, d^m u/dx^m(0); the state is left as it is.

        Stratum m of u is solved along the y-power q.  Its coefficients all
        divide the denominator lcm(R, c_{m,0}) * m!, by induction on q, so
        on numerators over it every division by q+1 is exact.  A state at
        its cap solves no further order, so neither extend nor read goes
        past the cap.
        """
        if self.order == self.cap:
            raise ValueError(f"the transport stops at its cap {self.cap}")
        if len(vec) != self.n2:
            raise ValueError("x-axis derivative has wrong arity")
        m, eus, r = self._next()
        den = lcm(*(v.denominator for v in vec),
                  *(ri[1] for ri in r if ri is not None))
        # numerators over den * m!: c_{m,0} = v / m!
        cur = [int(v.numerator) * (den // v.denominator) for v in vec]
        den *= factorial(m)
        zero = [0] * m
        rs = [zero if ri is None else [c * (den // ri[1]) for c in ri[0]]
              for ri in r]
        # stratum m along the y-power q, one pair (x_i, y_i) at a time:
        # (q+1) c_{m-1-q,q+1} = (m-q) J_std c_{m-q,q} + R_{m-1-q,q}
        strata = []
        for i in range(0, self.n2, 2):
            a, b = cur[i], cur[i + 1]
            ra, rb = rs[i], rs[i + 1]
            col_a, col_b = [a], [b]
            for q in range(m):
                k = m - q
                a, b = (ra[q] - k * b) // (q + 1), (k * a + rb[q]) // (q + 1)
                col_a.append(a)
                col_b.append(b)
            for col in (col_a, col_b):
                g = gcd(den, *col) if any(col) else 0
                strata.append(([v // g for v in col], den // g) if g else None)
        return eus, strata

    def extend(self, *vecs):
        """Add one order m per vec, the x-derivative d^m u/dx^m(0); returns
        the state.

        Nothing is added before vec's stratum is solved (see _solve), so a
        vec that fails leaves the state at order m - 1.
        """
        for vec in vecs:
            eus, strata = self._solve(vec)
            m = self.order + 1
            for eu, st in zip(self.eu, eus):
                eu.append(st)
            for c, st in enumerate(strata):
                self.strata[c].append(st)
                self.ux[c].append(
                    None if st is None else
                    ([(m - q) * v for q, v in enumerate(st[0][:m])], st[1]))
            self.order = m
        return self

    def read(self, d: int):
        """d^d(phi . u)/dx^(d-q) dy^q at 0 for q = 0..d.

        d is at most order + 1.  A missing order d reads as the disk whose
        x-derivative there is zero: of that order, stratum d of phi . u
        reads only u's own stratum d, which _solve forms without adding it,
        in phi's terms of degree 1.  A product of two or more factors has
        its stratum d from strata below d of u (see the class docstring),
        so the product strata formed on the way are those of every later
        disk and stay; so do order d's e(u) strata and rows of R, which
        read strata below d too, in slot (see _next), where the next extend
        or probe finds them.  The order and the lists of u, u_x and e(u)
        stay as they are.  Two or more missing orders are refused: products
        would then read strata of u that no x-derivative has fixed.
        """
        if d > self.order + 1:
            raise ValueError(
                f"read({d}) is more than one order past order {self.order}")
        n2, strata = self.n2, self.strata
        u = (self._solve((ZERO,) * n2)[1] if d > self.order
             else [st[d] for st in strata[:n2]])
        for _, i in self.phi:
            if i >= n2:
                self._fill(i, d)
        st = _convolve([(c, u[i] if i < n2 else strata[i][d])
                        for c, i in self.phi], d)
        if st is None:
            return [ZERO] * (d + 1)
        return [Q(c * factorial(d - q) * factorial(q), st[1])
                for q, c in enumerate(st[0])]

    def disk(self) -> DiskJet:
        """u as a DiskJet of cap order."""
        # the lcm of reduced strata denominators leaves the numerators
        # without a common factor with it, so each component is reduced
        w = _width(self.order)
        comps = []
        for st in self.strata[:self.n2]:
            den = lcm(*(s[1] for s in st if s is not None))
            terms = {}
            for d, s in enumerate(st):
                if s is not None:
                    scale = den // s[1]
                    for q, c in enumerate(s[0]):
                        if c:
                            terms[(d << 2 * w) | ((d - q) << w) | q] = c * scale
            comps.append(_new(2, self.order, terms, den))
        return DiskJet(self.n2 // 2, comps)


def _lock(j: ACStructure) -> Lock:
    """J's one lock, over the transport state that it holds."""
    return vars(j).get("_lock") or vars(j).setdefault("_lock", Lock())


def _read_held(j: ACStructure, m: Hypersurface, jet):
    """Stratum len(jet) + 1 of phi . u, as _Transport.read gives it, on the
    disk of the x-derivatives jet, read from the one transport state that J
    holds; len(jet) + 1 is at most m.cap.

    J holds (plan, state, jet, stratum): the plan of the surface read, the
    _Transport, the x-derivatives it was extended by and the stratum last
    read from it.  A call on that plan whose jet equals the held one returns
    the held stratum, and one whose jet starts with it extends the state by
    the rest; any other call replaces the state by a fresh one, at the
    largest cap that m and J allow, so that any later jet can extend it.
    So a caller that reads one stratum many times, and the strata of the
    prefixes of one x-jet in turn, transports each order once.  The held
    plan stays alive, so no other surface's plan is the same object.  The
    jet is held as tuples, so a caller that mutates its lists cannot change
    it; the record is dropped while the state grows, so a failed extension
    leaves none behind; and J's lock serializes the calls, the copies of
    propagate_cr_jet among them.  The state is bounded by one surface's cap,
    m.cap orders and the product strata they read, and dies with J.
    """
    d = len(jet) + 1
    plan = _transport_plan(j, d, m)
    jet = tuple(map(tuple, jet))
    held = vars(j)
    with _lock(j):
        record = held.get("_held")
        if record and record[0] is plan and jet[:len(record[2])] == record[2]:
            if len(jet) == len(record[2]):
                return record[3]
            state, new = record[1], jet[len(record[2]):]
        else:
            cap = min(m.cap, j.known + 1)
            state, new = _Transport(j, cap, m), jet
        held.pop("_held", None)  # a failed extension leaves no state behind
        state.extend(*new)
        stratum = tuple(state.read(d))
        held["_held"] = plan, state, jet, stratum
    return stratum


def propagate_cr_jet(x_derivs, j: ACStructure, order: int | None = None) -> DiskJet:
    """Disk jet with the given x-axis derivatives, transported by J.

    x_derivs[m-1] is d^m u/dx^m(0) for m = 1..len(x_derivs); missing orders up
    to the requested cap are padded with zero.  The returned jet satisfies the
    transport equation through cap-1 and is the unique such jet.  It is a
    _Transport extended to order, one stratum per order.  When the state
    that J holds (see _read_held) has transported a prefix of the padded
    x-jet and reaches order, a copy of it, taken under J's lock, is extended
    by the rest; the held state itself is read, never extended or replaced.
    The disk is unique given the jet, so both routes return the same DiskJet.
    """
    n2 = 2 * j.n
    derivs = [tuple(rat(v) for v in vec) for vec in x_derivs]
    for vec in derivs:
        if len(vec) != n2:
            raise ValueError("x-axis derivative has wrong arity")
    if order is None:
        order = len(derivs)
    if order < 0:
        raise ValueError(f"a disk needs order >= 0, got {order}")
    jet = (*derivs[:order], *[(ZERO,) * n2] * (order - len(derivs)))
    with _lock(j):
        record = vars(j).get("_held")
        state = (record[1].copy() if record and order <= record[1].cap
                 and jet[:len(record[2])] == record[2] else None)
    state = state or _Transport(j, order)
    state.extend(*jet[state.order:])
    return state.disk()


def is_cr_jet(u: DiskJet, j: ACStructure) -> bool:
    """Check du/dy = J(u) du/dx coefficientwise through cap-1.

    The check composes J's entries with u, so its guard is on the cap of
    those entries, not on the order J is known through (ACStructure.known):
    a J_std whose entries have a cap below cap-1 is refused too.
    """
    if u.cap == 0:
        return True
    low = u.cap - 1
    if j.cap < low:
        raise CapError("structure cap too small for the check")
    ux = [c.partial(0) for c in u.components]
    uy = [c.partial(1) for c in u.components]
    comps = [c.truncate(low) for c in u.components]
    n2 = len(j.entries)
    zero = TruncatedSeries.zero(n2, low)
    # every entry of J composed with u as one list; an entry of column b
    # multiplies du_b/dx only, so that of a zero column is left zero
    ju = compose([zero if ux[b].is_zero() else e.truncate(low)
                  for row in j.entries for b, e in enumerate(row)], comps)
    rows = [ju[a:a + n2] for a in range(0, n2 * n2, n2)]
    return all((a - b).is_zero() for a, b in zip(uy, mat_vec(rows, ux)))


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
    term, so they cannot pollute the kept degrees.  For the same reason
    ``compose`` forms each part of phi that a power u_i^e multiplies only
    through cap - e: nothing above that degree reaches the kept degrees.
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
    out = DiskJet(u.n, compose(u.components, [re_s, im_s]))
    if j is not None and not is_cr_jet(out, j):
        raise TheoremViolation(
            "holomorphic reparametrization broke the transport equation")
    return out
