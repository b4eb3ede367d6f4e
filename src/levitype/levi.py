"""Levi forms: two independent routes, polar form, classification, L^{p,q}.

The Levi form of a complex tangent field X is dphi(J[X,JX]) evaluated at the
origin.  A second route expresses the same number through the flat Hessian of
phi plus a correction built from first derivatives of J: one bilinear form at
0 (_levi_form), which the Hessian route and the Hermitian matrix on the
complex tangent space both read.  The bracket route, levi_form_bracket and
levi_polar, brackets fields of cap 1 (_bracket_at_zero), shares no code with
that form, and is cross-checked against it in tests.  The higher forms
L^{p,q} are computed by their defining contract: propagate a disk jet from
prescribed x-derivatives, compose with phi, and read one derivative of its
disk Laplacian at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from math import lcm, prod

from . import linalg
from .disks import _read_held
from .errors import (CapError, ClosedFormMismatch, GeometryError,
                     TheoremViolation)
from .geometry import (
    ACStructure,
    Hypersurface,
    VectorField,
    _tangent_indices,
    apply_jstd,
    complex_tangent_basis,
    is_complex_tangent,
    lie_bracket,
)
from .jets import TruncatedSeries, _low_terms
from .rational import QC, ZERO, Q, rat


@dataclass(frozen=True)
class LeviReport:
    value: object
    route: str
    correction_term: object


def _require_tangent(m: Hypersurface, j: ACStructure, x: VectorField, who: str):
    if not is_complex_tangent(m, j, x):
        raise GeometryError(
            f"{who} needs a complex tangent field: dphi(X) and dphi(JX) "
            "must vanish identically"
        )


def _bracket_at_zero(m: Hypersurface, a: VectorField, b: VectorField):
    """dphi(J_std [A, B](0)) by lie_bracket, for fields of one cap <= 1:
    [A, B](0) = DB(0)A(0) - DA(0)B(0) reads only their 1-jets."""
    return m.dphi_at_zero(apply_jstd(lie_bracket(a, b).at_zero()))


def levi_form_bracket(m: Hypersurface, j: ACStructure, x: VectorField) -> LeviReport:
    """L(X) = dphi(J[X, JX]) at 0, where J(0) = J_std."""
    _require_tangent(m, j, x, "levi_form_bracket")
    x = x.truncate(min(x.cap, 1))
    return LeviReport(_bracket_at_zero(m, x, j.apply(x)), "bracket", ZERO)


def _derivative_at_zero(series: TruncatedSeries, vectors):
    """D^k f(v_1, ..., v_k) at 0, 1 <= k = len(vectors) <= f's cap, from
    f's degree-k terms: c x_(a_1)...x_(a_k) adds c times the permanent
    sum over permutations s of prod_i v_(s_i)[a_i]."""
    k = len(vectors)
    if k > series.cap:
        raise CapError("derivative order exceeds the series' cap")
    total = ZERO
    for v, num in _low_terms(series, k):
        if len(v) == k:
            total += num * sum(
                (prod(vectors[i][a] for i, a in zip(perm, v))
                 for perm in permutations(range(k))), ZERO)
    return total / series._den


def _levi_form(m: Hypersurface, j: ACStructure):
    """The bilinear form at 0 that the Hessian route and the matrix read.

    With g = grad phi(0), H = D2phi(0), J0 = J_std and
    C[k][b] = sum_a g_a d_k J_ab(0), let Q = H + J0'HJ0 + K with
    K = J0'C - CJ0.  Then L(v) = v'Qv is levi_form_hessian's value and
    v'Kv its correction term.  Returns (G, q, k, den): integer numerators
    G of g over phi's denominator, and Q = q/den, K = k/den as integer
    matrices.  g and H are read from the keys of phi's degree-1 and
    degree-2 terms, C from the degree-1 terms of the rows a of J with
    g_a != 0, over the lcm of their denominators.  J0 is a signed
    permutation, (J0 v)_a = -s_a v_(a^1) with s_a = 1 for even a and -1
    for odd a, so (J0'HJ0)[a][b] = s_a s_b H[a^1][b^1],
    (J0'C)[a][b] = s_a C[a^1][b] and (CJ0)[a][b] = s_b C[a][b^1]: no
    series operation and no matrix product.
    """
    if j.cap < 1:
        raise CapError("derivative order exceeds the series' cap")
    n2 = 2 * m.n
    grad = [0] * n2
    h = [[0] * n2 for _ in range(n2)]
    for v, num in _low_terms(m.phi, 2):
        if len(v) == 1:
            grad[v[0]] = num
        elif v[0] == v[1]:
            h[v[0]][v[0]] = 2 * num
        else:
            h[v[0]][v[1]] = h[v[1]][v[0]] = num
    # a constant entry, as every entry of J_std, has no degree-1 term
    read = [
        (ga, b, e._den, terms) for a, ga in enumerate(grad) if ga
        for b, e in enumerate(j.entries[a]) if (terms := _low_terms(e, 1))]
    lden = lcm(*(d for _, _, d, _ in read))
    c = [[0] * n2 for _ in range(n2)]
    for ga, b, d, terms in read:
        scale = ga * (lden // d)
        for (i,), jn in terms:
            c[i][b] += scale * jn
    s = [1 - 2 * (a & 1) for a in range(n2)]
    k = [[s[a] * c[a ^ 1][b] - s[b] * c[a][b ^ 1] for b in range(n2)]
         for a in range(n2)]
    q = [[lden * (h[a][b] + s[a] * s[b] * h[a ^ 1][b ^ 1]) + k[a][b]
          for b in range(n2)] for a in range(n2)]
    return grad, q, k, m.phi._den * lden


def _quadratic(mat, v):
    """v'Mv for a matrix and a vector of rationals."""
    return sum((x * sum((r * y for r, y in zip(row, v) if y), ZERO)
                for x, row in zip(v, mat) if x), ZERO)


def levi_form_hessian(m: Hypersurface, j: ACStructure, x: VectorField) -> LeviReport:
    """L(X) via the flat Hessian of phi plus the first-jet correction of J.

    L(X) = D2phi(X, X) + D2phi(JX, JX)
         + dphi((D_{JX} J) X - (D_X J) JX)   at 0,

    where D is the flat connection and D_V J differentiates the matrix
    entries.  With v = X(0) this is v'Qv for the form of _levi_form, its
    correction term v'Kv.  Deliberately avoids lie_bracket so the two
    routes stay independent.
    """
    _require_tangent(m, j, x, "levi_form_hessian")
    _, q, k, den = _levi_form(m, j)
    x0 = x.at_zero()
    return LeviReport(_quadratic(q, x0) / den, "hessian",
                      _quadratic(k, x0) / den)


def levi_polar(m: Hypersurface, j: ACStructure, x: VectorField,
               y: VectorField) -> QC:
    """Polar form: Theta(X,Y) with Theta(X,X) = L(X).

    Real part: dphi(J[X,JY] + J[Y,JX]) / 2; imaginary part:
    dphi(J[X,Y] + J[JX,JY]) / 2, all at 0, where J(0) = J_std.  Antilinear
    in the first slot.  Each bracket is one _bracket_at_zero, as in
    levi_form_bracket.
    """
    _require_tangent(m, j, x, "levi_polar")
    _require_tangent(m, j, y, "levi_polar")
    cap = min(x.cap, y.cap, 1)
    x, y = x.truncate(cap), y.truncate(cap)
    jx, jy = j.apply(x), j.apply(y)
    re = (_bracket_at_zero(m, x, jy) + _bracket_at_zero(m, y, jx)) / 2
    im = (_bracket_at_zero(m, x, y) + _bracket_at_zero(m, jx, jy)) / 2
    return QC(re, im)


@dataclass(frozen=True)
class Classification:
    label: str
    positive: int
    negative: int
    zero: int


class HermitianLeviMatrix:
    """Polar form on a basis of the complex tangent space at 0.

    basis_at_zero holds the basis vectors tau_i at 0 and entries the
    (n-1) x (n-1) complex rationals Theta(tau_i, tau_k).  basis holds the
    complex tangent fields of cap 1 whose values at 0 are the tau_i, the
    fields of complex_tangent_basis on the 2-jet of phi; they are built,
    and each checked tangent once, on first read.
    """

    def __init__(self, basis_at_zero, entries, m: Hypersurface,
                 j: ACStructure):
        self.basis_at_zero = basis_at_zero
        self.entries = entries
        self._problem = m, j

    @cached_property
    def basis(self) -> list:
        m, j = self._problem
        m = m.truncate(2)
        fields = complex_tangent_basis(m, j)
        for x in fields:
            _require_tangent(m, j, x, "hermitian_levi_matrix")
        return fields

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def realified(self):
        """[[A, -B], [B, A]] acting on coordinates (alpha, beta)."""
        d = len(self.entries)
        out = [[ZERO] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            for k in range(d):
                a, b = self.entries[i][k].re, self.entries[i][k].im
                out[i][k] = a
                out[i][k + d] = -b
                out[i + d][k] = b
                out[i + d][k + d] = a
        return out

    def classify(self) -> Classification:
        """Pseudoconvexity label from the signature of the polar form.

        The signature is computed on the realified matrix, where every
        eigenvalue appears twice; the reported counts are complex (halved).
        """
        if self.is_zero():
            return Classification("levi_flat", 0, 0, len(self.entries))
        pos2, neg2, zero2 = linalg.real_symmetric_signature(self.realified())
        if pos2 % 2 or neg2 % 2 or zero2 % 2:
            raise ArithmeticError("realified signature must have even counts")
        pos, neg, zero = pos2 // 2, neg2 // 2, zero2 // 2
        if zero == 0:
            if neg == 0:
                label = "strictly_pseudoconvex"
            elif pos == 0:
                label = "strictly_pseudoconcave"
            else:
                label = "indefinite"
        else:
            if neg == 0 and pos > 0:
                label = "pseudoconvex_degenerate"
            elif pos == 0 and neg > 0:
                label = "pseudoconcave_degenerate"
            else:
                label = "indefinite"
        return Classification(label, pos, neg, zero)


def hermitian_levi_matrix(m: Hypersurface, j: ACStructure) -> HermitianLeviMatrix:
    """Polar form on the basis of complex_tangent_basis, from the form at 0.

    Theta(X, Y) reads X(0) and Y(0) only: with M = (Q + Q')/2 for the
    form Q of _levi_form, Theta(tau_i, tau_k) = tau_i' M tau_k
    - i tau_i' M J0 tau_k, J0 = J_std.  The basis at 0 is the projection
    of e_i along g and J0 g, g = grad phi(0),
    tau_i = e_i - (g_i g + (J0 g)_i J0 g) / |g|^2, over the coordinates i
    of _tangent_indices.  Everything is summed on integers: T_i = |G|^2
    tau_i for the numerators G of g, and W_k = (Q + Q') T_k, so that
    Theta(tau_i, tau_k) = (T_i.W_k - i T_i.J0 W_k) / (2 den |G|^4).  As
    J0'MJ0 = M, MJ0 is antisymmetric and the diagonal is real; that, and
    g.T_i = (J0 g).T_i = 0, are checked.  No series operation runs: the
    basis fields are built only when read (HermitianLeviMatrix.basis).
    A basis cap (complex_tangent_basis) below 1 raises CapError, as
    differentiating its fields would.
    """
    kept = _tangent_indices(m.grad_at_zero())
    if (j.cap if j.is_standard else j.cap - 1) < 1:
        raise CapError("cannot differentiate a field with cap 0")
    grad, q, _, den = _levi_form(m, j)
    n2 = len(grad)
    jgrad = apply_jstd(grad)
    norm = sum(x * x for x in grad)
    sym = [[q[a][b] + q[b][a] for b in range(n2)] for a in range(n2)]
    taus, sparse, images = [], [], []
    for i in kept:
        t = [-grad[i] * x - jgrad[i] * y for x, y in zip(grad, jgrad)]
        t[i] += norm
        if (sum(x * y for x, y in zip(grad, t))
                or sum(x * y for x, y in zip(jgrad, t))):
            raise TheoremViolation("basis vector at 0 is not complex tangent")
        taus.append(tuple(Q(x, norm) for x in t))
        nz = [(b, x) for b, x in enumerate(t) if x]
        sparse.append(nz)
        images.append([sum(row[b] * x for b, x in nz) for row in sym])
    scale = 2 * den * norm * norm
    d = len(kept)
    entries = [[None] * d for _ in range(d)]
    for i in range(d):
        for k in range(i, d):
            w = images[k]
            re = sum(x * w[b] for b, x in sparse[i])
            # -T_i.J0 w, as (J0 w)_b = -s_b w_(b^1)
            im = sum(x * w[b ^ 1] * (1 - 2 * (b & 1)) for b, x in sparse[i])
            v = entries[i][k] = QC(Q(re, scale), Q(im, scale))
            if k != i:
                entries[k][i] = v.conj()
            elif im:
                raise ArithmeticError("polar form has non-real diagonal")
    return HermitianLeviMatrix(taus, entries, m, j)


def classify_point(m: Hypersurface, j: ACStructure) -> Classification:
    """Exact pseudoconvexity label at 0 from the signature of the polar form."""
    if m.n == 1:
        return Classification("levi_flat", 0, 0, 0)
    return hermitian_levi_matrix(m, j).classify()


def _levi_values(a):
    """L^(p, s - p) = a(p+2, s-p) + a(p, s-p+2), p = 0..s, from stratum s+2
    of phi . u as _Transport.read gives it."""
    s = len(a) - 3
    return [a[s - p] + a[s + 2 - p] for p in range(s + 1)]


def levi_trace(m: Hypersurface, j: ACStructure, x_jet, s: int):
    """L^(p, s - p) for p = 0..s on the disk from x_jet[:s + 1].

    The disk is padded with a zero (s+2)-th x-derivative; the values do not
    depend on the padding.

    Stratum s + 2 of phi . u is read by disks._read_held from the one
    transport state that J holds.  A call on the surface last read whose
    x_jet[:s + 1] equals the jet of that state reuses its stratum, and one
    whose x_jet[:s + 1] starts with it extends the state; any other call
    replaces it.  So a caller that asks every p of one s, and s = 0, 1, ...
    on prefixes of one x-jet, transports each order once.  The state is
    bounded by one surface's cap, at most m.cap orders, and dies with J.
    """
    return _levi_values(_trace_stratum(m, j, x_jet, s))


def _trace_stratum(m: Hypersurface, j: ACStructure, x_jet, s: int):
    """Stratum s + 2 of phi . u on the disk from x_jet[:s + 1], held."""
    if s < 0:
        raise ValueError(f"L^(p,q) needs p + q >= 0, got {s}")
    if s + 2 > m.cap:
        raise CapError(
            f"L^(p,q) with p + q = {s} needs phi cap >= {s + 2}, have {m.cap}")
    if len(x_jet) < s + 1:
        raise ValueError(f"need {s + 1} x-derivatives, got {len(x_jet)}")
    return _read_held(j, m, x_jet[:s + 1])


def higher_levi(m: Hypersurface, j: ACStructure, x_jet, p: int, q: int):
    """L^{p,q}(u_1, ..., u_{p+q+1}) by the defining contract.

    Propagates the disk jet from the given x-derivatives with the
    (p+q+2)-th derivative set to zero, composes with phi, and reads the
    (p,q)-derivative of the disk Laplacian at 0, a(p+2,q) + a(p,q+2).  The
    value does not depend on the padding.  Its stratum is read as
    levi_trace reads it, so the calls on one surface share the one
    transport state that J holds: every p of one p + q reads one stratum,
    and a longer prefix of the same x-jet extends the disk of a shorter
    one.  That state is bounded and dies with J (see levi_trace).
    """
    if p < 0 or q < 0:
        raise ValueError(f"L^(p,q) needs p, q >= 0, got ({p},{q})")
    jets = [tuple(rat(v) for v in vec) for vec in x_jet]
    a = _trace_stratum(m, j, jets, p + q)
    return a[q] + a[q + 2]


@cache
def _standard(n: int) -> ACStructure:
    """One J_std per n for the life of the process, whose held transport
    state (see levi_trace) the closed forms' calls on one surface share; no
    transport reads its cap."""
    return ACStructure.standard(n, 2)


def higher_levi_closed_form(p: int, q: int, m: Hypersurface, *vectors):
    """The printed closed forms for L^{0,0}, L^{1,0}, L^{0,1}, standard J only.

    Implemented exactly as printed and gated: the result is cross-checked
    against the defining disk-route computation, and any disagreement raises
    ClosedFormMismatch instead of being patched.  The (1,0) and (0,1) forms
    end in a term quadratic in the second argument whose self-consistency is
    exactly what the gate monitors.
    """
    if (p, q) not in ((0, 0), (1, 0), (0, 1)):
        raise ValueError(f"no printed closed form for (p,q)=({p},{q})")
    vecs = [tuple(rat(c) for c in v) for v in vectors]
    if len(vecs) != p + q + 1:
        raise ValueError(f"need {p + q + 1} vectors, got {len(vecs)}")
    j = _standard(m.n)

    i = apply_jstd  # multiplication by i on C^n

    def d(*vecs):
        return _derivative_at_zero(m.phi, vecs)

    if (p, q) == (0, 0):
        x1 = vecs[0]
        value = d(x1, x1) + d(i(x1), i(x1))
    elif (p, q) == (1, 0):
        x1, x2 = vecs
        value = (d(x1, x1, x1) + d(x1, i(x1), i(x1))
                 + 2 * d(x2, x1) + 2 * d(i(x2), i(x2)))
    else:
        x1, x2 = vecs
        value = (d(i(x1), x1, x1) + d(i(x1), i(x1), i(x1))
                 + 2 * d(i(x2), x1) - 2 * d(x2, i(x2)))
    reference = higher_levi(m, j, vecs, p, q)
    if value != reference:
        raise ClosedFormMismatch(p, q, value, reference)
    return value
