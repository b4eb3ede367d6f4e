"""Independent checks of levitype's outputs, computed with sympy.

Nothing here calls levitype.  Inputs are re-read from the expression text
the program received (sympy parses it; the complex sugar z = x + i y,
Re, Im, conj and abs2 are expanded by sympy), outputs are read from the
report documents or from plain coefficient dicts, and every identity is
recomputed from scratch:

* witness disks: contact order with phi (translated to the point for scans)
  and the transport equation du/dy = J(u) du/dx through cap - 1;
* J^2 = -I for the generated structures;
* the Levi form on each returned basis vector from the 2-jet of phi and the
  1-jet of J (corrected Hessian), off-diagonal entries by polarization;
* the inertia of the returned polar matrix against the reported signature
  and classification;
* expected types: Bloom-Graham for rigid n = 2 surfaces, the cap for
  surfaces through a complex line;
* on higher-levi, the master identity a(p+2,q) + a(p,q+2) = L^(p,q) on a
  padded disk, which is also the padding-independence check.

Every check raises CheckError with a message naming the first mismatch.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import sympy as sp
from sympy.parsing.sympy_parser import parse_expr

DISK_X, DISK_Y = sp.symbols("dx dy", real=True)


class CheckError(Exception):
    """A program output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reading inputs and outputs


def coordinates(n):
    """Real symbols in the program's order (x1, y1, ..., xn, yn)."""
    out = []
    for i in range(1, n + 1):
        out += [sp.Symbol(f"x{i}", real=True), sp.Symbol(f"y{i}", real=True)]
    return out


def _re(e):
    return sp.re(sp.expand(e))


def _im(e):
    return sp.im(sp.expand(e))


def _abs2(e):
    return sp.expand(e * sp.conjugate(e))


def parse_real(text, variables):
    """Polynomial dict {exponents: Fraction} of an expression-language text.

    ``variables`` are the symbols that x1, y1, x2, ... stand for; the text
    must expand to a real polynomial.
    """
    names = {}
    for i in range(0, len(variables), 2):
        k = i // 2 + 1
        x, y = variables[i], variables[i + 1]
        names[f"x{k}"], names[f"y{k}"], names[f"z{k}"] = x, y, x + sp.I * y
    names.update(Re=_re, Im=_im, conj=sp.conjugate, abs2=_abs2)
    expr = sp.expand(parse_expr(text.replace("^", "**"), local_dict=names))
    require(sp.im(expr) == 0, f"expression {text!r} is not real")
    return to_dict(sp.Poly(expr, *variables, domain=sp.QQ))


def to_dict(poly):
    return {m: F(int(c.p), int(c.q)) for m, c in poly.terms() if c != 0}


def to_poly(d, variables):
    return sp.Poly.from_dict({m: sp.Rational(c.numerator, c.denominator)
                              for m, c in d.items()} or {(0,) * len(variables): 0},
                             *variables, domain=sp.QQ)


def rationals(strings):
    return tuple(F(s) for s in strings)


def disk_components(doc):
    """Witness disk components of a report document as 2-variable dicts."""
    return [parse_real(c["expression"], [DISK_X, DISK_Y])
            for c in doc["components"]]


# ---------------------------------------------------------------------------
# polynomial helpers on sympy Polys with a degree cap


def _trunc(poly, cap):
    gens = poly.gens
    terms = {m: c for m, c in poly.terms() if sum(m) <= cap}
    return sp.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens,
                             domain=sp.QQ)


def compose(poly_dict, comps, cap):
    """poly(comps) truncated at total degree cap; comps are 2-var Polys.

    Every component has zero constant term, so terms beyond the cap of the
    components cannot reach degrees <= cap.
    """
    one = sp.Poly(1, DISK_X, DISK_Y, domain=sp.QQ)
    powers = [[one] for _ in comps]
    total = sp.Poly(0, DISK_X, DISK_Y, domain=sp.QQ)
    for exps, c in poly_dict.items():
        if sum(exps) > cap:
            continue
        term = one * sp.Rational(c.numerator, c.denominator)
        for k, e in enumerate(exps):
            while len(powers[k]) <= e:
                powers[k].append(_trunc(powers[k][-1] * comps[k], cap))
            if e:
                term = _trunc(term * powers[k][e], cap)
        total += term
    return total


def translate(poly_dict, point, variables):
    """phi(point + w) as a dict in the same variables."""
    shift = {v: v + sp.Rational(p.numerator, p.denominator)
             for v, p in zip(variables, point)}
    expr = to_poly(poly_dict, variables).as_expr().subs(shift, simultaneous=True)
    return to_dict(sp.Poly(sp.expand(expr), *variables, domain=sp.QQ))


# ---------------------------------------------------------------------------
# structures


def standard_structure(n):
    d = 2 * n
    rows = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = {(0,) * d: F(-1)}
        rows[2 * i + 1][2 * i] = {(0,) * d: F(1)}
    return rows


def parse_structure(j_rows, n):
    if j_rows is None:
        return standard_structure(n)
    variables = coordinates(n)
    return [[parse_real(e, variables) for e in row] for row in j_rows]


def check_j_squared(j, n):
    """J*J = -I as an exact polynomial identity."""
    variables = coordinates(n)
    d = 2 * n
    mat = sp.Matrix(d, d, lambda a, b: to_poly(j[a][b], variables).as_expr())
    sq = (mat * mat).applyfunc(sp.expand)
    require(sq == -sp.eye(d), "J*J != -I")


def _coeff(poly_dict, exps):
    return poly_dict.get(tuple(exps), F(0))


def _unit(d, *idx):
    e = [0] * d
    for i in idx:
        e[i] += 1
    return tuple(e)


def j_at_zero(j):
    d = len(j)
    return [[_coeff(j[a][b], (0,) * d) for b in range(d)] for a in range(d)]


def mat_vec(m, v):
    return [sum((m[i][k] * v[k] for k in range(len(v))), F(0))
            for i in range(len(m))]


# ---------------------------------------------------------------------------
# Levi form, polar matrix and inertia


def levi_value(phi, j, v):
    """Levi form at 0 along the constant vector v, corrected-Hessian route.

    L(v) = D2phi(v, v) + D2phi(Jv, Jv) + dphi((D_Jv J) v - (D_v J) J v),
    with J = J(0) in Jv and D the flat derivative of the entries.  Only
    the 2-jet of phi and the 1-jet of J enter.
    """
    d = len(v)

    def hess(a, b):
        return 2 * _coeff(phi, _unit(d, a, a)) if a == b \
            else _coeff(phi, _unit(d, a, b))

    def d2(p, q):
        return sum((p[a] * hess(a, b) * q[b]
                    for a in range(d) for b in range(d)), F(0))

    jv = mat_vec(j_at_zero(j), v)
    grad = [_coeff(phi, _unit(d, a)) for a in range(d)]
    corr = F(0)
    for a in range(d):
        acc = F(0)
        for b in range(d):
            dj = [_coeff(j[a][b], _unit(d, k)) for k in range(d)]
            acc += sum((jv[k] * dj[k] for k in range(d)), F(0)) * v[b]
            acc -= sum((v[k] * dj[k] for k in range(d)), F(0)) * jv[b]
        corr += grad[a] * acc
    return d2(v, v) + d2(jv, jv) + corr


def inertia(symmetric):
    """(positive, negative, zero) eigenvalue counts of a rational matrix."""
    t = sp.Symbol("t")
    size = len(symmetric)
    mat = sp.Matrix(size, size, lambda a, b: sp.Rational(
        symmetric[a][b].numerator, symmetric[a][b].denominator))
    poly = mat.charpoly(t).as_poly()
    zero = 0
    while poly.eval(0) == 0 and poly.degree() > 0:
        poly = sp.Poly(sp.quo(poly.as_expr(), t), t)
        zero += 1
    pos = neg = 0
    if poly.degree() > 0:  # 0 is no longer a root
        for factor, mult in sp.sqf_list(poly)[1]:
            pos += mult * factor.count_roots(0, None)
            neg += mult * factor.count_roots(None, 0)
    require(pos + neg + zero == size, "characteristic polynomial not real-rooted")
    return pos, neg, zero


def expected_label(pos, neg, zero):
    if pos == 0 and neg == 0:
        return "levi_flat"
    if pos and neg:
        return "indefinite"
    if zero == 0:
        return "strictly_pseudoconvex" if neg == 0 else "strictly_pseudoconcave"
    return "pseudoconvex_degenerate" if neg == 0 else "pseudoconcave_degenerate"


def check_levi(problem, result):
    """A `levi` result: tangency, polar entries, inertia, classification."""
    n = problem.n
    phi = parse_real(problem.phi, coordinates(n))
    j = parse_structure(problem.j_rows, n)
    j0 = j_at_zero(j)
    d = 2 * n
    grad = [_coeff(phi, _unit(d, a)) for a in range(d)]
    basis = [rationals(v) for v in result["basis_at_zero"]]
    require(len(basis) == n - 1, "basis has the wrong length")
    span = []
    for v in basis:
        jv = mat_vec(j0, v)
        require(sum(g * x for g, x in zip(grad, v)) == 0
                and sum(g * x for g, x in zip(grad, jv)) == 0,
                f"basis vector {v} is not complex tangent")
        span += [list(v), jv]
    require(sp.Matrix(span).rank() == 2 * (n - 1),
            "basis is not complex linearly independent")
    polar = [[(F(e[0]), F(e[1])) for e in row] for row in result["polar_matrix"]]
    levi = [levi_value(phi, j, v) for v in basis]
    for i, v in enumerate(basis):
        require(polar[i][i] == (levi[i], 0),
                f"polar diagonal {i}: {polar[i][i]} != L = {levi[i]}")
        for k in range(i + 1, len(basis)):
            w = basis[k]
            jw = mat_vec(j0, w)
            re = (levi_value(phi, j, [a + b for a, b in zip(v, w)])
                  - levi[i] - levi[k]) / 2
            im = (levi[i] + levi[k]
                  - levi_value(phi, j, [a + b for a, b in zip(v, jw)])) / 2
            require(polar[i][k] == (re, im),
                    f"polar entry ({i},{k}): {polar[i][k]} != {(re, im)}")
            require(polar[k][i] == (re, -im),
                    f"polar entry ({k},{i}) is not the conjugate")
    size = len(basis)
    real = [[F(0)] * (2 * size) for _ in range(2 * size)]
    for i in range(size):
        for k in range(size):
            a, b = polar[i][k]
            real[i][k], real[i][k + size] = a, -b
            real[i + size][k], real[i + size][k + size] = b, a
    pos2, neg2, zero2 = inertia(real)
    require(pos2 % 2 == neg2 % 2 == zero2 % 2 == 0, "odd realified inertia")
    sig = result["signature"]
    got = (sig["positive"], sig["negative"], sig["zero"])
    require(got == (pos2 // 2, neg2 // 2, zero2 // 2),
            f"signature {got} != inertia {(pos2 // 2, neg2 // 2, zero2 // 2)}")
    want = expected_label(*got)
    require(result["classification"] == want,
            f"classification {result['classification']} != {want}")


# ---------------------------------------------------------------------------
# disks


def _disk_coeff(poly, p, q):
    c = poly.coeff_monomial(DISK_X ** p * DISK_Y ** q)
    return F(int(c.p), int(c.q))


def check_transport(u, j, cap):
    """du/dy = J(u) du/dx coefficientwise through degree cap - 1."""
    low = cap - 1
    if low < 0:
        return
    ux = [_trunc(c.diff(DISK_X), low) for c in u]
    uy = [_trunc(c.diff(DISK_Y), low) for c in u]
    d = len(u)
    for a in range(d):
        rhs = sp.Poly(0, DISK_X, DISK_Y, domain=sp.QQ)
        for b in range(d):
            if j[a][b] and not ux[b].is_zero:
                rhs += _trunc(compose(j[a][b], u, low) * ux[b], low)
        require((uy[a] - rhs).is_zero,
                f"transport equation fails in component {a}")


def contact_order(phi, u, cap):
    """Lowest degree of phi . u, or cap + 1 when it vanishes through cap."""
    tr = compose(phi, u, cap)
    degrees = [sum(m) for m, c in tr.terms() if c != 0]
    return min(degrees) if degrees else cap + 1


def check_witness(report, phi, j, n, k_max):
    """A type report's witness disk, field jet and bound."""
    disk = report["witness_disk"]
    require(disk is not None, "report has no witness disk")
    cap = disk["cap"]
    u = [to_poly(c, [DISK_X, DISK_Y]) for c in disk_components(disk)]
    require(len(u) == 2 * n, "witness disk has the wrong number of components")
    require(any(c.coeff_monomial(DISK_X) != 0 for c in u),
            "witness disk is not regular at 0")
    check_transport(u, j, cap)
    lb = report["lower_bound"]
    require(2 <= lb <= k_max, f"lower bound {lb} outside [2, {k_max}]")
    contact = contact_order(phi, u, cap)
    require(contact >= min(lb, cap + 1),
            f"witness contact {contact} below the bound {lb}")
    if report["obstruction"] is not None and not report["cap_reached"]:
        require(contact == lb, f"obstructed witness has contact {contact}, "
                f"expected exactly {lb}")
    fj = report["witness_field_jet"]
    require(fj is not None and fj["order"] == lb - 2,
            "field jet missing or of the wrong order")
    for key, vec in fj["entries"].items():
        p, q = (int(s) for s in key.split(","))
        want = tuple(_disk_coeff(c, p + 1, q) * factorial(p + 1)
                     * factorial(q) for c in u)
        require(rationals(vec) == want,
                f"field jet entry ({p},{q}) differs from the disk derivative")
    return contact


def bloom_graham(phi, n):
    """Lowest degree of a mixed monomial z1^a conj(z1)^b (a, b >= 1) of P,
    for phi = 2*x2 + P(z1, conj z1); None when P is harmonic."""
    require(n == 2, "Bloom-Graham check is for n = 2")
    p = dict(phi)
    require(p.pop((0, 0, 1, 0), None) == 2, "phi is not 2*x2 + P")
    require(all(e[2] == e[3] == 0 for e in p), "P depends on z2")
    x1, y1 = coordinates(1)
    z, w = sp.symbols("z w")
    expr = to_poly({e[:2]: c for e, c in p.items()}, [x1, y1]).as_expr()
    expr = sp.expand(expr.subs({x1: (z + w) / 2, y1: (z - w) / (2 * sp.I)},
                               simultaneous=True))
    mixed = [a + b for (a, b), c in sp.Poly(expr, z, w).terms()
             if a >= 1 and b >= 1 and c != 0]
    return min(mixed) if mixed else None


def check_expected_type(problem, report, phi):
    """Bloom-Graham type for rigid surfaces, the cap for complex lines."""
    lb, k_max = report["lower_bound"], problem.k_max
    if problem.kind == "rigid":
        t = bloom_graham(phi, problem.n)
        if t is None or t >= k_max:
            require(lb == k_max and report["cap_reached"],
                    f"type {lb}: expected the cap {k_max} (Bloom-Graham {t})")
        else:
            require(lb == t and report["certified_exact"],
                    f"type {lb} (exact={report['certified_exact']}): "
                    f"Bloom-Graham gives {t}")
    elif problem.kind == "line":
        d = 2 * problem.n
        s, t = sp.symbols("s t", real=True)
        variables = coordinates(problem.n)
        point = {variables[i]: s * problem.line[0][i] + t * problem.line[1][i]
                 for i in range(d)}
        on_line = to_poly(phi, variables).as_expr().subs(point, simultaneous=True)
        require(sp.expand(on_line) == 0, "surface does not contain the line")
        require(lb == k_max and report["cap_reached"],
                f"surface through a complex line has type {lb}, expected "
                f"the cap {k_max}")


def check_validation(report, validation, contact):
    k = report["lower_bound"] - 2
    require(validation is not None, "no validation record")
    require(validation["k"] == k and validation["realized_order"] == k,
            "validation order differs from the bound")
    require(validation["contact_order"] == contact,
            f"recorded contact {validation['contact_order']} != {contact}")
    require(validation["commutation_order"] >= k + 1,
            "commutation order below k + 1")
    require(validation["levi_slots_checked"] == k * (k + 1) // 2,
            "wrong number of higher Levi slots")
    require(validation["derivative_matches"] == k + 1,
            "wrong number of derivative matches")


def check_validate(problem, result):
    n = problem.n
    phi = parse_real(problem.phi, coordinates(n))
    j = parse_structure(problem.j_rows, n)
    report = result["report"]
    contact = check_witness(report, phi, j, n, problem.k_max)
    check_validation(report, result["validation"], contact)
    check_expected_type(problem, report, phi)


def check_scan(problem, result, points):
    """Every scan report, in coordinates translated to its point."""
    n = problem.n
    variables = coordinates(n)
    phi = parse_real(problem.phi, variables)
    j = parse_structure(problem.j_rows, n)
    reports = result["reports"]
    require(len(reports) == len(points), "scan lost a point")
    for pt, rep in zip(points, reports):
        require(rationals(rep["point"]) == tuple(pt), "scan moved the point")
        local = translate(phi, pt, variables)
        check_witness(rep, local, j, n, problem.k_max)
        t = bloom_graham(local, n)
        want = problem.k_max if t is None or t >= problem.k_max else t
        require(rep["lower_bound"] == want,
                f"type {rep['lower_bound']} at {pt}, Bloom-Graham gives {t}")


def check_query(problem, command, result, points=()):
    if command == "levi":
        check_levi(problem, result)
    elif command == "validate":
        check_validate(problem, result)
    elif command == "scan":
        check_scan(problem, result, points)
    else:
        raise CheckError(f"no check for command {command!r}")
    if problem.j_rows is not None:
        check_j_squared(parse_structure(problem.j_rows, problem.n), problem.n)


# ---------------------------------------------------------------------------
# higher Levi forms


def check_higher_levi(problem, x_jet, order, values, disk, trace):
    """One higher-levi instance.

    ``values`` maps (p, q) to L^(p,q) computed with zero padding, ``disk``
    holds the components of the transported disk with the whole x-jet and
    ``trace`` the program's phi . u, both as {(p, q): Fraction} dicts.
    """
    n = problem.n
    variables = coordinates(n)
    phi = parse_real(problem.phi, variables)
    j = parse_structure(problem.j_rows, n)
    check_j_squared(j, n)
    u = [to_poly(c, [DISK_X, DISK_Y]) for c in disk]
    for m in range(1, order + 1):
        for i, c in enumerate(disk):
            require(c.get((m, 0), F(0)) * factorial(m) == x_jet[m - 1][i],
                    f"disk x-derivative {m} differs from the x-jet")
    check_transport(u, j, order)
    tr = compose(phi, u, order)
    require(to_dict(tr) == {k: v for k, v in trace.items() if v != 0},
            "phi . u differs from the recomputed trace")

    def a(p, q):
        return _disk_coeff(tr, p, q) * factorial(p) * factorial(q)

    want = {(p, s - p) for s in range(order - 1) for p in range(s + 1)}
    require(set(values) == want, "higher Levi slots missing")
    for (p, q), v in values.items():
        require(a(p + 2, q) + a(p, q + 2) == v,
                f"master identity fails at L^({p},{q})")
    require(values[(0, 0)] == levi_value(phi, j, list(x_jet[0])),
            "L^(0,0) differs from the corrected-Hessian Levi form")
