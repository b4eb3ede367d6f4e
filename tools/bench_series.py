#!/usr/bin/env python3
"""Time the series kernel (``levitype.jets``), transport, the Levi matrix,
the commutation check, the staged search and the parser.

Usage (from the root of a source checkout):

    python3 tools/bench_series.py --label packed
    python3 tools/bench_series.py --label baseline --src ../other/src
    python3 tools/bench_series.py --label change_ab --ab ../parent/src

Times ``*``, ``compose``, ``partial``, ``inverse`` and ``truncate`` of
``TruncatedSeries`` at (num_vars, cap) in {2, 4, 6, 8} x {6, 8, 10, 12}, and
``transport``: ``propagate_cr_jet`` of cap x-axis derivatives to order cap
under ``perturbed_structure(num_vars // 2, cap, SEED)``, and
``compose_phi_u``: the trace phi . u of a surface 2 x_last + (COMPOSE_TERMS
terms of degree 2..5) along that transported disk, and
``hermitian_levi_matrix`` of a surface 2 x_last + (LEVI_TERMS terms of
degree 2..3) under J_std (``levi_std``) and under that structure
(``levi_perturbed``), for n = num_vars // 2 >= 2, and ``levi_trace``:
every L^(p, s - p), s = 0..cap-2, on the disk of the first s + 1 of the
``transport`` row's x-derivatives, under its structure, on the
``compose_phi_u`` row's surface, and ``higher_levi``: the same values as
one ``higher_levi`` call per (p, q), p + q = s <= cap - 2, as a library
user asks them, and ``higher_levi_fresh``: one ``higher_levi`` call per
(p, q) as well, but looping p-major, s descending, over the reversed
prefixes ``derivs[s::-1]``, so that no call's jet starts with the jet of
the call before and none reuses a transport state (but the first call of
a pass timed right after another asks the jet of that pass's last call),
and ``commutation``:
``commutation_defect`` of the ``type_search`` witness field of
2 x_n + Re(z1^2) under J_std, to the order ``cross_validate`` asks, for
n >= 2, and ``type_search_std``: ``type_search`` of that surface under J_std
with k_max = cap - 2, which reaches the cap, and ``type_search_perturbed``:
that of 2 x_n + |z1|^6 under the ``transport`` row's structure, which stops
early at n = 2 from cap 10 and at n = 3 from cap 8, and ``parse_phi``:
``parse_expression`` at the cap of the ``compose_phi_u`` row's phi, rendered
by ``series_to_expression``, and ``build_structure``: every entry of the
``transport`` row's structure rendered, parsed and built into an
``ACStructure``, its J*J = -I check included, and ``mat_vec``: the
``transport`` row's structure times a vector of num_vars series of
VECTOR_TERMS terms, and ``covariant_derivative``: D_X Y of two fields of
such components, and ``solve_affine``: the level systems and tangential
coordinate systems of a staged search at n = num_vars // 2 >= 2 (see
``affine_systems``), and ``held_disk``: at n >= 2, under J_std and then the
``transport`` row's structure, every L^(p, s - p) on each prefix of an
x-jet of cap derivatives, on a surface drawn as the ``compose_phi_u``
row's, and then ``propagate_cr_jet`` of the whole jet to order cap, which
may start from the state those calls left, and, outside the grid, ``levi_std`` at n in LARGE_LEVI_N
(cap LARGE_LEVI_CAP), on a surface drawn as the grid's, and
``witness_realize``: ``realize_field_from_disk`` of the ``type_search``
witness disk of WITNESS_PHI (n = 3, J_std, k_max in WITNESS_K, cap
k_max + 4), whose field grows dense with k_max, and ``witness_validate``:
``type_search`` and ``cross_validate`` of that surface, as ``validate``
runs them, and ``perturbed_validate``: the same of 2 x_n + Re(z1^2) + ... +
Re(z_{n-1}^2) under ``perturbed_structure(n, k_max + 4, 1)``, n in
PERTURBED_N, k_max = PERTURBED_K, as ``validate --J-perturb 1`` runs them;
its search stops at bound 4 after two levels of d = 2n - 2 columns, and,
after every other row, ``witness_realize`` alone at k_max in REALIZE_K,
where a ``witness_validate`` call would take seconds, and then
``field_jet``: ``field_jet`` of that witness field at each k_max of
``witness_realize``, under J_std, and last ``parse_z``:
``parse_expression`` at cap PARSE_Z_CAP of a phi shaped like the
``standard`` workload's, 2 x_n plus Re, Im and abs2 of z-monomials up to
degree 8, at each n of PARSE_Z.  It writes ``BENCH_<label>.json`` (into
``--out``, default the checkout root).  The inputs are fixed by a seeded
generator, so two kernels see the same operands; each row carries a digest
of the result (of every component, for a disk, of every entry, for
``build_structure``, of every value, for ``levi_trace``, the
``higher_levi`` rows and ``field_jet``, of every value and every disk
term, for ``held_disk``, of every solution's
consistency and values, for ``solve_affine``, of the orders of criteria
2-4, for
``commutation``, of the witness disk's components and the bound, its flags
and its obstruction, for ``type_search``, of the field's components, for
``witness_realize``, of the report's disk, field, triangle, point, bound,
flags and obstruction and of the ``ValidationRecord``, for
``witness_validate``), and rows with equal digests
computed the same result.  ``--src`` imports levitype from another source
tree, which times an earlier kernel with this script; the git sha recorded
is that of the tree imported.

``--ab <other src>`` compares two trees in one process instead, since row
times from two processes drift apart on rows whose code did not change.
It imports the ``--src`` tree and the other one under two package names
(levitype imports itself only relatively), builds each row's operands on
both from the same seed, and exits 1, naming the row, if their digests
differ.  Otherwise it times the row in AB_ROUNDS rounds, each the min of
REPEATS calibrated loops (below) per tree, the two trees' loops taken in
alternation, and records the ratio src/other of each round: its median
and its spread (the least and the greatest ratio), next to each tree's
median time.  An A/B of a tree against itself
(``BENCH_self_ab.json``: x86_64, 2 cores, Python 3.11.7, the ``fractions``
backend) read every row's median ratio within 0.84-1.19, 291 of the 315
rows within 0.95-1.05 and 309 within 0.90-1.10.  A row outside that band
has moved or was disturbed: time it again before calling it either.

Each time is the minimum over REPEATS runs of a loop whose call count is
calibrated to last at least MIN_LOOP_S, divided by that count: seconds per
call on an otherwise idle machine.  The file records the Python version,
``levitype.rational.BACKEND``, the machine, the git sha and whether the
imported tree had uncommitted changes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRID_VARS = (2, 4, 6, 8)
GRID_CAPS = (6, 8, 10, 12)
REPEATS = 5
MIN_LOOP_S = 0.02
AB_ROUNDS = 5       # timings of each row on each tree, --ab
SEED = 1            # seeds the operands; digests compare only at one seed
TERMS = 40          # terms of each operand of *, partial and truncate
COMPOSE_TERMS = 12  # terms of the outer series of compose
DISK_TERMS = 6      # terms of each substituted 2-variable series
INVERSE_TERMS = 4   # non-constant terms of the unit series inverted
LEVI_TERMS = 8      # terms of degree 2..3 of the Levi rows' surface
VECTOR_TERMS = 6    # terms of each component of the mat_vec and
                    # covariant_derivative rows' operands
LARGE_LEVI_N = (8, 16, 32)
LARGE_LEVI_CAP = 4
WITNESS_PHI = "2*x3+Re(z1^2)+Re(z2^3)+abs2(z1*z2)"  # type reaches the cap
WITNESS_K = (12, 16)
REALIZE_K = (20,)   # witness_realize rows only
PERTURBED_N = (6, 8, 10)
PERTURBED_K = 8
PARSE_Z = {         # n -> the parse_z row's phi
    2: "2*x2 - 3*Re(conj(z1)^2) + 1/2*Im(z1^3*conj(z1)) + 2*abs2(z1)^2"
       " - 2/3*Re(z1^5*conj(z1)^3) + Im(z1^2*conj(z1)^5) - abs2(z1)^4",
    3: "2*x3 + abs2(z1) - abs2(z2) + Re(z1^2*conj(z2))"
       " - 1/3*Im(z1^3*z2^2*conj(z1)) + 2*abs2(z1*z2)^2"
       " + 3/2*Re(z2^4*conj(z1)^4)",
}
PARSE_Z_CAP = 10


def git(src: Path, *args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), *args],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def random_terms(rng, num_vars, lo, hi, count, q):
    """Up to count distinct monomials of degree lo..hi, small rationals."""
    terms = {}
    for _ in range(20 * count):
        if len(terms) == count:
            break
        e = [0] * num_vars
        for _ in range(rng.randint(lo, hi)):
            e[rng.randrange(num_vars)] += 1
        terms[tuple(e)] = q(rng.choice((-3, -2, -1, 1, 2, 3)),
                            rng.choice((1, 1, 2, 3, 4)))
    return terms


def operands(lev, num_vars, cap, seed):
    """Each timed operation by name: (the call, the series it reads)."""
    rng = random.Random(f"{seed}:{num_vars}:{cap}")
    q, series = lev.Q, lev.TruncatedSeries
    a = series(num_vars, cap, random_terms(rng, num_vars, 0, cap, TERMS, q))
    b = series(num_vars, cap, random_terms(rng, num_vars, 0, cap, TERMS, q))
    outer = series(num_vars, cap, random_terms(
        rng, num_vars, 1, min(cap, 5), COMPOSE_TERMS, q))
    disk = [series(2, cap, random_terms(rng, 2, 1, cap, DISK_TERMS, q))
            for _ in range(num_vars)]
    unit_terms = random_terms(rng, num_vars, 2, 4, INVERSE_TERMS, q)
    unit_terms[(0,) * num_vars] = q(1)
    unit = series(num_vars, cap, unit_terms)
    j = lev.perturbed_structure(num_vars // 2, cap, seed)
    derivs = [[q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3, 4)))
               for _ in range(num_vars)] for _ in range(cap)]
    j_plus = tuple(e for row in j.entries for e in row if e.total_degree())
    # drawn after every operand above, so their digests do not move
    phi_terms = random_terms(rng, num_vars, 2, min(cap, 5), COMPOSE_TERMS, q)
    phi_terms[(0,) * (num_vars - 1) + (1,)] = q(2)
    surface = lev.Hypersurface(num_vars // 2,
                               series(num_vars, cap, phi_terms))
    u = lev.propagate_cr_jet(derivs, j, cap)
    # drawn last, so every earlier operand keeps its digest
    levi_terms = random_terms(rng, num_vars, 2, 3, LEVI_TERMS, q)
    levi_terms[(0,) * (num_vars - 1) + (1,)] = q(2)
    levi_surface = lev.Hypersurface(num_vars // 2,
                                    series(num_vars, cap, levi_terms))
    j_std = lev.ACStructure.standard(num_vars // 2, cap)
    # levi_trace and the higher_levi rows reuse operands drawn above and
    # draw none
    ops = {
        "mul": (lambda: a * b, (a, b)),
        "compose": (lambda: outer.compose(disk), (outer,)),
        "partial": (lambda: a.partial(0), (a,)),
        "inverse": (lambda: unit.inverse(), (unit,)),
        "truncate": (lambda: a.truncate(cap // 2), (a,)),
        "transport": (lambda: lev.propagate_cr_jet(derivs, j, cap).components,
                      j_plus),
        "compose_phi_u": (lambda: lev.compose_phi_u(surface, u).series,
                          (surface.phi, *u.components)),
    }
    # the parse rows render operands drawn above and draw none
    n = num_vars // 2
    phi_text = lev.series_to_expression(surface.phi)
    j_all = tuple(e for row in j.entries for e in row)
    j_texts = [[lev.series_to_expression(e) for e in row] for row in j.entries]
    ops["parse_phi"] = (lambda: lev.parse_expression(phi_text, n, cap=cap),
                        (surface.phi,))
    ops["build_structure"] = (
        lambda: tuple(e for row in lev.ACStructure(n, [
            [lev.parse_expression(t, n, cap=cap) for t in row]
            for row in j_texts]).entries for e in row),
        j_all)
    ops["levi_trace"] = (lambda: trace_values(lev, surface, j, derivs, cap),
                         (surface.phi, *j_plus))
    ops["higher_levi"] = (
        lambda: [[lev.higher_levi(surface, j, derivs[:s + 1], p, s - p)
                  for p in range(s + 1)] for s in range(cap - 1)],
        (surface.phi, *j_plus))
    ops["higher_levi_fresh"] = (
        lambda: [[lev.higher_levi(surface, j, derivs[s::-1], p, s - p)
                  for s in range(cap - 2, p - 1, -1)]
                 for p in range(cap - 1)],
        (surface.phi, *j_plus))
    if num_vars >= 4:  # n = 1 has no complex tangent directions
        ops["levi_std"] = (
            lambda: lev.hermitian_levi_matrix(levi_surface, j_std),
            (levi_surface.phi,))
        ops["levi_perturbed"] = (
            lambda: lev.hermitian_levi_matrix(levi_surface, j),
            (levi_surface.phi, *j_plus))
        # draws no operand: a fixed surface that commutes to the cap
        harmonic = lev.Hypersurface(n, lev.parse_expression(
            f"2*x{n}+Re(z1^2)", n, cap=cap))
        rep = lev.type_search(harmonic, j_std, cap - 2)
        field, order = rep.witness_field, rep.lower_bound - 1
        ops["commutation"] = (
            lambda: lev.commutation_defect(field, j_std, order),
            field.components)
        # draw no operand either
        sextic = lev.Hypersurface(n, lev.parse_expression(
            f"2*x{n}+abs2(z1)^3", n, cap=cap))
        ops["type_search_std"] = (
            lambda: lev.type_search(harmonic, j_std, cap - 2),
            (harmonic.phi,))
        ops["type_search_perturbed"] = (
            lambda: lev.type_search(sextic, j, cap - 2),
            (sextic.phi, *j_plus))
    # drawn after every operand above, so their digests do not move
    vec, x, y = ([series(num_vars, cap, random_terms(
        rng, num_vars, 0, cap, VECTOR_TERMS, q)) for _ in range(num_vars)]
        for _ in range(3))
    ops["mat_vec"] = (lambda: tuple(lev.jets.mat_vec(j.entries, vec)),
                      (*j_all, *vec))
    x, y = lev.VectorField(n, x), lev.VectorField(n, y)
    ops["covariant_derivative"] = (
        lambda: lev.covariant_derivative(x, y).components,
        (*x.components, *y.components))
    if num_vars >= 4:
        # drawn after every operand above, so their digests do not move
        systems = affine_systems(rng, q, n, cap)
        ops["solve_affine"] = (
            lambda: [solution_values(lev.linalg.solve_affine(a, b))
                     for a, b in systems],
            ())
        # drawn after every operand above, so their digests do not move
        held_terms = random_terms(rng, num_vars, 2, min(cap, 5),
                                  COMPOSE_TERMS, q)
        held_terms[(0,) * (num_vars - 1) + (1,)] = q(2)
        held_surface = lev.Hypersurface(n, series(num_vars, cap, held_terms))
        held_jet = [[q(rng.choice((-3, -2, -1, 1, 2, 3)),
                       rng.choice((1, 1, 2, 3, 4))) for _ in range(num_vars)]
                    for _ in range(cap)]
        ops["held_disk"] = (
            lambda: held_disk(lev, held_surface, (j_std, j), held_jet, cap),
            (held_surface.phi, *j_plus))
    return ops


def affine_systems(rng, q, n, cap):
    """Systems shaped as the staged search solves them, d = 2n - 2 columns.

    For each level ell = 1..cap-3, ell + 1 rows of rank 0 and of rank 2,
    each with a right-hand side inside the column span and a random one, as
    attempt_level solves; then a 2n x d matrix with four right-hand sides
    inside its column span and a random one, as coords_of solves.
    """
    d = 2 * n - 2

    def rational():
        return q(rng.choice((-3, -2, -1, 1, 2, 3)),
                 rng.choice((1, 1, 2, 3, 4)))

    def inside(mat):
        t = [rational() for _ in range(d)]
        return [sum((x * y for x, y in zip(row, t)), q(0)) for row in mat]
    systems = []
    for ell in range(1, cap - 2):
        r1, r2 = [rational() for _ in range(d)], [rational() for _ in range(d)]
        rank2 = []
        for _ in range(ell + 1):
            a, b = rational(), rational()
            rank2.append([a * x + b * y for x, y in zip(r1, r2)])
        for mat in ([[q(0)] * d for _ in range(ell + 1)], rank2):
            systems += [(mat, inside(mat)),
                        (mat, [rational() for _ in range(ell + 1)])]
    colmat = [[rational() for _ in range(d)] for _ in range(2 * n)]
    systems += [(colmat, inside(colmat)) for _ in range(4)]
    systems.append((colmat, [rational() for _ in range(2 * n)]))
    return systems


def solution_values(sol) -> list:
    """consistent, then the particular solution and each nullspace vector."""
    return [sol.consistent, *(sol.particular or ()),
            *(x for v in sol.nullspace for x in v)]


def large_levi_operands(lev, n, seed):
    """The levi_std row at n, off the grid: its own generator, so no grid
    operand moves."""
    rng = random.Random(f"{seed}:levi:{n}")
    num_vars, cap = 2 * n, LARGE_LEVI_CAP
    terms = random_terms(rng, num_vars, 2, 3, LEVI_TERMS, lev.Q)
    terms[(0,) * (num_vars - 1) + (1,)] = lev.Q(2)
    surface = lev.Hypersurface(n, lev.TruncatedSeries(num_vars, cap, terms))
    j_std = lev.ACStructure.standard(n, cap)
    return {"levi_std": (lambda: lev.hermitian_levi_matrix(surface, j_std),
                         (surface.phi,))}


def witness(lev, k_max):
    """The surface of WITNESS_PHI at n = 3, cap k_max + 4, J_std and the
    report of its search to k_max."""
    n, cap = 3, k_max + 4
    m = lev.Hypersurface(n, lev.parse_expression(WITNESS_PHI, n, cap=cap))
    j_std = lev.ACStructure.standard(n, cap)
    return m, j_std, lev.type_search(m, j_std, k_max)


def witness_operands(lev, k_max):
    """The witness rows at k_max, off the grid: fixed inputs, no draws."""
    m, j_std, rep = witness(lev, k_max)
    u, k = rep.witness_disk, rep.lower_bound - 2
    return {
        "witness_realize": (
            lambda: lev.realize_field_from_disk(m, j_std, u, k).components,
            u.components),
        "witness_validate": (
            lambda: validation_values(lev, m, j_std, k_max), (m.phi,)),
    }


def field_jet_operands(lev, k_max):
    """The field_jet row at k_max: the triangle of the witness field."""
    _, j_std, rep = witness(lev, k_max)
    x, k = rep.witness_field, rep.lower_bound - 2
    return {"field_jet": (
        lambda: [list(v) for _, v in
                 sorted(lev.field_jet(x, j_std, k).entries.items())],
        x.components)}


def perturbed_operands(lev, n):
    """The perturbed_validate row at n, off the grid: fixed inputs, no
    draws."""
    cap = PERTURBED_K + 4
    text = f"2*x{n}+" + "+".join(f"Re(z{i}^2)" for i in range(1, n))
    m = lev.Hypersurface(n, lev.parse_expression(text, n, cap=cap))
    j = lev.perturbed_structure(n, cap, 1)
    return {"perturbed_validate": (
        lambda: validation_values(lev, m, j, PERTURBED_K), (m.phi,))}


def parse_z_operands(lev, n):
    """The parse_z row at n, off the grid: a fixed text, no draws."""
    text = PARSE_Z[n]
    return {"parse_z": (
        lambda: lev.parse_expression(text, n, cap=PARSE_Z_CAP), ())}


def validation_values(lev, m, j, k_max) -> list:
    """type_search and cross_validate: the terms of the report's disk and
    field, its triangle, point, bound, flags and obstruction, and the
    fields of the ValidationRecord."""
    rep = lev.type_search(m, j, k_max)
    rec = lev.cross_validate(m, j, rep)
    return [[c.as_list() for c in rep.witness_disk.components],
            [c.as_list() for c in rep.witness_field.components],
            sorted(rep.witness_field_jet.entries.items()),
            [rep.point, rep.lower_bound, rep.certified_exact,
             rep.cap_reached, rep.obstruction],
            list(vars(rec).values())]


def trace_values(lev, surface, j, derivs, cap) -> list:
    """[L^(p, s - p) for p = 0..s] for s = 0..cap-2."""
    out = []
    for s in range(cap - 1):
        values = lev.levi.levi_trace(surface, j, derivs, s)
        if hasattr(values, "levi_entry"):  # trees where it returns phi . u
            values = [values.levi_entry(p, s - p) for p in range(s + 1)]
        out.append(values)
    return out


def held_disk(lev, surface, structures, derivs, cap) -> list:
    """Under each structure, [L^(p, s - p) for p = 0..s] on derivs[:s + 1]
    for s = 0..cap-2, then the terms of each component of the disk of all
    of derivs to order cap."""
    out = []
    for j in structures:
        for s in range(cap - 1):
            out.append([lev.higher_levi(surface, j, derivs[:s + 1], p, s - p)
                        for p in range(s + 1)])
        u = lev.propagate_cr_jet(derivs, j, cap)
        out.append([c.as_list() for c in u.components])
    return out


def loop_seconds(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return time.perf_counter() - t0


def calibrated(fn) -> int:
    """Calls per loop: doubled until a loop lasts at least MIN_LOOP_S."""
    number = 1
    while loop_seconds(fn, number) < MIN_LOOP_S:
        number *= 2
    return number


def seconds_per_call(fn) -> float:
    number = calibrated(fn)
    return min(loop_seconds(fn, number) for _ in range(REPEATS)) / number


def parts(result) -> tuple:
    """The series of a result: itself, a disk's components, those of a
    type report's witness disk, or those of a Levi matrix's basis fields;
    levi_trace, higher_levi, held_disk, solve_affine and field_jet values
    and a commutation report hold none."""
    if isinstance(result, list) or hasattr(result, "criterion_orders"):
        return ()
    if isinstance(result, tuple):
        return result
    if hasattr(result, "witness_disk"):
        return result.witness_disk.components
    if hasattr(result, "basis"):
        return tuple(c for f in result.basis for c in f.components)
    return (result,)


def digest(result) -> str:
    h = hashlib.sha256()
    for s in parts(result):
        h.update(repr((s.num_vars, s.cap, s.as_list())).encode())
    # levi_trace, the higher_levi rows, held_disk, solve_affine, field_jet
    if isinstance(result, list):
        h.update(repr([[str(v) for v in row] for row in result]).encode())
    if hasattr(result, "entries"):  # a Levi matrix's polar form
        h.update(repr([[str(e) for e in row]
                       for row in result.entries]).encode())
    if hasattr(result, "criterion_orders"):  # not the defect labels
        # criteria 2-4 only, so that trees that still report word
        # symmetry as criterion 1 digest the same
        orders = [(c, o) for c, o in sorted(result.criterion_orders.items())
                  if c in (2, 3, 4)]
        h.update(repr((result.order_tested, result.max_vanishing_order,
                       orders)).encode())
    if hasattr(result, "witness_disk"):  # a type report
        h.update(repr((result.lower_bound, result.certified_exact,
                       result.cap_reached, result.obstruction)).encode())
    return h.hexdigest()[:16]


def grid(lev):
    """(num_vars, cap, operations) of every row, in the order timed."""
    return chain(((num_vars, cap, operands(lev, num_vars, cap, SEED))
                  for num_vars in GRID_VARS for cap in GRID_CAPS),
                 ((2 * n, LARGE_LEVI_CAP, large_levi_operands(lev, n, SEED))
                  for n in LARGE_LEVI_N),
                 ((6, k + 4, witness_operands(lev, k)) for k in WITNESS_K),
                 ((2 * n, PERTURBED_K + 4, perturbed_operands(lev, n))
                  for n in PERTURBED_N),
                 ((6, k + 4, {"witness_realize": witness_operands(
                     lev, k)["witness_realize"]}) for k in REALIZE_K),
                 ((6, k + 4, field_jet_operands(lev, k))
                  for k in (*WITNESS_K, *REALIZE_K)),
                 ((2 * n, PARSE_Z_CAP, parse_z_operands(lev, n))
                  for n in PARSE_Z))


def load_tree(src: Path, name: str):
    """levitype of the source tree src, imported as the package name."""
    init = src / "levitype" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def ab_rows(lev, other, other_src) -> list | None:
    """The --ab rows of lev against other, or None if a digest differs."""
    rows = []
    for (num_vars, cap, ops), (_, _, other_ops) in zip(grid(lev),
                                                       grid(other)):
        for op, (fn, _) in ops.items():
            fns = fn, other_ops[op][0]
            here, there = (digest(f()) for f in fns)
            if here != there:
                print(f"{op} vars={num_vars} cap={cap}: digest {here}, "
                      f"{there} under {other_src}", file=sys.stderr)
                return None
            # loop by loop, so that both trees share every phase of the
            # machine's drift
            numbers = [calibrated(f) for f in fns]
            times = [[], []]
            for r in range(AB_ROUNDS):
                best = [float("inf")] * 2
                for i in range(REPEATS):
                    for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                        best[side] = min(best[side], loop_seconds(
                            fns[side], numbers[side]))
                for side in (0, 1):
                    times[side].append(best[side] / numbers[side])
            ratios = sorted(a / b for a, b in zip(*times))
            rows.append({
                "op": op, "num_vars": num_vars, "cap": cap, "digest": here,
                "seconds": statistics.median(times[0]),
                "seconds_other": statistics.median(times[1]),
                "ratio": statistics.median(ratios),
                "ratio_spread": [ratios[0], ratios[-1]],
            })
            print(f"{op:14s} vars={num_vars} cap={cap:2d} "
                  f"{rows[-1]['ratio']:7.3f}", file=sys.stderr)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree to import levitype from")
    ap.add_argument("--ab", type=Path, metavar="OTHER_SRC",
                    help="time --src against this source tree in one process")
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.ab is not None:
        lev = load_tree(args.src.resolve(), "levitype_src")
        other = load_tree(args.ab.resolve(), "levitype_other")
        rows = ab_rows(lev, other, args.ab)
        if rows is None:
            return 1
        ratios = [row["ratio"] for row in rows]
        timer = (f"median over {AB_ROUNDS} rounds of the min of {REPEATS} "
                 f"loops of at least {MIN_LOOP_S} s, the trees' loops "
                 "alternating; ratio is src/other seconds per call")
        extra = {
            "other_git_sha": git(args.ab, "rev-parse", "HEAD") or "unknown",
            "other_dirty": bool(git(args.ab, "status", "--porcelain",
                                    "--", ".")),
            "other_backend": other.rational.BACKEND,
            "ratio_band": [min(ratios), max(ratios)],
        }
        rational = lev.rational
    else:
        sys.path.insert(0, str(args.src.resolve()))
        lev = importlib.import_module("levitype")
        rational = importlib.import_module("levitype.rational")
        rows = []
        for num_vars, cap, ops in grid(lev):
            for op, (fn, inputs) in ops.items():
                result = fn()
                rows.append({
                    "op": op, "num_vars": num_vars, "cap": cap,
                    "terms_in": [len(s.as_list()) for s in inputs],
                    "terms_out": (sum(map(len, result))
                                  if isinstance(result, list) else
                                  sum(len(s.as_list())
                                      for s in parts(result))),
                    "digest": digest(result),
                    "seconds": seconds_per_call(fn),
                })
                print(f"{op:14s} vars={num_vars} cap={cap:2d} "
                      f"{rows[-1]['seconds'] * 1e6:12.1f} us",
                      file=sys.stderr)
        timer = f"min of {REPEATS} loops of at least {MIN_LOOP_S} s; " \
                "seconds per call"
        extra = {}
    doc = {
        "label": args.label,
        "git_sha": git(args.src, "rev-parse", "HEAD") or "unknown",
        # uncommitted changes under the imported source tree
        "dirty": bool(git(args.src, "status", "--porcelain", "--", ".")),
        "python": platform.python_version(),
        "backend": rational.BACKEND,
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "timer": timer,
        "seed": SEED,
        **extra,
        "rows": rows,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
