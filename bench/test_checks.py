"""The benchmark's checkers accept real outputs and reject corrupted ones.

Run from the root of a source checkout:

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from levitype import Q, cli  # noqa: E402
from levitype import (ACStructure, Hypersurface, compose_phi_u,  # noqa: E402
                      higher_levi, parse_expression, propagate_cr_jet)


def run(problem, command, points=()):
    jspec = "standard" if problem.j_rows is None else (
        "matrix", [list(r) for r in problem.j_rows])
    origin = tuple(Q(0) for _ in range(2 * problem.n))
    pts = tuple(tuple(Q(c) for c in p) for p in points)
    spec = cli.ProblemSpec(problem.n, problem.phi, jspec,
                           pts[0] if pts else origin, problem.cap,
                           problem.k_max, "exact_staged", command, pts)
    return cli.run_command(spec)["result"]


QUARTIC = workloads.Problem("quartic", 2, "2*x2 + abs2(z1)^2", 10, 6,
                            kind="rigid")
QUADRIC = workloads.Problem("quadric", 3, "2*x3 + abs2(z1) - abs2(z2)", 8, 4,
                            kind="line", line=((1, 0, 1, 0, 0, 0),
                                               (0, 1, 0, 1, 0, 0)))


@pytest.fixture(scope="module")
def nonstandard():
    wl = workloads.nonstandard_workload(7)
    problem = wl.problems[0]
    return problem, run(problem, "levi"), run(problem, "validate")


@pytest.fixture(scope="module")
def quartic_validate():
    return run(QUARTIC, "validate")


def _bump_disk(result, component, old, new):
    bad = copy.deepcopy(result)
    comps = bad["report"]["witness_disk"]["components"]
    expr = comps[component]["expression"]
    assert old in expr
    comps[component]["expression"] = expr.replace(old, new, 1)
    return bad


# -- witness disks


def test_validate_accepts_real_output(quartic_validate):
    checks.check_validate(QUARTIC, quartic_validate)


def test_witness_coefficient_changed_is_rejected(quartic_validate):
    # u = (x1, y1, 0, 0): a y-term in the first component breaks transport
    bad = _bump_disk(quartic_validate, 0, "x1", "x1 + 1/2*y1^2")
    with pytest.raises(CheckError, match="transport"):
        checks.check_validate(QUARTIC, bad)


def test_witness_losing_contact_is_rejected(quartic_validate):
    # a normal component x1^2 - y1^2 (holomorphic, so transport holds)
    # drops the contact with phi to 2
    bad = _bump_disk(quartic_validate, 2, "0", "x1^2 - y1^2")
    bad = _bump_disk(bad, 3, "0", "2*x1*y1")
    with pytest.raises(CheckError, match="contact"):
        checks.check_validate(QUARTIC, bad)


def test_wrong_type_is_rejected(quartic_validate):
    bad = copy.deepcopy(quartic_validate)
    bad["report"]["lower_bound"] = 3
    bad["report"]["witness_field_jet"]["order"] = 1
    bad["report"]["witness_field_jet"]["entries"] = {
        k: v for k, v in bad["report"]["witness_field_jet"]["entries"].items()
        if sum(map(int, k.split(","))) <= 1}
    with pytest.raises(CheckError):
        checks.check_validate(QUARTIC, bad)


def test_cap_expected_on_a_complex_line():
    result = run(QUADRIC, "validate")
    checks.check_validate(QUADRIC, result)
    bad = copy.deepcopy(result)
    bad["report"]["cap_reached"] = False
    with pytest.raises(CheckError, match="complex line"):
        checks.check_validate(QUADRIC, bad)


def test_field_jet_entry_changed_is_rejected(quartic_validate):
    bad = copy.deepcopy(quartic_validate)
    entries = bad["report"]["witness_field_jet"]["entries"]
    entries["0,0"] = ["2"] + entries["0,0"][1:]
    with pytest.raises(CheckError, match="field jet"):
        checks.check_validate(QUARTIC, bad)


def test_recorded_contact_changed_is_rejected(quartic_validate):
    bad = copy.deepcopy(quartic_validate)
    bad["validation"]["contact_order"] += 1
    with pytest.raises(CheckError, match="contact"):
        checks.check_validate(QUARTIC, bad)


def test_scan_type_changed_is_rejected():
    problem = workloads.Problem("scan", 2, "2*x2 + abs2(z1)^2", 10, 6,
                                kind="rigid")
    points = ((F(0), F(0), F(0), F(0)),
              (F(1, 2), F(0), F(-1, 32), F(0)))
    result = run(problem, "scan", points)
    checks.check_scan(problem, result, points)
    bad = copy.deepcopy(result)
    bad["reports"][1]["lower_bound"] = 4
    with pytest.raises(CheckError):
        checks.check_scan(problem, bad, points)


# -- structures, Levi form, inertia


def test_j_squared_rejects_a_changed_entry(nonstandard):
    problem, _, _ = nonstandard
    j = checks.parse_structure(problem.j_rows, problem.n)
    checks.check_j_squared(j, problem.n)
    j[2][0] = dict(j[2][0])
    j[2][0][(1, 0, 0, 0)] = j[2][0].get((1, 0, 0, 0), F(0)) + 1
    with pytest.raises(CheckError, match="J\\*J"):
        checks.check_j_squared(j, problem.n)


def test_levi_accepts_real_output(nonstandard):
    problem, levi, validate = nonstandard
    checks.check_levi(problem, levi)
    checks.check_validate(problem, validate)


def test_levi_entry_changed_is_rejected(nonstandard):
    problem, levi, _ = nonstandard
    bad = copy.deepcopy(levi)
    bad["polar_matrix"][0][0][0] = str(F(bad["polar_matrix"][0][0][0]) + 1)
    with pytest.raises(CheckError, match="polar"):
        checks.check_levi(problem, bad)


def test_off_diagonal_entry_changed_is_rejected():
    result = run(QUADRIC, "levi")
    checks.check_levi(QUADRIC, result)
    bad = copy.deepcopy(result)
    bad["polar_matrix"][0][1][1] = str(F(bad["polar_matrix"][0][1][1]) + 1)
    with pytest.raises(CheckError, match="polar"):
        checks.check_levi(QUADRIC, bad)


def test_signature_and_label_changed_are_rejected():
    result = run(QUADRIC, "levi")
    bad = copy.deepcopy(result)
    bad["signature"] = {"positive": 2, "negative": 0, "zero": 0}
    with pytest.raises(CheckError, match="signature"):
        checks.check_levi(QUADRIC, bad)
    bad = copy.deepcopy(result)
    bad["classification"] = "strictly_pseudoconvex"
    with pytest.raises(CheckError, match="classification"):
        checks.check_levi(QUADRIC, bad)


def test_inertia_counts():
    assert checks.inertia([[F(2), F(0)], [F(0), F(-3)]]) == (1, 1, 0)
    assert checks.inertia([[F(1), F(1)], [F(1), F(1)]]) == (1, 0, 1)


def test_bloom_graham():
    variables = checks.coordinates(2)
    phi = checks.parse_real("2*x2 + Re(z1^3) + 2*Im(z1^2*conj(z1)^3)",
                            variables)
    assert checks.bloom_graham(phi, 2) == 5
    phi = checks.parse_real("2*x2 + Re(z1^3) - 3*Im(conj(z1)^2)", variables)
    assert checks.bloom_graham(phi, 2) is None


# -- higher Levi forms


@pytest.fixture(scope="module")
def instance():
    wl = workloads.higher_levi_workload(7)
    inst = wl.instances[0]
    problem = wl.problems[inst.problem]
    m = Hypersurface(problem.n, parse_expression(problem.phi, problem.n,
                                                 cap=problem.cap))
    j = ACStructure(problem.n, [[parse_expression(e, problem.n,
                                                  cap=problem.cap)
                                 for e in row] for row in problem.j_rows])
    values = {(p, s - p): higher_levi(m, j, inst.x_jet[:s + 1], p, s - p)
              for s in range(inst.order - 1) for p in range(s + 1)}
    u = propagate_cr_jet(inst.x_jet, j, order=inst.order)
    disk = [dict(c.terms()) for c in u.components]
    trace = dict(compose_phi_u(m, u).series.terms())
    return problem, inst, values, disk, trace


def test_higher_levi_accepts_real_output(instance):
    problem, inst, values, disk, trace = instance
    checks.check_higher_levi(problem, inst.x_jet, inst.order, values, disk,
                             trace)


def test_higher_levi_value_changed_is_rejected(instance):
    problem, inst, values, disk, trace = instance
    bad = dict(values)
    bad[(1, 1)] += 1
    with pytest.raises(CheckError, match="master identity"):
        checks.check_higher_levi(problem, inst.x_jet, inst.order, bad, disk,
                                 trace)


def test_higher_levi_disk_changed_is_rejected(instance):
    problem, inst, values, disk, trace = instance
    bad = [dict(c) for c in disk]
    bad[0][(1, 2)] = bad[0].get((1, 2), F(0)) + 1
    with pytest.raises(CheckError, match="transport"):
        checks.check_higher_levi(problem, inst.x_jet, inst.order, values,
                                 bad, trace)


def test_higher_levi_trace_changed_is_rejected(instance):
    problem, inst, values, disk, trace = instance
    bad = dict(trace)
    bad[(2, 2)] = bad.get((2, 2), F(0)) + 1
    with pytest.raises(CheckError, match="trace"):
        checks.check_higher_levi(problem, inst.x_jet, inst.order, values,
                                 disk, bad)
