"""Acceptance gate: nine numbered end-to-end criteria, one test each.

Every assertion is an exact identity over the rationals; no floating point,
no tolerances.  Randomized batches are keyed by LEVITYPE_SEED (default 0).
Criterion 2 additionally runs a fixed-seed batch chosen so the structure
correction term is provably exercised at any ambient seed.
"""

import random
import time
from itertools import product

import pytest

from levitype import (
    ACStructure,
    Hypersurface,
    Q,
    TruncatedSeries,
    VectorField,
    classify_point,
    compose_phi_u,
    higher_levi,
    levi_form_bracket,
    levi_form_hessian,
    parse_expression,
    perturbed_structure,
    project_to_complex_tangent,
    propagate_cr_jet,
)
from levitype import engine

from conftest import (
    fresh_disk,
    make_rng,
    random_field,
    random_phi,
    random_positive_unit,
    random_structure,
    random_tangent_field,
    random_vector,
    scale_field,
)
from oracle_cr import cr_disk_oracle, jet_matches_oracle

# fixed streams whose perturbed draw has a nonzero correction term; found by
# scanning random.Random(f"fixed-correction:{k}") for k = 0, 1, ...
CORRECTION_SEEDS = (11, 14, 20, 22, 23, 29, 31, 32, 48, 52, 58, 59)

RUN_BUDGET = 60.0  # seconds per catalog search


def slots_through(total):
    """All (p, q) with p + q <= total, graded."""
    return [(p, s - p) for s in range(total + 1) for p in range(s + 1)]


@pytest.fixture(scope="module")
def catalog():
    """The four catalog searches, each timed against the run budget."""
    out = {}
    for m_exp, k_max, cap in ((1, 4, 8), (2, 6, 10), (3, 8, 12)):
        surf = Hypersurface(
            2, parse_expression(f"2*x2 + abs2(z1)^{m_exp}", 2, cap=cap))
        j = ACStructure.standard(2, cap)
        t0 = time.monotonic()
        rep = engine.type_search(surf, j, k_max)
        out[2 * m_exp] = (surf, j, rep, time.monotonic() - t0)
    surf = Hypersurface(2, parse_expression("2*x2 + Re(z1^2)", 2, cap=12))
    j = ACStructure.standard(2, 12)
    t0 = time.monotonic()
    rep = engine.type_search(surf, j, 8)
    out["harmonic"] = (surf, j, rep, time.monotonic() - t0)
    return out


def test_criterion_1_master_identity():
    """Trace coefficients of any transported disk match the higher Levi
    forms of its leading x-derivatives: a_(i+2,j) + a_(i,j+2) = L^(i,j),
    for i + j + 2 <= 6, on 100 randomized (phi, J, x-jet) instances."""
    rng = make_rng("acceptance-1")
    count = 0
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        m = random_phi(rng, n, 6)
        j = random_structure(rng, n, 6) if i % 4 < 2 \
            else ACStructure.standard(n, 6)
        jets = [random_vector(rng, 2 * n, 2) for _ in range(5)]
        u = propagate_cr_jet(jets, j, 6)
        tr = compose_phi_u(m, u)
        for p, q in slots_through(4):
            assert tr.levi_entry(p, q) == \
                higher_levi(m, j, jets[:p + q + 1], p, q), (i, p, q)
        count += 1
    assert count == 100


def test_criterion_2_levi_route_agreement():
    """Bracket and Hessian routes agree exactly on 112 tangent fields;
    the J-derivative correction term is nonzero in at least 10 of them."""
    rng = make_rng("acceptance-2")
    corrections = 0
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        m = random_phi(rng, n, 6)
        j = random_structure(rng, n, 6) if i % 4 != 3 \
            else ACStructure.standard(n, 6)
        x = random_tangent_field(rng, m, j, 5)
        br = levi_form_bracket(m, j, x)
        he = levi_form_hessian(m, j, x)
        assert br.value == he.value, i
        if he.correction_term != 0:
            corrections += 1
    for k in CORRECTION_SEEDS:
        fixed = random.Random(f"fixed-correction:{k}")
        n = fixed.choice((2, 3))
        m = random_phi(fixed, n, 6)
        j = random_structure(fixed, n, 6)
        x = random_tangent_field(fixed, m, j, 5)
        br = levi_form_bracket(m, j, x)
        he = levi_form_hessian(m, j, x)
        assert br.value == he.value, k
        assert he.correction_term != 0, k
        corrections += 1
    assert corrections >= 10


def test_criterion_3_scaling_and_covariance():
    """Gauge law L((alpha + beta J)X)(0) = (alpha(0)^2 + beta(0)^2) L(X)(0)
    and defining-function covariance L_(f phi) = f(0) L_phi, 100 instances
    with two randomized multipliers each; classification is invariant."""
    rng = make_rng("acceptance-3")
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        m = random_phi(rng, n, 6)
        j = random_structure(rng, n, 6) if i % 3 == 0 \
            else ACStructure.standard(n, 6)
        x = random_tangent_field(rng, m, j, 5)
        lx = levi_form_bracket(m, j, x).value

        alpha = random_positive_unit(rng, 2 * n, 5)
        beta = random_positive_unit(rng, 2 * n, 5) - \
            TruncatedSeries.constant(Q(rng.randint(0, 4)), 2 * n, 5)
        y = scale_field(x, alpha) + scale_field(j.apply(x), beta)
        a0, b0 = alpha.constant_term(), beta.constant_term()
        assert levi_form_bracket(m, j, y).value == (a0 * a0 + b0 * b0) * lx, i

        f = random_positive_unit(rng, 2 * n, 6)
        scaled = Hypersurface(n, m.phi * f)
        xs = project_to_complex_tangent(scaled, j, x)
        assert xs.at_zero() == x.at_zero(), i
        assert levi_form_bracket(scaled, j, xs).value == \
            f.constant_term() * lx, i
        assert classify_point(scaled, j).label == classify_point(m, j).label, i


def test_criterion_4_catalog_types(catalog):
    """Circular surfaces 2*x2 + |z1|^(2m) have type exactly 2m with a
    witness disk (certified already for m=1); the harmonic quartic runs
    to the K_max=8 cap with the explicit bent witness disk."""
    for target in (2, 4, 6):
        _, _, rep, elapsed = catalog[target]
        assert elapsed < RUN_BUDGET, target
        assert rep.lower_bound == target
        assert rep.witness_disk is not None
        if target == 2:
            assert rep.certified_exact
    _, j, rep, elapsed = catalog["harmonic"]
    assert elapsed < RUN_BUDGET
    assert rep.cap_reached and not rep.certified_exact
    assert rep.lower_bound == 8
    bent = propagate_cr_jet([(1, 0, 0, 0), (0, 0, -1, 0)], j, 7)
    assert rep.witness_disk == bent


def check_validation(rep, rec):
    """The four cross-checks behind one witness, as recorded."""
    k = rep.lower_bound - 2
    assert rec.k == k
    assert rec.contact_order >= k + 2
    assert rec.realized_order == k
    assert rec.commutation_order >= k + 1
    assert rec.levi_slots_checked == k * (k + 1) // 2
    assert rec.derivative_matches == k + 1


def test_criterion_5_cross_validation(catalog):
    """Every catalog witness and 25 randomized found witnesses pass field
    realization, commutation to order k+1, higher-Levi vanishing through
    k-1, and derivative matching, exactly."""
    for key in (2, 4, 6, "harmonic"):
        m, j, rep, _ = catalog[key]
        rec = engine.cross_validate(m, j, rep)
        check_validation(rep, rec)

    rng = make_rng("acceptance-5")
    found = 0
    tries = 0
    while found < 25:
        tries += 1
        assert tries <= 150, "witness rate collapsed"
        n = 2 if tries % 2 == 0 else 3
        m = random_phi(rng, n, 8)
        j = random_structure(rng, n, 8) if tries % 4 < 2 \
            else ACStructure.standard(n, 8)
        rep = engine.type_search(m, j, 4)
        if rep.witness_disk is None:
            continue
        rec = engine.cross_validate(m, j, rep)
        check_validation(rep, rec)
        found += 1
    assert found == 25


def test_criterion_6_commutation_equivalence():
    """The three commutation criteria (JX shifts, iterated brackets,
    derivatives of [X, JX]) agree on the maximal vanishing order for 50
    randomized fields plus constant fields, orders up to 4."""
    rng = make_rng("acceptance-6")
    seen_orders = set()
    for i in range(50):
        n = rng.choice((2, 3))
        j = random_structure(rng, n, 6) if i % 2 == 0 \
            else ACStructure.standard(n, 6)
        if i % 10 == 9:
            x = VectorField.constant(n, random_vector(rng, 2 * n, 2), 4)
        else:
            x = random_field(rng, n, 4)
        rep = engine.commutation_defect(x, j, 4)
        assert rep.agreement, i
        orders = set(rep.criterion_orders.values())
        assert len(orders) == 1, i
        order = orders.pop()
        assert 1 <= order <= 4 and rep.max_vanishing_order == order, i
        seen_orders.add(order)
    assert {1, 4} <= seen_orders


def test_criterion_7_semicontinuity_scan():
    """Type drops from 4 at the origin to 2 at nearby points of
    2*x2 + |z1|^4: an explicit upper-semicontinuity witness."""
    m = Hypersurface(2, parse_expression("2*x2 + abs2(z1)^2", 2, cap=10))
    j = ACStructure.standard(2, 10)
    ts = (Q(0), Q(1, 4), Q(-1, 4), Q(1, 2), Q(-1, 2), Q(1), Q(-1))
    points = [(t, Q(0), -t ** 4 / 2, Q(0)) for t in ts]
    reports = engine.scan_type(m, j, points, 6)
    for t, rep in zip(ts, reports):
        assert rep.certified_exact, t
        assert rep.lower_bound == (4 if t == 0 else 2), t


def test_criterion_8_nonintegrable_transport():
    """Ten perturbed structures (A = I + nilpotent linear, J^2 = -I checked
    through the cap as a series identity): the transported disk matches the
    undetermined-coefficients oracle through order 5, the master identity
    holds through the trace cap, and both Levi routes agree."""
    rng = make_rng("acceptance-8")
    for i in range(10):
        n = 2 if i % 2 == 0 else 3
        j = perturbed_structure(n, 6, rng.randrange(1_000_000))
        d = 2 * n
        for r, c in product(range(d), repeat=2):
            acc = TruncatedSeries.zero(d, j.cap)
            for t in range(d):
                acc = acc + j.entries[r][t] * j.entries[t][c]
            want = Q(-1) if r == c else Q(0)
            assert acc == TruncatedSeries.constant(want, d, j.cap), (i, r, c)

        jets = [random_vector(rng, d, 2) for _ in range(5)]
        u = propagate_cr_jet(jets, j, 5)
        ok, info = jet_matches_oracle(u, cr_disk_oracle(jets, j, 5), 5)
        assert ok, info

        m = random_phi(rng, n, 6)
        tr = compose_phi_u(m, u)
        for p, q in slots_through(3):
            assert tr.levi_entry(p, q) == \
                higher_levi(m, j, jets[:p + q + 1], p, q), (i, p, q)

        x = random_tangent_field(rng, m, j, 5)
        assert levi_form_bracket(m, j, x).value == \
            levi_form_hessian(m, j, x).value, i


def test_criterion_9_padding_independence():
    """higher_levi depends only on the first p+q+1 x-derivatives: traces of
    disks extended by two different (p+q+2)-th derivatives agree with it,
    on 50 randomized instances.  Each padded disk is a transport of its own,
    so it shares no state with the one that higher_levi holds for J."""
    rng = make_rng("acceptance-9")
    for i in range(50):
        n = rng.choice((2, 3))
        m = random_phi(rng, n, 6)
        j = random_structure(rng, n, 6) if i % 2 == 0 \
            else ACStructure.standard(n, 6)
        p, q = rng.choice(slots_through(3))
        jets = [random_vector(rng, 2 * n, 2) for _ in range(p + q + 1)]
        base = higher_levi(m, j, jets, p, q)
        for _ in range(2):
            padded = jets + [random_vector(rng, 2 * n, 2)]
            u = fresh_disk(j, padded, p + q + 2)
            assert compose_phi_u(m, u).levi_entry(p, q) == base, (i, p, q)
