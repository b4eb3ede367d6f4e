"""Engine-level behavior: realizability, commutation, staged search, scans."""

import math
from dataclasses import replace
from itertools import combinations, product

import pytest

import levitype.disks as disks
import levitype.engine as engine
import levitype.geometry as geometry
import levitype.levi as levi
from levitype import (
    ACStructure,
    CapError,
    ContactOrder,
    GeometryError,
    Hypersurface,
    Q,
    TheoremViolation,
    TruncatedSeries,
    TypeReport,
    VectorField,
    commutation_defect,
    contact_order,
    covariant_derivative,
    cross_validate,
    disk_from_commuting_field,
    field_jet,
    higher_levi,
    is_complex_tangent,
    lie_bracket,
    parse_expression,
    perturbed_structure,
    propagate_cr_jet,
    realize_field_from_disk,
    recenter,
    reparametrize_disk_jet,
    scan_type,
    type_search,
)
from levitype import classify_point
from levitype.cli import CATALOG
from levitype.disks import _Transport
from levitype.geometry import apply_jstd

from conftest import (make_rng, monomials, nonlinear_structure, random_field,
                      random_phi, random_rational, random_structure,
                      random_vector, reference_solve_affine, scale_field,
                      truncated_structure)

CAP = 10
JSTD = ACStructure.standard(2, CAP)
JSTD3 = ACStructure.standard(3, 8)
E1 = (1, 0, 0, 0)


def surface(n, cap, terms):
    nv = 2 * n
    return Hypersurface(n, TruncatedSeries(nv, cap, {k: Q(v) for k, v in terms.items()}))


SPHERE = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
FLAT = surface(2, CAP, {(0, 0, 1, 0): 2})
QUARTIC = surface(2, CAP, {(0, 0, 1, 0): 2, (4, 0, 0, 0): 1, (2, 2, 0, 0): 2,
                           (0, 4, 0, 0): 1})
SEXTIC = surface(2, CAP, {(0, 0, 1, 0): 2, (6, 0, 0, 0): 1, (4, 2, 0, 0): 3,
                          (2, 4, 0, 0): 3, (0, 6, 0, 0): 1})
HARMONIC = surface(2, CAP, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1, (0, 2, 0, 0): -1})
INDEF3 = surface(3, 8, {(0, 0, 0, 0, 1, 0): 2, (2, 0, 0, 0, 0, 0): 1,
                        (0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): -1,
                        (0, 0, 0, 2, 0, 0): -1})


def sphere_tangent():
    zero = TruncatedSeries.zero(4, CAP)
    one = TruncatedSeries.constant(Q(1), 4, CAP)
    mx1 = TruncatedSeries(4, CAP, {(1, 0, 0, 0): Q(-1)})
    y1 = TruncatedSeries(4, CAP, {(0, 1, 0, 0): Q(1)})
    return VectorField(2, [one, zero, mx1, y1])


def harmonic_tangent(cap=CAP):
    """X = d/dx1 - x1 d/dx2 - y1 d/dy2: commutes with JX identically."""
    zero = TruncatedSeries.zero(4, cap)
    one = TruncatedSeries.constant(Q(1), 4, cap)
    mx1 = TruncatedSeries(4, cap, {(1, 0, 0, 0): Q(-1)})
    my1 = TruncatedSeries(4, cap, {(0, 1, 0, 0): Q(-1)})
    return VectorField(2, [one, zero, mx1, my1])


def constant_field(n, vec, cap=CAP):
    return VectorField.constant(n, [Q(v) for v in vec], cap)


def bent_disk(cap):
    return propagate_cr_jet([E1, (0, 0, -1, 0)], ACStructure.standard(2, cap),
                            cap)


def lyndon_words(length):
    """Words on {0, 1} of the given length strictly below each rotation, in
    lexicographic order, by Duval's (Fredricksen-Kessler-Maiorana) algorithm.
    """
    out, w = [], [-1]
    while w:
        w[-1] += 1
        if len(w) == length:
            out.append(tuple(w))
        period = len(w)
        while len(w) < length:
            w.append(w[len(w) - period])
        while w and w[-1] == 1:
            w.pop()
    return out


def enumerated_orders(x, j, k):
    """Orders of word symmetry and of criterion 4 over all 2^m words of each
    length m, and of criterion 3 over the Lyndon brackets of each length.

    The reference for commutation_defect, which reads only sorted words and
    sorted right-normed brackets; it has no word-symmetry criterion, whose
    all-words order must equal criterion 4's.  Words nest right to left, as
    there; letter 2 is [X, JX].  The Lyndon brackets span every bracket of
    their length (Chen-Fox-Lyndon; Reutenauer, Free Lie Algebras, ch. 5);
    each is [[u], [v]] with v the longest proper Lyndon suffix.
    """
    base = (x.truncate(k - 1), j.apply(x).truncate(k - 1))
    fields = base + (lie_bracket(*base),) if k >= 2 else base
    memo = {}

    def word(bits):
        if len(bits) == 1:
            return fields[bits[0]]
        if bits not in memo:
            inner = word(bits[1:])
            memo[bits] = covariant_derivative(
                fields[bits[0]].truncate(inner.cap), inner)
        return memo[bits]

    def all_words(m):
        return [tuple((num >> t) & 1 for t in range(m))
                for num in range(1 << m)]

    def symmetry():
        for m in range(2, k + 1):
            groups = {}
            for bits in all_words(m):
                groups.setdefault(sum(bits), set()).add(word(bits).at_zero())
            if any(len(values) > 1 for values in groups.values()):
                return m - 1
        return k

    def crit3():
        brackets = {(0,): base[0], (1,): base[1]}
        for length in range(2, k + 1):
            failed = False
            for w in lyndon_words(length):
                v = next(w[i:] for i in range(1, length) if w[i:] in brackets)
                u = w[:length - len(v)]
                c = min(brackets[u].cap, brackets[v].cap)
                brackets[w] = lie_bracket(brackets[u].truncate(c),
                                          brackets[v].truncate(c))
                failed = failed or any(brackets[w].at_zero())
            if failed:
                return length - 1
        return k

    def crit4():
        for mlen in range(k - 1):
            if any(any(word(bits + (2,)).at_zero())
                   for bits in all_words(mlen)):
                return mlen + 1
        return k

    return symmetry(), crit3(), crit4()


def chained_field_jet(x, j, k):
    """field_jet as sequential D_X chains, each extended by D_JX."""
    xdir = x.truncate(k)
    jx = j.apply(x).truncate(k)
    entries = {}
    chain = x.truncate(k)
    for p in range(k + 1):
        if p > 0:
            chain = covariant_derivative(xdir.truncate(chain.cap), chain)
        entries[(p, 0)] = chain.at_zero()
        w = chain
        for q in range(1, k - p + 1):
            w = covariant_derivative(jx.truncate(w.cap), w)
            entries[(p, q)] = w.at_zero()
    return entries


def staged_field(rng, n, cap):
    """A coordinate field plus random terms times x_i^a y_i^b in its pair.

    Its first failing length varies with a + b, also under a perturbed J.
    """
    v = rng.randrange(2 * n)
    a = rng.randrange(cap)
    b = rng.randrange(cap - a)
    exps = [0] * (2 * n)
    exps[v - v % 2], exps[v - v % 2 + 1] = a, b
    mono = TruncatedSeries(2 * n, cap, {tuple(exps): Q(1)})
    vec = [1 if i == v else 0 for i in range(2 * n)]
    return constant_field(n, vec, cap) + scale_field(
        random_field(rng, n, cap, degree=1), mono)


def structures_under_test(n, cap):
    return [ACStructure.standard(n, cap)] + [
        perturbed_structure(n, cap, seed) for seed in (1, 2, 3)]


def check_report_invariants(rep):
    if rep.certified_exact:
        assert rep.obstruction is not None
    if rep.cap_reached:
        assert not rep.certified_exact


def one_word_table(monkeypatch):
    """Make field_jet raise and count the word tables built, in both modules
    that build them."""
    tables = []

    def no_field_jet(*args):
        raise AssertionError("field jet built apart from the word table")
    monkeypatch.setattr(geometry, "field_jet", no_field_jet)
    for module in (engine, geometry):
        def counting(fields, _build=getattr(module, "word_table")):
            tables.append(len(fields))
            return _build(fields)
        monkeypatch.setattr(module, "word_table", counting)
    return tables


class TestDualPairForms:
    def test_forms_are_dual_to_v_and_its_rotation(self):
        # leading complex coordinates zero, and pairs with a = 0 or b = 0
        rng = make_rng("engine-dual-pair-forms")
        cases = [(0, 0, 0, 3), (0, 0, Q(-2, 3), 0), (0, 5, 1, 1), (1, 0, 0, 0)]
        for n in (2, 3, 4):
            for lead in range(n):
                v = [0] * (2 * lead) + list(random_vector(rng, 2 * (n - lead)))
                v[2 * lead + rng.randrange(2)] = rng.choice((1, Q(-3, 2)))
                cases.append(tuple(v))
        for v in cases:
            v = tuple(Q(c) for c in v)
            (i1, i2), forms = engine._dual_pair_forms(v)
            c = next(c for c in range(len(v) // 2) if v[2 * c] or v[2 * c + 1])
            assert (i1, i2) == (2 * c, 2 * c + 1)
            jv = apply_jstd(v)
            for (a, b), want in zip(forms, ((1, 0), (0, 1))):
                assert (a * v[i1] + b * v[i2], a * jv[i1] + b * jv[i2]) == want


class TestRealizeFieldFromDisk:
    def test_flat_straight_disk(self):
        u = propagate_cr_jet([E1], JSTD, 6)
        x = realize_field_from_disk(FLAT, JSTD, u, 3)
        assert x.at_zero() == (1, 0, 0, 0)
        fj = field_jet(x, JSTD, 3)
        for p in range(4):
            for q in range(4 - p):
                assert tuple(fj.entry(p, q)) == u.derivative(p + 1, q)

    def test_bent_disk_in_harmonic_surface(self):
        u = bent_disk(6)
        x = realize_field_from_disk(HARMONIC, JSTD, u, 3)
        fj = field_jet(x, JSTD, 3)
        for p in range(4):
            for q in range(4 - p):
                assert tuple(fj.entry(p, q)) == u.derivative(p + 1, q)

    def test_contact_gate(self):
        u = propagate_cr_jet([E1], JSTD, 6)
        with pytest.raises(GeometryError):
            realize_field_from_disk(SPHERE, JSTD, u, 1)

    def test_regularity_gate(self):
        zero = (0, 0, 0, 0)
        u = propagate_cr_jet([zero, (0, 0, -1, 0)], JSTD, 3)
        with pytest.raises(GeometryError):
            realize_field_from_disk(HARMONIC, JSTD, u, 0)

    def test_contact_past_the_cap(self):
        # k defaults to contact - 2 = 7, and the cap-7 field reads phi
        # through cap 8, all it carries
        flat8 = surface(2, 8, {(0, 0, 1, 0): 2})
        j8 = ACStructure.standard(2, 8)
        u = propagate_cr_jet([E1], j8, 8)
        assert contact_order(flat8, u) == ContactOrder(9, False)
        x = realize_field_from_disk(flat8, j8, u)
        assert x.cap == 7
        fj = field_jet(x, j8, 7)
        for p in range(8):
            for q in range(8 - p):
                assert tuple(fj.entry(p, q)) == u.derivative(p + 1, q)

    def test_builds_nothing_above_cap_k(self, monkeypatch):
        j = perturbed_structure(3, 8, 1)
        rep = type_search(INDEF3, j, 6)
        k = rep.lower_bound - 2
        caps = []
        project = engine.project_to_complex_tangent

        def recording(*args):
            out = project(*args)
            caps.append(out.cap)
            return out

        def no_basis(*args):
            raise AssertionError("the realization builds no tangent basis")
        monkeypatch.setattr(engine, "project_to_complex_tangent", recording)
        monkeypatch.setattr(geometry, "complex_tangent_basis", no_basis)
        assert not hasattr(engine, "complex_tangent_basis")
        x = realize_field_from_disk(INDEF3, j, rep.witness_disk, k)
        assert x.cap == k
        assert caps == [k]

    def test_field_off_the_disk_at_degree_k(self, monkeypatch):
        # a degree-k term added to X changes X o u at degree k only
        project = engine.project_to_complex_tangent
        cases = [(QUARTIC, JSTD, 6), (HARMONIC, JSTD, 8),
                 (INDEF3, perturbed_structure(3, 8, 1), 6)]
        for m, j, k_max in cases:
            rep = type_search(m, j, k_max)
            k = rep.lower_bound - 2
            assert k >= 1
            u1 = rep.witness_disk.derivative(1, 0)
            i = next(i for i, v in enumerate(u1) if v != 0)
            exps = tuple(k if v == i else 0 for v in range(2 * m.n))
            bump = TruncatedSeries(2 * m.n, k, {exps: Q(1)})

            def bumped(*args):
                x = project(*args)
                return VectorField(x.n, [x.components[0] + bump,
                                         *x.components[1:]])
            monkeypatch.setattr(engine, "project_to_complex_tangent", bumped)
            with pytest.raises(TheoremViolation):
                realize_field_from_disk(m, j, rep.witness_disk, k)
            monkeypatch.setattr(engine, "project_to_complex_tangent", project)
            x = realize_field_from_disk(m, j, rep.witness_disk, k)
            assert x == rep.witness_field

    def test_reads_the_structure_it_is_given(self, monkeypatch):
        # J is read through the caps of the fields it is applied to, so no
        # truncated copy of J is built, and none is needed
        j = perturbed_structure(3, 8, 1)
        rep = type_search(INDEF3, j, 6)
        k = rep.lower_bound - 2
        assert j.cap > k + 1
        low = truncated_structure(j, k + 1)
        built = []
        init = ACStructure.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)
        monkeypatch.setattr(ACStructure, "__init__", counting)
        x = realize_field_from_disk(INDEF3, j, rep.witness_disk, k)
        assert built == []
        monkeypatch.undo()
        assert x == realize_field_from_disk(INDEF3, low, rep.witness_disk, k)

    def test_structure_below_the_order(self):
        # the field's cap is the structure's, below k
        rep = type_search(FLAT, perturbed_structure(2, 10, 0), 8)
        with pytest.raises(CapError, match="order 6 exceeds the field's cap 5"):
            realize_field_from_disk(FLAT, perturbed_structure(2, 5, 0),
                                    rep.witness_disk, 6)


class TestKnownOrder:
    """J_std is known at every order and any other J through its cap: the
    field jet, the staged search, the transport and the transport state
    that J holds (higher_levi) refuse past that order."""

    @pytest.mark.parametrize("cap", (0, 1, 2))
    def test_standard_structure_of_any_cap(self, cap):
        j = ACStructure.standard(2, cap)
        assert j.known == math.inf
        rng = make_rng(f"known-standard-{cap}")
        assert propagate_cr_jet([E1], j, 6).cap == 6
        assert field_jet(random_field(rng, 2, 5), j, 5).order == 5
        assert higher_levi(QUARTIC, j, [E1] * 5, 2, 2) == \
            higher_levi(QUARTIC, JSTD, [E1] * 5, 2, 2)

    @pytest.mark.parametrize("cap", (2, 3))
    def test_other_structure_through_its_cap(self, cap):
        j = perturbed_structure(2, cap, 3)
        assert not j.is_standard and j.known == cap
        x = random_field(make_rng(f"known-other-{cap}"), 2, cap + 2)
        assert field_jet(x, j, cap).order == cap
        assert type_search(QUARTIC, j, cap + 1).lower_bound >= 2
        assert _Transport(j, cap + 1).cap == cap + 1
        higher_levi(QUARTIC, j, [E1] * cap, cap - 1, 0)
        with pytest.raises(CapError, match="structure's cap"):
            field_jet(x, j, cap + 1)
        with pytest.raises(CapError, match="needs the structure through"):
            type_search(QUARTIC, j, cap + 2)
        with pytest.raises(CapError, match="too small to transport"):
            _Transport(j, cap + 2)
        with pytest.raises(CapError, match="too small to transport"):
            higher_levi(QUARTIC, j, [E1] * (cap + 1), cap, 0)


def disks_under_test(rng, n, cap):
    """Seeded transported disks of cap `cap` under J_std and
    perturbed_structure, and one of them with an all-zero component."""
    out = []
    for j in structures_under_test(n, cap)[:2]:
        jets = [random_vector(rng, 2 * n) for _ in range(cap)]
        out.append(propagate_cr_jet(jets, j, cap))
    comps = list(out[-1].components)
    comps[rng.randrange(2 * n)] = TruncatedSeries.zero(2, cap)
    return out + [disks.DiskJet(n, comps)]


class TestDiskTriangle:
    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_the_per_slot_derivatives(self, n):
        # the one-pass read against DiskJet.derivative slot by slot, on
        # disks whose cap is k + 1 and on disks with terms beyond it
        rng = make_rng(f"engine-disk-triangle-{n}")
        seen_zero = False
        for k in (0, 2, 5):
            for cap in (k + 1, k + 3):
                for u in disks_under_test(rng, n, cap):
                    oracle = {(p, q): u.derivative(p + 1, q)
                              for p in range(k + 1) for q in range(k + 1 - p)}
                    tri = engine._disk_triangle(u, k)
                    assert (tri.order, tri.n) == (k, n)
                    assert tri.entries == oracle
                    seen_zero = seen_zero or any(
                        c.is_zero() for c in u.components)
        assert seen_zero


class TestCommutation:
    def test_constant_field_commutes_to_any_order(self):
        x = constant_field(2, E1)
        rep = commutation_defect(x, JSTD, 6)
        assert rep.max_vanishing_order == 6
        assert rep.defects == {}
        assert set(rep.criterion_orders.values()) == {6}

    def test_pinned_noncommuting_field(self):
        # X = d/dx1 + x1 d/dy1; the first bracket already has a value at 0
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        x1s = TruncatedSeries(4, CAP, {(1, 0, 0, 0): Q(1)})
        zero = TruncatedSeries.zero(4, CAP)
        x = VectorField(2, [one, x1s, zero, zero])
        rep = commutation_defect(x, JSTD, 3)
        assert rep.max_vanishing_order == 1
        assert rep.defects == {"[X,JX]": (-1, 0, 0, 0)}
        assert set(rep.criterion_orders.values()) == {1}
        assert rep.agreement
        # cross-check the defect against the bracket of the fields themselves
        jx = JSTD.apply(x)
        assert tuple(lie_bracket(x, jx).at_zero()) == (-1, 0, 0, 0)

    def test_harmonic_field_commutes_identically(self):
        rep = commutation_defect(harmonic_tangent(), JSTD, 7)
        assert rep.max_vanishing_order == 7

    def test_random_fields_keep_criteria_agreeing(self):
        rng = make_rng("engine-comm")
        for _ in range(8):
            n = rng.choice((2, 3))
            j = random_structure(rng, n, 6)
            x = random_field(rng, n, 6)
            rep = commutation_defect(x, j, 4)
            assert rep.agreement
            assert len(set(rep.criterion_orders.values())) == 1
            assert rep.max_vanishing_order == rep.criterion_orders[3]

    def test_criterion_3_forms_quadratically_many_brackets(self,
                                                           monkeypatch):
        # m - 1 sorted right-normed brackets of each length m = 2..k, the
        # first one the word table's [X, JX]; the Lyndon brackets take 746
        k = 12
        calls = []

        def counting(*args):
            calls.append(args)
            return lie_bracket(*args)
        monkeypatch.setattr(engine, "lie_bracket", counting)
        rep = commutation_defect(harmonic_tangent(k - 1),
                                 ACStructure.standard(2, k), k)
        assert rep.criterion_orders == {c: k for c in (2, 3, 4)}
        assert len(calls) == k * (k - 1) // 2

    def test_defects_are_labelled_right_normed(self):
        # X = d/dx1 + x1^2 y1 d/dx2 first fails at length 4, on the two
        # sorted brackets that end in two X's
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        mono = TruncatedSeries(4, CAP, {(2, 1, 0, 0): Q(1)})
        zero = TruncatedSeries.zero(4, CAP)
        x = VectorField(2, [one, zero, mono, zero])
        jx = JSTD.apply(x)

        def ad(f, g):
            return lie_bracket(f.truncate(g.cap), g)
        inner = ad(x, ad(x, jx))
        rep = commutation_defect(x, JSTD, 6)
        assert rep.max_vanishing_order == 3
        assert rep.defects == {
            "[JX,[X,[X,JX]]]": tuple(ad(jx, inner).at_zero()),
            "[X,[X,[X,JX]]]": tuple(ad(x, inner).at_zero())}
        assert rep.defects["[X,[X,[X,JX]]]"] == (0, 0, -2, 0)

    def test_lyndon_words_follow_witt(self):
        # Witt's formula for the free Lie algebra on two generators
        words = {length: lyndon_words(length) for length in range(1, 11)}
        assert [len(words[length]) for length in range(1, 11)] == [
            2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
        for length, ws in words.items():
            for w in ws:
                assert all(w < w[i:] + w[:i] for i in range(1, length))

    def test_lyndon_words_match_the_rotation_filter(self):
        # the oracle's Duval generation against the filter over all 2^m
        # words, which also fixes their lexicographic order
        for length in range(1, 15):
            assert lyndon_words(length) == [
                w for w in product((0, 1), repeat=length)
                if all(w < w[i:] + w[:i] for i in range(1, length))]

    @pytest.mark.parametrize("a, b", [(a, d - a) for d in range(1, 8)
                                      for a in range(d + 1)])
    def test_first_failure_at_each_length(self, a, b):
        # X = d/dx1 + x1^a y1^b d/dx2: the first nonzero bracket has length
        # a + b + 1, so every criterion reports order a + b
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        mono = TruncatedSeries(4, CAP, {(a, b, 0, 0): Q(1)})
        zero = TruncatedSeries.zero(4, CAP)
        x = VectorField(2, [one, zero, mono, zero])
        rep = commutation_defect(x, JSTD, 8)
        assert rep.criterion_orders == {c: a + b for c in (2, 3, 4)}
        assert rep.max_vanishing_order == a + b
        assert rep.defects
        if (a, b) == (1, 0):
            assert set(rep.defects) == {"[X,JX]"}
        orders = rep.criterion_orders
        assert enumerated_orders(x, JSTD, 8) == (orders[4], orders[3],
                                                 orders[4])

    @pytest.mark.parametrize("n", (2, 3))
    def test_sorted_words_match_all_words(self, n):
        # criterion 4 reads one sorted word per letter count, and criterion
        # 3 one sorted right-normed bracket; the enumeration of every word
        # (word symmetry too), and the Lyndon brackets, give the same orders
        rng = make_rng(f"engine-sorted-words-{n}")
        seen = set()
        for j in structures_under_test(n, 8):
            fields = [random_field(rng, n, 8)]
            fields += [staged_field(rng, n, 8) for _ in range(6)]
            for x in fields:
                orders = commutation_defect(x, j, 8).criterion_orders
                assert enumerated_orders(x, j, 8) == (orders[4], orders[3],
                                                      orders[4])
                seen.add(orders[4])
        assert len(seen) >= 5

    def test_order_and_cap_guards(self):
        x = constant_field(2, E1, cap=2)
        with pytest.raises(ValueError):
            commutation_defect(x, JSTD, 0)
        with pytest.raises(CapError):
            commutation_defect(x, ACStructure.standard(2, 2), 5)


class TestFieldJetReference:
    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_the_chained_derivatives(self, n):
        rng = make_rng(f"engine-field-jet-{n}")
        for j in structures_under_test(n, 7):
            for x in (random_field(rng, n, 7, degree=3),
                      staged_field(rng, n, 7)):
                for k in (0, 3, 7):
                    assert field_jet(x, j, k).entries == \
                        chained_field_jet(x, j, k)


class TestDiskFromCommutingField:
    def test_constant_field_on_flat(self):
        x = constant_field(2, E1)
        u = disk_from_commuting_field(FLAT, JSTD, x, 3)
        assert u == propagate_cr_jet([E1], JSTD, 4)
        assert contact_order(FLAT, u) == ContactOrder(5, False)

    def test_harmonic_field_gives_bent_disk(self):
        u = disk_from_commuting_field(HARMONIC, JSTD, harmonic_tangent(), 4)
        assert u == bent_disk(5)
        assert contact_order(HARMONIC, u) == ContactOrder(6, False)

    def test_noncommuting_field_rejected(self):
        one = TruncatedSeries.constant(Q(1), 4, CAP)
        x1s = TruncatedSeries(4, CAP, {(1, 0, 0, 0): Q(1)})
        zero = TruncatedSeries.zero(4, CAP)
        x = VectorField(2, [one, x1s, zero, zero])
        with pytest.raises(GeometryError):
            disk_from_commuting_field(FLAT, JSTD, x, 1)

    def test_non_tangent_field_rejected(self):
        x = constant_field(2, E1)
        with pytest.raises(GeometryError):
            disk_from_commuting_field(SPHERE, JSTD, x, 1)

    def test_reads_the_x_jet_from_the_commutation_table(self, monkeypatch):
        # the x-jet's words are words of the table the commutation check
        # builds on (X, JX, [X, JX]); no second table, no field_jet
        tables = one_word_table(monkeypatch)
        u = disk_from_commuting_field(HARMONIC, JSTD, harmonic_tangent(), 4)
        assert u == bent_disk(5)
        assert tables == [3]


def bounded_disk_family():
    """Small rational x-jet family: u_1 with <= 2 unit entries, u_2 split."""
    u1s = []
    for i in range(4):
        for s in (Q(1), Q(-1)):
            vec = [Q(0)] * 4
            vec[i] = s
            u1s.append(tuple(vec))
    for i, k in combinations(range(4), 2):
        for si, sk in product((Q(1), Q(-1)), repeat=2):
            vec = [Q(0)] * 4
            vec[i], vec[k] = si, sk
            u1s.append(tuple(vec))
    ticks = (Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1))
    u2s = set()
    for a, b in product(ticks, repeat=2):
        u2s.add((a, b, Q(0), Q(0)))
        u2s.add((Q(0), Q(0), a, b))
    return u1s, sorted(u2s)


class TestTypeSearch:
    def test_sphere_certified_definite(self):
        rep = type_search(SPHERE, JSTD, 6)
        check_report_invariants(rep)
        assert rep.lower_bound == 2
        assert rep.certified_exact and not rep.cap_reached
        assert rep.obstruction == \
            "Levi form positive definite: no isotropic direction exists"
        assert contact_order(SPHERE, rep.witness_disk) == ContactOrder(2, True)

    def test_quartic_certified_stage_three(self):
        rep = type_search(QUARTIC, JSTD, 6)
        check_report_invariants(rep)
        assert rep.lower_bound == 4
        assert rep.certified_exact and not rep.cap_reached
        assert rep.obstruction == ("inconsistent affine system at stage 3 "
                                   "(constraints L^(i,j), i+j=2)")
        assert contact_order(QUARTIC, rep.witness_disk) == ContactOrder(4, True)
        assert rep.witness_disk.derivative(1, 0) == (1, 0, 0, 0)
        assert rep.witness_field_jet is not None

    def test_quartic_value_against_bounded_family(self):
        # independent sweep: no small-coefficient 2-jet beats the witness
        j4 = ACStructure.standard(2, 4)
        u1s, u2s = bounded_disk_family()
        best = 0
        for u1 in u1s:
            for u2 in u2s:
                u = propagate_cr_jet([u1, u2], j4, 4)
                co = contact_order(QUARTIC, u)
                assert co.exact, (u1, u2)
                best = max(best, co.order)
        assert best == 4

    def test_sextic_certified_stage_five(self):
        rep = type_search(SEXTIC, JSTD, 8)
        check_report_invariants(rep)
        assert rep.lower_bound == 6
        assert rep.certified_exact
        assert rep.obstruction == ("inconsistent affine system at stage 5 "
                                   "(constraints L^(i,j), i+j=4)")
        assert contact_order(SEXTIC, rep.witness_disk) == ContactOrder(6, True)

    def test_harmonic_reaches_the_cap(self):
        rep = type_search(HARMONIC, JSTD, 8)
        check_report_invariants(rep)
        assert rep.lower_bound == 8
        assert rep.cap_reached and not rep.certified_exact
        assert rep.obstruction is None
        assert rep.witness_disk == bent_disk(7)

    def test_flat_reaches_the_cap(self):
        rep = type_search(FLAT, JSTD, 6)
        check_report_invariants(rep)
        assert rep.lower_bound == 6 and rep.cap_reached

    def test_indefinite_quadric_runs_along_isotropic_direction(self):
        rep = type_search(INDEF3, JSTD3, 6)
        check_report_invariants(rep)
        assert rep.lower_bound == 6
        assert rep.cap_reached and not rep.certified_exact
        u1 = rep.witness_disk.derivative(1, 0)
        assert higher_levi(INDEF3, JSTD3, [u1], 0, 0) == 0
        assert any(v != 0 for v in u1)

    def test_perturbed_structure_search(self):
        j = perturbed_structure(2, 8, 3)
        rep = type_search(SPHERE, j, 6)
        check_report_invariants(rep)
        assert rep.lower_bound == 2
        assert rep.certified_exact

    def test_monotone_in_the_cap(self):
        bounds = []
        for k_max in (2, 4, 6, 8):
            rep = type_search(QUARTIC, JSTD, k_max)
            check_report_invariants(rep)
            bounds.append(rep.lower_bound)
        assert bounds == [2, 4, 4, 4]
        assert type_search(QUARTIC, JSTD, 4).cap_reached
        assert type_search(QUARTIC, JSTD, 6).certified_exact

    def test_witness_survives_reparametrization(self):
        rep = type_search(QUARTIC, JSTD, 6)
        for coeffs in ([2], [1, 1], [(0, 1)], [(0, 1), (2, 1)]):
            v = reparametrize_disk_jet(rep.witness_disk, coeffs)
            assert contact_order(QUARTIC, v) == ContactOrder(4, True)

    def test_gauge_multiplier_preserves_vanishing(self):
        # (alpha + beta J)X keeps every L^(p,q) zero that X zeroed
        rng = make_rng("engine-gauge")
        rep = type_search(QUARTIC, JSTD, 6)
        x = realize_field_from_disk(QUARTIC, JSTD, rep.witness_disk, 2)
        for _ in range(6):
            a0 = Q(rng.randint(-3, 3))
            b0 = Q(rng.randint(-3, 3))
            if a0 == 0 and b0 == 0:
                a0 = Q(1)
            alpha = TruncatedSeries(4, x.cap, {(0, 0, 0, 0): a0,
                                               (1, 0, 0, 0): Q(rng.randint(-2, 2))})
            beta = TruncatedSeries(4, x.cap, {(0, 0, 0, 0): b0,
                                              (0, 1, 0, 0): Q(rng.randint(-2, 2))})
            y = scale_field(x, alpha) + scale_field(JSTD.apply(x), beta)
            fj = field_jet(y, JSTD, 2)
            y_jet = [fj.entry(m - 1, 0) for m in range(1, 4)]
            for p in range(2):
                for q in range(2 - p):
                    assert higher_levi(QUARTIC, JSTD, y_jet[:p + q + 1],
                                       p, q) == 0

    def test_input_guards(self):
        with pytest.raises(ValueError):
            type_search(SPHERE, JSTD, 1)
        small = surface(2, 5, {(0, 0, 1, 0): 2, (2, 0, 0, 0): 1,
                               (0, 2, 0, 0): 1})
        with pytest.raises(CapError):
            type_search(small, ACStructure.standard(2, 5), 4)
        with pytest.raises(CapError):
            type_search(SPHERE, perturbed_structure(2, 2, 1), 6)


class TestSearchStrategies:
    def test_grid_finds_the_quartic_bound(self):
        rep = type_search(QUARTIC, JSTD, 6, ("grid", Q(1, 2)))
        check_report_invariants(rep)
        assert rep.lower_bound == 4
        assert not rep.certified_exact
        assert contact_order(QUARTIC, rep.witness_disk) == ContactOrder(4, True)
        assert rep.witness_field_jet is not None

    @pytest.mark.parametrize("strategy", ["exact_staged", ("grid", Q(1, 2))])
    def test_report_carries_the_field_of_its_jet(self, strategy):
        rep = type_search(QUARTIC, JSTD, 6, strategy)
        k = rep.lower_bound - 2
        assert field_jet(rep.witness_field, JSTD, k) == rep.witness_field_jet

    def test_grid_candidate_budget(self, monkeypatch):
        count = engine.grid_candidate_count
        assert count(2, Q(1, 2)) == 6
        assert count(4, Q(1, 2)) == 156
        assert count(4, Q(1, 4)) == 820
        for d, step in ((2, Q(1, 2000)), (4, Q(1, 5))):
            with pytest.raises(ValueError, match="above the limit"):
                count(d, step)

        def no_search(*args):
            raise AssertionError("searched before counting the candidates")
        monkeypatch.setattr(engine._Stager, "run_from_u1", no_search)
        with pytest.raises(ValueError, match="4002 candidates"):
            type_search(QUARTIC, JSTD, 6, ("grid", Q(1, 2000)))

    def test_directions_find_the_quartic_bound(self):
        rep = type_search(QUARTIC, JSTD, 6,
                          ("directions", [(1, 0, 0, 0), (0, 1, 0, 0)]))
        assert rep.lower_bound == 4

    def test_directions_project_at_cap_0(self, monkeypatch):
        # a candidate is the projection's value at 0, which reads only
        # values at 0; the realization projects once more, at cap k
        project = engine.project_to_complex_tangent
        caps = []

        def recording(m, j, v):
            caps.append(v.cap)
            return project(m, j, v)
        monkeypatch.setattr(engine, "project_to_complex_tangent", recording)
        for j in (JSTD, perturbed_structure(2, CAP, 1)):
            caps.clear()
            rep = type_search(QUARTIC, j, 6,
                              ("directions", [(1, 0, 0, 0), (0, 1, 1, 0)]))
            assert caps == [0, 0, rep.lower_bound - 2]

    def test_strategy_guards(self):
        with pytest.raises(ValueError):
            type_search(SPHERE, JSTD, 4, "annealing")
        with pytest.raises(ValueError):
            type_search(SPHERE, JSTD, 4, ("grid", Q(0)))
        with pytest.raises(ValueError):
            type_search(SPHERE, JSTD, 4, ("directions", []))
        with pytest.raises(GeometryError):
            type_search(SPHERE, JSTD, 4, ("directions", [(0, 0, 1, 0)]))


def degenerate_phi(rng, n, cap):
    """2*x_n + |z1|^4 (+ |z2|^2 at n = 3) plus random terms of degree 5..6:
    Levi-degenerate along z1, so the search goes past stage one."""
    text = f"2*x{n} + abs2(z1)^2" + (" + abs2(z2)" if n == 3 else "")
    extra = {e: random_rational(rng)
             for e in rng.sample(monomials(2 * n, 5, 6), 3)}
    return Hypersurface(n, parse_expression(text, n, cap=cap)
                        + TruncatedSeries(2 * n, cap, extra))


class TestRealizationContract:
    """The report's field lives at cap lower_bound - 2, the order it is read."""

    def test_seeded_reports(self):
        rng = make_rng("engine-realization")
        for n, k_max in ((2, 6), (3, 4)):
            cap = k_max + 2
            for m in (random_phi(rng, n, cap), degenerate_phi(rng, n, cap)):
                for j in (ACStructure.standard(n, cap),
                          random_structure(rng, n, cap)):
                    rep = type_search(m, j, k_max)
                    x, u = rep.witness_field, rep.witness_disk
                    k = rep.lower_bound - 2
                    assert x.cap == k
                    assert is_complex_tangent(m, j, x)
                    fj = field_jet(x, j, k)
                    assert fj == rep.witness_field_jet
                    for p in range(k + 1):
                        for q in range(k + 1 - p):
                            assert tuple(fj.entry(p, q)) == u.derivative(p + 1, q)


def witness_cases():
    """(m, j, k_max): catalog surfaces and seeded random ones, n = 2 and 3,
    each under J_std and a perturbed structure."""
    rng = make_rng("engine-witness-state")
    surfaces = [Hypersurface(n, parse_expression(text, n, cap=cap))
                for _, n, text, _, cap in CATALOG]
    surfaces += [f(rng, n, 12 - 2 * n) for n in (2, 3)
                 for f in (random_phi, degenerate_phi)]
    return [(m, j, min(m.cap - 2, 6 if m.n == 2 else 4))
            for m in surfaces
            for j in (ACStructure.standard(m.n, m.cap),
                      perturbed_structure(m.n, m.cap, 1))]


class TestWitnessFromState:
    """The witness disk and its contact come from the state the search
    grew; the whole transport and the Horner composition are the oracle."""

    def test_self_check_fires(self):
        stager = engine._Stager(SPHERE, JSTD, 6)
        u1 = stager.taus[0]
        assert higher_levi(SPHERE, JSTD, [u1], 0, 0) != 0
        # stratum 2 of phi . u is nonzero whatever u2 is
        with pytest.raises(TheoremViolation, match="stratum at 2"):
            stager.witness_report(stager.start(u1), 3, True, "obstructed")
        with pytest.raises(TheoremViolation, match="stratum at 2"):
            stager.witness_report(stager.start(u1).extend((Q(0),) * 4), 6,
                                  False, None)

    @pytest.mark.parametrize("kind", ["exact_staged", "grid", "directions"])
    def test_matches_transport_and_composition(self, kind):
        for m, j, k_max in witness_cases():
            strategy = {
                "exact_staged": kind,
                "grid": ("grid", Q(1)),
                "directions": ("directions",
                               [[int(i == k) for i in range(2 * m.n)]
                                for k in (0, 1)]),
            }[kind]
            rep = type_search(m, j, k_max, strategy)
            check_report_invariants(rep)
            u = rep.witness_disk
            x_jet = [u.derivative(k, 0) for k in range(1, u.cap + 1)]
            assert u == propagate_cr_jet(x_jet, j, u.cap)
            co = contact_order(m, u)
            if rep.cap_reached:
                assert rep.obstruction is None
                assert co.order >= rep.lower_bound
            else:
                assert co == ContactOrder(rep.lower_bound, True)


def reference_coords(stager, vec):
    return reference_solve_affine(stager.colmat, list(vec)).particular


def reference_gauge_span_ok(stager, u1, nullspace):
    """gauge_span_ok as it was: the coordinates of u1 and J_std u1 as the
    columns of a matrix, and every nullspace vector solved against it."""
    g1, g2 = reference_coords(stager, u1), reference_coords(
        stager, apply_jstd(u1))
    gmat = [[g1[r], g2[r]] for r in range(stager.d)]
    return all(reference_solve_affine(gmat, list(w)).consistent
               for w in nullspace)


class TestGaugeSpan:
    @pytest.mark.parametrize("case", ["quartic", "indefinite3",
                                      "perturbed3"])
    def test_matches_the_coordinate_solve(self, case):
        # at n = 2 the span is all of the d = 2 coordinates, so only n = 3
        # has nullspaces outside it
        m, j = {"quartic": (QUARTIC, JSTD),
                "indefinite3": (INDEF3, JSTD3),
                "perturbed3": (INDEF3, perturbed_structure(3, 8, 1))}[case]
        stager = engine._Stager(m, j, 6)
        rng = make_rng(f"engine-gauge-{case}")
        seen = set()
        for _ in range(10):
            u1 = stager.tangential([random_rational(rng)
                                    for _ in range(stager.d)])
            if not any(u1):
                continue
            g1 = reference_coords(stager, u1)
            g2 = reference_coords(stager, apply_jstd(u1))
            inside = [[a * x + b * y for x, y in zip(g1, g2)]
                      for a, b in ((Q(1), Q(0)), (random_rational(rng),
                                                  random_rational(rng)))]
            other = [random_rational(rng) for _ in range(stager.d)]
            for nullspace in ([], inside, [other], inside + [other]):
                want = reference_gauge_span_ok(stager, u1, nullspace)
                assert stager.gauge_span_ok(u1, nullspace) == want
                seen.add((len(nullspace), want))
        outside = m.n > 2
        assert seen == {(0, True), (2, True), (1, not outside),
                        (3, not outside)}


def probed_level_matrix(stager, state, normals_next):
    """The level matrix by transport, the reference: one probe reads
    normals_next, one per column of colmat reads normals_next plus that
    column, and column c is their difference."""
    ell = state.order

    def probe(vec):
        return levi._levi_values(
            state.copy().extend(vec).read(ell + 2))[::-1]
    base = probe(normals_next)
    cols = [[v - b for v, b in zip(probe(engine._vec_add(normals_next, c)),
                                   base)]
            for c in stager.columns]
    return [[col[i] for col in cols] for i in range(ell + 1)]


def formed_against_probed(monkeypatch):
    """Patch attempt_level to compare the matrix it hands solve_affine with
    the probed one, entry by entry; returns the list of (n, ell, whether
    the matrix is nonzero) it fills."""
    seen, solved = [], []
    solve, attempt = engine.solve_affine, engine._Stager.attempt_level

    def recorded(a, b):
        solved.append(a)
        return solve(a, b)

    def compared(self, state, normals_next, cycle):
        want = probed_level_matrix(self, state, normals_next)
        solved.clear()
        out = attempt(self, state, normals_next, cycle)
        assert solved == [want]
        seen.append((self.m.n, state.order, any(any(r) for r in want)))
        return out
    monkeypatch.setattr(engine, "solve_affine", recorded)
    monkeypatch.setattr(engine._Stager, "attempt_level", compared)
    return seen


def level_surface(rng, n, cap, quadratic):
    """A random nonzero gradient at 0, a named quadratic part, random cubic
    terms."""
    grad = [0] * (2 * n)
    while not any(grad):
        grad = [rng.choice((0, 0, -3, -1, 1, Q(1, 2), 5))
                for _ in range(2 * n)]
    text = {"harmonic": "Re(z1^2)", "definite": "abs2(z1)",
            "indefinite": "abs2(z1) - abs2(z2)"}[quadratic]
    linear = {tuple(int(i == k) for i in range(2 * n)): Q(g)
              for k, g in enumerate(grad)}
    cubic = {e: random_rational(rng)
             for e in rng.sample(monomials(2 * n, 3, 3), 3)}
    return Hypersurface(n, parse_expression(text, n, cap=cap)
                        + TruncatedSeries(2 * n, cap, {**linear, **cubic}))


class TestLevelSystemIsTheLeviRow:
    """attempt_level forms its matrix from the Levi row of u1; the matrix
    probed by one transport per column is the reference."""

    def test_formed_matrix_is_the_probed_one(self, monkeypatch):
        rng = make_rng("engine-levi-row")
        seen = formed_against_probed(monkeypatch)
        k_max, cap = 7, 9
        for n in (2, 3, 4):
            structures = [ACStructure.standard(n, cap),
                          perturbed_structure(n, cap, 1),
                          nonlinear_structure(rng, n, k_max - 1)]
            for j, quadratic in product(structures, (
                    "harmonic", "definite", "indefinite")[:n]):
                m = level_surface(rng, n, cap, quadratic)
                stager = engine._Stager(m, j, k_max)
                kernel = reference_solve_affine(
                    stager.r0, [Q(0)] * stager.d).nullspace
                coords = [[random_rational(rng) for _ in range(stager.d)],
                          *kernel[:1]]
                for c in coords:
                    u1 = tuple(stager.tangential(c))
                    state = stager.start(u1)
                    cycle = stager.levi_row(c)
                    for _ in range(4):
                        stager.attempt_level(state,
                                             random_vector(rng, 2 * n),
                                             cycle)
                        state.extend(random_vector(rng, 2 * n))
        # searches, whose levels run on solved jets
        for m, j, k_max in ((HARMONIC, JSTD, 8), (QUARTIC, JSTD, 6),
                            (INDEF3, perturbed_structure(3, 8, 1), 6)):
            type_search(m, j, k_max)
        assert {(n, ell, nonzero) for n, ell, nonzero in seen
                if ell <= 4} == set(product((2, 3, 4), range(1, 5),
                                            (False, True)))
        assert max(ell for _, ell, _ in seen) == 5

    def test_levi_row_reuses_the_coordinates_of_u1(self, monkeypatch):
        # u1 is built from its coordinates, so a search solves colmat
        # (2n rows) neither for u1 nor for its Levi row; every solve is a
        # level system of ell + 1 rows, or the kernel of R0 (2n - 2 rows)
        rows = []
        solve = engine.solve_affine

        def counted(a, b):
            rows.append(len(a))
            return solve(a, b)
        monkeypatch.setattr(engine, "solve_affine", counted)
        type_search(HARMONIC, JSTD, 8)  # u1 = taus[0], coordinates e_0
        assert rows == [2, 3, 4, 5, 6]
        rows.clear()
        semi = Hypersurface(3, parse_expression(
            "2*x3+abs2(z1)+Re(z2^4)", 3, cap=8))
        type_search(semi, JSTD3, 6)  # u1 from the kernel, then normalized
        assert rows == [4, 2, 3, 4]

    def test_only_user_directions_are_solved_for(self, monkeypatch):
        # grid candidates are built from their coordinates and solve no
        # colmat (2n rows); a user direction is given by its value, so its
        # coordinates are solved for, and a direction outside the tangent
        # space is refused
        rows = []
        solve = engine.solve_affine

        def counted(a, b):
            rows.append(len(a))
            return solve(a, b)
        monkeypatch.setattr(engine, "solve_affine", counted)
        semi = Hypersurface(3, parse_expression(
            "2*x3+abs2(z1)+Re(z2^4)", 3, cap=8))
        type_search(semi, JSTD3, 6, strategy=("grid", 1))
        assert rows == [2, 3, 4]
        rows.clear()
        type_search(semi, JSTD3, 6,
                    strategy=("directions", [(0, 0, 1, 0, 0, 0)]))
        assert rows == [6, 2, 3, 4]
        stager = engine._Stager(semi, JSTD3, 6)
        with pytest.raises(GeometryError, match="not complex tangential"):
            stager.coords_of((0, 0, 0, 0, 1, 0))

    def test_check_probe_weighs_every_column(self):
        # a wrong entry in any column, the last included, fails the check
        stager = engine._Stager(INDEF3, JSTD3, 6)
        assert stager.d == 4
        coords = [Q(1), Q(2), Q(-1), Q(3)]
        u1 = tuple(stager.tangential(coords))
        cycle = stager.levi_row(coords)
        assert any(cycle[0])
        state = stager.start(u1).extend((Q(1),) * 6)
        normals = (Q(0),) * 6
        stager.attempt_level(state, normals, cycle)
        for row, col in product((0, 1), range(stager.d)):
            faulty = [list(r) for r in cycle]
            faulty[row][col] += 1
            with pytest.raises(TheoremViolation, match="level-2 system"):
                stager.attempt_level(state, normals, faulty)


class TestCrossValidation:
    def test_sphere_witness(self):
        rec = cross_validate(SPHERE, JSTD, type_search(SPHERE, JSTD, 6))
        assert (rec.k, rec.contact_order, rec.realized_order,
                rec.commutation_order, rec.levi_slots_checked,
                rec.derivative_matches) == (0, 2, 0, 1, 0, 1)

    def test_quartic_witness(self):
        rec = cross_validate(QUARTIC, JSTD, type_search(QUARTIC, JSTD, 6))
        assert (rec.k, rec.contact_order, rec.realized_order,
                rec.commutation_order, rec.levi_slots_checked,
                rec.derivative_matches) == (2, 4, 2, 3, 3, 3)

    def test_harmonic_witness_at_the_cap(self):
        rec = cross_validate(HARMONIC, JSTD, type_search(HARMONIC, JSTD, 8))
        assert (rec.k, rec.contact_order, rec.realized_order,
                rec.commutation_order, rec.levi_slots_checked,
                rec.derivative_matches) == (6, 8, 6, 7, 21, 7)

    def test_randomized_searches_validate(self):
        rng = make_rng("engine-xval")
        for _ in range(6):
            n = rng.choice((2, 3))
            m = random_phi(rng, n, 8)
            j = random_structure(rng, n, 8) if rng.random() < 0.5 \
                else ACStructure.standard(n, 8)
            rep = type_search(m, j, 4)
            check_report_invariants(rep)
            rec = cross_validate(m, j, rep)
            assert rec.k == rep.lower_bound - 2
            assert rec.contact_order >= rec.k + 2

    def test_probes_and_degrees_fork_one_transport(self, monkeypatch):
        # the stager's probes and cross_validate's degrees copy a transport
        # state.  The search builds one state for u1, extends it by each
        # solved jet and reads the witness disk and its contact from it;
        # only the guard in realize_field_from_disk composes phi with the
        # whole disk.  Each case has a structure of its own, so no held
        # state of an earlier read (such as this one, on the module's JSTD
        # at the quartic witness's first derivative) spares a transport
        levi.levi_trace(QUARTIC, JSTD, [type_search(
            QUARTIC, JSTD, 6).witness_disk.derivative(1, 0)], 0)
        calls = []
        init = disks._Transport.__init__

        def constructed(self, *args):
            calls.append("_Transport")
            init(self, *args)
        monkeypatch.setattr(disks._Transport, "__init__", constructed)
        for module, name in product((disks, engine, levi),
                                    ("propagate_cr_jet", "compose_phi_u")):
            if not hasattr(module, name):
                continue

            def counting(*args, _call=getattr(module, name), _name=name,
                         **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        levels = []
        attempt = engine._Stager.attempt_level

        def watched(self, *args):
            start = len(calls)
            out = attempt(self, *args)
            levels.append(calls[start:])
            return out
        monkeypatch.setattr(engine._Stager, "attempt_level", watched)
        harmonic3 = surface(3, 10, {(0, 0, 0, 0, 1, 0): 2,
                                    (2, 0, 0, 0, 0, 0): 1,
                                    (0, 2, 0, 0, 0, 0): -1})
        for m, j, k_max, k in ((QUARTIC, ACStructure.standard(2, CAP), 6, 2),
                               (HARMONIC, ACStructure.standard(2, CAP), 8, 6),
                               (SEXTIC, ACStructure.standard(2, CAP), 8, 4),
                               (harmonic3, perturbed_structure(3, 10, 1), 6,
                                3)):
            levels.clear()
            calls.clear()
            rep = type_search(m, j, k_max)
            assert levels and all(not c for c in levels)
            assert calls == ["_Transport", "compose_phi_u"]
            if m is QUARTIC:
                assert rep.obstruction == (
                    "inconsistent affine system at stage 3 "
                    "(constraints L^(i,j), i+j=2)")
            calls.clear()
            rec = cross_validate(m, j, rep)
            assert rec.k == k
            assert calls == ["compose_phi_u", "_Transport"]

    def test_reads_the_field_jet_from_the_commutation_table(self,
                                                            monkeypatch):
        # check (a) reads the triangle from the commutation check's table,
        # the one table of a validation: the search builds none, since the
        # realization pulls X and JX back to the disk
        assert not hasattr(engine, "field_jet")
        tables = one_word_table(monkeypatch)
        for m, j, k_max in ((QUARTIC, JSTD, 6), (HARMONIC, JSTD, 8),
                            (SEXTIC, JSTD, 8),
                            (INDEF3, perturbed_structure(3, 8, 1), 6)):
            for strategy in ("exact_staged", ("grid", Q(1, 2))):
                tables.clear()
                rep = type_search(m, j, k_max, strategy)
                assert tables == []
                rec = cross_validate(m, j, rep)
                assert rec.k == rep.lower_bound - 2
                assert tables == [3]

    def test_needs_a_witness(self):
        bare = TypeReport((0, 0, 0, 0), 2, False, False, None, None, None)
        with pytest.raises(ValueError):
            cross_validate(SPHERE, JSTD, bare)
        rep = type_search(SPHERE, JSTD, 4)
        with pytest.raises(ValueError):
            cross_validate(SPHERE, JSTD, replace(rep, witness_field=None))

    def test_checks_the_reported_field_without_rebuilding_it(self,
                                                              monkeypatch):
        rep = type_search(QUARTIC, JSTD, 6)

        def no_realization(*args):
            raise AssertionError("witness field realized again")
        monkeypatch.setattr(engine, "realize_field_from_disk", no_realization)
        assert cross_validate(QUARTIC, JSTD, rep).k == 2

    def test_rejects_a_field_that_is_not_complex_tangent(self):
        rep = type_search(QUARTIC, JSTD, 6)
        normal = replace(rep, witness_field=constant_field(2, (0, 0, 1, 0)))
        with pytest.raises(GeometryError):
            cross_validate(QUARTIC, JSTD, normal)


class TestScan:
    def test_quartic_semicontinuity(self):
        points = [(0, 0, 0, 0), (Q(1, 2), 0, Q(-1, 32), 0), (1, 0, Q(-1, 2), 0)]
        reps = scan_type(QUARTIC, JSTD, points, 6)
        assert [r.lower_bound for r in reps] == [4, 2, 2]
        assert [tuple(r.point) for r in reps] == [tuple(p) for p in
                                                  [(0, 0, 0, 0),
                                                   (Q(1, 2), 0, Q(-1, 32), 0),
                                                   (Q(1), Q(0), Q(-1, 2), Q(0))]]
        for r in reps:
            check_report_invariants(r)
        # independent look at the moved base points
        for t in (Q(1, 2), Q(1)):
            mc, jc, _ = recenter(QUARTIC, JSTD, (t, 0, -t ** 4 / 2, 0))
            assert classify_point(mc, jc).label == "strictly_pseudoconvex"

    def test_sphere_is_type_two_everywhere(self):
        points = [(0, 0, 0, 0), (Q(1, 2), 0, Q(-1, 8), 0)]
        reps = scan_type(SPHERE, JSTD, points, 4)
        assert all(r.lower_bound == 2 and r.certified_exact for r in reps)
        for pt in points:
            mc, jc, _ = recenter(SPHERE, JSTD, pt)
            assert classify_point(mc, jc).label == "strictly_pseudoconvex"

    def test_flat_scan_projects_and_caps(self):
        reps = scan_type(FLAT, JSTD, [(0, 0, 1, 0)], 4)
        assert len(reps) == 1
        assert tuple(reps[0].point) == (0, 0, 0, 0)
        assert reps[0].cap_reached and reps[0].lower_bound == 4

    def test_grid_strategy_passes_through(self):
        reps = scan_type(QUARTIC, JSTD, [(0, 0, 0, 0)], 6, ("grid", Q(1, 2)))
        assert reps[0].lower_bound == 4 and not reps[0].certified_exact
