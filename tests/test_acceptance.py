"""Acceptance criteria: one test per criterion, exact arithmetic
throughout (tolerance is identically zero), each with a wall-clock
budget and one visible pass/fail line."""

import random
import time
from fractions import Fraction

import pytest

from propnet.afflag import aff_blackbox, isource_rel
from propnet.bondgraph import (BG_SIGNATURE, FModel, GModel, alpha,
                               bondgraph_laws, check_naturality,
                               discriminating_law)
from propnet.circuit import CircuitModel, LCircuit, parse_label
from propnet.exactla import kernel, rref
from propnet.laws import frobenius_monoid_laws, run_suite
from propnet.linrel import (CorelToLinRelModel, K_corel, LinRel, blackbox,
                            impedance_rel, is_lagrangian, rlc_rel)
from propnet.scalar import QQ, QS, RatFunc
from propnet.setprops import CorelModel, CospanModel
from propnet.sigflow import square_check
from propnet.term import Gen, Id, Sym, evaluate, model_equal, seq

from helpers import (aff_contains, all_corelations, compose_oracle,
                     rand_circuit_gens, rand_fraction, rand_rows, rand_term,
                     rand_term_with_dom, rank, to_sparse, witness)


@pytest.fixture
def report(request, capsys):
    """Times the test body and prints the criterion verdict live."""
    start = time.perf_counter()
    state = {"budget": None, "label": request.node.name}

    def set_budget(seconds, label):
        state["budget"] = seconds
        state["label"] = label

    yield set_budget
    elapsed = time.perf_counter() - start
    failed = getattr(request.node, "rep_failed", False)
    verdict = "FAIL" if failed else "PASS"
    with capsys.disabled():
        print(f"{state['label']}: {verdict} ({elapsed:.2f}s)")
    assert state["budget"] is None or elapsed < state["budget"], \
        f"budget exceeded: {elapsed:.2f}s"


def test_criterion_01_corelation_oracle(report):
    report(10, "criterion 01 corelation composition vs oracle")
    for m in range(4):
        for n in range(4):
            fs = list(all_corelations(m, n))
            for p in range(4):
                gs = list(all_corelations(n, p))
                for f in fs:
                    for g in gs:
                        expect, _ = compose_oracle(f, g)
                        assert f.compose(g) == expect


def test_criterion_02_frobenius_suites(report):
    report(1, "criterion 02 FinCorel/FinCospan presentation suites")
    laws = frobenius_monoid_laws("m", "i", "d", "e", commutative=True)
    assert all(ok for _lid, ok in run_suite(CorelModel(), laws))
    cospan = CospanModel()
    for lid, ok in run_suite(cospan, laws):
        assert ok == (lid != "extra"), lid
    # the extra-law witness: a floating apex point
    closed = evaluate(seq(Gen("i"), Gen("e")), cospan)
    assert closed.extras == 1


def test_criterion_03_K_correctness(report):
    report(30, "criterion 03 K generator tables, Lagrangian, functorial")
    gens = CorelModel.GENERATORS
    assert K_corel(QQ, gens["m"]) == LinRel.from_constraints(QQ, 4, 2, [
        [1, 0, -1, 0, 0, 0], [1, 0, 0, 0, -1, 0], [0, 1, 0, 1, 0, -1]])
    assert K_corel(QQ, gens["i"]) == LinRel.from_constraints(QQ, 0, 2,
                                                             [[0, 1]])
    assert K_corel(QQ, gens["d"]) == LinRel.from_constraints(QQ, 2, 4, [
        [1, 0, -1, 0, 0, 0], [1, 0, 0, 0, -1, 0], [0, 1, 0, -1, 0, -1]])
    assert K_corel(QQ, gens["e"]) == LinRel.from_constraints(QQ, 2, 0,
                                                             [[0, 1]])
    for m in range(5):
        for n in range(5 - m):
            for c in all_corelations(m, n):
                assert is_lagrangian(K_corel(QQ, c))
    for m in range(3):
        for n in range(3):
            fs = list(all_corelations(m, n))
            for p in range(3):
                for f in fs:
                    for g in all_corelations(n, p):
                        assert K_corel(QQ, f.compose(g)) == \
                            K_corel(QQ, f).compose(K_corel(QQ, g))


def test_criterion_04_blackbox_physics(report):
    report(5, "criterion 04 series/parallel impedances, L and C rows")
    rng = random.Random(104)
    model = CircuitModel()
    d, m = model.gen("d"), model.gen("m")
    for _ in range(50):
        r1 = rand_fraction(rng, positive=True)
        r2 = rand_fraction(rng, positive=True)
        e1 = LCircuit.single_edge(parse_label("resistor", str(r1)))
        e2 = LCircuit.single_edge(parse_label("resistor", str(r2)))
        assert blackbox(e1.compose(e2), QQ) == impedance_rel(QQ, r1 + r2)
        par = d.compose(e1.tensor(e2)).compose(m)
        assert blackbox(par, QQ) == \
            impedance_rel(QQ, r1 * r2 / (r1 + r2))
    s = QS.coerce(RatFunc.s())
    lrel = rlc_rel(QS, parse_label("inductor", "3"))
    # V = sL I as a constraint row
    assert lrel == LinRel.from_constraints(QS, 2, 2, [
        [-QS.one, -3 * s, QS.one, QS.zero],
        [QS.zero, QS.one, QS.zero, -QS.one]])
    crel = rlc_rel(QS, parse_label("capacitor", "3"))
    # sC(phi2 - phi1) = I1 as a constraint row
    assert crel == LinRel.from_constraints(QS, 2, 2, [
        [-3 * s, -QS.one, 3 * s, QS.zero],
        [QS.zero, QS.one, QS.zero, -QS.one]])


def test_criterion_05_dual_path_blackbox(report):
    report(60, "criterion 05 graph elimination vs generator evaluation")
    rng = random.Random(105)
    circ = CircuitModel()
    lin = CorelToLinRelModel(QS)
    count = 0
    while count < 200:
        gens = rand_circuit_gens(rng)
        t = rand_term(rng, circ.signature, gens, rng.randint(0, 3))
        c = evaluate(t, circ)
        if c.graph.node_count > 6 or len(c.graph.edges) > 8:
            continue
        assert blackbox(c, QS) == evaluate(t, lin)
        count += 1


def test_criterion_06_commuting_square(report):
    report(60, "criterion 06 translation square on generators and terms")
    for name in ("m", "i", "d", "e", "label:resistor:2"):
        assert square_check(Gen(name), QS)
    rng = random.Random(106)
    circ = CircuitModel()
    for _ in range(200):
        gens = rand_circuit_gens(rng)
        t = rand_term_with_dom(rng, circ.signature, gens,
                               rng.randint(0, 3), 5)
        assert square_check(t, QS)


def test_criterion_07_affine_translate(report):
    report(10, "criterion 07 affine composition translate formula")
    rng = random.Random(107)
    checked = 0
    while checked < 200:
        n = rng.randint(0, 3)
        # random composable pair of affine relations
        f = _rand_affrel(rng, rng.randint(0, 3), n)
        g = _rand_affrel(rng, n, rng.randint(0, 3))
        h = f.compose(g)
        if h.is_empty():
            continue
        w = witness(h)
        lin = h.linear_part()
        assert aff_contains(h, w)
        for v in lin.space.basis:
            assert aff_contains(h, [x + y for x, y in zip(w, v)])
        assert h.hspace.dim == lin.space.dim + 1
        checked += 1
    # derived battery-resistor relation
    batt = LCircuit.single_edge(parse_label("vsource", "2"))
    res = LCircuit.single_edge(parse_label("resistor", "3"))
    aff = aff_blackbox(batt.compose(res), QS)
    assert aff_contains(aff, [QS.zero, QS.one, QS.coerce(5), QS.one])
    assert aff.linear_part() == impedance_rel(QS, QS.coerce(3))
    # inconsistent sources compose to the empty relation
    assert isource_rel(QQ, 1).compose(isource_rel(QQ, 2)).is_empty()


def _rand_affrel(rng, dom, cod):
    from propnet.afflag import AffRel
    rows = [[QQ.coerce(rng.randint(-3, 3)) for _ in range(dom + cod + 1)]
            for _ in range(rng.randint(0, dom + cod))]
    return AffRel.from_constraints(QQ, dom, cod, rows)


def test_criterion_08_bondgraph_law_audit(report):
    report(10, "criterion 08 bond-graph laws in both models")
    laws = bondgraph_laws()
    for model in (FModel(QQ), GModel()):
        audit = run_suite(model, laws)
        assert audit and all(ok for _lid, ok in audit)
    _lid, lhs, rhs = discriminating_law()
    assert model_equal(GModel(), lhs, rhs)
    assert not model_equal(FModel(QQ), lhs, rhs)
    f = FModel(QQ)
    assert evaluate(lhs, f).compose(evaluate(rhs, f)) == \
        LinRel.identity(QQ, 2)
    assert evaluate(rhs, f).compose(evaluate(lhs, f)) == \
        LinRel.identity(QQ, 2)


def test_criterion_09_alpha_naturality(report):
    report(60, "criterion 09 alpha naturality and left inverse")
    for name in ("1j", "1u", "1d", "1e", "0j", "0u", "0d", "0e"):
        assert check_naturality(Gen(name), QQ)
    assert check_naturality(Sym(1, 1), QQ)
    rng = random.Random(109)
    # random terms stay within the fragment on which conjugation by
    # alpha is functorial; cross-family comultiplication composites
    # separate the two semantics (see test_bondgraph for the boundary)
    gens = ["1j", "1u", "1e", "0j", "0u", "0e"]
    for _ in range(100):
        t = rand_term(rng, BG_SIGNATURE, gens, rng.randint(0, 4),
                      max_width=2)
        assert check_naturality(t, QQ)
    for n in range(5):
        an = alpha(n, QQ)
        assert an.compose(an.dagger()) == LinRel.identity(QQ, 2 * n)


def test_criterion_10_exact_linear_algebra(report):
    report(10, "criterion 10 rank-nullity and canonical idempotence")
    rng = random.Random(110)
    for field in (QQ, QS):
        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = rand_rows(rng, field, nr, nc)
            red, pivots = rref(to_sparse(rows), field)
            assert rref(red, field) == (red, pivots)
            assert rank(rows, field) + kernel(to_sparse(rows), field,
                                              nc).dim == nc
