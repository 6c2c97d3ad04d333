import random
from fractions import Fraction

import pytest

from propnet.circuit import (CircuitModel, EdgeLabel, LCircuit, LGraph, WIRE,
                             circuit_from_json, label_from_gen_name,
                             parse_label)
from propnet.setprops import CospanModel, InterfaceMismatch
from propnet.term import Gen, Id, Sym, evaluate, model_equal, par, seq

from helpers import (circuit_to_json, pi0_cospan, rand_circuit,
                     rand_circuit_gens, rand_term, renumber)


def test_labels():
    assert parse_label("resistor", "3/2") == EdgeLabel("resistor",
                                                       Fraction(3, 2))
    assert parse_label("wire") == WIRE
    assert label_from_gen_name("label:capacitor:2").kind == "capacitor"
    with pytest.raises(ValueError):
        EdgeLabel("resistor", Fraction(-1))
    with pytest.raises(ValueError):
        EdgeLabel("wire", Fraction(1))
    with pytest.raises(ValueError):
        parse_label("diode", "1")


def test_compose_glues_legs():
    # two resistors in series: three nodes survive the pushout
    r = LCircuit.single_edge(parse_label("resistor", "2"))
    rr = r.compose(r)
    assert rr.graph.node_count == 3
    assert len(rr.graph.edges) == 2
    assert rr.m == rr.n == 1


def test_compose_merges_repeated_legs():
    # m;d then glue both outputs back: nodes can collapse
    model = CircuitModel()
    loop = evaluate(seq(Gen("d"), Gen("m")), model)
    assert loop == LCircuit.identity(1)
    with pytest.raises(InterfaceMismatch):
        LCircuit.identity(1).compose(LCircuit.identity(2))


def test_iso_class_equality():
    lab = parse_label("resistor", "2")
    a = LCircuit(LGraph(3, [(0, 1, lab), (1, 2, WIRE)]), [0], [2])
    # same circuit with internal node renumbered via a permutation
    b = renumber(a, {0: 0, 1: 2, 2: 1})
    assert a == b and hash(a) == hash(b)
    c = LCircuit(LGraph(3, [(0, 1, WIRE), (1, 2, lab)]), [0], [2])
    assert a != c  # legs are fixed, so the reversed chain differs
    d = LCircuit(LGraph(3, [(0, 1, lab), (1, 2, lab)]), [0], [2])
    assert a != d


def test_pi0_functorial():
    rng = random.Random(40)
    cospan = CospanModel()
    for _ in range(150):
        n = rng.randint(0, 3)
        f = rand_circuit(rng, max_nodes=4, max_edges=5)
        f = LCircuit(f.graph, f.inputs[:2], [0] * n if f.graph.node_count
                     else [])
        g = rand_circuit(rng, max_nodes=4, max_edges=5)
        g = LCircuit(g.graph, [0] * n if g.graph.node_count else [],
                     g.outputs[:2])
        assert pi0_cospan(f.compose(g)) == \
            pi0_cospan(f).compose(pi0_cospan(g))
        h = rand_circuit(rng, max_nodes=4, max_edges=5)
        assert pi0_cospan(f.tensor(h)) == \
            pi0_cospan(f).tensor(pi0_cospan(h))


def test_pi0_on_generators():
    model = CircuitModel()
    cospan = CospanModel()
    for name in ("m", "i", "d", "e"):
        assert pi0_cospan(model.gen(name)) == cospan.gen(name)
    # a labeled edge looks like a bare wire to pi0
    assert pi0_cospan(model.gen("label:resistor:2")) == \
        pi0_cospan(LCircuit.single_edge(WIRE))


def test_circuit_model_interchange():
    rng = random.Random(41)
    model = CircuitModel()
    gens = rand_circuit_gens(rng)
    from helpers import rand_term_with_dom
    for _ in range(25):
        f = rand_term(rng, model.signature, gens, 1)
        h = rand_term(rng, model.signature, gens, 1)
        from propnet.term import arity
        _df, cf = arity(f, model.signature)
        _dh, ch = arity(h, model.signature)
        g = rand_term_with_dom(rng, model.signature, gens, cf, 1)
        k = rand_term_with_dom(rng, model.signature, gens, ch, 1)
        assert model_equal(model, par(seq(f, g), seq(h, k)),
                           seq(par(f, h), par(g, k)))


def test_json_round_trip():
    rng = random.Random(42)
    for _ in range(60):
        c = rand_circuit(rng, max_nodes=5, max_edges=6)
        back = circuit_from_json(circuit_to_json(c))
        assert back == c
        assert back.inputs == c.inputs and back.outputs == c.outputs


def test_long_chain_pushout():
    # d^{1500} ; (id 1 + m^{1499} + id 1) glues every node onto the next,
    # a union-find chain 1,500 roots long
    n = 1500
    split = LCircuit(LGraph(n, []), range(n),
                     [v for v in range(n) for _ in (0, 1)])
    merge = LCircuit(LGraph(n + 1, []),
                     [0] + [v for v in range(1, n) for _ in (0, 1)] + [n],
                     range(n + 1))
    glued = split.compose(merge)
    assert glued.graph.node_count == 1
    assert (glued.m, glued.n) == (n, n + 1)
