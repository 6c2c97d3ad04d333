import dataclasses
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from propnet.afflag import AffRel
from propnet.circuit import LCircuit, LGraph
from propnet.cli import _models
from propnet.linrel import CorelToLinRelModel, LinRel
from propnet.scalar import QQ, QS
from propnet.setprops import (BoolRel, Corelation, CorelModel, Cospan,
                              CospanModel, InterfaceMismatch, NatSpan,
                              WIRE_SIGNATURE)
from propnet.term import (MAX_WIDTH, ArityMismatch, Gen, Id, Par, Seq, Sym,
                          TermParseError, UnknownGenerator, arity, dag_fold,
                          evaluate, format_term, model_equal, par,
                          parse_term, seq)

from helpers import (PROPERTY, fold_evaluate, from_vectors, pi0_cospan,
                     rand_term, rand_term_with_dom)

WIRE_GENS = ["m", "i", "d", "e"]


def test_arity():
    t = seq(Gen("m"), Gen("d"))
    assert arity(t, WIRE_SIGNATURE) == (2, 2)
    assert arity(par(Id(1), Sym(1, 1)), WIRE_SIGNATURE) == (3, 3)
    with pytest.raises(ArityMismatch):
        arity(seq(Gen("m"), Gen("m")), WIRE_SIGNATURE)
    with pytest.raises(UnknownGenerator):
        arity(Gen("bogus"), WIRE_SIGNATURE)


def test_parse_format_round_trip():
    rng = random.Random(20)
    for _ in range(80):
        t = rand_term(rng, WIRE_SIGNATURE, WIRE_GENS, rng.randint(0, 3))
        assert parse_term(format_term(t)) == t


def test_parse_sugar():
    t = parse_term("(label resistor 3/2)")
    assert t == Gen("label:resistor:3/2")
    assert parse_term("(scalar -2)") == Gen("scalar:-2")
    assert parse_term("(seq (gen m) (gen d) (gen m))") == \
        Seq((Gen("m"), Gen("d"), Gen("m")))


def test_label_literals_with_colons_read_back():
    # a label's name splits at its first two colons, as
    # label_from_gen_name reads it; the rest, colons and all, is its literal
    for src, printed in (("(label impedance 1:2)", "(label impedance 1:2)"),
                         ("(gen label:x:y:z)", "(label x y:z)")):
        t = parse_term(src)
        assert format_term(t) == printed
        assert parse_term(printed) == t


@pytest.mark.parametrize("name", ["label:", "scalar:", "label::x"])
def test_names_with_an_empty_part_read_back(name):
    # the sugared forms "(label )", "(scalar )" and "(label  x)" do not
    # read back as these names, so they print as (gen NAME)
    t = parse_term(f"(gen {name})")
    assert t == Gen(name)
    assert format_term(t) == f"(gen {name})"
    assert parse_term(format_term(t)) == t


def test_bracketed_literals():
    assert parse_term("(scalar (3/2)*s)") == Gen("scalar:(3/2)*s")
    # whitespace between tokens reads as one space, none stays none
    assert parse_term("(label impedance\t1/( s+1 )\n)") == \
        Gen("label:impedance:1/( s+1 )")
    assert parse_term("(seq (scalar 2*s - 3) (scalar ((1))))") == \
        seq(Gen("scalar:2*s - 3"), Gen("scalar:((1))"))
    for bad, message in [("(scalar 1/(s+1)", "expected scalar literal"),
                         ("(scalar)", "empty scalar at position 1")]:
        with pytest.raises(TermParseError, match=re.escape(message)):
            parse_term(bad)


def test_width_limit():
    assert arity(Id(MAX_WIDTH), WIRE_SIGNATURE) == (MAX_WIDTH, MAX_WIDTH)
    for t in (Id(MAX_WIDTH + 1), Sym(MAX_WIDTH, 1),
              par(Id(MAX_WIDTH), Gen("i")), par(Gen("e"), Id(MAX_WIDTH))):
        with pytest.raises(ValueError, match="limit"):
            arity(t, WIRE_SIGNATURE)


def test_forms_print_as_written():
    flat = ["(seq (gen m) (gen d) (gen m) (gen d))",
            "(par (gen i) (id 2) (sym 1 2) (label resistor 3/2) (scalar -2))"]
    for src in flat:
        assert format_term(parse_term(src)) == src
    nested = "(seq (seq (gen m) (gen d)) (par (par (gen e) (gen i)) (id 1)))"
    t = parse_term(nested)
    assert t == Seq((Seq((Gen("m"), Gen("d"))),
                     Par((Par((Gen("e"), Gen("i"))), Id(1)))))
    assert format_term(t) == nested
    assert seq(Gen("m")) == par(Gen("m")) == Gen("m") and par() == Id(0)
    # nested past the recursion limit: prints back, and two separate
    # parses compare and hash equal; one generator changed compares unequal
    deep = "(gen d)"
    for k in range(9_999):
        deep = f"(seq {deep} (gen {'md'[k % 2]}))"
    t = parse_term(deep)
    assert format_term(t) == deep
    u = parse_term(deep)
    assert t == u and hash(t) == hash(u)
    near = parse_term(deep.replace("(gen m)", "(gen e)", 1))
    assert t != near
    assert t != parse_term(deep.replace("(seq", "(par", 1))


def test_repr_of_forms():
    assert repr(seq(Gen("m"), Id(1))) == \
        "Seq(terms=(Gen(name='m'), Id(n=1)))"
    assert repr(par(Sym(1, 2), seq(Gen("a'b"), Id(0)))) == \
        "Par(terms=(Sym(m=1, n=2), Seq(terms=(Gen(name=\"a'b\"), Id(n=0)))))"
    assert repr(Seq((Gen("m"),))) == "Seq(terms=(Gen(name='m'),))"
    # a one-child form built directly prints, and so hashes, as written;
    # a form with no children cannot be built
    one = Par((Seq((Gen("m"),)),))
    assert repr(one) == "Par(terms=(Seq(terms=(Gen(name='m'),)),))"
    assert format_term(one) == "(par (seq (gen m)))"
    assert parse_term(format_term(one)) == Gen("m")
    assert hash(one) == hash("(par (seq (gen m)))")
    for form in (Seq, Par):
        with pytest.raises(ValueError, match="at least one term"):
            form(())
    # nested past the recursion limit: the same text, built without
    # recursion (a recursing repr fails here, not in pytest's traceback)
    t = Gen("m")
    for _ in range(10_000):
        t = seq(t, Gen("m"))
    try:
        text = repr(t)
    except RecursionError:
        text = "RecursionError"
    assert text == ("Seq(terms=(" * 10_000 + "Gen(name='m')"
                    + ", Gen(name='m')))" * 10_000)


def test_printing_a_deep_term_keeps_no_value_per_subterm():
    # a walk that kept each subterm's text would hold 10,000 prefixes of
    # a 280 KB string; the printers peak at 0.92 MB before the terms
    # became DAGs, and must stay within about twice that
    t = parse_term(_deep_chain(10_000))
    for show in (format_term, repr):
        tracemalloc.start()
        try:
            show(t)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, (show, peak)


def _deep_chain(levels):
    deep = "(gen d)"
    for k in range(levels - 1):
        deep = f"(seq {deep} (gen {'md'[k % 2]}))"
    return deep


def unshared(t):
    """A copy of ``t`` as a tree: a new node for every occurrence."""
    return dag_fold(t, dataclasses.replace,
                    lambda form, terms: type(form)(tuple(terms)), ())


def test_reader_shares_equal_subterms():
    src = ("(seq (par (gen d) (id 1)) (par (gen d) (id 1)) "
           "(par (label resistor 2) (id 1)))")
    t = parse_term(src)
    first, second, third = t.terms
    assert first is second
    assert first.terms[1] is third.terms[1]
    assert format_term(t) == src
    copy = unshared(t)
    assert copy == t and copy.terms[0] is not copy.terms[1]
    # leaves are keyed by their text, and a label by the name it reads to
    t = parse_term("(par (id 1) (id 01) (label resistor 2) "
                   "(gen label:resistor:2))")
    assert t.terms[0] == t.terms[1] and t.terms[0] is not t.terms[1]
    assert t.terms[2] is t.terms[3]


def test_first_fault_from_the_left_is_reported():
    # each child is folded into its form as soon as it is done, so a
    # form's own fault comes before a later child's, and a width is
    # checked as it grows
    model = CorelModel()
    cases = [("(seq (gen d) (gen d) (gen bogus))", ArityMismatch,
              "cannot compose: term 1 of a seq has codomain 2, "
              "term 2 has domain 1"),
             ("(par (id 1000) (gen i) (id 5))", ValueError,
              f"interface of 1001 objects exceeds the limit of {MAX_WIDTH}"),
             ("(par (gen e) (id 1000) (gen i))", ValueError,
              f"interface of 1001 objects exceeds the limit of {MAX_WIDTH}")]
    for src, kind, message in cases:
        for walk in (lambda t: arity(t, WIRE_SIGNATURE),
                     lambda t: evaluate(t, model)):
            with pytest.raises(kind) as caught:
                walk(parse_term(src))
            assert type(caught.value) is kind
            assert str(caught.value) == message


def test_arity_mismatch_names_the_place():
    t = parse_term("(seq (gen d) (gen m) (gen d) (gen d))")
    with pytest.raises(ArityMismatch, match=re.escape(
            "cannot compose: term 3 of a seq has codomain 2, "
            "term 4 has domain 1")):
        arity(t, WIRE_SIGNATURE)


def test_arity_mismatch_names_the_enclosing_forms():
    t = parse_term("(par (gen d) (seq (gen e) (par (id 1) "
                   "(seq (gen d) (gen m) (gen m)))))")
    with pytest.raises(ArityMismatch, match=re.escape(
            "in term 2 of a par: in term 2 of a seq: in term 2 of a par: "
            "cannot compose: term 2 of a seq has codomain 1, "
            "term 3 has domain 2")):
        arity(t, WIRE_SIGNATURE)
    # up to 8 forms around the fault are all named; past that, the
    # outermost four and the innermost four
    fault = "(seq (gen d) (gen d))"
    named = {}
    for depth in (8, 9, 10_000):
        src = fault
        for _ in range(depth):
            src = f"(seq (gen i) {src})"
        with pytest.raises(ArityMismatch) as e:
            arity(parse_term(src), WIRE_SIGNATURE)
        named[depth] = str(e.value)
    cannot = ("cannot compose: term 1 of a seq has codomain 2, "
              "term 2 has domain 1")
    assert named[8] == "in term 2 of a seq: " * 8 + cannot
    assert named[9] == ("in term 2 of a seq: " * 4 + "… 1 more forms … "
                        + "in term 2 of a seq: " * 4 + cannot)
    assert named[10_000] == ("in term 2 of a seq: " * 4
                             + "… 9992 more forms … "
                             + "in term 2 of a seq: " * 4 + cannot)


class _CountingModel(CorelModel):
    def __init__(self):
        self.calls = []

    def seq(self, *values):
        self.calls.append(("seq", [(v.m, v.n) for v in values]))
        return super().seq(*values)

    def par(self, *values):
        self.calls.append(("par", [(v.m, v.n) for v in values]))
        return super().par(*values)


def test_evaluation_hands_each_form_its_children_in_order():
    # d : 1 -> 2 and m : 2 -> 1; one call per form, with the values of all
    # its children in order, once they are done
    model = _CountingModel()
    evaluate(seq(*[Gen("d"), Gen("m")] * 3), model)
    assert model.calls == [("seq", [(1, 2), (2, 1)] * 3)]
    model = _CountingModel()
    evaluate(par(Gen("d"), Gen("e"), Gen("i"), Gen("m")), model)
    assert model.calls == [("par", [(1, 2), (1, 0), (0, 1), (2, 1)])]
    model = _CountingModel()
    evaluate(seq(par(Gen("d"), Id(0)), Seq((Gen("m"),))), model)
    assert model.calls == [("par", [(1, 2), (0, 0)]), ("seq", [(2, 1)]),
                           ("seq", [(1, 2), (2, 1)])]


MODELS = _models(QQ)


def _gens(model):
    """The signature's generators, and a few labels or scalars where its
    resolver takes them (constant ones: the field is q)."""
    sig = model.signature
    return sorted(sig.table) + [
        name for name in ("label:wire", "label:resistor:2",
                          "label:impedance:3", "scalar:2", "scalar:-1/2")
        if sig.resolver is not None and sig.resolver(name) is not None]


def _same(a, b):
    """Equal values; circuits by iso class, decided by brute force only
    while few internal nodes are left to permute."""
    if isinstance(a, LCircuit):
        legs = set(a.inputs + a.outputs)
        if a.graph.node_count - len(legs) > 6:
            return ((a.graph.node_count, a.m, a.n,
                     sorted(lab.sort_key() for *_e, lab in a.graph.edges),
                     pi0_cospan(a))
                    == (b.graph.node_count, b.m, b.n,
                        sorted(lab.sort_key() for *_e, lab in b.graph.edges),
                        pi0_cospan(b)))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY
@given(st.integers(0, 2 ** 32))
def test_one_call_per_form_equals_the_binary_fold(name, seed):
    model = MODELS[name]
    term = rand_term(random.Random(seed), model.signature, _gens(model), 3,
                     max_width=2)
    assert _same(evaluate(term, model), fold_evaluate(term, model))


def _by_arity(model):
    """The first generator name of arity 1 -> 2, 2 -> 1, 0 -> 1 and
    1 -> 0 in the model's signature."""
    table = model.signature.table
    return [min(g for g in table if table[g] == a)
            for a in ((1, 2), (2, 1), (0, 1), (1, 0))]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_wide_one_child_empty_and_closed_forms_equal_the_binary_fold(name):
    model = MODELS[name]
    co, mu, unit, counit = map(Gen, _by_arity(model))
    loop = seq(unit, counit)  # a closed loop: one extra apex in a cospan
    terms = [par(*[seq(co, mu)] * 12), par(*[co] * 7, *[mu] * 5),
             Seq((mu,)), Par((seq(co, mu),)), Seq((Par((loop,)),)),
             seq(Id(0), unit, Id(1), counit, Id(0)),
             par(Id(0), mu, Id(0), Id(0)), par(Id(0), Id(0)),
             loop, par(*[loop] * 3),
             seq(par(loop, co), mu, co, mu, counit, loop),
             seq(unit, *[co, mu] * 9, counit),
             seq(par(unit, unit), mu, counit)]
    for t in terms:
        assert _same(evaluate(t, model), fold_evaluate(t, model)), t
    if name == "cospan":
        assert evaluate(par(*[loop] * 3), model).extras == 3


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mismatch_names_the_pair_the_binary_fold_names(name):
    model = MODELS[name]
    co, mu, _unit, _counit = (model.gen(g) for g in _by_arity(model))
    for values in ([co, co, mu], [co, mu, co, co], [mu, co, mu, co, co, mu]):
        with pytest.raises(InterfaceMismatch) as folded:
            fold_value = values[0]
            for v in values[1:]:
                fold_value = fold_value.compose(v)
        with pytest.raises(InterfaceMismatch) as at_once:
            model.seq(*values)
        assert str(at_once.value) == str(folded.value)


def _endo_on(model, n, rng):
    """A random term n -> n: a random term, then merges or splits (units
    from nothing) back to its domain."""
    sig = model.signature
    co, mu, unit, _counit = map(Gen, _by_arity(model))
    layers = [rand_term_with_dom(rng, sig, _gens(model), n, 1)]
    _d, c = arity(layers[0], sig)
    while c > n:
        layers.append(par(mu, Id(c - 2)))
        c -= 1
    while c < n:
        layers.append(par(co, Id(c - 1)) if c else unit)
        c += 1
    return seq(*layers)


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY
@given(st.integers(0, 2 ** 32))
def test_shared_subterms_and_runs_equal_the_tree_fold(name, seed):
    # a shared subterm is evaluated once and a run of one child is
    # composed by squaring; the value is the binary fold's over the tree
    model, rng = MODELS[name], random.Random(seed)
    n = rng.randint(1, 2)
    x, y = _endo_on(model, n, rng), _endo_on(model, n, rng)
    runs = [x] * rng.randint(1, 9) + [y] * rng.randint(1, 9) \
        + [x] * rng.randint(1, 9)
    body = seq(*runs[:rng.randint(1, len(runs))])
    side = rand_term(rng, model.signature, _gens(model), 1, max_width=2)
    term = rng.choice([body, par(body, side, body), seq(body, body),
                       seq(par(body, x), par(x, body))])
    assert _same(evaluate(term, model), fold_evaluate(unshared(term), model))


class _LadderModel(CorelToLinRelModel):
    """Counts the generators it builds and the values of each ``seq``."""

    def __init__(self):
        super().__init__(QS)
        self.gens, self.seqs = Counter(), []

    def gen(self, name):
        self.gens[name] += 1
        return super().gen(name)

    def seq(self, *values):
        self.seqs.append(len(values))
        return super().seq(*values)


def test_ladder_sections_are_built_once_and_squared():
    section = ("(seq (par (label resistor 5) (id 1)) (par (gen d) (id 1)) "
               "(par (id 1) (label capacitor 7) (id 1)) (par (id 1) (gen m)))")
    src = "(seq " + " ".join([section] * 64) + ")"
    model = _LadderModel()
    value = evaluate(parse_term(src), model)
    assert model.gens == Counter(["label:resistor:5", "label:capacitor:7",
                                  "d", "m"])
    # the section once (4 children), then 64 = 2^6 by six squarings
    assert model.seqs == [4] + [2] * 6
    assert value == fold_evaluate(unshared(parse_term(src)),
                                  CorelToLinRelModel(QS))


def test_ill_typed_shared_subterms_fail_as_their_tree_copies():
    # the fault inside a shared subterm, or in the form around its second
    # copy, which arity does not walk again
    model = CorelModel()
    for src in ["(par (seq (gen d) (gen d)) "
                "(seq (gen i) (seq (gen d) (gen d))))",
                "(par (seq (gen d) (gen m)) "
                "(seq (gen d) (seq (gen d) (gen m))))",
                "(seq (gen d) (gen d) (gen d))",
                "(seq (par (gen d) (gen d)) (seq (gen m) (gen m) (gen m)) "
                "(seq (gen m) (gen m) (gen m)))",
                "(par (seq (gen i) (gen e)) (seq (gen e) (gen d)) "
                "(seq (seq (gen i) (gen e)) (seq (gen e) (gen d)) (gen m)))",
                "(seq (par (gen d) (id 1000)) (par (gen d) (id 1000)))"]:
        shared = parse_term(src)
        texts = []
        for t in (shared, unshared(shared)):
            for walk in (lambda t: arity(t, WIRE_SIGNATURE),
                         lambda t: evaluate(t, model)):
                with pytest.raises(ValueError) as caught:
                    walk(t)
                texts.append((type(caught.value), str(caught.value)))
        assert len(set(texts)) == 1, texts


def test_parse_errors():
    for bad in ["", "(gen m", "(seq)", "(id x)", "(frob m)", "(gen m) x"]:
        with pytest.raises(TermParseError):
            parse_term(bad)


def test_tokens_split_on_unicode_space():
    src = "(seq\u00a0(gen m)\u2003(gen\td))"
    assert parse_term(src) == seq(Gen("m"), Gen("d"))
    # the tokens are at 0 1 5 6 10 11 13 14 18 19 20
    for bad, message in [(src + "\u2003x", "trailing input at token 11"),
                         (src[:-1] + "\u00a0x)",
                          "expected '(' at position 21"),
                         ("(seq\u00a0(gen m)\u2003(frob\td))",
                          "unknown form 'frob' at position 14"),
                         ("(seq\u00a0(gen m)\u2003(id\td))",
                          "near position 14"),
                         ("(seq\u00a0(gen m)\u2003(gen\td\u2003x))",
                          "expected ')' at position 20"),
                         (" \n ", "end of input, expected '('")]:
        with pytest.raises(TermParseError, match=re.escape(message)):
            parse_term(bad)
    # the token pattern's \s is exactly str.isspace
    space = re.compile(r"\s")
    assert all(bool(space.match(chr(c))) == chr(c).isspace()
               for c in range(sys.maxunicode + 1))


def test_parse_error_positions():
    cases = [("(gen m) \u00a0x", "trailing input at token 4"),
             ("\u2003(\u2003frob m)", "unknown form 'frob' at position 3"),
             ("(id x)", "near position 1"),
             ("\u00a0\u00a0gen", "expected '(' at position 2"),
             ("(seq (gen m)\u2003(gen d) x)", "expected '(' at position 21"),
             ("(label)", "empty label at position 1")]
    for src, message in cases:
        with pytest.raises(TermParseError, match=re.escape(message)):
            parse_term(src)


def test_interchange_law():
    # (f;g) + (h;k) = (f+h);(g+k) in any model
    rng = random.Random(21)
    models = [CorelModel(), CospanModel()]
    for _ in range(40):
        f = rand_term(rng, WIRE_SIGNATURE, WIRE_GENS, 1)
        h = rand_term(rng, WIRE_SIGNATURE, WIRE_GENS, 1)
        _df, cf = arity(f, WIRE_SIGNATURE)
        _dh, ch = arity(h, WIRE_SIGNATURE)
        from helpers import rand_term_with_dom
        g = rand_term_with_dom(rng, WIRE_SIGNATURE, WIRE_GENS, cf, 1)
        k = rand_term_with_dom(rng, WIRE_SIGNATURE, WIRE_GENS, ch, 1)
        lhs = par(seq(f, g), seq(h, k))
        rhs = seq(par(f, h), par(g, k))
        for model in models:
            assert model_equal(model, lhs, rhs)


def test_symmetry_coherence():
    models = [CorelModel(), CospanModel()]
    for model in models:
        # self-inverse
        assert model_equal(model, seq(Sym(1, 2), Sym(2, 1)), Id(3))
        # hexagon-style decomposition
        assert model_equal(
            model, Sym(2, 1),
            seq(par(Id(1), Sym(1, 1)), par(Sym(1, 1), Id(1))))
        # naturality of the braiding on a generator
        assert model_equal(
            model,
            seq(par(Gen("m"), Id(1)), Sym(1, 1)),
            seq(Sym(2, 1), par(Id(1), Gen("m"))))


def test_evaluate_units():
    model = CorelModel()
    assert evaluate(Id(0), model) == model.identity(0)
    assert model_equal(model, par(Id(0), Gen("m")), Gen("m"))
    assert model_equal(model, seq(Id(2), Gen("m"), Id(1)), Gen("m"))


@pytest.mark.parametrize("field", [QQ, QS], ids=["QQ", "QS"])
def test_identity_is_the_empty_symmetry(field):
    for n in range(6):
        wires = [(("x", i), ("y", i)) for i in range(n)]
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        diagonal = [[field.one if k in (i, n + i) else field.zero
                     for k in range(2 * n)] for i in range(n)]
        expected = {
            Corelation: Corelation(n, n, wires),
            Cospan: Cospan(n, n, wires),
            NatSpan: NatSpan(n, n, unit),
            BoolRel: BoolRel(n, n, unit),
            LCircuit: LCircuit(LGraph(n, []), range(n), range(n)),
        }
        for carrier, ident in expected.items():
            assert carrier.identity(n) == carrier.symmetry(0, n) == ident
            assert type(carrier.identity(n)) is carrier
        lin = from_vectors(field, n, n, diagonal)
        assert LinRel.identity(field, n).space.basis == lin.space.basis
        assert LinRel.symmetry(field, 0, n).space.basis == lin.space.basis
        assert AffRel.identity(field, n).hspace.basis == \
            AffRel.symmetry(field, 0, n).hspace.basis == \
            AffRel.from_linrel(lin).hspace.basis
