import contextlib
import io
import json
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from propnet.circuit import MAX_NODES, circuit_from_json
from propnet.cli import SUITES, _models, build_parser, main
from propnet.afflag import format_affrel, vsource_rel
from propnet.linrel import format_linrel, impedance_rel, parse_linrel
from propnet.scalar import FIELDS, MAX_NESTING, QQ, QS
from propnet.term import (MAX_WIDTH, Gen, Id, Sym, arity, model_equal, par,
                          seq)

from helpers import contains
from test_cli_golden import CIRCUITS, EQ_PAIRS, TERMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_circuit(tmp_path, data, name="circuit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_blackbox_series(tmp_path, capsys):
    path = write_circuit(tmp_path, {
        "nodes": 3,
        "edges": [
            {"src": 0, "tgt": 1, "label": {"kind": "resistor", "value": "2"}},
            {"src": 1, "tgt": 2, "label": {"kind": "resistor", "value": "3"}},
        ],
        "inputs": [0], "outputs": [2],
    })
    code, out, _err = run(capsys, "blackbox", "--circuit", path)
    assert code == 0
    rel = parse_linrel(out, 1, 1, QS)
    five = QS.coerce(5)
    assert contains(rel.space, [QS.zero, QS.one, five, QS.one])


def test_blackbox_with_source(tmp_path, capsys):
    path = write_circuit(tmp_path, {
        "nodes": 2,
        "edges": [
            {"src": 0, "tgt": 1, "label": {"kind": "vsource", "value": "2"}},
        ],
        "inputs": [0], "outputs": [1],
    })
    code, out, _err = run(capsys, "blackbox", "--circuit", path)
    assert code == 0
    assert "= 0" in out and any(line.strip().endswith(("2", "-2"))
                                for line in out.splitlines())


def test_blackbox_of_the_longest_chain(tmp_path, capsys):
    resistor = {"kind": "resistor", "value": "1"}
    path = write_circuit(tmp_path, {
        "nodes": MAX_NODES,
        "edges": [{"src": k, "tgt": k + 1, "label": resistor}
                  for k in range(MAX_NODES - 1)],
        "inputs": [0], "outputs": [MAX_NODES - 1],
    })
    start = time.process_time()
    code, out, _err = run(capsys, "blackbox", "--field", "q",
                          "--circuit", path)
    took = time.process_time() - start
    assert code == 0
    assert parse_linrel(out, 1, 1, QQ) == \
        impedance_rel(QQ, QQ.coerce(MAX_NODES - 1))
    assert took < 5


def test_eval_corel(capsys):
    code, out, _err = run(capsys, "eval", "--model", "corel",
                          "--term", "(seq (gen d) (gen m))")
    assert code == 0
    assert out.strip() == "corel 1 1 { {x1 y1} }"


@pytest.mark.parametrize("model, term, printed", [
    ("cospan", "(seq (gen i) (gen e))", "Cospan('corel 0 0 { }', extras=1)"),
    ("cospan", "(par (sym 1 1) (gen i))",
     "Cospan('corel 2 3 { {x1 y2} {x2 y1} {y3} }', extras=0)"),
    ("natspan", "(seq (gen d) (gen m))", "NatSpan(1->1, ((2,),))"),
    ("natspan", "(par (sym 1 1) (gen i))",
     "NatSpan(2->3, ((0, 1), (1, 0), (0, 0)))"),
    ("natspan", "(seq (gen i) (gen e))", "NatSpan(0->0, ())"),
    ("boolrel", "(seq (gen d) (gen m))", "BoolRel(1->1, ((True,),))"),
    ("boolrel", "(par (sym 1 1) (gen i))",
     "BoolRel(2->3, ((False, True), (True, False), (False, False)))"),
    ("boolrel", "(seq (gen e) (gen i))", "BoolRel(1->1, ((False,),))"),
])
def test_eval_set_props_stdout(capsys, model, term, printed):
    # a cospan prints with its extras, never as the corelation under it
    code, out, _err = run(capsys, "eval", "--model", model, "--term", term)
    assert code == 0
    assert out == printed + "\n"


def test_eval_linrel_field_q(capsys):
    code, out, _err = run(capsys, "eval", "--model", "linrel", "--field", "q",
                          "--term", "(label resistor 2)")
    assert code == 0
    rel = parse_linrel(out, 1, 1)
    assert rel.space.dim == 2


def test_qs_constants_print_as_constant_polynomials(tmp_path, capsys):
    """A constant of q(s) is stored as a rational but printed as the
    constant polynomial, a fraction bracketed: a right side reads
    -(13/5) over q(s) and -13/5 over q.  A coefficient reads the same
    over both."""
    path = write_circuit(tmp_path, {
        "nodes": 2,
        "edges": [{"src": 0, "tgt": 1,
                   "label": {"kind": "vsource", "value": "13/5"}}],
        "inputs": [0], "outputs": [1],
    })
    for field, rhs, two_thirds in ((QS, "-(13/5)", "(2/3)"),
                                   (QQ, "-13/5", "2/3")):
        assert format_linrel(impedance_rel(field, field.parse("-13/5"))) == \
            "phi_in_1 - phi_out_1 - (13/5)*I_out_1 = 0\nI_in_1 - I_out_1 = 0"
        source = f"phi_in_1 - phi_out_1 = {rhs}\nI_in_1 - I_out_1 = 0"
        assert format_affrel(vsource_rel(field, field.parse("13/5"))) == \
            source
        args = ("--field", field.name)
        assert run(capsys, "blackbox", "--circuit", path, *args) == \
            (0, source + "\n", "")
        assert run(capsys, "eval", "--model", "sigflow", "--term",
                   "(scalar 2/3)", *args) == (0, "x1 - (3/2)*y1 = 0\n", "")
        assert run(capsys, "eq", "--model", "sigflow", "--term",
                   "(scalar 2/3)", "--term", "(scalar -1/3)", *args) == \
            (1, f"DIFFER\nvector (1, {two_thirds}) in first only\n", "")


def test_constant_labels_over_q(tmp_path, capsys):
    # impedance and source values are read as rational functions; over q a
    # constant one is its rational number, any other one exits 2
    args = ("eval", "--model", "linrel", "--field", "q", "--term")
    code, impedance, _err = run(capsys, *args, "(label impedance 2)")
    assert code == 0
    assert (0, impedance) == run(capsys, *args, "(label resistor 2)")[:2]
    code, _out, err = run(capsys, *args, "(label impedance s)")
    assert code == 2 and "q(s)" in err
    path = write_circuit(tmp_path, {
        "nodes": 3,
        "edges": [
            {"src": 0, "tgt": 1, "label": {"kind": "vsource", "value": "5"}},
            {"src": 1, "tgt": 2, "label": {"kind": "resistor", "value": "2"}},
            {"src": 2, "tgt": 0, "label": {"kind": "isource", "value": "3"}},
        ],
        "inputs": [0], "outputs": [2],
    })
    printed = [run(capsys, "blackbox", "--field", field, "--circuit", path)
               for field in ("q", "qs")]
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and "= -11" in printed[0][1]


def test_eval_term_from_file(tmp_path, capsys):
    path = tmp_path / "term.txt"
    path.write_text("(par (gen i) (gen i))")
    code, out, _err = run(capsys, "eval", "--model", "corel",
                          "--term", str(path))
    assert code == 0
    assert out.strip() == "corel 0 2 { {y1} {y2} }"


def test_eq_equal_and_differ(capsys):
    code, out, _err = run(capsys, "eq", "--model", "sigflow",
                          "--term", "(seq (scalar 2) (scalar 3))",
                          "--term", "(scalar 6)")
    assert code == 0 and out.strip() == "EQUAL"
    code, out, _err = run(capsys, "eq", "--model", "sigflow",
                          "--term", "(scalar 2)", "--term", "(scalar 3)")
    assert code == 1
    assert out.splitlines()[0] == "DIFFER"
    assert "vector" in out
    # the first relation is a proper subspace of the second
    code, out, _err = run(capsys, "eq", "--model", "sigflow",
                          "--term", "(seq (gen del) (gen zero))",
                          "--term", "(seq (gen del) (gen codel))")
    assert code == 1 and out == "DIFFER\nvector (0, 1) in second only\n"
    code, out, _err = run(capsys, "eq", "--model", "sigflow",
                          "--term", "(gen dup)", "--term", "(gen add)")
    assert code == 1 and out == "DIFFER\ninterface 1->2 vs 2->1\n"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_eq_calls_see_only_their_own_terms(capsys):
    # the parser is reused, so an ``append`` list must not carry over
    for a, b in (("(gen a)", "(gen b)"), ("(gen c)", "(gen d)")):
        args = build_parser().parse_args(["eq", "--model", "corel",
                                          "--term", a, "--term", b])
        assert args.term == [a, b]
    code, out, _err = run(capsys, "eq", "--model", "corel",
                          "--term", "(seq (gen d) (gen m))",
                          "--term", "(id 1)")
    assert code == 0 and out == "EQUAL\n"
    code, out, _err = run(capsys, "eq", "--model", "corel",
                          "--term", "(gen m)", "--term", "(gen m)")
    assert code == 0 and out == "EQUAL\n"


def test_usage_error_then_valid_call(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--term", "(gen m)"])
    assert exc.value.code == 2
    assert "--model" in capsys.readouterr().err
    code, out, err = run(capsys, "eval", "--model", "corel",
                         "--term", "(seq (gen d) (gen m))")
    assert (code, out, err) == (0, "corel 1 1 { {x1 y1} }\n", "")


def test_laws_suites_all_expected(capsys):
    for suite in sorted(SUITES):
        code, out, _err = run(capsys, "laws", suite, "--field", "q"
                              if suite != "finrelk" else "qs")
        assert code == 0, (suite, out)
        assert "FAIL" not in out.replace("FAIL (expected)", "")


def test_laws_exit_1_on_an_unexpected_verdict(capsys, monkeypatch):
    # fincospan's extra law fails as expected; expecting it to hold
    model, laws, _failing = SUITES["fincospan"]
    monkeypatch.setitem(SUITES, "fincospan", (model, laws, ()))
    code, out, _err = run(capsys, "laws", "fincospan", "--field", "q")
    assert code == 1 and "\nextra: FAIL\n" in out


def test_laws_alpha_and_square(capsys):
    code, out, _err = run(capsys, "laws", "alpha", "--field", "q")
    assert code == 0
    assert "absorption_1d: FAIL (expected)" in out
    code, out, _err = run(capsys, "laws", "square")
    assert code == 0
    assert "parallel: PASS" in out


def test_alpha_and_square_commands(capsys):
    code, out, _err = run(capsys, "alpha", "--term", "(gen 1j)",
                          "--field", "q")
    assert code == 0 and out.strip() == "PASS"
    code, out, _err = run(capsys, "alpha", "--field", "q", "--term",
                          "(seq (gen 0d) (gen 1j))")
    assert code == 1 and out.strip() == "FAIL"
    code, out, _err = run(capsys, "square", "--term",
                          "(seq (label resistor 2) (label inductor 1))")
    assert code == 0 and out.strip() == "PASS"


@pytest.mark.parametrize("command, term", [
    ("alpha", "(seq (gen 1d) (gen 1j))"),
    ("square", "(seq (label resistor 2) (gen d) (gen m))"),
])
def test_checks_walk_arity_once_per_term(capsys, monkeypatch, command,
                                         term):
    """Only ``evaluate`` walks arity, once per term it evaluates: alpha
    evaluates t under G and F, square t as a circuit and its translation,
    so each walks it twice."""
    walks = []

    def counted(*args, **kwargs):
        walks.append(args[0])
        return arity(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("propnet") and \
                getattr(module, "arity", None) is arity:
            monkeypatch.setattr(module, "arity", counted)
    code, out, _err = run(capsys, command, "--term", term, "--field", "qs")
    assert (code, out) == (0, "PASS\n")
    assert len(walks) == 2


def test_error_paths(capsys):
    code, _out, err = run(capsys, "eval", "--model", "nosuch",
                          "--term", "(gen m)")
    assert code == 2 and "error" in err
    code, _out, err = run(capsys, "eval", "--model", "corel",
                          "--term", "(gen m")
    assert code == 2 and "error" in err
    code, _out, err = run(capsys, "laws", "nosuch")
    assert code == 2 and "error" in err
    code, _out, err = run(capsys, "blackbox", "--circuit", "/nonexistent.json")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("model, term, name", [
    ("sigflow", "(seq (gen i) (seq (label inductor 4) (id 1)))", "i"),
    ("sigflow", "(gen frob)", "frob"),
    ("corel", "(gen frob)", "frob"),
    ("linrel", "(seq (gen m) (gen frob))", "frob")])
def test_unknown_generator_is_named(capsys, model, term, name):
    code, out, err = run(capsys, "eval", "--model", model, "--term", term)
    assert code == 2 and out == ""
    assert err == f"propnet: error: unknown generator {name!r}\n"


def test_arithmetic_errors_exit_2(capsys):
    code, _out, err = run(capsys, "eval", "--model", "sigflow", "--field",
                          "q", "--term", "(scalar 1/0)")
    assert code == 2 and err.startswith("propnet: error:")
    code, _out, err = run(capsys, "eval", "--model", "sigflow", "--term",
                          "(scalar 0^-1)")
    assert code == 2 and err.startswith("propnet: error:")


@pytest.mark.parametrize("model, term, message", [
    ("corel", "(id ²)", "expected a natural number near position 1"),
    ("corel", "(id ٣)", "expected a natural number near position 1"),
    ("sigflow", "(scalar s^²)", "expected integer at position 2"),
    ("sigflow", "(scalar s^٣)", "expected integer at position 2"),
    ("sigflow", "(scalar ٣)", "unexpected character '٣' at position 0"),
    ("linrel", "(label resistor 2+)", "unexpected end of input at position 2"),
    ("sigflow", "(scalar 2*)", "unexpected end of input at position 2")])
def test_only_ascii_digits_are_numbers(capsys, model, term, message):
    # str.isdigit passes superscripts, which int() refuses, and digits of
    # other scripts, which int() reads
    code, out, err = run(capsys, "eval", "--model", model, "--term", term)
    assert code == 2 and out == ""
    assert err == f"propnet: error: {message}\n"


def test_scalar_exponent_limit_exits_2(capsys):
    code, _out, err = run(capsys, "eval", "--model", "sigflow", "--term",
                          "(scalar s^100000)")
    assert code == 2 and "exponent" in err
    code, out, _err = run(capsys, "eval", "--model", "sigflow", "--term",
                          "(scalar s^2)")
    assert code == 0 and "s^2" in out


def test_printed_relation_reparses(capsys):
    code, out, _err = run(capsys, "eval", "--model", "linrel",
                          "--term", "(label capacitor 2)")
    assert code == 0
    rel = parse_linrel(out, 1, 1, QS)
    s = QS.parse("s")
    two = QS.coerce(2)
    # I = 2s (phi2 - phi1)
    assert contains(rel.space, [QS.zero, two * s, QS.one, two * s])


def test_nested_power_limit_exits_2(tmp_path, capsys):
    # label values hold brackets, in circuit files and in term literals
    path = write_circuit(tmp_path, {
        "nodes": 2, "inputs": [0], "outputs": [1],
        "edges": [{"src": 0, "tgt": 1, "label": {
            "kind": "impedance", "value": "((s+1)^30)^100"}}]})
    code, _out, err = run(capsys, "blackbox", "--circuit", path)
    assert code == 2 and "degree" in err
    code, _out, err = run(capsys, "eval", "--model", "linrel", "--term",
                          "(label impedance ((s+1)^30)^100)")
    assert code == 2 and "degree" in err


@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "s" + ")" * k,
    lambda k: "-" * k + "s",
    lambda k: "-" * (k % 2) + "-(" * (k // 2) + "s" + ")" * (k // 2)],
    ids=["brackets", "minus", "mixed"])
def test_scalar_nesting_limit_exits_2(tmp_path, capsys, nest):
    # in a term literal and in a circuit file's label value
    for depth, status in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        lit = nest(depth)
        code, _out, err = run(capsys, "eval", "--model", "sigflow",
                              "--term", f"(scalar {lit})")
        assert code == status and (status == 0 or "nests deeper" in err)
        path = write_circuit(tmp_path, {
            "nodes": 2, "inputs": [0], "outputs": [1],
            "edges": [{"src": 0, "tgt": 1, "label": {
                "kind": "impedance", "value": lit}}]})
        code, _out, err = run(capsys, "blackbox", "--circuit", path)
        assert code == status and (status == 0 or "nests deeper" in err)


def test_deeply_nested_circuit_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "blackbox", "--circuit", str(path))
    assert code == 2 and out == ""
    assert err == "propnet: error: circuit JSON is nested too deeply\n"


WIDE = f"(id {MAX_WIDTH + 1})"


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "corel", "--term", WIDE],
    ["eval", "--model", "corel", "--term", "(id 99999999999)"],
    ["eval", "--model", "linrel", "--term",
     f"(par (id {MAX_WIDTH}) (gen i))"],
    ["eval", "--model", "cospan", "--term", f"(sym {MAX_WIDTH} 1)"],
    ["eq", "--model", "corel", "--term", "(id 1)", "--term", WIDE],
    ["alpha", "--term", WIDE],
    ["square", "--term", WIDE]])
def test_term_width_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("propnet: error:") and "limit" in err


def test_size_limits_are_inclusive(capsys):
    code, out, _err = run(capsys, "eval", "--model", "corel", "--term",
                          f"(id {MAX_WIDTH})")
    assert code == 0 and out.count("x") == MAX_WIDTH
    assert circuit_from_json({"nodes": MAX_NODES}).graph.node_count == \
        MAX_NODES


def test_wide_forms_evaluate(capsys):
    pairs = "(gen d) (gen m) " * 50_000
    code, out, _err = run(capsys, "eval", "--model", "corel", "--field", "q",
                          "--term", f"(seq {pairs})")
    assert code == 0 and out == "corel 1 1 { {x1 y1} }\n"
    units = "(seq (gen i) (gen e)) " * 100_000
    code, out, _err = run(capsys, "eval", "--model", "corel", "--field", "q",
                          "--term", f"(par {units})")
    assert code == 0 and out == "corel 0 0 { }\n"


def test_long_ill_typed_chain_exits_2(capsys):
    gens = "(gen d) (gen m) " * 250 + "(gen m)"
    code, out, err = run(capsys, "eval", "--model", "corel", "--field", "q",
                         "--term", f"(seq {gens})")
    assert code == 2 and out == ""
    assert err.startswith("propnet: error: cannot compose") and len(err) < 200


def chain(gens):
    """The left-nested binary chain an older printer wrote for ``gens``
    generators, one ``seq`` per generator after the first."""
    src = "(gen d)"
    for k in range(gens - 1):
        src = f"(seq {src} (gen {'md'[k % 2]}))"
    return src


def test_deep_ill_typed_chain_has_a_short_message(capsys):
    # the innermost of 10,000 seq forms is ill-typed; only the outermost
    # and innermost four forms around it are named
    src = "(seq (gen m) (gen m))"
    for k in range(9_999):
        src = f"(seq {src} (gen {'md'[k % 2]}))"
    code, out, err = run(capsys, "eval", "--model", "corel", "--field", "q",
                         "--term", src)
    assert code == 2 and out == ""
    assert "… 9991 more forms …" in err and len(err) < 1_000


def test_deep_nesting_evaluates(capsys):
    # nested past the recursion limit; ``square`` stays shallower to keep
    # the suite quick, as it also translates and black-boxes the term
    code, out, _err = run(capsys, "eval", "--model", "corel", "--field", "q",
                          "--term", chain(10_000))
    assert code == 0 and out == "corel 1 1 { {x1 y1} }\n"
    code, out, _err = run(capsys, "square", "--field", "q",
                          "--term", chain(1_200))
    assert code == 0 and out == "PASS\n"


MALFORMED_CIRCUITS = [
    ([], "JSON object"),
    ({"nodes": -1}, "negative"),
    ({"nodes": "3"}, "'nodes'"),
    ({"edges": []}, "'nodes'"),
    ({"nodes": 2, "inputs": [0, None]}, "'inputs'"),
    ({"nodes": 2, "outputs": "01"}, "'outputs'"),
    ({"nodes": 2, "edges": {}}, "'edges'"),
    ({"nodes": 2, "edges": [3]}, "'edges'"),
    ({"nodes": 2, "edges": [{"src": 0, "tgt": 1, "label": "resistor"}]},
     "label"),
    ({"nodes": 2, "edges": [{"src": 0, "tgt": 1,
                             "label": {"kind": "resistor", "value": 5}}]},
     "label"),
    ({"nodes": 2, "edges": [{"src": 0, "tgt": 1, "label": {"value": "5"}}]},
     "label"),
    ({"nodes": 2, "edges": [{"src": "0", "tgt": 1,
                             "label": {"kind": "wire"}}]}, "'src'"),
    ({"nodes": 2, "edges": [{"tgt": 1, "label": {"kind": "wire"}}]},
     "'src'"),
    ({"nodes": 2, "edges": [{"src": 0, "tgt": 2,
                             "label": {"kind": "wire"}}]}, "out of range"),
    ({"nodes": 2, "inputs": [2]}, "out of range"),
    ({"nodes": MAX_NODES + 1}, "limit"),
]


@pytest.mark.parametrize("data,message", MALFORMED_CIRCUITS)
def test_malformed_circuit_exits_2(tmp_path, capsys, data, message):
    path = write_circuit(tmp_path, data)
    code, out, err = run(capsys, "blackbox", "--circuit", path)
    assert code == 2 and out == ""
    assert err.startswith("propnet: error:") and message in err


def test_wellformed_circuit_variants(tmp_path, capsys):
    # a null value on a wire, and missing legs, are accepted
    path = write_circuit(tmp_path, {
        "nodes": 2, "edges": [{"src": 0, "tgt": 1,
                               "label": {"kind": "wire", "value": None}}]})
    code, out, _err = run(capsys, "blackbox", "--circuit", path)
    assert code == 0 and out.strip() == "(no constraints)"


GENERATORS = {"circuit": "m", "corel": "m", "cospan": "m", "natspan": "m",
              "boolrel": "m", "linrel": "m", "sigflow": "add",
              "bondgraph-f": "1j", "bondgraph-g": "1j"}


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_every_model_is_a_symmetric_monoidal_functor(field):
    models = _models(FIELDS[field])
    assert sorted(models) == sorted(GENERATORS)
    for name, model in models.items():
        g = Gen(GENERATORS[name])
        assert model_equal(model, seq(Sym(1, 1), Sym(1, 1)), Id(2)), name
        assert model_equal(model, seq(Sym(1, 2), Sym(2, 1)), Id(3)), name
        assert model_equal(model, par(Id(0), g), g), name
        assert model_equal(model, par(g, Id(0)), g), name
        assert model_equal(model, seq(Id(2), g), g), name


# ---------------------------------------------------------------------------
# hostile input: whatever the text, the CLI exits 0, 1 or 2, and with 2 it
# prints one error line; circuits stay within 6 nodes, since elimination
# work has no limit of its own

HOSTILE = settings(derandomize=True, max_examples=300, database=None,
                   deadline=timedelta(seconds=10),
                   suppress_health_check=[HealthCheck.too_slow])

# what an edit puts in: brackets, tokens, NUL, non-ASCII digits and letters,
# operators and long numbers
_PIECES = st.sampled_from([
    "(", ")", "()", " ", "\x00", "\n", "\t", "²", "٣", "é", "\u2212", "-",
    "/", "^", "*", "+", ".", "s", "0", "1", "-1", "1000", "9" * 40, "gen",
    "seq", "par", "id", "sym", "label", "scalar", "m", "add", "1j",
    "resistor", "isource", "vsource", "inductor"])

LITERALS = ["2", "-1/3", "0", "(s + 1)/(s - 2)", "s^2 - 1", "1/0", "0^-1",
            "2^10", "(1/2)*s"]


@st.composite
def mutated(draw, text):
    """``text`` after up to three bracket, token, span or byte edits."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["bracket", "token", "span", "byte"]))
        if edit == "bracket":
            text = text[:i] + draw(st.sampled_from("()")) + text[i:]
        elif edit == "token":
            tokens = text.split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(_PIECES)
            text = " ".join(tokens)
        elif edit == "span":
            text = text[:i] + text[i + draw(st.integers(1, 6)):]
        else:
            data = bytearray(text.encode("utf-8", "surrogateescape"))
            if data:
                data[min(i, len(data) - 1)] = draw(st.integers(0, 255))
            text = data.decode("utf-8", "surrogateescape")
    return text


_LITERAL = (st.sampled_from(LITERALS).flatmap(mutated)
            | st.text("0123456789s+-*/^() .²٣\x00e", max_size=12))
_TERM = (st.sampled_from(TERMS + [t for pair in EQ_PAIRS for t in pair])
         .flatmap(mutated)
         | st.builds("({} {})".format,
                     st.sampled_from(["scalar", "label resistor",
                                      "label impedance", "label isource"]),
                     _LITERAL))
_FIELD = st.sampled_from(sorted(FIELDS))


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("propnet: error:") and \
            err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "", argv


@HOSTILE
@given(st.data())
def test_hostile_terms_exit_cleanly(data):
    field = data.draw(_FIELD)
    command = data.draw(st.sampled_from(["eval", "eq", "square", "alpha"]))
    terms = [data.draw(_TERM) for _ in range(2 if command == "eq" else 1)]
    argv = [command, *(f"--term={t}" for t in terms), "--field", field]
    if command in ("eval", "eq"):
        argv += ["--model", data.draw(st.sampled_from(sorted(_models(QQ))))]
    assert_clean_exit(argv)


_KEYS = ["nodes", "edges", "inputs", "outputs", "src", "tgt", "label",
         "kind", "value"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | _LITERAL
    | st.sampled_from(["wire", "resistor", "vsource", "isource",
                       "capacitor", "nosuch"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=6)


@st.composite
def malformed_circuits(draw):
    """A circuit's JSON text with one value swapped, a key dropped, or
    its text edited."""
    data = json.loads(json.dumps(CIRCUITS[draw(st.sampled_from(
        sorted(CIRCUITS)))]))
    edit = draw(st.sampled_from(["swap", "drop", "text"]))
    parent, key = data, draw(st.sampled_from(sorted(data)))
    while isinstance(parent[key], (dict, list)) and parent[key] \
            and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    if edit == "swap":
        parent[key] = draw(_JSON)
    elif edit == "drop":
        del parent[key]
    text = json.dumps(data)
    if edit == "text":
        text = draw(mutated(text))
    try:
        nodes = json.loads(text).get("nodes")
    except (ValueError, AttributeError):
        nodes = None
    assume(not isinstance(nodes, int) or nodes <= 6)
    return text


@pytest.fixture(scope="module")
def circuit_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "circuit.json"


@HOSTILE
@given(text=malformed_circuits(), field=_FIELD)
def test_malformed_circuit_json_exits_cleanly(circuit_path, text, field):
    circuit_path.write_text(text, encoding="utf-8", errors="surrogateescape")
    assert_clean_exit(["blackbox", "--circuit", str(circuit_path),
                       "--field", field])
