"""Tests of the benchmark itself: inputs, checker, tracer and a smoke run.

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def engine():
    return run.import_engine()


def _written(items, directory):
    inputs.write_items(items, str(directory))
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_depend_on_seed_only(workload, tmp_path):
    first = _written(inputs.make_items(workload, 7), tmp_path / "a")
    again = _written(inputs.make_items(workload, 7), tmp_path / "b")
    other = _written(inputs.make_items(workload, 8), tmp_path / "c")
    assert first == again
    assert first != other


def test_term_circuit_matches_engine(engine):
    from propnet.circuit import CircuitModel, circuit_from_json
    from propnet.term import evaluate, parse_term

    for item in inputs.make_items("blackbox_qs", 3):
        if item["kind"] == "random_json":
            ours = circuit_from_json(item["circuit"])
            theirs = evaluate(parse_term(item["term"]), CircuitModel())
            assert ours == theirs


def test_self_times_on_hand_built_tree():
    # root 0..10 with overlapping children 1..3 and 2..4, a child 6..7
    # that has its own child 6.5..7, and 0.5 s of scalar work directly
    # under the root
    spans = [
        ("root", 0.0, 10.0, -1, 0, 0.5),
        ("a", 1.0, 3.0, 0, 0, 0.0),
        ("b", 2.0, 4.0, 0, 0, 0.25),
        ("c", 6.0, 7.0, 0, 0, 0.0),
        ("d", 6.5, 7.0, 3, 0, 0.0),
    ]
    assert tracing.self_times(spans) == [5.5, 2.0, 1.75, 0.5, 0.5]


def test_loglog_slope():
    assert tracing.loglog_slope([(2, 8), (4, 64), (8, 512)]) == \
        pytest.approx(3.0)


def _main(engine, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = engine.cli.main(argv)
    return rc, out.getvalue()


def _ladder_rel(sections, values):
    from propnet.linrel import CorelToLinRelModel
    from propnet.scalar import QS
    from propnet.term import evaluate, parse_term

    return evaluate(parse_term(inputs.ladder_sexpr(sections, values)),
                    CorelToLinRelModel(QS))


@pytest.mark.parametrize("sections,values", [(1, ["2", "3"]),
                                              (3, ["4", "7", "5"])])
def test_ladder_check_accepts_right_and_rejects_corrupted(
        engine, sections, values):
    from propnet.exactla import Subspace
    from propnet.linrel import LinRel
    from propnet.scalar import QS

    item = {"sections": sections, "values": values}
    rel = _ladder_rel(sections, values)
    assert check.check_ladder(item, (0, rel)) is None
    basis = [list(v) for v in rel.space.basis]
    basis[1][5] = basis[1][5] + QS.one
    corrupted = LinRel(4, 4, Subspace(QS, 8, basis))
    assert corrupted != rel
    assert check.check_ladder(item, (0, corrupted)) is not None
    other = dict(item, values=[values[0], "9"] + values[2:])
    assert check.check_ladder(other, (0, rel)) is not None


@pytest.mark.xfail(strict=True, reason=(
    "format_linear_combination strips only the leading minus sign of a "
    "negated polynomial coefficient, so -6*s - 1 prints as - (6*s - 1)"))
def test_printed_ladder_relation_reads_back(engine):
    from propnet.linrel import format_linrel, parse_linrel

    rel = _ladder_rel(2, ["3", "5"])
    assert parse_linrel(format_linrel(rel), 2, 2) == rel


@pytest.mark.xfail(strict=True, raises=RecursionError, reason=(
    "term parsing and evaluation recurse once per generator, so a chain "
    "past the recursion limit escapes propnet eval as RecursionError"))
def test_deep_chain_evaluates(engine):
    names = inputs.chain_term(random.Random(0), 1200)
    item = {"kind": "chain", "gens": names}
    term = "(seq " + " ".join(f"(gen {g})" for g in names) + ")"
    res = _main(engine, ["eval", "--model", "corel", "--field", "q",
                         "--term", term])
    assert check.check(item, res) is None


def test_law_check_rejects_wrong_verdict(engine):
    item = {"kind": "laws", "suite": "fincospan"}
    rc, out = _main(engine, ["laws", "fincospan", "--field", "q"])
    assert check.check(item, (rc, out)) is None
    flipped = out.replace("assoc: PASS", "assoc: FAIL (expected)", 1)
    assert check.check(item, (rc, flipped)) is not None
    assert check.check(item, (rc, out.replace(
        "extra: FAIL (expected)", "extra: PASS"))) is not None


def test_unreadable_output_is_a_failure_not_a_crash():
    items = [{"id": 0, "kind": "laws", "suite": "fincorel"},
             {"id": 1, "kind": "chain", "gens": ["d", "m"]},
             {"id": 2, "kind": "chain", "gens": ["d", "m"]}]
    results = {0: (0, "garbage\n" * 12), 1: (0, "garbage"),
               2: ("raised", "RecursionError")}
    bad = run.verify(items, results)
    assert bad[0].startswith("unreadable output")
    assert bad[1].startswith("unreadable output")
    assert bad[2] == "raised RecursionError"


def test_chain_check(engine):
    names = ["d", "m", "e", "i", "d"]
    term = "(seq " + " ".join(f"(gen {g})" for g in names) + ")"
    item = {"kind": "chain", "gens": names}
    res = _main(engine, ["eval", "--model", "corel", "--field", "q",
                         "--term", term])
    assert check.check(item, res) is None
    assert res[1].strip() == "corel 1 2 { {x1} {y1 y2} }"
    assert check.check(item, (0, "corel 1 2 { {x1 y1 y2} }")) is not None


def test_affine_and_random_circuit_checks(engine, tmp_path):
    items = inputs.make_items("audit_q", 5) + inputs.make_items(
        "blackbox_qs", 5)
    affine = [it for it in items if it["kind"] == "affine"][:8]
    for item in affine:
        rc, basis = run.execute(engine, item, None)
        assert check.check(item, (rc, basis)) is None
        if basis:
            assert check.check(item, (rc, basis[1:])) is not None
    rand = [it for it in items if it["kind"] == "random_json"]
    inputs.write_items(rand, str(tmp_path))
    picked = ([it for it in rand if not it["source"]][:2]
              + [it for it in rand if it["source"]][:2])
    outputs = [run.execute(engine, item, str(tmp_path)) for item in picked]
    for k, (item, res) in enumerate(zip(picked, outputs)):
        assert check.check(item, res) is None
        wrong = outputs[(k + 1) % len(outputs)]
        assert check.check(item, wrong) is not None


def test_tracer_rebinds_every_import_and_restores(engine):
    import propnet.afflag
    import propnet.cli
    import propnet.exactla
    import propnet.linrel
    import propnet.scalar

    kernel = propnet.exactla.kernel
    init = vars(propnet.scalar.RatFunc)["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        wrapped = propnet.exactla.kernel
        assert wrapped is not kernel
        assert propnet.linrel.kernel is wrapped
        assert propnet.afflag.kernel is wrapped
        assert propnet.cli.blackbox is propnet.linrel.blackbox
        assert vars(propnet.scalar.RatFunc)["__init__"] is not init
    finally:
        tracer.uninstall()
    assert propnet.linrel.kernel is kernel
    assert propnet.afflag.kernel is kernel
    assert vars(propnet.scalar.RatFunc)["__init__"] is init


def _names(section):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds",
                   "0.01", "--trace", str(trace), "--smoke"])
    out, err = capsys.readouterr()
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == _names(section)
    assert "layer check" not in err
    if trace and workload == "audit_q":
        assert result["metrics"]["scalar.ratfunc.count"]["value"] == 0
    if trace and workload == "blackbox_qs":
        assert result["metrics"]["linrel.compose.count"]["value"] == 0
