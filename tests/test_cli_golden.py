"""Golden CLI outputs: every case of ``cli_golden.json`` replayed in
process, comparing stdout, stderr and the exit code byte for byte.

The corpus covers ``laws`` on every suite at both fields, ``eval`` and
``eq`` in every model, ``square`` and ``alpha`` on the same terms, and
``blackbox`` on a few circuits.  Regenerate it, only when an output is
meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

from propnet.cli import CHECK_SUITES, SUITES, _models, main
from propnet.scalar import FIELDS

CORPUS = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

TERMS = [
    "(gen m)",
    "(seq (gen d) (gen m))",
    "(par (id 1) (sym 1 1))",
    "(seq (id 2) (sym 1 1) (sym 1 1))",
    "(seq (gen i) (gen e))",
    "(seq (gen d) (par (label resistor 2) (label capacitor 3)) (gen m))",
    "(seq (label inductor 2) (label impedance (s + 1)/(s - 2)))",
    "(seq (gen 1d) (gen 0j))",
    "(seq (gen 0d) (gen 1j))",
    "(par (gen 1u) (gen 0e) (gen 0j))",
    "(seq (gen dup) (gen add) (scalar 2/3))",
    "(seq (gen coadd) (gen codup) (gen del))",
    "(label vsource 5)",
    "(seq (gen m) (gen m))",
    "(seq (gen 1j) (gen 0j))",
    "(seq (gen add) (gen codel))",
    "(gen nosuch)",
    "(scalar 1/0)",
    "(seq (gen d)",
]

# pairs that are equal in some model and pairs that differ
EQ_PAIRS = [
    ("(seq (gen d) (gen m))", "(id 1)"),
    ("(seq (gen i) (gen d))", "(seq (gen i) (gen d) (sym 1 1))"),
    ("(seq (label resistor 2) (label resistor 3))", "(label resistor 5)"),
    ("(label resistor 2)", "(label capacitor 2)"),
    ("(seq (gen 0d) (gen 1j))", "(seq (gen 1d) (gen 0j))"),
    ("(seq (gen 1d) (gen 1j))", "(id 1)"),
    ("(seq (gen dup) (gen add))", "(scalar 2)"),
    ("(seq (gen zero) (gen cozero))", "(id 0)"),
    ("(seq (scalar 2) (scalar 1/2))", "(id 1)"),
    ("(gen m)", "(gen d)"),
    ("(label vsource 1)", "(id 1)"),
    ("(gen nosuch)", "(id 1)"),
]

_WIRE = {"kind": "wire"}


def _edge(src, tgt, kind, value=None):
    label = {"kind": kind} if value is None else {"kind": kind,
                                                  "value": value}
    return {"src": src, "tgt": tgt, "label": label}


CIRCUITS = {
    "series": {"nodes": 3, "inputs": [0], "outputs": [2],
               "edges": [_edge(0, 1, "resistor", "2"),
                         _edge(1, 2, "resistor", "3")]},
    "rc_ladder": {"nodes": 4, "inputs": [0, 3], "outputs": [2, 3],
                  "edges": [_edge(0, 1, "resistor", "1"),
                            _edge(1, 3, "capacitor", "2"),
                            _edge(1, 2, "inductor", "1/2"),
                            _edge(2, 3, "resistor", "4")]},
    "sources": {"nodes": 3, "inputs": [0], "outputs": [2],
                "edges": [_edge(0, 1, "vsource", "2"),
                          _edge(1, 2, "resistor", "3"),
                          _edge(2, 0, "isource", "1/5")]},
    "empty": {"nodes": 2, "inputs": [0], "outputs": [1],
              "edges": [_edge(0, 1, "vsource", "1"),
                        _edge(0, 1, "vsource", "2")]},
    "no_ports": {"nodes": 2, "inputs": [], "outputs": [],
                 "edges": [{"src": 0, "tgt": 1, "label": _WIRE}]},
    # the last canonical row of a current source holds h off its pivot
    "isource": {"nodes": 2, "inputs": [0], "outputs": [1],
                "edges": [_edge(0, 1, "isource", "1")]},
    "isource_resistor": {"nodes": 3, "inputs": [0], "outputs": [2],
                         "edges": [_edge(0, 1, "isource", "2"),
                                   _edge(1, 2, "resistor", "3")]},
}


def cases():
    """Every case as (argv, circuit name or None); ``{circuit}`` in argv
    stands for the path of that circuit's file."""
    out = []
    for field in sorted(FIELDS):
        for suite in [*SUITES, *CHECK_SUITES]:
            out.append((["laws", suite, "--field", field], None))
        for model in _models(FIELDS[field]):
            for term in TERMS:
                out.append((["eval", "--model", model, "--term", term,
                             "--field", field], None))
            for a, b in EQ_PAIRS:
                out.append((["eq", "--model", model, "--term", a,
                             "--term", b, "--field", field], None))
        for command in ("square", "alpha"):
            for term in TERMS:
                out.append(([command, "--term", term, "--field", field],
                            None))
        for name in CIRCUITS:
            out.append((["blackbox", "--circuit", "{circuit}",
                         "--field", field], name))
    return out


def replay(argv, circuit, tmp):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    if circuit is not None:
        path = pathlib.Path(tmp) / f"{circuit}.json"
        path.write_text(json.dumps(CIRCUITS[circuit]))
        argv = [str(path) if a == "{circuit}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_corpus_covers_every_case():
    recorded = [(c["argv"], c["circuit"])
                for c in json.loads(CORPUS.read_text(encoding="utf-8"))]
    assert recorded == [(list(a), c) for a, c in cases()]


def test_cli_outputs_match_corpus(tmp_path):
    mismatched = []
    for case in json.loads(CORPUS.read_text(encoding="utf-8")):
        code, out, err = replay(case["argv"], case["circuit"], tmp_path)
        if (code, out, err) != (case["code"], case["out"], case["err"]):
            mismatched.append(" ".join(case["argv"]))
    assert mismatched == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = []
        for argv, circuit in cases():
            code, out, err = replay(argv, circuit, tmp)
            corpus.append({"argv": argv, "circuit": circuit, "code": code,
                           "out": out, "err": err})
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, corpus)) + "\n]\n",
                      encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
