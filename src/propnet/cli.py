"""Command-line front end: black-boxing, term evaluation, equivalence
checking, and the registered law suites.

The argument parser is built on the first ``main`` call and reused by every
later one; its handlers still look up the names they call when they run,
so a rebound ``propnet.cli.check_naturality`` or ``square_check`` is seen."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .scalar import FIELDS, QS
from .term import Gen, Id, Sym, evaluate, par, parse_term, seq
from .setprops import (BoolRelModel, Corelation, CorelModel, CospanModel,
                       NatSpanModel, format_corel)
from .circuit import CircuitModel, LCircuit, SOURCE_KINDS, load_circuit
from .linrel import CorelToLinRelModel, LinRel, blackbox, format_linrel
from .afflag import aff_blackbox
from .sigflow import SigFlowModel, square_check
from .laws import bimonoid_laws, frobenius_monoid_laws, intern, run_suite
from .bondgraph import (FModel, GModel, alpha, bondgraph_laws,
                        check_absorption, check_naturality,
                        discriminating_law, junction_laws)


def _deg2_laws():
    dm = seq(Gen("0d"), Gen("1j"))
    return junction_laws(zero="commutative") + [
        discriminating_law(),
        ("zero_comult_one_mult_idempotent", seq(dm, dm), dm)]


def _lagrel_deg2_laws():
    laws = []
    laws += frobenius_monoid_laws("1j", "1u", "1d", "1e", prefix="one_",
                                  commutative=True)
    laws += frobenius_monoid_laws("0j", "0u", "0d", "0e", prefix="zero_",
                                  commutative=True)
    laws += bimonoid_laws("0j", "0u", "1d", "1e", prefix="mixed_a_")
    laws += bimonoid_laws("1j", "1u", "0d", "0e", prefix="mixed_b_")
    laws.append(("mutual_inverse_a",
                 seq(Gen("0d"), Gen("1j"), Gen("1d"), Gen("0j")), Id(1)))
    laws.append(("mutual_inverse_b",
                 seq(Gen("1d"), Gen("0j"), Gen("0d"), Gen("1j")), Id(1)))
    laws.append(discriminating_law())
    return laws


_WIRE_FROBENIUS = frobenius_monoid_laws("m", "i", "d", "e", commutative=True)
_BONDGRAPH_LAWS = bondgraph_laws() + [discriminating_law()]

# suite name -> (model name in ``_models``, laws, ids of the laws that are
# expected to fail)
SUITES = {
    "fincorel": ("corel", _WIRE_FROBENIUS, ()),
    "fincospan": ("cospan", _WIRE_FROBENIUS, ("extra",)),
    "finrel-set": ("boolrel",
                   bimonoid_laws("m", "i", "d", "e", special_law=True), ()),
    "finspan": ("natspan", bimonoid_laws("m", "i", "d", "e"), ()),
    "finrelk": ("sigflow",
                frobenius_monoid_laws("codup", "codel", "dup", "del",
                                      prefix="dup_", commutative=True)
                + frobenius_monoid_laws("add", "zero", "coadd", "cozero",
                                        prefix="add_", commutative=True)
                + bimonoid_laws("add", "zero", "dup", "del", prefix="hopf_")
                + bimonoid_laws("codup", "codel", "coadd", "cozero",
                                prefix="cohopf_"), ()),
    "fincorel-deg2": ("bondgraph-g", _deg2_laws(), ()),
    "lagrel-deg2": ("bondgraph-f", _lagrel_deg2_laws(),
                    ("zero_comult_one_mult",)),
    "bondgraph-f": ("bondgraph-f", _BONDGRAPH_LAWS,
                    ("zero_comult_one_mult",)),
    "bondgraph-g": ("bondgraph-g", _BONDGRAPH_LAWS, ()),
}


def _alpha_checks(field):
    checks = []
    for name in ("1j", "1u", "1d", "1e", "0j", "0u", "0d", "0e"):
        checks.append((f"naturality_{name}",
                       check_naturality(Gen(name), field), True))
    checks.append(("naturality_braiding",
                   check_naturality(Sym(1, 1), field), True))
    checks.append(("naturality_identity",
                   check_naturality(Id(1), field), True))
    for n in range(5):
        an = alpha(n, field)
        ok = an.compose(an.dagger()) == LinRel.identity(field, 2 * n)
        checks.append((f"left_inverse_{n}", ok, True))
    # absorption holds for the monoid parts but not for either
    # comultiplication: composites mixing the two junction families
    # genuinely separate the effort/flow and corelation semantics
    for name in ("1j", "1u", "1e", "0j", "0u", "0e"):
        checks.append((f"absorption_{name}",
                       check_absorption(Gen(name), field), True))
    for name in ("1d", "0d"):
        checks.append((f"absorption_{name}",
                       check_absorption(Gen(name), field), False))
    lid, lhs, _rhs = discriminating_law()
    checks.append(("naturality_" + lid,
                   check_naturality(lhs, field), False))
    return checks


def _square_checks(field):
    terms = [
        ("gen_m", Gen("m")), ("gen_i", Gen("i")), ("gen_d", Gen("d")),
        ("gen_e", Gen("e")), ("label_wire", Gen("label:wire")),
        ("label_impedance", Gen("label:impedance:2")),
        ("label_resistor", Gen("label:resistor:3")),
        ("label_inductor", Gen("label:inductor:2")),
        ("label_capacitor", Gen("label:capacitor:5")),
        ("identity", Id(1)), ("braiding", Sym(1, 1)),
        ("series", seq(Gen("label:resistor:2"), Gen("label:resistor:3"))),
        ("parallel", seq(Gen("d"),
                         par(Gen("label:resistor:2"),
                             Gen("label:resistor:3")),
                         Gen("m"))),
    ]
    return [(lid, square_check(t, QS), True) for lid, t in terms]


CHECK_SUITES = {
    "alpha": _alpha_checks,
    "square": _square_checks,
}


def _models(field):
    return {
        "circuit": CircuitModel(),
        "corel": CorelModel(),
        "cospan": CospanModel(),
        "natspan": NatSpanModel(),
        "boolrel": BoolRelModel(),
        "linrel": CorelToLinRelModel(field),
        "sigflow": SigFlowModel(field),
        "bondgraph-f": FModel(field),
        "bondgraph-g": GModel(),
    }


def _read_term(src: str):
    if os.path.exists(src):
        with open(src, encoding="utf-8") as fh:
            src = fh.read()
    return parse_term(src)


def _show_value(value) -> str:
    if type(value) is Corelation:  # a Cospan prints its extras
        return format_corel(value)
    if isinstance(value, LinRel):
        return format_linrel(value)
    return repr(value)


def _distinguish(a, b):
    if isinstance(a, LinRel) and isinstance(b, LinRel):
        if (a.dom, a.cod) != (b.dom, b.cod):
            return f"interface {a.dom}->{a.cod} vs {b.dom}->{b.cod}"
        for x, y, which in ((a, b, "first"), (b, a, "second")):
            for v in x.space.basis:
                # v lies in y exactly when every row of y vanishes on it
                if any(sum((c * v[j] for j, c in row.items()), a.field.zero)
                       for row in y.constraints.rows):
                    lits = ", ".join(map(a.field.format, v))
                    return f"vector ({lits}) in {which} only"
    first, second = _show_value(a), _show_value(b)
    if first == second and isinstance(a, LCircuit):
        first, second = _show_circuit(a), _show_circuit(b)
    return f"first: {first}\nsecond: {second}"


def _show_circuit(c: LCircuit) -> str:
    """The counts, then the legs and the labelled edges in the numbering
    that ``==`` compares, so unequal circuits never print alike."""
    _nodes, inputs, outputs, edges = c.canonical_key()
    legs = [" ".join(map(str, side)) or "none" for side in (inputs, outputs)]
    arrows = ", ".join(f"{s}->{t} {kind} {value}".rstrip()
                       for s, t, (kind, value) in edges)
    return f"{c!r} legs {legs[0]} -> {legs[1]}; edges {arrows or 'none'}"


def _cmd_blackbox(args) -> int:
    field = FIELDS[args.field]
    circuit = load_circuit(args.circuit)
    box = (aff_blackbox if any(lab.kind in SOURCE_KINDS
                               for _s, _t, lab in circuit.graph.edges)
           else blackbox)
    print(format_linrel(box(circuit, field)))
    return 0


def _model(args):
    models = _models(FIELDS[args.field])
    if args.model not in models:
        raise KeyError(f"unknown model {args.model!r}; "
                       f"choose from {sorted(models)}")
    return models[args.model]


def _cmd_eval(args) -> int:
    model = _model(args)
    term = _read_term(args.term)
    print(_show_value(evaluate(term, model)))
    return 0


def _cmd_eq(args) -> int:
    model = _model(args)
    if len(args.term) != 2:
        raise ValueError("eq needs exactly two --term arguments")
    a = evaluate(_read_term(args.term[0]), model)
    b = evaluate(_read_term(args.term[1]), model)
    if a == b:
        print("EQUAL")
        return 0
    print("DIFFER")
    print(_distinguish(a, b))
    return 1


def _report(results) -> int:
    status = 0
    for lid, holds, expected in sorted(results):
        verdict = "PASS" if holds else "FAIL"
        note = "" if expected else " (expected)"
        print(f"{lid}: {verdict}{note}")
        if holds != expected:
            status = 1
    return status


def _cmd_laws(args) -> int:
    field = FIELDS[args.field]
    if args.suite in CHECK_SUITES:
        return _report(CHECK_SUITES[args.suite](field))
    if args.suite not in SUITES:
        raise KeyError(f"unknown suite {args.suite!r}; choose from "
                       f"{sorted(list(SUITES) + list(CHECK_SUITES))}")
    model, _laws, failing = SUITES[args.suite]
    return _report([(lid, holds, lid not in failing)
                    for lid, holds in run_suite(_models(field)[model],
                                                _interned(args.suite))])


@functools.cache
def _interned(name):
    """The laws of ``SUITES[name]``, interned once per process."""
    return intern(SUITES[name][1])


def _check_term(args, check) -> int:
    ok = check(_read_term(args.term), FIELDS[args.field])
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# name -> (handler, help, arguments before ``--field`` as (name, options));
# the checks are looked up when a command runs, not bound here
COMMANDS = {
    "blackbox": (_cmd_blackbox, "behavior of a circuit JSON file",
                 [("--circuit", dict(required=True,
                                     help="circuit JSON file"))]),
    "eval": (_cmd_eval, "evaluate a term in a model",
             [("--model", dict(required=True)),
              ("--term", dict(required=True,
                              help="term file or literal s-expression"))]),
    "eq": (_cmd_eq, "compare two terms in a model",
           [("--model", dict(required=True)),
            ("--term", dict(action="append", required=True,
                            help="give twice: the two terms to compare"))]),
    "laws": (_cmd_laws, "run a registered law suite", [("suite", {})]),
    "alpha": (lambda a: _check_term(a, check_naturality),
              "naturality check for a bond-graph term",
              [("--term", dict(required=True))]),
    "square": (lambda a: _check_term(a, square_check),
               "commuting-square check for a circuit term",
               [("--term", dict(required=True))]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propnet",
        description="evaluate and audit network diagram languages")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.add_argument("--field", choices=sorted(FIELDS), default="qs",
                       help="scalar field (default qs)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        print(f"propnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
