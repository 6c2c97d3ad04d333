"""Law suites run as one DAG: interning makes equal subterms one node, and
``run_suite`` values each node once per run, with the verdicts of
evaluating every side apart."""

from collections import Counter

import pytest

from propnet import cli, laws
from propnet.term import PropModel, dag_fold, format_term

from helpers import law_oracle

SUITES = sorted(cli.SUITES)
FIELDS = ["q", "qs"]


class _Token:
    """A model's value, new for every call that makes one, so that a call
    is known by the tokens it takes."""
    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value


class CountingModel(PropModel):
    """``model`` with each value in a new token, counting the calls that
    make one: leaves by their arguments, ``seq`` and ``par`` by the tokens
    they are given."""

    def __init__(self, model):
        self.model, self.signature = model, model.signature
        self.calls, self.tokens = Counter(), []

    def _made(self, call, value):
        self.calls[call] += 1
        self.tokens.append(_Token(value))
        return self.tokens[-1]

    def gen(self, name):
        return self._made(("gen", name), self.model.gen(name))

    def identity(self, n):
        return self._made(("id", n), self.model.identity(n))

    def symmetry(self, m, n):
        return self._made(("sym", m, n), self.model.symmetry(m, n))

    def seq(self, *values):
        return self._made(("seq", *map(id, values)),
                          self.model.seq(*(v.value for v in values)))

    def par(self, *values):
        return self._made(("par", *map(id, values)),
                          self.model.par(*(v.value for v in values)))


def _sides(suite):
    return [t for _lid, lhs, rhs in suite for t in (lhs, rhs)]


def _model(name, field):
    return cli._models(cli.FIELDS[field])[cli.SUITES[name][0]]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SUITES)
def test_run_suite_gives_the_verdicts_of_each_law_apart(name, field):
    model = _model(name, field)
    want = law_oracle(model, cli.SUITES[name][1])
    assert laws.run_suite(model, cli._interned(name)) == want
    assert laws.run_suite(model, cli.SUITES[name][1]) == want


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", SUITES)
def test_each_interned_node_is_valued_once_per_run(name, field):
    model = CountingModel(_model(name, field))
    verdicts = laws.run_suite(model, cli._interned(name))
    assert verdicts == law_oracle(model.model, cli.SUITES[name][1])
    assert max(model.calls.values()) == 1


def test_uninterned_suites_value_repeated_subterms_again():
    # the counting model can fail: the builders' sides repeat subterms
    # that only interning makes one node
    twice = []
    for name in SUITES:
        model = CountingModel(_model(name, "q"))
        laws.run_suite(model, cli.SUITES[name][1])
        if max(model.calls.values()) > 1:
            twice.append(name)
    assert "finrelk" in twice and "bondgraph-f" in twice


def _forms(suite):
    """The distinct forms of a suite's sides, by identity."""
    found = {}

    def close(form, _values):
        found[id(form)] = form

    for t in _sides(suite):
        dag_fold(t, lambda _leaf: None, close)
    return list(found.values())


@pytest.mark.parametrize("name", SUITES)
def test_interning_keeps_every_side_and_is_idempotent(name):
    raw = cli.SUITES[name][1]
    interned = laws.intern(raw)
    assert [lid for lid, _l, _r in interned] == [lid for lid, _l, _r in raw]
    assert list(map(format_term, _sides(interned))) == \
        list(map(format_term, _sides(raw)))
    again = laws.intern(interned)
    assert all(map(lambda a, b: a is b, _sides(again), _sides(interned)))
    # no two forms are equal, and the suite is interned once per process
    forms = _forms(interned)
    assert len(set(map(format_term, forms))) == len(forms)
    assert len(forms) <= len(_forms(raw))
    assert cli._interned(name) is cli._interned(name)


def test_suites_share_most_of_their_forms():
    # distinct forms over forms written, in the big suites
    written = {"finrelk": 112, "lagrel-deg2": 116, "fincorel-deg2": 134,
               "bondgraph-f": 138, "bondgraph-g": 138}
    distinct = {"finrelk": 65, "lagrel-deg2": 69, "fincorel-deg2": 90,
                "bondgraph-f": 95, "bondgraph-g": 95}
    for name in written:
        suite = cli.SUITES[name][1]
        count = sum(dag_fold(t, lambda _leaf: 0,
                             lambda _form, values: 1 + sum(values), ())
                    for t in _sides(suite))
        assert (count, len(_forms(laws.intern(suite)))) == \
            (written[name], distinct[name])

