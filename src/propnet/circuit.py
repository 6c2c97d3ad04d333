"""Labeled circuits: graphs with input/output legs, glued by pushout.

A circuit value is kept up to isomorphism: equality renumbers nodes into a
canonical order (legs by first occurrence, internal nodes by the cheapest
permutation) and compares the resulting encodings.  Leg maps are fixed
pointwise by isomorphisms, so only internal nodes ever need searching, and
at desk scale there are few of them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .scalar import QS, RatFunc, parse_rat, parse_ratfunc, format_scalar
from .setprops import WIRE_SIGNATURE, InterfaceMismatch, _UnionFind
from .term import PropModel, Signature, UnknownGenerator

LABEL_KINDS = ("wire", "impedance", "resistor", "inductor", "capacitor",
               "vsource", "isource")

SOURCE_KINDS = ("vsource", "isource")

# The most nodes a circuit file may declare; 2,000 bare nodes peak at 0.6 MB.
# It does not bound black-boxing, whose cost follows fill, not edges: 2,000
# nodes and 6,000 random edges did not finish in 120 s, though a chain of
# 2,000 resistors takes 0.2 s (2-vCPU host, Python 3.11).
MAX_NODES = 2000


@dataclass(frozen=True)
class EdgeLabel:
    kind: str
    value: object = None

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == "wire":
            if self.value is not None:
                raise ValueError("wire takes no value")
        elif self.kind in ("resistor", "inductor", "capacitor"):
            if type(self.value) not in (int, Fraction) or self.value <= 0:
                raise ValueError(f"{self.kind} needs a positive rational")
        elif type(self.value) in (int, Fraction, RatFunc):
            # a constant is kept as the rational that QS stores it as
            object.__setattr__(self, "value", QS.coerce(self.value))
        else:
            raise ValueError(f"{self.kind} needs a rational function")

    def sort_key(self):
        return (self.kind, "" if self.value is None
                else format_scalar(self.value))


WIRE = EdgeLabel("wire")


def parse_label(kind: str, literal: str | None = None) -> EdgeLabel:
    if kind == "wire":
        return WIRE
    if literal is None:
        raise ValueError(f"label kind {kind!r} needs a value")
    if kind in ("resistor", "inductor", "capacitor"):
        return EdgeLabel(kind, parse_rat(literal))
    return EdgeLabel(kind, parse_ratfunc(literal))


class LGraph:
    __slots__ = ("node_count", "edges")

    def __init__(self, node_count: int, edges):
        if node_count < 0:
            raise ValueError("node count must not be negative")
        edges = [(int(s), int(t), lab) for s, t, lab in edges]
        for s, t, lab in edges:
            if not (0 <= s < node_count and 0 <= t < node_count):
                raise ValueError("edge endpoint out of range")
            if not isinstance(lab, EdgeLabel):
                raise TypeError("edge label must be an EdgeLabel")
        self.node_count = node_count
        self.edges = tuple(edges)


class LCircuit:
    __slots__ = ("graph", "inputs", "outputs", "_canon")

    def __init__(self, graph: LGraph, inputs, outputs):
        inputs = tuple(int(i) for i in inputs)
        outputs = tuple(int(i) for i in outputs)
        for i in inputs + outputs:
            if not 0 <= i < graph.node_count:
                raise ValueError("leg index out of range")
        self.graph = graph
        self.inputs = inputs
        self.outputs = outputs
        self._canon = None

    @property
    def m(self):
        return len(self.inputs)

    @property
    def n(self):
        return len(self.outputs)

    @classmethod
    def identity(cls, n: int) -> "LCircuit":
        return cls.symmetry(0, n)

    @classmethod
    def symmetry(cls, m: int, n: int) -> "LCircuit":
        outs = [m + j for j in range(n)] + list(range(m))
        return cls(LGraph(m + n, []), range(m + n), outs)

    @classmethod
    def single_edge(cls, label: EdgeLabel) -> "LCircuit":
        return cls(LGraph(2, [(0, 1, label)]), [0], [1])

    def tensor(self, *others: "LCircuit") -> "LCircuit":
        """The disjoint union, each circuit's nodes shifted past those of
        the circuits before it."""
        edges, inputs, outputs = (list(self.graph.edges), list(self.inputs),
                                  list(self.outputs))
        off = self.graph.node_count
        for c in others:
            edges += [(s + off, t + off, lab) for s, t, lab in c.graph.edges]
            inputs += [i + off for i in c.inputs]
            outputs += [o + off for o in c.outputs]
            off += c.graph.node_count
        return LCircuit(LGraph(off, edges), inputs, outputs)

    def compose(self, *others: "LCircuit") -> "LCircuit":
        """One pushout of the tensor: each circuit's outputs are glued to
        the next one's inputs.  Interfaces match, so the outputs of all
        but the last circuit line up with the inputs of all but the
        first."""
        parts = (self, *others)
        for a, b in zip(parts, others):
            if a.n != b.m:
                raise InterfaceMismatch(
                    f"cannot compose {a.n} -> with {b.m} <-")
        both = self.tensor(*others)
        glued = len(both.outputs) - parts[-1].n
        uf = _UnionFind(both.graph.node_count)
        for a, b in zip(both.outputs[:glued], both.inputs[self.m:]):
            uf.union(a, b)
        # renumber quotient classes by first occurrence
        index = {}

        def visit(v):
            return index.setdefault(uf.find(v), len(index))

        inputs = [visit(i) for i in both.inputs[:self.m]]
        outputs = [visit(o) for o in both.outputs[glued:]]
        edges = [(visit(s), visit(t), lab) for s, t, lab in both.graph.edges]
        for v in range(both.graph.node_count):
            visit(v)
        return LCircuit(LGraph(len(index), edges), inputs, outputs)

    def canonical_key(self):
        if self._canon is not None:
            return self._canon
        g = self.graph
        placed = {}
        for v in self.inputs + self.outputs:
            if v not in placed:
                placed[v] = len(placed)
        internal = [v for v in range(g.node_count) if v not in placed]
        base = len(placed)
        best = None
        if len(internal) > 9:
            raise ValueError("circuit too large for canonical renumbering")
        for perm in itertools.permutations(range(len(internal))):
            full = dict(placed)
            for v, p in zip(internal, perm):
                full[v] = base + p
            edges = sorted((full[s], full[t], lab.sort_key())
                           for s, t, lab in g.edges)
            key = (g.node_count,
                   tuple(placed[i] for i in self.inputs),
                   tuple(placed[o] for o in self.outputs),
                   tuple(edges))
            if best is None or key < best:
                best = key
        self._canon = best
        return best

    def __eq__(self, other):
        if not isinstance(other, LCircuit):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"LCircuit({self.graph.node_count} nodes, "
                f"{len(self.graph.edges)} edges, {self.m}->{self.n})")


# ---------------------------------------------------------------------------
# Circuit-valued prop model

def _label_resolver(name):
    if name.startswith("label:"):
        return (1, 1)
    return None


CIRCUIT_SIGNATURE = Signature(WIRE_SIGNATURE.table, resolver=_label_resolver)


def label_from_gen_name(name: str) -> EdgeLabel:
    if not name.startswith("label:"):
        raise UnknownGenerator(name)
    parts = name.split(":")
    kind = parts[1]
    literal = ":".join(parts[2:]) if len(parts) > 2 else None
    return parse_label(kind, literal)


class CircuitModel(PropModel):
    """Evaluates circuit terms to concrete circuits (the quotient map from
    free syntax to circuits-up-to-iso)."""

    carrier = LCircuit
    signature = CIRCUIT_SIGNATURE

    GENERATORS = {
        "m": LCircuit(LGraph(1, []), [0, 0], [0]),
        "i": LCircuit(LGraph(1, []), [], [0]),
        "d": LCircuit(LGraph(1, []), [0], [0, 0]),
        "e": LCircuit(LGraph(1, []), [0], []),
    }

    def gen(self, name):
        if name in self.GENERATORS:
            return self.GENERATORS[name]
        return LCircuit.single_edge(label_from_gen_name(name))


# ---------------------------------------------------------------------------
# JSON circuit files

def circuit_from_json(data) -> LCircuit:
    """The circuit of a parsed JSON object; ValueError for any other
    shape."""
    if not isinstance(data, dict):
        raise ValueError("a circuit must be a JSON object")
    edges = []
    for entry in _json_list(data, "edges", dict, "objects"):
        lab = entry.get("label")
        if not (isinstance(lab, dict) and isinstance(lab.get("kind"), str)
                and isinstance(lab.get("value"), (str, type(None)))):
            raise ValueError(f"edge label {lab!r} must be an object with a "
                             "string kind and an optional string value")
        ends = (entry.get("src"), entry.get("tgt"))
        if any(type(x) is not int for x in ends):
            raise ValueError("edge 'src' and 'tgt' must be integers")
        edges.append((*ends, parse_label(lab["kind"], lab.get("value"))))
    nodes = data.get("nodes")
    if type(nodes) is not int:
        raise ValueError("'nodes' must be an integer")
    if nodes > MAX_NODES:
        raise ValueError(f"'nodes' is {nodes}, over the limit of "
                         f"{MAX_NODES}")
    return LCircuit(LGraph(nodes, edges),
                    _json_list(data, "inputs", int, "integers"),
                    _json_list(data, "outputs", int, "integers"))


def _json_list(data: dict, key: str, kind: type, what: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, list) or any(type(x) is not kind
                                          for x in items):
        raise ValueError(f"'{key}' must be a list of {what}")
    return items


def load_circuit(path) -> LCircuit:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("circuit JSON is nested too deeply") from None
    return circuit_from_json(data)
