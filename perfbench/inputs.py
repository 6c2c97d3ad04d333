"""Seeded inputs for the three workloads.

Everything here is plain Python and imports nothing from ``propnet``, so the
same seed gives byte-identical inputs on every commit of the engine.  A term
is a nested tuple: ``("gen", name)``, ``("id", n)``, ``("sym", m, n)``,
``("seq", a, b)`` or ``("par", a, b)``; label generators are named
``label:kind:value`` as in the propnet term grammar.

Each workload is a fixed list of items (one *pass*) with fixed quotas of
item kinds and ladder sizes.  The random term and circuit *shapes*
come from a corpus drawn once per workload (stream ``<workload>:shapes``),
picked at evenly spaced ranks of a size proxy, and so do the dimensions and
row counts of the affine relations; the run's ``--seed`` draws every
component value, the affine entries, the chains and the item order.
A pass then costs about the same whatever the seed, which the run-to-run
spread check needs on a small, noisy host, while each seed still gives
different inputs.
"""

from __future__ import annotations

import json
import math
import os
import random

CIRCUIT_ARITY = {"m": (2, 1), "i": (0, 1), "d": (1, 2), "e": (1, 0)}
BG_ARITY = {"1j": (2, 1), "1u": (0, 1), "1d": (1, 2), "1e": (1, 0),
            "0j": (2, 1), "0u": (0, 1), "0d": (1, 2), "0e": (1, 0)}

# Ladder sections per ladder item; ``R`` marks RLC ladders (series R then L,
# shunt C), the rest are RC (series R, shunt C).
BLACKBOX_LADDERS = (1, 1, 2, 2, 3, 4, 5, 8, "R1", "R2")
# Random circuits per pass, without and with a source.
BLACKBOX_RANDOM = (18, 8)
SQUARE_ITEMS = 21
TERMS_LADDERS = (1, 2, 4)
# Corpus shapes are picked at evenly spaced ranks of a pool this large,
# sorted by a size proxy.
POOL = 600
AUDIT_SUITES = ("fincorel", "fincospan", "finrel-set", "finspan", "finrelk",
                "fincorel-deg2", "lagrel-deg2", "bondgraph-f", "bondgraph-g",
                "alpha")
AUDIT_NATURALITY = 40
AUDIT_AFFINE = 40
AUDIT_CHAINS = (100, 200, 300, 400, 500, 600, 700, 800)


# ---------------------------------------------------------------------------
# terms

def arity(t, table):
    tag = t[0]
    if tag == "gen":
        if t[1].startswith("label:"):
            return (1, 1)
        return table[t[1]]
    if tag == "id":
        return (t[1], t[1])
    if tag == "sym":
        return (t[1] + t[2], t[2] + t[1])
    if tag == "seq":
        (d1, c1), (d2, c2) = arity(t[1], table), arity(t[2], table)
        if c1 != d2:
            raise ValueError(f"ill-typed seq {c1} != {d2}")
        return (d1, c2)
    (d1, c1), (d2, c2) = arity(t[1], table), arity(t[2], table)
    return (d1 + d2, c1 + c2)


def depth(t):
    if t[0] in ("seq", "par"):
        return 1 + max(depth(t[1]), depth(t[2]))
    return 0


def format_term(t):
    tag = t[0]
    if tag == "gen":
        if t[1].startswith("label:"):
            return "(label " + " ".join(t[1].split(":")[1:]) + ")"
        return f"(gen {t[1]})"
    if tag == "id":
        return f"(id {t[1]})"
    if tag == "sym":
        return f"(sym {t[1]} {t[2]})"
    return f"({tag} {format_term(t[1])} {format_term(t[2])})"


def seq(*ts):
    out = ts[0]
    for t in ts[1:]:
        out = ("seq", out, t)
    return out


def par(*ts):
    if not ts:
        return ("id", 0)
    out = ts[0]
    for t in ts[1:]:
        out = ("par", out, t)
    return out


def labels(t):
    """Label generator names in left-to-right order."""
    if t[0] == "gen":
        return [t[1]] if t[1].startswith("label:") else []
    if t[0] in ("seq", "par"):
        return labels(t[1]) + labels(t[2])
    return []


def relabel(t, fresh):
    """Replace every label's value by the next value from ``fresh``."""
    if t[0] == "gen" and t[1].startswith("label:"):
        kind = t[1].split(":")[1]
        return t if kind == "wire" else ("gen", f"label:{kind}:{fresh(kind)}")
    if t[0] in ("seq", "par"):
        return (t[0], relabel(t[1], fresh), relabel(t[2], fresh))
    return t


def rand_term(rng, table, gens, d, max_width=3):
    """A random well-typed term (the generator of acceptance criteria 05
    and 09)."""
    if d <= 0:
        roll = rng.random()
        if roll < 0.6:
            return ("gen", rng.choice(gens))
        if roll < 0.8:
            return ("id", rng.randint(0, max_width))
        return ("sym", rng.randint(0, max_width), rng.randint(0, max_width))
    if rng.random() < 0.5:
        top = rand_term(rng, table, gens, d - 1, max_width)
        return ("par", top, rand_term(rng, table, gens, d - 1, max_width))
    first = rand_term(rng, table, gens, d - 1, max_width)
    _dom, cod = arity(first, table)
    return ("seq", first, rand_term_with_dom(rng, table, gens, cod, d - 1))


def rand_term_with_dom(rng, table, gens, dom, d):
    """A random well-typed term whose domain is exactly ``dom`` (the
    generator of acceptance criterion 06)."""
    def ar(g):
        return (1, 1) if g.startswith("label:") else table[g]

    parts = []
    left = dom
    while left > 0:
        candidates = [g for g in gens if 0 < ar(g)[0] <= left]
        if candidates and rng.random() < 0.6:
            g = rng.choice(candidates)
            parts.append(("gen", g))
            left -= ar(g)[0]
        else:
            parts.append(("id", 1))
            left -= 1
    if rng.random() < 0.3:
        zero_dom = [g for g in gens if ar(g)[0] == 0]
        if zero_dom:
            parts.insert(rng.randrange(len(parts) + 1),
                         ("gen", rng.choice(zero_dom)))
    if not parts:
        return ("id", 0)
    t = par(*parts)
    if d > 0 and rng.random() < 0.6:
        _dom, cod = arity(t, table)
        return ("seq", t, rand_term_with_dom(rng, table, gens, cod, d - 1))
    return t


def circuit_gens(rng, with_sources=False):
    names = ["m", "i", "d", "e", "label:wire",
             "label:resistor:" + str(rng.randint(1, 5)),
             "label:inductor:" + str(rng.randint(1, 5)),
             "label:capacitor:" + str(rng.randint(1, 5)),
             "label:impedance:" + str(rng.randint(1, 5))]
    if with_sources:
        names += ["label:vsource:" + str(rng.randint(1, 5)),
                  "label:isource:" + str(rng.randint(1, 5))]
    return names


# ---------------------------------------------------------------------------
# circuits: terms glued into graphs by pushout, independently of propnet

def term_circuit(t):
    """(nodes, edges, inputs, outputs) of a circuit term; edges are
    (src, tgt, kind, value-or-None)."""
    tag = t[0]
    if tag == "gen":
        name = t[1]
        if name in CIRCUIT_ARITY:
            dom, cod = CIRCUIT_ARITY[name]
            return (1, [], [0] * dom, [0] * cod)
        parts = name.split(":")
        value = parts[2] if len(parts) > 2 else None
        return (2, [(0, 1, parts[1], value)], [0], [1])
    if tag == "id":
        return (t[1], [], list(range(t[1])), list(range(t[1])))
    if tag == "sym":
        m, n = t[1], t[2]
        return (m + n, [], list(range(m + n)),
                [m + j for j in range(n)] + list(range(m)))
    a, b = term_circuit(t[1]), term_circuit(t[2])
    off = a[0]
    edges = a[1] + [(s + off, u + off, k, v) for s, u, k, v in b[1]]
    if tag == "par":
        return (off + b[0], edges, a[2] + [i + off for i in b[2]],
                a[3] + [o + off for o in b[3]])
    parent = list(range(off + b[0]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for o, i in zip(a[3], b[2]):
        parent[find(i + off)] = find(o)
    index = {}
    for v in range(off + b[0]):
        index.setdefault(find(v), len(index))

    def node(v):
        return index[find(v)]

    return (len(index), [(node(s), node(u), k, v) for s, u, k, v in edges],
            [node(i) for i in a[2]], [node(o + off) for o in b[3]])


def circuit_json(circ):
    nodes, edges, inputs, outputs = circ
    out = []
    for s, t, kind, value in edges:
        label = {"kind": kind}
        if value is not None:
            label["value"] = value
        out.append({"src": s, "tgt": t, "label": label})
    return {"nodes": nodes, "edges": out, "inputs": inputs,
            "outputs": outputs}


def label_repeats(kinds_values):
    """Edges whose (kind, value) repeats an earlier edge of the circuit."""
    seen = set()
    repeats = 0
    for kv in kinds_values:
        repeats += kv in seen
        seen.add(kv)
    return repeats


# ---------------------------------------------------------------------------
# ladders

# Component values shared by every section: R and C, or R, L and C.  They
# are fixed, because a ladder's cost moves by a tenth or more with the order
# of its values, and the ladders sit at the 90th percentile of latency.
RC_VALUES = ["5", "7"]
RLC_VALUES = ["5", "6", "7"]


def ladder_term(sections, values):
    """2-port ladder (top wire, ground wire) as a ``seq`` of sections:
    series R (and L), then a shunt C from the top wire to ground."""
    shunt = seq(par(("gen", "d"), ("id", 1)),
                par(("id", 1), ("gen", f"label:capacitor:{values[-1]}"),
                    ("id", 1)),
                par(("id", 1), ("gen", "m")))
    series = [par(("gen", f"label:resistor:{values[0]}"), ("id", 1))]
    if len(values) == 3:
        series.append(par(("gen", f"label:inductor:{values[1]}"), ("id", 1)))
    section = seq(*series, shunt)
    return seq(*([section] * sections))


def ladder_sexpr(sections, values):
    """The same ladder written as one flat ``(seq ...)`` of section blocks."""
    block = format_term(ladder_term(1, values))
    return "(seq " + " ".join([block] * sections) + ")"


def ladder_circuit(sections, values):
    """The ladder as a graph: top nodes, RLC midpoints, one ground node
    (last); legs (top_0, ground) -> (top_n, ground)."""
    rlc = len(values) == 3
    nodes = sections + 2 + (sections if rlc else 0)
    ground = nodes - 1
    edges = []
    prev = 0
    for k in range(1, sections + 1):
        if rlc:
            mid = sections + k
            edges.append((prev, mid, "resistor", values[0]))
            edges.append((mid, k, "inductor", values[1]))
        else:
            edges.append((prev, k, "resistor", values[0]))
        edges.append((k, ground, "capacitor", values[-1]))
        prev = k
    return (nodes, edges, [0, ground], [sections, ground])


def _ladder_item(spec):
    rlc = isinstance(spec, str)
    sections = int(spec[1:]) if rlc else spec
    return sections, RLC_VALUES if rlc else RC_VALUES


# ---------------------------------------------------------------------------
# workloads

# Values of the random circuits' edges, pairwise distinct within a circuit
# and of similar size, so that the seed moves a circuit's cost little.
DISTINCT_VALUES = ("2", "3", "5", "7", "3/2", "5/2", "7/2", "9/2")


def _distinct_values(rng):
    pool = rng.sample(DISTINCT_VALUES, len(DISTINCT_VALUES))
    it = iter(pool)
    return lambda _kind: next(it)


def blackbox_cost(circ):
    """Size proxy for black-boxing a small circuit, log-linear in its legs,
    edges and reactive edges (fitted to measured times, residual about 0.2
    in log time)."""
    _nodes, edges, inputs_, outputs = circ
    reactive = sum(e[2] in ("capacitor", "inductor", "impedance")
                   for e in edges)
    return 0.3 * (len(inputs_) + len(outputs)) + 0.45 * len(edges) \
        + 0.15 * reactive


def random_circuits(shapes, rng, count, with_source):
    """Criterion-05 circuit terms with one to eight edges on at most six
    nodes, a source iff asked, and pairwise distinct label values."""
    pool = []
    while len(pool) < POOL:
        gens = circuit_gens(shapes, with_sources=with_source)
        t = rand_term(shapes, CIRCUIT_ARITY, gens, shapes.randint(0, 3))
        circ = term_circuit(t)
        has_source = any(e[2] in ("vsource", "isource") for e in circ[1])
        if (1 <= len(circ[1]) <= 8 and circ[0] <= 6
                and has_source == with_source):
            pool.append((blackbox_cost(circ), format_term(t), t))
    return [relabel(t, _distinct_values(rng))
            for t in spread_picks(pool, count)]


def blackbox_items(shapes, rng):
    items = []
    for spec in BLACKBOX_LADDERS:
        sections, values = _ladder_item(spec)
        circ = ladder_circuit(sections, values)
        items.append({"kind": "ladder_json", "sections": sections,
                      "values": values, "circuit": circuit_json(circ)})
    for with_source, count in zip((False, True), BLACKBOX_RANDOM):
        for t in random_circuits(shapes, rng, count, with_source):
            items.append({"kind": "random_json", "term": format_term(t),
                          "source": with_source,
                          "circuit": circuit_json(term_circuit(t))})
    return items


def shape(t, table):
    """(dom, cod, summed dom + cod over all subterms, widest interface)."""
    tag = t[0]
    if tag in ("seq", "par"):
        d1, c1, w1, m1 = shape(t[1], table)
        d2, c2, w2, m2 = shape(t[2], table)
        dom, cod = (d1, c2) if tag == "seq" else (d1 + d2, c1 + c2)
        return dom, cod, w1 + w2 + dom + cod, max(m1, m2, dom, cod)
    dom, cod = arity(t, table)
    return dom, cod, dom + cod, max(dom, cod)


def square_cost(t):
    """Size proxy for a square check, log-linear in the circuit's node count,
    the summed subterm interfaces and the widest interface (fitted to
    measured square-check times, residual about 0.5 in log time)."""
    _dom, _cod, wires, widest = shape(t, CIRCUIT_ARITY)
    return (1.5 * math.log1p(term_circuit(t)[0]) + 0.5 * math.log1p(wires)
            + 0.6 * math.log1p(widest))


def spread_picks(pool, count, keep=1.0):
    """``count`` entries at evenly spaced ranks of the cheapest ``keep``
    share of ``(cost, text, value)`` entries sorted by cost."""
    pool = sorted(pool, key=lambda c: c[:2])[:round(len(pool) * keep)]
    return [pool[(2 * k + 1) * len(pool) // (2 * count)][2]
            for k in range(count)]


def _kind_values(rng):
    """One value per label kind, as criterion 06's generator has it, but
    the kinds take 2 to 5 in a seeded order, so that the seed moves a
    term's cost little."""
    order = rng.sample(["2", "3", "4", "5"], 4)
    chosen = {}

    def value(kind):
        if kind not in chosen:
            chosen[kind] = order[len(chosen)]
        return chosen[kind]

    return value


def square_terms(shapes, rng):
    """Criterion-06 terms (domain 0-3, depth 5), leaving out the largest
    5% of the pool, whose few items would take a third of a pass."""
    pool = []
    for _ in range(POOL):
        gens = circuit_gens(shapes)
        t = rand_term_with_dom(shapes, CIRCUIT_ARITY, gens,
                               shapes.randint(0, 3), 5)
        pool.append((square_cost(t), format_term(t), t))
    return [relabel(t, _kind_values(rng))
            for t in spread_picks(pool, SQUARE_ITEMS, keep=0.95)]


def terms_items(shapes, rng):
    items = [{"kind": "square", "term": format_term(t), "depth": depth(t),
              "labels": labels(t)} for t in square_terms(shapes, rng)]
    for spec in TERMS_LADDERS:
        sections, values = _ladder_item(spec)
        t = ladder_term(sections, values)
        items.append({"kind": "ladder_term", "sections": sections,
                      "values": values, "term": ladder_sexpr(sections, values),
                      "depth": depth(t), "labels": labels(t)})
    return items


def _rand_affine_rows(shapes, rng, dom, cod):
    """Constraint rows: how many from ``shapes``, entries from ``rng``."""
    return [[rng.randint(-3, 3) for _ in range(dom + cod + 1)]
            for _ in range(shapes.randint(0, dom + cod))]


def chain_term(rng, length):
    """``(seq ...)`` of ``length`` wire generators: ``d`` and ``m`` in turn,
    with the occasional ``e`` then ``i`` that cuts the wire."""
    names = []
    width = 1
    while len(names) < length:
        if width == 2:
            names.append("m")
            width = 1
        elif length - len(names) >= 2 and rng.random() < 0.02:
            names += ["e", "i"]
        else:
            names.append("d")
            width = 2
    return names


def naturality_terms(shapes):
    """Criterion-09 bond-graph terms (depth 0-4, width 2) on the fragment
    where conjugation by alpha is natural; they carry no values."""
    gens = ["1j", "1u", "1e", "0j", "0u", "0e"]
    pool = []
    for _ in range(POOL):
        t = rand_term(shapes, BG_ARITY, gens, shapes.randint(0, 4),
                      max_width=2)
        pool.append((shape(t, BG_ARITY)[2], format_term(t), t))
    return spread_picks(pool, AUDIT_NATURALITY)


def audit_items(shapes, rng):
    items = [{"kind": "laws", "suite": s} for s in AUDIT_SUITES]
    for t in naturality_terms(shapes):
        items.append({"kind": "naturality", "term": format_term(t),
                      "depth": depth(t)})
    for _ in range(AUDIT_AFFINE):
        n = shapes.randint(0, 3)
        dom, cod = shapes.randint(0, 3), shapes.randint(0, 3)
        items.append({"kind": "affine", "dom": dom, "mid": n, "cod": cod,
                      "f": _rand_affine_rows(shapes, rng, dom, n),
                      "g": _rand_affine_rows(shapes, rng, n, cod)})
    for length in AUDIT_CHAINS:
        names = chain_term(rng, length)
        items.append({"kind": "chain", "gens": names,
                      "term": "(seq " + " ".join(f"(gen {g})" for g in names)
                              + ")",
                      "depth": len(names) - 1})
    return items


WORKLOADS = {"blackbox_qs": blackbox_items, "terms_qs": terms_items,
             "audit_q": audit_items}


def make_items(workload, seed):
    """The workload's pass for ``seed``, in a seeded order, with ids."""
    shapes = random.Random(f"{workload}:shapes")
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](shapes, rng)
    rng.shuffle(items)
    for k, item in enumerate(items):
        item["id"] = k
    return items


def write_items(items, directory):
    """Write the item list and one ``circuit_<id>.json`` per circuit item."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "items.json"), "w",
              encoding="utf-8") as fh:
        json.dump(items, fh, indent=1, sort_keys=True)
    for item in items:
        if "circuit" in item:
            path = os.path.join(directory, f"circuit_{item['id']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(item["circuit"], fh, indent=1, sort_keys=True)
