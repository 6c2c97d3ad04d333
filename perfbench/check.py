"""Output checks, run after the timed region.

Each check has a route to the answer that does not go through the code path
that produced the output:

* ladders: the relation and the transmission-matrix product of the
  sections, computed in sympy, must span the same rank-4 subspace;
* random circuits: compositional evaluation of the generating term
  (acceptance criterion 05's second route) must give the same relation as
  graph elimination, by the engine's canonical-form equality;
* corelation chains: a union-find over the generator wiring;
* law suites: the verdicts recorded here from the engine's specification;
* affine compositions: projection of the stacked constraint kernel, in sympy.

``check(item, result)`` returns None when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Law ids the suites report as deliberate non-laws, and the number of
# verdict lines each suite prints.
LAW_SUITES = {
    "fincorel": (12, set()),
    "fincospan": (12, {"extra"}),
    "finrel-set": (13, set()),
    "finspan": (12, set()),
    "finrelk": (48, set()),
    "fincorel-deg2": (37, set()),
    "lagrel-deg2": (51, {"zero_comult_one_mult"}),
    "bondgraph-f": (37, {"zero_comult_one_mult"}),
    "bondgraph-g": (37, set()),
    "alpha": (24, {"absorption_0d", "absorption_1d",
                   "naturality_zero_comult_one_mult"}),
}

PORT_VARS = ("phi_in_1", "I_in_1", "phi_in_2", "I_in_2",
             "phi_out_1", "I_out_1", "phi_out_2", "I_out_2")


# ---------------------------------------------------------------------------
# ladders against the transmission-matrix product

def ladder_reference(sections, values):
    """Four vectors spanning the ladder's port relation, in PORT_VARS order.

    The engine's edge law is phi_tgt - phi_src = Z * J for the current J
    from src to tgt.  Along the top wire the state is (V, I): V the top
    potential over ground, I the current flowing right.  A series element
    maps (V, I) to (V + Z I, I); a shunt admittance Y to ground maps it to
    (V, I + Y V).
    """
    import sympy as sp

    s = sp.Symbol("s")
    vals = [sp.Rational(v) for v in values]
    series = [vals[0]] + ([s * vals[1]] if len(vals) == 3 else [])
    section = sp.eye(2)
    for z in series:
        section = sp.Matrix([[1, z], [0, 1]]) * section
    section = sp.Matrix([[1, 0], [s * vals[-1], 1]]) * section
    total = section ** sections
    vecs = [[1, 0, 1, 0, 1, 0, 1, 0],   # common potential offset
            [0, 0, 0, 1, 0, 0, 0, 1]]   # current straight along ground
    for v0, i0 in ((1, 0), (0, 1)):
        vn, i_n = total * sp.Matrix([v0, i0])
        # ground takes in what the shunts drained from the top wire
        vecs.append([v0, i0, 0, i_n - i0, vn, i_n, 0, 0])
    return vecs


def to_sympy(x):
    """A Q or Q(s) scalar of the engine as a sympy expression in ``s``."""
    import sympy as sp

    if isinstance(x, (int, Fraction)):
        return sp.Rational(x.numerator, x.denominator)
    s = sp.Symbol("s")

    def poly(p):
        return sum(sp.Rational(c.numerator, c.denominator) * s ** k
                   for k, c in enumerate(p.coeffs))

    return poly(x.num) / poly(x.den)


def check_ladder(item, result):
    """The relation's spanning vectors and the reference span the same
    rank-4 subspace."""
    import sympy as sp

    rc, rel = result
    if rc != 0:
        return f"exit code {rc}"
    if (rel.dom, rel.cod) != (4, 4):
        return f"interface {rel.dom}->{rel.cod}, expected 4->4"
    got = [[to_sympy(x) for x in vec] for vec in rel.space.basis]
    ref = ladder_reference(item["sections"], item["values"])
    half = len(PORT_VARS) // 2

    def rank(rows):
        return sp.Matrix(rows).rank(simplify=sp.cancel) if rows else 0

    if rank(ref) != half:
        return "reference vectors are dependent"
    if len(got) != half or rank(got) != half:
        return "black-box relation is not rank 4"
    if rank(got + ref) != half:
        return "black-box relation differs from the transmission matrix"
    return None


# ---------------------------------------------------------------------------
# random circuits against compositional evaluation

def _affine_model():
    from propnet.afflag import AffRel, isource_rel, vsource_rel
    from propnet.circuit import CIRCUIT_SIGNATURE, label_from_gen_name
    from propnet.linrel import K_corel, rlc_rel
    from propnet.scalar import QS
    from propnet.setprops import CorelModel
    from propnet.term import PropModel

    class AffineCircuitModel(PropModel):
        width = 2
        signature = CIRCUIT_SIGNATURE

        def gen(self, name):
            if name in CorelModel.GENERATORS:
                return AffRel.from_linrel(
                    K_corel(QS, CorelModel.GENERATORS[name]))
            label = label_from_gen_name(name)
            if label.kind == "vsource":
                return vsource_rel(QS, label.value)
            if label.kind == "isource":
                return isource_rel(QS, label.value)
            return AffRel.from_linrel(rlc_rel(QS, label))

        def identity(self, n):
            return AffRel.identity(QS, 2 * n)

        def symmetry(self, m, n):
            return AffRel.symmetry(QS, 2 * m, 2 * n)

        def seq(self, a, b):
            return a.compose(b)

        def par(self, a, b):
            return a.tensor(b)

    return AffineCircuitModel()


def check_random_circuit(item, result):
    from propnet.linrel import CorelToLinRelModel
    from propnet.scalar import QS
    from propnet.term import evaluate, parse_term

    rc, rel = result
    if rc != 0:
        return f"exit code {rc}"
    term = parse_term(item["term"])
    model = _affine_model() if item["source"] else CorelToLinRelModel(QS)
    expect = evaluate(term, model)
    if type(rel) is not type(expect) or rel != expect:
        return "graph elimination and term evaluation differ"
    return None


# ---------------------------------------------------------------------------
# corelation chains against union-find

_BLOCK = re.compile(r"\{([^{}]*)\}")


def chain_partition(names):
    """Boundary partition of a ``seq`` of wire generators, as a set of
    frozensets of 'xK'/'yK' terminal names."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    wires = ["x1"]
    find("x1")
    for k, g in enumerate(names):
        node = ("n", k)
        find(node)
        if g in ("m", "d", "e"):
            for w in wires:
                union(w, node)
        wires = {"m": [node], "d": [node, node], "e": [], "i": [node]}[g]
    outs = [f"y{j + 1}" for j in range(len(wires))]
    for w, y in zip(wires, outs):
        union(w, y)
    groups = {}
    for term in ["x1"] + outs:
        groups.setdefault(find(term), set()).add(term)
    return {frozenset(g) for g in groups.values()}


def check_chain(item, result):
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    text = out.strip()
    inner = text[text.index("{") + 1:text.rindex("}")]
    got = {frozenset(b.split()) for b in _BLOCK.findall(inner)}
    if got != chain_partition(item["gens"]):
        return f"partition {text!r} disagrees with union-find"
    return None


# ---------------------------------------------------------------------------
# law suites and point checks

def check_laws(item, result):
    rc, out = result
    count, failing = LAW_SUITES[item["suite"]]
    lines = out.strip().splitlines()
    if rc != 0:
        return f"exit code {rc}"
    if len(lines) != count:
        return f"{len(lines)} verdicts, expected {count}"
    fails = set()
    for line in lines:
        lid, verdict = line.split(": ", 1)
        if verdict not in ("PASS", "FAIL (expected)"):
            return f"unexpected verdict {line!r}"
        if verdict != "PASS":
            fails.add(lid)
    if fails != failing:
        return f"failing laws {sorted(fails)}, expected {sorted(failing)}"
    return None


def check_pass(item, result):
    rc, out = result
    if rc != 0 or out.strip() != "PASS":
        return f"verdict {out.strip()!r} with exit code {rc}"
    return None


# ---------------------------------------------------------------------------
# affine composition against a sympy projection

def _span_rank(vectors):
    import sympy as sp
    return sp.Matrix(vectors).rank() if vectors else 0


def affine_reference(item):
    """Spanning vectors of {(u, w, h) : (u, v, h) in F, (v, w, h) in G}."""
    import sympy as sp

    dom, mid, cod = item["dom"], item["mid"], item["cod"]
    width = dom + mid + cod + 1
    rows = []
    for r in item["f"]:
        rows.append(r[:dom + mid] + [0] * cod + [r[-1]])
    for r in item["g"]:
        rows.append([0] * dom + r[:mid + cod] + [r[-1]])
    basis = (sp.Matrix(rows).nullspace() if rows
             else [sp.eye(width).col(k) for k in range(width)])
    keep = list(range(dom)) + list(range(dom + mid, width))
    return [[v[k] for k in keep] for v in basis]


def check_affine(item, result):
    import sympy as sp

    ref = affine_reference(item)
    got = [[sp.Rational(x.numerator, x.denominator) for x in v]
           for v in result[1]]
    r_ref, r_got = _span_rank(ref), _span_rank(got)
    if r_ref != r_got or _span_rank(ref + got) != r_ref:
        return "composite differs from the projected kernel"
    return None


CHECKS = {
    "ladder_json": check_ladder,
    "ladder_term": check_ladder,
    "random_json": check_random_circuit,
    "square": check_pass,
    "naturality": check_pass,
    "laws": check_laws,
    "affine": check_affine,
    "chain": check_chain,
}


def check(item, result):
    return CHECKS[item["kind"]](item, result)
