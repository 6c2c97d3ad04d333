"""Exact executable semantics for network diagram languages.

Circuits, corelations, signal-flow diagrams, and bond graphs are all
morphisms in props; this package evaluates their terms into concrete
behaviors (partitions, exact linear and affine relations over the
rationals and rational functions) and audits the equational theories
those behaviors satisfy.
"""

from .scalar import QQ, QS, FIELDS, RatFunc, Poly
from .term import (Gen, Id, Sym, Seq, Par, seq, par, parse_term,
                   format_term, evaluate, arity)
from .setprops import Corelation, Cospan, format_corel, parse_corel
from .circuit import LCircuit, load_circuit
from .linrel import LinRel, K_corel, blackbox, is_lagrangian, format_linrel
from .afflag import AffRel, aff_blackbox
from .sigflow import box_eval, translate_T, square_check
from .bondgraph import F_eval, G_eval, alpha, check_naturality

__version__ = "0.1.0"
