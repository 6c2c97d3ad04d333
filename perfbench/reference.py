"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on small virtual machines shared with other tenants,
whose speed wanders by up to a factor of two over minutes: on a 2-vCPU
Xeon guest the same pass of ``audit_q`` took from 0.73 to 1.72 s over ten
runs.  No statistic over one run removes that, because a slow spell
outlasts a run.  So the run times a short slice of this fixed code before
every item, and divides each item's time by how many times slower than
``SLICE_MS`` the slices of its pass ran.  Over the same runs the pass took
0.58 to 0.78 s at that reference speed.

The slice is plain Python of the kind the engine runs: Euclidean division
of polynomials with ``Fraction`` coefficients, and dictionary and list work
of a union-find.  It imports nothing from ``propnet``, so a change to the
engine cannot change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The time of one slice on an idle vCPU of the machine the seed record was
# taken on (Intel Xeon at 2.1 GHz, Python 3.11.7): times are reported as if
# the host ran at that speed.
SLICE_MS = 0.8


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        off = len(a) - len(b)
        for k, c in enumerate(b):
            a[off + k] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd(a, b):
    while b:
        a, b = b, _rem(a, b)
    return a


def _components(n):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(n):
        parent[find(k)] = find((k * 7) % n)
    return len({find(k) for k in range(n)})


_P = [Fraction(k % 7 + 1, k % 3 + 1) for k in range(5)]
_Q = [Fraction(k % 5 + 2, k % 4 + 1) for k in range(4)]
_R = [Fraction(3), Fraction(1, 2), Fraction(1)]


def run_slice():
    """Run one slice; its duration in seconds."""
    start = perf_counter()
    for _ in range(4):
        _gcd(_mul(_P, _R), _mul(_Q, _R))
    _components(300)
    return perf_counter() - start


class HostSpeed:
    """Slices run since the last ``take``; ``take`` returns how many times
    slower than ``SLICE_MS`` they ran on average."""

    def __init__(self):
        self.total = 0.0
        self.count = 0

    def tick(self):
        self.total += run_slice()
        self.count += 1

    def take(self):
        factor = self.total / self.count / (SLICE_MS / 1e3)
        self.total, self.count = 0.0, 0
        return factor
