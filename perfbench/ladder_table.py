"""Per-size table of ``propnet blackbox`` on RC ladders over Q(s).

    python3 perfbench/ladder_table.py [SECTIONS ...]

Run from the repository root.  Each ladder is the benchmark's 2-port RC
ladder (values 2 and 3) written as circuit JSON; each size is timed in
process through ``propnet.cli.main``, median of three runs (one run above
eight sections).  Prints one line per size and the log-log slope of time
against node count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
from run import import_engine  # noqa: E402
from tracing import loglog_slope  # noqa: E402


def main(argv=None):
    sizes = [int(a) for a in (argv or [])] or [1, 2, 4, 8, 16]
    engine = import_engine()
    points = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(
            os.path.abspath(__file__))) as tmp:
        for n in sizes:
            circ = inputs.ladder_circuit(n, ["2", "3"])
            path = os.path.join(tmp, f"ladder_{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.circuit_json(circ), fh)
            runs = []
            for _ in range(3 if n <= 8 else 1):
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    engine.cli.main(["blackbox", "--circuit", path])
                runs.append(time.perf_counter() - start)
            took = statistics.median(runs)
            points.append((circ[0], took))
            print(f"ladder-{n:<3d} nodes {circ[0]:3d}  {took:8.3f} s",
                  flush=True)
    print(f"log-log slope of time against nodes: {loglog_slope(points):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
