"""propnet benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload blackbox_qs --seed 1 --seconds 35 \
        --trace 0

Run from the repository root.  The engine is imported from ``src/``.  One
caller in one thread runs the workload's fixed item list (a *pass*) again
and again, each item starting when the previous one ends, until the time is
up and at least 100 items have run; only whole passes are run, so every run
sees the same item mix.  Items whose output is text go through
``propnet.cli.main`` in-process with stdout captured; relation-valued items
call the library.  Times are scaled to a reference speed measured between
items (see ``reference.py``).  After the timed region every distinct output
is checked (see ``check.py``).

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` the run first times untraced passes for a third of the time,
then traces whole passes and reports per-layer metrics per pass (see
``tracing.py``).
``--smoke`` runs a few small items of each kind, for tests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
from check import check  # noqa: E402
from reference import HostSpeed  # noqa: E402
from tracing import Tracer, loglog_slope  # noqa: E402

SETUP_REPEATS = 7
# Reference slices before and after each set-up, for its host factor.
SETUP_SLICES = 10
# Item runs an untraced run makes at least, so that at least ten lie beyond
# the 90th percentile.
MIN_SAMPLES = 100


class EngineMissing(RuntimeError):
    pass


def import_engine():
    """Import ``propnet`` afresh from this checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    for name in [n for n in sys.modules
                 if n == "propnet" or n.startswith("propnet.")]:
        del sys.modules[name]
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import propnet
        import propnet.cli
    except ImportError as exc:
        raise EngineMissing(f"cannot import propnet from {src}: {exc}")
    if not os.path.abspath(propnet.__file__).startswith(src + os.sep):
        raise EngineMissing(f"propnet imported from {propnet.__file__}, "
                            f"not from {src}")
    return propnet


def argv_of(item):
    kind = item["kind"]
    if kind == "square":
        return ["square", "--term", item["term"]]
    if kind == "laws":
        return ["laws", item["suite"], "--field", "q"]
    if kind == "naturality":
        return ["alpha", "--field", "q", "--term", item["term"]]
    return ["eval", "--model", "corel", "--field", "q", "--term", item["term"]]


def execute(engine, item, workdir):
    """Run one item; its result, or raise what the engine raised.

    Relations over Q(s) are returned as objects, not printed: the engine's
    printer misprints negated polynomial coefficients (see README.md)."""
    kind = item["kind"]
    if kind == "affine":
        qq, aff = engine.scalar.QQ, engine.afflag.AffRel
        f = aff.from_constraints(qq, item["dom"], item["mid"], item["f"])
        g = aff.from_constraints(qq, item["mid"], item["cod"], item["g"])
        return (0, [tuple(v) for v in f.compose(g).hspace.basis])
    if kind in ("ladder_json", "random_json"):
        # the dispatch of ``propnet blackbox``, without the printing
        circuit = engine.circuit.load_circuit(
            os.path.join(workdir, f"circuit_{item['id']}.json"))
        if any(lab.kind in engine.circuit.SOURCE_KINDS
               for _s, _t, lab in circuit.graph.edges):
            return (0, engine.afflag.aff_blackbox(circuit, engine.scalar.QS))
        return (0, engine.linrel.blackbox(circuit, engine.scalar.QS))
    if kind == "ladder_term":
        # the path of ``propnet eval --model linrel``, without the printing
        model = engine.linrel.CorelToLinRelModel(engine.scalar.QS)
        return (0, engine.term.evaluate(engine.term.parse_term(item["term"]),
                                        model))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = engine.cli.main(argv_of(item))
    return (rc, out.getvalue())


def run_pass(engine, items, workdir, samples, results, tracer=None):
    """One closed-loop pass, a reference slice before each item.  Appends
    (item id, seconds at reference speed, same output as the first pass)
    to samples; returns the pass's item seconds and its host factor."""
    speed = HostSpeed()
    took = []
    for item in items:
        speed.tick()
        if tracer is not None:
            tracer.item = item["id"]
        start = time.perf_counter()
        try:
            res = execute(engine, item, workdir)
        except (Exception, SystemExit) as exc:  # every failure is counted
            res = ("raised", type(exc).__name__)
        took.append(time.perf_counter() - start)
        first = results.setdefault(item["id"], res)
        samples.append([item["id"], took[-1], res == first])
    factor = speed.take()
    for sample in samples[-len(items):]:
        sample[1] /= factor
    return sum(took), factor


def run_passes(engine, items, workdir, seconds, results, tracer=None,
               on_pass=None, min_samples=0):
    """Whole passes until ``seconds`` is reached to within half a pass and
    there are ``min_samples`` samples.  Returns the samples, and the item
    seconds and host factor of each pass."""
    samples = []
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(engine, items, workdir, samples, results,
                               tracer))
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - start
        if (elapsed + 0.5 * elapsed / len(passes) >= seconds
                and len(samples) >= min_samples):
            return samples, passes


def setup(workload, seed, workdir, smoke):
    """Import the engine, write the inputs and warm up; one run of it."""
    engine = import_engine()
    items = inputs.make_items(workload, seed)
    if smoke:
        items = smoke_items(items)
    inputs.write_items(items, workdir)
    for item in warm_items(items):
        try:
            execute(engine, item, workdir)
        except (Exception, SystemExit):
            pass  # failures are counted in the timed passes
    return engine, items


def _size(item):
    return len(json.dumps(item, sort_keys=True))


def warm_items(items):
    """The smallest item of each kind."""
    best = {}
    for item in items:
        if item["kind"] not in best or _size(item) < _size(best[item["kind"]]):
            best[item["kind"]] = item
    return list(best.values())


def smoke_items(items):
    """The smallest item of each kind (with and without sources), one at
    three quarters of the size order, and the deepest chain."""
    def group(item):
        return (item["kind"], bool(item.get("source")))

    keep = []
    for key in sorted({group(it) for it in items}):
        same = sorted((it for it in items if group(it) == key), key=_size)
        keep += [same[0], same[3 * len(same) // 4]]
        if key[0] == "chain":
            keep.append(same[-1])
    for k, item in enumerate(keep):
        item["id"] = k
    return keep


def verify(items, results):
    """Check every distinct output; returns {item id: failure reason}."""
    bad = {}
    for item in items:
        res = results[item["id"]]
        if res[0] == "raised":
            bad[item["id"]] = f"raised {res[1]}"
            continue
        try:
            reason = check(item, res)
        except Exception as exc:  # output the checker cannot even read
            reason = f"unreadable output ({exc!r})"
        if reason is not None:
            bad[item["id"]] = reason
    return bad


def input_properties(items):
    """Input properties the per-layer metrics are read against."""
    repeats = edges = 0
    for item in items:
        if "circuit" in item:
            kv = [(e["label"]["kind"], e["label"].get("value"))
                  for e in item["circuit"]["edges"]]
        elif "labels" in item:
            kv = item["labels"]
        else:
            continue
        repeats += inputs.label_repeats(kv)
        edges += len(kv)
    depths = [item["depth"] for item in items if "depth" in item]
    return {"circuit.label_repeat_share": repeats / edges if edges else 0.0,
            "term.max_depth": max(depths, default=0)}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def end_to_end(samples, results, bad, setup_s, peak_mb):
    """End-to-end metrics and the failed count.

    Sample times are at reference speed (see ``reference.py``).  Each
    item's latency is its median over the run's passes, which keeps
    bursts of machine noise that hit a minority of passes out of the
    figures; every item runs once per pass, so the percentiles over items
    are the percentiles of a pass.  Throughput is the items that returned
    an output per second of a pass at those latencies.  Throughput and
    latency count every item that returned an output, right or wrong, so
    that they measure the engine's work; wrong outputs count as failed.
    """
    took = {}
    for item_id, seconds, _same in samples:
        took.setdefault(item_id, []).append(seconds)
    median = {i: statistics.median(ts) for i, ts in took.items()}
    done = [median[i] for i in took if results[i][0] != "raised"]
    lat = done or [0.0]
    failed = sum(1 for item_id, _took, same in samples
                 if not same or item_id in bad)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(done) / sum(median.values()), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": (quantile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, failed


def traced(engine, items, workdir, seconds, workload):
    """Untraced passes for a third of the time as the overhead baseline,
    then traced passes.  The spans of the last pass are written to
    ``spans.json``."""
    results = {}
    _samples, base = run_passes(engine, items, workdir, seconds / 3, results)
    spent = sum(took for took, _factor in base)
    tracer = Tracer()
    blackbox_s = {}
    last = []

    def fold():
        last[:] = tracer.take_spans()
        for span in last:
            if span[0] == "linrel.blackbox":
                blackbox_s.setdefault(span[4], []).append(span[2] - span[1])

    tracer.install()
    try:
        samples, passes = run_passes(
            engine, items, workdir, max(seconds - spent, 0), results,
            tracer, on_pass=fold)
    finally:
        tracer.uninstall()
    with open(os.path.join(workdir, "spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump([list(span) for span in last], fh)
    for line in tracer.missing:
        print(f"trace: {line} not found, not traced", file=sys.stderr)
    for line in tracer.coverage_violations(workload):
        print(f"trace: layer check on {workload}: {line}", file=sys.stderr)

    def pass_s(runs):
        return statistics.median(took / factor for took, factor in runs)

    overhead = pass_s(passes) / pass_s(base) - 1
    return results, samples, passes, overhead, tracer, blackbox_s


def layer_metrics(tracer, passes, overhead, throughput, items, blackbox_s,
                  props_in):
    """Per-layer metrics per pass of the traced run; self times at
    reference speed, by the median host factor of the traced passes."""
    c, t, p = tracer.counts, tracer.self_s, tracer.props
    factor = statistics.median(f for _took, f in passes)

    def per_pass(x):
        return x / len(passes)

    def share(num, den):
        return num / den if den else 0.0

    ladders = {it["id"]: it["circuit"]["nodes"] for it in items
               if it["kind"] == "ladder_json"}
    points = [(ladders[i], statistics.median(ts))
              for i, ts in blackbox_s.items() if i in ladders]
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in ("scalar.ratfunc", "scalar.poly_gcd", "exactla.rref",
                  "exactla.kernel", "linrel.compose", "linrel.tensor",
                  "linrel.blackbox", "afflag.compose", "afflag.tensor",
                  "afflag.aff_blackbox", "term.evaluate", "setprops.compose",
                  "circuit.compose", "sigflow.square_check",
                  "bondgraph.check_naturality", "cli.main"):
        put(f"{layer}.count", per_pass(c[layer]), "count")
    for layer in ("scalar.ratfunc", "scalar.poly_gcd", "exactla.rref",
                  "exactla.kernel", "linrel.compose", "linrel.tensor",
                  "linrel.blackbox", "afflag.compose",
                  "afflag.tensor", "afflag.aff_blackbox",
                  "term.evaluate", "term.arity", "term.parse",
                  "setprops.compose", "circuit.compose", "circuit.from_json",
                  "sigflow.translate", "sigflow.box_eval",
                  "bondgraph.check_naturality", "cli.main"):
        put(f"{layer}.self_s", per_pass(t[layer]) / factor, "s")
    put("scalar.ratfunc.const_share",
        share(p["ratfunc_const"], c["scalar.ratfunc"]), "ratio")
    put("scalar.poly_gcd.trivial_share",
        share(p["gcd_trivial"], c["scalar.poly_gcd"]), "ratio")
    put("scalar.max_degree", p["max_degree"], "degree")
    put("scalar.max_coeff_bits", p["max_coeff_bits"], "bits")
    put("exactla.rref.cells", per_pass(p["rref_cells"]), "count")
    put("exactla.rref.max_cols", p["rref_max_cols"], "count")
    put("exactla.rref.noop_share",
        share(p["rref_noop"], c["exactla.rref"]), "ratio")
    put("linrel.max_ambient", p["max_ambient"], "count")
    put("linrel.blackbox.size_slope", loglog_slope(points), "ratio")
    put("term.max_depth", props_in["term.max_depth"], "count")
    put("circuit.label_repeat_share",
        props_in["circuit.label_repeat_share"], "ratio")
    put("trace.items_per_s", throughput, "1/s")
    put("trace.overhead_ratio", overhead, "ratio")
    return out


def report(header, metrics, attempted, failed):
    print(header)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6g} ratio")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    workdir = os.path.join(BENCH, "_work", f"{args.workload}-{args.seed}")

    setups = []
    speed = HostSpeed()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        for _ in range(SETUP_SLICES):
            speed.tick()
        start = time.perf_counter()
        try:
            engine, items = setup(args.workload, args.seed, workdir,
                                  args.smoke)
        except EngineMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        took = time.perf_counter() - start
        for _ in range(SETUP_SLICES):
            speed.tick()
        setups.append(took / speed.take())
    setup_s = statistics.median(setups)

    if args.trace:
        results, samples, passes, overhead, tracer, blackbox_s = traced(
            engine, items, workdir, args.seconds, args.workload)
    else:
        results = {}
        samples, passes = run_passes(
            engine, items, workdir, args.seconds, results,
            min_samples=0 if args.smoke else MIN_SAMPLES)
    # before the checks, which load sympy
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(workdir, "samples.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"setups": setups, "passes": passes, "samples": samples},
                  fh)
    bad = verify(items, results)
    metrics, failed = end_to_end(samples, results, bad, setup_s, peak_mb)
    if args.trace:
        metrics = layer_metrics(tracer, passes, overhead,
                                metrics["items_per_s"][0], items, blackbox_s,
                                input_properties(items))
    wrong = [i for i in bad if results[i][0] != "raised"]
    for item_id, reason in sorted(bad.items()):
        item = next(it for it in items if it["id"] == item_id)
        print(f"perfbench: item {item_id} ({item['kind']}): {reason}",
              file=sys.stderr)
    factor = statistics.median(f for _took, f in passes)
    report(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
           f"{len(items)} items in {sum(t for t, _f in passes):.2f} s, "
           f"host {factor:.3f} times slower than reference speed"
           + (" (traced)" if args.trace else ""),
           metrics, len(samples), failed)
    print(json.dumps({
        "correct": not wrong and all(same for _i, _t, same in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
