"""Every committed benchmark record, ``BENCH_*.json`` at the repository
root, has the layout the records share: what changed, against which
commit, by which command, seed, host and run order, and a summary for
every workload that ``BENCHMARK.json`` declares."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("change", "parent_commit", "command", "seed", "host", "order",
        "summary")


def workloads():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def record_faults(record, names):
    """What a record lacks: each shared key, then each workload's summary."""
    faults = [f"no {key!r}" for key in KEYS if key not in record]
    summary = record.get("summary")
    if isinstance(summary, dict):
        faults += [f"no summary of {name}" for name in names
                   if not isinstance(summary.get(name), dict)]
    elif "summary" in record:
        faults.append("a summary that is not an object")
    return faults


def test_finds_what_a_record_lacks():
    whole = {key: "x" for key in KEYS} | {"summary": {"a": {}, "b": {}}}
    assert record_faults(whole, ["a", "b"]) == []
    assert record_faults({**whole, "summary": {"a": {}}}, ["a", "b"]) == \
        ["no summary of b"]
    partial = {k: v for k, v in whole.items() if k not in ("seed", "host")}
    assert record_faults(partial, ["a"]) == ["no 'seed'", "no 'host'"]
    assert record_faults({**whole, "summary": []}, ["a"]) == \
        ["a summary that is not an object"]


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_shared_layout(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record_faults(record, workloads()) == []
