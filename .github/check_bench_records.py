"""Checks BENCH_*.json records (the schema `crates/bench/src/record.rs`
writes).

Usage: python3 .github/check_bench_records.py FILE...

Every file must parse as a record, with min <= median <= max on each
measured metric and every throughput, latency and higher-is-better ratio
above 0, and every invariant must hold. A committed record must be
stamped: its commit and generated_at may not read "unknown". For a smoke
file, BENCH_<name>_smoke.json, the committed BENCH_<name>.json is checked
too, and the smoke record must name the same metrics in the same order
and report every `.p99_us` at or above its `.p50_us`.
"""
import json
import sys


def load(path):
    rec = json.load(open(path))
    assert isinstance(rec["commit"], str) and isinstance(rec["generated_at"], str), path
    assert rec["hardware_threads"] >= 1, path
    assert all(isinstance(v, (int, float)) for v in rec["params"].values()), path
    for m in rec["metrics"]:
        if m["kind"] == "invariant":
            assert m["holds"] is True, (path, m["name"], "invariant does not hold")
        else:
            assert m["kind"] in ("throughput", "latency", "ratio"), (path, m)
            assert m["better"] in ("higher", "lower") and m["unit"], (path, m)
            assert m["repeats"] >= 1 and m["min"] <= m["median"] <= m["max"], (path, m)
            if m["kind"] != "ratio" or m["better"] == "higher":
                assert m["median"] > 0, (path, m)
    return rec


def check_committed(path):
    rec = load(path)
    for key in ("commit", "generated_at"):
        assert rec[key] != "unknown", (path, key, "committed record is not stamped")
    return rec


def check_smoke(path):
    rec = load(path)
    committed = check_committed(path.replace("_smoke.json", ".json"))
    names = [m["name"] for m in rec["metrics"]]
    assert names == [m["name"] for m in committed["metrics"]], (path, names)
    by_name = {m["name"]: m for m in rec["metrics"]}
    for m in rec["metrics"]:
        if m["name"].endswith(".p99_us"):
            p50 = by_name[m["name"][: -len("p99_us")] + "p50_us"]
            assert m["median"] >= p50["median"] >= 0, (path, m, p50)
    return rec


for path in sys.argv[1:]:
    rec = check_smoke(path) if path.endswith("_smoke.json") else check_committed(path)
    print("%s ok: %d metrics, params %s" % (path, len(rec["metrics"]), rec["params"]))
