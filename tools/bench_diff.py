#!/usr/bin/env python3
"""Validate and diff the JSON documents emitted by the bench sweeps.

The sweep modes of bench_micro_pim (--batch_sweep, --fault_sweep,
--shard_sweep) all emit one JSON object with scalar header fields and a
"sweep" list of flat entries. This tool works on that shape:

  bench_diff.py --validate BENCH_shard.json
      Checks the document parses and, for known schemas, that every sweep
      entry carries the schema's required fields. Exit 0 on success.

--validate also accepts the telemetry documents written by
`pimine_serve replay --timeseries_out` (schema pimine.obs.timeseries.v1):
those are header + series + slo rather than header + sweep, and are
checked structurally (point arity per series type, retention header,
slo block) instead of per-entry.

  bench_diff.py old.json new.json
      Matches sweep entries between the two documents by their key fields
      (shards/q/rate — whatever identifies a configuration) and prints the
      absolute and relative change of every shared numeric metric. Exits 1
      when the headers disagree (different workload), 0 otherwise: the diff
      is informational, thresholds are the caller's business.

  bench_diff.py --exact old.json new.json
      The gate for modeled fields. Both documents must share a known
      schema; every numeric or boolean field of the header, of every sweep
      entry and, when both documents carry one, of every chaos_sweep entry
      must be equal, except the schema's wall fields (host-timed, so
      noisy). Entries are matched by their key fields; an entry present in
      one document only is a change. Exits 1 on any change, 0 otherwise.

stdlib only; no third-party imports.
"""

import argparse
import json
import sys

# Fields that identify one sweep configuration (matched between files) and
# fields every entry must carry, per schema. Documents without a recognised
# schema fall back to positional matching and parse-only validation.
SCHEMAS = {
    "pimine.bench.shard.v1": {
        "keys": ["shards", "q"],
        "required": [
            "shards", "q", "crossbars_per_shard", "wall_ms", "queries_per_s",
            "modeled_pipelined_ns", "interconnect_ns",
            "modeled_queries_per_s", "interconnect_fraction",
            "identical_to_single_device",
        ],
        "header": ["n", "d", "total_queries"],
        # Host-timed fields: reported by the diff, skipped by --exact.
        "wall": ["wall_ms", "queries_per_s"],
    },
    "pimine.bench.serve.v1": {
        "keys": ["load_factor"],
        "required": [
            "load_factor", "offered_qps", "served", "rejected", "dispatches",
            "mean_batch_occupancy", "makespan_ms", "modeled_queries_per_s",
            "pipelined_ns", "wait_p50_ns", "latency_p50_ns", "latency_p99_ns",
            "wall_ms",
        ],
        "header": ["n", "d", "requests", "max_batch", "device_batch"],
        "wall": ["wall_ms"],
        # Optional replica-failover sweep (bench_serve --chaos). Entries are
        # matched by the death count; every row must carry the balance
        # counters and must actually balance (injected == recovered + shed).
        "chaos_keys": ["deaths"],
        "chaos_required": [
            "deaths", "shards", "replicas", "served", "shed_queries",
            "degraded_dispatches", "injected", "recovered", "shed_ops",
            "attempts_failed", "slack_fills", "balanced",
        ],
    },
    "pimine.bench.mutation.v1": {
        "keys": ["insert_batch", "watermark"],
        "required": [
            "insert_batch", "watermark", "steps", "queries_run", "final_live",
            "appended_rows", "deleted_rows", "compactions", "compacted_rows",
            "residual_delta_rows", "residual_tombstones", "row_writes",
            "naive_row_writes", "write_savings", "worn_rows",
            "identical_to_fresh_program", "wall_ms",
        ],
        "header": ["n", "d", "base_rows", "stream_rows", "k", "queries"],
        "wall": ["wall_ms"],
    },
}


# The rolling-telemetry document of the serving layer (obs::TimeSeries).
# Not a sweep: one header, a "series" map of sparse per-window points, and
# the SLO burn-rate block. Point arity is fixed per series type.
TIMESERIES_SCHEMA = "pimine.obs.timeseries.v1"
TIMESERIES_HEADER = ["schema", "window_ns", "num_windows", "oldest_window",
                     "newest_window", "dropped_late", "series", "slo"]
TIMESERIES_SLO = ["bad", "total", "budget", "short_windows", "long_windows",
                  "short_burn", "long_burn"]
# counter point: [window, count, rate_per_s]
# histogram point: [window, count, sum_ticks, max_ticks, p50, p99]
TIMESERIES_POINT_ARITY = {"counter": 3, "histogram": 6}


def validate_timeseries(path, doc):
    missing = [f for f in TIMESERIES_HEADER if f not in doc]
    if missing:
        sys.exit(f"error: {path}: missing timeseries fields {missing}")
    missing_slo = [f for f in TIMESERIES_SLO if f not in doc["slo"]]
    if missing_slo:
        sys.exit(f"error: {path}: slo block missing {missing_slo}")
    if not isinstance(doc["series"], dict):
        sys.exit(f"error: {path}: 'series' is not an object")
    oldest, newest = doc["oldest_window"], doc["newest_window"]
    points = 0
    for name, series in sorted(doc["series"].items()):
        arity = TIMESERIES_POINT_ARITY.get(series.get("type"))
        if arity is None:
            sys.exit(f"error: {path}: series '{name}' has unknown type "
                     f"'{series.get('type')}'")
        for p in series.get("points", []):
            if not isinstance(p, list) or len(p) != arity:
                sys.exit(f"error: {path}: series '{name}' point {p} is not "
                         f"a {arity}-element list")
            if not oldest <= p[0] <= newest:
                sys.exit(f"error: {path}: series '{name}' window {p[0]} "
                         f"outside retention [{oldest}, {newest}]")
            points += 1
    print(f"{path}: valid ({TIMESERIES_SCHEMA}, {len(doc['series'])} series, "
          f"{points} points)")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot load {path}: {e}")
    if not isinstance(doc, dict):
        sys.exit(f"error: {path} is not a JSON object")
    if doc.get("schema") == TIMESERIES_SCHEMA:
        return doc
    if not isinstance(doc.get("sweep"), list):
        sys.exit(f"error: {path} is not a bench sweep document "
                 "(object with a 'sweep' list)")
    return doc


def schema_of(doc):
    return SCHEMAS.get(doc.get("schema") or doc.get("bench"))


def validate(path):
    doc = load(path)
    if doc.get("schema") == TIMESERIES_SCHEMA:
        validate_timeseries(path, doc)
        return
    schema = schema_of(doc)
    if schema is None:
        print(f"{path}: parses; unknown schema "
              f"'{doc.get('schema') or doc.get('bench')}' (parse-only check)")
        return
    missing_header = [f for f in schema["header"] if f not in doc]
    if missing_header:
        sys.exit(f"error: {path}: missing header fields {missing_header}")
    for i, entry in enumerate(doc["sweep"]):
        missing = [f for f in schema["required"] if f not in entry]
        if missing:
            sys.exit(f"error: {path}: sweep[{i}] missing fields {missing}")
    if not doc["sweep"]:
        sys.exit(f"error: {path}: empty sweep")
    chaos = doc.get("chaos_sweep")
    if chaos is not None and "chaos_required" in schema:
        if not isinstance(chaos, list) or not chaos:
            sys.exit(f"error: {path}: chaos_sweep is not a non-empty list")
        for i, entry in enumerate(chaos):
            missing = [f for f in schema["chaos_required"] if f not in entry]
            if missing:
                sys.exit(f"error: {path}: chaos_sweep[{i}] missing fields "
                         f"{missing}")
            if entry.get("injected") != (entry.get("recovered", 0) +
                                         entry.get("shed_ops", 0)):
                sys.exit(f"error: {path}: chaos_sweep[{i}] failover counters "
                         f"do not balance (injected != recovered + shed_ops)")
            if entry.get("balanced") is not True:
                sys.exit(f"error: {path}: chaos_sweep[{i}] reports "
                         "balanced=false")
    chaos_note = (f", {len(chaos)} chaos entries" if chaos else "")
    print(f"{path}: valid ({doc.get('schema') or doc.get('bench')}, "
          f"{len(doc['sweep'])} entries{chaos_note})")


def entry_key(entry, keys):
    return tuple(entry.get(k) for k in keys)


def diff(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if TIMESERIES_SCHEMA in (old.get("schema"), new.get("schema")):
        # Telemetry documents carry the determinism contract: they are
        # either identical or the replay diverged — no tolerance band.
        if old == new:
            print("timeseries documents identical")
            return
        for field in TIMESERIES_HEADER:
            if old.get(field) != new.get(field) and field != "series":
                print(f"timeseries mismatch: {field}: "
                      f"{old.get(field)} -> {new.get(field)}")
        only_old = sorted(set(old.get("series", {})) - set(new.get("series", {})))
        only_new = sorted(set(new.get("series", {})) - set(old.get("series", {})))
        if only_old:
            print(f"series only in {old_path}: {only_old}")
        if only_new:
            print(f"series only in {new_path}: {only_new}")
        for name in sorted(set(old.get("series", {})) & set(new.get("series", {}))):
            if old["series"][name] != new["series"][name]:
                print(f"series '{name}' diverged")
        sys.exit(1)
    schema = schema_of(old)
    keys = schema["keys"] if schema else []
    header = schema["header"] if schema else []

    mismatched = [f for f in header if old.get(f) != new.get(f)]
    if mismatched:
        for f in mismatched:
            print(f"header mismatch: {f}: {old.get(f)} -> {new.get(f)}")
        sys.exit(1)

    diff_entries(old["sweep"], new["sweep"], keys, old_path)

    # Optional chaos_sweep (bench_serve --chaos): diffed when both documents
    # carry one; a one-sided chaos_sweep is reported but not an error (the
    # plain and --chaos modes of the same bench).
    old_chaos, new_chaos = old.get("chaos_sweep"), new.get("chaos_sweep")
    if old_chaos and new_chaos:
        print("chaos_sweep:")
        diff_entries(old_chaos, new_chaos,
                     (schema or {}).get("chaos_keys", []), old_path)
    elif old_chaos or new_chaos:
        which = old_path if old_chaos else new_path
        print(f"chaos_sweep only in {which}")


def diff_entries(old_sweep, new_sweep, keys, old_path):
    if keys:
        new_by_key = {entry_key(e, keys): e for e in new_sweep}
        pairs = [(e, new_by_key.get(entry_key(e, keys))) for e in old_sweep]
    else:
        pairs = list(zip(old_sweep, new_sweep))

    for old_entry, new_entry in pairs:
        label = (", ".join(f"{k}={old_entry.get(k)}" for k in keys)
                 if keys else "entry")
        if new_entry is None:
            print(f"[{label}] only in {old_path}")
            continue
        print(f"[{label}]")
        for field, old_value in old_entry.items():
            if field in keys or not isinstance(old_value, (int, float)) \
                    or isinstance(old_value, bool):
                continue
            new_value = new_entry.get(field)
            if not isinstance(new_value, (int, float)):
                continue
            delta = new_value - old_value
            rel = f" ({delta / old_value:+.1%})" if old_value else ""
            marker = "  " if delta == 0 else "* "
            print(f"  {marker}{field}: {old_value} -> {new_value}{rel}")


def is_exact_field(value):
    return isinstance(value, (int, float, bool))


def exact_changes(label, old, new, wall):
    """Non-wall numeric/boolean fields of two flat objects that differ."""
    changes = []
    for field in sorted(set(old) | set(new)):
        if field in wall:
            continue
        old_value, new_value = old.get(field), new.get(field)
        if not (is_exact_field(old_value) or is_exact_field(new_value)):
            continue
        # True == 1 in Python, so a type change is a change too.
        if field not in old or field not in new or \
                isinstance(old_value, bool) != isinstance(new_value, bool) or \
                old_value != new_value:
            changes.append(f"{label}: {field}: {old_value} -> {new_value}")
    return changes


def exact(old_path, new_path):
    old, new = load(old_path), load(new_path)
    if TIMESERIES_SCHEMA in (old.get("schema"), new.get("schema")):
        diff(old_path, new_path)  # exits 1 unless identical.
        return
    schema = schema_of(old)
    if schema is None or schema_of(new) is not schema:
        sys.exit(f"error: --exact needs two documents of one known schema "
                 f"({old.get('schema')} vs {new.get('schema')})")
    wall = set(schema["wall"])
    changes = exact_changes("header", old, new, wall)
    compared = ["header"]
    for section, keys in (("sweep", schema["keys"]),
                          ("chaos_sweep", schema.get("chaos_keys", []))):
        old_entries, new_entries = old.get(section), new.get(section)
        if not old_entries or not new_entries:
            if old_entries or new_entries:
                which = old_path if old_entries else new_path
                print(f"{section} only in {which}: not compared")
            continue
        compared.append(f"{len(old_entries)} {section} entries")
        old_by_key = {entry_key(e, keys): e for e in old_entries}
        new_by_key = {entry_key(e, keys): e for e in new_entries}
        for key in sorted(set(old_by_key) | set(new_by_key), key=str):
            label = section + "[" + ", ".join(
                f"{k}={v}" for k, v in zip(keys, key)) + "]"
            if key not in old_by_key or key not in new_by_key:
                which = old_path if key in old_by_key else new_path
                changes.append(f"{label}: only in {which}")
                continue
            changes.extend(exact_changes(label, old_by_key[key],
                                         new_by_key[key], wall))
    if changes:
        for change in changes:
            print(f"changed {change}")
        sys.exit(f"error: {len(changes)} modeled field(s) of {new_path} "
                 f"differ from {old_path}")
    print(f"{new_path}: every non-wall field equals {old_path} "
          f"({', '.join(compared)}; wall fields skipped: "
          f"{', '.join(sorted(wall))})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--validate", metavar="FILE",
                        help="schema-check one bench JSON and exit")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any change to a non-wall field")
    parser.add_argument("files", nargs="*", metavar="OLD NEW",
                        help="two bench JSONs to diff")
    args = parser.parse_args()
    if args.validate:
        if args.files or args.exact:
            parser.error("--validate takes exactly one file")
        validate(args.validate)
    elif len(args.files) == 2:
        (exact if args.exact else diff)(args.files[0], args.files[1])
    else:
        parser.error("pass --validate FILE or exactly two files to diff")


if __name__ == "__main__":
    main()
