#!/usr/bin/env python3
"""Compare e2e_bench result records of a parent and a change.

    compare.py PARENT_DIR CHANGE_DIR    per workload and metric: each side's
                                        median [q1, q3] and a verdict
    compare.py --summary DIR [--out F]  one side's medians and quartiles
                                        as JSON (e.g. results/baseline_*.json)

A directory holds the records bench/e2e/run.sh writes
(.bench_build/e2e/work/results/*.json). Records group by workload, trace
mode and thread count. Verdicts follow README.md ("Claiming a gain"):

  better      the change wins at least 9/10 of the pairs (runs of the same
              seed, ties counting for neither) and its median beats the
              parent's by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound (for a metric without a
              bound: the mirror of "better")
  unresolved  the parent's own spread exceeds the bound, so "unchanged"
              cannot be claimed
  unchanged   otherwise

Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_records(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if "workload" in record and "metrics" in record:
            records.append(record)
    if not records:
        sys.exit(f"no result records in {directory}")
    return records


def group_key(record):
    return (record["workload"], record["trace"], record["context"]["threads"])


def group(records):
    groups = {}
    for record in sorted(records, key=lambda r: (group_key(r), r["seed"])):
        groups.setdefault(group_key(record), []).append(record)
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(records):
    units = {}
    values = {}
    for record in records:
        for name, metric in record["metrics"].items():
            units[name] = metric["unit"]
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        out[name] = {
            "unit": units[name],
            "n": len(vals),
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_frac": (q3 - q1) / abs(med) if med else 0.0,
        }
    return out


def calib(records):
    return statistics.median(v for r in records for v in r["context"]["host_calib_ms"])


def key_name(key):
    workload, trace, threads = key
    return f"{workload}.trace{trace}.threads{threads}"


def summary_main(directory, out_path):
    doc = {"groups": {}}
    for key, records in group(load_records(directory)).items():
        first = records[0]["context"]
        doc["groups"][key_name(key)] = {
            "workload": key[0],
            "trace": key[1],
            "threads": key[2],
            "seeds": [r["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "context": {k: first[k] for k in ("git_rev", "compiler", "build_type",
                                              "host_cores")},
            "host_calib_ms_median": calib(records),
            "all_correct": all(r["correct"] for r in records),
            "metrics": summarize(records),
        }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def pairs(parent, change, name):
    by_seed = {}
    for record in parent:
        by_seed.setdefault(record["seed"], []).append(record["metrics"][name]["value"])
    out = []
    for record in change:
        if by_seed.get(record["seed"]):
            out.append((by_seed[record["seed"]].pop(0), record["metrics"][name]["value"]))
    return out


def verdict(p_vals, c_vals, matched, lower_better, bound):
    sign = -1.0 if lower_better else 1.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    iqr = p_q3 - p_q1
    wins = sum(1 for p, c in matched if sign * (c - p) > 0)
    losses = sum(1 for p, c in matched if sign * (c - p) < 0)
    need = 0.9 * len(matched)
    if matched and wins >= need and gain > iqr:
        return "better"
    if bound is None:
        return "worse" if matched and losses >= need and -gain > iqr else "unchanged"
    if -gain > bound * abs(p_med):
        return "worse"
    every_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if iqr > bound * abs(p_med) and not every_better:
        return "unresolved"
    return "unchanged"


def compare_main(parent_dir, change_dir):
    with open(BENCHMARK) as f:
        benchmark = json.load(f)
    meta = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parent = group(load_records(parent_dir))
    change = group(load_records(change_dir))
    fmt = "{:<14} {:<26} {:>34} {:>34}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "verdict"))
    for key in sorted(set(parent) & set(change)):
        p_recs, c_recs = parent[key], change[key]
        p_cal, c_cal = calib(p_recs), calib(c_recs)
        print(f"-- {key_name(key)}: {len(p_recs)} parent / {len(c_recs)} change runs;"
              f" host_calib_ms {p_cal:.1f} / {c_cal:.1f}")
        if abs(c_cal / p_cal - 1) > 0.05:
            print("   the host ran at different speeds on the two sides: rerun"
                  " before trusting these verdicts")
        for name in p_recs[0]["metrics"]:
            if name not in meta or name not in c_recs[0]["metrics"]:
                continue
            p_vals = [r["metrics"][name]["value"] for r in p_recs]
            c_vals = [r["metrics"][name]["value"] for r in c_recs]
            matched = pairs(p_recs, c_recs, name)
            v = verdict(p_vals, c_vals, matched, meta[name]["better"] == "lower",
                        meta[name].get("bound"))
            cells = []
            for vals in (p_vals, c_vals):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(fmt.format(key[0], name, cells[0], cells[1], v))
    for key in sorted(set(parent) ^ set(change)):
        print(f"-- {key_name(key)}: only on one side, not compared")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--summary", metavar="DIR")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args()
    if args.summary:
        summary_main(args.summary, args.out)
    elif len(args.dirs) == 2:
        compare_main(args.dirs[0], args.dirs[1])
    else:
        parser.error("give PARENT_DIR CHANGE_DIR, or --summary DIR")


if __name__ == "__main__":
    main()
