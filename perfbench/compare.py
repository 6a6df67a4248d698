#!/usr/bin/env python3
"""Summarize one result set, or compare two, per workload.

    python3 perfbench/compare.py A            # medians, quartiles, spreads
    python3 perfbench/compare.py A B          # B against A

A result set is a directory of the result files perfbench/run.py writes
(.bench_build/results/*.json; traces are ignored). For every workload it
prints each metric's median, quartiles and every run: the
end-to-end metrics and workload metrics from the untraced runs, the
per-layer metrics from the traced runs. With two sets it gives each median's
change, flags an end-to-end metric that got worse by more than its bound in
BENCHMARK.json, flags a per-layer metric that moved by more than its bound
in perfbench/layers.json, and reports tracing overhead (untraced against
traced throughput). Runs with "timing": "liveness" are never compared.
Exits 1 when anything was flagged.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """{workload: {"untraced": [result], "traced": [result]}}"""
    runs = {}
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            r = json.load(fh)
        if r.get("timing") != "full":
            continue
        w = runs.setdefault(r["workload"], {"untraced": [], "traced": []})
        w["traced" if r["trace"] else "untraced"].append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def series(results, section):
    out = {}
    for r in results:
        for name, m in r.get(section, {}).items():
            out.setdefault(name, []).append(m["value"])
    return out


def layer_bound(name, layers):
    for entry in layers["map"]:
        m = entry["metric"]
        if name == m or (m.endswith(".") and name.startswith(m)):
            return entry.get("bound", layers["default_bound"])
    return layers["default_bound"]


def fmt(v):
    return "%.6g" % v


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    a = load_set(sys.argv[1])
    b = load_set(sys.argv[2]) if len(sys.argv) == 3 else None
    flagged = []
    for workload in sorted(set(a) | set(b or {})):
        print("== %s" % workload)
        sections = [("untraced", "end_to_end"), ("untraced", "workload_metrics"),
                    ("traced", "per_layer")]
        for kind, section in sections:
            sa = series(a.get(workload, {}).get(kind, []), section)
            sb = series(b.get(workload, {}).get(kind, []), section) if b else {}
            for name in sorted(set(sa) | set(sb)):
                va, vb = sa.get(name, []), sb.get(name, [])
                if section == "per_layer" and not any(va + vb):
                    continue  # Layer not exercised by this workload.
                line = "  %-10s %-42s" % (section.split("_")[0], name)
                if va:
                    med, q1, q3, spread = summary(va)
                    line += " A med %s q1 %s q3 %s spread %.1f%% n=%d" % (
                        fmt(med), fmt(q1), fmt(q3), 100 * spread, len(va))
                if b and va and vb:
                    mb = statistics.median(vb)
                    change = (mb - med) / med if med else 0.0
                    line += " | B med %s (%+.1f%%)" % (fmt(mb), 100 * change)
                    if section == "end_to_end" and name in e2e:
                        lower = e2e[name]["better"] == "lower"
                        worse = change if lower else -change
                        if worse > e2e[name]["bound"]:
                            line += "  WORSE than bound %.2f" % e2e[name]["bound"]
                            flagged.append((workload, name))
                    elif section == "per_layer":
                        bound = layer_bound(name, layers)
                        if abs(change) > bound:
                            line += "  MOVED beyond bound %.2f" % bound
                            flagged.append((workload, name))
                print(line)
                if va and len(va) <= 12:
                    print("  %-10s %-42s   A runs: %s" % (
                        "", "", " ".join(fmt(v) for v in va)))
                if vb and len(vb) <= 12:
                    print("  %-10s %-42s   B runs: %s" % (
                        "", "", " ".join(fmt(v) for v in vb)))
        for label, s in (("A", a), ("B", b)):
            if not s or workload not in s:
                continue
            un = [r["end_to_end"]["throughput"]["value"]
                  for r in s[workload]["untraced"]]
            tr = [r["end_to_end"]["throughput"]["value"]
                  for r in s[workload]["traced"]]
            if un and tr:
                print("  tracing overhead %s: %+.1f%% (untraced %s, traced %s "
                      "median throughput)" % (
                          label,
                          100 * (statistics.median(un) / statistics.median(tr) - 1),
                          fmt(statistics.median(un)), fmt(statistics.median(tr))))
    if flagged:
        print("flagged: " + ", ".join("%s/%s" % f for f in flagged))
        sys.exit(1)


if __name__ == "__main__":
    main()
