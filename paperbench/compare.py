#!/usr/bin/env python3
"""Collect bench_paper runs and judge them against BENCHMARK.json's bounds.

collect — run the benchmark over seeds and workloads on one or two
checkouts, alternating which side runs first for each seed, and append
every run (run.py --record) to that side's JSON-lines file:

    python3 paperbench/compare.py collect --seeds 1-10 \\
        --side .:A.jsonl --side .:B.jsonl [--workloads serve,cluster]

agree — two sets of runs of the same commit: per workload and end-to-end
metric, each set's median and IQR (as a share of its median), and whether
the spreads (all but setup_s's) and the shift between the medians stay
within the metric's bound; beside it the shift of the unscaled raw.* twin
and the host-speed diagnostics, for the record:

    python3 paperbench/compare.py agree A.jsonl B.jsonl

claim — a change's gain on one metric of one workload, by the pair rule:
at least ten seed-matched pairs, the change wins at least nine tenths of
them (ties count for neither), and the medians differ by more than the
parent's IQR. Every other metric/workload pair gets the no-worse check:
the change's median may not be worse than the parent's by more than the
bound; where the spread exceeds the bound the pair is unresolved unless
every change run beats every parent run. The claimed gain must also show
before host-speed scaling (the raw.* twin's median is better and it wins
more than half the pairs), and the change's runs must not disturb the
speed probe (host.probe_interference at most MAX_PROBE_INTERFERENCE):

    python3 paperbench/compare.py claim PARENT.jsonl CHANGE.jsonl \\
        --workload reinspect --metric job_p50_s

summary — the medians (and spreads) of a set of runs, end-to-end metrics
from untraced runs and per-layer metrics from traced ones, with the host
they ran on; BENCH_paper.json is this output for the defining runs:

    python3 paperbench/compare.py summary A.jsonl [more.jsonl ...]

agree and claim exit 1 when the check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
# A change's runs with more probe interference than this (the share of the
# probes' CPU the rest of the process used while they ran; bench_paper warns
# above it too) cannot carry a claim: their host-speed scaling is suspect.
MAX_PROBE_INTERFERENCE = 0.10


def load(path):
    """{workload: {metric: [(seed, value), ...]}} of the untraced runs,
    with every metric they printed (the unscaled raw.* twins and the host.*
    diagnostics too)."""
    runs = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"] != 0:
            continue
        metrics = rec.get("all_metrics") or rec["result"]["metrics"]
        for name, metric in metrics.items():
            runs[rec["workload"]][name].append((rec["seed"], metric["value"]))
    return runs


def values(runs, workload, name):
    return [v for _, v in runs[workload].get(name, [])]


def median_or_none(vals):
    return statistics.median(vals) if vals else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def cmd_collect(args):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in SPEC["workloads"]])
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sides = [s.split(":", 1) for s in args.side]
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for checkout, out in order:
                cmd = [sys.executable, "paperbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(SPEC["run_seconds"]), "--trace", str(args.trace),
                       "--record", str(Path(out).resolve())]
                proc = subprocess.run(cmd, cwd=checkout,
                                      stdout=subprocess.PIPE, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["<none>"]
                print(f"{checkout} {workload} seed={seed} "
                      f"exit={proc.returncode} {last[0][:120]}", flush=True)


def improves(new, old, better):
    return new < old if better == "lower" else new > old


def cmd_agree(args):
    a, b = load(args.first), load(args.second)
    ok = True
    print(f"{'workload':10} {'metric':15} {'median A':>12} {'IQR A':>7} "
          f"{'median B':>12} {'IQR B':>7} {'shift':>7} {'bound':>6} "
          f"{'raw':>7}  verdict")
    for workload in sorted(set(a) & set(b)):
        for name, spec in E2E.items():
            va, vb = values(a, workload, name), values(b, workload, name)
            if not va or not vb:
                continue
            bound = spec["bound"]
            sa, sb = spread(va), spread(vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            shift = worse_by(mb, ma, spec["better"])
            # The same shift before host-speed scaling, for the record.
            ra = median_or_none(values(a, workload, "raw." + name))
            rb = median_or_none(values(b, workload, "raw." + name))
            raw = (f"{worse_by(rb, ra, spec['better']):7.2%}"
                   if ra and rb else f"{'-':>7}")
            good = shift <= bound and (name == "setup_s" or
                                       (sa <= bound and sb <= bound))
            steady = name == "setup_s" or max(sa, sb) < bound / 3
            verdict = ("ok" if good else "FAIL") + ("" if steady else
                                                    " (spread > bound/3)")
            ok = ok and good
            print(f"{workload:10} {name:15} {ma:12.6g} {sa:7.2%} "
                  f"{mb:12.6g} {sb:7.2%} {shift:7.2%} {bound:6.2f} "
                  f"{raw}  {verdict}  n={len(va)}/{len(vb)}")
        host = []
        for name in ("host.slowdown", "host.probe_interference",
                     "host.gate_wait_share"):
            ha = median_or_none(values(a, workload, name))
            hb = median_or_none(values(b, workload, name))
            if ha is not None and hb is not None:
                host.append(f"{name} {ha:.4g}/{hb:.4g}")
        if host:
            print(f"{workload:10} medians A/B: " + ", ".join(host))
    return 0 if ok else 1


def cmd_claim(args):
    parent, change = load(args.parent), load(args.change)
    spec = E2E[args.metric]
    better = spec["better"]
    p = dict(parent[args.workload][args.metric])
    c = dict(change[args.workload][args.metric])
    seeds = sorted(set(p) & set(c))
    wins = sum(1 for s in seeds if improves(c[s], p[s], better))
    pv, cv = list(p.values()), list(c.values())
    q1, pm, q3 = quartiles(pv)
    cm = statistics.median(cv)
    gap = pm - cm if better == "lower" else cm - pm
    met = len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gap > q3 - q1
    print(f"claim {args.workload}/{args.metric}: pairs={len(seeds)} "
          f"wins={wins} parent median={pm:.6g} (IQR {q3 - q1:.6g}) "
          f"change median={cm:.6g} gain={gap:.6g} -> "
          f"{'MET' if met else 'NOT MET'}")

    # Reported times are scaled by the host-speed probe. A gain that the
    # scaling alone makes — the change disturbing the probe — does not
    # show in the unscaled twin of the metric or shows as interference.
    raw = "raw." + args.metric
    rp = dict(parent[args.workload].get(raw, []))
    rc = dict(change[args.workload].get(raw, []))
    raw_seeds = sorted(set(rp) & set(rc))
    if raw_seeds:
        raw_wins = sum(1 for s in raw_seeds if improves(rc[s], rp[s], better))
        raw_met = (improves(statistics.median(rc.values()),
                            statistics.median(rp.values()), better)
                   and raw_wins > len(raw_seeds) / 2)
        print(f"  unscaled {raw}: wins={raw_wins}/{len(raw_seeds)} parent "
              f"median={statistics.median(rp.values()):.6g} change "
              f"median={statistics.median(rc.values()):.6g} -> "
              f"{'agrees' if raw_met else 'DISAGREES'}")
        met = met and raw_met
    interference = median_or_none(
        values(change, args.workload, "host.probe_interference"))
    if interference is not None:
        clean = interference <= MAX_PROBE_INTERFERENCE
        print(f"  change's probe interference median={interference:.4f} "
              f"(limit {MAX_PROBE_INTERFERENCE}) -> "
              f"{'ok' if clean else 'SCALING SUSPECT'}")
        met = met and clean

    regressed = False
    for workload in sorted(set(parent) & set(change)):
        for name, s in E2E.items():
            if (workload, name) == (args.workload, args.metric):
                continue
            pv = values(parent, workload, name)
            cv = values(change, workload, name)
            if not pv or not cv:
                continue
            shift = worse_by(statistics.median(cv), statistics.median(pv),
                             s["better"])
            noisy = max(spread(pv), spread(cv)) > s["bound"]
            all_better = (max(cv) < min(pv) if s["better"] == "lower"
                          else min(cv) > max(pv))
            if noisy and not all_better:
                verdict = "unresolved"
            elif shift > s["bound"]:
                verdict = "WORSE"
                regressed = True
            else:
                verdict = "no worse"
            print(f"  {workload:10} {name:15} shift={shift:7.2%} "
                  f"bound={s['bound']:.2f} {verdict}")
    return 0 if met and not regressed else 1


def cmd_summary(args):
    records = [json.loads(line) for path in args.files
               for line in Path(path).read_text().splitlines() if line.strip()]
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    out = {"bench": "paper", "run_seconds": SPEC["run_seconds"],
           "host": records[0].get("host", {}) if records else {},
           "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        mine = [r for r in records if r["workload"] == workload]
        entry = {"runs": sum(1 for r in mine if r["trace"] == 0),
                 "traced_runs": sum(1 for r in mine if r["trace"] == 1),
                 "end_to_end": {}, "per_layer": {}}
        for name, spec in E2E.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine
                      if r["trace"] == 0]
            if values:
                entry["end_to_end"][name] = {
                    "median": statistics.median(values),
                    "iqr_share": round(spread(values), 4),
                    "unit": spec["unit"]}
        for name, unit in layer_units.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine
                      if r["trace"] == 1]
            if values:
                entry["per_layer"][name] = {
                    "median": statistics.median(values), "unit": unit}
        out["workloads"][workload] = entry
    print(json.dumps(out, indent=2))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--seeds", required=True, help="e.g. 1-10")
    p.add_argument("--side", action="append", required=True,
                   help="CHECKOUT:OUT.jsonl (once or twice)")
    p.add_argument("--workloads")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("agree")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("claim")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--metric", required=True)
    args = parser.parse_args()
    modes = {"collect": cmd_collect, "agree": cmd_agree,
             "claim": cmd_claim, "summary": cmd_summary}
    return modes[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
