"""Run the mvre benchmark over many seeds, report it, and compare two sets.

    python3 perfbench/suite.py run --out-dir DIR [--traced 1] [--side NAME=ROOT ...]
    python3 perfbench/suite.py report FILE.jsonl
    python3 perfbench/suite.py compare PARENT.jsonl CHANGE.jsonl

``run`` starts ``run.py`` once per (seed, workload) in its own process, one
at a time, for seeds 1-10 untraced and the first ``--traced`` seeds traced,
on every workload of BENCHMARK.json. It appends each result to
``DIR/NAME.jsonl``; then it prints the report. Each side is the root of a
source checkout holding this benchmark directory (default: this checkout,
named ``current``). With two sides, the runs of a seed alternate which side
goes first.

``report`` prints, per workload, every end-to-end metric with its median,
quartiles and spread (IQR / median) against a third of the metric's bound,
then the per-layer medians of the traced runs and the traced-run report:
self time per module, the unattributed share of wall time, and the tracing
overhead (traced / untraced ops/s).

``compare`` prints one row per (workload, end-to-end metric), pairing runs
by seed: ``improved`` when there are at least ten pairs, the change wins at
least 9 in 10 of them and the medians differ by more than the parent's IQR;
``regressed`` when the change's median is worse than the parent's by more
than the bound; ``unresolved`` when the parent's spread is wider than the
bound and not every change run beats every parent run; ``unchanged``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUNS = 10


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} without a "
                           f"result:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])
    record.update(exit=proc.returncode, result=json.loads(lines[-1]))
    return record


def cmd_run(args) -> int:
    sides = dict(s.split("=", 1) for s in args.side) or {"current": str(ROOT)}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {name: out / f"{name}.jsonl" for name in sides}
    seconds = BENCHMARK["run_seconds"]
    plan = [(seed, 0) for seed in range(1, RUNS + 1)]
    plan += [(seed, 1) for seed in range(1, args.traced + 1)]
    for n, (seed, trace) in enumerate(plan):
        order = list(sides) if n % 2 == 0 else list(sides)[::-1]
        for workload in WORKLOADS:
            for name in order:
                rec = run_one(Path(sides[name]), workload, seed, seconds, trace)
                with open(files[name], "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"{name} {workload} seed={seed} trace={trace} exit={rec['exit']}",
                      file=sys.stderr, flush=True)
    failed = False
    for name, path in files.items():
        print(f"== {name}: {path}")
        failed |= report(load(path))
    return 1 if failed else 0


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records, workload, trace, metric) -> list[tuple[int, float]]:
    return sorted((r["seed"], r["result"]["metrics"][metric]["value"]) for r in records
                  if r["workload"] == workload and r["trace"] == trace
                  and metric in r["result"]["metrics"])


def spread(xs) -> tuple[float, float, float, float]:
    """Median, quartiles and (q3 - q1) / median, as the acceptance check takes them."""
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def report(records) -> bool:
    """Print the report; return True if any run failed a check."""
    failed = any(not r["result"]["correct"] or r["exit"] != 0 for r in records)
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    for wl in workloads:
        runs = [r for r in records if r["workload"] == wl and r["trace"] == 0]
        print(f"\n{wl}: {len(runs)} runs, "
              f"{sum(r['result']['failed'] for r in runs)} of "
              f"{sum(r['result']['attempted'] for r in runs)} ops failed")
        print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound/3':>8s}")
        for name, spec in END_TO_END.items():
            xs = [v for _, v in values(records, wl, 0, name)]
            if not xs:
                continue
            med, q1, q3, sp = spread(xs)
            mark = "" if sp < spec["bound"] / 3 else "  WIDE"
            print(f"  {name:14s} {spec['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{sp:8.4f} {spec['bound'] / 3:8.4f}{mark}")
        if runs:
            n_lat = [r["samples"]["op_latencies"] for r in runs]
            print(f"  op latency samples per run: {min(n_lat)}-{max(n_lat)}")
        traced = [r for r in records if r["workload"] == wl and r["trace"] == 1]
        if traced:
            trace_report(traced)
    return failed


def trace_report(traced):
    names = list(traced[0]["result"]["metrics"])
    med = {n: statistics.median(r["result"]["metrics"][n]["value"] for r in traced)
           for n in names}
    unit = traced[0]["result"]["metrics"]
    # spans run on the tracer's clock, which stops while it counts
    wall_ms = statistics.median(
        1e3 * (r["samples"]["wall_s"] - r["samples"]["paused_s"]) / r["samples"]["ops"]
        for r in traced)
    print(f"  traced ({len(traced)} runs): {wall_ms:.4g} ms/op in library calls, "
          f"counting excluded")
    print(f"    {'module':14s} {'self ms/op':>10s} {'share':>7s}")
    total = 0.0
    for m in (n[: -len(".self_ms")] for n in names if n.endswith(".self_ms")):
        share = med[f"{m}.self_ms"] / wall_ms
        total += share
        print(f"    {m:14s} {med[f'{m}.self_ms']:10.4g} {share:7.3f}")
    total += med["trace.unattributed_ratio"]
    print(f"    {'unattributed':14s} {'':10s} {med['trace.unattributed_ratio']:7.3f}")
    print(f"    {'sum':14s} {'':10s} {total:7.3f}")
    print(f"    tracing overhead (traced / untraced ops/s): "
          f"{med['trace.overhead_ratio']:.3f}")
    print("    per-layer medians:")
    for n in names:
        print(f"      {n:32s} {med[n]:12.6g} {unit[n]['unit']}")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    _, q1, q3, _ = spread(parent)
    iqr = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and sign * (cm - pm) > iqr:
        return "improved"
    if pm and sign * (pm - cm) / abs(pm) > bound:
        return "regressed"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and iqr / abs(pm) > bound and not beats_all:
        return "unresolved"
    return "unchanged"


def cmd_compare(args) -> int:
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':9s} {'metric':14s} {'parent':>12s} {'change':>12s} "
          f"{'gap':>8s} {'pairs won':>9s}  verdict")
    regressed = False
    for wl in dict.fromkeys(r["workload"] for r in parent):
        for name, spec in END_TO_END.items():
            p, c = dict(values(parent, wl, 0, name)), dict(values(change, wl, 0, name))
            seeds = sorted(set(p) & set(c))
            if not seeds:
                continue
            ps, cs = [p[s] for s in seeds], [c[s] for s in seeds]
            v = verdict(ps, cs, spec["better"], spec["bound"])
            regressed |= v == "regressed"
            pm, cm = statistics.median(ps), statistics.median(cs)
            sign = 1.0 if spec["better"] == "higher" else -1.0
            won = sum(1 for a, b in zip(ps, cs) if sign * (b - a) > 0)
            gap = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{wl:9s} {name:14s} {pm:12.6g} {cm:12.6g} {gap:+8.2%} "
                  f"{won:>4d}/{len(seeds):<4d}  {v}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--side", action="append", default=[], metavar="NAME=ROOT")
    r.add_argument("--traced", type=int, default=1)
    p = sub.add_parser("report")
    p.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "report":
        return 1 if report(load(args.file)) else 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
