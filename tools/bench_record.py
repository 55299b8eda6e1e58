#!/usr/bin/env python3
"""Distil one benchmark set into the on-disk trajectory (ROADMAP aim 1).

Usage: bench_record.py SET_DIR --pr N [--base PARENT_SET_DIR]
                                           (writes BENCH_<N>.json at the root)
       bench_record.py --explain BENCH_<N>.json  (prints where the time went)

SET_DIR is what `benchmark --runs R --out SET_DIR` leaves behind: one
`run-*` sub-directory per seed, each with a `<workload>.json` result (and a
`<workload>.layers.json` when the run was traced). Per workload and
end-to-end metric the record keeps the median, the quartiles (the exclusive
method `--compare` uses) and the run count; per-layer metrics keep their
median. Next to them: what the runs say about the program and the host (git
rev, nproc, SIMD ISA, rustc, seeds, failed frames) and the `tools/loc.py`
totals of the tree the record is written from. A set with a run whose git rev
is `unknown` (built outside a git checkout) is refused, naming the runs. `--base` adds the end-to-end
summary of the parent's set from the same session (`base_end_to_end`): the
host drifts between sessions by more than most changes move, so a record is
best read against its own base. It also adds `paired`: per workload and
end-to-end metric, the change/base ratio of each seed both sets ran, the
pairs the change won and lost (by the metric's `better` in BENCHMARK.json),
the median ratio and a distribution-free confidence interval for it, the
k-th smallest and k-th largest ratio (for ten pairs the 2nd and 9th, 97.9 %).
Each row's interval is a test of its own, so writing a `--base` record prints
the rows whose interval excludes 1 next to the count chance alone would give,
the sum over rows of 1 - coverage (about 0.75 for 35 rows of ten pairs).
Two records are compared by eye or by `benchmark --compare` on the sets
themselves; this file gates nothing, but it prints `host changed` when the
record's host calibration (the median over workloads of
`host.triad_gbytes_per_s` or `host.fma_gflops`) is more than 25 % off the
newest earlier `BENCH_*.json`'s: numbers from two hosts do not compare.

`--explain` reads a record's traced per-layer block: per workload, each
span's median seconds per call as a share of the median frame (set-up spans
of set-up, stage replays apart, as they run outside the frame), then fixed
notes on the frozen metrics whose names mislead.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(unit, values, quartiles):
    out = {"unit": unit, "median": statistics.median(values), "runs": len(values)}
    if quartiles and len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def distil(results, quartiles):
    """{workload: {metric: summary}} over a list of parsed result files."""
    cells = {}
    for r in results:
        for name, m in r["metrics"].items():
            cells.setdefault(r["workload"], {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {
        w: {name: summary(unit, values, quartiles) for name, (unit, values) in ms.items()}
        for w, ms in cells.items()
    }


def median_ci(n):
    """(k, coverage): the k-th smallest and k-th largest of n paired ratios
    bound their median with `coverage`, the largest k reaching 95 % (k = 1
    below six pairs, whatever it covers)."""
    below = lambda k: sum(math.comb(n, i) for i in range(k)) / 2**n
    k = max([k for k in range(1, n // 2 + 1) if 1 - 2 * below(k) >= 0.95], default=1)
    return k, 1 - 2 * below(k)


def paired(base, change):
    """{workload: {metric: pair statistics}} over the seeds both sets ran."""
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    by_seed = lambda results: {(r["workload"], r["seed"]): r["metrics"] for r in results}
    b, c = by_seed(base), by_seed(change)
    out = {}
    for w, seed in sorted(b.keys() & c.keys()):
        for name, m in c[(w, seed)].items():
            if name in better and name in b[(w, seed)]:
                ratio = m["value"] / b[(w, seed)][name]["value"]
                out.setdefault(w, {}).setdefault(name, []).append((seed, ratio))
    for w, metrics in out.items():
        for name, pairs in metrics.items():
            ratios = sorted(r for _, r in pairs)
            n = len(ratios)
            k, coverage = median_ci(n)
            win = (lambda r: r < 1) if better[name] == "lower" else (lambda r: r > 1)
            metrics[name] = {
                "ratios": {str(seed): r for seed, r in pairs},
                "wins": sum(win(r) for r in ratios),
                "losses": sum(r != 1 and not win(r) for r in ratios),
                "median_ratio": statistics.median(ratios),
                "ci": [ratios[k - 1], ratios[n - k]],
                "ci_ranks": [k, n + 1 - k],
                "ci_coverage": round(coverage, 4),
            }
    return out


HOST = ("host.triad_gbytes_per_s", "host.fma_gflops")


def chance_rows(paired_rows):
    """Lines naming the rows whose CI excludes 1, then the count expected
    by chance when no row moved."""
    rows = [(w, name, m) for w, ms in sorted(paired_rows.items()) for name, m in ms.items()]
    lines = [
        f"CI excludes 1: {w}/{name} {m['median_ratio']:.3f} (CI {m['ci'][0]:.3f}-{m['ci'][1]:.3f})"
        for w, name, m in rows
        if m["ci"][0] > 1 or m["ci"][1] < 1
    ]
    expected = sum(1 - m["ci_coverage"] for _, _, m in rows)
    lines.append(f"{len(lines)} of {len(rows)} rows exclude 1; chance alone gives {expected:.2f}")
    return lines


def host(record):
    """{metric: median over workloads} of a record's host calibration."""
    layers = record.get("per_layer", {}).values()
    values = {name: [m[name]["median"] for m in layers if name in m] for name in HOST}
    return {name: statistics.median(v) for name, v in values.items() if v}


def host_changes(record):
    """One line per host metric more than 25 % off the newest earlier
    record that has it."""
    earlier = sorted((int(p.stem.split("_")[1]), p) for p in ROOT.glob("BENCH_[0-9]*.json"))
    hosts = [(p.name, host(json.loads(p.read_text()))) for n, p in reversed(earlier) if n < record["pr"]]
    lines = []
    for name, now in host(record).items():
        before = next(((f, h[name]) for f, h in hosts if name in h), None)
        if before and abs(now / before[1] - 1) > 0.25:
            lines.append(f"host changed: {name} {before[1]:.1f} -> {now:.1f} since {before[0]}")
    return lines


# Spans the frames call (`plan.compile` is the `compile` workload's frame),
# the set-up calls, and the stage replays over a 1-in-8 element sample.
FRAME = ("core.run", "plan.apply", "plan.diff", "plan.patch", "plan.splice", "dist.run_dist", "dist.run_plan_dist")
SETUP = ("mesh.generate", "mesh.refine", "dg.project", "plan.compile")
NOTES = (
    "dist.reduce_s is pull's compile (each rank's reduce_ns), not a reduction.",
    "dist.interior_ratio reads 0: the barrier schedule has no interior work.",
    "dist.exposed_comm_s is the whole post and drain, not an exposed part of it.",
    "plan.compile.intersection_tests, and a compile's cells_visited, are counted per chunk"
    " from BENCH_42 on: an element meets the rows of each chunk whose windows reach it.",
    "From BENCH_43 on, pull's drain no longer waits for its peer's compile: that time moves from"
    " dist.exposed_comm_s to dist.wait_s, and dist.msgs_sent reads 4, not 6.",
)


def explain(record):
    """Prints each workload's traced spans as shares of its frame or set-up."""
    ms = lambda s: f"{s * 1e3:10.2f} ms"
    for w, layers in sorted(record.get("per_layer", {}).items()):
        e2e = record["end_to_end"][w]
        frame, setup = e2e["frame_s_p50"]["median"], e2e["setup_s"]["median"]
        print(f"{w}: frame {ms(frame).strip()}, set-up {ms(setup).strip()}")
        busy = {n[: -len(".busy_s")]: m["median"] for n, m in layers.items() if n.endswith(".busy_s") and m["median"]}
        in_frame = FRAME + ("plan.compile",) if w == "compile" else FRAME
        for span, s in busy.items():
            if span in in_frame:
                print(f"  {span:<20}{ms(s)}  {s / frame:6.3f} of the frame")
        for span, s in busy.items():
            if span in SETUP and span not in in_frame:
                print(f"  {span:<20}{ms(s)}  {s / setup:6.3f} of set-up")
        replays = [f"{span} {ms(s).strip()}" for span, s in busy.items() if span not in FRAME + SETUP]
        print(f"  replays, outside the frame: {', '.join(replays)}")
    print("notes:")
    for note in NOTES:
        print(f"  {note}")


def loc_totals():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loc.py")], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    return {"non_test": int(out[-2].split()[0]), "all_rust": int(out[-1].split()[0])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("set_dir", type=Path, nargs="?")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--base", type=Path)
    ap.add_argument("--explain", type=Path, metavar="BENCH_N.json")
    args = ap.parse_args()
    if args.explain:
        return explain(json.loads(args.explain.read_text()))
    if args.set_dir is None or args.pr is None:
        ap.error("writing a record takes SET_DIR and --pr")

    # Untraced results sit one directory per seed; a traced result, when
    # the set has one, sits in the set's own directory (as `--runs` leaves it).
    runs_of = lambda set_dir: sorted(set_dir.glob("run-*")) or [set_dir]
    runs = runs_of(args.set_dir)
    load = lambda dirs, pattern: [json.loads(p.read_text()) for d in dirs for p in sorted(d.glob(pattern))]
    untraced_of = lambda dirs: [r for r in load(dirs, "*.json") if r.get("traced") is False]
    untraced = untraced_of(runs)
    layered = load({*runs, args.set_dir}, "*.layers.json")
    if not untraced:
        sys.exit(f"{args.set_dir}: no untraced <workload>.json results")
    # A record names the tree it measured; a run built outside a git
    # checkout cannot say which.
    unknown = [f"{r['workload']}/{r['seed']}" for r in untraced if r["details"]["environment"]["git_rev"] == "unknown"]
    if unknown:
        sys.exit(f"{args.set_dir}: git_rev unknown in run(s) {', '.join(unknown)}; run from a git checkout")

    env = [r["details"]["environment"] for r in untraced]
    # One value per key unless the runs disagree, which the record shows.
    one = lambda key: ", ".join(sorted({str(e[key]) for e in env}))
    record = {
        "pr": args.pr,
        "git_rev": one("git_rev"),
        "nproc": one("nproc"),
        "simd_isa": one("simd_isa"),
        "rustc": one("rustc"),
        "seeds": sorted({r["seed"] for r in untraced}),
        "failed_frames": sum(r["failed_frames"] for r in untraced),
        "loc": loc_totals(),
        "end_to_end": distil(untraced, quartiles=True),
    }
    if layered:
        record["per_layer"] = distil(layered, quartiles=False)
    if args.base:
        base = untraced_of(runs_of(args.base))
        record["base_end_to_end"] = distil(base, quartiles=True)
        record["paired"] = paired(base, untraced)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}: {len(record['end_to_end'])} workload(s), {len(runs)} run(s)")
    for line in host_changes(record):
        print(line)
    if args.base:
        print("\n".join(chance_rows(record["paired"])))


if __name__ == "__main__":
    main()
