"""Time a change against its parent commit with the benchmark in perfbench/, in alternating pairs.

Run from the repository root, once per workload; each run adds its workload
to the output file (or replaces it there):

    python3 tools/bench_pairs.py --parent HEAD --workload oracle-gfp --seeds 301-310 \\
        --out BENCH_7.json --change "what the change does"

The parent is exported with ``git archive`` into .bench_build/, and the change
is a copy there of the working tree's files that git tracks or would track,
so neither side starts with compiled bytecode the other lacks.  Pair k runs
``perfbench/run.py`` on seed k once in each tree, the parent first in even
pairs and the change first in odd ones, so a slow spell of the machine does
not always fall on the same side.  At least two seeds are needed.  Each side
reports every end-to-end metric that BENCHMARK.json declares: its runs,
median and inclusive quartiles; ``change_wins`` counts the pairs in which the
change is strictly better.  ``gain_shown`` holds when the change wins at least
nine tenths of the pairs and its median is better than the parent's by more
than the parent's interquartile range; ``within_bound`` holds when the
change's median is no worse than the parent's by more than the metric's
relative bound in BENCHMARK.json.  With ``--trace-seed N`` one ``--trace 1`` run per
side adds the per-layer metrics under ``trace_seed<N>``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev):
    """A fresh copy of the committed files of rev under .bench_build/; returns its path."""
    os.makedirs(BUILD, exist_ok=True)
    dest = tempfile.mkdtemp(prefix="parent-", dir=BUILD)
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    os.remove(archive)
    return dest


def snapshot():
    """A copy of the working tree's files that git tracks or would track, under .bench_build/.

    Build products such as __pycache__ stay behind, so both sides start alike.
    """
    os.makedirs(BUILD, exist_ok=True)
    dest = tempfile.mkdtemp(prefix="change-", dir=BUILD)
    for rel in git("ls-files", "--cached", "--others", "--exclude-standard").splitlines():
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
    return dest


def parse_seeds(text):
    """'301-310' or '301,305,309'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(tree, workload, seed, seconds, trace):
    """The metrics of one perfbench run in tree, and whether it ran without a failed request."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench failed in %s on seed %d" % (tree, seed))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["correct"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": [round(v, 4) for v in values], "median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--out", required=True, help="BENCH_<n>.json at the repository root")
    ap.add_argument("--change", help="one line saying what the change does")
    ap.add_argument("--trace-seed", type=int)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"]}
    out_path = os.path.join(ROOT, args.out)
    report = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    report["change"] = args.change or report.get("change", "")
    report["parent_commit"] = git("rev-parse", "--short", args.parent)
    report["host"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                      "implementation": platform.python_implementation(), "system": platform.system()}
    report["command"] = "python3 perfbench/run.py --workload W --seed N --seconds %g --trace 0" % args.seconds
    report["method"] = ("parent (an export of the parent commit) and change run in pairs on the same seed, "
                        "alternating which side runs first; quartiles are inclusive; change_wins counts the "
                        "pairs in which the change is better; gain_shown: change_wins >= 0.9 * pairs and the "
                        "change's median better by more than the parent's IQR; within_bound: the change's "
                        "median worse than the parent's by at most the BENCHMARK.json bound times it")

    sides = {"parent": export(args.parent), "change": snapshot()}
    try:
        runs = {"parent": [], "change": []}
        failed = 0
        for k, seed in enumerate(args.seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                metrics, correct = run(sides[side], args.workload, seed, args.seconds, 0)
                runs[side].append(metrics)
                failed += not correct
            print("pair %d seed %d: wall_s parent %.4f change %.4f" % (
                k + 1, seed, runs["parent"][-1]["wall_s"], runs["change"][-1]["wall_s"]), file=sys.stderr)
        metrics = {}
        for name, m in declared.items():
            p = [r[name] for r in runs["parent"]]
            c = [r[name] for r in runs["change"]]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
            q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
            gain = sign * (statistics.median(p) - statistics.median(c))  # > 0 when the change is better
            metrics[name] = {"parent": summary(p), "change": summary(c), "unit": m["unit"], "change_wins": wins,
                             "gain_shown": wins >= 0.9 * len(p) and gain > q3 - q1,
                             "within_bound": -gain <= m["bound"] * statistics.median(p)}
        report.setdefault("workloads", {})[args.workload] = {
            "seeds": args.seeds, "pairs": len(args.seeds), "failed_runs": failed, "metrics": metrics}
        if args.trace_seed is not None:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            traced = {side: run(tree, args.workload, args.trace_seed, args.seconds, 1)[0]
                      for side, tree in sides.items()}
            report.setdefault("trace_seed%d" % args.trace_seed, {})[args.workload] = {
                name: {"unit": units[name], "parent": round(traced["parent"][name], 4),
                       "change": round(traced["change"][name], 4)} for name in units}
    finally:
        for tree in sides.values():
            shutil.rmtree(tree, ignore_errors=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
