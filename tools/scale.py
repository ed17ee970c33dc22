"""Time `repherd check --suite all` at the frontier, stage by stage, in CPU seconds.

Run from the repository root:

    python3 tools/scale.py --parent HEAD --repeat 3 --out SCALE_39.json

Each input is a generated algebra from perfbench/gen.py: E8, D16 and A30 from
``dynkin_algebra(random.Random(3), ...)`` and A_24/rad^8, A_30/rad^10 and
A_40/rad^12 from ``nakayama_algebra(random.Random(5), ...)``, over Q, and E8
over GF(101) too.  On A_30/rad^10 the kernel test splits syzygies that are not
projective.  ``check --suite all --budget-modules 4000 --budget-dim 40000``
runs on each, in one process through ``repherd.cli.main``.  Two more rows run
the Euclidean quivers a2_tilde and d4_tilde of the catalog-q workload
(``euclidean_algebra(random.Random("catalog-q:" + name), ...)``) with
``--budget-modules 40 --budget-dim 600``, where the budget stops the catalog
and the command answers Inconclusive; each row keeps its own arguments.
``time.process_time`` is read around the functions that make up the stages,
and a stage's seconds leave out the stages nested in it:

- ``enumeration``: ``enumerate_indecomposables``;
- ``fill_tau``: ``catalog._fill_tau_tables``, nested in enumeration, the tau
  links of a catalog stopped by the budget;
- ``kernel_test``: ``checks._module_kernel_test``, every module's kernel test;
- ``node_facts``: ``node_facts``;
- ``oracle``: ``gldim_end_gen_cogen``, gl.dim End(A + DA);
- ``suite``: ``check_no_inj_to_proj_suite``, the Hom(DA, A) = 0 suite;
- ``total``: the whole command.

Each row also counts two calls, which repeat exactly from run to run:
``sequences_built``, the almost-split sequences that knitting builds
(``catalog.almost_split_sequence``), and ``transposes``, the transposes it and
the tau fill make (``catalog._transpose_with_cover``).

Before any input runs, each side's process also reports ``import``: the CPU
seconds of its first ``import repherd.cli``, the start-up that every command
pays.  Each side runs from a copy without ``__pycache__`` under
.bench_build/, in a process started with ``-B``, so the package is compiled
from source on every run, as the benchmark (``PYTHONDONTWRITEBYTECODE=1`` on a
fresh checkout) compiles it; the standard library keeps its bytecode.

With ``--parent REV`` the committed files of REV are exported with ``git
archive`` into .bench_build/ and timed as well, each side in a process of its
own, the parent first in even repeats and the working tree first in odd ones.
The working tree's side is a copy of the files that git tracks or would
track.  Both copies are removed at the end.  With ``--repeat N`` every stage
reports the median of N runs.  The JSON goes to ``--out`` at the repository
root, beside the BENCH_*.json files.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import gen  # noqa: E402

ARGV = ["--suite", "all", "--budget-modules", "4000", "--budget-dim", "40000"]
STOPPED_ARGV = ["--suite", "all", "--budget-modules", "40", "--budget-dim", "600"]


def _euclidean(name):
    return gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")


# (input, field, algebra builder, the arguments after `check ALGEBRA`)
INPUTS = [
    ("E8", "Q", lambda: gen.dynkin_algebra(random.Random(3), "E", 8, "Q"), ARGV),
    ("E8", "GF(101)", lambda: gen.dynkin_algebra(random.Random(3), "E", 8, 101), ARGV),
    ("D16", "Q", lambda: gen.dynkin_algebra(random.Random(3), "D", 16, "Q"), ARGV),
    ("A30", "Q", lambda: gen.dynkin_algebra(random.Random(3), "A", 30, "Q"), ARGV),
    ("A_24/rad^8", "Q", lambda: gen.nakayama_algebra(random.Random(5), 24, 8, "Q"), ARGV),
    ("A_30/rad^10", "Q", lambda: gen.nakayama_algebra(random.Random(5), 30, 10, "Q"), ARGV),
    ("A_40/rad^12", "Q", lambda: gen.nakayama_algebra(random.Random(5), 40, 12, "Q"), ARGV),
    ("a2_tilde", "Q", lambda: _euclidean("a2_tilde"), STOPPED_ARGV),
    ("d4_tilde", "Q", lambda: _euclidean("d4_tilde"), STOPPED_ARGV),
]
STAGES = ["enumeration", "fill_tau", "kernel_test", "node_facts", "oracle", "suite"]


COUNTED = {"sequences_built": "almost_split_sequence", "transposes": "_transpose_with_cover"}


def _call_counters(counts):
    """Wrap the catalog functions of COUNTED; each call adds one to counts[its name]."""
    from repherd import catalog

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in COUNTED.items():
        setattr(catalog, name, counted(key, getattr(catalog, name)))


def _stage_timers(seconds, nodes):
    """Wrap the functions of each stage in the modules that call them; a stage's own CPU time,
    less the stages nested in it, is added to seconds[stage]."""
    from repherd import catalog, checks, cli

    stack = []

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                spent = time.process_time() - start
                nested = stack.pop()
                seconds[stage] += spent - nested
                if stack:
                    stack[-1] += spent
            if stage == "enumeration":
                nodes.append(len(out.nodes))
            return out
        return wrapper

    targets = [
        ("enumeration", [cli], "enumerate_indecomposables"),
        ("fill_tau", [catalog], "_fill_tau_tables"),
        ("kernel_test", [checks], "_module_kernel_test"),
        ("node_facts", [checks, catalog], "node_facts"),
        ("oracle", [checks], "gldim_end_gen_cogen"),
        ("suite", [checks], "check_no_inj_to_proj_suite"),
    ]
    for stage, modules, name in targets:
        wrapped = timed(stage, getattr(modules[0], name))
        for module in modules:
            setattr(module, name, wrapped)


def import_cli():
    """CPU seconds of this process's first import of repherd.cli."""
    start = time.process_time()
    import repherd.cli  # noqa: F401
    return time.process_time() - start


def time_inputs():
    """[{input, field, argv, nodes, exit, counts, cpu_s}] for one run of each input in this process."""
    from repherd import cli

    seconds = dict.fromkeys(STAGES, 0.0)
    counts = dict.fromkeys(COUNTED, 0)
    nodes = []
    _stage_timers(seconds, nodes)
    _call_counters(counts)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, field, build, argv in INPUTS:
            path = gen.write_json(tmp, "algebra.json", build())
            for stage in STAGES:
                seconds[stage] = 0.0
            for key in COUNTED:
                counts[key] = 0
            del nodes[:]
            gc.collect()
            start = time.process_time()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["check", path, *argv])
            total = time.process_time() - start
            out.append({"input": name, "field": field, "argv": " ".join(argv), "nodes": nodes[0] if nodes else None,
                        "exit": code, "counts": dict(counts), "cpu_s": dict({"total": total}, **seconds)})
    return out


def run_side(src):
    """{"import": import_cli(), "inputs": time_inputs()} in a fresh process that imports repherd
    from src and writes no bytecode."""
    proc = subprocess.run([sys.executable, "-B", os.path.abspath(__file__), "--src", src],
                          capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit("scale run failed on %s" % src)
    return json.loads(proc.stdout)


def merge(runs):
    """One row per input, with the median of each stage over the runs; the counts must repeat."""
    rows = []
    for k, row in enumerate(runs[0]):
        if any(r[k]["counts"] != row["counts"] for r in runs):
            raise SystemExit("the counts of %s %s differ between runs" % (row["input"], row["field"]))
        cpu = {stage: round(statistics.median(r[k]["cpu_s"][stage] for r in runs), 3) for stage in row["cpu_s"]}
        rows.append(dict(row, cpu_s=cpu))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="a commit to time as well")
    ap.add_argument("--out", help="SCALE_<n>.json at the repository root")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.src:
        sys.path.insert(0, args.src)
        json.dump({"import": import_cli(), "inputs": time_inputs()}, sys.stdout)
        return 0
    if not args.out:
        ap.error("--out is required")

    from bench_pairs import export, git, snapshot

    trees = {"change": snapshot()}
    if args.parent:
        trees["parent"] = export(args.parent)
    runs = {side: [] for side in trees}
    try:
        for k in range(args.repeat):
            order = sorted(trees, reverse=k % 2 == 0)
            for side in order:
                runs[side].append(run_side(os.path.join(trees[side], "src")))
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
    report = {
        "command": "repherd check ALGEBRA, followed by each row's argv",
        "method": "CPU seconds (time.process_time) in one process per side; each stage leaves out the "
                  "stages nested in it; import_cpu_s is the first import of repherd.cli, compiled from source; "
                  "median of %d run(s); counts are the calls of catalog.almost_split_sequence and "
                  "catalog._transpose_with_cover, the same in every run" % args.repeat,
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "implementation": platform.python_implementation(), "system": platform.system()},
        "import_cpu_s": {side: round(statistics.median(r["import"] for r in rs), 4) for side, rs in runs.items()},
        "sides": {side: merge([r["inputs"] for r in rs]) for side, rs in runs.items()},
    }
    if args.parent:
        report["parent_commit"] = git("rev-parse", "--short", args.parent)
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for side, rows in report["sides"].items():
        print("%-6s import %.4f" % (side, report["import_cpu_s"][side]))
        for row in rows:
            print("%-6s %-11s %-7s nodes %4s  %s  %s" % (
                side, row["input"], row["field"], row["nodes"],
                "  ".join("%s %d" % item for item in row["counts"].items()),
                "  ".join("%s %.3f" % (stage, s) for stage, s in row["cpu_s"].items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
