"""Compare the reports of a change with those of its parent commit, command by command.

Run from the repository root:

    python3 tools/same_reports.py --parent HEAD

The parent is exported with ``git archive`` into .bench_build/, and the
change is the working tree.  Both run the same list of commands on the same
input files: ``check --suite all`` and ``ar-quiver`` on each algebra fixture,
on the fixtures with relations over GF(2) and GF(3) as well, on Dynkin and
Nakayama algebras from ``perfbench/gen.py`` over Q, GF(2), GF(3) and GF(101),
on the generated E8 over Q and GF(101), whose part (v) is the largest, on
the four Euclidean quivers of the ``catalog-q`` workload over Q, GF(2) and
GF(3), and on the dual numbers k[x]/(x^2), written here, over Q and GF(2),
whose End(A + DA) has a simple of infinite projective dimension; ``check-tilted`` on each shipped tilting module with its hereditary
algebra; and ``check-module`` on each shipped module with its algebra, on
the simples outside add(A + DA) of loop2 and tilted4 and the sum of
tilted4's two, which a non-projective injective maps to, over Q, GF(2) and
GF(3), and on the twelve Kronecker module sums of the ``module-queries-q`` workload, on three
Kronecker sums with a repeated summand over Q and GF(3), on three larger ones,
of total dimension 15 or 16, over Q and GF(101), and on the rotation module
a = I, b = J with J^2 = -1 over Q, GF(3) and GF(5).  ``check`` alone runs on
A_14/rad^5, A_20/rad^6 and A_24/rad^8 over Q and GF(101), whose End(A + DA)
has dimension 80, 135 and 220.  The ``check`` requests of the ``oracle-gfp``
and ``catalog-q`` workloads run on their inputs at seeds 301 and 302, the
inputs that the benchmark times.  Every
``check``, ``check-module`` and ``check-tilted`` command also writes its
``--json`` report.  Every command whose stdout, exit code or ``--json`` file
differs between the two trees is listed; the exit code is 1 when any does.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import gen  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import export  # noqa: E402

FIXTURES = ["a2", "a3", "a4_rad2", "d4", "h5", "kron", "loop2", "sq", "tilted4", "tilted5"]
# Fixtures with relations, run again over GF(2) and GF(3), where a coefficient -1 is p - 1.
RELATION_FIXTURES = ["a4_rad2", "loop2", "sq", "tilted4", "tilted5"]
SMALL_PRIMES = [2, 3]
# (algebra, tilting module) and (algebra, module) fixture pairs
TILTED = [("h5", "tilting_h5"), ("a2", "tilting_a2"), ("a3", "tilting_a3")]
MODULES = [("kron", "kron_preproj"), ("kron", "kron_regular"), ("tilted5", "tilted5_tauinv4p1")]
DYNKIN = [("E", 6), ("E", 7), ("D", 6), ("A", 7), ("D", 8), ("A", 10)]
NAKAYAMA = [(6, 2), (8, 3), (7, 4)]
FIELDS = ["Q", 2, 3, 101]
# Large enough for a complete catalog of every generated algebra above.
LARGE_BUDGET = ["--budget-modules", "1000", "--budget-dim", "4096"]
# E8's 120 indecomposables need twice the dimension budget; it runs over two fields only.
E8_FIELDS = ["Q", 101]
E8_BUDGET = ["--budget-modules", "1000", "--budget-dim", "8192"]
# The module budgets of the catalog-q workload; these catalogs stay incomplete.  Over GF(2)
# and GF(3), more of their pieces share a dimension vector.
EUCLIDEAN_BUDGETS = {"kronecker": 12, "d4_tilde": 20, "a3_tilde": 20, "a2_tilde": 20}
# Kronecker sums with a repeated summand, each in a random basis drawn from a fixed stream, over
# Q and GF(3); the rotation module, whose End is k[x]/(x^2 + 1), over Q, GF(3) and GF(5), the
# one of them where it splits.
REPEATED = {
    "regular(1)+regular(1)": [("regular", 1, 2)] * 2,
    "preprojective(1)+preprojective(1)": [("preprojective", 1, 0)] * 2,
    "regular(2)+regular(2)": [("regular", 2, -1)] * 2,
}
ROTATION = {"dims": {"1": 2, "2": 2}, "maps": {"a": [[1, 0], [0, 1]], "b": [[0, -1], [1, 0]]}}
# Larger Kronecker sums, each in a random basis drawn from a fixed stream, of total dimension
# (7, 8), (8, 7) and (8, 8), over Q and GF(101): their Hom solves back-substitute the longest.
LARGE = {
    "preprojective(2)+regular(2)+preinjective(1)+preprojective(1)":
        [("preprojective", 2, 0), ("regular", 2, 3), ("preinjective", 1, 0), ("preprojective", 1, 0)],
    "preinjective(2)+regular(1)+regular(1)+regular(2)+regular(1)":
        [("preinjective", 2, 0), ("regular", 1, 2), ("regular", 1, 2), ("regular", 2, -3), ("regular", 1, 0)],
    "regular(3)+preprojective(2)+preinjective(2)":
        [("regular", 3, -1), ("preprojective", 2, 0), ("preinjective", 2, 0)],
}
# Deep Nakayama algebras, run by check alone over Q and GF(101): End(A + DA) has dimension 80,
# 135 and 220, where the associativity of its structure constants was once only sampled; the
# last, with 31 idempotents, is the largest algebra the oracle's certificate sees.
DEEP_NAKAYAMA = [(14, 5), (20, 6), (24, 8)]
DEEP_FIELDS = ["Q", 101]
# k[x]/(x^2), over Q and GF(2): the one input on which the oracle finds a syzygy that repeats,
# so the only one that solves a Hom between its graded modules.
DUAL_NUMBERS = {
    "vertices": ["1"],
    "arrows": [{"name": "x", "from": "1", "to": "1"}],
    "relations": [[{"coeff": "1", "path": ["x", "x"]}]],
    "length_bound": 3,
}
DUAL_FIELDS = ["Q", 2]
# Modules that an injective that is not projective maps to, so that the kernel test
# approximates them by minimal_right_approx and not by their projective cover: the nodes
# outside add(A + DA) of loop2 and of tilted4, each a simple, and the sum of tilted4's two.
# They run with check-module over Q and, with the algebra files that inputs() writes, over
# GF(2) and GF(3).
GENERAL_PATH = {
    "loop2": {"S(1)": {"dims": {"1": 1}, "maps": {}}},
    "tilted4": {
        "S(2)": {"dims": {"2": 1}, "maps": {}},
        "S(3)": {"dims": {"3": 1}, "maps": {}},
        "S(2)+S(3)": {"dims": {"2": 1, "3": 1}, "maps": {}},
    },
}
# Seeds the coefficients of the generated Dynkin and Nakayama algebras.
SEED = 3
# The workloads whose check requests run as the benchmark builds them at each of these seeds.
BENCH_WORKLOADS = ["oracle-gfp", "catalog-q"]
BENCH_SEEDS = [301, 302]
# Commands run at once, one per core of a 2-core machine.
JOBS = 2


def inputs(workdir):
    """(label, algebra file, budget arguments) for every input, written to workdir."""
    out = [(name, os.path.join(ROOT, "fixtures", name + ".json"), []) for name in FIXTURES]
    for name in RELATION_FIXTURES:
        with open(os.path.join(ROOT, "fixtures", name + ".json"), encoding="utf-8") as fh:
            alg = json.load(fh)
        for p in SMALL_PRIMES:
            label = "%s-GF%d" % (name, p)
            out.append((label, gen.write_json(workdir, label + ".json", dict(alg, field={"GFp": p})), []))
    for field in FIELDS:
        tag = "Q" if field == "Q" else "GF%d" % field
        for kind, n in DYNKIN:
            label = "%s%d-%s" % (kind, n, tag)
            alg = gen.dynkin_algebra(random.Random("%d:%s" % (SEED, label)), kind, n, field)
            out.append((label, gen.write_json(workdir, label + ".json", alg), LARGE_BUDGET))
        for n, r in NAKAYAMA:
            label = "nakayama%d-rad%d-%s" % (n, r, tag)
            alg = gen.nakayama_algebra(random.Random("%d:%s" % (SEED, label)), n, r, field)
            out.append((label, gen.write_json(workdir, label + ".json", alg), LARGE_BUDGET))
    for field in E8_FIELDS:
        label = "E8-" + ("Q" if field == "Q" else "GF%d" % field)
        alg = gen.dynkin_algebra(random.Random("%d:%s" % (SEED, label)), "E", 8, field)
        out.append((label, gen.write_json(workdir, label + ".json", alg), E8_BUDGET))
    for name, budget in EUCLIDEAN_BUDGETS.items():
        alg = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
        out.append((name, gen.write_json(workdir, name + ".json", alg), ["--budget-modules", str(budget)]))
        for p in SMALL_PRIMES:
            label = "%s-GF%d" % (name, p)
            out.append((label, gen.write_json(workdir, label + ".json", dict(alg, field={"GFp": p})),
                        ["--budget-modules", str(budget)]))
    for field in DUAL_FIELDS:
        label = "dual-numbers-" + ("Q" if field == "Q" else "GF%d" % field)
        spec = "Q" if field == "Q" else {"GFp": field}
        out.append((label, gen.write_json(workdir, label + ".json", dict(DUAL_NUMBERS, field=spec)), []))
    return out


def commands(workdir):
    """(label, argv) of every command to compare."""
    out = []
    for label, path, budget in inputs(workdir):
        out.append(("check --suite all " + label, ["check", path, "--suite", "all"] + budget))
        out.append(("ar-quiver " + label, ["ar-quiver", path] + budget))
    for field in DEEP_FIELDS:
        for n, r in DEEP_NAKAYAMA:
            label = "nakayama%d-rad%d-%s" % (n, r, "Q" if field == "Q" else "GF%d" % field)
            alg = gen.nakayama_algebra(random.Random("%d:%s" % (SEED, label)), n, r, field)
            out.append(("check " + label, ["check", gen.write_json(workdir, label + ".json", alg)] + LARGE_BUDGET))
    for sub, pairs in (("check-tilted", TILTED), ("check-module", MODULES)):
        for alg, mod in pairs:
            paths = [os.path.join(ROOT, "fixtures", name + ".json") for name in (alg, mod)]
            out.append(("%s %s %s" % (sub, alg, mod), [sub] + paths))
    for name, mods in GENERAL_PATH.items():
        for p in [None] + SMALL_PRIMES:
            tag = "Q" if p is None else "GF%d" % p
            alg = os.path.join(ROOT, "fixtures", name + ".json") if p is None else \
                os.path.join(workdir, "%s-%s.json" % (name, tag))
            for mod, data in mods.items():
                path = gen.write_json(workdir, "%s-%s-%s.json" % (name, mod, tag), data)
                out.append(("check-module %s-%s %s" % (name, tag, mod), ["check-module", alg, path]))
    # the seed only orders a workload's requests; its inputs come from fixed streams
    for req in workloads.module_queries_q(random.Random(0), workdir, ROOT).requests:
        out.append((req.label, req.argv))
    # each workload at each seed writes its inputs, some under fixed names, to a directory of its own
    for name in BENCH_WORKLOADS:
        for seed in BENCH_SEEDS:
            subdir = os.path.join(workdir, "%s-%d" % (name, seed))
            os.makedirs(subdir)
            for req in workloads.build(name, random.Random(seed), subdir, ROOT).requests:
                if req.argv[0] == "check":
                    out.append(("%s %d: %s" % (name, seed, req.label), req.argv))
    for field in ["Q", 3, 5, 101]:
        tag = "Q" if field == "Q" else "GF%d" % field
        spec = "Q" if field == "Q" else {"GFp": field}
        kron = gen.write_json(workdir, "kron-%s.json" % tag, dict(gen.KRONECKER, field=spec))
        mods = {"rotation": ROTATION} if field != 101 else {}
        if field in ("Q", 3):
            mods.update((name, gen.kron_module(summands, random.Random("repeated:" + name)))
                        for name, summands in REPEATED.items())
        if field in ("Q", 101):
            mods.update((name, gen.kron_module(summands, random.Random("large:" + name)))
                        for name, summands in LARGE.items())
        for name, data in mods.items():
            path = gen.write_json(workdir, "%s-%s.json" % (name, tag), data)
            out.append(("check-module kron-%s %s" % (tag, name), ["check-module", kron, path]))
    return out


def run(tree, argv, json_path):
    """(exit code, stdout, --json file or None) of ``repherd argv`` with the sources of tree.

    The commands that write a report write it to json_path.
    """
    report = argv[0] in ("check", "check-module", "check-tilted")
    if report:
        argv = argv + ["--json", json_path]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "repherd.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    blob = None
    if report and os.path.exists(json_path):
        with open(json_path, encoding="utf-8") as fh:
            blob = fh.read()
    return proc.returncode, proc.stdout, blob


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    args = ap.parse_args(argv)

    parent = export(args.parent)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=os.path.dirname(parent))
    try:
        cmds = commands(workdir)

        def compare(k):
            label, argv = cmds[k]
            out = os.path.join(workdir, "report-%d-%%s.json" % k)
            return label, (run(parent, argv, out % "parent"), run(ROOT, argv, out % "change"))

        differ = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for label, (old, new) in pool.map(compare, range(len(cmds))):
                same = old == new
                differ += not same
                print("%s  exit %d -> %d  %s" % ("same  " if same else "DIFFER", old[0], new[0], label), flush=True)
        print("%d commands, %d differ" % (len(cmds), differ))
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
