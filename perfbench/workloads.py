"""The workloads: the requests of one pass and the checks on their outputs.

A workload is built from a seeded ``random.Random`` into a work directory.
Every file the program reads is written there; the program only ever sees
the paths on its command line.  README.md explains why each workload exists.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import expect
import gen

GFP = 101


@dataclass
class Request:
    label: str
    argv: list
    check: Callable  # (exit code, parsed report or None) -> list of problems


@dataclass
class Workload:
    name: str
    requests: list
    algebras: list  # files the set-up time loads
    # Seconds of measuring time given to one pass, a little above its time
    # here: a run of --seconds S makes S // pass_s passes, so a faster and a
    # slower commit are compared on the same number of repeats.  Only a pass
    # that would end after S is left out.
    pass_s: float


def _checks(*fns):
    def run(rc, payload):
        problems = []
        for fn in fns:
            problems += fn(rc, payload)
        return problems

    return run


def _exit(want):
    return lambda rc, payload: expect.exit_code(rc, want)


def _on_payload(fn, *args):
    return lambda rc, payload: fn(payload, *args)


# -- fixtures-q ----------------------------------------------------------------

# Exit codes of the README traffic at the seed commit.  tilted5's Holds is the
# current, cross-checked verdict; a change to it is flagged, not settled here.
FIXTURE_EXIT = {"a2": 2, "a3": 0, "loop2": 0, "tilted4": 0, "tilted5": 0, "kron": 3, "d4": 0, "sq": 0, "h5": 0}
FIXTURE_DYNKIN = {"a2": ("A", 2), "a3": ("A", 3), "d4": ("D", 4), "h5": ("D", 5)}
# (algebra, module, exit code, dims of the summands outside add(A + DA)):
# kron_regular is the regular simple with lambda = 1, kron_preproj the
# preprojective of dims (2, 3), and tilted5_tauinv4p1 is S(5) = I(5).
FIXTURE_MODULES = [
    ("kron", "kron_regular", 0, [(1, 1)]),
    ("kron", "kron_preproj", 0, [(2, 3)]),
    ("tilted5", "tilted5_tauinv4p1", 2, []),
]


def _copy_fixtures(root, workdir, names):
    """Copy shipped fixtures into the work directory; returns their data and new paths."""
    data, path = {}, {}
    for name in sorted(names):
        with open(os.path.join(root, "fixtures", name + ".json"), encoding="utf-8") as fh:
            data[name] = json.load(fh)
        path[name] = gen.write_json(workdir, name + ".json", data[name])
    return data, path


def _tilted_h5(path):
    return Request(
        "check-tilted h5 tilting_h5",
        ["check-tilted", path["h5"], path["tilting_h5"]],
        _checks(_exit(1), _on_payload(expect.verdict, expect.FAILS)),
    )


def fixtures_q(rng, workdir, root):
    names = set(FIXTURE_EXIT) | {"h5", "tilting_h5"}
    for alg, mod, _, _ in FIXTURE_MODULES:
        names |= {alg, mod}
    data, path = _copy_fixtures(root, workdir, names)
    requests = []
    for name, code in FIXTURE_EXIT.items():
        fns = [_exit(code), _on_payload(expect.holds_witness)]
        if name in FIXTURE_DYNKIN:
            kind, n = FIXTURE_DYNKIN[name]
            fns += [_on_payload(expect.hereditary_verdict),
                    _on_payload(expect.dynkin_catalog, data[name], gen.positive_roots(kind, n))]
        if name == "kron":
            fns.append(_on_payload(expect.euclidean_catalog, data[name], 64))
        requests.append(Request("check %s --suite all" % name, ["check", path[name], "--suite", "all"], _checks(*fns)))
    requests.append(_tilted_h5(path))
    for alg, mod, code, outside in FIXTURE_MODULES:
        requests.append(Request(
            "check-module %s %s" % (alg, mod),
            ["check-module", path[alg], path[mod]],
            _checks(_exit(code), _on_payload(expect.module_reports, outside)),
        ))
    rng.shuffle(requests)
    return Workload("fixtures-q", requests, [path[n] for n in FIXTURE_EXIT], pass_s=30.0)


# -- oracle-gfp ----------------------------------------------------------------

# A_8, D_6 and A_10/rad^4 (1-2 s each) are left out so that a pass stays
# near 4 s and a run holds enough passes for a steady per-request median.
DYNKIN_INPUTS = [("A", 6), ("D", 5), ("E", 6)]
NAKAYAMA_INPUTS = [(6, 2), (8, 3), (10, 3)]
# Large enough for every catalog: E6 alone needs a total dimension above 128.
ORACLE_BUDGET = ["--budget-modules", "64", "--budget-dim", "1024"]


def oracle_gfp(rng, workdir, root):
    requests, algebras = [], []
    for kind, n in DYNKIN_INPUTS:
        alg = gen.dynkin_algebra(rng, kind, n, GFP)
        p = gen.write_json(workdir, "%s%d.json" % (kind, n), alg)
        algebras.append(p)
        requests.append(Request("check %s%d" % (kind, n), ["check", p] + ORACLE_BUDGET, _checks(
            _on_payload(expect.hereditary_verdict),
            _on_payload(expect.holds_witness),
            _on_payload(expect.dynkin_catalog, alg, gen.positive_roots(kind, n)),
        )))
    for n, r in NAKAYAMA_INPUTS:
        alg = gen.nakayama_algebra(rng, n, r, GFP)
        p = gen.write_json(workdir, "nakayama_%d_%d.json" % (n, r), alg)
        algebras.append(p)
        requests.append(Request("check A%d/rad^%d" % (n, r), ["check", p] + ORACLE_BUDGET, _checks(
            lambda rc, payload: [] if rc in (0, 1, 2) else ["exit code %r, expected a verdict" % rc],
            _on_payload(expect.holds_witness),
            _on_payload(expect.nakayama_catalog, alg, n, r),
        )))
    rng.shuffle(requests)
    return Workload("oracle-gfp", requests, algebras, pass_s=4.5)


# -- catalog-q -----------------------------------------------------------------

# (quiver, --budget-modules, --suite).  The Kronecker budget stays low because
# its preprojectives grow fast; at 20 modules it reaches the default dimension
# budget after 16.  One request runs --suite all, which today builds the
# catalog twice.  Each quiver's labels and vertex and arrow order come from a
# fixed stream, and the seed orders the requests: the labels alone move a
# request's time by up to 1.7x (Kronecker: 0.76-1.27 s over five seeds), which
# would let the seed, not the program, set slowest_req_s.
CATALOG_INPUTS = [("kronecker", 12, "main"), ("d4_tilde", 20, "all"), ("a3_tilde", 20, "main"), ("a2_tilde", 20, "main")]


def catalog_q(rng, workdir, root):
    requests, algebras = [], []
    for name, budget, suite in CATALOG_INPUTS:
        alg = gen.euclidean_algebra(random.Random("catalog-q:" + name), gen.EUCLIDEAN[name], "Q")
        p = gen.write_json(workdir, name + ".json", alg)
        algebras.append(p)
        argv = ["check", p, "--budget-modules", str(budget), "--suite", suite]
        requests.append(Request("check %s --suite %s" % (name, suite), argv, _checks(
            _exit(3),
            _on_payload(expect.verdict, expect.INCONCLUSIVE),
            _on_payload(expect.holds_witness),
            _on_payload(expect.euclidean_catalog, alg, budget),
        )))
    # check-tilted enumerates the whole catalog of the shipped D5 tree and
    # tests the tilting conditions over it, without the oracle
    _, path = _copy_fixtures(root, workdir, ["h5", "tilting_h5"])
    requests.append(_tilted_h5(path))
    algebras.append(path["h5"])
    rng.shuffle(requests)
    return Workload("catalog-q", requests, algebras, pass_s=4.5)


# -- module-queries-q ------------------------------------------------------------

# The summand shapes of each request.  Each shape's eigenvalues and change of
# basis come from a fixed stream, and the seed orders the requests: the basis
# alone moves a request's time by up to 1.8x and the eigenvalues the slowest
# request by up to 1.6x, which would let the seed set the figures.
MODULE_SHAPES = [
    [("preprojective", 2), ("regular", 1)],
    [("preinjective", 2), ("regular", 1)],
    [("regular", 2), ("preprojective", 1)],
    [("regular", 2), ("regular", 1)],
    [("preprojective", 2), ("preinjective", 2)],
    [("regular", 1), ("regular", 1), ("regular", 1)],
    [("preprojective", 3), ("regular", 1)],
    [("preinjective", 3), ("regular", 1)],
    [("regular", 3), ("preinjective", 1)],
    [("preprojective", 2), ("regular", 2)],
    [("preinjective", 2), ("regular", 2), ("preprojective", 0)],
    [("regular", 1), ("regular", 2), ("preinjective", 0)],
]


def _kron_dims(kind, n):
    return {"preprojective": (n, n + 1), "preinjective": (n + 1, n), "regular": (n, n)}[kind]


def module_queries_q(rng, workdir, root):
    kron = gen.write_json(workdir, "kron.json", gen.KRONECKER)
    requests = []
    for k, shape in enumerate(MODULE_SHAPES):
        fixed = random.Random("kronecker:%d" % k)
        # distinct eigenvalues, so regular summands never repeat
        lams = fixed.sample(range(-4, 5), len(shape))
        summands = [(kind, n, lam) for (kind, n), lam in zip(shape, lams)]
        p = gen.write_json(workdir, "module_%02d.json" % k, gen.kron_module(summands, fixed))
        outside = [_kron_dims(kind, n) for kind, n, _ in summands if not gen.kron_in_add_gen_cogen(kind, n)]
        label = "check-module kron " + " + ".join("%s(%d)" % (kind, n) for kind, n, _ in summands)
        requests.append(Request(label, ["check-module", kron, p], _checks(
            _exit(0 if outside else 2),
            _on_payload(expect.module_reports, outside),
        )))
    rng.shuffle(requests)
    return Workload("module-queries-q", requests, [kron], pass_s=2.0)


BUILDERS = {
    "fixtures-q": fixtures_q,
    "oracle-gfp": oracle_gfp,
    "catalog-q": catalog_q,
    "module-queries-q": module_queries_q,
}


def build(name, rng, workdir, root):
    return BUILDERS[name](rng, workdir, root)
