"""Output checks that do not rest on the program's own results.

Each check takes the parsed ``--json``-style report that ``repherd`` printed
(``None`` when it printed none) and returns a list of problems, empty when
the output is right.  The expectations come from theory:

* Gabriel (1972): the indecomposables of a Dynkin quiver are in bijection
  with the positive roots, the vectors ``d`` with Tits form ``q(d) = 1``;
  those of a Euclidean quiver have ``q(d)`` in ``{0, 1}``.
* The indecomposables of the linear Nakayama algebra ``A_n / rad^r`` are the
  interval modules of length at most ``r``.
* Auslander (1971): ``gl.dim End(A + DA) <= 3`` for hereditary ``A``, so a
  hereditary input is Holds or Degenerate, never Fails.
* A verdict of Holds is witnessed by ``gl.dim End(A + DA) = 3``.
"""
from __future__ import annotations

HOLDS, FAILS, DEGENERATE, INCONCLUSIVE = "Holds", "Fails", "Degenerate", "Inconclusive"


def exit_code(rc, want):
    return [] if rc == want else ["exit code %r, expected %r" % (rc, want)]


def _main_report(payload):
    if not payload or not payload.get("checks"):
        return None
    return payload["checks"][0]


def verdict(payload, want):
    report = _main_report(payload)
    if report is None:
        return ["no report printed"]
    return [] if report["verdict"] == want else ["verdict %s, expected %s" % (report["verdict"], want)]


def hereditary_verdict(payload):
    report = _main_report(payload)
    if report is None:
        return ["no report printed"]
    if report["verdict"] not in (HOLDS, DEGENERATE):
        return ["hereditary input gave %s" % report["verdict"]]
    return []


def holds_witness(payload):
    """Holds must carry gl.dim End(A + DA) = 3; any other verdict must not."""
    report = _main_report(payload)
    if report is None:
        return []
    gldims = [w["gldim_end"] for w in report["witnesses"] if "gldim_end" in w]
    three = {"finite": 3} in gldims
    if report["verdict"] == HOLDS and not three:
        return ["Holds without a gl.dim 3 witness: %r" % (gldims,)]
    if report["verdict"] == FAILS and three:
        return ["Fails with a gl.dim 3 witness"]
    if report["verdict"] == INCONCLUSIVE and gldims:
        return ["Inconclusive verdict ran the oracle"]
    return []


def _node_dims(payload):
    return [tuple(node["dims"]) for node in payload["catalog"]["nodes"]]


def tits_form(algebra, dims):
    """q(d) = sum of d_v^2 minus sum over arrows of d_source * d_target."""
    pos = {v: k for k, v in enumerate(algebra["vertices"])}
    q = sum(d * d for d in dims)
    for a in algebra["arrows"]:
        q -= dims[pos[a["from"]]] * dims[pos[a["to"]]]
    return q


def dynkin_catalog(payload, algebra, n_roots):
    """A complete catalog whose dimension vectors are exactly the positive roots."""
    if not payload or "catalog" not in payload:
        return ["no catalog printed"]
    dims = _node_dims(payload)
    problems = []
    if not payload["catalog"]["complete"]:
        problems.append("Dynkin catalog incomplete")
    if len(dims) != n_roots:
        problems.append("catalog has %d modules, expected %d positive roots" % (len(dims), n_roots))
    if len(set(dims)) != len(dims):
        problems.append("two catalog modules share a dimension vector")
    bad = [d for d in dims if tits_form(algebra, d) != 1]
    if bad:
        problems.append("dimension vectors that are not roots: %r" % bad[:3])
    return problems


def euclidean_catalog(payload, algebra, max_modules):
    """An incomplete catalog (the algebra is representation-infinite) of roots."""
    if not payload or "catalog" not in payload:
        return ["no catalog printed"]
    dims = _node_dims(payload)
    problems = []
    if payload["catalog"]["complete"]:
        problems.append("catalog of a representation-infinite algebra claims to be complete")
    if len(dims) > max_modules:
        problems.append("catalog has %d modules, over the budget %d" % (len(dims), max_modules))
    bad = [d for d in dims if tits_form(algebra, d) not in (0, 1) or min(d) < 0]
    if bad:
        problems.append("dimension vectors that are not roots: %r" % bad[:3])
    return problems


def nakayama_catalog(payload, algebra, n, r):
    """A complete catalog of the interval modules of length 1..r on the line."""
    if not payload or "catalog" not in payload:
        return ["no catalog printed"]
    succ = {a["from"]: a["to"] for a in algebra["arrows"]}
    start = (set(algebra["vertices"]) - set(succ.values())).pop()
    line = [start]
    while line[-1] in succ:
        line.append(succ[line[-1]])
    pos = {v: k for k, v in enumerate(algebra["vertices"])}
    want = set()
    for length in range(1, r + 1):
        for first in range(0, n - length + 1):
            d = [0] * n
            for v in line[first:first + length]:
                d[pos[v]] = 1
            want.add(tuple(d))
    dims = _node_dims(payload)
    problems = []
    if not payload["catalog"]["complete"]:
        problems.append("Nakayama catalog incomplete")
    if len(dims) != r * n - r * (r - 1) // 2 or set(dims) != want:
        problems.append("catalog is not the %d interval modules of length <= %d" % (len(want), r))
    return problems


def module_reports(payload, outside_dims):
    """One Holds report per summand outside add(A + DA), with that summand's dims."""
    if payload is None:
        return ["no report printed"]
    reports = payload.get("checks", [])
    got = sorted(tuple(r["witnesses"][0]["module_dims"]) for r in reports)
    problems = []
    if got != sorted(outside_dims):
        problems.append("summands outside add(A + DA) %r, expected %r" % (got, sorted(outside_dims)))
    if any(r["verdict"] != HOLDS for r in reports):
        problems.append("a summand of a hereditary algebra's module failed the kernel test")
    return problems
