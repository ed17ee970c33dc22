"""Command-line front end: repherd {info|check|ar-quiver|check-module|check-tilted}.

Exit codes for verdict-producing commands: 0 Holds, 1 Fails, 2 Degenerate,
3 Inconclusive, 4 error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as rio
from .catalog import Budget, ar_quiver, enumerate_indecomposables
from .checks import (
    DEGENERATE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    TiltingContext,
    check_module_conditions,
    check_representation_hereditary,
    check_tilted_sufficient,
    run_all_checks,
)
from .errors import BudgetExceeded, NonSplitEndomorphismRing, NotTilting, RepherdError, UsageError, VerificationFailed
from .modules import gen_cogen, indecomposable_summands, known_index

_EXIT = {HOLDS: 0, FAILS: 1, DEGENERATE: 2, INCONCLUSIVE: 3}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad argument, which main reports on one line with exit code 4."""

    def error(self, message):
        raise UsageError(message)


def _positive(text):
    """The value of a budget flag: a positive integer."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError("not a positive integer: %r" % text)
    return n


def _budget(args) -> Budget:
    return Budget(args.budget_modules, args.budget_dim)


def _emit(args, payload):
    blob = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    print(blob)
    if getattr(args, "json_out", None):
        rio.dump_json(args.json_out, payload)


def cmd_info(args) -> int:
    alg = rio.load_algebra(args.algebra)
    payload = {
        "tool_version": rio.TOOL_VERSION,
        "algebra_digest": alg.digest,
        "dimension": alg.dim,
        "path_basis_size": alg.dim,
        "vertex_count": alg.quiver.n_vertices,
        "arrow_count": alg.quiver.n_arrows,
        "field": alg.field.to_spec(),
        "length_bound": alg.length_bound,
    }
    _emit(args, payload)
    return 0


def cmd_check(args) -> int:
    alg = rio.load_algebra(args.algebra)
    budget = _budget(args)
    if args.suite == "tilted":
        if not args.tilting:
            print("error: --suite tilted needs --tilting FILE", file=sys.stderr)
            return 4
        return _run_tilted(args, alg, args.tilting, budget)
    cat = enumerate_indecomposables(alg, budget)
    if args.suite == "all":
        reports, _ = run_all_checks(alg, budget, catalog=cat)
        main = reports[0]
    else:
        main = check_representation_hereditary(alg, catalog=cat)
        reports = [main]
    payload = rio.report_file(alg, reports, cat)
    _emit(args, payload)
    return _EXIT.get(main.verdict, 4)


def cmd_ar_quiver(args) -> int:
    alg = rio.load_algebra(args.algebra)
    cat = enumerate_indecomposables(alg, _budget(args))
    if not cat.complete:
        print("error: catalog incomplete at the given budget", file=sys.stderr)
        return 3
    arrows, tau = ar_quiver(cat)
    dot = emit_dot(cat, arrows)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    print(dot)
    return 0


def emit_dot(cat, arrows) -> str:
    lines = ["digraph ar_quiver {"]
    for node in cat.nodes:
        shape = "ellipse"
        peripheries = ""
        if node.proj_vertex is not None and node.inj_vertex is not None:
            shape, peripheries = "box", ", peripheries=2"
        elif node.proj_vertex is not None:
            shape = "box"
        elif node.inj_vertex is not None:
            shape = "diamond"
        lines.append(
            '  "%s" [label="%s dim=(%s)", shape=%s%s];'
            % (node.name, node.name, ",".join(str(d) for d in node.rep.dims), shape, peripheries)
        )
    for (i, j, mult) in sorted(arrows):
        lines.append('  "%s" -> "%s" [label="%d"];' % (cat.nodes[i].name, cat.nodes[j].name, mult))
    for i, node in enumerate(cat.nodes):
        if node.tau is not None:
            lines.append('  "%s" -> "%s" [style=dashed, arrowhead=vee];' % (node.name, cat.nodes[node.tau].name))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_check_module(args) -> int:
    alg = rio.load_algebra(args.algebra)
    m = rio.load_module(alg, args.module)
    add_list = gen_cogen(alg).modules
    outside = [p for p in indecomposable_summands(m, add_list) if known_index(p, add_list) is None]
    if not outside:
        payload = {
            "tool_version": rio.TOOL_VERSION,
            "verdict": DEGENERATE,
            "notes": ["every indecomposable summand already lies in add(A + DA)"],
        }
        _emit(args, payload)
        return 2
    reports = [check_module_conditions(alg, p) for p in outside]
    verdict = HOLDS if all(r.verdict == HOLDS for r in reports) else FAILS
    payload = rio.report_file(alg, reports)
    payload["verdict"] = verdict
    _emit(args, payload)
    return _EXIT[verdict]


def _run_tilted(args, alg, tilting_path, budget) -> int:
    summands = rio.load_summands(alg, tilting_path)
    try:
        report = check_tilted_sufficient(TiltingContext(alg, summands), budget)
    except NotTilting as exc:
        print("error: not a tilting module: %s" % exc, file=sys.stderr)
        return 4
    except BudgetExceeded:
        print("error: catalog budget exceeded", file=sys.stderr)
        return 3
    payload = rio.report_file(alg, [report])
    _emit(args, payload)
    return _EXIT[report.verdict]


def cmd_check_tilted(args) -> int:
    alg = rio.load_algebra(args.algebra)
    return _run_tilted(args, alg, args.tilting, _budget(args))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="repherd", description="Exact checks for representation-hereditary algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="algebra dimensions and counts")
    p.add_argument("algebra")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check", help="run the verdict checks")
    p.add_argument("algebra")
    p.add_argument("--suite", choices=["main", "all", "tilted"], default="main")
    p.add_argument("--budget-modules", type=_positive, default=Budget.max_modules)
    p.add_argument("--budget-dim", type=_positive, default=Budget.max_total_dim)
    p.add_argument("--tilting", help="tilting summand file (for --suite tilted)")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ar-quiver", help="emit the AR quiver as DOT")
    p.add_argument("algebra")
    p.add_argument("--dot", dest="dot_out")
    p.add_argument("--budget-modules", type=_positive, default=Budget.max_modules)
    p.add_argument("--budget-dim", type=_positive, default=Budget.max_total_dim)
    p.set_defaults(func=cmd_ar_quiver)

    p = sub.add_parser("check-module", help="kernel/cokernel test for one module file")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_check_module)

    p = sub.add_parser("check-tilted", help="tilted sufficiency over a hereditary algebra")
    p.add_argument("algebra")
    p.add_argument("tilting")
    p.add_argument("--budget-modules", type=_positive, default=Budget.max_modules)
    p.add_argument("--budget-dim", type=_positive, default=Budget.max_total_dim)
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_check_tilted)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call, built on the first one: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (NonSplitEndomorphismRing, VerificationFailed) as exc:
        # check-module splits and checks the module of its module file; the other commands split
        # and check modules built from their algebra file, and `check` compares its two routes
        # (RoutesDisagree) on that algebra
        print("error: %s: %s" % (getattr(args, "module", args.algebra), exc), file=sys.stderr)
        return 4
    except (RepherdError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except Exception as exc:
        # a crash is an error, never a verdict
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
