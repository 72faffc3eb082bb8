"""Command-line entry: ``python -m repro.analysis``.

Usage::

    python -m repro.analysis [lint] [--rules a,b] [--stats] \\
        [--json | --format github] PATH...
    python -m repro.analysis check --composition "a+b||c" ...
    python -m repro.analysis check --policies policies.cudele ...
    python -m repro.analysis model [--cell C,D]... [--depth N] \\
        [--budget M] [--mutation NAME] [--no-reduction] \\
        [--out FILE] [--json]
    python -m repro.analysis rules

``lint`` (the default when the first argument is a path) runs simlint
and exits 0 only when every finding is fixed or suppressed; ``check``
statically validates compositions and versioned policy sets; ``model``
runs the explicit-state model checker over Table I cells (exit 1 on
any counterexample — which is the *expected* outcome under
``--mutation``); ``rules`` prints the rule catalog.  ``--json`` emits
machine-readable output and ``--format github`` emits workflow
``::error`` annotations.  Exit codes: 0 clean, 1 findings/errors,
2 usage error.  ``COMMAND --help`` prints that command's options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.checker import (
    PolicySetError,
    check_plan,
    check_policy_set,
    parse_policy_set,
    policy_set_warnings,
)
from repro.analysis.rules import rule_catalog
from repro.analysis.simlint import LintReport, lint_paths

USAGE = __doc__ or ""


def _github_escape(text: str) -> str:
    """Escape a message for a workflow-command annotation value."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def lint_json(report: LintReport) -> str:
    """Machine-readable lint output (one JSON document)."""
    doc = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "findings": [
            {"path": f.path, "line": f.line, "col": f.col,
             "rule": f.rule, "message": f.message}
            for f in report.findings
        ],
        "suppressed": len(report.suppressed),
        "suppressions": report.suppression_counts,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def lint_github(report: LintReport) -> str:
    """GitHub workflow ``::error`` annotations, one per finding."""
    lines = [
        f"::error file={f.path},line={f.line},col={f.col},"
        f"title=simlint {f.rule}::{_github_escape(f.message)}"
        for f in report.findings
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _parser(command: str, description: str) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(
        prog=f"python -m repro.analysis {command}", description=description,
    )


def _add_format(parser: argparse.ArgumentParser) -> None:
    """``--json`` / ``--format text|json|github`` (the last one wins)."""
    parser.add_argument("--format", dest="format", default="text",
                        choices=("text", "json", "github"),
                        help="output format (default text)")
    parser.add_argument("--json", dest="format", action="store_const",
                        const="json", help="same as --format json")


def _count(value: str) -> int:
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"{value!r} is not a count")
    return int(value)


def _lint(argv: List[str]) -> int:
    parser = _parser("lint", "Run the simlint determinism lint.")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="files or directories to lint")
    parser.add_argument("--rules", type=lambda spec: [
        r.strip() for r in spec.split(",") if r.strip()
    ], help="comma-separated rule ids (default: all)")
    parser.add_argument("--stats", action="store_true",
                        help="also print per-suppression waiver counts")
    _add_format(parser)
    args = parser.parse_intermixed_args(argv)
    fmt, paths, rules, show_stats = (
        args.format, args.paths, args.rules, args.stats
    )
    try:
        report = lint_paths(paths, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if fmt == "json":
        sys.stdout.write(lint_json(report))
    elif fmt == "github":
        sys.stdout.write(lint_github(report))
    else:
        print(report.render())
        if show_stats:
            for where, count in sorted(report.suppression_counts.items()):
                print(f"suppression {where}: waived {count} finding(s)")
    return 0 if report.ok else 1


def _check(argv: List[str]) -> int:
    parser = _parser(
        "check", "Check compositions and versioned policy sets statically."
    )
    parser.add_argument("--composition", action="append", default=[],
                        metavar="EXPR", help="a composition expression "
                        "like 'a+b||c' (repeatable)")
    parser.add_argument("--policies", action="append", default=[],
                        metavar="FILE", help="a policy-set file (repeatable)")
    _add_format(parser)
    args = parser.parse_args(argv)
    fmt, compositions, policy_files = (
        args.format, args.composition, args.policies
    )
    if not compositions and not policy_files:
        parser.error("check requires --composition and/or --policies")
    results: List[Dict] = []
    for text in compositions:
        errors = check_plan(text)
        results.append({
            "kind": "composition", "target": text,
            "ok": not errors,
            "errors": [err.render() for err in errors],
            "warnings": [],
        })
    for path in policy_files:
        try:
            source = Path(path).read_text()
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            ps = parse_policy_set(source)
        except PolicySetError as exc:
            results.append({
                "kind": "policies", "target": path, "ok": False,
                "errors": [err.render() for err in exc.errors],
                "warnings": [],
            })
            continue
        errors = check_policy_set(ps)
        results.append({
            "kind": "policies", "target": path,
            "ok": not errors,
            "errors": [err.render() for err in errors],
            "warnings": list(policy_set_warnings(ps)),
            "subtrees": len(ps.subtrees),
            "version": ps.version,
        })
    failed = any(not r["ok"] for r in results)
    if fmt == "json":
        doc = {"ok": not failed, "results": results}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif fmt == "github":
        for r in results:
            for err in r["errors"]:
                where = (f"file={r['target']}," if r["kind"] == "policies"
                         else "")
                sys.stdout.write(
                    f"::error {where}title=repro.analysis check::"
                    f"{_github_escape(err)}\n"
                )
    else:
        for r in results:
            if r["ok"]:
                if r["kind"] == "policies":
                    print(f"{r['target']}: ok ({r['subtrees']} subtree(s), "
                          f"version {r['version']})")
                else:
                    print(f"composition {r['target']!r}: ok")
            else:
                label = (r["target"] if r["kind"] == "policies"
                         else f"composition {r['target']!r}")
                for err in r["errors"]:
                    print(f"{label}: {err}")
            for warning in r.get("warnings", []):
                print(f"{r['target']}: warning: {warning}")
    return 1 if failed else 0


def _model(argv: List[str]) -> int:
    from repro.analysis.model import (
        MUTATIONS, explore_matrix, model_report_json,
    )
    from repro.conformance.driver import CELLS, CONSISTENCIES, DURABILITIES

    def cell(value: str):
        c, _, d = (p.strip() for p in value.partition(","))
        if c not in CONSISTENCIES or d not in DURABILITIES:
            raise argparse.ArgumentTypeError(
                f"unknown cell {value!r}; consistencies: {CONSISTENCIES}, "
                f"durabilities: {DURABILITIES}"
            )
        return (c, d)

    parser = _parser("model", "Model-check Table I cells exhaustively.")
    parser.add_argument("--cell", type=cell, action="append", default=[],
                        metavar="C,D", help="a cell like strong,global "
                        "(repeatable; default: all nine)")
    parser.add_argument("--depth", type=_count, default=4, metavar="N",
                        help="ops per client (default 4)")
    parser.add_argument("--budget", type=_count, default=400, metavar="M",
                        help="runs per cell (default 400)")
    parser.add_argument("--mutation", choices=sorted(MUTATIONS),
                        help="run with a seeded bug (expected to fail)")
    parser.add_argument("--no-reduction", dest="reduction",
                        action="store_false", help="disable DPOR-lite pruning")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON verdict artifact here")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON verdict instead of a summary")
    args = parser.parse_args(argv)
    cells, depth, budget = args.cell, args.depth, args.budget
    mutation = MUTATIONS[args.mutation] if args.mutation else None
    reduction, out_path, as_json = args.reduction, args.out, args.json
    report = explore_matrix(
        cells or CELLS, depth=depth, budget=budget,
        mutation=mutation, reduction=reduction,
    )
    text = model_report_json(report)
    if out_path is not None:
        Path(out_path).write_text(text)
    if as_json:
        sys.stdout.write(text)
    else:
        for cell in report["cells"]:
            status = "ok" if cell["ok"] else "VIOLATION"
            tail = "exhausted" if cell["exhausted"] else "budget-capped"
            print(
                f"{cell['cell']}: {status} runs={cell['runs']} "
                f"states={cell['distinct_states']} pruned={cell['pruned']} "
                f"({tail})"
            )
            ce = cell["counterexample"]
            if ce is not None:
                print(f"  minimal counterexample "
                      f"(variant {ce['variant']}, "
                      f"schedule {ce['schedule']}):")
                for block in ce["decisions"]:
                    for line in block.splitlines():
                        print(f"    {line}")
                for v in ce["violations"]:
                    print(f"    {v['code']}: {v['message']}")
        verdict = "OK" if report["ok"] else "VIOLATION"
        extra = f" [mutation: {report['mutation']}]" if report["mutation"] \
            else ""
        print(f"model: {verdict} ({len(report['cells'])} cell(s), "
              f"depth {depth}){extra}")
    return 0 if report["ok"] else 1


def _rules(argv: List[str]) -> int:
    _parser("rules", "Print the simlint rule catalog.").parse_args(argv)
    for rule_id, summary in rule_catalog().items():
        print(f"{rule_id}: {summary}")
    return 0


COMMANDS = {"lint": _lint, "check": _check, "model": _model,
            "rules": _rules}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE.strip())
        return 0 if argv else 2
    if argv[0] in COMMANDS:
        command, rest = COMMANDS[argv[0]], argv[1:]
    else:
        # Default: treat every argument as a lint target/option.
        command, rest = _lint, argv
    try:
        return command(rest)
    except SystemExit as exc:  # argparse: --help (0) or a usage error (2)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
