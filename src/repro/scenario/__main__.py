"""Command line: ``python -m repro.scenario <command> ...``.

* ``run FILE [--seeds N] [--jobs N] [--out FILE]`` — run a scenario
  file, print its SLO report, and with ``--out`` write the JSON artifact
  (byte-identical across serial and ``--jobs`` runs).
* ``compare BASE.json CAND.json [tolerance]`` — regression-diff two
  artifacts of the same scenario; exits 1 on divergence.
* ``validate FILE ...`` — load + validate scenario files without
  running them (the CI lint for checked-in scenarios).

``--help`` (on its own or after a command) prints usage and exits 0; a
malformed or unknown argument prints usage and exits 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenario.report import (
    compare_files,
    dump_artifact,
    format_report,
)
from repro.scenario.runner import run_scenario
from repro.scenario.spec import ScenarioError, load_spec


def _run(args) -> int:
    try:
        spec = load_spec(args.file)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    artifact = run_scenario(spec, seeds=args.seeds, jobs=args.jobs)
    print(format_report(artifact))
    if args.out is not None:
        dump_artifact(artifact, args.out)
        print(f"artifact: {args.out}")
    return 0


def _compare(args) -> int:
    try:
        report = compare_files(args.base, args.cand, args.tolerance)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0 if report.ok else 1


def _validate(args) -> int:
    status = 0
    for path in args.files:
        try:
            spec = load_spec(path)
        except (OSError, ScenarioError) as exc:
            print(f"{path}: INVALID: {exc}")
            status = 1
            continue
        print(f"{path}: ok ({spec.name}: {spec.population.users:,} users, "
              f"{len(spec.subtrees)} subtree(s))")
    return status


def _count(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="command",
                                     required=True)
    run = commands.add_parser("run", allow_abbrev=False,
                              help="run a scenario file")
    run.add_argument("file", metavar="FILE")
    run.add_argument("--seeds", type=_count, metavar="N",
                     help="seed count (default: the scenario's own)")
    run.add_argument("--jobs", type=int, metavar="N",
                     help="fan seeds over N worker processes")
    run.add_argument("--out", metavar="FILE",
                     help="write the JSON artifact here")
    run.set_defaults(handler=_run)
    compare = commands.add_parser("compare", allow_abbrev=False,
                                  help="regression-diff two artifacts")
    compare.add_argument("base", metavar="BASE.json")
    compare.add_argument("cand", metavar="CAND.json")
    compare.add_argument("tolerance", type=float, nargs="?", default=0.05)
    compare.set_defaults(handler=_compare)
    validate = commands.add_parser("validate", allow_abbrev=False,
                                   help="validate scenario files")
    validate.add_argument("files", nargs="+", metavar="FILE")
    validate.set_defaults(handler=_validate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; argparse errors print usage and exit 2.
        return exc.code
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
