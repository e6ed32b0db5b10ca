"""Command line front end for the verification scenarios.

Subcommands: verify <suite> runs one property suite (or "all"),
index-check compares both sides of the pairing identity, list-suites
prints the registry, emit-fixtures writes the golden tables into the
directory named by --report.  Exit status: 0 when every check passed,
1 when some check failed, 2 for usage or configuration problems or a
report that cannot be written.
"""

import argparse
import sys

from .scenarios import (ConfigError, ScenarioConfig, available_suites,
                        emit_fixtures, emit_report, index_check, run_suite)


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = ScenarioConfig.from_file(args.config)
    else:
        cfg = ScenarioConfig()
    if args.seed is not None:
        data = cfg.to_dict()
        data["seed"] = args.seed
        cfg = ScenarioConfig.from_dict(data)
    return cfg


def _print_report(report, stream) -> None:
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        line = f"[{mark}] {c.name} ({c.law}) {c.runtime:.2f}s"
        if not c.passed:
            line += f": expected {c.expected}, got {c.actual}"
        print(line, file=stream)
    good = sum(1 for c in report.checks if c.passed)
    print(f"{good}/{len(report.checks)} checks passed "
          f"in {report.runtime:.2f}s", file=stream)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override the configured random seed")
    common.add_argument("--report", metavar="PATH",
                        help="write the JSON report here "
                             "(output directory for emit-fixtures)")
    parser = argparse.ArgumentParser(
        prog="starchain",
        description="exact verification scenarios for chain-level "
                    "index machinery on quantized tori")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run one property suite")
    p_verify.add_argument("suite", help='suite name, or "all"')
    sub.add_parser("index-check", parents=[common],
                   help="compare trace and integral sides of the pairing")
    sub.add_parser("list-suites", parents=[common],
                   help="print the available suite names")
    sub.add_parser("emit-fixtures", parents=[common],
                   help="write golden tables (needs --report DIR)")
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        for name in available_suites():
            print(name)
        return 0

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        for field, message in exc.problems:
            print(f"config error: {field}: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "emit-fixtures":
        if not args.report:
            print("emit-fixtures needs --report DIR", file=sys.stderr)
            return 2
        try:
            written = emit_fixtures(cfg, args.report)
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(path)
        return 0

    if args.command == "verify":
        try:
            report = run_suite(args.suite, cfg)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        report = index_check(cfg)

    _print_report(report, sys.stdout)
    if args.report:
        try:
            emit_report(report, args.report)
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
