"""Command-line interface.

    warpgeo list
    warpgeo verify (SCENARIO | --all) [--samples N] [--seed S] [--fd-step H]
                   [--scheme central2|central4|richardson]
                   [--tolerance-scale K] [--report json|text] [--out PATH]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .errors import ConfigurationError, GeometryError
from .fd import SCHEMES
from .report import RunConfig, reports_to_json, reports_to_text
from .scenarios import list_scenarios, run_all, run_scenario

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like a number, so a token such as "-1e-5" or "-inf"
        # is a flag's value; argparse's own pattern covers only "-1" and "-.5"
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="warpgeo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the scenario catalog")

    verify = sub.add_parser("verify", help="run verification scenarios")
    verify.add_argument("scenario", nargs="?", help="scenario id (see `warpgeo list`)")
    verify.add_argument("--all", action="store_true", help="run every scenario")
    defaults = RunConfig()
    verify.add_argument("--samples", type=int, default=defaults.samples)
    verify.add_argument("--seed", type=int, default=defaults.seed)
    verify.add_argument("--fd-step", type=float, default=defaults.fd_step)
    verify.add_argument("--scheme", choices=SCHEMES, default=defaults.scheme)
    verify.add_argument(
        "--tolerance-scale", type=float, default=defaults.tolerance_scale,
        help="multiply every tolerance, except the dilation-compatibility verdict of a "
        "non-conformal scenario, which is judged by the unscaled "
        "TOLERANCES['conformality/threshold'] of warpgeo.report",
    )
    verify.add_argument("--report", choices=["json", "text"], default="text")
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ConfigurationError(f"cannot write the report to {out}: {exc.strerror}") from None


def _cmd_list() -> int:
    rows = []
    for s in list_scenarios():
        rows.append({"id": s.scenario_id, "description": s.description, "expected": s.expected})
    sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    if args.all == (args.scenario is not None):
        raise ConfigurationError("pass exactly one of a scenario id or --all")
    config = RunConfig(
        scheme=args.scheme,
        fd_step=args.fd_step,
        seed=args.seed,
        samples=args.samples,
        tolerance_scale=args.tolerance_scale,
    )
    if args.all:
        reports = run_all(config)
    else:
        reports = [run_scenario(args.scenario, config)]
    if args.report == "json":
        _emit(reports_to_json(reports, config), args.out)
    else:
        _emit(reports_to_text(reports), args.out)
    return EXIT_PASS if all(r.overall_pass for r in reports) else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        return _cmd_verify(args)
    except ConfigurationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except GeometryError as exc:
        sys.stderr.write(f"geometry error: {exc}\n")
        return EXIT_CHECK_FAILURE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
