"""Command-line interface.

Exit codes: 0 success / expectations met, 1 expectation mismatch or failed
reproduction, 2 input error (unparsable file, unknown name, missing field or
wrong JSON type), 3 search-space guard exceeded, 4 internal error (any other
exception: one line on stderr, no traceback).  The guard can be overridden
through the GVCGLAB_GUARD environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .allocation import SearchSpaceError
from .generate import INCOME_EFFECT_MODES, OBJECT_NAMES
from .mechanism import run_gvcg
from .prefs import StructuralError, rat
from .scenarios import (
    REPRODUCE_NAMES,
    load_scenario,
    reproduce,
    run_scenario,
    survey_dominance,
)
from . import serialize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in ``[low, high]`` (no upper end when None)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {high or 'inf'}]")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvcglab",
        description="Generalized VCG engine and axiom auditor for dichotomous combinatorial auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the mechanism on a scenario file")
    solve.add_argument("path")
    solve.add_argument(
        "--t-l",
        dest="t_l",
        default=None,
        help="override the reference transfer level (use --t-l=-1 for negative values)",
    )

    audit = sub.add_parser("audit", help="run a scenario's audits and diff expectations")
    audit.add_argument("path")
    audit.add_argument("--t-l", dest="t_l", default=None)

    repro = sub.add_parser("reproduce", help="re-run a named built-in construction")
    repro.add_argument("name", choices=REPRODUCE_NAMES)
    repro.add_argument("--seed", type=int, default=0)
    repro.add_argument("--samples", type=_int_in(0), default=None)

    fuzz = sub.add_parser("fuzz", help="random economies through the mechanism and audits")
    fuzz.add_argument("--n", type=_int_in(1), required=True, help="max number of agents")
    fuzz.add_argument(
        "--m", type=_int_in(1, len(OBJECT_NAMES)), required=True, help="max number of objects"
    )
    fuzz.add_argument("--income-effect", choices=INCOME_EFFECT_MODES, default="mixed")
    fuzz.add_argument("--samples", type=_int_in(0), default=1000)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--t-l", dest="t_l", default="0")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.path)
    t = scenario.t_l if args.t_l is None else rat(args.t_l)
    result = run_gvcg(scenario.economy, t)
    sys.stdout.write(serialize.dumps(serialize.result_to_json(result, scenario.economy.object_names)))
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.path)
    report = run_scenario(scenario, t_l_override=args.t_l)
    sys.stdout.write(serialize.dumps(report))
    if report.get("expected_match") is False:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    claims = reproduce(args.name, seed=args.seed, samples=args.samples)
    ok = True
    for text, passed in claims:
        print(f"{'PASS' if passed else 'FAIL'}: {text}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_fuzz(args: argparse.Namespace) -> int:
    survey = survey_dominance(
        args.seed,
        args.samples,
        args.income_effect,
        t_l=rat(args.t_l),
        max_agents=args.n,
        max_objects=args.m,
    )
    payload = dataclasses.asdict(survey)
    payload.update(
        {"income_effect": args.income_effect, "seed": args.seed, "t_L": str(rat(args.t_l))}
    )
    sys.stdout.write(serialize.dumps(payload))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "audit": _cmd_audit,
        "reproduce": _cmd_reproduce,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
