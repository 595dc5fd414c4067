"""Command-line entry points: run, report, validate."""

import argparse
import sys

from .config import check_datasets, parse_config, serialize_config
from .errors import FedPromptError
from .runner import plan_cells, report, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedprompt",
        description="Config-driven federated prompt-learning experiments at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every (scenario x method x seed) cell")
    p_run.add_argument("config", help="experiment file (INI-shaped key=value or JSON)")
    p_run.add_argument("--dry-run", action="store_true", help="print the cell plan, write nothing")
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes; never affects results")
    p_run.add_argument("--seed-offset", type=int, default=0, metavar="N",
                       help="added to every configured seed")
    p_run.add_argument("--out", default=None, help="output directory (overrides FEDPROMPT_OUT)")

    p_report = sub.add_parser("report", help="comparison grids and cost curves from a results dir")
    p_report.add_argument("results_dir")

    p_validate = sub.add_parser("validate", help="parse a config, draw its synthetic prototypes, "
                                "check its feature-table headers and print the resolved values")
    p_validate.add_argument("config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            result = run(config, jobs=args.jobs, dry_run=args.dry_run,
                         seed_offset=args.seed_offset, output_dir=args.out)
            if args.dry_run:
                return 0
            print(f"wrote {len(result.observations)} observations to {result.output_dir}")
            if result.failures:
                print(f"{len(result.failures)} cell(s) failed; see failures.json", file=sys.stderr)
            return result.exit_code
        if args.command == "report":
            print(report(args.results_dir))
            return 0
        if args.command == "validate":
            config = parse_config(args.config)
            cells = plan_cells(config)
            check_datasets(config)
            print(serialize_config(config), end="")
            print(f"# ok: {len(cells)} cells planned")
            return 0
    except FedPromptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
