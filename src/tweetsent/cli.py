"""Command line entry point.

Every subcommand takes a JSON experiment config; ``--seed`` overrides the
config's seed and ``--out`` picks the output directory.  Failures exit
nonzero with a message naming the pipeline stage that broke.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .experiment import (
    ABLATIONS,
    ExperimentConfig,
    StageError,
    augment_only,
    eval_file,
    format_ablation_table,
    grid_search,
    predict_file,
    preprocess_only,
    run_ablation,
    run_experiment,
    stage,
)
from .metrics import format_report, report_to_json


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
        config.validate()
    return config


def _add_config_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tweetsent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_out(sub.add_parser("preprocess", help="write preprocessed TSVs for every split"))
    _add_config_out(sub.add_parser("augment", help="write the augmented training TSV"))
    _add_config_out(sub.add_parser("train", help="run the full pipeline and persist reports + model"))
    _add_config_out(sub.add_parser("ablate", help="run the component-removal study"))

    grid = sub.add_parser("grid", help="exhaustive hyperparameter search on dev")
    _add_config_out(grid)
    grid.add_argument(
        "--grid",
        required=True,
        dest="grid_spec",
        help="JSON mapping parameter to candidate values: inline if it starts with { or [, else a file path",
    )

    eval_parser = sub.add_parser("eval", help="evaluate a persisted model on a labeled TSV")
    eval_parser.add_argument("--model", required=True, help="model bundle directory")
    eval_parser.add_argument("--data", required=True, help="labeled TSV")
    eval_parser.add_argument("--out", default=None, help="optional file for the JSON report")

    predict = sub.add_parser("predict", help="label a TSV with a persisted model")
    predict.add_argument("--model", required=True, help="model bundle directory")
    predict.add_argument("--input", required=True, help="TSV of tweets to label")
    predict.add_argument("--output", required=True, help="file for id<TAB>label rows")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Study counts and stage times go to stderr, never into --out.
    logging.basicConfig(format="%(message)s", level=logging.INFO)
    try:
        if args.command == "preprocess":
            outputs = preprocess_only(_load_config(args), args.out)
            for role in sorted(outputs):
                print(f"{role}: {outputs[role]}")
        elif args.command == "augment":
            path = augment_only(_load_config(args), args.out)
            print(f"augmented training data: {path}")
        elif args.command == "train":
            result = run_experiment(_load_config(args), args.out)
            print(format_report(result.dev_report, result.dev_matrix))
            if result.test_report is not None and result.test_matrix is not None:
                print(format_report(result.test_report, result.test_matrix))
            print(f"artifacts: {result.out_dir}")
        elif args.command == "ablate":
            rows = run_ablation(_load_config(args), args.out, ABLATIONS)
            print(format_ablation_table(rows))
        elif args.command == "grid":
            spec = args.grid_spec.strip()
            if spec.startswith(("{", "[")):
                grid = json.loads(spec)
            else:
                with open(spec, encoding="utf-8") as handle:
                    grid = json.load(handle)
            summary = grid_search(_load_config(args), grid, args.out)
            print(json.dumps(summary["best"], indent=2, sort_keys=True))
        elif args.command == "eval":
            # eval_file and predict_file tag their other stages; reading the data is what is left.
            with stage("load"):
                report, matrix = eval_file(args.model, args.data)
            print(format_report(report, matrix))
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                    handle.write(report_to_json(report, matrix))
        elif args.command == "predict":
            with stage("load"):
                count = predict_file(args.model, args.input, args.output)
            print(f"labeled {count} tweets -> {args.output}")
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
