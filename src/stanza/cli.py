"""Command line front end.

Subcommands: `run` one experiment, `compare` the two protocols over a
worker sweep, `plan` a node assignment from measured constants, and
`bench` the compute constants on an executable model.

Each ExperimentConfig field is a `run` flag spelt with dashes (`batch_k` is
`--batch-k`) and typed as the field, like its experiment-file key. `compare`
takes harness.COMPARE_FIELDS, the fields both protocols share, and
`--coordinators` the same way, for both protocols' configs.

`_config` builds each config once from layers, each over the last: a file's
keys (or `compare`'s fixed mode), the given flags, then STANZA_SEED, which
re-rolls a scripted sweep without edits. Merged values are checked once.

Exit codes: 0 on success, 2 for configuration errors (unparsable flags or
any ConfigError), 3 when no feasible node assignment exists, 4 when
training produced non-finite numbers.

The parser is built once per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

from .harness import (_DATA, _MODES, COMPARE_FIELDS, CONFIG_TYPES,
                      ExperimentConfig, NonFinite, bench_constants, compare,
                      experiment_config, load_experiment_file, resolve_model,
                      run)
from .model_partition import ConfigError
from .perf_model import (Infeasible, PerfConstants, best_split,
                         format_constants_text, load_constants_file)

_CONFIG_ERRORS = (ConfigError, FileNotFoundError)

_FIELD_CHOICES = {"mode": _MODES, "data": _DATA}
_FIELD_HELP = {"model": "builtin name or model file path",
               "nodes": "plan the split for this node budget instead of "
                        "giving explicit counts",
               "coordinators": "parameter servers in ps mode, FC workers in "
                               "stanza mode (default 1)"}
_COMPARE_FLAGS = COMPARE_FIELDS + ("coordinators",)


def _add_config_flags(p: argparse.ArgumentParser, fields) -> None:
    """One `--field-name` flag per named ExperimentConfig field."""
    for field in fields:
        p.add_argument(f"--{field.replace('_', '-')}", dest=field,
                       type=CONFIG_TYPES[field],
                       choices=_FIELD_CHOICES.get(field),
                       help=_FIELD_HELP.get(field))


def _given(args: argparse.Namespace, fields) -> dict:
    """The named fields' flags that were given, by field name."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _config(path, flags: dict, base: dict) -> ExperimentConfig:
    """The config from the experiment file at `path` (`base` when there is
    none), then the given flags, then STANZA_SEED, each over the last."""
    layers = [base if path is None else load_experiment_file(path), flags]
    env_seed = os.environ.get("STANZA_SEED")
    if env_seed is not None:
        try:
            layers.append({"seed": int(env_seed)})
        except ValueError:
            raise ConfigError(f"STANZA_SEED={env_seed!r} is not an integer"
                              ) from None
    return experiment_config(*layers)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args.config, _given(args, CONFIG_TYPES), {})
    report = run(config)
    print(f"{report.mode} {report.model}: {report.iterations} iterations on "
          f"{report.workers}+{report.coordinators} nodes "
          f"(global batch {report.global_batch})")
    print(f"logical clock {report.logical_clock_seconds:.6g} s, "
          f"wire bytes {report.total_wire_bytes}")
    if report.final_loss is not None:
        print(f"final loss {report.final_loss:.6f}")
    if report.param_digest is not None:
        print(f"param digest {report.param_digest}")
    if config.out_dir is not None:
        print(f"reports in {config.out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if (args.config_ps is None) != (args.config_stanza is None):
        raise ConfigError("give both --config-ps and --config-stanza")
    shared = _given(args, _COMPARE_FLAGS)
    report = compare(_config(args.config_ps, shared, {"mode": "ps"}),
                     _config(args.config_stanza, shared, {"mode": "stanza"}),
                     worker_counts=args.workers, out_dir=args.out,
                     stem=args.stem)
    print(f"{report.model}, batch {report.batch_k}, "
          f"{report.iterations} iterations")
    print(f"{'workers':>8} {'speedup':>10} {'fc-data':>10} {'total-data':>11}")
    for r in report.rows:
        fc = "-" if r.fc_data_ratio is None else f"{r.fc_data_ratio:.2f}"
        total = "-" if r.total_data_ratio is None else f"{r.total_data_ratio:.2f}"
        print(f"{r.workers:>8} {r.speedup:>10.3f} {fc:>10} {total:>11}")
    if args.out is not None:
        print(f"reports in {args.out}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = resolve_model(args.model, args.batch_k, args.boundary)
    constants = (PerfConstants() if args.constants is None
                 else load_constants_file(args.constants))
    if args.bandwidth is not None:
        constants = dataclasses.replace(constants, bandwidth=args.bandwidth)
    workers, coordinators, seconds = best_split(
        spec, args.mode, args.nodes, constants, fc_memory_bytes=args.memory,
        boundary=args.boundary)
    roles = (("workers", "servers") if args.mode == "ps"
             else ("CONV workers", "FC workers"))
    print(f"{spec.name} on {args.nodes} nodes: {workers} {roles[0]} + "
          f"{coordinators} {roles[1]}")
    print(f"iteration time {seconds:.6g} s, "
          f"throughput {workers * spec.batch_k / seconds:.6g} samples/s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = resolve_model(args.model, args.batch_k)
    constants = bench_constants(spec, reps=args.reps, bandwidth=args.bandwidth,
                                boundary=args.boundary, seed=args.seed)
    text = format_constants_text(constants, name=spec.name)
    print(text, end="")
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanza",
        description="Layer-separated vs parameter-server training on a "
                    "simulated network")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="experiment file; flags override it")
    _add_config_flags(p_run, CONFIG_TYPES)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run both protocols and tabulate ratios")
    p_cmp.add_argument("--config-ps", dest="config_ps")
    p_cmp.add_argument("--config-stanza", dest="config_stanza")
    _add_config_flags(p_cmp, _COMPARE_FLAGS)
    p_cmp.add_argument("--workers", type=int, nargs="+",
                       help="worker counts to sweep")
    p_cmp.add_argument("--out", help="directory for report files")
    p_cmp.add_argument("--stem", default="compare")
    p_cmp.set_defaults(func=_cmd_compare)

    p_plan = sub.add_parser("plan",
                            help="pick the best node assignment for a budget")
    p_plan.add_argument("--model", required=True)
    p_plan.add_argument("--nodes", type=int, required=True)
    p_plan.add_argument("--mode", choices=("stanza", "ps"), default="stanza")
    p_plan.add_argument("--constants", help="measured constants file")
    p_plan.add_argument("--bandwidth", type=float)
    p_plan.add_argument("--batch-k", type=int, dest="batch_k")
    p_plan.add_argument("--boundary", type=int, help="CONV/FC cut layer "
                        "index; checked in every mode, unused by a PS plan")
    p_plan.add_argument("--memory", type=float,
                        help="per-node activation memory limit in bytes")
    p_plan.set_defaults(func=_cmd_plan)

    p_bench = sub.add_parser("bench",
                             help="measure compute constants on this host")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("--batch-k", type=int, dest="batch_k")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--boundary", type=int)
    p_bench.add_argument("--bandwidth", type=float, default=10e9)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="constants file to write")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"stanza: configuration error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"stanza: no feasible assignment: {exc}", file=sys.stderr)
        return 3
    except NonFinite as exc:
        print(f"stanza: numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
