"""Command-line front end: run | generate | gridsearch | matrix | inspect.

Exit codes: 0 success, 2 config/usage error (``stream_core.ConfigError``), 3
data error (``stream_core.DataError``, or a file that cannot be read or
parsed); ``main`` alone maps errors to them. All outputs are
CSV (floats fixed to 6 decimals) plus JSON for best parameters and the
resolved configuration; identical flags and inputs yield byte-identical
files. A flat key=value config file may supply defaults; command-line flags
override it. The DRIFTSTREAM_OUT environment variable overrides the default
output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import (
    ExperimentConfig,
    experiment_matrix,
    load_stream,
    rolling_mean,
    run_experiment,
    write_curves_csv,
    write_events_csv,
    write_records_csv,
    write_summary_csv,
)
from .preprocess import BinBoundaries
from .stream_core import ConfigError, DataError, FeatureSchema, Table, write_columns
from .synth import (
    PROFILES,
    DriftSpec,
    SynthConfig,
    generate,
    write_concept_sidecar,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
_RUN = ExperimentConfig()  # the default run, whose fields the experiment flags default to


# -- config file ----------------------------------------------------------


_BOOL_KEYS = {"incremental", "quiet", "hidden-context"}


def _config_file_args(argv: list[str]) -> list[str]:
    """The CLI arguments that the key=value lines of the file ``--config``
    names in a command's arguments ``argv`` translate to, a key's
    underscores read as dashes; none without the flag. The flag is read as
    argparse reads it: ``--config FILE``, ``--config=FILE`` or an
    abbreviation such as ``--conf FILE``. A line that is not key=value, or
    a byte that is not UTF-8, is a ``ConfigError`` naming its line."""
    parser = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    parser.add_argument("--config")
    try:
        path = parser.parse_known_args(argv)[0].config
    except argparse.ArgumentError as e:
        raise ConfigError(str(e)) from None
    if path is None:
        return []
    args: list[str] = []
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:  # the bad byte's line: the lines before it, plus its own
        lineno = len((data[: e.start].decode("utf-8") + "_").splitlines())
        raise ConfigError(f"{path}:{lineno}: byte 0x{data[e.start]:02x} is not UTF-8") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        flag = "--" + key
        if value.lower() in ("true", "yes", "1") and key in _BOOL_KEYS:
            args.append(flag)
        elif value.lower() in ("false", "no", "0") and key in _BOOL_KEYS:
            if key == "incremental":  # the one with a --no- form; matrix defaults to on
                args.append("--no-incremental")
        else:
            args.extend([flag, value])
    return args


# -- input handling -------------------------------------------------------


def _count(token: str) -> int:
    """argparse type of the size flags: an integer >= 1."""
    n = int(token) if token.lstrip("-").isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {token!r}")
    return n


def _counts(token: str) -> list[int]:
    """argparse type of the size-list flags: comma-separated integers >= 1."""
    return [_count(part) for part in token.split(",") if part]


def _floats(token: str) -> list[float]:
    """argparse type of the grid flags: comma-separated numbers."""
    try:
        return [float(part) for part in token.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {token!r}") from None


def _synth_config(args) -> SynthConfig:
    """The generator config of the ``generate`` flags; a drift or size flag
    that the stream would not use is a ``ConfigError``. Without a profile, a
    size flag not given takes ``SynthConfig``'s value (``--n`` 10,000)."""
    flags = {"--drift-at": args.drift_at, "--drift-width": args.drift_width,
             "--magnitude": args.magnitude}
    sizes = {"n_instances": args.n, "n_categorical": args.n_categorical,
             "n_numeric": args.n_numeric, "n_classes": args.n_classes,
             "n_categories": args.n_categories, "hidden_context": args.hidden_context}
    sizes = {k: v for k, v in sizes.items() if v is not None}
    if args.profile:
        if args.profile not in PROFILES:
            raise ConfigError(
                f"unknown profile {args.profile!r}; available: {', '.join(PROFILES)}"
            )
        given = [f for f, v in {"--drift-kind": args.drift_kind, **flags}.items() if v is not None]
        if given:
            raise ConfigError(f"--profile sets its own drift; {', '.join(given)} cannot change it")
        if sizes:
            given = ["--n" if k == "n_instances" else "--" + k.replace("_", "-") for k in sizes]
            raise ConfigError(
                f"--profile sets its own sizes; {', '.join(given)} cannot change them"
            )
        return PROFILES[args.profile](args.seed)
    drift = ()
    if args.drift_kind in (None, "none"):
        given = [f for f, v in flags.items() if v is not None]
        if given:
            raise ConfigError(f"a --drift-kind other than none is needed for {', '.join(given)}")
    else:
        if args.drift_at is None:
            raise ConfigError("--drift-at is required for a drifting stream")
        shape = {"width": args.drift_width, "magnitude": args.magnitude}
        drift = (DriftSpec(args.drift_kind, args.drift_at,
                           **{k: v for k, v in shape.items() if v is not None}),)
    return SynthConfig(**{"n_instances": 10000, **sizes}, drift=drift, seed=args.seed)


def _load_stream(args) -> tuple[Table, FeatureSchema]:
    """Load the stream --input or --synth names, with its predictive schema;
    the source flags are checked before any input is read."""
    if bool(args.input) == bool(args.synth):
        raise ConfigError("exactly one of --input or --synth must be given")
    if args.synth:
        if args.label is not None or args.exclude or args.bin_days is not None:
            raise ConfigError("--label, --exclude and --bin-days apply to --input only")
        if args.synth not in PROFILES:
            raise ConfigError(f"unknown synth profile {args.synth!r}")
        return load_stream(PROFILES[args.synth](args.seed))
    if not args.label:
        raise ConfigError("--label is required with --input")
    bins = None
    if args.bin_days is not None:
        try:
            edges = tuple(float(d) for d in args.bin_days.split(","))
            bins = BinBoundaries(edges, unit_divisor=24.0)
        except ValueError as e:
            raise ConfigError(f"--bin-days expects ascending day edges such as 6,39: {e}")
    return load_stream(args.input, args.label, args.exclude, bins)


def _experiment_config(args, **cell) -> ExperimentConfig:
    """The experiment config of the flags that every experiment command
    takes (``_add_experiment``), with the fields ``cell`` gives or
    replaces; any other field keeps its default."""
    prefix_len = []
    for part in (p for p in args.prefix_len.split(",") if p):
        name, _, plen = part.partition("=")
        if not plen.isdecimal() or int(plen) < 1:
            raise ConfigError(f"--prefix-len expects feature=length >= 1, got {part!r}")
        prefix_len.append((name, int(plen)))
    fields = dict(
        incremental=args.incremental,
        warmup=args.warmup,
        window=args.window,
        mini_batch_size=args.mini_batch,
        ph_delta=args.ph_delta,
        ph_burn_in=args.burn_in,
        boxcox=tuple(t for t in args.boxcox.split(",") if t),
        prefix_len=tuple(prefix_len),
    )
    return ExperimentConfig(**{**fields, **cell})


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("DRIFTSTREAM_OUT", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved_config(out: Path, args, **ran) -> None:
    """Write the flags, and ``ran`` over them, to ``resolved-config.json``."""
    doc = {
        k: v for k, v in sorted({**vars(args), **ran}.items()) if k != "func" and v is not None
    }
    doc["version"] = __version__
    (out / "resolved-config.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# -- commands -------------------------------------------------------------


def cmd_run(args) -> int:
    out = _out_dir(args)
    cell = dict(detector=args.detector.replace("-", "_"), strategy=args.strategy,
                batch_size=args.batch_size)
    cfg = _experiment_config(args, **cell, ph_lambda=args.ph_lambda, adwin_delta=args.adwin_delta)
    table, schema = _load_stream(args)
    recs, summary = run_experiment(table, schema, cfg)
    _write_resolved_config(out, args)
    write_records_csv(recs, out / "records.csv")
    write_curves_csv(recs, out / "curves.csv")
    write_events_csv(recs, out / "events.csv")
    write_summary_csv(
        [
            {
                "detector": cfg.detector,
                "batch_size": cfg.batch_size,
                "strategy": cfg.strategy or "none",
                "incremental": int(cfg.incremental),
                "accuracy": summary.overall_accuracy,
                "n_predictions": summary.n_predictions,
                "n_drifts": summary.n_drifts,
                "n_retrains": summary.n_retrains,
            }
        ],
        out / "summary.csv",
    )
    _say(
        args,
        f"accuracy {summary.overall_accuracy:.6f} over {summary.n_predictions} predictions "
        f"({summary.n_drifts} drifts, {summary.n_retrains} retrains) -> {out}",
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    out = _out_dir(args)
    cfg = _synth_config(args)
    stream = generate(cfg)
    # the config's fields that are flags too: a --profile sets the sizes and
    # the hidden context of its stream
    ran = {k: v for k, v in vars(cfg).items() if k in vars(args)}
    _write_resolved_config(out, args, n=cfg.n_instances, **ran)
    write_csv(stream.table, stream.schema, out / "stream.csv")
    write_concept_sidecar(stream.concept_ids, out / "concepts.csv")
    _say(args, f"wrote {cfg.n_instances} instances to {out / 'stream.csv'}")
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    out = _out_dir(args)
    detector = args.detector.replace("-", "_")
    if detector not in ("page_hinkley", "adwin"):
        raise ConfigError("gridsearch needs --detector page-hinkley or adwin")
    grids = {"--lambda": args.grid_lambda, "--delta": args.grid_delta}
    flag, other = ("--lambda", "--delta") if detector == "page_hinkley" else ("--delta", "--lambda")
    if grids[other]:
        raise ConfigError(f"gridsearch --detector {args.detector} searches {flag}, not {other}")
    values = grids[flag]
    if not values:
        raise ConfigError("empty parameter grid")
    key = "ph_lambda" if detector == "page_hinkley" else "adwin_delta"
    cell = dict(detector=detector, strategy=args.strategy or "last", batch_size=args.batch_size)
    # a bad grid value exits before the stream loads
    configs = [_experiment_config(args, **cell, **{key: v}) for v in values]
    table, schema = _load_stream(args)
    summaries = experiment_matrix(table[: args.prefix], schema, configs)
    _write_resolved_config(out, args)
    rows = [
        {
            "detector": detector,
            key: value,
            "accuracy": summary.overall_accuracy,
            "n_drifts": summary.n_drifts,
            "n_retrains": summary.n_retrains,
        }
        for value, summary in zip(values, summaries)
    ]
    write_summary_csv(rows, out / "grid.csv")
    best = max(rows, key=lambda row: row["accuracy"])  # the first of equals
    (out / "best.json").write_text(
        json.dumps({"detector": detector, key: best[key]}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    _say(args, f"best {key}={best[key]} (accuracy {best['accuracy']:.6f}) -> {out}")
    return EXIT_OK


def cmd_matrix(args) -> int:
    out = _out_dir(args)
    detectors = [d.replace("-", "_") for d in args.detectors.split(",") if d]
    batch_sizes = args.batch_sizes
    strategies = [s for s in args.strategies.split(",") if s]
    if not detectors or not batch_sizes or not strategies:
        raise ConfigError("matrix needs non-empty detectors, batch sizes, and strategies")
    # baseline rows: no detector in either learning mode, then the first
    # grid cell in either learning mode; then the grid in the given one
    params = dict(ph_lambda=args.ph_lambda, adwin_delta=args.adwin_delta)
    cell0 = dict(detector=detectors[0], batch_size=batch_sizes[0], strategy=strategies[0])
    configs = [
        _experiment_config(args, **params, incremental=False),
        _experiment_config(args, **params, incremental=True),
        _experiment_config(args, **params, **cell0, incremental=False),
        _experiment_config(args, **params, **cell0, incremental=True),
    ]
    configs += [
        _experiment_config(args, **params, detector=d, batch_size=b, strategy=s)
        for d in detectors
        for b in batch_sizes
        for s in strategies
    ]
    table, schema = _load_stream(args)
    distinct = list(dict.fromkeys(configs))  # a config runs once, however many rows show it
    summaries = dict(zip(distinct, experiment_matrix(table, schema, distinct, args.workers)))
    baseline = summaries[configs[0]].overall_accuracy
    if not baseline:
        raise DataError("the baseline accuracy is 0, so performance_increase is undefined")
    rows = []
    for cfg in configs:
        s = summaries[cfg]
        rows.append(
            {
                "detector": cfg.detector,
                "batch_size": cfg.batch_size if cfg.strategy else 0,
                "strategy": cfg.strategy or "none",
                "incremental": int(cfg.incremental),
                "accuracy": s.overall_accuracy,
                "n_drifts": s.n_drifts,
                "n_retrains": s.n_retrains,
                "performance_increase": (s.overall_accuracy - baseline) / baseline,
            }
        )
    _write_resolved_config(out, args)
    write_summary_csv(rows, out / "summary.csv")
    _say(args, f"wrote {len(rows)} rows to {out / 'summary.csv'}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    out = _out_dir(args)
    table, _ = _load_stream(args)
    column = table.columns.get(args.feature)
    if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
        raise ConfigError(f"unknown or non-numeric feature {args.feature!r}")
    means = rolling_mean(column, args.window)
    _write_resolved_config(out, args)
    path = out / f"inspect_{args.feature}.csv"
    texts = [f"{m:.6f}" for m in means]
    write_columns(path, ("index", "rolling_mean"), (np.arange(len(texts)), texts))
    _say(args, f"wrote {len(means)} rows to {path}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", "-o", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--quiet", action="store_true")


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default=None, help="chronological CSV stream")
    p.add_argument("--synth", default=None, help="synthetic profile (paper-like)")
    p.add_argument("--label", default=None, help="label column for --input")
    p.add_argument("--exclude", default=[], nargs="*", help="input columns to drop")
    p.add_argument("--bin-days", default=None, help="day edges binning an hours-valued label, e.g. 6,39")


def _add_cell(p: argparse.ArgumentParser) -> None:
    """The flags of one cell of the grid that ``matrix`` takes as lists."""
    p.add_argument("--detector", choices=["none", "page-hinkley", "adwin"], default=_RUN.detector)
    p.add_argument("--strategy", choices=["last", "mixed", "next"], default=_RUN.strategy)
    p.add_argument("--batch-size", type=_count, default=_RUN.batch_size)


def _add_thresholds(p: argparse.ArgumentParser) -> None:
    """The detector thresholds, which ``gridsearch`` takes as grids instead."""
    p.add_argument("--lambda", dest="ph_lambda", type=float, default=_RUN.ph_lambda)
    p.add_argument("--delta", dest="adwin_delta", type=float, default=_RUN.adwin_delta)


def _add_experiment(p: argparse.ArgumentParser) -> None:
    p.add_argument("--incremental", action=argparse.BooleanOptionalAction, default=_RUN.incremental)
    p.add_argument("--warmup", type=_count, default=_RUN.warmup)
    p.add_argument("--window", type=_count, default=_RUN.window)
    p.add_argument("--mini-batch", type=_count, default=_RUN.mini_batch_size)
    p.add_argument("--ph-delta", type=float, default=_RUN.ph_delta)
    p.add_argument("--burn-in", type=int, default=_RUN.ph_burn_in)
    p.add_argument("--boxcox", default=",".join(_RUN.boxcox),
                   help="numeric features to transform, comma-separated")
    p.add_argument("--prefix-len", default=",".join(f"{f}={n}" for f, n in _RUN.prefix_len),
                   help="category truncation, feature=len[,..]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Drift-aware stream learning experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single prequential experiment")
    _add_common(p)
    _add_source(p)
    _add_cell(p)
    _add_experiment(p)
    _add_thresholds(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("generate", help="synthetic drift stream + concept sidecar")
    _add_common(p)
    p.add_argument("--profile", default=None, help="named profile (paper-like)")
    p.add_argument("--n", type=int, default=None, help="rows (default 10000)")
    p.add_argument("--n-categorical", type=int, default=None)
    p.add_argument("--n-numeric", type=int, default=None)
    p.add_argument("--n-classes", type=int, default=None)
    p.add_argument("--n-categories", type=int, default=None)
    p.add_argument("--drift-kind", choices=["none", "sudden", "gradual", "recurring"], default=None)
    p.add_argument("--drift-at", type=int, default=None)
    p.add_argument("--drift-width", type=int, default=None)
    p.add_argument("--magnitude", type=float, default=None)
    p.add_argument("--hidden-context", action="store_true", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gridsearch", help="parameter grid search on a stream prefix")
    _add_common(p)
    _add_source(p)
    _add_cell(p)
    _add_experiment(p)
    p.add_argument("--prefix", type=_count, default=10000)
    p.add_argument("--lambda", dest="grid_lambda", type=_floats, default="",
                   help="PH thresholds, comma-separated")
    p.add_argument("--delta", dest="grid_delta", type=_floats, default="",
                   help="ADWIN deltas, comma-separated")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("matrix", help="detector x batch-size x strategy grid")
    _add_common(p)
    _add_source(p)
    _add_experiment(p)
    _add_thresholds(p)
    p.add_argument("--detectors", default="page-hinkley,adwin")
    p.add_argument("--batch-sizes", type=_counts, default="500,1000,2000,5000")
    p.add_argument("--strategies", default="last,mixed,next")
    p.add_argument("--workers", type=_count, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_matrix, incremental=True)

    p = sub.add_parser("inspect", help="rolling mean of a numeric feature")
    _add_common(p)
    _add_source(p)
    p.add_argument("--feature", required=True)
    p.add_argument("--window", type=_count, default=_RUN.window)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # the file's values go before the flags, so the flags override them
        if argv and argv[0] not in ("-h", "--help", "--version"):
            argv = argv[:1] + _config_file_args(argv[1:]) + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"driftstream: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, csv.Error, UnicodeDecodeError) as e:
        print(f"driftstream: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"driftstream: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
