"""Command-line interface.

Subcommands: ``decompose``, ``reconstruct``, ``verify-adaptation``,
``train``, ``eval``, ``bench``, ``ablate``.

Exit codes are stable API: 0 success, 1 verification failure, 2 malformed
container/checkpoint, 3 grid or shape mismatch, 4 numeric failure
(non-finite values), 64 usage error. Flags must be spelled out in full;
abbreviations are usage errors. Independent ablation cells run on one
worker thread per CPU. All output files are written atomically (temp file
+ rename).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import SynthDatasetSpec, generate_dataset, load_dataset, save_dataset
from .errors import (
    FormatError,
    GridError,
    NumericError,
    ShapeError,
    VerificationError,
)
from .evaluate import (
    ADAPTED,
    FULL,
    ablation_grid,
    evaluate_sweep,
    write_ablation_csv,
    write_sweep_csv,
    write_tree_csv,
)
from .grids import ResolutionLadder
from .kernels import VARIANTS, SmoothingKernelSpec
from .model import (
    PREFER_COARSER,
    PREFER_FINER,
    ArrnModel,
    equivalence_report,
    load_checkpoint,
    randomize_for_verification,
    save_checkpoint,
)
from .pyramid import decompose, load_pyramid, reconstruct, save_pyramid
from .resample import downsample
from .signal import DTYPES, atomic_write, read_arsg, write_arsg, write_csv
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_FORMAT = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64

_MODES = {"full": (FULL,), "adapted": (ADAPTED,), "both": (FULL, ADAPTED)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors and, for every subcommand, refuses abbreviated flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _parse_ints(tokens, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise UsageError(f"expected integers, got {text!r}") from exc


def _build(factory, **kwargs):
    """Build a spec, config or model from flags; a ValueError is a usage error."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_extents(token: str) -> tuple[int, ...]:
    return _parse_ints(token.lower().split("x"), token)


def _parse_ladder(text: str) -> ResolutionLadder:
    levels = [_parse_extents(tok) for tok in text.split(",") if tok.strip()]
    if len(levels) < 2:
        raise UsageError("a ladder needs at least two comma-separated levels")
    try:
        return ResolutionLadder.from_extents(levels)
    except GridError as exc:
        raise UsageError(str(exc)) from exc


def _parse_resolutions(text: str) -> list[tuple[int, ...]]:
    resolutions = [_parse_extents(tok) for tok in text.split(",") if tok.strip()]
    if not resolutions:
        raise UsageError(f"--resolutions names no resolution: {text!r}")
    return resolutions


def _parse_features(text: str) -> tuple[int, ...]:
    """One width per ladder level; :class:`ArrnModel` checks the count."""
    return _parse_ints((p for p in text.split(",") if p.strip()), text)


def _output_path(text: str, directory: bool = False) -> Path:
    """A file to write, or with ``directory`` a directory to write into. An
    empty path (the working directory), an existing path of the other kind,
    or a file's missing directory is refused before anything runs."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names nothing to write")
    path = Path(text)
    if path.exists() and path.is_dir() != directory:
        kind = "not a directory" if directory else "a directory"
        raise argparse.ArgumentTypeError(f"{text!r} is {kind}")
    if not (directory or path.parent.is_dir()):
        raise argparse.ArgumentTypeError(f"{text!r} is in no existing directory")
    return path


_output_dir = partial(_output_path, directory=True)


def _require_tolerance(tol: float | None) -> None:
    """A comparison against a NaN, infinite or negative ``--tol`` checks nothing."""
    if tol is not None and not 0.0 <= tol < float("inf"):
        raise UsageError(f"--tol must be finite and >= 0, got {tol!r}")


def _require_seed(seed: int) -> None:
    """For a ``--seed`` that only seeds numpy generators, which need it >= 0."""
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")


def _kernel_from_args(args) -> SmoothingKernelSpec:
    """Every kernel flag is checked, also those the variant does not use."""
    return _build(
        SmoothingKernelSpec,
        variant=args.kernel,
        taps_per_axis=args.taps,
        sigma_factor=args.sigma_factor,
        radius_factor=args.radius_factor,
    )


def _add_kernel_flags(parser):
    parser.add_argument("--kernel", choices=VARIANTS, default="perfect",
                        help="smoothing kernel realization")
    parser.add_argument("--taps", type=int, default=9,
                        help="windowed-sinc taps per axis (odd)")
    parser.add_argument("--sigma-factor", type=float, default=0.6,
                        help="gaussian sigma per unit decimation factor")
    parser.add_argument("--radius-factor", type=float, default=2.0,
                        help="gaussian truncation radius in sigmas")


def _add_task_flags(parser):
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--samples-per-class", type=int, default=256)
    parser.add_argument("--noise", type=float, default=0.1)


def _add_dataset_flags(parser):
    _add_task_flags(parser)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--data-cache", type=_output_dir, default=None,
                        help="dataset directory: an existing cache is loaded "
                             "as is and the dataset flags are ignored; "
                             "otherwise the generated dataset is saved there")


def _add_ladder_flags(parser):
    parser.add_argument("--levels", default="64,32,16",
                        help="ladder extents, finest first, e.g. 64,32,16 or "
                             "32x32,16x16,8x8")
    parser.add_argument("--features", default="8,16,32",
                        help="channel widths per ladder level")


def _add_model_flags(parser):
    _add_ladder_flags(parser)
    parser.add_argument("--input-features", type=int, default=1,
                        help="channels per input sample; train generates "
                             "its dataset with this many")
    parser.add_argument("--expansion", type=int, default=2)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--head-dropout", type=float, default=0.2)


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--min-lr", type=float, default=1e-5)
    parser.add_argument("--weight-decay", type=float, default=1e-3)
    parser.add_argument("--dropout", default="0.3",
                        help="per-level gate drop probability, or 'none'")
    parser.add_argument("--dtype", choices=tuple(DTYPES), default="f32")


def _dataset_spec_from_args(args, ladder: ResolutionLadder, seed: int,
                            features: int = 1):
    return _build(
        SynthDatasetSpec,
        classes=args.classes,
        level_extents=tuple(g.extents for g in ladder.levels),
        samples_per_class=args.samples_per_class,
        noise=args.noise,
        features=features,
        seed=seed,
    )


def _dataset_plan(args, ladder: ResolutionLadder, features: int,
                  need_test: bool = False):
    """``(spec, dataset)``: the ``--data-cache`` dataset as is if one exists,
    else the spec of the one to generate, with ``features`` input features,
    and ``None``; nothing is written.

    With ``need_test`` an empty test split is refused.
    """
    cache = args.data_cache
    if cache is not None and (cache / "dataset.json").exists():
        dataset = load_dataset(cache)
        if need_test:
            _require_test_split(dataset.spec, f"dataset cache {cache}")
        return dataset.spec, dataset
    spec = _dataset_spec_from_args(args, ladder, args.data_seed, features)
    if need_test:
        _require_test_split(spec)
    return spec, None


def _realize_dataset(args, spec: SynthDatasetSpec, dataset):
    """The planned dataset: generated, and saved to ``--data-cache``, if
    :func:`_dataset_plan` found no cache."""
    if dataset is None:
        dataset = generate_dataset(spec)
        if args.data_cache is not None:
            save_dataset(args.data_cache, dataset)
    return dataset


def _require_test_split(spec: SynthDatasetSpec, source: str | None = None) -> None:
    """``eval`` and ``ablate`` score the test split, so it must not be empty."""
    if spec.train_per_class >= spec.samples_per_class:
        source = source or f"--samples-per-class {spec.samples_per_class}"
        raise UsageError(
            f"{source} leaves no test samples at train fraction "
            f"{spec.train_fraction}"
        )


def _dropout_from_args(args) -> float | None:
    """The level dropout probability; ``None`` for none, off, or 0."""
    if str(args.dropout).lower() in ("none", "off"):
        return None
    try:
        p = float(args.dropout)
    except ValueError as exc:
        raise UsageError(f"bad --dropout value {args.dropout!r}") from exc
    return p or None


def _train_config_from_args(args, dropout, seed: int) -> TrainConfig:
    return _build(
        TrainConfig,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        min_learning_rate=args.min_lr,
        weight_decay=args.weight_decay,
        dropout=dropout,
        seed=seed,
        dtype=args.dtype,
    )


def _model_from_args(
    args, ladder, kernel, input_features, classes, dtype, seed
) -> ArrnModel:
    return _build(
        ArrnModel,
        ladder=ladder,
        input_features=input_features,
        features=_parse_features(args.features),
        classes=classes,
        kernel=kernel,
        rng=np.random.default_rng(seed),
        expansion=args.expansion,
        depth=args.depth,
        head_dropout=args.head_dropout,
        dtype=dtype,
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    signal = read_arsg(args.input)
    ladder = _parse_ladder(args.levels)
    kernel = _kernel_from_args(args)
    decomp = decompose(signal, ladder, kernel)
    save_pyramid(args.out, decomp)
    print(f"wrote {len(decomp.diffs)} difference bands + low band to {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    _require_tolerance(args.tol)
    if args.tol is not None and args.reference is None:
        raise UsageError("--tol needs --reference: without it nothing is compared")
    decomp = load_pyramid(args.pyramid)
    out = reconstruct(decomp, args.level)
    write_arsg(args.out, out)
    print(f"reconstructed band level {args.level} -> {args.out}")
    if args.reference:
        reference = read_arsg(args.reference)
        expected = downsample(
            reference, decomp.ladder[args.level], SmoothingKernelSpec.perfect()
        )
        err = float(np.max(np.abs(out.values - expected.values)))
        print(f"max abs error vs band-limited reference: {err:.3e}")
        if args.tol is not None and err > args.tol:
            raise VerificationError(
                f"round-trip error {err:.3e} exceeds tolerance {args.tol:.3e}"
            )
    return EXIT_OK


def cmd_verify_adaptation(args) -> int:
    _require_tolerance(args.tol)
    for flag, count in (("--trials", args.trials), ("--repetitions", args.repetitions)):
        if count < 1:
            raise UsageError(f"{flag} must be >= 1, got {count}")
    _require_seed(args.seed)
    ladder = _parse_ladder(args.levels)
    kernel = _kernel_from_args(args)
    features = _parse_features(args.features)
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + 1000 * trial)
        model = _build(ArrnModel, ladder=ladder, input_features=args.input_features,
                       features=features, classes=args.classes, kernel=kernel,
                       rng=rng, dtype=DTYPES[args.dtype])
        randomize_for_verification(model, rng)
        for level in range(1, ladder.top_level + 1):
            report = equivalence_report(
                model, level, rng, repetitions=args.repetitions
            )
            metric = report["max_rel" if args.metric == "rel" else "max_abs"]
            worst = max(worst, metric)
            ok = metric <= args.tol
            failures += not ok
            print(
                f"trial {trial:3d} level {level}: max_abs={report['max_abs']:.3e} "
                f"mean_abs={report['mean_abs']:.3e} "
                f"max_rel={report['max_rel']:.3e} [{'ok' if ok else 'FAIL'}]"
            )
    print(
        f"worst {args.metric} discrepancy over {args.trials} trials: {worst:.3e} "
        f"(tolerance {args.tol:.3e})"
    )
    if failures:
        raise VerificationError(
            f"{failures} level checks exceeded tolerance {args.tol:.3e}"
        )
    print("adaptation equivalence holds at the requested tolerance")
    return EXIT_OK


def cmd_train(args) -> int:
    ladder = _parse_ladder(args.levels)
    kernel = _kernel_from_args(args)
    dropout = _dropout_from_args(args)
    config = _train_config_from_args(args, dropout, args.seed)
    spec, dataset = _dataset_plan(args, ladder, args.input_features)
    # The model is built, and its values checked, before a cache is written.
    model = _model_from_args(
        args, ladder, kernel, spec.features, spec.classes, config.numpy_dtype,
        args.seed,
    )
    dataset = _realize_dataset(args, spec, dataset)
    result = train(model, dataset.train.inputs, dataset.train.labels, config)
    save_checkpoint(
        args.out,
        model,
        dropout=dropout,
        extra={"train_config": config.describe(), "dataset": dataset.spec.describe()},
    )
    if args.loss_csv:
        write_csv(args.loss_csv, "epoch,loss,learning_rate", (
            f"{epoch},{loss!r},{lr!r}"
            for epoch, (loss, lr) in enumerate(
                zip(result.epoch_losses, result.learning_rates)
            )
        ))
    print(
        f"trained {config.epochs} epochs; final loss "
        f"{result.epoch_losses[-1]:.4f}; train accuracy "
        f"{result.final_train_accuracy:.3f}; checkpoint -> {args.out}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    model, manifest = load_checkpoint(args.checkpoint)
    resolutions = _parse_resolutions(args.resolutions)
    plan = _dataset_plan(args, model.ladder, model.input_features, need_test=True)
    dataset = _realize_dataset(args, *plan)
    dropout_label = "on" if any(manifest.get("dropout") or ()) else "off"
    result = evaluate_sweep(
        model,
        dataset.test.inputs,
        dataset.test.labels,
        resolutions,
        modes=_MODES[args.mode],
        policy=args.policy,
        dropout_label=dropout_label,
        measure_time=not args.no_timing,
    )
    write_sweep_csv(args.out, result.rows)
    for row in result.rows:
        print(
            f"{row.resolution:>8} {row.mode:8} accuracy={row.accuracy:.3f} "
            f"macs={row.macs}"
        )
    if args.plot:
        _write_sweep_svg(args.plot, result.rows)
        print(f"plot -> {args.plot}")
    print(f"sweep -> {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.batch < 1:
        raise UsageError("--batch must be positive")
    _require_seed(args.seed)
    resolutions = _parse_resolutions(args.resolutions)
    if args.checkpoint:
        model, _ = load_checkpoint(args.checkpoint)
    else:
        ladder = _parse_ladder(args.levels)
        kernel = _kernel_from_args(args)
        model = _model_from_args(
            args, ladder, kernel, args.input_features, args.classes,
            DTYPES[args.dtype], args.seed,
        )
        randomize_for_verification(model, np.random.default_rng(args.seed))
    inputs = _build(
        np.random.default_rng(args.seed).standard_normal,
        size=(args.batch, model.input_features) + model.ladder[0].extents,
    )
    result = evaluate_sweep(
        model,
        inputs,
        np.zeros(args.batch, dtype=np.int64),
        resolutions,
        policy=args.policy,
        measure_time=not args.no_timing,
    )
    for row in result.rows:
        print(
            f"{row.resolution:>8} {row.mode:8} macs={row.macs} "
            f"wall_ms={row.wall_ms:.2f}"
        )
    write_csv(args.out, "resolution,mode,kernel,macs,wall_ms", (
        f"{row.resolution},{row.mode},{row.kernel},{row.macs},{row.wall_ms!r}"
        for row in result.rows
    ))
    print(f"bench -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    ladder = _parse_ladder(args.levels)
    features = _parse_features(args.features)
    dropout = _dropout_from_args(args)
    if not dropout:
        raise UsageError("ablation needs a nonzero --dropout probability")
    # ablation_grid sets each run's training and dataset seed from --seeds.
    config = _train_config_from_args(args, dropout, seed=0)
    spec = _dataset_spec_from_args(args, ladder, seed=0)
    _require_test_split(spec)
    # The cells build their models on pool threads; one built here checks them.
    _build(ArrnModel, ladder=ladder, input_features=spec.features,
           features=features, classes=spec.classes,
           kernel=SmoothingKernelSpec.perfect(), rng=np.random.default_rng(0))
    seeds = _parse_ints(args.seeds.split(","), args.seeds)
    for seed in seeds:
        _build(partial(replace, spec), seed=seed)
        _build(partial(replace, config), seed=seed)
    resolutions = _parse_resolutions(args.resolutions) if args.resolutions else None
    cells, tree = ablation_grid(
        dataset_spec=spec,
        ladder=ladder,
        features=features,
        base_config=config,
        seeds=seeds,
        resolutions=resolutions,
        dropout_p=dropout,
        policy=args.policy,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ablation_csv(out_dir / "ablation_cells.csv", cells)
    write_tree_csv(out_dir / "ablation_tree.csv", tree)
    for cell in cells:
        print(
            f"kernel={cell.kernel:18} dropout={cell.dropout:3} "
            f"mode={cell.mode:8} accuracy={cell.accuracy:.3f}"
        )
    print(f"cells -> {out_dir / 'ablation_cells.csv'}")
    print(f"tree  -> {out_dir / 'ablation_tree.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Minimal static SVG rendering of sweep curves.
# ---------------------------------------------------------------------------


def _write_sweep_svg(path, rows, width=640, height=400):
    margin = 50
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        sites = float(np.prod([int(p) for p in row.resolution.split("x")]))
        series.setdefault(row.mode, []).append((sites, row.accuracy))
    xs = sorted({x for pts in series.values() for x, _ in pts})
    if not xs:
        return
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0
    colors = {"full": "#555555", "adapted": "#c03030"}

    def sx(x):
        return margin + (width - 2 * margin) * (x - x_lo) / span

    def sy(y):
        return height - margin - (height - 2 * margin) * y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">input samples</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">accuracy</text>',
    ]
    for i, (mode, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        color = colors.get(mode, "#3060c0")
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i}" '
            f'font-size="12" fill="{color}">{mode}</text>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="arrn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split a signal into pyramid bands")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--levels", required=True)
    _add_kernel_flags(p)
    p.add_argument("--out", required=True, type=_output_dir)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild a band level from a pyramid")
    p.add_argument("--pyramid", required=True, type=Path)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--out", required=True, type=_output_path)
    p.add_argument("--reference", type=Path, default=None,
                   help="original signal; prints max abs round-trip error")
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 1) if the reference error exceeds this")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser(
        "verify-adaptation",
        help="check full-vs-adapted logit equivalence on random models",
    )
    p.add_argument("--levels", required=True)
    _add_kernel_flags(p)
    p.add_argument("--features", default="8,16,32")
    p.add_argument("--input-features", type=int, default=1)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=tuple(DTYPES), default="f64")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--metric", choices=("abs", "rel"), default="abs")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_verify_adaptation)

    p = sub.add_parser("train", help="train on the synthetic multiscale task")
    _add_model_flags(p)
    _add_kernel_flags(p)
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_output_path)
    p.add_argument("--loss-csv", type=_output_path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy sweep over resolutions")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--resolutions", required=True)
    p.add_argument("--mode", choices=tuple(_MODES), default="both")
    p.add_argument("--policy", choices=(PREFER_FINER, PREFER_COARSER),
                   default=PREFER_FINER)
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, type=_output_path)
    p.add_argument("--no-timing", action="store_true",
                   help="write wall_ms as 0.0 for reproducible output")
    p.add_argument("--plot", type=_output_path, default=None,
                   help="also write an SVG rendering of the sweep curves")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="MAC and wall-clock table over resolutions")
    p.add_argument("--checkpoint", type=Path, default=None)
    _add_model_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=tuple(DTYPES), default="f32")
    p.add_argument("--resolutions", required=True)
    p.add_argument("--policy", choices=(PREFER_FINER, PREFER_COARSER),
                   default=PREFER_FINER)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--out", required=True, type=_output_path)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "ablate", help="kernel x dropout x adaptation grid with ratio tree"
    )
    _add_ladder_flags(p)
    _add_task_flags(p)
    _add_train_flags(p)
    p.add_argument("--seeds", default="0,1,2",
                   help="each seed draws one dataset and seeds its training runs")
    p.add_argument("--resolutions", default=None)
    p.add_argument("--policy", choices=(PREFER_FINER, PREFER_COARSER),
                   default=PREFER_FINER)
    p.add_argument("--out-dir", required=True, type=_output_dir)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (GridError, ShapeError) as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
