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
from .kernels import SmoothingKernelSpec
from .model import (
    PREFER_COARSER,
    PREFER_FINER,
    ArrnModel,
    DropoutConfig,
    equivalence_report,
    load_checkpoint,
    randomize_for_verification,
    save_checkpoint,
)
from .pyramid import decompose, load_pyramid, reconstruct, save_pyramid
from .resample import downsample
from .signal import atomic_write, read_arsg, write_arsg
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_FORMAT = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4
EXIT_USAGE = 64


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
    return [_parse_extents(tok) for tok in text.split(",") if tok.strip()]


def _parse_features(text: str) -> tuple[int, ...]:
    features = _parse_ints((p for p in text.split(",") if p.strip()), text)
    if any(f < 1 for f in features):
        raise UsageError(f"--features widths must be positive, got {text!r}")
    return features


def _kernel_from_args(args) -> SmoothingKernelSpec:
    if args.kernel == "perfect":
        return SmoothingKernelSpec.perfect()
    if args.kernel == "windowed_sinc":
        return _build(SmoothingKernelSpec.windowed_sinc, taps_per_axis=args.taps)
    return _build(
        SmoothingKernelSpec.truncated_gaussian,
        sigma_factor=args.sigma_factor,
        radius_factor=args.radius_factor,
    )


def _add_kernel_flags(parser):
    parser.add_argument(
        "--kernel",
        choices=("perfect", "windowed_sinc", "truncated_gaussian"),
        default="perfect",
        help="smoothing kernel realization",
    )
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
    parser.add_argument("--data-cache", type=Path, default=None,
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
    parser.add_argument("--input-features", type=int, default=1)
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
    parser.add_argument("--dtype", choices=("f32", "f64"), default="f32")


def _dataset_spec_from_args(args, ladder: ResolutionLadder, seed: int):
    return _build(
        SynthDatasetSpec,
        classes=args.classes,
        level_extents=tuple(g.extents for g in ladder.levels),
        samples_per_class=args.samples_per_class,
        noise=args.noise,
        seed=seed,
    )


def _dataset_from_args(args, ladder: ResolutionLadder, need_test: bool = False):
    """The ``--data-cache`` dataset as is if one exists, else a generated one.

    With ``need_test`` an empty test split is refused before anything is
    generated or written.
    """
    cache = args.data_cache
    if cache is not None and (cache / "dataset.json").exists():
        dataset = load_dataset(cache)
        if need_test:
            _require_test_split(dataset.spec, f"dataset cache {cache}")
        return dataset
    spec = _dataset_spec_from_args(args, ladder, args.data_seed)
    if need_test:
        _require_test_split(spec)
    dataset = generate_dataset(spec)
    if cache is not None:
        save_dataset(cache, dataset)
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
    if str(args.dropout).lower() in ("none", "off"):
        return None
    try:
        value = float(args.dropout)
    except ValueError as exc:
        raise UsageError(f"bad --dropout value {args.dropout!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise UsageError("--dropout must lie in [0, 1] or be 'none'")
    return value


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


def _model_from_args(args, ladder, kernel, classes, dtype, seed) -> ArrnModel:
    features = _parse_features(args.features)
    if len(features) != len(ladder):
        raise UsageError(
            f"--features needs {len(ladder)} entries for this ladder"
        )
    return _build(
        ArrnModel,
        ladder=ladder,
        input_features=args.input_features,
        features=features,
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
    ladder = _parse_ladder(args.levels)
    kernel = _kernel_from_args(args)
    dtype = np.float32 if args.dtype == "f32" else np.float64
    features = _parse_features(args.features)
    if len(features) != len(ladder):
        raise UsageError(f"--features needs {len(ladder)} entries")
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + 1000 * trial)
        model = _build(
            ArrnModel,
            ladder=ladder,
            input_features=args.input_features,
            features=features,
            classes=args.classes,
            kernel=kernel,
            rng=rng,
            dtype=dtype,
        )
        randomize_for_verification(model, rng)
        for level in range(1, ladder.top_level + 1):
            report = equivalence_report(
                model, level, rng, repetitions=args.repetitions
            )
            metric = report["max_rel" if args.metric == "rel" else "max_abs"]
            worst = max(worst, metric)
            status = "ok" if metric <= args.tol else "FAIL"
            print(
                f"trial {trial:3d} level {level}: max_abs={report['max_abs']:.3e} "
                f"mean_abs={report['mean_abs']:.3e} "
                f"max_rel={report['max_rel']:.3e} [{status}]"
            )
            if metric > args.tol:
                failures += 1
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
    dataset = _dataset_from_args(args, ladder)
    dropout = _dropout_from_args(args)
    config = _train_config_from_args(args, dropout, args.seed)
    model = _model_from_args(
        args, ladder, kernel, dataset.spec.classes, config.numpy_dtype, args.seed
    )
    result = train(model, dataset.train.inputs, dataset.train.labels, config)
    dropout_config = (
        DropoutConfig.uniform(dropout, len(model.residuals))
        if dropout is not None
        else None
    )
    save_checkpoint(
        args.out,
        model,
        dropout=dropout_config,
        extra={"train_config": config.describe(), "dataset": dataset.spec.describe()},
    )
    if args.loss_csv:
        lines = ["epoch,loss,learning_rate"]
        for epoch, (loss, lr) in enumerate(
            zip(result.epoch_losses, result.learning_rates)
        ):
            lines.append(f"{epoch},{loss!r},{lr!r}")
        atomic_write(args.loss_csv, "\n".join(lines) + "\n")
    print(
        f"trained {config.epochs} epochs; final loss "
        f"{result.epoch_losses[-1]:.4f}; train accuracy "
        f"{result.final_train_accuracy:.3f}; checkpoint -> {args.out}"
    )
    return EXIT_OK


def _modes_from_args(args):
    if args.mode == "both":
        return (FULL, ADAPTED)
    return (FULL,) if args.mode == "full" else (ADAPTED,)


def cmd_eval(args) -> int:
    model, manifest = load_checkpoint(args.checkpoint)
    dataset = _dataset_from_args(args, model.ladder, need_test=True)
    resolutions = _parse_resolutions(args.resolutions)
    dropout_label = "on" if manifest.get("dropout") else "off"
    result = evaluate_sweep(
        model,
        dataset.test.inputs,
        dataset.test.labels,
        resolutions,
        modes=_modes_from_args(args),
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
    if args.checkpoint:
        model, _ = load_checkpoint(args.checkpoint)
    else:
        ladder = _parse_ladder(args.levels)
        kernel = _kernel_from_args(args)
        dtype = np.float32 if args.dtype == "f32" else np.float64
        model = _model_from_args(args, ladder, kernel, args.classes, dtype, args.seed)
        randomize_for_verification(model, np.random.default_rng(args.seed))
    rng = np.random.default_rng(args.seed)
    inputs = rng.standard_normal(
        (args.batch, model.input_features) + model.ladder[0].extents
    )
    result = evaluate_sweep(
        model,
        inputs,
        np.zeros(args.batch, dtype=np.int64),
        _parse_resolutions(args.resolutions),
        policy=args.policy,
        measure_time=not args.no_timing,
        batch_size=args.batch,
    )
    lines = ["resolution,mode,kernel,macs,wall_ms"]
    for row in result.rows:
        lines.append(
            f"{row.resolution},{row.mode},{row.kernel},{row.macs},{row.wall_ms!r}"
        )
        print(
            f"{row.resolution:>8} {row.mode:8} macs={row.macs} "
            f"wall_ms={row.wall_ms:.2f}"
        )
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"bench -> {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    ladder = _parse_ladder(args.levels)
    features = _parse_features(args.features)
    if len(features) != len(ladder):
        raise UsageError(f"--features needs {len(ladder)} entries")
    dropout = _dropout_from_args(args)
    if dropout is None:
        raise UsageError("ablation needs a nonzero --dropout probability")
    # ablation_grid sets each run's training and dataset seed from --seeds.
    config = _train_config_from_args(args, dropout, seed=0)
    spec = _dataset_spec_from_args(args, ladder, seed=0)
    _require_test_split(spec)
    seeds = _parse_ints(args.seeds.split(","), args.seeds)
    resolutions = (
        _parse_resolutions(args.resolutions) if args.resolutions else None
    )
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
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild a band level from a pyramid")
    p.add_argument("--pyramid", required=True, type=Path)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
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
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
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
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--loss-csv", type=Path, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy sweep over resolutions")
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--resolutions", required=True)
    p.add_argument("--mode", choices=("full", "adapted", "both"), default="both")
    p.add_argument("--policy", choices=(PREFER_FINER, PREFER_COARSER),
                   default=PREFER_FINER)
    _add_dataset_flags(p)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--no-timing", action="store_true",
                   help="write wall_ms as 0.0 for reproducible output")
    p.add_argument("--plot", type=Path, default=None,
                   help="also write an SVG rendering of the sweep curves")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="MAC and wall-clock table over resolutions")
    p.add_argument("--checkpoint", type=Path, default=None)
    _add_model_flags(p)
    _add_kernel_flags(p)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f32")
    p.add_argument("--resolutions", required=True)
    p.add_argument("--policy", choices=(PREFER_FINER, PREFER_COARSER),
                   default=PREFER_FINER)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--out", required=True, type=Path)
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
    p.add_argument("--out-dir", required=True, type=Path)
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
