"""End-to-end command-line behavior and the stable exit-code contract."""

import argparse
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from arrn.cli import build_parser, main
from arrn.grids import GridSpec, ResolutionLadder
from arrn.kernels import SmoothingKernelSpec
from arrn.model import ArrnModel, load_checkpoint, save_checkpoint
from arrn.signal import DiscreteSignal, read_arsg, write_arsg


def run(*argv):
    return main([str(a) for a in argv])


def rewrite_manifest(src, dst, edit):
    """Copy the ARNN1 file ``src`` (magic, u32 manifest length, manifest,
    blob) to ``dst`` with its manifest edited in place by ``edit``."""
    raw = src.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 6)
    manifest = json.loads(raw[10 : 10 + length])
    edit(manifest)
    header = json.dumps(manifest).encode()
    dst.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header
                    + raw[10 + length :])


@pytest.fixture
def noise_signal(tmp_path):
    rng = np.random.default_rng(3)
    sig = DiscreteSignal(GridSpec((64,)), rng.standard_normal((1, 64)))
    path = tmp_path / "input.arsg"
    write_arsg(path, sig)
    return path


class TestDecomposeReconstruct:
    def test_roundtrip_perfect_kernel(self, tmp_path, noise_signal, capsys):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--kernel", "perfect", "--out", out_dir) == 0
        recon = tmp_path / "recon.arsg"
        code = run("reconstruct", "--pyramid", out_dir, "--level", "1",
                   "--out", recon, "--reference", noise_signal, "--tol", "1e-10")
        assert code == 0
        text = capsys.readouterr().out
        assert "max abs error" in text
        assert read_arsg(recon).grid == GridSpec((32,))

    def test_constant_input_gives_zero_diffs(self, tmp_path):
        sig = DiscreteSignal(GridSpec((32,)), np.full((1, 32), 2.5))
        path = tmp_path / "const.arsg"
        write_arsg(path, sig)
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", path, "--levels", "32,16,8",
                   "--out", out_dir) == 0
        for name in ("diff_1.arsg", "diff_2.arsg"):
            diff = read_arsg(out_dir / name)
            np.testing.assert_allclose(diff.values, 0.0, atol=1e-12)

    def test_bad_magic_exits_2(self, tmp_path):
        bad = tmp_path / "bad.arsg"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert run("decompose", "--input", bad, "--levels", "64,32",
                   "--out", tmp_path / "x") == 2

    def test_missing_diff_file_exits_2(self, tmp_path, noise_signal):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--out", out_dir) == 0
        (out_dir / "diff_2.arsg").unlink()
        assert run("reconstruct", "--pyramid", out_dir, "--level", "1",
                   "--out", tmp_path / "recon.arsg") == 2

    @pytest.mark.parametrize("start_level", [7, 3, -1, "1", 1.5, True])
    def test_bad_start_level_exits_2(self, tmp_path, noise_signal, start_level):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--out", out_dir) == 0
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["start_level"] = start_level
        manifest_path.write_text(json.dumps(manifest))
        assert run("reconstruct", "--pyramid", out_dir, "--level", "2",
                   "--out", tmp_path / "recon.arsg") == 2

    @pytest.mark.parametrize("edit", ["start_level", "drop_diff"])
    def test_diff_count_disagreeing_with_ladder_exits_2(
        self, tmp_path, noise_signal, edit
    ):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--out", out_dir) == 0
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if edit == "start_level":
            manifest["start_level"] = 1
        else:
            manifest["diffs"] = manifest["diffs"][:-1]
        manifest_path.write_text(json.dumps(manifest))
        assert run("reconstruct", "--pyramid", out_dir, "--level", "2",
                   "--out", tmp_path / "recon.arsg") == 2

    @pytest.mark.parametrize("factor", ["sigma_factor", "radius_factor"])
    def test_non_finite_kernel_factor_in_manifest_exits_2(
        self, tmp_path, noise_signal, factor
    ):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--kernel", "truncated_gaussian", "--out", out_dir) == 0
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["kernel"][factor] = float("nan")
        manifest_path.write_text(json.dumps(manifest))
        assert run("reconstruct", "--pyramid", out_dir, "--level", "1",
                   "--out", tmp_path / "recon.arsg") == 2

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("edit", ["low-grid", "low-features", "low-dtype",
                                      "reversed-diffs", "manifest-dtype"])
    def test_terms_unlike_the_manifest_exit_2(
        self, tmp_path, noise_signal, edit, level
    ):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--out", out_dir) == 0
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        low = read_arsg(out_dir / "low.arsg")
        if edit == "low-grid":
            low = DiscreteSignal(GridSpec((8,)), low.values[:, ::2])
        elif edit == "low-features":
            low = DiscreteSignal(low.grid, np.concatenate([low.values] * 2))
        elif edit == "low-dtype":
            low = low.astype(np.float32)
        elif edit == "reversed-diffs":
            manifest["diffs"] = manifest["diffs"][::-1]
        else:
            manifest["dtype"] = "f32"
        write_arsg(out_dir / "low.arsg", low)
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "recon.arsg"
        assert run("reconstruct", "--pyramid", out_dir, "--level", level,
                   "--out", out) == 2
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run("decompose", "--input", tmp_path / "absent.arsg",
                   "--levels", "64,32", "--out", tmp_path / "x") == 2

    def test_missing_reference_exits_2(self, tmp_path, noise_signal):
        out_dir = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
                   "--out", out_dir) == 0
        assert run("reconstruct", "--pyramid", out_dir, "--level", "1",
                   "--out", tmp_path / "recon.arsg",
                   "--reference", tmp_path / "absent.arsg") == 2

    def test_incomparable_grid_exits_3(self, tmp_path):
        sig = DiscreteSignal(GridSpec((48,)), np.zeros((1, 48)))
        path = tmp_path / "sig.arsg"
        write_arsg(path, sig)
        assert run("decompose", "--input", path, "--levels", "64,32",
                   "--out", tmp_path / "x") == 3


class TestVerifyAdaptation:
    def test_perfect_kernel_passes(self):
        assert run("verify-adaptation", "--levels", "32,16,8",
                   "--features", "4,8,8", "--trials", "3", "--tol", "1e-9",
                   "--dtype", "f64") == 0

    def test_gaussian_kernel_fails_theorem_tolerance(self, capsys):
        code = run("verify-adaptation", "--levels", "32,16,8",
                   "--features", "4,8,8", "--trials", "2", "--tol", "1e-9",
                   "--kernel", "truncated_gaussian", "--dtype", "f64")
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_single_level_ladder_is_usage_error(self):
        assert run("verify-adaptation", "--levels", "32") == 64

    def test_unknown_flag_is_usage_error(self):
        assert run("verify-adaptation", "--levels", "32,16", "--bogus") == 64

    @pytest.mark.parametrize("flags", [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1e-9"),
        ("--trials", "0"),
        ("--trials", "-2"),
        ("--repetitions", "0"),
        ("--repetitions", "-1"),
    ])
    def test_check_that_compares_nothing_is_usage_error(self, capsys, flags):
        flag, value = flags
        assert run("verify-adaptation", "--levels", "16,8", "--features", "2,2",
                   f"{flag}={value}") == 64
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {flag} must be")
        assert "holds" not in captured.out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_reconstruct_tolerance_that_compares_nothing_is_usage_error(
    tmp_path, noise_signal, capsys, tol
):
    out_dir = tmp_path / "pyr"
    assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
               "--kernel", "truncated_gaussian", "--out", out_dir) == 0
    recon = tmp_path / "recon.arsg"
    assert run("reconstruct", "--pyramid", out_dir, "--level", "1",
               "--out", recon, "--reference", noise_signal, f"--tol={tol}") == 64
    assert capsys.readouterr().err.startswith("usage error: --tol must be")
    assert not recon.exists()


def test_reconstruct_tolerance_without_reference_is_usage_error(
    tmp_path, noise_signal, capsys
):
    out_dir = tmp_path / "pyr"
    assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
               "--kernel", "truncated_gaussian", "--out", out_dir) == 0
    recon = tmp_path / "recon.arsg"
    assert run("reconstruct", "--pyramid", out_dir, "--level", "1",
               "--out", recon, "--tol", "1e-12") == 64
    assert capsys.readouterr().err.startswith("usage error: --tol needs --reference")
    assert not recon.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    ckpt = base / "model.arnn"
    loss = base / "loss.csv"
    code = main([
        "train", "--levels", "64,32,16", "--features", "4,8,8",
        "--classes", "3", "--samples-per-class", "16", "--epochs", "3",
        "--batch-size", "32", "--seed", "1", "--data-seed", "1",
        "--out", str(ckpt), "--loss-csv", str(loss),
    ])
    assert code == 0
    return base, ckpt, loss


class TestTrainEval:
    def test_train_writes_checkpoint_and_loss_csv(self, trained):
        base, ckpt, loss = trained
        assert ckpt.read_bytes().startswith(b"ARNN1\n")
        lines = loss.read_text().splitlines()
        assert lines[0] == "epoch,loss,learning_rate"
        assert len(lines) == 4

    def test_train_determinism_byte_identical(self, tmp_path, trained):
        _, ckpt, _ = trained
        again = tmp_path / "again.arnn"
        code = run("train", "--levels", "64,32,16", "--features", "4,8,8",
                   "--classes", "3", "--samples-per-class", "16",
                   "--epochs", "3", "--batch-size", "32", "--seed", "1",
                   "--data-seed", "1", "--out", again)
        assert code == 0
        assert again.read_bytes() == ckpt.read_bytes()

    def test_eval_sweep_deterministic_without_timing(self, tmp_path, trained):
        _, ckpt, _ = trained
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run("eval", "--checkpoint", ckpt, "--resolutions", "64,32,16",
                       "--classes", "3", "--samples-per-class", "16",
                       "--data-seed", "1", "--out", out, "--no-timing")
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "resolution,mode,kernel,dropout,accuracy,macs,wall_ms"

    def test_eval_full_and_adapted_match_at_base_resolution(self, tmp_path, trained):
        _, ckpt, _ = trained
        out = tmp_path / "sweep.csv"
        assert run("eval", "--checkpoint", ckpt, "--resolutions", "64",
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--out", out, "--no-timing") == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        accs = {row[1]: row[4] for row in rows}
        assert accs["full"] == accs["adapted"]

    def test_eval_plot_flag_writes_svg(self, tmp_path, trained):
        _, ckpt, _ = trained
        svg = tmp_path / "curves.svg"
        assert run("eval", "--checkpoint", ckpt, "--resolutions", "64,16",
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--out", tmp_path / "s.csv",
                   "--no-timing", "--plot", svg) == 0
        assert svg.read_text().startswith("<svg")

    def test_oversized_resolution_exits_3(self, tmp_path, trained):
        _, ckpt, _ = trained
        assert run("eval", "--checkpoint", ckpt, "--resolutions", "128",
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--out", tmp_path / "s.csv") == 3

    def test_missing_cache_labels_exits_2(self, tmp_path, trained):
        _, ckpt, _ = trained
        cache = tmp_path / "cache"
        argv = ("eval", "--checkpoint", ckpt, "--resolutions", "32",
                "--classes", "3", "--samples-per-class", "16", "--data-seed", "1",
                "--data-cache", cache, "--out", tmp_path / "s.csv", "--no-timing")
        assert run(*argv) == 0
        (cache / "test_labels.txt").unlink()
        assert run(*argv) == 2

    @pytest.mark.parametrize("per_class", ["1", "2"])
    def test_empty_test_split_is_usage_error(
        self, tmp_path, capsys, trained, per_class
    ):
        _, ckpt, _ = trained
        out, cache = tmp_path / "s.csv", tmp_path / "cache"
        assert run("eval", "--checkpoint", ckpt, "--resolutions", "64",
                   "--classes", "3", "--samples-per-class", per_class,
                   "--data-seed", "1", "--data-cache", cache,
                   "--out", out, "--no-timing") == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--samples-per-class" in err
        assert not out.exists() and not cache.exists()

    def test_cached_empty_test_split_names_the_cache(self, tmp_path, capsys):
        cache, ckpt = tmp_path / "cache", tmp_path / "model.arnn"
        assert run(*TINY_TRAIN, "--samples-per-class", "1",
                   "--data-cache", cache, "--out", ckpt) == 0
        capsys.readouterr()
        out = tmp_path / "s.csv"
        assert run("eval", "--checkpoint", ckpt, "--resolutions", "16",
                   "--data-cache", cache, "--out", out) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(cache) in err
        assert "--samples-per-class" not in err
        assert not out.exists()

    @pytest.mark.parametrize("resolutions", ["", ","])
    def test_empty_resolutions_is_usage_error(
        self, tmp_path, capsys, trained, resolutions
    ):
        _, ckpt, _ = trained
        out, cache = tmp_path / "s.csv", tmp_path / "cache"
        assert run("eval", "--checkpoint", ckpt, "--resolutions", resolutions,
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--data-cache", cache,
                   "--out", out, "--no-timing") == 64
        assert capsys.readouterr().err.startswith("usage error:")
        assert run("bench", "--checkpoint", ckpt, "--resolutions", resolutions,
                   "--out", out, "--no-timing") == 64
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists() and not cache.exists()

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        bad = tmp_path / "bad.arnn"
        bad.write_bytes(b"NOTACKPT")
        assert run("eval", "--checkpoint", bad, "--resolutions", "64",
                   "--out", tmp_path / "s.csv") == 2

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert run("eval", "--checkpoint", tmp_path / "absent.arnn",
                   "--resolutions", "64", "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("dropout", [[1.5, 1.5], "garbage", [0.3], {"a": 1}, -1])
    def test_checkpoint_dropout_field_unlike_a_flag_exits_2(
        self, tmp_path, trained, dropout
    ):
        bad = tmp_path / "bad.arnn"
        rewrite_manifest(trained[1], bad, lambda m: m.update(dropout=dropout))
        out = tmp_path / "s.csv"
        assert run("eval", "--checkpoint", bad, "--resolutions", "64,32",
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--out", out, "--no-timing") == 2
        assert not out.exists()

    @pytest.mark.parametrize("padding", ["zero", None], ids=["zero", "missing"])
    def test_checkpoint_block_padding_other_than_replicate_exits_2(
        self, tmp_path, trained, padding
    ):
        # Depthwise convolutions replicate their edges; a record that names
        # another rule, or none, describes no model arrn can build.
        def edit(manifest):
            for block in manifest["blocks"]:
                del block["padding"]
                if padding is not None:
                    block["padding"] = padding

        bad, out = tmp_path / "bad.arnn", tmp_path / "s.csv"
        rewrite_manifest(trained[1], bad, edit)
        assert run("eval", "--checkpoint", bad, "--resolutions", "64",
                   "--classes", "3", "--samples-per-class", "16",
                   "--data-seed", "1", "--out", out, "--no-timing") == 2
        assert not out.exists()


class TestBench:
    def test_bench_without_checkpoint(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--levels", "64,32,16", "--features", "4,8,8",
                   "--resolutions", "64,32,16", "--batch", "2", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "resolution,mode,kernel,macs,wall_ms"
        rows = [l.split(",") for l in lines[1:]]
        macs_by_key = {(r[0], r[1]): int(r[3]) for r in rows}
        assert macs_by_key[("16", "adapted")] < macs_by_key[("16", "full")]
        assert macs_by_key[("16", "adapted")] < macs_by_key[("32", "adapted")]

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert run("bench", "--checkpoint", tmp_path / "absent.arnn",
                   "--resolutions", "64", "--out", tmp_path / "b.csv") == 2

    def test_oversized_resolution_exits_3(self, tmp_path):
        assert run("bench", "--levels", "64,32,16", "--features", "4,8,8",
                   "--resolutions", "128", "--out", tmp_path / "b.csv") == 3

    def test_resolution_rank_unlike_the_ladder_exits_3(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run("bench", "--levels", "64,32,16", "--features", "4,8,8",
                   "--resolutions", "32x32", "--batch", "2", "--out", out) == 3
        err = capsys.readouterr().err
        assert "32x32 is 2-D but the ladder is 1-D" in err
        assert not out.exists()


def test_eval_resolution_rank_unlike_the_ladder_exits_3(tmp_path, capsys):
    """Both directions: 2-D resolutions on a 1-D model and 1-D on a 2-D one."""
    task = ("--classes", "2", "--samples-per-class", "4")
    for levels, resolutions, message in (
        ("16,8", "16,8x8", "8x8 is 2-D but the ladder is 1-D"),
        ("16x16,8x8", "16,8", "16 is 1-D but the ladder is 2-D"),
    ):
        ckpt, out = tmp_path / "model.arnn", tmp_path / "s.csv"
        assert run("train", "--levels", levels, "--features", "2,2", *task,
                   "--epochs", "1", "--batch-size", "4", "--out", ckpt) == 0
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt, "--resolutions", resolutions,
                   "--mode", "full", *task, "--out", out, "--no-timing") == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bench", "--levels", "64,abc,16", "--resolutions", "32"),
    ("bench", "--features", "4,x,8", "--resolutions", "32"),
    ("bench", "--resolutions", "abc"),
    ("ablate", "--seeds", "0,z"),
    ("ablate", "--features", "0,8,8"),
    ("bench", "--batch", "0", "--resolutions", "32"),
])
def test_bad_integer_argument_is_usage_error(tmp_path, capsys, argv):
    out_flag = "--out-dir" if argv[0] == "ablate" else "--out"
    assert run(*argv, out_flag, tmp_path / "out") == 64
    assert capsys.readouterr().err.startswith("usage error:")


TINY_TRAIN = ("train", "--levels", "16,8", "--features", "2,2",
              "--samples-per-class", "4", "--epochs", "1")


@pytest.mark.parametrize("flags", [
    ("--epochs", "0"),
    ("--batch-size", "0"),
    ("--expansion", "0"),
    ("--features", "0,2"),
    ("--kernel", "windowed_sinc", "--taps", "4"),
    ("--taps", "4"),
    ("--kernel", "windowed_sinc", "--sigma-factor", "nan"),
    ("--kernel", "truncated_gaussian", "--sigma-factor", "-1"),
    ("--kernel", "truncated_gaussian", "--sigma-factor", "nan"),
    ("--kernel", "truncated_gaussian", "--sigma-factor", "inf"),
    ("--kernel", "truncated_gaussian", "--sigma-factor", "1e309"),
    ("--kernel", "truncated_gaussian", "--radius-factor", "nan"),
    ("--kernel", "truncated_gaussian", "--radius-factor", "inf"),
    ("--kernel", "truncated_gaussian", "--radius-factor", "1e309"),
    ("--kernel", "truncated_gaussian", "--sigma-factor", "1e20"),
    ("--kernel", "truncated_gaussian", "--radius-factor", "1e20"),
    ("--sigma-factor", "1e20"),
    ("--features", "2,0"),
    ("--features", "2,-1"),
    ("--dropout", "1.5"),
    ("--dropout", "nan"),
    ("--classes", "1"),
    ("--samples-per-class", "0"),
    ("--head-dropout", "1.5"),
    ("--lr", "nan"),
    ("--lr", "-1"),
    ("--min-lr", "inf"),
    ("--weight-decay", "-1"),
])
def test_rejected_train_value_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "model.arnn"
    assert run(*TINY_TRAIN, *flags, "--out", out) == 64
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_input_features_shape_the_generated_dataset(tmp_path):
    ckpt = tmp_path / "model.arnn"
    assert run(*TINY_TRAIN, "--input-features", "2", "--out", ckpt) == 0
    model, manifest = load_checkpoint(ckpt)
    assert model.input_features == 2
    assert manifest["extra"]["dataset"]["features"] == 2
    # eval generates its test split with the checkpoint's input features.
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "16,8",
               "--samples-per-class", "4", "--out", tmp_path / "s.csv",
               "--no-timing") == 0


def test_zero_dropout_checkpoint_evaluates_as_dropout_off(tmp_path):
    ckpt, sweep = tmp_path / "model.arnn", tmp_path / "sweep.csv"
    assert run(*TINY_TRAIN, "--dropout", "0", "--out", ckpt) == 0
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "16,8",
               "--samples-per-class", "4", "--out", sweep, "--no-timing") == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
    assert rows and all(row[3] == "off" for row in rows)


@pytest.mark.parametrize("dropout, label", [(0.0, "off"), (0.3, "on")])
def test_stored_dropout_probability_sets_the_eval_label(tmp_path, dropout, label):
    ckpt, sweep = tmp_path / "model.arnn", tmp_path / "sweep.csv"
    assert run(*TINY_TRAIN, "--dropout", "none", "--out", ckpt) == 0
    model, _ = load_checkpoint(ckpt)
    save_checkpoint(ckpt, model, dropout)
    assert load_checkpoint(ckpt)[1]["dropout"] == [dropout]
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "16,8",
               "--samples-per-class", "4", "--out", sweep, "--no-timing") == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()[1:]]
    assert rows and all(row[3] == label for row in rows)


def test_input_features_unlike_the_data_exits_3(tmp_path, capsys):
    # A dataset cache is used as is: one-feature inputs for a two-feature model.
    cache, ckpt, out = tmp_path / "cache", tmp_path / "model.arnn", tmp_path / "s.csv"
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "one.arnn") == 0
    assert run(*TINY_TRAIN, "--input-features", "2", "--out", ckpt) == 0
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "16,8",
               "--data-cache", cache, "--out", out) == 3
    assert capsys.readouterr().err.startswith("shape error:")
    assert not out.exists()


TINY_ABLATE = ("ablate", "--levels", "16,8", "--features", "2,2",
               "--classes", "2", "--samples-per-class", "4", "--epochs", "1",
               "--seeds", "0")


@pytest.mark.parametrize("flags", [
    ("--input-features", "2"),
    ("--expansion", "3"),
    ("--depth", "2"),
    ("--head-dropout", "0.5"),
    ("--samples-per-class", "1"),
    ("--dropout", "0"),
    # Flags ablate does not take; --seed must not pass for --seeds.
    ("--seed", "5"),
    ("--data-seed", "15"),
    ("--data-cache", "cache"),
])
def test_ablate_usage_error_before_any_cell_trains(tmp_path, capsys, flags):
    out_dir = tmp_path / "ablation"
    assert run(*TINY_ABLATE, *flags, "--out-dir", out_dir) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flags[0] in err
    assert not out_dir.exists()


TINY_VERIFY = ("verify-adaptation", "--levels", "16,8", "--features", "2,2",
               "--trials", "1")
TINY_BENCH = ("bench", "--levels", "16,8", "--features", "2,2",
              "--resolutions", "16")
HUGE = "100000000000000000000"  # 10**20, more than any array dimension


@pytest.mark.parametrize("argv", [
    (*TINY_VERIFY, "--classes", "0"),
    (*TINY_VERIFY, "--input-features", "0"),
    (*TINY_VERIFY, "--input-features", HUGE),
    (*TINY_VERIFY, "--seed", "-1"),
    (*TINY_VERIFY, "--kernel", "truncated_gaussian", "--sigma-factor", "1e20"),
    (*TINY_TRAIN, "--seed", "-1"),
    (*TINY_TRAIN, "--data-seed", "-1"),
    (*TINY_TRAIN, "--input-features", "0"),
    (*TINY_TRAIN, "--input-features", HUGE),
    (*TINY_TRAIN, "--samples-per-class", HUGE),
    (*TINY_TRAIN, "--noise", "nan"),
    (*TINY_TRAIN, "--noise", "-1"),
    (*TINY_BENCH, "--classes", "0"),
    (*TINY_BENCH, "--seed", "-1"),
    (*TINY_BENCH, "--input-features", HUGE),
    (*TINY_BENCH, "--batch", HUGE),
    (*TINY_ABLATE, "--seeds", "0,-1"),
    (*TINY_ABLATE, "--noise", "inf"),
    # One width for a two-level ladder: ArrnModel owns the count rule.
    (*TINY_VERIFY, "--features", "2"),
    (*TINY_TRAIN, "--features", "2"),
    (*TINY_BENCH, "--features", "2"),
    (*TINY_ABLATE, "--features", "2"),
])
def test_rejected_size_or_seed_is_usage_error(tmp_path, capsys, argv):
    outputs = {
        "verify-adaptation": (),
        "train": ("--out", tmp_path / "model.arnn",
                  "--data-cache", tmp_path / "cache"),
        "bench": ("--out", tmp_path / "bench.csv"),
        "ablate": ("--out-dir", tmp_path / "ablation"),
    }[argv[0]]
    assert run(*argv, *outputs) == 64
    assert capsys.readouterr().err.startswith("usage error:")
    assert not any(tmp_path.iterdir())


def test_cache_with_zero_features_exits_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "a.arnn") == 0
    manifest = json.loads((cache / "dataset.json").read_text())
    manifest["spec"]["features"] = 0
    (cache / "dataset.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "b.arnn") == 2
    assert capsys.readouterr().err.startswith("format error:")


@pytest.mark.parametrize("split, label", [
    ("train", "7"), ("test", "7"), ("test", "-1"),
])
def test_cache_label_outside_the_classes_exits_2(tmp_path, capsys, split, label):
    cache, ckpt = tmp_path / "cache", tmp_path / "a.arnn"
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", ckpt) == 0
    classes = json.loads((cache / "dataset.json").read_text())["spec"]["classes"]
    assert int(label) not in range(classes)
    labels = cache / f"{split}_labels.txt"
    lines = labels.read_text().splitlines()
    labels.write_text("\n".join([label] + lines[1:]) + "\n")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "b.arnn") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "16",
               "--data-cache", cache, "--out", tmp_path / "s.csv") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["reconstruct", "train", "eval"])
def test_unreadable_manifest_exits_2(tmp_path, capsys, noise_signal, command):
    """A pyramid's or a dataset cache's manifest that cannot be read (here a
    directory) is a format error, like an unreadable ARSG or ARNN1 file."""
    pyramid, cache, ckpt = tmp_path / "pyr", tmp_path / "cache", tmp_path / "a.arnn"
    assert run("decompose", "--input", noise_signal, "--levels", "64,32",
               "--out", pyramid) == 0
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", ckpt) == 0
    for manifest in (pyramid / "manifest.json", cache / "dataset.json"):
        manifest.unlink()
        manifest.mkdir()
    argv = {
        "reconstruct": ("reconstruct", "--pyramid", pyramid, "--level", "1",
                        "--out", tmp_path / "r.arsg"),
        "train": (*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "b.arnn"),
        "eval": ("eval", "--checkpoint", ckpt, "--resolutions", "16",
                 "--data-cache", cache, "--out", tmp_path / "s.csv"),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["manifest", "checkpoint"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, noise_signal, target):
    """JSON too deep for the decoder's recursion limit is a format error."""
    deep = b"[" * 100_000
    if target == "manifest":
        pyramid = tmp_path / "pyr"
        assert run("decompose", "--input", noise_signal, "--levels", "64,32",
                   "--out", pyramid) == 0
        (pyramid / "manifest.json").write_bytes(deep)
        argv = ("reconstruct", "--pyramid", pyramid, "--level", "1",
                "--out", tmp_path / "r.arsg")
    else:
        ckpt = tmp_path / "a.arnn"
        ckpt.write_bytes(b"ARNN1\n" + struct.pack("<I", len(deep)) + deep)
        argv = ("bench", "--checkpoint", ckpt, "--resolutions", "16",
                "--out", tmp_path / "b.csv")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag, path", [
    ("decompose", "--out", "file"),
    ("reconstruct", "--out", "dir"),
    ("train", "--out", "dir"),
    ("train", "--out", "absent/model.arnn"),
    ("train", "--loss-csv", "dir"),
    ("train", "--data-cache", "file"),
    ("eval", "--plot", "dir"),
    ("eval", "--out", "file/sweep.csv"),
    ("bench", "--out", "dir"),
    ("ablate", "--out-dir", "file"),
])
def test_unwritable_output_path_is_usage_error(
    tmp_path, capsys, command, flag, path
):
    """A directory where a file is written, the reverse, or a file in no
    directory is refused while the flags are parsed, before anything runs."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    assert run(command, flag, tmp_path / path) == 64
    assert capsys.readouterr().err.startswith(f"usage error: argument {flag}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert not any((tmp_path / "dir").iterdir())
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    (*TINY_TRAIN, "--out", "model.arnn", "--data-cache", ""),
    (*TINY_ABLATE, "--out-dir", ""),
])
def test_empty_output_path_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    """An empty path would name the working directory."""
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 64
    assert capsys.readouterr().err.startswith("usage error: argument")
    assert not any(tmp_path.iterdir())


THREE_D = [[8, 8, 8], [4, 4, 4], [2, 2, 2]]


@pytest.mark.parametrize("field, value", [
    ("input_features", float("inf")),  # the JSON number 1e400
    ("classes", float("inf")),
    ("features", [8, 16]),
    ("ladder", [[64], [30], [16]]),
    ("ladder", THREE_D),
])
@pytest.mark.parametrize("command", ["eval", "bench"])
def test_checkpoint_value_the_model_refuses_exits_2(
    tmp_path, capsys, command, field, value
):
    ckpt = tmp_path / "model.arnn"
    save_checkpoint(ckpt, ArrnModel(
        ResolutionLadder.from_extents([64, 32, 16]), 1, (8, 16, 32), 4,
        SmoothingKernelSpec.perfect(), np.random.default_rng(0)))
    raw = ckpt.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 6)
    manifest = {**json.loads(raw[10 : 10 + length]), field: value}
    header = json.dumps(manifest).encode()
    ckpt.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header
                     + raw[10 + length :])
    tiny = ("--samples-per-class", "4") if command == "eval" else ("--batch", "2")
    before = sorted(tmp_path.rglob("*"))
    assert run(command, "--checkpoint", ckpt, "--resolutions", "16", *tiny,
               "--out", tmp_path / "out.csv") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("levels", [
    [[float("inf")], [32], [16]], [[64], [30], [16]], THREE_D,
])
def test_pyramid_levels_the_ladder_refuses_exit_2(
    tmp_path, capsys, noise_signal, levels
):
    pyramid = tmp_path / "pyr"
    assert run("decompose", "--input", noise_signal, "--levels", "64,32,16",
               "--out", pyramid) == 0
    manifest = json.loads((pyramid / "manifest.json").read_text())
    (pyramid / "manifest.json").write_text(json.dumps({**manifest, "levels": levels}))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run("reconstruct", "--pyramid", pyramid, "--level", "1",
               "--out", tmp_path / "r.arsg") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_on_a_cache_of_another_ladder_exits_3(tmp_path, capsys):
    """Signals on a coarser grid than the model's finest are refused, as
    ``train`` refuses them, not upsampled into rows under the wrong name."""
    cache, ckpt = tmp_path / "cache", tmp_path / "model.arnn"
    tiny = ("--samples-per-class", "4", "--epochs", "1")
    assert run("train", "--levels", "32,16,8", *tiny, "--data-cache", cache,
               "--out", tmp_path / "other.arnn") == 0
    assert run("train", "--levels", "64,32,16", *tiny, "--out", ckpt) == 0
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--resolutions", "64,32",
               "--data-cache", cache, "--out", tmp_path / "sweep.csv") == 3
    assert capsys.readouterr().err.startswith("shape error:")
    assert sorted(tmp_path.rglob("*")) == before


def test_rejected_model_leaves_an_existing_cache_as_is(tmp_path, capsys):
    cache, ckpt = tmp_path / "cache", tmp_path / "model.arnn"
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", ckpt) == 0
    before = {p.name: p.read_bytes() for p in cache.iterdir()}
    ckpt.unlink()
    capsys.readouterr()
    assert run(*TINY_TRAIN, "--expansion", "0", "--data-cache", cache,
               "--out", ckpt) == 64
    assert capsys.readouterr().err.startswith("usage error:")
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
    assert not ckpt.exists()


class TestAblateSmoke:
    def test_tiny_grid_runs_and_writes_tables(self, tmp_path):
        out_dir = tmp_path / "ablation"
        code = run("ablate", "--levels", "32,16,8", "--features", "4,8,8",
                   "--classes", "2", "--samples-per-class", "8",
                   "--epochs", "2", "--batch-size", "16", "--seeds", "0",
                   "--out-dir", out_dir)
        assert code == 0
        cells = (out_dir / "ablation_cells.csv").read_text().splitlines()
        assert cells[0] == "kernel,dropout,mode,accuracy"
        assert len(cells) == 13  # 12 cells + header
        tree = (out_dir / "ablation_tree.csv").read_text().splitlines()
        assert tree[0] == "node,mean_accuracy,ratio"
        assert len(tree) == 1 + 1 + 3 * (1 + 2 * (1 + 2))


# ---------------------------------------------------------------------------
# Property: any argv built from the parser's own options and a hostile
# alphabet ends in a documented exit code, and a usage error writes nothing.
# ---------------------------------------------------------------------------

HOSTILE = ("0", "-1", "nan", "inf", "1e309", "", "16x0", "0,0", "2,2", "1.5",
           HUGE, "16,0", "15,8", "16x8,8")
# Accepted with no upper bound (see the README): 10**20 epochs, layers,
# trials or repetitions run for ever, so that one value is left out for
# these flags.
UNBOUNDED = {"--epochs", "--depth", "--trials", "--repetitions"}
# Path values; "valid" is the given file of the kind a flag reads, and a new
# path for a flag that only writes.
PATH_VALUES = ("missing", "dir", "garbage.bin", "valid")
READS = {"--input": "signal.arsg", "--reference": "signal.arsg",
         "--pyramid": "pyramid", "--checkpoint": "model.arnn",
         "--data-cache": "cache"}


def _options():
    """Every option of every subcommand but -h/--help, by subcommand."""
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return {
        command: {a.option_strings[0]: a for a in p._actions
                  if a.option_strings and not isinstance(a, argparse._HelpAction)}
        for command, p in sub.choices.items()
    }


OPTIONS = _options()


def _takes_path(action):
    """Flags that take a value that is neither a choice, a number nor text."""
    return action.nargs != 0 and not action.choices and action.type not in (
        None, int, float)


def _tiny_argv(command, work):
    """A quick, valid run of ``command`` on the given files in ``work``."""
    return {
        "decompose": ("--input", work / "signal.arsg", "--levels", "16,8",
                      "--out", work / "pyr"),
        "reconstruct": ("--pyramid", work / "pyramid", "--level", "1",
                        "--out", work / "r.arsg"),
        "verify-adaptation": (*TINY_VERIFY[1:], "--repetitions", "1"),
        "train": (*TINY_TRAIN[1:], "--out", work / "m.arnn"),
        "eval": ("--checkpoint", work / "model.arnn", "--resolutions", "16,8",
                 "--samples-per-class", "4", "--out", work / "s.csv"),
        "bench": (*TINY_BENCH[1:], "--batch", "2", "--out", work / "b.csv"),
        "ablate": (*TINY_ABLATE[1:], "--out-dir", work / "ablation"),
    }[command]


@st.composite
def hostile_runs(draw):
    """A subcommand and ``(flag, value)`` pairs to append to its tiny run."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    pairs = []
    for flag in flags:
        action = options[flag]
        if action.nargs == 0:
            pairs.append((flag, None))
        elif action.choices:
            pairs.append((flag, draw(st.one_of(
                st.sampled_from(action.choices), st.sampled_from(HOSTILE)))))
        elif _takes_path(action):
            pairs.append((flag, draw(st.sampled_from(PATH_VALUES))))
        else:
            values = [v for v in HOSTILE if not (v == HUGE and flag in UNBOUNDED)]
            pairs.append((flag, draw(st.sampled_from(values))))
    return command, pairs


@pytest.fixture(scope="module")
def given_files(tmp_path_factory):
    """A signal, its pyramid, a checkpoint, a dataset cache, garbage, a dir."""
    given = tmp_path_factory.mktemp("given")
    write_arsg(given / "signal.arsg", DiscreteSignal(
        GridSpec((16,)), np.random.default_rng(0).standard_normal((1, 16))))
    assert run("decompose", "--input", given / "signal.arsg", "--levels", "16,8",
               "--out", given / "pyramid") == 0
    assert run(*TINY_TRAIN, "--data-cache", given / "cache",
               "--out", given / "model.arnn") == 0
    (given / "garbage.bin").write_bytes(b"\x00garbage\xff" * 4)
    (given / "dir").mkdir()
    return given


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=hostile_runs())
@example(case=("decompose", [("--kernel", "truncated_gaussian"),
                             ("--sigma-factor", "nan")]))
@example(case=("bench", [("--batch", HUGE)]))
@example(case=("ablate", [("--dropout", "0")]))
def test_hostile_argv_ends_in_a_documented_exit_code(given_files, case):
    command, pairs = case
    work = Path(tempfile.mkdtemp(dir=given_files.parent))
    try:
        shutil.copytree(given_files, work, dirs_exist_ok=True)
        argv = [command, *_tiny_argv(command, work)]
        for flag, value in pairs:
            if _takes_path(OPTIONS[command][flag]):
                value = work / (READS.get(flag, "new") if value == "valid" else value)
            argv += [flag] if value is None else [flag, value]
        before = _tree(work)
        code = run(*argv)
        event(f"{command} exits {code}")
        assert code in (0, 1, 2, 3, 4, 64)
        if code == 64:
            assert _tree(work) == before
    finally:
        shutil.rmtree(work)


@pytest.mark.parametrize("field, value", [
    ("input_features", 1.5), ("input_features", True), ("classes", 4.5),
])
def test_checkpoint_count_that_is_no_integer_exits_2(tmp_path, capsys, field, value):
    ckpt = tmp_path / "model.arnn"
    save_checkpoint(ckpt, ArrnModel(
        ResolutionLadder.from_extents([16, 8]), 1, (2, 2), 4,
        SmoothingKernelSpec.perfect(), np.random.default_rng(0)))
    raw = ckpt.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 6)
    manifest = {**json.loads(raw[10 : 10 + length]), field: value}
    header = json.dumps(manifest).encode()
    ckpt.write_bytes(raw[:6] + struct.pack("<I", len(header)) + header
                     + raw[10 + length :])
    capsys.readouterr()
    assert run("bench", "--checkpoint", ckpt, "--resolutions", "8", "--batch", "2",
               "--out", tmp_path / "out.csv") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("spec.level_extents", [[16], [6]]),
    ("spec.samples_per_class", 1.5),
    ("spec.seed", 1.5),
    ("spec.classes", 1.5),
    ("spec.features", 1.5),
    ("signatures", None),
    ("signatures", [[1.0, 1.0]]),
])
def test_cache_field_the_spec_refuses_exits_2(tmp_path, capsys, field, value):
    cache = tmp_path / "cache"
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "a.arnn") == 0
    manifest = json.loads((cache / "dataset.json").read_text())
    *outer, key = field.split(".")
    (manifest[outer[0]] if outer else manifest)[key] = value
    (cache / "dataset.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(*TINY_TRAIN, "--data-cache", cache, "--out", tmp_path / "b.arnn") == 2
    assert capsys.readouterr().err.startswith("format error:")
    assert not (tmp_path / "b.arnn").exists()
