import shutil

import numpy as np
import pytest

from irislam.cli import main
from irislam.imaging import GrayImage, load_gray_image, save_gray_image
from irislam.lamstar import LamstarNetwork, save_model, train
from irislam.normalization import IrisTemplate, load_template


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data") / "eyes"
    code = main(["synth", "--out", str(root), "--classes", "2", "--train", "2",
                 "--test", "1", "--seed", "9"])
    assert code == 0
    return root


def first_image(synth_root):
    return sorted(synth_root.rglob("*.pgm"))[0]


class TestSynth:
    def test_writes_dataset_tree(self, synth_root):
        classes = sorted(p.name for p in synth_root.iterdir() if p.is_dir())
        assert classes == ["class000", "class001"]
        assert len(list(synth_root.rglob("*.pgm"))) == 6

    def test_images_are_valid_pgm(self, synth_root):
        img = load_gray_image(first_image(synth_root))
        assert (img.width, img.height) == (320, 280)


class TestSegment:
    def test_prints_circles(self, capsys, synth_root):
        code, out, _ = run(capsys, "segment", str(first_image(synth_root)))
        assert code == 0
        assert "pupil:" in out and "iris:" in out

    def test_overlay_written(self, capsys, synth_root, tmp_path):
        overlay = tmp_path / "overlay.pgm"
        code, out, _ = run(capsys, "segment", str(first_image(synth_root)),
                           "--overlay", str(overlay))
        assert code == 0
        base = load_gray_image(first_image(synth_root))
        over = load_gray_image(overlay)
        changed = np.count_nonzero(over.pixels != base.pixels)
        assert changed > 100  # two rasterized circles

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "segment", str(tmp_path / "nope.pgm"))
        assert code == 2

    def test_directory_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "segment", str(tmp_path))
        assert code == 2
        assert "data error" in err

    def test_zero_width_pgm_exits_2(self, capsys, tmp_path):
        p = tmp_path / "empty.pgm"
        p.write_bytes(b"P5\n0 280\n255\n")
        code, _, err = run(capsys, "segment", str(p))
        assert code == 2
        assert "bad dimensions 0x280" in err

    def test_radius_bound_past_the_image_diagonal_exits_cleanly(self, capsys, synth_root,
                                                                 tmp_path):
        # The Hough searches no radius beyond the image diagonal.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("localization.iris_r_max = 100000\n")
        code, _, err = run(capsys, "segment", str(first_image(synth_root)),
                           "--config", str(cfg))
        assert code in (0, 3), err
        assert "Traceback" not in err

    def test_unsegmentable_exits_3(self, capsys, tmp_path):
        from irislam.imaging import GrayImage, save_gray_image
        p = tmp_path / "flat.pgm"
        save_gray_image(GrayImage(np.full((280, 320), 0.5)), p)
        code, _, err = run(capsys, "segment", str(p))
        assert code == 3


class TestNormalize:
    def test_auto_localization(self, capsys, synth_root, tmp_path):
        out = tmp_path / "t.irt"
        code, _, _ = run(capsys, "normalize", str(first_image(synth_root)),
                         "--out", str(out), "--label", "probe")
        assert code == 0
        t = load_template(out)
        assert t.values.shape == (20, 480)
        assert t.label == "probe"

    def test_manual_localization(self, capsys, synth_root, tmp_path):
        out = tmp_path / "t.irt"
        code, _, _ = run(capsys, "normalize", str(first_image(synth_root)),
                         "--loc", "160,140,35,160,140,110",
                         "--out", str(out), "--radial", "10", "--angular", "64")
        assert code == 0
        assert load_template(out).values.shape == (10, 64)

    def test_template_size_from_config(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("radial_res = 10\nangular_res = 64\n")
        out = tmp_path / "t.irt"
        for flags, header in (([], b"IRT1 10 64 "), (["--radial", "12"], b"IRT1 12 64 ")):
            code, _, _ = run(capsys, "normalize", str(first_image(synth_root)),
                             "--loc", "160,140,35,160,140,110", "--out", str(out),
                             "--config", str(cfg), *flags)
            assert code == 0
            assert out.read_bytes().startswith(header)

    def test_bad_loc_string_exits_3(self, capsys, synth_root, tmp_path):
        code, _, err = run(capsys, "normalize", str(first_image(synth_root)),
                           "--loc", "1,2,3", "--out", str(tmp_path / "t.irt"))
        assert code == 3

    @pytest.mark.parametrize("loc, problem", [
        ("150,140,40,160,140,nan", "circle r must be finite"),
        ("150,140,40,160,140,inf", "circle r must be finite"),
        ("nan,140,40,160,140,160", "circle cx must be finite"),
        ("150,140,40,160,140,1e300", "too large to sample"),
        ("1e300,140,40,1e300,140,160", "pupil center (1e+300, 140) lies outside"),
        ("150,140,40,160,140,1e150", "iris radius 1e+150 exceeds"),
    ])
    def test_non_finite_or_overflowing_loc_exits_3(self, capsys, synth_root, tmp_path, loc, problem):
        out = tmp_path / "t.irt"
        code, _, err = run(capsys, "normalize", str(first_image(synth_root)),
                           "--loc", loc, "--out", str(out))
        assert code == 3
        assert problem in err and len(err.splitlines()) == 1
        assert not out.exists()


class TestTrainEvalCompare:
    def test_full_cycle(self, capsys, synth_root, tmp_path):
        model = tmp_path / "model.lns"
        code, out, _ = run(capsys, "train", "--data", str(synth_root),
                           "--out", str(model), "--train-per-class", "2")
        assert code == 0 and model.is_file()
        assert "epochs run" in out

        report = tmp_path / "report"
        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--data", str(synth_root), "--train-per-class", "2",
                           "--shift-range", "4", "--report", str(report))
        assert code == 0
        assert "accuracy:" in out
        assert report.with_suffix(".txt").is_file()
        assert report.with_suffix(".kv").is_file()

    def test_eval_report_echoes_the_model_variant(self, capsys, synth_root, tmp_path):
        model = tmp_path / "model.lns"
        code, _, _ = run(capsys, "train", "--data", str(synth_root), "--out", str(model),
                         "--train-per-class", "2", "--normalized")
        assert code == 0
        report = tmp_path / "report"
        code, _, _ = run(capsys, "eval", "--model", str(model), "--data", str(synth_root),
                         "--train-per-class", "2", "--report", str(report))
        assert code == 0
        assert "config.lamstar.normalized = True\n" in report.with_suffix(".kv").read_text()

    def test_compare(self, capsys, synth_root, tmp_path):
        code, out, _ = run(capsys, "compare", "--data", str(synth_root),
                           "--train-per-class", "2",
                           "--out-dir", str(tmp_path / "cmp"))
        assert code == 0
        assert "lamstar" in out and "normalized_lamstar" in out
        assert (tmp_path / "cmp" / "lamstar.lns").is_file()

    def test_missing_data_dir_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "m.lns"))
        assert code == 2

    def test_class_with_only_blank_training_images_exits_2(self, capsys, synth_root, tmp_path):
        data = tmp_path / "eyes"
        shutil.copytree(synth_root, data)
        for path in sorted((data / "class000").glob("*.pgm"))[:2]:  # its training split
            save_gray_image(GrayImage(np.zeros((280, 320))), path)
        code, _, err = run(capsys, "train", "--data", str(data), "--out", str(tmp_path / "m.lns"),
                           "--train-per-class", "2")
        assert code == 2
        assert "data error: class class000 lost all training images" in err

    def test_model_directory_exits_2(self, capsys, synth_root, tmp_path):
        code, _, err = run(capsys, "eval", "--model", str(tmp_path),
                           "--data", str(synth_root), "--train-per-class", "2")
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("model_bytes", [
        # non-numeric class count in the header
        b"LNS1 480 20 two 0 0.05 0.95\n" + bytes(8),
        # one module with one neuron, and a record for its neuron 5
        b"LNS1 1 1 2 0 0.05 0.95\n" + (1).to_bytes(4, "little") + bytes(8)
        + (0).to_bytes(4, "little") + (5).to_bytes(4, "little") + (0).to_bytes(4, "little")
        + bytes(16) + (1).to_bytes(8, "little"),
        # one module claiming one neuron, cut inside its 8-byte weight block
        b"LNS1 1 1 2 0 0.05 0.95\n" + (1).to_bytes(4, "little") + bytes(4),
        # no modules
        b"LNS1 0 20 2 0 0.05 0.95\n" + bytes(8),
        # more modules than the 8 bytes after the header can hold counts for
        b"LNS1 4096 20 2 0 0.05 0.95\n" + bytes(8),
        # 480 empty modules with a NaN winner threshold, then with a zero delta
        b"LNS1 480 20 2 0 0.05 nan\n" + bytes(4 * 480 + 8),
        b"LNS1 480 20 2 0 0.0 0.95\n" + bytes(4 * 480 + 8),
        # one module with a NaN neuron and no records, then with a sound
        # neuron and one NaN-weight record
        b"LNS1 1 1 2 0 0.05 0.95\n" + (1).to_bytes(4, "little")
        + np.float64(np.nan).tobytes() + bytes(8),
        b"LNS1 1 1 2 0 0.05 0.95\n" + (1).to_bytes(4, "little") + np.float64(1.0).tobytes()
        + bytes(12) + np.float64(np.nan).tobytes() + (1).to_bytes(8, "little")
        + (1).to_bytes(8, "little"),
    ], ids=["non_numeric_header", "record_outside_network", "truncated_neuron_block",
            "zero_module_count", "module_count_exceeds_file", "nan_winner_threshold",
            "zero_delta", "nan_neuron_weight", "nan_link_weight"])
    def test_malformed_model_exits_2(self, capsys, synth_root, tmp_path, model_bytes):
        model = tmp_path / "bad.lns"
        model.write_bytes(model_bytes)
        code, _, err = run(capsys, "eval", "--model", str(model),
                           "--data", str(synth_root), "--train-per-class", "2")
        assert code == 2
        assert "data error" in err

    @staticmethod
    def unsegmented_eval_inputs(synth_root, tmp_path):
        """A copy of the dataset with no template cache, and a model of its shape."""
        data = tmp_path / "eyes"
        shutil.copytree(synth_root, data, ignore=shutil.ignore_patterns(".template_cache"))
        rng = np.random.default_rng(3)
        net = LamstarNetwork(480, 20, 2)
        train(net, [IrisTemplate(rng.random((20, 480))) for _ in range(2)], [0, 1])
        model = tmp_path / "m.lns"
        save_model(net, model)
        return data, model

    def test_model_of_another_template_size_exits_3_before_segmenting(self, capsys, synth_root,
                                                                       tmp_path):
        data, _ = self.unsegmented_eval_inputs(synth_root, tmp_path)
        net = LamstarNetwork(64, 10, 2)
        train(net, [IrisTemplate(np.full((10, 64), v)) for v in (0.2, 0.8)], [0, 1])
        model = tmp_path / "small.lns"
        save_model(net, model)
        code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--train-per-class", "2")
        assert code == 3
        assert "model expects 10x64 templates, config produces 20x480" in err
        assert not (data / ".template_cache").exists()

    def test_model_with_threshold_above_one_exits_2_before_segmenting(self, capsys, synth_root,
                                                                      tmp_path):
        data, model = self.unsegmented_eval_inputs(synth_root, tmp_path)
        raw = model.read_bytes()
        header = raw[: raw.index(b"\n")]
        assert header.endswith(b" 0.95")
        model.write_bytes(header[:-4] + b"1.5" + raw[len(header) :])
        code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--train-per-class", "2")
        assert code == 2
        assert "lamstar.winner_threshold must be finite and <= 1, got 1.5" in err
        assert not (data / ".template_cache").exists()

    def test_every_test_image_unlocalized_gives_undefined_accuracy(self, capsys, synth_root,
                                                                   tmp_path):
        data, model = self.unsegmented_eval_inputs(synth_root, tmp_path)
        for class_dir in ("class000", "class001"):
            for path in sorted((data / class_dir).glob("*.pgm"))[2:]:  # its test split
                save_gray_image(GrayImage(np.zeros((280, 320))), path)
        report = tmp_path / "report"
        code, out, _ = run(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--train-per-class", "2", "--report", str(report))
        assert code == 0
        assert "accuracy: undefined (empty test set)" in out
        txt = report.with_suffix(".txt").read_text().splitlines()
        assert txt[:2] == ["accuracy: undefined (empty test set)",
                           "excluded by localization failure: 2"]

    @pytest.mark.parametrize("shift_range", ["241", "1000000000"])
    def test_oversized_shift_range_exits_3_before_segmenting(self, capsys, synth_root, tmp_path,
                                                            shift_range):
        # above angular_res // 2 = 240 a window only repeats shifts
        data, model = self.unsegmented_eval_inputs(synth_root, tmp_path)
        code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(data),
                           "--train-per-class", "2", "--shift-range", shift_range)
        assert code == 3
        assert "shift_range" in err
        assert not (data / ".template_cache").exists()

    def test_negative_shift_range_exits_3_before_segmenting(self, capsys, synth_root, tmp_path):
        data, model = self.unsegmented_eval_inputs(synth_root, tmp_path)
        code, _, _ = run(capsys, "eval", "--model", str(model), "--data", str(data),
                         "--train-per-class", "2", "--shift-range", "-1")
        assert code == 3
        assert not (data / ".template_cache").exists()
        cfg = tmp_path / "cfg.txt"
        for setting in ("lamstar.epochs = 0", "lamstar.delta = 0", "radial_res = 1",
                        "angular_res = 3", "train_per_class = 0", "lamstar.delta = nan",
                        "lamstar.learning_rate = nan", "lamstar.learning_rate = 1.5",
                        "lamstar.winner_threshold = nan", "lamstar.convergence_target = inf",
                        "lamstar.max_update_iters = -1", "localization.sigma = 0",
                        "localization.t_low = 0.5", "localization.t_high = 2",
                        "localization.horizontal_weight = 2", "localization.iris_r_min = 200",
                        "localization.pupil_r_min = 0", "localization.pupil_center_slack = -1"):
            cfg.write_text(setting + "\n")
            code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(data),
                               "--config", str(cfg))
            assert code == 3, setting
            assert setting.split()[0] in err
            assert not (data / ".template_cache").exists()


class TestConfigFile:
    def test_config_overrides(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# tuning\n"
            "localization.sigma = 1.5\n"
            "lamstar.epochs = 2\n"
            "shift_range = 2\n"
        )
        model = tmp_path / "m.lns"
        code, _, _ = run(capsys, "train", "--data", str(synth_root),
                         "--out", str(model), "--train-per-class", "2",
                         "--config", str(cfg))
        assert code == 0

    def test_flags_set_the_keys_they_name(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lamstar.epochs = 2\nlamstar.delta = 0.1\nlamstar.normalized = True\n")
        models = tmp_path / "by_flags.lns", tmp_path / "by_file.lns"
        for model, extra in zip(models, (["--epochs", "2", "--delta", "0.1", "--normalized"],
                                         ["--config", str(cfg)])):
            code, _, _ = run(capsys, "train", "--data", str(synth_root), "--out", str(model),
                             "--train-per-class", "2", *extra)
            assert code == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        assert models[0].read_bytes().startswith(b"LNS1 480 20 2 1 0.1 ")

    def test_flag_overrides_config_file(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("shift_range = 1\ntrain_per_class = 2\nlamstar.normalized = True\n")
        model = tmp_path / "m.lns"
        code, _, _ = run(capsys, "train", "--data", str(synth_root), "--out", str(model),
                         "--config", str(cfg), "--epochs", "3")
        assert code == 0
        assert model.read_bytes().startswith(b"LNS1 480 20 2 1 ")  # file's normalized kept
        report = tmp_path / "report"
        code, _, _ = run(capsys, "eval", "--model", str(model), "--data", str(synth_root),
                         "--config", str(cfg), "--shift-range", "3", "--report", str(report))
        assert code == 0
        kv = report.with_suffix(".kv").read_text()
        assert "config.shift_range = 3\n" in kv
        assert "config.train_per_class = 2\n" in kv

    def test_unparseable_value_exits_3(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        # a # after a value is part of it, so a trailing comment does not parse
        for value in ("two", "2  # fewer"):
            cfg.write_text(f"lamstar.epochs = {value}\n")
            code, _, err = run(capsys, "train", "--data", str(synth_root),
                               "--out", str(tmp_path / "m.lns"), "--config", str(cfg))
            assert code == 3, value
            assert "lamstar.epochs" in err

    def test_winner_threshold_above_one_exits_3_and_writes_no_model(self, capsys, synth_root,
                                                                    tmp_path):
        # No dot of two unit vectors passes 1 except by rounding: such a
        # threshold grows a neuron from every subword and saves a model with
        # no decision record, which eval then refuses.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lamstar.winner_threshold = 1.5\n")
        model = tmp_path / "m.lns"
        code, _, err = run(capsys, "train", "--data", str(synth_root), "--out", str(model),
                           "--train-per-class", "2", "--config", str(cfg))
        assert code == 3
        assert "lamstar.winner_threshold must be finite and <= 1, got 1.5" in err
        assert not model.exists()

    def test_hash_inside_a_value_is_kept(self, capsys, synth_root, tmp_path):
        cache = tmp_path / "run#1" / "cache"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"  # only a line that starts with # is a comment\ncache_dir = {cache}\n")
        code, _, _ = run(capsys, "train", "--data", str(synth_root), "--out",
                         str(tmp_path / "m.lns"), "--train-per-class", "2", "--config", str(cfg))
        assert code == 0
        assert len(list(cache.rglob("*.irt"))) == 4
        assert not (tmp_path / "run").exists()

    def test_line_without_equals_exits_3(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("shift_range = 1\nlamstar.epochs 2\n")
        code, _, err = run(capsys, "train", "--data", str(synth_root),
                           "--out", str(tmp_path / "m.lns"), "--config", str(cfg))
        assert code == 3
        assert f"{cfg}:2: expected 'key = value'" in err

    def test_quoted_value_that_is_not_a_string_exits_3(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("cache_dir = 'a',\n")  # a tuple literal
        code, _, err = run(capsys, "train", "--data", str(synth_root),
                           "--out", str(tmp_path / "m.lns"), "--config", str(cfg))
        assert code == 3
        assert "config key 'cache_dir': cannot parse" in err
        assert not (tmp_path / "m.lns").exists()

    def test_unknown_key_exits_3(self, capsys, synth_root, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("localization.bogus = 1\n")
        code, _, err = run(capsys, "train", "--data", str(synth_root),
                           "--out", str(tmp_path / "m.lns"), "--config", str(cfg))
        assert code == 3

    def test_usage_error_exits_1(self, capsys):
        code, _, err = run(capsys, "train", "--data")
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage: irislam" in out
