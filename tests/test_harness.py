import math
import shutil
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from irislam import harness
from irislam.errors import ConfigError, DatasetError
from irislam.harness import (
    HarnessConfig,
    compare_variants,
    format_comparison,
    format_report_kv,
    index_dataset,
    run_eval,
    run_train,
    write_report,
)
from irislam.imaging import GrayImage, save_gray_image
from irislam.lamstar import LamstarConfig
from irislam.segmentation import LocalizationConfig


def make_empty_pgm_tree(root, layout):
    """layout: {class_name: n_images}; images are flat gray (unsegmentable)."""
    img = GrayImage(np.full((8, 8), 0.5))
    for name, count in layout.items():
        d = root / name
        d.mkdir(parents=True)
        for i in range(count):
            save_gray_image(img, d / f"img{i:02d}.pgm")


class TestIndexDataset:
    def test_sixteen_class_split(self, tmp_path):
        make_empty_pgm_tree(tmp_path, {f"c{i:02d}": 8 for i in range(16)})
        index = index_dataset(tmp_path, train_per_class=5)
        assert index.num_classes == 16
        assert len(index.split("train")) == 80
        assert len(index.split("test")) == 48

    def test_class_without_remainder_skipped(self, tmp_path, caplog):
        make_empty_pgm_tree(tmp_path, {"full": 6, "boundary": 5})
        with caplog.at_level("WARNING"):
            index = index_dataset(tmp_path, train_per_class=5)
        assert index.class_names == ["full"]
        assert "boundary" in caplog.text

    def test_no_qualifying_classes_is_error(self, tmp_path):
        make_empty_pgm_tree(tmp_path, {"a": 2, "b": 3})
        with pytest.raises(DatasetError):
            index_dataset(tmp_path, train_per_class=5)

    def test_class_name_with_whitespace_is_error(self, tmp_path):
        # the bad name sorts after a class that is fine; a class name is
        # written into ASCII template headers
        for bad, reason in (("class001 copy", "whitespace"), ("classé", "not ASCII")):
            root = tmp_path / reason.replace(" ", "_")
            make_empty_pgm_tree(root, {"class000": 6, bad: 6})
            with pytest.raises(DatasetError, match=reason):
                index_dataset(root, train_per_class=5)

    def test_missing_root_is_error(self, tmp_path):
        with pytest.raises(DatasetError):
            index_dataset(tmp_path / "nope", train_per_class=5)

    def test_deterministic_and_sorted(self, tmp_path):
        make_empty_pgm_tree(tmp_path, {"b": 7, "a": 7})
        i1 = index_dataset(tmp_path, train_per_class=5)
        i2 = index_dataset(tmp_path, train_per_class=5)
        assert i1 == i2
        assert i1.class_names == ["a", "b"]
        train_paths = [e.path.name for e in i1.split("train") if e.class_id == 0]
        assert train_paths == sorted(train_paths)

    def test_splits_disjoint_by_path(self, tmp_path):
        make_empty_pgm_tree(tmp_path, {"a": 8})
        index = index_dataset(tmp_path, train_per_class=5)
        train = {e.path for e in index.split("train")}
        test = {e.path for e in index.split("test")}
        assert not train & test


def save_blank_eye(path):
    """A flat 320x280 image: full size, but with no edge for the Hough."""
    save_gray_image(GrayImage(np.zeros((280, 320))), path)


@pytest.fixture(scope="module")
def trained(small_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    cfg = HarnessConfig(train_per_class=3)
    index = index_dataset(small_dataset, cfg.train_per_class)
    model_path, log = run_train(index, cfg, out / "model.lns")
    return small_dataset, index, cfg, model_path, log


class TestRunTrain:
    def test_produces_model_and_log(self, trained):
        _, _, _, model_path, log = trained
        assert model_path.is_file()
        assert len(log.neuron_counts) == 480
        assert all(n >= 1 for n in log.neuron_counts)
        assert log.train_seconds > 0

    def test_cache_hit_gives_identical_model(self, trained, tmp_path):
        root, index, cfg, model_path, _ = trained
        assert (root / ".template_cache").is_dir()  # populated by first run
        second = tmp_path / "model2.lns"
        run_train(index, cfg, second)
        assert second.read_bytes() == model_path.read_bytes()

    def test_corrupt_cache_entry_is_recomputed(self, small_dataset, tmp_path, caplog):
        cfg = HarnessConfig(train_per_class=3, cache_dir=str(tmp_path / "cache"))
        index = index_dataset(small_dataset, cfg.train_per_class)
        first, second = tmp_path / "first.lns", tmp_path / "second.lns"
        run_train(index, cfg, first)
        entries = sorted((tmp_path / "cache").rglob("*.irt"))
        whole = entries[0].read_bytes()
        nan_value = whole[: whole.index(b"\n") + 1] + np.float64(np.nan).tobytes()
        # cut as a crash mid-write would, or holding a NaN value
        for corrupt in (whole[: len(whole) // 2], nan_value + whole[len(nan_value) :]):
            entries[0].write_bytes(corrupt)
            caplog.clear()
            with caplog.at_level("WARNING"):
                run_train(index, cfg, second)
            assert "corrupt template-cache entry" in caplog.text
            assert entries[0].read_bytes() == whole
            assert second.read_bytes() == first.read_bytes()
        # no temporary file is left beside the entries
        assert sorted(p for p in (tmp_path / "cache").rglob("*") if p.is_file()) == entries

    def test_replaced_image_is_recomputed(self, trained, tmp_path, monkeypatch):
        root, _, cfg, first, _ = trained
        data = tmp_path / "data"
        shutil.copytree(root, data)  # with the warm default cache
        index = index_dataset(data, cfg.train_per_class)
        second = tmp_path / "second.lns"
        # another eye under the same name
        target, other = index.split("train")[0].path, index.split("train")[-1].path
        shutil.copyfile(other, target)
        computed = []
        compute_template = harness.compute_template

        def spy(path, label, cfg):
            computed.append(path)
            return compute_template(path, label, cfg)

        monkeypatch.setattr(harness, "compute_template", spy)
        run_train(index, cfg, second)
        assert computed == [target]
        assert second.read_bytes() != first.read_bytes()
        # the old image's entry is gone, with its emptied hash directory
        class_cache = data / ".template_cache" / cfg.template_digest() / target.parent.name
        assert len(list(class_cache.glob(f"*/{target.stem}.irt"))) == 1
        assert all(any(d.iterdir()) for d in class_cache.iterdir())

    def test_shared_cache_dir_keeps_both_datasets(self, trained, tmp_path, monkeypatch):
        root, index, cfg, first, _ = trained
        shared = tmp_path / "shared"
        shutil.copytree(root / ".template_cache", shared)  # dataset one's entries
        cfg = replace(cfg, cache_dir=str(shared))
        other = tmp_path / "other"
        shutil.copytree(root, other, ignore=shutil.ignore_patterns(".template_cache"))
        # dataset two: same class and file names, one of them another eye
        target = other / index.split("train")[0].path.relative_to(root)
        shutil.copyfile(index.split("train")[-1].path, target)
        computed = []
        compute_template = harness.compute_template

        def spy(path, label, cfg):
            computed.append(path)
            return compute_template(path, label, cfg)

        monkeypatch.setattr(harness, "compute_template", spy)
        run_train(index_dataset(other, cfg.train_per_class), cfg, tmp_path / "other.lns")
        assert computed == [target]
        again = tmp_path / "again.lns"
        run_train(index, cfg, again)  # dataset one still reads every entry
        assert computed == [target]
        assert again.read_bytes() == first.read_bytes()
        class_cache = shared / cfg.template_digest() / target.parent.name
        assert len(list(class_cache.glob(f"*/{target.stem}.irt"))) == 2

    def test_entry_written_after_concurrent_prune(self, small_dataset, tmp_path, monkeypatch):
        cfg = HarnessConfig(train_per_class=3, cache_dir=str(tmp_path / "cache"))
        index = index_dataset(small_dataset, cfg.train_per_class)
        entries = index.split("train")[:1]
        save_template = harness.save_template
        pruned = []

        def prune_first(t, path):
            # another run removes the hash directory, still empty, just made
            if not pruned:
                pruned.append(path.parent)
                path.parent.rmdir()
            save_template(t, path)

        monkeypatch.setattr(harness, "save_template", prune_first)
        templates, _, _ = harness._templates_for(entries, index, cfg)
        assert pruned
        written = list((tmp_path / "cache").rglob("*.irt"))
        assert [p.parent for p in written] == pruned
        assert harness._load_cached(written[0]).values.tobytes() == templates[0].values.tobytes()

    def test_empty_index_is_error(self, tmp_path):
        from irislam.harness import DatasetIndex
        index = DatasetIndex(root=tmp_path, entries=[], class_names=[])
        with pytest.raises(DatasetError):
            run_train(index, HarnessConfig(), tmp_path / "m.lns")

    def test_template_cache_is_not_a_class(self, small_dataset, tmp_path, caplog):
        cfg = HarnessConfig(train_per_class=3)
        with caplog.at_level("WARNING"):
            for name in ("first.lns", "second.lns"):
                run_train(index_dataset(small_dataset, cfg.train_per_class), cfg, tmp_path / name)
        assert (small_dataset / ".template_cache").is_dir()
        assert ".template_cache" not in caplog.text

    def test_unsegmentable_class_is_error(self, tmp_path):
        make_empty_pgm_tree(tmp_path / "data", {"flat": 4})
        index = index_dataset(tmp_path / "data", train_per_class=2)
        with pytest.raises(DatasetError, match="flat"):
            run_train(index, HarnessConfig(train_per_class=2), tmp_path / "m.lns")


class TestRunEval:
    def test_report_shape_and_consistency(self, trained):
        root, index, cfg, model_path, log = trained
        report = run_eval(model_path, index, cfg, train_seconds=log.train_seconds)
        assert report.confusion.shape == (3, 3)
        row_sums = report.confusion.sum(axis=1)
        assert report.num_test == int(report.confusion.sum())
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum()
        )
        for i, acc in enumerate(report.per_class_accuracy):
            if row_sums[i]:
                assert acc == pytest.approx(report.confusion[i, i] / row_sums[i])

    def test_memorization_on_train_split(self, trained, tmp_path):
        # evaluating the model on its own training images: accuracy 1.0
        root, index, cfg, model_path, _ = trained
        from irislam.harness import DatasetEntry
        flipped = replace(index, entries=[
            DatasetEntry(e.path, e.class_id, "test" if e.split == "train" else "train")
            for e in index.entries
        ])
        report = run_eval(model_path, flipped, cfg)
        assert report.accuracy == 1.0

    def test_dimension_mismatch_rejected(self, trained):
        root, index, cfg, model_path, _ = trained
        bad = replace(cfg, radial_res=10)
        with pytest.raises(ConfigError):
            run_eval(model_path, index, bad)

    def test_empty_test_set_flagged(self, trained):
        root, index, cfg, model_path, _ = trained
        no_test = replace(index, entries=[e for e in index.entries if e.split == "train"])
        report = run_eval(model_path, no_test, cfg)
        assert not report.accuracy_defined
        assert math.isnan(report.accuracy)
        assert report.num_test == 0

    def test_config_echoed_in_report(self, trained):
        root, index, cfg, model_path, _ = trained
        report = run_eval(model_path, index, cfg)
        assert report.config_echo["localization.t_high"] == "0.2"
        assert report.config_echo["lamstar.delta"] == "0.05"
        assert "shift_range" in report.config_echo

    def test_echo_follows_the_model_classifier(self, trained, tmp_path):
        # classify uses the model's variant, delta and threshold, not cfg.lamstar's
        root, index, cfg, _, _ = trained
        lam = replace(cfg.lamstar, normalized=True, delta=0.1, winner_threshold=0.9)
        model_path, _ = run_train(index, replace(cfg, lamstar=lam), tmp_path / "norm.lns")
        echo = run_eval(model_path, index, cfg).config_echo
        assert echo["lamstar.normalized"] == "True"
        assert echo["lamstar.delta"] == "0.1"
        assert echo["lamstar.winner_threshold"] == "0.9"
        # LNS1 records no other training setting, so eval states none
        for key in ("lamstar.epochs", "lamstar.learning_rate",
                    "lamstar.convergence_target", "lamstar.max_update_iters"):
            assert key not in echo


class TestLocalizationFailures:
    def test_failed_test_image_is_reported_and_not_cached(self, trained, tmp_path):
        root, _, cfg, model_path, _ = trained
        data = tmp_path / "data"
        shutil.copytree(root, data, ignore=shutil.ignore_patterns(".template_cache"))
        blank = data / "class001" / "zz_blank.pgm"  # sorts after the class's test images
        save_blank_eye(blank)
        index = index_dataset(data, cfg.train_per_class)
        assert blank in [e.path for e in index.split("test")]
        report = run_eval(model_path, index, cfg)
        assert report.num_failed == 1
        assert report.num_test == len(index.split("test")) - 1 == int(report.confusion.sum())
        txt, kv = write_report(report, index.class_names, tmp_path / "report")
        assert "\nnum_failed = 1\n" in kv.read_text()
        assert "\nexcluded by localization failure: 1\n" in txt.read_text()
        cached = [p.stem for p in (data / ".template_cache").rglob("*.irt")]
        assert blank.stem not in cached
        assert len(cached) == report.num_test

    def test_class_with_only_blank_training_images_is_error(self, trained, tmp_path):
        root, index, cfg, _, _ = trained
        data = tmp_path / "data"
        shutil.copytree(root, data)  # with the warm cache
        for entry in index.split("train"):
            if entry.class_id == 0:
                save_blank_eye(data / entry.path.relative_to(root))
        with pytest.raises(DatasetError, match=f"class {index.class_names[0]} lost all"):
            run_train(index_dataset(data, cfg.train_per_class), cfg, tmp_path / "m.lns")


class TestReports:
    def test_write_both_forms(self, trained, tmp_path):
        root, index, cfg, model_path, log = trained
        report = run_eval(model_path, index, cfg, train_seconds=log.train_seconds)
        txt, kv = write_report(report, index.class_names, tmp_path / "report")
        assert "accuracy:" in txt.read_text()
        assert "train time:" in txt.read_text()
        kv_text = kv.read_text()
        assert kv_text.startswith("accuracy = ")
        # machine report is timing-free so identical runs are byte-identical
        assert "time" not in kv_text

    def test_kv_deterministic(self, trained):
        root, index, cfg, model_path, _ = trained
        r1 = run_eval(model_path, index, cfg)
        r2 = run_eval(model_path, index, cfg)
        assert format_report_kv(r1, index.class_names) == format_report_kv(r2, index.class_names)


class TestCompareVariants:
    def test_two_rows_and_determinism(self, trained, tmp_path):
        root, index, cfg, _, _ = trained
        out1 = tmp_path / "cmp1"
        out2 = tmp_path / "cmp2"
        results1 = compare_variants(index, cfg, out1)
        results2 = compare_variants(index, cfg, out2)
        assert [r.name for r in results1] == ["lamstar", "normalized_lamstar"]
        table = format_comparison(results1)
        assert table.count("\n") == 3  # header + two rows
        for r1, r2 in zip(results1, results2):
            assert r1.model_path.read_bytes() == r2.model_path.read_bytes()
            kv1 = (out1 / f"{r1.name}_report.kv").read_bytes()
            kv2 = (out2 / f"{r2.name}_report.kv").read_bytes()
            assert kv1 == kv2

    def test_variants_differ_only_in_normalized_flag(self, trained, tmp_path):
        root, index, cfg, _, _ = trained
        results = compare_variants(index, cfg, tmp_path / "cmp")
        assert results[0].report.config_echo["lamstar.normalized"] == "False"
        assert results[1].report.config_echo["lamstar.normalized"] == "True"
        # compare_variants trained each model, so it echoes every setting
        trained_with = replace(cfg, lamstar=replace(cfg.lamstar, normalized=True))
        assert results[1].report.config_echo == trained_with.echo()


# Every int field has a lower bound of at most 4 and every float field
# accepts (0, 1]; with the bounded localization pairs put in order below,
# these draws are all valid configurations.
_FIELD_VALUES = {
    int: st.integers(4, 10**6),
    float: st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    bool: st.booleans(),
}


def _configs(cls, **nested):
    kinds = get_type_hints(cls)
    return st.builds(cls, **{name: _FIELD_VALUES[kinds[name]]
                             for name in kinds if kinds[name] in _FIELD_VALUES}, **nested)


def _ordered(loc: LocalizationConfig) -> LocalizationConfig:
    """t_low <= t_high, iris_r_min < iris_r_max and pupil_r_min < pupil_r_max."""
    (t_low, t_high), (i0, i1), (p0, p1) = (
        sorted(pair) for pair in ((loc.t_low, loc.t_high), (loc.iris_r_min, loc.iris_r_max),
                                  (loc.pupil_r_min, loc.pupil_r_max)))
    return replace(loc, t_low=t_low, t_high=t_high, iris_r_min=i0, iris_r_max=i1 + 1,
                   pupil_r_min=p0, pupil_r_max=p1 + 1)


class TestFlatSettings:
    @given(_configs(HarnessConfig, localization=_configs(LocalizationConfig).map(_ordered),
                    lamstar=_configs(LamstarConfig), cache_dir=st.none() | st.text()))
    @example(HarnessConfig())
    @example(HarnessConfig(cache_dir="templates/cache"))
    def test_echo_round_trip(self, cfg):
        assert HarnessConfig().with_settings(cfg.echo()) == cfg

    def test_plain_values_parse_as_field_types(self):
        cfg = HarnessConfig().with_settings({
            "lamstar.epochs": "3", "lamstar.normalized": "yes", "localization.sigma": 1.5,
            "cache_dir": "/data/cache", "shift_range": 2,
        })
        assert cfg == HarnessConfig(
            lamstar=LamstarConfig(epochs=3, normalized=True),
            localization=LocalizationConfig(sigma=1.5),
            cache_dir="/data/cache", shift_range=2,
        )
        assert HarnessConfig(cache_dir="x").with_settings({"cache_dir": "None"}).cache_dir is None

    @pytest.mark.parametrize("key, value", [
        ("lamstar.epochs", "two"), ("lamstar.normalized", "maybe"), ("shift_range", "1.5"),
        ("cache_dir", "'unterminated"), ("lamstar.bogus", "1"), ("localization", "1"),
        ("lamstar", "1"), ("nested.lamstar.epochs", "1"),
    ])
    def test_bad_setting_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            HarnessConfig().with_settings({key: value})
