import hashlib
import math
import shutil
import sys
import textwrap
import threading
from dataclasses import replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from irislam import harness
from irislam.errors import ConfigError, DatasetError, FormatError
from irislam.harness import (
    EvalReport,
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
from irislam.normalization import load_template
from irislam.segmentation import LocalizationConfig

from fresh_interpreter import run_fresh


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
        assert whole.startswith(b"IRT1 20 480 ")
        # cut as a crash mid-write would, holding a NaN value, or of another
        # shape with the same number of values
        for corrupt in (whole[: len(whole) // 2], nan_value + whole[len(nan_value) :],
                        b"IRT1 40 240 " + whole[len(b"IRT1 20 480 ") :]):
            entries[0].write_bytes(corrupt)
            caplog.clear()
            with caplog.at_level("WARNING"):
                run_train(index, cfg, second)
            assert "corrupt template-cache entry" in caplog.text
            assert entries[0].read_bytes() == whole
            assert second.read_bytes() == first.read_bytes()
        # an entry labelled with another image's hash, as a replaced image
        # leaves it, is a plain miss
        other = entries[1].read_bytes()
        assert other[: other.index(b"\n")] != whole[: whole.index(b"\n")]
        entries[0].write_bytes(other)
        caplog.clear()
        with caplog.at_level("WARNING"):
            run_train(index, cfg, second)
        assert "corrupt" not in caplog.text
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
        cache = data / ".template_cache"
        entry = cache / cfg.template_digest() / target.parent.name / f"{target.stem}.irt"
        old_entry = entry.read_bytes()
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
        # the name's one entry is overwritten, labelled with the new image's hash
        assert entry.read_bytes() != old_entry
        assert load_template(entry).label == hashlib.sha256(other.read_bytes()).hexdigest()[:16]
        assert not [p for p in cache.glob("*/*/*") if p.is_dir()]  # nothing below a class

    def test_replaced_image_leaves_its_twin_cached(self, small_dataset, tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(small_dataset, data, ignore=shutil.ignore_patterns(".template_cache"))
        index = index_dataset(data, 3)
        entries = index.split("train")[:2]
        assert entries[0].class_id == entries[1].class_id
        target, twin = (e.path for e in entries)
        shutil.copyfile(twin, target)  # byte-identical images, an entry each
        cfg = HarnessConfig(train_per_class=3)
        harness._templates_for(entries, index, cfg)
        class_cache = data / ".template_cache" / cfg.template_digest() / target.parent.name
        target_entry, twin_entry = (class_cache / f"{p.stem}.irt" for p in (target, twin))
        assert sorted(class_cache.iterdir()) == sorted([target_entry, twin_entry])
        twin_bytes = twin_entry.read_bytes()
        assert target_entry.read_bytes() == twin_bytes
        # another eye under the target's name
        shutil.copyfile(index.split("train")[2].path, target)
        computed = []
        compute_template = harness.compute_template

        def spy(path, label, cfg):
            computed.append(path)
            return compute_template(path, label, cfg)

        monkeypatch.setattr(harness, "compute_template", spy)
        harness._templates_for(entries, index, cfg)
        assert computed == [target]  # the twin is a cache hit
        assert twin_entry.read_bytes() == twin_bytes
        assert target_entry.read_bytes() != twin_bytes
        assert sorted(class_cache.iterdir()) == sorted([target_entry, twin_entry])

    def test_shared_cache_dir_holds_the_last_image_of_each_name(self, trained, tmp_path,
                                                                monkeypatch):
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
        # dataset one recomputes only the name dataset two wrote last
        run_train(index, cfg, again)
        assert computed == [target, index.split("train")[0].path]
        assert again.read_bytes() == first.read_bytes()
        class_cache = shared / cfg.template_digest() / target.parent.name
        assert [p.name for p in class_cache.glob(f"{target.stem}*")] == [f"{target.stem}.irt"]

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
        report = run_eval(model_path, index, cfg)
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

    def test_classify_import_is_not_test_time(self, trained):
        # In a fresh interpreter scipy.sparse is loaded before the first
        # classify call, so the test-time clock does not time the import.
        root, index, cfg, model_path, _ = trained
        script = textwrap.dedent("""
            import sys
            from irislam import harness
            loaded = []
            classify = harness.classify
            def spy(*args, **kwargs):
                loaded.append("scipy.sparse" in sys.modules)
                return classify(*args, **kwargs)
            harness.classify = spy
            index = harness.index_dataset(sys.argv[1], int(sys.argv[3]))
            harness.run_eval(sys.argv[2], index, harness.HarnessConfig(train_per_class=int(sys.argv[3])))
            print(*loaded)
        """)
        loaded = run_fresh(script, str(root), str(model_path), str(cfg.train_per_class)).split()
        assert loaded == ["True"] * len(index.split("test"))

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


class TestTemplatePool:
    """Cache misses are computed on one worker per CPU of the affinity mask;
    the templates, the cache and the log must not depend on how many."""

    @staticmethod
    def misses(small_dataset, tmp_path):
        """Five train entries of a fresh copy of the dataset, no cache."""
        data = tmp_path / "data"
        shutil.copytree(small_dataset, data, ignore=shutil.ignore_patterns(".template_cache"))
        index = index_dataset(data, 3)
        return index, index.split("train")[:5]

    @staticmethod
    def set_cpus(monkeypatch, cpus):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert harness._worker_count() == 3

    def test_pool_matches_one_worker(self, small_dataset, tmp_path, monkeypatch, caplog):
        index, entries = self.misses(small_dataset, tmp_path)
        for blank in (entries[1], entries[3]):
            save_blank_eye(blank.path)
        compute_template = harness.compute_template
        outcomes = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out ordering bugs
        try:
            for cpus in (1, 2, 4):
                self.set_cpus(monkeypatch, cpus)
                # The first `cpus` calls wait for each other: they must run at once.
                barrier = threading.Barrier(cpus, timeout=60)
                callers = []

                def spy(path, label, cfg):
                    callers.append(threading.get_ident())
                    if len(callers) <= cpus:
                        barrier.wait()
                    return compute_template(path, label, cfg)

                monkeypatch.setattr(harness, "compute_template", spy)
                cache = tmp_path / f"cache{cpus}"
                cfg = HarnessConfig(train_per_class=3, cache_dir=str(cache))
                caplog.clear()
                with caplog.at_level("WARNING"):
                    templates, labels, failed = harness._templates_for(entries, index, cfg)
                assert len(callers) == len(entries)
                assert len(set(callers[:cpus])) == cpus
                files = {p.relative_to(cache): p.read_bytes()
                         for p in sorted(cache.rglob("*")) if p.is_file()}
                outcomes.append(([(t.label, t.values.tobytes()) for t in templates], labels,
                                 failed, files, [r.getMessage() for r in caplog.records]))
        finally:
            sys.setswitchinterval(switch)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        templates, labels, failed, files, warnings = outcomes[0]
        assert failed == [entries[1], entries[3]]
        assert labels == [entries[i].class_id for i in (0, 2, 4)]
        assert len(files) == 3
        assert [w.split(": ")[0] for w in warnings] == [f"excluding {entries[i].path}" for i in (1, 3)]

    def test_format_error_raises_after_earlier_entries_are_cached(
            self, small_dataset, tmp_path, monkeypatch):
        index, entries = self.misses(small_dataset, tmp_path)
        entries[2].path.write_bytes(b"P5\n320 280\n255\n")  # no raster
        self.set_cpus(monkeypatch, 2)
        cache = tmp_path / "cache"
        cfg = HarnessConfig(train_per_class=3, cache_dir=str(cache))
        with pytest.raises(FormatError, match="raster"):
            harness._templates_for(entries, index, cfg)
        assert sorted(p.stem for p in cache.rglob("*.irt")) == [e.path.stem for e in entries[:2]]
        assert not list(cache.rglob("*.partial"))


class TestReports:
    def test_write_both_forms(self, trained, tmp_path):
        root, index, cfg, model_path, log = trained
        report = run_eval(model_path, index, cfg)
        txt, kv = write_report(report, index.class_names, tmp_path / "report")
        assert "accuracy:" in txt.read_text()
        assert "train time:" not in txt.read_text()  # eval trained nothing
        kv_text = kv.read_text()
        assert kv_text.startswith("accuracy = ")
        # machine report is timing-free so identical runs are byte-identical
        assert "time" not in kv_text

    def test_prefix_with_a_dot_keeps_its_name(self, tmp_path):
        # run.1 and run.2 name two pairs of reports, not run.txt and run.kv twice
        report = EvalReport(accuracy=1.0, per_class_accuracy=np.array([1.0]),
                            confusion=np.array([[1]]), train_seconds=None,
                            test_seconds=0.0, config_echo={}, num_test=1)
        for run in ("run.1", "run.2"):
            txt, kv = write_report(report, ["a"], tmp_path / run)
            assert (txt.name, kv.name) == (f"{run}.txt", f"{run}.kv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.1.kv", "run.1.txt", "run.2.kv", "run.2.txt"]

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
            # compare trained the model, so its text report gives the time
            txt = (out1 / f"{r1.name}_report.txt").read_text()
            assert f"train time: {r1.log.train_seconds:.4f} s\n" in txt

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
# and shift_range at most the smallest angular_res // 2, these draws are
# all valid configurations.
_FIELD_VALUES = {
    int: st.integers(4, 10**6),
    float: st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    bool: st.booleans(),
}


def _fields(cls):
    kinds = get_type_hints(cls)
    return {name: _FIELD_VALUES[kinds[name]] for name in kinds if kinds[name] in _FIELD_VALUES}


def _configs(cls, **nested):
    return st.builds(cls, **_fields(cls) | nested)


def _ordered(fields: dict) -> LocalizationConfig:
    """The drawn fields with t_low <= t_high, iris_r_min < iris_r_max and
    pupil_r_min < pupil_r_max; LocalizationConfig refuses any other."""
    (t_low, t_high), (i0, i1), (p0, p1) = (
        sorted(pair) for pair in ((fields["t_low"], fields["t_high"]),
                                  (fields["iris_r_min"], fields["iris_r_max"]),
                                  (fields["pupil_r_min"], fields["pupil_r_max"])))
    return LocalizationConfig(**fields | dict(t_low=t_low, t_high=t_high, iris_r_min=i0,
                                              iris_r_max=i1 + 1, pupil_r_min=p0,
                                              pupil_r_max=p1 + 1))


class TestFlatSettings:
    @given(_configs(HarnessConfig,
                    localization=st.fixed_dictionaries(_fields(LocalizationConfig)).map(_ordered),
                    lamstar=_configs(LamstarConfig), cache_dir=st.none() | st.text(),
                    shift_range=st.integers(0, 2)))
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

    def test_winner_threshold_at_most_one(self):
        for value in (1.0, 0.0, -2.0):
            lam = HarnessConfig().with_settings({"lamstar.winner_threshold": value}).lamstar
            assert lam.winner_threshold == value
        for value in (math.nextafter(1.0, 2.0), 1.5, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="lamstar.winner_threshold must be finite and <= 1"):
                HarnessConfig(lamstar=LamstarConfig(winner_threshold=value))

    def test_shift_range_bounded_by_half_the_ring(self):
        cfg = HarnessConfig().with_settings({"angular_res": "64", "shift_range": "32"})
        assert (cfg.angular_res, cfg.shift_range) == (64, 32)
        assert HarnessConfig(angular_res=5, shift_range=2).shift_range == 2
        for angular_res, shift_range in ((64, 33), (5, 3), (480, 10**9)):
            with pytest.raises(ConfigError, match="shift_range"):
                HarnessConfig(angular_res=angular_res, shift_range=shift_range)


@pytest.mark.parametrize("train_per_class", [0, -1])
def test_argument_errors(small_dataset, train_per_class):
    with pytest.raises(ValueError, match="train_per_class must be positive"):
        index_dataset(small_dataset, train_per_class)
