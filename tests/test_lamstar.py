import errno
import hashlib
import json
import textwrap
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from irislam import lamstar
from irislam.errors import ConfigError, FormatError
from irislam.lamstar import (
    DecisionLayer,
    LamstarConfig,
    LamstarNetwork,
    classify,
    load_model,
    save_model,
    som_present,
    subword_matrix,
    train,
)
from irislam.normalization import IrisTemplate, unwrap
from irislam.synthdata import make_benchmark

from fresh_interpreter import run_fresh
from test_golden import LNS1_SHA256

# sha256 over (class index, shift, score bytes) of every pinned probe in
# TestClassify.test_outputs_pinned, recorded from the einsum winner search
# that preceded the stacked matmul. Both the stacked matmul and the one
# product per module over the shift window reproduced them unchanged,
# though the window product sums the dots in another order; any rewrite
# must reproduce them.
CLASSIFY_SHA256 = {
    False: "a443d12186f56bc7a2806745f6db96cf6fdea862593849f9293e5d78c753d721",
    True: "70f4b28bd441703c4077f89d05fad1360d22fdf33ec7c50b05fb68b97303452b",
}

# sha256 of TestModelFile.sliced_model_bytes, recorded with the writer that
# built every decision record at once, before records were written and
# read in slices.
SLICED_LNS1_SHA256 = "054d35b4cb940d9e8316dfff1d9eb05d58ecc94def09a97be724a03d54ab6a5c"


def unit(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x)


def rewalk_scores(net: LamstarNetwork, t: IrisTemplate) -> np.ndarray:
    """Independent re-walk of a frozen network: per module, normalize the
    column, recompute the dot products, pick the winner, and sum its link
    weights, divided by max(1, reward count) in the normalized variant."""
    scores = np.zeros(net.num_classes)
    dec = net.decision
    for m in range(net.num_modules):
        column = t.values[:, m]
        norm = np.linalg.norm(column)
        if norm < 1e-12 or net.counts[m] == 0:
            continue
        dots = net.neurons[m, : net.counts[m]] @ (column / norm)
        winner = int(np.argmax(dots))
        if dots[winner] < net.config.winner_threshold:
            continue
        gid = int(net.counts[:m].sum()) + winner
        for c in range(net.num_classes):
            w = dec.weights[gid, c]
            if net.config.normalized:
                w /= max(1, dec.reward_counts[gid, c])
            scores[c] += w
    return scores


def reference_classify(net: LamstarNetwork, t: IrisTemplate, shift_range: int):
    """Per-shift reference of the shift search, independent of the packed
    winner search: for each shift in ascending order roll the columns, and
    in each module take the argmax of weights @ column, which wins if it
    clears the threshold (an all-zero column abstains); sum the winners'
    link weights. The first shift with the highest top score wins.
    Returns (class index, shift, scores)."""
    eff = net.decision.effective_matrix(net.config.normalized)
    offsets = np.cumsum([0, *net.counts])
    best_shift, best_scores = None, None
    for shift in range(-shift_range, shift_range + 1):
        cols = subword_matrix(np.roll(t.values, shift, axis=1))
        gids = []
        for m in range(net.num_modules):
            if net.counts[m] == 0 or not cols[m].any():
                continue
            dots = net.neurons[m, : net.counts[m]] @ cols[m]
            winner = int(np.argmax(dots))
            if dots[winner] >= net.config.winner_threshold:
                gids.append(offsets[m] + winner)
        scores = eff[np.array(gids, dtype=np.int64)].sum(axis=0)
        if best_scores is None or scores.max() > best_scores.max():
            best_shift, best_scores = shift, scores
    return int(np.argmax(best_scores)), best_shift, best_scores


def reference_winners(net: LamstarNetwork, cols: np.ndarray, first: int, count: int) -> np.ndarray:
    """Per-shift reference of the winner search: the window built by one
    fancy index per module and shift, the same product, then per shift and
    module np.argmax over the module's occupied slots only; the winner
    stands if it clears the threshold and the column is not all zero.
    Returns global neuron ids, shape (count, num_modules), -1 to abstain."""
    index = (np.arange(net.num_modules)[:, None] - np.arange(first, first + count)) % net.num_modules
    dots = np.matmul(net.neurons, np.ascontiguousarray(cols[index].transpose(0, 2, 1)))
    offsets = np.cumsum([0, *net.counts])
    out = np.full((count, net.num_modules), -1)
    for k in range(count):
        for m, n in enumerate(net.counts):
            if n == 0 or not cols[index[m, k]].any():
                continue
            winner = int(np.argmax(dots[m, :n, k]))
            if dots[m, winner, k] >= net.config.winner_threshold:
                out[k, m] = offsets[m] + winner
    return out


def as_winner_sets(gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reference_winners' (count, num_modules) ids, -1 to abstain, as the
    search's CSR rows (ids, indptr)."""
    won = gids >= 0
    return gids[won], np.concatenate(([0], np.cumsum(won.sum(axis=1))))


def assert_winner_sets(ids: np.ndarray, indptr: np.ndarray) -> None:
    """CSR row invariants of the search's output; ids ascend within a row
    because module m's global ids lie below module m + 1's."""
    assert indptr[0] == 0 and indptr[-1] == len(ids)
    assert np.all(np.diff(indptr) >= 0)
    for k in range(len(indptr) - 1):
        assert np.all(np.diff(ids[indptr[k] : indptr[k + 1]]) > 0)


class TestUnitColumns:
    def test_three_four_five(self):
        cols = subword_matrix(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(cols, [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        v = np.array([0.0, 1.0, 0.0])
        cols = subword_matrix(v[:, None])
        np.testing.assert_allclose(cols[0], v, atol=1e-15)

    def test_zero_vector_flagged(self):
        cols = subword_matrix(np.zeros((4, 1)))
        np.testing.assert_array_equal(cols, np.zeros((1, 4)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=20))
    def test_unit_norm_or_flagged(self, values):
        cols = subword_matrix(np.array(values)[:, None])
        if not cols[0].any():
            assert np.linalg.norm(values) < 1e-9
        else:
            assert abs(np.linalg.norm(cols[0]) - 1.0) <= 1e-9

    def test_full_size_template(self):
        vals = np.random.default_rng(0).random((20, 480))
        cols = subword_matrix(vals)
        assert cols.shape == (480, 20)
        for j in (0, 1, 239, 479):  # row j is column j, in column order
            np.testing.assert_allclose(cols[j], vals[:, j] / np.linalg.norm(vals[:, j]), atol=1e-15)

    def test_toy_template(self):
        cols = subword_matrix(np.ones((2, 3)))
        assert cols.shape == (3, 2) and cols.all()

    def test_zero_column_flagged(self):
        vals = np.ones((4, 5))
        vals[:, 2] = 0.0
        cols = subword_matrix(vals)
        assert cols.any(axis=1).tolist() == [True, True, False, True, True]
        np.testing.assert_array_equal(cols[2], np.zeros(4))

    def test_tiny_column_zeroed_without_warning(self):
        # Nonzero columns whose norm is under 1e-12, one of them subnormal,
        # become +0.0 rows; no row is divided by its tiny norm.
        vals = np.ones((4, 4))
        vals[:, 1] = [1e-13, 0.0, -1e-13, 0.0]
        vals[:, 2] = [0.0, -5e-324, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = subword_matrix(vals)
        assert cols.any(axis=1).tolist() == [True, False, False, True]
        assert cols[1:3].tobytes() == np.zeros((2, 4)).tobytes()

    def test_equals_masked_divide(self):
        # Normalizing in place gives the bytes of dividing only the rows
        # whose norm clears the bound and zeroing the rest.
        vals = np.random.default_rng(4).random((20, 480))
        vals[:, ::7] *= 1e-13
        expected = vals.T.astype(np.float64, copy=True)
        norms = np.linalg.norm(expected, axis=1)
        zero = norms < 1e-12
        assert 0 < zero.sum() < len(zero)
        expected[zero] = 0.0
        expected[~zero] /= norms[~zero, None]
        assert subword_matrix(vals).tobytes() == expected.tobytes()

    def test_memory_layout_leaves_every_byte(self, tmp_path):
        # A Fortran-ordered copy of the values gives the C-ordered run's
        # subwords, classify results and LNS1 bytes: only the values count.
        rng = np.random.default_rng(5)
        values = [rng.random((20, 48)) for _ in range(6)]
        assert all(v.flags.c_contiguous for v in values)
        fortran = np.asfortranarray(values[0])
        assert subword_matrix(fortran).tobytes() == subword_matrix(values[0]).tobytes()
        runs = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            templates = [IrisTemplate(order(v)) for v in values]
            net = LamstarNetwork(48, 20, 2)
            train(net, templates, [0, 1] * 3)
            save_model(net, tmp_path / "m.lns")
            preds = [classify(net, IrisTemplate(order(np.roll(v, 2, axis=1))), 3) for v in values]
            runs.append(((tmp_path / "m.lns").read_bytes(),
                         [(p.class_index, p.shift, p.scores.tobytes()) for p in preds]))
        assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def seed11_templates():
    """Ground-truth unwraps of make_benchmark(4, 3, 1, seed=11), the golden
    eyes: (train templates, their labels, test templates)."""
    train_eyes, test_eyes = make_benchmark(4, 3, 1, seed=11)
    train_t = [unwrap(e.image, e.spec.localization) for e in train_eyes]
    test_t = [unwrap(e.image, e.spec.localization) for e in test_eyes]
    return train_t, [e.class_id for e in train_eyes], test_t


class TestSomPresent:
    def test_first_pattern_creates_neuron(self):
        net = LamstarNetwork(1, 3, 1)
        winner, created = som_present(net, 0, unit([1.0, 2.0, 2.0]))
        assert (winner, created) == (0, True)
        assert net.counts[0] == 1

    def test_same_pattern_reuses_neuron(self):
        net = LamstarNetwork(1, 3, 1)
        s = unit([1.0, 2.0, 2.0])
        som_present(net, 0, s)
        winner, created = som_present(net, 0, s)
        assert (winner, created) == (0, False)
        assert net.counts[0] == 1
        assert net.neurons[0, 0] @ s == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pattern_creates_new_neuron(self):
        net = LamstarNetwork(1, 2, 1)
        som_present(net, 0, unit([1.0, 0.0]))
        winner, created = som_present(net, 0, unit([0.0, 1.0]))
        assert (winner, created) == (1, True)

    def test_tie_goes_to_lowest_index(self):
        net = LamstarNetwork(1, 2, 1, LamstarConfig(winner_threshold=0.5))
        som_present(net, 0, unit([1.0, 0.0]))
        som_present(net, 0, unit([0.0, 1.0]))
        assert som_present(net, 0, unit([1.0, 1.0])) == (0, False)

    def test_zero_subword_abstains(self):
        net = LamstarNetwork(1, 2, 1)
        winner, created = som_present(net, 0, np.zeros(2))
        assert winner is None and not created
        assert net.counts[0] == 0

    def test_update_contraction_rate(self):
        # one raw step of w <- w + 0.8*(s - w) shrinks 1 - dot by at least 5x;
        # renormalization only helps
        rng = np.random.default_rng(3)
        cfg = LamstarConfig(winner_threshold=-1.0, convergence_target=2.0, max_update_iters=1)
        for _ in range(200):
            net = LamstarNetwork(1, 6, 1, cfg)
            w0 = rng.normal(size=6)
            s = unit(rng.normal(size=6))
            net.neurons[0, 0] = w0 / np.linalg.norm(w0)
            net.counts[0] = 1
            gap0 = 1.0 - net.neurons[0, 0] @ s
            som_present(net, 0, s)
            gap1 = 1.0 - net.neurons[0, 0] @ s
            assert gap1 <= 0.2 * gap0 + 1e-12

    def test_fixed_point(self):
        s = unit([0.3, -0.5, 0.8])
        net = LamstarNetwork(1, 3, 1)
        som_present(net, 0, s)
        w_before = net.neurons.copy()
        som_present(net, 0, s)
        np.testing.assert_allclose(net.neurons, w_before, atol=1e-12)


def reference_step(modules: list[np.ndarray], m: int, s: np.ndarray,
                   cfg: LamstarConfig) -> tuple[int | None, bool]:
    """som_present in its earlier forms, on per-module arrays: dots by the
    @ operator, a fresh array per pull step, np.linalg.norm, the pulled
    neuron written back once, and a new neuron appended with np.vstack."""
    if not s.any():
        return None, False
    if len(modules[m]):
        dots = modules[m] @ s
        winner = int(np.argmax(dots))
        if dots[winner] >= cfg.winner_threshold:
            w = modules[m][winner]
            for _ in range(cfg.max_update_iters):
                if w @ s >= cfg.convergence_target:
                    break
                w = w + cfg.learning_rate * (s - w)
                w = w / np.linalg.norm(w)
            modules[m][winner] = w
            return winner, False
    modules[m] = np.vstack([modules[m], s])
    return len(modules[m]) - 1, True


def reference_store(templates, cfg: LamstarConfig, num_modules: int) -> list[np.ndarray]:
    """Independent per-module SOM phase of reference_step."""
    modules = [np.empty((0, templates[0].radial_res)) for _ in range(num_modules)]
    for t in templates:
        for m, s in enumerate(subword_matrix(t.values)):
            reference_step(modules, m, s, cfg)
    return modules


def subword_values(data, num_templates: int, dim: int, num_modules: int) -> np.ndarray:
    """(num_templates, dim, num_modules) template values, with all-zero
    columns in every template and, in others, a first entry of 0 or -0."""
    values = data.draw(arrays(np.float64, (num_templates, dim, num_modules),
                              elements=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, -0.3])))
    values[:, 0, data.draw(arrays(bool, num_modules))] = data.draw(st.sampled_from([0.0, -0.0]))
    values[..., data.draw(arrays(bool, num_modules))] = 0.0
    return values


class TestNeuronStore:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([0.95, 0.5, -1.0]))
    def test_matches_per_module_reference(self, data, threshold):
        num_modules = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(1, 20))
        values = subword_values(data, data.draw(st.integers(1, 8)), dim, num_modules)
        templates = [IrisTemplate(v) for v in values]
        cfg = LamstarConfig(winner_threshold=threshold)
        net = LamstarNetwork(num_modules, dim, 1, cfg)
        log = train(net, templates, [0] * len(templates))
        reference = reference_store(templates, cfg, num_modules)
        assert net.counts.tolist() == log.neuron_counts == [len(r) for r in reference]
        assert net.neurons.shape == (num_modules, max(1, net.counts.max()), dim)
        for m, neurons in enumerate(reference):
            assert net.neurons[m, : net.counts[m]].tobytes() == neurons.tobytes()
            assert not net.neurons[m, net.counts[m] :].any()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from([0.95, 0.5, -1.0]), st.sampled_from([1, 2, 100]),
           st.sampled_from([0.9999, 0.99, 0.5, 1.0, 2.0]))
    def test_each_step_matches_reference_step(self, data, threshold, iters, target):
        # Each step of the in-place pull gives the bits of the earlier forms,
        # whatever number of pulls it makes.
        num_modules = data.draw(st.integers(1, 4))
        dim = data.draw(st.integers(1, 20))
        values = subword_values(data, data.draw(st.integers(1, 6)), dim, num_modules)
        cfg = LamstarConfig(winner_threshold=threshold, max_update_iters=iters,
                            convergence_target=target)
        net = LamstarNetwork(num_modules, dim, 1, cfg)
        reference = [np.empty((0, dim)) for _ in range(num_modules)]
        for v in values:
            for m, s in enumerate(subword_matrix(v)):
                assert som_present(net, m, s) == reference_step(reference, m, s, cfg)
                assert net.counts.tolist() == [len(r) for r in reference]
                for k, neurons in enumerate(reference):
                    assert net.neurons[k, : net.counts[k]].tobytes() == neurons.tobytes()
                    assert not net.neurons[k, net.counts[k] :].any()


def toy_templates():
    """Two 2x2 templates with orthogonal column patterns."""
    t0 = IrisTemplate(np.array([[1.0, 1.0], [0.0, 0.0]]))
    t1 = IrisTemplate(np.array([[0.0, 0.0], [1.0, 1.0]]))
    return [t0, t1], [0, 1]


def traced_peak(fn):
    """fn()'s result, and the traced peak in bytes above what was allocated
    when fn was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def built_network(seed: int, num_modules: int, dim: int, num_classes: int,
                  max_neurons: int, density: float) -> LamstarNetwork:
    """A frozen network made without training: 0 to max_neurons random unit
    neurons per module, and random weights and reward counts on a
    `density` share of the decision layer's entries."""
    rng = np.random.default_rng(seed)
    net = LamstarNetwork(num_modules, dim, num_classes)
    net.counts = rng.integers(0, max_neurons + 1, num_modules)
    net.neurons = rng.standard_normal((num_modules, max(1, net.counts.max()), dim))
    net.neurons /= np.linalg.norm(net.neurons, axis=2, keepdims=True)
    net.neurons[np.arange(net.neurons.shape[1]) >= net.counts[:, None]] = 0.0
    net._freeze()
    dec = net.decision
    linked = rng.random(dec.weights.shape) < density
    dec.weights[linked] = rng.standard_normal(np.count_nonzero(linked))
    dec.reward_counts[linked] = rng.integers(0, 4, np.count_nonzero(linked))
    return net


def whole_layer_model_bytes(net: LamstarNetwork) -> bytes:
    """Reference LNS1 bytes of a frozen network, each section built whole
    as save_model documents the layout: header, per module its uint32
    count and float64 neurons, every link with a nonzero weight or reward
    count in key order, then the uint64 record count."""
    cfg = net.config
    parts = [f"LNS1 {net.num_modules} {net.subword_dim} {net.num_classes} "
             f"{1 if cfg.normalized else 0} {cfg.delta!r} {cfg.winner_threshold!r}\n".encode("ascii")]
    for n, block in zip(net.counts, net.neurons):
        parts.append(np.array(n, dtype="<u4").tobytes() + block[:n].astype("<f8").tobytes())
    dec = net.decision
    gids, classes = np.nonzero((dec.weights != 0) | (dec.reward_counts != 0))
    module = np.searchsorted(dec.offsets, gids, side="right") - 1
    records = np.zeros(len(gids), dtype=[("module", "<u4"), ("neuron", "<u4"), ("cls", "<u4"),
                                         ("weight", "<f8"), ("rewards", "<u8")])
    records["module"] = module
    records["neuron"] = gids - dec.offsets[module]
    records["cls"] = classes
    records["weight"] = dec.weights[gids, classes]
    records["rewards"] = dec.reward_counts[gids, classes]
    parts.append(records.tobytes() + np.array(len(records), dtype="<u8").tobytes())
    return b"".join(parts)


class TestTrain:
    def test_toy_hand_simulated(self):
        # SOM phase: each module grows 2 neurons (orthogonal subwords).
        # Decision epoch 1: t0 scores are zero -> argmax tie-break hits its
        # own label; t1 scores zero -> predicted 0, one error; both update.
        # Epoch 2: both templates score +2*delta for their own class -> no
        # errors, early stop. Per winning link: rewarded twice -> weight
        # 2*delta, reward count 2; the opposite class punished to -2*delta.
        templates, labels = toy_templates()
        net = LamstarNetwork(num_modules=2, subword_dim=2, num_classes=2)
        log = train(net, templates, labels)
        assert log.neuron_counts == [2, 2]
        assert log.epochs_run == 2
        assert log.epoch_errors == [1, 0]
        delta = net.config.delta
        eff = net.decision.effective_matrix(False)
        for m in range(2):
            n0 = net.decision.offsets[m]  # global id of the module's neuron 0
            assert eff[n0, 0] == pytest.approx(2 * delta)
            assert eff[n0, 1] == pytest.approx(-2 * delta)
            assert eff[n0 + 1, 1] == pytest.approx(2 * delta)
            assert eff[n0 + 1, 0] == pytest.approx(-2 * delta)
        for t, label in zip(templates, labels):
            assert classify(net, t).class_index == label

    def test_growth_bound(self):
        rng = np.random.default_rng(4)
        templates = [IrisTemplate(rng.random((4, 6))) for _ in range(10)]
        labels = list(rng.integers(0, 3, size=10))
        net = LamstarNetwork(6, 4, 3)
        train(net, templates, [int(l) for l in labels])
        assert ((net.counts >= 1) & (net.counts <= 10)).all()

    def test_identical_subwords_grow_one_neuron(self):
        templates = [IrisTemplate(np.ones((3, 4))) for _ in range(5)]
        net = LamstarNetwork(4, 3, 2)
        train(net, templates, [0, 0, 0, 0, 0])
        assert net.counts.tolist() == [1, 1, 1, 1]

    def test_inconsistent_labels_do_not_crash(self):
        t = IrisTemplate(np.ones((3, 4)))
        net = LamstarNetwork(4, 3, 2, LamstarConfig(epochs=4))
        log = train(net, [t, IrisTemplate(t.values.copy())], [0, 1])
        assert log.epochs_run == 4
        assert log.epoch_errors[-1] >= 1  # irreducible error is recorded

    def test_label_out_of_range_rejected(self):
        t = IrisTemplate(np.ones((3, 4)))
        net = LamstarNetwork(4, 3, 2)
        with pytest.raises(ValueError):
            train(net, [t], [2])

    def test_dimension_mismatch_rejected(self):
        net = LamstarNetwork(4, 3, 2)
        with pytest.raises(ValueError):
            train(net, [IrisTemplate(np.ones((3, 5)))], [0])

    def test_determinism(self):
        rng = np.random.default_rng(5)
        data = rng.random((8, 5, 10))
        nets = []
        for _ in range(2):
            templates = [IrisTemplate(data[i].copy()) for i in range(8)]
            net = LamstarNetwork(10, 5, 4)
            train(net, templates, [i % 4 for i in range(8)])
            nets.append(net)
        np.testing.assert_array_equal(nets[0].counts, nets[1].counts)
        np.testing.assert_array_equal(nets[0].neurons, nets[1].neurons)
        np.testing.assert_array_equal(nets[0].decision.weights, nets[1].decision.weights)
        np.testing.assert_array_equal(nets[0].decision.reward_counts, nets[1].decision.reward_counts)

    def test_delta_scale_invariance(self):
        rng = np.random.default_rng(6)
        data = rng.random((6, 4, 8))
        labels = [i % 3 for i in range(6)]
        preds = []
        scores = []
        for delta in (0.05, 0.35):
            templates = [IrisTemplate(data[i].copy()) for i in range(6)]
            net = LamstarNetwork(8, 4, 3, LamstarConfig(delta=delta))
            train(net, templates, labels)
            p = [classify(net, t) for t in templates]
            preds.append([x.class_index for x in p])
            scores.append(np.array([x.scores for x in p]))
        assert preds[0] == preds[1]
        np.testing.assert_allclose(scores[1], scores[0] * (0.35 / 0.05), atol=1e-9)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_som_present_called_once_per_module_and_template(self, seed11_templates, monkeypatch,
                                                             tmp_path, normalized):
        # perfbench's trace-1 check wraps lamstar.som_present and compares its
        # call count with templates x modules (ROADMAP item 1a), so train calls
        # the step through the module binding, for each template once per
        # module in module order; the golden LNS1 bytes stay as they are.
        train_t, labels, _ = seed11_templates
        modules = []
        step = lamstar.som_present

        def counted(net, m, s):
            modules.append(m)
            return step(net, m, s)

        monkeypatch.setattr(lamstar, "som_present", counted)
        net = LamstarNetwork(480, 20, 4, LamstarConfig(normalized=normalized))
        train(net, train_t, labels)
        assert modules == list(range(net.num_modules)) * len(train_t)
        save_model(net, tmp_path / "model.lns")
        digest = hashlib.sha256((tmp_path / "model.lns").read_bytes()).hexdigest()
        assert digest == LNS1_SHA256[normalized]

    def test_memory_does_not_grow_with_the_templates(self):
        # Presenting 16 full-size templates 4 times grows the same neurons
        # and links as presenting them once; only the winners (480 ids per
        # template) may add to the peak. Holding every template's subwords
        # at once would add 48 x 76.8 kB, 3.7 MB.
        rng = np.random.default_rng(8)
        templates = [IrisTemplate(rng.random((20, 480))) for _ in range(16)]
        labels = [i % 4 for i in range(16)]
        peaks = []
        for repeats in (1, 4):
            net = LamstarNetwork(480, 20, 4)
            _, peak = traced_peak(lambda: train(net, templates * repeats, labels * repeats))
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**20


class TestWinnerSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([0.95, 0.5, 0.0, -0.5, -1.0, -2.0]))
    def test_matches_per_shift_argmax(self, data, threshold):
        num_modules = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(1, 4))
        elements = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
        # few distinct directions, so neurons and dots tie often; modules
        # of 0 to 4 neurons leave empty padded slots
        counts = np.array(data.draw(st.lists(st.integers(0, 4), min_size=num_modules,
                                             max_size=num_modules)))
        net = LamstarNetwork(num_modules, dim, 1, LamstarConfig(winner_threshold=threshold))
        net.counts = counts
        net.neurons = np.zeros((num_modules, max(1, counts.max()), dim))
        for m, n in enumerate(counts):
            for slot in range(n):
                if slot and data.draw(st.booleans()):  # a tie with the slot before
                    net.neurons[m, slot] = net.neurons[m, slot - 1]
                    continue
                v = data.draw(arrays(np.float64, dim, elements=elements))
                v[0] += not v.any()
                net.neurons[m, slot] = v / np.linalg.norm(v)
        net._freeze()
        # all-zero columns abstain; negative dots lose to an empty slot's 0
        # unless empty slots are kept out
        values = data.draw(arrays(np.float64, (dim, num_modules), elements=elements))
        values[:, data.draw(arrays(bool, num_modules))] = 0.0
        count = data.draw(st.one_of(st.just(num_modules), st.integers(1, num_modules)))
        first = data.draw(st.integers(-2 * num_modules, 2 * num_modules))
        ids, indptr = net._find_winners(values, first, count)
        assert_winner_sets(ids, indptr)
        want = as_winner_sets(reference_winners(net, subword_matrix(values), first, count))
        assert (ids.tobytes(), indptr.tobytes()) == (want[0].tobytes(), want[1].tobytes())

    def test_shifts_without_a_winner_are_empty_rows(self):
        # Module m holds e_m (class 0) and e_(m-3) (class 1), so the class-0
        # probe's subwords win at shift 0 only of -2..2.
        eye = np.eye(6)
        net = LamstarNetwork(6, 6, 2)
        train(net, [IrisTemplate(eye), IrisTemplate(np.roll(eye, 3, axis=1))], [0, 1])
        ids, indptr = net._find_winners(eye, -2, 5)
        assert_winner_sets(ids, indptr)
        assert np.diff(indptr).tolist() == [0, 0, 6, 0, 0]
        assert ids.tolist() == net.decision.offsets[:-1].tolist()
        pred, at_zero = (classify(net, IrisTemplate(eye), r) for r in (2, 0))
        assert (pred.class_index, pred.shift) == (at_zero.class_index, 0) == (0, 0)
        assert pred.scores.tobytes() == at_zero.scores.tobytes()


class TestClassify:
    def trained_net(self):
        rng = np.random.default_rng(7)
        base = rng.random((2, 4, 12))
        templates, labels = [], []
        for c in range(2):
            for _ in range(3):
                templates.append(IrisTemplate(np.clip(base[c] + rng.normal(0, 0.003, base[c].shape), 0, 1)))
                labels.append(c)
        net = LamstarNetwork(12, 4, 2)
        train(net, templates, labels)
        return net, templates, labels

    def test_training_templates_recalled(self):
        net, templates, labels = self.trained_net()
        for t, label in zip(templates, labels):
            assert classify(net, t, shift_range=0).class_index == label

    def test_all_zero_template_abstains_everywhere(self):
        net, _, _ = self.trained_net()
        pred = classify(net, IrisTemplate(np.zeros((4, 12))))
        assert pred.class_index == 0
        np.testing.assert_array_equal(pred.scores, np.zeros(2))

    @pytest.mark.parametrize("shift_range", [0, 3])
    def test_network_without_neurons(self, shift_range):
        # Trained on all-zero templates only, the network grows no neuron,
        # so its decision layer has no row and every shift scores zeros.
        net = LamstarNetwork(6, 4, 2)
        train(net, [IrisTemplate(np.zeros((4, 6)))] * 2, [0, 1])
        assert net.decision.weights.shape == (0, 2)
        probe = IrisTemplate(np.random.default_rng(13).random((4, 6)))
        pred = classify(net, probe, shift_range=shift_range)
        assert (pred.class_index, pred.shift) == (0, -shift_range)
        assert pred.scores.dtype == np.float64
        np.testing.assert_array_equal(pred.scores, np.zeros(2))

    def test_scipy_sparse_loaded_by_the_network(self, tmp_path):
        # In a fresh interpreter the network's own import loads scipy.sparse,
        # and a first classify there scores the same bytes as here.
        net, _, _ = self.trained_net()
        save_model(net, tmp_path / "m.lns")
        probe = np.random.default_rng(21).random((4, 12))
        np.save(tmp_path / "probe.npy", probe)
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from irislam.lamstar import classify, load_model
            loaded = "scipy.sparse" in sys.modules
            from irislam.normalization import IrisTemplate
            pred = classify(load_model(sys.argv[1]), IrisTemplate(np.load(sys.argv[2])), 3)
            print(loaded, pred.class_index, pred.shift, pred.scores.tobytes().hex())
        """)
        out = run_fresh(script, str(tmp_path / "m.lns"), str(tmp_path / "probe.npy"))
        pred = classify(load_model(tmp_path / "m.lns"), IrisTemplate(probe), 3)
        assert out.split() == ["True", str(pred.class_index), str(pred.shift),
                               pred.scores.tobytes().hex()]

    def test_shift_search_recovers_rotated_template(self):
        rng = np.random.default_rng(8)
        # smooth angular pattern so shifted columns stay recognizable
        ang = np.linspace(0, 2 * np.pi, 36, endpoint=False)
        templates, labels = [], []
        for c in range(3):
            base = 0.5 + 0.4 * np.sin(ang[None, :] * (c + 1) + np.linspace(0, 1, 6)[:, None])
            templates.append(IrisTemplate(np.clip(base, 0, 1)))
            labels.append(c)
        net = LamstarNetwork(36, 6, 3)
        train(net, templates, labels)
        rolled = IrisTemplate(np.roll(templates[2].values, 3, axis=1))
        assert classify(net, rolled, shift_range=8).class_index == 2

    def test_never_mutates_network(self):
        net, templates, _ = self.trained_net()
        neurons_before, counts_before = net.neurons.copy(), net.counts.copy()
        decision_before = net.decision.weights.copy()
        classify(net, templates[0], shift_range=4)
        np.testing.assert_array_equal(neurons_before, net.neurons)
        np.testing.assert_array_equal(counts_before, net.counts)
        np.testing.assert_array_equal(decision_before, net.decision.weights)

    def test_negative_shift_range_rejected(self):
        net, templates, _ = self.trained_net()
        with pytest.raises(ValueError, match="shift_range"):
            classify(net, templates[0], shift_range=-1)

    def test_shift_search_copies_no_window_per_module(self):
        # At the identify benchmark's size (480 modules of 20 dims, 7 neuron
        # slots) one classify at shift range 8 peaks below 1 MiB; a
        # (modules, dim, shifts) copy of the shift window alone takes 1.3 MB.
        rng = np.random.default_rng(27)
        base = rng.random((7, 20, 480))
        templates = [IrisTemplate(np.clip(b + rng.normal(0, 0.003, b.shape), 0, 1))
                     for b in base for _ in range(3)]
        net = LamstarNetwork(480, 20, 7)
        train(net, templates, [c for c in range(7) for _ in range(3)])
        assert net.neurons.shape == (480, 7, 20)
        probe = IrisTemplate(np.roll(templates[0].values, 5, axis=1))
        classify(net, probe, shift_range=8)  # makes the link matrix and loads scipy.sparse
        pred, peak = traced_peak(lambda: classify(net, probe, shift_range=8))
        assert (pred.class_index, pred.shift) == (0, -5)
        assert peak < 2**20

    def test_huge_shift_range_searches_each_rotation_once(self):
        net, templates, _ = self.trained_net()
        rng = np.random.default_rng(12)
        classify(net, templates[0])  # makes the link matrix and loads scipy.sparse
        for t in [*templates, IrisTemplate(rng.random((4, 12)))]:
            tracemalloc.start()
            try:
                pred = classify(net, t, shift_range=10**9)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            # a window of num_modules + 1 shifts covers every rotation
            _, _, scores = reference_classify(net, t, net.num_modules // 2)
            assert pred.scores.max() == scores.max()
            assert -10**9 <= pred.shift < -10**9 + net.num_modules

    def test_score_decomposition_rewalk(self):
        net, templates, _ = self.trained_net()
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = IrisTemplate(rng.random((4, 12)))
            pred = classify(net, t, shift_range=0)
            np.testing.assert_allclose(pred.scores, rewalk_scores(net, t), atol=1e-12)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_matches_per_shift_reference(self, normalized):
        net, _, _ = self.trained_net()
        rng = np.random.default_rng(11)
        probes = [IrisTemplate(rng.random((4, 12))) for _ in range(8)]
        probes.append(IrisTemplate(rng.random((4, 12)) * (np.arange(12) % 3 > 0)))
        # every shift of an all-zero or constant template scores the same
        ties = [IrisTemplate(np.zeros((4, 12))), IrisTemplate(np.full((4, 12), 0.5))]
        # below a threshold of 0 every nonzero column wins and only the
        # all-zero columns abstain
        for threshold in (0.95, -1.0):
            net.config = LamstarConfig(normalized=normalized, winner_threshold=threshold)
            for shift_range in range(4):
                for t in probes + ties:
                    pred = classify(net, t, shift_range=shift_range)
                    class_index, shift, scores = reference_classify(net, t, shift_range)
                    assert (pred.class_index, pred.shift) == (class_index, shift)
                    np.testing.assert_array_equal(pred.scores, scores)
                for t in ties:  # the first shift in ascending order wins a tie
                    assert classify(net, t, shift_range=shift_range).shift == -shift_range

    def test_link_scores_follow_variant_and_retraining(self):
        net, templates, labels = self.trained_net()
        rng = np.random.default_rng(12)
        probes = templates + [IrisTemplate(np.roll(t.values, 2, axis=1)) for t in templates]

        def check(variants):
            for normalized in variants:
                net.config = LamstarConfig(normalized=normalized)
                for t in probes:
                    pred = classify(net, t, shift_range=2)
                    class_index, shift, scores = reference_classify(net, t, 2)
                    assert (pred.class_index, pred.shift) == (class_index, shift)
                    assert pred.scores.tobytes() == scores.tobytes()

        check((False, True, False, True))
        # retraining grows neurons for the new templates and rebuilds the
        # decision layer; the first classify after it keeps the last variant
        more = [IrisTemplate(rng.random((4, 12))) for _ in range(2)]
        train(net, templates + more, labels + [0, 1])
        check((True, False))


    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([0.95, 0.5, -1.0]), st.booleans())
    def test_shift_window_matches_reference(self, data, threshold, normalized):
        # small trained networks, with shift windows up to past the ring
        # size, so the window wraps more than once
        num_modules = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(1, 4))
        num_classes = data.draw(st.integers(1, 3))
        elements = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
        values = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), dim, num_modules),
                                  elements=elements))
        # all-zero columns in every template leave those modules empty
        values[..., data.draw(arrays(bool, num_modules))] = 0.0
        labels = data.draw(st.lists(st.integers(0, num_classes - 1),
                                    min_size=len(values), max_size=len(values)))
        net = LamstarNetwork(num_modules, dim, num_classes,
                             LamstarConfig(winner_threshold=threshold, normalized=normalized))
        train(net, [IrisTemplate(v) for v in values], labels)
        if data.draw(st.booleans()):  # a rotated training template
            probe = np.roll(values[data.draw(st.integers(0, len(values) - 1))],
                            data.draw(st.integers(0, num_modules - 1)), axis=1)
        else:
            probe = data.draw(arrays(np.float64, (dim, num_modules), elements=elements))
        probe[:, data.draw(arrays(bool, num_modules))] = 0.0
        t = IrisTemplate(probe)
        shift_range = data.draw(st.integers(0, 2 * num_modules + 1))
        pred = classify(net, t, shift_range)
        class_index, shift, scores = reference_classify(net, t, shift_range)
        assert (pred.class_index, pred.shift) == (class_index, shift)
        assert pred.scores.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("normalized", [False, True])
    def test_outputs_pinned(self, seed11_templates, normalized):
        # every test eye of the seed-11 benchmark rotated by -5..5 columns,
        # classified at shift ranges 0 and 8
        train_t, labels, test_t = seed11_templates
        net = LamstarNetwork(480, 20, 4, LamstarConfig(normalized=normalized))
        train(net, train_t, labels)
        digest = hashlib.sha256()
        for shift_range in (0, 8):
            for t in test_t:
                for rotation in range(-5, 6):
                    pred = classify(net, IrisTemplate(np.roll(t.values, rotation, axis=1)), shift_range)
                    digest.update(np.array([pred.class_index, pred.shift], dtype="<i8").tobytes())
                    digest.update(pred.scores.astype("<f8").tobytes())
        assert digest.hexdigest() == CLASSIFY_SHA256[normalized]


class TestEffectiveWeight:
    def test_always_rewarded_link_caps_at_delta(self):
        delta = 0.05
        for n in (1, 10, 1000):
            layer = DecisionLayer([1], num_classes=1)
            layer.weights[0, 0] = n * delta
            layer.reward_counts[0, 0] = n
            assert layer.effective_matrix(True)[0, 0] == pytest.approx(delta)

    def test_untouched_key_is_zero(self):
        layer = DecisionLayer([2], num_classes=3)
        layer.weights[0, 0] = 0.3
        layer.reward_counts[0, 0] = 2
        for normalized in (False, True):
            eff = layer.effective_matrix(normalized)
            assert eff[1, 2] == 0.0
            assert np.count_nonzero(eff) == 1

    def test_missing_key_is_zero(self):
        # modules (2, 0, 1 neurons) own global rows 0-1 and 2; the empty
        # module owns none, and a fresh layer reads 0 everywhere
        layer = DecisionLayer([2, 0, 1], num_classes=3)
        assert layer.offsets.tolist() == [0, 2, 2, 3]
        for normalized in (False, True):
            np.testing.assert_array_equal(layer.effective_matrix(normalized), np.zeros((3, 3)))

    def test_mixed_updates_divided_by_reward_count(self):
        layer = DecisionLayer([1], num_classes=1)
        layer.weights[0, 0] = 0.15
        layer.reward_counts[0, 0] = 3
        assert layer.effective_matrix(True)[0, 0] == pytest.approx(0.05)
        assert layer.effective_matrix(False)[0, 0] == pytest.approx(0.15)


class TestModelFile:
    def test_roundtrip_predictions(self, tmp_path):
        rng = np.random.default_rng(10)
        templates = [IrisTemplate(rng.random((4, 10))) for _ in range(6)]
        labels = [i % 3 for i in range(6)]
        net = LamstarNetwork(10, 4, 3, LamstarConfig(normalized=True))
        train(net, templates, labels)
        p = tmp_path / "m.lns"
        save_model(net, p)
        back = load_model(p)
        assert back.num_modules == 10 and back.subword_dim == 4 and back.num_classes == 3
        assert back.config.normalized
        probe = IrisTemplate(rng.random((4, 10)))
        a = classify(net, probe, shift_range=2)
        b = classify(back, probe, shift_range=2)
        assert a.class_index == b.class_index
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_header_records_exactly_the_lns1_settings(self, tmp_path):
        # With every field off its default, the loaded model holds the saved
        # value of each field LNS1_SETTINGS names and the default of the rest.
        cfg = LamstarConfig(learning_rate=0.5, winner_threshold=0.9, convergence_target=0.99,
                            max_update_iters=7, delta=0.1, normalized=True, epochs=3)
        default = LamstarConfig()
        names = [f.name for f in fields(LamstarConfig)]
        assert all(getattr(cfg, name) != getattr(default, name) for name in names)
        assert set(lamstar.LNS1_SETTINGS) <= set(names)
        templates, labels = toy_templates()
        net = LamstarNetwork(2, 2, 2, cfg)
        train(net, templates, labels)
        save_model(net, tmp_path / "m.lns")
        back = load_model(tmp_path / "m.lns").config
        for name in names:
            kept = cfg if name in lamstar.LNS1_SETTINGS else default
            assert getattr(back, name) == getattr(kept, name), name

    def test_save_is_deterministic(self, tmp_path):
        templates, labels = toy_templates()
        files = []
        for i in range(2):
            net = LamstarNetwork(2, 2, 2)
            train(net, templates, labels)
            p = tmp_path / f"m{i}.lns"
            save_model(net, p)
            files.append(p.read_bytes())
        assert files[0] == files[1]

    def test_corrupt_trailer_rejected(self, tmp_path):
        templates, labels = toy_templates()
        net = LamstarNetwork(2, 2, 2)
        train(net, templates, labels)
        p = tmp_path / "m.lns"
        save_model(net, p)
        data = bytearray(p.read_bytes())
        data[-1] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.lns"
        p.write_bytes(b"LNSX 1 1 1 0 0.05 0.95\n" + bytes(16))
        with pytest.raises(FormatError):
            load_model(p)

    def toy_model_bytes(self, tmp_path) -> bytes:
        templates, labels = toy_templates()
        net = LamstarNetwork(2, 2, 2)
        train(net, templates, labels)
        save_model(net, tmp_path / "m.lns")
        return (tmp_path / "m.lns").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("module", 2), ("neuron", 2), ("cls", 2), ("rewards", 2**63),
    ])
    def test_record_out_of_range_rejected(self, tmp_path, field, value):
        data = bytearray(self.toy_model_bytes(tmp_path))
        # the toy network has 2 modules of 2 neurons and 2 classes; its
        # records are the 28-byte entries before the 8-byte trailer
        n_records = int.from_bytes(data[-8:], "little")
        first = len(data) - 8 - 28 * n_records
        offset, size = {"module": (0, 4), "neuron": (4, 4), "cls": (8, 4), "rewards": (20, 8)}[field]
        data[first + offset : first + offset + size] = value.to_bytes(size, "little")
        p = tmp_path / "bad.lns"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="out of range"):
            load_model(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("section", ["neuron", "link"])
    def test_non_finite_weight_rejected(self, tmp_path, section, value):
        data = bytearray(self.toy_model_bytes(tmp_path))
        n_records = int.from_bytes(data[-8:], "little")
        # the first neuron's first weight follows the header and module 0's
        # count; the first record's weight follows its three uint32 fields
        offset = {"neuron": data.index(b"\n") + 1 + 4,
                  "link": len(data) - 8 - 28 * n_records + 12}[section]
        data[offset : offset + 8] = np.float64(value).tobytes()
        p = tmp_path / "bad.lns"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{section} weight is not finite"):
            load_model(p)

    @pytest.mark.parametrize("bit, loads", [(0, True), (52, False), (61, False)],
                             ids=["last_mantissa_bit", "lowest_exponent_bit", "high_exponent_bit"])
    def test_neuron_norm_checked(self, tmp_path, bit, loads):
        data = bytearray(self.toy_model_bytes(tmp_path))
        # the first neuron is the unit vector (1, 0); its first weight
        # follows the header and module 0's count
        offset = data.index(b"\n") + 1 + 4
        first = np.frombuffer(bytes(data[offset : offset + 8]), dtype="<f8")[0]
        assert first == 1.0
        flipped = (np.float64(first).view(np.uint64) ^ np.uint64(1 << bit)).view(np.float64)
        data[offset : offset + 8] = flipped.astype("<f8").tobytes()
        p = tmp_path / "bad.lns"
        p.write_bytes(bytes(data))
        if loads:  # one ulp off unit, as rounding in training leaves it
            assert load_model(p).neurons[0, 0, 0] == flipped
        else:
            with pytest.raises(FormatError, match="not unit norm"):
                load_model(p)

    def test_truncated_neuron_block_rejected(self, tmp_path):
        data = self.toy_model_bytes(tmp_path)
        n_records = int.from_bytes(data[-8:], "little")
        blocks_end = len(data) - 8 - 28 * n_records
        p = tmp_path / "cut.lns"
        for cut in range(data.index(b"\n") + 1, blocks_end):
            p.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_model(p)

    @pytest.mark.parametrize("header", [
        b"LNS1 0 20 2 0 0.05 0.95", b"LNS1 1 0 2 0 0.05 0.95", b"LNS1 1 1 -1 0 0.05 0.95",
        b"LNS1 1000000000 20 2 0 0.05 0.95",
    ], ids=["zero_modules", "zero_dim", "negative_classes", "modules_exceed_file"])
    def test_bad_header_count_rejected_before_building(self, tmp_path, monkeypatch, header):
        def no_network(*args, **kwargs):
            raise AssertionError("LamstarNetwork built for a file that must be rejected")

        monkeypatch.setattr("irislam.lamstar.LamstarNetwork", no_network)
        p = tmp_path / "bad.lns"
        p.write_bytes(header + b"\n" + bytes(8))
        with pytest.raises(FormatError):
            load_model(p)

    def test_class_count_beyond_records_rejected_before_building(self, tmp_path, monkeypatch):
        def no_layer(*args, **kwargs):
            raise AssertionError("DecisionLayer built for a file that must be rejected")

        data = self.toy_model_bytes(tmp_path)
        nl = data.index(b"\n")
        fields = data[:nl].split()
        fields[3] = b"99999999"
        monkeypatch.setattr("irislam.lamstar.DecisionLayer", no_layer)
        p = tmp_path / "bad.lns"
        p.write_bytes(b" ".join(fields) + data[nl:])
        with pytest.raises(FormatError, match="classes"):
            load_model(p)

    @pytest.mark.parametrize("index, token", [
        (1, b"x"), (3, b"2.5"), (4, b"yes"), (6, b"high"),
        # non-finite winner threshold or delta, and delta <= 0
        (6, b"nan"), (6, b"inf"), (5, b"nan"), (5, b"inf"), (5, b"0.0"), (5, b"-0.05"),
    ])
    def test_non_numeric_header_field_rejected(self, tmp_path, index, token):
        data = self.toy_model_bytes(tmp_path)
        nl = data.index(b"\n")
        fields = data[:nl].split()
        fields[index] = token
        p = tmp_path / "bad.lns"
        p.write_bytes(b" ".join(fields) + data[nl:])
        with pytest.raises(FormatError):
            load_model(p)

    def test_untrained_network_creates_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="untrained"):
            save_model(LamstarNetwork(2, 2, 2), tmp_path / "m.lns")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()], ids=["disk_full", "interrupt"])
    def test_failed_save_keeps_the_previous_model(self, tmp_path, monkeypatch, error):
        old = self.toy_model_bytes(tmp_path)  # now at tmp_path / "m.lns"

        class FailsAfterHeader:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.writes += 1
                if self.writes > 1:
                    raise error
                return self.f.write(b)

        monkeypatch.setattr("irislam.lamstar.open", lambda *a, **k: FailsAfterHeader(open(*a, **k)),
                            raising=False)
        templates, labels = toy_templates()
        net = LamstarNetwork(2, 2, 2, LamstarConfig(normalized=True))  # other bytes than old
        train(net, templates, labels)
        with pytest.raises(type(error)):
            save_model(net, tmp_path / "m.lns")
        assert (tmp_path / "m.lns").read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.lns"]

    def sliced_model_bytes(self, tmp_path) -> bytes:
        """A trained model saved at tmp_path / "sliced.lns": 1627 neurons
        linked to all 16 classes, so its 26,032 records fill three slices
        and part of a fourth, in the writer (rows) and the reader alike."""
        rng = np.random.default_rng(2020)
        templates = [IrisTemplate(rng.standard_normal((4, 60))) for _ in range(30)]
        net = LamstarNetwork(60, 4, 16)
        train(net, templates, [i % 16 for i in range(30)])
        save_model(net, tmp_path / "sliced.lns")
        data = (tmp_path / "sliced.lns").read_bytes()
        rows, records = int(net.counts.sum()), int.from_bytes(data[-8:], "little")
        rows_per_slice = lamstar._SLICE_RECORDS // 16
        assert records > 3 * lamstar._SLICE_RECORDS and records % lamstar._SLICE_RECORDS
        assert rows > 3 * rows_per_slice and rows % rows_per_slice
        return data

    def test_bytes_across_slice_boundaries(self, tmp_path):
        data = self.sliced_model_bytes(tmp_path)
        assert hashlib.sha256(data).hexdigest() == SLICED_LNS1_SHA256
        save_model(load_model(tmp_path / "sliced.lns"), tmp_path / "again.lns")
        assert (tmp_path / "again.lns").read_bytes() == data

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.4])
    def test_sparse_layer_matches_the_whole_layer_writer(self, tmp_path, density):
        # 10 classes: each writer slice is 819 rows, not a whole number of
        # modules, and some modules have no neurons
        net = built_network(21, num_modules=30, dim=3, num_classes=10, max_neurons=200,
                            density=density)
        save_model(net, tmp_path / "m.lns")
        assert (tmp_path / "m.lns").read_bytes() == whole_layer_model_bytes(net)

    @pytest.mark.parametrize("field, offset, value", [
        ("cls", 8, (16).to_bytes(4, "little")), ("weight", 12, np.float64(np.nan).tobytes()),
    ])
    def test_corrupt_record_in_the_last_slice_rejected(self, tmp_path, monkeypatch, field, offset, value):
        def no_network(*args, **kwargs):
            raise AssertionError("LamstarNetwork built for a file that must be rejected")

        data = bytearray(self.sliced_model_bytes(tmp_path))
        last = len(data) - 8 - 28
        data[last + offset : last + offset + len(value)] = value
        (tmp_path / "bad.lns").write_bytes(bytes(data))
        monkeypatch.setattr("irislam.lamstar.LamstarNetwork", no_network)
        with pytest.raises(FormatError, match={"cls": "out of range", "weight": "not finite"}[field]):
            load_model(tmp_path / "bad.lns")

    def big_network(self) -> LamstarNetwork:
        """A network whose model file is about 5 MB, over 20 record slices."""
        return built_network(31, num_modules=40, dim=4, num_classes=64, max_neurons=150, density=1.0)

    def test_save_holds_one_slice_of_records(self, tmp_path):
        net = self.big_network()
        _, peak = traced_peak(lambda: save_model(net, tmp_path / "big.lns"))
        size = (tmp_path / "big.lns").stat().st_size
        assert size > 8 * lamstar._SLICE_RECORDS * 28
        assert peak < size / 4

    def test_load_holds_the_file_the_network_and_one_slice(self, tmp_path):
        save_model(self.big_network(), tmp_path / "big.lns")
        back, peak = traced_peak(lambda: load_model(tmp_path / "big.lns"))
        dec = back.decision
        network = sum(a.nbytes for a in (back.neurons, back.counts, dec.offsets,
                                         dec.weights, dec.reward_counts))
        # 1 MiB of slack: the neuron blocks (192 kB at most here) copied into
        # one buffer, and one slice's temporaries
        assert peak <= (tmp_path / "big.lns").stat().st_size + network + 2**20


def test_each_import_loads_only_what_it_runs():
    # The package root loads no stage, the rubber sheet not the Hough, and
    # no image stage loads scipy. The network loads no image code, and of
    # scipy only scipy.sparse, for classify. The harness loads no scipy
    # package the network does not.
    script = textwrap.dedent("""
        import json, sys
        loaded = []
        for name in sys.argv[1:]:
            __import__(name)
            loaded.append(sorted(m for m in sys.modules if m.split(".")[0] in ("irislam", "scipy")))
        print(json.dumps(loaded))
    """)
    images = ("irislam.normalization", "irislam.imaging", "irislam.segmentation",
              "irislam.synthdata")
    root, rubber_sheet, *_, every_image_stage, harness = json.loads(
        run_fresh(script, "irislam", *images, "irislam.harness"))
    [network] = json.loads(run_fresh(script, "irislam.lamstar"))
    assert root == ["irislam"]
    assert "irislam.segmentation" not in rubber_sheet
    assert set(images) <= set(every_image_stage)
    assert [m for m in every_image_stage if m.startswith("scipy")] == []
    assert [m for m in network if m.startswith("irislam")] == [
        "irislam", "irislam.errors", "irislam.files", "irislam.lamstar"]
    packages = {".".join(m.split(".")[:2]) for m in network if m.startswith("scipy.")}
    assert "scipy.sparse" in packages
    assert packages.isdisjoint({"scipy.ndimage", "scipy.fft", "scipy.special", "scipy.linalg"})
    assert [m for m in harness if m.startswith("scipy")] == [
        m for m in network if m.startswith("scipy")]


@pytest.mark.parametrize("call, message", [
    (lambda: DecisionLayer([1], num_classes=0), "num_classes must be positive"),
    (lambda: LamstarNetwork(0, 3, 2), "must be positive"),
    (lambda: LamstarNetwork(4, 0, 2), "must be positive"),
    (lambda: LamstarNetwork(4, 3, 0), "must be positive"),
    (lambda: train(LamstarNetwork(4, 3, 2), [IrisTemplate(np.ones((3, 4)))], [0, 1]),
     "same length"),
    (lambda: train(LamstarNetwork(4, 3, 2), [], []), "training set is empty"),
    (lambda: classify(LamstarNetwork(4, 3, 2), IrisTemplate(np.ones((3, 4)))),
     "has not been trained"),
], ids=["decision_without_classes", "no_modules", "no_subword_rows", "no_classes",
        "train_lengths_differ", "train_empty", "classify_untrained"])
def test_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 0, "lamstar.epochs must be >= 1, got 0"),
    ("delta", 0.0, "lamstar.delta must be finite and > 0, got 0.0"),
    ("delta", float("nan"), "lamstar.delta must be finite and > 0, got nan"),
    ("learning_rate", float("nan"), "lamstar.learning_rate must be in (0, 1], got nan"),
    ("learning_rate", 1.5, "lamstar.learning_rate must be in (0, 1], got 1.5"),
    ("winner_threshold", float("nan"), "lamstar.winner_threshold must be finite and <= 1, got nan"),
    ("winner_threshold", 1.5, "lamstar.winner_threshold must be finite and <= 1, got 1.5"),
    ("convergence_target", float("inf"), "lamstar.convergence_target must be finite, got inf"),
    ("max_update_iters", -1, "lamstar.max_update_iters must be >= 1, got -1"),
])
def test_config_range_errors(field, value, message):
    # the messages a config file's out-of-range lamstar.* value exits 3 with
    with pytest.raises(ConfigError) as exc:
        LamstarConfig(**{field: value})
    assert str(exc.value) == message
