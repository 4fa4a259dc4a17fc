"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
passing runs). The numbered criteria pin down tolerances, sample sizes
and runtime budgets for the whole pipeline, from the geometry oracles up
to the end-to-end synthetic benchmark.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from irislam.harness import (
    HarnessConfig,
    compare_variants,
    index_dataset,
    run_eval,
)
from irislam.lamstar import (
    DecisionLayer,
    LamstarConfig,
    classify,
    load_model,
    som_present,
    train,
)
from irislam.lamstar import LamstarNetwork
from irislam.normalization import IrisTemplate, radial_extents, unwrap
from irislam.segmentation import (
    Circle,
    IrisLocalization,
    hysteresis_threshold,
    localize_iris,
)
from irislam.synthdata import make_benchmark, render_eye, write_dataset


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {detail}"


def random_localization(rng: np.random.Generator) -> IrisLocalization:
    icx, icy = rng.uniform(100, 200), rng.uniform(100, 200)
    r1 = rng.uniform(90, 150)
    pr = rng.uniform(25, 0.6 * r1)
    off = rng.uniform(0.0, 0.9 * (r1 - pr))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return IrisLocalization(
        pupil=Circle(icx + off * math.cos(ang), icy + off * math.sin(ang), pr),
        iris=Circle(icx, icy, r1),
    )


def bisect_outer_radius(loc: IrisLocalization, theta: float) -> float:
    """Distance from the pupil center to the iris circle along the ray,
    found by bisection on the signed distance to the circle."""
    ux, uy = math.cos(theta), math.sin(theta)
    px, py = loc.pupil.cx, loc.pupil.cy

    def f(r: float) -> float:
        return math.hypot(px + r * ux - loc.iris.cx, py + r * uy - loc.iris.cy) - loc.iris.r

    lo, hi = 0.0, 2.0 * loc.iris.r + math.hypot(*loc.offset)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGeometry:
    def test_criterion_1_radial_extent_matches_bisection(self):
        rng = np.random.default_rng(41)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            loc = random_localization(rng)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            got = radial_extents(loc, theta)
            worst = max(worst, abs(got - bisect_outer_radius(loc, theta)))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 1.0
        verdict(1, ok, f"1000 ray-circle extents vs bisection, "
                       f"worst |diff| {worst:.2e} (<=1e-9), {elapsed:.2f} s (<1 s)")

    def test_criterion_2_concentric_extent_is_iris_radius(self):
        rng = np.random.default_rng(42)
        exact = True
        for r1 in [110.0, 95.25, *rng.uniform(90, 150, 4)]:
            loc = IrisLocalization(pupil=Circle(160.0, 140.0, 40.0),
                                   iris=Circle(160.0, 140.0, float(r1)))
            for j in range(360):
                theta = 2.0 * math.pi * j / 360
                if radial_extents(loc, theta) != loc.iris.r:
                    exact = False
        verdict(2, exact, "concentric circles give r' == iris radius exactly, "
                          "360 angles x 6 radii")


class TestSegmentationGate:
    def test_criterion_3_hough_recovers_synthetic_circles(self):
        train_eyes, test_eyes = make_benchmark(10, 4, 1, seed=23, noise_sigma=0.02)
        eyes = train_eyes + test_eyes
        assert len(eyes) == 50
        start = time.perf_counter()
        hits = 0
        for eye in eyes:
            loc = localize_iris(eye.image)
            s = eye.spec
            errs = [loc.pupil.cx - s.pupil.cx, loc.pupil.cy - s.pupil.cy,
                    loc.pupil.r - s.pupil.r, loc.iris.cx - s.iris.cx,
                    loc.iris.cy - s.iris.cy, loc.iris.r - s.iris.r]
            if max(abs(e) for e in errs) <= 2.0:
                hits += 1
        elapsed = time.perf_counter() - start
        ok = hits >= 48 and elapsed < 60.0
        verdict(3, ok, f"both circles within 2 px on {hits}/50 noisy eyes "
                       f"(>=48), {elapsed:.1f} s (<60 s)")

    def test_criterion_4_hysteresis_straddling_chain(self):
        def chain_magnitude(break_value=None):
            mag = np.zeros((9, 9))
            mag[4, 0] = 0.25
            for y, x in [(4, 1), (4, 2), (3, 3), (4, 4), (5, 5), (4, 6), (4, 7)]:
                mag[y, x] = 0.195
            if break_value is not None:
                mag[4, 4] = break_value
            return mag

        whole = hysteresis_threshold(chain_magnitude(), 0.2, 0.19)
        ok = bool(np.array_equal(whole.edges, chain_magnitude() >= 0.19))
        broken = hysteresis_threshold(chain_magnitude(break_value=0.18), 0.2, 0.19)
        ok &= bool(broken.edges[4, 0] and broken.edges[4, 2] and broken.edges[3, 3])
        ok &= not (broken.edges[4, 4] or broken.edges[5, 5]
                   or broken.edges[4, 6] or broken.edges[4, 7])
        verdict(4, ok, "0.25 seed pulls the 0.195 chain at thresholds (0.2, 0.19); "
                       "a 0.18 link severs everything beyond it")


class TestSomGate:
    def test_criterion_5_som_invariants_randomized(self):
        rng = np.random.default_rng(57)
        cfg = LamstarConfig()
        start = time.perf_counter()
        ok = True

        for _ in range(4000):  # fixed point: presenting a stored vector is a no-op
            s = rng.normal(size=6)
            s /= np.linalg.norm(s)
            net = LamstarNetwork(1, 6, 1, cfg)
            net.neurons[0, 0], net.counts[0] = s, 1
            winner, created = som_present(net, 0, s)
            ok &= winner == 0 and not created
            ok &= float(np.abs(net.neurons[0, 0] - s).max()) <= 1e-12

        for _ in range(3000):  # growth bound: neurons <= distinct subwords
            p = int(rng.integers(1, 5))
            pool = [rng.normal(size=6) for _ in range(p)]
            pool = [s / np.linalg.norm(s) for s in pool]
            picks = rng.integers(0, p, size=6)
            net = LamstarNetwork(1, 6, 1, cfg)
            for i in picks:
                som_present(net, 0, pool[i])
            distinct = len(set(picks.tolist()))
            ok &= net.counts[0] <= distinct
            if distinct == 1:
                ok &= net.counts[0] == 1

        for _ in range(3000):  # contraction: each pull shrinks 1 - dot by >= 5x
            w = rng.normal(size=6)
            w /= np.linalg.norm(w)
            s = rng.normal(size=6)
            s /= np.linalg.norm(s)
            k = int(rng.integers(1, 6))
            gap0 = 1.0 - float(w @ s)
            for _ in range(k):
                w = w + 0.8 * (s - w)
                w /= np.linalg.norm(w)
            ok &= 1.0 - float(w @ s) <= 0.2**k * gap0 + 1e-12

        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 10.0
        verdict(5, ok, f"fixed-point, growth-bound and 0.2^k contraction over "
                       f"10000 trials, {elapsed:.1f} s (<10 s)")

    def test_criterion_6_normalized_cap_is_exact(self):
        delta = 0.05
        ok = True
        for n in (1, 10, 1000):
            layer = DecisionLayer([1], num_classes=2)
            layer.weights[0, 0] = n * delta
            layer.reward_counts[0, 0] = n
            ok &= layer.effective_matrix(True)[0, 0] == delta
        verdict(6, ok, "link rewarded n times (n in 1, 10, 1000), never punished: "
                       "normalized effective weight == delta exactly")


@pytest.fixture(scope="class")
def benchmark_runs(tmp_path_factory):
    """16 classes x (5 train + 3 test) on disk, both classifier variants
    trained and evaluated twice, plus shift-8 evaluations."""
    root = tmp_path_factory.mktemp("acceptance_bench")
    data = root / "eyes"
    data.mkdir()
    train_eyes, test_eyes = make_benchmark(16, 5, 3, seed=11)
    write_dataset(data, train_eyes + test_eyes)
    cfg = HarnessConfig(train_per_class=5)
    index = index_dataset(data, cfg.train_per_class)

    start = time.perf_counter()
    first = compare_variants(index, cfg, root / "run1")
    cfg8 = replace(cfg, shift_range=8)
    shift8 = [run_eval(r.model_path, index, cfg8) for r in first]
    elapsed = time.perf_counter() - start

    second = compare_variants(index, cfg, root / "run2")
    return {
        "root": root,
        "test_eyes": test_eyes,
        "first": first,
        "second": second,
        "shift8": shift8,
        "elapsed": elapsed,
    }


class TestEndToEnd:
    def test_criterion_7_benchmark_accuracy(self, benchmark_runs):
        b = benchmark_runs
        acc0 = [r.report.accuracy for r in b["first"]]
        acc8 = [r.accuracy for r in b["shift8"]]
        ok = all(a >= 0.95 for a in acc0) and all(a >= 0.98 for a in acc8)
        ok = ok and b["elapsed"] < 120.0
        verdict(7, ok, f"16x(5+3) benchmark: shift 0 accuracy "
                       f"{acc0[0]:.3f}/{acc0[1]:.3f} (>=0.95), shift 8 "
                       f"{acc8[0]:.3f}/{acc8[1]:.3f} (>=0.98), "
                       f"{b['elapsed']:.1f} s (<120 s)")

    def test_criterion_8_rotated_probes(self, benchmark_runs):
        # uses the normalized variant, the stronger classifier of the two
        b = benchmark_runs
        net = load_model(b["first"][1].model_path)
        rotation = 3 * 2.0 * math.pi / 480  # exactly three template columns
        total = correct = 0
        for eye in b["test_eyes"]:
            img = render_eye(replace(eye.spec, rotation=rotation))
            t = unwrap(img, localize_iris(img))
            pred = classify(net, t, shift_range=8)
            total += 1
            correct += pred.class_index == eye.class_id
        ok = total == 48 and correct / total >= 0.95
        verdict(8, ok, f"probes rotated by 3 columns, shift range 8: "
                       f"{correct}/{total} correct (>=95%)")

    def test_criterion_9_determinism(self, benchmark_runs):
        b = benchmark_runs
        ok = True
        for r1, r2 in zip(b["first"], b["second"]):
            ok &= r1.model_path.read_bytes() == r2.model_path.read_bytes()
            kv1 = b["root"] / "run1" / f"{r1.name}_report.kv"
            kv2 = b["root"] / "run2" / f"{r2.name}_report.kv"
            ok &= kv1.read_bytes() == kv2.read_bytes()
        verdict(9, ok, "two full comparison runs: model files and machine "
                       "reports byte-identical")


class TestScoreAudit:
    def test_criterion_10_score_decomposition(self):
        rng = np.random.default_rng(73)
        templates = [IrisTemplate(rng.random((8, 24))) for _ in range(18)]
        labels = [i % 6 for i in range(18)]
        net = LamstarNetwork(24, 8, 6, LamstarConfig(normalized=True))
        train(net, templates, labels)

        worst = 0.0
        for _ in range(100):
            t = IrisTemplate(rng.random((8, 24)))
            pred = classify(net, t, shift_range=2)
            shifted = np.roll(t.values, pred.shift, axis=1)
            rewalk = np.zeros(net.num_classes)
            for m in range(net.num_modules):
                norm = np.linalg.norm(shifted[:, m])
                if norm < 1e-12 or net.counts[m] == 0:
                    continue
                dots = net.neurons[m, : net.counts[m]] @ (shifted[:, m] / norm)
                winner = int(np.argmax(dots))
                if dots[winner] < net.config.winner_threshold:
                    continue
                gid = int(net.counts[:m].sum()) + winner
                for c in range(net.num_classes):
                    w = net.decision.weights[gid, c]
                    if net.config.normalized:
                        w /= max(1, net.decision.reward_counts[gid, c])
                    rewalk[c] += w
            worst = max(worst, float(np.abs(pred.scores - rewalk).max()))
        ok = worst <= 1e-12
        verdict(10, ok, f"100 classifications vs independent score re-walk, "
                        f"worst |diff| {worst:.2e} (<=1e-12)")
