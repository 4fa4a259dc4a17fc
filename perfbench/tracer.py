"""In-memory span tracer that times irislam's public functions from outside.

Tracing never edits the library. `install` rebinds each traced function in
every loaded irislam module whose namespace holds it (a `from x import y`
binding is per module, so patching only the defining module would miss the
callers), plus `DecisionLayer.effective_matrix` on its class. Each call
becomes one span: name, start, end, parent span and the current item (an
image stem, a variant name or a probe index). Counters that a layer's
inputs or results reveal are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from irislam import harness, imaging, lamstar, normalization, segmentation
from irislam.errors import LocalizationError

# Per-layer metric names, each with its unit. Every traced run emits all of
# them; a layer the workload does not reach reads 0.
PER_LAYER_UNITS = {
    "imaging.load_gray_image_ms": "ms",
    "imaging.gaussian_smooth_ms": "ms",
    "imaging.compute_gradient_ms": "ms",
    "imaging.weight_vertical_gradient_ms": "ms",
    "segmentation.hough_outer_ms": "ms",
    "segmentation.hough_pupil_ms": "ms",
    "segmentation.non_max_suppression_ms": "ms",
    "segmentation.hysteresis_threshold_ms": "ms",
    "segmentation.localize_iris_self_ms": "ms",
    "segmentation.edge_px_outer": "count",
    "segmentation.edge_px_inner": "count",
    "segmentation.hough_radii": "count",
    "segmentation.localize_failed": "count",
    "normalization.unwrap_ms": "ms",
    "normalization.save_template_ms": "ms",
    "normalization.load_template_ms": "ms",
    "harness.cache_misses": "count",
    "harness.cache_hits": "count",
    "harness.run_train_self_ms": "ms",
    "harness.run_eval_self_ms": "ms",
    "harness.write_report_ms": "ms",
    "lamstar.som_present_ms": "ms",
    "lamstar.som_present_calls": "count",
    "lamstar.decision_ms": "ms",
    "lamstar.epochs_run": "count",
    "lamstar.neurons_total": "count",
    "lamstar.neurons_max": "count",
    "lamstar.save_model_ms": "ms",
    "lamstar.load_model_ms": "ms",
    "lamstar.model_bytes": "bytes",
    "lamstar.classify_ms": "ms",
    "lamstar.classify_ms_p50": "ms",
    "lamstar.classify_ms_p99": "ms",
    "lamstar.effective_matrix_ms": "ms",
    "lamstar.shifts_tried": "count",
    "lamstar.nonzero_shift_frac": "fraction",
    "synthdata.make_benchmark_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

# Total time of every span with this name -> metric.
_TOTAL_MS = {
    "imaging.load_gray_image": "imaging.load_gray_image_ms",
    "imaging.gaussian_smooth": "imaging.gaussian_smooth_ms",
    "imaging.compute_gradient": "imaging.compute_gradient_ms",
    "imaging.weight_vertical_gradient": "imaging.weight_vertical_gradient_ms",
    "segmentation.hough_outer": "segmentation.hough_outer_ms",
    "segmentation.hough_pupil": "segmentation.hough_pupil_ms",
    "segmentation.non_max_suppression": "segmentation.non_max_suppression_ms",
    "segmentation.hysteresis_threshold": "segmentation.hysteresis_threshold_ms",
    "normalization.unwrap": "normalization.unwrap_ms",
    "normalization.save_template": "normalization.save_template_ms",
    "normalization.load_template": "normalization.load_template_ms",
    "harness.write_report": "harness.write_report_ms",
    "lamstar.som_present": "lamstar.som_present_ms",
    "lamstar.save_model": "lamstar.save_model_ms",
    "lamstar.load_model": "lamstar.load_model_ms",
    "lamstar.classify": "lamstar.classify_ms",
    "lamstar.effective_matrix": "lamstar.effective_matrix_ms",
}

# Self time (duration minus the time covered by traced children) -> metric.
_SELF_MS = {
    "segmentation.localize_iris": "segmentation.localize_iris_self_ms",
    "harness.run_train": "harness.run_train_self_ms",
    "harness.run_eval": "harness.run_eval_self_ms",
    "lamstar.train": "lamstar.decision_ms",
}


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters of one traced unit of work, kept in memory."""

    def __init__(self):
        # Each span is [name, start, end, parent index, item].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, before=None, after=None):
        """`before(args, kwargs)` may return a span name that replaces
        `name`; `after(args, kwargs, result)` sees a successful result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = (before(args, kwargs) if before else None) or name
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except LocalizationError:
                if span_name == "segmentation.localize_iris":
                    self.counts["segmentation.localize_failed"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, fn, name, before=None, after=None):
        """Rebind `fn` wherever an irislam module holds it."""
        wrapped = self._wrap(fn, name, before, after)
        for key, module in list(sys.modules.items()):
            if key != "irislam" and not key.startswith("irislam."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, wrapped)
        return wrapped

    # --- count hooks -----------------------------------------------------

    def _hough_before(self, args, kwargs):
        edges = _arg(args, kwargs, 0, "edges")
        r_min = _arg(args, kwargs, 1, "r_min")
        r_max = _arg(args, kwargs, 2, "r_max")
        outer = _arg(args, kwargs, 3, "center_search") is None
        self.counts["segmentation.edge_px_outer" if outer else "segmentation.edge_px_inner"] += \
            int(edges.edges.sum())
        self.counts["segmentation.hough_radii"] += r_max - r_min + 1
        return "segmentation.hough_outer" if outer else "segmentation.hough_pupil"

    def _item_before(self, args, kwargs):
        self.item = Path(_arg(args, kwargs, 0, "path")).stem
        return None

    def _cache_hit_before(self, args, kwargs):
        self.counts["harness.cache_hits"] += 1
        return self._item_before(args, kwargs)

    def _cache_miss_before(self, args, kwargs):
        self.counts["harness.cache_misses"] += 1
        return self._item_before(args, kwargs)

    def _train_after(self, args, kwargs, log):
        self.counts["lamstar.epochs_run"] += log.epochs_run
        self.counts["lamstar.neurons_total"] += sum(log.neuron_counts)
        self.counts["lamstar.neurons_max"] = max(self.counts["lamstar.neurons_max"],
                                                 max(log.neuron_counts))

    def _model_bytes(self, path) -> None:
        size = Path(path).stat().st_size
        self.counts["lamstar.model_bytes"] = max(self.counts["lamstar.model_bytes"], size)

    def _save_model_after(self, args, kwargs, result):
        self._model_bytes(_arg(args, kwargs, 1, "path"))

    def _load_model_after(self, args, kwargs, result):
        self._model_bytes(_arg(args, kwargs, 0, "path"))

    def _classify_after(self, args, kwargs, pred):
        shift_range = _arg(args, kwargs, 2, "shift_range", 0)
        self.counts["lamstar.shifts_tried"] += 2 * shift_range + 1
        self.counts["lamstar.classify_calls"] += 1
        self.counts["lamstar.nonzero_shifts"] += pred.shift != 0

    def install(self) -> None:
        """Patch every traced entry point."""
        p = self._patch
        p(imaging.load_gray_image, "imaging.load_gray_image")
        p(imaging.gaussian_smooth, "imaging.gaussian_smooth")
        p(imaging.compute_gradient, "imaging.compute_gradient")
        p(imaging.weight_vertical_gradient, "imaging.weight_vertical_gradient")
        p(segmentation.non_max_suppression, "segmentation.non_max_suppression")
        p(segmentation.hysteresis_threshold, "segmentation.hysteresis_threshold")
        p(segmentation.circular_hough, "segmentation.hough", before=self._hough_before)
        p(segmentation.localize_iris, "segmentation.localize_iris")
        p(normalization.unwrap, "normalization.unwrap")
        p(normalization.save_template, "normalization.save_template")
        # The harness's own binding of load_template is a template-cache hit.
        load_template = normalization.load_template
        self._originals.append((harness, "load_template", load_template))
        harness.load_template = self._wrap(load_template, "normalization.load_template",
                                           before=self._cache_hit_before)
        p(load_template, "normalization.load_template")
        p(harness.compute_template, "harness.compute_template", before=self._cache_miss_before)
        p(harness.run_train, "harness.run_train")
        p(harness.run_eval, "harness.run_eval")
        p(harness.write_report, "harness.write_report")
        p(lamstar.som_present, "lamstar.som_present")
        p(lamstar.train, "lamstar.train", after=self._train_after)
        p(lamstar.classify, "lamstar.classify", after=self._classify_after)
        p(lamstar.save_model, "lamstar.save_model", after=self._save_model_after)
        p(lamstar.load_model, "lamstar.load_model", after=self._load_model_after)
        effective_matrix = lamstar.DecisionLayer.effective_matrix
        self._originals.append((lamstar.DecisionLayer, "effective_matrix", effective_matrix))
        lamstar.DecisionLayer.effective_matrix = self._wrap(effective_matrix,
                                                            "lamstar.effective_matrix")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # --- derived metrics -------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, self times and counts (times in ms)."""
        out = {name: 0 if unit in ("count", "bytes") else 0.0
               for name, unit in PER_LAYER_UNITS.items()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        classify_ms = []
        for i, (name, start, end, _, _) in enumerate(self.spans):
            dur_ms = (end - start) * 1e3
            if name in _TOTAL_MS:
                out[_TOTAL_MS[name]] += dur_ms
            if name in _SELF_MS:
                out[_SELF_MS[name]] += dur_ms - child_time[i] * 1e3
            if name == "lamstar.classify":
                classify_ms.append(dur_ms)
            elif name == "lamstar.som_present":
                out["lamstar.som_present_calls"] += 1
        if len(classify_ms) > 1:
            out["lamstar.classify_ms_p50"] = statistics.median(classify_ms)
            out["lamstar.classify_ms_p99"] = statistics.quantiles(classify_ms, n=100)[98]
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        calls = self.counts["lamstar.classify_calls"]
        out["lamstar.nonzero_shift_frac"] = self.counts["lamstar.nonzero_shifts"] / calls if calls else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: [name, start_s, end_s, parent, item]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

