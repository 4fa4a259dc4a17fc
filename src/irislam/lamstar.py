"""Winner-take-all LAMSTAR-style classifier.

Each template column is a subword handled by its own SOM module: a
dynamically grown set of unit-norm neuron weight vectors, kept for all
modules in one padded store on the network. A subword's
winner is the neuron with the highest dot product, provided it clears the
winner threshold; otherwise a new neuron is created from the subword
(training) or the module abstains (inference). A zero-initialized
decision layer links winning neurons to classes and is trained by
punishment/reward increments. The normalized variant reads each link
weight divided by its reward count, capping growth of links that win
often.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from irislam.errors import FormatError
from irislam.normalization import IrisTemplate

_ZERO_NORM_EPS = 1e-12


@dataclass(frozen=True)
class LamstarConfig:
    learning_rate: float = 0.8  # alpha in w <- w + alpha*(s - w)
    winner_threshold: float = 0.95  # minimum dot product to claim a winner
    convergence_target: float = 0.9999  # stop pulling the winner once dot >= this
    max_update_iters: int = 100
    delta: float = 0.05  # reward/punishment increment
    normalized: bool = False  # divide link weights by reward counts when scoring
    epochs: int = 10


def subword_matrix(values: np.ndarray) -> np.ndarray:
    """Template columns as unit-norm subwords: a (num_columns, dim) matrix
    in column order. A (near-)zero column becomes the all-zero vector."""
    cols = values.T.astype(np.float64, copy=True)
    norms = np.linalg.norm(cols, axis=1)
    zero = norms < _ZERO_NORM_EPS
    cols[zero] = 0.0
    cols[~zero] /= norms[~zero, None]
    return cols


class DecisionLayer:
    """Link weights from (module, neuron) pairs to classes.

    Backed by dense arrays over globally numbered neurons; all weights and
    reward counts start at zero.
    """

    def __init__(self, neuron_counts: list[int], num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        self.num_classes = num_classes
        # Module m owns global rows offsets[m] to offsets[m + 1].
        self.offsets = np.concatenate([[0], np.cumsum(neuron_counts)]).astype(np.int64)
        total = int(self.offsets[-1])
        self.weights = np.zeros((total, num_classes), dtype=np.float64)
        self.reward_counts = np.zeros((total, num_classes), dtype=np.int64)

    def effective_matrix(self, normalized: bool, rows=slice(None)) -> np.ndarray:
        """Link weights of the given global neuron rows by class; the
        normalized variant divides each by its reward count (at least 1)."""
        if normalized:
            return self.weights[rows] / np.maximum(1, self.reward_counts[rows])
        return self.weights[rows]


@dataclass
class Prediction:
    class_index: int
    scores: np.ndarray  # per-class sums of effective link weights
    shift: int = 0  # the cyclic column shift that produced the best score


@dataclass
class TrainingLog:
    neuron_counts: list[int]
    epoch_errors: list[int]
    train_seconds: float

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_errors)


class LamstarNetwork:
    """One SOM module per template column plus the decision layer.

    Module m's neurons are neurons[m, :counts[m]]. The store's capacity
    (its second axis) is max(1, counts.max()), and the slots past a
    module's count hold zeros.
    """

    def __init__(self, num_modules: int, subword_dim: int, num_classes: int,
                 config: LamstarConfig = LamstarConfig()):
        if num_modules < 1 or subword_dim < 1 or num_classes < 1:
            raise ValueError("num_modules, subword_dim and num_classes must be positive")
        self.num_modules = num_modules
        self.subword_dim = subword_dim
        self.num_classes = num_classes
        self.config = config
        self.neurons = np.zeros((num_modules, 1, subword_dim))
        self.counts = np.zeros(num_modules, dtype=np.int64)
        self.decision: DecisionLayer | None = None  # set by _freeze
        self._links: tuple[bool, np.ndarray] | None = None  # (variant, matrix), by _link_scores

    def _check_template(self, t: IrisTemplate) -> None:
        if t.radial_res != self.subword_dim or t.angular_res != self.num_modules:
            raise ValueError(
                f"template {t.radial_res}x{t.angular_res} does not match network "
                f"{self.subword_dim}x{self.num_modules}"
            )

    def _freeze(self) -> None:
        """End neuron growth: create the zeroed decision layer, whose global
        neuron order is the store's row-major order, and mark the store's
        occupied slots for the winner search."""
        self.decision = DecisionLayer(self.counts, self.num_classes)
        self._valid = np.arange(self.neurons.shape[1]) < self.counts[:, None]
        self._links = None

    def _link_scores(self) -> np.ndarray:
        """Effective link weights (neurons x classes) of config's current
        variant, computed on first use after _freeze and again only when
        config switches variant."""
        variant = self.config.normalized
        if self._links is None or self._links[0] != variant:
            self._links = (variant, self.decision.effective_matrix(variant))
        return self._links[1]

    def _find_winners(self, cols: np.ndarray, shifts: np.ndarray | list[int]) -> np.ndarray:
        """Global neuron id of the winner per shift and module, shape
        (len(shifts), num_modules), -1 for abstentions. cols is the
        (num_modules, dim) subword matrix of unit or all-zero rows; module
        m at shift s reads row (m - s) % num_modules, as
        np.roll(values, s, axis=1) places it. An all-zero row abstains."""
        index = (np.arange(self.num_modules)[:, None] - shifts) % self.num_modules
        # Each module's window as one contiguous (dim, shifts) operand: one
        # product per module. With one shift it is the (dim, 1) product
        # train has always made, so the order each dot is summed in, and
        # with it the trained model, does not depend on the caller.
        window = np.ascontiguousarray(cols[index].transpose(0, 2, 1))
        dots = np.matmul(self.neurons, window)  # (modules, capacity, shifts)
        dots[~self._valid] = -np.inf
        winner = np.argmax(dots, axis=1)
        top = np.take_along_axis(dots, winner[:, None], axis=1)[:, 0]
        ok = (top >= self.config.winner_threshold) & cols.any(axis=1)[index]
        return np.where(ok, self.decision.offsets[:-1, None] + winner, -1).T


def som_present(net: LamstarNetwork, m: int, s: np.ndarray) -> tuple[int | None, bool]:
    """Present one unit-norm subword to module m during training.

    Returns (winner index, created). The best-matching neuron wins if its
    dot product clears winner_threshold (ties go to the lowest index) and
    is pulled toward the subword by w <- w + alpha*(s - w) (renormalized
    each step) until its dot product reaches convergence_target;
    otherwise a new neuron equal to the subword is appended, and when
    module m is full every module first gains one zero slot. The all-zero
    vector abstains.
    """
    if not s.any():
        return None, False
    cfg = net.config
    n = int(net.counts[m])
    if n:
        dots = net.neurons[m, :n] @ s
        winner = int(dots.argmax())
        if dots[winner] >= cfg.winner_threshold:
            w = net.neurons[m, winner]
            target, rate = cfg.convergence_target, cfg.learning_rate
            for _ in range(cfg.max_update_iters):
                if w @ s >= target:
                    break
                w = w + rate * (s - w)
                w = w / math.sqrt(w.dot(w))  # bit for bit np.linalg.norm(w) of 1-D float64
            net.neurons[m, winner] = w
            return winner, False
    if n == net.neurons.shape[1]:
        net.neurons = np.pad(net.neurons, ((0, 0), (0, 1), (0, 0)))
    net.neurons[m, n] = s
    net.counts[m] += 1
    return n, True


def train(
    net: LamstarNetwork,
    templates: list[IrisTemplate],
    labels: list[int],
) -> TrainingLog:
    """Train the network: SOM phase first (dynamic neuron creation and
    winner pulling, one pass in presentation order), then the zeroed
    decision layer is adjusted by punishment/reward for up to
    config.epochs epochs, stopping early after an error-free epoch.
    """
    if len(templates) != len(labels):
        raise ValueError("templates and labels must have the same length")
    if not templates:
        raise ValueError("training set is empty")
    for label in labels:
        if not 0 <= label < net.num_classes:
            raise ValueError(f"label {label} outside [0, {net.num_classes})")
    for t in templates:
        net._check_template(t)
    cfg = net.config
    start = time.perf_counter()

    # SOM phase: sequential over templates, dynamic creation per module.
    # Subwords are made one template at a time, here and for the winners
    # below: holding every template's would cost 8 * dim * modules bytes
    # per template for the whole call.
    for t in templates:
        cols = subword_matrix(t.values)
        for m in range(net.num_modules):
            som_present(net, m, cols[m])

    net._freeze()

    # Winners are fixed once the SOM phase ends; resolve them once.
    winners = [net._find_winners(subword_matrix(t.values), [0])[0] for t in templates]

    dec = net.decision
    epoch_errors: list[int] = []
    for _ in range(cfg.epochs):
        errors = 0
        for gids, label in zip(winners, labels):
            # With every module abstaining, the empty gather scores zeros.
            active = gids[gids >= 0]
            scores = dec.effective_matrix(cfg.normalized, active).sum(axis=0)
            errors += int(np.argmax(scores)) != label
            dec.weights[active, :] -= cfg.delta
            dec.weights[active, label] += 2 * cfg.delta
            dec.reward_counts[active, label] += 1
        epoch_errors.append(errors)
        if errors == 0:
            break

    return TrainingLog(
        neuron_counts=net.counts.tolist(),
        epoch_errors=epoch_errors,
        train_seconds=time.perf_counter() - start,
    )


def classify(net: LamstarNetwork, t: IrisTemplate, shift_range: int = 0) -> Prediction:
    """Frozen-network classification; never mutates the network.

    Tries every cyclic column shift in [-shift_range, shift_range] and
    keeps the shift whose best class score is highest (first such shift in
    ascending order). Modules with no neuron above the winner threshold
    abstain. Ties in the final argmax go to the lowest class index.
    """
    if net.decision is None:
        raise ValueError("network has not been trained")
    if shift_range < 0:
        raise ValueError(f"shift_range must be >= 0, got {shift_range}")
    net._check_template(t)
    eff = net._link_scores()
    cols = subword_matrix(t.values)
    # Shifts past the first num_modules repeat a rotation already scored,
    # and argmax keeps the first, so they are not searched.
    shifts = np.arange(-shift_range, -shift_range + min(2 * shift_range + 1, net.num_modules))
    gids = net._find_winners(cols, shifts)
    scores = np.array([eff[g[g >= 0]].sum(axis=0) for g in gids])
    best = int(np.argmax(scores.max(axis=1)))  # first shift with the highest top score
    return Prediction(class_index=int(np.argmax(scores[best])), scores=scores[best],
                      shift=int(shifts[best]))


# One sparse decision-layer entry of an LNS1 file.
_RECORD = np.dtype([("module", "<u4"), ("neuron", "<u4"), ("cls", "<u4"),
                    ("weight", "<f8"), ("rewards", "<u8")])

# The writer builds, and the reader checks and then scatters, at most this
# many decision records at a time. One slice's temporaries (the records and
# their int64 indices and gathered fields) take under 1 MiB, whatever
# the model's size, while the train benchmark's models (about 125,000
# records each) still take only 16 slices per pass.
_SLICE_RECORDS = 8192


def save_model(net: LamstarNetwork, path: str | Path) -> None:
    """Write an LNS1 model file.

    Layout: ASCII header; per module a little-endian uint32 neuron count
    followed by the neuron weight vectors as little-endian float64; then
    sparse decision records (uint32 module, uint32 neuron, uint32 class,
    float64 weight, uint64 reward count) in key order for every link with
    a nonzero weight or reward count; then a uint64 record-count trailer.

    The file is written as `<name>.partial` beside path and renamed over
    path once complete, so a failed write leaves any previous model as it
    was and no partial file behind.
    """
    if net.decision is None:
        raise ValueError("cannot save an untrained network")
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as f:
            _write_model(net, f)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_model(net: LamstarNetwork, f) -> None:
    """Stream the LNS1 sections to f in file order, building the decision
    records one slice of decision-layer rows at a time."""
    cfg = net.config
    f.write(f"LNS1 {net.num_modules} {net.subword_dim} {net.num_classes} "
            f"{1 if cfg.normalized else 0} {cfg.delta!r} {cfg.winner_threshold!r}\n".encode("ascii"))
    for n, block in zip(net.counts.tolist(), net.neurons):
        f.write(n.to_bytes(4, "little"))
        f.write(np.ascontiguousarray(block[:n], dtype="<f8"))
    dec = net.decision
    rows = max(1, _SLICE_RECORDS // net.num_classes)
    written = 0
    for first in range(0, len(dec.weights), rows):
        weights = dec.weights[first : first + rows]
        rewards = dec.reward_counts[first : first + rows]
        row, classes = np.nonzero((weights != 0) | (rewards != 0))
        gids = first + row
        module = np.searchsorted(dec.offsets, gids, side="right") - 1
        records = np.empty(len(row), dtype=_RECORD)
        records["module"] = module
        records["neuron"] = gids - dec.offsets[module]
        records["cls"] = classes
        records["weight"] = weights[row, classes]
        records["rewards"] = rewards[row, classes]
        f.write(records)
        written += len(records)
    f.write(written.to_bytes(8, "little"))


def _record_slices(data: bytes, offset: int, n_records: int):
    """The n_records decision records at offset in data, as read-only views
    of at most _SLICE_RECORDS records each."""
    for first in range(0, n_records, _SLICE_RECORDS):
        yield np.frombuffer(data, dtype=_RECORD, count=min(_SLICE_RECORDS, n_records - first),
                            offset=offset + first * _RECORD.itemsize)


def load_model(path: str | Path) -> LamstarNetwork:
    """Read an LNS1 model file back into an inference-ready network.

    Every check runs before the network is built; the decision records
    are checked, then scattered, one slice at a time straight from the
    file's bytes. A file whose records do not name every class is refused,
    one with no record included. Training writes no record only when no
    neuron ever wins (a winner threshold that no subword reaches), and that
    model would score every class 0.
    """
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing LNS1 header line")
    parts = data[:nl].decode("ascii", "replace").split()
    if len(parts) != 7 or parts[0] != "LNS1" or parts[4] not in ("0", "1"):
        raise FormatError(f"bad LNS1 header: {data[:nl]!r}")
    try:
        num_modules, subword_dim, num_classes = int(parts[1]), int(parts[2]), int(parts[3])
        cfg = LamstarConfig(normalized=parts[4] == "1", delta=float(parts[5]),
                            winner_threshold=float(parts[6]))
    except ValueError:
        raise FormatError(f"non-numeric LNS1 header field: {data[:nl]!r}") from None
    if min(num_modules, subword_dim, num_classes) < 1:
        raise FormatError(f"LNS1 header count below 1: {data[:nl]!r}")
    if not (np.isfinite([cfg.winner_threshold, cfg.delta]).all() and cfg.delta > 0):
        raise FormatError(f"LNS1 header needs finite threshold and delta > 0: {data[:nl]!r}")
    if 4 * num_modules > len(data) - nl - 1:  # each module needs its neuron count
        raise FormatError(f"LNS1 file truncated: too short for {num_modules} modules")
    counts = np.zeros(num_modules, dtype=np.int64)
    blocks = []
    view = memoryview(data)
    pos = nl + 1
    for m in range(num_modules):
        if pos + 4 > len(data):
            raise FormatError("LNS1 file truncated in the neuron blocks")
        counts[m] = n = int.from_bytes(data[pos : pos + 4], "little")
        end = pos + 4 + n * subword_dim * 8
        if end > len(data):
            raise FormatError("LNS1 file truncated in the neuron blocks")
        blocks.append(view[pos + 4 : end])
        pos = end
    weights = np.frombuffer(b"".join(blocks), dtype="<f8").reshape(-1, subword_dim)
    if not np.isfinite(weights).all():
        raise FormatError("LNS1 neuron weight is not finite")
    body = len(data) - pos - 8
    if body < 0 or body % _RECORD.itemsize:
        raise FormatError("malformed LNS1 decision-layer section")
    n_records = body // _RECORD.itemsize
    trailer = int(np.frombuffer(data, dtype="<u8", count=1, offset=len(data) - 8)[0])
    if trailer != n_records:
        raise FormatError(f"LNS1 trailer says {trailer} records, found {n_records}")
    # A module index past the last module reads a neuron count of 0.
    neuron_limit = np.append(counts, 0)
    classes_named = 0
    for records in _record_slices(data, pos, n_records):
        classes = records["cls"]
        if np.any((records["neuron"] >= neuron_limit.take(records["module"], mode="clip"))
                  | (classes >= num_classes)
                  | (records["rewards"] > np.iinfo(np.int64).max)):
            raise FormatError("LNS1 decision record out of range")
        if not np.isfinite(records["weight"]).all():
            raise FormatError("LNS1 link weight is not finite")
        classes_named = max(classes_named, int(classes.max()) + 1)
    # Training's first decision epoch moves every class's link of each
    # neuron that wins for a template, so once any neuron wins, records
    # name each class. Without a record, a file of a few bytes could ask
    # for a decision layer of neurons x classes and, holding no neuron, a
    # store of modules x dim. A record names a neuron, whose dim weights
    # are in the file, and the records name every class, so the file's
    # length bounds dim and classes.
    if classes_named < num_classes:
        raise FormatError(f"LNS1 header names {num_classes} classes, records only {classes_named}")
    net = LamstarNetwork(num_modules, subword_dim, num_classes, cfg)
    net.counts = counts
    net.neurons = np.zeros((num_modules, max(1, counts.max()), subword_dim))
    net._freeze()
    net.neurons[net._valid] = weights  # row-major order is the file's module order
    dec = net.decision
    for records in _record_slices(data, pos, n_records):
        gids = dec.offsets[records["module"]] + records["neuron"]
        dec.weights[gids, records["cls"]] = records["weight"]
        dec.reward_counts[gids, records["cls"]] = records["rewards"]
    return net
