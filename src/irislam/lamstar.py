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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse

from irislam.errors import ConfigError, FormatError
from irislam.files import replacing

if TYPE_CHECKING:
    from irislam.normalization import IrisTemplate

_ZERO_NORM_EPS = 1e-12
# A loaded neuron's norm may differ from 1 by at most this.
_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class LamstarConfig:
    learning_rate: float = 0.8  # alpha in w <- w + alpha*(s - w)
    winner_threshold: float = 0.95  # minimum dot product to claim a winner
    convergence_target: float = 0.9999  # stop pulling the winner once dot >= this
    max_update_iters: int = 100
    delta: float = 0.05  # reward/punishment increment
    normalized: bool = False  # divide link weights by reward counts when scoring
    epochs: int = 10

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        for name, ok, need in (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("max_update_iters", self.max_update_iters >= 1, ">= 1"),
            ("delta", 0 < self.delta < math.inf, "finite and > 0"),
            ("learning_rate", 0 < self.learning_rate <= 1, "in (0, 1]"),
            # No dot of two unit vectors passes 1 except by rounding, so a
            # higher threshold makes a neuron of every subword and a model
            # without a decision record.
            ("winner_threshold", -math.inf < self.winner_threshold <= 1, "finite and <= 1"),
            ("convergence_target", math.isfinite(self.convergence_target), "finite"),
        ):
            if not ok:
                raise ConfigError(f"lamstar.{name} must be {need}, got {getattr(self, name)!r}")


def subword_matrix(values: np.ndarray) -> np.ndarray:
    """Template columns as unit-norm subwords: a (num_columns, dim) matrix
    in column order, made from C-ordered values so that no bit depends on
    memory order. A (near-)zero column becomes the all-zero vector."""
    cols = np.ascontiguousarray(values).T.astype(np.float64, copy=True)
    norms = np.linalg.norm(cols, axis=1)
    zero = norms < _ZERO_NORM_EPS
    # Flagged rows are divided by 1 and then zeroed, so every row is
    # divided in place and none by a (near-)zero norm.
    norms[zero] = 1.0
    cols /= norms[:, None]
    cols[zero] = 0.0
    return cols


class DecisionLayer:
    """Link weights from (module, neuron) pairs to classes.

    Backed by dense arrays over globally numbered neurons; all weights and
    reward counts start at zero.
    """

    def __init__(self, neuron_counts: list[int], num_classes: int):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
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
        empty slots."""
        self.decision = DecisionLayer(self.counts, self.num_classes)
        # (slot, module) pairs past the module's count, as flat slot-major
        # indices: the winner search's dots of these slots are -inf.
        self._empty = np.flatnonzero(np.arange(self.neurons.shape[1])[:, None] >= self.counts)
        self._links = None

    def _link_scores(self) -> np.ndarray:
        """Effective link weights (neurons x classes) of config's current
        variant, computed on first use after _freeze and again only when
        config switches variant."""
        variant = self.config.normalized
        if self._links is None or self._links[0] != variant:
            self._links = (variant, self.decision.effective_matrix(variant))
        return self._links[1]

    def _find_winners(self, values: np.ndarray, first: int,
                      count: int) -> tuple[np.ndarray, np.ndarray]:
        """Winners of a template's values at the count shifts from first up,
        as CSR rows: ids[indptr[k]:indptr[k + 1]] are shift first + k's
        winning global neuron ids in module order; an abstaining module adds
        none. Module m at shift s reads subword (m - s) % num_modules, as
        np.roll(values, s, axis=1) places it; an all-zero subword abstains."""
        cols = subword_matrix(values)
        # Column q of ext is row (num_modules - 1 - first - q) % num_modules
        # of cols, so module m reads columns num_modules - 1 - m up to
        # num_modules - 2 - m + count at shifts first, first + 1, ...
        modules = self.num_modules
        # The same columns: np.take wraps an index by repeated subtraction,
        # which for a far first takes time in proportion to its distance.
        first %= modules
        ext = np.take(cols.T, modules - 1 - first - np.arange(modules + count - 1),
                      axis=1, mode="wrap")
        # Each module's (dim, count) operand is a row-major view into ext with
        # leading dimension ext.shape[1]: one product per module, the gemm a
        # packed copy of the window would get, with the same bits. With one
        # shift it is the (dim, 1) product train has always made, so the order
        # each dot is summed in, and with it the trained model, does not
        # depend on the caller.
        window = _module_windows(ext, count)
        # The products are stored slot-major, so that one slot's dots are one
        # contiguous (modules, count) block. That changes only the row
        # stride each module's product is written with, not how its dots
        # are summed.
        dots = np.empty((self.neurons.shape[1], self.num_modules, count))
        np.matmul(self.neurons, window, out=dots.transpose(1, 0, 2))
        dots.reshape(-1, count)[self._empty] = -np.inf
        # A running max over the slots; the strict > keeps the lowest of
        # tied slots, as np.argmax would.
        top = dots[0].copy()
        winner = np.zeros(top.shape, dtype=np.int64)
        better = np.empty(top.shape, dtype=bool)
        for slot in range(1, len(dots)):
            np.greater(dots[slot], top, out=better)
            np.maximum(top, dots[slot], out=top)
            winner[better] = slot
        present = _module_windows(ext.any(axis=0), count)
        ok = (top >= self.config.winner_threshold) & present
        winner += self.decision.offsets[:-1, None]
        return winner.T[ok.T], np.concatenate(([0], np.cumsum(ok.sum(axis=0))))


def _module_windows(a: np.ndarray, count: int) -> np.ndarray:
    """Read-only view v of a, whose last axis holds num_modules + count - 1
    entries, with v[m, ..., j] = a[..., num_modules - 1 - m + j]: module m's
    count entries, modules in reverse order along a. No data is copied. It
    is built by as_strided, not sliding_window_view, whose argument checks
    cost about 10 us a call: the one-shift search that training runs per
    template makes two calls."""
    step = a.strides[-1]
    num_modules = a.shape[-1] - count + 1
    return as_strided(a[..., num_modules - 1:], (num_modules, *a.shape[:-1], count),
                      (-step, *a.strides[:-1], step), writeable=False)


def som_present(net: LamstarNetwork, m: int, s: np.ndarray) -> tuple[int | None, bool]:
    """Present one unit-norm subword to module m during training.

    Returns (winner index, created). The best-matching neuron wins if its
    dot product clears winner_threshold (ties go to the lowest index) and
    is pulled toward the subword by w <- w + alpha*(s - w) (renormalized
    each step) until its dot product reaches convergence_target;
    otherwise a new neuron equal to the subword is appended, and when
    module m is full every module first gains one zero slot. The all-zero
    vector abstains.

    train makes one call per module and template, so the step is written
    for its per-call cost. The pull runs in place on the store's row:
    step = s - w, step *= alpha, w += step, w /= sqrt(w.dot(w)). IEEE * and
    + are commutative, so each element gets the bits of w + alpha*(s - w)
    divided by np.linalg.norm(w). The winner's dots are np.dot of the
    module's rows and s, the BLAS gemv that the @ operator also calls (ddot
    when the module has one neuron), and the pull's stop test reads
    w.dot(s), the ddot of w @ s. Which neuron wins at a tie or at the
    threshold, and how many pulls a winner gets, follow those dots' bits,
    so the trained neurons, and with them the golden LNS1 digests, can
    depend on BLAS gemv and ddot.
    """
    if not (s[0] or s.any()):  # s[0] settles most subwords without a scan
        return None, False
    cfg = net.config
    n = int(net.counts[m])
    if n:
        row = net.neurons[m]
        dots = np.dot(row[:n], s)
        winner = int(dots.argmax())
        if dots[winner] >= cfg.winner_threshold:
            w = row[winner]
            target, rate = cfg.convergence_target, cfg.learning_rate
            for _ in range(cfg.max_update_iters):
                if w.dot(s) >= target:
                    break
                step = s - w
                step *= rate
                w += step
                w /= math.sqrt(w.dot(w))  # bit for bit np.linalg.norm(w) of 1-D float64
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
    winners = [net._find_winners(t.values, 0, 1)[0] for t in templates]

    dec = net.decision
    epoch_errors: list[int] = []
    for _ in range(cfg.epochs):
        errors = 0
        for ids, label in zip(winners, labels):
            # With every module abstaining, the empty gather scores zeros.
            scores = dec.effective_matrix(cfg.normalized, ids).sum(axis=0)
            errors += int(np.argmax(scores)) != label
            dec.weights[ids, :] -= cfg.delta
            dec.weights[ids, label] += 2 * cfg.delta
            dec.reward_counts[ids, label] += 1
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
    # Shifts past the first num_modules repeat a rotation already scored,
    # and argmax keeps the first, so they are not searched.
    ids, indptr = net._find_winners(t.values, -shift_range,
                                    min(2 * shift_range + 1, net.num_modules))
    # Row s of the 0/1 matrix holds shift s's winners in module order, so
    # the CSR product adds 1.0 * each winner's link row into zeros in that
    # order: each score is summed as eff[ids].sum(axis=0) sums it.
    onehot = sparse.csr_array((np.ones(len(ids)), ids, indptr), shape=(len(indptr) - 1, len(eff)))
    scores = onehot @ eff
    best = int(np.argmax(scores.max(axis=1)))  # first shift with the highest top score
    return Prediction(class_index=int(np.argmax(scores[best])), scores=scores[best],
                      shift=best - shift_range)


# The LamstarConfig fields an LNS1 header records; a loaded model holds
# every other field at its default, not at the value it was trained with.
LNS1_SETTINGS = ("normalized", "delta", "winner_threshold")

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

    path is replaced only once the file is complete, so a failed write
    leaves any previous model as it was and no partial file behind.
    """
    if net.decision is None:
        raise ValueError("cannot save an untrained network")
    with replacing(path) as partial, open(partial, "wb") as f:
        _write_model(net, f)


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

    LamstarConfig checks the header's settings as it checks a config
    file's: a winner threshold of at most 1 and a finite delta above 0.
    Every other check but one runs before the network is built: the
    decision records are checked, then scattered, one slice at a time
    straight from the file's bytes. A file whose records do not name every
    class is refused, one with no record included. Training writes no
    record only when no neuron ever wins, as when every training subword is
    all zero, and that model would score every class 0. After the scatter,
    the nonzero links must number as many as the records: save_model
    writes each once and no other link, so a repeated or all-zero record
    is refused.
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
    except (ValueError, ConfigError) as exc:  # a non-numeric or out-of-range field
        raise FormatError(f"bad LNS1 header {data[:nl]!r}: {exc}") from None
    if min(num_modules, subword_dim, num_classes) < 1:
        raise FormatError(f"LNS1 header count below 1: {data[:nl]!r}")
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
    # Training keeps every neuron unit to within a few ulps, so every dot
    # of a neuron and a subword lies in [-1, 1].
    if np.any(np.abs(np.sqrt(np.einsum("ij,ij->i", weights, weights)) - 1) > _UNIT_NORM_TOL):
        raise FormatError(f"LNS1 neuron weight vector is not unit norm (to {_UNIT_NORM_TOL})")
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
    net.neurons[np.arange(net.neurons.shape[1]) < counts[:, None]] = weights  # in file order
    dec = net.decision
    for records in _record_slices(data, pos, n_records):
        gids = dec.offsets[records["module"]] + records["neuron"]
        dec.weights[gids, records["cls"]] = records["weight"]
        dec.reward_counts[gids, records["cls"]] = records["rewards"]
    if np.count_nonzero((dec.weights != 0) | (dec.reward_counts != 0)) != n_records:
        raise FormatError("LNS1 decision record repeats a link or holds only zeros")
    return net
