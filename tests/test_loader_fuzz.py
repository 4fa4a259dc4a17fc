"""Fuzz the PGM, IRT1 and LNS1 loaders with truncations, byte flips and
replaced header tokens: every input must load cleanly or raise
FormatError, never another exception."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irislam.errors import ConfigError, FormatError
from irislam.imaging import GrayImage, load_gray_image, save_gray_image
from irislam.lamstar import (
    _RECORD,
    LamstarConfig,
    LamstarNetwork,
    load_model,
    save_model,
    train,
)
from irislam.normalization import IrisTemplate, load_template, save_template

TOKENS = st.one_of(
    st.sampled_from([b"", b"0", b"-1", b"1", b"2", b"255", b"99999999", b"18446744073709551616",
                     b"1e3", b"0.5", b"nan", b"-inf", b"P5", b"IRT1", b"LNS1", b"x"]),
    st.integers(-3, 2**40).map(lambda n: str(n).encode()),
    st.binary(min_size=1, max_size=4),
)


def corrupted(data: bytes, header_end: int):
    """Strategy: data cut short, with up to four bytes flipped, or with one
    header token (in data[:header_end]) replaced."""
    def flip(flips):
        out = bytearray(data)
        for index, mask in flips:
            out[index] ^= mask
        return bytes(out)

    @st.composite
    def replace_token(draw):
        parts = re.split(rb"(\s+)", data[:header_end])
        parts[draw(st.sampled_from(range(0, len(parts), 2)))] = draw(TOKENS)
        return b"".join(parts) + data[header_end:]

    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(flip),
        replace_token(),
    )


def loads_or_format_error(load, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(12)
    save_gray_image(GrayImage(rng.random((5, 7))), root / "i.pgm")
    save_template(IrisTemplate(rng.random((4, 6)), label="c0"), root / "t.irt")
    t0 = IrisTemplate(np.array([[1.0, 1.0], [0.0, 0.0]]))
    t1 = IrisTemplate(np.array([[0.0, 0.0], [1.0, 1.0]]))
    net = LamstarNetwork(2, 2, 2)
    train(net, [t0, t1], [0, 1])
    save_model(net, root / "m.lns")
    return root


def header_end(data: bytes, lines: int) -> int:
    """Offset just past the first `lines` newlines."""
    end = 0
    for _ in range(lines):
        end = data.index(b"\n", end) + 1
    return end


# 8-bit PGM: "P5\n<w> <h>\n255\n" then the raster; IRT1 and LNS1: one line
LOADERS = {"i.pgm": (load_gray_image, 3), "t.irt": (load_template, 1), "m.lns": (load_model, 1)}


@pytest.mark.parametrize("name", list(LOADERS))
def test_clean_file_loads(files, name):
    load, _ = LOADERS[name]
    load(files / name)


@pytest.mark.parametrize("name", list(LOADERS))
def test_corrupt_file_loads_or_raises_format_error(files, name):
    load, lines = LOADERS[name]
    data = (files / name).read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(corrupted(data, header_end(data, lines)))
    def check(bad):
        loads_or_format_error(load, files / f"bad-{name}", bad)

    check()


def lns1(header: str, counts_and_neurons: bytes, records: int = 0) -> bytes:
    """LNS1 bytes with the given header fields, module blocks and no
    decision records (the trailer says `records`)."""
    return f"LNS1 {header}\n".encode() + counts_and_neurons + records.to_bytes(8, "little")


@pytest.mark.parametrize("data", [
    # 46 bytes: one module with no neurons, each neuron 10^11 float64s
    lns1("1 100000000000 1 0 0.05 0.95", bytes(4)),
    # one neuron, no records, 10^12 classes
    lns1("1 1 1000000000000 0 0.05 0.95", (1).to_bytes(4, "little") + np.float64(1.0).tobytes()),
], ids=["no_neurons_huge_dim", "no_records_huge_class_count"])
def test_allocations_not_bounded_by_the_file_rejected(tmp_path, monkeypatch, data):
    def no_network(*args, **kwargs):
        raise AssertionError("LamstarNetwork built for a file that must be rejected")

    monkeypatch.setattr("irislam.lamstar.LamstarNetwork", no_network)
    (tmp_path / "m.lns").write_bytes(data)
    with pytest.raises(FormatError, match="records only 0"):
        load_model(tmp_path / "m.lns")


def test_trained_model_without_its_records_rejected(files, tmp_path):
    data = (files / "m.lns").read_bytes()
    records = int.from_bytes(data[-8:], "little")
    assert records  # training linked every class of the toy network
    (tmp_path / "m.lns").write_bytes(data[: -8 - 28 * records] + bytes(8))
    with pytest.raises(FormatError, match="records only 0"):
        load_model(tmp_path / "m.lns")


def test_winner_threshold_above_one_rejected(files, tmp_path):
    # No dot of two unit vectors passes 1, so such a threshold would train a
    # model without a decision record, or score every probe of a trained
    # model 0 for every class. LamstarConfig refuses it for config files and
    # LNS1 headers alike.
    with pytest.raises(ConfigError, match="lamstar.winner_threshold must be finite and <= 1"):
        LamstarConfig(winner_threshold=2.0)
    data = (files / "m.lns").read_bytes()
    header = data[: data.index(b"\n")]
    assert header.endswith(b" 0.95")
    (tmp_path / "m.lns").write_bytes(header[:-4] + b"1.5" + data[len(header) :])
    with pytest.raises(FormatError, match="winner_threshold"):
        load_model(tmp_path / "m.lns")


def test_repeated_or_all_zero_record_rejected(files, tmp_path):
    # save_model writes each link with a nonzero weight or reward count once
    data = (files / "m.lns").read_bytes()
    n = int.from_bytes(data[-8:], "little")
    start = len(data) - 8 - _RECORD.itemsize * n
    first = np.frombuffer(data, dtype=_RECORD, count=1, offset=start).copy()
    assert first["weight"][0] and first["rewards"][0]
    repeated = first.copy()
    repeated["weight"] = 123.0  # the same link again, with another weight
    zeroed = first.copy()
    zeroed["weight"], zeroed["rewards"] = 0.0, 0  # the first link, holding nothing
    rest = data[start + _RECORD.itemsize : -8]
    for bad in (data[:-8] + repeated.tobytes() + (n + 1).to_bytes(8, "little"),
                data[:start] + zeroed.tobytes() + rest + n.to_bytes(8, "little")):
        (tmp_path / "m.lns").write_bytes(bad)
        with pytest.raises(FormatError, match="repeats a link or holds only zeros"):
            load_model(tmp_path / "m.lns")
