"""Fuzz the PGM, IRT1 and LNS1 loaders with truncations, byte flips and
replaced header tokens: every input must load cleanly or raise
FormatError, never another exception."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irislam.errors import FormatError
from irislam.imaging import GrayImage, load_gray_image, save_gray_image
from irislam.lamstar import LamstarNetwork, load_model, save_model, train
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
