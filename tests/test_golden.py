"""Golden byte identity: pinned digests of the pipeline's artifacts.

The constants were recorded from the reference implementation on the
seed-11 synthetic benchmark (4 classes x (3 train + 1 test)). Any
refactor must reproduce the IRT1 and LNS1 bytes and the localized
circles exactly; a changed digest means a changed result.
"""

import hashlib

import pytest

from irislam.lamstar import LamstarConfig, LamstarNetwork, load_model, save_model, train
from irislam.normalization import save_template, unwrap
from irislam.segmentation import Circle, localize_iris
from irislam.synthdata import make_benchmark

IRT1_SHA256 = "a57f76d0a133b27add77561306c86ab6bacbd3043b2312ef4b889a89bbe5e34a"
LNS1_SHA256 = {
    False: "b3531f45017c2a677ff8eada89c94105b40101d6f30503f1b7ed74bda51d0742",
    True: "e50eb61737db44f5f4763e850b2446360b210e9108af145f6e6d1c4b0837de35",
}
LOCALIZED = {
    "class000_img00": (Circle(158.0, 139.0, 34.0), Circle(157.0, 140.0, 111.0)),
    "class003_img03": (Circle(158.0, 147.0, 41.0), Circle(160.0, 142.0, 107.0)),
}


@pytest.fixture(scope="module")
def eyes():
    return make_benchmark(4, 3, 1, seed=11)


@pytest.fixture(scope="module")
def templates(eyes):
    train_eyes, test_eyes = eyes
    return [unwrap(e.image, e.spec.localization, label=e.name) for e in train_eyes + test_eyes]


def test_irt1_bytes(templates, tmp_path):
    digest = hashlib.sha256()
    for t in templates:
        path = tmp_path / f"{t.label}.irt"
        save_template(t, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == IRT1_SHA256


@pytest.mark.parametrize("normalized", [False, True])
def test_lns1_bytes_and_round_trip(eyes, templates, tmp_path, normalized):
    train_eyes, _ = eyes
    net = LamstarNetwork(480, 20, 4, LamstarConfig(normalized=normalized))
    train(net, templates[: len(train_eyes)], [e.class_id for e in train_eyes])
    path = tmp_path / "model.lns"
    save_model(net, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == LNS1_SHA256[normalized]
    again = tmp_path / "again.lns"
    save_model(load_model(path), again)
    assert again.read_bytes() == data


def test_localized_circles(eyes):
    train_eyes, test_eyes = eyes
    by_name = {e.name: e for e in train_eyes + test_eyes}
    for name, (pupil, iris) in LOCALIZED.items():
        loc = localize_iris(by_name[name].image)
        assert (loc.pupil, loc.iris) == (pupil, iris)
