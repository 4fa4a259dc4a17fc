import pytest

from irislam.synthdata import make_benchmark, write_dataset


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """3 classes x (3 train + 2 test) synthetic eyes on disk."""
    root = tmp_path_factory.mktemp("dataset")
    train, test = make_benchmark(3, 3, 2, seed=5)
    write_dataset(root, train + test)
    return root
