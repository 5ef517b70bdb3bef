"""Shared fixtures and factories: tiny samples, datasets, models, checkpoints.

The plain functions (:func:`make_sample`, :func:`make_dataset`,
:func:`make_tiny_model`) are importable as ``from tests.conftest import
...`` for module-scoped fixtures; the ``make_dataset`` /
``make_checkpoint`` factory fixtures inject the same builders where a
test only needs them at run time.  Every tiny-dataset builder the suite
uses lives here — one definition, one shape convention.
"""

import numpy as np
import pytest

from repro.gan import Dataset, Pix2Pix, Pix2PixConfig, Sample


def make_sample(design: str = "d", size: int = 8, seed: int = 0,
                congestion: float = 0.5) -> Sample:
    """One random (but seed-deterministic) image-pair sample."""
    rng = np.random.default_rng(seed)
    return Sample(
        design=design,
        x=rng.normal(size=(4, size, size)).astype(np.float32),
        y=np.tanh(rng.normal(size=(3, size, size))).astype(np.float32),
        true_congestion=congestion,
        placer_options={"seed": seed, "alpha_t": None, "inner_num": 1.0,
                        "place_algorithm": "bounding_box"},
        route_seconds=0.5,
        place_seconds=1.0,
    )


def make_dataset(count: int = 5, size: int = 8, design: str = "d",
                 seed0: int = 0) -> Dataset:
    """``count`` samples of one design, seeded ``seed0 .. seed0+count-1``."""
    return Dataset([make_sample(design, size=size, seed=seed0 + i)
                    for i in range(count)])


def make_tiny_model(seed: int = 1, image_size: int = 16,
                    train_steps: int = 2) -> Pix2Pix:
    """A 16px model with a couple of training steps applied.

    The steps matter: they move the BatchNorm running statistics off their
    init values, so eval-mode inference exercises real running stats.
    """
    model = Pix2Pix(Pix2PixConfig(image_size=image_size, base_filters=4,
                                  disc_filters=4, seed=seed))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 4, image_size, image_size)).astype(np.float32)
    y = np.tanh(rng.normal(size=(1, 3, image_size, image_size))
                ).astype(np.float32)
    for _ in range(train_steps):
        model.train_step(x, y)
    return model


#: Ways to damage a train-state checkpoint that ``load_train_state`` must
#: refuse before it loads anything: each edits the ``(header, arrays)``
#: pair read back from the archive.
TRAIN_STATE_DAMAGE = {
    "missing-cursor": lambda header, arrays: header.pop("cursor"),
    "non-object-cursor": lambda header, arrays: header.update(cursor=[0]),
    "missing-field": lambda header, arrays: header["cursor"].pop("step"),
    "non-object-rng-states": lambda header, arrays: header["cursor"].update(
        rng_states=["G.dropout"]),
    "missing-loss-sums": lambda header, arrays: arrays.pop("loss_sums"),
}


def damage_train_state(path, damage: str) -> None:
    """Rewrite the train-state checkpoint at ``path`` with one of
    :data:`TRAIN_STATE_DAMAGE`."""
    from repro.nn.serialize import read_npz, write_npz
    from repro.train.checkpoint import TRAIN_STATE_FORMAT, TRAIN_STATE_VERSION

    arrays, header = read_npz(path, TRAIN_STATE_FORMAT, TRAIN_STATE_VERSION)
    TRAIN_STATE_DAMAGE[damage](header, arrays)
    write_npz(path, arrays, header)


@pytest.fixture(scope="session")
def tiny_model() -> Pix2Pix:
    return make_tiny_model()


@pytest.fixture(scope="session")
def make_model():
    """The tiny-model factory, injectable where a second model is needed.

    (Injected as a fixture rather than imported: ``import conftest`` is
    ambiguous when pytest collects both tests/ and benchmarks/.)
    """
    return make_tiny_model


@pytest.fixture(scope="session", name="make_dataset")
def make_dataset_fixture():
    """The tiny-dataset factory as an injectable fixture."""
    return make_dataset


@pytest.fixture(scope="session", name="make_checkpoint")
def make_checkpoint_fixture(tmp_path_factory):
    """Factory writing tiny trained checkpoints to disk.

    ``factory(name, directory=..., model=..., seed=..., ...)`` returns the
    checkpoint path; omit ``directory`` for a fresh temp dir, pass one to
    collect several checkpoints in a single registry directory.
    """
    def factory(name: str = "model", *, directory=None, model=None,
                seed: int = 1, image_size: int = 16,
                train_steps: int = 2):
        if model is None:
            model = make_tiny_model(seed=seed, image_size=image_size,
                                    train_steps=train_steps)
        if directory is None:
            directory = tmp_path_factory.mktemp("checkpoints")
        path = directory / f"{name}.npz"
        model.save(path)
        return path

    return factory


@pytest.fixture()
def tiny_inputs():
    rng = np.random.default_rng(42)
    return rng.normal(size=(12, 4, 16, 16)).astype(np.float32)
