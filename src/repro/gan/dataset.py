"""Image-pair dataset containers and input normalization (Section 4.2).

The model input is ``x = stack(img_place, lambda * img_connect)`` — the RGB
placement image plus the single-channel connectivity image scaled by the
paper's lambda = 0.1 — and the target is the RGB routing heat map.  Images
are stored channel-first (C, H, W) and normalized from [0, 1] to [-1, 1]
(the generator ends in tanh).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.nn.serialize import savez_atomic


def to_unit_range(image01: np.ndarray) -> np.ndarray:
    """Map [0, 1] image values to the tanh range [-1, 1]."""
    return (2.0 * np.asarray(image01, dtype=np.float32) - 1.0)


def from_unit_range(image_pm1: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_unit_range`, clipped to [0, 1]."""
    return np.clip((np.asarray(image_pm1, dtype=np.float32) + 1.0) / 2.0,
                   0.0, 1.0)


def from_unit_range_(image_pm1: np.ndarray) -> np.ndarray:
    """In-place :func:`from_unit_range` for a caller-owned float32 array.

    Bitwise the same values (/2 is *0.5 exactly), zero allocations —
    used on the forecast hot path where the tanh output is already a
    fresh array nobody else holds.
    """
    image_pm1 += 1.0
    image_pm1 *= 0.5
    return np.clip(image_pm1, 0.0, 1.0, out=image_pm1)


def _chw(image_hwc: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image_hwc.transpose(2, 0, 1))


def make_input_stack(place_image: np.ndarray, connect_image: np.ndarray,
                     connect_weight: float = 0.1) -> np.ndarray:
    """Build the (4, H, W) model input from rendered [0, 1] images.

    ``place_image`` is (H, W, 3); ``connect_image`` is (H, W).  Both are
    normalized to [-1, 1]; the connectivity channel is scaled by lambda.
    """
    if place_image.ndim != 3 or place_image.shape[2] != 3:
        raise ValueError(f"place image must be (H, W, 3), got "
                         f"{place_image.shape}")
    if connect_image.shape != place_image.shape[:2]:
        raise ValueError(
            f"connectivity image shape {connect_image.shape} does not match "
            f"placement image {place_image.shape[:2]}")
    place = to_unit_range(place_image)
    connect = connect_weight * to_unit_range(connect_image)
    return np.concatenate(
        [_chw(place), connect[None, :, :]], axis=0).astype(np.float32)


def input_from_images(place_image: np.ndarray, connect_image: np.ndarray,
                      connect_weight: float = 0.1) -> np.ndarray:
    """(1, 4, H, W) batched input, convenience wrapper for inference."""
    return make_input_stack(place_image, connect_image,
                            connect_weight)[None, ...]


def target_from_image(route_image: np.ndarray) -> np.ndarray:
    """Build the (3, H, W) normalized target from a rendered heat map."""
    return _chw(to_unit_range(route_image)).astype(np.float32)


#: The only globals a ``meta`` pickle may name: what numpy needs to
#: rebuild an object array of plain values (``numpy.core`` before numpy 2).
_META_GLOBALS = frozenset({
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy.core.multiarray", "scalar"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "scalar"),
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
})


class _MetaUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in _META_GLOBALS:
            raise pickle.UnpicklingError(
                f"meta names {module}.{name}, which is not a numpy "
                f"array reconstructor")
        return super().find_class(module, name)


def _read_meta(archive, path: Path) -> np.ndarray:
    """Unpickle ``meta.npy`` from an open archive through the allowlist."""
    with archive.zip.open("meta.npy") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            np.lib.format.read_array_header_1_0(handle)
        else:
            np.lib.format.read_array_header_2_0(handle)
        try:
            return _MetaUnpickler(handle).load()
        except pickle.UnpicklingError as error:
            raise ValueError(f"{path}: {error}") from error


@dataclass
class Sample:
    """One placement of one design: model input, target, and provenance."""

    design: str
    x: np.ndarray                 # (4, H, W) float32 in [-1, 1]
    y: np.ndarray                 # (3, H, W) float32 in [-1, 1]
    true_congestion: float        # mean channel utilization after routing
    placer_options: dict = field(default_factory=dict)
    route_seconds: float = 0.0
    place_seconds: float = 0.0
    converged: bool = True

    @property
    def y_image(self) -> np.ndarray:
        """Ground-truth heat map as an (H, W, 3) image in [0, 1]."""
        return from_unit_range(self.y.transpose(1, 2, 0))

    @property
    def place_image(self) -> np.ndarray:
        """Placement input as an (H, W, 3) image in [0, 1]."""
        return from_unit_range(self.x[:3].transpose(1, 2, 0))


class Dataset:
    """An ordered collection of samples from one or more designs."""

    def __init__(self, samples: list[Sample] | None = None):
        self.samples: list[Sample] = (
            list(samples) if samples is not None else [])

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Dataset(self.samples[index])
        return self.samples[index]

    def append(self, sample: Sample) -> None:
        self.samples.append(sample)

    def extend(self, other: "Dataset") -> None:
        self.samples.extend(other.samples)

    @property
    def designs(self) -> list[str]:
        seen: list[str] = []
        for sample in self.samples:
            if sample.design not in seen:
                seen.append(sample.design)
        return seen

    def of_design(self, design: str) -> "Dataset":
        return Dataset([s for s in self.samples if s.design == design])

    def excluding_design(self, design: str) -> "Dataset":
        return Dataset([s for s in self.samples if s.design != design])

    def leave_one_out(self, design: str) -> tuple["Dataset", "Dataset"]:
        """(train, test) split: the paper's training strategy 1."""
        test = self.of_design(design)
        if not test:
            raise ValueError(f"no samples for design {design!r}")
        return self.excluding_design(design), test

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        """A reordered copy whose sample list is independent of this one.

        Mutating either dataset (append/extend) never affects the other;
        the :class:`Sample` objects themselves are shared.
        """
        order = rng.permutation(len(self.samples))
        return Dataset([self.samples[int(i)] for i in order])

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize to compressed npz (arrays plus per-sample metadata).

        The write is atomic (:func:`repro.nn.serialize.savez_atomic`): an
        interrupted save never leaves a truncated archive at ``path``.
        """
        arrays: dict[str, np.ndarray] = {}
        meta = []
        for index, sample in enumerate(self.samples):
            arrays[f"x_{index}"] = sample.x
            arrays[f"y_{index}"] = sample.y
            meta.append((sample.design, sample.true_congestion,
                         sample.route_seconds, sample.place_seconds,
                         int(sample.converged), repr(sample.placer_options)))
        arrays["meta"] = np.array(meta, dtype=object)
        savez_atomic(path, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Read an archive written by :meth:`save`.

        The ``meta`` object array is the one pickled member; it is
        unpickled with only numpy's array, dtype and scalar reconstructors
        admitted, so an archive naming any other callable raises
        ``ValueError`` instead of running it.  An archive without ``meta``
        raises ``KeyError``.
        """
        import ast

        path = Path(path)
        with np.load(path, allow_pickle=False) as archive:
            meta = _read_meta(archive, path)
            samples = []
            for index, row in enumerate(meta):
                design, congestion, route_s, place_s, converged, options = row
                samples.append(Sample(
                    design=str(design),
                    x=archive[f"x_{index}"],
                    y=archive[f"y_{index}"],
                    true_congestion=float(congestion),
                    placer_options=ast.literal_eval(str(options)),
                    route_seconds=float(route_s),
                    place_seconds=float(place_s),
                    converged=bool(int(converged)),
                ))
        return cls(samples)
