import dataclasses
import logging
import tracemalloc
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest

from xnb.classifier import XnbConfig, XnbModel, _decode_array, _encode_array
from xnb.dataset import Dataset
from xnb.kde import PackedKde
from xnb.selection import ClassFeatureMap


def notices(records, logger: str) -> list[str]:
    """The messages of the WARNING records among ``records`` (``caplog.records``) that ``logger`` emitted."""
    return [r.getMessage() for r in records if r.name == logger and r.levelno == logging.WARNING]


def mutable_parts(obj, name: str = "obj") -> list[str]:
    """The paths of the writeable numpy arrays and the mutable mappings that ``obj`` exposes.

    A dataclass exposes what its instance holds: its fields and anything
    cached on it since. The search goes into mappings and into the
    dataclasses it finds, such as a model's bank. An attribute named
    ``timings`` is left out: fit and evaluation timings are plain dicts on
    purpose, as the benchmark records only a dict's.
    """
    if isinstance(obj, np.ndarray):
        return [name] if obj.flags.writeable else []
    if isinstance(obj, Mapping):
        found = [name] if isinstance(obj, MutableMapping) else []
        items = obj.items()
    elif dataclasses.is_dataclass(obj):
        found = []
        items = [(a, v) for a, v in vars(obj).items() if a != "timings"]
    else:
        return []
    return found + [path for key, value in items for path in mutable_parts(value, f"{name}.{key}")]


def make_separated(
    n: int = 200,
    m: int = 50,
    k: int = 3,
    shift: float = 5.0,
    informative_per_class: int = 2,
    cross_shift: float = 0.0,
    seed: int = 0,
):
    """Noise matrix with a few mean-shifted marker variables per class.

    Class ``c`` (labels c0, c1, ...) gets ``informative_per_class`` variables
    whose mean is shifted by ``shift`` standard deviations for its own
    samples. With ``cross_shift`` > 0 the next class (cyclically) is also
    mildly elevated on those markers; that gives every class pair a unique
    strongest marker pair, the way real markers are rarely flat in every
    other class. Returns the dataset and the class -> marker mapping.
    """
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, m))
    labels = [f"c{i % k}" for i in range(n)]
    names = tuple(f"v{j:02d}" for j in range(m))
    informative = {}
    rows_by_class = {c: [i for i, l in enumerate(labels) if l == c] for c in sorted(set(labels))}
    classes = sorted(rows_by_class)
    for ci, c in enumerate(classes):
        cols = range(ci * informative_per_class, (ci + 1) * informative_per_class)
        informative[c] = tuple(names[j] for j in cols)
        neighbor = classes[(ci + 1) % k]
        for j in cols:
            values[rows_by_class[c], j] += shift
            if cross_shift:
                values[rows_by_class[neighbor], j] += cross_shift
    return Dataset(names, values, tuple(labels)), informative


def empty_union_model() -> XnbModel:
    """A loadable xnb model over variables x and y in which no class scores any variable."""
    empty = PackedKde(np.zeros((3, 0)), np.zeros(0))
    return XnbModel(
        classes=("A", "B"),
        priors={"A": 0.25, "B": 0.75},
        features=ClassFeatureMap(classes=("A", "B"), features={"A": (), "B": ()}),
        kde_bank={"A": empty, "B": empty},
        config=XnbConfig(),
        variable_names=("x", "y"),
    )


@pytest.fixture
def separated_two_class():
    """Two classes split 0 +- 0.1 vs 100 +- 0.1 on g1, plus 20 noise variables."""
    rng = np.random.default_rng(7)
    n_per = 15
    values = rng.normal(size=(2 * n_per, 21))
    values[:n_per, 0] = rng.normal(0.0, 0.1, size=n_per)
    values[n_per:, 0] = rng.normal(100.0, 0.1, size=n_per)
    names = ("g1",) + tuple(f"noise{j}" for j in range(1, 21))
    labels = ("A",) * n_per + ("B",) * n_per
    return Dataset(names, values, labels)


@pytest.fixture
def separated_three_class():
    d, informative = make_separated(seed=11)
    return d, informative


def edit_array(node: dict, edit) -> dict:
    """The array node of ``edit(array)``, given a copy of the node's array."""
    return _encode_array(edit(_decode_array(node, "array").copy()))


def _set_first(value):
    def edit(a):
        a.flat[0] = value
        return a

    return edit


def _with(**fields):
    return lambda node: {**node, **fields}


def _rows(delta: int):
    return lambda node: {**node, "shape": [node["shape"][0] + delta, node["shape"][1]]}


_A_H, _A_SAMPLES, _B_SAMPLES = ("kde", "A", "h"), ("kde", "A", "samples"), ("kde", "B", "samples")
_MEANS, _VARIANCES = ("gnb", "means"), ("gnb", "variances")

# Malformed array nodes of a v3 model file: (id, method, path to the node,
# the node's replacement given the valid node, the load error it gives).
# The models are fitted on ``separated_two_class``: class "A" of the xnb
# model keeps one variable, so its ``h`` has shape [1] and its samples
# shape [15, 1].
MALFORMED_ARRAYS = [
    ("dtype f4", "xnb", _A_SAMPLES, _with(dtype="<f4"), "array dtype '<f4'"),
    ("dtype big-endian", "gnb", _MEANS, _with(dtype=">f8"), "array dtype '>f8'"),
    ("dtype missing", "xnb", _A_H, lambda n: {"shape": n["shape"], "data": n["data"]}, "dtype, shape, data"),
    ("extra key", "xnb", _A_H, _with(order="C"), "dtype, shape, data"),
    ("shape not a list", "xnb", _A_H, _with(shape=1), "array shape 1 "),
    ("negative shape", "xnb", _A_SAMPLES, _rows(-30), r"array shape \[-15, 1\]"),
    ("bool shape", "xnb", _A_H, _with(shape=[True]), r"array shape \[True\]"),
    ("float shape", "xnb", _A_H, _with(shape=[1.0]), r"array shape \[1.0\]"),
    ("data not base64", "xnb", _B_SAMPLES, lambda n: {**n, "data": "!" + n["data"][1:]}, "not base64"),
    ("data cut", "fnb", _A_SAMPLES, lambda n: {**n, "data": n["data"][:-1]}, "not base64"),
    ("data not text", "xnb", _A_H, _with(data=12), "base64 string"),
    ("data not ascii", "gnb", _VARIANCES, lambda n: {**n, "data": "\u00e9" + n["data"][1:]}, "not base64"),
    ("bytes short", "xnb", _A_SAMPLES, _rows(1), "needs 128 bytes of data, got 120"),
    ("huge shape", "fnb", _B_SAMPLES, _with(shape=[2**62, 2**62]), f"needs {8 * 2**124} bytes"),
    ("list, not a node", "xnb", _A_H, lambda n: _decode_array(n, "array").tolist(), "dtype, shape, data"),
    ("nan sample", "fnb", _B_SAMPLES, lambda n: edit_array(n, _set_first(np.nan)), "samples must be finite"),
    ("inf bandwidth", "xnb", _A_H, lambda n: edit_array(n, _set_first(np.inf)), "bandwidths must be positive"),
    ("subnormal bandwidth", "xnb", _A_H, lambda n: edit_array(n, _set_first(1e-320)), "bandwidths must be positive"),
    ("nan mean", "gnb", _MEANS, lambda n: edit_array(n, _set_first(np.nan)), "means must be finite"),
    ("inf variance", "gnb", _VARIANCES, lambda n: edit_array(n, _set_first(-np.inf)), "variances must be finite"),
]


def corrupt_node(payload: dict, path: tuple[str, ...], replace) -> None:
    """Replace the node at ``path`` in a model payload by ``replace(node)``."""
    *parents, key = path
    for name in parents:
        payload = payload[name]
    payload[key] = replace(payload[key])


def traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# what a construction's name checks hold per variable: a set of the names, about 130 B a name
NAME_BYTES = 160


def wide_dataset(n: int = 100, m: int = 20_000, k: int = 3, seed: int = 0) -> Dataset:
    """n x m standard normal noise with labels c0, c1, ... dealt in turn.

    The default shape is the one the memory bounds are pinned at: genomic data has m near 20 000.
    """
    rng = np.random.default_rng(seed)
    labels = tuple(f"c{i % k}" for i in range(n))
    return Dataset(tuple(f"g{j:05d}" for j in range(m)), rng.normal(size=(n, m)), labels)


def class_block_bytes(d: Dataset) -> int:
    """The bytes of the largest class's rows over every variable: one class block."""
    return max(len(rows) for rows in d.class_rows.values()) * d.m * 8
