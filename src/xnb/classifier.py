"""Class-specific KDE Bayes classifier plus Gaussian and full-KDE baselines.

A fitted KDE model holds one packed density per class: the class's
training rows restricted to its variable subset, one bandwidth per
variable and one kernel (``kde.PackedKde``). The fnb fit runs two stages,
per-(class, variable) bandwidths and the packed bank over every variable;
the xnb fit extends it with the Hellinger table, the per-class variable
selection, and a restriction of each class's density to its selected
columns (bandwidths are unchanged). ``predict`` is the one scoring
function: it checks a full sample, then scores each class over its own
columns only: log prior plus the sum of floored log densities, in one
vectorized kernel sum per class. ``scored_columns`` names the columns some
class scores, the only ones ``xnb predict`` parses.
"""

from __future__ import annotations

import base64
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import Dataset, class_priors, write_output
from .errors import DataError, ModelFormatError
from .hellinger import MAX_MU, hellinger_table
from .kde import (
    DEFAULT_KERNEL,
    DEFAULT_MU,
    DEFAULT_RULE,
    PackedKde,
    canonical_kernel,
    canonical_rule,
    column_bandwidths,
    scale_to_unit,
)
from .selection import DEFAULT_THETA, ClassFeatureMap, SelectionConfig, select_class_specific

MODEL_SCHEMA_VERSION = 3

# the one dtype of an array node in a model file
_ARRAY_DTYPE = "<f8"

DEFAULT_FLOOR = 1e-12

FIT_STAGES = ("bandwidth", "kde", "hellinger", "select", "build")


@dataclass(frozen=True)
class XnbConfig:
    """Pipeline settings carried by fitted models and model files."""

    kernel: str = DEFAULT_KERNEL
    bandwidth_rule: str = DEFAULT_RULE
    mu: int = DEFAULT_MU
    theta: float = DEFAULT_THETA
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        object.__setattr__(self, "kernel", canonical_kernel(self.kernel))
        object.__setattr__(self, "bandwidth_rule", canonical_rule(self.bandwidth_rule))
        if not 2 <= self.mu <= MAX_MU:
            raise ValueError(f"mu must lie in [2, {MAX_MU}], got {self.mu}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0.0 < self.floor < 1.0:
            raise ValueError(f"probability floor must lie in (0, 1), got {self.floor}")


@dataclass(frozen=True)
class Prediction:
    label: str
    log_scores: dict[str, float]


def _check_header(classes, priors: dict[str, float], variable_names) -> None:
    """The checks every model makes of its class names, priors and variable names."""
    if len(set(classes)) != len(classes):
        raise ValueError("duplicate class names")
    if len(set(variable_names)) != len(variable_names):
        raise ValueError("duplicate variable names")
    if set(priors) != set(classes):
        raise ValueError("priors must name exactly the model classes")
    if not all(0.0 < p <= 1.0 for p in priors.values()) or abs(sum(priors.values()) - 1.0) > 1e-9:
        raise ValueError("priors must lie in (0, 1] and sum to 1")


@dataclass(frozen=True)
class XnbModel:
    """Class priors, per-class variable subsets, and one packed density per class.

    ``kde_bank[c]`` holds class c's density over ``features.features[c]``,
    one column per selected variable in that order.
    """

    classes: tuple[str, ...]
    priors: dict[str, float]
    features: ClassFeatureMap
    kde_bank: dict[str, PackedKde]
    config: XnbConfig
    variable_names: tuple[str, ...]
    method: str = "xnb"
    timings: dict[str, float] | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_header(self.classes, self.priors, self.variable_names)
        if set(self.kde_bank) != set(self.classes):
            raise ValueError("kde bank must name exactly the model classes")
        for c in self.classes:
            feats = self.features.features[c]
            unknown = [v for v in feats if v not in self.variable_index]
            if unknown:
                listed = ", ".join(map(repr, unknown[:5]))
                raise ValueError(f"class {c!r}: selected variables not in the model: {listed}")
            width = self.kde_bank[c].width
            if width != len(feats):
                raise ValueError(f"class {c!r}: kde holds {width} variables, {len(feats)} selected")
            kernel = self.kde_bank[c].kernel
            if kernel != self.config.kernel:
                raise ValueError(f"class {c!r}: kde kernel {kernel!r}, config kernel {self.config.kernel!r}")

    @property
    def m(self) -> int:
        return len(self.variable_names)

    @cached_property
    def variable_index(self) -> dict[str, int]:
        return {v: j for j, v in enumerate(self.variable_names)}

    @cached_property
    def feature_columns(self) -> dict[str, np.ndarray]:
        """Each class's selected variables as indices into a sample vector."""
        return {
            c: np.array([self.variable_index[v] for v in self.features.features[c]], dtype=np.intp)
            for c in self.classes
        }

    @cached_property
    def scored_columns(self) -> np.ndarray:
        """The sorted union of the classes' feature columns: the only ones ``predict`` reads."""
        return np.unique(np.concatenate(list(self.feature_columns.values())))


@dataclass(frozen=True)
class GnbModel:
    """Gaussian naive Bayes: per-(class, variable) moments over all variables, as read-only copies."""

    classes: tuple[str, ...]
    priors: dict[str, float]
    variable_names: tuple[str, ...]
    means: np.ndarray
    variances: np.ndarray
    smoothing: float
    method: str = "gnb"

    def __post_init__(self):
        _check_header(self.classes, self.priors, self.variable_names)
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        shape = (len(self.classes), len(self.variable_names))
        if means.shape != shape or variances.shape != shape:
            raise ValueError(f"moment arrays must have shape {shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(variances) & (variances > 0)):
            raise ValueError("variances must be finite and strictly positive after smoothing")
        means.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def m(self) -> int:
        return len(self.variable_names)

    @cached_property
    def scored_columns(self) -> np.ndarray:
        """Every column: each class scores all variables."""
        return np.arange(self.m)

    @cached_property
    def _log_2pi_variances(self) -> np.ndarray:
        """log(2 pi variance) per (class, variable): the part of ``predict`` that no sample changes."""
        return np.log(2.0 * np.pi * self.variances)


def _check_trainable(d: Dataset) -> None:
    if len(d.classes) < 2:
        raise DataError(f"classification needs at least 2 classes, got {len(d.classes)}")
    singletons = [c for c in d.classes if len(d.class_rows[c]) < 2]
    if singletons:
        warnings.warn(
            f"classes with a single sample ({', '.join(singletons)}): "
            "their densities use degenerate fallback bandwidths"
        )


def fit_fnb(d: Dataset, config: XnbConfig | None = None) -> XnbModel:
    """KDE Bayes with selection disabled: every class keeps all variables.

    Its bank, one packed density per class over every variable, is the one
    that ``fit_xnb`` selects from and the Hellinger table is built from.
    """
    config = config or XnbConfig()
    _check_trainable(d)
    timings = dict.fromkeys(FIT_STAGES, 0.0)
    t0 = time.perf_counter()
    scale = np.ptp(d.values, axis=0)
    subs = [d.values[d.class_rows[c]] for c in d.classes]
    h_rows = [column_bandwidths(config.bandwidth_rule, sub, scale) for sub in subs]
    timings["bandwidth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bank = {c: PackedKde(sub, h, config.kernel) for c, sub, h in zip(d.classes, subs, h_rows)}
    timings["kde"] = timings["build"] = time.perf_counter() - t0

    return XnbModel(
        classes=d.classes,
        priors=class_priors(d),
        features=ClassFeatureMap(classes=d.classes, features={c: d.variable_names for c in d.classes}),
        kde_bank=bank,
        config=config,
        variable_names=d.variable_names,
        method="fnb",
        timings=timings,
    )


def fit_xnb(d: Dataset, config: XnbConfig | None = None, jobs: int = 1) -> XnbModel:
    """Fit the class-specific KDE Bayes model: the fnb fit, then table, selection and restriction."""
    full = fit_fnb(d, config)
    config, bank, timings = full.config, full.kde_bank, dict(full.timings)

    t0 = time.perf_counter()
    table = hellinger_table(d, bank, mu=config.mu, jobs=jobs)
    timings["hellinger"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    features = select_class_specific(table, SelectionConfig(theta=config.theta))
    timings["select"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    selected = {
        c: bank[c].take([d.variable_index[v] for v in features.features[c]]) for c in d.classes
    }
    timings["build"] = time.perf_counter() - t0

    return replace(full, features=features, kde_bank=selected, method="xnb", timings=timings)


def fit_gnb(d: Dataset) -> GnbModel:
    """Gaussian naive Bayes baseline over all variables.

    Class variances use the n-1 denominator and are smoothed by 1e-9 times
    the largest global per-variable variance (an absolute floor keeps them
    positive when every variable is constant). The moments are taken of
    each column scaled by the power of two of its largest magnitude (exact)
    and scaled back, so sums of values near the largest float do not
    overflow; a variance that itself exceeds the largest float is a data error.
    """
    if len(d.classes) < 2:
        raise DataError(f"classification needs at least 2 classes, got {len(d.classes)}")
    k, m = len(d.classes), d.m
    scaled, exponent = scale_to_unit(d.values)
    means = np.empty((k, m))
    variances = np.empty((k, m))
    for i, c in enumerate(d.classes):
        sub = scaled[d.class_rows[c]]
        means[i] = sub.mean(axis=0)
        variances[i] = np.var(sub, axis=0, ddof=1) if sub.shape[0] > 1 else 0.0
    global_var = np.var(scaled, axis=0, ddof=1) if d.n > 1 else np.zeros(m)
    means = np.ldexp(means, exponent)
    with np.errstate(over="ignore"):  # a variance beyond the largest float is inf
        variances = np.ldexp(variances, 2 * exponent)
        global_var = np.ldexp(global_var, 2 * exponent)
    too_wide = np.flatnonzero(~(np.isfinite(global_var) & np.isfinite(variances).all(axis=0)))
    if too_wide.size:
        names = ", ".join(repr(d.variable_names[j]) for j in too_wide[:5])
        raise DataError(f"variables {names}: variance exceeds the largest float; gnb cannot model it")
    max_var = float(np.max(global_var)) if m else 0.0
    smoothing = 1e-9 * max_var if max_var > 0 else 1e-9
    return GnbModel(
        classes=d.classes,
        priors=class_priors(d),
        variable_names=d.variable_names,
        means=means,
        variances=variances + smoothing,
        smoothing=smoothing,
    )


def _pick_label(log_scores: dict[str, float], priors: dict[str, float]) -> str:
    """Argmax label; exact ties go to the larger prior, then the smaller name."""
    best = max(log_scores.values())
    candidates = [c for c, s in log_scores.items() if s == best]
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda c: (-priors[c], c))


def _check_sample(sample, m: int) -> np.ndarray:
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape != (m,):
        raise ValueError(f"sample must be a vector of length {m}, got shape {sample.shape}")
    if not np.all(np.isfinite(sample)):
        raise ValueError("sample entries must be finite")
    return sample


def predict(model: XnbModel | GnbModel, sample) -> Prediction:
    """Score every class on a full sample (length m, finite) and pick the label.

    A KDE class reads only its own columns, ``sample[model.feature_columns[c]]``:
    log prior plus the sum of log densities, each clamped below at the
    configured floor so that scores stay finite for samples outside every
    training range. A gnb class sums Gaussian log densities over every
    variable.
    """
    sample = _check_sample(sample, model.m)
    if isinstance(model, GnbModel):
        log_density = -0.5 * (model._log_2pi_variances + (sample - model.means) ** 2 / model.variances)
        log_scores = {
            c: float(math.log(model.priors[c]) + log_density[i].sum())
            for i, c in enumerate(model.classes)
        }
    else:
        floor = model.config.floor
        log_scores = {}
        for c in model.classes:
            density = model.kde_bank[c].density_at(sample[model.feature_columns[c]])
            log_scores[c] = math.log(model.priors[c]) + float(np.log(np.maximum(density, floor)).sum())
    return Prediction(label=_pick_label(log_scores, model.priors), log_scores=log_scores)


def _encode_array(a: np.ndarray) -> dict:
    """An array node: little-endian float64 bytes, row-major, in base64."""
    a = np.ascontiguousarray(a, _ARRAY_DTYPE)
    return {"dtype": _ARRAY_DTYPE, "shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _model_payload(model: XnbModel | GnbModel) -> dict:
    payload = {
        "version": MODEL_SCHEMA_VERSION,
        "method": model.method,
        "classes": list(model.classes),
        "priors": dict(model.priors),
        "variables": list(model.variable_names),
    }
    if isinstance(model, GnbModel):
        payload["gnb"] = {
            "means": _encode_array(model.means),
            "variances": _encode_array(model.variances),
            "smoothing": model.smoothing,
        }
        return payload
    payload["config"] = {**asdict(model.config), "pair_order": "sorted-labels", "tie_break": "lexicographic"}
    payload["features"] = {c: list(model.features.features[c]) for c in model.classes}
    payload["kde"] = {
        c: {
            "kernel": model.kde_bank[c].kernel,
            "h": _encode_array(model.kde_bank[c].h),
            "samples": _encode_array(model.kde_bank[c].samples),
        }
        for c in model.classes
    }
    return payload


def save_model(model: XnbModel | GnbModel, path: str | Path) -> None:
    """Write a model as one compact line of versioned JSON.

    Every numeric array (a class's ``samples`` and ``h``, or the gnb
    ``means`` and ``variances``) is an ``{"dtype": "<f8", "shape", "data"}``
    node whose data is the array's little-endian float64 bytes, row-major,
    in base64; so arrays round-trip bit-exactly. Names, priors, the config
    and each class's selected variables stay readable JSON.
    """
    # one dumps call uses the C encoder; json.dump streams through the Python one
    write_output(json.dumps(_model_payload(model), separators=(",", ":"), allow_nan=False) + "\n", path)


def _decode_array(node) -> np.ndarray:
    """The read-only float64 array of a v3 array node; ValueError if the node is malformed."""
    if not isinstance(node, dict) or set(node) != {"dtype", "shape", "data"}:
        raise ValueError("an array must be a {dtype, shape, data} object")
    if node["dtype"] != _ARRAY_DTYPE:
        raise ValueError(f"array dtype {node['dtype']!r}, expected {_ARRAY_DTYPE!r}")
    shape = node["shape"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"array shape {shape!r} is not a list of non-negative integers")
    if not isinstance(node["data"], str):
        raise ValueError("array data must be a base64 string")
    try:
        raw = base64.b64decode(node["data"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"array data is not base64 ({exc})") from None
    expected = 8 * math.prod(shape)  # Python ints: a huge shape allocates nothing
    if len(raw) != expected:
        raise ValueError(f"array of shape {shape} needs {expected} bytes of data, got {len(raw)}")
    return np.frombuffer(raw, _ARRAY_DTYPE).reshape(shape)


def _list_array(value) -> np.ndarray:
    """The float64 array of a v2 nested list."""
    return np.array(value, dtype=np.float64)


def _names(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{what} must be a list of names")
    return tuple(value)


def _number(value, what: str) -> float:
    """A JSON number (not a string or a boolean) as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def load_model(path: str | Path) -> XnbModel | GnbModel:
    """Read a model file written by ``save_model``; predictions round-trip bit-exactly.

    Version 3 arrays are decoded from their base64 nodes and checked for
    dtype, shape and byte count; version 2 files, whose arrays are nested
    lists of decimal floats, are still read. Either way the arrays
    then go through the same model constructors, which reject a
    non-finite value. A malformed file, or one that cannot be opened, is a
    ``ModelFormatError``.
    """
    path = Path(path)
    if not path.exists():
        raise ModelFormatError(f"no such model file: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file ({exc})") from exc
    except OSError as exc:  # a directory, or a file without read permission
        raise ModelFormatError(f"{path}: cannot read ({exc.strerror or exc})") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"{path}: not a model file (a JSON {type(payload).__name__}, not an object)"
        )
    version = payload.get("version")
    if version not in (2, MODEL_SCHEMA_VERSION):
        raise ModelFormatError(
            f"{path}: schema version {version!r}, expected {MODEL_SCHEMA_VERSION} (or 2)"
        )
    try:
        array = _decode_array if version == MODEL_SCHEMA_VERSION else _list_array
        method = payload["method"]
        classes = _names(payload["classes"], "classes")
        priors = {c: _number(p, f"prior of class {c!r}") for c, p in payload["priors"].items()}
        variables = _names(payload["variables"], "variables")
        if method == "gnb":
            gnb = payload["gnb"]
            return GnbModel(
                classes=classes,
                priors=priors,
                variable_names=variables,
                means=array(gnb["means"]),
                variances=array(gnb["variances"]),
                smoothing=_number(gnb["smoothing"], "smoothing"),
            )
        cfg = payload["config"]
        if type(cfg["mu"]) is not int:
            raise ValueError(f"mu must be an integer, got {cfg['mu']!r}")
        config = XnbConfig(
            kernel=cfg["kernel"],
            bandwidth_rule=cfg["bandwidth_rule"],
            mu=cfg["mu"],
            theta=_number(cfg["theta"], "theta"),
            floor=_number(cfg["floor"], "floor"),
        )
        features = ClassFeatureMap(
            classes=classes,
            features={c: _names(payload["features"][c], f"features of class {c!r}") for c in classes},
        )
        bank = {
            c: PackedKde(array(entry["samples"]), array(entry["h"]), entry["kernel"])
            for c, entry in payload["kde"].items()
        }
        return XnbModel(
            classes=classes,
            priors=priors,
            features=features,
            kde_bank=bank,
            config=config,
            variable_names=variables,
            method=method,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc


__all__ = [
    "XnbConfig",
    "XnbModel",
    "GnbModel",
    "Prediction",
    "fit_xnb",
    "fit_fnb",
    "fit_gnb",
    "predict",
    "save_model",
    "load_model",
    "MODEL_SCHEMA_VERSION",
    "DEFAULT_FLOOR",
    "FIT_STAGES",
]
