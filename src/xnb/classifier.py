"""Class-specific KDE Bayes classifier plus Gaussian and full-KDE baselines.

A fitted KDE model holds one packed density per class: the class's
training rows restricted to its variable subset, one bandwidth per
variable and one kernel (``kde.PackedKde``). The fnb fit runs two stages,
per-(class, variable) bandwidths and the packed bank over every variable;
the xnb fit extends it with the Hellinger table, the per-class variable
selection, and a restriction of each class's density to its selected
columns (bandwidths are unchanged). ``predict`` is the one scoring
function: it checks a full sample, then scores each class over its own
columns only: log prior plus the sum of log densities floored at the
constant ``FLOOR``, in one vectorized kernel sum per class. ``scored_columns``
names the columns some class scores, the only ones ``xnb predict`` parses.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import Dataset, class_priors, write_output
from .errors import DataError, ModelFormatError, check_names, check_number, own
from .hellinger import check_mu, hellinger_table
from .kde import (
    BANDWIDTH_RULES,
    DEFAULT_KERNEL,
    DEFAULT_MU,
    DEFAULT_RULE,
    KERNELS,
    PackedKde,
    check_name,
    column_bandwidths,
    column_blocks,
)
from .selection import DEFAULT_THETA, ClassFeatureMap, SelectionConfig, select_class_specific

logger = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 3

METHODS = ("gnb", "fnb", "xnb")

# the one dtype of an array node in a model file
_ARRAY_DTYPE = "<f8"

# the lower clamp on every KDE density: it keeps log scores finite
FLOOR = 1e-12

# what every KDE model fixes, written into its file's config after the XnbConfig fields
_FIXED = {"floor": FLOOR, "pair_order": "sorted-labels", "tie_break": "lexicographic"}

FIT_STAGES = ("bandwidth", "kde", "hellinger", "select", "build")


@dataclass(frozen=True)
class XnbConfig:
    """The settings a KDE fit takes, carried by its model and written into its file.

    Names are spelled exactly as in ``KERNELS`` and ``BANDWIDTH_RULES``. A
    model file's config also holds the values in ``_FIXED``, which no fit varies.
    """

    kernel: str = DEFAULT_KERNEL
    bandwidth_rule: str = DEFAULT_RULE
    mu: int = DEFAULT_MU
    theta: float = DEFAULT_THETA

    def __post_init__(self):
        check_name(self.kernel, KERNELS, "kernel")
        check_name(self.bandwidth_rule, BANDWIDTH_RULES, "bandwidth rule")
        check_mu(self.mu)
        SelectionConfig(self.theta)


_CONFIG_KEYS = (*(f.name for f in fields(XnbConfig)), *_FIXED)


@dataclass(frozen=True)
class Prediction:
    label: str
    log_scores: dict[str, float]


def _check_header(classes, priors: dict[str, float], variable_names) -> tuple[tuple, tuple]:
    """The checks every model makes of its class names, priors and variable names; the checked names."""
    classes, variable_names = check_names(classes, "class names"), check_names(variable_names, "variable names")
    for c, p in priors.items():
        check_number(p, f"prior of class {c!r}")
    if set(priors) != set(classes):
        raise ValueError("priors must name exactly the model classes")
    if not all(0.0 < p <= 1.0 for p in priors.values()) or abs(sum(priors.values()) - 1.0) > 1e-9:
        raise ValueError("priors must lie in (0, 1] and sum to 1")
    return classes, variable_names


@dataclass(frozen=True, eq=False)
class XnbModel:
    """Class priors, per-class variable subsets, and one packed density per class.

    ``kde_bank[c]`` holds class c's density over ``features.features[c]``,
    one column per selected variable in that order, and ``feature_columns[c]``
    those variables' indices into a sample vector; ``scored_columns`` is the
    sorted union of those indices, the only columns ``predict`` reads.
    ``method`` is ``xnb`` or ``fnb``; each class of an fnb model lists every
    variable, in order. Every field but ``timings`` is kept through ``own``.
    """

    classes: tuple[str, ...]
    priors: dict[str, float]
    features: ClassFeatureMap
    kde_bank: dict[str, PackedKde]
    config: XnbConfig
    variable_names: tuple[str, ...]
    method: str = "xnb"
    timings: dict[str, float] | None = None
    feature_columns: dict[str, np.ndarray] = field(init=False, repr=False)
    scored_columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        classes, names = _check_header(self.classes, self.priors, self.variable_names)
        if self.method not in ("xnb", "fnb"):
            raise ValueError(f"a KDE model's method must be xnb or fnb, got {self.method!r}")
        if tuple(self.features.classes) != tuple(classes):
            raise ValueError(f"feature map classes {self.features.classes!r}, model classes {classes!r}")
        if set(self.kde_bank) != set(classes):
            raise ValueError("kde bank must name exactly the model classes")
        index = {v: j for j, v in enumerate(names)}
        feature_columns = {}
        scored = np.zeros(len(names), dtype=bool)
        for c in classes:
            feats = self.features.features[c]
            if self.method == "fnb" and tuple(feats) != tuple(names):
                raise ValueError(f"features of class {c!r} must list every variable, in order, in an fnb model")
            columns = np.fromiter((index.get(v, -1) for v in feats), np.intp, len(feats))
            if (columns < 0).any():
                listed = ", ".join([repr(v) for v, j in zip(feats, columns) if j < 0][:5])
                raise ValueError(f"class {c!r}: selected variables not in the model: {listed}")
            width = self.kde_bank[c].width
            if width != len(feats):
                raise ValueError(f"class {c!r}: kde holds {width} variables, {len(feats)} selected")
            kernel = self.kde_bank[c].kernel
            if kernel != self.config.kernel:
                raise ValueError(f"class {c!r}: kde kernel {kernel!r}, config kernel {self.config.kernel!r}")
            feature_columns[c] = columns
            scored[columns] = True
        own(self, classes=classes, priors=self.priors, kde_bank=self.kde_bank, variable_names=names)
        own(self, feature_columns=feature_columns, scored_columns=np.flatnonzero(scored))

    @property
    def m(self) -> int:
        return len(self.variable_names)


@dataclass(frozen=True, eq=False)
class GnbModel:
    """Gaussian naive Bayes: per-(class, variable) moments over all variables, as read-only copies.

    Every variance must be positive and ``2 pi variance`` finite: its log,
    the part of ``predict``'s log density that no sample changes, is kept
    as ``log_2pi_variances``. ``scored_columns`` is every column: each class
    scores all variables. Every field is kept through ``own``.
    """

    classes: tuple[str, ...]
    priors: dict[str, float]
    variable_names: tuple[str, ...]
    means: np.ndarray
    variances: np.ndarray
    smoothing: float
    log_2pi_variances: np.ndarray = field(init=False, repr=False)
    scored_columns: np.ndarray = field(init=False, repr=False)
    method = "gnb"  # a class attribute, not a field: every GnbModel is a gnb model

    def __post_init__(self):
        classes, names = _check_header(self.classes, self.priors, self.variable_names)
        check_number(self.smoothing, "smoothing")
        if not (math.isfinite(self.smoothing) and self.smoothing > 0):
            raise ValueError(f"smoothing must be positive and finite, got {self.smoothing!r}")
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        shape = (len(classes), len(names))
        if means.shape != shape or variances.shape != shape:
            raise ValueError(f"moment arrays must have shape {shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(variances > 0):  # NaN included; an infinite one fails the 2 pi rule below
            raise ValueError("variances must be finite and strictly positive after smoothing")
        with np.errstate(over="ignore"):
            log_2pi_variances = np.log(2.0 * np.pi * variances)
        too_wide = np.flatnonzero(~np.isfinite(log_2pi_variances).all(axis=0))
        if too_wide.size:
            listed = ", ".join(repr(names[j]) for j in too_wide[:5])
            problem = "2 pi times the variance exceeds the largest float; gnb cannot score it"
            raise ValueError(f"variables {listed}: {problem}")
        own(self, classes=classes, priors=self.priors, variable_names=names, means=means, variances=variances)
        own(self, log_2pi_variances=log_2pi_variances, scored_columns=np.arange(len(names)))

    @property
    def m(self) -> int:
        return len(self.variable_names)


def _check_trainable(d: Dataset) -> None:
    if len(d.classes) < 2:
        raise DataError(f"classification needs at least 2 classes, got {len(d.classes)}")


def _class_density(d: Dataset, c: str, config: XnbConfig, scale, timings: dict) -> PackedKde:
    """Class c's packed density over every variable; adds its stage seconds to ``timings``.

    The gathered block of the class's rows is freed at return: the density keeps its own copy.
    """
    t0 = time.perf_counter()
    block = d.values[d.class_rows[c]]
    h = column_bandwidths(config.bandwidth_rule, block, scale)
    t1 = time.perf_counter()
    density = PackedKde(block, h, config.kernel)
    timings["bandwidth"] += t1 - t0
    timings["kde"] += time.perf_counter() - t1
    return density


def fit_fnb(d: Dataset, config: XnbConfig = XnbConfig()) -> XnbModel:
    """KDE Bayes with selection disabled: every class keeps all variables.

    Its bank, one packed density per class over every variable, is the one
    that ``fit_xnb`` selects from and the Hellinger table is built from. The
    classes go one at a time: each class's rows are gathered, their
    bandwidths taken and the block packed into the bank before the next
    class is gathered, so the fit holds the bank plus one class block. The
    stage timings sum over the classes.
    """
    _check_trainable(d)
    singletons = [c for c in d.classes if len(d.class_rows[c]) < 2]
    if singletons:
        logger.warning(
            "classes with a single sample (%s): their densities use degenerate fallback bandwidths",
            ", ".join(singletons),
        )
    timings = dict.fromkeys(FIT_STAGES, 0.0)  # fnb restricts nothing: its build stage stays 0
    scale = d.column_max - d.column_min
    bank = {c: _class_density(d, c, config, scale, timings) for c in d.classes}

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


def fit_xnb(d: Dataset, config: XnbConfig = XnbConfig(), jobs: int = 1) -> XnbModel:
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
    index = {v: j for j, v in enumerate(d.variable_names)}
    selected = {c: bank[c].take([index[v] for v in features.features[c]]) for c in d.classes}
    timings["build"] = time.perf_counter() - t0

    return replace(full, features=features, kde_bank=selected, method="xnb", timings=timings)


def fit_gnb(d: Dataset) -> GnbModel:
    """Gaussian naive Bayes baseline over all variables.

    Class variances use the n-1 denominator and are smoothed by 1e-9 times
    the largest global per-variable variance, at least the smallest normal
    float (an absolute floor of 1e-9 keeps them positive when every variable
    is constant). The moments are taken of each column scaled by the power
    of two of its largest magnitude (exact, from the Dataset's column
    ranges) and scaled back, so sums of values near the largest float do not
    overflow; a variance that itself exceeds the largest float, or that
    ``GnbModel`` refuses after smoothing, is a data error naming the
    variable. The columns go through in ``column_blocks`` of the data, so
    the fit holds the model's moments plus one block's scaled values and
    their centred copies; each column's moments are those of the whole matrix.
    """
    _check_trainable(d)
    k, m = len(d.classes), d.m
    means = np.empty((k, m))
    variances = np.zeros((k, m))
    global_var = np.zeros(m)
    _, exponent = np.frexp(np.maximum(d.column_max, -d.column_min))
    for lo, hi in column_blocks(d.n, m):
        scaled = np.ldexp(d.values[:, lo:hi], -exponent[lo:hi])
        for i, c in enumerate(d.classes):
            sub = scaled[d.class_rows[c]]
            means[i, lo:hi] = sub.mean(axis=0)
            if sub.shape[0] > 1:
                variances[i, lo:hi] = np.var(sub, axis=0, ddof=1)
        if d.n > 1:
            global_var[lo:hi] = np.var(scaled, axis=0, ddof=1)
    np.ldexp(means, exponent, out=means)
    with np.errstate(over="ignore"):  # a variance beyond the largest float is inf
        np.ldexp(variances, 2 * exponent, out=variances)
        np.ldexp(global_var, 2 * exponent, out=global_var)
    too_wide = np.flatnonzero(~(np.isfinite(global_var) & np.isfinite(variances).all(axis=0)))
    if too_wide.size:
        names = ", ".join(repr(d.variable_names[j]) for j in too_wide[:5])
        raise DataError(f"variables {names}: variance exceeds the largest float; gnb cannot model it")
    max_var = float(np.max(global_var)) if m else 0.0
    smoothing = max(1e-9 * max_var, float(np.finfo(np.float64).tiny)) if max_var > 0 else 1e-9
    variances += smoothing
    try:
        return GnbModel(d.classes, class_priors(d), d.variable_names, means, variances, smoothing)
    except ValueError as exc:
        raise DataError(str(exc)) from None


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
    log prior plus the sum of log densities, each clamped below at ``FLOOR``
    so that scores stay finite for samples outside every training range. A
    gnb class sums Gaussian log densities over every variable; a score that is
    not finite, as for a sample too far from the class means, is a ``DataError``
    naming the class and the variable with the lowest log density.
    """
    sample = _check_sample(sample, model.m)
    if isinstance(model, GnbModel):
        with np.errstate(over="ignore"):  # an overflow gives a -inf score, refused below
            log_density = -0.5 * (model.log_2pi_variances + (sample - model.means) ** 2 / model.variances)
            log_scores = {
                c: float(math.log(model.priors[c]) + log_density[i].sum())
                for i, c in enumerate(model.classes)
            }
        for i, c in enumerate(model.classes):
            if not math.isfinite(log_scores[c]):
                v = model.variable_names[int(np.argmin(log_density[i]))]
                raise DataError(f"class {c!r}, variable {v!r}: the gnb log score is not finite")
    else:
        log_scores = {}
        for c in model.classes:
            density = model.kde_bank[c].density_at(sample[model.feature_columns[c]])
            log_scores[c] = math.log(model.priors[c]) + float(np.log(np.maximum(density, FLOOR)).sum())
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
    payload["config"] = {**asdict(model.config), **_FIXED}
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


def _fields(node, keys, where: str) -> list:
    """JSON object ``node``'s values in ``keys`` order if those are its keys; else a ValueError naming ``where``."""
    if isinstance(node, dict) and node.keys() == set(keys):
        return [node[k] for k in keys]
    if isinstance(node, dict):
        missing = [k for k in keys if k not in node]
        problem = f"missing {missing[0]!r}" if missing else f"unexpected {next(k for k in node if k not in keys)!r}"
    else:
        problem = f"not a {type(node).__name__}"
    raise ValueError(f"{where} must be a {{{', '.join(keys)}}} object, {problem}")


def _decode_array(node, where: str) -> np.ndarray:
    """The read-only float64 array of the array node ``where``; ValueError if it is malformed."""
    dtype, shape, data = _fields(node, ("dtype", "shape", "data"), where)
    if dtype != _ARRAY_DTYPE:
        raise ValueError(f"{where}: array dtype {dtype!r}, expected {_ARRAY_DTYPE!r}")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"{where}: array shape {shape!r} is not a list of non-negative integers")
    if not isinstance(data, str):
        raise ValueError(f"{where}: array data must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{where}: array data is not base64 ({exc})") from None
    expected = 8 * math.prod(shape)  # Python ints: a huge shape allocates nothing
    if len(raw) != expected:
        raise ValueError(f"{where}: array of shape {shape} needs {expected} bytes of data, got {len(raw)}")
    return np.frombuffer(raw, _ARRAY_DTYPE).reshape(shape)


def _names(value, what: str) -> tuple:
    """A JSON list of names as a tuple; the model constructors check the names."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of names")
    return tuple(value)


def load_model(path: str | Path) -> XnbModel | GnbModel:
    """Read a model file written by ``save_model``; predictions round-trip bit-exactly.

    The reader checks only the file: each JSON object holds exactly the
    keys that ``save_model`` writes there for the ``method`` (one of
    ``METHODS``), ``features`` and ``kde`` exactly the ``classes``; name
    lists are JSON lists, arrays are checked for dtype, shape and byte
    count, and ``config`` holds each value of ``_FIXED`` exactly. Every
    other rule is the model constructors' own, so a file loads exactly when
    ``save_model`` could have written it. Another schema version, a
    malformed file, or one that cannot be opened, is a ``ModelFormatError``.
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
        raise ModelFormatError(f"{path}: not a model file (a JSON {type(payload).__name__}, not an object)")
    version = payload.get("version", MODEL_SCHEMA_VERSION)  # a missing key fails the key check below
    if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # save_model writes the int, never 3.0
        raise ModelFormatError(f"{path}: schema version {version!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        method = payload.get("method", "xnb")  # likewise
        if method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, got {method!r}")
        body = ("gnb",) if method == "gnb" else ("config", "features", "kde")
        keys = ("version", "method", "classes", "priors", "variables", *body)
        _, _, classes, priors, variables, *body = _fields(payload, keys, "top level")
        classes, variables = _names(classes, "classes"), _names(variables, "variables")
        if method == "gnb":
            means, variances, smoothing = _fields(body[0], ("means", "variances", "smoothing"), "gnb")
            means, variances = _decode_array(means, "gnb.means"), _decode_array(variances, "gnb.variances")
            return GnbModel(classes, priors, variables, means, variances, smoothing)
        cfg, features, kde = body
        kernel, rule, mu, theta, *fixed = _fields(cfg, _CONFIG_KEYS, "config")
        for name, value in zip(_FIXED, fixed):
            if value != _FIXED[name]:
                raise ValueError(f"config.{name} must be {_FIXED[name]!r}, got {value!r}")
        config = XnbConfig(kernel, rule, mu, theta)
        features = _fields(features, classes, "features")
        features = {c: _names(f, f"features of class {c!r}") for c, f in zip(classes, features)}
        bank = {}
        for c, entry in zip(classes, _fields(kde, classes, "kde")):
            where = f"kde[{c!r}]"
            class_kernel, h, samples = _fields(entry, ("kernel", "h", "samples"), where)
            samples, h = _decode_array(samples, f"{where}.samples"), _decode_array(h, f"{where}.h")
            bank[c] = PackedKde(samples, h, class_kernel)
        return XnbModel(classes, priors, ClassFeatureMap(classes, features), bank, config, variables, method)
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
    "METHODS",
    "FLOOR",
    "FIT_STAGES",
]
