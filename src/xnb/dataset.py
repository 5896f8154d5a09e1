"""Labeled numeric matrices: CSV ingestion, class priors, stratified folds.

Values are stored column-major (Fortran order) for two readers: the
dependence scan transposes its within-class residuals into one row per
variable without a copy, and gnb sums each column's variance in the order
this layout gives (a row-major copy moves its smoothing in the last bits).
The KDE bank itself is sample-major: ``PackedKde`` keeps a C-order copy.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError

# Shuffle generator used for fold assignment. Recorded in reports so fold
# splits are reproducible across builds and platforms.
FOLD_GENERATOR = "pcg64"


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled numeric matrix.

    ``values`` is an (n, m) float64 array with one sample per row and one
    variable per column; ``labels`` carries the class of each row and
    ``classes`` is the sorted distinct label set. The values given (an
    array, or a sequence of rows) are stacked into a read-only copy that
    the Dataset owns: no array of the caller's can change it.
    """

    variable_names: tuple[str, ...]
    values: np.ndarray
    labels: tuple[str, ...]
    classes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="F")
        if values.ndim != 2:
            raise DataError(f"values must be 2-dimensional, got shape {values.shape}")
        n, m = values.shape
        if n < 1 or m < 1:
            raise DataError(f"dataset must have at least one sample and one variable, got {n}x{m}")
        if len(self.variable_names) != m:
            raise DataError(f"{len(self.variable_names)} variable names for {m} columns")
        if len(self.labels) != n:
            raise DataError(f"{len(self.labels)} labels for {n} samples")
        with np.errstate(over="ignore", invalid="ignore"):
            # finite unless a value is not, or some column's range may be beyond the largest float
            spread = values.max() - values.min()
            if not np.isfinite(spread):
                if not np.all(np.isfinite(values)):
                    bad = np.argwhere(~np.isfinite(values))[0]
                    raise DataError(f"non-finite value at sample {bad[0]}, variable {self.variable_names[bad[1]]!r}")
                lo, hi = values.min(axis=0), values.max(axis=0)
                wide = np.flatnonzero(~np.isfinite(hi - lo))
                if wide.size:
                    j = wide[0]
                    raise DataError(
                        f"variable {self.variable_names[j]!r}: values from {lo[j]:g} to {hi[j]:g}"
                        " span more than the largest float"
                    )
        names = tuple(self.variable_names)
        bad = [name for name in names if not isinstance(name, str)]
        if bad:
            raise DataError(f"variable names must be strings, got {bad[0]!r}")
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "classes", tuple(sorted(set(self.labels))))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @cached_property
    def variable_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.variable_names)}

    @cached_property
    def class_rows(self) -> dict[str, np.ndarray]:
        """Row indices of each class, in class order."""
        return rows_by_label(self.labels)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset over a row subset (classes recomputed).

        The rows go to the new Dataset as views, so its column-major matrix
        is the one copy made (a fancy-indexed ``values[rows]`` would be a
        second, row-major one).
        """
        rows = np.asarray(rows)
        labels = [self.labels[i] for i in rows]
        return Dataset(self.variable_names, [self.values[i] for i in rows], tuple(labels))


def rows_by_label(labels) -> dict[str, np.ndarray]:
    """Row indices of each distinct label, in sorted order; compared as Python strings.

    (A numpy str array drops trailing NULs, which merges ``"a"`` and ``"a\\x00"``.)
    """
    classes = sorted(set(labels))
    index = {c: i for i, c in enumerate(classes)}
    codes = np.fromiter((index[label] for label in labels), dtype=np.intp, count=len(labels))
    return {c: np.flatnonzero(codes == i) for i, c in enumerate(classes)}


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    """The error for a file that failed to decode, naming its first bad line.

    The decoder's offsets are relative to a buffered chunk, so the file is
    read again a line at a time (a newline byte never occurs inside a
    UTF-8 sequence).
    """
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                where = f"line {lineno}, byte {bad.start + 1}"
                return DataError(f"{path}: {where}: not UTF-8 text ({line[bad.start]:#04x}: {bad.reason})")
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")


def write_output(text: str, path: str | Path | None = None) -> None:
    """Write ``text`` to ``path`` as UTF-8, or to stdout when ``path`` is None.

    A path that cannot be written is a data error.
    """
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def write_json(payload, path: str | Path | None = None) -> None:
    """Write ``payload`` as JSON indented by one space; a NaN or infinity in it is a ValueError."""
    write_output(json.dumps(payload, indent=1, allow_nan=False) + "\n", path)


def _cannot_write(path, exc: OSError) -> DataError:
    return DataError(f"{path}: cannot write ({exc.strerror or exc})")


@contextmanager
def csv_records(path: str | Path):
    """Open a headered CSV; yield its stripped header and its rows.

    The file is UTF-8, with or without a byte order mark. The rows come as
    (line number, fields) pairs, blank rows skipped. A missing, unopenable
    or empty file, text that is not UTF-8, a row the csv module refuses
    (such as one with a field over its size limit), a header that repeats
    a name and a row whose field count differs from the header's are data
    errors; a row's error is raised when the iteration reaches it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:  # a directory, or a file without read permission
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        except csv.Error as exc:
            raise DataError(f"{path}: row 1: {exc}") from None
        seen = set()
        for name in header:
            if name in seen:
                raise DataError(f"{path}: duplicate column name {name!r} in the header")
            seen.add(name)

        def rows():
            lineno = 1
            try:
                for lineno, record in enumerate(reader, start=2):
                    if not record:
                        continue
                    if len(record) != len(header):
                        raise DataError(f"{path}: row {lineno} has {len(record)} fields, header has {len(header)}")
                    yield lineno, record
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, exc) from None
            except csv.Error as exc:  # raised while reading the row after the last one yielded
                raise DataError(f"{path}: row {lineno + 1}: {exc}") from None

        yield header, rows()


def read_numeric(path: Path, header: list[str], records, columns: list[int], label: int | None = None):
    """Parse ``columns`` of ``csv_records`` rows: yield each as a float64 row and ``label``'s stripped cell.

    The cell is None without a ``label`` column. Each row is checked as it is read: its label
    must be non-blank, then every cell must go through ``float()`` and be finite. Only a row
    that fails is walked again, cell by cell in that order, to name its first bad cell, so the
    file is read once. A row is yielded as soon as it is read, so the caller decides what it
    keeps; a file without data rows is an error once the rows run out.
    """
    count = 0
    for lineno, record in records:
        try:
            row = np.fromiter(map(float, map(record.__getitem__, columns)), np.float64, len(columns))
            ok = np.isfinite(row).all()
        except ValueError:
            ok = False
        cell = None if label is None else record[label].strip()
        if cell == "":
            raise DataError(f"{path}: row {lineno}, column {header[label]!r}: empty class label")
        if not ok:
            for i in columns:
                where = f"{path}: row {lineno}, column {header[i]!r}"
                try:
                    value = float(record[i])
                except ValueError:
                    raise DataError(f"{where}: cannot parse {record[i].strip()!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{where}: missing or non-finite value")
        count += 1
        yield row, cell
    if not count:
        raise DataError(f"{path}: no data rows")


def load_csv(path: str | Path, class_column: str | int) -> Dataset:
    """Load a headered, comma-separated file into a Dataset.

    The class column (selected by header name or 0-based index) is removed
    from the value matrix and kept as labels. Every class cell must be
    non-blank and every other cell must parse as a finite real; the first
    offending cell is reported by row and column.
    """
    path = Path(path)
    with csv_records(path) as (header, records):
        if isinstance(class_column, int):
            if not -len(header) <= class_column < len(header):
                raise DataError(f"class column index {class_column} out of range for {len(header)} columns")
            class_idx = class_column % len(header)
        else:
            try:
                class_idx = header.index(class_column)
            except ValueError:
                raise DataError(f"class column {class_column!r} not found in header") from None
        columns = [i for i in range(len(header)) if i != class_idx]
        rows, labels = [], []
        for row, cell in read_numeric(path, header, records, columns, label=class_idx):
            rows.append(row)
            labels.append(cell)
    return Dataset(tuple(header[i] for i in columns), rows, tuple(labels))


# save_csv formats this many cells at a time, so that its temporaries stay at a
# few MB whatever the shape; a row wider than this spans blocks
_BLOCK_CELLS = 1 << 13
_CELL_BYTES = 25  # the longest "%.17g," text, such as "-2.2250738585072014e-308,"


def _veltkamp(x):
    """Split ``x`` into a part of at most 26 significant bits and the exact rest."""
    c = 134217729.0 * x  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


# 10^(16 - k) for the decimal exponents k = -4..15: exact doubles (10^j is, for j <= 22)
_SCALES = np.array([float(10**j) for j in range(20, 0, -1)])
_SCALE_HIGH, _SCALE_LOW = _veltkamp(_SCALES)


def _four_digits() -> np.ndarray:
    """The ASCII of 0000..9999 as 10 000 little-endian uint32s, then the same with trailing zeros as NUL bytes.

    Built for each ``save_csv`` call, not at import: most processes never write a CSV, and a
    table kept for the process's life would pin the heap above whatever the call freed.
    """
    i = np.arange(10_000)
    chars = np.empty((2, 10_000, 4), np.uint8)
    for column, place in enumerate((1000, 100, 10, 1)):
        chars[:, :, column] = i // place % 10 + 48
        chars[1, i % (10 * place) == 0, column] = 0  # this digit and each after it are 0
    return chars.reshape(20_000, 4).view("<u4").ravel()


def _format_rows(block: np.ndarray, four_digits: np.ndarray) -> list[str]:
    """Each row of a 2-d float64 array as its cells' ``"%.17g," % v`` texts, joined.

    A cell with 1e-4 <= |v| < 1e16 prints in positional notation, with its 17 significant
    digits N = round-half-even(|v| * 10^(16 - k)) for the decimal exponent k in [-4, 15].
    N is exact as p + rint(e), where p + e is Dekker's error-free product: p >= 2^53 is an
    even integer, so rounding e half-even rounds the sum half-even. The cells are stably
    sorted by k, so that each k places its '.' with slices, and the text drops the trailing
    fraction zeros, and then a bare '.', as %g does; every other cell (±0, a subnormal,
    |v| < 1e-4 or |v| >= 1e16) goes through ``"%.17g" % v``. Each cell takes one row of
    ``_CELL_BYTES`` bytes, and the NUL bytes it does not fill are dropped.
    """
    values = block.ravel()
    magnitude = np.abs(values)
    positional = (magnitude >= 1e-4) & (magnitude < 1e16)
    x = np.where(positional, magnitude, 1.0)
    k = np.clip(np.floor(np.log10(x)), -4, 15).astype(np.intp)  # may be one off near a power of ten
    x_high, x_low = _veltkamp(x)
    while True:
        scale, scale_high, scale_low = _SCALES[k + 4], _SCALE_HIGH[k + 4], _SCALE_LOW[k + 4]
        product = x * scale
        error = ((x_high * scale_high - product) + x_high * scale_low + x_low * scale_high) + x_low * scale_low
        below = (product < 1e16) | ((product == 1e16) & (error < 0))  # product + error < 1e16
        above = (product > 1e17) | ((product == 1e17) & (error >= 0))
        if not (below.any() or above.any()):
            break
        k += above
        k -= below
    mantissa = product.astype(np.int64) + np.rint(error).astype(np.int64)
    carry = mantissa == 10**17  # rounded up to 18 digits: one more integer digit
    mantissa[carry] = 10**16
    k += carry

    group = np.where(positional, k + 4, 21).astype(np.int8)  # k + 4 in [0, 20]; 21 for the cells %g formats
    order = np.argsort(group, kind="stable")
    mantissa = mantissa[order]
    words = np.empty((values.size, 5), "<u4")  # byte 3 holds the first digit, bytes 4-19 the other 16
    stripped = np.full(values.size, 10_000)  # the offset of the NUL-stripped digits while all later ones are 0
    for column in range(4, 0, -1):
        mantissa, four = np.divmod(mantissa, 10_000)
        four += stripped
        words[:, column] = four_digits[four]
        stripped[four != stripped] = 0
    words[:, 0] = (mantissa + 48) << 24
    digits = words.view(np.uint8)[:, 3:]  # the 17 digits, trailing zeros as NUL

    cells = np.zeros((values.size, _CELL_BYTES), np.uint8)
    cells[:, 0] = np.where(np.signbit(values[order]), 45, 0)  # '-'
    cells[:, -1] = 44  # ','
    start = 0
    for g, end in enumerate(np.cumsum(np.bincount(group, minlength=22)).tolist()):
        rows, start, exponent = slice(start, end), end, g - 4
        if rows.start == rows.stop:
            continue
        if g == 21:
            text = ["%.17g" % v for v in values[order[rows]].tolist()]
            cells[rows, :-1] = np.array(text, f"S{_CELL_BYTES - 1}").view(np.uint8).reshape(-1, _CELL_BYTES - 1)
        elif exponent < 0:
            cells[rows, 1 : 2 - exponent] = np.frombuffer(b"0.000"[: 1 - exponent], np.uint8)
            cells[rows, 2 - exponent : 19 - exponent] = digits[rows]
        else:  # integer digits keep their zeros; the '.' goes when every fraction digit went
            np.maximum(digits[rows, : exponent + 1], 48, out=cells[rows, 1 : exponent + 2])
            if exponent < 16:
                cells[rows, exponent + 2] = np.where(digits[rows, exponent + 1], 46, 0)
                cells[rows, exponent + 3 : 19] = digits[rows, exponent + 1 :]
    unsorted = np.empty_like(cells)
    unsorted.view(f"V{_CELL_BYTES}")[order] = cells.view(f"V{_CELL_BYTES}")  # one move per row
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in unsorted.reshape(len(block), -1)]


def save_csv(d: Dataset, path: str | Path, class_column: str = "class") -> None:
    """Write a Dataset back to CSV with 17-significant-digit reals.

    The emitted precision makes a load/save/load round trip bit-exact. A Dataset that
    ``load_csv`` would not read back as it is gets refused before the file is opened;
    a path that cannot be written is a data error. The output is byte-identical to
    formatting each cell with ``format(v, ".17g")``, and it is written block by block
    in bounded memory.
    """
    header = [*d.variable_names, class_column]
    if class_column in d.variable_names:
        raise DataError(f"{path}: class column {class_column!r} is also a variable name")
    if "" in d.classes:
        raise DataError(f"{path}: blank class label")
    for text in (*header, *d.classes):
        if text != text.strip():
            raise DataError(f"{path}: {text!r} has surrounding whitespace, which load_csv strips")
    rows_per_block, cols_per_block = max(1, _BLOCK_CELLS // d.m), min(d.m, _BLOCK_CELLS)
    four_digits = _four_digits()
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(0, d.n, rows_per_block):
                for j in range(0, d.m, cols_per_block):
                    texts = _format_rows(d.values[i : i + rows_per_block, j : j + cols_per_block], four_digits)
                    if j + cols_per_block < d.m:  # the row goes on in the next block
                        fh.write(texts[0])
                        continue
                    for text, label in zip(texts, d.labels[i : i + rows_per_block]):
                        fh.write(text)
                        writer.writerow([label])  # quoted as the csv module quotes it
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def class_priors(d: Dataset) -> dict[str, float]:
    """Relative class frequencies; sum to 1 up to rounding."""
    n = d.n
    return {c: len(rows) / n for c, rows in d.class_rows.items()}


def stratified_kfold(d: Dataset, k: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment: a read-only intp array whose entry i is sample i's fold.

    Each class is shuffled with a PCG64 generator seeded by ``seed`` and
    dealt round-robin, so per-fold class counts differ by at most one.
    Classes with fewer than k samples simply miss some folds.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > d.n:
        raise ValueError(f"k={k} exceeds sample count n={d.n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.empty(d.n, dtype=np.intp)
    offset = 0
    for c in d.classes:
        perm = rng.permutation(d.class_rows[c])
        assignments[perm] = (offset + np.arange(perm.size)) % k
        # rotate the starting fold so leftover samples spread across folds
        offset = (offset + perm.size) % k
    assignments.setflags(write=False)
    return assignments
