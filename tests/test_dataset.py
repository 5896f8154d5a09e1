import csv
import math
import re
import tempfile
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import xnb.dataset
from xnb.dataset import Dataset, class_priors, csv_records, load_csv, save_csv, stratified_kfold
from xnb.errors import DataError

from tests.conftest import NAME_BYTES, traced_peak, wide_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def oracle_save_csv(d: Dataset, path, class_column: str = "class") -> None:
    """The writer with one ``format(v, ".17g")`` per cell."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(d.variable_names) + [class_column])
        for i in range(d.n):
            writer.writerow([format(v, ".17g") for v in d.values[i]] + [d.labels[i]])


def oracle_load_csv(path, class_column: str | int) -> Dataset:
    """The reader with one ``float()`` and one finiteness check per cell, in file order."""
    path = Path(path)
    rows, labels = [], []
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
        names = tuple(h for i, h in enumerate(header) if i != class_idx)
        for lineno, record in records:
            label = record[class_idx].strip()
            if not label:
                raise DataError(f"{path}: row {lineno}, column {header[class_idx]!r}: empty class label")
            labels.append(label)
            row = []
            for i, cell in enumerate(record):
                if i == class_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno}, column {header[i]!r}: cannot parse {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: row {lineno}, column {header[i]!r}: missing or non-finite value")
                row.append(value)
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(names, np.array(rows, dtype=np.float64), tuple(labels))


def oracle_kfold(d: Dataset, k: int, seed: int) -> np.ndarray:
    """The fold of each sample, dealt one row at a time from each class's shuffle."""
    rng = np.random.Generator(np.random.PCG64(seed))
    assignments = np.empty(d.n, dtype=np.intp)
    offset = 0
    for c in d.classes:
        perm = rng.permutation(d.class_rows[c])
        for j, row in enumerate(perm):
            assignments[row] = (offset + j) % k
        offset = (offset + len(perm)) % k
    return assignments


def outcome(read, path, class_column):
    """``read``'s Dataset as comparable parts (values as raw bits), or its DataError message."""
    try:
        d = read(path, class_column)
    except DataError as exc:
        return str(exc)
    return d.variable_names, d.labels, d.values.shape, d.values.tobytes()


def _nudged(x: float, steps: int) -> float:
    """``x`` moved ``steps`` doubles up (or down, for a negative count)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _carries() -> list[float]:
    """Doubles just below a power of ten whose 17-digit rounding carries up to it, such as 1e-305."""
    found = []
    for j in range(-323, 309):
        power = Fraction(10) ** j
        below = float(power) if Fraction(float(power)) < power else math.nextafter(float(power), 0.0)
        if re.fullmatch(r"1e[-+]\d+", format(below, ".17g")):
            found.append(below)
    return found


def _ties() -> list[float]:
    """Doubles a / 2^f whose exact decimal expansion has 18 significant digits, the last a 5.

    Rounding them to 17 digits is a tie, which %g breaks to the even digit; (2^52 - 1) / 4
    = 1125899906842623.75 is one.
    """
    found = []
    for f in range(2, 40):
        lowest = math.ceil(Fraction(10) ** (17 - f) * 2**f) | 1
        for a in (lowest, lowest + 2, lowest + 6, 2**52 - 1, 2**53 - 1, 3 * 2**51 + 1):
            digits = Decimal(a / 2**f).as_tuple().digits
            if a < 2**53 and len(digits) == 18 and digits[-1] == 5:
                found.append(a / 2**f)
    return found


# cells where a 17-digit writer can go wrong, each with both signs: a few doubles either
# side of each power of ten near and inside [1e-4, 1e16), where cells print in positional
# notation; carries and ties; zero, the smallest subnormal and normal, and the largest double
EDGE_CELLS = [
    sign * v
    for v in [
        *(_nudged(float(f"1e{j}"), steps) for j in range(-6, 18) for steps in range(-3, 4)),
        *_carries(),
        *_ties(),
        0.0,
        5e-324,
        2.2250738585072014e-308,
        1.7976931348623157e308,
    ]
    for sign in (1.0, -1.0)
]

# Cells a CSV meets: numbers as float() reads them (padded, quoted, with
# underscores or non-ASCII digits), and cells that fail float() or the
# finiteness check, or make a blank label, a quoted comma or a shifted row.
NUMBERS = ["1", "-2.5e-3", " 7 ", "1_0", "\u0663", '"4"', "-0", "4.9e-324", "1e308"]
LABELS = ["A", "B", "é", '"a,b"', '"A"']
ODD = ["", "  ", " B ", "x", "0x1", "1e999", "nan", "-inf", "Infinity", "1,5", '"1,5"', '"']
QUOTABLE = st.text(st.sampled_from('Ab é,"\n\r;'), min_size=1, max_size=5)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "g1,g2,class\n1,2,A\n3,4,B\n5,6,A\n7,8,B\n")
        d = load_csv(path, "class")
        assert d.n == 4 and d.m == 2
        assert d.variable_names == ("g1", "g2")
        assert d.classes == ("A", "B")
        np.testing.assert_array_equal(d.values[:, 0], [1, 3, 5, 7])

    def test_class_column_by_index(self, tmp_path):
        path = write(tmp_path, "label,g1\nA,1\nB,2\n")
        d = load_csv(path, 0)
        assert d.variable_names == ("g1",)
        assert d.labels == ("A", "B")

    def test_nan_cell_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "g1,g2,class\n1,NaN,A\n3,4,B\n")
        with pytest.raises(DataError, match=r"row 2.*'g2'"):
            load_csv(path, "class")

    def test_unparseable_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "g1,g2,class\n1,2,A\n3,oops,B\n")
        with pytest.raises(DataError, match=r"row 3.*'g2'.*'oops'"):
            load_csv(path, "class")

    def test_single_class_still_loads(self, tmp_path):
        path = write(tmp_path, "g1,class\n1,A\n2,A\n")
        d = load_csv(path, "class")
        assert d.classes == ("A",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "class")

    def test_missing_class_column(self, tmp_path):
        path = write(tmp_path, "g1,g2\n1,2\n")
        with pytest.raises(DataError, match="'label' not found"):
            load_csv(path, "label")

    def test_duplicate_header_names_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g1,class\n1,2,A\n3,4,B\n")
        with pytest.raises(DataError, match="duplicate column name 'g1'"):
            load_csv(path, "class")

    def test_duplicate_class_column_name_rejected(self, tmp_path):
        # without the check, the first copy is the class column and the
        # second is silently read as a variable named 'class'
        path = write(tmp_path, "class,g1,class\nA,1,2\nB,3,4\n")
        with pytest.raises(DataError, match="duplicate column name 'class'"):
            load_csv(path, "class")

    @pytest.mark.parametrize("cell", ["", "  "])
    def test_empty_class_label_reports_location(self, tmp_path, cell):
        path = write(tmp_path, f"g1,g2,class\n1,2,A\n3,4,{cell}\n5,6,B\n")
        with pytest.raises(DataError, match=r"row 3, column 'class': empty class label"):
            load_csv(path, "class")

    @pytest.mark.parametrize("row", ["3,4", "3,4,B,5"])
    def test_row_width_differs_from_header(self, tmp_path, row):
        path = write(tmp_path, f"g1,g2,class\n1,2,A\n{row}\n")
        with pytest.raises(DataError, match=r"row 3 has \d fields, header has 3"):
            load_csv(path, "class")

    def test_earliest_bad_row_is_reported(self, tmp_path):
        # NaN in row 2, text in row 4, a short row 5: the reader stops at row 2
        path = write(tmp_path, "g1,g2,class\nnan,1,A\n1,2,B\nx,3,A\n4,B\n")
        message = f"{path}: row 2, column 'g1': missing or non-finite value"
        with pytest.raises(DataError) as exc:
            load_csv(path, "class")
        assert str(exc.value) == message == outcome(oracle_load_csv, path, "class")

    def test_bad_cell_found_in_one_pass(self, tmp_path, monkeypatch):
        opened = []

        @contextmanager
        def counting(path):
            opened.append(path)
            with csv_records(path) as records:
                yield records

        monkeypatch.setattr(xnb.dataset, "csv_records", counting)
        path = write(tmp_path, "g1,g2,class\n1,2,A\n3,oops,B\n5,6,A\n")
        with pytest.raises(DataError, match=r"row 3, column 'g2': cannot parse 'oops'"):
            load_csv(path, "class")
        assert opened == [path]

    def test_field_over_the_csv_limit_is_data_error(self, tmp_path):
        limit = csv.field_size_limit()
        path = write(tmp_path, f"g1,class\n1,A\n{'1' * (limit + 1)},B\n2,A\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "class")
        assert str(exc.value) == f"{path}: row 3: field larger than field limit ({limit})"

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError) as exc:
            load_csv(tmp_path, "class")
        assert str(exc.value) == f"{tmp_path}: cannot read (Is a directory)"

    def test_wide_file_memory_is_the_parsed_rows_and_one_copy(self, tmp_path):
        # 65 rows: the parsed rows and the Dataset's column-major stack of
        # them, plus 512 bytes a column for the header and one row's cell
        # strings (a 128-row buffer beside the stack takes 3.6 MB)
        m = 2000
        values = np.random.default_rng(7).normal(size=(65, m))
        d = Dataset(tuple(f"g{j}" for j in range(m)), values, ("A", "B") * 32 + ("A",))
        save_csv(d, tmp_path / "wide.csv")
        bound = 2 * 65 * 8 * m + 512 * m  # 3.1 MB
        back, peak = traced_peak(lambda: load_csv(tmp_path / "wide.csv", "class"))
        np.testing.assert_array_equal(back.values, d.values)
        assert peak < bound

    def test_scientific_notation_accepted(self, tmp_path):
        path = write(tmp_path, "g1,class\n1.5e-3,A\n-2E+2,B\n")
        d = load_csv(path, "class")
        np.testing.assert_allclose(d.values[:, 0], [1.5e-3, -200.0])

    @given(
        st.lists(
            st.tuples(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS), st.sampled_from(LABELS)),
            min_size=1,
            max_size=5,
        ),
        # (row, field, cell): field 0-2 is overwritten with cell, 3 appends it, 4 drops the last field
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(ODD)), max_size=2),
        st.lists(st.sampled_from([None, None, "", "  "]), min_size=5, max_size=5),
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from(["class", "class", -1, "g1"]),
    )
    @example([("1", "2", "A"), ("x", "nan", " ")], [], [None] * 5, "\n", "class")  # label before cells
    @example([("inf", "1", "A"), ("1", "2", "B")], [(1, 3, "3")], [None] * 5, "\n", -1)  # cells before widths
    @settings(max_examples=400, deadline=None)
    def test_matches_cell_by_cell_oracle(self, rows, edits, gaps, newline, class_column):
        rows = [list(row) for row in rows]
        for i, field, cell in edits:
            row = rows[i] if i < len(rows) else []
            if field == 3:
                row.append(cell)
            elif field == 4 and row:
                row.pop()
            elif field < len(row):
                row[field] = cell
        lines = ["g1,g2,class"]
        for row, gap in zip(rows, gaps):  # a gap is a blank or whitespace-only line after a row
            lines.append(",".join(row))
            if gap is not None:
                lines.append(gap)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(newline.join(lines + [""]).encode("utf-8"))
            assert outcome(load_csv, path, class_column) == outcome(oracle_load_csv, path, class_column)

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.tuples(
                st.lists(QUOTABLE.filter(lambda t: t == t.strip() and t != "class"),
                         min_size=m, max_size=m, unique=True),
                st.lists(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from([1e308, -1e308, *EDGE_CELLS]),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=1,
                    max_size=4,
                ),
            )
        ),
        st.lists(QUOTABLE.filter(lambda t: t == t.strip() and t), min_size=4, max_size=4),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_save_matches_oracle_and_round_trips(self, names_rows, labels):
        names, rows = names_rows
        values = np.array(rows)
        with np.errstate(over="ignore"):
            wide = ~np.isfinite(values.max(axis=0) - values.min(axis=0))
        if wide.any():  # a range beyond the largest float is refused, naming the variable
            with pytest.raises(DataError, match=re.escape(f"variable {names[np.flatnonzero(wide)[0]]!r}: values from")):
                Dataset(tuple(names), values, tuple(labels[: len(rows)]))
            return
        d = Dataset(tuple(names), values, tuple(labels[: len(rows)]))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            save_csv(d, new)
            oracle_save_csv(d, old)
            assert new.read_bytes() == old.read_bytes()
            back = load_csv(new, "class")
        assert back.values.tobytes() == d.values.tobytes()
        assert back.labels == d.labels and back.variable_names == d.variable_names

    def test_save_matches_oracle_on_edge_cells(self, tmp_path):
        assert len(_carries()) > 10 and len(_ties()) > 50
        # one row, so that no column's range (1.8e308 beside -1.8e308) is refused
        d = Dataset(tuple(f"v{j}" for j in range(len(EDGE_CELLS))), np.array([EDGE_CELLS]), ("A",))
        save_csv(d, tmp_path / "new.csv")
        oracle_save_csv(d, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize(
        "m", [1, 7, xnb.dataset._BLOCK_CELLS // 2 + 1, xnb.dataset._BLOCK_CELLS, xnb.dataset._BLOCK_CELLS + 1]
    )
    def test_save_matches_oracle_across_blocks(self, tmp_path, m):
        # rows that fill a block, rows a block holds one of, and rows wider than a block
        cells = np.array([v for v in EDGE_CELLS if abs(v) < 1e300])
        n = max(3, -(-cells.size // m))
        values = np.random.default_rng(m).permutation(np.resize(cells, n * m)).reshape(n, m)
        d = Dataset(tuple(f"v{j}" for j in range(m)), values, tuple("AB"[i % 2] for i in range(n)))
        save_csv(d, tmp_path / "new.csv")
        oracle_save_csv(d, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n, m, bound_mb", [(300, 2_500, 4), (100, 20_000, 8)])
    def test_save_memory_is_bounded(self, tmp_path, n, m, bound_mb):
        # the writer holds one block of cells at a time, never the file's text
        d = Dataset(tuple(f"g{j}" for j in range(m)), np.random.default_rng(5).normal(size=(n, m)), ("A", "B") * (n // 2))
        _, peak = traced_peak(lambda: save_csv(d, tmp_path / "out.csv"))
        assert peak <= bound_mb * 10**6

    def test_save_memory_does_not_grow_with_rows(self, tmp_path):
        def peak(n):
            d = Dataset(tuple(f"g{j}" for j in range(2_500)), np.random.default_rng(5).normal(size=(n, 2_500)), ("A",) * n)
            return traced_peak(lambda: save_csv(d, tmp_path / "out.csv"))[1]

        assert peak(400) <= 1.1 * peak(100)

    @pytest.mark.parametrize(
        "names, labels, message",
        [
            (("g1", "class"), ("A", "B"), "class column 'class' is also a variable name"),
            (("g1", "g2"), ("A", ""), "blank class label"),
            (("g1", "g2"), ("A", " A"), "' A' has surrounding whitespace"),
            (("g1", "g2 "), ("A", "B"), "'g2 ' has surrounding whitespace"),
        ],
    )
    def test_save_refuses_what_load_cannot_read_back(self, tmp_path, names, labels, message):
        d = Dataset(names, np.zeros((2, 2)), labels)
        out = write(tmp_path, "kept\n")
        with pytest.raises(DataError, match=message):
            save_csv(d, out)
        assert out.read_text() == "kept\n"

    def test_save_into_missing_directory_is_data_error(self, tmp_path):
        d = Dataset(("g1",), np.zeros((2, 1)), ("A", "B"))
        out = tmp_path / "absent" / "x.csv"
        with pytest.raises(DataError, match=re.escape(f"{out}: cannot write (")):
            save_csv(d, out)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        values = rng.normal(size=(20, 5)) * 10.0 ** rng.integers(-8, 8, size=(20, 5))
        d = Dataset(tuple(f"v{i}" for i in range(5)), values, tuple(rng.choice(["A", "B"], 20)))
        out = tmp_path / "round.csv"
        save_csv(d, out)
        back = load_csv(out, "class")
        np.testing.assert_array_equal(back.values, d.values)
        assert back.labels == d.labels


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(("x",), np.array([[np.inf]]), ("A",))

    def test_rejects_a_range_beyond_the_largest_float(self):
        values = np.array([[1e308, 1e308, 0.0], [-1e308, 1.0, 5.0]])
        with pytest.raises(DataError, match="variable 'x': values from -1e[+]308 to 1e[+]308 span more"):
            Dataset(("x", "y", "z"), values, ("A", "B"))
        Dataset(("x",), np.array([[1.7e308], [0.0], [-1e-300]]), ("A", "B", "A"))  # a wide range that fits
        Dataset(("x", "y"), np.array([[1e308, -1e308], [1e308, -1e308]]), ("A", "B"))  # apart only across columns

    def test_rejects_shape_mismatches(self):
        with pytest.raises(DataError):
            Dataset(("x", "y"), np.zeros((2, 1)), ("A", "B"))
        with pytest.raises(DataError):
            Dataset(("x",), np.zeros((2, 1)), ("A",))

    def test_classes_sorted(self):
        d = Dataset(("x",), np.zeros((3, 1)), ("zeta", "alpha", "zeta"))
        assert d.classes == ("alpha", "zeta")

    def test_values_immutable(self):
        d = Dataset(("x",), np.zeros((2, 1)), ("A", "B"))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda tmp_path: Dataset(("x", "y"), np.arange(6.0).reshape(3, 2), ("A", "B", "A")),
            lambda tmp_path: Dataset(("x", "y"), [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], ("A", "B", "A")),
            lambda tmp_path: load_csv(write(tmp_path, "x,y,class\n0,1,A\n2,3,B\n4,5,A\n"), "class"),
            lambda tmp_path: Dataset(("x", "y"), np.arange(8.0).reshape(4, 2), "ABAB").subset([3, 0, 1]),
        ],
        ids=["C-order array", "nested list", "load_csv", "subset"],
    )
    def test_values_are_column_major_and_read_only(self, tmp_path, make):
        # the dependence scan transposes its residuals into one row per
        # variable without a copy, and gnb sums each column's variance in
        # the order this layout gives
        values = make(tmp_path).values
        assert values.flags.f_contiguous and not values.flags.writeable
        assert values.shape == (3, 2)

    @pytest.mark.parametrize("source", ["C-order array", "F-order array", "nested list"])
    def test_values_are_its_own_copy(self, source):
        given = np.arange(6.0).reshape(3, 2)
        if source == "F-order array":
            given = np.asfortranarray(given)
        view = given[:]  # taken before construction
        d = Dataset(("x", "y"), given.tolist() if source == "nested list" else given, ("A", "B", "A"))
        assert given.flags.writeable and view.flags.writeable
        given[0, 0] = 99.0
        view[2, 1] = 98.0
        np.testing.assert_array_equal(d.values, np.arange(6.0).reshape(3, 2))

    def test_subset_is_one_column_major_copy_of_the_rows(self):
        d = Dataset(tuple("xyz"), np.arange(30.0).reshape(10, 3) ** 1.5, ("B", "A") * 4 + ("C", "C"))
        rows = np.array([9, 0, 3, 3, 4])
        sub = d.subset(rows)
        np.testing.assert_array_equal(sub.values, d.values[rows])
        assert sub.values.flags.f_contiguous and not sub.values.flags.writeable
        assert not np.shares_memory(sub.values, d.values)
        assert sub.labels == ("C", "B", "A", "A", "B") and sub.classes == ("A", "B", "C")
        assert sub.variable_names == d.variable_names

    def test_subset_memory_is_one_copy(self):
        # 80 of 100 rows of 20 000 variables: the 12.8 MB copy, its labels and
        # the name checks; a row-major fancy-indexed copy first took 28.2 MB
        d = wide_dataset()
        rows = np.arange(80)
        d.subset(rows[:2])  # numpy's lazy imports
        bound = 80 * d.m * 8 + NAME_BYTES * d.m + (1 << 20)  # 17.0 MB
        sub, peak = traced_peak(lambda: d.subset(rows))
        np.testing.assert_array_equal(sub.values, d.values[:80])
        assert peak < bound

    def test_subset_recomputes_classes(self):
        d = Dataset(("x",), np.arange(4.0)[:, None], ("A", "A", "B", "B"))
        sub = d.subset(np.array([0, 1]))
        assert sub.classes == ("A",)
        np.testing.assert_array_equal(sub.values[:, 0], [0.0, 1.0])


class TestPriors:
    def test_balanced(self):
        d = Dataset(("x",), np.zeros((4, 1)), ("A", "A", "B", "B"))
        assert class_priors(d) == {"A": 0.5, "B": 0.5}

    def test_three_to_one(self):
        d = Dataset(("x",), np.zeros((4, 1)), ("A", "A", "A", "B"))
        assert class_priors(d) == {"A": 0.75, "B": 0.25}

    def test_single_class(self):
        d = Dataset(("x",), np.zeros((1, 1)), ("A",))
        assert class_priors(d) == {"A": 1.0}

    def test_labels_differing_by_a_trailing_nul_are_two_classes(self):
        # a numpy str array drops trailing NULs: both classes then took all four rows
        d = Dataset(("x",), np.zeros((4, 1)), ("a", "a", "a\x00", "a"))
        assert {c: rows.tolist() for c, rows in d.class_rows.items()} == {"a": [0, 1, 3], "a\x00": [2]}
        assert class_priors(d) == {"a": 0.75, "a\x00": 0.25}

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        labels = tuple(rng.choice(["A", "B", "C", "D"], size=97))
        d = Dataset(("x",), np.zeros((97, 1)), labels)
        assert abs(sum(class_priors(d).values()) - 1.0) < 1e-12


class TestStratifiedKfold:
    def _counts(self, d, folds, k):
        labels = np.asarray(d.labels)
        return {c: np.bincount(folds[labels == c], minlength=k) for c in d.classes}

    def test_returns_read_only_intp_folds(self):
        d = Dataset(("x",), np.zeros((20, 1)), ("A",) * 10 + ("B",) * 10)
        folds = stratified_kfold(d, 5, seed=0)
        assert folds.dtype == np.intp and folds.shape == (20,)
        assert not folds.flags.writeable
        assert set(folds.tolist()) == set(range(5))

    def test_exact_divisibility(self):
        d = Dataset(("x",), np.zeros((20, 1)), ("A",) * 10 + ("B",) * 10)
        counts = self._counts(d, stratified_kfold(d, 5, seed=0), 5)
        assert np.all(counts["A"] == 2)
        assert np.all(counts["B"] == 2)

    def test_uneven_classes(self):
        d = Dataset(("x",), np.zeros((10, 1)), ("A",) * 7 + ("B",) * 3)
        counts = self._counts(d, stratified_kfold(d, 3, seed=5), 3)
        assert set(counts["A"]) <= {2, 3}
        assert np.all(counts["B"] == 1)

    def test_deterministic(self):
        d = Dataset(("x",), np.zeros((30, 1)), ("A", "B", "C") * 10)
        a = stratified_kfold(d, 4, seed=42)
        b = stratified_kfold(d, 4, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_assignment(self):
        d = Dataset(("x",), np.arange(30.0)[:, None], ("A", "B", "C") * 10)
        a = stratified_kfold(d, 5, seed=0)
        b = stratified_kfold(d, 5, seed=1)
        assert not np.array_equal(a, b)

    def test_k_greater_than_n_rejected(self):
        d = Dataset(("x",), np.zeros((3, 1)), ("A", "B", "A"))
        with pytest.raises(ValueError, match="exceeds"):
            stratified_kfold(d, 4, seed=0)

    def test_small_class_misses_folds(self):
        d = Dataset(("x",), np.zeros((9, 1)), ("A",) * 8 + ("B",))
        counts = self._counts(d, stratified_kfold(d, 4, seed=0), 4)
        assert counts["B"].sum() == 1

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 8),
        st.lists(st.integers(1, 25), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_folds_partition_everything(self, seed, k, class_sizes):
        n = sum(class_sizes)
        if k > n:
            return
        labels = tuple(
            f"c{ci}" for ci, size in enumerate(class_sizes) for _ in range(size)
        )
        d = Dataset(("x",), np.zeros((n, 1)), labels)
        folds = stratified_kfold(d, k, seed=seed)
        seen = np.concatenate([np.flatnonzero(folds == f) for f in range(k)])
        assert sorted(seen) == list(range(n))
        # per-fold class counts differ by at most one
        arr = np.asarray(labels)
        for c in d.classes:
            counts = np.bincount(folds[arr == c], minlength=k)
            assert counts.max() - counts.min() <= 1

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 8),
        st.lists(st.integers(1, 25), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_folds_equal_the_per_row_deal(self, seed, k, class_sizes):
        n = sum(class_sizes)
        if k > n:
            return
        rng = np.random.default_rng(seed)
        labels = tuple(rng.permutation([f"c{ci}" for ci, size in enumerate(class_sizes) for _ in range(size)]))
        d = Dataset(("x",), np.zeros((n, 1)), labels)
        np.testing.assert_array_equal(stratified_kfold(d, k, seed), oracle_kfold(d, k, seed))

    def test_fold_proportions_close_to_global(self):
        rng = np.random.default_rng(17)
        labels = tuple(rng.choice(["A", "B", "C"], size=120, p=[0.5, 0.3, 0.2]))
        d = Dataset(("x",), np.zeros((120, 1)), labels)
        k = 6
        folds = stratified_kfold(d, k, seed=3)
        global_prop = {c: len(rows) / d.n for c, rows in d.class_rows.items()}
        for f in range(k):
            fold_rows = np.flatnonzero(folds == f)
            fold_labels = [d.labels[i] for i in fold_rows]
            for c in d.classes:
                prop = fold_labels.count(c) / len(fold_rows)
                assert abs(prop - global_prop[c]) <= 1.0 / len(fold_rows) + 1e-12
