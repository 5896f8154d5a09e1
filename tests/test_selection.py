from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import notices
from tests.oracles import discriminatory_power, table_value
from xnb.hellinger import HellingerTable
from xnb.selection import ClassFeatureMap, SelectionConfig, SelectionStep, select_class_specific


def two_class_table(h_by_variable: dict[str, float]) -> HellingerTable:
    names = tuple(h_by_variable)
    distances = np.array([[h] for h in h_by_variable.values()])
    return HellingerTable(names, ("A", "B"), distances)


def exhaustive_minimum(h_by_variable: dict[str, float], theta: float) -> int:
    """Smallest subset size whose power exceeds theta, by brute enumeration."""
    names = list(h_by_variable)
    for size in range(1, len(names) + 1):
        for subset in combinations(names, size):
            residual = 1.0
            for v in subset:
                residual *= 1.0 - h_by_variable[v]
            if 1.0 - residual > theta:
                return size
    return len(names)


def sorted_oracle(table: HellingerTable, theta: float):
    """The greedy walk with one Python ``sorted`` per class pair, by name.

    Returns ``(features, steps, exhausted)`` as ``select_class_specific``
    does. A class is exhausted when, with every variable taken, some pair's
    power (its product taken in selection order) is still at most theta.
    """
    names = table.variable_names
    m = len(names)
    features, steps, exhausted = {}, {}, {}
    for ci in table.classes:
        selected, trace = [], []
        for cj in table.classes:
            if cj == ci:
                continue
            h_pair = table.pair_column(ci, cj)
            residual = 1.0
            for v in selected:
                residual *= 1.0 - table_value(table, v, ci, cj)
            order = sorted(range(m), key=lambda j: (-h_pair[j], names[j]))
            cursor = 0
            while 1.0 - residual <= theta and len(selected) < m:
                while names[order[cursor]] in selected:
                    cursor += 1
                j = order[cursor]
                selected.append(names[j])
                residual *= 1.0 - h_pair[j]
                trace.append(SelectionStep(names[j], cj, float(h_pair[j]), 1.0 - residual))
        features[ci] = tuple(selected)
        steps[ci] = tuple(trace)
        short = []
        for cj in table.classes:
            if cj == ci:
                continue
            residual = 1.0
            for v in selected:
                residual *= 1.0 - table_value(table, v, ci, cj)
            short.append(1.0 - residual <= theta)
        exhausted[ci] = len(selected) == m and any(short)
    return features, steps, exhausted


@st.composite
def tied_tables(draw):
    """Seeded tables whose H values come from a small pool, so ties abound."""
    k = draw(st.integers(2, 5))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.uniform(0.0, 1.0, size=draw(st.integers(1, 6)))
    pool[rng.uniform(size=pool.size) < 0.3] = 0.0
    distances = rng.choice(pool, size=(m, k * (k - 1) // 2))
    # unique names of mixed length and case, in shuffled order
    names = set()
    while len(names) < m:
        names.add("".join(rng.choice(list("abAB_0"), size=rng.integers(1, 5))))
    names = tuple(rng.permutation(sorted(names)).tolist())
    classes = tuple(f"c{i}" for i in range(k))
    theta = draw(st.sampled_from([0.5, 0.9, 0.999]))
    return HellingerTable(names, classes, distances), theta


class TestDiscriminatoryPower:
    def test_single_variable_single_pair(self):
        table = two_class_table({"v": 0.9})
        assert discriminatory_power(["v"], "A", table) == pytest.approx(0.9)

    def test_two_variables_multiply(self):
        table = two_class_table({"v1": 0.97, "v2": 0.97})
        assert discriminatory_power(["v1", "v2"], "A", table) == pytest.approx(0.9991)

    def test_certain_distance_saturates(self):
        table = two_class_table({"v1": 1.0, "v2": 0.2})
        assert discriminatory_power(["v1", "v2"], "A", table) == 1.0

    def test_monotone_in_subset_growth(self):
        rng = np.random.default_rng(0)
        h = {f"v{i}": float(rng.uniform(0, 1)) for i in range(10)}
        table = two_class_table(h)
        names = list(h)
        previous = 0.0
        for size in range(1, 11):
            d = discriminatory_power(names[:size], "A", table)
            assert d >= previous
            previous = d

    def test_absent_variable_rejected(self):
        table = two_class_table({"v": 0.5})
        with pytest.raises(KeyError):
            discriminatory_power(["ghost"], "A", table)

    def test_empty_subset_rejected(self):
        table = two_class_table({"v": 0.5})
        with pytest.raises(ValueError):
            discriminatory_power([], "A", table)


class TestSelect:
    def test_single_strong_variable_selected_everywhere(self):
        table = two_class_table({"weak": 0.3, "strong": 0.9995})
        fmap = select_class_specific(table, SelectionConfig(theta=0.999))
        assert fmap.features["A"] == ("strong",)
        assert fmap.features["B"] == ("strong",)

    def test_greedy_trace_two_variables(self):
        table = two_class_table({"v1": 0.99, "v2": 0.95})
        fmap = select_class_specific(table, SelectionConfig(theta=0.999))
        assert fmap.features["A"] == ("v1", "v2")
        steps = fmap.steps["A"]
        assert steps[0].attained == pytest.approx(0.99)
        assert steps[1].attained == pytest.approx(0.9995)

    def test_all_zero_table_selects_everything(self):
        names = tuple(f"v{i}" for i in range(6))
        table = HellingerTable(names, ("A", "B"), np.zeros((6, 1)))
        fmap = select_class_specific(table)
        for c in ("A", "B"):
            assert set(fmap.features[c]) == set(names)

    def test_unreachable_theta_exhausts_every_class(self):
        names = tuple(f"v{i}" for i in range(6))
        table = HellingerTable(names, ("A", "B", "C"), np.zeros((6, 3)))
        fmap = select_class_specific(table)
        assert fmap.exhausted == {"A": True, "B": True, "C": True}
        assert all(fmap.count(c) == 6 for c in table.classes)

    def test_last_variable_past_theta_is_not_exhausted(self):
        # the pair needs both variables, and the second carries it past theta:
        # every variable is taken, yet no pair ran out of candidates
        table = two_class_table({"v1": 0.99, "v2": 0.95})
        fmap = select_class_specific(table, SelectionConfig(theta=0.999))
        assert fmap.features == {"A": ("v1", "v2"), "B": ("v1", "v2")}
        assert fmap.exhausted == {"A": False, "B": False}

    def test_power_exactly_theta_with_every_variable_is_exhausted(self):
        # the threshold is strict: reaching theta itself is still short of it
        fmap = select_class_specific(two_class_table({"v1": 0.5}), SelectionConfig(theta=0.5))
        assert fmap.features == {"A": ("v1",), "B": ("v1",)}
        assert fmap.exhausted == {"A": True, "B": True}

    def test_threshold_is_strict(self):
        # power exactly theta must not stop the loop
        theta = 0.5
        table = two_class_table({"v1": 0.5, "v2": 0.4})
        fmap = select_class_specific(table, SelectionConfig(theta=theta))
        assert len(fmap.features["A"]) == 2

    def test_tie_breaks_to_smaller_name(self):
        table = two_class_table({"b": 0.9995, "a": 0.9995})
        fmap = select_class_specific(table)
        assert fmap.features["A"] == ("a",)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        names = tuple(f"v{i}" for i in range(12))
        distances = rng.uniform(0, 1, size=(12, 3))
        table = HellingerTable(names, ("A", "B", "C"), distances)
        first = select_class_specific(table)
        second = select_class_specific(table)
        assert first.features == second.features
        assert first.steps == second.steps

    def test_greedy_size_near_exhaustive_minimum(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = int(rng.integers(3, 13))
            strong = rng.uniform(0.9, 1.0, size=m)
            weak = rng.uniform(0.0, 0.9, size=m)
            mix = np.where(rng.uniform(size=m) < 0.4, strong, weak)
            h = {f"v{i:02d}": float(mix[i]) for i in range(m)}
            theta = float(rng.choice([0.9, 0.99, 0.999]))
            fmap = select_class_specific(two_class_table(h), SelectionConfig(theta=theta))
            assert len(fmap.features["A"]) <= exhaustive_minimum(h, theta) + 1

    def test_threshold_contract_and_local_minimality(self):
        rng = np.random.default_rng(77)
        names = tuple(f"v{i:02d}" for i in range(15))
        distances = rng.uniform(0.3, 0.999, size=(15, 3))
        table = HellingerTable(names, ("A", "B", "C"), distances)
        theta = 0.999
        fmap = select_class_specific(table, SelectionConfig(theta=theta))
        for c in table.classes:
            selected = fmap.features[c]
            if set(selected) != set(names):
                assert discriminatory_power(selected, c, table) > theta
            # dropping the last variable added for a pair leaves that pair short
            for other in table.classes:
                if other == c:
                    continue
                pair_steps = [i for i, s in enumerate(fmap.steps[c]) if s.other_class == other]
                if not pair_steps:
                    continue
                last = pair_steps[-1]
                before = [v for v in selected[:last]]
                residual = 1.0
                for v in before:
                    residual *= 1.0 - table_value(table, v, c, other)
                assert 1.0 - residual <= theta

    def test_single_class_warns_and_returns_empty(self, caplog):
        table = HellingerTable(("x",), ("A",), np.zeros((1, 0)))
        fmap = select_class_specific(table)
        assert notices(caplog.records, "xnb.selection") == ["single-class table: nothing to discriminate, empty selection"]
        assert fmap.features["A"] == ()


class TestSelectionProperties:
    @settings(max_examples=100, deadline=None)
    @given(tied_tables())
    def test_equals_sorted_oracle(self, case):
        table, theta = case
        fmap = select_class_specific(table, SelectionConfig(theta=theta))
        features, steps, exhausted = sorted_oracle(table, theta)
        assert fmap.features == features
        assert fmap.steps == steps
        assert fmap.exhausted == exhausted

    @settings(max_examples=100, deadline=None)
    @given(tied_tables())
    def test_meets_theta_or_selects_every_variable(self, case):
        table, theta = case
        fmap = select_class_specific(table, SelectionConfig(theta=theta))
        for c in table.classes:
            selected = fmap.features[c]
            if len(selected) < len(table.variable_names):
                assert discriminatory_power(selected, c, table) > theta
            else:
                assert set(selected) == set(table.variable_names)


class TestClassFeatureMap:
    @pytest.mark.parametrize(
        "classes, features, problem",
        [
            (("A", "A"), {"A": ("x", "y")}, "^duplicate class names$"),
            (("A", 0), {"A": ("x",), 0: ("y",)}, "^class names must be strings, got 0$"),
            (("A", "B"), {"A": (1, 2), "B": ("x",)}, "^variables selected for class 'A' must be strings, got 1$"),
        ],
    )
    def test_names_that_are_not_distinct_strings_rejected(self, classes, features, problem):
        with pytest.raises(ValueError, match=problem):
            ClassFeatureMap(classes, features)


class TestConfig:
    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            SelectionConfig(theta=theta)

