import importlib
import logging
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.conftest import NAME_BYTES, mutable_parts, notices, traced_peak
from tests.oracles import (
    bandwidth,
    broadcast_block_distances,
    hellinger_oracle,
    normalize_to_distribution,
    per_variable_oracle,
    table_value,
)
from xnb.dataset import Dataset
from xnb.hellinger import HellingerTable, hellinger, hellinger_table
from xnb.kde import KERNELS, PackedKde

# the module, not the `xnb.hellinger` function that the package exports
hellinger_module = importlib.import_module("xnb.hellinger")
kde_module = importlib.import_module("xnb.kde")


def random_distribution(rng, size):
    raw = rng.uniform(0, 1, size=size)
    return raw / raw.sum()


class TestNormalize:
    """The reference normalization that ``per_variable_oracle`` applies to grid densities."""

    def test_uniform_input(self):
        np.testing.assert_allclose(normalize_to_distribution([1, 1, 1, 1]), [0.25] * 4)

    def test_single_mass(self):
        np.testing.assert_allclose(normalize_to_distribution([2, 0, 0]), [1, 0, 0])

    def test_zero_sum_becomes_uniform_with_warning(self, caplog):
        out = normalize_to_distribution([0.0, 0.0])
        assert notices(caplog.records, "tests.oracles") == ["zero-sum density vector normalized to uniform"]
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            normalize_to_distribution([0.5, -0.1])


class TestHellinger:
    def test_identical_distributions(self):
        assert hellinger([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_support(self):
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_half_overlap(self):
        assert hellinger([0.5, 0.5], [1.0, 0.0]) == pytest.approx(
            0.5411961001461969, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hellinger([1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="mismatch"):
            hellinger(np.ones((3, 2)) / 3, np.ones((3, 3)) / 3)

    def test_column_wise_clipped_at_one(self):
        # disjoint supports whose unclipped distance rounds to 1 + 2^-52
        a = [0.24177916763692384, 0.4267628213827564, 0.15233683694790565, 0.17912117403241426]
        b = [0.18327837171745692, 0.29785063943362455, 0.3929488725464131, 0.12592211630250566]
        p = np.array([a + [0.0] * 4, [0.5] * 8]).T
        q = np.array([[0.0] * 4 + b, [0.5] * 8]).T
        raw = (1.0 / np.sqrt(2.0)) * np.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=0))
        assert raw[0] > 1.0
        np.testing.assert_array_equal(hellinger(p, q), [1.0, 0.0])

    def test_matches_direct_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            size = int(rng.integers(2, 80))
            p = random_distribution(rng, size)
            q = random_distribution(rng, size)
            worst = max(worst, abs(hellinger(p, q) - hellinger_oracle(p, q)))
        assert worst <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, seed, size):
        rng = np.random.default_rng(seed)
        p = random_distribution(rng, size)
        q = random_distribution(rng, size)
        d = hellinger(p, q)
        assert 0.0 <= d <= 1.0
        assert d == hellinger(q, p)

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            size = int(rng.integers(2, 30))
            p, q, r = (random_distribution(rng, size) for _ in range(3))
            assert hellinger(p, r) <= hellinger(p, q) + hellinger(q, r) + 1e-9


def _bank(d, kernel="gaussian"):
    """Each class's packed density, bandwidths from the scalar Silverman rule."""
    return {
        c: PackedKde(
            d.values[d.class_rows[c]],
            [
                bandwidth("silverman", d.values[d.class_rows[c], j], fallback_scale=np.ptp(d.values[:, j]))
                for j in range(d.m)
            ],
            kernel,
        )
        for c in d.classes
    }


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pretend to have 4 CPUs and record the size of every thread pool started."""
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(hellinger_module.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(hellinger_module, "ThreadPoolExecutor", RecordingPool)
    return sizes


class TestTable:
    def test_identical_classes_give_zero(self):
        base = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.5]])
        values = np.vstack([base, base])
        d = Dataset(("x", "y"), values, ("A",) * 3 + ("B",) * 3)
        table = hellinger_table(d, _bank(d))
        for v in d.variable_names:
            assert table_value(table, v, "A", "B") <= 1e-9

    def test_far_clusters_near_one(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=20)
        b = rng.normal(1000.0, 1.0, size=20)
        d = Dataset(("x",), np.concatenate([a, b])[:, None], ("A",) * 20 + ("B",) * 20)
        table = hellinger_table(d, _bank(d))
        assert table_value(table, "x", "A", "B") >= 0.99

    def test_entry_count_three_classes(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(12, 2))
        d = Dataset(("x", "y"), values, tuple("ABC" * 4))
        table = hellinger_table(d, _bank(d))
        assert table.distances.shape == (2, 3)
        assert len(list(table.rows())) == 6

    def test_symmetric_lookup(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 3))
        labels = ("A",) * 7 + ("B",) * 7 + ("C",) * 6
        d = Dataset(("x", "y", "z"), values, labels)
        table = hellinger_table(d, _bank(d))
        for v in d.variable_names:
            for ci, cj in combinations(d.classes, 2):
                assert table_value(table, v, ci, cj) == table_value(table, v, cj, ci)

    def test_all_entries_bounded(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(30, 5))
        labels = tuple(rng.choice(["A", "B", "C"], size=30))
        d = Dataset(tuple("vwxyz"), values, labels)
        table = hellinger_table(d, _bank(d))
        assert np.all(table.distances >= 0.0)
        assert np.all(table.distances <= 1.0)

    def test_incomplete_bank_rejected(self):
        rng = np.random.default_rng(5)
        d = Dataset(("x", "y"), rng.normal(size=(8, 2)), ("A",) * 4 + ("B",) * 4)
        bank = _bank(d)
        with pytest.raises(ValueError, match="incomplete"):
            hellinger_table(d, {**bank, "A": bank["A"].take([0])})
        del bank["B"]
        with pytest.raises(ValueError, match="incomplete"):
            hellinger_table(d, bank)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"mu": 1}, "mu must lie in [2, 1024], got 1"),  # an all-zero table
            ({"mu": 0}, "mu must lie in [2, 1024], got 0"),  # an all-zero table and a zero-sum notice
            ({"mu": 50.0}, "mu must be an integer, got 50.0"),
            ({"mu": True}, "mu must be an integer, got True"),
            ({"jobs": 0}, "jobs must be at least 1, got 0"),
            ({"jobs": -3}, "jobs must be at least 1, got -3"),
        ],
        ids=["mu 1", "mu 0", "mu 50.0", "mu True", "jobs 0", "jobs -3"],
    )
    def test_settings_outside_their_domain_rejected(self, overrides, message):
        d = Dataset(("x", "y"), np.random.default_rng(5).normal(size=(8, 2)), ("A",) * 4 + ("B",) * 4)
        with pytest.raises(ValueError) as info:
            hellinger_table(d, _bank(d), **overrides)
        assert str(info.value) == message

    def test_parallel_matches_sequential(self, pool_sizes):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(24, 9))
        labels = ("A",) * 8 + ("B",) * 8 + ("C",) * 8
        d = Dataset(tuple(f"v{i}" for i in range(9)), values, labels)
        bank = _bank(d)
        seq = hellinger_table(d, bank, jobs=1)
        for jobs in (2, 3):
            par = hellinger_table(d, bank, jobs=jobs)
            np.testing.assert_array_equal(seq.distances, par.distances)
        assert pool_sizes == [2, 3]

    def test_threads_capped_at_cpu_count(self, pool_sizes):
        rng = np.random.default_rng(7)
        d = Dataset(tuple(f"v{i}" for i in range(40)), rng.normal(size=(12, 40)), ("A", "B") * 6)
        bank = _bank(d)
        seq = hellinger_table(d, bank)
        np.testing.assert_array_equal(hellinger_table(d, bank, jobs=1000).distances, seq.distances)
        # fewer than two variables per thread: no pool
        narrow = Dataset(("x", "y", "z"), d.values[:, :3], d.labels)
        hellinger_table(narrow, _bank(narrow), jobs=2)
        assert pool_sizes == [4]

    @pytest.mark.parametrize(
        "variables, classes, problem",
        [
            (("x", "x"), ("A", "B"), "^duplicate variable names$"),
            (("v", "w"), ("A", "A"), "^duplicate class names$"),
            ((1, 2), ("A", "B"), "^variable names must be strings, got 1$"),
            (("v", "w"), ("A", 0), "^class names must be strings, got 0$"),
        ],
    )
    def test_names_that_are_not_distinct_strings_rejected(self, variables, classes, problem):
        with pytest.raises(ValueError, match=problem):
            HellingerTable(variables, classes, np.zeros((2, 1)))

    def test_distances_are_its_own_copy(self):
        given = np.full((2, 1), 0.5)
        view = given[:]  # taken before construction
        table = HellingerTable(("x", "y"), ("A", "B"), given)
        assert given.flags.writeable and view.flags.writeable
        given[0, 0] = 0.9
        view[1, 0] = 0.1
        np.testing.assert_array_equal(table.distances, np.full((2, 1), 0.5))
        assert mutable_parts(table) == []

    def test_blocked_path_matches_per_variable_reference(self, caplog):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(31, 300))
        values[:, 4] = 1.5  # constant column exercises grid widening
        labels = tuple(rng.choice(["A", "B", "C"], 31))
        d = Dataset(tuple(f"v{i}" for i in range(300)), values, labels)
        bank = _bank(d)
        reference = per_variable_oracle(d, bank)
        table = hellinger_table(d, bank)  # 300 variables: more than one block
        # the constant column underflows: the oracle notes each zero-sum grid, the table counts them
        oracle = notices(caplog.records, "tests.oracles")
        assert oracle
        assert notices(caplog.records, "xnb.hellinger") == [f"{len(oracle)} zero-sum density vectors normalized to uniform"]
        np.testing.assert_allclose(table.distances, reference, rtol=0, atol=5e-16)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 30),
        st.integers(1, 12),
        st.integers(2, 4),
        st.sampled_from(KERNELS),
    )
    # uniform-kernel draws that meet the bound only with column totals summed pairwise, as the oracle sums them
    @example(seed=54619912, n=11, m=10, k=4, kernel="uniform")
    @example(seed=2905808154, n=10, m=10, k=4, kernel="uniform")
    @settings(max_examples=40, deadline=None)
    def test_table_matches_per_variable_oracle(self, seed, n, m, k, kernel):
        rng = np.random.default_rng(seed)
        labels = tuple(f"c{i % k}" for i in range(n))
        d = Dataset(tuple(f"v{j}" for j in range(m)), rng.normal(size=(n, m)), labels)
        bank = _bank(d, kernel)
        reference = per_variable_oracle(d, bank, mu=20)
        table = hellinger_table(d, bank, mu=20)
        np.testing.assert_allclose(table.distances, reference, rtol=0, atol=5e-16)
        assert np.all((table.distances >= 0.0) & (table.distances <= 1.0))

    def test_mixed_kernel_bank_rejected(self):
        rng = np.random.default_rng(14)
        d = Dataset(("w", "x"), rng.normal(size=(20, 2)), ("A",) * 10 + ("B",) * 10)
        bank = _bank(d)
        bank["B"] = PackedKde(bank["B"].samples, bank["B"].h, "epanechnikov")
        with pytest.raises(ValueError, match="mixes kernels"):
            hellinger_table(d, bank)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("scale", [2e-308, 2.5e-308, 3e-308])
    def test_bandwidths_near_the_smallest_float(self, kernel, scale):
        # bandwidths near 1e-308 put densities near 1e307 on the grid, whose
        # column sums overflowed: the distance read 0.0, with numpy's overflow RuntimeWarning
        column = np.array([0, 1, 2, 3, 4, 5, 6, 2, 3, 1, 4, 6], dtype=np.float64)[:, None]
        labels = ("A",) * 6 + ("B",) * 6

        def distance(values):
            d = Dataset(("a",), values, labels)
            return float(hellinger_table(d, _bank(d, kernel), mu=50).distances[0, 0])

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow RuntimeWarning
            tiny = distance(column * scale)
        assert tiny == pytest.approx(distance(column), abs=1e-9)


def _recorded(fn, *args, **kwargs):
    """``fn``'s result and the messages of the records it logged (the library's or the oracle's zero-sum notice)."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logging.getLogger().addHandler(handler)
    try:
        result = fn(*args, **kwargs)
    finally:
        logging.getLogger().removeHandler(handler)
    return result, [r.getMessage() for r in records]


def _table(densities, mu, jobs=1):
    """``hellinger_table`` over one class per density: its distances and logged messages."""
    classes = [f"c{i}" for i in range(len(densities))]
    labels = tuple(c for c, p in zip(classes, densities) for _ in p.samples)
    names = tuple(f"v{j}" for j in range(densities[0].width))
    d = Dataset(names, np.vstack([p.samples for p in densities]), labels)
    table, warned = _recorded(hellinger_table, d, dict(zip(classes, densities)), mu=mu, jobs=jobs)
    return table.distances, warned


def _densities(rng, sizes, w, kernel):
    """One PackedKde per class size, with random samples and bandwidths."""
    return [
        PackedKde(rng.normal(loc=c, size=(n, w)), rng.uniform(0.05, 2.0, size=w), kernel)
        for c, n in enumerate(sizes)
    ]


class TestBroadcastOracle:
    """The table equals the 3-d broadcast table bit for bit (one block: see the oracle)."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 12), min_size=2, max_size=4),
        st.integers(2, 30),
        st.integers(1, 16),
        st.sampled_from(KERNELS),
    )
    @example(seed=0, sizes=[1, 1], mu=2, w=1, kernel="gaussian")
    @example(seed=1, sizes=[1, 3, 2], mu=7, w=1, kernel="triweight")
    @example(seed=2, sizes=[12, 9], mu=2, w=5, kernel="uniform")
    @settings(max_examples=60, deadline=None)
    def test_blocks_equal_broadcast_oracle(self, seed, sizes, mu, w, kernel):
        densities = _densities(np.random.default_rng(seed), sizes, w, kernel)
        table, warned = _table(densities, mu)
        reference, reference_warned = _recorded(broadcast_block_distances, densities, mu, block=w)
        np.testing.assert_array_equal(table, reference)
        assert warned == reference_warned

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1018, 1030) | st.integers(2047, 2050),
        st.sampled_from(KERNELS),
    )
    @example(seed=0, w=1025, kernel="gaussian")
    @example(seed=0, w=2049, kernel="gaussian")
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_across_the_block_boundary(self, pool_sizes, seed, w, kernel):
        assert hellinger_module._BLOCK == 1024
        # 8 or more rows and grid points: numpy would sum a lone column pairwise
        densities = _densities(np.random.default_rng(seed), [9, 12, 10], w, kernel)
        reference, reference_warned = _recorded(broadcast_block_distances, densities, 10, block=w)
        for jobs in (1, 2, 3):
            table, warned = _table(densities, 10, jobs)
            np.testing.assert_array_equal(table, reference)
            assert warned == reference_warned
        assert set(pool_sizes) == {2, 3}

    def test_constant_and_zero_sum_columns(self):
        samples_a = np.array([[1.5, 0.0, 0.2], [1.5, 1.0, 0.9]])
        samples_b = np.array([[1.5, 0.123456, 0.5]])
        # column 0 is constant; in column 1 class B's one sample lies between the
        # grid points and its bandwidth is far below their spacing
        densities = [
            PackedKde(samples_a, [1e-9, 1e-9, 0.3], "uniform"),
            PackedKde(samples_b, [1e-9, 1e-9, 0.3], "uniform"),
        ]
        table, warned = _table(densities, 5)
        reference, reference_warned = _recorded(broadcast_block_distances, densities, 5, block=3)
        np.testing.assert_array_equal(table, reference)
        assert warned == reference_warned == ["1 zero-sum density vectors normalized to uniform"]
        assert table[1, 0] > 0.0

    def test_one_zero_sum_warning_whatever_jobs(self, pool_sizes):
        # in columns 0, 4 and 5 class B's one sample lies between the grid points
        # and its bandwidth is far below their spacing: zero-sum in both halves
        h = [1e-9, 0.3, 0.3, 0.3, 1e-9, 1e-9]
        densities = [
            PackedKde([[0.0, 0.2, 0.3, 0.4, 0.0, 0.0], [1.0, 0.9, 0.8, 0.7, 1.0, 1.0]], h, "uniform"),
            PackedKde([[0.123456, 0.5, 0.5, 0.5, 0.123456, 0.623456]], h, "uniform"),
        ]
        reference, reference_warned = _recorded(broadcast_block_distances, densities, 5, block=6)
        assert reference_warned == ["3 zero-sum density vectors normalized to uniform"]
        for jobs in (1, 2, 3):
            table, warned = _table(densities, 5, jobs)
            np.testing.assert_array_equal(table, reference)
            assert warned == reference_warned
        assert pool_sizes == [2, 3]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(6, 40),
        st.integers(2, 4),
        st.sampled_from(KERNELS),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_with_jobs_equals_broadcast_oracle(self, pool_sizes, seed, m, k, kernel):
        rng = np.random.default_rng(seed)
        n = 5 * k
        d = Dataset(tuple(f"v{j}" for j in range(m)), rng.normal(size=(n, m)), tuple(f"c{i % k}" for i in range(n)))
        bank = _bank(d, kernel)
        densities = [bank[c] for c in d.classes]
        reference, reference_warned = _recorded(broadcast_block_distances, densities, 20, block=m)
        for jobs in (1, 2, 3):
            table, warned = _recorded(hellinger_table, d, bank, mu=20, jobs=jobs)
            np.testing.assert_array_equal(table.distances, reference)
            assert warned == reference_warned

    @pytest.mark.parametrize("step_bytes", [1, 1 << 40])
    def test_every_step_size_gives_the_same_table(self, pool_sizes, monkeypatch, step_bytes):
        # blocks of 515 variables (343 with 3 jobs): by default, steps of 10 to 21 of the 50 grid rows
        densities = _densities(np.random.default_rng(5), [10, 12, 9], 1030, "epanechnikov")
        reference, reference_warned = _table(densities, 50)
        monkeypatch.setattr(kde_module, "_STEP_BYTES", step_bytes)
        for jobs in (1, 2, 3):
            table, warned = _table(densities, 50, jobs)
            np.testing.assert_array_equal(table, reference)
            assert warned == reference_warned

    def test_the_table_is_written_once(self):
        # 10 classes over 20 000 variables: a 7.2 MB table. The blocks fill one
        # array, which HellingerTable copies: two table-size arrays, plus the
        # name checks and one block's grids; stacking a list of row blocks made three
        d = Dataset(tuple(f"g{j:05d}" for j in range(20_000)), np.random.default_rng(3).normal(size=(20, 20_000)),
                    tuple(f"c{i % 10}" for i in range(20)))
        bank = {c: PackedKde(d.values[d.class_rows[c]], np.full(d.m, 0.5)) for c in d.classes}
        table_bytes = d.m * 45 * 8
        bound = 2 * table_bytes + NAME_BYTES * d.m + (1 << 20)  # 18.6 MB
        table, peak = traced_peak(lambda: hellinger_table(d, bank, mu=2))
        assert table.distances.nbytes == table_bytes
        assert peak < bound

    def test_temporary_memory_does_not_scale_with_mu_times_rows(self):
        # the former (mu, n_c, block) temporary alone was 50 * 400 * 256 * 8 B, about 41 MB
        densities = _densities(np.random.default_rng(9), [400, 400, 400], 300, "gaussian")
        out = np.empty((300, 3))
        lo = np.min([p.samples.min(axis=0) for p in densities], axis=0)
        hi = np.max([p.samples.max(axis=0) for p in densities], axis=0)
        _, peak = traced_peak(lambda: hellinger_module._block_distances(densities, 50, lo, hi, out, 0, 300))
        assert peak < 8 * 2**20
