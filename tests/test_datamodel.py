import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logitgof import (
    ConfigError,
    DataError,
    Dataset,
    ModelSpec,
    Ordering,
    OrderingPolicy,
    finney,
)
from logitgof.datamodel import default_grouping


class TestDataset:
    def test_construction_coerces_and_freezes(self):
        d = Dataset([1, 0, 1], [[0.5, 1.0], [1.5, 2.0], [2.5, 3.0]], ("a", "b"))
        assert d.y.dtype == np.int64
        assert d.x.dtype == np.float64
        assert d.n == 3 and d.m == 2
        assert not d.y.flags.writeable
        assert not d.x.flags.writeable

    def test_names_synthesized_when_missing(self):
        d = Dataset([0, 1], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert d.names == ("x1", "x2", "x3")

    def test_column_lookup(self):
        d = Dataset([0], [[1.0, 2.0]], ("left", "right"))
        assert d.column("right") == 1
        with pytest.raises(ConfigError, match="unknown variable"):
            d.column("middle")

    def test_equality_covers_values_and_names(self):
        a = Dataset([0, 1], [[1.0], [2.0]], ("v",))
        b = Dataset([0, 1], [[1.0], [2.0]], ("v",))
        c = Dataset([0, 1], [[1.0], [2.0]], ("w",))
        e = Dataset([0, 1], [[1.0], [2.5]], ("v",))
        assert a == b
        assert a != c
        assert a != e

    def test_input_arrays_are_copied(self):
        x = np.array([[1.0], [2.0]])
        d = Dataset([0, 1], x)
        x[0, 0] = 99.0
        assert d.x[0, 0] == 1.0


class TestValidate:
    def test_valid_dataset_passes(self, finney_dataset):
        d = finney_dataset
        assert Dataset(d.y, d.x, d.names) == finney()

    def test_non_binary_dependent_names_first_bad_row(self):
        with pytest.raises(DataError, match="^non-binary dependent value at row 2$"):
            Dataset([0, 2, 3], [[1.0], [2.0], [3.0]])

    def test_non_finite_covariate_names_row_and_column(self):
        with pytest.raises(DataError, match="^non-finite covariate at row 2, column 'a'$"):
            Dataset([0, 1], [[1.0, 2.0], [np.inf, 4.0]], ("a", "b"))
        with pytest.raises(DataError, match="^non-finite covariate at row 1, column 'b'$"):
            Dataset([0, 1], [[1.0, np.nan], [3.0, 4.0]], ("a", "b"))

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"^covariate matrix shape \(2, 1\) does not match 3"):
            Dataset([0, 1, 1], [[1.0], [2.0]])

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="^dataset has no observations$"):
            Dataset([], np.empty((0, 2)))

    def test_name_count_is_checked_before_cells(self):
        with pytest.raises(DataError, match="^1 names for 2 covariate columns$"):
            Dataset([0, 1], [[1.0, np.inf], [3.0, 4.0]], ("a",))

    def test_duplicate_names(self):
        with pytest.raises(DataError, match="^duplicate variable name 'a'$"):
            Dataset([0], [[1.0, 2.0]], ("a", "a"))

    def test_construction_raises_data_error(self):
        # a fraction is rejected, not truncated to 0 or 1
        for y in ([5], [0.5]):
            with pytest.raises(DataError, match="^non-binary dependent value at row 1$"):
                Dataset(y, [[1.0]])


class TestModelSpec:
    def test_l_counts_included_columns(self):
        assert ModelSpec().l == 0
        assert ModelSpec((0, 2)).l == 2

    def test_check_against_rejects_out_of_range(self):
        d = Dataset([0], [[1.0, 2.0]])
        ModelSpec((0, 1)).check_against(d)
        with pytest.raises(ConfigError, match="out of range"):
            ModelSpec((2,)).check_against(d)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ConfigError, match="duplicate column index"):
            ModelSpec((1, 1))

    # int() would truncate 1.5, parse "1" and take True as 1
    @pytest.mark.parametrize("index", [1.5, "1", True, np.bool_(True)],
                             ids=["fraction", "string", "bool", "numpy-bool"])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        assert ModelSpec((np.int64(1), np.uint8(0))).included == (1, 0)
        with pytest.raises(ConfigError, match="^column indices must be integers"):
            ModelSpec((index,))


class TestOrdering:
    def test_accepts_permutation(self):
        o = Ordering([2, 0, 1])
        assert o.sigma.tolist() == [2, 0, 1]

    def test_rejects_non_permutation(self):
        with pytest.raises(DataError, match="not a permutation"):
            Ordering([0, 0, 2])

    # an int64 cast would take [0.0, 1.9, 2.2] as [0, 1, 2] and [True, False]
    # as [1, 0]
    @pytest.mark.parametrize("sigma", [[0.0, 1.9, 2.2], [True, False]], ids=["fractions", "bools"])
    def test_rejects_entries_that_are_not_integers(self, sigma):
        assert Ordering(np.array([1, 0], np.uint8)).sigma.tolist() == [1, 0]
        with pytest.raises(DataError, match="^ordering entries must be integers"):
            Ordering(sigma)

    def test_policy_values_are_the_label_tokens(self):
        assert {p.value for p in OrderingPolicy} == {
            "mu-full", "mu-tested", "residual", "given",
        }


class TestGrouping:
    def test_default_grouping_hand_cases(self):
        assert default_grouping(39, 3) == (13, 13, 13)
        assert default_grouping(39, 5) == (8, 8, 8, 8, 7)
        assert default_grouping(10, 3) == (4, 4, 2)
        assert default_grouping(5, 5) == (1, 1, 1, 1, 1)

    def test_default_grouping_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            default_grouping(10, 0)
        with pytest.raises(ConfigError):
            default_grouping(10, 11)
        # ceil(10/6) = 2 leaves nothing for the sixth group
        with pytest.raises(ConfigError):
            default_grouping(10, 6)

    # 2.5 groups used to raise TypeError, and True made one group
    @pytest.mark.parametrize("n, g", [(39, 2.5), (39, True), (39.0, 5)],
                             ids=["fractional-groups", "bool-groups", "float-n"])
    def test_default_grouping_counts_must_be_integers(self, n, g):
        with pytest.raises(ConfigError, match="count must be an integer"):
            default_grouping(n, g)

    @given(st.integers(2, 400), st.integers(1, 12))
    def test_default_grouping_partitions_n(self, n, g):
        if g > n:
            return
        try:
            s = default_grouping(n, g)
        except ConfigError:
            return
        assert sum(s) == n
        assert len(s) == g
        head = -(-n // g)
        assert all(size == head for size in s[:-1])
        assert 1 <= s[-1] <= head
