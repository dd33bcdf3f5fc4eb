"""CSV ingestion and export behaviour, plus the injected uniform columns."""
import numpy as np
import pytest

from logitgof.dataio import export_csv, inject_uniform_covariates, load_csv
from logitgof.datamodel import Dataset
from logitgof.errors import ConfigError, DataError


def awkward_dataset():
    # values chosen to punish any formatting that is not shortest round-trip
    x = [
        [0.1 + 0.2, np.pi, 1e-300],
        [np.nextafter(1.0, 0.0), -7.25, 3.0],
        [1.0 / 3.0, 2.0**-52, -1e200],
        [0.0, -0.0, 123456789.123456789],
    ]
    return Dataset([1, 0, 0, 1], x, ("a", "b", "c"))


class TestRoundTrip:
    def test_export_then_load_is_bit_identical(self, tmp_path):
        d = awkward_dataset()
        p = tmp_path / "rt.csv"
        export_csv(d, "y", p)
        back = load_csv(p, "y")
        assert back.names == d.names
        assert np.array_equal(back.y, d.y)
        assert back.x.tobytes() == d.x.tobytes()

    def test_export_puts_dependent_first(self, tmp_path):
        p = tmp_path / "col.csv"
        export_csv(awkward_dataset(), "resp", p)
        header = p.read_text(encoding="utf-8").splitlines()[0]
        assert header == "resp,a,b,c"

    def test_export_rejects_name_collision(self, tmp_path):
        with pytest.raises(ConfigError, match="collides"):
            export_csv(awkward_dataset(), "b", tmp_path / "bad.csv")


class TestLoadCsv:
    def test_dependent_column_may_sit_anywhere(self, tmp_path):
        p = tmp_path / "mid.csv"
        p.write_text("a,y,b\n1.5,1,2.5\n3.5,0,4.5\n", encoding="utf-8")
        d = load_csv(p, "y")
        assert d.names == ("a", "b")
        assert list(d.y) == [1, 0]
        assert d.x.tolist() == [[1.5, 2.5], [3.5, 4.5]]

    def test_header_whitespace_is_stripped(self, tmp_path):
        p = tmp_path / "ws.csv"
        p.write_text(" y , a \n0,9.0\n", encoding="utf-8")
        d = load_csv(p, "y")
        assert d.names == ("a",)
        assert d.x[0, 0] == 9.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "y")

    def test_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path, "y")

    def test_non_utf8_bytes_are_a_data_error(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("y,caf\u00e9\n1,0.5\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(p, "y")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="expected a header row"):
            load_csv(p, "y")

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("y,a\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "y")

    def test_missing_dependent_column(self, tmp_path):
        p = tmp_path / "nod.csv"
        p.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="dependent column 'y' not in header"):
            load_csv(p, "y")

    def test_dependent_named_twice_in_the_header(self, tmp_path):
        # the second 'y' used to load as a covariate named 'y', which an
        # empty full list then put into the full model
        p = tmp_path / "twice.csv"
        p.write_text("y,y,x\n1,0,0.5\n0,1,0.7\n", encoding="utf-8")
        with pytest.raises(DataError, match="^header names the dependent column 'y' twice$"):
            load_csv(p, "y")

    def test_ragged_row_names_the_row(self, tmp_path):
        p = tmp_path / "rag.csv"
        p.write_text("y,a,b\n1,1.0,2.0\n0,3.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2 has 2 fields"):
            load_csv(p, "y")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "txt.csv"
        p.write_text("y,a,b\n1,1.0,2.0\n0,oops,4.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="cannot parse 'oops' at row 2, column 'a'"):
            load_csv(p, "y")

    def test_non_binary_dependent_names_the_row(self, tmp_path):
        p = tmp_path / "y2.csv"
        p.write_text("y,a\n1,1.0\n2,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="dependent value '2' at row 2 is not 0 or 1"):
            load_csv(p, "y")

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("y,a,b\n1,1.0,2.0\n0,nan,inf\n", encoding="utf-8")
        with pytest.raises(DataError, match="^non-finite covariate at row 2, column 'a'$"):
            load_csv(p, "y")

    def test_float_looking_dependent_is_rejected(self, tmp_path):
        # "1.0" parses as a float but the dependent column is held to the
        # literal tokens, so it must be refused
        p = tmp_path / "y3.csv"
        p.write_text("y,a\n1.0,1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="'1.0' at row 1"):
            load_csv(p, "y")


class TestInjectUniform:
    def test_same_seed_reproduces_columns(self):
        d = awkward_dataset()
        a = inject_uniform_covariates(d, 2, seed=99).x
        b = inject_uniform_covariates(d, 2, seed=99).x
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        d = awkward_dataset()
        a = inject_uniform_covariates(d, 1, seed=1).x[:, -1]
        b = inject_uniform_covariates(d, 1, seed=2).x[:, -1]
        assert not np.array_equal(a, b)

    def test_columns_live_strictly_inside_unit_interval(self):
        d = Dataset(np.zeros(4000, dtype=int), np.zeros((4000, 1)))
        out = inject_uniform_covariates(d, 3, seed=7)
        fresh = out.x[:, 1:]
        assert np.all(fresh > 0.0)
        assert np.all(fresh < 1.0)

    def test_names_and_original_columns_untouched(self):
        d = awkward_dataset()
        out = inject_uniform_covariates(d, 2, seed=5)
        assert out.names == ("a", "b", "c", "u1", "u2")
        assert out.x[:, :3].tobytes() == d.x.tobytes()
        assert np.array_equal(out.y, d.y)

    def test_count_below_one(self):
        with pytest.raises(ConfigError, match="at least 1"):
            inject_uniform_covariates(awkward_dataset(), 0, seed=1)

    # a fractional or boolean seed used to give seed 1's columns
    @pytest.mark.parametrize(
        "count, seed, name",
        [(1, 1.5, "inject_seed"), (1, True, "inject_seed"),
         (1.5, 1, "inject_uniform count"), (True, 1, "inject_uniform count")],
    )
    def test_count_and_seed_must_be_integers(self, count, seed, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            inject_uniform_covariates(awkward_dataset(), count, seed)

    @pytest.mark.parametrize("seed", [-3, 2**128])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(ConfigError, match=r"inject_seed must lie in \[0, 2\*\*128\)"):
            inject_uniform_covariates(awkward_dataset(), 1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_seed_at_the_ends_of_the_key_range(self, seed):
        assert inject_uniform_covariates(awkward_dataset(), 1, seed=seed).m == 4

    def test_name_collision(self):
        d = Dataset([0, 1], [[1.0], [2.0]], ("u1",))
        with pytest.raises(ConfigError, match="'u1' collides"):
            inject_uniform_covariates(d, 1, seed=1)
