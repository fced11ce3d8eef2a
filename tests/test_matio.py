import numpy as np
import pytest

from fermicool import (
    MatrixParseError,
    NotPositiveDefiniteError,
    load_system,
    read_matrix,
    write_matrix,
)


def test_reads_simple_matrix(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("2 2\n1 0\n0 1\n")
    np.testing.assert_array_equal(read_matrix(p), np.eye(2))


def test_comments_blank_lines_and_scientific_notation(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("# a comment\n\n2 3\n1.5e-3 2 3\n# mid comment\n-4 5.0E+2 6\n")
    expected = np.array([[1.5e-3, 2.0, 3.0], [-4.0, 500.0, 6.0]])
    np.testing.assert_array_equal(read_matrix(p), expected)


def test_malformed_header(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("# hi\n2 2 2\n1 0\n0 1\n")
    with pytest.raises(MatrixParseError, match=r":2:"):
        read_matrix(p)


def test_wrong_element_count_reports_line(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("2 2\n1 0\n0\n")
    with pytest.raises(MatrixParseError, match=r":3:") as err:
        read_matrix(p)
    assert err.value.line == 3


def test_non_numeric_token_reports_line(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("2 2\n1 0\n0 abc\n")
    with pytest.raises(MatrixParseError, match="abc") as err:
        read_matrix(p)
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_value_reports_line(tmp_path, token):
    p = tmp_path / "m.mat"
    p.write_text(f"# c\n2 2\n1 0\n0 {token}\n")
    with pytest.raises(MatrixParseError, match="non-finite") as err:
        read_matrix(p)
    assert err.value.line == 4


def test_missing_rows(tmp_path):
    p = tmp_path / "m.mat"
    p.write_text("3 2\n1 0\n0 1\n")
    with pytest.raises(MatrixParseError, match="expected 3 data rows"):
        read_matrix(p)


def test_missing_file():
    with pytest.raises(MatrixParseError, match="cannot read"):
        read_matrix("/nonexistent/never.mat")


def test_round_trip_is_bit_exact(tmp_path, rng):
    m = rng.normal(size=(6, 6)) * np.exp(rng.uniform(-20, 20, size=(6, 6)))
    p = tmp_path / "m.mat"
    write_matrix(p, m, comment="round trip check")
    back = read_matrix(p)
    np.testing.assert_array_equal(back, m)


def test_write_uses_lf_endings(tmp_path):
    p = tmp_path / "m.mat"
    write_matrix(p, np.eye(2))
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


class TestLoadSystem:
    def test_identity_overlap_by_default(self, tmp_path):
        p = tmp_path / "h.mat"
        p.write_text("2 2\n1 0\n0 1\n")
        system = load_system(p)
        np.testing.assert_array_equal(system.h_core.mat, np.eye(2))
        np.testing.assert_array_equal(system.s.mat, np.eye(2))

    def test_asymmetry_warns_and_symmetrizes(self, tmp_path):
        p = tmp_path / "h.mat"
        p.write_text("2 2\n1 1e-6\n0 1\n")
        with pytest.warns(UserWarning, match="asymmetry"):
            system = load_system(p)
        np.testing.assert_allclose(system.h_core.mat, [[1.0, 5e-7], [5e-7, 1.0]])

    def test_small_asymmetry_is_silent(self, tmp_path, recwarn):
        p = tmp_path / "h.mat"
        p.write_text("2 2\n1 1e-9\n0 1\n")
        load_system(p)
        assert not [w for w in recwarn if "asymmetry" in str(w.message)]

    def test_indefinite_overlap_names_eigenvalue(self, tmp_path):
        h = tmp_path / "h.mat"
        h.write_text("2 2\n1 0\n0 1\n")
        s = tmp_path / "s.mat"
        s.write_text("2 2\n1 0\n0 -0.1\n")
        with pytest.raises(NotPositiveDefiniteError, match="-0.1"):
            load_system(h, s)

    def test_rectangular_rejected(self, tmp_path):
        p = tmp_path / "h.mat"
        p.write_text("1 2\n1 0\n")
        with pytest.raises(MatrixParseError, match="square"):
            load_system(p)
