"""Array file format and PGM export."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from microhom.arrayio import read_array, write_array, write_pgm
from microhom.errors import DomainError


class TestArrayFile:
    def test_header_grammar(self, tmp_path):
        path = tmp_path / "x.bin"
        write_array(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        line, payload = raw.split(b"\n", 1)
        assert line == b'{"dtype": "f64", "shape": [2, 3], "order": "C", "byte_order": "LE"}'
        assert len(payload) == 2 * 3 * 8

    def test_round_trip_f64(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((5, 4, 3, 3))
        path = tmp_path / "a.bin"
        write_array(path, arr)
        back = read_array(path)
        assert back.dtype == np.float64
        assert_array_equal(back, arr)
        # write(read(x)) is byte-identical
        path2 = tmp_path / "b.bin"
        write_array(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_u8(self, tmp_path):
        arr = (np.arange(64).reshape(8, 8) % 2).astype(np.uint8)
        path = tmp_path / "g.bin"
        write_array(path, arr)
        assert_array_equal(read_array(path), arr)

    def test_rejects_other_dtypes(self, tmp_path):
        with pytest.raises(DomainError):
            write_array(tmp_path / "x.bin", np.zeros(3, dtype=np.float32))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.bin"
        write_array(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DomainError):
            read_array(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b'{"dtype": "f64"}\n')
        with pytest.raises(DomainError):
            read_array(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"5",
            b'{"dtype": "f64", "shape": "ab", "order": "C", "byte_order": "LE"}',
            b'{"dtype": ["f64"], "shape": [1], "order": "C", "byte_order": "LE"}',
            b'{"dtype": "f64", "shape": [-1, -1], "order": "C", "byte_order": "LE"}',
            b'{"dtype": "f64", "shape": [1.0], "order": "C", "byte_order": "LE"}',
            b'{"dtype": "f64", "shape": [true], "order": "C", "byte_order": "LE"}',
            b'{"dtype": "f64", "shape": 1, "order": "C", "byte_order": "LE"}',
        ],
        ids=["int", "shape-string", "dtype-list", "shape-negative", "shape-float",
             "shape-bool", "shape-int"],
    )
    def test_unusable_header_is_one_line_domain_error(self, tmp_path, header):
        path = tmp_path / "x.bin"
        path.write_bytes(header + b"\n" + bytes(8))  # one f64, were the header usable
        with pytest.raises(DomainError, match=r"x\.bin: ") as info:
            read_array(path)
        assert "\n" not in str(info.value)

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "missing.bin"
        with pytest.raises(DomainError, match="missing.bin: cannot read"):
            read_array(path)


class TestPgm:
    def test_binary_grid_two_levels(self, tmp_path):
        grid = np.array([[0, 1], [1, 0]], dtype=float)
        path = tmp_path / "g.pgm"
        write_pgm(path, grid)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert set(raw[len(b"P5\n2 2\n255\n"):]) == {0, 255}

    def test_sidecar_bounds(self, tmp_path):
        field = np.array([[1.0, 3.0], [2.0, 5.0]])
        path = tmp_path / "f.pgm"
        write_pgm(path, field)
        bounds = json.loads((tmp_path / "f.pgm.json").read_text())
        assert bounds == {"min": 1.0, "max": 5.0}

    def test_constant_field_warns_and_zeroes(self, tmp_path):
        path = tmp_path / "c.pgm"
        with pytest.warns(UserWarning):
            write_pgm(path, np.full((3, 5), 7.0))
        raw = path.read_bytes()
        header = b"P5\n5 3\n255\n"
        assert raw.startswith(header)
        assert raw[len(header):] == bytes(15)

    def test_dimensions_follow_grid(self, tmp_path):
        field = np.arange(12, dtype=float).reshape(3, 4)
        path = tmp_path / "d.pgm"
        write_pgm(path, field)
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(DomainError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))
