"""Binary tensor format, digests, and PGM dumps."""

import struct

import numpy as np
import pytest

from apex import tensorio
from apex.errors import CorruptInputError

import oracles


class TestTensorFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in ((), (3,), (2, 3), (2, 3, 4, 1)):
            arr = rng.standard_normal(shape)
            path = tmp_path / "t.apxt"
            tensorio.write_tensor(path, arr)
            back = tensorio.read_tensor(path)
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_layout_golden_bytes(self, tmp_path):
        path = tmp_path / "g.apxt"
        tensorio.write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"APXT"
        assert struct.unpack("<I", raw[4:8]) == (2,)
        assert struct.unpack("<II", raw[8:16]) == (2, 2)
        assert struct.unpack("<4d", raw[16:]) == (1.0, 2.0, 3.0, 4.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.apxt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            tensorio.read_tensor(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "t.apxt"
        tensorio.write_tensor(path, np.ones(4))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            tensorio.read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.apxt"
        tensorio.write_tensor(path, np.ones(2))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            tensorio.read_tensor(path)

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda raw: b"NOPE" + raw[4:], id="bad_magic"),
        pytest.param(lambda raw: raw[:6], id="short_header"),
        pytest.param(lambda raw: raw[:10], id="cut_in_shape"),
        pytest.param(lambda raw: raw[:len(raw) // 2], id="halved"),
        pytest.param(lambda raw: raw[:-3], id="odd_length"),
        pytest.param(lambda raw: raw + b"\x00" * 8, id="trailing"),
    ])
    def test_corruption_is_corrupt_input_error(self, tmp_path, cut):
        path = tmp_path / "t.apxt"
        tensorio.write_tensor(path, np.ones((3, 5)))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(CorruptInputError):
            tensorio.read_tensor(path)

    def test_header_checked_against_file_size_before_data(self, tmp_path):
        """A header that claims far more data than the file holds is rejected
        from its sizes alone; nothing that large is read or allocated."""
        path = tmp_path / "huge.apxt"
        path.write_bytes(b"APXT" + struct.pack("<3I", 2, 2 ** 31, 2 ** 31) + b"\x00" * 8)
        with pytest.raises(CorruptInputError, match="truncated"):
            tensorio.read_tensor(path)

    def test_file_shrunk_after_size_check_is_corrupt_input_error(self, tmp_path,
                                                                 monkeypatch):
        """The data is read straight into the result; a read that ends short
        of the header's size is rejected, not returned half-filled."""
        path = tmp_path / "t.apxt"
        tensorio.write_tensor(path, np.ones((3, 5)))
        full = tensorio.os.stat(path)
        path.write_bytes(path.read_bytes()[:-16])
        monkeypatch.setattr(tensorio.os, "fstat", lambda fd: full)
        with pytest.raises(CorruptInputError, match="ended"):
            tensorio.read_tensor(path)

    @pytest.mark.parametrize("arr", [
        pytest.param(np.arange(12.0).reshape(3, 4).T, id="transposed"),
        pytest.param(np.arange(6.0, dtype=">f8"), id="big_endian"),
        pytest.param(np.arange(5), id="integers"),
        pytest.param(np.zeros((4, 0)), id="empty"),
    ])
    def test_any_layout_is_written_as_c_order_little_endian(self, tmp_path, arr):
        path = tmp_path / "t.apxt"
        tensorio.write_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[8 + 4 * arr.ndim:] == np.ascontiguousarray(arr, dtype="<f8").tobytes()
        back = tensorio.read_tensor(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("parts", [
        pytest.param([np.arange(6.0).reshape(2, 3, 1) + k for k in range(4)], id="images"),
        pytest.param((np.eye(3), np.arange(9.0).reshape(3, 3).T, np.ones((3, 3), ">f8")),
                     id="mixed_layouts"),
        pytest.param([np.arange(5) * k for k in range(3)], id="integers"),
        pytest.param([np.zeros((2, 0))], id="one_empty"),
    ])
    def test_sequence_is_written_as_its_stack(self, tmp_path, parts):
        tensorio.write_tensor(tmp_path / "seq.apxt", parts)
        tensorio.write_tensor(tmp_path / "stacked.apxt", np.stack(parts))
        raw = (tmp_path / "seq.apxt").read_bytes()
        assert raw == (tmp_path / "stacked.apxt").read_bytes()
        assert np.array_equal(tensorio.read_tensor(tmp_path / "seq.apxt"), np.stack(parts))

    def test_bool_parts_are_written_as_float64_zeros_and_ones(self, tmp_path):
        parts = [np.arange(12).reshape(3, 4) % (k + 2) == 0 for k in range(3)]
        tensorio.write_tensor(tmp_path / "bool.apxt", parts)
        tensorio.write_tensor(tmp_path / "f8.apxt", [p.astype(np.float64) for p in parts])
        assert (tmp_path / "bool.apxt").read_bytes() == (tmp_path / "f8.apxt").read_bytes()

    @pytest.mark.parametrize("parts", [
        pytest.param([], id="empty"),
        pytest.param([np.ones((2, 2)), np.ones((2, 3))], id="unequal_shapes"),
        pytest.param([np.ones(4), np.ones((2, 2))], id="unequal_ranks"),
    ])
    def test_sequence_of_unequal_or_no_arrays_is_refused(self, tmp_path, parts):
        with pytest.raises(ValueError):
            tensorio.write_tensor(tmp_path / "seq.apxt", parts)
        assert not (tmp_path / "seq.apxt").exists()


class TestDigest:
    def test_stable_and_shape_sensitive(self):
        a = np.arange(6.0).reshape(2, 3)
        assert tensorio.tensor_digest(a) == tensorio.tensor_digest(a.copy())
        assert tensorio.tensor_digest(a) != tensorio.tensor_digest(a.reshape(3, 2))
        assert tensorio.tensor_digest(a) != tensorio.tensor_digest(a + 1e-12)


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, img)
        back = oracles.read_pnm(path)
        assert back.shape == (8, 8, 1)
        assert np.max(np.abs(back[:, :, 0] - img)) <= 0.5 / 255.0 + 1e-9

    def test_pgm_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, np.zeros((4, 6)))
        assert path.read_bytes().startswith(b"P5\n6 4\n255\n")

    def test_values_clamped(self, tmp_path):
        img = np.array([[-1.0, 0.5], [2.0, 1.0]])
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, img)
        raw = oracles.read_pnm(path)[:, :, 0]
        assert raw[0, 0] == 0.0
        assert raw[1, 0] == 1.0

    def test_channel_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tensorio.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))
