"""Binary tensor format, digests, and PGM dumps."""

import struct

import numpy as np
import pytest

from apex import tensorio
from apex.errors import CorruptInputError


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
        back = tensorio.read_pnm(path)
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
        raw = tensorio.read_pnm(path)[:, :, 0]
        assert raw[0, 0] == 0.0
        assert raw[1, 0] == 1.0

    def test_channel_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tensorio.write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))
