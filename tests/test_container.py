"""Binary container round trips and malformed-input handling."""

import dataclasses
import io
import logging
import struct
import tracemalloc

import numpy as np
import pytest

from mant import container
from mant.cli import main
from mant.codec import (
    INT4_COEFF,
    quantize_activation_tensor,
    quantize_weight_tensor,
)
from mant.container import (
    ContainerError,
    load_quantized,
    read_quantized,
    read_tensor,
    save_quantized,
    write_quantized,
    write_tensor,
)


def quantized_bytes(qt) -> bytes:
    buf = io.BytesIO()
    write_quantized(buf, qt)
    return buf.getvalue()


class TestQuantizedContainer:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        qt = quantize_weight_tensor(rng.standard_normal((128, 5)), 25, 0, 64)
        blob = quantized_bytes(qt)
        loaded = read_quantized(io.BytesIO(blob))
        assert quantized_bytes(loaded) == blob
        assert loaded.shape == qt.shape
        assert np.array_equal(loaded.codes, qt.codes)
        assert np.array_equal(loaded.coefficients, qt.coefficients)

    def test_scales_round_to_half(self):
        rng = np.random.default_rng(1)
        qt = quantize_weight_tensor(rng.standard_normal((64, 2)), 17, 0, 64)
        loaded = read_quantized(io.BytesIO(quantized_bytes(qt)))
        for s in loaded.scales.ravel():
            assert float(np.float16(s)) == s

    def test_scale_flushed_in_half_warns(self, caplog, tmp_path):
        # a 64-element group of absmax 1e-7 has a scale below the fp16 range
        values = np.random.default_rng(5).standard_normal(64)
        values *= 1e-7 / np.max(np.abs(values))
        qt = quantize_weight_tensor(values, 25, 0, 64)
        assert np.max(np.abs(qt.dequantize())) == pytest.approx(1e-7)
        with caplog.at_level(logging.WARNING, logger="mant"):
            save_quantized(tmp_path / "q.mntq", qt)
        assert "1 group scales flushed to 0 and 0 clamped to 65504 in IEEE half" in caplog.text
        assert not load_quantized(tmp_path / "q.mntq").dequantize().any()

    def test_int8_round_trip(self):
        rng = np.random.default_rng(2)
        qt = quantize_activation_tensor(rng.standard_normal((3, 130)), 1, 64)
        blob = quantized_bytes(qt)
        loaded = read_quantized(io.BytesIO(blob))
        assert quantized_bytes(loaded) == blob
        assert np.array_equal(loaded.codes, qt.codes)

    def test_short_groups(self):
        rng = np.random.default_rng(3)
        qt = quantize_weight_tensor(rng.standard_normal((100, 2)), 40, 0, 64)
        loaded = read_quantized(io.BytesIO(quantized_bytes(qt)))
        assert int(loaded.group_lengths[0, 1]) == 36
        assert loaded.dequantize().shape == (100, 2)

    def test_dequantize_after_reload_is_stable(self):
        # file scales are half precision; a second round trip is identity
        rng = np.random.default_rng(4)
        qt = quantize_weight_tensor(rng.standard_normal((64, 3)), 30, 0, 64)
        loaded = read_quantized(io.BytesIO(quantized_bytes(qt)))
        again = read_quantized(io.BytesIO(quantized_bytes(loaded)))
        assert np.array_equal(again.dequantize(), loaded.dequantize())

    def test_one_dimensional_tensor(self):
        qt = quantize_activation_tensor(np.arange(100, dtype=float), 0, 64)
        loaded = read_quantized(io.BytesIO(quantized_bytes(qt)))
        assert loaded.shape == (100,)
        assert np.array_equal(loaded.codes, qt.codes)

    @pytest.mark.parametrize("row,group,length", [(1, 1, 64), (0, 0, 36), (1, 0, 0)])
    def test_record_length_disagrees_with_dims(self, row, group, length):
        # (100, 2) in groups of 64: two rows of a 64 and a 36 group
        rng = np.random.default_rng(7)
        blob = bytearray(quantized_bytes(quantize_weight_tensor(rng.standard_normal((100, 2)),
                                                                40, 0, 64)))
        header = 4 + 6 + 2 * 8 + 1   # magic, version/kind/G/ndim, dims, axis
        offset = header + 5 * (2 * row + group) + 3   # <HBH record: scale, a, length
        blob[offset:offset + 2] = length.to_bytes(2, "little")
        with pytest.raises(ContainerError,
                           match=rf"group \({row},{group}\) length {length} inconsistent"):
            read_quantized(io.BytesIO(bytes(blob)))

    @pytest.mark.parametrize("kind,field,value,match", [
        ("mant4", 0, 0x7C00, "scale inf is not finite"),
        ("mant4", 0, 0x7E00, "scale nan is not finite"),
        ("mant4", 0, 0xBC00, "scale -1.0 is not finite and non-negative"),
        ("mant4", 0, 0x8000, "scale -0.0 is not finite"),
        ("int8", 0, 0x7C00, "scale inf is not finite"),
        ("mant4", 2, 200, "coefficient 200 does not fit mant4"),
        ("mant4", 2, 255, "coefficient 255 does not fit mant4"),
        ("int8", 2, 128, "coefficient 128 does not fit int8"),
        ("int8", 2, 0, "coefficient 0 does not fit int8"),
    ])
    def test_corrupt_record(self, tmp_path, capsys, kind, field, value, match):
        # (100, 2) in groups of 64; corrupt group (1, 0)'s scale bits or coefficient
        w = np.random.default_rng(8).standard_normal((100, 2))
        qt = quantize_weight_tensor(w, 40, 0, 64) if kind == "mant4" \
            else quantize_activation_tensor(w, 0, 64)
        blob = bytearray(quantized_bytes(qt))
        offset = 4 + 6 + 2 * 8 + 1 + 5 * 2 + field   # header, then record (1, 0)
        size = 2 if field == 0 else 1
        blob[offset:offset + size] = value.to_bytes(size, "little")
        with pytest.raises(ContainerError, match=rf"group \(1,0\) {match}"):
            read_quantized(io.BytesIO(bytes(blob)))
        path, out = tmp_path / "bad.mntq", tmp_path / "out.mntt"
        path.write_bytes(bytes(blob))
        assert main(["dequantize", "--input", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("high", [False, True])
    def test_int4_negative_zero_refused(self, high):
        # (100, 2) in groups of 64: each row's payload is 32 + 18 bytes;
        # set a nibble of row 1's first group to 8 (-0)
        w = np.random.default_rng(9).standard_normal((100, 2))
        offset = 4 + 6 + 2 * 8 + 1 + 5 * 4 + 50 + 3
        for a in (INT4_COEFF, 40):
            blob = bytearray(quantized_bytes(quantize_weight_tensor(w, a, 0, 64)))
            blob[offset] = (blob[offset] & 0x0F) | 0x80 if high else (blob[offset] & 0xF0) | 0x08
            if a == INT4_COEFF:
                # its level is 0, whose code is 0: written back, the byte would change
                with pytest.raises(ContainerError,
                                   match=r"group \(1,0\) holds INT4 code 8, a negative zero"):
                    read_quantized(io.BytesIO(bytes(blob)))
            else:   # on an adaptive grid 8 is -1, a level of its own
                assert quantized_bytes(read_quantized(io.BytesIO(bytes(blob)))) == bytes(blob)

    @pytest.mark.parametrize("values, group_size, where", [
        (np.array([0.25, -0.5, 1.0]), 3, r"\(0,0\)"),
        # (7, 2) in groups of 3: lengths 3, 3 and 1, each ending on a pad nibble;
        # the file's last byte holds row 1's last group
        (np.random.default_rng(11).standard_normal((7, 2)), 3, r"\(1,2\)")])
    def test_nonzero_pad_nibble_refused(self, values, group_size, where):
        blob = bytearray(quantized_bytes(quantize_weight_tensor(values, 40, 0, group_size)))
        assert blob[-1] >> 4 == 0
        if values.ndim == 1:
            assert blob[-1] == 0x07
        blob[-1] |= 0xF0   # read back, then written, this nibble would be 0 again
        with pytest.raises(ContainerError, match=rf"group {where} has pad nibble 0xf, not 0"):
            read_quantized(io.BytesIO(bytes(blob)))

    @pytest.mark.parametrize("level", [16, -3, 2000, -32768])
    def test_off_grid_level_refused_on_write(self, level):
        # the levels of a = 17 are +-1, 19, 38, ...; none of them is `level`
        qt = quantize_weight_tensor(np.random.default_rng(10).standard_normal((64, 2)), 17, 0, 64)
        levels = qt.levels.copy()
        levels[1, 0, 5] = level
        with pytest.raises(ValueError, match="exceed 4 bits"):
            write_quantized(io.BytesIO(), dataclasses.replace(qt, levels=levels))

    @pytest.mark.parametrize("kind,level", [("mant4", 16), ("mant4", 19), ("mant4", -2000),
                                            ("int8", 5)])
    def test_levels_past_the_tail_not_written(self, kind, level):
        # (101, 2) in groups of 64: the last group of each row holds 37 values, then
        # code 0's level, which the file does not store; a 4-bit row ends on a pad nibble
        w = np.random.default_rng(12).standard_normal((101, 2))
        qt = quantize_weight_tensor(w, 17, 0, 64) if kind == "mant4" \
            else quantize_activation_tensor(w, 0, 64)
        levels = qt.levels.copy()
        levels[:, -1, 37:] = level
        assert quantized_bytes(dataclasses.replace(qt, levels=levels)) == quantized_bytes(qt)

    def test_bad_magic(self):
        with pytest.raises(ContainerError):
            read_quantized(io.BytesIO(b"XXXX" + b"\x00" * 32))

    def test_truncated(self):
        rng = np.random.default_rng(5)
        blob = quantized_bytes(quantize_weight_tensor(rng.standard_normal((64, 2)), 17, 0, 64))
        with pytest.raises(ContainerError):
            read_quantized(io.BytesIO(blob[:-3]))

    def test_trailing_bytes(self):
        rng = np.random.default_rng(6)
        blob = quantized_bytes(quantize_weight_tensor(rng.standard_normal((64, 2)), 17, 0, 64))
        with pytest.raises(ContainerError):
            read_quantized(io.BytesIO(blob + b"\x00"))


# headers whose dims (group size 1) claim far more bytes than follow them:
# 2**40 x 2**40 once overflowed read(); 2**20 x 2**20 claims terabytes
# below 2**63, which read() on a file would try to allocate
OVERSIZE_DIMS = [(2 ** 40, 2 ** 40), (2 ** 20, 2 ** 20)]


def oversize_header(magic, dims) -> bytes:
    if magic == container.QUANT_MAGIC:   # 4-bit codes, group size 1, group axis 0
        return magic + struct.pack("<HBHB2QB", 1, 0, 1, 2, *dims, 0) + b"\x00" * 64
    return magic + struct.pack("<HBB2Q", 1, 0, 2, *dims) + b"\x00" * 64


class TestOversizeHeaders:
    """A header's byte count is checked against the bytes left in the stream
    before the read, and fails as a ContainerError."""

    @pytest.mark.parametrize("dims", OVERSIZE_DIMS)
    @pytest.mark.parametrize("magic,read", [(container.QUANT_MAGIC, read_quantized),
                                            (container.TENSOR_MAGIC, read_tensor)],
                             ids=["mntq", "mntt"])
    def test_reader_refuses(self, magic, read, dims):
        with pytest.raises(ContainerError, match=r"wanted \d+ bytes, 64 left"):
            read(io.BytesIO(oversize_header(magic, dims)))

    def test_missing_payload_refused_before_slots(self, monkeypatch):
        # the slots take a byte or more per code, so a header that claims a payload
        # the stream lacks fails before they are laid out
        qt = quantize_weight_tensor(np.ones((64, 3)), 17, 0, 64)
        blob = quantized_bytes(qt)[:-3 * 32]   # records intact, payload gone
        monkeypatch.setattr(container, "unpack_codes", lambda *args: pytest.fail("slots"))
        with pytest.raises(ContainerError, match="wanted 96 bytes, 0 left"):
            read_quantized(io.BytesIO(blob))

    def test_zero_rows_read_without_per_group_arrays(self):
        # 27 bytes claiming 2**22 one-element groups per row, but no rows: no
        # records, no payload, and nothing to allocate per group
        blob = container.QUANT_MAGIC + struct.pack("<HBHB2QB", 1, 0, 1, 2, 0, 2 ** 22, 1)
        assert len(blob) == 27
        tracemalloc.start()
        try:
            qt = read_quantized(io.BytesIO(blob))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qt.shape == (0, 2 ** 22) and qt.dequantize().shape == (0, 2 ** 22)
        assert peak < 2 ** 20

    @pytest.mark.parametrize("dims", OVERSIZE_DIMS)
    @pytest.mark.parametrize("magic,command", [
        (container.QUANT_MAGIC, ["dequantize", "--input"]),
        (container.TENSOR_MAGIC, ["quantize", "--role", "weight", "--tensor"]),
    ], ids=["dequantize", "quantize"])
    def test_cli_exits_2(self, tmp_path, capsys, magic, command, dims):
        path, out = tmp_path / "big.bin", tmp_path / "out.bin"
        path.write_bytes(oversize_header(magic, dims))
        assert main(command + [str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: truncated container: wanted")
        assert not out.exists()


class TestRandomizedRoundTrips:
    def test_many_shapes_and_kinds(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 70)) for _ in range(ndim))
            axis = int(rng.integers(0, ndim))
            group = int(rng.choice([16, 32, 64]))
            values = rng.standard_normal(shape) * rng.uniform(0.01, 100)
            if rng.random() < 0.5:
                qt = quantize_activation_tensor(values, axis, group)
            else:
                qt = quantize_weight_tensor(values, int(rng.choice([0, 17, 40, 120])),
                                            axis, group)
            blob = quantized_bytes(qt)
            loaded = read_quantized(io.BytesIO(blob))
            assert quantized_bytes(loaded) == blob, (shape, axis, group)
            assert loaded.dequantize().shape == shape


class TestTensorContainer:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 7)).astype(np.float32)
        buf = io.BytesIO()
        write_tensor(buf, values)
        loaded = read_tensor(io.BytesIO(buf.getvalue()))
        assert np.array_equal(loaded, values.astype(np.float64))

    def test_bad_magic(self):
        with pytest.raises(ContainerError):
            read_tensor(io.BytesIO(b"MNTQ" + b"\x00" * 16))

    def test_version_is_its_own(self, monkeypatch):
        # an MNTQ version bump leaves MNTT files, written as version 1, readable
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 3)))
        assert buf.getvalue()[4:6] == b"\x01\x00"
        monkeypatch.setattr(container, "FORMAT_VERSION", 2)
        assert np.array_equal(read_tensor(io.BytesIO(buf.getvalue())), np.ones((2, 3)))
        buf = io.BytesIO()
        write_tensor(buf, np.ones((2, 3)))
        assert buf.getvalue()[4:6] == b"\x01\x00"

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ContainerError):
            read_tensor(io.BytesIO(buf.getvalue()[:-1]))
