"""Method-specific behaviour: the traits the paper attributes to each."""

import numpy as np
import pytest

from repro.api.frames import decode_legacy_header
from repro.compressors import get_compressor
from repro.compressors.buff import PRECISION_BITS, BuffCompressor
from repro.compressors.gfc import GFC_MAX_INPUT_BYTES
from repro.encodings.varint import encode_uvarint
from repro.errors import CorruptStreamError, InputTooLargeError, PrecisionError
from repro.perf.timing import PerformanceModel
from tests.conftest import assert_bit_exact


class TestGorilla:
    def test_constant_run_costs_one_bit_per_value(self):
        arr = np.full(5000, 12.5)
        blob = get_compressor("gorilla").compress(arr)
        assert len(blob) < 5000 / 8 + 64

    def test_random_data_slightly_expands(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(0, 1, 4000)
        cr = arr.nbytes / len(get_compressor("gorilla").compress(arr))
        assert 0.90 < cr < 1.05  # paper: 0.97-0.99 on pattern-free data


class TestChimp:
    def test_beats_gorilla_on_decimal_data(self):
        rng = np.random.default_rng(1)
        arr = np.round(rng.normal(50, 10, 6000), 2)
        chimp = len(get_compressor("chimp").compress(arr))
        gorilla = len(get_compressor("gorilla").compress(arr))
        assert chimp < gorilla

    def test_window_reference_hits(self):
        # Values recurring within 128 positions compress via the window.
        base = np.random.default_rng(2).normal(0, 1, 64)
        arr = np.tile(base, 40)
        cr = arr.nbytes / len(get_compressor("chimp").compress(arr))
        assert cr > 4.0


class TestFpzip:
    def test_dimensionality_improves_ratio(self, cases):
        arr = cases["smooth3d_f32"]
        comp = get_compressor("fpzip")
        cr_3d = arr.nbytes / len(comp.compress(arr))
        cr_1d = arr.nbytes / len(comp.compress(arr.ravel()))
        assert cr_3d > cr_1d

    def test_smooth_field_compresses_well(self, cases):
        arr = cases["smooth3d_f32"]
        cr = arr.nbytes / len(get_compressor("fpzip").compress(arr))
        assert cr > 1.8


class TestPfpc:
    def test_thread_count_changes_chunking_not_content(self):
        rng = np.random.default_rng(3)
        arr = np.cumsum(rng.normal(0, 0.01, 4000))
        one = get_compressor("pfpc", threads=1)
        eight = get_compressor("pfpc", threads=8)
        assert_bit_exact(arr, one.decompress(one.compress(arr)))
        assert_bit_exact(arr, eight.decompress(eight.compress(arr)))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            get_compressor("pfpc", threads=0)
        with pytest.raises(ValueError):
            get_compressor("pfpc", table_bits=2)


class TestBuff:
    def test_explicit_precision(self):
        arr = np.round(np.random.default_rng(4).normal(5, 1, 2000), 1)
        comp = BuffCompressor(precision=1)
        assert_bit_exact(arr, comp.decompress(comp.compress(arr)))

    def test_invalid_precision_rejected(self):
        with pytest.raises(PrecisionError):
            BuffCompressor(precision=11)

    def test_precision_bits_match_table2(self):
        assert PRECISION_BITS[1] == 5
        assert PRECISION_BITS[5] == 18
        assert PRECISION_BITS[10] == 35

    def test_full_precision_data_expands(self):
        rng = np.random.default_rng(5)
        arr = rng.normal(0, 1, 3000)
        cr = arr.nbytes / len(BuffCompressor().compress(arr))
        assert cr < 1.0  # everything is an outlier

    def test_scan_matches_numpy_reference(self):
        rng = np.random.default_rng(6)
        arr = np.round(rng.normal(100, 15, 5000), 2)
        comp = BuffCompressor()
        blob = comp.compress(arr)
        for threshold in (70.0, 100.0, 130.0):
            np.testing.assert_array_equal(
                comp.scan_less_equal(blob, threshold), arr <= threshold
            )
        value = arr[42]
        np.testing.assert_array_equal(comp.scan_equal(blob, value), arr == value)

    def test_scan_handles_outliers(self):
        rng = np.random.default_rng(7)
        arr = np.round(rng.normal(10, 2, 1000), 2)
        arr[::50] = rng.normal(0, 1, 20)  # full-precision outliers
        comp = BuffCompressor()
        blob = comp.compress(arr)
        np.testing.assert_array_equal(
            comp.scan_less_equal(blob, 10.0), arr <= 10.0
        )

    def test_scan_equal_encodes_the_probe_against_the_stream_base(self):
        # 5.4716 round-trips from the stream's base 0 but not from its
        # own floor 5, and its upper neighbour the other way round.
        arr = np.array([0.0, 5.4716, 5.4716, 1.5])
        comp = BuffCompressor()
        blob = comp.compress(arr)
        for value in (5.4716, float(np.nextafter(5.4716, np.inf)), 1.5, 0.0):
            np.testing.assert_array_equal(comp.scan_equal(blob, value), arr == value)

    @pytest.mark.parametrize(
        "probe", [np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0], ids=repr
    )
    def test_scan_answers_every_threshold_numpy_answers(self, probe):
        arr = np.array([0.0, 1.5, -0.0, np.nan, np.inf, 2.25, -np.inf, 0.0])
        comp = BuffCompressor(precision=10, outlier_threshold=0.5)
        blob = comp.compress(arr)
        np.testing.assert_array_equal(comp.scan_less_equal(blob, probe), arr <= probe)
        np.testing.assert_array_equal(comp.scan_equal(blob, probe), arr == probe)

    @pytest.mark.parametrize(
        "fields",
        [
            {"precision": 400},
            {"nbytes": 9},
            {"nbytes": 0},
            {"n_inliers": 5},
            {"bitmap": b"\x80"},
        ],
        ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_malformed_stream_is_a_typed_error(self, fields):
        comp = BuffCompressor()
        header = comp.compress(np.zeros(4))
        header = header[: decode_legacy_header(header)[2]]
        good = _buff_payload()
        assert_bit_exact(np.zeros(4), comp._decompress(good, (4,), np.dtype("f8")))
        assert comp.scan_equal(header + good, 0.0).all()
        bad = _buff_payload(**fields)
        with pytest.raises(CorruptStreamError):
            comp._decompress(bad, (4,), np.dtype("f8"))
        with pytest.raises(CorruptStreamError):
            comp.scan_less_equal(header + bad, 1.0)
        with pytest.raises(CorruptStreamError):
            comp.scan_equal(header + bad, 1.0)


def _buff_payload(count=4, precision=2, nbytes=1, n_inliers=4, bitmap=b"\x00"):
    """A BUFF stream of zeros whose lengths agree with its header, so
    only the field under test is wrong."""
    return b"".join(
        (
            encode_uvarint(count),
            encode_uvarint(precision),
            encode_uvarint(nbytes),
            np.float64(0.0).tobytes(),
            encode_uvarint(n_inliers),
            bytes(nbytes * n_inliers),
            bitmap,
            bytes(8 * max(count - n_inliers, 0)),
        )
    )


class TestGfc:
    def test_input_size_limit(self):
        comp = get_compressor("gfc")
        assert comp.max_input_bytes == GFC_MAX_INPUT_BYTES == 512 * 1024 * 1024

    def test_oversized_input_rejected(self, monkeypatch):
        comp = get_compressor("gfc")
        monkeypatch.setattr(type(comp), "max_input_bytes", 1024)
        with pytest.raises(InputTooLargeError):
            comp.compress(np.zeros(1000))

    def test_subchunk_base_prediction(self):
        # Constant data is GFC's best case: every residual is zero, so
        # only the 4-bit code plus one zero byte remain per value.
        arr = np.full(1280, 7.25)
        cr = arr.nbytes / len(get_compressor("gfc").compress(arr))
        assert cr > 4.0

    def test_leading_zero_bytes_only(self):
        # GFC trims leading zero *bytes* but keeps trailing zeros, so an
        # exponent-only step compresses barely at all (the inaccurate-
        # predictor trait behind its last-place ranking).
        arr = np.repeat(np.arange(40, dtype=np.float64), 32)
        cr = arr.nbytes / len(get_compressor("gfc").compress(arr))
        assert 1.0 < cr < 1.5

    def test_device_trace_records_transfers(self):
        # GFC's copies and launch are modeled from its cost, not recorded.
        comp = get_compressor("gfc")
        arr = np.random.default_rng(8).normal(0, 1, 1024)
        out = len(comp.compress(arr))
        perf = PerformanceModel()
        link = perf.gpu.pcie_bandwidth_gbs * 1e9 * comp.cost.transfer_efficiency
        timing = perf.breakdown(comp.cost, arr.nbytes, out)
        assert timing.transfer_seconds == pytest.approx(
            (arr.nbytes + out) / link + 2 * perf.gpu.pcie_latency_us * 1e-6
        )
        assert timing.launch_seconds > 0
        assert not hasattr(comp, "device")


class TestMpc:
    def test_smooth_doubles_compress(self):
        arr = np.cumsum(np.random.default_rng(9).normal(0, 1e-6, 8192)) + 10.0
        cr = arr.nbytes / len(get_compressor("mpc").compress(arr))
        assert cr > 1.3

    def test_chunk_padding_boundary(self):
        for n in (1023, 1024, 1025, 2047):
            arr = np.random.default_rng(n).normal(0, 1, n)
            comp = get_compressor("mpc")
            assert_bit_exact(arr, comp.decompress(comp.compress(arr)))


class TestNdzip:
    def test_cpu_gpu_streams_identical(self, cases):
        arr = cases["smooth3d_f32"]
        cpu = get_compressor("ndzip-cpu").compress(arr)
        gpu = get_compressor("ndzip-gpu").compress(arr)
        assert cpu == gpu  # same algorithm, different execution schedule

    def test_partial_border_blocks(self):
        # 17x17x17 leaves partial blocks on every axis.
        rng = np.random.default_rng(10)
        arr = np.cumsum(rng.normal(0, 0.01, 17**3)).reshape(17, 17, 17)
        comp = get_compressor("ndzip-cpu")
        assert_bit_exact(arr, comp.decompress(comp.compress(arr)))

    def test_rank_4_flattened_to_3(self):
        arr = np.random.default_rng(11).normal(0, 1, (3, 4, 5, 6))
        comp = get_compressor("ndzip-cpu")
        out = comp.decompress(comp.compress(arr))
        assert out.shape == arr.shape


class TestNvcomp:
    def test_bitcomp_constant_chunks_tiny(self):
        arr = np.full(8192, 1.0)
        cr = arr.nbytes / len(get_compressor("nvcomp-bitcomp").compress(arr))
        assert cr > 20.0

    def test_bitcomp_noisy_near_one(self):
        arr = np.random.default_rng(12).normal(0, 1, 8192)
        cr = arr.nbytes / len(get_compressor("nvcomp-bitcomp").compress(arr))
        assert 0.9 < cr < 1.1

    def test_lz4_chunking_parameter(self):
        comp = get_compressor("nvcomp-lz4", chunk_bytes=4096)
        arr = np.random.default_rng(13).normal(0, 1, 4000)
        assert_bit_exact(arr, comp.decompress(comp.compress(arr)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            get_compressor("nvcomp-lz4", chunk_bytes=10)
        with pytest.raises(ValueError):
            get_compressor("nvcomp-bitcomp", chunk_values=3)


class TestSpdp:
    def test_window_tradeoff_parameters(self):
        rng = np.random.default_rng(14)
        arr = np.round(rng.normal(10, 1, 4000), 2)
        small = get_compressor("spdp", window=1 << 10)
        large = get_compressor("spdp", window=1 << 18)
        assert_bit_exact(arr, small.decompress(small.compress(arr)))
        blob_small = small.compress(arr)
        blob_large = large.compress(arr)
        assert len(blob_large) <= len(blob_small) + 32

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            get_compressor("spdp", window=16)


class TestDzip:
    def test_compresses_structured_bytes(self):
        arr = np.round(np.random.default_rng(15).normal(5, 1, 600), 1)
        comp = get_compressor("dzip")
        blob = comp.compress(arr)
        assert_bit_exact(arr, comp.decompress(blob))
        assert len(blob) < arr.nbytes

    def test_two_model_mixing_is_symmetric(self):
        # Encode/decode must drive identical model state; any divergence
        # would corrupt the stream immediately.
        rng = np.random.default_rng(16)
        arr = np.repeat(rng.normal(0, 1, 25), 20)
        comp = get_compressor("dzip")
        assert_bit_exact(arr, comp.decompress(comp.compress(arr)))
