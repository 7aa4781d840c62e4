"""Tests for the compression substrate (Blosc-like, bzip2, probing)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    BloscCompressor,
    Bzip2Compressor,
    NullCompressor,
    available_compressors,
    get_compressor,
    probe_block,
    probe_report,
    probed_ratio,
    shuffle,
    unshuffle,
)
from repro.fs.payload import ENTROPY_CLASSES, RealPayload, SyntheticPayload


class TestRegistry:
    def test_available(self):
        names = available_compressors()
        assert {"blosc", "bzip2", "none"} <= set(names)

    def test_get_by_name(self):
        assert isinstance(get_compressor("blosc"), BloscCompressor)
        assert isinstance(get_compressor("bzip2"), Bzip2Compressor)
        assert isinstance(get_compressor(None), NullCompressor)
        assert isinstance(get_compressor("BLOSC"), BloscCompressor)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_compressor("zstd")

    def test_mixed_case_registration_reachable(self):
        """Regression (ISSUE 10): ``register`` stored ``cls.name``
        verbatim while ``get_compressor`` lowercases its lookup, so any
        codec registered under a mixed-case name was unreachable."""
        from repro.compression.api import _REGISTRY, register

        @register
        class MixedCase(NullCompressor):
            name = "MiXeDcAsE"

        try:
            assert isinstance(get_compressor("mixedcase"), MixedCase)
            assert isinstance(get_compressor("MiXeDcAsE"), MixedCase)
            assert "mixedcase" in available_compressors()
        finally:
            _REGISTRY.pop("mixedcase", None)

    def test_unnamed_codec_rejected_at_registration(self):
        from repro.compression.api import register

        with pytest.raises(ValueError):
            @register
            class Nameless(NullCompressor):
                name = ""


class TestShuffle:
    def test_roundtrip_exact(self):
        data = np.arange(100, dtype=np.float32).tobytes()
        assert unshuffle(shuffle(data, 4), 4, len(data)) == data

    def test_roundtrip_with_remainder(self):
        data = b"0123456789X"  # 11 bytes, typesize 4 leaves a 3-byte tail
        assert unshuffle(shuffle(data, 4), 4, len(data)) == data

    def test_typesize_one_is_identity(self):
        assert shuffle(b"abcdef", 1) == b"abcdef"

    def test_groups_byte_planes(self):
        # two float32-ish elements: shuffle puts plane-0 bytes adjacent
        data = bytes([1, 2, 3, 4, 5, 6, 7, 8])
        out = shuffle(data, 4)
        assert out == bytes([1, 5, 2, 6, 3, 7, 4, 8])

    @given(st.binary(min_size=0, max_size=4096),
           st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data, typesize):
        assert unshuffle(shuffle(data, typesize), typesize, len(data)) == data


class TestCodecs:
    @pytest.mark.parametrize("name", ["blosc", "bzip2", "none"])
    def test_bytes_roundtrip(self, name):
        codec = get_compressor(name)
        data = np.random.default_rng(0).normal(size=1000).astype(
            np.float32).tobytes()
        packed = codec.compress_bytes(data)
        assert codec.decompress_bytes(packed) == data

    @pytest.mark.parametrize("name", ["blosc", "bzip2"])
    def test_empty_input(self, name):
        codec = get_compressor(name)
        assert codec.decompress_bytes(codec.compress_bytes(b"")) == b""

    def test_blosc_compresses_structured_floats(self):
        codec = BloscCompressor()
        block = probe_block("particle_float32")
        packed = codec.compress_bytes(block)
        assert len(packed) < len(block)

    def test_blosc_corrupt_container_detected(self):
        codec = BloscCompressor()
        packed = bytearray(codec.compress_bytes(b"hello world" * 10))
        packed[:4] = b"XXXX"
        with pytest.raises(ValueError):
            codec.decompress_bytes(bytes(packed))

    def test_blosc_invalid_params(self):
        with pytest.raises(ValueError):
            BloscCompressor(typesize=0)
        with pytest.raises(ValueError):
            BloscCompressor(clevel=10)

    def test_bzip2_invalid_level(self):
        with pytest.raises(ValueError):
            Bzip2Compressor(compresslevel=0)

    def test_blosc_much_faster_than_bzip2_model(self):
        assert (BloscCompressor.compress_bandwidth
                > 10 * Bzip2Compressor.compress_bandwidth)


class TestPayloadCompression:
    def test_real_payload_roundtrip(self):
        codec = get_compressor("blosc")
        arr = np.linspace(0, 1, 500, dtype=np.float32)
        result = codec.compress(RealPayload(arr))
        assert result.original_nbytes == arr.nbytes
        back = codec.decompress(result.payload)
        assert np.array_equal(np.frombuffer(back, np.float32), arr)

    def test_synthetic_payload_uses_probed_ratio(self):
        codec = get_compressor("blosc")
        p = SyntheticPayload(10 * 2**20, "particle_float32")
        result = codec.compress(p)
        expected = probed_ratio(codec, "particle_float32")
        assert result.ratio == pytest.approx(expected, rel=0.01)

    def test_cpu_seconds_scale_with_size(self):
        codec = get_compressor("bzip2")
        small = codec.compress(SyntheticPayload(1024))
        big = codec.compress(SyntheticPayload(1024 * 1024))
        assert big.cpu_seconds > small.cpu_seconds

    def test_null_compressor_identity(self):
        codec = NullCompressor()
        p = SyntheticPayload(1000, "zeros")
        assert codec.compress(p).ratio == 1.0

    def test_decompress_requires_real(self):
        with pytest.raises(TypeError):
            get_compressor("blosc").decompress(SyntheticPayload(10))


class TestProbedRatios:
    """The calibration behind the paper's Table II compression deltas."""

    def test_blosc_particle_ratio_near_paper(self):
        # Table II implies ~0.886 compressed/original on particle floats
        ratio = probed_ratio(get_compressor("blosc"), "particle_float32")
        assert 0.82 <= ratio <= 0.92

    def test_bzip2_particle_ratio_near_one(self):
        # the paper's bzip2 column equals the uncompressed one
        ratio = probed_ratio(get_compressor("bzip2"), "particle_float32")
        assert ratio >= 0.93

    def test_diagnostic_float64_nearly_incompressible(self):
        ratio = probed_ratio(get_compressor("blosc"), "diagnostic_float64")
        assert ratio >= 0.94

    def test_zeros_compress_away(self):
        assert probed_ratio(get_compressor("blosc"), "zeros") < 0.05

    def test_random_incompressible(self):
        assert probed_ratio(get_compressor("blosc"), "random") >= 0.99

    def test_ascii_highly_compressible(self):
        assert probed_ratio(get_compressor("bzip2"), "ascii_table") < 0.5

    def test_probe_block_deterministic(self):
        """Each entropy class's block, and so its ratios, is host-free."""
        pinned = {"particle_float32": "422737ce0cbf8dbd",
                  "diagnostic_float64": "5c54a0a6a3646ace",
                  "histogram_counts": "6ad99b6a422bc70e",
                  "ascii_table": "7244fc995ad5373b",
                  "metadata": "5afb28297415eb94",
                  "zeros": "5647f05ec1895894",
                  "random": "932d0ace0c04e574"}
        assert set(pinned) == set(ENTROPY_CLASSES)
        for entropy, prefix in pinned.items():
            digest = hashlib.sha256(probe_block(entropy)).hexdigest()
            assert digest.startswith(prefix), entropy

    def test_probe_block_unknown_class(self):
        with pytest.raises(ValueError):
            probe_block("mystery_bytes")

    def test_probe_report_covers_matrix(self):
        report = probe_report()
        for name in ("blosc", "bzip2", "none"):
            assert set(report[name]) == set(ENTROPY_CLASSES)
