import json
import struct

import numpy as np
import pytest

from adaptok import (
    BadMagicError,
    CompressConfig,
    FormatError,
    NonFiniteValueError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
    compress,
    read_saliency,
    read_tokens,
    selection_result_from_json,
    selection_result_to_json,
    selection_results_equal,
    synth_tokens,
    write_saliency,
    write_tokens,
)


class TestTokenFiles:
    def test_round_trip_is_bitwise(self, tmp_path, rng):
        path = tmp_path / "a.ptm"
        tokens = rng.standard_normal((16, 8))
        write_tokens(tokens, path)
        back = read_tokens(path)
        np.testing.assert_array_equal(back, tokens.astype(np.float32).astype(np.float64))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.ptm"
        write_tokens(np.ones((2, 3)), path)
        blob = path.read_bytes()
        assert blob[:4] == b"PTM1"
        assert struct.unpack("<II", blob[4:12]) == (2, 3)
        assert len(blob) == 12 + 4 * 2 * 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ptm"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagicError):
            read_tokens(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ptm"
        path.write_bytes(b"PTM1\x01")
        with pytest.raises(TruncatedPayloadError):
            read_tokens(path)

    def test_truncated_payload(self, tmp_path):
        # header says 4x4 but only 63 floats follow
        path = tmp_path / "trunc.ptm"
        path.write_bytes(b"PTM1" + struct.pack("<II", 4, 4) + b"\x00" * (4 * 15 + 3))
        with pytest.raises(TruncatedPayloadError):
            read_tokens(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "trail.ptm"
        path.write_bytes(b"PTM1" + struct.pack("<II", 2, 2) + b"\x00" * 16 + b"junk")
        with pytest.raises(TrailingDataError):
            read_tokens(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "inf.ptm"
        payload = np.array([[1.0, np.inf]], dtype="<f4").tobytes()
        path.write_bytes(b"PTM1" + struct.pack("<II", 1, 2) + payload)
        with pytest.raises(NonFiniteValueError):
            read_tokens(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "empty.ptm"
        path.write_bytes(b"PTM1" + struct.pack("<II", 0, 4))
        with pytest.raises(FormatError):
            read_tokens(path)


class TestSaliencyFiles:
    def test_round_trip_two_heads(self, tmp_path, rng):
        path = tmp_path / "a.psv"
        scores = np.abs(rng.standard_normal((3, 10)))
        write_saliency(scores, path)
        blob = path.read_bytes()
        assert blob[:4] == b"PSV1"
        assert struct.unpack("<II", blob[4:12]) == (3, 10)
        np.testing.assert_array_equal(
            read_saliency(path), scores.astype(np.float32).astype(np.float64)
        )

    def test_vector_becomes_single_head(self, tmp_path):
        path = tmp_path / "v.psv"
        write_saliency(np.array([0.5, 0.25, 0.25]), path)
        assert read_saliency(path).shape == (1, 3)

    def test_negative_values_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueRangeError):
            write_saliency(np.array([0.5, -0.1]), tmp_path / "n.psv")

    def test_negative_values_rejected_on_read(self, tmp_path):
        path = tmp_path / "n.psv"
        payload = np.array([[0.5, -0.125]], dtype="<f4").tobytes()
        path.write_bytes(b"PSV1" + struct.pack("<II", 1, 2) + payload)
        with pytest.raises(ValueRangeError):
            read_saliency(path)


@pytest.mark.parametrize("write", [write_tokens, write_saliency])
@pytest.mark.parametrize("value", [np.nan, 1e39])
def test_writers_reject_values_not_finite_in_float32(tmp_path, write, value):
    # 1e39 is finite in float64 but inf after the float32 cast, and the
    # readers reject any non-finite payload
    path = tmp_path / "bad.bin"
    with pytest.raises(NonFiniteValueError) as info:
        write(np.array([[1.0, value]]), path)
    assert info.value.category == "non-finite-value"
    assert not path.exists()


class TestSelectionResultJson:
    def _result(self):
        tokens, sal = synth_tokens(40, 10, 4, 1e-3, 5)
        return compress(tokens, sal, CompressConfig(total_budget=12))

    def test_round_trip(self):
        res = self._result()
        back = selection_result_from_json(selection_result_to_json(res))
        assert selection_results_equal(res, back)
        assert back.timings_us == {}
        # every selector and split reads back equal, to the same bytes
        tokens, sal = synth_tokens(48, 12, 3, 1e-3, 6)
        for method in ("dpp", "fps", "facility_location"):
            cfg = CompressConfig(total_budget=12, diversity_method=method)
            for t_sal in (None, 0, 5, 12):
                res = compress(tokens, sal, cfg, t_sal=t_sal)
                text = selection_result_to_json(res)
                back = selection_result_from_json(text)
                assert selection_results_equal(res, back)
                assert selection_result_to_json(back) == text

    def test_serialization_is_byte_stable(self):
        a = selection_result_to_json(self._result())
        b = selection_result_to_json(self._result())
        assert a == b

    def test_schema_field_present(self):
        doc = json.loads(selection_result_to_json(self._result()))
        assert doc["schema"] == 1
        assert doc["t_sal"] + doc["t_cov"] == 12
        assert doc["selected"] == sorted(doc["selected"])
        assert set(doc["stage_of"]) <= {"saliency", "coverage"}

    def test_rejects_wrong_schema(self):
        text = selection_result_to_json(self._result()).replace('"schema": 1', '"schema": 2')
        with pytest.raises(FormatError):
            selection_result_from_json(text)

    def test_rejects_invalid_json(self):
        with pytest.raises(FormatError):
            selection_result_from_json("not json {")

    @pytest.mark.parametrize(
        "field, value",
        [("t_sal", 1.7), ("t_cov", 8.5), ("t_sal", 2.0), ("t_sal", "3"),
         ("selected", 12.5), ("coverage_pick_order", 3.5), ("selected", 2**70)],
    )
    def test_rejects_non_integer_counts_and_indices(self, field, value):
        # int(1.7) or an int64 cast would truncate these silently
        doc = json.loads(selection_result_to_json(self._result()))
        if isinstance(doc[field], list):
            doc[field][-1] = value
        else:
            doc[field] = value
        with pytest.raises(FormatError) as info:
            selection_result_from_json(json.dumps(doc))
        assert info.value.category == "format-error"
