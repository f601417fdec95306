import json
import struct

import numpy as np
import pytest
from oracles import NOT_COUNTS, NOT_REALS

from adaptok import (
    AdaptokError,
    BadMagicError,
    CompressConfig,
    FormatError,
    NonFiniteValueError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
    compress,
    read_saliency,
    read_selection_result,
    read_tokens,
    selection_result_from_json,
    selection_result_to_json,
    selection_results_equal,
    synth_tokens,
    write_saliency,
    write_selection_result,
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


def _file(magic: bytes, rows: int, cols: int, payload: bytes = b"") -> bytes:
    return magic + struct.pack("<II", rows, cols) + payload


_READERS = {"token": (read_tokens, b"PTM1"), "saliency": (read_saliency, b"PSV1")}

# Every refusal of a binary file: (id, readers, the file's bytes for a magic,
# error class, message after the path).  {kind} is the reader's kind and
# {magic} its magic.
_BAD_FILES = [
    ("truncated-header", _READERS, lambda magic: magic + b"\x01", TruncatedPayloadError,
     "file has 5 bytes, shorter than the 12-byte header"),
    ("bad-magic", _READERS, lambda magic: _file(b"XXXX", 1, 1, bytes(4)), BadMagicError,
     "expected magic {magic!r}, found b'XXXX'"),
    ("empty-dims", _READERS, lambda magic: _file(magic, 0, 4), FormatError,
     "header declares empty {kind} matrix 0x4"),
    # the header says 4x4, but only 63 bytes follow
    ("truncated-payload", _READERS, lambda magic: _file(magic, 4, 4, bytes(63)),
     TruncatedPayloadError, "payload has 63 bytes, expected 64"),
    ("trailing-bytes", _READERS, lambda magic: _file(magic, 2, 2, bytes(16) + b"junk"),
     TrailingDataError, "4 trailing bytes after the payload"),
    ("non-finite", _READERS,
     lambda magic: _file(magic, 1, 2, np.array([1.0, np.inf], "<f4").tobytes()),
     NonFiniteValueError, "{kind} payload contains non-finite floats"),
    # a token may be negative, a saliency score may not
    ("negative", ["saliency"],
     lambda magic: _file(magic, 1, 2, np.array([0.5, -0.125], "<f4").tobytes()),
     ValueRangeError, "saliency payload contains negative values"),
]


@pytest.mark.parametrize(
    "kind, blob, error, message",
    [pytest.param(kind, *row[2:], id=f"{kind}-{row[0]}") for row in _BAD_FILES for kind in row[1]],
)
def test_readers_refuse_a_malformed_file(tmp_path, kind, blob, error, message):
    read, magic = _READERS[kind]
    path = tmp_path / "bad.bin"
    path.write_bytes(blob(magic))
    with pytest.raises(error) as info:
        read(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: " + message.format(kind=kind, magic=magic)


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


@pytest.mark.parametrize("write", [write_tokens, write_saliency])
@pytest.mark.parametrize(
    "values",
    [[[1.0, 2.0], [3.0]], [["a", "b"]], np.eye(2) + 1j, [[1j, 2.0]], [[10**400, 1.0]],
     np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 2, 2)), 7.0],
    ids=["ragged", "string", "complex-array", "complex-list", "huge-int",
         "no-rows", "no-columns", "3-d", "scalar"],
)
def test_writers_reject_what_is_not_a_real_matrix(tmp_path, write, values):
    path = tmp_path / "bad.bin"
    with pytest.raises(FormatError) as info:
        write(values, path)
    assert info.value.category == "format-error"
    assert not path.exists()


def _text(doc) -> str:
    # an edited document in the writer's layout, so that only the edit can
    # make the reader refuse it
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _set(doc, field: str, value) -> None:
    # field: a key path such as "entropy.low"
    *parents, name = field.split(".")
    for key in parents:
        doc = doc[key]
    doc[name] = value


# every document field that a type checks as a count or a real; a value that
# is neither (oracles' NOT_COUNTS and NOT_REALS, the boundary tables' values)
# must reach the caller as the type's own refusal, so the reader coerces none
_TYPED_FIELDS = {"config.total_budget": NOT_COUNTS, "n_tokens": NOT_COUNTS,
                 "forced_t_sal": NOT_COUNTS, "config.mu": NOT_REALS, "config.tau": NOT_REALS,
                 "entropy.low": NOT_REALS, "entropy.high": NOT_REALS}


def _untyped_field_values():
    # the values a JSON document holds; a null forced_t_sal is the allocated split
    for field, values in _TYPED_FIELDS.items():
        for label, value in values.items():
            if type(value) in (bool, int, float, str) or (value is None
                                                          and field != "forced_t_sal"):
                yield pytest.param(field, value, id=f"{field}-{label}")


# Edits that turn a compress result document into one no compress call
# writes; the forced split (t_sal=5 of 12) of 40 tokens has picks of both
# stages.  A refusal of a CompressConfig or EntropyReport field is a row of
# that type's own table (_COUNT_ENTRIES and _REAL_ENTRIES in
# test_tensor_core.py, TestEntropyReport, test_budget.py's unknown method);
# a field of the wrong type reaches the reader's caller in
# test_a_field_of_the_wrong_type_is_the_types_refusal, and
# _high_above_one and _negative_low alone show a range refusal doing so.
def _leftover_stage_of(doc):
    # schema 3's labels, which derive from the two index lists
    doc["stage_of"] = ["coverage" if i in doc["coverage_pick_order"] else "saliency"
                       for i in doc["selected"]]


def _schema_three(doc):
    doc["schema"] = 3


def _no_n_tokens(doc):
    del doc["n_tokens"]


def _n_tokens_below_budget(doc):
    doc["n_tokens"] = 11


def _pick_beyond_n_tokens(doc):
    # a token count that the last pick reaches
    doc["n_tokens"] = doc["selected"][-1]


def _unsorted(doc):
    doc["selected"][:2] = doc["selected"][1::-1]


def _duplicate_index(doc):
    doc["selected"][1] = doc["selected"][0]


def _negative_index(doc):
    doc["selected"][0] = -1


def _one_pick_short(doc):
    doc["selected"].pop()


def _pick_order_short(doc):
    doc["coverage_pick_order"].pop()


def _pick_order_repeats(doc):
    doc["coverage_pick_order"][1] = doc["coverage_pick_order"][0]


def _pick_order_outside_selected(doc):
    doc["coverage_pick_order"][0] = min(set(range(40)) - set(doc["selected"]))


def _scalar_selected(doc):
    doc["selected"] = doc["selected"][0]


def _diagnostics_list(doc):
    doc["diagnostics"] = list(doc["diagnostics"].values())


def _unknown_key(doc):
    doc["note"] = "hand-edited"


def _unknown_entropy_key(doc):
    doc["entropy"]["support"] = 40


def _split_entropy_differs(doc):
    doc["normalized_entropy"] /= 2


def _high_above_one(doc):
    # EntropyReport's refusal reaches the caller as a FormatError with its message
    doc["entropy"]["high"] = 1.5


def _negative_low(doc):
    # the split's copy of the low end agrees
    doc["entropy"]["low"] = doc["normalized_entropy"] = -0.25


def _low_above_high(doc):
    doc["entropy"]["low"] = doc["entropy"]["high"] + 0.25


def _interval_across_a_step(doc):
    # on an allocated document, whose interval certifies its split: the
    # interval [0, 1], across every step of the split
    assert doc["entropy"]["low"] < doc["entropy"]["high"]
    doc["entropy"].update(low=0.0, high=1.0)


def _interval_forced(doc):
    # a forced split never skips the eigensolve, so its entropy is a point
    doc["entropy"]["high"] = doc["entropy"]["low"] + 0.01


def _coverage_ratio_five(doc):
    doc["coverage_ratio"] = 5


def _negative_coverage_ratio(doc):
    doc["coverage_ratio"] = -0.25


def _empty_diagnostics(doc):
    doc["diagnostics"] = {}


def _unknown_diagnostic(doc):
    doc["diagnostics"]["coverage_rank"] = 7.0


def _no_min_distance(doc):
    del doc["diagnostics"]["min_pairwise_cosine_distance"]


def _fractional_fallback(doc):
    doc["diagnostics"]["stage2_fallback_count"] = 0.5


def _negative_fallback(doc):
    doc["diagnostics"]["stage2_fallback_count"] = -1.0


def _fallback_beyond_t_cov(doc):
    doc["diagnostics"]["stage2_fallback_count"] = doc["t_cov"] + 1.0


def _zero_coverage_ratio(doc):
    # t_cov = 7 of 12 is forced, so the ratio can only be 7 / 12
    doc["coverage_ratio"] = 0.0


def _coverage_ratio_one_ulp(doc):
    # on an allocated document: floor(T * ratio) still gives t_cov
    doc["coverage_ratio"] = float(np.nextafter(doc["coverage_ratio"], 1.0))


def _forced_t_sal_four(doc):
    doc["forced_t_sal"] = 4


def _forced_t_sal_beyond_budget(doc):
    doc["forced_t_sal"] = 13


def _budget_eleven(doc):
    doc["config"]["total_budget"] = 11


def _no_config(doc):
    del doc["config"]


def _config_without_tau(doc):
    # CompressConfig supplies the default, which the text then lacks
    del doc["config"]["tau"]


def _config_extra_key(doc):
    doc["config"]["seed"] = 0


# edits made to the allocated document; the others edit the forced one
_ON_ALLOCATED = {_coverage_ratio_one_ulp, _interval_across_a_step}


# each edit with the part of the error message that names its check
_BROKEN = [
    (_leftover_stage_of, "write back"),
    (_schema_three, "schema 3 is not 4"),
    (_no_n_tokens, "malformed: 'n_tokens'"),
    (_n_tokens_below_budget, "malformed: n_tokens must be >= 12"),
    (_pick_beyond_n_tokens, "malformed: selected .* below n_tokens"),
    (_unsorted, "strictly increasing"),
    (_duplicate_index, "strictly increasing"),
    (_negative_index, "nonnegative"),
    (_one_pick_short, "total_budget entries"),
    (_pick_order_short, "permutation"),
    (_pick_order_repeats, "permutation"),
    (_pick_order_outside_selected, "permutation"),
    (_scalar_selected, "malformed: selected must be a sequence of int64 indices"),
    (_diagnostics_list, "malformed: diagnostics must be a dict"),
    (_unknown_key, "write back"),
    (_unknown_entropy_key, "malformed: .*'support'"),
    (_split_entropy_differs, "write back"),
    (_high_above_one, r"malformed: high must lie in \[0, 1\]"),
    (_negative_low, r"malformed: low must lie in \[0, 1\]"),
    (_low_above_high, "malformed: low .* exceeds high"),
    (_interval_across_a_step, "malformed: an entropy interval must certify the split"),
    (_interval_forced, "malformed: an entropy interval must certify the split"),
    (_coverage_ratio_five, "write back"),
    (_negative_coverage_ratio, "write back"),
    (_empty_diagnostics, "diagnostics keys"),
    (_unknown_diagnostic, "diagnostics keys"),
    (_no_min_distance, "diagnostics keys"),
    (_fractional_fallback, "not an integer"),
    (_negative_fallback, "not an integer"),
    (_fallback_beyond_t_cov, "not an integer"),
    (_zero_coverage_ratio, "write back"),
    (_coverage_ratio_one_ulp, "write back"),
    (_forced_t_sal_four, "permutation"),
    (_forced_t_sal_beyond_budget, "forced_t_sal must be <= 12"),
    (_budget_eleven, "total_budget entries"),
    (_no_config, "malformed: 'config'"),
    (_config_without_tau, "write back"),
    (_config_extra_key, "malformed: .*'seed'"),
]


class TestSelectionResultJson:
    def _result(self):
        tokens, sal = synth_tokens(40, 10, 4, 1e-3, 5)
        return compress(tokens, sal, CompressConfig(total_budget=12))

    def test_round_trip(self):
        res = self._result()
        back = selection_result_from_json(selection_result_to_json(res))
        assert selection_results_equal(res, back)
        assert back.timings_us == {}
        assert back.config == res.config and back.forced_t_sal is None
        # every selector, split and shape reads back to the same bytes in the
        # canonical corpus (test_tensor_core's test_corpus_tool_runs_its_whole_corpus)
        # exact duplicates write a distance just below 0, and antiparallel
        # rows exactly 2: both are values compress writes, so both load
        tokens, sal = synth_tokens(24, 8, 2, 1e-3, 0)
        tokens = tokens[np.arange(24) % 3] * 2**20
        antiparallel = np.array([[1e100, 0.0], [-1e100, 0.0]])
        for E, s, T, distance in ((tokens, sal, 6, -2.0**-52),
                                  (antiparallel, np.array([1.0, 0.5]), 2, 2.0)):
            res = compress(E, s, CompressConfig(T), t_sal=0)
            assert res.diagnostics["min_pairwise_cosine_distance"] == distance
            assert selection_results_equal(res, selection_result_from_json(
                selection_result_to_json(res)))

    def test_file_round_trip(self, tmp_path):
        res, path = self._result(), tmp_path / "r.json"
        write_selection_result(res, path)
        assert path.read_text(encoding="utf-8") == selection_result_to_json(res)
        assert selection_results_equal(read_selection_result(path), res)
        doc = json.loads(path.read_text(encoding="utf-8"))
        _unsorted(doc)
        path.write_text(_text(doc), encoding="utf-8")
        with pytest.raises(FormatError, match="strictly increasing"):
            read_selection_result(path)

    def test_serialization_is_byte_stable(self):
        a = selection_result_to_json(self._result())
        b = selection_result_to_json(self._result())
        assert a == b

    def test_schema_field_present(self):
        doc = json.loads(selection_result_to_json(self._result()))
        assert doc["schema"] == 4
        assert doc["entropy"].keys() == {"low", "high"}
        assert doc["n_tokens"] == 40
        assert doc["t_sal"] + doc["t_cov"] == 12
        assert doc["selected"] == sorted(doc["selected"])

    def test_rejects_wrong_schema(self):
        text = selection_result_to_json(self._result())
        wrong = [text.replace('"schema": 4', f'"schema": {value}') for value in (1, 2, "true")]
        for doc in (*wrong, "[1]", "null"):  # the last two have no schema field at all
            with pytest.raises(FormatError):
                selection_result_from_json(doc)

    def test_rejects_invalid_json(self):
        with pytest.raises(FormatError):
            selection_result_from_json("not json {")

    @pytest.mark.parametrize(
        "edit",
        [lambda text: "[" * 200_000 + "]" * 200_000,
         # past Python's int-string limit; where it has none, beyond int64
         lambda text: text.replace('"selected": [\n    ', '"selected": [\n    ' + "9" * 5000),
         lambda text: 5],
        ids=["deep-nesting", "long-index", "not-text"],
    )
    def test_rejects_what_the_parser_cannot_load(self, edit):
        text = selection_result_to_json(self._result())
        with pytest.raises(FormatError) as info:
            selection_result_from_json(edit(text))
        assert info.value.category == "format-error"

    def test_file_that_is_not_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(selection_result_to_json(self._result()).encode("utf-16"))
        with pytest.raises(FormatError) as info:
            read_selection_result(path)
        assert info.value.category == "format-error"

    @pytest.mark.parametrize(
        "field, value, message",
        [("selected", 12.5, "selected: expected an integer"),
         ("coverage_pick_order", 3.5, "coverage_pick_order: expected an integer"),
         ("coverage_pick_order", True, "coverage_pick_order: expected an integer"),
         ("selected", 2**70, "selected must be a sequence of int64 indices")],
    )
    def test_rejects_non_integer_indices(self, field, value, message):
        # int(12.5) or an int64 cast would truncate these silently
        doc = json.loads(selection_result_to_json(self._result()))
        doc[field][-1] = value
        with pytest.raises(FormatError, match=message) as info:
            selection_result_from_json(_text(doc))
        assert info.value.category == "format-error"

    @pytest.mark.parametrize("field, value", _untyped_field_values())
    def test_a_field_of_the_wrong_type_is_the_types_refusal(self, field, value):
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        doc = json.loads(selection_result_to_json(compress(tokens, sal, CompressConfig(12),
                                                           t_sal=5)))
        _set(doc, field, value)
        name = field.rsplit(".", 1)[-1]
        with pytest.raises(FormatError, match=rf"^selection result document is malformed: "
                                              rf"{name}: ") as info:
            selection_result_from_json(_text(doc))
        assert info.value.category == "format-error"
        assert isinstance(info.value.__cause__, AdaptokError)

    @pytest.mark.parametrize(
        "mutate, message", _BROKEN, ids=[mutate.__name__.strip("_") for mutate, _ in _BROKEN]
    )
    def test_rejects_documents_no_compress_writes(self, mutate, message):
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        t_sal = None if mutate in _ON_ALLOCATED else 5
        result = compress(tokens, sal, CompressConfig(total_budget=12), t_sal=t_sal)
        text = selection_result_to_json(result)
        doc = json.loads(text)
        assert _text(doc) == text  # so only the edit can be refused
        mutate(doc)
        with pytest.raises(FormatError, match=message) as info:
            selection_result_from_json(_text(doc))
        assert info.value.category == "format-error"

    @pytest.mark.parametrize(
        "old, new",
        [('"schema": 4,', '"schema": 4.0,'),
         ('"mu": 0.42,', '"mu": 4.2e-1,'),
         ('"coverage_logdet": 0.0,', '"coverage_logdet": 0,'),
         (None, None)],
        ids=["schema-float", "mu-exponent", "integer-logdet", "compact-layout"],
    )
    def test_rejects_text_compress_never_writes(self, old, new):
        # equal values under json.loads, in bytes that compress never writes
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        text = selection_result_to_json(compress(tokens, sal, CompressConfig(12), t_sal=12))
        if old is None:
            edited = json.dumps(json.loads(text))
        else:
            assert text.count(old) == 1
            edited = text.replace(old, new)
        with pytest.raises(FormatError, match="write back") as info:
            selection_result_from_json(edited)
        assert info.value.category == "format-error"

    @pytest.mark.parametrize(
        "distance, loads",
        [(-1e-9, True), (2.0 + 1e-9, True), (-2e-9, False), (2.0 + 2e-9, False)],
        ids=["low-slack", "high-slack", "below-slack", "above-slack"],
    )
    def test_min_distance_rounding_slack(self, distance, loads):
        # [0, 2] widened by 1e-9 for rounding, and not further
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        doc = json.loads(selection_result_to_json(compress(tokens, sal, CompressConfig(12))))
        doc["diagnostics"]["min_pairwise_cosine_distance"] = distance
        if loads:
            back = selection_result_from_json(_text(doc))
            assert back.diagnostics["min_pairwise_cosine_distance"] == distance
        else:
            with pytest.raises(FormatError, match="outside \\[0, 2\\]"):
                selection_result_from_json(_text(doc))

    def test_min_distance_only_with_two_picks(self):
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        doc = json.loads(selection_result_to_json(compress(tokens, sal, CompressConfig(1))))
        assert "min_pairwise_cosine_distance" not in doc["diagnostics"]
        doc["diagnostics"]["min_pairwise_cosine_distance"] = 1.0
        with pytest.raises(FormatError, match="diagnostics keys") as info:
            selection_result_from_json(_text(doc))
        assert info.value.category == "format-error"

    @pytest.mark.parametrize(
        "field, value",
        [("diagnostics.coverage_logdet", "nan"),
         ("diagnostics.coverage_logdet", float("nan")),
         ("entropy.low", "Infinity"),
         ("coverage_ratio", "0.5"),
         ("normalized_entropy", -float("inf"))],
    )
    def test_rejects_non_finite_or_non_numeric_floats(self, field, value):
        # json.dumps writes float nan/inf as the bare NaN/Infinity literals
        doc = json.loads(selection_result_to_json(self._result()))
        _set(doc, field, value)
        with pytest.raises(FormatError) as info:
            selection_result_from_json(_text(doc))
        assert info.value.category == "format-error"

    def test_rejects_a_bool_count(self):
        tokens, sal = synth_tokens(40, 8, 3, 1e-3, 0)
        result = compress(tokens, sal, CompressConfig(total_budget=12), t_sal=1)
        doc = json.loads(selection_result_to_json(result))
        doc["forced_t_sal"] = True  # equal to 1, so only the type is wrong
        with pytest.raises(FormatError, match="expected an integer"):
            selection_result_from_json(_text(doc))
        # the reader reads neither t_sal nor t_cov: a stored split that is not
        # the derived one, even True for 1, is refused by the write-back alone
        doc["forced_t_sal"], doc["t_sal"] = 1, True
        with pytest.raises(FormatError, match="write back"):
            selection_result_from_json(_text(doc))

