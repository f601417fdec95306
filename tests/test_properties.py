"""Property tests: any input to a public entry gives a result or an
``AdaptokError``, a numpy count gives what its int gives, a command line
exits 0, 1 (one JSON refusal line on stderr, nothing on stdout) or 2
(argparse's usage error) and never with a traceback, and an allocated split
is the exact entropy's, on low-rank inputs whose split the Ritz block
certifies too.  Besides ``compress`` (and through it ``spectral_entropy``)
and ``reduce_head_attention``, ``_ENTRIES`` reaches the readers on arbitrary
bytes, the result reader on arbitrary text and edited documents, the
writers, ``CompressConfig`` with ``allocate_budget``, the cost model,
``synth_tokens``, ``subseed_rng`` and ``saliency_topk``, and
``_command_lines`` the six CLI subcommands, each call under about 1 MB.
Hypothesis draws the inputs, derandomized so every run with the same
Hypothesis version (pinned in pyproject's ``test`` extra) tries the same
examples; the file is skipped where Hypothesis is not installed.
"""

import io
import json
import pickle
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from adaptok import (  # noqa: E402
    DIVERSITY_METHODS,
    AdaptokError,
    CompressConfig,
    allocate_budget,
    compress,
    costmodel,
    io_formats,
    prominence,
    reduce_head_attention,
    saliency_topk,
    selection_result_from_json,
    selection_result_to_json,
    spectral_entropy,
    subseed_rng,
    synth_tokens,
)
from adaptok.cli import _build_parser, main  # noqa: E402

# every finite float64, subnormals, signed zeros and values near +-1.8e308
# included; half the draws at ordinary magnitudes, so that fewer inputs
# overflow and more of them reach a result
FINITE = st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@st.composite
def _compress_inputs(draw):
    """(tokens, saliency, T, t_sal): n, d in [1, 10], T in [1, n], and t_sal
    None or in [0, T]."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    tokens = draw(arrays(np.float64, (n, d), elements=FINITE))
    saliency = draw(arrays(np.float64, n, elements=NONNEGATIVE))
    total = draw(st.integers(1, n))
    return tokens, saliency, total, draw(st.none() | st.integers(0, total))


@st.composite
def _low_rank_inputs(draw):
    """(tokens, saliency, T, None): synth_tokens at n, d in [32, 96] with at
    most 4 directions and noise 0, 1e-3 or 1e-2, so that the Ritz block,
    ceil(1 / q) + 2 wide, often fits in r / 8; T in [1, 32]."""
    n, d, k = draw(st.integers(32, 96)), draw(st.integers(32, 96)), draw(st.integers(1, 4))
    noise, seed = draw(st.sampled_from([0.0, 1e-3, 1e-2])), draw(st.integers(0, 2**32))
    return (*synth_tokens(n, d, k, noise, seed), draw(st.integers(1, 32)), None)


@PROPERTY
@given(_compress_inputs() | _low_rank_inputs())
def test_compress_gives_a_result_that_reads_back_or_an_adaptok_error(inputs):
    tokens, saliency, total, t_sal = inputs
    for method in DIVERSITY_METHODS:
        config = CompressConfig(total_budget=total, diversity_method=method)
        try:
            result = compress(tokens, saliency, config, t_sal=t_sal)
        except AdaptokError as err:
            # the budget and the saliency are valid, so only the tokens can be refused
            assert err.category == "degenerate-input", err
            continue
        text = selection_result_to_json(result)
        assert selection_result_to_json(selection_result_from_json(text)) == text
        if t_sal is None:  # the split is the exact entropy's, whether or not the bounds decided it
            h = spectral_entropy(tokens).normalized_entropy
            exact = allocate_budget(h, config)
            assert (result.split.t_sal, result.split.t_cov) == (exact.t_sal, exact.t_cov)
            assert result.entropy.low <= h <= result.entropy.high


def test_the_ritz_block_certifies_some_low_rank_splits(monkeypatch):
    # a split is the block's where the block ran (so the Renyi-2 interval
    # alone did not certify it) and the result is an interval, not the eigensolve's h
    runs, by_the_block = [], []
    ritz = prominence._ritz_bounds
    monkeypatch.setattr(prominence, "_ritz_bounds", lambda *args: runs.append(1) or ritz(*args))

    @PROPERTY
    @given(_low_rank_inputs())
    def check(inputs):
        runs.clear()
        result = compress(*inputs[:2], CompressConfig(total_budget=inputs[2]))
        by_the_block.append(bool(runs) and result.entropy.low < result.entropy.high)

    check()
    assert any(by_the_block), by_the_block


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 10)), elements=FINITE))
def test_head_mean_gives_scores_or_an_adaptok_error(head_scores):
    try:
        mean = reduce_head_attention(head_scores)
    except AdaptokError as err:
        assert err.category == "invalid-input", err
        return
    assert mean.shape == head_scores.shape[1:]
    assert np.all(np.isfinite(mean)) and np.all(mean >= 0.0)


@st.composite
def _file_bytes(draw):
    """Arbitrary bytes, or a PTM1 or PSV1 header with dimensions in [0, 4] or
    2**32 - 1 and a float32 payload of mostly the declared size."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=80))
    rows, cols = (draw(st.sampled_from([0, 1, 2, 3, 4, 2**32 - 1])) for _ in "rc")
    size = rows * cols if rows * cols <= 16 else draw(st.integers(0, 16))
    payload = draw(arrays("<f4", size, elements=st.floats(width=32))).tobytes()
    cut = draw(st.sampled_from([0, 0, 0, 1, 2, -1]))  # bytes dropped from the end, or one added
    header = io_formats._HEADER.pack(draw(st.sampled_from([b"PTM1", b"PSV1"])), rows, cols)
    return header + (payload + bytes(1))[:len(payload) - cut]


def _through_file(data, read, write=lambda blob, path: path.write_bytes(blob)):
    """What ``read`` gives of the file that ``write`` makes of ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        write(data, Path(tmp) / "f")
        return read(Path(tmp) / "f")


_E, _S = synth_tokens(24, 8, 3, 1e-3, 0)
# allocated (certified and not), forced, saliency-only and coverage-only documents
_INPUTS = [(_E, _S, m, t) for m, t in zip(DIVERSITY_METHODS * 2, (None, 5, 12, 0, None, 3))]
_DOCUMENTS = [selection_result_to_json(compress(E, S, CompressConfig(12, diversity_method=m), t))
              for E, S, m, t in _INPUTS + [(*synth_tokens(48, 16, 12, 1e-3, 0), "dpp", None)]]


def _slots(doc):
    """(container, key) of every value in a parsed document."""
    for key in doc if isinstance(doc, dict) else range(len(doc)):
        yield doc, key
        if isinstance(doc[key], (dict, list)):
            yield from _slots(doc[key])


@st.composite
def _edited_documents(draw):
    """A written document with one to three values replaced, moved by one, or deleted."""
    doc = json.loads(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        old = container[key]
        moved = [old - 1, old + 1] if type(old) in (int, float) else [old]
        new = draw(st.sampled_from(moved) | st.none() | st.booleans() | st.integers(-2, 50)
                   | st.floats() | st.text(max_size=3) | st.lists(st.integers(-1, 50), max_size=13)
                   | st.just(...))
        if new is ...:
            del container[key]
        else:
            container[key] = new
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# a count, a huge count, or a numpy count
_COUNT = st.integers(-2, 10**6) | st.integers(10**6, 10**400) | st.integers(-2, 10**6).map(np.int64)
_SIZE = st.integers(1, 12) | st.integers(1, 12).map(np.int64)
_UNIT = st.floats(0.0, 1.0) | st.floats()
_MATRIX = arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)),
                 elements=FINITE | st.floats())
# every public entry that no other property reaches: (name, draw of its
# argument tuple, call); a call gives a result or an AdaptokError
_ENTRIES = [
    ("read_tokens", st.tuples(_file_bytes()),
     lambda blob: _through_file(blob, io_formats.read_tokens)),
    ("read_saliency", st.tuples(_file_bytes()),
     lambda blob: _through_file(blob, io_formats.read_saliency)),
    ("write_tokens", st.tuples(_MATRIX),
     lambda values: _through_file(values, io_formats.read_tokens, io_formats.write_tokens)),
    ("write_saliency", st.tuples(_MATRIX | _MATRIX.map(np.ravel)),
     lambda values: _through_file(values, io_formats.read_saliency, io_formats.write_saliency)),
    # arbitrary text, and whole documents, and cut short by their newline or by half
    ("selection_result_from_json-text", st.tuples(st.text(max_size=64) | st.sampled_from(
        [doc[:end] for doc in _DOCUMENTS for end in (len(doc), -1, len(doc) // 2)])),
     selection_result_from_json),
    ("selection_result_from_json-edited", st.tuples(_edited_documents()),
     selection_result_from_json),
    ("CompressConfig-allocate_budget", st.tuples(
        st.integers(-1, 2**53 + 1) | st.integers(1, 64).map(np.int64), _UNIT, _UNIT,
        st.sampled_from([*DIVERSITY_METHODS, "fl"]), _UNIT),
     lambda total, mu, tau, method, h: allocate_budget(h, CompressConfig(total, mu, tau, method))),
    ("estimate_prefill_flops", st.tuples(_COUNT, _COUNT), costmodel.estimate_prefill_flops),
    ("estimate_kv_cache_bytes", st.tuples(_COUNT), costmodel.estimate_kv_cache_bytes),
    ("flops_reduction", st.tuples(_COUNT, _COUNT, _COUNT), costmodel.flops_reduction),
    ("synth_tokens", st.tuples(_SIZE, _SIZE, _SIZE, st.sampled_from([0.0, 1e-3, 1e-2]),
                               st.integers(0, 2**64) | st.lists(st.integers(0, 2**32), max_size=2)),
     synth_tokens),
    ("subseed_rng", st.tuples(_COUNT, _COUNT), subseed_rng),
    ("saliency_topk", st.tuples(arrays(np.float64, st.integers(0, 10), elements=NONNEGATIVE
                                       | st.floats()), _SIZE | st.integers(-1, 0)),
     saliency_topk),
]


def _outcome(call, args):
    """``call(*args)`` pickled, or the category of its ``AdaptokError``."""
    try:
        return pickle.dumps(call(*args))
    except AdaptokError as err:
        return err.category


# 150 examples a row, not PROPERTY's 300: Hypothesis takes 2-5 ms to draw an
# example of these rows on a 2-CPU Xeon, and the file is to run in seconds
@pytest.mark.parametrize("values, call", [entry[1:] for entry in _ENTRIES],
                         ids=[entry[0] for entry in _ENTRIES])
@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_entry_gives_a_result_or_an_adaptok_error(values, call, data):
    args = data.draw(values)
    outcome = _outcome(call, args)
    if any(isinstance(arg, np.integer) for arg in args):  # a numpy count gives what its int gives
        assert _outcome(call, [int(a) if isinstance(a, np.integer) else a for a in args]) == outcome


_INTS = st.sampled_from([*map(str, range(-2, 13)), "1.5", "abc"])
# each flag's values, by its destination, or else its type: mostly values it
# takes (a file by how often it is the right one), a few it does not; bench
# grids at most 10x10 and at most 2 repeats
_VALUES = {
    "tokens": st.sampled_from(["a.ptm"] * 4 + ["zero.ptm", "bad.ptm", "missing.ptm", "."]),
    "saliency": st.sampled_from(["a.psv"] * 4 + ["a.ptm", "missing.ptm", "."]),
    "out": st.sampled_from(["out.json"] * 3 + ["."]),
    "repeats": st.sampled_from(["-1", "0", "1", "2"]),
    "grid": st.tuples(*[st.integers(-1, 10)] * 3).map(lambda parts: "x".join(map(str, parts))),
    "mu": st.sampled_from(["clip", "qwen25vl", "bogus", "0", "0.5", "1", "nan"]),
    "diversity_method": st.sampled_from([*DIVERSITY_METHODS, "fl"]),
    **dict.fromkeys(["seq_visual", "baseline_seq", "text_tokens"],
                    st.integers(-2, 10**400).map(str) | _INTS),
    int: _INTS,
    float: st.sampled_from(["0", "1e-3", "0.5", "-1", "nan", "inf", "1e308", "abc"]),
}
_FILES = {"a.ptm": io_formats._HEADER.pack(b"PTM1", 8, 4) + _E[:8, :4].astype("<f4").tobytes(),
          "a.psv": io_formats._HEADER.pack(b"PSV1", 1, 8) + _S[:8].astype("<f4").tobytes(),
          "zero.ptm": io_formats._HEADER.pack(b"PTM1", 8, 4) + bytes(4 * 32),
          "bad.ptm": b"XXXX" + bytes(12)}
_PATHS = {"a.ptm", "a.psv", "zero.ptm", "bad.ptm", "missing.ptm", "out.json", "."}
_SUBCOMMANDS = next(a.choices for a in _build_parser()._actions if a.dest == "command")


def _command_lines(command):
    """A subcommand with its required flags (``bench``: a grid and repeats
    too), then up to three of its flags, each with a value of its kind."""
    actions = [a for a in _SUBCOMMANDS[command]._actions if a.nargs != 0]  # not --help
    flags = {a.dest: _VALUES.get(a.dest, _VALUES.get(a.type)).map(
        lambda value, a=a: [a.option_strings[-1], value]) for a in actions}
    required = [flags[a.dest] for a in actions
                if a.required or command == "bench" and a.dest in ("grid", "repeats")]
    return st.tuples(*required, st.lists(st.one_of(list(flags.values())), max_size=3)).map(
        lambda drawn: [command, *sum([*drawn[:-1], *drawn[-1]], [])])


# 50 examples a command: a command line costs a run of main with its files written
@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_a_command_line_exits_0_1_or_2_and_never_with_a_traceback(command, data):
    argv = data.draw(_command_lines(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        for name, blob in _FILES.items():
            Path(tmp, name).write_bytes(blob)
        try:
            code = main([str(Path(tmp, arg)) if arg in _PATHS else arg for arg in argv])
        except SystemExit as exit_:  # argparse's usage error
            code = exit_.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:  # only compress writes to stderr, its timings
        assert err == "" or command == "compress" and "timings_us" in json.loads(err)
    elif code == 1:  # one JSON refusal line with its category, and no output
        assert out == "" and err.count("\n") == 1 and "category" in json.loads(err)["error"]
    else:
        assert code == 2 and out == "" and ": error: " in err.splitlines()[-1], (code, err)
