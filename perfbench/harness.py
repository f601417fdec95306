"""Numerical side of the benchmark worker: inputs, requests, checks, metrics.

Imported by ``worker.py`` only after it has timed ``import adaptok``.
"""

import ctypes
import glob
import hashlib
import os
import platform
import resource
import time
import tracemalloc
import traceback
from types import SimpleNamespace

import numpy as np
import scipy

from adaptok import (
    AdaptokError,
    CompressConfig,
    allocate_budget,
    compress,
    read_saliency,
    read_selection_result,
    read_tokens,
    reduce_head_attention,
    saliency_topk,
    selection_results_equal,
    subseed_rng,
    synth_tokens,
    write_saliency,
    write_selection_result,
    write_tokens,
)
from tracing import Tracer, layer_times_ms
from workloads import HEADS, NOISE

PHASES = ("entropy", "allocation", "stage1", "stage2")


class Inputs:
    """The distinct inputs of one pass, made from the seed before any timing.

    In-memory workloads hold ``(E, s)`` arrays; file workloads hold the
    paths of the PTM1 token file and PSV1 per-head saliency file.
    """

    def __init__(self, wl, seed: int, workdir: str, count: int):
        self.wl = wl
        self.workdir = workdir
        self.items = []
        for i in range(count):
            rng = subseed_rng(seed, i)
            k = min(wl.k_cycle[i % len(wl.k_cycle)], wl.n_tokens, wl.dim)
            tokens, saliency = synth_tokens(wl.n_tokens, wl.dim, k, NOISE, rng)
            if not wl.files:
                self.items.append((tokens, saliency))
                continue
            heads = saliency[None, :] * rng.uniform(0.5, 1.5, size=(HEADS, 1))
            tok_path = os.path.join(workdir, f"in{i}.ptm")
            sal_path = os.path.join(workdir, f"in{i}.psv")
            write_tokens(tokens, tok_path)
            write_saliency(heads, sal_path)
            self.items.append((tok_path, sal_path))

    def __len__(self):
        return len(self.items)

    def out_path(self, request_id: int) -> str:
        return os.path.join(self.workdir, f"out{request_id}.json")

    def saliency(self, i: int) -> np.ndarray:
        """The saliency vector the program sees for input ``i``."""
        if self.wl.files:
            return reduce_head_attention(read_saliency(self.items[i][1]))
        return self.items[i][1]

    def tokens(self, i: int) -> np.ndarray:
        return read_tokens(self.items[i][0]) if self.wl.files else self.items[i][0]

    def bytes_read(self, i: int) -> int:
        return sum(os.path.getsize(p) for p in self.items[i]) if self.wl.files else 0


def make_request(inputs: Inputs, config: CompressConfig, tracer: Tracer | None = None):
    """One request of the workload: ``request(i, request_id) -> SelectionResult``.

    File workloads run the CLI's compress path in-process: read both files,
    reduce the heads, compress, write the result JSON.  With a tracer, each
    of these calls is recorded as a span.
    """
    calls = {
        "read_tokens": ("io_formats.read", read_tokens),
        "read_saliency": ("io_formats.read", read_saliency),
        "reduce_heads": ("selection.reduce_heads", reduce_head_attention),
        "compress": ("pipeline.compress", compress),
        "write_result": ("io_formats.write", write_selection_result),
    }
    c = SimpleNamespace(
        **{key: tracer.wrap(span, fn) if tracer else fn for key, (span, fn) in calls.items()}
    )
    items = inputs.items

    if not inputs.wl.files:
        def request(i, request_id):
            tokens, saliency = items[i]
            return c.compress(tokens, saliency, config)
        return request

    def request(i, request_id):
        tok_path, sal_path = items[i]
        tokens = c.read_tokens(tok_path)
        saliency = c.reduce_heads(c.read_saliency(sal_path))
        result = c.compress(tokens, saliency, config)
        c.write_result(result, inputs.out_path(request_id))
        return result

    return request


def closed_loop(request, n_items: int, seconds: float, tracer=None, first_id: int = 0):
    """One caller, no think time: whole passes over the inputs until
    ``seconds`` have elapsed.  Returns per-request records and loop totals.

    Each record is ``(item, request_id, latency_s, result, error_category)``.
    """
    records = []
    request_id = first_id
    cpu0 = time.process_time()
    start = time.perf_counter()
    passes = 0
    while True:
        for i in range(n_items):
            if tracer is not None:
                tracer.sample = request_id
            t0 = time.perf_counter()
            result, error = None, None
            try:
                result = request(i, request_id)
            except AdaptokError as err:
                error = err.category
            except Exception as err:  # a raw exception is a failed request, not a crash
                error = f"uncaught:{type(err).__name__}"
                traceback.print_exc()
            records.append((i, request_id, time.perf_counter() - t0, result, error))
            request_id += 1
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return records, {
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu0,
        "passes": passes,
    }


def _check(inputs, config, result, first, saliency, request_id) -> str | None:
    """Name of the first output check the result fails, or None."""
    wl = inputs.wl
    sel = result.selected
    if not (
        sel.shape == (wl.budget,)
        and np.issubdtype(sel.dtype, np.integer)
        and np.all(np.diff(sel) > 0)
        and sel[0] >= 0
        and sel[-1] < wl.n_tokens
    ):
        return "indices"
    split = result.split
    if split.t_sal + split.t_cov != wl.budget:
        return "budget_sum"
    if split != allocate_budget(result.entropy.normalized_entropy, config):
        return "split"
    if not np.array_equal(result.saliency_indices, saliency_topk(saliency, split.t_sal)):
        return "saliency_stage"
    if not np.array_equal(np.sort(result.coverage_pick_order), result.coverage_indices):
        return "coverage_order"
    if wl.files and not selection_results_equal(
        read_selection_result(inputs.out_path(request_id)), result
    ):
        return "read_back"
    if first is not None and not selection_results_equal(result, first):
        return "deterministic"
    return None


def check_records(inputs, config, records):
    """Check every request's output; returns (failures by category, first
    result per input)."""
    saliency = [inputs.saliency(i) for i in range(len(inputs))]
    first: list = [None] * len(inputs)
    failures: dict[str, int] = {}
    for i, request_id, _, result, error in records:
        if error is None:
            error = _check(inputs, config, result, first[i], saliency[i], request_id)
            if error is not None:
                error = f"check:{error}"
            elif first[i] is None:
                first[i] = result
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
    return failures, first


def picks_sha256(first) -> str:
    """Digest of every input's ``selected`` and ``coverage_pick_order``."""
    h = hashlib.sha256()
    for result in first:
        if result is None:
            h.update(b"failed;")
            continue
        for arr in (result.selected, result.coverage_pick_order):
            h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
            h.update(b";")
    return h.hexdigest()


def split_mix(wl, first) -> dict[str, int]:
    """Realised split of each input: saliency-heavy (t_cov < T/4),
    coverage-heavy (t_cov > 3T/4) or midpoint."""
    mix = {"saliency_heavy": 0, "midpoint": 0, "coverage_heavy": 0}
    for result in first:
        if result is None:
            continue
        t_cov = result.split.t_cov
        if 4 * t_cov < wl.budget:
            mix["saliency_heavy"] += 1
        elif 4 * t_cov > 3 * wl.budget:
            mix["coverage_heavy"] += 1
        else:
            mix["midpoint"] += 1
    return mix


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _metric(value, unit, n, note=""):
    return {"value": float(value), "unit": unit, "n": int(n), "note": note}


def end_to_end_metrics(wl, records, totals) -> dict:
    lat_ms = np.array([r[2] for r in records if r[4] is None]) * 1e3
    n = lat_ms.size
    if n == 0:
        return {}
    tail = float(np.percentile(lat_ms, wl.tail_pct))
    beyond = int(np.count_nonzero(lat_ms > tail))
    return {
        "latency_p50_ms": _metric(np.median(lat_ms), "ms", n),
        "latency_tail_ms": _metric(tail, "ms", n, f"p{wl.tail_pct:g}, {beyond} beyond"),
        "throughput_sps": _metric(len(records) / totals["wall_s"], "1/s", len(records)),
        "cpu_ms_per_sample": _metric(totals["cpu_s"] * 1e3 / len(records), "ms", len(records)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1
        ),
    }


def alloc_peaks_mb(inputs, config) -> list[float]:
    """tracemalloc peak of one ``compress`` call per input (untimed pass)."""
    loaded = [(inputs.tokens(i), inputs.saliency(i)) for i in range(len(inputs))]
    peaks = []
    tracemalloc.start()
    try:
        for tokens, saliency in loaded:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            compress(tokens, saliency, config)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def per_layer_metrics(wl, inputs, records, tracer, untraced, first, peaks):
    """Per-layer metrics of the traced pass (medians over its requests)."""
    ok = [r for r in records if r[4] is None]
    if not ok:
        return {}
    times = layer_times_ms(tracer.spans)
    by_request = [times[r[1]] for r in ok]
    n = len(ok)

    def med(*keys):
        return float(np.median([sum(t.get(k, 0.0) for k in keys) for t in by_request]))

    untraced = [t["pipeline.compress"] for t in layer_times_ms(untraced.spans).values()]
    t_cov = np.array([r[3].split.t_cov for r in ok])
    pool = wl.n_tokens - np.array([r[3].split.t_sal for r in ok])
    big, small = max(wl.n_tokens, wl.dim), min(wl.n_tokens, wl.dim)
    done = [r for r in first if r is not None]
    mix = split_mix(wl, first)
    fallback = sum(r.diagnostics.get("stage2_fallback_count", 0.0) for r in done)
    covered = sum(r.split.t_cov for r in done)
    timed_share = [
        sum(r[3].timings_us.get(p, 0.0) for p in PHASES) / (t["pipeline.compress"] * 1e3)
        for r, t in zip(ok, by_request)
    ]
    written = [os.path.getsize(inputs.out_path(r[1])) for r in ok] if wl.files else [0]
    return {
        "tensor_core.validate_ms": _metric(med("tensor_core.validate"), "ms", n),
        "tensor_core.gram_ms": _metric(med("tensor_core.gram"), "ms", n),
        "tensor_core.eigvalsh_ms": _metric(med("tensor_core.eigvalsh"), "ms", n),
        "tensor_core.gram_gflop": _metric(
            2 * big * small**2 / 1e9, "GFLOP", 1, "computed: 2*max(N,d)*min(N,d)^2"
        ),
        "prominence.entropy_ms": _metric(med("prominence.entropy"), "ms", n),
        "prominence.self_ms": _metric(med("prominence.entropy#self"), "ms", n),
        "budget.allocate_ms": _metric(med("budget.allocate"), "ms", n),
        "budget.t_cov_share": _metric(
            np.mean([r.split.t_cov / wl.budget for r in done]),
            "fraction", len(done), "mean over the inputs of one pass",
        ),
        "budget.saliency_heavy_n": _metric(mix["saliency_heavy"], "count", len(done)),
        "budget.midpoint_n": _metric(mix["midpoint"], "count", len(done)),
        "budget.coverage_heavy_n": _metric(mix["coverage_heavy"], "count", len(done)),
        "selection.topk_ms": _metric(med("selection.topk"), "ms", n),
        "selection.kernel_ms": _metric(med("selection.kernel"), "ms", n),
        "selection.greedy_ms": _metric(med("selection.select#self"), "ms", n),
        "selection.select_ms": _metric(med("selection.select"), "ms", n),
        "selection.pool_size": _metric(np.median(pool), "count", n),
        "selection.picks": _metric(np.median(t_cov), "count", n),
        "selection.dpp_fallback_frac": _metric(
            fallback / covered if wl.method == "dpp" and covered else 0.0,
            "fraction", len(done), "fallback picks / coverage picks, over one pass",
        ),
        "selection.fl_gain_evals": _metric(
            np.median(t_cov * pool**2) if wl.method == "facility_location" else 0.0,
            "count", n, "computed: t_cov * pool_size^2 for the dense greedy",
        ),
        "pipeline.compress_ms": _metric(med("pipeline.compress"), "ms", n),
        "pipeline.residual_ms": _metric(
            med("pipeline.compress#self", "pipeline.diagnostics"), "ms", n,
            "compress minus its layer calls, diagnostics included",
        ),
        "pipeline.diagnostics_ms": _metric(med("pipeline.diagnostics"), "ms", n),
        "pipeline.timed_share": _metric(
            np.median(timed_share), "fraction", n,
            "sum of timings_us phases / traced compress time",
        ),
        "pipeline.alloc_peak_mb": _metric(
            np.median(peaks), "MB", len(peaks), "tracemalloc, one call per input"
        ),
        "pipeline.trace_overhead_ms": _metric(
            med("pipeline.compress") - np.median(untraced), "ms", n,
            "median compress, traced minus untraced",
        ),
        "io_formats.read_ms": _metric(med("io_formats.read"), "ms", n),
        "io_formats.write_ms": _metric(med("io_formats.write"), "ms", n),
        "io_formats.bytes_read": _metric(
            np.median([inputs.bytes_read(r[0]) for r in ok]), "bytes", n
        ),
        "io_formats.bytes_written": _metric(np.median(written), "bytes", n),
    }
