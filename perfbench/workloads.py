"""Workload and metric tables of the adaptok benchmark.

Standard library only, so the orchestrator (``run.py``) can read them
without importing numpy; the worker process does the numerical work.
"""

from dataclasses import dataclass, replace

# Isotropic noise of the synthetic inputs, as in ``adaptok bench``.
NOISE = 1e-3

# Heads written into the PSV1 saliency files of file-backed workloads.
HEADS = 16

# Fresh interpreters started to measure set-up time; the median is reported.
SETUP_RUNS = 5


@dataclass(frozen=True)
class Workload:
    """One named input set of the benchmark.

    Input ``i`` is ``synth_tokens(n_tokens, dim, k_cycle[i % len(k_cycle)],
    NOISE, subseed_rng(seed, i))``; the k_directions value sets the sample's
    spectral entropy and therefore its saliency/coverage split.  One pass of
    the closed loop runs every input of the cycle once, so each run has the
    same mix.  ``tail_pct`` is fixed per workload (not derived from the
    sample count of a run) so that runs of different speed stay comparable;
    it is the highest percentile with at least 10 samples beyond it at the
    default run length on the reference host.
    """

    name: str
    n_tokens: int
    dim: int
    budget: int
    method: str
    files: bool
    k_cycle: tuple[int, ...]
    tail_pct: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="anyres-dpp",
            n_tokens=2880,
            dim=1024,
            budget=320,
            method="dpp",
            files=False,
            # t_cov 15 (saliency-heavy), 155 (midpoint), 314/319/319
            # (coverage-heavy): the pass median lands inside the
            # coverage-heavy group, not on a group boundary
            k_cycle=(12, 18, 32, 64, 256),
            tail_pct=75.0,
            why="paper anyres shape 2880x1024 T=320 with DPP: Gram+eigvalsh and the "
            "2.7k-square DPP kernel+greedy dominate; facility location never runs",
        ),
        Workload(
            name="clip-fl",
            n_tokens=576,
            dim=1024,
            budget=128,
            method="facility_location",
            files=False,
            # t_cov 7 (saliency-heavy), then five coverage-heavy samples
            k_cycle=(10, 24, 32, 64, 128, 512),
            tail_pct=90.0,
            why="CLIP shape 576x1024 T=128 with facility location: the dense FL greedy is "
            "most of each call, so an FL change shows here and nowhere else",
        ),
        Workload(
            name="clip-files",
            n_tokens=576,
            dim=1024,
            budget=64,
            method="fps",
            files=True,
            # four saliency-heavy (t_cov 0..13), one midpoint, one coverage-heavy
            k_cycle=(8, 10, 11, 10, 14, 24),
            tail_pct=95.0,
            why="CLI compress path in-process from PTM1/PSV1 files at 576x1024 T=64 with "
            "FPS: entropy, file I/O and fixed costs dominate, selection does little",
        ),
    )
}

# Shapes for the self-test: same workloads and mixes, small enough to run
# in about a second each.
TINY_SHAPES = {
    "anyres-dpp": (180, 64, 20),
    "clip-fl": (72, 64, 16),
    "clip-files": (72, 64, 8),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if tiny:
        n, d, t = TINY_SHAPES[name]
        wl = replace(wl, n_tokens=n, dim=d, budget=t)
    return wl


# (name, unit) of every end-to-end metric, measured with tracing off.
# The failure share is carried by the result's ``attempted``/``failed``
# counts, not as a metric, because it is 0 on a healthy run and a 0
# median admits no relative bound.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_sps", "1/s"),
    ("cpu_ms_per_sample", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (name, unit) of every per-layer metric of the traced run.  Times are
# medians over the traced requests; counts marked "computed" are derived
# from shapes, not measured.
PER_LAYER = (
    ("tensor_core.validate_ms", "ms"),
    ("tensor_core.gram_ms", "ms"),
    ("tensor_core.eigvalsh_ms", "ms"),
    ("tensor_core.gram_gflop", "GFLOP"),
    ("prominence.entropy_ms", "ms"),
    ("prominence.self_ms", "ms"),
    ("budget.allocate_ms", "ms"),
    ("budget.t_cov_share", "fraction"),
    ("budget.saliency_heavy_n", "count"),
    ("budget.midpoint_n", "count"),
    ("budget.coverage_heavy_n", "count"),
    ("selection.topk_ms", "ms"),
    ("selection.kernel_ms", "ms"),
    ("selection.greedy_ms", "ms"),
    ("selection.select_ms", "ms"),
    ("selection.pool_size", "count"),
    ("selection.picks", "count"),
    ("selection.dpp_fallback_frac", "fraction"),
    ("selection.fl_gain_evals", "count"),
    ("pipeline.compress_ms", "ms"),
    ("pipeline.residual_ms", "ms"),
    ("pipeline.diagnostics_ms", "ms"),
    ("pipeline.timed_share", "fraction"),
    ("pipeline.alloc_peak_mb", "MB"),
    ("pipeline.trace_overhead_ms", "ms"),
    ("io_formats.read_ms", "ms"),
    ("io_formats.write_ms", "ms"),
    ("io_formats.bytes_read", "bytes"),
    ("io_formats.bytes_written", "bytes"),
)
