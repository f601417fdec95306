"""Compare two ``adaptok bench`` reports phase by phase.

    python3 tools/bench_compare.py OLD.json NEW.json

For each (grid entry, selector) in both reports, prints one row per phase
that either report times, ``total`` first: the repeats each report timed
that phase in (OLD/NEW), the two p50s in ms and the ratio NEW / OLD.  A
phase that one report did not time (``compress`` skips the eigensolve
where the entropy's bounds decide the split) reads 0 repeats there, and
``-`` for that report's p50 and for the ratio.  These rows pool every
split kind (split ``all``).  When both reports carry ``by_split``, each
split kind that both ran adds its own rows, so a change at one end of the
split shows apart from the other.

The ratios are raw.  The host drifts between two runs, and by different
amounts for different phases, so no phase's ratio can stand for the
host's: a speed claim rests on alternating runs of the two versions in one
session, and these rows show which phase moved.

Two reports whose hosts differ in any of ``SAME_HOST``, or that share no
(grid entry, selector), are refused (exit 1): their timings do not compare.
So is a file that cannot be read or holds no report.
"""

import argparse
import json
import sys

SAME_HOST = ("blas_corename", "blas_threads", "nproc")


def _configs(report: dict) -> dict:
    return {
        (c["n_tokens"], c["dim"], c["budget"], c["diversity_method"]): c
        for c in report["configs"]
    }


def _timed(spans: dict) -> dict:
    # each timed path's (repeats, p50 in ms)
    return {path: (p["n"], p["p50_us"] / 1e3)
            for path, p in [("total", spans["total"]), *spans["phases"].items()]}


def _splits(before: dict, after: dict) -> list[tuple[str, dict, dict]]:
    # (split, old spans, new spans): split "all", then each split kind of both
    pairs = [("all", before, after)]
    if "by_split" in before and "by_split" in after:
        pairs += [(kind, spans, after["by_split"][kind])
                  for kind, spans in before["by_split"].items() if kind in after["by_split"]]
    return pairs


def compare(old: dict, new: dict) -> list[dict]:
    """One row per (grid entry, selector, split, phase) that either report
    times: ``old_n`` and ``new_n`` (the repeats each report timed the phase
    in, 0 where it did not), ``old_ms`` and ``new_ms`` (the p50s, None where
    not timed) and ``ratio`` (new / old, None unless both timed it).
    Raises ValueError on reports from different hosts, or with no (grid
    entry, selector) in common."""
    differ = [key for key in SAME_HOST if old["host"].get(key) != new["host"].get(key)]
    if differ:
        raise ValueError("the reports' hosts differ in " + ", ".join(
            f"{key} ({old['host'].get(key)} vs {new['host'].get(key)})" for key in differ))
    old_configs, new_configs = _configs(old), _configs(new)
    shared = [key for key in old_configs if key in new_configs]
    if not shared:
        raise ValueError("the reports share no (grid entry, selector)")
    rows = []
    for key in shared:
        for split, old_spans, new_spans in _splits(old_configs[key], new_configs[key]):
            before, after = _timed(old_spans), _timed(new_spans)
            for phase in ["total", *sorted((before.keys() | after.keys()) - {"total"})]:
                (old_n, old_ms), (new_n, new_ms) = (
                    timed.get(phase, (0, None)) for timed in (before, after))
                ratio = None if old_ms is None or new_ms is None else new_ms / old_ms
                rows.append({"config": key, "split": split, "phase": phase,
                             "old_n": old_n, "new_n": new_n,
                             "old_ms": old_ms, "new_ms": new_ms, "ratio": ratio})
    return rows


def _read(path: str) -> dict:
    # the report at path, which must compare with itself; ValueError naming
    # the path where it cannot be read or is no report
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
        compare(report, report)
    except OSError as err:
        raise ValueError(f"{path}: {err.strerror or err}") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    except (LookupError, TypeError, AttributeError):
        raise ValueError(f"{path}: not an adaptok bench report") from None
    return report


def _cell(value: float | None, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier adaptok bench report")
    parser.add_argument("new", help="the later adaptok bench report")
    args = parser.parse_args(argv)
    try:
        rows = compare(_read(args.old), _read(args.new))
    except ValueError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 1
    print(f"{'n x d, T':<16} {'selector':<18} {'split':<15} {'n':>7} {'phase':<18} "
          f"{'old p50':>9} {'new p50':>9} {'ratio':>7}")
    for row in rows:
        n, d, t, method = row["config"]
        repeats = f"{row['old_n']}/{row['new_n']}"
        print(f"{f'{n}x{d}, {t}':<16} {method:<18} {row['split']:<15} {repeats:>7} {row['phase']:<18} "
              f"{_cell(row['old_ms'], '.2f'):>9} {_cell(row['new_ms'], '.2f'):>9} "
              f"{_cell(row['ratio'], '.3f'):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
