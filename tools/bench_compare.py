"""Compare two ``adaptok bench`` reports phase by phase, controlled for host drift.

    python3 tools/bench_compare.py OLD.json NEW.json

For each (grid entry, selector, phase) in both reports, ``total`` first,
prints the repeats each report's p50 rests on (OLD/NEW), the two p50s in
ms, the ratio NEW / OLD, and that ratio divided by
the same pair's ``entropy/eigvalsh`` ratio.  The eigensolve is LAPACK's and
no stage-2 change touches it, so its ratio stands for how the host moved
between the two runs.  These rows pool every split kind (split ``all``).
When both reports carry ``by_split``, each split kind that both ran adds
its own rows, controlled by that kind's own ``entropy/eigvalsh`` ratio, so
a change at one end of the split shows apart from the other.  The control
is imperfect: memory-bound phases and the eigensolve drift by different
amounts, so a controlled ratio within ``UNRESOLVED`` of 1 prints
``unresolved`` instead of a gain or a loss.  A split in which either report
ran no eigensolve (``compress`` skips it where the entropy's bounds decide
the split) has no control: its rows print ``uncontrolled`` and no
controlled ratio.

Two reports whose hosts differ in any of ``SAME_HOST``, or that share no
(grid entry, selector), are refused (exit 1): their timings do not compare.
"""

import argparse
import json
import sys

SAME_HOST = ("blas_corename", "blas_threads", "nproc")
CONTROL = "entropy/eigvalsh"
UNRESOLVED = 0.10


def _configs(report: dict) -> dict:
    return {
        (c["n_tokens"], c["dim"], c["budget"], c["diversity_method"]): c
        for c in report["configs"]
    }


def _p50s(spans: dict) -> dict:
    return {"total": spans["total"]["p50_us"],
            **{path: p["p50_us"] for path, p in sorted(spans["phases"].items())}}


def _splits(before: dict, after: dict) -> list[tuple[str, dict, dict]]:
    # (split, old spans, new spans): the pooled ones, then each split kind of both
    pairs = [("all", before, after)]
    if "by_split" in before and "by_split" in after:
        pairs += [(kind, spans, after["by_split"][kind])
                  for kind, spans in before["by_split"].items() if kind in after["by_split"]]
    return pairs


def compare(old: dict, new: dict) -> list[dict]:
    """One row per (grid entry, selector, split, phase) in both reports: the
    p50s, ``old_n`` and ``new_n`` (the repeats that split's p50s rest on),
    ``ratio`` (new / old), ``controlled`` (ratio / the control's ratio in the
    same split, or None where either report lacks the control) and
    ``verdict``.  Raises ValueError on reports from different hosts, or with
    no (grid entry, selector) in common."""
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
            before, after = _p50s(old_spans), _p50s(new_spans)
            repeats = {"old_n": old_spans["total"]["n"], "new_n": new_spans["total"]["n"]}
            control = (after[CONTROL] / before[CONTROL]
                       if CONTROL in before and CONTROL in after else None)
            for phase in (p for p in before if p in after):
                ratio = after[phase] / before[phase]
                controlled = None if control is None else ratio / control
                if controlled is None:
                    verdict = "uncontrolled"
                elif abs(controlled - 1.0) <= UNRESOLVED:
                    verdict = "unresolved"
                else:
                    verdict = "faster" if controlled < 1.0 else "slower"
                rows.append({"config": key, "split": split, "phase": phase, **repeats,
                             "old_ms": before[phase] / 1e3, "new_ms": after[phase] / 1e3,
                             "ratio": ratio, "controlled": controlled, "verdict": verdict})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier adaptok bench report")
    parser.add_argument("new", help="the later adaptok bench report")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as f:
            reports.append(json.load(f))
    try:
        rows = compare(*reports)
    except ValueError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 1
    print(f"{'n x d, T':<16} {'selector':<18} {'split':<15} {'n':>7} {'phase':<18} "
          f"{'old p50':>9} {'new p50':>9} {'ratio':>7} {'ctrl':>7}  verdict")
    for row in rows:
        n, d, t, method = row["config"]
        repeats = f"{row['old_n']}/{row['new_n']}"
        controlled = "-" if row["controlled"] is None else f"{row['controlled']:.3f}"
        print(f"{f'{n}x{d}, {t}':<16} {method:<18} {row['split']:<15} {repeats:>7} {row['phase']:<18} "
              f"{row['old_ms']:>9.2f} {row['new_ms']:>9.2f} {row['ratio']:>7.3f} "
              f"{controlled:>7}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
