"""Per-cell wall-time annotation for sweep artifacts (CI log aid).

Reads one or more experiment JSONL artifacts and prints a compact
``cell -> wall time`` table, slowest first, plus the suite total.  CI's
``scale_smoke`` job runs this after the sweep so estimator-level
regressions show up in the job log at a glance -- *without* gating on wall
time (machine noise makes hard time gates flaky; ``repro compare`` reports
time but only gates on metrics, and this tool only prints).

Lives in :mod:`repro.observe` as the read-only sibling of the history
store; ``repro cells`` is its CLI spelling.

Usage::

    repro cells scale_smoke.jsonl [more.jsonl ...]

Exit code 0 unless an artifact cannot be read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def cell_label(cell: dict) -> str:
    """Human-readable cell key: workload(kwargs) + regime/seed."""
    kwargs = cell.get("workload_kwargs") or {}
    inner = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    label = f"{cell.get('workload', '?')}({inner})"
    regime = cell.get("regime")
    if regime and regime != "auto":
        label += f" regime={regime}"
    seed = cell.get("seed")
    if seed not in (None, 0):
        label += f" seed={seed}"
    return label


def print_timings(path: Path) -> int:
    """Print the per-cell wall-time table of one artifact; returns the
    number of timed cells."""
    rows: list[tuple[float, str, str]] = []
    suite = path.name
    with path.open() as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") == "header":
                suite = record.get("suite", suite)
                continue
            if record.get("kind") != "cell":
                continue
            wall = record.get("wall_time_s")
            rows.append(
                (
                    float(wall) if wall is not None else float("nan"),
                    cell_label(record.get("cell", {})),
                    record.get("status", "?"),
                )
            )
    rows.sort(key=lambda r: (r[0] != r[0], -r[0]))  # slowest first, NaN last
    total = sum(w for w, _, _ in rows if w == w)
    print(f"== {suite}: per-cell wall times ({len(rows)} cells, "
          f"{total:.2f}s total) ==")
    for wall, label, status in rows:
        tag = "" if status == "ok" else f"  [{status}]"
        shown = f"{wall:8.2f}s" if wall == wall else "      --"
        print(f"  {shown}  {label}{tag}")
    return len(rows)


def main(argv: list[str]) -> int:
    """Print timing tables for every artifact named on the command line."""
    if not argv:
        print("usage: repro cells ARTIFACT.jsonl [...]", file=sys.stderr)
        return 2
    for name in argv:
        path = Path(name)
        if not path.is_file():
            print(f"repro cells: no such artifact {name}", file=sys.stderr)
            return 2
        print_timings(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
