"""Shared helpers for the benchmark harness.

Each bench module reproduces one paper artifact (figure, table, or the §4
case study). Benchmarks both *time* the experiment kernel via
pytest-benchmark and *verify* the reproduced result's shape, attaching the
reproduced rows to ``benchmark.extra_info`` and printing a paper-style
table (visible with ``pytest -s`` or in the saved benchmark JSON).

Every timed run also appends one entry to ``BENCH_perf.json`` at the
repository root: per-benchmark median timings and interquartile range
plus the ``extra_info`` rows, stamped with the commit, host CPU count
and Python version so entries are comparable across commits. The file
is the repo's performance trajectory — diff entries across commits to
see a hot path regress or improve.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path


def emit(title: str, lines: list[str]) -> None:
    """Print a reproduction table under a banner."""
    banner = "=" * max(len(title), 40)
    print(f"\n{banner}\n{title}\n{banner}")
    for line in lines:
        print(line)


def _stat(bench, name: str):
    """Best-effort read of one pytest-benchmark statistic."""
    try:
        return getattr(bench.stats.stats, name)
    except Exception:
        try:
            return getattr(bench.stats, name)
        except Exception:
            return None


def commit_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pytest_sessionfinish(session, exitstatus):
    """Append this run's per-benchmark medians to BENCH_perf.json."""
    benchmark_session = getattr(session.config, "_benchmarksession", None)
    if benchmark_session is None:
        return
    rows = []
    for bench in getattr(benchmark_session, "benchmarks", []):
        rows.append(
            {
                "name": bench.name,
                "group": getattr(bench, "group", None),
                "median_s": _stat(bench, "median"),
                "iqr_s": _stat(bench, "iqr"),
                "mean_s": _stat(bench, "mean"),
                "rounds": _stat(bench, "rounds"),
                "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
            }
        )
    if not rows:
        return  # nothing timed (e.g. --benchmark-disable smoke runs)
    root = Path(str(session.config.rootpath))
    path = root / "BENCH_perf.json"
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("runs", [])
        except (ValueError, OSError):
            history = []
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "exit_status": int(exitstatus),
            "commit": commit_sha(root),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "benchmarks": rows,
        }
    )
    try:
        path.write_text(
            json.dumps({"runs": history}, indent=2, default=str) + "\n"
        )
    except OSError:
        pass  # a read-only checkout must not fail the bench run
