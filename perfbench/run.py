"""EXP-E2E: closed-loop campaign benchmark with an optional layer trace.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload campaign_batch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: every second campaign runs
with every layer boundary wrapped (see ``tracer.py``), and
``trace.overhead`` compares traced with untraced campaigns.
``--workload all`` runs every workload in turn, each in its own
process, and prints one table.

Every benchmark process points ``REPRO_COMPILE_CACHE`` and ``TMPDIR``
at fresh directories under ``.perfbench_work/`` in the checkout and
removes them when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: name -> (unit, better, bound). ``failed_ratio`` is reported as its
#: complement ``ok_ratio`` because a metric's bound is a share of its
#: median, which a ratio that is 0 on a healthy run cannot have.
#: ``pkts_per_s`` is the rate nine in ten of the run's campaigns reach
#: and ``first_result_s`` the wait nine in ten beat, not medians or
#: means: on a shared host the speed shifts between regimes, every run
#: sees the slow regime, and its level repeats from run to run while
#: the fast regime's does not (README.md gives the measurements). The
#: medians and means are recorded in ``meta`` but not gated.
END_TO_END = {
    "pkts_per_s": ("pkt/s", "higher", 0.25),
    "first_result_s": ("s", "lower", 0.25),
    "shard_tail_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ok_ratio": ("ratio", "higher", 0.01),
}

#: Layers whose share of campaign wall the traced run reports.
SHARE_LAYERS = ("traffic", "packet", "oracle", "device", "checker",
                "session", "artifact", "regression", "campaign")

#: name -> unit; every one is printed by every traced run (0 where the
#: workload never enters the layer).
PER_LAYER = {
    "traffic.build_us_per_pkt": "us/pkt",
    "packet.pack_calls_per_pkt": "count/pkt",
    "packet.pack_us_per_pkt": "us/pkt",
    "oracle.predict_us_per_pkt": "us/pkt",
    "oracle.predictions": "count/pkt",
    "device.exec_us_per_pkt": "us/pkt",
    "device.block_share": "ratio",
    "checker.us_per_pkt": "us/pkt",
    "session.self_us_per_pkt": "us/pkt",
    "artifact.resolve_ms_per_shard": "ms/shard",
    "artifact.hits": "count/campaign",
    "artifact.memory_hits": "count/campaign",
    "artifact.misses": "count/campaign",
    "artifact.stores": "count/campaign",
    "regression.load_ms_per_shard": "ms/shard",
    "regression.replay_us_per_pkt": "us/pkt",
    "campaign.self_ms_per_shard": "ms/shard",
    "campaign.assemble_ms": "ms/campaign",
    "wire.frames_per_shard": "count/shard",
    "wire.bytes_per_shard": "B/shard",
    "wire.us_per_frame": "us/frame",
    "service.dispatches_per_shard": "count/shard",
    "service.steals": "count/campaign",
    "service.requeues": "count/campaign",
    **{f"{layer}.wall_share": "ratio" for layer in SHARE_LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Child processes that time the whole set-up from a cold start.
SETUP_SAMPLES = 3
#: A child must finish its set-up within this many seconds.
SETUP_TIMEOUT_S = 40.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile: the sorted sample at index ``int(q * n)``
    (the last one for ``q`` near 1)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the 11th-largest sample, i.e.
    percentile ``100 * (n - 10) / n``. Fewer than 11 samples give the
    maximum (percentile 100), since no percentile has ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def commit_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
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


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "commit": commit_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def hermetic_environment() -> Path:
    """Fresh compile cache and temp directory for this process."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    (scratch / "cache").mkdir()
    (scratch / "tmp").mkdir()
    os.environ["REPRO_COMPILE_CACHE"] = str(scratch / "cache")
    os.environ["TMPDIR"] = str(scratch / "tmp")
    tempfile.tempdir = None
    return scratch


def child_command(args, workload: str, *extra: str) -> list[str]:
    """This script, for ``workload``, with the caller's seed and count."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), *extra,
    ]
    if args.count is not None:
        command += ["--count", str(args.count)]
    return command


def timed_setups(args) -> list[float]:
    """Wall time from spawning a fresh benchmark process to its
    workload being ready, for :data:`SETUP_SAMPLES` processes run one
    after another. Each covers interpreter start, imports, a cold
    compile into its own empty cache and the workload's set-up."""
    command = child_command(args, args.workload, "--setup-only")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            readable, _, _ = select.select(
                [child.stdout], [], [], SETUP_TIMEOUT_S
            )
            line = child.stdout.readline() if readable else ""
            ready = time.perf_counter() - start
            code = child.wait(timeout=SETUP_TIMEOUT_S) if readable else None
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(
                f"set-up child for {args.workload} failed (exit {code})"
            )
        samples.append(ready)
    return samples


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

def one_campaign(workload) -> dict:
    """Run and check one campaign; timings stop before the check."""
    arrivals: list[float] = []
    start = time.perf_counter()
    try:
        report = workload.campaign(
            lambda key, report, progress: arrivals.append(
                time.perf_counter()
            )
        )
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {"ok": False}
    wall = time.perf_counter() - start
    ok = workload.check(report)
    if not ok:
        print(f"correctness: campaign digest differs from the "
              f"{workload.name} reference", file=sys.stderr)
    return {
        "ok": ok and bool(arrivals),
        "wall": wall,
        "pkts": report.injected,
        "shards": report.scenarios,
        "first": arrivals[0] - start if arrivals else wall,
        "gaps": [b - a for a, b in zip(arrivals, arrivals[1:])],
        "cache": dict(report.meta.get("compile_cache", {})),
        "service": workload.service_counters(report),
    }


def closed_loop(workload, seconds: float) -> list[dict]:
    """Campaigns back to back until ``seconds`` pass (at least one)."""
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(one_campaign(workload))
    return records


def alternating_loop(workload, tracer,
                     seconds: float) -> tuple[list[dict], list[dict]]:
    """Campaigns back to back, every second one traced, until
    ``seconds`` pass (at least one of each). Alternating keeps a drift
    in host speed out of the traced/untraced comparison."""
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(untraced) == len(traced):
            untraced.append(one_campaign(workload))
            continue
        tracer.install()
        try:
            traced.append(one_campaign(workload))
        finally:
            tracer.uninstall()
    return untraced, traced


def end_to_end(records: list[dict], setups: list[float],
               rss_kb: int) -> tuple[dict, dict]:
    done = [r for r in records if "wall" in r]
    gaps = [g for r in done for g in r["gaps"]]
    tail_value, percentile, n = tail(gaps) if gaps else (0.0, 0.0, 0)
    failed = sum(1 for r in records if not r["ok"])
    firsts = [r["first"] for r in done]
    rates = [r["pkts"] / r["wall"] for r in done]
    values = {
        "pkts_per_s": quantile(rates, 0.1) if rates else 0.0,
        "first_result_s": quantile(firsts, 0.9) if firsts else 0.0,
        "shard_tail_ms": tail_value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    notes = {
        "pkts_per_s_p50": statistics.median(rates) if rates else 0.0,
        "pkts_per_s_mean": (
            sum(r["pkts"] for r in done) / sum(r["wall"] for r in done)
            if done else 0.0
        ),
        "first_result_p50_s": statistics.median(firsts) if firsts else 0.0,
        "first_result_mean_s": statistics.fmean(firsts) if firsts else 0.0,
        "shard_p50_ms": statistics.median(gaps) * 1e3 if gaps else 0.0,
        "shard_tail_percentile": percentile,
        "shard_gap_samples": n,
        "setup_samples_s": setups,
        "failed_ratio": failed / len(records),
    }
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict], summary) -> dict:
    done = [r for r in traced if "wall" in r]
    pkts = sum(r["pkts"] for r in done) or 1
    shards = sum(r["shards"] for r in done) or 1
    campaigns = len(done) or 1
    wall = sum(r["wall"] for r in done) or 1.0
    layer = summary["self"]
    op_self = summary["op_self"]
    calls = summary["calls"]
    units = summary["units"]

    def us_per_pkt(seconds):
        return seconds / pkts * 1e6

    def ms_per_shard(seconds):
        return seconds / shards * 1e3

    def per_campaign(source, counter):
        return sum(r[source].get(counter, 0) for r in done) / campaigns

    frames = calls.get(("wire", "send_message"), 0) + calls.get(
        ("wire", "recv_message"), 0
    )
    values = {
        "traffic.build_us_per_pkt": us_per_pkt(layer.get("traffic", 0.0)),
        "packet.pack_calls_per_pkt":
            calls.get(("packet", "pack"), 0) / pkts,
        "packet.pack_us_per_pkt": us_per_pkt(layer.get("packet", 0.0)),
        "oracle.predict_us_per_pkt": us_per_pkt(layer.get("oracle", 0.0)),
        "oracle.predictions": calls.get(("oracle", "expect"), 0) / pkts,
        "device.exec_us_per_pkt": us_per_pkt(layer.get("device", 0.0)),
        "device.block_share":
            units.get(("device", "inject_block"), 0) / pkts,
        "checker.us_per_pkt": us_per_pkt(layer.get("checker", 0.0)),
        "session.self_us_per_pkt": us_per_pkt(layer.get("session", 0.0)),
        "artifact.resolve_ms_per_shard":
            ms_per_shard(layer.get("artifact", 0.0)),
        "artifact.hits": per_campaign("cache", "hits"),
        "artifact.memory_hits": per_campaign("cache", "memory_hits"),
        "artifact.misses": per_campaign("cache", "misses"),
        "artifact.stores": per_campaign("cache", "stores"),
        "regression.load_ms_per_shard":
            ms_per_shard(op_self.get(("regression", "load"), 0.0)),
        "regression.replay_us_per_pkt":
            us_per_pkt(op_self.get(("regression", "replay_suite"), 0.0)),
        "campaign.self_ms_per_shard":
            ms_per_shard(summary["shard_self"]),
        "campaign.assemble_ms":
            op_self.get(("campaign", "assemble_report"), 0.0)
            / campaigns * 1e3,
        "wire.frames_per_shard": frames / shards,
        "wire.bytes_per_shard": (
            units.get(("wire", "send_message"), 0)
            + units.get(("wire", "recv_message"), 0)
        ) / shards,
        "wire.us_per_frame":
            layer.get("wire", 0.0) / frames * 1e6 if frames else 0.0,
        "service.dispatches_per_shard":
            sum(r["service"].get("dispatched", 0) for r in done) / shards,
        "service.steals": per_campaign("service", "steals"),
        "service.requeues": per_campaign("service", "requeues"),
        "trace.coverage": (
            summary["shard_child_self"] / summary["shard_wall"]
            if summary["shard_wall"] else 0.0
        ),
        "trace.overhead": _overhead(done, untraced),
    }
    for name in SHARE_LAYERS:
        seconds = (
            summary["shard_self"] if name == "campaign"
            else layer.get(name, 0.0)
        )
        values[f"{name}.wall_share"] = seconds / wall
    return values


def _overhead(traced: list[dict], untraced: list[dict]) -> float:
    plain = [r["wall"] for r in untraced if "wall" in r]
    if not traced or not plain:
        return 0.0
    return (statistics.median(r["wall"] for r in traced)
            / statistics.median(plain))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--count", type=int, default=None,
        help="packets per scenario (default: the workload's own size)",
    )
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report_line(metrics: dict, units: dict, attempted: int,
                failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


def run_one(args) -> int:
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    meta = run_metadata(args)
    setups = [] if args.setup_only else timed_setups(args)
    scratch = hermetic_environment()
    workload = WORKLOADS[args.workload](ROOT, scratch, args.seed, args.count)
    try:
        try:
            workload.setup()
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 3
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            from tracer import Tracer, summarize

            tracer = Tracer()
            untraced, traced = alternating_loop(workload, tracer,
                                                args.seconds)
            records = untraced + traced
            metrics = per_layer(traced, untraced, summarize(tracer.spans))
            units = PER_LAYER
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}"
                                f".jsonl.gz")
            notes = {"traced_campaigns": len(traced),
                     "untraced_campaigns": len(untraced)}
        else:
            records = closed_loop(workload, args.seconds)
            rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      + workload.extra_rss_kb())
            metrics, notes = end_to_end(records, setups, rss_kb)
            units = {name: spec[0] for name, spec in END_TO_END.items()}
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for r in records if not r["ok"])
    meta.update(notes, campaigns=len(records), count=workload.count)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} campaigns, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.4f} {unit}")
    print("meta " + json.dumps(meta))
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace"
                        f"{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics,
                    "campaigns": records}, indent=2) + "\n"
    )
    print(report_line(metrics, units, len(records), failed))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one table."""
    from workloads import WORKLOADS

    results = {}
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            child_command(args, name, "--seconds", str(args.seconds),
                          "--trace", str(args.trace)),
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        worst = max(worst, done.returncode)
        if done.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    names = list(PER_LAYER if args.trace else END_TO_END)
    print(f"{'metric':<32}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for metric in names:
        row = f"{metric:<32}"
        for workload in WORKLOADS:
            entry = results.get(workload, {}).get("metrics", {})
            row += (f"{entry[metric]['value']:>16.4f}"
                    if metric in entry else f"{'-':>16}")
        unit = PER_LAYER[metric] if args.trace else END_TO_END[metric][0]
        print(f"{row}  {unit}")
    print(f"{'failed/attempted':<32}" + "".join(
        f"{'%d/%d' % (results[w]['failed'], results[w]['attempted']):>16}"
        if w in results else f"{'error':>16}"
        for w in WORKLOADS
    ))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
