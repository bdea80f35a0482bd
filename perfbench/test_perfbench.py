"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _meta(stdout: str) -> dict:
    line = next(
        line for line in stdout.splitlines() if line.startswith("meta ")
    )
    return json.loads(line[len("meta "):])


# ---------------------------------------------------------------------------
# The contract file and the code agree
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in SPEC["end_to_end"]
    } == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(m["better"] in ("higher", "lower") for m in SPEC["per_layer"])


# ---------------------------------------------------------------------------
# Smoke runs: every workload, tiny counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--count", "2", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name][0]
        assert entry["value"] > 0, name
    meta = _meta(done.stdout)
    assert meta["seed"] == 3 and meta["trace"] is False
    for key in ("commit", "cpu_count", "python", "loadavg_at_start",
                "shard_tail_percentile", "shard_gap_samples"):
        assert key in meta


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced(workload):
    done = _cli("--workload", workload, "--seed", "4", "--seconds", "0.2",
                "--count", "2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["trace.overhead"] > 0
    if workload == "service_2w":
        assert metrics["wire.frames_per_shard"] > 0
        assert metrics["service.dispatches_per_shard"] >= 1
    else:
        assert 0 < metrics["trace.coverage"] <= 1
        assert metrics["device.exec_us_per_pkt"] > 0
    if workload == "replay_closure":
        assert metrics["oracle.predictions"] == 0
        assert metrics["regression.load_ms_per_shard"] > 0
    if workload in ("campaign_batch", "stateful_batch"):
        assert metrics["oracle.predictions"] == 1
        assert metrics["device.block_share"] == 1


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ---------------------------------------------------------------------------
# A wrong reference is a failed campaign and a failed command
# ---------------------------------------------------------------------------

def test_tampered_reference_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(
        workloads.CampaignBatch, "reference_digest",
        lambda self: "0" * 64,
    )
    # run.main points both at fresh directories; restore them after.
    monkeypatch.setenv("REPRO_COMPILE_CACHE", "unset")
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    code = run.main(["--workload", "campaign_batch", "--seed", "5",
                     "--seconds", "0.2", "--count", "2"])
    out = capsys.readouterr().out
    assert code != 0
    result = _result(out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0
    assert _meta(out)["failed_ratio"] > 0


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _span(sid, parent, layer, op, start, end, key="k", units=None):
    return (sid, parent, layer, op, float(start), float(end), key, units)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(1, None, "campaign", tracer.SHARD_OP, 0, 100),
        _span(2, 1, "oracle", "expect_all", 10, 60),
        _span(3, 2, "oracle", "expect", 10, 30),
        _span(4, 3, "packet", "pack", 20, 25),
        _span(5, 2, "oracle", "expect", 30, 60),
        _span(6, 5, "packet", "pack", 40, 50),
        _span(7, 1, "device", "inject_block", 60, 70, units=2),
        _span(8, 7, "checker", "_on_snapshot", 62, 64),
        _span(9, None, "wire", "send_message", 200, 203, key=None),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 40.0, 2: 0.0, 3: 15.0, 4: 5.0, 5: 20.0, 6: 10.0,
                   7: 8.0, 8: 2.0, 9: 3.0}
    summary = tracer.summarize(spans)
    assert summary["self"] == {"campaign": 40.0, "oracle": 35.0,
                               "packet": 15.0, "device": 8.0,
                               "checker": 2.0, "wire": 3.0}
    assert summary["calls"][("oracle", "expect")] == 2
    assert summary["units"][("device", "inject_block")] == 2
    assert summary["shards"] == 1
    assert summary["shard_wall"] == 100.0
    assert summary["shard_self"] == 40.0
    # Wire time outside the shard is not shard coverage.
    assert summary["shard_child_self"] == 60.0


def test_overlapping_children_are_counted_once():
    spans = [
        _span(1, None, "session", "run_session", 0, 10),
        _span(2, 1, "device", "inject", 1, 5),
        _span(3, 1, "checker", "arm", 4, 7),
    ]
    assert tracer.self_times(spans)[1] == 4.0


def test_tracer_nests_pack_under_the_oracle():
    from repro.netdebug.oracle import StatelessOracle
    from repro.p4.stdlib import PROGRAMS
    from repro.packet.packet import Packet
    from repro.sim.traffic import build_workload, default_flow

    program = PROGRAMS["l2_switch"]()
    packet = build_workload("udp", default_flow(0), 1, seed=1).packets[0]
    oracle = StatelessOracle(program, num_ports=4)
    original = Packet.__dict__["pack"]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        frame = packet.pack()
        oracle.expect(frame)
    finally:
        recorder.uninstall()
    assert Packet.__dict__["pack"] is original
    by_id = {span[0]: span for span in recorder.spans}
    expect = [s for s in recorder.spans if s[3] == "expect"]
    assert len(expect) == 1
    nested = [s for s in recorder.spans
              if s[2] == "packet" and s[1] == expect[0][0]]
    assert nested, "the oracle's output pack is not its child"
    top_pack = [s for s in recorder.spans
                if s[2] == "packet" and s[1] is None]
    assert len(top_pack) == 1
    assert all(s[1] is None or s[1] in by_id for s in recorder.spans)


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    value, percentile, n = run.tail(samples)
    assert n == 30
    assert value == 20.0
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_quantile_is_nearest_rank():
    samples = [float(i) for i in range(10, 0, -1)]
    assert run.quantile(samples, 0.1) == 2.0
    assert run.quantile(samples, 0.9) == 10.0
    assert run.quantile([5.0], 0.9) == 5.0
