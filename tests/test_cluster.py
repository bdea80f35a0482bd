"""Cluster subsystem tests: transport framing, the service-backed
localhost launcher, streaming ingest, fault-tolerant requeue, and the
byte-identical determinism contract across serial / pool / cluster."""

import multiprocessing
import random
import socket
import threading
import time

import pytest

from repro.exceptions import ClusterError
from repro.netdebug.campaign import (
    ScenarioMatrix,
    ShardExecutor,
    assemble_report,
    run_campaign,
)
from repro.netdebug import cluster
from repro.netdebug.client import ServiceClient
from repro.netdebug.cluster import (
    ProgressPrinter,
    main,
    run_cluster_campaign,
)
from repro.netdebug.controller import NetDebugController
from repro.netdebug.service import CampaignService
from repro.netdebug.transport import (
    Channel,
    MAX_FRAME_BYTES,
    recv_message,
    send_message,
)
from repro.p4.stdlib import strict_parser
from repro.target.reference import make_reference_device


def small_matrix(**overrides) -> ScenarioMatrix:
    base = dict(
        programs=["strict_parser", "l2_switch"],
        targets=["reference", "sdnet"],
        faults={"baseline": ()},
        workloads=["udp", "malformed"],
        count=4,
        seed=11,
    )
    base.update(overrides)
    return ScenarioMatrix(**base)


# ---------------------------------------------------------------------------
# Transport framing
# ---------------------------------------------------------------------------

class TestTransport:
    def socket_pair(self):
        return socket.socketpair()

    def test_json_round_trip(self):
        a, b = self.socket_pair()
        send_message(a, {"type": "hello", "slots": 3})
        assert recv_message(b) == {"type": "hello", "slots": 3}

    def test_clean_eof_returns_none(self):
        a, b = self.socket_pair()
        a.close()
        assert recv_message(b) is None

    def test_mid_frame_eof_raises(self):
        a, b = self.socket_pair()
        # A header promising 100 bytes, then death.
        a.sendall(b"\x00\x00\x00\x64\x4a" + b"{")
        a.close()
        with pytest.raises(ClusterError, match="mid-frame"):
            recv_message(b)

    def test_oversized_length_prefix_rejected(self):
        a, b = self.socket_pair()
        length = MAX_FRAME_BYTES + 1
        a.sendall(length.to_bytes(4, "big") + b"\x4a")
        with pytest.raises(ClusterError, match="exceeds limit"):
            recv_message(b)

    def test_json_only_rejects_pickle_frames_unparsed(self):
        # The wire is JSON-only: a pickle-kind (0x50) frame is refused
        # by its header alone, before its body is even read.
        a, b = self.socket_pair()
        a.sendall(b"\x00\x00\x00\x05\x50" + b"body!")
        with pytest.raises(ClusterError, match="kind byte 0x50"):
            recv_message(b)
        assert b.recv(5) == b"body!"

    def test_unknown_kind_byte_rejected(self):
        a, b = self.socket_pair()
        a.sendall(b"\x00\x00\x00\x02\x5a{}")
        with pytest.raises(ClusterError, match="kind byte"):
            recv_message(b)

    def test_channel_send_is_locked_and_closable(self):
        a, b = self.socket_pair()
        channel = Channel(a)
        threads = [
            threading.Thread(
                target=channel.send, args=({"type": "t", "i": i},)
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        seen = {recv_message(b)["i"] for _ in range(8)}
        for thread in threads:
            thread.join()
        assert seen == set(range(8))
        channel.close()
        assert recv_message(b) is None


# ---------------------------------------------------------------------------
# Determinism: serial vs pool vs distributed cluster
# ---------------------------------------------------------------------------

class TestClusterDeterminism:
    def test_serial_pool_and_cluster_byte_identical(self):
        matrix = small_matrix()
        serial = run_campaign(matrix, workers=1, name="det")
        pooled = run_campaign(matrix, workers=2, name="det")
        clustered = run_cluster_campaign(matrix, workers=2, name="det",
                                         timeout=300)
        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == clustered.to_json()

    def test_seeded_baseline_matrix_identical_on_all_three_paths(self):
        # The acceptance contract: the golden-baseline seeded matrix
        # produces the same bytes serially, on a pool, and distributed.
        from repro.netdebug.diffing import baseline_matrix

        matrix = baseline_matrix()
        serial = run_campaign(matrix, workers=1, name="baseline")
        pooled = run_campaign(matrix, workers=2, name="baseline")
        clustered = run_cluster_campaign(matrix, workers=2,
                                         name="baseline", timeout=300)
        assert serial.to_json() == pooled.to_json()
        assert serial.to_json() == clustered.to_json()

    def test_cluster_streams_results_with_progress(self):
        matrix = small_matrix(programs=["strict_parser"])
        events = []
        run_cluster_campaign(
            matrix, workers=2, name="stream", timeout=300,
            on_result=lambda key, report, progress: events.append(
                (key, progress.completed, progress.total)
            ),
        )
        total = len(matrix.expand())
        assert len(events) == total
        # Progress counts arrivals 1..N regardless of arrival order.
        assert [completed for _, completed, _ in events] == list(
            range(1, total + 1)
        )
        assert {key for key, _, _ in events} == {
            s.key for s in matrix.expand()
        }


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------

class TestFaultTolerance:
    def test_worker_crash_mid_shard_requeues_and_stays_deterministic(self):
        matrix = small_matrix()
        serial = run_campaign(matrix, workers=1, name="crash")
        survived = run_cluster_campaign(
            matrix, workers=2, name="crash", crash_after=1, timeout=300
        )
        # The dead worker's shard moved to the survivor.
        assert survived.meta["service"]["requeues"] >= 1
        assert serial.to_json() == survived.to_json()

    def test_retry_budget_exhaustion_raises_cluster_error(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        started = time.monotonic()
        with pytest.raises(
            ClusterError, match="retry budget|every worker exited"
        ):
            run_cluster_campaign(
                matrix, workers=1, name="doomed", crash_after=0,
                retry_budget=0, timeout=60,
            )
        assert time.monotonic() - started < 60

    def test_all_workers_lost_raises_instead_of_hanging(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        started = time.monotonic()
        with pytest.raises(
            ClusterError, match="every worker exited|retry budget"
        ):
            run_cluster_campaign(
                matrix, workers=1, name="lost", crash_after=0,
                retry_budget=10, timeout=60,
            )
        assert time.monotonic() - started < 60

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the stalled worker is a fork of the patched module",
    )
    def test_timeout_ends_a_stalled_campaign(self, monkeypatch):
        # A live worker stuck in a shard must not hang the launcher:
        # the timeout closes the service and ends the stream.
        def stalled(message):
            time.sleep(1.0)
            return {"type": "error", "error": "stalled"}

        monkeypatch.setattr(cluster, "_service_execute", stalled)
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        with pytest.raises(ClusterError, match="timed out after 0.3s"):
            run_cluster_campaign(
                matrix, workers=1, name="stalled", timeout=0.3
            )

    def test_worker_socket_has_no_lingering_connect_timeout(self):
        # The connect timeout must not apply to later recv()s: an idle
        # worker waits far longer than 10s on real campaigns.
        from repro.netdebug.cluster import _connect_with_retry

        listener = socket.create_server(("127.0.0.1", 0))
        sock = _connect_with_retry(listener.getsockname()[:2], 5.0)
        assert sock.gettimeout() is None
        sock.close()
        listener.close()

    def test_malformed_result_message_fails_loudly(self):
        # A foreign service worker replying with a result that cannot
        # be decoded must fail the campaign with ClusterError, not
        # strand the shard or corrupt the result map.
        secret = "rogue-test-secret"
        service = CampaignService(secret=secret).start()

        def rogue_worker():
            sock = socket.create_connection(service.address)
            channel = Channel(sock, secret=secret)
            channel.send(
                {"type": "hello", "mode": "service", "session": "rogue"}
            )
            try:
                channel.recv()  # welcome
                job = channel.recv()  # take the job...
                channel.send(  # ...bungle it
                    {
                        "type": "result",
                        "assignment": job["assignment"],
                        "result": {"bogus": True},
                    }
                )
                channel.recv()  # the ack
            finally:
                channel.close()

        threading.Thread(target=rogue_worker, daemon=True).start()
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        try:
            handle = ServiceClient(
                service.address, secret=secret, timeout=30.0
            ).submit(matrix, name="rogue")
            with pytest.raises(ClusterError, match="undecodable result"):
                handle.result()
            handle.close()
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Out-of-order reassembly (the streaming-ingest determinism property)
# ---------------------------------------------------------------------------

class ShuffledExecutor(ShardExecutor):
    """Executes serially, then delivers results in a seeded random
    order — a worst-case model of out-of-order cluster arrival."""

    def __init__(self, seed: int):
        self.seed = seed

    def execute(self, jobs, shard_fn, on_result=None):
        results = [shard_fn(job) for job in jobs]
        random.Random(self.seed).shuffle(results)
        if on_result is not None:
            for result in results:
                on_result(result)
        return results


class TestOutOfOrderReassembly:
    @pytest.mark.parametrize("seed", range(6))
    def test_any_arrival_order_reassembles_byte_identically(self, seed):
        matrix = small_matrix(programs=["strict_parser"], count=3)
        serial = run_campaign(matrix, name="order")
        shuffled = run_campaign(
            matrix, name="order", executor=ShuffledExecutor(seed)
        )
        assert serial.to_json() == shuffled.to_json()

    def test_assemble_report_rejects_duplicates(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"], workloads=["udp"])
        results = run_campaign(matrix, name="dup").results
        with pytest.raises(Exception, match="duplicate"):
            assemble_report("dup", results + results)

    def test_assemble_report_rejects_gaps(self):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"],
                              workloads=["udp", "malformed"])
        results = run_campaign(matrix, name="gap").results
        with pytest.raises(Exception, match="1 of 2"):
            assemble_report("gap", results[:1], expected=2)


# ---------------------------------------------------------------------------
# Controller + renderer integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_controller_archives_cluster_campaign(self):
        device = make_reference_device("cluster-ctl")
        device.load(strict_parser())
        controller = NetDebugController(device)
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"])
        report = run_cluster_campaign(matrix, workers=2, name="arch",
                                      timeout=300)
        assert controller.archive_campaign(report) == len(report.results)

    def test_controller_stream_archiver_collects_live(self):
        device = make_reference_device("cluster-live")
        device.load(strict_parser())
        controller = NetDebugController(device)
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference"])
        run_campaign(matrix, name="live",
                     on_result=controller.stream_archiver())
        assert len(controller.reports) == len(matrix.expand())

    def test_progress_printer_renders_each_result(self, capsys):
        matrix = small_matrix(programs=["strict_parser"],
                              targets=["reference", "sdnet"])
        printer = ProgressPrinter()
        run_campaign(matrix, name="render", on_result=printer)
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == len(matrix.expand())
        assert printer.first_result_s is not None
        assert "strict_parser/sdnet/baseline/malformed" in out
        assert "FAIL" in out  # the reject-leak cell renders as failing

    def test_cli_local_subcommand_end_to_end(self, tmp_path, capsys):
        out_file = tmp_path / "cli.json"
        status = main(
            [
                "local",
                "--workers", "2",
                "--programs", "strict_parser",
                "--targets", "reference,sdnet",
                "--workloads", "udp,malformed",
                "--count", "4",
                "--setup", "",
                "--name", "clismoke",
                "--out", str(out_file),
            ]
        )
        assert status == 0
        assert out_file.exists()
        # The CLI's file is byte-equivalent (canonically) to an
        # in-process serial run of the same matrix.
        from repro.netdebug.campaign import CampaignReport

        serial = run_campaign(
            small_matrix(programs=["strict_parser"], count=4,
                         seed=2018),
            name="clismoke",
        )
        assert CampaignReport.load(out_file).to_json() == serial.to_json()

    def test_cli_bad_address_exits_2(self, capsys):
        from repro.netdebug import service

        assert service.main(
            ["worker", "--connect", "nonsense", "--insecure"]
        ) == 2
        assert "HOST:PORT" in capsys.readouterr().err
