"""Worker side and one-call launcher of the distributed campaign.

The campaign engine (:mod:`repro.netdebug.campaign`) tops out at one
host's cores; the validation methodology only pays off when the
(program × target × fault × workload) matrix is big enough to surface
rare platform deviations. Distribution has one substrate, the campaign
service (:mod:`repro.netdebug.service`): one JSON wire, one scheduler,
one fault model. This module holds the parts of it that run on the
workers, plus the localhost launcher:

* :func:`service_worker_main` — a worker on this host or any other
  connects, executes shards with the same per-process artifact cache
  the pool path uses, and streams each :class:`ScenarioResult` back the
  moment it completes.
* :func:`run_cluster_campaign` — starts an in-process service, forks N
  local workers, submits the matrix and streams it. Results arrive out
  of order and fire the ``on_result(scenario_key, report, progress)``
  hook immediately; the final report is reassembled deterministically
  (:func:`repro.netdebug.campaign.assemble_report`), so serial, pooled
  and distributed runs are **byte-identical**. A worker crash requeues
  its shard on the survivors within the service's retry budget; losing
  every local worker, or the timeout passing, ends the campaign with a
  :class:`ClusterError` instead of a hang.

CLI::

    python -m repro.netdebug.cluster local --workers 2 --baseline

For a fleet spanning several hosts run ``python -m
repro.netdebug.service serve|worker|submit``.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path

from ..exceptions import ClusterError
from .campaign import (
    CampaignProgress,
    CampaignReport,
    ScenarioMatrix,
    _pool_context,
    _run_shard,
)
from .report import SessionReport
from .transport import Channel, decode_job, require_cache_version

__all__ = [
    "service_worker_main",
    "normalize_tags",
    "tags_eligible",
    "run_cluster_campaign",
    "ProgressPrinter",
    "main",
]

_CRASH_EXIT = 17


def _connect_with_retry(
    address: tuple[str, int], retry_s: float
) -> socket.socket:
    """Workers are routinely started before (or with) the service —
    retry the connect briefly instead of racing the launch order."""
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            # The connect timeout must not outlive the connect: a worker
            # legitimately blocks in recv() for as long as a shard (or
            # the whole campaign tail) takes.
            sock.settimeout(None)
            return sock
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"could not connect to the campaign service at "
                    f"{address[0]}:{address[1]} within {retry_s}s: {exc}"
                ) from exc
            time.sleep(0.2)


# ---------------------------------------------------------------------------
# Service worker
# ---------------------------------------------------------------------------

def normalize_tags(tags) -> tuple[str, ...]:
    """Validate capability tags into sorted ``dim:value`` form.

    A tag names one value of one placement dimension (``target:tofino``,
    ``engine:batch``). Declaring a dimension *constrains* the worker to
    that value; leaving a dimension undeclared means "anything" — so a
    bare untagged worker accepts every shard.
    """
    normalized = set()
    for tag in tags:
        tag = tag.strip()
        if not tag:
            continue
        dim, sep, value = tag.partition(":")
        if not sep or not dim or not value:
            raise ClusterError(
                f"capability tag {tag!r} must look like dim:value "
                "(e.g. target:tofino, engine:batch)"
            )
        normalized.add(f"{dim}:{value}")
    return tuple(sorted(normalized))


def tags_eligible(worker_tags, required) -> bool:
    """May a worker with ``worker_tags`` run a shard needing ``required``?

    Per placement dimension: the worker is eligible iff it declares no
    tag in that dimension (unconstrained) or declares the exact
    required value. A worker pinned ``target:tofino`` never receives
    reference shards; an untagged worker receives anything.
    """
    declared: dict[str, set[str]] = {}
    for tag in worker_tags:
        dim, _, value = tag.partition(":")
        declared.setdefault(dim, set()).add(value)
    for tag in required:
        dim, _, value = tag.partition(":")
        values = declared.get(dim)
        if values is not None and value not in values:
            return False
    return True


class _ServiceSession:
    """One service worker's cross-connection state.

    ``ledger`` holds every finished assignment's result frame until the
    coordinator acks it — the reconnect currency: after a drop the
    worker re-announces what it finished (``done``) and what it still
    holds unexecuted (``holding``), and the coordinator requeues only
    assignments in neither set.
    """

    def __init__(self, session: str | None = None):
        self.session = session or os.urandom(8).hex()
        self.ledger: dict[int, dict] = {}
        self.queue: deque[dict] = deque()
        self.completed = 0


def _service_execute(message: dict) -> dict:
    """Run one JSON job frame; the reply frame (result or error)."""
    aid = message.get("assignment")
    base = {
        "assignment": aid,
        "campaign": message.get("campaign"),
        "id": message.get("id"),
    }
    try:
        require_cache_version(message)
        if message.get("fn", "run") != "run":
            raise ClusterError(
                f"service workers only run 'run' shards, got "
                f"{message.get('fn')!r}"
            )
        result = _run_shard(decode_job(message["job"]))
    except Exception:
        return {"type": "error", "error": traceback.format_exc(), **base}
    reply = {"type": "result", "result": result.to_dict(), **base}
    # cache_stats is deliberately NOT part of ScenarioResult.to_dict
    # (golden bytes); it rides the frame as a sidecar so the service can
    # still aggregate compile-cache counters into report.meta.
    if result.cache_stats:
        reply["cache_stats"] = dict(result.cache_stats)
    return reply


def service_worker_main(
    address: tuple[str, int],
    slots: int = 1,
    tags=(),
    secret: str | bytes | None = None,
    session: str | None = None,
    crash_after: int | None = None,
    drop_after: int | None = None,
    connect_retry_s: float = 20.0,
    reconnect_budget: int = 8,
) -> None:
    """Run one service worker until the coordinator dismisses it.

    * The wire is JSON-only and (with ``secret``) HMAC-authenticated:
      job frames are data, never code.
    * The hello declares capability ``tags`` and a persistent
      ``session`` id, and every completed assignment is held in a
      ledger until acked, so a transient drop resumes instead of
      losing work (the coordinator requeues only what the worker
      genuinely no longer holds).
    * Shards execute inline, one at a time, with up to ``slots`` jobs
      pipelined into the local queue by the coordinator.

    ``crash_after`` is the mid-shard crash the fault-tolerance tests
    turn: the process hard-exits (``os._exit``) on *receiving* shard
    ``crash_after + 1``, i.e. with that shard dispatched but
    unfinished. ``drop_after`` instead closes the socket after every
    ``drop_after`` completions and reconnects — the reconnect-protocol
    chaos knob.
    """
    state = _ServiceSession(session)
    tags = normalize_tags(tags)
    slots = max(1, int(slots))
    reconnects = 0
    while True:
        sock = _connect_with_retry(address, connect_retry_s)
        channel = Channel(sock, secret=secret)
        try:
            outcome = _serve_service(
                channel, state, slots, tags, crash_after, drop_after
            )
        except (OSError, ClusterError):
            outcome = "lost"
        finally:
            channel.close()
        if outcome == "shutdown":
            return
        # Anything unfinished survives in ``state``; reconnect and
        # resume. A worker that cannot reach the coordinator at all
        # gives up via _connect_with_retry's deadline.
        reconnects += 1
        if reconnects > reconnect_budget:
            raise ClusterError(
                f"service worker lost its coordinator {reconnects} "
                "times; giving up"
            )


def _serve_service(
    channel: Channel,
    state: _ServiceSession,
    slots: int,
    tags: tuple[str, ...],
    crash_after: int | None,
    drop_after: int | None,
) -> str:
    """One connection's worth of the service worker protocol.

    Returns ``"shutdown"`` (dismissed — exit) or ``"lost"``
    (connection died — caller reconnects with ``state`` intact).
    """
    channel.send(
        {
            "type": "hello",
            "mode": "service",
            "slots": slots,
            "pid": os.getpid(),
            "tags": list(tags),
            "session": state.session,
            "holding": sorted(
                m["assignment"] for m in state.queue
            ),
            "done": sorted(state.ledger),
        }
    )
    welcome = channel.recv()
    if welcome is None or welcome.get("type") == "shutdown":
        return "shutdown"
    if welcome.get("type") != "welcome":
        raise ClusterError(
            f"service coordinator sent {welcome.get('type')!r} "
            "where a welcome was expected"
        )
    for aid in welcome.get("ack", []):
        state.ledger.pop(aid, None)
    for aid in welcome.get("want", []):
        frame = state.ledger.get(aid)
        if frame is not None:
            channel.send(frame)

    cond = threading.Condition()
    status = {"outcome": None}

    def _recv_loop() -> None:
        while True:
            try:
                message = channel.recv()
            except (OSError, ClusterError):
                message = None
            with cond:
                if message is None:
                    status["outcome"] = status["outcome"] or "lost"
                    cond.notify_all()
                    return
                kind = message.get("type")
                if kind == "job":
                    state.queue.append(message)
                elif kind == "ack":
                    for aid in message.get("assignments", []):
                        state.ledger.pop(aid, None)
                elif kind == "shutdown":
                    status["outcome"] = "shutdown"
                    cond.notify_all()
                    return
                cond.notify_all()

    receiver = threading.Thread(
        target=_recv_loop, name="service-worker-recv", daemon=True
    )
    receiver.start()
    dropped_at = state.completed
    while True:
        with cond:
            while status["outcome"] is None and not state.queue:
                cond.wait(timeout=0.1)
            if status["outcome"] == "shutdown":
                return "shutdown"
            if status["outcome"] is not None and not state.queue:
                return status["outcome"]
            if not state.queue:
                continue
            if (
                crash_after is not None
                and state.completed >= crash_after
            ):
                os._exit(_CRASH_EXIT)
            message = state.queue.popleft()
        reply = _service_execute(message)
        with cond:
            aid = message.get("assignment")
            if aid is not None:
                state.ledger[aid] = reply
            state.completed += 1
        try:
            channel.send(reply)
        except (OSError, ClusterError):
            return "lost"  # reply survives in the ledger
        if (
            drop_after is not None
            and state.completed - dropped_at >= drop_after
        ):
            return "lost"  # chaos: simulate a transient drop


# ---------------------------------------------------------------------------
# Localhost launcher
# ---------------------------------------------------------------------------

#: Reconnect grace of the launcher's private service. Its workers are
#: child processes that never drop and reconnect, so a lost one is a
#: dead one: requeue its shard quickly instead of after the default.
_LOCAL_RECONNECT_GRACE_S = 0.5


class _FleetWatchdog:
    """Ends a launcher campaign that the result stream would wait on
    forever: every local worker gone, or the timeout passed, with
    shards unfinished. It records why in :attr:`error` and closes the
    service, which ends the stream."""

    def __init__(self, service, campaign: int, processes, timeout):
        self.error: ClusterError | None = None
        self._service = service
        self._campaign = campaign
        self._processes = processes
        self._timeout = timeout
        self._deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="cluster-watchdog", daemon=True
        )
        self._thread.start()

    def _watch(self) -> None:
        while not self._stop.wait(0.1):
            entry = next(
                (
                    c
                    for c in self._service.campaign_listing()
                    if c["campaign"] == self._campaign
                ),
                None,
            )
            if entry is None or entry["completed"] >= entry["total"]:
                continue  # finished or failed: the stream ends itself
            if not any(p.is_alive() for p in self._processes):
                self.error = ClusterError(
                    "every worker exited with "
                    f"{entry['total'] - entry['completed']} shards "
                    "unfinished; nothing can complete the campaign"
                )
            elif (
                self._deadline is not None
                and time.monotonic() > self._deadline
            ):
                self.error = ClusterError(
                    f"campaign timed out after {self._timeout}s with "
                    f"{entry['completed']}/{entry['total']} shards "
                    "complete"
                )
            else:
                continue
            self._service.close()
            return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def run_cluster_campaign(
    matrix: ScenarioMatrix,
    workers: int = 2,
    name: str = "campaign",
    on_result=None,
    retry_budget: int | None = None,
    timeout: float | None = None,
    engine: str = "closure",
    crash_after: int | None = None,
) -> CampaignReport:
    """Run ``matrix`` on a private campaign service with ``workers``
    local worker processes — the one-call launcher tests, CI and
    benchmarks use. Byte-identical to ``run_campaign`` on the same
    matrix (and across engines).

    ``on_result`` is the streaming hook of :func:`run_campaign`.
    ``retry_budget`` defaults to the service's. ``timeout`` bounds the
    campaign in seconds. ``crash_after`` makes the first worker
    hard-exit mid-shard (see :func:`service_worker_main`). Losing every
    worker or the timeout raises :class:`ClusterError`.
    """
    # Deferred: the service imports this module for its worker side.
    from .client import ServiceClient
    from .service import DEFAULT_RETRY_BUDGET, CampaignService

    if workers < 1:
        raise ClusterError("the launcher needs at least one worker")
    # A fresh key per launch: other local users cannot join the fleet.
    secret = os.urandom(16).hex()
    service = CampaignService(
        secret=secret,
        retry_budget=(
            DEFAULT_RETRY_BUDGET if retry_budget is None else retry_budget
        ),
        reconnect_grace_s=_LOCAL_RECONNECT_GRACE_S,
    )
    processes = []
    try:
        # Fork before the service starts its threads: the listener is
        # bound, so the workers connect as soon as the scheduler runs.
        context = _pool_context()
        for index in range(workers):
            process = context.Process(
                target=service_worker_main,
                args=(service.address,),
                kwargs={
                    "secret": secret,
                    "crash_after": crash_after if index == 0 else None,
                },
                daemon=True,
            )
            process.start()
            processes.append(process)
        service.start()
        handle = ServiceClient(service.address, secret=secret).submit(
            matrix, name=name, engine=engine
        )
        watchdog = _FleetWatchdog(
            service, handle.campaign, processes, timeout
        )
        try:
            return handle.stream(on_result)
        except (ClusterError, OSError):
            if watchdog.error is not None:
                raise watchdog.error from None
            raise
        finally:
            watchdog.stop()
            handle.close()
    finally:
        service.close()
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join()

class ProgressPrinter:
    """A live text renderer for the streaming ``on_result`` hook.

    Prints one line per completed scenario *as it lands* (out of order
    under parallel executors), plus how far the campaign is — the
    paper-workflow view of a long sweep. Records
    :attr:`first_result_s`, which is what the streaming-vs-barrier
    benchmark reports as time-to-first-result.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stdout
        self._start = time.perf_counter()
        self.first_result_s: float | None = None

    def __call__(
        self,
        scenario_key: str,
        report: SessionReport,
        progress: CampaignProgress,
    ) -> None:
        elapsed = time.perf_counter() - self._start
        if self.first_result_s is None:
            self.first_result_s = elapsed
        width = len(str(progress.total))
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"[{progress.completed:>{width}}/{progress.total}] "
            f"{scenario_key:<55} {verdict} "
            f"findings={len(report.findings):<3} t={elapsed:7.2f}s",
            file=self._stream,
            flush=True,
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(
            f"address must look like HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _matrix_from_args(args) -> tuple[ScenarioMatrix, str]:
    if getattr(args, "baseline", False):
        from .diffing import baseline_matrix

        return baseline_matrix(), "baseline"
    matrix = ScenarioMatrix(
        programs=_csv(args.programs),
        targets=_csv(args.targets),
        workloads=_csv(args.workloads),
        count=args.count,
        seed=args.seed,
        setup=args.setup,
        sla_p99_cycles=args.sla_p99,
        oracle=args.oracle,
    )
    return matrix, args.name


def _add_matrix_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline", action="store_true",
        help="run the committed golden-baseline matrix "
             "(repro.netdebug.diffing.baseline_matrix); overrides the "
             "axis flags below",
    )
    parser.add_argument("--programs", default="strict_parser,acl_firewall")
    parser.add_argument("--targets", default="reference,sdnet,tofino")
    parser.add_argument("--workloads", default="udp,malformed")
    parser.add_argument("--count", type=int, default=16,
                        help="packets per scenario")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--setup", default="acl_gate",
                        help="named provisioner ('' for none)")
    parser.add_argument("--sla-p99", type=float, default=None,
                        help="optional p99 latency SLA in cycles")
    parser.add_argument("--engine", default="closure",
                        choices=("tree", "closure", "batch"),
                        help="execution engine for shard devices")
    parser.add_argument("--oracle", default="stateless",
                        choices=("stateless", "stateful"),
                        help="named expectation oracle: 'stateful' "
                             "threads register state across each "
                             "cell's packet sequence")
    parser.add_argument("--name", default="campaign")
    parser.add_argument("--out", default="",
                        help="write the campaign report JSON here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live per-scenario stream")


def _finish_campaign(report: CampaignReport, args) -> int:
    print(report.summary())
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        report.save(out)
        print(f"report written to {out}")
    # Exit 0 whenever the campaign *completed*: deviant cells failing is
    # a result (the baseline matrix fails by design), not a crash.
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.netdebug.cluster",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    local = commands.add_parser(
        "local",
        help="one-call localhost fleet: a private service + N workers",
    )
    local.add_argument("--workers", type=int, default=2)
    local.add_argument("--retry-budget", type=int, default=None,
                       help="requeues allowed per shard (default: the "
                            "service's)")
    local.add_argument("--timeout", type=float, default=600.0)
    _add_matrix_args(local)

    args = parser.parse_args(argv)
    try:
        matrix, name = _matrix_from_args(args)
        report = run_cluster_campaign(
            matrix,
            workers=args.workers,
            name=name,
            retry_budget=args.retry_budget,
            timeout=args.timeout,
            on_result=None if args.quiet else ProgressPrinter(),
            engine=args.engine,
        )
    except ClusterError as exc:
        print(f"cluster error: {exc}", file=sys.stderr)
        return 2
    return _finish_campaign(report, args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
