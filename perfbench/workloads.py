"""The four closed-loop workloads: one client, one campaign in flight.

Each workload drives real campaigns through a public entry point
(``run_campaign``, ``replay_campaign`` or ``CampaignService`` +
``ServiceClient``). ``setup`` does everything a user pays before the
first result can be timed: the golden checks, the workload's reference
run, a recording or a fleet. ``campaign`` runs one campaign and
``check`` compares its canonical bytes with the reference digest.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from pathlib import Path

from repro.netdebug.campaign import (
    CampaignReport,
    replay_campaign,
    run_campaign,
)
from repro.netdebug.client import ServiceClient
from repro.netdebug.cluster import service_worker_main
from repro.netdebug.diffing import (
    BASELINE_SEED,
    baseline_matrix,
    baseline_stateful_matrix,
)
from repro.netdebug.service import CampaignService

#: Name of every timed campaign (reports embed it in canonical bytes).
NAME = "perfbench"

#: (matrix factory, campaign name, committed golden file).
GOLDENS = (
    (baseline_matrix, "baseline", "campaign.json"),
    (baseline_stateful_matrix, "baseline-stateful", "stateful.json"),
)

SERVICE_WORKERS = 2
SERVICE_SECRET = "perfbench-frame-key"


class SetupError(RuntimeError):
    """Setup could not establish a correct reference; nothing is timed."""


def digest(report: CampaignReport) -> str:
    """SHA-256 of a report's canonical JSON bytes."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def verdicts(report: CampaignReport) -> dict:
    """Per-scenario verdicts plus findings by kind: what a replay must
    reproduce from its recording (the session names differ, so the
    canonical bytes cannot)."""
    return {
        "verdicts": {r.scenario.key: r.verdict for r in report.results},
        "findings_by_kind": report.findings_by_kind(),
    }


class Workload:
    """One workload; subclasses fill in the matrix and the entry point."""

    name = ""
    why = ""
    engine = "batch"
    #: Packets per scenario when the command line gives no ``--count``.
    default_count = 0

    def __init__(self, root: Path, work: Path, seed: int,
                 count: int | None = None):
        self.root = root
        self.work = work
        self.seed = seed
        self.count = count if count is not None else self.default_count
        self.reference: str | None = None

    # -- shared helpers ---------------------------------------------------

    def run(self, matrix, name: str, on_result=None) -> CampaignReport:
        """One campaign of ``matrix`` on this workload's executor."""
        return run_campaign(
            matrix, name=name, engine=self.engine, on_result=on_result
        )

    def golden_check(self) -> None:
        """The seeded golden matrices must save byte-equal to the
        committed baselines on this workload's engine and executor."""
        for factory, name, filename in GOLDENS:
            report = self.run(factory(seed=BASELINE_SEED), name)
            saved = report.save(self.work / f"golden-{filename}")
            expected = (self.root / "baselines" / filename).read_bytes()
            if saved.read_bytes() != expected:
                raise SetupError(
                    f"{self.name}: {name} on engine {self.engine!r} is not "
                    f"byte-equal to baselines/{filename}"
                )

    def setup(self) -> None:
        self.golden_check()
        self.reference = self.reference_digest()

    def matrix(self):
        return baseline_matrix(count=self.count, seed=self.seed)

    def reference_digest(self) -> str:
        raise NotImplementedError

    def campaign(self, on_result) -> CampaignReport:
        """One timed campaign; ``on_result`` is the streaming hook."""
        return self.run(self.matrix(), NAME, on_result)

    def check(self, report: CampaignReport) -> bool:
        return digest(report) == self.reference

    def service_counters(self, report: CampaignReport) -> dict:
        """Scheduler counters of the campaign behind ``report``."""
        return {}

    def extra_rss_kb(self) -> int:
        """Peak resident memory of helper processes, in KiB."""
        return 0

    def close(self) -> None:
        pass


class CampaignBatch(Workload):
    name = "campaign_batch"
    why = ("headline path: oracle, packing and workload build dominate; "
           "device is a few percent of wall")
    default_count = 200

    def reference_digest(self) -> str:
        # The closure engine is an independent kernel pinned
        # byte-identical to batch, so the reference does not come from
        # the code path being timed.
        return digest(run_campaign(self.matrix(), name=NAME,
                                   engine="closure"))


class StatefulBatch(CampaignBatch):
    name = "stateful_batch"
    why = ("session-scoped stateful oracle, per-packet ingress ports and "
           "the packet-major kernel")
    default_count = 100

    def matrix(self):
        return baseline_stateful_matrix(count=self.count, seed=self.seed)


class ReplayClosure(Workload):
    name = "replay_closure"
    why = ("control: no oracle, traffic build or input packing; device "
           "and checker dominate")
    engine = "closure"
    default_count = 200

    def reference_digest(self) -> str:
        self.recording = self.work / "recording"
        recorded = run_campaign(
            self.matrix(), name=NAME, record_dir=self.recording,
            engine=self.engine,
        )
        first = self.campaign(None)
        if verdicts(first) != verdicts(recorded):
            raise SetupError(
                f"{self.name}: the first replay's verdicts or findings "
                "differ from the recording's"
            )
        return digest(first)

    def campaign(self, on_result) -> CampaignReport:
        return replay_campaign(
            self.recording, name=NAME, on_result=on_result,
            engine=self.engine,
        )


class Service2w(Workload):
    name = "service_2w"
    why = ("HMAC JSON wire, fair-share scheduler and remote reassembly "
           "with two forked service workers")
    default_count = 200

    def setup(self) -> None:
        # The listener exists before the fork, the service threads only
        # after it: the workers are forked from a single-threaded
        # process and connect as soon as the scheduler runs.
        self.service = CampaignService(secret=SERVICE_SECRET)
        context = multiprocessing.get_context("fork")
        self.processes = []
        for _ in range(SERVICE_WORKERS):
            process = context.Process(
                target=service_worker_main,
                args=(self.service.address,),
                kwargs={"secret": SERVICE_SECRET, "connect_retry_s": 30.0},
            )
            process.start()
            self.processes.append(process)
        self.service.start()
        deadline = time.monotonic() + 60.0
        while sum(
            1 for w in self.service.worker_listing() if w["alive"]
        ) < SERVICE_WORKERS:
            if time.monotonic() > deadline:
                raise SetupError(f"{self.name}: the fleet never came up")
            time.sleep(0.01)
        self.client = ServiceClient(
            self.service.address, secret=SERVICE_SECRET, timeout=120.0
        )
        super().setup()
        self.steals = self.service.steals

    def run(self, matrix, name: str, on_result=None) -> CampaignReport:
        handle = self.client.submit(matrix, name=name, engine=self.engine)
        try:
            report = handle.stream(on_result=on_result)
        finally:
            handle.close()
        report.meta["service_campaign"] = handle.campaign
        return report

    def reference_digest(self) -> str:
        # The same matrix run serially in this process: no wire, no
        # scheduler, no remote reassembly.
        return digest(run_campaign(self.matrix(), name=NAME,
                                   engine=self.engine))

    def service_counters(self, report: CampaignReport) -> dict:
        cid = report.meta["service_campaign"]
        listing = {
            c["campaign"]: c for c in self.service.campaign_listing()
        }
        steals = self.service.steals
        counters = {
            "dispatched": listing[cid]["dispatched"],
            "requeues": listing[cid]["requeues"],
            "steals": steals - self.steals,
        }
        self.steals = steals
        return counters

    def extra_rss_kb(self) -> int:
        total = 0
        for process in self.processes:
            try:
                status = Path(f"/proc/{process.pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        return total

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is None:
            return
        service.close()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)


WORKLOADS = {
    cls.name: cls
    for cls in (CampaignBatch, StatefulBatch, ReplayClosure, Service2w)
}
