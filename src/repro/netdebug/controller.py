"""The host-side software tool.

Figure 1's third component: a program running on a host computer that
talks to the in-device generator and checker over a *dedicated interface*
(the device's management channel, not its traffic ports). It configures
test packet generation, collects results, reads internal status, and
exposes the higher-level operations the use cases build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import NetDebugError
from ..target.device import NetworkDevice
from .localization import LocalizationResult, localize
from .report import Finding, SessionReport
from .session import ValidationSession, run_session

__all__ = ["StatusSample", "NetDebugController"]


@dataclass
class StatusSample:
    """One status-monitoring poll."""

    clock_cycles: int
    status: dict = field(default_factory=dict)


class NetDebugController:
    """Drives NetDebug on one device.

    The controller holds no traffic-port access at all: everything goes
    through the management interface, which is what lets NetDebug keep
    working when the device has stopped emitting packets entirely.
    """

    def __init__(self, device: NetworkDevice):
        self.device = device
        self.reports: list[SessionReport] = []
        self.status_log: list[StatusSample] = []

    # ------------------------------------------------------------------
    # Validation sessions
    # ------------------------------------------------------------------
    def run(self, session: ValidationSession) -> SessionReport:
        """Execute a validation session and archive its report."""
        report = run_session(self.device, session)
        self.reports.append(report)
        return report

    def archive_campaign(self, campaign_report) -> int:
        """Fold a campaign's per-scenario session reports into this
        controller's archive, so campaign results flow through the same
        :meth:`save_reports` / :meth:`all_findings` regression workflow
        as single sessions. Returns the number of reports archived.
        """
        results = getattr(campaign_report, "results", None)
        if results is None:
            raise NetDebugError(
                "archive_campaign expects a CampaignReport"
            )
        for result in sorted(results, key=lambda r: r.scenario.index):
            self.reports.append(result.report)
        return len(results)

    def stream_archiver(self):
        """An ``on_result`` hook that archives campaign reports live.

        Pass the returned callable to :func:`run_campaign`,
        :func:`repro.netdebug.cluster.run_cluster_campaign` or a
        service ``CampaignHandle.stream`` to fold session reports into
        this controller's archive *as shards complete* — in arrival
        order, which on a pool or the service is not scenario order. For a
        deterministically ordered archive, call
        :meth:`archive_campaign` on the final report instead.
        """

        def archive(scenario_key, report, progress):
            self.reports.append(report)

        return archive

    # ------------------------------------------------------------------
    # Status monitoring (periodic internal status information)
    # ------------------------------------------------------------------
    def poll_status(self) -> StatusSample:
        """Take one internal status snapshot over the dedicated interface."""
        sample = StatusSample(
            clock_cycles=self.device.clock_cycles,
            status=self.device.status(),
        )
        self.status_log.append(sample)
        return sample

    def monitor(self, sim, period_ns: float, duration_ns: float) -> int:
        """Schedule periodic status polls on a simulator.

        Returns the number of polls scheduled. Samples accumulate in
        :attr:`status_log` as the simulation runs.
        """
        if period_ns <= 0:
            raise NetDebugError("monitor period must be positive")
        count = int(duration_ns // period_ns)
        for index in range(1, count + 1):
            sim.schedule(index * period_ns, self.poll_status)
        return count

    # ------------------------------------------------------------------
    # Resource quantification
    # ------------------------------------------------------------------
    def read_resources(self) -> dict:
        """Resource usage and utilization of the loaded program."""
        compiled = self.device.compiled
        return {
            "program": compiled.program.name,
            "target": compiled.target_name,
            "luts": compiled.resources.luts,
            "flipflops": compiled.resources.flipflops,
            "bram_blocks": compiled.resources.bram_blocks,
            "dsp_slices": compiled.resources.dsp_slices,
            "utilization": dict(compiled.utilization),
        }

    # ------------------------------------------------------------------
    # Fault localization
    # ------------------------------------------------------------------
    def localize_fault(
        self, wire: bytes, ingress_port: int = 0
    ) -> LocalizationResult:
        """Find the pipeline stage where ``wire`` dies or is corrupted."""
        return localize(self.device, wire, ingress_port)

    # ------------------------------------------------------------------
    # Report archival (regression workflows)
    # ------------------------------------------------------------------
    def save_reports(self, path) -> int:
        """Dump every archived session report to ``path`` as JSON.

        Returns the number of reports written. The file is the unit a
        regression workflow diffs across firmware or program versions.
        """
        import json
        from pathlib import Path

        payload = {
            "device": self.device.name,
            "target": self.device.limits.name,
            "reports": [report.to_dict() for report in self.reports],
        }
        Path(path).write_text(json.dumps(payload, indent=2))
        return len(self.reports)

    @staticmethod
    def load_reports(path) -> list[dict]:
        """Read back reports saved by :meth:`save_reports` (as dicts)."""
        import json
        from pathlib import Path

        return json.loads(Path(path).read_text())["reports"]

    # ------------------------------------------------------------------
    # Convenience findings view
    # ------------------------------------------------------------------
    def all_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for report in self.reports:
            findings.extend(report.findings)
        return findings
