"""NetDebug: the programmable validation framework (the paper's system)."""

from .campaign import (
    CampaignProgress,
    CampaignReport,
    PoolExecutor,
    Scenario,
    ScenarioMatrix,
    ScenarioResult,
    SerialExecutor,
    ShardExecutor,
    assemble_report,
    record_campaign,
    replay_campaign,
    run_campaign,
)
from .checker import (
    CheckRule,
    ExpectedOutput,
    ExprCheck,
    LatencyCheck,
    OutputChecker,
    PredicateCheck,
)
from .controller import NetDebugController, StatusSample
from .generator import FieldFuzz, FieldSweep, PacketGenerator, StreamSpec
from .localization import (
    LocalizationResult,
    bisect_fault,
    localize,
    localize_fault,
)
from .report import (
    Capability,
    CheckOutcome,
    Finding,
    LatencyStats,
    SessionReport,
    StreamStats,
)
from .oracle import ORACLES, ReferenceOracle, StatelessOracle
from .regression import RegressionSuite, record_suite, replay_suite
from .session import ValidationSession, reference_expectation, run_session
from .testpacket import PROBE_MAGIC, ProbeInfo, decode_probe, is_probe, make_probe

__all__ = [
    "PacketGenerator",
    "StreamSpec",
    "FieldSweep",
    "FieldFuzz",
    "OutputChecker",
    "CheckRule",
    "ExprCheck",
    "PredicateCheck",
    "LatencyCheck",
    "ExpectedOutput",
    "NetDebugController",
    "StatusSample",
    "ValidationSession",
    "run_session",
    "reference_expectation",
    "ReferenceOracle",
    "StatelessOracle",
    "ORACLES",
    "RegressionSuite",
    "record_suite",
    "replay_suite",
    "LocalizationResult",
    "localize",
    "localize_fault",
    "bisect_fault",
    "SessionReport",
    "CheckOutcome",
    "Finding",
    "StreamStats",
    "LatencyStats",
    "Capability",
    "make_probe",
    "decode_probe",
    "is_probe",
    "ProbeInfo",
    "PROBE_MAGIC",
    "ScenarioMatrix",
    "Scenario",
    "ScenarioResult",
    "CampaignProgress",
    "CampaignReport",
    "ShardExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "assemble_report",
    "run_campaign",
    "record_campaign",
    "replay_campaign",
]

#: Lazily re-exported (PEP 562): the differ and the cluster launcher
#: both double as CLIs (``python -m repro.netdebug.diffing`` /
#: ``... .cluster``), and an eager import here would make runpy warn
#: about the module already being loaded. ``__all__`` is extended from
#: these sets so the listings cannot drift.
_DIFFING_EXPORTS = frozenset(
    {
        "CampaignDiff",
        "ScenarioDelta",
        "CellDelta",
        "MatrixDiff",
        "diff_campaigns",
        "diff_differentials",
        "write_baselines",
    }
)
_CLUSTER_EXPORTS = frozenset(
    {
        "ProgressPrinter",
        "run_cluster_campaign",
    }
)
__all__ += sorted(_DIFFING_EXPORTS) + sorted(_CLUSTER_EXPORTS)


def __getattr__(name: str):
    if name in _DIFFING_EXPORTS:
        from . import diffing

        return getattr(diffing, name)
    if name in _CLUSTER_EXPORTS:
        from . import cluster

        return getattr(cluster, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
