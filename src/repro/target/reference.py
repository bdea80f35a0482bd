"""The spec-faithful reference target.

The reference compiler honors every P4₁₆ semantic the interpreter
defines — including the parser ``reject`` state — under generous
published limits. Devices built from it are the "known-good hardware"
against which deviant backends (:mod:`repro.target.sdnet`) are
differentially tested.
"""

from __future__ import annotations

from .compiler import TargetCompiler
from .device import NetworkDevice
from .limits import REFERENCE_LIMITS

__all__ = ["ReferenceCompiler", "make_reference_device"]


class ReferenceCompiler(TargetCompiler):
    """Compiles with reference semantics: ``reject`` fully implemented."""

    honor_reject = True

    def __init__(self) -> None:
        super().__init__(REFERENCE_LIMITS)


def make_reference_device(
    name: str = "reference0",
    num_ports: int = 8,
    engine: str = "closure",
) -> NetworkDevice:
    """A reference device: 8 traffic ports, spec-faithful pipeline.

    ``engine`` selects the execution engine (``"tree"``, ``"closure"``,
    ``"batch"``); ``"tree"`` is the slow tree-walking baseline the fast
    paths are benchmarked against.
    """
    return NetworkDevice(
        name,
        ReferenceCompiler(),
        num_ports=num_ports,
        engine=engine,
    )
