"""3-engine differential: the batch kernel is semantically invisible.

The batch engine only counts if a block run is indistinguishable from
per-packet execution: for every stdlib(+ext) program, on all three
targets — including Tofino's TCAM quantization and deparse field
budget — ``inject_block`` must produce exactly the verdicts, output
bytes, egress ports, death stages, latencies, stateful-object contents
and device accounting of the per-packet engines, and campaign reports
must stay **byte-identical** across ``tree``/``closure``/``batch``.
"""

import pytest

from repro.exceptions import CompileError
from repro.netdebug.campaign import run_campaign
from repro.netdebug.diffing import baseline_matrix
from repro.netdebug.generator import PacketGenerator, StreamSpec
from repro.netdebug.session import ValidationSession, run_session
from repro.p4.stdlib import PROGRAMS
from repro.sim.traffic import default_flow, malformed_mix
from repro.target.device import NetworkDevice
from repro.target.reference import ReferenceCompiler
from repro.target.sdnet import SDNetCompiler
from repro.target.tofino import TofinoCompiler

from tests.test_target_fastpath_differential import (
    ALL_FACTORIES,
    install_entries,
    run_one,
    workload,
)

COMPILERS = {
    "reference": ReferenceCompiler,
    "sdnet": SDNetCompiler,
    "tofino": TofinoCompiler,
}


def make_device(name, compiler_cls, factory, engine):
    # Same name across engines: reports embed the device name, and the
    # cross-engine identity assertions compare reports wholesale.
    device = NetworkDevice(
        name, compiler_cls(), num_ports=8, engine=engine
    )
    try:
        device.load(factory())
    except CompileError:
        pytest.skip(
            f"{factory.__name__} does not fit {compiler_cls.__name__}"
        )
    install_entries(device)
    return device


def normalize(outcome):
    """Block outcome -> the tuple shape ``run_one`` produces."""
    _timestamp, run = outcome
    if isinstance(run, Exception):
        return ("raised", type(run).__name__, str(run))
    result = run.result
    return (
        result.verdict.value,
        result.metadata.get("egress_spec"),
        result.packet.pack() if result.packet is not None else None,
        run.died_at,
        run.latency_cycles,
    )


def assert_block_matches(per_packet_device, batch_device, frames):
    """One block on ``batch_device`` ≡ frame-by-frame injection."""
    expected = [run_one(per_packet_device, wire) for wire in frames]
    outcomes = batch_device.inject_block(frames, on_error="capture")
    got = [normalize(outcome) for outcome in outcomes]
    for index, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"frame {index}: {g} != {e}"
    assert len(got) == len(expected)
    fast_state = batch_device.pipeline.state
    slow_state = per_packet_device.pipeline.state
    assert fast_state.counters == slow_state.counters
    assert fast_state.registers == slow_state.registers
    assert batch_device.clock_cycles == per_packet_device.clock_cycles
    assert batch_device.stats == per_packet_device.stats


@pytest.mark.parametrize("target", sorted(COMPILERS))
@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_batch_block_matches_closure(name, target):
    """Every program × target: block run ≡ closure engine, exactly."""
    compiler_cls = COMPILERS[target]
    closure = make_device(
        f"bd-{name}-{target}", compiler_cls, ALL_FACTORIES[name], "closure"
    )
    batch = make_device(
        f"bd-{name}-{target}", compiler_cls, ALL_FACTORIES[name], "batch"
    )
    assert_block_matches(closure, batch, workload())


# ---------------------------------------------------------------------------
# Edge cases pinned against the tree-walking oracle
# ---------------------------------------------------------------------------

def test_batch_tofino_deparse_truncation_matches_tree():
    """Tofino's deparse field budget truncates forwarded bytes; the
    batch deparse column must truncate identically (ethernet + ipv4 is
    16 fields against a budget of 14)."""
    tree = make_device(
        "tof-trunc", TofinoCompiler, PROGRAMS["ipv4_router"], "tree"
    )
    batch = make_device(
        "tof-trunc", TofinoCompiler, PROGRAMS["ipv4_router"], "batch"
    )
    frames = workload()
    assert_block_matches(tree, batch, frames)
    # The deviation actually fired: at least one forwarded frame left
    # the device shorter than it entered.
    truncated = [
        normalize(o)
        for o in make_device(
            "tof-trunc2", TofinoCompiler, PROGRAMS["ipv4_router"], "batch"
        ).inject_block(frames, on_error="capture")
    ]
    assert any(
        out[0] == "forwarded" and out[2] is not None
        for out in truncated
    )


def test_batch_header_add_remove_mid_block_matches_tree():
    """``mpls_tunnel`` pushes/pops headers for matched prefixes only,
    so lanes diverge in header layout mid-block; every lane must still
    deparse byte-for-byte like the tree walk."""
    for target in ("reference", "sdnet"):
        tree = make_device(
            f"mpls-{target}", COMPILERS[target], PROGRAMS["mpls_tunnel"],
            "tree",
        )
        batch = make_device(
            f"mpls-{target}", COMPILERS[target], PROGRAMS["mpls_tunnel"],
            "batch",
        )
        assert_block_matches(tree, batch, workload())


def test_batch_interleaved_rejects_match_tree():
    """Parser-rejected frames interleaved with accepted ones must not
    shift the surviving lanes' outcomes, clocks or accounting."""
    frames = [
        packet.pack()
        for packet, _ in malformed_mix(default_flow(), 32, 0.5, seed=77)
    ]
    tree = make_device(
        "rej", ReferenceCompiler, PROGRAMS["strict_parser"], "tree"
    )
    batch = make_device(
        "rej", ReferenceCompiler, PROGRAMS["strict_parser"], "batch"
    )
    assert_block_matches(tree, batch, frames)
    # The mix really interleaved: some lanes rejected, some survived.
    assert 0 < batch.stats.parser_rejected < len(frames)


# ---------------------------------------------------------------------------
# Duplicate-extract bookkeeping elision
# ---------------------------------------------------------------------------

def looping_parser_program():
    """A parser FSM with a self-loop: ether_type 0x9999 re-enters
    ``start``, which re-extracts ethernet — the duplicate-header case
    the ``seen`` guard exists for. Targets reject it statically (parse
    depth), so it only exercises the eligibility analysis itself."""
    from repro.p4.actions import Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const, fld
    from repro.packet.headers import ETHERNET

    b = ProgramBuilder("looping_parser")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(0x9999, "start")],
        default="done",
    )
    b.parser_state("done").accept()
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.call("fwd")
    b.emit("ethernet")
    return b.build()


def duplicate_extract_program():
    """Acyclic FSM whose second state re-extracts ethernet: compiles
    (finite parse depth) but every ether_type-0x9999 parse must raise
    the duplicate-header error — the guard cannot be elided."""
    from repro.p4.actions import Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const, fld
    from repro.packet.headers import ETHERNET

    b = ProgramBuilder("duplicate_extract")
    b.header(ETHERNET)
    b.parser_state("start", extracts=["ethernet"]).select(
        fld("ethernet", "ether_type"),
        [(0x9999, "again")],
        default="done",
    )
    b.parser_state("again", extracts=["ethernet"]).accept()
    b.parser_state("done").accept()
    b.ingress.action("fwd", [], [Forward(Const(1, 9))])
    b.ingress.call("fwd")
    b.emit("ethernet")
    return b.build()


def test_stdlib_parsers_elide_duplicate_bookkeeping():
    """Every stdlib(+ext) parser is acyclic with unique extracts, so the
    generated source must carry no ``seen`` set — the byte-identity
    tests above then pin that the elision is semantically invisible."""
    from repro.target.batch import (
        _compile_block_parser,
        _parser_acyclic_unique_extracts,
    )

    for name in sorted(ALL_FACTORIES):
        program = ALL_FACTORIES[name]()
        assert _parser_acyclic_unique_extracts(program), name
        parse = _compile_block_parser(program, honor_reject=True)
        assert parse is not None, name
        assert "seen" not in parse.__code__.co_varnames, name


def test_cyclic_parser_is_ineligible():
    """A looping FSM must fail the eligibility analysis even though
    targets reject it before a device ever runs it."""
    from repro.target.batch import _parser_acyclic_unique_extracts

    assert not _parser_acyclic_unique_extracts(looping_parser_program())


def test_duplicate_extract_parser_keeps_guard_and_matches_closure():
    """A duplicate-extract parser is ineligible: the generated source
    keeps the guard, and block outcomes — including the
    duplicate-header error on the re-extracting frame — still match
    per-packet execution."""
    from repro.packet.builder import ethernet_frame
    from repro.packet.headers import mac
    from repro.target.batch import (
        _compile_block_parser,
        _parser_acyclic_unique_extracts,
    )

    program = duplicate_extract_program()
    assert not _parser_acyclic_unique_extracts(program)
    parse = _compile_block_parser(program, honor_reject=True)
    assert parse is not None
    assert "seen" in parse.__code__.co_varnames

    frames = [
        ethernet_frame(
            mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x9999,
            payload=b"\x00" * 14,
        ).pack(),
        ethernet_frame(
            mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x0800
        ).pack(),
    ]
    closure = make_device(
        "dup-guard", ReferenceCompiler, duplicate_extract_program,
        "closure",
    )
    batch = make_device(
        "dup-guard", ReferenceCompiler, duplicate_extract_program, "batch"
    )
    assert_block_matches(closure, batch, frames)
    outcome = normalize(
        make_device(
            "dup-guard2", ReferenceCompiler, duplicate_extract_program,
            "batch",
        ).inject_block(frames, on_error="capture")[0]
    )
    assert outcome[0] == "raised" and "duplicate header" in outcome[2]


# ---------------------------------------------------------------------------
# Session- and campaign-level byte identity
# ---------------------------------------------------------------------------

ENGINES = ("tree", "closure", "batch")


def _oracle_session(wrap=False, as_bytes=False, count=12):
    """A malformed-mix oracle session; ``wrap`` carries each packet in
    a fully timed probe, ``as_bytes`` hands the stream wire bytes."""
    packets = [
        packet for packet, _ in malformed_mix(
            default_flow(), count, 0.4, seed=2018
        )
    ]
    return ValidationSession(
        name="engine-diff",
        streams=[
            StreamSpec(
                stream_id=1,
                packets=(
                    [packet.pack() for packet in packets]
                    if as_bytes
                    else packets
                ),
                wrap=wrap,
                timestamps=(
                    list(range(100, 100 * (count + 1), 100))
                    if wrap
                    else None
                ),
            )
        ],
        use_reference_oracle=True,
    )


def _session_report(target, engine, session, lockstep=False):
    """Run ``session`` on a fresh device; ``lockstep`` attaches a no-op
    output tap, which forces the per-packet arm → inject → disarm path
    without changing what the checker sees. Wrapped sessions run on the
    reflector, which forwards probes, so stream and latency accounting
    have packets to count."""
    program = "reflector" if session.streams[0].wrap else "acl_firewall"
    device = make_device(
        f"sess-{target}", COMPILERS[target], PROGRAMS[program], engine,
    )
    if lockstep:
        device.attach_tap("output", lambda snapshot: None)
    return run_session(device, session).to_dict()


def _reports_in_both_modes(target, **session_kwargs):
    """One report per engine × {block, lockstep}; all must be equal."""
    reports = [
        _session_report(
            target, engine, _oracle_session(**session_kwargs), lockstep
        )
        for engine in ENGINES
        for lockstep in (False, True)
    ]
    assert all(report == reports[0] for report in reports)
    return reports[0]


@pytest.mark.parametrize("target", sorted(COMPILERS))
def test_session_reports_identical_across_engines(target):
    """Block mode reproduces the lockstep protocol's SessionReport
    exactly — findings, latencies and stream stats — on every engine."""
    assert _reports_in_both_modes(target)["injected"] == 12


@pytest.mark.parametrize("count", [12, 40])
@pytest.mark.parametrize(
    "wrap,as_bytes",
    [(False, True), (True, False), (True, True)],
    ids=["bare-bytes", "wrapped-packets", "wrapped-bytes"],
)
@pytest.mark.parametrize("target", sorted(COMPILERS))
def test_session_streams_identical_in_both_modes(
    target, wrap, as_bytes, count
):
    """Fully timed wrapped streams, and streams given as wire bytes,
    report identically in block and lockstep mode on every engine;
    bytes entries report exactly as the packets they came from. The
    40-packet streams span several of the session's injected blocks."""
    report = _reports_in_both_modes(
        target, wrap=wrap, as_bytes=as_bytes, count=count
    )
    if as_bytes:
        assert report == _session_report(
            target, "closure", _oracle_session(wrap=wrap, count=count)
        )


def _stream_records(engine, *, timestamps=None, ports=None,
                    force_per_packet=False):
    """run_stream one malformed-mix stream; return records + device."""
    device = make_device(
        "gen-block", COMPILERS["reference"], PROGRAMS["strict_parser"],
        engine,
    )
    packets = [
        packet
        for packet, _ in malformed_mix(default_flow(), 16, 0.5, seed=41)
    ]
    generator = PacketGenerator(device)
    generator.configure(
        StreamSpec(
            stream_id=3, packets=packets, timestamps=timestamps,
            ingress_ports=ports,
        )
    )
    # A no-op per-packet callback disables the block path without
    # changing observable semantics — the forced-fallback control arm.
    hook = (lambda record: None) if force_per_packet else None
    records = generator.run_stream(3, on_injected=hook)
    return records, device


def _normalize_records(records):
    return [
        (
            record.stream_id,
            record.seq_no,
            record.wire,
            record.timestamp,
            normalize((record.timestamp, record.run)),
        )
        for record in records
    ]


@pytest.mark.parametrize(
    "timestamps,ports",
    [
        (None, None),
        (list(range(100, 1700, 100)), None),
        (None, [seq % 4 for seq in range(16)]),
        (list(range(100, 1700, 100)), [seq % 4 for seq in range(16)]),
    ],
    ids=["bare", "timestamps", "ports", "both"],
)
def test_run_stream_block_path_matches_per_packet(timestamps, ports):
    """``run_stream``'s default block path — including streams carrying
    their own arrival process and per-packet ingress ports — is
    byte-identical to the forced per-packet loop, records and device
    accounting alike."""
    blocked, block_device = _stream_records(
        "batch", timestamps=timestamps, ports=ports
    )
    looped, loop_device = _stream_records(
        "batch", timestamps=timestamps, ports=ports, force_per_packet=True
    )
    assert _normalize_records(blocked) == _normalize_records(looped)
    assert block_device.clock_cycles == loop_device.clock_cycles
    assert block_device.stats == loop_device.stats
    assert (
        block_device.pipeline.state.counters
        == loop_device.pipeline.state.counters
    )


def test_run_stream_block_path_matches_across_engines():
    """The same stream yields identical records whichever engine backs
    the device — the block path must not observably differ from the
    per-packet engines it bypasses."""
    normalized = {}
    for engine in ENGINES:
        records, _ = _stream_records(
            engine,
            timestamps=list(range(50, 850, 50)),
            ports=[seq % 3 for seq in range(16)],
        )
        normalized[engine] = _normalize_records(records)
    assert (
        normalized["tree"] == normalized["closure"] == normalized["batch"]
    )


def test_campaign_reports_byte_identical_across_engines():
    """The golden-baseline matrix renders to identical JSON bytes under
    all three engines — cache counters and engine choice must never
    leak into the canonical report."""
    texts = {}
    for engine in ENGINES:
        report = run_campaign(
            baseline_matrix(), name="engine-diff", engine=engine
        )
        texts[engine] = report.to_json()
    assert texts["tree"] == texts["closure"] == texts["batch"]
