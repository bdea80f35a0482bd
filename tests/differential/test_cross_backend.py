"""Headline cross-backend differential tests: the 3-way target matrix.

Every observed divergence from the spec oracle must be exactly explained
by the deviant artifact's declared deviation tags; the reference backend
must never diverge at all; and a backend that *lies* about its
deviations must make the harness fail loudly.
"""

import dataclasses

import pytest

from repro.netdebug.campaign import TARGETS
from repro.netdebug.differential import (
    DifferentialCase,
    DifferentialRunner,
    diagnose_report,
    tag_model,
)
from repro.p4.interpreter import SPEC_MODEL
from repro.p4.stdlib import PROGRAMS
from repro.target.sdnet import REJECT_NOT_IMPLEMENTED, SDNetCompiler
from repro.target.device import NetworkDevice
from repro.target.tofino import (
    DEPARSE_FIELD_BUDGET_EXCEEDED,
    TCAM_QUANTIZED,
)

from tests.differential.harness import (
    assert_consistent,
    default_cases,
    provision_range_gate,
    range_gate,
    run_harness,
)


@pytest.fixture(scope="module")
def report():
    return run_harness(count=48, seed=11)


class TestThreeWayMatrix:
    def test_harness_consistent_on_two_distinct_seeds(self):
        # The acceptance contract: the harness passes (all divergences
        # explained) for two different seeds, not just a lucky one.
        for seed in (11, 2018):
            assert_consistent(run_harness(count=48, seed=seed))

    def test_reference_is_spec_identical_everywhere(self, report):
        for cell in report.cells:
            if cell.target == "reference":
                assert not cell.diffs
                assert not cell.deviation_tags
                assert not cell.compile_rejected

    def test_sdnet_deviates_only_via_reject(self, report):
        for program in ("strict_parser", "ipv4_router"):
            cell = report.cell(program, "sdnet")
            assert cell.diffs
            assert cell.diffs_by_tag() == {
                REJECT_NOT_IMPLEMENTED: len(cell.diffs)
            }
        assert not report.cell("l2_switch", "sdnet").diffs
        assert not report.cell("acl_firewall", "sdnet").diffs

    def test_tofino_deviates_via_deparse_and_tcam(self, report):
        truncated = report.cell("strict_parser", "tofino")
        assert truncated.diffs
        assert set(truncated.diffs_by_tag()) == {
            DEPARSE_FIELD_BUDGET_EXCEEDED
        }
        quantized = report.cell("acl_firewall", "tofino")
        assert quantized.diffs
        assert TCAM_QUANTIZED in quantized.diffs_by_tag()

    def test_range_quantization_witnessed(self, report):
        cell = report.cell("range_gate", "tofino")
        tcam_diffs = [
            diff for diff in cell.diffs
            if diff.explained_by == (TCAM_QUANTIZED,)
        ]
        # Ports 5000/5007 sit inside the quantized [5000, 5007] block
        # but outside the installed [5001, 5006] range: the spec drops
        # them, the quantizing TCAM admits them.
        assert tcam_diffs
        for diff in tcam_diffs:
            assert diff.spec.verdict == "dropped"
            assert diff.observed.verdict == "forwarded"

    def test_sdnet_rejects_range_program_loudly(self, report):
        cell = report.cell("range_gate", "sdnet")
        assert cell.compile_rejected
        assert "range" in cell.compile_rejected
        assert not cell.diffs  # a loud rejection is not a divergence

    def test_l2_switch_is_the_agreement_control(self, report):
        for target in ("reference", "sdnet", "tofino"):
            assert not report.cell("l2_switch", target).diffs

    def test_diagnosis_names_backend_stage_and_tag(self, report):
        lines = "\n".join(diagnose_report(report))
        assert "strict_parser on sdnet" in lines
        assert "stage 'parser'" in lines
        assert "stage 'deparser'" in lines
        assert "stage 'ingress'" in lines
        assert TCAM_QUANTIZED in lines

    def test_report_is_seed_deterministic(self, report):
        again = run_harness(count=48, seed=11)
        assert report.to_json() == again.to_json()


class TestHarnessCatchesLiars:
    def test_undeclared_deviation_fails_the_harness(self):
        """A backend whose ``deviations()`` hides its reject bug must
        produce *unexplained* diffs — the harness's whole point."""

        class LyingCompiler(SDNetCompiler):
            def deviations(self, program):
                return []  # the lie: datapath still skips reject

        TARGETS["liar"] = lambda name="liar0": NetworkDevice(
            name, LyingCompiler(), num_ports=4
        )
        try:
            report = DifferentialRunner(
                cases=[DifferentialCase("strict_parser")],
                targets=("liar",),
                count=32,
                seed=5,
            ).run()
            cell = report.cell("strict_parser", "liar")
            assert cell.diffs and not cell.consistent
            assert cell.unexplained == cell.diffs
            with pytest.raises(AssertionError, match="UNEXPLAINED"):
                assert_consistent(report)
        finally:
            del TARGETS["liar"]


class TestHarnessPieces:
    def test_default_cases_cover_every_known_tag(self):
        tags_witnessed = set()
        report = run_harness(count=32, seed=0)
        for cell in report.cells:
            tags_witnessed.update(cell.diffs_by_tag())
        assert tags_witnessed == {
            REJECT_NOT_IMPLEMENTED,
            TCAM_QUANTIZED,
            DEPARSE_FIELD_BUDGET_EXCEEDED,
        }

    def test_each_declared_tag_maps_onto_the_artifact_model(self):
        # tag_model's tag -> field table is the only link between a
        # declared tag and the compiler's model: each tag must switch
        # on exactly one spec field, to the artifact's own value.
        tags_seen = set()
        for program in sorted(PROGRAMS):
            for target in sorted(TARGETS):
                device = TARGETS[target](f"tags-{target}-{program}")
                compiled = device.load(PROGRAMS[program]())
                for tag in compiled.silent_deviations:
                    model = tag_model(compiled, tag)
                    changed = [
                        f.name
                        for f in dataclasses.fields(model)
                        if getattr(model, f.name)
                        != getattr(SPEC_MODEL, f.name)
                    ]
                    assert len(changed) == 1, (program, target, tag)
                    field = changed[0]
                    assert getattr(model, field) == getattr(
                        compiled.model, field
                    ), (program, target, tag)
                    tags_seen.add(tag)
        assert tags_seen == {
            REJECT_NOT_IMPLEMENTED,
            TCAM_QUANTIZED,
            DEPARSE_FIELD_BUDGET_EXCEEDED,
        }

    def test_range_gate_program_builds_and_gates(self):
        from repro.target.reference import make_reference_device
        from repro.packet.builder import udp_packet

        device = make_reference_device("gate-ref")
        device.load(range_gate())
        provision_range_gate(device)
        inside = udp_packet(0x0A010001, 0x0A000001, 5003, 4000).pack()
        outside = udp_packet(0x0A010001, 0x0A000001, 5007, 4000).pack()
        assert device.inject(inside).result.verdict.value == "forwarded"
        assert device.inject(outside).result.verdict.value == "dropped"

    def test_case_names(self):
        names = [case.name for case in default_cases()]
        assert names == [
            "strict_parser",
            "l2_switch",
            "ipv4_router",
            "acl_firewall",
            "range_gate",
            "stateful_firewall",
        ]
