"""Every known-bad fixture triggers exactly its expected rule.

The fixture tree under ``tests/lint/fixtures/src`` mirrors the real
layout (``repro/core/...``), so package-sensitive rules (layering,
taint exemptions) behave exactly as they do on the real tree. The
fixtures also pin the rule catalogue: one fixture per rule.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, run_lint

pytestmark = pytest.mark.lint

FIXTURE_ROOT = Path(__file__).resolve().parent / "fixtures" / "src"

#: fixture file -> the one rule it must trigger.
EXPECTED = {
    "bad_wire.py": "taint-wire",
    "bad_print.py": "taint-print",
    "bad_log.py": "taint-log",
    "bad_exception.py": "taint-exception",
    "bad_span_key.py": "span-forbidden-key",
    "bad_span_taint.py": "taint-telemetry",
    "bad_trusted.py": "enclave-trusted-outside-ecall",
    "bad_internal_import.py": "enclave-internal-import",
    "bad_clock.py": "det-wall-clock",
    "bad_entropy.py": "det-system-entropy",
    "bad_random.py": "det-global-random",
    "bad_unseeded.py": "det-unseeded-rng",
    "bad_layering.py": "layer-import-dag",
    "bad_obs_import.py": "layer-obs-facade",
    "bad_parse.py": "parse-error",
    "bad_interproc.py": "taint-interprocedural",
    "bad_field_flow.py": "taint-field-flow",
}


def _lint_one(name):
    path = FIXTURE_ROOT / "repro" / "core" / name
    assert path.exists(), f"fixture missing: {path}"
    return run_lint(root=FIXTURE_ROOT, paths=[path])


@pytest.mark.parametrize("name,rule", sorted(EXPECTED.items()))
def test_fixture_triggers_exactly_its_rule(name, rule):
    findings = _lint_one(name)
    assert len(findings) == 1, \
        f"{name}: expected exactly one finding, got {findings}"
    assert findings[0].rule == rule
    assert findings[0].path == f"repro/core/{name}"


def test_clean_fixture_is_clean():
    assert _lint_one("clean.py") == []


def test_whole_fixture_tree():
    findings = run_lint(root=FIXTURE_ROOT)
    by_path = {f.path: f.rule for f in findings}
    assert by_path == {
        f"repro/core/{name}": rule for name, rule in EXPECTED.items()}


# -- the rule catalogue ----------------------------------------------

def test_every_rule_has_exactly_one_fixture():
    assert set(EXPECTED.values()) == set(RULES)
    assert len(EXPECTED) == len(RULES)


def test_fixture_findings_carry_catalogued_rules():
    assert {f.rule for f in run_lint(root=FIXTURE_ROOT)} <= set(RULES)


def test_src_findings_carry_catalogued_rules(src_findings):
    assert {f.rule for f in src_findings} <= set(RULES)


def test_finding_lines_point_at_the_offence():
    findings = _lint_one("bad_print.py")
    # the print() sits on line 5 of the fixture
    assert findings[0].line == 5


def test_trusted_closure_spares_the_gated_method():
    findings = _lint_one("bad_trusted.py")
    assert "DemoEnclave.peek" in findings[0].message
    assert "seal" not in findings[0].message


# -- the PDG fixtures: flows across calls and fields ------------------

def test_interproc_witness_names_every_hop():
    finding = _lint_one("bad_interproc.py")[0]
    assert finding.rule == "taint-interprocedural"
    assert finding.line == 11          # anchored at the print() sink
    assert "handle -> forward" in finding.message
    hops = [(line, symbol) for _file, line, symbol in finding.witness]
    assert hops == [
        (14, "parameter 'query' of handle"),   # the source
        (15, "forward(message)"),              # the call boundary
        (11, "print()"),                       # the sink
    ]
    assert all(file == "repro/core/bad_interproc.py"
               for file, _line, _symbol in finding.witness)


def test_field_flow_witness_names_the_field_write():
    finding = _lint_one("bad_field_flow.py")[0]
    assert finding.rule == "taint-field-flow"
    assert "through field Holder._q" in finding.message
    symbols = [symbol for _file, _line, symbol in finding.witness]
    assert symbols == ["parameter 'query' of Holder.__init__",
                       "Holder._q =", "print()"]
