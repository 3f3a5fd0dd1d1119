"""The ``repro lint`` subcommand and the lint gate: the real ``src/``
tree must be clean against the reviewed baseline, with no stale
entries, and a seeded taint flow must fail unless baselined."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import load_baseline, run_lint

pytestmark = pytest.mark.lint

FIXTURE_ROOT = Path(__file__).resolve().parent / "fixtures" / "src"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


# -- the gate: our own tree obeys our own rules ----------------------------

def test_src_tree_is_clean_against_the_baseline(src_findings):
    baseline = load_baseline(REPO_ROOT / "lint-baseline.txt")
    fresh, _grandfathered = baseline.apply(src_findings)
    assert fresh == [], "non-baselined lint findings in src/:\n" + \
        "\n".join(f.format() for f in fresh)


def test_baseline_has_no_stale_entries(src_findings):
    baseline = load_baseline(REPO_ROOT / "lint-baseline.txt")
    assert baseline.stale_entries(src_findings) == set()


def test_every_baseline_entry_is_justified():
    lines = (REPO_ROOT / "lint-baseline.txt").read_text().splitlines()
    previous_comment = False
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("#"):
            previous_comment = True
            assert "JUSTIFY: <why" not in stripped, \
                "placeholder justification left in the baseline"
        elif stripped:
            assert previous_comment, \
                f"baseline entry without a justification comment: {line!r}"
        else:
            previous_comment = False


# -- the CLI ---------------------------------------------------------------

def test_cli_lint_fails_on_the_fixture_tree(capsys):
    exit_code = cli_main(["lint", "--root", str(FIXTURE_ROOT)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "[taint-wire]" in out
    assert "hint:" in out


def test_cli_lint_json_output(capsys):
    exit_code = cli_main(["lint", "--root", str(FIXTURE_ROOT),
                          "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert {entry["rule"] for entry in payload} >= {
        "taint-wire", "det-wall-clock", "layer-import-dag"}


def test_cli_lint_single_path(capsys):
    target = FIXTURE_ROOT / "repro" / "core" / "bad_clock.py"
    exit_code = cli_main(["lint", "--root", str(FIXTURE_ROOT),
                          str(target)])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "[det-wall-clock]" in out
    assert "[taint-wire]" not in out


def test_cli_lint_baseline_suppresses(tmp_path, capsys):
    baseline = tmp_path / "base.txt"
    cli_main(["lint", "--root", str(FIXTURE_ROOT),
              "--write-baseline", "--baseline", str(baseline)])
    capsys.readouterr()
    exit_code = cli_main(["lint", "--root", str(FIXTURE_ROOT),
                          "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "clean" in out
    assert "suppressed" in out


def test_cli_lint_missing_path_exits_2(capsys):
    missing = REPO_ROOT / "src" / "repro" / "core" / "missing.py"
    assert cli_main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert str(missing) in captured.err


def test_cli_lint_path_outside_the_root_exits_2(tmp_path, capsys):
    outside = tmp_path / "x.py"
    outside.write_text("x = 1\n")
    assert cli_main(["lint", "--root", str(FIXTURE_ROOT),
                     str(outside)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert str(outside) in captured.err


def test_cli_lint_missing_root_exits_2(tmp_path, capsys):
    assert cli_main(["lint", "--root", str(tmp_path / "nope")]) == 2
    assert "nope" in capsys.readouterr().err


def test_cli_lint_missing_baseline_errors(tmp_path, capsys):
    exit_code = cli_main(["lint", "--root", str(FIXTURE_ROOT),
                          "--baseline", str(tmp_path / "nope.txt")])
    capsys.readouterr()
    assert exit_code == 2


# -- the gate on a seeded violation ----------------------------------------

def test_gate_fails_on_a_seeded_violation(tmp_path, capsys):
    bad_tree = tmp_path / "src" / "repro" / "core"
    bad_tree.mkdir(parents=True)
    bad_tree.joinpath("leak.py").write_text(
        "def route(network, dst, query):\n"
        "    network.send(dst, query)\n")
    exit_code = cli_main(["lint", "--root", str(tmp_path / "src")])
    assert exit_code == 1
    assert "[taint-wire]" in capsys.readouterr().out


def test_gate_baseline_silences_the_seeded_violation(tmp_path, capsys):
    bad_tree = tmp_path / "src" / "repro" / "core"
    bad_tree.mkdir(parents=True)
    bad_tree.joinpath("leak.py").write_text(
        "def route(network, dst, query):\n"
        "    network.send(dst, query)\n")
    baseline = tmp_path / "base.txt"
    baseline.write_text(
        "# JUSTIFY: seeded fixture for the gate test\n"
        "taint-wire\trepro/core/leak.py\t"
        "query text flows into wire egress .send()\n")
    exit_code = cli_main(["lint", "--root", str(tmp_path / "src"),
                          "--baseline", str(baseline)])
    capsys.readouterr()
    assert exit_code == 0


def test_pragma_silences_the_seeded_violation(tmp_path):
    bad_tree = tmp_path / "src" / "repro" / "core"
    bad_tree.mkdir(parents=True)
    bad_tree.joinpath("leak.py").write_text(
        "def route(network, dst, query):\n"
        "    network.send(dst, query)"
        "  # lint: allow(taint-wire) -- test fixture\n")
    assert run_lint(root=tmp_path / "src") == []
