"""Shared lint fixtures."""

import pytest

from repro.lint import default_root, run_lint


@pytest.fixture(scope="session")
def src_findings():
    """The findings on the real ``src/`` tree, linted once per test
    run (every consumer only reads them)."""
    return tuple(run_lint(root=default_root()))
