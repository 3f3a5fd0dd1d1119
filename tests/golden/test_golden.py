"""Tier-1 gate: every seeded artefact still hashes to its committed
digest (see :mod:`tests.golden` for what each artefact runs)."""

import pytest

from tests.golden import ARTEFACTS, digest, load

RECORDED = load()


@pytest.mark.parametrize("name", list(ARTEFACTS))
def test_artefact_digest_unchanged(name):
    assert digest(name) == RECORDED.get(name), (
        f"golden artefact {name!r} drifted from its recorded digest; "
        f"if the change is intended, re-baseline with "
        f"`python -m tests.golden --update` and give the reason in "
        f"CHANGES.md")
