"""The findings model: rule catalogue, one finding, text/JSON output.

A finding is identified for baseline purposes by its *fingerprint*
``(rule, path, message)`` — deliberately excluding the line number, so
grandfathered findings survive unrelated edits above them. Messages
must therefore be stable: they name classes, functions and symbols,
never line numbers or volatile values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

#: rule id -> (one-line description, fix hint). The catalogue is the
#: contract between checkers, docs and tests: every finding's ``rule``
#: must be a key here, and every rule has exactly one known-bad
#: fixture (asserted by ``tests/lint/test_fixtures.py``).
RULES = {
    # -- direct taint flows (repro.lint.paths) -----------------------
    "taint-wire": (
        "query text flows into a wire egress call outside the enclave",
        "seal the payload inside an @ecall before it reaches "
        "send/request/respond (see docs/static-analysis.md#taint)"),
    "taint-print": (
        "query text flows into print()",
        "drop the output or log a salted bucket via "
        "repro.obs.query_hash_bucket"),
    "taint-log": (
        "query text flows into a logging call",
        "log repro.obs.query_hash_bucket(text) instead of the text"),
    "taint-exception": (
        "query text flows into an exception message",
        "raise with a constant message; exception text ends up in "
        "logs and crash reports"),
    "taint-telemetry": (
        "query text flows into a span or metric attribute",
        "attach repro.obs.query_hash_bucket(text), never the text"),
    # -- flows across calls or fields (repro.lint.paths) -------------
    "taint-interprocedural": (
        "query text reaches an adversary-visible sink across function "
        "or module boundaries",
        "follow the witness path; declassify with "
        "repro.obs.query_hash_bucket before the first hop, or seal "
        "inside the enclave (docs/static-analysis.md#pdg)"),
    "taint-field-flow": (
        "query text reaches an adversary-visible sink through an "
        "object field",
        "don't park plaintext on long-lived fields; hash or seal it "
        "at the write (docs/static-analysis.md#pdg)"),
    # -- attribute-key hygiene (repro.lint.taint) --------------------
    "span-forbidden-key": (
        "span/metric attribute uses a key the telemetry audit forbids",
        "pick a key outside repro.obs.sinks.FORBIDDEN_ATTRIBUTE_KEYS "
        "(these mark real/fake legs or carry secrets)"),
    # -- enclave boundary (repro.lint.enclave) -----------------------
    "enclave-trusted-outside-ecall": (
        "enclave-private state touched outside an @ecall gate",
        "move the access into an @ecall method (or a helper only "
        "reachable from ecalls)"),
    "enclave-internal-import": (
        "untrusted module imports an enclave-internal symbol",
        "use the public repro.sgx API; underscore symbols are "
        "trusted-side implementation"),
    # -- determinism (repro.lint.determinism) ------------------------
    "det-wall-clock": (
        "wall-clock read in simulation code",
        "take time from the simulator (or repro.obs.clock); wall "
        "clocks break byte-identical reproduction"),
    "det-system-entropy": (
        "system entropy (os.urandom/SystemRandom) outside repro.crypto",
        "thread a seeded random.Random through, or use "
        "repro.crypto.rng.system_rng() where nondeterminism is the "
        "point"),
    "det-global-random": (
        "module-global random.* call (shared, unseeded stream)",
        "use an explicit random.Random(seed) instance"),
    "det-unseeded-rng": (
        "random.Random() constructed without a seed",
        "pass a seed, or use repro.crypto.rng.system_rng() for "
        "deliberately nondeterministic key material"),
    # -- layering (repro.lint.layering) ------------------------------
    "layer-import-dag": (
        "protected package imports a top-layer package",
        "core/sgx/net/text/... must not depend on "
        "cli/experiments/baselines/perf; invert the dependency"),
    "layer-obs-facade": (
        "observability imported past its facade",
        "import from repro.obs (the facade re-exports the public "
        "surface), not repro.obs.<submodule>"),
    # -- engine ------------------------------------------------------
    "parse-error": (
        "file does not parse",
        "fix the syntax error"),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One static-analysis finding, anchored to ``path:line``.

    Interprocedural findings additionally carry a *witness*: the
    source→sink path as ``(file, line, symbol)`` hops, rendered in
    the text report and the JSON payload. The witness never enters
    the fingerprint — line numbers shift under unrelated edits.
    """

    path: str        # posix path relative to the analysis root
    line: int
    rule: str
    message: str
    hint: str = ""
    witness: Tuple[Tuple[str, int, str], ...] = field(default=())

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line shifts."""
        return (self.rule, self.path, self.message)

    @property
    def stable_id(self) -> str:
        """A short line-free digest of the fingerprint, for machine
        consumers that want the baseline contract in one token."""
        joined = "\x00".join(self.fingerprint).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()[:16]

    def format(self) -> str:
        text = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        hint = self.hint or RULES.get(self.rule, ("", ""))[1]
        if hint:
            text += f"\n    hint: {hint}"
        if self.witness:
            steps = [f"{file}:{line} {symbol}"
                     for file, line, symbol in self.witness]
            text += "\n    witness: " + \
                "\n          -> ".join(steps)
        return text


def make_finding(module, node, rule: str, message: str) -> Finding:
    """Build a finding for an AST *node* of a :class:`SourceModule`."""
    return Finding(path=module.relpath, line=getattr(node, "lineno", 0),
                   rule=rule, message=message)


def format_text(findings: Iterable[Finding]) -> str:
    items = sorted(findings)
    if not items:
        return "repro lint: clean (0 findings)"
    lines = [finding.format() for finding in items]
    lines.append(f"repro lint: {len(items)} finding(s)")
    return "\n".join(lines)


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Machine-readable findings.

    Every entry carries ``fingerprint`` — the line-free baseline
    digest that survives unrelated line shifts — and ``witness``, the
    source→sink hops of interprocedural findings (``[]`` for
    single-function rules).
    """
    payload: List[dict] = [
        {"path": f.path, "line": f.line, "rule": f.rule,
         "message": f.message,
         "hint": f.hint or RULES.get(f.rule, ("", ""))[1],
         "fingerprint": f.stable_id,
         "witness": [{"file": file, "line": line, "symbol": symbol}
                     for file, line, symbol in f.witness]}
        for f in sorted(findings)]
    return json.dumps(payload, indent=2, sort_keys=True)
