"""Query-text taint: the shared source, sink and sanitizer tables.

DoubleX (Fass et al., CCS 2021) showed that browser-extension privacy
properties — "sensitive data never reaches an attacker-visible API" —
are a natural fit for static data-flow analysis. ``repro lint``
applies the same shape to CYCLOSA's central invariant: **plaintext
query text must never become wire-visible or log-visible outside the
enclave.** The analysis itself is the whole-program PDG pass
(:mod:`repro.lint.pdg` builds, :mod:`repro.lint.linking` links,
:mod:`repro.lint.paths` queries); this module holds the tables it
reads:

Sources
    ``.text`` / ``.query`` / ``.query_text`` attribute reads (the
    repository-wide convention for query text: ``QueryRecord.text``,
    ``ProtectedSearch.query``, engine-log entries) and parameters
    named ``query``/``query_text``/``queries``/``real_query`` (the
    CLI's argv query lands here).

Sinks (from the shared registry :mod:`repro.obs.sinks` — the same
list the runtime audit taps)
    wire egress calls, ``print``/logging, exception messages raised,
    span/metric attributes.

Sanitizers / sanctioned scopes
    - ``repro.sgx.*`` and ``repro.core.enclave`` — the trusted code
      units; inside the enclave, query plaintext is the working
      material and egress is sealed by construction (the enclave
      checker separately enforces the gate discipline).
    - ``repro.searchengine``, ``repro.attacks``, ``repro.metrics``,
      ``repro.baselines`` — adversary/engine/measurement models whose
      *subject matter* is plaintext observation (the engine
      legitimately sees query text after in-enclave TLS terminates;
      SimAttack's whole job is reading observations).
    - Any *call* boundary the linker cannot resolve: calls do not
      propagate taint unless they are known string operations.
      Hashing — in particular the salted
      :func:`repro.obs.query_hash_bucket` — therefore sanitizes, as
      does ``len()``/counting.

It also holds the one taint-adjacent per-module checker,
:func:`check_span_keys` (``span-forbidden-key``), which needs no data
flow: it rejects forbidden span/metric attribute keys written as
literals. See ``docs/static-analysis.md`` for the full contract.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import SourceModule
from repro.lint.findings import Finding, make_finding
from repro.obs import sinks

#: Attribute names read as query text anywhere in the tree.
SOURCE_ATTRS = frozenset({"text", "query", "query_text"})

#: Parameter names treated as tainted on function entry.
SOURCE_PARAMS = frozenset({"query", "query_text", "queries", "real_query"})

#: Modules where query plaintext is the trusted working material.
TRUSTED_MODULES = ("repro.sgx", "repro.core.enclave")

#: Packages that model the adversary / engine / unprotected baselines:
#: plaintext observation is their subject matter, not a leak.
ADVERSARY_PACKAGES = frozenset({
    "searchengine", "attacks", "metrics", "baselines",
})

#: String operations through which taint survives a call.
_STR_METHODS = frozenset({
    "format", "join", "lower", "upper", "strip", "lstrip", "rstrip",
    "title", "capitalize", "casefold", "swapcase", "replace", "encode",
    "ljust", "rjust", "center", "zfill", "expandtabs", "split",
    "rsplit", "splitlines", "partition", "rpartition", "removeprefix",
    "removesuffix",
})
_STR_FUNCS = frozenset({"str", "repr", "format", "ascii"})


def _taint_exempt(module: SourceModule) -> bool:
    if module.module.startswith(TRUSTED_MODULES):
        return True
    return module.package in ADVERSARY_PACKAGES


def _is_logger_call(func: ast.Attribute) -> bool:
    return (func.attr in sinks.LOG_METHOD_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in sinks.LOG_RECEIVER_NAMES)


# -- attribute-key hygiene -------------------------------------------------


def check_span_keys(module: SourceModule) -> List[Finding]:
    """``span-forbidden-key``: a span/metric attribute call that writes
    a forbidden key literally.

    Runs in every module, exempt ones included: telemetry hygiene is a
    property of our own observability subsystem, whichever package
    emits the span.
    """
    out: List[Finding] = []
    for node in module.nodes:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr in sinks.METRIC_FACTORY_CALLS:
            keys: List[object] = [kw.arg for kw in node.keywords]
            what = "label"
        else:
            if attr == "set_attribute":
                literals = node.args[:1]
            elif attr == "set_attributes":
                literals = [key for arg in node.args
                            if isinstance(arg, ast.Dict)
                            for key in arg.keys]
            elif attr in sinks.SPAN_FACTORY_CALLS:
                literals = [key for kw in node.keywords
                            if kw.arg == "attributes"
                            and isinstance(kw.value, ast.Dict)
                            for key in kw.value.keys]
            else:
                continue
            keys = [key.value for key in literals
                    if isinstance(key, ast.Constant)]
            what = "attribute key"
        for key in keys:
            if isinstance(key, str) and key in sinks.FORBIDDEN_ATTRIBUTE_KEYS:
                out.append(make_finding(
                    module, node, "span-forbidden-key",
                    f"{attr}() uses forbidden {what} {key!r}"))
    return out
