"""Import-DAG enforcement: protected layers and the obs facade.

Two rules keep the dependency structure a DAG the architecture docs
can rely on:

- ``layer-import-dag`` — the *protected* packages (the simulation
  substrate and protocol layers: ``core``, ``sgx``, ``net``, ``text``,
  ``crypto``, ``gossip``, ``datasets``, ``searchengine``, ``obs``)
  must never import the *top-layer* packages that drive them
  (``cli``, ``experiments``, ``baselines``, ``perf``). Function-local
  imports count: a lazy import is still a dependency edge.
- ``layer-obs-facade`` — outside :mod:`repro.obs` itself,
  observability is imported only through its facade (``from repro
  import obs`` / ``from repro.obs import ...``), never
  ``repro.obs.<submodule>``. The facade re-exports the public
  surface; reaching past it couples call sites to obs-internal module
  layout and bypasses the place where the public API is curated.

``metrics`` and ``attacks`` are measurement layers *over* the
baselines and are deliberately unprotected.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import SourceModule
from repro.lint.findings import Finding, make_finding

#: Packages forming the protected substrate (may not import upward).
PROTECTED_PACKAGES = frozenset({
    "core", "sgx", "net", "text", "crypto", "gossip", "datasets",
    "searchengine", "obs",
})

#: Top-layer packages/modules no protected package may depend on.
TOP_LAYER = frozenset({"cli", "experiments", "baselines", "perf",
                       "faults", "__main__"})

_OBS_FACADE = "repro.obs"


def _imported_modules(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module] if node.module and node.level == 0 else []
    return []


def _top_package(dotted: str) -> str:
    parts = dotted.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return ""
    return parts[1]


def check_layering(module: SourceModule) -> List[Finding]:
    out: List[Finding] = []
    source_package = module.package
    inside_obs = module.module.startswith(_OBS_FACADE)

    for node in module.nodes:
        for target in _imported_modules(node):
            target_package = _top_package(target)

            if (source_package in PROTECTED_PACKAGES
                    and target_package in TOP_LAYER):
                out.append(make_finding(
                    module, node, "layer-import-dag",
                    f"protected package repro.{source_package} imports "
                    f"repro.{target_package}"))

            if (not inside_obs and target.startswith(_OBS_FACADE + ".")):
                out.append(make_finding(
                    module, node, "layer-obs-facade",
                    f"imports {target} past the repro.obs facade"))
    return out
