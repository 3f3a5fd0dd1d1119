"""The analysis driver: collect modules, parse once, run the checkers.

The unit of analysis is a :class:`SourceModule`: one parsed file plus
its dotted module name, derived from its path relative to the analysis
*root* (the directory containing the top-level ``repro`` package —
``<repo>/src`` for the real tree, a fixture directory in tests).
:func:`run_lint` parses each file exactly once and hands the tree to
two passes, then filters ``# lint: allow(...)`` pragma'd lines:

- the *per-module* checkers, pure functions
  ``SourceModule -> Iterable[Finding]`` (span-key hygiene, enclave
  boundary, determinism, layering);
- the *whole-program* taint analysis: a program-dependence graph per
  module (:mod:`repro.lint.pdg`), linked through the import table
  (:mod:`repro.lint.linking`) and queried for source→sink paths
  (:mod:`repro.lint.paths`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.baseline import pragma_allows, scan_pragmas
from repro.lint.findings import Finding


@dataclass
class SourceModule:
    """One parsed source file under analysis."""

    path: Path           # absolute location on disk
    relpath: str         # posix path relative to the analysis root
    module: str          # dotted module name ("repro.core.node")
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    error: Optional[str] = None  # why the file failed to parse

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once
        and shared by the checkers."""
        return list(ast.walk(self.tree))

    @property
    def package(self) -> str:
        """The top-level sub-package ("core" for repro.core.node)."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else ""


def default_root() -> Path:
    """The analysis root of the installed tree: the directory holding
    the ``repro`` package (``<repo>/src`` in a source checkout)."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def _module_name(relpath: Path) -> str:
    parts = list(relpath.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def collect_modules(root: Path,
                    paths: Optional[Sequence[Path]] = None
                    ) -> List[SourceModule]:
    """Parse every ``*.py`` under *root* (or just *paths*).

    Files that fail to parse yield a module with an empty tree and an
    ``error``; :func:`run_lint` reports those as ``parse-error``
    findings rather than aborting the run.
    """
    root = Path(root).resolve()
    if paths:
        files = []
        for path in (Path(p).resolve() for p in paths):
            files.extend(sorted(path.rglob("*.py"))
                         if path.is_dir() else [path])
        files.sort()
    else:
        files = sorted(root.rglob("*.py"))
    modules: List[SourceModule] = []
    for file in files:
        if "__pycache__" in file.parts:
            continue
        relpath = file.relative_to(root)
        source = file.read_text(encoding="utf-8")
        error = None
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            tree = ast.Module(body=[], type_ignores=[])
            error = f"{exc.msg} (line {exc.lineno})"
        modules.append(SourceModule(
            path=file, relpath=relpath.as_posix(),
            module=_module_name(relpath), tree=tree,
            lines=source.splitlines(), error=error))
    return modules


def _checkers() -> List[Callable[[SourceModule], Iterable[Finding]]]:
    from repro.lint.determinism import check_determinism
    from repro.lint.enclave import check_enclave_boundary
    from repro.lint.layering import check_layering
    from repro.lint.taint import check_span_keys

    return [check_span_keys, check_enclave_boundary, check_determinism,
            check_layering]


def run_lint(root: Path,
             paths: Optional[Sequence[Path]] = None) -> List[Finding]:
    """Lint *root* (or just *paths* under it); returns the sorted,
    pragma-filtered findings of the per-module checkers and of the
    whole-program taint analysis.

    Baseline application is the caller's concern (the CLI and the CI
    gate both want to report grandfathered counts differently).
    """
    from repro.lint.linking import link_program
    from repro.lint.paths import query_paths
    from repro.lint.pdg import build_module_pdg

    checkers = _checkers()
    findings: List[Finding] = []
    pragma_tables: Dict[str, Dict[int, Set[str]]] = {}
    pdgs = []
    for module in collect_modules(root, paths=paths):
        if module.error is not None:
            findings.append(Finding(path=module.relpath, line=0,
                                    rule="parse-error",
                                    message=module.error))
            continue
        pragma_tables[module.relpath] = scan_pragmas(module.lines)
        for checker in checkers:
            findings.extend(checker(module))
        pdgs.append(build_module_pdg(module))
    findings.extend(query_paths(link_program(pdgs)))
    return sorted({finding for finding in findings
                   if not pragma_allows(pragma_tables.get(finding.path, {}),
                                        finding)})
