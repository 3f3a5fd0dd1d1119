"""Whole-program linking: per-module PDGs → one dependence graph.

:func:`~repro.lint.engine.run_lint` collects every
:class:`~repro.lint.pdg.ModulePDG` and resolves each recorded call
site against the program-wide symbol table:

- ``("local", qual)`` — nested functions and assigned lambdas, bound
  at build time;
- ``("name", n)`` — module-level functions/classes of the caller's
  own module, then the import table, following re-export chains
  (``from repro.core.x import f`` in an ``__init__`` that a third
  module imports from) to a bounded depth;
- ``("self", m)`` — methods of the enclosing class;
- ``("dotted", a, b, ..., f)`` — ``mod.sub.f(...)`` via the import
  table plus the program's module namespace.

A resolved call contributes **parameter edges** (caller-argument
labels → callee parameter nodes; ``*args``/``**kwargs`` labels
over-approximate to *every* parameter) and a **return edge**
(callee return node → the call-site value node). Resolution is
deliberately partial: unresolvable calls stay sanitizer boundaries
(:mod:`repro.lint.taint`), calls into declassifiers
(:data:`~repro.lint.pdg.DECLASSIFIER_FUNCS`, e.g. the salted
``query_hash_bucket``) and into exempt modules (the trusted enclave
closure, adversary packages) are dropped — those are exactly the
sanctioned ways for query text to cross a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.pdg import (DECLASSIFIER_FUNCS, CallSite, FunctionInfo,
                            Hop, Labels, ModulePDG, Node, SinkInfo,
                            node_key)

#: Re-export chains longer than this are cut (cycles, pathology).
_MAX_CHAIN = 16


@dataclass
class ProgramGraph:
    """The linked whole-program dependence graph."""

    adjacency: Dict[Node, List[Tuple[Node, str, Hop]]] = field(
        default_factory=dict)
    sources: Dict[Node, Hop] = field(default_factory=dict)
    sink_info: Dict[Node, SinkInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    def add_edge(self, src: Node, dst: Node, kind: str, hop: Hop) -> None:
        self.adjacency.setdefault(src, []).append((dst, kind, hop))

    def finish(self) -> "ProgramGraph":
        """Sort adjacency lists so traversal order is deterministic
        regardless of build order."""
        for src in self.adjacency:
            self.adjacency[src] = sorted(
                set(self.adjacency[src]),
                key=lambda entry: (node_key(entry[0]), entry[1],
                                   entry[2]))
        return self


class _SymbolTable:
    def __init__(self, pdgs: List[ModulePDG]) -> None:
        self.by_module: Dict[str, ModulePDG] = {
            pdg.module: pdg for pdg in pdgs}

    def resolve(self, module: str, name: str,
                depth: int = 0) -> Optional[Tuple[str, str, str]]:
        """Resolve *name* in *module* → ("func"|"class"|"module",
        owner module, qual-or-short-name), following import chains."""
        if depth > _MAX_CHAIN:
            return None
        pdg = self.by_module.get(module)
        if pdg is None:
            return None
        kind_qual = pdg.toplevel.get(name)
        if kind_qual is not None:
            kind, ref = kind_qual
            return (kind, module, ref)
        imported = pdg.imports.get(name)
        if imported is None:
            return None
        source_module, symbol = imported
        if symbol is None:
            return ("module", module, source_module)
        resolved = self.resolve(source_module, symbol, depth + 1)
        if resolved is not None:
            return resolved
        # ``from pkg import sub`` where sub is a submodule, not a name
        candidate = f"{source_module}.{symbol}"
        if candidate in self.by_module:
            return ("module", module, candidate)
        return None

    def resolve_dotted(self, module: str,
                       parts: Tuple[str, ...]
                       ) -> Optional[Tuple[str, str, str]]:
        """Resolve ``a.b.f(...)`` seen in *module*."""
        head, middle, last = parts[0], parts[1:-1], parts[-1]
        base = self.resolve(module, head)
        if base is None or base[0] != "module":
            return None
        base_module = base[2]
        # walk the middle parts as submodules or re-exported modules
        for part in middle:
            step = self.resolve(base_module, part)
            if step is not None and step[0] == "module":
                base_module = step[2]
                continue
            candidate = f"{base_module}.{part}"
            if candidate in self.by_module:
                base_module = candidate
                continue
            return None
        return self.resolve(base_module, last)


def _callee_function(table: _SymbolTable, site: CallSite,
                     pdg: ModulePDG
                     ) -> Optional[Tuple[FunctionInfo, ModulePDG, bool]]:
    """Resolve a call site to (callee info, owner pdg, skip_self)."""
    kind = site.ref[0]
    if kind == "local":
        qual = site.ref[1]
        info = pdg.functions.get(qual)
        return (info, pdg, False) if info else None
    if kind == "self":
        if site.cls is None:
            return None
        class_name = site.cls.split("::", 1)[-1]
        cls = pdg.classes.get(class_name)
        if cls is None:
            return None
        qual = cls.methods.get(site.ref[1])
        info = pdg.functions.get(qual) if qual else None
        return (info, pdg, True) if info else None

    if kind == "name":
        if site.ref[1] in DECLASSIFIER_FUNCS:
            return None
        resolved = table.resolve(pdg.module, site.ref[1])
    elif kind == "dotted":
        if site.ref[-1] in DECLASSIFIER_FUNCS:
            return None
        resolved = table.resolve_dotted(pdg.module, site.ref[1:])
    else:
        return None
    if resolved is None:
        return None
    rkind, owner_module, ref = resolved
    owner = table.by_module.get(owner_module)
    if owner is None:
        return None
    if rkind == "func":
        info = owner.functions.get(ref)
        return (info, owner, False) if info else None
    if rkind == "class":
        cls = owner.classes.get(ref)
        if cls is None:
            return None
        qual = cls.methods.get("__init__")
        info = owner.functions.get(qual) if qual else None
        return (info, owner, True) if info else None
    return None


def _link_call(graph: ProgramGraph, site: CallSite, caller: ModulePDG,
               callee: FunctionInfo, owner: ModulePDG) -> None:
    """Parameter and return edges for one resolved call site."""
    params = callee.params
    short = callee.name

    def param_node(name: str) -> Node:
        return ("param", callee.qual, name)

    def arg_edge(labels: Labels, pname: str) -> None:
        hop: Hop = (caller.relpath, site.line, f"{short}({pname})")
        for label in labels:
            graph.add_edge(label, param_node(pname), "call", hop)

    for index, labels in enumerate(site.pos):
        if index < len(params):
            arg_edge(labels, params[index])
        elif callee.vararg is not None:
            arg_edge(labels, callee.vararg)
    for name, labels in sorted(site.kw.items()):
        if name in params:
            arg_edge(labels, name)
        elif callee.kwarg is not None:
            arg_edge(labels, callee.kwarg)
    if site.star:
        # *args/**kwargs forwarding: over-approximate to every
        # parameter of the callee (plus its own vararg/kwarg)
        targets = list(params)
        targets.extend(p for p in (callee.vararg, callee.kwarg) if p)
        for pname in targets:
            arg_edge(site.star, pname)

    graph.add_edge(("ret", callee.qual), site.ret_node, "ret",
                   (caller.relpath, site.line, f"return of {short}"))


def link_program(pdgs: List[ModulePDG]) -> ProgramGraph:
    """Link every module's PDG into one queryable program graph."""
    graph = ProgramGraph()
    table = _SymbolTable(pdgs)
    for pdg in sorted(pdgs, key=lambda p: p.relpath):
        graph.functions.update(pdg.functions)
        graph.sources.update(pdg.sources)
        graph.sink_info.update(pdg.sink_info)
        for src, dst, kind, hop in pdg.edges:
            graph.add_edge(src, dst, kind, hop)
        for site in pdg.callsites:
            resolved = _callee_function(table, site, pdg)
            if resolved is None:
                continue  # sanitizer boundary: unresolved stays opaque
            callee, owner, skip_self = resolved
            if owner.exempt:
                continue  # trusted / adversary modules declassify
            del skip_self  # FunctionInfo.params already excludes self
            _link_call(graph, site, pdg, callee, owner)
    return graph.finish()
