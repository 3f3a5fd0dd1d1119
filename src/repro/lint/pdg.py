"""Per-module program-dependence-graph construction.

The first stage of ``repro lint``'s taint analysis, in the spirit of
DoubleX's PDG for browser extensions (Fass et al., CCS 2021). For one
module it records the structure that lets the path query
(:mod:`repro.lint.paths`) follow query text within a function and
*through* call boundaries:

- **def-use chains** — which *taint labels* each local name carries,
  through assignments, augmented assigns, tuple unpacking, loops,
  ``with`` items and comprehension scopes;
- **field writes/reads on ``self``** — ``self._q = query`` creates an
  edge into a per-class field node; any later ``self._q`` read in the
  same class carries that node as a label;
- **call sites** — every resolvable call (module-level functions,
  ``self`` methods, imported names, dotted module paths, nested
  functions and assigned lambdas) with the label sets of each
  argument, so the linker can add caller-argument → callee-parameter
  and callee-return → call-site-value edges;
- **sources** — ``SOURCE_ATTRS`` attribute reads and
  ``SOURCE_PARAMS``-named parameters (:mod:`repro.lint.taint`);
- **sinks** — label flows into the shared :mod:`repro.obs.sinks`
  registry (wire egress, print/logging, raised exception messages,
  span/metric attribute values), each with a description and the
  rule a direct source→sink flow into it reports under.

Labels are *nodes* of the eventual whole-program graph; an expression
evaluates to a frozenset of them.

Sanitizer contract: calls propagate labels only through known string
operations; every other unresolved call is a sanitizer boundary, and
the linker additionally drops edges
into declassifier functions (``query_hash_bucket``) and the trusted
enclave closure (``repro.sgx``/``repro.core.enclave``). Exempt
modules (trusted + adversary packages) contribute no sources, sinks
or call sites at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.engine import SourceModule
from repro.lint.taint import (SOURCE_ATTRS, SOURCE_PARAMS, _STR_FUNCS,
                              _STR_METHODS, _is_logger_call, _taint_exempt)
from repro.obs import sinks

#: A graph node: a kind-tagged tuple —
#: ``("param", func_qual, name)``, ``("ret", func_qual)``,
#: ``("field", class_qual, attr)``, ``("src", relpath, line, descr)``,
#: ``("callret", relpath, line, col)`` or
#: ``("sink", relpath, line, col, descr)``.
Node = Tuple
#: A witness hop: ``(file, line, symbol)``.
Hop = Tuple[str, int, str]

#: A sink's description ("print()"), the rule a direct source→sink
#: flow into it reports under, and the hop that anchors findings.
SinkInfo = Tuple[str, str, Hop]

Labels = FrozenSet[Node]
_EMPTY: Labels = frozenset()


def node_key(node: Node) -> Tuple[str, ...]:
    """Deterministic sort key for mixed-shape node tuples."""
    return tuple(str(part) for part in node)


@dataclass
class FunctionInfo:
    """One analyzed function (or method / assigned lambda)."""

    qual: str                 # "module::Class.method" / "module::func"
    name: str                 # short display name ("Class.method")
    params: List[str]         # positional + kw-only, in order
    vararg: Optional[str]
    kwarg: Optional[str]
    line: int
    is_method: bool           # leading ``self`` stripped by the linker
    cls: Optional[str]        # owning class qual, for methods


@dataclass
class ClassInfo:
    """One class: its qual and method table, for self/ctor linking."""

    qual: str                 # "module::Class"
    name: str
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qual


@dataclass
class CallSite:
    """One resolvable call with the labels of every argument."""

    caller: str               # func qual of the calling scope
    cls: Optional[str]        # enclosing class qual (for self.<m>())
    line: int
    ref: Tuple                # ("local", qual) | ("name", n) |
                              # ("self", attr) | ("dotted", p0, p1, ...)
    pos: List[Labels]         # labels per positional argument
    kw: Dict[str, Labels]
    star: Labels              # labels under *args / **kwargs
    ret_node: Node

    def merge(self, other: "CallSite") -> None:
        """Add the labels *other* (the same call, seen by the other
        walk) carries."""
        self.pos = [mine | theirs
                    for mine, theirs in zip(self.pos, other.pos)]
        self.kw = {name: labels | other.kw[name]
                   for name, labels in self.kw.items()}
        self.star |= other.star


@dataclass
class ModulePDG:
    """Everything the linker needs from one file."""

    relpath: str
    module: str
    exempt: bool
    imports: Dict[str, Tuple[str, Optional[str]]] = field(
        default_factory=dict)   # local name -> (module, symbol | None)
    toplevel: Dict[str, Tuple[str, str]] = field(
        default_factory=dict)   # name -> ("func"|"class", qual/short)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    edges: List[Tuple[Node, Node, str, Hop]] = field(default_factory=list)
    sources: Dict[Node, Hop] = field(default_factory=dict)
    sink_info: Dict[Node, SinkInfo] = field(default_factory=dict)
    callsites: List[CallSite] = field(default_factory=list)


#: Terminal callee names that declassify: linking into them is never
#: an information flow the analysis should chase.
DECLASSIFIER_FUNCS = frozenset({"query_hash_bucket", "len"})


def _resolve_relative(module: str, level: int,
                      target: Optional[str]) -> Optional[str]:
    """``from ..x import y`` inside *module* → absolute module name."""
    parts = module.split(".")
    if level > len(parts):
        return None
    base = parts[:len(parts) - level]
    if target:
        base.append(target)
    return ".".join(base) if base else None


def _collect_imports(module: SourceModule
                     ) -> Dict[str, Tuple[str, Optional[str]]]:
    """Local name → (source module, symbol) over the whole tree
    (function-local imports included — a lazy import still links)."""
    table: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                table[local] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            source = node.module if node.level == 0 else \
                _resolve_relative(module.module, node.level, node.module)
            if source is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = (source, alias.name)
    return table


# -- the function-body label walker ---------------------------------------


class _FunctionBuilder:
    """Walks one function body, mapping names to label sets and
    recording edges / call sites / sources / sinks into its module's
    PDG. Statements are walked twice, so a name assigned late in
    a loop body reaches its uses earlier in the body; all recording is
    idempotent — nodes are keyed by source position, edges dedupe
    through a set, and an edge or call-site label either walk records
    stays."""

    def __init__(self, mb: "_ModuleBuilder", qual: str, name: str,
                 args: Optional[ast.arguments], line: int,
                 cls: Optional[str] = None) -> None:
        self.mb = mb
        self.qual = qual
        self.name = name
        self.cls = cls
        self.scope: Dict[str, Labels] = {}
        self.local_funcs: Dict[str, str] = {}
        params: List[str] = []
        vararg = kwarg = None
        if args is not None:
            ordered = (list(args.posonlyargs) + list(args.args)
                       + list(args.kwonlyargs))
            params = [arg.arg for arg in ordered]
            vararg = args.vararg.arg if args.vararg else None
            kwarg = args.kwarg.arg if args.kwarg else None
        for pname in params + [p for p in (vararg, kwarg) if p]:
            node = ("param", qual, pname)
            self.scope[pname] = frozenset({node})
            if pname in SOURCE_PARAMS and not mb.exempt:
                mb.pdg.sources[node] = (
                    mb.relpath, line,
                    f"parameter {pname!r} of {name}")
        is_method = cls is not None and params[:1] == ["self"]
        self.mb.pdg.functions[qual] = FunctionInfo(
            qual=qual, name=name,
            params=params[1:] if is_method else params,
            vararg=vararg, kwarg=kwarg, line=line,
            is_method=is_method, cls=cls)

    # -- driving ------------------------------------------------------

    def run(self, body: List[ast.stmt]) -> None:
        for _ in range(2):
            self.walk(body)

    def walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.mb.add_function(stmt, parent=self, cls=None)
            return
        if isinstance(stmt, ast.ClassDef):
            self.mb.add_class(stmt, parent=self)
            return
        if isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.scope[stmt.target.id] = \
                    self.scope.get(stmt.target.id, _EMPTY) | value
            elif self._is_self_attr(stmt.target):
                self.field_write(stmt.target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            labels = self.eval(stmt.value) if stmt.value else _EMPTY
            for label in sorted(labels, key=node_key):
                self.mb.edge(label, ("ret", self.qual), "ret",
                             (self.mb.relpath, stmt.lineno,
                              f"return of {self.name}"))
        elif isinstance(stmt, ast.Raise):
            self.raise_stmt(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.bind(stmt.target, self.eval(stmt.iter))
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, labels)
            self.walk(stmt.body)
        else:
            # if/while/try/match/expression statements: evaluate their
            # expressions and walk their bodies in source order
            self.visit_children(stmt)

    def visit_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self.stmt(child)
            else:  # except handlers, match cases and their patterns
                self.visit_children(child)

    def assign(self, stmt: ast.Assign) -> None:
        if (isinstance(stmt.value, ast.Lambda)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            self.mb.add_lambda(stmt.targets[0].id, stmt.value,
                               parent=self)
            self.scope[stmt.targets[0].id] = _EMPTY
            return
        labels = self.eval(stmt.value)
        for target in stmt.targets:
            self.bind(target, labels)

    def bind(self, target: ast.AST, labels: Labels) -> None:
        if isinstance(target, ast.Name):
            self.scope[target.id] = labels
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, labels)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, labels)
        elif self._is_self_attr(target):
            self.field_write(target, labels)
        # other attribute/subscript targets: untracked (conservative)

    def _is_self_attr(self, target: ast.AST) -> bool:
        return (self.cls is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self")

    def field_write(self, target: ast.Attribute, labels: Labels) -> None:
        node = ("field", self.cls, target.attr)
        short = self.cls.split("::", 1)[-1]
        for label in sorted(labels, key=node_key):
            self.mb.edge(label, node, "field-write",
                         (self.mb.relpath, target.lineno,
                          f"{short}.{target.attr} ="))

    def raise_stmt(self, stmt: ast.Raise) -> None:
        self.eval(stmt.cause)
        if not isinstance(stmt.exc, ast.Call):
            self.eval(stmt.exc)
            return
        call = stmt.exc
        labels: Labels = _EMPTY
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            labels |= self.eval(arg)
        self.sink(stmt, "a raised exception message", "taint-exception",
                  labels)

    # -- expression labels --------------------------------------------

    def eval(self, node: Optional[ast.AST]) -> Labels:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.scope.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            return self.attribute(node)
        if isinstance(node, ast.Call):
            return self.call(node)
        if isinstance(node, ast.Subscript):
            labels = self.eval(node.value)
            self.eval(node.slice)
            return labels
        if isinstance(node, ast.JoinedStr):
            out = _EMPTY
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for elt in node.elts:
                out |= self.eval(elt)
            return out
        if isinstance(node, ast.Dict):
            # keys are data too: {query: 1} carries the query text
            out = _EMPTY
            for part in node.keys + node.values:  # None key: a ** spread
                out |= self.eval(part)
            return out
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            labels = self.eval(node.value)
            self.bind(node.target, labels)
            return labels
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            return self.comprehension(node)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            # anonymous lambda in expression position: its body is
            # analyzed only when bound to a name (add_lambda)
            return _EMPTY
        # comparisons, unary ops, yields, slices: no taint of their
        # own, but call sites and sinks inside them still count
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return _EMPTY

    def attribute(self, node: ast.Attribute) -> Labels:
        out: Labels = _EMPTY
        if self._is_self_attr(node):
            out |= frozenset({("field", self.cls, node.attr)})
        else:
            out |= self.eval(node.value)
        if node.attr in SOURCE_ATTRS and not self.mb.exempt:
            source = ("src", self.mb.relpath, node.lineno, node.attr)
            self.mb.pdg.sources[source] = (
                self.mb.relpath, node.lineno,
                f"attribute read .{node.attr} in {self.name}")
            out |= frozenset({source})
        return out

    def comprehension(self, node) -> Labels:
        saved: Dict[str, Labels] = {}
        bound: List[str] = []
        for gen in node.generators:
            labels = self.eval(gen.iter)
            for name in _target_names(gen.target):
                if name not in bound:
                    saved[name] = self.scope.get(name, _EMPTY)
                    bound.append(name)
            self.bind(gen.target, labels)
            for cond in gen.ifs:
                self.eval(cond)
        if isinstance(node, ast.DictComp):
            out = self.eval(node.key) | self.eval(node.value)
        else:
            out = self.eval(node.elt)
        for name in bound:
            self.scope[name] = saved[name]
        return out

    # -- calls --------------------------------------------------------

    def call(self, node: ast.Call) -> Labels:
        func = node.func
        receiver = _EMPTY if isinstance(func, ast.Name) else self.eval(
            func.value if isinstance(func, ast.Attribute) else func)
        args = [self.eval(arg) for arg in node.args]
        pos: List[Labels] = []
        star: Labels = _EMPTY
        for arg, labels in zip(node.args, args):
            if isinstance(arg, ast.Starred):
                star |= labels
            else:
                pos.append(labels)
        kw: Dict[str, Labels] = {}
        for keyword in node.keywords:
            if keyword.arg is None:
                star |= self.eval(keyword.value)
            else:
                kw[keyword.arg] = self.eval(keyword.value)
        everything = star
        for labels in pos:
            everything |= labels
        for labels in kw.values():
            everything |= labels

        self.check_sinks(node, func, args, kw, everything)

        # string operations propagate labels through the call
        if isinstance(func, ast.Attribute) and func.attr in _STR_METHODS:
            return receiver | everything
        if isinstance(func, ast.Name) and func.id in _STR_FUNCS:
            return everything

        ref = self.callee_ref(func)
        if ref is None:
            return _EMPTY  # unresolved call: sanitizer boundary
        ret_node = ("callret", self.mb.relpath, node.lineno,
                    node.col_offset)
        self.mb.callsite(CallSite(
            caller=self.qual, cls=self.cls, line=node.lineno, ref=ref,
            pos=pos, kw=kw, star=star, ret_node=ret_node))
        return frozenset({ret_node})

    def callee_ref(self, func: ast.AST) -> Optional[Tuple]:
        if isinstance(func, ast.Name):
            if func.id in self.local_funcs:
                return ("local", self.local_funcs[func.id])
            return ("name", func.id)
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self" and self.cls):
                return ("self", func.attr)
            parts = _dotted_parts(func)
            if parts is not None:
                return ("dotted",) + tuple(parts)
        return None

    # -- sinks --------------------------------------------------------

    def sink(self, node: ast.AST, descr: str, rule: str,
             labels: Labels) -> None:
        if not labels or self.mb.exempt:
            return
        sink_node = ("sink", self.mb.relpath, node.lineno,
                     node.col_offset, descr)
        self.mb.pdg.sink_info[sink_node] = (
            descr, rule, (self.mb.relpath, node.lineno, self.name))
        for label in sorted(labels, key=node_key):
            self.mb.edge(label, sink_node, "sink",
                         (self.mb.relpath, node.lineno, descr))

    def check_sinks(self, node: ast.Call, func: ast.AST,
                    args: List[Labels], kw: Dict[str, Labels],
                    everything: Labels) -> None:
        """Record *node* as a sink for every registry entry it matches.

        *args* holds the labels of each raw positional argument,
        starred ones included, so ``set_attribute``'s value is the
        second argument as written.
        """
        if isinstance(func, ast.Name):
            if func.id == "print":
                self.sink(node, "print()", "taint-print", everything)
            return
        if not isinstance(func, ast.Attribute):
            return
        if _is_logger_call(func):
            self.sink(node, f"{func.value.id}.{func.attr}()", "taint-log",
                      everything)
        if func.attr in sinks.WIRE_EGRESS_CALLS:
            self.sink(node, f"wire egress .{func.attr}()", "taint-wire",
                      everything)
        if (func.attr == sinks.WIRE_ENCODER[1]
                and isinstance(func.value, ast.Name)
                and func.value.id == sinks.WIRE_ENCODER[0]):
            self.sink(node, "wire.encode()", "taint-wire", everything)
        if func.attr == "set_attribute" and len(args) > 1:
            self.sink(node, "set_attribute() value", "taint-telemetry",
                      args[1])
        elif func.attr == "set_attributes":
            for labels in args:
                self.sink(node, "set_attributes() attribute value",
                          "taint-telemetry", labels)
        elif func.attr in sinks.SPAN_FACTORY_CALLS:
            self.sink(node, f"{func.attr}() attribute value",
                      "taint-telemetry", kw.get("attributes", _EMPTY))
        elif func.attr in sinks.METRIC_FACTORY_CALLS:
            out: Labels = _EMPTY
            for labels in kw.values():
                out |= labels
            self.sink(node, f"{func.attr}() label value",
                      "taint-telemetry", out)


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in target.elts:
            names.extend(_target_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _dotted_parts(func: ast.Attribute) -> Optional[List[str]]:
    """``a.b.c`` → ["a", "b", "c"]; None when any link is not a Name."""
    parts = [func.attr]
    value = func.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if not isinstance(value, ast.Name):
        return None
    parts.append(value.id)
    return list(reversed(parts))


# -- the module builder ---------------------------------------------------


class _ModuleBuilder:
    def __init__(self, module: SourceModule) -> None:
        self.relpath = module.relpath
        self.exempt = _taint_exempt(module)
        self.pdg = ModulePDG(relpath=module.relpath,
                             module=module.module, exempt=self.exempt,
                             imports=_collect_imports(module))
        self._edges: set = set()
        self._callsites: Dict[Tuple[Node, str], CallSite] = {}
        self._analyzed: set = set()  # id(def node): one analysis each

    def edge(self, src: Node, dst: Node, kind: str, hop: Hop) -> None:
        entry = (src, dst, kind, hop)
        if entry not in self._edges:
            self._edges.add(entry)
            self.pdg.edges.append(entry)

    def callsite(self, site: CallSite) -> None:
        # keyed by position: labels either walk saw at the call stay
        key = (site.ret_node, site.caller)
        known = self._callsites.get(key)
        if known is None:
            self._callsites[key] = site
            self.pdg.callsites.append(site)
        else:
            known.merge(site)

    def add_function(self, node, parent: Optional[_FunctionBuilder],
                     cls: Optional[str]) -> None:
        if id(node) in self._analyzed:
            return
        self._analyzed.add(id(node))
        if parent is None or parent.qual.endswith("::<module>"):
            qual = f"{self.pdg.module}::" + (
                f"{cls.split('::', 1)[-1]}.{node.name}" if cls
                else node.name)
        else:
            qual = f"{parent.qual}.{node.name}"
        short = qual.split("::", 1)[-1]
        builder = _FunctionBuilder(self, qual, short, node.args,
                                   node.lineno, cls=cls)
        if parent is not None:
            parent.local_funcs[node.name] = qual
        if cls is None and (parent is None
                            or parent.qual.endswith("::<module>")):
            self.pdg.toplevel[node.name] = ("func", qual)
        builder.run(node.body)

    def add_lambda(self, name: str, node: ast.Lambda,
                   parent: _FunctionBuilder) -> None:
        if id(node) in self._analyzed:
            return
        self._analyzed.add(id(node))
        if parent.qual.endswith("::<module>"):
            qual = f"{self.pdg.module}::{name}"
            self.pdg.toplevel[name] = ("func", qual)
        else:
            qual = f"{parent.qual}.{name}"
        short = qual.split("::", 1)[-1]
        builder = _FunctionBuilder(self, qual, short, node.args,
                                   node.lineno, cls=parent.cls)
        parent.local_funcs[name] = qual
        ret = ast.Return(value=node.body)
        ast.copy_location(ret, node.body)
        builder.run([ret])

    def add_class(self, node: ast.ClassDef,
                  parent: Optional[_FunctionBuilder]) -> None:
        if id(node) in self._analyzed:
            return
        self._analyzed.add(id(node))
        qual = f"{self.pdg.module}::{node.name}"
        info = ClassInfo(qual=qual, name=node.name)
        self.pdg.classes[node.name] = info
        if parent is None or parent.qual.endswith("::<module>"):
            self.pdg.toplevel[node.name] = ("class", node.name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qual = f"{qual.split('::', 1)[0]}::" \
                              f"{node.name}.{item.name}"
                info.methods[item.name] = method_qual
                builder = _FunctionBuilder(
                    self, method_qual, f"{node.name}.{item.name}",
                    item.args, item.lineno, cls=qual)
                builder.run(item.body)


def build_module_pdg(module: SourceModule) -> ModulePDG:
    """Build the per-module PDG for one parsed source file.

    Imports and top-level names are recorded even for exempt modules
    (they may sit on a re-export chain); their flows are stripped at
    the end — trusted and adversary modules are opaque declassifiers.
    """
    mb = _ModuleBuilder(module)
    body_builder = _FunctionBuilder(
        mb, f"{module.module}::<module>", "<module>", None, 1)
    # the module body is not a linkable function
    mb.pdg.functions.pop(f"{module.module}::<module>", None)
    body_builder.run(list(module.tree.body))
    if mb.exempt:
        # opaque: trusted / adversary modules contribute structure for
        # re-export resolution but no flows of their own
        mb.pdg.edges = []
        mb.pdg.sources = {}
        mb.pdg.sink_info = {}
        mb.pdg.callsites = []
    return mb.pdg
