"""Enclave-boundary discipline: trusted state only behind ecall gates.

The simulated MEE (:mod:`repro.sgx.enclave`) enforces at *runtime*
that ``Enclave.trusted`` is only readable while an ``@ecall`` frame is
on the stack — touching it from untrusted code raises
``EnclaveIsolationError``. That check only fires on executed paths;
this checker proves the discipline over all of them:

- **trusted-state access** — within any enclave class (one deriving
  from ``Enclave`` or declaring ``@ecall`` methods), ``self.trusted``
  / ``self._trusted`` may only be touched by methods in the *trusted
  closure*: ``@ecall``-decorated methods, plus private helpers whose
  intra-class call sites are all themselves trusted (a helper called
  only from ecalls executes only inside the gate).
- **internal imports** — modules outside :mod:`repro.sgx` must not
  import underscore-prefixed (enclave-internal) symbols from it, nor
  star-import it.

:mod:`repro.sgx` itself is exempt — it *implements* the gates.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.lint.engine import SourceModule
from repro.lint.findings import Finding, make_finding

TRUSTED_STATE_ATTRS = frozenset({"trusted", "_trusted"})


def _is_ecall_decorated(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id == "ecall":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "ecall":
            return True
    return False


def _is_enclave_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else \
            getattr(base, "id", "")
        if "Enclave" in str(name):
            return True
    return any(isinstance(item, ast.FunctionDef)
               and _is_ecall_decorated(item) for item in node.body)


def _self_attr_accesses(node: ast.FunctionDef,
                        attrs: frozenset) -> List[ast.Attribute]:
    hits = []
    for child in ast.walk(node):
        if (isinstance(child, ast.Attribute) and child.attr in attrs
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"):
            hits.append(child)
    return hits


def _self_calls(node: ast.FunctionDef) -> Set[str]:
    """Names of ``self.<method>()`` calls made inside *node*."""
    calls: Set[str] = set()
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "self"):
            calls.add(child.func.attr)
    return calls


def _trusted_closure(methods: Dict[str, ast.FunctionDef]) -> Set[str]:
    """Ecall methods plus helpers reachable *only* from them.

    Fixed point: a non-ecall method joins the closure when it has at
    least one intra-class call site and every one of its call sites is
    already trusted. Methods with no visible call sites (public
    entry points, ``__init__``) stay untrusted.
    """
    call_sites: Dict[str, Set[str]] = {name: set() for name in methods}
    for name, node in methods.items():
        for callee in _self_calls(node):
            if callee in call_sites:
                call_sites[callee].add(name)
    trusted = {name for name, node in methods.items()
               if _is_ecall_decorated(node)}
    changed = True
    while changed:
        changed = False
        for name in methods:
            if name in trusted or not call_sites[name]:
                continue
            if call_sites[name] <= trusted:
                trusted.add(name)
                changed = True
    return trusted


def check_enclave_boundary(module: SourceModule) -> List[Finding]:
    out: List[Finding] = []
    inside_sgx = module.module.startswith("repro.sgx")

    for node in module.nodes:
        # -- internal imports ------------------------------------------
        if (not inside_sgx and isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("repro.sgx")):
            for alias in node.names:
                if alias.name == "*":
                    out.append(make_finding(
                        module, node, "enclave-internal-import",
                        f"star import from {node.module} exposes "
                        f"enclave-internal symbols"))
                elif alias.name.startswith("_"):
                    out.append(make_finding(
                        module, node, "enclave-internal-import",
                        f"imports enclave-internal symbol "
                        f"{alias.name!r} from {node.module}"))

        # -- trusted-state discipline ----------------------------------
        if inside_sgx or not isinstance(node, ast.ClassDef) \
                or not _is_enclave_class(node):
            continue
        methods = {item.name: item for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        trusted = _trusted_closure(methods)
        for name, method in methods.items():
            if name in trusted:
                continue
            accesses = _self_attr_accesses(method, TRUSTED_STATE_ATTRS)
            if accesses:
                out.append(make_finding(
                    module, accesses[0], "enclave-trusted-outside-ecall",
                    f"{node.name}.{name} touches enclave-private state "
                    f"outside an @ecall gate "
                    f"({len(accesses)} access(es))"))
    return out
