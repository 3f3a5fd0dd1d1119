"""Reachability gate: every definition in ``src/`` is reached from code
that runs outside the test suite, or the allowlist says why it stays.

A definition is a module-level function, class or constant (a single
name bound by ``=`` at module level), or a method of a module-level
class; dunder names are exempt. Its name counts as *referenced* when it
occurs as an identifier in a reached context: a ``Name``, an
``Attribute``, a call keyword, an import alias, or an
identifier-shaped string constant (``bench/layers.py`` names the
methods it wraps by string). Docstrings and comments never match.

The reached contexts are:

- module-level code in ``src/``, except the import statements of
  package ``__init__`` files (facade re-exports) and ``__all__``;
- the bodies of module-level dunder functions and of a reached class
  (class-level statements, bases, decorators and dunder methods);
- every file under ``bench/``, ``benchmarks/`` and ``examples/``;
- the body of a reached or allowlisted definition.

Reachability runs to a fixed point over plain name matching, so a name
defined in several modules (``main``, ``run``) is reached in each of
them once any context uses it. Nothing under ``tests/`` is a root: code
that only its own tests call is what this gate exists to find.

To keep an unreached definition, add it to :data:`ALLOWLIST` under its
dotted name (``repro.pkg.module.Class.method``) with a one-line reason
that starts with one of the four kinds in :data:`REASON_KINDS`:

- ``paper artefact:`` the figure or table it produces;
- ``gate:`` the node id of a tier-1 gate that reads it as its
  observation point (that some test calls it is not a reason);
- ``workflow:`` a documented user workflow, by doc path and section
  (a listing in ``docs/api.md`` is not one);
- ``test double:`` what it stands in for.

The gate fails on every unreached definition that is not listed,
printed as ``path:line name``, and on every stale entry: one that
names no definition, or whose definition is reached without it.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set

import pytest

from repro.lint.engine import collect_modules

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Trees whose every file is a reached context.
ROOT_TREES = ("bench", "benchmarks", "examples")

REASON_KINDS = ("paper artefact:", "gate:", "workflow:", "test double:")

#: dotted name -> why it stays although nothing outside tests reaches it.
ALLOWLIST: Dict[str, str] = {
    "repro.datasets.loader.load_aol_tsv":
        "workflow: docs/reproducing.md § 4. Run on real data (optional)",
    "repro.datasets.loader.label_with_categorizer":
        "workflow: docs/reproducing.md § 4. Run on real data (optional)",
    "repro.obs.audit.audit_cache_indistinguishability":
        "gate: tests/obs/test_audit.py::test_gate_cache_audit_passes",
    "repro.obs.profile.compare_attribution":
        "gate: tests/obs/test_profile.py::TestBaselineDrift"
        " (names each drifted subsystem)",
    "repro.obs.clock.ManualClock":
        "test double: a hand-advanced clock in place of SimulatedClock",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Definition(NamedTuple):
    path: str          # repo-relative posix path
    line: int
    dotted: str        # module + qualified name
    name: str          # the bare name a reference matches
    refs: frozenset    # identifiers its own body references


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def identifiers(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name-like identifier under *nodes* (see module docstring)."""
    found: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                found.add(node.arg)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                found.add(node.value)
    return found


def _constant_name(stmt: ast.stmt):
    """The name a module-level ``NAME = value`` statement defines."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def scan(repo: Path):
    """Parse *repo*'s ``src/`` and root trees once; return the ``src/``
    definitions and the identifiers the root contexts reference."""
    definitions: List[Definition] = []
    roots: Set[str] = set()
    for module in collect_modules(repo / "src"):
        path = f"src/{module.relpath}"
        reexports = module.relpath.endswith("__init__.py")
        for stmt in module.tree.body:
            constant = _constant_name(stmt)
            if isinstance(stmt, FUNCTIONS) and not _dunder(stmt.name):
                definitions.append(Definition(
                    path, stmt.lineno, f"{module.module}.{stmt.name}",
                    stmt.name, frozenset(identifiers([stmt]))))
            elif isinstance(stmt, ast.ClassDef):
                methods = [node for node in stmt.body
                           if isinstance(node, FUNCTIONS)
                           and not _dunder(node.name)]
                own = [node for node in stmt.body if node not in methods]
                definitions.append(Definition(
                    path, stmt.lineno, f"{module.module}.{stmt.name}",
                    stmt.name, frozenset(identifiers(
                        own + stmt.bases + stmt.keywords
                        + stmt.decorator_list))))
                definitions.extend(
                    Definition(path, method.lineno,
                               f"{module.module}.{stmt.name}.{method.name}",
                               method.name,
                               frozenset(identifiers([method])))
                    for method in methods)
            elif constant == "__all__" or (
                    reexports
                    and isinstance(stmt, (ast.Import, ast.ImportFrom))):
                continue
            elif constant is not None and not _dunder(constant):
                definitions.append(Definition(
                    path, stmt.lineno, f"{module.module}.{constant}",
                    constant, frozenset(identifiers([stmt.value]))))
            else:
                roots |= identifiers([stmt])
    trees = [repo / tree for tree in ROOT_TREES if (repo / tree).is_dir()]
    if trees:
        for module in collect_modules(repo, paths=trees):
            roots |= identifiers([module.tree])
    return definitions, roots


def reached(definitions: List[Definition], roots: Set[str],
            seeds: Iterable[Definition] = ()) -> Set[str]:
    """Dotted names of the definitions referenced from *roots*, or from
    the body of *seeds* or of any definition already reached."""
    by_name: Dict[str, List[Definition]] = {}
    for definition in definitions:
        by_name.setdefault(definition.name, []).append(definition)
    pending = set(roots)
    for seed in seeds:
        pending |= seed.refs
    seen: Set[str] = set()
    hit: Set[str] = set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for definition in by_name.get(name, ()):
            hit.add(definition.dotted)
            pending |= definition.refs - seen
    return hit


def gate_failures(repo: Path, allowlist: Dict[str, str]) -> List[str]:
    """One line per unreached, unlisted definition and per stale entry."""
    definitions, roots = scan(repo)
    by_dotted = {definition.dotted: definition for definition in definitions}
    listed = [by_dotted[name] for name in allowlist if name in by_dotted]
    hit = reached(definitions, roots, listed)
    failures = [f"{d.path}:{d.line} {d.dotted}" for d in definitions
                if d.dotted not in hit and d.dotted not in allowlist]
    for name in sorted(allowlist):
        definition = by_dotted.get(name)
        if definition is None:
            failures.append(f"allowlist: {name} names no definition")
            continue
        others = [seed for seed in listed if seed is not definition]
        if name in reached(definitions, roots, others):
            failures.append(f"{definition.path}:{definition.line} {name} "
                            "is reached without its allowlist entry")
    return failures


# -- the gate ---------------------------------------------------------------

def test_every_src_definition_is_reached_or_allowlisted():
    failures = gate_failures(REPO_ROOT, ALLOWLIST)
    assert failures == [], (
        "definitions in src/ that nothing outside tests/ reaches; delete "
        "them or add an ALLOWLIST entry with a reason:\n"
        + "\n".join(failures))


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_allowlist_reason_names_an_accepted_kind(name):
    reason = ALLOWLIST[name]
    assert reason.startswith(REASON_KINDS), (name, reason)
    # A cited gate and doc section must exist: `gate: path::Test`,
    # `workflow: doc § heading`.
    if reason.startswith("gate:"):
        gate = re.match(r"gate: (\S+?)::(\S+)", reason)
        assert gate, (name, reason)
        test = gate.group(2).split("::")[-1]
        source = (REPO_ROOT / gate.group(1)).read_text()
        assert re.search(rf"(def|class) {test}\b", source), (name, reason)
    if reason.startswith("workflow:"):
        workflow = re.match(r"workflow: (\S+) § (.+)", reason)
        assert workflow, (name, reason)
        doc = (REPO_ROOT / workflow.group(1)).read_text()
        assert f"# {workflow.group(2)}\n" in doc, (name, reason)


# -- the scanner on small trees ---------------------------------------------

def _tree(tmp_path: Path, files: Dict[str, str]) -> Path:
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def _names(failures: List[str]) -> Set[str]:
    return {line.split()[1] for line in failures}


class TestScanner:
    def test_names_a_definition_only_tests_reference(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "def used():\n    pass\n\n"
                                "def tested():\n    pass\n",
            "bench/run.py": "from repro.mod import used\nused()\n",
            "tests/test_mod.py": "from repro.mod import tested\n"
                                 "tested()\n",
        })
        failures = gate_failures(repo, {})
        assert failures == ["src/repro/mod.py:4 repro.mod.tested"]

    def test_names_a_definition_only_an_unreached_one_references(
            self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "def helper():\n    pass\n\n"
                                "class Box:\n"
                                "    def unused(self):\n"
                                "        return helper()\n",
            "examples/demo.py": "from repro.mod import Box\nBox()\n",
        })
        assert _names(gate_failures(repo, {})) == {
            "repro.mod.Box.unused", "repro.mod.helper"}

    def test_names_a_definition_only_prose_mentions(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": '"""See documented."""\n\n'
                                "def documented():\n    pass\n",
            "bench/run.py": '"""Calls documented."""\n'
                            "# documented() is handy\n"
                            "x = 'documented()'\n",
        })
        assert _names(gate_failures(repo, {})) == {"repro.mod.documented"}

    def test_names_a_definition_only_a_facade_reexports(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py":
                "from repro.pkg.mod import exported, listed\n"
                "import repro.pkg.mod\n"
                "__all__ = ['exported', 'listed']\n",
            "src/repro/pkg/mod.py": "def exported():\n    pass\n\n"
                                    "def listed():\n    pass\n",
            "examples/demo.py": "from repro.pkg import exported\n",
        })
        assert _names(gate_failures(repo, {})) == {"repro.pkg.mod.listed"}

    def test_names_stale_allowlist_entries(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "def used():\n    return kept()\n\n"
                                "def kept():\n    pass\n",
            "examples/demo.py": "from repro.mod import used\n",
        })
        failures = gate_failures(repo, {"repro.mod.kept": "test double: x",
                                        "repro.mod.gone": "test double: y"})
        assert failures == [
            "allowlist: repro.mod.gone names no definition",
            "src/repro/mod.py:4 repro.mod.kept is reached without its "
            "allowlist entry"]

    def test_an_allowlisted_body_reaches_what_it_calls(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "LIMIT = 3\n\n"
                                "def loader():\n    return LIMIT\n"
                                "\ndef loader_twin():\n    loader_twin()\n",
        })
        assert gate_failures(repo, {"repro.mod.loader": "workflow: x",
                                    "repro.mod.loader_twin": "workflow: y"}
                             ) == []

    def test_a_string_in_bench_keeps_a_method_reached(self, tmp_path):
        repo = _tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": "class Engine:\n"
                                "    def wrapped(self):\n        pass\n",
            "bench/layers.py": "from repro.mod import Engine\n"
                               "ENTRY = (Engine, 'wrapped')\n",
        })
        assert gate_failures(repo, {}) == []
