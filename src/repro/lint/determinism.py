"""Determinism contract: seeded RNGs and the simulator clock only.

The byte-identical fig5–fig8 reproductions (verified every PR) and
the profile baseline both rest on one discipline: simulation
code takes randomness from an explicitly seeded ``random.Random`` and
time from the discrete-event simulator (or :mod:`repro.obs.clock`'s
abstraction). One stray wall-clock read or shared-global ``random``
call makes outputs machine- and interleaving-dependent in ways the
test suite can only catch probabilistically; this checker bans the
patterns outright:

- ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` and
  friends (``det-wall-clock``) — allowed only in
  :mod:`repro.obs.clock`, the one sanctioned wall-clock adapter.
  ``perf_counter`` is *not* banned: it measures host durations in the
  benches and never feeds simulation state.
- ``os.urandom`` / ``random.SystemRandom`` (``det-system-entropy``) —
  allowed only under :mod:`repro.crypto`, where key material is
  *supposed* to be nondeterministic when no rng is threaded through;
  :func:`repro.crypto.rng.system_rng` is the sanctioned constructor.
- module-global ``random.*`` calls (``det-global-random``) — the
  shared interpreter-wide stream; any import-ordering change
  reshuffles every consumer.
- ``random.Random()`` with no seed (``det-unseeded-rng``) — allowed
  only in :mod:`repro.crypto.rng`.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.engine import SourceModule
from repro.lint.findings import Finding, make_finding

#: The one module allowed to read wall clocks.
CLOCK_MODULES = frozenset({"repro.obs.clock"})

#: Package prefix allowed to draw system entropy.
CRYPTO_PREFIX = "repro.crypto"

#: The one module allowed to build unseeded/system-entropy RNGs — the
#: sanctioned helper the rest of the tree calls instead.
CRYPTO_RNG_MODULE = "repro.crypto.rng"

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "time_ns", "ctime", "localtime", "gmtime",
})
_WALL_CLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})
_RANDOM_MODULE_OK = frozenset({"Random", "SystemRandom"})


def _from_imports(module: SourceModule, source: str) -> Set[str]:
    """Local names bound by ``from <source> import ...``."""
    names: Set[str] = set()
    for node in module.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == source:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def check_determinism(module: SourceModule) -> List[Finding]:
    out: List[Finding] = []
    in_clock = module.module in CLOCK_MODULES
    in_crypto = module.module.startswith(CRYPTO_PREFIX)
    in_rng_helper = module.module == CRYPTO_RNG_MODULE

    time_names = _from_imports(module, "time")
    os_names = _from_imports(module, "os")
    random_names = _from_imports(module, "random")

    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func

        # -- wall clocks ------------------------------------------------
        if not in_clock:
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                base, attr = func.value.id, func.attr
                if base == "time" and attr in _WALL_CLOCK_TIME_ATTRS:
                    out.append(make_finding(
                        module, node, "det-wall-clock",
                        f"calls time.{attr}() in simulation code"))
                if (attr in _WALL_CLOCK_DATE_ATTRS
                        and base in ("datetime", "date")):
                    out.append(make_finding(
                        module, node, "det-wall-clock",
                        f"calls {base}.{attr}() in simulation code"))
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr in ("datetime", "date")
                    and func.attr in _WALL_CLOCK_DATE_ATTRS):
                out.append(make_finding(
                    module, node, "det-wall-clock",
                    f"calls datetime.{func.value.attr}.{func.attr}() "
                    f"in simulation code"))
            if (isinstance(func, ast.Name)
                    and func.id in time_names
                    and func.id in _WALL_CLOCK_TIME_ATTRS):
                out.append(make_finding(
                    module, node, "det-wall-clock",
                    f"calls {func.id}() (imported from time) in "
                    f"simulation code"))

        # -- system entropy --------------------------------------------
        if not in_crypto:
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os" and func.attr == "urandom"):
                out.append(make_finding(
                    module, node, "det-system-entropy",
                    "draws os.urandom() outside repro.crypto"))
            if (isinstance(func, ast.Name) and func.id == "urandom"
                    and "urandom" in os_names):
                out.append(make_finding(
                    module, node, "det-system-entropy",
                    "draws urandom() (imported from os) outside "
                    "repro.crypto"))
            if _base_name(func) == "SystemRandom":
                out.append(make_finding(
                    module, node, "det-system-entropy",
                    "constructs random.SystemRandom() outside "
                    "repro.crypto"))

        # -- module-global random --------------------------------------
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr not in _RANDOM_MODULE_OK):
            out.append(make_finding(
                module, node, "det-global-random",
                f"calls module-global random.{func.attr}()"))
        if (isinstance(func, ast.Name) and func.id in random_names
                and func.id not in _RANDOM_MODULE_OK):
            out.append(make_finding(
                module, node, "det-global-random",
                f"calls module-global {func.id}() (imported from "
                f"random)"))

        # -- unseeded Random() -----------------------------------------
        if not in_rng_helper and not node.args and not node.keywords:
            is_random_ctor = (
                (isinstance(func, ast.Attribute)
                 and isinstance(func.value, ast.Name)
                 and func.value.id == "random"
                 and func.attr == "Random")
                or (isinstance(func, ast.Name) and func.id == "Random"
                    and "Random" in random_names))
            if is_random_ctor:
                out.append(make_finding(
                    module, node, "det-unseeded-rng",
                    "constructs random.Random() without a seed"))
    return out
