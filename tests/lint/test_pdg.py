"""The whole-program PDG taint pass: graph edge cases and output.

Each test builds a tiny source tree under ``tmp_path`` (mirroring the
real ``repro.core`` layout so package-sensitive rules behave normally)
and pins how the pass handles a specific construct — direct flows,
decorators, lambdas, comprehension scopes, ``*args``/``**kwargs``
forwarding, re-exports, declassifiers, pragmas — plus the JSON
witness/fingerprint format.
"""

import json
import sys
import textwrap

import pytest

from repro.lint import findings_to_json, run_lint

pytestmark = pytest.mark.lint


def lint_tree(tmp_path, files):
    root = tmp_path / "src"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return run_lint(root=root)


def interproc(findings):
    return [f for f in findings
            if f.rule in ("taint-interprocedural", "taint-field-flow")]


# -- direct flows ---------------------------------------------------------

#: One-edge source→sink flows: each reports under its sink's own rule,
#: with the sink's plain message and no witness.
DIRECT_FLOWS = {
    # the sink runs before the name is rebound to a clean value
    "print-then-rebind": ("""\
        def handle(query):
            print(query)
            query = "safe"
        """, "taint-print", 2, "query text flows into print()"),
    "send-in-loop-then-rebind": ("""\
        def route(network, dst, query, hops):
            for hop in hops:
                network.send(dst, query)
                query = ""
        """, "taint-wire", 3, "query text flows into wire egress .send()"),
    # a dict carries its keys as well as its values
    "dict-key": ("""\
        def route(network, dst, query):
            network.send(dst, {query: 1})
        """, "taint-wire", 2, "query text flows into wire egress .send()"),
    "dict-comprehension-key": ("""\
        def handle(query):
            print({word: 1 for word in query.split()})
        """, "taint-print", 2, "query text flows into print()"),
    # a span attribute reached through a name, or after a starred
    # argument
    "span-attributes-by-name": ("""\
        def trace(tracer, query):
            attrs = {"q": query}
            tracer.start_span("x", attributes=attrs)
        """, "taint-telemetry", 3,
        "query text flows into start_span() attribute value"),
    "set-attribute-after-starred": ("""\
        def annotate(span, extra, query):
            span.set_attribute(*extra, query)
        """, "taint-telemetry", 2,
        "query text flows into set_attribute() value"),
}


@pytest.mark.parametrize("case", sorted(DIRECT_FLOWS))
def test_direct_flow_reports_under_its_sink_rule(tmp_path, case):
    source, rule, line, message = DIRECT_FLOWS[case]
    findings = lint_tree(tmp_path, {"repro/core/flow.py": source})
    assert [(f.rule, f.line, f.message, f.witness)
            for f in findings] == [(rule, line, message, ())]


#: Sinks nested where no name is bound: every statement body and
#: sub-expression is walked.
NESTED_SINKS = {
    "async-for": """\
        async def handle(query, stream):
            async for chunk in stream:
                print(query)
        """,
    "call-receiver": """\
        def handle(query, make):
            make(print(query)).run()
        """,
    "subscript": """\
        def handle(query, table):
            return table[print(query)]
        """,
    "yield": """\
        def handle(query):
            yield print(query)
        """,
}


@pytest.mark.parametrize("case", [
    *sorted(NESTED_SINKS),
    pytest.param("match-case", marks=pytest.mark.skipif(
        sys.version_info < (3, 10), reason="match needs python 3.10")),
])
def test_nested_sink_is_seen(tmp_path, case):
    source = NESTED_SINKS.get(case, """\
        def handle(query, cmd):
            match cmd:
                case "a":
                    print(query)
        """)
    findings = lint_tree(tmp_path, {"repro/core/nested.py": source})
    assert [f.rule for f in findings] == ["taint-print"]


# -- cross-module resolution ----------------------------------------------

def test_cross_module_flow_carries_a_cross_file_witness(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/helper.py":
            "def leak(message):\n    print(message)\n",
        "repro/core/main.py":
            "from repro.core.helper import leak\n\n\n"
            "def handle(query):\n    leak(query)\n",
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]
    finding = findings[0]
    assert finding.path == "repro/core/helper.py"  # anchored at sink
    files = [file for file, _line, _symbol in finding.witness]
    assert files == ["repro/core/main.py", "repro/core/main.py",
                     "repro/core/helper.py"]


def test_reexported_name_resolves_through_the_package_init(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/helper.py":
            "def leak(message):\n    print(message)\n",
        "repro/core/__init__.py":
            "from repro.core.helper import leak\n",
        "repro/core/main.py":
            "from repro.core import leak\n\n\n"
            "def handle(query):\n    leak(query)\n",
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]
    assert "handle -> leak" in findings[0].message


# -- graph-construction edge cases ----------------------------------------

def test_decorated_callee_is_still_linked(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/deco.py": """\
        def trace(func):
            return func


        @trace
        def emit(message):
            print(message)


        def handle(query):
            emit(query)
        """,
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]


def test_assigned_lambda_is_a_linkable_function(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/lam.py":
            "emit = lambda message: print(message)\n\n\n"
            "def handle(query):\n    emit(query)\n",
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]
    assert "emit" in findings[0].message


def test_call_before_a_rebinding_still_links(tmp_path):
    # the call passes `query` before it is cleared: labels either
    # statement walk sees at a call site stay
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/late.py": """\
        def leak(message):
            print(message)


        def handle(query):
            leak(query)
            query = "safe"
        """,
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]


def test_comprehension_result_carries_taint(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/comp.py": """\
        def emit(items):
            print(items)


        def handle(query):
            emit([w.upper() for w in query.split()])
        """,
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]


def test_comprehension_target_does_not_escape_its_scope(tmp_path):
    # the generator variable shadows the outer binding only inside
    # the comprehension; the outer (clean) binding is what escapes
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/comp2.py": """\
        def emit(message):
            print(message)


        def handle(query):
            w = "safe"
            sizes = [w for w in query.split()]
            del sizes
            emit(w)
        """,
    }))
    assert findings == []


def test_star_args_forwarding_over_approximates(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/star.py": """\
        def emit(message):
            print(message)


        def relay(*args, **kwargs):
            emit(*args, **kwargs)


        def handle(query):
            relay(query)
        """,
    }))
    assert [f.rule for f in findings] == ["taint-interprocedural"]
    assert "handle -> relay -> emit" in findings[0].message


def test_untyped_receiver_is_a_pinned_blind_spot(tmp_path):
    # the pass does no receiver type inference: method calls on names
    # other than ``self`` stay sanitizer boundaries (a documented
    # under-approximation, docs/static-analysis.md#pdg)
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/recv.py": """\
        class Box:
            def put(self, query):
                self._value = query

            def get(self):
                return self._value


        def handle(box, query):
            box.put(query)
            print(box.get())
        """,
    }))
    assert findings == []


# -- declassifiers and suppression ----------------------------------------

def test_query_hash_bucket_declassifies(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/hash.py": """\
        from repro.obs import query_hash_bucket


        def emit(message):
            print(message)


        def handle(query):
            emit(query_hash_bucket(query))
        """,
    }))
    assert findings == []


def test_trusted_enclave_module_declassifies(tmp_path):
    # calls into the trusted closure are sanctioned boundaries: the
    # enclave seals, so taint does not flow through its return
    findings = interproc(lint_tree(tmp_path, {
        "repro/sgx/sealer.py":
            "def seal(query):\n    return bytes(query, 'utf-8')\n",
        "repro/core/main.py": """\
        from repro.sgx.sealer import seal


        def emit(message):
            print(message)


        def handle(query):
            emit(seal(query))
        """,
    }))
    assert findings == []


def test_exempt_module_keeps_span_key_hygiene(tmp_path):
    # trusted and adversary modules report no taint flows, but a
    # forbidden span key is telemetry hygiene, checked everywhere
    findings = lint_tree(tmp_path, {
        "repro/sgx/probe.py": """\
        def probe(span, query):
            print(query)
            span.set_attribute("token", 1)
        """,
    })
    assert [(f.rule, f.line) for f in findings] == [
        ("span-forbidden-key", 3)]


def test_pragma_on_the_sink_line_suppresses(tmp_path):
    findings = interproc(lint_tree(tmp_path, {
        "repro/core/prag.py": """\
        def emit(message):
            print(message)  # lint: allow(taint-interprocedural)


        def handle(query):
            emit(query)
        """,
    }))
    assert findings == []


# -- the JSON contract -----------------------------------------------------

def test_json_carries_witness_and_fingerprint(tmp_path):
    findings = lint_tree(tmp_path, {
        "repro/core/helper.py":
            "def leak(message):\n    print(message)\n",
        "repro/core/main.py":
            "from repro.core.helper import leak\n\n\n"
            "def handle(query):\n    leak(query)\n",
    })
    payload = json.loads(findings_to_json(findings))
    (entry,) = [e for e in payload
                if e["rule"] == "taint-interprocedural"]
    assert set(entry["witness"][0]) == {"file", "line", "symbol"}
    symbols = [hop["symbol"] for hop in entry["witness"]]
    assert symbols == ["parameter 'query' of handle", "leak(message)",
                       "print()"]
    assert len(entry["fingerprint"]) == 16
    int(entry["fingerprint"], 16)  # hex digest


def test_fingerprint_survives_unrelated_line_shifts(tmp_path):
    helper = "def leak(message):\n    print(message)\n"
    main = ("from repro.core.helper import leak\n\n\n"
            "def handle(query):\n    leak(query)\n")
    shifted = "# a comment\n# another\n\n" + main

    def fingerprint(base, main_src):
        findings = lint_tree(base, {"repro/core/helper.py": helper,
                                    "repro/core/main.py": main_src})
        (finding,) = interproc(findings)
        return finding.stable_id

    before = fingerprint(tmp_path / "a", main)
    after = fingerprint(tmp_path / "b", shifted)
    assert before == after
