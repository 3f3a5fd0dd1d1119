"""Source→sink path queries over the linked program graph.

This is ``repro lint``'s one taint analysis. A multi-source BFS walks
taint from every source node (query-text parameters and
``.text``/``.query`` attribute reads) toward the sink nodes recorded
per module (:mod:`repro.lint.pdg`). Each reachable sink yields at most
one finding, carried by its *shortest* path (ties break
deterministically via sorted adjacency and source enqueue order), and
the path's shape picks the rule:

- a **single edge** — the source expression feeds the sink directly
  (``print(query)``) — reports under the sink's own rule
  (``taint-wire``, ``taint-print``, ``taint-log``,
  ``taint-exception`` or ``taint-telemetry``) with no witness;
- a path through a **field node** (``self._q = query`` …
  ``print(self._q)``) → ``taint-field-flow``;
- any other multi-edge path crosses a call/return boundary →
  ``taint-interprocedural``.

Findings are anchored at the sink (``path:line``) with a line-free
message (function and sink names only, so baseline fingerprints
survive unrelated edits); multi-edge findings carry the full witness
as ``(file, line, symbol)`` hops for the text and JSON reports.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.linking import ProgramGraph
from repro.lint.pdg import Hop, Node, node_key

#: Cap on the functions named in a finding message; the witness
#: carries the full path regardless.
_CHAIN_LIMIT = 4


def _bfs(graph: ProgramGraph
         ) -> Dict[Node, Tuple[Optional[Node], str, Optional[Hop]]]:
    """Parent pointers of a multi-source shortest-path walk.

    Every source enters the queue at distance zero (sorted, so the
    tie-break between equal-length paths is stable); each node keeps
    the first (= shortest, lexicographically earliest) parent edge.
    """
    parents: Dict[Node, Tuple[Optional[Node], str, Optional[Hop]]] = {}
    queue: deque = deque()
    for source in sorted(graph.sources, key=node_key):
        if source not in parents:
            parents[source] = (None, "source", None)
            queue.append(source)
    while queue:
        node = queue.popleft()
        for dest, kind, hop in graph.adjacency.get(node, ()):
            if dest in parents:
                continue
            parents[dest] = (node, kind, hop)
            queue.append(dest)
    return parents


def _walk_back(parents, node: Node) -> List[Tuple[Node, str, Optional[Hop]]]:
    """The path to *node* as [(node, edge-kind-into-node, hop), ...],
    source first."""
    path: List[Tuple[Node, str, Optional[Hop]]] = []
    current: Optional[Node] = node
    while current is not None:
        prev, kind, hop = parents[current]
        path.append((current, kind, hop))
        current = prev
    path.reverse()
    return path


def _chain(graph: ProgramGraph, path) -> List[str]:
    """The function names a path crosses, in order, deduped."""
    names: List[str] = []
    source = path[0][0]
    if source[0] == "param":
        info = graph.functions.get(source[1])
        if info is not None:
            names.append(info.name)
    else:
        source_hop = graph.sources.get(source)
        if source_hop is not None:
            names.append(source_hop[2].rsplit(" in ", 1)[-1])
    for _node, kind, hop in path[1:]:
        if kind == "call" and hop is not None:
            callee = hop[2].split("(", 1)[0]
            if not names or names[-1] != callee:
                names.append(callee)
    return names


def _witness(graph: ProgramGraph, path) -> Tuple[Hop, ...]:
    hops: List[Hop] = []
    source = path[0][0]
    source_hop = graph.sources.get(source)
    if source_hop is not None:
        hops.append(source_hop)
    for _node, _kind, hop in path[1:]:
        if hop is not None and (not hops or hops[-1] != hop):
            hops.append(hop)
    return tuple(hops)


def _field_label(path) -> Optional[str]:
    for node, _kind, _hop in path:
        if node[0] == "field":
            class_short = node[1].split("::", 1)[-1]
            return f"{class_short}.{node[2]}"
    return None


def query_paths(graph: ProgramGraph) -> List[Finding]:
    """Every source→sink flow, one finding per reachable sink."""
    parents = _bfs(graph)
    findings: List[Finding] = []
    for sink in sorted(graph.sink_info, key=node_key):
        if sink not in parents:
            continue
        path = _walk_back(parents, sink)
        descr, rule, sink_hop = graph.sink_info[sink]
        if len(path) == 2:
            findings.append(Finding(
                path=sink_hop[0], line=sink_hop[1], rule=rule,
                message=f"query text flows into {descr}"))
            continue
        source_hop = graph.sources.get(path[0][0])
        source_desc = source_hop[2] if source_hop is not None \
            else "a query-text source"
        flow = f"query text from {source_desc} flows into {descr}"
        # past its first edge a path continues only through a field
        # write or a call/return boundary
        if any(kind == "field-write" for _node, kind, _hop in path):
            rule = "taint-field-flow"
            message = f"{flow} through field {_field_label(path)}"
        else:
            names = _chain(graph, path)
            chain = " -> ".join(names[:_CHAIN_LIMIT]) + \
                (" -> ..." if len(names) > _CHAIN_LIMIT else "")
            rule = "taint-interprocedural"
            message = f"{flow} via {chain}"
        findings.append(Finding(
            path=sink_hop[0], line=sink_hop[1], rule=rule,
            message=message, witness=_witness(graph, path)))
    return findings
