"""Per-file fact extraction for the whole-program analysis.

The program layer never re-walks an AST during graph construction:
everything the PERF rules need is distilled here into plain dicts
(:class:`FileFacts`), keyed by the defining function.  Facts depend
only on the file's bytes and its dotted module path, never on another
file.

Facts recorded per function (including nested functions and the module
top level as the pseudo-function ``<module>``):

* whether it carries ``# repro-lint: hot-loop`` (a PERF hot root);
* outgoing calls with import-origin-resolved targets, feeding the call
  graph;
* bare-name / ``self.X`` references passed as call arguments — the
  callback pattern (``internet.exchange(engine, packet, now, deliver)``)
  that a pure call graph would miss;
* perf sites (:func:`.perf.perf_sites`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import SourceFile
from ..index import (
    Scope,
    ScopeIndex,
    Site,
    dotted_name,
    level_order,
    name_or_self,
    resolve_call_target,
)
from . import perf


@dataclass
class FunctionFact:
    """Everything later passes need to know about one function."""

    qname: str  # dotted path inside the module ("Engine.run", "outer.inner")
    line: int
    method: bool  # defined directly inside a class body
    hot: bool  # marked `# repro-lint: hot-loop` (PERF hot root)
    #: outgoing calls: see :func:`_call_fact`.
    calls: List[Dict[str, Any]] = field(default_factory=list)
    #: bare-name / self.X references passed as call arguments.
    refs: List[Tuple[str, int]] = field(default_factory=list)
    #: perf sites: {"rule", "kind", "line", "loop", "detail"} (see :mod:`.perf`).
    perf: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class FileFacts:
    """Facts for one source file, independent of every other file."""

    module: str
    functions: List[FunctionFact] = field(default_factory=list)
    #: True when the file failed to parse (facts are empty, not absent).
    parse_error: bool = False


def extract_facts(file: SourceFile) -> FileFacts:
    """Distill one file's scope index into :class:`FileFacts` (a pure
    function of the file's bytes and module path)."""
    facts = FileFacts(module=file.module, parse_error=file.error is not None)
    if facts.parse_error:
        return facts
    index = file.index
    for scope in index.frames:
        # Breadth-first: the order call / ref facts are defined in.
        own = level_order(scope.own)
        facts.functions.append(_function_fact(scope, own, index))
    facts.functions.sort(key=lambda fact: (fact.line, fact.qname))
    return facts


# ---------------------------------------------------------------------------
# per-function facts


def _function_fact(scope: Scope, own: List[Site], index: ScopeIndex) -> FunctionFact:
    origins = index.origins
    fact = FunctionFact(
        qname=scope.qname,
        line=getattr(scope.node, "lineno", 1),
        method=scope.method,
        hot=index.marked(scope.node, "hot-loop"),
    )
    for site in own:
        node = site.node
        if not isinstance(node, ast.Call):
            continue
        fact.calls.append(_call_fact(node, resolve_call_target(node.func, origins)))
        for arg in node.args:
            ref = name_or_self(arg)
            if ref is not None:
                fact.refs.append((ref, node.lineno))
    fact.perf = perf.perf_sites(scope, origins)
    return fact


def _call_fact(node: ast.Call, target: Optional[str]) -> Dict[str, Any]:
    return {
        "target": target,
        "raw": dotted_name(node.func),
        "attr": node.func.attr if isinstance(node.func, ast.Attribute) else None,
        "line": node.lineno,
    }
