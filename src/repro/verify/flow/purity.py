"""Purity certification: propagate effects over the call graph.

Combines the conservative call graph
(:mod:`repro.verify.flow.callgraph`) with the local effect scan
(:mod:`repro.verify.flow.effects`) into whole-program summaries, then
certifies that everything reachable from the declared entry points is
ambient-free -- or fails with a **witness call chain**::

    run_point_spec -> build_point -> resolve_engine reads os.environ

The certificate is machine-checkable JSON: entries, the reachable
closure size, every violation with its chain, every allowlisted sink
that was actually reached (with its justification), and the soundness
assumptions the analysis made (dynamic calls it could not resolve,
generic container methods it did not name-match).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.verify.flow.allowlist import PURITY_ALLOWLIST
from repro.verify.flow.callgraph import ProjectGraph
from repro.verify.flow.effects import Effect, function_effects

CERTIFICATE_VERSION = 1

#: The cache compute closure's certified entry points: the worker
#: payload function, the plain experiment point it wraps, the point
#: pipeline's assembly step every layered point stacks on, and the
#: engine/scheduler run loops everything executes on.
DEFAULT_ENTRY_POINTS = (
    "repro.serve.compute.run_point_spec",
    "repro.experiments.runner.run_point",
    "repro.experiments.runner.build_point",
    "repro.wormhole.engine.WormholeEngine.step_cycle",
    "repro.sim.core.Environment.run",
)


@dataclass(frozen=True)
class Violation:
    """One impure function reachable from an entry point."""

    function: str          # qualname owning the effect
    effect: Effect
    chain: Tuple[str, ...]  # entry -> ... -> function (call path)

    def witness(self) -> str:
        arrow = " -> ".join(self.chain)
        return f"{arrow} :: {self.effect}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "effect": self.effect.to_dict(),
            "chain": list(self.chain),
        }


@dataclass
class PurityCertificate:
    """The machine-checkable result of one certification run."""

    entries: Tuple[str, ...]
    reachable: int
    violations: List[Violation] = field(default_factory=list)
    allowlist_uses: Dict[str, str] = field(default_factory=dict)
    missing_entries: List[str] = field(default_factory=list)
    unused_allowlist: List[str] = field(default_factory=list)
    dynamic_calls: int = 0
    generic_skipped: int = 0
    functions_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.missing_entries

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": CERTIFICATE_VERSION,
            "ok": self.ok,
            "entries": list(self.entries),
            "functions_analyzed": self.functions_analyzed,
            "reachable": self.reachable,
            "violations": [v.to_dict() for v in self.violations],
            "allowlist_uses": dict(sorted(self.allowlist_uses.items())),
            "unused_allowlist": sorted(self.unused_allowlist),
            "missing_entries": list(self.missing_entries),
            "assumptions": {
                "dynamic_calls_unresolved": self.dynamic_calls,
                "generic_methods_skipped": self.generic_skipped,
            },
        }

    def render(self, verbose: bool = False) -> str:
        lines: List[str] = []
        verdict = "PURE" if self.ok else "IMPURE"
        lines.append(
            f"purity certificate: {verdict} -- {self.reachable} function(s) "
            f"reachable from {len(self.entries)} entry point(s)"
        )
        for entry in self.missing_entries:
            lines.append(f"  MISSING ENTRY: {entry} (not found in project)")
        for v in self.violations:
            lines.append(f"  WITNESS: {v.witness()}")
        if self.allowlist_uses:
            lines.append(
                f"  {len(self.allowlist_uses)} allowlisted sink(s) reached:"
            )
            for name, why in sorted(self.allowlist_uses.items()):
                lines.append(f"    - {name}")
                if verbose:
                    lines.append(f"        {why}")
        if self.unused_allowlist:
            lines.append(
                f"  {len(self.unused_allowlist)} allowlist entr(ies) not "
                f"reached (candidates for removal): "
                + ", ".join(sorted(self.unused_allowlist))
            )
        lines.append(
            f"  assumptions: {self.dynamic_calls} dynamic call(s) "
            f"unresolved, {self.generic_skipped} generic container "
            "method(s) not name-matched"
        )
        return "\n".join(lines)


@dataclass
class ProjectAnalysis:
    """A parsed project with per-function local effect summaries."""

    graph: ProjectGraph
    local_effects: Dict[str, List[Effect]] = field(default_factory=dict)

    @classmethod
    def of_graph(cls, graph: ProjectGraph) -> "ProjectAnalysis":
        analysis = cls(graph=graph)
        for qual, fn in graph.functions.items():
            mod = graph.modules[fn.module]
            analysis.local_effects[qual] = function_effects(fn, mod)
        return analysis

    @classmethod
    def from_package(
        cls, root: Path, package: str = "repro"
    ) -> "ProjectAnalysis":
        return cls.of_graph(ProjectGraph.from_package(root, package))

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], package: str = "repro"
    ) -> "ProjectAnalysis":
        return cls.of_graph(ProjectGraph.from_sources(sources, package))


def certify(
    analysis: ProjectAnalysis,
    entries: Sequence[str] = DEFAULT_ENTRY_POINTS,
    allowlist: Optional[Dict[str, str]] = None,
) -> PurityCertificate:
    """Certify the entry points' reachable closure ambient-free.

    Allowlisted functions act as *summary barriers*: they are recorded
    when reached (with their justification) but neither their own
    effects nor their callees' propagate -- the justification asserts
    the whole subtree result-neutral.
    """
    if allowlist is None:
        allowlist = PURITY_ALLOWLIST
    graph = analysis.graph
    cert = PurityCertificate(
        entries=tuple(entries),
        reachable=0,
        functions_analyzed=len(graph.functions),
    )

    # BFS over call edges, remembering the first (shortest) call chain
    # that reached each function -- that chain is the witness.
    parent: Dict[str, Optional[str]] = {}
    queue: List[str] = []
    for entry in entries:
        if entry not in graph.functions:
            cert.missing_entries.append(entry)
            continue
        if entry not in parent:
            parent[entry] = None
            queue.append(entry)

    while queue:
        qual = queue.pop(0)
        fn = graph.functions[qual]
        if qual in allowlist:
            cert.allowlist_uses[qual] = allowlist[qual]
            continue  # summary barrier: do not scan or descend
        cert.reachable += 1
        cert.dynamic_calls += len(fn.unresolved)
        cert.generic_skipped += fn.generic_skipped
        for eff in analysis.local_effects.get(qual, ()):
            cert.violations.append(
                Violation(
                    function=qual,
                    effect=eff,
                    chain=_chain(parent, qual),
                )
            )
        for callee in sorted(fn.calls):
            if callee not in parent and callee in graph.functions:
                parent[callee] = qual
                queue.append(callee)

    cert.unused_allowlist = sorted(
        set(allowlist) - set(cert.allowlist_uses)
    )
    cert.violations.sort(key=lambda v: (len(v.chain), v.function, v.effect.line))
    return cert


def _chain(parent: Dict[str, Optional[str]], qual: str) -> Tuple[str, ...]:
    chain: List[str] = []
    cur: Optional[str] = qual
    while cur is not None:
        chain.append(cur)
        cur = parent[cur]
    return tuple(reversed(chain))
