"""Shared machinery for the mutation rules: the world model.

The three MUT rules answer one question from three directions: *which
writes can touch the shared world, and does the RunState registry
account for them?*  Reachability (with the build cut: build-phase writes
construct the world rather than mutate it mid-run) is
:func:`repro.lint.program.graph.reachable_from`; this module owns the
rest of what they share:

* :class:`WorldModel` — every class declaration in the program joined
  with its ``@run_state(...)`` registration (fields rewound per run,
  ``shared=`` caches that survive the rewind, ``constructed_per_run``
  instances that never outlive a run);
* :func:`expand` — alias expansion of store paths against the
  function's single-assignment alias map (``slots = self._slots`` makes
  ``slots.append(cb)`` a write to ``self._slots``);
* :func:`resolve_store` — the store-to-world-field resolution the rules
  interpret: a write is attributed to registered per-run state, to a
  ``shared`` cache, to unregistered world state (a finding), or skipped
  when it provably targets non-world state.

Resolution order for an expanded dotted path:

1. single-component paths are locals — skipped;
2. ``self.field`` inside a world class checks ``field`` against the
   class's own registration;
3. longer paths pass if any *intermediate* component is a registered
   field program-wide (the **handle rule**: ``self.stats.probes += 1``
   mutates through the registered per-run handle ``stats``);
4. otherwise the final field name is looked up program-wide: if it is
   declared by at least one world class and by **no** non-world class,
   the write is attributed to those world declarers (``state.limiter.
   observer = None`` resolves through ``observer`` to the bucket
   class); a field declared on both sides of the world boundary is
   ambiguous and skipped — the rules only report what they can prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .facts import FileFacts
from .graph import ProgramGraph

#: Modules whose classes make up the shared simulated world.
WORLD_PREFIX = "repro.netsim"

#: The rewind entry point (MUT102 root).
REWIND_ROOTS = ("repro.netsim.internet.Internet.fresh_run_state",)

#: Alias chains longer than this are degenerate (`x = x.next` style);
#: expansion stops rather than looping.
ALIAS_EXPANSION_LIMIT = 4


def is_world_module(module: str) -> bool:
    return module == WORLD_PREFIX or module.startswith(WORLD_PREFIX + ".")


@dataclass
class ClassModel:
    """One class declaration joined with its RunState registration."""

    module: str
    name: str
    line: int
    path: str  # defining file
    fields: Dict[str, int]  # declared field -> declaration line
    registered: bool
    reg_line: Optional[int]
    run_state: Set[str]
    run_shared: Set[str]
    per_run: bool

    @property
    def world(self) -> bool:
        return is_world_module(self.module)

    @property
    def label(self) -> str:
        return "%s.%s" % (self.module.rsplit(".", 1)[-1], self.name)

    def covers(self, name: str) -> bool:
        return name in self.run_state or name in self.run_shared


@dataclass
class WorldModel:
    """All class declarations in the program, indexed for resolution."""

    classes: Dict[Tuple[str, str], ClassModel] = field(default_factory=dict)
    #: field name -> classes declaring it (world and non-world alike).
    by_field: Dict[str, List[ClassModel]] = field(default_factory=dict)
    #: union of per-run fields over registered world classes.
    registered_union: Set[str] = field(default_factory=set)
    #: union of ``shared=`` fields over registered world classes.
    shared_union: Set[str] = field(default_factory=set)

    @classmethod
    def from_facts(cls, facts: Dict[str, FileFacts]) -> "WorldModel":
        model = cls()
        for path in sorted(facts):
            file_facts = facts[path]
            for info in file_facts.classes:
                entry = ClassModel(
                    module=file_facts.module,
                    name=info["name"],
                    line=info["line"],
                    path=path,
                    fields=dict(info["fields"]),
                    registered=info["registered"],
                    reg_line=info["reg_line"],
                    run_state=set(info["run_state"]),
                    run_shared=set(info["run_shared"]),
                    per_run=info["per_run"],
                )
                key = (entry.module, entry.name)
                if key in model.classes:
                    continue  # duplicate class name in one module
                model.classes[key] = entry
                declared = set(entry.fields) | entry.run_state | entry.run_shared
                for name in declared:
                    model.by_field.setdefault(name, []).append(entry)
                if entry.registered and entry.world:
                    model.registered_union |= entry.run_state
                    model.shared_union |= entry.run_shared
        for declarers in model.by_field.values():
            declarers.sort(key=lambda item: (item.module, item.name))
        return model

    def registered_world_classes(self) -> List[ClassModel]:
        return sorted(
            (
                entry
                for entry in self.classes.values()
                if entry.registered and entry.world
            ),
            key=lambda item: (item.module, item.name),
        )

    def owner_of(self, graph: ProgramGraph, full: str) -> Optional[ClassModel]:
        """The ClassModel enclosing a method node, if any."""
        fact, module, _ = graph.nodes[full]
        if not fact.method or "." not in fact.qname:
            return None
        class_name = fact.qname.rsplit(".", 2)[-2]
        return self.classes.get((module, class_name))


# ---------------------------------------------------------------------------
# store path resolution


def expand(path: str, aliases: Dict[str, str]) -> str:
    """Expand the leading component of ``path`` through the alias map."""
    for _ in range(ALIAS_EXPANSION_LIMIT):
        head, sep, rest = path.partition(".")
        replacement = aliases.get(head)
        if replacement is None or replacement.partition(".")[0] == head:
            break
        path = replacement + sep + rest
    return path


#: resolve_store verdicts.
OK = "ok"
SKIP = "skip"
UNREGISTERED = "unregistered"


@dataclass
class StoreResolution:
    verdict: str  # OK | SKIP | UNREGISTERED
    #: world classes the write is attributed to (empty for handle-rule
    #: passes, where the write goes through a registered handle).
    classes: List[ClassModel] = field(default_factory=list)
    #: final field the write targets (None when skipped).  Declared last:
    #: the annotation binds ``field`` in the class namespace, which would
    #: shadow :func:`dataclasses.field` for any later default_factory.
    field: Optional[str] = None


def resolve_store(
    parts: Sequence[str],
    owner: Optional[ClassModel],
    model: WorldModel,
) -> StoreResolution:
    """Classify one alias-expanded store path (see module docstring)."""
    if len(parts) < 2:
        return StoreResolution(SKIP)  # bare local
    known = model.registered_union | model.shared_union
    if parts[0] == "self":
        if owner is None or not owner.world:
            return StoreResolution(SKIP)  # a class's own non-world state
        target = parts[1]
        if len(parts) == 2:
            if owner.covers(target):
                return StoreResolution(OK, field=target, classes=[owner])
            return StoreResolution(UNREGISTERED, field=target, classes=[owner])
        # handle rule: writing *through* registered per-run state.
        if any(component in known for component in parts[1:-1]):
            return StoreResolution(OK, field=parts[-1])
        return StoreResolution(UNREGISTERED, field=parts[-1], classes=[owner])
    # Non-self path: handle rule first, then name-based attribution.
    if len(parts) > 2 and any(component in known for component in parts[1:-1]):
        return StoreResolution(OK, field=parts[-1])
    target = parts[-1]
    declarers = model.by_field.get(target, [])
    world = [entry for entry in declarers if entry.world]
    outside = [entry for entry in declarers if not entry.world]
    if not world or outside:
        # Not world state, or ambiguous across the world boundary.
        return StoreResolution(SKIP)
    if any(entry.covers(target) for entry in world):
        return StoreResolution(
            OK, field=target, classes=[e for e in world if e.covers(target)]
        )
    return StoreResolution(UNREGISTERED, field=target, classes=world)
