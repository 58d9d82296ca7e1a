"""Declarative registry of per-run (campaign-scoped) mutable state.

The build-once shared-world design (see ``docs/performance.md``) is
correct only while two properties hold: no worker mutates world state
another shard can observe, and :meth:`Internet.fresh_run_state
<repro.netsim.internet.Internet.fresh_run_state>` rewinds *every* field
a campaign can dirty.  This module makes the set of run-scoped fields a
first-class, machine-readable declaration instead of a comment: world
classes annotate themselves with :func:`run_state`, and two enforcers
read the registry back —

* **MUT101/MUT102** (``repro.lint.program``) statically prove that every
  worker-reachable write lands on a registered field and that the
  registered set and the ``fresh_run_state`` reset set coincide;
* **ShardSan** (``repro.lint.shardsan``) wraps the registered classes at
  runtime and trips on any unregistered ``__setattr__``/container write.

Three categories exist:

``run_state(*fields)``
    campaign-scoped state that ``fresh_run_state`` must rewind (the
    stats block, the per-router state table, the loss RNG) — all of it
    on ``Internet``; a registration with *no* fields (``Router``)
    declares a built-world class nothing may write after the build;
``shared=(...)``
    state that deliberately **survives** the rewind because it is a pure
    function of the immutable topology (the compiled-path cache) —
    mutating it is idempotent and observationally invisible;
``constructed_per_run=True``
    classes whose *instances* are created fresh for every run (the
    engine, the stats block, a router's run state and its token bucket)
    — their fields are legal write targets but
    are exempt from the rewind-completeness check, since no instance
    outlives a run.

The decorator itself lives here (dependency-free) so ``topology``,
``ratelimit`` and ``engine`` can import it without cycling through
:mod:`repro.netsim.internet`, which re-exports it as the public name.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List, Sequence, Tuple, Type, TypeVar

_C = TypeVar("_C", bound=type)

#: Class attributes the decorator installs (introspect via :class:`RunState`).
RUN_STATE_ATTR = "__run_state_fields__"
RUN_SHARED_ATTR = "__run_shared_fields__"
RUN_PER_RUN_ATTR = "__run_state_per_run__"

_REGISTERED: List[type] = []


def run_state(
    *fields: str,
    shared: Sequence[str] = (),
    constructed_per_run: bool = False,
) -> Callable[[_C], _C]:
    """Class decorator declaring which attributes are per-run state.

    ``fields`` are the attributes a campaign run may write and the
    rewind must reset; ``shared`` are attributes that intentionally
    survive the rewind (pure caches); ``constructed_per_run`` marks
    classes whose instances never outlive a single run.
    """
    declared = frozenset(fields)
    surviving = frozenset(shared)
    overlap = declared & surviving
    if overlap:
        raise ValueError(
            "fields cannot be both per-run and shared: %s"
            % ", ".join(sorted(overlap))
        )

    def mark(cls: _C) -> _C:
        setattr(cls, RUN_STATE_ATTR, declared)
        setattr(cls, RUN_SHARED_ATTR, surviving)
        setattr(cls, RUN_PER_RUN_ATTR, constructed_per_run)
        _REGISTERED.append(cls)
        return cls

    return mark


class RunState:
    """Introspection facade over the :func:`run_state` registry."""

    @staticmethod
    def fields(cls: type) -> FrozenSet[str]:
        """Registered per-run fields of ``cls`` (empty if unregistered)."""
        value = getattr(cls, RUN_STATE_ATTR, frozenset())
        return value if isinstance(value, frozenset) else frozenset()

    @staticmethod
    def shared(cls: type) -> FrozenSet[str]:
        """Registered rewind-surviving fields of ``cls``."""
        value = getattr(cls, RUN_SHARED_ATTR, frozenset())
        return value if isinstance(value, frozenset) else frozenset()

    @staticmethod
    def constructed_per_run(cls: type) -> bool:
        return bool(getattr(cls, RUN_PER_RUN_ATTR, False))

    @staticmethod
    def is_registered(cls: type) -> bool:
        return RUN_STATE_ATTR in cls.__dict__

    @staticmethod
    def classes() -> Tuple[Type[object], ...]:
        """Every class registered so far, in registration order."""
        return tuple(_REGISTERED)
