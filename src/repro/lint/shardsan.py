"""ShardSan — the runtime shared-world write sanitizer.

MUT101 proves statically that worker-reachable code only writes
registered per-run state; ShardSan checks what a *running* campaign
actually writes.  Inside a ``ShardSan`` region every class registered
via :func:`repro.netsim.runstate.run_state` gets a guarded
``__setattr__``: an attribute write that is neither a registered
per-run field, a ``shared=`` cache, nor part of object construction is
recorded (and, in ``raise`` mode, aborts on the spot)::

    with ShardSan(mode="record") as san:
        world = _world_for(spec.internet)
        san.watch(world)                  # wrap unregistered containers
        run_parallel(spec, shards=4, processes=1)
    assert not san.reports

``watch`` covers the half ``__setattr__`` cannot see: mutating the
*contents* of an unregistered container field (``router.interfaces
.append(...)``, ``truth.routers[...] = ...``) never triggers a setattr.
Watching a built world replaces every plain ``list``/``dict`` attribute
that is **not** covered by a ``@run_state`` registration with a tracked
subclass whose mutators report before delegating; registered containers
(``RouterState.atomic_frag_until``) and ``shared=`` caches
(``Internet._path_cache``) stay untouched because mutating them is the
sanctioned contract.  On exit every tracked container is converted back
to its plain type, preserving whatever mutations record mode let
through.

Two standing exemptions mirror the static build cut exactly:

* callers in ``repro.netsim.build`` — constructing a world is not
  mutating one (MUT101 cuts the same edges);
* this module itself, so wrapping/unwrapping cannot trip the wires.

Modes, the LIFO patch stack and the caller scope (only calls from
``repro.*`` modules trip, so the test harness and stdlib internals pass
through) are the shared :class:`~repro.lint.sanitizer.Sanitizer` base.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, List, Set, Tuple

from ..netsim.runstate import RunState
from .sanitizer import Sanitizer

#: Container mutators guarded on tracked lists.
_LIST_MUTATORS = (
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "__setitem__",
    "__delitem__",
    "__iadd__",
    "__imul__",
)

#: Container mutators guarded on tracked dicts.
_DICT_MUTATORS = (
    "__setitem__",
    "__delitem__",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "__ior__",
)


class ShardSanViolation(RuntimeError):
    """An unregistered world write happened inside a ShardSan region."""


class ShardSanUsageError(RuntimeError):
    """ShardSan itself was misconfigured."""


def _slot_names(cls: type) -> List[str]:
    """All slot names declared along the MRO (deduplicated, in order)."""
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in names:
                names.append(name)
    return names


def _allowed_fields(cls: type) -> Set[str]:
    """Fields a registered class may write outside construction."""
    allowed: Set[str] = set()
    for klass in cls.__mro__:
        if RunState.is_registered(klass):
            allowed |= set(RunState.fields(klass))
            allowed |= set(RunState.shared(klass))
    return allowed


class ShardSan(Sanitizer):
    """Context manager guarding writes to the shared simulated world."""

    violation = ShardSanViolation
    usage_error = ShardSanUsageError
    #: Constructing a world is not mutating one (MUT101 cuts the same
    #: edges); this module itself wraps/unwraps while the wires are live.
    exempt_prefixes = ("repro.lint.shardsan", "repro.netsim.build")
    summary_format = "unregistered %s write %s from %s"
    violation_format = (
        "ShardSan: %s — worker-side code may only write state registered "
        "via @run_state (see repro.netsim.runstate and docs/determinism.md)"
    )

    def __init__(self, mode: str = "raise") -> None:
        super().__init__(mode)
        #: (object, attr, plain type) of containers wrapped by watch().
        self._watched: List[Tuple[Any, str, type]] = []
        #: ids of instances currently inside __init__ (writes exempt).
        self._constructing: Set[int] = set()

    def __exit__(self, *exc_info: Any) -> None:
        self.unwatch()
        super().__exit__(*exc_info)

    def _install(self) -> None:
        for cls in RunState.classes():
            self._patch(cls, "__setattr__", self._guarded_setattr(cls))
            original_init = cls.__dict__.get("__init__")
            if original_init is not None:
                self._patch(cls, "__init__", self._guarded_init(original_init))

    # -- tripwires ---------------------------------------------------------

    def _guarded_setattr(self, cls: type) -> Callable[..., None]:
        allowed = _allowed_fields(cls)
        original = cls.__setattr__

        def guarded_setattr(obj: Any, name: str, value: Any) -> None:
            if name not in allowed and id(obj) not in self._constructing:
                self._check(
                    "setattr", "%s.%s" % (cls.__name__, name), sys._getframe(1)
                )
            original(obj, name, value)

        return guarded_setattr

    def _guarded_init(self, original: Callable[..., None]) -> Callable[..., None]:
        def guarded_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            self._constructing.add(id(obj))
            try:
                original(obj, *args, **kwargs)
            finally:
                self._constructing.discard(id(obj))

        return guarded_init

    def _check(self, kind: str, target: str, frame: Any) -> None:
        """Report a write made from ``frame`` if its module is in scope."""
        caller = frame.f_globals.get("__name__", "")
        if self._in_scope(caller):
            self._report(kind, target, caller, frame)

    # -- container watching ------------------------------------------------

    def watch(self, internet: Any) -> int:
        """Wrap every unregistered plain list/dict attribute reachable
        from ``internet``'s world objects; returns the number wrapped."""
        wrapped = 0
        for obj in self._world_objects(internet):
            wrapped += self._watch_object(obj)
        return wrapped

    def unwatch(self) -> None:
        """Convert every tracked container back to its plain type."""
        while self._watched:
            obj, name, plain = self._watched.pop()
            current = getattr(obj, name)
            object.__setattr__(obj, name, plain(current))

    def _world_objects(self, internet: Any) -> Iterable[Any]:
        yield internet
        built = getattr(internet, "built", None)
        if built is not None:
            yield built
        truth = getattr(internet, "truth", None)
        if truth is None:
            return
        yield truth
        for asys in truth.ases.values():
            yield asys
            yield asys.plan
        for router in truth.routers.values():
            yield router
        for subnet in truth.subnets.values():
            yield subnet

    def _watch_object(self, obj: Any) -> int:
        cls = type(obj)
        allowed = _allowed_fields(cls)
        names = _slot_names(cls) or sorted(vars(obj))
        wrapped = 0
        for name in names:
            if name in allowed:
                continue  # mutating registered state is the contract
            value = getattr(obj, name, None)
            label = "%s.%s" % (cls.__name__, name)
            tracked_type = _TRACKED.get(type(value))
            if tracked_type is None:
                continue
            tracked = tracked_type(value)
            tracked._shardsan = (self, label)
            object.__setattr__(obj, name, tracked)
            self._watched.append((obj, name, type(value)))
            wrapped += 1
        return wrapped


def _make_container_mutator(
    base: type, method: str, kind: str
) -> Callable[..., Any]:
    original = getattr(base, method)

    def guarded(self: Any, *args: Any, **kwargs: Any) -> Any:
        hook = getattr(self, "_shardsan", None)
        if hook is not None:
            sanitizer, label = hook
            sanitizer._check(
                kind, "%s.%s" % (label, method.strip("_")), sys._getframe(1)
            )
        return original(self, *args, **kwargs)

    guarded.__name__ = method
    return guarded


class _TrackedList(list):
    """A list whose mutators report to the owning ShardSan."""

    #: set post-construction to (sanitizer, label); plain lists created
    #: by slicing/copying a tracked list have no hook and pass through.
    _shardsan: Any = None


class _TrackedDict(dict):
    """A dict whose mutators report to the owning ShardSan."""

    _shardsan: Any = None


#: plain container type -> its tracked subclass (exact types only).
_TRACKED = {list: _TrackedList, dict: _TrackedDict}

for _base, _mutators in ((list, _LIST_MUTATORS), (dict, _DICT_MUTATORS)):
    for _method in _mutators:
        setattr(
            _TRACKED[_base],
            _method,
            _make_container_mutator(_base, _method, _base.__name__),
        )
del _base, _mutators, _method
