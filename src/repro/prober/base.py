"""The prober contract: what a campaign prober is, written once.

:func:`~repro.prober.campaign.run_campaign` drives any prober through
four members — ``next_probe(now)``, ``receive(data, now)``, ``exhausted``
and ``summary()`` — and reads its results off ``processor``.
:class:`Prober` owns everything those members need that does not depend
on the probing *strategy*; :class:`WaveProber` adds what the two
stateful baselines share (windowed per-trace state, emitted in waves).
A strategy is then one subclass naming its config type as ``Config``
plus one row in :data:`repro.prober.campaign.PROBERS`.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .encoding import PROTOCOLS, ProbeTemplate
from .permutation import check_ttl_range
from .records import ProbeRecord, ResponseProcessor


class Prober:
    """Source, targets, config, response processor and the sent counter.

    A subclass sets ``Config`` (a dataclass with at least ``instance``
    and ``protocol``; ``Config()`` is the default configuration) and
    supplies :attr:`exhausted`, :meth:`next_probe` and :meth:`receive`.

    A config the probe cannot carry (an ``instance`` past one byte, a
    ``protocol`` with no template) is refused here, at construction
    (``ValueError``), never mid-campaign by whichever emission trips
    first; subclasses check the fields they add.
    """

    #: The subclass's config dataclass.
    Config: ClassVar[type]

    def __init__(
        self,
        source: int,
        targets: Sequence[int],
        config: Optional[Any] = None,
    ) -> None:
        self.source = source
        self.targets = list(targets)
        self.config = config or self.Config()
        if not self.targets:
            raise ValueError("no targets")
        if not 0 <= self.config.instance <= 255:
            raise ValueError("instance must be in 0-255: %r" % self.config.instance)
        if self.config.protocol not in PROTOCOLS:
            raise ValueError(
                "protocol must be one of %s: %r"
                % (", ".join(sorted(PROTOCOLS)), self.config.protocol)
            )
        self.processor = ResponseProcessor(self.config.instance)
        self.sent = 0
        #: The one crafting path, and the one buffer every emission of
        #: this prober is patched into.
        self._template = ProbeTemplate(
            source, instance=self.config.instance, protocol=self.config.protocol
        )
        self._template_buffer = self._template.new_buffer()

    # -- emission --------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once :meth:`next_probe` will never return a packet again."""
        raise NotImplementedError

    def next_probe(self, now: int) -> Optional[bytes]:
        """The next probe packet to emit at virtual time ``now`` (None
        when there is nothing to send right now)."""
        raise NotImplementedError

    def _emit(self, target: int, ttl: int, now: int) -> bytes:
        """Count one emission and craft its packet."""
        self.sent += 1
        buffer = self._template_buffer
        self._template.encode_into(buffer, target, ttl, now & 0xFFFFFFFF)
        return bytes(buffer)

    # -- reception -------------------------------------------------------
    def receive(self, data: bytes, now: int) -> Optional[ProbeRecord]:
        """Feed a response packet back to the prober."""
        raise NotImplementedError

    # -- results ---------------------------------------------------------
    @property
    def records(self) -> List[ProbeRecord]:
        return self.processor.records

    @property
    def interfaces(self) -> Set[int]:
        return self.processor.interfaces

    def summary(self) -> Dict[str, int]:
        """Counters for reporting; subclasses add their own."""
        return {
            "sent": self.sent,
            "received": self.processor.received,
            "interfaces": len(self.processor.interfaces),
        }


class WaveProber(Prober):
    """A stateful prober tracing a window of targets at a time.

    Targets are taken ``config.window`` at a time; each gets a
    ``State(target)`` registered for response lookup, and the subclass's
    :meth:`_waves` says which ``(target, ttl)`` pairs the block emits, in
    order.  Responses reach the subclass as :meth:`_on_record` with the
    target's state, which is how a trace learns to stop.
    """

    #: Per-trace state, constructed as ``State(target)``; needs ``target``
    #: and ``terminal`` attributes.
    State: ClassVar[type]

    def __init__(
        self,
        source: int,
        targets: Sequence[int],
        config: Optional[Any] = None,
    ) -> None:
        super().__init__(source, targets, config)
        # The baselines probe from TTL 1.
        check_ttl_range(1, self.config.max_ttl)
        if self.config.window < 1:
            raise ValueError("window must be >= 1: %r" % self.config.window)
        self._traces: Dict[int, Any] = {}
        #: The (target, ttl) stream; a generator, so nothing runs until
        #: the first :meth:`next_probe`.  None once drained.
        self._emitter: Optional[Iterator[Tuple[int, int]]] = self._emission_order()

    def _emission_order(self) -> Iterator[Tuple[int, int]]:
        window = self.config.window
        for start in range(0, len(self.targets), window):
            block = [
                self.State(target) for target in self.targets[start : start + window]
            ]
            for trace in block:
                self._traces[trace.target] = trace
            yield from self._waves(block)

    def _waves(self, block: List[Any]) -> Iterator[Tuple[int, int]]:
        """The (target, ttl) pairs one window block emits, in wire order."""
        raise NotImplementedError

    def _on_record(self, trace: Any, record: ProbeRecord) -> None:
        """Update ``trace`` for a decoded response to one of its probes."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        return self._emitter is None

    def next_probe(self, now: int) -> Optional[bytes]:
        if self._emitter is None:
            return None
        try:
            target, ttl = next(self._emitter)
        except StopIteration:
            self._emitter = None
            return None
        return self._emit(target, ttl, now)

    def receive(self, data: bytes, now: int) -> Optional[ProbeRecord]:
        record = self.processor.process(data, now, self.sent)
        if record is not None:
            trace = self._traces.get(record.target)
            if trace is not None:
                self._on_record(trace, record)
        return record

    @property
    def completed_traces(self) -> int:
        """Traces that reached their destination or a terminal error."""
        return sum(1 for trace in self._traces.values() if trace.terminal)
