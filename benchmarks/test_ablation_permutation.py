"""Ablation — how much of Yarrp6's advantage is the permutation?

Design choice 3 in DESIGN.md: the cipher-based bijective shuffle of the
(target x TTL) space.  We compare, at a fixed rate and probe budget:

* full permutation (Yarrp6 proper);
* TTL-major order (all TTL=1 probes first — maximal per-hop bursts);
* target-major order (per-destination TTL sweeps, the classic
  traceroute emission order).

The permutation must dominate at speed; TTL-major is worst-case for the
near hops' buckets.
"""

import random
from heapq import heappop, heappush

from repro.analysis import per_hop_responsiveness, render_table
from repro.hitlist import fixediid, zn
from repro.netsim import Internet
from repro.netsim.engine import pps_interval
from repro.prober import run_yarrp6
from repro.prober.campaign import CampaignResult
from repro.prober.yarrp6 import Yarrp6, Yarrp6Config

MAX_TTL = 16
RATE = 2000.0


class _OrderedYarrp(Yarrp6):
    """Yarrp6 with the permutation replaced by a fixed emission order."""

    def __init__(self, source, targets, config, order):
        super().__init__(source, targets, config)
        if order == "ttl-major":
            pairs = [
                (index, ttl)
                for ttl in range(config.min_ttl, config.max_ttl + 1)
                for index in range(len(targets))
            ]
        else:  # target-major
            pairs = [
                (index, ttl)
                for index in range(len(targets))
                for ttl in range(config.min_ttl, config.max_ttl + 1)
            ]
        self._pairs = pairs

    def next_probe(self, now):
        if self._cursor >= len(self._pairs):
            return None
        index, ttl = self._pairs[self._cursor]
        self._cursor += 1
        return self._emit(self.targets[index], ttl, now)

    @property
    def exhausted(self):
        return self._cursor >= len(self._pairs)


def fig_targets(world, seeds):
    rng = random.Random(5)
    prefixes = zn(seeds["caida"].items, 48)
    targets = list(fixediid(prefixes))
    for prefix in prefixes:
        for _ in range(8):
            targets.append(prefix.random_subnet(64, rng).base | 0x1234)
    return sorted(set(targets))


def run_trials(world, seeds):
    targets = fig_targets(world, seeds)
    config = Yarrp6Config(max_ttl=MAX_TTL)
    out = {}
    internet = Internet(world)
    out["permuted"] = run_yarrp6(
        internet, "US-EDU-1", targets, pps=RATE, max_ttl=MAX_TTL
    )
    for order in ("ttl-major", "target-major"):
        internet.reset_dynamics()
        machine = _OrderedYarrp(
            internet.vantage("US-EDU-1").address, targets, config, order
        )
        # The per-probe loop of ``run_campaign``: replies are held and fed
        # to the prober before each slot, in (arrival, send order) order.
        held = []
        now = 0
        while True:
            while held and held[0][0] <= now:
                arrival, _, data = heappop(held)
                machine.receive(data, arrival)
            reply = internet.answer(machine.next_probe(now), now)
            if reply is not None:
                heappush(held, (reply[0], machine.sent, reply[1]))
            if machine.exhausted:
                break
            now += pps_interval(RATE)
        for arrival, _, data in sorted(held):
            now = max(now, arrival)
            machine.receive(data, arrival)
        out[order] = CampaignResult.collect(
            machine, order, "US-EDU-1", "yarrp6-" + order, RATE, now
        )
    return targets, out


def test_ablation_permutation(world, seeds, save_result, benchmark):
    targets, out = benchmark.pedantic(
        run_trials, args=(world, seeds), rounds=1, iterations=1
    )
    rows = []
    for order, result in out.items():
        hop1 = dict(per_hop_responsiveness(result, MAX_TTL))[1]
        rows.append(
            [order, result.sent, len(result.interfaces), "%.2f" % hop1]
        )
    save_result(
        "ablation_permutation",
        render_table(
            ["Emission order", "Probes", "Interfaces", "Hop-1 resp."],
            rows,
            title="Ablation: probe-order randomization at %d pps" % int(RATE),
        ),
    )

    hop1 = {
        order: dict(per_hop_responsiveness(result, MAX_TTL))[1]
        for order, result in out.items()
    }
    # The permutation preserves first-hop responsiveness at speed.
    assert hop1["permuted"] > 0.9
    # TTL-major order is catastrophic for the near hops.
    assert hop1["ttl-major"] < 0.3
    # Target-major at a *fixed open-loop rate* also spreads per-hop load
    # (each hop sees rate/16) and effectively ties with the permutation —
    # the burstiness that kills real sequential tracers comes from their
    # reply-synchronized per-TTL waves, which the permutation removes
    # without needing per-destination state or timeouts.
    assert hop1["target-major"] > 0.9
    assert (
        len(out["permuted"].interfaces)
        >= len(out["target-major"].interfaces) * 0.98
    )
    # Unique-interface counts are nearly insensitive at this scale (one
    # response per router suffices even under bursts); what bursts destroy
    # is *per-trace completeness* — the substrate of path analysis and
    # subnet inference.
    from repro.analysis import build_traces

    def complete_fraction(result):
        traces = build_traces(result.records)
        return sum(1 for trace in traces.values() if trace.complete) / max(
            1, len(traces)
        )

    assert len(out["permuted"].records) > len(out["ttl-major"].records) * 1.2
    assert complete_fraction(out["permuted"]) > complete_fraction(out["ttl-major"])
