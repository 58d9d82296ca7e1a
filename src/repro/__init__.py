"""repro — a full reproduction of "In the IP of the Beholder: Strategies
for Active IPv6 Topology Discovery" (Beverly, Durairajan, Plonka, Rohrer;
ACM IMC 2018).

Subpackages:

* :mod:`repro.addrs`    — IPv6 address machinery (parsing, prefixes,
  radix tries, DPL, IID classification).
* :mod:`repro.packet`   — byte-level IPv6/ICMPv6/TCP/UDP crafting.
* :mod:`repro.netsim`   — the simulated ground-truth IPv6 internet with a
  virtual clock and RFC 4443 rate limiting.
* :mod:`repro.seeds`    — synthetic counterparts of the paper's seven
  hitlist seed sources.
* :mod:`repro.hitlist`  — the target pipeline: zn transformation, kIP
  anonymization, 6Gen generation, IID synthesis.
* :mod:`repro.prober`   — Yarrp6 (stateless randomized prober) plus
  sequential and Doubletree baselines, and campaign orchestration.
* :mod:`repro.analysis` — trace reconstruction, discovery metrics, and
  subnet inference (path divergence + the IA hack).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

__version__ = "1.0.0"

__all__ = ["addrs", "analysis", "hitlist", "netsim", "packet", "prober", "seeds"]
