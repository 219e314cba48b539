"""Chaos injection for the compression service and cluster.

A first-class fault-injection subsystem usable against *real* servers:

* :mod:`repro.chaos.plan` — declarative, seeded fault plans
  (:class:`FaultSpec` / :class:`FaultPlan`): which faults, with what
  probability, at what byte offsets.  Deterministic per connection
  index, so a soak run is reproducible from ``(plan, seed)`` alone.
* :mod:`repro.chaos.proxy` — :class:`ChaosProxy`, a TCP proxy that
  applies a plan's faults (connect refusal, latency spikes, mid-frame
  disconnects, byte corruption, stalls) to traffic it forwards.  It
  sits at the transport seam: servers are untouched, clients simply
  dial the proxy, and every resilience layer above TCP gets exercised
  for real.
* :mod:`repro.chaos.soak` — :func:`run_chaos_soak`, the measurement
  harness: a supervised cluster behind per-node proxies, hammered by
  deadline-carrying workers while faults (and optionally a node kill
  or drain) land, reporting availability, shed rate, deadline-miss
  rate, and latency-under-faults (``fcbench chaos --output``).

The served path's byte-identity contract survives chaos by
construction: a corrupted response fails the frame CRC and is retried
or failed over, so every round trip that *succeeds* still returns
exactly the bytes a local call would produce — the soak verifies this
on every success.
"""

from repro.chaos.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.chaos.proxy import ChaosProxy
from repro.chaos.soak import run_chaos_soak

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ChaosProxy",
    "run_chaos_soak",
]
