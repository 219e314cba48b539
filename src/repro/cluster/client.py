"""Cluster-aware client: topology discovery, sharded routing, failover.

:class:`ClusterClient` is the serving stack's front door once there is
more than one node.  It bootstraps the cluster topology from any seed
address with a ``cluster-topology`` request (every node answers, so any
live node is a valid seed), builds the same :class:`~repro.cluster.ring.HashRing`
every other participant builds, and keeps one pooled
:class:`~repro.service.client.ServiceClient` per shard.

Routing is by *stream id*: ``compress_stream("tenant-7/ticks", array)``
always lands on the same replica set, so a tenant's stream hits warm
nodes and the placement is reproducible from the topology document
alone.  Requests are pure functions of their payloads (the server
guarantees byte-identity with the local API), which makes failover
trivially safe: if the primary dies mid-request the client replays the
request on the next replica and the caller sees the exact bytes the
primary would have produced.

Failure handling, in order (one deadline budget spans all of it):

1. a node whose circuit breaker is open is skipped without dialing;
2. transport faults and timeouts on a node → breaker strike, try the
   next replica; a typed overload shed also moves on, without a strike;
3. whole replica set down → refresh the topology from every known
   address (a restarted or rebalanced cluster answers) and retry once,
   force-probing tripped breakers;
4. still nothing, or the deadline budget ran out →
   :class:`~repro.errors.ClusterError`.

Typed request failures (``CorruptStreamError``, ``SelectionError``,
``UnsupportedDtypeError``, ``DeadlineExceededError``) are *not* failed
over: they are deterministic properties of the request and every
replica would answer identically.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.api.frames import DEFAULT_CHUNK_ELEMENTS
from repro.client import CompressionClient
from repro.cluster.ring import HashRing
from repro.errors import ClusterError, ProtocolError, ServerOverloadedError
from repro.obs import SpanRecorder
from repro.service.client import DEFAULT_CODEC, RequestSurface, ServiceClient
from repro.service.resilience import CircuitBreaker, Deadline, RetryPolicy

__all__ = ["ClusterClient", "parse_seed", "DEFAULT_STREAM_ID"]

#: Stream id used by the topology-agnostic ``compress_array`` surface
#: when the caller has no stream identity to route by.
DEFAULT_STREAM_ID = "_unkeyed"

#: Node states a request may be routed to.  ``draining`` nodes finish
#: their in-flight work but take no new requests; ``down`` nodes are
#: skipped outright (failover handles races with stale state).
_ROUTABLE_STATES = ("starting", "up")

#: Failures that poison one node but not the request: the next replica
#: gets it.  TimeoutError is safe to fail over because requests are
#: idempotent pure functions — at worst the slow node finishes work
#: nobody reads.
_FAILOVER_ERRORS = (ConnectionError, OSError, TimeoutError, ProtocolError)


def parse_seed(seed) -> tuple[str, int]:
    """Normalize a seed address: ``(host, port)`` or ``"host:port"``."""
    if isinstance(seed, str):
        host, _, port = seed.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"seed {seed!r} is not 'host:port'")
        return host, int(port)
    host, port = seed
    return str(host), int(port)


def _error_entry(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


class _StreamSurface(RequestSurface):
    """The request surface, routed to one stream's replica set."""

    def __init__(self, cluster: "ClusterClient", stream_id: str) -> None:
        self._cluster = cluster
        self._stream_id = stream_id

    def _call(self, request_type: int, payload: bytes, decode, deadline):
        frame = self._cluster._execute(
            self._stream_id, request_type, payload, deadline
        )
        return decode(frame.payload)


class ClusterClient(CompressionClient):
    """Route compress/decompress requests across a compression cluster.

    Parameters
    ----------
    seeds:
        Addresses to bootstrap the topology from — ``(host, port)``
        tuples or ``"host:port"`` strings.  Any cluster node or the
        supervisor's control endpoint works; they are tried in order.
    pool_size, deadline:
        Per-shard :class:`ServiceClient` knobs.  Per-node retries are
        disabled (``retry=0``): the cluster layer owns retry policy,
        and its retry is the next replica, not the same dead node.
        ``deadline`` is the *overall operation budget*: both failover
        passes, the topology refresh between them, and every backoff
        sleep spend from the same budget, so a full-set failure cannot
        stretch an operation past it.
    attempt_timeout:
        Cap on one node attempt's socket operations.  Defaults to
        ``deadline``; set it lower so a slow replica leaves budget for
        its siblings.
    token:
        Tenant auth token forwarded on every per-shard request —
        required when the cluster's nodes run with tenant registries.
    retry_policy:
        The shared :class:`~repro.service.resilience.RetryPolicy`
        pacing the refresh pass (its ``delay(0)`` separates the two
        failover passes).
    breaker_threshold, breaker_reset:
        Per-node circuit breaker tuning: trip after this many
        *consecutive* transport faults, stay open for ``breaker_reset``
        seconds before a half-open probe.  The second failover pass
        force-probes tripped nodes — trying them is still better than
        failing the operation.
    propagate_deadline:
        Send each attempt's remaining budget on the wire (flagged
        frame header) so servers reject or skip expired work.  Off by
        default because pre-deadline servers cannot parse flagged
        frames; turn it on when the cluster runs current nodes.
    address_overrides:
        Map ``"host:port"`` (as published in the topology) to the
        ``(host, port)`` actually dialed.  The chaos harness routes
        node traffic through fault-injecting proxies with this seam;
        placement and node identity still follow the topology.
    trace:
        Distributed tracing.  ``True`` creates one
        :class:`~repro.obs.spans.SpanRecorder` shared by the cluster
        layer *and* every per-node :class:`ServiceClient`, so a 2-pass
        failover renders as one tree: ``cluster.request`` at the root,
        a ``cluster.replica`` child per node tried, each node's
        ``client.request``/``client.attempt`` spans under it, and —
        when the nodes also run traced — their server spans join over
        the wire.  A recorder may also be passed to share one across
        clients.
    """

    def __init__(
        self,
        seeds,
        *,
        pool_size: int = 2,
        deadline: float = 30.0,
        attempt_timeout: float | None = None,
        token: str | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 2.5,
        propagate_deadline: bool = False,
        address_overrides: dict | None = None,
        trace: bool | SpanRecorder = False,
    ) -> None:
        self.seeds = [parse_seed(seed) for seed in seeds]
        if not self.seeds:
            raise ValueError("at least one seed address is required")
        self.pool_size = int(pool_size)
        self.deadline = float(deadline)
        self.attempt_timeout = (
            float(attempt_timeout) if attempt_timeout is not None
            else self.deadline
        )
        self.token = token
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(max_attempts=2)
        )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset = float(breaker_reset)
        self.propagate_deadline = bool(propagate_deadline)
        self.address_overrides = {
            key: parse_seed(value)
            for key, value in (address_overrides or {}).items()
        }
        self.recorder = SpanRecorder.for_option(trace)
        self._lock = threading.Lock()
        self._clients: dict[str, ServiceClient] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._topology: dict = {}
        self._ring: HashRing | None = None
        self._addresses: dict[str, tuple[str, int]] = {}
        self._states: dict[str, str] = {}
        self._failovers = 0
        self._breaker_skips = 0
        self._refreshes = 0
        self._closed = False
        self.refresh()

    # -- topology ------------------------------------------------------
    def _bootstrap_addresses(self) -> list[tuple[str, int]]:
        with self._lock:
            known = list(self._addresses.values())
        ordered = list(self.seeds)
        for address in known:
            if address not in ordered:
                ordered.append(address)
        return ordered

    def _dial_address(self, host: str, port: int) -> tuple[str, int]:
        """The address actually dialed for a published node address."""
        return self.address_overrides.get(f"{host}:{port}", (host, port))

    def refresh(self, deadline: Deadline | None = None) -> dict:
        """Re-discover the topology; returns the adopted document.

        Tries every seed, then every previously known node address —
        a cluster that lost its first seed is still discoverable
        through any survivor.  When a ``deadline`` is given the probe
        sweep stops the moment it expires instead of paying a full
        timeout per unreachable address.
        """
        with self._lock:
            self._refreshes += 1
        last: Exception | None = None
        for host, port in self._bootstrap_addresses():
            if deadline is not None and deadline.expired:
                raise ClusterError(
                    "topology refresh abandoned: operation deadline "
                    f"expired (last probe failure: {last})"
                ) from last
            dial_host, dial_port = self._dial_address(host, port)
            try:
                with ServiceClient(
                    dial_host,
                    dial_port,
                    pool_size=1,
                    retry=0,
                    deadline=self.deadline,
                    token=self.token,
                ) as probe:
                    topology = probe.cluster_topology(deadline=deadline)
            except _FAILOVER_ERRORS as exc:
                last = exc
                continue
            self._adopt(topology)
            return topology
        raise ClusterError(
            f"topology bootstrap failed on all "
            f"{len(self._bootstrap_addresses())} address(es): {last}"
        ) from last

    def _adopt(self, topology: dict) -> None:
        ring = HashRing(
            (node["id"] for node in topology["nodes"]),
            vnodes=topology["vnodes"],
        )
        with self._lock:
            self._topology = topology
            self._ring = ring
            self._addresses = {
                node["id"]: (node["host"], node["port"])
                for node in topology["nodes"]
            }
            self._states = {
                node["id"]: node["state"] for node in topology["nodes"]
            }
            # Drop pooled clients for nodes that left the topology.
            for node_id in list(self._clients):
                if node_id not in self._addresses:
                    self._clients.pop(node_id).close()

    def topology(self) -> dict:
        """The currently adopted topology document."""
        with self._lock:
            return dict(self._topology)

    @property
    def replication(self) -> int:
        with self._lock:
            return int(self._topology.get("replication", 1))

    def nodes_for(self, stream_id: str) -> list[str]:
        """The ordered replica set serving ``stream_id``."""
        replication = self.replication
        with self._lock:
            if self._ring is None:
                raise ClusterError("client has no topology")
            return self._ring.replicas(stream_id, replication)

    # -- per-shard connections -----------------------------------------
    def _client_for(self, node_id: str) -> ServiceClient:
        with self._lock:
            if self._closed:
                raise ClusterError("cluster client is closed")
            client = self._clients.get(node_id)
            if client is None:
                host, port = self._addresses[node_id]
                dial_host, dial_port = self._dial_address(host, port)
                client = ServiceClient(
                    dial_host,
                    dial_port,
                    pool_size=self.pool_size,
                    retry=0,
                    deadline=self.attempt_timeout,
                    token=self.token,
                    propagate_deadline=self.propagate_deadline,
                    trace=self.recorder,
                )
                self._clients[node_id] = client
            return client

    def _breaker(self, node_id: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(node_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    reset_timeout=self.breaker_reset,
                )
                self._breakers[node_id] = breaker
            return breaker

    def _drop_client(self, node_id: str) -> None:
        with self._lock:
            client = self._clients.pop(node_id, None)
        if client is not None:
            client.close()

    # -- failover core -------------------------------------------------
    @staticmethod
    def _failure_detail(failures: list[tuple[str, Exception]]) -> str:
        return "; ".join(
            f"{node}: {type(exc).__name__}: {exc}" for node, exc in failures
        )

    def _execute(
        self, stream_id: str, request_type: int, payload: bytes, deadline=None
    ):
        """One request on the replica set, with failover; the reply frame.

        One :class:`Deadline` (the client's ``deadline``, or the
        per-call override) spans the whole walk: both passes, the
        topology refresh between them, and the pacing sleep all spend
        from it, so a full-set failure surfaces within the caller's
        budget instead of doubling it.

        Pass order per replica: the circuit breaker is consulted first
        (a tripped node is skipped without paying a connect timeout),
        then the node state, then the attempt.  The second pass — after
        a refresh — force-probes breakers and ignores stale ``down``
        marks: failover must not strand a key whose whole replica set
        was momentarily marked dead.

        Typed data errors propagate untouched; a typed overload answer
        fails over to the next replica but is *not* a breaker strike —
        a shedding node is alive, just busy.
        """
        deadline = Deadline.after(self.deadline if deadline is None else deadline)
        with self.recorder.span(
            "cluster.request", attributes={"stream_id": stream_id}
        ) as root:
            failures: list[tuple[str, Exception]] = []
            for attempt in range(2):
                replicas = self.nodes_for(stream_id)
                with self._lock:
                    states = dict(self._states)
                for node_id in replicas:
                    if deadline.expired:
                        raise ClusterError(
                            f"operation deadline ({self.deadline}s) exhausted "
                            f"serving stream {stream_id!r}: "
                            f"{self._failure_detail(failures) or 'no attempts'}"
                        )
                    if attempt == 0 and states.get(node_id) not in _ROUTABLE_STATES:
                        continue
                    breaker = self._breaker(node_id)
                    replica_span = self.recorder.span(
                        "cluster.replica",
                        parent=root,
                        attributes={"node": node_id, "pass": attempt},
                    )
                    if not breaker.allow(force_probe=attempt == 1):
                        with self._lock:
                            self._breaker_skips += 1
                        failures.append(
                            (node_id, ClusterError("circuit breaker open"))
                        )
                        replica_span.set_error("circuit breaker open")
                        replica_span.finish()
                        continue
                    try:
                        # The per-node client parents its request spans
                        # under this replica attempt.
                        result = self._client_for(node_id)._request(
                            request_type, payload, deadline, parent=replica_span
                        )
                    except ServerOverloadedError as exc:
                        breaker.record_success()
                        failures.append((node_id, exc))
                        replica_span.set_error(exc)
                        replica_span.finish()
                        continue
                    except _FAILOVER_ERRORS as exc:
                        breaker.record_failure()
                        with self._lock:
                            self._failovers += 1
                        failures.append((node_id, exc))
                        replica_span.set_error(exc)
                        replica_span.finish()
                        self._drop_client(node_id)
                        continue
                    breaker.record_success()
                    replica_span.finish()
                    return result
                if attempt == 0:
                    time.sleep(deadline.clamp(self.retry_policy.delay(0)))
                    if deadline.expired:
                        raise ClusterError(
                            f"operation deadline ({self.deadline}s) exhausted "
                            f"before the topology refresh for stream "
                            f"{stream_id!r}: {self._failure_detail(failures)}"
                        )
                    with self.recorder.span(
                        "cluster.refresh", parent=root
                    ) as refresh_span:
                        try:
                            self.refresh(deadline=deadline)
                        except ClusterError as exc:
                            refresh_span.set_error(exc)
                            failures.append(("<refresh>", exc))
                            break
            raise ClusterError(
                f"no replica could serve stream {stream_id!r} "
                f"(replication {self.replication}): "
                f"{self._failure_detail(failures) or 'no live nodes'}"
            )

    def resilience_snapshot(self) -> dict:
        """Metrics-visible view of breakers and failover accounting."""
        with self._lock:
            breakers = {
                node_id: breaker.snapshot()
                for node_id, breaker in sorted(self._breakers.items())
            }
            return {
                "breakers": breakers,
                "failovers": self._failovers,
                "breaker_skips": self._breaker_skips,
                "topology_refreshes": self._refreshes,
            }

    # -- request surface -----------------------------------------------
    def compress_stream(
        self,
        stream_id: str,
        array,
        codec: str = DEFAULT_CODEC,
        *,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        policy: str = "heuristic",
        deadline=None,
    ) -> bytes:
        """Compress ``array`` on ``stream_id``'s shard.

        Returns the FCF stream bytes, byte-identical to a local
        :func:`repro.api.compress_array` call whichever replica serves
        it — including ``codec="auto"`` v2 mixed-codec streams.
        """
        return _StreamSurface(self, stream_id).compress_array(
            array,
            codec,
            chunk_elements=chunk_elements,
            policy=policy,
            deadline=deadline,
        )

    def decompress_stream(self, stream_id: str, blob, *, deadline=None) -> np.ndarray:
        """Decompress ``blob`` on ``stream_id``'s shard."""
        return _StreamSurface(self, stream_id).decompress_array(
            blob, deadline=deadline
        )

    def select_explain_stream(
        self,
        stream_id: str,
        array,
        *,
        policy: str = "heuristic",
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
        deadline=None,
    ) -> dict:
        """Per-chunk selection decisions from ``stream_id``'s shard."""
        return _StreamSurface(self, stream_id).select_explain(
            array,
            policy=policy,
            chunk_elements=chunk_elements,
            deadline=deadline,
        )

    # -- drop-in CompressionClient surface -----------------------------
    # The stream-less spellings a ServiceClient caller already uses:
    # routing falls back to a fixed stream id (or an explicit
    # ``stream_id=`` option), so code written against the ABC runs
    # against one server or a cluster unchanged.
    def compress_array(
        self,
        array,
        codec: str = DEFAULT_CODEC,
        *,
        stream_id: str = DEFAULT_STREAM_ID,
        **options,
    ) -> bytes:
        """Cluster spelling of :meth:`ServiceClient.compress_array`;
        ``options`` are :meth:`compress_stream`'s."""
        return self.compress_stream(stream_id, array, codec, **options)

    def decompress_array(
        self, blob, *, stream_id: str = DEFAULT_STREAM_ID, deadline=None
    ) -> np.ndarray:
        """Cluster spelling of :meth:`ServiceClient.decompress_array`."""
        return self.decompress_stream(stream_id, blob, deadline=deadline)

    def select_explain(
        self, array, *, stream_id: str = DEFAULT_STREAM_ID, **options
    ) -> dict:
        """Cluster spelling of :meth:`ServiceClient.select_explain`;
        ``options`` are :meth:`select_explain_stream`'s."""
        return self.select_explain_stream(stream_id, array, **options)

    # -- cluster-wide probes -------------------------------------------
    def _each_node(self, probe, on_error) -> dict:
        """``probe(client)`` per known node; ``on_error(exc)`` where it
        failed (the node's pooled client is dropped)."""
        with self._lock:
            known = sorted(self._addresses)
        answers = {}
        for node_id in known:
            try:
                answers[node_id] = probe(self._client_for(node_id))
            except _FAILOVER_ERRORS as exc:
                self._drop_client(node_id)
                answers[node_id] = on_error(exc)
        return answers

    def ping(self) -> dict[str, float]:
        """Round-trip seconds per reachable node (unreachable → NaN)."""
        return self._each_node(ServiceClient.ping, lambda exc: float("nan"))

    def stats(self) -> dict[str, dict]:
        """Per-node metrics snapshots (unreachable nodes report error)."""
        return self._each_node(ServiceClient.stats, _error_entry)

    def trace(
        self, limit: int | None = None, trace_id: str | None = None
    ) -> dict:
        """Cluster-merged trace document: client spans + every node's.

        Each reachable node's recorder is read over the wire and the
        spans are merged with this client's own (failover, replica, and
        attempt spans), start-ordered — one coherent timeline for a
        request that crossed machines.  Unreachable nodes report an
        error entry instead of poisoning the merge.
        """
        spans = (
            self.recorder.trace(trace_id)
            if trace_id is not None
            else self.recorder.snapshot(limit)
        )

        def merge(client: ServiceClient) -> dict:
            answer = client.trace(limit, trace_id)
            spans.extend(answer.get("spans", []))
            return answer.get("stats", {})

        nodes = self._each_node(merge, _error_entry)
        spans.sort(key=lambda span: span.get("start", 0.0))
        return {
            "client": self.recorder.stats(),
            "nodes": nodes,
            "spans": spans,
        }

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()
