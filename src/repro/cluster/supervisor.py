"""Cluster supervisor: spawn, health-check, drain, and restart nodes.

:class:`ClusterSupervisor` owns N :class:`~repro.service.server.CompressionServer`
processes.  Each node is a real OS process running ``fcbench serve``
(so a SIGKILL in the fault-injection tests kills exactly what a machine
failure would), bound to a stable port chosen up front — ring
membership therefore never changes across restarts, only node *state*
does, and placement stays deterministic for every client.

The supervisor runs three things:

* a **health loop** that probes every node with ``health`` frames and
  respawns any process that died (unless it is being drained);
* a **control endpoint** — the compression server's own listener on a
  background thread, given the supervisor's handler table
  (``cluster-topology`` / ``health`` / ``cluster-control`` / ``trace``
  / ``ping``) in place of the node request types — that
  ``fcbench cluster status|drain`` and cluster clients talk to;
* a **state file** (JSON, atomically rewritten on every change) with
  the control address and per-node pids/states, so CLI commands and CI
  scripts can find the cluster without parsing logs.

Drain semantics: ``drain(node)`` marks the node so the health loop
stops restarting it, sends SIGTERM (the server's graceful-drain
signal: in-flight batches finish and flush), and escalates to SIGKILL
only after ``node_grace`` seconds.  A drained node stays in the
topology as ``down`` — placement is preserved, traffic fails over to
the surviving replicas.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ClusterError
from repro.obs import get_logger
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import (
    CLUSTER_CONTROL,
    CLUSTER_TOPOLOGY,
    DEFAULT_VNODES,
    HEALTH,
    PING,
    TRACE,
)

__all__ = ["ClusterSupervisor", "NodeSpec", "free_port"]

#: Consecutive failed probes before a live-but-silent node is marked
#: down (a dead process is marked down on the first probe).
_PROBE_STRIKES = 3


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for an unused TCP port (bind 0, read, release)."""
    import socket

    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return sock.getsockname()[1]


@dataclass
class NodeSpec:
    """Identity and address of one cluster node."""

    node_id: str
    host: str = "127.0.0.1"
    port: int = 0  # 0 = allocate at start()


@dataclass
class _Node:
    """Supervisor-side runtime record for one node."""

    spec: NodeSpec
    process: subprocess.Popen | None = None
    state: str = "starting"  # one of protocol.NODE_STATES
    restarts: int = 0
    strikes: int = 0
    draining: bool = False
    log_path: Path | None = None
    log_file: object = field(default=None, repr=False)


class ClusterSupervisor:
    """Spawn and babysit a sharded compression cluster.

    Parameters
    ----------
    nodes:
        Node count (ids ``node-0`` … ``node-N-1``) or explicit
        :class:`NodeSpec` entries.
    host:
        Bind address of every node (and of the control endpoint unless
        ``control_host`` is given).
    replication:
        Replica-set size published in the topology (≥ 2 for failover).
    vnodes:
        Virtual nodes per physical node — the ring's balance knob,
        identical for every participant.
    health_interval:
        Seconds between health sweeps.
    auto_restart:
        Respawn nodes whose process died (drained nodes never
        restart).
    node_grace:
        Seconds a draining/stopping node gets to flush before SIGKILL.
    state_dir:
        Where the state file, topology file, and per-node logs live;
        a temp directory is created (and owned) when omitted.
    tenants:
        Path to a tenant registry JSON file forwarded to every node's
        ``fcbench serve --tenants`` — all nodes authenticate against
        the same tenant set, and each enforces quotas locally.
    control_host, control_port:
        Bind address of the control endpoint (port 0 = ephemeral).
    trace:
        Forward ``--trace`` to every node's ``fcbench serve`` and
        serve ``trace`` requests on the control endpoint by merging
        the per-node span recorders (``fcbench cluster trace``).
    """

    def __init__(
        self,
        nodes: int | list[NodeSpec] = 3,
        *,
        host: str = "127.0.0.1",
        replication: int = 2,
        vnodes: int = DEFAULT_VNODES,
        health_interval: float = 0.25,
        auto_restart: bool = True,
        node_grace: float = 3.0,
        state_dir: str | os.PathLike | None = None,
        control_host: str | None = None,
        control_port: int = 0,
        tenants: str | os.PathLike | None = None,
        trace: bool = False,
    ) -> None:
        if isinstance(nodes, int):
            if nodes < 1:
                raise ValueError("a cluster needs at least one node")
            specs = [
                NodeSpec(f"node-{index}", host=host) for index in range(nodes)
            ]
        else:
            specs = list(nodes)
            if not specs:
                raise ValueError("a cluster needs at least one node")
        if replication < 1:
            raise ValueError("replication must be positive")
        self.replication = min(int(replication), len(specs))
        self.vnodes = int(vnodes)
        self.health_interval = float(health_interval)
        self.auto_restart = bool(auto_restart)
        self.node_grace = float(node_grace)
        self.control_host = control_host if control_host is not None else host
        self.control_port = int(control_port)
        self.trace = bool(trace)
        self._log = get_logger("repro.cluster")
        # Resolved now: node processes run with cwd=state_dir.
        self.tenants_path = (
            Path(tenants).resolve() if tenants is not None else None
        )
        self._owns_state_dir = state_dir is None
        # Absolute: node processes run with cwd=state_dir and receive
        # the topology path on their command line — a relative path
        # would resolve against the wrong directory.
        self.state_dir = Path(
            state_dir
            if state_dir is not None
            else tempfile.mkdtemp(prefix="fcbench-cluster-")
        ).resolve()
        self._lock = threading.RLock()
        self._nodes: dict[str, _Node] = {
            spec.node_id: _Node(spec) for spec in specs
        }
        if len(self._nodes) != len(specs):
            raise ValueError("duplicate node ids")
        self._started = False
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._control = None  # the endpoint's ServerHandle once started
        self.started_at = 0.0

    # -- paths ---------------------------------------------------------
    @property
    def state_path(self) -> Path:
        return self.state_dir / "cluster.json"

    @property
    def topology_path(self) -> Path:
        return self.state_dir / "topology.json"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        """Allocate ports, spawn every node, wait until all are healthy."""
        if self._started:
            raise ClusterError("supervisor already started")
        self._started = True
        self.started_at = time.time()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        with self._lock:
            for node in self._nodes.values():
                if node.spec.port == 0:
                    node.spec.port = free_port(node.spec.host)
        # The bootstrap topology every node serves: membership and
        # placement parameters are static for the cluster's lifetime
        # (ports survive restarts), so a file written once is correct.
        self.topology_path.write_text(
            json.dumps(self._topology(static=True), indent=2, sort_keys=True)
            + "\n"
        )
        for node in self._nodes.values():
            self._spawn(node)
        self._start_control()
        self._wait_all_healthy()
        self._monitor = threading.Thread(
            target=self._health_loop, name="fcbench-cluster-health", daemon=True
        )
        self._monitor.start()
        self._write_state()
        return self

    def stop(self) -> None:
        """Stop the health loop and terminate every node (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.health_interval * 4 + 2.0)
        with self._lock:
            nodes = list(self._nodes.values())
        for node in nodes:
            self._terminate(node, final_state="down")
        self._stop_control()
        self._write_state()

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- node processes ------------------------------------------------
    def _node_command(self, spec: NodeSpec) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            "--node-id",
            spec.node_id,
            "--topology-json",
            str(self.topology_path),
            "--grace",
            str(self.node_grace),
            "--quiet",
        ]
        if self.tenants_path is not None:
            cmd += ["--tenants", str(self.tenants_path)]
        if self.trace:
            cmd += ["--trace"]
        return cmd

    def _node_env(self) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        parts = env.get("PYTHONPATH", "")
        if src not in parts.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + parts if parts else "")
        return env

    def _spawn(self, node: _Node) -> None:
        node.log_path = self.state_dir / f"{node.spec.node_id}.log"
        node.log_file = open(node.log_path, "ab")
        node.process = subprocess.Popen(
            self._node_command(node.spec),
            stdout=node.log_file,
            stderr=subprocess.STDOUT,
            env=self._node_env(),
            cwd=str(self.state_dir),
        )
        node.state = "starting"
        node.strikes = 0
        self._log.info(
            "node spawned",
            extra={
                "node": node.spec.node_id,
                "pid": node.process.pid,
                "port": node.spec.port,
                "restarts": node.restarts,
            },
        )

    def _terminate(self, node: _Node, *, final_state: str) -> None:
        """SIGTERM (graceful drain), escalate to SIGKILL after grace."""
        process = node.process
        if process is not None and process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
            except OSError:
                pass
            try:
                process.wait(timeout=self.node_grace)
            except subprocess.TimeoutExpired:
                process.kill()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        if node.log_file is not None:
            try:
                node.log_file.close()
            except OSError:
                pass
            node.log_file = None
        node.state = final_state

    def _probe(self, spec: NodeSpec, timeout: float = 2.0) -> dict | None:
        try:
            with ServiceClient(
                spec.host, spec.port, pool_size=1, retry=0, deadline=timeout
            ) as client:
                return client.health()
        except Exception:
            return None

    def _wait_all_healthy(self, deadline_seconds: float = 30.0) -> None:
        deadline = time.monotonic() + deadline_seconds
        pending = set(self._nodes)
        while pending and time.monotonic() < deadline:
            for node_id in sorted(pending):
                node = self._nodes[node_id]
                process = node.process
                if process is not None and process.poll() is not None:
                    raise ClusterError(
                        f"node {node_id} exited with code "
                        f"{process.returncode} during startup"
                        f"{self._log_tail(node)}"
                    )
                if self._probe(node.spec, timeout=1.0) is not None:
                    node.state = "up"
                    pending.discard(node_id)
            if pending:
                time.sleep(0.05)
        if pending:
            raise ClusterError(
                f"node(s) {sorted(pending)} not healthy after "
                f"{deadline_seconds:.0f}s"
            )

    def _log_tail(self, node: _Node, lines: int = 10) -> str:
        try:
            text = node.log_path.read_text(errors="replace")
        except (OSError, AttributeError):
            return ""
        tail = "\n".join(text.splitlines()[-lines:])
        return f"\nnode log tail:\n{tail}" if tail else ""

    # -- health loop -----------------------------------------------------
    def _health_loop(self) -> None:
        while not self._stopping.wait(self.health_interval):
            with self._lock:
                nodes = list(self._nodes.values())
            changed = False
            for node in nodes:
                changed |= self._check_node(node)
            if changed:
                self._write_state()

    def _check_node(self, node: _Node) -> bool:
        """One health sweep for one node; returns True on state change."""
        with self._lock:
            if node.draining or self._stopping.is_set():
                return False
            process = node.process
            died = process is None or process.poll() is not None
        if died:
            if self.auto_restart:
                with self._lock:
                    if node.draining or self._stopping.is_set():
                        return False
                    if node.log_file is not None:
                        try:
                            node.log_file.close()
                        except OSError:
                            pass
                    self._log.warning(
                        "node died; restarting",
                        extra={"node": node.spec.node_id},
                    )
                    self._spawn(node)
                    node.restarts += 1
                    node.state = "starting"
                return True
            if node.state != "down":
                node.state = "down"
                self._log.warning(
                    "node died", extra={"node": node.spec.node_id}
                )
                return True
            return False
        answer = self._probe(node.spec, timeout=max(1.0, self.health_interval))
        with self._lock:
            if answer is not None:
                changed = node.state != "up" or node.strikes > 0
                node.state = "up"
                node.strikes = 0
                return changed
            node.strikes += 1
            # The process is alive but not answering: give it
            # _PROBE_STRIKES sweeps (it may be mid-startup or paging
            # a huge batch) before declaring it down.
            if node.strikes >= _PROBE_STRIKES and node.state != "down":
                node.state = "down"
                return True
        return False

    # -- operator verbs --------------------------------------------------
    def drain(self, node_id: str) -> dict:
        """Gracefully stop one node and keep it stopped.

        The node finishes in-flight work (SIGTERM drain), is never
        auto-restarted, and stays in the topology as ``down`` so
        placement is unchanged and replicas absorb its traffic.
        """
        node = self._get(node_id)
        with self._lock:
            node.draining = True
            node.state = "draining"
        self._log.info("node draining", extra={"node": node_id})
        self._write_state()
        self._terminate(node, final_state="down")
        self._write_state()
        return self._node_status(node)

    def restart_node(self, node_id: str) -> dict:
        """Terminate and respawn one node (clears a drain)."""
        node = self._get(node_id)
        with self._lock:
            node.draining = True  # keep the health loop's hands off
        self._terminate(node, final_state="down")
        with self._lock:
            node.draining = False
            self._spawn(node)
            node.restarts += 1
        self._write_state()
        return self._node_status(node)

    def kill_node(self, node_id: str) -> None:
        """SIGKILL a node — the fault-injection hook.

        No drain, no flush: exactly what a machine failure looks like.
        The health loop notices and (with ``auto_restart``) respawns.
        """
        node = self._get(node_id)
        process = node.process
        if process is not None and process.poll() is None:
            self._log.warning("node killed", extra={"node": node_id})
            process.kill()

    def node_pid(self, node_id: str) -> int | None:
        process = self._get(node_id).process
        return process.pid if process is not None else None

    def _get(self, node_id: str) -> _Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ClusterError(f"no node {node_id!r} in this cluster") from None

    # -- documents -------------------------------------------------------
    def _topology(self, *, static: bool = False) -> dict:
        with self._lock:
            return {
                "version": 1,
                "replication": self.replication,
                "vnodes": self.vnodes,
                "nodes": [
                    {
                        "id": node.spec.node_id,
                        "host": node.spec.host,
                        "port": node.spec.port,
                        "state": "up" if static else node.state,
                    }
                    for node in sorted(
                        self._nodes.values(), key=lambda n: n.spec.node_id
                    )
                ],
            }

    def topology(self) -> dict:
        """The live topology document (current node states)."""
        return self._topology()

    def _node_status(self, node: _Node) -> dict:
        process = node.process
        return {
            "id": node.spec.node_id,
            "host": node.spec.host,
            "port": node.spec.port,
            "state": node.state,
            "pid": process.pid if process is not None else None,
            "restarts": node.restarts,
        }

    def status(self) -> dict:
        """Supervisor summary: control address, nodes, restart counts."""
        with self._lock:
            nodes = [
                self._node_status(node)
                for node in sorted(
                    self._nodes.values(), key=lambda n: n.spec.node_id
                )
            ]
        return {
            "control": {"host": self.control_host, "port": self.control_port},
            "supervisor_pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "replication": self.replication,
            "vnodes": self.vnodes,
            "state_dir": str(self.state_dir),
            "nodes": nodes,
        }

    def trace_document(
        self, limit: int | None = None, trace_id: str | None = None
    ) -> dict:
        """Cluster-wide trace merge: every node's recorder, one timeline.

        Each live node answers a ``trace`` request with its own ring's
        spans; the supervisor concatenates them start-ordered.  Nodes
        that cannot answer (down, draining, mid-restart) contribute an
        error entry — a partial trace beats no trace during exactly the
        incidents tracing exists for.
        """
        with self._lock:
            specs = [
                node.spec
                for node in sorted(
                    self._nodes.values(), key=lambda n: n.spec.node_id
                )
            ]
        nodes: dict[str, dict] = {}
        spans: list[dict] = []
        for spec in specs:
            try:
                with ServiceClient(
                    spec.host, spec.port, pool_size=1, retry=0, deadline=2.0
                ) as client:
                    answer = client.trace(limit, trace_id)
            except Exception as exc:
                nodes[spec.node_id] = {
                    "error": f"{type(exc).__name__}: {exc}"
                }
                continue
            nodes[spec.node_id] = answer.get("stats", {})
            spans.extend(answer.get("spans", []))
        spans.sort(key=lambda span: span.get("start", 0.0))
        return {"role": "supervisor", "nodes": nodes, "spans": spans}

    def _write_state(self) -> None:
        """Atomically rewrite the state file (CLI/CI entry point)."""
        try:
            body = json.dumps(self.status(), indent=2, sort_keys=True) + "\n"
            tmp = self.state_path.with_suffix(".tmp")
            tmp.write_text(body)
            os.replace(tmp, self.state_path)
        except OSError:
            pass  # state file is advisory; never take the cluster down

    # -- control endpoint ------------------------------------------------
    def _start_control(self) -> None:
        # Imported here: only a started supervisor needs the server.
        from repro.service.server import serve_background

        try:
            self._control = serve_background(
                self.control_host,
                self.control_port,
                handlers=self._control_handlers(),
                refusal="the control endpoint does not serve "
                "request type {:#04x}",
            )
        except OSError as exc:
            raise ClusterError(
                f"control endpoint failed to bind: {exc}"
            ) from exc
        self.control_port = self._control.port

    def _stop_control(self) -> None:
        if self._control is not None:
            self._control.stop()

    def _control_handlers(self) -> dict:
        """What the control endpoint serves: ``{request type: handler}``."""

        def health(frame) -> bytes:
            return protocol.encode_json(
                {
                    "status": "ok",
                    "role": "supervisor",
                    "uptime_seconds": time.time() - self.started_at,
                    "pid": os.getpid(),
                    "nodes": {
                        entry["id"]: entry["state"]
                        for entry in self.status()["nodes"]
                    },
                }
            )

        async def control(frame) -> bytes:
            action, node = protocol.decode_control(frame.payload)
            return protocol.encode_json(
                await self._run_control_action(action, node)
            )

        async def trace(frame) -> bytes:
            limit, trace_id = protocol.decode_trace_request(frame.payload)
            # Reading N node recorders over the wire blocks on N
            # sockets; keep the control loop answerable meanwhile.
            return protocol.encode_json(
                await asyncio.get_running_loop().run_in_executor(
                    None, self.trace_document, limit, trace_id
                )
            )

        return {
            PING: lambda frame: frame.payload,
            CLUSTER_TOPOLOGY: lambda frame: protocol.encode_topology(
                self.topology()
            ),
            HEALTH: health,
            CLUSTER_CONTROL: control,
            TRACE: trace,
        }

    async def _run_control_action(self, action: str, node: str | None) -> dict:
        if action == "status":
            return self.status()
        if node is None:
            raise ClusterError(f"control action {action!r} needs a node")
        loop = asyncio.get_running_loop()
        # Drain/restart block on process exit (up to node_grace); run
        # them off the control loop so status stays answerable.
        if action == "drain":
            return await loop.run_in_executor(None, self.drain, node)
        return await loop.run_in_executor(None, self.restart_node, node)
