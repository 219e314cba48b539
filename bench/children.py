"""The server processes a workload talks to, started as a user would.

``fcbench serve`` and ``fcbench cluster serve`` run as child processes
with their shipped defaults, so the load generator never shares an
interpreter lock with the server it measures.  Everything they write
(logs, the cluster state directory) lands under ``bench/out/``.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import OUT_DIR, ROOT

_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0


def program_env() -> dict:
    """The environment every child runs in: the checkout's own ``src``
    first on the path, and the worker count unset so the shipped
    default (serial) applies."""
    env = dict(os.environ)
    env.pop("FCBENCH_JOBS", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else ""
    )
    return env


def scratch_dir(label: str) -> Path:
    """A fresh directory under ``bench/out/tmp`` for one child's files."""
    path = OUT_DIR / "tmp" / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


class Child:
    """One ``python -m repro.cli ...`` process and the lines it announced."""

    def __init__(self, cli_args: list[str], announce_lines: int, label: str):
        self.dir = scratch_dir(label)
        self._log = open(self.dir / "stderr.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *cli_args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(),
            cwd=str(ROOT),
        )
        try:
            self.lines = self._read_lines(announce_lines)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read_lines(self, count: int) -> list[str]:
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + _START_TIMEOUT_S
        buffer = b""
        while buffer.count(b"\n") < count:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 65536) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"child {self.process.args[3:]} announced "
                    f"{buffer.decode(errors='replace')!r} and then "
                    f"{'timed out' if not ready else 'closed its output'}; "
                    f"see {self.dir / 'stderr.log'}"
                )
            buffer += chunk
        return buffer.decode().splitlines()[:count]

    def stop(self) -> None:
        """SIGTERM (both programs drain on it), wait, and clean up."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _address(line: str) -> tuple[str, int]:
    host, _, port = line.split()[-1].rpartition(":")
    return host, int(port)


class Server(Child):
    """``fcbench serve --port 0 --quiet``; ``trace`` adds the program's
    own ``--trace`` flag with a ring large enough for one traced replay."""

    def __init__(self, trace: bool = False):
        args = ["serve", "--port", "0", "--quiet"]
        if trace:
            args += ["--trace", "--trace-capacity", "262144"]
        super().__init__(args, 1, "serve")
        self.host, self.port = _address(self.lines[0])


class Cluster(Child):
    """``fcbench cluster serve --nodes 2 --quiet`` under its supervisor."""

    NODES = 2

    def __init__(self, trace: bool = False):
        args = ["cluster", "serve", "--nodes", str(self.NODES), "--quiet"]
        if trace:
            args.append("--trace")
        # The state directory defaults to the system temp directory;
        # the benchmark keeps every file inside its checkout.
        self._state = scratch_dir("cluster-state")
        super().__init__(
            [*args, "--state-dir", str(self._state)], 2 + self.NODES, "cluster"
        )
        self.control = "%s:%d" % _address(self.lines[0])
        # "  node node-0 serving on 127.0.0.1:45615 (pid 4906)"
        self.nodes = {
            line.split()[1]: _address(line.rsplit(" (pid", 1)[0])
            for line in self.lines[2:]
        }

    def stop(self) -> None:
        super().stop()
        shutil.rmtree(self._state, ignore_errors=True)
