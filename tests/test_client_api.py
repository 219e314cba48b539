"""The unified client surface: ``connect()``, the ABC, kwarg spellings.

``ServiceClient`` and ``ClusterClient`` must be drop-in
interchangeable behind :class:`repro.CompressionClient` — the same
helper drives a byte round-trip through both without knowing which
topology it holds.  The canonical kwarg spellings (``deadline=``,
``retry=``) work on every client; the spellings they replaced
(``timeout=``, ``retries=``) are a ``TypeError`` like any other
unknown keyword.

Also audits every public module's ``__all__``: each exported name must
resolve, so ``from repro.x import *`` never breaks.
"""

import asyncio
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CompressionClient, connect
from repro.cluster.client import ClusterClient
from repro.errors import ReproError, UnknownCodecError
from repro.service import AsyncServiceClient, ServiceClient, serve_background


def _fresh_interpreter(probe: str) -> str:
    """Run ``probe`` in a new interpreter that can import this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = src + (os.pathsep + inherited if inherited else "")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.fixture(scope="module")
def handle():
    server = serve_background()
    yield server
    server.stop()


@pytest.fixture()
def array():
    return np.linspace(-1.0, 1.0, 4096).astype(np.float64)


def round_trip(client: CompressionClient, array) -> bool:
    """Topology-blind workload — works on any CompressionClient."""
    blob = client.compress_array(array, "gorilla")
    restored = client.decompress_array(blob)
    explain = client.select_explain(array)
    ping = client.ping()  # float (service) or per-node dict (cluster)
    alive = all(ping.values()) if isinstance(ping, dict) else ping >= 0.0
    return (
        np.array_equal(restored, array)
        and alive
        and isinstance(client.stats(), dict)
        and isinstance(explain, dict)
    )


class TestConnect:
    def test_single_address_dials_service_client(self, handle, array):
        with connect(f"{handle.host}:{handle.port}") as client:
            assert isinstance(client, ServiceClient)
            assert isinstance(client, CompressionClient)
            assert round_trip(client, array)

    def test_host_port_tuple(self, handle, array):
        with connect((handle.host, handle.port)) as client:
            assert isinstance(client, ServiceClient)
            assert round_trip(client, array)

    def test_cluster_seeds_dial_cluster_client(self, handle, array):
        seeds = [f"{handle.host}:{handle.port}"]
        with connect(cluster_seeds=seeds) as client:
            assert isinstance(client, ClusterClient)
            assert isinstance(client, CompressionClient)
            assert round_trip(client, array)

    def test_multi_address_target_means_cluster(self, handle):
        addr = f"{handle.host}:{handle.port}"
        with connect([addr, addr]) as client:
            assert isinstance(client, ClusterClient)

    def test_canonical_kwargs_forwarded(self, handle):
        with connect(
            f"{handle.host}:{handle.port}", deadline=3.5, retry=1
        ) as client:
            assert client.deadline == 3.5

    def test_bad_usage_typed(self):
        with pytest.raises(TypeError):
            connect()
        with pytest.raises(TypeError):
            connect("a:1", cluster_seeds=["b:2"])
        with pytest.raises(ValueError):
            connect("no-port-here")

    def test_one_address_parser_for_connect_and_cluster_seeds(self):
        from repro.cluster import parse_seed

        for bad in ("host:abc", ":9000", "host:", "host:-1"):
            with pytest.raises(ValueError, match="is not 'host:port'"):
                parse_seed(bad)
            with pytest.raises(ValueError, match="is not 'host:port'"):
                connect(bad)
            with pytest.raises(ValueError, match="is not 'host:port'"):
                connect(cluster_seeds=[bad])


class TestUnknownCodec:
    """A misspelled codec is the same typed error local, served, clustered."""

    def _assert_typed(self, call):
        with pytest.raises(UnknownCodecError, match="unknown compressor") as info:
            call()
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, ReproError)
        assert not str(info.value).startswith(("'", '"'))  # no KeyError repr

    def test_local(self, array):
        self._assert_typed(lambda: repro.compress_array(array, "nope"))

    def test_service_client(self, handle, array):
        with connect((handle.host, handle.port)) as client:
            self._assert_typed(lambda: client.compress_array(array, "nope"))
            assert round_trip(client, array)  # the connection survives

    def test_cluster_client(self, handle, array):
        with connect(cluster_seeds=[(handle.host, handle.port)]) as client:
            self._assert_typed(lambda: client.compress_array(array, "nope"))
            assert client.resilience_snapshot()["failovers"] == 0


class TestDeprecatedKwargs:
    """The PR 9 spellings (``timeout=`` / ``retries=``) are gone."""

    def test_service_client_timeout_is_a_type_error(self, handle):
        with pytest.raises(TypeError, match="timeout"):
            ServiceClient(handle.host, handle.port, timeout=2.0)

    def test_service_client_retries_is_a_type_error(self, handle):
        with pytest.raises(TypeError, match="retries"):
            ServiceClient(handle.host, handle.port, retries=2)

    def test_both_spellings_is_an_error(self, handle):
        with pytest.raises(TypeError, match="timeout"):
            ServiceClient(handle.host, handle.port, deadline=1.0, timeout=2.0)

    def test_cluster_client_timeout_is_a_type_error(self, handle):
        with pytest.raises(TypeError, match="timeout"):
            ClusterClient([(handle.host, handle.port)], timeout=4.0)

    def test_async_connect_timeout_is_a_type_error(self, handle):
        with pytest.raises(TypeError, match="timeout"):
            asyncio.run(
                AsyncServiceClient.connect(
                    handle.host, handle.port, timeout=1.0
                )
            )

    def test_canonical_spelling_does_not_warn(self, handle):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with ServiceClient(
                handle.host, handle.port, deadline=2.0, retry=1
            ) as client:
                assert client.deadline == 2.0
                assert not hasattr(client, "timeout")
            with ClusterClient(
                [(handle.host, handle.port)], deadline=4.0
            ) as cluster:
                assert cluster.deadline == 4.0
                assert not hasattr(cluster, "timeout")


class TestPublicSurface:
    def test_top_level_all(self):
        for name in ("compress_array", "decompress_array", "open_stream",
                     "connect", "CompressionClient"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_import_repro_loads_neither_scipy_nor_sqlite(self):
        # Every `fcbench serve` child, cluster node and pool worker pays
        # for `import repro`; scipy.stats alone was 1 s of its 1.3 s.
        probe = (
            "import sys, repro; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'sqlite3', '_sqlite3')])"
        )
        assert _fresh_interpreter(probe) == "[]"

    def test_a_fixed_codec_session_loads_no_selection_module(self):
        # The first `codec="mpc"` request of a fresh `fcbench serve` used
        # to import the whole selection stack (19 modules, 35 ms) just to
        # learn that "mpc" is not "auto".
        probe = (
            "import sys, numpy as np, repro\n"
            "a = np.round(np.random.default_rng(0).uniform(1, 9e4, 8192), 2)\n"
            "def loaded():\n"
            "    return [m for m in sys.modules\n"
            "            if m.startswith(('repro.select', 'repro.core'))]\n"
            "blob = repro.compress_array(a, 'mpc', chunk_elements=4096)\n"
            "assert (repro.decompress_array(blob) == a).all()\n"
            "print(loaded())\n"
            "auto = repro.compress_array(a, 'auto', chunk_elements=4096)\n"
            "print('repro.select.policy' in loaded())\n"
            "from repro.select import resolve_policy\n"
            "policy = resolve_policy('heuristic')\n"
            "assert auto == repro.compress_array(a, policy, chunk_elements=4096)\n"
        )
        assert _fresh_interpreter(probe).splitlines() == ["[]", "True"]

    def test_a_client_loads_no_server(self):
        # `repro.service` resolves its exports lazily, so dialing a
        # service does not import the server, the gateway or http.server.
        probe = (
            "import sys, repro.service.client, repro; repro.connect\n"
            "print([m for m in sys.modules if m in ('repro.service.server', "
            "'repro.service.gateway', 'http.server')])\n"
            "from repro.service import ServiceClient, serve_background\n"
            "print('repro.service.server' in sys.modules)\n"
        )
        assert _fresh_interpreter(probe).splitlines() == ["[]", "True"]

    def test_unknown_service_name_is_an_attribute_error(self):
        import repro.service

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.service.no_such_name

    def test_every_all_name_resolves(self):
        modules = ["repro"]
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            modules.append(info.name)
        checked = 0
        for name in modules:
            module = importlib.import_module(name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            assert len(set(exported)) == len(exported), (
                f"{name}.__all__ has duplicates"
            )
            for symbol in exported:
                assert hasattr(module, symbol), (
                    f"{name}.__all__ exports missing name {symbol!r}"
                )
            checked += 1
        assert checked >= 20  # the audit actually covered the tree
