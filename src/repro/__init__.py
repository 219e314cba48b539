"""repro: a reproduction of FCBench (VLDB 2024).

Cross-domain benchmarking of lossless compression for floating-point
data: 15 compressor implementations, the 33-dataset synthetic corpus,
a simulated in-memory database, statistical ranking, and a calibrated
performance model reproducing the paper's tables and figures.

The stable public surface is this module's ``__all__``:

* :func:`compress_array` / :func:`decompress_array` — one-shot FCF
  stream round trip, in process.
* :func:`open_stream` — incremental reader over an FCF stream.
* :func:`connect` — dial a compression service (one ``"host:port"``
  address → :class:`~repro.service.client.ServiceClient`; several, or
  ``cluster_seeds=`` → :class:`~repro.cluster.client.ClusterClient`),
  returning a :class:`~repro.client.CompressionClient`.

Everything else — compressor registry, dataset corpus, suite runner —
is stable too, but scoped to benchmarking rather than serving.
"""

from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _distribution_version

from repro.api import (
    compress_array,
    decompress_array,
    open_stream,
)
from repro.client import CompressionClient, connect
from repro.compressors import compressor_names, get_compressor
from repro.data import dataset_names, load

try:
    # Installed (pip install -e . or a wheel): the single source of
    # truth is the distribution metadata setup.py declares.
    __version__ = _distribution_version("fcbench-repro")
except PackageNotFoundError:  # running from a checkout via PYTHONPATH=src
    __version__ = "1.0.0"


def __getattr__(name: str):
    # Lazy: a serving process (server child, cluster node, pool worker)
    # imports `repro` without paying for the benchmark harness.
    if name == "run_suite":
        from repro.core.suite import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CompressionClient",
    "__version__",
    "compress_array",
    "compressor_names",
    "connect",
    "dataset_names",
    "decompress_array",
    "get_compressor",
    "load",
    "open_stream",
    "run_suite",
]
