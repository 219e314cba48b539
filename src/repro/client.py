"""The unified client surface: one ABC, one ``connect()`` entry point.

Three client implementations grew up separately — the single-server
:class:`~repro.service.client.ServiceClient`, its asyncio twin, and the
sharded :class:`~repro.cluster.client.ClusterClient` — and callers had
to know which one they were holding.  This module makes the synchronous
pair drop-in interchangeable:

* :class:`CompressionClient` — the abstract contract every synchronous
  client satisfies: ``compress_array`` / ``decompress_array`` /
  ``select_explain`` / ``ping`` / ``stats`` / ``close``, plus context
  management.  Code written against this ABC runs unchanged against
  one server or a whole cluster.
* :func:`connect` — the factory: give it one ``"host:port"`` address
  and it dials a :class:`ServiceClient`; give it several (or pass
  ``cluster_seeds=``) and it bootstraps a :class:`ClusterClient` from
  them.  Keyword options use the canonical spellings shared across
  clients (``deadline=``, ``retry=``, ``attempt_timeout=``,
  ``token=``).

Canonical kwarg glossary (aligned across sync/async/cluster clients):

``deadline=``
    Overall per-operation budget in seconds — every attempt, backoff
    sleep, and failover spends from it.
``retry=``
    Transparent retry count after transient transport faults.
``attempt_timeout=``
    Cap on each individual socket operation / per-node attempt.
``token=``
    Tenant auth token for multi-tenant servers, carried on every
    request frame.
"""

from __future__ import annotations

import abc

__all__ = ["CompressionClient", "connect"]


class CompressionClient(abc.ABC):
    """What every synchronous compression client can do.

    :class:`~repro.service.client.ServiceClient` (one server) and
    :class:`~repro.cluster.client.ClusterClient` (a sharded cluster)
    both implement this contract, so callers — the CLI, the load
    generator, application code — can hold "a client" without caring
    which topology is behind it.  All methods mirror the local
    :mod:`repro.api` semantics: served bytes are exactly what the local
    call would produce.
    """

    @abc.abstractmethod
    def compress_array(self, array, codec="bitshuffle-zstd", **options) -> bytes:
        """Compress ``array``; returns the FCF stream bytes."""

    @abc.abstractmethod
    def decompress_array(self, blob, **options):
        """Invert :meth:`compress_array`; returns the numpy array."""

    @abc.abstractmethod
    def select_explain(self, array, **options) -> dict:
        """Per-chunk selection decisions for ``array``."""

    @abc.abstractmethod
    def ping(self, **options) -> float:
        """Round-trip liveness probe; returns seconds taken."""

    @abc.abstractmethod
    def stats(self, **options) -> dict:
        """Server-side metrics snapshot(s)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release sockets; the client is unusable afterwards."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect(
    target=None, *, cluster_seeds=None, **options
) -> CompressionClient:
    """Dial a compression service — one server or a whole cluster.

    Parameters
    ----------
    target:
        ``"host:port"``, a ``(host, port)`` tuple, or a list/tuple of
        several addresses.  One address dials a
        :class:`~repro.service.client.ServiceClient`; several bootstrap
        a :class:`~repro.cluster.client.ClusterClient` using them as
        topology seeds.
    cluster_seeds:
        Explicit seed list — the keyword spelling of the multi-address
        form.  Mutually exclusive with a multi-address ``target``.
    options:
        Forwarded to the chosen client, canonical spellings
        (``deadline=``, ``retry=``, ``attempt_timeout=``, ``token=``).

    >>> with connect("127.0.0.1:8765") as client:      # doctest: +SKIP
    ...     blob = client.compress_array(array, codec="auto")
    >>> with connect(cluster_seeds=["10.0.0.1:9000", "10.0.0.2:9000"]) \\
    ...         as client:                             # doctest: +SKIP
    ...     blob = client.compress_stream("stream-7", array)
    """
    if cluster_seeds is not None and target is not None:
        raise TypeError("pass either a target address or cluster_seeds=")
    seeds = cluster_seeds
    if seeds is None:
        if target is None:
            raise TypeError("connect() needs a target address or cluster_seeds=")
        if isinstance(target, (list, set, frozenset)) or (
            isinstance(target, tuple)
            and not (
                len(target) == 2
                and isinstance(target[0], str)
                and isinstance(target[1], int)
            )
        ):
            seeds = list(target)
    from repro.cluster.client import ClusterClient, parse_seed

    if seeds is not None:
        return ClusterClient(seeds, **options)
    from repro.service.client import ServiceClient

    return ServiceClient(*parse_seed(target), **options)
