"""The four workloads: what each sets up, what one operation is, and how
its output is verified.

Every workload is closed loop — a caller of a compression library or
service blocks on the reply, so load is a client count, not a rate —
and every phase runs whole passes over a fixed list of operations until
its share of ``--seconds`` is used, so each operation keeps the same
weight in every run.  Inputs come from ``repro.data.load(name,
elements, seed)`` here in the benchmark process; the program under test
sees only arrays.  One dataset per paper domain (HPC, TS, OBS, DB).
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import Callable, NamedTuple

from bench import children, measure

DATASETS = ("msg-bt", "citytemp", "hst-wfc3-ir", "tpcH-order")
SERVED_DATASET = "tpcH-order"
SERVED_CHUNK_ELEMENTS = 4096


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the benchmark; ``QUICK`` exists so the
    tests can drive every code path against real children in seconds."""

    bitpack_codecs: tuple = (
        "gorilla", "chimp", "buff", "mpc", "gfc",
        "ndzip-cpu", "ndzip-gpu", "nvcomp-bitcomp",
    )  # fmt: skip
    entropy_codecs: tuple = (
        "bitshuffle-lz4", "bitshuffle-zstd", "spdp", "nvcomp-lz4",
        "fpzip", "pfpc", "dzip",
    )  # fmt: skip
    # One default chunk per cell: per-chunk cost is what the vectorised
    # tier pays, and a cell stays small enough to warm up three times.
    bitpack_elements: int = 65_536
    entropy_elements: int = 8_192
    # dzip's bitwise arithmetic coder is ~100x slower than the rest of
    # its tier; at 512 elements it is still a third of the pass.
    dzip_elements: int = 512
    small_elements: int = 4_096  # serve-small request: 32 KiB
    large_elements: int = 16_384  # cluster-auto request: 128 KiB, 4 chunks
    # Distinct request arrays cycled by the served workloads, so that
    # remembering one answer is not the same as serving traffic.
    windows: int = 16
    connections: int = 2


FULL = Scale()
QUICK = Scale(
    bitpack_codecs=("mpc",),
    entropy_codecs=("bitshuffle-lz4",),
    bitpack_elements=2_048,
    entropy_elements=512,
    dzip_elements=64,
    small_elements=512,
    large_elements=2_048,
    windows=2,
)


class TimedLoader:
    """``repro.data.load`` with the time it took, for ``data.load_s``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, name: str, elements: int, seed: int):
        import repro

        start = time.perf_counter()
        try:
            return repro.load(name, elements, seed)
        finally:
            self.seconds += time.perf_counter() - start


class Op(NamedTuple):
    """One timed call and the untimed check of what it returned."""

    call: Callable[[], object]
    check: Callable[[object], bool]
    raw_bytes: int


@dataclasses.dataclass
class Phase:
    """What one timed phase, or one block of it, did — pooled over its
    clients, all durations in seconds."""

    #: Time inside each request, in the order the requests finished.
    latencies_s: list
    #: The same by position in the operation list (cell, or window).
    by_op_s: list
    #: Time inside requests of each whole pass of each client.
    pass_s: list
    #: Raw bytes one client moves in one pass.
    pass_bytes: int
    clients: int
    raw_bytes: int = 0
    attempted: int = 0
    failed: int = 0

    def scaled(self, factor: float) -> "Phase":
        """The same phase with every duration multiplied by ``factor``."""
        return dataclasses.replace(
            self,
            latencies_s=[value * factor for value in self.latencies_s],
            by_op_s=[[v * factor for v in values] for values in self.by_op_s],
            pass_s=[value * factor for value in self.pass_s],
        )

    @property
    def mb_per_s(self) -> float:
        """Raw MB through all clients per second, at the pace of the
        fast quartile of passes.

        A pass's time is what a client spent inside its requests, so
        verification between requests is left out.  Interference from
        the sandbox's neighbours only ever slows a pass down; the pace
        a quarter of the passes beat is still the program's own when
        half of them were disturbed, where a median would not be.
        """
        pace_s = measure.percentile(self.pass_s, 25)
        return self.clients * self.pass_bytes / 1e6 / pace_s


def pool(phases) -> Phase:
    """Several blocks of one phase as one."""
    first = phases[0]
    return Phase(
        [value for phase in phases for value in phase.latencies_s],
        [
            [value for phase in phases for value in phase.by_op_s[index]]
            for index in range(len(first.by_op_s))
        ],
        [value for phase in phases for value in phase.pass_s],
        first.pass_bytes,
        first.clients,
        raw_bytes=sum(phase.raw_bytes for phase in phases),
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases),
    )


def _same_array(out, expected, raw: bytes) -> bool:
    return (
        out.dtype == expected.dtype
        and out.shape == expected.shape
        and out.tobytes() == raw
    )


def _run_client(ops, deadline: float, phase: Phase, lock) -> None:
    by_op = [[] for _ in ops]
    latencies, pass_s, raw_bytes, attempted, failed = [], [], 0, 0, 0
    while True:
        done = len(latencies)
        for index, op in enumerate(ops):
            attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # a raised or refused op is a failed op
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            by_op[index].append(elapsed)
            raw_bytes += op.raw_bytes
            if not op.check(result):
                failed += 1
        pass_s.append(sum(latencies[done:]))
        if time.perf_counter() >= deadline:
            break
    with lock:
        phase.latencies_s += latencies
        for pooled, own in zip(phase.by_op_s, by_op):
            pooled += own
        phase.pass_s += pass_s
        phase.raw_bytes += raw_bytes
        phase.attempted += attempted
        phase.failed += failed


def run_phase(client_ops, seconds: float) -> Phase:
    """Run each client's operation list in whole passes for ``seconds``.

    One client runs on the calling thread; several run on a thread each
    and start together.  Clients only wait on sockets, so threads are
    enough to keep that many requests in flight.
    """
    phase = Phase(
        [],
        [[] for _ in client_ops[0]],
        [],
        sum(op.raw_bytes for op in client_ops[0]),
        len(client_ops),
    )
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    if len(client_ops) == 1:
        _run_client(client_ops[0], deadline, phase, lock)
        return phase
    threads = [
        threading.Thread(target=_run_client, args=(ops, deadline, phase, lock))
        for ops in client_ops
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase


class Workload:
    """Set-up, the two operation lists, and tear-down of one workload.

    ``set_up`` ends with one untimed pass over every operation that
    fills lazy state, records the reference output of each cell and
    verifies it; its failures are kept in ``warmup_failed``.
    """

    name: str
    #: Share of ``--seconds`` the compress phase gets.
    compress_share = 0.5
    #: What a latency percentile ranges over — whatever varies for a
    #: caller.  In-process calls differ by input, so each cell counts
    #: once (at its fast-quartile time) and p95 is the second-slowest;
    #: served requests are all alike, so every request counts.
    percentiles_over_cells = False

    def __init__(self, scale: Scale, seed: int, load, trace: bool = False):
        self.scale, self.seed, self.load, self.trace = scale, seed, load, trace
        self.warmup_attempted = self.warmup_failed = 0
        self.raw_bytes = self.stored_bytes = 0

    def set_up(self) -> None:
        raise NotImplementedError

    def compress_ops(self) -> list[list[Op]]:
        """One operation list per client, as ``set_up`` built them."""
        return self._compress

    def decompress_ops(self) -> list[list[Op]]:
        return self._decompress

    def tear_down(self) -> None:
        pass

    def _warm(self, ops: list[Op]) -> None:
        for op in ops:
            self.warmup_attempted += 1
            try:
                ok = op.check(op.call())
            except Exception:
                ok = False
            self.warmup_failed += not ok


class CodecWorkload(Workload):
    """In-process ``repro.compress_array`` / ``decompress_array`` with
    default chunking over codecs x datasets; ``service``, ``cluster``
    and ``select`` do no work here."""

    codecs: tuple
    elements: int
    percentiles_over_cells = True

    def set_up(self) -> None:
        import repro

        self.cells = []
        compress, decompress = [], []
        for codec in self.codecs:
            elements = (
                self.scale.dzip_elements if codec == "dzip" else self.elements
            )
            for dataset in DATASETS:
                array = self.load(dataset, elements, self.seed)
                raw = array.tobytes()
                # Codecs are deterministic: the first blob of a cell is
                # the reference every later blob must equal.
                reference = repro.compress_array(array, codec)
                self.cells.append((codec, dataset))
                self.raw_bytes += len(raw)
                self.stored_bytes += len(reference)
                compress.append(
                    Op(
                        lambda array=array, codec=codec: repro.compress_array(
                            array, codec
                        ),
                        lambda blob, reference=reference: blob == reference,
                        len(raw),
                    )
                )
                decompress.append(
                    Op(
                        lambda reference=reference: repro.decompress_array(
                            reference
                        ),
                        lambda out, array=array, raw=raw: _same_array(
                            out, array, raw
                        ),
                        len(raw),
                    )
                )
        self._compress, self._decompress = [compress], [decompress]
        self._warm(compress + decompress)


class CodecBitpack(CodecWorkload):
    """The vectorised plan-then-pack tier; an entropy-coder change must
    leave it flat."""

    name = "codec-bitpack"

    def __init__(self, scale, *args, **kwargs):
        super().__init__(scale, *args, **kwargs)
        self.codecs, self.elements = scale.bitpack_codecs, scale.bitpack_elements


class CodecEntropy(CodecWorkload):
    """The pure-Python LZ77 / Huffman / range / arithmetic tier; a
    bit-packing change must leave it flat."""

    name = "codec-entropy"
    # A compress pass costs about twice a decompress pass.
    compress_share = 0.6

    def __init__(self, scale, *args, **kwargs):
        super().__init__(scale, *args, **kwargs)
        self.codecs, self.elements = scale.entropy_codecs, scale.entropy_elements


def _recorder(trace: bool):
    """The ``trace=`` argument of a client: off, or a recorder whose
    ring holds every span of one traced replay (the default ring keeps
    about a thousand requests)."""
    if not trace:
        return False
    from repro.obs import SpanRecorder

    return SpanRecorder(capacity=1 << 18)


class ServedWorkload(Workload):
    """Shared shape of the two served workloads: ``windows`` distinct
    arrays of one dataset, each request one array, every served blob
    compared with what the local API produces for the same call."""

    codec: str
    elements: int

    def _arrays(self):
        count = self.scale.windows
        return self.load(SERVED_DATASET, self.elements * count, self.seed).reshape(
            count, self.elements
        )

    def _references(self, arrays):
        import repro
        from repro.select import resolve_policy

        # ``auto`` on the wire is the heuristic policy; resolving it here
        # keeps the reference independent of how the name is mapped.
        codec = resolve_policy("heuristic") if self.codec == "auto" else self.codec
        blobs = [
            repro.compress_array(
                array, codec, chunk_elements=SERVED_CHUNK_ELEMENTS
            )
            for array in arrays
        ]
        self.raw_bytes = sum(array.nbytes for array in arrays)
        self.stored_bytes = sum(len(blob) for blob in blobs)
        return blobs

    def ops_for(self, compress, decompress):
        """Compress and decompress operation lists for one client, from
        its two request callables."""
        arrays, blobs = self.arrays, self.blobs
        raws = [array.tobytes() for array in arrays]
        return (
            [
                Op(
                    lambda array=array: compress(array),
                    lambda blob, reference=blob: blob == reference,
                    array.nbytes,
                )
                for array, blob in zip(arrays, blobs)
            ],
            [
                Op(
                    lambda blob=blob: decompress(blob),
                    lambda out, array=array, raw=raw: _same_array(out, array, raw),
                    array.nbytes,
                )
                for array, blob, raw in zip(arrays, blobs, raws)
            ],
        )

    def set_up(self) -> None:
        self.arrays = self._arrays()
        self.blobs = self._references(self.arrays)
        self._start()
        self._compress, self._decompress = [], []
        for _ in range(self.clients):
            compress, decompress = self.ops_for(*self._dial())
            self._compress.append(compress)
            self._decompress.append(decompress)
        for compress, decompress in zip(self._compress, self._decompress):
            self._warm(compress + decompress)


class ServeSmall(ServedWorkload):
    """32 KiB ``mpc`` requests on two connections to ``fcbench serve``:
    the codec is a tenth of a request, so framing, admission, the batch
    window and the loop-to-pool hop set the number."""

    name = "serve-small"
    codec = "mpc"

    def __init__(self, scale, *args, **kwargs):
        super().__init__(scale, *args, **kwargs)
        self.elements, self.clients = scale.small_elements, scale.connections
        self.child = None
        self.connections = []

    def _start(self) -> None:
        self.child = children.Server(trace=self.trace)

    def _dial(self):
        from repro.service.client import ServiceClient

        client = ServiceClient(
            self.child.host,
            self.child.port,
            pool_size=1,
            trace=_recorder(self.trace),
        )
        self.connections.append(client)
        return (
            lambda array: client.compress_array(
                array, self.codec, chunk_elements=SERVED_CHUNK_ELEMENTS
            ),
            client.decompress_array,
        )

    def tear_down(self) -> None:
        for client in self.connections:
            client.close()
        if self.child is not None:
            self.child.stop()


class ClusterAuto(ServedWorkload):
    """128 KiB ``codec="auto"`` requests through the 2-node ring: per-byte
    cost, routing and ``select`` dominate instead of per-request cost."""

    name = "cluster-auto"
    codec = "auto"
    clients = 1
    # A compress request costs about four decompress requests.
    compress_share = 0.65

    def __init__(self, scale, *args, **kwargs):
        super().__init__(scale, *args, **kwargs)
        self.elements = scale.large_elements
        self.child = self.client = None
        self._stream = itertools.count()

    def _start(self) -> None:
        self.child = children.Cluster(trace=self.trace)

    def _dial(self):
        import repro

        self.client = client = repro.connect(
            cluster_seeds=[self.child.control], trace=_recorder(self.trace)
        )
        # A fresh stream id per request spreads requests over the ring.
        return (
            lambda array: client.compress_stream(
                f"c{next(self._stream)}",
                array,
                self.codec,
                chunk_elements=SERVED_CHUNK_ELEMENTS,
            ),
            lambda blob: client.decompress_stream(f"d{next(self._stream)}", blob),
        )

    def tear_down(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.child is not None:
            self.child.stop()


WORKLOADS = {
    cls.name: cls for cls in (CodecBitpack, CodecEntropy, ServeSmall, ClusterAuto)
}
