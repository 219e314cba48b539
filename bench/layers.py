"""The traced run: one number per layer, all timed from the benchmark.

End-to-end numbers come from the untraced run.  This run (a) replays
each workload for a fraction of its work inside benchmark-side spans
put around the program's public functions from outside, (b) calls the
layers that spans cannot isolate directly (encodings, wire protocol,
hash ring), and (c) for the served workloads starts a second set of
children with the program's own ``--trace`` flag and folds the spans
they already record.  Untraced and traced children take turns in short
blocks, so the difference between them is the tracing overhead.

Every traced run measures every layer, whichever ``--workload`` it was
started for; the workload named is the one whose spans are written to
``bench/out/trace-<workload>.json``.  ``bench/README.md`` maps each
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from bench import OUT_DIR, children, load_contract, measure, spans, workloads

#: Replay passes per codec workload: enough for a per-codec figure,
#: a small fraction of what the untraced run does.
REPLAY_PASSES = 2
#: Untraced/traced block pairs per served workload.
AB_ROUNDS = 6
PROBE_REPEATS = 5


def _codec_name(compressor) -> str:
    return "raw" if compressor is None else compressor.info.name


def _targets():
    """The public functions that get a span, by layer."""
    from repro.api import frames, session
    from repro.encodings import huffman, lz4, lz77, vectorbit, zstd_like
    from repro.select import features

    return [
        (session.compress_array, "api.compress_array"),
        (session.decompress_array, "api.decompress_array"),
        (
            frames.encode_payload,
            lambda compressor, *a, **k: f"compressors.{_codec_name(compressor)}.compress",
        ),
        (
            frames.decode_payload,
            lambda compressor, *a, **k: f"compressors.{_codec_name(compressor)}.decompress",
        ),
        (features.extract_features, "select.extract_features"),
        (lz77.find_tokens, "encodings.lz77.find_tokens"),
        (lz4.lz4_compress, "encodings.lz4.compress"),
        (lz4.lz4_decompress, "encodings.lz4.decompress"),
        (zstd_like.zstd_compress, "encodings.zstd_like.compress"),
        (zstd_like.zstd_decompress, "encodings.zstd_like.decompress"),
        (huffman.huffman_encode, "encodings.huffman.encode"),
        (huffman.huffman_decode, "encodings.huffman.decode"),
        (vectorbit.pack_fields, "encodings.vectorbit.pack_fields"),
        (vectorbit.unpack_fields, "encodings.vectorbit.unpack_fields"),
    ]


def _duration(span) -> float:
    return span["end"] - span["start"]


def _p50(values) -> float:
    return measure.percentile(values, 50)


class Suite:
    """State of one traced run: the tracer, the metrics so far, and the
    count of verified operations."""

    def __init__(self, keep: str, scale: workloads.Scale, seed: int, seconds: float):
        self.keep, self.scale, self.seed, self.seconds = keep, scale, seed, seconds
        self.load = workloads.TimedLoader()
        self.tracer = spans.Tracer()
        self.rng = np.random.default_rng(seed)
        self.host = measure.HostSpeed()
        self.units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
        self.metrics: dict[str, float] = {}
        self.detail: dict = {"host_speed": {}}
        self.attempted = self.failed = 0

    # -- helpers -------------------------------------------------------
    def section(self, measure_layers, *args) -> None:
        """Run one group of layer measurements and report its timings at
        reference host speed, sampled just before and just after it."""
        known, first_sample = set(self.metrics), self.host.sample(5)
        measure_layers(*args)
        self.host.sample(5)
        speed = self.host.speed(since=first_sample)
        label = " ".join([measure_layers.__name__, *(a.name for a in args)])
        self.detail["host_speed"][label] = speed
        for name in set(self.metrics) - known:
            self.metrics[name] = measure.normalise(
                self.metrics[name], self.units[name], speed
            )

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def count(self, *phases) -> None:
        for phase in phases:
            self.attempted += phase.attempted
            self.failed += phase.failed

    def timed(self, name: str, call, repeats: int = PROBE_REPEATS):
        """Median seconds of ``call`` inside a span, and its last result."""
        durations = []
        for _ in range(repeats):
            with self.tracer.span(name) as span:
                result = call()
            durations.append(_duration(span))
        return statistics.median(durations), result

    def keep_spans(self, workload_name: str, recorded) -> None:
        if workload_name == self.keep:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            spans.write_trace(OUT_DIR / f"trace-{workload_name}.json", recorded)

    def set_up(self, *loads) -> None:
        """Set workloads up side by side (children start in parallel)."""
        with ThreadPoolExecutor(len(loads)) as pool:
            for future in [pool.submit(workload.set_up) for workload in loads]:
                future.result()
        for workload in loads:
            self.attempted += workload.warmup_attempted
            self.failed += workload.warmup_failed
        measure.freeze_heap()

    # -- compressors, api: replay of the two codec workloads -----------
    def codec_replay(self, cls) -> None:
        workload = cls(self.scale, self.seed, self.load)
        self.set_up(workload)
        self.tracer.take()
        with spans.instrumented(self.tracer, _targets()):
            for label, ops in (
                ("compress", workload.compress_ops()[0]),
                ("decompress", workload.decompress_ops()[0]),
            ):
                with self.tracer.span(f"workload.{label}_phase"):
                    for index in range(REPLAY_PASSES):
                        for (codec, dataset), op in zip(workload.cells, ops):
                            with self.tracer.span(
                                "workload.op",
                                request=f"{label}/{codec}/{dataset}/{index}",
                            ):
                                result = op.call()
                            self.check(op.check(result))
        recorded = self.tracer.take()
        self.keep_spans(workload.name, recorded)

        raw_mb = dict.fromkeys(workload.codecs, 0.0)
        for (codec, _), op in zip(workload.cells, workload.compress_ops()[0]):
            raw_mb[codec] += op.raw_bytes * REPLAY_PASSES / 1e6
        seconds: dict[str, float] = {}
        for span in recorded:
            seconds[span["name"]] = seconds.get(span["name"], 0.0) + _duration(span)
        shares, closure = {}, {}
        for label in ("compress", "decompress"):
            for codec, mb in raw_mb.items():
                # Σ bytes / Σ time over the four datasets: their
                # harmonic mean weighted by size.
                self.metrics[f"compressors.{codec}.{label}_mbs"] = (
                    mb / seconds[f"compressors.{codec}.{label}"]
                )
            wall = seconds[f"workload.{label}_phase"]
            shares[label] = {
                codec: seconds[f"compressors.{codec}.{label}"] / wall
                for codec in raw_mb
            }
            closure[label] = seconds[f"api.{label}_array"] / wall
        self.detail[workload.name] = {
            # Share of the replayed phase spent inside each codec, how
            # much of the phase wall the api spans account for, and the
            # self time of every layer the replay crossed.
            "codec_time_share": shares,
            "api_time_over_phase_wall": closure,
            "self_ms_by_layer": {
                name: sum(values)
                for name, values in sorted(spans.fold_self_ms(recorded).items())
            },
        }

    def api_probes(self) -> None:
        import repro

        array = self.load("msg-bt", 4 * self.scale.bitpack_elements, self.seed)
        blob = repro.compress_array(array, "gorilla")
        self.tracer.take()
        with spans.instrumented(self.tracer, _targets()):
            for _ in range(PROBE_REPEATS):
                self.check(repro.compress_array(array, "gorilla") == blob)
                out = repro.decompress_array(blob)
                self.check(out.tobytes() == array.tobytes())
        folded = spans.fold_self_ms(self.tracer.take())
        # compress_array minus the encode_payload calls inside it:
        # session, framing, index and CRC — the api layer's own cost.
        self.metrics["api.compress_self_ms"] = statistics.median(
            folded["api.compress_array"]
        )
        self.metrics["api.decompress_self_ms"] = statistics.median(
            folded["api.decompress_array"]
        )

        scratch = children.scratch_dir("api")
        try:
            path = scratch / "stream.fcf"
            path.write_bytes(blob)
            seconds, _ = self.timed(
                "api.open_stream", lambda: repro.open_stream(path).close(), 50
            )
            self.metrics["api.open_stream_us"] = seconds * 1e6
            flat = array.ravel()
            reads = []
            with repro.open_stream(path) as stream:
                for offset in map(int, self.rng.integers(0, flat.size - 1024, 20)):
                    with self.tracer.span("api.range_read") as span:
                        part = stream.read(offset, offset + 1024)
                    reads.append(_duration(span))
                    self.check(
                        part.tobytes() == flat[offset : offset + 1024].tobytes()
                    )
            self.metrics["api.range_read_ms"] = statistics.median(reads) * 1e3
        finally:
            path.unlink(missing_ok=True)
            scratch.rmdir()

    # -- encodings: direct calls ----------------------------------------
    def encoding_probes(self) -> None:
        from repro.encodings import arithmetic, huffman, lz4, lz77, range_coder
        from repro.encodings import vectorbit, zstd_like

        data = self.load(
            workloads.SERVED_DATASET, 2 * self.scale.small_elements, self.seed
        ).tobytes()
        mb = len(data) / 1e6

        seconds, tokens = self.timed(
            "encodings.lz77.find_tokens", lambda: lz77.find_tokens(data)
        )
        self.check(lz77.reassemble(tokens) == data)
        self.metrics["encodings.lz77.find_tokens_mbs"] = mb / seconds
        for name, encode, decode, verbs in (
            ("lz4", lz4.lz4_compress, lz4.lz4_decompress, ("compress", "decompress")),
            (
                "zstd_like",
                zstd_like.zstd_compress,
                zstd_like.zstd_decompress,
                ("compress", "decompress"),
            ),
            (
                "huffman",
                huffman.huffman_encode,
                huffman.huffman_decode,
                ("encode", "decode"),
            ),
        ):
            seconds, packed = self.timed(
                f"encodings.{name}.{verbs[0]}", lambda: encode(data)
            )
            self.metrics[f"encodings.{name}.{verbs[0]}_mbs"] = mb / seconds
            seconds, back = self.timed(
                f"encodings.{name}.{verbs[1]}", lambda: decode(packed)
            )
            self.metrics[f"encodings.{name}.{verbs[1]}_mbs"] = mb / seconds
            self.check(back == data)

        symbols = data[: len(data) // 4]

        def range_encode():
            encoder = range_coder.RangeEncoder()
            model = range_coder.AdaptiveSymbolModel(256)
            for symbol in symbols:
                model.encode_symbol(encoder, symbol)
            return encoder.finish()

        def range_decode():
            decoder = range_coder.RangeDecoder(coded)
            model = range_coder.AdaptiveSymbolModel(256)
            return bytes(model.decode_symbol(decoder) for _ in symbols)

        millions = len(symbols) / 1e6
        seconds, coded = self.timed("encodings.range_coder.encode", range_encode, 3)
        self.metrics["encodings.range_coder.encode_msym_s"] = millions / seconds
        seconds, back = self.timed("encodings.range_coder.decode", range_decode, 3)
        self.metrics["encodings.range_coder.decode_msym_s"] = millions / seconds
        self.check(back == symbols)

        # One adaptive model per bit position of a byte, dzip's shape.
        bits = np.unpackbits(
            np.frombuffer(data[: len(data) // 16], np.uint8)
        ).tolist()

        def arithmetic_encode():
            encoder = arithmetic.BinaryArithmeticEncoder()
            models = [arithmetic.AdaptiveBitModel() for _ in range(8)]
            for index, bit in enumerate(bits):
                model = models[index & 7]
                encoder.encode(bit, model.prob_one)
                model.update(bit)
            return encoder.finish()

        def arithmetic_decode():
            decoder = arithmetic.BinaryArithmeticDecoder(coded_bits)
            models = [arithmetic.AdaptiveBitModel() for _ in range(8)]
            out = []
            for index in range(len(bits)):
                model = models[index & 7]
                bit = decoder.decode(model.prob_one)
                model.update(bit)
                out.append(bit)
            return out

        millions = len(bits) / 1e6
        seconds, coded_bits = self.timed(
            "encodings.arithmetic.encode", arithmetic_encode, 3
        )
        self.metrics["encodings.arithmetic.encode_mbit_s"] = millions / seconds
        seconds, back = self.timed("encodings.arithmetic.decode", arithmetic_decode, 3)
        self.metrics["encodings.arithmetic.decode_mbit_s"] = millions / seconds
        self.check(back == bits)

        count = 4 * self.scale.bitpack_elements
        widths = self.rng.integers(0, 65, count)
        values = self.rng.integers(0, 1 << 64, count, dtype=np.uint64)
        values >>= (64 - widths).astype(np.uint64).clip(max=63)
        values[widths == 0] = 0
        seconds, packed = self.timed(
            "encodings.vectorbit.pack_fields",
            lambda: vectorbit.pack_fields(values, widths),
        )
        mb = len(packed) / 1e6
        self.metrics["encodings.vectorbit.pack_fields_mbs"] = mb / seconds
        seconds, back = self.timed(
            "encodings.vectorbit.unpack_fields",
            lambda: vectorbit.unpack_fields(packed, widths),
        )
        self.metrics["encodings.vectorbit.unpack_fields_mbs"] = mb / seconds
        self.check(bool((back == values).all()))

    # -- select ----------------------------------------------------------
    def select_probes(self) -> None:
        import repro
        from repro.select import extract_features, resolve_policy

        chunk = workloads.SERVED_CHUNK_ELEMENTS
        array = self.load(workloads.SERVED_DATASET, 2 * chunk, self.seed)
        policy = resolve_policy("heuristic")
        seconds, _ = self.timed(
            "select.extract_features", lambda: extract_features(array[:chunk]), 50
        )
        self.metrics["select.extract_features_us"] = seconds * 1e6
        seconds, decision = self.timed(
            "select.decide", lambda: policy.decide(array[:chunk]), 50
        )
        self.metrics["select.decide_us"] = seconds * 1e6
        self.check(decision.codec in policy.candidates)
        auto = len(repro.compress_array(array, policy, chunk_elements=chunk))
        best = min(
            len(repro.compress_array(array, codec, chunk_elements=chunk))
            for codec in policy.candidates
        )
        # Ratio achieved by per-chunk selection over that of the best
        # single candidate: 1.0 means selection found the best codec.
        self.metrics["select.auto_vs_best_fixed_cr"] = best / auto

    # -- service.protocol, cluster.ring: direct calls --------------------
    def protocol_probes(self) -> None:
        from repro.cluster.ring import HashRing
        from repro.service import protocol

        chunk = workloads.SERVED_CHUNK_ELEMENTS
        small = self.load(
            workloads.SERVED_DATASET, self.scale.small_elements, self.seed
        )

        def encode():
            return protocol.encode_frame(
                protocol.COMPRESS,
                1,
                protocol.encode_compress_request(small, "mpc", chunk, "heuristic"),
            )

        def parse():
            (frame,) = protocol.FrameParser().feed(wire)
            return protocol.decode_compress_request(frame.payload)

        seconds, wire = self.timed("service.protocol.encode_request", encode, 200)
        self.metrics["service.protocol.encode_request_us"] = seconds * 1e6
        seconds, (codec, _, _, array) = self.timed(
            "service.protocol.parse_request", parse, 200
        )
        self.metrics["service.protocol.parse_request_us"] = seconds * 1e6
        self.check(codec == "mpc" and array.tobytes() == small.tobytes())

        large = self.load(
            workloads.SERVED_DATASET, self.scale.bitpack_elements, self.seed
        )
        seconds, back = self.timed(
            "service.protocol.array_codec",
            lambda: protocol.decode_array(protocol.encode_array(large)),
            50,
        )
        self.metrics["service.protocol.array_codec_mbs"] = (
            large.nbytes / 1e6 / seconds
        )
        self.check(back.tobytes() == large.tobytes())

        ring = HashRing([f"node-{index}" for index in range(children.Cluster.NODES)])
        keys = [f"c{index}" for index in range(2000)]
        seconds, _ = self.timed(
            "cluster.ring.replicas",
            lambda: [ring.replicas(key, 2) for key in keys],
        )
        self.metrics["cluster.ring.replicas_us"] = seconds / len(keys) * 1e6

    # -- served workloads: untraced and traced children in turn ----------
    @contextlib.contextmanager
    def served_pair(self, cls):
        plain = cls(self.scale, self.seed, self.load)
        traced = cls(self.scale, self.seed, self.load, trace=True)
        try:
            self.set_up(plain, traced)
            yield plain, traced
        finally:
            plain.tear_down()
            traced.tear_down()

    def alternate(self, plain, traced, span_name: str, fetch_spans):
        """Untraced and traced blocks of the compress phase in turn.

        Returns the pooled untraced phase, the pooled traced phase, the
        spans of the traced blocks (the benchmark's own around each
        request, plus the program's) and the CPU seconds the untraced
        children used.
        """
        # The benchmark's span around each traced request is the
        # client-observed latency the program's spans must add up to.
        traced_ops = [
            [op._replace(call=self.tracer.wrap(op.call, span_name)) for op in ops]
            for ops in traced.compress_ops()
        ]
        self.tracer.take()
        block_s = self.seconds / (4 * AB_ROUNDS)
        blocks = {plain: [], traced: []}
        program: dict = {}
        child_cpu_s = 0.0
        began = time.time()
        for _ in range(AB_ROUNDS):
            pids = measure.process_tree(plain.child.pid)
            before = measure.tree_cpu_seconds(pids)
            blocks[plain].append(workloads.run_phase(plain.compress_ops(), block_s))
            child_cpu_s += measure.cpu_delta(before, measure.tree_cpu_seconds(pids))
            blocks[traced].append(workloads.run_phase(traced_ops, block_s))
            # Fetched per block so a node's 4096-span ring never wraps.
            for record in fetch_spans(traced):
                if record["start"] >= began:
                    program[record["span_id"]] = record
        # Keep the workload's requests only: fetching the spans is itself
        # a traced request, but one the server records no span for.
        served = {
            record["trace_id"]
            for record in program.values()
            if record["name"] == "server.request"
        }
        program = [r for r in program.values() if r["trace_id"] in served]
        untraced = workloads.pool(blocks[plain])
        with_trace = workloads.pool(blocks[traced])
        self.count(untraced, with_trace)
        self.metrics[f"obs.trace_overhead_pct.{plain.name}"] = (
            1 - with_trace.mb_per_s / untraced.mb_per_s
        ) * 100
        recorded = self.tracer.take() + spans.from_program(program)
        self.keep_spans(plain.name, recorded)
        return untraced, with_trace, recorded, child_cpu_s

    def request_self_ms(self, recorded, names) -> list[float]:
        """Per request, the summed self time of the spans in ``names``."""
        per_request: dict = {}
        for span, seconds in spans.self_times(recorded):
            if span["name"] in names:
                per_request[span["request"]] = (
                    per_request.get(span["request"], 0.0) + seconds * 1e3
                )
        return list(per_request.values())

    def service_section(self) -> None:
        import repro
        from repro.service.client import ServiceClient

        def fetch(workload):
            records = workload.connections[0].trace()["spans"]
            for client in workload.connections:
                records += client.recorder.snapshot()
            return records

        with self.served_pair(workloads.ServeSmall) as (plain, traced):
            _, with_trace, recorded, _ = self.alternate(
                plain, traced, "service.client.compress_array", fetch
            )
            folded = spans.fold_self_ms(recorded)
            stages = ("parse", "deadline", "gate", "queue_wait", "execute")
            for stage in stages:
                self.metrics[f"service.stage.{stage}_ms"] = statistics.median(
                    folded[f"server.{stage}"]
                )
            self.metrics["service.stage.request_self_ms"] = statistics.median(
                folded["server.request"]
            )
            # Everything under the client's request span that is not the
            # server's: encode, syscalls, the wire both ways, reply parse.
            self.metrics["service.client.request_self_ms"] = statistics.median(
                self.request_self_ms(recorded, ("client.request", "client.attempt"))
            )
            program_spans = sum(
                len(values)
                for name, values in folded.items()
                if name.startswith(("client.", "server."))
            )
            self.metrics["obs.spans_per_request"] = (
                program_spans / with_trace.attempted
            )
            budget = sum(
                self.metrics[f"service.stage.{stage}_ms"] for stage in stages
            ) + self.metrics["service.stage.request_self_ms"] + self.metrics[
                "service.client.request_self_ms"
            ]
            observed = statistics.median(folded["service.client.compress_array"])
            self.detail["serve-small"] = {
                "traced_client_observed_p50_ms": observed,
                "stage_budget_sum_ms": budget,
                "budget_over_observed": budget / observed,
            }

            server = plain.child
            with ServiceClient(server.host, server.port, pool_size=1) as client:
                pings = [client.ping() for _ in range(300)]
                self.metrics["service.ping_p50_ms"] = _p50(pings) * 1e3

                def dial():
                    with ServiceClient(server.host, server.port, pool_size=1) as c:
                        c.ping()

                seconds, _ = self.timed("service.connect", dial, 30)
                # Dial plus the first round trip, less one round trip.
                self.metrics["service.connect_ms"] = (seconds - _p50(pings)) * 1e3

                # One of the workload's connections on its own: what a
                # request costs when nothing else is in flight.
                stats_before = client.stats()
                server_pids = measure.process_tree(server.pid)
                server_before = measure.tree_cpu_seconds(server_pids)
                own_before = measure.cpu_seconds(os.getpid())
                alone = workloads.run_phase(
                    plain.compress_ops()[:1], self.seconds / 8
                )
                own_cpu_s = measure.cpu_seconds(os.getpid()) - own_before
                server_cpu_s = measure.cpu_delta(
                    server_before, measure.tree_cpu_seconds(server_pids)
                )
                stats_after = client.stats()
            self.count(alone)
            self.metrics["service.server_cpu_ms_per_op"] = (
                server_cpu_s / alone.attempted * 1e3
            )
            self.metrics["service.client_cpu_ms_per_op"] = (
                own_cpu_s / alone.attempted * 1e3
            )
            served_p50_ms = _p50(alone.latencies_s) * 1e3
            self.metrics["service.compress_1conn_p50_ms"] = served_p50_ms

            local_ms = []
            for array in plain.arrays:
                seconds, _ = self.timed(
                    "api.compress_array",
                    lambda: repro.compress_array(
                        array,
                        plain.codec,
                        chunk_elements=workloads.SERVED_CHUNK_ELEMENTS,
                    ),
                )
                local_ms.append(seconds * 1e3)
            self.metrics["service.overhead_p50_ms"] = served_p50_ms - _p50(local_ms)

            def grown(*path):
                before, after = stats_before, stats_after
                for key in path:
                    before, after = before[key], after[key]
                return before, after

            (n0, n1), (m0, m1) = (
                grown("ops", "compress", "latency", "count"),
                grown("ops", "compress", "latency", "mean_ms"),
            )
            # The server's own clock around a request.  Its percentiles
            # are histogram bucket edges, so the exact mean is used.
            self.metrics["service.server_time_mean_ms"] = (m1 * n1 - m0 * n0) / (
                n1 - n0
            )
            (r0, r1), (b0, b1) = (
                grown("batches", "requests"),
                grown("batches", "count"),
            )
            self.metrics["service.mean_batch_size"] = (r1 - r0) / (b1 - b0)
            self.metrics["service.shed_requests"] = stats_after["admission"][
                "shed_requests"
            ]
            self.metrics["service.protocol_errors"] = stats_after["protocol_errors"]

    def cluster_section(self) -> None:
        from repro.service.client import ServiceClient

        with self.served_pair(workloads.ClusterAuto) as (plain, traced):
            untraced, _, recorded, child_cpu_s = self.alternate(
                plain,
                traced,
                "cluster.client.compress_stream",
                lambda workload: workload.client.trace()["spans"],
            )
            # The routing layer's own time: the cluster request span
            # less the per-node client request inside it.
            self.metrics["cluster.request_self_ms"] = statistics.median(
                self.request_self_ms(recorded, ("cluster.request", "cluster.replica"))
            )
            self.metrics["cluster.node_cpu_ms_per_op"] = (
                child_cpu_s / untraced.attempted * 1e3
            )
            self.metrics["cluster.failovers"] = sum(
                workload.client.resilience_snapshot()["failovers"]
                for workload in (plain, traced)
            )
            # The same requests sent straight to one node.
            host, port = plain.child.nodes["node-0"]
            with ServiceClient(host, port, pool_size=1) as client:
                direct_ops, _ = plain.ops_for(
                    lambda array: client.compress_array(
                        array,
                        plain.codec,
                        chunk_elements=workloads.SERVED_CHUNK_ELEMENTS,
                    ),
                    client.decompress_array,
                )
                direct = workloads.run_phase([direct_ops], self.seconds / 8)
            self.count(direct)
            self.metrics["cluster.route_overhead_p50_ms"] = (
                _p50(untraced.latencies_s) - _p50(direct.latencies_s)
            ) * 1e3


def run(keep: str, scale: workloads.Scale, seed: int, seconds: float) -> dict:
    # Every codec has a metric, so a quick run shrinks inputs only.
    scale = dataclasses.replace(
        scale,
        bitpack_codecs=workloads.FULL.bitpack_codecs,
        entropy_codecs=workloads.FULL.entropy_codecs,
    )
    suite = Suite(keep, scale, seed, seconds)
    suite.section(suite.codec_replay, workloads.CodecBitpack)
    suite.section(suite.codec_replay, workloads.CodecEntropy)
    suite.section(suite.api_probes)
    suite.section(suite.encoding_probes)
    suite.section(suite.select_probes)
    suite.section(suite.protocol_probes)
    suite.section(suite.service_section)
    suite.section(suite.cluster_section)
    suite.metrics["data.load_s"] = suite.load.seconds
    return {
        "attempted": suite.attempted,
        "failed": suite.failed,
        "metrics": suite.metrics,
        "detail": suite.detail,
    }
