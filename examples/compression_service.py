"""The network compression service end to end.

Run:  python examples/compression_service.py

Starts a compression server on an ephemeral port (background thread),
then walks the full client surface: liveness ping, served compression
with a fixed codec and with adaptive per-chunk selection, proof that
the served bytes are identical to the local API's output, a remote
`select explain`, a burst of pipelined requests to show batching, and
finally the server's own metrics snapshot after a graceful drain.
"""

from __future__ import annotations

import numpy as np

from repro.api import compress_array
from repro.api.session import DecompressSession
from repro.errors import CorruptStreamError
from repro.service import ServiceClient, serve_background


def build_workload() -> np.ndarray:
    """A stream with two regimes, so `auto` picks different codecs."""
    rng = np.random.default_rng(0)
    smooth = np.sin(np.linspace(0.0, 60.0, 16_384)) * 2.5
    ticks = np.round(20.0 + np.cumsum(rng.normal(0.0, 0.1, 16_384)), 1)
    return np.concatenate([smooth, ticks])


def main() -> None:
    array = build_workload()

    with serve_background() as server:
        print(f"server up on {server.host}:{server.port}\n")
        with ServiceClient(server.host, server.port) as client:
            rtt = client.ping()
            print(f"ping: {rtt * 1e3:.2f} ms round trip")

            # -- served compression, fixed codec -----------------------
            blob = client.compress_array(array, "gorilla",
                                         chunk_elements=4096)
            local = compress_array(array, "gorilla", chunk_elements=4096)
            print(
                f"gorilla: {array.nbytes} -> {len(blob)} bytes "
                f"(ratio {array.nbytes / len(blob):.2f}), "
                f"byte-identical to local: {blob == local}"
            )

            # -- adaptive selection over the wire ----------------------
            auto_blob = client.compress_array(array, "auto",
                                              chunk_elements=4096)
            with DecompressSession(auto_blob) as stream:
                codecs = stream.frame_codec_names()
            routed = {name: codecs.count(name) for name in sorted(set(codecs))}
            print(f"auto:    {array.nbytes} -> {len(auto_blob)} bytes, "
                  f"chunks routed {routed}")

            back = client.decompress_array(auto_blob)
            assert np.array_equal(back, array)
            print("decompressed through the server: bit-exact")

            # -- why did it choose those codecs? -----------------------
            explain = client.select_explain(array, chunk_elements=16_384)
            for chunk in explain["chunks"]:
                print(f"  chunk @ {chunk['start']:>6}: {chunk['codec']:<16}"
                      f" ({chunk['reason']})")

            # -- typed errors survive the wire -------------------------
            try:
                client.decompress_array(auto_blob[: len(auto_blob) // 2])
            except CorruptStreamError as exc:
                print(f"truncated payload -> {type(exc).__name__}: "
                      f"{str(exc)[:60]}...")

            # -- a burst of small requests (these batch up) ------------
            pieces = np.array_split(array, 16)
            blobs = [
                client.compress_array(piece, "chimp", chunk_elements=2048)
                for piece in pieces
            ]
            print(f"burst: {len(blobs)} requests served")

            snapshot = client.stats()
        server.stop()  # graceful drain

    ops = snapshot["ops"]
    print("\nserver metrics at shutdown:")
    for op, counts in ops.items():
        latency = counts["latency"]
        print(f"  {op:<16} x{counts['requests']:<4} "
              f"p50 {latency['p50_ms']:7.2f} ms   "
              f"p99 {latency['p99_ms']:7.2f} ms")
    for codec, stats in snapshot["codecs"].items():
        print(f"  codec {codec:<12} {stats['bytes_in']:>9} bytes in, "
              f"{stats['bytes_out']:>9} out")


if __name__ == "__main__":
    main()
