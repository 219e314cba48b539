"""Forged codec payloads decode within a stated allocation bound.

A forged FCF stream carries per-frame CRCs recomputed over its forged
payloads, so the CRC check passes and every payload reaches its codec's
decoder, locally or as a served DECOMPRESS.  Whatever counts and lengths
such a payload declares, decoding it must end as a decoded array or a
typed :class:`CorruptStreamError`, within :data:`ALLOCATION_BOUND` bytes
of fresh address space.  Each codec's forgeries decode in a child
process whose address space is capped there (``RLIMIT_AS``): a decoder
that sizes a buffer from a forged length hits ``MemoryError`` in the
child instead of exhausting the host, and the child reports it.
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.frames import decode_payload, encode_payload
from repro.compressors import compressor_names, get_compressor
from repro.errors import CorruptStreamError

#: Address space one child may map beyond what the interpreter, numpy
#: and repro hold after import.  Decoding 256 elements needs a few
#: MB; a forged length that asks for gigabytes cannot fit.
ALLOCATION_BOUND = 512 << 20

#: A 5-byte LEB128 varint of 2**32 - 1.
HUGE_VARINT = b"\xff\xff\xff\xff\x0f"

#: What a forgery may end as.
TYPED = {"decoded", "CorruptStreamError"}


def _arrays():
    rng = np.random.default_rng(33)
    walk = np.cumsum(rng.normal(0.0, 1.0, 256))
    return [walk, np.round(walk, 2), np.repeat(rng.normal(0.0, 1.0, 32), 8)]


def mutations(payload: bytes, rng) -> list[tuple[str, bytes]]:
    """Seeded forgeries of one payload, as ``(label, bytes)`` pairs."""
    n = len(payload)
    forged = [("all-zero", bytes(n)), ("all-0xff", b"\xff" * n)]

    def overwrite(label, at, data):
        mutated = bytearray(payload)
        mutated[at : at + len(data)] = data
        forged.append((f"{label}@{at}", bytes(mutated)))

    for at in rng.integers(n, size=24):
        overwrite("flip", at, bytes([payload[at] ^ (1 << int(rng.integers(8)))]))
    for at in rng.integers(n, size=16):
        overwrite("0xff-run", at, b"\xff" * int(rng.integers(1, 9)))
    # Counts and lengths sit near the front: a huge varint at every one
    # of the first 32 offsets, then at a few anywhere.
    for at in [*range(min(n, 32)), *rng.integers(n, size=8)]:
        overwrite("huge-varint", at, HUGE_VARINT)
    for cut in sorted({0, 1, n - 1, *rng.integers(n, size=8)}):
        forged.append((f"truncated@{cut}", payload[:cut]))
    return forged


def probe(codec: str) -> dict[str, list[str]]:
    """Decode every forgery of ``codec``'s payloads; labels per outcome."""
    compressor = get_compressor(codec)
    outcomes: dict[str, list[str]] = {}
    for index, array in enumerate(_arrays()):
        payload = encode_payload(compressor, array)
        for label, data in mutations(payload, np.random.default_rng(index)):
            try:
                decode_payload(
                    compressor, data, array.size, array.dtype, zlib.crc32(data)
                )
                outcome = "decoded"
            except CorruptStreamError as exc:
                outcome = type(exc).__name__
                if isinstance(exc.__cause__, MemoryError):
                    outcome = "MemoryError"
            except Exception as exc:  # noqa: BLE001 - reported, then failed
                outcome = type(exc).__name__
            outcomes.setdefault(outcome, []).append(f"array {index} {label}")
    return outcomes


_CHILD = """
import json, resource, sys
from tests.compressors.test_forged_payloads import ALLOCATION_BOUND, probe

with open("/proc/self/status") as status:
    mapped = next(
        int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:")
    )
resource.setrlimit(
    resource.RLIMIT_AS,
    (mapped + ALLOCATION_BOUND, resource.getrlimit(resource.RLIMIT_AS)[1]),
)
print(json.dumps(probe(sys.argv[1])))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS and /proc are Linux"
)
@pytest.mark.parametrize("codec", compressor_names())
def test_forged_payloads_decode_within_the_bound(codec):
    root = Path(__file__).resolve().parents[2]
    src = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([src, str(root), *([inherited] if inherited else [])])
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, codec],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    outcomes = json.loads(out.stdout)
    untyped = {
        kind: labels[:4] for kind, labels in outcomes.items() if kind not in TYPED
    }
    assert not untyped, f"{codec}: {untyped}"
    # The forgeries do reach the decoder's own checks.
    assert "CorruptStreamError" in outcomes, outcomes.keys()
