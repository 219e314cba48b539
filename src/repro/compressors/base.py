"""Compressor interface, method metadata, and the method registry.

Each surveyed method (Table 1 of the paper) is a :class:`Compressor`
subclass carrying its :class:`MethodInfo` (the Table 1 row) and a
:class:`~repro.perf.cost.CostModel` (the performance-model parameters).
The registry maps method names to classes and preserves the column order
the paper's tables use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import UnknownCodecError, UnsupportedDtypeError
from repro.perf.cost import CostModel

__all__ = [
    "MethodInfo",
    "Compressor",
    "register",
    "get_compressor",
    "compressor_names",
    "method_fingerprint",
    "stable_repr",
    "paper_table_order",
    "PAPER_TABLE_ORDER",
]

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

@dataclass(frozen=True)
class MethodInfo:
    """One row of the paper's Table 1."""

    name: str  # registry key, e.g. "bitshuffle-zstd"
    display_name: str  # table label, e.g. "shf+zstd"
    year: int
    domain: str  # "HPC" | "Database" | "general"
    precisions: frozenset[str]  # subset of {"S", "D"}
    platform: str  # "cpu" | "gpu"
    parallelism: str  # "serial" | "threads" | "SIMD+threads" | "SIMT"
    language: str  # implementation language of the original
    trait: str  # Table 1 "trait" column
    predictor_family: str  # "lorenzo" | "delta" | "dictionary" | "prediction" | "nn"

    def supports_dtype(self, dtype: np.dtype) -> bool:
        code = {np.dtype(np.float32): "S", np.dtype(np.float64): "D"}.get(
            np.dtype(dtype)
        )
        return code in self.precisions


class Compressor(ABC):
    """Lossless floating-point compressor with a self-describing stream.

    Subclasses implement :meth:`_compress` and :meth:`_decompress`; the
    base class handles input validation and framing, so every stream
    round-trips to the exact original array (bit-exact, NaN payloads
    included).

    Framing lives in :mod:`repro.api.frames`.  The one-shot
    :meth:`compress`/:meth:`decompress` pair below is the whole-array
    surface: one frame that hands the codec the array's N-d shape
    (ndzip's multi-dimensional Lorenzo, the Table 9 dimension study),
    the header BUFF's scans parse, and what the suite runner and the
    storage query model measure through.  Code that streams, chunks, or
    needs random access uses the session API (:mod:`repro.api`) — see
    ``docs/streaming.md``.
    """

    info: MethodInfo
    cost: CostModel
    #: Optional hard input-size limit in bytes (GFC's 512 MB, section 4.1).
    max_input_bytes: int | None = None
    #: Best-case decode expansion in elements per compressed payload
    #: byte, used to reject hostile headers declaring astronomically
    #: large extents before any allocation happens.  ``None`` marks
    #: payload-driven decoders whose output size never depends on the
    #: declared count (see ``repro.api.frames.check_declared_count``).
    max_decode_expansion: int | None = 256

    # ------------------------------------------------------------------
    # Public API (whole-array, one frame)
    # ------------------------------------------------------------------
    def compress(self, array: np.ndarray) -> bytes:
        """Compress ``array`` into a self-describing one-shot stream.

        One frame over the whole array, shape included.  For chunked
        framing, bounded memory, random access and ``jobs=N``
        parallelism use ``repro.api``: ``compress_array(array, codec)``
        in memory, ``open_stream(path, "wb", codec=...)`` for files.
        """
        from repro.api import frames

        return frames.encode_legacy_frame(self, self._validate(array))

    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the exact original array from a compressed stream.

        Accepts both this method's one-shot output and the FCF streams
        produced by the ``repro.api`` sessions (detected by magic).
        """
        from repro.api import frames
        from repro.api.session import decompress_array

        if bytes(blob[:4]) == frames.FRAME_MAGIC:
            return decompress_array(blob)
        return frames.decode_legacy_frame(self, blob)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _compress(self, array: np.ndarray) -> bytes:
        """Encode a validated C-contiguous float array."""

    @abstractmethod
    def _decompress(
        self, payload: bytes, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Decode an array with ``shape`` elements of ``dtype`` from ``payload``.

        Implementations may return the array flat or shaped; the caller
        validates the element count and reshapes.
        """

    # ------------------------------------------------------------------
    # Validation and framing
    # ------------------------------------------------------------------
    def _validate(self, array: np.ndarray) -> np.ndarray:
        array = np.asarray(array)
        if array.dtype not in _DTYPE_CODES:
            raise UnsupportedDtypeError(
                f"{self.info.name} expects float32/float64 input, "
                f"got dtype {array.dtype}"
            )
        if not self.info.supports_dtype(array.dtype):
            precisions = ",".join(sorted(self.info.precisions))
            raise UnsupportedDtypeError(
                f"{self.info.name} supports only precision(s) {precisions}; "
                f"got {array.dtype} (repro.api.frames.codec_input hands it "
                "float32 data as 64-bit words, as the paper's harness does)"
            )
        if self.max_input_bytes is not None and array.nbytes > self.max_input_bytes:
            from repro.errors import InputTooLargeError

            raise InputTooLargeError(
                f"{self.info.name} accepts at most {self.max_input_bytes} bytes, "
                f"got {array.nbytes}"
            )
        return np.ascontiguousarray(array)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[Compressor]] = {}

#: Column order used by the paper's Tables 4-6 (left to right).
PAPER_TABLE_ORDER = (
    "pfpc",
    "spdp",
    "fpzip",
    "bitshuffle-lz4",
    "bitshuffle-zstd",
    "ndzip-cpu",
    "buff",
    "gorilla",
    "chimp",
    "gfc",
    "mpc",
    "nvcomp-lz4",
    "nvcomp-bitcomp",
    "ndzip-gpu",
)


def register(cls: type[Compressor]) -> type[Compressor]:
    """Class decorator adding a compressor to the registry."""
    name = cls.info.name
    if name in _REGISTRY:
        raise ValueError(f"compressor {name!r} registered twice")
    _REGISTRY[name] = cls
    return cls


def _lookup(name: str) -> type[Compressor]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownCodecError(
            f"unknown compressor {name!r}; known: {known}"
        ) from None


def get_compressor(name: str, **kwargs: object) -> Compressor:
    """Instantiate a registered compressor by name."""
    return _lookup(name)(**kwargs)


def compressor_names(platform: str | None = None) -> list[str]:
    """Registered method names, sorted; optionally filtered by platform.

    ``platform="cpu"``/``"gpu"`` selects on each method's Table 1 row —
    the filter codec-selection candidate sets use to exclude methods
    the host cannot run natively.
    """
    if platform is None:
        return sorted(_REGISTRY)
    return sorted(
        name for name, cls in _REGISTRY.items() if cls.info.platform == platform
    )


def paper_table_order() -> list[str]:
    """Registered methods in the paper's table column order."""
    return [name for name in PAPER_TABLE_ORDER if name in _REGISTRY]


# ----------------------------------------------------------------------
# Fingerprinting (result-store staleness)
# ----------------------------------------------------------------------
def stable_repr(obj: object) -> str:
    """Deterministic textual form of a (possibly nested) dataclass.

    ``repr`` is not process-stable for sets (string hash randomization
    reorders frozenset elements), which would fingerprint the same
    method differently in every interpreter.  Serialize via JSON with
    sorted keys and sorted set elements instead.
    """

    def default(value: object):
        if isinstance(value, (set, frozenset)):
            return sorted(value)
        return repr(value)

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, default=default)


@lru_cache(maxsize=None)
def method_fingerprint(name: str) -> str:
    """Digest of everything that defines method ``name``'s behavior.

    Hashes the source of the module implementing the compressor plus its
    metadata, cost model, and input limit.  Editing one compressor file
    therefore changes only that method's fingerprint, which is what lets
    a suite run re-measure a single column of the result store instead
    of the whole matrix.  Raises :class:`~repro.errors.UnknownCodecError` (a
    ``KeyError``) for unregistered names.
    """
    cls = _lookup(name)
    module = sys.modules.get(cls.__module__)
    try:
        source = inspect.getsource(module) if module else ""
    except (OSError, TypeError):
        source = ""
    payload = "|".join(
        [
            cls.__module__,
            cls.__qualname__,
            hashlib.sha256(source.encode()).hexdigest(),
            stable_repr(cls.info),
            stable_repr(cls.cost),
            str(cls.max_input_bytes),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
