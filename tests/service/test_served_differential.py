"""Served compress equals local compress, case by case.

For every codec (plus ``none`` and ``auto``) and every adversarial array
of ``tests/compressors/conftest_vector.py`` — empty, NaN payloads,
denormals, ±0 / ±inf, constant and alternating runs, float32, 2-D — a
served compress returns the bytes of the local ``compress_array``, or
raises the same typed error class. A served blob decompresses, served,
to the input bit for bit.
"""

import numpy as np
import pytest

from repro.api import compress_array
from repro.compressors import compressor_names
from repro.errors import ReproError
from repro.service import ServiceClient, serve_background
from tests.compressors.conftest_vector import build_adversarial_cases

CASES = build_adversarial_cases()
CODECS = [*compressor_names(), "none", "auto"]
CHUNK = 1024


@pytest.fixture(scope="module")
def client():
    with serve_background() as handle, ServiceClient(
        handle.host, handle.port
    ) as client:
        yield client


def _outcome(compress):
    try:
        return compress(), None
    except ReproError as exc:
        return None, type(exc)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("codec", CODECS)
def test_served_compress_equals_local(client, codec, case):
    array = CASES[case]
    local, local_error = _outcome(
        lambda: compress_array(array, codec, chunk_elements=CHUNK)
    )
    served, served_error = _outcome(
        lambda: client.compress_array(array, codec, chunk_elements=CHUNK)
    )
    assert served_error is local_error
    assert served == local
    if served is None:
        return
    back = client.decompress_array(served)
    assert (back.dtype, back.shape) == (array.dtype, array.shape)
    width = np.uint64 if array.dtype == np.float64 else np.uint32
    assert np.array_equal(back.view(width), array.view(width))
