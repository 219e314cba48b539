"""Codecs are stateless: one shared instance serves every caller.

``codec_instance`` hands the same compressor to every frame of every
stream, and the server shares it across its executor threads, so a
compress may neither change the instance nor depend on another call.
"""

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.compressors import compressor_names
from repro.select.policy import codec_instance


@pytest.mark.parametrize("name", compressor_names())
def test_compress_leaves_the_shared_instance_unchanged(name):
    codec = codec_instance(name)
    dtype = np.float64 if "D" in codec.info.precisions else np.float32
    arrays = [
        np.cumsum(np.random.default_rng(seed).normal(0, 1, 1024)).astype(dtype)
        for seed in range(4)
    ]
    before = pickle.dumps(codec)
    serial = [codec.compress(array) for array in arrays]
    assert pickle.dumps(codec) == before
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(codec.compress, arrays, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
