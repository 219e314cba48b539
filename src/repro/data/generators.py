"""Synthetic dataset generators standing in for the Table 3 corpus.

Each recipe reproduces the statistical structure that the paper
identifies as the driver of compressibility in its domain:

* **HPC** fields are smooth and strongly autocorrelated along their grid
  axes (good for Lorenzo/delta predictors), with white mantissa noise
  controlling how many low bits stay incompressible.
* **Time series** carry limited decimal precision (sensor quantization),
  periodic structure, and value repetition (good for BUFF, Chimp, and
  dictionary methods).
* **Observation** images combine smooth background, point sources, and
  read noise; HDR panoramas are tonal (few distinct values).
* **Database** columns are pattern-free numerics — money amounts,
  quantities, rates — whose only redundancy is value repetition, which
  is why the paper finds dictionary methods dominate the DB domain.

All generators are deterministic in (dataset name, seed).
"""

from __future__ import annotations

import numpy as np

from repro.data.catalog import DatasetSpec
from repro.errors import DatasetError

__all__ = ["generate", "available_generators"]


def _fractal_field(
    shape: tuple[int, ...], octaves: int, rng: np.random.Generator
) -> np.ndarray:
    """Multi-octave smooth random field on an arbitrary grid.

    Coarse Gaussian grids are zoomed to the target shape and summed with
    amplitudes halving per octave — a cheap spectral-synthesis fractal
    with the long-range correlations scientific fields exhibit.
    """
    from scipy import ndimage  # keep scipy off `import repro`

    field = np.zeros(shape, dtype=np.float64)
    for octave in range(octaves):
        coarse_shape = tuple(
            max(2, dim // (2 ** (octaves - octave))) for dim in shape
        )
        coarse = rng.standard_normal(coarse_shape)
        zoom = [t / c for t, c in zip(shape, coarse_shape)]
        field += ndimage.zoom(coarse, zoom, order=1, mode="nearest") / (
            2.0**octave
        )
    return field


def _gen_trajectory(spec, extent, rng):
    """1-D simulation trace: smooth motion plus mantissa-level noise.

    ``decimals`` (optional) quantizes the trace, reproducing solver
    outputs stored at fixed decimal precision — the property that lets
    BUFF exceed 2x on num-brain/num-control in the paper's Table 4.
    """
    n = extent[0]
    roughness = spec.params.get("roughness", 0.5)
    scale = spec.params.get("scale", 1.0)
    decimals = spec.params.get("decimals")
    smooth = np.cumsum(rng.standard_normal(n)) / np.sqrt(max(n, 1))
    wobble = rng.standard_normal(n) * roughness
    trace = (smooth + wobble) * scale
    if decimals is not None:
        trace = np.round(trace, decimals)
    return trace.reshape(extent)


def _gen_smooth_field(spec, extent, rng):
    octaves = spec.params.get("octaves", 4)
    noise = spec.params.get("noise", 1e-4)
    offset = spec.params.get("offset", 0.0)
    field = _fractal_field(extent, octaves, rng)
    if noise:
        field += rng.standard_normal(extent) * noise
    return field + offset


def _gen_sparse_field(spec, extent, rng):
    """Mostly-zero field with a few smooth structures (astro-mhd)."""
    fill = spec.params.get("fill", 0.02)
    octaves = spec.params.get("octaves", 2)
    field = _fractal_field(extent, octaves, rng)
    threshold = np.quantile(field, 1.0 - fill)
    sparse = np.where(field > threshold, field - threshold, 0.0)
    return sparse


def _gen_wavefield(spec, extent, rng):
    """Radial standing wave (the `wave` solver benchmark)."""
    frequency = spec.params.get("frequency", 6.0)
    noise = spec.params.get("noise", 1e-6)
    axes = [np.linspace(-1.0, 1.0, dim) for dim in extent]
    grids = np.meshgrid(*axes, indexing="ij")
    radius = np.sqrt(sum(g**2 for g in grids))
    field = np.sin(frequency * np.pi * radius) / (1.0 + radius)
    if noise:
        field += rng.standard_normal(extent) * noise
    return field


def _gen_sensor(spec, extent, rng):
    """Quantized periodic sensor stream (temperature, gas, IMU...)."""
    decimals = spec.params.get("decimals", 2)
    period = spec.params.get("period", 100.0)
    amplitude = spec.params.get("amplitude", 1.0)
    level = spec.params.get("level", 0.0)
    noise_frac = spec.params.get("noise_frac", 0.02)
    n = extent[0]
    columns = extent[1] if len(extent) > 1 else 1
    t = np.arange(n, dtype=np.float64)
    out = np.empty((n, columns), dtype=np.float64)
    for col in range(columns):
        phase = rng.uniform(0, 2 * np.pi)
        drift = np.cumsum(rng.standard_normal(n)) * (amplitude / period / 10.0)
        wave = amplitude * np.sin(2 * np.pi * t / period + phase)
        noise = rng.standard_normal(n) * amplitude * noise_frac
        out[:, col] = level + wave + drift + noise
    if decimals is not None:
        out = np.round(out, decimals)
    return out.reshape(extent)


def _gen_market(spec, extent, rng):
    """Anonymized market features: full-precision, weakly structured."""
    volatility = spec.params.get("volatility", 0.02)
    n, columns = extent if len(extent) > 1 else (extent[0], 1)
    out = rng.standard_normal((n, columns))
    # Weak factor structure: a few latent drivers plus dominant noise.
    factors = rng.standard_normal((n, 3)) * volatility
    loadings = rng.standard_normal((3, columns))
    out += factors @ loadings
    return out.reshape(extent)


def _gen_prices(spec, extent, rng):
    """Transactional prices: few decimals, heavy value repetition."""
    decimals = spec.params.get("decimals", 2)
    mean = spec.params.get("mean", 10.0)
    spread = spec.params.get("spread", 5.0)
    outlier_rate = spec.params.get("outlier_rate", 0.0)
    n = extent[0]
    columns = extent[1] if len(extent) > 1 else 1
    out = np.empty((n, columns), dtype=np.float64)
    for col in range(columns):
        # A popular-value backbone (fare grid) plus a lognormal tail.
        popular = np.round(
            mean + spread * rng.standard_normal(64), decimals
        )
        choice = rng.integers(0, len(popular), n)
        tail = rng.lognormal(0.0, 0.6, n) * spread * 0.3
        use_tail = rng.random(n) < 0.25
        column = np.where(use_tail, popular[choice] + tail, popular[choice])
        column = np.round(np.abs(column), decimals)
        if outlier_rate:
            # Full-precision entries (surcharges, pro-rated amounts)
            # break the decimal grid, as real transactional data does.
            wild = rng.random(n) < outlier_rate
            column = np.where(
                wild, column + rng.standard_normal(n) * spread * 0.01, column
            )
        out[:, col] = column
    return out.reshape(extent)


def _gen_starfield(spec, extent, rng):
    """Telescope frame: background + Gaussian point sources + read noise."""
    density = spec.params.get("density", 2e-3)
    background = spec.params.get("background", 0.1)
    read_noise = spec.params.get("read_noise", 0.02)
    psf_sigma = spec.params.get("psf_sigma", 1.2)
    image_shape = extent[-2:]
    frames = 1
    for dim in extent[:-2]:
        frames *= dim
    from scipy import ndimage  # keep scipy off `import repro`

    out = np.empty((frames, *image_shape), dtype=np.float64)
    n_pixels = image_shape[0] * image_shape[1]
    n_stars = max(1, int(n_pixels * density))
    for frame in range(frames):
        img = np.full(image_shape, background, dtype=np.float64)
        img += rng.standard_normal(image_shape) * read_noise
        rows = rng.integers(0, image_shape[0], n_stars)
        cols = rng.integers(0, image_shape[1], n_stars)
        fluxes = rng.lognormal(1.0, 1.2, n_stars)
        img[rows, cols] += fluxes
        # The smoothing pass turns the deltas into compact PSFs and gives
        # the background the pixel-to-pixel correlation real detector
        # flats exhibit.
        img = ndimage.gaussian_filter(img, sigma=psf_sigma, mode="nearest")
        out[frame] = img
    return out.reshape(extent)


def _gen_hdr_image(spec, extent, rng):
    """HDR panorama: tonal radiance map with few distinct values."""
    dynamic_range = spec.params.get("dynamic_range", 4.0)
    detail = spec.params.get("detail", 0.2)
    quantized = spec.params.get("quantized", True)
    luminance = _fractal_field(extent, 5, rng)
    luminance += rng.standard_normal(extent) * detail
    radiance = np.exp2(
        (luminance - luminance.min())
        / max(float(np.ptp(luminance)), 1e-9)
        * dynamic_range
    )
    if quantized:
        # Radiance assembled from 8-bit exposures: ~1024 distinct levels.
        levels = 1024
        lo, hi = radiance.min(), radiance.max()
        radiance = np.round(
            (radiance - lo) / max(hi - lo, 1e-9) * levels
        ) / levels * (hi - lo) + lo
        radiance = radiance.astype(np.float32).astype(np.float64)
    return radiance


def _gen_spectral_cube(spec, extent, rng):
    """IFU spectral cube: per-pixel continuum + emission lines + noise."""
    lines = spec.params.get("lines", 16)
    noise = spec.params.get("noise", 0.3)
    n_channels = extent[0]
    spatial = extent[1:]
    continuum = _fractal_field(spatial, 3, rng) + 2.0
    channels = np.linspace(0.0, 1.0, n_channels)
    cube = np.empty(extent, dtype=np.float64)
    line_centers = rng.uniform(0, 1, lines)
    line_widths = rng.uniform(0.002, 0.01, lines)
    spectrum = np.ones(n_channels)
    for center, width in zip(line_centers, line_widths):
        spectrum += 3.0 * np.exp(-0.5 * ((channels - center) / width) ** 2)
    for k in range(n_channels):
        cube[k] = continuum * spectrum[k] + rng.standard_normal(spatial) * noise
    return cube


def _gen_tpc_money(spec, extent, rng):
    """TPC money columns: uniform amounts at cent granularity."""
    low = spec.params.get("low", 1.0)
    high = spec.params.get("high", 100000.0)
    decimals = spec.params.get("decimals", 2)
    scale = 10**decimals
    cents = rng.integers(int(low * scale), int(high * scale), extent)
    return cents.astype(np.float64) / scale


def _gen_tpc_mixed(spec, extent, rng):
    """TPC fact-table numerics: money, quantity, and rate columns.

    ``qty_high`` and ``rate_levels`` control how repetitive the
    non-money columns are: TPC-H lineitem quantities span 1-50 and
    discounts take 11 values (low entropy, Table 3 reports 8.87 bits),
    while the TPC-DS views are far more diverse (~17 bits).
    """
    decimals = spec.params.get("decimals", 2)
    money_high = spec.params.get("money_high", 1_000_000)
    qty_high = spec.params.get("qty_high", 100)
    rate_levels = spec.params.get("rate_levels", 100)
    n, columns = extent
    out = np.empty((n, columns), dtype=np.float64)
    scale = 10**decimals
    for col in range(columns):
        kind = col % 3
        if kind == 0:  # money amounts
            cents = rng.integers(100, money_high, n)
            out[:, col] = cents.astype(np.float64) / scale
        elif kind == 1:  # integer quantities
            out[:, col] = rng.integers(1, qty_high, n).astype(np.float64)
        else:  # rates/discounts in [0, 1)
            out[:, col] = (
                rng.integers(0, rate_levels, n).astype(np.float64) / rate_levels
            )
    return out


_GENERATORS = {
    "trajectory": _gen_trajectory,
    "smooth_field": _gen_smooth_field,
    "sparse_field": _gen_sparse_field,
    "wavefield": _gen_wavefield,
    "sensor": _gen_sensor,
    "market": _gen_market,
    "prices": _gen_prices,
    "starfield": _gen_starfield,
    "hdr_image": _gen_hdr_image,
    "spectral_cube": _gen_spectral_cube,
    "tpc_money": _gen_tpc_money,
    "tpc_mixed": _gen_tpc_mixed,
}


def available_generators() -> list[str]:
    """Names of all generator recipes."""
    return sorted(_GENERATORS)


def generate(
    spec: DatasetSpec, extent: tuple[int, ...], seed: int = 0
) -> np.ndarray:
    """Materialize a synthetic stand-in for ``spec`` at ``extent``.

    The random stream is keyed on the dataset name and ``seed`` so every
    dataset is deterministic and distinct.
    """
    recipe = _GENERATORS.get(spec.generator)
    if recipe is None:
        raise DatasetError(
            f"dataset {spec.name!r} names unknown generator {spec.generator!r}"
        )
    key = np.frombuffer(spec.name.encode(), dtype=np.uint8)
    rng = np.random.default_rng([seed, *key.tolist()])
    array = recipe(spec, extent, rng)
    return np.ascontiguousarray(array.astype(spec.numpy_dtype))
