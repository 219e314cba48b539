"""FCBench core: suite runner, experiment drivers, and reporting."""

from repro.core.metrics import (
    compression_ratio,
    decompression_asymmetry,
    method_mean_cr,
    method_mean_throughput,
    method_mean_wall_ms,
    throughput_gbs,
)
from repro.core.recommend import Recommendation, recommend
from repro.core.results import Measurement, ResultSet
from repro.core.runner import BenchmarkRunner, verify_roundtrip
from repro.core.suite import (
    CacheStats,
    SuiteRun,
    cache_dir,
    default_datasets,
    default_methods,
    run_suite,
    run_suite_detailed,
)
from repro.parallel import resolve_jobs

__all__ = [
    "BenchmarkRunner",
    "CacheStats",
    "Measurement",
    "Recommendation",
    "ResultSet",
    "SuiteRun",
    "cache_dir",
    "resolve_jobs",
    "run_suite_detailed",
    "compression_ratio",
    "decompression_asymmetry",
    "default_datasets",
    "default_methods",
    "method_mean_cr",
    "method_mean_throughput",
    "method_mean_wall_ms",
    "recommend",
    "run_suite",
    "throughput_gbs",
    "verify_roundtrip",
]
