"""Experiment drivers: one function per table and figure of the paper.

Each driver consumes suite results (or models from cost parameters
alone), renders the same rows/series the paper reports, and returns
structured data so the benchmark suite can assert the qualitative
*shape* claims (Observations 1-10) hold in the reproduction.  No driver
compresses anything itself: Tables 9 and 10 name the cells they need and
are served them from the result store by
:func:`repro.core.suite.serve_cells`, which measures the misses through
the one experiment function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compressors import get_compressor
from repro.core.metrics import (
    decompression_asymmetry,
    method_mean_cr,
    method_mean_throughput,
    method_mean_wall_ms,
)
from repro.core.report import ascii_bars, ascii_boxplot, format_matrix, format_table
from repro.core.results import ResultSet
from repro.data.catalog import CATALOG, domains, get_spec
from repro.data.loader import DEFAULT_TARGET_ELEMENTS
from repro.perf.roofline import analyze
from repro.perf.timing import PerformanceModel
from repro.stats.cd_diagram import render_cd_diagram
from repro.stats.descriptive import boxplot_stats, harmonic_mean
from repro.stats.friedman import friedman_test
from repro.stats.mannwhitney import mann_whitney_u
from repro.stats.nemenyi import nemenyi_test
from repro.stats.ranking import average_ranks
from repro.storage.query import query_cost

__all__ = [
    "ExperimentOutput",
    "fig5_cr_boxplot",
    "fig6_cr_groups",
    "fig7a_mean_cr",
    "fig7b_cd_diagram",
    "fig8_throughputs",
    "fig9_asymmetry",
    "fig10_memory",
    "fig11_roofline",
    "table4_cr_matrix",
    "table5_throughput",
    "table6_walltime",
    "table7_scaling",
    "table8_scaling",
    "table9_dimension",
    "table10_blocksize",
    "table11_query",
]


@dataclass
class ExperimentOutput:
    """Rendered text plus machine-checkable data for one experiment."""

    experiment: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"== {self.experiment} ==\n{self.text}"


def _display(method: str) -> str:
    return get_compressor(method).info.display_name


# ----------------------------------------------------------------------
# Figure 5: boxplot of all compression ratios
# ----------------------------------------------------------------------
def fig5_cr_boxplot(results: ResultSet) -> ExperimentOutput:
    ratios = results.values("compression_ratio")
    stats = boxplot_stats(ratios)
    text = "\n".join(
        [
            "All compression ratios (paper: median 1.16, outliers 2.0-22.8)",
            ascii_boxplot(stats, 0.5, 4.0),
            f"min={stats.minimum:.3f} q1={stats.q1:.3f} median={stats.median:.3f} "
            f"q3={stats.q3:.3f} max={stats.maximum:.3f} "
            f"outliers>{stats.whisker_high:.2f}: "
            f"{len([o for o in stats.outliers if o > stats.whisker_high])}",
        ]
    )
    return ExperimentOutput(
        "Figure 5: boxplot of compression ratios",
        text,
        {"median": stats.median, "max": stats.maximum, "stats": stats},
    )


# ----------------------------------------------------------------------
# Figure 6: CR by data groups and method groups
# ----------------------------------------------------------------------
def fig6_cr_groups(results: ResultSet) -> ExperimentOutput:
    groups: dict[str, np.ndarray] = {}
    for precision, label in (("S", "single (fp32)"), ("D", "double (fp64)")):
        vals = [
            m.compression_ratio
            for m in results.measurements
            if m.ok and m.precision == precision
        ]
        groups[label] = np.asarray(vals)
    for domain in domains():
        groups[domain] = np.asarray(
            [m.compression_ratio for m in results.for_domain(domain) if m.ok]
        )
    predictor_groups: dict[str, list[float]] = {}
    platform_groups: dict[str, list[float]] = {"CPU": [], "GPU": []}
    for m in results.measurements:
        if not m.ok:
            continue
        info = get_compressor(m.method).info
        family = info.predictor_family
        if family in ("lorenzo", "delta", "dictionary"):
            predictor_groups.setdefault(family.upper(), []).append(
                m.compression_ratio
            )
        platform_groups[info.platform.upper()].append(m.compression_ratio)

    lines = ["CR by data type and domain (paper Figure 6a):"]
    medians: dict[str, float] = {}
    for label, vals in groups.items():
        med = float(np.median(vals)) if len(vals) else float("nan")
        medians[label] = med
        stats = boxplot_stats(vals)
        lines.append(f"{label:>14s} {ascii_boxplot(stats, 0.8, 3.0, 44)} med={med:.3f}")
    lines.append("")
    lines.append("CR by predictor family and platform (paper Figure 6b):")
    for label, vals in {**predictor_groups, **platform_groups}.items():
        arr = np.asarray(vals)
        med = float(np.median(arr))
        medians[label] = med
        stats = boxplot_stats(arr)
        lines.append(f"{label:>14s} {ascii_boxplot(stats, 0.8, 3.0, 44)} med={med:.3f}")
    return ExperimentOutput(
        "Figure 6: compression ratios by groups", "\n".join(lines), {"medians": medians}
    )


# ----------------------------------------------------------------------
# Figure 7a/7b: mean CR per method and the CD diagram
# ----------------------------------------------------------------------
def fig7a_mean_cr(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    means = {m: method_mean_cr(results.for_method(m)) for m in methods}
    text = "Harmonic-mean CR per method (paper Figure 7a):\n" + ascii_bars(
        [_display(m) for m in methods], [means[m] for m in methods], fmt="{:.2f}"
    )
    return ExperimentOutput(
        "Figure 7a: average compression ratios", text, {"means": means}
    )


def fig7b_cd_diagram(results: ResultSet, alpha: float = 0.05) -> ExperimentOutput:
    methods = results.methods()
    datasets = results.datasets()
    matrix = results.matrix("compression_ratio", methods, datasets)
    friedman = friedman_test(matrix, higher_is_better=True)
    ranks = average_ranks(matrix, higher_is_better=True)
    nemenyi = nemenyi_test([_display(m) for m in methods], ranks, len(datasets), alpha)
    text = "\n".join(
        [
            f"Friedman test: chi2={friedman.chi_square:.2f} "
            f"(p={friedman.chi_square_pvalue:.3g}), "
            f"Iman-Davenport F={friedman.iman_davenport_f:.2f} "
            f"(p={friedman.iman_davenport_pvalue:.3g})",
            f"null (all methods equivalent) rejected: {friedman.rejects_null(alpha)}",
            "",
            render_cd_diagram(nemenyi),
        ]
    )
    return ExperimentOutput(
        "Figure 7b: critical difference diagram",
        text,
        {"friedman": friedman, "nemenyi": nemenyi, "methods": methods},
    )


# ----------------------------------------------------------------------
# Figure 8 / Table 5: throughput per method
# ----------------------------------------------------------------------
def fig8_throughputs(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    rows_of = results.for_method
    ct = {m: method_mean_throughput(rows_of(m), "compress") for m in methods}
    dt = {m: method_mean_throughput(rows_of(m), "decompress") for m in methods}
    text = (
        "Compression throughput, GB/s, log scale (paper Figure 8a):\n"
        + ascii_bars([_display(m) for m in methods], [ct[m] for m in methods],
                     fmt="{:.3f}", log_scale=True)
        + "\n\nDecompression throughput, GB/s, log scale (paper Figure 8b):\n"
        + ascii_bars([_display(m) for m in methods], [dt[m] for m in methods],
                     fmt="{:.3f}", log_scale=True)
    )
    return ExperimentOutput(
        "Figure 8: (de)compression throughputs", text, {"ct": ct, "dt": dt}
    )


def table5_throughput(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    headers = ["Metrics", *[_display(m) for m in methods]]
    ct_row = ["avg. comp"]
    dt_row = ["avg. decomp"]
    ct = {}
    dt = {}
    for m in methods:
        ct[m] = method_mean_throughput(results.for_method(m), "compress")
        dt[m] = method_mean_throughput(results.for_method(m), "decompress")
        ct_row.append(f"{ct[m]:.3f}")
        dt_row.append(f"{dt[m]:.3f}")
    text = format_table(
        headers, [ct_row, dt_row],
        title="Compression & decompression throughput (GB/s) [paper Table 5]",
    )
    return ExperimentOutput("Table 5: throughput", text, {"ct": ct, "dt": dt})


# ----------------------------------------------------------------------
# Figure 9: compression/decompression asymmetry
# ----------------------------------------------------------------------
def fig9_asymmetry(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    rows = []
    asym = {}
    for m in methods:
        ct = method_mean_throughput(results.for_method(m), "compress")
        dt = method_mean_throughput(results.for_method(m), "decompress")
        rd = decompression_asymmetry(ct, dt)
        asym[m] = rd
        rows.append([_display(m), f"{rd:+.2f}"])
    text = format_table(
        ["method", "r_D=(CT-DT)/CT"], rows,
        title="Throughput asymmetry; negative = decompression faster [Figure 9]",
    )
    return ExperimentOutput("Figure 9: throughput asymmetry", text, {"asymmetry": asym})


# ----------------------------------------------------------------------
# Figure 10: memory footprints
# ----------------------------------------------------------------------
def fig10_memory(
    input_mb: tuple[int, ...] = (250, 500, 1000, 2000, 4000),
    methods: tuple[str, ...] = (
        "gfc", "mpc", "spdp", "bitshuffle-lz4", "buff", "fpzip", "ndzip-cpu", "pfpc",
    ),
) -> ExperimentOutput:
    perf = PerformanceModel()
    rows = []
    footprints: dict[str, list[float]] = {}
    for method in methods:
        cost = get_compressor(method).cost
        series = [
            perf.memory_footprint_bytes(cost, mb * 1024 * 1024) / 1e6
            for mb in input_mb
        ]
        footprints[method] = series
        rows.append([_display(method), *[f"{v:.0f}" for v in series]])
    text = format_table(
        ["method", *[f"{mb}MB" for mb in input_mb]],
        rows,
        title="Modeled memory footprint (MB) during compression [Figure 10]",
    )
    return ExperimentOutput(
        "Figure 10: memory footprints", text,
        {"footprints": footprints, "input_mb": input_mb},
    )


# ----------------------------------------------------------------------
# Figure 11: roofline analysis
# ----------------------------------------------------------------------
def fig11_roofline(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    points = []
    rows = []
    for m in methods:
        comp = get_compressor(m)
        ct = method_mean_throughput(results.for_method(m), "compress")
        if not np.isfinite(ct):
            continue
        point = analyze(m, comp.cost, ct)
        points.append(point)
        rows.append(
            [
                _display(m),
                point.platform.upper(),
                point.kernel,
                f"{point.arithmetic_intensity:.2f}",
                f"{point.achieved_gops:.1f}",
                f"{point.roof_gops:.1f}",
                f"{point.roof_fraction * 100:.0f}%",
                point.bound,
            ]
        )
    text = format_table(
        ["method", "plat", "dominant kernel", "AI op/B", "GOP/s",
         "roof GOP/s", "of roof", "bound"],
        rows,
        title="Roofline placement of dominant kernels [Figure 11]",
    )
    return ExperimentOutput(
        "Figure 11: roofline analysis", text, {"points": points}
    )


# ----------------------------------------------------------------------
# Table 4: compression-ratio matrix with domain averages
# ----------------------------------------------------------------------
def table4_cr_matrix(results: ResultSet) -> ExperimentOutput:
    methods = results.methods()
    lines = []
    col_names = [_display(m) for m in methods]
    domain_means: dict[str, dict[str, float]] = {}
    for domain in domains():
        names = [s.name for s in CATALOG if s.domain == domain]
        matrix = results.matrix("compression_ratio", methods, names)
        lines.append(
            format_matrix(
                names, col_names, matrix,
                title=f"-- {domain} --", row_header="dataset",
            )
        )
        means = {}
        mean_row = []
        for j, method in enumerate(methods):
            col = matrix[:, j]
            col = col[~np.isnan(col)]
            means[method] = harmonic_mean(col) if col.size else float("nan")
            mean_row.append(
                f"{means[method]:.3f}" if np.isfinite(means[method]) else "-"
            )
        domain_means[domain] = means
        lines.append(
            format_table(["", *col_names], [["Domain-avg", *mean_row]])
        )
        lines.append("")
    overall = {
        m: method_mean_cr(results.for_method(m)) for m in methods
    }
    lines.append(
        format_table(
            ["", *col_names],
            [["Overall-avg", *[f"{overall[m]:.3f}" for m in methods]]],
        )
    )
    return ExperimentOutput(
        "Table 4: compression ratios",
        "\n".join(lines),
        {"domain_means": domain_means, "overall": overall},
    )


# ----------------------------------------------------------------------
# Table 6: end-to-end wall time
# ----------------------------------------------------------------------
def table6_walltime(results: ResultSet) -> ExperimentOutput:
    # The paper omits the two nvCOMP methods (no standalone wall-time API).
    methods = [m for m in results.methods() if not m.startswith("nvcomp")]
    headers = ["Metrics", *[_display(m) for m in methods]]
    comp_row = ["avg. comp"]
    dec_row = ["avg. decomp"]
    walls = {}
    for m in methods:
        wc = method_mean_wall_ms(results.for_method(m), "compress")
        wd = method_mean_wall_ms(results.for_method(m), "decompress")
        walls[m] = (wc, wd)
        comp_row.append(f"{wc:.0f}")
        dec_row.append(f"{wd:.0f}")
    text = format_table(
        headers, [comp_row, dec_row],
        title="End-to-end wall time (ms), incl. host-device copies [Table 6]",
    )
    return ExperimentOutput("Table 6: end-to-end wall time", text, {"walls": walls})


# ----------------------------------------------------------------------
# Tables 7 and 8: thread scalability
# ----------------------------------------------------------------------
_SCALING_METHODS = ("pfpc", "bitshuffle-lz4", "bitshuffle-zstd", "ndzip-cpu")
_THREAD_COUNTS = (1, 2, 4, 8, 16, 24, 32, 48)


def _scaling_table(direction: str, paper_label: str) -> ExperimentOutput:
    perf = PerformanceModel()
    headers = ["thread #", *[_display(m) for m in _SCALING_METHODS]]
    rows = []
    series: dict[str, list[float]] = {m: [] for m in _SCALING_METHODS}
    for threads in _THREAD_COUNTS:
        row = [str(threads)]
        for method in _SCALING_METHODS:
            cost = get_compressor(method).cost
            mbs = perf.scaled_throughput_mbs(cost, threads, direction)
            series[method].append(mbs)
            speedup = mbs / series[method][0]
            efficiency = speedup / threads * 100
            row.append(f"{mbs:.0f} MB/s {speedup:.2f}x ({efficiency:.0f}%)")
        rows.append(row)
    text = format_table(headers, rows, title=paper_label)
    return ExperimentOutput(
        paper_label, text, {"series": series, "threads": _THREAD_COUNTS}
    )


def table7_scaling() -> ExperimentOutput:
    return _scaling_table(
        "compress", "Parallel compression throughputs [Table 7]"
    )


def table8_scaling() -> ExperimentOutput:
    return _scaling_table(
        "decompress", "Parallel decompression throughputs [Table 8]"
    )


# ----------------------------------------------------------------------
# Table 9: dimensionality information
# ----------------------------------------------------------------------
_DIMENSION_METHODS = ("gfc", "mpc", "fpzip", "ndzip-cpu", "ndzip-gpu")


def table9_dimension(
    target_elements: int = DEFAULT_TARGET_ELEMENTS, alpha: float = 0.05
) -> ExperimentOutput:
    """CR of the N-d datasets with (md) and without (1d) their shape.

    Served from the result store like Table 10.  md is Table 4's own
    whole-array cell, so GFC's paper-scale skip applies; 1d is a stream
    cell holding the array as one chunk, which reaches the codec 1-D
    only because ``CompressSession.write`` flattens every chunk.
    """
    from repro.core.suite import serve_cells
    from repro.expdb.store import CellKey

    def keys(method: str, spec) -> tuple[CellKey, ...]:
        flat = int(np.prod(spec.scaled_extent(target_elements)))
        return tuple(
            CellKey(method, spec.name, chunk, 1, "fixed", 0, target_elements)
            for chunk in (0, flat)
        )

    multi = [s for s in CATALOG if s.ndim >= 2]
    served, _ = serve_cells(
        [key for method in _DIMENSION_METHODS for spec in multi
         for key in keys(method, spec)]
    )
    rows = []
    data: dict[str, dict] = {}
    for method in _DIMENSION_METHODS:
        names, md_ratios, flat_ratios = [], [], []
        for spec in multi:
            md, flat = (served[key].get("ratio") for key in keys(method, spec))
            if md is not None and flat is not None:
                names.append(spec.name)
                md_ratios.append(md)
                flat_ratios.append(flat)
        test = mann_whitney_u(np.asarray(md_ratios), np.asarray(flat_ratios))
        hm_md = harmonic_mean(md_ratios)
        hm_1d = harmonic_mean(flat_ratios)
        data[method] = {
            "md": hm_md,
            "1d": hm_1d,
            "p": test.p_value,
            "significant": test.rejects_null(alpha),
            "datasets": names,
        }
        rows.append(
            [
                _display(method),
                f"{hm_md:.3f}",
                f"{hm_1d:.3f}",
                f"{test.p_value:.3f}",
                "yes" if test.rejects_null(alpha) else "no",
            ]
        )
    text = format_table(
        ["method", "md CR", "1d CR", "p-value", "significant?"],
        rows,
        title="Dimension information's influence on CR [Table 9]",
    )
    return ExperimentOutput("Table 9: dimensionality effect", text, data)


# ----------------------------------------------------------------------
# Table 10: block sizes
# ----------------------------------------------------------------------
_BLOCK_METHODS = (
    "pfpc", "spdp", "bitshuffle-lz4", "bitshuffle-zstd",
    "gorilla", "chimp", "nvcomp-lz4", "nvcomp-bitcomp",
)

#: The three block sizes of Table 10.
PAGE_SIZES = {"4K": 4 * 1024, "64K": 64 * 1024, "8M": 8 * 1024 * 1024}


def table10_blocksize(
    datasets: tuple[str, ...] = ("citytemp", "gas-price", "tpcH-order", "rsim"),
    target_elements: int = DEFAULT_TARGET_ELEMENTS,
) -> ExperimentOutput:
    """CR (real, paged) and CT/DT (modeled) at 4K/64K/8M block sizes.

    Each (method, dataset, page size) is one stream cell whose chunks
    are page-sized, served from the result store by
    :func:`~repro.core.suite.serve_cells`: a warm store compresses
    nothing, and misses fan out like a suite run's (``FCBENCH_JOBS``).
    """
    from repro.core.suite import serve_cells
    from repro.expdb.store import CellKey

    def key(method: str, name: str, page_bytes: int) -> CellKey:
        elements = page_bytes // get_spec(name).numpy_dtype.itemsize
        return CellKey(method, name, elements, 1, "fixed", 0, target_elements)

    served, _ = serve_cells(
        [
            key(method, name, page_bytes)
            for page_bytes in PAGE_SIZES.values()
            for method in _BLOCK_METHODS
            for name in datasets
        ]
    )
    perf = PerformanceModel()
    rows = []
    data: dict[str, dict[str, dict[str, float]]] = {}
    for size_label, page_bytes in PAGE_SIZES.items():
        cr_row = [size_label, "avg-CR"]
        ct_row = ["", "avg-CT (GB/s)"]
        dt_row = ["", "avg-DT (GB/s)"]
        for method in _BLOCK_METHODS:
            cost = get_compressor(method).cost
            ratios = [
                served[key(method, name, page_bytes)].get("ratio")
                for name in datasets
            ]
            cr = float("nan") if None in ratios else harmonic_mean(ratios)
            ct = perf.throughput_gbs(cost, 10**9, "compress", block_bytes=page_bytes)
            dt = perf.throughput_gbs(cost, 10**9, "decompress", block_bytes=page_bytes)
            data.setdefault(method, {})[size_label] = {
                "cr": cr, "ct": ct, "dt": dt,
            }
            cr_row.append(f"{cr:.3f}")
            ct_row.append(f"{ct:.3f}")
            dt_row.append(f"{dt:.3f}")
        rows.extend([cr_row, ct_row, dt_row])
    text = format_table(
        ["blocksize", "metrics", *[_display(m) for m in _BLOCK_METHODS]],
        rows,
        title="Compression performance under different block sizes [Table 10]",
    )
    return ExperimentOutput("Table 10: block sizes", text, data)


# ----------------------------------------------------------------------
# Table 11: query performance on TPC datasets
# ----------------------------------------------------------------------
_QUERY_METHODS = (
    "pfpc", "spdp", "fpzip", "bitshuffle-lz4", "bitshuffle-zstd",
    "ndzip-cpu", "gorilla", "chimp", "gfc", "mpc", "ndzip-gpu",
)


def table11_query(results: ResultSet) -> ExperimentOutput:
    """Read + decode + scan times for the TPC datasets in ``results``.

    A pure function of the suite's whole-array cells: each method's
    measured ratio feeds :func:`~repro.storage.query.query_cost`, and a
    failed cell (GFC's paper-scale limit on the >512 MB datasets) renders
    as ``-``.
    """
    methods = [m for m in _QUERY_METHODS if m in results.methods()]
    cells = {(m.dataset, m.method): m for m in results.measurements}
    rows = []
    data: dict[str, dict[str, tuple[float, float]]] = {}
    query_col: dict[str, float] = {}
    for spec in CATALOG:
        if spec.domain != "DB" or spec.name not in results.datasets():
            continue
        row = [spec.name]
        for method in methods:
            cell = cells.get((spec.name, method))
            if cell is None or not cell.ok:
                row.append("-")
                continue
            cost = query_cost(
                get_compressor(method), spec.name, cell.compression_ratio,
                spec.paper_bytes, spec.paper_extent[0],
            )
            data.setdefault(spec.name, {})[method] = (
                cost.read_ms, cost.decode_ms,
            )
            query_col[spec.name] = cost.query_ms
            row.append(f"{cost.read_ms:.0f}+{cost.decode_ms:.0f}")
        row.append(f"{query_col.get(spec.name, float('nan')):.0f}")
        rows.append(row)
    text = format_table(
        ["name", *[_display(m) for m in methods], "query"],
        rows,
        title="Read and query time (ms) from container files [Table 11]",
    )
    return ExperimentOutput(
        "Table 11: query performance", text,
        {"cells": data, "query_ms": query_col},
    )
