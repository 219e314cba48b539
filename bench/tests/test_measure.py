"""Exact percentiles and the /proc readers."""

import os
import subprocess
import sys
import time

import pytest

from bench import measure


def test_percentile_is_nearest_rank_and_always_an_observed_value():
    samples = [15, 20, 35, 40, 50]
    assert measure.percentile(samples, 5) == 15
    assert measure.percentile(samples, 30) == 20
    assert measure.percentile(samples, 40) == 20
    assert measure.percentile(samples, 50) == 35
    assert measure.percentile(samples, 100) == 50
    assert measure.percentile(list(range(1, 201)), 95) == 190  # ten beyond it
    assert measure.percentile([7.5], 99) == 7.5
    assert measure.percentile([3, 1, 2], 50) == 2  # input order is free


@pytest.mark.parametrize("rank", [0, -1, 100.5])
def test_percentile_rejects_ranks_outside_the_scale(rank):
    with pytest.raises(ValueError):
        measure.percentile([1, 2, 3], rank)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_block_percentile_takes_the_fast_quartile_of_whole_blocks():
    # Five blocks of ten with maxima 40, 1000, 30, 20 and 50: the level a
    # quarter of the blocks stay under, whatever the disturbed ones
    # read; the ragged tail is left out.
    samples = (
        [40] * 10 + [1] * 9 + [1000] + [30] * 10 + [20] * 10 + [50] * 10 + [9e9] * 5
    )
    assert measure.block_percentile(samples, 100, block=10) == 30
    # Fewer than two whole blocks: the pooled percentile.
    assert measure.block_percentile([1, 2, 3, 4], 50, block=3) == 2


def test_spread_is_interquartile_distance_over_the_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert measure.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert measure.spread([5.0] * 6) == 0.0


def test_cpu_seconds_counts_this_process_and_nothing_for_a_dead_pid():
    before = measure.cpu_seconds(os.getpid())
    deadline = time.process_time() + 0.1
    while time.process_time() < deadline:
        pass
    assert measure.cpu_seconds(os.getpid()) - before >= 0.05
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert measure.cpu_seconds(child.pid) is None
    assert measure.peak_rss_mb(child.pid) is None


def test_peak_rss_and_the_process_tree_see_a_child():
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(30)"]
    )
    try:
        tree = measure.process_tree(os.getpid())
        assert tree[0] == os.getpid() and child.pid in tree
        assert 1 < measure.peak_rss_mb(child.pid) <= measure.tree_peak_rss_mb(tree)
        assert set(measure.tree_cpu_seconds(tree)) >= {os.getpid(), child.pid}
    finally:
        child.kill()
        child.wait(timeout=10)
    assert child.poll() is not None


def test_cpu_delta_charges_a_process_born_inside_the_interval_in_full():
    before = {1: 2.0, 2: 5.0}
    after = {1: 2.5, 2: 5.0, 3: 0.75}
    assert measure.cpu_delta(before, after) == pytest.approx(1.25)
