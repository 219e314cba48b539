"""Table 11: read + decode + scan times on the TPC datasets.

Paper claims (Observation 9): query time is identical across methods
(the decoded frames are the same); read time varies with compressed
size; total retrieval cost tracks end-to-end wall time, making
bitshuffle::zstd and MPC the recommended choices.
"""

from conftest import run_once

from repro.core.experiments import table11_query


def test_table11(benchmark, emit, suite_results):
    out = run_once(benchmark, table11_query, suite_results)
    emit("table11_query", str(out))
    cells = out.data["cells"]

    order = cells["tpcH-order"]
    read_pfpc, decode_pfpc = order["pfpc"]
    # Calibration: the paper reports 78 + 356 ms for pFPC on tpcH-order.
    assert 50 < read_pfpc < 110
    assert 250 < decode_pfpc < 450

    read_fpzip, decode_fpzip = order["fpzip"]
    assert decode_fpzip > 3 * decode_pfpc, "fpzip decode dominates"

    # bitshuffle-zstd retrieval beats all serial CPU methods.
    shf = sum(order["bitshuffle-zstd"])
    for serial in ("pfpc", "spdp", "fpzip", "gorilla", "chimp"):
        assert shf < sum(order[serial]), serial

    assert "-" in out.text, "GFC column shows '-' on >512 MB TPC datasets"
