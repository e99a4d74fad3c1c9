"""Regenerate Fig. 17: uneven cluster traffic ratios (4:1:1:1, 1:0:0:0).

Paper's claims: the butterfly's channel-shared clustering wins when
clusters are unevenly loaded; channel-reduced is worst; with ratio
1:0:0:0 the single active 16-node cluster caps aggregate throughput
near a quarter of the machine.
"""

from benchmarks.conftest import save_and_print
from repro.experiments.figures import regenerate
from repro.experiments.report import render_figure, shape_checks


def test_fig17(benchmark, results_dir, bench_cfg):
    (fig,) = benchmark.pedantic(
        regenerate, args=(["fig17"], bench_cfg), rounds=1, iterations=1
    )
    checks = shape_checks(fig)
    text = render_figure(fig) + "\n\nshape checks:\n" + "\n".join(
        f"  {c}" for c in checks
    )
    save_and_print(results_dir, "fig17", text)

    by_claim = {c.claim: c for c in checks}
    assert by_claim[
        "4:1:1:1: butterfly channel-shared is best (lowest latency "
        "at common loads)"
    ].passed
    assert by_claim["4:1:1:1: butterfly channel-reduced is worst"].passed
    assert by_claim["1:0:0:0: channel-shared beats channel-balanced"].passed
    assert by_claim["1:0:0:0: aggregate throughput capped near 25%"].passed
