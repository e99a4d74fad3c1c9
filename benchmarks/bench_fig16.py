"""Regenerate Fig. 16: cube vs. butterfly TMIN, global and cluster-16.

Paper's claims: (a) under global uniform traffic the two topologies are
indistinguishable; (b) under cluster-16 uniform traffic the cube's
channel-balanced clustering wins and the butterfly's channel-reduced
clustering is worst.
"""

from benchmarks.conftest import save_and_print
from repro.experiments.figures import regenerate
from repro.experiments.report import render_figure, shape_checks


def test_fig16(benchmark, results_dir, bench_cfg):
    (fig,) = benchmark.pedantic(
        regenerate, args=(["fig16"], bench_cfg), rounds=1, iterations=1
    )
    checks = shape_checks(fig)
    text = render_figure(fig) + "\n\nshape checks:\n" + "\n".join(
        f"  {c}" for c in checks
    )
    save_and_print(results_dir, "fig16", text)

    by_claim = {c.claim: c for c in checks}
    assert by_claim["global uniform: cube == butterfly"].passed
    assert by_claim[
        "cluster-16: cube balanced beats butterfly clusterings"
    ].passed
    assert by_claim["cluster-16: channel-reduced is worst"].passed
