"""Regenerate Fig. 20: shuffle and 2nd-butterfly permutation traffic.

Paper's claims: TMIN and VMIN collapse (static 4-way channel sharing
caps them at 25%); DMIN and BMIN route around the conflicts; BMIN
matches DMIN under heavy load.
"""

from benchmarks.conftest import save_and_print
from repro.experiments.figures import regenerate
from repro.experiments.report import render_figure, shape_checks


def test_fig20(benchmark, results_dir, bench_cfg):
    (fig,) = benchmark.pedantic(
        regenerate, args=(["fig20"], bench_cfg), rounds=1, iterations=1
    )
    checks = shape_checks(fig)
    text = render_figure(fig) + "\n\nshape checks:\n" + "\n".join(
        f"  {c}" for c in checks
    )
    save_and_print(results_dir, "fig20", text)

    by_claim = {c.claim: c for c in checks}
    for tag in ("shuffle", "beta2"):
        assert by_claim[f"{tag}: DMIN and BMIN beat TMIN and VMIN"].passed
        assert by_claim[f"{tag}: VMIN no better than TMIN"].passed
        assert by_claim[f"{tag}: BMIN close to DMIN under heavy load"].passed

    # The static cap is sharp: TMIN and VMIN sit at ~25% of capacity.
    for label in ("TMIN / shuffle", "VMIN / shuffle"):
        assert fig.by_label(label).max_sustained_throughput() <= 26.0
