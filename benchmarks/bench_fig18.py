"""Regenerate Fig. 18: the four networks under uniform traffic.

Paper's claims: DMIN best, TMIN worst, VMIN slightly better than BMIN
(globally; under base-cube clustering our BMIN gains a genuine fat-tree
locality edge -- see EXPERIMENTS.md).
"""

from benchmarks.conftest import save_and_print
from repro.experiments.figures import regenerate
from repro.experiments.report import render_figure, shape_checks


def test_fig18(benchmark, results_dir, bench_cfg):
    (fig,) = benchmark.pedantic(
        regenerate, args=(["fig18"], bench_cfg), rounds=1, iterations=1
    )
    checks = shape_checks(fig)
    text = render_figure(fig) + "\n\nshape checks:\n" + "\n".join(
        f"  {c}" for c in checks
    )
    save_and_print(results_dir, "fig18", text)

    by_claim = {c.claim: c for c in checks}
    assert by_claim["global: DMIN best"].passed
    assert by_claim["global: TMIN worst"].passed
    assert by_claim["global: VMIN at least matches BMIN"].passed
    assert by_claim["cl16: DMIN best"].passed
    assert by_claim["cl16: TMIN worst"].passed
