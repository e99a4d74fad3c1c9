"""Regenerate Fig. 19: global hot-spot traffic at 5% and 10%.

Paper's claims: every network congests relative to Fig. 18a; DMIN stays
best; TMIN is worst with BMIN close; 10% is much worse than 5%.  With
the paper's hot-spot formula (y = N*x) the hot node's delivery channel
caps steady-state throughput, so the network differences show in the
latency below the knee -- the checks probe exactly that.
"""

from benchmarks.conftest import save_and_print
from repro.experiments.figures import regenerate
from repro.experiments.report import render_figure, shape_checks


def test_fig19(benchmark, results_dir, bench_cfg):
    (fig,) = benchmark.pedantic(
        regenerate, args=(["fig19"], bench_cfg), rounds=1, iterations=1
    )
    checks = shape_checks(fig)
    text = render_figure(fig) + "\n\nshape checks:\n" + "\n".join(
        f"  {c}" for c in checks
    )
    save_and_print(results_dir, "fig19", text)

    by_claim = {c.claim: c for c in checks}
    assert by_claim[
        "hot 5%: all four networks congested (capped well below uniform)"
    ].passed
    assert by_claim[
        "hot 5%: DMIN lowest latency below the knee (load 0.15)"
    ].passed
    assert by_claim[
        "hot 10%: all four networks congested (capped well below uniform)"
    ].passed
    for kind in ("TMIN", "DMIN", "VMIN", "BMIN"):
        assert by_claim[f"{kind}: 10% hot spot hurts more than 5%"].passed
