import pytest

from grpdim import artifacts, kl_dad_search, power, tree_window
from grpdim.pipelines import (
    NoWitnessError,
    PipelineError,
    bridge_theorem,
    morita_theorem,
    product_theorem,
    sweep_rows,
    union_theorem,
)


def line(n):
    return tree_window("path", n)


GRID5 = [u * 7 + v for u in range(5) for v in range(5)]


def test_product_theorem_p7_with_refutation():
    g, graphing = line(7)
    k = graphing.ball(1)
    report = product_theorem(g, k, g, k, l_power=2, d_max=2, refute_units=GRID5)
    assert report["certified"] and report["d"] == 2
    assert report["refuted_below"] is True
    stages = {s["stage"] for s in report["stages"]}
    assert {"factor-search", "ostrand-lift", "product-combine", "refute-below"} <= stages


def test_union_theorem_p13():
    g, graphing = line(13)
    k = graphing.ball(1)
    parts = [g.unit_set(range(7)), g.unit_set(range(7, 13))]
    report = union_theorem(g, parts, k)
    assert report["certified"]
    assert report["d"] == max(
        s["d"] for s in report["stages"] if s["stage"].startswith("part-")
    )


def test_morita_theorem_p4():
    g, graphing = line(4)
    k = graphing.ball(1)
    report = morita_theorem(g, 3, k, k)
    assert report["certified"] and report["d_preserved"]
    assert report["d"] == 1


def test_bridge_theorem_p7():
    g, graphing = line(7)
    k = graphing.ball(1)
    from grpdim import power

    report = bridge_theorem(g, k, power(k, 2))
    assert report["certified"] and report["d_preserved"] and report["d"] == 1


def test_sweep_dad_rows():
    g, graphing = line(16)
    rows = sweep_rows(g, graphing, list(range(4, 17)), "dad", "ball:1", "power:K:2")
    assert [r["d"] for r in rows] == [1] * 13


def test_sweep_trivial_schedule_all_zero():
    g, graphing = line(10)
    rows = sweep_rows(g, graphing, [4, 6, 8], "dad", "units", "all")
    assert [r["d"] for r in rows] == [0, 0, 0]


def test_sweep_asdim_tree_depths():
    g, graphing = tree_window("binary", 5)
    windows = [2 ** (d + 1) - 1 for d in (2, 3, 4, 5)]
    rows = sweep_rows(g, graphing, windows, "asdim", "ball:1", "ball:4", n_scale=1)
    assert [r["d"] for r in rows] == [1, 1, 1, 1]


def test_sweep_rejects_bad_window():
    g, graphing = line(5)
    with pytest.raises(PipelineError):
        sweep_rows(g, graphing, [9], "dad", "ball:1", "power:K:2")


def test_product_theorem_mixed_dimensions():
    gl, graph_l = line(7)
    gr, graph_r = line(2)
    rep = product_theorem(gl, graph_l.ball(1), gr, graph_r.ball(1))
    assert rep["certified"] and rep["d"] == 1
    search = next(s for s in rep["stages"] if s["stage"] == "factor-search")
    assert (search["d_left"], search["d_right"]) == (1, 0)
    # each factor's witness is its own search's, not the other side's
    for side, (g, graphing) in (("left", (gl, graph_l)), ("right", (gr, graph_r))):
        k = graphing.ball(1)
        w = kl_dad_search(g, k, power(k, 2), 2)
        assert rep["artifacts"][f"{side}-witness"] == artifacts.witness(w)
    lift = next(s for s in rep["stages"] if s["stage"] == "ostrand-lift")
    assert lift["left_classes"] == lift["right_classes"] == lift["level"] + 1 == 2


def test_product_theorem_names_the_refuted_right_factor():
    gl, graph_l = line(2)
    gr, graph_r = line(7)
    with pytest.raises(NoWitnessError, match="right-search"):
        product_theorem(gl, graph_l.ball(1), gr, graph_r.ball(1), d_max=0)
