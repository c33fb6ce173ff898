"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here was computed from an independent oracle (word
enumeration, exhaustive assignment search, brute-force pairwise distance) or
re-verified from first principles; time budgets are asserted.
"""

import random
import subprocess
import sys
import time
from itertools import product as iproduct


from conftest import check_nfold_subfamilies, disjoint_union, tables_of, oracle_generated, random_arrow_set, random_groupoid, random_principal_groupoid, random_unit_set
from grpdim import (
    Cover,
    UnitSet,
    action_groupoid,
    blowup,
    cyclic_table,
    fold_number,
    generated,
    glue_two,
    kl_dad_search,
    pair_groupoid,
    partial_action_groupoid,
    power,
    replicate_psi,
    rotation_perms,
    symmetrize,
    tree_window,
    treeable_cover,
    validate,
    z_shift_partial_spec,
)
from grpdim.coarse import asdim_fiber_decompositions, asdim_to_dad, dad_to_asdim
from grpdim.covers import control_apply, ostrand_lift
from grpdim.dad import discover_control_function
from grpdim.pipelines import morita_theorem, product_theorem, union_theorem


def report(n, name, detail, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {n} {name}: PASS ({detail}; {elapsed:.1f}s of {budget}s)")
    assert elapsed <= budget, f"criterion {n} exceeded its {budget}s budget"


def line(n):
    g, graphing = tree_window("path", n)
    return g, graphing


def test_criterion_01_axioms_and_generated_oracle():
    started = time.monotonic()
    outputs = [
        pair_groupoid(12),
        pair_groupoid(50),
        action_groupoid(cyclic_table(8), rotation_perms(8, 16)),
        partial_action_groupoid(z_shift_partial_spec(8)),
        blowup(pair_groupoid(4), replicate_psi(pair_groupoid(4), 2)).groupoid,
        tree_window("binary", 3)[0],
        tree_window("path", 20)[0],
    ]
    from grpdim.builders import product as build_product

    outputs.append(build_product(pair_groupoid(4), pair_groupoid(5)).groupoid)
    for g in outputs:
        assert validate(tables_of(g)).ok

    rng = random.Random(20250811)
    for i in range(200):
        g = random_groupoid(rng, max_arrows=200)
        assert g.n_arrows <= 200
        k = random_arrow_set(rng, g, 0.3)
        u = random_unit_set(rng, g, 0.5)
        assert generated(k, u) == oracle_generated(g, k, u)
    report(1, "axioms+oracle", "8 builder families, 200 random instances", started, 60)


def test_criterion_02_gluing_bound():
    started = time.monotonic()
    rng = random.Random(415)
    fourth_power_failures = 0
    for seed in range(100):
        g = random_principal_groupoid(rng, 40)
        v0 = g.unit_set([u for u in range(g.n_units) if rng.random() < 0.5])
        v1 = g.unit_set([u for u in range(g.n_units) if rng.random() < 0.5])
        k0 = symmetrize(
            g.arrow_set([a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.3])
        )
        k1 = symmetrize(k0 | generated(k0, v0))
        k2 = symmetrize(k1 | generated(power(k1, 3), v1))
        cert = glue_two(g, v0, v1, k0, k1, k2)
        assert cert.holds, f"gluing certificate failed at seed {seed}"
        if not cert.generated_set <= power(k2, 4):
            fourth_power_failures += 1
    report(
        2,
        "gluing-bound",
        f"100/100 certificates; exponent-4 failures logged: {fourth_power_failures}",
        started,
        120,
    )


def test_criterion_03_ostrand_lift():
    started = time.monotonic()
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    z8_k = symmetrize(z8.arrow_set(range(8, 16)))
    p7, p7_graph = line(7)
    p9, p9_graph = line(9)
    p5, p5_graph = line(5)
    cases = [
        (p7, p7_graph.ball(1), power(p7_graph.ball(1), 2)),
        (p9, p9_graph.ball(1), power(p9_graph.ball(1), 2)),
        (p5, p5_graph.ball(1), p5.all_arrows()),
        (z8, z8_k, power(z8_k, 2)),
    ]
    # every randomly drawn instance that certifies at d <= 1 joins the family
    rng = random.Random(831)
    for _ in range(20):
        g = random_principal_groupoid(rng, 30)
        k = symmetrize(
            g.arrow_set([a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.4])
        )
        w = kl_dad_search(g, k, power(k, 2), 1)
        if w is not None:
            cases.append((g, k, power(k, 2)))

    lifted_total = 0
    for g, k, l_set in cases:
        w = kl_dad_search(g, k, l_set, 1)
        assert w is not None and w.d in (0, 1)
        ctrl = discover_control_function(g, w.d)
        cover = ctrl.cover_for(k)
        for level in range(w.d, w.d + 2):
            cover = ostrand_lift(g, ctrl, k, level)
            bound = control_apply(ctrl, k, level + 1)
            assert fold_number(cover) >= level + 2 - w.d
            assert len(cover.classes) == level + 2
            for cls in cover.classes:
                assert generated(k, cls) <= bound  # exact containment
            lifted_total += 1
    report(3, "ostrand-lift", f"{lifted_total} verified lifts to k=d+2", started, 120)


GRID5 = [u * 7 + v for u in range(5) for v in range(5)]


def test_criterion_04_product():
    started = time.monotonic()
    g, graphing = line(7)
    k = graphing.ball(1)
    rep = product_theorem(g, k, g, k, l_power=2, d_max=2, refute_units=GRID5)
    assert rep["certified"] and rep["d"] == 2
    assert rep["refuted_below"] is True
    report(
        4,
        "product",
        "P7xP7 certified d<=2; d=1 refuted exactly on the 25-unit subwindow",
        started,
        600,
    )


def test_criterion_05_union():
    started = time.monotonic()
    g13, graphing = line(13)
    k = graphing.ball(1)
    parts = [g13.unit_set(range(7)), g13.unit_set(range(7, 13))]
    rep = union_theorem(g13, parts, k)
    part_ds = [s["d"] for s in rep["stages"] if s["stage"].startswith("part-")]
    assert rep["certified"] and rep["d"] == max(part_ds)

    two = disjoint_union([pair_groupoid(4), pair_groupoid(5)])
    k2 = symmetrize(two.all_arrows())
    parts2 = [two.unit_set(range(4)), two.unit_set(range(4, 9))]
    rep2 = union_theorem(two, parts2, k2)
    part_ds2 = [s["d"] for s in rep2["stages"] if s["stage"].startswith("part-")]
    assert rep2["certified"] and rep2["d"] == max(part_ds2)
    report(5, "union", "P13 split and two-component instance certified", started, 60)


def test_criterion_06_morita():
    started = time.monotonic()
    for n, mult in ((3, 2), (4, 3)):
        g, graphing = line(n)
        k = graphing.ball(1)
        rep = morita_theorem(g, mult, k, k)
        assert rep["certified"] and rep["d_preserved"]
        assert rep["d"] == 1
    report(6, "morita", "doubled P3 and tripled P4 round-trips at d=1", started, 60)


def test_criterion_07_bridge():
    started = time.monotonic()
    p7, graphing = line(7)
    k = graphing.ball(1)
    l_set = power(k, 2)
    w = kl_dad_search(p7, k, l_set, 1)
    bridge = dad_to_asdim(p7, w)
    assert bridge.certified
    decomps = asdim_fiber_decompositions(p7, p7.all_units(), k, l_set, w.d)
    back = asdim_to_dad(p7, p7.all_units(), k, l_set, decomps)
    assert back.certified and back.d == w.d

    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    kz = symmetrize(z8.arrow_set(range(8, 16)))
    lz = power(kz, 2)
    wz = kl_dad_search(z8, kz, lz, 1)
    bz = dad_to_asdim(z8, wz)
    assert bz.certified
    dz = asdim_fiber_decompositions(z8, z8.all_units(), kz, lz, wz.d)
    backz = asdim_to_dad(z8, z8.all_units(), kz, lz, dz)
    assert backz.certified and backz.d == wz.d
    report(7, "bridge", "P7 and Z/8 window close dad->asdim->dad at equal d", started, 120)


def test_criterion_08_treeable():
    started = time.monotonic()
    cases = [("path", 9), ("path", 25), ("path", 40), ("binary", 3), ("binary", 4), ("binary", 5)]
    checked = 0
    for shape, size in cases:
        g, graphing = tree_window(shape, size)
        for n_scale in (1, 2, 3):
            res = treeable_cover(g, graphing, n_scale)
            assert res.certified
            assert res.max_diameter <= 4 * n_scale  # exact brute-force diameter
            if res.min_same_annulus_separation >= 0:
                assert res.min_same_annulus_separation >= 2 * n_scale
            if res.min_separation >= 0:
                assert res.min_separation >= n_scale
            checked += 1
    report(8, "treeable", f"{checked} certificates, diameters <= 4N", started, 120)


def test_criterion_09_nfold_equivalence():
    started = time.monotonic()
    # a cover covers every unit of its groupoid: pair(n) has n units
    pairs = {n: pair_groupoid(n) for n in range(1, 7)}
    # exhaustive over <= 4 units and <= 4 classes
    mismatches = 0
    for n_units in (1, 2, 3, 4):
        g = pairs[n_units]
        subsets = list(range(1 << n_units))
        for k_classes in (1, 2, 3, 4):
            for classes in iproduct(subsets, repeat=k_classes):
                cover = Cover(
                    g,
                    tuple(
                        g.unit_set([u for u in range(n_units) if m >> u & 1])
                        for m in classes
                    ),
                )
                fold = fold_number(cover)
                for n in range(k_classes + 1):
                    if check_nfold_subfamilies(cover, n) != (fold >= n):
                        mismatches += 1
    assert mismatches == 0

    # uniform sample over 5..6 units and up to 5 classes
    rng = random.Random(99)
    for _ in range(1_000_000):
        n_units = rng.randint(5, 6)
        k_classes = rng.randint(1, 5)
        g = pairs[n_units]
        classes = []
        for _ in range(k_classes):
            mask = 0
            for u in range(n_units):
                mask |= rng.getrandbits(1) << u
            classes.append(UnitSet(g, mask))
        cover = Cover(g, tuple(classes))
        n = rng.randint(0, k_classes)
        if check_nfold_subfamilies(cover, n) != (fold_number(cover) >= n):
            mismatches += 1
    assert mismatches == 0
    report(9, "nfold-equivalence", "exhaustive small + 10^6 samples, 0 discrepancies", started, 300)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "grpdim.cli", *args], capture_output=True, text=True
    )


def strip_wall(stdout: str) -> list[str]:
    rows = []
    for row in stdout.splitlines():
        cells = row.split("\t")
        if len(cells) == 6 and cells[-1].isdigit():
            cells = cells[:-1]
        rows.append("\t".join(cells))
    return rows


def test_criterion_10_determinism(tmp_path):
    started = time.monotonic()
    p7 = tmp_path / "p7.json"
    p7g = tmp_path / "p7.graphing.json"
    assert run_cli("build", "--family", "pair", "--n", "7", "--out", str(p7),
                   "--graphing-out", str(p7g)).returncode == 0
    commands = [
        ("validate", str(p7)),
        ("dad", str(p7), "--graphing", str(p7g)),
        ("asdim", str(p7), "--points", "fiber:0", "--e-spec", "ball:1",
         "--f-spec", "power:K:2", "--graphing", str(p7g), "--d-max", "1"),
        ("theorem", "bridge", "--path", str(p7), "--graphing", str(p7g)),
        ("theorem", "morita", "--path", str(p7), "--graphing", str(p7g),
         "--l-spec", "power:K:1"),
        ("theorem", "union", "--path", str(p7), "--graphing", str(p7g),
         "--parts", "0-3;4-6"),
        ("sweep", str(p7), "--windows", "4-7", "--graphing", str(p7g)),
    ]
    for idx, cmd in enumerate(commands):
        runs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path / f"out{idx}{attempt}"
            res = run_cli(*cmd, "--out", str(out_dir))
            artifacts = sorted(
                (p.name, p.read_bytes()) for p in out_dir.iterdir()
            ) if out_dir.exists() else []
            rows = [r.replace(str(out_dir), "<out>") for r in strip_wall(res.stdout)]
            runs.append((res.returncode, rows, artifacts))
        assert runs[0] == runs[1], f"nondeterministic output for {cmd[0]}"

    # rebuilt instances are byte-identical too
    p7b = tmp_path / "p7-again.json"
    assert run_cli("build", "--family", "pair", "--n", "7",
                   "--out", str(p7b)).returncode == 0
    assert p7.read_bytes() == p7b.read_bytes()
    report(10, "determinism", f"{len(commands)} commands byte-stable", started, 120)
