import random

import pytest

from conftest import (
    Gauge,
    assert_frozen_record,
    brute_ef_exists,
    brute_gauge,
    closure_h_fibers,
    disjoint_union,
    fiber_points,
    first_fit_dad_blocks,
    generator_sets,
    pair_blocks_groupoid,
    pairwise_ef_asdim_check,
    pairwise_tree_bounds,
    random_arrow_set,
    random_groupoid,
    random_principal_groupoid,
    random_tree,
    random_unit_set,
    relabel_units,
    union_find_orbits,
    union_find_treeable,
    whole_arrow_bridge,
    whole_powers,
)
from grpdim import (
    ArrowSet,
    CoarseError,
    Cover,
    Graphing,
    action_groupoid,
    asdim_fiber_decompositions,
    asdim_to_dad,
    cyclic_table,
    dad_to_asdim,
    ef_asdim_check,
    ef_asdim_search,
    fiber_gauge,
    gauge_from,
    is_principal,
    kl_dad_check,
    kl_dad_search,
    pair_groupoid,
    pair_index,
    power,
    product,
    restrict,
    rotation_perms,
    symmetrize,
    tree_window,
    treeable_cover,
    trivial_perms,
)
from grpdim.coarse import _ef_violation, _forest_gap
from grpdim.groupoid import iter_bits, mask_of, orbit_fibers, transversal, unit_graph


def line(n):
    g, graphing = tree_window("path", n)
    return g, graphing


def grid_space(n, e_radius, f_radius, metric="l1"):
    pts = [(i, j) for i in range(n) for j in range(n)]
    idx = {p: k for k, p in enumerate(pts)}

    def gauge(r):
        rel = []
        for (i, j) in pts:
            mask = 0
            for (a, b) in pts:
                if metric == "l1":
                    d = abs(a - i) + abs(b - j)
                else:
                    d = max(abs(a - i), abs(b - j))
                if d <= r:
                    mask |= 1 << idx[(a, b)]
            rel.append(mask)
        return Gauge(len(pts), rel)

    return gauge(e_radius), gauge(f_radius)


# -- gauges -------------------------------------------------------------------


def test_gauge_from_units_window_principal():
    g, _ = line(5)
    gauge = gauge_from(g, ArrowSet(g, g.units_mask))
    assert gauge == Gauge.diagonal(g.n_arrows)


def test_gauge_from_line_window():
    g, graphing = line(5)
    gauge = gauge_from(g, graphing.ball(1))
    for p in range(g.n_arrows):
        for q in range(g.n_arrows):
            expected = (
                g.rng[p] == g.rng[q] and abs(g.src[p] - g.src[q]) <= 1
            )
            assert bool(gauge[p] >> q & 1) == (expected or p == q)


def test_gauge_from_full_window_is_fiberwise_complete():
    g, _ = line(4)
    gauge = gauge_from(g, symmetrize(g.all_arrows()))
    for p in range(g.n_arrows):
        for q in range(g.n_arrows):
            assert bool(gauge[p] >> q & 1) == (g.rng[p] == g.rng[q] or p == q)


def test_gauge_monotone():
    g, graphing = line(6)
    small = gauge_from(g, graphing.ball(1))
    big = gauge_from(g, graphing.ball(2))
    assert all(small[p] & ~big[p] == 0 for p in range(g.n_arrows))


def test_fiber_space():
    g, graphing = line(5)
    labels = fiber_points(g, 2)
    gauge = fiber_gauge(g, labels, graphing.ball(1))
    assert list(gauge) == labels and gauge == fiber_gauge(g, mask_of(labels), graphing.ball(1))
    assert all(g.rng[a] == 2 for a in labels)
    for a in labels:
        for b in labels:
            assert bool(gauge[a] >> b & 1) == (abs(g.src[a] - g.src[b]) <= 1)
    trivial = pair_blocks_groupoid([], 3)
    assert len(fiber_gauge(trivial, fiber_points(trivial, 1), trivial.all_arrows())) == 1


def test_fiber_counts_multiply_in_products():
    from grpdim import product

    gl = pair_groupoid(3)
    gr = pair_groupoid(4)
    prod = product(gl, gr)
    gp = prod.groupoid
    for u in range(3):
        for v in range(4):
            assert (
                len(fiber_gauge(gp, fiber_points(gp, prod.unit_id(u, v)), gp.all_arrows()))
                == len(fiber_gauge(gl, fiber_points(gl, u), gl.all_arrows()))
                * len(fiber_gauge(gr, fiber_points(gr, v), gr.all_arrows()))
            )


# -- (E,F) checks and search ---------------------------------------------------


def test_ef_check_singletons_diagonal():
    e = Gauge.diagonal(4)
    f = Gauge.diagonal(4)
    fams = [[{0}, {2}], [{1}, {3}]]
    assert ef_asdim_check(e, f, fams)
    assert not ef_asdim_check(e, f, [[{0, 1}], [{2}, {3}]])  # member not F-bounded


def test_ef_check_line_window_blocks():
    g, graphing = line(32)
    pts = [a for a in range(g.n_arrows) if g.rng[a] == 0]
    e = fiber_gauge(g, pts, graphing.ball(2))
    f = fiber_gauge(g, pts, graphing.ball(7))
    blocks = [
        [set(pts[b : b + 8]) for b in range(0, 32, 16)],
        [set(pts[b : b + 8]) for b in range(8, 32, 16)],
    ]
    assert ef_asdim_check(e, f, blocks)
    single = [[set(pts[b : b + 8]) for b in range(0, 32, 8)]]
    assert not ef_asdim_check(e, f, single)


def test_ef_search_and_check_refuse_bad_relations():
    # rows keyed by the points 2 and 5; both functions check E and F alike
    good = {2: 1 << 2 | 1 << 5, 5: 1 << 2 | 1 << 5}
    bad_relations = {
        "not reflexive at point 2": {2: 1 << 5, 5: 1 << 2 | 1 << 5},
        r"not symmetric at \(2,5\)": {2: 1 << 2 | 1 << 5, 5: 1 << 5},
        "relates point 2 to a point outside": {2: 1 << 2 | 1 << 9, 5: 1 << 5},
        "different point sets": {2: 1 << 2, 5: 1 << 5, 7: 1 << 7},
    }
    families = [[{2, 5}]]
    for match, bad in bad_relations.items():
        for e, f in ((bad, good), (good, bad)):
            with pytest.raises(CoarseError, match=match):
                ef_asdim_search(e, f, 1)
            with pytest.raises(CoarseError, match=match):
                ef_asdim_check(e, f, families)
    assert ef_asdim_check(good, good, families)
    assert ef_asdim_search(good, good, 1) == [[frozenset({2, 5})]]


def test_ef_search_diagonal_zero_dim():
    e = Gauge.diagonal(6)
    f = Gauge.diagonal(6)
    fams = ef_asdim_search(e, f, 0)
    assert fams is not None and len(fams) == 1
    assert all(len(m) == 1 for m in fams[0])


def test_ef_search_line24():
    g, graphing = line(24)
    pts = [a for a in range(g.n_arrows) if g.rng[a] == 0]
    e = fiber_gauge(g, pts, graphing.ball(2))
    f = fiber_gauge(g, pts, graphing.ball(7))
    assert ef_asdim_search(e, f, 0) is None
    fams = ef_asdim_search(e, f, 1)
    assert fams is not None and len(fams) == 2
    assert ef_asdim_check(e, f, fams)


def test_ef_search_grid_two_dimensional_behavior():
    # at window 2 / bound 4 the 5x5 grid needs three families greedily,
    # and two families are exactly refuted on the 4x4 subgrid at bound 3
    e5, f5 = grid_space(5, 2, 4)
    greedy = ef_asdim_search(e5, f5, 3, mode="greedy")
    assert greedy is not None and len(greedy) == 3
    assert ef_asdim_check(e5, f5, greedy)
    e4, f4 = grid_space(4, 2, 3)
    assert ef_asdim_search(e4, f4, 1, mode="exact") is None
    exact = ef_asdim_search(e4, f4, 2, mode="exact")
    assert exact is not None and len(exact) == 3


def test_ef_search_agrees_with_bruteforce():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 7)
        rel = [1 << p for p in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                if rng.random() < 0.4:
                    rel[p] |= 1 << q
                    rel[q] |= 1 << p
        e = Gauge(n, rel)
        frel = [rel[p] for p in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                if rng.random() < 0.4:
                    frel[p] |= 1 << q
                    frel[q] |= 1 << p
        f = Gauge(n, frel)
        for d_max in (0, 1):
            got = ef_asdim_search(e, f, d_max, mode="exact")
            assert (got is not None) == brute_ef_exists(e, f, n, d_max)


def random_gauge(rng, n, density, base=None):
    rel = list(base.values()) if base is not None else [1 << p for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < density:
                rel[p] |= 1 << q
                rel[q] |= 1 << p
    return Gauge(n, rel)


def test_ef_check_agrees_with_pairwise_oracle():
    # random families on random gauges, with repeated, overlapping and empty
    # members inside a family and points shared across families
    rng = random.Random(23)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(1, 12)
        e = random_gauge(rng, n, rng.choice([0.0, 0.1, 0.3]))
        f = random_gauge(rng, n, rng.choice([0.3, 0.7, 1.0]), base=e)
        fams = [[set() for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 3))]
        for p in range(n):
            if rng.random() < 0.97:
                rng.choice(rng.choice(fams)).add(p)
        for _ in range(rng.randint(0, 2)):
            fam = rng.choice(fams)
            full = [m for fm in fams for m in fm if m]
            kind = rng.randrange(4)
            if kind == 0:
                fam.append(set(rng.choice(fam)))
            elif kind == 1:
                fam.insert(rng.randint(0, len(fam)), set())
            elif full and kind == 2:
                fam.append({rng.choice(sorted(rng.choice(full))), rng.randrange(n)})
            elif full:
                rng.choice(rng.choice(fams)).add(rng.choice(sorted(rng.choice(full))))
        got = ef_asdim_check(e, f, fams)
        assert got == pairwise_ef_asdim_check(e, f, fams)
        outcomes[got] += 1
    assert outcomes[True] > 300 and outcomes[False] > 300


def _fiberwise_families(rng, g, e_set, f_set):
    """Families of arrow sets, each member inside one range fiber: an exact
    decomposition of each fiber at d <= 2 where one exists, random blocks
    elsewhere, then at random one member split, merged, moved or dropped."""
    fams = [[], [], []]
    for x in range(g.n_units):
        pts = fiber_points(g, x)
        found = ef_asdim_search(fiber_gauge(g, pts, e_set), fiber_gauge(g, pts, f_set), 2)
        if found is None or rng.random() < 0.2:
            found = [[] for _ in range(3)]
            for p in pts:
                fam = rng.choice(found)
                if fam and rng.random() < 0.5:
                    fam[-1] = fam[-1] | {p}
                else:
                    fam.append(frozenset([p]))
        for i, fam in enumerate(found):
            fams[i].extend(set(member) for member in fam)
    kind = rng.randrange(5)  # 0 keeps the families as built
    members = [(i, j) for i, fam in enumerate(fams) for j in range(len(fam))]
    i, j = rng.choice(members)
    member = fams[i][j]
    if kind == 1 and len(member) > 1:  # split a member in two within its family
        part = set(rng.sample(sorted(member), rng.randint(1, len(member) - 1)))
        fams[i][j] = member - part
        fams[i].append(part)
    elif kind == 2 and len(fams[i]) > 1:  # merge two members of one family
        k = rng.choice([k for k in range(len(fams[i])) if k != j])
        fams[i][k] = fams[i][k] | member
        fams[i].pop(j)
    elif kind == 3:  # move a member to another family
        fams[i].pop(j)
        fams[rng.choice([k for k in range(3) if k != i])].append(member)
    elif kind == 4:  # drop a member: the families no longer cover
        fams[i].pop(j)
    return fams


def test_window_rows_agree_with_gauge_oracle():
    # certificates check (E,F)-decompositions on window rows in arrow ids;
    # the oracle is ef_asdim_check and the pairwise check on gauges built
    # from the definition of the window relation
    rng = random.Random(37)
    outcomes = {True: 0, False: 0}
    for trial in range(240):
        if trial % 3 == 2:
            g, graphing = random_tree(rng.randint(2, 8), rng.randrange(99), rng.randrange(99))
            e_set = graphing.ball(rng.randint(0, 2))
            f_set = power(e_set, rng.randint(1, 3))
        else:
            if trial % 3 == 0:
                g = random_principal_groupoid(rng, rng.randint(10, 40))
            else:
                g = random_groupoid(rng, rng.randint(40, 70))
            e_set = random_arrow_set(rng, g, rng.uniform(0.0, 0.4))
            f_set = e_set | random_arrow_set(rng, g, rng.uniform(0.0, 0.6))
        fams = _fiberwise_families(rng, g, e_set, f_set)
        e_gauge, f_gauge = brute_gauge(g, e_set), brute_gauge(g, f_set)
        assert gauge_from(g, e_set) == e_gauge and gauge_from(g, f_set) == f_gauge
        every = g.arrows_mask
        violation = _ef_violation(
            fiber_gauge(g, every, e_set),
            fiber_gauge(g, every, f_set),
            [[mask_of(m) for m in fam] for fam in fams],
            every,
        )
        got = violation is None
        assert got == ef_asdim_check(e_gauge, f_gauge, fams)
        assert got == pairwise_ef_asdim_check(e_gauge, f_gauge, fams)
        outcomes[got] += 1
    assert min(outcomes.values()) > 60, outcomes


@pytest.mark.parametrize("n_scale", [1, 2, 3])
def test_coarse_certificates_agree_with_gauge_oracle(n_scale):
    rng = random.Random(f"certificates-{n_scale}")
    for _ in range(3):
        g, graphing = random_tree(rng.randint(2, 40), rng.randrange(99), rng.randrange(99))
        res = treeable_cover(g, graphing, n_scale)
        bounds = (  # -1 stands for "no pair of classes"
            res.max_diameter <= 4 * n_scale
            and res.min_separation not in range(n_scale)
            and res.min_same_annulus_separation not in range(2 * n_scale)
        )
        e_gauge = brute_gauge(g, graphing.ball(n_scale - 1))
        f_gauge = brute_gauge(g, graphing.ball(4 * n_scale))
        oracle = pairwise_ef_asdim_check(e_gauge, f_gauge, res.families)
        assert res.certified == (bounds and oracle)
        k = graphing.ball(1)
        w = kl_dad_search(g, k, power(k, 1 + n_scale), 2)
        bridge = dad_to_asdim(g, w)
        oracle = pairwise_ef_asdim_check(
            brute_gauge(g, w.K), brute_gauge(g, bridge.f_window), bridge.families
        )
        assert bridge.certified == oracle


# -- treeable covers ------------------------------------------------------------


def test_graphing_verifies_treeable():
    g, graphing = line(9)
    assert graphing.treeable
    gb, graphing_b = tree_window("binary", 3)
    assert graphing_b.treeable
    # adding a chord creates two reduced factorizations
    chord = graphing.q | g.arrow_set(
        [pair_index(9, 0, 2), pair_index(9, 2, 0)]
    )
    chorded = Graphing(g, chord)
    assert not chorded.treeable
    assert chorded.failure == "generator 18 closes a cycle"
    # two generators 1 -> 0 in pair(2) × Z/2, which has isotropy Z/2 at each unit
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, 1))
    gp = product(pair_groupoid(2), z2).groupoid
    parallel = Graphing(gp, gp.arrow_set([4, 5, 6, 7]))
    assert not parallel.treeable
    assert parallel.failure == "parallel generators between units 0 and 1"


def _random_generators(rng, g):
    """A star out of the least unit of each orbit, one random arrow to each
    other unit, and each other arrow off the units with a small random
    probability, closed under inverses."""
    extra = rng.choice([0.0, 0.05, 0.15, 0.3])
    mask = 0
    for block in union_find_orbits(g):
        for y in block[1:]:
            mask |= 1 << rng.choice(list(iter_bits(g.by_src[block[0]] & g.by_rng[y])))
    for a in range(g.n_units, g.n_arrows):
        if rng.random() < extra:
            mask |= 1 << a
    return ArrowSet(g, mask | ArrowSet(g, mask).inverse().mask)


def test_graphing_treeability_matches_union_find_oracle():
    # component masks against union-find over the generators in id order, on
    # unions of pair blocks, of pair(n) × Z/2 (parallel pairs) and of Z/k
    # acting trivially (loops), with units relabelled
    rng = random.Random(71)
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, 1))
    kinds = dict.fromkeys(["treeable", "loop", "parallel", "cycle"], 0)
    for _ in range(400):
        comps = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.5:
                comps.append(pair_groupoid(rng.randint(1, 6)))
            elif kind < 0.9:
                comps.append(product(pair_groupoid(rng.randint(2, 4)), z2).groupoid)
            else:
                k = rng.randint(2, 4)
                comps.append(action_groupoid(cyclic_table(k), trivial_perms(k, 1)))
        g = disjoint_union(comps)
        perm = list(range(g.n_units))
        rng.shuffle(perm)
        g, _ = relabel_units(g, perm)
        q = _random_generators(rng, g)
        try:
            graphing = Graphing(g, q)
        except CoarseError:  # the generators miss some isotropy
            continue
        assert (graphing.treeable, graphing.failure) == union_find_treeable(g, q)
        failure = graphing.failure or "treeable"
        kinds[next(kind for kind in kinds if kind in failure)] += 1
    assert min(kinds.values()) > 15, kinds


def test_graphing_requires_generation():
    g, graphing = line(5)
    partial = g.arrow_set([pair_index(5, 0, 1), pair_index(5, 1, 0)])
    with pytest.raises(CoarseError):
        Graphing(g, partial)


def test_graphing_lengths_are_tree_distances():
    g, graphing = tree_window("binary", 3)
    for a in range(g.n_arrows):
        assert graphing.length(a) >= 0
    root_fiber = [a for a in range(g.n_arrows) if g.rng[a] == 0]
    for a in root_fiber:
        # distance from the root equals the depth of the source vertex
        v = g.src[a]
        depth = 0
        while v:
            v = (v - 1) // 2
            depth += 1
        assert graphing.length(a) == depth


def test_treeable_cover_path9():
    g, graphing = line(9)
    res = treeable_cover(g, graphing, 1)
    assert res.certified
    assert res.max_diameter <= 4
    assert res.min_separation >= 1
    assert res.min_same_annulus_separation >= 2


def test_tree_cover_result_record():
    g, graphing = line(9)
    res = treeable_cover(g, graphing, 1)
    assert_frozen_record(res, ("families", "rows", "max_diameter", "min_separation",
                               "min_same_annulus_separation", "scale", "certified"))
    assert res == treeable_cover(g, graphing, 1)
    assert res != res._replace(scale=2)


def test_treeable_cover_binary_depth4_scales():
    g, graphing = tree_window("binary", 4)
    for n in (1, 2, 3):
        res = treeable_cover(g, graphing, n)
        assert res.certified
        assert res.max_diameter <= 4 * n
        assert res.min_separation >= n
        if res.min_same_annulus_separation >= 0:
            assert res.min_same_annulus_separation >= 2 * n


def test_treeable_cover_single_unit():
    g = pair_groupoid(1)
    graphing = Graphing(g, g.arrow_set())  # empty set generates the lone unit
    res = treeable_cover(g, graphing, 1)
    assert res.certified
    assert res.families[0] == (frozenset({0}),) and res.families[1] == ()
    assert res.max_diameter == 0


def two_tree_forest():
    """Pair blocks on units 0-5 and 6-9, each with a spanning tree as graphing."""
    g = pair_blocks_groupoid([list(range(6)), list(range(6, 10))], 10)
    edges = {frozenset(e) for e in ((0, 1), (1, 2), (1, 3), (3, 4), (0, 5), (6, 7), (7, 8), (7, 9))}
    q = mask_of(a for a in range(g.n_units, g.n_arrows)
                if frozenset((g.src[a], g.rng[a])) in edges)
    return g, Graphing(g, ArrowSet(g, q))


@pytest.mark.parametrize("n_scale", [1, 2, 3])
def test_treeable_cover_matches_pairwise_oracle(n_scale):
    # separations are forest distances from a BFS; the oracle takes the
    # least word length over every pair of arrows in two classes
    rng = random.Random(f"tree-cover-{n_scale}")
    cases = [("path30", *line(30)), ("binary4", *tree_window("binary", 4)),
             ("forest", *two_tree_forest())]
    for _ in range(10):
        n = rng.randint(2, 40)
        cases.append((f"tree{n}", *random_tree(n, rng.randrange(99), rng.randrange(99))))
    for name, g, graphing in cases:
        assert treeable_cover(g, graphing, n_scale) == pairwise_tree_bounds(
            g, graphing, n_scale
        ), name


def test_forest_gap_stops_below_its_limit():
    g, graphing = line(9)
    adj = unit_graph(g, graphing.q)
    start, target = 1 << 2, 1 << 5 | 1 << 8  # the path 0-1-...-8: 3 edges apart
    assert _forest_gap(adj, start, target, None) == 3
    assert _forest_gap(adj, start, target, 4) == 3
    assert _forest_gap(adj, start, target, 3) is None  # 3 cannot improve on 3
    assert _forest_gap(adj, start, 0, None) is None
    forest = two_tree_forest()
    assert _forest_gap(unit_graph(forest[0], forest[1].q), 1 << 0, 1 << 7, None) is None


def test_treeable_cover_rejects_a_class_wider_than_4n():
    # a length table that lies about the pair of arrows between units 0 and
    # 3 of path(9), 6 instead of 3: the annulus-1 classes at units 1 and 2
    # hold both units as sources and read 6 > 4N wide, while the separations
    # and the E check still pass, so only the diameter bound (the F check at
    # F = ball(4N)) can fail the certificate
    g, graphing = line(9)
    lengths = list(graphing.lengths)
    for a in (pair_index(9, 0, 3), pair_index(9, 3, 0)):
        assert lengths[a] == 3
        lengths[a] = 6
    graphing.lengths = tuple(lengths)
    res = treeable_cover(g, graphing, 1)
    wide = [(annulus, fiber, diam) for _, _, annulus, fiber, _, diam in res.rows if diam > 4]
    assert wide == [(1, 1, 6), (1, 2, 6)]
    assert (res.min_separation, res.min_same_annulus_separation) == (1, 2)
    assert res.max_diameter == 6 and not res.certified


def test_treeable_cover_requires_treeable():
    g, graphing = line(6)
    chord = graphing.q | g.arrow_set([pair_index(6, 0, 2), pair_index(6, 2, 0)])
    bad = Graphing(g, chord)
    with pytest.raises(CoarseError):
        treeable_cover(g, bad, 1)


# -- dad -> asdim ---------------------------------------------------------------


def test_dad_to_asdim_trivial_witness():
    g, graphing = line(5)
    k = graphing.ball(1)
    w = kl_dad_search(g, k, g.all_arrows(), 0)
    bridge = dad_to_asdim(g, w)
    assert bridge.certified and len(bridge.families) == 1
    # members are the full fibers: one orbit, F complete on fibers
    sizes = sorted(len(m) for m in bridge.families[0])
    assert sizes == [5] * 5


def test_dad_to_asdim_p7():
    g, graphing = line(7)
    k = graphing.ball(1)
    w = kl_dad_search(g, k, power(k, 2), 1)
    bridge = dad_to_asdim(g, w)
    assert bridge.certified
    assert len(bridge.families) == 2
    assert bridge.e_window == k


def test_asdim_bridge_record():
    g, graphing = line(7)
    k = graphing.ball(1)
    bridge = dad_to_asdim(g, kl_dad_search(g, k, power(k, 2), 1))
    assert_frozen_record(bridge, ("families", "e_window", "f_window", "certified"))
    assert bridge != bridge._replace(certified=False)


def test_dad_to_asdim_disjoint_union_naturality():
    g = disjoint_union([pair_groupoid(3), pair_groupoid(4)])
    k = symmetrize(g.all_arrows())
    w = kl_dad_search(g, k, g.all_arrows(), 0)
    bridge = dad_to_asdim(g, w)
    assert bridge.certified
    # no member mixes the two components
    for fam in bridge.families:
        for member in fam:
            comps = {0 if g.src[a] < 3 else 1 for a in member}
            assert len(comps) == 1


def test_dad_to_asdim_matches_first_fit_oracle():
    # certified witnesses on principal groupoids and on groupoids with isotropy
    rng = random.Random(29)
    counts = {True: 0, False: 0}
    multi = 0
    while min(counts.values()) < 60:
        if rng.random() < 0.5:
            g = random_principal_groupoid(rng, rng.randint(20, 50))
        else:
            g = random_groupoid(rng, rng.randint(30, 70))
        k_set = random_arrow_set(rng, g, rng.uniform(0.05, 0.5))
        l_set = [power(k_set, 2), power(k_set, 3), g.all_arrows()][rng.randrange(3)]
        w = kl_dad_search(g, k_set, l_set, 2)
        if w is None:
            continue
        bridge = dad_to_asdim(g, w)
        assert bridge.certified
        expected = first_fit_dad_blocks(g, w)
        assert len(bridge.families) == len(expected)
        for got_fam, want_fam in zip(bridge.families, expected):
            assert list(got_fam) == list(want_fam)
            multi += sum(len(m) > 1 for m in got_fam)
        counts[is_principal(g)] += 1
    assert multi > 100


def test_dad_to_asdim_requires_certified():
    g, graphing = line(7)
    k = graphing.ball(1)
    from grpdim import Cover, kl_dad_check

    bad = kl_dad_check(g, k, power(k, 2), Cover(g, (g.all_units(),)))
    assert not bad.certified
    with pytest.raises(CoarseError):
        dad_to_asdim(g, bad)


def _bridge_groupoid(rng, kind):
    """A principal, an isotropic or a unit-relabelled groupoid, or a restriction."""
    if kind == 0:
        return random_principal_groupoid(rng, rng.randint(20, 50))
    g = random_groupoid(rng, rng.randint(40, 80))
    if kind == 2:
        perm = list(range(g.n_units))
        rng.shuffle(perm)
        g, _ = relabel_units(g, perm)
    elif kind == 3:
        g = restrict(g, random_unit_set(rng, g, 0.6) | g.unit_set([rng.randrange(g.n_units)]))
    return g


def test_dad_to_asdim_matches_whole_arrow_oracle():
    # the bridge builds and certifies one fiber per orbit; the oracle builds
    # every fiber and checks over every arrow.  Forged witnesses carry a
    # cover that kl_dad_check rejects: one that leaves units uncovered fails
    # the bridge, one whose classes generate outside L does not (F is the
    # union of the H_i, whatever L is)
    rng = random.Random(61)
    counts = dict.fromkeys(["certified", "failed", "forged-certified", "non-principal",
                            "multi-orbit", "translated"], 0)
    for trial in range(240):
        g = _bridge_groupoid(rng, trial % 4)
        k_set = random_arrow_set(rng, g, rng.uniform(0.05, 0.5))
        l_set = [power(k_set, 2), power(k_set, 3), g.all_arrows()][rng.randrange(3)]
        classes = [random_unit_set(rng, g, 0.5) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:  # a cover, which L = K makes kl_dad_check reject often
            covered = set().union(*classes)
            classes[-1] |= g.unit_set([u for u in range(g.n_units) if u not in covered])
        forged = kl_dad_check(g, k_set, k_set, Cover(g, tuple(classes)))
        witnesses = [(kl_dad_search(g, k_set, l_set, 2), False)]
        if not forged.certified:
            witnesses.append((forged._replace(certified=True), True))
        for w, is_forged in witnesses:
            if w is None:
                continue
            bridge = dad_to_asdim(g, w)
            assert (bridge.families, bridge.certified) == whole_arrow_bridge(g, w)
            counts["certified" if bridge.certified else "failed"] += 1
            counts["forged-certified"] += is_forged and bridge.certified
        t = transversal(g)
        counts["non-principal"] += not is_principal(g)
        counts["multi-orbit"] += sum(a == y for y, a in enumerate(t)) > 1
        counts["translated"] += any(a != y for y, a in enumerate(t))
    assert counts["failed"] > 40 and counts["certified"] > 200, counts
    assert counts["forged-certified"] > 40 and counts["non-principal"] > 60, counts
    assert counts["multi-orbit"] > 180 and counts["translated"] > 200, counts


def test_dad_to_asdim_families_are_pinned():
    # members in unit order of their fibers, by least arrow within a fiber
    g = disjoint_union([pair_groupoid(3), pair_groupoid(4)])
    k = symmetrize(g.all_arrows())
    bridge = dad_to_asdim(g, kl_dad_search(g, k, g.all_arrows(), 0))
    assert bridge.certified
    assert [[sorted(m) for m in fam] for fam in bridge.families] == [[
        [0, 7, 8], [1, 9, 10], [2, 11, 12], [3, 13, 14, 15], [4, 16, 17, 18],
        [5, 19, 20, 21], [6, 22, 23, 24],
    ]]
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    kz = symmetrize(z8.arrow_set(range(8, 16)))
    bz = dad_to_asdim(z8, kl_dad_search(z8, kz, power(kz, 2), 1))
    assert bz.certified
    assert [[sorted(m) for m in fam] for fam in bz.families] == [
        [[0, 50, 57], [22, 29, 36], [1, 8, 58], [30, 37, 44], [2, 9, 16], [38, 45, 52],
         [10, 17, 24], [46, 53, 60], [4, 54, 61], [18, 25, 32], [5, 12, 62], [26, 33, 40],
         [6, 13, 20], [34, 41, 48], [14, 21, 28], [42, 49, 56]],
        [[15], [43], [23], [51], [31], [59], [3], [39], [11], [47], [19], [55], [27], [63],
         [7], [35]],
    ]


# -- asdim -> dad ---------------------------------------------------------------


def test_asdim_to_dad_p7_closes_loop():
    g, graphing = line(7)
    k = graphing.ball(1)
    l_set = power(k, 2)
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, l_set, 1)
    w = asdim_to_dad(g, g.all_units(), k, l_set, decomps)
    assert w.certified and w.d == 1


@pytest.mark.parametrize("shape, labelling", [(1, 3), (6, 0)])
def test_asdim_fiber_decompositions_on_forty_vertex_trees(shape, labelling):
    # 40-point fibers: a search that gave up above 24 points reported that
    # these fibers admit no decomposition at the witness d
    g, graphing = random_tree(40, shape, labelling)
    k = graphing.ball(1)
    l_set = power(k, 2)
    w = kl_dad_search(g, k, l_set, 2)
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, l_set, w.d)
    assert list(decomps) == [0] and len(decomps[0]) == w.d + 1 == 2
    back = asdim_to_dad(g, g.all_units(), k, l_set, decomps)
    assert back.certified and back.d == w.d


def test_asdim_to_dad_z8_window():
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    k = symmetrize(z8.arrow_set(range(8, 16)))
    l_set = power(k, 2)
    decomps = asdim_fiber_decompositions(z8, z8.all_units(), k, l_set, 1)
    w = asdim_to_dad(z8.all_units().owner, z8.all_units(), k, l_set, decomps)
    assert w.certified and w.d == 1


def test_asdim_to_dad_zero_dim_singleton_fibers():
    g = pair_blocks_groupoid([], 5)  # units only
    k = symmetrize(g.all_arrows())
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, k, 0)
    w = asdim_to_dad(g, g.all_units(), k, k, decomps)
    assert w.certified and w.d == 0
    assert sorted(w.cover.classes[0]) == list(range(5))


def test_asdim_to_dad_restriction_window():
    g, graphing = line(9)
    k = graphing.ball(1)
    l_set = power(k, 2)
    y = g.unit_set(range(6))
    decomps = asdim_fiber_decompositions(g, y, k, l_set, 1)
    w = asdim_to_dad(g, y, k, l_set, decomps)
    assert w.certified
    assert w.owner.n_units == 6


def test_asdim_to_dad_inconsistent_extra_fibers_still_certifies():
    # labels on fibers away from the fundamental domain are filtered out
    g, graphing = line(7)
    k = graphing.ball(1)
    l_set = power(k, 2)
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, l_set, 1)
    scrambled = dict(decomps)
    extra_fiber = [a for a in range(g.n_arrows) if g.rng[a] == 6]
    scrambled[6] = [[frozenset(extra_fiber)], []]  # nonsense labels, unused fiber
    w = asdim_to_dad(g, g.all_units(), k, l_set, scrambled)
    assert w.certified


def test_asdim_to_dad_rejects_unseparated_blocks():
    g, graphing = line(7)
    k = graphing.ball(1)
    l_set = power(k, 2)
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, l_set, 1)
    x = sorted(decomps)[0]
    pts = sorted(a for fam in decomps[x] for m in fam for a in m)
    bad = [[{a} for a in pts], []]  # singletons: adjacent ones are not separated
    decomps = dict(decomps)
    decomps[x] = bad
    with pytest.raises(CoarseError, match=rf"fiber {x}, family 0, block 1: arrow \d+ is not"):
        asdim_to_dad(g, g.all_units(), k, l_set, decomps)


def _line7_decomposition():
    g, graphing = line(7)
    k = graphing.ball(1)
    l_set = power(k, 2)
    decomps = asdim_fiber_decompositions(g, g.all_units(), k, l_set, 1)
    assert list(decomps) == [0]  # one orbit: the H-fiber at 0 is the whole fiber
    return g, k, l_set, decomps[0]


def test_asdim_to_dad_rejects_block_leaving_the_h_fiber():
    g, k, l_set, fams = _line7_decomposition()
    outside = next(a for a in range(g.n_arrows) if g.rng[a] == 1)
    bad = [list(fam) for fam in fams]
    bad[1][0] = bad[1][0] | {outside}
    with pytest.raises(CoarseError, match="fiber 0, family 1, block 0 leaves the H-fiber"):
        asdim_to_dad(g, g.all_units(), k, l_set, {0: bad})


def test_asdim_to_dad_rejects_blocks_overlapping_across_families():
    g, k, l_set, fams = _line7_decomposition()
    bad = [list(fams[0]), list(fams[1]) + [frozenset([min(fams[0][0])])]]
    with pytest.raises(CoarseError, match="fiber 0 blocks overlap at family 1"):
        asdim_to_dad(g, g.all_units(), k, l_set, {0: bad})


def test_asdim_to_dad_rejects_blocks_that_miss_part_of_the_fiber():
    g, k, l_set, fams = _line7_decomposition()
    bad = [list(fams[0]), list(fams[1])[1:]]
    with pytest.raises(CoarseError, match="fiber 0 blocks do not partition the H-fiber"):
        asdim_to_dad(g, g.all_units(), k, l_set, {0: bad})


def test_asdim_to_dad_rejects_block_escaping_the_bound():
    # one block holding the whole fiber is separated but not L-bounded
    g, k, l_set, fams = _line7_decomposition()
    whole = frozenset(a for fam in fams for m in fam for a in m)
    with pytest.raises(
        CoarseError,
        match=r"fiber 0, family 0, block 0: arrow \d+ has a quotient .* escapes the bound",
    ):
        asdim_to_dad(g, g.all_units(), k, l_set, {0: [[whole]]})


def test_asdim_to_dad_rejects_windows_that_are_not_oc_normal():
    g, k, l_set, fams = _line7_decomposition()
    step = next(a for a in iter_bits(k.mask) if not g.is_unit(a))
    one_way = ArrowSet(g, k.mask & ~(1 << step))
    unitless = ArrowSet(g, k.mask & ~1)
    for bad_k, bad_l, name in ((one_way, l_set, "window"), (unitless, l_set, "window"),
                               (k, ArrowSet(g, l_set.mask & ~(1 << step)), "bound")):
        with pytest.raises(CoarseError, match=f"the {name} must be symmetric"):
            asdim_to_dad(g, g.all_units(), bad_k, bad_l, {0: fams})


def test_asdim_to_dad_rejects_non_principal():
    z2 = action_groupoid(cyclic_table(2), [tuple(range(2))] * 2)
    k = symmetrize(z2.all_arrows())
    with pytest.raises(CoarseError):
        asdim_to_dad(z2, z2.all_units(), k, k, {})


def _corrupt_fiber_families(rng, g, decomps):
    """A copy of fiber decompositions with one block edited at random."""
    out = {x: [[set(m) for m in fam] for fam in fams] for x, fams in decomps.items()}
    fams = out[rng.choice(sorted(out))]
    block = rng.choice([m for fam in fams for m in fam])
    a = rng.choice(sorted(block))
    kind = rng.randrange(5)  # 0 keeps the families as built
    if kind == 0:  # move an arrow into a new block of some family, maybe a new one
        block.discard(a)
        i = rng.randrange(len(fams) + 1)
        if i == len(fams):
            fams.append([])
        fams[i].append({a})
    elif kind == 1:  # drop an arrow
        block.discard(a)
    elif kind == 2:  # add any arrow
        block.add(rng.randrange(g.n_arrows))
    elif kind == 3:  # merge two blocks of one family
        fam = rng.choice(fams)
        if len(fam) > 1:
            fam[0] |= fam.pop()
    else:  # move a whole block into another family, alone or joined to a block
        for fam in fams:
            if block in fam:
                fam.remove(block)
        fam = rng.choice(fams)
        if fam and rng.random() < 0.5:
            rng.choice(fam).update(block)
        else:
            fam.append(block)
    return out


def test_asdim_to_dad_certifies_whatever_passes_its_fiber_checks():
    # on principal groupoids a reconstruction that passes the fiber checks
    # always certifies: asdim_to_dad raises CoarseError or returns a
    # certified witness, never the RuntimeError of a broken invariant
    rng = random.Random(11)
    outcomes = {"certified": 0, "rejected": 0}
    for trial in range(60):
        if trial % 2:  # long fibers: a tree's ball window on a pair groupoid
            g, graphing = random_tree(rng.randint(6, 12), rng.randrange(99), rng.randrange(99))
            k = graphing.ball(1)
            l_set = power(k, rng.randint(1, 3))
        else:  # many short fibers: pair blocks under random windows
            g = random_principal_groupoid(rng, 40)
            k = random_arrow_set(rng, g, 0.3)
            l_set = k | random_arrow_set(rng, g, 0.3)
        y = random_unit_set(rng, g, 0.7)
        try:
            decomps = asdim_fiber_decompositions(g, y, k, l_set, 3)
        except CoarseError:
            continue
        trials = [decomps]
        if decomps:
            trials += [_corrupt_fiber_families(rng, g, decomps) for _ in range(4)]
        for fams in trials:
            try:
                w = asdim_to_dad(g, y, k, l_set, fams)
            except CoarseError:
                outcomes["rejected"] += 1
                continue
            assert w.certified
            outcomes["certified"] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_gauge_power_contains_relational_composition():
    g, graphing = line(6)
    k = graphing.ball(1)
    e1 = gauge_from(g, k)
    e2 = gauge_from(g, power(k, 2))
    for p in range(g.n_arrows):
        composed = 0
        for q in range(g.n_arrows):
            if e1[p] >> q & 1:
                composed |= e1[q]
        assert composed & ~e2[p] == 0


def test_fiber_z8_is_cyclic_metric():
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    k = symmetrize(z8.arrow_set(range(8, 16)))
    labels = fiber_points(z8, 0)
    gauge = fiber_gauge(z8, labels, k)
    assert len(gauge) == 8
    for a in labels:
        for b in labels:
            diff = (z8.src[a] - z8.src[b]) % 8
            expected = diff in (0, 1, 7)
            assert bool(gauge[a] >> b & 1) == expected


def test_treeable_rows_shape_and_diameters():
    g, graphing = line(9)
    res = treeable_cover(g, graphing, 2)
    assert res.rows
    total = 0
    for fam, cls, annulus, fib, size, diam in res.rows:
        assert fam in (0, 1) and size >= 1
        assert 0 <= diam <= 4 * res.scale
        total += size
    assert total >= g.n_arrows  # annuli overlap at multiples of the width


def test_h_fibers_match_closure_oracle():
    # the fiber walk against word enumeration of the whole generated subgroupoid,
    # on groupoids with and without isotropy
    rng = random.Random(43)
    kinds = {True: 0, False: 0}
    for trial in range(200):
        if trial % 2:
            g = random_groupoid(rng, rng.randint(40, 100))
        else:
            g = random_principal_groupoid(rng, rng.randint(10, 50))
        k = random_arrow_set(rng, g, rng.uniform(0.0, 0.5))  # symmetric, every unit
        if trial % 3 == 0:  # H holds the inverses of a one-way window too
            k = ArrowSet(g, mask_of(a for a in k if rng.random() < 0.7) | g.units_mask)
        y = random_unit_set(rng, g, rng.uniform(0.2, 1.0))
        assert orbit_fibers(g, y, k) == closure_h_fibers(g, y, k)
        kinds[is_principal(g)] += 1
    assert min(kinds.values()) > 40, kinds


def test_asdim_to_dad_on_every_unit_matches_the_restriction():
    # with Y = every unit the witness is certified on g itself, and it reads
    # as the one certified on restrict(g, Y)
    cases = [(g, graphing.ball(1)) for g, graphing in (line(7), random_tree(12, 4, 1))]
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    cases.append((z8, symmetrize(z8.arrow_set(range(8, 16)))))
    for g, k in cases:
        l_set = power(k, 2)
        y = g.all_units()
        w = asdim_to_dad(g, y, k, l_set, asdim_fiber_decompositions(g, y, k, l_set, 2))
        gy = restrict(g, y)
        classes = tuple(gy.from_parent_units(g.unit_set(c)) for c in w.cover.classes)
        ref = kl_dad_check(gy, gy.from_parent_arrows(k), gy.from_parent_arrows(l_set),
                           Cover(gy, classes))
        assert w.owner is g and w.certified and ref.certified
        assert w.to_json_obj() == ref.to_json_obj()


def test_asdim_to_dad_missing_fiber_errors():
    g, graphing = line(7)
    k = graphing.ball(1)
    with pytest.raises(CoarseError):
        asdim_to_dad(g, g.all_units(), k, power(k, 2), {})


def graphing_outcome(g, q_set):
    """Lengths, every ball up to one past the diameter, and the treeability
    verdict of ``Graphing(g, q_set)``; the CoarseError text if it raises."""
    try:
        graphing = Graphing(g, q_set)
    except CoarseError as exc:
        return str(exc)
    radii = range(max(graphing.lengths) + 2)
    return (graphing.lengths, [graphing.ball(r) for r in radii],
            (graphing.treeable, graphing.failure))


def whole_power_outcome(g, q_set):
    """``graphing_outcome`` read from the whole-power oracle: the balls are
    the powers of symmetrize(q), and a length is the first ball holding the arrow."""
    balls = whole_powers(symmetrize(q_set))
    if balls[-1].mask != g.arrows_mask:
        return "graphing does not generate the groupoid"
    lengths = tuple(next(r for r, ball in enumerate(balls) if a in ball)
                    for a in range(g.n_arrows))
    radii = range(max(lengths) + 2)
    return (lengths, [balls[min(r, len(balls) - 1)] for r in radii],
            union_find_treeable(g, q_set))


def test_frontier_balls_agree_with_the_whole_ball_oracle():
    kinds = set()
    for g, q_set in generator_sets():
        outcome = graphing_outcome(g, q_set)
        assert outcome == whole_power_outcome(g, q_set)
        kinds.add(outcome if isinstance(outcome, str) else outcome[2][0])
    assert kinds == {True, False, "graphing does not generate the groupoid"}
