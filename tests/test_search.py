"""The search engine against its oracles: recursive and cache-free for exact
mode, one first-fit pass for greedy mode."""

import random

from hypothesis import given, settings, strategies as st

from conftest import (
    Gauge,
    brute_dad_search,
    brute_ef_exists,
    first_fit_search,
    full_try_add,
    generated_inside,
    naive_compact_order,
    oracle_generated,
    random_arrow_set,
    random_groupoid,
    recursive_generic_search,
    recursive_partition_search,
    relabel_units,
)
from grpdim import (
    ArrowSet,
    Cover,
    action_groupoid,
    cyclic_table,
    ef_asdim_search,
    from_triples,
    is_principal,
    kl_dad_check,
    kl_dad_search,
    pair_groupoid,
    pair_index,
    power,
    product,
    symmetrize,
    tree_window,
    trivial_perms,
    UnitSet,
)
from grpdim import _search, dad
from grpdim._search import compact_order, partition_search
from grpdim.dad import _generic_search, _principal_tables
from grpdim.groupoid import iter_bits, mask_of


def random_symmetric(rng, n, density, reflexive):
    rows = [(1 << p) if reflexive else 0 for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < density:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return rows


def grid_tables(a, b):
    """Principal tables of Pa x Pb with K = ball(1) x ball(1) and L = K^2."""
    ga, gra = tree_window("path", a)
    gb, grb = tree_window("path", b)
    prod = product(ga, gb)
    k_set = symmetrize(prod.lift_sets(gra.ball(1), grb.ball(1)))
    return prod.groupoid, k_set, power(k_set, 2)


def relabel(rows, perm):
    out = [0] * len(rows)
    for p, row in enumerate(rows):
        out[perm[p]] = sum(1 << perm[q] for q in iter_bits(row))
    return out


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_instance(rng, g, k_set, l_set):
    """``g`` with its units shuffled, and K and L carried along."""
    g2, amap = relabel_units(g, shuffled(rng, g.n_units))
    return g2, *(ArrowSet(g2, mask_of(amap[a] for a in s)) for s in (k_set, l_set))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
)))
def test_compact_order_follows_its_definition(graph):
    n, edges = graph
    adj = [0] * n
    for p, q in edges:  # self-loops included: the order ignores them
        adj[p] |= 1 << q
        adj[q] |= 1 << p
    order = compact_order(n, adj)
    assert sorted(order) == list(range(n))
    assert compact_order(n, adj) == order
    assert order == naive_compact_order(n, adj)
    degree = [(adj[v] & ~(1 << v)).bit_count() for v in range(n)]
    assert order[0] == min(range(n), key=lambda v: (degree[v], v))
    placed = 0
    for v in order:
        if not adj[v] & ~(1 << v) & placed:
            # v starts a component, so every earlier one is finished
            assert not any(adj[u] & ~placed for u in iter_bits(placed))
        placed |= 1 << v


def test_exact_search_matches_recursive_oracle_on_random_instances():
    # random tables carry random labels, so the compact order differs from
    # id order on nearly every instance; dense enough that frontiers carry
    # several components whose pairwise mergeability differs, so a key
    # without it (or without common & F) reports false failures here
    rng = random.Random(3)
    found = refuted = 0
    for _ in range(3000):
        n = rng.randint(6, 16)
        classes = rng.randint(2, 3)
        adj = random_symmetric(rng, n, rng.uniform(0.1, 0.5), reflexive=False)
        ok = random_symmetric(rng, n, rng.uniform(0.3, 0.9), reflexive=True)
        expected = recursive_partition_search(n, classes, adj, ok)
        assert partition_search(n, classes, adj, ok) == expected
        found += expected is not None
        refuted += expected is None
    assert found > 500 and refuted > 500


def test_exact_search_matches_recursive_oracle_on_relabelled_grids():
    rng = random.Random(5)
    for a, b in ((3, 3), (4, 3), (4, 4), (5, 3), (5, 5), (6, 6)):
        g, k_set, l_set = grid_tables(a, b)
        adj, ok = _principal_tables(g, k_set, l_set)
        n = g.n_units
        # a verdict does not depend on the labelling; the as-built oracle
        # gives it cheaply where a relabelled cache-free refutation is slow
        feasible = [recursive_partition_search(n, c, adj, ok) is not None for c in (1, 2, 3)]
        for _ in range(3):
            perm = shuffled(rng, n)
            adj_p, ok_p = relabel(adj, perm), relabel(ok, perm)
            for classes in (1, 2, 3):
                got = partition_search(n, classes, adj_p, ok_p)
                assert (got is not None) == feasible[classes - 1]
                if got is not None or n <= 25:
                    assert got == recursive_partition_search(n, classes, adj_p, ok_p)


def test_generic_search_matches_recursive_oracle():
    # groupoids with isotropy take the generic engine's unit-mask states; a
    # random bound need not contain K, so K-arrows outside L must be refused
    rng = random.Random(11)
    instances = found = refuted = 0
    while instances < 120:
        g = random_groupoid(rng, rng.randint(30, 60))
        if is_principal(g):
            continue
        instances += 1
        k_set = random_arrow_set(rng, g, rng.uniform(0.1, 0.6))
        l_set = [k_set, power(k_set, 2), random_arrow_set(rng, g, 0.6)][instances % 3]
        if instances % 2:  # units of a random groupoid come in contiguous blocks
            g, k_set, l_set = relabel_instance(rng, g, k_set, l_set)
        for d in range(3):
            expected = recursive_generic_search(g, k_set, l_set, d)
            assert _generic_search(g, k_set, l_set, d, "exact") == expected
            if expected is None:
                refuted += 1
                continue
            found += 1
            cover = Cover(g, tuple(UnitSet(g, m) for m in expected))
            assert kl_dad_check(g, k_set, l_set, cover).certified
    assert found > 200 and refuted > 60


def test_principal_shadow_refutes_only_what_the_closure_refutes():
    # kl_dad_search searches each d on the principal shadow first and runs
    # the generic engine only where the shadow finds a solution: a shadow
    # refutation must be a refutation on g, and the least d and its masks
    # must be those of the generic search run d by d
    rng = random.Random(43)
    outcomes = {"shadow refutes": 0, "both find": 0, "closure refutes": 0}
    instances = small = 0
    while instances < 120:
        g = random_groupoid(rng, rng.randint(30, 60))
        if is_principal(g):
            continue
        instances += 1
        units = ArrowSet(g, g.units_mask)
        k_set = random_arrow_set(rng, g, rng.uniform(0.1, 0.6)) | units
        l_set = [k_set, power(k_set, 2), random_arrow_set(rng, g, 0.6) | units][instances % 3]
        if instances % 2:
            g, k_set, l_set = relabel_instance(rng, g, k_set, l_set)
        adj, ok = _principal_tables(g, k_set, l_set)
        least = None
        for d in range(3):
            closure = recursive_generic_search(g, k_set, l_set, d)
            if partition_search(g.n_units, d + 1, adj, ok) is None:
                assert closure is None
                outcomes["shadow refutes"] += 1
            else:
                outcomes["both find" if closure is not None else "closure refutes"] += 1
            if least is None and closure is not None:
                least = d, closure
        got = kl_dad_search(g, k_set, l_set, 2)
        if least is None:
            assert got is None
        else:
            assert got.d == least[0] and [c.mask for c in got.cover.classes] == least[1]
        if g.n_units <= 6:
            small += 1
            expected = brute_dad_search(g, k_set, l_set, 1)
            got = kl_dad_search(g, k_set, l_set, 1)
            if expected is None:
                assert got is None
            else:
                assert got.d == expected[0] and got.cover.classes == expected[1].classes
    assert outcomes["shadow refutes"] > 20 and outcomes["both find"] > 100
    assert outcomes["closure refutes"] > 15 and small > 20


def test_trivial_isotropy_outside_the_bound_is_found_on_the_shadow_only():
    # Z/2 acting trivially, K = every arrow, L = the units: the shadow has
    # no edges and takes all units in one class, while each class generates
    # the isotropy arrow of its units, which L lacks
    g = action_groupoid(cyclic_table(2), trivial_perms(2, 5))
    k_set, l_set = g.all_arrows(), ArrowSet(g, g.units_mask)
    adj, ok = _principal_tables(g, k_set, l_set)
    for d in range(3):
        assert partition_search(g.n_units, d + 1, adj, ok) is not None
        assert _generic_search(g, k_set, l_set, d, "exact") is None
    assert kl_dad_search(g, k_set, l_set, 2) is None


def test_searches_match_brute_force_on_small_instances():
    # the partition oracles above share the engine's transitions; exhaustive
    # colourings do not, so a transition that wrongly refuses a class shows up here
    rng = random.Random(17)
    counts = {True: [0, 0], False: [0, 0]}  # principal -> [found, refuted]
    while sum(counts[False]) < 200 or sum(counts[True]) < 60:
        g = random_groupoid(rng, rng.randint(36, 44))
        principal = is_principal(g)
        if g.n_units > 6 or sum(counts[principal]) >= (60 if principal else 200):
            continue
        k_set = random_arrow_set(rng, g, rng.uniform(0.2, 0.7))
        # on principal instances the bound of units alone refutes whenever
        # K is not bipartite
        other = ArrowSet(g, g.units_mask) if principal else random_arrow_set(rng, g, 0.6)
        l_set = [k_set, power(k_set, 2), other][sum(counts[principal]) % 3]
        if rng.random() < 0.5:
            g, k_set, l_set = relabel_instance(rng, g, k_set, l_set)
        got = kl_dad_search(g, k_set, l_set, 1)
        expected = brute_dad_search(g, k_set, l_set, 1)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.d == expected[0]
            assert got.cover.classes == expected[1].classes
        counts[principal][expected is None] += 1
    assert counts[False][0] > 100 and counts[False][1] > 20
    assert min(counts[True]) > 10


def test_ef_search_matches_oracles_on_relabelled_gauges():
    # E is a union of paths, so id order and the compact order differ once
    # the points are shuffled
    rng = random.Random(29)
    found = refuted = 0
    for _ in range(400):
        n = rng.randint(2, 14)
        perm = shuffled(rng, n)
        e_rel = [1 << p for p in range(n)]
        for p in range(n - 1):
            if rng.random() < 0.8:
                e_rel[perm[p]] |= 1 << perm[p + 1]
                e_rel[perm[p + 1]] |= 1 << perm[p]
        f_rel = list(e_rel)
        for p in range(n):
            for q in range(p + 1, n):
                if rng.random() < 0.3:
                    f_rel[p] |= 1 << q
                    f_rel[q] |= 1 << p
        e, f = Gauge(n, e_rel), Gauge(n, f_rel)
        d_max = rng.randint(0, 2)
        got = ef_asdim_search(e, f, d_max, mode="exact")
        self_free = [e_rel[p] & ~(1 << p) for p in range(n)]
        for d in range(d_max + 1):
            states = recursive_partition_search(n, d + 1, self_free, f_rel)
            if states is not None:
                assert got is not None and len(got) == d + 1
                assert got == [
                    sorted((frozenset(iter_bits(m)) for m, _ in comps), key=min)
                    for _, comps in states
                ]
                found += 1
                break
        else:
            assert got is None
            refuted += 1
        if n <= 7:
            assert (got is not None) == brute_ef_exists(e, f, n, d_max)
    assert found > 100 and refuted > 50


def first_fit_partition(n, classes, adj, ok):
    return first_fit_search(range(n), classes, (0, ()), lambda s, i: full_try_add(s, i, adj, ok))


def test_greedy_partition_search_is_first_fit():
    # greedy is the first descent of the id-order search: the same hits and
    # misses as one first-fit pass, and a hit is the exact search's answer
    rng = random.Random(31)
    tables = []
    for _ in range(1500):
        n = rng.randint(4, 16)
        adj = random_symmetric(rng, n, rng.uniform(0.1, 0.5), reflexive=False)
        ok = random_symmetric(rng, n, rng.uniform(0.3, 0.9), reflexive=True)
        tables.append((n, rng.randint(1, 3), adj, ok))
    for a, b in ((3, 3), (4, 4), (5, 5), (6, 6)):
        adj, ok = _principal_tables(*grid_tables(a, b))
        n = a * b
        for _ in range(6):
            perm = shuffled(rng, n)
            tables += [(n, c, relabel(adj, perm), relabel(ok, perm)) for c in (2, 3, 4)]
    hits = gaps = misses = 0
    for n, classes, adj, ok in tables:
        got = partition_search(n, classes, adj, ok, "greedy")
        expected = first_fit_partition(n, classes, adj, ok)
        exact = partition_search(n, classes, adj, ok)
        if expected is None:
            assert got is None
            gaps += exact is not None
            misses += exact is None
            continue
        hits += 1
        assert [(m, set(comps)) for m, comps in got] == [(m, set(comps)) for m, comps in expected]
        assert exact == got
    assert hits > 600 and gaps > 80 and misses > 400


def test_greedy_ef_search_is_first_fit():
    # E is a union of paths on shuffled points or a random graph
    rng = random.Random(37)
    hits = gaps = misses = 0
    for i in range(1200):
        n = rng.randint(2, 16)
        if i % 2:
            e_rel = random_symmetric(rng, n, rng.uniform(0.1, 0.4), reflexive=True)
        else:
            perm = shuffled(rng, n)
            e_rel = [1 << p for p in range(n)]
            for p in range(n - 1):
                if rng.random() < 0.8:
                    e_rel[perm[p]] |= 1 << perm[p + 1]
                    e_rel[perm[p + 1]] |= 1 << perm[p]
        f_rel = random_symmetric(rng, n, rng.uniform(0.2, 0.7), reflexive=True)
        f_rel = [r | e for r, e in zip(f_rel, e_rel)]
        e, f = Gauge(n, e_rel), Gauge(n, f_rel)
        self_free = [e_rel[p] & ~(1 << p) for p in range(n)]
        d_max = rng.randint(1, 2)
        expected = None
        for d in range(d_max + 1):
            states = first_fit_partition(n, d + 1, self_free, f_rel)
            if states is not None:
                expected = [
                    sorted((frozenset(iter_bits(m)) for m, _ in comps), key=min)
                    for _, comps in states
                ]
                assert [m for m, _ in partition_search(n, d + 1, self_free, f_rel)] == [
                    m for m, _ in states
                ]
                break
        assert ef_asdim_search(e, f, d_max, mode="greedy") == expected
        if expected is not None:
            hits += 1
        elif ef_asdim_search(e, f, d_max) is not None:
            gaps += 1
        else:
            misses += 1
    assert hits > 800 and gaps > 30 and misses > 15


def test_untouched_unit_joins_a_class_whose_bound_lacks_it():
    # K holds no unit, and a class generates a unit only where a K-arrow
    # inside it touches it: unit 2, which no arrow of K touches, joins the
    # one class although L lacks it; with unit 4 out of L too, 5 must leave
    # 4's class, since the arrow between them makes 4 a unit of the class
    g = pair_groupoid(6)
    k_set = ArrowSet(g, mask_of([pair_index(6, 0, 1), pair_index(6, 1, 3), pair_index(6, 4, 5)]))
    l_set = oracle_generated(g, k_set, g.all_units())
    assert 2 not in l_set
    assert _generic_search(g, k_set, l_set, 0, "exact") == [g.units_mask]
    l_set = l_set - ArrowSet(g, 1 << 4)
    assert _generic_search(g, k_set, l_set, 0, "exact") is None
    for d in (1, 2):
        expected = recursive_generic_search(g, k_set, l_set, d)
        assert expected == [0b011111, 0b100000] + [0] * (d - 1)
        assert _generic_search(g, k_set, l_set, d, "exact") == expected


def random_window_times_z2(rng):
    """The pair groupoid on 6-10 units times Z/2 acting trivially, with the
    window of a random graph and the bound equal to it."""
    n = rng.randint(6, 10)
    base = pair_groupoid(n)
    q = base.units_mask
    density = rng.uniform(0.2, 0.6)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                q |= 1 << pair_index(n, u, v) | 1 << pair_index(n, v, u)
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, 1))
    prod = product(base, z2)
    k_set = symmetrize(prod.lift_sets(ArrowSet(base, q), z2.all_arrows()))
    return prod.groupoid, k_set, k_set


def test_greedy_generic_search_is_first_fit():
    rng = random.Random(41)
    instances = hits = gaps = misses = 0
    while instances < 400:
        if instances % 2:
            g = random_groupoid(rng, rng.randint(30, 60))
            if is_principal(g):
                continue
            units = ArrowSet(g, g.units_mask)
            k_set = random_arrow_set(rng, g, rng.uniform(0.1, 0.6)) | units
            l_set = [k_set, power(k_set, 2), random_arrow_set(rng, g, 0.6) | units][
                instances % 3
            ]
        else:
            g, k_set, l_set = random_window_times_z2(rng)
        instances += 1
        if instances % 4 < 2:
            g, k_set, l_set = relabel_instance(rng, g, k_set, l_set)
        d_max = rng.randint(1, 2)
        expected = None
        for d in range(d_max + 1):
            expected = first_fit_search(
                range(g.n_units), d + 1, 0, generated_inside(g, k_set, l_set)
            )
            if expected is not None:
                assert _generic_search(g, k_set, l_set, d, "exact") == expected
                break
        got = kl_dad_search(g, k_set, l_set, d_max, mode="greedy")
        if expected is not None:
            assert [c.mask for c in got.cover.classes] == expected
            hits += 1
            continue
        assert got is None
        if kl_dad_search(g, k_set, l_set, d_max) is not None:
            gaps += 1
        else:
            misses += 1
    assert hits > 200 and gaps > 15 and misses > 25


def test_refutation_node_count(monkeypatch):
    calls = 0
    try_add = _search._try_add

    def counting(*args):
        nonlocal calls
        calls += 1
        return try_add(*args)

    monkeypatch.setattr(_search, "_try_add", counting)
    g, k_set, l_set = grid_tables(6, 6)
    assert kl_dad_search(g, k_set, l_set, 1) is None
    # 61,097 calls in id order without the failure records, 6,619 with
    # them, 1,455 in compact order
    assert calls <= 1_600
    g, k_set, l_set = grid_tables(8, 8)
    adj, ok = _principal_tables(g, k_set, l_set)
    n = g.n_units
    for seed in (0, 1):
        # hundreds of thousands of calls in id order; 1,395 and 1,299 here
        perm = shuffled(random.Random(seed), n)
        calls = 0
        assert partition_search(n, 2, relabel(adj, perm), relabel(ok, perm)) is None
        assert calls <= 1_600


def test_generic_node_count(monkeypatch):
    calls = 0
    try_add = dad._generic_try_add

    def counting(*args):
        nonlocal calls
        calls += 1
        return try_add(*args)

    monkeypatch.setattr(dad, "_generic_try_add", counting)
    for a, b in ((4, 4), (5, 4)):
        g, k_grid, _ = grid_tables(a, b)
        z2 = action_groupoid(cyclic_table(2), trivial_perms(2, 1))
        prod = product(g, z2)
        k_set = symmetrize(prod.lift_sets(k_grid, z2.all_arrows()))
        calls = 0
        w = kl_dad_search(prod.groupoid, k_set, power(k_set, 2), 2)
        assert w is not None and w.d == 2
        # 3,545 and 3,555 calls when the generic engine refuted d=1 itself;
        # the principal shadow refutes d <= 1, leaving 50 and 60 at d=2
        assert calls <= 100


def test_exact_search_depth_is_not_bounded_by_recursion():
    n = 1500
    units = from_triples(n, range(n), range(n), range(n), [(u, u, u) for u in range(n)])
    w = kl_dad_search(units, units.all_arrows(), units.all_arrows(), 0, mode="exact")
    assert w is not None and w.d == 0 and w.certified
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, n))
    w = kl_dad_search(z2, z2.all_arrows(), z2.all_arrows(), 0, mode="exact")
    assert w is not None and w.d == 0 and w.certified
    diagonal = Gauge.diagonal(n)
    families = ef_asdim_search(diagonal, diagonal, 0, mode="exact")
    assert families is not None and len(families) == 1 and len(families[0]) == n
