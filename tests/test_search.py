"""The search engine against its oracles: recursive and cache-free for exact
mode, one first-fit pass for greedy mode."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Gauge,
    UnionFind,
    brute_dad_search,
    brute_ef_exists,
    first_fit_search,
    full_try_add,
    generated_inside,
    naive_compact_order,
    oracle_generated,
    random_arrow_set,
    random_groupoid,
    random_principal_groupoid,
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
from grpdim import _search, coarse, dad
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


def class_masks(states):
    """The item mask of each class of an oracle's class states, or None."""
    return None if states is None else [m for m, _ in states]


def grid_tables(a, b):
    """Principal tables of Pa x Pb with K = ball(1) x ball(1) and L = K^2."""
    ga, gra = tree_window("path", a)
    gb, grb = tree_window("path", b)
    prod = product(ga, gb)
    k_set = symmetrize(prod.lift_sets(gra.ball(1), grb.ball(1)))
    return prod.groupoid, k_set, power(k_set, 2)


def cube_tables(a):
    """Principal tables of Pa x Pa x Pa with K = ball(1)^3 and L = K^2."""
    g, k_plane, _ = grid_tables(a, a)
    gc, grc = tree_window("path", a)
    prod = product(g, gc)
    k_set = symmetrize(prod.lift_sets(k_plane, grc.ball(1)))
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


def count_pruned(monkeypatch):
    """A one-item list counting the children that forward checking skips,
    from now until the test ends."""
    pruned = [0]
    refused = _search._refused

    def counting(states, future):
        out = refused(states, future)
        pruned[0] += out != 0
        return out

    monkeypatch.setattr(_search, "_refused", counting)
    return pruned


def test_exact_search_matches_recursive_oracle_on_random_instances(monkeypatch):
    # random tables carry random labels, so the compact order differs from
    # id order on nearly every instance; dense enough that frontiers carry
    # several components whose pairwise mergeability differs, so a key
    # without it (or without common & F) reports false failures here, and
    # so does a refusal mask wider than reach & ~common
    rng = random.Random(3)
    pruned = count_pruned(monkeypatch)
    found = refuted = fired = 0
    for _ in range(3000):
        n = rng.randint(6, 16)
        classes = rng.randint(2, 3)
        adj = random_symmetric(rng, n, rng.uniform(0.1, 0.5), reflexive=False)
        ok = random_symmetric(rng, n, rng.uniform(0.3, 0.9), reflexive=True)
        expected = recursive_partition_search(n, classes, adj, ok)
        before = pruned[0]
        assert partition_search(n, classes, adj, ok) == class_masks(expected)
        found += expected is not None
        refuted += expected is None
        fired += pruned[0] > before
    assert found > 500 and refuted > 500 and fired > 1000


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
                    assert got == class_masks(recursive_partition_search(n, classes, adj_p, ok_p))


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


def test_principal_shadow_refutes_only_what_the_closure_refutes(monkeypatch):
    # kl_dad_search searches each d on the principal shadow first, returns the
    # shadow's least cover where it certifies on g, and runs the generic
    # engine only where that cover fails: a shadow refutation must be a
    # refutation on g, and the least d and its masks must be those of the
    # generic search run d by d
    generic_ds = []

    def recording(g, k_set, l_set, d, *args):
        generic_ds.append(d)
        return _generic_search(g, k_set, l_set, d, *args)

    monkeypatch.setattr(dad, "_generic_search", recording)
    rng = random.Random(43)
    outcomes = {"shadow refutes": 0, "shadow cover certifies": 0, "both find": 0,
                "closure refutes": 0}
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
        least, shadow_fails = None, set()
        for d in range(3):
            closure = recursive_generic_search(g, k_set, l_set, d)
            shadow = partition_search(g.n_units, d + 1, adj, ok)
            if shadow is None:
                assert closure is None
                outcomes["shadow refutes"] += 1
            elif kl_dad_check(
                g, k_set, l_set, Cover(g, tuple(UnitSet(g, m) for m in shadow))
            ).certified:
                assert closure == shadow
                outcomes["shadow cover certifies"] += 1
            else:
                shadow_fails.add(d)
                outcomes["both find" if closure is not None else "closure refutes"] += 1
            if least is None and closure is not None:
                least = d, closure
        generic_ds.clear()
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
        assert set(generic_ds) <= shadow_fails
    # no instance here has a failing shadow cover that g can beat ("both
    # find" reads 0); the twisted triangle in test_dad.py is one
    assert outcomes["shadow refutes"] > 20 and outcomes["shadow cover certifies"] > 200
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


def test_ef_search_matches_oracles_on_relabelled_gauges(monkeypatch):
    # E is a union of paths, so id order and the compact order differ once
    # the points are shuffled
    rng = random.Random(29)
    pruned = count_pruned(monkeypatch)
    found = refuted = fired = 0
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
        before = pruned[0]
        got = ef_asdim_search(e, f, d_max, mode="exact")
        fired += pruned[0] > before
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
    assert found > 100 and refuted > 50 and fired > 250


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
        assert got == class_masks(expected)
        assert exact == got
    assert hits > 600 and gaps > 80 and misses > 400


def test_greedy_never_consults_forward_checking(monkeypatch):
    # a skipped child would send greedy on to the next class where first fit
    # descends and gives up, so greedy must not see the refusal masks; the
    # exact runs show the instances are ones where they prune
    rng = random.Random(41)
    tables = []
    for a, b in ((4, 4), (5, 5), (6, 6)):
        adj, ok = _principal_tables(*grid_tables(a, b))
        for _ in range(4):
            perm = shuffled(rng, a * b)
            tables += [(a * b, c, relabel(adj, perm), relabel(ok, perm)) for c in (2, 3)]
    pruned = count_pruned(monkeypatch)
    for n, classes, adj, ok in tables:
        partition_search(n, classes, adj, ok)
    assert pruned[0] > 100

    def refused(states, future):
        raise AssertionError("greedy consulted the refusal masks")

    monkeypatch.setattr(_search, "_refused", refused)
    hits = 0
    for n, classes, adj, ok in tables:
        got = partition_search(n, classes, adj, ok, "greedy")
        assert got == class_masks(first_fit_partition(n, classes, adj, ok))
        hits += got is not None
    assert 0 < hits < len(tables)


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
                assert partition_search(n, d + 1, self_free, f_rel) == class_masks(states)
                break
        assert ef_asdim_search(e, f, d_max, mode="greedy") == expected
        if expected is not None:
            hits += 1
        elif ef_asdim_search(e, f, d_max) is not None:
            gaps += 1
        else:
            misses += 1
    assert hits > 800 and gaps > 30 and misses > 15


def test_dad_search_reads_classes_without_splitting_members(monkeypatch):
    # both engines return class masks, which are the cover's classes; only
    # the (E,F) search splits a class into members
    rng = random.Random(67)
    cases = []
    for i in range(60):
        g = random_principal_groupoid(rng, 30) if i % 2 else random_groupoid(rng, 80)
        k = random_arrow_set(rng, g, rng.uniform(0.1, 0.5)) | g.arrow_set(range(g.n_units))
        cases += [(g, k, power(k, 2), mode) for mode in ("exact", "greedy")]
    expected = [kl_dad_search(g, k, l_set, 3, mode) for g, k, l_set, mode in cases]

    def split(*_):
        raise AssertionError("members split")

    monkeypatch.setattr(coarse, "_components", split)
    assert [kl_dad_search(g, k, l_set, 3, mode) for g, k, l_set, mode in cases] == expected
    assert sum(w is not None and not is_principal(w.owner) for w in expected) > 20
    with pytest.raises(AssertionError, match="members split"):
        ef_asdim_search(Gauge.diagonal(2), Gauge.diagonal(2), 0)


def test_ef_members_are_the_e_components_of_their_family():
    # each member is connected under E, and no E-edge joins two members of
    # one family: the members are exactly the family's E-components
    rng = random.Random(71)
    several = 0
    for _ in range(300):
        n = rng.randint(4, 14)
        e_rel = random_symmetric(rng, n, rng.uniform(0.1, 0.3), reflexive=True)
        f_rel = random_symmetric(rng, n, rng.uniform(0.3, 0.8), reflexive=True)
        f_rel = [r | e for r, e in zip(f_rel, e_rel)]
        got = ef_asdim_search(Gauge(n, e_rel), Gauge(n, f_rel), 2, rng.choice(("exact", "greedy")))
        for family in got or ():
            several += len(family) > 1
            owner = {p: i for i, member in enumerate(family) for p in member}
            joined = UnionFind(n)
            for p in owner:
                for q in iter_bits(e_rel[p]):
                    if q in owner:
                        assert owner[q] == owner[p]
                        joined.union(p, q)
            for member in family:
                assert len({joined.find(p) for p in member}) == 1
    assert several > 100


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
    # them, 1,455 in compact order, 536 with forward checking
    assert calls == 536
    g, k_set, l_set = grid_tables(8, 8)
    adj, ok = _principal_tables(g, k_set, l_set)
    n = g.n_units
    for seed, pinned in ((0, 567), (1, 547)):
        # hundreds of thousands of calls in id order; 1,395 and 1,299
        # without forward checking
        perm = shuffled(random.Random(seed), n)
        calls = 0
        assert partition_search(n, 2, relabel(adj, perm), relabel(ok, perm)) is None
        assert calls == pinned
    # P4xP4xP4 at d=1: 7,933,759 calls without forward checking
    cube, k_set, l_set = cube_tables(4)
    calls = 0
    assert kl_dad_search(cube, k_set, l_set, 1) is None
    assert calls == 145_464


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
        # the shadow refutes d <= 1 and its least cover certifies at d=2, so
        # the generic engine never runs; the masks are still g's least ones
        assert calls == 0
        masks = [c.mask for c in w.cover.classes]
        assert masks == recursive_generic_search(prod.groupoid, k_set, power(k_set, 2), 2)


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
