"""The exact search engine against its recursive, cache-free oracles."""

import random

from conftest import (
    brute_dad_search,
    random_arrow_set,
    random_groupoid,
    recursive_generic_search,
    recursive_partition_search,
)
from grpdim import (
    CoarseSpace,
    Cover,
    Gauge,
    Groupoid,
    action_groupoid,
    cyclic_table,
    ef_asdim_search,
    is_principal,
    kl_dad_check,
    kl_dad_search,
    power,
    product,
    symmetrize,
    tree_window,
    trivial_perms,
    UnitSet,
)
from grpdim import _search
from grpdim._search import partition_search
from grpdim.dad import _generic_search, _principal_tables
from grpdim.groupoid import iter_bits


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


def test_exact_search_matches_recursive_oracle_on_random_instances():
    # dense enough that frontiers carry several components whose pairwise
    # mergeability differs, so a key without it (or without common & F)
    # reports false failures here
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
    for a, b in ((3, 3), (4, 3), (4, 4), (5, 3)):
        g, k_set, l_set = grid_tables(a, b)
        adj, ok = _principal_tables(g, k_set, l_set)
        n = g.n_units
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            adj_p, ok_p = relabel(adj, perm), relabel(ok, perm)
            for classes in (1, 2, 3):
                expected = recursive_partition_search(n, classes, adj_p, ok_p)
                assert partition_search(n, classes, adj_p, ok_p) == expected


def test_generic_search_matches_recursive_oracle():
    # groupoids with isotropy take the closure-tracking class states; a
    # random bound need not contain K, so seeds outside L must be refused
    rng = random.Random(11)
    instances = found = refuted = 0
    while instances < 120:
        g = random_groupoid(rng, rng.randint(30, 60))
        if is_principal(g):
            continue
        instances += 1
        k_set = random_arrow_set(rng, g, rng.uniform(0.1, 0.6))
        l_set = [k_set, power(k_set, 2), random_arrow_set(rng, g, 0.6)][instances % 3]
        for d in range(3):
            expected = recursive_generic_search(g, k_set, l_set, d)
            assert _generic_search(g, k_set, l_set, d, "exact") == expected
            if expected is None:
                refuted += 1
                continue
            found += 1
            cover = Cover(g, tuple(UnitSet(g, m) for m in expected), g.all_units())
            assert kl_dad_check(g, k_set, l_set, cover).certified
    assert found > 200 and refuted > 60


def test_generic_search_matches_brute_force_on_small_instances():
    # the oracle above shares the transition; exhaustive colourings do not,
    # so a closure that wrongly refuses a class shows up here
    rng = random.Random(17)
    instances = found = refuted = 0
    while instances < 150:
        g = random_groupoid(rng, rng.randint(36, 44))
        if is_principal(g) or g.n_units > 6:
            continue
        instances += 1
        k_set = random_arrow_set(rng, g, rng.uniform(0.2, 0.7))
        l_set = [k_set, power(k_set, 2), random_arrow_set(rng, g, 0.6)][instances % 3]
        got = kl_dad_search(g, k_set, l_set, 1)
        expected = brute_dad_search(g, k_set, l_set, 1)
        if expected is None:
            assert got is None
            refuted += 1
        else:
            assert got is not None and got.d == expected[0]
            assert got.cover.classes == expected[1].classes
            found += 1
    assert found > 100 and refuted > 20


def test_refutation_node_count(monkeypatch):
    g, k_set, l_set = grid_tables(6, 6)
    calls = 0
    try_add = _search._try_add

    def counting(*args):
        nonlocal calls
        calls += 1
        return try_add(*args)

    monkeypatch.setattr(_search, "_try_add", counting)
    assert kl_dad_search(g, k_set, l_set, 1) is None
    # 61,097 calls without the failure records, 6,619 with them
    assert calls <= 10_000


def test_exact_search_depth_is_not_bounded_by_recursion():
    n = 1500
    units = Groupoid(n, range(n), range(n), range(n), {(u, u): u for u in range(n)})
    w = kl_dad_search(units, units.all_arrows(), units.all_arrows(), 0, mode="exact")
    assert w is not None and w.d == 0 and w.certified
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, n))
    w = kl_dad_search(z2, z2.all_arrows(), z2.all_arrows(), 0, mode="exact")
    assert w is not None and w.d == 0 and w.certified
    diagonal = Gauge.diagonal(n)
    families = ef_asdim_search(CoarseSpace(tuple(range(n))), diagonal, diagonal, 0, mode="exact")
    assert families is not None and len(families) == 1 and len(families[0]) == n
