"""Shared instance generators and brute-force oracles for the test suite.

The oracles here are deliberately dumb: word enumeration by repeated set
products, and exhaustive enumeration of color assignments.  They are the
reference against which the engine's closures and searches are judged.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from grpdim import (
    ArrowSet,
    Cover,
    Gauge,
    Graphing,
    Groupoid,
    TreeCoverResult,
    UnitSet,
    arrows_within,
    compose_sets,
    ef_asdim_check,
    generated,
    kl_dad_check,
    pair_groupoid,
    pair_index,
    symmetrize,
)
from grpdim.groupoid import _UnionFind, iter_bits, mask_of
from grpdim.dad import _generic_try_add


# -- generators --------------------------------------------------------------


def disjoint_union(components: list[Groupoid]) -> Groupoid:
    """Disjoint union; unit and non-identity arrow ids are concatenated in order."""
    n = sum(c.n_units for c in components)
    unit_off = []
    arrow_maps = []
    acc = 0
    for c in components:
        unit_off.append(acc)
        acc += c.n_units
    src = list(range(n))
    rng = list(range(n))
    inv = list(range(n))
    nxt = n
    for c, off in zip(components, unit_off):
        amap = {}
        for a in range(c.n_units):
            amap[a] = off + c.src[a]
        for a in range(c.n_units, c.n_arrows):
            amap[a] = nxt
            nxt += 1
            src.append(off + c.src[a])
            rng.append(off + c.rng[a])
            inv.append(0)
        arrow_maps.append(amap)
    for c, amap in zip(components, arrow_maps):
        for a in range(c.n_units, c.n_arrows):
            inv[amap[a]] = amap[c.inv[a]]
    comp = {}
    for c, amap in zip(components, arrow_maps):
        m = c.n_arrows
        for key, val in c.comp.items():
            a, b = divmod(key, m)
            comp[(amap[a], amap[b])] = amap[val]
    return Groupoid(n, src, rng, inv, comp)


def pair_blocks_groupoid(blocks: list[list[int]], n_units: int, shuffle_rng=None) -> Groupoid:
    """Equivalence-relation groupoid with the given blocks on 0..n_units-1."""
    pairs = []
    for block in blocks:
        for i in block:
            for j in block:
                if i != j:
                    pairs.append((i, j))
    if shuffle_rng is not None:
        shuffle_rng.shuffle(pairs)
    index = {(i, i): i for i in range(n_units)}
    for idx, p in enumerate(pairs):
        index[p] = n_units + idx
    m = n_units + len(pairs)
    src = [0] * m
    rng = [0] * m
    inv = [0] * m
    for (i, j), a in index.items():
        src[a] = j
        rng[a] = i
        inv[a] = index[(j, i)]
    comp = {}
    for (i, j), a in index.items():
        for k in range(n_units):
            if (j, k) in index and (i, k) in index:
                comp[(a, index[(j, k)])] = index[(i, k)]
    return Groupoid(n_units, src, rng, inv, comp)


def random_principal_groupoid(rng: random.Random, target_arrows: int = 40) -> Groupoid:
    """Random disjoint union of pair blocks with about target_arrows arrows."""
    blocks = []
    units = 0
    arrows = 0
    while arrows < target_arrows - 4:
        size = rng.randint(1, 5)
        blocks.append(list(range(units, units + size)))
        units += size
        arrows += size * size
    return pair_blocks_groupoid(blocks, units, shuffle_rng=rng)


def random_groupoid(rng: random.Random, max_arrows: int = 200) -> Groupoid:
    """Random mix of pair blocks and cyclic isotropy components."""
    from grpdim import action_groupoid, cyclic_table, rotation_perms, trivial_perms

    comps = []
    arrows = 0
    while arrows < max_arrows - 30:
        kind = rng.random()
        if kind < 0.5:
            size = rng.randint(1, 5)
            comps.append(pair_blocks_groupoid([list(range(size))], size))
            arrows += size * size
        elif kind < 0.8:
            k = rng.randint(2, 4)
            comps.append(action_groupoid(cyclic_table(k), rotation_perms(k, k)))
            arrows += k * k
        else:
            k = rng.randint(2, 4)
            comps.append(action_groupoid(cyclic_table(k), trivial_perms(k, 1)))
            arrows += k
    return disjoint_union(comps)


def relabel_units(g: Groupoid, perm: list[int]) -> tuple[Groupoid, list[int]]:
    """The groupoid with unit u renamed ``perm[u]``, and its arrow map.

    Unit arrows move with their units; other arrow ids stay.
    """
    n, m = g.n_units, g.n_arrows
    amap = [perm[a] if a < n else a for a in range(m)]
    src, rng, inv = [0] * m, [0] * m, [0] * m
    for a in range(m):
        src[amap[a]] = perm[g.src[a]]
        rng[amap[a]] = perm[g.rng[a]]
        inv[amap[a]] = amap[g.inv[a]]
    comp = {}
    for key, c in g.comp.items():
        a, b = divmod(key, m)
        comp[(amap[a], amap[b])] = amap[c]
    return Groupoid(n, src, rng, inv, comp), amap


def random_tree(n: int, shape: int, labelling: int) -> tuple[Groupoid, Graphing]:
    """The pair groupoid on n vertices with the edge graphing of a random
    recursive tree: the shape and the vertex labels are seeded separately,
    as in the benchmark's coarse workload."""
    rng = random.Random(f"coarse-shape-{shape}")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    perm = list(range(n))
    random.Random(f"coarse-labels-{shape}-{labelling}").shuffle(perm)
    g = pair_groupoid(n)
    q = 0
    for u, v in edges:
        q |= 1 << pair_index(n, perm[u], perm[v]) | 1 << pair_index(n, perm[v], perm[u])
    return g, Graphing(g, ArrowSet(g, q))


def random_arrow_set(rng: random.Random, g: Groupoid, density: float = 0.3) -> ArrowSet:
    mask = 0
    for a in range(g.n_arrows):
        if rng.random() < density:
            mask |= 1 << a
    return symmetrize(ArrowSet(g, mask))


def random_unit_set(rng: random.Random, g: Groupoid, density: float = 0.5) -> UnitSet:
    mask = 0
    for u in range(g.n_units):
        if rng.random() < density:
            mask |= 1 << u
    return UnitSet(g, mask)


def fiber_points(g: Groupoid, x: int) -> list[int]:
    """The arrows with range x, in id order: the points of the range fiber at x."""
    return list(iter_bits(g.by_rng[x]))


# -- oracles -----------------------------------------------------------------


def oracle_generated(g: Groupoid, k_set: ArrowSet, units: UnitSet) -> ArrowSet:
    """Word enumeration: all products of seed arrows and their inverses."""
    seed = k_set & arrows_within(g, units)
    seed = seed | seed.inverse()
    acc = seed
    while True:
        products = compose_sets(acc, seed)
        if products <= acc:
            return acc
        acc = acc | products


def brute_dad_search(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, d_max: int):
    """Exhaustive search over unit -> nonempty color subset assignments.

    Returns (d, cover) for the least d with a certified assignment, taking the
    lexicographically least assignment (per-unit subset masks in increasing
    order); None if every assignment fails up to d_max.
    """
    n = g.n_units
    for d in range(d_max + 1):
        subsets = list(range(1, 1 << (d + 1)))
        for assign in iproduct(subsets, repeat=n):
            masks = [0] * (d + 1)
            for u, chosen in enumerate(assign):
                for c in range(d + 1):
                    if chosen >> c & 1:
                        masks[c] |= 1 << u
            cover = Cover(g, tuple(UnitSet(g, m) for m in masks), g.all_units())
            witness = kl_dad_check(g, k_set, l_set, cover)
            if witness.certified:
                return d, cover
    return None


def brute_ef_exists(e_gauge, f_gauge, n_points: int, d_max: int) -> bool:
    """Exhaustive feasibility of a d_max decomposition over family partitions."""
    for d in range(d_max + 1):
        for assign in iproduct(range(d + 1), repeat=n_points):
            ok = True
            for fam in range(d + 1):
                pts = [p for p in range(n_points) if assign[p] == fam]
                remaining = set(pts)
                while remaining and ok:
                    comp = {remaining.pop()}
                    frontier = set(comp)
                    while frontier:
                        nxt = set()
                        for p in frontier:
                            for q in list(remaining):
                                if e_gauge.related(p, q):
                                    nxt.add(q)
                                    remaining.discard(q)
                        comp |= nxt
                        frontier = nxt
                    for p in comp:
                        for q in comp:
                            if not f_gauge.related(p, q):
                                ok = False
                if not ok:
                    break
            if ok:
                return True
    return False


def naive_compact_order(n, adj):
    """``grpdim._search.compact_order`` from its definition: every step
    recomputes the frontier for each candidate."""
    nbrs = [adj[v] & ~(1 << v) for v in range(n)]

    def frontier(placed):
        return sum(1 for u in iter_bits(placed) if nbrs[u] & ~placed)

    order, pos, placed = [], {}, 0
    while len(order) < n:
        cands = [v for v in range(n) if not placed >> v & 1 and nbrs[v] & placed]
        if cands:
            v = min(cands, key=lambda v: (
                frontier(placed | 1 << v) - frontier(placed),
                min(pos[u] for u in iter_bits(nbrs[v] & placed)),
                v,
            ))
        else:
            v = min((v for v in range(n) if not placed >> v & 1),
                    key=lambda v: (nbrs[v].bit_count(), v))
        pos[v] = len(order)
        order.append(v)
        placed |= 1 << v
    return order


def full_try_add(state, item, adj, ok):
    """Class ``state`` with ``item`` added, or None: every component is kept,
    in the order of its last change (the merged one goes last)."""
    items, comps = state
    nbr = adj[item] & items
    new_mask = 1 << item
    new_common = ok[item]
    rest = []
    for cmask, ccommon in comps:
        if cmask & nbr:
            new_mask |= cmask
            new_common &= ccommon
        else:
            rest.append((cmask, ccommon))
    if new_mask & ~new_common:
        return None
    rest.append((new_mask, new_common))
    return (items | 1 << item, tuple(rest))


def recursive_partition_search(n_items, n_classes, adj, ok):
    """Exact partition search by plain recursion, with no record of failures.

    The search order and returned per-class states of exact
    ``grpdim._search.partition_search`` (items in increasing id), with one
    recursion level per item, every component carried and every subtree
    searched: the oracle for that engine.
    """
    empty = (0, ())

    def dfs(item, states, used):
        if item == n_items:
            return states
        limit = min(used + 1, n_classes)
        for c in range(limit):
            ns = full_try_add(states[c], item, adj, ok)
            if ns is None:
                continue
            nxt = list(states)
            nxt[c] = ns
            res = dfs(item + 1, nxt, used + 1 if c == used else used)
            if res is not None:
                return res
        return None

    return dfs(0, [empty] * n_classes, 0)


def first_fit_search(order, n_classes, empty, try_add):
    """Greedy assignment by one first-fit pass: each item of ``order`` goes
    to the first of the ``n_classes`` classes that takes it, else None.

    The loop greedy mode of ``grpdim._search.class_search`` used to run: the
    oracle for that mode.
    """
    states = [empty] * n_classes
    for item in order:
        for c in range(n_classes):
            ns = try_add(states[c], item)
            if ns is not None:
                states[c] = ns
                break
        else:
            return None
    return states


def recursive_generic_search(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, d: int):
    """Exact closure-tracking search by plain recursion: the unit masks of
    the d+1 classes, or None.

    The same search order and class states as exact
    ``grpdim.dad._generic_search``, with one recursion level per unit: the
    oracle for that engine.
    """
    n = g.n_units
    k_mask, l_mask = k_set.mask, l_set.mask

    def dfs(u, states, used):
        if u == n:
            return states
        limit = min(used + 1, d + 1)
        for c in range(limit):
            ns = _generic_try_add(g, k_mask, l_mask, states[c], u)
            if ns is None:
                continue
            nxt = list(states)
            nxt[c] = ns
            res = dfs(u + 1, nxt, used + 1 if c == used else used)
            if res is not None:
                return res
        return None

    res = dfs(0, [(0, 0, 0, 0)] * (d + 1), 0)
    return None if res is None else [s[0] for s in res]


def brute_gauge(g: Groupoid, k_set: ArrowSet) -> Gauge:
    """The gauge of a window by its definition: p ~ q when they share a range
    and ``inv(p) q`` lies in the window, or p == q.  The oracle for
    ``gauge_from`` and for the window rows that certificates read.
    """
    rel = []
    for p in range(g.n_arrows):
        row = 1 << p
        for q in iter_bits(g.by_rng[g.rng[p]]):
            if g.compose(g.inv[p], q) in k_set:
                row |= 1 << q
        rel.append(row)
    return Gauge(g.n_arrows, rel)


def pairwise_ef_asdim_check(e_gauge, f_gauge, families) -> bool:
    """(E,F)-decomposition check over every pair of members of each family.

    Cover of all points, F-bounded members, and E-separated members within
    each family; empty members are dropped.  The oracle for
    ``grpdim.coarse.ef_asdim_check``.
    """
    n = e_gauge.n
    covered = 0
    for fam in families:
        members = [m if isinstance(m, int) else mask_of(m) for m in fam]
        members = [m for m in members if m]
        for mask in members:
            covered |= mask
            for p in iter_bits(mask):
                if mask & ~f_gauge.rel[p]:
                    return False
        for i, m1 in enumerate(members):
            for m2 in members[i + 1 :]:
                for p in iter_bits(m1):
                    if e_gauge.rel[p] & m2:
                        return False
    return covered == (1 << n) - 1


def first_fit_dad_blocks(g: Groupoid, witness) -> list[tuple[frozenset[int], ...]]:
    """The families of ``dad_to_asdim`` built first-fit, with one ``compose``
    call per pair of points: the oracle for that block builder.

    In fiber x, an arrow with source in class i joins the first block whose
    first arrow b has ``inv(b) a`` in the generated subgroupoid H_i.
    """
    families = []
    for cls, h_i in zip(witness.cover.classes, witness.generated_per_class):
        members = []
        src_mask = 0
        for u in cls:
            src_mask |= g.by_src[u]
        for x in range(g.n_units):
            blocks: list[list[int]] = []
            for a in iter_bits(g.by_rng[x] & src_mask):
                for block in blocks:
                    if g.compose(g.inv[block[0]], a) in h_i:
                        block.append(a)
                        break
                else:
                    blocks.append([a])
            members.extend(frozenset(b) for b in blocks)
        families.append(tuple(members))
    return families


def pairwise_tree_bounds(g: Groupoid, graphing: Graphing, n: int) -> TreeCoverResult:
    """``treeable_cover`` by exhaustive pairwise word lengths: every pair of
    arrows in a class for its diameter, every pair of arrows in two classes
    of one family and fiber for their separation, and the (E,F) check at
    E = ball(N-1), F = ball(4N) on gauges built from the definition.  The
    oracle for the forest-distance certificate.
    """
    def dist(a, b):
        return graphing.length(g.compose(g.inv[a], b))

    def past_vertex(a, t):
        # the source of the fiber arrow t from rng(a) and |a| - t from src(a)
        x, length = g.rng[a], graphing.length(a)
        return next(g.src[b] for b in iter_bits(g.by_rng[x])
                    if graphing.length(b) == t and dist(b, a) == length - t)

    classes: dict[tuple, list[int]] = {}
    for a in range(g.n_arrows):
        length = graphing.length(a)
        ks = {length // n}
        if length % n == 0 and length > 0:
            ks.add(length // n - 1)
        for k in ks:
            past = past_vertex(a, n * (k - 1)) if k >= 2 else -1
            classes.setdefault((k, g.rng[a], past), []).append(a)
    keys = sorted(classes)

    diameters = {
        key: max((dist(a, b) for a in members for b in members), default=0)
        for key, members in classes.items()
    }
    separations, same_annulus = [], []
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1 :]:
            if k1[0] % 2 != k2[0] % 2 or k1[1] != k2[1]:
                continue
            best = min(dist(a, b) for a in classes[k1] for b in classes[k2])
            separations.append(best)
            if k1[0] == k2[0]:
                same_annulus.append(best)
    families = tuple(
        tuple(frozenset(classes[key]) for key in keys if key[0] % 2 == parity)
        for parity in (0, 1)
    )
    max_diameter = max(diameters.values())
    min_separation = min(separations, default=-1)
    min_same_annulus = min(same_annulus, default=-1)
    e_gauge = brute_gauge(g, graphing.ball(n - 1))
    f_gauge = brute_gauge(g, graphing.ball(4 * n))
    certified = (
        max_diameter <= 4 * n
        and min_separation not in range(n)
        and min_same_annulus not in range(2 * n)
        and ef_asdim_check(e_gauge, f_gauge, families)
    )
    rows = tuple(
        (key[0] % 2, idx, key[0], key[1], len(classes[key]), diameters[key])
        for idx, key in enumerate(keys)
    )
    return TreeCoverResult(
        families, rows, max_diameter, min_separation, min_same_annulus, n, certified
    )


def closure_h_fibers(g: Groupoid, y: UnitSet, k_set: ArrowSet) -> dict[int, list[int]]:
    """H-fibers through the whole generated subgroupoid: H = ``generated(K, Y)``
    by closure over every arrow, its orbits by union-find, and at the least
    unit of each orbit in Y the arrows of H with that range.  The oracle for
    ``grpdim.coarse._h_fibers``.
    """
    h_arrows = generated(k_set, y)
    uf = _UnionFind(g.n_units)
    for a in h_arrows:
        uf.union(g.src[a], g.rng[a])
    minima: dict[int, int] = {}
    for u in y:
        minima.setdefault(uf.find(u), u)
    return {
        x: list(iter_bits(g.by_rng[x] & h_arrows.mask)) for x in sorted(minima.values())
    }
