"""Shared instance generators and brute-force oracles for the test suite.

The oracles here are deliberately dumb: word enumeration by repeated set
products, and exhaustive enumeration of color assignments.  They are the
reference against which the engine's generated subgroupoids and searches
are judged.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iproduct

import pytest

from grpdim import (
    ArrowSet,
    BuilderError,
    Cover,
    CoverError,
    Graphing,
    Groupoid,
    Tables,
    TreeCoverResult,
    UnitSet,
    arrows_within,
    compose_sets,
    ef_asdim_check,
    fiber_gauge,
    from_triples,
    gauge_from,
    kl_dad_check,
    pair_groupoid,
    pair_index,
    symmetrize,
    tree_window,
    triples,
)
from grpdim.coarse import _ef_violation
from grpdim.groupoid import iter_bits, mask_of


# -- generators --------------------------------------------------------------


class Gauge(dict):
    """A relation on points 0..n-1 as rows, point -> mask of related points:
    the form ``ef_asdim_search`` and ``ef_asdim_check`` read, from a list."""

    def __init__(self, n: int, rel):
        assert len(rel) == n
        super().__init__(enumerate(rel))

    @classmethod
    def diagonal(cls, n: int) -> "Gauge":
        return cls(n, [1 << p for p in range(n)])


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
    comp = []
    for c, amap in zip(components, arrow_maps):
        for a, b, val in triples(c):
            comp.append((amap[a], amap[b], amap[val]))
    return from_triples(n, src, rng, inv, comp)


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
    comp = []
    for (i, j), a in index.items():
        for k in range(n_units):
            if (j, k) in index and (i, k) in index:
                comp.append((a, index[(j, k)], index[(i, k)]))
    return from_triples(n_units, src, rng, inv, comp)


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
    """Random mix of pair blocks and cyclic isotropy components, at least one."""
    from grpdim import action_groupoid, cyclic_table, rotation_perms, trivial_perms

    comps = []
    arrows = 0
    while not comps or arrows < max_arrows - 30:
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
    comp = [(amap[a], amap[b], amap[c]) for a, b, c in triples(g)]
    return from_triples(n, src, rng, inv, comp), amap


def regauge(g: Groupoid, rng: random.Random) -> Groupoid:
    """The same groupoid, product for product, with one orbit X×H×X that has
    |X| > 1 and |H| > 1 re-gauged: the label h of (x, h, y) becomes
    φ_x·h·φ_y⁻¹, with φ = 1 at the orbit's least unit and random elsewhere,
    but not 1 at its second unit.  So some arrows from the least unit, the
    ones ``transversal`` picks, carry a non-identity label."""
    orbits = [x for x in range(g.n_units)
              if g.pos[x] == 0 and len(g.table[x]) > 1 and len(g.at[x][0]) > 1]
    x0 = rng.choice(orbits)
    tab = g.table[x0]
    inverse = [row.index(0) for row in tab]
    units = [g.src[a] for a in g.at[x0][0]]
    phi = dict.fromkeys(units, 0)
    for y in units[1:]:
        phi[y] = rng.randrange(len(tab))
    phi[units[1]] = rng.randrange(1, len(tab))
    label = list(g.label)
    for a in range(g.n_arrows):
        x, y = g.rng[a], g.src[a]
        if x in phi:
            label[a] = tab[tab[phi[x]][g.label[a]]][inverse[phi[y]]]
    out = Groupoid(g.n_units, g.src, g.rng, g.inv, label, g.table)
    assert list(triples(out)) == list(triples(g))
    return out


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
            cover = Cover(g, tuple(UnitSet(g, m) for m in masks))
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
                                if e_gauge[p] >> q & 1:
                                    nxt.add(q)
                                    remaining.discard(q)
                        comp |= nxt
                        frontier = nxt
                    for p in comp:
                        for q in comp:
                            if not f_gauge[p] >> q & 1:
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


def generated_inside(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet):
    """The class transition of the generic engine judged by word enumeration:
    a unit mask with unit u added, or None if ``oracle_generated`` of the
    grown class leaves L."""

    def try_add(units, u):
        units |= 1 << u
        return units if oracle_generated(g, k_set, UnitSet(g, units)) <= l_set else None

    return try_add


def recursive_generic_search(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, d: int):
    """Exact search over generated subgroupoids by plain recursion: the unit
    masks of the d+1 classes, or None.

    The same search order as exact ``grpdim.dad._generic_search``, with one
    recursion level per unit and each class judged by ``generated_inside``:
    the oracle for that engine.
    """
    n = g.n_units
    try_add = generated_inside(g, k_set, l_set)

    def dfs(u, states, used):
        if u == n:
            return states
        limit = min(used + 1, d + 1)
        for c in range(limit):
            ns = try_add(states[c], u)
            if ns is None:
                continue
            nxt = list(states)
            nxt[c] = ns
            res = dfs(u + 1, nxt, used + 1 if c == used else used)
            if res is not None:
                return res
        return None

    return dfs(0, [0] * (d + 1), 0)


def brute_gauge(g: Groupoid, k_set: ArrowSet) -> Gauge:
    """The gauge of a window by its definition: p ~ q when they share a range
    and ``inv(p) q`` lies in the window, or p == q.  The oracle for
    ``gauge_from``, the window rows that the search and certificates read.
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
    each family; empty members are dropped.  The points are the keys of the
    rows.  The oracle for ``grpdim.coarse.ef_asdim_check``.
    """
    covered = 0
    for fam in families:
        members = [m for m in map(mask_of, fam) if m]
        for mask in members:
            covered |= mask
            for p in iter_bits(mask):
                if mask & ~f_gauge[p]:
                    return False
        for i, m1 in enumerate(members):
            for m2 in members[i + 1 :]:
                for p in iter_bits(m1):
                    if e_gauge[p] & m2:
                        return False
    return covered == mask_of(e_gauge)


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


def whole_arrow_bridge(g: Groupoid, witness) -> tuple[tuple, bool]:
    """``dad_to_asdim``'s families and verdict over every arrow: the members
    built fiber by fiber from the window rows of each H_i, and the
    (E,F)-check on the rows of K and of F = the symmetrized union of the H_i
    over all arrows.  The oracle for the bridge built and certified on one
    fiber per orbit.
    """
    f_window = symmetrize(ArrowSet(g, mask_of(a for h in witness.generated_per_class for a in h)))
    families = []
    for cls, h_i in zip(witness.cover.classes, witness.generated_per_class):
        src_mask = mask_of(a for u in cls for a in iter_bits(g.by_src[u]))
        rows = fiber_gauge(g, src_mask, h_i)
        members = []
        for x in range(g.n_units):
            for a in iter_bits(g.by_rng[x] & src_mask):
                row = rows[a]
                assert all(rows[b] == row for b in iter_bits(row))
                if row & -row == 1 << a:
                    members.append(frozenset(iter_bits(row)))
        families.append(tuple(members))
    masks = [[mask_of(member) for member in fam] for fam in families]
    violation = _ef_violation(
        gauge_from(g, witness.K), gauge_from(g, f_window), masks, g.arrows_mask
    )
    return tuple(families), violation is None


def whole_arrow_separated_cover(g: Groupoid, window: ArrowSet, families) -> bool:
    """The cover and window-separation check of families of arrow masks on
    ``gauge_from`` over every arrow, as ``treeable_cover`` once ran it: the
    oracle for ``coarse._separated_cover``, which reads window rows on cells
    once per orbit (its members converted by ``fiber_cells``)."""
    return _ef_violation(gauge_from(g, window), None, families, g.arrows_mask) is None


def fiber_cells(g: Groupoid, families) -> list[list[list[int]]]:
    """Families of arrow masks as ``coarse._separated_cover`` takes them: for
    each range fiber x, each family's members cut to G^x, as cell masks (the
    arrow (x, h, y) is bit ``h * n_units + y``).  A member that spans several
    fibers becomes one part in each, and an empty one none."""
    n = g.n_units
    fibers = [[[] for _ in families] for _ in range(n)]
    for i, members in enumerate(families):
        for mask in members:
            parts: dict[int, int] = {}
            for a in iter_bits(mask):
                x = g.rng[a]
                parts[x] = parts.get(x, 0) | 1 << (g.label[a] * n + g.src[a])
            for x, part in parts.items():
                fibers[x][i].append(part)
    return fibers


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
    max_diameter = max(diameters.values(), default=0)
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


def assert_frozen_record(record, fields: tuple[str, ...]) -> None:
    """``record`` has exactly ``fields`` in order, reads each by name as by
    position, equals and hashes like its copy rebuilt from its fields, and
    takes no assignment, to a field or to a new name."""
    cls = type(record)
    assert cls._fields == fields
    assert tuple(getattr(record, name) for name in fields) == tuple(record)
    copy = cls(*record)
    assert copy is not record and copy == record and hash(copy) == hash(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


class UnionFind:
    """Disjoint sets of 0..n-1, each named by its least member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = sorted((self.find(x), self.find(y)))
        self.parent[ry] = rx


def union_find_orbits(g: Groupoid) -> list[list[int]]:
    """Orbits as the components of the graph that every arrow draws on the
    units, by union-find, in order of least unit.  The oracle for
    ``grpdim.groupoid.transversal``."""
    uf = UnionFind(g.n_units)
    for a in range(g.n_arrows):
        uf.union(g.src[a], g.rng[a])
    blocks: dict[int, list[int]] = {}
    for u in range(g.n_units):
        blocks.setdefault(uf.find(u), []).append(u)
    return [blocks[r] for r in sorted(blocks)]


def union_find_treeable(g: Groupoid, q_set: ArrowSet) -> tuple[bool, "str | None"]:
    """Treeability of the unit multigraph of the generators, by union-find
    over the generators in id order: the oracle for ``Graphing.treeable``
    and ``Graphing.failure``, messages included."""
    uf = UnionFind(g.n_units)
    edge_of: dict[tuple[int, int], int] = {}
    for a in q_set:
        u, v = g.src[a], g.rng[a]
        if u == v:
            return False, f"generator {a} is a loop at unit {u}"
        pair = (min(u, v), max(u, v))
        if pair in edge_of:
            if edge_of[pair] == min(a, g.inv[a]):
                continue
            return False, f"parallel generators between units {pair[0]} and {pair[1]}"
        if uf.find(u) == uf.find(v):
            return False, f"generator {a} closes a cycle"
        uf.union(u, v)
        edge_of[pair] = min(a, g.inv[a])
    return True, None


def closure_h_fibers(g: Groupoid, y: UnitSet, k_set: ArrowSet) -> dict[int, int]:
    """H-fibers through the whole generated subgroupoid: H =
    ``oracle_generated(g, K, Y)`` by word enumeration, its orbits by
    union-find, and at the least unit of each orbit in Y the mask of the
    arrows of H with that range.  The oracle for
    ``grpdim.groupoid.orbit_fibers``.
    """
    h_arrows = oracle_generated(g, k_set, y)
    uf = UnionFind(g.n_units)
    for a in h_arrows:
        uf.union(g.src[a], g.rng[a])
    minima: dict[int, int] = {}
    for u in y:
        minima.setdefault(uf.find(u), u)
    return {x: g.by_rng[x] & h_arrows.mask for x in sorted(minima.values())}


def hand_checked_action(table, perms) -> None:
    """The group and action axioms checked by hand, raising BuilderError at
    the first that fails: the oracle for ``action_groupoid``, which leaves
    these axioms to ``validate``."""
    k = len(table)
    if len(perms) != k:
        raise BuilderError("one permutation per group element required")
    n = len(perms[0]) if perms else 0
    for row in table:
        if len(row) != k or any(not 0 <= v < k for v in row):
            raise BuilderError("multiplication table is not square over the elements")
    for a in range(k):
        if table[0][a] != a or table[a][0] != a:
            raise BuilderError("element 0 is not an identity")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise BuilderError("multiplication table is not associative")
    inv_el = [None] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == 0 and table[b][a] == 0:
                inv_el[a] = b
    if any(v is None for v in inv_el):
        raise BuilderError("some element has no inverse")
    for p in perms:
        if sorted(p) != list(range(n)):
            raise BuilderError("action values are not permutations")
    if tuple(perms[0]) != tuple(range(n)):
        raise BuilderError("identity element must act trivially")
    for a in range(k):
        for b in range(k):
            if any(perms[table[a][b]][x] != perms[a][perms[b][x]] for x in range(n)):
                raise BuilderError("action is not a homomorphism")


def hand_checked_partial_action(spec) -> None:
    """The partial-action axioms checked by hand, raising BuilderError at the
    first that fails: the oracle for ``partial_action_groupoid``, which leaves
    these axioms to ``validate``.  The domain D_g is read as the image of
    θ_g.

    On a free action θ fixes the label of every arrow.  Where θ_g and θ_h
    agree at a point, the arrows (g, x) and (h, x) still differ, so the
    inverse and product entries that arrows read must also obey the group
    laws, which the last checks cover.
    """
    e = spec.identity
    pts = frozenset(range(spec.n_points))
    domains = {g_el: frozenset(th.values()) for g_el, th in spec.theta.items()}
    if domains.get(e) != pts:
        raise BuilderError("identity domain must be the full window")
    if dict(spec.theta.get(e, {})) != {x: x for x in range(spec.n_points)}:
        raise BuilderError("identity must act as the identity map")
    for g_el in spec.elements:
        gi = spec.inv.get(g_el)
        if gi not in spec.elements:
            raise BuilderError(f"inverse of {g_el!r} is not listed")
        dom = domains.get(g_el)
        th = dict(spec.theta.get(g_el, {}))
        if dom is None or gi not in domains:
            raise BuilderError(f"no domain for element {g_el!r}")
        if set(th.keys()) != set(domains[gi]):
            raise BuilderError(f"theta_{g_el} is not defined on the inverse domain")
        if sorted(th.values()) != sorted(dom):
            raise BuilderError(f"theta_{g_el} is not onto its domain")
        if len(set(th.values())) != len(th):
            raise BuilderError(f"theta_{g_el} is not injective")
        back = dict(spec.theta.get(gi, {}))
        if any(back.get(v) != k for k, v in th.items()):
            raise BuilderError(f"theta_{gi} is not inverse to theta_{g_el}")
    needed = []  # (g, h, x): the product g*h is read at the point x
    for g_el in spec.elements:
        for h_el in spec.elements:
            th_h = spec.theta[h_el]
            dom_gi = domains[spec.inv[g_el]]
            for x, hx in th_h.items():
                if hx not in dom_gi:
                    continue
                prod = spec.mul.get((g_el, h_el))
                if prod is None or prod not in spec.elements:
                    raise BuilderError(
                        f"extension axiom fails: product {g_el!r}*{h_el!r} "
                        f"is needed at point {x} but not listed"
                    )
                if x not in spec.theta[prod]:
                    raise BuilderError(
                        f"extension axiom fails: theta_{prod} undefined at {x}"
                    )
                if spec.theta[prod][x] != spec.theta[g_el][hx]:
                    raise BuilderError(
                        f"extension axiom fails: theta_{prod}({x}) != "
                        f"theta_{g_el}(theta_{h_el}({x}))"
                    )
                needed.append((g_el, h_el, x))
    mul, theta = spec.mul, spec.theta
    for g_el in spec.elements:
        if theta[g_el] and spec.inv[spec.inv[g_el]] != g_el:
            raise BuilderError(f"the inverse of the inverse of {g_el!r} is not {g_el!r}")
    for h_el, k_el, z in needed:
        hk = mul[h_el, k_el]
        if e in (h_el, k_el) and hk != (k_el if h_el == e else h_el):
            raise BuilderError(f"identity law fails: {h_el!r}*{k_el!r} = {hk!r}")
        if h_el == spec.inv[k_el] and hk != e:
            raise BuilderError(f"inverse law fails: {h_el!r}*{k_el!r} = {hk!r}")
        hy = theta[h_el][theta[k_el][z]]
        for g_el in spec.elements:
            if hy in theta[g_el] and mul[mul[g_el, h_el], k_el] != mul[g_el, hk]:
                raise BuilderError(
                    f"associative law fails: ({g_el!r}*{h_el!r})*{k_el!r} at point {z}"
                )


# -- the composition dict: the table layer the orbit normal form replaced ------


class DictGroupoid(Tables):
    """A groupoid stored as its composition dict, one entry per composable
    pair: the oracle for the orbit normal form's ``compose``.  The dict
    oracles below build it from triples written out by definition."""

    __slots__ = ()

    def compose_or_none(self, a: int, b: int) -> "int | None":
        return self.comp.get(a * self.n_arrows + b)

    def compose(self, a: int, b: int) -> int:
        return self.comp[a * self.n_arrows + b]


def tables_of(g: Groupoid) -> DictGroupoid:
    """The raw tables that ``g`` induces: every product ``triples`` reads
    through the normal form, as ``validate`` judges them."""
    return DictGroupoid(g.n_units, g.src, g.rng, g.inv, triples(g))


def products(g) -> list[tuple[int, int, int]]:
    """Every product (a, b, a*b) of a groupoid or a dict oracle, by ``compose``."""
    return [(a, b, g.compose(a, b))
            for a in range(g.n_arrows) for b in iter_bits(g.by_rng[g.src[a]])]


def same_groupoid(g: Groupoid, oracle: DictGroupoid) -> bool:
    """``g`` has the oracle's src, rng and inv, and ``compose`` agrees with
    the oracle's dict on every composable pair (the dict has no other)."""
    pairs = sum(s.bit_count() * r.bit_count() for s, r in zip(g.by_src, g.by_rng))
    m = g.n_arrows
    return (
        (g.n_units, g.src, g.rng, g.inv) == (oracle.n_units, oracle.src, oracle.rng, oracle.inv)
        and len(oracle.comp) == pairs
        and all(g.compose(*divmod(key, m)) == c for key, c in oracle.comp.items())
    )


def dict_restrict(g, units: list[int]) -> DictGroupoid:
    """``restrict`` with every product of the kept arrows written out."""
    unit_rank = {u: i for i, u in enumerate(units)}
    kept = [a for a in range(g.n_arrows) if g.src[a] in unit_rank and g.rng[a] in unit_rank]
    arrow_rank = {a: i for i, a in enumerate(kept)}
    comp = [(arrow_rank[a], arrow_rank[b], arrow_rank[c])
            for a, b, c in products(g) if a in arrow_rank and b in arrow_rank]
    return DictGroupoid(
        len(units),
        [unit_rank[g.src[a]] for a in kept],
        [unit_rank[g.rng[a]] for a in kept],
        [arrow_rank[g.inv[a]] for a in kept],
        comp,
    )


def dict_blowup(g, psi) -> DictGroupoid:
    """``blowup``'s groupoid with every product (x, a, y)(y, b, z) =
    (x, ab, z) written out."""
    fibers: list[list[int]] = [[] for _ in range(g.n_units)]
    for x, u in enumerate(psi):
        fibers[u].append(x)
    arrows = [(x, psi[x], x) for x in range(len(psi))]
    arrows += [(x, a, y) for a in range(g.n_arrows)
               for x in fibers[g.rng[a]] for y in fibers[g.src[a]]
               if not (a < g.n_units and x == y)]
    index = {t: i for i, t in enumerate(arrows)}
    right_of: list[list[tuple[int, int]]] = [[] for _ in range(g.n_arrows)]
    for a, b, c in products(g):
        right_of[a].append((b, c))
    comp = [(i, index[(y, b, z)], index[(x, c, z)])
            for i, (x, a, y) in enumerate(arrows)
            for b, c in right_of[a]
            for z in fibers[g.src[b]]]
    return DictGroupoid(
        len(psi),
        [y for _, _, y in arrows],
        [x for x, _, _ in arrows],
        [index[(y, g.inv[a], x)] for x, a, y in arrows],
        comp,
    )


def dict_partial_action(spec) -> DictGroupoid:
    """``partial_action_groupoid``'s groupoid with every product
    (g, θ_h(x))(h, x) = (gh, x) written out."""
    theta = spec.theta
    arrows = [(g_el, x) for g_el in spec.elements for x in sorted(theta[g_el])]
    index = {t: i for i, t in enumerate(arrows)}
    comp = [(index[g_el, theta[h_el][x]], b, index[spec.mul[g_el, h_el], x])
            for b, (h_el, x) in enumerate(arrows)
            for g_el in spec.elements if theta[h_el][x] in theta[g_el]]
    return DictGroupoid(
        spec.n_points,
        [x for _, x in arrows],
        [theta[g_el][x] for g_el, x in arrows],
        [index[spec.inv[g_el], theta[g_el][x]] for g_el, x in arrows],
        comp,
    )


def check_nfold_subfamilies(cover: Cover, n: int) -> bool:
    """Subfamily criterion: every (k+2-n)-subset of the classes covers every
    unit.  The oracle for the fold number: it is at least n exactly when
    this holds."""
    k = cover.k
    if n > k + 1:
        raise CoverError(f"n={n} exceeds the number of classes {k + 1}")
    units = cover.owner.units_mask
    for sub in combinations([c.mask for c in cover.classes], k + 2 - n):
        u = 0
        for m in sub:
            u |= m
        if units & ~u:
            return False
    return True


def unit_by_unit_shrink(cover: Cover, n: int) -> Cover:
    """The loop ``shrink_nfold`` replaced: units in increasing id, each
    dropped from its classes from the highest index first while more than n
    of them hold it.  The oracle for its ``at_least`` ladder."""
    masks = [c.mask for c in cover.classes]
    for x in range(cover.owner.n_units):
        bit = 1 << x
        count = sum(1 for m in masks if m & bit)
        for i in range(len(masks) - 1, -1, -1):
            if count <= n:
                break
            if masks[i] & bit:
                masks[i] &= ~bit
                count -= 1
    g = cover.owner
    return Cover(g, tuple(UnitSet(g, m) for m in masks))


def enumerated_residual(shrunk: Cover, saturated: "list[UnitSet]", size: int) -> UnitSet:
    """The residual class of ``ostrand_lift`` by the subset enumeration it
    replaced: the units inside every class V_j of some ``size``-set S of
    indices and clear of the saturations of the classes outside S."""
    g = shrunk.owner
    residual = 0
    idx = range(len(shrunk.classes))
    for subset in combinations(idx, size):
        inside = g.units_mask
        for j in subset:
            inside &= shrunk.classes[j].mask
        for i in idx:
            if i not in subset:
                inside &= ~saturated[i].mask
        residual |= inside
    return UnitSet(g, residual)


# -- set-up oracles: the builders and the ball growth they replaced -----------


def pair_index_groupoid(n: int) -> DictGroupoid:
    """``pair_groupoid`` with a ``pair_index`` call per table and comp entry:
    the dict oracle for its normal form."""
    if n < 1:
        raise BuilderError("pair groupoid needs at least one unit")
    m = n * n
    src = [0] * m
    rng = [0] * m
    inv = [0] * m
    for i in range(n):
        for j in range(n):
            a = pair_index(n, i, j)
            src[a] = j
            rng[a] = i
            inv[a] = pair_index(n, j, i)
    comp = (
        (a, pair_index(n, j, k), pair_index(n, i, k))
        for i in range(n)
        for j in range(n)
        for a in [pair_index(n, i, j)]
        for k in range(n)
    )
    return DictGroupoid(n, src, rng, inv, comp)


def tuple_keyed_product(gl, gr) -> tuple[DictGroupoid, dict]:
    """``product``'s groupoid and arrow pairing, with the pairing a dict keyed
    by ``(a, b)`` and every product (a1, b1)(a2, b2) = (a1 a2, b1 b2) written
    out: the dict oracle for its id table and normal form."""
    nl, nr = gl.n_units, gr.n_units
    ids: dict[tuple[int, int], int] = {}
    for u in range(nl):
        for v in range(nr):
            ids[(u, v)] = u * nr + v
    nxt = nl * nr
    for a in range(gl.n_arrows):
        for b in range(gr.n_arrows):
            if a < nl and b < nr:
                continue
            ids[(a, b)] = nxt
            nxt += 1
    m = nxt
    src = [0] * m
    rng = [0] * m
    inv = [0] * m
    for (a, b), i in ids.items():
        src[i] = gl.src[a] * nr + gr.src[b]
        rng[i] = gl.rng[a] * nr + gr.rng[b]
        inv[i] = ids[(gl.inv[a], gr.inv[b])]
    right = products(gr)
    comp = (
        (ids[(a1, b1)], ids[(a2, b2)], ids[(cl, cr)])
        for a1, a2, cl in products(gl)
        for b1, b2, cr in right
    )
    return DictGroupoid(nl * nr, src, rng, inv, comp), ids


def whole_powers(k_set: ArrowSet) -> list[ArrowSet]:
    """The power ladder recomposed whole at every level: K^0 = units and
    K^(j+1) = K·K^j, up to the first power that the next one repeats.  The
    oracle for ``groupoid._powers``, which grows the ladder from its frontier."""
    g = k_set.owner
    ladder = [ArrowSet(g, g.units_mask)]
    while (nxt := compose_sets(k_set, ladder[-1])) != ladder[-1]:
        ladder.append(nxt)
    return ladder


def generator_sets() -> list[tuple[Groupoid, ArrowSet]]:
    """Symmetric arrow sets off the units: the generators of path and binary
    tree windows and of random trees, then 80 random ones on random
    groupoids, isotropic ones among them, and on pair groupoids, mostly not
    treeable and some not generating."""
    cases = [tree_window(shape, size) for shape, size in
             [("path", n) for n in range(1, 13)] + [("binary", d) for d in range(4)]]
    cases += [random_tree(n, shape, 0) for n in (2, 7, 16) for shape in range(3)]
    inputs = [(g, graphing.q) for g, graphing in cases]
    rng = random.Random(20)
    for _ in range(80):
        g = random_groupoid(rng, max_arrows=60) if rng.random() < 0.5 else (
            pair_groupoid(rng.randint(1, 6)))
        q_set = random_arrow_set(rng, g, density=rng.choice((0.1, 0.3, 0.6)))
        inputs.append((g, ArrowSet(g, q_set.mask & ~g.units_mask)))
    return inputs


def ladder_windows() -> list[ArrowSet]:
    """Windows that hold every unit: symmetrize(q) of every generator set,
    then random windows with isotropy loops on random isotropic groupoids."""
    windows = [symmetrize(q_set) for _, q_set in generator_sets()]
    rng = random.Random(27)
    for _ in range(20):
        g = random_groupoid(rng, max_arrows=80)
        loops = ArrowSet(g, mask_of(a for a in range(g.n_units, g.n_arrows)
                                    if g.src[a] == g.rng[a]))
        windows.append(random_arrow_set(rng, g, 0.1) | (loops & random_arrow_set(rng, g, 0.5)))
    return windows
