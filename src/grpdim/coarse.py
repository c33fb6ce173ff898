"""The canonical coarse structure on arrows, (E,F)-decompositions, treeable
covers, and the two bridges between dad witnesses and coarse decompositions.

Points of the coarse spaces here are arrows of a groupoid; a window set
relates two arrows in the same range fiber when the quotient ``g^-1 h`` lies
in it.  Arrows in different fibers are never related.  Certificates read the
relation as window rows in arrow ids; gauges index it densely for the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._search import compact_order, partition_search
from .covers import Cover
from .dad import DadWitness, kl_dad_check
from .groupoid import (
    ArrowSet,
    Groupoid,
    GroupoidError,
    UnitSet,
    _UnionFind,
    _same_owner,
    arrows_within,
    compose_sets,
    generated,  # unused here; perfbench's tracer test finds it in this namespace
    is_principal,
    iter_bits,
    mask_of,
    restrict,
    symmetrize,
    unit_graph,
)


class CoarseError(GroupoidError):
    pass


class Gauge:
    """A symmetric reflexive relation on points 0..n-1, one bitmask per point."""

    __slots__ = ("n", "rel")

    def __init__(self, n: int, rel: Sequence[int]):
        if len(rel) != n:
            raise CoarseError("gauge relation must list one mask per point")
        self.n = n
        self.rel = tuple(rel)
        for p, mask in enumerate(self.rel):
            if mask >> n:
                raise CoarseError(f"gauge mask of point {p} out of range")
            if not mask >> p & 1:
                raise CoarseError(f"gauge is not reflexive at point {p}")
        for p, mask in enumerate(self.rel):
            for q in iter_bits(mask):
                if not self.rel[q] >> p & 1:
                    raise CoarseError(f"gauge is not symmetric at ({p},{q})")

    @classmethod
    def diagonal(cls, n: int) -> "Gauge":
        return cls(n, [1 << p for p in range(n)])

    def related(self, p: int, q: int) -> bool:
        return bool(self.rel[p] >> q & 1)

    def __le__(self, other: "Gauge") -> bool:
        if self.n != other.n:
            raise CoarseError("gauges live on different point sets")
        return all(a & ~b == 0 for a, b in zip(self.rel, other.rel))

    def __eq__(self, other) -> bool:
        return isinstance(other, Gauge) and self.n == other.n and self.rel == other.rel

    def __hash__(self):
        return hash((self.n, self.rel))

    def __repr__(self):
        pairs = sum(m.bit_count() for m in self.rel)
        return f"Gauge(n={self.n}, pairs={pairs})"


def _window_rows(g: Groupoid, points: int, window: ArrowSet) -> dict[int, int]:
    """For each arrow a of the mask ``points``, the mask of a and the arrows
    ``a q`` with q in the window: a's row of ``gauge_from(g, window)``, in
    arrow ids.  Every row lies in a's range fiber.
    """
    _same_owner(g, window.owner)
    m = g.n_arrows
    comp, by_rng, src = g.comp, g.by_rng, g.src
    rows = {}
    for a in iter_bits(points):
        base = a * m
        acc = 1 << a
        for q in iter_bits(by_rng[src[a]] & window.mask):
            acc |= 1 << comp[base + q]
        rows[a] = acc
    return rows


def gauge_from(g: Groupoid, k_set: ArrowSet) -> Gauge:
    """Pairs of same-fiber arrows whose quotient lies in the window, as a Gauge.

    Certificates read the same relation as window rows in arrow ids and build
    no Gauge; this dense form serves the search and the public API.
    """
    rows = _window_rows(g, g.arrows_mask, k_set)
    if not k_set.is_oc_normal():
        raise CoarseError("gauge windows must be symmetric and contain every unit")
    return Gauge(g.n_arrows, list(rows.values()))


def fiber_gauge(g: Groupoid, points: Sequence[int], k_set: ArrowSet) -> Gauge:
    """Gauge induced by a window on an explicit list of arrows.

    Point i is related to point j when ``points[j] = points[i] q`` for an arrow
    q of the window, so arrows in different range fibers are never related.
    The search needs these dense indices; certificates read window rows in
    arrow ids.
    """
    index = {a: i for i, a in enumerate(points)}
    mask = mask_of(points)
    rows = _window_rows(g, mask, k_set)
    return Gauge(
        len(points), [mask_of(index[b] for b in iter_bits(rows[a] & mask)) for a in points]
    )


# -- (E,F)-asdim -----------------------------------------------------------


def _normalize_families(n: int, families) -> list[list[int]]:
    out = []
    for fam in families:
        members = []
        for member in fam:
            mask = member if isinstance(member, int) else mask_of(member)
            if mask >> n:
                raise CoarseError("family member exceeds the point range")
            if mask:
                members.append(mask)
        out.append(members)
    return out


def _ef_violation(e_rows, f_rows, families, points: int) -> "tuple | None":
    """The first (family, member, point, kind) that keeps families of member
    masks from (E,F)-decomposing the mask ``points``; None if there is none.

    Rows are indexed by point (``Gauge.rel`` or ``_window_rows``).  Kind
    "cover" (no family or member) is the least point missed or stray.  Then
    one pass per family: each point's E-row is tested against the union of
    the earlier members ("E"), which covers every pair of members because E
    is symmetric, and overlapping members because E is reflexive; and each
    member against the F-rows of its points ("F"), unless ``f_rows`` is None
    because the caller has bounded the members itself.
    """
    covered = 0
    for members in families:
        for mask in members:
            covered |= mask
    if covered != points:
        missed = covered ^ points
        return None, None, (missed & -missed).bit_length() - 1, "cover"
    for i, members in enumerate(families):
        earlier = 0
        for j, mask in enumerate(members):
            for p in iter_bits(mask):
                if e_rows[p] & earlier:
                    return i, j, p, "E"
                if f_rows is not None and mask & ~f_rows[p]:
                    return i, j, p, "F"
            earlier |= mask
    return None


def _decomposes_arrows(g: Groupoid, e_window: ArrowSet, f_window: ArrowSet, families) -> bool:
    """``_ef_violation`` on all arrows, with the window rows of E and F."""
    every = g.arrows_mask
    e_rows, f_rows = (_window_rows(g, every, w) for w in (e_window, f_window))
    masks = [[mask_of(m) for m in fam] for fam in families]
    return _ef_violation(e_rows, f_rows, masks, every) is None


def ef_asdim_check(e_gauge: Gauge, f_gauge: Gauge, families) -> bool:
    """Cover + F-bounded members + pairwise E-separated families."""
    if e_gauge.n != f_gauge.n:
        raise CoarseError("E and F live on different point sets")
    n = e_gauge.n
    fams = _normalize_families(n, families)
    return _ef_violation(e_gauge.rel, f_gauge.rel, fams, (1 << n) - 1) is None


def ef_asdim_search(
    e_gauge: Gauge, f_gauge: Gauge, d_max: int, mode: str = "exact"
) -> "list[list[frozenset[int]]] | None":
    """Decompose the points into up to d_max+1 E-separated families of F-bounded members.

    Members are the E-components of each family, which is the finest (hence
    easiest to bound) choice; partitions suffice because dropping a point from
    a family never breaks separation or boundedness.  Exact mode is complete:
    it refutes each d in ``compact_order`` of E, computed once per search,
    and at the least feasible d returns the lexicographically least
    partition in point order.  Greedy is first-fit in point order, and its
    None refutes nothing.
    """
    if d_max < 0:
        raise CoarseError("d_max must be nonnegative")
    n = e_gauge.n
    if f_gauge.n != n:
        raise CoarseError("E and F live on different point sets")
    if mode not in ("exact", "greedy"):
        raise CoarseError(f"unknown search mode: {mode!r}")
    self_free = [e_gauge.rel[p] & ~(1 << p) for p in range(n)]
    ok = list(f_gauge.rel)
    order = compact_order(n, self_free) if mode == "exact" else None
    for d in range(d_max + 1):
        states = partition_search(n, d + 1, self_free, ok, mode, order)
        if states is not None:
            families = [
                sorted((frozenset(iter_bits(cmask)) for cmask, _ in comps), key=min)
                for _, comps in states
            ]
            if not ef_asdim_check(e_gauge, f_gauge, families):
                raise RuntimeError("search produced an invalid decomposition")
            return families
    return None


# -- graphings and treeable covers ------------------------------------------


class Graphing:
    """A symmetric generating arrow set off the units, with word-length data.

    Treeability (unique reduced factorizations) holds exactly when the unit
    multigraph induced by the generator pairs is a forest; the check records
    the offending arrow otherwise.
    """

    def __init__(self, owner: Groupoid, q_set: ArrowSet):
        _same_owner(owner, q_set.owner)
        if q_set.mask & owner.units_mask:
            raise CoarseError("graphing must not contain unit arrows")
        if q_set.inverse() != q_set:
            raise CoarseError("graphing must be symmetric")
        self.owner = owner
        self.q = q_set
        self._balls: list[ArrowSet] = [ArrowSet(owner, owner.units_mask)]
        self.lengths = self._compute_lengths()
        self.treeable, self.failure = self._check_treeable()
        self._paths: dict[int, list[int]] = {}

    def _compute_lengths(self) -> tuple[int, ...]:
        g = self.owner
        lengths = [-1] * g.n_arrows
        level = 0
        current = self._balls[0]
        for a in iter_bits(current.mask):
            lengths[a] = 0
        step = symmetrize(self.q)
        while True:
            nxt = compose_sets(step, current)
            if nxt.mask == current.mask:
                break
            level += 1
            for a in iter_bits(nxt.mask & ~current.mask):
                lengths[a] = level
            current = nxt
            self._balls.append(current)
        if current.mask != g.arrows_mask:
            raise CoarseError("graphing does not generate the groupoid")
        return tuple(lengths)

    def _check_treeable(self):
        g = self.owner
        uf = _UnionFind(g.n_units)
        edge_of: dict[tuple[int, int], int] = {}  # unit pair -> min(a, inv a)
        for a in iter_bits(self.q.mask):
            u, v = g.src[a], g.rng[a]
            if u == v:
                return False, f"generator {a} is a loop at unit {u}"
            pair = (min(u, v), max(u, v))
            rep = min(a, g.inv[a])
            if pair in edge_of:
                if edge_of[pair] == rep:
                    continue
                return False, f"parallel generators between units {pair[0]} and {pair[1]}"
            if uf.find(u) == uf.find(v):
                return False, f"generator {a} closes a cycle"
            uf.union(u, v)
            edge_of[pair] = rep
        return True, None

    def ball(self, r: int) -> ArrowSet:
        """All arrows of word length at most r."""
        if r < 0:
            raise CoarseError("ball radius must be nonnegative")
        idx = min(r, len(self._balls) - 1)
        return self._balls[idx]

    def length(self, a: int) -> int:
        return self.lengths[a]

    def path_vertex(self, a: int, t: int) -> int:
        """The t-th unit on the unique reduced path from rng(a) to src(a).

        The path has |a| edges (word length is forest distance; see
        ``treeable_cover``), so the unit is |a| - t steps from src(a) toward
        rng(a) in the BFS tree rooted at rng(a).
        """
        if not self.treeable:
            raise CoarseError("paths require a treeable graphing")
        g = self.owner
        root = g.rng[a]
        parents = self._paths.get(root)
        if parents is None:
            adj = unit_graph(g, self.q)
            parents = [-1] * g.n_units
            parents[root] = root
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in iter_bits(adj[u]):
                        if parents[v] == -1:
                            parents[v] = u
                            nxt.append(v)
                frontier = nxt
            self._paths[root] = parents
        if not 0 <= t <= self.lengths[a]:
            raise CoarseError(f"path position {t} out of range for arrow {a}")
        v = g.src[a]
        for _ in range(self.lengths[a] - t):
            v = parents[v]
        return v


@dataclass(frozen=True)
class TreeCoverResult:
    """Even/odd annuli decomposition with its certificate.

    Rows carry (family, class id, annulus, fiber, size, diameter) per class.
    """

    families: tuple[tuple[frozenset[int], ...], ...]
    rows: tuple[tuple[int, int, int, int, int, int], ...]
    max_diameter: int
    min_separation: int
    min_same_annulus_separation: int
    scale: int
    certified: bool


def _forest_gap(adj: Sequence[int], start: int, target: int, limit: "int | None") -> "int | None":
    """The least number of edges from a unit of the mask ``start`` to one of
    ``target`` in the graph ``adj``, by bitmask BFS; None if it is not below
    ``limit`` (None: no limit) or ``target`` is out of reach."""
    if not target:
        return None
    seen = frontier = start
    gap = 0
    while not frontier & target:
        gap += 1
        if not frontier or gap == limit:
            return None
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~seen
        seen |= frontier
    return gap


def treeable_cover(g: Groupoid, graphing: Graphing, n_scale: int) -> TreeCoverResult:
    """Split annuli of width N into same-past classes; certify bounds exactly.

    Classes are fiberwise.  The certificate checks that every class has
    diameter <= 4N, that distinct classes in one family are at distance >= N
    (so the families are gauge(ball(N-1))-separated), and that distinct
    classes inside one annulus are at distance >= 2N.  Diameters are
    pairwise word lengths inside each class; since ball(4N) is the set of
    arrows of length <= 4N, they are also the F-boundedness check at
    F = ball(4N).  The cover and E-separation at E = ball(N-1) are re-checked
    on window rows in arrow ids.

    Separations are forest distances, by two facts about a treeable graphing
    Q (its unit graph is a forest, with one generator and its inverse per
    edge, and Q generates g):

    1. g is principal.  Every arrow is a word in Q, which walks the forest;
       a word whose walk is closed backtracks somewhere, at a step ``q^-1 q``
       (the edge has no other generator) that cancels to a unit, so the
       word reduces to the unit at its base.  Hence every arrow with equal
       source and range is a unit, and two arrows with the same ends are
       equal (their quotient is such an arrow).
    2. For a, b in one range fiber, |a^-1 b| is the forest distance from
       src a to src b.  A word of length l for a^-1 b walks l edges from
       src b to src a, so |a^-1 b| is at least the distance; the word along
       the forest path is an arrow with those ends, so it is a^-1 b by 1.

    So a class's distance to the other classes of its family (or annulus) in
    its fiber is the first layer of a BFS from its source units that meets
    their source units.  A BFS stops once it reaches the least separation
    found so far, which it cannot improve.
    """
    if graphing.owner is not g:
        raise CoarseError("graphing belongs to a different groupoid")
    if not graphing.treeable:
        raise CoarseError(f"graphing is not treeable: {graphing.failure}")
    if n_scale < 1:
        raise CoarseError("annulus width must be positive")
    n = n_scale
    classes: dict[tuple, list[int]] = {}
    for a in range(g.n_arrows):
        length = graphing.length(a)
        ks = {length // n}
        if length % n == 0 and length > 0:
            ks.add(length // n - 1)
        for k in ks:
            if k >= 2:
                key = (k, g.rng[a], graphing.path_vertex(a, n * (k - 1)))
            else:
                key = (k, g.rng[a], -1)
            classes.setdefault(key, []).append(a)

    family_members: list[list[frozenset[int]]] = [[], []]
    keys = sorted(classes)
    for key in keys:
        family_members[key[0] % 2].append(frozenset(classes[key]))

    lengths, comp, inv, m = graphing.lengths, g.comp, g.inv, g.n_arrows
    diameters = {
        key: max(lengths[comp[inv[a] * m + b]] for i, a in enumerate(members) for b in members[i:])
        for key, members in classes.items()
    }
    max_diameter = max(diameters.values())

    sources = {key: mask_of(g.src[a] for a in members) for key, members in classes.items()}
    family_sources: dict[tuple[int, int], int] = {}  # (parity, fiber) -> source units
    annulus_sources: dict[tuple[int, int], int] = {}  # (annulus, fiber) -> source units
    for (k, x, _), mask in sources.items():
        family_sources[k % 2, x] = family_sources.get((k % 2, x), 0) | mask
        annulus_sources[k, x] = annulus_sources.get((k, x), 0) | mask
    adj = unit_graph(g, graphing.q)
    min_separation = None
    min_same_annulus = None
    # a family's classes in one fiber are disjoint and g is principal, so
    # their source masks are disjoint too: "& ~mask" leaves the other classes
    for (k, x, _), mask in sources.items():
        gap = _forest_gap(adj, mask, family_sources[k % 2, x] & ~mask, min_separation)
        if gap is not None:
            min_separation = gap
        gap = _forest_gap(adj, mask, annulus_sources[k, x] & ~mask, min_same_annulus)
        if gap is not None:
            min_same_annulus = gap

    e_rows = _window_rows(g, g.arrows_mask, graphing.ball(n - 1))
    masks = [[mask_of(member) for member in fam] for fam in family_members]
    certified = (
        max_diameter <= 4 * n
        and (min_separation is None or min_separation >= n)
        and (min_same_annulus is None or min_same_annulus >= 2 * n)
        and _ef_violation(e_rows, None, masks, g.arrows_mask) is None
    )

    rows = []
    for idx, key in enumerate(keys):
        members = classes[key]
        rows.append((key[0] % 2, idx, key[0], key[1], len(members), diameters[key]))
    return TreeCoverResult(
        families=tuple(tuple(f) for f in family_members),
        rows=tuple(rows),
        max_diameter=max_diameter,
        min_separation=min_separation if min_separation is not None else -1,
        min_same_annulus_separation=(
            min_same_annulus if min_same_annulus is not None else -1
        ),
        scale=n,
        certified=certified,
    )


# -- dad -> asdim -----------------------------------------------------------


@dataclass(frozen=True)
class AsdimBridge:
    """Decomposition of the arrow space induced by a dad witness, certified on
    the window rows of ``e_window`` and ``f_window`` in arrow ids."""

    families: tuple[tuple[frozenset[int], ...], ...]
    e_window: ArrowSet
    f_window: ArrowSet
    certified: bool


def dad_to_asdim(g: Groupoid, witness: DadWitness) -> AsdimBridge:
    """Turn a certified witness into an (E,F)-decomposition of the arrow space.

    Family i collects, fiber by fiber, the classes of the relation
    "same range and quotient inside the generated subgroupoid H_i" on the
    arrows with source in class i: the window rows of H_i, in arrow ids.  E
    is the witness window, F the symmetrized union of the H_i; the result is
    re-verified on their window rows over all arrows.
    """
    _same_owner(g, witness.owner)
    if not witness.certified:
        raise CoarseError("bridge requires a certified witness")

    f_union = g.arrow_set()
    for gen in witness.generated_per_class:
        f_union = f_union | gen
    f_window = symmetrize(f_union)

    families = []
    for cls, h_i in zip(witness.cover.classes, witness.generated_per_class):
        members: list[frozenset[int]] = []
        src_mask = 0
        for u in cls:
            src_mask |= g.by_src[u]
        rows = _window_rows(g, src_mask, h_i)
        for x in range(g.n_units):
            for a in iter_bits(g.by_rng[x] & src_mask):
                row = rows[a]
                # the relation is a genuine equivalence on these arrows
                if any(rows.get(b) != row for b in iter_bits(row)):
                    raise CoarseError(
                        "relation is not transitive; generated class is not a subgroupoid"
                    )
                if row & -row == 1 << a:
                    members.append(frozenset(iter_bits(row)))
        families.append(tuple(members))

    return AsdimBridge(
        families=tuple(families),
        e_window=witness.K,
        f_window=f_window,
        certified=_decomposes_arrows(g, witness.K, f_window, families),
    )


# -- asdim -> dad -----------------------------------------------------------


def _h_fibers(g: Groupoid, y: UnitSet, k_set: ArrowSet) -> dict[int, list[int]]:
    """For the subgroupoid H generated by the window arrows inside Y and the
    units of Y, the points of its range fiber at the least unit of each
    H-orbit in Y, by unit.

    H is the set of words in those arrows and their inverses, so its fiber
    at x is the closure of {x} under right multiplication by them, and the
    H-orbit of x is the set of sources of that fiber.  Units of Y are taken
    in increasing order, and a unit that no earlier fiber reaches is the
    least of its orbit.  Only those fibers are walked, so the cost is their
    size times the window degree, on any groupoid, principal or not.
    """
    inside = (k_set & arrows_within(g, y)).mask
    steps = inside | ArrowSet(g, inside).inverse().mask
    m = g.n_arrows
    comp, src, by_rng = g.comp, g.src, g.by_rng
    fibers = {}
    reached = 0
    for x in y:
        if reached >> x & 1:
            continue
        fiber = 1 << x
        queue = [x]
        for h in queue:  # the queue grows while it is read
            base = h * m
            for s in iter_bits(by_rng[src[h]] & steps):
                c = comp[base + s]
                if not fiber >> c & 1:
                    fiber |= 1 << c
                    queue.append(c)
        for h in queue:
            reached |= 1 << src[h]
        fibers[x] = list(iter_bits(fiber))
    return fibers


def asdim_fiber_decompositions(
    g: Groupoid,
    y: UnitSet,
    k_set: ArrowSet,
    l_set: ArrowSet,
    d_max: int,
) -> dict[int, list[list[frozenset[int]]]]:
    """(E,F)-decompose each fundamental-domain fiber of the Y-confined subgroupoid.

    E and F are the fiber gauges of the window and the bound; the returned
    members carry absolute arrow ids, keyed by unit.
    """
    decomps = {}
    for x, points in _h_fibers(g, y, k_set).items():
        e_gauge = fiber_gauge(g, points, k_set)
        f_gauge = fiber_gauge(g, points, l_set)
        fams = ef_asdim_search(e_gauge, f_gauge, d_max)
        if fams is None:
            raise CoarseError(f"fiber at unit {x} admits no decomposition at d_max={d_max}")
        decomps[x] = [
            [frozenset(points[i] for i in member) for member in fam] for fam in fams
        ]
    return decomps


def asdim_to_dad(
    g: Groupoid,
    y: UnitSet,
    k_set: ArrowSet,
    l_set: ArrowSet,
    fiber_families: "dict[int, list[list[Iterable[int]]]]",
) -> DadWitness:
    """Rebuild a dad witness on the restriction to Y from fiberwise decompositions.

    For each fundamental-domain unit x of the subgroupoid generated by the
    window over Y, the supplied families must partition the H-fiber at x into
    window-separated blocks whose quotients stay inside the bound.  Class i
    collects the sources of the family-i arrows; the witness is re-certified
    on ``restrict(g, y)``, or on g itself when Y is every unit, where the
    restriction is the identity re-indexing.  Requires a principal groupoid.

    Once the fiber checks pass, the witness is certified.  A K-step k from u
    to v inside class i lies in H, so u and v share an H-orbit; the arrows
    h, h' from u and v to its least unit x are the only ones in the fiber at
    x, so both lie in family i.  Their quotient is k^-1, a K-arrow, so
    E-separation puts h and h' in one block.  Along a chain of K-steps every
    arrow to x stays in that block, so each arrow that class i generates is
    the quotient of two arrows of one block and lies in L by F-boundedness.
    A failed re-certification is therefore a broken invariant: it raises
    RuntimeError, not CoarseError.  The classes cover Y: H holds every unit
    of Y, so each unit of Y is the source of a point of the checked fiber at
    the least unit of its H-orbit.  The fiber checks read window rows of K
    and L in arrow ids, so both must be symmetric and contain every unit.
    """
    if not is_principal(g):
        raise CoarseError("the reconstruction requires a principal groupoid")
    _same_owner(g, y.owner)
    for name, window in (("window", k_set), ("bound", l_set)):
        _same_owner(g, window.owner)
        if not window.is_oc_normal():
            raise CoarseError(f"the {name} must be symmetric and contain every unit")
    fibers = _h_fibers(g, y, k_set)

    n_classes = 0
    checked: dict[int, list[list[int]]] = {}
    for x, points in fibers.items():
        fams = fiber_families.get(x)
        if fams is None:
            raise CoarseError(f"missing fiber decomposition at unit {x}")
        fiber_pts = mask_of(points)
        masks = [[mask_of(member) for member in fam] for fam in fams]
        total = 0
        for i, fam in enumerate(masks):
            for j, member in enumerate(fam):
                if member & ~fiber_pts:
                    raise CoarseError(
                        f"fiber {x}, family {i}, block {j} leaves the H-fiber"
                    )
                if member & total:
                    raise CoarseError(f"fiber {x} blocks overlap at family {i}")
                total |= member
        if total != fiber_pts:
            raise CoarseError(f"fiber {x} blocks do not partition the H-fiber")
        bad = _ef_violation(
            _window_rows(g, fiber_pts, k_set), _window_rows(g, fiber_pts, l_set), masks, fiber_pts
        )
        if bad is not None:
            i, j, a, kind = bad
            what = (
                "is not window-separated from an earlier block"
                if kind == "E"
                else "has a quotient with its block that escapes the bound"
            )
            raise CoarseError(f"fiber {x}, family {i}, block {j}: arrow {a} {what}")
        checked[x] = masks
        n_classes = max(n_classes, len(masks))

    class_units = [0] * n_classes
    for masks in checked.values():
        for i, fam in enumerate(masks):
            for member in fam:
                for a in iter_bits(member):
                    class_units[i] |= 1 << g.src[a]

    if y.mask == g.units_mask:  # restrict(g, y) would re-index nothing
        gy, k_local, l_local = g, k_set, l_set
        classes = tuple(UnitSet(g, mask) for mask in class_units)
    else:
        gy = restrict(g, y)
        k_local = gy.from_parent_arrows(k_set)
        l_local = gy.from_parent_arrows(l_set)
        classes = tuple(gy.from_parent_units(UnitSet(g, mask)) for mask in class_units)
    witness = kl_dad_check(gy, k_local, l_local, Cover(gy, classes, gy.all_units()))
    if not witness.certified:
        raise RuntimeError("fiber decompositions passed their checks but the witness failed")
    return witness
