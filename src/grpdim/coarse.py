"""The canonical coarse structure on arrows, (E,F)-decompositions, treeable
covers, and the two bridges between dad witnesses and coarse decompositions.

Points of the coarse spaces here are arrows of a groupoid; a window set
relates two arrows in the same range fiber when the quotient ``g^-1 h`` lies
in it.  Arrows in different fibers are never related.  The search,
``asdim_to_dad`` and the (E,F)-check read the relation as window rows in
arrow ids (``fiber_gauge``); ``dad_to_asdim`` and the tree cover's re-check
read the same rows on the cells of each orbit, which stand for the arrows of
each of its fibers (``_cell_rows``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from ._search import compact_order, partition_search
from .covers import Cover
from .dad import DadWitness, certify
from .graphing import CoarseError, Graphing  # perfbench's tracer patches coarse.Graphing
from .groupoid import (
    ArrowSet,
    Groupoid,
    UnitSet,
    _same_owner,
    generated,  # unused here; perfbench's tracer test finds it in this namespace
    is_principal,
    iter_bits,
    mask_of,
    orbit_fibers,
    restrict,
    symmetrize,
    translate,
)


def fiber_gauge(g: Groupoid, points: "int | Iterable[int]", window: ArrowSet) -> dict[int, int]:
    """The window relation on ``points`` (an arrow mask or arrow ids), as rows.

    Arrow a's row is the mask of a and the arrows ``a q`` with q in the
    window, masked to ``points``; every row lies in a's range fiber.  The
    search, ``asdim_to_dad`` and ``ef_asdim_check`` read the relation in
    this form, keyed and valued in arrow ids.
    """
    _same_owner(g, window.owner)
    mask = points if isinstance(points, int) else mask_of(points)
    return {a: (1 << a | translate(g, a, window.mask)) & mask for a in iter_bits(mask)}


def gauge_from(g: Groupoid, window: ArrowSet) -> dict[int, int]:
    """``fiber_gauge`` over every arrow.  The window must be symmetric and
    contain every unit; then so is the relation, which E and F must be.
    Nothing in the package calls it: each certificate reads rows on the
    fibers or cells it checks, and tests read the whole-arrow rows as oracles."""
    rows = fiber_gauge(g, g.arrows_mask, window)
    if not window.is_oc_normal():
        raise CoarseError("gauge windows must be symmetric and contain every unit")
    return rows


# -- (E,F)-asdim -----------------------------------------------------------


def _ef_violation(e_rows, f_rows, families, points: int) -> "tuple | None":
    """The first (family, member, point, kind) that keeps families of member
    masks from (E,F)-decomposing the mask ``points``; None if there is none.

    Rows map each point to its row, as ``fiber_gauge`` builds them in arrow
    ids and ``_cell_rows`` on cells.  Kind
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


def _cell_rows(g: Groupoid, mask: int) -> dict[int, int]:
    """The window relation of the arrow mask ``mask`` on cells, as rows over
    every cell of every orbit, built in one pass over the window's arrows.

    An orbit is X×H×X, and the arrow (x, h, y) of the range fiber G^x is the
    cell (h, y), bit ``h * n_units + y``: on a principal orbit, the source
    unit y.  Two arrows a = (x, h, y) and b = (x, h', z) of G^x are related
    iff a^-1 b = (y, h^-1 h', z) lies in the window, which does not depend
    on x; so one row per cell serves every fiber of its orbit.  A row holds
    its own cell only if the window holds the cell's source unit.
    """
    n = g.n_units
    src, rng, label, table = g.src, g.rng, g.label, g.table
    rows = {h * n + y: 0 for y in range(n) for h in range(len(table[y]))}
    for e in iter_bits(mask):  # e = (y, k, z) relates (h, y) to (hk, z)
        y, z, k = rng[e], src[e], label[e]
        for h, products in enumerate(table[y]):
            rows[h * n + y] |= 1 << (products[k] * n + z)
    return rows


def _gauge_rows(g: Groupoid, window: ArrowSet) -> dict[int, int]:
    """``_cell_rows`` of a gauge window, which must be symmetric and contain
    every unit, as for ``gauge_from``: exactly when the cell rows are
    symmetric and reflexive, which is checked on them."""
    _same_owner(g, window.owner)
    rows = _cell_rows(g, window.mask)
    for p, row in rows.items():
        if not row >> p & 1 or any(not rows[q] >> p & 1 for q in iter_bits(row)):
            raise CoarseError("gauge windows must be symmetric and contain every unit")
    return rows


def _separated_cover(g: Groupoid, window: ArrowSet, fibers) -> bool:
    """True iff per-fiber members cover every arrow, exactly, and the members
    of each family are separated by the window relation.

    ``fibers[x]`` holds the families of the range fiber G^x, each a list of
    members as cell masks (``_cell_rows``).  This is ``_ef_violation``
    without F on ``gauge_from(g, window)`` over every arrow, run fiber by
    fiber (rows never leave their fiber) with each arrow named by its cell,
    against window rows built on cells once (``_gauge_rows``); a cell
    outside the fiber's orbit is a point the members may not hold.
    """
    rows = _gauge_rows(g, window)
    n, src = g.n_units, g.src
    if len(fibers) != n:
        return False
    orbit_cells = [0] * n  # unit -> the cells of its orbit
    for x in range(n):
        if not orbit_cells[x]:
            units = mask_of(src[a] for a in g.at[x][0])
            cells = 0
            for h in range(len(g.table[x])):
                cells |= units << h * n
            for y in iter_bits(units):
                orbit_cells[y] = cells
    return all(
        _ef_violation(rows, None, fams, orbit_cells[x]) is None for x, fams in enumerate(fibers)
    )


def _relation_points(e_rows: dict[int, int], f_rows: dict[int, int]) -> int:
    """The mask of the points, the keys of both row dicts; CoarseError unless
    E and F are reflexive and symmetric on that one point set."""
    points = mask_of(e_rows)
    if mask_of(f_rows) != points:
        raise CoarseError("E and F live on different point sets")
    for name, rows in (("E", e_rows), ("F", f_rows)):
        for p, row in rows.items():
            if row & ~points:
                raise CoarseError(f"{name} relates point {p} to a point outside the set")
            if not row >> p & 1:
                raise CoarseError(f"{name} is not reflexive at point {p}")
            for q in iter_bits(row):
                if not rows[q] >> p & 1:
                    raise CoarseError(f"{name} is not symmetric at ({p},{q})")
    return points


def ef_asdim_check(e_rows: dict[int, int], f_rows: dict[int, int], families) -> bool:
    """Cover + F-bounded members + pairwise E-separated families.

    The points are the keys of the rows; members are iterables of points.
    """
    points = _relation_points(e_rows, f_rows)
    masks = [[mask_of(member) for member in fam] for fam in families]
    return _ef_violation(e_rows, f_rows, masks, points) is None


def _components(mask: int, adj: Sequence[int]) -> list[int]:
    """The connected components of the item mask ``mask`` in the graph
    ``adj``, as masks in order of least item."""
    comps = []
    while mask:
        comp = grow = mask & -mask
        while grow:
            reach = 0
            for x in iter_bits(grow):
                reach |= adj[x]
            grow = reach & mask & ~comp
            comp |= grow
        mask &= ~comp
        comps.append(comp)
    return comps


def ef_asdim_search(
    e_rows: dict[int, int], f_rows: dict[int, int], d_max: int, mode: str = "exact"
) -> "list[list[frozenset[int]]] | None":
    """Decompose the points into up to d_max+1 E-separated families of F-bounded members.

    The points are the keys of the rows, and members hold them as given.
    Members are the E-components of each family, which is the finest (hence
    easiest to bound) choice; partitions suffice because dropping a point from
    a family never breaks separation or boundedness.  The search indexes the
    points densely in increasing order and returns each family as one class
    mask; the family's members are that class split into its components
    under E, in order of least point.  Exact mode is complete: it refutes
    each d in ``compact_order`` of E, computed once per search, and at the
    least feasible d returns the lexicographically least partition in point
    order.  Greedy is first-fit in point order, and its None refutes nothing.
    """
    if d_max < 0:
        raise CoarseError("d_max must be nonnegative")
    if mode not in ("exact", "greedy"):
        raise CoarseError(f"unknown search mode: {mode!r}")
    points = _relation_points(e_rows, f_rows)
    ids = list(iter_bits(points))
    index = {a: i for i, a in enumerate(ids)}
    n = len(ids)

    def dense(row: int) -> int:
        return mask_of(index[b] for b in iter_bits(row))

    self_free = [dense(e_rows[a]) & ~(1 << i) for i, a in enumerate(ids)]
    ok = [dense(f_rows[a]) for a in ids]
    order = compact_order(n, self_free) if mode == "exact" else None
    for d in range(d_max + 1):
        classes = partition_search(n, d + 1, self_free, ok, mode, order)
        if classes is not None:
            families = [
                [frozenset(ids[i] for i in iter_bits(c)) for c in _components(m, self_free)]
                for m in classes
            ]
            masks = [[mask_of(member) for member in fam] for fam in families]
            if _ef_violation(e_rows, f_rows, masks, points) is not None:
                raise RuntimeError("search produced an invalid decomposition")
            return families
    return None


# -- treeable covers --------------------------------------------------------


class TreeCoverResult(NamedTuple):
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
    """The least of ``limit`` and the number of edges from a unit of the mask
    ``start`` to one of ``target`` in the graph ``adj``, by bitmask BFS;
    ``limit`` (None: no limit) if ``target`` is empty or out of reach."""
    if not target:
        return limit
    seen = frontier = start
    gap = 0
    while not frontier & target:
        gap += 1
        if not frontier or gap == limit:
            return limit
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
    (so the families are separated at E = ball(N-1)), and that distinct
    classes inside one annulus are at distance >= 2N.  Diameters are
    pairwise word lengths inside each class; since ball(4N) is the set of
    arrows of length <= 4N, they are also the F-boundedness check at
    F = ball(4N).  The cover and E-separation at E = ball(N-1) are re-checked
    by ``_separated_cover`` on the classes' source masks, which are their
    cells, against window rows built once per orbit.  A groupoid with no
    units has the empty cover, vacuously certified.

    Everything is read in source units, by two facts about a treeable
    graphing Q (its unit graph is a forest, with one generator and its
    inverse per edge, and Q generates g):

    1. g is principal.  Every arrow is a word in Q, which walks the forest;
       a word whose walk is closed backtracks somewhere, at a step ``q^-1 q``
       (the edge has no other generator) that cancels to a unit, so the
       word reduces to the unit at its base.  Hence every arrow with equal
       source and range is a unit, and two arrows with the same ends are
       equal (their quotient is such an arrow).  This is checked, by
       ``is_principal``, not assumed.
    2. For a, b in one range fiber, |a^-1 b| is the forest distance from
       src a to src b.  A word of length l for a^-1 b walks l edges from
       src b to src a, so |a^-1 b| is at least the distance; the word along
       the forest path is an arrow with those ends, so it is a^-1 b by 1.

    By 1, a class in the fiber G^x is its mask of source units.  The classes
    of G^x come from one walk of the forest from x, whose stack of the path
    back to x gives each arrow's past vertex: ``lengths[a] - t`` steps up
    from src a, stopping at x.  A class's diameter is the largest length of
    the arrows between its source units, read once per distinct source mask.
    By 2, a class's distance to the other classes of its family (or annulus)
    in its fiber is the first layer of a BFS from its source units that
    meets their source units.  A BFS stops once it reaches the least
    separation found so far, which it cannot improve.
    """
    if graphing.owner is not g:
        raise CoarseError("graphing belongs to a different groupoid")
    if not graphing.treeable:
        raise CoarseError(f"graphing is not treeable: {graphing.failure}")
    if n_scale < 1:
        raise CoarseError("annulus width must be positive")
    if not is_principal(g):  # fact 1 below
        raise CoarseError("a treeable graphing generates a principal groupoid, and this one is not")
    n = n_scale
    lengths, adj, at, pos = graphing.lengths, graphing.adjacency, g.at, g.pos
    neighbours = [list(iter_bits(row)) for row in adj]
    classes: dict[tuple[int, int, int], list[int]] = {}  # (annulus, fiber, past) -> sources
    for x in range(g.n_units):
        fiber = at[x][0]  # fiber[pos[v]] is the arrow from v to x
        path: list[int] = []  # the forest path from x to the unit on top of the stack
        stack = [(x, 0)]
        while stack:
            v, depth = stack.pop()
            del path[depth:]
            path.append(v)
            length = lengths[fiber[pos[v]]]
            k = length // n  # a unit on a boundary lies in annulus k - 1 too
            for a in (k, k - 1) if length % n == 0 and length else (k,):
                i = depth - length + n * (a - 1)  # the past vertex's path index, or x below 0
                classes.setdefault((a, x, -1 if a < 2 else path[i] if i > 0 else x), []).append(v)
            parent = path[depth - 1] if depth else -1
            for w in neighbours[v]:
                if w != parent:
                    stack.append((w, depth + 1))
    keys = sorted(classes)

    bits = [1 << v for v in range(g.n_units)]
    reach = [[lengths[a] for a in at[u][0]] for u in range(g.n_units)]  # [u][pos v]: |v -> u|
    sources: dict[tuple[int, int, int], int] = {}  # class key -> its source units
    diameters: dict[int, int] = {}  # source units -> the largest length between two of them
    family_sources: dict[tuple[int, int], int] = {}  # (parity, fiber) -> source units
    annulus_sources: dict[tuple[int, int], int] = {}  # (annulus, fiber) -> source units
    family_members: list[list[frozenset[int]]] = [[], []]
    cells = [([], []) for _ in range(g.n_units)]  # fiber -> parity -> source masks
    rows = []
    for idx, key in enumerate(keys):
        k, x, _ = key
        units = classes[key]
        places = [pos[v] for v in units]
        sources[key] = mask = sum(map(bits.__getitem__, units))
        family_sources[k % 2, x] = family_sources.get((k % 2, x), 0) | mask
        annulus_sources[k, x] = annulus_sources.get((k, x), 0) | mask
        if mask not in diameters:  # a second index keeps itemgetter's result a tuple
            read = itemgetter(*places, places[0])
            diameters[mask] = max(map(max, map(read, map(reach.__getitem__, units))))
        family_members[k % 2].append(frozenset(map(at[x][0].__getitem__, places)))
        cells[x][k % 2].append(mask)
        rows.append((k % 2, idx, k, x, len(units), diameters[mask]))
    max_diameter = max(diameters.values(), default=0)  # no units: the empty cover

    min_separation = None
    min_same_annulus = None
    # a family's classes in one fiber are disjoint, so their source masks are
    # disjoint too: "& ~mask" leaves the other classes
    for (k, x, _), mask in sources.items():
        min_separation = _forest_gap(adj, mask, family_sources[k % 2, x] & ~mask, min_separation)
        min_same_annulus = _forest_gap(adj, mask, annulus_sources[k, x] & ~mask, min_same_annulus)

    certified = (
        max_diameter <= 4 * n
        and (min_separation is None or min_separation >= n)
        and (min_same_annulus is None or min_same_annulus >= 2 * n)
        and _separated_cover(g, graphing.ball(n - 1), cells)
    )
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


class AsdimBridge(NamedTuple):
    """Decomposition of the arrow space induced by a dad witness, certified on
    the window rows of ``e_window`` and ``f_window`` on the cells of each orbit."""

    families: tuple[tuple[frozenset[int], ...], ...]
    e_window: ArrowSet
    f_window: ArrowSet
    certified: bool


def dad_to_asdim(g: Groupoid, witness: DadWitness) -> AsdimBridge:
    """Turn a certified witness into an (E,F)-decomposition of the arrow space.

    Family i collects, fiber by fiber in unit order, the classes of the
    relation "same range and quotient inside the generated subgroupoid H_i"
    on the arrows with source in class i, each fiber's members by least
    arrow.  E is the witness window, F the symmetrized union of the H_i.

    Every window relation on a fiber G^x is one relation on the cells of
    x's orbit (``_cell_rows``), carried onto G^x by ``at[x]``, which maps the
    cells one to one onto G^x (the ``Groupoid`` constructor checks it).  So
    the members of family i are one partition of the cells with source in
    class i per orbit, and each fiber's members are its images under
    ``at[x]``, each member read as one list of flat indices into ``at[x]``.
    (Left translation by t = (y, k, x) sends the cell (h, z) to (kh, z),
    which only permutes the classes: these are the members that translating
    one fiber's gives.)

    The certificate.  ``_ef_violation`` checks on the cell rows of E and F
    that the members cover every cell, are F-bounded and are E-separated
    within a family, so also disjoint (E is reflexive); rows never leave an
    orbit, so this one pass is the check of each orbit's cells.  Through
    ``at[x]`` it is the check on every fiber of the orbit: two arrows of G^x
    in one member, or in two members of one family, have their cells in one
    cell member, or in two, so their quotient is inside F, or outside E.
    Arrows of different fibers are never related.  E must be symmetric and
    contain every unit, as a gauge window, which is checked on its cell rows
    (``_gauge_rows``); F does by construction.
    """
    _same_owner(g, witness.owner)
    if not witness.certified:
        raise CoarseError("bridge requires a certified witness")
    e_rows = _gauge_rows(g, witness.K)
    f_window = symmetrize(witness.reach)

    n, at, pos, table = g.n_units, g.at, g.pos, g.table
    parts = []  # family -> its members as cell masks, by least cell
    for cls, h_i in zip(witness.cover.classes, witness.generated_per_class):
        cells = mask_of(h * n + y for y in cls for h in range(len(table[y])))
        rows = _cell_rows(g, h_i.mask)
        holders: dict[int, int] = {}  # row -> the cells whose row it is
        for p in iter_bits(cells):
            row = (rows[p] | 1 << p) & cells
            holders[row] = holders.get(row, 0) | 1 << p
        # an equivalence iff each row is the cells whose row it is; the rows are its classes
        if any(held != row for row, held in holders.items()):
            raise CoarseError("relation is not transitive; generated class is not a subgroupoid")
        parts.append(list(holders))
    # rows never leave an orbit, so one check over every cell is one per orbit
    certified = _ef_violation(e_rows, _cell_rows(g, f_window.mask), parts, mask_of(e_rows)) is None

    least = [g.src[at[y][0][0]] for y in range(n)]  # unit -> the least unit of its orbit
    flat = [[a for row in at[y] for a in row] for y in range(n)]  # [y][h |X| + pos z]: (y, h, z)
    families = []
    for members in parts:
        places: dict[int, list[list[int]]] = {}  # least unit -> its orbit's members, as flat indices
        for mask in members:
            z = ((mask & -mask).bit_length() - 1) % n
            places.setdefault(least[z], []).append(
                [p // n * len(at[z][0]) + pos[p % n] for p in iter_bits(mask)]
            )
        fam = []
        for y in range(n):
            read = flat[y].__getitem__
            fam += sorted((frozenset(map(read, m)) for m in places.get(least[y], ())), key=min)
        families.append(tuple(fam))
    return AsdimBridge(tuple(families), witness.K, f_window, certified)


# -- asdim -> dad -----------------------------------------------------------


def asdim_fiber_decompositions(
    g: Groupoid,
    y: UnitSet,
    k_set: ArrowSet,
    l_set: ArrowSet,
    d_max: int,
) -> dict[int, list[list[frozenset[int]]]]:
    """(E,F)-decompose each fundamental-domain fiber of the Y-confined subgroupoid.

    E and F are the rows of the window and the bound on each fiber, in arrow
    ids, so the search's members are the decomposition; they are keyed by unit.
    """
    decomps = {}
    for x, points in orbit_fibers(g, y, k_set).items():
        fams = ef_asdim_search(fiber_gauge(g, points, k_set), fiber_gauge(g, points, l_set), d_max)
        if fams is None:
            raise CoarseError(f"fiber at unit {x} admits no decomposition at d_max={d_max}")
        decomps[x] = fams
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
    A Y with no units gets one empty class, d = 0, as from ``kl_dad_search``;
    on a nonempty Y each checked fiber brings at least one family.
    """
    if not is_principal(g):
        raise CoarseError("the reconstruction requires a principal groupoid")
    _same_owner(g, y.owner)
    for name, window in (("window", k_set), ("bound", l_set)):
        _same_owner(g, window.owner)
        if not window.is_oc_normal():
            raise CoarseError(f"the {name} must be symmetric and contain every unit")

    class_units = [0]  # class i's source units, grown fiber by fiber
    for x, fiber_pts in orbit_fibers(g, y, k_set).items():
        fams = fiber_families.get(x)
        if fams is None:
            raise CoarseError(f"missing fiber decomposition at unit {x}")
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
            fiber_gauge(g, fiber_pts, k_set), fiber_gauge(g, fiber_pts, l_set), masks, fiber_pts
        )
        if bad is not None:
            i, j, a, kind = bad
            what = (
                "is not window-separated from an earlier block"
                if kind == "E"
                else "has a quotient with its block that escapes the bound"
            )
            raise CoarseError(f"fiber {x}, family {i}, block {j}: arrow {a} {what}")
        class_units += [0] * (len(masks) - len(class_units))
        for i, fam in enumerate(masks):
            for member in fam:
                class_units[i] |= mask_of(g.src[a] for a in iter_bits(member))

    if y.mask == g.units_mask:  # restrict(g, y) would re-index nothing
        gy, k_local, l_local = g, k_set, l_set
        classes = tuple(UnitSet(g, mask) for mask in class_units)
    else:
        gy = restrict(g, y)
        k_local = gy.from_parent(k_set)
        l_local = gy.from_parent(l_set)
        classes = tuple(gy.from_parent(UnitSet(g, mask)) for mask in class_units)
    return certify(gy, k_local, l_local, Cover(gy, classes), RuntimeError(
        "fiber decompositions passed their checks but the witness failed"))
