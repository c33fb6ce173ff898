"""The canonical coarse structure on arrows, (E,F)-decompositions, treeable
covers, and the two bridges between dad witnesses and coarse decompositions.

Points of the coarse spaces here are arrows of a groupoid; a window set
relates two arrows in the same range fiber when the quotient ``g^-1 h`` lies
in it.  Arrows in different fibers are never related.  The relation has one
form, window rows in arrow ids (``fiber_gauge``); the search and every
certificate read it.
"""

from __future__ import annotations

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
    transversal,
)


def fiber_gauge(g: Groupoid, points: "int | Iterable[int]", window: ArrowSet) -> dict[int, int]:
    """The window relation on ``points`` (an arrow mask or arrow ids), as rows.

    Arrow a's row is the mask of a and the arrows ``a q`` with q in the
    window, masked to ``points``; every row lies in a's range fiber.  This
    is the one form of the relation: the search and the certificates read
    it, keyed and valued in arrow ids.
    """
    _same_owner(g, window.owner)
    mask = points if isinstance(points, int) else mask_of(points)
    return {a: (1 << a | translate(g, a, window.mask)) & mask for a in iter_bits(mask)}


def gauge_from(g: Groupoid, window: ArrowSet) -> dict[int, int]:
    """``fiber_gauge`` over every arrow.  The window must be symmetric and
    contain every unit; then so is the relation, which E and F must be."""
    rows = fiber_gauge(g, g.arrows_mask, window)
    if not window.is_oc_normal():
        raise CoarseError("gauge windows must be symmetric and contain every unit")
    return rows


# -- (E,F)-asdim -----------------------------------------------------------


def _ef_violation(e_rows, f_rows, families, points: int) -> "tuple | None":
    """The first (family, member, point, kind) that keeps families of member
    masks from (E,F)-decomposing the mask ``points``; None if there is none.

    Rows map each point to its row, as ``fiber_gauge`` builds them.  Kind
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


def ef_asdim_search(
    e_rows: dict[int, int], f_rows: dict[int, int], d_max: int, mode: str = "exact"
) -> "list[list[frozenset[int]]] | None":
    """Decompose the points into up to d_max+1 E-separated families of F-bounded members.

    The points are the keys of the rows, and members hold them as given.
    Members are the E-components of each family, which is the finest (hence
    easiest to bound) choice; partitions suffice because dropping a point from
    a family never breaks separation or boundedness.  The search indexes the
    points densely in increasing order.  Exact mode is complete: it refutes
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
        states = partition_search(n, d + 1, self_free, ok, mode, order)
        if states is not None:
            families = [
                sorted((frozenset(ids[i] for i in iter_bits(c)) for c, _ in comps), key=min)
                for _, comps in states
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
    (so the families are separated at E = ball(N-1)), and that distinct
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

    lengths, src, inv, label, pos, at, table = (
        graphing.lengths, g.src, g.inv, g.label, g.pos, g.at, g.table
    )
    diameters = {}
    for key, members in classes.items():
        diameter = 0
        for i, a in enumerate(members):
            x = src[a]  # inv(a) b runs src b -> src a
            row, ha = at[x], table[x][label[inv[a]]]
            for b in members[i:]:
                d = lengths[row[ha[label[b]]][pos[src[b]]]]
                if d > diameter:
                    diameter = d
        diameters[key] = diameter
    max_diameter = max(diameters.values())

    sources = {key: mask_of(g.src[a] for a in members) for key, members in classes.items()}
    family_sources: dict[tuple[int, int], int] = {}  # (parity, fiber) -> source units
    annulus_sources: dict[tuple[int, int], int] = {}  # (annulus, fiber) -> source units
    for (k, x, _), mask in sources.items():
        family_sources[k % 2, x] = family_sources.get((k % 2, x), 0) | mask
        annulus_sources[k, x] = annulus_sources.get((k, x), 0) | mask
    adj = graphing.adjacency
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

    e_rows = gauge_from(g, graphing.ball(n - 1))
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


class AsdimBridge(NamedTuple):
    """Decomposition of the arrow space induced by a dad witness, certified on
    the window rows of ``e_window`` and ``f_window`` in arrow ids."""

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
    The members are built and certified on one range fiber per orbit, the
    fiber G^x at the orbit's least unit x, and translated to the others.

    Left translation.  For an arrow t from x to y, a -> t a maps G^x onto
    G^y one to one (t^-1 undoes it), keeps sources, src(t a) = src(a), and
    keeps quotients, (t a)^-1 (t b) = a^-1 b.  So for any window W the row
    of t a (t a and the arrows t a q, q in W, with source in a class) is the
    translate of the row of a, and the relation of H_i on G^y is the image
    of the one on G^x: it is an equivalence there iff it is one on G^x, and
    its classes, the members of family i on G^y, are the translates t M of
    the members M on G^x.  So the members are built on G^x only and
    translated by t = the least arrow from x to y, one composition per
    arrow; only their order is sorted again.

    The certificate.  ``_ef_violation`` checks on the window rows of E and F
    over the representative fibers that their members cover them, are
    F-bounded and are E-separated within a family.  Over all arrows, the
    members must cover every arrow, and no arrow may lie in two members of
    one family; this confirms that each translation maps its representative
    fiber onto the other fiber one to one, all that the argument uses of
    it.  Then every fiber is certified.  Two arrows of G^y in one member t M, or
    in members t M and t M' of one family, are t a and t b with a and b in
    M, or in M and M'.  Their quotient is a^-1 b, which the check on G^x put
    inside F, or outside E.  Arrows of different fibers are never related.
    E must be symmetric and contain every unit, as a gauge window; F does
    by construction.
    """
    _same_owner(g, witness.owner)
    if not witness.certified:
        raise CoarseError("bridge requires a certified witness")
    if not witness.K.is_oc_normal():
        raise CoarseError("gauge windows must be symmetric and contain every unit")

    f_window = symmetrize(witness.reach)

    t = transversal(g)
    rep_mask = 0
    for x, a in enumerate(t):
        if a == x:
            rep_mask |= g.by_rng[x]
    src, rng = g.src, g.rng
    families = []
    for cls, h_i in zip(witness.cover.classes, witness.generated_per_class):
        src_mask = 0
        for u in cls:
            src_mask |= g.by_src[u]
        rows = fiber_gauge(g, src_mask & rep_mask, h_i)
        reps: dict[int, list[int]] = {}  # representative unit -> its members, by least arrow
        for a, row in rows.items():
            # the relation is a genuine equivalence on these arrows
            if any(rows[b] != row for b in iter_bits(row)):
                raise CoarseError(
                    "relation is not transitive; generated class is not a subgroupoid"
                )
            if row & -row == 1 << a:
                reps.setdefault(rng[a], []).append(row)
        members = []
        for y, ty in enumerate(t):
            here = reps.get(src[ty], [])
            if ty != y:
                here = sorted((translate(g, ty, mask) for mask in here), key=lambda mask: mask & -mask)
            members += here
        families.append(members)

    covered, disjoint = 0, True
    for members in families:
        union = 0
        for mask in members:
            union |= mask
        disjoint = disjoint and union.bit_count() == sum(mask.bit_count() for mask in members)
        covered |= union
    violation = _ef_violation(
        fiber_gauge(g, rep_mask, witness.K),
        fiber_gauge(g, rep_mask, f_window),
        [[mask for mask in members if mask & rep_mask] for members in families],
        rep_mask,
    )
    return AsdimBridge(
        families=tuple(tuple(frozenset(iter_bits(mask)) for mask in fam) for fam in families),
        e_window=witness.K,
        f_window=f_window,
        certified=violation is None and disjoint and covered == g.arrows_mask,
    )


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
    """
    if not is_principal(g):
        raise CoarseError("the reconstruction requires a principal groupoid")
    _same_owner(g, y.owner)
    for name, window in (("window", k_set), ("bound", l_set)):
        _same_owner(g, window.owner)
        if not window.is_oc_normal():
            raise CoarseError(f"the {name} must be symmetric and contain every unit")

    n_classes = 0
    checked: dict[int, list[list[int]]] = {}
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
    return certify(gy, k_local, l_local, Cover(gy, classes), RuntimeError(
        "fiber decompositions passed their checks but the witness failed"))
