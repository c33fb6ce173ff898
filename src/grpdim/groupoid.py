"""Finite groupoids as dense integer tables, with bitmask arrow-set algebra.

Arrows are integers ``0..m-1``; ids ``0..n_units-1`` are reserved for the
identity arrows, so a unit and its identity arrow share an id.  Composition
is stored in orbit normal form: every orbit of a finite groupoid is X×H×X
(Brandt), so an arrow is a triple (x, h, y) and a product is one read of a
per-unit row (:class:`Groupoid`).  Composition read as ``(a, b, c)``
triples, as in an instance file, goes through one path, :func:`from_triples`:
shape checks, then :func:`validate` on the raw :class:`Tables`, whose
certificate is the normal form.  Sets of arrows and units are bitmasks
wrapped in :class:`ArrowSet` / :class:`UnitSet`; :func:`translate` reads
the products of one arrow with a mask.
Groupoids and sets are immutable after construction and every operation here
is a pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, NamedTuple


class GroupoidError(Exception):
    """Malformed tables or misused operations."""


class OwnerMismatchError(GroupoidError):
    """Sets owned by different groupoids were combined."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


class _Arrows:
    """Source, range and inverse tables over dense arrow ids, range-checked,
    with the arrow mask of each unit's source and range fibers."""

    __slots__ = ("n_units", "n_arrows", "src", "rng", "inv", "by_src", "by_rng")

    def __init__(self, n_units: int, src: Iterable[int], rng: Iterable[int], inv: Iterable[int]):
        self.src = tuple(int(x) for x in src)
        self.rng = tuple(int(x) for x in rng)
        self.inv = tuple(int(x) for x in inv)
        m = len(self.src)
        if not 0 <= n_units <= m:
            raise GroupoidError(f"n_units={n_units} out of range for {m} arrows")
        if len(self.rng) != m or len(self.inv) != m:
            raise GroupoidError("src/rng/inv tables must have equal length")
        self.n_units = n_units
        self.n_arrows = m
        for name, table, bound in (
            ("src", self.src, n_units),
            ("rng", self.rng, n_units),
            ("inv", self.inv, m),
        ):
            for a, v in enumerate(table):
                if not 0 <= v < bound:
                    raise GroupoidError(f"{name}[{a}]={v} out of range")
        by_src = [0] * n_units
        by_rng = [0] * n_units
        for a in range(m):
            by_src[self.src[a]] |= 1 << a
            by_rng[self.rng[a]] |= 1 << a
        self.by_src = tuple(by_src)
        self.by_rng = tuple(by_rng)


class Tables(_Arrows):
    """Composition read as triples ``(a, b, c)``, meaning ``a * b = c``, and
    stored flat as ``comp[a * m + b] = c``: the raw form :func:`validate`
    judges, before anything is known to be a groupoid.

    The constructor checks shapes only: ids in range, and no pair given two
    products (an identical repeat is allowed).
    """

    __slots__ = ("comp",)

    def __init__(
        self,
        n_units: int,
        src: Iterable[int],
        rng: Iterable[int],
        inv: Iterable[int],
        comp: "Iterable[tuple[int, int, int]]",
    ):
        super().__init__(n_units, src, rng, inv)
        m = self.n_arrows
        flat: dict[int, int] = {}
        for a, b, c in comp:
            if not (0 <= a < m and 0 <= b < m and 0 <= c < m):
                raise GroupoidError(f"comp entry ({a},{b})->{c} out of range")
            if flat.setdefault(a * m + b, c) != c:
                raise GroupoidError(f"comp ({a},{b}) given two products {flat[a * m + b]}, {c}")
        self.comp = flat


TRIVIAL = ((0,),)  # the multiplication table of the trivial group


class Groupoid(_Arrows):
    """A finite groupoid with composition in orbit normal form.

    Each orbit is X×H×X: arrow a is the triple (rng a, h_a, src a), and
    (x, h, y)(y, k, z) = (x, hk, z).  ``label[a]`` is h_a, an index into the
    isotropy group H of a's orbit, and ``table[u]`` is H's multiplication
    table (label 0 the identity), one object shared by the units of an
    orbit.  X is the orbit's units in increasing order, ``pos[y]`` is y's
    index in it, and ``at[x][h][pos[y]]`` is the arrow (x, h, y).  So

        a * b = at[rng a][table[rng a][label a][label b]][pos[src b]]

    for ``src a == rng b``: on a principal orbit, ``at[rng a][0][pos[src b]]``.
    The tables hold m + Σ|H|² + n entries, against one per composable pair.

    The constructor reads ``label`` and ``table`` and checks shapes only:
    ids and labels in range, one table per orbit (every unit carries its
    orbit's least unit's), and each arrow alone in its cell of ``at``.
    The builders make these directly; tables read as triples are judged by
    :func:`validate` first (:func:`from_triples`).
    """

    __slots__ = (
        "label",
        "table",
        "pos",
        "at",
        "units_mask",
        "arrows_mask",
        "parent",
        "parent_arrows",
    )

    def __init__(
        self,
        n_units: int,
        src: Iterable[int],
        rng: Iterable[int],
        inv: Iterable[int],
        label: Iterable[int],
        table: "Iterable[tuple[tuple[int, ...], ...]]",
        *,
        parent: "Groupoid | None" = None,
        parent_arrows: "tuple[int, ...] | None" = None,
    ):
        super().__init__(n_units, src, rng, inv)
        self.label = tuple(label)
        self.table = tuple(table)
        m = self.n_arrows
        if len(self.label) != m or len(self.table) != n_units:
            raise GroupoidError("one label per arrow and one table per unit required")
        src, rng, label = self.src, self.rng, self.label
        # An orbit is the ranges of the arrows from its least unit, which is
        # the first unit in increasing order that no earlier orbit holds.
        root = [-1] * n_units
        pos = [0] * n_units
        at: list = [None] * n_units
        for r in range(n_units):
            if root[r] >= 0:
                continue
            xs = sorted({rng[a] for a in iter_bits(self.by_src[r])})
            k = len(self.table[r])
            for i, x in enumerate(xs):
                if root[x] >= 0:
                    raise GroupoidError(f"unit {x} lies in two orbits")
                if self.table[x] != self.table[r]:
                    raise GroupoidError(f"unit {x} has another table than unit {r} of its orbit")
                root[x] = r
                pos[x] = i
                at[x] = [[-1] * len(xs) for _ in range(k)]
        for a in range(m):
            x, y, h = rng[a], src[a], label[a]
            if root[x] != root[y] or not 0 <= h < len(at[x]) or at[x][h][pos[y]] >= 0:
                raise GroupoidError(f"arrow {a} has no cell of its own in its orbit")
            at[x][h][pos[y]] = a
        if any(-1 in row for rows in at for row in rows):
            raise GroupoidError("some cell of an orbit holds no arrow")
        self.pos = tuple(pos)
        self.at = tuple(at)
        self.units_mask = (1 << n_units) - 1
        self.arrows_mask = (1 << m) - 1
        self.parent = parent
        self.parent_arrows = parent_arrows

    # -- basic queries -------------------------------------------------

    def is_unit(self, a: int) -> bool:
        return a < self.n_units

    def compose(self, a: int, b: int) -> int:
        c = self.compose_or_none(a, b)
        if c is None:
            raise GroupoidError(f"arrows {a} and {b} are not composable")
        return c

    def compose_or_none(self, a: int, b: int) -> "int | None":
        if self.src[a] != self.rng[b]:
            return None
        x = self.rng[a]
        return self.at[x][self.table[x][self.label[a]][self.label[b]]][self.pos[self.src[b]]]

    # -- set constructors ----------------------------------------------

    def arrow_set(self, ids: Iterable[int] = ()) -> "ArrowSet":
        return ArrowSet(self, mask_of(ids))

    def unit_set(self, ids: Iterable[int] = ()) -> "UnitSet":
        return UnitSet(self, mask_of(ids))

    def all_arrows(self) -> "ArrowSet":
        return ArrowSet(self, self.arrows_mask)

    def all_units(self) -> "UnitSet":
        return UnitSet(self, self.units_mask)

    # -- restriction back-maps -----------------------------------------
    # Units have the least ids in both groupoids, so a unit's parent id is
    # its identity arrow's, and the kept units are ``parent_arrows[:n_units]``.
    # Each map returns a set of its argument's own kind.

    def to_parent(self, s: "_MaskSet") -> "_MaskSet":
        if self.parent is None:
            raise GroupoidError("groupoid has no parent")
        _same_owner(self, s.owner)
        return s.__class__(self.parent, mask_of(self.parent_arrows[i] for i in s))

    def from_parent(self, s: "_MaskSet") -> "_MaskSet":
        if self.parent is None:
            raise GroupoidError("groupoid has no parent")
        _same_owner(self.parent, s.owner)
        mask = s.mask
        kept = self.parent_arrows[:getattr(self, s._size)]
        return s.__class__(self, mask_of(i for i, orig in enumerate(kept) if mask >> orig & 1))

    def __repr__(self):
        return f"Groupoid(units={self.n_units}, arrows={self.n_arrows})"


def _same_owner(g: Groupoid, h: Groupoid) -> None:
    if g is not h:
        raise OwnerMismatchError("sets belong to different groupoids")


class _MaskSet:
    """An immutable subset of a groupoid's arrows or units, stored as a bitmask.

    Sets of different kinds never compare equal, even with equal masks.
    """

    __slots__ = ("owner", "mask")
    _kind = ""  # "arrow" or "unit", set by each subclass
    _size = ""  # the owner attribute that bounds the ids

    def __init__(self, owner: Groupoid, mask: int = 0):
        if mask >> getattr(owner, self._size):
            raise GroupoidError(f"{self._kind} mask exceeds owner's {self._kind} range")
        self.owner = owner
        self.mask = mask

    def __or__(self, other):
        _same_owner(self.owner, other.owner)
        return self.__class__(self.owner, self.mask | other.mask)

    def __and__(self, other):
        _same_owner(self.owner, other.owner)
        return self.__class__(self.owner, self.mask & other.mask)

    def __sub__(self, other):
        _same_owner(self.owner, other.owner)
        return self.__class__(self.owner, self.mask & ~other.mask)

    def __le__(self, other) -> bool:
        _same_owner(self.owner, other.owner)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and self.owner is other.owner
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.owner), self.mask, self._kind))

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __repr__(self):
        ids = list(self)
        shown = ",".join(map(str, ids[:8])) + (",..." if len(ids) > 8 else "")
        return f"{self.__class__.__name__}[{len(ids)}]{{{shown}}}"


class ArrowSet(_MaskSet):
    """An immutable subset of a groupoid's arrows, stored as a bitmask."""

    __slots__ = ()
    _kind = "arrow"
    _size = "n_arrows"

    def inverse(self) -> "ArrowSet":
        inv = self.owner.inv
        return ArrowSet(self.owner, mask_of(inv[a] for a in self))

    def is_oc_normal(self) -> bool:
        """Its own :func:`symmetrize`: symmetric and containing every unit."""
        return symmetrize(self).mask == self.mask


class UnitSet(_MaskSet):
    """An immutable subset of a groupoid's units, stored as a bitmask."""

    __slots__ = ()
    _kind = "unit"
    _size = "n_units"


# -- arrow-set algebra ----------------------------------------------------


def compose_sets(a: ArrowSet, b: ArrowSet) -> ArrowSet:
    """All defined products x*y with x in ``a`` and y in ``b``: the OR of
    ``translate(g, x, b.mask)`` over x in ``a``, one row read per left factor."""
    _same_owner(a.owner, b.owner)
    g = a.owner
    out = 0
    for x in iter_bits(a.mask):
        out |= translate(g, x, b.mask)
    return ArrowSet(g, out)


def symmetrize(k: ArrowSet) -> ArrowSet:
    """Smallest superset of ``k`` that is symmetric and contains all units."""
    g = k.owner
    return ArrowSet(g, k.mask | k.inverse().mask | g.units_mask)


def power(k: ArrowSet, n: int) -> ArrowSet:
    """n-fold set product of ``k``, which must hold every unit: item n of
    :func:`_powers`, or the stable power if the ladder stops earlier."""
    if n < 0:
        raise GroupoidError("power exponent must be nonnegative")
    for acc in islice(_powers(k), n + 1):
        pass
    return acc


def _powers(k: ArrowSet) -> Iterator[ArrowSet]:
    """The power ladder K^0 = units, K^1 = K, K^2, ..., up to the first
    power that the next one repeats.  K holds every unit, so the powers
    increase and, with F(j) = K^j − K^(j−1) (K^(−1) empty), K^(j+1) =
    K·K^(j−1) ∪ K·F(j) = K^j ∪ K·F(j): each level composes K with its
    frontier only, and each arrow is composed once."""
    g = k.owner
    if k.mask & g.units_mask != g.units_mask:
        raise GroupoidError("a power ladder needs a set that holds every unit")
    acc = frontier = g.units_mask
    yield ArrowSet(g, acc)
    while frontier := compose_sets(k, ArrowSet(g, frontier)).mask & ~acc:
        acc |= frontier
        yield ArrowSet(g, acc)


def arrows_within(g: Groupoid, units: UnitSet) -> ArrowSet:
    """Arrows with both endpoints inside ``units`` (the restriction G|_U as a set)."""
    _same_owner(g, units.owner)
    src_in = 0
    rng_in = 0
    for u in units:
        src_in |= g.by_src[u]
        rng_in |= g.by_rng[u]
    return ArrowSet(g, src_in & rng_in)


def unit_graph(g: Groupoid, k_set: ArrowSet) -> list[int]:
    """Adjacency rows, one bitmask per unit, of the simple graph whose edges
    join the distinct endpoints of the arrows of ``k_set``."""
    adj = [0] * g.n_units
    for a in iter_bits(k_set.mask & ~g.units_mask):
        u, v = g.src[a], g.rng[a]
        if u != v:  # isotropy arrows join no two units
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def generated(k: ArrowSet, units: UnitSet) -> ArrowSet:
    """Subgroupoid generated by the arrows of ``k`` with both endpoints in ``units``.

    Read orbit by orbit from the fiber at the least unit of each orbit that
    those arrows touch (:func:`_fiber`, :func:`_orbit`).
    """
    _same_owner(k.owner, units.owner)
    g = k.owner
    steps = _steps(g, k, units)
    out = 0
    for x in units:
        if not out >> x & 1 and steps & g.by_rng[x]:
            out |= _orbit(g, _fiber(g, x, steps))
    return ArrowSet(g, out)


def _steps(g: Groupoid, k: ArrowSet, units: UnitSet) -> int:
    """The arrow mask of ``k``'s arrows with both endpoints in ``units``, and their inverses."""
    inside = (k & arrows_within(g, units)).mask
    return inside | ArrowSet(g, inside).inverse().mask


def _fiber(g: Groupoid, x: int, steps: int) -> int:
    """The arrow mask of the range fiber H^x of the subgroupoid H that the
    unit x and the symmetric arrow mask ``steps`` generate: {x} closed under
    right multiplication by ``steps``, one :func:`translate` per arrow of H^x."""
    fiber = 1 << x
    queue = [x]
    for h in queue:  # the queue grows while it is read
        new = translate(g, h, steps) & ~fiber
        fiber |= new
        queue.extend(iter_bits(new))
    return fiber


def _orbit(g: Groupoid, fiber: int) -> int:
    """The arrow mask of the orbit X×S×X of H, read from its fiber H^x: it is
    b⁻¹·H^x over one b in H^x per unit of X (Brandt), one :func:`translate` each."""
    out = 0
    for b in iter_bits(fiber):
        if not out >> g.src[b] & 1:  # b⁻¹·H^x holds the unit src b
            out |= translate(g, g.inv[b], fiber)
    return out


def restrict(g: Groupoid, units: UnitSet) -> Groupoid:
    """The restriction of ``g`` to ``units``: all arrows with both endpoints inside.

    Arrow and unit ids are re-indexed densely; the result keeps the parent
    id of each arrow (``parent_arrows``, the kept units first).  An orbit
    X×H×X of ``g`` meets ``units`` in one orbit (X∩U)×H×(X∩U) of the result,
    so every arrow keeps its label and every unit its orbit's table.
    """
    _same_owner(g, units.owner)
    kept_units = list(units)
    unit_rank = {u: i for i, u in enumerate(kept_units)}
    kept = [a for a in range(g.n_arrows) if g.src[a] in unit_rank and g.rng[a] in unit_rank]
    arrow_rank = {a: i for i, a in enumerate(kept)}
    return Groupoid(
        len(kept_units),
        [unit_rank[g.src[a]] for a in kept],
        [unit_rank[g.rng[a]] for a in kept],
        [arrow_rank[g.inv[a]] for a in kept],
        [g.label[a] for a in kept],
        [g.table[u] for u in kept_units],
        parent=g,
        parent_arrows=tuple(kept),
    )


def translate(g: Groupoid, a: int, mask: int) -> int:
    """The arrow mask of a·y for y in the arrow mask ``mask`` with
    rng y = src a: the part of ``mask`` in the range fiber at src a, moved
    into the fiber at rng a by left multiplication, one row read per arrow."""
    src, label, pos = g.src, g.label, g.pos
    x = g.rng[a]
    row, ha = g.at[x], g.table[x][label[a]]
    out = 0
    for y in iter_bits(g.by_rng[src[a]] & mask):
        out |= 1 << row[ha[label[y]]][pos[src[y]]]
    return out


# -- orbits and principality ----------------------------------------------


def transversal(g: _Arrows) -> list[int]:
    """For each unit y, the least arrow from the least unit of y's orbit to y.

    Units are taken in increasing order; a unit that no earlier orbit reaches
    is the least of its own, and its entry is itself (the unit arrow, whose id
    is below every other arrow's).  The cost is one pass over the arrows with
    source at those least units.
    """
    t = [-1] * g.n_units
    rng = g.rng
    for x in range(g.n_units):
        if t[x] < 0:
            for a in iter_bits(g.by_src[x]):
                if t[rng[a]] < 0:
                    t[rng[a]] = a
    return t


def orbit_fibers(g: Groupoid, y: UnitSet, k_set: ArrowSet) -> dict[int, int]:
    """For the subgroupoid H generated by the window arrows inside Y and the
    units of Y, the arrow mask of its range fiber at the least unit of each
    H-orbit in Y, by unit.

    Units of Y are taken in increasing order, and a unit that no earlier
    fiber reaches is the least of its orbit; only those fibers are walked,
    by the walk that :func:`generated` reads (:func:`_fiber`).  So the cost
    is their size times the window degree, on any groupoid, principal or not.
    """
    steps = _steps(g, k_set, y)
    fibers = {}
    reached = 0
    for x in y:
        if reached >> x & 1:
            continue
        fibers[x] = fiber = _fiber(g, x, steps)
        for h in iter_bits(fiber):
            reached |= 1 << g.src[h]
    return fibers


def is_principal(g: Groupoid) -> bool:
    """True iff the only arrows with equal endpoints are the identities: every
    orbit's isotropy group is trivial."""
    return all(len(tab) == 1 for tab in g.table)


# -- axiom validation ------------------------------------------------------


class Violation(NamedTuple):
    code: str
    message: str
    arrows: tuple[int, ...] = ()


class ValidationReport:
    """Axiom violations as data; empty iff the tables form a groupoid.

    ``groupoid`` is the orbit normal form that the structure certificate
    proved, or None unless the report is ok.
    """

    def __init__(self, violations: list[Violation], groupoid: "Groupoid | None" = None):
        self.violations = tuple(violations)
        self.groupoid = groupoid

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(f"{v.code}: {v.message}" for v in self.violations)


def validate(g: Tables) -> ValidationReport:
    """Check every groupoid axiom of raw tables; violations are returned,
    never raised."""
    out: list[Violation] = []
    m = g.n_arrows
    n = g.n_units
    src, rng, inv, comp = g.src, g.rng, g.inv, g.comp

    for u in range(n):
        if src[u] != u or rng[u] != u:
            out.append(
                Violation(
                    "identity-endpoints",
                    f"identity arrow {u} has src={src[u]}, rng={rng[u]}",
                    (u,),
                )
            )

    for a in range(m):
        if inv[inv[a]] != a:
            out.append(
                Violation(
                    "inv-involution", f"inv(inv({a}))={inv[inv[a]]} != {a}", (a,)
                )
            )
        if src[inv[a]] != rng[a] or rng[inv[a]] != src[a]:
            out.append(
                Violation(
                    "inv-endpoints",
                    f"inv({a})={inv[a]} does not swap endpoints",
                    (a,),
                )
            )

    expected_pairs = sum(
        g.by_src[u].bit_count() * g.by_rng[u].bit_count() for u in range(n)
    )
    bad_keys = 0
    for key, c in comp.items():
        a, b = divmod(key, m)
        if src[a] != rng[b]:
            bad_keys += 1
            out.append(
                Violation(
                    "comp-domain",
                    f"comp({a},{b}) defined but src({a})={src[a]} != rng({b})={rng[b]}",
                    (a, b),
                )
            )
            continue
        if src[c] != src[b] or rng[c] != rng[a]:
            out.append(
                Violation(
                    "comp-endpoints",
                    f"comp({a},{b})={c} has wrong endpoints",
                    (a, b, c),
                )
            )
    if len(comp) - bad_keys != expected_pairs:
        out.append(
            Violation(
                "comp-domain",
                f"comp defined on {len(comp) - bad_keys} composable pairs, expected {expected_pairs}",
            )
        )

    for a in range(m):
        left = comp.get(rng[a] * m + a)
        right = comp.get(a * m + src[a])
        if left != a:
            out.append(
                Violation("identity-law", f"id_rng*{a} = {left}, expected {a}", (a,))
            )
        if right != a:
            out.append(
                Violation("identity-law", f"{a}*id_src = {right}, expected {a}", (a,))
            )
        if comp.get(a * m + inv[a]) != rng[a]:
            out.append(
                Violation(
                    "inverse-law",
                    f"{a}*inv({a}) is not the identity at rng({a})",
                    (a,),
                )
            )
        if comp.get(inv[a] * m + a) != src[a]:
            out.append(
                Violation(
                    "inverse-law",
                    f"inv({a})*{a} is not the identity at src({a})",
                    (a,),
                )
            )

    if not out and (normal := _structure_certificate(g)):
        return ValidationReport(out, normal)
    out.extend(_associativity_violations(g))
    return ValidationReport(out)


def _structure_certificate(g: Tables) -> "Groupoid | None":
    """Prove associativity from the structure of connected groupoids, and
    return what it proves: the orbit normal form of ``g``.

    Every connected groupoid is isomorphic to X×H×X, with H the isotropy
    group at a root r and (x, h, y)(y, k, z) = (x, hk, z).  For each orbit,
    take r its least unit and t_u : r → u the arrows of :func:`transversal`,
    and map each arrow a to (rng a, h_a, src a) with
    h_a = t_{rng a}⁻¹·a·t_{src a}.  If H is associative and that map is
    multiplicative and injective, then X×H×X is associative and so is ``g``:
    both sides of (a·b)·d = a·(b·d) map to the same triple.  The triples are
    the normal form's cells: a's label is h_a numbered by arrow id within H
    (r first, as label 0), H's table is read from ``comp``, and the
    :class:`Groupoid` constructor refuses two arrows in one cell.
    Cost O(m + |comp| + Σ|H|³).

    Requires every other check of :func:`validate` to have passed: ``comp``
    is then defined on exactly the composable pairs, with the right
    endpoints.  None means some product is not associative.
    """
    m = g.n_arrows
    src, rng, inv, comp = g.src, g.rng, g.inv, g.comp
    # Products have the right endpoints, so every unit of r's orbit gets an
    # arrow from r: the tree has depth one, and t_r = r.
    tree = transversal(g)
    rank: dict[int, int] = {}
    tables = {}
    for r, t_r in enumerate(tree):
        if t_r != r:
            continue
        iso = list(iter_bits(g.by_src[r] & g.by_rng[r]))
        rank.update((x, i) for i, x in enumerate(iso))
        tab = tuple(tuple(rank[comp[x * m + y]] for y in iso) for x in iso)
        hs = range(len(iso))
        if any(tab[tab[x][y]][z] != tab[x][tab[y][z]] for x in hs for y in hs for z in hs):
            return None
        tables[r] = tab

    label = [rank[comp[inv[tree[rng[a]]] * m + comp[a * m + tree[src[a]]]]] for a in range(m)]
    table = [tables[src[t_u]] for t_u in tree]
    for key, c in comp.items():
        a, b = divmod(key, m)
        if table[rng[a]][label[a]][label[b]] != label[c]:
            return None
    try:
        return Groupoid(g.n_units, src, rng, inv, label, table)
    except GroupoidError:  # two arrows share a cell: the map is not injective
        return None


def _associativity_violations(g: Tables) -> list[Violation]:
    """Every triple (a, b, d) on which associativity fails: O(|comp|·|fiber|)."""
    out: list[Violation] = []
    m = g.n_arrows
    src, rng, comp = g.src, g.rng, g.comp
    for key, c in comp.items():
        a, b = divmod(key, m)
        if src[a] != rng[b]:
            continue
        for d in iter_bits(g.by_rng[src[b]]):
            bd = comp.get(b * m + d)
            left = comp.get(c * m + d)
            right = None if bd is None else comp.get(a * m + bd)
            if left != right or left is None:
                out.append(
                    Violation(
                        "associativity",
                        f"({a}*{b})*{d} = {left} but {a}*({b}*{d}) = {right}",
                        (a, b, d),
                    )
                )
    return out


# -- the triples path --------------------------------------------------------


class AxiomError(GroupoidError):
    """Tables that are not a groupoid; ``report`` names every violation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


def from_triples(
    n_units: int,
    src: Iterable[int],
    rng: Iterable[int],
    inv: Iterable[int],
    comp: "Iterable[tuple[int, int, int]]",
) -> Groupoid:
    """The groupoid of tables whose composition is read as triples.

    The one path from triples to a groupoid: the shape checks of
    :class:`Tables` (GroupoidError), then :func:`validate` (AxiomError with
    the report).  The groupoid is the report's: the orbit normal form its
    certificate proved, after which the composition dict is dropped.
    """
    report = validate(Tables(n_units, src, rng, inv, comp))
    if not report.ok:
        raise AxiomError(report)
    return report.groupoid


def triples(g: Groupoid) -> Iterator[tuple[int, int, int]]:
    """Every product ``(a, b, a * b)`` of ``g``, in increasing (a, b) order."""
    src, rng, label, pos, at, table = g.src, g.rng, g.label, g.pos, g.at, g.table
    fibers = [list(iter_bits(mask)) for mask in g.by_rng]
    for a in range(g.n_arrows):
        x = rng[a]
        rows, ha = at[x], table[x][label[a]]
        yield from [(a, b, rows[ha[label[b]]][pos[src[b]]]) for b in fibers[src[a]]]
