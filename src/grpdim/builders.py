"""Instance generators for the example families, plus JSON (de)serialization.

Pair groupoids, products and blow-ups are built in orbit normal form
directly (see :class:`grpdim.groupoid.Groupoid`), and the triples each one
induces pass :func:`grpdim.groupoid.validate`.  Action builds and instance
files go through :func:`grpdim.groupoid.from_triples`, so ``validate``
judges them and its certificate is the normal form they get: no builder
checks the group or action axioms itself.  There is
one action builder, :func:`partial_action_groupoid`, in which arrow (g, x)
runs x -> θ_g(x); a global action is the partial action whose domains are
all full.  The loader rejects files whose tables violate the axioms and
embeds the validation report in the error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Hashable, Mapping, Sequence

from .graphing import Graphing
from .groupoid import (
    TRIVIAL,
    ArrowSet,
    AxiomError,
    Groupoid,
    GroupoidError,
    from_triples,
    triples,
)


class BuilderError(GroupoidError):
    pass


class LoadError(BuilderError):
    pass


# -- pair groupoids and tree windows ----------------------------------------


def pair_index(n: int, i: int, j: int) -> int:
    """Arrow id of the pair (i, j) in the pair groupoid on n units."""
    if i == j:
        return i
    return n + i * (n - 1) + (j if j < i else j - 1)


def pair_groupoid(n: int) -> Groupoid:
    """The full equivalence relation on n points; arrow (i, j) runs j -> i.

    One orbit with trivial isotropy: every label is 0, and the normal form's
    row at unit i is ``ids[i]``, with ``ids[i][j] = pair_index(n, i, j)``.
    """
    if n < 1:
        raise BuilderError("pair groupoid needs at least one unit")
    ids = [[pair_index(n, i, j) for j in range(n)] for i in range(n)]
    m = n * n
    src = [0] * m
    rng = [0] * m
    inv = [0] * m
    for i, row in enumerate(ids):
        for j, a in enumerate(row):
            src[a] = j
            rng[a] = i
            inv[a] = ids[j][i]
    return Groupoid(n, src, rng, inv, [0] * m, [TRIVIAL] * n)


def tree_edges(shape: str, size: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a tree.

    ``shape`` is ``"path"`` (size = number of vertices) or ``"binary"``
    (size = depth; vertices are numbered breadth-first so id prefixes are
    subtrees).
    """
    if shape == "path":
        if size < 1:
            raise BuilderError("path needs at least one vertex")
        return size, [(i, i + 1) for i in range(size - 1)]
    if shape == "binary":
        if size < 0:
            raise BuilderError("binary tree depth must be nonnegative")
        n = 2 ** (size + 1) - 1
        return n, [(v, c) for v in range(n) for c in (2 * v + 1, 2 * v + 2) if c < n]
    raise BuilderError(f"unknown tree shape: {shape!r}")


def edge_graphing(g: Groupoid, edges) -> Graphing:
    """The graphing of a tree's edges on the pair groupoid g of its vertices:
    both arrows (u, v) and (v, u) of each edge."""
    n = g.n_units
    q = 0
    for u, v in edges:
        q |= 1 << pair_index(n, u, v) | 1 << pair_index(n, v, u)
    return Graphing(g, ArrowSet(g, q))


def tree_window(shape: str, size: int) -> tuple[Groupoid, Graphing]:
    """Pair groupoid of a tree (``tree_edges``) with its edge graphing."""
    n, edges = tree_edges(shape, size)
    g = pair_groupoid(n)
    return g, edge_graphing(g, edges)


# -- group actions -----------------------------------------------------------


def cyclic_table(k: int) -> list[list[int]]:
    if k < 1:
        raise BuilderError("group order must be positive")
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def rotation_perms(k: int, n_points: int) -> list[tuple[int, ...]]:
    """Z/k rotating each consecutive block of k points."""
    if n_points < 1:
        raise BuilderError("point count must be positive")
    if n_points % k:
        raise BuilderError("point count must be a multiple of the group order")
    perms = []
    for a in range(k):
        perm = []
        for x in range(n_points):
            block = x - x % k
            perm.append(block + (x % k + a) % k)
        perms.append(tuple(perm))
    return perms


def trivial_perms(k: int, n_points: int) -> list[tuple[int, ...]]:
    if n_points < 1:
        raise BuilderError("point count must be positive")
    return [tuple(range(n_points))] * k


def action_groupoid(table: Sequence[Sequence[int]], perms: Sequence[Sequence[int]]) -> Groupoid:
    """Transformation groupoid of a finite group action: the partial action
    with every domain full, on elements 0..k-1 (0 the identity) acting by
    ``perms``.  Arrow (g, x) has id g·n + x and runs x -> g.x; each inverse
    is looked up in ``table``, and ``validate`` judges every axiom."""
    k = len(table)
    n = len(perms[0]) if perms else 0
    if len(perms) != k or any(len(p) != n for p in perms):
        raise BuilderError("one permutation of one point set per group element required")
    if any(len(row) != k for row in table):
        raise BuilderError("multiplication table is not square over the elements")
    inv = {a: b for a in range(k) for b in range(k) if table[a][b] == 0 == table[b][a]}
    mul = {(a, b): table[a][b] for a in range(k) for b in range(k)}
    theta = {a: dict(enumerate(p)) for a, p in enumerate(perms)}
    return partial_action_groupoid(PartialActionSpec(n, tuple(range(k)), inv, mul, theta))


# -- partial actions ----------------------------------------------------------


@dataclass(frozen=True)
class PartialActionSpec:
    """A partial group action on the points 0..n_points-1.

    ``elements`` lists the group elements (identity first); ``theta[g]`` is
    the partial bijection θ_g, whose keys are its domain D_{g⁻¹} and whose
    values are its image D_g.  ``mul`` is partial and may omit products,
    but never one that a composable pair of arrows needs.
    """

    n_points: int
    elements: tuple[Hashable, ...]
    inv: Mapping[Hashable, Hashable]
    mul: Mapping[tuple[Hashable, Hashable], Hashable]
    theta: Mapping[Hashable, Mapping[int, int]]

    @property
    def identity(self) -> Hashable:
        return self.elements[0]


def z_shift_partial_spec(n_points: int) -> PartialActionSpec:
    """The integer shift truncated to a window of n points."""
    if n_points < 1:
        raise BuilderError("window needs at least one point")
    shifts = [0]
    for t in range(1, n_points):
        shifts.extend((t, -t))
    elements = tuple(str(t) for t in shifts)
    inv = {str(t): str(-t) for t in shifts}
    mul = {}
    for a in shifts:
        for b in shifts:
            if abs(a + b) < n_points:
                mul[(str(a), str(b))] = str(a + b)
    theta = {
        str(t): {x: x + t for x in range(max(0, -t), n_points - max(0, t))}
        for t in shifts
    }
    return PartialActionSpec(n_points, elements, inv, mul, theta)


def partial_action_groupoid(spec: PartialActionSpec) -> Groupoid:
    """Transformation groupoid of a partial action (Exel's convention).

    Arrow (g, x) exists for each x in the domain of θ_g and runs
    x -> θ_g(x); ids go by element order, then by point order.  Its inverse
    is (g⁻¹, θ_g(x)), and (g, θ_h(x)) after (h, x) is (gh, x).  The spec is
    checked only as far as indexing needs, and ``validate`` judges the
    partial-action axioms of the result.
    """
    n, e = spec.n_points, spec.elements[0] if spec.elements else None
    if n < 1 or set(spec.theta.get(e, ())) != set(range(n)):
        raise BuilderError(f"theta of the identity {e!r} must be defined on 0..{n - 1}")
    arrows: list[tuple[Hashable, int, int]] = []
    for g_el in spec.elements:
        th = spec.theta.get(g_el)
        if th is None:
            raise BuilderError(f"no theta for element {g_el!r}")
        for x in sorted(th):
            if not (0 <= x < n and 0 <= th[x] < n):
                raise BuilderError(f"theta_{g_el}({x}) = {th[x]} is not a point")
            arrows.append((g_el, x, th[x]))
    index = {(g_el, x): a for a, (g_el, x, _) in enumerate(arrows)}

    def arrow(g_el, x: int, need: str) -> int:
        a = index.get((g_el, x))
        if a is None:
            raise BuilderError(f"{need}: theta_{g_el} is undefined at {x}")
        return a

    inv = [arrow(spec.inv.get(g_el), y, f"inverse of {g_el!r}") for g_el, _, y in arrows]
    comp = []
    for b, (h_el, x, y) in enumerate(arrows):
        for g_el in spec.elements:
            if y in spec.theta[g_el]:
                need = f"product {g_el!r}*{h_el!r}"
                gh = spec.mul.get((g_el, h_el))
                if gh is None:
                    raise BuilderError(f"{need} is needed at point {x} but not listed")
                comp.append((index[g_el, y], b, arrow(gh, x, need)))
    try:
        return from_triples(n, [x for _, x, _ in arrows], [y for *_, y in arrows], inv, comp)
    except AxiomError as exc:
        raise BuilderError(f"partial action violates the groupoid axioms:\n{exc.report}") from None


# -- blow-ups and products -----------------------------------------------------


@dataclass(frozen=True)
class Blowup:
    """Blow-up along a unit surjection, with the projection functor."""

    base: Groupoid
    groupoid: Groupoid
    psi: tuple[int, ...]  # blow-up unit -> base unit
    pi: tuple[int, ...]  # blow-up arrow -> base arrow


def blowup(g: Groupoid, psi: Sequence[int]) -> Blowup:
    """Triples (x, a, y) with psi(x) = rng(a), psi(y) = src(a).

    An orbit X×H×X of ``g`` blows up to the orbit psi⁻¹(X)×H×psi⁻¹(X), so
    (x, a, y) keeps a's label and unit x the table of psi(x).
    """
    psi = tuple(psi)
    if set(psi) != set(range(g.n_units)):
        raise BuilderError("unit map must be surjective onto the base units")
    n_x = len(psi)
    fibers: list[list[int]] = [[] for _ in range(g.n_units)]
    for x, u in enumerate(psi):
        fibers[u].append(x)

    triples = [(x, psi[x], x) for x in range(n_x)]
    for a in range(g.n_arrows):
        for x in fibers[g.rng[a]]:
            for y in fibers[g.src[a]]:
                if a < g.n_units and x == y:
                    continue
                triples.append((x, a, y))
    index = {t: i for i, t in enumerate(triples)}

    src = [t[2] for t in triples]
    rng = [t[0] for t in triples]
    inv = [index[(t[2], g.inv[t[1]], t[0])] for t in triples]
    pi = [t[1] for t in triples]
    label = [g.label[a] for a in pi]
    gb = Groupoid(n_x, src, rng, inv, label, [g.table[u] for u in psi])
    return Blowup(g, gb, psi, tuple(pi))


def replicate_psi(g: Groupoid, multiplicity: int) -> tuple[int, ...]:
    """Unit map duplicating every base unit a fixed number of times."""
    if multiplicity < 1:
        raise BuilderError("multiplicity must be positive")
    return tuple(u for u in range(g.n_units) for _ in range(multiplicity))


@dataclass(frozen=True)
class Product:
    """Componentwise product groupoid with the arrow pairing: arrow (a, b) is
    ``arrow_ids[a][b]``."""

    left: Groupoid
    right: Groupoid
    groupoid: Groupoid
    arrow_ids: tuple[tuple[int, ...], ...]

    def unit_id(self, u: int, v: int) -> int:
        return u * self.right.n_units + v

    def lift_sets(self, left_set: ArrowSet, right_set: ArrowSet) -> ArrowSet:
        """The product window {(a, b) : a in left, b in right}."""
        mask = 0
        for a in left_set:
            row = self.arrow_ids[a]
            for b in right_set:
                mask |= 1 << row[b]
        return ArrowSet(self.groupoid, mask)


def product(gl: Groupoid, gr: Groupoid) -> Product:
    """Componentwise structure; arrows are pairs, units are unit pairs.

    Unit (u, v) has id u·nr + v; the other pairs follow in (a, b) order, in
    the id table ``ids[a][b]``.  Orbits X×H×X and Y×K×Y give the orbit
    (X×Y)×(H×K)×(X×Y), so (a, b) has label h_a·|K| + h_b, and the table of
    H×K is made once for each pair of factor tables.
    """
    nl, nr = gl.n_units, gr.n_units
    ml, mr = gl.n_arrows, gr.n_arrows
    ids = [[0] * mr for _ in range(ml)]
    nxt = nl * nr
    for a in range(ml):
        for b in range(mr):
            if a < nl and b < nr:
                ids[a][b] = a * nr + b
            else:
                ids[a][b] = nxt
                nxt += 1
    src = [0] * nxt
    rng = [0] * nxt
    inv = [0] * nxt
    label = [0] * nxt
    # |K| and h_b of each right arrow b, as the pair (|K|, h_b)
    right = [(len(gr.table[gr.rng[b]]), gr.label[b]) for b in range(mr)]
    for a, row in enumerate(ids):
        s, r, h, inv_row = gl.src[a] * nr, gl.rng[a] * nr, gl.label[a], ids[gl.inv[a]]
        for b, i in enumerate(row):
            src[i] = s + gr.src[b]
            rng[i] = r + gr.rng[b]
            inv[i] = inv_row[gr.inv[b]]
            k, hb = right[b]
            label[i] = h * k + hb
    tables: dict[tuple[int, int], tuple] = {}
    table = []
    for u in range(nl):
        for v in range(nr):
            tl, tr = gl.table[u], gr.table[v]
            key = (id(tl), id(tr))
            if key not in tables:  # (h1, k1)(h2, k2) = (h1 h2, k1 k2)
                k = len(tr)
                tables[key] = tuple(
                    tuple(h * k + hk for h in row_l for hk in row_r) for row_l in tl for row_r in tr
                )
            table.append(tables[key])
    gp = Groupoid(nl * nr, src, rng, inv, label, table)
    return Product(gl, gr, gp, tuple(map(tuple, ids)))


# -- instance files ------------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def instance_to_obj(g: Groupoid) -> dict:
    n, m = g.n_units, g.n_arrows
    arrows = [
        {"id": a, "src": g.src[a], "rng": g.rng[a]} for a in range(n, m)
    ]
    comp = [[a, b, c] for a, b, c in triples(g) if a >= n and b >= n]
    return {"units": n, "arrows": arrows, "inv": list(g.inv), "comp": comp}


def _id(v) -> int:
    """An id or count read from a file: a JSON integer, never a float, a
    string or a bool (TypeError otherwise, which the readers turn into
    LoadError)."""
    if type(v) is not int:
        raise TypeError(f"{v!r} is not an integer")
    return v


def _comp_triple(triple) -> tuple[int, int, int]:
    """One ``[a, b, c]`` entry of a file's ``comp`` list."""
    try:
        a, b, c = triple if isinstance(triple, list) else ()
        return _id(a), _id(b), _id(c)
    except (TypeError, ValueError):
        raise LoadError(f"malformed comp triple {triple!r}") from None


def obj_to_instance(obj) -> Groupoid:
    """The groupoid of an instance object: the triples path reads the
    identity products and the file's triples as one stream."""
    try:
        n = _id(obj["units"])
        arrows = obj["arrows"]
        m = n + len(arrows)
        inv = [_id(v) for v in obj["inv"]]
        comp_triples = iter(obj["comp"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed instance object: {exc}") from exc
    if len(inv) != m:
        raise LoadError(f"inv table has {len(inv)} entries, expected {m}")
    src = list(range(n)) + [0] * len(arrows)
    rng = list(range(n)) + [0] * len(arrows)
    seen = set()
    for entry in arrows:
        try:
            a, s, r = _id(entry["id"]), _id(entry["src"]), _id(entry["rng"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LoadError(f"malformed arrow entry {entry!r}") from exc
        if not n <= a < m:
            raise LoadError(f"arrow id {a} outside the non-identity range {n}..{m - 1}")
        if a in seen:
            raise LoadError(f"duplicate arrow id {a}")
        seen.add(a)
        src[a] = s
        rng[a] = r
    identities = ((x, y, a) for a in range(m) for x, y in ((rng[a], a), (a, src[a])))
    comp = chain(identities, map(_comp_triple, comp_triples))
    try:
        return from_triples(n, src, rng, inv, comp)
    except AxiomError as exc:
        raise LoadError(f"instance violates the groupoid axioms:\n{exc.report}") from None
    except GroupoidError as exc:
        raise LoadError(str(exc)) from exc


def save(g: Groupoid, path) -> None:
    Path(path).write_text(canonical_dumps(instance_to_obj(g)), encoding="utf-8")


def read_json(path):
    """The parsed contents of an input file; text that is not JSON raises LoadError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise LoadError(f"not valid JSON: {exc}") from exc


def load(path) -> Groupoid:
    return obj_to_instance(read_json(path))


def save_graphing(graphing: Graphing, path) -> None:
    Path(path).write_text(
        canonical_dumps({"q": sorted(graphing.q)}), encoding="utf-8"
    )


def load_graphing(g: Groupoid, path) -> Graphing:
    obj = read_json(path)
    try:
        ids = [_id(v) for v in obj["q"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed graphing file: {exc}") from exc
    for a in ids:
        if not 0 <= a < g.n_arrows:
            raise LoadError(f"graphing arrow {a} out of range")
    return Graphing(g, g.arrow_set(ids))
