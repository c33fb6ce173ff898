"""Instance generators for the example families, plus JSON (de)serialization.

Every builder output passes :func:`grpdim.groupoid.validate`, and action
builds are judged by it: no builder checks the group or action axioms itself.
The loader rejects files whose tables violate the axioms and embeds the
validation report in the error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

from .coarse import Graphing
from .groupoid import ArrowSet, Groupoid, GroupoidError, iter_bits, validate


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
    """The full equivalence relation on n points; arrow (i, j) runs j -> i."""
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
    return Groupoid(n, src, rng, inv, comp)


def tree_window(shape: str, size: int) -> tuple[Groupoid, Graphing]:
    """Pair groupoid of a tree with its edge graphing.

    ``shape`` is ``"path"`` (size = number of vertices) or ``"binary"``
    (size = depth; vertices are numbered breadth-first so id prefixes are
    subtrees).
    """
    if shape == "path":
        if size < 1:
            raise BuilderError("path needs at least one vertex")
        n = size
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "binary":
        if size < 0:
            raise BuilderError("binary tree depth must be nonnegative")
        n = 2 ** (size + 1) - 1
        edges = [(v, c) for v in range(n) for c in (2 * v + 1, 2 * v + 2) if c < n]
    else:
        raise BuilderError(f"unknown tree shape: {shape!r}")
    g = pair_groupoid(n)
    q = 0
    for u, v in edges:
        q |= 1 << pair_index(n, u, v)
        q |= 1 << pair_index(n, v, u)
    return g, Graphing(g, ArrowSet(g, q))


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
    """Transformation groupoid of a finite group action; arrow (g, x) has id
    g·n + x and runs x -> g.x.  Inputs are checked as far as indexing needs;
    ``validate`` judges the group and action axioms."""
    k = len(table)
    if len(perms) != k:
        raise BuilderError("one permutation per group element required")
    n = len(perms[0]) if perms else 0
    for row in table:
        if len(row) != k or any(not 0 <= v < k for v in row):
            raise BuilderError("multiplication table is not square over the elements")
    inv_el = [None] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == 0 and table[b][a] == 0:
                inv_el[a] = b
    if any(v is None for v in inv_el):
        raise BuilderError("some element has no inverse")
    if n < 1 or any(len(p) != n or any(not 0 <= v < n for v in p) for p in perms):
        raise BuilderError("action values are not maps of one nonempty point set")
    src = [x for _ in perms for x in range(n)]
    rng = [y for p in perms for y in p]
    inv = [inv_el[g_el] * n + y for g_el, p in enumerate(perms) for y in p]
    comp = (  # (g, h.x) after (h, x) lands at (gh, x)
        (g_el * n + perms[h_el][x], h_el * n + x, table[g_el][h_el] * n + x)
        for g_el in range(k)
        for h_el in range(k)
        for x in range(n)
    )
    g = Groupoid(n, src, rng, inv, comp)
    report = validate(g)
    if not report.ok:
        raise BuilderError(f"action violates the groupoid axioms:\n{report}")
    return g


# -- partial actions ----------------------------------------------------------


@dataclass(frozen=True)
class PartialActionSpec:
    """A partial group action on a finite window.

    ``elements`` lists the group elements with nonempty domains (identity
    first); ``mul`` is partial and may omit products, but never one that a
    composable pair of arrows needs.  ``theta[g]`` maps the domain of the
    inverse onto the domain of ``g``.
    """

    n_points: int
    elements: tuple[str, ...]
    inv: Mapping[str, str]
    mul: Mapping[tuple[str, str], str]
    domains: Mapping[str, frozenset[int]]
    theta: Mapping[str, Mapping[int, int]]

    @property
    def identity(self) -> str:
        return self.elements[0]

    def verify(self) -> None:
        e = self.identity
        pts = frozenset(range(self.n_points))
        if self.domains.get(e) != pts:
            raise BuilderError("identity domain must be the full window")
        if dict(self.theta.get(e, {})) != {x: x for x in range(self.n_points)}:
            raise BuilderError("identity must act as the identity map")
        for g_el in self.elements:
            gi = self.inv.get(g_el)
            if gi not in self.elements:
                raise BuilderError(f"inverse of {g_el!r} is not listed")
            dom = self.domains.get(g_el)
            th = dict(self.theta.get(g_el, {}))
            if dom is None:
                raise BuilderError(f"no domain for element {g_el!r}")
            if set(th.keys()) != set(self.domains[gi]):
                raise BuilderError(f"theta_{g_el} is not defined on the inverse domain")
            if sorted(th.values()) != sorted(dom):
                raise BuilderError(f"theta_{g_el} is not onto its domain")
            if len(set(th.values())) != len(th):
                raise BuilderError(f"theta_{g_el} is not injective")
            back = dict(self.theta.get(gi, {}))
            if any(back.get(v) != k for k, v in th.items()):
                raise BuilderError(f"theta_{gi} is not inverse to theta_{g_el}")
        for g_el in self.elements:
            for h_el in self.elements:
                th_h = self.theta[h_el]
                dom_gi = self.domains[self.inv[g_el]]
                for x, hx in th_h.items():
                    if hx not in dom_gi:
                        continue
                    prod = self.mul.get((g_el, h_el))
                    if prod is None or prod not in self.elements:
                        raise BuilderError(
                            f"extension axiom fails: product {g_el!r}*{h_el!r} "
                            f"is needed at point {x} but not listed"
                        )
                    if x not in self.theta[prod]:
                        raise BuilderError(
                            f"extension axiom fails: theta_{prod} undefined at {x}"
                        )
                    if self.theta[prod][x] != self.theta[g_el][hx]:
                        raise BuilderError(
                            f"extension axiom fails: theta_{prod}({x}) != "
                            f"theta_{g_el}(theta_{h_el}({x}))"
                        )


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
    domains = {}
    theta = {}
    for t in shifts:
        lo, hi = max(0, t), n_points - 1 + min(0, t)
        domains[str(t)] = frozenset(range(lo, hi + 1))
        theta[str(t)] = {x: x + t for x in range(lo - t, hi - t + 1)}
    return PartialActionSpec(n_points, elements, inv, mul, domains, theta)


def partial_action_groupoid(spec: PartialActionSpec) -> Groupoid:
    """Arrows (g, x) with x in the domain of g; multiplication via the action."""
    spec.verify()
    n = spec.n_points
    arrows: list[tuple[str, int]] = [(spec.identity, x) for x in range(n)]
    for g_el in spec.elements[1:]:
        arrows.extend((g_el, x) for x in sorted(spec.domains[g_el]))
    index = {ax: i for i, ax in enumerate(arrows)}

    src = []
    rng = []
    inv = []
    for g_el, x in arrows:
        back = spec.theta[spec.inv[g_el]]
        src.append(back[x])
        rng.append(x)
        inv.append(index[(spec.inv[g_el], back[x])])
    comp = []
    for a, (g_el, x) in enumerate(arrows):
        y = src[a]
        for h_el in spec.elements:
            if y not in spec.domains[h_el]:
                continue
            b = index[(h_el, y)]
            comp.append((a, b, index[(spec.mul[g_el, h_el], x)]))
    return Groupoid(n, src, rng, inv, comp)


# -- blow-ups and products -----------------------------------------------------


@dataclass(frozen=True)
class Blowup:
    """Blow-up along a unit surjection, with the projection functor."""

    base: Groupoid
    groupoid: Groupoid
    psi: tuple[int, ...]  # blow-up unit -> base unit
    pi: tuple[int, ...]  # blow-up arrow -> base arrow


def blowup(g: Groupoid, psi: Sequence[int]) -> Blowup:
    """Triples (x, a, y) with psi(x) = rng(a), psi(y) = src(a)."""
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
    m = g.n_arrows
    comp = (
        (i, index[(y, b, z)], index[(x, g.comp[a * m + b], z)])
        for i, (x, a, y) in enumerate(triples)
        for b in iter_bits(g.by_rng[g.src[a]])
        for z in fibers[g.src[b]]
    )
    gb = Groupoid(n_x, src, rng, inv, comp)
    return Blowup(g, gb, psi, tuple(pi))


def replicate_psi(g: Groupoid, multiplicity: int) -> tuple[int, ...]:
    """Unit map duplicating every base unit a fixed number of times."""
    if multiplicity < 1:
        raise BuilderError("multiplicity must be positive")
    return tuple(u for u in range(g.n_units) for _ in range(multiplicity))


@dataclass(frozen=True)
class Product:
    """Componentwise product groupoid with the arrow pairing."""

    left: Groupoid
    right: Groupoid
    groupoid: Groupoid
    arrow_ids: Mapping[tuple[int, int], int]

    def unit_id(self, u: int, v: int) -> int:
        return u * self.right.n_units + v

    def lift_sets(self, left_set: ArrowSet, right_set: ArrowSet) -> ArrowSet:
        """The product window {(a, b) : a in left, b in right}."""
        mask = 0
        for a in left_set:
            for b in right_set:
                mask |= 1 << self.arrow_ids[(a, b)]
        return ArrowSet(self.groupoid, mask)


def product(gl: Groupoid, gr: Groupoid) -> Product:
    """Componentwise structure; arrows are pairs, units are unit pairs."""
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
    ml, mr = gl.n_arrows, gr.n_arrows
    right = [(*divmod(kr, mr), cr) for kr, cr in gr.comp.items()]
    comp = (
        (ids[(a1, b1)], ids[(a2, b2)], ids[(cl, cr)])
        for kl, cl in gl.comp.items()
        for a1, a2 in [divmod(kl, ml)]
        for b1, b2, cr in right
    )
    gp = Groupoid(nl * nr, src, rng, inv, comp)
    return Product(gl, gr, gp, ids)


# -- instance files ------------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def instance_to_obj(g: Groupoid) -> dict:
    n, m = g.n_units, g.n_arrows
    arrows = [
        {"id": a, "src": g.src[a], "rng": g.rng[a]} for a in range(n, m)
    ]
    comp = sorted(
        [a, b, c]
        for key, c in g.comp.items()
        for a, b in [divmod(key, m)]
        if a >= n and b >= n
    )
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
    """The groupoid of an instance object: the constructor reads the identity
    products and the file's triples as one stream."""
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
        g = Groupoid(n, src, rng, inv, comp)
    except GroupoidError as exc:
        raise LoadError(str(exc)) from exc
    report = validate(g)
    if not report.ok:
        raise LoadError(f"instance violates the groupoid axioms:\n{report}")
    return g


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
