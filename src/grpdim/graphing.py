"""Graphings: symmetric generating arrow sets with word lengths and balls.

This module sits just above :mod:`grpdim.groupoid` and imports nothing else
of the package, so the builders, the instance loader and the spec parser
can read a graphing without loading the search or the coarse layer.
``CoarseError``, the coarse layer's error, is defined here because a
graphing raises it; :mod:`grpdim.coarse` re-exports both names.
"""

from __future__ import annotations

from .groupoid import (
    ArrowSet,
    Groupoid,
    GroupoidError,
    _same_owner,
    compose_sets,
    iter_bits,
    symmetrize,
    unit_graph,
)


class CoarseError(GroupoidError):
    pass


class Graphing:
    """A symmetric generating arrow set off the units, with word-length data.

    Balls grow from their frontier.  With step = symmetrize(q), ball(0) the
    units and F(r) = ball(r) − ball(r−1) (ball(−1) empty), ball(r+1) =
    step·ball(r−1) ∪ step·F(r) = ball(r) ∪ step·F(r): for r ≥ 1 by the
    definition of ball(r), and for r = 0 because step holds the units.  So
    each level composes step with its frontier only, and each arrow is
    composed once.

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
        step = symmetrize(self.q)
        ball = frontier = g.units_mask
        level = 0
        while True:
            for a in iter_bits(frontier):
                lengths[a] = level
            frontier = compose_sets(step, ArrowSet(g, frontier)).mask & ~ball
            if not frontier:
                break
            level += 1
            ball |= frontier
            self._balls.append(ArrowSet(g, ball))
        if ball != g.arrows_mask:
            raise CoarseError("graphing does not generate the groupoid")
        return tuple(lengths)

    def _check_treeable(self):
        g = self.owner
        joined = [1 << u for u in range(g.n_units)]  # unit -> its component so far
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
            if joined[u] >> v & 1:
                return False, f"generator {a} closes a cycle"
            merged = joined[u] | joined[v]
            for w in iter_bits(merged):
                joined[w] = merged
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
