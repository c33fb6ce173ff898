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
    _powers,
    _same_owner,
    iter_bits,
    symmetrize,
    unit_graph,
)


class CoarseError(GroupoidError):
    pass


class Graphing:
    """A symmetric generating arrow set off the units, with word-length data.

    The balls are the power ladder of symmetrize(q) (``groupoid._powers``),
    and an arrow's word length is the radius of the first ball that holds it.

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
        self._balls = list(_powers(symmetrize(q_set)))
        if self._balls[-1].mask != owner.arrows_mask:
            raise CoarseError("graphing does not generate the groupoid")
        lengths = [-1] * owner.n_arrows
        inner = [0] + [ball.mask for ball in self._balls]  # ball r - 1, by r
        for r, ball in enumerate(self._balls):
            for a in iter_bits(ball.mask & ~inner[r]):
                lengths[a] = r
        self.lengths = tuple(lengths)
        self.treeable, self.failure = self._check_treeable()
        self.adjacency = unit_graph(owner, q_set)  # per unit, its neighbours' mask

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
        return self._balls[min(r, len(self._balls) - 1)]

    def length(self, a: int) -> int:
        return self.lengths[a]
