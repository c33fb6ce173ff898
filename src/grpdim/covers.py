"""n-fold covers of the unit space and the control-function calculus.

A cover is an ordered family of unit sets of one groupoid, read as a cover of
all of its units.  Control functions map windows to containment bounds and
are the driver for the fold-increasing lift in :func:`ostrand_lift`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .groupoid import (
    ArrowSet,
    Groupoid,
    GroupoidError,
    UnitSet,
    _same_owner,
    compose_sets,
    generated,
    iter_bits,
    mask_of,
    power,
)


class CoverError(GroupoidError):
    pass


class _CoverFields(NamedTuple):
    owner: Groupoid
    classes: tuple[UnitSet, ...]


class Cover(_CoverFields):
    """Ordered classes ``U_0..U_k`` over every unit of ``owner``.

    Every class must be a ``UnitSet`` of ``owner``.  The check runs in
    ``__new__`` and in ``_make``, which a namedtuple's ``_replace`` builds
    through and which would otherwise skip ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, owner: Groupoid, classes: tuple[UnitSet, ...]):
        for i, c in enumerate(classes):
            if not isinstance(c, UnitSet):
                raise CoverError(f"cover class {i} is not a UnitSet (got {type(c).__name__})")
            _same_owner(owner, c.owner)
        return super().__new__(cls, owner, classes)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def k(self) -> int:
        return len(self.classes) - 1

    def union_mask(self) -> int:
        out = 0
        for c in self.classes:
            out |= c.mask
        return out


def fold_number(cover: Cover) -> int:
    """Minimum multiplicity of the classes over the units; 0 if uncovered.

    A groupoid with no units is vacuously covered with the maximal fold, the
    number of classes.  Read on the class masks: ``at_least[k]`` is the mask
    of the units in at least k of the classes so far, and the fold is the
    number of k >= 1 whose mask holds every unit.
    """
    units = cover.owner.units_mask
    at_least = [units]
    for c in cover.classes:
        at_least.append(0)
        for k in range(len(at_least) - 1, 0, -1):
            at_least[k] |= at_least[k - 1] & c.mask
    return sum(1 for mask in at_least[1:] if mask == units)


def shrink_nfold(cover: Cover, n: int) -> Cover:
    """Each unit keeps its first n classes and leaves the later ones.

    A unit is dropped from class i once n of the classes before it hold it,
    read from the ``at_least`` ladder of :func:`fold_number` cut at n.  On an
    n-fold cover every unit then lies in exactly n classes.
    """
    if fold_number(cover) < n:
        raise CoverError(f"cover is not {n}-fold")
    g = cover.owner
    at_least = [g.units_mask] + [0] * n
    classes = []
    for c in cover.classes:
        classes.append(UnitSet(g, c.mask & ~at_least[n]))
        for k in range(n, 0, -1):
            at_least[k] |= at_least[k - 1] & c.mask
    return Cover(g, tuple(classes))


class ControlFunction:
    """Window-to-bound map with witness covers, memoized per window.

    ``provider(K)`` returns a pair ``(bound, cover)`` where the ``d+1``-class
    ``cover`` of the unit space satisfies ``generated(K, U_i) <= bound`` for
    every class.  Bounds must be symmetric-with-units supersets of ``K``.
    Each entry is checked once, when the provider first returns it.
    """

    def __init__(self, d: int, provider: Callable[[ArrowSet], tuple[ArrowSet, Cover]]):
        if d < 0:
            raise CoverError("dimension parameter must be nonnegative")
        self.d = d
        self._provider = provider
        self._memo: dict[int, tuple[ArrowSet, Cover]] = {}

    def _entry(self, k_set: ArrowSet) -> tuple[ArrowSet, Cover]:
        key = k_set.mask
        hit = self._memo.get(key)
        if hit is None:
            bound, cover = self._provider(k_set)
            if not bound.is_oc_normal():
                raise CoverError("control bound is not symmetric with units")
            if not k_set <= bound:
                raise CoverError("control bound does not contain its window")
            if len(cover.classes) != self.d + 1:
                raise CoverError(
                    f"control cover has {len(cover.classes)} classes, expected {self.d + 1}"
                )
            if cover.owner.units_mask & ~cover.union_mask():
                raise CoverError("control cover does not cover every unit")
            for i, cls in enumerate(cover.classes):
                if not generated(k_set, cls) <= bound:
                    raise CoverError(f"control cover class {i} generates outside its bound")
            hit = (bound, cover)
            self._memo[key] = hit
        return hit

    def bound(self, k_set: ArrowSet) -> ArrowSet:
        return self._entry(k_set)[0]

    def cover_for(self, k_set: ArrowSet) -> Cover:
        return self._entry(k_set)[1]

    def __repr__(self):
        return f"ControlFunction(d={self.d})"


def control_apply(ctrl: ControlFunction, k_set: ArrowSet, k: int) -> ArrowSet:
    """Iterated bound: level d is the base bound, each level wraps K . (K^3) . K."""
    if k < ctrl.d:
        raise CoverError(f"level {k} below base dimension {ctrl.d}")
    if k == ctrl.d:
        return ctrl.bound(k_set)
    inner = control_apply(ctrl, power(k_set, 3), k - 1)
    return compose_sets(k_set, compose_sets(inner, k_set))


def saturate(k_set: ArrowSet, units: UnitSet) -> UnitSet:
    """The K-orbit of a unit set: ranges of K-arrows with source inside it."""
    _same_owner(k_set.owner, units.owner)
    g = k_set.owner
    reach = 0
    for u in units:
        reach |= g.by_src[u] & k_set.mask
    return UnitSet(g, mask_of(g.rng[a] for a in iter_bits(reach)))


def level_cover(g: Groupoid, ctrl: ControlFunction, k_set: ArrowSet, k: int) -> Cover:
    """The ``k+1``-class cover of ``k_set``: the control function's own at
    its dimension, above it the lift of the level below."""
    if k == ctrl.d:
        return ctrl.cover_for(k_set)
    return ostrand_lift(g, ctrl, k_set, k - 1)


def ostrand_lift(g: Groupoid, ctrl: ControlFunction, k_set: ArrowSet, k: int) -> Cover:
    """Lift a level-k cover family to level k+1, gaining one fold.

    The level-k cover for the cubed window is shrunk, so that every unit lies
    in exactly ``k+1-d`` classes, saturated by the window, and completed by a
    residual class: the units that no saturation adds to a class that does
    not hold them.  The returned ``k+2``-class cover is ``(k+2-d)``-fold and
    every class generates inside ``control_apply(ctrl, k_set, k+1)``; both
    facts are re-verified before returning.
    """
    if k < ctrl.d:
        raise CoverError(f"lift level {k} below base dimension {ctrl.d}")
    if not k_set.is_oc_normal():
        raise CoverError("window must be symmetric with units")
    d = ctrl.d
    cubed = power(k_set, 3)
    # checked against control_apply(ctrl, cubed, k) by ctrl at level d, else by the lift
    level = level_cover(g, ctrl, cubed, k)

    shrunk = shrink_nfold(level, k + 1 - d)
    saturated = [saturate(k_set, v) for v in shrunk.classes]

    # residual class: the units inside every V_j of some (k+1-d)-set S of
    # indices and clear of the saturations of the classes outside S.  A unit
    # lies in exactly k+1-d classes V_j, so S can only be its own memberships
    added = 0
    for v, sat in zip(shrunk.classes, saturated):
        added |= sat.mask & ~v.mask
    residual = g.units_mask & ~added

    classes = tuple(saturated) + (UnitSet(g, residual),)
    lifted = Cover(g, classes)

    new_fold = fold_number(lifted)
    if new_fold < k + 2 - d:
        raise CoverError(f"lifted cover is only {new_fold}-fold, expected {k + 2 - d}")
    bound = control_apply(ctrl, k_set, k + 1)
    for i, cls in enumerate(lifted.classes):
        if not generated(k_set, cls) <= bound:
            raise CoverError(f"lifted class {i} generates outside the level-{k + 1} bound")
    return lifted
