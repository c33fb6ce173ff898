import random
from itertools import product as iproduct

import pytest

from conftest import (
    assert_frozen_record,
    check_nfold_subfamilies,
    enumerated_residual,
    ladder_windows,
    random_arrow_set,
    unit_by_unit_shrink,
    whole_powers,
)
from grpdim import (
    ArrowSet,
    ControlFunction,
    Cover,
    CoverError,
    Groupoid,
    OwnerMismatchError,
    control_apply,
    discover_control_function,
    fold_number,
    generated,
    kl_dad_check,
    kl_dad_search,
    ostrand_lift,
    pair_groupoid,
    power,
    shrink_nfold,
    UnitSet,
    tree_window,
)
from grpdim.covers import level_cover, saturate


def line(n):
    g, graphing = tree_window("path", n)
    return g, graphing.ball(1)


def cover_of(g, *classes):
    return Cover(g, tuple(g.unit_set(c) for c in classes))


def assert_lift_matches_oracles(k_set, level, n, lifted):
    """Shrink ``level`` to n-fold and saturate it by ``k_set`` again; the
    shrink equals the unit-by-unit oracle, and ``lifted`` is the saturations
    followed by the enumerated residual."""
    shrunk = shrink_nfold(level, n)
    assert shrunk == unit_by_unit_shrink(level, n)
    saturated = [saturate(k_set, v) for v in shrunk.classes]
    assert lifted.classes == (*saturated, enumerated_residual(shrunk, saturated, n))


def lift_with_oracles(g, ctrl, k_set, k):
    """``ostrand_lift`` at level k, checked against the oracles on the
    level-k cover of the cubed window that it lifts."""
    lifted = ostrand_lift(g, ctrl, k_set, k)
    level = level_cover(g, ctrl, power(k_set, 3), k)
    assert_lift_matches_oracles(k_set, level, k + 1 - ctrl.d, lifted)
    return lifted


def test_fold_number_basic():
    g = pair_groupoid(7)
    full = cover_of(g, range(7), range(7), range(7))
    assert fold_number(full) == 3
    halves = cover_of(g, range(4), range(3, 7))
    assert fold_number(halves) == 1
    uncovered = cover_of(g, range(3))
    assert fold_number(uncovered) == 0
    # no units: vacuously covered with the maximal fold
    no_units = cover_of(Groupoid(0, (), (), (), (), ()), [], [])
    assert fold_number(no_units) == 2


def test_cover_record():
    g = pair_groupoid(4)
    cover = cover_of(g, [0, 1], [1, 2, 3])
    assert_frozen_record(cover, ("owner", "classes"))
    assert cover.k == 1
    assert cover.union_mask() == 0b1111
    assert cover_of(g, [2]).union_mask() == 0b100
    assert cover != cover_of(g, [0, 1], [2, 3])
    assert cover._replace(classes=cover.classes[:1]).k == 0


def test_cover_classes_are_unit_sets_of_its_owner():
    # an arrow set is not a class: fold_number would read it as one, and the
    # check of the witness would then index past the units
    g = pair_groupoid(4)
    other = pair_groupoid(4)
    cover = cover_of(g, range(4))
    with pytest.raises(CoverError, match=r"class 0 is not a UnitSet \(got ArrowSet\)"):
        Cover(g, (g.all_arrows(),))
    with pytest.raises(OwnerMismatchError):
        Cover(g, (g.all_units(), other.all_units()))
    # _replace and _make would otherwise skip Cover's own constructor
    with pytest.raises(CoverError, match="not a UnitSet"):
        cover._replace(classes=(g.all_units(), g.all_arrows()))
    with pytest.raises(OwnerMismatchError):
        cover._replace(classes=(other.all_units(),))
    with pytest.raises(OwnerMismatchError):
        cover._replace(owner=other)
    with pytest.raises(CoverError, match="not a UnitSet"):
        Cover._make((g, (g.all_arrows(),)))
    assert kl_dad_check(g, g.all_arrows(), g.all_arrows(), cover).certified


def test_check_nfold_subfamilies_examples():
    g = pair_groupoid(3)
    triple = cover_of(g, [0, 1], [1, 2], [0, 2])
    assert check_nfold_subfamilies(triple, 1)
    assert check_nfold_subfamilies(triple, 2)
    assert not check_nfold_subfamilies(triple, 3)
    with pytest.raises(CoverError):
        check_nfold_subfamilies(triple, 4)


def test_nfold_criterion_equals_fold_number_exhaustive_small():
    g = pair_groupoid(4)
    n_units = 4
    subsets = list(range(1 << n_units))
    for k_classes in (1, 2, 3):
        for classes in iproduct(subsets, repeat=k_classes):
            cover = Cover(
                g,
                tuple(g.unit_set([u for u in range(n_units) if m >> u & 1]) for m in classes),
            )
            fold = fold_number(cover)
            for n in range(0, k_classes + 1):
                assert check_nfold_subfamilies(cover, n) == (fold >= n)


def test_shrink_keeps_lowest_classes():
    g = pair_groupoid(5)
    all_equal = cover_of(g, range(5), range(5), range(5))
    shrunk = shrink_nfold(all_equal, 1)
    assert sorted(shrunk.classes[0]) == list(range(5))
    assert not shrunk.classes[1] and not shrunk.classes[2]


def test_shrink_fixed_point_and_violation():
    g = pair_groupoid(3)
    triple = cover_of(g, [0, 1], [1, 2], [0, 2])
    assert shrink_nfold(triple, 2).classes == triple.classes
    minimal = cover_of(g, [0, 1], [2])
    assert shrink_nfold(minimal, 1).classes == minimal.classes
    with pytest.raises(CoverError):
        shrink_nfold(minimal, 2)


def test_shrink_preserves_fold_randomized():
    rng = random.Random(5)
    g = pair_groupoid(6)
    for _ in range(50):
        classes = [
            [u for u in range(6) if rng.random() < 0.7] for _ in range(rng.randint(1, 4))
        ]
        cover = cover_of(g, *classes)
        fold = fold_number(cover)
        for n in range(fold + 1):
            shrunk = shrink_nfold(cover, n)
            assert fold_number(shrunk) >= n
            for small, big in zip(shrunk.classes, cover.classes):
                assert small <= big


def test_control_apply_base_and_memo():
    g, k = line(9)
    ctrl = discover_control_function(g, 1)
    assert control_apply(ctrl, k, 1) == ctrl.bound(k)
    with pytest.raises(CoverError):
        control_apply(ctrl, k, 0)
    # K . D(K^3) . K at the next level
    expected = power(k, 1 + 3 * len_exponent(g, ctrl, k) + 1)
    assert control_apply(ctrl, k, 2) == expected


def len_exponent(g, ctrl, k):
    """Exponent j with ctrl.bound(K^3) == K^(3j) on a line window."""
    bound = ctrl.bound(power(k, 3))
    j = 0
    while power(k, j) != bound:
        j += 1
        if j > 40:
            raise AssertionError("bound is not a power of K")
    return j // 3


def test_control_apply_fixed_rule_line():
    # D(K) := K^4 is a valid 1-dimensional rule for the P_9 line window
    g, k = line(9)

    def provider(k_set):
        bound = power(k_set, 4)
        witness = kl_dad_search(g, k_set, bound, 1)
        assert witness is not None
        classes = witness.cover.classes
        classes += tuple(g.unit_set() for _ in range(2 - len(classes)))
        return bound, Cover(g, classes)

    ctrl = ControlFunction(1, provider)
    # K . (K^3)^4 . K = K^14
    assert control_apply(ctrl, k, 2) == power(k, 14)


def test_control_absorbs_units_window():
    g, k = line(7)
    ctrl = discover_control_function(g, 1)
    units = ArrowSet(g, g.units_mask)
    for level in (1, 2, 3):
        assert control_apply(ctrl, units, level) == ctrl.bound(units)


def test_ostrand_lift_line_trace():
    g, k = line(7)
    ctrl = discover_control_function(g, 1)
    lifted = lift_with_oracles(g, ctrl, k, 1)
    assert [sorted(c) for c in lifted.classes] == [
        [0, 1, 2, 3, 4],
        [3, 4, 5, 6],
        [0, 1, 2, 5, 6],
    ]
    assert fold_number(lifted) == 2
    bound = control_apply(ctrl, k, 2)
    assert bound == power(k, 5)
    for cls in lifted.classes:
        assert generated(k, cls) <= bound


def test_ostrand_lift_dimension_zero():
    g, k = line(6)
    ctrl = discover_control_function(g, 0)
    lifted = lift_with_oracles(g, ctrl, k, 0)
    assert len(lifted.classes) == 2
    assert fold_number(lifted) >= 2
    for cls in lifted.classes:
        assert generated(k, cls) <= control_apply(ctrl, k, 1)


def test_ostrand_lift_iterated_levels():
    g, k = line(7)
    ctrl = discover_control_function(g, 1)
    for level in (1, 2):
        lifted = lift_with_oracles(g, ctrl, k, level)
        assert len(lifted.classes) == level + 2
        assert fold_number(lifted) >= level + 2 - 1
        bound = control_apply(ctrl, k, level + 1)
        for cls in lifted.classes:
            assert generated(k, cls) <= bound


def test_ostrand_lift_rejects_bad_producer():
    g, k = line(7)

    def cheat(k_set):
        # claims a one-class cover bounded by the window itself: false for lines
        return k_set, Cover(g, (g.all_units(), g.unit_set()))

    with pytest.raises(CoverError):
        ostrand_lift(g, ControlFunction(1, cheat), k, 1)


def test_control_cover_must_cover_every_unit():
    # the provider's classes miss unit 6; its bound is honest
    g, k = line(7)

    def provider(k_set):
        return g.all_arrows(), Cover(g, (g.unit_set(range(6)), g.unit_set()))

    with pytest.raises(CoverError, match="control cover does not cover"):
        ControlFunction(1, provider).bound(k)


def test_saturation_contains_the_set():
    g, k = line(9)
    for ids in ([0, 4], [2, 3, 8], []):
        units = g.unit_set(ids)
        assert units <= saturate(k, units)


def test_ostrand_lift_duplicate_class_producer():
    # identical full classes already carry the fold; the lift must stay valid
    g, k = line(4)
    full = g.all_arrows()

    def provider(k_set):
        return full, Cover(g, (g.all_units(), g.all_units()))

    lifted = lift_with_oracles(g, ControlFunction(1, provider), k, 1)
    assert fold_number(lifted) >= 2
    assert len(lifted.classes) == 3


def test_ostrand_lift_has_no_level_cap():
    # the residual is one mask expression, not an enumeration of subsets
    # binomial in the level, so level 13 lifts like any other
    g, k = line(4)
    ctrl = discover_control_function(g, 0)
    lifted = lift_with_oracles(g, ctrl, k, 13)
    assert len(lifted.classes) == 15
    assert fold_number(lifted) == 15
    bound = control_apply(ctrl, k, 14)
    for cls in lifted.classes:
        assert generated(k, cls) <= bound


def test_shrink_and_residual_equal_their_oracles_on_random_covers(monkeypatch):
    # the lift is handed a random level-k cover of fold >= k+1-d in place of
    # the one it would build; the control bound is every arrow, so the lift
    # certifies whatever the cover
    import grpdim.covers as covers

    rng = random.Random(33)
    groupoids = [pair_groupoid(n) for n in range(1, 13)]
    for _ in range(2000):
        g = rng.choice(groupoids)
        k = rng.randint(0, 6)
        d = rng.randint(0, k)
        n = k + 1 - d
        masks = [0] * (k + 1)
        for x in range(g.n_units):
            for i in rng.sample(range(k + 1), rng.randint(n, k + 1)):
                masks[i] |= 1 << x
        level = Cover(g, tuple(UnitSet(g, m) for m in masks))
        single = Cover(g, (g.all_units(),) + (g.unit_set(),) * d)
        ctrl = ControlFunction(d, lambda k_set, g=g, single=single: (g.all_arrows(), single))
        k_set = random_arrow_set(rng, g, rng.random())
        monkeypatch.setattr(covers, "level_cover", lambda *args, level=level: level)
        assert_lift_matches_oracles(k_set, level, n, ostrand_lift(g, ctrl, k_set, k))


def least_power_bound(g, k, d):
    """The least of K^1, K^2, ... up to the stable power, read from the
    whole-power oracle, that admits a d-witness.  One always does: the
    stable power is generated(K, all units), so one class is a 0-witness."""
    ladder = whole_powers(k)
    return next(bound for bound in ladder[1:] or ladder  # K^1 = K^0 when K is the units
                if kl_dad_search(g, k, bound, d) is not None)


def test_discovered_bounds_agree_with_the_whole_power_oracle():
    for k in ladder_windows():
        for d in (0, 1):
            assert discover_control_function(k.owner, d).bound(k) == least_power_bound(k.owner, k, d)


def test_discovery_on_the_units_searches_the_units_once(monkeypatch):
    # K = units: K^0 = K^1, and that one bound is searched
    import grpdim.dad as dad

    g, _ = line(5)
    units = ArrowSet(g, g.units_mask)
    searched = []

    def search(g, k_set, l_set, d_max):
        searched.append(l_set)
        return kl_dad_search(g, k_set, l_set, d_max)

    monkeypatch.setattr(dad, "kl_dad_search", search)
    for d in (0, 1):
        assert discover_control_function(g, d).bound(units) == units
    assert searched == [units, units]
