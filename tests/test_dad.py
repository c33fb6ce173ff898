import random

import pytest

from conftest import (
    assert_frozen_record,
    brute_dad_search,
    disjoint_union,
    pair_blocks_groupoid,
    random_arrow_set,
    random_groupoid,
    random_principal_groupoid,
    recursive_generic_search,
    relabel_units,
    tables_of,
)
import grpdim.dad as dad_module
from grpdim import (
    Cover,
    GroupoidError,
    HypothesisError,
    WitnessError,
    action_groupoid,
    blowup,
    blowup_lift,
    blowup_transfer,
    cyclic_table,
    generated,
    glue_chain,
    glue_two,
    is_principal,
    kl_dad_check,
    kl_dad_search,
    pair_groupoid,
    power,
    product,
    product_combine,
    pullback_witness,
    replicate_psi,
    restrict,
    rotation_perms,
    symmetrize,
    tree_window,
    trivial_perms,
    union_combine,
)
from grpdim.artifacts import read_witness
from grpdim.covers import control_apply, fold_number, ostrand_lift
from grpdim.dad import discover_control_function, map_arrows_back


def line(n):
    g, graphing = tree_window("path", n)
    return g, graphing.ball(1)


def cover_of(g, *classes):
    return Cover(g, tuple(g.unit_set(c) for c in classes))


# -- kl_dad_check -------------------------------------------------------------


def test_check_trivial_witness():
    g, k = line(5)
    w = kl_dad_check(g, k, g.all_arrows(), cover_of(g, range(5)))
    assert w.certified and w.d == 0


def test_check_line_split():
    g, k = line(7)
    l2 = power(k, 2)
    w = kl_dad_check(g, k, l2, cover_of(g, [0, 1, 2, 6], [3, 4, 5]))
    assert w.certified
    assert [len(s) for s in w.generated_per_class] == [10, 9]
    whole = kl_dad_check(g, k, l2, cover_of(g, range(7)))
    assert not whole.certified  # generates the full pair groupoid


def test_check_base_mismatch():
    # a witness file states its cover's base; a re-check accepts only every unit
    g, k = line(5)
    obj = kl_dad_check(g, k, g.all_arrows(), cover_of(g, range(5))).to_json_obj()
    small_base = dict(obj, cover={"base": [0, 1], "classes": [[0, 1]]})
    with pytest.raises(WitnessError):
        read_witness(g, small_base)
    # K holds every unit, so s(K) | r(K) is every unit, even when K is the units
    missing_one = dict(obj, cover=dict(obj["cover"], base=[0, 1, 3, 4]))
    for window in (k, g.arrow_set(range(5))):
        with pytest.raises(WitnessError, match=r"cover base does not contain s\(K\) \| r\(K\)"):
            read_witness(g, dict(missing_one, k=sorted(window)))


def test_check_requires_normal_sets():
    g, k = line(5)
    bare = g.arrow_set([g.n_units + 1])
    with pytest.raises(WitnessError):
        kl_dad_check(g, bare, g.all_arrows(), cover_of(g, range(5)))


# -- kl_dad_search ------------------------------------------------------------


def test_search_trivial_bound():
    g, k = line(6)
    w = kl_dad_search(g, k, g.all_arrows(), 2)
    assert w.d == 0 and w.certified


def test_search_line_needs_two_classes():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    assert w.d == 1 and w.certified
    assert kl_dad_search(g, k, power(k, 2), 0) is None


def test_search_at_window_bound_line7():
    # components of each class must be single edges or isolated points;
    # {0,1},{3,4},{6} vs {2},{5} is such a split, so a witness exists
    g, k = line(7)
    w = kl_dad_search(g, k, k, 1)
    assert w is not None and w.certified and w.d == 1
    for gen in w.generated_per_class:
        assert gen <= k


def test_search_sound_and_lexleast_vs_bruteforce():
    rng = random.Random(13)
    instances = [
        line(5),
        line(7),
        (pair_blocks_groupoid([[0, 1, 2], [3, 4]], 5), None),
        (action_groupoid(cyclic_table(4), rotation_perms(4, 4)), None),
        (action_groupoid(cyclic_table(2), [tuple(range(3))] * 2), None),
        (disjoint_union([pair_groupoid(2), pair_groupoid(3)]), None),
    ]
    for g, k in instances:
        if k is None:
            k = symmetrize(g.arrow_set(
                [a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.6]
            ))
        for l_set in (k, power(k, 2)):
            got = kl_dad_search(g, k, l_set, 1)
            expected = brute_dad_search(g, k, l_set, 1)
            if expected is None:
                assert got is None
            else:
                d, cover = expected
                assert got is not None and got.d == d
                assert got.cover.classes == cover.classes


def test_search_greedy_sound():
    rng = random.Random(29)
    for _ in range(10):
        g = random_principal_groupoid(rng, 30)
        k = symmetrize(g.arrow_set(
            [a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.5]
        ))
        w = kl_dad_search(g, k, power(k, 2), 2, mode="greedy")
        if w is not None:
            again = kl_dad_check(g, w.K, w.L, w.cover)
            assert again.certified


def test_search_monotone_in_scales():
    g, k = line(9)
    w = kl_dad_search(g, k, power(k, 2), 2)
    assert w is not None
    bigger = kl_dad_search(g, k, power(k, 3), 2)
    assert bigger is not None and bigger.d <= w.d


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_search_tries_no_d_past_the_unit_count(monkeypatch, mode):
    # Z/2 acting trivially on 5 points, K = all, L = units: every class
    # generates the isotropy outside L, so every d is refuted, and past
    # d = 4 no new partition exists
    g = action_groupoid(cyclic_table(2), trivial_perms(2, 5))
    runs = {"partition_search": 0, "_generic_search": 0}
    for name in runs:
        engine = getattr(dad_module, name)

        def counted(*args, _engine=engine, _name=name):
            runs[_name] += 1
            assert runs[_name] <= g.n_units  # fail at once, not after 10**6 runs
            return _engine(*args)

        monkeypatch.setattr(dad_module, name, counted)
    units = symmetrize(g.arrow_set())  # the unit arrows
    assert kl_dad_search(g, g.all_arrows(), units, 10**6, mode) is None
    assert max(runs.values()) == g.n_units


def test_generic_engine_decides_where_the_shadow_cover_fails(monkeypatch):
    # a twisted triangle: pair(3) × Z/2 acting trivially on a point, K the
    # units and (1,e,0), (2,e,1), (0,t,2) symmetrized, L the units and every
    # (x,e,y).  The shadow takes any class, but a class holding all three
    # units generates the loop (0,t,0) outside L, so its least cover fails
    # on g and the generic engine decides each d
    g = product(pair_groupoid(3), action_groupoid(cyclic_table(2), trivial_perms(2, 1))).groupoid

    def arrow(x, h, y):
        return g.at[x][h][g.pos[y]]

    k_set = symmetrize(g.arrow_set([arrow(1, 0, 0), arrow(2, 0, 1), arrow(0, 1, 2)]))
    l_set = g.arrow_set(arrow(x, 0, y) for x in range(3) for y in range(3))
    runs = 0
    engine = dad_module._generic_search

    def counted(*args):
        nonlocal runs
        runs += 1
        return engine(*args)

    monkeypatch.setattr(dad_module, "_generic_search", counted)
    assert kl_dad_search(g, k_set, l_set, 0) is None and runs == 1
    runs = 0
    w = kl_dad_search(g, k_set, l_set, 1)
    assert w.certified and runs == 2
    masks = [c.mask for c in w.cover.classes]
    assert masks == [3, 4] == recursive_generic_search(g, k_set, l_set, 1)


def test_witness_json_roundtrip():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    again = read_witness(g, w.to_json_obj())
    assert again.certified and again.cover.classes == w.cover.classes
    assert w.to_json_obj()["cover"]["base"] == list(range(g.n_units))


def test_dad_witness_record():
    g, k = line(7)
    w = kl_dad_check(g, k, power(k, 2), cover_of(g, [0, 1, 2, 6], [3, 4, 5]))
    assert_frozen_record(w, ("cover", "K", "L", "generated_per_class", "certified"))
    assert w != w._replace(certified=False)
    assert w.d == 1 and w.owner is g
    assert w.reach == w.generated_per_class[0] | w.generated_per_class[1]
    assert w.to_json_obj()["d"] == 1
    assert read_witness(g, w.to_json_obj()) == w


# -- gluing -------------------------------------------------------------------


def test_gluing_certificate_record():
    g, k0 = line(13)
    v0, v1 = g.unit_set(range(7)), g.unit_set(range(6, 13))
    k1 = power(k0, 7)
    cert = glue_two(g, v0, v1, k0, k1, power(k1, 21))
    assert_frozen_record(cert, ("holds", "generated_set", "bound"))
    assert cert != cert._replace(holds=False)
    # truth is the verdict, not the tuple's length
    assert bool(cert) is True
    assert bool(cert._replace(holds=False)) is False


def test_glue_two_degenerate_union():
    g, k = line(9)
    v0 = g.unit_set(range(5))
    k1 = symmetrize(generated(k, v0) | k)
    k2 = power(k1, 3)
    cert = glue_two(g, v0, g.unit_set(), k, k1, k2)
    assert cert.holds
    assert cert.generated_set <= k1


def test_glue_two_line13():
    g, k0 = line(13)
    v0 = g.unit_set(range(7))
    v1 = g.unit_set(range(6, 13))
    k1 = power(k0, 7)
    k2 = power(k1, 21)
    cert = glue_two(g, v0, v1, k0, k1, k2)
    assert cert.holds


def test_glue_two_rejects_bad_hypotheses():
    g, k0 = line(13)
    v0 = g.unit_set(range(7))
    v1 = g.unit_set(range(6, 13))
    with pytest.raises(HypothesisError):
        glue_two(g, v0, v1, k0, k0, k0)  # generated(K0, V0) escapes K0


def test_glue_two_randomized_hypotheses_by_construction():
    rng = random.Random(101)
    holds = 0
    for _ in range(30):
        g = random_principal_groupoid(rng, 40)
        v0 = g.unit_set([u for u in range(g.n_units) if rng.random() < 0.5])
        v1 = g.unit_set([u for u in range(g.n_units) if rng.random() < 0.5])
        k0 = symmetrize(g.arrow_set(
            [a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.3]
        ))
        k1 = symmetrize(k0 | generated(k0, v0))
        k2 = symmetrize(k1 | generated(power(k1, 3), v1))
        cert = glue_two(g, v0, v1, k0, k1, k2)
        assert cert.holds
        holds += 1
    assert holds == 30


def test_glue_chain_single_set_matches_direct():
    g, k0 = line(9)
    v0 = g.unit_set(range(4))
    k1 = symmetrize(generated(power(k0, 15), v0) | power(k0, 15))
    cert = glue_chain(g, [v0], [k0, k1])
    assert cert.holds
    assert generated(k0, v0) <= k1


def test_glue_chain_two_sets_agrees_with_glue_two():
    g, k0 = line(19)
    v0 = g.unit_set(range(7))
    v1 = g.unit_set(range(6, 14))
    k1 = symmetrize(generated(power(k0, 15), v0) | power(k0, 15))
    k2 = symmetrize(generated(power(k1, 15), v1) | power(k1, 15))
    chain = glue_chain(g, [v0, v1], [k0, k1, k2])
    assert chain.holds
    two = glue_two(g, v0, v1, k0, power(k0, 5) | k1, k2)
    assert two.holds == chain.holds


def test_glue_chain_three_intervals_line19():
    g, k0 = line(19)
    vs = [g.unit_set(range(0, 8)), g.unit_set(range(7, 14)), g.unit_set(range(13, 19))]
    ks = [k0]
    for v in vs:
        prev = ks[-1]
        ks.append(symmetrize(generated(power(prev, 15), v) | power(prev, 15)))
    cert = glue_chain(g, vs, ks)
    assert cert.holds


def test_window_chain_must_increase():
    g, k = line(8)
    k2 = power(k, 2)
    parts = [g.unit_set(range(4)), g.unit_set(range(4, 8))]
    with pytest.raises(HypothesisError, match="window chain not increasing at index 1"):
        glue_chain(g, parts, [k2, k, k2])
    with pytest.raises(HypothesisError, match="window chain not increasing at index 1"):
        union_combine(g, parts, [None, None], [k2, k, k2])
    with pytest.raises(HypothesisError, match="window chain not increasing at index 2"):
        glue_two(g, *parts, k, k2, k)  # K1 = K^2 is not inside K2 = K
    with pytest.raises(WitnessError, match="K1 must be symmetric and contain every unit"):
        glue_two(g, *parts, k, k2 - g.arrow_set([0]), k2)


# -- union --------------------------------------------------------------------


def _part_witnesses(g, parts, k0, l_power=2, d_max=2):
    k_list = [k0]
    witnesses = []
    for part in parts:
        cubed15 = power(k_list[-1], 15)
        sub = restrict(g, part)
        k_local = sub.from_parent(cubed15)
        w = kl_dad_search(sub, k_local, power(k_local, l_power), d_max)
        assert w is not None
        witnesses.append(w)
        k_list.append(symmetrize(cubed15 | sub.to_parent(w.reach)))
    return witnesses, k_list


def test_union_single_part_passthrough():
    g, k = line(7)
    parts = [g.all_units()]
    witnesses, k_list = _part_witnesses(g, parts, k)
    merged = union_combine(g, parts, witnesses, k_list)
    assert merged.certified
    assert merged.K == k and merged.L == power(k_list[-1], 5)
    assert merged.d == witnesses[0].d


def test_union_two_intervals_p13():
    g, k = line(13)
    parts = [g.unit_set(range(7)), g.unit_set(range(7, 13))]
    witnesses, k_list = _part_witnesses(g, parts, k)
    merged = union_combine(g, parts, witnesses, k_list)
    assert merged.certified
    assert merged.d == max(w.d for w in witnesses)


def test_union_genuine_two_class_parts_p40():
    # the first part's window (ball 15) does not swallow a 20-unit part, so
    # that part genuinely needs two classes; the second part sees the grown
    # chain window and is one-class
    g, k = line(40)
    parts = [g.unit_set(range(20)), g.unit_set(range(20, 40))]
    witnesses, k_list = _part_witnesses(g, parts, k, l_power=1, d_max=1)
    assert [w.d for w in witnesses] == [1, 0]
    merged = union_combine(g, parts, witnesses, k_list)
    assert merged.certified and merged.d == 1


def test_union_disjoint_components():
    g = disjoint_union([pair_groupoid(4), pair_groupoid(5)])
    k = symmetrize(g.all_arrows())
    parts = [g.unit_set(range(4)), g.unit_set(range(4, 9))]
    witnesses, k_list = _part_witnesses(g, parts, k)
    merged = union_combine(g, parts, witnesses, k_list)
    assert merged.certified


def test_union_rejects_bad_partition():
    g, k = line(6)
    parts = [g.unit_set(range(4)), g.unit_set(range(3, 6))]  # overlap
    with pytest.raises(HypothesisError):
        union_combine(g, parts, [None, None], [k, k, k])


def test_union_rechecks_each_part_witness():
    g, k = line(8)
    parts = [g.unit_set(range(4)), g.unit_set(range(4, 8))]
    witnesses, k_list = _part_witnesses(g, parts, k)
    w = witnesses[0]
    emptied = Cover(w.owner, (w.owner.unit_set(),) + w.cover.classes[1:])
    witnesses[0] = w._replace(cover=emptied)
    with pytest.raises(HypothesisError, match="witness 0 fails re-certification against K1"):
        union_combine(g, parts, witnesses, k_list)


def _uncertified_on(target, monkeypatch):
    """Make ``kl_dad_check`` report every witness on ``target`` uncertified."""
    real = dad_module.kl_dad_check

    def check(g, k_set, l_set, cover):
        w = real(g, k_set, l_set, cover)
        return w._replace(certified=False) if g is target else w

    monkeypatch.setattr(dad_module, "kl_dad_check", check)


def test_union_final_recheck_failure_is_a_hypothesis_error(monkeypatch):
    g, k = line(13)
    parts = [g.unit_set(range(7)), g.unit_set(range(7, 13))]
    witnesses, k_list = _part_witnesses(g, parts, k)
    _uncertified_on(g, monkeypatch)  # the part witnesses live on restrictions
    with pytest.raises(HypothesisError, match="a merged class escapes the final bound"):
        union_combine(g, parts, witnesses, k_list)


# -- product ------------------------------------------------------------------


def test_product_with_trivial_factor():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    trivial = pair_blocks_groupoid([], 1)
    kt = trivial.all_arrows()
    prod = product(g, trivial)
    cover_t = Cover(trivial, tuple([trivial.all_units()] * (w.d + 1)))
    out = product_combine(prod, w.d, w.cover, k, w.L, 0, cover_t, kt, kt)
    assert out.certified and out.d == w.d


def test_product_p7_squared_pipeline():
    g, k = line(7)
    ctrl = discover_control_function(g, 1)
    lifted = ostrand_lift(g, ctrl, k, 1)
    bound = control_apply(ctrl, k, 2)
    prod = product(g, g)
    out = product_combine(prod, 1, lifted, k, bound, 1, lifted, k, bound)
    assert out.certified and out.d == 2


def test_product_rejects_a_factor_class_outside_its_bound():
    g, k = line(7)
    ctrl = discover_control_function(g, 1)
    lifted = ostrand_lift(g, ctrl, k, 1)
    bound = control_apply(ctrl, k, 2)
    prod = product(g, g)
    assert fold_number(lifted) == 2  # the fold is right: only the bound fails
    with pytest.raises(HypothesisError, match="right cover generates outside its bound"):
        product_combine(prod, 1, lifted, k, bound, 1, lifted, k, k)
    with pytest.raises(HypothesisError, match="left cover generates outside its bound"):
        product_combine(prod, 1, lifted, k, k, 1, lifted, k, bound)


def test_product_rejects_wrong_fold():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    prod = product(g, g)
    with pytest.raises(HypothesisError):
        # level-1 covers are only 1-fold; the product at k=2 needs 3 classes
        product_combine(prod, 1, w.cover, k, w.L, 1, w.cover, k, w.L)


def test_product_zero_dim_factors():
    g, k = line(4)
    l_full = g.all_arrows()
    w = kl_dad_search(g, k, l_full, 0)
    prod = product(g, g)
    out = product_combine(prod, 0, w.cover, k, l_full, 0, w.cover, k, l_full)
    assert out.certified and out.d == 0


def test_product_covers_must_belong_to_the_factors():
    g, k = line(4)
    twin, k_twin = line(4)
    w = kl_dad_search(twin, k_twin, twin.all_arrows(), 0)
    l_full = twin.all_arrows()
    with pytest.raises(GroupoidError):
        product_combine(product(g, g), 0, w.cover, k_twin, l_full, 0, w.cover, k_twin, l_full)


def test_product_output_failure_is_a_broken_invariant(monkeypatch):
    g, k = line(4)
    l_full = g.all_arrows()
    w = kl_dad_search(g, k, l_full, 0)
    prod = product(g, g)
    _uncertified_on(prod.groupoid, monkeypatch)
    with pytest.raises(RuntimeError, match="product witness failed re-certification"):
        product_combine(prod, 0, w.cover, k, l_full, 0, w.cover, k, l_full)


# -- pullback -----------------------------------------------------------------


def test_pullback_identity():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    out = pullback_witness(g, g, list(range(g.n_arrows)), k, w)
    assert out.certified
    assert out.cover.classes == w.cover.classes


def test_pullback_action_to_group():
    act = action_groupoid(cyclic_table(4), rotation_perms(4, 4))
    grp = action_groupoid(cyclic_table(4), [tuple([0])] * 4)
    pi = [0] * 4 + [1 + (a - 4) // 4 for a in range(4, 16)]
    k_h = grp.all_arrows()
    w_h = kl_dad_check(grp, k_h, k_h, Cover(grp, (grp.all_units(),)))
    assert w_h.certified
    k_g = symmetrize(act.arrow_set(range(4, 8)))
    out = pullback_witness(act, grp, pi, k_g, w_h)
    assert out.certified and out.d == 0


def test_pullback_restriction_inclusion():
    g, k = line(8)
    sub = restrict(g, g.unit_set(range(5)))
    pi = list(sub.parent_arrows)
    w = kl_dad_search(g, k, power(k, 2), 1)
    k_sub = sub.from_parent(k)
    out = pullback_witness(sub, g, pi, k_sub, w)
    assert out.certified
    expected = [sorted(u for u in c if u < 5) for c in w.cover.classes]
    assert [sorted(c) for c in out.cover.classes] == expected


def test_pullback_rechecks_the_target_witness():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    forged = w._replace(L=k)
    with pytest.raises(HypothesisError, match="target witness fails re-certification"):
        pullback_witness(g, g, list(range(g.n_arrows)), k, forged)


def test_pullback_bound_comes_from_the_rechecked_witness():
    # a claimed generated_per_class of every arrow does not widen the bound
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    identity = list(range(g.n_arrows))
    honest = pullback_witness(g, g, identity, k, w)
    assert len(honest.L) == 19
    forged = w._replace(generated_per_class=(g.all_arrows(),) * (w.d + 1))
    out = pullback_witness(g, g, identity, k, forged)
    assert out.certified and out.L == honest.L


def test_pullback_output_failure_is_a_broken_invariant(monkeypatch):
    act = action_groupoid(cyclic_table(4), rotation_perms(4, 4))
    grp = action_groupoid(cyclic_table(4), [tuple([0])] * 4)
    pi = [0] * 4 + [1 + (a - 4) // 4 for a in range(4, 16)]
    k_h = grp.all_arrows()
    w_h = kl_dad_check(grp, k_h, k_h, Cover(grp, (grp.all_units(),)))
    k_g = symmetrize(act.arrow_set(range(4, 8)))
    _uncertified_on(act, monkeypatch)
    with pytest.raises(RuntimeError, match="pulled-back witness failed re-certification"):
        pullback_witness(act, grp, pi, k_g, w_h)


def test_pullback_rejects_non_functor():
    g, k = line(5)
    w = kl_dad_search(g, k, power(k, 2), 1)
    bad = list(range(g.n_arrows))
    bad[g.n_units] = 0  # sends a non-identity arrow to an identity
    with pytest.raises(HypothesisError):
        pullback_witness(g, g, bad, k, w)


# -- blow-ups -----------------------------------------------------------------


def test_blowup_basic_counts():
    g = pair_groupoid(3)
    bl = blowup(g, replicate_psi(g, 2))
    from grpdim import validate

    assert validate(tables_of(bl.groupoid)).ok
    expected = sum(
        bl.psi.count(g.rng[a]) * bl.psi.count(g.src[a]) for a in range(g.n_arrows)
    )
    assert bl.groupoid.n_arrows == expected


def test_blowup_bijective_is_isomorphic():
    g, k = line(5)
    bl = blowup(g, tuple(range(5)))
    assert bl.groupoid.n_arrows == g.n_arrows
    w = kl_dad_search(g, k, power(k, 2), 1)
    lifted = blowup_lift(bl, w)
    assert lifted.certified and lifted.d == w.d


def test_blowup_roundtrip_doubled_p3():
    g, k = line(3)
    w = kl_dad_search(g, k, k, 2)
    assert w.d == 1
    bl = blowup(g, replicate_psi(g, 2))
    lifted = blowup_lift(bl, w)
    assert lifted.certified and lifted.d == w.d
    back = blowup_transfer(bl, lifted, k, k)
    assert back.certified and back.d == w.d


def test_blowup_search_both_directions_tripled_p4():
    g, k = line(4)
    l_set = k
    w = kl_dad_search(g, k, l_set, 2)
    bl = blowup(g, replicate_psi(g, 3))
    k_up = map_arrows_back(bl.groupoid, bl.pi, k)
    l_up = map_arrows_back(bl.groupoid, bl.pi, l_set)
    w_up = kl_dad_search(bl.groupoid, k_up, l_up, 2)
    assert w_up is not None and w_up.d == w.d
    back = blowup_transfer(bl, w_up, k, l_set)
    assert back.certified and back.d == w.d


def test_blowup_transfer_rechecks_input_and_output():
    g, k = line(7)
    w = kl_dad_search(g, k, power(k, 2), 1)
    bl = blowup(g, replicate_psi(g, 2))
    lifted = blowup_lift(bl, w)
    forged = lifted._replace(L=lifted.K)
    with pytest.raises(HypothesisError, match="blow-up witness fails re-certification"):
        blowup_transfer(bl, forged, k, power(k, 2))
    units = g.arrow_set(range(g.n_units))
    with pytest.raises(HypothesisError, match="transferred witness failed re-certification"):
        blowup_transfer(bl, lifted, k, units)


def test_blowup_transfer_rejects_non_surjective():
    g = pair_groupoid(3)
    with pytest.raises(Exception):
        blowup(g, (0, 0, 1, 1))  # unit 2 never hit


def test_search_rejects_negative_budget():
    g, k = line(5)
    with pytest.raises(WitnessError):
        kl_dad_search(g, k, k, -1)


def test_search_monotone_in_both_scales():
    # shrinking the window and growing the bound can only lower the dimension
    g, graphing = tree_window("path", 9)
    k_big = graphing.ball(2)
    l_small = power(graphing.ball(1), 2)
    base = kl_dad_search(g, k_big, l_small, 3)
    assert base is not None
    k_small = graphing.ball(1)
    l_big = power(graphing.ball(1), 3)
    better = kl_dad_search(g, k_small, l_big, 3)
    assert better is not None and better.d <= base.d


def least_d(g, k_set, l_set):
    witness = kl_dad_search(g, k_set, l_set, g.n_units)
    return witness.d  # one class per unit certifies on these instances


def test_least_d_is_monotone_under_restriction_and_invariant_under_relabelling():
    # a witness of g restricted to S certifies K|S, L|S on restrict(g, S),
    # and renaming units changes no witness but its ids; most instances of
    # random_groupoid have isotropy, so the generic engine runs too
    rng = random.Random(61)
    lower = isotropic = 0
    for i in range(200):
        g = random_principal_groupoid(rng, 40) if i % 2 else random_groupoid(rng, 120)
        isotropic += not is_principal(g)
        k = random_arrow_set(rng, g, rng.uniform(0.1, 0.5)) | g.arrow_set(range(g.n_units))
        l_set = power(k, 2)
        d = least_d(g, k, l_set)
        s = g.unit_set(u for u in range(g.n_units) if rng.random() < 0.6)
        h = restrict(g, s or g.unit_set([rng.randrange(g.n_units)]))
        d_sub = least_d(h, h.from_parent(k), h.from_parent(l_set))
        assert d_sub <= d
        lower += d_sub < d
        perm = rng.sample(range(g.n_units), g.n_units)
        g2, amap = relabel_units(g, perm)
        moved = [g2.arrow_set(amap[a] for a in x) for x in (k, l_set)]
        assert least_d(g2, *moved) == d
    assert isotropic > 70 and lower > 50


def test_principal_fast_path_matches_generic_search():
    # the component-merging fast path and the generic search must
    # agree exactly (same lex-least witness) on principal instances
    from grpdim.dad import _generic_search, _principal_tables
    from grpdim._search import partition_search

    rng = random.Random(47)
    for _ in range(20):
        g = random_principal_groupoid(rng, 25)
        k = symmetrize(g.arrow_set(
            [a for a in range(g.n_units, g.n_arrows) if rng.random() < 0.5]
        ))
        l_set = power(k, 2)
        adj, ok = _principal_tables(g, k, l_set)
        for d in (0, 1):
            fast = partition_search(g.n_units, d + 1, adj, ok, "exact")
            assert fast == _generic_search(g, k, l_set, d, "exact")
