import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    disjoint_union,
    oracle_generated,
    pair_blocks_groupoid,
    random_arrow_set,
    random_groupoid,
    random_principal_groupoid,
    random_unit_set,
    relabel_units,
    same_groupoid,
    tables_of,
    union_find_orbits,
)
import grpdim.groupoid as groupoid_module
from grpdim.groupoid import mask_of, translate, transversal
from grpdim import (
    ArrowSet,
    GroupoidError,
    Tables,
    UnitSet,
    action_groupoid,
    compose_sets,
    cyclic_table,
    generated,
    is_principal,
    pair_groupoid,
    pair_index,
    power,
    product,
    restrict,
    rotation_perms,
    symmetrize,
    tree_window,
    triples,
    trivial_perms,
    validate,
)


def ball(g, n, r):
    """Distance-r arrow set of the pair groupoid seen as a line."""
    mask = 0
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= r:
                mask |= 1 << pair_index(n, i, j)
    return ArrowSet(g, mask)


def test_validate_pair_groupoid_clean():
    report = validate(tables_of(pair_groupoid(3)))
    assert report.ok


def test_validate_names_corrupted_inv():
    g = pair_groupoid(3)
    inv = list(g.inv)
    inv[3], inv[4] = inv[4], inv[3]  # break the involution on two arrows
    broken = Tables(3, g.src, g.rng, inv, triples(g))
    report = validate(broken)
    assert not report.ok
    hit = [v for v in report if v.code in ("inv-involution", "inv-endpoints")]
    assert hit and any(3 in v.arrows or 4 in v.arrows for v in hit)


def test_validate_z4_group_table():
    g = action_groupoid(cyclic_table(4), trivial_perms(4, 1))
    assert validate(tables_of(g)).ok
    assert g.n_units == 1 and g.n_arrows == 4


def test_constructor_rejects_a_pair_given_two_products():
    g = pair_groupoid(3)
    comp = list(triples(g))
    a, b, c = comp[-1]
    with pytest.raises(GroupoidError, match="two products"):
        Tables(3, g.src, g.rng, g.inv, comp + [(a, b, (c + 1) % g.n_arrows)])
    with pytest.raises(GroupoidError, match="out of range"):
        Tables(3, g.src, g.rng, g.inv, comp + [(a, b, g.n_arrows)])
    again = Tables(3, g.src, g.rng, g.inv, comp + [(a, b, c)] + comp[:4])
    assert again.comp == tables_of(g).comp and validate(again).ok


def _with_comp(t, key, value):
    """Raw tables with the product of the pair ``key`` replaced by ``value``."""
    m = t.n_arrows
    comp = [(*divmod(k, m), value if divmod(k, m) == key else c) for k, c in t.comp.items()]
    return Tables(t.n_units, t.src, t.rng, t.inv, comp)


def _exhaustive_report(monkeypatch, g):
    """validate as it runs without the structure certificate: every triple checked."""
    with monkeypatch.context() as mp:
        mp.setattr(groupoid_module, "_structure_certificate", lambda g: False)
        return validate(g)


def test_validate_agrees_with_exhaustive_checker(monkeypatch):
    rng = random.Random(20231)
    invalid = only_associativity = 0
    for trial in range(1000):
        if trial % 3:
            g = random_groupoid(rng, max_arrows=rng.choice([60, 120, 200]))
        else:
            # orbits of several units with isotropy: pair(k) × a random table
            tail = random_groupoid(rng, max_arrows=40)
            g = product(pair_groupoid(rng.randint(2, 3)), tail).groupoid
        t = tables_of(g)
        if trial % 2:
            ends = {}
            for a in range(t.n_arrows):
                ends.setdefault((t.src[a], t.rng[a]), []).append(a)
            keys = sorted(t.comp)
            # half the time keep the endpoints right, which only the unit,
            # inverse and associativity laws can catch
            twins = [k for k in keys if len(ends[t.src[t.comp[k]], t.rng[t.comp[k]]]) > 1]
            if twins and rng.random() < 0.5:
                key = rng.choice(twins)
                old = t.comp[key]
                new = rng.choice([c for c in ends[t.src[old], t.rng[old]] if c != old])
            else:
                key = rng.choice(keys)
                new = rng.choice([c for c in range(t.n_arrows) if c != t.comp[key]])
            t = _with_comp(t, divmod(key, t.n_arrows), new)
        got = validate(t)
        want = _exhaustive_report(monkeypatch, t)
        assert got.ok == want.ok
        assert got.violations == want.violations
        # an ok report carries the normal form its certificate proved
        assert same_groupoid(got.groupoid, t) if got.ok else got.groupoid is None
        invalid += not want.ok
        only_associativity += want.codes() == {"associativity"}
    assert invalid >= 400
    # tables that pass every other check, so the certificate must reject them
    assert only_associativity >= 20


def _z4_with_bad_square():
    g = action_groupoid(cyclic_table(4), trivial_perms(4, 1))
    return _with_comp(tables_of(g), (1, 1), 3)


def _isotropy_larger_than_at_root():
    # units r=0, x=1; 2 is an involution at x; 3 : r -> x and 4 = 3⁻¹.  The
    # isotropy at r is trivial, so the structure map sends 2 and the identity
    # 1 to the same triple: it is multiplicative, and only its injectivity
    # check rejects the table.
    comp = [(0, 0, 0), (1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1), (3, 0, 3), (1, 3, 3)]
    comp += [(2, 3, 3), (4, 1, 4), (0, 4, 4), (4, 2, 4), (3, 4, 1), (4, 3, 0)]
    return Tables(2, [0, 1, 1, 0, 1], [0, 1, 1, 1, 0], [0, 1, 2, 4, 3], comp)


@pytest.mark.parametrize("make", [_z4_with_bad_square, _isotropy_larger_than_at_root])
def test_validate_associativity_only(monkeypatch, make):
    broken = make()
    report = validate(broken)
    assert report.codes() == {"associativity"}
    assert report.violations == _exhaustive_report(monkeypatch, broken).violations


def test_from_triples_picks_the_transversal_once(monkeypatch):
    # the certificate's transversal and labels are the normal form's: one
    # load computes them once
    g = product(pair_groupoid(2), action_groupoid(cyclic_table(3), trivial_perms(3, 2))).groupoid
    calls = []

    def counted(t):
        calls.append(t)
        return transversal(t)

    monkeypatch.setattr(groupoid_module, "transversal", counted)
    loaded = groupoid_module.from_triples(g.n_units, g.src, g.rng, g.inv, triples(g))
    assert len(calls) == 1
    assert (loaded.label, loaded.table) == (g.label, g.table)


def test_validate_large_tables_take_certificate_path(monkeypatch):
    def exhaustive(g):
        raise AssertionError("exhaustive associativity loop ran on a valid table")

    monkeypatch.setattr(groupoid_module, "_associativity_violations", exhaustive)
    assert validate(tables_of(pair_groupoid(50))).ok
    n = 1500
    units = Tables(n, range(n), range(n), range(n), [(u, u, u) for u in range(n)])
    assert validate(units).ok


def test_compose_sets_identity_absorbs():
    g = pair_groupoid(4)
    b = ArrowSet(g, 0b110011 & g.arrows_mask)
    units = ArrowSet(g, g.units_mask)
    assert compose_sets(units, b) == b
    assert compose_sets(b, units) == b


def test_compose_sets_line_distance_adds():
    g = pair_groupoid(7)
    k1 = ball(g, 7, 1)
    assert compose_sets(k1, k1) == ball(g, 7, 2)


def test_compose_sets_disjoint_fibers_empty():
    g = pair_groupoid(4)
    a = g.arrow_set([pair_index(4, 0, 1)])  # arrow 1 -> 0
    b = g.arrow_set([pair_index(4, 2, 3)])  # arrow 3 -> 2; range 2 != src 1
    assert not compose_sets(a, b)


def test_compose_sets_owner_mismatch():
    g, h = pair_groupoid(3), pair_groupoid(3)
    with pytest.raises(GroupoidError):
        compose_sets(g.all_arrows(), h.all_arrows())


def test_symmetrize():
    g = pair_groupoid(5)
    assert symmetrize(g.arrow_set()) == ArrowSet(g, g.units_mask)
    a = pair_index(5, 0, 3)
    s = symmetrize(g.arrow_set([a]))
    assert s == ArrowSet(g, g.units_mask | 1 << a | 1 << g.inv[a])
    assert symmetrize(s) == s


def test_power():
    g = pair_groupoid(7)
    k = ball(g, 7, 1)
    assert power(k, 0) == ArrowSet(g, g.units_mask)
    assert power(k, 3) == ball(g, 7, 3)
    units = ArrowSet(g, g.units_mask)
    assert power(units, 5) == units


def test_restrict_full_and_empty():
    g = pair_groupoid(5)
    full = restrict(g, g.all_units())
    assert full.n_arrows == g.n_arrows and validate(tables_of(full)).ok
    empty = restrict(g, g.unit_set())
    assert empty.n_units == 0 and empty.n_arrows == 0


def test_restrict_pair_block():
    g = pair_groupoid(7)
    sub = restrict(g, g.unit_set([0, 1, 2]))
    assert sub.n_units == 3 and sub.n_arrows == 9
    assert validate(tables_of(sub)).ok and is_principal(sub)


def test_restrict_nested_equals_inner():
    g = pair_groupoid(8)
    outer = restrict(g, g.unit_set(range(6)))
    inner_direct = restrict(g, g.unit_set(range(3)))
    inner_nested = restrict(outer, outer.unit_set(range(3)))
    assert inner_nested.n_arrows == inner_direct.n_arrows
    assert [inner_nested.src, inner_nested.rng] == [inner_direct.src, inner_direct.rng]


def test_generated_units_only():
    g = pair_groupoid(6)
    u = g.unit_set([1, 4])
    out = generated(ArrowSet(g, g.units_mask), u)
    assert out == ArrowSet(g, u.mask)


def test_generated_line_block():
    g = pair_groupoid(7)
    k = ball(g, 7, 1)
    out = generated(k, g.unit_set([0, 1, 2]))
    expected = 0
    for i in range(3):
        for j in range(3):
            expected |= 1 << pair_index(7, i, j)
    assert out == ArrowSet(g, expected)
    assert out == oracle_generated(g, k, g.unit_set([0, 1, 2]))


def test_generated_everything():
    g = pair_groupoid(5)
    assert generated(g.all_arrows(), g.all_units()) == g.all_arrows()


def test_generated_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(25):
        g = random_groupoid(rng, max_arrows=80)
        k = random_arrow_set(rng, g)
        u = random_unit_set(rng, g)
        assert generated(k, u) == oracle_generated(g, k, u)


def test_generated_monotone_in_units():
    rng = random.Random(11)
    for _ in range(10):
        g = random_groupoid(rng, max_arrows=60)
        k = random_arrow_set(rng, g)
        u = random_unit_set(rng, g, 0.4)
        bigger = u | random_unit_set(rng, g, 0.4)
        assert generated(k, u) <= generated(k, bigger)


def roots(g):
    """The units y with ``transversal(g)[y] == y``: the least unit of each orbit."""
    return [y for y, a in enumerate(transversal(g)) if a == y]


def test_orbits():
    # every unit of pair(4) is reached from unit 0 by the arrow 0 -> y
    p4 = pair_groupoid(4)
    t = transversal(p4)
    assert roots(p4) == [0]
    assert all(p4.src[t[y]] == 0 and p4.rng[t[y]] == y for y in range(4))
    two = disjoint_union([pair_groupoid(3), pair_groupoid(2)])
    t = transversal(two)
    assert [two.src[a] for a in t] == [0, 0, 0, 3, 3]
    assert [two.rng[a] for a in t] == [0, 1, 2, 3, 4]
    # Z/3 on six points in two 3-cycles
    perm = [(x + 1) % 3 if x < 3 else 3 + (x - 2) % 3 for x in range(6)]
    perms = [tuple(range(6))]
    for _ in range(2):
        perms.append(tuple(perm[x] for x in perms[-1]))
    z3 = action_groupoid(cyclic_table(3), perms)
    assert validate(tables_of(z3)).ok
    assert [z3.src[a] for a in transversal(z3)] == [0, 0, 0, 3, 3, 3]


def test_is_principal():
    assert is_principal(pair_groupoid(3))
    z2 = action_groupoid(cyclic_table(2), trivial_perms(2, 1))
    assert not is_principal(z2)
    z4_free = action_groupoid(cyclic_table(4), rotation_perms(4, 4))
    assert is_principal(z4_free)


def test_fundamental_domain():
    # the least unit of each orbit is its own entry: the unit arrow
    assert roots(pair_groupoid(5)) == [0]
    trivial = pair_blocks_groupoid([], 4)
    assert roots(trivial) == [0, 1, 2, 3]
    assert transversal(trivial) == [0, 1, 2, 3]
    two = disjoint_union([pair_groupoid(3), pair_groupoid(2)])
    assert roots(two) == [0, 3]


def test_orbits_and_fundamental_domain_match_union_find_oracle():
    # the transversal's roots and arrows against union-find over every arrow,
    # on mixes with isotropy and several orbits, half with units relabelled
    rng = random.Random(17)
    counts = dict.fromkeys(["principal", "isotropy", "multi-orbit", "interleaved"], 0)
    for trial in range(200):
        if trial % 4 == 1:
            g = random_principal_groupoid(rng, rng.randint(5, 60))
        else:
            g = random_groupoid(rng, rng.randint(1, 120))
        if trial % 4 == 0:
            g = disjoint_union([random_principal_groupoid(rng, rng.randint(5, 40)), g])
        if trial % 2:
            perm = list(range(g.n_units))
            rng.shuffle(perm)
            g, _ = relabel_units(g, perm)
        want = union_find_orbits(g)
        t = transversal(g)
        assert roots(g) == [block[0] for block in want]
        least = {}
        for a in range(g.n_arrows):
            least.setdefault((g.src[a], g.rng[a]), a)
        assert all(t[y] == least[block[0], y] for block in want for y in block)
        counts["principal" if is_principal(g) else "isotropy"] += 1
        counts["multi-orbit"] += len(want) > 1
        counts["interleaved"] += any(b[-1] > c[0] for b, c in zip(want, want[1:]))
    assert min(counts.values()) > 40, counts


def test_random_groupoid_has_a_unit_at_every_size():
    rng = random.Random(5)
    for max_arrows in (1, 30):
        for _ in range(20):
            assert random_groupoid(rng, max_arrows).n_units >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.data())
def test_oc_normal_algebra(mask_a, mask_b, data):
    g = pair_groupoid(5)  # 25 arrows; masks above may exceed, so trim
    a = symmetrize(ArrowSet(g, mask_a & g.arrows_mask))
    b = symmetrize(ArrowSet(g, mask_b & g.arrows_mask))
    # product inversion: (ab)^-1 == b^-1 a^-1 == ba for symmetric sets
    assert compose_sets(a, b).inverse() == compose_sets(b, a)
    # powers are monotone once units are inside
    n = data.draw(st.integers(0, 3))
    assert power(a, n) <= power(a, n + 1)
    assert symmetrize(symmetrize(a)) == symmetrize(a)


def test_generated_equals_bruteforce_small_instances():
    rng = random.Random(3)
    for _ in range(10):
        g = random_groupoid(rng, max_arrows=50)
        k = random_arrow_set(rng, g, 0.4)
        u = random_unit_set(rng, g, 0.6)
        got = generated(k, u)
        assert got == oracle_generated(g, k, u)
        # closed under inversion and composition
        assert got.inverse() == got
        assert compose_sets(got, got) <= got


def pair_times_cyclic(n, k):
    """pair(n) times Z/k acting trivially on one point: one orbit of n units
    with isotropy Z/k; arrow (a, h) is ``arrow_ids[a][h]``."""
    return product(pair_groupoid(n), action_groupoid(cyclic_table(k), trivial_perms(k, 1)))


def isotropy_arrows(g, aset):
    return [a for a in aset if g.src[a] == g.rng[a] and not g.is_unit(a)]


def test_generated_sees_the_isotropy_of_a_twisted_cycle():
    # K is a cycle through the units of pair(n) x Z/2 with every edge
    # labelled 0 but one: K holds no isotropy arrow, yet with the twist the
    # word once round the cycle is the flip, so K generates all of G
    n = 6
    prod = pair_times_cyclic(n, 2)
    g, ids = prod.groupoid, prod.arrow_ids
    for twist in (0, 1):
        edges = [ids[pair_index(n, i, (i + 1) % n)][twist if i == n - 1 else 0] for i in range(n)]
        k = ArrowSet(g, mask_of(edges))
        assert not isotropy_arrows(g, k)
        everywhere = generated(k, g.all_units())
        assert everywhere == oracle_generated(g, k, g.all_units())
        assert len(everywhere) == n * n * (1 + twist)
        assert bool(isotropy_arrows(g, everywhere)) == bool(twist)
        cut = g.unit_set(range(1, n))  # without unit 0 the cycle is a path
        assert generated(k, cut) == oracle_generated(g, k, cut)
        assert len(generated(k, cut)) == (n - 1) ** 2
        assert not isotropy_arrows(g, generated(k, cut))


def test_generated_spreads_isotropy_loops_over_their_orbit():
    # a path through pair(n) x Z/4 and the loop of label 2 at one unit: the
    # loop's subgroup {0, 2} reaches every pair of units of the path
    n = 5
    prod = pair_times_cyclic(n, 4)
    g, ids = prod.groupoid, prod.arrow_ids
    path = [ids[pair_index(n, i, i + 1)][0] for i in range(n - 1)]
    loop = ids[pair_index(n, 2, 2)][2]
    k = ArrowSet(g, mask_of(path + [loop]))
    # by units: 5 units with {0, 2}; 3 with {0, 2}; two principal pairs; the loop
    for units, size in (([0, 1, 2, 3, 4], 50), ([0, 1, 2], 18), ([0, 1, 3, 4], 8), ([2], 2)):
        got = generated(k, g.unit_set(units))
        assert got == oracle_generated(g, k, g.unit_set(units))
        assert len(got) == size
    rng = random.Random(5)
    for _ in range(20):  # random loops and arrows on random isotropic groupoids
        g = random_groupoid(rng, max_arrows=80)
        loops = ArrowSet(g, mask_of(isotropy_arrows(g, g.all_arrows())))
        k = random_arrow_set(rng, g, 0.2) | (loops & random_arrow_set(rng, g, 0.5))
        u = random_unit_set(rng, g, 0.7)
        assert generated(k, u) == oracle_generated(g, k, u)


def test_generated_without_units_holds_only_touched_units():
    # K holds no unit: H holds a unit only where an arrow of K inside U
    # touches it, as a * inv(a)
    g = pair_groupoid(6)
    k = ArrowSet(g, mask_of([pair_index(6, 0, 1), pair_index(6, 1, 3), pair_index(6, 4, 5)]))
    for units, touched, size in ((g.all_units(), [0, 1, 3, 4, 5], 9 + 4),
                                 (g.unit_set([0, 1, 2, 4]), [0, 1], 4)):
        got = generated(k, units)
        assert got == oracle_generated(g, k, units)
        assert [u for u in units if u in got] == touched
        assert len(got) == size


def test_generated_translates_once_per_fiber_arrow_and_orbit_unit(monkeypatch):
    # P8 x P8 under K = ball(1) x ball(1) is one principal orbit of 64 units:
    # 64 translates walk its fiber and 64 read the orbit from it, where a
    # closure under every product forms arrows x units products
    ga, gra = tree_window("path", 8)
    gb, grb = tree_window("path", 8)
    prod = product(ga, gb)
    g = prod.groupoid
    k = symmetrize(prod.lift_sets(gra.ball(1), grb.ball(1)))
    calls = 0
    inner = groupoid_module.translate

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(groupoid_module, "translate", counting)
    assert generated(k, g.all_units()) == g.all_arrows()
    assert calls == 128


def test_set_constructors_reject_out_of_range():
    g = pair_groupoid(3)
    with pytest.raises(GroupoidError):
        g.arrow_set([9])
    with pytest.raises(GroupoidError):
        g.unit_set([3])


@pytest.mark.parametrize(
    "cls, other_cls, kind, full_repr",
    [
        (ArrowSet, UnitSet, "arrow", "ArrowSet[9]{0,1,2,3,4,5,6,7,...}"),
        (UnitSet, ArrowSet, "unit", "UnitSet[3]{0,1,2}"),
    ],
)
def test_mask_set_kinds(cls, other_cls, kind, full_repr):
    g = pair_groupoid(3)  # 3 units, 9 arrows
    size = g.n_arrows if cls is ArrowSet else g.n_units
    with pytest.raises(GroupoidError, match=f"^{kind} mask exceeds owner's {kind} range$"):
        cls(g, 1 << size)
    a, b = cls(g, 0b011), cls(g, 0b110)
    assert a != other_cls(g, 0b011) and other_cls(g, 0b011) != a
    assert a == cls(g, 0b011) and hash(a) == hash(cls(g, 0b011))
    for got, mask in ((a | b, 0b111), (a & b, 0b010), (a - b, 0b001)):
        assert type(got) is cls and got == cls(g, mask)
    assert repr(a - b) == f"{cls.__name__}[1]{{0}}"
    assert repr(cls(g, (1 << size) - 1)) == full_repr


def test_cover_owner_mismatch():
    from grpdim import Cover

    g, h = pair_groupoid(3), pair_groupoid(3)
    with pytest.raises(GroupoidError):
        Cover(g, (h.all_units(),))


# -- the orbit normal form ----------------------------------------------------


def _small_groupoids():
    """Principal and isotropic groupoids of a few orbits each."""
    z3 = action_groupoid(cyclic_table(3), trivial_perms(3, 2))
    small = [
        pair_groupoid(4),
        action_groupoid(cyclic_table(4), rotation_perms(4, 8)),
        z3,
        product(pair_groupoid(2), z3).groupoid,
        disjoint_union([pair_groupoid(3), z3, pair_groupoid(1)]),
    ]
    return small + [restrict(g, UnitSet(g, 0b101101 & g.units_mask)) for g in small[-2:]]


@pytest.mark.parametrize("g", _small_groupoids(), ids=repr)
def test_non_composable_pairs_are_refused(g):
    # the normal form's formula reads some cell for any pair; only the
    # endpoint test keeps src(a) != rng(b) from composing
    refused = 0
    for a in range(g.n_arrows):
        for b in range(g.n_arrows):
            if g.src[a] == g.rng[b]:
                assert g.compose_or_none(a, b) == g.compose(a, b) is not None
                continue
            refused += 1
            assert g.compose_or_none(a, b) is None
            with pytest.raises(GroupoidError, match=f"^arrows {a} and {b} are not composable$"):
                g.compose(a, b)
    assert refused > 0


@pytest.mark.parametrize("g", _small_groupoids(), ids=repr)
def test_translate_is_left_multiplication(g):
    rng = random.Random(g.n_arrows)
    for a in range(g.n_arrows):
        mask = rng.getrandbits(g.n_arrows)
        want = mask_of(g.compose(a, y) for y in range(g.n_arrows)
                       if mask >> y & 1 and g.rng[y] == g.src[a])
        assert translate(g, a, mask) == want


def test_restricted_units_are_the_first_parent_arrows():
    for g in _small_groupoids()[:5]:
        units = UnitSet(g, 0b1011 & g.units_mask)
        sub = restrict(g, units)
        assert sub.parent_arrows[:sub.n_units] == tuple(units)
        assert sub.to_parent_units(sub.all_units()) == units
        assert sub.from_parent_units(g.all_units()) == sub.all_units()
        assert sub.from_parent_units(g.unit_set()) == sub.unit_set()


def test_normal_form_of_p12xp12_holds_no_pair_table():
    ga, _ = tree_window("path", 12)
    g = product(ga, ga).groupoid
    n, m = g.n_units, g.n_arrows
    assert (n, m) == (144, 20_736) and not hasattr(g, "comp")
    # the composition dict held one entry per composable pair
    assert sum(s.bit_count() * r.bit_count() for s, r in zip(g.by_src, g.by_rng)) == 2_985_984
    roots = [u for u in range(n) if g.pos[u] == 0]  # the least unit of each orbit
    iso_squares = sum(len(g.table[r]) ** 2 for r in roots)
    cells = sum(len(row) for rows in g.at for row in rows)
    tables = sum(len(row) for tab in {id(t): t for t in g.table}.values() for row in tab)
    assert cells + tables + len(g.pos) <= m + iso_squares + n
    assert (roots, iso_squares, cells) == ([0], 1, m)
