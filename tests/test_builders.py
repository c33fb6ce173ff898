import json
import random

import pytest

from conftest import (
    dict_blowup,
    dict_partial_action,
    dict_restrict,
    hand_checked_action,
    hand_checked_partial_action,
    pair_index_groupoid,
    same_groupoid,
    tables_of,
    tuple_keyed_product,
)
from grpdim import (
    BuilderError,
    LoadError,
    PartialActionSpec,
    UnitSet,
    action_groupoid,
    blowup,
    cyclic_table,
    is_principal,
    load,
    load_graphing,
    pair_groupoid,
    partial_action_groupoid,
    product,
    replicate_psi,
    restrict,
    rotation_perms,
    save,
    save_graphing,
    tree_window,
    trivial_perms,
    validate,
    z_shift_partial_spec,
)
from grpdim.builders import canonical_dumps, instance_to_obj, obj_to_instance


def test_pair_groupoid_shapes():
    g1 = pair_groupoid(1)
    assert g1.n_arrows == 1 and validate(tables_of(g1)).ok
    g3 = pair_groupoid(3)
    assert g3.n_arrows == 9 and is_principal(g3)
    for n in (2, 5, 12):
        assert validate(tables_of(pair_groupoid(n))).ok


def test_action_groupoid_families():
    trivial = action_groupoid(cyclic_table(1), trivial_perms(1, 4))
    assert trivial.n_arrows == 4  # unit groupoid
    z8 = action_groupoid(cyclic_table(8), rotation_perms(8, 8))
    assert z8.n_arrows == 64 and is_principal(z8) and validate(tables_of(z8)).ok
    z2_iso = action_groupoid(cyclic_table(2), trivial_perms(2, 2))
    assert validate(tables_of(z2_iso)).ok and not is_principal(z2_iso)


def test_action_groupoid_rejects_non_action():
    bad_perms = [(0, 1), (0, 0)]  # not a permutation
    with pytest.raises(BuilderError):
        action_groupoid(cyclic_table(2), bad_perms)
    swap = [(0, 1), (1, 0)]
    bad_table = [[0, 1], [1, 1]]  # not a group table
    with pytest.raises(BuilderError):
        action_groupoid(bad_table, swap)


KLEIN_TABLE = [[a ^ b for b in range(4)] for a in range(4)]


def random_action(rng: random.Random):
    """A cyclic or Klein table (order <= 4) with a rotation, trivial,
    relabelled or random action on at most 4 points, then 0-2 table or
    permutation entries overwritten with a value from -1 to the bound."""
    table = KLEIN_TABLE if rng.random() < 0.25 else cyclic_table(rng.randint(1, 4))
    k = len(table)
    kind = rng.choice(["rotation", "trivial", "relabelled", "random"])
    if kind in ("rotation", "relabelled"):
        n = k * rng.randint(1, 4 // k)
        perms = rotation_perms(k, n)
        if kind == "relabelled":  # the same action on renamed points
            names = rng.sample(range(n), n)
            perms = [tuple(names[p[names.index(x)]] for x in range(n)) for p in perms]
    elif kind == "trivial":
        perms = trivial_perms(k, rng.randint(1, 4))
    else:
        n = rng.randint(1, 4)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(k)]
    table = [list(row) for row in table]
    perms = [list(p) for p in perms]
    for _ in range(rng.randint(0, 2)):
        rows, bound = (table, k) if rng.random() < 0.5 else (perms, len(perms[0]))
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.randint(-1, bound)
    return table, perms


def test_action_groupoid_rejects_exactly_what_hand_checks_reject():
    # the hand checks are the oracle: validate must reject exactly what they reject
    rng = random.Random(18)
    accepted = rejected = 0
    for _ in range(10_000):
        table, perms = random_action(rng)
        try:
            hand_checked_action(table, perms)
            expect_ok = True
        except BuilderError:
            expect_ok = False
        try:
            g = action_groupoid(table, perms)
        except BuilderError:
            assert not expect_ok, (table, perms)
            rejected += 1
            continue
        assert expect_ok, (table, perms)
        assert g.n_arrows == len(table) * len(perms[0]) and validate(tables_of(g)).ok
        accepted += 1
    assert accepted >= 2_000 and rejected >= 4_000, (accepted, rejected)


@pytest.mark.parametrize("table, perms", [([], []), (cyclic_table(2), [(), ()])])
def test_action_groupoid_without_points_is_a_builder_error(table, perms):
    with pytest.raises(BuilderError):
        action_groupoid(table, perms)


def cyclic_spec(k: int, perms) -> PartialActionSpec:
    """Z/k acting by ``perms``, as a partial action with full domains."""
    return PartialActionSpec(
        len(perms[0]),
        tuple(range(k)),
        {a: -a % k for a in range(k)},
        {(a, b): (a + b) % k for a in range(k) for b in range(k)},
        {a: dict(enumerate(p)) for a, p in enumerate(perms)},
    )


def test_partial_action_full_domains_equals_global():
    z4 = action_groupoid(cyclic_table(4), rotation_perms(4, 4))
    # the same action as a partial action with full domains, on named elements
    elements = tuple(str(t) for t in range(4))
    inv = {str(t): str((-t) % 4) for t in range(4)}
    mul = {(str(a), str(b)): str((a + b) % 4) for a in range(4) for b in range(4)}
    theta = {str(t): {x: (x + t) % 4 for x in range(4)} for t in range(4)}
    spec = PartialActionSpec(4, elements, inv, mul, theta)
    g = partial_action_groupoid(spec)
    assert validate(tables_of(g)).ok
    assert same_groupoid(g, tables_of(z4))


def test_partial_action_element_without_theta_is_a_builder_error():
    spec = cyclic_spec(2, rotation_perms(2, 2))
    theta = {0: spec.theta[0]}  # element 1 is listed but has no theta
    broken = PartialActionSpec(2, spec.elements, spec.inv, spec.mul, theta)
    with pytest.raises(BuilderError, match="no theta for element 1"):
        partial_action_groupoid(broken)


def corrupt_spec(rng: random.Random, spec: PartialActionSpec) -> PartialActionSpec:
    """A copy of ``spec`` with 0-3 θ values, θ entries, products or inverses
    changed to a value from -1 to the bound, added or deleted."""
    n, elements = spec.n_points, spec.elements
    inv, mul = dict(spec.inv), dict(spec.mul)
    theta = {g_el: dict(th) for g_el, th in spec.theta.items()}
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["theta", "theta", "mul", "inv"])
        if kind == "theta":
            th = theta[rng.choice(elements)]
            x = rng.randrange(n)
            if x in th and rng.random() < 0.4:
                del th[x]
            else:
                th[x] = rng.randint(-1, n)
        else:
            table = mul if kind == "mul" else inv
            key = rng.choice(sorted(table, key=repr) or ["stray"])
            if key in table and rng.random() < 0.3:
                del table[key]
            else:
                table[key] = rng.choice(elements + ("stray",))
    return PartialActionSpec(n, elements, inv, mul, theta)


def without_arrowless_elements(spec: PartialActionSpec) -> PartialActionSpec:
    """``spec`` with every element that has no arrow, and every inverse or
    product entry naming one, left out."""
    keep = tuple(g_el for g_el in spec.elements if spec.theta.get(g_el) != {})
    return PartialActionSpec(
        spec.n_points,
        keep,
        {a: b for a, b in spec.inv.items() if a in keep and b in keep},
        {ab: c for ab, c in spec.mul.items() if set(ab) <= set(keep)},
        {g_el: spec.theta[g_el] for g_el in keep if g_el in spec.theta},
    )


def test_partial_action_rejects_exactly_what_hand_checks_reject():
    # the hand checks are the oracle: validate must reject exactly what they
    # reject, on free actions (Z-shift, rotation) and a non-free one (trivial)
    rng = random.Random(19)
    accepted = rejected = arrowless = 0
    for _ in range(4_000):
        k = rng.randint(1, 4)
        kind = rng.choice(["shift", "rotation", "trivial"])
        if kind == "shift":
            valid = z_shift_partial_spec(rng.randint(1, 5))
        elif kind == "rotation":
            valid = cyclic_spec(k, rotation_perms(k, k * rng.randint(1, 6 // k)))
        else:
            valid = cyclic_spec(k, trivial_perms(k, rng.randint(1, 3)))
        spec = corrupt_spec(rng, valid)
        try:
            hand_checked_partial_action(spec)
            expect_ok = True
        except BuilderError:
            expect_ok = False
        try:
            g = partial_action_groupoid(spec)
        except BuilderError:
            assert not expect_ok, spec
            rejected += 1
            continue
        if not expect_ok:  # only entries that no arrow reads may differ
            hand_checked_partial_action(without_arrowless_elements(spec))
            arrowless += 1
            continue
        assert g.n_arrows == sum(map(len, spec.theta.values())) and validate(tables_of(g)).ok
        accepted += 1
    assert accepted >= 1_000 and rejected >= 1_500, (accepted, rejected, arrowless)


def test_partial_action_rejects_a_wrong_product_on_isotropy():
    # θ_1 fixes 0, so the arrows (0, 0) and (1, 0) share their endpoints and
    # only the product entry tells them apart: 0*1 = 0 breaks the identity law
    spec = PartialActionSpec(
        2,
        (0, 1),
        {0: 0, 1: 1},
        {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0},
        {0: {0: 0, 1: 1}, 1: {0: 0}},
    )
    with pytest.raises(BuilderError, match="identity-law"):
        partial_action_groupoid(spec)


def test_partial_action_ignores_entries_of_an_element_without_arrows():
    # no arrow reads the inverse or products of an element with empty theta:
    # the hand checks reject a wrong inverse there, the builder does not
    spec = z_shift_partial_spec(3)
    elements = spec.elements + ("far",)  # listed, but with an empty domain
    theta = {**spec.theta, "far": {}}
    inv = {**spec.inv, "far": "0"}
    mul = {**spec.mul, ("far", "1"): "stray"}
    odd = PartialActionSpec(3, elements, inv, mul, theta)
    with pytest.raises(BuilderError, match="theta_far is not defined on the inverse domain"):
        hand_checked_partial_action(odd)
    g = partial_action_groupoid(odd)
    assert validate(tables_of(g)).ok and g.n_arrows == 9
    hand_checked_partial_action(without_arrowless_elements(odd))


def test_partial_shift_window():
    g = partial_action_groupoid(z_shift_partial_spec(10))
    assert validate(tables_of(g)).ok and is_principal(g)
    assert g.n_units == 10 and g.n_arrows == 100  # full pair relation on a line


def test_partial_action_empty_domains():
    spec = z_shift_partial_spec(1)
    g = partial_action_groupoid(spec)
    assert g.n_arrows == 1


def test_partial_action_rejects_broken_extension():
    # the builder requires every product that it composes
    for n_points in (3, 4):
        spec = z_shift_partial_spec(n_points)
        mul = dict(spec.mul)
        del mul[("1", "1")]  # the product 2 is needed on overlapping domains
        broken = type(spec)(spec.n_points, spec.elements, spec.inv, mul, spec.theta)
        with pytest.raises(BuilderError, match=r"product '1'\*'1' is needed at point 0"):
            partial_action_groupoid(broken)


def test_blowup_counts_and_projection():
    g = pair_groupoid(3)
    bl = blowup(g, replicate_psi(g, 2))
    assert bl.groupoid.n_units == 6
    assert validate(tables_of(bl.groupoid)).ok and is_principal(bl.groupoid)
    expected = sum(
        bl.psi.count(g.rng[a]) * bl.psi.count(g.src[a]) for a in range(g.n_arrows)
    )
    assert bl.groupoid.n_arrows == expected == 36
    for b in range(bl.groupoid.n_arrows):
        assert g.src[bl.pi[b]] == bl.psi[bl.groupoid.src[b]]
        assert g.rng[bl.pi[b]] == bl.psi[bl.groupoid.rng[b]]
    with pytest.raises(BuilderError):
        blowup(g, (0, 0, 1, 1))


def test_product_shapes():
    g2 = pair_groupoid(2)
    prod = product(g2, g2)
    assert prod.groupoid.n_units == 4
    assert prod.groupoid.n_arrows == 16  # the pair groupoid on four points
    assert validate(tables_of(prod.groupoid)).ok and is_principal(prod.groupoid)
    unit = pair_groupoid(1)
    same = product(pair_groupoid(3), unit)
    assert same.groupoid.n_arrows == 9
    units_only = product(unit, unit)
    assert units_only.groupoid.n_arrows == 1


@pytest.mark.parametrize("a, b", [(2, 3), (3, 4)])
def test_product_fibers_multiply(a, b):
    gl, gr = pair_groupoid(a), pair_groupoid(b)
    prod = product(gl, gr)
    gp = prod.groupoid
    for u in range(a):
        for v in range(b):
            fiber = gp.by_rng[prod.unit_id(u, v)].bit_count()
            assert fiber == gl.by_rng[u].bit_count() * gr.by_rng[v].bit_count()


@pytest.mark.parametrize("n", range(1, 13))
def test_pair_groupoid_agrees_with_the_pair_index_oracle(n):
    assert same_groupoid(pair_groupoid(n), pair_index_groupoid(n))


def random_factor(rng: random.Random):
    """A small factor: a pair groupoid, a rotation or a trivial action."""
    kind = rng.randrange(3)
    if kind == 0:
        return pair_groupoid(rng.randint(1, 4))
    k = rng.randint(1, 3)
    if kind == 1:
        return action_groupoid(cyclic_table(k), rotation_perms(k, k * rng.randint(1, 2)))
    return action_groupoid(cyclic_table(k), trivial_perms(k, rng.randint(1, 2)))


def test_product_agrees_with_the_tuple_keyed_oracle():
    rng = random.Random(20)
    for trial in range(60):
        gl, gr = random_factor(rng), random_factor(rng)
        if trial % 3 == 0:  # a product of a product, isotropic factors included
            gl = product(gl, random_factor(rng)).groupoid
        prod = product(gl, gr)
        oracle, ids = tuple_keyed_product(gl, gr)
        assert same_groupoid(prod.groupoid, oracle), trial
        assert {(a, b): i for a, row in enumerate(prod.arrow_ids)
                for b, i in enumerate(row)} == ids, trial


def test_tree_window_shapes():
    g, graphing = tree_window("path", 2)
    assert len(graphing.q) == 2 and graphing.treeable
    gb, graphing_b = tree_window("binary", 3)
    assert gb.n_units == 15 and graphing_b.treeable
    assert validate(tables_of(gb)).ok


def test_save_load_roundtrip(tmp_path):
    g = pair_groupoid(7)
    path = tmp_path / "p7.json"
    save(g, path)
    loaded = load(path)
    assert loaded.n_units == 7 and loaded.n_arrows == 49
    assert loaded.src == g.src and loaded.rng == g.rng and loaded.inv == g.inv
    assert same_groupoid(loaded, tables_of(g))
    # canonical writer is byte-stable across a round trip
    second = tmp_path / "again.json"
    save(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_golden_bytes_p3():
    golden = (
        '{"arrows":[{"id":3,"rng":0,"src":1},{"id":4,"rng":0,"src":2},'
        '{"id":5,"rng":1,"src":0},{"id":6,"rng":1,"src":2},'
        '{"id":7,"rng":2,"src":0},{"id":8,"rng":2,"src":1}],'
        '"comp":[[3,5,0],[3,6,4],[4,7,0],[4,8,3],[5,3,1],[5,4,6],'
        '[6,7,5],[6,8,1],[7,3,8],[7,4,2],[8,5,7],[8,6,2]],'
        '"inv":[0,1,2,5,7,3,8,4,6],"units":3}\n'
    )
    assert canonical_dumps(instance_to_obj(pair_groupoid(3))) == golden


def test_loader_rejects_corrupt_comp(tmp_path):
    g = pair_groupoid(3)
    obj = instance_to_obj(g)
    obj["comp"][0][2] = (obj["comp"][0][2] + 1) % g.n_arrows
    path = tmp_path / "bad.json"
    path.write_text(canonical_dumps(obj), encoding="utf-8")
    with pytest.raises(LoadError) as err:
        load(path)
    assert "axiom" in str(err.value) or "conflict" in str(err.value)


def test_loader_rejects_schema_violations(tmp_path):
    with pytest.raises(LoadError):
        obj_to_instance({"units": 2, "arrows": [], "inv": [0], "comp": []})
    with pytest.raises(LoadError):
        obj_to_instance(
            {
                "units": 1,
                "arrows": [{"id": 0, "src": 0, "rng": 0}],  # identity range
                "inv": [0, 0],
                "comp": [],
            }
        )
    malformed = [
        ("comp", 5),  # not a list
        ("comp", lambda comp: comp[:-1] + [comp[-1][:2]]),  # a two-element triple
        ("comp", lambda comp: comp + [[3, "x", 4]]),  # an entry that is not an integer
        ("comp", lambda comp: comp + [[3, 5, None]]),  # a null entry
        ("arrows", 5),  # not a list
        ("comp", lambda comp: comp + [[3, 5, 1]]),  # (3, 5) is also given 0
        ("comp", lambda comp: comp + [[0, 3, 4]]),  # (0, 3) is the identity product 3
        # ids are JSON integers: a float, a numeric string or a bool is refused,
        # though int() would read each as a valid id
        ("comp", lambda comp: [[float(comp[0][0]), *comp[0][1:]], *comp[1:]]),
        ("comp", lambda comp: [[str(comp[0][0]), *comp[0][1:]], *comp[1:]]),
        ("comp", lambda comp: [[a, b, True if c == 1 else c] for a, b, c in comp]),
        ("units", 3.0),
        ("units", "3"),
        ("inv", lambda inv: [inv[0], True, *inv[2:]]),  # unit 1 is its own inverse
        ("arrows", lambda arrows: [{**arrows[0], "id": str(arrows[0]["id"])}, *arrows[1:]]),
        ("arrows", lambda arrows: [{**arrows[0], "src": float(arrows[0]["src"])}, *arrows[1:]]),
    ]
    for key, value in malformed:
        with pytest.raises(LoadError):
            obj_to_instance(_p3_with(key, value))
    g, graphing = tree_window("path", 3)
    q = sorted(graphing.q)
    for bad in ([True], [float(q[0]), *q[1:]], [str(q[0]), *q[1:]]):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"q": bad}))
        with pytest.raises(LoadError):
            load_graphing(g, path)


def _p3_with(key, value):
    obj = instance_to_obj(pair_groupoid(3))
    obj[key] = value(obj[key]) if callable(value) else value
    return obj


def test_loader_accepts_an_identical_repeat():
    obj = _p3_with("comp", lambda comp: comp + [comp[0], [0, 3, 3]])
    assert same_groupoid(obj_to_instance(obj), pair_index_groupoid(3))


def test_graphing_sidecar_roundtrip(tmp_path):
    g, graphing = tree_window("binary", 2)
    gpath = tmp_path / "g.json"
    save_graphing(graphing, gpath)
    again = load_graphing(g, gpath)
    assert again.q == graphing.q and again.treeable


def test_every_builder_output_validates():
    outputs = [
        pair_groupoid(5),
        action_groupoid(cyclic_table(4), rotation_perms(4, 8)),
        action_groupoid(cyclic_table(3), trivial_perms(3, 2)),
        partial_action_groupoid(z_shift_partial_spec(6)),
        blowup(pair_groupoid(3), replicate_psi(pair_groupoid(3), 2)).groupoid,
        product(pair_groupoid(2), pair_groupoid(3)).groupoid,
        tree_window("binary", 3)[0],
    ]
    for g in outputs:
        assert validate(tables_of(g)).ok


def test_partial_action_listed_empty_domain_gives_unit_groupoid():
    spec = PartialActionSpec(
        3,
        ("e", "g"),
        {"e": "e", "g": "g"},
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g"},
        {"e": {x: x for x in range(3)}, "g": {}},
    )
    g = partial_action_groupoid(spec)
    assert g.n_arrows == g.n_units == 3


def test_save_load_fuzz_roundtrip(tmp_path):
    from conftest import random_groupoid

    rng = random.Random(2)
    for i in range(10):
        g = random_groupoid(rng, max_arrows=60)
        path = tmp_path / f"r{i}.json"
        save(g, path)
        back = load(path)
        assert back.src == g.src and back.rng == g.rng
        assert back.inv == g.inv and same_groupoid(back, tables_of(g))


def random_built(rng: random.Random, depth: int = 1):
    """A random builder output and its dict oracle, written out by definition:
    a pair groupoid, a full action (free or trivial, so principal or not), a
    truncated Z-shift, or at ``depth`` 1 a product or blow-up of those."""
    kind = rng.choice(["pair", "rotation", "trivial", "trivial", "shift"]
                      + ["product", "blowup"] * depth)
    if kind == "pair":
        n = rng.randint(1, 4)
        return pair_groupoid(n), pair_index_groupoid(n)
    if kind in ("rotation", "trivial"):
        k = rng.randint(1 if kind == "rotation" else 2, 3)
        perms = (rotation_perms(k, k * rng.randint(1, 2)) if kind == "rotation"
                 else trivial_perms(k, rng.randint(1, 3)))
        return action_groupoid(cyclic_table(k), perms), dict_partial_action(cyclic_spec(k, perms))
    if kind == "shift":
        spec = z_shift_partial_spec(rng.randint(1, 4))
        return partial_action_groupoid(spec), dict_partial_action(spec)
    g, oracle = random_built(rng, 0)
    if kind == "product":
        h, h_oracle = random_built(rng, 0)
        return product(g, h).groupoid, tuple_keyed_product(oracle, h_oracle)[0]
    psi = list(range(g.n_units)) + [rng.randrange(g.n_units) for _ in range(rng.randint(0, 3))]
    rng.shuffle(psi)
    return blowup(g, psi).groupoid, dict_blowup(oracle, psi)


def test_normal_form_agrees_with_the_dict_oracle():
    # compose on every composable pair against the dict of products written
    # out by definition, for each builder and a restriction of each output;
    # the triples every output induces pass validate
    rng = random.Random(21)
    seen = {"principal": 0, "isotropic": 0, "restricted": 0}
    for trial in range(200):
        g, oracle = random_built(rng)
        units = [u for u in range(g.n_units) if rng.random() < 0.6]
        sub = restrict(g, UnitSet(g, sum(1 << u for u in units)))
        for built, expected in ((g, oracle), (sub, dict_restrict(oracle, units))):
            assert same_groupoid(built, expected), trial
            assert validate(tables_of(built)).ok, trial
        seen["principal" if is_principal(g) else "isotropic"] += 1
        seen["restricted"] += 0 < len(units) < g.n_units
    assert min(seen.values()) >= 40, seen
