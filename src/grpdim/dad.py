"""(K,L)-dad witnesses: checking, exact and greedy search, witness transfer.

A witness certifies that a cover of the unit space confines every generated
subgroupoid of the window ``K`` inside the bound ``L``.  All transfer
operations (gluing, union, product, pullback, blow-up) re-verify their
hypotheses and re-certify their outputs from scratch; certificates are
computed, never trusted.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ._search import class_search, compact_order, partition_search, refute_then_witness
from .covers import ControlFunction, Cover, CoverError, fold_number
from .groupoid import (
    ArrowSet,
    Groupoid,
    GroupoidError,
    UnitSet,
    _fiber,
    _orbit,
    _powers,
    _same_owner,
    arrows_within,
    generated,
    is_principal,
    iter_bits,
    mask_of,
    power,
    symmetrize,
    triples,
    unit_graph,
)


class WitnessError(GroupoidError):
    """Ill-posed witness request (owners, normality) or malformed serialized witness."""


class HypothesisError(GroupoidError):
    """A transfer operation's preconditions failed re-verification."""


class DadWitness(NamedTuple):
    """A cover with its per-class generated subgroupoids and the verdict."""

    cover: Cover
    K: ArrowSet
    L: ArrowSet
    generated_per_class: tuple[ArrowSet, ...]
    certified: bool

    @property
    def d(self) -> int:
        return len(self.cover.classes) - 1

    @property
    def owner(self) -> Groupoid:
        return self.cover.owner

    @property
    def reach(self) -> ArrowSet:
        """The union of the classes' generated subgroupoids."""
        out = self.owner.arrow_set()
        for gen in self.generated_per_class:
            out = out | gen
        return out

    def to_json_obj(self) -> dict:
        from .artifacts import witness  # artifacts imports this module

        return witness(self)


def _require_oc(name: str, aset: ArrowSet) -> None:
    if not aset.is_oc_normal():
        raise WitnessError(f"{name} must be symmetric and contain every unit")


def kl_dad_check(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, cover: Cover) -> DadWitness:
    """Certify a cover: every class must generate inside the bound.

    The witness is certified iff the classes cover every unit and each
    ``generated(K, U_i)`` lies inside ``L``.
    """
    _same_owner(g, k_set.owner)
    _same_owner(g, l_set.owner)
    _same_owner(g, cover.owner)
    _require_oc("K", k_set)
    _require_oc("L", l_set)
    gens = tuple(generated(k_set, cls) for cls in cover.classes)
    covered = g.units_mask & ~cover.union_mask() == 0
    certified = covered and all(gen <= l_set for gen in gens)
    return DadWitness(cover, k_set, l_set, gens, certified)


def certify(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, cover: Cover, error) -> DadWitness:
    """``kl_dad_check``'s witness, or raise the exception ``error`` if it is not certified."""
    witness = kl_dad_check(g, k_set, l_set, cover)
    if not witness.certified:
        raise error
    return witness


# -- search ---------------------------------------------------------------


def _principal_tables(g: Groupoid, k_set: ArrowSet, l_set: ArrowSet):
    n = g.n_units
    adj = unit_graph(g, k_set)
    ok = [0] * n
    for a in iter_bits(l_set.mask):
        ok[g.src[a]] |= 1 << g.rng[a]
    return adj, ok


def _generic_try_add(g, steps, l_mask, units, u):
    """The class ``units`` with u added, or None if K (``steps``, with its
    inverses) generates outside L on it.  Only the orbit through u changes,
    and only if a K-arrow inside the class touches u; its fiber is checked first."""
    units |= 1 << u
    if not any(units >> g.rng[a] & 1 for a in iter_bits(steps & g.by_src[u])):
        return units
    fiber = _fiber(g, u, steps & arrows_within(g, UnitSet(g, units)).mask)
    return None if fiber & ~l_mask or _orbit(g, fiber) & ~l_mask else units


def _generic_search(
    g: Groupoid, k_set: ArrowSet, l_set: ArrowSet, d: int, mode: str, order=None
):
    """Partition search for arbitrary (possibly non-principal) groupoids.

    A class state is its unit mask, feasible while the subgroupoid its
    K-arrows generate stays inside L; K is joined with its inverses once per
    search.  Exact mode refutes in ``order`` (default: ``compact_order`` of
    K's ``unit_graph``) and takes a solution from the id-order run, as
    ``partition_search`` does.  It stores no failed states, so
    ``kl_dad_search`` calls it only at a d whose principal shadow has a
    solution; there the obstruction, if any, is isotropy.
    """
    steps, l_mask = k_set.mask | k_set.inverse().mask, l_set.mask

    def run(units):
        return class_search(
            units, d + 1, 0, lambda s, u: _generic_try_add(g, steps, l_mask, s, u), mode
        )

    if mode == "exact" and order is None:
        order = compact_order(g.n_units, unit_graph(g, k_set))
    return refute_then_witness(run, g.n_units, order, mode)


def kl_dad_search(
    g: Groupoid,
    k_set: ArrowSet,
    l_set: ArrowSet,
    d_max: int,
    mode: str = "exact",
) -> "DadWitness | None":
    """Search for a certified witness of minimal d <= d_max.

    Exact mode is complete over unit color assignments: since shrinking a
    class preserves certification, it suffices to explore partitions.  Each
    d is refuted in ``compact_order`` of the window graph (K's non-unit
    arrows), computed once per search, so the cost does not depend on the
    unit ids.  At the least feasible d the witness comes from a second run
    in lexicographic order of unit ids with colors canonicalized by first
    use, so it is the minimum of that order.  Greedy mode is a first-fit
    pass per d in unit-id order: sound but incomplete.

    Every d is first searched on the principal shadow, ``partition_search``
    over ``_principal_tables``: items are units, adjacent when a K-arrow
    joins them, and ``ok[x]`` holds the ranges of L's arrows from x (both
    symmetric, since K and L are oc-normal).  A class is feasible there iff
    each of its components in K's unit graph lies in ``ok`` of every member.
    Every certificate of g is a shadow solution: let C be such a component
    inside a class U.  The K-arrows along a path of C from x to y have both
    endpoints in U, so their product lies in generated(K, U), which lies in
    L; hence y is in ``ok[x]`` for all x, y in C.  So a shadow refutation of
    d refutes d on g.  On a principal g the converse holds too: generated(K,
    U) is the one arrow from x to y for each pair x, y of a component, and
    that arrow lies in L iff y is in ``ok[x]``, so the shadow is g and its
    solution is the witness.  On a groupoid with isotropy the shadow cannot see the
    isotropy that generated(K, U) picks up, so a d it does not refute is
    decided by ``_generic_search``.  Greedy mode skips the shadow there,
    because a greedy miss proves nothing.
    """
    if d_max < 0:
        raise WitnessError("d_max must be nonnegative")
    if mode not in ("exact", "greedy"):
        raise WitnessError(f"unknown search mode: {mode!r}")
    _same_owner(g, k_set.owner)
    _same_owner(g, l_set.owner)
    _require_oc("K", k_set)
    _require_oc("L", l_set)

    principal = is_principal(g)
    adj, ok = _principal_tables(g, k_set, l_set)
    order = compact_order(g.n_units, adj) if mode == "exact" else None

    # more classes than units leave one empty: no d above n_units − 1 is new
    for d in range(min(d_max, max(g.n_units - 1, 0)) + 1):
        if principal or mode == "exact":
            states = partition_search(g.n_units, d + 1, adj, ok, mode, order)
            if states is None:
                continue
        if principal:
            masks = [s[0] for s in states]
        else:
            masks = _generic_search(g, k_set, l_set, d, mode, order)
        if masks is not None:
            cover = Cover(g, tuple(UnitSet(g, m) for m in masks))
            return certify(g, k_set, l_set, cover,
                           RuntimeError("search produced an uncertifiable cover"))
    return None


# -- gluing ----------------------------------------------------------------


class GluingCertificate(NamedTuple):
    """Outcome of a gluing containment check: the generated set and its bound."""

    holds: bool
    generated_set: ArrowSet
    bound: ArrowSet

    def __bool__(self):
        return self.holds


def glue_two(
    g: Groupoid,
    v0: UnitSet,
    v1: UnitSet,
    k0: ArrowSet,
    k1: ArrowSet,
    k2: ArrowSet,
) -> GluingCertificate:
    """Two-set gluing: confine the window's subgroupoid over V0 | V1 in K2^5.

    Hypotheses (re-verified): K0 <= K1 <= K2 symmetric with units,
    generated(K0, V0) <= K1 and generated(K1^3, V1) <= K2.
    """
    for name, s in (("K0", k0), ("K1", k1), ("K2", k2)):
        _require_oc(name, s)
    if not (k0 <= k1 and k1 <= k2):
        raise HypothesisError("window chain K0 <= K1 <= K2 violated")
    if not generated(k0, v0) <= k1:
        raise HypothesisError("generated(K0, V0) escapes K1")
    if not generated(power(k1, 3), v1) <= k2:
        raise HypothesisError("generated(K1^3, V1) escapes K2")

    gen = generated(k0, v0 | v1)
    bound = power(k2, 5)
    return GluingCertificate(gen <= bound, gen, bound)


def _window_chain(k_list: Sequence[ArrowSet]) -> None:
    """Windows must be symmetric with units, each inside the next."""
    for i, s in enumerate(k_list):
        _require_oc(f"K{i}", s)
        if i and not k_list[i - 1] <= s:
            raise HypothesisError(f"window chain not increasing at index {i}")


def glue_chain(
    g: Groupoid,
    v_list: Sequence[UnitSet],
    k_list: Sequence[ArrowSet],
) -> GluingCertificate:
    """Chained gluing over finitely many unit sets.

    Requires one more window than unit sets, increasing and symmetric with
    units, with ``generated(K_i^15, V_i) <= K_{i+1}`` at every link; the
    certificate confines ``generated(K_0, union V_i)`` in the 5th power of the
    last window.
    """
    if len(k_list) != len(v_list) + 1:
        raise HypothesisError("need exactly one more window than unit sets")
    _window_chain(k_list)
    for i, v in enumerate(v_list):
        if not generated(power(k_list[i], 15), v) <= k_list[i + 1]:
            raise HypothesisError(f"generated(K{i}^15, V{i}) escapes K{i + 1}")
    g0 = g.unit_set()
    union = g0
    for v in v_list:
        union = union | v
    gen = generated(k_list[0], union)
    bound = power(k_list[-1], 5)
    return GluingCertificate(gen <= bound, gen, bound)


def union_combine(
    g: Groupoid,
    parts: Sequence[UnitSet],
    witnesses: Sequence[DadWitness],
    k_list: Sequence[ArrowSet],
) -> DadWitness:
    """Merge per-part witnesses over a clopen partition into one global witness.

    Part ``i`` must carry a certified witness on ``restrict(g, parts[i])`` for
    the window ``K_i^15`` restricted there, with generated classes inside
    ``K_{i+1}``.  Classes are merged index-wise; the result is re-certified at
    ``(K_0, K_n^5)`` where ``n = len(parts)``.
    """
    if len(witnesses) != len(parts):
        raise HypothesisError("one witness per part required")
    if len(k_list) != len(parts) + 1:
        raise HypothesisError("need exactly one more window than parts")
    seen = 0
    for p in parts:
        _same_owner(g, p.owner)
        if seen & p.mask:
            raise HypothesisError("parts are not disjoint")
        seen |= p.mask
    if seen != g.units_mask:
        raise HypothesisError("parts do not cover the unit space")
    _window_chain(k_list)

    d = max(w.d for w in witnesses)
    merged = [0] * (d + 1)
    for i, (part, w) in enumerate(zip(parts, witnesses)):
        sub = w.owner
        if sub.parent is not g or set(sub.parent_arrows[:sub.n_units]) != set(part):
            raise HypothesisError(f"witness {i} is not a witness on restrict(g, parts[{i}])")
        expected_k = sub.from_parent_arrows(power(k_list[i], 15))
        if w.K != expected_k:
            raise HypothesisError(f"witness {i} window is not K{i}^15 restricted to its part")
        certify(sub, expected_k, sub.from_parent_arrows(k_list[i + 1]), w.cover,
                HypothesisError(f"witness {i} fails re-certification against K{i + 1}"))
        for j, cls in enumerate(w.cover.classes):
            merged[j] |= sub.to_parent_units(cls).mask

    cover = Cover(g, tuple(UnitSet(g, m) for m in merged))
    out = kl_dad_check(g, k_list[0], power(k_list[-1], 5), cover)
    if not out.certified:
        offender = next(
            i for i, gen in enumerate(out.generated_per_class) if not gen <= out.L
        )
        raise HypothesisError(
            f"merged class {offender} escapes the final bound; "
            "the window chain grows too slowly"
        )
    return out


# -- product ---------------------------------------------------------------


def product_combine(
    prod,
    d_left: int,
    cover_left: Cover,
    k_left: ArrowSet,
    l_left: ArrowSet,
    d_right: int,
    cover_right: Cover,
    k_right: ArrowSet,
    l_right: ArrowSet,
) -> DadWitness:
    """Build a product witness from fold-lifted factor covers.

    Both covers must sit at level ``k = d_left + d_right``: ``k+1`` classes,
    ``(k+1-d)``-fold for their own ``d``, with every class generating inside
    the factor bound.  The product witness has classes ``U_i x V_i`` and bound
    ``L_left x L_right``.  Once the hypotheses hold it certifies, so a failure
    there is a broken invariant (RuntimeError): ``u`` lies in at least
    ``k+1-d_left`` classes ``U_i`` and ``v`` in at least ``k+1-d_right``
    classes ``V_i``, ``k+2`` memberships among ``k+1`` indices, so some
    ``U_i x V_i`` holds ``(u, v)``; and products in the window are factorwise,
    so ``generated(K, U_i x V_i)`` lies in ``generated(K_left, U_i) x
    generated(K_right, V_i)``, inside ``L_left x L_right``.
    """
    _same_owner(prod.left, cover_left.owner)
    _same_owner(prod.right, cover_right.owner)
    k = d_left + d_right
    for side, cov, dd in (("left", cover_left, d_left), ("right", cover_right, d_right)):
        if len(cov.classes) != k + 1:
            raise HypothesisError(f"{side} cover must have {k + 1} classes")
        fold = fold_number(cov)
        if fold < k + 1 - dd:
            raise HypothesisError(f"{side} cover is only {fold}-fold, need {k + 1 - dd}")
    for side, cov, kk, ll in (
        ("left", cover_left, k_left, l_left),
        ("right", cover_right, k_right, l_right),
    ):
        for i, cls in enumerate(cov.classes):
            if not generated(kk, cls) <= ll:
                raise HypothesisError(f"{side} class {i} generates outside its bound")

    gp = prod.groupoid
    k_prod = prod.lift_sets(k_left, k_right)
    l_prod = prod.lift_sets(l_left, l_right)
    classes = []
    for ul, ur in zip(cover_left.classes, cover_right.classes):
        mask = 0
        for u in ul:
            for v in ur:
                mask |= 1 << prod.unit_id(u, v)
        classes.append(UnitSet(gp, mask))
    return certify(gp, k_prod, l_prod, Cover(gp, tuple(classes)),
                   RuntimeError("product witness failed re-certification"))


# -- functor transfer ------------------------------------------------------


def check_functor(g: Groupoid, h: Groupoid, pi: Sequence[int]) -> None:
    """Verify that ``pi`` is a groupoid homomorphism arrow map g -> h."""
    if len(pi) != g.n_arrows:
        raise HypothesisError("functor map must cover every arrow")
    for a in range(g.n_arrows):
        if not 0 <= pi[a] < h.n_arrows:
            raise HypothesisError(f"functor image of arrow {a} out of range")
    for u in range(g.n_units):
        if not h.is_unit(pi[u]):
            raise HypothesisError(f"functor sends identity {u} to a non-identity arrow")
    for a in range(g.n_arrows):
        if pi[g.inv[a]] != h.inv[pi[a]]:
            raise HypothesisError(f"functor does not preserve inverse at arrow {a}")
        if h.src[pi[a]] != pi[g.src[a]] or h.rng[pi[a]] != pi[g.rng[a]]:
            raise HypothesisError(f"functor does not preserve endpoints at arrow {a}")
    for a, b, c in triples(g):
        if h.compose_or_none(pi[a], pi[b]) != pi[c]:
            raise HypothesisError(f"functor does not preserve composition at ({a},{b})")


def map_arrows_back(g: Groupoid, pi: Sequence[int], aset: ArrowSet) -> ArrowSet:
    return ArrowSet(g, mask_of(a for a in range(g.n_arrows) if pi[a] in aset))


def pullback_witness(
    g: Groupoid,
    h: Groupoid,
    pi: Sequence[int],
    k_g: ArrowSet,
    witness_h: DadWitness,
) -> DadWitness:
    """Pull a witness back along a homomorphism into the domain groupoid.

    Classes become unit preimages; the bound is the symmetrized preimage of
    the re-checked target witness's ``reach``.  Once the hypotheses hold the
    result certifies, so a failure there is a broken invariant (RuntimeError):
    each unit maps to a unit, which some ``U_i`` holds; and ``pi`` maps K_g's
    arrows within ``pi^-1 U_i`` to K_h's within ``U_i`` and preserves products
    and inverses, so it maps ``generated(K_g, pi^-1 U_i)`` into
    ``generated(K_h, U_i)``, inside the reach.
    """
    check_functor(g, h, pi)
    _same_owner(g, k_g.owner)
    if not ArrowSet(h, mask_of(pi[a] for a in k_g)) <= witness_h.K:
        raise HypothesisError("functor image of the window escapes the target window")
    recheck = certify(h, witness_h.K, witness_h.L, witness_h.cover,
                      HypothesisError("target witness fails re-certification"))

    l_g = symmetrize(map_arrows_back(g, pi, recheck.reach))
    classes = tuple(
        UnitSet(g, mask_of(u for u in range(g.n_units) if pi[u] in cls))
        for cls in witness_h.cover.classes
    )
    return certify(g, k_g, l_g, Cover(g, classes),
                   RuntimeError("pulled-back witness failed re-certification"))


# -- blow-up transfer ------------------------------------------------------


def blowup_lift(bl, witness: DadWitness) -> DadWitness:
    """Lift a witness to the blow-up through the projection (a pullback)."""
    gb = bl.groupoid
    return pullback_witness(gb, bl.base, bl.pi, map_arrows_back(gb, bl.pi, witness.K), witness)


def blowup_transfer(
    bl,
    witness_psi: DadWitness,
    k_set: ArrowSet,
    l_g: ArrowSet,
) -> DadWitness:
    """Push a blow-up witness down: classes map through the unit surjection.

    The blow-up witness window must contain the lift of ``k_set``; the result
    is re-certified directly at ``(k_set, l_g)``.
    """
    g = bl.base
    gb = bl.groupoid
    _same_owner(g, k_set.owner)
    _same_owner(gb, witness_psi.owner)
    if set(bl.psi) != set(range(g.n_units)):
        raise HypothesisError("unit map of the blow-up is not surjective")
    lifted = map_arrows_back(gb, bl.pi, k_set)
    if not lifted <= witness_psi.K:
        raise HypothesisError("blow-up witness window does not contain the lifted window")
    certify(gb, witness_psi.K, witness_psi.L, witness_psi.cover,
            HypothesisError("blow-up witness fails re-certification"))

    classes = tuple(
        UnitSet(g, mask_of(bl.psi[x] for x in cls))
        for cls in witness_psi.cover.classes
    )
    return certify(g, k_set, l_g, Cover(g, classes),
                   HypothesisError("transferred witness failed re-certification"))


# -- control-function discovery -------------------------------------------


def discover_control_function(g: Groupoid, d: int) -> ControlFunction:
    """Control function whose bounds are minimal powers found by witness search.

    For each window the provider searches ``L = K^j`` for j = 1, 2, ... along
    the power ladder (only j = 0 if K is the units) until a d-witness
    certifies; the search is exact, so the bound is the least power of the
    window that admits a d-witness.  The stable power is generated(K, all
    units), so one class is a witness there at the latest.
    """

    def provider(k_set: ArrowSet) -> tuple[ArrowSet, Cover]:
        if not k_set.is_oc_normal():
            raise CoverError("control windows must be symmetric with units")
        bounds = _powers(k_set)
        if k_set.mask != g.units_mask:
            next(bounds)  # K^0, the units, lies below K^1 = K
        witness = next(filter(None, (kl_dad_search(g, k_set, bound, d) for bound in bounds)))
        # a lower-dimensional witness is padded with empty classes
        return witness.L, Cover(g, witness.cover.classes + (g.unit_set(),) * (d - witness.d))

    return ControlFunction(d, provider)
