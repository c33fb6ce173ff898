"""End-to-end theorem pipelines: each runs one permanence construction
through search, transfer, and re-certification, and reports every stage.

Reports are plain dicts (JSON-ready); artifacts carry serialized witnesses so
that every "certified" result can be re-verified from the artifact alone.
Only the bridge and the asdim sweep import the coarse layer, when they run.
"""

from __future__ import annotations

from . import artifacts
from .builders import blowup, product, replicate_psi
from .covers import control_apply, level_cover
from .dad import (
    blowup_lift,
    blowup_transfer,
    discover_control_function,
    kl_dad_search,
    map_arrows_back,
    product_combine,
    union_combine,
)
from .graphing import Graphing
from .groupoid import ArrowSet, Groupoid, GroupoidError, UnitSet, power, restrict, symmetrize
from .setspec import parse_arrow_spec


class PipelineError(GroupoidError):
    """A pipeline stage failed; the message names the stage."""


class NoWitnessError(PipelineError):
    """An exact search stage found no witness up to d_max: a refutation,
    not bad input."""


def _stage(report: dict, name: str, **data) -> None:
    report["stages"].append({"stage": name, **data})


def _need_witness(witness, stage: str):
    if witness is None:
        raise NoWitnessError(f"stage {stage!r}: search found no witness")
    return witness


def product_theorem(
    gl: Groupoid,
    k_left: ArrowSet,
    gr: Groupoid,
    k_right: ArrowSet,
    l_power: int = 2,
    d_max: int = 2,
    refute_units=None,
) -> dict:
    """Certify dad(G x H) <= dad(G) + dad(H) at window scale.

    Factor witnesses are found at ``(K, K^l_power)``, control functions are
    discovered as minimal powers, both covers are fold-lifted to the sum
    level, and the product witness is re-certified.  When ``refute_units`` is
    given, an exact search additionally refutes ``d = sum - 1`` on that
    restriction at the factor-scale product bound.
    """
    report = {"operation": "theorem-product", "stages": [], "artifacts": {}}
    factors = (("left", gl, k_left), ("right", gr, k_right))
    witnesses = [
        _need_witness(kl_dad_search(g, k, power(k, l_power), d_max), f"{side}-search")
        for side, g, k in factors
    ]
    d_left, d_right = (w.d for w in witnesses)
    _stage(report, "factor-search", d_left=d_left, d_right=d_right)

    level = d_left + d_right
    combine_args = []  # product_combine's (d, cover, K, L) per factor
    lift = {"level": level}
    for (side, g, k), w in zip(factors, witnesses):
        report["artifacts"][f"{side}-witness"] = artifacts.witness(w)
        ctrl = discover_control_function(g, w.d)
        cover = level_cover(g, ctrl, k, level)
        combine_args += [w.d, cover, k, control_apply(ctrl, k, level)]
        lift[f"{side}_classes"] = len(cover.classes)
    _stage(report, "ostrand-lift", **lift)

    prod = product(gl, gr)
    witness = product_combine(prod, *combine_args)
    _stage(report, "product-combine", d=witness.d, certified=witness.certified)
    report["artifacts"]["product-witness"] = artifacts.witness(witness)
    report["d"] = witness.d
    report["certified"] = witness.certified

    if refute_units is not None:
        sub = restrict(prod.groupoid, prod.groupoid.unit_set(refute_units))
        k_sub = symmetrize(sub.from_parent(prod.lift_sets(k_left, k_right)))
        l_sub = power(k_sub, l_power)
        # at level 0 nothing is below: a cover of the nonempty restriction
        # has at least one class, so no search is needed
        refuted = level == 0 or kl_dad_search(sub, k_sub, l_sub, level - 1) is None
        _stage(report, "refute-below", d_tried=level - 1, refuted=refuted)
        report["refuted_below"] = refuted
    return report


def union_theorem(
    g: Groupoid,
    parts: "list[UnitSet]",
    k_base: ArrowSet,
    l_power: int = 2,
    d_max: int = 2,
) -> dict:
    """Merge per-part witnesses over a clopen partition at the chained scales.

    The window chain is grown constructively: each part is searched at the
    15th power of the current window, and the next window absorbs that power
    together with everything the part generated.
    """
    report = {"operation": "theorem-union", "stages": [], "artifacts": {}}
    k_list = [k_base]
    witnesses = []
    for i, part in enumerate(parts):
        cubed15 = power(k_list[-1], 15)
        sub = restrict(g, part)
        k_local = sub.from_parent(cubed15)
        w = _need_witness(
            kl_dad_search(sub, k_local, power(k_local, l_power), d_max),
            f"part-{i}-search",
        )
        witnesses.append(w)
        k_list.append(symmetrize(cubed15 | sub.to_parent(w.reach)))
        _stage(report, f"part-{i}", units=len(part), d=w.d)
        report["artifacts"][f"part-{i}-witness"] = artifacts.witness(w)

    merged = union_combine(g, parts, witnesses, k_list)
    _stage(report, "union-combine", d=merged.d, certified=merged.certified)
    report["artifacts"]["union-witness"] = artifacts.witness(merged)
    report["d"] = merged.d
    report["certified"] = merged.certified
    return report


def morita_theorem(
    g: Groupoid,
    multiplicity: int,
    k_set: ArrowSet,
    l_set: ArrowSet,
    d_max: int = 2,
) -> dict:
    """Round-trip a witness through a unit-duplicating blow-up, both directions."""
    report = {"operation": "theorem-morita", "stages": [], "artifacts": {}}
    w_base = _need_witness(kl_dad_search(g, k_set, l_set, d_max), "base-search")
    _stage(report, "base-search", d=w_base.d)
    report["artifacts"]["base-witness"] = artifacts.witness(w_base)

    bl = blowup(g, replicate_psi(g, multiplicity))
    lifted = blowup_lift(bl, w_base)
    _stage(report, "lift", d=lifted.d, certified=lifted.certified)
    report["artifacts"]["lifted-witness"] = artifacts.witness(lifted)

    k_up = map_arrows_back(bl.groupoid, bl.pi, k_set)
    l_up = map_arrows_back(bl.groupoid, bl.pi, l_set)
    w_up = _need_witness(
        kl_dad_search(bl.groupoid, k_up, l_up, d_max), "blowup-search"
    )
    _stage(report, "blowup-search", d=w_up.d)
    transferred = blowup_transfer(bl, w_up, k_set, l_set)
    _stage(report, "transfer", d=transferred.d, certified=transferred.certified)
    report["artifacts"]["transferred-witness"] = artifacts.witness(transferred)

    equal = w_base.d == lifted.d == w_up.d == transferred.d
    report["d"] = w_base.d
    report["certified"] = (
        lifted.certified and transferred.certified and equal
    )
    report["d_preserved"] = equal
    return report


def bridge_theorem(
    g: Groupoid,
    k_set: ArrowSet,
    l_set: ArrowSet,
    d_max: int = 2,
) -> dict:
    """dad -> asdim -> dad at one window scale, closing at equal dimension."""
    from .coarse import asdim_fiber_decompositions, asdim_to_dad, dad_to_asdim

    report = {"operation": "theorem-bridge", "stages": [], "artifacts": {}}
    w = _need_witness(kl_dad_search(g, k_set, l_set, d_max), "dad-search")
    _stage(report, "dad-search", d=w.d)
    report["artifacts"]["dad-witness"] = artifacts.witness(w)

    bridge = dad_to_asdim(g, w)
    _stage(
        report,
        "dad-to-asdim",
        certified=bridge.certified,
        families=[len(f) for f in bridge.families],
    )
    report["artifacts"]["decomposition"] = artifacts.decomposition(
        bridge.families, certified=bridge.certified
    )
    if not bridge.certified:
        raise PipelineError("stage 'dad-to-asdim': decomposition failed certification")

    decomps = asdim_fiber_decompositions(g, g.all_units(), k_set, l_set, w.d)
    _stage(report, "fiber-decompositions", fibers=sorted(decomps))
    back = asdim_to_dad(g, g.all_units(), k_set, l_set, decomps)
    _stage(report, "asdim-to-dad", d=back.d, certified=back.certified)
    report["artifacts"]["reconstructed-witness"] = artifacts.witness(back)

    report["d"] = w.d
    report["certified"] = back.certified and back.d <= w.d
    report["d_preserved"] = back.d == w.d
    return report


def sweep_rows(
    g: Groupoid,
    graphing: "Graphing | None",
    windows: "list[int]",
    what: str,
    k_spec: str,
    l_spec: str,
    d_max: int = 3,
    n_scale: int = 1,
) -> list[dict]:
    """Run dad searches or treeable certificates over prefix windows of the units."""
    rows = []
    for w_size in windows:
        if not 1 <= w_size <= g.n_units:
            raise PipelineError(f"window size {w_size} out of range")
        sub = restrict(g, g.unit_set(range(w_size)))
        sub_graphing = None
        if graphing is not None:
            sub_graphing = Graphing(sub, sub.from_parent(graphing.q))
        if what == "dad":
            k_set = parse_arrow_spec(sub, k_spec, graphing=sub_graphing)
            l_set = parse_arrow_spec(sub, l_spec, k_set=k_set, graphing=sub_graphing)
            witness = kl_dad_search(sub, k_set, l_set, d_max)
            rows.append(
                {
                    "window": w_size,
                    "result": "none" if witness is None else f"d={witness.d}",
                    "d": None if witness is None else witness.d,
                }
            )
        elif what == "asdim":
            if sub_graphing is None:
                raise PipelineError("asdim sweeps need a graphing")
            from .coarse import treeable_cover

            res = treeable_cover(sub, sub_graphing, n_scale)
            rows.append(
                {
                    "window": w_size,
                    "result": "certified" if res.certified else "failed",
                    "d": len(res.families) - 1 if res.certified else None,
                    "max_diameter": res.max_diameter,
                }
            )
        else:
            raise PipelineError(f"unknown sweep target {what!r}")
    return rows
