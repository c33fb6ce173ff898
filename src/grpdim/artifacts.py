"""Artifact formats: the one module that writes, reads and re-checks them.

An artifact is one JSON object written as ``builders.canonical_dumps`` does,
so a repeated run writes the same bytes; it holds no timing.  README's "File
formats" lists every format's keys, the two shapes of
``asdim-decomposition`` and the versionless ``sweep`` among them.
"""

from __future__ import annotations

from pathlib import Path

from .builders import canonical_dumps
from .covers import Cover
from .dad import DadWitness, WitnessError, kl_dad_check
from .groupoid import GroupoidError
from .setspec import parse_arrow_spec


def digest(path) -> str:
    """An ``instance_digest``: the first 16 hex digits of the file's sha256."""
    import hashlib  # only here: most commands take no digest

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def write(out_dir, name, obj) -> str:
    """Write ``obj`` to ``out_dir/name`` and return the path, or "" for no ``out_dir``."""
    if out_dir is None:
        return ""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(obj), encoding="utf-8")
    return str(path)


def witness(w: DadWitness, **fields) -> dict:
    """A dad-witness; ``fields`` are added as they are."""
    return {
        "format": "dad-witness",
        "version": 1,
        "d": w.d,
        "k": sorted(w.K),
        "l": sorted(w.L),
        "cover": {
            "base": list(range(w.owner.n_units)),
            "classes": [sorted(c) for c in w.cover.classes],
        },
        "generated_sizes": [len(s) for s in w.generated_per_class],
        "certified": w.certified,
        **fields,
    }


def read_witness(g, obj) -> DadWitness:
    """Re-certify a serialized dad-witness on ``g`` from scratch.

    A malformed object (another ``format`` or ``version``, a missing
    ``k``, ``l`` or ``cover`` key, or an id list that holds anything but
    distinct ints in range: arrow ids of ``g`` in ``k`` and ``l``, unit ids
    in ``base`` and each class, and none at all on an instance with no
    units) raises WitnessError, and so does a cover ``base`` other than
    every unit, checked after ``kl_dad_check``'s owner and normality
    checks.  The object's own claims (``d``, ``generated_sizes``,
    ``certified``) are not read here: :func:`misstated` compares them.
    """
    try:
        if (obj["format"], obj["version"]) != ("dad-witness", 1):
            raise WitnessError(f"not a dad-witness version 1: format {obj['format']!r}, "
                               f"version {obj['version']!r}")
        id_lists = [obj["k"], obj["l"], obj["cover"]["base"], *obj["cover"]["classes"]]
    except (KeyError, TypeError) as exc:
        raise WitnessError(f"malformed witness: missing or misplaced key ({exc})") from None
    for j, ids in enumerate(id_lists):
        bound = g.n_arrows if j < 2 else g.n_units  # k and l list arrows, the rest units
        if not isinstance(ids, list) or any(type(i) is not int or not 0 <= i < bound for i in ids):
            ids_in = f"ids in 0..{bound - 1}" if bound else "ids (the instance has no units)"
            raise WitnessError(f"malformed witness: {ids!r} is not a list of {ids_in}")
        if len(set(ids)) != len(ids):
            raise WitnessError(f"malformed witness: an id is listed twice in {ids!r}")
    cover = Cover(g, tuple(g.unit_set(ids) for ids in obj["cover"]["classes"]))
    base = g.unit_set(obj["cover"]["base"])
    w = kl_dad_check(g, g.arrow_set(obj["k"]), g.arrow_set(obj["l"]), cover)
    if base.mask != g.units_mask:  # s(K) | r(K): K holds every unit
        raise WitnessError("cover base does not contain s(K) | r(K)")
    return w


def other_instance(obj, path) -> bool:
    """Whether ``obj`` has an ``instance_digest`` of another file than ``path``."""
    return isinstance(obj, dict) and obj.get("instance_digest") not in (None, digest(path))


def misstated(g, obj, w: DadWitness) -> list[str]:
    """The keys of ``obj`` whose claims its re-check ``w`` does not bear out.

    ``d``, ``generated_sizes`` and ``certified`` must equal the re-check's,
    JSON type included.  A ``k_spec``/``l_spec`` must recompute to K or L,
    ``power:K:N`` over the witness's own K; ``ball:R`` needs the graphing,
    which a re-check does not read, so it is not compared.
    """
    fresh = witness(w)
    out = [key for key in ("d", "generated_sizes", "certified")
           if canonical_dumps(obj.get(key)) != canonical_dumps(fresh[key])]
    for key, ids, k_set in (("k_spec", w.K, None), ("l_spec", w.L, w.K)):
        spec = obj.get(key)
        if spec is None or isinstance(spec, str) and spec.strip().split(":")[0] == "ball":
            continue
        try:
            if isinstance(spec, str) and parse_arrow_spec(g, spec, k_set=k_set) == ids:
                continue
        except GroupoidError:
            pass
        out.append(key)
    return out


def decomposition(families, **fields) -> dict:
    """An asdim-decomposition of members (arrow ids); ``fields`` are added as they are."""
    families = [[sorted(m) for m in fam] for fam in families]
    return {"format": "asdim-decomposition", "version": 1, "families": families, **fields}


def tree_cover(res) -> dict:
    """A tree-cover: a ``coarse.TreeCoverResult`` without its rows."""
    return {
        "format": "tree-cover",
        "version": 1,
        "scale": res.scale,
        "families": [[sorted(m) for m in fam] for fam in res.families],
        "max_diameter": res.max_diameter,
        "min_separation": res.min_separation,
        "certified": res.certified,
    }


def sweep(what: str, k_spec: str, l_spec: str, rows: "list[dict]") -> dict:
    """A sweep: the rows of ``pipelines.sweep_rows``, one per window."""
    return {"format": "sweep", "what": what, "k_spec": k_spec, "l_spec": l_spec, "rows": rows}
