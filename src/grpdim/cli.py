"""Batch CLI: validate instances, run searches and theorem pipelines, emit
TSV rows on stdout and re-verifiable JSON artifacts under --out.

Exit codes: 0 success/certified, 1 refuted/none (exact search only, also
inside a theorem pipeline: one stderr line names the stage), 2 input
error (a bad option, an unreadable or malformed instance, graphing or witness
file, a witness for another instance or one that fails its re-check, which
reads ``rejected``, or an unwritable --out; one ``Error:`` line goes to
stderr), 3 internal error (a broken internal invariant or any other uncaught
exception: one line naming it goes to stderr, no traceback), 4 unknown (a
greedy search found nothing, which refutes nothing; the row reads
``incomplete``).  Exit codes are decided in one place, ``_Main.invoke``.
Artifacts never contain timing, so repeated runs are byte-identical; wall
time appears only in the stdout report row.

At module level this imports only the table layer (``groupoid`` and
``builders``); each command imports the layers it runs, so ``validate`` and
``build`` never load the search, the coarse layer or the pipelines.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import click
from click.core import ParameterSource

from . import builders
from .builders import BuilderError, load, load_graphing, read_json
from .groupoid import GroupoidError, iter_bits

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_UNKNOWN = 4


class InputError(click.ClickException):
    """Bad inputs exit with code 2; refutations keep code 1."""

    exit_code = EXIT_INPUT


def _row(instance, operation, params, result, witness_path, started) -> None:
    wall_ms = int((time.monotonic() - started) * 1000)
    click.echo(
        "\t".join(
            [str(instance), operation, params, result, witness_path or "-", str(wall_ms)]
        )
    )


def _missed(instance, operation, params, mode, started) -> int:
    """Exact search found nothing: refuted.  Greedy found nothing: unknown."""
    greedy = mode == "greedy"
    _row(instance, operation, params, "incomplete" if greedy else "none", None, started)
    return EXIT_UNKNOWN if greedy else EXIT_REFUTED


def _load(path, graphing):
    """An instance and its graphing sidecar, or None without one."""
    g = load(path)
    return g, load_graphing(g, graphing) if graphing else None


def _specs(g, k_spec, l_spec, graphing):
    from .setspec import parse_arrow_spec

    k_set = parse_arrow_spec(g, k_spec, graphing=graphing)
    l_set = parse_arrow_spec(g, l_spec, k_set=k_set, graphing=graphing)
    return k_set, l_set


def _refutation(exc: GroupoidError) -> bool:
    """A pipeline stage's NoWitnessError.  Only a command that runs a
    pipeline imports ``pipelines``, and none other can raise one."""
    pipelines = sys.modules.get(f"{__package__}.pipelines")
    return pipelines is not None and isinstance(exc, pipelines.NoWitnessError)


def _parse_int(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"bad {option} value {text!r}: not an integer") from None


class _Main(click.Group):
    """The one place that turns an exception into an exit code.

    A pipeline stage whose exact search finds no witness is a refutation:
    it exits 1 with one stderr line naming the stage.  A library error (bad
    input files, specs or parameters), an OS error or a rejected artifact
    exits 2 with one ``Error:`` line; anything else, such as a broken
    internal invariant, exits 3, never the refuted code 1.
    """

    def invoke(self, ctx):
        try:
            code = super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except GroupoidError as exc:
            if not _refutation(exc):
                raise InputError(str(exc)) from exc
            click.echo(f"grpdim: refuted: {exc}", err=True)
            code = EXIT_REFUTED
        except OSError as exc:
            raise InputError(str(exc)) from exc
        except Exception as exc:
            click.echo(f"grpdim: internal error: {type(exc).__name__}: {exc}", err=True)
            code = EXIT_INTERNAL
        ctx.exit(code)


@click.group(cls=_Main)
def main():
    """Dimension witnesses for finite groupoid windows."""


@main.command("validate")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
def cmd_validate(paths):
    """Validate instance files; directories are swept recursively."""
    files = []
    for p in paths:
        p = Path(p)
        files.extend(sorted(p.rglob("*.json")) if p.is_dir() else [p])
    worst = EXIT_OK
    for f in files:
        started = time.monotonic()
        try:
            load(f)
            _row(f, "validate", "-", "ok", None, started)
        except BuilderError as exc:  # the error's headline and its first violation
            first = " ".join(str(exc).splitlines()[:2])
            _row(f, "validate", "-", f"invalid: {first}", None, started)
            worst = EXIT_REFUTED
    return worst


@main.command("build")
@click.option("--family", required=True,
              type=click.Choice(["pair", "action", "partial", "tree", "product", "blowup"]))
@click.option("--n", type=int, default=None, help="units / points / window size")
@click.option("--group", default=None, help="finite group, e.g. cyclic:8")
@click.option("--points", type=int, default=None, help="points acted on")
@click.option("--trivial-action", is_flag=True, help="let the group act trivially")
@click.option("--shape", default=None, help="tree shape, path:<n> or binary:<depth>")
@click.option("--left", type=click.Path(exists=True), default=None)
@click.option("--right", type=click.Path(exists=True), default=None)
@click.option("--path", "base_path", type=click.Path(exists=True), default=None)
@click.option("--multiplicity", type=int, default=2)
@click.option("--out", required=True, type=click.Path())
@click.option("--graphing-out", type=click.Path(), default=None)
def cmd_build(family, n, group, points, trivial_action, shape, left, right,
              base_path, multiplicity, out, graphing_out):
    """Build an instance file (and optionally a graphing sidecar)."""
    if graphing_out and family not in ("pair", "tree"):
        raise InputError(f"--family {family} defines no graphing for --graphing-out")
    graphing = None
    if family == "pair":
        if n is None:
            raise InputError("--family pair needs --n")
        g = builders.pair_groupoid(n)
        if graphing_out:  # the path on the n units
            graphing = builders.edge_graphing(g, builders.tree_edges("path", n)[1])
    elif family == "tree":
        if not shape or ":" not in shape:
            raise InputError("--family tree needs --shape path:<n>|binary:<d>")
        kind, _, size = shape.partition(":")
        g, graphing = builders.tree_window(kind, _parse_int(size, "--shape"))
    elif family == "action":
        if not group or not group.startswith("cyclic:"):
            raise InputError("--family action needs --group cyclic:<k>")
        order = _parse_int(group.split(":", 1)[1], "--group")
        table = builders.cyclic_table(order)
        npts = points if points is not None else order
        perms = (
            builders.trivial_perms(order, npts)
            if trivial_action
            else builders.rotation_perms(order, npts)
        )
        g = builders.action_groupoid(table, perms)
    elif family == "partial":
        if n is None:
            raise InputError("--family partial needs --n")
        g = builders.partial_action_groupoid(builders.z_shift_partial_spec(n))
    elif family == "product":
        if not left or not right:
            raise InputError("--family product needs --left and --right")
        g = builders.product(load(left), load(right)).groupoid
    else:  # blowup
        if not base_path:
            raise InputError("--family blowup needs --path")
        base = load(base_path)
        g = builders.blowup(base, builders.replicate_psi(base, multiplicity)).groupoid
    builders.save(g, out)
    if graphing_out:
        builders.save_graphing(graphing, graphing_out)
    click.echo(f"{out}\tbuild\t{family}\tok\t-\t0")
    return EXIT_OK


@main.command("dad")
@click.argument("path", type=click.Path(exists=True))
@click.option("--k-spec", default="ball:1", show_default=True)
@click.option("--l-spec", default="power:K:2", show_default=True)
@click.option("--d-max", type=int, default=2, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "greedy"]), default="exact")
@click.option("--graphing", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--recheck", type=click.Path(exists=True), default=None,
              help="re-verify a serialized witness instead of searching")
def cmd_dad(path, k_spec, l_spec, d_max, mode, graphing, out, recheck):
    """Search a (K,L)-dad witness, or re-verify one with --recheck."""
    from . import artifacts

    started = time.monotonic()
    g = load(path)
    if recheck:  # the witness lists K and L by id, so no graphing is read
        obj = read_json(recheck)
        if artifacts.other_instance(obj, path):
            raise InputError(f"{recheck} was made for another instance than {path}")
        witness = artifacts.read_witness(g, obj)
        misstated = artifacts.misstated(g, obj, witness)
        certified = witness.certified and not misstated
        _row(path, "dad-recheck", f"{recheck}", "certified" if certified else "rejected",
             recheck, started)
        if not witness.certified:
            raise InputError(f"{recheck} does not certify a (K,L)-dad on {path}")
        if misstated:
            raise InputError(f"{recheck} misstates its {', '.join(misstated)}")
        return EXIT_OK
    from .covers import fold_number
    from .dad import kl_dad_search

    gr = load_graphing(g, graphing) if graphing else None
    k_set, l_set = _specs(g, k_spec, l_spec, gr)
    witness = kl_dad_search(g, k_set, l_set, d_max, mode)
    params = f"k={k_spec};l={l_spec};d_max={d_max};mode={mode}"
    if witness is None:
        return _missed(path, "dad", params, mode, started)
    obj = artifacts.witness(witness, instance_digest=artifacts.digest(path),
                            k_spec=k_spec, l_spec=l_spec)
    wpath = artifacts.write(out, "dad-witness.json", obj)
    gens = ",".join(str(len(s)) for s in witness.generated_per_class)
    result = f"d={witness.d};fold={fold_number(witness.cover)};gens={gens}"
    _row(path, "dad", params, result, wpath, started)
    return EXIT_OK


@main.command("asdim")
@click.argument("path", type=click.Path(exists=True))
@click.option("--points", "points_spec", default="fiber:0", show_default=True,
              help="fiber:<unit> or arrows")
@click.option("--e-spec", default="ball:1", show_default=True)
@click.option("--f-spec", default="ball:4", show_default=True)
@click.option("--d-max", type=int, default=2, show_default=True)
@click.option("--mode", default="exact", show_default=True,
              help="exact, greedy, or tree:<N> for the annuli certificate")
@click.option("--graphing", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_asdim(path, points_spec, e_spec, f_spec, d_max, mode, graphing, out):
    """Decompose a coarse space, or certify a treeable annuli cover."""
    from . import artifacts
    from .coarse import ef_asdim_search, fiber_gauge, treeable_cover

    started = time.monotonic()
    g, gr = _load(path, graphing)
    if mode.startswith("tree:"):
        if gr is None:
            raise InputError("tree mode needs --graphing")
        n_scale = _parse_int(mode.split(":", 1)[1], "--mode")
        res = treeable_cover(g, gr, n_scale)
        params = f"mode={mode}"
        wpath = artifacts.write(out, "tree-cover.json", artifacts.tree_cover(res))
        for fam_i, cls_i, annulus, fib, size, diam in res.rows:
            click.echo(f"{fam_i}\t{cls_i}\t{annulus}\t{fib}\t{size}\t{diam}")
        result = "certified" if res.certified else "failed"
        _row(path, "asdim-tree", params, result, wpath, started)
        return EXIT_OK if res.certified else EXIT_REFUTED

    if points_spec == "arrows":
        pts = g.arrows_mask
    elif points_spec.startswith("fiber:"):
        x = _parse_int(points_spec.split(":", 1)[1], "--points")
        if not 0 <= x < g.n_units:
            raise InputError(f"unit {x} out of range")
        pts = g.by_rng[x]
    else:
        raise InputError(f"bad --points spec {points_spec!r}")
    e_set, f_set = _specs(g, e_spec, f_spec, gr)
    families = ef_asdim_search(fiber_gauge(g, pts, e_set), fiber_gauge(g, pts, f_set), d_max, mode)
    params = f"points={points_spec};e={e_spec};f={f_spec};d_max={d_max}"
    if families is None:
        return _missed(path, "asdim", params, mode, started)
    obj = artifacts.decomposition(families, certified=True, instance_digest=artifacts.digest(path),
                                  points=list(iter_bits(pts)), e_spec=e_spec, f_spec=f_spec)
    wpath = artifacts.write(out, "asdim-decomposition.json", obj)
    _row(path, "asdim", params, f"d={len(families) - 1}", wpath, started)
    return EXIT_OK


# Per theorem: the options it needs, then the others it reads.  All read --out.
_THEOREM_OPTIONS = {
    "product": (("left", "right"), ("graphing", "left_graphing", "right_graphing",
                                    "k_spec", "l_power", "d_max", "refute_units")),
    "union": (("base_path", "parts"), ("graphing", "k_spec", "l_power", "d_max")),
    "morita": (("base_path",), ("graphing", "k_spec", "l_spec", "d_max", "multiplicity")),
    "bridge": (("base_path",), ("graphing", "k_spec", "l_spec", "d_max")),
}


def _check_theorem_options(which: str) -> None:
    """Missing an option the theorem needs, or given one it does not read: exit 2."""
    ctx = click.get_current_context()
    flags = {p.name: p.opts[0] for p in ctx.command.params}
    needs, reads = _THEOREM_OPTIONS[which]
    if not all(ctx.params[name] for name in needs):
        raise InputError(f"{which} needs {' and '.join(flags[name] for name in needs)}")
    unread = [flags[name] for name in flags if name not in (*needs, *reads, "which", "out")
              and ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if unread:
        raise InputError(f"{which} does not read {', '.join(unread)}")


@main.command("theorem")
@click.argument("which", type=click.Choice(["product", "union", "morita", "bridge"]))
@click.option("--path", "base_path", type=click.Path(exists=True), default=None)
@click.option("--left", type=click.Path(exists=True), default=None)
@click.option("--right", type=click.Path(exists=True), default=None)
@click.option("--graphing", type=click.Path(exists=True), default=None)
@click.option("--left-graphing", type=click.Path(exists=True), default=None)
@click.option("--right-graphing", type=click.Path(exists=True), default=None)
@click.option("--k-spec", default="ball:1", show_default=True)
@click.option("--l-spec", default="power:K:2", show_default=True)
@click.option("--l-power", type=int, default=2, show_default=True)
@click.option("--d-max", type=int, default=2, show_default=True)
@click.option("--parts", default=None, help="unit ranges, e.g. 0-6;7-12")
@click.option("--multiplicity", type=int, default=2, show_default=True)
@click.option("--refute-units", default=None, help="unit list/range for the refutation stage")
@click.option("--out", type=click.Path(), default=None)
def cmd_theorem(which, base_path, left, right, graphing, left_graphing,
                right_graphing, k_spec, l_spec, l_power, d_max, parts,
                multiplicity, refute_units, out):
    """Run a permanence pipeline end to end and certify the inequality."""
    from . import artifacts
    from .pipelines import bridge_theorem, morita_theorem, product_theorem, union_theorem
    from .setspec import parse_arrow_spec

    started = time.monotonic()
    _check_theorem_options(which)
    if which == "product":
        gl, gl_graph = _load(left, left_graphing or graphing)
        gr_, gr_graph = _load(right, right_graphing or graphing)
        k_l = parse_arrow_spec(gl, k_spec, graphing=gl_graph)
        k_r = parse_arrow_spec(gr_, k_spec, graphing=gr_graph)
        n = gl.n_units * gr_.n_units  # the product's units
        units = _parse_units(refute_units, "--refute-units", n) if refute_units else None
        report = product_theorem(gl, k_l, gr_, k_r, l_power, d_max, units)
        instance = f"{left}|{right}"
    else:
        g, gr0 = _load(base_path, graphing)
        if which == "union":
            part_sets = [g.unit_set(_parse_units(p, "--parts", g.n_units)) for p in parts.split(";")]
            k_set = parse_arrow_spec(g, k_spec, graphing=gr0)
            report = union_theorem(g, part_sets, k_set, l_power, d_max)
        else:
            k_set, l_set = _specs(g, k_spec, l_spec, gr0)
            if which == "morita":
                report = morita_theorem(g, multiplicity, k_set, l_set, d_max)
            else:
                report = bridge_theorem(g, k_set, l_set, d_max)
        instance = base_path

    for name, obj in report["artifacts"].items():
        artifacts.write(out, f"{which}-{name}.json", obj)
    summary = {k: v for k, v in report.items() if k != "artifacts"}
    spath = artifacts.write(out, f"{which}-report.json", summary)
    certified = report.get("certified", False)
    result = f"d={report.get('d')};certified={certified}"
    if "refuted_below" in report:
        result += f";refuted_below={report['refuted_below']}"
    _row(instance, f"theorem-{which}", f"k={k_spec}", result, spath, started)
    return EXIT_OK if certified else EXIT_REFUTED


def _parse_units(text: str, option: str, n: "int | None" = None) -> list[int]:
    """Units listed as ids and ranges ``lo-hi``; a reversed range, a list
    with no unit in it or, given ``n``, a unit outside ``0..n-1`` is an
    input error."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk:
            try:
                lo, hi = (int(end) for end in chunk.split("-", 1))
            except ValueError:  # "-3" too: a unit id is never negative
                raise InputError(f"bad {option} value {chunk!r}: not a range lo-hi") from None
            if hi < lo:
                raise InputError(f"bad {option} value {chunk!r}: reversed range")
        elif chunk:
            lo = hi = _parse_int(chunk, option)
        else:
            continue
        if n is not None and hi >= n:
            raise InputError(f"bad {option} value {chunk!r}: unit {hi} out of range 0..{n - 1}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise InputError(f"bad {option} value {text!r}: lists no unit")
    return out


@main.command("sweep")
@click.argument("path", type=click.Path(exists=True))
@click.option("--windows", required=True, help="sizes, e.g. 4-16 or 4,8,12")
@click.option("--what", type=click.Choice(["dad", "asdim"]), default="dad")
@click.option("--k-spec", default="ball:1", show_default=True)
@click.option("--l-spec", default="power:K:2", show_default=True)
@click.option("--d-max", type=int, default=3, show_default=True)
@click.option("--n-scale", type=int, default=1, show_default=True)
@click.option("--graphing", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_sweep(path, windows, what, k_spec, l_spec, d_max, n_scale, graphing, out):
    """Window sweep over unit-prefix restrictions; TSV rows per window."""
    from . import artifacts
    from .pipelines import sweep_rows

    started = time.monotonic()
    g, gr = _load(path, graphing)
    rows = sweep_rows(
        g, gr, _parse_units(windows, "--windows"), what, k_spec, l_spec, d_max, n_scale
    )
    for row in rows:
        click.echo(f"{row['window']}\t{row['result']}")
    artifacts.write(out, f"sweep-{what}.json", artifacts.sweep(what, k_spec, l_spec, rows))
    _row(path, f"sweep-{what}", f"windows={windows}", f"rows={len(rows)}", None, started)
    return EXIT_OK


if __name__ == "__main__":
    main()
