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
The parser finds a bad option (an unknown one or a prefix of one, a missing
one, a value of the wrong kind, a path that does not exist) before the
command runs.  Each theorem (``theorem product|union|morita|bridge``) is a
sub-command that declares exactly the options it reads, so an option it
does not read is an unknown one, whatever its value.  Artifacts never
contain timing, so repeated runs are byte-identical; wall time appears only
in the stdout report row.

At module level this imports only the standard library's ``argparse`` and the
table layer (``groupoid`` and ``builders``); each command imports the layers
it runs, so ``validate`` and ``build`` never load the search, the coarse
layer or the pipelines.  The coarse layer loads only for ``theorem bridge``,
``asdim`` and ``sweep --what asdim``; ``hashlib`` only where a digest is
taken (``dad``, and ``asdim`` on a point set).  Every record is a
``typing.NamedTuple``, so no command loads the standard library's dataclass
module, nor the ``inspect`` it imports.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import builders
from .builders import BuilderError, load, load_graphing, read_json
from .groupoid import GroupoidError, iter_bits

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_UNKNOWN = 4


class InputError(Exception):
    """Bad inputs exit with code 2; refutations keep code 1."""


def _row(instance, operation, params, result, witness_path, started) -> None:
    wall_ms = int((time.monotonic() - started) * 1000)
    print("\t".join([str(instance), operation, params, result, witness_path or "-", str(wall_ms)]))


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


def _existing(text: str, label: str) -> str:
    if not text:  # Path("") is the working directory
        raise InputError(f"bad {label} value '': empty path")
    if not Path(text).exists():
        raise InputError(f"bad {label} value {text!r}: no such file or directory")
    return text


def _chosen(text: str, label: str, choices) -> str:
    if text not in choices:
        raise InputError(f"bad {label} value {text!r}: not one of {', '.join(choices)}")
    return text


def _search_mode(text: str, label: str) -> str:
    kind, _, n = text.partition(":")
    if text in ("exact", "greedy") or kind == "tree" and n.isdecimal() and int(n) >= 1:
        return text
    raise InputError(f"bad {label} value {text!r}: not exact, greedy or tree:<N> with N >= 1")


def _arg(*names, check=None, **kwargs):
    """One argument of a command, as ``add_argument`` takes it.

    ``check(text, label)``, or for ``choices`` a check that the value is one
    of them, converts the value while parsing, so a bad value is an input
    error that names the argument and the command never starts.
    """
    label = kwargs.get("metavar", names[0])
    choices = kwargs.get("choices")
    if choices:
        kwargs["type"] = lambda text: _chosen(text, label, choices)
    elif check:
        kwargs["type"] = lambda text: check(text, label)
    return names, kwargs


_DEFAULT = "default: %(default)s"


class _Parser(argparse.ArgumentParser):
    """A parse error is an input error: one ``Error:`` line, no usage."""

    def error(self, message):
        raise InputError(message)


class _Command:
    """A command's parser arguments, help line and ``callback``, the function
    that runs it; ``_Main`` reads ``callback`` at every call, so a wrapper put
    in its place (the benchmark's tracer does this) runs instead."""

    def __init__(self, callback, arguments, help):
        self.callback = callback
        self.arguments = arguments
        self.doc = callback.__doc__.splitlines()[0]  # a group's line, for a sub-command
        self.help = help or self.doc


class _Main:
    """The command table, and the one place that turns an exception into an
    exit code.

    A pipeline stage whose exact search finds no witness is a refutation:
    it exits 1 with one stderr line naming the stage.  A parse error, a
    library error (bad input files, specs or parameters), an OS error or a
    rejected artifact exits 2 with one ``Error:`` line; anything else, such
    as a broken internal invariant, exits 3, never the refuted code 1.
    """

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, *arguments, help=None):
        """Register the decorated function as the command ``name``.  A name
        of two words, ``"group which"``, is the sub-command ``which`` of
        ``group``, and the function receives ``which``.  ``help`` replaces
        the first line of its docstring as the command's help line."""

        def register(callback):
            self.commands[name] = _Command(callback, arguments, help)
            return callback

        return register

    def parser(self, prog: str, args: list[str]) -> argparse.ArgumentParser:
        """A sub-parser for every command, but arguments, and a group's
        sub-parsers, only for the command that ``args`` names: a child runs
        one command, and the others' would cost its start-up time."""
        # allow_abbrev=False: an option's prefix is an unknown option
        parser = _Parser(prog=prog, description=self.description, allow_abbrev=False)
        levels = {"": parser.add_subparsers(dest="command", metavar="COMMAND", required=True)}
        for name, command in self.commands.items():
            group, _, which = name.rpartition(" ")
            if group not in levels:  # a group's first sub-command lists the group
                cmd = levels[""].add_parser(group, help=command.doc, description=command.doc,
                                            allow_abbrev=False)
                named = args[:1] == [group]
                levels[group] = cmd.add_subparsers(dest="which", metavar=group.upper(),
                                                   required=True) if named else None
            if levels[group] is None:
                continue
            cmd = levels[group].add_parser(which, help=command.help, description=command.help,
                                           allow_abbrev=False)
            if args[:name.count(" ") + 1] == name.split():
                for names, kwargs in command.arguments:
                    cmd.add_argument(*names, **kwargs)
        return parser

    def invoke(self, args, prog: str) -> int:
        args = list(sys.argv[1:] if args is None else args)
        try:
            options = vars(self.parser(prog, args).parse_args(args))
            name = options.pop("command")
            if name not in self.commands:  # a group: the sub-command names the rest
                name += " " + options["which"]
            return self.commands[name].callback(**options)
        except GroupoidError as exc:
            if _refutation(exc):
                print(f"grpdim: refuted: {exc}", file=sys.stderr)
                return EXIT_REFUTED
            message = str(exc)
        except (InputError, OSError) as exc:
            message = str(exc)
        except Exception as exc:
            print(f"grpdim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"Error: {message}", file=sys.stderr)
        return EXIT_INPUT

    def main(self, args=None, prog_name=None, standalone_mode=True):
        """Run one command, ``args`` or else ``sys.argv[1:]``, and exit with
        its code.  The call always ends in ``SystemExit``, which is what
        ``standalone_mode=True`` asks for; there is no other mode."""
        sys.exit(self.invoke(args, prog_name or "grpdim"))

    def __call__(self):
        self.main()


main = _Main("Dimension witnesses for finite groupoid windows.")

# Arguments that more than one command declares, each declared once here.
_INSTANCE = _arg("path", metavar="PATH", check=_existing)
_GRAPHING = _arg("--graphing", check=_existing)
_K_SPEC = _arg("--k-spec", default="ball:1", help=_DEFAULT)
_L_SPEC = _arg("--l-spec", default="power:K:2", help=_DEFAULT)
_L_POWER = _arg("--l-power", check=_parse_int, default=2, help=_DEFAULT)
_D_MAX = _arg("--d-max", check=_parse_int, default=2, help=_DEFAULT)
_MULTIPLICITY = _arg("--multiplicity", check=_parse_int, default=2, help=_DEFAULT)
_PATH = _arg("--path", required=True, check=_existing)
_OUT = _arg("--out")


@main.command("validate", _arg("paths", nargs="+", metavar="PATH", check=_existing))
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


@main.command(
    "build",
    _arg("--family", required=True,
         choices=("pair", "action", "partial", "tree", "product", "blowup")),
    _arg("--n", check=_parse_int, help="units / points / window size"),
    _arg("--group", help="finite group, e.g. cyclic:8"),
    _arg("--points", check=_parse_int, help="points acted on"),
    _arg("--trivial-action", action="store_true", help="let the group act trivially"),
    _arg("--shape", help="tree shape, path:<n> or binary:<depth>"),
    _arg("--left", check=_existing),
    _arg("--right", check=_existing),
    _arg("--path", check=_existing),
    _MULTIPLICITY,
    _arg("--out", required=True),
    _arg("--graphing-out"),
)
def cmd_build(family, n, group, points, trivial_action, shape, left, right,
              path, multiplicity, out, graphing_out):
    """Build an instance file (and optionally a graphing sidecar)."""
    started = time.monotonic()
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
        if not path:
            raise InputError("--family blowup needs --path")
        base = load(path)
        g = builders.blowup(base, builders.replicate_psi(base, multiplicity)).groupoid
    builders.save(g, out)
    if graphing_out:
        builders.save_graphing(graphing, graphing_out)
    _row(out, "build", family, "ok", None, started)
    return EXIT_OK


@main.command(
    "dad",
    _INSTANCE,
    _K_SPEC,
    _L_SPEC,
    _D_MAX,
    _arg("--mode", choices=("exact", "greedy"), default="exact", help=_DEFAULT),
    _GRAPHING,
    _OUT,
    _arg("--recheck", check=_existing, help="re-verify a serialized witness instead of searching"),
)
def cmd_dad(path, k_spec, l_spec, d_max, mode, graphing, out, recheck):
    """Search a (K,L)-dad witness, or re-verify one with --recheck."""
    from . import artifacts

    started = time.monotonic()
    g, gr = _load(path, None if recheck else graphing)
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


# The asdim options that tree mode does not read, with their defaults in the
# other modes.  They parse to None when not given, so tree mode can refuse
# one that is given, even at its default value.
_SEARCH_ONLY = {"--points": "fiber:0", "--e-spec": "ball:1", "--f-spec": "ball:4", "--d-max": 2}


@main.command(
    "asdim",
    _INSTANCE,
    _arg("--points", dest="points_spec",
         help="fiber:<unit> or arrows; default: " + _SEARCH_ONLY["--points"]),
    _arg("--e-spec", help="default: " + _SEARCH_ONLY["--e-spec"]),
    _arg("--f-spec", help="default: " + _SEARCH_ONLY["--f-spec"]),
    _arg("--d-max", check=_parse_int, help=f"default: {_SEARCH_ONLY['--d-max']}"),
    _arg("--mode", check=_search_mode, default="exact",
         help="exact, greedy, or tree:<N> for the annuli certificate, which reads "
              "--graphing and --out only; " + _DEFAULT),
    _GRAPHING,
    _OUT,
)
def cmd_asdim(path, points_spec, e_spec, f_spec, d_max, mode, graphing, out):
    """Decompose a coarse space, or certify a treeable annuli cover."""
    from . import artifacts
    from .coarse import ef_asdim_search, fiber_gauge, treeable_cover

    started = time.monotonic()
    given = {"--points": points_spec, "--e-spec": e_spec, "--f-spec": f_spec, "--d-max": d_max}
    if mode.startswith("tree:"):
        unread = [name for name, value in given.items() if value is not None]
        if unread:
            raise InputError(f"tree mode reads no {', '.join(unread)}")
        if graphing is None:
            raise InputError("tree mode needs --graphing")
        g, gr = _load(path, graphing)
        res = treeable_cover(g, gr, int(mode[len("tree:"):]))
        params = f"mode={mode}"
        wpath = artifacts.write(out, "tree-cover.json", artifacts.tree_cover(res))
        for fam_i, cls_i, annulus, fib, size, diam in res.rows:
            print(f"{fam_i}\t{cls_i}\t{annulus}\t{fib}\t{size}\t{diam}")
        result = "certified" if res.certified else "failed"
        _row(path, "asdim-tree", params, result, wpath, started)
        return EXIT_OK if res.certified else EXIT_REFUTED

    points_spec, e_spec, f_spec, d_max = (
        _SEARCH_ONLY[name] if value is None else value for name, value in given.items()
    )
    g, gr = _load(path, graphing)
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


def cmd_theorem(which, out, graphing, k_spec, d_max, **o):
    """Run a permanence pipeline end to end and certify the inequality.

    All four theorems declare the named options; ``o`` holds the others
    that ``which`` declares below."""
    from . import artifacts
    from .pipelines import bridge_theorem, morita_theorem, product_theorem, union_theorem
    from .setspec import parse_arrow_spec

    started = time.monotonic()
    if which == "product":
        gl, gl_graph = _load(o["left"], o["left_graphing"] or graphing)
        gr_, gr_graph = _load(o["right"], o["right_graphing"] or graphing)
        k_l = parse_arrow_spec(gl, k_spec, graphing=gl_graph)
        k_r = parse_arrow_spec(gr_, k_spec, graphing=gr_graph)
        n = gl.n_units * gr_.n_units  # the product's units
        units = _parse_units(o["refute_units"], "--refute-units", n) if o["refute_units"] else None
        report = product_theorem(gl, k_l, gr_, k_r, o["l_power"], d_max, units)
        instance = f"{o['left']}|{o['right']}"
    else:
        instance = o["path"]
        g, gr0 = _load(instance, graphing)
        if which == "union":
            part_sets = [g.unit_set(_parse_units(p, "--parts", g.n_units))
                         for p in o["parts"].split(";")]
            k_set = parse_arrow_spec(g, k_spec, graphing=gr0)
            report = union_theorem(g, part_sets, k_set, o["l_power"], d_max)
        else:
            k_set, l_set = _specs(g, k_spec, o["l_spec"], gr0)
            if which == "morita":
                report = morita_theorem(g, o["multiplicity"], k_set, l_set, d_max)
            else:
                report = bridge_theorem(g, k_set, l_set, d_max)

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


# Each theorem declares exactly the options it reads, as README's table
# lists them, and its help line names the estimate it certifies.
main.command("theorem product", _arg("--left", required=True, check=_existing),
             _arg("--right", required=True, check=_existing), _GRAPHING,
             _arg("--left-graphing", check=_existing), _arg("--right-graphing", check=_existing),
             _K_SPEC, _L_POWER, _D_MAX,
             _arg("--refute-units", help="unit list/range for the refutation stage"),
             _OUT, help="Certify dad(G x H) <= dad(G) + dad(H) at window scale.")(cmd_theorem)
main.command("theorem union", _PATH, _arg("--parts", required=True,
                                          help="unit ranges, e.g. 0-6;7-12"),
             _GRAPHING, _K_SPEC, _L_POWER, _D_MAX, _OUT,
             help="Certify dad(G) <= max dad of the parts of a clopen partition.")(cmd_theorem)
main.command("theorem morita", _PATH, _GRAPHING, _K_SPEC, _L_SPEC, _D_MAX, _MULTIPLICITY,
             _OUT, help="Certify dad(G) = dad of a blow-up of G (Morita invariance).")(cmd_theorem)
main.command("theorem bridge", _PATH, _GRAPHING, _K_SPEC, _L_SPEC, _D_MAX, _OUT,
             help="Certify asdim(G) <= dad(G) and dad(G) back from asdim.")(cmd_theorem)


def _parse_units(text: str, option: str, n: int) -> list[int]:
    """Units listed as ids and ranges ``lo-hi``; a reversed range, a list
    with no unit in it or a unit outside ``0..n-1`` is an input error, found
    before any range is expanded."""
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
        if hi >= n:
            raise InputError(f"bad {option} value {chunk!r}: unit {hi} out of range 0..{n - 1}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise InputError(f"bad {option} value {text!r}: lists no unit")
    return out


@main.command(
    "sweep",
    _INSTANCE,
    _arg("--windows", required=True, help="sizes, e.g. 4-16 or 4,8,12"),
    _arg("--what", choices=("dad", "asdim"), default="dad", help=_DEFAULT),
    _K_SPEC,
    _L_SPEC,
    _arg("--d-max", check=_parse_int, default=3, help=_DEFAULT),
    _arg("--n-scale", check=_parse_int, default=1, help=_DEFAULT),
    _GRAPHING,
    _OUT,
)
def cmd_sweep(path, windows, what, k_spec, l_spec, d_max, n_scale, graphing, out):
    """Window sweep over unit-prefix restrictions; TSV rows per window."""
    from . import artifacts
    from .pipelines import sweep_rows

    started = time.monotonic()
    g, gr = _load(path, graphing)
    sizes = _parse_units(windows, "--windows", g.n_units + 1)  # a window may hold every unit
    rows = sweep_rows(g, gr, sizes, what, k_spec, l_spec, d_max, n_scale)
    for row in rows:
        print(f"{row['window']}\t{row['result']}")
    artifacts.write(out, f"sweep-{what}.json", artifacts.sweep(what, k_spec, l_spec, rows))
    _row(path, f"sweep-{what}", f"windows={windows}", f"rows={len(rows)}", None, started)
    return EXIT_OK


if __name__ == "__main__":
    main()
