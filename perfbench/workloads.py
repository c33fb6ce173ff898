"""The benchmark's three workloads: set-up, operations, and what each returns.

Every workload is a closed loop with one client: an operation starts when the
previous one has finished. An operation is split into ``call`` (timed) and
``observe`` (untimed), which turns the call's result into the small record
that the oracle compares: verdict, d, digests, exit code, stdout rows.

The seed picks variants from fixed pools, so that every variant any seed can
produce has a recorded oracle entry. It never relabels or reshapes the
``refute`` grids: search cost depends heavily on labelling (P7xP7 at d=1 takes
about 0.4 s as built and 36-147 s after a random unit relabelling).
"""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import grpdim as G
from grpdim.builders import canonical_dumps, pair_index

# Roles of each workload's two op families. ``main_s`` sums the first,
# ``beside_s`` the second (read_s / write_s, refute_s / find_s, tree_s / bridge_s).
ROLES = {
    "cli": ("read", "write"),
    "refute": ("refute", "find"),
    "coarse": ("tree", "bridge"),
}


@dataclass
class Op:
    id: str  # oracle key
    kind: str  # read / write / refute / find / tree / bridge / other
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    before: Callable[[], None] = lambda: None  # untimed preparation


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# -- observations of library results --------------------------------------------


def observe_witness(w) -> dict:
    if w is None:
        return {"verdict": "none"}
    return {"verdict": "certified" if w.certified else "uncertified", "d": w.d,
            "digest": digest(w.to_json_obj())}


def observe_tree(res) -> dict:
    return {
        "verdict": "certified" if res.certified else "failed",
        "d": len(res.families) - 1,
        "digest": digest({
            "families": [sorted(sorted(m) for m in fam) for fam in res.families],
            "rows": [list(r) for r in res.rows],
            "bounds": [res.max_diameter, res.min_separation,
                       res.min_same_annulus_separation],
        }),
    }


def observe_bridge(res) -> dict:
    bridge, decomps, back = res
    return {
        "verdict": "certified" if bridge.certified and back.certified else "failed",
        "d": back.d,
        "digest": digest({
            "families": [sorted(sorted(m) for m in fam) for fam in bridge.families],
            "fibers": {str(x): [sorted(sorted(m) for m in fam) for fam in fams]
                       for x, fams in decomps.items()},
            "back": back.to_json_obj(),
        }),
    }


def bridge_chain(g, k_set, l_set, witness):
    """dad_to_asdim -> asdim_fiber_decompositions -> asdim_to_dad."""
    bridge = G.dad_to_asdim(g, witness)
    y = g.all_units()
    decomps = G.asdim_fiber_decompositions(g, y, k_set, l_set, witness.d)
    return bridge, decomps, G.asdim_to_dad(g, y, k_set, l_set, decomps)


def grid(a: int, b: int):
    """Pa x Pb with K = symmetrize(ball(1) x ball(1)) and L = K^2, as built."""
    ga, gra = G.tree_window("path", a)
    gb, grb = G.tree_window("path", b)
    prod = G.product(ga, gb)
    k_set = G.symmetrize(prod.lift_sets(gra.ball(1), grb.ball(1)))
    return prod.groupoid, k_set, G.power(k_set, 2)


def grid_z2(a: int, b: int):
    """Pa x Pb x Z/2 (trivial action): non-principal, so the generic engine runs."""
    g, k_grid, _ = grid(a, b)
    z2 = G.action_groupoid(G.cyclic_table(2), G.trivial_perms(2, 1))
    prod = G.product(g, z2)
    k_set = G.symmetrize(prod.lift_sets(k_grid, z2.all_arrows()))
    return prod.groupoid, k_set, G.power(k_set, 2)


def random_tree(n: int, shape: int, labelling: int):
    """A random recursive tree on n vertices: fixed shape, seeded vertex labels."""
    rng = random.Random(f"coarse-shape-{shape}")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    perm = list(range(n))
    random.Random(f"coarse-labels-{shape}-{labelling}").shuffle(perm)
    g = G.pair_groupoid(n)
    q = 0
    for u, v in edges:
        q |= 1 << pair_index(n, perm[u], perm[v]) | 1 << pair_index(n, perm[v], perm[u])
    return g, G.Graphing(g, G.ArrowSet(g, q))


def windowed(g, graphing):
    k_set = graphing.ball(1)
    return g, graphing, k_set, G.power(k_set, 2)


# -- refute ----------------------------------------------------------------------


def refute_setup(seed: int, everything: bool):
    """Grids as built; the seed only orders the ops."""
    ops = []
    # One op of about 1 s (P8xP8) at most, so that every op is timed a dozen
    # times or more in a 30 s run; --reconcile still times P9xP9.
    for a, b in ((6, 6), (7, 7), (8, 7), (8, 8)):
        g, k_set, l_set = grid(a, b)
        ops.append(Op(f"refute/P{a}xP{b}-d1", "refute",
                      lambda g=g, k=k_set, l=l_set: G.kl_dad_search(g, k, l, 1),
                      observe_witness))
        if a == b == 7:
            ops.append(Op("refute/P7xP7-d2", "find",
                          lambda g=g, k=k_set, l=l_set: G.kl_dad_search(g, k, l, 2),
                          observe_witness))
    for a, b in ((4, 4), (5, 4)):
        g, k_set, l_set = grid_z2(a, b)
        ops.append(Op(f"refute/P{a}xP{b}xZ2-d2", "find",
                      lambda g=g, k=k_set, l=l_set: G.kl_dad_search(g, k, l, 2),
                      observe_witness))
    return ops, []


# -- coarse ----------------------------------------------------------------------

# The seed draws a labelling of each of four fixed random tree shapes. It does
# not draw the shapes: over 8 random 40-vertex shapes, tree + bridge ops took
# 0.89-1.34 s, enough to swamp the bound; over 8 labellings of one shape,
# 0.85-0.98 s. At 24 vertices every fiber has at most 24 points, so the
# bridge's fiber search is exact (EXACT_POINT_LIMIT in grpdim.coarse).
TREE_SHAPES = 4
TREE_LABELLINGS = 4
TREE_VERTICES = 24


def coarse_setup(seed: int, everything: bool):
    """Windows, graphings and the bridge witnesses are made here, not timed."""
    rng = random.Random(seed)
    trees = [("path30", windowed(*G.tree_window("path", 30))),
             ("binary4", windowed(*G.tree_window("binary", 4)))]
    for shape in range(TREE_SHAPES):
        labellings = (range(TREE_LABELLINGS) if everything
                      else [rng.randrange(TREE_LABELLINGS)])
        trees += [(f"rtree{shape}.{i}", windowed(*random_tree(TREE_VERTICES, shape, i)))
                  for i in labellings]
    bridges = [(name, g, k, l) for name, (g, _, k, l) in trees]
    for a, b in ((6, 6), (4, 6)):  # P4xP6 fibers have 24 points: exact asdim search
        bridges.append((f"P{a}xP{b}", *grid(a, b)))

    ops, checks = [], []
    for name, (g, graphing, _, _) in trees:
        for n_scale in (1, 2, 3):
            ops.append(Op(f"coarse/{name}-tree{n_scale}", "tree",
                          lambda g=g, gr=graphing, n=n_scale: G.treeable_cover(g, gr, n),
                          observe_tree))
    for name, g, k_set, l_set in bridges:
        w = G.kl_dad_search(g, k_set, l_set, 2)
        checks.append((f"coarse/{name}-witness", observe_witness(w)))
        ops.append(Op(f"coarse/{name}-bridge", "bridge",
                      lambda g=g, k=k_set, l=l_set, w=w: bridge_chain(g, k, l, w),
                      observe_bridge))
    return ops, checks


# -- cli -------------------------------------------------------------------------

ASDIM_FIBERS = range(12)  # fiber:x of p12.json
UNION_SPLITS = range(4, 9)  # --parts 0-(k-1);k-11 of p12.json
REFUTE_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))  # 4x4 windows of the P5xP5 grid


def _units_window(du: int, dv: int) -> str:
    return ",".join(f"{(du + i) * 5 + dv}-{(du + i) * 5 + dv + 3}" for i in range(4))


def strip_wall(row: str) -> str:
    """Drop wall_ms from a report row (instance, operation, ..., wall_ms).

    Treeable-cover rows also have six cells, but their second cell is a
    class id, never an operation name.
    """
    cells = row.split("\t")
    if len(cells) == 6 and not cells[1].isdigit():
        cells = cells[:-1]
    return "\t".join(cells)


class CliRunner:
    """Runs ``python -m grpdim.cli`` in a work directory, or the traced launcher."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.launcher: "Callable | None" = None  # op id -> argv prefix, when traced

    def argv(self, op_id: str, args: list[str]) -> list[str]:
        if self.launcher is not None:
            return self.launcher(op_id) + args
        return [sys.executable, "-m", "grpdim.cli", *args]

    def run(self, op_id: str, args: list[str]):
        return subprocess.run(self.argv(op_id, args), cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=170)

    def op(self, op_id: str, kind: str, args: list[str], out: "str | None" = None,
           files: tuple = ()) -> Op:
        """A command; ``out`` is passed as ``--out DIR``, ``files`` are written by
        the command itself. Both are removed before each run and digested after."""
        outputs = [self.workdir / p for p in ((out,) if out else ()) + tuple(files)]

        def before():
            for path in outputs:
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()

        def observe(proc) -> dict:
            rows = [strip_wall(row) for row in proc.stdout.splitlines()]
            found = []
            for path in outputs:
                found += sorted(path.rglob("*")) if path.is_dir() else [path]
            artifacts = {str(p.relative_to(self.workdir)): file_digest(p)
                         for p in found if p.is_file()}
            return {"exit": proc.returncode, "stdout": rows, "artifacts": artifacts}

        full = args + (["--out", out] if out else [])
        return Op(op_id, kind, lambda: self.run(op_id, full), observe, before)


def cli_files(workdir: Path) -> None:
    """Instance files and graphing sidecars the commands read."""
    for n in (4, 5, 8, 10, 12, 20, 28):
        g, graphing = G.tree_window("path", n)
        G.save(g, workdir / f"p{n}.json")
        G.save_graphing(graphing, workdir / f"p{n}.g.json")
    g5, _ = G.tree_window("path", 5)
    G.save(G.product(g5, g5).groupoid, workdir / "p5x5.json")
    g10, _ = G.tree_window("path", 10)
    G.save(G.blowup(g10, G.replicate_psi(g10, 2)).groupoid, workdir / "b10.json")
    G.save(G.tree_window("binary", 3)[0], workdir / "bin3.json")
    z8 = G.action_groupoid(G.cyclic_table(8), G.rotation_perms(8, 8))
    G.save(z8, workdir / "z8.json")


def cli_setup(seed: int, everything: bool, runner: CliRunner):
    workdir = runner.workdir
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cli_files(workdir)
    witness = runner.op("cli/setup-witness", "other",
                        ["dad", "p12.json", "--graphing", "p12.g.json"], out="wit")
    witness.before()
    checks = [(witness.id, witness.observe(witness.call()))]

    rng = random.Random(seed)
    fibers = ASDIM_FIBERS if everything else [rng.choice(ASDIM_FIBERS)]
    splits = UNION_SPLITS if everything else [rng.choice(UNION_SPLITS)]
    offsets = REFUTE_OFFSETS if everything else [rng.choice(REFUTE_OFFSETS)]
    op = runner.op
    ops = [
        op("cli/build-pair28", "write", ["build", "--family", "pair", "--n", "28",
                                         "--out", "new-p28.json",
                                         "--graphing-out", "new-p28.g.json"],
           files=("new-p28.json", "new-p28.g.json")),
        op("cli/build-product", "write", ["build", "--family", "product", "--left", "p5.json",
                                          "--right", "p5.json", "--out", "new-p5x5.json"],
           files=("new-p5x5.json",)),
        op("cli/build-blowup", "write", ["build", "--family", "blowup", "--path", "p10.json",
                                         "--multiplicity", "2", "--out", "new-b10.json"],
           files=("new-b10.json",)),
        op("cli/build-binary", "write", ["build", "--family", "tree", "--shape", "binary:3",
                                         "--out", "new-bin3.json",
                                         "--graphing-out", "new-bin3.g.json"],
           files=("new-bin3.json", "new-bin3.g.json")),
        op("cli/build-action", "write", ["build", "--family", "action", "--group", "cyclic:8",
                                         "--out", "new-z8.json"],
           files=("new-z8.json",)),
        op("cli/validate-pair28", "read", ["validate", "p28.json"]),
        op("cli/validate-mixed", "read", ["validate", "p5x5.json", "b10.json", "bin3.json",
                                          "z8.json"]),
        op("cli/recheck", "read", ["dad", "p12.json", "--recheck", "wit/dad-witness.json"]),
        op("cli/dad-find", "other", ["dad", "p12.json", "--graphing", "p12.g.json"],
           out="out-dad-find"),
        op("cli/dad-refute", "other", ["dad", "p12.json", "--graphing", "p12.g.json",
                                       "--d-max", "0"]),
        op("cli/asdim-tree2", "other", ["asdim", "p20.json", "--mode", "tree:2",
                                        "--graphing", "p20.g.json"], out="out-asdim-tree"),
        op("cli/theorem-bridge", "other", ["theorem", "bridge", "--path", "p8.json",
                                           "--graphing", "p8.g.json"], out="out-bridge"),
        op("cli/theorem-morita", "other", ["theorem", "morita", "--path", "p4.json",
                                           "--graphing", "p4.g.json", "--l-spec", "power:K:1"],
           out="out-morita"),
        op("cli/sweep", "other", ["sweep", "p12.json", "--windows", "4-12",
                                  "--graphing", "p12.g.json"], out="out-sweep"),
    ]
    for x in fibers:
        ops.append(op(f"cli/asdim-fiber{x}", "other",
                      ["asdim", "p12.json", "--points", f"fiber:{x}", "--e-spec", "ball:1",
                       "--f-spec", "power:K:2", "--graphing", "p12.g.json", "--d-max", "1"],
                      out="out-asdim-fiber"))
    for k in splits:
        ops.append(op(f"cli/theorem-union{k}", "other",
                      ["theorem", "union", "--path", "p12.json", "--graphing", "p12.g.json",
                       "--parts", f"0-{k - 1};{k}-11"], out="out-union"))
    for du, dv in offsets:
        ops.append(op(f"cli/theorem-product{du}{dv}", "other",
                      ["theorem", "product", "--left", "p5.json", "--right", "p5.json",
                       "--graphing", "p5.g.json", "--refute-units", _units_window(du, dv)],
                      out="out-product"))
    return ops, checks


WORKLOADS = ("cli", "refute", "coarse")


def setup(workload: str, seed: int, everything: bool, runner: "CliRunner | None"):
    """Build one workload's inputs; returns (ops, set-up observations)."""
    if workload == "cli":
        return cli_setup(seed, everything, runner)
    if workload == "refute":
        return refute_setup(seed, everything)
    return coarse_setup(seed, everything)


def timed(op: Op):
    """Run one op; returns (seconds, observation or None, error text or None)."""
    op.before()
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, op.observe(result), None
