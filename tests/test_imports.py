"""Layered imports: each CLI command loads only the layers it runs, and the
package exports its names lazily (PEP 562) without caching them."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grpdim

SRC = str(Path(grpdim.__file__).resolve().parents[1])

# Runs ``grpdim ARGS`` as ``python -m grpdim.cli`` does, then prints every
# module the interpreter loaded as its last stdout line.
PROBE = """\
import json, runpy, sys
sys.argv = ["grpdim", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("grpdim.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

ABOVE_TABLES = ("grpdim._search", "grpdim.covers", "grpdim.dad", "grpdim.coarse",
                "grpdim.pipelines", "grpdim.artifacts", "grpdim.setspec")


def python(code, *args, cwd=None):
    """The stdout of ``python -c CODE ARGS`` with the tested package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, cwd=cwd, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def probe(*args, cwd):
    """Exit code and every module of one command in a fresh interpreter."""
    code, modules = json.loads(python(PROBE, *args, cwd=cwd).splitlines()[-1])
    return code, set(modules)


def loaded(*args, cwd):
    """Exit code and grpdim modules of one command in a fresh interpreter."""
    code, modules = probe(*args, cwd=cwd)
    return code, {m for m in modules if m.split(".")[0] == "grpdim"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    g, graphing = grpdim.tree_window("path", 6)
    grpdim.save(g, root / "p6.json")
    grpdim.save_graphing(graphing, root / "p6.g.json")
    code, _ = loaded("dad", "p6.json", "--graphing", "p6.g.json", "--out", "w", cwd=root)
    assert code == 0
    return root


def test_import_grpdim_loads_no_submodule():
    code = ("import sys, grpdim; print(sorted(m for m in sys.modules if m.startswith('grpdim')));"
            " grpdim.dad; print(sorted(m for m in sys.modules if m.startswith('grpdim')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert res.stdout.splitlines() == [
        "['grpdim']",
        "['grpdim', 'grpdim._search', 'grpdim.covers', 'grpdim.dad', 'grpdim.groupoid']",
    ], res.stderr


def test_cli_module_imports_only_the_table_layer(workdir):
    code, modules = loaded("--help", cwd=workdir)
    assert code == 0
    assert modules == {"grpdim", "grpdim.builders", "grpdim.graphing", "grpdim.groupoid"}


@pytest.mark.parametrize("args", [
    ["validate", "p6.json"],
    ["build", "--family", "action", "--group", "cyclic:8", "--out", "z8.json"],
])
def test_table_commands_load_only_the_table_layer(workdir, args):
    code, modules = loaded(*args, cwd=workdir)
    assert code == 0
    assert {"grpdim.groupoid", "grpdim.graphing", "grpdim.builders"} <= modules
    assert not modules & set(ABOVE_TABLES)


@pytest.mark.parametrize("args", [
    ["dad", "p6.json", "--graphing", "p6.g.json", "--out", "w2"],
    ["dad", "p6.json", "--recheck", "w/dad-witness.json"],
])
def test_dad_loads_neither_coarse_nor_pipelines(workdir, args):
    code, modules = loaded(*args, cwd=workdir)
    assert code == 0
    assert "grpdim.dad" in modules
    assert not modules & {"grpdim.coarse", "grpdim.pipelines"}


@pytest.mark.parametrize("args", [
    ["theorem", "union", "--path", "p6.json", "--graphing", "p6.g.json", "--parts", "0-2;3-5"],
    ["theorem", "product", "--left", "p6.json", "--right", "p6.json", "--graphing", "p6.g.json"],
    ["theorem", "morita", "--path", "p6.json", "--graphing", "p6.g.json"],
    ["sweep", "p6.json", "--windows", "3-4", "--what", "dad", "--graphing", "p6.g.json"],
])
def test_dad_pipelines_do_not_load_coarse(workdir, args):
    # only the bridge and the asdim sweep run the coarse layer
    code, modules = loaded(*args, cwd=workdir)
    assert code == 0
    assert "grpdim.pipelines" in modules
    assert "grpdim.coarse" not in modules


def test_a_theorem_loads_its_pipeline(workdir):
    # the probe sees the upper layers when a command runs them
    code, modules = loaded("theorem", "bridge", "--path", "p6.json", "--graphing", "p6.g.json",
                           cwd=workdir)
    assert code == 0
    assert set(ABOVE_TABLES) <= modules


# Per command: its arguments, then the packages it may not load beyond those
# that ``python -c pass`` loads.  No command loads click or dataclasses, nor
# inspect, which dataclasses imports; hashlib loads only where a digest is
# taken: ``dad`` and ``asdim`` on a point set.
NO_RECORDS = {"click", "dataclasses", "inspect"}
NO_DIGEST = NO_RECORDS | {"hashlib", "_hashlib"}
START_UP = {
    "help": (["--help"], NO_RECORDS),
    "validate": (["validate", "p6.json"], NO_RECORDS),
    "build-action": (["build", "--family", "action", "--group", "cyclic:8", "--out", "z8.json"],
                     NO_RECORDS),
    "build-blowup": (["build", "--family", "blowup", "--path", "p6.json", "--out", "b6.json"],
                     NO_RECORDS),
    "dad": (["dad", "p6.json", "--graphing", "p6.g.json"], NO_RECORDS),
    "recheck": (["dad", "p6.json", "--recheck", "w/dad-witness.json"], NO_RECORDS),
    "asdim": (["asdim", "p6.json", "--mode", "tree:1", "--graphing", "p6.g.json"], NO_DIGEST),
    "theorem": (["theorem", "bridge", "--path", "p6.json", "--graphing", "p6.g.json"], NO_DIGEST),
    "sweep": (["sweep", "p6.json", "--windows", "3-4", "--graphing", "p6.g.json"], NO_DIGEST),
}


@pytest.fixture(scope="module")
def bare():
    """The modules of ``python -c pass``, which site hooks make differ by host."""
    return set(python("import sys; print(*sys.modules)").split())


@pytest.mark.parametrize("command", list(START_UP))
def test_start_up_loads_no_barred_package(workdir, bare, command):
    args, barred = START_UP[command]
    code, modules = probe(*args, cwd=workdir)
    assert code == 0
    assert not barred & {m.split(".")[0] for m in modules - bare}


EXPORTS = sorted([
    "ArrowSet", "AsdimBridge", "AxiomError", "Blowup", "BuilderError", "CoarseError",
    "ControlFunction", "Cover", "CoverError", "DadWitness", "GluingCertificate",
    "Graphing", "Groupoid", "GroupoidError", "HypothesisError", "LoadError",
    "OwnerMismatchError", "PartialActionSpec", "Product", "Tables", "TreeCoverResult",
    "UnitSet", "ValidationReport", "Violation", "WitnessError", "action_groupoid",
    "arrows_within", "asdim_fiber_decompositions", "asdim_to_dad", "blowup",
    "blowup_lift", "blowup_transfer", "compose_sets", "control_apply", "cyclic_table",
    "dad_to_asdim", "discover_control_function", "ef_asdim_check", "ef_asdim_search",
    "fiber_gauge", "fold_number", "from_triples", "gauge_from", "generated",
    "glue_chain", "glue_two", "is_principal", "kl_dad_check", "kl_dad_search", "load",
    "load_graphing", "ostrand_lift", "pair_groupoid", "pair_index",
    "partial_action_groupoid", "power", "product", "product_combine", "pullback_witness",
    "replicate_psi", "restrict", "rotation_perms", "save", "save_graphing",
    "shrink_nfold", "symmetrize", "tree_window", "treeable_cover", "triples",
    "trivial_perms", "union_combine", "validate", "z_shift_partial_spec",
])


def test_all_is_the_pinned_export_list():
    assert len(grpdim.__all__) == len(set(grpdim.__all__))
    assert sorted(grpdim.__all__) == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_defining_modules_object(name):
    obj = getattr(grpdim, name)
    module = importlib.import_module(obj.__module__)
    assert module.__name__.startswith("grpdim.")
    assert getattr(module, name) is obj
    assert name in dir(grpdim)


def test_coarse_keeps_the_graphing_names():
    import grpdim.coarse
    import grpdim.graphing

    assert grpdim.coarse.Graphing is grpdim.graphing.Graphing is grpdim.Graphing
    assert grpdim.coarse.CoarseError is grpdim.graphing.CoarseError is grpdim.CoarseError


def test_submodule_names_import_their_submodule():
    # ``import grpdim`` alone still reaches every module as an attribute
    files = Path(grpdim.__file__).parent.glob("*.py")
    names = sorted(p.stem for p in files if p.stem != "__init__")
    assert sorted(grpdim._SUBMODULES) == names
    for name in names:
        assert getattr(grpdim, name) is importlib.import_module(f"grpdim.{name}")
        assert name in dir(grpdim)


def test_unknown_name_raises_and_star_import_works():
    with pytest.raises(AttributeError, match="no_such_name"):
        grpdim.no_such_name  # noqa: B018
    namespace = {}
    exec("from grpdim import *", namespace)
    assert set(EXPORTS) <= set(namespace)


def test_exports_follow_a_patch_and_its_undo(monkeypatch):
    import grpdim.dad

    original = grpdim.dad.kl_dad_search

    def patched(*args):
        return None

    monkeypatch.setattr(grpdim.dad, "kl_dad_search", patched)
    assert grpdim.kl_dad_search is patched
    monkeypatch.undo()
    assert grpdim.kl_dad_search is original
    assert "kl_dad_search" not in vars(grpdim)  # read through, never cached
