import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import grpdim

SRC = str(Path(grpdim.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    # the tested package's directory goes first on the path, so commands run
    # in another working directory import it too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "grpdim.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    # every call keeps the exit-code contract: a documented code, no traceback
    assert res.returncode in range(5) and "Traceback" not in res.stderr, (args, res.stderr)
    return res


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(capsys, args):
    """Run ``grpdim ARGS`` in this process through ``main.main``, the entry
    point an in-process caller uses: its exit code, stdout and stderr."""
    import grpdim.cli as cli

    with pytest.raises(SystemExit) as exited:
        cli.main.main(args=list(args), prog_name="grpdim", standalone_mode=True)
    out, err = capsys.readouterr()
    return Result(exited.value.code, out, err)


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    p7 = root / "p7.json"
    p7g = root / "p7.graphing.json"
    assert run_cli("build", "--family", "pair", "--n", "7",
                   "--out", str(p7), "--graphing-out", str(p7g)).returncode == 0
    t3 = root / "t3.json"
    t3g = root / "t3.graphing.json"
    assert run_cli("build", "--family", "tree", "--shape", "binary:3",
                   "--out", str(t3), "--graphing-out", str(t3g)).returncode == 0
    return root


def test_build_pair_writes_a_sidecar_only_when_asked(tmp_path):
    # the pair family builds its path graphing for --graphing-out alone; the
    # instance bytes do not depend on it, and both match the path:5 tree's
    assert run_cli("build", "--family", "pair", "--n", "5", "--out", "a.json",
                   cwd=tmp_path).returncode == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]
    assert run_cli("build", "--family", "pair", "--n", "5", "--out", "b.json",
                   "--graphing-out", "b.g.json", cwd=tmp_path).returncode == 0
    assert run_cli("build", "--family", "tree", "--shape", "path:5", "--out", "c.json",
                   "--graphing-out", "c.g.json", cwd=tmp_path).returncode == 0
    for a, b in (("a.json", "b.json"), ("b.json", "c.json"), ("b.g.json", "c.g.json")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()


@pytest.mark.parametrize("family, options", [
    ("action", ["--group", "cyclic:2"]),
    ("partial", ["--n", "3"]),
    ("product", ["--left", "p.json", "--right", "p.json"]),
    ("blowup", ["--path", "p.json"]),
])
def test_build_graphing_out_on_a_family_without_one_is_an_input_error(tmp_path, family, options):
    # only pair and tree define a graphing: any other family refuses
    # --graphing-out before it writes anything
    assert run_cli("build", "--family", "pair", "--n", "2", "--out", "p.json",
                   cwd=tmp_path).returncode == 0
    res = run_cli("build", "--family", family, *options, "--out", "x.json",
                  "--graphing-out", "x.g.json", cwd=tmp_path)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"Error: --family {family} defines no graphing for --graphing-out\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def test_validate_ok_and_corrupt(instances, tmp_path):
    res = run_cli("validate", str(instances / "p7.json"))
    assert res.returncode == 0 and "ok" in res.stdout

    obj = json.loads((instances / "p7.json").read_text())
    obj["comp"][0][2] = (obj["comp"][0][2] + 1) % (obj["units"] + len(obj["arrows"]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = run_cli("validate", str(bad))
    assert res.returncode == 1 and "invalid" in res.stdout


def test_validate_directory_sweep(instances):
    # graphing sidecars are not instances, so the sweep flags them
    res = run_cli("validate", str(instances))
    assert res.returncode == 1
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    assert len(lines) == 4
    assert sum("\tok\t" in l for l in lines) == 2
    assert sum("invalid" in l for l in lines) == 2


def test_validate_sweep_rows_every_malformed_file(instances, tmp_path):
    obj = json.loads((instances / "p7.json").read_text())
    (tmp_path / "good.json").write_text(json.dumps(obj))
    obj["comp"][0] = [obj["comp"][0][0], "x", obj["comp"][0][2]]
    (tmp_path / "malformed.json").write_text(json.dumps(obj))
    res = run_cli("validate", str(tmp_path))
    assert res.returncode == 1
    rows = [line.split("\t") for line in res.stdout.splitlines()]
    assert [(Path(r[0]).name, r[3].split(":")[0]) for r in rows] == [
        ("good.json", "ok"),
        ("malformed.json", "invalid"),
    ]


MALFORMED_INSTANCES = {
    "comp-not-a-list": lambda obj: dict(obj, comp=5),
    "two-element-triple": lambda obj: dict(obj, comp=[obj["comp"][0][:2], *obj["comp"][1:]]),
    "string-entry": lambda obj: dict(obj, comp=[*obj["comp"], [7, "x", 8]]),
    "null-entry": lambda obj: dict(obj, comp=[*obj["comp"], [7, None, 8]]),
    "arrows-not-a-list": lambda obj: dict(obj, arrows=5),
    "two-products": lambda obj: dict(obj, comp=[*obj["comp"], [7, 13, 1]]),  # and [7, 13, 0]
}


@pytest.mark.parametrize("case", list(MALFORMED_INSTANCES))
def test_malformed_instance_is_invalid_never_internal(instances, tmp_path, case):
    obj = json.loads((instances / "p7.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_INSTANCES[case](obj)))
    res = run_cli("validate", str(bad))
    assert res.returncode == 1 and res.stdout.split("\t")[3].startswith("invalid: ")
    res = run_cli("dad", str(bad))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1


def test_dad_exit_codes(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    found = run_cli("dad", p7, "--graphing", p7g, "--out", str(tmp_path / "w"))
    assert found.returncode == 0 and "d=1" in found.stdout
    none = run_cli("dad", p7, "--graphing", p7g, "--l-spec", "power:K:2",
                   "--d-max", "0")
    assert none.returncode == 1 and "none" in none.stdout
    bad = run_cli("dad", p7, "--k-spec", "nonsense")
    assert bad.returncode == 2
    trivial = run_cli("dad", p7, "--graphing", p7g, "--l-spec", "all")
    assert trivial.returncode == 0 and "d=0" in trivial.stdout


def test_dad_recheck(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    out = tmp_path / "w"
    assert run_cli("dad", p7, "--graphing", p7g, "--out", str(out)).returncode == 0
    res = run_cli("dad", p7, "--recheck", str(out / "dad-witness.json"))
    assert res.returncode == 0 and "certified" in res.stdout


@pytest.fixture(scope="module")
def witness(instances, tmp_path_factory):
    out = tmp_path_factory.mktemp("witness")
    res = run_cli("dad", str(instances / "p7.json"), "--graphing",
                  str(instances / "p7.graphing.json"), "--out", str(out))
    assert res.returncode == 0
    return json.loads((out / "dad-witness.json").read_text())


MALFORMED_WITNESSES = {
    "bad-json": lambda w: "{",
    "empty-object": lambda w: "{}",
    "negative-class-id": lambda w: json.dumps(
        dict(w, cover=dict(w["cover"], classes=[[-1], *w["cover"]["classes"]]))
    ),
    "string-k": lambda w: json.dumps(dict(w, k="3")),
    "out-of-range-id": lambda w: json.dumps(dict(w, l=[*w["l"], 10**6])),
    "other-format": lambda w: json.dumps(dict(w, format="tree-cover")),
    "other-version": lambda w: json.dumps(dict(w, version=7)),
    "no-format": lambda w: json.dumps({k: v for k, v in w.items() if k != "format"}),
    "id-twice-in-a-class": lambda w: json.dumps(
        dict(w, cover=dict(w["cover"], classes=[[3, 3], *w["cover"]["classes"][:1]]))
    ),
    "base-missing-a-unit": lambda w: json.dumps(
        dict(w, cover=dict(w["cover"], base=w["cover"]["base"][1:]))
    ),
    "empty-base": lambda w: json.dumps(dict(w, cover=dict(w["cover"], base=[]))),
}


@pytest.mark.parametrize("case", list(MALFORMED_WITNESSES))
def test_recheck_rejects_malformed_witness(instances, witness, tmp_path, case):
    bad = tmp_path / "dad-witness.json"
    bad.write_text(MALFORMED_WITNESSES[case](witness))
    res = run_cli("dad", str(instances / "p7.json"), "--recheck", str(bad))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1


def test_recheck_of_a_witness_that_fails_is_rejected(instances, witness, tmp_path):
    # the whole line in one class generates every arrow, outside L = K^2
    classes = witness["cover"]["classes"]
    assert classes == [[0, 1, 2, 4, 5, 6], [3]]
    moved = dict(witness, cover=dict(witness["cover"], classes=[list(range(7)), []]))
    bad = tmp_path / "dad-witness.json"
    bad.write_text(json.dumps(moved))
    p7 = str(instances / "p7.json")
    res = run_cli("dad", p7, "--recheck", str(bad))
    assert res.returncode == 2
    assert res.stdout.split("\t")[:4] == [p7, "dad-recheck", str(bad), "rejected"]
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1


MISSTATED_WITNESSES = {
    "d-too-small": lambda w: dict(w, d=0),
    "d-as-float": lambda w: dict(w, d=1.0),
    "extra-empty-class": lambda w: dict(
        w, cover=dict(w["cover"], classes=[*w["cover"]["classes"], []])
    ),
    "generated-sizes": lambda w: dict(w, generated_sizes=[1, 1]),
    "certified-false": lambda w: dict(w, certified=False),
    "no-claims": lambda w: {k: v for k, v in w.items() if k not in ("d", "certified")},
    "l-spec-units": lambda w: dict(w, l_spec="units"),
    "l-spec-power": lambda w: dict(w, l_spec="power:K:3"),
    "k-spec-all": lambda w: dict(w, k_spec="all"),
    "l-spec-not-a-spec": lambda w: dict(w, l_spec="nonsense"),
    "l-spec-not-a-string": lambda w: dict(w, l_spec=2),
}


@pytest.mark.parametrize("case", list(MISSTATED_WITNESSES))
def test_recheck_rejects_a_witness_that_misstates_itself(instances, witness, tmp_path, case):
    # the cover still certifies; the artifact's own claims are wrong
    bad = tmp_path / "dad-witness.json"
    bad.write_text(json.dumps(MISSTATED_WITNESSES[case](witness)))
    p7 = str(instances / "p7.json")
    res = run_cli("dad", p7, "--recheck", str(bad))
    assert res.returncode == 2
    assert res.stdout.split("\t")[:4] == [p7, "dad-recheck", str(bad), "rejected"]
    assert res.stderr.startswith("Error: ") and "misstates" in res.stderr
    assert res.stderr.count("\n") == 1


def test_recheck_recomputes_the_specs_it_can(instances, witness, tmp_path):
    # units, all and power:K:N need no graphing; power is taken over the
    # witness's own K.  ball:R needs one, and a re-check reads none
    p7 = str(instances / "p7.json")
    assert (witness["k_spec"], witness["l_spec"]) == ("ball:1", "power:K:2")
    bad = tmp_path / "dad-witness.json"
    bad.write_text(json.dumps(dict(witness, l_spec="units")))
    res = run_cli("dad", p7, "--recheck", str(bad))
    assert res.returncode == 2 and "\trejected\t" in res.stdout
    assert res.stderr == f"Error: {bad} misstates its l_spec\n"
    unchecked = tmp_path / "unchecked.json"
    unchecked.write_text(json.dumps(dict(witness, k_spec="ball:7")))
    res = run_cli("dad", p7, "--recheck", str(unchecked))
    assert res.returncode == 0 and "\tcertified\t" in res.stdout
    out = tmp_path / "all"
    assert run_cli("dad", p7, "--k-spec", "all", "--l-spec", "all",
                   "--out", str(out)).returncode == 0
    res = run_cli("dad", p7, "--recheck", str(out / "dad-witness.json"))
    assert res.returncode == 0 and "\tcertified\t" in res.stdout


def test_recheck_reads_the_instance_digest(instances, witness, tmp_path):
    # the same tables in other bytes: another instance file, so another digest
    other = tmp_path / "p7-indented.json"
    other.write_text(json.dumps(json.loads((instances / "p7.json").read_text()), indent=1))
    wpath = tmp_path / "dad-witness.json"
    wpath.write_text(json.dumps(witness))
    res = run_cli("dad", str(other), "--recheck", str(wpath))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    # a witness without the field re-checks as it is
    wpath.write_text(json.dumps({k: v for k, v in witness.items() if k != "instance_digest"}))
    res = run_cli("dad", str(other), "--recheck", str(wpath))
    assert res.returncode == 0 and "\tcertified\t" in res.stdout


def test_recheck_reads_no_graphing(instances, witness, tmp_path):
    # the witness lists K and L by id; a broken sidecar is never opened
    wpath = tmp_path / "dad-witness.json"
    wpath.write_text(json.dumps(witness))
    broken = tmp_path / "g.json"
    broken.write_text(json.dumps({"q": [99999]}))
    p7 = str(instances / "p7.json")
    res = run_cli("dad", p7, "--recheck", str(wpath), "--graphing", str(broken))
    assert res.returncode == 0 and "\tcertified\t" in res.stdout
    # a search does read it
    res = run_cli("dad", p7, "--graphing", str(broken))
    assert res.returncode == 2 and "99999" in res.stderr


def test_out_naming_a_file_is_an_input_error(instances, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    res = run_cli("dad", str(instances / "p7.json"), "--graphing",
                  str(instances / "p7.graphing.json"), "--out", str(taken))
    assert res.returncode == 2 and res.stderr.startswith("Error: ")


@pytest.mark.parametrize("points, action", [
    ("-3", []), ("0", []), ("-3", ["--trivial-action"]), ("0", ["--trivial-action"]),
])
def test_build_action_rejects_point_counts_below_one(tmp_path, points, action):
    out = tmp_path / "g.json"
    res = run_cli("build", "--family", "action", "--group", "cyclic:3",
                  "--points", points, *action, "--out", str(out))
    assert res.returncode == 2 and res.stdout == "" and not out.exists()
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1


def test_asdim_fiber_and_tree(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    res = run_cli("asdim", p7, "--points", "fiber:0", "--e-spec", "ball:1",
                  "--f-spec", "power:K:2", "--graphing", p7g, "--d-max", "1")
    assert res.returncode == 0 and "d=1" in res.stdout
    t3 = str(instances / "t3.json")
    t3g = str(instances / "t3.graphing.json")
    res = run_cli("asdim", t3, "--mode", "tree:1", "--graphing", t3g,
                  "--out", str(tmp_path / "tree"))
    assert res.returncode == 0 and "certified" in res.stdout


def test_theorem_bridge_and_morita(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    res = run_cli("theorem", "bridge", "--path", p7, "--graphing", p7g,
                  "--out", str(tmp_path / "b"))
    assert res.returncode == 0 and "certified=True" in res.stdout
    res = run_cli("theorem", "morita", "--path", p7, "--graphing", p7g,
                  "--l-spec", "power:K:1", "--multiplicity", "2",
                  "--out", str(tmp_path / "m"))
    assert res.returncode == 0


def test_theorem_bridge_decomposition_bytes_are_pinned(instances, tmp_path):
    # fibers in unit order, members by least arrow within a fiber
    res = run_cli("theorem", "bridge", "--path", str(instances / "p7.json"),
                  "--graphing", str(instances / "p7.graphing.json"), "--out", str(tmp_path))
    assert res.returncode == 0
    data = (tmp_path / "bridge-decomposition.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "1375ca43152e5532eca01f388e8f09cfaa65b66d0cad6a07e9ecb692653ab9d4"
    )


@pytest.mark.parametrize("which, stage", [("morita", "base-search"), ("bridge", "dad-search")])
def test_theorem_search_stage_without_witness_is_refuted(instances, which, stage):
    # no dad witness of the 7-point path at d=0: the pipeline is refuted, not
    # given bad input, and stderr names the stage
    res = run_cli("theorem", which, "--path", str(instances / "p7.json"),
                  "--graphing", str(instances / "p7.graphing.json"), "--d-max", "0")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == f"grpdim: refuted: stage '{stage}': search found no witness\n"


def test_theorem_union(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    res = run_cli("theorem", "union", "--path", p7, "--graphing", p7g,
                  "--parts", "0-3;4-6", "--out", str(tmp_path / "u"))
    assert res.returncode == 0 and "certified=True" in res.stdout


def test_sweep_line(instances):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    res = run_cli("sweep", p7, "--windows", "4-7", "--graphing", p7g)
    assert res.returncode == 0
    rows = [l for l in res.stdout.splitlines() if "\td=" in l]
    assert [r.split("\t")[1] for r in rows] == ["d=1"] * 4


def test_artifacts_are_deterministic(instances, tmp_path):
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        res = run_cli("dad", p7, "--graphing", p7g, "--out", str(out))
        assert res.returncode == 0
        outs.append((out / "dad-witness.json").read_bytes())
    assert outs[0] == outs[1]

    trees = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        res = run_cli("theorem", "bridge", "--path", p7, "--graphing", p7g,
                      "--out", str(out))
        assert res.returncode == 0
        trees.append(sorted(
            (p.name, p.read_bytes()) for p in out.iterdir()
        ))
    assert trees[0] == trees[1]


def test_asdim_diagonal_gauges_zero_dim(instances):
    p7 = str(instances / "p7.json")
    res = run_cli("asdim", p7, "--points", "fiber:0", "--e-spec", "units",
                  "--f-spec", "units", "--d-max", "1")
    assert res.returncode == 0 and "d=0" in res.stdout


ARROW_SPACE_DECOMPOSITION = (
    '{"certified":true,"e_spec":"ball:1","f_spec":"power:K:3","families":'
    '[[[0,7,8,9],[1,13,14,15],[2,19,20,21],[3,25,26,27],[4,35,36],[5,42],[6,48],'
    '[11,12],[17,18],[23,24],[29,30],[31,32,33],[37,38,39,40],[43,44,45,46]],'
    '[[10],[16],[22],[28],[34],[41],[47]]],"format":"asdim-decomposition",'
    '"instance_digest":"0cd6859e7ecb7365","points":[' + ",".join(map(str, range(49)))
    + '],"version":1}\n'
)


def test_asdim_arrow_space(instances, tmp_path):
    # 49 points; the greedy pass finds the exact search's answer here
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    for mode in ([], ["--mode", "exact"], ["--mode", "greedy"]):
        res = run_cli("asdim", p7, "--points", "arrows", "--e-spec", "ball:1",
                      "--f-spec", "power:K:3", "--graphing", p7g, "--d-max", "1",
                      "--out", "run", *mode, cwd=tmp_path)
        assert res.returncode == 0
        assert res.stdout.rsplit("\t", 1)[0] == (
            f"{p7}\tasdim\tpoints=arrows;e=ball:1;f=power:K:3;d_max=1\td=1"
            "\trun/asdim-decomposition.json"
        )
        artifact = (tmp_path / "run" / "asdim-decomposition.json").read_text()
        assert artifact == ARROW_SPACE_DECOMPOSITION


FIBER_DECOMPOSITION = (
    '{"certified":true,"e_spec":"ball:1","f_spec":"power:K:2","families":'
    '[[[3,28,29],[25,26]],[[27],[30]]],"format":"asdim-decomposition",'
    '"instance_digest":"0cd6859e7ecb7365","points":[3,25,26,27,28,29,30],"version":1}\n'
)


def test_asdim_fiber_artifact_holds_arrow_ids(tmp_path, instances):
    # the fiber at unit 3: its arrow ids are not the search's dense indices
    p7 = str(instances / "p7.json")
    res = run_cli("asdim", p7, "--points", "fiber:3", "--e-spec", "ball:1",
                  "--f-spec", "power:K:2", "--graphing", str(instances / "p7.graphing.json"),
                  "--d-max", "2", "--out", "run", cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout.split("\t")[1:4] == [
        "asdim", "points=fiber:3;e=ball:1;f=power:K:2;d_max=2", "d=1"
    ]
    artifact = (tmp_path / "run" / "asdim-decomposition.json").read_text()
    assert artifact == FIBER_DECOMPOSITION


def test_greedy_misses_exit_unknown(instances):
    import grpdim.cli as cli

    assert cli.EXIT_UNKNOWN == 4
    p7 = str(instances / "p7.json")
    p7g = str(instances / "p7.graphing.json")
    for command in ("dad", "asdim"):
        args = [command, p7, "--graphing", p7g, "--d-max", "0"]
        miss = run_cli(*args, "--mode", "greedy")
        assert miss.returncode == 4 and miss.stdout.split("\t")[3] == "incomplete"
        refuted = run_cli(*args, "--mode", "exact")
        assert refuted.returncode == 1 and refuted.stdout.split("\t")[3] == "none"


def test_internal_error_exits_3(instances, monkeypatch, capsys):
    import grpdim.cli as cli
    import grpdim.dad as dad

    def broken(*args, **kwargs):
        raise RuntimeError("search blew up")

    monkeypatch.setattr(dad, "kl_dad_search", broken)
    p7 = str(instances / "p7.json")
    res = invoke(capsys, ["dad", p7, "--k-spec", "units"])
    assert res.exit_code == cli.EXIT_INTERNAL == 3
    assert res.stdout == ""
    assert res.stderr == "grpdim: internal error: RuntimeError: search blew up\n"
    # refutations and input errors keep their codes
    monkeypatch.setattr(dad, "kl_dad_search", lambda *args: None)
    assert invoke(capsys, ["dad", p7, "--k-spec", "units"]).exit_code == 1
    assert invoke(capsys, ["dad", p7, "--k-spec", "nonsense"]).exit_code == 2


def test_uncertifiable_search_result_exits_3(instances, monkeypatch, capsys):
    # a search answer that fails its own re-certification is a broken
    # invariant, not bad input
    import grpdim.cli as cli
    import grpdim.dad as dad

    check = dad.kl_dad_check
    monkeypatch.setattr(
        dad, "kl_dad_check", lambda *args: check(*args)._replace(certified=False)
    )
    res = invoke(capsys, ["dad", str(instances / "p7.json"), "--k-spec", "units"])
    assert res.exit_code == cli.EXIT_INTERNAL == 3
    assert res.stderr == (
        "grpdim: internal error: RuntimeError: search produced an uncertifiable cover\n"
    )


@pytest.mark.parametrize(
    "args, option",
    [
        (["asdim", "{p7}", "--mode", "tree:x", "--graphing", "{p7g}"], "--mode"),
        (["asdim", "{p7}", "--points", "fiber:x"], "--points"),
        (["sweep", "{p7}", "--windows", "a-b", "--graphing", "{p7g}"], "--windows"),
        (["theorem", "union", "--path", "{p7}", "--graphing", "{p7g}",
          "--parts", "0-x;2-3"], "--parts"),
        (["theorem", "product", "--left", "{p7}", "--right", "{p7}", "--graphing", "{p7g}",
          "--refute-units", "0,y"], "--refute-units"),
        (["build", "--family", "tree", "--shape", "binary:x", "--out", "{out}"], "--shape"),
        (["build", "--family", "action", "--group", "cyclic:x", "--out", "{out}"], "--group"),
        # unit lists that name no unit
        (["sweep", "{p7}", "--windows", "3-2", "--graphing", "{p7g}"], "--windows"),
        (["sweep", "{p7}", "--windows", ",", "--graphing", "{p7g}"], "--windows"),
        (["theorem", "product", "--left", "{p7}", "--right", "{p7}", "--graphing", "{p7g}",
          "--refute-units", "5-3"], "--refute-units"),
        (["theorem", "union", "--path", "{p7}", "--graphing", "{p7g}",
          "--parts", "0-6;"], "--parts"),
        # a negative id
        (["sweep", "{p7}", "--windows", "-3", "--graphing", "{p7g}"], "--windows"),
        # a unit outside the instance: p7 has 7 units, p7 × p7 has 49
        (["theorem", "union", "--path", "{p7}", "--graphing", "{p7g}",
          "--parts", "0-3;4-9"], "--parts"),
        (["theorem", "product", "--left", "{p7}", "--right", "{p7}", "--graphing", "{p7g}",
          "--refute-units", "0,49"], "--refute-units"),
    ],
)
def test_bad_numbers_are_input_errors(instances, tmp_path, capsys, args, option):
    import grpdim.cli as cli

    paths = {"p7": instances / "p7.json", "p7g": instances / "p7.graphing.json",
             "out": tmp_path / "built.json"}
    res = invoke(capsys, [a.format(**paths) for a in args])
    assert res.exit_code == cli.EXIT_INPUT == 2
    assert res.stderr.startswith(f"Error: bad {option} value") and res.stderr.count("\n") == 1


def test_bad_unit_list_names_its_chunk(instances, capsys):
    # "-3" reads as a range with no lower end: the message quotes the chunk
    res = invoke(capsys, ["sweep", str(instances / "p7.json"), "--windows", "-3"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "Error: bad --windows value '-3': not a range lo-hi\n"


@pytest.mark.parametrize("args, stderr", [
    # p7 has 7 units, p7 × p7 has 49: the message quotes the chunk and the range
    (["union", "--path", "{p7}", "--parts", "0-3;3-9"],
     "bad --parts value '3-9': unit 9 out of range 0..6"),
    (["product", "--left", "{p7}", "--right", "{p7}", "--refute-units", "1,60,2"],
     "bad --refute-units value '60': unit 60 out of range 0..48"),
])
def test_unit_out_of_range_names_its_chunk(instances, capsys, args, stderr):
    paths = {"p7": instances / "p7.json", "p7g": instances / "p7.graphing.json"}
    args = ["theorem", *args, "--graphing", "{p7g}"]
    res = invoke(capsys, [a.format(**paths) for a in args])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"Error: {stderr}\n"


# Every parser-level input error: an unknown option, an option's prefix, a
# value of the wrong kind, a missing option or argument, a path that does not
# exist.  Each is found before the command runs.
PARSE_ERRORS = [
    ["dad", "{p7}", "--no-such-option"],
    ["dad", "{p7}", "--grap", "{p7g}"],
    ["dad", "{p7}", "--d-max", "x"],
    ["dad", "{p7}", "--mode", "fast"],
    ["asdim", "{p7}", "--mode", "foo"],
    ["asdim", "{p7}", "--mode", "tree:0"],
    ["asdim", "{p7}", "--graphing", "{p7g}", "--mode", "tree:x"],
    ["build", "--family", "ring", "--out", "{out}"],
    ["build", "--family", "pair", "--n", "3"],
    ["theorem", "sum", "--path", "{p7}"],
    ["sweep", "{p7}", "--graphing", "{p7g}"],
    ["validate", "{p7}", "{missing}"],
    ["dad", "{p7}", "--graphing", "{missing}"],
    ["dad"],
    [],
]


@pytest.mark.parametrize("args", PARSE_ERRORS, ids=lambda args: " ".join(args) or "none")
def test_parse_errors_are_one_error_line(instances, tmp_path, capsys, args):
    paths = {"p7": instances / "p7.json", "p7g": instances / "p7.graphing.json",
             "out": tmp_path / "built.json", "missing": tmp_path / "missing.json"}
    res = invoke(capsys, [a.format(**paths) for a in args])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    assert not paths["out"].exists()


@pytest.mark.parametrize("mode", ["foo", "tree:0", "tree:-1", "tree:x", "tree:", "greedy:1"])
def test_bad_asdim_mode_names_the_option(instances, capsys, mode):
    # found by the parser, before the instance is loaded or a gauge is built
    res = invoke(capsys, ["asdim", str(instances / "p7.json"), "--mode", mode])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == (f"Error: bad --mode value {mode!r}: "
                          "not exact, greedy or tree:<N> with N >= 1\n")


def test_dad_past_the_unit_count_is_refuted_as_given(tmp_path, capsys):
    # Z/2 acting trivially on 5 points, K = all, L = units: every d is
    # refuted, and the search stops at d = 4; the row states the d_max given
    t2 = tmp_path / "t2.json"
    assert run_cli("build", "--family", "action", "--group", "cyclic:2", "--points", "5",
                   "--trivial-action", "--out", str(t2)).returncode == 0
    res = invoke(capsys, ["dad", str(t2), "--k-spec", "all", "--l-spec", "units",
                          "--d-max", "1000000"])
    assert res.exit_code == 1 and res.stderr == ""
    row = res.stdout.split("\t")
    assert row[1:5] == ["dad", "k=all;l=units;d_max=1000000;mode=exact", "none", "-"]


@pytest.mark.parametrize("args, label", [(["validate", ""], "PATH"),
                                         (["theorem", "bridge", "--path", ""], "--path")])
def test_empty_path_is_a_bad_value(instances, tmp_path, monkeypatch, capsys, args, label):
    # Path("") is the working directory: validate would sweep it and exit 0,
    # and bridge would fail on reading it as a file
    (tmp_path / "p7.json").write_bytes((instances / "p7.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    res = invoke(capsys, args)
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"Error: bad {label} value '': empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p7.json"]


def test_dispatcher_runs_a_swapped_in_callback(instances, monkeypatch, capsys):
    # a wrapper put in place of a command's callback (the benchmark's tracer
    # puts one there) runs at the next call, with the parsed options
    import grpdim.cli as cli

    command = cli.main.commands["validate"]
    original, calls = command.callback, []

    def wrapped(**options):
        calls.append(options)
        return original(**options)

    monkeypatch.setattr(command, "callback", wrapped)
    p7 = str(instances / "p7.json")
    res = invoke(capsys, ["validate", p7])
    assert res.exit_code == 0 and res.stdout.startswith(f"{p7}\tvalidate\t-\tok\t")
    assert calls == [{"paths": [p7]}]


# Per theorem, options it reads, then options it does not read: the parser
# rejects an option a theorem does not declare as an unrecognized argument.
UNREAD_OPTIONS = {
    "product": (["--left", "{p7}", "--right", "{p7}", "--graphing", "{p7g}"],
                ["--l-spec", "all"]),
    "union": (["--path", "{p7}", "--graphing", "{p7g}", "--parts", "0-3;4-6"],
              ["--multiplicity", "3"]),
    "morita": (["--path", "{p7}", "--graphing", "{p7g}"], ["--l-power", "7"]),
    "bridge": (["--path", "{p7}", "--graphing", "{p7g}"], ["--l-power", "7", "--parts", "junk"]),
}


@pytest.mark.parametrize("which", list(UNREAD_OPTIONS))
def test_theorem_rejects_options_it_does_not_read(instances, which):
    paths = {"p7": instances / "p7.json", "p7g": instances / "p7.graphing.json"}
    reads, unread = UNREAD_OPTIONS[which]
    args = ["theorem", which, *[a.format(**paths) for a in reads], "--d-max", "0"]
    res = run_cli(*args, *unread)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"Error: unrecognized arguments: {' '.join(unread)}\n"
    # given at the value another theorem reads by default, it is still rejected
    default = {"--l-spec": "power:K:2", "--multiplicity": "2", "--l-power": "2"}[unread[0]]
    res = run_cli(*args, unread[0], default)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"Error: unrecognized arguments: {unread[0]} {default}\n"
    # without it, the theorem runs: refuted at d_max 0, or certified
    assert run_cli(*args).returncode in (0, 1)


def readme_theorem_options():
    """README's theorem table: per theorem, the options it needs and all it
    reads, ``--out`` included, which the sentence above the table gives all
    four."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("Each theorem reads its own options, and all four read `--out`:\n", 1)[1]
    table = {}
    for row in section.strip().split("\n\n", 1)[0].splitlines()[2:]:  # below the header
        which, needs, reads = (re.findall(r"`([^`]+)`", cell) for cell in row.strip("|").split("|"))
        table[which[0]] = (set(needs), {*needs, *reads, "--out"})
    return table


def theorem_parser(which):
    """The sub-parser of ``theorem WHICH``, as a child that runs it builds it."""
    import argparse

    import grpdim.cli as cli

    parser = cli.main.parser("grpdim", ["theorem", which])
    for word in ("theorem", which):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def test_theorem_sub_commands_declare_readme_table():
    table = readme_theorem_options()
    assert list(table) == ["product", "union", "morita", "bridge"]
    for which, (needs, reads) in table.items():
        declared = {option: action.required for action in theorem_parser(which)._actions
                    for option in action.option_strings if option not in ("-h", "--help")}
        assert set(declared) == reads, which
        assert {option for option, required in declared.items() if required} == needs, which


@pytest.mark.parametrize("which", ["product", "union", "morita", "bridge"])
def test_theorem_help_names_only_its_options(capsys, which):
    _, reads = readme_theorem_options()[which]
    res = invoke(capsys, ["theorem", which, "--help"])
    assert res.exit_code == 0 and res.stderr == ""
    assert set(re.findall(r"--[a-z-]+", res.stdout)) == reads | {"--help"}


THEOREM_ESTIMATES = {
    "product": "dad(G x H) <= dad(G) + dad(H)",
    "union": "dad(G) <= max dad of the parts of a clopen partition",
    "morita": "dad(G) = dad of a blow-up of G",
    "bridge": "asdim(G) <= dad(G)",
}


def test_theorem_help_names_each_estimate(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per sub-command
    res = invoke(capsys, ["theorem", "--help"])
    assert res.exit_code == 0 and res.stderr == ""
    lines = dict(line.split(None, 1) for line in res.stdout.splitlines()
                 if line.split()[:1] and line.split()[0] in THEOREM_ESTIMATES)
    assert list(lines) == list(THEOREM_ESTIMATES)
    assert len(set(lines.values())) == len(lines)
    for which, estimate in THEOREM_ESTIMATES.items():
        assert estimate in lines[which], which
        assert estimate in invoke(capsys, ["theorem", which, "--help"]).stdout


def readme_cli_commands():
    """The commands of README's CLI block, continuation lines rejoined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def test_readme_cli_block_runs(tmp_path):
    commands = readme_cli_commands()
    assert len(commands) == 9 and all(argv[0] == "grpdim" for argv in commands)
    for argv in commands:
        res = run_cli(*argv[1:], cwd=tmp_path)
        assert res.returncode == 0, (argv, res.stdout, res.stderr)


# Every artifact kind a command writes, on built instances: pair(7) ("p7"),
# pair(4) ("p4") and the binary tree of depth 2 ("b2"), each with its graphing
# ("<name>g").  Determinism tests compare two runs of the same code; these
# digests pin the bytes across changes to it, so a changed byte fails here.
PINNED_COMMANDS = {
    "dad": ["dad", "{p7}", "--graphing", "{p7g}"],
    "asdim-fiber": ["asdim", "{p7}", "--points", "fiber:0", "--d-max", "1",
                    "--graphing", "{p7g}"],
    "asdim-tree": ["asdim", "{b2}", "--mode", "tree:1", "--graphing", "{b2g}"],
    "theorem-product": ["theorem", "product", "--left", "{p4}", "--right", "{p4}",
                        "--graphing", "{p4g}", "--refute-units", "0-3"],
    "theorem-union": ["theorem", "union", "--path", "{p7}", "--graphing", "{p7g}",
                      "--parts", "0-3;4-6"],
    "theorem-morita": ["theorem", "morita", "--path", "{p7}", "--graphing", "{p7g}",
                       "--l-spec", "power:K:1"],
    "theorem-bridge": ["theorem", "bridge", "--path", "{p7}", "--graphing", "{p7g}"],
    "sweep-dad": ["sweep", "{p7}", "--windows", "4-7", "--graphing", "{p7g}"],
    "sweep-asdim": ["sweep", "{b2}", "--what", "asdim", "--windows", "3-7",
                    "--graphing", "{b2g}"],
}

PINNED_ARTIFACTS = {
    "dad": {
        "dad-witness.json":
            "dbe1de55e03dbb154cfac327e9097cdc725fe231d2146fc75dceea6c0fff0771",
    },
    "asdim-fiber": {
        "asdim-decomposition.json":
            "1297179eeab8f1d623b42a318293027a9368309529fd26eff7ad8214fcf617f2",
    },
    "asdim-tree": {
        "tree-cover.json":
            "6c2aa3b2d7cc0d72cc44cf495f9cf254190db15108d9eb82a5b7a5dc37c361c9",
    },
    "theorem-product": {
        "product-left-witness.json":
            "9c6536d4208b6951242d7fc5b9b8b966702978fa7776a72dd1c7a6ab685eee3c",
        "product-product-witness.json":
            "51517cb7d87bf8abd93caa12d3dbf6e0a9bcebf049d623110b97d7e7b22def6f",
        "product-report.json":
            "6749c3de00bc35881638fd4ce102d447fd858cef93fbd07db61737180a21a428",
        "product-right-witness.json":
            "9c6536d4208b6951242d7fc5b9b8b966702978fa7776a72dd1c7a6ab685eee3c",
    },
    "theorem-union": {
        "union-part-0-witness.json":
            "f7b1cb06786ccc0438fa38891a5f594a1717867c837d56ad79b59881fb172b0f",
        "union-part-1-witness.json":
            "b4ec448b74f09d3ed52f277d96a09aea888ab25b3cfebf50e3e8f7991afd7f7d",
        "union-report.json":
            "d2787db9880aef326cda5ae320b749d1dacd6aa8da124db6b319a1324e7165cd",
        "union-union-witness.json":
            "3412471784224e01126445c9d7b8abcb245b40b4b5e9df918eb663e8d05a48e0",
    },
    "theorem-morita": {
        "morita-base-witness.json":
            "644c3bbf3b96d1cb1ec94e756a6ba3167d7a1c97b064107c9404aa8d57b3083d",
        "morita-lifted-witness.json":
            "dd0485d6d3be3309466bcb5e8af5dbd74c6122f78f30e1e703b1edc4e21bac2b",
        "morita-report.json":
            "996658db1dd9a2af0168487ebe8131c23206e6e70fc69cd884cb4973840115b1",
        "morita-transferred-witness.json":
            "644c3bbf3b96d1cb1ec94e756a6ba3167d7a1c97b064107c9404aa8d57b3083d",
    },
    "theorem-bridge": {
        "bridge-dad-witness.json":
            "a2d1351903204795cdda68ef55a44d2c7273430ca1ee03c5f884ae037b6b4031",
        "bridge-decomposition.json":
            "1375ca43152e5532eca01f388e8f09cfaa65b66d0cad6a07e9ecb692653ab9d4",
        "bridge-reconstructed-witness.json":
            "a2d1351903204795cdda68ef55a44d2c7273430ca1ee03c5f884ae037b6b4031",
        "bridge-report.json":
            "7380a6b1301913ef96ce1873115b23bac1a3cfed3e27bd3898ecf694ede0207c",
    },
    "sweep-dad": {
        "sweep-dad.json":
            "542f8f6df971472812e5e0c251f2d0b27d7208e3ce516732068a1d1141761881",
    },
    "sweep-asdim": {
        "sweep-asdim.json":
            "519ea288c5984c48229b2f09c997578edb04c5038a29fe119058449e1496fc04",
    },
}


def pinned_artifact_digests(root: Path) -> dict:
    """Build the instances under ``root``, run every pinned command with its
    own --out, and return ``{command: {file: sha256}}``."""
    paths = {}
    for name, build in (("p7", ["--family", "pair", "--n", "7"]),
                        ("p4", ["--family", "pair", "--n", "4"]),
                        ("b2", ["--family", "tree", "--shape", "binary:2"])):
        paths[name], paths[name + "g"] = root / f"{name}.json", root / f"{name}.g.json"
        res = run_cli("build", *build, "--out", str(paths[name]),
                      "--graphing-out", str(paths[name + "g"]))
        assert res.returncode == 0, res.stderr
    digests = {}
    for command, args in PINNED_COMMANDS.items():
        out = root / command
        res = run_cli(*[a.format(**paths) for a in args], "--out", str(out))
        assert res.returncode == 0, (command, res.stderr)
        digests[command] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir())}
    return digests


def test_every_artifact_kind_has_pinned_bytes(tmp_path):
    digests = pinned_artifact_digests(tmp_path)
    assert sum(map(len, digests.values())) == 21
    assert digests == PINNED_ARTIFACTS
