import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

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
}


@pytest.mark.parametrize("case", list(MALFORMED_WITNESSES))
def test_recheck_rejects_malformed_witness(instances, witness, tmp_path, case):
    bad = tmp_path / "dad-witness.json"
    bad.write_text(MALFORMED_WITNESSES[case](witness))
    res = run_cli("dad", str(instances / "p7.json"), "--recheck", str(bad))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1


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


def test_internal_error_exits_3(instances, monkeypatch):
    from click.testing import CliRunner

    import grpdim.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("search blew up")

    monkeypatch.setattr(cli, "kl_dad_search", broken)
    p7 = str(instances / "p7.json")
    res = CliRunner().invoke(cli.main, ["dad", p7, "--k-spec", "units"])
    assert res.exit_code == cli.EXIT_INTERNAL == 3
    assert res.stdout == ""
    assert res.stderr == "grpdim: internal error: RuntimeError: search blew up\n"
    # refutations and input errors keep their codes
    monkeypatch.setattr(cli, "kl_dad_search", lambda *args: None)
    assert CliRunner().invoke(cli.main, ["dad", p7, "--k-spec", "units"]).exit_code == 1
    assert CliRunner().invoke(cli.main, ["dad", p7, "--k-spec", "nonsense"]).exit_code == 2


def test_uncertifiable_search_result_exits_3(instances, monkeypatch):
    # a search answer that fails its own re-certification is a broken
    # invariant, not bad input
    import dataclasses

    from click.testing import CliRunner

    import grpdim.cli as cli
    import grpdim.dad as dad

    check = dad.kl_dad_check
    monkeypatch.setattr(
        dad, "kl_dad_check", lambda *args: dataclasses.replace(check(*args), certified=False)
    )
    res = CliRunner().invoke(cli.main, ["dad", str(instances / "p7.json"), "--k-spec", "units"])
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
    ],
)
def test_bad_numbers_are_input_errors(instances, tmp_path, args, option):
    from click.testing import CliRunner

    import grpdim.cli as cli

    paths = {"p7": instances / "p7.json", "p7g": instances / "p7.graphing.json",
             "out": tmp_path / "built.json"}
    res = CliRunner().invoke(cli.main, [a.format(**paths) for a in args])
    assert res.exit_code == cli.EXIT_INPUT == 2
    assert res.stderr.startswith(f"Error: bad {option} value") and res.stderr.count("\n") == 1


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
