"""Golden runs of every command: one case per command and outcome class.

Each case pins the stdout rows (the report row's trailing ``wall_ms`` cut),
the stderr and the exit code.  The commands run in one directory on relative
paths, so the rows and messages carry no machine-specific path.
"""

import json

import pytest

from test_cli import run_cli

# instances built once per module: pair(7) and pair(4) with their graphings,
# the binary tree of depth 2 with its graphing, a corrupted copy of p7, a
# dad witness of p7 and a copy of it whose d is raised by one
SETUP = [
    ["build", "--family", "pair", "--n", "7", "--out", "p7.json", "--graphing-out", "p7.g.json"],
    ["build", "--family", "pair", "--n", "4", "--out", "p4.json", "--graphing-out", "p4.g.json"],
    ["build", "--family", "tree", "--shape", "binary:2", "--out", "b2.json",
     "--graphing-out", "b2.g.json"],
    ["dad", "p7.json", "--graphing", "p7.g.json", "--out", "wit"],
]

GOLDEN_CASES = {
    "validate-ok": ["validate", "p7.json", "p4.json"],
    "validate-invalid": ["validate", "p7.json", "bad.json"],
    "validate-missing-file": ["validate", "p7.json", "missing.json"],
    "build-ok": ["build", "--family", "action", "--group", "cyclic:4", "--points", "8",
                 "--out", "z4.json"],
    "build-input": ["build", "--family", "pair", "--out", "x.json"],
    "build-bad-family": ["build", "--family", "ring", "--out", "x.json"],
    "build-pair-empty": ["build", "--family", "pair", "--n", "0", "--out", "x.json"],
    "build-graphing-none": ["build", "--family", "action", "--group", "cyclic:4",
                            "--out", "x.json", "--graphing-out", "x.g.json"],
    "dad-certified": ["dad", "p7.json", "--graphing", "p7.g.json", "--out", "w"],
    "dad-none": ["dad", "p7.json", "--graphing", "p7.g.json", "--d-max", "0"],
    "dad-incomplete": ["dad", "p7.json", "--graphing", "p7.g.json", "--d-max", "0",
                       "--mode", "greedy"],
    "dad-input": ["dad", "p7.json", "--k-spec", "nonsense"],
    "dad-unknown-option": ["dad", "p7.json", "--grap", "p7.g.json"],
    "dad-bad-int": ["dad", "p7.json", "--d-max", "x"],
    "recheck-certified": ["dad", "p7.json", "--recheck", "wit/dad-witness.json"],
    "recheck-rejected": ["dad", "p7.json", "--recheck", "raised.json"],
    "recheck-input": ["dad", "p4.json", "--recheck", "wit/dad-witness.json"],
    "asdim-ok": ["asdim", "p7.json", "--points", "fiber:3", "--f-spec", "power:K:2",
                 "--graphing", "p7.g.json", "--out", "a"],
    "asdim-none": ["asdim", "p7.json", "--graphing", "p7.g.json", "--d-max", "0"],
    "asdim-incomplete": ["asdim", "p7.json", "--graphing", "p7.g.json", "--d-max", "0",
                         "--mode", "greedy"],
    "asdim-input": ["asdim", "p7.json", "--points", "fiber:9"],
    "asdim-tree-certified": ["asdim", "b2.json", "--mode", "tree:1", "--graphing", "b2.g.json",
                             "--out", "t"],
    "asdim-tree-input": ["asdim", "b2.json", "--mode", "tree:1"],
    "product-certified": ["theorem", "product", "--left", "p4.json", "--right", "p4.json",
                          "--graphing", "p4.g.json", "--refute-units", "0-3", "--out", "tp"],
    "product-refuted": ["theorem", "product", "--left", "p4.json", "--right", "p4.json",
                        "--graphing", "p4.g.json", "--d-max", "0"],
    "product-input": ["theorem", "product", "--left", "p4.json"],
    "union-certified": ["theorem", "union", "--path", "p7.json", "--graphing", "p7.g.json",
                        "--parts", "0-3;4-6", "--out", "tu"],
    "union-input": ["theorem", "union", "--path", "p7.json", "--graphing", "p7.g.json"],
    "morita-certified": ["theorem", "morita", "--path", "p7.json", "--graphing", "p7.g.json",
                         "--l-spec", "power:K:1", "--out", "tm"],
    "morita-refuted": ["theorem", "morita", "--path", "p7.json", "--graphing", "p7.g.json",
                       "--d-max", "0"],
    "morita-input": ["theorem", "morita", "--path", "p7.json"],
    "bridge-certified": ["theorem", "bridge", "--path", "p4.json", "--graphing", "p4.g.json",
                         "--out", "tb"],
    "bridge-refuted": ["theorem", "bridge", "--path", "p7.json", "--graphing", "p7.g.json",
                       "--d-max", "0"],
    "bridge-input": ["theorem", "bridge", "--graphing", "p7.g.json"],
    "sweep-ok": ["sweep", "b2.json", "--what", "asdim", "--windows", "3-5",
                 "--graphing", "b2.g.json", "--out", "s"],
    "sweep-input": ["sweep", "p7.json", "--windows", "4,x", "--graphing", "p7.g.json"],
}

# (stdout rows, stderr, exit code) of each case
GOLDEN = {
    "validate-ok": (
        [
            "p7.json\tvalidate\t-\tok\t-",
            "p4.json\tvalidate\t-\tok\t-",
        ],
        "",
        0,
    ),
    "validate-invalid": (
        [
            "p7.json\tvalidate\t-\tok\t-",
            "bad.json\tvalidate\t-\tinvalid: instance violates the groupoid axioms: "
            "comp-endpoints: comp(7,13)=1 has wrong endpoints\t-",
        ],
        "",
        1,
    ),
    "validate-missing-file": (
        [],
        "Error: bad PATH value 'missing.json': no such file or directory\n",
        2,
    ),
    "build-ok": (
        [
            "z4.json\tbuild\taction\tok\t-",
        ],
        "",
        0,
    ),
    "build-input": (
        [],
        "Error: --family pair needs --n\n",
        2,
    ),
    "build-bad-family": (
        [],
        "Error: bad --family value 'ring': not one of "
        "pair, action, partial, tree, product, blowup\n",
        2,
    ),
    "build-pair-empty": (
        [],
        "Error: pair groupoid needs at least one unit\n",
        2,
    ),
    "build-graphing-none": (
        [],
        "Error: --family action defines no graphing for --graphing-out\n",
        2,
    ),
    "dad-certified": (
        [
            "p7.json\tdad\tk=ball:1;l=power:K:2;d_max=2;mode=exact\td=1;fold=1;gens=18,1\t"
            "w/dad-witness.json",
        ],
        "",
        0,
    ),
    "dad-none": (
        [
            "p7.json\tdad\tk=ball:1;l=power:K:2;d_max=0;mode=exact\tnone\t-",
        ],
        "",
        1,
    ),
    "dad-incomplete": (
        [
            "p7.json\tdad\tk=ball:1;l=power:K:2;d_max=0;mode=greedy\tincomplete\t-",
        ],
        "",
        4,
    ),
    "dad-input": (
        [],
        "Error: unrecognized set spec 'nonsense'\n",
        2,
    ),
    "dad-unknown-option": (
        [],
        "Error: unrecognized arguments: --grap p7.g.json\n",
        2,
    ),
    "dad-bad-int": (
        [],
        "Error: bad --d-max value 'x': not an integer\n",
        2,
    ),
    "recheck-certified": (
        [
            "p7.json\tdad-recheck\twit/dad-witness.json\tcertified\twit/dad-witness.json",
        ],
        "",
        0,
    ),
    "recheck-rejected": (
        [
            "p7.json\tdad-recheck\traised.json\trejected\traised.json",
        ],
        "Error: raised.json misstates its d\n",
        2,
    ),
    "recheck-input": (
        [],
        "Error: wit/dad-witness.json was made for another instance than p4.json\n",
        2,
    ),
    "asdim-ok": (
        [
            "p7.json\tasdim\tpoints=fiber:3;e=ball:1;f=power:K:2;d_max=2\td=1\t"
            "a/asdim-decomposition.json",
        ],
        "",
        0,
    ),
    "asdim-none": (
        [
            "p7.json\tasdim\tpoints=fiber:0;e=ball:1;f=ball:4;d_max=0\tnone\t-",
        ],
        "",
        1,
    ),
    "asdim-incomplete": (
        [
            "p7.json\tasdim\tpoints=fiber:0;e=ball:1;f=ball:4;d_max=0\tincomplete\t-",
        ],
        "",
        4,
    ),
    "asdim-input": (
        [],
        "Error: unit 9 out of range\n",
        2,
    ),
    "asdim-tree-certified": (
        [
            "0\t0\t0\t0\t3\t2",
            "0\t1\t0\t1\t4\t2",
            "0\t2\t0\t2\t4\t2",
            "0\t3\t0\t3\t2\t1",
            "0\t4\t0\t4\t2\t1",
            "0\t5\t0\t5\t2\t1",
            "0\t6\t0\t6\t2\t1",
            "1\t7\t1\t0\t6\t4",
            "1\t8\t1\t1\t4\t3",
            "1\t9\t1\t2\t4\t3",
            "1\t10\t1\t3\t3\t2",
            "1\t11\t1\t4\t3\t2",
            "1\t12\t1\t5\t3\t2",
            "1\t13\t1\t6\t3\t2",
            "0\t14\t2\t0\t2\t2",
            "0\t15\t2\t0\t2\t2",
            "0\t16\t2\t1\t3\t2",
            "0\t17\t2\t2\t3\t2",
            "0\t18\t2\t3\t3\t3",
            "0\t19\t2\t4\t3\t3",
            "0\t20\t2\t5\t3\t3",
            "0\t21\t2\t6\t3\t3",
            "1\t22\t3\t1\t2\t2",
            "1\t23\t3\t2\t2\t2",
            "1\t24\t3\t3\t3\t2",
            "1\t25\t3\t4\t3\t2",
            "1\t26\t3\t5\t3\t2",
            "1\t27\t3\t6\t3\t2",
            "0\t28\t4\t3\t2\t2",
            "0\t29\t4\t4\t2\t2",
            "0\t30\t4\t5\t2\t2",
            "0\t31\t4\t6\t2\t2",
            "b2.json\tasdim-tree\tmode=tree:1\tcertified\tt/tree-cover.json",
        ],
        "",
        0,
    ),
    "asdim-tree-input": (
        [],
        "Error: tree mode needs --graphing\n",
        2,
    ),
    "product-certified": (
        [
            "p4.json|p4.json\ttheorem-product\tk=ball:1\t"
            "d=2;certified=True;refuted_below=False\ttp/product-report.json",
        ],
        "",
        0,
    ),
    "product-refuted": (
        [],
        "grpdim: refuted: stage 'left-search': search found no witness\n",
        1,
    ),
    "product-input": (
        [],
        "Error: product needs --left and --right\n",
        2,
    ),
    "union-certified": (
        [
            "p7.json\ttheorem-union\tk=ball:1\td=0;certified=True\ttu/union-report.json",
        ],
        "",
        0,
    ),
    "union-input": (
        [],
        "Error: union needs --path and --parts\n",
        2,
    ),
    "morita-certified": (
        [
            "p7.json\ttheorem-morita\tk=ball:1\td=1;certified=True\ttm/morita-report.json",
        ],
        "",
        0,
    ),
    "morita-refuted": (
        [],
        "grpdim: refuted: stage 'base-search': search found no witness\n",
        1,
    ),
    "morita-input": (
        [],
        "Error: spec 'ball:1' needs a graphing (--graphing)\n",
        2,
    ),
    "bridge-certified": (
        [
            "p4.json\ttheorem-bridge\tk=ball:1\td=1;certified=True\ttb/bridge-report.json",
        ],
        "",
        0,
    ),
    "bridge-refuted": (
        [],
        "grpdim: refuted: stage 'dad-search': search found no witness\n",
        1,
    ),
    "bridge-input": (
        [],
        "Error: bridge needs --path\n",
        2,
    ),
    "sweep-ok": (
        [
            "3\tcertified",
            "4\tcertified",
            "5\tcertified",
            "b2.json\tsweep-asdim\twindows=3-5\trows=3\t-",
        ],
        "",
        0,
    ),
    "sweep-input": (
        [],
        "Error: bad --windows value 'x': not an integer\n",
        2,
    ),
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for args in SETUP:
        assert run_cli(*args, cwd=root).returncode == 0, args
    obj = json.loads((root / "p7.json").read_text())
    obj["comp"][0][2] = (obj["comp"][0][2] + 1) % (obj["units"] + len(obj["arrows"]))
    (root / "bad.json").write_text(json.dumps(obj))
    witness = json.loads((root / "wit" / "dad-witness.json").read_text())
    (root / "raised.json").write_text(json.dumps(dict(witness, d=witness["d"] + 1)))
    return root


def golden_run(root, args):
    """Stdout rows with each report row's wall_ms cut, stderr and exit code."""
    res = run_cli(*args, cwd=root)
    rows = []
    for line in res.stdout.splitlines():
        fields = line.split("\t")
        if len(fields) == 6 and not fields[1].isdigit():  # a report row, not a data row
            fields = fields[:5]
        rows.append("\t".join(fields))
    return rows, res.stderr, res.returncode


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_rows_stderr_and_exit_code(golden_dir, case):
    assert golden_run(golden_dir, GOLDEN_CASES[case]) == GOLDEN[case]
