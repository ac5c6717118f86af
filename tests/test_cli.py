import ast
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import FIXTURES, REPO_ROOT
from prolim import _modpoly, cli
from prolim.errors import InputError


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "prolim.cli", *args],
        capture_output=True,
        cwd=REPO_ROOT,
        timeout=timeout,
    )


def fixture(name):
    return os.path.join(FIXTURES, f"{name}.json")


def test_classify_tower_fixture():
    res = run_cli("classify", fixture("tower-z2"))
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["verdict"]["class"]["tag"] == "Cantor"
    assert out["verdict"]["certificate"]["case_label"] == "II.1"


def test_classify_constant_z_fixture():
    res = run_cli("classify", fixture("const-z"))
    out = json.loads(res.stdout)
    assert out["verdict"]["class"]["tag"] == "CountableDiscrete"


def test_classify_trace_flag():
    plain = json.loads(run_cli("classify", fixture("const-z2")).stdout)
    traced = json.loads(run_cli("classify", fixture("const-z2"), "--trace").stdout)
    assert "trace" not in plain["verdict"]["certificate"]
    trace = traced["verdict"]["certificate"]["trace"]
    assert trace and all({"predicate", "value", "rule"} <= set(e) for e in trace)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "system": ')
    res = run_cli("classify", str(bad))
    assert res.returncode == 2
    assert b"byte offset" in res.stderr


def test_bad_map_names_index(tmp_path):
    doc = {
        "name": "broken",
        "system": {
            "prefix": [],
            "maps": [],
            "tail": {
                "kind": "cycle",
                "groups": [{"free_rank": 0, "torsion": [4]}],
                "maps": [[[1], [0]]],
            },
        },
    }
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert b"tail.maps[0]" in res.stderr


SHAPE = ": matrix shape {} does not match target dim 2 x source dim 2"


@pytest.mark.parametrize(
    "matrix, message",
    [
        # ids: rows x length of the first row
        pytest.param([[1, 0]], SHAPE.format("1x2"), id="matrix0-1x2"),
        # a ragged matrix names its first row whose length is not the source dim
        pytest.param(
            [[1, 0], [0]], "[1]: row has 1 entry, expected source dim 2", id="matrix1-2x2"
        ),
        pytest.param([], SHAPE.format("0x0"), id="matrix2-0x0"),
        pytest.param(
            [[1], [0, 1]], "[0]: row has 1 entry, expected source dim 2", id="matrix3-2x1"
        ),
        pytest.param(
            [[1, 0, 0], [0, 1]],
            "[0]: row has 3 entries, expected source dim 2",
            id="matrix4-2x3",
        ),
        pytest.param([[1, 0], [0, 1], [0, 0]], SHAPE.format("3x2"), id="matrix5-3x2"),
        pytest.param([[], []], SHAPE.format("2x0"), id="matrix6-2x0"),
    ],
)
def test_wrong_shaped_matrix_exits_2(tmp_path, capsys, matrix, message):
    g = {"free_rank": 1, "torsion": [4]}
    good = [[1, 0], [0, 1]]
    # the bad matrix as the cycle map, then as the junction map into the prefix
    for where, prefix_map, tail_map in (("tail.maps[0]", good, matrix), ("maps[0]", matrix, good)):
        doc = {
            "name": "broken",
            "system": {
                "prefix": [g],
                "maps": [prefix_map],
                "tail": {"kind": "cycle", "groups": [g], "maps": [tail_map]},
            },
        }
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["classify", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: {where}{message}\n")


def matrix_error_document(where, bad):
    z2 = {"free_rank": 2, "torsion": []}
    prefix_map = [[1, 0], [0, 1]]
    tail_map = [[2, 0], [0, 1]]
    if where == "maps":
        prefix_map = [[1, 0], [bad, 1]]
    elif where == "tail.maps":
        tail_map = [[2, 0], [0, bad]]
    elif where == "maps row":
        prefix_map = [[1, 0], bad]
    else:
        tail_map = [bad, [0, 1]]
    return {
        "system": {
            "prefix": [z2, z2],
            "maps": [[[1, 0], [0, 1]], prefix_map],
            "tail": {"kind": "cycle", "groups": [z2], "maps": [tail_map]},
        }
    }


@pytest.mark.parametrize(
    "where, bad, message",
    [
        ("maps", True, "maps[1][1][0]: expected an integer, got True"),
        ("maps", 1.5, "maps[1][1][0]: expected an integer, got 1.5"),
        ("maps", "3", "maps[1][1][0]: expected an integer, got '3'"),
        ("maps", None, "maps[1][1][0]: expected an integer, got None"),
        ("tail.maps", True, "tail.maps[0][1][1]: expected an integer, got True"),
        ("tail.maps", 1.5, "tail.maps[0][1][1]: expected an integer, got 1.5"),
        ("tail.maps", "3", "tail.maps[0][1][1]: expected an integer, got '3'"),
        ("tail.maps", None, "tail.maps[0][1][1]: expected an integer, got None"),
        ("maps row", 5, "maps[1][1]: expected a JSON array, got 5"),
        ("maps row", None, "maps[1][1]: expected a JSON array, got None"),
        ("tail.maps row", {"a": 1}, "tail.maps[0][0]: expected a JSON array, got {'a': 1}"),
        ("tail.maps row", "xy", "tail.maps[0][0]: expected a JSON array, got 'xy'"),
        ("maps", 1.0, "maps[1][1][0]: expected an integer, got 1.0"),
        ("maps", "1", "maps[1][1][0]: expected an integer, got '1'"),
        ("maps", [1], "maps[1][1][0]: expected an integer, got [1]"),
        ("tail.maps", 1.0, "tail.maps[0][1][1]: expected an integer, got 1.0"),
        ("tail.maps", "1", "tail.maps[0][1][1]: expected an integer, got '1'"),
        ("tail.maps", [1], "tail.maps[0][1][1]: expected an integer, got [1]"),
    ],
)
def test_bad_matrix_entry_names_its_path(tmp_path, capsys, where, bad, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(matrix_error_document(where, bad)))
    assert cli.main(["classify", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"error: {message}"


TOWER_WITHOUT_BASE = {"kind": "tower", "layers": [{"free_rank": 0, "torsion": [2]}]}


@pytest.mark.parametrize("tail, path", [([1], b"tail"), (TOWER_WITHOUT_BASE, b"tail.base")])
def test_malformed_tail_names_path(tmp_path, tail, path):
    doc = {"name": "broken", "system": {"prefix": [], "maps": [], "tail": tail}}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert path in res.stderr
    assert b"Traceback" not in res.stderr


Z_GROUP = {"free_rank": 1, "torsion": []}


@pytest.mark.parametrize(
    "system, message",
    [
        (
            {"prefix": [Z_GROUP, Z_GROUP], "tail": None},
            "maps: expected 1 matrices, got 0",
        ),
        (
            {"prefix": [Z_GROUP], "tail": {"kind": "cycle", "groups": [Z_GROUP], "maps": [[[1]]]}},
            "maps: expected 1 matrices, got 0",
        ),
        ({"tail": {"kind": "tower", "base": Z_GROUP, "layers": []}}, "tail.layers must be nonempty"),
        ({"prefix": [Z_GROUP], "maps": [[[1]]], "tail": None}, "maps: expected 0 matrices, got 1"),
    ],
)
def test_missing_maps_and_empty_layers_name_their_path(tmp_path, capsys, system, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"system": system}))
    assert cli.main(["ml", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


Z_CHAIN = {"prefix": [Z_GROUP], "maps": [], "tail": None}
NEGATIVE_RANK = {"prefix": [{"free_rank": -1, "torsion": []}], "maps": [], "tail": None}
EXTRA_MAP = {"prefix": [Z_GROUP], "maps": [[[1]]], "tail": None}


@pytest.mark.parametrize(
    "system, second_system, message",
    [
        (NEGATIVE_RANK, Z_CHAIN, "prefix[0]: free_rank must be nonnegative"),
        (Z_CHAIN, NEGATIVE_RANK, "second_system.prefix[0]: free_rank must be nonnegative"),
        (5, Z_CHAIN, "system must be a JSON object"),
        (Z_CHAIN, 5, "second_system must be a JSON object"),
        (EXTRA_MAP, Z_CHAIN, "maps: expected 0 matrices, got 1"),
        (Z_CHAIN, EXTRA_MAP, "second_system.maps: expected 0 matrices, got 1"),
    ],
)
def test_kk_classify_names_the_system_at_fault(tmp_path, capsys, system, second_system, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"system": system, "second_system": second_system}))
    assert cli.main(["kk-classify", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _cycle_tail(groups, maps):
    return {"kind": "cycle", "groups": groups, "maps": maps}


@pytest.mark.parametrize(
    "tail, path",
    [
        ({"kind": "tower", "base": Z_GROUP, "layers": 5}, b"tail.layers"),
        (_cycle_tail([Z_GROUP], 5), b"tail.maps"),
        (_cycle_tail([Z_GROUP], [[1]]), b"tail.maps[0][0]"),
        (_cycle_tail([Z_GROUP], [[[1.5]]]), b"tail.maps[0][0][0]"),
        (_cycle_tail([Z_GROUP], [[["1"]]]), b"tail.maps[0][0][0]"),
        (_cycle_tail([Z_GROUP], [[[True]]]), b"tail.maps[0][0][0]"),
        (
            _cycle_tail([{"free_rank": 0, "torsion": [2.5]}], [[[1]]]),
            b"tail.groups[0].torsion[0]",
        ),
    ],
)
def test_non_array_or_non_integer_input_names_path(tmp_path, tail, path):
    doc = {"name": "broken", "system": {"prefix": [], "maps": [], "tail": tail}}
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert path in res.stderr
    assert b"Traceback" not in res.stderr


HUGE = 10**30


def _with_huge_layer():
    doc = json.load(open(fixture("kk-NxCantor")))
    doc["system"]["tail"]["layers"][0]["free_rank"] = HUGE
    return doc


def _system_doc(tail, prefix=()):
    return {"name": "big", "system": {"prefix": list(prefix), "maps": [], "tail": tail}}


ZERO_GROUP = {"free_rank": 0, "torsion": []}


@pytest.mark.parametrize(
    "doc, path",
    [
        pytest.param(_with_huge_layer(), b"tail.layers[0].free_rank", id="kk-NxCantor-layer"),
        pytest.param(
            _system_doc(
                {"kind": "tower", "base": ZERO_GROUP, "layers": [{"free_rank": HUGE, "torsion": []}]}
            ),
            b"tail.layers[0].free_rank",
            id="tower-over-0",
        ),
        pytest.param(
            _system_doc({"kind": "tower", "base": {"free_rank": HUGE, "torsion": []}, "layers": []}),
            b"tail.base.free_rank",
            id="tower-base",
        ),
        pytest.param(
            _system_doc(_cycle_tail([{"free_rank": 1, "torsion": [2] * 100}], [[[1]]])),
            b"tail.groups[0].torsion",
            id="torsion-count",
        ),
        pytest.param(
            _system_doc(_cycle_tail([Z_GROUP], [[[1]]]), [{"free_rank": 101, "torsion": []}]),
            b"prefix[0].free_rank",
            id="prefix",
        ),
    ],
)
@pytest.mark.parametrize("cmd", ["ml", "classify"])
def test_dimension_bound_exits_2(tmp_path, doc, path, cmd):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    res = run_cli(cmd, str(p), timeout=30)
    assert res.returncode == 2
    assert path + b":" in res.stderr
    assert b"dimension bound 100" in res.stderr
    assert b"Traceback" not in res.stderr


# A rank-4 cycle whose image chain never stabilizes: charpoly of the free
# part is (t - 2)(t^3 - 3t^2 + 3t - 3), with no factor of constant term +-1.
RANK4_CYCLE = _cycle_tail(
    [{"free_rank": 4, "torsion": [2]}],
    [
        [
            [1, 2, 0, 1, 0],
            [0, 1, 1, -1, 0],
            [2, 0, 1, 0, 0],
            [1, 1, 0, 2, 0],
            [1, 0, 1, 0, 1],
        ]
    ],
)
# The same with charpoly (t - 1)(t^3 - 3t^2 + 3t - 3): the unit factor t - 1
# is real, so the mod-p certificate cannot settle it and the unit part is
# factored over Z.
RANK4_UNIT_CYCLE = _cycle_tail(
    [{"free_rank": 4, "torsion": [2]}],
    [
        [
            [0, 0, 0, -3, 0],
            [1, 0, 0, 6, 0],
            [0, 1, 0, -6, 0],
            [0, 0, 1, 4, 0],
            [1, 0, 1, 0, 1],
        ]
    ],
)
HOT_PATH_SCRIPT = """
import contextlib, io, sys
from prolim import cli, invsys
sizes = []
inner = invsys.eventual_image_lattice
def counted(n_cols):
    sizes.append(len(n_cols))
    return inner(n_cols)
invsys.eventual_image_lattice = counted
for cmd in ("classify", "ml", "surjectivize", "kk-classify"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([cmd, sys.argv[1]]) == 0, cmd
print(sorted(set(sizes)), "sympy" in sys.modules)
"""


def run_hot_path(tmp_path, tail):
    """Stdout of HOT_PATH_SCRIPT on a document with the given cycle tail."""
    doc = {"name": "rank4", "system": {"prefix": [], "maps": [], "tail": tail}}
    doc["second_system"] = doc["system"]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")] + [x for x in [env.get("PYTHONPATH")] if x]
    )
    res = subprocess.run(
        [sys.executable, "-c", HOT_PATH_SCRIPT, str(p)],
        capture_output=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_hot_path_does_not_import_sympy(tmp_path):
    # the stable image of the rank-4 free part was computed, without sympy
    assert run_hot_path(tmp_path, RANK4_CYCLE) == b"[4] False\n"


def test_unit_part_does_not_import_sympy(tmp_path):
    assert not _modpoly.no_unit_factor([row[:4] for row in RANK4_UNIT_CYCLE["maps"][0][:4]])
    assert run_hot_path(tmp_path, RANK4_UNIT_CYCLE) == b"[4] False\n"


IMPORT_GRAPH_SCRIPT = """
import sys, prolim.cli
print(sorted(m for m in ("dataclasses", "typing", "inspect") if m in sys.modules))
print("prolim._modpoly" in sys.modules)
from prolim import _modpoly
assert _modpoly.no_unit_factor([[2, 0], [1, 3]])
print("fractions" in sys.modules)
"""


def test_cli_import_loads_no_dataclasses_typing_or_inspect():
    # -S, so that no site .pth file can preload a module and hide its import;
    # `fgab.eventual_image_lattice` imports _modpoly when it first runs, and
    # the mod-p certificate leaves fractions to the unit_part fallback
    env = dict(os.environ, PYTHONPATH="src")
    res = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_GRAPH_SCRIPT],
        capture_output=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == b"[]\nFalse\nFalse\n"


def test_modpoly_imports_nothing_from_prolim():
    # as its docstring says, so it loads alone and only when it first runs
    with open(_modpoly.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert "struct" in imported
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "prolim"] == []


def test_kk_classify_requires_second_system(tmp_path):
    doc = json.load(open(fixture("const-z2")))
    p = tmp_path / "single.json"
    p.write_text(json.dumps(doc))
    res = run_cli("kk-classify", str(p))
    assert res.returncode == 2


def test_kk_classify_row():
    res = run_cli("kk-classify", fixture("kk-CantorxU"))
    out = json.loads(res.stdout)
    assert out["verdict"]["symbol"] == "CantorxU"


def test_ml_command():
    res = run_cli("ml", fixture("z-times-2"))
    out = json.loads(res.stdout)
    assert out["verdict"]["verdict"] is False
    fails = [e for e in out["verdict"]["per_level"] if not e["stable"]]
    assert fails and fails[0]["index"] == 2


def test_surjectivize_command():
    res = run_cli("surjectivize", fixture("z-times-2"))
    out = json.loads(res.stdout)
    tail = out["verdict"]["tail"]
    assert tail["groups"] == [{"free_rank": 0, "torsion": []}]


def test_kernels_requires_surjective_maps_exit_3():
    res = run_cli("kernels", fixture("z-times-2"))
    assert res.returncode == 3
    assert b"surjectivize" in res.stderr


def test_sample_and_cap():
    res = run_cli("sample", fixture("tower-z2"), "--level", "2")
    out = json.loads(res.stdout)
    assert len(out["verdict"]) == 4
    res2 = run_cli("sample", fixture("const-z"), "--level", "1")
    assert res2.returncode == 3  # infinite group, enumeration impossible
    res3 = run_cli("sample", fixture("tower-z2"), "--level", "2", "--cap", "2")
    assert res3.returncode == 3


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(
            ["sample", "--level", "1000"],
            f"level-1000 tuple enumeration needs {2**1000} items, cap is 10000",
            id="sample-1000",
        ),
        pytest.param(
            ["sample", "--level", "100000"],
            "level-100000 tuple enumeration needs at least 10^4300 items, cap is 10000",
            id="sample-100000",
        ),
        pytest.param(
            ["dense", "--budget", "13"],
            "dense family would exceed the enumeration cap 10000",
            id="dense-13",
        ),
        pytest.param(
            ["dense", "--budget", "1000000"],
            "dense family would exceed the enumeration cap 10000",
            id="dense-1000000",
        ),
    ],
)
def test_deep_tower_flags_exit_3_with_the_cap_message_at_once(args, message, capsys):
    argv = [args[0], fixture("tower-z2"), *args[1:]]
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")
    res = run_cli(*argv, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (3, b"", f"error: {message}\n".encode())


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["sample", "--level", "2", "--cap", "0"], b"--cap", id="cap-0"),
        pytest.param(["sample", "--level", "2", "--cap", "-5"], b"--cap", id="cap-neg"),
        pytest.param(["dense", "--budget", "2", "--cap", "-1"], b"--cap", id="dense-cap"),
        pytest.param(["sample", "--level", "0"], b"--level", id="level-0"),
        pytest.param(["sample", "--level", "-3"], b"--level", id="level-neg"),
    ],
)
def test_non_positive_cap_or_level_exits_2(args, message):
    res = run_cli(args[0], fixture("tower-z2"), *args[1:])
    assert res.returncode == 2
    assert message + b" must be >= 1" in res.stderr
    assert res.stdout == b""
    assert b"Traceback" not in res.stderr


def test_non_string_name_exits_2(tmp_path):
    doc = json.load(open(fixture("tower-z2")))
    doc["name"] = 5
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert b"name: expected a string" in res.stderr
    assert res.stdout == b""


def test_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert res.stdout == b"prolim 0.1.0 (backend: pure)\n"
    assert res.stderr == b""


def test_repeated_in_process_calls_share_no_state(capsys):
    cli.build_parser.cache_clear()

    def run(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        return rc, out, err

    def usage_error():
        rc, out, err = run(["sample", fixture("tower-z2")])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage: prolim sample") and "--level" in err

    usage_error()
    first_help = run(["--help"])
    assert first_help[0] == 0 and first_help[1].startswith("usage: prolim")
    assert cli.build_parser() is cli.build_parser()

    rc, out, _ = run(["classify", fixture("const-z2"), "--trace"])
    assert rc == 0
    assert "trace" in json.loads(out)["verdict"]["certificate"]
    rc, out, err = run(["classify", fixture("const-z2")])
    assert rc == 0 and err == ""
    with open(os.path.join(FIXTURES, "golden", "classify-const-z2.json")) as fh:
        assert out == fh.read()

    usage_error()
    assert run(["--help"]) == first_help


def run_main(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


def run_full_parser(argv, capsys):
    """What main gives when the top-level parser reads every argument."""
    try:
        args = cli.build_parser().parse_args(argv)
        report = args.fn(args)
    except SystemExit as exc:
        rc = exc.code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 2
    else:
        sys.stdout.write(cli.canonical_json(report))
        rc = 0
    out, err = capsys.readouterr()
    return rc, out, err


TOP_USAGE = "usage: prolim [-h] [--version]"
ARGV_CASES = [
    ([], 2, TOP_USAGE),
    (["--help"], 0, None),
    (["--version"], 0, None),
    (["nosuch"], 2, TOP_USAGE),
    (["classify", "F", "extra"], 2, TOP_USAGE),
    (["sample", "F"], 2, "usage: prolim sample "),
    (["classify", "--help"], 0, None),
    (["--version", "classify"], 0, None),
    (["classify", "F", "--trace"], 0, None),
    (["kk-classify"], 2, "usage: prolim kk-classify "),
    (["sample", "--level", "0"], 2, "usage: prolim sample "),
    (["dense", "--cap", "x"], 2, "usage: prolim dense "),
    (["classify"], 2, "usage: prolim classify "),
    (["classify", "missing.json"], 2, "error: cannot read "),
]


@pytest.mark.parametrize(
    "argv, code, err_start", ARGV_CASES, ids=[" ".join(a) or "no-args" for a, _, _ in ARGV_CASES]
)
def test_argv_edge_cases_match_the_full_parser(capsys, tmp_path, argv, code, err_start):
    files = {"F": fixture("const-z2"), "missing.json": str(tmp_path / "missing.json")}
    argv = [files.get(a, a) for a in argv]
    got = run_main(argv, capsys)
    assert got == run_full_parser(argv, capsys)
    rc, out, err = got
    assert rc == code
    if err_start is None:
        assert err == "" and out
    else:
        assert out == "" and err.startswith(err_start)


def test_metric_command():
    x = json.dumps({"level": 3, "entries": [[1], [1, 0], [1, 0, 0]]})
    y = json.dumps({"level": 3, "entries": [[1], [1, 0], [1, 0, 1]]})
    res = run_cli("metric", fixture("tower-z2"), "--x", x, "--y", y)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["verdict"]["distance"] == "2^-3"


@pytest.mark.parametrize(
    "entries, path",
    [
        (5, b"--x.entries"),
        ([5], b"--x.entries[0]"),
        ([[1.0]], b"--x.entries[0][0]"),
        pytest.param({"level": True, "entries": [[1]]}, b"--x.level", id="level-true"),
        pytest.param({"level": 1.0, "entries": [[1]]}, b"--x.level", id="level-1.0"),
    ],
)
def test_metric_tuple_input_names_path(entries, path):
    """`entries` is the entries of a level-1 tuple, or a whole tuple object."""
    x = json.dumps(entries if isinstance(entries, dict) else {"level": 1, "entries": entries})
    y = json.dumps({"level": 1, "entries": [[1]]})
    res = run_cli("metric", fixture("tower-z2"), "--x", x, "--y", y)
    assert res.returncode == 2
    assert path + b":" in res.stderr
    assert b"Traceback" not in res.stderr


# Integers longer than Python's default 4300-digit str conversion limit,
# written and checked as digit strings so this process needs no raised limit.
TEN_TO_4999 = "1" + "0" * 4999


def test_entry_past_the_str_digit_limit_is_exact(tmp_path):
    p = tmp_path / "doc.json"
    p.write_text(
        '{"name":"long-entry","system":{"prefix":[],"maps":[],"tail":{"kind":"cycle",'
        f'"groups":[{{"free_rank":1,"torsion":[]}}],"maps":[[[{TEN_TO_4999}]]]}}}}}}'
    )
    for cmd in ("ml", "classify", "surjectivize"):
        res = run_cli(cmd, str(p), timeout=60)
        assert res.returncode == 0, (cmd, res.stderr[-300:])
        assert b"Traceback" not in res.stderr
    # multiplication by 10^4999 on Z: each image has index 10^4999 in the last
    assert run_cli("ml", str(p)).stdout.startswith(
        b'{"command":"ml","name":"long-entry","verdict":{"per_level":[{"index":'
        + TEN_TO_4999.encode()
        + b","
    )
    x = f'{{"level":2,"entries":[[{TEN_TO_4999}],[{TEN_TO_4999}]]}}'
    y = f'{{"level":2,"entries":[[{TEN_TO_4999[:-1]}1],[{TEN_TO_4999[:-1]}1]]}}'
    res = run_cli("metric", fixture("const-z"), "--x", x, "--y", y, timeout=60)
    assert res.returncode == 0, res.stderr[-300:]
    assert json.loads(res.stdout)["verdict"]["distance"] == "2^-1"


def test_cardinality_past_the_str_digit_limit_is_exact(tmp_path):
    t = "1" + "0" * 4000
    p = tmp_path / "doc.json"
    p.write_text(
        '{"name":"long-cardinality","system":{"prefix":[],"maps":[],"tail":{"kind":"cycle",'
        f'"groups":[{{"free_rank":0,"torsion":[{t},{t}]}}],"maps":[[[1,0],[0,1]]]}}}}}}'
    )
    res = run_cli("classify", str(p), timeout=60)
    assert res.returncode == 0, res.stderr[-300:]
    assert b"Traceback" not in res.stderr
    # the identity on Z/10^4000 + Z/10^4000: the limit is the group itself
    assert b'"class":{"cardinality":1' + b"0" * 8000 + b',"tag":"Finite"}' in res.stdout


def test_non_utf8_document_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b'\xff\xff\xff{"system":1}')
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert b"error:" in res.stderr and b"bad.json" in res.stderr
    assert b"Traceback" not in res.stderr


def test_deeply_nested_document_exits_2(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert b"error:" in res.stderr and b"deep.json" in res.stderr
    assert b"Traceback" not in res.stderr


def test_bad_value_is_shown_shortened(tmp_path):
    p = tmp_path / "deep-tail.json"
    p.write_text('{"system": {"tail": ' + "[" * 980 + "]" * 980 + "}}")
    res = run_cli("classify", str(p))
    assert res.returncode == 2
    assert b"tail" in res.stderr
    assert len(res.stderr) < 200
    assert b"Traceback" not in res.stderr


def test_deeply_nested_tuple_argument_exits_2():
    res = run_cli("metric", fixture("tower-z2"), "--x", "[" * 20000, "--y", "[]")
    assert res.returncode == 2
    assert b"error: --x:" in res.stderr
    assert b"Traceback" not in res.stderr


def test_dense_command():
    res = run_cli("dense", fixture("tower-z2"), "--budget", "2")
    out = json.loads(res.stdout)
    assert len(out["verdict"]) == 4


@pytest.mark.parametrize(
    "group, matrix, args",
    [
        pytest.param({"free_rank": 0, "torsion": [10**40]}, [[3]], ["--budget", "3"], id="huge-torsion"),
        pytest.param(
            {"free_rank": 1, "torsion": [10**40]},
            [[1, 0], [0, 1]],
            ["--budget", "1", "--cap", "3"],
            id="z-plus-huge-torsion",
        ),
        pytest.param(
            {"free_rank": 30, "torsion": []},
            [[int(i == j) for j in range(30)] for i in range(30)],
            ["--budget", "1", "--cap", "1"],
            id="z30",
        ),
    ],
)
def test_dense_takes_only_what_the_cap_allows(tmp_path, group, matrix, args):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(_system_doc(_cycle_tail([group], [matrix]))))
    res = run_cli("dense", str(p), *args, timeout=5)
    assert res.returncode in (0, 3), res.stderr
    assert b"Traceback" not in res.stderr


def test_dense_negative_budget_exits_2():
    res = run_cli("dense", fixture("tower-z2"), "--budget", "-1")
    assert res.returncode == 2
    assert b"--budget" in res.stderr
    assert res.stdout == b""


# sha256 over the exit code, stdout and stderr of `dense` on every fixture at
# budget 8 (the default cap and --cap 200) and at budget 9 on three deep
# towers, so that a change in how tuples are lifted cannot move a byte
DEEP_DENSE_SHA256 = "adc4fecbc0d3a5d15ed82585fd80b3268fc8644791b269ec022803d67f74738f"


def test_deep_dense_forms_are_byte_stable(capsys):
    names = sorted(f[: -len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json"))
    forms = [(n, "--budget", "8", *cap) for n in names for cap in ((), ("--cap", "200"))]
    forms += [(n, "--budget", "9") for n in ("kk-Cantor", "tower-mixed-layers", "tower-z2")]
    h = hashlib.sha256()
    for name, *flags in forms:
        code = cli.main(["dense", fixture(name), *flags])
        out, err = capsys.readouterr()
        h.update(f"{name} {' '.join(flags)} {code}\n{out}{err}".encode())
    assert h.hexdigest() == DEEP_DENSE_SHA256


# stdout of each split-demo space, pinned so that a change in how a topology
# is stored cannot move a byte
SPLIT_DEMO_SHA256 = {
    "mixed": "e84d44f5d2d33afe5a5936c6e6f2b7b82f54413e99381356bf67fade66c3efd4",
    "discrete-z4": "8184d2309a7212def925bf4dc3531fe1d2124130904b21491c34415c46caf1c7",
    "indiscrete-z2": "418e46da984f73da19978a9a0ad4f1f397e157375c8e1a8b88f50823bc5ccd46",
}


def test_split_demo():
    res = run_cli("split-demo", "mixed")
    out = json.loads(res.stdout)
    assert out["verdict"]["all_sections_pass"] is True
    assert out["verdict"]["translated_basis_ok"] is True
    for name, want in SPLIT_DEMO_SHA256.items():
        res = run_cli("split-demo", name)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout).hexdigest() == want, name
    bad = run_cli("split-demo", "nope")
    assert bad.returncode == 2


def test_round_trip_is_byte_identical():
    from prolim import invsys as I

    for name in ("tower-z2", "const-z", "z-times-2", "prefix-then-const"):
        doc = json.load(open(fixture(name)))
        sys_obj = I.InverseSystem.from_json(doc["system"])
        assert sys_obj.to_json() == doc["system"]
        blob = json.dumps(sys_obj.to_json(), sort_keys=True, separators=(",", ":"))
        again = I.InverseSystem.from_json(json.loads(blob)).to_json()
        assert json.dumps(again, sort_keys=True, separators=(",", ":")) == blob


def test_reports_are_byte_stable_across_runs():
    for name in ("const-z2", "tower-z2", "z-times-2"):
        a = run_cli("classify", fixture(name)).stdout
        b = run_cli("classify", fixture(name)).stdout
        assert a == b
        golden = os.path.join(FIXTURES, "golden", f"classify-{name}.json")
        with open(golden, "rb") as fh:
            assert fh.read() == a
