"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import copy
import functools
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import corrupted_d1
from trophodge import cli, cohomology, cycles, fans, weightss


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_validate_p2(capsys):
    code, out, _ = run(capsys, "fan-validate", "--builtin", "p2")
    assert code == 0
    assert out == "cones=7 smooth=yes complete=yes f=(1,3,3)\n"


def test_fan_validate_from_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fans.to_json_dict(fans.builtin("p1"))))
    code, out, _ = run(capsys, "fan-validate", "--input", str(path))
    assert code == 0
    assert "complete=yes" in out


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "cohomology", "--builtin", "p99", "--all")
    assert code == 2
    assert "error" in err


def test_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "fan-validate", "--input", "/no/such/file.json")
    assert code == 2


# input files that are not UTF-8 JSON with unique keys, by placeholder
BAD_FILES = {
    "{bad}": b'{"rank": 2,',
    "{utf16}": '{"rank": 1}'.encode("utf-16"),  # starts with the bytes ff fe
    "{cones-twice}": b'{"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0]],'
                     b' "cones": [[0, 1]]}',
    "{w-twice}": b'{"fan": "p2", "codim": 1, "divisor": true,'
                 b' "weights": [{"cone": [0], "w": 1, "w": 5}]}',
}


@pytest.mark.parametrize("argv, message", [
    (["fan-validate"], "need --builtin or --input"),
    (["fan-validate", "--input", "{bad}"], "cannot parse"),
    (["fan-validate", "--input", "{utf16}"], "cannot parse {utf16}: 'utf-8' codec"),
    (["pair", "--input", "{utf16}"], "cannot parse {utf16}: 'utf-8' codec"),
    (["fan-validate", "--input", "{cones-twice}"],
     "cannot parse {cones-twice}: repeated key 'cones'"),
    (["pair", "--input", "{w-twice}"], "cannot parse {w-twice}: repeated key 'w'"),
    (["cohomology", "--builtin", "p2", "--p", "1"], "need --p and --q, or --all"),
    (["chow", "--builtin", "p2"], "need --codim or --all"),
    (["chow", "--builtin", "p2", "--codim", "3"], "codim must lie in 0..n"),
    (["subdivide", "--builtin", "p2"], "need --ray a,b,..."),
    (["subdivide", "--builtin", "p2", "--ray", "1,x"],
     "ray must be a comma-separated integer vector"),
    (["verify"], "need --builtin or --all-builtins"),
], ids=[
    "no-fan", "unparsable-json", "fan-not-utf8", "weights-not-utf8",
    "fan-key-repeated", "weight-key-repeated", "p-without-q", "chow-without-codim",
    "codim-out-of-range", "subdivide-without-ray", "non-integer-ray",
    "verify-without-fan",
])
def test_parse_errors_exit_2_with_one_line(tmp_path, capsys, argv, message):
    for i, (name, content) in enumerate(BAD_FILES.items()):
        path = tmp_path / f"bad{i}.json"
        path.write_bytes(content)
        argv = [str(path) if a == name else a for a in argv]
        message = message.replace(name, str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and message in line


# 5,000 digits, past the 4,300 that Python converts by default
_LONG = "1" * 5000
_TOO_LONG = f"integer has 5000 digits; at most {sys.get_int_max_str_digits()} are read"

# the input files that cases below name, written to the test's directory
_STRICT_FILES = {
    "long_rank.json": '{"rank": %s, "rays": [], "cones": []}' % _LONG,
    "long_weight.json": json.dumps(
        {"fan": "p1", "codim": 0, "weights": [{"cone": [0], "w": _LONG}]}
    ),
}


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--builtin", "p2", "--p", "\u0661", "--q", "1"],
     "argument --p: not an ASCII decimal integer: '\u0661'"),
    (["cohomology", "--builtin", "p2", "--p", "0_1", "--q", "1"],
     "argument --p: not an ASCII decimal integer: '0_1'"),
    (["cohomology", "--builtin", "p2", "--p", "1", "--q", "+1"],
     "argument --q: not an ASCII decimal integer: '+1'"),
    (["chow", "--builtin", "p2", "--codim", "\u0661"],
     "argument --codim: not an ASCII decimal integer: '\u0661'"),
    (["weightss", "--builtin", "p2", "--level", "\u0662"],
     "argument --level: not an ASCII decimal integer: '\u0662'"),
    (["subdivide", "--builtin", "p2", "--ray", "1_0,1"],
     "ray must be a comma-separated integer vector"),
    (["subdivide", "--builtin", "p2", "--ray", "+1,1"],
     "ray must be a comma-separated integer vector"),
    (["cohomology", "--builtin", "hirzebruch(1_0)", "--all"],
     "unknown builtin fan: 'hirzebruch(1_0)'"),
    (["cohomology", "--builtin", "torus(\u0662)", "--all"],
     "unknown builtin fan: 'torus(\u0662)'"),
    (["fan-validate", "--builtin", "hirzebruch()"], "unknown builtin fan: 'hirzebruch()'"),
    (["fan-validate", "--builtin", "orthant(-1)"], "orthant needs n >= 0"),
    (["fan-validate", "--builtin", "p1xp1xq"], "unknown builtin fan: 'p1xp1xq'"),
    (["cohomology", "--builtin", "p2", "--p", _LONG, "--q", "1"], f"argument --p: {_TOO_LONG}"),
    (["fan-validate", "--builtin", f"torus({_LONG})"], _TOO_LONG),
    (["fan-validate", "--input", "long_rank.json"], f"cannot parse long_rank.json: {_TOO_LONG}"),
    (["pair", "--input", "long_weight.json"], f"invalid weight file: {_TOO_LONG}"),
], ids=[
    "p-arabic-indic-digit", "p-underscore", "q-plus", "codim-arabic-indic-digit",
    "level-arabic-indic-digit", "ray-underscore", "ray-plus", "builtin-underscore",
    "builtin-arabic-indic-digit", "builtin-empty-argument", "builtin-negative-orthant",
    "builtin-unknown-name", "p-5000-digits", "builtin-5000-digits", "json-5000-digits",
    "weight-5000-digits",
])
def test_integers_and_builtin_names_are_read_strictly(
    tmp_path, monkeypatch, capsys, argv, message
):
    """Integers on the command line and in builtin names are ASCII decimal,
    -?[0-9]+: anything else exits 2, with argparse's usage error for a
    typed option, else one ``error: `` line that names the builtin fan or
    the bound it breaks, quoted once.  An integer longer than Python
    converts, there, in a JSON file or in a weight, names the digit bound,
    not the interpreter setting or the reader's name."""
    monkeypatch.chdir(tmp_path)
    for name, text in _STRICT_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a typed option
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert lines[-1].endswith(f"error: {message}")
    assert len(lines) == 1 or lines[0].startswith("usage: ")
    assert "set_int_max_str_digits" not in captured.err
    assert "_decimal" not in captured.err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "x.tsv"
    code, out, err = run(
        capsys, "cohomology", "--builtin", "p2", "--all", "--output", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert not target.exists()


def test_invalid_fan_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "rank": 2,
        "rays": [[1, 0], [0, 1], [1, 1], [1, -1]],
        "cones": [[0, 1], [2, 3]],
    }))
    code, _, _ = run(capsys, "fan-validate", "--input", str(path))
    assert code == 3


@pytest.mark.parametrize("rays, cones", [
    ([[1.7, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
    ([[True, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, -3]]),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 3]]),
    ([[1, 0], [0, 1], [-1, -1], [2, 0]], [[0, 1], [1, 2], [2, 3]]),
    ([[1, 0], [0, 1], [-1, -1], [1, 0]], [[0, 1], [1, 2], [2, 3]]),
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0], [0, 0]]),
])
def test_fan_file_is_not_reinterpreted(tmp_path, capsys, rays, cones):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": 2, "rays": rays, "cones": cones}))
    code, out, _ = run(capsys, "fan-validate", "--input", str(path))
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("doc, field", [
    ({"rank": 2, "rays": [[1, 0]]}, "'cones'"),
    ({"rank": 2, "rays": [[1, 0]], "cones": [0]}, "cone 0"),
    ({"rank": 2, "rays": [[1, 0]], "cones": None}, "cones"),
    ({"rank": 2, "rays": [[1, 0]], "cones": [[0]], "extra": 1}, "'extra'"),
    ({"rank": 2, "rays": [[1, 0, 0]], "cones": [[0]]}, "ray 0"),
    ({"rank": 2, "rays": [1], "cones": [[0]]}, "ray 0"),
    ([{"rank": 2}], "JSON object"),
    ("p2", "JSON object"),
], ids=["no-cones", "cone-int", "cones-null", "extra-key", "ray-length",
        "ray-int", "list", "string"])
def test_fan_file_shape_is_checked(tmp_path, capsys, doc, field):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fan-validate", "--input", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid fan: ") and err.count("\n") == 1
    assert field in err


def test_fan_file_rank_is_not_reinterpreted(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"rank": -1, "rays": [], "cones": []}))
    code, out, _ = run(capsys, "fan-validate", "--input", str(path))
    assert code == 3
    assert out == ""


def test_cohomology_table_p1(capsys):
    code, out, _ = run(capsys, "cohomology", "--builtin", "p1", "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "0\t1\t0"
    assert lines[2] == "1\t0\t1"


def test_cohomology_single_entry(capsys):
    """``cohomology --p P --q Q`` prints the dimension that ``cohomology``
    gives, for every (p, q), on complete fans and on open ones."""
    code, out, _ = run(capsys, "cohomology", "--builtin", "p2", "--p", "1", "--q", "2")
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "cohomology", "--builtin", "p2", "--p", "2", "--q", "2")
    assert code == 0 and out == "1\n"
    for name in ("p2", "blowup_p2", "p1xp1xp1", "torus(2)", "affine_space(2)"):
        fan = fans.builtin(name)
        cx = weightss.trop_complex_for(fan)
        n = fan.ambient_rank
        for p in range(n + 1):
            for q in range(n + 1):
                code, out, _ = run(
                    capsys, "cohomology", "--builtin", name, "--p", str(p), "--q", str(q)
                )
                want = cohomology.cohomology(cx, p, q).dim
                assert code == 0 and out == f"{want}\n", (name, p, q)


def test_cohomology_single_entry_builds_one_orbit_complex(tmp_path, capsys):
    """``cohomology --p P --q Q`` builds the orbit complex of its one p,
    prints the entry ``--all`` prints, on a complete and on an open fan,
    and exits 4 on an open fan that is not smooth."""
    cohomology.orbit_cochains.cache_clear()
    p4 = ("cohomology", "--builtin", "projective_space(4)")
    assert run(capsys, *p4, "--p", "1", "--q", "1") == (0, "1\n", "")
    assert cohomology.orbit_cochains.cache_info().misses == 1
    for name in ("p3", "product(p2,torus(1))"):
        _, table, _ = run(capsys, "cohomology", "--builtin", name, "--all")
        for p, line in enumerate(table.splitlines()[1:]):
            for q, entry in enumerate(line.split("\t")[1:]):
                got = run(capsys, "cohomology", "--builtin", name,
                          "--p", str(p), "--q", str(q))
                assert got == (0, entry + "\n", ""), (name, p, q)
    path = tmp_path / "fan.json"
    fan = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
    path.write_text(json.dumps(fan))
    code, out, err = run(capsys, "cohomology", "--input", str(path),
                         "--p", "0", "--q", "0")
    assert (code, out) == (4, "") and "smooth base fan" in err


def test_cohomology_out_of_range_exits_2(capsys):
    code, _, _ = run(capsys, "cohomology", "--builtin", "p2", "--p", "5", "--q", "0")
    assert code == 2


def test_weightss_levels(tmp_path, capsys):
    code, out, _ = run(capsys, "weightss", "--builtin", "p1", "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 2
    assert {"p": 1, "q": 1, "dim": 1} in payload["entries"]
    code, out, _ = run(capsys, "weightss", "--builtin", "p1", "--level", "1")
    assert json.loads(out)["entries"] == [
        {"p": 0, "q": 0, "dim": 1},
        {"p": 0, "q": 1, "dim": 1},
        {"p": 1, "q": 1, "dim": 2},
    ]


def test_weightss_nonsmooth_exits_5(tmp_path, capsys):
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
    ))
    code, _, _ = run(capsys, "weightss", "--input", str(path))
    assert code == 5
    code, _, _ = run(capsys, "chow", "--input", str(path), "--codim", "1")
    assert code == 5


def test_chow_all(capsys):
    code, out, _ = run(capsys, "chow", "--builtin", "p1xp1", "--all")
    assert code == 0
    assert json.loads(out) == {"dims": [1, 2, 1]}


def test_chow_incomplete_fan_exits_3(capsys):
    code, out, err = run(capsys, "chow", "--builtin", "affine_space(2)", "--all")
    assert code == 3
    assert out == ""
    assert "complete fan" in err


def test_pair_balanced_weight(tmp_path, capsys):
    mw = cycles.MinkowskiWeight(
        fans.builtin("p2"),
        1,
        {c: 1 for c in fans.builtin("p2").cones_of_dim(1)},
    )
    path = tmp_path / "line.json"
    path.write_text(cycles.weight_to_json(mw))
    code, out, _ = run(capsys, "pair", "--input", str(path))
    assert code == 0
    assert out in ("1\n", "-1\n")


def test_pair_principal_divisor(tmp_path, capsys):
    fan = fans.builtin("p1xp1")
    weights = cycles.principal_divisor_weights(fan, (1, 0))
    mw = cycles.MinkowskiWeight(
        fan, 1,
        {fans.Cone(2, [r]): w for r, w in zip(fan.rays, weights) if w},
        divisor=True,
    )
    path = tmp_path / "div.json"
    path.write_text(cycles.weight_to_json(mw))
    code, out, _ = run(capsys, "pair", "--input", str(path))
    assert code == 0
    assert out == "0\n0\n"


def test_pair_unbalanced_exits_6(tmp_path, capsys):
    fan = fans.builtin("p2")
    rays = fan.cones_of_dim(1)
    mw = cycles.MinkowskiWeight(fan, 1, {rays[0]: 1, rays[1]: 1, rays[2]: 2})
    path = tmp_path / "bad.json"
    path.write_text(cycles.weight_to_json(mw))
    code, _, err = run(capsys, "pair", "--input", str(path))
    assert code == 6
    assert "unbalanced" in err


CUBE_VERTICES = [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]
CUBE_FACES = [
    [i for i, v in enumerate(CUBE_VERTICES) if v[axis] == side]
    for axis in range(3)
    for side in (1, -1)
]


@pytest.mark.parametrize("data, code, out", [
    ({"fan": {"rank": 3, "rays": CUBE_VERTICES, "cones": CUBE_FACES},
      "codim": 0, "weights": [{"cone": f, "w": 1} for f in CUBE_FACES]}, 0, "-1\n"),
    ({"fan": {"rank": 2, "rays": [[1, 0], [1, 1]], "cones": [[0, 1]]},
      "codim": 2, "weights": [{"cone": [], "w": 1}]}, 3, ""),
    ({"fan": "affine_space(2)", "codim": 2, "weights": [{"cone": [], "w": 1}]}, 3, ""),
    ({"fan": "torus(2)", "codim": 2, "weights": [{"cone": [], "w": 1}]}, 3, ""),
    ({"fan": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
              "cones": [[0, 1], [1, 2], [2, 0]]},
      "codim": 1, "weights": [{"cone": [0], "w": 1}, {"cone": [1], "w": 2},
                              {"cone": [2], "w": 1}]}, 0, "1\n"),
], ids=["cube-non-simplicial", "incomplete-non-orthant", "affine_space(2)",
        "torus(2)", "p112-non-smooth"])
def test_pair_needs_a_fan_it_can_build_the_cycle_on(tmp_path, capsys, data, code, out):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(data))
    got_code, got_out, err = run(capsys, "pair", "--input", str(path))
    assert (got_code, got_out) == (code, out)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


P112 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
        "cones": [[0, 1], [1, 2], [2, 0]]}
P2 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
      "cones": [[0, 1], [1, 2], [2, 0]]}
CUBE = {"rank": 3, "rays": CUBE_VERTICES, "cones": CUBE_FACES}


@pytest.mark.parametrize("fan, weights, code, out, defects", [
    (P112, [1, 1, 1], 0, "-1\n", 0),
    (P2, [1, 1, 1], 0, "-1\n", 0),
    (CUBE, [2, 1, 1, 1, 1, 1], 6, "", 4),
], ids=["p112-fundamental", "p2-fundamental", "cube-unbalanced"])
def test_pair_balances_top_weights_by_primitive_normals(
        tmp_path, capsys, fan, weights, code, out, defects):
    """Top weights are balanced along the primitive lattice normal of each
    wall, also on fans that are not smooth or not simplicial: the
    fundamental class pairs to -1, and weight 2 on one square of the cube
    fan is unbalanced at the four walls of that square."""
    data = {"fan": fan, "codim": 0,
            "weights": [{"cone": c, "w": w} for c, w in zip(fan["cones"], weights)]}
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(data))
    got = run(capsys, "pair", "--input", str(path))
    assert got[:2] == (code, out)
    assert got[2].count("unbalanced at cone") == defects


@pytest.mark.parametrize("field, value", [("cone", [-1]), ("w", 0.1), ("cone", [0, 0])])
def test_weight_file_is_not_reinterpreted(tmp_path, capsys, field, value):
    fan = fans.builtin("p2")
    mw = cycles.MinkowskiWeight(fan, 1, {c: 1 for c in fan.cones_of_dim(1)})
    data = json.loads(cycles.weight_to_json(mw))
    data["weights"][0][field] = value
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "pair", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "invalid weight file" in err


P1XP1_FILE_ORDER = {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                    "cones": [[0, 2], [2, 1], [1, 3], [3, 0]]}
P1XP1_LEX_ORDER = {"rank": 2, "rays": [[-1, 0], [0, -1], [0, 1], [1, 0]],
                   "cones": [[0, 1], [0, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize("divisor, file_cones, lex_cones, out", [
    (True, [[1]], [[0]], "1\n0\n"),
    (False, [[0], [1]], [[0], [3]], "0\n1\n"),
], ids=["divisor-of-ray-minus-e1", "balanced-on-rays-e1-minus-e1"])
def test_weight_file_cone_indices_follow_the_file_rays(
        tmp_path, capsys, divisor, file_cones, lex_cones, out):
    """Cone indices of an inline fan refer to its rays in the file's order."""
    for fan, cones in [(P1XP1_FILE_ORDER, file_cones), (P1XP1_LEX_ORDER, lex_cones)]:
        data = {"fan": fan, "codim": 1, "divisor": divisor,
                "weights": [{"cone": c, "w": 1} for c in cones]}
        path = tmp_path / "weight.json"
        path.write_text(json.dumps(data))
        assert run(capsys, "pair", "--input", str(path)) == (0, out, "")


@pytest.mark.parametrize("edit, field", [
    (lambda data: data.update(codim=1.0), "codim"),
    (lambda data: data.update(codim=True), "codim"),
    (lambda data: data.update(divisor="false"), "divisor"),
    (lambda data: data["weights"].append(dict(data["weights"][0], w="2")), "cone"),
    (lambda data: data.pop("fan"), "'fan'"),
    (lambda data: data.pop("codim"), "'codim'"),
    (lambda data: data.pop("weights"), "'weights'"),
    (lambda data: data["weights"][0].pop("cone"), "'cone'"),
    (lambda data: data["weights"][0].pop("w"), "'w'"),
    (lambda data: data.update(extra=1), "'extra'"),
    (lambda data: data["weights"][0].update(extra=1), "'extra'"),
    (lambda data: data.update(weights={}), "weights"),
    (lambda data: data["weights"][0].update(cone=0), "cone of weight 0"),
    (lambda data: data.update(fan="p99"), "p99"),
    (lambda data: data.update(fan={"rank": 2, "rays": [[1, 0]]}), "'cones'"),
], ids=["codim-float", "codim-bool", "divisor-string", "duplicate-cone",
        "no-fan", "no-codim", "no-weights", "no-cone", "no-w", "extra-key",
        "extra-record-key", "weights-object", "cone-int", "unknown-builtin",
        "fan-no-cones"])
def test_weight_file_header_is_strict(tmp_path, capsys, edit, field):
    """A field of the wrong type, a missing or unknown field, at the top or
    in a weight record, exits 2 with one error line that names it."""
    fan = fans.builtin("p2")
    mw = cycles.MinkowskiWeight(fan, 1, {c: 1 for c in fan.cones_of_dim(1)})
    data = json.loads(cycles.weight_to_json(mw))
    edit(data)
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "pair", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid weight file: ") and err.count("\n") == 1
    assert field in err


def test_subdivide_p2(capsys):
    code, out, _ = run(capsys, "subdivide", "--builtin", "p2", "--ray", "1,1")
    assert code == 0
    assert fans.from_json_dict(json.loads(out)) == fans.builtin("blowup_p2")


def test_subdivide_outside_support_exits_3(capsys):
    code, _, _ = run(
        capsys, "subdivide", "--builtin", "affine_space(2)", "--ray=-1,0"
    )
    assert code == 3


@pytest.mark.parametrize("ray", ["1,1,1", "1,1,0", "1"])
def test_subdivide_ray_of_another_length_exits_3(capsys, ray):
    # a ray of the wrong length is not read through its first entries
    code, out, err = run(capsys, "subdivide", "--builtin", "p2", "--ray", ray)
    assert (code, out) == (3, "")
    assert err == "error: ray length does not match ambient rank\n"


def test_verify_single_builtin(capsys):
    code, out, _ = run(capsys, "verify", "--builtin", "torus(3)")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_an_open_fan_with_no_built_in_completion(capsys):
    """``verify`` reads the Betti table off the fan, so an open fan with no
    built-in completion to give its cells passes its checks: E_2 matches
    the Kunneth table of P^2 x T^1, which vanishes above the diagonal."""
    code, out, err = run(capsys, "verify", "--builtin", "product(p2,torus(1))")
    assert (code, err) == (0, "")
    checks = [{"name": "e2_matches_tropical", "pass": True},
              {"name": "vanishing_above_diagonal", "pass": True}]
    report = {"fan": "product(p2,torus(1))", "checks": checks, "pass": True}
    assert json.loads(out) == {"reports": [report], "pass": True}


def test_open_fan_with_no_built_in_completion_exits_4(tmp_path, capsys):
    """An open fan that is not smooth has no Betti table by Poincare
    duality: ``cohomology --all`` exits 4 with one error line that says
    so.  Its cone is no face of a coordinate orthant, so it has no
    built-in completion either: ``trop_complex_for`` says which fans have
    one and names the library call that takes a completion, as no CLI
    command does."""
    path = tmp_path / "fan.json"
    fan = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
    path.write_text(json.dumps(fan))
    code, out, err = run(capsys, "cohomology", "--input", str(path), "--all")
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert "smooth base fan" in err
    with pytest.raises(ValueError) as exc:
        weightss.trop_complex_for(fans.from_json_dict(fan))
    assert "faces of the coordinate orthants" in str(exc.value)
    assert "tropspace.tautological_complex(fan, structure)" in str(exc.value)


@pytest.mark.parametrize("argv", [
    ["fan-validate", "--builtin", "p2", "--input", "FILE"],
    ["cohomology", "--builtin", "p2", "--all", "--p", "0", "--q", "0"],
    ["chow", "--builtin", "p2", "--all", "--codim", "1"],
    ["verify", "--builtin", "p99", "--all-builtins"],
])
def test_conflicting_flags_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fans.to_json_dict(fans.builtin("p1"))))
    argv = [str(path) if a == "FILE" else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects mutually exclusive flags
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error: " in captured.err


def test_verify_builds_each_d1_once(monkeypatch):
    weightss.e2_page.cache_clear()
    calls = []
    build = weightss.d1

    def counting(fan, p, q):
        calls.append((p, q))
        return build(fan, p, q)

    monkeypatch.setattr(weightss, "d1", counting)
    report = cli._verify_fan("p2", fans.builtin("p2"))
    assert report["pass"]
    assert sorted(calls) == [(p, q) for p in range(3) for q in range(3)]


def test_verify_corrupt_sign_exits_1(capsys):
    with corrupted_d1():
        code, out, _ = run(capsys, "verify", "--builtin", "p1xp1")
    assert code == 1
    report = json.loads(out)["reports"][0]
    failed = {c["name"]: c for c in report["checks"] if not c["pass"]}
    assert "e2_matches_tropical" in failed
    mismatches = failed["e2_matches_tropical"]["mismatches"]
    assert mismatches
    assert all(e2 != h_trop for _, _, e2, h_trop in mismatches)


def test_verify_corrupt_sign_fails_where_the_flip_matters(capsys):
    with corrupted_d1():
        code, out, _ = run(capsys, "verify", "--all-builtins")
    assert code == 1
    failed = {r["fan"] for r in json.loads(out)["reports"] if not r["pass"]}
    blind = {"p1", "torus(1)", "torus(2)", "torus(3)",
             "affine_space(1)", "affine_space(2)"}
    assert failed == set(fans.BUILTIN_ZOO) - blind


def test_output_files_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = cli.main([
            "cohomology", "--builtin", "hirzebruch(2)", "--all",
            "--output", str(path),
        ])
        assert code == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    for path in (a, b):
        code = cli.main(["weightss", "--builtin", "p2", "--output", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pair_requires_input(capsys):
    code, _, _ = run(capsys, "pair")
    assert code == 2


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.floats(-4, 4, allow_nan=False), st.text("01,/ab", max_size=3),
    st.lists(st.integers(-2, 5), max_size=3), st.just({}),
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, base):
    """``base`` with one to three edits: a key or entry dropped, a value of
    another JSON type, an extra key, an entry more or an index moved."""
    doc = {"root": copy.deepcopy(base)}
    for _ in range(draw(st.integers(1, 3))):
        path = ("root",) + draw(st.sampled_from(list(_paths(doc["root"]))))
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        key, target = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["drop", "swap", "extra", "grow", "index"]))
        if op == "drop" and len(path) > 1:
            del parent[key]
        elif op == "extra" and isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "rank", "cone", "divisor"]))] = (
                draw(JSON_VALUES))
        elif op == "grow" and isinstance(target, list):
            target.append(draw(st.one_of(st.integers(-2, 9), JSON_VALUES)))
        elif op == "index" and type(target) is int:
            parent[key] = draw(st.integers(-3, 12))
        else:
            parent[key] = draw(JSON_VALUES)
    return doc["root"]


FAN_DOC = fans.to_json_dict(fans.builtin("p2"))
WEIGHT_DOC = {"fan": FAN_DOC, "codim": 1,
              "weights": [{"cone": [i], "w": 1} for i in range(3)]}


@settings(max_examples=80, deadline=None, database=None)
@seed(2009046900)
@given(command=st.sampled_from(["fan-validate", "pair"]), data=st.data())
def test_mutated_input_documents_fail_with_one_error_line(
        tmp_path_factory, command, data):
    """A mutated fan or weight document exits 0 or with its documented code
    (3 for a fan file; 2, 3, 5 or 6 for a weight file), and a failure prints
    nothing to stdout and exactly one ``error: `` line, the last one."""
    base = FAN_DOC if command == "fan-validate" else WEIGHT_DOC
    doc = data.draw(mutated(base))
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path)])
    allowed = {0, 3} if command == "fan-validate" else {0, 2, 3, 5, 6}
    assert code in allowed, (doc, err.getvalue())
    if code:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert [line.startswith("error: ") for line in lines] == (
            [False] * (len(lines) - 1) + [True]), lines


def test_loading_the_package_loads_no_dataclasses_or_inspect():
    """A fresh interpreter that has made the benchmark worker's stdlib
    imports loads neither ``dataclasses`` nor ``inspect`` (nor, through
    them, ``ast`` and ``dis``) when it imports the CLI."""
    code = (
        "import argparse, contextlib, fractions, json, os, pathlib, platform\n"
        "import resource, sys, time, traceback\n"
        "before = set(sys.modules)\n"
        "import trophodge.cli\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis'}))\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout == "[]\n"
