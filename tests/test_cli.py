"""Scenario driver: determinism, formats, exit codes, error channels."""

import io
import json
import os
import subprocess
import sys
import contextlib

import pytest

import charpgeom
from charpgeom.algebra import monomials
from charpgeom import cli
from charpgeom.cli import run_scenario, main, FORMAT_VERSION


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError) as exc:
        run_scenario("no-such-thing")
    assert "unknown scenario" in str(exc.value)


def test_reports_are_versioned_and_pass():
    rep = run_scenario("desing", {"p": 5, "n": 2})
    assert rep.format_version == FORMAT_VERSION
    assert rep.passed
    structured = rep.to_structured()
    assert structured["format_version"] == FORMAT_VERSION
    assert structured["passed"] is True


def test_byte_identical_reports():
    kwargs = {"params": {"p": 3, "N": 1}, "seed": 7}
    texts = set()
    blobs = set()
    for _ in range(3):
        rep = run_scenario("cover", **kwargs)
        texts.add(rep.to_text())
        blobs.add(json.dumps(rep.to_structured(), sort_keys=True))
    assert len(texts) == 1 and len(blobs) == 1


def test_desing_scenario_counts():
    rep = run_scenario("desing", {"p": 5, "n": 2})
    assert rep.passed
    assert rep.outputs["blowups"] == 2
    assert all(a.passed for a in rep.assertions)


def test_example1_scenario_values():
    rep = run_scenario("northcott-demo", {"p": 3, "N": 2})
    assert rep.outputs["example1"]["count"] == 13
    assert rep.outputs["example1"]["max_height"] == 0
    assert rep.passed


def test_vojta_scenario_table():
    rep = run_scenario("vojta-demo", {"p": 3, "d": 1, "n": 5, "M": 10})
    assert rep.passed
    table = rep.outputs["family"]
    assert len(table) == 10
    heights = [row["canonical_height"] for row in table]
    assert all(heights[i] < heights[i + 1] for i in range(9))
    assert all(row["d"] == "-2" for row in table)
    assert len(rep.outputs["violations"]) >= 6


def test_cli_text_output_and_exit_code():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["height", "--coords", "t^2+1,t,1", "--p", "5"])
    assert code == 0
    out = buf.getvalue()
    assert "height: 2" in out
    assert "result: PASS" in out


def test_cli_structured_output():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["adjunction", "--p", "3", "--d", "1", "--n", "5",
                     "--format", "json-like-structured"])
    assert code == 0
    data = json.loads(buf.getvalue())
    assert data["scenario"] == "adjunction"
    assert data["passed"] is True
    assert "17*H" in data["outputs"]["canonical_class"]


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["desing", "--p", "3", "--out", str(target),
                 "--format", "json-like-structured"])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["scenario"] == "desing" and data["passed"]


def test_cli_normalform_with_point_translation():
    # f has a nondegenerate critical point at (1, 2); the CLI translates it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["normalform", "--p", "5",
                     "--poly", "x1^2 + 3*x1 + x2^2 + x2 + 2",
                     "--point", "1,2", "--r", "4"])
    assert code == 0, buf.getvalue()
    assert "result: PASS" in buf.getvalue()


def test_cli_isotriviality():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["isotriviality", "--p", "5"])
    assert code == 0
    assert "PASS" in buf.getvalue()


def test_cover_reports_completeness_at_degree_9():
    rep = run_scenario("cover", {"p": 3, "n": 3})
    assert rep.passed and rep.outputs["degree"] == 9
    completeness = rep.outputs["completeness"]
    assert sorted(completeness) == [0, 1]
    assert all("status" in chart for chart in completeness.values())


def test_cli_cover_scenario():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["cover", "--p", "3", "--N", "1", "--seed", "2"])
    assert code == 0
    assert "result: PASS" in buf.getvalue()


@pytest.mark.parametrize("argv, flag", [
    (["vojta-demo", "--M", "0"], "--M"),
    (["vojta-demo", "--M", "-3"], "--M"),
    (["vojta-demo", "--M", "ten"], "--M"),
    (["height", "--p", "4"], "--p"),
    (["cover", "--p", "4"], "--p"),
    (["desing", "--p", "9"], "--p"),
    (["height", "--p", "2"], "--p"),
    (["height", "--p", "three"], "--p"),
    (["normalform", "--r", "40"], "--r"),
    (["normalform", "--r", "0"], "--r"),
    (["height", "--p", "5", "--coords", "t^2+,1"], "--coords"),
    (["height", "--coords", "t++1,1"], "--coords"),
    (["normalform", "--poly", "+x1^2"], "--poly"),
    # checked at the scenario entry, not by the parser
    (["isotriviality", "--p", "3"], "--p"),
    (["height", "--m", "0"], "--m"),
    (["height", "--coords", "s+1,1"], "--coords"),
    (["normalform", "--point", "1"], "--point"),
    # counts below a scenario's minimum, rejected before any search
    (["normalform", "--n", "0"], "--n"),
    (["normalform", "--r", "2"], "--r"),
    (["desing", "--n", "0"], "--n"),
    (["desing", "--n", "1"], "--n"),
    (["cover", "--N", "0"], "--N"),
    (["cover", "--d", "0"], "--d"),
    (["cover", "--n", "0"], "--n"),
    (["adjunction", "--n", "0"], "--n"),
    (["adjunction", "--d", "0"], "--d"),
    (["adjunction", "--k", "-1"], "--k"),
    (["vojta-demo", "--n", "0"], "--n"),
    (["vojta-demo", "--d", "0"], "--d"),
    # normal_form's preconditions
    (["normalform", "--p", "5", "--point", "g^2,1"], "--point"),
    (["normalform", "--poly", "x1^3+x2^2"], "--poly"),
    (["northcott-demo", "--N", "-1"], "--N"),
    (["height", "--coords", "0,0"], "--coords"),
])
def test_cli_rejects_invalid_counts(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"charpgeom {argv[0]}: error: argument {flag}:")


def test_cli_rejects_an_extension_too_large_to_embed(capsys):
    # the form needs F_{65537^4}; the timeout only keeps a hang from stalling
    # the suite, it is not a speed gate.  The field is at fault, not a --poly
    # (none is given), so the error names --p/--m.
    src = os.path.dirname(os.path.dirname(charpgeom.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from charpgeom.cli import main; sys.exit(main(sys.argv[1:]))",
         "normalform", "--p", "65537", "--m", "2", "--r", "4", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "charpgeom normalform: error: argument --p/--m: extension of "
        "FF(65537^2) too large to embed by scanning"]

    # over the same field, a malformed explicit --poly is still its own fault
    with pytest.raises(SystemExit) as exc:
        main(["normalform", "--p", "65537", "--m", "2", "--r", "4",
              "--poly", "x1^2 +* x2^2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("charpgeom normalform: error: argument --poly:")


def test_scenario_entry_rejects_invalid_counts():
    with pytest.raises(ValueError, match="M >= 1"):
        run_scenario("vojta-demo", {"M": 0})
    # every bound is checked where the scenario starts, not by the parser
    for name, params, flag in [("adjunction", {"p": 9}, "--p"),
                               ("height", {"m": 0}, "--m"),
                               ("normalform", {"r": 40}, "--r")]:
        with pytest.raises(cli.InvalidInput, match=f"^argument {flag}:"):
            run_scenario(name, params)


def test_cli_accepts_signed_coordinates(capsys):
    # -t+1 = 4*t+1 and t-1 = t+4 over F_5
    assert main(["height", "--p", "5", "--coords=-t+1,t-1,1"]) == 0
    assert "point: (t + 4 : 4*t + 1 : 4)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["height", "--coords", "t^40000+1,t+1"],
    ["normalform", "--p", "5", "--poly", "x1^2+x2^2+x1^40000", "--r", "4"],
], ids=["height", "normalform"])
def test_cli_takes_exponents_above_the_packed_key_bound(argv, capsys):
    # both inputs carry an exponent no packed key holds: a UPoly coordinate
    # takes it, while a MultiPoly is refused as invalid input
    assert 40000 > monomials.MAX_DEGREE
    if argv[0] == "height":
        assert main(argv) == 0
        assert "result: PASS" in capsys.readouterr().out
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "charpgeom normalform: error: argument --poly: monomial degree 40000 "
        f"exceeds the packed-key bound MAX_DEGREE = {monomials.MAX_DEGREE}"]


class _Reads(dict):
    """A params dict that records every key a scenario looks up."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("name", sorted(cli._SCENARIOS))
def test_each_scenario_reads_exactly_its_declared_parameters(name):
    # a default run reads every key the declaration lists (seed too, for
    # the scenarios that draw at random) and no other
    run, keys = cli._SCENARIOS[name]
    params = _Reads(seed=0)
    outputs, assertions = run(params)
    assert all(a.passed for a in assertions)
    assert params.read == set(keys)
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("argv", [
    ["desing", "--p", "5", "--m", "2"],
    ["height", "--seed", "3"],
    ["isotriviality", "--n", "3"],
    ["normalform", "--poly="],
    ["normalform", "--point="],
])
def test_cli_rejects_flags_the_command_does_not_read(argv, capsys):
    # an empty --poly or --point is given, not absent: parsed, and refused
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_scenario_entry_refuses_parameters_it_does_not_read():
    with pytest.raises(ValueError, match="reads no parameter 'bogus'"):
        run_scenario("desing", {"p": 5, "bogus": 1})
    with pytest.raises(ValueError, match="reads no parameter 'm'"):
        run_scenario("desing", {"p": 5, "m": 2})
    with pytest.raises(ValueError, match="reads no parameter 'seed'"):
        run_scenario("cover", {"seed": 3})
    with pytest.raises(ValueError, match="draws nothing at random"):
        run_scenario("height", seed=3)
    assert run_scenario("height", seed=0).passed



@pytest.mark.parametrize("command,text", [
    ("desing", "number of variables of z^p = x1^2 + ... + xn^2"),
    ("normalform", "number of variables x1..xn"),
    ("cover", "twist exponent: the cover's section has degree n*d*p"),
], ids=["desing", "normalform", "cover"])
def test_each_command_describes_its_own_n(command, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"--n N {text}" in out
    assert "twist exponent, or number of variables" not in out
