"""Golden reports: scenario output must stay byte-identical.

Each file under tests/golden/ is the `json-like-structured` report of one
CLI invocation at fixed (params, seed).  A change that alters a report on
purpose regenerates its golden file with the command in GOLDEN and says so
in CHANGES.md.
"""

import os

import pytest

from charpgeom.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# golden file -> CLI arguments (without --format/--out)
GOLDEN = {
    "vojta-demo.json": ["vojta-demo", "--p", "3", "--d", "1", "--n", "5",
                        "--M", "10", "--seed", "0"],
    "height.json": ["height"],
    "northcott-demo.json": ["northcott-demo", "--p", "3"],
    "cover.json": ["cover", "--p", "3", "--N", "1", "--d", "1", "--n", "1",
                   "--seed", "2"],
    "normalform.json": ["normalform", "--p", "5", "--poly",
                        "x1^2 + 3*x1 + x2^2 + x2 + 2", "--point", "1,2",
                        "--r", "4"],
    "desing.json": ["desing", "--p", "13", "--n", "3"],
    "adjunction.json": ["adjunction", "--p", "3", "--d", "1", "--n", "5",
                        "--k", "4"],
    "isotriviality.json": ["isotriviality", "--p", "5"],
    # over F_9: UPoly and the sweeps on Zech-log codes
    "vojta-demo-m2.json": ["vojta-demo", "--m", "2", "--M", "4"],
    # the bundle search's choice of form at p = 5 and p = 7
    "vojta-demo-p5.json": ["vojta-demo", "--p", "5", "--d", "1", "--n", "3",
                           "--M", "6"],
    "vojta-demo-p7.json": ["vojta-demo", "--p", "7", "--d", "1", "--n", "2",
                           "--M", "6"],
    "northcott-demo-m2.json": ["northcott-demo", "--p", "3", "--m", "2"],
    # seeded random inputs with correction steps, over F_25 and over F_7
    "normalform-p5-r6.json": ["normalform", "--p", "5", "--r", "6",
                              "--seed", "0"],
    "normalform-p7-r7.json": ["normalform", "--p", "7", "--r", "7",
                              "--seed", "1"],
    # over F_9, coordinates with the common factor t + g: normalizing them
    # divides by a nonconstant gcd on Zech-log codes
    "height-m2.json": ["height", "--p", "3", "--m", "2", "--coords",
                       "t^2 + g^7*t + g^1,t^3 + g^1*t^2 + g^3*t + 2,"
                       "t^4 + g^1*t^3 + g^5*t^2 + g^1*t + g^1"],
    # degree 9 on P^2 over F_3: closure certificates re-checked on
    # Kronecker ints, three charts with an incomplete search
    "cover-n3.json": ["cover", "--p", "3", "--N", "2", "--d", "1", "--n", "3"],
    # degree 12 on P^2 and degree 6 on P^3 over F_3: closure verdicts and
    # solution counts from Groebner bases at working sizes
    "cover-n4.json": ["cover", "--p", "3", "--N", "2", "--d", "1", "--n", "4"],
    "cover-p3.json": ["cover", "--p", "3", "--N", "3", "--d", "1", "--n", "2"],
    # over F_9: closure certificates re-checked by term-by-term expansion
    "cover-m2.json": ["cover", "--p", "3", "--m", "2", "--seed", "1"],
    # over F_9: an input with a Zech-coded coefficient (g^3), printed by
    # MultiPoly.format
    "normalform-m2.json": ["normalform", "--p", "3", "--m", "2", "--r", "5",
                           "--seed", "2"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    code = main(GOLDEN[name] + ["--format", "json-like-structured",
                                "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    assert out.read_bytes() == want
