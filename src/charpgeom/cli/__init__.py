"""Command-line driver: each construction as a named, reproducible scenario.

Every subcommand runs a scenario from the registry and emits a versioned
report, either human-readable text or a stable structured (JSON) form.  A
report consists of the scenario id, its parameters and seed, the computed
outputs, and a list of named assertions with pass/fail; the process exit
code is 0 exactly when every assertion passed, 1 when one failed, and 2 when
the arguments are rejected (one line on stderr, e.g. `--M 0`, `--p 4`,
`isotriviality --p 3` or `desing --m 2`).  Reports are byte-identical for
identical (params, seed): no timestamps, no unordered containers.

Subcommands: height, northcott-demo, cover, normalform, desing, adjunction,
isotriviality, vojta-demo.  `_SCENARIOS` declares the parameters each reads:
its command takes exactly those flags, and --out and --format; the parser
checks only that a number is an integer, and the scenario checks every
value where it starts.  A command runs only its scenario's module (see
`charpgeom`).
"""

import argparse
import json
import sys
from dataclasses import dataclass, is_dataclass
from fractions import Fraction

from ..algebra.finitefield import FF, TooLargeToEmbed, is_prime
from ..algebra.unipoly import UPoly, RatFunc
from ..algebra.multipoly import MultiPoly, det, parse_poly, parse_terms
from ..algebra.jets import MAX_ORDER
from .. import heights, covers, normalform, desing, picard

FORMAT_VERSION = "charpgeom-report/1"


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    scenario: str
    params: dict
    seed: int
    outputs: dict
    assertions: list
    format_version: str = FORMAT_VERSION

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)

    def to_structured(self):
        return {
            "format_version": self.format_version,
            "scenario": self.scenario,
            "params": _jsonify(self.params),
            "seed": self.seed,
            "outputs": _jsonify(self.outputs),
            "assertions": [
                {"name": a.name, "passed": a.passed, "detail": a.detail}
                for a in self.assertions],
            "passed": self.passed,
        }

    def to_text(self):
        lines = [f"scenario: {self.scenario}   [{self.format_version}]",
                 f"params: {_jsonify(self.params)}   seed: {self.seed}"]
        lines.append("outputs:")
        for key in self.outputs:
            lines.append(f"  {key}: {_fmt(_jsonify(self.outputs[key]))}")
        lines.append("assertions:")
        for a in self.assertions:
            mark = "PASS" if a.passed else "FAIL"
            detail = f"  ({a.detail})" if a.detail else ""
            lines.append(f"  [{mark}] {a.name}{detail}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(v):
    return json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)


def _jsonify(obj):
    """Deterministic JSON-able projection of report payloads."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonify(v) for k, v in vars(obj).items()
                if not k.startswith("_")}
    return repr(obj)


class InvalidInput(ValueError):
    """A scenario parameter the parser could not check; the CLI reports it
    like a parser error (exit 2, one line)."""


def _parsed(flag, parse, *args):
    """parse(*args), with a ValueError reported as invalid input for `flag`."""
    try:
        return parse(*args)
    except TooLargeToEmbed as exc:
        raise InvalidInput(f"argument --p/--m: {exc}") from None
    except ValueError as exc:
        raise InvalidInput(f"argument {flag}: {exc}") from None


def _count(params, key, default, least, scenario, most=None):
    """params[key] (or the default), rejected as invalid input outside
    least..most: the values the scenario is defined for."""
    value = params.get(key, default)
    if value < least or most is not None and value > most:
        bound = (f"{key} >= {least}" if most is None
                 else f"{least} <= {key} <= {most}")
        raise InvalidInput(f"argument --{key}: {scenario} needs {bound}, "
                           f"got {value}")
    return value


def _prime(params, default):
    """params["p"] (or the default), rejected as invalid input unless it is
    an odd prime."""
    p = params.get("p", default)
    if p == 2 or not is_prime(p):
        raise InvalidInput(f"argument --p: must be an odd prime, got {p}")
    return p


def _field(params, default_p, scenario):
    """F_{p^m} from params["p"] and params["m"] (default 1), each checked."""
    return FF(_prime(params, default_p), _count(params, "m", 1, 1, scenario))


def _parse_upoly(text, fld):
    """A UPoly in t, of any degree: no packed key holds its exponents."""
    coeffs = {}
    for (e,), c in parse_terms(text, fld, ["t"]):
        coeffs[e] = coeffs.get(e, fld.zero) + c
    return UPoly(fld, [coeffs.get(e, fld.zero)
                       for e in range(max(coeffs, default=-1) + 1)])


# -- scenarios ---------------------------------------------------------------------


def _scenario_height(params):
    fld = _field(params, 3, "height")
    coord_texts = params.get("coords", "t^2+1,t^2+4*t,1").split(",")
    raw = [_parsed("--coords", _parse_upoly, c.strip(), fld) for c in coord_texts]
    pt = _parsed("--coords", heights.normalize, fld, raw)
    h = heights.weil_height(pt)
    renorm = heights.normalize(fld, pt.coords)
    scaled = heights.normalize(fld, [c * UPoly.x(fld) for c in pt.coords])
    assertions = [
        Assertion("normalization is idempotent", renorm == pt),
        Assertion("height invariant under coordinate scaling",
                  heights.weil_height(scaled) == h),
    ]
    return {"point": repr(pt), "height": h}, assertions


def _scenario_example1(params):
    fld = _field(params, 3, "northcott-demo")
    n_dim = _count(params, "N", 2, 0, "northcott-demo")
    fam = heights.example1_constant_points(n_dim, fld)
    q = fld.order
    expected = (q ** (n_dim + 1) - 1) // (q - 1)
    density = fam.extras["density"]
    assertions = [
        Assertion("point count equals (q^(N+1)-1)/(q-1)",
                  len(fam.points) == expected, f"{len(fam.points)}"),
        Assertion("every height is exactly 0",
                  all(h == 0 for h in fam.heights)),
        Assertion("heights re-verify from coordinates", fam.verify()),
        Assertion(f"density certificate at degree {density.degree} is "
                  "full rank",
                  density.dense,
                  f"rank {density.rank} of {density.n_monomials}"),
    ]
    return {"count": len(fam.points), "max_height": max(fam.heights),
            "points": [{"point": repr(pt), "height": h,
                        "degree": disc.degree_over_K, "d_L": str(disc.d_L)}
                       for pt, h, disc in zip(fam.points, fam.heights,
                                              fam.discriminants)],
            "density": repr(density),
            "note": fam.extras["density_note"]}, assertions


def _scenario_example2(params):
    fld = _field(params, 7, "northcott-demo")
    t = UPoly.x(fld)
    one = UPoly.const(fld, 1)
    zero = UPoly(fld)
    maps = [(one, zero), (zero, one), (one, one),
            (one, t), (one, t * t), (one, t + 1)]
    rep = heights.example2_blowup_config(maps, fld)
    assertions = [
        Assertion("sampled fibers are PGL-inequivalent (non-isotriviality witness)",
                  rep.non_isotrivial_witness,
                  f"parameters {rep.parameters}"),
    ]
    return {"parameters": [repr(b) for b in rep.parameters],
            "pgl": repr(rep.pgl), "note": rep.note}, assertions


def _scenario_example3(params):
    fld = _field(params, 5, "northcott-demo")
    t = UPoly.x(fld)
    g = [RatFunc(t), RatFunc(UPoly(fld)), RatFunc(UPoly(fld)),
         RatFunc(UPoly.const(fld, 1))]          # g(x) = x^3 + t
    fam = heights.example3_bounded_degree(g, list(fld.elements()))
    recs = fam.extras["records"]
    quad = [r for r in recs if r.degree_over_K == 2]
    d_values = sorted({str(r.d_L) for r in quad})
    assertions = [
        Assertion(f"at least q = {fld.order} points produced",
                  len(recs) >= fld.order, f"{len(recs)}"),
        Assertion("every record has field degree <= 2",
                  all(r.degree_over_K <= 2 for r in recs)),
        Assertion("every height is bounded by the uniform constant",
                  all(r.height_exact <= r.height_bound for r in recs),
                  f"bound {fam.extras['height_bound']}"),
        Assertion("Hurwitz discriminant bound is constant on the family",
                  len(d_values) <= 1, f"values {d_values}"),
    ]
    return {"curve": "y^2 = x^3 + t",
            "records": [{"x0": repr(r.x0), "degree": r.degree_over_K,
                         "d_L": str(r.d_L), "height": str(r.height_exact),
                         "note": r.note} for r in recs],
            "height_bound": fam.extras["height_bound"]}, assertions


def _scenario_northcott(params):
    parts = [("example1", _scenario_example1),
             ("example2", _scenario_example2),
             ("example3", _scenario_example3)]
    outputs = {}
    assertions = []
    for name, fn in parts:
        outputs[name], asserts = fn(params)
        for a in asserts:
            assertions.append(Assertion(f"{name}: {a.name}", a.passed, a.detail))
    return outputs, assertions


def _scenario_cover(params):
    fld = _field(params, 3, "cover")
    p, seed = fld.p, params["seed"]
    d = _count(params, "d", 1, 1, "cover")
    n = _count(params, "n", 1, 1, "cover")
    n_dim = _count(params, "N", 1, 1, "cover")
    cover = next(covers.seeded_covers(fld, n_dim, d, n, p, seed))
    diff = covers.differential_of_section(cover)
    recs1 = covers.singular_points(cover, ext=1)
    recs2 = covers.singular_points(cover, ext=2)
    gen = covers.genericity_sample(n_dim, d, n, p, fld, trials=15, seed=seed)
    assertions = [
        Assertion("cocycle identities verified on all overlaps",
                  not covers.verify_cocycle(cover)),
        Assertion("chart differentials glue (d(f_i) = g^p d(f_j))",
                  True, f"{diff['overlaps_checked']} overlaps checked"),
        Assertion("singular points tagged by exact Hessian determinants",
                  all((r.hessian_det == r.fld.zero) == r.degenerate
                      for r in recs1 + recs2)),
        Assertion("genericity sample completed with exact verdicts",
                  gen.unknown == 0,
                  f"fraction {gen.good}/{gen.trials}"),
    ]
    return {
        "form": cover.params["form"].format(
            [f"X{i}" for i in range(n_dim + 1)]),
        "degree": n * d * p,
        "singular_base": [{"chart": r.chart_index,
                           "point": [repr(c) for c in r.point],
                           "degenerate": r.degenerate} for r in recs1],
        "singular_ext_count": len(recs2),
        "completeness": covers.gradient_completeness(cover, recs1),
        "genericity_fraction": f"{gen.good}/{gen.trials}",
    }, assertions


def _scenario_normalform(params):
    fld = _field(params, 3, "normalform")
    r = _count(params, "r", 5, 3, "normalform", MAX_ORDER)
    nvars = _count(params, "n", 2, 1, "normalform")
    poly_text = params.get("poly")
    point_text = params.get("point")
    names = [f"x{i+1}" for i in range(nvars)]
    if poly_text is not None:
        f = _parsed("--poly", parse_poly, poly_text, fld, names)
    else:
        from random import Random
        rng = Random(params["seed"])
        f = _random_nondegenerate(fld, nvars, r, rng)
    if point_text is not None:
        shift = [_parsed("--point", fld.parse_element, c)
                 for c in point_text.split(",")]
        if len(shift) != nvars:
            raise InvalidInput(f"argument --point: needs {nvars} coordinates, "
                               f"got {len(shift)}")
        subs = [MultiPoly.var(fld, nvars, i) + MultiPoly.const(fld, nvars, shift[i])
                for i in range(nvars)]
        f = f.subs(subs)
    # normal_form's preconditions fail as invalid input of the flag that set f
    res = _parsed("--poly" if point_text is None else "--point",
                  normalform.normal_form, f, r)
    work = f if res.extension_degree == 1 else f.map_coefficients(
        res.fld, res.embed)
    assertions = [
        Assertion("certificate jet equals sum of squares target",
                  res.certificate == res.target),
        Assertion("independent recomposition agrees", res.verify(work)),
        Assertion("linear part of the composed change is the diagonalization",
                  res.change.linear_part() == res.change.steps[0].matrix),
    ]
    step_list = [s.describe() for s in res.change.steps]
    return {
        "input": f.format(names),
        "a0": repr(res.a0),
        "extension_degree": res.extension_degree,
        "steps": step_list,
        "certificate": res.certificate.to_poly().format(names),
    }, assertions


def _random_nondegenerate(fld, nvars, r, rng):
    while True:
        mat = [[fld.from_index(rng.randrange(fld.order)) for _ in range(nvars)]
               for _ in range(nvars)]
        for i in range(nvars):
            for j in range(i):
                mat[i][j] = mat[j][i]
        if det(mat, fld):
            break
    half = fld.elem(2).inverse()
    f = MultiPoly(fld, nvars)
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 2
        f = f + MultiPoly.monomial(fld, nvars, tuple(e), mat[i][i] * half)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            e = [0] * nvars
            e[i] = 1
            e[j] = 1
            f = f + MultiPoly.monomial(fld, nvars, tuple(e), mat[i][j])
    for _ in range(rng.randrange(3, 10)):
        exps = tuple(rng.randrange(0, r) for _ in range(nvars))
        if 2 < sum(exps) < r:
            f = f + MultiPoly.monomial(fld, nvars, exps,
                                       rng.randrange(1, fld.p))
    return f


def _scenario_desing(params):
    p = _prime(params, 5)
    nv = _count(params, "n", 2, 2, "desing")
    rep = desing.desingularize(p, nv)
    ledger = desing.pullback_ledger(rep)
    overlap = [desing.chart_overlap_consistency(charts) for charts in rep.steps]
    expected = (p - 1) // 2
    assertions = [
        Assertion(f"exactly (p-1)/2 = {expected} blow-ups",
                  rep.num_blowups == expected, f"{rep.num_blowups}"),
        Assertion("intermediate z-chart equations follow z^(p-2k) = sum w^2",
                  all(charts[0].strict.degree_in(0) == p - 2 * (k + 1)
                      for k, charts in enumerate(rep.steps))),
        Assertion("every exceptional multiplicity is exactly 2",
                  all(m == 2 for m in rep.multiplicities)),
        Assertion("all terminal charts carry re-verified smoothness certificates",
                  all(ch.smooth_certificate.verify()
                      for charts in rep.steps for ch in charts
                      if ch.certificate_status == "smooth")),
        Assertion("total-transform factorization re-verified at every step",
                  all(c["ok"] for c in ledger["per_chart"])),
        Assertion("chart overlaps agree after coordinate change",
                  all(c["ok"] for step in overlap for c in step)),
    ]
    chart_tree = []
    for k, charts in enumerate(rep.steps):
        chart_tree.append({
            "step": k,
            "charts": [{"label": ch.label,
                        "equation": ch.strict.format(ch.names),
                        "multiplicity": ch.multiplicity,
                        "status": ch.certificate_status} for ch in charts],
        })
    return {"blowups": rep.num_blowups,
            "final_equation": rep.final_equation.format(rep.final_names),
            "chart_tree": chart_tree,
            "ledger": ledger["identity"]}, assertions


def _scenario_adjunction(params):
    p = _prime(params, 3)
    d = _count(params, "d", 1, 1, "adjunction")
    n = _count(params, "n", 5, 1, "adjunction")
    k = _count(params, "k", 4, 0, "adjunction")
    cls = picard.adjunction_class(p, d, n, k)
    cover_cls = picard.class_of_cover(p, d, n, k)
    ambient = picard.canonical_of_ambient(p, d, n, k)
    threshold, crit = picard.general_type_threshold(p, d)
    grid_ok = True
    for pp in (3, 5):
        for dd in (1, 2):
            for nn in range(1, 6):
                for kk in range(5):
                    c = picard.adjunction_class(pp, dd, nn, kk)
                    if c.exc != (0,) * kk:
                        grid_ok = False
    assertions = [
        Assertion("two adjunction routes agree on the sample grid", grid_ok),
        Assertion("exceptional coefficient is 0 (N = 2)",
                  cls.exc == (0,) * k),
        Assertion("general-type criterion satisfied at the threshold",
                  picard.adjunction_class(p, d, threshold).xi >= 1
                  and picard.adjunction_class(p, d, threshold).h >= 1,
                  f"n = {threshold}"),
    ]
    return {"canonical_class": repr(cls),
            "cover_class": repr(cover_cls),
            "ambient_canonical": repr(ambient),
            "general_type_threshold": threshold,
            "criterion": crit["criterion"]}, assertions


def _scenario_isotriviality(params):
    fld = _field(params, 5, "isotriviality")
    p = fld.p
    if p < 5:
        raise InvalidInput(f"argument --p: isotriviality needs p >= 5 for "
                           f"j-invariants, got {p}")
    t = UPoly.x(fld)
    j0, iso0 = picard.j_invariant(RatFunc(UPoly(fld)), RatFunc(t))
    j1, iso1 = picard.j_invariant(RatFunc(t), RatFunc(UPoly.const(fld, 1)))
    cfg_a = picard.PointConfig(fld, [(0, 1), (1, 1), (1, 0), (2, 1)])
    cfg_b = picard.PointConfig(fld, [(0, 1), (1, 1), (1, 0), (3, 1)])
    mismatch = picard.pgl_equivalence(cfg_a, cfg_b)
    same = picard.pgl_equivalence(cfg_a, cfg_a)
    assertions = [
        Assertion("y^2 z = x^3 + t z^3 has constant j = 0 (isotrivial)",
                  j0.is_zero() and iso0),
        Assertion("a = t, b = 1 gives non-constant j (non-isotrivial)",
                  not iso1, f"j = {j1.format()}"),
        Assertion("cross-ratio mismatch detected as inequivalence",
                  not mismatch.equivalent and mismatch.mismatch_index == 3),
        Assertion("identical configurations are equivalent", same.equivalent),
    ]
    return {"j_for_b_equals_t": j0.format(), "j_for_a_equals_t": j1.format(),
            "pgl_mismatch_index": mismatch.mismatch_index}, assertions


def _scenario_vojta(params):
    fld = _field(params, 3, "vojta-demo")
    p = fld.p
    d = _count(params, "d", 1, 1, "vojta-demo")
    n = _count(params, "n", 5, 1, "vojta-demo")
    m_max = _count(params, "M", 10, 1, "vojta-demo")
    bundle = covers.make_vojta_bundle(p, d, n, fld,
                                      seed=params.get("bundle_seed", 1))
    rep = heights.vojta_violation_demo(bundle, m_max, seed=params["seed"])
    hs = [e.canonical_height for e in rep.entries]
    pairs_present = {(v.A, v.c) for v in rep.violations}
    assertions = [
        Assertion("discriminant term is literally constant -2",
                  all(e.discriminant == Fraction(-2) for e in rep.entries)),
        Assertion("canonical heights strictly increase with section degree",
                  all(hs[i] < hs[i + 1] for i in range(len(hs) - 1))),
        Assertion("a violating point exists for every (A, c) requested",
                  set(heights.VIOLATED_BOUNDS) <= pairs_present),
        Assertion("measured height slope equals the lattice prediction",
                  rep.verify(), f"slope {rep.slope_predicted}"),
    ]
    table = [{"m": e.m, "base_height": e.base_height,
              "xi_degree": e.xi_degree, "canonical_height": e.canonical_height,
              "d": str(e.discriminant)} for e in rep.entries]
    return {"family": table,
            "violations": [{"A": v.A, "c": v.c, "first_violating_m": v.m,
                            "height": v.height, "bound": str(v.bound)}
                           for v in rep.violations],
            "canonical_class": repr(rep.canonical_class),
            "avoidance_set_size": rep.avoidance_set_size}, assertions


# Each scenario and the parameters it reads: its command takes exactly these
# flags (and --out, --format), and `run_scenario` refuses any other
# parameter.  "seed" is for the scenarios that draw at random.
_SCENARIOS = {
    "height": (_scenario_height, ("p", "m", "coords")),
    "northcott-demo": (_scenario_northcott, ("p", "m", "N")),
    "cover": (_scenario_cover, ("p", "m", "d", "n", "N", "seed")),
    "normalform": (_scenario_normalform,
                   ("p", "m", "n", "r", "poly", "point", "seed")),
    "desing": (_scenario_desing, ("p", "n")),
    "adjunction": (_scenario_adjunction, ("p", "d", "n", "k")),
    "isotriviality": (_scenario_isotriviality, ("p", "m")),
    "vojta-demo": (_scenario_vojta,
                   ("p", "m", "d", "n", "M", "bundle_seed", "seed")),
}


def run_scenario(name, params=None, seed=0):
    """Run a registered scenario; deterministic given (params, seed).

    ValueError for a parameter the scenario does not read, and for a
    nonzero seed of a scenario that draws nothing at random."""
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    run, keys = _SCENARIOS[name]
    params = dict(params or {})
    settable = [key for key in keys if key != "seed"]
    for key in params:
        if key not in settable:
            raise ValueError(f"scenario {name!r} reads no parameter {key!r}; "
                             f"it reads {', '.join(settable)}")
    if seed and "seed" not in keys:
        raise ValueError(f"scenario {name!r} draws nothing at random, "
                         f"got seed {seed}")
    outputs, assertions = run(dict(params, seed=seed))
    return ScenarioReport(scenario=name, params=params, seed=seed,
                          outputs=outputs, assertions=assertions)


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Invalid input exits with 2 and a one-line message, without the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


# parameter -> (flag type, help), the help a dict by command for a flag
# whose meaning differs between commands; the scenario entry checks each value
_FLAGS = {
    "p": (int, "characteristic, an odd prime"),
    "m": (int, "field extension degree (q = p^m)"),
    "n": (int, {**dict.fromkeys(("cover", "adjunction", "vojta-demo"),
                                "twist exponent: the cover's section has "
                                "degree n*d*p"),
                "normalform": "number of variables x1..xn",
                "desing": "number of variables of z^p = x1^2 + ... + xn^2"}),
    "d": (int, "polarization degree"),
    "N": (int, "dimension of the projective space P^N"),
    "r": (int, "truncation order"),
    "k": (int, "number of blow-ups"),
    "M": (int, "maximum section degree"),
    "coords": (str, "comma-separated coordinate polynomials in t"),
    "poly": (str, "polynomial in x1..xn"),
    "point": (str, "critical point, comma-separated coordinates"),
    "bundle_seed": (int, "seed of the bundle search"),
    "seed": (int, "seed of the random choices"),
}


def _build_parser():
    parser = _Parser(
        prog="charpgeom",
        description="exact positive-characteristic geometry scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _SCENARIOS.items():
        command = sub.add_parser(name)
        for key in keys:
            kind, text = _FLAGS[key]
            if isinstance(text, dict):
                text = text[name]
            command.add_argument("--" + key.replace("_", "-"), type=kind,
                                 help=text)
        command.add_argument("--out", help="write the report to this path")
        command.add_argument("--format", dest="fmt", default="text",
                             choices=["text", "json-like-structured"])
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {key: getattr(args, key) for key in _SCENARIOS[args.command][1]
              if getattr(args, key) is not None}
    seed = params.pop("seed", 0)
    try:
        report = run_scenario(args.command, params, seed=seed)
    except InvalidInput as exc:
        parser.exit(2, f"charpgeom {args.command}: error: {exc}\n")
    if args.fmt == "json-like-structured":
        text = json.dumps(report.to_structured(), sort_keys=True, indent=2) + "\n"
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1
