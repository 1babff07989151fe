"""Command line front end: exact machine-readable reports from every engine.

Exit codes, uniformly: 0 success, 1 bad input, 2 a broken internal
invariant (assertion or integrality failure), 3 a result left undecided
or unresolved within the configured caps.

All numeric output is exact; rationals are serialized as "p/q" strings.
Reports are deterministic for a fixed configuration and independent of
the worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .acceptance import SEED, exit_code, format_report, run_claims
from .census import HYPERBOLIC, census, census_records, matrices_in_class
from .commutant import commutant_basis, commutant_lattice, power_basis_index
from .forms import MONOMIALS, q2, q3
from .frobenius import LABELS, classify_fraction, decide_thm2, decide_thm3, hunt
from .intmat import format_matrix, matrix_norm, parse_matrix
from .parallel import parallel_map_chunked
from .sail import (RADIUS_LADDER, CoverageError, compute_sail, dirichlet_generators,
                   eigen_cone, sail_svg, torus_invariants)
from .solver import Caps, decide_product, decide_quadratic

DEFAULT_RADIUS = 16
DEFAULT_HUNT_COUNT = 40


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one invocation; every field is already validated."""

    subcommand: str
    matrix: str = None
    dim: int = 3
    norm: int = None
    emit: str = None
    factor: str = "product"
    box: int = None
    modcap: int = None
    radius: int = DEFAULT_RADIUS
    svg: str = None
    json_path: str = None
    jsonl: str = None
    max_norm: int = None
    count: int = DEFAULT_HUNT_COUNT
    seed: str = SEED
    workers: int = 1


def _dump(document, path=None):
    text = json.dumps(document, indent=2, default=str)
    if path:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parsed_matrix(config):
    if not config.matrix:
        raise ValueError("this subcommand needs --matrix \"r1c1,r1c2,...;r2c1,...\"")
    return parse_matrix(config.matrix)


def _caps(config):
    overrides = {"box": config.box, "modulus_cap": config.modcap}
    return Caps(**{k: v for k, v in overrides.items() if v is not None})


def _run_census(config):
    if config.emit == "jsonl":
        for m, tag in census_records(config.dim, config.norm):
            print(json.dumps({"matrix": format_matrix(m),
                              "norm": matrix_norm(m), "class": tag}))
        return 0
    rep = census(config.norm, dim=config.dim, cap=config.norm)
    print("norm,count_M,count_H")
    print("%d,%d,%d" % (rep.norm, rep.count_m, rep.count_h))
    return 0


def _run_commutant(config):
    m = _parsed_matrix(config)
    if m.dim != 3:
        raise ValueError("the commutant report is a 3x3 notion; got %dx%d"
                         % (m.dim, m.dim))
    lattice = commutant_lattice(m)
    basis = commutant_basis(m)
    _dump({
        "matrix": format_matrix(m),
        "lattice_basis": [format_matrix(x) for x in lattice],
        "basis": {"e": format_matrix(basis.e), "a": format_matrix(basis.a),
                  "b": format_matrix(basis.b)},
        "alpha": str(basis.alpha),
        "beta": str(basis.beta),
        "gamma": str(basis.gamma),
        "power_basis_index": power_basis_index(m, lattice),
    })
    return 0


def _run_forms(config):
    m = _parsed_matrix(config)
    if m.dim == 2:
        qf = q2(m)
        _dump({"matrix": format_matrix(m),
               "binary_quadratic": {"coefficients": list(qf.as_tuple()),
                                    "discriminant": qf.discriminant()}})
        return 0
    pf = q3(m)
    document = {"matrix": format_matrix(m)}
    if config.factor in ("mn", "product"):
        document["binary_cubic"] = {
            "coefficients": list(pf.cubic_mn.as_tuple()),
            "primitive": list(pf.mn_primitive),
            "content": pf.mn_content,
        }
    if config.factor in ("xyz", "product"):
        document["ternary_cubic"] = {
            "monomials": list(MONOMIALS),
            "coefficients": list(pf.cubic_xyz.coeffs),
            "primitive": list(pf.xyz_primitive),
            "content": pf.xyz_content,
        }
    if config.factor == "product":
        document["content"] = pf.content
    _dump(document)
    return 0


def _solvability_document(sol):
    document = asdict(sol)
    if document.get("witness") is not None:
        document["witness"] = list(document["witness"])
    cert = document.get("certificate")
    if cert is not None:
        cert["residues"] = list(cert["residues"])
        cert["leading"] = list(cert["leading"])
    return document


def _run_solve(config):
    m = _parsed_matrix(config)
    if m.dim == 2:
        sol = decide_quadratic(q2(m))
    else:
        sol = decide_product(q3(m), _caps(config))
    document = {"matrix": format_matrix(m), "solvability": _solvability_document(sol)}
    _dump(document)
    return 3 if sol.verdict == "unknown" else 0


def _run_frobenius(config):
    m = _parsed_matrix(config)
    if m.dim == 2:
        verdict = decide_thm2(m)
    else:
        verdict = decide_thm3(m, caps=_caps(config))
    document = {
        "matrix": format_matrix(m),
        "norm": matrix_norm(m),
        "status": verdict.status,
        "solvability": _solvability_document(verdict.solvability),
    }
    if verdict.conjugator is not None:
        document["conjugator"] = format_matrix(verdict.conjugator)
    _dump(document)
    return 3 if verdict.status == "undecided" else 0


def _label_chunk(matrices):
    return [(m, classify_fraction(m)) for m in matrices]


def _run_classify(config):
    matrices = matrices_in_class(3, config.norm, (HYPERBOLIC,))
    pairs = parallel_map_chunked(_label_chunk, matrices, workers=config.workers,
                                 chunk_size=64)
    counts = dict.fromkeys(LABELS, 0)
    for _, label in pairs:
        counts[label] += 1
    if config.jsonl:
        with open(config.jsonl, "w") as handle:
            for m, label in pairs:
                handle.write(json.dumps({
                    "matrix": format_matrix(m),
                    "class": label}) + "\n")
    print("class,count")
    for label in LABELS:
        print("%s,%d" % (label, counts[label]))
    return 3 if counts["unresolved"] else 0


def _run_sail(config):
    m = _parsed_matrix(config)
    cone = eigen_cone(m)
    group = dirichlet_generators(cone)
    complex_ = compute_sail(cone, config.radius)
    invariant = None
    invariant_error = None
    ladder = (config.radius,) + tuple(r for r in RADIUS_LADDER if r > config.radius)
    for radius in ladder:
        try:
            sail = complex_ if radius == config.radius else compute_sail(cone, radius)
            invariant = torus_invariants(sail, group)
            break
        except CoverageError as exc:
            invariant_error = str(exc)
    document = {
        "matrix": format_matrix(m),
        "radius": complex_.radius,
        "vertices": [list(v) for v in complex_.vertices],
        "edges": [[list(a), list(b)] for a, b in complex_.edges],
        "faces": [{"normal": list(f.normal), "offset": f.offset,
                   "area2": f.area2, "vertices": [list(v) for v in f.vertices]}
                  for f in complex_.faces],
        "group_certified": group.certified,
    }
    if invariant is not None:
        document["invariant"] = asdict(invariant)
        document["orbits"] = {"vertices": invariant.vertex_orbits,
                              "edges": invariant.edge_orbits,
                              "faces": invariant.face_orbits}
    else:
        document["invariant"] = None
        document["invariant_error"] = invariant_error
    _dump(document, config.json_path)
    if config.svg:
        if not complex_.faces:
            print("no certified faces at radius %d; increase the radius to "
                  "draw an SVG" % complex_.radius, file=sys.stderr)
            return 3
        with open(config.svg, "w") as handle:
            handle.write(sail_svg(complex_, group) + "\n")
    return 0 if invariant is not None else 3


def _run_hunt(config):
    if config.max_norm is None or config.max_norm < 7:
        raise ValueError("--max-norm must be at least 7: every smaller norm "
                         "is already decided by the exhaustive sweep")
    statuses = {"frobenius": 0, "non_frobenius": 0, "undecided": 0}
    for n in range(7, config.max_norm + 1):
        for record in hunt(n, config.count, seed="%s:%d" % (config.seed, n),
                           workers=config.workers):
            statuses[record["status"]] += 1
            print(json.dumps(record))
    print("hunted %d samples per norm 7..%d: %d frobenius, %d non_frobenius, "
          "%d undecided" % (config.count, config.max_norm,
                            statuses["frobenius"], statuses["non_frobenius"],
                            statuses["undecided"]), file=sys.stderr)
    return 3 if statuses["undecided"] else 0


def _run_repro(config):
    results = run_claims(workers=config.workers, caps=_caps(config),
                         seed=config.seed)
    print(format_report(results, timings=True))
    return exit_code(results)


_HANDLERS = {
    "census": _run_census,
    "commutant": _run_commutant,
    "forms": _run_forms,
    "solve": _run_solve,
    "frobenius": _run_frobenius,
    "classify": _run_classify,
    "sail": _run_sail,
    "hunt": _run_hunt,
    "repro": _run_repro,
}


def run(config):
    """Dispatch one validated configuration; returns the exit code."""
    if config.workers < 1:
        raise ValueError("--workers must be at least 1")
    for cap in (config.box, config.modcap, config.norm, config.radius):
        if cap is not None and cap < 0:
            raise ValueError("caps and sizes must be nonnegative")
    return _HANDLERS[config.subcommand](config)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cf3",
        description="Exact Frobenius-type decisions, censuses, and sail "
                    "invariants for small integer matrices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (results never depend on this)")
        return p

    p = add("census", "count irreducible and hyperbolic matrices at one norm")
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--emit", choices=("jsonl",),
                   help="stream one JSON record per matrix instead of the CSV summary")

    p = add("commutant", "canonical commutant basis (E, A, B) of a 3x3 matrix")
    p.add_argument("--matrix", required=True)

    p = add("forms", "the binary and ternary cubic factors attached to a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--factor", choices=("mn", "xyz", "product"), default="product")

    p = add("solve", "decide whether the attached form attains +1 or -1")
    p.add_argument("--matrix", required=True)
    p.add_argument("--box", type=int, help="3x3 witness search box override")
    p.add_argument("--modcap", type=int, help="3x3 obstruction modulus cap override")

    p = add("frobenius", "decide the Frobenius type of one matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--box", type=int, help="3x3 witness search box override")
    p.add_argument("--modcap", type=int, help="3x3 obstruction modulus cap override")

    p = add("classify", "classify all hyperbolic matrices at one norm")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--jsonl", help="also write one JSON record per matrix here")

    p = add("sail", "sail faces and torus invariants of a hyperbolic matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--svg", help="write the quotient-face diagram here")
    p.add_argument("--json", dest="json_path", help="write the JSON report here")

    p = add("hunt", "sample and decide matrices at norms beyond the sweep")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--count", type=int, default=DEFAULT_HUNT_COUNT,
                   help="samples per norm")
    p.add_argument("--seed", default=SEED)

    p = add("repro", "re-derive every headline claim and report pass/fail")
    p.add_argument("--box-bound", dest="box", type=int,
                   help="witness search bound override (0 disables searching)")
    p.add_argument("--modulus-cap", dest="modcap", type=int,
                   help="obstruction modulus cap override (0 disables it)")
    p.add_argument("--seed", default=SEED)
    return parser


def _config_from_args(args):
    fields = {f: getattr(args, f) for f in RunConfig.__dataclass_fields__
              if hasattr(args, f)}
    return RunConfig(**fields)


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code else 0
    try:
        return run(_config_from_args(args))
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CoverageError as exc:
        print("undecided: %s" % exc, file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError, RuntimeError) as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
