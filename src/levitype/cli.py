"""Command line front end.

Subcommands: levi, classify, type, scan, validate, catalog.  Input surfaces
and structures are given in the expression language; reports come out either
as readable text or as one self-describing JSON tree per invocation.  Exit
codes: 0 success, 2 expression or usage errors, 3 invalid geometry, 4 cap
overflow.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace

from . import __version__, engine, levi
from .disks import DiskJet
from .errors import CapError, GeometryError, ParseError
from .geometry import (ACStructure, Hypersurface, perturbed_structure,
                       project_point_to_surface, recenter)
from .parser import parse_expression, series_to_expression
from .rational import Q


@dataclass(frozen=True)
class ProblemSpec:
    """One fully parsed invocation: geometry plus search parameters.

    cap is the truncation order K carried by phi; the staged search needs
    k_max + 2 <= cap so the deepest stratum it inspects is still exact.
    """
    n: int
    phi_expression: str
    j_specification: object  # "standard" | ("perturbed", seed) | ("matrix", rows)
    point: tuple
    cap: int
    k_max: int
    strategy: object
    command: str
    points: tuple = ()  # scan only: every requested base point

    def __post_init__(self):
        if self.command in ("type", "scan", "validate") \
                and self.k_max + 2 > self.cap:
            raise CapError(
                f"cap {self.cap} too small: need k_max + 2 = {self.k_max + 2}")


def _rational(text: str, what: str):
    """An integer p or a fraction p/q, or a ParseError naming what."""
    try:
        return Q(*map(int, text.split("/", 1)))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {what} {text!r}") from None


def _parse_point(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 * n:
        raise ParseError(f"point needs {2 * n} coordinates, got {len(parts)}")
    return tuple(_rational(p, "rational coordinate") for p in parts)


def _parse_strategy(text: str, n: int):
    if text == "exact":
        return "exact_staged"
    if text.startswith("grid:"):
        s = _rational(text[len("grid:"):], "grid step")
        try:
            engine.grid_candidate_count(2 * (n - 1), s)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        return ("grid", s)
    if text.startswith("dirs:"):
        path = text[len("dirs:"):]
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ParseError(f"cannot read direction file: {exc}") from None
        dirs = []
        for line in lines:
            line = line.split("#")[0].strip()
            if line:
                dirs.append(_parse_point(line, n))
        if not dirs:
            raise ParseError("direction file holds no directions")
        return ("directions", dirs)
    raise ParseError(f"unknown strategy {text!r}")


def _build_structure(spec: ProblemSpec) -> ACStructure:
    kind = spec.j_specification
    if kind == "standard":
        return ACStructure.standard(spec.n, spec.cap)
    if kind[0] == "perturbed":
        return perturbed_structure(spec.n, spec.cap, kind[1])
    rows = kind[1]
    d = 2 * spec.n
    if not (isinstance(rows, list) and len(rows) == d
            and all(isinstance(r, list) and len(r) == d
                    and all(isinstance(e, str) for e in r) for r in rows)):
        raise ParseError(f"J matrix must be a {d}x{d} list of expression "
                         f"strings")
    # each distinct string is parsed once, in row-major order of first
    # sight, so the first ParseError is that of the row-major scan
    parsed = {}
    for row in rows:
        for e in row:
            if e not in parsed:
                parsed[e] = parse_expression(e, spec.n, cap=spec.cap)
    return ACStructure(spec.n, [[parsed[e] for e in row] for row in rows])


def build_problem(spec: ProblemSpec):
    phi = parse_expression(spec.phi_expression, spec.n, cap=spec.cap)
    m = Hypersurface(spec.n, phi)
    j = _build_structure(spec)
    return m, j


# ---------------------------------------------------------------------------
# serialization


def _series_doc(s):
    return {"cap": s.cap, "expression": series_to_expression(s)}


def _disk_doc(u: DiskJet):
    return {
        "n": u.n,
        "cap": u.components[0].cap,
        "components": [_series_doc(c) for c in u.components],
    }


def _type_doc(rep: engine.TypeReport):
    return {
        "point": [str(c) for c in rep.point],
        "lower_bound": rep.lower_bound,
        "certified_exact": rep.certified_exact,
        "cap_reached": rep.cap_reached,
        "witness_disk": _disk_doc(rep.witness_disk),
        "witness_field_jet": rep.witness_field_jet.to_dict(),
        "obstruction": rep.obstruction,
    }


def _spec_parameters(spec: ProblemSpec):
    jspec = spec.j_specification
    if jspec == "standard":
        jdesc = "standard"
    elif jspec[0] == "perturbed":
        jdesc = f"perturbed(seed={jspec[1]})"
    else:
        jdesc = {"matrix": jspec[1]}
    strat = spec.strategy
    if isinstance(strat, tuple):
        strat = (f"grid:{strat[1]}" if strat[0] == "grid"
                 else "dirs:" + ";".join(",".join(str(c) for c in d)
                                         for d in strat[1]))
    params = {
        "n": spec.n,
        "phi": spec.phi_expression,
        "J": jdesc,
        "point": [str(c) for c in spec.point],
        "cap": spec.cap,
        "k_max": spec.k_max,
        "strategy": strat,
    }
    if spec.command == "scan":
        params["point"] = [[str(c) for c in pt] for pt in spec.points]
    return params


def _document(spec: ProblemSpec, result: dict) -> dict:
    return {
        "tool": "levitype",
        "version": __version__,
        "command": spec.command,
        "parameters": _spec_parameters(spec),
        "result": result,
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_levi(spec, m, j):
    mat = levi.hermitian_levi_matrix(m, j)
    cls = mat.classify()
    basis = [[str(c) for c in b] for b in mat.basis_at_zero]
    entries = [[[str(e.re), str(e.im)] for e in row] for row in mat.entries]
    return {
        "basis_at_zero": basis,
        "polar_matrix": entries,
        "signature": {"positive": cls.positive, "negative": cls.negative,
                      "zero": cls.zero},
        "classification": cls.label,
    }


def _cmd_classify(spec, m, j):
    return asdict(levi.classify_point(m, j))


def _cmd_type(spec, m, j):
    rep = engine.scan_type(m, j, [spec.point], spec.k_max,
                           strategy=spec.strategy)[0]
    return _type_doc(rep)


def _cmd_scan(spec, m, j, points):
    reps = engine.scan_type(m, j, points, spec.k_max, strategy=spec.strategy)
    return {"reports": [_type_doc(r) for r in reps]}


def _cmd_validate(spec, m, j, point):
    rep = engine.type_search(m, j, spec.k_max, strategy=spec.strategy)
    rec = engine.cross_validate(m, j, rep)
    return {"report": _type_doc(replace(rep, point=tuple(point))),
            "validation": asdict(rec)}


CATALOG = (
    ("sphere", 2, "2*x2 + abs2(z1)", 4, 8),
    ("circular quartic", 2, "2*x2 + abs2(z1)^2", 6, 10),
    ("circular sextic", 2, "2*x2 + abs2(z1)^3", 8, 12),
    ("harmonic quartic", 2, "2*x2 + Re(z1^2)", 8, 12),
    ("flat hyperplane", 2, "2*x2", 4, 8),
    ("indefinite quadric", 3, "2*x3 + abs2(z1) - abs2(z2)", 4, 8),
)


def _cmd_catalog(spec):
    entries = []
    for name, n, phi_text, k_max, cap in CATALOG:
        m = Hypersurface(n, parse_expression(phi_text, n, cap=cap))
        j = ACStructure.standard(n, cap)
        rep = engine.type_search(m, j, k_max)
        cls = levi.classify_point(m, j)
        entries.append({
            "name": name,
            "n": n,
            "phi": phi_text,
            "k_max": k_max,
            "classification": cls.label,
            "lower_bound": rep.lower_bound,
            "certified_exact": rep.certified_exact,
            "cap_reached": rep.cap_reached,
            "obstruction": rep.obstruction,
        })
    return {"entries": entries}


def run_command(spec: ProblemSpec) -> dict:
    """Dispatch one parsed invocation and return its report document."""
    if spec.command == "catalog":
        return _document(spec, _cmd_catalog(spec))
    m, j = build_problem(spec)
    # type and scan recenter each point inside engine.scan_type
    point = spec.point
    if spec.command in ("levi", "classify", "validate") \
            and any(c != 0 for c in point):
        point = project_point_to_surface(m, point)
        m, j, _ = recenter(m, j, point)
    if spec.command == "levi":
        result = _cmd_levi(spec, m, j)
    elif spec.command == "classify":
        result = _cmd_classify(spec, m, j)
    elif spec.command == "type":
        result = _cmd_type(spec, m, j)
    elif spec.command == "scan":
        result = _cmd_scan(spec, m, j, spec.points)
    elif spec.command == "validate":
        result = _cmd_validate(spec, m, j, point)
    else:
        raise ValueError(f"unknown command {spec.command!r}")
    return _document(spec, result)


# ---------------------------------------------------------------------------
# text rendering


def _render_type_text(doc, out):
    out.append(f"  lower_bound: {doc['lower_bound']}")
    out.append(f"  certified_exact: {doc['certified_exact']}")
    out.append(f"  cap_reached: {doc['cap_reached']}")
    if doc["obstruction"]:
        out.append(f"  obstruction: {doc['obstruction']}")
    out.append("  witness disk components:")
    for i, comp in enumerate(doc["witness_disk"]["components"]):
        out.append(f"    u[{i}] = {comp['expression']}")


def render_text(doc: dict) -> str:
    out = [f"levitype {doc['version']}  command={doc['command']}"]
    p = doc["parameters"]
    r = doc["result"]
    cmd = doc["command"]
    if cmd != "catalog":
        out.append(f"phi: {p['phi']}  (n={p['n']}, cap={p['cap']})")
        out.append(f"J: {p['J'] if isinstance(p['J'], str) else 'matrix'}")
    if cmd == "levi":
        out.append(f"classification: {r['classification']}")
        s = r["signature"]
        out.append(f"signature: +{s['positive']} -{s['negative']} "
                   f"0:{s['zero']}")
        out.append("polar matrix ((re, im) entries):")
        for row in r["polar_matrix"]:
            out.append("  " + "  ".join(f"({e[0]}, {e[1]})" for e in row))
    elif cmd == "classify":
        out.append(f"classification: {r['label']}")
        out.append(f"signature: +{r['positive']} -{r['negative']} "
                   f"0:{r['zero']}")
    elif cmd == "type":
        out.append(f"point: ({', '.join(r['point'])})")
        _render_type_text(r, out)
    elif cmd == "scan":
        for rep in r["reports"]:
            out.append(f"point: ({', '.join(rep['point'])})")
            _render_type_text(rep, out)
    elif cmd == "validate":
        _render_type_text(r["report"], out)
        v = r["validation"]
        out.append(f"validated: k={v['k']} contact={v['contact_order']} "
                   f"commutation={v['commutation_order']} "
                   f"levi_slots={v['levi_slots_checked']} "
                   f"derivatives={'ok' if v['derivative_matches'] else 'FAIL'}")
    elif cmd == "catalog":
        for e in r["entries"]:
            flags = []
            if e["certified_exact"]:
                flags.append("exact")
            if e["cap_reached"]:
                flags.append(f"cap k_max={e['k_max']}")
            out.append(f"{e['name']}: n={e['n']} phi={e['phi']} -> "
                       f"type >= {e['lower_bound']}"
                       + (f" ({', '.join(flags)})" if flags else "")
                       + f"; {e['classification']}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# argument parsing


def _make_argparser():
    ap = argparse.ArgumentParser(
        prog="levitype",
        description="Exact Levi forms, disk jets and regular type on real "
                    "hypersurfaces in almost complex R^2n.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, needs_search in (("levi", False), ("classify", False),
                               ("type", True), ("scan", True),
                               ("validate", True), ("catalog", False)):
        p = sub.add_parser(name)
        if name == "catalog":
            p.add_argument("--format", choices=("text", "tree"),
                           default="text")
            continue
        p.add_argument("--phi", required=True,
                       help="defining function in the expression language")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--J", default="standard",
                       help="'standard' or a JSON file with a 2n x 2n "
                            "matrix of expressions")
        p.add_argument("--J-perturb", type=int, default=None, metavar="SEED",
                       help="use the seeded perturbed structure "
                            "A J_std A^-1 instead of --J")
        if name == "scan":
            p.add_argument("--point", action="append", default=None,
                           help="repeatable; comma separated rationals")
        else:
            p.add_argument("--point", default=None,
                           help="comma separated rationals (default origin)")
        p.add_argument("--cap", type=int, default=None,
                       help="truncation order K (default k_max + 4)")
        if needs_search:
            p.add_argument("--kmax", type=int, default=6)
            p.add_argument("--strategy", default="exact",
                           help="exact | grid:<step> | dirs:<file>")
        p.add_argument("--format", choices=("text", "tree"), default="text")
    return ap


def _spec_from_args(args) -> ProblemSpec:
    if args.command == "catalog":
        return ProblemSpec(0, "", "standard", (), 0, 0, "exact_staged",
                           "catalog")
    n = args.n
    if n < 2:
        raise ParseError("n must be at least 2")
    k_max = getattr(args, "kmax", 2)
    if k_max < 2:
        raise ParseError("--kmax must be at least 2")
    cap = args.cap if args.cap is not None else k_max + 4
    if cap < 0:
        raise ParseError("--cap must be nonnegative")
    if getattr(args, "J_perturb", None) is not None:
        jspec = ("perturbed", args.J_perturb)
    elif args.J == "standard":
        jspec = "standard"
    else:
        try:
            with open(args.J) as fh:
                rows = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read J file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"J file is not valid JSON: {exc}") from None
        jspec = ("matrix", rows)
    strategy = _parse_strategy(getattr(args, "strategy", "exact"), n)
    origin = tuple(Q(0) for _ in range(2 * n))
    if args.command == "scan":
        texts = args.point or []
        if not texts:
            raise ParseError("scan needs at least one --point")
        points = tuple(_parse_point(t, n) for t in texts)
        return ProblemSpec(n, args.phi, jspec, points[0], cap, k_max,
                           strategy, "scan", points)
    point = _parse_point(args.point, n) if args.point else origin
    return ProblemSpec(n, args.phi, jspec, point, cap, k_max, strategy,
                       args.command)


def main(argv=None) -> int:
    args = _make_argparser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        doc = run_command(spec)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except CapError as exc:
        print(f"cap error: {exc}", file=sys.stderr)
        return 4
    if args.format == "tree":
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
