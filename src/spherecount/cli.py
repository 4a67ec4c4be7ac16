"""Command line front end.

Systems are read either from the canonical JSON document or from a plain
text file with one polynomial expression per line, e.g.

    x0^2 + 2*x0*x1 - x1^2

Subcommands: count, certify, mu, kappa, mesh, tables, mc-kappa.
Exit codes: 0 success, 2 counting budget exhausted (including a --max-t
clamped to the grid-size cap), 3 malformed input, usage error or a
requested grid over the cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import polynomials as pl
from .certification import inclusion_test
from .condition import (kappa_grid, mu, monte_carlo_ln_kappa,
                        smoothed_ln_kappa_bound)
from .convergence import (ALPHA_TABLE_LABELS, GAMMA_TABLE_LABELS,
                          alpha_error_table, gamma_contraction_table)
from .counting import count_affine, root_count
from . import mesh as _mesh
from .mesh import MeshSizeError, build_mesh, covering_check, mesh_count_bound

__all__ = ["ParseError", "parse_polynomial", "parse_affine", "format_polynomial",
           "dispatch", "main"]


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression, with position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*|\.\d+|\d+)
  | (?P<var>x\d+)
  | (?P<op>[+\-*^])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    return tokens


def _parse_terms(text, n_vars):
    """Parse into a coefficient map; degrees are not constrained here."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    terms = {}
    pos = 0
    sign = 1.0
    # optional leading sign
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1.0 if tokens[0][1] == "-" else 1.0
        pos = 1
    while pos < len(tokens):
        coeff = sign
        expo = [0] * n_vars
        saw_factor = False
        expect_factor = True
        start = tokens[pos][2]
        while pos < len(tokens):
            kind, val, at = tokens[pos]
            if kind == "num" and expect_factor:
                coeff *= float(val)
                saw_factor = True
                expect_factor = False
                pos += 1
            elif kind == "var":
                idx = int(val[1:])
                if idx >= n_vars:
                    raise ParseError(f"variable {val} out of range (n_vars = {n_vars})", at)
                power = 1
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] == "^":
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "num" or "." in tokens[pos][1]:
                        raise ParseError("expected integer exponent after '^'",
                                         tokens[pos - 1][2])
                    power = int(tokens[pos][1])
                    pos += 1
                expo[idx] += power
                saw_factor = True
                expect_factor = False
            elif kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", at)
                expect_factor = True
                pos += 1
            elif kind == "op" and val in "+-":
                break
            else:
                raise ParseError(f"unexpected token {val!r}", at)
        if not saw_factor:
            raise ParseError("empty term", start)
        key = tuple(expo)
        terms[key] = terms.get(key, 0.0) + coeff
        if pos < len(tokens):
            sign = -1.0 if tokens[pos][1] == "-" else 1.0
            pos += 1
            if pos >= len(tokens):
                raise ParseError("dangling operator", tokens[-1][2])
    return {e: c for e, c in terms.items() if c != 0.0}


def parse_polynomial(text, n_vars):
    """Parse a homogeneous polynomial; mixed degrees are rejected."""
    terms = _parse_terms(text, n_vars)
    if not terms:
        raise ParseError("polynomial is identically zero", 0)
    degrees = {sum(e) for e in terms}
    if len(degrees) != 1:
        raise ParseError(f"mixed term degrees {sorted(degrees)}: not homogeneous", 0)
    return pl.HomogeneousPolynomial(n_vars, degrees.pop(), terms)


def parse_affine(text, n_vars):
    terms = _parse_terms(text, n_vars)
    if not terms:
        raise ParseError("polynomial is identically zero", 0)
    return pl.AffinePolynomial(n_vars, terms)


def format_polynomial(poly):
    """Canonical text form; parsing it back reproduces the polynomial."""
    parts = []
    for expo, c in poly.terms():
        factors = []
        if abs(c) != 1.0 or not any(expo):
            factors.append(repr(abs(c)))
        for j, e in enumerate(expo):
            if e == 1:
                factors.append(f"x{j}")
            elif e > 1:
                factors.append(f"x{j}^{e}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(parts)


# ---------------------------------------------------------------------------

def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_system(path, affine=False):
    """JSON document or expression list -> system (or affine polynomial list)."""
    text = _read_input(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if affine:
            raise ValueError("affine input must be an expression list")
        return pl.system_from_json(doc)
    lines = [ln for ln in (line.strip() for line in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no polynomial expressions found")
    n = len(lines)
    if affine:
        return [parse_affine(ln, n) for ln in lines]
    return pl.PolynomialSystem(tuple(parse_polynomial(ln, n + 1) for ln in lines))


def _parse_point(text, n_vars):
    x = np.array([float(v) for v in text.split(",")])
    if x.size != n_vars:
        raise ValueError(f"expected {n_vars} coordinates, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite")
    return pl.normalize(x)


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _emit_csv(rows):
    sys.stdout.write("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


def _table_rows(which):
    rows = []
    if which in ("gamma", "both"):
        rows.append(("i",) + GAMMA_TABLE_LABELS)
        for i, vals in enumerate(gamma_contraction_table(), start=1):
            rows.append((i,) + tuple(f"{v:.3f}" for v in vals))
    if which in ("alpha", "both"):
        if rows:
            rows.append(("",))
        rows.append(("i",) + ALPHA_TABLE_LABELS)
        for i, vals in enumerate(alpha_error_table(), start=1):
            rows.append((i,) + tuple(f"{v:.3f}" for v in vals))
    return rows


class _Parser(argparse.ArgumentParser):
    # usage errors (including unknown subcommands) exit with code 3
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _clamp_max_t(n, max_t):
    """The deepest level up to ``max_t`` whose grid on S^n fits under the cap.

    The cap is the library's default, ``mesh.MESH_POINT_CAP``.  Budget
    exhaustion then ends the run with its last result (exit 2) instead of
    a grid-size error; a clamp is noted on stderr.
    """
    cap = _mesh.MESH_POINT_CAP
    t = max_t
    while t > 0 and mesh_count_bound(n, t) > cap:
        t -= 1
    if t < max_t:
        sys.stderr.write(f"note: --max-t {max_t} clamped to {t}: deeper grids on "
                         f"S^{n} exceed the {cap}-point cap\n")
    return t


def _degree(entry):
    """One entry of mc-kappa's ``--degrees``: an integer of at least 1."""
    try:
        d = int(entry)
    except ValueError:
        d = 0
    if d < 1:
        raise ValueError(f"--degrees entry {entry!r} is not an integer >= 1")
    return d


def _build_parser():
    p = _Parser(prog="spherecount",
                description="Certified real-zero counting on the unit sphere.")
    p.add_argument("--input", default=None, help="system file (JSON or expressions; - for stdin)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="run the mc-kappa trials on this many threads "
                        "(count always runs on one)")
    p.add_argument("--output", choices=("json", "csv"), default=None)
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("count", help="count zeros on the sphere")
    c.add_argument("--max-t", type=int, default=9)
    c.add_argument("--affine", action="store_true",
                   help="treat the input as an affine system and count its real roots")
    c.add_argument("--stats", action="store_true")

    ce = sub.add_parser("certify", help="inclusion test at a point")
    ce.add_argument("--point", required=True)

    mu_p = sub.add_parser("mu", help="normalized condition number at a point")
    mu_p.add_argument("--point", required=True)

    k = sub.add_parser("kappa", help="grid estimate of the counting condition number")
    k.add_argument("--t", type=int, default=3)

    m = sub.add_parser("mesh", help="grid statistics")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--t", type=int, required=True)
    m.add_argument("--probes", type=int, default=1000)

    t = sub.add_parser("tables", help="contraction/error reference tables as CSV")
    t.add_argument("--which", choices=("gamma", "alpha", "both"), default="both")

    mc = sub.add_parser("mc-kappa", help="Monte Carlo condition statistics")
    mc.add_argument("--n", type=int, default=3)
    mc.add_argument("--degrees", default="2,2,2")
    mc.add_argument("--trials", type=int, default=20)
    mc.add_argument("--t", type=int, default=3)
    mc.add_argument("--sigma", type=float, default=None,
                    help="also report the smoothed-analysis bound for this radius")
    return p


def dispatch(argv):
    parser = _build_parser()
    # argparse takes "-0.6,0.8" or "-inf,1" for an option (only plain
    # numbers are exempt), so a point value starting with "-" joins its flag
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--point" and argv[i].startswith("-"):
            argv[i - 1:i + 1] = [f"--point={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 3
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 3
    try:
        return _run(args)
    except (ValueError, OSError, json.JSONDecodeError, MeshSizeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def _run(args):
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    cmd = args.command
    if cmd == "tables":
        rows = _table_rows(args.which)
        if args.output == "json":
            _emit_json([list(r) for r in rows])
        else:
            _emit_csv(rows)
        return 0

    if cmd == "mesh":
        if args.probes < 1:
            raise ValueError("--probes must be at least 1")
        mesh = build_mesh(args.n, args.t)
        rng = np.random.default_rng(args.seed)
        probes = rng.standard_normal((args.probes, args.n + 1))
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        dists = [covering_check(mesh, z)[1] for z in probes]
        _emit_json({
            "n": args.n,
            "t": args.t,
            "eta": mesh.eta,
            "count": mesh.count,
            "covering_radius_bound": mesh.covering_radius_bound,
            "covering_observed_max": max(dists),
            "covering_observed_mean": sum(dists) / len(dists),
        })
        return 0

    if cmd == "mc-kappa":
        if args.n < 1:
            raise ValueError("--n must be at least 1")
        degrees = tuple(_degree(d) for d in args.degrees.split(","))
        if len(degrees) != args.n:
            raise ValueError(f"--degrees lists {len(degrees)} degrees, but --n {args.n} "
                             f"needs {args.n}, one per equation")
        # checks sigma before any trial runs
        smoothed = (None if args.sigma is None
                    else smoothed_ln_kappa_bound(args.n, degrees, args.sigma))
        out = monte_carlo_ln_kappa(args.n, degrees, args.trials, args.t,
                                   seed=args.seed, threads=args.threads)
        rows = [("trial", "ln_kappa_estimate")]
        rows += [(i, f"{v:.6f}") for i, v in enumerate(out["samples"])]
        rows.append(("mean", f"{out['mean_ln_kappa']:.6f}"))
        if out["bound"] is not None:
            rows.append(("bound", f"{out['bound']:.6f}"))
        if smoothed is not None:
            rows.append(("smoothed_bound", f"{smoothed:.6f}"))
        if args.output == "json":
            _emit_json({"rows": [list(r) for r in rows]})
        else:
            _emit_csv(rows)
        return 0

    # remaining subcommands read a system
    if args.input is None:
        raise ValueError(f"subcommand {cmd!r} requires --input")

    if cmd == "count":
        if args.affine:
            # n affine equations are counted on their homogenization on S^n
            polys = _load_system(args.input, affine=True)
            result, affine_count = count_affine(polys, max_t=_clamp_max_t(len(polys), args.max_t))
        else:
            F = _load_system(args.input)
            result = root_count(F, max_t=_clamp_max_t(F.n, args.max_t))
        doc = result.to_json()
        if args.affine:
            doc["affine_count"] = affine_count
        if args.stats:
            doc["kappa_grid_estimate"] = result.kappa_grid_estimate
        _emit_json(doc)
        return 0 if result.stopped else 2

    F = _load_system(args.input)

    if cmd == "certify":
        x = _parse_point(args.point, F.n_vars)
        _emit_json(inclusion_test(F, x).to_json())
        return 0

    if cmd == "mu":
        x = _parse_point(args.point, F.n_vars)
        _emit_json({"point": [float(v) for v in x], "mu": mu(F.normalized(), x)})
        return 0

    if cmd == "kappa":
        mesh = build_mesh(F.n, args.t)
        est, cover = kappa_grid(F, mesh)
        _emit_json({"kappa_grid": est, "t": args.t,
                    "covering_radius_bound": cover, "mesh_count": mesh.count})
        return 0

    raise ValueError(f"unknown subcommand {cmd!r}")


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
