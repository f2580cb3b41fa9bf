"""Command-line entry point.

Subcommands: solve (full pipeline / branching only / local search only /
exhaustive oracle), gen (seeded random k-CNF), bounds (worst-case bases),
chain-table (the 38-row chain type table), cover (covering-code builds).
Exit codes follow solver convention: 10 satisfiable, 20 unsatisfiable,
1 a usage error, or ``error: <message>`` for a guard, malformed input,
unwritable file or failed model check, 2 table mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .bounds import KMAX, ck_recurrence, round_up
from .branching3 import PhiConfig, br_3
from .branching_k import SolveStats, solve_ksat
from .chains import TSV_HEADER, canonical_realization, solution_space
from .characteristic import Table2Error, lambda_for_zeta, reproduce_table2
from .covering import (
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    cover_cube,
    ell_cover_spaces,
    verify_coverage,
)
from .formula import (
    VerificationError,
    brute_force_sat,
    parse_dimacs,
    serialize_dimacs,
    verify_model,
)
from .generator import gen_random_kcnf
from .local_search import dls
from .outcomes import SolveResult, answer

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1
EXIT_MISMATCH = 2


def _report(res: SolveResult, path, stats: SolveStats):
    head = {"verdict": res.verdict} if res.instance is None else {}
    rep = {
        "schema": 1,
        **head,
        "path": path,
        "stats": {
            "branch_nodes": stats.branch_nodes + stats.br3.nodes,
            "leaves": stats.br3.leaves,
            "balls_searched": stats.dls.balls_searched,
            "code_sizes": {str(r): s for r, s in stats.dls.code_sizes.items()},
            "chain_vector": stats.chain_vector,
        },
    }
    if res.assignment is not None:
        rep["assignment"] = "".join(str(res.assignment[v]) for v in sorted(res.assignment))
    if res.instance is not None:
        rep.update(outcome="instance", chains=res.instance.type_counts())
    return rep


def _cmd_solve(args) -> int:
    """Report the answer: SAT with its model, checked against the formula
    first, UNSAT, or the instance the branching hands to the local search
    (exit 0)."""
    with open(args.file, encoding="utf-8") as fh:
        f = parse_dimacs(fh.read())
    try:
        phi = PhiConfig(c=args.c) if args.c is not None else None
    except ValueError as e:
        raise ValueError("--c: %s" % e) from None
    trace = (lambda line: print("trace: %s" % line, file=sys.stderr)) if args.trace else None
    stats = SolveStats()
    if args.mode == "oracle":
        res, path = answer(brute_force_sat(f)), "oracle"
    elif args.mode == "dls":
        res, path = answer(dls(f, None, stats=stats.dls)), "DLS"
    elif args.mode == "br":
        if f.width() > 3:
            raise ValueError("--mode br is the 3-SAT branching; width > 3")
        res = br_3(f, phi, trace=trace, stats=stats.br3)
        path = "BR" if res.verdict == "INSTANCE" else "BR-solved"
    else:
        if f.width() > KMAX:
            raise ValueError("width guard: clause width %d > %d" % (f.width(), KMAX))
        res = solve_ksat(f, phi_cfg=phi, stats=stats, trace=trace)
        path = stats.path
    if res.verdict == "SAT":
        verify_model(f, res.assignment)
    print(json.dumps(_report(res, path, stats)))
    return {"SAT": EXIT_SAT, "UNSAT": EXIT_UNSAT}.get(res.verdict, 0)


def _cmd_gen(args) -> int:
    text = serialize_dimacs(gen_random_kcnf(args.k, args.n, args.m, args.seed))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise OSError("--out: %s" % e) from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bounds(args) -> int:
    rows = ck_recurrence(args.kmax)
    print("k\tc\tnu")
    for r in rows:
        print("%d\t%.5f\t%.6f" % (r.k, round_up(r.ck), r.nu))
    return 0


def _cmd_chain_table(args) -> int:
    try:
        records = reproduce_table2()
    except Table2Error as e:
        print("%s" % e, file=sys.stderr)
        return EXIT_MISMATCH
    print(TSV_HEADER)
    for r in records:
        print(r.tsv_row(exact=args.exact))
    return 0


def _cmd_cover(args) -> int:
    shape, defaults = ("cube", {"rho": "1/3"}) if args.cube is not None else ("zeta", {"nu": 1, "k": 3})
    for name in ("rho", "nu", "k"):
        if getattr(args, name) is not None and name not in defaults:
            raise ValueError("--%s does not apply to --%s" % (name, shape))
    opt = {name: d if getattr(args, name) is None else getattr(args, name) for name, d in defaults.items()}
    if shape == "cube":
        try:
            rho = Fraction(opt["rho"])
        except (ValueError, ZeroDivisionError):
            raise ValueError("--rho: not a fraction: %r" % opt["rho"]) from None
        if not (0 < rho < Fraction(1, 2)):
            raise ValueError("rho must lie in (0, 1/2)")
        fam = cover_cube(args.cube, math.ceil(rho * args.cube))
        space = StructuredSpace((CubeFactor(args.cube),))
    else:
        nu, k = opt["nu"], opt["k"]
        if nu < 1:
            raise ValueError("--nu must be at least 1")
        sp = solution_space(canonical_realization(args.zeta))
        fam = ell_cover_spaces((sp,) * nu, k, lambda_for_zeta(args.zeta, k=k))
        space = StructuredSpace((PowerFactor((sp,) * nu),))
    # a product builds its levels when they are read, and its code size
    # guard refuses while it builds them: read them all before any output
    radii = fam.radii()
    rep = verify_coverage(fam, space)
    print("# %s" % fam.description)
    for r in radii:
        print("radius %d: %d centers" % (r, len(fam.entries[r])))
    print(
        "coverage: %s (%d words%s)"
        % ("verified" if rep.ok else "FAILED", rep.checked, ", sampled" if rep.sampled else "")
    )
    if args.dump:
        sys.stdout.write(fam.dump())
    return 0 if rep.ok else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, where argparse exits 2 (a table mismatch
    here). Subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, "%s: error: %s\n" % (self.prog, message))


def main(argv=None) -> int:
    ap = _Parser(prog="detksat", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="solve a DIMACS CNF file")
    s.add_argument("file")
    s.add_argument("--mode", choices=("full", "br", "dls", "oracle"), default="full")
    s.add_argument("--c", type=float, default=None, help="termination-condition base")
    s.add_argument("--trace", action="store_true")
    s.set_defaults(fn=_cmd_solve)

    g = sub.add_parser("gen", help="generate a seeded random k-CNF")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=_cmd_gen)

    b = sub.add_parser("bounds", help="worst-case bases table")
    b.add_argument("--kmax", type=int, default=6)
    b.set_defaults(fn=_cmd_bounds)

    t = sub.add_parser("chain-table", help="reproduce the 38-row chain type table")
    t.add_argument("--exact", action="store_true")
    t.set_defaults(fn=_cmd_chain_table)

    c = sub.add_parser("cover", help="build and verify covering codes")
    shape = c.add_mutually_exclusive_group(required=True)
    shape.add_argument("--cube", type=int, default=None)
    shape.add_argument("--zeta", default=None)
    c.add_argument("--rho", default=None, help="cube only (default 1/3)")
    c.add_argument("--nu", type=int, default=None, help="zeta only (default 1)")
    c.add_argument("--k", type=int, default=None, help="zeta only (default 3)")
    c.add_argument("--dump", action="store_true")
    c.set_defaults(fn=_cmd_cover)

    args = ap.parse_args(argv)
    # every guard and bad input of the commands raises one of these
    try:
        return args.fn(args)
    except (OSError, ValueError, VerificationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
