"""Command-line entry point.

Subcommands: solve (full pipeline / branching only / local search only /
exhaustive oracle), gen (seeded random k-CNF), bounds (worst-case bases),
chain-table (the 38-row chain type table), cover (covering-code builds).
Exit codes follow solver convention: 10 satisfiable, 20 unsatisfiable,
1 usage or parse errors, an input beyond a size guard or a failed model
check, 2 table mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bounds import ck_recurrence, round_up
from .branching3 import PhiConfig, br_3
from .branching_k import SolveStats, solve_ksat
from .chains import canonical_realization, group_by_type
from .characteristic import Table2Error, reproduce_table2
from .covering import (
    CoverError,
    CubeFactor,
    PowerFactor,
    StructuredSpace,
    cover_cube,
    ell_cover_spaces,
    verify_coverage,
)
from .formula import (
    DimacsError,
    VerificationError,
    brute_force_sat,
    parse_dimacs,
    serialize_dimacs,
    verify_model,
)
from .generator import gen_random_kcnf
from .local_search import dls
from .characteristic import characteristic_for_chain, lambda_for_zeta
from .chains import solution_space

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1
EXIT_MISMATCH = 2


def _report(verdict, assignment, path, stats: SolveStats, extra=None):
    rep = {
        "schema": 1,
        "verdict": verdict,
        "path": path,
        "stats": {
            "branch_nodes": stats.branch_nodes + stats.br3.nodes,
            "leaves": stats.br3.leaves,
            "balls_searched": stats.dls.balls_searched,
            "code_sizes": {str(r): s for r, s in stats.dls.code_sizes.items()},
            "chain_vector": stats.chain_vector,
        },
    }
    if assignment is not None:
        rep["assignment"] = "".join(str(assignment[v]) for v in sorted(assignment))
    if extra:
        rep.update(extra)
    return rep


def _cmd_solve(args) -> int:
    try:
        with open(args.file) as fh:
            f = parse_dimacs(fh.read())
    except (OSError, DimacsError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    try:
        phi = PhiConfig(c=args.c) if args.c is not None else None
    except ValueError as e:
        print("error: --c: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    try:
        return _solve(f, args, phi)
    except (VerificationError, CoverError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


def _solve(f, args, phi) -> int:
    trace = (lambda line: print("trace: %s" % line, file=sys.stderr)) if args.trace else None
    stats = SolveStats()

    if args.mode == "oracle":
        try:
            m = brute_force_sat(f)
        except ValueError as e:  # the size guard
            print("error: %s" % e, file=sys.stderr)
            return EXIT_ERROR
        verdict = "SAT" if m is not None else "UNSAT"
        print(json.dumps(_report(verdict, m, "oracle", stats)))
        return EXIT_SAT if m is not None else EXIT_UNSAT
    if args.mode == "dls":
        m = dls(f, None, stats=stats.dls)
        verdict = "SAT" if m is not None else "UNSAT"
        if m is not None:
            verify_model(f, m)
        print(json.dumps(_report(verdict, m, "DLS", stats)))
        return EXIT_SAT if m is not None else EXIT_UNSAT
    if args.mode == "br":
        if f.width() > 3:
            print("error: --mode br is the 3-SAT branching; width > 3", file=sys.stderr)
            return EXIT_ERROR
        out = br_3(f, phi, trace=trace, stats=stats.br3)
        if out.kind == "instance":
            vec = {key: len(g) for key, g in group_by_type(out.instance.chains).items()}
            rep = _report(None, None, "BR", stats, {"outcome": "instance", "chains": vec})
            rep.pop("verdict")
            print(json.dumps(rep))
            return 0
        verdict = "SAT" if out.kind == "sat" else "UNSAT"
        if out.kind == "sat":
            verify_model(f, out.assignment)
        print(json.dumps(_report(verdict, out.assignment, "BR-solved", stats)))
        return EXIT_SAT if out.kind == "sat" else EXIT_UNSAT

    res = solve_ksat(f, phi_cfg=phi, stats=stats, trace=trace)
    if res.verdict == "SAT":
        verify_model(f, res.assignment)
    print(json.dumps(_report(res.verdict, res.assignment, stats.path, stats)))
    return EXIT_SAT if res.verdict == "SAT" else EXIT_UNSAT


def _cmd_gen(args) -> int:
    try:
        f = gen_random_kcnf(args.k, args.n, args.m, args.seed)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    text = serialize_dimacs(f)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
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
    from .chains import TSV_HEADER

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
    try:
        if args.cube is not None:
            try:
                rho = Fraction(args.rho)
            except (ValueError, ZeroDivisionError):
                print("error: --rho: not a fraction: %r" % args.rho, file=sys.stderr)
                return EXIT_ERROR
            if not (0 < rho < Fraction(1, 2)):
                print("error: rho must lie in (0, 1/2)", file=sys.stderr)
                return EXIT_ERROR
            import math

            fam = cover_cube(args.cube, math.ceil(rho * args.cube))
            space = StructuredSpace((CubeFactor(args.cube),))
        elif args.zeta is not None:
            chain = canonical_realization(args.zeta)
            sp = solution_space(chain)
            # as the local search reads it: the k = 3 memo only at k = 3
            lam = (
                lambda_for_zeta(args.zeta)
                if args.k == 3
                else characteristic_for_chain(chain, args.k).lam
            )
            fam = ell_cover_spaces((sp,) * args.nu, args.k, lam)
            space = StructuredSpace((PowerFactor((sp,) * args.nu),))
        else:
            print("error: need --cube or --zeta", file=sys.stderr)
            return EXIT_ERROR
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    rep = verify_coverage(fam, space)
    print("# %s" % fam.description)
    for r in fam.radii():
        print("radius %d: %d centers" % (r, len(fam.entries[r])))
    print(
        "coverage: %s (%d words%s)"
        % ("verified" if rep.ok else "FAILED", rep.checked, ", sampled" if rep.sampled else "")
    )
    if args.dump:
        sys.stdout.write(fam.dump())
    return 0 if rep.ok else EXIT_ERROR


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="detksat", description=__doc__)
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
    c.add_argument("--cube", type=int, default=None)
    c.add_argument("--rho", default="1/3")
    c.add_argument("--zeta", default=None)
    c.add_argument("--nu", type=int, default=1)
    c.add_argument("--k", type=int, default=3)
    c.add_argument("--dump", action="store_true")
    c.set_defaults(fn=_cmd_cover)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
