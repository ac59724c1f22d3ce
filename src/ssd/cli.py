"""Command-line surface: construct, evaluate, bound, branch, replace, oracle
search, catalog verification, and canonical re-export.

Every command is deterministic given its flags and input files.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import constructions, oracle, report
from .bounds import lb_es2, lb_lemma2, lb_theorem1, lb_theorem10
from .design_core import (branch_fraction, column_levels, read_design,
                          realize, remove_fully_aliased, replace_column,
                          write_design)
from .gf import Field, default_field
from .poly_labels import h_set, label_str, parse_label, q1


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_modulus(spec: str | None):
    """--modulus 'c0,c1,...' (little-endian, constant term first)."""
    if spec is None:
        return None
    return [int(c) for c in spec.split(",")]


def _field(s: int, modulus_spec: str | None) -> Field:
    mod = _parse_modulus(modulus_spec)
    return Field(s, mod) if mod is not None else default_field(s)


def _parse_levels_list(spec: str) -> list[int]:
    return [int(v) for v in spec.split(",")]


def _cmd_construct(args) -> int:
    f = _field(args.s, args.modulus)
    if args.theorem == "4":
        design = constructions.construct_thm4(f, args.n)
    elif args.theorem in ("5", "6"):
        k = 2 if args.theorem == "5" else args.k
        if k is None:
            print("--k is required for this construction", file=sys.stderr)
            return 2
        hs = None
        if args.hs:
            hs = [parse_label(f, t, args.n) for t in args.hs.split(",")]
        design = constructions.construct_thm6(f, args.n, k, hs)
        if args.dealias:
            design = remove_fully_aliased(design)
    elif args.theorem == "7":
        if args.k is None:
            print("--k is required for this construction", file=sys.stderr)
            return 2
        design = constructions.construct_thm7(f, args.n, args.k)
    elif args.theorem == "8":
        if args.k is None:
            print("--k is required for this construction", file=sys.stderr)
            return 2
        g = _parse_levels_list(args.levels) if args.levels else None
        branch = parse_label(f, args.branch, args.n) if args.branch else None
        design = constructions.construct_thm8(f, args.n, args.k, branch, g)
    elif args.theorem == "9":
        if args.k is None:
            print("--k is required for this construction", file=sys.stderr)
            return 2
        g = _parse_levels_list(args.levels) if args.levels else None
        design = constructions.construct_thm9(f, args.n, args.k, g)
    elif args.theorem == "example3":
        if not args.branch:
            print("--branch is required for the 18-run family", file=sys.stderr)
            return 2
        branch = parse_label(f, args.branch, 3)
        design, typ = constructions.construct_example3(f, branch)
        print(f"branch type {typ}")
    else:  # pragma: no cover - argparse restricts the choices
        return 2
    if args.show_labels and design.labels:
        for lab in design.labels:
            print(lab if isinstance(lab, str) else label_str(f, lab))
    write_design(design, args.out)
    print(f"wrote {design.N}x{design.m} design to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    D = read_design(args.file, allow_unbalanced=args.allow_unbalanced)
    rep = report.build_report(D, gwlp_jmax=args.jmax)
    sys.stdout.write(report.report_to_text(rep))
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(report.report_to_json(rep))
        print(f"wrote JSON report to {args.json}")
    return 0


def _cmd_bound(args) -> int:
    if args.levels:
        levels = _parse_levels_list(args.levels)
        print(f"theorem10 = {_fmt(lb_theorem10(args.N, levels))}")
        return 0
    if args.s is None or args.m is None:
        print("either --levels or both --m and --s are required",
              file=sys.stderr)
        return 2
    t1 = lb_theorem1(args.N, args.m, args.s)
    print(f"theorem1 = {_fmt(max(t1, Fraction(0)))} (raw {_fmt(t1)})")
    print(f"lemma2 = {_fmt(lb_lemma2(args.N, args.m, args.s))}")
    print(f"theorem10 = {_fmt(lb_theorem10(args.N, [args.s] * args.m))}")
    if args.s == 2:
        print(f"eq1_es2 = {_fmt(lb_es2(args.N, args.m))}")
    return 0


def _cmd_branch(args) -> int:
    f = _field(args.s, args.modulus)
    labels = h_set(f, args.n) if args.family == "h" else q1(f, args.n)
    branch = parse_label(f, args.branch, args.n)
    g = _parse_levels_list(args.levels)
    design = branch_fraction(f, args.n, labels, branch, g)
    write_design(design, args.out)
    print(f"wrote {design.N}x{design.m} design to {args.out}")
    return 0


def _cmd_replace(args) -> int:
    D = read_design(args.file)
    s_old = column_levels(D, args.col)
    if args.table:
        table = read_design(args.table, allow_unbalanced=True).matrix
    elif args.oa_levels:
        f_new = default_field(args.oa_levels)
        # saturated strength-2 array with s_old rows indexes the old symbols
        r = 0
        t = s_old
        while t % args.oa_levels == 0 and t > 1:
            t //= args.oa_levels
            r += 1
        if t != 1:
            print(f"{s_old} is not a power of {args.oa_levels}",
                  file=sys.stderr)
            return 2
        table = realize(f_new, r, h_set(f_new, r)).matrix
    else:
        print("one of --table or --oa-levels is required", file=sys.stderr)
        return 2
    out = replace_column(D, args.col, table)
    write_design(out, args.out)
    print(f"wrote {out.N}x{out.m} design to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    budget = args.budget
    if budget is None:
        budget = int(os.environ.get("SSD_BUDGET", oracle.DEFAULT_BUDGET))
    res = oracle.exhaustive_min_a2(args.N, args.s, args.m, budget,
                                   stop_at_bound=not args.full)
    print(f"best A2 = {_fmt(res.best_a2)}")
    print(f"exhaustive = {res.exhaustive}, certified = {res.certified}, "
          f"evaluations = {res.evaluations}")
    return 0


def _cmd_verify_catalog(args) -> int:
    field_map = None
    if args.modulus and args.modulus_levels:
        field_map = {args.modulus_levels: Field(args.modulus_levels,
                                                _parse_modulus(args.modulus))}
    results = constructions.catalog_verify(field_map)
    if not args.skip_appendix:
        results += [constructions.verify_appendix(w) for w in (6, 7, 8)]
    failures = 0
    for row in results:
        mark = "ok" if row.ok else "FAIL"
        print(f"{mark:4s} {row.row_id}: {row.message}")
        failures += 0 if row.ok else 1
    print(f"{len(results) - failures}/{len(results)} rows verified")
    return 0 if failures == 0 else 1


def _cmd_export(args) -> int:
    D = read_design(args.file, allow_unbalanced=args.allow_unbalanced)
    write_design(D, args.out)
    if args.json:
        rep = report.build_report(D)
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(report.report_to_json(rep))
    print(f"wrote {D.N}x{D.m} design to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ssd",
        description="Construct, evaluate and certify multi-level "
                    "supersaturated designs.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design from a recipe")
    c.add_argument("--theorem", required=True,
                   choices=["4", "5", "6", "7", "8", "9", "example3"])
    c.add_argument("--s", type=int, required=True, help="level count")
    c.add_argument("--n", type=int, default=2, help="point-space dimension")
    c.add_argument("--k", type=int)
    c.add_argument("--hs", help="comma-separated canonical forms for thm6/7")
    c.add_argument("--branch", help="branching column label")
    c.add_argument("--levels", help="kept level classes, e.g. 0,1")
    c.add_argument("--modulus", help="field modulus c0,c1,... (constant first)")
    c.add_argument("--dealias", action="store_true",
                   help="drop one column of each fully aliased pair")
    c.add_argument("--show-labels", action="store_true")
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("evaluate", help="evaluate a design file")
    e.add_argument("file")
    e.add_argument("--json", help="write the JSON report here")
    e.add_argument("--jmax", type=int, default=None)
    e.add_argument("--allow-unbalanced", action="store_true")
    e.set_defaults(func=_cmd_evaluate)

    b = sub.add_parser("bound", help="print the lower bounds for a shape")
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--m", type=int)
    b.add_argument("--s", type=int)
    b.add_argument("--levels", help="explicit level profile, e.g. 9,9,3,3")
    b.set_defaults(func=_cmd_bound)

    br = sub.add_parser("branch", help="branch a label family into a fraction")
    br.add_argument("--s", type=int, required=True)
    br.add_argument("--n", type=int, required=True)
    br.add_argument("--family", choices=["h", "q1"], default="h")
    br.add_argument("--branch", required=True)
    br.add_argument("--levels", required=True, help="kept level classes")
    br.add_argument("--modulus")
    br.add_argument("--out", required=True)
    br.set_defaults(func=_cmd_branch)

    r = sub.add_parser("replace", help="replace a column by a saturated array")
    r.add_argument("file")
    r.add_argument("--col", type=int, required=True, help="0-based column")
    r.add_argument("--oa-levels", type=int,
                   help="new level count (builds the replacement table)")
    r.add_argument("--table", help="replacement table as a design file")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_replace)

    o = sub.add_parser("oracle", help="brute-force search utilities")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    om = osub.add_parser("min-a2", help="minimum overall A2 by search")
    om.add_argument("--N", type=int, required=True)
    om.add_argument("--s", type=int, required=True)
    om.add_argument("--m", type=int, required=True)
    om.add_argument("--budget", type=int, default=None,
                    help="candidate evaluations (default SSD_BUDGET env)")
    om.add_argument("--full", action="store_true",
                    help="do not stop early at the lower bound")
    om.set_defaults(func=_cmd_oracle)

    v = sub.add_parser("verify-catalog",
                       help="rebuild the catalog and check every row")
    v.add_argument("--skip-appendix", action="store_true",
                   help="skip the bundled reference tables")
    v.add_argument("--modulus", help="alternate field modulus")
    v.add_argument("--modulus-levels", type=int)
    v.set_defaults(func=_cmd_verify_catalog)

    x = sub.add_parser("export", help="canonical re-emission of a design file")
    x.add_argument("file")
    x.add_argument("--out", required=True)
    x.add_argument("--json")
    x.add_argument("--allow-unbalanced", action="store_true")
    x.set_defaults(func=_cmd_export)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
