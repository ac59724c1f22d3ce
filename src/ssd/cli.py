"""Command-line surface: construct, evaluate, bound, branch, replace, oracle
search, catalog verification, and canonical re-export.

Every command is deterministic given its flags and input files.  Exit codes:
0 success, 1 verification failure or an `error:` line, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .design_core import (MAX_RUNS, branch_fraction, check_branch_labels,
                          check_fraction_runs, column_levels, read_design,
                          realize, remove_fully_aliased, replace_column,
                          write_design)

if TYPE_CHECKING:
    from .gf import Field

# Every other module is imported by the command that runs it, so that a
# command loads only what it uses: evaluate never loads the field, the
# labels, the catalog or the oracle.


def _field(s: int, modulus_spec: str | None) -> Field:
    """GF(s) under --modulus 'c0,c1,...' (constant term first), if given."""
    from .gf import Field, default_field
    if modulus_spec is None:
        return default_field(s)
    return Field(s, _int_list(modulus_spec))


def _int_list(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers, got {spec!r}") from None


def _budget(text: str) -> int:
    """--budget: a count of evaluations; below 0 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


# flags each theorem reads besides --s, --modulus, --show-labels and --out:
# (the one it requires, the optional ones)
_THEOREM_FLAGS = {
    "4": (None, ("n",)),
    "5": (None, ("n", "hs", "dealias")),
    "6": ("k", ("n", "hs", "dealias")),
    "7": ("k", ("n", "hs", "dealias")),
    "8": ("k", ("n", "branch", "levels")),
    "9": ("k", ("n", "levels")),
    "example3": ("branch", ()),
}


def _unread_flags(args, flags, read) -> str:
    """The given flags of `flags` outside `read`, as '--a, --b' ('' if none)."""
    return ", ".join(f"--{f}" for f in flags
                     if f not in read and getattr(args, f) is not None)


def _check_run_count(args, n: int) -> None:
    """Refuse a design of more than MAX_RUNS runs from the flags alone,
    before GF(s) is built, with the builders' own messages: s^n points,
    or the k s^(n-1) runs of a thm8/thm9 fraction.  The order is checked
    first, as Field checks it; an n or k that a builder rejects for
    another reason, and the GF(3)-only example 3, are left to the builder,
    which names that fault."""
    from .gf import check_order, point_count
    if args.theorem == "example3" or n < 1:
        return
    check_order(args.s)
    if args.theorem not in ("8", "9"):
        point_count(args.s, n, MAX_RUNS)
    elif 1 <= args.k < args.s:
        check_fraction_runs(args.k * args.s ** (n - 1))


def _cmd_construct(args) -> int:
    from . import constructions
    from .poly_labels import label_str, parse_label
    required, optional = _THEOREM_FLAGS[args.theorem]
    if required and getattr(args, required) is None:
        family = "the 18-run family" if required == "branch" else "this construction"
        print(f"--{required} is required for {family}", file=sys.stderr)
        return 2
    unread = _unread_flags(args, ("n", "k", "hs", "branch", "levels", "dealias"),
                           (required, *optional))
    if unread:
        print(f"--theorem {args.theorem} does not read {unread}", file=sys.stderr)
        return 2
    n = 3 if args.theorem == "example3" else 2 if args.n is None else args.n
    _check_run_count(args, n)
    f = _field(args.s, args.modulus)
    hs = (None if args.hs is None
          else [parse_label(f, t, n) for t in args.hs.split(",")])
    g = None if args.levels is None else _int_list(args.levels)
    branch = None if args.branch is None else parse_label(f, args.branch, n)
    if args.theorem == "4":
        design = constructions.construct_thm4(f, n)
    elif args.theorem in ("5", "6", "7"):
        build = (constructions.construct_thm7 if args.theorem == "7"
                 else constructions.construct_thm6)
        design = build(f, n, 2 if args.theorem == "5" else args.k, hs)
        if args.dealias:
            design = remove_fully_aliased(design)
    elif args.theorem == "8":
        design = constructions.construct_thm8(f, n, args.k, branch, g)
    elif args.theorem == "9":
        design = constructions.construct_thm9(f, n, args.k, g)
    else:
        design, typ = constructions.construct_example3(f, branch)
        print(f"branch type {typ}")
    if args.show_labels and design.labels:
        for lab in design.labels:
            print(label_str(f, lab))
    write_design(design, args.out)
    print(f"wrote {design.N}x{design.m} design to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from . import report
    D = read_design(args.file)
    rep = report.build_report(D, gwlp_jmax=args.jmax)
    sys.stdout.write(report.report_to_text(rep))
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(report.report_to_json(rep))
        print(f"wrote JSON report to {args.json}")
    return 0


def _cmd_bound(args) -> int:
    """Print every applicable bound; all are worked out before any is printed."""
    from .bounds import lb_es2, lb_lemma2, lb_theorem1, lb_theorem10
    N, m, s = args.N, args.m, args.s
    if args.levels is not None:
        unread = _unread_flags(args, ("m", "s"), ())
        if unread:
            print(f"--levels does not read {unread}", file=sys.stderr)
            return 2
        levels = _int_list(args.levels)
        lines = [_clamped("theorem10", lb_theorem10(N, levels))]
    elif s is None or m is None:
        print("either --levels or both --m and --s are required",
              file=sys.stderr)
        return 2
    else:
        lines = [_clamped("theorem1", lb_theorem1(N, m, s)),
                 _clamped("lemma2", lb_lemma2(N, m, s)),
                 _clamped("theorem10", lb_theorem10(N, [s] * m))]
        if s == 2:
            lines.append(f"eq1_es2 = {lb_es2(N, m)}")
    print("\n".join(lines))
    return 0


def _clamped(name: str, bound: Fraction) -> str:
    """A lower bound on the nonnegative A2, clamped at 0, with its raw value."""
    return f"{name} = {max(bound, Fraction(0))} (raw {bound})"


def _cmd_branch(args) -> int:
    from .poly_labels import h_set, parse_label, q1
    f = _field(args.s, args.modulus)
    s, n = f.order, args.n
    # either family has (s^n - 1)/(s - 1) labels: checked before any is built.
    # From n = 13 on that is at least 2^13 - 1 whatever s is, so the count is
    # worked out at n = 13 and named by its formula.
    check_branch_labels((s ** min(n, 13) - 1) // (s - 1),
                        f"({s}^{n} - 1)/{s - 1}" if n > 13 else None)
    labels = h_set(f, args.n) if args.family == "h" else q1(f, args.n)
    branch = parse_label(f, args.branch, args.n)
    g = _int_list(args.levels)
    design = branch_fraction(f, args.n, labels, branch, g)
    write_design(design, args.out)
    print(f"wrote {design.N}x{design.m} design to {args.out}")
    return 0


def _cmd_replace(args) -> int:
    D = read_design(args.file)
    s_old = column_levels(D, args.col)
    if args.table is not None:
        table = read_design(args.table, allow_unbalanced=True).matrix
    else:
        from .gf import default_field
        from .poly_labels import h_set
        f_new = default_field(args.oa_levels)
        # saturated strength-2 array with s_old rows indexes the old symbols
        r = 0
        t = s_old
        while t % args.oa_levels == 0 and t > 1:
            t //= args.oa_levels
            r += 1
        if t != 1:
            raise ValueError(f"{s_old} is not a power of {args.oa_levels}")
        table = realize(f_new, r, h_set(f_new, r)).matrix
    out = replace_column(D, args.col, table)
    write_design(out, args.out)
    print(f"wrote {out.N}x{out.m} design to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle
    res = oracle.exhaustive_min_a2(args.N, args.s, args.m, args.budget,
                                   stop_at_bound=not args.full)
    if res.best_a2 is None:
        raise ValueError("no complete design within the budget of "
                         f"{args.budget} evaluations")
    print(f"best A2 = {res.best_a2}")
    print(f"exhaustive = {res.exhaustive}, certified = {res.certified}, "
          f"evaluations = {res.evaluations}")
    return 0


def _cmd_verify_catalog(args) -> int:
    from . import constructions
    if (args.modulus is None) != (args.modulus_levels is None):
        print("--modulus and --modulus-levels must be given together",
              file=sys.stderr)
        return 2
    field_map = None
    if args.modulus is not None:
        s = args.modulus_levels
        levels = sorted({r.s for r in constructions.CATALOG_SPECS})
        if s not in levels:
            raise ValueError("--modulus-levels must be one of "
                             f"{', '.join(map(str, levels))}, got {s}")
        field_map = {s: _field(s, args.modulus)}
    results = [constructions.verify_design(r, D)
               for r, D in constructions.catalog(field_map)]
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
    # build the report first, so a design it rejects leaves no file behind
    text = None
    if args.json:
        from . import report
        text = report.report_to_json(report.build_report(D))
    write_design(D, args.out)
    if text is not None:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text)
    print(f"wrote {D.N}x{D.m} design to {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ssd parser, built on the first call and shared by every later one.

    Parsing leaves it unchanged: each parse_args call fills a fresh namespace.
    """
    p = argparse.ArgumentParser(
        prog="ssd",
        description="Construct, evaluate and certify multi-level "
                    "supersaturated designs.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a design from a recipe")
    c.add_argument("--theorem", required=True,
                   choices=["4", "5", "6", "7", "8", "9", "example3"])
    c.add_argument("--s", type=int, required=True, help="level count")
    c.add_argument("--n", type=int, default=None,
                   help="point-space dimension (default 2; example3 uses 3)")
    c.add_argument("--k", type=int)
    c.add_argument("--hs", help="comma-separated canonical forms for thm5/6/7")
    c.add_argument("--branch", help="branching column label")
    c.add_argument("--levels", help="kept level classes, e.g. 0,1")
    c.add_argument("--modulus", help="field modulus c0,c1,... (constant first)")
    # unset is None, as for every other flag that _unread_flags tests
    c.add_argument("--dealias", action="store_true", default=None,
                   help="drop one column of each fully aliased pair")
    c.add_argument("--show-labels", action="store_true")
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("evaluate", help="evaluate a design file")
    e.add_argument("file")
    e.add_argument("--json", help="write the JSON report here")
    e.add_argument("--jmax", type=int, default=None)
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
    new = r.add_mutually_exclusive_group(required=True)
    new.add_argument("--oa-levels", type=int,
                     help="new level count (builds the replacement table)")
    new.add_argument("--table", help="replacement table as a design file")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_replace)

    o = sub.add_parser("oracle", help="brute-force search utilities")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    om = osub.add_parser("min-a2", help="minimum overall A2 by search")
    om.add_argument("--N", type=int, required=True)
    om.add_argument("--s", type=int, required=True)
    om.add_argument("--m", type=int, required=True)
    # oracle.DEFAULT_BUDGET, spelled out so that the parser needs no oracle
    om.add_argument("--budget", type=_budget, default=10**8,
                    help="candidate evaluations (default %(default)s)")
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
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else
              "error: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:    # an internal fault: one line, not a traceback
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command}: {type(exc).__name__}{detail}",
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
