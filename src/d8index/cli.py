"""Command-line front end.

Verbs: admissible, bounds, table, verify, poly, restrict, ideal.
Machine-readable output is JSON with snake_case keys and a top-level
schema version; element output uses the grammar `coeff*sym^k` joined by
`+`, ideals print generators joined by `; `.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error, 3 element parse failure, 141 stdout closed by its
reader (the usual code for SIGPIPE).

The parser is built from names spelled out here, so `--help` and usage
errors load no engine module; tests/test_cli.py pins them to the engine.
"""

import argparse
import functools
import os
import sys

import d8index

SCHEMA = "1"

# `bounds.CRITERION_REGISTRY` inverted
_CRITERION_OF_COEFF = {"f2": "F2_D8", "h1f2": "H1_F2", "z": "Z_D8"}

TABLE_COLUMNS = ("j", "ramos", "mvz", "f2_min_d", "z_min_d", "h1_min_d")

# `verify.SUITE_NAMES` plus "all", spelled out so that building the parser
# does not load `verify`; tests/test_cli.py pins the two together
SUITE_CHOICES = ("lemmas", "diagram", "indexes", "oracle", "all")

# the largest `verify --max-degree`: the indexes suite takes about 5.5 s
# at degree 1,024 and grows faster than linearly past it
MAX_VERIFY_DEGREE = 1024


def _emit_json(payload):
    import json
    print(json.dumps(payload))


def cmd_admissible(args):
    from . import bounds
    verdict = bounds.admissible(args.d, args.j, _CRITERION_OF_COEFF[args.coeff])
    _emit_json({"schema": SCHEMA, **verdict.to_dict()})
    return 0


def cmd_bounds(args):
    from . import bounds
    report = bounds.bound_report(args.j, args.scan_cap)
    _emit_json({"schema": SCHEMA, **report.to_dict()})
    return 0


def _table_rows(j_max, scan_cap):
    from . import bounds
    rows = []
    for j in range(1, j_max + 1):
        r = bounds.bound_report(j, scan_cap)
        rows.append({"j": r.j, "ramos": r.ramos_lower, "mvz": r.mvz_upper,
                     "f2_min_d": r.f2_min_d, "z_min_d": r.z_min_d,
                     "h1_min_d": r.h1_min_d})
    return rows


def cmd_table(args):
    rows = _table_rows(args.j_max, args.scan_cap)
    if args.format == "json":
        _emit_json({"schema": SCHEMA, "rows": rows})
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c]
                             for c in TABLE_COLUMNS])
    else:
        str_rows = [[("-" if row[c] is None else str(row[c]))
                     for c in TABLE_COLUMNS] for row in rows]
        widths = [max(len(col), max((len(r[i]) for r in str_rows), default=0))
                  for i, col in enumerate(TABLE_COLUMNS)]
        print("  ".join(c.ljust(w) for c, w in zip(TABLE_COLUMNS, widths)))
        for r in str_rows:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return 0


def cmd_verify(args):
    from . import verify
    checks = verify.run_suite(args.suite, args.max_degree)  # argparse checked the name
    failed = 0
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        detail = f"  [{check.detail}]" if (check.detail and not check.ok) else ""
        print(f"{status} {check.name}{detail}")
        failed += 0 if check.ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# the engine is reached through the package's names, which load their
# home module when a verb first calls them
_FAMILIES = {"pi": lambda d: d8index.pi_poly(d),
             "Pi": lambda d: d8index.capital_pi_poly(d),
             "rho": lambda d: d8index.rho_poly(d)}


def cmd_poly(args):
    print(_FAMILIES[args.family](args.d))
    return 0


def cmd_restrict(args):
    from .homs import restriction
    from .rings import ElementParseError
    try:
        hom = restriction(args.src, args.to, args.coeff.upper())
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        element = hom.domain.parse(args.element)
    except ElementParseError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    print(hom(element))
    return 0


# ideal name -> (flag it needs, generators from the parsed arguments)
_IDEALS = {
    "sphere_f2": ("j", lambda a: d8index.index_sphere_r4j_f2(a.j)),
    "sphere_z": ("j", lambda a: d8index.index_sphere_r4j_z(a.j)),
    "product_spheres_f2":
        ("d", lambda a: d8index.index_product_spheres_f2(a.d, a.kind)),
    "product_spheres_z": ("d", lambda a: d8index.index_product_spheres_z(a.d)),
    "h1_product_z": ("n", lambda a: d8index.index_h1_z_product(a.n)),
    # the names the bounds give the integral sphere and product indexes
    "a_ideal": ("j", lambda a: d8index.index_sphere_r4j_z(a.j)),
    "b_ideal": ("d", lambda a: d8index.index_product_spheres_z(a.d)),
}


def cmd_ideal(args):
    if args.name not in _IDEALS:
        print(f"unknown ideal name {args.name!r}", file=sys.stderr)
        return 2
    flag, build = _IDEALS[args.name]
    if getattr(args, flag) is None:
        print(f"ideal {args.name!r} needs --{flag}", file=sys.stderr)
        return 2
    print("; ".join(str(g) for g in build(args)))
    return 0


def _positive(value):
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


@functools.wraps(_positive)  # argparse names the type in its message for a non-integer
def _verify_degree(value):
    number = _positive(value)
    if number > MAX_VERIFY_DEGREE:
        raise argparse.ArgumentTypeError(
            f"must be <= {MAX_VERIFY_DEGREE}, got {number}")
    return number


def build_parser():
    parser = argparse.ArgumentParser(
        prog="d8index",
        description="Exact index computations for two-hyperplane mass "
                    "partitions under the dihedral symmetry group of order 8.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="evaluate one admissibility criterion")
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--j", type=_positive, required=True)
    p.add_argument("--coeff", choices=sorted(_CRITERION_OF_COEFF), required=True)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("bounds", help="bound report for one value of j")
    p.add_argument("--j", type=_positive, required=True)
    p.add_argument("--scan-cap", type=_positive, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="bound table for j = 1..j_max")
    p.add_argument("--j-max", type=_positive, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--scan-cap", type=_positive, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    p.add_argument("--max-degree", type=_verify_degree, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("poly", help="print a member of a polynomial family")
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("restrict", help="apply a restriction homomorphism")
    p.add_argument("--from", dest="src", required=True,
                   metavar="GROUP", help="source subgroup, e.g. D8")
    p.add_argument("--to", required=True, metavar="GROUP")
    p.add_argument("--coeff", choices=("f2", "z"), required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("ideal", help="print the generators of an index ideal")
    p.add_argument("--name", required=True, help=" | ".join(_IDEALS))
    p.add_argument("--d", type=_positive, default=None)
    p.add_argument("--j", type=_positive, default=None)
    p.add_argument("--n", type=_positive, default=None)
    p.add_argument("--kind", choices=("partial", "full"), default="partial")
    p.set_defaults(func=cmd_ideal)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if [] in vars(args).values():  # argparse (3.11) reads `--opt=--` as []
        print("an option's value is '--'", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def console_main():
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the rest of stdout, including the
        # interpreter's flush at exit, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
