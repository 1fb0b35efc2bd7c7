"""Command-line front end: deterministic reports over the line-oriented formats.

Exit codes: 0 the command succeeded / the checked property holds, 1 a checked
property fails, 2 parse or usage error, 3 a size guard tripped.  Output is a
pure function of the inputs (and seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import chain

from .deltamatroid import g_lanes, h_lanes
from .formats import ParseError, parse_document, ranktable_chunks, ranktable_lane, serialize_value
from .ground import AdmissibleSet, GuardLimitError, SignedPermutation, canonical_reads, check_guard
from .invariants import (
    activity,
    activity_zero_complex,
    independence_fvector,
    independent_activities,
    interlace,
    upoly_direct,
    upoly_recursive,
)
from .lorentzian import (
    conjecture_check,
    efls_gen_poly,
    indep_gen_poly,
    is_lorentzian,
    two_var_ulc_from_report,
)
from .matroid import (
    dm_from_gf2,
    dm_from_matroid,
    enveloping_check,
    enveloping_search,
    example15_upoly,
    render_subset,
    upper_matroid,
)
from .poly import MultiPoly
from .randgen import random_delta_matroids
from .rankfn import H_SYSTEMS, g_axioms, h_axioms, table_by_code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _parse(path: str, text: str, kind: str):
    doc = parse_document(text)
    if doc.kind != kind:
        raise ParseError(f"{path}: expected a {kind} document, found {doc.kind}")
    return doc.value


def _load(path: str, kind: str):
    return _parse(path, _read(path), kind)


def _load_by_code(path: str) -> tuple[int, bytes | list[int]]:
    """A rank-table file's n and values by code: streamed into a lane when written as ``rank-table`` writes it,
    else parsed from its whole text, read again from the start (a file that cannot seek is only read whole)."""
    try:
        with open(path, encoding="utf-8") as file:
            if file.seekable():
                lane = ranktable_lane(file)
                if lane is not None:
                    return lane
                file.seek(0)
            text = file.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    table = _parse(path, text, "rank-table")
    return table.n, table_by_code(table)


def _parse_set(n: int, text: str) -> AdmissibleSet:
    return AdmissibleSet.from_elements(n, [int(t) for t in text.split()])


def _parse_indices(text: str) -> list[int]:
    return [int(t) for t in text.split()]


def _print_poly(p: MultiPoly, as_json: bool) -> None:
    if as_json:
        print(json.dumps(p.json_obj(), separators=(",", ":")))
    else:
        print(p.text())


def _print_report(report) -> int:
    """Print PASS, or the first five violations as FAIL lines; return the exit code."""
    if report.passed:
        print("PASS")
        return 0
    for violation in report.violations[:5]:
        print(f"FAIL: {violation.render()}")
    return 1


# -- handlers -------------------------------------------------------------------


def _cmd_validate(args) -> int:
    d = _load(args.file, "delta-matroid")
    if args.method == "both":
        exchange = d.validate("exchange")
        polytope = d.validate("polytope")
        if exchange.ok != polytope.ok:
            print(f"DISAGREE: exchange={exchange.ok} polytope={polytope.ok}")
            return 1
        report = polytope if not polytope.ok else exchange
    else:
        report = d.validate(args.method)
    if report.ok:
        print("PASS")
        return 0
    print(f"FAIL: {report.message}")
    return 1


def _cmd_info(args) -> int:
    d = _load(args.file, "delta-matroid")
    loops, coloops = d.loops_coloops()
    print(f"n: {d.n}")
    print(f"feasible-sets: {len(d.feasible)}")
    print(f"even: {'yes' if d.is_even() else 'no'}")
    print(f"loops: {' '.join(map(str, loops))}".rstrip())
    print(f"coloops: {' '.join(map(str, coloops))}".rstrip())
    return 0


def _cmd_rank(args) -> int:
    d = _load(args.file, "delta-matroid")
    s = _parse_set(d.n, args.set)
    g, h = d.rank(s)
    print(f"g = {g}")
    print(f"h = {h}")
    return 0


def _cmd_table(args) -> int:
    d = _load(args.file, "delta-matroid")
    by_code = (g_lanes if args.command == "rank-table" else h_lanes)(d.n, d.feasible)
    sys.stdout.writelines(ranktable_chunks(d.n, chain.from_iterable(canonical_reads(d.n, by_code))))
    return 0


def _cmd_upoly(args) -> int:
    d = _load(args.file, "delta-matroid")
    if args.method == "compare":
        direct = upoly_direct(d)
        recursive = upoly_recursive(d)
        if direct == recursive:
            print(f"equal: {direct.text()}")
            return 0
        print(f"DIFFER: direct {direct.text()} recursive {recursive.text()}")
        return 1
    p = upoly_direct(d) if args.method == "direct" else upoly_recursive(d)
    _print_poly(p, args.json)
    return 0


def _cmd_interlace(args) -> int:
    d = _load(args.file, "delta-matroid")
    _print_poly(interlace(d), args.json)
    return 0


def _cmd_fvector(args) -> int:
    d = _load(args.file, "delta-matroid")
    print(independence_fvector(d).render())
    return 0


def _cmd_activity(args) -> int:
    d = _load(args.file, "delta-matroid")
    if args.set is None and not args.all:
        raise ParseError("activity needs --set S or --all")
    if args.set is not None:
        rec = activity(d, _parse_set(d.n, args.set))
        print(f"a: {rec.a}")
        print(f"active: {' '.join(map(str, rec.active))}".rstrip())
        return 0
    sys.stdout.writelines(
        f"{{{label}}}: a={len(active)} active={' '.join(map(str, active))}\n" if active else f"{{{label}}}: a=0\n"
        for label, active in independent_activities(d)
    )
    return 0


def _cmd_complex(args) -> int:
    d = _load(args.file, "delta-matroid")
    report = activity_zero_complex(d)
    print(f"f-vector: {report.fvector.render()}; pure: {'yes' if report.pure else 'no'}")
    return 0


def _cmd_minor(args) -> int:
    d = _load(args.file, "delta-matroid")
    contract = _parse_indices(args.contract)
    delete = _parse_indices(args.delete)
    project = _parse_indices(args.project)
    removed = set(contract) | set(delete) | set(project)
    kept = [i for i in range(1, d.n + 1) if i not in removed]
    result = d.minor(contract=contract, delete=delete, project=project)
    print(f"# kept {' '.join(map(str, kept))}".rstrip())
    sys.stdout.write(serialize_value(result))
    return 0


def _cmd_twist(args) -> int:
    d = _load(args.file, "delta-matroid")
    image = tuple(_parse_indices(args.perm))
    w = SignedPermutation(d.n, image)
    sys.stdout.write(serialize_value(d.twist(w)))
    return 0


def _cmd_product(args) -> int:
    d1 = _load(args.file1, "delta-matroid")
    d2 = _load(args.file2, "delta-matroid")
    sys.stdout.write(serialize_value(d1.product(d2)))
    return 0


def _cmd_upper_matroid(args) -> int:
    d = _load(args.file, "delta-matroid")
    window = _parse_set(d.n, args.window)
    m = upper_matroid(d, window)
    print(f"ground: {render_subset(m.ground)}")
    print(f"rank: {m.rank}")
    for b in m.bases:
        print(f"basis {render_subset(b)}".rstrip())
    return 0


def _cmd_from_matroid(args) -> int:
    m = _load(args.file, "matroid")
    sys.stdout.write(serialize_value(dm_from_matroid(m, args.mode)))
    return 0


def _cmd_from_gf2(args) -> int:
    a = _load(args.file, "gf2-matrix")
    sys.stdout.write(serialize_value(dm_from_gf2(a)))
    return 0


def _cmd_axioms_g(args) -> int:
    report = g_axioms(*_load_by_code(args.file))
    code = _print_report(report)
    if report.passed:
        print(f"even-criterion: {'yes' if report.even else 'no'}")
    return code


def _cmd_axioms_h(args) -> int:
    return _print_report(h_axioms(*_load_by_code(args.file), args.system))


def _cmd_envelope(args) -> int:
    if args.limit < 0:
        raise ParseError("--limit must be non-negative")
    d = _load(args.file, "delta-matroid")
    if args.check is None and not args.search:
        raise ParseError("envelope needs --check MATROIDFILE or --search")
    if args.check is not None:
        return _print_report(enveloping_check(_load(args.check, "matroid"), d))
    result = enveloping_search(d, limit=args.limit)
    if result.status == "found":
        print(f"found after {result.examined} families")
        sys.stdout.write(serialize_value(result.matroid))
        return 0
    if result.status == "none":
        print(f"none: no enveloping matroid exists (searched {result.examined} families)")
    else:
        print(f"inconclusive: budget exhausted after {result.examined} families")
    return 1


def _cmd_lorentzian(args) -> int:
    d = _load(args.file, "delta-matroid")
    p = indep_gen_poly(d) if args.which == "indep" else efls_gen_poly(d)
    if args.json:
        _print_poly(p, True)
    else:
        print(f"polynomial: {p.text()}")
    report = is_lorentzian(p)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_logconc(args) -> int:
    d = _load(args.file, "delta-matroid")
    fv = independence_fvector(d)
    print(f"a: {fv.render()}")
    report = conjecture_check(fv.counts, d.n)
    code = 0
    for ineq in (1, 2, 3):
        violations = report.violations(ineq)
        if violations:
            code = 1
            print("\n".join(violations))
        else:
            print(f"inequality ({ineq}): holds for all k")
    two_var = two_var_ulc_from_report(report)
    print(two_var.render())
    print(f"two-variable check agrees with inequality (2): {'yes' if two_var.matches_binomial_inequality else 'no'}")
    if not two_var.matches_binomial_inequality:
        code = 1
    return code


def _cmd_example15(args) -> int:
    m = _load(args.file, "matroid")
    formula = example15_upoly(m, args.mode)
    if not args.compare:
        _print_poly(formula, False)
        return 0
    direct = upoly_direct(dm_from_matroid(m, args.mode))
    print(f"formula: {formula.text()}")
    print(f"direct: {direct.text()}")
    if formula == direct:
        print("equal")
        return 0
    print("DIFFER")
    return 1


def _cmd_scan(args) -> int:
    from .acceptance import sweep

    if args.random <= 0:
        raise ParseError("--random must be positive")
    if args.size < 0:
        raise ParseError("--size must be non-negative")
    check_guard(args.size)
    failures = 0
    for index, (d, dist) in enumerate(random_delta_matroids(args.random, args.size, args.seed), 1):
        problems = sweep(d)
        status = "ok" if not problems else "FAIL"
        print(f"[{index:04d}] {dist} n={d.n} |F|={len(d.feasible)} {status}")
        for p in problems:
            print(f"        {p}")
        failures += bool(problems)
    if failures:
        print(f"scan: {failures} of {args.random} instances failed")
        return 1
    print(f"scan: {args.random} instances, all identities and inequalities hold")
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    return 0 if run_all() else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; handlers read module globals at call time."""
    parser = argparse.ArgumentParser(
        prog="deltamat",
        description="Delta-matroid workbench: validation, rank functions, invariants, "
        "enveloping matroids, and log-concavity checks in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("validate", _cmd_validate, "check the defining edge/exchange property")
    p.add_argument("file")
    p.add_argument("--method", choices=("exchange", "polytope", "both"), default="both")

    p = add("info", _cmd_info, "ground size, evenness, loops and coloops")
    p.add_argument("file")

    p = add("rank", _cmd_rank, "signed rank g and shifted rank h of one set")
    p.add_argument("file")
    p.add_argument("set", help="signed indices, e.g. '1 -2' ('' for the empty set)")

    p = add("rank-table", _cmd_table, "full g table in canonical order")
    p.add_argument("file")

    p = add("h-table", _cmd_table, "full shifted-rank table in canonical order")
    p.add_argument("file")

    p = add("upoly", _cmd_upoly, "two-variable rank enumerator")
    p.add_argument("file")
    p.add_argument("--method", choices=("direct", "recursive", "compare"), default="direct")
    p.add_argument("--json", action="store_true")

    p = add("interlace", _cmd_interlace, "interlace polynomial (u = 0 slice)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("fvector", _cmd_fvector, "independence-complex face counts")
    p.add_argument("file")

    p = add("activity", _cmd_activity, "active indices of independent sets")
    p.add_argument("file")
    p.add_argument("--set", default=None)
    p.add_argument("--all", action="store_true")

    p = add("complex", _cmd_complex, "activity-zero complex: f-vector and purity")
    p.add_argument("file")

    p = add("minor", _cmd_minor, "contract/delete/project indices (relabelled output)")
    p.add_argument("file")
    p.add_argument("--contract", default="")
    p.add_argument("--delete", default="")
    p.add_argument("--project", default="")

    p = add("twist", _cmd_twist, "apply a signed permutation")
    p.add_argument("file")
    p.add_argument("--perm", required=True, help="images of 1..n, e.g. '2 -1 3'")

    p = add("product", _cmd_product, "direct product of two delta-matroids")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("upper-matroid", _cmd_upper_matroid, "matroid of maximal window overlaps")
    p.add_argument("file")
    p.add_argument("--window", required=True, help="full-size admissible set")

    p = add("from-matroid", _cmd_from_matroid, "delta-matroid from a plain matroid")
    p.add_argument("file")
    p.add_argument("--mode", choices=("bases", "independents"), required=True)

    p = add("from-gf2", _cmd_from_gf2, "delta-matroid from a symmetric GF(2) matrix")
    p.add_argument("file")

    p = add("axioms-g", _cmd_axioms_g, "check the four signed-rank axioms on a table")
    p.add_argument("file")

    p = add("axioms-h", _cmd_axioms_h, "check one shifted-rank axiom system on a table")
    p.add_argument("file")
    p.add_argument("--system", choices=H_SYSTEMS, required=True)

    p = add("envelope", _cmd_envelope, "verify or search for an enveloping matroid")
    p.add_argument("file")
    p.add_argument("--check", default=None, metavar="MATROIDFILE")
    p.add_argument("--search", action="store_true")
    p.add_argument("--limit", type=int, default=200_000)

    p = add("lorentzian", _cmd_lorentzian, "Lorentzian verification of a generating polynomial")
    p.add_argument("file")
    p.add_argument("--which", choices=("indep", "efls"), default="indep")
    p.add_argument("--json", action="store_true")

    p = add("logconc", _cmd_logconc, "log-concavity inequalities on the f-vector")
    p.add_argument("file")

    p = add("example15", _cmd_example15, "closed enumerator formula vs the direct sum")
    p.add_argument("file")
    p.add_argument("--mode", choices=("bases", "independents"), required=True)
    p.add_argument("--compare", action="store_true")

    p = add("scan", _cmd_scan, "random instances through the full identity sweep")
    p.add_argument("--random", type=int, required=True, metavar="N")
    p.add_argument("--size", type=int, required=True, metavar="n")
    p.add_argument("--seed", type=int, default=0)

    add("selftest", _cmd_selftest, "run the acceptance suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GuardLimitError, MemoryError) as exc:  # the guard, and a backstop for what it admitted
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a checked structural property failed hard
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
