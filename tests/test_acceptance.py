"""Acceptance gate: every exit criterion runs at its pinned scale and scope.

One test per criterion, printing a PASS/FAIL line; another replays the whole
selftest twice and requires the pinned report both times.  The identity list
is shared by ``scan`` and the criteria, so breaking one entry's subject must
show in both.
"""

import io
from contextlib import redirect_stdout

import pytest

from deltamat import acceptance, cli
from deltamat.acceptance import CRITERIA, run_criterion
from deltamat.deltamatroid import DeltaMatroid, RankTable, ValidationReport
from deltamat.ground import SignedPermutation
from deltamat.invariants import FVector
from deltamat.lorentzian import InequalityCheck, LogConcavityReport
from deltamat.poly import MultiPoly
from deltamat.rankfn import AxiomReport


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("slug", [slug for slug, _ in CRITERIA])
def test_criterion(slug):
    ok, detail = run_criterion(slug)
    print(f"{'PASS' if ok else 'FAIL'} {slug}: {detail}")
    assert ok, f"{slug}: {detail}"


# the pinned report: each criterion's counts are part of its scope
SELFTEST = (
    "PASS 01 validator-equivalence: 10273 families compared, zero disagreements\n"
    "PASS 02 rank-axioms: 174 valid instances round-trip; 1296 candidate tables scanned, 15 axiom-passing tables all reconstruct\n"
    "PASS 03 upoly-consistency: 274 instances agree across methods; product identity on 100 pairs\n"
    "PASS 04 example-triangle: v=-1 slice, activity-zero complex (1, 6, 6, not pure), and f-vector all reproduce\n"
    "PASS 05 activity-expansion: 224 instances match the v-1 substitution with non-negative coefficients\n"
    "PASS 06 fvector-lattice: 174 instances: u-slice coefficients and lattice points match face counts\n"
    "PASS 07 operation-identities: 173 instances pass all minor/twist/window identities; 99 products additive\n"
    "PASS 08 h-systems: 174 instances pass all three systems; converse at n=2 realizes 15 bouchet and 15 allys tables\n"
    "PASS 09 matroid-formulas: closed formulas agree on uniform matroids (18 modes); printed-formula discrepancy reported\n"
    "PASS 10 envelope-lorentzian: 6 enveloped fixtures pass; sum of squares rejected with inertia (2, 0, 0)\n"
    "PASS 11 multiaffine: 20 Lorentzian fixtures keep the property under multiaffine truncation\n"
    "PASS 12 pure-o-sequence: 1174 independence f-vectors satisfy both inequality families\n"
    "PASS 13 gf2-constructor: 74 symmetric matrices produce valid delta-matroids; interlace check exact\n"
    "PASS 14 cli-determinism: 31 commands byte-identical across two runs\n"
    "selftest: all criteria pass\n"
)


def test_selftest_byte_identical_across_runs():
    first = run(["selftest"])
    assert first == (0, SELFTEST)
    assert run(["selftest"]) == first


ONE = MultiPoly.constant(1, ("u", "v"))
FAILED = AxiomReport(False, ())

# (entry, owner of the broken name, name, replacement given the real one,
#  problem line scan prints, criterion that runs the entry and fails on that line)
BREAKS = [
    ("enumerators", acceptance, "upoly_recursive", lambda real: lambda d: real(d) + ONE,
     "direct and recursive enumerators differ", "upoly-consistency"),
    ("activity-expansion", acceptance, "activity_expansion", lambda real: lambda d: real(d) + ONE,
     "activity expansion does not match the v-1 substitution", "activity-expansion"),
    ("activity-expansion", acceptance, "activity_expansion", lambda real: lambda d: -real(d),
     "activity expansion has a negative coefficient", None),
    ("u-slice", acceptance, "independence_fvector",
     lambda real: lambda d: FVector(real(d).counts[:-1] + (real(d).counts[-1] + 1,)),
     "u-slice coefficients do not match the f-vector", "fvector-lattice"),
    ("lattice", DeltaMatroid, "lattice_point_test", lambda real: lambda self: False,
     "lattice points do not match independent sets", "fvector-lattice"),
    ("pure-o", acceptance, "pure_o_inequalities", lambda real: lambda f: FAILED,
     "pure O-sequence inequalities fail", "pure-o-sequence"),
    ("conjecture", acceptance, "conjecture_check",
     lambda real: lambda a, n: LogConcavityReport(n, tuple(a), (InequalityCheck(1, 3, 4, 9),)),
     "CONJECTURE VIOLATION: inequality (3) fails at k=1: 4 < 9", None),
    ("g-axioms", acceptance, "check_g_axioms", lambda real: lambda t: FAILED,
     "rank table fails the four axioms", None),
    ("h-systems", acceptance, "check_h_axioms",
     lambda real: lambda t, system: FAILED if system == "allys" else real(t, system),
     "h table fails the allys system", "h-systems"),
]


@pytest.mark.parametrize("entry, owner, name, breaker, line, slug", BREAKS, ids=[b[4] for b in BREAKS])
def test_broken_entry_fails_scan_and_criterion(monkeypatch, entry, owner, name, breaker, line, slug):
    assert entry in dict(acceptance.IDENTITIES)
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    code, out = run(["scan", "--random", "6", "--size", "3", "--seed", "11"])
    lines = out.splitlines()
    assert code == 1
    assert lines[-1] == "scan: 6 of 6 instances failed"
    assert sum(status.endswith(" FAIL") for status in lines) == 6
    assert lines.count(f"        {line}") == 6
    if slug is not None:
        ok, detail = run_criterion(slug)
        assert not ok and detail.startswith(f"{line} on "), detail


# (operation broken, replacement given the real one, start of the criterion's failure)
OPERATION_BREAKS = [
    ("minor", lambda real: lambda d, contract=(), delete=(), project=(): real(d, delete, contract, project),
     "minor rank identity fails on "),
    ("twist", lambda real: lambda d, w: real(d, w.inverse()), "twist identity fails on "),
    ("product", lambda real: lambda d, other: real(other, d), "product rank identity fails for "),
]


@pytest.mark.parametrize("name, breaker, message", OPERATION_BREAKS, ids=[b[0] for b in OPERATION_BREAKS])
def test_broken_operation_fails_operation_identities(monkeypatch, name, breaker, message):
    monkeypatch.setattr(DeltaMatroid, name, breaker(getattr(DeltaMatroid, name)))
    ok, detail = run_criterion("operation-identities")
    assert not ok and detail.startswith(message), detail


def test_operation_identities_compare_tables_not_sets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a single-set path ran")

    for owner, name in ((DeltaMatroid, "g"), (SignedPermutation, "apply"), (RankTable, "items")):
        monkeypatch.setattr(owner, name, refuse)
    assert run_criterion("operation-identities") == (
        True,
        "173 instances pass all minor/twist/window identities; 99 products additive",
    )


def test_sweep_reports_entries_in_list_order(monkeypatch):
    # negating the expansion breaks both of its lines, so the "+ 1" break is left out
    for _, owner, name, breaker, _, _ in BREAKS[:1] + BREAKS[2:]:
        monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    code, out = run(["scan", "--random", "1", "--size", "3", "--seed", "11"])
    assert code == 1
    assert out.splitlines()[1:-1] == [f"        {b[4]}" for b in BREAKS]


def test_sweep_runs_axiom_entries_up_to_n4(monkeypatch):
    monkeypatch.setattr(acceptance, "check_g_axioms", lambda table: FAILED)
    for size, last in (
        (4, "scan: 3 of 3 instances failed"),
        (5, "scan: 3 instances, all identities and inequalities hold"),
    ):
        _, out = run(["scan", "--random", "3", "--size", str(size), "--seed", "11"])
        assert out.splitlines()[-1] == last


def test_sweep_stops_on_an_invalid_family(monkeypatch):
    bad = DeltaMatroid(3, [0b111, 0])
    assert acceptance.sweep(bad) == [f"invalid: {bad.validate('exchange').message}"]
    real = DeltaMatroid.validate
    monkeypatch.setattr(
        DeltaMatroid,
        "validate",
        lambda d, method: ValidationReport(False, method) if method == "polytope" else real(d, method),
    )
    assert acceptance.sweep(acceptance.TRIPOD) == ["validators disagree"]
