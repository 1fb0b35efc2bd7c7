"""The acceptance suite: one callable per exit criterion, shared by the
``selftest`` command and the pytest acceptance module.

Each criterion either returns a short success detail or raises CheckFailure
with the first offending witness.  Everything is exact, seeded, and scale-
pinned here, so two runs print identical reports.
"""

from __future__ import annotations

import io
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from typing import Callable

from .deltamatroid import DeltaMatroid, RankTable, all_full_size_masks
from .ground import AdmissibleSet, SignedPermutation, enumerate_admissible
from .invariants import (
    activity,
    activity_expansion,
    activity_zero_complex,
    independence_fvector,
    interlace,
    pure_o_inequalities,
    substitute_v_minus_1,
    upoly_direct,
    upoly_recursive,
)
from .lorentzian import (
    InertiaTriple,
    conjecture_check,
    indep_gen_poly,
    is_lorentzian,
    two_var_ulc_check,
)
from .matroid import (
    Gf2SymMatrix,
    Matroid,
    dm_from_gf2,
    dm_from_matroid,
    enveloping_check,
    example15_rank,
    example15_upoly,
    upper_matroid,
)
from .poly import MultiPoly
from .randgen import random_delta_matroids
from .rankfn import check_g_axioms, check_h_axioms, delta_from_rank, greedy_check


class CheckFailure(Exception):
    pass


def ensure(condition: bool, message: Callable[[], str]) -> None:
    """Raise CheckFailure with ``message()``; the text is built only on failure."""
    if not condition:
        raise CheckFailure(message())


def _first(report) -> str:
    return report.violations[0].render() if report.violations else "(no witness)"


# -- shared fixtures -----------------------------------------------------------

TRIPOD = DeltaMatroid.from_signed_lists(3, [[1, -2, -3], [-1, 2, -3], [-1, -2, 3]])
COLOOP1 = DeltaMatroid.from_signed_lists(1, [[1]])
LOOP1 = DeltaMatroid.from_signed_lists(1, [[-1]])
FREE1 = DeltaMatroid.from_signed_lists(1, [[1], [-1]])


def free_delta(n: int) -> DeltaMatroid:
    return DeltaMatroid(n, range(1 << n))


@lru_cache(maxsize=None)
def valid_delta_matroids(n: int) -> tuple[DeltaMatroid, ...]:
    """Every valid delta-matroid on ground size n, by exhaustive filtering."""
    masks = all_full_size_masks(n)
    out = []
    for k in range(1, len(masks) + 1):
        for fam in combinations(masks, k):
            d = DeltaMatroid(n, fam)
            if d.validate("exchange").ok:
                out.append(d)
    return tuple(out)


def _compact_map(n: int, removed: set[int]):
    """Map original signed elements to the relabelled minor coordinates."""
    kept = [i for i in range(1, n + 1) if i not in removed]
    new_of = {orig: k for k, orig in enumerate(kept, start=1)}

    def remap(s: AdmissibleSet) -> AdmissibleSet:
        return AdmissibleSet.from_elements(
            len(kept), [(1 if e > 0 else -1) * new_of[abs(e)] for e in s.elements()]
        )

    return kept, remap


# -- criteria -------------------------------------------------------------------


def criterion_validator_equivalence() -> str:
    checked = 0
    for n in (1, 2):
        masks = all_full_size_masks(n)
        for k in range(1, len(masks) + 1):
            for fam in combinations(masks, k):
                d = DeltaMatroid(n, fam)
                a, b = d.validate("exchange").ok, d.validate("polytope").ok
                ensure(a == b, lambda: f"disagreement at n={n} family {fam}: exchange={a} polytope={b}")
                checked += 1
    masks3 = all_full_size_masks(3)
    for k in range(1, len(masks3) + 1):  # exhaustive, a superset of the <= 4-set requirement
        for fam in combinations(masks3, k):
            d = DeltaMatroid(3, fam)
            a, b = d.validate("exchange").ok, d.validate("polytope").ok
            ensure(a == b, lambda: f"disagreement at n=3 family {fam}: exchange={a} polytope={b}")
            checked += 1
    rng = random.Random(48103)
    for i in range(10_000):
        size = rng.randint(7, 16) if i % 20 == 0 else rng.randint(1, 6)
        d = DeltaMatroid(4, rng.sample(range(16), size))
        a, b = d.validate("exchange").ok, d.validate("polytope").ok
        ensure(a == b, lambda: f"disagreement at n=4 family {d.feasible}: exchange={a} polytope={b}")
        checked += 1
    return f"{checked} families compared, zero disagreements"


def criterion_rank_axioms() -> str:
    forward = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            table = d.rank_table()
            report = check_g_axioms(table)
            ensure(report.passed, lambda: f"axioms fail on a valid instance: {_first(report)}")
            ensure(delta_from_rank(table) == d, lambda: f"round-trip failed for {d!r}")
            ensure(
                report.even == d.is_even(),
                lambda: f"evenness criterion disagrees with parity check on {d!r}",
            )
            forward += 1
    # backward, exhaustive at n = 2 over parity-consistent bounded tables
    sets2 = enumerate_admissible(2)
    singles = [i for i, s in enumerate(sets2) if s.size == 1]
    pairs = [i for i, s in enumerate(sets2) if s.size == 2]
    reconstructed = 0
    tables = 0
    for singleton_vals in product((-1, 1), repeat=len(singles)):
        for pair_vals in product((-2, 0, 2), repeat=len(pairs)):
            values = [0] * len(sets2)
            for i, v in zip(singles, singleton_vals):
                values[i] = v
            for i, v in zip(pairs, pair_vals):
                values[i] = v
            table = RankTable(2, tuple(values))
            tables += 1
            if not check_g_axioms(table).passed:
                continue
            d = delta_from_rank(table)
            ensure(d.validate("exchange").ok, lambda: f"reconstruction invalid (exchange): {d!r}")
            ensure(d.validate("polytope").ok, lambda: f"reconstruction invalid (polytope): {d!r}")
            ensure(d.rank_table() == table, lambda: f"reconstruction does not round-trip: {d!r}")
            reconstructed += 1
    return (
        f"{forward} valid instances round-trip; {tables} candidate tables scanned, "
        f"{reconstructed} axiom-passing tables all reconstruct"
    )


def criterion_upoly_consistency() -> str:
    count = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            ensure(
                upoly_direct(d) == upoly_recursive(d),
                lambda: f"direct and recursive enumerators differ on {d!r}",
            )
            count += 1
    for d, dist in random_delta_matroids(100, 5, seed=52001):
        ensure(
            upoly_direct(d) == upoly_recursive(d),
            lambda: f"direct and recursive enumerators differ on random n=5 ({dist}) {d!r}",
        )
        count += 1
    rng = random.Random(52002)
    pair_count = 0
    for _ in range(100):
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        d1 = rng.choice(valid_delta_matroids(n1))
        d2 = rng.choice(valid_delta_matroids(n2))
        ensure(
            upoly_direct(d1.product(d2)) == upoly_direct(d1) * upoly_direct(d2),
            lambda: f"product identity fails for {d1!r} x {d2!r}",
        )
        pair_count += 1
    return f"{count} instances agree across methods; product identity on {pair_count} pairs"


def criterion_example_triangle() -> str:
    u = MultiPoly(("u", "v"), {(1, 0): 1})
    expected = u**3 + 6 * u**2 + 6 * u
    at_minus1 = substitute_v_minus_1(upoly_direct(TRIPOD)).substitute("v", MultiPoly.constant(0, ("v",)))
    ensure(at_minus1 == expected, lambda: f"u-slice at v=-1 is {at_minus1.text()}")
    report = activity_zero_complex(TRIPOD)
    ensure(report.fvector.counts == (1, 6, 6), lambda: f"complex f-vector {report.fvector.render()}")
    ensure(not report.pure, lambda: "activity-zero complex unexpectedly pure")
    for b in TRIPOD.feasible_sets():
        ensure(activity(TRIPOD, b).a >= 1, lambda: f"feasible set {{{b.render()}}} has no active index")
    fv = independence_fvector(TRIPOD)
    ensure(fv.counts == (1, 6, 9, 3), lambda: f"independence f-vector {fv.render()}")
    return "v=-1 slice, activity-zero complex (1, 6, 6, not pure), and f-vector all reproduce"


def criterion_activity_expansion() -> str:
    count = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            expansion = activity_expansion(d)
            ensure(
                expansion == substitute_v_minus_1(upoly_direct(d)),
                lambda: f"activity expansion mismatch on {d!r}",
            )
            ensure(
                all(c > 0 for c in expansion.terms.values()),
                lambda: f"negative coefficient in expansion of {d!r}",
            )
            count += 1
    for d, dist in random_delta_matroids(50, 5, seed=52003):
        expansion = activity_expansion(d)
        ensure(
            expansion == substitute_v_minus_1(upoly_direct(d)),
            lambda: f"activity expansion mismatch on random n=5 ({dist}) {d!r}",
        )
        ensure(all(c > 0 for c in expansion.terms.values()), lambda: f"negative coefficient for {d!r}")
        count += 1
    return f"{count} instances match the v-1 substitution with non-negative coefficients"


def criterion_fvector_lattice() -> str:
    count = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            fv = independence_fvector(d).counts
            at_zero = upoly_direct(d).substitute("v", MultiPoly.constant(0, ("v",)))
            coeffs = at_zero.coefficient_list("u") + [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                ensure(
                    coeffs[n - k] == fv[k],
                    lambda: f"coefficient of u^{n - k} is {coeffs[n - k]}, f-vector says {fv[k]} on {d!r}",
                )
            ensure(d.lattice_point_test(), lambda: f"lattice points differ from independents on {d!r}")
            count += 1
    return f"{count} instances: u-slice coefficients and lattice points match face counts"


def criterion_operation_identities() -> str:
    count = 0
    for n in range(1, 4):
        sets = enumerate_admissible(n)
        index_range = list(range(1, n + 1))
        for d in valid_delta_matroids(n):
            g = dict(d.rank_table().items())
            # projection
            for asize in range(1, n + 1):
                for a_group in combinations(index_range, asize):
                    kept, remap = _compact_map(n, set(a_group))
                    proj = d.minor(project=a_group)
                    for s in sets:
                        if s.underline & _mask_of(a_group):
                            continue
                        ensure(
                            proj.g(remap(s)) == g[s],
                            lambda: f"projection rank identity fails on {d!r} "
                            f"at A={a_group} S={{{s.render()}}}",
                        )
            # contraction/deletion, including the single-element lemma
            loops, coloops = d.loops_coloops()
            for a_group, b_group in _disjoint_pairs(index_range):
                removed = set(a_group) | set(b_group)
                if not removed:
                    continue
                kept, remap = _compact_map(n, removed)
                minor = d.minor(contract=a_group, delete=b_group)
                shift = AdmissibleSet.from_elements(
                    n, [i for i in a_group] + [-i for i in b_group]
                )
                base = g[shift]
                for s in sets:
                    if s.underline & _mask_of(removed):
                        continue
                    ensure(
                        minor.g(remap(s)) == g[s.union(shift)] - base,
                        lambda: f"minor rank identity fails on {d!r} "
                        f"at A={a_group} B={b_group} S={{{s.render()}}}",
                    )
            for i in index_range:
                kept, remap = _compact_map(n, {i})
                if i not in loops:
                    contracted = d.minor(contract=[i])
                    for s in sets:
                        if s.underline >> (i - 1) & 1:
                            continue
                        ensure(
                            contracted.g(remap(s)) == g[s.with_element(i)] - 1,
                            lambda: f"contraction lemma fails on {d!r} at i={i} S={{{s.render()}}}",
                        )
                if i not in coloops:
                    deleted = d.minor(delete=[i])
                    for s in sets:
                        if s.underline >> (i - 1) & 1:
                            continue
                        ensure(
                            deleted.g(remap(s)) == g[s.with_element(-i)] - 1,
                            lambda: f"deletion lemma fails on {d!r} at i={i} S={{{s.render()}}}",
                        )
            # twists over the full signed permutation group
            for w in _signed_permutations(n):
                twisted = d.twist(w)
                w_inv = w.inverse()
                for s in sets:
                    ensure(
                        twisted.g(s) == g[w_inv.apply(s)],
                        lambda: f"twist identity fails on {d!r} at w={w.image} S={{{s.render()}}}",
                    )
            # upper matroids over every window
            for window_mask in all_full_size_masks(n):
                window = AdmissibleSet(n, window_mask, ((1 << n) - 1) & ~window_mask)
                m = upper_matroid(d, window)
                welems = window.elements()
                for k in range(n + 1):
                    for chosen in combinations(welems, k):
                        t = AdmissibleSet.from_elements(n, chosen)
                        ensure(
                            2 * m.rank_of(chosen) == g[t] + t.size,
                            lambda: f"upper-matroid rank fails on {d!r} "
                            f"window {{{window.render()}}} T={{{t.render()}}}",
                        )
            ensure(greedy_check(d).passed, lambda: f"greedy property fails on {d!r}")
            count += 1
    # products over all valid pairs with total ground size at most 3
    pairs = 0
    for n1, n2 in ((1, 1), (1, 2), (2, 1)):
        for d1 in valid_delta_matroids(n1):
            for d2 in valid_delta_matroids(n2):
                prod = d1.product(d2)
                for s in enumerate_admissible(n1 + n2):
                    s1 = AdmissibleSet(n1, s.pos & ((1 << n1) - 1), s.neg & ((1 << n1) - 1))
                    s2 = AdmissibleSet(n2, s.pos >> n1, s.neg >> n1)
                    ensure(
                        prod.g(s) == d1.g(s1) + d2.g(s2),
                        lambda: f"product rank identity fails for {d1!r} x {d2!r} at {{{s.render()}}}",
                    )
                pairs += 1
    return f"{count} instances pass all minor/twist/window identities; {pairs} products additive"


def _mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def _disjoint_pairs(index_range):
    for asize in range(len(index_range) + 1):
        for a_group in combinations(index_range, asize):
            rest = [i for i in index_range if i not in a_group]
            for bsize in range(len(rest) + 1):
                for b_group in combinations(rest, bsize):
                    yield a_group, b_group


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[SignedPermutation, ...]:
    from itertools import permutations, product

    out = []
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            out.append(SignedPermutation(n, tuple(p * s for p, s in zip(perm, signs))))
    return tuple(out)


def criterion_h_systems() -> str:
    forward = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            h = d.h_table()
            for system in ("larson", "bouchet", "allys"):
                report = check_h_axioms(h, system)
                ensure(
                    report.passed,
                    lambda: f"{system} system fails on valid {d!r}: {_first(report)}",
                )
            forward += 1
    # exhaustive converse at n <= 2: every bouchet/allys-passing table is some h_D
    realized = {d.h_table().values: d for d in valid_delta_matroids(2)}
    sets2 = enumerate_admissible(2)
    singles = [i for i, s in enumerate(sets2) if s.size == 1]
    pairs = [i for i, s in enumerate(sets2) if s.size == 2]
    converse_hits = {"bouchet": 0, "allys": 0}
    for singleton_vals in product((0, 1), repeat=len(singles)):
        for pair_vals in product((0, 1, 2), repeat=len(pairs)):
            values = [0] * len(sets2)
            for i, v in zip(singles, singleton_vals):
                values[i] = v
            for i, v in zip(pairs, pair_vals):
                values[i] = v
            table = RankTable(2, tuple(values))
            for system in ("bouchet", "allys"):
                if check_h_axioms(table, system).passed:
                    ensure(
                        table.values in realized,
                        lambda: f"{system}-passing table {table.values} is no delta-matroid's h",
                    )
                    converse_hits[system] += 1
    realized1 = {d.h_table().values for d in valid_delta_matroids(1)}
    for v1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        table = RankTable(1, (0,) + v1)
        for system in ("bouchet", "allys"):
            if check_h_axioms(table, system).passed:
                ensure(
                    table.values in realized1,
                    lambda: f"{system}-passing table {table.values} is no delta-matroid's h",
                )
    return (
        f"{forward} instances pass all three systems; converse at n=2 realizes "
        f"{converse_hits['bouchet']} bouchet and {converse_hits['allys']} allys tables"
    )


def criterion_matroid_formulas() -> str:
    checked = 0
    for n in range(1, 4):
        for r in range(n + 1):
            m = Matroid.uniform(r, n)
            for mode in ("bases", "independents"):
                d = dm_from_matroid(m, mode)
                for s in enumerate_admissible(n):
                    ensure(
                        example15_rank(m, s, mode) == d.g(s),
                        lambda: f"closed rank formula ({mode}) fails on U({r},{n}) at {{{s.render()}}}",
                    )
                checked += 1
            ensure(
                example15_upoly(m, "bases") == upoly_direct(dm_from_matroid(m, "bases")),
                lambda: f"closed enumerator (bases) differs on U({r},{n})",
            )
    # the printed independents-mode formula must be reported as discrepant by the CLI
    from . import cli
    from .formats import serialize_value

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u11.matroid"
        path.write_text(serialize_value(Matroid.uniform(1, 1)))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["example15", str(path), "--mode", "independents", "--compare"])
        output = buf.getvalue()
    ensure(code == 1, lambda: f"comparison command exited {code}, expected 1")
    ensure(
        "4 + u" in output and "2 + u" in output,
        lambda: f"comparison output was: {output!r}",
    )
    return f"closed formulas agree on uniform matroids ({checked} modes); printed-formula discrepancy reported"


def _lorentzian_fixtures() -> list[tuple[DeltaMatroid, Matroid]]:
    fixtures: list[tuple[DeltaMatroid, Matroid]] = []
    for n in (1, 2, 3):
        fixtures.append((free_delta(n), Matroid.pair_partition(n)))
    fixtures.append((COLOOP1, Matroid.signed(1, [[1]])))
    fixtures.append((LOOP1, Matroid.signed(1, [[-1]])))
    fixtures.append(
        (
            dm_from_matroid(Matroid.uniform(1, 2), "bases"),
            Matroid.signed(2, [[1, -2], [-1, 2], [1, -1], [2, -2]]),
        )
    )
    return fixtures


def criterion_envelope_lorentzian() -> str:
    for d, envelope in _lorentzian_fixtures():
        report = enveloping_check(envelope, d)
        ensure(report.passed, lambda: f"envelope rejected for {d!r}: {_first(report)}")
        lor = is_lorentzian(indep_gen_poly(d))
        ensure(lor.passed, lambda: f"generating polynomial not Lorentzian for {d!r}: {lor.render()}")
        logconc = conjecture_check(independence_fvector(d).counts, d.n)
        ensure(
            logconc.all_hold(inequality=2),
            lambda: f"binomial inequality fails for {d!r}: {logconc.failures()}",
        )
        two_var = two_var_ulc_check(d)
        ensure(two_var.log_concave, lambda: f"normalized sequence not log-concave for {d!r}")
        ensure(two_var.matches_binomial_inequality, lambda: f"two-variable check disagrees for {d!r}")
    negative = is_lorentzian(MultiPoly(("w1", "w2"), {(2, 0): 1, (0, 2): 1}))
    ensure(not negative.passed, lambda: "sum of squares accepted as Lorentzian")
    ensure(
        negative.hessian_witness is not None
        and negative.hessian_witness[1] == InertiaTriple(2, 0, 0),
        lambda: f"negative control inertia was {negative.hessian_witness}",
    )
    return f"{len(_lorentzian_fixtures())} enveloped fixtures pass; sum of squares rejected with inertia (2, 0, 0)"


def criterion_multiaffine() -> str:
    fixtures: list[MultiPoly] = []
    rng = random.Random(52004)
    variables = ("w0", "w1", "w2", "w3")
    unit = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    while len(fixtures) < 14:
        factors = rng.randint(2, 4)
        p = MultiPoly.constant(1, variables)
        for _ in range(factors):
            terms = {unit[j]: rng.randint(0, 3) for j in range(4)}
            linear = MultiPoly(variables, {k: c for k, c in terms.items() if c})
            if linear.is_zero():
                linear = MultiPoly(variables, {unit[0]: 1})
            p = p * linear
        fixtures.append(p)
    for d, _ in _lorentzian_fixtures():
        fixtures.append(indep_gen_poly(d))
    checked = 0
    for p in fixtures:
        before = is_lorentzian(p)
        ensure(before.passed, lambda: f"fixture not Lorentzian to begin with: {p.text()}")
        after = is_lorentzian(p.multiaffine_part("w0"))
        ensure(after.passed, lambda: f"multiaffine part loses the Lorentzian property: {p.text()}")
        checked += 1
    return f"{checked} Lorentzian fixtures keep the property under multiaffine truncation"


def criterion_pure_o() -> str:
    count = 0
    for n in range(4):
        for d in valid_delta_matroids(n):
            report = pure_o_inequalities(independence_fvector(d))
            ensure(report.passed, lambda: f"pure O-sequence inequality fails on {d!r}")
            count += 1
    for d, dist in random_delta_matroids(1000, 4, seed=52005):
        report = pure_o_inequalities(independence_fvector(d))
        ensure(report.passed, lambda: f"pure O-sequence inequality fails on random ({dist}) {d!r}")
        count += 1
    return f"{count} independence f-vectors satisfy both inequality families"


def criterion_gf2() -> str:
    count = 0
    for n in range(1, 4):
        entries_positions = [(i, j) for i in range(n) for j in range(i, n)]
        for bits in range(1 << len(entries_positions)):
            rows = [0] * n
            for b, (i, j) in enumerate(entries_positions):
                if bits >> b & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            d = dm_from_gf2(Gf2SymMatrix(n, tuple(rows)))
            ensure(d.validate("exchange").ok, lambda: f"GF(2) output fails exchange validation: {rows}")
            ensure(d.validate("polytope").ok, lambda: f"GF(2) output fails polytope validation: {rows}")
            count += 1
    poly = interlace(dm_from_gf2(Gf2SymMatrix.from_lists([[0, 1], [1, 0]])))
    expected = MultiPoly(("v",), {(1,): 2, (0,): 2})
    ensure(poly == expected, lambda: f"interlace of the 2x2 swap matrix is {poly.text()}")
    return f"{count} symmetric matrices produce valid delta-matroids; interlace check exact"


def criterion_cli_determinism() -> str:
    """Every CLI command (selftest aside) prints identical bytes on two runs."""
    from . import cli
    from .formats import serialize_value

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        files = {
            "dex.dm": serialize_value(TRIPOD),
            "dco.dm": serialize_value(COLOOP1),
            "bad.dm": "n 3\nfeasible 1 2 3\nfeasible -1 -2 -3\n",
            "u12.matroid": serialize_value(Matroid.uniform(1, 2)),
            "env.matroid": serialize_value(Matroid.signed(2, [[1, -2], [-1, 2], [1, -1], [2, -2]])),
            "swap.gf2": "gf2 2\n0 1\n1 0\n",
            "dexu12.dm": serialize_value(dm_from_matroid(Matroid.uniform(1, 2), "bases")),
        }
        for name, text in files.items():
            (base / name).write_text(text)
        dex = str(base / "dex.dm")
        commands = [
            ["validate", dex],
            ["validate", str(base / "bad.dm")],
            ["validate", dex, "--method", "polytope"],
            ["info", dex],
            ["rank", dex, "1 2"],
            ["rank-table", dex],
            ["upoly", dex, "--method", "compare"],
            ["upoly", dex, "--json"],
            ["interlace", dex],
            ["fvector", dex],
            ["activity", dex, "--all"],
            ["activity", dex, "--set", "-2 -3"],
            ["complex", dex],
            ["minor", dex, "--contract", "1"],
            ["twist", dex, "--perm", "-1 -2 -3"],
            ["product", str(base / "dco.dm"), str(base / "dco.dm")],
            ["upper-matroid", dex, "--window", "1 2 3"],
            ["from-matroid", str(base / "u12.matroid"), "--mode", "bases"],
            ["from-gf2", str(base / "swap.gf2")],
            ["rank-table", str(base / "dco.dm")],
            ["envelope", str(base / "dexu12.dm"), "--check", str(base / "env.matroid")],
            ["envelope", str(base / "dco.dm"), "--search"],
            ["lorentzian", dex, "--which", "indep"],
            ["lorentzian", dex, "--which", "efls"],
            ["logconc", dex],
            ["example15", str(base / "u12.matroid"), "--mode", "bases", "--compare"],
            ["scan", "--random", "6", "--size", "3", "--seed", "11"],
        ]
        # axioms commands need a rank-table fixture generated first
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["rank-table", dex])
        (base / "dex.rt").write_text(buf.getvalue())
        commands.append(["axioms-g", str(base / "dex.rt")])
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["h-table", dex])
        (base / "dex.ht").write_text(buf.getvalue())
        for system in ("larson", "bouchet", "allys"):
            commands.append(["axioms-h", str(base / "dex.ht"), "--system", system])

        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli.main(argv)
                outputs.append((code, buf.getvalue()))
            ensure(
                outputs[0] == outputs[1],
                lambda: f"command {' '.join(argv)} differs between two runs",
            )
    return f"{len(commands)} commands byte-identical across two runs"


CRITERIA = [
    ("validator-equivalence", criterion_validator_equivalence),
    ("rank-axioms", criterion_rank_axioms),
    ("upoly-consistency", criterion_upoly_consistency),
    ("example-triangle", criterion_example_triangle),
    ("activity-expansion", criterion_activity_expansion),
    ("fvector-lattice", criterion_fvector_lattice),
    ("operation-identities", criterion_operation_identities),
    ("h-systems", criterion_h_systems),
    ("matroid-formulas", criterion_matroid_formulas),
    ("envelope-lorentzian", criterion_envelope_lorentzian),
    ("multiaffine", criterion_multiaffine),
    ("pure-o-sequence", criterion_pure_o),
    ("gf2-constructor", criterion_gf2),
    ("cli-determinism", criterion_cli_determinism),
]


def run_criterion(slug: str) -> tuple[bool, str]:
    fn = dict(CRITERIA)[slug]
    try:
        return True, fn()
    except CheckFailure as exc:
        return False, str(exc)


def run_all(echo=print) -> bool:
    all_ok = True
    for index, (slug, _) in enumerate(CRITERIA, start=1):
        ok, detail = run_criterion(slug)
        echo(f"{'PASS' if ok else 'FAIL'} {index:02d} {slug}: {detail}")
        all_ok = all_ok and ok
    echo("selftest: all criteria pass" if all_ok else "selftest: FAILURES present")
    return all_ok
