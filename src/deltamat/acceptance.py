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
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product
from pathlib import Path
from typing import Callable

from .deltamatroid import DeltaMatroid, RankTable, all_full_size_masks, g_lanes
from .formats import serialize_value
from .ground import AdmissibleSet, SignedPermutation, code_masks, enumerate_admissible, set_of_code
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
    two_var_ulc_from_report,
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
from .rankfn import H_SYSTEMS, check_g_axioms, check_h_axioms, delta_from_rank, greedy_check


class CheckFailure(Exception):
    pass


def ensure(condition: bool, message: Callable[[], str]) -> None:
    """Raise CheckFailure with ``message()``; the text is built only on failure."""
    if not condition:
        raise CheckFailure(message())


def _first(report) -> str:
    return report.violations[0].render() if report.violations else "(no witness)"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run."""
    from . import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- shared fixtures -----------------------------------------------------------

TRIPOD = DeltaMatroid.from_signed_lists(3, [[1, -2, -3], [-1, 2, -3], [-1, -2, 3]])
COLOOP1 = DeltaMatroid.from_signed_lists(1, [[1]])
LOOP1 = DeltaMatroid.from_signed_lists(1, [[-1]])
FREE1 = DeltaMatroid.from_signed_lists(1, [[1], [-1]])


def free_delta(n: int) -> DeltaMatroid:
    return DeltaMatroid(n, range(1 << n))


def _all_families(n: int):
    """Every nonempty family of full-size sets on ground size n, valid or not."""
    masks = all_full_size_masks(n)
    for k in range(1, len(masks) + 1):
        for fam in combinations(masks, k):
            yield DeltaMatroid(n, fam)


@lru_cache(maxsize=None)
def valid_delta_matroids(n: int) -> tuple[DeltaMatroid, ...]:
    """Every valid delta-matroid on ground size n, by exhaustive filtering."""
    return tuple(d for d in _all_families(n) if d.validate("exchange").ok)


def _small_valid():
    """Every valid delta-matroid at n <= 3."""
    for n in range(4):
        yield from valid_delta_matroids(n)


def _low_tables(n: int, single_values, pair_values):
    """Every table at n <= 2 that is 0 at {} and takes the given values on the
    2n singletons and the 2n(n-1) pairs (canonical order is by size)."""
    for singles in product(single_values, repeat=2 * n):
        for pairs in product(pair_values, repeat=2 * n * (n - 1)):
            yield RankTable(n, (0,) + singles + pairs)


# -- the identity list ----------------------------------------------------------
#
# Each entry checks one identity or inequality of the paper on a valid
# delta-matroid and returns its problem lines, [] when it holds.  ``scan``
# prints the lines through sweep(); the criteria below fail on the first.


class _Instance:
    """A valid delta-matroid and the values several entries read, each computed once."""

    def __init__(self, d: DeltaMatroid):
        self.d = d

    @cached_property
    def direct(self) -> MultiPoly:
        return upoly_direct(self.d)

    @cached_property
    def fvector(self):
        return independence_fvector(self.d)


def _enumerators(x: _Instance) -> list[str]:
    return [] if x.direct == upoly_recursive(x.d) else ["direct and recursive enumerators differ"]


def _activity_expansion(x: _Instance) -> list[str]:
    expansion = activity_expansion(x.d)
    problems = []
    if expansion != substitute_v_minus_1(x.direct):
        problems.append("activity expansion does not match the v-1 substitution")
    if any(c < 0 for c in expansion.terms.values()):
        problems.append("activity expansion has a negative coefficient")
    return problems


def _u_slice(x: _Instance) -> list[str]:
    """The u-coefficients of the enumerator at v = 0 are the independence f-vector, reversed."""
    n, fv = x.d.n, x.fvector.counts
    at_zero = x.direct.substitute("v", MultiPoly.constant(0, ("v",)))
    coeffs = at_zero.coefficient_list("u") + [0] * (n + 1)
    if any(coeffs[n - k] != fv[k] for k in range(n + 1)):
        return ["u-slice coefficients do not match the f-vector"]
    return []


def _lattice(x: _Instance) -> list[str]:
    return [] if x.d.lattice_point_test() else ["lattice points do not match independent sets"]


def _pure_o(x: _Instance) -> list[str]:
    return [] if pure_o_inequalities(x.fvector).passed else ["pure O-sequence inequalities fail"]


def _conjecture(x: _Instance) -> list[str]:
    return conjecture_check(x.fvector.counts, x.d.n).violations()


def _g_axioms(x: _Instance) -> list[str]:
    return [] if check_g_axioms(x.d.rank_table()).passed else ["rank table fails the four axioms"]


def _h_systems(x: _Instance) -> list[str]:
    h = x.d.h_table()
    return [
        f"h table fails the {system} system"
        for system in H_SYSTEMS
        if not check_h_axioms(h, system).passed
    ]


IDENTITIES = [
    ("enumerators", _enumerators),
    ("activity-expansion", _activity_expansion),
    ("u-slice", _u_slice),
    ("lattice", _lattice),
    ("pure-o", _pure_o),
    ("conjecture", _conjecture),
    ("g-axioms", _g_axioms),
    ("h-systems", _h_systems),
]
# the sweep runs these only at n <= 4, where a table is small
_AXIOM_ENTRIES = ("g-axioms", "h-systems")


def sweep(d: DeltaMatroid) -> list[str]:
    """Every problem ``scan`` reports on d, [] when all identities hold.

    Both validators run first and an invalid family stops there; then every
    entry runs in list order.
    """
    problems = []
    exchange, polytope = d.validate("exchange"), d.validate("polytope")
    if exchange.ok != polytope.ok:
        problems.append("validators disagree")
    if not exchange.ok:
        return problems + [f"invalid: {exchange.message}"]
    x = _Instance(d)
    for name, check in IDENTITIES:
        if d.n <= 4 or name not in _AXIOM_ENTRIES:
            problems += check(x)
    return problems


def _hold(names: tuple[str, ...], draws=()) -> int:
    """Run the named entries on every valid instance at n <= 3, then on the
    seeded (instance, distribution) draws; raise CheckFailure on the first
    problem, naming the instance, and return the instance count."""
    checks = dict(IDENTITIES)
    labelled = chain(
        ((d, "") for d in _small_valid()),
        ((d, f"random n={d.n} ({dist}) ") for d, dist in draws),
    )
    count = 0
    for d, label in labelled:
        x = _Instance(d)
        for name in names:
            problems = checks[name](x)
            ensure(not problems, lambda: f"{problems[0]} on {label}{d!r}")
        count += 1
    return count


# -- criteria -------------------------------------------------------------------


def criterion_validator_equivalence() -> str:
    rng = random.Random(48103)
    sizes = (rng.randint(7, 16) if i % 20 == 0 else rng.randint(1, 6) for i in range(10_000))
    sampled = (DeltaMatroid(4, rng.sample(range(16), size)) for size in sizes)
    checked = 0
    # exhaustive at n <= 3 (a superset of the <= 4-set requirement), then sampled at n = 4
    for d in chain(_all_families(1), _all_families(2), _all_families(3), sampled):
        a, b = d.validate("exchange").ok, d.validate("polytope").ok
        ensure(a == b, lambda: f"disagreement at n={d.n} family {d.feasible}: exchange={a} polytope={b}")
        checked += 1
    return f"{checked} families compared, zero disagreements"


def criterion_rank_axioms() -> str:
    forward = 0
    for d in _small_valid():
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
    reconstructed = 0
    tables = 0
    for table in _low_tables(2, (-1, 1), (-2, 0, 2)):
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
    count = _hold(("enumerators",), random_delta_matroids(100, 5, seed=52001))
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
    count = _hold(("activity-expansion",), random_delta_matroids(50, 5, seed=52003))
    return f"{count} instances match the v-1 substitution with non-negative coefficients"


def criterion_fvector_lattice() -> str:
    count = _hold(("u-slice", "lattice"))
    return f"{count} instances: u-slice coefficients and lattice points match face counts"


def _brute_g(m: DeltaMatroid, masks: list[tuple[list[int], list[int]]]) -> list[int]:
    """g of m by base-3 code, each value a brute-force max over the feasible sets;
    ``masks[k]`` is ``code_masks(k)``."""
    return list(map(m._g, *masks[m.n]))


def _fixed(g: list[int], states: dict[int, int]) -> list[int]:
    """g by code at the sets with index i in state ``states[i]`` (0 out, 1 unbarred,
    2 barred), indexed by the codes of the other indices.

    Index i is the digit of stride 3^(i-1); fixing the highest first leaves the
    strides below it in place.
    """
    for i in sorted(states, reverse=True):
        stride = 3 ** (i - 1)
        g = [v for b in range(states[i] * stride, len(g), 3 * stride) for v in g[b : b + stride]]
    return g


def _twisted_codes(w: SignedPermutation) -> list[int]:
    """The code of w(S), indexed by the code of S.

    Built one index at a time as ``code_masks`` builds its masks: the digit of
    index i moves to index |w(i)|, and its states 1 and 2 swap where w negates.
    """
    codes = [0]
    for v in w.image:
        unit = 3 ** (abs(v) - 1)
        plus, minus = (unit, 2 * unit) if v > 0 else (2 * unit, unit)
        codes = codes + [c + plus for c in codes] + [c + minus for c in codes]
    return codes


def _agree(n: int, got: list[int], want: list[int], failure: Callable[[], str]) -> None:
    """Two g lists by code are equal; the failure names the set at the first difference."""
    if got != want:
        c = next(c for c, (a, b) in enumerate(zip(got, want)) if a != b)
        raise CheckFailure(f"{failure()}, S={{{set_of_code(n, c).render()}}}")


def _minor_states(n: int):
    """{index: state} for each minor checked: every nonempty projection (state
    0), then every contraction (1) and deletion (2) by disjoint groups, not both empty."""
    for allowed in ((None, 0), (None, 1, 2)):
        for states in product(allowed, repeat=n):
            if any(t is not None for t in states):
                yield {i: t for i, t in enumerate(states, start=1) if t is not None}


_OPERATIONS = ("project", "contract", "delete")  # by the state an index is fixed in


def criterion_operation_identities() -> str:
    """The rank identities under minors, twists and products, each as one comparison
    of g lists by code: d's side from the distance lanes, the operated side brute force."""
    masks = [code_masks(k) for k in range(4)]
    count = 0
    for n in range(1, 4):
        units = {e: (1 if e > 0 else 2) * 3 ** (abs(e) - 1) for i in range(1, n + 1) for e in (i, -i)}
        for d in valid_delta_matroids(n):
            g = g_lanes(n, d.feasible).tolist()
            for states in _minor_states(n):
                groups = {op: [i for i, t in states.items() if t == k] for k, op in enumerate(_OPERATIONS)}
                shifted = _fixed(g, states)
                _agree(
                    n - len(states),
                    _brute_g(d.minor(**groups), masks),
                    [v - shifted[0] for v in shifted],
                    lambda: f"minor rank identity fails on {d!r} at "
                    + ", ".join(f"{_OPERATIONS[t]} {i}" for i, t in states.items()),
                )
            # the single-element lemmas: with the minor identity checked, they say the shift
            # g({i}) or g({-i}) is 1 unless i is a loop (contract) or a coloop (delete)
            exempt = d.loops_coloops()
            for i, state in product(range(1, n + 1), (1, 2)):
                ensure(
                    i in exempt[state - 1] or g[state * 3 ** (i - 1)] == 1,
                    lambda: f"{('contraction', 'deletion')[state - 1]} lemma fails on {d!r} at i={i}",
                )
            for w in _signed_permutations(n):
                twisted = _brute_g(d.twist(w), masks)
                _agree(
                    n,
                    list(map(twisted.__getitem__, _twisted_codes(w))),
                    g,
                    lambda: f"twist identity fails on {d!r} at w={w.image}",
                )
            # upper matroids over every window
            full = (1 << n) - 1
            for window_mask in all_full_size_masks(n):
                window = AdmissibleSet(n, window_mask, full & ~window_mask)
                m = upper_matroid(d, window)
                for k in range(n + 1):
                    for chosen in combinations(window.elements(), k):
                        ensure(
                            2 * m.rank_of(chosen) == g[sum(map(units.__getitem__, chosen))] + k,
                            lambda: f"upper-matroid rank fails on {d!r} "
                            f"window {{{window.render()}}} T={{{' '.join(map(str, chosen))}}}",
                        )
            ensure(greedy_check(d).passed, lambda: f"greedy property fails on {d!r}")
            count += 1
    # products over all valid pairs with total ground size at most 3
    pairs = 0
    for n1, n2 in ((1, 1), (1, 2), (2, 1)):
        for d1 in valid_delta_matroids(n1):
            g1 = g_lanes(n1, d1.feasible)
            for d2 in valid_delta_matroids(n2):
                g2 = g_lanes(n2, d2.feasible)
                _agree(
                    n1 + n2,
                    _brute_g(d1.product(d2), masks),
                    [a + b for b in g2 for a in g1],
                    lambda: f"product rank identity fails for {d1!r} x {d2!r}",
                )
                pairs += 1
    return f"{count} instances pass all minor/twist/window identities; {pairs} products additive"


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[SignedPermutation, ...]:
    return tuple(
        SignedPermutation(n, tuple(p * s for p, s in zip(perm, signs)))
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    )


def criterion_h_systems() -> str:
    forward = _hold(("h-systems",))
    # exhaustive converse at n <= 2: every bouchet/allys-passing table is some h_D;
    # the hits reported are those at n = 2
    for n in (1, 2):
        realized = {d.h_table().values for d in valid_delta_matroids(n)}
        converse_hits = {"bouchet": 0, "allys": 0}
        for table in _low_tables(n, (0, 1), (0, 1, 2)):
            for system in converse_hits:
                if check_h_axioms(table, system).passed:
                    ensure(
                        table.values in realized,
                        lambda: f"{system}-passing table {table.values} is no delta-matroid's h",
                    )
                    converse_hits[system] += 1
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u11.matroid"
        path.write_text(serialize_value(Matroid.uniform(1, 1)))
        code, output = _run_cli(["example15", str(path), "--mode", "independents", "--compare"])
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
        counts = independence_fvector(d).counts
        logconc = conjecture_check(counts, d.n)
        ensure(
            logconc.all_hold(inequality=2),
            lambda: f"binomial inequality fails for {d!r}: {logconc.failures()}",
        )
        two_var = two_var_ulc_from_report(logconc)
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
    count = _hold(("pure-o",), random_delta_matroids(1000, 4, seed=52005))
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
        (base / "dex.rt").write_text(_run_cli(["rank-table", dex])[1])
        commands.append(["axioms-g", str(base / "dex.rt")])
        (base / "dex.ht").write_text(_run_cli(["h-table", dex])[1])
        for system in H_SYSTEMS:
            commands.append(["axioms-h", str(base / "dex.ht"), "--system", system])

        for argv in commands:
            ensure(
                _run_cli(argv) == _run_cli(argv),
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
