"""The three workloads: their inputs, the timed op, and the output checks.

Each workload builds its instances from the seed in ``__init__`` (part of
set-up), makes one untimed warm-up call of each kind of op in ``warmup``,
runs one instance through its sequence of calls in ``op`` and checks an op's
outputs in ``check`` against the benchmark's own computations and the
paper's identities.  ``check`` runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import instances as I
from spans import Tracer

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Wheel graph W4: a 4-cycle on vertices 0..3 with hub 4; 8 edges, rank 4,
# 45 spanning trees and 134 forests.
WHEEL4 = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# Pinned symmetric GF(2) matrices (rows as bitmasks) with 17 and 22 feasible sets.
GF2_A5 = (16, 6, 30, 28, 13)
GF2_B5 = (19, 15, 22, 10, 21)


def canonical_sets(n: int) -> list[tuple[int, int]]:
    """All admissible (pos, neg) by size, then index by index with +i before -i."""
    sets = []
    for code in range(3**n):
        pos = neg = 0
        for i in range(n):
            code, state = divmod(code, 3)
            if state == 1:
                pos |= 1 << i
            elif state == 2:
                neg |= 1 << i
        sets.append((pos, neg))

    def key(s):
        pos, neg = s
        return (
            (pos | neg).bit_count(),
            tuple((i, 0 if pos >> i & 1 else 1) for i in range(n) if (pos | neg) >> i & 1),
        )

    sets.sort(key=key)
    return sets


def upoly_closed_free(n: int) -> dict[tuple[int, int], int]:
    """(u + 2)^n as a term map."""
    return {(n - k, 0): comb(n, k) * 2**k for k in range(n + 1)}


def substitute_v_minus_1(terms: dict[tuple[int, int], Fraction]) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in terms.items():
        for t in range(j + 1):
            key = (i, t)
            out[key] = out.get(key, 0) + c * comb(j, t) * (-1) ** (j - t)
    return {k: v for k, v in out.items() if v}


def logconc_holds(a: list[int], n: int) -> bool:
    """The three inequalities a_k^2 >= factor * a_(k-1) * a_(k+1), k = 1..n-1."""
    for k in range(1, n):
        outer = a[k + 1] * a[k - 1]
        for factor in (
            Fraction(n - k + 1, n - k),
            Fraction(2 * n - k + 1, 2 * n - k) * Fraction(k + 1, k),
            Fraction(n - k + 1, n - k) * Fraction(k + 1, k),
        ):
            if a[k] * a[k] < factor * outer:
                return False
    return True


def parse_poly(text: str, variables: tuple[str, ...]) -> dict[tuple[int, ...], Fraction]:
    """Read the canonical text form, e.g. ``3 + 9*u - 1/2*u*v^2``."""
    out: dict[tuple[int, ...], Fraction] = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = Fraction(1)
        exps = [0] * len(variables)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in variables:
                exps[variables.index(name)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return out


class Workload:
    """A workload has ``name``, ``items`` (its op list), ``warmup``, ``op`` and ``check``."""

    def after_first_round(self) -> list[str]:
        return []

    def round_counts(self) -> dict[str, int]:
        return {}


# -- tables ------------------------------------------------------------------------


class Tables(Workload):
    """Rank tables and the direct invariants of pinned n = 8 instances."""

    name = "tables"
    N = 8

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        from deltamat import DeltaMatroid, enumerate_admissible

        with tracer.span("ground.enumerate_admissible"):
            enumerate_admissible(self.N)
        rng = random.Random(f"tables-{seed}")
        n = self.N
        wheel = I.graphic_bases(WHEEL4, 5)
        wb = I.matroid("wheel4-bases", n, wheel, "bases")
        wi = I.matroid("wheel4-independents", n, wheel, "independents")
        insts = [
            wb,
            I.twist(wb, rng),
            I.gf2("gf2-120", rng, n, 120, draws=100),
            I.gf2("gf2-128", rng, n, 128, draws=100),
            wi,
            I.twist(wi, rng),
            I.free(n),
        ]
        self.items = [(inst, DeltaMatroid(inst.n, inst.masks)) for inst in insts]
        self.sets = canonical_sets(n)
        self.index = {s: k for k, s in enumerate(self.sets)}
        self.sample_rng = random.Random(f"tables-sample-{seed}")
        self.fvectors: dict[str, list[int]] = {}
        self.upolys: dict[str, dict] = {}

    def warmup(self, tracer: Tracer) -> None:
        self.op(self.items[0], Tracer())

    def op(self, item, tracer: Tracer):
        from deltamat import independence_fvector, interlace
        from deltamat.invariants import upoly_direct, upoly_recursive

        _, d = item
        with tracer.call("deltamatroid.rank_table"):
            g = d.rank_table()
        with tracer.call("deltamatroid.h_table"):
            h = d.h_table()
        with tracer.call("invariants.upoly_direct"):
            ud = upoly_direct(d)
        with tracer.call("invariants.upoly_recursive"):
            ur = upoly_recursive(d)
        with tracer.call("invariants.interlace"):
            il = interlace(d)
        with tracer.call("invariants.independence_fvector"):
            fv = independence_fvector(d)
        return g, h, ud, ur, il, fv

    def check(self, item, out) -> list[str]:
        inst, _ = item
        g, h, ud, ur, il, fv = out
        n = inst.n
        bad = []
        if len(g.values) != 3**n or len(h.values) != 3**n:
            return ["table length is not 3^n"]
        if g.values[0] != 0:
            bad.append("g(empty) != 0")
        for (pos, neg), gv, hv in zip(self.sets, g.values, h.values):
            size = (pos | neg).bit_count()
            if (gv - size) % 2 or abs(gv) > size:
                bad.append(f"g({I.render(n, pos, neg)}) = {gv} breaks parity or |g| <= |S|")
                break
            if 2 * hv != gv + size:
                bad.append(f"h({I.render(n, pos, neg)}) != (g + |S|)/2")
                break
        for _ in range(64):
            pos, neg = I.random_admissible(self.sample_rng, n)
            if g.values[self.index[(pos, neg)]] != I.g_value(n, inst.masks, pos, neg):
                bad.append(f"g({I.render(n, pos, neg)}) differs from the max over feasible sets")
                break
        terms = dict(ud.terms)
        if sum(terms.values()) != 3**n:
            bad.append("upoly(1, 1) != 3^n")
        if {(j,): c for (i, j), c in terms.items() if i == 0} != il.terms:
            bad.append("u = 0 slice of upoly differs from interlace")
        if inst.name not in self.fvectors:
            self.fvectors[inst.name] = I.fvector(n, inst.masks)
        expected_f = self.fvectors[inst.name]
        if list(fv.counts) != expected_f:
            bad.append(f"f-vector {list(fv.counts)} != independent-set count {expected_f}")
        if any(terms.get((n - k, 0), 0) != expected_f[k] for k in range(n + 1)):
            bad.append("coefficient of u^(n-k) in upoly(u, 0) != f_k")
        if ud != ur:
            bad.append("direct and recursive upoly differ")
        self.upolys.setdefault(inst.name, terms)
        if inst.twist_of is not None and terms != self.upolys.get(inst.twist_of):
            bad.append(f"upoly of the twist differs from upoly of {inst.twist_of}")
        if inst.name == f"free{n}":
            if terms != upoly_closed_free(n):
                bad.append("free upoly != (u + 2)^n")
            if list(fv.counts) != [comb(n, k) * 2**k for k in range(n + 1)]:
                bad.append("free f_k != C(n, k) 2^k")
        return bad

    def round_counts(self) -> dict[str, int]:
        return {"deltamatroid.g_terms": sum(inst.g_terms for inst, _ in self.items)}


# -- validate ------------------------------------------------------------------------


class Validate(Workload):
    """Both validators on valid and invalid families at n = 5-6."""

    name = "validate"

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        from deltamat import DeltaMatroid

        rng = random.Random(f"validate-{seed}")
        u26i = I.matroid("U(2,6)-independents", 6, I.uniform_bases(2, 6), "independents")
        u35i = I.matroid("U(3,5)-independents", 5, I.uniform_bases(3, 5), "independents")
        u36b = I.matroid("U(3,6)-bases", 6, I.uniform_bases(3, 6), "bases")
        u25i = I.matroid("U(2,5)-independents", 5, I.uniform_bases(2, 5), "independents")
        k4b = I.matroid("K4-bases", 6, I.graphic_bases(K4, 4), "bases")
        gf2a = I.Instance("gf2-A5", 5, I.gf2_masks(5, GF2_A5), gf2_rows=GF2_A5)
        valid = [
            I.free(5),
            u35i,
            u26i,
            I.gf2("gf2-5-22", rng, 5, 22, draws=64),
            I.gf2("gf2-6-22", rng, 6, 22, draws=300),
        ]
        # Each invalid family is a valid one plus the pinned extra set named
        # here.  K4-bases + {1} costs the polytope validator the most and sits
        # in the middle of the op list by cost.
        spoiled = [(u36b, 40), (u26i, 56), (u35i, 30), (u25i, 14), (gf2a, 29), (k4b, 1)]
        invalid = [
            I.Instance(f"{base.name}+{extra}", base.n, tuple(sorted(base.masks + (extra,))))
            for base, extra in spoiled
        ]
        self.items = [
            (inst, DeltaMatroid(inst.n, inst.masks), expect)
            for inst, expect in [(v, True) for v in valid] + [(f, False) for f in invalid]
        ]
        for inst, _, expect in self.items:
            if inst.size < 2 or I.exchange_ok(inst.masks) != expect:
                raise RuntimeError(f"instance {inst.name} is not {'valid' if expect else 'invalid'}")

    def warmup(self, tracer: Tracer) -> None:
        # one accepting and one rejecting op, on pinned instances
        for item in (self.items[2], self.items[-1]):
            self.op(item, Tracer())

    def op(self, item, tracer: Tracer):
        _, d, expect = item
        with tracer.call("deltamatroid.validate_exchange"):
            exchange = d.validate("exchange")
        with tracer.call("deltamatroid.validate_polytope." + ("accept" if expect else "reject")):
            polytope = d.validate("polytope")
        return exchange.ok, polytope.ok

    def check(self, item, out) -> list[str]:
        inst, _, expect = item
        exchange, polytope = out
        if exchange == polytope == expect:
            return []
        return [f"{inst.name}: exchange={exchange} polytope={polytope}, oracle says {expect}"]

    def round_counts(self) -> dict[str, int]:
        return {"lp.candidate_pairs": sum(inst.candidate_pairs for inst, _, ok in self.items if ok)}


# -- cli -------------------------------------------------------------------------------


def serialize_dm(n: int, masks: tuple[int, ...]) -> str:
    full = (1 << n) - 1
    lines = [f"n {n}"] + [f"feasible {I.render(n, m, full & ~m)}" for m in masks]
    return "\n".join(lines) + "\n"


def serialize_gf2(n: int, rows: tuple[int, ...]) -> str:
    lines = [f"gf2 {n}"] + [" ".join(str(r >> j & 1) for j in range(n)) for r in rows]
    return "\n".join(lines) + "\n"


def parse_signed(n: int, text: str) -> tuple[int, int]:
    pos = neg = 0
    for tok in text.split():
        e = int(tok)
        if e > 0:
            pos |= 1 << (e - 1)
        else:
            neg |= 1 << (-e - 1)
    return pos, neg


def cli_instances() -> list[I.Instance]:
    """Pinned n = 5 instances; the gf2 ones enter the pipeline as matrices."""
    return [
        I.Instance("gf2-A5", 5, I.gf2_masks(5, GF2_A5), gf2_rows=GF2_A5),
        I.Instance("gf2-B5", 5, I.gf2_masks(5, GF2_B5), gf2_rows=GF2_B5),
        I.free(5),
        I.matroid("U(2,5)-independents", 5, I.uniform_bases(2, 5), "independents"),
        I.matroid("U(3,5)-bases", 5, I.uniform_bases(3, 5), "bases"),
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    from deltamat.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


class Cli(Workload):
    """The command pipeline run in-process through ``deltamat.cli.main``."""

    name = "cli"
    N = 5

    def __init__(self, seed: int, workdir: Path, tracer: Tracer):
        from deltamat import enumerate_admissible

        with tracer.span("ground.enumerate_admissible"):
            enumerate_admissible(self.N)
        self.rng = random.Random(f"cli-{seed}")
        self.workdir = workdir
        self.expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))["lorentzian"]
        self.items = []
        for inst in cli_instances():
            stem = workdir / inst.name.replace("(", "").replace(")", "").replace(",", "-")
            files = {"dm": stem.with_suffix(".dm"), "g": stem.with_suffix(".g.rt"), "h": stem.with_suffix(".h.rt")}
            if inst.gf2_rows is not None:
                files["gf2"] = stem.with_suffix(".gf2")
                files["gf2"].write_text(serialize_gf2(inst.n, inst.gf2_rows), encoding="utf-8")
            else:
                files["dm"].write_text(serialize_dm(inst.n, inst.masks), encoding="utf-8")
            self.items.append((inst, files))
        self.sets = canonical_sets(self.N)
        self.own: dict[str, dict] = {}

    def warmup(self, tracer: Tracer) -> None:
        self.op(self.items[0], Tracer())

    def op(self, item, tracer: Tracer):
        _, files = item
        dm, g, h = str(files["dm"]), str(files["g"]), str(files["h"])
        out: dict[str, tuple[int, str]] = {}

        def call(label: str, argv: list[str]) -> str:
            with tracer.call("cli." + label):
                out[label] = run_cli(argv)
            return out[label][1]

        if "gf2" in files:
            files["dm"].write_text(call("from-gf2", ["from-gf2", str(files["gf2"])]), encoding="utf-8")
        call("validate.exchange", ["validate", dm, "--method", "exchange"])
        files["g"].write_text(call("rank-table", ["rank-table", dm]), encoding="utf-8")
        files["h"].write_text(call("h-table", ["h-table", dm]), encoding="utf-8")
        call("axioms-g", ["axioms-g", g])
        for system in ("larson", "bouchet", "allys"):
            call("axioms-h." + system, ["axioms-h", h, "--system", system])
        call("upoly.compare", ["upoly", dm, "--method", "compare"])
        call("interlace", ["interlace", dm])
        call("fvector", ["fvector", dm])
        call("activity.all", ["activity", dm, "--all"])
        call("complex", ["complex", dm])
        call("logconc", ["logconc", dm])
        for which in ("indep", "efls"):
            call("lorentzian." + which, ["lorentzian", dm, "--which", which])
        return out

    def _own(self, inst: I.Instance) -> dict:
        """The benchmark's own expectations for one instance, computed once."""
        if inst.name not in self.own:
            indep = I.independent_sets(inst.n, inst.masks)
            f = [0] * (inst.n + 1)
            for pos, neg in indep:
                f[(pos | neg).bit_count()] += 1
            self.own[inst.name] = {"indep": indep, "f": f}
        return self.own[inst.name]

    def check(self, item, out) -> list[str]:
        inst, files = item
        n = inst.n
        own = self._own(inst)
        f = own["f"]
        bad = []
        lorentzian = self.expected[inst.name]
        codes = {label: 0 for label in out}
        codes["logconc"] = 0 if logconc_holds(f, n) else 1
        for which in ("indep", "efls"):
            codes["lorentzian." + which] = lorentzian[which][0]
        for label, (code, _) in out.items():
            if code != codes[label]:
                bad.append(f"{label} exited {code}, expected {codes[label]}")
        text = {label: stdout for label, (_, stdout) in out.items()}
        if "from-gf2" in text:
            got = sorted(
                parse_signed(n, line[len("feasible"):])[0]
                for line in text["from-gf2"].splitlines()
                if line.startswith("feasible")
            )
            if tuple(got) != inst.masks:
                bad.append("from-gf2 feasible sets differ from the principal-minor count")
        if text["validate.exchange"] != "PASS\n":
            bad.append("validate --method exchange did not print PASS")
        for label in ("axioms-g", "axioms-h.larson", "axioms-h.bouchet", "axioms-h.allys"):
            if not text[label].startswith("PASS\n"):
                bad.append(f"{label} did not print PASS on a genuine table")
        gvals = self._read_table(text["rank-table"], n, bad)
        hvals = self._read_table(text["h-table"], n, bad)
        if gvals is not None and hvals is not None:
            for (pos, neg), gv, hv in zip(self.sets, gvals, hvals):
                if 2 * hv != gv + (pos | neg).bit_count():
                    bad.append("h-table is not (g + |S|)/2 of rank-table")
                    break
            for _ in range(16):
                s = I.random_admissible(self.rng, n)
                if gvals[self.sets.index(s)] != I.g_value(n, inst.masks, *s):
                    bad.append(f"rank-table g({I.render(n, *s)}) differs from the max over feasible sets")
                    break
        if not text["upoly.compare"].startswith("equal: "):
            return bad + ["upoly --method compare did not print equal:"]
        up = parse_poly(text["upoly.compare"][len("equal: "):].strip(), ("u", "v"))
        if sum(up.values()) != 3**n:
            bad.append("upoly(1, 1) != 3^n")
        if any(up.get((n - k, 0), 0) != f[k] for k in range(n + 1)):
            bad.append("coefficient of u^(n-k) in upoly(u, 0) != f_k")
        il = parse_poly(text["interlace"].strip(), ("v",))
        if il != {(j,): c for (i, j), c in up.items() if i == 0}:
            bad.append("interlace differs from the u = 0 slice of upoly")
        if text["fvector"].split() != [str(x) for x in f]:
            bad.append(f"fvector printed {text['fvector'].strip()}, independent sets give {f}")
        self._check_activity(text, n, up, own, bad)
        lines = text["logconc"].splitlines()
        if not lines or lines[0] != "a: " + " ".join(map(str, f)):
            bad.append("logconc a: line differs from the f-vector")
        if "two-variable check agrees with inequality (2): yes" not in lines:
            bad.append("logconc two-variable check disagrees with inequality (2)")
        for which in ("indep", "efls"):
            lines = text["lorentzian." + which].splitlines()
            if len(lines) != 2 or not lines[0].startswith("polynomial: "):
                bad.append(f"lorentzian --which {which} printed an unexpected report")
                continue
            poly = parse_poly(lines[0][len("polynomial: "):], tuple(f"w{i}" for i in range(n + 1)))
            total = sum(poly.values())
            want = sum(f) if which == "indep" else sum(Fraction(x, factorial(k)) for k, x in enumerate(f))
            if total != want:
                bad.append(f"lorentzian --which {which} coefficients do not sum over the independent sets")
            if lines[1] != lorentzian[which][1]:
                bad.append(f"lorentzian --which {which} verdict {lines[1]!r} != recorded {lorentzian[which][1]!r}")
        return bad

    def _read_table(self, text: str, n: int, bad: list[str]) -> list[int] | None:
        lines = text.splitlines()
        if not lines or lines[0] != f"ranktable {n}" or len(lines) != 3**n + 1:
            bad.append("table output has the wrong header or length")
            return None
        values = []
        for line, s in zip(lines[1:], self.sets):
            left, _, right = line.rpartition(":")
            if parse_signed(n, left) != s:
                bad.append("table output is not in canonical order")
                return None
            values.append(int(right))
        return values

    def _check_activity(self, text: dict, n: int, up: dict, own: dict, bad: list[str]) -> None:
        expansion: dict[tuple[int, int], Fraction] = {}
        zero_sets = []
        seen = set()
        for line in text["activity.all"].splitlines():
            head, _, rest = line.partition("}: a=")
            s = parse_signed(n, head.lstrip("{"))
            seen.add(s)
            a = int(rest.split()[0])
            size = (s[0] | s[1]).bit_count()
            expansion[(n - size, a)] = expansion.get((n - size, a), 0) + 1
            if a == 0:
                zero_sets.append(s)
        if seen != own["indep"]:
            bad.append("activity --all does not list exactly the independent sets")
        if expansion != substitute_v_minus_1(up):
            bad.append("activity expansion != upoly(u, v - 1)")
        sizes = [(p | q).bit_count() for p, q in zero_sets]
        fz = [sizes.count(k) for k in range(max(sizes) + 1)]
        maximal = {
            (p | q).bit_count()
            for p, q in zero_sets
            if not any((p, q) != (p2, q2) and p & ~p2 == 0 and q & ~q2 == 0 for p2, q2 in zero_sets)
        }
        want = f"f-vector: {' '.join(map(str, fz))}; pure: {'yes' if len(maximal) <= 1 else 'no'}"
        if text["complex"].strip() != want:
            bad.append(f"complex printed {text['complex'].strip()!r}, activity lines give {want!r}")

    def after_first_round(self) -> list[str]:
        """Negative control: the axiom checkers reject a table with one entry changed."""
        inst, files = self.items[self.rng.randrange(len(self.items))]
        n = inst.n
        k = self.rng.choice([k for k, (p, q) in enumerate(self.sets) if 0 < (p | q).bit_count() < n])
        bad = []
        for kind, delta, commands in (
            ("g", 2, [["axioms-g"]]),
            ("h", 1, [["axioms-h", "--system", s] for s in ("larson", "bouchet", "allys")]),
        ):
            lines = files[kind].read_text(encoding="utf-8").splitlines()
            left, _, right = lines[k + 1].rpartition(":")
            lines[k + 1] = f"{left}: {int(right) + delta}".lstrip()
            spoiled = self.workdir / f"spoiled.{kind}.rt"
            spoiled.write_text("\n".join(lines) + "\n", encoding="utf-8")
            for cmd in commands:
                code, stdout = run_cli([cmd[0], str(spoiled)] + cmd[1:])
                if code != 1 or not stdout.startswith("FAIL: "):
                    bad.append(f"{' '.join(cmd)} accepted {inst.name}'s {kind} table with one entry changed")
        return bad


WORKLOADS = {w.name: w for w in (Tables, Validate, Cli)}
