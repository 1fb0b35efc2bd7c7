import gc
import hashlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from deltamat import cli, deltamatroid, ground
from deltamat.deltamatroid import RankTable
from deltamat.formats import parse_document, serialize_value
from deltamat.invariants import independence_fvector
from deltamat.lorentzian import InequalityCheck, LogConcavityReport
from deltamat.matroid import Gf2SymMatrix, Matroid, rank_generating, validate_matroid
from deltamat.randgen import _random_matroid, random_family, random_valid

from conftest import symmetric_rows

DEX = "n 3\nfeasible 1 -2 -3\nfeasible -1 2 -3\nfeasible -1 -2 3\n"
BAD = "n 3\nfeasible 1 2 3\nfeasible -1 -2 -3\n"
DCO = "n 1\nfeasible 1\n"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture()
def dex_file(tmp_path):
    p = tmp_path / "dex.dm"
    p.write_text(DEX)
    return str(p)


def test_validate(dex_file, tmp_path):
    code, out = run(["validate", dex_file])
    assert code == 0 and out == "PASS\n"
    bad = tmp_path / "bad.dm"
    bad.write_text(BAD)
    code, out = run(["validate", str(bad)])
    assert code == 1
    assert out.startswith("FAIL: edge direction support 3 between")
    code, out = run(["validate", str(bad), "--method", "exchange"])
    assert code == 1 and out.startswith("FAIL: no exchange for index")


def test_validate_gf2_n10_finishes(tmp_path):
    # plain validate runs both validators; with one LP per pair of feasible
    # sets, the polytope half took minutes on this instance (|F| = 425)
    n, rng = 10, random.Random(1)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(0, 1)
    matrix = tmp_path / "a.gf2"
    matrix.write_text(f"gf2 {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    code, text = run(["from-gf2", str(matrix)])
    assert code == 0 and text.count("feasible") == 425
    valid = tmp_path / "a.dm"
    valid.write_text(text)
    assert run(["validate", str(valid)]) == (0, "PASS\n")
    spoiled = tmp_path / "spoiled.dm"
    spoiled.write_text(text + "feasible 1 2 3 4 5 6 7 8 9 10\n")
    assert run(["validate", str(spoiled)]) == (
        1,
        "FAIL: edge direction support 3 between {1 2 3 4 5 6 7 8 9 10} and {1 2 3 4 5 6 -7 8 -9 -10}\n",
    )


def test_parse_and_usage_errors(tmp_path):
    broken = tmp_path / "broken.dm"
    broken.write_text("n 1\nfeasible 1 -1\n")
    code, _ = run(["validate", str(broken)])
    assert code == 2
    code, _ = run(["validate", str(tmp_path / "missing.dm")])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2


def test_guard_limit_exit_code(tmp_path):
    big = tmp_path / "big.dm"
    elems = " ".join(str(i) for i in range(1, 18))
    big.write_text(f"n 17\nfeasible {elems}\n")
    code, _ = run(["rank-table", str(big)])
    assert code == 3


def test_guard_trips_on_a_warm_distance_memo(tmp_path, monkeypatch):
    d = random_valid(random.Random(6), 6, "gf2")
    path = tmp_path / "d6.dm"
    path.write_text(serialize_value(d))
    assert run(["rank-table", str(path)])[0] == 0
    d.rank_table()  # the memo holds the layers of d
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "5")
    for call in (d.rank_table, d.h_table, lambda: independence_fvector(d)):
        with pytest.raises(ground.GuardLimitError):
            call()
    for command in (["rank-table"], ["h-table"], ["fvector"], ["lorentzian"], ["activity", "--all"]):
        assert run([command[0], str(path), *command[1:]]) == (3, ""), command


@pytest.mark.parametrize("made", [0, 1])
def test_a_failed_distance_layer_leaves_no_memo_record(tmp_path, monkeypatch, capsys, made):
    # out of memory while making layer `made`: exit 3, and the next command on the
    # same family in the same process prints what a cold memo prints (the slot
    # keeps layers 0..made-1, which the next call extends)
    d = random_valid(random.Random(6), 6, "gf2")
    path = tmp_path / "d6.dm"
    path.write_text(serialize_value(d))
    commands = [[c, str(path)] for c in ("rank-table", "h-table", "upoly", "fvector", "lorentzian")]
    cold = []
    for argv in commands:
        deltamatroid._family_layers.cache_clear()
        cold.append(run(argv))
    real = deltamatroid._next_layer

    def failing(n, feasible, layers):
        if len(layers) == made:
            raise MemoryError()
        return real(n, feasible, layers)

    for argv in commands:
        monkeypatch.setattr(deltamatroid, "_next_layer", failing)
        deltamatroid._family_layers.cache_clear()
        assert run(["rank-table", str(path)]) == (3, "")
        assert capsys.readouterr().err == "error: out of memory\n"
        monkeypatch.setattr(deltamatroid, "_next_layer", real)
        assert run(argv) == cold[commands.index(argv)], argv
    deltamatroid._family_layers.cache_clear()
    lanes = deltamatroid.h_lanes(d.n, d.feasible), list(deltamatroid.distance_layers(d.n, d.feasible))
    monkeypatch.setattr(deltamatroid, "_next_layer", failing)
    deltamatroid._family_layers.cache_clear()
    with pytest.raises(MemoryError):
        deltamatroid.h_lanes(d.n, d.feasible)
    monkeypatch.setattr(deltamatroid, "_next_layer", real)
    assert (deltamatroid.h_lanes(d.n, d.feasible), list(deltamatroid.distance_layers(d.n, d.feasible))) == lanes


def test_huge_ground_size_header_is_a_parse_error(tmp_path, capsys):
    # a header alone builds no int of 2^n bits, so a huge n ends in a message, not a traceback
    huge = tmp_path / "huge.dm"
    for body, message in (
        ("", "error: line 1: delta-matroid needs at least one feasible line\n"),
        ("feasible 1\n", "error: line 2: feasible set must have size 99999999999999999999, got 1\n"),
    ):
        huge.write_text("n 99999999999999999999\n" + body)
        for command in ("info", "validate", "rank-table"):
            assert run([command, str(huge)]) == (2, "")
            assert capsys.readouterr().err == message


def test_scan_guard_trips_before_building_instances():
    code, out = run(["scan", "--random", "3", "--size", "17"])
    assert code == 3
    assert out == ""


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    d = tmp_path / "u12b.dm"
    d.write_text("n 2\nfeasible 1 -2\nfeasible -1 2\n")
    for argv, message in (
        (["scan", "--random", "3", "--size", "-1"], "error: --size must be non-negative\n"),
        (["envelope", str(d), "--search", "--limit", "-3"], "error: --limit must be non-negative\n"),
    ):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == message


def test_guard_variable_that_is_not_an_integer(dex_file, capsys, monkeypatch):
    monkeypatch.setenv("DELTAMAT_GUARD_LIMIT", "abc")
    assert run(["rank-table", dex_file]) == (2, "")
    assert capsys.readouterr().err == "error: DELTAMAT_GUARD_LIMIT='abc' is not an integer\n"


def test_constructions_guard_before_enumerating(tmp_path, capsys):
    # from-gf2 reads 2^n principal minors, from-matroid --mode independents
    # lists every subset of a basis, lorentzian, upoly, fvector, logconc,
    # activity --all and complex build planes of 3^n bits, and the recursion
    # and interlace read no table but may still take 3^n or 2^n steps: each
    # must trip the guard before the work
    zero = tmp_path / "zero.gf2"
    zero.write_text("gf2 17\n" + ("0 " * 16 + "0\n") * 17)
    free = tmp_path / "free.matroid"
    free.write_text("ground plain 17\nbasis " + " ".join(str(i) for i in range(1, 18)) + "\n")
    big = tmp_path / "big.dm"
    big.write_text("n 17\nfeasible " + " ".join(str(i) for i in range(1, 18)) + "\n")
    for argv in (
        ["from-gf2", str(zero)],
        ["from-matroid", str(free), "--mode", "independents"],
        ["lorentzian", str(big), "--which", "indep"],
        ["lorentzian", str(big), "--which", "efls"],
        ["upoly", str(big), "--method", "recursive"],
        ["upoly", str(big), "--method", "direct"],
        ["upoly", str(big), "--method", "compare"],
        ["fvector", str(big)],
        ["logconc", str(big)],
        ["interlace", str(big)],
        ["activity", str(big), "--all"],
        ["complex", str(big)],
        ["validate", str(big)],  # the polytope half reads a 2^n weight table
    ):
        code, out = run(argv)
        assert code == 3 and out == ""
        assert "exceeds the guard limit" in capsys.readouterr().err
    # the activity of one set reads at most n(n+1)/2 flipped sets, so it needs no guard
    assert run(["activity", str(big), "--set", "1"]) == (0, "a: 1\nactive: 1\n")
    assert run(["validate", str(big), "--method", "exchange"]) == (0, "PASS\n")


def test_table_files_guard_before_reading_the_body(tmp_path, capsys):
    # a ranktable 17 header trips the guard in the walk before a body line is counted or read,
    # on the one-pass route (the header first) and on the line parse (a comment first)
    table = tmp_path / "big.rt"
    for text in ("ranktable 17\n", "ranktable 17\n: 0\n", "# big\nranktable 17\n: 0\n"):
        table.write_text(text)
        for argv in (["axioms-g", str(table)], ["axioms-h", str(table), "--system", "allys"]):
            assert run(argv) == (3, ""), (text, argv)
            assert "exceeds the guard limit" in capsys.readouterr().err


def test_out_of_memory_is_exit_3_with_a_message(dex_file, capsys, monkeypatch):
    def exhausted(path, kind):
        raise MemoryError()

    monkeypatch.setattr(cli, "_load", exhausted)
    assert run(["rank-table", dex_file]) == (3, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_info(dex_file):
    code, out = run(["info", dex_file])
    assert code == 0
    assert "n: 3" in out and "even: yes" in out


def test_rank_and_tables(dex_file, tmp_path):
    code, out = run(["rank", dex_file, "1 2"])
    assert code == 0 and out == "g = 0\nh = 1\n"
    code, out = run(["rank", dex_file, ""])
    assert out == "g = 0\nh = 0\n"
    code, out = run(["rank-table", dex_file])
    assert code == 0
    table = parse_document(out)
    assert table.kind == "rank-table" and table.value.n == 3
    code, out_h = run(["h-table", dex_file])
    assert code == 0 and parse_document(out_h).value.values[0] == 0


def test_upoly_and_json(dex_file):
    code, out = run(["upoly", dex_file, "--method", "compare"])
    assert code == 0
    assert out == "equal: 3 + 9*u + 4*v + 6*u^2 + 3*u*v + v^2 + u^3\n"
    code, out = run(["upoly", dex_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["variables"] == ["u", "v"]
    assert [[0, 0], "3"] in obj["terms"]
    code, out = run(["upoly", dex_file, "--method", "recursive"])
    assert out == "3 + 9*u + 4*v + 6*u^2 + 3*u*v + v^2 + u^3\n"


def test_interlace_fvector_complex(dex_file):
    assert run(["interlace", dex_file]) == (0, "3 + 4*v + v^2\n")
    assert run(["fvector", dex_file]) == (0, "1 6 9 3\n")
    assert run(["complex", dex_file]) == (0, "f-vector: 1 6 6; pure: no\n")


def test_activity(dex_file):
    code, out = run(["activity", dex_file, "--set", "-2 -3"])
    assert code == 0 and out == "a: 0\nactive:\n"
    code, out = run(["activity", dex_file, "--all"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 19
    assert lines[0] == "{}: a=0"
    assert "{-1 -2 3}: a=2 active=1 2" in lines
    code, _ = run(["activity", dex_file])
    assert code == 2


def test_minor_twist_product(dex_file, tmp_path):
    code, out = run(["minor", dex_file, "--contract", "1"])
    assert code == 0
    assert out == "# kept 2 3\nn 2\nfeasible -1 -2\n"
    code, out = run(["twist", dex_file, "--perm", "-1 -2 -3"])
    assert code == 0
    assert parse_document(out).value.n == 3
    dco = tmp_path / "dco.dm"
    dco.write_text(DCO)
    code, out = run(["product", str(dco), str(dco)])
    assert code == 0 and out == "n 2\nfeasible 1 2\n"


def test_upper_matroid(dex_file):
    code, out = run(["upper-matroid", dex_file, "--window", "1 2 3"])
    assert code == 0
    assert out == "ground: 1 2 3\nrank: 1\nbasis 1\nbasis 2\nbasis 3\n"


def test_from_matroid_and_gf2(tmp_path):
    m = tmp_path / "u12.matroid"
    m.write_text("ground plain 2\nbasis 1\nbasis 2\n")
    code, out = run(["from-matroid", str(m), "--mode", "bases"])
    assert code == 0 and out == "n 2\nfeasible 1 -2\nfeasible -1 2\n"
    g = tmp_path / "swap.gf2"
    g.write_text("gf2 2\n0 1\n1 0\n")
    code, out = run(["from-gf2", str(g)])
    assert code == 0 and out == "n 2\nfeasible 1 2\nfeasible -1 -2\n"


def test_axioms_commands(dex_file, tmp_path):
    _, table_text = run(["rank-table", dex_file])
    rt = tmp_path / "dex.rt"
    rt.write_text(table_text)
    code, out = run(["axioms-g", str(rt)])
    assert code == 0 and out == "PASS\neven-criterion: yes\n"
    _, h_text = run(["h-table", dex_file])
    ht = tmp_path / "dex.ht"
    ht.write_text(h_text)
    for system in ("larson", "bouchet", "allys"):
        code, out = run(["axioms-h", str(ht), "--system", system])
        assert (code, out) == (0, "PASS\n"), system
    broken = tmp_path / "broken.rt"
    broken.write_text("ranktable 1\n: 0\n1: 2\n-1: 0\n")
    code, out = run(["axioms-g", str(broken)])
    assert code == 1 and out.startswith("FAIL:")


# Spoiled tables whose first five violations pin the order, witnesses and
# values that axioms-g and axioms-h print; each fails with at least five.
SPOILED_TABLES = {
    "A": (2, (0, 1, 1, 1, 3, 2, 2, -1, 2)),
    "B": (2, (0, 0, 1, 1, 1, 1, 2, 2, 0)),
    "C": (3, (1, 1, 2, 1, 1, 1, 1, 0, 2, 0, 2, 2, 2, 2, 2, 0, 2, 2, 2, -1, 1, 1, 3, 1, 3, 3, 1)),
    "Z": (3, (0,) * 27),
}
SPOILED_OUTPUT = {
    ("A", "axioms-g"): (
        "FAIL: boundedness at {-2}: 1 < 3\n"
        "FAIL: parity at {-1 2}: -1 < 2\n"
        "FAIL: bisubmodularity at {1}, {-1 2}: 0 < 1\n"
        "FAIL: bisubmodularity at {1 2}, {-1 2}: 1 < 2\n"
        "FAIL: bisubmodularity at {1 -2}, {-1 -2}: 4 < 6\n"
    ),
    ("A", "larson"): (
        "FAIL: larson-boundedness at {-2}: 3 < 0\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 2}: 0 < 3/2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 -2}: 3 < 7/2\n"
        "FAIL: larson-bisubmodularity at {-1}, {1 -2}: 3 < 7/2\n"
        "FAIL: larson-bisubmodularity at {1 2}, {-1 2}: 1 < 5/2\n"
    ),
    ("A", "bouchet"): (
        "FAIL: bouchet-unit-step at {}, {-2}: 3 < 0\n"
        "FAIL: bouchet-unit-step at {-1}, {-1 2}: -1 < 1\n"
        "FAIL: bouchet-unit-step at {2}, {-1 2}: -1 < 1\n"
        "FAIL: bouchet-unit-step at {-2}, {1 -2}: 2 < 3\n"
        "FAIL: bouchet-unit-step at {-2}, {-1 -2}: 2 < 3\n"
    ),
    ("A", "allys"): (
        "FAIL: allys-unit-step at {}, {-2}: 3 < 0\n"
        "FAIL: allys-unit-step at {-1}, {-1 2}: -1 < 1\n"
        "FAIL: allys-unit-step at {2}, {-1 2}: -1 < 1\n"
        "FAIL: allys-unit-step at {-2}, {1 -2}: 2 < 3\n"
        "FAIL: allys-unit-step at {-2}, {-1 -2}: 2 < 3\n"
    ),
    ("B", "axioms-g"): (
        "FAIL: parity at {1}: 0 < 1\n"
        "FAIL: parity at {1 2}: 1 < 2\n"
        "FAIL: bisubmodularity at {1}, {-2}: 1 < 2\n"
        "FAIL: bisubmodularity at {1}, {-1 -2}: 0 < 1\n"
        "FAIL: bisubmodularity at {-2}, {1}: 1 < 2\n"
    ),
    ("B", "larson"): (
        "FAIL: larson-bisubmodularity at {1}, {-2}: 1 < 2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 -2}: 0 < 3/2\n"
        "FAIL: larson-bisubmodularity at {2}, {-1 -2}: 1 < 3/2\n"
        "FAIL: larson-bisubmodularity at {-2}, {1}: 1 < 2\n"
        "FAIL: larson-bisubmodularity at {1 -2}, {-1 -2}: 2 < 5/2\n"
    ),
    ("B", "bouchet"): (
        "FAIL: bouchet-unit-step at {1}, {1 -2}: 2 < 0\n"
        "FAIL: bouchet-unit-step at {-1}, {-1 -2}: 0 < 1\n"
        "FAIL: bouchet-unit-step at {-2}, {-1 -2}: 0 < 1\n"
        "FAIL: bouchet-submodularity at {1}, {-2}: 1 < 2\n"
        "FAIL: bouchet-submodularity at {-2}, {1}: 1 < 2\n"
    ),
    ("B", "allys"): (
        "FAIL: allys-unit-step at {1}, {1 -2}: 2 < 0\n"
        "FAIL: allys-unit-step at {-1}, {-1 -2}: 0 < 1\n"
        "FAIL: allys-unit-step at {-2}, {-1 -2}: 0 < 1\n"
        "FAIL: allys-bisubmodularity at {1}, {-2}: 1 < 2\n"
        "FAIL: allys-bisubmodularity at {1}, {-1 -2}: 0 < 2\n"
    ),
    ("C", "axioms-g"): (
        "FAIL: normalization at {}: 1 < 0\n"
        "FAIL: parity at {}: 1 < 0\n"
        "FAIL: boundedness at {-1}: 1 < 2\n"
        "FAIL: parity at {-1}: 2 < 1\n"
        "FAIL: bisubmodularity at {1}, {-2}: 2 < 3\n"
    ),
    ("C", "larson"): (
        "FAIL: larson-normalization at {}: 1 < 0\n"
        "FAIL: larson-boundedness at {-1}: 2 < 0\n"
        "FAIL: larson-bisubmodularity at {1}, {-2}: 2 < 3\n"
        "FAIL: larson-bisubmodularity at {1}, {-3}: 2 < 3\n"
        "FAIL: larson-bisubmodularity at {1}, {-2 -3}: 3 < 4\n"
    ),
    ("C", "bouchet"): (
        "FAIL: bouchet-normalization at {}: 1 < 0\n"
        "FAIL: bouchet-unit-step at {1}, {1 2}: 0 < 1\n"
        "FAIL: bouchet-unit-step at {1}, {1 3}: 0 < 1\n"
        "FAIL: bouchet-unit-step at {2}, {1 2}: 0 < 1\n"
        "FAIL: bouchet-unit-step at {2}, {2 3}: 0 < 1\n"
    ),
    ("C", "allys"): (
        "FAIL: allys-normalization at {}: 1 < 0\n"
        "FAIL: allys-unit-step at {1}, {1 2}: 0 < 1\n"
        "FAIL: allys-unit-step at {1}, {1 3}: 0 < 1\n"
        "FAIL: allys-unit-step at {2}, {1 2}: 0 < 1\n"
        "FAIL: allys-unit-step at {2}, {2 3}: 0 < 1\n"
    ),
    ("Z", "axioms-g"): (
        "FAIL: parity at {1}: 0 < 1\n"
        "FAIL: parity at {-1}: 0 < 1\n"
        "FAIL: parity at {2}: 0 < 1\n"
        "FAIL: parity at {-2}: 0 < 1\n"
        "FAIL: parity at {3}: 0 < 1\n"
    ),
    ("Z", "larson"): (
        "FAIL: larson-bisubmodularity at {1}, {-1}: 0 < 1/2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 2}: 0 < 1/2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 -2}: 0 < 1/2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 3}: 0 < 1/2\n"
        "FAIL: larson-bisubmodularity at {1}, {-1 -3}: 0 < 1/2\n"
    ),
    ("Z", "bouchet"): (
        "FAIL: bouchet-pair-step at {}: 0 < 1\n"
        "FAIL: bouchet-pair-step at {}: 0 < 1\n"
        "FAIL: bouchet-pair-step at {}: 0 < 1\n"
        "FAIL: bouchet-pair-step at {1}: 0 < 1\n"
        "FAIL: bouchet-pair-step at {1}: 0 < 1\n"
    ),
    ("Z", "allys"): (
        "FAIL: allys-bisubmodularity at {1}, {-1}: 0 < 1\n"
        "FAIL: allys-bisubmodularity at {1}, {-1 2}: 0 < 1\n"
        "FAIL: allys-bisubmodularity at {1}, {-1 -2}: 0 < 1\n"
        "FAIL: allys-bisubmodularity at {1}, {-1 3}: 0 < 1\n"
        "FAIL: allys-bisubmodularity at {1}, {-1 -3}: 0 < 1\n"
    ),
}


def test_axioms_output_on_spoiled_tables(tmp_path):
    for name, (n, values) in SPOILED_TABLES.items():
        rt = tmp_path / f"{name}.rt"
        rt.write_text(serialize_value(RankTable(n, values)))
        for system in ("axioms-g", "larson", "bouchet", "allys"):
            argv = ["axioms-g", str(rt)] if system == "axioms-g" else ["axioms-h", str(rt), "--system", system]
            assert run(argv) == (1, SPOILED_OUTPUT[name, system]), (name, system)


def _axiom_pin_tables():
    """(n, kind, values) of the seeded gf2 g and h tables at n = 1..8 and of spoiled copies.

    The shifts, the lowered value at {} and the added sizes keep every pair inequality, so
    no spoil sends a large table to the 9^n pair scan; the shifts put a value on each lane
    bound and one past it (31, 32, -32, -33) and at +1000.  At n <= 5 entries are also
    replaced at random, which breaks pair inequalities too.
    """
    for n in range(1, 9):
        d = random_valid(random.Random(n), n, "gf2")
        sizes = [s.size for s in ground.enumerate_admissible(n)]
        rng = random.Random(f"axiom-pins-{n}")
        for kind, table in (("g", d.rank_table()), ("h", d.h_table())):
            values = table.values
            yield n, kind, values
            yield n, kind, (values[0] - 2,) + values[1:]
            yield n, kind, tuple(v + (2 if kind == "g" else 1) * s for v, s in zip(values, sizes))
            for shift in (1000, 31 - max(values), 32 - max(values), -32 - min(values), -33 - min(values)):
                yield n, kind, tuple(v + shift for v in values)
            for _ in range(6 if n <= 5 else 0):
                spoiled = list(values)
                for k in rng.sample(range(len(values)), rng.randint(1, 2)):
                    v = spoiled[k]
                    spoiled[k] = rng.choice((v - 2, v - 1, v + 1, v + 2, -33, -32, 31, 32, -1000, 1000))
                yield n, kind, tuple(spoiled)


# stdout and exit codes as recorded before the checkers read tables into byte lanes
AXIOM_PINS_SHA256 = "f51562b5ccc207e1f819b31c8eee86437b98f1660076ee08dbfc784142f5e665"


def test_axiom_commands_pinned_on_seeded_tables(tmp_path):
    # axioms-g on g tables and axioms-h for each system on h tables, on both at n <= 4
    runs = []
    path = tmp_path / "t.rt"
    for n, kind, values in _axiom_pin_tables():
        path.write_text(serialize_value(RankTable(n, values)))
        commands = [["axioms-g"]] * (kind == "g" or n <= 4)
        commands += [["axioms-h", "--system", s] for s in ("larson", "bouchet", "allys")] * (kind == "h" or n <= 4)
        for command in commands:
            runs.append([n, kind, *command, *run([command[0], str(path), *command[1:]])])
    assert len(runs) == 600
    assert sum(code == 0 for *_, code, _ in runs) == 36
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == AXIOM_PINS_SHA256


def test_envelope(tmp_path, dex_file):
    d = tmp_path / "u12b.dm"
    d.write_text("n 2\nfeasible 1 -2\nfeasible -1 2\n")
    m = tmp_path / "env.matroid"
    m.write_text("ground signed 2\nbasis 1 -2\nbasis -1 2\nbasis 1 -1\nbasis 2 -2\n")
    code, out = run(["envelope", str(d), "--check", str(m)])
    assert code == 0 and out == "PASS\n"
    code, out = run(["envelope", str(d), "--search"])
    assert code == 0 and out.startswith("found after")
    assert "ground signed 2" in out
    code, out = run(["envelope", str(d), "--search", "--limit", "0"])
    assert code == 1 and out.startswith("inconclusive")
    code, _ = run(["envelope", str(d)])
    assert code == 2


def test_lorentzian_and_logconc(dex_file):
    code, out = run(["lorentzian", dex_file, "--which", "efls"])
    assert "polynomial:" in out
    code, out = run(["logconc", dex_file])
    assert code == 0
    assert "a: 1 6 9 3" in out
    assert "inequality (2): holds for all k" in out
    assert "normalized sequence (1, 1, 3/5, 3/20, 0, 0, 0): log-concave" in out


GF2_9_UPOLY = (
    "276 + 1768*u + 199*v + 4115*u^2 + 502*u*v + 35*v^2 + 5128*u^3 + 484*u^2*v + 34*u*v^2 + 2*v^3"
    " + 3957*u^4 + 247*u^3*v + 9*u^2*v^2 + 2003*u^5 + 75*u^4*v + u^3*v^2 + 671*u^6 + 13*u^5*v"
    " + 144*u^7 + u^6*v + 18*u^8 + u^9\n"
)
GF2_9_UPOLY_JSON = (
    '{"variables":["u","v"],"terms":[[[0,0],"276"],[[1,0],"1768"],[[0,1],"199"],[[2,0],"4115"],'
    '[[1,1],"502"],[[0,2],"35"],[[3,0],"5128"],[[2,1],"484"],[[1,2],"34"],[[0,3],"2"],[[4,0],"3957"],'
    '[[3,1],"247"],[[2,2],"9"],[[5,0],"2003"],[[4,1],"75"],[[3,2],"1"],[[6,0],"671"],[[5,1],"13"],'
    '[[7,0],"144"],[[6,1],"1"],[[8,0],"18"],[[9,0],"1"]]}\n'
)
GF2_9_FVECTOR = "1 18 144 671 2003 3957 5128 4115 1768 276\n"
GF2_9_COMPLEX = "f-vector: 1 18 144 670 1990 3882 4882 3640 1300 110; pure: no\n"
GF2_9_ACTIVITY_SHA256 = "10df0cf748d2220f77fbd2ec5c10a55539301139b8b1d2da871548641654890d"
GF2_9_LOGCONC = (
    "a: 1 18 144 671 2003 3957 5128 4115 1768 276\n"
    "inequality (1): holds for all k\n"
    "inequality (2): holds for all k\n"
    "inequality (3): holds for all k\n"
    "normalized sequence (1, 1, 16/17, 671/816, 2003/3060, 1319/2856, 1282/4641, 4115/31824, 4/99,"
    " 69/12155, 0, 0, 0, 0, 0, 0, 0, 0, 0): log-concave\n"
    "two-variable check agrees with inequality (2): yes\n"
)


def test_enumerator_and_fvector_output_pinned_at_n9(tmp_path):
    # a seeded gf2 instance with |F| = 276; the figures were recorded from the rank-table route,
    # and the complex and activity output from the per-support activity route
    d = random_valid(random.Random(9), 9, "gf2")
    assert len(d.feasible) == 276
    path = tmp_path / "gf2-9.dm"
    path.write_text(serialize_value(d))
    assert run(["upoly", str(path)]) == (0, GF2_9_UPOLY)
    assert run(["upoly", str(path), "--method", "compare"]) == (0, "equal: " + GF2_9_UPOLY)
    assert run(["upoly", str(path), "--json"]) == (0, GF2_9_UPOLY_JSON)
    assert run(["fvector", str(path)]) == (0, GF2_9_FVECTOR)
    assert run(["logconc", str(path)]) == (0, GF2_9_LOGCONC)
    assert run(["complex", str(path)]) == (0, GF2_9_COMPLEX)
    code, out = run(["activity", str(path), "--all"])
    assert (code, len(out.splitlines())) == (0, 18081)
    assert hashlib.sha256(out.encode()).hexdigest() == GF2_9_ACTIVITY_SHA256


# recorded from the route that read out through a 3^n index; at n = 11 > TAIL_WIDTH the walk
# has prefixes on indices 1 and 2, so these cover the blocks the n = 9 pins, one block each, do not
GF2_11_OUTPUTS = {
    "rank-table": (177148, "fa67ebd4811eb5784931f473e61a381d5776aadf7c7813c7bc96cc042ca20bd5"),
    "h-table": (177148, "d718976e23ce8c286ce65e3bb329f876d8da69b5b23dc4b4084c8bc187772bd9"),
    "activity": (163410, "e70e53a1d3e95332a12d7f04db9343f7a4252c7a30c1bd69f62fdbb1d2e1c63f"),
}


@pytest.fixture()
def gf2_11_file(tmp_path):
    d = random_valid(random.Random(11), 11, "gf2")
    assert len(d.feasible) == 967
    path = tmp_path / "gf2-11.dm"
    path.write_text(serialize_value(d))
    return str(path)


def test_block_readouts_pinned_at_n11(gf2_11_file):
    for command, (lines, digest) in GF2_11_OUTPUTS.items():
        code, out = run([command, gf2_11_file] + (["--all"] if command == "activity" else []))
        assert (code, len(out.splitlines())) == (0, lines), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _widest(obj) -> int:
    """The most entries of any tuple or list that obj holds, through tuples, lists and itemgetters."""
    if isinstance(obj, operator.itemgetter):
        obj = gc.get_referents(obj)
    if not isinstance(obj, (tuple, list)):
        return 0
    return max([len(obj), *map(_widest, obj)])


def test_no_cache_holds_an_entry_per_set(gf2_11_file, tmp_path):
    # the read-out walks blocks of at most 3^9 sets: after the table, activity and axiom
    # commands at n = 11, no lru_cache of deltamat holds 3^11 codes, labels or getter items
    table = tmp_path / "g.rt"
    code, out = run(["rank-table", gf2_11_file])
    table.write_text(out)
    assert run(["h-table", gf2_11_file])[0] == run(["activity", gf2_11_file, "--all"])[0] == 0
    assert run(["axioms-g", str(table)]) == (0, "PASS\neven-criterion: no\n")
    cached = [
        cache[11]
        for module in [m for name, m in sys.modules.items() if name.startswith("deltamat")]
        for wrapper in vars(module).values() if hasattr(wrapper, "cache_info")
        for cache in gc.get_referents(wrapper) if isinstance(cache, dict) and 11 in cache
    ]
    assert any(value is ground._tails(11) for value in cached)  # the commands walked the canonical order
    assert max(map(_widest, cached)) <= 3**9


def test_table_file_is_read_a_block_at_a_time(gf2_11_file, tmp_path):
    # a table file as rank-table writes it is streamed into the lane: once the tails are cached, reading it
    # holds a few block-sized buffers and the lanes, not the file's text
    table = tmp_path / "g.rt"
    table.write_text(run(["rank-table", gf2_11_file])[1])
    n, lane = cli._load_by_code(str(table))
    assert n == 11 and isinstance(lane, bytes) and len(lane) == 3**11
    tracemalloc.start()
    try:
        assert cli._load_by_code(str(table)) == (n, lane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.stat().st_size // 2, (peak, table.stat().st_size)


def test_undecodable_table_file_names_its_byte(tmp_path, capsys):
    # the streamed read declines a table that does not decode; the whole-file read then reports
    # the byte's position in the file, not in the chunk being decoded
    data = bytearray(serialize_value(random_valid(random.Random(7), 7, "gf2").rank_table()).encode())
    data[20000] = 0xFF
    table = tmp_path / "bad.rt"
    table.write_bytes(data)
    for argv in (["axioms-g", str(table)], ["axioms-h", str(table), "--system", "allys"]):
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 20000: invalid start byte\n"
        ), argv


def test_table_and_lorentzian_commands_build_no_size_planes(tmp_path):
    # they read the digit-1 planes only; the n + 1 size planes are left to the commands that count by size
    path = tmp_path / "d.dm"
    path.write_text(serialize_value(random_valid(random.Random(6), 6, "gf2")))
    ground.size_planes.cache_clear()
    for argv in (["rank-table"], ["h-table"], ["lorentzian"], ["lorentzian", "--which", "efls"]):
        assert run([argv[0], str(path), *argv[1:]])[0] == 0
    assert ground.size_planes.cache_info().currsize == 0
    assert run(["fvector", str(path)])[0] == 0
    assert ground.size_planes.cache_info().currsize == 1


def test_example15_compare(tmp_path):
    m = tmp_path / "u11.matroid"
    m.write_text("ground plain 1\nbasis 1\n")
    code, out = run(["example15", str(m), "--mode", "independents", "--compare"])
    assert code == 1
    assert out == "formula: 4 + u\ndirect: 2 + u\nDIFFER\n"
    code, out = run(["example15", str(m), "--mode", "bases", "--compare"])
    assert code == 0
    assert out.endswith("equal\n")
    code, out = run(["example15", str(m), "--mode", "independents"])
    assert code == 0 and out == "4 + u\n"


# scan stdout pinned at n = 4, where the axiom entries run, and at n = 5
SCAN_30_4_5 = (
    "[0001] family n=4 |F|=4 ok\n"
    "[0002] gf2 n=4 |F|=5 ok\n"
    "[0003] twist n=4 |F|=14 ok\n"
    "[0004] family n=4 |F|=1 ok\n"
    "[0005] gf2 n=4 |F|=9 ok\n"
    "[0006] twist n=4 |F|=16 ok\n"
    "[0007] family n=4 |F|=2 ok\n"
    "[0008] gf2 n=4 |F|=10 ok\n"
    "[0009] twist n=4 |F|=1 ok\n"
    "[0010] family n=4 |F|=3 ok\n"
    "[0011] gf2 n=4 |F|=9 ok\n"
    "[0012] twist n=4 |F|=3 ok\n"
    "[0013] family n=4 |F|=1 ok\n"
    "[0014] gf2 n=4 |F|=10 ok\n"
    "[0015] twist n=4 |F|=1 ok\n"
    "[0016] family n=4 |F|=6 ok\n"
    "[0017] gf2 n=4 |F|=6 ok\n"
    "[0018] twist n=4 |F|=2 ok\n"
    "[0019] family n=4 |F|=1 ok\n"
    "[0020] gf2 n=4 |F|=9 ok\n"
    "[0021] twist n=4 |F|=10 ok\n"
    "[0022] family n=4 |F|=1 ok\n"
    "[0023] gf2 n=4 |F|=10 ok\n"
    "[0024] twist n=4 |F|=1 ok\n"
    "[0025] family n=4 |F|=2 ok\n"
    "[0026] gf2 n=4 |F|=8 ok\n"
    "[0027] twist n=4 |F|=1 ok\n"
    "[0028] family n=4 |F|=2 ok\n"
    "[0029] gf2 n=4 |F|=11 ok\n"
    "[0030] twist n=4 |F|=12 ok\n"
    "scan: 30 instances, all identities and inequalities hold\n"
)
SCAN_12_5_3 = (
    "[0001] family n=5 |F|=1 ok\n"
    "[0002] gf2 n=5 |F|=15 ok\n"
    "[0003] twist n=5 |F|=32 ok\n"
    "[0004] family n=5 |F|=1 ok\n"
    "[0005] gf2 n=5 |F|=10 ok\n"
    "[0006] twist n=5 |F|=1 ok\n"
    "[0007] family n=5 |F|=1 ok\n"
    "[0008] gf2 n=5 |F|=17 ok\n"
    "[0009] twist n=5 |F|=14 ok\n"
    "[0010] family n=5 |F|=3 ok\n"
    "[0011] gf2 n=5 |F|=21 ok\n"
    "[0012] twist n=5 |F|=28 ok\n"
    "scan: 12 instances, all identities and inequalities hold\n"
)


def test_scan_output_pinned():
    assert run(["scan", "--random", "30", "--size", "4", "--seed", "5"]) == (0, SCAN_30_4_5)
    assert run(["scan", "--random", "12", "--size", "5", "--seed", "3"]) == (0, SCAN_12_5_3)


def test_import_cli_leaves_acceptance_unloaded():
    code = "import sys, deltamat.cli; print('deltamat.acceptance' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_logconc_prints_violations_by_inequality(dex_file, monkeypatch):
    def failing(a, n):
        checks = (
            InequalityCheck(1, 1, 2, 3),
            InequalityCheck(1, 3, 4, 9),
            InequalityCheck(2, 1, 5, Fraction(11, 2)),
        )
        return LogConcavityReport(n, tuple(a), checks)

    monkeypatch.setattr(cli, "conjecture_check", failing)
    code, out = run(["logconc", dex_file])
    assert code == 1
    assert out.splitlines()[1:5] == [
        "CONJECTURE VIOLATION: inequality (1) fails at k=1: 2 < 3",
        "CONJECTURE VIOLATION: inequality (1) fails at k=2: 5 < 11/2",
        "inequality (2): holds for all k",
        "CONJECTURE VIOLATION: inequality (3) fails at k=1: 4 < 9",
    ]


def test_scan_deterministic():
    first = run(["scan", "--random", "9", "--size", "3", "--seed", "7"])
    second = run(["scan", "--random", "9", "--size", "3", "--seed", "7"])
    assert first == second
    code, out = first
    assert code == 0
    assert "all identities and inequalities hold" in out
    code, _ = run(["scan", "--random", "0", "--size", "3", "--seed", "7"])
    assert code == 2


UPOLY_DEX = "3 + 9*u + 4*v + 6*u^2 + 3*u*v + v^2 + u^3\n"


def test_parser_reused_after_usage_error_and_help(dex_file, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run(["validate", dex_file, "--method", "nope"])[0] == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    code, out = run(["--help"])
    assert code == 0 and out.startswith("usage: deltamat") and "selftest" in out
    assert run(["validate", dex_file]) == (0, "PASS\n")
    assert run(["upoly", dex_file, "--method", "compare"]) == (0, "equal: " + UPOLY_DEX)


def test_parser_defaults_do_not_leak_between_calls(dex_file):
    code, out = run(["upoly", dex_file, "--json"])
    assert code == 0 and out.startswith("{")
    assert run(["upoly", dex_file]) == (0, UPOLY_DEX)
    assert run(["upoly", dex_file, "--method", "compare"])[1].startswith("equal: ")
    assert run(["upoly", dex_file]) == (0, UPOLY_DEX)
    assert run(["activity", dex_file, "--set", "-2 -3"]) == (0, "a: 0\nactive:\n")
    assert run(["activity", dex_file])[0] == 2  # --set is back to its default


def _pipeline(tmp_path, dm, gf2):
    """The 16-command pipeline: a delta-matroid from a GF(2) matrix, then the
    tables, the axiom checks on them, the invariants and the Lorentzian checks."""
    outputs = [run(["from-gf2", gf2])]
    g, h = tmp_path / "pipe.g.rt", tmp_path / "pipe.h.rt"
    outputs.append(run(["validate", dm, "--method", "exchange"]))
    outputs.append(run(["rank-table", dm]))
    g.write_text(outputs[-1][1])
    outputs.append(run(["h-table", dm]))
    h.write_text(outputs[-1][1])
    outputs.append(run(["axioms-g", str(g)]))
    outputs += [run(["axioms-h", str(h), "--system", system]) for system in ("larson", "bouchet", "allys")]
    for argv in (["upoly", dm, "--method", "compare"], ["interlace", dm], ["fvector", dm],
                 ["activity", dm, "--all"], ["complex", dm], ["logconc", dm],
                 ["lorentzian", dm, "--which", "indep"], ["lorentzian", dm, "--which", "efls"]):
        outputs.append(run(argv))
    return outputs


def test_pipeline_twice_in_one_process_is_byte_identical(dex_file, tmp_path):
    gf2 = tmp_path / "swap.gf2"
    gf2.write_text("gf2 2\n0 1\n1 0\n")
    first = _pipeline(tmp_path, dex_file, str(gf2))
    assert len(first) == 16
    assert first[0] == (0, "n 2\nfeasible 1 2\nfeasible -1 -2\n")
    assert [code for code, _ in first] == [0] * 16
    assert run(["no-such-command"])[0] == 2
    assert run(["--help"])[0] == 0
    assert _pipeline(tmp_path, dex_file, str(gf2)) == first


def test_twist_rejects_bad_permutation(dex_file):
    code, _ = run(["twist", dex_file, "--perm", "1 1 2"])
    assert code == 2


def _construction_inputs():
    """The matrices, matroids and delta-matroids whose construction output is pinned."""
    rng = random.Random(2020)
    matrices = [Gf2SymMatrix(n, symmetric_rows(n, bits)) for n in range(4) for bits in range(1 << n * (n + 1) // 2)]
    for _ in range(40):
        n = rng.randint(4, 9)
        matrices.append(Gf2SymMatrix(n, symmetric_rows(n, rng.getrandbits(n * (n + 1) // 2))))
    matroids = [Matroid.uniform(r, m) for m in range(6) for r in range(m + 1)]
    while len(matroids) < 21 + 40:
        m = _random_matroid(rng, rng.randint(1, 7))
        if validate_matroid(m).passed:
            matroids.append(m)
    families = []
    for k in range(60):
        n = rng.randint(1, 7)
        if k % 2:
            families.append(random_family(rng, n))
        else:
            families.append(random_valid(rng, n, ("family", "gf2", "twist")[k // 2 % 3]))
    return rng, matrices, matroids, families


def _construction_runs(tmp_path):
    """(argv with the file path as FILE, exit code, stdout, stderr) of every pinned construction run."""
    rng, matrices, matroids, families = _construction_inputs()
    path = tmp_path / "input"

    def call(value, *args):
        path.write_text(serialize_value(value))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([args[0], str(path), *args[1:]])
        return [args[0], "FILE", *args[1:]], code, out.getvalue(), err.getvalue()

    runs = [call(a, "from-gf2") for a in matrices]
    for m in matroids:
        for mode in ("bases", "independents"):
            runs.append(call(m, "from-matroid", "--mode", mode))
            runs.append(call(m, "example15", "--mode", mode))
            runs.append(call(m, "example15", "--mode", mode, "--compare"))
        runs.append(["rank_generating", rank_generating(m).text()])
    for d in families:
        for _ in range(4):
            window = " ".join(str(i if rng.random() < 0.5 else -i) for i in range(1, d.n + 1))
            runs.append(call(d, "upper-matroid", "--window", window))
        for _ in range(4):
            groups = {"contract": [], "delete": [], "project": [], "keep": []}
            for i in range(1, d.n + 1):
                groups[rng.choice(tuple(groups))].append(i)
            ops = [f"--{op}={' '.join(map(str, groups[op]))}" for op in ("contract", "delete", "project")]
            runs.append(call(d, "minor", *ops))
        for method in ("recursive", "compare"):
            runs.append(call(d, "upoly", "--method", method))
    return runs


CONSTRUCTIONS_SHA256 = "7d2c6fb109092685adbbb5883bfb8137e4f552c93dfda6254852cef25d2af625"


def test_construction_outputs_pinned(tmp_path):
    # from-gf2, from-matroid, example15, upper-matroid, minor and the recursive upoly on valid
    # and invalid families, and the text of rank_generating, as recorded from the per-subset routes
    runs = _construction_runs(tmp_path)
    assert len(runs) == 75 + 40 + 61 * 7 + 60 * 10
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == CONSTRUCTIONS_SHA256


def _lorentzian_pin_instances():
    """Seeded valid delta-matroids of each distribution and arbitrary families, n = 1-10."""
    rng = random.Random(2525)
    for n in range(1, 11):
        for dist in ("gf2", "twist", "family"):
            yield random_valid(rng, n, dist)
        for _ in range(2 if n <= 6 else 1):
            yield random_family(rng, n)


# stdout and exit codes as recorded before the Hessians of full slices were read by underline mask
LORENTZIAN_PINS_SHA256 = "02c8374999779f5f4f61f4fded26b3e4d70ce4bbc77da401532eeb3070676f67"


def test_lorentzian_commands_pinned_on_seeded_instances(tmp_path):
    runs = []
    path = tmp_path / "d.dm"
    for d in _lorentzian_pin_instances():
        path.write_text(serialize_value(d))
        for which in ("indep", "efls"):
            for extra in ([], ["--json"]):
                runs.append([d.n, which, *extra, *run(["lorentzian", str(path), "--which", which, *extra])])
    assert len(runs) == 184 and all(code == 0 for *_, code, _ in runs)
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == LORENTZIAN_PINS_SHA256


def _delta_pin_files():
    """(name, text) of seeded families at n = 0-9: each as ``serialize_value`` writes it, then its
    lines shuffled with some repeated, which reads as the same family."""
    for n in range(10):
        rng = random.Random(f"dm-pins-{n}")
        families = [random_valid(rng, n, dist) for dist in ("gf2", "twist", "family")]
        families.append(random_family(rng, n, max_size=2 * n + 2))
        for k, d in enumerate(families):
            text = serialize_value(d)
            head, *body = text.splitlines()
            body += rng.choices(body, k=rng.randint(1, len(body)))
            rng.shuffle(body)
            yield f"{n}-{k}", text
            yield f"{n}-{k}-shuffled", "\n".join([head, *body]) + "\n"


def _delta_pin_commands(d, rng):
    """The argument lists after FILE of every command that reads a delta-matroid file, for this family."""
    n = d.n
    some_set = " ".join(str(i if rng.random() < 0.5 else -i) for i in range(1, n + 1) if rng.random() < 0.6)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    groups = {"contract": [], "delete": [], "project": [], "keep": []}
    for i in range(1, n + 1):
        groups[rng.choice(tuple(groups))].append(i)
    minor = [f"--{op}={' '.join(map(str, groups[op]))}" for op in ("contract", "delete", "project")]
    return [
        ["validate"], ["validate", "--method", "exchange"], ["validate", "--method", "polytope"], ["info"],
        ["rank", some_set], ["rank-table"], ["h-table"],
        ["upoly"], ["upoly", "--json"], ["upoly", "--method", "recursive"], ["upoly", "--method", "compare"],
        ["interlace"], ["interlace", "--json"], ["fvector"], ["activity", "--all"], ["activity", "--set", some_set],
        ["complex"], ["minor", *minor],
        ["twist", "--perm", " ".join(str(p if rng.random() < 0.5 else -p) for p in perm)],
        ["upper-matroid", "--window", " ".join(str(i if rng.random() < 0.5 else -i) for i in range(1, n + 1))],
        ["envelope", "--search", "--limit", "30"],
        ["lorentzian"], ["lorentzian", "--which", "efls", "--json"], ["logconc"],
    ]


# stdout and exit codes as recorded before delta-matroid files were read in whole-text passes
DELTA_PINS_SHA256 = "2335911f16957351ab5aa58e90a68b6b58e78776d2116cfd910a3e256c82fb67"


def test_delta_matroid_commands_pinned(tmp_path):
    # every command that reads a delta-matroid file, on files as written and as shuffled
    runs = []
    path, other, matroid = tmp_path / "d.dm", tmp_path / "other.dm", tmp_path / "m.matroid"
    other.write_text(DCO + "feasible -1\n")
    for name, text in _delta_pin_files():
        path.write_text(text)
        d = parse_document(text).value
        matroid.write_text(serialize_value(Matroid.signed(d.n, [s.elements() for s in d.feasible_sets()])))
        commands = _delta_pin_commands(d, random.Random(name.removesuffix("-shuffled")))
        commands += [["product", str(other)], ["envelope", "--check", str(matroid)]]
        for command in commands:
            runs.append([name, *command[:1], *run([command[0], str(path), *command[1:]])])
    assert len(runs) == 2080 and sum(code == 0 for *_, code, _ in runs) == 1952
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == DELTA_PINS_SHA256
