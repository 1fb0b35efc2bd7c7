import random
import tracemalloc
from itertools import chain

import pytest

from deltamat import formats
from deltamat.deltamatroid import DeltaMatroid, RankTable, g_lanes, h_lanes
from deltamat.formats import (
    ParseError,
    _feasible_mask,
    _lines,
    _logical_lines,
    _parse_ranktable,
    parse_document,
    ranktable_chunks,
    ranktable_lane,
    serialize_value,
)
from deltamat.ground import AdmissibleSet, canonical_reads
from deltamat.matroid import Gf2SymMatrix, Matroid, upper_matroid
from deltamat.randgen import random_valid
from deltamat.rankfn import H_SYSTEMS, g_axioms, h_axioms

from conftest import canonical_codes, oracle_families, sset


def roundtrip(value):
    doc = parse_document(serialize_value(value))
    assert doc.value == value
    return doc


def test_delta_matroid_round_trip(tripod, coloop1):
    assert parse_document("n 1\nfeasible 1\n").value == coloop1
    doc = roundtrip(tripod)
    assert doc.kind == "delta-matroid"
    roundtrip(DeltaMatroid(0, [0]))
    # serialization is canonical no matter the input order
    scrambled = "n 3\nfeasible -1 -2 3\nfeasible 1 -2 -3\nfeasible -1 2 -3\n"
    assert serialize_value(parse_document(scrambled).value) == serialize_value(tripod)


def test_delta_matroid_output_builds_no_set(built_sets):
    d = random_valid(random.Random(8), 8, "gf2")
    built_sets.clear()
    text = serialize_value(d)
    assert built_sets == []
    assert text == "n 8\n" + "".join(f"feasible {b.render()}\n" for b in d.feasible_sets())
    assert len(d.feasible) > 1
    assert serialize_value(DeltaMatroid(0, [0])) == "n 0\nfeasible\n"


def test_delta_matroid_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_document("n 1\nfeasible 1 -1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_document("n 2\nfeasible 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_document("n 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_document("n 1\nfeasible 1\nbasis 1\n")
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError, match="line 1"):
        parse_document("delta 1\n")


def test_delta_matroid_parse_messages_pinned():
    cases = {
        "n 2\nfeasible 0 1\n": "line 2: element 0 outside signed ground set of size 2",
        "n 2\nfeasible 1 3\n": "line 2: element 3 outside signed ground set of size 2",
        "n 2\nfeasible 1 -3\n": "line 2: element -3 outside signed ground set of size 2",
        "n 2\nfeasible 1 -1\n": "line 2: inadmissible set: some index appears with both signs",
        "n 2\nfeasible 1 -1 2\n": "line 2: inadmissible set: some index appears with both signs",
        "n 2\nfeasible 1\n": "line 2: feasible set must have size 2, got 1",
        "n 2\nfeasible 1 2\nfeasible 1 -2 -1\n": "line 3: inadmissible set: some index appears with both signs",
        "n -1\n": "line 1: ground size must be non-negative",
        "n -1\nfeasible\n": "line 1: ground size must be non-negative",
        "n 2\n": "line 1: delta-matroid needs at least one feasible line",
        "n 2\n# only a comment\n": "line 1: delta-matroid needs at least one feasible line",
        "n 0\nfeasible 1\n": "line 2: element 1 outside signed ground set of size 0",
        "n 2\nfeasible 1 x\n": "line 2: expected signed index, got 'x'",
        "n 2\nfeasible 1 2.0\n": "line 2: expected signed index, got '2.0'",
        "n x\nfeasible 1\n": "line 1: expected ground size, got 'x'",
        "n\n": "line 1: header must be 'n <size>'",
        "n 2 3\n": "line 1: header must be 'n <size>'",
        "n 2\nfeasible 1 2\nbasis 1 2\n": "line 3: expected 'feasible ...', got 'basis'",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == message, text
    # ground size 0, with or without (empty) feasible lines, is the one empty delta-matroid
    for text in ("n 0\n", "n 0\nfeasible\n", "n 0\nfeasible\nfeasible\n"):
        assert parse_document(text).value == DeltaMatroid(0, [0])
    # repeated elements and repeated lines collapse
    assert parse_document("n 1\nfeasible 1 1\nfeasible -1\nfeasible 1\n").value == DeltaMatroid(1, [0, 1])


def _spoiled_token(token, rng):
    """A token with one defect, or the token joined to its neighbour by a tab; some still read as an index."""
    return rng.choice(("-" + token, token.replace("-", "- "), token + "-", "+" + token, "0" + token, "\t" + token))


def _spoiled_text(text, n, rng):
    """The text with one defect of the whole document; some leave a file the line parse accepts."""
    head, *body = text.splitlines()
    k = rng.randrange(len(body))
    spoils = (
        lambda: text.replace("\n", "\r\n"),
        lambda: text[:-1],
        lambda: "\n".join([head, *body[:k], "# a comment", *body[k:]]) + "\n",
        lambda: "\n".join([f"n 0{n}", *body]) + "\n",
        lambda: "\n".join(["n 0", *body]) + "\n",
        lambda: "\n".join([head, *body[:k], body[k] + rng.choice((" ", " -")), *body[k + 1 :]]) + "\n",
        lambda: "# a" + rng.choice(("\r", "\x0b", "\x85", "\u2028")) + body[k] + "\n" + text,  # splitlines breaks it
    )
    return rng.choice(spoils)()


def test_feasible_lines_convert_as_element_by_element(tripod):
    # the whole-text route must give the family of the line route, element by
    # element, or leave the text to it and its error, exactly as that route
    # alone would.  Half the documents keep tokens in index order, as written,
    # some with leading comments and repeated lines; the spoils aim at the
    # route's checks.  The other half mix shuffled, repeated, signed-plus,
    # zero-padded, zero, out-of-range and non-integer tokens.
    def by_element(text):
        lines = _logical_lines(text)
        lineno, head = lines[0]
        if head[0] != "n":
            return f"line {lineno}: unknown document header {head[0]!r}"
        n = int(head[1])
        try:
            masks = [_feasible_mask(n, tokens, lineno) for lineno, tokens in lines[1:]]
        except ParseError as exc:
            return str(exc)
        return DeltaMatroid(n, masks)

    rng = random.Random(1729)
    as_written = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        ordered = rng.random() < 0.5
        body = []
        for _ in range(rng.randint(1, 4)):
            tokens = [str(i if rng.random() < 0.5 else -i) for i in range(1, n + 1)]
            if ordered and rng.random() < 0.3:
                k = rng.randrange(n)
                tokens[k] = _spoiled_token(tokens[k], rng)
            elif not ordered:
                if rng.random() < 0.6:
                    k = rng.randrange(n)
                    tokens[k] = rng.choice([tokens[rng.randrange(n)], f"+{k + 1}", f"0{k + 1}", "0", str(n + 1), "-x"])
                rng.shuffle(tokens)
            body.append("feasible " + " ".join(tokens))
        if ordered and rng.random() < 0.5:
            body += rng.choices(body, k=rng.randint(1, 3))
        text = f"n {n}\n" + "\n".join(body) + "\n"
        if ordered and rng.random() < 0.3:
            text = _spoiled_text(text, n, rng)
        text = "# kept 1 3\n#\n" * (rng.random() < 0.2) + text
        as_written += formats._delta_as_written(text) is not None
        try:
            got = parse_document(text).value
        except ParseError as exc:
            got = str(exc)
        assert got == by_element(text), text
        if isinstance(got, DeltaMatroid):
            assert got.feasible == DeltaMatroid(got.n, got.feasible).feasible  # distinct, canonical order
    assert as_written > 500


def test_delta_files_as_written_skip_the_line_parse(monkeypatch):
    # files as serialize_value writes them, with leading comments as minor
    # prints them, or with lines shuffled and repeated, take one whole-text pass
    rng = random.Random(26)
    cases = []
    for d in oracle_families():
        head, *body = serialize_value(d).splitlines()
        body += rng.choices(body, k=rng.randint(0, 3))
        rng.shuffle(body)
        comments = "# kept 1 2\n" * rng.randint(0, 2)
        cases.append((d, comments + "\n".join([head, *body]) + "\n"))
    refuse = lambda *args: pytest.fail("a file as written reached the line parse")  # noqa: E731
    monkeypatch.setattr(formats, "_logical_lines", refuse)
    monkeypatch.setattr(formats, "_feasible_mask", refuse)
    for d, text in cases:
        if d.n:
            assert parse_document(text).value.feasible == d.feasible, text
    # a huge header is declined before a line of that size is built, and many
    # short lines before the skeleton is repeated for each (240 MB here)
    huge = "n 99999999999999999999\nfeasible 1\n"
    tracemalloc.start()
    try:
        for text in (huge, "n " + "9" * 5000 + "\nfeasible 1\n", "n 5000\n" + "\n" * 10009):
            assert formats._delta_as_written(text) is None
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    with pytest.raises(ParseError, match="line 2: feasible set must have size 99999999999999999999, got 1"):
        parse_document(huge)


def test_comments_and_blank_lines(tripod):
    text = "# a comment\n\nn 3  # trailing comment\nfeasible 1 -2 -3\nfeasible -1 2 -3\nfeasible -1 -2 3\n"
    assert parse_document(text).value == tripod


def test_matroid_round_trip():
    roundtrip(Matroid.uniform(1, 2))
    roundtrip(Matroid.uniform(0, 2))  # a "basis" line with no elements
    roundtrip(Matroid.pair_partition(2))
    roundtrip(Matroid.signed(2, [[1, -1], [2, -2]]))
    with pytest.raises(ParseError, match="line 1"):
        parse_document("ground flat 2\nbasis 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_document("ground plain 2\nbasis -1\n")
    with pytest.raises(ParseError):
        parse_document("ground plain 2\n")


def test_partial_ground_matroid_has_no_file_form(tripod):
    window = upper_matroid(tripod, sset(3, 1, 2, 3))
    serialize_value(window)  # plain 1..3 ground: fine
    partial = upper_matroid(tripod, sset(3, 1, -2, 3))
    with pytest.raises(TypeError):
        serialize_value(partial)


def test_gf2_round_trip():
    roundtrip(Gf2SymMatrix.from_lists([[0, 1], [1, 0]]))
    roundtrip(Gf2SymMatrix.from_lists([[1]]))
    with pytest.raises(ParseError, match="line 2"):
        parse_document("gf2 2\n0 1 1\n1 0\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_document("gf2 2\n0 1\n1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_document("gf2 2\n0 1\n1 0\n0 0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_document("gf2 2\n0 1\n0 0\n")  # not symmetric


def test_ranktable_chunks_join_to_the_serialized_text(tripod, tail_width):
    # the CLI streams one piece per block from the lanes by code; any tail width gives the one text
    zero = DeltaMatroid(0, [0])
    assert serialize_value(zero.rank_table()) == "ranktable 0\n: 0\n"
    for d in (zero, tripod):
        for table, by_code in ((d.rank_table(), g_lanes(d.n, d.feasible)), (d.h_table(), h_lanes(d.n, d.feasible))):
            lines = [f"ranktable {table.n}"] + [f"{s.render()}: {v}" for s, v in table.items()]
            text = "\n".join(lines) + "\n"
            for width in (0, 1, 2, 9):
                tail_width(width)
                assert serialize_value(table) == text
                assert "".join(ranktable_chunks(d.n, chain.from_iterable(canonical_reads(d.n, by_code)))) == text


def test_ranktable_round_trip(tripod, coloop1):
    roundtrip(tripod.rank_table())
    roundtrip(coloop1.h_table())
    good = serialize_value(coloop1.rank_table())
    assert good == "ranktable 1\n: 0\n1: 1\n-1: -1\n"
    with pytest.raises(ParseError, match="canonical order"):
        parse_document("ranktable 1\n: 0\n-1: -1\n1: 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_document("ranktable 1\n: 0\n1: 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_document("ranktable 1\n0\n1: 1\n-1: -1\n")


def test_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        serialize_value(42)


def _items_render(table):
    """Oracle: the table rendered through set objects, one per admissible set."""
    lines = [f"ranktable {table.n}"]
    lines += [f"{s.render()}: {v}".lstrip() for s, v in table.items()]
    return "\n".join(lines) + "\n"


def test_ranktable_render_matches_set_objects():
    rng = random.Random(2468)
    for n in range(7):
        tables = [RankTable(n, tuple(rng.randint(-2 * n - 1, 2 * n + 1) for _ in range(3**n))) for _ in range(3)]
        tables += [d.rank_table() for d in oracle_families() if d.n == n][:4]
        tables += [d.h_table() for d in oracle_families() if d.n == n][:4]
        for table in tables:
            text = serialize_value(table)
            assert text == _items_render(table)
            assert text.splitlines()[1].startswith(": ")
            assert parse_document(text).value == table


def test_ranktable_parse_accepts_loose_lines_and_keeps_messages():
    # lines serialize_value would not write take the full parse: signs, spaces, comments
    loose = "ranktable 1\n  :0   # empty set\n+1 :   1\n-1:-1\n"
    assert parse_document(loose).value == RankTable(1, (0, 1, -1))
    cases = {
        "ranktable 1\n: 0\n1: 1: 2\n-1: -1\n": "line 3: expected signed index, got '1:'",
        "ranktable 1\n: 0\n1 2: 1\n-1: -1\n": "line 3: element 2 outside signed ground set of size 1",
        "ranktable 1\n: 0\n1: x\n-1: -1\n": "line 3: expected table value, got 'x'",
        "ranktable 1\n: 0\n1:\n-1: -1\n": "line 3: expected table value, got ''",
        "ranktable 1\n: 0\n-1: 1\n1: -1\n": "line 3: sets out of canonical order: expected {1}",
        "ranktable 2\n: 0\n1: 1\n-1: -1\n2: 1\n-2: -1\n1 -2: 0\n1 2: 2\n-1 2: 0\n-1 -2: -2\n":
            "line 7: sets out of canonical order: expected {1 2}",
        "ranktable 1\n: 0\n1 1\n-1: -1\n": "line 3: expected '<set>: <value>'",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="^ground size must be non-negative$"):
        parse_document("ranktable -1\n: 0\n")


def _ranktable_variants():
    """Texts near the serialized form of one n = 2 table, with the parse each must give."""
    table = RankTable(2, (0, 1, -1, 2, -2, 3, -3, 4, -4))
    lines = serialize_value(table).splitlines()

    def edit(k, line):
        out = list(lines)
        out[k] = line
        return "\n".join(out) + "\n"

    swapped = list(lines)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    moved = lines[:2] + ["1", "1: -1: -1"] + lines[4:]  # one colon moved down a line: the heads still line up
    commented = ["# a rank table", lines[0] + "  # n = 2", ""] + lines[1:4] + [lines[4] + " # four", ""] + lines[5:]
    same = table.values
    return {
        # (text, read as written by ranktable_lane, values or error message)
        "as written": (serialize_value(table), True, same),
        "no final newline": ("\n".join(lines), False, same),
        "crlf": ("\r\n".join(lines) + "\r\n", False, same),
        "trailing spaces": (edit(3, lines[3] + "   "), False, same),
        "plus sign": (edit(2, "1: +5"), False, (0, 5) + same[2:]),
        "underscore": (edit(4, "2: 1_0"), False, same[:3] + (10,) + same[4:]),
        "form feed": (edit(3, "\x0c" + lines[3]), False, same),
        "comments and blank lines": ("\n".join(commented) + "\n", False, same),
        "extra token": (edit(3, lines[3] + " 7"), False, "line 4: expected table value, got '-1 7'"),
        "reordered tokens": (edit(6, "2 1: 3"), False, same),
        "signed head": (edit(2, "+1: 1"), False, same),
        "duplicated token": (edit(2, "1 1: 1"), False, same),
        "swapped lines": ("\n".join(swapped) + "\n", False, "line 4: sets out of canonical order: expected {-1}"),
        "truncated": ("\n".join(lines[:-2]) + "\n", False, "line 1: expected 9 table lines, got 7"),
        "extra line": (serialize_value(table) + lines[-1] + "\n", False, "line 1: expected 9 table lines, got 10"),
        "colon moved": ("\n".join(moved) + "\n", False, "line 3: expected '<set>: <value>'"),
        "bad header": (edit(0, "ranktable 2 2"), False, "line 1: header must be 'ranktable <n>'"),
        "long size": (edit(0, "ranktable " + "9" * 5000), False, "line 1: expected ground size, got '%s'" % ("9" * 5000)),
    }


def _outcome(parse, text):
    try:
        return parse(text).values
    except ParseError as exc:
        return str(exc)


def test_ranktable_whole_body_check_matches_line_parse(tail_width):
    def line_parse(text):
        return _parse_ranktable(_logical_lines(text))

    def document(text):
        return parse_document(text).value

    # the body is checked a block at a time; tails of width 0 and 1 cut the 9 lines everywhere
    for width in (9, 0, 1):
        tail_width(width)
        for name, (text, as_written, expected) in _ranktable_variants().items():
            assert (ranktable_lane(_lines(text)) is not None) == as_written, (name, width)
            assert _outcome(document, text) == _outcome(line_parse, text) == expected, (name, width)


def test_commented_table_parse_builds_no_sets(monkeypatch):
    table = DeltaMatroid(5, range(0, 32, 3)).rank_table()
    text = "# a commented table\n" + serialize_value(table)

    def refuse(*args):
        raise AssertionError("a set was built")

    monkeypatch.setattr(AdmissibleSet, "from_elements", refuse)
    assert ranktable_lane(_lines(text)) is None
    assert parse_document(text).value == table


def _lane_test_tables():
    """Seeded gf2 g and h tables at n <= 5, as they are and spoiled: entries changed at random at n <= 4,
    and at n = 5, where a failing pair axiom is scanned over 9^5 pairs, the value at {} lowered."""
    rng = random.Random(4242)
    for n in range(6):
        d = random_valid(rng, n, "gf2")
        for table in (d.rank_table(), d.h_table()):
            values = list(table.values)
            yield table
            values[0] -= 2
            yield RankTable(n, tuple(values))
            for _ in range(2 if n <= 4 else 0):
                spoiled = list(table.values)
                for k in rng.sample(range(len(spoiled)), min(2, len(spoiled))):
                    spoiled[k] += rng.choice((-2, -1, 1, 2))
                yield RankTable(n, tuple(spoiled))


def _reports(n, by_code):
    return [
        (report.passed, report.even, [v.render() for v in report.violations])
        for report in [g_axioms(n, by_code)] + [h_axioms(n, by_code, system) for system in H_SYSTEMS]
    ]


def _oracle_by_code(table):
    """The table's values by code, placed through the oracle's canonical order."""
    v = [0] * len(table.values)
    for code, value in zip(canonical_codes(table.n), table.values):
        v[code] = value
    return v


def test_lane_parse_matches_line_parse(tail_width):
    # the lane parse gathers each prefix's blocks into code order: at tail widths 0, 1 and 3 the tables at
    # n >= 1 have prefixes, so the multi-block gather runs; verdicts, even flags and listings are those of
    # the line parse's values, placed by code through the oracle's order
    cases = []
    for table in _lane_test_tables():
        text = serialize_value(table)
        v = _oracle_by_code(_parse_ranktable(_logical_lines(text)))
        cases.append((table.n, text, [value + 32 for value in v], _reports(table.n, v)))
    for width in (9, 0, 1, 3):
        tail_width(width)
        for n, text, lane, reports in cases:
            assert ranktable_lane(_lines(text)) == (n, bytes(lane)), (text, width)
            assert _reports(n, bytes(lane)) == reports, (text, width)
    # any text but the serialized one of a table inside the lane takes the line route, with the same result
    texts = {name: text for name, (text, _, _) in _ranktable_variants().items()}
    for value in (-33, 32, 1000):
        texts[f"value {value}"] = serialize_value(RankTable(1, (0, value, 1)))
    texts["in range"] = serialize_value(RankTable(1, (0, 31, -32)))
    for width in (9, 0, 1):
        tail_width(width)
        for name, text in texts.items():
            lane = ranktable_lane(_lines(text))
            assert (lane is not None) == (name in ("as written", "in range")), (name, width)
            if lane is not None:
                table = parse_document(text).value
                assert lane == (table.n, bytes(value + 32 for value in _oracle_by_code(table))), (name, width)
            else:
                line_parse = _outcome(lambda text: _parse_ranktable(_logical_lines(text)), text)
                assert _outcome(lambda text: parse_document(text).value, text) == line_parse, (name, width)
