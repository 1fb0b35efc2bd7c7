"""Line-oriented text formats for the four input kinds, with exact round-trips.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

  delta-matroid   n <k>                 then one "feasible s1 ... sk" per set
  matroid         ground plain <m>      then one "basis e1 ..." per basis
                  ground signed <n>     (elements are signed integers)
  gf2 matrix      gf2 <n>               then n rows of 0/1 entries
  rank table      ranktable <n>         then "<set>: <value>" for every
                                        admissible set in canonical order

Serialization always emits canonical order, so parse(serialize(x)) == x.  Rank
tables are written and read one block of ``ground.canonical_blocks`` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from .deltamatroid import DeltaMatroid, RankTable
from .ground import AdmissibleSet, block_labels, canonical_blocks, signed_ground, signed_masks
from .matroid import Gf2SymMatrix, Matroid, render_subset


class ParseError(ValueError):
    """Malformed input document; the message carries a 1-based line number."""


@dataclass(frozen=True)
class InputDocument:
    kind: str  # delta-matroid | matroid | gf2-matrix | rank-table
    value: object


def _logical_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


def _fail(lineno: int, message: str) -> ParseError:
    return ParseError(f"line {lineno}: {message}")


def _int(token: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise _fail(lineno, f"expected {what}, got {token!r}") from None


def parse_document(text: str) -> InputDocument:
    table = _ranktable_as_written(text)
    if table is not None:
        return InputDocument("rank-table", table)
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("line 1: empty document")
    lineno, head = lines[0]
    if head[0] == "n":
        return InputDocument("delta-matroid", _parse_delta(lines))
    if head[0] == "ground":
        return InputDocument("matroid", _parse_matroid(lines))
    if head[0] == "gf2":
        return InputDocument("gf2-matrix", _parse_gf2(lines))
    if head[0] == "ranktable":
        return InputDocument("rank-table", _parse_ranktable(lines))
    raise _fail(lineno, f"unknown document header {head[0]!r}")


def _parse_delta(lines) -> DeltaMatroid:
    lineno, head = lines[0]
    if len(head) != 2:
        raise _fail(lineno, "header must be 'n <size>'")
    n = _int(head[1], lineno, "ground size")
    if n < 0:
        raise _fail(lineno, "ground size must be non-negative")
    # A line of n elements as serialize_value writes them converts in one sum:
    # "i" adds bits i - 1 and 2n + i - 1, "-i" only bit i - 1.  The low 2n
    # bits sum to at most n·2^(n-1) < 2^(2n), and n powers of two sum to
    # 2^n - 1 only when they are distinct; any other line, an unknown token
    # included, goes through _feasible_mask, which words its error.  The
    # masks are made with the first such line, so a huge header alone builds
    # no huge int.
    values: dict[str, int] | None = None  # built once a line has n elements, so no larger than the input
    masks = []
    for lineno, tokens in lines[1:]:
        if tokens[0] != "feasible":
            raise _fail(lineno, f"expected 'feasible ...', got {tokens[0]!r}")
        if len(tokens) == n + 1:
            if values is None:
                wide, full = 2 * n, (1 << n) - 1
                low = (1 << wide) - 1
                values = {}
                for i in range(1, n + 1):
                    bit = 1 << (i - 1)
                    values[str(i)], values[str(-i)] = bit | bit << wide, bit
            total = sum(map(values.get, tokens[1:], repeat(0)))
            if total & low == full:
                masks.append(total >> wide)
                continue
        masks.append(_feasible_mask(n, tokens, lineno))
    if not masks and n > 0:
        raise ParseError("line 1: delta-matroid needs at least one feasible line")
    return DeltaMatroid(n, masks or [0])


def _feasible_mask(n: int, tokens: list[str], lineno: int) -> int:
    """The unbarred mask of one "feasible ..." line, element by element, or the line's ParseError."""
    elems = [_int(t, lineno, "signed index") for t in tokens[1:]]
    try:
        pos, neg = signed_masks(n, elems)
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None
    size = (pos | neg).bit_count()
    if size != n:
        raise _fail(lineno, f"feasible set must have size {n}, got {size}")
    return pos


def _parse_matroid(lines) -> Matroid:
    lineno, head = lines[0]
    if len(head) != 3 or head[1] not in ("plain", "signed"):
        raise _fail(lineno, "header must be 'ground plain <m>' or 'ground signed <n>'")
    size = _int(head[2], lineno, "ground size")
    signed = head[1] == "signed"
    bases = []
    for lineno, tokens in lines[1:]:
        if tokens[0] != "basis":
            raise _fail(lineno, f"expected 'basis ...', got {tokens[0]!r}")
        elems = [_int(t, lineno, "element") for t in tokens[1:]]
        for e in elems:
            if e == 0 or abs(e) > size or (not signed and e < 0):
                raise _fail(lineno, f"element {e} outside the ground set")
        bases.append(elems)
    if not bases:
        raise _fail(lineno if lines[1:] else lines[0][0], "matroid needs at least one basis line")
    try:
        return Matroid.signed(size, bases) if signed else Matroid.plain(size, bases)
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from None


def _parse_gf2(lines) -> Gf2SymMatrix:
    lineno, head = lines[0]
    if len(head) != 2:
        raise _fail(lineno, "header must be 'gf2 <n>'")
    n = _int(head[1], lineno, "matrix size")
    rows = lines[1:]
    if len(rows) != n:
        raise _fail(lineno, f"expected {n} matrix rows, got {len(rows)}")
    entries = []
    for lineno, tokens in rows:
        if len(tokens) != n:
            raise _fail(lineno, f"expected {n} entries")
        entries.append([_int(t, lineno, "0/1 entry") for t in tokens])
        if any(x not in (0, 1) for x in entries[-1]):
            raise _fail(lineno, "entries must be 0 or 1")
    try:
        return Gf2SymMatrix.from_lists(entries)
    except ValueError as exc:
        raise ParseError(f"line 1: {exc}") from None


def _ranktable_as_written(text: str) -> RankTable | None:
    """The table when the text is a rank table as ``serialize_value`` writes it, else None.

    One check over the body, a block of ``canonical_blocks`` at a time: the
    heads before ": " are the block's labels, and ``int`` reads every tail.
    Any other text, comments and blank lines included, is left to the line
    parse, which accepts the same tables and words every error.
    """
    if not text.startswith("ranktable"):
        return None
    raw_lines = text.splitlines()
    head = raw_lines[0].split()
    if len(head) != 2 or head[0] != "ranktable" or not (head[1].isascii() and head[1].isdigit()):
        return None
    try:
        n = int(head[1])
    except ValueError:  # more digits than int reads
        return None
    blocks = canonical_blocks(n)  # trips the size guard before the body is read, as the line parse does
    if len(raw_lines) != 3**n + 1:
        return None
    body, values = islice(raw_lines, 1, None), []
    for _, label, _, labels, _ in blocks:
        parts = list(map(str.partition, islice(body, len(labels)), repeat(": ")))
        if tuple(map(itemgetter(0), parts)) != block_labels(label, labels):
            return None
        try:
            values += map(int, map(itemgetter(2), parts))
        except ValueError:
            return None
    return RankTable(n, tuple(values))


def _parse_ranktable(lines) -> RankTable:
    lineno, head = lines[0]
    if len(head) != 2:
        raise _fail(lineno, "header must be 'ranktable <n>'")
    n = _int(head[1], lineno, "ground size")
    blocks = canonical_blocks(n)  # trips the size guard before the body is read
    body = lines[1:]
    if len(body) != 3**n:
        raise _fail(lineno, f"expected {3**n} table lines, got {len(body)}")
    labels = chain.from_iterable(block_labels(label, labels) for _, label, _, labels, _ in blocks)
    values = []
    for (lineno, tokens), label in zip(body, labels):
        joined = " ".join(tokens)
        if ":" not in joined:
            raise _fail(lineno, "expected '<set>: <value>'")
        left, right = joined.rsplit(":", 1)
        if left.rstrip() != label:  # a set written as its label needs no parse
            elems = [_int(t, lineno, "signed index") for t in left.split()]
            try:
                given = AdmissibleSet.from_elements(n, elems)
            except ValueError as exc:
                raise _fail(lineno, str(exc)) from None
            if given.render() != label:
                raise _fail(lineno, f"sets out of canonical order: expected {{{label}}}")
        values.append(_int(right.strip(), lineno, "table value"))
    return RankTable(n, tuple(values))


def serialize_value(value) -> str:
    if isinstance(value, DeltaMatroid):
        lines = [f"n {value.n}"]
        signs = [(f" {-i}", f" {i}") for i in range(1, value.n + 1)]  # index i where bit i - 1 is set, else -i
        lines += ["feasible" + "".join(s[m >> k & 1] for k, s in enumerate(signs)) for m in value.feasible]
        return "\n".join(lines) + "\n"
    if isinstance(value, Matroid):
        size = max((abs(e) for e in value.ground), default=0)
        if value.ground == tuple(range(1, size + 1)):
            kind = "plain"
        elif value.ground == signed_ground(size):
            kind = "signed"
        else:
            raise TypeError("only matroids on 1..m or on a full signed ground have a file form")
        lines = [f"ground {kind} {size}"]
        lines += [f"basis {render_subset(b)}".rstrip() for b in value.bases]
        return "\n".join(lines) + "\n"
    if isinstance(value, Gf2SymMatrix):
        lines = [f"gf2 {value.n}"]
        for row in value.rows:
            lines.append(" ".join(str(row >> j & 1) for j in range(value.n)))
        return "\n".join(lines) + "\n"
    if isinstance(value, RankTable):
        return "".join(ranktable_chunks(value.n, value.values))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def ranktable_chunks(n: int, values: Iterable[int]) -> Iterator[str]:
    """The text of a rank table with these values in canonical order: the header, then one piece per block."""
    yield f"ranktable {n}\n"
    values = iter(values)
    for _, label, _, labels, _ in canonical_blocks(n):
        yield "".join(map("{}: {}\n".format, block_labels(label, labels), islice(values, len(labels))))
