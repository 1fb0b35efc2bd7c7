"""Line-oriented text formats for the four input kinds, with exact round-trips.

Grammar (UTF-8, '#' starts a comment, blank lines ignored):

  delta-matroid   n <k>                 then one "feasible s1 ... sk" per set
  matroid         ground plain <m>      then one "basis e1 ..." per basis
                  ground signed <n>     (elements are signed integers)
  gf2 matrix      gf2 <n>               then n rows of 0/1 entries
  rank table      ranktable <n>         then "<set>: <value>" for every
                                        admissible set in canonical order

Serialization always emits canonical order, so parse(serialize(x)) == x.  Rank
tables are written one block of ``ground.canonical_blocks`` at a time, and a
table exactly as written, with every value in ``rankfn.LANE_VALUES``, is read
the same way by ``ranktable_lane``, from any iterable of lines (an open file,
or ``parse_document``'s lazy lines of its text), straight into a byte lane by
code.  Any other table text goes to the line parse, which accepts the same
tables and words every error.

A delta-matroid file as ``serialize_value`` writes it, after any leading
full-line comments (as ``minor`` prints them), and with its feasible lines in
any order and repeated, is read in whole-text passes (``_delta_as_written``).
Let S be the skeleton "feasible 1 2 ... n\n" and c the number of body lines.
The body is taken only when replacing each " -" by " " leaves S repeated c
times.  The replace consumes " -" pairs from the left and what remains holds
no "-", so every "-" of the body directly followed a space of S, one to a
space; putting them back makes each line "feasible" followed by " i" or " -i"
for i = 1..n in order.  With each " -" marked, deleting the digits and the
letters of "feasible" leaves one sign character per index, index 1 first:
reverse-sorted, these sign strings are the canonical order (+i before -i),
and each read backwards in base 2 is the unbarred mask.  Any other text, n = 0
included, goes to the line parse, which accepts the same families and words
every error.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator

from .deltamatroid import DeltaMatroid, RankTable
from .ground import (
    AdmissibleSet, canonical_blocks, canonical_tuple, check_guard, code_order, signed_ground, signed_masks
)
from .matroid import Gf2SymMatrix, Matroid, render_subset
from .rankfn import LANE_TOKENS, lane_values

_NOT_SEPARATORS = bytes(range(256)).translate(None, b":\n")  # bytes.translate deletes these
_SIGN_BYTES = bytes.maketrans(b"x ", b"01")  # with the digits gone, a token " -i" marked "x" to 0 and " i" to 1


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
    family = _delta_as_written(text)
    if family is not None:
        return InputDocument("delta-matroid", family)
    lane = ranktable_lane(_lines(text)) if text.startswith("ranktable") else None
    if lane is not None:
        n, by_code = lane
        return InputDocument("rank-table", RankTable(n, canonical_tuple(n, lane_values(by_code))))
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


def _lines(text: str) -> Iterator[str]:
    """The lines of the text, each with its "\n", read lazily from its UTF-8 bytes, one byte per ASCII character.
    A lone surrogate, which those bytes keep, does not decode, so ``ranktable_lane`` declines the text."""
    return io.TextIOWrapper(io.BytesIO(text.encode(errors="surrogatepass")), encoding="utf-8", newline="\n")


def _parse_delta(lines) -> DeltaMatroid:
    lineno, head = lines[0]
    if len(head) != 2:
        raise _fail(lineno, "header must be 'n <size>'")
    n = _int(head[1], lineno, "ground size")
    if n < 0:
        raise _fail(lineno, "ground size must be non-negative")
    masks = []
    for lineno, tokens in lines[1:]:
        if tokens[0] != "feasible":
            raise _fail(lineno, f"expected 'feasible ...', got {tokens[0]!r}")
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


def _delta_as_written(text: str) -> DeltaMatroid | None:
    """The family when the text is a delta-matroid file as ``serialize_value`` writes it, else None.

    Leading full-line comments, then "n <k>" with k >= 1, then "feasible" lines
    whose tokens are " i" or " -i" for i = 1..k in index order, each line ending
    in "\n"; lines may come in any order and repeat.  Whole-text passes decide
    it, with no token list per line and no sort key per mask (the module
    docstring has the argument).  A comment must hold no other line break of
    ``str.splitlines``, which the line parse splits at.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    if len(text[:start].splitlines()) != text.count("\n", 0, start):  # a comment holding a line break of splitlines
        return None
    end = text.find("\n", start)
    if end < 0 or not text.startswith("n ", start):  # before any slice, so another kind of document is not copied
        return None
    digits, body = text[start + 2 : end], text[end + 1 :]
    if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        return None
    if len(digits) > len(str(len(body))):  # more digits than the body has characters, which int() may refuse
        return None
    n = int(digits)
    if 2 * n + 9 > len(body):  # a line is "feasible\n" and at least two characters an index
        return None
    written = body.encode("ascii", "replace")  # a non-ASCII character becomes "?", which fails
    skeleton = ("feasible" + "".join(map(" {}".format, range(1, n + 1))) + "\n").encode()
    squeezed, count = written.replace(b" -", b" "), written.count(b"\n")
    if len(squeezed) != len(skeleton) * count or squeezed != skeleton * count:  # lengths first: no skeletons past it
        return None
    signs = written.replace(b" -", b"x").translate(_SIGN_BYTES, b"0123456789feasibl")
    lines = sorted(set(signs.split(b"\n")[:-1]), reverse=True)  # canonical order: +i before -i, index 1 first
    return DeltaMatroid._from_canonical(n, tuple(map(int, b"\n".join(lines)[::-1].split(b"\n"), repeat(2)))[::-1])


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


def _written_size(head: str) -> int | None:
    """n when the line is a header 'ranktable <n>' with n in digits, else None; checks the size guard."""
    words = head.split()
    if len(words) != 2 or words[0] != "ranktable" or not (words[1].isascii() and words[1].isdigit()):
        return None
    try:
        n = int(words[1])
    except ValueError:  # more digits than int reads
        return None
    check_guard(n)  # before the body is read, as the line parse does
    return n


def ranktable_lane(lines: Iterable[str]) -> tuple[int, bytes] | None:
    """n and the values by base-3 code as a lane (``rankfn.table_by_code``), when the lines are exactly what
    ``serialize_value`` writes for a table whose values all fit a lane; else None, and the caller parses the text.

    The lines, each ending in "\n" (an open file, say), are read one block of ``ground.canonical_blocks`` at a
    time: the block's text must hold one ":" and then one "\n" per line (its bytes with all others deleted show
    it), and split once at "\n" and ": " it gives the block's labels as heads, each followed by a value token
    that goes to its byte through one dict.  ``ground.code_order`` puts the bytes in code order: no value
    becomes an int, and only a block of the text is held at a time.  Text that does not decode is left to the
    caller's whole-text read, which reports where.
    """
    lines = iter(lines)
    try:
        n = _written_size(next(lines, ""))
        if n is None:
            return None
        canonical = bytearray()
        for labels in canonical_blocks(n):
            block = "".join(islice(lines, len(labels)))
            if block.encode(errors="replace").translate(None, _NOT_SEPARATORS) != b":\n" * len(labels):
                return None
            pieces = block.replace("\n", ": ").split(": ")  # head, value, ..., head, value and the "" after the last
            if tuple(pieces[0:-1:2]) != labels:
                return None
            canonical += bytes(map(LANE_TOKENS.__getitem__, pieces[1::2]))
            del block, pieces  # before the next block's labels and lines are built
        if any(lines):
            return None
    except (KeyError, UnicodeDecodeError):
        return None
    return n, bytes(code_order(n, canonical, bytearray(len(canonical))))


def _parse_ranktable(lines) -> RankTable:
    lineno, head = lines[0]
    if len(head) != 2:
        raise _fail(lineno, "header must be 'ranktable <n>'")
    n = _int(head[1], lineno, "ground size")
    blocks = canonical_blocks(n)  # trips the size guard before the body is read
    body = lines[1:]
    if len(body) != 3**n:
        raise _fail(lineno, f"expected {3**n} table lines, got {len(body)}")
    labels = chain.from_iterable(blocks)
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
    for labels in canonical_blocks(n):
        yield "".join(map("{}: {}\n".format, labels, islice(values, len(labels))))
