"""Plain-text formats for patterns and blow-up subgraphs.

Pattern files (".pat"):

    pattern <v> <e>
    e <i> <j>          one line per pattern edge, 1 <= i < j <= v

Blow-up subgraph files (".pbg"):

    blowup <vH> <eH> <n>
    p <i> <j>          the eH pattern edges, 1 <= i < j <= vH
    e <i>.<a> <j>.<b>  any number of subgraph edges, endpoints as part.index

Lines starting with "#" and blank lines are skipped, so writers may prepend
metadata comments.  Loaders are strict about everything else and report the
offending line number.
"""

from __future__ import annotations

import os

from .core import BlowupHost, PartiteGraph, PatternGraph, _empty_masks

# Header caps, checked before anything is built from a header.  A blow-up
# graph holds one adjacency mask per vertex and part, parts * size * parts
# ints (_MAX_MASKS of them take about 35 MB), and a pattern of more parts
# than _MAX_PARTS could not be blown up within that.
_MAX_PARTS = 2048
_MAX_PART_SIZE = 1 << 16
_MAX_MASKS = 1 << 22


class FormatError(ValueError):
    """Malformed pattern or blow-up file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a comment."""
    return [(ln, s) for ln, s in enumerate(map(str.strip, text.splitlines()), 1) if s and s[0] != "#"]


def _int_field(ln: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(ln, f"{what} must be an integer, got {token!r}") from None


def _header(text: str, form: str, prefix: str, *more: str) -> tuple[list, list[int]]:
    """The content lines of text and the integer fields of its header,
    which must read `form`: the pattern's vertex and edge counts, checked
    here, then one field per name of `more`.  prefix leads the counts'
    names in messages."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError(1, f"empty file, expected a '{form}' header")
    ln, header = lines[0]
    tokens = header.split()
    names = (f"{prefix}vertex count", f"{prefix}edge count", *more)
    if len(tokens) != len(names) + 1 or tokens[0] != form.split()[0]:
        raise FormatError(ln, f"expected '{form}', got {header!r}")
    fields = [_int_field(ln, token, name) for token, name in zip(tokens[1:], names)]
    v, e = fields[:2]
    if v < 1:
        raise FormatError(ln, f"{names[0]} must be positive, got {v}")
    if v > _MAX_PARTS:
        raise FormatError(ln, f"{names[0]} {v} is above the cap of {_MAX_PARTS}")
    if e < 0:
        raise FormatError(ln, f"{names[1]} must be non-negative, got {e}")
    return lines, fields


def _pattern(lines, v: int, tag: str, prefix: str) -> PatternGraph:
    """The pattern on v vertices whose edges are `lines`, each reading
    '<tag> <i> <j>'.  prefix leads the names of edges in messages."""
    edges = set()
    for ln, line in lines:
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != tag:
            raise FormatError(ln, f"expected '{tag} <i> <j>', got {line!r}")
        i = _int_field(ln, tokens[1], f"{prefix}endpoint")
        j = _int_field(ln, tokens[2], f"{prefix}endpoint")
        if not (1 <= i < j <= v):
            raise FormatError(ln, f"{prefix}edge {i} {j} violates 1 <= i < j <= {v}")
        if (i, j) in edges:
            raise FormatError(ln, f"duplicate {prefix}edge {i} {j}")
        edges.add((i, j))
    return PatternGraph(v, edges)


def parse_pattern(text: str) -> PatternGraph:
    lines, (v, e) = _header(text, "pattern <v> <e>", "")
    if len(lines) - 1 != e:
        raise FormatError(
            lines[0][0], f"header promises {e} edges but file has {len(lines) - 1} edge lines"
        )
    return _pattern(lines[1:], v, "e", "")


def dump_pattern(pattern: PatternGraph) -> str:
    lines = [f"pattern {pattern.vertex_count} {pattern.edge_count()}"]
    lines.extend(f"e {i} {j}" for i, j in sorted(pattern.edges))
    return "\n".join(lines) + "\n"


def _parse_endpoint(ln: int, token: str) -> tuple[int, int]:
    part, dot, index = token.partition(".")
    if not dot:
        raise FormatError(ln, f"endpoint {token!r} must look like <part>.<index>")
    return (
        _int_field(ln, part, "endpoint part"),
        _int_field(ln, index, "endpoint index"),
    )


def parse_blowup_graph(text: str) -> PartiteGraph:
    """The graph of a .pbg text, parsed straight into its mask rows.

    The header and the pattern lines are checked first.  Each 'e' line is
    then checked in this order, and the first fault raises FormatError
    with the line's number: three tokens led by 'e'; the first endpoint's
    part and index are integers, then the second's; the first endpoint is
    in range, then the second; the two parts are pattern-adjacent; the
    edge is not already present, either end first.  A token's check runs
    once, at its first line: the checked endpoint is kept by its token, so
    one vertex written two ways ('1.1', '01.1') is parsed once per
    spelling, and messages print the integers, not the tokens."""
    lines, (v, e, n) = _header(text, "blowup <vH> <eH> <n>", "pattern ", "part size")
    ln = lines[0][0]
    if n < 1:
        raise FormatError(ln, f"part size must be positive, got {n}")
    if n > _MAX_PART_SIZE:
        raise FormatError(ln, f"part size {n} is above the cap of {_MAX_PART_SIZE}")
    if v * v * n > _MAX_MASKS:
        raise FormatError(
            ln, f"{v} parts of size {n} need {v * v * n} masks, above the cap of {_MAX_MASKS}"
        )
    if len(lines) - 1 < e:
        raise FormatError(ln, f"header promises {e} pattern edges but file ends early")
    pattern = _pattern(lines[1 : 1 + e], v, "p", "pattern ")
    adjacent = [0] * (v + 1)  # adjacent[i] has bit j set for each pattern edge i-j
    for i, j in pattern.edges:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    masks = _empty_masks(v, n)
    # endpoint token -> (part, index, part - 1, its mask row, 1 << index - 1)
    ends: dict[str, tuple] = {}

    def checked(ln: int, x: str, y: str) -> tuple[tuple, tuple]:
        # both tokens are parsed, first then second, before either is
        # range-checked; a token met before is known to pass both
        fields = [ends.get(t) or _parse_endpoint(ln, t) for t in (x, y)]
        for token, f in zip((x, y), fields):
            if len(f) == 2:
                p, a = f
                if not (1 <= p <= v and 1 <= a <= n):
                    raise FormatError(ln, f"endpoint {p}.{a} out of range ({v} parts of size {n})")
                ends[token] = (p, a, p - 1, masks[p - 1][a - 1], 1 << a - 1)
        return ends[x], ends[y]

    size = 0
    for ln, line in lines[1 + e :]:
        tokens = line.split()
        if len(tokens) != 3 or tokens[0] != "e":
            raise FormatError(ln, f"expected 'e <i>.<a> <j>.<b>', got {line!r}")
        try:
            pi, ai, qi, row_i, bit_i = ends[tokens[1]]
            pj, bj, qj, row_j, bit_j = ends[tokens[2]]
        except KeyError:
            (pi, ai, qi, row_i, bit_i), (pj, bj, qj, row_j, bit_j) = checked(ln, tokens[1], tokens[2])
        if not adjacent[pi] >> pj & 1:
            raise FormatError(
                ln, f"slot {pi}.{ai} {pj}.{bj} is not allowed, parts {pi} and {pj} are not pattern-adjacent"
            )
        if row_i[qj] & bit_j:
            raise FormatError(ln, f"duplicate edge {pi}.{ai} {pj}.{bj}")
        row_i[qj] |= bit_j
        row_j[qi] |= bit_i
        size += 1
    return PartiteGraph._from_masks(BlowupHost(pattern, n), masks, size)


def dump_blowup_graph(G: PartiteGraph, comment: str | None = None) -> str:
    """The .pbg text of G.  Edge lines come off the mask rows in the order
    of host.ends0(), which is the order of G.sorted_edges()."""
    pattern, n = G.host.pattern, G.host.n
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"blowup {pattern.vertex_count} {pattern.edge_count()} {n}")
    lines.extend(f"p {i} {j}" for i, j in sorted(pattern.edges))
    names = [[f"{p}.{a}" for a in range(1, n + 1)] for p in pattern.vertices]
    for p, adj in enumerate(pattern._adj0):
        ups = [q for q in adj if q > p]
        for a, row in enumerate(G._masks[p]):
            head = f"e {names[p][a]} "
            for q in ups:
                bits = row[q]
                while bits:
                    bit = bits & -bits
                    lines.append(head + names[q][bit.bit_length() - 1])
                    bits ^= bit
    return "\n".join(lines) + "\n"


def load_pattern(path) -> PatternGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read())


def save_pattern(pattern: PatternGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_pattern(pattern))


def load_blowup_graph(path) -> PartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_blowup_graph(fh.read())


def save_blowup_graph(G: PartiteGraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_blowup_graph(G, comment))


_BUILTIN_RANGES = {
    "k": (2, 6, PatternGraph.complete),
    "p": (3, 8, PatternGraph.path),
    "c": (4, 8, PatternGraph.cycle),
}


def builtin_pattern(name: str) -> PatternGraph:
    """Named patterns: k2..k6, p3..p8, c4..c8 and star-2..star-6."""
    name = name.strip().lower()
    if name.startswith("star-"):
        try:
            r = int(name[5:])
        except ValueError:
            raise ValueError(f"unknown pattern name {name!r}") from None
        if not (2 <= r <= 6):
            raise ValueError(f"star-{r} is outside the built-in range star-2..star-6")
        return PatternGraph.star(r)
    if len(name) >= 2 and name[0] in _BUILTIN_RANGES and name[1:].isdigit():
        lo, hi, make = _BUILTIN_RANGES[name[0]]
        r = int(name[1:])
        if lo <= r <= hi:
            return make(r)
        raise ValueError(f"{name!r} is outside the built-in range {name[0]}{lo}..{name[0]}{hi}")
    raise ValueError(f"unknown pattern name {name!r}")


def resolve_pattern(spec: str) -> PatternGraph:
    """Accepts a built-in pattern name or a path to a '.pat' file."""
    try:
        return builtin_pattern(spec)
    except ValueError:
        pass
    if os.path.exists(spec):
        return load_pattern(spec)
    raise ValueError(f"{spec!r} is neither a built-in pattern name nor an existing file")
