import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satblow import (
    BlowupHost,
    FormatError,
    PartiteGraph,
    PatternGraph,
    blow_up,
    builtin_pattern,
    dump_blowup_graph,
    dump_pattern,
    greedy_saturate,
    load_blowup_graph,
    load_pattern,
    parse_blowup_graph,
    parse_pattern,
    resolve_pattern,
    save_blowup_graph,
    save_pattern,
)
from satblow import constructions as cons
from oracles import family_graphs, ref_dump_blowup_graph, ref_parse_blowup_graph


def test_pattern_round_trip():
    for H in [PatternGraph.complete(4), PatternGraph.star(5), PatternGraph.path(6)]:
        assert parse_pattern(dump_pattern(H)) == H


def test_blowup_round_trip():
    G = blow_up(PatternGraph.cycle(4), 3).without_edge((1, 1), (2, 2))
    assert parse_blowup_graph(dump_blowup_graph(G)) == G


def test_file_round_trip(tmp_path):
    H = PatternGraph.star(3)
    save_pattern(H, tmp_path / "h.pat")
    assert load_pattern(tmp_path / "h.pat") == H
    G = blow_up(H, 2)
    save_blowup_graph(G, tmp_path / "g.pbg", comment="full blow-up")
    text = (tmp_path / "g.pbg").read_text()
    assert text.startswith("# full blow-up")
    assert load_blowup_graph(tmp_path / "g.pbg") == G


def test_comments_and_blank_lines_are_skipped():
    text = "\n# a comment\npattern 3 2\n\ne 1 2\n# another\ne 2 3\n"
    assert parse_pattern(text) == PatternGraph.path(3)


def _line_of(excinfo):
    return excinfo.value.line


def test_pattern_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as e:
        parse_pattern("nonsense 3 2\ne 1 2\ne 2 3")
    assert _line_of(e) == 1

    with pytest.raises(FormatError) as e:
        parse_pattern("pattern 3 2\ne 1 2\ne 1 2")
    assert _line_of(e) == 3 and "duplicate" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_pattern("pattern 3 2\ne 1 2\ne 2 4")
    assert _line_of(e) == 3

    with pytest.raises(FormatError) as e:
        parse_pattern("pattern 3 2\ne 1 2")
    assert "promises 2 edges" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_pattern("pattern 3 1\ne 1 1")
    assert _line_of(e) == 2 and "1 <= i < j" in str(e.value)


def test_blowup_parse_errors_carry_line_numbers():
    head = "blowup 3 3 2\np 1 2\np 1 3\np 2 3\n"
    with pytest.raises(FormatError) as e:
        parse_blowup_graph(head + "e 1.1 1.2\n")
    assert _line_of(e) == 5

    with pytest.raises(FormatError) as e:
        parse_blowup_graph(head + "e 1.1 2.3\n")
    assert _line_of(e) == 5

    with pytest.raises(FormatError) as e:
        parse_blowup_graph(head + "e 1.1 2.2\ne 2.2 1.1\n")
    assert _line_of(e) == 6 and "duplicate" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_blowup_graph("blowup 3 3 2\np 1 2\np 1 3\n")
    assert "pattern edge" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_blowup_graph("blowup 3 2 0\np 1 2\np 2 3\n")
    assert _line_of(e) == 1


def test_parse_rejects_trailing_junk_tokens():
    with pytest.raises(FormatError):
        parse_pattern("pattern 3 2 extra\ne 1 2\ne 2 3")
    with pytest.raises(FormatError):
        parse_pattern("pattern 3 2\ne 1 2 9\ne 2 3")


def test_builtin_patterns():
    assert builtin_pattern("k4") == PatternGraph.complete(4)
    assert builtin_pattern("p5") == PatternGraph.path(5)
    assert builtin_pattern("c6") == PatternGraph.cycle(6)
    assert builtin_pattern("star-3") == PatternGraph.star(3)
    for bad in ("k9", "p2", "c3", "star-1", "q4", "k"):
        with pytest.raises(ValueError):
            builtin_pattern(bad)


def test_resolve_pattern(tmp_path):
    assert resolve_pattern("k3") == PatternGraph.complete(3)
    path = tmp_path / "custom.pat"
    save_pattern(PatternGraph(4, [(1, 2), (2, 3), (2, 4)]), path)
    assert resolve_pattern(str(path)) == PatternGraph(4, [(1, 2), (2, 3), (2, 4)])
    with pytest.raises(ValueError):
        resolve_pattern("no-such-pattern-or-file")


@pytest.mark.parametrize(
    "text",
    [
        "pattern 1000000000 0",
        "pattern 2049 0",
        "blowup 2 1 1000000000\np 1 2\n",
        "blowup 1000000000 0 1",
        "blowup 3 0 65537",
        "blowup 2048 0 2",  # 2048 * 2048 * 2 masks
    ],
)
def test_headers_above_the_caps_are_refused_at_once(text):
    parse = parse_pattern if text.startswith("pattern") else parse_blowup_graph
    start = time.monotonic()
    with pytest.raises(FormatError, match="cap") as e:
        parse(text)
    assert time.monotonic() - start < 0.5
    assert _line_of(e) == 1


def test_headers_at_the_caps_parse():
    assert parse_pattern("pattern 2048 0").vertex_count == 2048
    assert parse_blowup_graph("blowup 2 1 65536\np 1 2\ne 1.65536 2.1\n").edge_count() == 1
    assert parse_blowup_graph("blowup 1024 0 4").host.n == 4


def test_dump_is_deterministic_and_sorted():
    G = blow_up(PatternGraph.complete(3), 2)
    a = dump_blowup_graph(G)
    b = dump_blowup_graph(PartiteGraph(G.host, reversed(G.sorted_edges())))
    assert a == b


def test_dump_matches_the_sorted_edges_form_on_every_family():
    for G in family_graphs():
        for comment in (None, "a note\nover two lines"):
            text = dump_blowup_graph(G, comment)
            assert text == ref_dump_blowup_graph(G, comment)
            assert parse_blowup_graph(text) == G


def _mutated_line(rng, line, v, n):
    """An 'e' line changed in one way: ends swapped, one end out of range,
    both ends in one part, ends in parts that may not be adjacent, or a
    token that is not an endpoint; sometimes the line itself."""
    try:
        _, x, y = line.split()
        (p, a), (q, b) = (map(int, t.split(".")) for t in (x, y))
    except ValueError:  # mutated already
        return line
    kind = rng.randrange(7)
    if kind == 0:
        return f"e {y} {x}"
    if kind == 1:
        p = rng.choice((0, -1, v + 1))
    elif kind == 2:
        b = rng.choice((0, n + 1))
    elif kind == 3:
        q = p
    elif kind == 4:
        p, q = rng.randint(1, v), rng.randint(1, v)
    elif kind == 5:
        y = rng.choice(("1", "1.x", "x.1", "1.2.3", "1..2", ".", "+1.1", "1.-1"))
        return f"e {x} {y}"
    else:
        return line
    return f"e {p}.{a} {q}.{b}"


def _parse_outcome(parse, text):
    try:
        got = parse(text)
    except FormatError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(got, PartiteGraph):
        return ("graph", got.host, got.edges)
    return ("graph", *got)


@pytest.mark.parametrize("seed", range(30))
def test_parse_of_mutated_texts_matches_the_reference_parser(seed):
    """parse_blowup_graph on ints against oracles.ref_parse_blowup_graph on
    PartiteVertex checks: the same graph, or the same FormatError message
    and line, on .pbg texts with 'e' lines mutated, repeated, moved or
    dropped, and now and then a line of junk."""
    rng = random.Random(seed)
    graphs = list(family_graphs())
    for _ in range(20):
        G = rng.choice(graphs)
        lines = dump_blowup_graph(G).splitlines()
        head = 1 + G.host.pattern.edge_count()
        body = lines[head:]
        v, n = G.host.pattern.vertex_count, G.host.n
        if body:
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(len(body))
                body[k] = _mutated_line(rng, body[k], v, n)
            for _ in range(rng.randint(0, 2)):  # repeats, either way round
                line = rng.choice(body)
                if rng.random() < 0.5:
                    _, x, y = line.split()
                    line = f"e {y} {x}"
                body.insert(rng.randrange(len(body) + 1), line)
            if rng.random() < 0.2:
                body.insert(rng.randrange(len(body) + 1), rng.choice(("e 1.1", "f 1.1 2.1", "e 1.1 2.1 3")))
            if rng.random() < 0.3:
                rng.shuffle(body)
            del body[rng.randrange(len(body))]
        text = "\n".join(lines[:head] + body) + "\n"
        assert _parse_outcome(parse_blowup_graph, text) == _parse_outcome(ref_parse_blowup_graph, text)


def _respelled(rng, token):
    """The endpoint token p.a written another way that int() reads alike:
    a leading zero or plus sign on either field, or an underscore between
    the digits of a field of two or more digits."""
    fields = token.split(".")
    k = rng.randrange(2)
    field = fields[k]
    ways = ["0" + field, "+" + field]
    if len(field) > 1:
        ways.append(field[0] + "_" + field[1:])
    fields[k] = rng.choice(ways)
    return ".".join(fields)


def _two_fault_line(rng, line, v, n):
    """An 'e' line with two faults, the first check to meet either deciding
    the message: an end out of range beside a malformed end, either way
    round, or both ends out of range."""
    _, x, y = line.split()
    far = rng.choice((f"{v + 1}.1", f"1.{n + 1}", "0.1", f"{v + 2}.{n + 2}"))
    bad = rng.choice(("x.1", "1.x", "1", "1.2.3", "."))
    return rng.choice((f"e {far} {bad}", f"e {bad} {far}", f"e {far} {far}", f"e {x} {far}", f"e {far} {y}"))


@pytest.mark.parametrize("seed", range(20))
def test_parse_of_respelled_and_doubly_faulty_texts_matches_the_reference_parser(seed):
    """As the test above, on texts whose endpoints are written several ways
    (a vertex is checked once per spelling, and a duplicate is caught
    across spellings), with a repeated edge in another spelling, lines with
    two faults, and a disallowed line beside a duplicate, in either order."""
    rng = random.Random(seed)
    graphs = [*family_graphs(), cons.k4_construction(11), cons.star_construction(3, 12)]
    for _ in range(15):
        G = rng.choice(graphs)
        lines = dump_blowup_graph(G).splitlines()
        head = 1 + G.host.pattern.edge_count()
        body = lines[head:]
        v, n = G.host.pattern.vertex_count, G.host.n
        if not body:
            continue
        for k, line in enumerate(body):
            _, x, y = line.split()
            if rng.random() < 0.3:
                x = _respelled(rng, x)
            if rng.random() < 0.3:
                y = _respelled(rng, y)
            body[k] = f"e {x} {y}"
        _, x, y = rng.choice(lines[head:]).split()
        x, y = _respelled(rng, x), _respelled(rng, y)
        extra = [rng.choice((f"e {x} {y}", f"e {y} {x}"))]
        faults = rng.randrange(3)
        if faults == 1:
            extra.append(_two_fault_line(rng, rng.choice(body), v, n))
        elif faults == 2:
            p = rng.randint(1, v)
            extra.append(f"e {p}.1 {p}.{n}")  # two ends in one part
        for line in extra:
            body.insert(rng.randrange(len(body) + 1), line)
        text = "\n".join(lines[:head] + body) + "\n"
        got = _parse_outcome(parse_blowup_graph, text)
        assert got == _parse_outcome(ref_parse_blowup_graph, text)
        assert got[0] == "error"  # the repeat is always there


def test_a_line_with_two_faults_reports_the_first_check_it_fails():
    head = "blowup 3 2 12\np 1 2\np 2 3\n"
    cases = [
        # first end out of range, second malformed: both ends parse first
        ("e 4.1 2.x\n", "line 4: endpoint index must be an integer, got 'x'"),
        ("e 1.1 2.1\ne 4.1 2.x\n", "line 5: endpoint index must be an integer, got 'x'"),
        # malformed first, out-of-range second
        ("e 1.x 2.13\n", "line 4: endpoint index must be an integer, got 'x'"),
        ("e 1 2.13\n", "line 4: endpoint '1' must look like <part>.<index>"),
        # both out of range: the first is named
        ("e 4.1 2.13\n", "line 4: endpoint 4.1 out of range (3 parts of size 12)"),
        ("e 1.1 2.1\ne 2.1 4.1\n", "line 5: endpoint 4.1 out of range (3 parts of size 12)"),
        # a disallowed line and a duplicate: the earlier line
        (
            "e 1.1 2.1\ne 1.1 3.1\ne 2.1 1.1\n",
            "line 5: slot 1.1 3.1 is not allowed, parts 1 and 3 are not pattern-adjacent",
        ),
        ("e 1.1 2.1\ne 2.1 1.1\ne 1.1 3.1\n", "line 5: duplicate edge 2.1 1.1"),
        # one vertex in other spellings, printed as ints
        ("e 1.10 2.1\ne 01.1_0 +2.01\n", "line 5: duplicate edge 1.10 2.1"),
        ("e 2.1 1.10\ne +1.010 2.1\n", "line 5: duplicate edge 1.10 2.1"),
        ("e 01.1 +3.1\n", "line 4: slot 1.1 3.1 is not allowed, parts 1 and 3 are not pattern-adjacent"),
        ("e 2.1_2 3.1\ne 2.01_3 3.1\n", "line 5: endpoint 2.13 out of range (3 parts of size 12)"),
    ]
    for body, message in cases:
        for parse in (parse_blowup_graph, ref_parse_blowup_graph):
            with pytest.raises(FormatError) as e:
                parse(head + body)
            assert str(e.value) == message, (parse.__name__, body)


# ---------------------------------------------------------------------------
# fuzzing: text built from the formats' own tokens either parses or raises
# FormatError.  Integers stay small, since a valid header allocates one mask
# row per vertex.

_small_ints = st.integers(-2, 40).map(str)
_tokens = st.one_of(
    st.sampled_from(
        ["pattern", "blowup", "e", "p", "#", "#e", ".", "-", "+1", "x", "1.", ".1", "1.2.3"]
    ),
    _small_ints,
    st.tuples(_small_ints, _small_ints).map(".".join),
)
_lines = st.lists(_tokens, max_size=5).map(" ".join)


def _spoiled(line, keyword, endpoint):
    """Mostly the line itself, else `keyword` with any two small endpoints,
    now and then a line of any tokens."""
    loose = st.tuples(endpoint, endpoint).map(lambda xy: f"{keyword} {xy[0]} {xy[1]}")
    return st.one_of(st.just(line), st.just(line), st.just(line), loose, _lines)


_small_vertex = st.integers(0, 6).map(str)
_small_endpoint = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda pa: f"{pa[0]}.{pa[1]}")
_size = st.one_of(st.integers(1, 5), st.integers(-1, 5))


def _pairs(v):
    return [(i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1)] or [(1, 2)]


@st.composite
def _pattern_lines(draw):
    """A pattern header and edge lines, its counts mostly those of the lines
    that follow, so that the fuzz reaches the checks past the header."""
    v = draw(_size)
    pairs = draw(st.lists(st.sampled_from(_pairs(v)), max_size=8, unique=True))
    body = [draw(_spoiled(f"e {i} {j}", "e", _small_vertex)) for i, j in pairs]
    e = draw(st.one_of(st.just(len(body)), st.integers(-1, 10)))
    return [f"pattern {v} {e}", *body]


@st.composite
def _blowup_lines(draw):
    """A blow-up header, pattern lines and edge lines, likewise."""
    v, n = draw(_size), draw(_size)
    pairs = draw(st.lists(st.sampled_from(_pairs(v)), max_size=6, unique=True))
    body = [draw(_spoiled(f"p {i} {j}", "p", _small_vertex)) for i, j in pairs]
    e = draw(st.one_of(st.just(len(body)), st.integers(-1, 8)))
    indices = range(1, max(n, 1) + 1)
    slots = [(i, a, j, b) for i, j in pairs or [(1, 2)] for a in indices for b in indices]
    for i, a, j, b in draw(st.lists(st.sampled_from(slots), max_size=10, unique=True)):
        body.append(draw(_spoiled(f"e {i}.{a} {j}.{b}", "e", _small_endpoint)))
    return [f"blowup {v} {e} {n}", *body]


_texts = st.builds(
    lambda lines, sep: sep.join(lines),
    st.one_of(st.lists(_lines, max_size=12), _pattern_lines(), _blowup_lines()),
    st.sampled_from(["\n", "\r\n", "\n\n", "\n# note\n"]),
)


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_parse_pattern_fuzz(text):
    try:
        H = parse_pattern(text)
    except FormatError:
        return
    assert parse_pattern(dump_pattern(H)) == H


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_parse_blowup_graph_fuzz(text):
    try:
        G = parse_blowup_graph(text)
    except FormatError:
        return
    assert parse_blowup_graph(dump_blowup_graph(G)) == G
