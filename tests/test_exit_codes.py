"""The exit-code contract under fuzzed argv: every command line exits 0, 1
or 2 without a traceback, and a usage error (exit 2) prints nothing on
stdout.

Argv is drawn over every subcommand and flag, in-process through cli.main.
Each argv has at most one invalid part. It is either a flag value that
argparse refuses (for a numeric flag one above its cap, one below its
bound, or text that is not an int) or a fault of structure: a required
flag or file argument left out, --labeled with --homeo, or a stray word.
Every other part is present and valid, with values small enough to finish
in milliseconds, so most argvs reach a command handler. File arguments name
a fixture, a missing file, malformed JSON, or a drawn document of the
right overall shape with wrong parts; classify and decompose also read
valid spaces of 11 to 24 points. No draw may start work that a cap does
not stop first, so the test stays fast.

Few of those argvs reach a drawn document, so a second test wraps each
drawn space or map document in valid argv and holds it to the same
contract.
"""

import json
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import SearchStrategy

from test_cli import run_cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SPACE_FIXTURES = ("sierpinski", "discrete3", "indiscrete2", "connected_doubleton")
MAP_FIXTURES = ("d_to_discrete", "x3_chain_iso", "fork_to_discrete")

NOT_INTS = st.sampled_from(["", "abc", "1.5", "0x10", "--", "1e3"])


class Knob(NamedTuple):
    """The values of a flag: valid ones finish fast, argparse refuses the
    invalid ones."""

    valid: SearchStrategy
    invalid: SearchStrategy


def knob(low: int, fast: int, over: int | None = None) -> Knob:
    """A numeric flag: valid in low..fast; invalid from `over` upward
    (above the cap), below `low`, or not an int."""
    bad = [st.integers(-(10**12), low - 1).map(str), NOT_INTS]
    if over is not None:
        bad.append(st.integers(over, 10**12).map(str))
    return Knob(st.integers(low, fast).map(str), st.one_of(*bad))


def sizes_knob() -> Knob:
    """--sizes: three valid sizes, or one invalid size among valid ones, or
    text that is not a size list."""
    size = knob(1, 3, 9)
    ok, bad = size.valid, size.invalid
    one_bad = st.one_of(st.tuples(bad, ok, ok), st.tuples(ok, bad, ok), st.tuples(ok, ok, bad))
    return Knob(st.tuples(ok, ok, ok).map(",".join), one_bad.map(",".join) | NOT_INTS)


NAMES = st.sampled_from(["a", "b", "c", "", "0"])
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=6,
)
POINT_LISTS = st.lists(NAMES, max_size=4) | JUNK
# min_nbhds keyed by exactly the drawn points, so that every draw reaches
# the checks on each neighborhood value.
KEYED_SPACES = st.lists(NAMES, max_size=4, unique=True).flatmap(
    lambda points: st.fixed_dictionaries(
        {
            "points": st.just(points),
            "min_nbhds": st.fixed_dictionaries({a: POINT_LISTS for a in points}),
        }
    )
)
SPACE_DOCS = st.one_of(
    JUNK,
    st.fixed_dictionaries(
        {"points": POINT_LISTS, "min_nbhds": st.dictionaries(NAMES, POINT_LISTS, max_size=4) | JUNK}
    ),
    KEYED_SPACES,
    st.fixed_dictionaries({"points": POINT_LISTS, "opens": st.lists(POINT_LISTS, max_size=5) | JUNK}),
)
SPACE_REFS = st.sampled_from([str(FIXTURES / "sierpinski.json"), "missing.json"]) | SPACE_DOCS
MAP_DOCS = st.one_of(
    JUNK,
    st.fixed_dictionaries(
        {
            "domain": SPACE_REFS,
            "codomain": SPACE_REFS,
            "map": st.dictionaries(NAMES, NAMES | JUNK, max_size=3) | JUNK,
        }
    ),
)


@st.composite
def file_arg(draw, tmp_dir: Path, fixtures: tuple[str, ...], docs):
    kind = draw(st.sampled_from(["fixture", "missing", "malformed", "drawn"]))
    if kind == "fixture":
        return str(FIXTURES / f"{draw(st.sampled_from(fixtures))}.json")
    if kind == "missing":
        return str(tmp_dir / "missing.json")
    path = tmp_dir / f"{kind}.json"
    if kind == "malformed":
        path.write_text(draw(st.sampled_from(["", "{not json", '{"points": [', "[1,,2]"])))
    else:
        path.write_text(json.dumps(draw(docs)), encoding="utf-8")
    return str(path)


@st.composite
def large_space_arg(draw, tmp_dir: Path):
    """A valid space of 11 to 24 points, as a file: the minimal
    neighborhood of each point is the point and those of up to two earlier
    points."""
    n = draw(st.integers(11, 24))
    names = [f"p{i}" for i in range(n)]
    rows: list[set[str]] = []
    for i in range(n):
        row = {names[i]}
        for j in draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else ():
            row |= rows[j]
        rows.append(row)
    path = tmp_dir / "large.json"
    doc = {"points": names, "min_nbhds": {a: sorted(row) for a, row in zip(names, rows)}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


PREDICATES = st.sampled_from(
    [
        "regular",
        "!regular && scattered",
        "(t1 || weakly_regular) && !nowhere_regular",
        "bogus",
        "regular &&",
        "((regular)",
        "",
        "!" * 150 + "regular",
        "(" * 150 + "regular" + ")" * 150,
    ]
)
EMBED_SPACES = st.one_of(
    st.sampled_from(
        [
            "hedgehog",
            "sum:discrete2",
            "sum:discrete25",
            "sum:discrete" + "9" * 5000,  # over int()'s 4,300 digits
            "moebius",
            "sum:discreteX",
            "sum:discrete²",
        ]
    ),
    st.lists(st.integers(-2, 4), max_size=4).map(lambda v: "permuted:" + ",".join(map(str, v))),
    st.just("permuted:x,1"),
)


def commands(tmp_dir: Path):
    """(command words, positional strategy or None, {flag: Knob, value
    strategy, or None for a switch}). The first flag of the commands in
    ALWAYS_FIRST is always drawn: their defaults run for a tenth of a second
    or more. So is every flag in REQUIRED, which argparse requires."""
    spaces = file_arg(tmp_dir, SPACE_FIXTURES, SPACE_DOCS) | large_space_arg(tmp_dir)
    maps = file_arg(tmp_dir, MAP_FIXTURES, MAP_DOCS)
    max_points = knob(1, 24, 25)
    return [
        (("classify",), spaces, {"--sw-bound": knob(1, 6, 7), "--max-points": max_points, "--json": None}),
        (("fn", "classify"), maps, {"--json": None}),
        (("fn", "weak-homeo"), maps, {"--theta": None, "--json": None}),
        (
            ("fn", "compositions"),
            None,
            {
                "--samples": knob(1, 50, 100_001),
                "--sizes": sizes_knob(),
                "--seed": Knob(st.integers(-(10**12), 10**12).map(str), NOT_INTS),
                "--json": None,
            },
        ),
        (
            ("decompose",),
            spaces,
            {
                "--mode": Knob(st.sampled_from(["theta", "open"]), st.just("bogus")),
                "--witness": None,
                "--max-points": max_points,
                "--json": None,
            },
        ),
        (
            ("enumerate",),
            None,
            {
                "-n": knob(0, 4, 8),
                "--homeo": None,
                "--labeled": None,
                "--count": None,
                "--workers": knob(1, 2),
                "--json": None,
            },
        ),
        (("search",), None, {"--where": PREDICATES, "--max-n": knob(1, 3, 8), "--json": None}),
        (
            ("verify-diagram",),
            None,
            {
                "--max-n": knob(1, 2, 8),
                "--sw-bound": knob(1, 6, 7),
                "--transfer-max": knob(1, 4, 5),
                "--workers": knob(1, 2),
                "--json": None,
            },
        ),
        (("hedgehog", "profile"), None, {"--depth": knob(1, 5, 401), "--json": None}),
        (
            ("hedgehog", "embed"),
            None,
            {
                "--depth": knob(1, 3, 201),
                "--space": EMBED_SPACES,
                "--u0-index": knob(0, 10**12),
                "--json": None,
            },
        ),
    ]


ALWAYS_FIRST = ("compositions", "verify-diagram", "profile", "embed")
REQUIRED = ("-n", "--where")
EXCLUSIVE = ("--labeled", "--homeo")
POSITIONAL = "<positional>"


@st.composite
def argvs(draw, tmp_dir: Path):
    words, positional, flags = draw(st.sampled_from(commands(tmp_dir)))
    chosen = [
        flag
        for i, flag in enumerate(flags)
        if flag in REQUIRED or (i == 0 and words[-1] in ALWAYS_FIRST) or draw(st.booleans())
    ]
    knobs = [flag for flag in chosen if isinstance(flags[flag], Knob)]
    required = [flag for flag in chosen if flag in REQUIRED]
    if positional is not None:
        required.append(POSITIONAL)
    # About one argv in eight has one fault of structure; of the others,
    # half have one refused knob value and half no invalid part.
    if draw(st.integers(0, 7)) == 7:
        faults = ["exclusive"] * (EXCLUSIVE[0] in flags) + ["missing"] * bool(required) + ["stray"]
        fault = draw(st.sampled_from(faults))
    else:
        fault = "knob" if draw(st.booleans()) else "valid"
    bad = draw(st.sampled_from(knobs)) if fault == "knob" and knobs else None
    left_out = draw(st.sampled_from(required)) if fault == "missing" else None
    if fault == "exclusive":
        chosen += [flag for flag in EXCLUSIVE if flag not in chosen]
    elif all(flag in chosen for flag in EXCLUSIVE):
        chosen.remove(draw(st.sampled_from(EXCLUSIVE)))
    argv = list(words)
    for flag in chosen:
        if flag == left_out:
            continue
        argv.append(flag)
        value = flags[flag]
        if isinstance(value, Knob):
            value = value.invalid if flag == bad else value.valid
        if value is not None:
            argv.append(draw(value))
    if positional is not None and left_out != POSITIONAL:
        argv.append(draw(positional))
    if fault == "stray":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "extra"])))
    return argv


@pytest.fixture(scope="module")
def argv_strategy(tmp_path_factory):
    return argvs(tmp_path_factory.mktemp("argv"))


@settings(max_examples=400)
@given(data=st.data())
def test_exit_code_contract(argv_strategy, data):
    argv = data.draw(argv_strategy, label="argv")
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert out == "", (argv, out)


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


DOC_COMMANDS = st.sampled_from(
    [
        (("classify",), SPACE_DOCS),
        (("decompose", "--witness"), SPACE_DOCS),
        (("fn", "classify"), MAP_DOCS),
        (("fn", "weak-homeo"), MAP_DOCS),
    ]
)


@settings(max_examples=200)
@given(data=st.data())
def test_drawn_documents(doc_dir, data):
    # Valid argv around a drawn document, so that every example reaches
    # the JSON boundary and its exit code is the document's alone.
    words, docs = data.draw(DOC_COMMANDS, label="command")
    path = doc_dir / "doc.json"
    path.write_text(json.dumps(data.draw(docs, label="doc")), encoding="utf-8")
    code, out, err = run_cli(*words, str(path))
    assert code in (0, 1, 2), (words, code, err)
    assert "Traceback" not in out + err, words
    if code == 2:
        assert out == "", (words, out)
