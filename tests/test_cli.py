import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from thetatopo import generate, regularity
from thetatopo.cli import _row_json_formatter, main
from thetatopo.generate import enumerate_spaces, labeled_rows, space_from_rows
from thetatopo.hedgehog import (
    HedgehogOracle,
    certify_hedgehog_profile,
    embed_hedgehog,
    verify_embedding,
)
from thetatopo.regularity import classify_report
from thetatopo.space import FinSpace, space_from_obj, space_to_obj
from thetatopo.survey import check_composition_laws, verify_diagram

SIERPINSKI_JSON = '{"points": ["a", "b"], "min_nbhds": {"a": ["a"], "b": ["a", "b"]}}'


def run_cli(*argv, stdin=None, monkeypatch=None):
    out, err = StringIO(), StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", StringIO(stdin))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Golden outputs per command.
# ---------------------------------------------------------------------------

def test_classify_golden():
    code, out, err = run_cli("classify", "fixtures/sierpinski.json")
    assert (code, err) == (0, "")
    assert out == "\n".join(
        [
            "points: {a,b}",
            "regular: false [witness: point a]",
            "locally_regular: false [witness: point b]",
            "quasi_regular: false [witness: open {a}]",
            "hereditarily_quasi_regular: false [witness: subspace {a,b}]",
            "weakly_regular: true",
            "theta_weakly_regular: false [witness: closed subspace {a,b}]",
            "w_theta_regular: false [witness: subspace {a,b}, open {a}]",
            "scattered: true",
            "t1: false [witness: point b]",
            "nowhere_regular: false [witness: point b]",
            "sw_regular: witnessed_false (bound 3) "
            "[witness: Z = {0:{0,1},1:{0,1}}, f = {0->a,1->b}]",
        ]
    ) + "\n"


def test_fn_classify_golden():
    code, out, err = run_cli("fn", "classify", "fixtures/d_to_discrete.json")
    assert (code, err) == (0, "")
    assert out == "\n".join(
        [
            "weakly_discontinuous (not θ-weakly discontinuous; witness A = {0,1})",
            "continuous: false [witness: discontinuous on {1}]",
            "theta_weakly_discontinuous: false [witness: A = {0,1}]",
            "weakly_discontinuous: true",
            "scatteredly_continuous: true",
        ]
    ) + "\n"


def test_fn_weak_homeo_golden():
    assert run_cli("fn", "weak-homeo", "fixtures/d_to_discrete.json")[:2] == (
        0,
        "weak homeomorphism: true\n",
    )
    assert run_cli("fn", "weak-homeo", "--theta", "fixtures/d_to_discrete.json")[:2] == (
        0,
        "θ-weak homeomorphism: false\n",
    )
    assert run_cli("fn", "weak-homeo", "--theta", "fixtures/x3_chain_iso.json")[:2] == (
        0,
        "θ-weak homeomorphism: true\n",
    )


def test_decompose_goldens():
    code, out, _ = run_cli("decompose", "fixtures/sierpinski.json")
    assert code == 0
    assert out == "mode: theta\nresidue: {a,b}\ntheta_weakly_regular: false\n"

    code, out, _ = run_cli(
        "decompose", "--mode", "open", "--witness", "fixtures/sierpinski.json"
    )
    assert code == 0
    assert out == "\n".join(
        [
            "mode: open",
            "layer 1: {a}",
            "layer 2: {b}",
            "residue: {}",
            "weakly_regular: true",
            "witness map: {a->0.a,b->1.b}",
        ]
    ) + "\n"


def test_search_goldens():
    code, out, _ = run_cli("search", "--where", "scattered && !regular")
    assert code == 0 and out == "found (n = 2): {0:{0},1:{0,1}}\n"

    code, out, _ = run_cli("search", "--where", "regular && !quasi_regular")
    assert code == 0 and out == "no space with at most 5 points matches\n"


def test_enumerate_goldens():
    assert run_cli("enumerate", "-n", "1", "--labeled", "--count")[:2] == (0, "1\n")
    assert run_cli("enumerate", "-n", "4", "--count")[:2] == (0, "355\n")
    assert run_cli("enumerate", "-n", "3", "--homeo", "--count")[:2] == (0, "9\n")

    code, out, _ = run_cli("enumerate", "-n", "3", "--homeo")
    assert code == 0
    assert out == "\n".join(
        [
            "{0:{0},1:{1},2:{2}}",
            "{0:{0},1:{1},2:{0,2}}",
            "{0:{0},1:{1},2:{0,1,2}}",
            "{0:{0},1:{0,1},2:{0,2}}",
            "{0:{0},1:{0,1},2:{0,1,2}}",
            "{0:{0},1:{1,2},2:{1,2}}",
            "{0:{0},1:{0,1,2},2:{0,1,2}}",
            "{0:{0,1},1:{0,1},2:{0,1,2}}",
            "{0:{0,1,2},1:{0,1,2},2:{0,1,2}}",
        ]
    ) + "\n"


def test_hedgehog_profile_golden():
    code, out, _ = run_cli("hedgehog", "profile", "--depth", "3")
    assert code == 0
    assert out == certify_hedgehog_profile(3).to_text() + "\n"
    assert out.endswith("verdict: pass\n")


def test_hedgehog_embed_golden():
    code, out, _ = run_cli(
        "hedgehog", "embed", "--depth", "2", "--space", "permuted:2,1"
    )
    assert code == 0
    assert out == "\n".join(
        [
            "embedding, depth 2, u0_index 0",
            "h(()) = ()",
            "h((1)) = (1)  [k=0, V=mapped:U(2,1)]",
            "  tips: (1,1) (1,2)",
            "h((2)) = (3)  [k=2, V=mapped:U(3,1)]",
            "  tips: (3,1) (3,2)",
            "verification: pass (depth 2; distinctness 21, stalk convergence 8, "
            "root pattern 8, separation 16)",
        ]
    ) + "\n"


def test_hedgehog_embed_permuted_deep_u0():
    code, out, err = run_cli(
        "hedgehog", "embed", "--space", "permuted:2,1", "--u0-index", "127", "--depth", "2"
    )
    assert (code, err) == (0, "")
    assert out == "\n".join(
        [
            "embedding, depth 2, u0_index 127",
            "h(()) = ()",
            "h((1)) = (128)  [k=127, V=mapped:U(128,1)]",
            "  tips: (128,1) (128,2)",
            "h((2)) = (129)  [k=128, V=mapped:U(129,1)]",
            "  tips: (129,1) (129,2)",
            "verification: pass (depth 2; distinctness 21, stalk convergence 8, "
            "root pattern 8, separation 16)",
        ]
    ) + "\n"


def test_fn_compositions_golden():
    code, out, _ = run_cli("fn", "compositions", "--sizes", "2,2,2")
    assert code == 0
    assert out == check_composition_laws((2, 2, 2)).to_text() + "\n"
    assert out.endswith("verdict: PASS\n")


def test_verify_diagram_text():
    code, out, _ = run_cli("verify-diagram", "--max-n", "2")
    assert code == 0
    assert out == verify_diagram(2).to_text() + "\n"
    assert out.startswith("labeled spaces: 5 (n = 1..2)\n")
    assert out.endswith("verdict: PASS\n")


# ---------------------------------------------------------------------------
# JSON forms mirror the library objects.
# ---------------------------------------------------------------------------

def test_json_outputs_match_library():
    sp = space_from_obj(json.loads(SIERPINSKI_JSON))

    code, out, _ = run_cli("classify", "--json", "fixtures/sierpinski.json")
    assert code == 0 and json.loads(out) == classify_report(sp).to_obj()

    code, out, _ = run_cli("verify-diagram", "--max-n", "2", "--json")
    assert code == 0 and json.loads(out) == verify_diagram(2).to_obj()

    code, out, _ = run_cli("fn", "compositions", "--sizes", "2,2,2", "--json")
    assert code == 0 and json.loads(out) == check_composition_laws((2, 2, 2)).to_obj()

    code, out, _ = run_cli("hedgehog", "profile", "--depth", "4", "--json")
    assert code == 0 and json.loads(out) == certify_hedgehog_profile(4).to_obj()

    code, out, _ = run_cli("hedgehog", "embed", "--depth", "3", "--json")
    o = HedgehogOracle()
    e = embed_hedgehog(o, depth=3)
    assert code == 0 and json.loads(out) == {
        "space": "hedgehog",
        "embedding": e.to_obj(),
        "verification": verify_embedding(o, e, 3),
    }


def test_enumerate_count_runs_no_labeled_walk(monkeypatch):
    walk = generate._walk
    calls = []

    def spy(n, orderly):
        calls.append((n, orderly))
        return walk(n, orderly)

    monkeypatch.setattr(generate, "_walk", spy)
    assert run_cli("enumerate", "-n", "6", "--count")[:2] == (0, "209527\n")
    # The labeled count is the orbit-size sum of the orderly walk.
    assert calls == [(6, True)]


def test_enumerate_listings_build_no_space(monkeypatch):
    # Both output forms print the walk's rows from per-n tables.
    init = FinSpace.__init__
    calls = []

    def spy(self, names, nbhd):
        calls.append(nbhd)
        init(self, names, nbhd)

    monkeypatch.setattr(FinSpace, "__init__", spy)
    for argv in (("-n", "4"), ("-n", "4", "--json"), ("-n", "4", "--homeo", "--json")):
        code, out, err = run_cli("enumerate", *argv)
        assert (code, err) == (0, "") and out, argv
    assert calls == []
    space_from_rows((1,))  # the spy sees every space built
    assert calls == [(1,)]


def test_enumerate_json_rows_match_encoder():
    # The --json listing's row table prints the encoder's text of the
    # row-built space, as it nests in the "spaces" list, on every labeled
    # space with n <= 5.
    encode = json.JSONEncoder(indent=2, ensure_ascii=False, check_circular=False).encode
    for n in range(6):
        body = _row_json_formatter(n)
        for rows in labeled_rows(n):
            assert body(rows) == encode(space_to_obj(space_from_rows(rows))).replace("\n", "\n    ")


def test_enumerate_json_round_trip():
    code, out, _ = run_cli("enumerate", "-n", "2", "--json")
    assert code == 0
    top = json.loads(out)
    assert {k: top[k] for k in ("n", "mode", "count")} == {
        "n": 2,
        "mode": "labeled",
        "count": 4,
    }
    rebuilt = [space_from_obj(obj).nbhd for obj in top["spaces"]]
    assert rebuilt == [sp.nbhd for sp in enumerate_spaces(2, "labeled")]

    code, out, _ = run_cli("enumerate", "-n", "2", "--count", "--json")
    assert code == 0 and json.loads(out) == {"n": 2, "mode": "labeled", "count": 4}


def test_search_json():
    code, out, _ = run_cli("search", "--where", "!scattered", "--max-n", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["predicate"] == "!scattered" and obj["max_n"] == 3
    assert space_from_obj(obj["found"]).nbhd == (0b11, 0b11)

    code, out, _ = run_cli("search", "--where", "regular && !regular", "--json")
    assert code == 0 and json.loads(out)["found"] is None


def test_search_decides_only_what_it_reads(monkeypatch):
    # `search --where regular` decides regularity alone: no other decider
    # runs, on the space it finds or on any space it passes, and a property
    # read twice is decided once per space. Each spy decider has no holds,
    # so every verdict goes through its find.
    calls = []
    for prop, (find, fields, _) in list(regularity.DECIDERS.items()):

        def spy(space, prop=prop, find=find):
            calls.append((prop, space.nbhd))
            return find(space)

        monkeypatch.setitem(regularity.DECIDERS, prop, regularity.Decider(spy, fields))
    for where, found in (("regular", "{0:{0}}"), ("!regular && !regular", "{0:{0},1:{0,1}}")):
        calls.clear()
        code, out, _ = run_cli("search", "--where", where)
        assert (code, out) == (0, f"found (n = {found.count(':{')}): {found}\n")
        assert {prop for prop, _ in calls} == {"regular"}
        assert len(calls) == len(set(calls)), calls


def test_decompose_json_with_witness():
    code, out, _ = run_cli(
        "decompose", "--mode", "open", "--witness", "--json", "fixtures/sierpinski.json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposition"]["weakly_regular"] is True
    assert obj["decomposition"]["layers"] == [["a"], ["b"]]
    assert obj["witness"]["map"] == {"a": "0.a", "b": "1.b"}


def test_fn_classify_json():
    code, out, _ = run_cli("fn", "classify", "--json", "fixtures/d_to_discrete.json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"]["tier"] == "weakly_discontinuous"
    assert obj["map"]["map"] == {"0": "0", "1": "1"}


# ---------------------------------------------------------------------------
# stdin, exit codes, and caps.
# ---------------------------------------------------------------------------

def test_stdin_space(monkeypatch):
    code, out, _ = run_cli(
        "classify", "-", stdin=SIERPINSKI_JSON, monkeypatch=monkeypatch
    )
    assert code == 0 and out.startswith("points: {a,b}\n")


def test_stdin_map(monkeypatch):
    doc = json.dumps(
        {
            "domain": {"points": ["0", "1"], "min_nbhds": {"0": ["0"], "1": ["0", "1"]}},
            "codomain": {"points": ["0", "1"], "min_nbhds": {"0": ["0"], "1": ["1"]}},
            "map": {"0": "0", "1": "1"},
        }
    )
    code, out, _ = run_cli("fn", "classify", "-", stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("weakly_discontinuous (not θ-weakly discontinuous")


def test_exit_one_on_stalled_witness():
    code, out, err = run_cli("decompose", "--witness", "fixtures/sierpinski.json")
    assert code == 1 and err == ""
    assert out == (
        "error: theta_weakly_regular fails: kernel iteration stalled on {a,b}\n"
    )


def test_exit_one_on_refused_embedding(tmp_path):
    code, out, err = run_cli(
        "hedgehog", "embed", "--depth", "2", "--space", "sum:discrete2", "--u0-index", "0"
    )
    assert code == 0  # rooted at the hedgehog root, the summand is inert

    doc = tmp_path / "sp.json"
    doc.write_text(SIERPINSKI_JSON, encoding="utf-8")
    code, out, err = run_cli("hedgehog", "embed", "--space", f"sum:{doc}")
    assert code == 0


def test_exit_two_paths(tmp_path):
    code, out, err = run_cli("classify", str(tmp_path / "missing.json"))
    assert code == 2 and out == "" and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli("classify", str(bad))
    assert code == 2 and "invalid JSON" in err
    code, out, err = run_cli("fn", "classify", str(bad))
    assert code == 2 and "invalid JSON" in err

    axiom = tmp_path / "axiom.json"
    axiom.write_text(
        '{"points": ["a", "b"], "min_nbhds": {"a": ["b"], "b": ["b"]}}',
        encoding="utf-8",
    )
    code, out, err = run_cli("classify", str(axiom))
    assert code == 2 and "error:" in err

    code, _, err = run_cli("search", "--where", "bogus")
    assert code == 2 and "unknown property" in err

    code, out, err = run_cli("search", "--where", "!" * 3000 + "regular")
    assert code == 2 and out == "" and "error:" in err

    code, _, err = run_cli("hedgehog", "embed", "--space", "moebius")
    assert code == 2 and "unknown oracle space" in err

    code, _, err = run_cli("hedgehog", "embed", "--space", "permuted:2,3")
    assert code == 2 and "error:" in err

    # '²' is a digit to str.isdigit but not to int(): the spec names a file.
    code, out, err = run_cli("hedgehog", "embed", "--space", "sum:discrete²")
    assert code == 2 and out == "" and "cannot read 'discrete²'" in err

    point = {"points": ["a"], "min_nbhds": {"a": ["a"]}}
    docs = [
        ("classify", {"points": ["a"], "min_nbhds": {"a": 5}}),
        ("classify", {"points": ["a"], "min_nbhds": {"a": None}}),
        ("classify", {"points": ["a"], "min_nbhds": {"a": "a"}}),
        ("classify", {"points": ["a"], "min_nbhds": {"a": [["a"]]}}),
        ("classify", {"points": ["a"], "opens": [[], ["a"], [["a"]]]}),
        ("fn classify", {"domain": point, "codomain": point, "map": {"a": ["a"]}}),
        ("fn classify", {"domain": point, "codomain": point, "map": {"a": {"a": "a"}}}),
    ]
    for i, (command, doc) in enumerate(docs):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(*command.split(), str(path))
        assert (code, out) == (2, ""), doc
        assert err.startswith("error: ") and err.count("\n") == 1, doc


def test_exit_two_on_caps(tmp_path):
    assert run_cli("enumerate", "-n", "7", "--count")[0] == 2
    assert run_cli("enumerate", "-n", "8", "--homeo", "--count")[0] == 2
    assert run_cli("classify", "--sw-bound", "7", "fixtures/sierpinski.json")[0] == 2
    assert run_cli("fn", "compositions", "--sizes", "9,2,2")[0] == 2
    assert run_cli("verify-diagram", "--max-n", "8")[0] == 2

    names = [str(i) for i in range(25)]
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"points": names, "min_nbhds": {a: [a] for a in names}}),
        encoding="utf-8",
    )
    assert run_cli("classify", str(big))[0] == 2


SW_BOUND_OVER_CAP = [
    ("classify", "--sw-bound", "7", f"fixtures/{name}.json")
    for name in ("discrete2", "sierpinski")
]
MAX_POINTS_OVER_CAP = [
    (cmd, "--max-points", "25", "fixtures/sierpinski.json") for cmd in ("classify", "decompose")
]
# (argv, the argparse message): --depth above DEPTH_CAP (profile) or
# EMBED_DEPTH_CAP (embed), --samples above SAMPLES_CAP.
KNOBS_OVER_CAP = {
    ("hedgehog", "profile", "--depth", "401"): "argument --depth: must be at most 400, got 401",
    ("hedgehog", "embed", "--depth", "201"): "argument --depth: must be at most 200, got 201",
    ("fn", "compositions", "--samples", "100001", "--sizes", "3,3,3"): (
        "argument --samples: must be at most 100000, got 100001"
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "-n", "-1", "--count"),
        ("enumerate", "-n", "2", "--workers", "0"),
        ("hedgehog", "profile", "--depth", "0"),
        ("verify-diagram", "--max-n", "0"),
        ("verify-diagram", "--max-n", "2", "--sw-bound", "0"),
        ("verify-diagram", "--max-n", "2", "--transfer-max", "0"),
        ("verify-diagram", "--max-n", "2", "--workers", "0"),
        ("search", "--where", "regular", "--max-n", "0"),
        ("fn", "compositions", "--samples", "-5", "--sizes", "3,3,3"),
        ("classify", "--sw-bound", "-1", "fixtures/sierpinski.json"),
        *SW_BOUND_OVER_CAP,
        *MAX_POINTS_OVER_CAP,
        *KNOBS_OVER_CAP,
    ],
)
def test_numeric_flags_below_bound_exit_two(argv):
    # Each would otherwise crash (exit 1) or print a vacuous result; a
    # --sw-bound over the cap is refused for regular spaces too, and a
    # --max-points over the point cap before any space is read.
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    if argv in SW_BOUND_OVER_CAP:
        assert err.startswith("error: witness search capped at domain size 6")
    elif argv in MAX_POINTS_OVER_CAP:
        assert "error: argument --max-points: must be at most 24, got 25" in err
    elif argv in KNOBS_OVER_CAP:
        assert f"error: {KNOBS_OVER_CAP[argv]}" in err
    else:
        assert "error: argument" in err and "must be at least" in err


def test_sum_discrete_over_cap_exits_two_before_building(monkeypatch):
    def space_from_rows(*args, **kw):
        raise AssertionError("sum:discreteK built its summand past the cap")

    monkeypatch.setattr("thetatopo.cli.space_from_rows", space_from_rows)
    code, out, err = run_cli("hedgehog", "embed", "--space", "sum:discrete25")
    assert (code, out) == (2, "")
    assert err == "error: 25 points exceeds the cap of 24\n"


def test_sum_discrete_overlong_k_exits_two_before_int(monkeypatch):
    # int() refuses more than 4,300 digits, so the digit count is checked first.
    code, out, err = run_cli("hedgehog", "embed", "--space", "sum:discrete" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: a 5000-digit K exceeds the cap of 24 points\n"
    # Leading zeros do not count: this K is 2.
    padded = run_cli("hedgehog", "embed", "--depth", "2", "--space", "sum:discrete" + "0" * 5000 + "2")
    assert padded == run_cli("hedgehog", "embed", "--depth", "2", "--space", "sum:discrete2")
    assert padded[0] == 0


def test_transfer_bound_over_cap_exits_two_before_work(monkeypatch):
    def rows(n):
        raise AssertionError("verify-diagram started past the transfer cap")

    monkeypatch.setattr("thetatopo.survey.homeo_rows", rows)
    monkeypatch.setattr("thetatopo.survey.homeo_classes", rows)
    monkeypatch.setattr("thetatopo.survey.labeled_rows", rows)
    code, out, err = run_cli("verify-diagram", "--max-n", "5", "--transfer-max", "5")
    assert (code, out) == (2, "")
    assert err == "error: transfer scan capped at 4 points\n"


def test_transfer_bound_clipped_to_max_n():
    code, out, _ = run_cli("verify-diagram", "--max-n", "3", "--transfer-max", "5")
    assert code == 0
    assert "transfer (n <= 3): 5079 bijections, 583 qualifying" in out


def test_verify_diagram_five_points_pinned():
    # The report of the scan over all 7,331 labeled spaces with n <= 5.
    code, out, _ = run_cli("verify-diagram", "--max-n", "5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69470be1dba071aa08b4b9ab51afd56ef461ba352e5c1f6e8d717384e99c7e77"
    )


def test_verify_diagram_six_points_pinned():
    # The report of the scan over all 216,858 labeled spaces with n <= 6.
    code, out, _ = run_cli("verify-diagram", "--max-n", "6", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6fa20bb2284f52f9d8ab306c06e249e7e3732919491ea0b207f44d5314c2ca5f"
    )


def test_verify_diagram_seven_points_pinned():
    # The report over all 9,752,099 labeled spaces with n <= 7, recorded
    # before the check stopped building property witnesses.
    code, out, _ = run_cli("verify-diagram", "--max-n", "7", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"] == {
        "1": 1, "2": 4, "3": 29, "4": 355, "5": 6942, "6": 209527, "7": 9535241
    }
    assert obj["sw_spaces_checked"] == 1155
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "69b1e456b23d4b6ff49a7359cac4fcf145ade933c3b61fe8e1fc7f0b050ad344"
    )


@pytest.mark.parametrize(
    "argv, sha",
    [
        (
            "--max-n 7 --sw-bound 5",
            "0622b58b19dd4c4258f7810c3cbd1722ce67828d42ce6395287eb7f3774cdbe6",
        ),
        (
            "--max-n 6 --sw-bound 6",
            "2ac8594c037571199cc1bfcfb255406f2c7b0089976b6ab1c4c36f107d7d1697",
        ),
        (
            "--max-n 7 --sw-bound 6",
            "51f9b601370d8db41ed96c97374cee14aa948f3565bd527ba1333af87387319d",
        ),
    ],
)
def test_verify_diagram_wide_sw_bound_pinned(argv, sha):
    # Recorded from the walk that tried every position tuple, before it
    # skipped relabelings of isolated codomain points.
    code, out, _ = run_cli("verify-diagram", *argv.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_verify_diagram_transfer_four_pinned():
    # The report at transfer bound 4, which scans 3,029,679 bijections
    # between labeled spaces of at most 4 points.
    code, out, _ = run_cli("verify-diagram", "--max-n", "4", "--transfer-max", "4", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "df4dd366254d5f86f9d2184ef0d74e6251e62f8498d5262b4eb22233bfbbeffc"
    )


class _Sha256Out(io.TextIOBase):
    """A stdout that feeds sha256 instead of holding the text."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


# stdout of every enumerate listing form, recorded when each listed space
# was built as a FinSpace and printed by format_space or the JSON encoder.
# `-n 7 --homeo` is pinned by the test below.
ENUMERATE_SHA256 = {
    "-n 0": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    "-n 0 --json": "023c9c644853302b8c26a5504a0f1c04733f999585e0f729444137bc8ad458ac",
    "-n 1": "b4e7d14e6cbd5a8eb2babe3bf2e767eea329bbb60626eb094f4f10f6deb7c86f",
    "-n 1 --json": "2bb5a606a194f5cd2a2a70dc2e2aac8a0d87b40ae97b9ff04a4908d2864e38fe",
    "-n 2": "e99c326f9384772642c7b03527d1b372c9a56bcc211351e5ab60eb6c8e92b874",
    "-n 2 --json": "a59a991c50e3bd8413770f6a3d0c8425a1b78ec100062cb74fbf1dd5749ece13",
    "-n 3": "be4bf3b6e5bfef0be6a90c2d411a09754beb5ff3f4a0df85314b622481b28106",
    "-n 3 --json": "ca35dd11cb8b6ad47e84d1e9d7653c98787ade499d4b2a28a33f85d05b6ef41b",
    "-n 4": "359bed58ae8f37909a382c5b77c2f009853f77aae8c075df50ab1975925ad784",
    "-n 4 --json": "4f4dd3e80f7952eeb096e8a4e1951b7bb552fe58fb00725928302a5e8e4bbd2a",
    "-n 5": "2ff555e576036f99e87a9f39f65eed0eb193f987e1eb783ef0ca7a1badd063d3",
    "-n 5 --json": "b538ed085b2181e74db599995cb3266cc6e8ba5bd6466c0feae4228f9e7c1d97",
    "-n 6": "8b5ce764b2af7140ad7d98748804a28473afc4861403a5238ee812585d8cd398",
    "-n 6 --json": "fd1000094f75cfd984baaeb3af81e7fa0631b53c09b916e2f7edbf30e0cb22a8",
    "-n 4 --homeo": "d711f44f2795dfd4524d3d89f1e5ea72f99dc8c526a09a97fa2376ab20d82580",
    "-n 4 --homeo --json": "879fcaa42c5ca9d5eb0a8260c5f7ed8b831c9044150bb80d42ebc6540b0891c5",
    "-n 6 --homeo": "b4077a23efcc360dd565f1cfec5039514bf26be749d116ab5c460477003af8ce",
    "-n 6 --homeo --json": "ddbbd4caa1aaf71f578345fa1a76e26f93e96dac10f531911a668a0514648407",
    "-n 7 --homeo --json": "e16c13a0a4130ed5918ee45582351f5a5fc41a61ea4d62411420134b694b4494",
}


@pytest.mark.parametrize("argv", list(ENUMERATE_SHA256))
def test_enumerate_outputs_pinned(argv):
    out = _Sha256Out()
    with redirect_stdout(out):
        assert main(["enumerate", *argv.split()]) == 0
    assert out.sha.hexdigest() == ENUMERATE_SHA256[argv]


def test_closed_stdout_ends_quietly():
    # The reader takes one line and closes the pipe: the command stops at
    # its next write, with exit 0 and nothing on stderr.
    for argv in (("-n", "6"), ("-n", "6", "--json")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "thetatopo", "enumerate", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (0, b""), argv


def test_closed_stdout_without_descriptor_ends_quietly():
    class Closed(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = StringIO()
    with redirect_stdout(Closed()), redirect_stderr(err):
        assert main(["enumerate", "-n", "2"]) == 0
    assert err.getvalue() == ""


def test_enumerate_seven_point_classes_pinned():
    # The 4,535 classes on 7 points, recorded from the orbit-set walk.
    code, out, err = run_cli("enumerate", "-n", "7", "--homeo")
    assert (code, err) == (0, "")
    assert out.count("\n") == 4535
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fc90a8999006143589daea4a008d7e2be021d4abece57449945585cb6914042e"
    )


def test_hedgehog_outputs_pinned():
    # stdout of the profile and of embeddings into four oracle spaces, text
    # and --json, verification checks included; recorded when every oracle
    # query still re-validated its token.
    runs = [("hedgehog", "profile", "--depth", "60", "--json")]
    for spec in ("hedgehog", "permuted:3,1,2", "permuted:5,4,3,2,1", "sum:discrete3"):
        for depth in ("1", "3", "12"):
            for u0 in ("0", "2"):
                for fmt in ((), ("--json",)):
                    runs.append(
                        ("hedgehog", "embed", "--space", spec, "--depth", depth, "--u0-index", u0, *fmt)
                    )
    h = hashlib.sha256()
    for argv in runs:
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        h.update(out.encode())
    assert h.hexdigest() == (
        "c56fdc4ad413fa2393b84e4c0e524ba32136a949ca4ca03a0b11217b035ff440"
    )


def test_usage_errors_exit_two():
    assert run_cli()[0] == 2
    assert run_cli("unknown-command")[0] == 2
    assert run_cli("enumerate")[0] == 2
    assert run_cli("fn", "compositions", "--sizes", "1,2")[0] == 2
    assert run_cli("fn", "compositions", "--sizes", "a,b,c")[0] == 2
    assert run_cli("decompose", "--mode", "bogus", "fixtures/sierpinski.json")[0] == 2


# ---------------------------------------------------------------------------
# Worker invariance.
# ---------------------------------------------------------------------------

def test_workers_do_not_change_output():
    base = run_cli("enumerate", "-n", "4")
    assert base[0] == 0
    for w in ("2", "3", "5"):
        assert run_cli("enumerate", "-n", "4", "--workers", w) == base

    one = run_cli("verify-diagram", "--max-n", "3", "--json")
    assert one[0] == 0
    assert run_cli("verify-diagram", "--max-n", "3", "--workers", "2", "--json") == one


def test_enumerate_workers_start_no_process(monkeypatch):
    one = run_cli("enumerate", "-n", "5", "--workers", "1")
    assert one[0] == 0
    diagram = run_cli("verify-diagram", "--max-n", "4", "--workers", "1", "--json")
    assert diagram[0] == 0

    def get_context(*args, **kw):
        raise AssertionError("a command started a process pool")

    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("multiprocessing.get_context", get_context)
    assert run_cli("enumerate", "-n", "5", "--workers", "2") == one
    assert run_cli("verify-diagram", "--max-n", "4", "--workers", "2", "--json") == diagram
