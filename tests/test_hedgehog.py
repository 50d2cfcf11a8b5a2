import dataclasses
from collections import namedtuple
from itertools import product

import pytest

from oracles import (
    cl_oracle,
    hh_base_members,
    hh_brute_closure_contains,
    hh_check_token,
    hh_least_pick,
    hh_members,
    hh_universe,
)
from thetatopo.hedgehog import (
    ROOT,
    Embedding,
    FinBase,
    HedgehogOracle,
    MalformedToken,
    MappedSet,
    NotHausdorffWitnessed,
    OracleError,
    PermutedOracle,
    RegularAtPoint,
    RootBase,
    Singleton,
    StalkBase,
    SumOracle,
    VerificationFailure,
    certify_hedgehog_profile,
    embed_hedgehog,
    token_key,
    token_str,
    verify_embedding,
)
from test_cli import run_cli
from thetatopo import hedgehog
from thetatopo.space import CapExceeded, UnknownPoint, build_space

SIERPINSKI = build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})
DISCRETE2 = build_space(["0", "1"], {"0": ["0"], "1": ["1"]})


def catalog(limit):
    for n in range(1, limit + 1):
        yield RootBase(n)
        for m in range(1, limit + 1):
            yield StalkBase(n, m)
            yield Singleton(n, m)


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------

def test_module_import_binds_the_module():
    import thetatopo.hedgehog as m

    assert m.__name__ == "thetatopo.hedgehog"
    assert m.HedgehogOracle is HedgehogOracle


def test_token_validation():
    o = HedgehogOracle()
    assert o.validate(()) == ()
    assert o.validate([3]) == (3,)
    assert o.validate((2, 7)) == (2, 7)
    for bad in ["x", 5, (0,), (-1,), (1, 0), (0, 1), (1, 2, 3), (1.5,), ("fin", "a")]:
        with pytest.raises(MalformedToken):
            o.validate(bad)


class Index(int):
    pass


Tip = namedtuple("Tip", "n m")

# Well-formed tokens, and every kind of near miss the fast path must hand on
# to the full check: lists, bools, int subclasses, tuple subclasses, zero,
# negatives, floats, strings, nested tuples, length 3, finite-summand tokens.
TOKEN_CATALOG = [
    (), (1,), (3, 7), (10**12, 1),
    [], [4], [2, 5], [0, 1], [1, 2, 3], ["fin", "a"],
    (True,), (False,), (1, False), (True, True), (2, True),
    (Index(2),), (1, Index(3)), Tip(1, 2), Tip(0, 2),
    0, 5, -1, 1.5, None, "x", "fin", b"\x01",
    (0,), (-1,), (1, 0), (0, 1), (-3, 2), (1.5,), (2, 2.0), (1.0, 1),
    ("1",), ("a", "b"), ((1,),), ((1, 2), 3), (1, (2,)), ((),),
    (1, 2, 3), (1, 1, 1), (0, 0, 0), ("fin", "a", "b"),
    ("fin", "a"), ("fin", 1), ("fin", ""), ("fin", ("a",)), ("fin",),
]


def check_outcome(check, t, allow_fin):
    try:
        got = check(t, allow_fin=allow_fin)
    except Exception as exc:
        return "raises", type(exc), str(exc)
    return "returns", type(got), repr(got)


def test_check_token_matches_reference():
    import thetatopo.hedgehog as m

    for t in TOKEN_CATALOG:
        for allow_fin in (False, True):
            assert check_outcome(m._check_token, t, allow_fin) == check_outcome(
                hh_check_token, t, allow_fin
            ), (t, allow_fin)


def test_token_order_and_rendering():
    tokens = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), ("fin", "a")]
    assert sorted(tokens, key=token_key) == tokens
    assert [token_str(t) for t in tokens] == [
        "()",
        "(1)",
        "(2)",
        "(1,1)",
        "(1,2)",
        "(2,1)",
        "fin:a",
    ]


def test_basic_set_rendering():
    assert str(Singleton(1, 2)) == "{(1,2)}"
    assert str(StalkBase(1, 2)) == "U(1,2)"
    assert str(RootBase(3)) == "U(3)"
    assert str(FinBase("a")) == "N(a)"
    assert str(MappedSet(StalkBase(2, 1))) == "mapped:U(2,1)"


# ---------------------------------------------------------------------------
# Membership and closure against the truncated member-set formulas.
# ---------------------------------------------------------------------------

def test_bases_by_kind():
    o = HedgehogOracle()
    assert o.nbhd_base(ROOT, 0) == RootBase(1)
    assert o.nbhd_base(ROOT, 4) == RootBase(5)
    assert o.nbhd_base((3,), 0) == StalkBase(3, 1)
    assert o.nbhd_base((2, 5), 9) == Singleton(2, 5)
    with pytest.raises(OracleError):
        o.nbhd_base(ROOT, -1)
    with pytest.raises(OracleError):
        o.contains(object(), ROOT)
    with pytest.raises(OracleError):
        o.closure_contains(object(), ROOT)


def test_contains_and_closure_exhaustive():
    o = HedgehogOracle()
    depth = 8
    tokens = hh_universe(depth)
    for b in catalog(depth):
        members = hh_members(b, depth)
        for t in tokens:
            assert o.contains(b, t) == (t in members)
            assert o.closure_contains(b, t) == hh_brute_closure_contains(b, t, depth)


def test_contains_and_closure_deep_spots():
    o = HedgehogOracle()
    pairs = [
        (RootBase(50), (49,)),
        (RootBase(50), (50,)),
        (RootBase(37), (41, 50)),
        (StalkBase(50, 50), (50,)),
        (StalkBase(50, 50), (50, 49)),
        (StalkBase(13, 7), (13, 50)),
        (Singleton(50, 50), (50, 50)),
        (Singleton(50, 50), ()),
    ]
    for b, t in pairs:
        assert o.contains(b, t) == (t in hh_members(b, 51))
        assert o.closure_contains(b, t) == hh_brute_closure_contains(b, t, 50)


def test_pinned_membership_facts():
    o = HedgehogOracle()
    # Stalk bases are clopen; in particular the root does not adhere.
    assert not o.closure_contains(StalkBase(1, 1), ())
    assert o.closure_contains(StalkBase(1, 1), (1,))
    assert not o.contains(RootBase(3), (2, 5))
    assert not o.closure_contains(RootBase(2), (1,))
    # A stalk adheres to a root base exactly from that index on.
    for n in range(1, 9):
        for k in range(1, 9):
            assert o.closure_contains(RootBase(n), (k,)) == (k >= n)
    # Root bases contain no stalk points at all.
    assert not any(o.contains(RootBase(n), (k,)) for n in range(1, 6) for k in range(1, 6))
    # Tips are isolated and closed.
    assert o.contains(Singleton(2, 3), (2, 3))
    assert not any(
        o.closure_contains(Singleton(2, 3), t) for t in hh_universe(5) if t != (2, 3)
    )


def test_one_token_check_per_query(monkeypatch):
    import thetatopo.hedgehog as m

    calls = []
    check = m._check_token
    monkeypatch.setattr(m, "_check_token", lambda *a, **k: calls.append(a) or check(*a, **k))
    for o, b in [
        (HedgehogOracle(), RootBase(2)),
        (SumOracle(SIERPINSKI), RootBase(2)),
        (PermutedOracle({1: 2, 2: 1}), MappedSet(RootBase(2))),
    ]:
        tokens = [ROOT, (1,), (3,), (2, 4)]
        for t in tokens:
            for query in (
                lambda: o.contains(b, t),
                lambda: o.closure_contains(b, t),
                lambda: o.nbhd_base(t, 1),
                lambda: o.approach_within(t, [], 2),
            ):
                calls.clear()
                query()
                assert len(calls) == 1
            for u in tokens:
                if u != t:
                    calls.clear()
                    o.separate(t, u)
                    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Membership tests built once per basic set.
# ---------------------------------------------------------------------------

def own_sets(o, limit):
    """Every basic set of the depth-limit catalog, as o names it, plus the
    finite basic sets of a sum."""
    if isinstance(o, PermutedOracle):
        return [MappedSet(b) for b in catalog(limit)]
    if isinstance(o, SumOracle):
        return [*catalog(limit), *(FinBase(name) for name in o.summand.names)]
    return list(catalog(limit))


def test_predicates_match_public_queries():
    depth = 8
    for o in TAMPER_ORACLES:
        tokens = hh_universe(depth)
        if isinstance(o, SumOracle):
            tokens += tuple(("fin", name) for name in o.summand.names)
        for b in own_sets(o, depth):
            members, adherents = o.members(b), o.adherents(b)
            for t in tokens:
                assert members(t) == o.contains(b, t)
                assert adherents(t) == o.closure_contains(b, t)


@pytest.mark.parametrize("images", [{1: 3, 2: 1, 3: 2}, {1: 5, 5: 1}, {2: 7, 7: 4, 4: 2}])
def test_permuted_predicates_match_relabeled_sets(images):
    # Visible token t lies in (the closure of) MappedSet(b) iff its hidden
    # name does in b. Root bases U(n) with n between a moved stalk's two
    # names are the ones whose test renames tokens back.
    o = PermutedOracle(images)
    depth = 8
    for b in catalog(depth):
        members, adherents = o.members(MappedSet(b)), o.adherents(MappedSet(b))
        inside = hh_members(b, depth)
        for t in hh_universe(depth):
            hidden = (o.inv.get(t[0], t[0]),) + t[1:] if t else t
            assert members(t) == (hidden in inside)
            assert adherents(t) == hh_brute_closure_contains(b, hidden, depth)


# Basic sets each oracle does not know: an arbitrary object and the sets of
# the other two oracles.
FOREIGN_SETS = {
    HedgehogOracle: (object(), FinBase("a"), MappedSet(RootBase(1)), MappedSet(Singleton(1, 1))),
    SumOracle: (object(), MappedSet(RootBase(1)), MappedSet(StalkBase(1, 1))),
    PermutedOracle: (
        object(),
        RootBase(1),
        StalkBase(1, 1),
        Singleton(1, 1),
        FinBase("a"),
        MappedSet(FinBase("a")),
        MappedSet(object()),
    ),
}


def test_foreign_basic_sets_raise():
    # The foreign-set check runs when the test is built, so it does not
    # depend on the kind of token asked about.
    for o in TAMPER_ORACLES:
        tokens = [ROOT, (1,), (1, 1)]
        own = [o.nbhd_base(ROOT, 0)]
        if isinstance(o, SumOracle):
            tokens.append(("fin", "a"))
            own.append(FinBase("a"))
        for b in FOREIGN_SETS[type(o)]:
            queries = [lambda: o.members(b), lambda: o.adherents(b)]
            for t in tokens:
                queries += [lambda t=t: o.contains(b, t), lambda t=t: o.closure_contains(b, t)]
            queries.append(lambda: o.pick_in_closure_minus(b))
            for a in own:
                queries += [
                    lambda a=a: o.pick_in_closure_minus(a, b),
                    lambda a=a: o.pick_in_closure_minus(b, a),
                ]
            for query in queries:
                with pytest.raises(OracleError, match="foreign basic set"):
                    query()


def test_decreasing_bases():
    limit = 9
    o = HedgehogOracle()
    for x in [ROOT, (1,), (3,), (2, 2), (7, 7)]:
        for k in range(6):
            smaller = hh_members(o.nbhd_base(x, k + 1), limit)
            bigger = hh_members(o.nbhd_base(x, k), limit)
            assert smaller <= bigger
            assert x in bigger


# ---------------------------------------------------------------------------
# Separation.
# ---------------------------------------------------------------------------

def test_separate_exhaustive():
    o = HedgehogOracle()
    depth = 6
    tokens = hh_universe(depth)
    limit = depth + 3
    for a in tokens:
        for b in tokens:
            if a == b:
                continue
            ia, ib = o.separate(a, b)
            na = o.nbhd_base(a, ia)
            nb = o.nbhd_base(b, ib)
            assert a in hh_members(na, limit)
            assert b in hh_members(nb, limit)
            assert not hh_members(na, limit) & hh_members(nb, limit)


def test_separate_self():
    o = HedgehogOracle()
    for t in [ROOT, (2,), (3, 4)]:
        with pytest.raises(NotHausdorffWitnessed):
            o.separate(t, t)


# ---------------------------------------------------------------------------
# Choice functions.
# ---------------------------------------------------------------------------

def test_pick_in_closure_minus_is_least():
    o = HedgehogOracle()
    sets = list(catalog(3))
    for a in sets:
        for b in [None] + sets:
            assert o.pick_in_closure_minus(a, b) == hh_least_pick(a, b, 5)


def test_pick_foreign_set():
    with pytest.raises(OracleError):
        HedgehogOracle().pick_in_closure_minus(object())


def test_approach_within():
    o = HedgehogOracle()
    row = o.approach_within((2,), [StalkBase(2, 3), StalkBase(2, 5), RootBase(1)], 4)
    assert row == ((2, 5), (2, 6), (2, 7), (2, 8))
    root_row = o.approach_within(ROOT, [RootBase(3), RootBase(5)], 3)
    assert root_row == ((5, 1), (6, 1), (7, 1))

    for x, constraints, count in [
        ((2,), [StalkBase(2, 1)], 6),
        ((1,), [], 5),
        (ROOT, [RootBase(2)], 5),
    ]:
        row = o.approach_within(x, constraints, count)
        assert len(row) == count and len(set(row)) == count
        limit = 40
        for c in constraints:
            assert set(row) <= hh_members(c, limit)
        # The sequence really converges: it settles into every base.
        for k in range(count):
            assert row[-1] in hh_members(o.nbhd_base(x, k), limit)

    assert o.approach_within((1, 1), [], 3) is None
    assert o.approach_within((2,), [StalkBase(3, 1)], 3) is None
    assert o.approach_within((2,), [RootBase(3)], 3) is None
    assert o.approach_within((2,), [Singleton(2, 1)], 3) is None
    assert o.approach_within(ROOT, [StalkBase(1, 1)], 3) is None
    assert o.approach_within(ROOT, [], 0) == ()


# ---------------------------------------------------------------------------
# Profile certification.
# ---------------------------------------------------------------------------

def test_profile_depth_cap_checked_before_any_work(monkeypatch):
    # The library refuses a depth above DEPTH_CAP, as `hedgehog profile
    # --depth` does, before it builds the oracle.
    def refuse():
        raise AssertionError("built the oracle before checking the cap")

    monkeypatch.setattr(hedgehog, "HedgehogOracle", refuse)
    for depth in (hedgehog.DEPTH_CAP + 1, 10**5000):
        with pytest.raises(CapExceeded, match="hedgehog profile capped at depth 400"):
            certify_hedgehog_profile(depth)


def test_profile_depths():
    # A depth below 1 would check nothing, so it is refused, not passed.
    for depth in (0, -1):
        with pytest.raises(OracleError, match="depth must be at least 1"):
            certify_hedgehog_profile(depth)

    for depth in (1, 5, 50):
        r = certify_hedgehog_profile(depth)
        assert r.ok and not r.failures
        assert r.depth == depth
        assert r.decreasing_checks == (depth + 2) * depth
        assert r.layers == ("tips", "stalks", "root")
        assert r.clopen_checks == 16 * depth * depth + 5 * depth
        assert len(r.witnesses) == depth
        assert r.witnesses[0] == "(1)"
        assert r.to_obj()["verdict"] == "pass"


def test_profile_text_golden():
    assert certify_hedgehog_profile(3).to_text() == "\n".join(
        [
            "hedgehog profile, depth 3",
            "first-countable: decreasing bases (15 inclusions)",
            "scattered: layers tips, stalks, root exhaust the space",
            "locally regular: 159 closure checks",
            "not regular at root: 3 witnesses, least (1) in cl(U(1)) outside U(1)",
            "verdict: pass",
        ]
    )


def _grow_bases(monkeypatch):
    base = hedgehog._nbhd_base
    monkeypatch.setattr(hedgehog, "_nbhd_base", lambda x, k: base(x, max(0, 2 - k)))


def _tip_gets_stalk_base(monkeypatch):
    base = hedgehog._nbhd_base
    monkeypatch.setattr(
        hedgehog, "_nbhd_base", lambda x, k: StalkBase(*x) if len(x) == 2 else base(x, k)
    )


def _patch(cls, names, test):
    # Replace the named membership tests of cls by test(original, self, t).
    def install(monkeypatch):
        for name in names:
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, t, o=original: test(o, self, t))

    return install


BOTH = ("member", "adheres")

# (fault, clause, a failure it must report): one fault per failure line of
# certify_hedgehog_profile. A basic set whose member and adheres change
# together stays clopen, so the local-regularity clause still passes; a
# stalk in U(1) also costs the first non-regularity witness.
PROFILE_FAULTS = [
    (_grow_bases, "decreasing bases", "base at () not decreasing at index 0"),
    (_tip_gets_stalk_base, "scattered layers", "tip (1,1) not isolated"),
    (
        _patch(StalkBase, BOTH, lambda o, b, t: o(b, t) or len(t) == 1),
        "scattered layers",
        "stalk (1) not isolated among stalks",
    ),
    (
        _patch(StalkBase, BOTH, lambda o, b, t: o(b, t) or t == ROOT),
        "scattered layers",
        "stalk base U(1,1) contains the root",
    ),
    (
        _patch(RootBase, ("member",), lambda o, b, t: o(b, t) or t == (1,)),
        "scattered layers",
        "root base U(1) contains a stalk",
    ),
    (
        _patch(StalkBase, ("adheres",), lambda o, b, t: o(b, t) or t == ROOT),
        "local regularity",
        "U(1,1) not clopen at ()",
    ),
    (
        _patch(Singleton, ("adheres",), lambda o, b, t: o(b, t) or t == ROOT),
        "local regularity",
        "singleton (1,1) not closed at ()",
    ),
    (
        # The tips of stalk n leave cl(U(n)), though they lie in U(n).
        _patch(RootBase, ("adheres",), lambda o, b, t: o(b, t) and (len(t) < 2 or t[0] != b.n)),
        "local regularity",
        "U(1) not relatively clopen in U(1) at (1,1)",
    ),
    (
        _patch(RootBase, ("adheres",), lambda o, b, t: o(b, t) and len(t) != 1),
        "non-regularity witnesses",
        "missing non-regularity witness at index 1",
    ),
]


@pytest.mark.parametrize(
    "fault, clause, failure", PROFILE_FAULTS, ids=[f[2] for f in PROFILE_FAULTS]
)
def test_profile_reports_each_failure(monkeypatch, fault, clause, failure):
    fault(monkeypatch)
    r = certify_hedgehog_profile(3)
    assert not r.ok and failure in r.failures, (clause, r.failures)
    assert f"FAILED: {failure}" in r.to_text().splitlines()
    assert r.to_text().endswith("verdict: fail")
    assert r.to_obj()["verdict"] == "fail"
    code, out, err = run_cli("hedgehog", "profile", "--depth", "3")
    assert (code, err) == (1, "") and f"FAILED: {failure}\n" in out


# ---------------------------------------------------------------------------
# Embedding construction.
# ---------------------------------------------------------------------------

def test_embed_pure_frozen():
    e = embed_hedgehog(HedgehogOracle(), depth=8)
    assert e.root_image == ROOT and e.u0_index == 0 and e.depth == 8
    assert e.stalk_images == tuple((n,) for n in range(1, 9))
    assert e.ks == tuple(range(9))
    assert e.v_indices == (0,) * 8
    assert e.tips == tuple(
        tuple((n, m) for m in range(1, 9)) for n in range(1, 9)
    )


def test_embed_images_are_distinct_tokens_of_the_target():
    o = HedgehogOracle()
    e = embed_hedgehog(o, depth=6)
    seen = set()
    for t in [e.root_image, *e.stalk_images, *(t for row in e.tips for t in row)]:
        assert o.validate(t) == t
        assert t not in seen
        seen.add(t)


def test_embedding_h_and_truncation():
    e = embed_hedgehog(HedgehogOracle(), depth=4)
    assert e.h(()) == ()
    assert e.h((3,)) == (3,)
    assert e.h((2, 4)) == (2, 4)
    with pytest.raises(OracleError):
        e.h((5,))
    with pytest.raises(OracleError):
        e.h((1, 5))
    with pytest.raises(MalformedToken):
        e.h("root")


def test_embed_depth_validation():
    with pytest.raises(OracleError):
        embed_hedgehog(HedgehogOracle(), depth=0)


def test_embed_text_golden():
    assert embed_hedgehog(HedgehogOracle(), depth=3).to_text() == "\n".join(
        [
            "embedding, depth 3, u0_index 0",
            "h(()) = ()",
            "h((1)) = (1)  [k=0, V=U(1,1)]",
            "  tips: (1,1) (1,2) (1,3)",
            "h((2)) = (2)  [k=1, V=U(2,1)]",
            "  tips: (2,1) (2,2) (2,3)",
            "h((3)) = (3)  [k=2, V=U(3,1)]",
            "  tips: (3,1) (3,2) (3,3)",
        ]
    )


def test_embed_rooted_at_stalk_is_refused():
    # Away from the root the space is locally regular, so the precondition
    # trips immediately.
    with pytest.raises(RegularAtPoint):
        embed_hedgehog(HedgehogOracle(), x=(1,), depth=3)
    with pytest.raises(RegularAtPoint):
        embed_hedgehog(HedgehogOracle(), x=(2, 2), depth=3)


def test_embed_deeper_u0():
    o = HedgehogOracle()
    e = embed_hedgehog(o, u0_index=2, depth=4)
    assert e.u0_index == 2 and e.ks[0] == 2
    assert verify_embedding(o, e, 4)["verdict"] == "pass"
    u0 = o.nbhd_base(ROOT, 2)
    for x_n in e.stalk_images:
        assert not o.contains(u0, x_n)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

def test_verify_all_depths():
    o = HedgehogOracle()
    e = embed_hedgehog(o, depth=8)
    for d in range(1, 9):
        out = verify_embedding(o, e, d)
        assert out["verdict"] == "pass" and out["depth"] == d
        n_images = 1 + d + d * d
        assert out["checks"]["distinctness"] == n_images * (n_images - 1) // 2
        assert out["checks"]["stalk_convergence"] == d * d * d
        assert out["checks"]["root_pattern"] == d * d * d


def test_verify_depth_range():
    o = HedgehogOracle()
    e = embed_hedgehog(o, depth=3)
    for bad in (0, -1, 4):
        with pytest.raises(OracleError):
            verify_embedding(o, e, bad)


def tamper(e, **kw):
    return dataclasses.replace(e, **kw)


# Each oracle answers the verifier's membership questions through its own
# membership tests, so every tampered embedding is checked on all three.
TAMPER_ORACLES = (HedgehogOracle(), SumOracle(SIERPINSKI), PermutedOracle({1: 3, 2: 1, 3: 2}))


def tampered(change):
    """(oracle, its depth-3 embedding with change(e) replacing fields)."""
    for o in TAMPER_ORACLES:
        e = embed_hedgehog(o, depth=3)
        yield o, tamper(e, **change(e))


def test_verify_detects_duplicate_image():
    for o, bad in tampered(
        lambda e: {"tips": ((e.tips[0][1], e.tips[0][1], e.tips[0][2]),) + e.tips[1:]}
    ):
        with pytest.raises(VerificationFailure) as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "distinctness"


def test_verify_detects_diverging_tips():
    for o, bad in tampered(lambda e: {"tips": (tuple(reversed(e.tips[0])),) + e.tips[1:]}):
        with pytest.raises(VerificationFailure) as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "stalk_convergence"


def test_verify_detects_wrong_root():
    for o, bad in tampered(lambda e: {"root_image": (9, 9)}):
        with pytest.raises(VerificationFailure) as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "root_pattern"


def test_verify_detects_adhering_tail():
    for o, bad in tampered(lambda e: {"ks": (e.ks[0], 0) + e.ks[2:]}):
        with pytest.raises(VerificationFailure, match="still adheres") as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "separation"


def test_verify_detects_leaky_v():
    for o, bad in tampered(lambda e: {"v_indices": (5,) + e.v_indices[1:]}):
        with pytest.raises(VerificationFailure, match="misses its own tip") as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "separation"


def test_verify_detects_captured_tip():
    # A far tip of stalk image 1 in stalk 2's row: only the last tip of a
    # row must converge, and only the last stalk's tips face the root bases,
    # so V_1 is the first to see it.
    def change(e):
        far = (e.stalk_images[0][0], 50)
        return {"tips": (e.tips[0], (far,) + e.tips[1][1:], e.tips[2])}

    for o, bad in tampered(change):
        with pytest.raises(VerificationFailure, match="captures a tip image of stalk 2") as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "separation"


def test_verify_detects_short_tail():
    # The tail base at k_2 = 100 lies past every stalk the images use.
    for o, bad in tampered(lambda e: {"ks": (e.ks[0], 100) + e.ks[2:]}):
        with pytest.raises(
            VerificationFailure, match=r"tail base at k_2 misses tip image \(2,1\) of stalk 2"
        ) as ei:
            verify_embedding(o, bad, 3)
        assert ei.value.clause == "separation"


def test_verify_detects_captured_stalk():
    # In a finite summand a minimal neighborhood can hold another point:
    # with stalk images p and q, V_1 = N(p) holds q.
    fin = build_space(
        ["p", "q", "r", "s", "u", "z"],
        {"p": ["p", "q", "r", "s", "u", "z"], "q": ["q", "z"], **{c: [c] for c in "rsuz"}},
    )
    o = SumOracle(fin)
    e = embed_hedgehog(o, depth=3)
    bad = tamper(
        e,
        stalk_images=(("fin", "p"), ("fin", "q"), e.stalk_images[2]),
        tips=(
            (("fin", "r"), ("fin", "s"), ("fin", "u")),
            ((1, 1), (1, 2), ("fin", "z")),
            e.tips[2],
        ),
    )
    with pytest.raises(VerificationFailure, match="V_1 captures the stalk image of 2") as ei:
        verify_embedding(o, bad, 3)
    assert ei.value.clause == "separation"


def test_verify_rejects_malformed_images():
    # Images are validated once, after the distinctness pass; a token the
    # oracle does not know still raises what the oracle's own check raises.
    for o, bad in tampered(lambda e: {"tips": (e.tips[0], ((0, 2),) + e.tips[1][1:], e.tips[2])}):
        with pytest.raises(MalformedToken, match=r"not a well-formed token: \(0, 2\)"):
            verify_embedding(o, bad, 3)
    for o, bad in tampered(lambda e: {"root_image": (0,)}):
        with pytest.raises(MalformedToken):
            verify_embedding(o, bad, 3)
    for o, bad in tampered(
        lambda e: {"tips": (e.tips[0], (("fin", "zz"),) + e.tips[1][1:], e.tips[2])}
    ):
        expected = UnknownPoint if isinstance(o, SumOracle) else MalformedToken
        with pytest.raises(expected, match="zz"):
            verify_embedding(o, bad, 3)


def test_verify_checks_each_token_once(monkeypatch):
    # The verifier validates its images once and asks every membership
    # question through one test per basic set: at most three token checks
    # per image, against 3,690 when every query re-validated.
    import thetatopo.hedgehog as m

    calls = []
    check = m._check_token
    monkeypatch.setattr(m, "_check_token", lambda *a, **k: calls.append(a) or check(*a, **k))
    d = 10
    for o in TAMPER_ORACLES:
        e = embed_hedgehog(o, depth=d)
        calls.clear()
        assert verify_embedding(o, e, d)["verdict"] == "pass"
        assert len(calls) <= 3 * (1 + d + d * d)


def test_verify_builds_one_test_per_basic_set(monkeypatch):
    # d^2 bases at the stalk images, d at the root image, and per stalk V_n
    # plus the tail base asked for membership and adherence: d^2 + 4d
    # builds, against about 3.5 d^3 queries.
    d = 10
    for o in TAMPER_ORACLES:
        e = embed_hedgehog(o, depth=d)
        builds = []
        for name in ("members", "adherents"):
            build = getattr(o, name)
            monkeypatch.setattr(o, name, lambda b, build=build: builds.append(b) or build(b))
        assert verify_embedding(o, e, d)["verdict"] == "pass"
        assert len(builds) <= d * d + 4 * d


def test_embed_checks_tokens_linearly(monkeypatch):
    # d + 3 checks before the steps: the root image, U0 and the d + 1
    # pre-checked bases. Six per step: the base at the root image, the
    # pick, the two points separated, each candidate V_n (one here) and the
    # approach. Earlier picks are not re-validated while V_n shrinks.
    import thetatopo.hedgehog as m

    calls = []
    check = m._check_token
    monkeypatch.setattr(m, "_check_token", lambda *a, **k: calls.append(a) or check(*a, **k))
    for o in TAMPER_ORACLES:
        for d in (10, 20, 40):
            calls.clear()
            embed_hedgehog(o, depth=d)
            assert len(calls) <= 7 * d + 3


# ---------------------------------------------------------------------------
# Sum with a finite summand.
# ---------------------------------------------------------------------------

def test_sum_tokens_and_membership():
    o = SumOracle(SIERPINSKI)
    assert o.validate(("fin", "a")) == ("fin", "a")
    with pytest.raises(UnknownPoint):
        o.validate(("fin", "zz"))

    assert o.nbhd_base(("fin", "b"), 7) == FinBase("b")
    assert o.contains(FinBase("b"), ("fin", "a"))
    assert o.contains(FinBase("b"), ("fin", "b"))
    assert not o.contains(FinBase("a"), ("fin", "b"))
    # Summands never mix.
    assert not o.contains(FinBase("b"), (1,))
    assert not o.contains(RootBase(1), ("fin", "a"))
    assert not o.closure_contains(RootBase(1), ("fin", "a"))
    assert not o.closure_contains(FinBase("a"), (1, 1))
    assert o.contains(StalkBase(2, 1), (2, 3))


def test_sum_closure_matches_finite_closure():
    o = SumOracle(SIERPINSKI)
    for name in SIERPINSKI.names:
        i = SIERPINSKI.index(name)
        cl = cl_oracle(SIERPINSKI, SIERPINSKI.nbhd[i], SIERPINSKI.full_mask)
        for tname in SIERPINSKI.names:
            j = SIERPINSKI.index(tname)
            assert o.closure_contains(FinBase(name), ("fin", tname)) == bool(
                cl >> j & 1
            )


def test_sum_separation():
    o = SumOracle(SIERPINSKI)
    with pytest.raises(NotHausdorffWitnessed, match="meet"):
        o.separate(("fin", "a"), ("fin", "b"))
    with pytest.raises(NotHausdorffWitnessed, match="itself"):
        o.separate(("fin", "a"), ("fin", "a"))
    # Cross-kind pairs separate by the clopen summand split.
    ia, ib = o.separate(("fin", "a"), (1,))
    assert not o.contains(o.nbhd_base(("fin", "a"), ia), (1,))
    assert not o.contains(o.nbhd_base((1,), ib), ("fin", "a"))

    d = SumOracle(DISCRETE2)
    assert d.separate(("fin", "0"), ("fin", "1")) == (0, 0)


def test_sum_picks():
    o = SumOracle(SIERPINSKI)
    assert o.pick_in_closure_minus(FinBase("a")) == ("fin", "a")
    assert o.pick_in_closure_minus(FinBase("a"), FinBase("a")) == ("fin", "b")
    assert o.pick_in_closure_minus(FinBase("a"), FinBase("b")) is None
    # A finite obstacle cannot block a hedgehog-side pick.
    assert o.pick_in_closure_minus(StalkBase(1, 1), FinBase("a")) == (1,)
    assert o.approach_within(("fin", "a"), [], 3) is None
    assert o.approach_within((1,), [FinBase("a")], 3) is None
    assert o.approach_within((1,), [StalkBase(1, 2)], 2) == ((1, 2), (1, 3))


def test_sum_embed_at_root_ignores_summand():
    o = SumOracle(DISCRETE2)
    e = embed_hedgehog(o, depth=5)
    pure = embed_hedgehog(HedgehogOracle(), depth=5)
    assert e.to_obj() == pure.to_obj()
    assert verify_embedding(o, e, 5)["verdict"] == "pass"


def test_sum_embed_at_finite_point():
    with pytest.raises(RegularAtPoint):
        embed_hedgehog(SumOracle(DISCRETE2), x=("fin", "0"), depth=3)
    with pytest.raises(RegularAtPoint):
        embed_hedgehog(SumOracle(SIERPINSKI), x=("fin", "b"), depth=3)
    # The open point of the connected doubleton is not regular, but the
    # witness pair cannot be separated, so the embedding fails loudly.
    with pytest.raises(NotHausdorffWitnessed):
        embed_hedgehog(SumOracle(SIERPINSKI), x=("fin", "a"), depth=3)


# ---------------------------------------------------------------------------
# Relabeled stalks.
# ---------------------------------------------------------------------------

def test_permuted_validation():
    with pytest.raises(OracleError):
        PermutedOracle({1: 2})
    with pytest.raises(OracleError):
        PermutedOracle({0: 1, 1: 0})
    assert PermutedOracle({}).fwd == {}
    assert PermutedOracle({1: 1, 2: 2}).fwd == {}


def test_permuted_membership():
    o = PermutedOracle({1: 2, 2: 1})
    b1 = o.nbhd_base((2,), 0)
    assert b1 == MappedSet(StalkBase(1, 1))
    assert o.contains(b1, (2, 5))
    assert not o.contains(b1, (1, 5))
    r = o.nbhd_base(ROOT, 1)
    assert r == MappedSet(RootBase(2))
    # Visible stalk 1 is hidden stalk 2, so it still adheres to U(2).
    assert o.closure_contains(r, (1,))
    assert not o.closure_contains(r, (2,))
    with pytest.raises(OracleError):
        o.contains(StalkBase(1, 1), (1,))


def test_permuted_pick_prefers_visible_names():
    o = PermutedOracle({1: 5, 5: 1})
    # Hidden stalk 5 adheres to U(2) and is visible as stalk 1, which comes
    # before the identity-named stalk 2.
    t = o.pick_in_closure_minus(MappedSet(RootBase(2)), MappedSet(RootBase(1)))
    assert t == (1,)
    assert HedgehogOracle().pick_in_closure_minus(RootBase(2), RootBase(1)) == (2,)


@pytest.mark.parametrize("images", [{1: 2, 2: 1}, {1: 2, 2: 3, 3: 1}, {1: 5, 5: 1}])
def test_permuted_pick_in_closure_minus_is_least(images):
    o = PermutedOracle(images)
    sets = list(catalog(3))
    for a in sets:
        for b in [None] + sets:
            got = o.pick_in_closure_minus(MappedSet(a), None if b is None else MappedSet(b))
            assert got == hh_least_pick(a, b, 5, images)


def test_permuted_pick_past_any_window():
    # Answered in closed form at any index, not from a finite scan.
    o = PermutedOracle({1: 2, 2: 1})
    assert o.pick_in_closure_minus(MappedSet(RootBase(200)), MappedSet(RootBase(1))) == (200,)
    big = 10**12
    assert o.pick_in_closure_minus(MappedSet(RootBase(big)), MappedSet(RootBase(1))) == (big,)
    assert o.pick_in_closure_minus(
        MappedSet(StalkBase(300, 500)), MappedSet(StalkBase(300, 502))
    ) == (300, 500)


def test_permuted_embed_frozen_swap():
    o = PermutedOracle({1: 2, 2: 1})
    e = embed_hedgehog(o, depth=5)
    assert e.stalk_images == ((1,), (3,), (4,), (5,), (6,))
    assert e.ks == (0, 2, 3, 4, 5, 6)
    assert e.tips[0] == tuple((1, m) for m in range(1, 6))
    assert e.tips[1] == tuple((3, m) for m in range(1, 6))
    assert [
        str(o.nbhd_base(x, v))
        for x, v in zip(e.stalk_images, e.v_indices)
    ] == [
        "mapped:U(2,1)",
        "mapped:U(3,1)",
        "mapped:U(4,1)",
        "mapped:U(5,1)",
        "mapped:U(6,1)",
    ]
    for d in range(1, 6):
        assert verify_embedding(o, e, d)["verdict"] == "pass"


def test_permuted_embed_three_cycle():
    o = PermutedOracle({1: 2, 2: 3, 3: 1})
    e = embed_hedgehog(o, depth=6)
    assert verify_embedding(o, e, 6)["verdict"] == "pass"
    # Every hidden stalk adheres to cl(U(1)), so the pick takes the least
    # visible name first.
    assert e.stalk_images == ((1,), (4,), (5,), (6,), (7,), (8,))
    seen = {e.root_image, *e.stalk_images}
    assert len(seen) == 7


def test_permuted_approach_relabels_output():
    o = PermutedOracle({1: 2, 2: 1})
    row = o.approach_within((1,), [o.nbhd_base((1,), 0)], 3)
    assert row == ((1, 1), (1, 2), (1, 3))
    assert o.approach_within((1,), [MappedSet(StalkBase(1, 1))], 3) is None
