import json
import pickle
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import maps_between, spaces
from oracles import (
    cont_points_oracle,
    int_oracle,
    map_witness_oracle,
    nonempty_subsets,
    reaches_oracle,
    sweep_oracle,
    theta_part_oracle,
    tier_oracle,
)
from thetatopo import maps
from thetatopo.generate import labeled_rows, random_rows, space_from_rows
from thetatopo.maps import (
    TIER_RANK,
    TIERS,
    BijectivityError,
    DomainMismatch,
    FinMap,
    MapClass,
    build_map,
    classify_map,
    compose,
    continuity_points,
    continuity_set_mask,
    identity_map,
    is_weak_homeomorphism,
    map_class_text,
    map_from_obj,
    map_to_obj,
    ok_masks,
    reaches,
)
from thetatopo.space import (
    POINT_CAP,
    CapExceeded,
    FinSpace,
    ForeignSet,
    PointSet,
    SpaceFormatError,
    UnknownPoint,
    build_space,
    interior_mask,
    theta_components,
)

D_SPACE = build_space(["0", "1"], {"0": ["0"], "1": ["0", "1"]})
DISCRETE2 = build_space(["0", "1"], {"0": ["0"], "1": ["1"]})
D_TO_DISCRETE = build_map(D_SPACE, DISCRETE2, {"0": "0", "1": "1"})


def spaces_up_to(n_max):
    return [
        space_from_rows(rows) for n in range(1, n_max + 1) for rows in labeled_rows(n)
    ]


# ---------------------------------------------------------------------------
# Construction.
# ---------------------------------------------------------------------------

def test_build_map_and_call():
    f = D_TO_DISCRETE
    assert f("0") == "0" and f("1") == "1"
    assert f.img == (0, 1)
    assert f.is_bijective()
    assert f.inverse().domain == DISCRETE2


def test_build_map_errors():
    from thetatopo.space import UnknownPoint

    with pytest.raises(UnknownPoint):
        build_map(D_SPACE, DISCRETE2, {"0": "0"})
    with pytest.raises(UnknownPoint):
        build_map(D_SPACE, DISCRETE2, {"0": "0", "1": "0", "x": "1"})
    with pytest.raises(BijectivityError):
        build_map(D_SPACE, DISCRETE2, {"0": "0", "1": "0"}).inverse()


def test_identity_and_compose():
    i = identity_map(D_SPACE)
    assert classify_map(i).tier == "continuous"
    g = compose(D_TO_DISCRETE, i)
    assert g.img == D_TO_DISCRETE.img
    with pytest.raises(DomainMismatch):
        compose(D_TO_DISCRETE, D_TO_DISCRETE)


def test_map_pickle_round_trip():
    f = pickle.loads(pickle.dumps(D_TO_DISCRETE))
    assert f.domain == D_SPACE and f.img == (0, 1)


# ---------------------------------------------------------------------------
# Continuity sets against the oracle.
# ---------------------------------------------------------------------------

def test_continuity_sets_exhaustive():
    doms = spaces_up_to(3)
    cods = spaces_up_to(2)
    for x in doms:
        for y in cods:
            for img in product(range(len(y)), repeat=len(x)):
                f = FinMap(x, y, img)
                for a in nonempty_subsets(x.full_mask):
                    assert continuity_set_mask(f, a) == cont_points_oracle(f, a)


@given(maps_between(max_points=5), st.data())
def test_continuity_set_random(f, data):
    a = data.draw(st.integers(1, f.domain.full_mask))
    assert continuity_set_mask(f, a) == cont_points_oracle(f, a)


def test_continuity_points_match_mask_function():
    # The checked PointSet face of continuity_set_mask, on every subset,
    # and refusing a set of another space.
    for x in spaces_up_to(3):
        for y in spaces_up_to(2):
            for img in product(range(len(y)), repeat=len(x)):
                f = FinMap(x, y, img)
                for a in range(x.full_mask + 1):
                    assert continuity_points(f, x.set_of(a)) == PointSet(x, continuity_set_mask(f, a))
    with pytest.raises(ForeignSet):
        continuity_points(D_TO_DISCRETE, DISCRETE2.all)


def test_finmap_rejects_malformed_images():
    with pytest.raises(SpaceFormatError, match="^one image per domain point required$"):
        FinMap(D_SPACE, DISCRETE2, (0,))
    for bad in (2, -1):
        with pytest.raises(UnknownPoint, match=f"^image index {bad} outside the codomain$"):
            FinMap(D_SPACE, DISCRETE2, (0, bad))


# ---------------------------------------------------------------------------
# Tier classification against the oracle.
# ---------------------------------------------------------------------------

def test_classification_exhaustive_small():
    cases = [
        FinMap(x, y, img)
        for x in spaces_up_to(3)
        for y in spaces_up_to(2)
        for img in product(range(len(y)), repeat=len(x))
    ]
    expected = [map_witness_oracle(f) for f in cases]
    assert [e["tier"] for e in expected] == [tier_oracle(f) for f in cases]
    assert [classify_map(f).to_obj() for f in cases] == expected
    # Every key is now cached, so this pass only reads entries.
    info = maps._classify.cache_info()
    assert info.currsize == info.misses < info.maxsize
    assert [classify_map(f).to_obj() for f in cases] == expected
    assert maps._classify.cache_info().misses == info.misses


def test_classification_exhaustive_wide_codomain():
    doms = spaces_up_to(2)
    cods = [space_from_rows(rows) for rows in labeled_rows(3)]
    for x in doms:
        for y in cods:
            for img in product(range(3), repeat=len(x)):
                f = FinMap(x, y, img)
                assert classify_map(f).tier == tier_oracle(f)


@given(maps_between(max_points=4))
def test_classification_random(f):
    assert classify_map(f).tier == tier_oracle(f)


def test_memo_entry_serves_each_domain_its_own_names():
    xy = build_space(["x", "y"], {"x": ["x"], "y": ["x", "y"]})
    g = build_map(xy, DISCRETE2, {"x": "0", "y": "1"})
    mf = classify_map(D_TO_DISCRETE)
    mg = classify_map(g)
    info = maps._classify.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    rename = {"0": "x", "1": "y"}
    assert mg.witnesses == {
        t: tuple(rename[a] for a in w) for t, w in mf.witnesses.items()
    }
    assert mg.headline() == (
        "weakly_discontinuous (not θ-weakly discontinuous; witness A = {x,y})"
    )
    assert mf.headline() == (
        "weakly_discontinuous (not θ-weakly discontinuous; witness A = {0,1})"
    )


def test_memo_stays_within_cap():
    info = maps._classify.cache_info
    cap = info().maxsize
    first = None
    keys = set()
    for rows in labeled_rows(4):
        x = space_from_rows(rows)
        for img in product(range(2), repeat=4):
            f = FinMap(x, DISCRETE2, img)
            keys.add((x.nbhd, ok_masks(f)))
            mc = classify_map(f)
            if first is None:
                first = (f, mc)
            assert info().currsize <= cap
    assert len(keys) > cap
    assert (info().misses, info().currsize) == (len(keys), cap)
    # The first key was evicted; it is classified afresh.
    assert classify_map(first[0]) == first[1]
    assert info().misses == len(keys) + 1


@given(maps_between(max_points=4))
def test_witnesses_genuinely_fail(f):
    mc = classify_map(f)
    dom = f.domain
    for tier, names in mc.witnesses.items():
        a = dom.mask_of(names)
        c = cont_points_oracle(f, a)
        if tier == "continuous":
            assert a == dom.full_mask & ~cont_points_oracle(f)
        elif tier == "scatteredly_continuous":
            assert c == 0
        elif tier == "weakly_discontinuous":
            assert int_oracle(dom, c, a) == 0
        else:
            assert theta_part_oracle(dom, c, a) == 0


def test_reaches_is_monotone():
    mc = classify_map(D_TO_DISCRETE)
    ranks = [mc.reaches(t) for t in TIERS]
    assert ranks == sorted(ranks)  # False... then True...
    assert mc.reaches("none")


def test_failing_sets_nest():
    # If a restriction fails a higher tier it fails every lower one, so the
    # recorded witnesses must weakly descend in strength.
    mc = classify_map(D_TO_DISCRETE)
    assert mc.tier == "weakly_discontinuous"
    assert set(mc.witnesses) == {"continuous", "theta_weakly_discontinuous"}


def test_classify_cap():
    # The cap lives in FinSpace, so no 25-point domain reaches classify_map.
    names = [str(i) for i in range(POINT_CAP + 1)]
    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        FinSpace(names, [1 << i for i in range(len(names))])
    full = FinSpace(names[:-1], [1 << i for i in range(POINT_CAP)])
    mc = classify_map(identity_map(full))
    assert (mc.tier, mc.witness_masks) == ("continuous", ())


def test_classifier_matches_sweep_oracle_small():
    # Every map between labeled spaces of at most 3 points: the same tier,
    # witnesses and witness order as the walk over all restrictions, and
    # reaches agrees on every tier. All of it depends on the map only
    # through its domain rows and ok_masks, so one map per key is checked.
    small = spaces_up_to(3)
    seen = set()
    for x in small:
        for y in small:
            for img in product(range(len(y)), repeat=len(x)):
                f = FinMap(x, y, img)
                key = (x.nbhd, maps.ok_masks(f))
                if key not in seen:
                    seen.add(key)
                    _check_against_sweep(f)
    assert len(seen) == 858


def test_classifier_matches_sweep_oracle_random():
    rng = random.Random(16)
    for _ in range(300):
        x = _random_space(rng.randint(1, 10), rng)
        y = _random_space(rng.randint(1, 4), rng)
        _check_against_sweep(FinMap(x, y, tuple(rng.randrange(len(y)) for _ in x.names)))
    # Keys of random maps whose Gray-first failing sets are found only
    # while _gray_least keeps the rank bits already fixed.
    for rows, ok in [
        ((43, 2, 6, 43, 18, 43), (35, 35, 39, 24, 24, 35)),
        (
            (179, 179, 183, 187, 16, 160, 80, 160, 443),
            (375, 375, 375, 511, 375, 375, 375, 511, 375),
        ),
    ]:
        x = FinSpace([str(i) for i in range(len(rows))], rows)
        assert maps._classify(x.nbhd, ok) == sweep_oracle(x, ok)


def _random_space(n, rng):
    return FinSpace([str(i) for i in range(n)], random_rows(n, rng, rng.choice((0.1, 0.25, 0.4))))


def _check_against_sweep(f):
    tier, masks = sweep_oracle(f.domain, ok_masks(f))
    mc = classify_map(f)
    assert (mc.tier, mc.witness_masks) == (tier, masks), f
    # json.dumps keeps the key order of the witnesses object.
    assert json.dumps(mc.to_obj()) == json.dumps(MapClass(tier, masks, f.domain.names).to_obj())
    for t in TIERS:
        assert reaches(f, t) == (TIER_RANK[tier] <= TIER_RANK[t]), (f, t)


def test_classify_on_the_cap_is_fast():
    # A 24-point domain: its 2^24 restrictions are never walked. Each
    # witness is checked to fail its rung from the definitions' bit form.
    rng = random.Random(55)
    x = _random_space(POINT_CAP, rng)
    y = _random_space(4, rng)
    f = FinMap(x, y, tuple(rng.randrange(4) for _ in x.names))
    start = time.perf_counter()
    mc = classify_map(f)
    assert time.perf_counter() - start < 1.0
    assert mc.tier == "none"
    assert list(mc.witnesses) == [
        "continuous",
        "theta_weakly_discontinuous",
        "scatteredly_continuous",
        "weakly_discontinuous",
    ]
    for tier, a in mc.witness_masks[1:]:
        c = continuity_set_mask(f, a)
        if tier == "scatteredly_continuous":
            assert c == 0
        elif tier == "weakly_discontinuous":
            assert interior_mask(x, c, a) == 0
        else:
            assert next(theta_components(x, c, a), 0) == 0


# ---------------------------------------------------------------------------
# Single-tier decisions.
# ---------------------------------------------------------------------------

def test_reaches_matches_oracle_small():
    for x in spaces_up_to(2):
        for y in spaces_up_to(2):
            for img in product(range(len(y)), repeat=len(x)):
                f = FinMap(x, y, img)
                for t in TIERS:
                    assert reaches(f, t) == reaches_oracle(f, t), (f, t)
    assert maps._classify.cache_info().currsize == 0


def test_reaches_matches_classification_on_bijections():
    spaces3 = [space_from_rows(rows) for rows in labeled_rows(3)]
    cases = [
        FinMap(x, y, img)
        for x in spaces3
        for y in spaces3
        for img in permutations(range(3))
    ]
    got = [[reaches(f, t) for t in TIERS] for f in cases]
    assert maps._classify.cache_info().currsize == 0
    assert got == [[classify_map(f).reaches(t) for t in TIERS] for f in cases]


def test_theta_tier_is_continuity(monkeypatch):
    # On finite spaces the theta tier is continuity: the oracle never gives
    # a map the tier theta_weakly_discontinuous, and reaches decides that
    # tier with no restriction sweep.
    def refuse(*args):
        raise AssertionError("swept restrictions for the theta tier")

    monkeypatch.setattr(maps, "gfp", refuse)
    theta = "theta_weakly_discontinuous"
    small = spaces_up_to(2)
    pairs = [(x, y) for x in small for y in small]
    pairs += [(x, y) for x in spaces_up_to(3)[len(small):] for y in small[1:]]
    for x, y in pairs:
        for img in product(range(len(y)), repeat=len(x)):
            f = FinMap(x, y, img)
            continuous = reaches_oracle(f, "continuous")
            assert reaches_oracle(f, theta) == continuous, f
            assert reaches(f, theta) == continuous, f


def test_sweep_skips_the_walk_for_continuous_keys(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed a fixpoint for a continuous map")

    monkeypatch.setattr(maps, "gfp", refuse)
    for x in spaces_up_to(2):
        for y in spaces_up_to(2):
            for img in product(range(len(y)), repeat=len(x)):
                f = FinMap(x, y, img)
                if reaches_oracle(f, "continuous"):
                    assert maps._classify(x.nbhd, ok_masks(f)) == ("continuous", ())


def test_identity_on_the_cap_is_continuous(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed a fixpoint for a continuous map")

    monkeypatch.setattr(maps, "gfp", refuse)
    names = [str(i) for i in range(POINT_CAP)]
    chain = build_space(names, {a: names[: i + 1] for i, a in enumerate(names)})
    mc = classify_map(identity_map(chain))
    assert (mc.tier, mc.witness_masks) == ("continuous", ())
    assert mc.witnesses == {}


def test_reaches_never_writes_the_memo(monkeypatch):
    info = maps._classify.cache_info
    classify_map(identity_map(DISCRETE2))
    before = info()
    for t in TIERS:  # a miss: the key of D_TO_DISCRETE is not stored
        reaches(D_TO_DISCRETE, t)
        assert info() == before
    want = [classify_map(D_TO_DISCRETE).reaches(t) for t in TIERS]
    before = info()

    def refuse(*args):
        raise AssertionError("classified a key that the cache holds")

    monkeypatch.setattr(maps, "_classify", refuse)
    assert [reaches(D_TO_DISCRETE, t) for t in TIERS] == want
    # Neither read nor written: the hit count is unchanged too.
    assert info() == before


def test_reaches_skips_the_theta_walk_below_theta(monkeypatch):
    def refuse(*args):
        raise AssertionError("walked theta components for a lower tier")

    monkeypatch.setattr(maps, "theta_components", refuse)
    assert reaches(D_TO_DISCRETE, "weakly_discontinuous")
    assert reaches(D_TO_DISCRETE, "scatteredly_continuous")


def test_reaches_cap_matches_classify():
    # An indiscrete domain sent onto two discrete points: no restriction
    # with both images has a continuity point, so every rung fails.
    names = [str(i) for i in range(POINT_CAP)]
    blob = build_space(names, {a: names for a in names})
    f = build_map(blob, DISCRETE2, {a: "0" if a == "0" else "1" for a in names})
    assert [reaches(f, t) for t in TIERS] == [t == "none" for t in TIERS]
    assert classify_map(f).tier == "none"
    # A larger max_points cannot lift the cap that FinSpace keeps.
    names.append(str(POINT_CAP))
    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        build_space(names, {a: names for a in names}, max_points=POINT_CAP + 1)


# ---------------------------------------------------------------------------
# Named example and weak homeomorphisms.
# ---------------------------------------------------------------------------

def test_connected_doubleton_to_discrete_headline():
    mc = classify_map(D_TO_DISCRETE)
    assert mc.headline() == (
        "weakly_discontinuous (not θ-weakly discontinuous; witness A = {0,1})"
    )
    assert map_class_text(mc) == "\n".join(
        [
            "weakly_discontinuous (not θ-weakly discontinuous; witness A = {0,1})",
            "continuous: false [witness: discontinuous on {1}]",
            "theta_weakly_discontinuous: false [witness: A = {0,1}]",
            "weakly_discontinuous: true",
            "scatteredly_continuous: true",
        ]
    )


def test_weak_homeomorphism_flags():
    assert is_weak_homeomorphism(D_TO_DISCRETE)
    assert not is_weak_homeomorphism(D_TO_DISCRETE, theta=True)
    ident = identity_map(D_SPACE)
    assert is_weak_homeomorphism(ident, theta=True)
    squash = build_map(DISCRETE2, DISCRETE2, {"0": "0", "1": "0"})
    with pytest.raises(BijectivityError):
        is_weak_homeomorphism(squash)


def test_composition_tier_laws_exhaustive_size2():
    # weak o weak and theta o theta close; scattered o scattered does not.
    sizes2 = spaces_up_to(2)
    seen_scattered_break = False
    for x in sizes2:
        for y in sizes2:
            for z in sizes2:
                for fi in product(range(len(y)), repeat=len(x)):
                    f = FinMap(x, y, fi)
                    tf = tier_oracle(f)
                    for gi in product(range(len(z)), repeat=len(y)):
                        g = FinMap(y, z, gi)
                        tg = tier_oracle(g)
                        tc = tier_oracle(compose(g, f))
                        order = TIERS
                        if order.index(tf) <= 2 and order.index(tg) <= 2:
                            assert order.index(tc) <= 2
                        if order.index(tf) <= 1 and order.index(tg) <= 1:
                            assert order.index(tc) <= 1
                        if (
                            order.index(tf) <= 3
                            and order.index(tg) <= 3
                            and order.index(tc) > 3
                        ):
                            seen_scattered_break = True
    assert seen_scattered_break


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_map_json_round_trip():
    obj = map_to_obj(D_TO_DISCRETE)
    back = map_from_obj(json.loads(json.dumps(obj)))
    assert back.img == D_TO_DISCRETE.img
    assert back.domain == D_SPACE and back.codomain == DISCRETE2


def test_map_from_obj_with_paths(tmp_path):
    (tmp_path / "dom.json").write_text(
        json.dumps({"points": ["0", "1"], "min_nbhds": {"0": ["0"], "1": ["0", "1"]}})
    )
    (tmp_path / "cod.json").write_text(
        json.dumps({"points": ["0", "1"], "min_nbhds": {"0": ["0"], "1": ["1"]}})
    )
    obj = {"domain": "dom.json", "codomain": "cod.json", "map": {"0": "0", "1": "1"}}
    f = map_from_obj(obj, base_dir=tmp_path)
    assert f.domain == D_SPACE and f.codomain == DISCRETE2


def test_map_from_obj_errors():
    from thetatopo.space import SpaceFormatError, UnknownPoint

    with pytest.raises(SpaceFormatError):
        map_from_obj({"domain": space_to_obj_dict()})
    with pytest.raises(SpaceFormatError):
        map_from_obj({"domain": "missing.json", "codomain": "x.json", "map": {}})
    # An image that is a list or an object names no codomain point.
    for image in (["0"], {"0": "0"}):
        doc = {"domain": space_to_obj_dict(), "codomain": space_to_obj_dict(), "map": {"0": image}}
        with pytest.raises(UnknownPoint, match="unknown point"):
            map_from_obj(doc)


def space_to_obj_dict():
    return {"points": ["0"], "min_nbhds": {"0": ["0"]}}


def test_mapclass_to_obj_shape():
    obj = classify_map(D_TO_DISCRETE).to_obj()
    assert obj["tier"] == "weakly_discontinuous"
    assert obj["reaches"] == {
        "continuous": False,
        "theta_weakly_discontinuous": False,
        "weakly_discontinuous": True,
        "scatteredly_continuous": True,
    }
    assert obj["witnesses"]["theta_weakly_discontinuous"] == ["0", "1"]
