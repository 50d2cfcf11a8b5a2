import gc
import json
from itertools import permutations, product

import pytest

from oracles import (
    PROPERTY_ORACLES,
    brute_spaces,
    labeled_verify_diagram,
    reaches_oracle,
    tier_oracle,
    w_theta_regular_oracle,
)
from thetatopo import maps, regularity, survey
from thetatopo.generate import canonical_rows, homeo_rows, space_from_rows
from thetatopo.maps import FinMap
from thetatopo.regularity import (
    DECIDABLE_PROPERTIES,
    DECIDERS,
    REPORT_PROPERTIES,
    property_verdicts,
)
from thetatopo.space import CapExceeded, TopologyError, space_from_obj
from thetatopo.survey import (
    COMPOSITION_SIZE_CAP,
    DiagramReport,
    LAWS,
    SAMPLES_CAP,
    TRANSFER_CAP,
    ParseError,
    check_composition_laws,
    eval_predicate,
    find_space,
    parse_predicate,
    verify_diagram,
)

# ---------------------------------------------------------------------------
# Predicate grammar.
# ---------------------------------------------------------------------------

def test_parse_shapes():
    assert parse_predicate("regular") == ("prop", "regular")
    assert parse_predicate("!t1") == ("not", ("prop", "t1"))
    assert parse_predicate("scattered && !regular") == (
        "and",
        ("prop", "scattered"),
        ("not", ("prop", "regular")),
    )
    # ! binds tightest, && over ||, parens override.
    assert parse_predicate("!regular && scattered || t1") == (
        "or",
        ("and", ("not", ("prop", "regular")), ("prop", "scattered")),
        ("prop", "t1"),
    )
    assert parse_predicate("!(regular || t1)") == (
        "not",
        ("or", ("prop", "regular"), ("prop", "t1")),
    )
    assert parse_predicate("nowhere_regular") == ("prop", "nowhere_regular")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "regular extra",
        "regular &&",
        "(regular",
        "regular)",
        "bogus_property",
        "regular & t1",
        "regular @ t1",
        "&& regular",
        # Nested past PREDICATE_DEPTH_CAP.
        pytest.param("!" * 3000 + "regular", id="3000-nots"),
        pytest.param("(" * 2000 + "regular" + ")" * 2000, id="2000-parens"),
        pytest.param(" && ".join(["regular"] * 3000), id="3000-term-chain"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_predicate(text)


def test_parse_reports_the_missing_close_paren():
    with pytest.raises(ParseError, match="^expected '\\)', got 't1'$"):
        parse_predicate("(regular t1)")


def test_eval_predicate():
    v = {"regular": True, "t1": False, "scattered": True}
    assert eval_predicate(("prop", "regular"), v)
    assert not eval_predicate(("not", ("prop", "regular")), v)
    assert not eval_predicate(("and", ("prop", "regular"), ("prop", "t1")), v)
    assert eval_predicate(("or", ("prop", "t1"), ("prop", "scattered")), v)


# ---------------------------------------------------------------------------
# Search.
# ---------------------------------------------------------------------------

def test_find_space_answers():
    s = find_space("scattered && !regular")
    assert s.nbhd == (0b01, 0b11) and s.names == ("0", "1")
    assert PROPERTY_ORACLES["scattered"](s) and not PROPERTY_ORACLES["regular"](s)
    # Nothing earlier in the scan qualifies: the single point is regular and
    # the only preceding two-point class is discrete.
    assert PROPERTY_ORACLES["regular"](space_from_rows((0b1,)))
    assert PROPERTY_ORACLES["regular"](space_from_rows((0b01, 0b10)))

    t = find_space("!scattered")
    assert t.nbhd == (0b11, 0b11)
    assert not PROPERTY_ORACLES["scattered"](t)

    assert find_space("regular && !regular", n_max=3) is None

    # Sierpinski is regular at its closed point, so the least space that is
    # regular nowhere needs three points.
    nr = find_space(("prop", "nowhere_regular"))
    assert nr.nbhd == (0b001, 0b011, 0b101)
    assert PROPERTY_ORACLES["nowhere_regular"](nr)
    earlier = [rows for n in (1, 2) for rows in homeo_rows(n)]
    earlier += [rows for rows in homeo_rows(3) if rows < nr.nbhd]
    assert not any(
        PROPERTY_ORACLES["nowhere_regular"](space_from_rows(rows))
        for rows in earlier
    )


def test_lazy_search_matches_eager_scan():
    # find_space decides only what the predicate reads; it must answer what
    # a scan over every class's full verdicts answers, for p, !p and p && !q.
    spaces = [space_from_rows(rows) for n in range(1, 6) for rows in homeo_rows(n)]
    classes = [(sp, property_verdicts(sp)[0]) for sp in spaces]
    preds = [("prop", p) for p in REPORT_PROPERTIES]
    preds += [("not", ("prop", p)) for p in REPORT_PROPERTIES]
    preds += [
        ("and", ("prop", p), ("not", ("prop", q)))
        for p, q in product(REPORT_PROPERTIES, repeat=2)
    ]
    for pred in preds:
        eager = next((sp for sp, v in classes if eval_predicate(pred, v)), None)
        lazy = find_space(pred, 5)
        assert (lazy and lazy.nbhd) == (eager and eager.nbhd), pred


def test_parse_leaves_no_cyclic_garbage():
    # The parsers of one parse go when it ends, also when it raises, not at
    # a later collection.
    gc.collect()
    gc.disable()
    try:
        assert parse_predicate("scattered && !regular") == (
            "and", ("prop", "scattered"), ("not", ("prop", "regular"))
        )
        assert find_space("scattered && !regular").nbhd == (0b01, 0b11)
        with pytest.raises(ParseError):
            parse_predicate("(regular")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_find_space_cap():
    with pytest.raises(CapExceeded):
        find_space("regular", n_max=9)


# ---------------------------------------------------------------------------
# Diagram verification. The headline numbers are pinned, then re-derived
# from the definitional oracles and plain counting.
# ---------------------------------------------------------------------------

def oracle_verdicts(space):
    return {p: PROPERTY_ORACLES[p](space) for p in DECIDABLE_PROPERTIES}


def first_sw_witness(space, bound):
    nx = len(space)
    for n in range(1, bound + 1):
        for z in brute_spaces(n):
            for img in product(range(nx), repeat=n):
                f = FinMap(z, space, img)
                if tier_oracle(f) == "scatteredly_continuous":
                    return f
    return None


def test_diagram_small_counts():
    r = verify_diagram(2)
    assert r.counts == {1: 1, 2: 4}
    assert r.transfer_scanned == 1 * 1 * 1 + 4 * 4 * 2  # bijections by size
    assert r.transfer_qualifying == 13
    assert r.sw_spaces_checked == 3
    assert r.separation_count == 27
    assert len(r.collapsed_pairs) == 15
    assert r.ok and r.to_obj()["verdict"] == "PASS"


def test_diagram_text_golden():
    assert verify_diagram(3).to_text() == "\n".join(
        [
            "labeled spaces: 34 (n = 1..3)",
            "arrow violations: 0",
            "sw searches (bound 3): 8 spaces, witnesses: 0",
            "separations: 27 of 72 ordered pairs fail on some space",
            "collapsed pairs:",
            "  regular == locally_regular",
            "  regular == quasi_regular",
            "  regular == hereditarily_quasi_regular",
            "  regular == theta_weakly_regular",
            "  regular == w_theta_regular",
            "  locally_regular == quasi_regular",
            "  locally_regular == hereditarily_quasi_regular",
            "  locally_regular == theta_weakly_regular",
            "  locally_regular == w_theta_regular",
            "  quasi_regular == hereditarily_quasi_regular",
            "  quasi_regular == theta_weakly_regular",
            "  quasi_regular == w_theta_regular",
            "  hereditarily_quasi_regular == theta_weakly_regular",
            "  hereditarily_quasi_regular == w_theta_regular",
            "  theta_weakly_regular == w_theta_regular",
            "transfer (n <= 3): 5079 bijections, 583 qualifying",
            "w-theta transfer violations: 0",
            "sw transfer checks: 400, violations: 0",
            "verdict: PASS",
        ]
    )


def test_diagram_counts_rederived():
    r = verify_diagram(3)

    # Labeled space counts by brute filtering.
    assert r.counts == {n: sum(1 for _ in brute_spaces(n)) for n in (1, 2, 3)}

    spaces = [sp for n in (1, 2, 3) for sp in brute_spaces(n)]
    verdicts = {sp.nbhd: oracle_verdicts(sp) for sp in spaces}

    # Safe-premise spaces, straight from the oracles.
    safe = [
        sp
        for sp in spaces
        if any(
            verdicts[sp.nbhd][p]
            for p in ("regular", "theta_weakly_regular", "locally_regular")
        )
    ]
    assert r.sw_spaces_checked == len(safe) == 8
    assert not any(first_sw_witness(sp, 3) for sp in safe)

    # Separations and collapses over one representative per class suffice
    # because every property is isomorphism-invariant.
    reps = [
        space_from_rows(rows) for n in (1, 2, 3) for rows in homeo_rows(n)
    ]
    separated = set()
    for sp in reps:
        v = oracle_verdicts(sp)
        for p in DECIDABLE_PROPERTIES:
            for q in DECIDABLE_PROPERTIES:
                if p != q and v[p] and not v[q]:
                    separated.add((p, q))
    assert r.separation_count == len(separated) == 27
    collapsed = {
        (p, q)
        for i, p in enumerate(DECIDABLE_PROPERTIES)
        for q in DECIDABLE_PROPERTIES[i + 1 :]
        if (p, q) not in separated and (q, p) not in separated
    }
    assert set(r.collapsed_pairs) == collapsed and len(collapsed) == 15
    for p, q in [("regular", "weakly_regular"), ("scattered", "t1")]:
        assert (p, q) not in collapsed and (q, p) not in collapsed

    # Matrix counterexamples really are counterexamples.
    for key, entry in r.matrix.items():
        p, _, q = key.partition(" => ")
        assert entry["holds"] == ((p, q) not in separated)
        if not entry["holds"]:
            ce = space_from_obj(entry["counterexample"])
            assert PROPERTY_ORACLES[p](ce) and not PROPERTY_ORACLES[q](ce)

    # Transfer scan, re-derived map by map from the tier oracle.
    by_n = {n: list(brute_spaces(n)) for n in (1, 2, 3)}
    scanned = qualifying = sw_checks = 0
    witness_memo = {}
    for n, group in by_n.items():
        perms = list(permutations(range(n)))
        for x in group:
            for y in group:
                for perm in perms:
                    scanned += 1
                    h = FinMap(x, y, tuple(perm))
                    if not reaches_oracle(h, "theta_weakly_discontinuous"):
                        continue
                    if not reaches_oracle(h.inverse(), "weakly_discontinuous"):
                        continue
                    qualifying += 1
                    # Backwards transfer of w-theta regularity.
                    if w_theta_regular_oracle(y):
                        assert w_theta_regular_oracle(x)
                    if x.nbhd not in witness_memo:
                        witness_memo[x.nbhd] = first_sw_witness(x, 3)
                    f = witness_memo[x.nbhd]
                    if f is not None:
                        sw_checks += 1
                        hf = FinMap(f.domain, y, tuple(h.img[j] for j in f.img))
                        assert tier_oracle(hf) == "scatteredly_continuous"
    assert (scanned, qualifying, sw_checks) == (5079, 583, 400)
    assert (r.transfer_scanned, r.transfer_qualifying, r.sw_transfer_checked) == (
        5079,
        583,
        400,
    )
    assert r.wtheta_transfer_violations == [] and r.sw_transfer_violations == []


def test_classification_memo_is_invisible_in_diagram():
    # Cold and warm caches give the same bytes. The composition laws read
    # most classifications from the cache: the traffic that keeps it.
    info = maps._classify.cache_info
    cold = json.dumps(verify_diagram(4).to_obj())
    assert info().currsize
    assert json.dumps(verify_diagram(4).to_obj()) == cold
    maps._classify.cache_clear()
    cold = check_composition_laws((3, 3, 3), samples=2000, seed=0).to_text()
    assert info().hits > 0
    assert check_composition_laws((3, 3, 3), samples=2000, seed=0).to_text() == cold


def refuse_witnesses(monkeypatch):
    # No property_verdicts call, and no least closed failure found for the
    # (theta-)weak verdicts, which read only whether the fixpoint is empty.
    def refuse(*args, **kw):
        raise AssertionError("the diagram looked for a property witness")

    monkeypatch.setattr(regularity, "property_verdicts", refuse)
    monkeypatch.setattr(survey, "property_verdicts", refuse, raising=False)
    monkeypatch.setattr(regularity, "least_prefix", refuse)


def test_diagram_decides_each_class_once(monkeypatch):
    calls = []
    has_property = survey.has_property

    def counted(space, prop):
        calls.append((space.nbhd, prop))
        return has_property(space, prop)

    monkeypatch.setattr(survey, "has_property", counted)
    refuse_witnesses(monkeypatch)
    verify_diagram(4, transfer_max=3)
    # Each property the report reads, once per homeomorphism class, and
    # none in the transfer phase; nowhere_regular is never decided.
    assert len(calls) == (1 + 3 + 9 + 33) * len(DECIDABLE_PROPERTIES)
    assert calls == [
        (rows, p) for n in (1, 2, 3, 4) for rows in homeo_rows(n) for p in DECIDABLE_PROPERTIES
    ]


def test_diagram_relabels_no_unflagged_class_above_transfer_bound(monkeypatch):
    orbit = survey._orbit
    sizes = []

    def spy(rows):
        sizes.append(len(rows))
        return orbit(rows)

    monkeypatch.setattr(survey, "_orbit", spy)
    r = verify_diagram(5, 3, 3)
    assert r.ok and r.counts == {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
    # Classes up to the transfer bound list their members; above it the
    # orbit sizes come from the walk.
    assert sizes and max(sizes) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagram_matches_labeled_reference(n):
    expected = labeled_verify_diagram(n, transfer_max=3).to_obj()
    assert verify_diagram(n, transfer_max=3).to_obj() == expected


def test_diagram_violations_match_labeled_reference(monkeypatch):
    # Report the 3-point chain, a 6-labeling class, as regular and flip its
    # w-theta verdict: arrow, sw and w-theta transfer violations must list
    # the same labeled spaces and bijections, in the same order, as the
    # labeled scan's.
    chain = (1, 3, 7)
    regular, w_theta = DECIDERS["regular"], DECIDERS["w_theta_regular"]

    def fake_regular(space):
        return None if canonical_rows(space.nbhd) == chain else regular.find(space)

    def fake_w_theta(space):
        w = w_theta.find(space)
        if canonical_rows(space.nbhd) != chain:
            return w
        return (space.full_mask, space.full_mask) if w is None else None

    monkeypatch.setitem(DECIDERS, "regular", regular._replace(find=fake_regular))
    monkeypatch.setitem(DECIDERS, "w_theta_regular", w_theta._replace(find=fake_w_theta))
    got = verify_diagram(3).to_obj()
    assert got == labeled_verify_diagram(3).to_obj()
    assert got["verdict"] == "FAIL"
    assert [len(got[k]) for k in ("arrow_violations", "sw_violations")] == [6, 6]
    assert len(got["wtheta_transfer_violations"]) == 180


def test_diagram_sw_transfer_violations_match_labeled_reference(monkeypatch):
    # Promote scatteredly continuous maps out of 3-point domains whose ok
    # masks hold 4 bits in total to weakly discontinuous. The condition is
    # invariant under relabeling, so both paths see one consistent fake, and
    # composites h o f of 3-point witnesses f stop being sw-witnesses.
    classify = maps._classify

    def fake_classify(nbhd, ok):
        tier, masks = classify(nbhd, ok)
        if len(nbhd) == 3 and sum(bin(m).count("1") for m in ok) == 4:
            if tier == "scatteredly_continuous":
                tier = "weakly_discontinuous"
                masks = tuple((t, m) for t, m in masks if t != "weakly_discontinuous")
        return tier, masks

    # The fake wraps the cached classifier, so the cache holds true tiers.
    monkeypatch.setattr(maps, "_classify", fake_classify)
    # The transfer scan's single-tier decisions read the same fake.
    monkeypatch.setattr(survey, "reaches", lambda f, tier: maps.classify_map(f).reaches(tier))
    got = verify_diagram(3).to_obj()
    assert got == labeled_verify_diagram(3).to_obj()
    assert got["verdict"] == "FAIL"
    assert got["sw_transfer_checked"] == 508
    assert len(got["sw_transfer_violations"]) == 108


def test_diagram_sw_bound_checked_before_any_work(monkeypatch):
    def refuse(space, *args, **kw):
        raise AssertionError("decided a space before checking the caps")

    monkeypatch.setattr(survey, "has_property", refuse)
    refuse_witnesses(monkeypatch)
    with pytest.raises(CapExceeded, match="witness search capped at domain size 6"):
        verify_diagram(2, sw_bound=7)
    with pytest.raises(CapExceeded):
        verify_diagram(0, sw_bound=9)


def test_diagram_cap():
    with pytest.raises(CapExceeded, match="diagram verification capped at 7 points"):
        verify_diagram(8)
    with pytest.raises(CapExceeded, match="transfer scan capped at 4 points"):
        verify_diagram(5, transfer_max=TRANSFER_CAP + 1)


def test_diagram_report_failure_rendering():
    r = verify_diagram(2)
    r.arrow_violations.append({"space": {}, "arrows": ["fabricated"]})
    assert not r.ok
    assert r.to_obj()["verdict"] == "FAIL"
    assert r.to_text().endswith("verdict: FAIL")


# ---------------------------------------------------------------------------
# Composition laws.
# ---------------------------------------------------------------------------

def test_composition_text_golden():
    assert check_composition_laws((2, 2, 2)).to_text() == "\n".join(
        [
            "composition laws (exhaustive, sizes <= 2,2,2): 1269 triples",
            "weak after weak => weak: checked 1059, violations 0",
            "theta after theta => theta: checked 811, violations 0",
            "scattered after weak => scattered: checked 1131, violations 0",
            "theta after scattered => scattered: checked 983, violations 0",
            "scattered after scattered => scattered [not asserted]: "
            "checked 1199, violations 8",
            "verdict: PASS",
        ]
    )


def test_composition_rederived():
    report = check_composition_laws((2, 2, 2))
    sizes_sum = 1 * 1 * 1 * 1 * 1 + 1 * 1 * 4 * 1 * 2 + 1 * 4 * 1 * 2 * 1
    sizes_sum += 1 * 4 * 4 * 2 * 4 + 4 * 1 * 1 * 1 * 1 + 4 * 1 * 4 * 1 * 2
    sizes_sum += 4 * 4 * 1 * 4 * 1 + 4 * 4 * 4 * 4 * 4
    assert report.triples == sizes_sum == 1269

    spaces = [sp for n in (1, 2) for sp in brute_spaces(n)]
    tiers = {}

    def tier(m):
        key = (m.domain.nbhd, m.codomain.nbhd, m.img)
        if key not in tiers:
            tiers[key] = tier_oracle(m)
        return tiers[key]

    order = (
        "continuous",
        "theta_weakly_discontinuous",
        "weakly_discontinuous",
        "scatteredly_continuous",
        "none",
    )

    def reaches(t, want):
        return order.index(t) <= order.index(want)

    counts = {law[0]: [0, 0] for law in LAWS}
    bad_triples = []
    for y in spaces:
        fs = [
            FinMap(x, y, img)
            for x in spaces
            for img in product(range(len(y)), repeat=len(x))
        ]
        for z in spaces:
            for gimg in product(range(len(z)), repeat=len(y)):
                g = FinMap(y, z, gimg)
                tg = tier(g)
                for f in fs:
                    tf = tier(f)
                    c = FinMap(f.domain, z, tuple(gimg[j] for j in f.img))
                    tc = tier(c)
                    for name, f_tier, g_tier, out_tier, _ in LAWS:
                        if reaches(tf, f_tier) and reaches(tg, g_tier):
                            counts[name][0] += 1
                            if not reaches(tc, out_tier):
                                counts[name][1] += 1
                                bad_triples.append((f, g, tf, tg, tc))

    for lr in report.laws:
        assert [lr.checked, lr.violations] == counts[lr.name]
        if lr.asserted:
            assert lr.violations == 0 and lr.counterexample is None
        else:
            assert lr.violations == 8 and lr.counterexample is not None

    # Each break is a genuine scattered/scattered pair with a composite
    # that is not even scatteredly continuous.
    assert len(bad_triples) == 8
    for f, g, tf, tg, tc in bad_triples:
        assert reaches(tf, "scatteredly_continuous")
        assert reaches(tg, "scatteredly_continuous")
        assert tc == "none"


def test_composition_randomized_deterministic():
    a = check_composition_laws((3, 3, 3), samples=200, seed=7)
    b = check_composition_laws((3, 3, 3), samples=200, seed=7)
    assert a.to_obj() == b.to_obj()
    assert a.mode == "randomized" and a.triples == 200
    assert a.ok


def test_composition_cap():
    with pytest.raises(CapExceeded):
        check_composition_laws((COMPOSITION_SIZE_CAP + 1, 2, 2))


DISCRETE2 = space_from_rows((0b01, 0b10))


@pytest.mark.parametrize(
    "call, args, kwargs",
    [
        pytest.param(verify_diagram, (0,), {}, id="diagram-n_max-0"),
        pytest.param(verify_diagram, (3, 0, 3), {}, id="diagram-sw_bound-0"),
        pytest.param(verify_diagram, (3, 3, 0), {}, id="diagram-transfer_max-0"),
        pytest.param(verify_diagram, (-1, 3, 3), {}, id="diagram-n_max-negative"),
        pytest.param(check_composition_laws, ((3, 3, 3),), {"samples": 0}, id="laws-samples-0"),
        pytest.param(check_composition_laws, ((2, 2, 2),), {"samples": 0}, id="laws-exhaustive-samples-0"),
        pytest.param(check_composition_laws, ((0, 2, 2),), {}, id="laws-size-0"),
        pytest.param(check_composition_laws, ((3, 0, 3),), {"samples": 5}, id="laws-middle-size-0"),
        pytest.param(regularity.classify_report, (DISCRETE2,), {"sw_bound": 0}, id="report-sw_bound-0"),
        pytest.param(regularity.sw_witness_search, (DISCRETE2, 0), {}, id="sw-search-bound-0"),
    ],
)
def test_bounds_below_one_refused_before_any_work(monkeypatch, call, args, kwargs):
    # A bound below 1 would sweep nothing and pass vacuously (or, for a
    # middle size of 0, crash in the random draw), so it is refused first.
    def refuse(*a, **kw):
        raise AssertionError("work started before the bounds were checked")

    for module, name in (
        (survey, "has_property"),
        (survey, "homeo_classes"),
        (survey, "labeled_rows"),
        (survey, "random_space"),
        (survey, "classify_map"),
        (regularity, "property_verdicts"),
        (regularity, "_sw_shape_search"),
    ):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(TopologyError, match="must be at least 1") as info:
        call(*args, **kwargs)
    assert not isinstance(info.value, CapExceeded)


def test_huge_bounds_refused_without_formatting_them():
    # str() of an int over 4,300 digits raises, so no refusal message may
    # quote the bound; each end is refused with the library's own error.
    huge = 10**5000
    for call in (
        lambda b: regularity.check_sw_bound(b),
        lambda b: verify_diagram(2, sw_bound=b),
        lambda b: check_composition_laws((1, 1, 1), samples=b),
    ):
        with pytest.raises(TopologyError, match="must be at least 1") as info:
            call(-huge)
        assert not isinstance(info.value, CapExceeded)
        with pytest.raises(CapExceeded, match="capped at"):
            call(huge)
    with pytest.raises(TopologyError, match="must be at least 1"):
        check_composition_laws((-huge, 1, 1))
    with pytest.raises(CapExceeded, match="composition sizes capped at 8 points"):
        check_composition_laws((huge, 1, 1))


def test_composition_samples_cap():
    # The library refuses what `fn compositions --samples` refuses.
    with pytest.raises(CapExceeded, match="composition samples capped at 100000"):
        check_composition_laws((3, 3, 3), samples=SAMPLES_CAP + 1)


def test_report_objects():
    obj = check_composition_laws((2, 2, 2)).to_obj()
    assert obj["mode"] == "exhaustive" and obj["verdict"] == "PASS"
    assert [lr["name"] for lr in obj["laws"]] == [law[0] for law in LAWS]

    dobj = verify_diagram(2).to_obj()
    assert dobj["counts"] == {"1": 1, "2": 4}
    assert dobj["transfer_scanned"] == 33
    assert isinstance(DiagramReport.__dataclass_fields__, dict)
