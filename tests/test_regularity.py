import gc
import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import given

from conftest import spaces
from oracles import (
    PROPERTY_ORACLES,
    SUBSPACE_SCANS,
    all_opens,
    bits,
    labeled_sw_witness_search,
    nonempty_subsets,
    quasi_regular_oracle,
    quasi_regular_scan,
    regular_at_oracle,
    regular_oracle,
    submasks,
    sw_witness_exists_oracle,
    sw_witness_search_scan,
    t1_oracle,
    theta_open_oracle,
    theta_part_oracle,
    tier_oracle,
)
import thetatopo
from thetatopo.decomposition import open_decomposition, theta_decomposition
from thetatopo.generate import homeo_rows, labeled_rows, random_rows, space_from_rows
from thetatopo.maps import FinMap, classify_map
from thetatopo import maps, regularity
from thetatopo.regularity import (
    ARROWS,
    DECIDABLE_PROPERTIES,
    DECIDERS,
    REPORT_PROPERTIES,
    SW_SAFE_PREMISES,
    arrow_name,
    check_arrows,
    classify_report,
    has_property,
    hereditarily_quasi_regular_witness,
    is_locally_regular,
    is_nowhere_regular,
    is_regular,
    is_regular_at,
    is_scattered,
    open_kernel_mask,
    property_verdicts,
    quasi_regular_witness,
    scattered_residue_mask,
    sw_witness_search,
    t1_witness,
    theta_kernel_mask,
    theta_weakly_regular_witness,
    w_theta_regular_witness,
    weakly_regular_witness,
)
from thetatopo.space import CapExceeded, build_space, is_open_mask, topological_sum

SIERPINSKI = build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})


def all_labeled(n_max):
    for n in range(1, n_max + 1):
        for rows in labeled_rows(n):
            yield space_from_rows(rows)


# ---------------------------------------------------------------------------
# Verdicts against the definitional oracles.
# ---------------------------------------------------------------------------

def test_verdicts_match_oracles_exhaustively():
    for sp in all_labeled(4):
        verdicts, _ = property_verdicts(sp)
        for prop, fn in PROPERTY_ORACLES.items():
            assert verdicts[prop] == fn(sp), (sp.nbhd, prop)


@given(spaces(max_points=5))
def test_verdicts_match_oracles_random(sp):
    verdicts, _ = property_verdicts(sp)
    for prop, fn in PROPERTY_ORACLES.items():
        assert verdicts[prop] == fn(sp), prop


def test_deciders_pinned_on_six_point_classes():
    # property_verdicts (verdicts and witnesses, as JSON) and both kernel
    # decompositions on the 718 classes at n = 6, pinned byte for byte;
    # has_property, which finds no witness, gives the same verdicts.
    h = hashlib.sha256()
    for rows in homeo_rows(6):
        sp = space_from_rows(rows)
        verdicts, witnesses = property_verdicts(sp)
        assert {p: has_property(sp, p) for p in DECIDERS} == verdicts, rows
        h.update(json.dumps({"verdicts": verdicts, "witnesses": witnesses}).encode() + b"\n")
        h.update(theta_decomposition(sp).to_text().encode() + b"\n")
        h.update(open_decomposition(sp).to_text().encode() + b"\n")
    assert h.hexdigest() == "f002f7f8c55ee072e6b8e82a4a7cfe6303d1e0dab364515fa4510d30fb5489c3"


def test_deciders_pinned_on_labeled_spaces():
    # property_verdicts (verdicts and witnesses, as JSON) and both kernel
    # decompositions on all 7,331 labeled spaces with at most five points,
    # pinned byte for byte; has_property, which finds no witness, gives the
    # same verdicts.
    h = hashlib.sha256()
    for sp in all_labeled(5):
        verdicts, witnesses = property_verdicts(sp)
        assert {p: has_property(sp, p) for p in DECIDERS} == verdicts, sp.nbhd
        h.update(json.dumps({"verdicts": verdicts, "witnesses": witnesses}).encode() + b"\n")
        h.update(theta_decomposition(sp).to_text().encode() + b"\n")
        h.update(open_decomposition(sp).to_text().encode() + b"\n")
    assert h.hexdigest() == "b41a43960a72e92a15a6eefe3c6f740d92bbdcc116d363be68e90e1e19513296"


def test_subspace_deciders_match_scans_exhaustively():
    # Each fixpoint or initial-segment decider gives the least witness of
    # the walk over every subset, on every labeled space with n <= 5.
    for sp in all_labeled(5):
        for prop, scan in SUBSPACE_SCANS.items():
            assert DECIDERS[prop].find(sp) == scan(sp), (sp.nbhd, prop)


def test_hereditarily_quasi_regular_matches_scan_on_classes():
    # The segment walk's least witness is the subset scan's on every class
    # with n <= 6.
    scan = SUBSPACE_SCANS["hereditarily_quasi_regular"]
    for n in range(1, 7):
        for rows in homeo_rows(n):
            sp = space_from_rows(rows)
            assert DECIDERS["hereditarily_quasi_regular"].find(sp) == scan(sp), rows


def random_spaces():
    """150 seeded random spaces of 6-10 points, sparse to dense."""
    rng = random.Random(1717)
    for _ in range(150):
        n = rng.randint(6, 10)
        yield space_from_rows(random_rows(n, rng, rng.choice((0.05, 0.1, 0.2, 0.35))))


def test_subspace_deciders_match_scans_random():
    # On finite spaces weakly_regular always holds (a minimal open set of a
    # closed subspace is indiscrete), but each other property both holds and
    # fails among the random spaces.
    seen = set()
    for sp in random_spaces():
        for prop, scan in SUBSPACE_SCANS.items():
            w = scan(sp)
            assert DECIDERS[prop].find(sp) == w, (sp.nbhd, prop)
            seen.add((prop, w is None))
    both = {(prop, holds) for prop in SUBSPACE_SCANS for holds in (True, False)}
    assert seen == both - {("weakly_regular", False)}


def test_one_decider_per_property():
    # The table has one entry per reported property, in report order, and
    # every public predicate is_<property> of the package agrees with the
    # verdict it drives.
    assert tuple(DECIDERS) == REPORT_PROPERTIES
    for sp in all_labeled(4):
        verdicts, witnesses = property_verdicts(sp)
        for prop in REPORT_PROPERTIES:
            assert getattr(thetatopo, f"is_{prop}")(sp) == verdicts[prop], (sp.nbhd, prop)
        # T1 has one implementation: checked against the oracle, and its
        # witness is the least point with a non-singleton neighborhood.
        assert thetatopo.is_t1(sp) == t1_oracle(sp)
        bad = [x for x in range(len(sp)) if sp.nbhd[x] != 1 << x]
        assert t1_witness(sp) == (bad[0] if bad else None)
        if bad:
            assert witnesses["t1"] == {"point": sp.names[bad[0]]}


def test_regular_at_matches_oracle():
    for sp in all_labeled(3):
        for x, name in enumerate(sp.names):
            assert is_regular_at(sp, name) == regular_at_oracle(sp, x)


def test_report_properties_cover_decidable():
    assert REPORT_PROPERTIES == DECIDABLE_PROPERTIES + ("nowhere_regular",)
    assert set(SW_SAFE_PREMISES) <= set(DECIDABLE_PROPERTIES)


# ---------------------------------------------------------------------------
# Witness validity (checked against the oracles, not just non-None).
# ---------------------------------------------------------------------------

def test_false_witnesses_are_genuine():
    for sp in all_labeled(4):
        w = weakly_regular_witness(sp)
        if w is not None:
            assert not any(
                u and regular_oracle(sp, u) for u in all_opens(sp, w)
            )
        w = theta_weakly_regular_witness(sp)
        if w is not None:
            assert not any(
                u and theta_open_oracle(sp, u, w) and regular_oracle(sp, u)
                for u in submasks(w)
            )
        pair = w_theta_regular_witness(sp)
        if pair is not None:
            a, u = pair
            assert u and u & ~a == 0 and is_open_mask(sp, u, a)
            assert theta_part_oracle(sp, u, a) == 0
        h = hereditarily_quasi_regular_witness(sp)
        if h is not None:
            assert not quasi_regular_oracle(sp, h)


def test_theta_deciders_give_least_witnesses(memo_oracles):
    # On every space on 4 points, both theta deciders return the least
    # witness that the definitions give, in sorted-index-tuple order: the
    # least closed set with an empty theta kernel, and the least subspace
    # with a failing minimal piece, then that subspace's failing piece of
    # the least point.
    oracles = memo_oracles

    def key(m):
        return tuple(bits(m))

    for rows in labeled_rows(4):
        sp = space_from_rows(rows)
        full = sp.full_mask
        closed = sorted((full & ~v for v in oracles.all_opens(sp) if v != full), key=key)
        want = next(
            (
                a
                for a in closed
                if not any(
                    u and oracles.theta_open_oracle(sp, u, a) and oracles.regular_oracle(sp, u)
                    for u in submasks(a)
                )
            ),
            None,
        )
        assert theta_weakly_regular_witness(sp) == want, rows
        want = None
        for a in sorted(nonempty_subsets(full), key=key):
            pieces = (sp.nbhd[x] & a for x in bits(a))
            u = next((u for u in pieces if oracles.theta_part_oracle(sp, u, a) == 0), None)
            if u is not None:
                want = (a, u)
                break
        assert w_theta_regular_witness(sp) == want, rows


def test_scattered_residue():
    for sp in all_labeled(4):
        residue = scattered_residue_mask(sp)
        assert (residue == 0) == is_scattered(sp)
        # The residue is perfect: no relatively isolated points remain.
        for x in bits(residue):
            assert not any(u & residue == 1 << x for u in all_opens(sp))


def test_t1_violation_is_real():
    for sp in all_labeled(4):
        x = t1_witness(sp)
        if x is None:
            assert all(m == 1 << i for i, m in enumerate(sp.nbhd))
        else:
            assert sp.nbhd[x] != 1 << x


# ---------------------------------------------------------------------------
# Kernels.
# ---------------------------------------------------------------------------

def test_kernels_match_brute_unions(memo_oracles):
    for sp in all_labeled(4):
        full = sp.full_mask
        for a in nonempty_subsets(full):
            want_theta = 0
            want_open = 0
            for u in submasks(a):
                if not u:
                    continue
                if regular_oracle(sp, u):
                    if theta_open_oracle(sp, u, a):
                        want_theta |= u
                    if is_open_mask(sp, u, a):
                        want_open |= u
            assert theta_kernel_mask(sp, a) == want_theta
            assert open_kernel_mask(sp, a) == want_open


def unclosed_piece(sp, a):
    """The quasi-regularity witness of the subspace on a."""
    return regularity._unclosed_piece(sp, a, regularity._strict_tops(sp, a))


def test_quasi_regular_witness_on_every_subspace(memo_oracles):
    # Every subspace of every space on 4 points, the closed ones included:
    # the witness is the least minimal piece that contains the relative
    # closure of no non-empty relatively open set.
    oracles = memo_oracles
    for sp in all_labeled(4):
        for a in nonempty_subsets(sp.full_mask):
            opens = [v for v in oracles.all_opens(sp, a) if v]
            failing = [
                sp.nbhd[x] & a
                for x in bits(a)
                if not any(oracles.cl_oracle(sp, v, a) & ~sp.nbhd[x] == 0 for v in opens)
            ]
            assert unclosed_piece(sp, a) == (failing[0] if failing else None)
            assert (not failing) == oracles.quasi_regular_oracle(sp, a)


def test_quasi_regular_witness_matches_scan():
    # The up-row test against the closure of every piece: every subspace of
    # every labeled space with n <= 4, and every initial segment (the
    # subspaces the hereditarily_quasi_regular walk reads) of the random
    # spaces.
    for sp in all_labeled(4):
        assert quasi_regular_witness(sp) == quasi_regular_scan(sp, sp.full_mask), sp.nbhd
        for a in nonempty_subsets(sp.full_mask):
            assert unclosed_piece(sp, a) == quasi_regular_scan(sp, a), (sp.nbhd, a)
    for sp in random_spaces():
        for k in range(1, len(sp) + 1):
            a = (1 << k) - 1
            assert unclosed_piece(sp, a) == quasi_regular_scan(sp, a), (sp.nbhd, a)


# ---------------------------------------------------------------------------
# Regular spaces take the same path through the subspace deciders as any
# other space, so the arrows out of "regular" are tested on them.
# ---------------------------------------------------------------------------

def block_space(sizes):
    """The partition space whose minimal neighborhoods are consecutive
    blocks of points of the given sizes."""
    rows, start = [], 0
    for k in sizes:
        rows += [((1 << k) - 1) << start] * k
        start += k
    return space_from_rows(tuple(rows))


def test_regular_spaces_run_the_subspace_deciders(monkeypatch):
    # The weak and theta-weak deciders reach their greatest fixpoint, which
    # is empty, and the hereditarily_quasi_regular decider walks every
    # initial segment.
    spaces = [block_space(sizes) for sizes in ((1, 2, 3, 4), (10,), (1,) * 10)]
    assert all(is_regular(sp) for sp in spaces)
    spaces += [sp for sp in all_labeled(5) if is_regular(sp)]
    tops = []
    segments = []
    real_gfp = regularity.gfp
    real_piece = regularity._unclosed_piece

    def spy_gfp(prune, s):
        tops.append(s)
        return real_gfp(prune, s)

    def spy_piece(space, a, strict_tops):
        segments.append(a)
        return real_piece(space, a, strict_tops)

    monkeypatch.setattr(regularity, "gfp", spy_gfp)
    monkeypatch.setattr(regularity, "_unclosed_piece", spy_piece)
    for sp in spaces:
        for decider in (weakly_regular_witness, theta_weakly_regular_witness):
            tops.clear()
            assert decider(sp) is None, (sp.nbhd, decider.__name__)
            assert tops == [sp.full_mask], (sp.nbhd, decider.__name__)
        segments.clear()
        assert hereditarily_quasi_regular_witness(sp) is None, sp.nbhd
        assert segments == [(1 << k) - 1 for k in range(1, len(sp) + 1)], sp.nbhd


# ---------------------------------------------------------------------------
# Implication arrows.
# ---------------------------------------------------------------------------

EXPECTED_ARROWS = {
    (("regular",), "theta_weakly_regular"),
    (("regular",), "w_theta_regular"),
    (("theta_weakly_regular",), "weakly_regular"),
    (("theta_weakly_regular",), "w_theta_regular"),
    (("w_theta_regular",), "hereditarily_quasi_regular"),
    (("hereditarily_quasi_regular",), "quasi_regular"),
    (("locally_regular",), "weakly_regular"),
    (("scattered", "t1"), "theta_weakly_regular"),
}


def test_arrow_table_pinned():
    assert {(p, c) for p, c in ARROWS} == EXPECTED_ARROWS
    assert arrow_name(("scattered", "t1"), "theta_weakly_regular") == (
        "scattered && t1 => theta_weakly_regular"
    )


def test_arrows_hold_up_to_five_points():
    for n in range(1, 6):
        for rows in homeo_rows(n):
            verdicts, _ = property_verdicts(space_from_rows(rows))
            assert check_arrows(verdicts) == []


def test_check_arrows_flags_fabricated_violation():
    verdicts, _ = property_verdicts(SIERPINSKI)
    broken = dict(verdicts, regular=True)
    assert "regular => theta_weakly_regular" in check_arrows(broken)


# ---------------------------------------------------------------------------
# Bounded sw-witness search.
# ---------------------------------------------------------------------------

def test_sw_search_matches_brute_oracle():
    for sp in all_labeled(3):
        found = sw_witness_search(sp, 2) is not None
        assert found == sw_witness_exists_oracle(sp, 2), sp.nbhd


def test_sw_search_matches_labeled_reference():
    # Same witness (domain labeling and map) as the scan over every labeled
    # domain and every map, for every labeled X with at most four points,
    # and at bound 4 for every labeled X with at most three points.
    for n in range(1, 5):
        for rows in labeled_rows(n):
            x = space_from_rows(rows)
            assert sw_witness_search(x, 3) == labeled_sw_witness_search(x, 3), rows
            if n <= 3:
                assert sw_witness_search(x, 4) == labeled_sw_witness_search(x, 4), rows


def test_sw_search_matches_scan():
    # The depth-first walk over bad rows returns the scan's witness on every
    # class with n <= 5 at bound 3, each searched afresh, and on seeded
    # random spaces of 6-9 points, regular block spaces among them.
    for n in range(1, 6):
        for rows in homeo_rows(n):
            x = space_from_rows(rows)
            regularity._sw_shape_search.cache_clear()
            assert sw_witness_search(x, 3) == sw_witness_search_scan(x, 3), rows
    rng = random.Random(2201)
    spaces = [block_space(sizes) for sizes in ((1, 2, 3), (2, 2, 2, 2), (1,) * 9)]
    for _ in range(60):
        n = rng.randint(6, 9)
        spaces.append(space_from_rows(random_rows(n, rng, rng.choice((0.05, 0.1, 0.2, 0.35)))))
    for x in spaces:
        assert sw_witness_search(x, 3) == sw_witness_search_scan(x, 3), x.nbhd
    assert sum(sw_witness_search(x, 3) is None for x in spaces) >= 3


def test_sw_walk_matches_scan_per_domain():
    # Per domain, not only the first domain with a hit: the walk returns
    # the first witness in product order out of every domain with at most
    # four points into every class with at most four, or None.
    for nx in range(1, 5):
        for rows in homeo_rows(nx):
            x = space_from_rows(rows)
            # Read as a shape, the rows stand for maps into every point.
            shape = x.nbhd
            for n in range(1, 5):
                for z in regularity._sw_domains(n):
                    want = next(
                        (
                            img
                            for img in product(range(nx), repeat=n)
                            if regularity.is_sw_witness(classify_map(FinMap(z, x, img)))
                        ),
                        None,
                    )
                    assert regularity._sw_walk(z, shape) == want, (rows, z.nbhd)


def test_sw_walk_into_discrete_shapes_does_not_grow_with_them(monkeypatch):
    # Every position of a discrete shape is isolated, and a coordinate takes
    # at most one new isolated position, so out of z the walk tries the same
    # tuples, and runs the same fixpoints, into discrete(k) for each k >= |z|.
    # It still decides every map that matters: it runs the weak fixpoint
    # once per bad-row key of a scatteredly continuous map out of z, as a
    # walk over all k^|z| tuples would.
    calls = weak_calls = 0
    real_gfp, real_pruners = regularity.gfp, regularity._pruners
    weak = None

    def pruners(z, bad):
        nonlocal weak
        ops = real_pruners(z, bad)
        weak = ops["weakly_discontinuous"]
        return ops

    def counting(prune, s):
        nonlocal calls, weak_calls
        calls += 1
        weak_calls += prune is weak
        return real_gfp(prune, s)

    monkeypatch.setattr(regularity, "_pruners", pruners)
    monkeypatch.setattr(regularity, "gfp", counting)
    for n in range(1, 6):
        discrete = space_from_rows(tuple(1 << i for i in range(n)))
        for z in regularity._sw_domains(n):
            runs = set()
            for k in range(n, 8):
                calls = weak_calls = 0
                hit = regularity._sw_walk(z, tuple(1 << i for i in range(k)))
                runs.add((hit, calls, weak_calls))
            assert len(runs) == 1 and hit is None, (z.nbhd, runs)
            if n <= 4:
                keys = set()
                for img in product(range(n), repeat=n):
                    f = FinMap(z, discrete, img)
                    if classify_map(f).reaches("scatteredly_continuous"):
                        keys.add(tuple(m & ~o for m, o in zip(z.nbhd, maps.ok_masks(f))))
                assert weak_calls == len(keys), z.nbhd


def _relabeled(rows, perm):
    """The rows with point i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in bits(row))
    return tuple(out)


def test_sw_search_with_isolated_points_matches_scan():
    # Spaces that hold clopen singletons besides a part that is not
    # regular: the search at bound 4 returns the scan's witness, and out of
    # every domain with at most three points the walk returns the first
    # witness in product order, with the isolated positions on both sides
    # of the others.
    def discrete(k):
        return space_from_rows(tuple(1 << i for i in range(k)))

    spaces = [
        topological_sum([SIERPINSKI, discrete(3)]),
        topological_sum([discrete(2), SIERPINSKI, discrete(1)]),
    ]
    rng = random.Random(3201)
    while len(spaces) < 14:
        m = rng.randint(2, 4)
        rows = random_rows(m, rng, rng.choice((0.2, 0.35, 0.5)))
        j = rng.randint(2, 3)
        rows += tuple(1 << (m + i) for i in range(j))
        x = space_from_rows(_relabeled(rows, rng.sample(range(m + j), m + j)))
        if not is_regular(x):
            spaces.append(x)
    for x in spaces:
        regularity._sw_shape_search.cache_clear()
        assert sw_witness_search(x, 4) == sw_witness_search_scan(x, 4), x.nbhd
        cod = x.nbhd
        reps = [p for p, row in enumerate(cod) if row not in cod[:p]]
        shape = tuple(sum(1 << j for j, r in enumerate(reps) if cod[p] >> r & 1) for p in reps)
        for n in range(1, 4):
            for z in regularity._sw_domains(n):
                want = next(
                    (
                        pos
                        for pos in product(range(len(reps)), repeat=n)
                        if regularity.is_sw_witness(
                            classify_map(FinMap(z, x, tuple(reps[p] for p in pos)))
                        )
                    ),
                    None,
                )
                assert regularity._sw_walk(z, shape) == want, (x.nbhd, z.nbhd)


def test_sw_search_maps_each_space_into_its_own_reps():
    # The Sierpinski space and the two 3-point spaces that double its open
    # or its closed point share one shape. One walk answers all three, and
    # each gets the witness into its own reps: the second maps to point 2.
    spaces = [
        SIERPINSKI,
        space_from_rows((0b011, 0b011, 0b111)),
        space_from_rows((0b001, 0b111, 0b111)),
    ]
    search = regularity._sw_shape_search
    hits = [sw_witness_search(x, 3) for x in spaces]
    info = search.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    search((0b01, 0b11), 3)  # the one shape walked, so a hit
    assert search.cache_info().misses == 1
    assert [f.img for _, f in hits] == [(0, 1), (0, 2), (0, 1)]
    for x, (z, f) in zip(spaces, hits):
        assert z.nbhd == (0b11, 0b11) and f.codomain == x
        assert (z, f) == sw_witness_search_scan(x, 3)


def test_sw_walk_leaves_no_cyclic_garbage():
    # Each walk's state goes when it returns, not at a later collection.
    x = space_from_rows((0b001, 0b111, 0b111))
    domains = [z for n in range(1, 4) for z in regularity._sw_domains(n)]
    gc.collect()
    gc.disable()
    try:
        assert [regularity._sw_walk(z, x.nbhd) is not None for z in domains].count(True) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sw_search_builds_one_map_per_hit(monkeypatch):
    # No map is classified, and the only map built is the witness.
    built = []
    real_map = regularity.FinMap

    def counted(*args):
        built.append(args)
        return real_map(*args)

    def refuse(*args):
        raise AssertionError("the search classified a map")

    monkeypatch.setattr(regularity, "FinMap", counted)
    monkeypatch.setattr(maps, "classify_map", refuse)
    monkeypatch.setattr(maps, "_classify", refuse)
    for n in range(1, 5):
        for rows in homeo_rows(n):
            built.clear()
            hit = sw_witness_search(space_from_rows(rows), 3)
            assert len(built) == (hit is not None), rows


def test_sw_table_stays_within_its_cap():
    # The cache keeps the most recently used shapes; an evicted one is
    # walked again. A T0 space is its own shape, so each is a new key.
    info = regularity._sw_shape_search.cache_info
    cap = info().maxsize
    t0 = (rows for rows in labeled_rows(5) if len(set(rows)) == 5)
    xs = [space_from_rows(next(t0)) for _ in range(cap + 1)]
    first = sw_witness_search(xs[0], 2)
    assert first == sw_witness_search_scan(xs[0], 2)
    for x in xs[1:]:
        sw_witness_search(x, 2)
        assert info().currsize <= cap
    assert (info().misses, info().currsize) == (cap + 1, cap)
    assert sw_witness_search(xs[0], 2) == first
    assert info().misses == cap + 2


def test_sw_witness_is_genuine():
    for sp in all_labeled(3):
        hit = sw_witness_search(sp, 2)
        if hit is None:
            continue
        z, f = hit
        assert f.domain == z and f.codomain == sp
        assert tier_oracle(f) == "scatteredly_continuous"


def test_sw_search_on_sierpinski():
    z, f = sw_witness_search(SIERPINSKI, 2)
    assert z.nbhd == (0b11, 0b11)  # the indiscrete doubleton
    assert f.img == (0, 1)
    mc = classify_map(f)
    assert mc.reaches("scatteredly_continuous")
    assert not mc.reaches("weakly_discontinuous")


def test_safe_premises_never_produce_witnesses():
    for sp in all_labeled(3):
        verdicts, _ = property_verdicts(sp)
        if any(verdicts[p] for p in SW_SAFE_PREMISES):
            assert sw_witness_search(sp, 3) is None


def test_sw_bound_cap():
    with pytest.raises(CapExceeded):
        sw_witness_search(SIERPINSKI, 7)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------

def test_sierpinski_report_text():
    report = classify_report(SIERPINSKI, sw_bound=3)
    assert report.to_text() == "\n".join(
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
    )


def test_regular_space_report_shortcuts_sw():
    discrete = build_space(["x", "y"], {"x": ["x"], "y": ["y"]})
    report = classify_report(discrete, sw_bound=3)
    assert report.verdicts["regular"]
    assert report.sw["verdict"] == "implied_true"
    assert "sw_regular: implied_true (regular)" in report.to_text()


def test_unsafe_but_unwitnessed_reports_bound():
    # Weakly regular but neither regular, theta-weakly nor locally regular,
    # so the search runs; no witness exists at bound 1 for this space.
    report = classify_report(SIERPINSKI, sw_bound=1)
    assert report.sw["verdict"] == "none_up_to_bound"
    assert report.sw["bound"] == 1


def test_property_cap():
    # The cap lives in FinSpace, so a sum cannot build a 25-point space.
    def discrete(n):
        names = [str(i) for i in range(n)]
        return build_space(names, {a: [a] for a in names})

    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        topological_sum([discrete(13), discrete(12)])
    # Twelve Sierpinski spaces, 24 points, have the verdicts of one.
    verdicts, witnesses = property_verdicts(topological_sum([SIERPINSKI] * 12))
    assert verdicts == property_verdicts(SIERPINSKI)[0]
    assert witnesses["regular"] == {"point": "0.a"}


def test_report_to_obj_shape():
    obj = classify_report(SIERPINSKI, sw_bound=2).to_obj()
    assert obj["points"] == ["a", "b"]
    assert obj["verdicts"]["scattered"] is True
    assert obj["verdicts"]["w_theta_regular"] is False
    assert obj["sw_regular"]["verdict"] == "witnessed_false"
