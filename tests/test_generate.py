import gc
import hashlib
import random
import subprocess
import sys
import tracemalloc
from itertools import islice, permutations
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_spaces,
    is_least_scan,
    open_family_rows,
    orbit_set_homeo_rows,
    permute_rows,
    prefix_least_scan,
    prefix_ties_scan,
)
from thetatopo import generate
from thetatopo.generate import (
    canonical_rows,
    canonicalize,
    count_spaces,
    enumerate_rows,
    enumerate_spaces,
    homeo_classes,
    homeo_rows,
    labeled_rows,
    random_rows,
    random_space,
    space_from_rows,
)
from thetatopo.space import CapExceeded, FinSpace, TopologyError
from thetatopo.survey import find_space

LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
HOMEO_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718}


# ---------------------------------------------------------------------------
# Counts.
# ---------------------------------------------------------------------------

def test_labeled_counts():
    for n, want in LABELED_COUNTS.items():
        assert sum(1 for _ in labeled_rows(n)) == want


def test_labeled_count_n6():
    assert count_spaces(6) == 209527


def test_homeo_counts():
    for n, want in HOMEO_COUNTS.items():
        assert sum(1 for _ in homeo_rows(n)) == want


def test_orbit_sizes_match_orbit_sets():
    for n in range(6):
        classes = list(homeo_classes(n))
        assert [rows for rows, _ in classes] == list(homeo_rows(n)), n
        for rows, size in classes:
            assert size == len(set(generate._orbit(rows))), rows


def test_labeled_count_is_the_labeled_stream_length():
    for n in range(7):
        assert count_spaces(n, "labeled") == sum(1 for _ in labeled_rows(n)), n


def test_labeled_matches_brute_filter():
    # The backtracking enumerator agrees element-for-element with filtering
    # all candidate row tuples against the two axioms; brute_spaces filters
    # in lexicographic order, so the streams agree as lists, order included.
    for n in (0, 1, 2, 3):
        assert list(labeled_rows(n)) == [tuple(sp.nbhd) for sp in brute_spaces(n)]


# ---------------------------------------------------------------------------
# Stream order: every consumer relies on the streams ascending.
# ---------------------------------------------------------------------------

def test_labeled_rows_strictly_ascending():
    for n in range(7):
        stream = list(labeled_rows(n))
        assert all(a < b for a, b in zip(stream, stream[1:])), n


def test_homeo_stream_is_sorted_orbit_minima():
    for n in range(6):
        perms = list(permutations(range(n)))
        minima = {min(permute_rows(rows, p) for p in perms) for rows in labeled_rows(n)}
        assert list(homeo_rows(n)) == sorted(minima), n


def test_homeo_rows_match_orbit_set_reference():
    for n in range(7):
        assert list(homeo_rows(n)) == list(orbit_set_homeo_rows(n)), n


def first_row_form(rows) -> bool:
    # Row 0 is 2^s - 1 and no row has fewer than s points.
    s = rows[0].bit_length()
    return rows[0] == (1 << s) - 1 and min(r.bit_count() for r in rows) >= s


def top_point(inv) -> int:
    # The highest point a permutation moves, 0 for the identity.
    return max((i for i, x in enumerate(inv) if x != i), default=0)


def table_perm(t, k: int) -> tuple[int, ...]:
    # The permutation of points 0..k-1 behind a relabeling table.
    return tuple(t[1 << i].bit_length() - 1 for i in range(k))


def prefix_tie_lists(n: int) -> Iterator[tuple[tuple[int, ...], list | None]]:
    # (prefix, what _is_least returns there) for every coherent prefix in
    # the first-row form on n points, ascending. As in the walk, each tie
    # list is computed from its parent's; a prefix below a refused one,
    # which the walk never reaches, gets None.
    levels = generate._first_row_groups(n)
    prefixes = {rows[: j + 1] for rows in labeled_rows(n) for j in range(n)}
    ties: dict[tuple[int, ...], list | None] = {(): []}
    for prefix in sorted(prefixes):  # each parent sorts before its children
        if first_row_form(prefix):
            got = ties[prefix[:-1]]
            if got is not None:
                got = generate._is_least(list(prefix), got, levels[len(prefix) - 1])
            ties[prefix] = got
            yield prefix, got


def test_grouped_leaf_test_matches_full_scan():
    # The leaf test, carried down the prefix chain from the root, gives on
    # every labeled row tuple in the first-row form what the scan over every
    # relabeling gives: a refusal for a non-least labeling and |Aut| ties
    # for a least one. Every tuple outside the form has a smaller
    # relabeling, so the walk may skip it without the test.
    for n in range(1, 6):
        leaves = {prefix: ties for prefix, ties in prefix_tie_lists(n) if len(prefix) == n}
        for rows in labeled_rows(n):
            if first_row_form(rows):
                ties = leaves[rows]
                assert (0 if ties is None else len(ties)) == is_least_scan(rows), rows
            else:
                assert is_least_scan(rows) == 0, rows


def test_prefix_test_matches_scan():
    # At every node, on each coherent prefix in the first-row form, the tie
    # list carried from the parent and the level's relabelings give what
    # the scan over every permutation of the decided points gives: a
    # refusal when one makes the prefix smaller, else as many ties as
    # relabelings that reproduce it.
    for n in range(1, 6):
        for prefix, ties in prefix_tie_lists(n):
            assert (0 if ties is None else len(ties)) == prefix_least_scan(prefix), (n, prefix)


def test_tie_lists_hold_exactly_the_reproducing_relabelings():
    # Each relabeling table sits at one level only, its top (the highest
    # point it moves), in that level's list once and in one sub-group per
    # first-row size |m| = 1..j; and on every coherent prefix in the
    # first-row form the tie list holds exactly the relabelings of the
    # decided points that reproduce it, each once.
    for n in range(1, 6):
        levels = generate._first_row_groups(n)
        placed: dict[int, int] = {}
        for j, (groups, tables) in enumerate(levels):
            for t in tables:
                assert id(t) not in placed and top_point(table_perm(t, n)) == j
                placed[id(t)] = j
            sizes: dict[int, list[int]] = {id(t): [] for t in tables}
            for (x0, m), subgroups in groups.items():
                k = m.bit_count()
                for y, subgroup in subgroups:
                    for t, inv in subgroup:
                        assert inv[0] == x0 and sum(1 << x for x in inv[:k]) == m and inv[k] == y
                        sizes[id(t)].append(k)
            assert all(sorted(ks) == list(range(1, j + 1)) for ks in sizes.values()), (n, j)
        assert sorted(placed) == sorted(id(t) for t, _ in generate._relabelings(n))
        for prefix, ties in prefix_tie_lists(n):
            want = prefix_ties_scan(prefix)
            if want is None or ties is None:
                assert want is ties, (n, prefix)
                continue
            k = len(prefix)
            assert all(top_point(table_perm(t, n)) < k for t in ties), (n, prefix)
            assert sorted(table_perm(t, k) for t in ties) == want, (n, prefix)


def test_row_s_bound_holds_for_every_table():
    # _is_least skips a sub-group (x0, N(x0), y) of its level when lo(y)
    # exceeds rows[s]. On every coherent prefix in the first-row form, lo(y)
    # as defined there is row s of some table of the full sub-group, every
    # table with top <= j, built here; it is at most row s of every table
    # of the level's sub-group; and some sub-groups are skipped.
    skipped = 0
    for n in range(1, 6):
        levels = generate._first_row_groups(n)
        relabelings = generate._relabelings(n)
        full = []  # per level j, (x0, m) -> y -> every table with top <= j
        for j in range(n):
            groups: dict[tuple[int, int], dict[int, list]] = {}
            for t, inv in relabelings:
                if top_point(inv) <= j:
                    for k in range(1, j + 1):
                        group = groups.setdefault((inv[0], sum(1 << x for x in inv[:k])), {})
                        group.setdefault(inv[k], []).append(t)
            full.append(groups)
        prefixes = {rows[: j + 1] for rows in labeled_rows(n) for j in range(n)}
        for prefix in sorted(prefixes):
            s = prefix[0].bit_length()
            last = len(prefix) - 1
            if not first_row_form(prefix) or last < s:
                continue
            decided = (2 << last) - 1
            for x0, r0 in enumerate(prefix):
                if r0.bit_count() != s:
                    continue
                index = dict(levels[last][0].get((x0, r0), ()))
                for y, tables in full[last].get((x0, r0), {}).items():
                    ny = prefix[y]
                    c = (ny & decided & ~r0).bit_count()
                    lo = ny & ~decided | ((1 << c) - 1) << s
                    if ny & r0:
                        lo |= (1 << s) - 1
                    assert lo == min(t[ny] for t in tables), (prefix, x0, y)
                    for t, inv in index.pop(y, ()):
                        assert inv[0] == x0 and inv[s] == y, (prefix, x0, y)
                        assert lo <= t[ny], (prefix, x0, y)
                    skipped += lo > prefix[s]
                assert not index, (prefix, x0)
    assert skipped


def test_homeo_classes_pinned():
    # Representatives and orbit sizes for n <= 6, byte for byte.
    h = hashlib.sha256()
    for n in range(7):
        h.update(repr(list(homeo_classes(n))).encode() + b"\n")
    assert h.hexdigest() == "7605ec27192e90b0784ee0900194da73bd58e9e7d6c8fb4b280913380c6624f9"


def test_homeo_classes_pinned_through_seven_points():
    # Representatives and orbit sizes for n <= 7: the sha256 of the
    # concatenated repr(list(homeo_classes(n))), n = 0..7.
    h = hashlib.sha256()
    for n in range(8):
        h.update(repr(list(homeo_classes(n))).encode())
    assert h.hexdigest() == "5f62d5e7c2b002e3e2ad974160edb1cd451646ac18807b374880eb24698576a2"


@pytest.mark.slow
def test_homeo_classes_eight_points():
    # The 35,979 classes on 8 points, whose orbit sizes sum to the number of
    # labeled topologies on 8 points (OEIS A000798). About 20 s and 110 MiB.
    classes = total = 0
    for _, size in homeo_classes(8):
        classes += 1
        total += size
    assert (classes, total) == (35979, 642779354)


def test_homeo_walk_holds_no_orbit_set():
    # The orderly walk holds the relabeling tables, their first-row index and
    # the current path; the orbit-set reference peaks at about 26 MiB here.
    generate._relabelings.cache_clear()
    generate._first_row_groups.cache_clear()
    tracemalloc.start()
    try:
        assert sum(1 for _ in homeo_rows(6)) == 718
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def test_walk_leaves_no_cyclic_garbage():
    # Each walk's state goes when the walk ends, also when its consumer
    # stops early, not at a later collection.
    gc.collect()
    gc.disable()
    try:
        assert sum(1 for _ in homeo_classes(5)) == HOMEO_COUNTS[5]
        assert sum(1 for _ in labeled_rows(4)) == LABELED_COUNTS[4]
        walk = homeo_rows(6)
        assert next(walk) == (1, 2, 4, 8, 16, 32)
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orbit_tables_match_permute_rows():
    for n in range(5):
        perms = list(permutations(range(n)))
        for rows in labeled_rows(n):
            assert list(generate._orbit(rows)) == [permute_rows(rows, p) for p in perms]


def test_no_relabeling_table_built_at_import():
    probe = (
        "import sys\n"
        "calls = []\n"
        "sys.setprofile(lambda f, e, a: e == 'call'"
        " and f.f_code.co_name in ('_relabelings', '_first_row_groups') and calls.append(1))\n"
        "import thetatopo.cli\n"
        "sys.setprofile(None)\n"
        "print(len(calls), 'multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    # Nor is the multiprocessing package loaded: every command runs in one process.
    assert out.stdout == "0 False\n"


def test_zero_points():
    assert list(labeled_rows(0)) == [()]
    assert list(homeo_rows(0)) == [()]


def test_caps(monkeypatch):
    with pytest.raises(CapExceeded):
        next(enumerate_spaces(7, "labeled"))
    # The refusal comes on the call itself, before any next().
    with pytest.raises(CapExceeded):
        enumerate_spaces(7, "labeled")
    with pytest.raises(CapExceeded):
        next(enumerate_spaces(8, "homeo"))
    with pytest.raises(CapExceeded):
        next(open_family_rows(5))

    # The canonical-form cap is checked before any relabeling table is built.
    def no_tables(n):
        raise AssertionError(f"relabeling tables built for {n} points")

    monkeypatch.setattr(generate, "_relabelings", no_tables)
    monkeypatch.setattr(generate, "_first_row_groups", no_tables)
    with pytest.raises(CapExceeded):
        canonical_rows(tuple(1 << i for i in range(8)))
    # So are the counting caps, on the call.
    with pytest.raises(CapExceeded):
        count_spaces(7, "labeled")
    with pytest.raises(CapExceeded):
        count_spaces(8, "homeo")


# ---------------------------------------------------------------------------
# Validity and canonicalization.
# ---------------------------------------------------------------------------

def test_enumerated_rows_are_valid_spaces():
    for n in range(1, 5):
        for rows in labeled_rows(n):
            sp = space_from_rows(rows)
            assert isinstance(sp, FinSpace)
            assert sp.names == tuple(map(str, range(n)))


def test_space_from_rows_up_to_the_point_cap():
    for n in range(17, 25):
        chain = tuple((2 << i) - 1 for i in range(n))  # N(i) = {0..i}
        for rows in (tuple(1 << i for i in range(n)), chain):
            sp = space_from_rows(rows)
            assert sp.names == tuple(map(str, range(n))) and sp.nbhd == rows
    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        space_from_rows(tuple(1 << i for i in range(25)))


def test_canonical_is_least_permutation():
    for n in range(5):
        for rows in labeled_rows(n):
            variants = {
                permute_rows(rows, perm) for perm in permutations(range(n))
            }
            assert canonical_rows(rows) == min(variants)


def test_permute_rows_relabels():
    rows = (0b001, 0b011, 0b111)  # chain 0 < 1 < 2
    swapped = permute_rows(rows, (2, 1, 0))
    assert swapped == (0b111, 0b110, 0b100)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.data())
def test_canonical_invariant_under_permutation(seed, n, data):
    rows = random_rows(n, random.Random(seed))
    perm = tuple(data.draw(st.permutations(range(n))))
    assert canonical_rows(permute_rows(rows, perm)) == canonical_rows(rows)


def test_canonicalize_space():
    sp = space_from_rows((0b11, 0b10))  # sierpinski written backwards
    assert canonicalize(sp).nbhd == (0b01, 0b11)


def test_homeo_classes_partition_labeled():
    for n in (1, 2, 3, 4):
        classes = list(homeo_rows(n))
        class_set = set(classes)
        assert len(classes) == len(class_set)
        # Every class is its own canonical form, and every labeled space
        # canonicalizes into exactly one class.
        assert all(canonical_rows(rows) == rows for rows in classes)
        seen = set()
        for rows in labeled_rows(n):
            seen.add(canonical_rows(rows))
        assert seen == class_set


def test_homeo_classes_pairwise_inequivalent():
    for n in (1, 2, 3, 4):
        classes = list(homeo_rows(n))
        for i, a in enumerate(classes):
            orbit = {permute_rows(a, p) for p in permutations(range(n))}
            for b in classes[i + 1 :]:
                assert b not in orbit


# ---------------------------------------------------------------------------
# Open-family cross-enumeration.
# ---------------------------------------------------------------------------

def test_open_families_biject_with_spaces():
    # Each space determines its open family and vice versa, so the counts
    # must agree level by level.
    for n in (1, 2, 3, 4):
        families = list(open_family_rows(n))
        assert len(families) == LABELED_COUNTS[n]
        assert sorted(families) == sorted(labeled_rows(n))


# ---------------------------------------------------------------------------
# Random generation.
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(0, 1))
def test_random_rows_axioms(seed, n, density):
    rows = random_rows(n, random.Random(seed), density)
    sp = space_from_rows(rows)
    assert len(sp) == n


def test_random_rows_deterministic():
    a = random_rows(6, random.Random(99))
    b = random_rows(6, random.Random(99))
    assert a == b
    sp = random_space(6, random.Random(99))
    assert tuple(sp.nbhd) == a


# ---------------------------------------------------------------------------
# Facade.
# ---------------------------------------------------------------------------

def test_enumerate_spaces_modes():
    labeled = list(enumerate_spaces(2, "labeled"))
    assert [tuple(sp.nbhd) for sp in labeled] == list(labeled_rows(2))
    homeo = list(enumerate_spaces(2, "homeo"))
    assert [tuple(sp.nbhd) for sp in homeo] == list(homeo_rows(2))
    with pytest.raises(ValueError):
        list(enumerate_spaces(2, "nonsense"))


def test_count_spaces_modes():
    assert count_spaces(4, "labeled") == 355
    assert count_spaces(4, "homeo") == 33


def test_point_counts_return_or_raise_topology_errors():
    # Each entry point that takes a point count, called with every n in
    # -3..30 and with huge ints, returns or raises a TopologyError and never
    # another exception. An n below its floor (0, or 1 for find_space's
    # n_max) is refused on the call, before a stream is read, and a stream
    # that the call returned reads without error. Streams are read for their
    # first items. The walks labeled_rows and homeo_classes check no cap, so
    # they are called only at sizes that stay fast; count_spaces, which
    # walks every class, is not called at 7 points.
    rng = random.Random(0)
    entry_points = [
        # (call, floor, whether n stays fast)
        (labeled_rows, 0, lambda n: n < 7),
        (homeo_classes, 0, lambda n: n < 8),
        (homeo_rows, 0, lambda n: n < 8),
        (lambda n: random_rows(n, rng), 0, None),
        (lambda n: random_space(n, rng), 0, None),
        (lambda n: find_space("regular", n), 1, None),
    ]
    for mode in ("labeled", "homeo"):
        entry_points += [
            (lambda n, mode=mode: enumerate_rows(n, mode), 0, None),
            (lambda n, mode=mode: enumerate_spaces(n, mode), 0, None),
            (lambda n, mode=mode: count_spaces(n, mode), 0, lambda n: n != 7),
        ]
    sizes = [*range(-3, 31), 2**64, -(2**64), 10**5000, -(10**5000)]
    for call, floor, fast in entry_points:
        for n in sizes:
            if fast is not None and n >= floor and not fast(n):
                continue
            try:
                result = call(n)
            except TopologyError:
                continue
            assert n >= floor, (call, n)
            if isinstance(result, Iterator):
                list(islice(result, 3))
    assert list(labeled_rows(0)) == [()] and count_spaces(0) == 1
    assert random_rows(0, rng) == () and len(random_space(0, rng)) == 0
