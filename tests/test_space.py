import json
import operator
import pickle
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import spaces
from oracles import (
    all_opens,
    cl_oracle,
    int_oracle,
    lex_less,
    submasks,
    subsets_lex,
    t1_oracle,
    theta_open_oracle,
    theta_part_oracle,
    theta_step_oracle,
)
from thetatopo.bitset import bits
from thetatopo.generate import labeled_rows, space_from_rows
from thetatopo.maps import FinMap, build_map
from thetatopo.regularity import is_t1
from thetatopo.space import (
    CapExceeded,
    CoherenceViolation,
    DuplicatePoint,
    FinSpace,
    ForeignSet,
    InvalidOpenFamily,
    MissingSelf,
    PointSet,
    SpaceFormatError,
    UnknownPoint,
    build_space,
    closure,
    closure_mask,
    format_mask,
    format_names,
    format_space,
    interior,
    interior_mask,
    is_closed,
    is_open,
    is_open_mask,
    is_theta_open,
    is_theta_open_mask,
    row_formatter,
    space_from_json,
    space_from_obj,
    space_to_json,
    space_to_obj,
    subspace,
    subspace_on_mask,
    theta_interior,
    theta_interior_mask,
    theta_open_part,
    theta_open_part_mask,
    topological_sum,
)

SIERPINSKI = build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})


def all_labeled(n_max):
    for n in range(1, n_max + 1):
        for rows in labeled_rows(n):
            yield space_from_rows(rows)


# ---------------------------------------------------------------------------
# Construction and validation.
# ---------------------------------------------------------------------------

def test_build_space_basic():
    sp = SIERPINSKI
    assert sp.names == ("a", "b")
    assert sp.nbhd == (0b01, 0b11)
    assert len(sp) == 2
    assert sp.full_mask == 0b11
    assert sp.index("b") == 1
    assert sp.mask_of(["b", "a"]) == 0b11
    assert sp.names_of(0b10) == ("b",)


def test_missing_self_rejected():
    with pytest.raises(MissingSelf):
        build_space(["a", "b"], {"a": ["b"], "b": ["b"]})


def test_coherence_rejected():
    # b sits in N(a) but N(b) sticks out of N(a).
    with pytest.raises(CoherenceViolation):
        FinSpace(("a", "b", "c"), (0b011, 0b110, 0b100))


def test_unknown_and_duplicate_points():
    with pytest.raises(UnknownPoint):
        build_space(["a"], {"a": ["a", "z"]})
    with pytest.raises(DuplicatePoint):
        build_space(["a", "a"], {"a": ["a"]})
    with pytest.raises(UnknownPoint):
        SIERPINSKI.index("q")


def test_point_cap():
    names = [str(i) for i in range(5)]
    with pytest.raises(CapExceeded):
        build_space(names, {a: [a] for a in names}, max_points=4)


def test_foreign_mask_rejected():
    with pytest.raises(ForeignSet):
        SIERPINSKI.set_of(0b100)


def test_finspace_rejects_malformed_rows():
    with pytest.raises(SpaceFormatError, match="^one neighborhood mask per point required$"):
        FinSpace(("a", "b"), (0b01,))
    with pytest.raises(SpaceFormatError, match="uses bits beyond the 2 declared points"):
        FinSpace(("a", "b"), (0b101, 0b10))
    # More masks than the point cap: refused by the cap, names or not.
    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        FinSpace(tuple(map(str, range(24))), tuple(1 << i for i in range(25)))


def test_empty_and_all():
    for sp in [FinSpace((), ())] + list(all_labeled(3)):
        assert sp.empty == PointSet(sp, 0) and not sp.empty
        assert sp.all == PointSet(sp, sp.full_mask) and tuple(sp.all) == sp.names


def test_immutability_equality_pickle():
    sp = SIERPINSKI
    with pytest.raises(AttributeError):
        sp.names = ("x",)
    assert sp == build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})
    assert sp != build_space(["a", "b"], {"a": ["a", "b"], "b": ["a", "b"]})
    assert pickle.loads(pickle.dumps(sp)) == sp


def _sierpinski():
    return FinSpace(("a", "b"), (0b01, 0b11))


def _indiscrete():
    return FinSpace(("a", "b"), (0b11, 0b11))


D_NAMES = ("0", "1")

# (type, fresh fields in declaration order, another value for each field,
# the same value from the public builder). The map is D onto the discrete
# doubleton.
VALUE_TYPES = [
    (
        FinSpace,
        lambda: {"names": ("a", "b"), "nbhd": (0b01, 0b11)},
        {"names": ("b", "a"), "nbhd": (0b11, 0b11)},
        lambda: build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]}),
    ),
    (
        FinMap,
        lambda: {
            "domain": FinSpace(D_NAMES, (0b01, 0b11)),
            "codomain": FinSpace(D_NAMES, (0b01, 0b10)),
            "img": (0, 1),
        },
        {"domain": _indiscrete(), "codomain": _sierpinski(), "img": (1, 0)},
        lambda: build_map(
            build_space(D_NAMES, {"0": ["0"], "1": ["0", "1"]}),
            build_space(D_NAMES, {"0": ["0"], "1": ["1"]}),
            {"0": "0", "1": "1"},
        ),
    ),
    (
        PointSet,
        lambda: {"space": _sierpinski(), "mask": 0b01},
        {"space": _indiscrete(), "mask": 0b10},
        lambda: SIERPINSKI.set_of(0b01),
    ),
]


@pytest.mark.parametrize(
    "cls, build, other, public", VALUE_TYPES, ids=[v[0].__name__ for v in VALUE_TYPES]
)
def test_value_semantics(cls, build, other, public):
    value = cls(**build())
    key = tuple(build().values())
    # The hash is that of the field tuple, which fixes set and dict order.
    assert value == cls(**build()) and hash(value) == hash(cls(**build())) == hash(key)
    assert value == public() and hash(value) == hash(public())
    assert value != key
    for name, alt in other.items():
        assert value != cls(**{**build(), name: alt})
    for f in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, None)
    back = pickle.loads(pickle.dumps(public()))
    assert back == value and hash(back) == hash(value)


def test_up_rows_read_only_and_ignored_by_equality():
    sp = build_space(["a", "b", "c"], {"a": ["a"], "b": ["a", "b"], "c": ["c"]})
    fresh = build_space(["a", "b", "c"], {"a": ["a"], "b": ["a", "b"], "c": ["c"]})
    assert sp.up == (0b011, 0b010, 0b100)
    assert FinSpace.up.__get__(sp, FinSpace) is sp.up
    # The table is invisible to ==, hash and pickling.
    assert sp == fresh and hash(sp) == hash(fresh)
    back = pickle.loads(pickle.dumps(sp))
    assert back == fresh and hash(back) == hash(fresh)
    assert back.up == sp.up
    with pytest.raises(AttributeError):
        sp.up = (0, 0, 0)
    with pytest.raises(AttributeError):
        sp.nbhd = (1, 2, 4)
    with pytest.raises(AttributeError):
        getattr(sp, "missing")
    assert sp.up == (0b011, 0b010, 0b100)


def test_up_rows_match_definition():
    for sp in all_labeled(4):
        for y in range(len(sp)):
            assert sp.up[y] == sum(1 << x for x in range(len(sp)) if sp.nbhd[x] >> y & 1)
            assert sp.up[y] == cl_oracle(sp, 1 << y)


def test_lex_less_is_the_sorted_tuple_order():
    # Every pair of masks below 2^7.
    keys = [tuple(bits(m)) for m in range(1 << 7)]
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            assert lex_less(a, b) == (ka < kb), (a, b)


def test_submasks_ascending():
    # subsets_lex yields every non-empty submask once, ascending under lex_less.
    for mask in range(1 << 8):
        seq = list(subsets_lex(mask))
        assert sorted(seq) == [s for s in range(1, mask + 1) if s & ~mask == 0]
        assert all(lex_less(u, v) for u, v in zip(seq, seq[1:])), mask


# ---------------------------------------------------------------------------
# Set operators against the definitional oracles.
# ---------------------------------------------------------------------------

def test_operators_match_oracles_exhaustively():
    # Every space on up to 3 points, every subset, every ambient subspace.
    for sp in all_labeled(3):
        full = sp.full_mask
        for a in range(1, full + 1):
            for s in range(full + 1):
                assert closure_mask(sp, s, a) == cl_oracle(sp, s, a)
                assert interior_mask(sp, s, a) == int_oracle(sp, s, a)
                assert theta_open_part_mask(sp, s, a) == theta_part_oracle(sp, s, a)
                assert theta_interior_mask(sp, s, a) == theta_step_oracle(sp, s, a)


def test_operators_match_oracles_n4(memo_oracles):
    # Every space on 4 points, every subset, every ambient subspace.
    oracles = memo_oracles
    for sp in all_labeled(4):
        full = sp.full_mask
        for a in range(1, full + 1):
            for s in range(full + 1):
                assert closure_mask(sp, s, a) == oracles.cl_oracle(sp, s, a)
                assert interior_mask(sp, s, a) == oracles.int_oracle(sp, s, a)
                assert theta_interior_mask(sp, s, a) == oracles.theta_step_oracle(sp, s, a)
                assert theta_open_part_mask(sp, s, a) == oracles.theta_part_oracle(sp, s, a)


def test_open_family_matches_oracle():
    for sp in all_labeled(4):
        full = sp.full_mask
        for a in range(1, full + 1):
            opens = tuple(u for u in range(full + 1) if is_open_mask(sp, u, a))
            assert opens == all_opens(sp, a)


@given(spaces(max_points=6), st.data())
def test_operators_match_oracles_random(sp, data):
    full = sp.full_mask
    s = data.draw(st.integers(0, full))
    a = data.draw(st.integers(1, full))
    assert closure_mask(sp, s, a) == cl_oracle(sp, s, a)
    assert interior_mask(sp, s, a) == int_oracle(sp, s, a)
    assert theta_open_part_mask(sp, s, a) == theta_part_oracle(sp, s, a)
    assert theta_interior_mask(sp, s, a) == theta_step_oracle(sp, s, a)


@given(spaces(max_points=6), st.data())
def test_closure_interior_laws(sp, data):
    full = sp.full_mask
    s = data.draw(st.integers(0, full))
    t = data.draw(st.integers(0, full))
    a = data.draw(st.integers(1, full))
    cl = closure_mask(sp, s, a)
    assert cl & ~a == 0 and (s & a) & ~cl == 0
    assert closure_mask(sp, cl, a) == cl
    if s & ~t == 0:
        assert cl & ~closure_mask(sp, t, a) == 0
    # Duality inside the subspace.
    assert interior_mask(sp, s, a) == a & ~closure_mask(sp, a & ~s, a)


@given(spaces(max_points=6), st.data())
def test_theta_chain(sp, data):
    full = sp.full_mask
    s = data.draw(st.integers(0, full))
    a = data.draw(st.integers(1, full))
    part = theta_open_part_mask(sp, s, a)
    step = theta_interior_mask(sp, s, a)
    inside = interior_mask(sp, s, a)
    # theta-open part <= one-step refinement <= relative interior <= s.
    assert part & ~step == 0
    assert step & ~inside == 0
    assert inside & ~(s & a) == 0
    assert is_theta_open_mask(sp, part, a)
    # The part is the largest theta-open subset.
    for u in submasks(s & a):
        if u and is_theta_open_mask(sp, u, a):
            assert u & ~part == 0


@given(spaces(max_points=6))
def test_theta_open_implies_open(sp):
    full = sp.full_mask
    for u in range(full + 1):
        if is_theta_open_mask(sp, u):
            assert is_open_mask(sp, u)


def test_is_theta_open_mask_exhaustively(memo_oracles):
    # Every space on up to 4 points and every pair (s, w): a set that leaves
    # w is neither open nor theta-open in w, and inside w the answer is the
    # definition's.
    assert not is_theta_open_mask(build_space(["a", "b"], {"a": ["a"], "b": ["b"]}), 0b11, 0b01)
    for sp in all_labeled(4):
        full = sp.full_mask
        for w in range(full + 1):
            for s in range(full + 1):
                got = is_theta_open_mask(sp, s, w)
                if got:
                    assert is_open_mask(sp, s, w), (sp.nbhd, s, w)
                if s & ~w == 0:
                    assert got == memo_oracles.theta_open_oracle(sp, s, w), (sp.nbhd, s, w)


def test_theta_interior_iterates_to_part():
    for sp in all_labeled(4):
        for s in range(sp.full_mask + 1):
            cur = s
            while True:
                nxt = theta_interior_mask(sp, cur)
                if nxt == cur:
                    break
                cur = nxt
            assert cur == theta_open_part_mask(sp, s)


# ---------------------------------------------------------------------------
# Subspaces and sums.
# ---------------------------------------------------------------------------

def test_point_set_operations_match_mask_functions():
    # The checked PointSet face of the mask functions: equal to them on
    # every subset of every labeled space with at most 3 points, and
    # refusing a set of another space.
    for sp in all_labeled(3):
        for m in range(sp.full_mask + 1):
            s = sp.set_of(m)
            assert closure(sp, s) == PointSet(sp, closure_mask(sp, m))
            assert interior(sp, s) == PointSet(sp, interior_mask(sp, m))
            assert theta_interior(sp, s) == PointSet(sp, theta_interior_mask(sp, m))
            assert theta_open_part(sp, s) == PointSet(sp, theta_open_part_mask(sp, m))
            assert is_open(sp, s) == is_open_mask(sp, m)
            assert is_closed(sp, s) == (closure_mask(sp, m) == m)
            assert is_theta_open(sp, s) == is_theta_open_mask(sp, m)
    other = FinSpace(("x",), (1,))
    for op in (closure, interior, theta_interior, theta_open_part, is_open, is_closed, is_theta_open):
        with pytest.raises(ForeignSet):
            op(SIERPINSKI, other.all)


def test_point_set_algebra_matches_masks():
    for sp in all_labeled(3):
        full = sp.full_mask
        for a, b in product(range(full + 1), repeat=2):
            s, t = sp.set_of(a), sp.set_of(b)
            assert (s | t) == PointSet(sp, a | b)
            assert (s & t) == PointSet(sp, a & b)
            assert (s - t) == PointSet(sp, a & ~b)
            assert (s <= t) == (a & ~b == 0)
            assert (s >= t) == (b & ~a == 0)
        for a in range(full + 1):
            s = sp.set_of(a)
            assert [name in s for name in sp.names] == [bool(a >> i & 1) for i in range(len(sp))]
            assert tuple(s) == sp.names_of(a)
            assert len(s) == a.bit_count()
            assert bool(s) == (a != 0)
            assert s.complement() == PointSet(sp, full & ~a)
            assert repr(s) == format_names(sp.names_of(a))
    s, foreign = SIERPINSKI.all, FinSpace(("x",), (1,)).all
    for op in (operator.or_, operator.and_, operator.sub, operator.le, operator.ge):
        with pytest.raises(ForeignSet):
            op(s, foreign)
        with pytest.raises(TypeError):
            op(s, 0b11)
    with pytest.raises(UnknownPoint):
        "q" in s


def test_subspace_traces():
    for sp in all_labeled(3):
        full = sp.full_mask
        for a in range(1, full + 1):
            sub = subspace_on_mask(sp, a)
            traces = sorted(set(all_opens(sp, a)))
            packed = all_opens(sub)
            # Rewrite subspace masks into parent masks for comparison.
            idx = [i for i in range(len(sp)) if a >> i & 1]
            lifted = sorted(
                sum(1 << idx[j] for j in range(len(idx)) if m >> j & 1)
                for m in packed
            )
            assert lifted == traces


def test_subspace_by_pointset():
    sub = subspace(SIERPINSKI, SIERPINSKI.subset(["b"]))
    assert sub.names == ("b",)
    assert sub.nbhd == (1,)


def test_topological_sum_structure():
    total = topological_sum([SIERPINSKI, SIERPINSKI])
    assert total.names == ("0.a", "0.b", "1.a", "1.b")
    assert total.nbhd == (0b0001, 0b0011, 0b0100, 0b1100)
    assert is_open_mask(total, 0b0011) and is_open_mask(total, 0b1100)
    with pytest.raises(CapExceeded):
        topological_sum([SIERPINSKI] * 13)


def test_is_t1_matches_oracle():
    for sp in all_labeled(4):
        assert is_t1(sp) == t1_oracle(sp)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_json_round_trip_exhaustive():
    for sp in all_labeled(3):
        assert space_from_obj(space_to_obj(sp)) == sp
        assert space_from_json(space_to_json(sp)) == sp


@given(spaces(max_points=6))
def test_json_round_trip_random(sp):
    assert space_from_json(space_to_json(sp)) == sp


def test_opens_form_parses():
    got = space_from_obj(
        {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]}
    )
    assert got == SIERPINSKI


def test_opens_form_rejects_non_topology():
    bad = {"points": ["a", "b", "c"], "opens": [[], ["a"], ["b"], ["a", "b", "c"]]}
    with pytest.raises(InvalidOpenFamily):
        space_from_obj(bad)
    missing_whole = {"points": ["a", "b"], "opens": [[], ["a"]]}
    with pytest.raises(InvalidOpenFamily):
        space_from_obj(missing_whole)


def test_opens_form_cap_and_intersection():
    names = [str(i) for i in range(5)]
    with pytest.raises(CapExceeded, match="^5 points exceeds the cap of 4$"):
        space_from_obj({"points": names, "opens": [[], names]}, max_points=4)
    # Closed under union, but {a,b} & {b,c} = {b} is not listed.
    family = {"points": ["a", "b", "c"], "opens": [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]}
    with pytest.raises(InvalidOpenFamily, match="not closed under intersection"):
        space_from_obj(family)


def test_space_from_json_rejects_invalid_json():
    for text in ("", "{not json", '{"points": ['):
        with pytest.raises(SpaceFormatError, match="^not valid JSON"):
            space_from_json(text)


def test_format_errors():
    with pytest.raises(SpaceFormatError):
        space_from_obj(["not", "an", "object"])
    with pytest.raises(SpaceFormatError):
        space_from_obj({"points": ["a"]})
    with pytest.raises(SpaceFormatError):
        space_from_obj({"points": [1], "min_nbhds": {}})
    # A neighborhood must be a JSON list: not a number, null or a string,
    # which would otherwise be read as the list of its characters.
    for value in (5, None, "a"):
        with pytest.raises(SpaceFormatError, match="must map each point to a list of points"):
            space_from_obj({"points": ["a"], "min_nbhds": {"a": value}})
    # A member that is not a declared name, hashable or not, is unknown.
    with pytest.raises(UnknownPoint, match="mentions undeclared point \\['a'\\]"):
        space_from_obj({"points": ["a"], "min_nbhds": {"a": [["a"]]}})
    with pytest.raises(UnknownPoint, match="mentions undeclared point \\['a'\\]"):
        space_from_obj({"points": ["a"], "opens": [[], ["a"], [["a"]]]})
    with pytest.raises(UnknownPoint, match="unknown point \\['a'\\]"):
        SIERPINSKI.index(["a"])


def test_formatting_helpers():
    assert format_names(("a", "b")) == "{a,b}"
    assert format_names(()) == "{}"
    assert format_mask(SIERPINSKI, 0b11) == "{a,b}"
    assert format_space(SIERPINSKI) == "{a:{a},b:{a,b}}"


def test_row_formatter_matches_format_space():
    # The text listing's row table prints what format_space prints for the
    # row-built space, on every labeled space with n <= 5.
    for n in range(6):
        text = row_formatter(n)
        for rows in labeled_rows(n):
            assert text(rows) == format_space(space_from_rows(rows))
