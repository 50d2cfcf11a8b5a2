"""Regularity variants for finite spaces, with witnesses.

Every decider reduces its quantifier to minimal neighborhoods, to a greatest
fixpoint or to initial segments, so that no decider enumerates subsets and
each returns the least witness in sorted-index-tuple order:
  - a subspace is regular iff it holds no strict pair (is_regular_mask);
  - the closure of a smallest piece N(m) & a of a subspace is the up-row
    up[m] & a, so quasi-regularity needs no closure computation;
  - the closed sets that fail weak regularity, and those that fail
    theta-weak regularity, are closed under union, so the largest is the
    greatest fixpoint of a monotone pruning operator (Tarski, Pacific J.
    Math. 1955): the property holds iff that fixpoint is empty, and its
    least witness is the least prefix of the fixpoint that the same
    operator fixes;
  - the subspaces that fail the w_theta_regular and the quasi-regular
    condition are closed upward, so the least is an initial segment.
No decider special-cases regular spaces, so the implications out of
"regular" are tested, not assumed, on every regular space.
The kernel operations used by the decomposition module live here too: the
union of all (theta-)open regular subspaces of a subset.
The bounded search for a scatteredly continuous map that is not weakly
discontinuous (sw_witness_search) depends on the codomain only through its
shape, the neighborhood pattern of one point per distinct row, so it runs
once per shape and bound. It walks the maps depth first on their bad rows,
cuts a branch once the scattered operator has a fixpoint on the mapped
points, and builds no map but the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple

from .bitset import bits, gfp, least_prefix
from .generate import homeo_rows, space_from_rows
from .maps import FinMap, MapClass, _pruners, map_to_obj
from .space import (
    CapExceeded,
    FinSpace,
    TopologyError,
    closure_mask,
    format_names,
    is_open_mask,
    is_theta_open_mask,
    theta_components,
)

# Provable implications between decidable properties: if every premise holds,
# the conclusion must. Checked on every report and exhaustively by the
# diagram verifier.
ARROWS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("regular",), "theta_weakly_regular"),
    (("regular",), "w_theta_regular"),
    (("theta_weakly_regular",), "weakly_regular"),
    (("theta_weakly_regular",), "w_theta_regular"),
    (("w_theta_regular",), "hereditarily_quasi_regular"),
    (("hereditarily_quasi_regular",), "quasi_regular"),
    (("locally_regular",), "weakly_regular"),
    (("scattered", "t1"), "theta_weakly_regular"),
)

# Properties that force "no scatteredly-continuous-but-not-weakly-
# discontinuous map into the space can exist", at any search bound.
SW_SAFE_PREMISES = ("regular", "theta_weakly_regular", "locally_regular")

SW_BOUND_CAP = 6


def arrow_name(premises: tuple[str, ...], conclusion: str) -> str:
    return " && ".join(premises) + " => " + conclusion


# ---------------------------------------------------------------------------
# Least-witness deciders. Each returns None when the property holds, else its
# least witness: a point index, a mask, or (for w_theta_regular) a mask pair.
# ---------------------------------------------------------------------------

def regular_at_mask(space: FinSpace, x: int) -> bool:
    """Every open set containing x contains a closed neighborhood of x; the
    closure of the minimal neighborhood is the smallest candidate, so it
    must already fit inside the minimal neighborhood."""
    nb = space.nbhd[x]
    return closure_mask(space, nb) & ~nb == 0


def _strict_tops(space: FinSpace, a: int) -> int:
    """The x of a over a strict pair of a: some y in N(x) & a with x not in
    N(y), i.e. outside up[x]."""
    nbhd = space.nbhd
    up = space.up
    out = 0
    rest = a
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if nbhd[x] & a & ~up[x]:
            out |= low
        rest ^= low
    return out


def is_regular_mask(space: FinSpace, a: int) -> bool:
    """Whether the subspace on a is regular: iff a holds no strict pair.

    A finite subspace is regular iff its minimal pieces partition it. If a
    is regular at y, then N(y) & a is closed in a; so for x in a with y in
    N(x), x not in N(y) would put N(x) & a inside the open complement of
    N(y) & a, which misses y. Conversely, if y in N(x) & a always gives x
    in N(y), two pieces that meet are equal, so each piece is clopen in a,
    its own closure, and a is regular at each point."""
    return _strict_tops(space, a) == 0


def is_regular_at(space: FinSpace, x: str) -> bool:
    return regular_at_mask(space, space.index(x))


def regular_witness(space: FinSpace) -> int | None:
    """Least point at which the space is not regular."""
    return next((x for x in range(len(space)) if not regular_at_mask(space, x)), None)


def nowhere_regular_witness(space: FinSpace) -> int | None:
    """Least point at which the space is regular."""
    return next((x for x in range(len(space)) if regular_at_mask(space, x)), None)


def locally_regular_witness(space: FinSpace) -> int | None:
    """Least point without an open regular neighborhood. Regularity is
    hereditary, so one exists iff the minimal neighborhood is regular."""
    return next(
        (x for x in range(len(space)) if not is_regular_mask(space, space.nbhd[x])),
        None,
    )


def quasi_regular_witness(space: FinSpace) -> int | None:
    """Least open set that contains the closure of no non-empty open set.
    Minimal neighborhoods suffice on both sides (shrinking the inner set and
    the outer set only helps), so the witness is a minimal piece."""
    a = space.full_mask
    return _unclosed_piece(space, a, _strict_tops(space, a))


def _unclosed_piece(space: FinSpace, a: int, tops: int) -> int | None:
    """The quasi-regularity witness of the subspace on a, as a mask of the
    space: the least piece N(x) & a that contains the closure in a of no
    piece, given tops = _strict_tops(space, a).

    Every piece of a holds a smallest piece N(m) & a, and that m lies
    outside _strict_tops(a): each y of N(m) & a has N(y) & a = N(m) & a,
    so m lies in N(y). Hence m lies in N(z) for each z of the piece, which
    makes its closure in a the up-row up[m] & a. A smaller piece has a
    smaller closure, so a piece `target` is the witness iff no m in
    target outside tops has up[m] & a inside target."""
    nbhd = space.nbhd
    up = space.up
    for x in bits(a):
        target = nbhd[x] & a
        if not any(up[m] & a & ~target == 0 for m in bits(target & ~tops)):
            return target
    return None


def scattered_residue_mask(space: FinSpace) -> int:
    """Delete isolated points until none remain; the residue is the largest
    subset that is dense in itself (empty iff the space is scattered)."""
    a = space.full_mask
    while a:
        isolated = 0
        for x in bits(a):
            if space.nbhd[x] & a == 1 << x:
                isolated |= 1 << x
        if not isolated:
            return a
        a &= ~isolated
    return 0


def scattered_witness(space: FinSpace) -> int | None:
    return scattered_residue_mask(space) or None


def t1_witness(space: FinSpace) -> int | None:
    """Least point whose minimal neighborhood is not a singleton: T1 for
    finite spaces means discrete."""
    for x in range(len(space)):
        if space.nbhd[x] != 1 << x:
            return x
    return None


# ---------------------------------------------------------------------------
# Theta machinery and kernels.
# ---------------------------------------------------------------------------

def theta_kernel_mask(space: FinSpace, a: int) -> int:
    """Union of all subsets of a that are theta-open in the subspace on a and
    regular as subspaces: the union of the regular components of a (see the
    space module). A theta-open set is a union of components, which are
    regular if the set is, since regularity is hereditary; and a union of
    clopen regular components is their topological sum, which is regular.
    A component is clopen in a, so, as for a piece in open_kernel_mask, it
    is regular iff it misses _strict_tops(a)."""
    out = 0
    for comp in theta_components(space, a & ~_strict_tops(space, a), a):
        out |= comp
    return out


def open_kernel_mask(space: FinSpace, a: int) -> int:
    """Union of all relatively open regular subspaces of a. A relatively open
    regular set is a union of regular minimal pieces, so those suffice. For
    y in a piece N(x) & a, N(y) & a lies in the piece, so the strict pairs of
    the piece are those of a whose top lies in it: the piece is regular iff
    it misses _strict_tops(a), and then so is the piece of each of its points.
    Hence the union is the set of x in a whose piece misses them."""
    tops = _strict_tops(space, a)
    nbhd = space.nbhd
    out = 0
    for x in bits(a):
        if not nbhd[x] & tops:
            out |= 1 << x
    if out:
        if not is_open_mask(space, out, a) or not is_regular_mask(space, out):
            raise TopologyError("internal: open kernel lost openness or regularity")
    return out


def _closed_part(space: FinSpace, s: int) -> int:
    """The largest closed subset of s: the y of s with up[y] inside s. It is
    closed, since z in up[y] has up[z] inside up[y]."""
    up = space.up
    out = 0
    rest = s
    while rest:
        low = rest & -rest
        if up[low.bit_length() - 1] & ~s == 0:
            out |= low
        rest ^= low
    return out


def _closed_failure_pruner(
    space: FinSpace, kernel: Callable[[FinSpace, int], int]
) -> Callable[[int], int]:
    """P(s) = _closed_part(s minus kernel(s)), given that kernel(s) lies in
    s and that a point of s outside kernel(s) stays outside kernel(t) for
    every t containing s.

    Then P lies in s and is monotone. Its fixpoints are the closed sets
    with an empty kernel (and the empty set), so they are closed under
    union: P(s | t) contains P(s) | P(t). The largest is the greatest
    fixpoint below the whole space (Tarski), reached in at most n rounds."""
    return lambda s: _closed_part(space, s & ~kernel(space, s))


def _least_closed_failure(space: FinSpace, kernel: Callable[[FinSpace, int], int]) -> int | None:
    """The least non-empty closed set a with kernel(space, a) empty, or None:
    a prefix of the greatest fixpoint of _closed_failure_pruner
    (bitset.least_prefix)."""
    prune = _closed_failure_pruner(space, kernel)
    top = gfp(prune, space.full_mask)
    return least_prefix(prune, top) if top else None


def _no_closed_failure(space: FinSpace, kernel: Callable[[FinSpace, int], int]) -> bool:
    """Whether _least_closed_failure(space, kernel) is None, without finding
    the witness: iff the greatest fixpoint of the same operator is empty."""
    return gfp(_closed_failure_pruner(space, kernel), space.full_mask) == 0


def weakly_regular_witness(space: FinSpace) -> int | None:
    """Least non-empty closed subset with no non-empty relatively open
    regular subspace, or None.

    Such a subset a is one with no regular piece N(x) & a (open_kernel_mask).
    If x lies in s and N(x) & s is not regular, then neither is N(x) & t
    for t containing s, since it contains N(x) & s and regularity is
    hereditary. So x stays outside the open kernel of t: see
    _least_closed_failure."""
    return _least_closed_failure(space, open_kernel_mask)


def theta_weakly_regular_witness(space: FinSpace) -> int | None:
    """Least non-empty closed subset with no non-empty theta-open regular
    subspace, or None.

    Such a subset a is one with no regular component of the closure
    relation on a (theta_kernel_mask). The relation on s is the relation on
    t cut to s, for t containing s, so the component of x in s lies in its
    component in t; if the first is not regular, neither is the second,
    since regularity is hereditary. So x stays outside the theta kernel of
    t: see _least_closed_failure."""
    return _least_closed_failure(space, theta_kernel_mask)


def is_weakly_regular(space: FinSpace) -> bool:
    return _no_closed_failure(space, open_kernel_mask)


def is_theta_weakly_regular(space: FinSpace) -> bool:
    return _no_closed_failure(space, theta_kernel_mask)


def w_theta_regular_witness(space: FinSpace) -> tuple[int, int] | None:
    """Least (subspace, relatively open set) such that the open set contains
    no non-empty theta-open-in-the-subspace subset. Relatively open sets are
    unions of minimal pieces, so checking the pieces is exact.

    A piece u = N(x) & a lies inside the component of x in a, since each
    y in u lies in N(y) & N(x) & a. Its theta-open part is the union
    of the components inside u, so it is non-empty iff u is that component,
    iff u is theta-open (is_theta_open_mask).

    So a fails iff it holds a strict pair: y in N(z) with z not in N(y).
    Such a pair relates z to y, so z lies in the component of y but not in
    the piece N(y) & a. Conversely, if z in a outside u = N(x) & a is
    related to y in u, some p in N(z) & N(y) & a lies in u; without strict
    pairs x and z would both lie in N(p), which equals N(x) & a there, so z
    would lie in u. Holding a strict pair is closed upward, so the least
    failing subspace is the shortest failing initial segment {0..k}: any
    other failing set has a point missing from {0..k} below its largest
    point, or contains {0..k} as a prefix. The segment gains the pairs of
    its new point k, in which k is either end. u is its first failing
    piece."""
    nbhd = space.nbhd
    up = space.up
    a = 0
    for k in range(len(space)):
        a |= 1 << k
        if nbhd[k] & a & ~up[k] or up[k] & a & ~nbhd[k]:
            for x in bits(a):
                u = nbhd[x] & a
                if not is_theta_open_mask(space, u, a):
                    return a, u
            raise TopologyError("internal: a strict pair left every piece theta-open")
    return None


def hereditarily_quasi_regular_witness(space: FinSpace) -> int | None:
    """Least subspace that is not quasi-regular, or None.

    A subspace a fails quasi-regularity iff some minimal open set M =
    N(m) & a of a is not closed in a. If each is closed, every non-empty
    open set contains one, which is its own closure; if M is not closed, the
    only non-empty open set inside M is M, whose closure leaves M.

    The failing subspaces are closed upward. Let a fail at M = N(m) & a,
    take b containing a and any minimal open M' of b inside N(m) & b. Then
    m lies in cl_b M', since M' holds a point of N(m). If M' were closed,
    it would hold m, so M' = N(m) & b, and its trace M = N(m) & a would be
    closed in a. So b fails at M', and, as in w_theta_regular_witness, the
    least failing subspace is the shortest failing initial segment.

    Each segment needs only its verdict, so it is tested with no tops
    excluded (_unclosed_piece with tops 0), which gives the same verdict as
    tops = _strict_tops(space, a). If a fails at a smallest piece
    M = N(m) & a, each y of M has N(y) & a = M, so y and m lie in each
    other's minimal neighborhoods and up[y] & a = up[m] & a, the closure of
    M, which leaves M: no point of M passes, whether the tops are excluded
    or not. If a is quasi-regular, each piece N(x) & a holds a closed
    smallest piece N(m) & a, and m passes either way."""
    a = 0
    for k in range(len(space)):
        a |= 1 << k
        if _unclosed_piece(space, a, 0) is not None:
            return a
    return None


# ---------------------------------------------------------------------------
# The one decider per property. Every verdict, predicate and report reads it.
# ---------------------------------------------------------------------------

class Decider(NamedTuple):
    """find returns the least witness or None; fields name the report keys
    of the witness parts in order. A "point" part is a point index, any
    other part a mask reported as its point list. holds, where given,
    decides whether find returns None without finding the witness."""

    find: Callable[[FinSpace], object]
    fields: tuple[str, ...]
    holds: Callable[[FinSpace], bool] | None = None


# In report order.
DECIDERS: dict[str, Decider] = {
    "regular": Decider(regular_witness, ("point",)),
    "locally_regular": Decider(locally_regular_witness, ("point",)),
    "quasi_regular": Decider(quasi_regular_witness, ("open",)),
    "hereditarily_quasi_regular": Decider(hereditarily_quasi_regular_witness, ("subspace",)),
    "weakly_regular": Decider(weakly_regular_witness, ("closed_subspace",), is_weakly_regular),
    "theta_weakly_regular": Decider(
        theta_weakly_regular_witness, ("closed_subspace",), is_theta_weakly_regular
    ),
    "w_theta_regular": Decider(w_theta_regular_witness, ("subspace", "open")),
    "scattered": Decider(scattered_witness, ("subspace",)),
    "t1": Decider(t1_witness, ("point",)),
    "nowhere_regular": Decider(nowhere_regular_witness, ("point",)),
}
# The property names in report order; the search grammar exposes exactly
# these. The diagram's matrix takes every name but nowhere_regular.
REPORT_PROPERTIES = tuple(DECIDERS)
DECIDABLE_PROPERTIES = REPORT_PROPERTIES[:-1]


def has_property(space: FinSpace, prop: str) -> bool:
    """Whether the space has prop, one of REPORT_PROPERTIES: from the
    decider's holds where it has one, so that no witness is found."""
    find, _, holds = DECIDERS[prop]
    return find(space) is None if holds is None else holds(space)


def is_regular(space: FinSpace) -> bool:
    return has_property(space, "regular")


def is_locally_regular(space: FinSpace) -> bool:
    return has_property(space, "locally_regular")


def is_quasi_regular(space: FinSpace) -> bool:
    return has_property(space, "quasi_regular")


def is_hereditarily_quasi_regular(space: FinSpace) -> bool:
    return has_property(space, "hereditarily_quasi_regular")


def is_w_theta_regular(space: FinSpace) -> bool:
    return has_property(space, "w_theta_regular")


def is_scattered(space: FinSpace) -> bool:
    return has_property(space, "scattered")


def is_t1(space: FinSpace) -> bool:
    return has_property(space, "t1")


def is_nowhere_regular(space: FinSpace) -> bool:
    return has_property(space, "nowhere_regular")


# ---------------------------------------------------------------------------
# Bounded witness search against scattered-but-not-weak maps.
# ---------------------------------------------------------------------------

@cache
def _sw_domains(n: int) -> tuple[FinSpace, ...]:
    """The canonical n-point domains, in homeomorphism-stream order; at most
    SW_BOUND_CAP lists, so kept for the life of the process."""
    return tuple(map(space_from_rows, homeo_rows(n)))


def is_sw_witness(mc: MapClass) -> bool:
    """Whether a classified map is scatteredly continuous but not weakly
    discontinuous, the kind of map sw_witness_search looks for."""
    return mc.reaches("scatteredly_continuous") and not mc.reaches("weakly_discontinuous")


def check_sw_bound(bound: int) -> None:
    """Refuse a bound outside 1..SW_BOUND_CAP; 0 would search nothing. The
    messages leave the bound out: str() of an int over 4,300 digits raises."""
    if bound > SW_BOUND_CAP:
        raise CapExceeded(f"witness search capped at domain size {SW_BOUND_CAP}")
    if bound < 1:
        raise TopologyError("witness search bound must be at least 1")


def sw_witness_search(
    space: FinSpace, max_domain_size: int = 3
) -> tuple[FinSpace, FinMap] | None:
    """Search all finite domains Z up to the bound and all maps f: Z -> X for
    a scatteredly continuous map that is not weakly discontinuous. A hit
    disproves that every scatteredly continuous map into X is weakly
    discontinuous; exhausting the bound proves nothing.

    The answer is the first hit over labeled domains in ascending row order,
    then maps in product order. These reductions leave it unchanged:

    - Canonical domains. If a labeled Z admits a witness f, its relabeling
      sigma Z admits f o sigma^-1, so whole classes admit one or none, and
      the first labeled domain that does is its class's least labeling.
    - Reps. A map's tier depends only on Z and its ok masks, ok[x] =
      {y : f(y) in N(f(x))} (maps module), which see an image only through
      its minimal neighborhood: a lies in N(c) iff N(a) lies inside N(c).
      Replacing each image by reps[i], the least point of its row of
      space.nbhd, lowers the tuple coordinatewise and keeps the tier, so
      the first witness in product order maps into reps.
    - Shape. Write f(y) = reps[p[y]]. Then ok[x] = {y : p[y] in
      shape[p[x]]}, where shape[i] = {j : reps[j] in N(reps[i])}, and
      product order on position tuples is product order on images, since
      reps ascend. So the first witness's positions depend on X only
      through (shape, bound), and _sw_shape_search caches them per pair;
      mapping them back through reps gives this space's own witness.
    - Bad-row keys. The tier reads only bad[x] = N(x) minus ok[x] (maps
      module), so of the maps with equal bad rows only the first in
      product order is decided.
    - Prefix cut. The positions are walked depth first, coordinate 0 first
      and each in ascending order, which meets the tuples in product order.
      Once p[0..k] are set, whether y lies in bad[x] is settled for x, y
      <= k: it reads N(x), p[x] and p[y] alone. The scattered operator
      B(S) = {x in S : bad[x] meets S} reads, for S inside the prefix, only
      those entries. So a non-empty fixpoint S of B in the prefix stays one
      in every completion, whose restriction to S then has no continuity
      point: no completion is scatteredly continuous, and the subtree is
      cut. A fixpoint new at coordinate k holds k, as the shorter prefix
      had none. It needs an edge out of k (k lies in B(S)) and one into k
      (else S minus k is one, since bad[x] never holds x), so the operator
      runs only when k has both. On a full tuple this is the scattered test
      itself, and a map that passes it is a witness iff the weak operator
      has a non-empty greatest fixpoint. Leaves are matched to bad-row keys
      before either test.
    - Isolated points. Call position i isolated when shape[i] = {i} and no
      other row holds i. Permuting isolated positions fixes shape, so it
      keeps every ok row (ok[x] reads p[x] and whether p[y] lies in
      shape[p[x]]), every bad row and every tier. The least tuple of such
      an orbit in product order is the one that takes up its isolated
      positions in ascending order, so the walk skips an isolated position
      above the least one not yet used. A skipped subtree holds only tuples
      whose orbit's least tuple comes earlier with the same bad rows on
      every prefix: it would be cut where that one is, or its leaves would
      repeat seen keys or decide as that one does. So the first witness,
      the keys seen and the cuts are unchanged, and no property of the
      codomain is assumed: an exhausted search still walked every orbit.

    No map is built or classified until a witness is found.
    """
    check_sw_bound(max_domain_size)
    cod = space.nbhd
    reps = [x for x, row in enumerate(cod) if row not in cod[:x]]
    shape = tuple(sum(1 << j for j, r in enumerate(reps) if cod[x] >> r & 1) for x in reps)
    hit = _sw_shape_search(shape, max_domain_size)
    if hit is None:
        return None
    n, k, pos = hit
    z = _sw_domains(n)[k]
    return z, FinMap(z, space, tuple(reps[p] for p in pos))


@lru_cache(maxsize=1024)
def _sw_shape_search(
    shape: tuple[int, ...], bound: int
) -> tuple[int, int, tuple[int, ...]] | None:
    """(n, k, positions) of the first witness into a codomain of this shape
    (see sw_witness_search), its domain _sw_domains(n)[k]; or None."""
    for n in range(1, bound + 1):
        for k, z in enumerate(_sw_domains(n)):
            pos = _sw_walk(z, shape)
            if pos is not None:
                return n, k, pos
    return None


@lru_cache(maxsize=1)
def _sw_choices(shape: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """choices[u]: (position, row, isolated positions used after it) for each
    position the walk tries once the first u isolated positions are used,
    that is all but the isolated ones after the u-th (see sw_witness_search).
    Position i is isolated when shape[i] is {i} and no other row holds i.
    _sw_shape_search walks every domain into one shape in a row, so one
    entry serves them all."""
    held = twice = 0  # twice: the positions that two rows or more hold
    for row in shape:
        twice |= held & row
        held |= row
    iso = [p for p, row in enumerate(shape) if row == 1 << p and not twice >> p & 1]
    return tuple(
        tuple((p, row, u + (p in iso[u : u + 1])) for p, row in enumerate(shape) if p not in iso[u + 1 :])
        for u in range(len(iso) + 1)
    )


def _sw_walk(z: FinSpace, shape: tuple[int, ...]) -> tuple[int, ...] | None:
    """The first position tuple in product order of a witness out of z, by
    the depth-first walk of sw_witness_search. Setting coordinate k adds
    column k to the bad rows of the x < k with k in N(x), and row k."""
    nbhd = z.nbhd
    n = len(nbhd)
    bad = [0] * n
    pos = [0] * n
    # The operators read bad as the walk rewrites it in place.
    ops = _pruners(z, bad)
    scattered = ops["scatteredly_continuous"]
    weak = ops["weakly_discontinuous"]
    ups = [[x for x in range(k) if nbhd[x] >> k & 1] for k in range(n)]
    downs = [[y for y in range(k) if nbhd[k] >> y & 1] for k in range(n)]
    choices = _sw_choices(shape)
    seen: set[tuple[int, ...]] = set()

    def walk(k: int, used: int) -> tuple[int, ...] | None:
        prefix = (2 << k) - 1
        above = bad[:k]
        for p, row, after in choices[used]:
            pos[k] = p
            bad[:k] = above
            into = False
            for x in ups[k]:
                if not shape[pos[x]] >> p & 1:
                    bad[x] |= 1 << k
                    into = True
            out = 0
            for y in downs[k]:
                if not row >> pos[y] & 1:
                    out |= 1 << y
            bad[k] = out
            if k + 1 == n:
                key = tuple(bad)
                if key in seen:
                    continue
                seen.add(key)
            if into and out and gfp(scattered, prefix):
                continue
            if k + 1 < n:
                hit = walk(k + 1, after)
                if hit is not None:
                    return hit
            elif gfp(weak, prefix):
                return tuple(pos)
        return None

    hit = walk(0, 0)
    # walk refers to itself; dropping the name frees seen and the bad rows
    # now, not at some later run of the cyclic collector.
    del walk
    return hit


# ---------------------------------------------------------------------------
# Full report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    space: FinSpace
    verdicts: dict[str, bool]
    witnesses: dict[str, dict]
    sw: dict

    def to_obj(self) -> dict:
        return {
            "points": list(self.space.names),
            "verdicts": dict(self.verdicts),
            "witnesses": dict(self.witnesses),
            "sw_regular": dict(self.sw),
        }

    def to_text(self) -> str:
        lines = [f"points: {format_names(self.space.names)}"]
        for prop in DECIDERS:
            if self.verdicts[prop]:
                lines.append(f"{prop}: true")
            else:
                lines.append(f"{prop}: false [witness: {_witness_text(self.witnesses[prop])}]")
        lines.append(_sw_text(self.sw))
        return "\n".join(lines)


def _witness_text(w: dict) -> str:
    parts = []
    for key, value in w.items():
        label = key.replace("_", " ")
        if isinstance(value, list):
            parts.append(f"{label} {format_names(value)}")
        else:
            parts.append(f"{label} {value}")
    return ", ".join(parts)


def _sw_text(sw: dict) -> str:
    verdict = sw["verdict"]
    if verdict == "implied_true":
        return "sw_regular: implied_true (regular)"
    if verdict == "none_up_to_bound":
        return f"sw_regular: none_up_to_bound (bound {sw['bound']})"
    w = sw["witness"]
    z = w["domain"]
    body = ",".join(
        f"{p}:{format_names(z['min_nbhds'][p])}" for p in z["points"]
    )
    assign = ",".join(f"{a}->{b}" for a, b in w["map"].items())
    return (
        f"sw_regular: witnessed_false (bound {sw['bound']}) "
        f"[witness: Z = {{{body}}}, f = {{{assign}}}]"
    )


def property_verdicts(space: FinSpace) -> tuple[dict[str, bool], dict[str, dict]]:
    """All decidable verdicts plus witnesses for the false ones, each
    verdict read off its decider's find; the only place witnesses are
    formatted."""
    verdicts: dict[str, bool] = {}
    witnesses: dict[str, dict] = {}
    for prop, (find, fields, _) in DECIDERS.items():
        w = find(space)
        verdicts[prop] = w is None
        if w is not None:
            parts = w if isinstance(w, tuple) else (w,)
            witnesses[prop] = {
                field: space.names[part] if field == "point" else list(space.names_of(part))
                for field, part in zip(fields, parts)
            }
    return verdicts, witnesses


def check_arrows(verdicts: dict[str, bool]) -> list[str]:
    """Names of provable implications the verdicts violate (must be empty)."""
    out = []
    for premises, conclusion in ARROWS:
        if all(verdicts[p] for p in premises) and not verdicts[conclusion]:
            out.append(arrow_name(premises, conclusion))
    return out


def classify_report(space: FinSpace, sw_bound: int = 3) -> PropertyReport:
    # Checked up front: the report of a regular space never runs the search.
    check_sw_bound(sw_bound)
    verdicts, witnesses = property_verdicts(space)
    if verdicts["regular"]:
        sw = {"verdict": "implied_true", "bound": sw_bound, "witness": None}
    else:
        hit = sw_witness_search(space, sw_bound)
        if hit is None:
            sw = {"verdict": "none_up_to_bound", "bound": sw_bound, "witness": None}
        else:
            z, f = hit
            obj = map_to_obj(f)
            sw = {
                "verdict": "witnessed_false",
                "bound": sw_bound,
                "witness": {"domain": obj["domain"], "map": obj["map"]},
            }

    broken = check_arrows(verdicts)
    if broken:
        raise TopologyError(f"internal: report violates implications {broken}")
    if sw["verdict"] == "witnessed_false" and any(
        verdicts[p] for p in SW_SAFE_PREMISES
    ):
        raise TopologyError("internal: witness found for a space that forbids one")
    return PropertyReport(space, verdicts, witnesses, sw)
