"""Independent brute-force implementations used to cross-check the package.

Everything here is computed from first definitions: the open-set family is
materialized as the set of all unions of minimal neighborhoods, and every
notion (closure, interior, theta-openness, continuity, the regularity
variants) is decided by exhaustive quantification over that family. Nothing
below calls the package's own closure/interior/classification code, except
the restriction sweep, which checks the map classifier's fixpoints against a
walk over every restriction, the subspace scans, which check the regularity
deciders' fixpoints, initial segments and up-row closures against a walk
over every subset with the package's closure_mask, theta_interior_mask and
theta_components (each gated against the oracles above it), and the
labeled references for the per-class sweeps, which check
only the symmetry reductions.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from thetatopo.hedgehog import MalformedToken
from thetatopo.space import (
    CapExceeded,
    FinSpace,
    closure_mask,
    is_open_mask,
    theta_components,
    theta_interior_mask,
)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Topology from the raw neighborhood rows.
# ---------------------------------------------------------------------------

def all_opens(space: FinSpace, a: int | None = None) -> tuple[int, ...]:
    """Every open set of the subspace on ``a``, as the traces of all unions
    of minimal neighborhoods (the empty union included)."""
    n = len(space)
    full = (1 << n) - 1
    if a is None:
        a = full
    opens = set()
    for smask in range(1 << n):
        u = 0
        for i in bits(smask):
            u |= space.nbhd[i]
        opens.add(u & a)
    return tuple(sorted(opens))


def cl_oracle(space: FinSpace, s: int, a: int | None = None) -> int:
    """Relative closure: intersection of all relatively closed supersets."""
    if a is None:
        a = space.full_mask
    s &= a
    out = a
    for v in all_opens(space, a):
        closed = a & ~v
        if s & ~closed == 0:
            out &= closed
    return out


def int_oracle(space: FinSpace, s: int, a: int | None = None) -> int:
    """Relative interior: union of relatively open subsets of s."""
    if a is None:
        a = space.full_mask
    out = 0
    for v in all_opens(space, a):
        if v & ~s == 0:
            out |= v
    return out


def theta_open_oracle(space: FinSpace, u: int, a: int | None = None) -> bool:
    """u is theta-open in the subspace on a: every point of u has a
    relatively open neighborhood whose relative closure stays inside u."""
    if a is None:
        a = space.full_mask
    assert u & ~a == 0
    opens = all_opens(space, a)
    for x in bits(u):
        xb = 1 << x
        if not any(v & xb and cl_oracle(space, v, a) & ~u == 0 for v in opens):
            return False
    return True


def submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def theta_part_oracle(space: FinSpace, s: int, a: int | None = None) -> int:
    """Union of all theta-open (in a) subsets of s."""
    if a is None:
        a = space.full_mask
    out = 0
    for u in submasks(s & a):
        if u and theta_open_oracle(space, u, a):
            out |= u
    return out


def theta_step_oracle(space: FinSpace, s: int, a: int | None = None) -> int:
    """Points of s owning a relatively open neighborhood with relative
    closure inside s (one refinement step, not yet a fixpoint)."""
    if a is None:
        a = space.full_mask
    s &= a
    out = 0
    for x in bits(s):
        xb = 1 << x
        for v in all_opens(space, a):
            if v & xb and cl_oracle(space, v, a) & ~s == 0:
                out |= xb
                break
    return out


# ---------------------------------------------------------------------------
# Continuity, by quantifying over open pairs.
# ---------------------------------------------------------------------------

def image_mask(f, s: int) -> int:
    out = 0
    for i in bits(s):
        out |= 1 << f.img[i]
    return out


def cont_points_oracle(f, a: int | None = None) -> int:
    """Continuity points of the restriction of f to the subspace on a."""
    x_space, y_space = f.domain, f.codomain
    if a is None:
        a = x_space.full_mask
    x_opens = all_opens(x_space, a)
    y_opens = all_opens(y_space)
    out = 0
    for x in bits(a):
        xb = 1 << x
        fb = 1 << f.img[x]
        good = True
        for w in y_opens:
            if not w & fb:
                continue
            if not any(v & xb and image_mask(f, v) & ~w == 0 for v in x_opens):
                good = False
                break
        if good:
            out |= xb
    return out


def nonempty_subsets(full: int):
    for a in range(1, full + 1):
        if a & ~full == 0:
            yield a


def tier_oracle(f) -> str:
    full = f.domain.full_mask
    if cont_points_oracle(f, full) == full:
        return "continuous"
    theta_ok = weak_ok = scat_ok = True
    for a in nonempty_subsets(full):
        c = cont_points_oracle(f, a)
        if c == 0:
            scat_ok = False
        if weak_ok and int_oracle(f.domain, c, a) == 0:
            weak_ok = False
        if theta_ok and theta_part_oracle(f.domain, c, a) == 0:
            theta_ok = False
        if not scat_ok:
            break
    if theta_ok:
        return "theta_weakly_discontinuous"
    if weak_ok:
        return "weakly_discontinuous"
    if scat_ok:
        return "scatteredly_continuous"
    return "none"


def reaches_oracle(f, tier: str) -> bool:
    order = (
        "continuous",
        "theta_weakly_discontinuous",
        "weakly_discontinuous",
        "scatteredly_continuous",
        "none",
    )
    return order.index(tier_oracle(f)) <= order.index(tier)


def map_witness_oracle(f) -> dict:
    """The classification document of f from the definitions: for each
    restriction tier the least failing restriction under the sorted
    index-tuple order, for continuity the set of discontinuity points, and
    a tier reached iff it has no witness."""
    full = f.domain.full_mask
    least: dict[str, int] = {}
    for a in nonempty_subsets(full):
        c = cont_points_oracle(f, a)
        failed = {
            "scatteredly_continuous": c == 0,
            "weakly_discontinuous": int_oracle(f.domain, c, a) == 0,
            "theta_weakly_discontinuous": theta_part_oracle(f.domain, c, a) == 0,
        }
        for t, fails in failed.items():
            if fails and (t not in least or tuple(bits(a)) < tuple(bits(least[t]))):
                least[t] = a
    discontinuous = full & ~cont_points_oracle(f, full)
    if discontinuous:
        least["continuous"] = discontinuous
    order = (
        "continuous",
        "theta_weakly_discontinuous",
        "weakly_discontinuous",
        "scatteredly_continuous",
    )
    reaches = {t: t not in least for t in order}
    return {
        "tier": next((t for t in order if reaches[t]), "none"),
        "reaches": reaches,
        "witnesses": {t: [f.domain.names[i] for i in bits(a)] for t, a in least.items()},
    }


# ---------------------------------------------------------------------------
# The restriction sweep: the reference for maps' fixpoint classifier. It
# reads continuity sets from ok_masks and tests the rungs with the
# package's interior_mask and theta_components (gated against the
# definitions above by test_space), so it checks the fixpoint algebra and
# the witness order, at 2^n restrictions per map.
# ---------------------------------------------------------------------------

def lex_less(a: int, b: int) -> bool:
    """tuple(bits(a)) < tuple(bits(b)): the sorted-index-tuple order that
    defines the 'lexicographically least' subset in reports.

    The tuples agree below low, the lowest bit where a and b differ. If a
    holds low, a is less iff b goes on past it, i.e. has a bit above low;
    if b holds low, a is less iff it ends there. A mask has a bit above low
    iff it is at least 2 * low.
    """
    d = a ^ b
    if not d:
        return False
    low = d & -d
    return b >= low << 1 if a & low else a < low << 1


def subsets_gray(full: int) -> Iterator[tuple[int, int]]:
    """Yield (mask, flipped_position) over all subsets of full.

    Masks follow the reflected Gray sequence x ^ (x >> 1), so consecutive
    masks differ in exactly one bit and callers can update derived state
    incrementally. The first pair is (0, -1).
    """
    positions = list(bits(full))
    mask = 0
    yield mask, -1
    for k in range(1, 1 << len(positions)):
        pos = positions[(k & -k).bit_length() - 1]
        mask ^= 1 << pos
        yield mask, pos


def sweep_oracle(domain: FinSpace, ok: tuple[int, ...]) -> tuple[str, tuple[tuple[str, int], ...]]:
    """The tier and the (tier, least witness mask) pairs of any map out of
    domain with these ok masks, from every non-empty restriction.

    Subsets run in Gray-code order so the per-point discontinuity counters
    update by one flip per step; witnesses are still selected globally as the
    least failing restriction under lex_less, independent of sweep order.
    The pairs come in the order the walk first notes each tier, after
    "continuous", and a restriction that fails several rungs notes them
    scattered, weak, theta.
    """
    from thetatopo.space import interior_mask, theta_components

    n = len(domain)
    nbhd = domain.nbhd
    full = domain.full_mask

    # bad_src[p] = points x whose neighborhood gains a discontinuity witness
    # when p enters the restriction.
    bad_src = [0] * n
    for x in range(n):
        for p in bits(nbhd[x] & ~ok[x]):
            bad_src[p] |= 1 << x

    bad_count = [0] * n
    calm = full  # points whose current restriction shows no bad neighbor
    c_full = 0
    fails: dict[str, int] = {}
    rungs = ("scatteredly_continuous", "weakly_discontinuous", "theta_weakly_discontinuous")

    for a, flipped in subsets_gray(full):
        if flipped >= 0:
            if (a >> flipped) & 1:
                for x in bits(bad_src[flipped]):
                    bad_count[x] += 1
                    if bad_count[x] == 1:
                        calm &= ~(1 << x)
            else:
                for x in bits(bad_src[flipped]):
                    bad_count[x] -= 1
                    if bad_count[x] == 0:
                        calm |= 1 << x
        if a == 0:
            continue
        c = a & calm
        if a == full:
            c_full = c
        if c == 0:
            failed = rungs
        elif interior_mask(domain, c, a) == 0:
            failed = rungs[1:]
        elif next(theta_components(domain, c, a), 0) == 0:
            failed = rungs[2:]
        else:
            continue
        for t in failed:
            if t not in fails or lex_less(a, fails[t]):
                fails[t] = a

    masks = fails
    if c_full != full:
        masks = {"continuous": full & ~c_full, **fails}
    if "scatteredly_continuous" in masks:
        tier = "none"
    elif "weakly_discontinuous" in masks:
        tier = "scatteredly_continuous"
    elif "theta_weakly_discontinuous" in masks:
        tier = "weakly_discontinuous"
    elif "continuous" in masks:
        tier = "theta_weakly_discontinuous"
    else:
        tier = "continuous"
    return tier, tuple(masks.items())


# ---------------------------------------------------------------------------
# Regularity variants, straight from their definitions.
# ---------------------------------------------------------------------------

def regular_oracle(space: FinSpace, a: int | None = None) -> bool:
    """The subspace on a is regular: each of its open sets is theta-open."""
    if a is None:
        a = space.full_mask
    return all(theta_open_oracle(space, u, a) for u in all_opens(space, a))


def regular_at_oracle(space: FinSpace, x: int) -> bool:
    """Every open neighborhood of x contains the closure of another one."""
    xb = 1 << x
    opens = all_opens(space)
    for u in opens:
        if not u & xb:
            continue
        if not any(v & xb and cl_oracle(space, v) & ~u == 0 for v in opens):
            return False
    return True


def nowhere_regular_oracle(space: FinSpace) -> bool:
    return all(not regular_at_oracle(space, x) for x in range(len(space)))


def locally_regular_oracle(space: FinSpace) -> bool:
    """Some open cover consists of regular subspaces; pointwise this means
    every point has an open neighborhood that is regular as a subspace."""
    opens = all_opens(space)
    for x in range(len(space)):
        xb = 1 << x
        if not any(u & xb and regular_oracle(space, u) for u in opens):
            return False
    return True


def quasi_regular_oracle(space: FinSpace, a: int | None = None) -> bool:
    """Each nonempty relatively open set contains the relative closure of
    some nonempty relatively open set."""
    if a is None:
        a = space.full_mask
    opens = all_opens(space, a)
    for u in opens:
        if u == 0:
            continue
        if not any(v and cl_oracle(space, v, a) & ~u == 0 for v in opens):
            return False
    return True


def hereditarily_quasi_regular_oracle(space: FinSpace) -> bool:
    return all(
        quasi_regular_oracle(space, a) for a in nonempty_subsets(space.full_mask)
    )


def weakly_regular_oracle(space: FinSpace) -> bool:
    """Every nonempty subspace contains a nonempty relatively open regular
    subspace."""
    for a in nonempty_subsets(space.full_mask):
        if not any(u and regular_oracle(space, u) for u in all_opens(space, a)):
            return False
    return True


def theta_weakly_regular_oracle(space: FinSpace) -> bool:
    """Every nonempty subspace contains a nonempty theta-open regular
    subspace."""
    for a in nonempty_subsets(space.full_mask):
        found = False
        for u in submasks(a):
            if u and theta_open_oracle(space, u, a) and regular_oracle(space, u):
                found = True
                break
        if not found:
            return False
    return True


def w_theta_regular_oracle(space: FinSpace) -> bool:
    """In every subspace, each nonempty relatively open set contains a
    nonempty relatively theta-open set."""
    for a in nonempty_subsets(space.full_mask):
        for u in all_opens(space, a):
            if u and theta_part_oracle(space, u, a) == 0:
                return False
    return True


def scattered_oracle(space: FinSpace) -> bool:
    """Every nonempty subspace has a relatively isolated point."""
    opens = all_opens(space)
    for a in nonempty_subsets(space.full_mask):
        if not any(u & a in (1 << x for x in bits(a)) for u in opens):
            return False
    return True


def t1_oracle(space: FinSpace) -> bool:
    opens = all_opens(space)
    n = len(space)
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if not any(u & (1 << x) and not u & (1 << y) for u in opens):
                return False
    return True


PROPERTY_ORACLES = {
    "regular": regular_oracle,
    "locally_regular": locally_regular_oracle,
    "quasi_regular": quasi_regular_oracle,
    "hereditarily_quasi_regular": hereditarily_quasi_regular_oracle,
    "weakly_regular": weakly_regular_oracle,
    "theta_weakly_regular": theta_weakly_regular_oracle,
    "w_theta_regular": w_theta_regular_oracle,
    "scattered": scattered_oracle,
    "t1": t1_oracle,
    "nowhere_regular": nowhere_regular_oracle,
}


# ---------------------------------------------------------------------------
# Least-witness scans of the four subspace deciders: every subset in
# sorted-index-tuple order, so the first failure found is the least witness.
# Regularity is the per-point closure test, cl_a(N(x) & a) inside N(x) & a;
# closures, theta-interiors and theta-components are the package's.
# ---------------------------------------------------------------------------

def subsets_lex(mask: int) -> Iterator[int]:
    """Non-empty subsets of mask in ascending sorted-index-tuple order,
    e.g. {0} < {0,1} < {0,1,2} < {0,2} < {1} < {1,2} < {2}."""
    positions = list(bits(mask))

    def rec(prefix: int, start: int) -> Iterator[int]:
        for i in range(start, len(positions)):
            cur = prefix | (1 << positions[i])
            yield cur
            yield from rec(cur, i + 1)

    yield from rec(0, 0)


def _closed_nonempty_lex(space: FinSpace) -> Iterator[int]:
    full = space.full_mask
    for a in subsets_lex(full):
        if is_open_mask(space, full & ~a):
            yield a


def _is_regular_scan(space: FinSpace, a: int) -> bool:
    return all(
        closure_mask(space, space.nbhd[x] & a, a) & ~space.nbhd[x] == 0 for x in bits(a)
    )


def weakly_regular_scan(space: FinSpace) -> int | None:
    """Least non-empty closed set with no regular piece N(x) & a."""
    for a in _closed_nonempty_lex(space):
        if not any(_is_regular_scan(space, space.nbhd[x] & a) for x in bits(a)):
            return a
    return None


def theta_weakly_regular_scan(space: FinSpace) -> int | None:
    """Least non-empty closed set with no regular theta-component."""
    for a in _closed_nonempty_lex(space):
        if not any(_is_regular_scan(space, c) for c in theta_components(space, a, a)):
            return a
    return None


def w_theta_regular_scan(space: FinSpace) -> tuple[int, int] | None:
    """Least subspace with a piece that is not theta-open, and its first
    such piece."""
    for a in subsets_lex(space.full_mask):
        for x in bits(a):
            u = space.nbhd[x] & a
            if theta_interior_mask(space, u, a) != u:
                return a, u
    return None


def quasi_regular_scan(space: FinSpace, a: int) -> int | None:
    """Least piece N(x) & a that contains the closure in a of no piece."""
    pieces = [closure_mask(space, space.nbhd[x] & a, a) for x in bits(a)]
    for x in bits(a):
        target = space.nbhd[x] & a
        if not any(cl & ~target == 0 for cl in pieces):
            return target
    return None


def hereditarily_quasi_regular_scan(space: FinSpace) -> int | None:
    """Least subspace that is not quasi-regular."""
    for a in subsets_lex(space.full_mask):
        if quasi_regular_scan(space, a) is not None:
            return a
    return None


SUBSPACE_SCANS = {
    "hereditarily_quasi_regular": hereditarily_quasi_regular_scan,
    "weakly_regular": weakly_regular_scan,
    "theta_weakly_regular": theta_weakly_regular_scan,
    "w_theta_regular": w_theta_regular_scan,
}


# ---------------------------------------------------------------------------
# Brute domain enumeration for the scattered-vs-weak witness search.
# ---------------------------------------------------------------------------

def brute_spaces(n: int):
    """All labeled spaces on n points, by filtering every candidate row
    tuple against the two neighborhood axioms."""
    names = tuple(str(i) for i in range(n))
    for rows in product(range(1 << n), repeat=n):
        if any(not rows[i] >> i & 1 for i in range(n)):
            continue
        ok = True
        for i in range(n):
            for j in bits(rows[i]):
                if rows[j] & ~rows[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield FinSpace(names, rows)


def permute_rows(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel points one by one: perm[i] is the new index of old point i.
    The reference for the package's table-driven relabeling."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        m = 0
        for j in bits(rows[i]):
            m |= 1 << perm[j]
        out[perm[i]] = m
    return tuple(out)


# ---------------------------------------------------------------------------
# Second enumerator: open-set families.
# ---------------------------------------------------------------------------

OPEN_FAMILY_CAP = 4


def open_family_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Topologies on n points found by scanning all families of subsets that
    contain ∅ and the whole set and are closed under union and intersection.
    Doubly exponential; exists purely to cross-check labeled_rows."""
    if n > OPEN_FAMILY_CAP:
        raise CapExceeded(f"open-family enumeration capped at {OPEN_FAMILY_CAP} points")
    if n == 0:
        yield ()
        return
    full = (1 << n) - 1
    middle = [m for m in range(1, full)]
    for pick in range(1 << len(middle)):
        family = [0, full]
        rest = pick
        i = 0
        while rest:
            if rest & 1:
                family.append(middle[i])
            rest >>= 1
            i += 1
        fam = set(family)
        closed = True
        for a in family:
            for b in family:
                if a | b not in fam or a & b not in fam:
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        rows = []
        for x in range(n):
            m = full
            for u in family:
                if u >> x & 1:
                    m &= u
            rows.append(m)
        yield tuple(rows)


def is_least_scan(rows: tuple[int, ...]) -> int:
    """0 when some relabeling gives a smaller row tuple, else |Aut(rows)|:
    every relabeling table compared with rows row by row up to its first
    difference. The reference for the orderly walk's grouped leaf test,
    generate._is_least."""
    from thetatopo.generate import _relabelings

    last = len(rows) - 1
    aut = 0
    for t, inv in _relabelings(len(rows)):
        k = 0
        r = t[rows[inv[0]]]
        while r == rows[k] and k < last:
            k += 1
            r = t[rows[inv[k]]]
        if r <= rows[k]:
            if r < rows[k]:
                return 0
            aut += 1
    return aut


def prefix_ties_scan(rows: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """None when some relabeling of the decided points 0..j (j = len(rows) -
    1, every point above j fixed) gives a smaller tuple of rows 0..j, else
    the relabelings that reproduce it, as permutations of 0..j in
    permutations order: every permutation applied point by point. The
    reference for the tie lists of the orderly walk's prefix test,
    generate._is_least, at every node of the walk."""
    from itertools import permutations

    k = len(rows)
    high = -1 << k
    ties = []
    for perm in permutations(range(k)):
        out = [0] * k
        for i in range(k):
            m = rows[i] & high
            for j in bits(rows[i] & ~high):
                m |= 1 << perm[j]
            out[perm[i]] = m
        if tuple(out) < rows:
            return None
        if tuple(out) == rows:
            ties.append(perm)
    return ties


def prefix_least_scan(rows: tuple[int, ...]) -> int:
    """0 when prefix_ties_scan finds a smaller relabeled prefix, else the
    number of relabelings that reproduce it."""
    ties = prefix_ties_scan(rows)
    return 0 if ties is None else len(ties)


def orbit_set_homeo_rows(n: int) -> Iterator[tuple[int, ...]]:
    """One representative per homeomorphism class, in ascending order: the
    reference for the orderly walk in generate.homeo_rows.

    The labeled stream ascends, so the first member of each class met is its
    least labeling, i.e. the canonical form; the rest of the orbit is marked
    seen. Memory is the orbit union."""
    from thetatopo.generate import _orbit, labeled_rows

    seen: set[tuple[int, ...]] = set()
    for rows in labeled_rows(n):
        if rows in seen:
            continue
        yield rows
        seen.update(_orbit(rows))


def sw_witness_exists_oracle(space: FinSpace, bound: int) -> bool:
    """Is there a scatteredly continuous, not weakly discontinuous map into
    the space from some domain with at most ``bound`` points?"""
    from thetatopo.maps import FinMap

    nx = len(space)
    for n in range(1, bound + 1):
        for z in brute_spaces(n):
            for img in product(range(nx), repeat=n):
                f = FinMap(z, space, img)
                if tier_oracle(f) == "scatteredly_continuous":
                    return True
    return False


# ---------------------------------------------------------------------------
# Labeled references for the per-class sweeps. Unlike the rest of this file
# they call the package's deciders and classify_map; what they check is the
# symmetry reduction, so they scan every labeled domain, map, space and
# bijection that the reduced sweeps stand for.
# ---------------------------------------------------------------------------

def labeled_sw_witness_search(space: FinSpace, max_domain_size: int = 3):
    """sw_witness_search over every labeled domain and every map: the first
    scatteredly continuous, not weakly discontinuous f: Z -> X, domains in
    ascending row order, maps in product order."""
    from thetatopo.generate import labeled_rows, space_from_rows
    from thetatopo.maps import FinMap, classify_map

    nx = len(space)
    if nx == 0:
        return None
    for n in range(1, max_domain_size + 1):
        for rows in labeled_rows(n):
            z = space_from_rows(rows)
            for img in product(range(nx), repeat=n):
                f = FinMap(z, space, img)
                mc = classify_map(f)
                if mc.reaches("scatteredly_continuous") and not mc.reaches(
                    "weakly_discontinuous"
                ):
                    return z, f
    return None


def sw_witness_search_scan(space: FinSpace, max_domain_size: int = 3):
    """sw_witness_search as a scan: canonical domains in stream order, maps
    into the least point of each distinct row in product order, and
    classify_map on the first map of each new ok_masks key."""
    from thetatopo.maps import FinMap, classify_map, ok_masks
    from thetatopo.regularity import _sw_domains, is_sw_witness

    cod = space.nbhd
    reps = [x for x, row in enumerate(cod) if row not in cod[:x]]
    for n in range(1, max_domain_size + 1):
        for z in _sw_domains(n):
            seen = set()
            for img in product(reps, repeat=n):
                f = FinMap(z, space, img)
                key = ok_masks(f)
                if key in seen:
                    continue
                seen.add(key)
                if is_sw_witness(classify_map(f)):
                    return z, f
    return None


def _labeled_decide(rows: tuple[int, ...], sw_bound: int) -> tuple:
    from thetatopo.generate import space_from_rows
    from thetatopo.maps import map_to_obj
    from thetatopo.regularity import SW_SAFE_PREMISES, check_arrows, property_verdicts

    space = space_from_rows(rows)
    verdicts, _ = property_verdicts(space)
    sw_checked = any(verdicts[p] for p in SW_SAFE_PREMISES)
    sw_obj = None
    if sw_checked:
        found = labeled_sw_witness_search(space, sw_bound)
        if found is not None:
            sw_obj = map_to_obj(found[1])
    return verdicts, check_arrows(verdicts), sw_checked, sw_obj


def labeled_verify_diagram(
    n_max: int = 4,
    sw_bound: int = 3,
    transfer_max: int = 3,
):
    """verify_diagram decided labeled space by labeled space, with the sw
    search above and the transfer scan over every bijection (X, Y, p)."""
    from itertools import permutations

    from thetatopo.generate import LABELED_CAP, labeled_rows, space_from_rows
    from thetatopo.maps import FinMap, classify_map, compose, map_to_obj
    from thetatopo.regularity import DECIDABLE_PROPERTIES
    from thetatopo.space import space_to_obj
    from thetatopo.survey import DiagramReport

    if n_max > LABELED_CAP:
        raise CapExceeded(f"diagram verification capped at {LABELED_CAP} points")
    tn = min(n_max, transfer_max)
    matrix = {
        f"{p} => {q}": {"holds": True, "counterexample": None}
        for p in DECIDABLE_PROPERTIES
        for q in DECIDABLE_PROPERTIES
        if p != q
    }
    counts: dict[int, int] = {}
    arrow_violations: list[dict] = []
    sw_spaces = 0
    sw_violations: list[dict] = []
    transfer_spaces: dict[int, list] = {}

    for n in range(1, n_max + 1):
        counts[n] = 0
        for rows in labeled_rows(n):
            counts[n] += 1
            verdicts, bad_arrows, sw_checked, sw_obj = _labeled_decide(rows, sw_bound)
            if n <= tn:
                transfer_spaces.setdefault(n, []).append((space_from_rows(rows), verdicts))
            if bad_arrows:
                arrow_violations.append(
                    {"space": space_to_obj(space_from_rows(rows)), "arrows": bad_arrows}
                )
            if sw_checked:
                sw_spaces += 1
                if sw_obj is not None:
                    sw_violations.append(
                        {"space": space_to_obj(space_from_rows(rows)), "witness": sw_obj}
                    )
            for p in DECIDABLE_PROPERTIES:
                if not verdicts[p]:
                    continue
                for q in DECIDABLE_PROPERTIES:
                    if q == p or verdicts[q]:
                        continue
                    entry = matrix[f"{p} => {q}"]
                    if entry["holds"]:
                        entry["holds"] = False
                        entry["counterexample"] = space_to_obj(space_from_rows(rows))

    scanned = 0
    qualifying = 0
    wtheta_violations: list[dict] = []
    sw_checks = 0
    sw_transfer_violations: list[dict] = []

    for n in range(1, tn + 1):
        spaces = transfer_spaces[n]
        perms = list(permutations(range(n)))
        for x, vx in spaces:
            found = labeled_sw_witness_search(x, sw_bound)
            for y, vy in spaces:
                for perm in perms:
                    scanned += 1
                    h = FinMap(x, y, perm)
                    if not classify_map(h).reaches("theta_weakly_discontinuous"):
                        continue
                    if not classify_map(h.inverse()).reaches("weakly_discontinuous"):
                        continue
                    qualifying += 1
                    if vy["w_theta_regular"] and not vx["w_theta_regular"]:
                        wtheta_violations.append(
                            {
                                "kind": "w_theta_regular",
                                "h": map_to_obj(h),
                            }
                        )
                    if found is not None:
                        f = found[1]
                        sw_checks += 1
                        mcc = classify_map(compose(h, f))
                        if not mcc.reaches("scatteredly_continuous") or mcc.reaches(
                            "weakly_discontinuous"
                        ):
                            sw_transfer_violations.append(
                                {
                                    "kind": "sw_witness",
                                    "h": map_to_obj(h),
                                    "f": map_to_obj(f),
                                    "composite_tier": mcc.tier,
                                }
                            )

    return DiagramReport(
        n_max=n_max,
        sw_bound=sw_bound,
        transfer_max=tn,
        counts=counts,
        arrow_violations=arrow_violations,
        sw_spaces_checked=sw_spaces,
        sw_violations=sw_violations,
        matrix=matrix,
        transfer_scanned=scanned,
        transfer_qualifying=qualifying,
        wtheta_transfer_violations=wtheta_violations,
        sw_transfer_checked=sw_checks,
        sw_transfer_violations=sw_transfer_violations,
    )


# ---------------------------------------------------------------------------
# Truncated hedgehog: member sets straight from the base formulas.
# ---------------------------------------------------------------------------

def hh_check_token(t, allow_fin: bool = False):
    """The hedgehog's token check before its fast path, kept as written:
    the reference the package's _check_token must agree with."""
    if isinstance(t, list):
        t = tuple(t)
    if not isinstance(t, tuple):
        raise MalformedToken(f"token must be a tuple, got {t!r}")
    if t == ():
        return t
    if len(t) == 1 and isinstance(t[0], int) and t[0] >= 1:
        return t
    if len(t) == 2 and t[0] == "fin":
        if allow_fin and isinstance(t[1], str):
            return t
        raise MalformedToken(f"finite-summand token {t!r} not valid here")
    if len(t) == 2 and all(isinstance(v, int) and v >= 1 for v in t):
        return t
    raise MalformedToken(f"not a well-formed token: {t!r}")


def hh_universe(limit: int) -> tuple:
    """All hedgehog tokens with indices up to the limit."""
    tokens = [()]
    tokens += [(n,) for n in range(1, limit + 1)]
    tokens += [(n, m) for n in range(1, limit + 1) for m in range(1, limit + 1)]
    return tuple(tokens)


def hh_members(b, limit: int) -> frozenset:
    """Token set of a basic-set descriptor, truncated at the limit.

    Reads only the descriptor's parameters; membership follows the base
    formulas for the three kinds of basic sets.
    """
    kind = type(b).__name__
    if kind == "Singleton":
        return frozenset([(b.n, b.m)])
    if kind == "StalkBase":
        return frozenset([(b.n,)]) | frozenset(
            (b.n, j) for j in range(b.m, limit + 1)
        )
    if kind == "RootBase":
        tips = frozenset(
            (i, j)
            for i in range(b.n, limit + 1)
            for j in range(1, limit + 1)
        )
        return frozenset([()]) | tips
    if kind == "MappedSet":
        raise AssertionError("relabeled sets have no direct member formula")
    raise AssertionError(f"unexpected descriptor {b!r}")


def hh_base_members(t, k: int, limit: int) -> frozenset:
    """Members of the k-th basic neighborhood of token t, truncated."""
    if t == ():
        return frozenset([()]) | frozenset(
            (i, j)
            for i in range(k + 1, limit + 1)
            for j in range(1, limit + 1)
        )
    if len(t) == 1:
        n = t[0]
        return frozenset([(n,)]) | frozenset((n, j) for j in range(k + 1, limit + 1))
    return frozenset([t])


def hh_brute_closure_contains(b, t, depth: int) -> bool:
    """t adheres to b, decided by intersecting truncated member sets.

    Any nonempty intersection of base sets with parameters at most depth has
    a witness with indices at most depth + 1, so the truncation at
    depth + 1 is exact for such descriptors and tokens.
    """
    limit = depth + 1
    target = hh_members(b, limit)
    return all(hh_base_members(t, k, limit) & target for k in range(depth + 1))


def hh_least_pick(a, b, limit: int, fwd: dict | None = None):
    """Least visible token of cl(a) minus b, or None, where hidden stalk n
    shows as fwd.get(n, n); a and b are hidden basic sets.

    Relabels the truncated universe and orders the visible tokens root,
    stalks, tips, in index order within a kind. Exact when fwd moves only
    indices up to the limit and the least answer has indices at most the
    limit, as for parameters at most limit - 2.
    """
    fwd = fwd or {}
    blocked = frozenset() if b is None else hh_members(b, limit)
    found = [
        (fwd.get(t[0], t[0]),) + t[1:] if t else t
        for t in hh_universe(limit)
        if hh_brute_closure_contains(a, t, limit) and t not in blocked
    ]
    return min(found, key=lambda t: (len(t), t), default=None)
