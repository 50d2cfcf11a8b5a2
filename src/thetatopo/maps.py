"""Finite maps between finite spaces and the discontinuity ladder.

A map is classified by quantifying over all non-empty restrictions A of its
domain: the continuity set C(f|A) must be non-empty (scatteredly continuous),
have non-empty interior in A (weakly discontinuous), or contain a non-empty
theta-open-in-A subset (theta-weakly discontinuous). Continuity of the whole
map tops the ladder. Witnesses are the least failing restriction under the
sorted-index-tuple order, so reports are reproducible. On finite spaces the
theta tier is continuity (see reaches), so no map has that tier.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .bitset import bits, lex_less, subsets_gray
from .space import (
    POINT_CAP,
    CapExceeded,
    FinSpace,
    ForeignSet,
    PointSet,
    SpaceFormatError,
    TopologyError,
    UnknownPoint,
    format_names,
    interior_mask,
    read_json,
    space_from_obj,
    space_to_obj,
    theta_components,
)


class DomainMismatch(TopologyError):
    """Two maps or a map and a set that do not share the needed space."""


class BijectivityError(TopologyError):
    """An operation that needs a bijection got a non-bijective map."""


TIERS = (
    "continuous",
    "theta_weakly_discontinuous",
    "weakly_discontinuous",
    "scatteredly_continuous",
    "none",
)
TIER_RANK = {name: i for i, name in enumerate(TIERS)}
# Largest domain classify_map sweeps; it scans all 2^n restrictions.
CLASSIFY_CAP = 16
TIER_LABELS = {
    "continuous": "continuous",
    "theta_weakly_discontinuous": "θ-weakly discontinuous",
    "weakly_discontinuous": "weakly discontinuous",
    "scatteredly_continuous": "scatteredly continuous",
}


class FinMap:
    """A total point function between two finite spaces.

    img[i] is the codomain index of the image of domain point i.
    """

    __slots__ = ("domain", "codomain", "img")

    domain: FinSpace
    codomain: FinSpace
    img: tuple[int, ...]

    def __init__(self, domain: FinSpace, codomain: FinSpace, img: tuple[int, ...]):
        img = tuple(img)
        if len(img) != len(domain):
            raise SpaceFormatError("one image per domain point required")
        for i in img:
            if not 0 <= i < len(codomain):
                raise UnknownPoint(f"image index {i} outside the codomain")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "img", img)

    def __setattr__(self, *_):
        raise AttributeError("FinMap is immutable")

    def __reduce__(self):
        return (FinMap, (self.domain, self.codomain, self.img))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.img == other.img
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.img))

    def __call__(self, name: str) -> str:
        return self.codomain.names[self.img[self.domain.index(name)]]

    def __repr__(self) -> str:
        body = ", ".join(
            f"{a} -> {self.codomain.names[i]}" for a, i in zip(self.domain.names, self.img)
        )
        return f"FinMap({body})"

    def is_bijective(self) -> bool:
        return len(self.domain) == len(self.codomain) == len(set(self.img))

    def inverse(self) -> "FinMap":
        if not self.is_bijective():
            raise BijectivityError("only bijections can be inverted")
        back = [0] * len(self.img)
        for i, j in enumerate(self.img):
            back[j] = i
        return FinMap(self.codomain, self.domain, tuple(back))


def build_map(domain: FinSpace, codomain: FinSpace, assignment: Mapping[str, str]) -> FinMap:
    for a in assignment:
        domain.index(a)
    img = []
    for a in domain.names:
        if a not in assignment:
            raise UnknownPoint(f"no image given for domain point {a!r}")
        img.append(codomain.index(assignment[a]))
    return FinMap(domain, codomain, tuple(img))


def identity_map(space: FinSpace) -> FinMap:
    return FinMap(space, space, tuple(range(len(space))))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f."""
    if f.codomain != g.domain:
        raise DomainMismatch("codomain of the first map must be the domain of the second")
    return FinMap(f.domain, g.codomain, tuple(g.img[i] for i in f.img))


# ---------------------------------------------------------------------------
# Continuity sets.
# ---------------------------------------------------------------------------

def ok_masks(f: FinMap) -> tuple[int, ...]:
    """ok[x] = domain points whose image lies in the minimal neighborhood of
    f(x). x is a continuity point of f|A iff N(x) ∩ A ⊆ ok[x]: the minimal
    relative neighborhood is the best witness on both sides."""
    return image_ok_masks(f.codomain.nbhd, f.img)


def image_ok_masks(cod_nbhd: tuple[int, ...], img: tuple[int, ...]) -> tuple[int, ...]:
    """ok_masks of the map with image tuple img into a codomain with these
    minimal-neighborhood rows, without building or validating the map."""
    n = len(img)
    out = []
    for x in range(n):
        target = cod_nbhd[img[x]]
        m = 0
        for y in range(n):
            if (target >> img[y]) & 1:
                m |= 1 << y
        out.append(m)
    return tuple(out)


def continuity_set_mask(f: FinMap, a: int, ok: tuple[int, ...] | None = None) -> int:
    if ok is None:
        ok = ok_masks(f)
    nbhd = f.domain.nbhd
    out = 0
    for x in bits(a):
        if nbhd[x] & a & ~ok[x] == 0:
            out |= 1 << x
    return out


def continuity_points(f: FinMap, a: PointSet) -> PointSet:
    """The continuity points of the restriction of f to a."""
    if a.space != f.domain:
        raise ForeignSet("restriction set must live in the map's domain")
    return PointSet(f.domain, continuity_set_mask(f, a.mask))


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MapClass:
    """The strongest ladder tier a map reaches, plus least witnesses for the
    failed tiers. For the restriction tiers the witness is the least failing
    restriction A; for continuity it is the set of discontinuity points.

    witness_masks holds (tier, mask) pairs over the domain's points, named
    by `names`; `witnesses` builds the name tuples only when read."""

    tier: str
    witness_masks: tuple[tuple[str, int], ...]
    names: tuple[str, ...]

    @property
    def witnesses(self) -> dict[str, tuple[str, ...]]:
        return {t: tuple(self.names[i] for i in bits(m)) for t, m in self.witness_masks}

    def reaches(self, tier: str) -> bool:
        return TIER_RANK[self.tier] <= TIER_RANK[tier]

    def to_obj(self) -> dict:
        return {
            "tier": self.tier,
            "reaches": {t: self.reaches(t) for t in TIERS[:-1]},
            "witnesses": {t: list(w) for t, w in self.witnesses.items()},
        }

    def headline(self) -> str:
        if self.tier == "continuous":
            return "continuous"
        missed = TIERS[TIER_RANK[self.tier] - 1]
        witness = format_names(self.witnesses[missed])
        if missed == "continuous":
            return f"{self.tier} (not continuous; discontinuous on {witness})"
        return f"{self.tier} (not {TIER_LABELS[missed]}; witness A = {witness})"


# Sweep results keyed by (domain rows, ok_masks): the tier and every least
# witness mask depend on nothing else, so one entry serves every map with
# that key whatever its point names or codomain. The oldest entry goes
# first once the table holds MEMO_CAP entries, which keeps memory flat; an
# OrderedDict evicts in O(1), where a plain dict would scan past the holes
# that earlier evictions left at its front.
MEMO_CAP = 1024
_memo: OrderedDict[tuple, tuple[str, tuple[tuple[str, int], ...]]] = OrderedDict()


def classify_map(f: FinMap) -> MapClass:
    """Classify f by sweeping all non-empty restrictions of its domain, or
    by the memo entry of an earlier map with the same key. Exponential in
    the domain size, hence CLASSIFY_CAP."""
    key = _memo_key(f)
    found = _memo.get(key)
    if found is None:
        if len(_memo) >= MEMO_CAP:
            _memo.popitem(last=False)
        found = _memo[key] = _sweep(f.domain, key[1])
    return MapClass(found[0], found[1], f.domain.names)


def reaches(f: FinMap, tier: str) -> bool:
    """classify_map(f).reaches(tier), deciding only that tier. Continuity
    and the theta tier are one pass over the points: if f is discontinuous
    at x, then in A = N(x) each u has u in N(u) & N(x), so x lies in
    cl_A(N(u) & A), every non-empty theta-open subset of A contains x, and
    x is not in C(f|A). A weaker tier reads the memo entry of an earlier
    classify_map, or else sweeps only up to the first restriction that
    fails tier. The memo is never written."""
    key = _memo_key(f)
    if tier == "none":
        return True
    if TIER_RANK[tier] <= TIER_RANK["theta_weakly_discontinuous"]:
        full = f.domain.full_mask
        return continuity_set_mask(f, full, key[1]) == full
    found = _memo.get(key) or _sweep(f.domain, key[1], tier)
    return TIER_RANK[found[0]] <= TIER_RANK[tier]


def _memo_key(f: FinMap) -> tuple:
    n = len(f.domain)
    if n > CLASSIFY_CAP:
        raise CapExceeded(
            f"classification sweeps 2^{n} restrictions; cap is {CLASSIFY_CAP} points"
        )
    return f.domain.nbhd, ok_masks(f)


def _sweep(
    domain: FinSpace, ok: tuple[int, ...], stop: str | None = None
) -> tuple[str, tuple[tuple[str, int], ...]]:
    """The tier and the (tier, least witness mask) pairs of any map out of
    domain with these ok masks.

    Subsets run in Gray-code order so the per-point discontinuity counters
    update by one flip per step; witnesses are still selected globally as the
    least failing restriction under lex_less, independent of sweep order.
    A restriction A fails the theta tier iff no component of the closure
    relation on A lies inside the continuity set C(f|A), so the walk over
    those components stops at the first one it finds.

    With a restriction tier as stop, only the rungs down to stop are tested,
    and the sweep returns at the first restriction that fails stop, with
    the tier just below the failed rung and that restriction. The result
    then tells only whether the map reaches stop, not its tier or least
    witnesses.
    """
    n = len(domain)
    if n == 0:
        return "continuous", ()
    nbhd = domain.nbhd
    full = domain.full_mask

    # bad_src[p] = points x whose neighborhood gains a discontinuity witness
    # when p enters the restriction.
    bad_src = [0] * n
    for x in range(n):
        for p in bits(nbhd[x] & ~ok[x]):
            bad_src[p] |= 1 << x
    if not any(bad_src):  # N(x) lies in ok[x] for all x: every f|A is continuous
        return "continuous", ()

    bad_count = [0] * n
    calm = full  # points whose current restriction shows no bad neighbor
    c_full = 0
    fails: dict[str, int] = {}
    # The rungs tested are those of TIER_RANK >= depth: all three restriction
    # tiers, or stop and the weaker ones. failed is the TIER_RANK of the
    # weakest tier A fails; A then fails every restriction tier above it too.
    depth = TIER_RANK[stop] if stop is not None else 1

    def note(tier: str, a: int) -> None:
        cur = fails.get(tier)
        if cur is None or lex_less(a, cur):
            fails[tier] = a

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
            failed = 3
        elif depth <= 2 and interior_mask(domain, c, a) == 0:
            failed = 2
        elif depth <= 1 and next(theta_components(domain, c, a), 0) == 0:
            failed = 1
        else:
            continue
        if stop is not None:
            return TIERS[failed + 1], ((TIERS[failed], a),)
        for t in TIERS[failed:0:-1]:
            note(t, a)

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


def is_weak_homeomorphism(f: FinMap, theta: bool = False) -> bool:
    """True iff f is a bijection and f, f⁻¹ both reach the requested tier."""
    if not f.is_bijective():
        raise BijectivityError("weak homeomorphisms are bijections")
    tier = "theta_weakly_discontinuous" if theta else "weakly_discontinuous"
    return reaches(f, tier) and reaches(f.inverse(), tier)


def map_class_text(mc: MapClass) -> str:
    lines = [mc.headline()]
    for t in TIERS[:-1]:
        if mc.reaches(t):
            lines.append(f"{t}: true")
        elif t == "continuous":
            lines.append(f"{t}: false [witness: discontinuous on {format_names(mc.witnesses[t])}]")
        else:
            lines.append(f"{t}: false [witness: A = {format_names(mc.witnesses[t])}]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON forms.
# ---------------------------------------------------------------------------

def map_to_obj(f: FinMap) -> dict:
    return {
        "domain": space_to_obj(f.domain),
        "codomain": space_to_obj(f.codomain),
        "map": {a: f.codomain.names[i] for a, i in zip(f.domain.names, f.img)},
    }


def map_from_obj(obj, base_dir: Path | None = None, max_points: int = POINT_CAP) -> FinMap:
    """Parse {"domain": <space or path>, "codomain": <space or path>,
    "map": {point: point}}. Relative paths resolve against base_dir."""
    if not isinstance(obj, dict):
        raise SpaceFormatError("map description must be an object")
    for key in ("domain", "codomain", "map"):
        if key not in obj:
            raise SpaceFormatError(f'map description is missing "{key}"')
    dom, cod = (
        space_from_obj(
            read_json(Path(base_dir or "", v)) if isinstance(v, str) else v,
            max_points=max_points,
        )
        for v in (obj["domain"], obj["codomain"])
    )
    if not isinstance(obj["map"], dict):
        raise SpaceFormatError('"map" must be an object mapping points to points')
    return build_map(dom, cod, obj["map"])
