"""Finite maps between finite spaces and the discontinuity ladder.

A map is classified by quantifying over all non-empty restrictions A of its
domain: the continuity set C(f|A) must be non-empty (scatteredly continuous),
have non-empty interior in A (weakly discontinuous), or contain a non-empty
theta-open-in-A subset (theta-weakly discontinuous). Continuity of the whole
map tops the ladder. Witnesses are the least failing restriction under the
sorted-index-tuple order, so reports are reproducible. On finite spaces the
theta tier is continuity (see reaches), so no map has that tier.

The quantifier is decided without visiting the 2^n restrictions. Let
bad[x] = N(x) minus ok[x] (see ok_masks) and B(S) = {x in S : bad[x] meets
S}, the discontinuity points of f|S, so C(f|S) = S minus B(S). Each rung
has a pruning operator P with P(S) inside S, and S fails the rung iff
P(S) = S:

- scattered: P(S) = B(S). S fails iff C(f|S) is empty.
- weak: P(S) = {x in S : N(x) meets B(S)}. A point x of C(f|S) is interior
  iff its minimal relative neighborhood N(x) & S misses B(S), and P keeps
  every point of B(S), as x lies in N(x). So S fails iff int_S C(f|S) is
  empty.
- theta: P(S) = the union of the components of the closure relation on S
  (space.theta_components) that meet B(S). The theta-open subsets of S
  are the unions of components, so S fails iff no component lies inside
  C(f|S).

Each P is monotone: B(S) only grows with S, N(x) is fixed, and a component
of S lies inside a component of any larger set. So for fixpoints S_i,
S_i = P(S_i) lies in P(union of the S_i) for each i: every failing family
is closed under union. By Tarski's fixpoint theorem on the subsets of U,
the largest failing subset of U is the greatest fixpoint of P below U. It
is the limit of U, P(U), P(P(U)), ..., reached in at most |U| rounds: each
fixpoint F inside a term lies inside the next, since F = P(F). A set that
fails the weak rung fails the theta rung, because x and a point of
N(x) & B(S) lie in one component, and a set that fails the scattered rung
fails the weak one, because x lies in N(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping

from .bitset import bits, gfp, least_prefix
from .generate import space_from_rows
from .space import (
    FinSpace,
    ForeignSet,
    PointSet,
    SpaceFormatError,
    TopologyError,
    UnknownPoint,
    format_names,
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
TIER_LABELS = {
    "theta_weakly_discontinuous": "θ-weakly discontinuous",
    "weakly_discontinuous": "weakly discontinuous",
    "scatteredly_continuous": "scatteredly continuous",
}


@dataclass(frozen=True, slots=True, repr=False, init=False)
class FinMap:
    """A total point function between two finite spaces.

    img[i] is the codomain index of the image of domain point i.
    """

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
    cod = f.codomain.nbhd
    img = f.img
    n = len(img)
    out = []
    for x in range(n):
        target = cod[img[x]]
        m = 0
        for y in range(n):
            if (target >> img[y]) & 1:
                m |= 1 << y
        out.append(m)
    return tuple(out)


def continuity_set_mask(f: FinMap, a: int) -> int:
    """C(f|a) = a minus B(a), B the scattered operator of _pruners."""
    bad = _bad_rows(f.domain, ok_masks(f))
    return a & ~_pruners(f.domain, bad)["scatteredly_continuous"](a)


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
        # No map has the theta tier (see reaches): missed is a restriction tier.
        missed = TIERS[TIER_RANK[self.tier] - 1]
        witness = format_names(self.witnesses[missed])
        return f"{self.tier} (not {TIER_LABELS[missed]}; witness A = {witness})"


def classify_map(f: FinMap) -> MapClass:
    """Classify f from the greatest fixpoints of the three rungs (see the
    module docstring), or by the cached classification of an earlier map
    with the same domain rows and ok masks. Polynomial in the domain size."""
    tier, masks = _classify(f.domain.nbhd, ok_masks(f))
    return MapClass(tier, masks, f.domain.names)


def reaches(f: FinMap, tier: str) -> bool:
    """classify_map(f).reaches(tier), deciding only that tier. Continuity
    and the theta tier are one pass over the points: if f is discontinuous
    at x, then in A = N(x) each u has u in N(u) & N(x), so x lies in
    cl_A(N(u) & A), every non-empty theta-open subset of A contains x, and
    x is not in C(f|A). A weaker tier holds iff no restriction fails it,
    i.e. iff the greatest fixpoint of its rung's operator on the whole
    domain is empty. The classification cache is neither read nor
    written."""
    if tier == "none":
        return True
    bad = _bad_rows(f.domain, ok_masks(f))
    if TIER_RANK[tier] <= TIER_RANK["theta_weakly_discontinuous"]:
        return not any(bad)
    return not gfp(_pruners(f.domain, bad)[tier], f.domain.full_mask)


def _bad_rows(domain: FinSpace, ok: tuple[int, ...]) -> list[int]:
    """bad[x] = N(x) minus ok[x]: x is a continuity point of f|A iff A
    misses bad[x]."""
    return [m & ~o for m, o in zip(domain.nbhd, ok)]


def _pruners(domain: FinSpace, bad: list[int]) -> dict:
    """The pruning operators P of the restriction tiers (module docstring),
    strongest first: P(S) is a subset of S, and S fails the tier iff
    P(S) = S."""
    nbhd = domain.nbhd

    def unstable(s: int) -> int:  # B(s), the discontinuity set of f|s
        out = 0
        rest = s
        while rest:
            low = rest & -rest
            if bad[low.bit_length() - 1] & s:
                out |= low
            rest ^= low
        return out

    def weak(s: int) -> int:
        b = out = unstable(s)
        rest = s & ~b
        while rest:
            low = rest & -rest
            if nbhd[low.bit_length() - 1] & b:
                out |= low
            rest ^= low
        return out

    def theta(s: int) -> int:
        out = s
        for comp in theta_components(domain, s & ~unstable(s), s):
            out &= ~comp
        return out

    return {
        "theta_weakly_discontinuous": theta,
        "weakly_discontinuous": weak,
        "scatteredly_continuous": unstable,
    }


def _gray_least(prune, top: int) -> int:
    """The fixpoint of prune, given its largest one top, that comes first
    in the reflected Gray order x ^ (x >> 1) of the subsets of the domain.

    Bit i of a mask's Gray rank is the parity of its bits at and above i,
    so the rank's bits are fixed from the top. cur is the largest fixpoint
    that agrees with the bits fixed so far: if it lacks i, no such fixpoint
    holds i; if the preferred bit is 1, cur itself holds i; if it is 0,
    the largest fixpoint without i decides whether one agrees."""
    cur = top
    odd = 0
    for i in range(top.bit_length() - 1, -1, -1):
        bit = 1 << i
        if not cur & bit:
            continue
        if not odd:
            u = gfp(prune, cur & ~bit)
            if u and not (u ^ cur) >> (i + 1):
                cur = u
                continue
        odd ^= 1
    return cur


@lru_cache(maxsize=1024)
def _classify(nbhd: tuple[int, ...], ok: tuple[int, ...]) -> tuple[str, tuple[tuple[str, int], ...]]:
    """The tier and the (tier, least witness mask) pairs of any map out of a
    domain with these neighborhood rows and ok masks. Nothing else enters,
    so the cache holds no point names, and one entry serves every map with
    this key whatever its names or codomain.

    The pairs come in the order a walk over all subsets in the reflected
    Gray order would first meet a failing restriction of each tier, with
    "continuous" first and ties going scattered, weak, theta: the order of
    fn classify --json. Every failing set of a rung fails the rungs above,
    so each greatest fixpoint lies in the one above it, and a least
    witness that fails the next rung too is that rung's least witness."""
    domain = space_from_rows(nbhd)
    pruners = _pruners(domain, _bad_rows(domain, ok))
    jumps = pruners["scatteredly_continuous"](domain.full_mask)  # B(X), where f jumps
    if not jumps:
        return "continuous", ()
    failing = []  # (tier, operator, largest failing set), theta rung first
    top = domain.full_mask
    for tier, prune in pruners.items():
        top = gfp(prune, top)
        if not top:
            break
        failing.append((tier, prune, top))

    def chain(search) -> list[int]:
        out = []
        w = 0
        for _, prune, top in failing:
            if not (w and prune(w) == w):
                w = search(prune, top)
            out.append(w)
        return out

    least = chain(least_prefix)
    order = range(len(failing))
    if len(failing) > 1:
        # Each rung's failing sets fail the rung before it, so the
        # Gray-least witnesses never fall in Gray rank down the chain, and
        # two tie exactly when they are one set: a witness's first position
        # in the chain is its rank.
        gray = chain(_gray_least)
        order = sorted(order, key=lambda i: (gray.index(gray[i]), -i))
    masks = (("continuous", jumps),) + tuple((failing[i][0], least[i]) for i in order)
    return TIERS[len(failing) + 1], masks


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


def map_from_obj(obj, base_dir: Path | None = None) -> FinMap:
    """Parse {"domain": <space or path>, "codomain": <space or path>,
    "map": {point: point}}. Relative paths resolve against base_dir."""
    if not isinstance(obj, dict):
        raise SpaceFormatError("map description must be an object")
    for key in ("domain", "codomain", "map"):
        if key not in obj:
            raise SpaceFormatError(f'map description is missing "{key}"')
    dom, cod = (
        space_from_obj(read_json(Path(base_dir or "", v)) if isinstance(v, str) else v)
        for v in (obj["domain"], obj["codomain"])
    )
    if not isinstance(obj["map"], dict):
        raise SpaceFormatError('"map" must be an object mapping points to points')
    return build_map(dom, cod, obj["map"])
