"""Finite topological spaces stored as minimal open neighborhoods.

A finite space is one bitmask per point: the smallest open set containing
that point. A set U is open iff it contains the minimal neighborhood of each
of its points, so closure, interior and the theta variants are short bit
sweeps. Spaces and point sets are immutable after construction; every
operation here is pure.

Relate z ~ x in a subspace w iff z lies in cl_w(N(x) & w), that is iff
N(z) & N(x) & w is non-empty:
  - the relation is reflexive and symmetric, so its connected components
    partition w;
  - s inside w is theta-open iff cl_w(N(x) & w) lies in s for each x in s,
    iff s is closed under ~, iff s is a union of components;
  - so the largest theta-open subset of s is the union of the components
    that lie inside s; a component and its complement are both
    theta-open, hence open, so each component is clopen in w.
theta_components grows those components one at a time, reading the up-rows
of the points it reaches, and drops a component as soon as it leaves s.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bitset import bits

POINT_CAP = 24


class TopologyError(Exception):
    """Base class for every error raised by this package."""


class MissingSelf(TopologyError):
    """A point is not a member of its own minimal neighborhood."""


class CoherenceViolation(TopologyError):
    """y lies in min_nbhd(x) but min_nbhd(y) is not contained in it."""


class UnknownPoint(TopologyError):
    """A point identifier that the space does not declare."""


class DuplicatePoint(TopologyError):
    """The same identifier declared twice."""


class ForeignSet(TopologyError):
    """A PointSet used with a space it does not belong to."""


class CapExceeded(TopologyError):
    """A size or depth cap was exceeded. The point cap is fixed by the
    bitmask encoding; the other caps bound exhaustive work."""


class InvalidOpenFamily(TopologyError):
    """An opens-form description that is not closed under union/intersection."""


class SpaceFormatError(TopologyError):
    """A malformed space or map description."""


@dataclass(frozen=True, slots=True, repr=False, init=False)
class FinSpace:
    """An immutable finite topological space.

    names holds the point identifiers in declaration order; bit i of any
    mask refers to names[i]. nbhd[i] is the bitmask of the minimal open
    neighborhood of point i. No space has more than POINT_CAP points, so
    no consumer checks the size again.
    """

    names: tuple[str, ...]
    nbhd: tuple[int, ...]
    _pos: dict[str, int] = field(compare=False)
    # up[y] = {x : y in N(x)}, built with the coherence check; not part of
    # ==, hash or pickling, which see names and nbhd only.
    up: tuple[int, ...] = field(compare=False)

    def __init__(self, names: Sequence[str], nbhd: Sequence[int]):
        names = tuple(names)
        nbhd = tuple(nbhd)
        if len(nbhd) > POINT_CAP:
            raise CapExceeded(f"{len(nbhd)} points exceeds the cap of {POINT_CAP}")
        if len(names) != len(nbhd):
            raise SpaceFormatError("one neighborhood mask per point required")
        full = (1 << len(names)) - 1
        for i, m in enumerate(nbhd):
            if m & ~full:
                raise SpaceFormatError(f"mask {m:#x} uses bits beyond the {len(names)} declared points")
            if not (m >> i) & 1:
                raise MissingSelf(f"point {names[i]!r} is missing from its own minimal neighborhood")
        up = [0] * len(nbhd)
        for i, m in enumerate(nbhd):
            rest = m
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if nbhd[j] & ~m:
                    raise CoherenceViolation(
                        f"{names[j]!r} lies in the minimal neighborhood of {names[i]!r} "
                        f"but its own minimal neighborhood is not contained there"
                    )
                up[j] |= 1 << i
                rest ^= low
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "nbhd", nbhd)
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(names)})
        if len(self._pos) != len(names):
            raise DuplicatePoint("point identifiers must be unique")

    def __reduce__(self):
        # A pickle carries only names and nbhd, and loading it re-validates
        # them through __init__.
        return (FinSpace, (self.names, self.nbhd))

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{a}:{format_names(self.names[j] for j in bits(m))}"
            for a, m in zip(self.names, self.nbhd)
        )
        return f"FinSpace({body})"

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownPoint(f"unknown point {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for a in names:
            m |= 1 << self.index(a)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in bits(mask))

    def subset(self, names: Iterable[str]) -> "PointSet":
        return PointSet(self, self.mask_of(names))

    def set_of(self, mask: int) -> "PointSet":
        if mask & ~self.full_mask:
            raise ForeignSet("mask uses bits beyond this space's points")
        return PointSet(self, mask)

    @property
    def empty(self) -> "PointSet":
        return PointSet(self, 0)

    @property
    def all(self) -> "PointSet":
        return PointSet(self, self.full_mask)


@dataclass(frozen=True, slots=True, repr=False)
class PointSet:
    """An immutable subset of one space's points, with exact set algebra."""

    space: FinSpace
    mask: int

    def _peer(self, other: "PointSet") -> int:
        if not isinstance(other, PointSet):
            raise TypeError(f"expected PointSet, got {type(other).__name__}")
        if other.space != self.space:
            raise ForeignSet("point sets belong to different spaces")
        return other.mask

    def __or__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.mask | self._peer(other))

    def __and__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.mask & self._peer(other))

    def __sub__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.mask & ~self._peer(other))

    def __le__(self, other: "PointSet") -> bool:
        return self.mask & ~self._peer(other) == 0

    def __ge__(self, other: "PointSet") -> bool:
        return self._peer(other) & ~self.mask == 0

    def __contains__(self, name: str) -> bool:
        return (self.mask >> self.space.index(name)) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.space.names_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def complement(self) -> "PointSet":
        return PointSet(self.space, self.space.full_mask & ~self.mask)

    def __repr__(self) -> str:
        return format_names(self)


def build_space(
    points: Sequence[str],
    min_nbhds: Mapping[str, Iterable[str]],
    max_points: int = POINT_CAP,
) -> FinSpace:
    """Validate and build a space from named minimal neighborhoods.

    Raises DuplicatePoint, UnknownPoint, MissingSelf, CoherenceViolation or
    CapExceeded (more than max_points points, checked before any per-point
    work; FinSpace refuses more than POINT_CAP whatever max_points says).
    """
    points = tuple(str(a) for a in points)
    if len(set(points)) != len(points):
        raise DuplicatePoint("point identifiers must be unique")
    if len(points) > max_points:
        raise CapExceeded(f"{len(points)} points exceeds the cap of {max_points}")
    pos = {a: i for i, a in enumerate(points)}
    for a in min_nbhds:
        if a not in pos:
            raise UnknownPoint(f"min_nbhds mentions undeclared point {a!r}")
    rows = []
    for a in points:
        if a not in min_nbhds:
            raise UnknownPoint(f"no minimal neighborhood given for {a!r}")
        m = 0
        for b in min_nbhds[a]:
            try:
                m |= 1 << pos[b]
            except (KeyError, TypeError):
                raise UnknownPoint(
                    f"minimal neighborhood of {a!r} mentions undeclared point {b!r}"
                ) from None
        rows.append(m)
    return FinSpace(points, rows)


# ---------------------------------------------------------------------------
# Mask-level operations. `within` restricts everything to the subspace on
# that mask (None means the whole space); this avoids building FinSpace
# objects inside quantifier loops.
# ---------------------------------------------------------------------------

def closure_mask(space: FinSpace, s: int, within: int | None = None) -> int:
    """The points of w whose minimal neighborhood meets s & w: the OR of the
    up-rows of the points of s & w, cut back to w."""
    w = space.full_mask if within is None else within
    s &= w
    up = space.up
    out = 0
    while s:
        low = s & -s
        out |= up[low.bit_length() - 1]
        s ^= low
    return out & w


def interior_mask(space: FinSpace, s: int, within: int | None = None) -> int:
    w = space.full_mask if within is None else within
    s &= w
    outside = w & ~s
    nbhd = space.nbhd
    out = 0
    rest = s
    while rest:
        low = rest & -rest
        if nbhd[low.bit_length() - 1] & outside == 0:
            out |= low
        rest ^= low
    return out


def is_open_mask(space: FinSpace, s: int, within: int | None = None) -> bool:
    w = space.full_mask if within is None else within
    if s & ~w:
        return False
    outside = w & ~s
    nbhd = space.nbhd
    rest = s
    while rest:
        low = rest & -rest
        if nbhd[low.bit_length() - 1] & outside:
            return False
        rest ^= low
    return True


def theta_components(space: FinSpace, s: int, within: int | None = None) -> Iterator[int]:
    """The connected components of the closure relation on w (see the module
    docstring) that lie inside s, in order of their least point of s.

    A component grows from a point of s by layers: the points of w that
    join it are those whose minimal neighborhood meets N(p) & w for a new
    member p, the up-rows of the points of N(p) & w, and each up-row is read
    at most once per component. Growth stops as soon as it reaches a point
    outside s.
    """
    w = space.full_mask if within is None else within
    s &= w
    nbhd = space.nbhd
    up = space.up
    rest = s
    while rest:
        comp = new = rest & -rest
        met = 0  # points of w whose up-rows are already in comp
        while new:
            pieces = 0
            while new:
                low = new & -new
                pieces |= nbhd[low.bit_length() - 1]
                new ^= low
            pieces &= w & ~met
            met |= pieces
            reach = 0
            while pieces:
                low = pieces & -pieces
                reach |= up[low.bit_length() - 1]
                pieces ^= low
            reach &= w
            if reach & ~s:
                comp |= reach
                break
            new = reach & ~comp
            comp |= reach
        else:
            yield comp
        rest &= ~comp


def theta_interior_mask(space: FinSpace, s: int, within: int | None = None) -> int:
    """One refinement step: the points of s whose minimal relative
    neighborhood has relative closure inside s."""
    w = space.full_mask if within is None else within
    s &= w
    nbhd = space.nbhd
    out = 0
    rest = s
    while rest:
        low = rest & -rest
        if closure_mask(space, nbhd[low.bit_length() - 1] & w, w) & ~s == 0:
            out |= low
        rest ^= low
    return out


def theta_open_part_mask(space: FinSpace, s: int, within: int | None = None) -> int:
    """The largest theta-open (relative to `within`) subset of s: the union
    of the components of w that lie inside s."""
    out = 0
    for comp in theta_components(space, s, within):
        out |= comp
    return out


def is_theta_open_mask(space: FinSpace, s: int, within: int | None = None) -> bool:
    """s is a subset of w on which one theta-interior step changes nothing."""
    w = space.full_mask if within is None else within
    return s & ~w == 0 and theta_interior_mask(space, s, w) == s


# ---------------------------------------------------------------------------
# PointSet-level operations (the public face of the mask functions).
# ---------------------------------------------------------------------------

def _own(space: FinSpace, s: PointSet) -> int:
    if s.space != space:
        raise ForeignSet("point set does not belong to this space")
    return s.mask


def closure(space: FinSpace, s: PointSet) -> PointSet:
    """Smallest closed superset: the points whose minimal neighborhood meets s."""
    return PointSet(space, closure_mask(space, _own(space, s)))


def interior(space: FinSpace, s: PointSet) -> PointSet:
    """Largest open subset: the points whose minimal neighborhood lies in s."""
    return PointSet(space, interior_mask(space, _own(space, s)))


def theta_interior(space: FinSpace, s: PointSet) -> PointSet:
    """Points of s whose minimal neighborhood has closure inside s.

    The minimal neighborhood is the optimal witness, so s is theta-open
    iff theta_interior(space, s) == s. The result itself need not be
    theta-open; see theta_open_part for the largest theta-open subset.
    """
    return PointSet(space, theta_interior_mask(space, _own(space, s)))


def theta_open_part(space: FinSpace, s: PointSet) -> PointSet:
    """The union of all theta-open subsets of s."""
    return PointSet(space, theta_open_part_mask(space, _own(space, s)))


def is_open(space: FinSpace, s: PointSet) -> bool:
    return is_open_mask(space, _own(space, s))


def is_closed(space: FinSpace, s: PointSet) -> bool:
    m = _own(space, s)
    return is_open_mask(space, space.full_mask & ~m)


def is_theta_open(space: FinSpace, s: PointSet) -> bool:
    return is_theta_open_mask(space, _own(space, s))


def subspace(space: FinSpace, a: PointSet) -> FinSpace:
    """The subspace on the points of a, keeping their names and order.

    Minimal neighborhoods relativize by intersection with a.
    """
    return subspace_on_mask(space, _own(space, a))


def subspace_on_mask(space: FinSpace, a: int) -> FinSpace:
    positions = list(bits(a))
    compress = {old: new for new, old in enumerate(positions)}
    rows = []
    for old in positions:
        m = 0
        for y in bits(space.nbhd[old] & a):
            m |= 1 << compress[y]
        rows.append(m)
    return FinSpace(tuple(space.names[i] for i in positions), rows)


def topological_sum(spaces: Sequence[FinSpace]) -> FinSpace:
    """Disjoint union; summands are clopen. Point names are namespaced by
    summand index ("0.a", "1.a", ...) so clashes cannot occur."""
    names: list[str] = []
    rows: list[int] = []
    offset = 0
    for i, sp in enumerate(spaces):
        names.extend(f"{i}.{a}" for a in sp.names)
        rows.extend(m << offset for m in sp.nbhd)
        offset += len(sp)
    return FinSpace(names, rows)


# ---------------------------------------------------------------------------
# JSON forms.
# ---------------------------------------------------------------------------

def space_to_obj(space: FinSpace) -> dict:
    return {
        "points": list(space.names),
        "min_nbhds": {a: list(space.names_of(m)) for a, m in zip(space.names, space.nbhd)},
    }


def space_from_obj(obj, max_points: int = POINT_CAP) -> FinSpace:
    """Parse either description form.

    {"points": [...], "min_nbhds": {...}} is the primary form.
    {"points": [...], "opens": [[...], ...]} is accepted after validating
    that the listed family contains the empty set and the whole point set
    and is closed under pairwise union and intersection; minimal
    neighborhoods are then read off as intersections of members.
    """
    if not isinstance(obj, dict) or "points" not in obj:
        raise SpaceFormatError('space description must be an object with a "points" list')
    points = obj["points"]
    if not isinstance(points, list) or not all(isinstance(a, str) for a in points):
        raise SpaceFormatError('"points" must be a list of strings')
    if "min_nbhds" in obj:
        nb = obj["min_nbhds"]
        if not isinstance(nb, dict) or not all(isinstance(v, list) for v in nb.values()):
            raise SpaceFormatError('"min_nbhds" must map each point to a list of points')
        return build_space(points, nb, max_points=max_points)
    if "opens" in obj:
        return _space_from_opens(points, obj["opens"], max_points)
    raise SpaceFormatError('space description needs "min_nbhds" or "opens"')


def _space_from_opens(points: list[str], opens, max_points: int) -> FinSpace:
    if len(set(points)) != len(points):
        raise DuplicatePoint("point identifiers must be unique")
    if len(points) > max_points:
        raise CapExceeded(f"{len(points)} points exceeds the cap of {max_points}")
    if not isinstance(opens, list):
        raise SpaceFormatError('"opens" must be a list of point lists')
    pos = {a: i for i, a in enumerate(points)}
    masks = set()
    for u in opens:
        if not isinstance(u, list):
            raise SpaceFormatError('"opens" must be a list of point lists')
        m = 0
        for a in u:
            try:
                m |= 1 << pos[a]
            except (KeyError, TypeError):
                raise UnknownPoint(f'"opens" mentions undeclared point {a!r}') from None
        masks.add(m)
    full = (1 << len(points)) - 1
    if 0 not in masks:
        raise InvalidOpenFamily("the empty set must be listed among the opens")
    if full not in masks:
        raise InvalidOpenFamily("the whole point set must be listed among the opens")
    listing = sorted(masks)
    for a in listing:
        for b in listing:
            if a | b not in masks:
                raise InvalidOpenFamily("family is not closed under union")
            if a & b not in masks:
                raise InvalidOpenFamily("family is not closed under intersection")
    rows = []
    for i in range(len(points)):
        m = full
        for u in listing:
            if (u >> i) & 1:
                m &= u
        rows.append(m)
    return FinSpace(points, rows)


def space_to_json(space: FinSpace) -> str:
    return json.dumps(space_to_obj(space), ensure_ascii=False)


def space_from_json(text: str) -> FinSpace:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFormatError(f"not valid JSON: {e}") from None
    return space_from_obj(obj)


def read_json(source: str | Path):
    """The JSON document in a file, or on stdin for "-"."""
    where = "stdin" if source == "-" else repr(str(source))
    try:
        text = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    except OSError as e:
        raise SpaceFormatError(f"cannot read {where}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFormatError(f"invalid JSON in {where}: {e}") from None


def format_names(names: Iterable[str]) -> str:
    return "{" + ",".join(names) + "}"


def format_space(space: FinSpace) -> str:
    body = ",".join(
        f"{a}:{format_names(space.names_of(m))}" for a, m in zip(space.names, space.nbhd)
    )
    return "{" + body + "}"


def format_mask(space: FinSpace, mask: int) -> str:
    return format_names(space.names_of(mask))


def row_formatter(n: int) -> Callable[[Sequence[int]], str]:
    """format_space of the space on points "0".."n-1" with minimal
    neighborhoods rows, for rows of length n, read from a per-n table of
    one string per point and mask, so no FinSpace is built: the rows must
    be a valid space, as the enumerators' rows are."""
    cells = [[f"{i}:{format_names(map(str, bits(m)))}" for m in range(1 << n)] for i in range(n)]
    return lambda rows: "{" + ",".join([c[m] for c, m in zip(cells, rows)]) + "}"
