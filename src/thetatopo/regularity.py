"""Regularity variants for finite spaces, with witnesses.

Every decider reduces its quantifier to minimal neighborhoods where that is
exact, and otherwise scans subsets in sorted-index-tuple order so the first
failure found is the least witness. The four deciders that scan subspaces
first test for a partition space, where their property holds outright (see
is_partition_space). The kernel operations used by the decomposition module
live here too: the union of all (theta-)open regular subspaces of a subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, NamedTuple

from .bitset import bits, subsets_lex
from .generate import homeo_rows, space_from_rows
from .maps import FinMap, classify_map, image_ok_masks, map_to_obj
from .space import (
    CapExceeded,
    FinSpace,
    TopologyError,
    closure_mask,
    closure_rows,
    format_names,
    is_open_mask,
    theta_components,
    theta_step,
)

# Properties a finite space either has or lacks, in report order. The search
# grammar exposes exactly these names.
DECIDABLE_PROPERTIES = (
    "regular",
    "locally_regular",
    "quasi_regular",
    "hereditarily_quasi_regular",
    "weakly_regular",
    "theta_weakly_regular",
    "w_theta_regular",
    "scattered",
    "t1",
)
REPORT_PROPERTIES = DECIDABLE_PROPERTIES + ("nowhere_regular",)

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

PROPERTY_CAP = 10
SW_BOUND_CAP = 4


def arrow_name(premises: tuple[str, ...], conclusion: str) -> str:
    return " && ".join(premises) + " => " + conclusion


# ---------------------------------------------------------------------------
# Least-witness deciders. Each returns None when the property holds, else its
# least witness: a point index, a mask, or (for w_theta_regular) a mask pair.
# ---------------------------------------------------------------------------

def regular_at_mask(space: FinSpace, x: int, within: int | None = None) -> bool:
    """Every relatively open set containing x contains a closed neighborhood
    of x; the closure of the minimal neighborhood is the smallest candidate,
    so it must already fit inside the minimal neighborhood."""
    w = space.full_mask if within is None else within
    nb = space.nbhd[x] & w
    return closure_mask(space, nb, w) & ~nb == 0


def is_regular_mask(space: FinSpace, a: int) -> bool:
    return all(regular_at_mask(space, x, a) for x in bits(a))


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


def quasi_regular_witness(space: FinSpace, within: int | None = None) -> int | None:
    """Least relatively open set (in the subspace on `within`) that contains
    the relative closure of no non-empty relatively open set. Minimal
    neighborhoods suffice on both sides (shrinking the inner set and the
    outer set only helps), so the witness is a minimal piece."""
    a = space.full_mask if within is None else within
    rows = closure_rows(space, a)
    pieces = [rows[x] for x in bits(a)]
    for x in bits(a):
        target = space.nbhd[x] & a
        if not any(cl & ~target == 0 for cl in pieces):
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
    clopen regular components is their topological sum, which is regular."""
    out = 0
    for comp in theta_components(space, a, a):
        if is_regular_mask(space, comp):
            out |= comp
    return out


def open_kernel_mask(space: FinSpace, a: int) -> int:
    """Union of all relatively open regular subspaces of a. A relatively open
    regular set is a union of regular minimal pieces, so those suffice."""
    out = 0
    for x in bits(a):
        m = space.nbhd[x] & a
        if is_regular_mask(space, m):
            out |= m
    if out:
        if not is_open_mask(space, out, a) or not is_regular_mask(space, out):
            raise TopologyError("internal: open kernel lost openness or regularity")
    return out


def is_partition_space(space: FinSpace) -> bool:
    """Whether the minimal neighborhoods partition the points (y in N(x)
    implies x in N(y)). Then so do those of each subspace a: its pieces
    N(x) & a are clopen in a, so each is its own closure and a component of
    the closure relation on a, and a closed a is open, regular and the union
    of its regular components, so both kernels of a are a. Hence
    hereditarily_quasi_regular, weakly_regular, theta_weakly_regular and
    w_theta_regular all hold."""
    return space.up == space.nbhd


def _closed_nonempty_lex(space: FinSpace):
    full = space.full_mask
    for a in subsets_lex(full):
        if is_open_mask(space, full & ~a):
            yield a


def weakly_regular_witness(space: FinSpace) -> int | None:
    """Least non-empty closed subset with no non-empty relatively open
    regular subspace, or None."""
    if is_partition_space(space):
        return None
    for a in _closed_nonempty_lex(space):
        if open_kernel_mask(space, a) == 0:
            return a
    return None


def theta_weakly_regular_witness(space: FinSpace) -> int | None:
    if is_partition_space(space):
        return None
    for a in _closed_nonempty_lex(space):
        if theta_kernel_mask(space, a) == 0:
            return a
    return None


def w_theta_regular_witness(space: FinSpace) -> tuple[int, int] | None:
    """Least (subspace, relatively open set) such that the open set contains
    no non-empty theta-open-in-the-subspace subset. Relatively open sets are
    unions of minimal pieces, so checking the pieces is exact.

    A piece u = N(x) & a lies inside the component of x in a, since each
    y in u lies in N(y) & N(x) & a. Its theta-open part is the union
    of the components inside u, so it is non-empty iff u is that component,
    iff u is theta-open: one step over the closure_rows table of a."""
    if is_partition_space(space):
        return None
    nbhd = space.nbhd
    for a in subsets_lex(space.full_mask):
        rows = closure_rows(space, a)
        for x in bits(a):
            u = nbhd[x] & a
            if theta_step(rows, u) != u:
                return a, u
    return None


def hereditarily_quasi_regular_witness(space: FinSpace) -> int | None:
    if is_partition_space(space):
        return None
    for a in subsets_lex(space.full_mask):
        if quasi_regular_witness(space, a) is not None:
            return a
    return None


# ---------------------------------------------------------------------------
# The one decider per property. Every verdict, predicate and report reads it.
# ---------------------------------------------------------------------------

class Decider(NamedTuple):
    """find returns the least witness or None; fields name the report keys
    of the witness parts in order. A "point" part is a point index, any
    other part a mask reported as its point list."""

    find: Callable[[FinSpace], object]
    fields: tuple[str, ...]


# In REPORT_PROPERTIES order, which is the report order.
DECIDERS: dict[str, Decider] = {
    "regular": Decider(regular_witness, ("point",)),
    "locally_regular": Decider(locally_regular_witness, ("point",)),
    "quasi_regular": Decider(quasi_regular_witness, ("open",)),
    "hereditarily_quasi_regular": Decider(hereditarily_quasi_regular_witness, ("subspace",)),
    "weakly_regular": Decider(weakly_regular_witness, ("closed_subspace",)),
    "theta_weakly_regular": Decider(theta_weakly_regular_witness, ("closed_subspace",)),
    "w_theta_regular": Decider(w_theta_regular_witness, ("subspace", "open")),
    "scattered": Decider(scattered_witness, ("subspace",)),
    "t1": Decider(t1_witness, ("point",)),
    "nowhere_regular": Decider(nowhere_regular_witness, ("point",)),
}


def has_property(space: FinSpace, prop: str) -> bool:
    """Whether the space has prop, one of REPORT_PROPERTIES."""
    return DECIDERS[prop].find(space) is None


def is_regular(space: FinSpace) -> bool:
    return has_property(space, "regular")


def is_locally_regular(space: FinSpace) -> bool:
    return has_property(space, "locally_regular")


def is_quasi_regular(space: FinSpace) -> bool:
    return has_property(space, "quasi_regular")


def is_hereditarily_quasi_regular(space: FinSpace) -> bool:
    return has_property(space, "hereditarily_quasi_regular")


def is_weakly_regular(space: FinSpace) -> bool:
    return has_property(space, "weakly_regular")


def is_theta_weakly_regular(space: FinSpace) -> bool:
    return has_property(space, "theta_weakly_regular")


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


def sw_witness_search(
    space: FinSpace, max_domain_size: int = 3
) -> tuple[FinSpace, FinMap] | None:
    """Search all finite domains Z up to the bound and all maps f: Z -> X for
    a scatteredly continuous map that is not weakly discontinuous. A hit
    disproves that every scatteredly continuous map into X is weakly
    discontinuous; exhausting the bound proves nothing.

    The answer is the first hit over labeled domains in ascending row order,
    then maps in product order, but only canonical domains are scanned: if
    a labeled Z admits a witness f, its relabeling sigma Z admits f o
    sigma^-1, so whole classes admit one or none, and the first labeled
    domain that does is its class's least labeling. Within a domain a map is
    classified through its ok_masks key alone, so only the first map of
    each new key goes to classify_map.

    Images range over reps, the least point of each distinct row of
    space.nbhd, not over every point. ok_masks sees an image only through
    its minimal neighborhood (a lies in N(c) iff N(a) is inside N(c)), so
    replacing each coordinate of a tuple by the least point of its row
    lowers the tuple coordinatewise and keeps its key. Hence the first
    tuple of every key in product order is a tuple over reps: the same keys
    reach classify_map in the same order, and the witness is unchanged.
    """
    if max_domain_size > SW_BOUND_CAP:
        raise CapExceeded(f"witness search capped at domain size {SW_BOUND_CAP}")
    cod = space.nbhd
    reps = [x for x, row in enumerate(cod) if row not in cod[:x]]
    for n in range(1, max_domain_size + 1):
        for z in _sw_domains(n):
            seen = set()
            for img in product(reps, repeat=n):
                key = image_ok_masks(cod, img)
                if key in seen:
                    continue
                seen.add(key)
                f = FinMap(z, space, img)
                mc = classify_map(f)
                if mc.reaches("scatteredly_continuous") and not mc.reaches(
                    "weakly_discontinuous"
                ):
                    return z, f
    return None


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


def property_verdicts(
    space: FinSpace, max_points: int = PROPERTY_CAP
) -> tuple[dict[str, bool], dict[str, dict]]:
    """All decidable verdicts plus witnesses for the false ones."""
    if len(space) > max_points:
        raise CapExceeded(
            f"property sweeps scan 2^{len(space)} subsets; cap is {max_points} points"
        )
    verdicts: dict[str, bool] = {}
    witnesses: dict[str, dict] = {}
    for prop, (find, fields) in DECIDERS.items():
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


def classify_report(
    space: FinSpace, sw_bound: int = 3, max_points: int = PROPERTY_CAP
) -> PropertyReport:
    # Checked up front: the report of a regular space never runs the search.
    if sw_bound > SW_BOUND_CAP:
        raise CapExceeded(f"witness search capped at domain size {SW_BOUND_CAP}")
    verdicts, witnesses = property_verdicts(space, max_points)
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
