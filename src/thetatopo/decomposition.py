"""Kernel-iteration decompositions and their weak-homeomorphism witnesses.

Peeling the (theta-)open regular kernel off a space repeatedly either
exhausts it or stalls on a residue with an empty kernel. Exhaustion is
equivalent to (theta-)weak regularity, and the layers assemble into a
regular topological sum onto which the identity is a (theta-)weak
homeomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits
from .maps import FinMap, reaches
from .regularity import open_kernel_mask, theta_kernel_mask
from .space import (
    FinSpace,
    TopologyError,
    format_names,
    space_to_obj,
    subspace_on_mask,
    topological_sum,
)


class ResidueNonEmpty(TopologyError):
    """The decomposition stalled, so no witness onto a regular sum exists."""


@dataclass(frozen=True)
class Decomposition:
    space: FinSpace
    mode: str  # "theta" or "open"
    layers: tuple[int, ...]
    residue: int

    @property
    def exhausted(self) -> bool:
        return self.residue == 0

    @property
    def property_name(self) -> str:
        return "theta_weakly_regular" if self.mode == "theta" else "weakly_regular"

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "layers": [list(self.space.names_of(m)) for m in self.layers],
            "residue": list(self.space.names_of(self.residue)),
            self.property_name: self.exhausted,
        }

    def to_text(self) -> str:
        lines = [f"mode: {self.mode}"]
        for i, m in enumerate(self.layers, start=1):
            lines.append(f"layer {i}: {format_names(self.space.names_of(m))}")
        lines.append(f"residue: {format_names(self.space.names_of(self.residue))}")
        lines.append(f"{self.property_name}: {'true' if self.exhausted else 'false'}")
        return "\n".join(lines)


def _decompose(space: FinSpace, mode: str) -> Decomposition:
    kernel = theta_kernel_mask if mode == "theta" else open_kernel_mask
    layers: list[int] = []
    cur = space.full_mask
    while cur:
        k = kernel(space, cur)
        if k == 0:
            break
        layers.append(k)
        cur &= ~k
    return Decomposition(space, mode, tuple(layers), cur)


def theta_decomposition(space: FinSpace) -> Decomposition:
    """Iterate residue -> residue minus its theta-open regular kernel.

    The residue is empty iff the space is theta-weakly regular; each stage's
    residue is closed in the previous one, so at most n steps happen.
    """
    return _decompose(space, "theta")


def open_decomposition(space: FinSpace) -> Decomposition:
    """Same iteration with open regular kernels; exhaustion is equivalent to
    weak regularity."""
    return _decompose(space, "open")


def weak_homeo_witness(space: FinSpace, theta: bool = False) -> tuple[FinSpace, FinMap]:
    """Build the regular sum of the decomposition layers and the identity-on-
    points map onto it.

    Returns (Y, back) where Y is the topological sum of the layer subspaces
    and back: X -> Y sends x to its copy in its layer. The forward identity
    Y -> X is continuous and back is (theta-)weakly discontinuous; both facts
    are re-checked here before returning. On finite spaces the theta tier is
    continuity (maps.reaches), so with theta the check asks that back be a
    homeomorphism onto Y.
    """
    dec = _decompose(space, "theta" if theta else "open")
    if not dec.exhausted:
        raise ResidueNonEmpty(
            f"{dec.property_name} fails: kernel iteration stalled on "
            f"{format_names(space.names_of(dec.residue))}"
        )
    pieces = [subspace_on_mask(space, m) for m in dec.layers]
    y = topological_sum(pieces)
    # The sum lists the layers in order, each in its points' order.
    img = [0] * len(space)
    for j, x in enumerate(x for m in dec.layers for x in bits(m)):
        img[x] = j
    back = FinMap(space, y, img)

    tier = "theta_weakly_discontinuous" if theta else "weakly_discontinuous"
    if not reaches(back.inverse(), "continuous"):
        raise TopologyError("internal: sum-to-space identity is not continuous")
    if not reaches(back, tier):
        raise TopologyError(f"internal: witness map does not reach {tier}")
    return y, back
