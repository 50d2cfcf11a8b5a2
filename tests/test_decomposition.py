import pytest
from hypothesis import given

from conftest import spaces
from oracles import (
    reaches_oracle,
    regular_oracle,
    theta_open_oracle,
    theta_weakly_regular_oracle,
    tier_oracle,
    weakly_regular_oracle,
)
from thetatopo.decomposition import (
    Decomposition,
    ResidueNonEmpty,
    open_decomposition,
    theta_decomposition,
    weak_homeo_witness,
)
from thetatopo.generate import labeled_rows, space_from_rows
from thetatopo.space import CapExceeded, build_space, is_open_mask, topological_sum

SIERPINSKI = build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})
INDISCRETE2 = build_space(["a", "b"], {"a": ["a", "b"], "b": ["a", "b"]})


def all_labeled(n_max):
    for n in range(1, n_max + 1):
        for rows in labeled_rows(n):
            yield space_from_rows(rows)


def check_coherence(sp, dec, theta):
    remaining = sp.full_mask
    for layer in dec.layers:
        assert layer != 0
        assert layer & ~remaining == 0
        # Each layer is the kernel of what was left: relatively (theta-)open
        # and regular as a subspace.
        if theta:
            assert theta_open_oracle(sp, layer, remaining)
        else:
            assert is_open_mask(sp, layer, remaining)
        assert regular_oracle(sp, layer)
        remaining &= ~layer
    assert dec.residue == remaining


# ---------------------------------------------------------------------------
# Kernel iteration.
# ---------------------------------------------------------------------------

def test_decomposition_coherent_exhaustively():
    for sp in all_labeled(4):
        td = theta_decomposition(sp)
        od = open_decomposition(sp)
        check_coherence(sp, td, theta=True)
        check_coherence(sp, od, theta=False)
        assert td.exhausted == theta_weakly_regular_oracle(sp)
        assert od.exhausted == weakly_regular_oracle(sp)


@given(spaces(max_points=5))
def test_decomposition_coherent_random(sp):
    td = theta_decomposition(sp)
    check_coherence(sp, td, theta=True)
    assert td.exhausted == theta_weakly_regular_oracle(sp)


def test_modes_and_properties():
    td = theta_decomposition(SIERPINSKI)
    assert td.mode == "theta" and td.property_name == "theta_weakly_regular"
    assert not td.exhausted and td.layers == () and td.residue == 0b11

    od = open_decomposition(SIERPINSKI)
    assert od.mode == "open" and od.property_name == "weakly_regular"
    assert od.exhausted and od.layers == (0b01, 0b10)


def test_text_and_obj_forms():
    assert theta_decomposition(SIERPINSKI).to_text() == "\n".join(
        ["mode: theta", "residue: {a,b}", "theta_weakly_regular: false"]
    )
    assert open_decomposition(SIERPINSKI).to_text() == "\n".join(
        [
            "mode: open",
            "layer 1: {a}",
            "layer 2: {b}",
            "residue: {}",
            "weakly_regular: true",
        ]
    )
    obj = open_decomposition(SIERPINSKI).to_obj()
    assert obj == {
        "mode": "open",
        "layers": [["a"], ["b"]],
        "residue": [],
        "weakly_regular": True,
    }


def test_cap():
    # The cap lives in FinSpace: a larger max_points cannot lift it.
    names = [str(i) for i in range(25)]
    with pytest.raises(CapExceeded, match="^25 points exceeds the cap of 24$"):
        build_space(names, {a: [a] for a in names}, max_points=25)
    # Twelve Sierpinski spaces, 24 points, decompose as one does.
    full = topological_sum([SIERPINSKI] * 12)
    assert open_decomposition(full).layers == (0x555555, 0xAAAAAA)
    assert theta_decomposition(full).residue == full.full_mask
    y, back = weak_homeo_witness(full)
    assert len(y) == 24
    assert back.img == tuple(j for i in range(12) for j in (i, 12 + i))


# ---------------------------------------------------------------------------
# Weak-homeomorphism witnesses.
# ---------------------------------------------------------------------------

def test_witness_maps_exhaustively():
    for sp in all_labeled(3):
        for theta in (False, True):
            dec = theta_decomposition(sp) if theta else open_decomposition(sp)
            if not dec.exhausted:
                with pytest.raises(ResidueNonEmpty):
                    weak_homeo_witness(sp, theta=theta)
                continue
            y, back = weak_homeo_witness(sp, theta=theta)
            assert back.domain == sp and back.codomain == y
            assert back.is_bijective()
            assert regular_oracle(y)
            # Forward identity continuous, backward map at the right tier.
            assert tier_oracle(back.inverse()) == "continuous"
            want = "theta_weakly_discontinuous" if theta else "weakly_discontinuous"
            assert reaches_oracle(back, want)


def test_witness_on_sierpinski():
    y, back = weak_homeo_witness(SIERPINSKI)
    assert y.names == ("0.a", "1.b")
    assert [back(a) for a in SIERPINSKI.names] == ["0.a", "1.b"]
    with pytest.raises(ResidueNonEmpty):
        weak_homeo_witness(SIERPINSKI, theta=True)


def test_witness_on_indiscrete():
    # Indiscrete spaces are already regular: a single layer, identity-like map.
    y, back = weak_homeo_witness(INDISCRETE2, theta=True)
    assert y.names == ("0.a", "0.b")
    assert tier_oracle(back) == "continuous"


def test_residue_error_message():
    with pytest.raises(ResidueNonEmpty, match="theta_weakly_regular fails"):
        weak_homeo_witness(SIERPINSKI, theta=True)
