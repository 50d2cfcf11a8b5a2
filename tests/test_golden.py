"""Frozen end-to-end outputs: each file under golden/ is the exact stdout of
one CLI invocation with exit code 0."""

from pathlib import Path

import pytest

from test_cli import run_cli

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "classify_sierpinski.txt": ["classify", "fixtures/sierpinski.json"],
    "classify_indiscrete2.txt": ["classify", "fixtures/indiscrete2.json"],
    "fn_classify_d_to_discrete.txt": ["fn", "classify", "fixtures/d_to_discrete.json"],
    "fn_classify_x3_chain_iso.txt": ["fn", "classify", "fixtures/x3_chain_iso.json"],
    # Misses all four tiers; pins the key order of the witnesses object.
    "fn_classify_json_fork_to_discrete.txt": [
        "fn",
        "classify",
        "--json",
        "fixtures/fork_to_discrete.json",
    ],
    "decompose_sierpinski_theta.txt": ["decompose", "fixtures/sierpinski.json"],
    "decompose_sierpinski_open_witness.txt": [
        "decompose",
        "--mode",
        "open",
        "--witness",
        "fixtures/sierpinski.json",
    ],
    "verify_diagram_n3.txt": ["verify-diagram", "--max-n", "3"],
    "compositions_222.txt": ["fn", "compositions", "--sizes", "2,2,2"],
    "hedgehog_profile_d5.txt": ["hedgehog", "profile", "--depth", "5"],
    "hedgehog_embed_d3.txt": ["hedgehog", "embed", "--depth", "3"],
    "enumerate_n3_homeo.txt": ["enumerate", "-n", "3", "--homeo"],
    # Pins the labeled stream's order at a size where the walk prunes.
    "enumerate_n4.txt": ["enumerate", "-n", "4"],
    "search_scattered_not_regular.txt": ["search", "--where", "scattered && !regular"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = run_cli(*CASES[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def test_every_golden_file_is_exercised():
    assert {p.name for p in GOLDEN_DIR.glob("*.txt")} == set(CASES)
