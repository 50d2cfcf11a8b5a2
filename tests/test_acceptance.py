"""End-to-end acceptance checks, one test per headline guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.
"""

import json
import subprocess
import sys
import time
from itertools import product

from oracles import (
    open_family_rows,
    regular_oracle,
    submasks,
    theta_open_oracle,
)
from thetatopo.decomposition import (
    open_decomposition,
    theta_decomposition,
    weak_homeo_witness,
)
from thetatopo.generate import (
    canonical_rows,
    homeo_rows,
    labeled_rows,
    space_from_rows,
)
from thetatopo.hedgehog import (
    HedgehogOracle,
    SumOracle,
    PermutedOracle,
    certify_hedgehog_profile,
    embed_hedgehog,
    verify_embedding,
)
from thetatopo.maps import FinMap, classify_map, is_weak_homeomorphism
from thetatopo.regularity import (
    classify_report,
    is_regular,
    is_theta_weakly_regular,
    is_weakly_regular,
    property_verdicts,
)
from thetatopo.space import build_space
from thetatopo.survey import check_composition_laws, verify_diagram

SIERPINSKI = build_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]})
D_SPACE = build_space(["0", "1"], {"0": ["0"], "1": ["0", "1"]})
DISCRETE2 = build_space(["0", "1"], {"0": ["0"], "1": ["1"]})


def all_spaces(n_max):
    for n in range(1, n_max + 1):
        for rows in labeled_rows(n):
            yield space_from_rows(rows)


def test_01_sierpinski_profile():
    start = time.perf_counter()
    verdicts = classify_report(SIERPINSKI).verdicts
    assert verdicts["scattered"] is True
    assert verdicts["w_theta_regular"] is False
    assert verdicts["theta_weakly_regular"] is False
    assert verdicts["regular"] is False
    assert verdicts["quasi_regular"] is False
    assert verdicts["weakly_regular"] is True
    assert time.perf_counter() - start < 1.0


def test_02_doubleton_identity_is_weak_but_not_theta_weak():
    f = FinMap(D_SPACE, DISCRETE2, (0, 1))
    mc = classify_map(f)
    assert mc.tier == "weakly_discontinuous"
    assert mc.headline() == (
        "weakly_discontinuous (not θ-weakly discontinuous; witness A = {0,1})"
    )
    assert is_weak_homeomorphism(f) is True
    assert is_weak_homeomorphism(f, theta=True) is False


def test_03_diagram_holds_on_all_spaces_up_to_four_points():
    start = time.perf_counter()
    report = verify_diagram(n_max=4)
    elapsed = time.perf_counter() - start
    assert report.counts == {1: 1, 2: 4, 3: 29, 4: 355}
    assert report.arrow_violations == []
    assert report.sw_violations == []
    assert report.wtheta_transfer_violations == []
    assert report.sw_transfer_violations == []
    assert report.ok
    assert elapsed < 60.0


def test_04_theta_open_transitivity():
    violations = 0
    for sp in all_spaces(4):
        full = sp.full_mask
        for u in submasks(full):
            if u == 0 or not theta_open_oracle(sp, u, full):
                continue
            for v in submasks(u):
                if theta_open_oracle(sp, v, u) and not theta_open_oracle(sp, v, full):
                    violations += 1
    assert violations == 0


def test_05_composition_laws_exhaustive_and_randomized():
    small = check_composition_laws((2, 2, 2))
    assert small.mode == "exhaustive" and small.ok
    for lr in small.laws:
        if lr.asserted:
            assert lr.violations == 0

    big = check_composition_laws((4, 4, 4), samples=10000, seed=0)
    assert big.mode == "randomized" and big.triples == 10000 and big.ok
    for lr in big.laws:
        if lr.asserted:
            assert lr.violations == 0


def test_06_regular_side_collapses_the_ladder():
    spaces = list(all_spaces(3))
    regular = {sp.nbhd: regular_oracle(sp) for sp in spaces}
    for x in spaces:
        for y in spaces:
            for img in product(range(len(y)), repeat=len(x)):
                mc = classify_map(FinMap(x, y, img))
                if regular[x.nbhd]:
                    # Weak discontinuity upgrades to the theta form.
                    assert mc.reaches("weakly_discontinuous") == mc.reaches(
                        "theta_weakly_discontinuous"
                    )
                if regular[y.nbhd]:
                    # Scattered continuity upgrades to weak discontinuity.
                    assert mc.reaches("scatteredly_continuous") == mc.reaches(
                        "weakly_discontinuous"
                    )


def test_07_dual_enumerators_agree_on_frozen_counts():
    labeled_expected = (1, 4, 29, 355)
    homeo_expected = (1, 3, 9, 33)
    for n, want in enumerate(labeled_expected, start=1):
        by_nbhd = sorted(labeled_rows(n))
        by_opens = sorted(open_family_rows(n))
        assert len(by_nbhd) == want
        assert by_nbhd == by_opens
    for n, want in enumerate(homeo_expected, start=1):
        reps = list(homeo_rows(n))
        assert len(reps) == want
        assert {canonical_rows(rows) for rows in labeled_rows(n)} == set(reps)


def test_08_decomposition_coherence():
    for sp in all_spaces(4):
        td = theta_decomposition(sp)
        od = open_decomposition(sp)
        assert td.exhausted == is_theta_weakly_regular(sp)
        assert od.exhausted == is_weakly_regular(sp)
        for theta, dec in ((True, td), (False, od)):
            if not dec.exhausted:
                continue
            y, back = weak_homeo_witness(sp, theta=theta)
            assert is_weak_homeomorphism(back, theta=theta)
            assert is_regular(y)


def test_09_hedgehog_profile_and_embeddings():
    start = time.perf_counter()
    profile = certify_hedgehog_profile(50)
    assert profile.ok
    assert profile.witnesses == tuple(f"({k})" for k in range(1, 51))

    targets = [
        HedgehogOracle(),
        SumOracle(build_space(["0", "1", "2"], {n: [n] for n in "012"})),
        PermutedOracle({1: 2, 2: 1}),
    ]
    for oracle in targets:
        e = embed_hedgehog(oracle, depth=20)
        assert verify_embedding(oracle, e, 20)["verdict"] == "pass"
    assert time.perf_counter() - start < 5.0


def test_10_byte_identical_output_across_runs_and_workers():
    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "thetatopo.cli", *argv],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ("classify", "fixtures/sierpinski.json"),
        ("classify", "--json", "fixtures/indiscrete2.json"),
        ("fn", "classify", "fixtures/d_to_discrete.json"),
        ("fn", "weak-homeo", "--theta", "fixtures/x3_chain_iso.json"),
        ("fn", "compositions", "--sizes", "2,2,2"),
        ("decompose", "--mode", "open", "--witness", "fixtures/sierpinski.json"),
        ("enumerate", "-n", "3", "--json"),
        ("search", "--where", "scattered && !regular", "--json"),
        ("verify-diagram", "--max-n", "3"),
        ("hedgehog", "profile", "--depth", "10"),
        ("hedgehog", "embed", "--depth", "5", "--space", "sum:discrete3"),
    ]
    for argv in commands:
        assert run(*argv) == run(*argv)

    base = run("enumerate", "-n", "4")
    for w in ("2", "3"):
        assert run("enumerate", "-n", "4", "--workers", w) == base
    diagram = run("verify-diagram", "--max-n", "3", "--json")
    for w in ("2", "3"):
        assert run("verify-diagram", "--max-n", "3", "--workers", w, "--json") == diagram
