import functools
import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import thetatopo
from thetatopo import maps, regularity
from thetatopo.space import FinSpace

# Child interpreters started by the tests import the package this run imports.
_SRC = str(Path(thetatopo.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with empty classification and sw-witness caches, so
    no test reads an entry that an earlier one left."""
    maps._classify.cache_clear()
    regularity._sw_shape_search.cache_clear()


@pytest.fixture
def memo_oracles(monkeypatch):
    """The oracles module with its pure building blocks memoized for one
    test. Every oracle still decides from the definitions; the ones that
    call all_opens, cl_oracle or theta_open_oracle by name just stop
    recomputing them."""
    import oracles

    for name in ("all_opens", "cl_oracle", "theta_open_oracle"):
        monkeypatch.setattr(oracles, name, functools.cache(getattr(oracles, name)))
    return oracles


def repaired_space(n: int, raw_masks: list[int]) -> FinSpace:
    """Build a valid space from arbitrary masks: force the self bit, then
    close each row under the rows of its members until nothing grows."""
    full = (1 << n) - 1
    rows = [(raw_masks[i] | 1 << i) & full for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = rows[i]
            m = rows[i]
            while m:
                low = m & -m
                merged |= rows[low.bit_length() - 1]
                m ^= low
            if merged != rows[i]:
                rows[i] = merged
                changed = True
    return FinSpace(tuple(str(i) for i in range(n)), tuple(rows))


@st.composite
def spaces(draw, min_points: int = 1, max_points: int = 5):
    n = draw(st.integers(min_points, max_points))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return repaired_space(n, masks)


@st.composite
def space_pairs(draw, max_points: int = 4):
    return draw(spaces(max_points=max_points)), draw(spaces(max_points=max_points))


@st.composite
def maps_between(draw, max_points: int = 4):
    from thetatopo.maps import FinMap

    x, y = draw(space_pairs(max_points))
    img = draw(
        st.tuples(*(st.integers(0, len(y) - 1) for _ in range(len(x))))
    )
    return FinMap(x, y, img)


@st.composite
def seeded_rngs(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))
