"""The four benchmark workloads: inputs, job lists and output checks.

Every job goes through a module attribute of thetatopo (`maps.classify_map`,
`cli.main`, ...) rather than a name imported here, so the traced run can
rebind those attributes from outside the package.

A workload is driven in repetitions ("reps"). One rep runs the whole job
list once, closed loop: one client, each job starts after the previous one
finished. Each job is one op; `Recorder.op` times it and keeps its result,
and `check` compares the results of a rep afterwards, outside the timed
region. The size of each job list is fixed per workload; `tiny=True` shrinks
it for the self-tests only.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
import sys
import time
import traceback
from pathlib import Path

from thetatopo import cli, decomposition, maps, regularity, space

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text(encoding="utf-8"))

_FAILED = object()


class Recorder:
    """Times the ops of one rep and keeps their results in op order.

    An op that raises is logged to stderr and counted as failed; expected
    outcomes such as a stalled decomposition are results, not exceptions.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.results: list = []
        self.failed: set[int] = set()

    def op(self, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                out = self.tracer.call("bench." + name, fn, *args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed.add(len(self.results))
            out = _FAILED
        self.starts.append(t0)
        self.latencies.append(time.perf_counter() - t0)
        self.results.append(out)
        return out


def digest(parts) -> str:
    h = hashlib.sha256()
    for t in parts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`topo <argv>` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def texts(results) -> list[str]:
    return [r[1] if isinstance(r, tuple) else "" for r in results]


class _Fixed:
    """A workload whose job list does not depend on the seed: an exhaustive
    sweep has one input, the whole space. Its rendered output is compared
    with the digest in digests.json, recorded from the package as it stood
    when the benchmark was added."""

    name = ""

    def __init__(self, tiny: bool = False):
        self.size = "tiny" if tiny else "full"

    def inputs(self, seed: int):
        return None

    def expected_digest(self) -> str:
        return DIGESTS[self.size][self.name]

    def check(self, inputs, rec: Recorder, oracles: bool) -> set[int]:
        bad = set(rec.failed)
        for i, r in enumerate(rec.results):
            if r is _FAILED or not self.op_ok(i, r):
                bad.add(i)
        if not bad and digest(texts(rec.results)) != self.expected_digest():
            print(f"{self.name}: output digest differs from the recorded one", file=sys.stderr)
            bad.update(range(len(rec.results)))
        return bad

    def op_ok(self, i: int, result) -> bool:
        return result[0] == 0


class Diagram(_Fixed):
    name = "diagram"

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.n_max = 3 if tiny else 5
        self.counts = {"1": 1, "2": 4, "3": 29, "4": 355, "5": 6942}
        self.counts = {k: v for k, v in self.counts.items() if int(k) <= self.n_max}

    def argv(self) -> list[str]:
        return [
            "verify-diagram", "--max-n", str(self.n_max), "--sw-bound", "3",
            "--transfer-max", "3", "--workers", "1", "--json",
        ]

    def rep(self, inputs, rec: Recorder) -> None:
        rec.op("verify_diagram", run_cli, self.argv())

    def op_ok(self, i: int, result) -> bool:
        rc, text = result
        if rc != 0:
            return False
        obj = json.loads(text)
        return (
            obj["counts"] == self.counts
            and obj["transfer_scanned"] == 5079
            and obj["transfer_qualifying"] == 583
            and obj["verdict"] == "PASS"
        )


_SPACE_LINE = re.compile(r"(\w+):\{([\w,]*)\}")


def parse_space_line(line: str) -> dict:
    """`{0:{0},1:{0,1}}` as printed by `topo enumerate` -> a space object."""
    pairs = _SPACE_LINE.findall(line[1:-1])
    return {
        "points": [a for a, _ in pairs],
        "min_nbhds": {a: body.split(",") if body else [] for a, body in pairs},
    }


class Census(_Fixed):
    name = "census"

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.n = 4 if tiny else 6
        self.labeled, self.classes = (355, 33) if tiny else (209527, 718)

    def rep(self, inputs, rec: Recorder) -> None:
        n = str(self.n)
        rec.op("enumerate_count", run_cli, ["enumerate", "-n", n, "--count", "--workers", "1"])
        out = rec.op("enumerate_homeo", run_cli, ["enumerate", "-n", n, "--homeo"])
        rec.op("class_deciders", _class_deciders, out[1] if out is not _FAILED else "")
        for where in ("scattered && !regular", "w_theta_regular && !regular"):
            rec.op("search", run_cli, ["search", "--where", where, "--max-n", n])

    def op_ok(self, i: int, result) -> bool:
        if i == 0:
            return result == (0, f"{self.labeled}\n")
        if i == 1:
            return result[0] == 0 and result[1].count("\n") == self.classes
        if i == 3:
            return result == (0, "found (n = 2): {0:{0},1:{0,1}}\n")
        if i == 4:
            return result == (0, f"no space with at most {self.n} points matches\n")
        return result[0] == 0


def _class_deciders(listing: str) -> tuple[int, str]:
    """Verdicts plus both kernel decompositions of every space printed by
    `topo enumerate`. The status counts the spaces whose residues disagree
    with the matching verdicts."""
    disagreements = 0
    parts = []
    for line in listing.splitlines():
        s = space.space_from_obj(parse_space_line(line))
        verdicts, witnesses = regularity.property_verdicts(s)
        td = decomposition.theta_decomposition(s)
        od = decomposition.open_decomposition(s)
        disagreements += (
            td.exhausted != verdicts["theta_weakly_regular"]
            or od.exhausted != verdicts["weakly_regular"]
        )
        parts += [json.dumps([verdicts, witnesses], sort_keys=True), td.to_text(), od.to_text()]
    return disagreements, "\n".join(parts)


class Hedgehog(_Fixed):
    name = "hedgehog"
    SPACES = ("hedgehog", "permuted:3,1,2", "sum:discrete3")

    def __init__(self, tiny: bool = False):
        super().__init__(tiny)
        self.profile_depth, self.embed_depth = (20, 5) if tiny else (200, 40)

    def rep(self, inputs, rec: Recorder) -> None:
        rec.op("profile", run_cli, ["hedgehog", "profile", "--depth", str(self.profile_depth), "--json"])
        for spec in self.SPACES:
            rec.op(
                "embed", run_cli,
                ["hedgehog", "embed", "--depth", str(self.embed_depth), "--space", spec, "--json"],
            )

    def op_ok(self, i: int, result) -> bool:
        rc, text = result
        if rc != 0:
            return False
        obj = json.loads(text)
        return (obj["verdict"] if i == 0 else obj["verification"]["verdict"]) == "pass"


# ---------------------------------------------------------------------------
# interactive: a seeded stream of single-object commands.
# ---------------------------------------------------------------------------

DENSITIES = (0.2, 0.35, 0.5)
ORACLE_EVERY = 25  # every 25th item is re-checked against tests/oracles.py
ORACLE_MAX_POINTS = 6


def random_rows(n: int, rng: random.Random, density: float) -> tuple[int, ...]:
    """Random reflexive rows closed under 'y in N(x) implies N(y) in N(x)'.
    Kept here, not taken from thetatopo.generate, so the inputs stay the
    same when the package changes."""
    rows = [
        1 << i | sum(1 << j for j in range(n) if j != i and rng.random() < density)
        for i in range(n)
    ]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = rows[i]
            for j in range(n):
                if m >> j & 1:
                    m |= rows[j]
            if m != rows[i]:
                rows[i] = m
                changed = True
    return tuple(rows)


def space_obj(rows: tuple[int, ...]) -> dict:
    names = [str(i) for i in range(len(rows))]
    return {
        "points": names,
        "min_nbhds": {a: [names[j] for j in range(len(rows)) if m >> j & 1] for a, m in zip(names, rows)},
    }


def _op_classify(obj: dict):
    report = regularity.classify_report(space.space_from_obj(obj), sw_bound=3)
    return report.verdicts, report.to_text()


def _op_decompose(obj: dict, theta: bool):
    """`topo decompose --witness`: the decomposition, then the witness map,
    which must exist exactly when the residue is empty."""
    s = space.space_from_obj(obj)
    dec = (decomposition.theta_decomposition if theta else decomposition.open_decomposition)(s)
    lines = [dec.to_text()]
    try:
        _, back = decomposition.weak_homeo_witness(s, theta=theta)
    except decomposition.ResidueNonEmpty as exc:
        lines.append(f"error: {exc}")
        witnessed = False
    else:
        lines.append("witness map: {" + ",".join(f"{a}->{back(a)}" for a in s.names) + "}")
        witnessed = True
    return (dec.exhausted, witnessed), "\n".join(lines)


def _op_fn_classify(obj: dict):
    mc = maps.classify_map(maps.map_from_obj(obj))
    return mc, maps.map_class_text(mc)


def _op_weak_homeo(obj: dict, theta: bool):
    result = maps.is_weak_homeomorphism(maps.map_from_obj(obj), theta=theta)
    kind = "θ-weak homeomorphism" if theta else "weak homeomorphism"
    return result, f"{kind}: {'true' if result else 'false'}"


def _witness_fails(obj: dict, mc) -> bool:
    """The witness of the tier that f just misses really fails that tier,
    re-checked on that one restriction with the continuity-set and kernel
    primitives instead of the classification sweep."""
    if mc.tier == "continuous":
        return True
    f = maps.map_from_obj(obj)
    dom = f.domain
    missed = maps.TIERS[maps.TIER_RANK[mc.tier] - 1]
    a = sum(1 << dom.index(name) for name in mc.witnesses[missed])
    if missed == "continuous":
        return a == dom.full_mask & ~maps.continuity_set_mask(f, dom.full_mask)
    c = maps.continuity_set_mask(f, a)
    if missed == "scatteredly_continuous":
        return c == 0
    if missed == "weakly_discontinuous":
        return space.interior_mask(dom, c, a) == 0
    return space.theta_open_part_mask(dom, c, a) == 0


def _reaches(tier: str, target: str) -> bool:
    return maps.TIER_RANK[tier] <= maps.TIER_RANK[target]


def load_oracles():
    """tests/oracles.py of the checkout, imported read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", Path("tests/oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_bijection(n: int, rng: random.Random, density: float) -> tuple[dict, dict]:
    """A random bijection f between two random spaces of n points, and f⁻¹."""
    x = space_obj(random_rows(n, rng, density))
    y = space_obj(random_rows(n, rng, density))
    perm = list(range(n))
    rng.shuffle(perm)
    f = {"domain": x, "codomain": y, "map": {str(i): str(p) for i, p in enumerate(perm)}}
    g = {"domain": y, "codomain": x, "map": {str(p): str(i) for i, p in enumerate(perm)}}
    return f, g


class Interactive:
    """About 8,000 single-object commands on random 3-8 point spaces.

    An item is a space (classify, decompose theta --witness, decompose open
    --witness) or a bijection item (fn classify f, fn classify f⁻¹, fn
    weak-homeo g, fn weak-homeo --theta h, with f, g, h drawn independently).
    No map of a bijection item is classified twice by the timed ops, so
    their classify_map keys repeat only where random maps collide; the sw
    search inside classify is what repeats keys. Every (size, density) cell
    holds the same number of items of each kind, in an order shuffled by the
    seed, so seeds differ in the spaces drawn but not in the mix of sizes,
    which sets most of the cost of an op."""

    name = "interactive"
    SPACE_OPS = 3
    MAP_OPS = 4

    def __init__(self, tiny: bool = False):
        # 18 cells x (74 x 3 + 56 x 4) ops = 8,028 ops per rep. p99 has 80 ops
        # beyond it; at 4,014 ops the p99 of ten seeds spread by about 0.2,
        # because it falls among the classify ops on 8 points.
        self.per_cell = (1, 1) if tiny else (74, 56)
        self.sizes = (3, 4) if tiny else tuple(range(3, 9))

    def inputs(self, seed: int) -> list[tuple]:
        rng = random.Random(seed)
        spaces, bijections = self.per_cell
        cells = [
            (kind, n, d)
            for n in self.sizes
            for d in DENSITIES
            for kind, count in (("space", spaces), ("bijection", bijections))
            for _ in range(count)
        ]
        rng.shuffle(cells)
        items: list[tuple] = []
        for kind, n, d in cells:
            if kind == "space":
                items.append(("space", space_obj(random_rows(n, rng, d))))
            else:
                items.append(("bijection", *(random_bijection(n, rng, d) for _ in range(3))))
        return items

    def rep(self, items, rec: Recorder) -> None:
        for item in items:
            if item[0] == "space":
                obj = item[1]
                rec.op("classify", _op_classify, obj)
                rec.op("decompose_theta", _op_decompose, obj, True)
                rec.op("decompose_open", _op_decompose, obj, False)
            else:
                (f, f_inv), (g, _), (h, _) = item[1:]
                rec.op("fn_classify", _op_fn_classify, f)
                rec.op("fn_classify", _op_fn_classify, f_inv)
                rec.op("fn_weak_homeo", _op_weak_homeo, g, False)
                rec.op("fn_weak_homeo", _op_weak_homeo, h, True)

    def check(self, items, rec: Recorder, oracles: bool) -> set[int]:
        """Cross-layer checks on every op, run after the rep; with `oracles`
        also a fixed sample of items against the brute-force oracles.

        A weak-homeo answer is compared with classify_map on the map and its
        inverse, computed here, outside the timed ops."""
        bad = set(rec.failed)
        oracle = load_oracles() if oracles else None
        res = rec.results
        i = 0
        for k, item in enumerate(items):
            width = self.SPACE_OPS if item[0] == "space" else self.MAP_OPS
            ops = res[i : i + width]
            sample = oracle is not None and k % ORACLE_EVERY == 0
            if any(r is _FAILED for r in ops):
                bad.update(range(i, i + width))
            elif item[0] == "space":
                verdicts = ops[0][0]
                for j, prop in ((1, "theta_weakly_regular"), (2, "weakly_regular")):
                    exhausted, witnessed = ops[j][0]
                    if exhausted != verdicts[prop] or witnessed != exhausted:
                        bad.add(i + j)
                if sample and len(item[1]["points"]) <= ORACLE_MAX_POINTS:
                    s = space.space_from_obj(item[1])
                    if any(fn(s) != verdicts[p] for p, fn in oracle.PROPERTY_ORACLES.items()):
                        bad.add(i)
            else:
                (f, f_inv), g, h = item[1:]
                for j, obj in ((0, f), (1, f_inv)):
                    if not _witness_fails(obj, ops[j][0]):
                        bad.add(i + j)
                    if sample and len(obj["map"]) <= ORACLE_MAX_POINTS:
                        if oracle.tier_oracle(maps.map_from_obj(obj)) != ops[j][0].tier:
                            bad.add(i + j)
                for j, pair, target in ((2, g, "weakly_discontinuous"), (3, h, "theta_weakly_discontinuous")):
                    tiers = [maps.classify_map(maps.map_from_obj(obj)).tier for obj in pair]
                    if ops[j][0] != all(_reaches(t, target) for t in tiers):
                        bad.add(i + j)
            i += width
        if i != len(res):
            bad.add(len(res) - 1)
        return bad


WORKLOADS = {"diagram": Diagram, "census": Census, "interactive": Interactive, "hedgehog": Hedgehog}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](tiny)
