"""Sweeps over enumerated spaces and maps.

Three entry points: find_space scans for the least space satisfying a
property predicate, verify_diagram checks every provable implication,
sw-witness exclusion, and transfer statement against all labeled spaces
up to a size bound, and check_composition_laws exercises the ladder
composition table either exhaustively or on randomized triples.

verify_diagram reports what a scan over every labeled space and every
bijection reports, but decides each homeomorphism class once and scans
the transfer statements over identity pairs. Its violation lists expand
the class and pair verdicts that detect them; nothing is re-scanned
labeling by labeling. tests/oracles.py keeps the labeled scan as the
reference. Every sweep runs in the calling process.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import permutations, product
from typing import Iterator

from .generate import (
    HOMEO_CAP,
    _orbit,
    homeo_classes,
    homeo_rows,
    labeled_rows,
    random_space,
    space_from_rows,
)
from .maps import FinMap, MapClass, classify_map, compose, map_to_obj, reaches
from .regularity import (
    DECIDABLE_PROPERTIES,
    REPORT_PROPERTIES,
    SW_SAFE_PREMISES,
    check_arrows,
    check_sw_bound,
    has_property,
    is_sw_witness,
    sw_witness_search,
)
from .space import CapExceeded, FinSpace, TopologyError, space_to_obj

# Largest --max-n of verify-diagram. The check walks homeomorphism
# classes, not labeled spaces, so it reaches one point past the labeled
# enumeration's cap: --max-n 7 takes 1.4-2.0 s, process start included
# (2-vCPU machine, Python 3.11).
DIAGRAM_CAP = 7
# Largest effective --transfer-max: the identity-pair scan is quadratic in
# the labeled spaces (126,025 pairs at 4 points, 48M at 5).
TRANSFER_CAP = 4

# ---------------------------------------------------------------------------
# Property predicates.
# ---------------------------------------------------------------------------


class ParseError(TopologyError):
    """Malformed property predicate."""


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("&&", i):
            out.append("&&")
            i += 2
        elif text.startswith("||", i):
            out.append("||")
            i += 2
        elif c in "!()":
            out.append(c)
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {c!r} at position {i}")
    return out


# Deepest predicate accepted. Depth counts each !, parenthesized group and
# && or || node on a path, with left-nested chains one level per operator,
# so the recursive parser and evaluator stay far from the recursion limit.
PREDICATE_DEPTH_CAP = 100


def parse_predicate(text: str) -> tuple:
    """Parse `! && || ( )` over property names into a nested-tuple AST.

    Nodes are ("prop", name), ("not", x), ("and", x, y), ("or", x, y);
    ! binds tightest, then &&, then ||. && and || nest to the left.
    """
    toks = _tokens(text)
    if not toks:
        raise ParseError("empty predicate")
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of predicate")
        t = toks[pos]
        if expected is not None and t != expected:
            raise ParseError(f"expected {expected!r}, got {t!r}")
        pos += 1
        return t

    def check(depth: int) -> int:
        if depth > PREDICATE_DEPTH_CAP:
            raise ParseError(f"predicate nested deeper than {PREDICATE_DEPTH_CAP} levels")
        return depth

    # Each parser takes the number of levels above it and returns its node
    # with the depth of the node's deepest leaf, counted from the top.
    def parse_or(above: int) -> tuple[tuple, int]:
        node, depth = parse_and(above)
        while pos < len(toks) and toks[pos] == "||":
            take()
            rhs, rdepth = parse_and(above)
            node, depth = ("or", node, rhs), check(max(depth, rdepth) + 1)
        return node, depth

    def parse_and(above: int) -> tuple[tuple, int]:
        node, depth = parse_unary(above)
        while pos < len(toks) and toks[pos] == "&&":
            take()
            rhs, rdepth = parse_unary(above)
            node, depth = ("and", node, rhs), check(max(depth, rdepth) + 1)
        return node, depth

    def parse_unary(above: int) -> tuple[tuple, int]:
        here = check(above + 1)
        t = take()
        if t == "!":
            node, depth = parse_unary(here)
            return ("not", node), depth
        if t == "(":
            node, depth = parse_or(here)
            take(")")
            return node, depth
        if t in REPORT_PROPERTIES:
            return ("prop", t), here
        raise ParseError(
            f"unknown property {t!r}; choose from " + ", ".join(REPORT_PROPERTIES)
        )

    try:
        node, _ = parse_or(0)
    finally:
        # The three parsers refer to each other; dropping the names frees
        # them when the parse ends, also when it raises.
        del parse_or, parse_and, parse_unary
    if pos != len(toks):
        raise ParseError(f"trailing input at token {toks[pos]!r}")
    return node


def eval_predicate(node: tuple, verdicts: dict[str, bool]) -> bool:
    op = node[0]
    if op == "prop":
        return verdicts[node[1]]
    if op == "not":
        return not eval_predicate(node[1], verdicts)
    if op == "and":
        return eval_predicate(node[1], verdicts) and eval_predicate(node[2], verdicts)
    return eval_predicate(node[1], verdicts) or eval_predicate(node[2], verdicts)


class _Verdicts(dict):
    """A space's verdicts, each decided on its first read and kept."""

    def __init__(self, space: FinSpace):
        super().__init__()
        self.space = space

    def __missing__(self, prop: str) -> bool:
        self[prop] = verdict = has_property(self.space, prop)
        return verdict


def find_space(predicate: str | tuple, n_max: int = 5) -> FinSpace | None:
    """Least space satisfying the predicate, or None.

    Scans one representative per homeomorphism class, smallest point count
    first, canonical order within a count, so the answer is deterministic.
    Each class decides only the properties the predicate reads, in the
    order its short-circuit evaluation reads them, each at most once; no
    witness is built. An n_max below 1 is refused before any work, so None
    always means a search that ran.
    """
    if n_max < 1:
        raise TopologyError("n_max must be at least 1")
    node = parse_predicate(predicate) if isinstance(predicate, str) else predicate
    if n_max > HOMEO_CAP:
        raise CapExceeded(f"search capped at {HOMEO_CAP} points")
    for n in range(1, n_max + 1):
        for rows in homeo_rows(n):
            space = space_from_rows(rows)
            if eval_predicate(node, _Verdicts(space)):
                return space
    return None


# ---------------------------------------------------------------------------
# Diagram verification.
# ---------------------------------------------------------------------------


@dataclass
class DiagramReport:
    n_max: int
    sw_bound: int
    transfer_max: int
    counts: dict[int, int]
    arrow_violations: list[dict]
    sw_spaces_checked: int
    sw_violations: list[dict]
    matrix: dict[str, dict]
    transfer_scanned: int
    transfer_qualifying: int
    wtheta_transfer_violations: list[dict]
    sw_transfer_checked: int
    sw_transfer_violations: list[dict]

    @property
    def ok(self) -> bool:
        return not (
            self.arrow_violations
            or self.sw_violations
            or self.wtheta_transfer_violations
            or self.sw_transfer_violations
        )

    @property
    def collapsed_pairs(self) -> list[tuple[str, str]]:
        """Unordered property pairs that agree on every space checked."""
        out = []
        for i, p in enumerate(DECIDABLE_PROPERTIES):
            for q in DECIDABLE_PROPERTIES[i + 1 :]:
                if self.matrix[f"{p} => {q}"]["holds"] and self.matrix[f"{q} => {p}"]["holds"]:
                    out.append((p, q))
        return out

    @property
    def separation_count(self) -> int:
        return sum(not entry["holds"] for entry in self.matrix.values())

    def to_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "sw_bound": self.sw_bound,
            "transfer_max": self.transfer_max,
            "counts": {str(n): c for n, c in self.counts.items()},
            "arrow_violations": self.arrow_violations,
            "sw_spaces_checked": self.sw_spaces_checked,
            "sw_violations": self.sw_violations,
            "matrix": self.matrix,
            "collapsed_pairs": [list(p) for p in self.collapsed_pairs],
            "transfer_scanned": self.transfer_scanned,
            "transfer_qualifying": self.transfer_qualifying,
            "wtheta_transfer_violations": self.wtheta_transfer_violations,
            "sw_transfer_checked": self.sw_transfer_checked,
            "sw_transfer_violations": self.sw_transfer_violations,
            "verdict": "PASS" if self.ok else "FAIL",
        }

    def to_text(self) -> str:
        lines = [
            f"labeled spaces: {sum(self.counts.values())} (n = 1..{self.n_max})",
            f"arrow violations: {len(self.arrow_violations)}",
            f"sw searches (bound {self.sw_bound}): {self.sw_spaces_checked} spaces, "
            f"witnesses: {len(self.sw_violations)}",
            f"separations: {self.separation_count} of {len(self.matrix)} ordered pairs "
            "fail on some space",
        ]
        pairs = self.collapsed_pairs
        if pairs:
            lines.append("collapsed pairs:")
            lines.extend(f"  {p} == {q}" for p, q in pairs)
        else:
            lines.append("collapsed pairs: none")
        lines.append(
            f"transfer (n <= {self.transfer_max}): {self.transfer_scanned} bijections, "
            f"{self.transfer_qualifying} qualifying"
        )
        lines.append(f"w-theta transfer violations: {len(self.wtheta_transfer_violations)}")
        lines.append(
            f"sw transfer checks: {self.sw_transfer_checked}, "
            f"violations: {len(self.sw_transfer_violations)}"
        )
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def verify_diagram(
    n_max: int = 4,
    sw_bound: int = 3,
    transfer_max: int = 3,
) -> DiagramReport:
    """Check the implication diagram against every labeled space with at most
    n_max points.

    Three layers: provable implications must never be violated, spaces
    satisfying an sw-safe premise must admit no sw-witness at the bound, and
    every qualifying bijection (theta-weakly discontinuous with weakly
    discontinuous inverse) must transfer w-theta regularity backwards and
    sw-witnesses forwards. The full collapse/separation matrix over ordered
    property pairs is recorded with least counterexamples as a side product.

    The report is the one a scan over every labeled space and every
    bijection gives, but the work is done per homeomorphism class:

    - Every verdict is a homeomorphism invariant, so each class is decided
      once, on its canonical representative, and weighted by its orbit
      size n!/|Aut| from the orderly walk; counts and sw_spaces_checked are
      sums of orbit sizes. A class decides only the verdicts the report
      reads, those of DECIDABLE_PROPERTIES, through has_property, so no
      property witness is built or formatted. A class's labeled members
      are built only where they are listed: for a flagged class and for n
      up to the transfer bound.
    - The labeled stream ascends and each class's least labeling is its
      representative, so the first class in homeo order with p and not q
      gives the matrix's least counterexample for p => q.
    - Verdicts are class invariants, so a class with an arrow violation or
      an sw witness lists each member with the class's arrows; only the sw
      witness, which depends on the labeling, is searched member by member.
      Members are emitted in labeled order, so the violation lists are the
      labeled scan's (empty on PASS).
    - The transfer phase reads each labeling's verdicts through its class.
      A bijection h = (X, Y, p) has the ok_masks of the identity X -> Y',
      where N_Y'(x) = p^-1 N_Y(p(x)); its inverse is the identity Y' -> X
      relabeled by p, and h o f has the ok_masks of id o f, so all three
      classify as on the identity pair (X, Y'). For fixed p, Y -> Y' is a
      bijection of the labeled spaces, so each identity pair stands for the
      n! bijections (X, p.Y', p), p.Y' the relabeling of Y' by p, and each
      of them violates as the pair does, with its composite tier. Sorting an
      X's entries by (Y, p) gives the labeled scan's order.

    The effective transfer bound min(n_max, transfer_max) is capped at
    TRANSFER_CAP; it, n_max and sw_bound are checked, and refused below 1, before any work.
    """
    if n_max > DIAGRAM_CAP:
        raise CapExceeded(f"diagram verification capped at {DIAGRAM_CAP} points")
    tn = min(n_max, transfer_max)
    if tn > TRANSFER_CAP:
        raise CapExceeded(f"transfer scan capped at {TRANSFER_CAP} points")
    check_sw_bound(sw_bound)
    if tn < 1:
        raise TopologyError("n_max and transfer_max must be at least 1")
    matrix = {
        f"{p} => {q}": {"holds": True, "counterexample": None}
        for p in DECIDABLE_PROPERTIES
        for q in DECIDABLE_PROPERTIES
        if p != q
    }
    counts: dict[int, int] = {}
    arrow_violations: list[dict] = []
    sw_spaces = 0
    sw_violations: list[dict] = []
    # The transfer phase's labeled spaces, ascending, with verdicts, per n <= tn.
    transfer_spaces: dict[int, list[tuple[FinSpace, dict[str, bool]]]] = {}

    for n in range(1, n_max + 1):
        counts[n] = 0
        labeled: dict[tuple[int, ...], dict[str, bool]] = {}
        # (member rows, class arrows, whether the class has an sw witness)
        flagged: list[tuple[tuple[int, ...], list[str], bool]] = []
        for rows, size in homeo_classes(n):
            space = space_from_rows(rows)
            verdicts = {p: has_property(space, p) for p in DECIDABLE_PROPERTIES}
            bad_arrows = check_arrows(verdicts)
            sw_checked = any(verdicts[p] for p in SW_SAFE_PREMISES)
            witnessed = sw_checked and sw_witness_search(space, sw_bound) is not None
            counts[n] += size
            if sw_checked:
                sw_spaces += size
            if bad_arrows or witnessed:
                flagged.extend((member, bad_arrows, witnessed) for member in set(_orbit(rows)))
            if n <= tn:
                labeled.update(dict.fromkeys(_orbit(rows), verdicts))
            for p in DECIDABLE_PROPERTIES:
                if not verdicts[p]:
                    continue
                for q in DECIDABLE_PROPERTIES:
                    if q == p or verdicts[q]:
                        continue
                    entry = matrix[f"{p} => {q}"]
                    if entry["holds"]:
                        entry["holds"] = False
                        entry["counterexample"] = space_to_obj(space)
        for rows, bad_arrows, witnessed in sorted(flagged):
            member = space_from_rows(rows)
            if bad_arrows:
                arrow_violations.append(
                    {"space": space_to_obj(member), "arrows": list(bad_arrows)}
                )
            if witnessed:
                _, f = sw_witness_search(member, sw_bound)
                sw_violations.append({"space": space_to_obj(member), "witness": map_to_obj(f)})
        if n <= tn:
            transfer_spaces[n] = [
                (space_from_rows(rows), v) for rows, v in sorted(labeled.items())
            ]

    scanned = 0
    qualifying = 0
    wtheta_violations: list[dict] = []
    sw_checks = 0
    sw_transfer_violations: list[dict] = []

    for n in range(1, tn + 1):
        spaces = transfer_spaces[n]
        perms = list(permutations(range(n)))
        ident = perms[0]
        for x, vx in spaces:
            # X's identity bijection qualifies, so every X needs its sw
            # search: one search per X up front is never an extra one.
            found = sw_witness_search(x, sw_bound)
            f = None if found is None else found[1]
            # (Y rows, p index, w-theta violated, composite tier or None)
            hits: list[tuple[tuple[int, ...], int, bool, str | None]] = []
            for y, vy in spaces:
                scanned += len(perms)
                # The identity X -> Y' qualifies when it is theta-weakly
                # discontinuous, i.e. continuous (maps.reaches), which is
                # N_X(i) inside N_Y'(i) for every i, and its inverse is
                # weakly discontinuous.
                if any(a & ~b for a, b in zip(x.nbhd, y.nbhd)):
                    continue
                if not reaches(FinMap(y, x, ident), "weakly_discontinuous"):
                    continue
                qualifying += len(perms)
                wtheta_bad = vy["w_theta_regular"] and not vx["w_theta_regular"]
                tier = None
                if f is not None:
                    sw_checks += len(perms)
                    mcc = classify_map(FinMap(f.domain, y, f.img))
                    if not is_sw_witness(mcc):
                        tier = mcc.tier
                if wtheta_bad or tier is not None:
                    hits.extend(
                        (rows, i, wtheta_bad, tier) for i, rows in enumerate(_orbit(y.nbhd))
                    )
            for rows, i, wtheta_bad, tier in sorted(hits):
                h = FinMap(x, space_from_rows(rows), perms[i])
                if wtheta_bad:
                    wtheta_violations.append({"kind": "w_theta_regular", "h": map_to_obj(h)})
                if tier is not None:
                    sw_transfer_violations.append(
                        {
                            "kind": "sw_witness",
                            "h": map_to_obj(h),
                            "f": map_to_obj(f),
                            "composite_tier": tier,
                        }
                    )

    return DiagramReport(
        n_max=n_max,
        sw_bound=sw_bound,
        transfer_max=tn,
        counts=counts,
        arrow_violations=arrow_violations,
        sw_spaces_checked=sw_spaces,
        sw_violations=sw_violations,
        matrix=matrix,
        transfer_scanned=scanned,
        transfer_qualifying=qualifying,
        wtheta_transfer_violations=wtheta_violations,
        sw_transfer_checked=sw_checks,
        sw_transfer_violations=sw_transfer_violations,
    )


# ---------------------------------------------------------------------------
# Composition laws.
# ---------------------------------------------------------------------------

# (name, tier required of f, tier required of g, tier asserted of g o f,
#  asserted). The last row is known to fail in general and is reported as
# data rather than checked.
LAWS: tuple[tuple[str, str, str, str, bool], ...] = (
    (
        "weak after weak => weak",
        "weakly_discontinuous",
        "weakly_discontinuous",
        "weakly_discontinuous",
        True,
    ),
    (
        "theta after theta => theta",
        "theta_weakly_discontinuous",
        "theta_weakly_discontinuous",
        "theta_weakly_discontinuous",
        True,
    ),
    (
        "scattered after weak => scattered",
        "weakly_discontinuous",
        "scatteredly_continuous",
        "scatteredly_continuous",
        True,
    ),
    (
        "theta after scattered => scattered",
        "scatteredly_continuous",
        "theta_weakly_discontinuous",
        "scatteredly_continuous",
        True,
    ),
    (
        "scattered after scattered => scattered",
        "scatteredly_continuous",
        "scatteredly_continuous",
        "scatteredly_continuous",
        False,
    ),
)

COMPOSITION_SIZE_CAP = 8
# Largest samples count (and --samples); the randomized sweep is linear in it.
SAMPLES_CAP = 100_000


@dataclass
class LawResult:
    name: str
    asserted: bool
    checked: int = 0
    violations: int = 0
    counterexample: dict | None = None

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass
class CompositionReport:
    mode: str
    sizes: tuple[int, int, int]
    samples: int | None
    seed: int | None
    triples: int
    laws: list[LawResult]

    @property
    def ok(self) -> bool:
        return all(lr.violations == 0 for lr in self.laws if lr.asserted)

    def to_obj(self) -> dict:
        return {
            "mode": self.mode,
            "sizes": list(self.sizes),
            "samples": self.samples,
            "seed": self.seed,
            "triples": self.triples,
            "laws": [lr.to_obj() for lr in self.laws],
            "verdict": "PASS" if self.ok else "FAIL",
        }

    def to_text(self) -> str:
        sizes = ",".join(str(s) for s in self.sizes)
        if self.mode == "exhaustive":
            head = f"composition laws (exhaustive, sizes <= {sizes}): {self.triples} triples"
        else:
            head = (
                f"composition laws (randomized, sizes <= {sizes}, "
                f"samples {self.samples}, seed {self.seed}): {self.triples} triples"
            )
        lines = [head]
        for lr in self.laws:
            tag = "" if lr.asserted else " [not asserted]"
            lines.append(f"{lr.name}{tag}: checked {lr.checked}, violations {lr.violations}")
        lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _apply_laws(
    f: FinMap,
    g: FinMap,
    mcf: MapClass,
    mcg: MapClass,
    mcc: MapClass,
    results: list[LawResult],
) -> None:
    for lr, law in zip(results, LAWS):
        _, f_tier, g_tier, out_tier, _ = law
        if not (mcf.reaches(f_tier) and mcg.reaches(g_tier)):
            continue
        lr.checked += 1
        if not mcc.reaches(out_tier):
            lr.violations += 1
            if lr.counterexample is None:
                lr.counterexample = {
                    "f": map_to_obj(f),
                    "g": map_to_obj(g),
                    "f_tier": mcf.tier,
                    "g_tier": mcg.tier,
                    "composite_tier": mcc.tier,
                }


def _all_maps(domain: FinSpace, codomain: FinSpace) -> Iterator[FinMap]:
    for img in product(range(len(codomain)), repeat=len(domain)):
        yield FinMap(domain, codomain, img)


def check_composition_laws(
    sizes: tuple[int, int, int] = (2, 2, 2),
    samples: int = 10000,
    seed: int = 0,
) -> CompositionReport:
    """Exercise the composition table on triples X --f--> Y --g--> Z.

    With every size bound at most 2 the sweep is exhaustive over all labeled
    spaces and all maps up to the bounds; otherwise `samples` random triples
    are drawn with sizes between min(3, bound) and bound from the given seed.
    Sizes and samples below 1 are refused, so that no PASS is vacuous, and so
    are samples above SAMPLES_CAP. The messages leave the values out: str()
    of an int over 4,300 digits raises.
    """
    if max(sizes) > COMPOSITION_SIZE_CAP:
        raise CapExceeded(f"composition sizes capped at {COMPOSITION_SIZE_CAP} points")
    if samples > SAMPLES_CAP:
        raise CapExceeded(f"composition samples capped at {SAMPLES_CAP}")
    if min(sizes) < 1 or samples < 1:
        raise TopologyError("sizes and samples must be at least 1")
    results = [LawResult(name, asserted) for name, _, _, _, asserted in LAWS]
    triples = 0

    if max(sizes) <= 2:
        mode, samples, seed = "exhaustive", None, None
        sx, sy, sz = sizes
        xs = [s for n in range(1, sx + 1) for s in map(space_from_rows, labeled_rows(n))]
        ys = [s for n in range(1, sy + 1) for s in map(space_from_rows, labeled_rows(n))]
        zs = [s for n in range(1, sz + 1) for s in map(space_from_rows, labeled_rows(n))]
        for y in ys:
            fs = [
                (f, classify_map(f)) for x in xs for f in _all_maps(x, y)
            ]
            for z in zs:
                for g in _all_maps(y, z):
                    mcg = classify_map(g)
                    for f, mcf in fs:
                        triples += 1
                        mcc = classify_map(compose(g, f))
                        _apply_laws(f, g, mcf, mcg, mcc, results)
    else:
        mode = "randomized"
        rng = random.Random(seed)
        for _ in range(samples):
            nx, ny, nz = (rng.randint(min(3, s), s) for s in sizes)
            x = random_space(nx, rng)
            y = random_space(ny, rng)
            z = random_space(nz, rng)
            f = FinMap(x, y, tuple(rng.randrange(ny) for _ in range(nx)))
            g = FinMap(y, z, tuple(rng.randrange(nz) for _ in range(ny)))
            triples += 1
            _apply_laws(
                f, g, classify_map(f), classify_map(g), classify_map(compose(g, f)), results
            )
    return CompositionReport(
        mode=mode,
        sizes=sizes,
        samples=samples,
        seed=seed,
        triples=triples,
        laws=results,
    )
