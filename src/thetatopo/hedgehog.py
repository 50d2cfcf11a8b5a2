"""Countable spines-and-tips space behind decidable oracles.

Points are finite tokens: () is the root, (n,) a stalk point, (n, m) a
tip, all indices starting at 1. The topology is generated by singleton
tips, stalk bases U(n,m) = {(n)} u {(n,j): j >= m}, and root bases
U(n) = {()} u {(i,j): i >= n}. Everything is answered in closed form,
so closures and separations are exact, never sampled.

The space is first-countable, Hausdorff, scattered and locally regular
but not regular at the root, and any space with a certified failure of
regularity at a point contains a copy of it; embed_hedgehog builds that
copy step by step through the oracle interface and verify_embedding
re-checks the result from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .space import CapExceeded, FinSpace, TopologyError, closure_mask

Token = tuple


class OracleError(TopologyError):
    """Base for oracle-space failures."""


class MalformedToken(OracleError):
    """Token is not a well-formed point identifier."""


class NotHausdorffWitnessed(OracleError):
    """separate() could not produce disjoint basic neighborhoods."""


class RegularAtPoint(OracleError):
    """Embedding precondition failed: closures of the base at the chosen
    point stay inside the reference neighborhood."""


class OracleRefusal(OracleError):
    """An oracle declined to produce a point; carries the failing step."""


class VerificationFailure(OracleError):
    """An embedding check failed; .clause names the violated condition."""

    def __init__(self, clause: str, detail: str):
        super().__init__(f"{clause}: {detail}")
        self.clause = clause


# ---------------------------------------------------------------------------
# Tokens.
# ---------------------------------------------------------------------------

ROOT: Token = ()


def is_root(t: Token) -> bool:
    return t == ()


def is_stalk(t: Token) -> bool:
    return len(t) == 1


def is_tip(t: Token) -> bool:
    return len(t) == 2 and t[0] != "fin"


def is_fin(t: Token) -> bool:
    return len(t) == 2 and t[0] == "fin"


def token_key(t: Token) -> tuple:
    """Total order on tokens: root, then stalks, then tips, then finite
    summand points; index order within a kind."""
    if is_root(t):
        return (0, 0, 0, "")
    if is_stalk(t):
        return (1, t[0], 0, "")
    if is_fin(t):
        return (3, 0, 0, t[1])
    return (2, t[0], t[1], "")


def token_str(t: Token) -> str:
    if is_root(t):
        return "()"
    if is_stalk(t):
        return f"({t[0]})"
    if is_fin(t):
        return f"fin:{t[1]}"
    return f"({t[0]},{t[1]})"


def _check_token(t, allow_fin: bool = False) -> Token:
    if type(t) is tuple:
        # Fast path: the root, a stalk or a tip with plain int indices.
        # Anything else, bools included, takes the full check below.
        if len(t) == 2:
            n, m = t
            if type(n) is int and type(m) is int and n >= 1 and m >= 1:
                return t
        elif not t or (len(t) == 1 and type(t[0]) is int and t[0] >= 1):
            return t
    if isinstance(t, list):
        t = tuple(t)
    if not isinstance(t, tuple):
        raise MalformedToken(f"token must be a tuple, got {t!r}")
    if t == ():
        return t
    if len(t) == 1 and isinstance(t[0], int) and t[0] >= 1:
        return t
    if len(t) == 2 and t[0] == "fin":
        if allow_fin and isinstance(t[1], str):
            return t
        raise MalformedToken(f"finite-summand token {t!r} not valid here")
    if len(t) == 2 and all(isinstance(v, int) and v >= 1 for v in t):
        return t
    raise MalformedToken(f"not a well-formed token: {t!r}")


# ---------------------------------------------------------------------------
# Basic sets.
# ---------------------------------------------------------------------------


# Each basic set of the hedgehog answers membership and adherence itself,
# for a token that is already validated. Tips are closed and stalk bases
# clopen, so closure adds only the stalks (k), k >= n, to a root base U(n);
# U(k,m) always meets the tips of U(n) on stalk k in a tail. No basic set
# holds or adheres to a finite-summand token ("fin", name): each test
# compares t[0] with a stalk index, a root base only once t[0] != "fin".


@dataclass(frozen=True)
class Singleton:
    n: int
    m: int

    def __str__(self) -> str:
        return f"{{({self.n},{self.m})}}"

    def member(self, t: Token) -> bool:
        return t == (self.n, self.m)

    adheres = member


@dataclass(frozen=True)
class StalkBase:
    """U(n,m) = {(n)} u {(n,j): j >= m}; clopen."""

    n: int
    m: int

    def __str__(self) -> str:
        return f"U({self.n},{self.m})"

    def member(self, t: Token) -> bool:
        if len(t) == 2:
            return t[0] == self.n and t[1] >= self.m
        return t == (self.n,)

    adheres = member


@dataclass(frozen=True)
class RootBase:
    """U(n) = {()} u {(i,j): i >= n}; contains no stalk points."""

    n: int

    def __str__(self) -> str:
        return f"U({self.n})"

    def member(self, t: Token) -> bool:
        return not t or (len(t) == 2 and t[0] != "fin" and t[0] >= self.n)

    def adheres(self, t: Token) -> bool:
        return not t or (t[0] != "fin" and t[0] >= self.n)


@dataclass(frozen=True)
class FinBase:
    """Minimal neighborhood of one point of a finite summand."""

    name: str

    def __str__(self) -> str:
        return f"N({self.name})"


@dataclass(frozen=True)
class MappedSet:
    """A basic set transported along a stalk relabeling."""

    base: object

    def __str__(self) -> str:
        return f"mapped:{self.base}"


def _hedgehog_set(b):
    """b itself, once it is known to be a basic set of the hedgehog."""
    if not isinstance(b, (Singleton, StalkBase, RootBase)):
        raise OracleError(f"foreign basic set {b!r}")
    return b


# The hedgehog's answers on tokens the caller has already validated: every
# oracle validates a token once and then calls these.
def _nbhd_base(x: Token, k: int):
    if k < 0:
        raise OracleError("base index must be non-negative")
    if is_root(x):
        return RootBase(k + 1)
    if is_stalk(x):
        return StalkBase(x[0], k + 1)
    return Singleton(x[0], x[1])


def _separate(a: Token, b: Token) -> tuple[int, int]:
    if a == b:
        raise NotHausdorffWitnessed(f"cannot separate {token_str(a)} from itself")
    if token_key(a) > token_key(b):
        ib, ia = _separate(b, a)
        return ia, ib
    # a is now the earlier kind.
    if is_root(a):
        # U(n+1) misses both (n) and every (n,m).
        return b[0], 0
    if is_stalk(a) and not is_stalk(b) and b[0] == a[0]:
        # U(a, m+1) skips the tip (a, m).
        return b[1], 0
    return 0, 0


def _pick_in_closure_minus(a, b) -> Token | None:
    """Least token of cl(a) \\ b, or None when the difference is empty.

    A basic set holds at most one stalk, and one that holds two consecutive
    tips of a stalk holds the rest of that tail; so if the least few tokens
    of cl(a) listed below all lie in b, all of cl(a) does."""
    if isinstance(a, Singleton):
        candidates = ((a.n, a.m),)
    elif isinstance(a, StalkBase):
        candidates = ((a.n,), (a.n, a.m), (a.n, a.m + 1))
    elif isinstance(a, RootBase):
        candidates = (ROOT, (a.n,), (a.n + 1,))
    else:
        raise OracleError(f"foreign basic set {a!r}")
    inside = (lambda t: False) if b is None else _hedgehog_set(b).member
    return next((t for t in candidates if not inside(t)), None)


def _approach_within(
    x: Token, constraints: Sequence, count: int
) -> tuple[Token, ...] | None:
    if count <= 0:
        return ()
    if is_tip(x):
        return None
    if is_stalk(x):
        n = x[0]
        j = 1
        for c in constraints:
            if isinstance(c, StalkBase):
                if c.n != n:
                    return None
                j = max(j, c.m)
            elif isinstance(c, RootBase):
                if n < c.n:
                    return None
            else:
                return None
        return tuple((n, j + i) for i in range(count))
    lo = 1
    for c in constraints:
        if isinstance(c, RootBase):
            lo = max(lo, c.n)
        else:
            return None
    return tuple((lo + i, 1) for i in range(count))


# ---------------------------------------------------------------------------
# Oracle spaces.
# ---------------------------------------------------------------------------


class HedgehogOracle:
    """The hedgehog itself. Every oracle answers validate, nbhd_base,
    contains, closure_contains, separate, pick_in_closure_minus and
    approach_within, all deterministically; refusals are returned as None,
    never guessed.

    members(b) and adherents(b) resolve the basic set b once, raising on a
    set of another space, and return the tests t in b and t in cl(b) for
    tokens that validate has already returned. contains and
    closure_contains validate the token, then ask those tests; a caller
    with many questions about one set builds its test once."""

    def validate(self, t) -> Token:
        return _check_token(t)

    def nbhd_base(self, x: Token, k: int):
        return _nbhd_base(_check_token(x), k)

    def members(self, b):
        return _hedgehog_set(b).member

    def adherents(self, b):
        return _hedgehog_set(b).adheres

    def contains(self, b, t: Token) -> bool:
        return self.members(b)(_check_token(t))

    def closure_contains(self, b, t: Token) -> bool:
        return self.adherents(b)(_check_token(t))

    def separate(self, a: Token, b: Token) -> tuple[int, int]:
        """Base indices (ia, ib) with nbhd_base(a, ia) and nbhd_base(b, ib)
        disjoint."""
        return _separate(_check_token(a), _check_token(b))

    def pick_in_closure_minus(self, a, b=None) -> Token | None:
        """Least token of cl(a) \\ b, or None when the difference is empty."""
        return _pick_in_closure_minus(a, b)

    def approach_within(
        self, x: Token, constraints: Sequence, count: int
    ) -> tuple[Token, ...] | None:
        """count distinct points inside every constraint converging to x, or
        None. Tips admit no such sequence; singleton constraints are refused."""
        return _approach_within(_check_token(x), constraints, count)


class SumOracle:
    """Disjoint sum of the hedgehog and a finite space.

    Finite points are tokens ("fin", name) with constant neighborhood base
    equal to their minimal neighborhood; the summands are mutually clopen.
    """

    def __init__(self, summand: FinSpace):
        self.summand = summand

    def validate(self, t) -> Token:
        t = _check_token(t, allow_fin=True)
        if is_fin(t):
            self.summand.index(t[1])
        return t

    def _fin_mask(self, b: FinBase) -> int:
        return self.summand.nbhd[self.summand.index(b.name)]

    def nbhd_base(self, x: Token, k: int):
        x = self.validate(x)
        if is_fin(x):
            return FinBase(x[1])
        return _nbhd_base(x, k)

    # The summands are clopen: a finite basic set holds and adheres to
    # finite tokens only, and a basic set of the hedgehog to none.
    def _fin_test(self, mask: int):
        index = self.summand.index
        return lambda t: is_fin(t) and bool(mask >> index(t[1]) & 1)

    def members(self, b):
        if isinstance(b, FinBase):
            return self._fin_test(self._fin_mask(b))
        return _hedgehog_set(b).member

    def adherents(self, b):
        if isinstance(b, FinBase):
            return self._fin_test(closure_mask(self.summand, self._fin_mask(b)))
        return _hedgehog_set(b).adheres

    def contains(self, b, t: Token) -> bool:
        return self.members(b)(self.validate(t))

    def closure_contains(self, b, t: Token) -> bool:
        return self.adherents(b)(self.validate(t))

    def separate(self, a: Token, b: Token) -> tuple[int, int]:
        a = self.validate(a)
        b = self.validate(b)
        if a == b:
            raise NotHausdorffWitnessed(f"cannot separate {token_str(a)} from itself")
        if is_fin(a) and is_fin(b):
            ma = self.summand.nbhd[self.summand.index(a[1])]
            mb = self.summand.nbhd[self.summand.index(b[1])]
            if ma & mb:
                raise NotHausdorffWitnessed(
                    f"minimal neighborhoods of {token_str(a)} and {token_str(b)} meet"
                )
            return 0, 0
        if is_fin(a) or is_fin(b):
            return 0, 0
        return _separate(a, b)

    def pick_in_closure_minus(self, a, b=None) -> Token | None:
        if isinstance(a, FinBase):
            # Only a finite basic set holds finite points.
            free = closure_mask(self.summand, self._fin_mask(a))
            if isinstance(b, FinBase):
                free &= ~self._fin_mask(b)
            elif b is not None:
                _hedgehog_set(b)
            return ("fin", self.summand.names[(free & -free).bit_length() - 1]) if free else None
        return _pick_in_closure_minus(a, None if isinstance(b, FinBase) else b)

    def approach_within(
        self, x: Token, constraints: Sequence, count: int
    ) -> tuple[Token, ...] | None:
        x = self.validate(x)
        if is_fin(x) or any(isinstance(c, FinBase) for c in constraints):
            return None
        return _approach_within(x, constraints, count)


class PermutedOracle:
    """The hedgehog with stalk indices relabeled by a finite-support
    permutation; pick_in_closure_minus breaks ties by the visible names,
    not the hidden ones."""

    def __init__(self, images: dict[int, int]):
        fwd = {int(k): int(v) for k, v in images.items()}
        if sorted(fwd) != sorted(fwd.values()) or min(fwd, default=1) < 1:
            raise OracleError("stalk relabeling must permute a finite set of indices >= 1")
        self.fwd = {k: v for k, v in fwd.items() if k != v}
        self.inv = {v: k for k, v in self.fwd.items()}

    # Both relabel the stalk index of a stalk or tip; the root stays put.
    def _fwd_token(self, t: Token) -> Token:
        return (self.fwd[t[0]], *t[1:]) if t and t[0] in self.fwd else t

    def _inv_token(self, t: Token) -> Token:
        return (self.inv[t[0]], *t[1:]) if t and t[0] in self.inv else t

    def _unwrap(self, b):
        if not isinstance(b, MappedSet):
            raise OracleError(f"foreign basic set {b!r}")
        return b.base

    def validate(self, t) -> Token:
        return _check_token(t)

    def nbhd_base(self, x: Token, k: int):
        return MappedSet(_nbhd_base(self._inv_token(_check_token(x)), k))

    def _visible(self, b, test: str):
        """The test ("member" or "adheres") of the hidden set behind b, on
        visible tokens. A stalk base or tip singleton is the same set on the
        visible name of its stalk. A root base U(n) tests t[0] >= n, which
        the relabeling changes only on the moved stalks it carries across n;
        only those are renamed back before the test."""
        inner = _hedgehog_set(self._unwrap(b))
        if not isinstance(inner, RootBase):
            if inner.n in self.fwd:
                inner = type(inner)(self.fwd[inner.n], inner.m)
            return getattr(inner, test)
        hidden, inv = getattr(inner, test), self.inv
        flip = {v for v, h in inv.items() if (v >= inner.n) != (h >= inner.n)}
        if not flip:
            return hidden
        return lambda t: hidden((inv[t[0]], *t[1:]) if t and t[0] in flip else t)

    def members(self, b):
        return self._visible(b, "member")

    def adherents(self, b):
        return self._visible(b, "adheres")

    def contains(self, b, t: Token) -> bool:
        return self.members(b)(_check_token(t))

    def closure_contains(self, b, t: Token) -> bool:
        return self.adherents(b)(_check_token(t))

    def separate(self, a: Token, b: Token) -> tuple[int, int]:
        return _separate(self._inv_token(_check_token(a)), self._inv_token(_check_token(b)))

    def pick_in_closure_minus(self, a, b=None) -> Token | None:
        inner_a = self._unwrap(a)
        inner_b = None if b is None else self._unwrap(b)
        t = _pick_in_closure_minus(inner_a, inner_b)
        if t is None or not (is_stalk(t) and isinstance(inner_a, RootBase)):
            # Relabeling keeps kinds apart and tips of one stalk in order.
            return None if t is None else self._fwd_token(t)
        # The stalks of cl(U(n)) are all (k), k >= n, and b blocks one at
        # most, so the least admissible name is a moved one or one of the
        # two least unmoved names >= n.
        def admissible(v: int) -> bool:
            s = (self.inv.get(v, v),)
            return inner_a.adheres(s) and (inner_b is None or not inner_b.member(s))

        unmoved = (v for v in itertools.count(inner_a.n) if v not in self.inv)
        return (min(filter(admissible, (*self.inv, *itertools.islice(unmoved, 2)))),)

    def approach_within(
        self, x: Token, constraints: Sequence, count: int
    ) -> tuple[Token, ...] | None:
        inner = _approach_within(
            self._inv_token(_check_token(x)),
            [self._unwrap(c) for c in constraints],
            count,
        )
        if inner is None:
            return None
        return tuple(self._fwd_token(t) for t in inner)


OracleSpace = HedgehogOracle | SumOracle | PermutedOracle


# ---------------------------------------------------------------------------
# Profile certification.
# ---------------------------------------------------------------------------


@dataclass
class ProfileReport:
    depth: int
    decreasing_checks: int
    layers: tuple[str, ...]
    clopen_checks: int
    witnesses: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "depth": self.depth,
            "decreasing_checks": self.decreasing_checks,
            "layers": list(self.layers),
            "clopen_checks": self.clopen_checks,
            "non_regularity_witnesses": list(self.witnesses),
            "failures": list(self.failures),
            "verdict": "pass" if self.ok else "fail",
        }

    def to_text(self) -> str:
        lines = [
            f"hedgehog profile, depth {self.depth}",
            f"first-countable: decreasing bases ({self.decreasing_checks} inclusions)",
            "scattered: layers " + ", ".join(self.layers) + " exhaust the space",
            f"locally regular: {self.clopen_checks} closure checks",
            f"not regular at root: {len(self.witnesses)} witnesses"
            + (f", least {self.witnesses[0]} in cl(U(1)) outside U(1)" if self.witnesses else ""),
        ]
        for f in self.failures:
            lines.append(f"FAILED: {f}")
        lines.append(f"verdict: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _basic_subset(a, b) -> bool:
    # Containment between basic sets of the pure hedgehog, closed form.
    if isinstance(a, Singleton):
        if isinstance(b, Singleton):
            return a == b
        if isinstance(b, StalkBase):
            return a.n == b.n and a.m >= b.m
        return a.n >= b.n
    if isinstance(a, StalkBase) and isinstance(b, StalkBase):
        return a.n == b.n and a.m >= b.m
    if isinstance(a, RootBase) and isinstance(b, RootBase):
        return a.n >= b.n
    return False


# Largest `hedgehog profile --depth`: the profile makes about 16 depth^2
# closure checks, 0.6 s at depth 200 and 1.9 s at 400 on a 2-vCPU box
# (Python 3.11, process start included).
DEPTH_CAP = 400
# Largest `hedgehog embed --depth`: verification makes about 3.5 depth^3
# membership checks, each through a test built once per basic set. On the
# same box the built-in hedgehog embeds in 0.2, 1.1 and 4.9 s at depths 40,
# 120 and 200, the sum and permuted targets in up to 5.8 s at 200, and
# depth 400 takes 41-51 s.
EMBED_DEPTH_CAP = 200


def certify_hedgehog_profile(depth: int) -> ProfileReport:
    """Check, to the given depth, the profile: first-countable via decreasing
    bases, scattered in three layers, locally regular via clopen basic sets,
    and not regular at the root with explicit witnesses. A depth above
    DEPTH_CAP is refused before any work."""
    if depth > DEPTH_CAP:
        raise CapExceeded(f"hedgehog profile capped at depth {DEPTH_CAP}")
    if depth < 1:
        raise OracleError("depth must be at least 1")
    o = HedgehogOracle()
    # Every token below is built here well-formed, so each basic set is
    # resolved once into its membership and adherence tests.
    members, adherents = o.members, o.adherents
    failures: list[str] = []

    decreasing = 0
    points: list[Token] = [ROOT] + [(n,) for n in range(1, depth + 1)] + [(1, 1)]
    for x in points:
        upper = o.nbhd_base(x, 0)
        for k in range(depth):
            lower = o.nbhd_base(x, k + 1)
            if not _basic_subset(lower, upper):
                failures.append(f"base at {token_str(x)} not decreasing at index {k}")
            upper = lower
        decreasing += depth

    # Scattered layers: tips are isolated outright, stalks once tips are
    # removed, the root once stalks are removed too.
    layers = ("tips", "stalks", "root")
    for n in range(1, depth + 1):
        if o.nbhd_base((n, 1), 0) != Singleton(n, 1):
            failures.append(f"tip ({n},1) not isolated")
        in_b = members(o.nbhd_base((n,), 0))
        for k in range(1, depth + 1):
            if k != n and in_b((k,)):
                failures.append(f"stalk ({n}) not isolated among stalks")
        if in_b(ROOT):
            failures.append(f"stalk base U({n},1) contains the root")
    if members(o.nbhd_base(ROOT, 0))((1,)):
        failures.append("root base U(1) contains a stalk")

    # Local regularity: stalk bases and tip singletons are clopen, and root
    # bases are relatively clopen inside U(1); spot sample around each set.
    clopen = 0

    def sample(n: int, m: int) -> list[Token]:
        return [
            ROOT,
            (n,),
            (n + 1,),
            (n, max(1, m - 1)),
            (n, m),
            (n, m + 1),
            (n + 1, m),
            (1, 1),
        ]

    for n in range(1, depth + 1):
        for m in range(1, depth + 1):
            b = StalkBase(n, m)
            in_b, cl_b, cl_s = members(b), adherents(b), adherents(Singleton(n, m))
            for t in sample(n, m):
                if cl_b(t) != in_b(t):
                    failures.append(f"U({n},{m}) not clopen at {token_str(t)}")
                if cl_s(t) != (t == (n, m)):
                    failures.append(f"singleton ({n},{m}) not closed at {token_str(t)}")
                clopen += 2
    in_u1 = members(RootBase(1))
    for k in range(1, depth + 1):
        b = RootBase(k)
        in_b, cl_b = members(b), adherents(b)
        for t in [ROOT, (k, 1), (max(1, k - 1), 1), (k + 1, 1), (k, k)]:
            if in_u1(t) and cl_b(t) != in_b(t):
                failures.append(f"U({k}) not relatively clopen in U(1) at {token_str(t)}")
            clopen += 1

    # Non-regularity at the root: (k) lies in cl(U(k)) but in no root base.
    witnesses = []
    for k in range(1, depth + 1):
        t = (k,)
        if adherents(RootBase(k))(t) and not in_u1(t):
            witnesses.append(token_str(t))
        else:
            failures.append(f"missing non-regularity witness at index {k}")

    return ProfileReport(
        depth, decreasing, layers, clopen, tuple(witnesses), tuple(failures)
    )


# ---------------------------------------------------------------------------
# Embedding.
# ---------------------------------------------------------------------------

SHRINK_BOUND = 64


@dataclass
class Embedding:
    space: OracleSpace
    root_image: Token
    u0_index: int
    depth: int
    ks: tuple[int, ...]
    stalk_images: tuple[Token, ...]
    v_indices: tuple[int, ...]
    tips: tuple[tuple[Token, ...], ...]

    def h(self, t) -> Token:
        t = _check_token(t)
        if is_root(t):
            return self.root_image
        if is_stalk(t):
            if t[0] > self.depth:
                raise OracleError(f"embedding truncated at depth {self.depth}")
            return self.stalk_images[t[0] - 1]
        if t[0] > self.depth or t[1] > self.depth:
            raise OracleError(f"embedding truncated at depth {self.depth}")
        return self.tips[t[0] - 1][t[1] - 1]

    def to_obj(self) -> dict:
        return {
            "u0_index": self.u0_index,
            "depth": self.depth,
            "root": token_str(self.root_image),
            "stalks": [token_str(t) for t in self.stalk_images],
            "tips": [[token_str(t) for t in row] for row in self.tips],
            "ks": list(self.ks),
            "v_indices": list(self.v_indices),
        }

    def to_text(self) -> str:
        lines = [f"embedding, depth {self.depth}, u0_index {self.u0_index}"]
        lines.append(f"h(()) = {token_str(self.root_image)}")
        for n in range(1, self.depth + 1):
            v = str(self.space.nbhd_base(self.stalk_images[n - 1], self.v_indices[n - 1]))
            lines.append(
                f"h(({n})) = {token_str(self.stalk_images[n - 1])}"
                f"  [k={self.ks[n - 1]}, V={v}]"
            )
            lines.append("  tips: " + " ".join(token_str(t) for t in self.tips[n - 1]))
        return "\n".join(lines)


def embed_hedgehog(
    o: OracleSpace, x: Token = ROOT, u0_index: int = 0, depth: int = 20
) -> Embedding:
    """Build a copy of the hedgehog inside o, rooted at x.

    U0 is the u0_index-th basic neighborhood of x. The construction first
    certifies that no deeper basic neighborhood has closure inside U0 (else
    RegularAtPoint), then, for n = 1..depth, picks x_n in cl(U_{k_n}) \\ U0,
    separates it from x to fix V_n and the next k, shrinks V_n until its
    closure avoids the earlier picks, and extracts a tip sequence inside
    V_n and U_{k_n} converging to x_n. A depth above EMBED_DEPTH_CAP is
    refused before any oracle question."""
    if depth > EMBED_DEPTH_CAP:
        raise CapExceeded(f"hedgehog embedding capped at depth {EMBED_DEPTH_CAP}")
    if depth < 1:
        raise OracleError("depth must be at least 1")
    x = o.validate(x)
    u0 = o.nbhd_base(x, u0_index)

    for j in range(u0_index, u0_index + depth + 1):
        if o.pick_in_closure_minus(o.nbhd_base(x, j), u0) is None:
            raise RegularAtPoint(
                f"closure of base {j} at {token_str(x)} lies inside base {u0_index}"
            )

    ks = [u0_index]
    stalks: list[Token] = []
    v_indices: list[int] = []
    tips: list[tuple[Token, ...]] = []
    for n in range(1, depth + 1):
        k_n = ks[-1]
        u_kn = o.nbhd_base(x, k_n)
        x_n = o.pick_in_closure_minus(u_kn, u0)
        if x_n is None:
            raise OracleRefusal(f"step {n}: no point in cl(base {k_n}) outside base {u0_index}")
        x_n = o.validate(x_n)
        vi, ri = o.separate(x_n, x)
        ks.append(max(k_n + 1, ri))
        # Shrink V_n until its closure avoids x_1 .. x_{n-1}, each validated
        # when it was picked: one adherence test per candidate V_n.
        base_vi = vi
        v_n = o.nbhd_base(x_n, vi)
        while any(map(o.adherents(v_n), stalks)):
            vi += 1
            if vi - base_vi > SHRINK_BOUND:
                raise OracleRefusal(f"step {n}: could not shrink V past earlier picks")
            v_n = o.nbhd_base(x_n, vi)
        row = o.approach_within(x_n, (v_n, u_kn), depth)
        if row is None:
            raise OracleRefusal(f"step {n}: no approach sequence inside V and base {k_n}")
        stalks.append(x_n)
        v_indices.append(vi)
        tips.append(tuple(row))

    return Embedding(
        space=o,
        root_image=x,
        u0_index=u0_index,
        depth=depth,
        ks=tuple(ks),
        stalk_images=tuple(stalks),
        v_indices=tuple(v_indices),
        tips=tuple(tips),
    )


def verify_embedding(o: OracleSpace, e: Embedding, depth: int) -> dict:
    """Re-check an embedding to the given depth (at most the built depth).

    Clauses: (distinctness) all image tokens differ; (stalk_convergence)
    tips of stalk n eventually enter every basic neighborhood of the stalk
    image; (root_pattern) tips of all stalks from some index on eventually
    enter every basic neighborhood of the root image; (separation) each V_n
    holds exactly its own stalk and tips, and the tail neighborhood at the
    next k holds all later tips while excluding the stalk image. A depth
    above EMBED_DEPTH_CAP is refused before any oracle question."""
    if depth > EMBED_DEPTH_CAP:
        raise CapExceeded(f"hedgehog embedding capped at depth {EMBED_DEPTH_CAP}")
    if depth < 1 or depth > e.depth:
        raise OracleError(f"verify depth must be in 1..{e.depth}")
    checks = {"distinctness": 0, "stalk_convergence": 0, "root_pattern": 0, "separation": 0}

    images = [e.root_image] + [e.stalk_images[n] for n in range(depth)]
    for n in range(depth):
        images.extend(e.tips[n][:depth])
    checks["distinctness"] = len(images) * (len(images) - 1) // 2
    seen: dict[Token, int] = {}
    for i, t in enumerate(images):
        if t in seen:
            raise VerificationFailure(
                "distinctness", f"images {seen[t]} and {i} are both {token_str(t)}"
            )
        seen[t] = i
    # Validate each image once; every membership question below is then
    # asked through one test per basic set.
    for t in images:
        o.validate(t)
    members, adherents = o.members, o.adherents

    for n in range(1, depth + 1):
        xn = e.stalk_images[n - 1]
        row = e.tips[n - 1]
        for k in range(depth):
            inside = list(map(members(o.nbhd_base(xn, k)), row[:depth]))
            checks["stalk_convergence"] += len(inside)
            if not inside[-1]:
                raise VerificationFailure(
                    "stalk_convergence",
                    f"tip images of stalk {n} never settle into base {k} at "
                    f"{token_str(xn)}",
                )

    for k in range(depth):
        in_b = members(o.nbhd_base(e.root_image, k))
        stalk_ok = []
        for n in range(1, depth + 1):
            inside = list(map(in_b, e.tips[n - 1][:depth]))
            checks["root_pattern"] += len(inside)
            stalk_ok.append(all(inside))
        if not stalk_ok[-1]:
            raise VerificationFailure(
                "root_pattern",
                f"no stalk tail has all tips inside base {k} at the root image",
            )

    # Each row is asked in order up to its first failure and counted with
    # len; the count is read only on a pass, when every query was asked.
    separation = 0
    for n in range(1, depth + 1):
        xn = e.stalk_images[n - 1]
        in_v = members(o.nbhd_base(xn, e.v_indices[n - 1]))
        if not in_v(xn):
            raise VerificationFailure("separation", f"V_{n} misses its own stalk image")
        row = e.tips[n - 1][:depth]
        separation += 1 + len(row)
        if not all(map(in_v, row)):
            t = next(t for t in row if not in_v(t))
            raise VerificationFailure(
                "separation", f"V_{n} misses its own tip image {token_str(t)}"
            )
        for m in range(1, depth + 1):
            if m == n:
                continue
            if in_v(e.stalk_images[m - 1]):
                raise VerificationFailure(
                    "separation", f"V_{n} captures the stalk image of {m}"
                )
            row = e.tips[m - 1][:depth]
            separation += 1 + len(row)
            if any(map(in_v, row)):
                raise VerificationFailure(
                    "separation", f"V_{n} captures a tip image of stalk {m}"
                )
        w_n = o.nbhd_base(e.root_image, e.ks[n])
        separation += 1
        if adherents(w_n)(xn):
            raise VerificationFailure(
                "separation", f"tail base at k_{n + 1} still adheres to stalk image {n}"
            )
        in_w = members(w_n)
        for m in range(n + 1, depth + 1):
            row = e.tips[m - 1][:depth]
            separation += len(row)
            if not all(map(in_w, row)):
                t = next(t for t in row if not in_w(t))
                raise VerificationFailure(
                    "separation",
                    f"tail base at k_{n + 1} misses tip image {token_str(t)} "
                    f"of stalk {m}",
                )
    checks["separation"] = separation

    return {"depth": depth, "checks": checks, "verdict": "pass"}
