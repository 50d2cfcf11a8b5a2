"""Command-line interface.

Exit codes: 0 success, 1 a verification-type failure (diagram violations,
failed embedding checks, non-empty residue under --witness, violated
composition laws), 2 input or usage errors. All output is deterministic
byte-for-byte for fixed inputs and flags. Every command runs in one process;
--workers is accepted by enumerate and verify-diagram and has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bitset import bits
from .decomposition import (
    ResidueNonEmpty,
    open_decomposition,
    theta_decomposition,
    weak_homeo_witness,
)
from .generate import count_spaces, enumerate_rows, space_from_rows
from .hedgehog import (
    DEPTH_CAP,
    EMBED_DEPTH_CAP,
    ROOT,
    HedgehogOracle,
    NotHausdorffWitnessed,
    OracleRefusal,
    OracleSpace,
    PermutedOracle,
    RegularAtPoint,
    SumOracle,
    VerificationFailure,
    certify_hedgehog_profile,
    embed_hedgehog,
    verify_embedding,
)
from .maps import (
    FinMap,
    classify_map,
    is_weak_homeomorphism,
    map_class_text,
    map_from_obj,
    map_to_obj,
)
from .regularity import SW_BOUND_CAP, classify_report
from .space import (
    POINT_CAP,
    CapExceeded,
    TopologyError,
    format_space,
    read_json,
    row_formatter,
    space_from_obj,
    space_to_obj,
)
from .survey import DIAGRAM_CAP, SAMPLES_CAP, check_composition_laws, find_space, verify_diagram


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _print_report(report, as_json: bool) -> None:
    if as_json:
        _print_json(report.to_obj())
    else:
        print(report.to_text())


def _read_map(arg: str) -> FinMap:
    base_dir = Path.cwd() if arg == "-" else Path(arg).parent
    return map_from_obj(read_json(arg), base_dir=base_dir)


def _int_at_least(low: int, cap: int | None = None):
    """An argparse type: an int no smaller than low and, given a cap, no
    larger than it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
        return value

    return parse


def _sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sizes must be three comma-separated integers")
    try:
        a, b, c = (int(v) for v in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if min(a, b, c) < 1:
        raise argparse.ArgumentTypeError("sizes must be positive")
    return a, b, c


def _oracle_from_spec(spec: str) -> OracleSpace:
    if spec == "hedgehog":
        return HedgehogOracle()
    if spec.startswith("sum:"):
        rest = spec[len("sum:") :]
        if rest.startswith("discrete") and rest[len("discrete") :].isdecimal():
            digits = rest[len("discrete") :].lstrip("0") or "0"
            if len(digits) > len(str(POINT_CAP)):  # before int(), which refuses over 4,300 digits
                raise CapExceeded(f"a {len(digits)}-digit K exceeds the cap of {POINT_CAP} points")
            k = int(digits)
            if k > POINT_CAP:  # before the rows are built
                raise CapExceeded(f"{k} points exceeds the cap of {POINT_CAP}")
            return SumOracle(space_from_rows(tuple(1 << i for i in range(k))))
        return SumOracle(space_from_obj(read_json(rest)))
    if spec.startswith("permuted:"):
        rest = spec[len("permuted:") :]
        try:
            images = [int(v) for v in rest.split(",") if v]
        except ValueError:
            raise TopologyError(f"bad stalk relabeling {rest!r}") from None
        return PermutedOracle({i + 1: v for i, v in enumerate(images)})
    raise TopologyError(
        f"unknown oracle space {spec!r}; use hedgehog, sum:discreteK, "
        "sum:<space.json>, or permuted:<images>"
    )


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    space = space_from_obj(read_json(args.space), args.max_points)
    report = classify_report(space, sw_bound=args.sw_bound)
    _print_report(report, args.json)
    return 0


def cmd_fn_classify(args) -> int:
    f = _read_map(args.map)
    mc = classify_map(f)
    if args.json:
        _print_json({"map": map_to_obj(f), "classification": mc.to_obj()})
    else:
        print(map_class_text(mc))
    return 0


def cmd_fn_weak_homeo(args) -> int:
    f = _read_map(args.map)
    result = is_weak_homeomorphism(f, theta=args.theta)
    if args.json:
        _print_json({"theta": args.theta, "weak_homeomorphism": result})
    else:
        kind = "θ-weak homeomorphism" if args.theta else "weak homeomorphism"
        print(f"{kind}: {'true' if result else 'false'}")
    return 0


def cmd_fn_compositions(args) -> int:
    report = check_composition_laws(args.sizes, samples=args.samples, seed=args.seed)
    _print_report(report, args.json)
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    space = space_from_obj(read_json(args.space), args.max_points)
    if args.mode == "theta":
        dec = theta_decomposition(space)
    else:
        dec = open_decomposition(space)
    witness_obj = None
    lines = [dec.to_text()]
    if args.witness:
        # Raises ResidueNonEmpty (exit 1) when the space does not decompose.
        _, back = weak_homeo_witness(space, theta=args.mode == "theta")
        witness_obj = map_to_obj(back)
        assignment = ",".join(
            f"{a}->{back(a)}" for a in space.names
        )
        lines.append(f"witness map: {{{assignment}}}")
    if args.json:
        obj = {"decomposition": dec.to_obj()}
        if witness_obj is not None:
            obj["witness"] = witness_obj
        _print_json(obj)
    else:
        print("\n".join(lines))
    return 0


def _row_json_formatter(n: int):
    """The encoder's indent=2 text of the space on points "0".."n-1" with
    minimal neighborhoods rows, as it reads in the "spaces" list of the
    enumerate --json document, read from a per-n table of one fragment per
    point and mask. Every name is quoted by the encoder."""
    names = [str(i) for i in range(n)]
    nl = "\n    "  # a space in the "spaces" list sits two levels deep

    def dumps(obj, level: int) -> str:
        # The encoder's text of obj, nested level more levels deep.
        return json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", nl + "  " * level)

    if not n:  # the encoder prints an empty object as {}
        empty = dumps({"points": [], "min_nbhds": {}}, 0)
        return lambda rows: empty
    head = f'{{{nl}  "points": {dumps(names, 1)},{nl}  "min_nbhds": {{{nl}'
    tail = f"{nl}  }}{nl}}}"
    sep = "," + nl
    cells = [
        [f"    {dumps(a, 0)}: {dumps([names[j] for j in bits(m)], 2)}" for m in range(1 << n)]
        for a in names
    ]
    return lambda rows: head + sep.join([c[m] for c, m in zip(cells, rows)]) + tail


def cmd_enumerate(args) -> int:
    n = args.n
    mode = "homeo" if args.homeo else "labeled"
    if args.count:
        count = count_spaces(n, mode)
        if args.json:
            _print_json({"n": n, "mode": mode, "count": count})
        else:
            print(count)
        return 0
    rows = enumerate_rows(n, mode)
    write = sys.stdout.write
    if args.json:
        # _print_json's bytes, one space at a time: only the row tuples are
        # held, for the count. Never empty: every n has the discrete space.
        rows = list(rows)
        head = json.dumps({"n": n, "mode": mode, "count": len(rows)}, indent=2)
        print(head[: -len("\n}")] + ',\n  "spaces": [')
        body = _row_json_formatter(n)
        for i, r in enumerate(rows):
            write((",\n    " if i else "    ") + body(r))
        print("\n  ]\n}")
    else:
        line = row_formatter(n)
        for r in rows:
            write(line(r) + "\n")
    return 0


def cmd_search(args) -> int:
    space = find_space(args.where, n_max=args.max_n)
    if args.json:
        obj = {"predicate": args.where, "max_n": args.max_n}
        if space is None:
            obj["found"] = None
        else:
            obj["found"] = space_to_obj(space)
        _print_json(obj)
    elif space is None:
        print(f"no space with at most {args.max_n} points matches")
    else:
        print(f"found (n = {len(space)}): {format_space(space)}")
    return 0


def cmd_verify_diagram(args) -> int:
    report = verify_diagram(
        n_max=args.max_n,
        sw_bound=args.sw_bound,
        transfer_max=args.transfer_max,
    )
    _print_report(report, args.json)
    return 0 if report.ok else 1


def cmd_hh_profile(args) -> int:
    report = certify_hedgehog_profile(args.depth)
    _print_report(report, args.json)
    return 0 if report.ok else 1


def cmd_hh_embed(args) -> int:
    oracle = _oracle_from_spec(args.space)
    emb = embed_hedgehog(oracle, ROOT, u0_index=args.u0_index, depth=args.depth)
    verification = verify_embedding(oracle, emb, args.depth)
    if args.json:
        _print_json({"space": args.space, "embedding": emb.to_obj(), "verification": verification})
    else:
        checks = verification["checks"]
        print(emb.to_text())
        print(
            f"verification: pass (depth {verification['depth']}; "
            f"distinctness {checks['distinctness']}, "
            f"stalk convergence {checks['stalk_convergence']}, "
            f"root pattern {checks['root_pattern']}, "
            f"separation {checks['separation']})"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


SW_BOUND_HELP = f"largest domain size of the sw witness search (default 3, at most {SW_BOUND_CAP})"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topo",
        description="Finite-space regularity spectrum, map classification, "
        "decompositions, enumeration, and the hedgehog embedding.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="full property report for a space")
    c.add_argument("space", help="space JSON file, or - for stdin")
    c.add_argument("--sw-bound", type=_int_at_least(1), default=3, help=SW_BOUND_HELP)
    c.add_argument("--max-points", type=_int_at_least(1, POINT_CAP), default=POINT_CAP)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    f = sub.add_parser("fn", help="map classification and composition checks")
    fsub = f.add_subparsers(dest="fn_command", required=True)
    fc = fsub.add_parser("classify", help="continuity-ladder tier of a map")
    fc.add_argument("map", help="map JSON file, or - for stdin")
    fc.add_argument("--json", action="store_true")
    fc.set_defaults(func=cmd_fn_classify)
    fw = fsub.add_parser("weak-homeo", help="test for a (θ-)weak homeomorphism")
    fw.add_argument("map")
    fw.add_argument("--theta", action="store_true")
    fw.add_argument("--json", action="store_true")
    fw.set_defaults(func=cmd_fn_weak_homeo)
    fx = fsub.add_parser("compositions", help="exercise the composition law table")
    fx.add_argument("--sizes", type=_sizes, default=(2, 2, 2), help="e.g. 2,2,2")
    fx.add_argument("--samples", type=_int_at_least(1, SAMPLES_CAP), default=10000)
    fx.add_argument("--seed", type=int, default=0)
    fx.add_argument("--json", action="store_true")
    fx.set_defaults(func=cmd_fn_compositions)

    d = sub.add_parser("decompose", help="iterated kernel decomposition")
    d.add_argument("space")
    d.add_argument("--mode", choices=("theta", "open"), default="theta")
    d.add_argument("--witness", action="store_true", help="emit the weak-homeomorphism map")
    d.add_argument("--max-points", type=_int_at_least(1, POINT_CAP), default=POINT_CAP)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("enumerate", help="stream spaces on n points")
    e.add_argument("-n", type=_int_at_least(0), required=True)
    g = e.add_mutually_exclusive_group()
    g.add_argument("--labeled", action="store_true", default=True)
    g.add_argument("--homeo", action="store_true", default=False)
    e.add_argument("--count", action="store_true")
    e.add_argument("--workers", type=_int_at_least(1), default=1, help="accepted, no effect")
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("search", help="least space satisfying a property predicate")
    s.add_argument("--where", required=True, help="predicate over property names: ! && || ()")
    s.add_argument("--max-n", type=_int_at_least(1), default=5)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_search)

    v = sub.add_parser("verify-diagram", help="check all implications on small spaces")
    v.add_argument(
        "--max-n", type=_int_at_least(1), default=4, help=f"at most {DIAGRAM_CAP} points"
    )
    v.add_argument("--sw-bound", type=_int_at_least(1), default=3, help=SW_BOUND_HELP)
    v.add_argument("--transfer-max", type=_int_at_least(1), default=3)
    v.add_argument("--workers", type=_int_at_least(1), default=1, help="accepted, no effect")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify_diagram)

    h = sub.add_parser("hedgehog", help="profile certification and embedding")
    hsub = h.add_subparsers(dest="hh_command", required=True)
    hp = hsub.add_parser("profile")
    hp.add_argument("--depth", type=_int_at_least(1, DEPTH_CAP), default=50)
    hp.add_argument("--json", action="store_true")
    hp.set_defaults(func=cmd_hh_profile)
    he = hsub.add_parser("embed")
    he.add_argument("--depth", type=_int_at_least(1, EMBED_DEPTH_CAP), default=20)
    he.add_argument(
        "--space",
        default="hedgehog",
        help="hedgehog | sum:discreteK | sum:<space.json> | permuted:<images>",
    )
    he.add_argument("--u0-index", type=_int_at_least(0), default=0)
    he.add_argument("--json", action="store_true")
    he.set_defaults(func=cmd_hh_embed)

    return p


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped reading. Point stdout at the null device, so that
        # the interpreter's last flush of what is still buffered cannot raise.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # no file descriptor, as in a StringIO
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0
    except (
        ResidueNonEmpty,
        VerificationFailure,
        RegularAtPoint,
        OracleRefusal,
        NotHausdorffWitnessed,
    ) as exc:
        print(f"error: {exc}")
        return 1
    except (TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
