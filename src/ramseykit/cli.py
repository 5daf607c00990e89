"""Command-line front end.

Subcommands: family, witness, avoid, threshold, construct, reduce, lift-exp,
cache.  Exit codes: 0 success/found, 1 none-found or heuristic failure (not
an error), 2 usage/domain error, 3 resource limit hit before a conclusion
(threshold then still prints the bound it proved, ``T >= N``).

Output discipline: stdout carries only deterministic content (no wall times,
no timestamps), so identical invocations are byte-identical;
diagnostics and errors go to stderr.  Machine-readable payloads are written
to files (--out, --certificate, --trace), never mixed into the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .coloring import Coloring
from .families import (
    PRESET_NAMES,
    PatternFamily,
    prefix_product_family,
    preset_from_string,
    reduction_family,
)
from .reduction import (
    DegenerateCoefficientsError,
    exp_lift,
    quadratic_setup,
    solution_to_json,
    solve_quadratic,
    verify_quad_solution,
)
from .search import (
    SearchBudgetExceeded,
    _budget,
    exists_avoiding,
    greedy_avoider,
    threshold,
)
from .storage import ResultRecord, ResultStore, make_provenance
from .witnesses import find_witness, iter_witnesses, witness_to_json

__all__ = ["main", "build_parser"]


# ---- argument helpers ----


def load_family_arg(text: str) -> PatternFamily:
    """A --family value: preset name ('schur', 'vdw:3', ...) or a JSON path.

    Preset names win over files of the same name; use an explicit ./ prefix
    to force path interpretation.
    """
    if text.partition(":")[0] in PRESET_NAMES:
        return preset_from_string(text)
    path = Path(text)
    if not path.exists():
        raise ValueError(
            f"--family {text!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            "nor an existing file"
        )
    return PatternFamily.load(path)


def parse_box_arg(text: str | None):
    """--box forms: '100' (uniform cap), '10,20' (per-variable caps),
    '2:10,1:20' (per-variable lo:hi ranges)."""
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("--box must not be empty")
    if len(parts) == 1 and ":" not in parts[0]:
        return int(parts[0])
    out = []
    for p in parts:
        if ":" in p:
            lo, _, hi = p.partition(":")
            out.append((int(lo), int(hi)))
        else:
            out.append(int(p))
    return out


def parse_coeffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise ValueError(f"--coeffs expects comma-separated integers, got {text!r}") from None


def _store(args) -> ResultStore | None:
    return ResultStore(args.cache) if args.cache else None


def _persist(args, kind: str, fingerprint: str, params: dict, payload: dict) -> None:
    """Append a verified record to the --cache store, when there is one."""
    store = _store(args)
    if store is not None:
        store.append(ResultRecord(kind, fingerprint, params, payload, make_provenance()))


def _print_family(fam: PatternFamily) -> None:
    print(f"name: {fam.name}")
    print(f"num_vars: {fam.num_vars}")
    print(f"distinct_required: {fam.distinct_required}")
    print(f"terms ({len(fam.terms)}):")
    for t in fam.canonical_texts():
        print(f"  {t}")
    print(f"fingerprint: {fam.fingerprint()}")


def _print_witness(w) -> None:
    a = ", ".join(str(v) for v in w.assignment)
    vals = ", ".join(str(v) for v in w.term_values)
    print(f"assignment=({a}) values=({vals}) color={w.color}")


# ---- subcommand bodies ----


def cmd_family(args) -> int:
    if args.action == "show":
        fam = load_family_arg(args.preset if args.preset else args.file)
    else:  # prefix-product generation from a function-set file
        spec = json.loads(Path(args.functions).read_text())
        fsets = spec.get("function_sets") if isinstance(spec, dict) else spec
        if not isinstance(fsets, list) or not all(
            isinstance(fs, list) and all(isinstance(f, str) for f in fs) for fs in fsets
        ):
            raise ValueError(
                "--functions must hold a list of lists of function texts, or an object "
                f'with such a list under "function_sets"; got {spec!r}'
            )
        if isinstance(spec, dict):
            s = spec.get("s", len(fsets))
            if type(s) is not int or s != len(fsets):
                raise ValueError(f'"s": {s!r} is not the number of function sets, {len(fsets)}')
        fam = prefix_product_family(fsets, name=args.name)
    _print_family(fam)
    if args.out:
        fam.save(args.out)
        print(f"family written to {args.out}")
    return 0


def cmd_witness(args) -> int:
    if args.all and args.cache:
        # a record holds one witness, and lookup serves the latest record
        raise ValueError("--cache stores one witness; it cannot be combined with --all")
    fam = load_family_arg(args.family)
    chi = Coloring.load(args.coloring)
    box = parse_box_arg(args.box)
    distinct = True if args.distinct else None

    if args.all:
        found = 0
        collected = []
        for w in iter_witnesses(fam, chi, distinct=distinct, box=box):
            _print_witness(w)
            found += 1
            if args.out:
                collected.append(witness_to_json(fam, chi, w))
        print(f"found {found} witness(es)")
        if args.out:
            Path(args.out).write_text(json.dumps({"witnesses": collected}, indent=2))
            print(f"witnesses written to {args.out}")
        return 0 if found else 1

    w = find_witness(fam, chi, distinct=distinct, box=box)
    if w is None:
        print("no monochromatic witness")
        return 1
    _print_witness(w)
    params = {"n": chi.n, "r": chi.r, "distinct": bool(args.distinct), "box": args.box}
    payload = witness_to_json(fam, chi, w)
    _persist(args, "witness", fam.fingerprint(), params, payload)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"witness written to {args.out}")
    return 0


def cmd_avoid(args) -> int:
    fam = load_family_arg(args.family)

    if args.greedy:
        cert = greedy_avoider(
            fam, args.colors, args.n, args.greedy, seed=args.seed, restarts=args.restarts
        )
        if cert is None:
            print(f"greedy ({args.greedy}) found no avoiding coloring; proves nothing")
            return 1
    else:
        cert = exists_avoiding(
            fam,
            args.colors,
            args.n,
            max_nodes=args.max_nodes,
            time_limit=args.time_limit,
        )
        if cert is None:
            print(
                f"no avoiding coloring: every {args.colors}-coloring of [1..{args.n}] "
                "contains a monochromatic instance"
            )
            return 1

    sizes = cert.coloring.class_sizes()
    print(f"avoiding coloring found: N={cert.n} r={cert.r}")
    print("class sizes: " + " ".join(f"{t}:{s}" for t, s in enumerate(sizes, 1)))
    payload = cert.to_json()
    if args.certificate:
        Path(args.certificate).write_text(json.dumps(payload, indent=2))
        print(f"certificate written to {args.certificate}")
    params = {"n": cert.n, "r": cert.r, "box_relative": False}
    _persist(args, "avoiding", fam.fingerprint(), params, payload)
    return 0


def cmd_threshold(args) -> int:
    fam = load_family_arg(args.family)
    store = _store(args)
    fp = fam.fingerprint()
    params = {"r": args.colors}
    _budget(args.max_nodes, args.time_limit)  # a cache hit must not skip this check

    result_json = None
    if store is not None:
        hit = store.lookup("threshold", fp, params)
        # decided on verified fields only: an exact T, or a bound T >= value > max_n
        if hit is not None and (hit.payload["exact"] or int(hit.payload["value"]) > args.max_n):
            result_json = hit.payload

    exhausted = None  # a budget ran out: report the proven bound, cache nothing
    if result_json is None:
        try:
            res = threshold(
                fam,
                args.colors,
                args.max_n,
                max_nodes=args.max_nodes,
                time_limit=args.time_limit,
            )
        except SearchBudgetExceeded as exc:
            res, exhausted = exc.partial, exc
        result_json = res.to_json()
        result_json["max_n"] = args.max_n
        if exhausted is None:
            _persist(args, "threshold", fp, params, result_json)

    exact = bool(result_json["exact"])
    value = int(result_json["value"])
    print(f"T = {value}" if exact else f"T >= {value}")
    if args.out:
        Path(args.out).write_text(json.dumps(result_json, indent=2))
        print(f"certificate written to {args.out}")
    if exhausted is not None:
        print(f"resource limit: {exhausted}", file=sys.stderr)
        return 3
    return 0 if exact else 1


def cmd_construct(args) -> int:
    from .construction import run_construction

    chi = Coloring.load(args.coloring)
    trace = run_construction(
        chi,
        y_max=args.y_max,
        size_floor=args.size_floor,
        max_rounds=args.max_rounds,
    )
    print("t sequence: " + ", ".join(str(t) for t in trace.t))
    print("y sequence: " + (", ".join(str(y) for y in trace.y) or "(none)"))
    if args.trace:
        Path(args.trace).write_text(json.dumps(trace.to_json(), indent=2))
        print(f"trace written to {args.trace}")
    if trace.ok:
        x, y = trace.witness.assignment
        vals = ", ".join(str(v) for v in trace.witness.term_values)
        print(f"witness: x={x} y={y} -> ({vals}) color={trace.witness.color}")
        return 0
    print(f"failed: {trace.failure_reason}")
    return 1


def cmd_reduce(args) -> int:
    chi = Coloring.load(args.coloring)
    c = parse_coeffs(args.coeffs)
    try:
        rd = quadratic_setup(c)
    except DegenerateCoefficientsError as exc:
        print(f"degenerate coefficients: {exc}")
        return 1
    # a bad --box is refused before anything is printed
    sol = solve_quadratic(c, chi, search_box=parse_box_arg(args.box))
    print("u = (" + ", ".join(str(v) for v in rd.u) + ")")
    print(f"b = {rd.b}")
    if sol is None:
        print("no solution found within the lifted search range")
        return 1
    check = verify_quad_solution(c, chi, sol)
    if not check:
        raise RuntimeError(f"solver output failed independent verification: {check.reason}")
    a = ", ".join(str(v) for v in sol.a)
    x, y = sol.source_witness
    print(f"a = ({a}) color={sol.color} from witness (x={x}, y={y})")
    if args.out:
        Path(args.out).write_text(json.dumps(solution_to_json(rd, sol), indent=2))
        print(f"solution written to {args.out}")
    _persist(
        args,
        "reduction",
        reduction_family(rd.u).fingerprint(),
        {"c": list(c), "n": chi.n, "r": chi.r},
        solution_to_json(rd, sol),
    )
    return 0


def cmd_lift_exp(args) -> int:
    chi = Coloring.load(args.coloring)
    lifted = exp_lift(chi, args.base)
    print(f"exponent coloring: m={lifted.n} r={lifted.r}")
    print("colors: " + " ".join(str(lifted.color_of(i)) for i in range(1, lifted.n + 1)))
    if args.out:
        lifted.save(args.out)
        print(f"coloring written to {args.out}")
    return 0


def cmd_cache(args) -> int:
    if not args.cache:
        raise ValueError("cache subcommand needs --cache PATH")
    store = ResultStore(args.cache)
    # the keys alone: listing and counting parse no record
    read = store.index()
    if args.action == "list":
        good, bad = read
        counts: dict[str, int] = {}
        for _, _, key in good:
            counts[key.kind] = counts.get(key.kind, 0) + 1
        print(f"{len(good)} record(s), {len(bad)} quarantined")
        for kind in sorted(counts):
            print(f"  {kind}: {counts[kind]}")
        for i, _, key in good:
            print(f"  #{i} {key.kind} fp={key.fingerprint[:12]} params={key.params}")
        for i, reason in bad:
            print(f"  #{i} QUARANTINED: {reason}", file=sys.stderr)
        return 0
    # verify
    failures = store.verify_all(read)
    if failures:
        for i, reason in failures:
            print(f"  #{i} FAIL: {reason}")
        print(f"{len(failures)} record(s) failed verification")
        return 1
    print(f"all {len(read[0])} record(s) verified")
    return 0


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the machine-readable result here")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", default=None, help="JSONL results store to read/append")
    # only the exhaustive searches read a budget
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-nodes", type=int, default=None, help="search node budget")
    budget.add_argument("--time-limit", type=float, default=None, help="search time budget (s)")

    p = argparse.ArgumentParser(
        prog="ramseykit",
        description="Monochromatic pattern search, thresholds, constructions, reductions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="show or generate pattern families")
    fam_sub = fam.add_subparsers(dest="action", required=True)
    show = fam_sub.add_parser("show", parents=[out], help="print a preset or family file")
    g = show.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", help="|".join(PRESET_NAMES) + " (vdw:k, geometric:k)")
    g.add_argument("--file", help="family JSON file")
    show.set_defaults(func=cmd_family, action="show")
    pp = fam_sub.add_parser(
        "prefix-product", parents=[out],
        help="generate {x0..xs} u {prefix + shifted f} from a function-set file",
    )
    pp.add_argument("--functions", required=True, help="JSON: list of function-text lists, arities 1..s")
    pp.add_argument("--name", default=None)
    pp.set_defaults(func=cmd_family, action="prefix-product")

    w = sub.add_parser("witness", parents=[out, cache], help="find monochromatic witnesses")
    w.add_argument("--family", required=True, help="preset name or family JSON path")
    w.add_argument("--coloring", required=True, help="coloring file (line 1: N r)")
    w.add_argument("--all", action="store_true", help="stream every witness (not with --cache)")
    w.add_argument("--distinct", action="store_true", help="require distinct term values")
    w.add_argument("--box", default=None, help="assignment box: '100' or '10,20' or '2:10,1:20'")
    w.set_defaults(func=cmd_witness)

    av = sub.add_parser("avoid", parents=[cache, budget], help="search for an avoiding coloring")
    av.add_argument("--family", required=True)
    av.add_argument("--colors", type=int, required=True)
    av.add_argument("--n", type=int, required=True)
    av.add_argument("--certificate", default=None, help="write the certificate JSON here")
    av.add_argument("--greedy", choices=["first-fit", "random"], default=None,
                    help="heuristic instead of exhaustive search")
    av.add_argument("--restarts", type=int, default=32, help="restarts for --greedy random")
    av.add_argument("--seed", type=int, default=0, help="seed for --greedy random")
    av.set_defaults(func=cmd_avoid)

    th = sub.add_parser("threshold", parents=[out, cache, budget],
                        help="least N with no avoiding coloring")
    th.add_argument("--family", required=True)
    th.add_argument("--colors", type=int, required=True)
    th.add_argument("--max-n", type=int, required=True)
    th.set_defaults(func=cmd_threshold)

    co = sub.add_parser("construct",
                        help="run the shift-intersect-dilate rounds on a coloring")
    co.add_argument("--coloring", required=True)
    co.add_argument("--y-max", type=int, default=None)
    co.add_argument("--size-floor", type=int, default=1)
    co.add_argument("--max-rounds", type=int, default=None)
    co.add_argument("--trace", default=None, help="write the round-by-round trace here")
    co.set_defaults(func=cmd_construct)

    re_ = sub.add_parser("reduce", parents=[out, cache],
                         help="monochromatic solution of sum c_l a_l^2 = a0")
    re_.add_argument("--coeffs", required=True, help="comma-separated integers summing to 0")
    re_.add_argument("--coloring", required=True)
    re_.add_argument("--box", default=None, help="box on the witness (x, y) = (bX, bY)")
    re_.set_defaults(func=cmd_reduce)

    le = sub.add_parser("lift-exp", parents=[out],
                        help="restrict a coloring to powers of a base")
    le.add_argument("--coloring", required=True)
    le.add_argument("--base", type=int, required=True)
    le.set_defaults(func=cmd_lift_exp)

    ca = sub.add_parser("cache", parents=[cache], help="inspect or verify a results store")
    ca.add_argument("action", choices=["list", "verify"])
    ca.set_defaults(func=cmd_cache)

    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
