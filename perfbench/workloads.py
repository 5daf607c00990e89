"""The four workloads: seeded inputs, the fixed question list, the checks.

A workload is built in three steps.  ``write_inputs`` makes its input files
from the seed with plain numpy and json (no program code) and lists the ones
that set-up loads.  ``Workload.load`` loads them with the program's own
loaders.  ``Workload.ops`` is the question list, answered once per pass.

Each op has ``run`` (the timed call into ramseykit, through module
attributes so that tracing sees it) and ``summarize`` (untimed: turns the
program's objects into plain data).  ``check`` judges the plain answers of
one pass with the independent checkers and returns (errors, failed): errors
are wrong answers, failed lists ops that hit a known fault of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

FAMILY_TERMS = {
    "schur": ["x0", "x1", "x0 + x1"],
    "vdw:3": ["x0", "x0 + x1", "x0 + 2*x1"],
    "vdw:4": ["x0", "x0 + x1", "x0 + 2*x1", "x0 + 3*x1"],
    "x_y_3xmy": ["x0", "x1", "3*x0 - x1"],
    "xyxy": ["x0", "x0 + x1", "x0*x1"],
    "xysum": ["x0", "x1", "x0 + x1", "x0*x1"],
}

# decide: (kind, family, r, N or max_n, distinct)
DECIDE = [
    ("threshold", "vdw:3", 3, 30, False),
    ("threshold", "vdw:4", 2, 40, False),
    ("threshold", "schur", 3, 20, False),
    ("exists", "schur", 4, 43, False),
    ("threshold", "x_y_3xmy", 2, 20, False),
    ("threshold", "x_y_3xmy", 2, 20, True),
    ("threshold", "xyxy", 3, 71, False),
    ("threshold", "xysum", 3, 200, False),
]

SCAN_N = 3000
SCAN_STREAM_BOX = 300

# reduce: (coefficients, colouring); the colourings are made in write_inputs
REDUCE = [
    ((1, -1), "rand2_200"),
    ((1, -1), "rand3_300"),
    ((1, 2, -3), "rand3_300"),
    ((1, 1, -2), "rand2_200"),
    ((2, -1, -1), "rand3_300"),
    ((1, 2, -3), "solid_300"),
    ((1, 1, -2), "solid_300"),
    ((1, -2, 1), "solid_300"),
]
BIG_N = 10**6

STORE_WRITES = {"avoid": 1100, "witness": 800, "reduce": 100}
STORE_CHECKPOINT = 200  # a lookup group after every this many writes
STORE_VERIFY_AT = (1000, 2000)
STORE_SMALL = [(60, 2), (80, 3), (100, 2), (120, 3), (150, 2), (200, 2)]
# avoid calls: family -> largest N with an avoider for r = 2 (T - 1)
STORE_AVOID = {"schur": 4, "vdw:3": 8, "x_y_3xmy": 8, "xyxy": 3}


# ---- input files (plain numpy / json) ----


def write_coloring(path: Path, colors: np.ndarray, r: int) -> None:
    """The program's text format: 'N r', then 20 colours per line."""
    if r > 9:
        raise ValueError("single-digit colours only")
    n = colors.size
    rows = -(-n // 20)
    flat = np.zeros(rows * 20, dtype=np.uint8)
    flat[:n] = colors + ord("0")
    grid = np.full((rows, 40), ord(" "), dtype=np.uint8)
    grid[:, 0::2] = flat.reshape(rows, 20)
    grid[:, 39] = ord("\n")
    body = grid.tobytes()
    if n % 20:
        body = body[: len(body) - 40 + 2 * (n % 20) - 1] + b"\n"
    path.write_bytes(f"{n} {r}\n".encode() + body)


def write_family(path: Path, key: str, distinct: bool = False) -> None:
    obj = {"name": key, "num_vars": 2, "terms": FAMILY_TERMS[key], "distinct_required": distinct}
    path.write_text(json.dumps(obj))


def block_coloring(rng: np.random.Generator, n: int, r: int, mean_run: int) -> np.ndarray:
    lengths = rng.integers(1, 2 * mean_run, size=n // mean_run * 2 + 10)
    colors = rng.integers(1, r + 1, size=lengths.size)
    return np.repeat(colors, lengths)[:n].astype(np.int32)


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    """Make the workload's inputs; returns the manifest (also saved)."""
    rng = np.random.default_rng([seed % 2**32, sorted(WORKLOADS).index(workload)])
    fam_dir, col_dir = work / "families", work / "colorings"
    fam_dir.mkdir(parents=True)
    col_dir.mkdir()
    families: dict[str, str] = {}
    colorings: dict[str, list] = {}  # name -> [path, r]

    def fam(key, distinct=False):
        name = key + (":distinct" if distinct else "")
        path = fam_dir / (name.replace(":", "_") + ".json")
        write_family(path, key, distinct)
        families[name] = str(path)

    def col(name, arr, r):
        path = col_dir / f"{name}.txt"
        write_coloring(path, arr, r)
        colorings[name] = [str(path), r]

    extra: dict[str, Any] = {}
    if workload == "decide":
        for _, key, _, _, distinct in DECIDE:
            fam(key, distinct)
        extra["order"] = rng.permutation(len(DECIDE)).tolist()
    elif workload == "scan":
        fam("xyxy")
        fam("schur")
        for r in (2, 3):
            col(f"rand{r}", rng.integers(1, r + 1, size=SCAN_N, dtype=np.int32), r)
    elif workload == "reduce":
        col("rand2_200", rng.integers(1, 3, size=200, dtype=np.int32), 2)
        col("rand3_300", rng.integers(1, 4, size=300, dtype=np.int32), 3)
        col("solid_300", np.ones(300, dtype=np.int32), 1)
        col("big_rand3", rng.integers(1, 4, size=BIG_N, dtype=np.int32), 3)
        col("big_block3", block_coloring(rng, BIG_N, 3, 1000), 3)
    elif workload == "store":
        for key in STORE_AVOID:
            fam(key)
        for i, (n, r) in enumerate(STORE_SMALL):
            col(f"small{i}", rng.integers(1, r + 1, size=n, dtype=np.int32), r)
        extra["schedule_seed"] = int(rng.integers(1 << 31))
        extra["big"] = {}
        for name, arr in (("big_rand3", rng.integers(1, 4, size=BIG_N, dtype=np.int32)),
                          ("big_block3", block_coloring(rng, BIG_N, 3, 50))):
            path = work / f"{name}.npy"
            np.save(path, arr)
            extra["big"][name] = str(path)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "families": families,
                "colorings": colorings, **extra}
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def read_array(path: str) -> np.ndarray:
    """Raw colours of a colouring file, read apart from the program."""
    tokens = Path(path).read_bytes().split()
    return np.array(tokens[2:], dtype=np.int32)


# ---- ops ----


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any] = lambda raw: raw
    meta: dict = field(default_factory=dict)


def cli_call(cli, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cert_data(cert):
    if cert is None:
        return None
    return {"n": cert.n, "r": cert.r, "rle": [list(map(int, run)) for run in cert.rle]}


class Workload:
    """Inputs, question list and checks of one workload (subclasses below)."""

    def __init__(self, rk, cli, manifest: dict, work: Path):
        self.rk, self.cli, self.m, self.work = rk, cli, manifest, work
        self.families: dict = {}
        self.colorings: dict = {}

    def load(self) -> None:
        """Set-up: load the input files with the program's loaders."""
        for name, path in self.m["families"].items():
            self.families[name] = self.rk.PatternFamily.load(path)
        for name, (path, _) in self.m["colorings"].items():
            self.colorings[name] = self.rk.Coloring.load(path)

    def prepare(self) -> None:
        """Benchmark-side preparation after set-up (not part of setup_s)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def before_pass(self) -> None:
        pass

    def after_pass(self, index: int) -> None:
        pass

    def check(self, ops: list[Op], answers: list) -> tuple[list[str], list[str]]:
        raise NotImplementedError


class Decide(Workload):
    """Exhaustive avoidance and threshold questions (search)."""

    def ops(self):
        rk = self.rk
        out = []
        for i in self.m["order"]:
            kind, key, r, size, distinct = DECIDE[i]
            fam = self.families[key + (":distinct" if distinct else "")]
            meta = {"kind": kind, "family": key, "r": r, "distinct": distinct}
            if kind == "threshold":
                meta["max_n"] = size
                out.append(Op(
                    f"threshold {key}{'/distinct' if distinct else ''} r={r} max_n={size}",
                    lambda fam=fam, r=r, size=size: rk.threshold(fam, r, size, jobs=1),
                    lambda res: {"value": res.value, "exact": res.exact,
                                 "cert": cert_data(res.certificate)},
                    meta))
            else:
                meta["n"] = size
                out.append(Op(
                    f"exists_avoiding {key} r={r} N={size}",
                    lambda fam=fam, r=r, size=size: rk.exists_avoiding(fam, r, size, jobs=1),
                    lambda cert: {"cert": cert_data(cert)},
                    meta))
        return out

    def check(self, ops, answers):
        known: dict = {}
        errors = []
        for op, ans in zip(ops, answers):
            errors += checks.check_decide(op.meta, ans, known)
        return errors, []


def witness_data(w):
    if w is None:
        return None
    return (int(w.assignment[0]), int(w.assignment[1]),
            tuple(int(v) for v in w.term_values), int(w.color))


class Scan(Workload):
    """Witness counts, streams and first witnesses on random colourings."""

    def ops(self):
        rk = self.rk
        out = []
        for cname in ("rand2", "rand3"):
            chi = self.colorings[cname]
            for key in ("xyxy", "schur"):
                fam = self.families[key]
                meta = {"family": key, "coloring": cname}
                out.append(Op(f"count_witnesses {key} {cname}",
                              lambda fam=fam, chi=chi: rk.count_witnesses(fam, chi),
                              int, {**meta, "kind": "count"}))
                box = None if key == "xyxy" else SCAN_STREAM_BOX
                out.append(Op(f"iter_witnesses {key} {cname} box={box}",
                              lambda fam=fam, chi=chi, box=box:
                                  list(rk.iter_witnesses(fam, chi, box=box)),
                              lambda ws: [witness_data(w) for w in ws],
                              {**meta, "kind": "stream", "box": box}))
                out.append(Op(f"find_witness {key} {cname}",
                              lambda fam=fam, chi=chi: rk.find_witness(fam, chi),
                              witness_data, {**meta, "kind": "find"}))
        return out

    def check(self, ops, answers):
        arrays = {c: read_array(p) for c, (p, _) in self.m["colorings"].items()}
        errors, memo = [], {}
        for op, ans in zip(ops, answers):
            errors += checks.check_scan(op.meta, ans, arrays[op.meta["coloring"]], memo)
        return errors, []


class Reduce(Workload):
    """solve_quadratic over fixed coefficient vectors, and run_construction."""

    def ops(self):
        rk = self.rk
        out = []
        for c, cname in REDUCE:
            chi = self.colorings[cname]

            def run(c=c, chi=chi):
                return rk.quadratic_setup(c), rk.solve_quadratic(c, chi)

            def summarize(raw):
                rd, sol = raw
                s = None if sol is None else (list(sol.a), int(sol.color), list(sol.source_witness))
                return {"u": list(rd.u), "b": rd.b, "solution": s}

            out.append(Op(f"solve_quadratic {c} {cname}", run, summarize,
                          {"kind": "reduce", "c": c, "coloring": cname}))
        for cname in ("big_rand3", "big_block3"):
            chi = self.colorings[cname]

            def summarize(trace):
                if trace.witness is None:
                    return None
                x, y = trace.witness.assignment
                return (int(x), int(y), int(trace.witness.color))

            out.append(Op(f"run_construction {cname}",
                          lambda chi=chi: rk.run_construction(chi), summarize,
                          {"kind": "construction", "coloring": cname}))
        return out

    def check(self, ops, answers):
        arrays = {c: read_array(p) for c, (p, _) in self.m["colorings"].items()}
        errors = []
        for op, ans in zip(ops, answers):
            colors = arrays[op.meta["coloring"]]
            if op.meta["kind"] == "reduce":
                errors += checks.check_reduce(op.meta, ans, colors.tolist())
            else:
                errors += checks.check_construction(ans, colors)
        return errors, []


class Store(Workload):
    """CLI sessions against a fresh results store per pass."""


    def prepare(self):
        self.big = {name: np.load(path) for name, path in self.m["big"].items()}
        self.store = self.work / "store" / "results.jsonl"
        self.forged_store = self.work / "store" / "forged.jsonl"
        self.snapshot: list[str] | None = None
        schur = self.rk.preset_family("schur")
        cert = self.rk.exists_avoiding(schur, 2, 3)
        # a forged exact record: T = 4 with a valid avoider at N = 3 (true T = 5)
        self.forged = self.rk.ResultRecord(
            "threshold", schur.fingerprint(), {"r": 2},
            {"family_name": "schur", "fingerprint": schur.fingerprint(), "r": 2, "value": 4,
             "exact": True, "certificate": cert.to_json(), "nodes": 0, "max_n": 10},
            {})

    def before_pass(self):
        shutil.rmtree(self.store.parent, ignore_errors=True)
        self.store.parent.mkdir(parents=True)

    def after_pass(self, index):
        if index == 0:
            self.snapshot = self.store.read_text().splitlines()

    def _writes(self) -> list[Op]:
        cli, m = self.cli, self.m
        rng = np.random.default_rng(m["schedule_seed"])
        S = str(self.store)
        small = list(m["colorings"])
        specs = []
        keys = list(STORE_AVOID)
        for i in range(STORE_WRITES["avoid"]):
            key = keys[i % len(keys)]
            n = int(rng.integers(1, STORE_AVOID[key] + 1))
            fam_arg = m["families"][key] if rng.random() < 0.5 else key
            fp = self.families[key].fingerprint()
            specs.append(("avoid", key, ["avoid", "--family", fam_arg, "--colors", "2",
                                         "--n", str(n), "--cache", S],
                          {"n": n, "r": 2, "box_relative": False}, fp, None))
        for i in range(STORE_WRITES["witness"]):
            key = "schur" if i % 8 < 5 else "vdw:3"
            pool = small if key == "schur" else [c for c in small if m["colorings"][c][1] == 2]
            cname = pool[int(rng.integers(len(pool)))]
            path, r = m["colorings"][cname]
            n = self.colorings[cname].n
            specs.append(("witness", key, ["witness", "--family", key, "--coloring", path,
                                           "--cache", S],
                          {"n": n, "r": r, "distinct": False, "box": None},
                          self.families[key].fingerprint(), cname))
        two = [c for c in small if m["colorings"][c][1] == 2 and self.colorings[c].n >= 100]
        for i in range(STORE_WRITES["reduce"]):
            cname = two[int(rng.integers(len(two)))]
            path, r = m["colorings"][cname]
            n = self.colorings[cname].n
            specs.append(("reduce", None, ["reduce", "--coeffs", "1,-1", "--coloring", path,
                                           "--cache", S],
                          {"c": [1, -1], "n": n, "r": r}, None, cname))
        order = rng.permutation(len(specs))
        ops = []
        for j in order:
            kind, key, argv, params, fp, cname = specs[j]
            ops.append(Op(f"{argv[0]} {' '.join(argv[1:-2])}",
                          lambda argv=argv: cli_call(cli, argv),
                          meta={"kind": kind, "family": key, "params": params,
                           "fingerprint": fp, "coloring": cname}))
        return ops

    def ops(self):
        rk, cli = self.rk, self.cli
        S = str(self.store)
        writes = self._writes()
        out: list[Op] = []
        lookup_rng = np.random.default_rng(self.m["schedule_seed"] + 1)
        th_keys = list(STORE_AVOID)
        for i, w in enumerate(writes, 1):
            out.append(w)
            if i % STORE_CHECKPOINT == 0:
                key = th_keys[(i // STORE_CHECKPOINT) % len(th_keys)]
                out.append(Op(f"threshold --cache {key}",
                              lambda key=key: cli_call(cli, ["threshold", "--family", key,
                                                             "--colors", "2", "--max-n", "20",
                                                             "--cache", S]),
                              meta={"kind": "threshold", "family": key}))
                target = writes[int(lookup_rng.integers(i))]
                while target.meta["kind"] == "reduce":
                    target = writes[int(lookup_rng.integers(i))]
                kind = "avoiding" if target.meta["kind"] == "avoid" else "witness"
                key_ = {"kind": kind, "fingerprint": target.meta["fingerprint"],
                        "params": target.meta["params"]}
                out.append(Op(f"ResultStore.lookup {kind}",
                              lambda k=key_: rk.ResultStore(S).lookup(k["kind"], k["fingerprint"], k["params"]),
                              lambda rec: None if rec is None else rec.to_json() | {"provenance": None},
                              {"kind": "lookup", "key": key_}))
                out.append(Op("cache list", lambda: cli_call(cli, ["cache", "list", "--cache", S]),
                              meta={"kind": "list"}))
            if i in STORE_VERIFY_AT:
                out.append(Op("cache verify", lambda: cli_call(cli, ["cache", "verify", "--cache", S]),
                              meta={"kind": "verify"}))
        for name, arr in self.big.items():
            path = self.store.parent / f"{name}.txt"

            def run(arr=arr, path=path):
                rk.Coloring(arr.size, 3, arr).save(path)
                loaded = rk.Coloring.load(path)
                runs = loaded.to_rle()
                back = rk.Coloring.from_rle(loaded.n, loaded.r, runs)
                return loaded, runs, back

            def summarize(raw, name=name):
                loaded, runs, back = raw
                return {"name": name, "loaded": checks.digest(loaded.colors), "runs": len(runs),
                        "decoded": checks.digest(checks.decode_runs(runs)),
                        "roundtrip": checks.digest(back.colors)}

            out.append(Op(f"save/load/rle {name}", run, summarize, {"kind": "io", "name": name}))
        out.append(Op("forged exact threshold record (schur r=2, T=4)", self._forged,
                      meta={"kind": "forged"}))
        return out

    def _forged(self):
        F = str(self.forged_store)
        try:
            self.rk.ResultStore(F).append(self.forged)
        except self.rk.StoreVerificationError:
            return {"rejected": True}
        verify = cli_call(self.cli, ["cache", "verify", "--cache", F])
        th = cli_call(self.cli, ["threshold", "--family", "schur", "--colors", "2",
                                 "--max-n", "10", "--cache", F])
        return {"rejected": False, "verify": verify, "threshold": th}

    def check(self, ops, answers):
        lines = self.snapshot or []
        arrays = {c: read_array(p) for c, (p, _) in self.m["colorings"].items()}
        colors_of = {c: a.tolist() for c, a in arrays.items()}
        known: dict = {}
        first_w: dict = {}
        first_sol: dict = {}
        errors: list[str] = []
        failed: list[str] = []
        count = 0  # records in the store so far
        th_seen: set = set()

        def T(key):
            if key not in known:
                known[key] = checks.true_threshold(key, 2, False)
            return known[key]

        def next_line(kind, params):
            nonlocal count
            if count >= len(lines):
                errors.append(f"store holds {len(lines)} records, expected more")
                return None
            obj = json.loads(lines[count])
            count += 1
            if obj["kind"] != kind or obj["params"] != params:
                errors.append(f"record {count - 1}: {obj['kind']} {obj['params']}, expected {kind} {params}")
                return None
            return obj

        for op, ans in zip(ops, answers):
            k = op.meta.get("kind")
            if k == "forged":
                ok = ans["rejected"] or (
                    ans["verify"][0] == 1 and "FAIL" in ans["verify"][1]
                    and ans["threshold"][1].strip() == f"T = {T('schur')}")
                if not ok:
                    failed.append(f"{op.name}: cache verify said {ans['verify'][1].strip()!r}, "
                                  f"threshold --cache said {ans['threshold'][1].strip()!r}")
                continue
            if k == "io":
                errors += checks.check_roundtrip(ans, self.big[op.meta["name"]])
                continue
            if k == "lookup":
                errors += checks.check_lookup(ans, lines[:count], op.meta["key"])
                continue
            rc, out = ans
            if k == "list":
                if out.splitlines()[:1] != [f"{count} record(s), 0 quarantined"]:
                    errors.append(f"cache list at {count} records: {out.splitlines()[:1]}")
                continue
            if k == "verify":
                if (rc, out.strip()) != (0, f"all {count} record(s) verified"):
                    errors.append(f"cache verify at {count} records: rc={rc} {out.strip()!r}")
                continue
            if k == "threshold":
                key = op.meta["family"]
                if out.strip() != f"T = {T(key)}":
                    errors.append(f"threshold --cache {key}: {out.strip()!r}, true T = {T(key)}")
                if key not in th_seen:
                    th_seen.add(key)
                    obj = next_line("threshold", {"r": 2})
                    if obj is not None:
                        p = obj["payload"]
                        if (p["value"], p["exact"]) != (T(key), True):
                            errors.append(f"stored threshold {key}: {p['value']} exact={p['exact']}")
                        errors += checks.check_avoider(
                            {"n": p["certificate"]["n"], "r": p["certificate"]["r"],
                             "rle": p["certificate"]["coloring_rle"]}, key, 2, T(key) - 1, False)
                continue
            if k == "avoid":
                n = op.meta["params"]["n"]
                if rc != 0 or not out.startswith(f"avoiding coloring found: N={n} r=2\n"):
                    errors.append(f"{op.name}: rc={rc} {out[:60]!r}")
                    continue
                obj = next_line("avoiding", op.meta["params"])
                if obj is not None:
                    p = obj["payload"]
                    errors += checks.check_avoider(
                        {"n": p["n"], "r": p["r"], "rle": p["coloring_rle"]},
                        op.meta["family"], 2, n, False)
                continue
            cname = op.meta["coloring"]
            if k == "witness":
                key = op.meta["family"]
                if (key, cname) not in first_w:
                    xs, ys = checks.direct_witnesses(arrays[cname], key)
                    first_w[(key, cname)] = checks.witness_tuple(arrays[cname], key, xs[0], ys[0])
                x, y, vals, c = first_w[(key, cname)]
                want = f"assignment=({x}, {y}) values=({', '.join(map(str, vals))}) color={c}\n"
                if (rc, out) != (0, want):
                    errors.append(f"{op.name}: rc={rc} {out!r}, direct {want!r}")
                    continue
                obj = next_line("witness", op.meta["params"])
                if obj is not None and (tuple(obj["payload"]["assignment"]),
                                        tuple(obj["payload"]["term_values"]),
                                        obj["payload"]["color"]) != ((x, y), vals, c):
                    errors.append(f"{op.name}: stored witness differs from the direct first")
                continue
            if k == "reduce":
                if cname not in first_sol:
                    first_sol[cname] = checks.first_solution((1, -1), colors_of[cname])
                want = first_sol[cname]
                if want is None:
                    if rc != 1:
                        errors.append(f"{op.name}: rc={rc}, direct search finds no solution")
                    continue
                a, c, (x, y) = want
                line = f"a = ({', '.join(map(str, a))}) color={c} from witness (x={x}, y={y})"
                if rc != 0 or line not in out.splitlines():
                    errors.append(f"{op.name}: rc={rc} {out!r}, direct {line!r}")
                    continue
                obj = next_line("reduction", op.meta["params"])
                if obj is not None:
                    errors += checks.check_solution((1, -1), colors_of[cname],
                                                    tuple(obj["payload"]["a"]), obj["payload"]["color"])
                continue
            errors.append(f"{op.name}: unknown op kind {k}")
        if count != len(lines):
            errors.append(f"store holds {len(lines)} records, the session wrote {count}")
        return errors, failed


WORKLOADS = {"decide": Decide, "scan": Scan, "reduce": Reduce, "store": Store}
