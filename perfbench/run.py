"""Benchmark for the symbreak command line.

Usage::

    python3 perfbench/run.py --workload exhaustive|symmetric|population|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation ("op") is one ``symbreak``
CLI invocation in a fresh interpreter (``perfbench/op.py``), so every
``lru_cache`` starts cold as it does for a user; ops run one after another
with ``--jobs 1``.  A round runs every op of the workload once; rounds
repeat while the next one would overrun ``--seconds`` by at most half a
round.  Each op's times are scaled by the calibration unit timed around it
and its neighbours (see CAL_UNIT_S), each op keeps the median over rounds,
and the metrics are computed from those medians.  Every op's output is checked against a
reference: an exit-3 refusal counts as failed, a wrong answer also makes
the run incorrect.  ``--trace 1`` alternates untraced rounds with rounds
that wrap the public functions of every module, and reports the per-layer
metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

OP_TIMEOUT_S = 60
EXIT_BOUNDS = 3

#: Interpreter speed on small shared hosts drifts by tens of percent within
#: seconds.  So each op's process times a calibration unit just before and
#: just after the op (see op.py), and the op's timings are scaled by
#: CAL_UNIT_S / u, where u is the median of its samples and its neighbours'
#: (see set_scales): timings read as seconds on a machine where the unit
#: takes CAL_UNIT_S.  The unit is benchmark code, so
#: no change to the program moves it.  Unscaled values are printed
#: alongside.
CAL_UNIT_S = 0.032

EXHAUSTIVE = [
    ["verify", "bound", "--n", "1..6", "--jobs", "1"],
    *(["verify", target, "--n", "4..6", "--jobs", "1"] for target in ("Dn", "Dn1", "Dn2", "Dn3")),
    ["verify", "construction", "--max", "4", "--jobs", "1"],
    ["verify", "construction", "--max", "6", "--jobs", "1"],
    ["enumerate", "--n", "6", "--jobs", "1"],
]
SYMMETRIC = [
    "C10", "IheA@GUAo", "K8", "K(4,4)", "T5", "~C10", "U(C5,C5)", "C9", "K(3,3,3)", "K9", "E11",
]
#: G(n, p) graphs per order, drawn once from POOL_SEED with p stratified
#: over [P_LOW, P_HIGH].  A run's seed relabels every graph and shuffles the
#: file.  Fresh draws per seed changed the cost of the same ops by about 20%
#: between seeds, because per-graph cost is heavy-tailed; relabeling keeps
#: the isomorphism classes, and so that cost distribution, fixed.
POPULATION_ORDERS = (7, 8)
POPULATION_PER_ORDER = 200
P_LOW, P_HIGH = 0.2, 0.8
POOL_SEED = 0

#: Fields of ``analyze`` output checked against the reference.  Catalog
#: matches are left out: they are skipped above the canonical-form cap, and
#: the verify ops check catalog membership already.
ANALYZE_INVARIANTS = ("n", "connected", "dim", "D", "core_diameter", "core_twin_order", "in_family_F")

#: Traced functions that carry an ``lru_cache`` at the time the benchmark
#: was defined; each reports ``.hit_ratio`` (0 when it has no cache).
CACHED = (
    "catalog.instantiate_families",
    "symmetry.automorphism_group",
    "symmetry.distinguishing_number",
    "resolving.metric_dimension",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "graphs_per_s": "1/s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    argv: list[str]
    expected: object  # normalised output, compared with ``summarize(argv, stdout)``
    expected_exit: int

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class OpResult:
    op: Op
    spawn: float
    exited: float
    setup_s: float
    work_s: float
    rss_mb: float
    outcome: str  # "ok", "refused" or "wrong"
    graphs: int
    detail: str = ""
    trace: dict | None = None
    cal_unit_s: list[float] = field(default_factory=list)  # before and after the op
    scale: float = 1.0  # set by set_scales

    @property
    def elapsed_s(self) -> float:
        """Time from spawn to exit, less the calibration in the process."""
        return self.exited - self.spawn - sum(self.cal_unit_s)


@dataclass
class Round:
    results: list[OpResult] = field(default_factory=list)
    traced: bool = False

    @property
    def elapsed_s(self) -> float:
        """Time from the first op's spawn to the last op's exit."""
        return self.results[-1].exited - self.results[0].spawn

    def work_s(self) -> float:
        return sum(r.work_s * r.scale for r in self.results)


# ---------------------------------------------------------------------------
# Output normalisation: the parts of an op's output that the reference fixes
# ---------------------------------------------------------------------------


def summarize(argv: list[str], stdout: str) -> tuple[object, int]:
    """Normalised output and the number of graphs it scanned or analyzed.

    Verify reports keep counts, verdict, the counterexample graph6 set and
    the number of exclusions (whose notes quote catalog graphs in whatever
    labeling the family constructor produces).  Analyze keeps
    :data:`ANALYZE_INVARIANTS`.
    """
    if argv[0] == "verify":
        reports = []
        for r in json.loads(stdout):
            if r["verdict"] == "NOT_APPLICABLE":
                reports.append({"check": r["check"], "order": r["order"], "verdict": r["verdict"]})
                continue
            reports.append(
                {
                    "check": r["check"],
                    "order": r["order"],
                    "scanned": r["scanned"],
                    "matched": r["matched"],
                    "verdict": r["verdict"],
                    "mismatches": sorted(m["graph6"] for m in r["mismatches"]),
                    "excluded": len(r["excluded"]),
                }
            )
        return reports, sum(r.get("scanned", 0) for r in reports)
    if argv[0] == "enumerate":
        rows = list(csv.reader(io.StringIO(stdout)))[1:]
        return rows, len(rows)
    report = json.loads(stdout)
    return {key: report[key] for key in ANALYZE_INVARIANTS}, 1


def expected_exit(argv: list[str], expected: object) -> int:
    if argv[0] == "verify":
        return int(any(r["verdict"] == "FAIL" for r in expected))
    return 0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _make_ops(argvs: list[list[str]], expected: list[object], seed: int) -> list[Op]:
    ops = [Op(argv, exp, expected_exit(argv, exp)) for argv, exp in zip(argvs, expected)]
    random.Random(f"order-{seed}").shuffle(ops)
    return ops


def exhaustive_workload(refs: dict, seed: int) -> tuple[list[Op], dict]:
    expected = [refs["exhaustive"][" ".join(argv)] for argv in EXHAUSTIVE]
    return _make_ops(EXHAUSTIVE, expected, seed), refs["exhaustive_inputs"]


def symmetric_workload(refs: dict, seed: int) -> tuple[list[Op], dict]:
    argvs = [["analyze", text] for text in SYMMETRIC]
    expected = [refs["symmetric"][text]["analyze"] for text in SYMMETRIC]
    transitive = [refs["symmetric"][text]["vertex_transitive"] for text in SYMMETRIC]
    inputs = {
        "graphs": len(SYMMETRIC),
        "vertex_transitive_share": sum(transitive) / len(transitive),
    }
    return _make_ops(argvs, expected, seed), inputs


def generate_population(seed: int) -> list[tuple[int, list[int]]]:
    pool = random.Random(f"population-{POOL_SEED}")
    rng = random.Random(f"labels-{seed}")
    graphs = []
    for n in POPULATION_ORDERS:
        for i in range(POPULATION_PER_ORDER):
            p = P_LOW + (P_HIGH - P_LOW) * (i + pool.random()) / POPULATION_PER_ORDER
            label = rng.sample(range(n), n)
            rows = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if pool.random() < p:
                        rows[label[a]] |= 1 << label[b]
                        rows[label[b]] |= 1 << label[a]
            graphs.append((n, rows))
    rng.shuffle(graphs)
    return graphs


def _dn3_reference(n: int, population: list[dict], catalog: list[dict]) -> dict:
    """The report ``verify Dn3`` must give at order ``n`` (see
    ``symbreak.verify.check_characterization``), from reference answers."""
    target = n - 3
    covered_catalog = [reference.graph6_decode(c["graph6"])[1] for c in catalog if c["covered"]]
    mismatches = [c["graph6"] for c in catalog if c["covered"] and c["D"] != target]
    excluded = sum(1 for c in catalog if not c["covered"])
    matched = 0
    order_n = [g for g in population if g["n"] == n]
    for g in order_n:
        if g["D"] != target:
            continue
        if not reference.in_coverage(n, g["rows"]):
            excluded += 1
        elif any(reference.are_isomorphic(n, g["rows"], c) for c in covered_catalog):
            matched += 1
        else:
            mismatches.append(g["graph6"])
    return {
        "check": "Dn3",
        "order": n,
        "scanned": len(order_n),
        "matched": matched,
        "verdict": "FAIL" if mismatches else "PASS",
        "mismatches": sorted(mismatches),
        "excluded": excluded,
    }


def population_workload(refs: dict, seed: int) -> tuple[list[Op], dict]:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"population-{seed}.g6"
    population = []
    for n, rows in generate_population(seed):
        facts = reference.invariants(n, rows)
        population.append({"n": n, "rows": rows, "graph6": reference.graph6_encode(n, rows), **facts})
    path.write_text("".join(g["graph6"] + "\n" for g in population), encoding="ascii")
    file_arg = str(path.relative_to(ROOT))
    bound = []
    for n in POPULATION_ORDERS:
        connected = sum(1 for g in population if g["n"] == n and g["connected"])
        bound.append(
            {"check": "bound", "order": n, "scanned": connected, "matched": connected,
             "verdict": "PASS", "mismatches": [], "excluded": 0}
        )
    dn3 = [_dn3_reference(n, population, refs["dn3_catalog"][str(n)]) for n in POPULATION_ORDERS]
    top = max(POPULATION_ORDERS)
    rows = [
        [g["graph6"], str(top), str(int(g["connected"])), str(g["D"]), "" if g["dim"] is None else str(g["dim"])]
        for g in population
        if g["n"] == top
    ]
    orders = f"{min(POPULATION_ORDERS)}..{top}"
    argvs = [
        ["verify", "bound", "--n", orders, "--graph6-file", file_arg, "--jobs", "1"],
        ["verify", "Dn3", "--n", orders, "--graph6-file", file_arg, "--jobs", "1"],
        ["enumerate", "--n", str(top), "--graph6-file", file_arg, "--jobs", "1"],
    ]
    inputs = {"graphs": len(population)}
    for n in POPULATION_ORDERS:
        of_n = [g for g in population if g["n"] == n]
        inputs[f"nontrivial_aut_share_n{n}"] = sum(g["aut_order"] > 1 for g in of_n) / len(of_n)
        inputs[f"connected_share_n{n}"] = sum(g["connected"] for g in of_n) / len(of_n)
    return _make_ops(argvs, [bound, dn3, rows], seed), inputs


WORKLOADS = {
    "exhaustive": exhaustive_workload,
    "symmetric": symmetric_workload,
    "population": population_workload,
}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SYMMETRIC_JOBS", None)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_op(op: Op, trace: bool, env: dict[str, str]) -> OpResult:
    command = [sys.executable, str(HERE / "op.py"), json.dumps(op.argv), "1" if trace else "0"]
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        now = time.perf_counter()
        return OpResult(op, spawn, now, 0.0, now - spawn, 0.0, "wrong", 0, "timed out")
    exited = time.perf_counter()
    try:
        child = json.loads(proc.stdout)
    except json.JSONDecodeError:
        detail = f"runner exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return OpResult(op, spawn, exited, 0.0, exited - spawn, 0.0, "wrong", 0, detail)
    result = OpResult(
        op,
        spawn,
        exited,
        setup_s=child["t_imported"] - spawn,
        work_s=child["work_s"],
        rss_mb=child["maxrss_kb"] / 1024,
        outcome="ok",
        graphs=0,
        trace=child["trace"],
        cal_unit_s=child["cal_unit_s"],
    )
    if child["error"]:
        result.outcome, result.detail = "wrong", child["error"].strip().splitlines()[-1]
    elif child["exit"] == EXIT_BOUNDS:
        result.outcome, result.detail = "refused", child["stderr"].strip()
    elif child["exit"] != op.expected_exit:
        result.outcome = "wrong"
        result.detail = f"exit {child['exit']}, expected {op.expected_exit}: {child['stderr'].strip()}"
    else:
        try:
            summary, result.graphs = summarize(op.argv, child["stdout"])
        except (ValueError, KeyError, TypeError, IndexError) as err:
            summary, result.detail = None, f"unreadable output: {err!r}"
        if summary != op.expected:
            result.outcome, result.graphs = "wrong", 0
            result.detail = result.detail or "output differs from the reference"
    return result


def run_rounds(ops: list[Op], modes: tuple[bool, ...], budget_s: float, env: dict[str, str]) -> list[Round]:
    """Rounds cycling through ``modes`` (traced or not), each mode at least
    once; another round while it would overrun the budget by at most half
    a round."""
    start = time.perf_counter()
    rounds: list[Round] = []
    while True:
        trace = modes[len(rounds) % len(modes)]
        rounds.append(Round([run_op(op, trace, env) for op in ops], trace))
        mean_round = statistics.mean(r.elapsed_s for r in rounds)
        if len(rounds) >= len(modes) and time.perf_counter() - start + mean_round / 2 > budget_s:
            break
    set_scales(rounds)
    return rounds


def set_scales(rounds: list[Round]) -> None:
    """Scale each op by CAL_UNIT_S over the median of the calibration
    samples of that op and of the ops just before and after it in time:
    six samples over a few seconds, which follow the drift of the host
    and damp the noise of a single sample."""
    timeline = [r for rnd in rounds for r in rnd.results]
    for i, r in enumerate(timeline):
        samples = [c for near in timeline[max(i - 1, 0) : i + 2] for c in near.cal_unit_s]
        r.scale = CAL_UNIT_S / statistics.median(samples) if samples else 1.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def op_medians(rounds: list[Round], attr: str, scaled: bool = True) -> list[float]:
    """Per op, the median over rounds of one of its timings."""
    return [
        statistics.median(getattr(r, attr) * (r.scale if scaled else 1.0) for r in results)
        for results in zip(*(rnd.results for rnd in rounds))
    ]


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict[str, float]:
    """wall_s and work_s sum the per-op medians; setup_s is the median over
    every op of every round."""
    works = op_medians(rounds, "work_s", scaled)
    return {
        "wall_s": sum(op_medians(rounds, "elapsed_s", scaled)),
        "setup_s": statistics.median(
            r.setup_s * (r.scale if scaled else 1.0) for rnd in rounds for r in rnd.results
        ),
        "work_s": sum(works),
        "graphs_per_s": sum(r.graphs for r in rounds[0].results) / sum(works),
        "op_p50_s": statistics.median(works),
        "op_max_s": max(works),
        "peak_rss_mb": max(r.rss_mb for rnd in rounds for r in rnd.results),
    }


def per_layer(traced: list[Round], untraced_work_s: float) -> dict[str, tuple[float, str]]:
    """Per-function counters summed over the ops of a round, median over
    rounds; each op's times are scaled like its end-to-end ones."""
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def add(name: str, value: float, unit: str) -> None:
        samples.setdefault(name, []).append(value)
        units[name] = unit

    names = next((r.trace["names"] for rnd in traced for r in rnd.results if r.trace), [])
    for rnd in traced:
        traces = [r.trace for r in rnd.results if r.trace]
        scales = [r.scale for r in rnd.results if r.trace]
        self_sum = 0.0
        for fid, name in enumerate(names):
            add(f"{name}.calls", sum(t["calls"][fid] for t in traces), "count")
            add(f"{name}.busy_s", sum(t["busy_s"][fid] * k for t, k in zip(traces, scales)), "s")
            fn_self = sum(t["self_s"][fid] * k for t, k in zip(traces, scales))
            self_sum += fn_self
            add(f"{name}.self_s", fn_self, "s")
            if name in CACHED:
                hits = sum(t["caches"].get(name, [0, 0])[0] for t in traces)
                misses = sum(t["caches"].get(name, [0, 0])[1] for t in traces)
                add(f"{name}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
        add("symmetry.automorphism_group.elements", sum(t["aut_elements"] for t in traces), "count")
        add("isomorphism.enumerate_graphs.classes", sum(t["classes"] for t in traces), "count")
        add("trace.work_s", rnd.work_s(), "s")
        add("trace.self_sum_s", self_sum, "s")
    metrics = {name: (statistics.median(values), units[name]) for name, values in samples.items()}
    metrics["trace.overhead_s"] = (metrics["trace.work_s"][0] - untraced_work_s, "s")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def write_spans(workload: str, seed: int, traced: list[Round]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    payload = [
        {"round": i, "op": r.op.label, "names": r.trace["names"], "spans": r.trace["spans"]}
        for i, rnd in enumerate(traced)
        for r in rnd.results
        if r.trace
    ]
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_workload(name: str, refs: dict, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    ops, inputs = WORKLOADS[name](refs, seed)
    rounds = run_rounds(ops, (False, True) if trace else (False,), seconds, env)
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    e2e = end_to_end(untraced)
    if trace:
        metrics = per_layer(traced, e2e["work_s"])
        spans_path = write_spans(name, seed, traced)
    else:
        metrics = {key: (value, END_TO_END[key]) for key, value in e2e.items()}
    failed_ops = [r for r in untraced[0].results if r.outcome != "ok"]

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{len(untraced)} untraced round(s) of {len(ops)} ops"
          + (f", {len(traced)} traced" if trace else ""))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:14.6f} {unit}")
    print(f"  {'op_p50_s, op_max_s sample base':<48} {len(ops):14d} ops per round")
    for op, work in zip(ops, op_medians(untraced, "work_s")):
        print(f"    op work {work:10.4f} s  {op.label}")
    print(f"  {'ops_failed':<48} {len(failed_ops):14d} count per round")
    for r in failed_ops:
        print(f"    {r.outcome}: {r.op.label}: {r.detail}")
    scales = [r.scale for rnd in untraced for r in rnd.results]
    print(f"  {'calibration scale, median over ops':<48} {statistics.median(scales):14.4f}")
    for key, value in end_to_end(untraced, scaled=False).items():
        print(f"  unscaled {key:<39} {value:14.6f} {END_TO_END[key]}")
    print(f"  {'src_lines (informational)':<48} {src_lines():14d} lines")
    for key, value in inputs.items():
        print(f"  input {key:<42} {value:14.4f}")
    if trace:
        missing = sorted({m for rnd in traced for r in rnd.results if r.trace for m in r.trace["missing"]})
        if missing:
            print(f"  traced functions not found, reported as 0: {', '.join(missing)}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return {
        "correct": all(r.outcome != "wrong" for rnd in rounds for r in rnd.results),
        "attempted": sum(len(rnd.results) for rnd in rounds),
        "failed": sum(r.outcome != "ok" for rnd in rounds for r in rnd.results),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "symbreak" / "cli.py").is_file():
        print(f"error: no symbreak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, refs, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
