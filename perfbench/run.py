"""houseswap benchmark: one seeded workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {injective,planted,file} \
        --seed N --seconds S --trace {0,1}

It imports the package from ``src/`` beside this directory and needs
nothing installed.  Ops repeat until ``--seconds`` is used up (at least
three, four when traced); every op is checked outside its timed region.
Times are reported at the reference machine speed: each op's wall
times are scaled by how fast ``calibrate()`` ran around it.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics; the spans go
to ``.perfbench/spans-<workload>-<seed>.json``.  The last line of output
is the JSON result; the exit code is 1 if any check failed.  README.md
says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

INJECTIVE_HOUSES = 10_000
PLANTED_SIZE = (6000, 3000, 375)  # agents, house types, segments
FILE_SIZE = (1200, 600)  # agents, house types
CHILD_TIMEOUT_S = 120
PROBE_TEXT = "houses: h1\nagent a1 endow h1 prefs h1\n"
# What calibrate() takes on the reference machine (a 2-core Xeon VM,
# CPython 3.11) when it runs at its usual speed.
CALIBRATION_REF_S = 0.040

LAYER_SPANS = {
    "gen.random_market_s": "gen.random_market",
    "fileformat.serialize_market_s": "fileformat.serialize_market",
    "fileformat.parse_market_text_s": "fileformat.parse_market_text",
    "market.validate_market_s": "market.validate_market",
    "htts.htts_solve_s": "htts.htts_solve",
    "digraph.scc_components_s": "digraph.scc_components",
}
TIME_METRICS = (*LAYER_SPANS, "cli.startup_s")
SOLVE_COUNTS = {
    "htts.steps": "steps",
    "htts.arcs_built": "arcs_built",
    "htts.feasibility_comparisons": "feasibility_comparisons",
    "digraph.scc_work": "scc_work",
}


class CheckFailed(Exception):
    """An op's output disagreed with its reference."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop that touches no houseswap
    code.  Timed right before and after each op, it measures how fast the
    machine runs at that moment."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


class Children:
    """Runs houseswap commands as child processes, traced or not."""

    def __init__(self) -> None:
        self.env = _env()
        self.spans_path = WORK / f"{os.getpid()}-child-spans.json"

    def run(self, argv, tracer=None, stdout_path=None):
        """Return ``(wall_s, exit_code, stdout, stderr)``."""
        with contextlib.ExitStack() as stack:
            out = (
                stack.enter_context(open(stdout_path, "wb"))
                if stdout_path
                else subprocess.PIPE
            )
            if tracer is None:
                cmd = [sys.executable, "-m", "houseswap", *argv]
                rec = None
            else:
                rec = stack.enter_context(tracer.span(f"child.{argv[0]}"))
                cmd = [
                    sys.executable, str(HERE / "traced_cli.py"),
                    str(self.spans_path), rec["id"], *argv,
                ]
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, stdout=out, stderr=subprocess.PIPE, env=self.env,
                timeout=CHILD_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
        if rec is not None and proc.returncode in (0, 2):
            tracer.spans.extend(json.loads(self.spans_path.read_text()))
            self.spans_path.unlink()
        return wall, proc.returncode, proc.stdout, proc.stderr.decode()


def _traced(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.installed()


class InProcess:
    """A market built and solved in this process: ``injective`` or
    ``planted``.  Each op draws its own market seed from ``--seed``."""

    def __init__(self, seed: int, build, verify) -> None:
        from houseswap.rng import SplitMix64

        self.seeds = SplitMix64(seed)
        self.build = build
        self.verify = verify

    def op(self, tracer):
        from houseswap import htts

        op_seed = self.seeds.next_u64()
        with _traced(tracer):
            start = time.perf_counter()
            market, expected = self.build(op_seed)
            built = time.perf_counter()
            outcome = htts.htts_solve(market, counter=htts.OpCounter())
            solved = time.perf_counter()
        self.verify(market, expected, outcome)
        return built - start, solved - built, []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


def injective_ops() -> tuple:
    from houseswap import gen
    from houseswap.oracle import ttc_solve

    def build(seed):
        params = gen.GenParams(INJECTIVE_HOUSES, INJECTIVE_HOUSES, seed)
        return gen.random_market(params), None

    def verify(market, _, outcome):
        check(outcome.core_found, "injective market reported an empty core")
        reference = ttc_solve(market, cap=market.agent_count)
        check(outcome.allocation == reference, "allocation differs from TTC")

    return build, verify


def planted_ops() -> tuple:
    from planted import planted_market

    agents, houses, segments = PLANTED_SIZE

    def build(seed):
        return planted_market(agents, houses, segments, seed)

    def verify(_, expected, outcome):
        check(outcome.core_found, "planted market reported an empty core")
        check(outcome.allocation.assignment == expected,
              "allocation differs from the planted one")
        check(len(outcome.trace) == segments,
              f"{len(outcome.trace)} steps, planted {segments}")

    return build, verify


def recount_failed_segment(market, outcome) -> None:
    """Confirm from the market alone, without the solver, that the last
    trace segment is closed under favourites and mismatches supply and
    demand."""
    *done, last = outcome.trace
    removed = {h for seg in done for h in seg.houses}
    houses = set(last.houses)
    owners = tuple(i for i, e in enumerate(market.endowments) if e in houses)
    check(owners == last.owners, "failing segment's owners differ")
    supply = dict.fromkeys(houses, 0)
    demand = dict.fromkeys(houses, 0)
    for i in owners:
        supply[market.endowments[i]] += 1
        favourite = next(h for h in market.prefs[i] if h not in removed)
        check(favourite in houses, "failing segment is not closed")
        demand[favourite] += 1
    check(supply != demand, "failing segment has supply equal to demand")


class FileRun:
    """``houseswap gen`` writes a market file, ``houseswap solve`` reads
    it.  Every op regenerates and re-solves the run's one market."""

    def __init__(self, seed: int) -> None:
        from houseswap import gen, htts
        from houseswap.rng import SplitMix64

        agents, houses = FILE_SIZE
        market_seed = SplitMix64(seed).next_u64()
        self.gen_argv = ["gen", "--agents", str(agents), "--houses", str(houses),
                         "--seed", str(market_seed)]
        self.reference = gen.random_market(gen.GenParams(agents, houses, market_seed))
        self.reference_prefs = [
            tuple(p[k] for k in range(houses)) for p in self.reference.prefs
        ]
        outcome = htts.htts_solve(self.reference)
        check(not outcome.core_found, "file market has a core; expected none")
        recount_failed_segment(self.reference, outcome)
        self.expected_stderr = f"EMPTY CORE at step {outcome.failed_step}"
        self.path = WORK / f"{os.getpid()}-file.market"
        self.children = Children()

    def op(self, tracer):
        setup, code, _, err = self.children.run(self.gen_argv, tracer, self.path)
        check(code == 0, f"gen exited {code}: {err.strip()}")
        self.check_generated()
        solve, code, _, err = self.children.run(["solve", str(self.path)], tracer)
        check(code == 2, f"solve exited {code}, expected 2: {err.strip()}")
        check(err.strip() == self.expected_stderr,
              f"solve printed {err.strip()!r}, expected {self.expected_stderr!r}")
        return setup, solve, [self.path]

    def check_generated(self) -> None:
        from houseswap.fileformat import load_market

        parsed = load_market(self.path.read_text(encoding="utf-8"))
        ref = self.reference
        check(parsed.house_names == ref.house_names, "gen house names differ")
        check(parsed.agent_names == ref.agent_names, "gen agent names differ")
        check(parsed.endowments == ref.endowments, "gen endowments differ")
        check(list(parsed.prefs) == self.reference_prefs, "gen preferences differ")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def probe(children: Children, tracer) -> tuple[float, Path]:
    """``gen`` then ``solve`` of a one-agent market: the CLI start-up
    floor, and a call into every layer on every workload."""
    path = WORK / f"{os.getpid()}-probe.market"
    _, code, _, err = children.run(
        ["gen", "--agents", "1", "--houses", "1"], tracer, path
    )
    check(code == 0 and path.read_text() == PROBE_TEXT, f"probe gen failed: {err}")
    wall, code, out, err = children.run(["solve", str(path)], tracer)
    check(code == 0 and out == b"a1 -> h1\n", f"probe solve failed: {err}")
    return wall, path


def layer_metrics(
    spans: list[dict], startup_s: float, market_bytes: int, scale: float
) -> dict:
    """Per-layer numbers of one traced op: seconds per span name and the
    start-up probe's wall time, both times ``scale``, and counts summed
    over its solves."""
    values = dict.fromkeys(LAYER_SPANS, 0.0)
    names = {span: metric for metric, span in LAYER_SPANS.items()}
    counts = dict.fromkeys(SOLVE_COUNTS, 0)
    repoints = advances = core_arcs = 0
    for rec in spans:
        metric = names.get(rec["name"])
        if metric is not None:
            values[metric] += (rec["end_ns"] - rec["start_ns"]) / 1e9 * scale
        if rec["name"] == "htts.htts_solve":
            for key, field in SOLVE_COUNTS.items():
                counts[key] += rec[field]
            if rec["core_found"]:
                repoints += rec["repoints"]
                advances += rec["cursor_advances"]
                core_arcs += rec["arcs_built"]
    values["cli.startup_s"] = startup_s * scale
    values.update(counts)
    values["fileformat.market_bytes"] = market_bytes
    values["htts.repoints"] = repoints
    values["htts.arcs_per_repoint"] = core_arcs / repoints
    values["htts.cursor_advances"] = advances
    return values


def measure(workload, seconds: float, trace: bool):
    """Run ops until ``seconds`` are used; return the per-op records and
    the number that failed."""
    from spans import Tracer

    children = Children()
    ops: list[dict] = []
    failed = 0
    durations: list[float] = []
    min_ops = 4 if trace else 3
    start = time.perf_counter()
    while True:
        traced = trace and len(durations) % 2 == 1
        tracer = Tracer() if traced else None
        op_start = time.perf_counter()
        gc.collect()  # the previous op's garbage, outside any timed region
        try:
            before = calibrate()
            if traced:
                with tracer.span("op"):
                    startup, probe_path = probe(children, tracer)
                    setup, solve, files = workload.op(tracer)
            else:
                setup, solve, _ = workload.op(None)
            scale = 2 * CALIBRATION_REF_S / (before + calibrate())
            op = dict(setup_s=setup * scale, solve_s=solve * scale,
                      wall_setup_s=setup, wall_solve_s=solve, traced=traced)
            if traced:
                files = [probe_path, *files]
                op["spans"] = tracer.finish()
                op["layers"] = layer_metrics(
                    op["spans"], startup, sum(p.stat().st_size for p in files),
                    scale,
                )
            ops.append(op)
        except Exception:
            failed += 1
            print(f"op {len(durations)} failed:", file=sys.stderr)
            traceback.print_exc()
        durations.append(time.perf_counter() - op_start)
        # Stop before an op that would likely overrun ``seconds``.
        expected_end = time.perf_counter() - start + statistics.fmean(durations)
        if len(durations) >= min_ops and expected_end > seconds:
            return ops, len(durations), failed


def _median(ops, key, traced):
    values = [op[key] for op in ops if op["traced"] == traced]
    return statistics.median(values), len(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("injective", "planted", "file"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "houseswap" / "__init__.py").is_file():
        print(f"error: no houseswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    if args.workload == "file":
        workload = FileRun(args.seed)
    else:
        build, verify = (
            injective_ops() if args.workload == "injective" else planted_ops()
        )
        workload = InProcess(args.seed, build, verify)
    try:
        ops, attempted, failed = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
        for leftover in WORK.glob(f"{os.getpid()}-*"):
            leftover.unlink()

    metrics: dict[str, dict] = {}

    def report(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32} {value:>16.6f} {unit:6} {note}")

    print(f"workload={args.workload} seed={args.seed} ops={attempted} failed={failed}"
          f" failed_ratio={failed / attempted:.6f} ratio")
    if ops and not args.trace:
        for key in ("setup_s", "solve_s"):
            value, n = _median(ops, key, False)
            wall, _ = _median(ops, f"wall_{key}", False)
            report(key, value, "s",
                   f"median of {n}, at reference speed; wall {wall:.6f} s")
        report("peak_rss_mb", workload.peak_rss_mb(), "MB", "peak resident set")
    elif any(op["traced"] for op in ops) and any(not op["traced"] for op in ops):
        traced = [op for op in ops if op["traced"]]
        first = traced[0]["layers"]
        for name in first:
            if name in TIME_METRICS:
                value = statistics.median(op["layers"][name] for op in traced)
                report(name, value, "s", f"median of {len(traced)} traced ops")
            else:
                unit = "ratio" if name == "htts.arcs_per_repoint" else "count"
                report(name, first[name], unit, "first traced op")
        solve_traced, _ = _median(ops, "solve_s", True)
        solve_plain, _ = _median(ops, "solve_s", False)
        report("trace.overhead_s", solve_traced - solve_plain, "s",
               "traced minus untraced median solve_s")
        out = WORK / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps([op["spans"] for op in traced]))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
