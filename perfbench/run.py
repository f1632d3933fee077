"""markprep benchmark: two workloads, end-to-end metrics and a traced
per-layer run.

    python3 perfbench/run.py --workload paper_roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run it from a markprep checkout; it imports the package from ``src/`` and
exits with code 2 when that is missing.  Inputs are built from ``--seed``
by the benchmark itself (``inputs.py``).  Scratch files go to
``.bench_work/`` in the checkout, and each run leaves its environment,
metrics, failed checks and output digest in ``.bench_work/results/``.

Untraced (``--trace 0``): set-up runs three times, each building the
inputs afresh and then running one warm-up pass.  Timed passes then
repeat until ``--seconds`` have passed.

A shared host runs the same work up to about 1.6x slower for seconds to
minutes at a time, and that drift, not the program, would set the spread
of raw wall times between runs.  So a fixed calibration probe (see
``workloads.PROBE``) runs before and after every command, and each
command's time is divided by the mean of its two probes and multiplied
by ``PROBE_REF_S``: the time the command would take on a host where the
probe takes ``PROBE_REF_S``.  ``pass_s`` and ``cpu_s`` sum each command's
median rescaled wall and CPU time over the timed passes; ``setup_s`` is
the median of the three rescaled set-ups.  The raw medians are printed
beside them as ``pass_wall_s``, ``setup_wall_s`` and ``probe_s``.

Traced (``--trace 1``): after one untraced warm-up of the in-process
sequence, each round runs one reference pass, then the same
public calls in-process twice, untraced and then with spans from
``spans.py`` around each call (order swapped on odd rounds).  Per-layer
metrics are medians over rounds, in raw seconds; the difference of the
two in-process times is the tracing overhead.  The package is not patched.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares for the mode.
Lines before it report every metric with its unit and sample count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checks
from spans import NoTracer, Tracer
from workloads import WORKLOADS, Cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5

PROBE_REF_S = 0.2  # seconds: the probe's median wall time on the reference host

UNIT_SUFFIXES = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_ratio", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")


def rescaled_wall(step) -> float:
    return step.wall * PROBE_REF_S / step.probe


def rescaled_cpu(step) -> float:
    return step.cpu * PROBE_REF_S / step.probe


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "markprep").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    import numpy

    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "load_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of any command (or probe) this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: int, check: Checks) -> dict:
    work = WORK / workload.name
    cli = Cli(SRC, ROOT)
    cli.import_time()
    setups: list[float] = []
    setup_walls: list[float] = []
    warm_digests, state = set(), None
    for _ in range(SETUP_REPEATS):
        state = None  # so peak RSS never holds two copies of the inputs
        probe = cli.probe()
        start = time.perf_counter()
        state = workload.build(seed, work, SRC)
        built = time.perf_counter() - start
        workload.expect(state)  # the checks' own arithmetic, not timed
        warm = workload.run_pass(state, check)
        steps = warm.steps.values()
        setups.append(built * PROBE_REF_S / ((probe + warm.first_probe) / 2) + sum(map(rescaled_wall, steps)))
        setup_walls.append(built + sum(step.wall for step in steps))
        warm_digests.add(warm.digest)
    check(len(warm_digests) == 1, "outputs byte-identical across set-ups")

    passes: list = []
    digests: set[str] = set()
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        done = workload.run_pass(state, check)
        passes.append(done)
        digests.add(done.digest)
    check(len(digests) == 1, "outputs byte-identical across passes")

    metrics = {}
    for name in passes[0].steps:
        samples = [done.steps[name] for done in passes]
        metrics[f"{name}_s"] = (statistics.median(map(rescaled_wall, samples)), len(samples))
        metrics[f"{name}_cpu_s"] = (statistics.median(map(rescaled_cpu, samples)), len(samples))
    names = list(passes[0].steps)
    metrics["pass_s"] = (sum(metrics[f"{name}_s"][0] for name in names), len(passes))
    metrics["cpu_s"] = (sum(metrics.pop(f"{name}_cpu_s")[0] for name in names), len(passes))
    metrics["pass_wall_s"] = (statistics.median(sum(s.wall for s in done.steps.values()) for done in passes), len(passes))
    metrics["probe_s"] = (statistics.median(s.probe for done in passes for s in done.steps.values()), len(passes) * len(names))
    metrics["setup_s"] = (statistics.median(setups), SETUP_REPEATS)
    metrics["setup_wall_s"] = (statistics.median(setup_walls), SETUP_REPEATS)
    metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    metrics["refine.rows_unaccounted"] = (warm.rows_unaccounted, 1)
    return {"metrics": metrics, "digest": digests.pop()}


def _nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return count


def layer_metrics(tracer: Tracer, round_id: int, got: dict, reference, import_s: float) -> dict:
    """Per-layer numbers of one traced round."""
    out = {f"{name}_s": value for name, value in tracer.durations(round_id).items()}
    for index, span in enumerate(tracer.spans):
        if span.pass_id == round_id and span.parent is None and span.name.startswith("cli."):
            command = span.name.removeprefix("cli.")
            library = sum(tracer.spans[c].duration for c in tracer.children(index))
            out[f"cli.{command}.residual_s"] = reference.steps[command].wall - import_s - library
            del out[f"{span.name}_s"]

    comparison = got["comparison"]
    models = comparison["models"]
    reports = got.get("ingest", [])
    examined = sum(r.accepted_count + r.rejected_count for r in reports)
    rejected = sum(r.rejected_count for r in reports)
    train_s = out.get("forest.train_s", 0.0)
    nodes = sum(_nodes(tree) for model in models for tree in model.trees)
    out.update(
        {
            "cli.import_s": import_s,
            "streams.substream_calls": got.get("generator_streams", 0) + 1 + sum(len(model.trees) for model in models),
            "ingest.rows_examined": examined,
            "ingest.rows_rejected": rejected,
            "ingest.duplicates_collapsed": got.get("collapsed", 0),
            "ingest.write_bytes": sum(path.stat().st_size for path in got.get("writes", [])),
            # 1 when the workload parses nothing: no ingest work was wasted
            "ingest.accept_ratio": (examined - rejected) / examined if examined else 1.0,
            "stats.t_tests": got.get("t_tests", 0),
            "refine.rows_unaccounted": reference.rows_unaccounted,
            "evaluation.students_in_table": got["table_rows"],
            "evaluation.students_excluded": got["students"] - got["table_rows"],
            "evaluation.predict_traversals": sum(comparison["test_rows"] * len(model.trees) for model in models),
            "forest.trees": sum(len(model.trees) for model in models),
            "forest.nodes": nodes,
            "forest.nodes_per_s": nodes / train_s if train_s else 0.0,
        }
    )
    if "models_fitted" in got:
        out["refine.models_fitted"] = got["models_fitted"]
    if "synthgen.generate_cohort_s" in out:
        out["synthgen.records_per_s"] = got["generated"] / out["synthgen.generate_cohort_s"]
    return out


def check_trace(check: Checks, state: dict, tracer: Tracer, round_id: int, got: dict, reference) -> None:
    for index, span in enumerate(tracer.spans):
        if span.pass_id == round_id and span.parent is None:
            total = sum(tracer.self_time(i) for i in tracer.subtree(index))
            check(abs(total - span.duration) <= 1e-9 * max(1.0, span.duration), f"trace: {span.name} self times sum to its span")
    for path in got["writes"]:
        cli_output = state["work"] / "pass" / path.name
        same = cli_output.is_file() and path.read_bytes() == cli_output.read_bytes()
        check(same, f"trace: in-process {path.name} matches the CLI's")
    compared = reference.outputs["evaluate"]
    for report, side in zip(got["comparison"]["reports"], ("with_car", "without_car")):
        check(report.auc == compared.get(side, {}).get("auc"), f"trace: decomposed {side} AUC reproduces compare_with_without_car")


def traced_run(workload, seed: int, seconds: int, check: Checks) -> dict:
    import markprep  # noqa: F401  (so the first in-process sequence does not pay the import)

    work = WORK / workload.name
    state = workload.build(seed, work, SRC)
    workload.expect(state)
    probe = Cli(SRC, ROOT)
    import_s = statistics.median(probe.import_time() for _ in range(IMPORT_SAMPLES))

    workload.run_inprocess(state, NoTracer())  # warm-up, not measured
    tracer = Tracer()
    rounds: list[dict] = []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        round_id = len(rounds)
        tracer.pass_id = round_id
        reference = workload.run_pass(state, check)
        timings, got = {}, {}
        for label, active in (("untraced", NoTracer()), ("traced", tracer))[:: -1 if round_id % 2 else 1]:
            start = time.perf_counter()
            got[label] = workload.run_inprocess(state, active)
            timings[label] = time.perf_counter() - start
        got = got["traced"]
        check_trace(check, state, tracer, round_id, got, reference)
        metrics = layer_metrics(tracer, round_id, got, reference, import_s)
        metrics["trace.untraced_s"] = timings["untraced"]
        metrics["trace.traced_s"] = timings["traced"]
        metrics["trace.overhead_s"] = timings["traced"] - timings["untraced"]
        rounds.append(metrics)

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / "results" / f"trace-{workload.name}-seed{seed}.json")
    names = sorted({name for metrics in rounds for name in metrics})
    metrics = {
        name: (statistics.median(r[name] for r in rounds if name in r), sum(1 for r in rounds if name in r))
        for name in names
    }
    return {"metrics": metrics, "digest": None}


def run_one(name: str, why: str, seed: int, seconds: int, trace: int) -> dict:
    workload = WORKLOADS[name]
    env = environment()
    check = Checks()
    body = (traced_run if trace else timed_run)(workload, seed, seconds, check)
    env["load_end"] = os.getloadavg()
    shutil.rmtree(WORK / name, ignore_errors=True)
    metrics = body["metrics"]
    metrics["fail_ratio"] = (len(check.failed) / check.attempted, check.attempted)
    result = {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "output_sha256": body["digest"],
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k), "samples": n} for k, (v, n) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']} s  trace {result['trace']}")
    print(f"   why: {result['why']}")
    print(
        f"   env: commit {env['commit'] or '-'}  source {env['source_sha256'][:16]}  python {env['python']}  "
        f"numpy {env['numpy']}  nproc {env['nproc']}  load {env['load_start'][0]:.2f} -> {env['load_end'][0]:.2f}"
    )
    print(f"   {'metric':<34} {'value':>14}  {'unit':<6} samples")
    for name, metric in sorted(result["metrics"].items()):
        print(f"   {name:<34} {metric['value']:>14.6g}  {metric['unit']:<6} {metric['samples']}")
    if result["output_sha256"]:
        print(f"   output sha256 {result['output_sha256']}")
    print(f"   checks: {result['attempted']} attempted, {len(result['failed'])} failed")
    for label in result["failed"]:
        print(f"   FAILED {label}")


def result_line(result: dict, declared: list[dict]) -> str:
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared}
    failed = len(result["failed"])
    return json.dumps({"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics})


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own child so
    in-process peak RSS and warm caches do not carry over."""
    attempted = failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            flags = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            path = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            code = subprocess.run([sys.executable, __file__, *flags]).returncode
            if code == 0 and path.is_file():
                result = json.loads(path.read_text())
                attempted += result["attempted"]
                failed += len(result["failed"])
            else:  # a run that died counts as one failed check
                print(f"FAILED {name} trace {trace}: exit code {code}")
                attempted += 1
                failed += 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "markprep" / "__init__.py").is_file():
        print(f"no markprep sources under {SRC}: run from a markprep checkout", file=sys.stderr)
        return 2
    if not args.workload:
        return run_all(args.seed, args.seconds)

    sys.path.insert(0, str(SRC))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    result = run_one(args.workload, why, args.seed, args.seconds, args.trace)
    print_report(result)
    print(result_line(result, spec["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
