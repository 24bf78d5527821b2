#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, named metrics.

    python3 benchmarks/e2e/run.py --seed 42            # full set, tracing off
    python3 benchmarks/e2e/run.py --seed 42 --trace    # + traced per-layer pass
    python3 benchmarks/e2e/run.py --smoke              # 1k vertices, < 20 s
    python3 benchmarks/e2e/run.py --selftest           # prove the checks fire

    # One run of one workload, as the PR driver calls it; the last line of
    # standard output is the JSON result object of BENCHMARK.json's contract.
    python3 benchmarks/e2e/run.py --workload batch_local --seed 7 \\
        --seconds 10 --trace 0

This file is the harness: it generates inputs, starts every program run as
a fresh child process (``--child``), checks outputs and reports.  What the
children execute is in ``workloads.py``; ``README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: A child that runs longer than this is killed and its run is failed.
CHILD_TIMEOUT_S = 150

#: Fresh set-up-only children before the measured one; ``setup_s`` is the
#: median over all of them.  The first also absorbs the host's cold pages.
SETUP_PROBES = 1

#: ``--seconds`` of the workloads a traced run does not name: long enough
#: for their layers' metrics, short enough to fit the driver's time cap.
TRACE_FILL_SECONDS = {"batch_local": 1.5, "batch_gas_sim": 1.5,
                      "batch_gas_workers": 1.5, "serve_mixed": 3.0}

#: The program's allocator keeps freed memory instead of handing it back to
#: the kernel.  On the sandbox a first-touch page fault can cost ~300 us
#: (measured: 24k faults = 7.7 s of system time inside one 0.2 s rep), and
#: with the default trim threshold a rep re-faults ~2,300 pages of large
#: temporaries, so rep times carry the hypervisor's page-fault cost.  With
#: these settings a warmed process faults ~20 pages per rep.  One arena
#: makes the serving threads share that retained memory: ``peak_rss_mb`` of
#: ``serve_mixed`` repeats to 0.01% instead of 3.5%, at unchanged speed.
CHILD_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_ARENA_MAX": "1",
}

PROFILES = {
    "full": {"vertices": 10_000, "rounds": 3},
    "smoke": {"vertices": 1_000, "rounds": 1, "seconds": 1.0},
}
#: Checks made once per run (inputs vs golden, leaked segments, replayed
#: index), counted as attempts so that ``failed`` never exceeds ``attempted``.
RUN_CHECKS = 3
NOISY_REP_SPREAD = 0.25
NOISY_STEAL_SHARE = 0.05


class BenchmarkError(RuntimeError):
    """The harness could not complete a run (as opposed to a wrong output)."""


# ----------------------------------------------------------------------
# Declared contract
# ----------------------------------------------------------------------
def load_contract() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_name_problems(printed, declared) -> list[str]:
    """Names printed but not declared, and declared but not printed."""
    printed, declared = set(printed), set(declared)
    return ([f"undeclared metric printed: {name}"
             for name in sorted(printed - declared)]
            + [f"declared metric missing: {name}"
               for name in sorted(declared - printed)])


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------
def _cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_before() -> dict:
    import numpy

    steal, total = _cpu_jiffies()
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "steal_jiffies_before": steal,
        "_total_before": total,
    }


def environment_after(env: dict) -> dict:
    steal, total = _cpu_jiffies()
    elapsed = max(total - env.pop("_total_before"), 1)
    env.update(
        loadavg_after=list(os.getloadavg()),
        steal_jiffies_after=steal,
        steal_share=(steal - env["steal_jiffies_before"]) / elapsed,
    )
    return env


# ----------------------------------------------------------------------
# Child processes: one fresh process per program run
# ----------------------------------------------------------------------
def run_child(spec: dict, workdir: Path) -> dict:
    """Run ``workloads.run_program(spec)`` in a fresh process group.

    The group is killed if it outlives the timeout, and in every case we
    wait until no process of the group is left (pool workers, forkserver,
    resource tracker), so a run leaves nothing behind.
    """
    number = len(list(workdir.glob("spec-*.json")))
    spec_path = workdir / f"spec-{number}.json"
    result_path = workdir / f"result-{number}.json"
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(SRC)}
    spec = {**spec, "result_path": str(result_path),
            "spawned_at": time.perf_counter()}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", str(spec_path)],
        env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _end_group(child)
    if code is None:
        raise BenchmarkError(f"{spec['workload']}: child timed out after "
                             f"{CHILD_TIMEOUT_S} s")
    if code != 0 or not result_path.exists():
        raise BenchmarkError(f"{spec['workload']}: child exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _end_group(child: subprocess.Popen) -> None:
    """Wait for the child's process group to empty; kill what lingers."""
    if child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
    child.wait()
    for attempt in range(500):          # 2 s of grace, 3 s after the kill
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        if attempt == 200:
            os.killpg(child.pid, signal.SIGKILL)
        time.sleep(0.01)


def child_main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    from workloads import run_program

    output = run_program(spec)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(output, handle)
    return 0


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _golden_for(inputs: dict) -> dict | None:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    same = (golden["seed"] == inputs["seed"]
            and golden["vertices"] == inputs["vertices"])
    return golden if same else None


def _percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def _spread(values) -> float:
    """(Q3 - Q1) / median, the contract's run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end_metrics(workload: str, output: dict, setups: list[float],
                       ) -> tuple[dict, dict]:
    """``(metrics, diagnostics)`` of one measured child.

    Every workload reports every end-to-end metric, because the driver's
    contract reads all of them from each run.  The cells ISSUE 11 defines
    are *native*; the others are *carried*: the workload's own primary
    measurement restated in the metric's unit (README, "Carried cells").
    """
    from workloads import BATCH_WORKLOADS

    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": output["peak_rss_mb"]}
    if workload in BATCH_WORKLOADS:
        reps = output["predict_s"]
        predict_s = statistics.median(reps)
        metrics.update(
            predict_s=predict_s,
            predict_scores_s=statistics.median(output["predict_scores_s"]),
            ops_s=len(reps) / output["span_s"],                # carried
            query_p50_ms=predict_s * 1e3,                      # carried
            query_p99_ms=predict_s * 1e3,                      # carried
            update_p50_ms=predict_s * 1e3,                     # carried
        )
        diagnostics = {"reps": len(reps), "rep_spread": _spread(reps)}
        return metrics, diagnostics
    queries, updates = output["query_ms"], output["update_ms"]
    ops_s = (len(queries) + len(updates)) / output["stable_span_s"]
    metrics.update(
        ops_s=ops_s,
        query_p50_ms=_percentile(queries, 50),
        query_p99_ms=_percentile(queries, 99),
        update_p50_ms=_percentile(updates, 50),
        predict_s=1.0 / ops_s,                                 # carried
        predict_scores_s=1.0 / ops_s,                          # carried
    )
    diagnostics = {
        "queries": len(queries), "updates": len(updates),
        "update_p99_ms": _percentile(updates, 99),
        "rep_spread": _spread(output["ops_per_second"]),
        "compactions": output["compactions"],
        "rescored_total": output["rescored_total"],
    }
    return metrics, diagnostics


def _attempts(workload: str, output: dict, problems: list[str],
              ) -> tuple[int, int]:
    """``(attempted, failed)``: reps or requests, plus the output checks."""
    if workload == "serve_mixed":
        attempted = output["attempted"] + len(output["sampled_answers"])
        return attempted + RUN_CHECKS, output["failed"] + len(problems)
    return len(output["digests"]) + RUN_CHECKS, len(problems)


class Harness:
    """Inputs and oracles for one ``(seed, size)``, shared by its runs."""

    def __init__(self, seed: int, vertices: int, workloads) -> None:
        from workloads import generate_inputs, oracle_digests

        WORK.mkdir(exist_ok=True)
        self.workdir = WORK / f"run-{os.getpid()}-{seed}-{vertices}"
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir()
        began = time.perf_counter()
        self.inputs = generate_inputs(seed, self.workdir, vertices)
        self.oracles = oracle_digests(self.inputs, workloads)
        self.golden = _golden_for(self.inputs)
        self.harness_s = time.perf_counter() - began

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spec(self, workload: str, seconds: float, **extra) -> dict:
        return {
            "workload": workload,
            "seed": self.inputs["seed"],
            "container": self.inputs["container"],
            "ops": self.inputs["ops"],
            "seconds": seconds,
            "min_reps": 3,
            "setup_only": False,
            **extra,
        }

    def measure(self, workload: str, seconds: float, *,
                setup_probes: int = SETUP_PROBES,
                corrupt: bool = False) -> dict:
        """One untraced run: set-up probes, the measured child, checks."""
        from workloads import check_outputs

        steal0, total0 = _cpu_jiffies()
        setups = [
            run_child(self.spec(workload, seconds, setup_only=True),
                      self.workdir)["setup_s"]
            for _ in range(setup_probes)
        ]
        output = run_child(self.spec(workload, seconds, corrupt=corrupt),
                           self.workdir)
        setups.append(output["setup_s"])
        steal1, total1 = _cpu_jiffies()
        began = time.perf_counter()
        problems = check_outputs(workload, self.inputs, output,
                                 self.oracles, self.golden)
        metrics, diagnostics = end_to_end_metrics(workload, output, setups)
        attempted, failed = _attempts(workload, output, problems)
        steal_share = (steal1 - steal0) / max(total1 - total0, 1)
        diagnostics.update(
            harness_s=self.harness_s + time.perf_counter() - began,
            setups_s=setups,
            steal_share=steal_share,
            noisy=(diagnostics["rep_spread"] > NOISY_REP_SPREAD
                   or steal_share > NOISY_STEAL_SHARE),
        )
        return {
            "workload": workload,
            "seed": self.inputs["seed"],
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": metrics,
            "diagnostics": diagnostics,
            "samples": {key: output[key] for key in ("query_ms", "update_ms")
                        if key in output},
        }

    def trace(self, seconds: dict[str, float], trace_dir: Path,
              prefix: str = "") -> dict:
        """The traced pass: every workload once, each yielding the metrics
        of the layers it exercises.  Returns per-workload layer tables."""
        from workloads import WORKLOADS, check_outputs

        layers: dict[str, dict] = {}
        problems: list[str] = []
        attempted = failed = 0
        tables = {}
        for workload in WORKLOADS:
            spec = self.spec(
                workload, seconds[workload],
                min_reps=3 if seconds[workload] >= 3 else 1,
                trace_path=str(trace_dir / f"{prefix}trace-{workload}.json"))
            output = run_child(spec, self.workdir)
            found = check_outputs(workload, self.inputs, output,
                                  self.oracles, self.golden)
            tried, bad = _attempts(workload, output, found)
            attempted += tried
            failed += bad
            problems += [f"{workload}: {problem}" for problem in found]
            layers[workload] = output["layers"]
            tables[workload] = output["self_time"]
            if workload == "serve_mixed":
                metrics, _ = end_to_end_metrics(workload, output,
                                                [output["setup_s"]])
                layers[workload]["traced_ops_s"] = metrics["ops_s"]
        layers["batch_local"]["graph.storage.build_s"] = (
            self.inputs["graph.storage.build_s"])
        layers["batch_local"]["graph.storage.bytes"] = (
            self.inputs["graph.storage.bytes"])
        layers["batch_gas_workers"]["parallel.speedup_vs_local"] = (
            layers["batch_local"]["traced_predict_s"]
            / layers["batch_gas_workers"]["traced_predict_s"])
        return {"layers": layers, "self_time": tables, "problems": problems,
                "attempted": attempted, "failed": failed,
                "correct": not problems and failed == 0}


def flatten_layers(layers: dict[str, dict], named: str, declared) -> dict:
    """One per-layer table for a traced run of ``named``.

    Each layer's metrics come from the workload that exercises it; the
    ``engines.*`` metrics exist on every batch workload and are taken from
    the named one (``batch_local`` when the named workload is not batch).
    """
    flat: dict = {}
    for workload, table in layers.items():
        for name, value in table.items():
            if not name.startswith("engines."):
                flat[name] = value
    engines_from = "batch_local" if named == "serve_mixed" else named
    for name, value in layers[engines_from].items():
        if name.startswith("engines."):
            flat[name] = value
    return {name: flat[name] for name in declared if name in flat}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _units(contract: dict) -> dict[str, str]:
    return {metric["name"]: metric["unit"]
            for group in ("end_to_end", "per_layer")
            for metric in contract[group]}


def _with_units(values: dict, units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def print_metrics(title: str, values: dict, units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")


def driver_run(args, contract: dict) -> int:
    """``--workload``: one run, the contract's JSON object on the last line."""
    from workloads import WORKLOADS

    units = _units(contract)
    with Harness(args.seed, PROFILES["full"]["vertices"],
                 WORKLOADS if args.trace else (args.workload,)) as harness:
        if args.trace:
            seconds = {**TRACE_FILL_SECONDS, args.workload: args.seconds}
            traced = harness.trace(seconds, harness.workdir)
            declared = [metric["name"] for metric in contract["per_layer"]]
            values = flatten_layers(traced["layers"], args.workload, declared)
            result = traced
        else:
            result = harness.measure(args.workload, args.seconds)
            declared = [metric["name"] for metric in contract["end_to_end"]]
            values = result["metrics"]
            for name, value in result["diagnostics"].items():
                print(f"  diagnostic {name} = {value}")
    name_problems = metric_name_problems(values, declared)
    for problem in result["problems"] + name_problems:
        print(f"  FAILED {problem}")
    print_metrics(f"{args.workload} seed={args.seed} trace={args.trace}",
                  values, units)
    correct = result["correct"] and not name_problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"] + len(name_problems),
        "metrics": _with_units(values, units),
    }))
    return 0 if correct else 1


def summarise(runs: list[dict], declared: list[str]) -> dict:
    """One workload's set value: the median of its rounds' values, latency
    percentiles taken over the pooled stable samples."""
    values = {name: statistics.median(run["metrics"][name] for run in runs)
              for name in declared}
    if "query_ms" in runs[0]["samples"]:
        queries = [x for run in runs for x in run["samples"]["query_ms"]]
        updates = [x for run in runs for x in run["samples"]["update_ms"]]
        values.update(query_p50_ms=_percentile(queries, 50),
                      query_p99_ms=_percentile(queries, 99),
                      update_p50_ms=_percentile(updates, 50))
    attempted = sum(run["attempted"] for run in runs)
    return {
        "metrics": values,
        "failed_share": sum(run["failed"] for run in runs) / attempted,
        "attempted": attempted,
        "noisy_rounds": sum(run["diagnostics"]["noisy"] for run in runs),
        "harness_s": statistics.median(run["diagnostics"]["harness_s"]
                                       for run in runs),
    }


def set_of_runs(args, contract: dict, profile_name: str) -> int:
    """Default / ``--smoke``: interleaved rounds, then the optional traced
    pass; prints every metric and writes the profile's result file."""
    from trace import format_self_time
    from workloads import BATCH_WORKLOADS, WORKLOADS

    profile = PROFILES[profile_name]
    # A smoke writes only smoke-prefixed files, never a full result or trace.
    prefix = "smoke-" if profile_name == "smoke" else ""
    seconds = profile.get("seconds", contract["run_seconds"])
    units = _units(contract)
    declared = [metric["name"] for metric in contract["end_to_end"]]
    env = environment_before()
    RESULTS.mkdir(exist_ok=True)
    runs: list[dict] = []
    with Harness(args.seed, profile["vertices"], WORKLOADS) as harness:
        # Rounds are interleaved (every workload once per round) so a noisy
        # phase of the shared host cannot land on one workload.
        for round_number in range(1, profile["rounds"] + 1):
            for workload in WORKLOADS:
                run = harness.measure(workload, seconds)
                run["round"] = round_number
                runs.append(run)
                flag = " noisy" if run["diagnostics"]["noisy"] else ""
                print(f"round {round_number} {workload}: "
                      f"failed {run['failed']}/{run['attempted']}{flag}")
        traced = None
        if args.trace:
            traced = harness.trace({name: seconds for name in WORKLOADS},
                                   RESULTS, prefix)
    env = environment_after(env)

    summary: dict[str, dict] = {}
    problems: list[str] = []
    for workload in WORKLOADS:
        mine = [run for run in runs if run["workload"] == workload]
        summary[workload] = entry = summarise(mine, declared)
        problems += [f"{workload}: {problem}"
                     for run in mine for problem in run["problems"]]
        problems += metric_name_problems(entry["metrics"], declared)
        print_metrics(f"\n{workload} (median of {len(mine)} rounds, "
                      f"failed_share {entry['failed_share']:.4g})",
                      entry["metrics"], units)

    if traced is not None:
        problems += traced["problems"]
        for workload in WORKLOADS:
            layers = traced["layers"][workload]
            untraced = summary[workload]["metrics"]
            if workload in BATCH_WORKLOADS:
                layers["trace_overhead_pct"] = 100.0 * (
                    layers["traced_predict_s"] / untraced["predict_s"] - 1.0)
                layers["layers_sum_ratio"] = (
                    layers["top_level_layers_s"] / untraced["predict_s"])
            else:
                layers["trace_overhead_pct"] = 100.0 * (
                    untraced["ops_s"] / layers["traced_ops_s"] - 1.0)
            print_metrics(f"\n{workload} per-layer (traced pass)",
                          layers, units)
            print(format_self_time(traced["self_time"][workload]))

    for run in runs:
        del run["samples"]
    payload = {
        "profile": profile_name,
        "seed": args.seed,
        "run_seconds": seconds,
        "environment": env,
        "summary": summary,
        "runs": runs,
        "traced": None if traced is None else traced["layers"],
        "problems": problems,
    }
    name = f"{prefix}run.json" if prefix else f"full-{args.seed}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"\nwrote {RESULTS / name}" + (" (noisy host: steal "
          f"{env['steal_share']:.1%})"
          if env["steal_share"] > NOISY_STEAL_SHARE else ""))
    return 1 if problems else 0


def selftest(args, contract: dict) -> int:
    """Prove that the output check and the metric-name check both fire."""
    from workloads import SMOKE_VERTICES

    declared = [metric["name"] for metric in contract["end_to_end"]]
    verdicts: list[tuple[str, bool]] = []
    with Harness(args.seed, SMOKE_VERTICES,
                 ("batch_local",)) as harness:
        clean = harness.measure("batch_local", 0.5, setup_probes=0)
        verdicts.append(("clean batch_local run passes",
                         clean["correct"] and clean["failed"] == 0))
        verdicts.append((
            "printed metric names equal BENCHMARK.json's",
            not metric_name_problems(clean["metrics"], declared)))
        for workload in ("batch_local", "serve_mixed"):
            corrupted = harness.measure(workload, 0.5, setup_probes=0,
                                        corrupt=True)
            verdicts.append((f"corrupted {workload} prediction is caught",
                             not corrupted["correct"]
                             and corrupted["failed"] >= 1))
    undeclared = metric_name_problems([*declared, "made_up_ms"], declared)
    missing = metric_name_problems(declared[1:], declared)
    verdicts.append(("undeclared metric name is caught", len(undeclared) == 1))
    verdicts.append(("missing metric name is caught", len(missing) == 1))
    for label, passed in verdicts:
        print(f"{'ok    ' if passed else 'BROKEN'} {label}")
    return 0 if all(passed for _, passed in verdicts) else 1


def write_golden(args) -> int:
    """Regenerate ``golden.json`` for ``--seed`` at full size."""
    from workloads import (BATCH_WORKLOADS, REPLAY_UPDATES, cold_index_after,
                           predictions_digest)

    vertices = PROFILES["full"]["vertices"]
    with Harness(args.seed, vertices, BATCH_WORKLOADS) as harness:
        golden = {
            "seed": args.seed,
            "vertices": vertices,
            "inputs": harness.inputs["inputs_digest"],
            **harness.oracles,
            "serve_mixed_replay": predictions_digest(cold_index_after(
                harness.inputs, REPLAY_UPDATES).all_predictions()),
        }
    with open(HERE / "golden.json", "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(json.dumps(golden, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", help="run this workload once and print "
                        "the driver's JSON result as the last line")
    parser.add_argument("--seconds", type=float,
                        help="measured time of a --workload run "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="1k vertices, one round; writes results/smoke-run.json")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.child)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; the benchmark measures the "
              "repository it is checked out in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = load_contract()
    if args.write_golden:
        return write_golden(args)
    if args.selftest:
        return selftest(args, contract)
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        if args.seconds is None:
            args.seconds = float(contract["run_seconds"])
        return driver_run(args, contract)
    return set_of_runs(args, contract, "smoke" if args.smoke else "full")


if __name__ == "__main__":
    # The guard matters: the forkserver pool of batch_gas_workers re-imports
    # the main module in every worker.
    sys.exit(main())
