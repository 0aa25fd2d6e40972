#!/usr/bin/env python3
"""One benchmark for the request spine.

    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--smoke]
        every workload, each in two fresh subprocesses (untraced for the
        end-to-end metrics, traced for the per-layer ones), a determinism
        self-check, every metric printed by name with its unit, the result
        written to benchmarks/perf/out/result.json (or --out).

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of standard output is
        the JSON object BENCHMARK.json's contract describes.

    python3 benchmarks/perf/run.py compare OLD.json NEW.json
        one row per (workload, end-to-end metric) against the bounds in
        spec.json; exits non-zero on any *worse* row.

See README.md beside this file for the workloads and the metric glossary.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import (Any, Callable, Dict, List, Optional, Sequence,  # noqa: E402
                    Tuple)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
# The harness is the package ``perf``; its own directory must not be a path
# entry, or its trace.py would shadow the standard library's ``trace``.
sys.path[:] = [entry for entry in sys.path
               if os.path.abspath(entry or os.getcwd()) != HERE]
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

from perf.calibration import calibrate, speed_between  # noqa: E402

HARNESS_VERSION = 1
#: Timed seconds per workload; equals ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 8
#: Fresh processes whose set-up time is measured, this one included.
SETUP_REPLICAS = 3
#: Timed passes may take this multiple of ``--seconds`` before a run on a
#: slow machine is cut short (and marked noisy).
OVERRUN = 1.5
#: A pass-to-pass coefficient of variation above this marks a result noisy.
NOISY_CV = 0.05


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- environment ------------------------------------------------------------------------


def environment(seed: int, load_average_1m: float) -> Dict[str, Any]:
    def git(*arguments: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ("git", "-C", ROOT) + arguments, capture_output=True,
                text=True, timeout=10,
                # Never look for a repository above the checkout.
                env=dict(os.environ,
                         GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "load_average_1m": load_average_1m,
        "seed": seed,
        "harness_version": HARNESS_VERSION,
    }


# -- one workload, in this process -------------------------------------------------------


def _percentile(values: List[float], percent: float) -> float:
    import numpy

    return float(numpy.percentile(values, percent))


def _protocol(samples: List[float]) -> Tuple[float, float]:
    """Median and coefficient of variation of ``samples`` from the repo's
    own measurement protocol, run at a fixed length."""
    from repro.perf.measurement import MeasurementProtocol

    protocol = MeasurementProtocol(min_repetitions=len(samples),
                                   max_repetitions=len(samples))
    result = protocol.run(iter(samples).__next__)
    return result.median, result.coefficient_of_variation


def _share(hits_misses: Tuple[int, int]) -> float:
    hits, misses = hits_misses
    return hits / (hits + misses) if hits + misses else 0.0


def _run_passes(workload: Any, passes: int, recorders: List[Any],
                interludes: Sequence[Callable[[], None]] = (),
                budget_s: float = math.inf) -> Tuple[List[Any], int, float]:
    """Timed passes with the output check of each right after it (off the
    clock); pass ``i`` records into ``recorders[i % len(recorders)]``.

    ``interludes`` (untimed work that has to happen anyway) run at evenly
    spaced points between the passes: that spreads the timed passes over a
    longer stretch of wall time, so a slow phase of the machine hits fewer
    of them.  Passes are a fixed amount of work; ``budget_s`` only stops a
    run whose machine is so slow that the timed passes alone overran it
    (fewer passes are then returned, and the caller marks the run).
    """
    due = [round((number + 1) * passes / (len(interludes) + 1))
           for number in range(len(interludes))]
    records, failed, verify_s = [], 0, 0.0
    for index in range(passes + 1):
        for interlude, position in zip(interludes, due):
            if position == index:
                interlude()
        if index == passes or (index >= len(recorders) and sum(
                record.wall_s for record in records) > budget_s):
            break
        record = workload.run_pass(index, recorders[index % len(recorders)])
        started = time.perf_counter()
        failed += workload.check_pass(index, record)
        verify_s += time.perf_counter() - started
        records.append(record)
    return records, failed, verify_s


def _rate(workload: Any, records: List[Any]) -> float:
    """Ops per second: the median over passes where passes are alike, the
    overall rate where they are not (a cold start is part of the work)."""
    if workload.uniform_passes:
        return _protocol([record.ops / record.scaled_wall_s
                          for record in records])[0]
    return (sum(record.ops for record in records)
            / sum(record.scaled_wall_s for record in records))


def _latency_ms(workload: Any, records: List[Any], percent: float) -> float:
    """A latency percentile, by the same rule as :func:`_rate`."""
    if workload.uniform_passes:
        return 1e3 * _protocol([_percentile(record.scaled_latencies, percent)
                                for record in records])[0]
    return 1e3 * _percentile([value for record in records
                              for value in record.scaled_latencies], percent)


def _pass_cv(workload: Any, records: List[Any]) -> float:
    steady = [record.ops / record.scaled_wall_s
              for index, record in enumerate(records)
              if workload.steady(index, len(records))]
    return _protocol(steady)[1]


def _setup_replica(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process that only sets the workload up."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--replica"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the replicas it starts) to one CPU.

    A closed loop hands each op from thread to thread (client, event loop,
    HTTP handler) and never overlaps them.  On one CPU that hand-over is a
    context switch; across CPUs it is a wake-up of an idle virtual CPU,
    whose latency on the shared 2-core box swung the warm workloads' rate
    2x between runs.  The highest-numbered CPU is the one interrupts and
    system daemons use least.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _end_to_end(workload: Any, records: List[Any], setups: List[float],
                detail: Dict[str, Any]) -> Dict[str, float]:
    detail["setup_samples_s"] = setups
    detail["latency_samples"] = sum(record.ops for record in records)
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": _rate(workload, records),
        "latency_p50_ms": _latency_ms(workload, records, 50),
        "latency_p90_ms": _latency_ms(workload, records, 90),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _scaled(values: Dict[str, float], speed: float,
            units: Dict[str, str]) -> Dict[str, float]:
    """``values`` with every time multiplied by the machine-speed factor
    (and every rate divided by it); counts and shares pass through."""
    factor = {"s": speed, "ms": speed, "us": speed, "1/s": 1 / speed}
    return {name: value * factor[units[name]] if units[name] in factor
            else value for name, value in values.items()}


def _per_layer(workload: Any, records: List[Any], rec: Any,
               detail: Dict[str, Any], units: Dict[str, str]
               ) -> Dict[str, float]:
    """Replay, probes and the traced passes, as per-layer metric values;
    adds replay mismatches to ``detail["failed"]``."""
    from perf import layers

    untraced = [record for record in records if not record.traced]
    with_spans = [record for record in records if record.traced]
    # Replay and probes are scaled like the passes: a calibration before,
    # between and after them.
    calibrated = [calibrate()]
    replayed = layers.replay(workload, rec)
    calibrated.append(calibrate())
    probed = layers.probes(workload, OUT_DIR, quick=workload.smoke)
    calibrated.append(calibrate())
    if replayed["mismatches"]:
        print(f"replay: {replayed['mismatches']} staged replays differ "
              "from the real response", file=sys.stderr)
        detail["failed"] += replayed["mismatches"]
    rec.write_jsonl(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    detail["spans"] = len(rec.spans)
    # Tracing overhead: steady passes only (where there are any), so a cold
    # start that fell into the untraced half is not mistaken for it.
    steady = [record for index, record in enumerate(records)
              if workload.steady(index, len(records))]
    rate_off, rate_on = (
        statistics.median(
            record.ops / record.scaled_wall_s
            for record in ([r for r in kind if r in steady] or kind))
        for kind in (untraced, with_spans))
    service: Dict[str, float] = {}
    for record in with_spans:
        for key, value in record.service.items():
            service[key] = service.get(key, 0) + value
    waits = [wait for record in with_spans for wait in record.queue_waits]
    plain = [value for record in untraced
             for value in record.scaled_latencies]
    values = _scaled(replayed["metrics"],
                     speed_between(*calibrated[:2]), units)
    values.update(_scaled(probed, speed_between(*calibrated[1:]), units))
    values.update({name: value for name, value in detail["exact"].items()
                   if name != "recipe_digest"})
    values.update({
        "failed_share": detail["failed"] / detail["attempted"],
        "serving.queue_wait_ms_p50": (1e3 * _percentile(waits, 50)
                                      if waits else 0.0),
        "serving.fast_lane_share": (service["fast_lane"] / service["requests"]
                                    if service.get("requests") else 0.0),
        "serving.coalesced": service.get("coalesced", 0),
        "serving.latency_p99_ms": 1e3 * _percentile(plain, 99),
        "interp.verify_s": detail["verify_s"],
        "bench.cpu_ms_per_op": 1e3 * (
            sum(record.cpu_s * record.speed for record in untraced)
            / sum(record.ops for record in untraced)),
        "bench.machine_speed": statistics.median(detail["pass_speeds"]),
        "bench.pass_cv": detail["pass_cv"],
        "trace.overhead_share": (rate_off - rate_on) / rate_off,
    })
    return values


def run_workload(args: argparse.Namespace) -> int:
    pinned = pin_to_one_cpu()
    calibrated = calibrate()
    from perf.trace import Recorder
    from perf.workloads import WORKLOADS

    load_at_start = os.getloadavg()[0]
    traced = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, traced=traced)
    workload.setup()
    # Process start to ready, without the calibration that ran in between.
    setup_s = time.perf_counter() - _PROCESS_STARTED - calibrated
    setup_s *= speed_between(calibrated, calibrate())
    if args.replica:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = load_spec()
    env = dict(environment(args.seed, load_at_start), pinned_cpu=pinned)
    os.makedirs(OUT_DIR, exist_ok=True)
    off, rec = Recorder(enabled=False), Recorder(enabled=True)
    passes = workload.passes(args.seconds)
    if traced:
        # Untraced and traced passes alternate, a quarter of the run each.
        passes = max(2, 2 * round(passes / 4))
    setups = [setup_s]
    replicas = [lambda: setups.append(_setup_replica(args))
                ] * (0 if traced or args.smoke else SETUP_REPLICAS - 1)
    try:
        records, failed, verify_s = _run_passes(
            workload, passes, [off, rec] if traced else [off], replicas,
            budget_s=OVERRUN * args.seconds)
        exact = workload.exact()
    finally:
        workload.close()
    cache = records[0].cache
    exact.update({f"api.cache.{level}_hit_share": _share(cache[level])
                  for level in cache})
    detail: Dict[str, Any] = {
        "workload": args.workload, "trace": int(traced), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "environment": env,
        "passes": len(records), "truncated": len(records) < passes,
        "exact": exact, "verify_s": verify_s,
        "attempted": sum(record.ops for record in records), "failed": failed,
        "pass_cv": _pass_cv(workload, records),
        "pass_rates": [record.ops / record.scaled_wall_s
                       for record in records],
        "pass_speeds": [record.speed for record in records],
    }
    if traced:
        definitions = spec["per_layer"]
        values = _per_layer(workload, records, rec, detail,
                            {entry["name"]: entry["unit"]
                             for entry in definitions})
    else:
        values = _end_to_end(workload, records, setups, detail)
        definitions = [entry for entry in spec["end_to_end"]
                       if entry["driver_gated"]]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in definitions}
    noisy = (detail["pass_cv"] > NOISY_CV or detail["truncated"]
             or env["load_average_1m"] > env["nproc"])
    if noisy:
        print(f"warning: noisy run (pass CV {detail['pass_cv']:.3f}, load "
              f"average {env['load_average_1m']:.2f} on {env['nproc']} "
              "cores)", file=sys.stderr)
    result = {"correct": detail["failed"] == 0,
              "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": metrics}
    detail.update(result, noisy=noisy,
                  wall_s=time.perf_counter() - _PROCESS_STARTED)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
    print_metrics(args.workload, metrics)
    print(json.dumps(result))
    return 0


def print_metrics(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:18s} {name:46s} {metric['value']:>16.6g} "
              f"{metric['unit']}")


# -- every workload, each in fresh subprocesses ----------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    names = [entry["name"] for entry in load_spec()["workloads"]]
    os.makedirs(OUT_DIR, exist_ok=True)
    result: Dict[str, Any] = {
        "harness_version": HARNESS_VERSION, "smoke": args.smoke,
        "seed": args.seed, "seconds": args.seconds,
        "environment": environment(args.seed, os.getloadavg()[0]),
        "workloads": {},
    }
    paths = {name: [os.path.join(OUT_DIR, f"detail-{name}-{trace}.json")
                    for trace in (0, 1)] for name in names}
    for name in names:
        commands = [[sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--detail", path] + (["--smoke"] if args.smoke else [])
                    for trace, path in enumerate(paths[name])]
        for command in commands:
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                           timeout=600)
    status = 0
    for name in names:
        details = []
        for path in paths[name]:
            with open(path, encoding="utf-8") as handle:
                details.append(json.load(handle))
        untraced, traced = details
        # Determinism self-check: the exact quantities come from two fresh
        # processes and must agree to the last digit.
        if untraced["exact"] != traced["exact"]:
            status = 1
            differing = sorted(key for key in untraced["exact"]
                               if untraced["exact"][key]
                               != traced["exact"].get(key))
            print(f"{name}: exact quantities differ between two fresh "
                  f"processes: {differing}", file=sys.stderr)
        if not (untraced["correct"] and traced["correct"]):
            status = 1
            print(f"{name}: output check failed ({untraced['failed']} + "
                  f"{traced['failed']} ops)", file=sys.stderr)
        print_metrics(name, untraced["metrics"])
        print_metrics(name, traced["metrics"])
        result["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "exact": untraced["exact"],
            "attempted": untraced["attempted"], "failed": untraced["failed"],
            "passes": untraced["passes"],
            "latency_samples": untraced["latency_samples"],
            "setup_samples_s": untraced["setup_samples_s"],
            "pass_cv": untraced["pass_cv"],
            "noisy": untraced["noisy"],
            "wall_s": untraced["wall_s"] + traced["wall_s"],
        }
    result["noisy"] = any(entry["noisy"]
                          for entry in result["workloads"].values())
    result["deterministic"] = status == 0
    result["wall_s"] = time.perf_counter() - started
    out = args.out or os.path.join(OUT_DIR, "result.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"wrote {out} ({result['wall_s']:.0f} s"
          + (", noisy" if result["noisy"] else "")
          + (", smoke" if args.smoke else "") + ")")
    return status


# -- compare -----------------------------------------------------------------------------------


def compare(old_path: str, new_path: str) -> int:
    """Rows of (workload, metric): better / same / worse / unresolved."""
    spec = load_spec()
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for key in ("smoke", "seed", "seconds", "harness_version"):
        if old.get(key) != new.get(key) or (key == "smoke" and old.get(key)):
            print(f"refusing to compare: {key} is {old.get(key)!r} vs "
                  f"{new.get(key)!r}"
                  + (" (smoke results are never comparable)"
                     if key == "smoke" else ""), file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':18s} {'metric':26s} {'old':>14s} {'new':>14s} "
          f"{'new/old':>9s} {'bound':>7s}  verdict")
    for name, before in old["workloads"].items():
        after = new["workloads"][name]
        # A difference beyond the bound cannot be told from noise when the
        # passes of either run varied by more than the bound themselves.
        noise = max(before["pass_cv"], after["pass_cv"])
        if before["noisy"] or after["noisy"]:
            print(f"{name}: a result is marked noisy (pass CV "
                  f"{before['pass_cv']:.3f} / {after['pass_cv']:.3f})",
                  file=sys.stderr)
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            if name not in entry["workloads"]:
                continue
            if metric in before["end_to_end"]:
                was = before["end_to_end"][metric]["value"]
                now = after["end_to_end"][metric]["value"]
            elif metric == "failed_share":
                was = before["failed"] / before["attempted"]
                now = after["failed"] / after["attempted"]
            else:
                was, now = before["exact"][metric], after["exact"][metric]
            gain = (now - was) * (1 if entry["better"] == "higher" else -1)
            ratio = now / was if was else math.inf if now else 1.0
            bound = entry["bound"]
            if bound in ("exact", 0):
                verdict = ("same" if now == was
                           else "better" if gain > 0 else "worse")
            elif abs(gain) <= bound * abs(was):
                verdict = "same"
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "better" if gain > 0 else "worse"
            worse += verdict == "worse"
            print(f"{name:18s} {metric:26s} {was:14.6g} {now:14.6g} "
                  f"{ratio:9.4f} {str(bound):>7s}  {verdict}")
        same = before["exact"]["recipe_digest"] == after["exact"]["recipe_digest"]
        worse += not same
        print(f"{name:18s} {'recipe_digest':26s} "
              f"{before['exact']['recipe_digest'][:14]:>14s} "
              f"{after['exact']['recipe_digest'][:14]:>14s} "
              f"{'':9s} {'exact':>7s}  {'same' if same else 'worse'}")
    return 1 if worse else 0


# -- command line --------------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("old")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.old, args.new)

    names = [entry["name"] for entry in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload (scales the number "
                             "of passes; default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, harness tracing off; "
                             "1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a few programs; the result is "
                             "stamped smoke and never comparable")
    parser.add_argument("--detail", help="also write this run's full detail "
                                         "(JSON) here; needs --workload")
    parser.add_argument("--out", help="result file of a run over every "
                                      "workload (default: out/result.json)")
    parser.add_argument("--replica", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
