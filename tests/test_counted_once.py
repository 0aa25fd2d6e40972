"""Each event is counted once, in the metrics registry.

A session call, a coalesced ride, and a cache hit or miss each bump one
registry series; the session report, ``cache.stats`` and ``/v1/report``
read that series.  A normalization report is its pass results: the stage
summary is read off the summed ``PassResult`` counters.

``PINNED`` is what the reports said for the scripted traffic below when
every event also had a private counter beside its series (timings
excluded).  The only report data added since is the stride pass's
``cost_before``/``cost_after`` counters, which ``summary()`` prints.  Since
stride minimization reaches every band, the ``jacobi-2d:b`` and ``cloudsc``
entries also count the bands below their outer loops.  Since it prices every
order and memoizes nothing, ``permutations_evaluated`` counts the orders
priced (n! per band).  The report's ``analysis_hits``/``analysis_misses``
went with the analysis manager (they read 0 and 0 here).  Since the
measurement feedback went, the traffic records no measurement: its
counter family and report fields are gone, the two entries it added
(4 entries, not 6) and the normalization hit it read no longer happen.
Since the alert rules that needed a snapshot history went, no evaluator
registers ``repro_alert_clock_skew_total``.  Since each serving fact is
stated once, the service's request, fast-lane and rejected counts read the
admission and response-cache series, the one ride count is the service's
``coalesced``.  Since the service schedules one request at a time, the
batch counters are gone: ``service.batches`` (4), ``service.largest_batch``
(1) and the report's ``batch_calls`` (5: four service batches and one
``schedule_batch`` call, now a loop over ``schedule``) went with their
series, and the scrape has 9 families (11 before).
"""

import collections
import copy

import pytest
from helpers import SHIPPED_PIPELINES, fast_session, queue_behind

import repro.analysis
import repro.normalization
import repro.passes
import repro.workloads.registry
from repro.analysis import legal_permutations
from repro.api import NormalizationOptions, ScheduleRequest, Session
from repro.normalization import (fission_loop, maximal_loop_fission,
                                 minimize_strides, normalize)
from repro.normalization.fission import _dependence_edges
from repro.observability import MetricsRegistry
from repro.observability.tracing import Tracer
from repro.passes import FixedPoint, LoopNormalFormPass, Pass
from repro.serving import ServiceConfig, ServiceRunner, ServingServer
from repro.transforms import Interchange

SMALL_GEMM = {"NI": 4, "NJ": 4, "NK": 4}

#: ``(workload, pipeline)`` of the normalization reports pinned below.
NORMALIZED = [("gemm:a", "a-priori"), ("jacobi-2d:b", "a-priori"),
              ("cloudsc", "a-priori-keep-names")]

#: The stride pass's counters that are new report data.
NEW_STRIDE_COUNTERS = ("cost_before", "cost_after")


def _families(scrape):
    return sorted(line.split()[2] for line in scrape.splitlines()
                  if line.startswith("# TYPE repro_"))


def observe():
    """Run the scripted traffic; return every report pinned below."""
    session = fast_session()
    with ServingServer(session) as server:
        runner = server.runner
        runner.schedule(ScheduleRequest(program="gemm:a"))
        # The repeat is a schedule-cache hit, stored for the fast lane,
        # which answers the one after it.
        runner.schedule(ScheduleRequest(program="gemm:a"))
        runner.schedule(ScheduleRequest(program="gemm:a"))
        runner.schedule(ScheduleRequest(program="gemm:b"))
        session.tune("atax:a")
        for program in ("atax:b", "mvt:a"):           # atax:b transfers
            session.schedule(program)
        session.execute("gemm:a", SMALL_GEMM)
        bicg = ScheduleRequest(program="bicg:a")
        queue_behind(runner, bicg, [bicg, bicg])      # two coalesced riders
        _, payload = server.handle_report()
        _, _, scrape = server.handle_metrics()
    tracer = session.tracer
    served = {"keys": sorted(payload),
              "summaries": tracer.traces(),
              "traces": [tracer.get(summary["trace_id"]).to_dict()
                         for summary in tracer.traces()]}
    report = session.report().to_dict()
    for entry in report["normalization_passes"].values():
        del entry["wall_time_s"]
    stats = session.cache.stats.to_dict()
    session.close()

    loader = Session()
    normalized = {}
    for workload, pipeline in NORMALIZED:
        _, outcome = normalize(loader.load(workload),
                               NormalizationOptions(pipeline))
        normalized[workload] = {
            "summary": outcome.summary(),
            "counters": [[result.pass_name, dict(result.counters)]
                         for result in outcome.passes],
        }
    return {
        "report": report,
        "cache_stats": stats,
        "service": payload["service"],
        "admission": payload["admission"],
        "families": _families(scrape),
        "normalized": normalized,
        "served": served,
    }


def _stride_counters(observed):
    """Every stride-pass counter dict in ``observed``."""
    yield observed["report"]["normalization_passes"][
        "stride-minimization"]["counters"]
    for entry in observed["normalized"].values():
        for name, counters in entry["counters"]:
            if name == "stride-minimization":
                yield counters


@pytest.fixture(scope="module")
def observed():
    return observe()


def test_reports_equal_the_private_counters(observed):
    old = copy.deepcopy(observed)
    del old["served"]
    for counters in _stride_counters(old):
        for name in NEW_STRIDE_COUNTERS:
            del counters[name]
    assert old == PINNED


def test_the_new_stride_counters_are_the_summary_costs(observed):
    for workload, entry in observed["normalized"].items():
        (counters,) = [counters for name, counters in entry["counters"]
                       if name == "stride-minimization"]
        assert (f"(cost {counters['cost_before']:.1f} -> "
                f"{counters['cost_after']:.1f})") in entry["summary"], workload


def _spec_summary(report):
    """``NormalizationReport.summary`` as it was: fission's splits summed,
    the atomic nests and the stride counters read off the last pass result
    that reported them."""
    last = collections.defaultdict(int)
    for result in report.passes:
        last.update(result.counters)
    return (f"fission: split {report.counters()['loops_split']} loops into "
            f"{last['atomic_nests']} atomic nests; "
            f"strides: permuted {last['nests_permuted']}/"
            f"{last['nests_considered']} nests "
            f"(cost {last['cost_before']:.1f} -> "
            f"{last['cost_after']:.1f})")


def test_the_summary_reads_the_summed_counters():
    """No pipeline reports a gauge twice, so the summed counters print the
    same text, byte for byte, for every registry variant under every
    shipped pipeline."""
    loader = Session()
    checked = 0
    for name in repro.workloads.registry.benchmark_names():
        for variant in ("a", "b", "npbench"):
            program = loader.load(f"{name}:{variant}")
            for pipeline in SHIPPED_PIPELINES:
                _, report = normalize(program, NormalizationOptions(pipeline))
                assert report.summary() == _spec_summary(report), \
                    (name, variant, pipeline)
                checked += 1
    assert checked == 54 * 6


def test_each_serving_fact_is_stated_once(observed):
    """The service reads admission and the response cache instead of
    restating them, the session keeps no copy of the ride count, and a
    span names no process."""
    assert not {"repro_service_requests_total",
                "repro_service_fast_lane_total",
                "repro_service_rejected_total"} & set(observed["families"])
    served = observed["served"]
    assert "coalesced_requests" not in served["keys"]
    assert observed["service"]["coalesced"] == 2
    assert served["summaries"] and served["traces"]
    for summary in served["summaries"]:
        assert "processes" not in summary
    for trace in served["traces"]:
        assert "processes" not in trace
        assert trace["spans"]
        for span in trace["spans"]:
            assert "process" not in span


# -- removed spellings ---------------------------------------------------------

def _removed_spellings():
    program, report = normalize(Session().load("gemm:a"))
    return {
        "session-record-coalesced": lambda: Session().record_coalesced(),
        "report-fission": lambda: report.fission,
        "report-strides": lambda: report.strides,
        "report-scalar-expansion": lambda: report.scalar_expansion,
        "report-canonical-iterators": lambda: report.canonical_iterators,
        "report-validation-errors": lambda: report.validation_errors,
        "pass-context": lambda: repro.passes.PassContext,
        "pipeline-result": lambda: repro.passes.PipelineResult,
        "fission-report": lambda: repro.normalization.FissionReport,
        "options-parameters": lambda: NormalizationOptions(parameters={}),
        "fixed-point-name": lambda: FixedPoint([LoopNormalFormPass()],
                                               name="x"),
        "tracer-sampled": lambda: Tracer().sampled("0" * 32),
        # Each serving fact once: rides are the service's, spans name no
        # process.
        "report-coalesced-requests": lambda: Session().report(
        ).coalesced_requests,
        "tracer-process": lambda: Tracer(process="p"),
        # One request at a time: no batch entry point, size or count.
        "session-schedule-batch": lambda: Session().schedule_batch,
        "report-batch-calls": lambda: Session().report().batch_calls,
        "service-config-max-batch-size": lambda: ServiceConfig(
            max_batch_size=16),
        "service-batches": lambda: ServiceRunner(Session()).stats.batches,
        "gauge-set-max": lambda: MetricsRegistry().gauge(
            "repro_g", "").set_max,
        # One implementation per normalization criterion.
        "nest-stride-report": lambda: repro.analysis.nest_stride_report,
        "stride-report": lambda: repro.analysis.StrideReport,
        "out-of-order-count": lambda: repro.analysis.out_of_order_count,
        "fission-sweep": lambda: repro.normalization.fission_sweep,
        "minimize-strides-parameters": lambda: minimize_strides(
            program, parameters={}),
        "legal-permutations-limit": lambda: legal_permutations(
            program.body[-1], limit=2),
        # Normalization's stages memoize nothing.
        "minimize-strides-analysis": lambda: minimize_strides(program, None),
        "maximal-loop-fission-analysis": lambda: maximal_loop_fission(
            program, analysis=None),
        "fission-loop-analysis": lambda: fission_loop(program.body[-1], None),
        "dependence-edges-analysis": lambda: _dependence_edges(
            program.body[-1], None),
    }


@pytest.mark.parametrize("spelling", sorted(_removed_spellings()))
def test_removed_spellings_raise(spelling):
    """Reports read the registry and the pass results: the private counters,
    the stage fields, the stage-report mailboxes, the pass context and the
    second run record are gone; so are the second stride criterion, its
    report, the sized search, fission's private fixed point and the
    normalization stages' memo."""
    with pytest.raises((TypeError, AttributeError)):
        _removed_spellings()[spelling]()


def test_a_transformation_is_not_a_pass():
    assert not isinstance(Interchange(0, ["i"]), Pass)


#: The reports of ``observe()`` when each event had a private counter too.
PINNED = {
    "admission": {
        "admitted": 6,
        "rejected_client_limit": 0,
        "rejected_queue_full": 0
    },
    "cache_stats": {
        "evictions": 0,
        "normalization_hits": 1,
        "normalization_misses": 6,
        "response_hits": 1,
        "response_misses": 4,
        "schedule_hits": 2,
        "schedule_misses": 4
    },
    "families": [
        "repro_admission_admitted_total",
        "repro_admission_shed_total",
        "repro_cache_requests_total",
        "repro_request_latency_seconds",
        "repro_service_coalesced_total",
        "repro_service_errors_total",
        "repro_service_queue_depth",
        "repro_service_scheduled_total",
        "repro_session_calls_total"
    ],
    "normalized": {
        "cloudsc": {
            "counters": [
                [
                    "loop-normal-form",
                    {}
                ],
                [
                    "scalar-expansion",
                    {
                        "scalars_expanded": 14
                    }
                ],
                [
                    "maximal-fission",
                    {
                        "loops_split": 7
                    }
                ],
                [
                    "maximal-fission",
                    {
                        "atomic_nests": 4,
                        "loops_split": 0
                    }
                ],
                [
                    "stride-minimization",
                    {
                        "nests_considered": 28,
                        "nests_permuted": 0,
                        "permutations_evaluated": 34
                    }
                ],
                [
                    "validate",
                    {
                        "validation_errors": 0
                    }
                ]
            ],
            "summary": "fission: split 7 loops into 4 atomic nests; strides: permuted 0/28 nests (cost 1977758.0 -> 1977758.0)"
        },
        "gemm:a": {
            "counters": [
                [
                    "loop-normal-form",
                    {}
                ],
                [
                    "scalar-expansion",
                    {
                        "scalars_expanded": 0
                    }
                ],
                [
                    "maximal-fission",
                    {
                        "loops_split": 2
                    }
                ],
                [
                    "maximal-fission",
                    {
                        "atomic_nests": 2,
                        "loops_split": 0
                    }
                ],
                [
                    "stride-minimization",
                    {
                        "nests_considered": 2,
                        "nests_permuted": 1,
                        "permutations_evaluated": 8
                    }
                ],
                [
                    "canonicalize-iterators",
                    {}
                ],
                [
                    "validate",
                    {
                        "validation_errors": 0
                    }
                ]
            ],
            "summary": "fission: split 2 loops into 2 atomic nests; strides: permuted 1/2 nests (cost 259.5 -> 5.8)"
        },
        "jacobi-2d:b": {
            "counters": [
                [
                    "loop-normal-form",
                    {}
                ],
                [
                    "scalar-expansion",
                    {
                        "scalars_expanded": 0
                    }
                ],
                [
                    "maximal-fission",
                    {
                        "atomic_nests": 1,
                        "loops_split": 0
                    }
                ],
                [
                    "stride-minimization",
                    {
                        "nests_considered": 3,
                        "nests_permuted": 2,
                        "permutations_evaluated": 5
                    }
                ],
                [
                    "canonicalize-iterators",
                    {}
                ],
                [
                    "validate",
                    {
                        "validation_errors": 0
                    }
                ]
            ],
            "summary": "fission: split 0 loops into 1 atomic nests; strides: permuted 2/3 nests (cost 3072.0 -> 15.1)"
        }
    },
    "report": {
        "cache_backend": "memory",
        "cache_busy_retries": 0,
        "cache_disk_hits": 0,
        "cache_evictions": 0,
        "cache_memory_hits": 4,
        "cache_writes": 11,
        "database_entries": 4,
        "database_version": "4:d1a56e875be876fa",
        "execute_calls": 1,
        "normalization_hits": 1,
        "normalization_misses": 6,
        "normalization_passes": {
            "canonicalize-iterators": {
                "changed": 6,
                "ir_size_delta": 0,
                "runs": 6
            },
            "loop-normal-form": {
                "changed": 0,
                "ir_size_delta": 0,
                "runs": 6
            },
            "maximal-fission": {
                "changed": 3,
                "counters": {
                    "atomic_nests": 18,
                    "loops_split": 5
                },
                "ir_size_delta": 7,
                "runs": 9
            },
            "scalar-expansion": {
                "changed": 0,
                "counters": {
                    "scalars_expanded": 0
                },
                "ir_size_delta": 0,
                "runs": 6
            },
            "stride-minimization": {
                "changed": 4,
                "counters": {
                    "nests_considered": 18,
                    "nests_permuted": 5,
                    "permutations_evaluated": 38
                },
                "ir_size_delta": 0,
                "runs": 6
            },
            "validate": {
                "changed": 0,
                "counters": {
                    "validation_errors": 0
                },
                "ir_size_delta": 0,
                "runs": 6
            }
        },
        "response_cache_hits": 1,
        "response_cache_misses": 4,
        "schedule_cache_hits": 2,
        "schedule_cache_misses": 4,
        "schedule_calls": 6,
        "schedulers": [
            "daisy"
        ],
        "tune_calls": 1
    },
    "service": {
        "coalesced": 2,
        "errors": 0,
        "fast_lane": 1,
        "rejected": 0,
        "requests": 7,
        "scheduled": 5
    }
}
