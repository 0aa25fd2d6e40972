"""Tests for the queue-scheduling policies and the online
measurement-feedback loop (session-, database-, and pool-level)."""

import json
import math
import types
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from helpers import StubSession, fast_session, hold_next_batch, queue_behind

from repro.api import ScheduleRequest, SearchConfig
from repro.scheduler.database import (DatabaseEntry, TuningDatabase,
                                      apply_feedback_record, recipe_base_name,
                                      recipe_identity)
from repro.scheduler.embedding import EMBEDDING_SIZE, PerformanceEmbedding
from repro.serving import (PolicyError, ServiceConfig, ServiceRunner,
                           ServingClient, ServingServer, WorkerConfig,
                           WorkerPool, create_policy, policy_names,
                           request_fingerprint)
from repro.serving import cli
from repro.serving.cli import build_parser
from repro.serving.policy import StrictPriorityPolicy, WeightedFairPolicy
from repro.transforms.recipe import Recipe

FAST_SEARCH = SearchConfig(population_size=4, epochs=1,
                           generations_per_epoch=1)


def _request(priority=0, program="p"):
    return ScheduleRequest(program=program, priority=priority)


# -- the policy table ---------------------------------------------------------------

class TestPolicyRegistry:
    def test_shipped_policies_are_registered(self):
        assert policy_names() == ["strict-priority", "weighted-fair"]

    def test_create_policy_returns_named_instances(self):
        for name, cls in (("strict-priority", StrictPriorityPolicy),
                          ("weighted-fair", WeightedFairPolicy)):
            assert isinstance(create_policy(name), cls)

    def test_unknown_policy_raises_with_the_known_names(self):
        messages = []
        for name in ("shortest-job-first", "edf", "aging"):
            with pytest.raises(PolicyError) as caught:
                create_policy(name)
            messages.append(str(caught.value))
            assert name in messages[-1]
        with pytest.raises(PolicyError) as caught:
            ServiceRunner(StubSession(), ServiceConfig(policy="aging"))
        messages.append(str(caught.value))
        for message in messages:
            assert message.endswith(
                "known policies: strict-priority, weighted-fair")

    def test_unknown_policy_fails_at_service_construction(self):
        with pytest.raises(PolicyError):
            ServiceRunner(StubSession(), ServiceConfig(policy="not-a-policy"))


# -- removed options fail loudly, removed request keys are ignored ------------------

@pytest.mark.parametrize("flags", [["--adaptive"], ["--aging-interval", "1"],
                                   ["--push-url", "http://x"],
                                   ["--push-interval", "1"],
                                   ["--batch-window", "0.01"]],
                         ids=lambda flags: flags[0])
def test_removed_serve_flags_exit_with_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["serve", *flags])
    assert caught.value.code == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("policy,accepted", [("strict-priority", True),
                                             ("weighted-fair", True),
                                             ("edf", False), ("aging", False)])
def test_serve_policy_choices_are_the_two_policies(policy, accepted, capsys):
    if accepted:
        args = build_parser().parse_args(["serve", "--policy", policy])
        assert args.policy == policy
        return
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["serve", "--policy", policy])
    assert caught.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert f"invalid choice: '{policy}'" in error
    choices = error[error.index("(choose from"):]
    assert choices.replace("'", "") \
        == "(choose from strict-priority, weighted-fair)"


def test_serve_help_lists_no_removed_flag(capsys):
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args(["serve", "--help"])
    assert caught.value.code == 0
    usage = capsys.readouterr().out
    assert "--policy" in usage
    for flag in ("--adaptive", "--aging-interval", "--push-url",
                 "--push-interval", "--batch-window"):
        assert flag not in usage


@pytest.mark.parametrize("field,value", [("policy_weights", {9: 5.0}),
                                         ("aging_interval_s", 0.5),
                                         ("adaptive", True),
                                         ("adaptive_interval_s", 1.0),
                                         ("batch_window_s", 0.01),
                                         ("max_workers", 4),
                                         ("fast_lane", False)])
def test_removed_service_config_fields_are_rejected(field, value):
    with pytest.raises(TypeError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("max_batch_size", 0),
                                         ("max_queue_depth", -1),
                                         ("max_client_inflight", -1),
                                         ("retry_after_s", -0.5),
                                         ("latency_slo_s", 0.0),
                                         ("latency_slo_s", float("nan"))])
def test_out_of_range_service_config_values_are_rejected(field, value):
    # A batch size of 0 used to spin the batcher on empty batches while the
    # request it never claimed timed out.
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


@pytest.mark.parametrize("flags", [["--max-batch", "0"],
                                   ["--max-queue-depth", "-1"],
                                   ["--max-client-inflight", "-1"],
                                   ["--latency-slo", "0"],
                                   ["--alert-interval", "0"],
                                   ["--alert-interval", "-5"]],
                         ids=lambda flags: " ".join(flags))
def test_serve_exits_2_on_an_out_of_range_value(flags, capsys, monkeypatch):
    def boot(*args, **kwargs):
        raise AssertionError("serve booted a server")

    monkeypatch.setattr(cli, "ServingServer", boot)
    monkeypatch.setattr(cli, "_build_session", boot)
    assert cli.main(["serve", *flags]) == 2
    error = capsys.readouterr().err
    assert error.startswith("serve: ") and len(error.splitlines()) == 1


@pytest.mark.parametrize("keyword,value", [("push_url", "http://x"),
                                           ("push_interval_s", 1.0)])
def test_removed_server_keywords_are_rejected(keyword, value):
    # Rejected by the signature, before a session is touched or a port bound.
    with pytest.raises(TypeError, match=keyword):
        ServingServer(None, **{keyword: value})


def test_a_deadline_key_is_ignored():
    with_key = ScheduleRequest.from_dict(
        {"program": "gemm:a", "deadline_s": 0.5})
    without = ScheduleRequest.from_dict({"program": "gemm:a"})
    assert with_key == without
    assert request_fingerprint(with_key) == request_fingerprint(without)


def test_a_deadline_keyword_is_rejected():
    with pytest.raises(TypeError, match="deadline_s"):
        ScheduleRequest(program="gemm:a", deadline_s=0.5)


# -- per-policy key semantics -------------------------------------------------------

class TestStrictPriorityKeys:
    def test_key_is_the_priority(self):
        policy = create_policy("strict-priority")
        assert policy.sort_key(_request(priority=7), 123.0) == (7.0,)
        assert policy.rider_key(_request(priority=2), 9.0) \
            < policy.sort_key(_request(priority=3), 0.0)


class TestWeightedFairKeys:
    def test_class_clocks_advance_inversely_to_weight(self):
        policy = WeightedFairPolicy()
        # Priority 0 weighs 10 (finish += 0.1); priority 9 weighs 1.
        assert policy.sort_key(_request(priority=0), 0.0) == (0.1,)
        assert policy.sort_key(_request(priority=0), 0.0) == (0.2,)
        assert policy.sort_key(_request(priority=9), 0.0) == (1.0,)
        assert policy.sort_key(_request(priority=9), 0.0) == (2.0,)

    def test_rider_key_peeks_without_advancing_the_clock(self):
        policy = WeightedFairPolicy()
        peeked = policy.rider_key(_request(priority=0), 0.0)
        assert peeked == (0.1,)
        # The peek committed nothing: the real enqueue gets the same key.
        assert policy.sort_key(_request(priority=0), 0.0) == peeked

    @pytest.mark.parametrize("priority,weight", [(0, 10), (5, 5), (9, 1),
                                                 (12, 1)])
    def test_weight_is_the_distance_from_the_lowest_class(self, priority,
                                                          weight):
        # LOWEST_PRIORITY + 1 - priority; a class outside 0..9 weighs 1.
        policy = WeightedFairPolicy()
        assert policy.sort_key(_request(priority=priority), 0.0) \
            == pytest.approx((1.0 / weight,))
        assert policy.sort_key(_request(priority=priority), 0.0) \
            == pytest.approx((2.0 / weight,))

    def test_each_instance_keeps_its_own_clocks(self):
        # Two services never share class clocks or virtual time.
        first = create_policy("weighted-fair")
        second = create_policy("weighted-fair")
        for _ in range(3):
            first.on_dequeue(first.sort_key(_request(priority=9), 0.0))
        assert second.sort_key(_request(priority=9), 0.0) == (1.0,)
        assert first.sort_key(_request(priority=9), 0.0) == (4.0,)

    def test_dequeue_floors_idle_classes_at_the_virtual_time(self):
        policy = WeightedFairPolicy()
        for _ in range(5):
            key = policy.sort_key(_request(priority=9), 0.0)
        policy.on_dequeue(key)  # virtual time jumps to 5.0
        # A class that was idle all along starts at the floor, not at zero:
        # it earned no credit while absent.
        (finish,) = policy.sort_key(_request(priority=0), 0.0)
        assert finish == pytest.approx(5.1)


# -- drain order through the service ------------------------------------------------

def _drain(runner, requests):
    """Stack ``requests`` behind a held gate request, then release it."""
    queue_behind(runner, ScheduleRequest(program="gate"), requests)


def _drive(config, requests):
    session = StubSession()
    with ServiceRunner(session, config) as runner:
        _drain(runner, requests)
    assert session.order[0] == "gate"
    return session.order[1:]


class TestWeightedFairDrainOrder:
    MIX = ([ScheduleRequest(program=f"starved-{i}", priority=9)
            for i in range(1, 3)]
           + [ScheduleRequest(program=f"bulk-{i}", priority=0)
              for i in range(1, 13)])

    def test_urgent_burst_does_not_starve_the_low_class(self):
        order = _drive(
            ServiceConfig(max_batch_size=1, policy="weighted-fair"), self.MIX)
        # The burst mostly goes first (it holds 10x the weight), but the
        # starved class is interleaved, not parked behind the whole burst.
        assert order.index("starved-1") < order.index("bulk-12")

    def test_strict_priority_parks_the_low_class_behind_the_burst(self):
        order = _drive(
            ServiceConfig(max_batch_size=1,
                          policy="strict-priority"), self.MIX)
        assert order[-2:] == ["starved-1", "starved-2"]

    def test_classes_share_service_in_proportion_to_their_weights(self):
        # Priority 0 weighs 10, priority 4 weighs 6: while the 20 urgent
        # requests drain, the normal class gets 6/10 of as many slots (one
        # either way for the key tie at the boundary).
        mix = [ScheduleRequest(program=f"{name}-{i}", priority=priority)
               for i in range(1, 21)
               for name, priority in (("urgent", 0), ("normal", 4))]
        order = _drive(
            ServiceConfig(max_batch_size=1, policy="weighted-fair"), mix)
        before = order[:order.index("urgent-20")]
        assert 11 <= sum(name.startswith("normal") for name in before) <= 12


class TestDrainOrder:
    @pytest.mark.parametrize("policy", policy_names())
    def test_each_class_drains_in_arrival_order(self, policy):
        mix = [ScheduleRequest(program=f"{name}-{i}", priority=priority)
               for i in range(1, 4)
               for name, priority in (("high", 2), ("low", 7))]
        order = _drive(ServiceConfig(max_batch_size=1, policy=policy), mix)
        assert sorted(order) == sorted(request.program for request in mix)
        for name in ("high", "low"):
            assert [program for program in order if program.startswith(name)] \
                == [f"{name}-{i}" for i in range(1, 4)]

    def test_strict_priority_sorts_by_class_then_arrival(self):
        mix = [ScheduleRequest(program=program, priority=priority)
               for program, priority in (("five-1", 5), ("zero-1", 0),
                                         ("nine-1", 9), ("zero-2", 0),
                                         ("five-2", 5))]
        order = _drive(ServiceConfig(max_batch_size=1,
                                     policy="strict-priority"), mix)
        assert order == ["zero-1", "zero-2", "five-1", "five-2", "nine-1"]


class TestBatcherTakesWhatIsQueued:
    """The batcher dispatches what is queued and waits for nothing else."""

    def test_sequential_slow_lane_requests_wait_without_a_timeout(self):
        session = StubSession()
        with ServiceRunner(session) as runner:
            timeouts = []
            wait = runner._cond.wait

            def recording_wait(timeout=None):
                timeouts.append(timeout)
                return wait(timeout)

            runner._cond.wait = recording_wait
            for index in range(20):
                runner.schedule(ScheduleRequest(program=f"p-{index}"))
        assert runner.stats.batches == 20 and session.batches == [1] * 20
        # The batcher waited for requests, never with a timeout.
        assert timeouts and set(timeouts) == {None}

    @pytest.mark.parametrize("max_batch_size,batches",
                             [(16, [1, 10]), (3, [1, 3, 3, 3, 1])])
    def test_queued_requests_go_out_together_in_priority_order(
            self, max_batch_size, batches):
        mix = [ScheduleRequest(program=f"{name}-{i}", priority=priority)
               for i in range(1, 4)
               for name, priority in (("low", 7), ("high", 2), ("mid", 5))]
        mix.append(ScheduleRequest(program="high-4", priority=2))
        session = StubSession()
        config = ServiceConfig(max_batch_size=max_batch_size)
        with ServiceRunner(session, config) as runner:
            _drain(runner, mix)
        assert session.batches == batches
        assert session.order == ["gate", "high-1", "high-2", "high-3",
                                 "high-4", "mid-1", "mid-2", "mid-3",
                                 "low-1", "low-2", "low-3"]

    @pytest.mark.parametrize("max_batch_size", [16, 1])
    def test_a_rekeyed_leader_is_dispatched_once(self, max_batch_size):
        # The urgent rider re-keys its queued priority-9 leader in place.
        requests = ([ScheduleRequest(program="dup", priority=9)]
                    + [ScheduleRequest(program=f"other-{i}", priority=5)
                       for i in range(1, 4)]
                    + [ScheduleRequest(program="dup", priority=0)])
        session = StubSession()
        config = ServiceConfig(max_batch_size=max_batch_size)
        with ServiceRunner(session, config) as runner:
            _drain(runner, requests)
        assert session.order == ["gate", "dup", "other-1", "other-2",
                                 "other-3"]
        assert sum(session.batches) == 5
        assert runner.stats.coalesced == 1
        assert runner._queue == []


def test_weighted_fair_server_serves_and_reports_its_policy():
    session = fast_session()
    config = ServiceConfig(policy="weighted-fair")
    try:
        with ServingServer(session, config=config) as server:
            client = ServingClient(server.address)
            for program, priority in (("gemm:a", 9), ("atax:a", 0)):
                response = client.schedule(program, priority=priority)
                assert response.program.body
            report = client.report()
        assert report["service"]["policy"] == "weighted-fair"
        assert report["service"]["scheduled"] == 2
    finally:
        session.close()


# -- Retry-After rounding (regression) ----------------------------------------------

class TestRetryAfterRounding:
    @pytest.mark.parametrize("hint,header", [(2.5, "3"), (0.05, "1")])
    def test_half_second_hints_round_up_not_to_even(self, hint, header):
        """round() uses banker's rounding (2.5 -> 2, 0.5 -> 0); the header
        must ceil so the hint never undercuts the configured backoff and
        never tells clients to retry immediately."""
        session = fast_session()
        config = ServiceConfig(max_batch_size=1,
                               max_client_inflight=1, retry_after_s=hint)
        with ServingServer(session, config=config) as server:
            # Alice's first request runs once one of hers was shed.
            runner = server.runner
            hold_next_batch(runner, lambda: runner.stats.rejected >= 1)
            statuses = []

            def submit(size):
                body = json.dumps({"program": "correlation:a",
                                   "client": "alice",
                                   "parameters": {"M": size, "N": size}})
                request = urllib.request.Request(
                    server.address + "/v1/schedule", data=body.encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"})
                try:
                    with urllib.request.urlopen(request, timeout=60) as reply:
                        statuses.append((reply.status, dict(reply.headers)))
                except urllib.error.HTTPError as error:
                    statuses.append((error.code, dict(error.headers)))

            with ThreadPoolExecutor(max_workers=6) as pool:
                list(pool.map(submit, [32 + index for index in range(6)]))
            rejected = [headers for status, headers in statuses
                        if status == 429]
            assert rejected
            assert rejected[0].get("Retry-After") == header
        session.close()


# -- the feedback loop: database level ----------------------------------------------

def _vector(*head):
    return tuple(list(head) + [0.0] * (EMBEDDING_SIZE - len(head)))


def _embedding(label, *head):
    return PerformanceEmbedding(label=label, vector=_vector(*head))


class TestDatabaseFeedback:
    def test_disappointing_measurement_flips_the_ranking(self):
        """The tentpole acceptance at database scale: the predicted-best
        entry stops winning once its executed schedule measures 100x worse
        than predicted."""
        database = TuningDatabase()
        near = database.add(_embedding("near", 1.0),
                            Recipe(name="near-recipe"), runtime=1.0)
        far = database.add(_embedding("far", 2.0),
                           Recipe(name="far-recipe"), runtime=1.0)
        probe = _embedding("probe")
        assert database.best_match(probe) is near
        before = database.version
        entry, created = database.record_measurement(
            _embedding("run", 1.0), Recipe(name="near-recipe"), 100.0)
        assert entry is near and not created
        # Bias saturates at 4x: score(near) = 1.0 * 4.0 > score(far) = 2.0.
        assert database.best_match(probe) is far
        assert database.version != before  # caches must revalidate

    def test_prediction_scale_projects_onto_the_entry_prediction(self):
        database = TuningDatabase()
        entry = database.add(_embedding("e", 1.0), Recipe(name="r"),
                             runtime=0.25)
        # A whole-program measurement at 2x its prediction credits the
        # entry at 2x the *entry's* prediction, not the raw wall time.
        database.record_measurement(_embedding("run", 1.0), Recipe(name="r"),
                                    10.0, prediction_scale=2.0)
        assert entry.measured_runtime == pytest.approx(0.5)
        assert entry.measurements == 1

    def test_unseen_recipe_becomes_a_measurement_born_entry(self):
        database = TuningDatabase()
        recipe = Recipe(name="searched@2")
        entry, created = database.record_measurement(
            _embedding("run", 3.0), recipe, 0.125)
        assert created
        assert len(database) == 1
        # Stored canonically: base name, retargeted to nest 0.
        assert entry.recipe.name == recipe_base_name(recipe.name) == "searched"
        assert recipe_identity(entry.recipe) == recipe_identity(recipe)
        assert entry.runtime is None and entry.bias() == 1.0

    def test_apply_feedback_record_outcomes(self):
        database = TuningDatabase()
        database.add(_embedding("seeded", 1.0), Recipe(name="seeded"),
                     runtime=1.0)
        applied = {"embedding": list(_vector(1.0)), "label": "run",
                   "recipe": Recipe(name="seeded").to_dict(),
                   "measured": 2.0, "scale": 2.0, "nest_index": 0}
        assert apply_feedback_record(applied, database) == "applied"
        assert apply_feedback_record(
            {"embedding": None, "nest_index": 1,
             "recipe": Recipe(name="gone").to_dict()}, database) == "skipped"
        novel = {"embedding": list(_vector(2.0)), "label": "run",
                 "recipe": Recipe(name="novel").to_dict(),
                 "measured": 0.5, "scale": None, "nest_index": 0}
        # A pool worker whose coordinator updated an entry must not create
        # one...
        assert apply_feedback_record(novel, database,
                                     add_missing=False) == "skipped"
        assert len(database) == 1
        # ...one whose coordinator created it does.
        assert apply_feedback_record(novel, database) == "added"
        assert len(database) == 2


# -- the feedback loop: session level -----------------------------------------------

class TestSessionFeedback:
    def test_record_measurement_feeds_the_database_and_the_report(self):
        session = fast_session()
        try:
            response = session.schedule("gemm:a")
            records = session.measurement_feedback(response, 0.5)
            assert records and any(record.get("embedding")
                                   for record in records)
            before = session.database.version
            counts = session.record_measurement(response, 0.5)
            assert sum(counts.values()) == len(records)
            assert counts["applied"] + counts["added"] >= 1
            assert session.database.version != before
            report = session.report()
            assert report.feedback_applied == counts["applied"]
            assert report.feedback_added == counts["added"]
            assert report.feedback_skipped == counts["skipped"]
            assert report.to_dict()["feedback_applied"] == counts["applied"]
            counter = session.metrics.get(
                "repro_feedback_measurements_total")
            assert counter is not None
            assert counter.labels("applied").value == counts["applied"]
        finally:
            session.close()

    def test_measured_objects_with_a_median_are_accepted(self):
        session = fast_session()
        try:
            response = session.schedule("gemm:a")
            records = session.measurement_feedback(
                response, types.SimpleNamespace(median=0.25))
            assert all(record["measured"] == 0.25 for record in records
                       if record.get("embedding") is not None)
        finally:
            session.close()

    def test_non_positive_or_non_finite_measurements_are_rejected(self):
        session = fast_session()
        try:
            response = session.schedule("gemm:a")
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    session.measurement_feedback(response, bad)
        finally:
            session.close()


# -- the feedback loop: pool level --------------------------------------------------

class TestPoolFeedback:
    def test_record_measurement_races_tune_redistribution(self, tmp_path):
        """Feedback application concurrent with a tune() broadcast round on
        a 2-worker pool: both must complete, the feedback must land in the
        pool stats and on every worker, and every worker must end at the
        coordinator's database version."""
        session = fast_session()
        try:
            response = session.schedule("gemm:a")
            records = session.measurement_feedback(response, 0.5)
        finally:
            session.close()
        assert records and any(record.get("embedding")
                               for record in records)
        embeddable = sum(1 for record in records
                         if record.get("embedding") is not None)
        config = WorkerConfig(threads=2,
                              cache_path=str(tmp_path / "cache.sqlite"),
                              search=FAST_SEARCH)
        with WorkerPool(2, config) as pool:
            with ThreadPoolExecutor(max_workers=2) as executor:
                tuned = executor.submit(
                    pool.tune, [ScheduleRequest(program="gemm:a", tune=True,
                                                label="gemm")])
                feedback = executor.submit(pool.record_measurement, records)
                tune_results = tuned.result(timeout=300)
                counts = feedback.result(timeout=300)
            assert not isinstance(tune_results[0], Exception)
            assert sum(counts.values()) == len(records)
            assert counts["applied"] + counts["added"] == embeddable
            stats = pool.stats.to_dict()
            assert stats["feedback_applied"] == counts["applied"]
            assert stats["feedback_added"] == counts["added"]
            assert stats["feedback_skipped"] == counts["skipped"]
            report = pool.report()
            # Every worker applied every record with the coordinator's
            # decision, and so took the coordinator's mutations in its order.
            for worker in report["per_worker"].values():
                assert (worker["feedback_applied"], worker["feedback_added"],
                        worker["feedback_skipped"]) \
                    == (counts["applied"], counts["added"], counts["skipped"])
                assert worker["database_entries"] == len(pool.database)
                assert worker["database_version"] == pool.database.version
