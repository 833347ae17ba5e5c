"""Engine: scheduling, cache warm-up, crash retry, determinism.

The synthetic job kinds registered here rely on the Linux ``fork`` start
method: pool workers inherit the parent's job-kind registry.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import experiments as ex
from repro.runner import provider
from repro.runner.cache import ResultCache
from repro.runner.engine import run_jobs
from repro.runner.jobs import JobSpec, canonical_json, register_job_kind, simulate_spec


def _token_spec(token: str, **extra) -> JobSpec:
    return JobSpec("echo-token", canonical_json({"token": token, **extra}))


register_job_kind(
    "echo-token", lambda params: {"token": params["token"], "simulations": 1}, replace=True
)


def _crash_once(params):
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed")
        os._exit(3)  # hard death: poisons the whole process pool
    return {"token": params["token"], "simulations": 1}


register_job_kind("crash-once", _crash_once, replace=True)


def _always_fails(params):
    raise ValueError("synthetic failure")


register_job_kind("always-fails", _always_fails, replace=True)


def _sleepy(params):
    import time

    time.sleep(float(params["sleep_s"]))
    return {"token": params["token"], "simulations": 1}


register_job_kind("sleepy", _sleepy, replace=True)


def _raise_once(params):
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("raised")
        raise ValueError("boom once")
    return {"token": "second try", "simulations": 1}


register_job_kind("raise-once", _raise_once, replace=True)


class TestScheduling:
    def test_serial_run_resolves_and_primes(self):
        jobs = [_token_spec("a"), _token_spec("b")]
        report = run_jobs(jobs, parallel=1)
        assert report.ok
        assert (report.unique, report.executed, report.simulations) == (2, 2, 2)
        assert provider.active().stats.primed == 2
        # The render phase hits the memo: nothing executes again.
        payload = provider.active().get(jobs[0])
        assert payload["token"] == "a"
        assert provider.active().stats.executed == 0

    def test_duplicate_identities_collapse(self):
        report = run_jobs([_token_spec("a"), _token_spec("a"), _token_spec("b")])
        assert (report.planned, report.unique, report.executed) == (3, 2, 2)

    def test_parallel_pool_resolves_everything(self):
        jobs = [_token_spec(f"t{i}") for i in range(6)]
        report = run_jobs(jobs, parallel=3)
        assert report.ok
        assert report.executed == 6
        for spec in jobs:
            assert provider.active().get(spec)["token"] == spec.params["token"]

    def test_cache_stats_line_is_greppable(self):
        report = run_jobs([_token_spec("a")])
        line = report.cache_stats_line()
        assert "1 unique jobs" in line
        assert "simulations executed" in line


class TestCacheWarmup:
    def test_second_run_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_token_spec("a"), _token_spec("b")]
        cold = run_jobs(jobs, cache=cache)
        assert (cold.disk_hits, cold.executed) == (0, 2)
        warm = run_jobs(jobs, cache=cache)
        assert (warm.disk_hits, warm.executed, warm.simulations) == (2, 0, 0)

    def test_warm_entries_prime_the_provider(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_token_spec("a")]
        run_jobs(jobs, cache=cache)
        provider.reset()
        run_jobs(jobs, cache=cache)
        assert provider.active().stats.primed == 1
        assert provider.active().get(jobs[0])["token"] == "a"
        assert provider.active().stats.executed == 0


class TestFailureHandling:
    def test_error_is_retried_then_recorded(self):
        spec = JobSpec("always-fails", canonical_json({"n": 1}))
        report = run_jobs([spec], retries=1)
        assert not report.ok
        assert report.retries == 1
        assert report.failures[0].attempts == 2
        assert "ValueError" in report.failures[0].error

    def test_failure_does_not_poison_other_jobs(self):
        bad = JobSpec("always-fails", canonical_json({"n": 1}))
        good = _token_spec("ok")
        report = run_jobs([bad, good], retries=0)
        assert len(report.failures) == 1
        assert provider.active().get(good)["token"] == "ok"

    def test_worker_crash_is_retried_on_a_rebuilt_pool(self, tmp_path):
        marker = tmp_path / "crashed-once"
        crash = JobSpec(
            "crash-once",
            canonical_json({"marker": str(marker), "token": "recovered"}),
        )
        others = [_token_spec(f"t{i}") for i in range(3)]
        report = run_jobs([crash, *others], parallel=2, retries=1)
        assert report.ok, [f.error for f in report.failures]
        assert report.retries >= 1
        assert marker.exists()
        assert provider.active().get(crash)["token"] == "recovered"

    def test_timeout_counts_as_a_crash(self):
        jobs = [
            JobSpec("sleepy", canonical_json({"sleep_s": 5.0, "token": f"s{i}"}))
            for i in range(2)
        ]
        report = run_jobs(jobs, parallel=2, retries=0, job_timeout_s=0.3)
        assert len(report.failures) == 2
        assert all("timeout" in failure.error for failure in report.failures)


class TestDeterminism:
    @pytest.fixture()
    def settings(self) -> ex.ExperimentSettings:
        return ex.ExperimentSettings(
            accesses=600, seed=5, applications=("lbm", "vips")
        )

    def test_parallel_render_matches_serial_render(self, settings):
        serial = ex.write_reduction_survey(settings).render()

        provider.reset()
        report = run_jobs(ex.comparison_jobs(settings), parallel=2)
        assert report.ok and report.executed == 4
        parallel_render = ex.write_reduction_survey(settings).render()
        # Rendering after the pool warm-up executed nothing new...
        assert provider.active().stats.executed == 0
        # ...and produced byte-identical output.
        assert parallel_render == serial

    def test_simulate_payload_survives_worker_transport(self, settings):
        spec = simulate_spec(
            workload="vips", controller="dewrite", accesses=400, seed=2
        )
        run_jobs([spec, _token_spec("pad")], parallel=2)
        from repro.runner.jobs import execute_job

        transported = provider.active().get(spec)
        local = execute_job(spec)
        assert transported == local


class TestObservability:
    def test_serial_run_records_job_timings(self):
        report = run_jobs([_token_spec("a"), _token_spec("b")])
        assert len(report.job_timings) == 2
        for timing in report.job_timings:
            assert timing["source"] == "executed"
            assert timing["kind"] == "echo-token"
            assert timing["compute_s"] >= 0.0
            assert timing["queue_s"] == 0.0
            assert timing["attempts"] == 1
            assert timing["label"] and timing["key"]

    def test_parallel_run_records_queue_and_compute(self):
        jobs = [_token_spec(f"q{i}") for i in range(4)]
        report = run_jobs(jobs, parallel=2)
        assert len(report.job_timings) == 4
        for timing in report.job_timings:
            assert timing["source"] == "executed"
            assert timing["compute_s"] >= 0.0
            assert timing["queue_s"] >= 0.0

    def test_disk_cache_hits_timed_as_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_token_spec("a")]
        run_jobs(jobs, cache=cache)
        warm = run_jobs(jobs, cache=cache)
        assert [t["source"] for t in warm.job_timings] == ["cache"]
        assert warm.job_timings[0]["compute_s"] == 0.0

    def test_failed_job_timed_as_failed(self):
        spec = JobSpec("always-fails", canonical_json({"n": 2}))
        report = run_jobs([spec], retries=0)
        (timing,) = report.job_timings
        assert timing["source"] == "failed"
        assert timing["attempts"] == 1

    def test_tracer_sees_job_spans_and_retry_events(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        good = _token_spec("traced")
        bad = JobSpec("always-fails", canonical_json({"n": 3}))
        report = run_jobs([good, bad], retries=1, tracer=tracer)
        assert not report.ok
        job_spans = tracer.spans("job")
        assert len(job_spans) == 1
        assert job_spans[0]["attrs"]["label"] == good.label
        retries = tracer.events("job.retry")
        assert len(retries) == 1
        assert "ValueError" in retries[0]["attrs"]["error"]
        failures = tracer.events("job.failed")
        assert len(failures) == 1
        assert failures[0]["attrs"]["attempts"] == 2

    def test_parallel_tracer_records_wall_job_spans(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        jobs = [_token_spec(f"w{i}") for i in range(3)]
        report = run_jobs(jobs, parallel=2, tracer=tracer)
        assert report.ok
        spans = tracer.spans("job")
        assert len(spans) == 3
        for span in spans:
            assert span["clock"] == "wall"
            assert span["attrs"]["source"] == "executed"
            assert span["attrs"]["queue_s"] >= 0.0

    def test_parallel_workers_merge_metrics_into_parent(self):
        from repro.obs.metrics import registry, reset_registry

        reset_registry()
        jobs = [_token_spec(f"m{i}") for i in range(4)]
        report = run_jobs(jobs, parallel=2)
        assert report.ok
        assert registry().counter("jobs.echo-token").value == 4.0
        assert registry().counter("simulations").value == 4.0
        reset_registry()


class TestSerialPooledParity:
    """``--parallel`` changes where a job runs, not what the run records."""

    def _observe(self, parallel: int, marker) -> dict:
        from repro.obs.events import EventBus
        from repro.obs.trace import Tracer
        from repro.runner.cache import job_key

        if marker.exists():
            marker.unlink()
        jobs = [
            JobSpec("always-fails", canonical_json({"workload": "fails"})),
            JobSpec("raise-once", canonical_json({"workload": "flaky", "marker": str(marker)})),
            _token_spec("fine", workload="fine"),
        ]
        tracer = Tracer()
        seen: list[dict] = []
        report = run_jobs(
            jobs, parallel=parallel, retries=1, tracer=tracer, events=EventBus(seen.append)
        )
        lifecycle = {
            spec.label: [r["event"] for r in seen if r.get("key") == job_key(spec)]
            for spec in jobs
        }
        return {
            "failures": [(f.spec.label, f.error, f.attempts) for f in report.failures],
            "retries": report.retries,
            "timings": sorted(
                (t["label"], t["source"], t["attempts"]) for t in report.job_timings
            ),
            "lifecycle": lifecycle,
            "trace_events": sorted(
                (e["name"], sorted(e["attrs"].items()))
                for e in tracer.events()
                if e["name"] in ("job.retry", "job.failed")
            ),
            "span_keys": sorted(sorted(s["attrs"]) for s in tracer.spans("job")),
        }

    def test_serial_and_pooled_runs_record_the_same(self, tmp_path):
        marker = tmp_path / "raised-once"
        serial = self._observe(1, marker)
        pooled = self._observe(2, marker)
        assert serial == pooled
        assert serial["failures"] == [
            ("always-fails fails", "ValueError('synthetic failure')", 2)
        ]
        assert serial["retries"] == 2
        assert serial["lifecycle"]["raise-once flaky"] == [
            "planned", "started", "retried", "started", "finished"
        ]
        assert all("compute_s" in keys and "queue_s" in keys for keys in serial["span_keys"])
