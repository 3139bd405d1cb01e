"""The spool-based study service: jobs, statuses, event streams.

End-to-end through the public surface: job files dropped into
``spool/jobs/`` are claimed, executed under scheduler supervision, and
answered via ``status/`` + ``events/`` + ``results/`` files.  The
headline assertion mirrors the CI service leg: of two identical
submissions, the second is a cache hit that executes zero work units.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service import events
from repro.service.cache import ResultCache
from repro.service.queue import JOB_FORMAT, StudyService
from repro.study.compiler import Study
from repro.study.result import StudyResult
from repro.study.scenario import MetricSpec, Scenario

WORKERS = 2


def _scenario(trials=4):
    return Scenario(
        name="served",
        num_nodes=40,
        pool_size=300,
        ring_sizes=(12, 15),
        curves=((2, 0.6), (2, 1.0)),
        trials=trials,
        seed=11,
        metrics=(MetricSpec("connectivity"),),
    )


def _submit(spool, job_id, payload):
    jobs = spool / "jobs"
    jobs.mkdir(parents=True, exist_ok=True)
    path = jobs / f"{job_id}.json"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)
    return path


@pytest.fixture(
    params=[
        {"target-ci": 0.05},  # typo: used to run a plain job
        {"max_trials": 8},  # adaptive knob without target_ci
        {"block_trials": 4},
        {"target_ci": "0.05"},
        {"target_ci": True},
        {"target_ci": 0.5, "max_trials": 2.7},  # used to truncate to 2
        {"target_ci": 0.5, "max_trials": "8"},
        {"target_ci": 0.5, "max_trials": True},
        {"target_ci": 0.5, "block_trials": True},
        {"target_ci": 0.5, "block_trials": 0},
    ],
    ids=lambda options: json.dumps(options, sort_keys=True),
)
def malformed_options(request):
    """Job options a ``repro serve`` job must refuse before running."""
    return request.param


class TestServiceLifecycle:
    def test_overlapping_submissions_second_is_pure_hit(self, tmp_path):
        spool = tmp_path / "spool"
        service = StudyService(
            spool,
            cache=ResultCache(tmp_path / "cache"),
            workers=WORKERS,
            max_concurrent=1,  # serialize so the second job sees the store
        )
        study_dict = Study((_scenario(),)).to_dict()
        _submit(spool, "job-a", study_dict)
        _submit(spool, "job-b", study_dict)
        executed = service.serve_forever(max_jobs=2, idle_timeout=10)
        assert executed == 2

        status_a = service.read_status("job-a")
        status_b = service.read_status("job-b")
        assert status_a["state"] == status_b["state"] == "done"
        assert status_a["cache"]["disposition"] == "miss"
        assert status_b["cache"]["disposition"] == "hit"
        assert status_b["units"] == 0

        result_a = StudyResult.load(status_a["result"])
        result_b = StudyResult.load(status_b["result"])
        assert np.array_equal(
            result_a["served"].values, result_b["served"].values
        )

    def test_event_stream_is_written_per_job(self, tmp_path):
        spool = tmp_path / "spool"
        service = StudyService(spool, workers=WORKERS)
        _submit(spool, "job-ev", Study((_scenario(),)).to_dict())
        service.serve_forever(max_jobs=1, idle_timeout=10)

        lines = (spool / "events" / "job-ev.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_completed"
        assert "unit_completed" in kinds  # supervised by default
        assert all(r["job_id"] == "job-ev" for r in records)

    def test_failed_job_reports_error(self, tmp_path):
        spool = tmp_path / "spool"
        service = StudyService(spool, workers=1)
        _submit(spool, "job-bad", {"scenarios": [{"name": "broken"}]})
        executed = service.serve_forever(max_jobs=1, idle_timeout=10)
        assert executed == 1
        status = service.read_status("job-bad")
        assert status["state"] == "failed"
        assert "error" in status
        kinds = [
            json.loads(line)["kind"]
            for line in (spool / "events" / "job-bad.jsonl")
            .read_text()
            .splitlines()
        ]
        assert kinds[-1] == "job_failed"

    def test_adaptive_job_via_options_wrapper(self, tmp_path):
        spool = tmp_path / "spool"
        service = StudyService(spool, workers=WORKERS)
        _submit(
            spool,
            "job-adaptive",
            {
                "format": JOB_FORMAT,
                "study": Study((_scenario(),)).to_dict(),
                "options": {"target_ci": 0.5, "max_trials": 8},
            },
        )
        service.serve_forever(max_jobs=1, idle_timeout=10)
        status = service.read_status("job-adaptive")
        assert status["state"] == "done"
        result = StudyResult.load(status["result"])
        assert "adaptive" in result.provenance

    def test_adaptive_job_status_counts_every_round(self, tmp_path):
        # Two deployment groups; the status used to record the first
        # round's units only.
        def plain(name, seed, curve):
            return Scenario(
                name=name,
                num_nodes=60,
                pool_size=600,
                ring_sizes=(10,),
                curves=(curve,),
                trials=8,
                seed=seed,
                metrics=(MetricSpec("connectivity"),),
            )

        spool = tmp_path / "spool"
        service = StudyService(spool, workers=1)
        _submit(
            spool,
            "job-rounds",
            {
                "format": JOB_FORMAT,
                "study": Study((plain("a", 11, (1, 0.5)), plain("b", 12, (1, 0.9)))).to_dict(),
                "options": {"target_ci": 0.001, "max_trials": 18, "block_trials": 6},
            },
        )
        service.serve_forever(max_jobs=1, idle_timeout=10)
        status = service.read_status("job-rounds")
        assert status["state"] == "done"
        result = StudyResult.load(status["result"])
        assert len(result.provenance["adaptive"]["rounds"]) == 4
        assert status["units"] == 6
        assert status["faults"]["units"] == status["faults"]["completed"] == 6

    def test_malformed_options_fail_the_job(self, tmp_path, malformed_options):
        spool = tmp_path / "spool"
        service = StudyService(spool, workers=1)
        _submit(
            spool,
            "job-options",
            {
                "format": JOB_FORMAT,
                "study": Study((_scenario(),)).to_dict(),
                "options": malformed_options,
            },
        )
        with events.capture_events(kinds=("unit_completed",)) as units:
            service.serve_forever(max_jobs=1, idle_timeout=10)
        status = service.read_status("job-options")
        assert status["state"] == "failed"
        assert status["error"].startswith("ParameterError")
        assert not units  # refused before any work ran

    def test_idle_timeout_returns_without_jobs(self, tmp_path):
        service = StudyService(tmp_path / "spool", poll_interval=0.05)
        assert service.serve_forever(idle_timeout=0.2) == 0

    def test_rejects_bad_max_concurrent(self, tmp_path):
        from repro.exceptions import ParameterError

        with pytest.raises(ParameterError, match="max_concurrent"):
            StudyService(tmp_path / "spool", max_concurrent=0)


class TestEventBus:
    def test_subscribe_capture_unsubscribe(self):
        seen = []
        sink = seen.append
        events.subscribe(sink)
        try:
            events.emit("ping", value=1)
        finally:
            events.unsubscribe(sink)
        events.emit("ping", value=2)  # after unsubscribe: not delivered
        assert [e.fields["value"] for e in seen] == [1]

    def test_context_tags_nested_emits(self):
        with events.capture_events() as captured:
            with events.event_context(job_id="J", extra="x"):
                events.emit("inner")
            events.emit("outer")
        inner, outer = captured
        assert inner.fields == {"job_id": "J", "extra": "x"}
        assert "job_id" not in outer.fields

    def test_kind_filter(self):
        with events.capture_events(kinds=("keep",)) as captured:
            events.emit("keep")
            events.emit("drop")
        assert [e.kind for e in captured] == ["keep"]

    def test_broken_sink_does_not_break_emitters(self):
        def broken(event):
            raise RuntimeError("sink bug")

        events.subscribe(broken)
        try:
            with events.capture_events() as captured:
                events.emit("survives")
        finally:
            events.unsubscribe(broken)
        assert [e.kind for e in captured] == ["survives"]

    def test_event_serializes(self):
        with events.capture_events() as captured:
            events.emit("s", a=1)
        data = captured[0].to_dict()
        assert data["kind"] == "s" and data["a"] == 1
        json.dumps(data)
