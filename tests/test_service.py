"""Experiment-service contract tests: adapter, cache, single-flight,
failure/retry, the stdlib HTTP transport.

The service's value claims are pinned here at toy scale:

- every JSON config either 400s with a self-describing error or
  canonicalizes to the repo-wide cell digest (the cache key);
- digest-identical concurrent POSTs run the cell ONCE (single-flight);
- a cache hit returns a record bit-identical to a direct
  ``run_resolved`` call (and survives a service restart via the
  content-addressed store);
- failed cells report ``failed`` with the error and are retryable;
- the stdlib HTTP transport serializes the core's ``(status,
  payload)`` contract.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.accel.base import SystemResult
from repro.experiments import runner
from repro.experiments.parallel import CellOutcome
from repro.experiments.requests import (
    REQUEST_FIELDS,
    RequestError,
    resolve_request,
)
from repro.experiments.runner import (
    CellSpec,
    clear_result_cache,
    resolve_cell,
    run_resolved,
)
from repro.service import ExperimentService, make_server

#: a fast toy cell for real-simulation tests
CONFIG = {
    "system": "Piccolo",
    "algorithm": "PR",
    "dataset": "UU",
    "profile": "toy",
    "max_iterations": 2,
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


def _fake_outcome(cell, total_ns=123.0):
    result = SystemResult(
        system=cell.system, algorithm=cell.algorithm,
        dataset=cell.dataset, total_ns=total_ns,
    )
    return CellOutcome(
        spec=cell.spec, digest=cell.digest, result=result,
        seconds=0.01, rss_mb=1.0, source="run",
    )


def _wait_job(service, digest, timeout=30.0):
    job = service._jobs[digest]
    assert job.wait(timeout), f"job {digest} did not finish"
    return job


# ---------------------------------------------------------------------------
# resolve_request: the JSON -> CellSpec adapter
# ---------------------------------------------------------------------------
class TestResolveRequest:
    def test_minimal_config_resolves_with_digest(self):
        cell = resolve_request(CONFIG)
        assert cell.digest is not None and len(cell.digest) == 32

    def test_digest_matches_the_runner_canonicalization(self):
        cell = resolve_request(CONFIG)
        spec = CellSpec(
            system="Piccolo", algorithm="PR", dataset="UU",
            scale="toy", max_iterations=2,
        )
        assert cell.digest == resolve_cell(spec).digest

    def test_profile_defaults_to_toy(self):
        trimmed = {k: v for k, v in CONFIG.items() if k != "profile"}
        assert resolve_request(trimmed).digest == resolve_request(CONFIG).digest

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ([1, 2], "JSON object"),
        ({"algorithm": "PR", "dataset": "UU"}, "missing required"),
        ({**CONFIG, "seed": 3}, "unknown config key"),
        ({**CONFIG, "system": "Nope"}, "unknown system"),
        ({**CONFIG, "dataset": "XX"}, "unknown dataset"),
        ({**CONFIG, "profile": "huge"}, "unknown profile"),
        ({**CONFIG, "cache_design": "magic"}, "unknown cache_design"),
        ({**CONFIG, "tile_backing": "tape"}, "unknown tile_backing"),
        ({**CONFIG, "max_iterations": "three"}, "must be int"),
        ({**CONFIG, "max_iterations": True}, "must be int"),
        ({**CONFIG, "max_iterations": 0}, ">= 1"),
        ({**CONFIG, "scale_shift": -1}, ">= 0"),
        ({**CONFIG, "system": 7}, "must be str"),
        ({**CONFIG, "algorithm": "FOO"}, "unknown algorithm"),
        (
            {**CONFIG, "system": "GraphDyns (Cache)", "cache_design": "Amoeba"},
            "fine-grained cache system",
        ),
    ])
    def test_bad_configs_raise_self_describing_errors(
        self, payload, fragment
    ):
        with pytest.raises(RequestError, match=fragment):
            resolve_request(payload)

    def test_every_field_is_json_expressible(self):
        # the schema must never grow a key that JSON cannot carry
        for types, _description in REQUEST_FIELDS.values():
            assert set(types) <= {str, int}

    def test_cache_design_request_resolves(self):
        cell = resolve_request({**CONFIG, "cache_design": "Piccolo (LRU)"})
        assert cell.digest is not None
        assert "cache_factory" in cell.make_kwargs


# ---------------------------------------------------------------------------
# single-flight + cache layering (injected runner: no simulation)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_posts_run_once(self, tmp_path):
        release = threading.Event()
        calls = []

        def slow_runner(cell):
            calls.append(cell.digest)
            assert release.wait(30)
            return _fake_outcome(cell)

        with ExperimentService(tmp_path, run_cell=slow_runner) as service:
            codes = []
            first = service.submit(CONFIG)
            codes.append(first)
            barrier = threading.Barrier(3)

            def fire():
                barrier.wait()
                codes.append(service.submit(CONFIG))

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            release.set()
            digest = first[1]["digest"]
            _wait_job(service, digest)
            assert calls == [digest]  # exactly one simulation
            joined = [p for c, p in codes if p.get("joined")]
            assert len(joined) == 3 and all(
                p["digest"] == digest for p in joined
            )
            assert service.stats.misses == 1
            assert service.stats.single_flight_joined == 3
            # after completion: a plain cache hit
            code, payload = service.submit(CONFIG)
            assert code == 200 and payload["cached"]
            assert payload["source"] == "memo"

    def test_distinct_configs_do_not_share_a_flight(self, tmp_path):
        def fast_runner(cell):
            return _fake_outcome(cell)

        with ExperimentService(tmp_path, run_cell=fast_runner) as service:
            a = service.submit(CONFIG)
            b = service.submit({**CONFIG, "max_iterations": 3})
            assert a[1]["digest"] != b[1]["digest"]
            assert service.stats.misses == 2


# ---------------------------------------------------------------------------
# failure + retry
# ---------------------------------------------------------------------------
class TestFailureAndRetry:
    def test_failed_cell_reports_error_and_is_retryable(self, tmp_path):
        attempts = []

        def flaky_runner(cell):
            attempts.append(cell.digest)
            if len(attempts) == 1:
                raise RuntimeError("synthetic simulation crash")
            return _fake_outcome(cell)

        with ExperimentService(tmp_path, run_cell=flaky_runner) as service:
            code, payload = service.submit(CONFIG)
            assert code == 202
            digest = payload["digest"]
            _wait_job(service, digest)
            code, status = service.status(digest)
            assert code == 200 and status["status"] == "failed"
            assert "synthetic simulation crash" in status["error"]
            assert status["retryable"] is True
            # retry: the same config enqueues a FRESH run
            code, payload = service.submit(CONFIG)
            assert code == 202 and payload["status"] == "queued"
            _wait_job(service, digest)
            code, status = service.status(digest)
            assert code == 200 and status["status"] == "done"
            assert len(attempts) == 2

    def test_unknown_digest_is_404(self, tmp_path):
        with ExperimentService(tmp_path) as service:
            code, payload = service.status("0" * 32)
            assert code == 404 and "unknown experiment digest" in payload["error"]

    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0}, {"max_workers": -2}, {"workers_per_job": -4},
    ])
    def test_bad_worker_counts_rejected(self, tmp_path, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            ExperimentService(tmp_path / "store", **kwargs)
        assert not (tmp_path / "store").exists()


# ---------------------------------------------------------------------------
# cache hits are bit-identical to direct serial runs, across restarts
# ---------------------------------------------------------------------------
class TestCacheFidelity:
    def test_hit_record_bit_identical_to_run_resolved(self, tmp_path):
        with ExperimentService(tmp_path) as service:
            code, payload = service.submit(CONFIG)
            assert code == 202
            digest = payload["digest"]
            _wait_job(service, digest)
            code, served = service.status(digest)
            assert code == 200 and served["status"] == "done", served
        clear_result_cache()
        direct = run_resolved(resolve_cell(CellSpec(
            system="Piccolo", algorithm="PR", dataset="UU",
            scale="toy", max_iterations=2,
        )))
        assert served["result"] == direct.to_record()
        # and the record survives a JSON wire round-trip bit-for-bit
        assert json.loads(json.dumps(served["result"])) == direct.to_record()

    def test_store_serves_across_service_restarts(self, tmp_path):
        with ExperimentService(tmp_path) as service:
            _code, payload = service.submit(CONFIG)
            digest = payload["digest"]
            _wait_job(service, digest)
            _code, first = service.status(digest)
        clear_result_cache()  # drop the in-process memo: only disk is left
        with ExperimentService(tmp_path) as reborn:
            code, payload = reborn.submit(CONFIG)
            assert code == 200 and payload["cached"]
            assert payload["source"] == "store"
            assert payload["result"] == first["result"]
            assert reborn.stats.hits_store == 1
            # status of a store-served digest also resolves
            code, status = reborn.status(digest)
            assert code == 200 and status["status"] == "done"


# ---------------------------------------------------------------------------
# stdlib HTTP transport
# ---------------------------------------------------------------------------
@pytest.fixture()
def http_service(tmp_path):
    trajectory = tmp_path / "BENCH.json"
    trajectory.write_text(json.dumps({
        "workloads": {},
        "trajectory": [
            {"label": "seed", "mode": "scalar",
             "timestamp": "2026-01-01T00:00:00+00:00",
             "times": {"fig10/x": 2.0, "service/hit-latency/toy-pr3": 0.1}},
            {"label": "now", "mode": "batched",
             "timestamp": "2026-01-02T00:00:00+00:00",
             "times": {"fig10/x": 1.0}},
        ],
    }))

    def fast_runner(cell):
        return _fake_outcome(cell)

    service = ExperimentService(
        tmp_path / "store", run_cell=fast_runner,
        trajectory_path=trajectory,
    )
    server = make_server(service)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _http(base, path, data=None, headers=None):
    request = urllib.request.Request(
        base + path, data=data, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestStdlibHTTP:
    def test_full_miss_then_hit_cycle_over_the_wire(self, http_service):
        base, service = http_service
        body = json.dumps(CONFIG).encode()
        headers = {"Content-Type": "application/json"}
        code, payload = _http(base, "/experiments", body, headers)
        assert code == 202 and payload["status"] == "queued"
        digest = payload["digest"]
        _wait_job(service, digest)
        code, status = _http(base, f"/experiments/{digest}")
        assert code == 200 and status["status"] == "done"
        assert status["seconds"] == 0.01 and status["source"] == "run"
        code, hit = _http(base, "/experiments", body, headers)
        assert code == 200 and hit["cached"]
        assert hit["result"] == status["result"]

    def test_wire_errors(self, http_service):
        base, _service = http_service
        assert _http(base, "/experiments", b"")[0] == 400        # empty body
        assert _http(base, "/experiments", b"{nope")[0] == 400   # bad JSON
        code, payload = _http(
            base, "/experiments", json.dumps({"seed": 1}).encode()
        )
        assert code == 400 and "unknown config key" in payload["error"]
        assert _http(base, "/experiments/zzz")[0] == 400         # bad digest
        assert _http(base, "/experiments/" + "0" * 32)[0] == 404
        assert _http(base, "/nope")[0] == 404
        code, payload = _http(base, "/healthz")
        assert code == 200 and payload["ok"]

    def test_cache_stats_and_trajectory_endpoints(self, http_service):
        base, _service = http_service
        code, stats = _http(base, "/cache/stats")
        assert code == 200
        assert set(stats) == {"cache", "jobs", "store"}
        code, trajectory = _http(base, "/trajectory")
        assert code == 200
        assert set(trajectory["cells"]) == {
            "fig10/x", "service/hit-latency/toy-pr3"
        }
        assert [p["seconds"] for p in trajectory["cells"]["fig10/x"]] == [
            2.0, 1.0
        ]
        code, filtered = _http(base, "/trajectory?prefix=service/")
        assert code == 200
        assert set(filtered["cells"]) == {"service/hit-latency/toy-pr3"}

