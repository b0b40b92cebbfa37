"""HTTP front end: submission, polling, results, error statuses."""

import dataclasses
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.spec import SweepSpec, scale_to_dict
from repro.service.http import ServiceServer, parse_sweep_request
from repro.service.service import SweepService

from .conftest import TINY


@pytest.fixture()
def server(tmp_path, fast_policy):
    service = SweepService(tmp_path, fast_policy)
    srv = ServiceServer(service, port=0)
    srv.start()
    yield srv
    srv.stop()


def get(server, path, expect=200):
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            assert response.status == expect
            return json.loads(response.read())
    except urllib.error.HTTPError as error:
        assert error.code == expect, error.read().decode()
        return json.loads(error.read() or b"{}"), error


def post(server, path, body, expect):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == expect
            return json.loads(response.read()), None
    except urllib.error.HTTPError as error:
        assert error.code == expect, error.read().decode()
        return json.loads(error.read() or b"{}"), error


def wait_for_completion(server, job_id, deadline=120.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status = get(server, f"/sweeps/{job_id}")
        if status["state"] == "completed":
            return status
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not complete in {deadline}s")


def test_full_form_submission_round_trip(server, one_cell_spec):
    payload, _ = post(server, "/sweeps", one_cell_spec.to_dict(), expect=202)
    job_id = payload["job_id"]
    status = wait_for_completion(server, job_id)
    assert status["cells_done"] == 1 and status["cells_failed"] == 0

    result = get(server, f"/sweeps/{job_id}/result")
    assert result["complete"] is True
    assert result["provenance"] == {"base/M1": "simulated"}
    (cell,) = result["table"]["cells"]
    assert cell["config"] == "base" and cell["mix"] == "M1"
    assert cell["result"]["total_cycles"] > 0

    listing = get(server, "/sweeps")
    assert [j["job_id"] for j in listing["jobs"]] == [job_id]


def test_compact_form_uses_registered_names(server):
    body = {"configs": ["2d"], "mixes": ["M1"], "scale": scale_to_dict(TINY)}
    payload, _ = post(server, "/sweeps", body, expect=202)
    wait_for_completion(server, payload["job_id"])
    result = get(server, f"/sweeps/{payload['job_id']}/result")
    # Registry key "2d" resolves to the config's own display name "2D".
    assert result["provenance"] == {"2D/M1": "simulated"}


def test_healthz_and_stats(server):
    assert get(server, "/healthz") == {"ok": True}
    stats = get(server, "/stats")
    assert set(stats) >= {"service", "cache", "supervisor", "breaker", "queue"}


def test_bad_request_bodies_get_400(server):
    _, error = post(server, "/sweeps", {"configs": ["2d"]}, expect=400)
    assert error is not None
    _, error = post(
        server, "/sweeps",
        {"configs": ["no-such-config"], "mixes": ["M1"]},
        expect=400,
    )
    assert error is not None


def test_unknown_routes_and_jobs_get_404(server):
    get(server, "/nope", expect=404)
    get(server, "/sweeps/job-9999-cafecafecafe", expect=404)
    get(server, "/sweeps/job-9999-cafecafecafe/result", expect=404)
    post(server, "/nope", {}, expect=404)


def test_overload_returns_503_with_retry_after(tmp_path, fast_policy, tiny_spec):
    policy = dataclasses.replace(fast_policy, max_pending_cells=4)
    service = SweepService(tmp_path, policy)
    server = ServiceServer(service, port=0)
    # Listener only, no executor: nothing drains the queue, so the
    # second submission must hit the admission bound.
    listener = threading.Thread(target=server.httpd.serve_forever, daemon=True)
    listener.start()
    try:
        post(server, "/sweeps", tiny_spec.to_dict(), expect=202)
        payload, error = post(
            server, "/sweeps", tiny_spec.to_dict(), expect=503
        )
        assert error is not None
        assert error.headers["Retry-After"] == "30"
        assert payload.get("retry_after") == 30
    finally:
        server.httpd.shutdown()
        server.httpd.server_close()
        service.close()


def test_listing_is_consistent_during_concurrent_submits(
    tmp_path, fast_policy, tiny_spec
):
    """``GET /sweeps`` while submissions land: the handler thread must
    read a snapshot taken under the queue's lock, not iterate the job
    table while another thread inserts into it."""
    service = SweepService(tmp_path, fast_policy)
    server = ServiceServer(service, port=0)
    listener = threading.Thread(target=server.httpd.serve_forever, daemon=True)
    listener.start()
    errors = []
    submitting = threading.Event()
    submitting.set()

    def list_jobs():
        while submitting.is_set() and not errors:
            try:
                get(server, "/sweeps")
            except Exception as exc:  # a failed request, of any kind
                errors.append(exc)

    lister = threading.Thread(target=list_jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        lister.start()
        for _ in range(400):
            if errors:
                break
            service.submit(tiny_spec)
    finally:
        submitting.clear()
        lister.join(timeout=30)
        sys.setswitchinterval(interval)
        server.httpd.shutdown()
        server.httpd.server_close()
        service.close()
    assert not lister.is_alive()
    assert not errors, repr(errors[0])
    assert len(service.queue.jobs) == 400


def test_parse_rejects_unknown_mix():
    with pytest.raises(ValueError, match="unknown mix names"):
        parse_sweep_request(
            {"configs": ["2d"], "mixes": ["M99"], "scale": "smoke"}
        )


def test_parse_full_form_matches_spec(one_cell_spec):
    assert parse_sweep_request(one_cell_spec.to_dict()) == one_cell_spec
