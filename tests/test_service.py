"""The campaign service: protocol, dedupe table, projections, daemon.

The service's contract is that it is *transparent*: a client submitting a
:class:`CampaignRequest` over the socket receives records bit-identical,
and identically ordered, to an in-process ``run(request)`` — even when a
concurrent request overlaps it and the shared tuples execute only once.
These tests pin that contract end to end (threaded daemon + real
sockets), plus the unit behaviour of each service layer: wire framing,
the content-addressed dedupe table, and the event-log projections.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.eval import CampaignRequest, ExecConfig, ResultStore, run
from repro.faultinject import HEAP_ARRAY_RESIZE
from repro.service import (
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    protocol,
)
from repro.service.dedupe import DedupeTable, TupleRef
from repro.service.projections import EventLog, Projections

from .test_parallel_determinism import record_signature

KIND = HEAP_ARRAY_RESIZE

# Small but real: two variants x (<=2 sites) x one seed on mcf.
REQUEST = CampaignRequest(
    workloads=("mcf",),
    kinds=(KIND,),
    variants=("stdapp", "no-diversity"),
    max_sites=2,
)
# Overlaps REQUEST on the no-diversity tuples only.
OVERLAPPING = CampaignRequest(
    workloads=("mcf",),
    kinds=(KIND,),
    variants=("no-diversity", "zero-before-free"),
    max_sites=2,
)


def _snapshot(daemon):
    """Atomically read (events, projections) on the daemon's event loop."""

    async def snap():
        scheduler = daemon.scheduler
        return (
            [dict(e) for e in scheduler.log.events],
            scheduler.projections.to_dict(),
        )

    return asyncio.run_coroutine_threadsafe(snap(), daemon._loop).result(
        timeout=60
    )


class TestProtocol:
    def test_encode_decode_round_trip(self):
        msg = {"type": "status", "nested": {"a": [1, 2]}, "x": None}
        frame = protocol.encode(msg)
        assert frame.endswith(b"\n") and b"\n" not in frame[:-1]
        assert protocol.decode(frame) == msg

    def test_submit_frame_is_exactly_the_request_dict(self):
        frame = protocol.encode(protocol.submit_message(REQUEST))
        msg = protocol.decode(frame)
        assert msg["type"] == "submit"
        assert CampaignRequest.from_dict(msg["request"]) == REQUEST

    def test_malformed_frames_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode(b"nonsense\n")
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError, match="'type'"):
            protocol.decode(b'{"no": "type"}\n')
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))


class TestDedupeTable:
    def _ref(self, key):
        return TupleRef(entry=None, si=0, vi=0, ri=0, key=key)

    def test_admit_join_complete_fanout(self):
        table = DedupeTable()
        req_a, req_b = object(), object()
        assert table.admit(self._ref("k1"), req_a, 0) == "new"
        assert table.admit(self._ref("k1"), req_b, 3) == "inflight"
        assert table.take_pending() == ["k1"]
        assert table.take_pending() == []

        record = object()
        entry = table.complete("k1", record)
        assert [(s[0], s[1], s[2]) for s in entry.subscribers] == [
            (req_a, 0, "run"),
            (req_b, 3, "shared"),
        ]
        # Idempotent against duplicate callbacks; now an in-memory hit.
        assert table.complete("k1", record) is None
        assert table.lookup("k1") is record
        assert table.stats == {
            "scheduled": 1,
            "joins": 1,
            "memory_hits": 1,
            "store_hits": 0,
            "failed": 0,
        }

    def test_failed_tuple_can_be_retried(self):
        table = DedupeTable()
        table.admit(self._ref("k1"), object(), 0)
        table.take_pending()
        assert table.fail("k1") is not None
        assert table.lookup("k1") is None
        # Not completed: a later request schedules it from scratch.
        assert table.admit(self._ref("k1"), object(), 0) == "new"
        assert table.stats["failed"] == 1 and table.stats["scheduled"] == 2

    def test_store_hit_promoted_once(self):
        table = DedupeTable()
        record = object()
        assert table.serve_store_hit("k1", record) is True
        assert table.serve_store_hit("k1", object()) is False
        assert table.lookup("k1") is record
        assert table.stats["store_hits"] == 1


class TestProjections:
    def _populated(self):
        log, proj = EventLog(), Projections()

        def emit(kind, **fields):
            proj.apply(log.append(kind, **fields))

        emit(
            "request_admitted",
            request_id="r1",
            n_items=3,
            n_jobs=1,
            store_hits=1,
            shared_hits=0,
            executed=2,
        )
        emit(
            "tuple_done",
            workload="mcf",
            fault_kind=KIND,
            variant="stdapp",
            covered=True,
            detected=True,
            t2d=120,
        )
        emit(
            "tuple_done",
            workload="mcf",
            fault_kind=KIND,
            variant="stdapp",
            covered=False,
            detected=False,
            t2d=None,
        )
        emit("request_progress", request_id="r1", done=2, errors=0)
        emit("tuple_error", request_id="r1", site="s3")
        emit("batch_done", wall_s=0.25)
        emit("request_done", request_id="r1", errors=1, wall_s=0.5)
        emit("from_the_future", whatever=True)  # unknown kinds are ignored
        return log, proj

    def test_replay_equals_live_fold(self):
        log, live = self._populated()
        assert Projections.replay(log.events).to_dict() == live.to_dict()

    def test_derived_figures(self):
        _, proj = self._populated()
        snap = proj.to_dict()
        fig = snap["figures"][f"mcf/{KIND}/stdapp"]
        assert fig["records"] == 2 and fig["coverage"] == 0.5
        assert fig["mean_t2d"] == 120
        assert snap["totals"]["errors"] == 1
        assert snap["totals"]["completed_requests"] == 1
        assert snap["requests"]["r1"]["state"] == "done"
        assert proj.store_hit_rate() == pytest.approx(1 / 3)

    def test_hit_rate_none_before_any_admission(self):
        assert Projections().store_hit_rate() is None

    def test_retired_shard_events_are_skipped(self):
        """A log written while the shard fabric existed still replays:
        its ``shard_done`` events fold to nothing, and replay equals the
        live fold over the mixed log."""
        log, proj = self._populated()
        before = proj.to_dict()
        for shard in (1, 0):
            proj.apply(
                log.append(
                    "shard_done",
                    shard=shard,
                    leases=2,
                    n_records=4,
                    retries=1,
                    wall_s=0.25,
                )
            )
        assert proj.to_dict() == before
        assert Projections.replay(log.events).to_dict() == proj.to_dict()


class TestServiceEndToEnd:
    def test_records_bit_identical_to_in_process_run(self):
        solo = run(REQUEST, config=ExecConfig())
        with ServiceDaemon(ExecConfig()) as daemon:
            with ServiceClient(port=daemon.port) as client:
                assert client.ping()
                res = client.submit(REQUEST)
        assert len(res.records) == len(solo.records) > 0
        assert [record_signature(r) for r in res.records] == [
            record_signature(r) for r in solo.records
        ]
        m = res.manifest
        assert m.mode == "service"
        assert m.n_records == len(res.records)
        assert m.store_misses == len(res.records)  # nothing shared or stored
        assert m.shared_hits == 0

    def test_unix_socket_transport_is_equivalent(self, tmp_path):
        """Same LDJSON protocol over a per-test UNIX socket: no TCP port
        is bound at all, so parallel test runs cannot collide."""
        solo = run(REQUEST, config=ExecConfig())
        sock = str(tmp_path / "dpmr.sock")
        with ServiceDaemon(ExecConfig(), unix_path=sock) as daemon:
            assert daemon.port == -1
            with ServiceClient(unix_path=sock) as client:
                assert client.ping()
                res = client.submit(REQUEST)
        assert [record_signature(r) for r in res.records] == [
            record_signature(r) for r in solo.records
        ]

    def test_concurrent_overlapping_requests_share_tuples(self, tmp_path):
        solo_a = run(REQUEST, config=ExecConfig())
        solo_b = run(OVERLAPPING, config=ExecConfig())
        union = {record_signature(r) for r in solo_a.records} | {
            record_signature(r) for r in solo_b.records
        }
        overlap = len(solo_a.records) + len(solo_b.records) - len(union)
        assert overlap > 0  # the matrices genuinely intersect

        results = {}

        def submit(name, request, port):
            with ServiceClient(port=port) as client:
                results[name] = client.submit(request)

        store_dir = str(tmp_path / "store")
        with ServiceDaemon(ExecConfig(store_path=store_dir)) as daemon:
            threads = [
                threading.Thread(target=submit, args=("a", REQUEST, daemon.port)),
                threading.Thread(
                    target=submit, args=("b", OVERLAPPING, daemon.port)
                ),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            events, projections = _snapshot(daemon)
            stats = dict(daemon.scheduler.dedupe.stats)

        # Every client gets its full matrix, bit-identical to its solo run.
        for name, solo in (("a", solo_a), ("b", solo_b)):
            assert [record_signature(r) for r in results[name].records] == [
                record_signature(r) for r in solo.records
            ]

        # The overlapping tuples executed, and were stored, exactly once.
        m_a, m_b = results["a"].manifest, results["b"].manifest
        assert m_a.store_misses + m_b.store_misses == len(union)
        assert m_a.shared_hits + m_b.shared_hits == overlap
        assert stats["scheduled"] == len(union)
        assert stats["joins"] + stats["memory_hits"] == overlap
        assert len(ResultStore(store_dir)) == len(union)

        # The event-log projections are a pure fold over the log.
        assert Projections.replay(events).to_dict() == projections
        totals = projections["totals"]
        assert totals["requests"] == 2
        assert totals["executed"] == len(union)
        assert totals["shared_hits"] == overlap

    def test_disconnect_keeps_tuples_and_store_retains_results(self, tmp_path):
        solo = run(REQUEST, config=ExecConfig())
        store_dir = str(tmp_path / "store")
        config = ExecConfig(store_path=store_dir)
        with ServiceDaemon(config) as daemon:
            client = ServiceClient(port=daemon.port)
            accepted = client.submit_nowait(REQUEST)
            client.close()  # walk away mid-request

            # The daemon keeps executing; the store fills up regardless.
            store = ResultStore(store_dir)
            deadline = time.monotonic() + 300
            while len(store) < accepted["n_items"]:
                assert time.monotonic() < deadline, "daemon dropped the work"
                time.sleep(0.5)

            # A later client finds everything finished in this daemon.
            with ServiceClient(port=daemon.port) as later:
                res = later.submit(REQUEST)
            assert res.manifest.store_misses == 0
            assert (
                res.manifest.store_hits + res.manifest.shared_hits
                == accepted["n_items"]
            )
        # A *fresh* daemon over the same directory serves pure store hits.
        with ServiceDaemon(config) as daemon:
            with ServiceClient(port=daemon.port) as client:
                res = client.submit(REQUEST)
        assert res.manifest.store_hits == accepted["n_items"]
        assert res.manifest.store_misses == 0
        assert [record_signature(r) for r in res.records] == [
            record_signature(r) for r in solo.records
        ]

    def test_in_process_run_is_served_from_the_daemons_store(self, tmp_path):
        """The daemon and ``run(request)`` key tuples identically: a store
        the daemon wrote serves an in-process run entirely."""
        config = ExecConfig(store_path=str(tmp_path / "store"))
        with ServiceDaemon(config) as daemon:
            with ServiceClient(port=daemon.port) as client:
                served = client.submit(REQUEST)
        assert served.manifest.store_misses == len(served.records) > 0
        res = run(REQUEST, config=config)
        assert res.manifest.store_misses == 0
        assert res.manifest.store_hits == len(served.records)
        assert [record_signature(r) for r in res.records] == [
            record_signature(r) for r in served.records
        ]

    def test_manifest_reports_the_daemons_build_path(self):
        with ServiceDaemon(ExecConfig(incremental=False)) as daemon:
            with ServiceClient(port=daemon.port) as client:
                res = client.submit(REQUEST)
        assert len(res.records) > 0
        assert res.manifest.incremental is False

    def test_empty_campaign_reason(self):
        empty = CampaignRequest(
            workloads=("mcf",), kinds=(KIND,), variants=("stdapp",), max_sites=0
        )
        solo = run(empty, config=ExecConfig())
        assert solo.manifest.worker_reason == "empty_campaign"
        with ServiceDaemon(ExecConfig()) as daemon:
            with ServiceClient(port=daemon.port) as client:
                res = client.submit(empty)
        assert res.manifest.worker_reason == "empty_campaign"
        assert len(res.records) == 0 and res.manifest.n_records == 0

    def test_bad_submissions_rejected_not_fatal(self):
        with ServiceDaemon(ExecConfig()) as daemon:
            with ServiceClient(port=daemon.port) as client:
                bogus = CampaignRequest(
                    workloads=("nonesuch",), kinds=(KIND,), variants=("stdapp",)
                )
                with pytest.raises(ServiceError, match="nonesuch"):
                    client.submit(bogus)
                # The connection survives the rejection.
                assert client.ping()

    def test_raw_socket_protocol_errors(self):
        with ServiceDaemon(ExecConfig()) as daemon:
            sock = socket.create_connection(
                (daemon.host, daemon.port), timeout=60
            )
            rfile = sock.makefile("rb")
            hello = protocol.decode(rfile.readline())
            assert hello == {"type": "hello", "version": protocol.PROTOCOL_VERSION}
            sock.sendall(b"not json at all\n")
            assert protocol.decode(rfile.readline())["type"] == "error"
            sock.sendall(protocol.encode({"type": "bogus"}))
            msg = protocol.decode(rfile.readline())
            assert msg["type"] == "error" and "bogus" in msg["error"]
            sock.close()
