"""The async control-plane server: QoS, quotas, shedding, races, drain.

No pytest-asyncio in the toolchain, so every async scenario runs under
``asyncio.run`` — which also mirrors how the CLI boots the server.
"""

import asyncio

import pytest

from repro.control import (
    AdmissionQueue,
    OverloadedError,
    QosClass,
    QuotaExceededError,
    QuotaLedger,
    RestApi,
    TenantSpec,
    route_catalogue,
)
from repro.control.api import EVENTS_MAX_LIMIT, ROUTES
from repro.control.server import ControlServer, ServerConfig, http_request
from repro.obs import EventLog, MetricsRegistry, session
from repro.testbed import Testbed

MIB = 1 << 20


# -- qos primitives -----------------------------------------------------------------


class TestQosClass:
    def test_parse_round_trips_every_member(self):
        for member in QosClass:
            assert QosClass.parse(member.value) is member
            assert QosClass.parse(member) is member

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown QoS class"):
            QosClass.parse("platinum")

    def test_priority_orders_guaranteed_first(self):
        ordered = sorted(QosClass, key=lambda c: c.priority)
        assert ordered == [
            QosClass.GUARANTEED, QosClass.BURSTABLE, QosClass.BEST_EFFORT
        ]


class TestQuotaLedger:
    def make(self, **kwargs):
        ledger = QuotaLedger()
        ledger.register(TenantSpec("acme", **kwargs))
        return ledger

    def test_charge_and_release_track_usage(self):
        ledger = self.make(max_attachments=2, max_bytes=4 * MIB)
        ledger.charge("acme", MIB)
        ledger.charge("acme", MIB)
        usage = ledger.usage("acme")
        assert usage["attachments"] == 2 and usage["bytes"] == 2 * MIB
        ledger.release("acme", MIB)
        assert ledger.usage("acme")["attachments"] == 1

    def test_attachment_quota_is_a_429_error(self):
        ledger = self.make(max_attachments=1)
        ledger.charge("acme", MIB)
        with pytest.raises(QuotaExceededError) as info:
            ledger.charge("acme", MIB)
        assert info.value.details["dimension"] == "attachments"
        assert info.value.code == "control/quota-exceeded"

    def test_byte_quota_denies_before_mutating(self):
        ledger = self.make(max_bytes=2 * MIB)
        ledger.charge("acme", MIB)
        with pytest.raises(QuotaExceededError) as info:
            ledger.charge("acme", 2 * MIB)
        assert info.value.details["dimension"] == "bytes"
        # the denied charge must not have been half-applied
        assert ledger.usage("acme")["attachments"] == 1
        assert ledger.usage("acme")["bytes"] == MIB

    def test_unknown_tenant_is_denied(self):
        with pytest.raises(QuotaExceededError, match="unknown tenant"):
            QuotaLedger().charge("ghost", MIB)

    def test_release_clamps_at_zero_and_tolerates_deregistered(self):
        ledger = self.make()
        ledger.release("acme", MIB)
        assert ledger.usage("acme")["bytes"] == 0
        ledger.release("ghost", MIB)  # no-op, no raise


class TestAdmissionQueue:
    def test_per_class_budgets_overlap(self):
        queue = AdmissionQueue(max_depth=8)
        assert queue.budget(QosClass.GUARANTEED) == 8
        assert queue.budget(QosClass.BURSTABLE) == 6
        assert queue.budget(QosClass.BEST_EFFORT) == 4

    def test_best_effort_sheds_while_guaranteed_still_fits(self):
        queue = AdmissionQueue(max_depth=8)
        for i in range(4):
            queue.push(QosClass.BEST_EFFORT, i)
        with pytest.raises(OverloadedError):
            queue.push(QosClass.BEST_EFFORT, "over")
        assert queue.shed_count == 1
        queue.push(QosClass.GUARANTEED, "vip")  # still admitted

    def test_total_depth_bounds_even_guaranteed(self):
        queue = AdmissionQueue(max_depth=2)
        queue.push(QosClass.GUARANTEED, 1)
        queue.push(QosClass.GUARANTEED, 2)
        with pytest.raises(OverloadedError):
            queue.push(QosClass.GUARANTEED, 3)

    def test_pop_serves_strict_priority(self):
        queue = AdmissionQueue(max_depth=8)
        queue.push(QosClass.BEST_EFFORT, "be")
        queue.push(QosClass.BURSTABLE, "bu")
        queue.push(QosClass.GUARANTEED, "gu")
        assert [queue.pop(), queue.pop(), queue.pop()] == ["gu", "bu", "be"]
        assert queue.pop() is None


# -- catalogue stays in sync with dispatch ------------------------------------------


class TestRouteCatalogue:
    def test_catalogue_served_unauthenticated(self):
        api = RestApi(Testbed().plane)
        status, body = api.handle("GET", "/v1")
        assert status == 200
        assert body["version"] == "v1"
        assert set(body["error_schema"]) >= {"error", "code"}

    def test_every_catalogued_route_dispatches(self):
        """No route in GET /v1 may 404/405 when actually called."""
        testbed = Testbed()
        api = RestApi(testbed.plane)
        for route in route_catalogue()["routes"]:
            path = route["path"].replace("{id}", "1")
            status, body = api.handle(
                route["method"], path, token=testbed.admin_token
            )
            # Domain 404s (unknown attachment id) are fine; *routing*
            # misses mean the catalogue lies about the dispatch table.
            assert body.get("code") not in (
                "request/no-route", "request/method-not-allowed"
            ), (route, body)
            assert status != 405, (route, body)

    def test_every_dispatch_route_is_catalogued(self):
        """The table IS the dispatch: every spec has a live handler and
        appears exactly once in the catalogue."""
        api = RestApi(Testbed().plane)
        catalogued = {
            (r["method"], r["path"])
            for r in route_catalogue()["routes"]
        }
        declared = {(spec.method, spec.template) for spec in ROUTES}
        assert catalogued == declared
        assert len(route_catalogue()["routes"]) == len(ROUTES)
        for spec in ROUTES:
            assert callable(getattr(api, spec.handler)), spec.handler

    def test_unknown_route_is_404_and_wrong_method_is_405(self):
        api = RestApi(Testbed().plane)
        status, body = api.handle("GET", "/v2/everything")
        assert (status, body["code"]) == (404, "request/no-route")
        status, body = api.handle("PUT", "/v1/state")
        assert (status, body["code"]) == (405, "request/method-not-allowed")
        assert "GET" in body["error"]

    def test_route_for_maps_targets_to_specs(self):
        api = RestApi(Testbed().plane)
        assert api.route_for("GET", "/v1/metrics").raw is True
        assert api.route_for("GET", "/v1/attachments/7?x=1").template == (
            "/v1/attachments/{id}"
        )
        assert api.route_for("PATCH", "/v1/state") is None
        assert api.route_for("GET", "/nope") is None


# -- events pagination ---------------------------------------------------------------


class TestEventsPagination:
    @pytest.fixture
    def journal(self):
        """A three-attach journal served by the API, inside a session."""
        log = EventLog()
        with session(events=log):
            testbed = Testbed()
            for _ in range(3):
                attachment = testbed.attach(
                    "node0", MIB, memory_host="node1"
                )
                testbed.detach(attachment)
            yield log, RestApi(testbed.plane), testbed.admin_token

    def test_cursor_walk_covers_the_journal_exactly_once(self, journal):
        log, api, token = journal
        seen = []
        cursor = 0
        while True:
            status, page = api.handle(
                "GET", f"/v1/events?since_seq={cursor}&limit=4",
                token=token,
            )
            assert status == 200
            if not page["count"]:
                break
            seen.extend(e["seq"] for e in page["events"])
            assert page["count"] == len(page["events"]) <= 4
            cursor = page["next_seq"]
        assert seen == list(range(log.total))

    def test_unpaginated_request_keeps_legacy_shape(self, journal):
        log, api, token = journal
        status, body = api.handle("GET", "/v1/events", token=token)
        assert status == 200
        assert body["total"] == log.total
        assert body["evicted"] == 0
        assert len(body["events"]) == log.total
        assert body["next_seq"] == log.total

    def test_limit_is_validated_and_capped(self, journal):
        _log, api, token = journal
        status, body = api.handle(
            "GET", "/v1/events?limit=banana", token=token
        )
        assert (status, body["code"]) == (400, "request/invalid")
        status, body = api.handle(
            "GET", f"/v1/events?limit={EVENTS_MAX_LIMIT * 10}",
            token=token,
        )
        assert status == 200
        assert len(body["events"]) <= EVENTS_MAX_LIMIT


# -- the async server ---------------------------------------------------------------


def make_server(**config_kwargs):
    """Testbed + API + server, with three registered tenants."""
    testbed = Testbed()
    registry = MetricsRegistry()
    api = RestApi(testbed.plane, registry=registry)
    tokens = {
        "gold": testbed.plane.register_tenant(
            "gold", qos=QosClass.GUARANTEED
        ),
        "bronze": testbed.plane.register_tenant(
            "bronze", qos=QosClass.BEST_EFFORT,
            max_attachments=3, max_bytes=16 * MIB,
        ),
    }
    server = ControlServer(
        api, ServerConfig(**config_kwargs), registry=registry
    )
    return testbed, server, tokens, registry


class TestServerBasics:
    def test_request_response_and_bearer_auth(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(workers=2)
            async with server:
                status, _h, body = await http_request(
                    "127.0.0.1", server.port, "GET", "/v1/state",
                    token=testbed.admin_token,
                )
                assert status == 200 and "state" in body
                status, _h, body = await http_request(
                    "127.0.0.1", server.port, "GET", "/v1/state"
                )
                assert (status, body["code"]) == (401, "auth/denied")

        asyncio.run(scenario())

    def test_metrics_served_as_raw_prometheus_exposition(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(workers=1)
            async with server:
                status, headers, text = await http_request(
                    "127.0.0.1", server.port, "GET", "/v1/metrics",
                    token=testbed.admin_token,
                )
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                assert isinstance(text, str)
                assert "server_queue_depth" in text

        asyncio.run(scenario())

    def test_malformed_json_body_is_a_400(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(workers=1)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                blob = b"not json"
                writer.write(
                    b"POST /v1/attachments HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(blob), blob)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n", 1)[0]
                assert b"request/invalid" in raw

        asyncio.run(scenario())

    def test_oversized_body_is_rejected_with_413(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(
                workers=1, max_body_bytes=64
            )
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /v1/attachments HTTP/1.1\r\n"
                    b"Content-Length: 100000\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"413" in raw.split(b"\r\n", 1)[0]

        asyncio.run(scenario())


class TestConcurrentRaces:
    def test_concurrent_attaches_respect_the_quota_exactly(self):
        """8 simultaneous attaches against max_attachments=3: exactly 3
        win, 5 get structured 429s, and concurrent detaches return the
        ledger to zero."""

        async def scenario():
            testbed, server, tokens, _ = make_server(workers=4)
            async with server:
                async def attach():
                    return await http_request(
                        "127.0.0.1", server.port, "POST", "/v1/attachments",
                        body={"compute_host": "node0", "size": MIB},
                        token=tokens["bronze"],
                    )

                results = await asyncio.gather(*[attach() for _ in range(8)])
                statuses = sorted(r[0] for r in results)
                assert statuses == [201] * 3 + [429] * 5
                for status, _h, body in results:
                    if status == 429:
                        assert body["code"] == "control/quota-exceeded"

                ids = [r[2]["id"] for r in results if r[0] == 201]
                deletes = await asyncio.gather(*[
                    http_request(
                        "127.0.0.1", server.port, "DELETE",
                        f"/v1/attachments/{i}", token=tokens["bronze"],
                    )
                    for i in ids
                ])
                assert [d[0] for d in deletes] == [204] * 3

                _s, _h, body = await http_request(
                    "127.0.0.1", server.port, "GET", "/v1/tenants",
                    token=testbed.admin_token,
                )
                bronze = [
                    t for t in body["tenants"] if t["name"] == "bronze"
                ][0]
                assert bronze["attachments"] == 0 and bronze["bytes"] == 0

        asyncio.run(scenario())

    def test_interleaved_attach_detach_cycles_converge(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(workers=4)
            async with server:
                async def cycle():
                    status, _h, body = await http_request(
                        "127.0.0.1", server.port, "POST", "/v1/attachments",
                        body={"compute_host": "node0", "size": MIB},
                        token=tokens["bronze"],
                    )
                    if status != 201:
                        assert status == 429
                        return status
                    dstatus, _h, _b = await http_request(
                        "127.0.0.1", server.port, "DELETE",
                        f"/v1/attachments/{body['id']}",
                        token=tokens["bronze"],
                    )
                    assert dstatus == 204
                    return status

                statuses = await asyncio.gather(*[cycle() for _ in range(20)])
                assert set(statuses) <= {201, 429}
                assert statuses.count(201) >= 3

                _s, _h, body = await http_request(
                    "127.0.0.1", server.port, "GET", "/v1/attachments",
                    token=testbed.admin_token,
                )
                assert body["attachments"] == []
                usage = testbed.plane.quotas.usage("bronze")
                assert usage["attachments"] == 0 and usage["bytes"] == 0

        asyncio.run(scenario())


class TestShedAndDrain:
    def test_queue_overflow_sheds_503_and_counts_it(self):
        """A deliberately slow handler + tiny queue: overflow requests
        get immediate 503s (code server/overloaded) and show up in both
        queue counters and the server.shed metric."""

        async def scenario():
            testbed, server, tokens, registry = make_server(
                workers=1, max_queue_depth=3
            )
            inner = server.api.handle

            def slow_handle(*args, **kwargs):
                import time
                time.sleep(0.02)  # hold the loop so the queue fills
                return inner(*args, **kwargs)

            server.api.handle = slow_handle
            async with server:
                results = await asyncio.gather(*[
                    http_request(
                        "127.0.0.1", server.port, "GET", "/v1/state",
                        token=tokens["bronze"],
                    )
                    for _ in range(12)
                ])
            statuses = [r[0] for r in results]
            shed = [r for r in results if r[0] == 503]
            assert shed, f"expected sheds, got {statuses}"
            for _s, _h, body in shed:
                assert body["code"] == "server/overloaded"
            assert server.queue.shed_count == len(shed)
            registry.collect()
            snapshot = registry.snapshot()
            metric_shed = sum(
                v for k, v in snapshot.items()
                if k.startswith("server.shed")
            )
            assert metric_shed == len(shed)

        asyncio.run(scenario())

    def test_draining_server_rejects_new_work_on_live_connections(self):
        async def scenario():
            testbed, server, tokens, _ = make_server(workers=1)
            async with server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                server._draining = True
                writer.write(
                    b"GET /v1/state HTTP/1.1\r\n"
                    b"Authorization: Bearer %s\r\n\r\n"
                    % testbed.admin_token.encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"503" in raw.split(b"\r\n", 1)[0]
                assert b"server/draining" in raw
                server._draining = False  # let __aexit__ drain cleanly

        asyncio.run(scenario())

    def test_graceful_drain_finishes_admitted_work(self):
        """Work already in the queue completes during drain; afterwards
        the socket refuses new connections."""

        async def scenario():
            testbed, server, tokens, _ = make_server(workers=1)
            await server.start()
            port = server.port
            task = asyncio.ensure_future(http_request(
                "127.0.0.1", port, "POST", "/v1/attachments",
                body={"compute_host": "node0", "size": MIB},
                token=tokens["gold"],
            ))
            await asyncio.sleep(0.05)  # let it connect and enqueue
            await server.drain()
            status, _h, body = await task
            assert status == 201 and body["qos"] == "guaranteed"
            with pytest.raises(OSError):
                await http_request(
                    "127.0.0.1", port, "GET", "/v1/state",
                    token=testbed.admin_token, timeout_s=1,
                )

        asyncio.run(scenario())

    def test_best_effort_headroom_denial_is_a_503(self):
        """With a best-effort reserve set, a best-effort attach that
        would dip into it is refused with control/no-headroom."""

        async def scenario():
            testbed, server, tokens, _ = make_server(workers=1)
            testbed.plane.best_effort_reserve = 1.0  # reserve everything
            async with server:
                status, _h, body = await http_request(
                    "127.0.0.1", server.port, "POST", "/v1/attachments",
                    body={"compute_host": "node0", "size": MIB},
                    token=tokens["bronze"],
                )
                assert (status, body["code"]) == (503, "control/no-headroom")
                # guaranteed tenants are exempt from the reserve
                status, _h, body = await http_request(
                    "127.0.0.1", server.port, "POST", "/v1/attachments",
                    body={"compute_host": "node0", "size": MIB},
                    token=tokens["gold"],
                )
                assert status == 201

        asyncio.run(scenario())
