"""Tests for the asyncio JSON protocol server.

pytest-asyncio is deliberately not a dependency: each test is a sync
function running one event loop via ``asyncio.run``, which also mirrors how
the CLI drives the server.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import Raqlet
from repro.engines.result import QueryResult
from repro.serving import RaqletServer, ServingPool

from tests.serving.test_pool import CITY_QUERY, FACTS, REACH_QUERY, SCHEMA


@pytest.fixture
def pool():
    pool = ServingPool(Raqlet(SCHEMA), FACTS, workers=2)
    pool.prepare("city", CITY_QUERY)
    yield pool
    pool.close()


class _Client:
    """Newline-delimited JSON over an asyncio stream pair."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer

    async def request(self, payload):
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    async def send_raw(self, data: bytes):
        self._writer.write(data)
        await self._writer.drain()
        return json.loads(await self._reader.readline())

    def close(self):
        self._writer.close()


async def _connect(server):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    return _Client(reader, writer)


def _with_server(pool, scenario):
    """Start a server on a free port, run ``scenario(client)``, tear down."""

    async def main():
        server = RaqletServer(pool)
        await server.start()
        client = await _connect(server)
        try:
            return await scenario(server, client)
        finally:
            client.close()
            await server.stop()

    return asyncio.run(main())


def test_ping_run_and_stats(pool):
    async def scenario(server, client):
        pong = await client.request({"op": "ping"})
        assert pong["ok"] and pong["pong"]

        reply = await client.request(
            {"op": "run", "name": "city", "params": {"personId": 42}}
        )
        assert reply["ok"]
        result = QueryResult.from_jsonable(reply)
        assert result.row_set() == {("Ada", 1)}
        assert reply["epoch"] == pool.epoch
        assert "worker" in reply

        stats = await client.request({"op": "stats"})
        assert stats["ok"]
        assert stats["stats"]["executed_count"] == 1

    _with_server(pool, scenario)


def test_prepare_over_the_wire(pool):
    async def scenario(server, client):
        reply = await client.request(
            {"op": "prepare", "name": "reach", "query": REACH_QUERY}
        )
        assert reply["ok"]
        assert reply["params"] == ["personId"]
        reply = await client.request(
            {"op": "run", "name": "reach", "params": {"personId": 42}}
        )
        assert QueryResult.from_jsonable(reply).row_set() == {(43,), (44,), (45,)}

    _with_server(pool, scenario)


def test_mutate_changes_later_answers(pool):
    async def scenario(server, client):
        await client.request(
            {"op": "prepare", "name": "reach", "query": REACH_QUERY}
        )
        before = await client.request(
            {"op": "run", "name": "reach", "params": {"personId": 44}}
        )
        assert QueryResult.from_jsonable(before).row_set() == {(45,)}
        mutated = await client.request(
            {"op": "mutate", "insert": {"Person_KNOWS_Person": [[45, 42, 9]]}}
        )
        assert mutated["ok"] and mutated["inserted"] == 1
        assert mutated["epoch"] == before["epoch"] + 1
        after = await client.request(
            {"op": "run", "name": "reach", "params": {"personId": 44}}
        )
        assert QueryResult.from_jsonable(after).row_set() == {
            (45,), (42,), (43,), (44,),
        }

    _with_server(pool, scenario)


def test_error_responses_keep_the_connection_alive(pool):
    async def scenario(server, client):
        bad = await client.send_raw(b"{not json\n")
        assert not bad["ok"] and bad["code"] == "bad-request"
        bad = await client.request({"op": "warp"})
        assert not bad["ok"] and bad["code"] == "bad-request"
        bad = await client.request({"op": "run", "name": "nope"})
        assert not bad["ok"] and bad["code"] == "error"
        assert "unknown prepared statement" in bad["error"]
        bad = await client.request({"op": "run", "name": "city", "params": []})
        assert not bad["ok"] and bad["code"] == "bad-request"
        # the connection survived four bad requests
        good = await client.request(
            {"op": "run", "name": "city", "params": {"personId": 43}}
        )
        assert good["ok"]

    _with_server(pool, scenario)


def test_concurrent_connections(pool):
    async def scenario(server, client):
        clients = [await _connect(server) for _ in range(4)]
        try:
            replies = await asyncio.gather(
                *(
                    c.request({"op": "run", "name": "city", "params": {"personId": pid}})
                    for c, pid in zip(clients, (42, 43, 44, 45))
                )
            )
            rows = [QueryResult.from_jsonable(reply).row_set() for reply in replies]
            assert rows == [
                {("Ada", 1)}, {("Alan", 2)}, {("Edgar", 1)}, {("Grace", 2)},
            ]
        finally:
            for c in clients:
                c.close()

    _with_server(pool, scenario)


def test_shutdown_request_stops_the_server(pool):
    async def main():
        server = RaqletServer(pool)
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        client = await _connect(server)
        reply = await client.request({"op": "shutdown"})
        assert reply["ok"] and reply["stopping"]
        client.close()
        await asyncio.wait_for(serve_task, timeout=30)
        # the listening socket is gone
        host, port = server.address
        with pytest.raises(OSError):
            await asyncio.open_connection(host, port)

    asyncio.run(main())


# -- subscriptions over the wire ---------------------------------------------


def test_subscribe_mutate_notify_unsubscribe(pool):
    """The full standing-query round trip: subscribe, mutate from another
    connection, receive the pushed notification frame, unsubscribe."""

    async def scenario(server, client):
        await client.request(
            {"op": "prepare", "name": "reach", "query": REACH_QUERY}
        )
        reply = await client.request(
            {"op": "subscribe", "name": "reach", "params": {"personId": 44}}
        )
        assert reply["ok"]
        sid = reply["sid"]
        assert reply["name"] == "reach"

        writer = await _connect(server)
        try:
            mutated = await writer.request(
                {"op": "mutate", "insert": {"Person_KNOWS_Person": [[45, 42, 9]]}}
            )
            assert mutated["ok"]
            # the subscriber's next line is the pushed frame, no request sent
            frame = json.loads(
                await asyncio.wait_for(client._reader.readline(), timeout=10)
            )
            assert frame["event"] == "notification"
            assert frame["sid"] == sid and frame["name"] == "reach"
            assert frame["epoch"] == mutated["epoch"]
            assert {tuple(row) for row in frame["added"]} == {(42,), (43,), (44,)}
            assert frame["removed"] == []
        finally:
            writer.close()

        gone = await client.request({"op": "unsubscribe", "sid": sid})
        assert gone["ok"] and gone["removed"]
        again = await client.request({"op": "unsubscribe", "sid": sid})
        assert again["ok"] and not again["removed"]
        assert pool.stats()["subscription_count"] == 0

    _with_server(pool, scenario)


def test_subscribe_mutate_notify_over_sqlite_base():
    """The same round trip with the shared EDB on SQLite, whose base reads
    the shared store serialises through one mutex."""
    pool = ServingPool(Raqlet(SCHEMA), FACTS, workers=2, store="sqlite")
    try:
        test_subscribe_mutate_notify_unsubscribe(pool)
    finally:
        pool.close()


def test_subscribe_validation_errors(pool):
    async def scenario(server, client):
        bad = await client.request({"op": "subscribe"})
        assert not bad["ok"] and bad["code"] == "bad-request"
        bad = await client.request({"op": "subscribe", "name": "missing"})
        assert not bad["ok"]
        bad = await client.request({"op": "unsubscribe"})
        assert not bad["ok"] and bad["code"] == "bad-request"

    _with_server(pool, scenario)


def test_connection_close_tears_down_subscriptions(pool):
    """A dropped connection must not leave dangling standing queries."""

    async def scenario(server, client):
        await client.request(
            {"op": "prepare", "name": "reach", "query": REACH_QUERY}
        )
        subscriber = await _connect(server)
        reply = await subscriber.request(
            {"op": "subscribe", "name": "reach", "params": {"personId": 44}}
        )
        assert reply["ok"]
        assert pool.stats()["subscription_count"] == 1
        subscriber.close()
        for _ in range(200):
            if pool.stats()["subscription_count"] == 0:
                break
            await asyncio.sleep(0.02)
        assert pool.stats()["subscription_count"] == 0
        # later mutations push nothing anywhere and break nothing
        mutated = await client.request(
            {"op": "mutate", "insert": {"Person_KNOWS_Person": [[45, 42, 9]]}}
        )
        assert mutated["ok"]

    _with_server(pool, scenario)
