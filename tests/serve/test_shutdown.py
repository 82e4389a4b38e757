"""Stopping a server while a client is still connected.

A test that raises inside ``with ServerThread(...)`` leaves its client
connected while the server stops.  The connection's handler task must
end before the event loop closes: a task still pending on a closed loop
is destroyed at garbage collection, and its ``finally`` (closing the
writer) then raises ``RuntimeError: Event loop is closed`` from inside
the collector.  A graceful stop closes the connection and lets the
handler read EOF and return; a cancelled handler would be reported to
the loop's exception handler.
"""

import asyncio
import gc
import sys

from repro.serve import ServeClient, ServerConfig, ServerThread


def test_stop_with_connected_client_leaves_nothing_pending():
    unraisable = []
    previous_hook = sys.unraisablehook
    sys.unraisablehook = unraisable.append
    try:
        thread = ServerThread(ServerConfig(workers=1)).start()
        loop = thread._loop
        with ServeClient("127.0.0.1", thread.tcp_port, tenant="t") as client:
            # The handler task now waits for this client's next frame.
            assert client.hello()["protocol"] == 1
            thread.stop()
        assert loop.is_closed()
        assert not asyncio.all_tasks(loop)
        gc.collect()
    finally:
        sys.unraisablehook = previous_hook
    assert [str(u.exc_value) for u in unraisable] == []


def test_stop_ends_connected_handlers_without_cancelling_them():
    thread = ServerThread(ServerConfig(workers=1)).start()
    loop = thread._loop
    reports = []
    loop.set_exception_handler(lambda _, context: reports.append(context))
    clients = [
        ServeClient("127.0.0.1", thread.tcp_port, tenant=f"t{i}")
        for i in range(3)
    ]
    try:
        for client in clients:
            assert client.hello()["protocol"] == 1
        thread.stop()
    finally:
        for client in clients:
            client.close()
    assert loop.is_closed()
    assert [context.get("exception") for context in reports] == []
