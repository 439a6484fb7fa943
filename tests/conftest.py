"""Shared fixtures."""
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class FakeServer:
    """A loopback completion server and what it has seen.

    The first ``fail_times`` requests get an empty ``fail_status`` reply;
    the rest get ``respond(body)`` when it is set, else ``completions`` (cut
    to the requested n), else n copies of a completion whose answer is 4.
    ``connections`` counts accepted TCP connections, and ``closed`` is set
    each time the server closes one. With ``close_idle`` an HTTP/1.1 server
    closes each connection after its reply without announcing it.
    """

    def __init__(self):
        self.url = None
        self.requests_seen = []
        self.headers_seen = []
        self.fail_times = 0
        self.fail_status = 500
        self.completions = None
        self.respond = None
        self.connections = 0
        self.close_idle = False
        self.closed = threading.Event()


def _serve(protocol):
    state = FakeServer()
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol

        def setup(self):
            super().setup()
            with lock:
                state.connections += 1

        def _reply(self, status, payload=b""):
            # Head and body in one write. An HTTP/1.0 reply has no length
            # and ends when the server closes the connection.
            head = f"{protocol} {status} {self.responses[status][0]}\r\n"
            if protocol == "HTTP/1.1":
                head += f"Content-Length: {len(payload)}\r\n"
            head += "Content-Type: application/json\r\n\r\n"
            self.wfile.write(head.encode() + payload)
            if state.close_idle:
                self.close_connection = True

        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            with lock:
                state.requests_seen.append(body)
                state.headers_seen.append(dict(self.headers))
                failing = state.fail_times > 0
                if failing:
                    state.fail_times -= 1
            if failing:
                self._reply(state.fail_status)
                return
            n = body["n"]
            if state.respond is not None:
                out = state.respond(body)
            elif state.completions is not None:
                out = state.completions[:n]
            else:
                out = ["step one step two the answer is 4" for _ in range(n)]
            self._reply(200, json.dumps({"completions": out}).encode())

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        def shutdown_request(self, request):
            super().shutdown_request(request)
            state.closed.set()

    server = Server(("127.0.0.1", 0), Handler)
    # A short poll, so that shutdown() at teardown waits 0.05 s, not 0.5 s.
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/complete"
    yield state
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def fake_server():
    """An HTTP/1.0 server: every reply closes its connection."""
    yield from _serve("HTTP/1.0")


@pytest.fixture
def fake_server_11():
    """An HTTP/1.1 server that keeps connections alive."""
    yield from _serve("HTTP/1.1")
