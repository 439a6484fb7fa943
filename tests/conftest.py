"""Shared fixtures."""
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class FakeServer:
    """A loopback completion server and what it has seen.

    The first ``fail_times`` requests get an empty ``fail_status`` reply;
    the rest get ``completions`` (cut to the requested n), or n copies of a
    completion whose answer is 4.
    """

    def __init__(self):
        self.url = None
        self.requests_seen = []
        self.fail_times = 0
        self.fail_status = 500
        self.completions = None


@pytest.fixture
def fake_server():
    state = FakeServer()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            state.requests_seen.append(body)
            if state.fail_times > 0:
                state.fail_times -= 1
                self.send_response(state.fail_status)
                self.end_headers()
                return
            n = body["n"]
            if state.completions is not None:
                out = state.completions[:n]
            else:
                out = ["step one step two the answer is 4" for _ in range(n)]
            payload = json.dumps({"completions": out}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state.url = f"http://127.0.0.1:{server.server_address[1]}/complete"
    yield state
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
