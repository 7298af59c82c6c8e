import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dataforge.augment import build_rewriter_request, parse_rewriter_response
from dataforge.core import QAPair
from dataforge.errors import NetworkError, ResponseFormatError
from dataforge.remote import RemoteTextClient


class _StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, body) responses."""

    script = []
    requests_seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        status, body = self.script.pop(0) if self.script else (200, b"{}")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        thread.join()


def _reply(text):
    return (200, json.dumps({"text": text}).encode("utf-8"))


def test_complete_happy_path(stub_server):
    _server, url = stub_server
    _StubHandler.script = [_reply("hello back")]
    client = RemoteTextClient(url, temperature=0.3, sleep=lambda s: None)
    assert client.complete("sys", "usr") == "hello back"
    sent = _StubHandler.requests_seen[0]
    assert sent == {"system": "sys", "user": "usr", "temperature": 0.3}


def test_retries_then_succeeds(stub_server):
    _server, url = stub_server
    _StubHandler.script = [(500, b"boom"), (502, b"boom"), _reply("third time")]
    slept = []
    client = RemoteTextClient(url, retries=2, backoff=0.01,
                              sleep=slept.append)
    assert client.complete("s", "u") == "third time"
    assert len(_StubHandler.requests_seen) == 3
    assert slept == [0.01, 0.02]  # exponential backoff


def test_exhausted_retries_raise_network_error(stub_server):
    _server, url = stub_server
    _StubHandler.script = [(500, b"x")] * 3
    client = RemoteTextClient(url, retries=2, sleep=lambda s: None)
    with pytest.raises(NetworkError):
        client.complete("s", "u")
    assert len(_StubHandler.requests_seen) == 3


def test_unreachable_host_raises_network_error():
    client = RemoteTextClient("http://127.0.0.1:9/", retries=1, timeout=0.2,
                              sleep=lambda s: None)
    with pytest.raises(NetworkError):
        client.complete("s", "u")


def test_malformed_reply_is_format_error_not_retried(stub_server):
    _server, url = stub_server
    _StubHandler.script = [(200, b"this is not json")]
    client = RemoteTextClient(url, retries=3, sleep=lambda s: None)
    with pytest.raises(ResponseFormatError):
        client.complete("s", "u")
    assert len(_StubHandler.requests_seen) == 1  # no retry on 200 + bad body


def test_missing_text_field_is_format_error(stub_server):
    _server, url = stub_server
    _StubHandler.script = [(200, b'{"result": "hi"}')]
    client = RemoteTextClient(url, sleep=lambda s: None)
    with pytest.raises(ResponseFormatError):
        client.complete("s", "u")


def test_as_rewriter_round_trip(stub_server):
    _server, url = stub_server
    _StubHandler.script = [_reply(
        "Question: What is visible ahead? Answer: A parked truck.")]
    rewriter = RemoteTextClient(url, sleep=lambda s: None).as_rewriter()
    request = build_rewriter_request(
        QAPair(question="What do you see?", answer="A truck."))
    qa = parse_rewriter_response(rewriter(request))
    assert (qa.question, qa.answer) == ("What is visible ahead?",
                                        "A parked truck.")
    sent = _StubHandler.requests_seen[0]
    assert sent["system"] == "You are an English improver."
    assert "What do you see?" in sent["user"]
