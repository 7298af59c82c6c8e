import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from dataforge.augment import build_rewriter_request, parse_rewriter_response
from dataforge.core import QAPair
from dataforge.errors import DataforgeError, NetworkError
from dataforge.remote import BREAKER_FAILURES, RemoteTextClient

from helpers import exactly, raw_reply_server


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
    client = RemoteTextClient(url, sleep=lambda s: None)
    assert client.complete("sys", "usr") == "hello back"
    sent = _StubHandler.requests_seen[0]
    assert sent == {"system": "sys", "user": "usr", "temperature": 0.0}


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
    with pytest.raises(DataforgeError, match=exactly(
            "reply is not JSON: Expecting value: line 1 column 1 (char 0)")):
        client.complete("s", "u")
    assert len(_StubHandler.requests_seen) == 1  # no retry on 200 + bad body


def test_missing_text_field_is_format_error(stub_server):
    _server, url = stub_server
    _StubHandler.script = [(200, b'{"result": "hi"}')]
    client = RemoteTextClient(url, sleep=lambda s: None)
    with pytest.raises(DataforgeError, match=exactly(
            "reply must be a JSON object with a string 'text' field")):
        client.complete("s", "u")


def test_huge_integer_reply_is_format_error(stub_server):
    # json.loads raises a plain ValueError for an integer over 4300 digits
    _server, url = stub_server
    _StubHandler.script = [(200, b'{"text": "hi", "n": ' + b"9" * 5000 + b"}")]
    client = RemoteTextClient(url, retries=3, sleep=lambda s: None)
    with pytest.raises(ValueError) as int_error:
        int("9" * 5000)
    with pytest.raises(DataforgeError,
                       match=exactly(f"reply is not JSON: {int_error.value}")):
        client.complete("s", "u")
    assert len(_StubHandler.requests_seen) == 1


def test_deeply_nested_reply_is_format_error(stub_server):
    # json.loads raises RecursionError for nesting deeper than the recursion limit
    _server, url = stub_server
    _StubHandler.script = [(200, b"[" * 5000 + b"]" * 5000)]
    client = RemoteTextClient(url, retries=3, sleep=lambda s: None)
    with pytest.raises(DataforgeError,
                       match="^reply is not JSON: maximum recursion depth exceeded"):
        client.complete("s", "u")
    assert len(_StubHandler.requests_seen) == 1


@pytest.mark.parametrize("reply, error", [
    (b"HELLO\r\n\r\n", "HELLO\r\n"),  # http.client.BadStatusLine
    (b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"text": ',
     "IncompleteRead(9 bytes read, 91 more expected)"),
], ids=["bad_status_line", "truncated_body"])
def test_reply_that_is_not_http_is_retried_then_network_error(reply, error):
    with raw_reply_server(reply) as (url, bodies):
        client = RemoteTextClient(url, retries=2, sleep=lambda s: None)
        with pytest.raises(NetworkError, match=exactly(
                f"POST {url} failed after 3 attempts: {error}")):
            client.complete("s", "u")
    assert len(bodies) == 3


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


class _ScriptedUrlopen:
    """Stands in for ``urllib.request.urlopen``: each POST pops one outcome,
    True for a reply, False for a refused connection."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = 0

    def __call__(self, request, timeout):
        self.posts += 1
        if not self.outcomes.pop(0):
            raise urllib.error.URLError("connection refused")
        return _Reply()


class _Reply:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return json.dumps({"text": "Question: Q? Answer: A."}).encode("utf-8")


def _request():
    return build_rewriter_request(QAPair(question="Q?", answer="A."))


def test_breaker_stops_posting_after_consecutive_failures(monkeypatch):
    urlopen = _ScriptedUrlopen([False] * 3 * BREAKER_FAILURES)
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    slept = []
    rewriter = RemoteTextClient("http://127.0.0.1:9/", retries=2,
                                sleep=slept.append).as_rewriter()
    for _ in range(BREAKER_FAILURES):
        with pytest.raises(NetworkError):
            rewriter(_request())
    assert (urlopen.posts, len(slept)) == (3 * BREAKER_FAILURES, 2 * BREAKER_FAILURES)
    for _ in range(20):
        with pytest.raises(NetworkError, match="skipped"):
            rewriter(_request())
    assert (urlopen.posts, len(slept)) == (3 * BREAKER_FAILURES, 2 * BREAKER_FAILURES)


def test_breaker_count_resets_on_success(monkeypatch):
    # two failed calls, one success, two failed calls, one success: never
    # three failures in a row, so every call reaches the service
    calls = [False, False, True] * 2
    urlopen = _ScriptedUrlopen(calls)
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    rewriter = RemoteTextClient("http://127.0.0.1:9/", retries=0,
                                sleep=lambda s: None).as_rewriter()
    for ok in calls:
        if ok:
            assert rewriter(_request()) == "Question: Q? Answer: A."
        else:
            with pytest.raises(NetworkError, match="failed after"):
                rewriter(_request())
    assert urlopen.posts == len(calls)


def test_each_rewriter_has_its_own_breaker(monkeypatch):
    urlopen = _ScriptedUrlopen([False] * BREAKER_FAILURES + [True])
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    client = RemoteTextClient("http://127.0.0.1:9/", retries=0,
                              sleep=lambda s: None)
    first = client.as_rewriter()
    for _ in range(BREAKER_FAILURES):
        with pytest.raises(NetworkError):
            first(_request())
    assert client.as_rewriter()(_request()) == "Question: Q? Answer: A."
