"""Minimal HTTP client for the optional text-rewriting backend.

POST a JSON object {"system", "user", "temperature": 0.0} and get back
{"text": "..."}. Transport failures, a reply that is not valid HTTP among
them, are retried with exponential backoff and then surface as NetworkError;
a well-delivered reply whose body is malformed is a DataforgeError and is not
retried. The rewriter callable stops calling a dead service: see
``as_rewriter``.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.request

from .augment import SYSTEM_TEXT, Rewriter
from .errors import DataforgeError, NetworkError

# Consecutive NetworkErrors after which a rewriter stops calling the service.
BREAKER_FAILURES = 3


class RemoteTextClient:
    def __init__(self, url: str, *, timeout: float = 10.0, retries: int = 2,
                 backoff: float = 0.25, sleep=time.sleep) -> None:
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep

    def complete(self, system: str, user: str) -> str:
        payload = json.dumps(
            {"system": system, "user": user, "temperature": 0.0},
            ensure_ascii=False).encode("utf-8")
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.url, data=payload,
                headers={"Content-Type": "application/json"}, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    body = resp.read()
            # OSError covers URLError and TimeoutError; HTTPException a bad
            # status line or a body cut short.
            except (OSError, http.client.HTTPException) as exc:
                last = exc
                if attempt < self.retries:
                    self._sleep(self.backoff * (2 ** attempt))
                continue
            return _extract_text(body)
        raise NetworkError(f"POST {self.url} failed after "
                           f"{self.retries + 1} attempts: {last}")

    def as_rewriter(self) -> Rewriter:
        """A rewriter that posts ``SYSTEM_TEXT`` and each user text through
        ``complete``.

        After ``BREAKER_FAILURES`` calls in a row end in NetworkError, every
        later call raises NetworkError at once, without a POST or a backoff
        sleep, so a dead service costs a bounded time per run. A success
        resets the count.
        """
        failures = 0

        def call(user_text: str) -> str:
            nonlocal failures
            if failures >= BREAKER_FAILURES:
                raise NetworkError(f"POST {self.url} skipped after {failures} "
                                   "failed calls in a row")
            try:
                text = self.complete(SYSTEM_TEXT, user_text)
            except NetworkError:
                failures += 1
                raise
            failures = 0
            return text
        return call


def _extract_text(body: bytes) -> str:
    try:
        data = json.loads(body.decode("utf-8"))
    # bad UTF-8, bad JSON, an integer over 4300 digits, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise DataforgeError(f"reply is not JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("text"), str):
        raise DataforgeError(
            "reply must be a JSON object with a string 'text' field")
    return data["text"]
