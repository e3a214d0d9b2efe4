"""Stdlib client for the campaign daemon's HTTP protocol.

Drives every endpoint the daemon serves; the ``repro submit`` /
``repro campaigns`` CLI subcommands and the tests are its only users.
The client resolves the daemon either from an explicit ``host:port`` or
from the ``endpoint.json`` the daemon writes into its state directory
(the natural handshake when the daemon was started with ``--port 0``).

It speaks the daemon's HTTP/1.1 over a plain socket, one request per
connection, as the daemon serves it (``Connection: close``), so a
``repro submit`` process loads neither ``http.client`` nor the email
and ssl modules behind it.  Every transport failure -- a refused
connection, a timeout, a reply cut short, a reply that is not HTTP --
raises :class:`ServiceError` with ``status == 0``.

Backpressure is a first-class outcome, not an exception to hide: a 429
raises :class:`ServiceError` with ``status == 429`` and the daemon's
``Retry-After`` seconds in :attr:`ServiceError.retry_after`, so callers
can implement honest client-side backoff (``submit`` does).
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Dict, List, Optional, Tuple


#: Longest the daemon holds one ``GET /campaigns/<id>?wait=S`` before it
#: answers.  It stays below the socket timeout of every client in this
#: repository (perfbench builds its client with 5 s), so a held request
#: never reads as an unreachable daemon.
MAX_WAIT_S = 3.0


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the daemon."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def read_endpoint(state_dir: str) -> Dict[str, Any]:
    """Load ``endpoint.json`` from a daemon state directory."""
    path = os.path.join(state_dir, "endpoint.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise ServiceError(
            f"no daemon endpoint at {path} (is the daemon running?): {exc}"
        )


#: Longest status or header line the client reads.
_MAX_LINE = 65536


class ServiceClient:
    """One daemon connection (a fresh HTTP connection per request)."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    @staticmethod
    def from_state_dir(
        state_dir: str, timeout: float = 30.0
    ) -> "ServiceClient":
        endpoint = read_endpoint(state_dir)
        return ServiceClient(
            endpoint.get("host", "127.0.0.1"),
            int(endpoint["port"]),
            timeout=timeout,
        )

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Any:
        body = b""
        head = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            head.append("Content-Type: application/json")
        head += [f"Content-Length: {len(body)}", "Connection: close"]
        request = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        try:
            status, headers, data = self._exchange(request)
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"cannot reach daemon at {self.host}:{self.port}: {exc}"
            )
        decoded: Any = None
        if data:
            try:
                decoded = json.loads(data.decode("utf-8"))
            except ValueError:
                decoded = data.decode("utf-8", "replace")
        if status >= 400:
            retry_after = headers.get("retry-after")
            message = (
                decoded.get("error", str(decoded))
                if isinstance(decoded, dict)
                else str(decoded)
            )
            raise ServiceError(
                f"{method} {path} -> {status}: {message}",
                status=status,
                retry_after=float(retry_after) if retry_after else None,
            )
        return decoded

    def _exchange(self, request: bytes) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request on a fresh connection; return the reply's
        status, headers (lower-case names) and body.  Raises OSError for
        transport failures and ValueError for a reply that is not HTTP
        or ends before its ``Content-Length``."""
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            sock.sendall(request)
            with sock.makefile("rb") as reply:
                line = reply.readline(_MAX_LINE)
                if not line:
                    raise ValueError("no reply")
                version, _, rest = line.decode("latin-1").partition(" ")
                code = rest[:3]
                if not (
                    version.startswith("HTTP/") and len(code) == 3
                    and code.isdigit()
                ):
                    raise ValueError(f"malformed status line {line!r}")
                headers = {}
                while True:
                    line = reply.readline(_MAX_LINE)
                    if not line.endswith(b"\n"):
                        raise ValueError("reply cut short")
                    if not line.strip():
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                if "content-length" not in headers:
                    return int(code), headers, reply.read()
                length = int(headers["content-length"])
                data = reply.read(length)
                if len(data) < length:
                    raise ValueError("reply cut short")
                return int(code), headers, data

    # -- endpoints -----------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, spec: dict) -> dict:
        """Submit a campaign spec; returns ``{"id", "signature", ...}``."""
        return self._request("POST", "/campaigns", payload=spec)

    def submit_with_backoff(
        self, spec: dict, attempts: int = 10, max_wait: float = 60.0
    ) -> dict:
        """Submit, honoring 429 + Retry-After with bounded retries."""
        waited = 0.0
        for attempt in range(attempts):
            try:
                return self.submit(spec)
            except ServiceError as exc:
                if exc.status != 429 or attempt == attempts - 1:
                    raise
                delay = min(
                    exc.retry_after
                    if exc.retry_after is not None
                    else 0.5 * (attempt + 1),
                    max(0.0, max_wait - waited),
                )
                if delay <= 0:
                    raise
                time.sleep(delay)
                waited += delay
        raise ServiceError("submit retries exhausted", status=429)

    def campaigns(self) -> List[dict]:
        return self._request("GET", "/campaigns")["campaigns"]

    def campaign(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def result(self, campaign_id: str) -> dict:
        return self._request("GET", f"/campaigns/{campaign_id}/result")

    def events(self, campaign_id: str) -> List[dict]:
        """The campaign's status-snapshot history as parsed JSONL."""
        raw = self._request("GET", f"/campaigns/{campaign_id}/events")
        if isinstance(raw, (dict, list)):
            return raw if isinstance(raw, list) else [raw]
        return [
            json.loads(line)
            for line in str(raw).splitlines()
            if line.strip()
        ]

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    def wait(
        self,
        campaign_id: str,
        timeout: float = 300.0,
        poll: float = 0.2,
    ) -> dict:
        """Wait until the campaign reaches a terminal state.

        Each request asks the daemon to hold its answer until the
        campaign ends, for at most :data:`MAX_WAIT_S`.  A non-terminal
        answer that comes back sooner (a draining daemon answers at
        once) is asked again no sooner than ``poll`` seconds after the
        previous request went out.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = min(max(deadline - asked, 0.0), MAX_WAIT_S)
            info = self._request(
                "GET", f"/campaigns/{campaign_id}?wait={hold:.3f}"
            )
            if info.get("state") in ("done", "failed"):
                return info
            now = time.monotonic()
            if now > deadline:
                raise ServiceError(
                    f"campaign {campaign_id} still {info.get('state')!r} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(max(0.0, asked + poll - now))
