"""A small stdlib HTTP client for the compilation service.

:class:`ServiceClient` speaks the JSON protocol of
:class:`repro.service.server.CompileServer` with nothing but
``urllib.request``, so tests, the load generator and user scripts need no
extra dependencies::

    from repro.service.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    client.wait_until_ready()
    body = client.compile(family="lattice", size=12, kind="compile")
    print(body["cache_hit"], body["result"]["ours"]["num_emitters"])
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

__all__ = ["ServiceClient", "ServiceError", "RETRYABLE_STATUSES"]


class ServiceError(RuntimeError):
    """An HTTP error response from the service.

    Attributes
    ----------
    status : int
        HTTP status code (0 when the server was unreachable).
    body : dict
        Parsed JSON error body (may be empty).
    """

    def __init__(self, status: int, message: str, body: dict | None = None):
        super().__init__(f"HTTP {status}: {message}" if status else message)
        self.status = status
        self.body = body or {}


#: HTTP statuses worth one more try: 0 is a connection failure or socket
#: timeout (the server may be mid-restart), 503 is the fleet front end
#: briefly out of healthy workers (or draining — in which case the retry
#: fails the same way and the error propagates).
RETRYABLE_STATUSES = (0, 503)


class ServiceClient:
    """Typed access to the service endpoints.

    Parameters
    ----------
    base_url : str | Sequence[str]
        Server root, e.g. ``"http://127.0.0.1:8765"``.  An HA front-end
        *pair* is given as a sequence (or one comma-separated string) of
        roots; retryable failures rotate to the next address, so callers
        ride out a primary failover transparently (``/compile`` is
        content-hash idempotent — re-POSTing to the promoted standby is
        safe even when the first answer was lost in flight).
    timeout : float, optional
        Per-request socket timeout in seconds (connect *and* read): a hung
        or killed worker fails the request after ``timeout`` instead of
        stalling the caller forever.
    retries : int, optional
        Extra attempts after a retryable failure (connection refused/reset,
        socket timeout, HTTP 503).  ``/compile`` requests are content-hash
        idempotent, so re-POSTing after an ambiguous failure is safe.
    retry_backoff_seconds : float, optional
        Sleep before each retry (gives a crashed worker's supervisor a
        beat to re-route or restart).
    """

    def __init__(
        self,
        base_url,
        timeout: float = 120.0,
        retries: int = 0,
        retry_backoff_seconds: float = 0.25,
    ):
        if isinstance(base_url, str):
            urls = [part for part in base_url.split(",") if part.strip()]
        else:
            urls = list(base_url)
        if not urls:
            raise ValueError("base_url must name at least one server root")
        self.base_urls = [url.strip().rstrip("/") for url in urls]
        self._url_index = 0
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)

    # ------------------------------------------------------------------ #

    @property
    def base_url(self) -> str:
        """The address requests currently go to (rotates on failover)."""
        return self.base_urls[self._url_index]

    def _rotate(self) -> None:
        self._url_index = (self._url_index + 1) % len(self.base_urls)

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
        text: bool = False,
    ) -> dict | str:
        """Issue one request (with retries) and return the parsed JSON body.

        Parameters
        ----------
        method : str
            ``"GET"`` or ``"POST"``.
        path : str
            Endpoint path, e.g. ``"/healthz"``.
        payload : dict | None, optional
            JSON body for POST requests.
        headers : dict | None, optional
            Extra request headers (e.g. ``X-Request-Id``).
        text : bool, optional
            Return the body as text instead of parsing it (``/metrics``).

        Returns
        -------
        dict | str
            The parsed JSON response (the text body with ``text=True``).

        Raises
        ------
        ServiceError
            On any non-2xx response or connection failure, after
            :attr:`retries` extra attempts for retryable failures.  With a
            multi-address front-end list, each retryable failure also
            rotates to the next address.
        """
        # Optional arguments are passed only when set, so tests (and callers)
        # that stub a 3-argument _request_once keep working unchanged.
        options = {}
        if headers:
            options["extra_headers"] = headers
        if text:
            options["text"] = True
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload, **options)
            except ServiceError as exc:
                last_try = attempt == attempts - 1
                if last_try or exc.status not in RETRYABLE_STATUSES:
                    raise
                if len(self.base_urls) > 1:
                    self._rotate()
                time.sleep(self.retry_backoff_seconds)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None,
        extra_headers: dict | None = None,
        text: bool = False,
    ) -> dict | str:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        base_url = self.base_url
        request = urllib.request.Request(
            f"{base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
            return body.decode("utf-8") if text else json.loads(body)
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read())
            except (ValueError, OSError):
                body = {}
            raise ServiceError(
                exc.code, str(body.get("error", exc.reason)), body
            ) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServiceError(0, f"cannot reach {base_url}: {exc}") from exc

    # ------------------------------------------------------------------ #

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /metrics``: the Prometheus text exposition."""
        return self.request("GET", "/metrics", text=True)

    def compile(self, **job) -> dict:
        """``POST /compile`` with a flat job payload.

        Parameters
        ----------
        **job
            Job fields (``family``, ``size``, ``seed``, ``kind``, ...) as
            accepted by :meth:`repro.pipeline.jobs.BatchJob.from_dict`.

        Returns
        -------
        dict
            The outcome body; ``body["result"]`` holds the job record.
        """
        return self.request("POST", "/compile", job)

    def compile_payload(self, payload: dict, headers: dict | None = None) -> dict:
        """``POST /compile`` with an explicit payload dict."""
        return self.request("POST", "/compile", payload, headers=headers)

    def submit_batch(self, jobs: list[dict]) -> str:
        """``POST /batch``; returns the job id to poll."""
        return self.request("POST", "/batch", {"jobs": jobs})["job_id"]

    def status(self, job_id: str) -> dict:
        """``GET /status/<job>``."""
        return self.request("GET", f"/status/{job_id}")

    def wait_for_batch(
        self, job_id: str, timeout: float = 120.0, poll_seconds: float = 0.05
    ) -> dict:
        """Poll ``/status/<job>`` until the batch is done (or errored).

        Raises
        ------
        TimeoutError
            If the batch is still running after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            body = self.status(job_id)
            if body["status"] in ("done", "error"):
                return body
            if time.monotonic() > deadline:
                raise TimeoutError(f"batch {job_id} still {body['status']!r}")
            time.sleep(poll_seconds)

    def wait_until_ready(self, timeout: float = 10.0) -> dict:
        """Poll ``/healthz`` until the server answers (for fresh servers).

        Raises
        ------
        ServiceError
            If the server is still unreachable after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
