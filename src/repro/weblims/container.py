"""The web container: routing, filter chains, sessions, instrumentation.

The :class:`DeploymentDescriptor` plays the role of Tomcat's ``web.xml``:
it declares servlets with their path mappings and filters with their URL
patterns.  "Filter-resource associations are defined in the web
application's deployment description file, making it simple for users to
apply the technology to any additional components they may add" — adding
Exp-WF to an Exp-DB instance is literally two descriptor calls, with no
change to any registered servlet.

URL patterns support three forms, matching the servlet spec subset the
paper needs: exact (``/user``), path prefix (``/user/*`` — also matches
``/user``), and match-all (``/*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError, RoutingError, WebError
from repro.obs.trace import PARENT_SPAN_KEY, TRACE_ID_KEY
from repro.weblims.http import HttpRequest, HttpResponse
from repro.weblims.servlet import Filter, FilterChain, Servlet
from repro.weblims.session import Session, SessionManager


def pattern_matches(pattern: str, path: str) -> bool:
    """Servlet-spec style URL pattern matching (exact / prefix / all)."""
    if pattern == "/*":
        return True
    if pattern.endswith("/*"):
        prefix = pattern[:-2]
        return path == prefix or path.startswith(prefix + "/")
    return path == pattern


def pattern_specificity(pattern: str, path: str) -> int:
    """How specifically ``pattern`` matches ``path`` (higher wins).

    The servlet spec resolves overlapping mappings most-specific-first:
    an exact match beats any prefix match, a longer prefix beats a
    shorter one, ``/*`` beats nothing.  This is what lets an exact
    ``/workflow/metrics`` mapping coexist with ``/workflow/*``.
    """
    if not pattern_matches(pattern, path):
        return -1
    if pattern == "/*":
        return 0
    if pattern.endswith("/*"):
        return 1 + len(pattern) - 2
    return 1 + len(path) + 1  # exact: longer than any prefix can score


@dataclass
class _FilterMapping:
    filter: Filter
    patterns: list[str]


@dataclass
class ContainerStats:
    """Request-level counters for the evaluation harness."""

    requests: int = 0
    filter_invocations: int = 0
    servlet_invocations: int = 0
    internal_forwards: int = 0
    errors: int = 0

    def reset(self) -> None:
        self.requests = 0
        self.filter_invocations = 0
        self.servlet_invocations = 0
        self.internal_forwards = 0
        self.errors = 0


class DeploymentDescriptor:
    """Declarative wiring of servlets and filters (the ``web.xml`` analog)."""

    def __init__(self) -> None:
        self._servlets: dict[str, Servlet] = {}
        self._servlet_mappings: list[tuple[str, str]] = []  # (pattern, name)
        self._filter_mappings: list[_FilterMapping] = []

    def add_servlet(self, servlet: Servlet, *patterns: str) -> None:
        """Register a servlet under one or more URL patterns."""
        if not patterns:
            raise WebError(f"servlet {servlet.name!r} needs at least one pattern")
        if servlet.name in self._servlets:
            raise WebError(f"servlet {servlet.name!r} already declared")
        self._servlets[servlet.name] = servlet
        for pattern in patterns:
            self._servlet_mappings.append((pattern, servlet.name))

    def add_filter(self, filter_: Filter, *patterns: str) -> None:
        """Register a filter for one or more URL patterns.

        Declaration order is invocation order, as in the servlet spec.
        """
        if not patterns:
            raise WebError(f"filter {filter_.name!r} needs at least one pattern")
        self._filter_mappings.append(_FilterMapping(filter_, list(patterns)))

    def servlet_for(self, path: str) -> Servlet:
        """Resolve the servlet mapped to ``path``.

        Most specific pattern wins (exact > longest prefix > ``/*``);
        declaration order breaks ties.
        """
        best: str | None = None
        best_score = -1
        for pattern, name in self._servlet_mappings:
            score = pattern_specificity(pattern, path)
            if score > best_score:
                best, best_score = name, score
        if best is None:
            raise RoutingError(f"no servlet mapped to {path!r}")
        return self._servlets[best]

    def filters_for(self, path: str) -> list[Filter]:
        """Filters applicable to ``path`` in declaration order."""
        return [
            mapping.filter
            for mapping in self._filter_mappings
            if any(pattern_matches(pattern, path) for pattern in mapping.patterns)
        ]

    def servlet_names(self) -> list[str]:
        return list(self._servlets)

    def filter_names(self) -> list[str]:
        return [mapping.filter.name for mapping in self._filter_mappings]


class WebContainer:
    """Executes requests through the filter chain to the mapped servlet."""

    def __init__(self, descriptor: DeploymentDescriptor | None = None) -> None:
        self.descriptor = descriptor or DeploymentDescriptor()
        self.sessions = SessionManager()
        self.stats = ContainerStats()
        #: Application-scoped attribute space (ServletContext analog);
        #: Exp-DB stores shared beans here so servlets and filters find
        #: them without compile-time coupling.
        self.context: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Run one client request through filters and servlet.

        Library errors surface as proper HTTP error responses — a web
        container never lets an application exception escape to the
        transport.

        With an observability hub in the context (``context["obs"]``)
        every request runs under a span — the root of a fresh trace, or
        a child when the caller already holds one open (so several
        requests of one experiment submission share a trace) — and its
        duration feeds the ``http_request_latency_ms`` histogram.
        """
        self.stats.requests += 1
        hub = self.context.get("obs")
        if hub is None:
            return self._handle_guarded(request)
        span = hub.tracer.start_span(
            "http.request", path=request.path, method=request.method
        )
        # Expose the trace context to servlets/filters downstream.
        request.attributes[TRACE_ID_KEY] = span.trace_id
        request.attributes[PARENT_SPAN_KEY] = span.span_id
        try:
            response = self._handle_guarded(request)
        finally:
            hub.tracer.end_span(span)
        span.attributes["status"] = response.status
        hub.registry.histogram(
            "http_request_latency_ms",
            help="Wall-clock request latency per path",
            path=request.path,
        ).observe(
            span.duration_ms or 0.0,
            trace_id=span.trace_id if hub.profiler is not None else None,
        )
        hub.registry.counter(
            "http_requests_total",
            help="Requests per path and status",
            path=request.path,
            status=response.status,
        ).inc()
        if hub.profiler is not None:
            # Fed here rather than in the filter so the slow-trace
            # retainer snapshots a *complete* tree: only once the root
            # span is ended is the whole request archived.
            hub.profiler.observe_request(
                request.param("workflow_action") or request.path,
                span.duration_ms or 0.0,
                trace_id=span.trace_id,
                pattern=request.param("pattern"),
            )
        return response

    def _handle_guarded(self, request: HttpRequest) -> HttpResponse:
        try:
            return self._execute(request)
        except RoutingError as error:
            self.stats.errors += 1
            return HttpResponse.error(404, str(error))
        except WebError as error:
            self.stats.errors += 1
            return HttpResponse.error(400, str(error))
        except ReproError as error:
            # A library error no servlet translated: the container's
            # last line of defence is a 500, never a leaked exception.
            self.stats.errors += 1
            return HttpResponse.error(500, str(error))

    def forward(self, request: HttpRequest, path: str) -> HttpResponse:
        """Internal forward to another resource (RequestDispatcher analog).

        Per the paper, "a filter can also intercept requests and
        responses forwarded within the application", so forwards run the
        filter chain.
        """
        self.stats.internal_forwards += 1
        forwarded = HttpRequest(
            method=request.method,
            path=path,
            params=dict(request.params),
            headers=dict(request.headers),
            session_id=request.session_id,
            attributes=request.attributes,  # shared, as in the servlet API
        )
        forwarded.attributes["forwarded_from"] = request.path
        return self._execute(forwarded)

    def _execute(self, request: HttpRequest) -> HttpResponse:
        servlet = self.descriptor.servlet_for(request.path)
        filters = self.descriptor.filters_for(request.path)

        def terminal(final_request: HttpRequest) -> HttpResponse:
            self.stats.servlet_invocations += 1
            return servlet.service(final_request, self)

        chain = FilterChain(
            filters,
            terminal,
            on_filter_invoked=lambda __: self._count_filter(),
        )
        return chain.proceed(request)

    def _count_filter(self) -> None:
        self.stats.filter_invocations += 1

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session_for(
        self, request: HttpRequest, create: bool = False, user: str | None = None
    ) -> Session | None:
        """Resolve (or lazily create) the session for a request."""
        session = self.sessions.resolve(request.session_id)
        if session is None and create:
            session = self.sessions.create(user=user)
            request.session_id = session.session_id
        return session
