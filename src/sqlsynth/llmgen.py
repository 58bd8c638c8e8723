"""Few-shot prompt construction, pluggable completion backends, SQL extraction.

Prompts follow a fixed template: the created-tables header with one CREATE
statement per table, the request line asking for a query over all the
tables, an optional clause-bias constraint sentence, and, for few-shot
settings, an enumerated list of seed example statements. Every prompt is a
pure function of its inputs, so a persisted (subschema, setting, example)
tuple reconstructs it byte for byte.

Two backends answer a prompt with completions: :class:`StubBackend` replays
canned files and :class:`HttpBackend` POSTs to a completion endpoint over
the standard library's ``http.client``, reusing keep-alive connections.
Both read their payload through :func:`parse_completions`, so a malformed
one is a non-retryable :class:`~sqlsynth.errors.BackendError` either way.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import select
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .errors import ArityError, BackendError
from .schema import SchemaCatalog, render_create_statements
from .subschema import Subschema
from .util import fields_of, stable_hash_hex

if TYPE_CHECKING:  # only for annotations; avoids an import cycle
    from .mechgen import SeedExample

BIAS_NONE = "none"
BIAS_ORDER_BY = "order_by"
BIAS_GROUP_BY = "group_by"

#: Constraint sentences inserted before the examples for biased settings.
#: The group-by sentence is fixed wording; the order-by one is this
#: toolkit's symmetric counterpart.
BIAS_SENTENCES = {
    BIAS_GROUP_BY: (
        "Whenever possible, please use a group by clause. "
        "Use operators for more complex groups."
    ),
    BIAS_ORDER_BY: "Whenever possible, please use an order by clause.",
}

PROMPT_HEADER = "These tables have been created:"
PROMPT_REQUEST = "Write an interesting and complicated SQL query that uses all of these tables:"
PROMPT_EXAMPLES_HEADER = "These are some examples:"


@dataclass(frozen=True)
class PromptSetting:
    shots: int = 0
    bias: str = BIAS_NONE

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.bias not in (BIAS_NONE, BIAS_ORDER_BY, BIAS_GROUP_BY):
            raise ValueError(f"unknown bias {self.bias!r}")

    @property
    def label(self) -> str:
        return f"{self.shots}-shot:{self.bias}"

    @staticmethod
    def parse(label: str) -> "PromptSetting":
        """Parse "3-shot:group_by" or "3:group_by" style labels."""
        m = re.fullmatch(r"(\d+)(?:-shot)?:(\w+)", label.strip())
        if not m:
            raise ValueError(f"cannot parse prompt setting {label!r}")
        return PromptSetting(shots=int(m.group(1)), bias=m.group(2))


#: The six canonical settings: {0, 3} shots x {none, order_by, group_by}.
CANONICAL_SETTINGS = tuple(
    PromptSetting(shots=shots, bias=bias)
    for shots in (0, 3)
    for bias in (BIAS_NONE, BIAS_ORDER_BY, BIAS_GROUP_BY)
)


@dataclass
class GenParams:
    temperature: float = 0.8
    top_p: float = 0.95
    repetition_penalty: float = 1.05
    n_completions: int = 5
    max_tokens: int = 512

    def validate(self):
        # NaN fails no comparison, and neither NaN nor infinity is JSON
        for name in ("temperature", "top_p", "repetition_penalty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.repetition_penalty < 1:
            raise ValueError("repetition_penalty must be >= 1")
        if self.n_completions < 1:
            raise ValueError("n_completions must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


def prompt_hash(prompt: str) -> str:
    return stable_hash_hex(prompt, length=16)


def build_prompt(
    subschema: Subschema,
    catalog: SchemaCatalog,
    setting: PromptSetting,
    examples: "list[SeedExample]",
    column_filter: dict | None = None,
) -> str:
    """Render the generation prompt; pure and byte-deterministic.

    ``column_filter`` narrows the CREATE statements to a targeted column
    subset (coverage-gap steering).
    """
    if len(examples) != setting.shots:
        raise ArityError(f"setting wants {setting.shots} examples, got {len(examples)}")
    parts = [PROMPT_HEADER, ""]
    for statement in render_create_statements(
        catalog, table_filter=set(subschema.tables), column_filter=column_filter
    ):
        parts += [statement, ""]
    parts += [PROMPT_REQUEST, ", ".join(subschema.tables)]
    if setting.bias != BIAS_NONE:
        parts += ["", BIAS_SENTENCES[setting.bias]]
    if examples:
        parts += ["", PROMPT_EXAMPLES_HEADER]
        parts += [f"{index}. {example.sql}" for index, example in enumerate(examples, start=1)]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def parse_completions(payload: bytes | str, source: str) -> list[str]:
    """The completions of a backend payload: a JSON object whose
    ``completions`` is a list. Anything else is a non-retryable
    BackendError naming ``source``."""
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise BackendError(f"{source}: malformed completion payload: {exc}") from exc
    completions = data.get("completions") if isinstance(data, dict) else None
    if not isinstance(completions, list):
        raise BackendError(
            f"{source}: malformed completion payload: expected an object with a list 'completions'"
        )
    return [str(c) for c in completions]


class StubBackend:
    """Deterministic test backend replaying canned completions.

    Reads ``<prompt-hash>.json`` files ({"completions": [...]}) from a
    directory; a missing or malformed file is a (non-retryable) backend
    error.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def complete(self, prompt: str, params: GenParams) -> list[str]:
        path = self.directory / f"{prompt_hash(prompt)}.json"
        if not path.exists():
            raise BackendError(f"no canned completions for prompt hash {prompt_hash(prompt)}")
        return parse_completions(path.read_bytes(), path.name)[: params.n_completions]

    def close(self) -> None:
        """Nothing to release."""

    @staticmethod
    def store(directory: str | Path, prompt: str, completions: list[str]) -> Path:
        """Write a canned-completion file for ``prompt``; returns its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{prompt_hash(prompt)}.json"
        path.write_text(
            json.dumps({"completions": completions}, indent=2) + "\n", encoding="utf-8"
        )
        return path


def split_url(url: str) -> tuple[str, str, int | None, str]:
    """``url`` as (scheme, host, port, request target); a ValueError unless
    it is an http or https URL with a host."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"{url!r}: scheme must be http or https")
    if not parts.hostname:
        raise ValueError(f"{url!r}: no host")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    return parts.scheme, parts.hostname, parts.port, target


class HttpBackend:
    """Minimal JSON-over-HTTP completion backend on ``http.client``.

    POSTs ``{"model": ..., "prompt": ..., "params": {...}}`` with optional
    bearer-token auth (token read from an environment variable) and expects
    ``{"completions": ["...", ...]}`` back. Network failures and 5xx
    responses raise retryable backend errors; other non-200 statuses and
    malformed payloads raise non-retryable ones. The caller owns retry
    policy.

    Safe to share between threads. Keep-alive connections are reused across
    calls: a call takes an idle one from a stack, or opens one, and puts it
    back once its response is read in full. So the stack never holds more
    connections than there were calls in flight at once. An idle connection
    whose socket has turned readable was closed by the peer (say, by its
    idle timeout) and is dropped rather than reused. https verifies the
    server against the system CA store (``ssl`` defaults); proxy
    environment variables are not consulted.
    """

    def __init__(
        self,
        url: str,
        model: str,
        auth_env: str = "SQLSYNTH_API_TOKEN",
        timeout: float = 60.0,
    ):
        self.url = url
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        scheme, self._host, self._port, self._target = split_url(url)
        self._connection_class = (
            http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        )
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str, params: GenParams) -> list[str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = json.dumps({"model": self.model, "prompt": prompt, "params": fields_of(params)})
        connection = self._connection()
        try:
            connection.request("POST", self._target, body=body.encode("utf-8"), headers=headers)
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise BackendError(f"backend unreachable: {exc}", retryable=True) from exc
        if not response.will_close:
            with self._lock:
                self._idle.append(connection)
        if response.status >= 500:
            raise BackendError(f"backend error {response.status}", retryable=True)
        if response.status != 200:
            raise BackendError(f"backend rejected request: {response.status}")
        return parse_completions(payload, "backend response")

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the peer has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _readable(connection.sock):
                return connection
            connection.close()
        return self._connection_class(self._host, self._port, timeout=self.timeout)


def _readable(sock) -> bool:
    """Whether ``sock`` has bytes or an end of stream waiting. On an idle
    keep-alive connection either means it cannot carry another request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def generate_llm(prompt: str, backend, params: GenParams) -> list[str]:
    """Request completions; returns at most ``params.n_completions`` strings."""
    params.validate()
    completions = backend.complete(prompt, params)
    return list(completions)[: params.n_completions]


# ---------------------------------------------------------------------------
# SQL extraction from completions
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[ \t]*(?:\w+)?[ \t]*\n?(.*?)```", re.DOTALL)
_SQL_START_RE = re.compile(r"\b(select|with)\b", re.IGNORECASE)
# A WITH only counts as a SQL start when it opens a CTE ("WITH name AS ("),
# so prose like "help with that" is not mistaken for a query.
_CTE_HEAD_RE = re.compile(
    r"with\s+(recursive\s+)?[A-Za-z_\"`][\w\"`]*\s*(\([^)]*\))?\s+as\s*\(",
    re.IGNORECASE,
)


def _find_sql_start(text: str) -> int | None:
    for m in _SQL_START_RE.finditer(text):
        if m.group(1).lower() == "select":
            return m.start()
        if _CTE_HEAD_RE.match(text, m.start()):
            return m.start()
    return None


def extract_sql(completion: str) -> list[str]:
    """Pull candidate SQL out of a raw completion.

    Fenced code blocks win when present (one candidate per block that
    contains SQL); otherwise the longest substring starting at the first
    SELECT (or CTE-opening WITH) token and ending at a statement terminator
    or end of text. Returns a possibly-empty list; every element contains a
    SELECT or WITH token by construction.
    """
    fences = _FENCE_RE.findall(completion)
    if fences:
        candidates = []
        for block in fences:
            start = _find_sql_start(block)
            if start is not None:
                candidates.append(block[start:].strip())
        return candidates
    start = _find_sql_start(completion)
    if start is None:
        return []
    tail = completion[start:]
    terminator = tail.find(";")
    if terminator != -1:
        tail = tail[: terminator + 1]
    return [tail.strip()]
