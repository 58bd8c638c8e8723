"""Deterministic stand-in for an LLM completion endpoint.

Speaks the JSON protocol of ``sqlsynth.llmgen.HttpBackend``: a POST of
``{"model", "prompt", "params"}`` is answered with ``{"completions": [...]}``.
Completions are synthesized from the prompt text and the benchmark seed
alone, so a rerun with the same seed gets the same bytes back. They come in
the shapes a real model returns: grouped joins, CTEs, window functions,
EXISTS sub-selects, prose-wrapped and fenced answers, malformed SQL,
hallucinated columns and verbatim echoes of the prompt's seed examples.

The first request for a deterministic tenth of the prompts is answered with
a 503, so the pipeline's retry path runs while no prompt finally fails.
Every response goes out in a single socket write: separate header and body
writes stall each call on loopback by the peer's delayed ACK (about 40 ms).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Share of prompts whose first request is refused with a 503.
FIRST_ATTEMPT_503_SHARE = 0.1

_CREATE_RE = re.compile(r"CREATE TABLE (\w+) \(\n(.*?)\n\);", re.DOTALL)
_FK_RE = re.compile(r"FOREIGN KEY \(([^)]*)\) REFERENCES (\w+) \(([^)]*)\)")
_EXAMPLE_RE = re.compile(r"^\d+\. (.+)$", re.MULTILINE)
_NUMERIC_TYPES = ("int", "decimal", "numeric", "float", "double", "real")
_WORDS = ("almond", "blue", "final", "ironic", "express", "pending", "regular", "bold")
_AGGS = ("SUM", "AVG", "MIN", "MAX")
_PROSE_OPENERS = (
    "Sure! Here is an interesting query over these tables:",
    "Here's a query that combines the tables in a useful way:",
    "The following query should work:",
    "You can use something like this:",
)
_PROSE_CLOSERS = (
    "This aggregates the values per group and ranks the result.",
    "Let me know if you want it extended with more filters.",
    "It joins the tables along their foreign keys.",
)


def _stable_int(*parts) -> int:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Table:
    name: str
    numeric: list = field(default_factory=list)
    text: list = field(default_factory=list)
    dates: list = field(default_factory=list)

    def columns(self) -> list:
        return self.numeric + self.text + self.dates


@dataclass
class _PromptInfo:
    tables: list  # of _Table, in prompt order
    joins: list  # (from_table, from_col, to_table, to_col) per rendered foreign key
    bias: str | None
    examples: list


def parse_prompt(prompt: str) -> _PromptInfo:
    """Read back the tables, foreign keys, bias and examples a prompt shows."""
    tables, joins = [], []
    for name, body in _CREATE_RE.findall(prompt):
        table = _Table(name)
        for line in body.split("\n"):
            line = line.strip().rstrip(",")
            fk = _FK_RE.match(line)
            if fk:
                from_cols = [c.strip() for c in fk.group(1).split(",")]
                to_cols = [c.strip() for c in fk.group(3).split(",")]
                joins.append((name, from_cols[0], fk.group(2), to_cols[0]))
                continue
            if line.startswith("PRIMARY KEY") or not line:
                continue
            column, type_text = line.split()[:2]
            type_text = type_text.lower()
            if type_text.startswith(_NUMERIC_TYPES):
                table.numeric.append(column)
            elif type_text.startswith("date"):
                table.dates.append(column)
            else:
                table.text.append(column)
        tables.append(table)
    bias = None
    if "use a group by clause" in prompt:
        bias = "group_by"
    elif "use an order by clause" in prompt:
        bias = "order_by"
    examples = []
    if "These are some examples:" in prompt:
        examples = _EXAMPLE_RE.findall(prompt.split("These are some examples:", 1)[1])
    return _PromptInfo(tables=tables, joins=joins, bias=bias, examples=examples)


class _Composer:
    """Builds one completion's SQL from a parsed prompt and a seeded RNG."""

    def __init__(self, info: _PromptInfo, rng: random.Random, lit: random.Random):
        self.info = info
        self.rng = rng  # structure: shape, columns, clauses
        self.lit = lit  # literal values and wrapping
        self.by_name = {t.name: t for t in info.tables}

    # -- building blocks ---------------------------------------------------

    def from_clause(self) -> tuple[str, list]:
        """FROM text over all prompt tables, joined along the rendered keys
        where they connect and comma-listed where they do not."""
        tables = [t.name for t in self.info.tables]
        start = self.rng.choice(tables)
        placed = [start]
        parts = [start]
        progress = True
        while progress and len(placed) < len(tables):
            progress = False
            for a, a_col, b, b_col in self.info.joins:
                if a in placed and b in tables and b not in placed:
                    new, cond = b, f"{a}.{a_col} = {b}.{b_col}"
                elif b in placed and a in tables and a not in placed:
                    new, cond = a, f"{b}.{b_col} = {a}.{a_col}"
                else:
                    continue
                kind = self.rng.choice(("JOIN", "INNER JOIN", "LEFT JOIN"))
                parts.append(f"{kind} {new} ON {cond}")
                placed.append(new)
                progress = True
        for name in tables:
            if name not in placed:
                parts[0] += f", {name}"
                placed.append(name)
        return " ".join(parts), placed

    def column(self, kind: str, tables=None) -> str | None:
        pool = [
            f"{t.name}.{c}"
            for t in (tables or self.info.tables)
            for c in getattr(t, kind)
        ]
        return self.rng.choice(pool) if pool else None

    def any_column(self) -> str:
        return self.column("text") or self.column("numeric") or self.column("dates")

    def predicate(self) -> str:
        num = self.column("numeric")
        roll = self.rng.random()
        if num and roll < 0.45:
            op = self.rng.choice((">", "<", ">=", "<=", "<>"))
            return f"{num} {op} {self.lit.randint(1, 5000)}"
        if num and roll < 0.6:
            low = self.lit.randint(1, 500)
            return f"{num} BETWEEN {low} AND {low + self.lit.randint(10, 2000)}"
        date = self.column("dates")
        if date and roll < 0.8:
            return f"{date} >= '{1992 + self.lit.randint(0, 6)}-0{self.lit.randint(1, 9)}-01'"
        text = self.column("text")
        if text:
            return f"{text} LIKE '%{self.lit.choice(_WORDS)}%'"
        return f"{num} IS NOT NULL"

    def where(self) -> str:
        count = self.rng.randint(1, 3)
        glue = self.rng.choice((" AND ", " AND ", " OR "))
        return " WHERE " + glue.join(self.predicate() for _ in range(count))

    def order_by(self, options: list, force: bool = False) -> str:
        if force or self.info.bias == "order_by" or self.rng.random() < 0.5:
            key = self.rng.choice(options)
            return f" ORDER BY {key} {self.rng.choice(('DESC', 'ASC'))}"
        return ""

    def limit(self) -> str:
        return f" LIMIT {self.lit.choice((5, 10, 20, 50, 100))}" if self.rng.random() < 0.4 else ""

    # -- shapes ------------------------------------------------------------

    def grouped_join(self) -> str:
        source, _ = self.from_clause()
        group = self.any_column()
        num = self.column("numeric")
        agg = f"{self.rng.choice(_AGGS)}({num})" if num else "COUNT(*)"
        sql = f"SELECT {group}, COUNT(*) AS cnt, {agg} AS metric FROM {source}"
        if self.rng.random() < 0.6:
            sql += self.where()
        sql += f" GROUP BY {group}"
        if self.rng.random() < 0.35:
            sql += f" HAVING COUNT(*) > {self.lit.randint(1, 20)}"
        return sql + self.order_by(["metric", "cnt", group]) + self.limit()

    def cte(self) -> str:
        num = self.column("numeric")
        if num is None:
            return self.grouped_join()
        table, col = num.split(".")
        key = self.rng.choice(self.by_name[table].columns())
        body = (
            f"SELECT {key} AS grp, {self.rng.choice(_AGGS)}({col}) AS val "
            f"FROM {table} GROUP BY {key}"
        )
        sql = (
            f"WITH stats AS ({body}) SELECT grp, val FROM stats "
            f"WHERE val > (SELECT AVG(val) FROM stats)"
        )
        return sql + self.order_by(["val", "grp"])

    def window(self) -> str:
        source, _ = self.from_clause()
        part = self.any_column()
        num = self.column("numeric") or part
        func = self.rng.choice(("RANK()", "ROW_NUMBER()", "DENSE_RANK()"))
        sql = (
            f"SELECT {part}, {num}, {func} OVER (PARTITION BY {part} "
            f"ORDER BY {num} DESC) AS pos FROM {source}"
        )
        if self.rng.random() < 0.5:
            sql += self.where()
        return sql + self.order_by([part, "pos"])

    def exists(self) -> str:
        if not self.info.joins:
            num = self.column("numeric")
            if num is None:
                return self.grouped_join()
            table = num.split(".")[0]
            return (
                f"SELECT * FROM {table} WHERE {num} > "
                f"(SELECT AVG({num}) FROM {table})" + self.order_by([num]) + self.limit()
            )
        a, a_col, b, b_col = self.rng.choice(self.info.joins)
        outer, inner = (a, b) if self.rng.random() < 0.5 else (b, a)
        outer_col, inner_col = (a_col, b_col) if outer == a else (b_col, a_col)
        inner_table = self.by_name[inner]
        inner_num = self.column("numeric", [inner_table])
        extra = f" AND {inner_num} > {self.lit.randint(1, 2000)}" if inner_num else ""
        negate = "NOT " if self.rng.random() < 0.3 else ""
        shown = self.any_column_of(outer)
        return (
            f"SELECT {shown} FROM {outer} WHERE {negate}EXISTS (SELECT 1 FROM {inner} "
            f"WHERE {inner}.{inner_col} = {outer}.{outer_col}{extra})"
            + self.order_by([shown]) + self.limit()
        )

    def any_column_of(self, table: str) -> str:
        return f"{table}.{self.rng.choice(self.by_name[table].columns())}"

    def hallucinated(self) -> str:
        table = self.rng.choice(self.info.tables)
        fake = f"{table.name}.{self.rng.choice(('total_revenue', 'score', 'region_name', 'avg_rating'))}"
        source, _ = self.from_clause()
        return (
            f"SELECT {fake}, COUNT(*) AS cnt FROM {source} GROUP BY {fake}"
            + self.order_by(["cnt"])
        )

    def malformed(self) -> str:
        sql = self.grouped_join()
        damage = self.rng.randrange(4)
        if damage == 0:  # cut off at the token limit
            return sql[: max(12, int(len(sql) * self.rng.uniform(0.4, 0.8)))]
        if damage == 1:
            return sql.replace(" FROM ", ", FROM ", 1)
        if damage == 2:
            return sql.replace(" GROUP BY ", " GROUP ", 1)
        return sql.replace("COUNT(*)", "COUNT(*", 1)

    def echo(self) -> str:
        if not self.info.examples:
            return self.grouped_join()
        return self.rng.choice(self.info.examples).rstrip(";")

    SHAPES = (
        ("grouped_join", 24),
        ("cte", 10),
        ("window", 10),
        ("exists", 12),
        ("hallucinated", 14),
        ("malformed", 16),
        ("echo", 14),
    )

    def compose(self) -> str:
        names, weights = zip(*self.SHAPES)
        if self.info.bias == "group_by":
            weights = tuple(w * 3 if n == "grouped_join" else w for n, w in self.SHAPES)
        shape = self.rng.choices(names, weights=weights)[0]
        sql = getattr(self, shape)()
        if self.lit.random() < 0.2:
            sql = sql.lower()
        wrap = self.lit.random()
        if wrap < 0.5:
            return f"```sql\n{sql}\n```"
        if wrap < 0.8:
            return (
                f"{self.lit.choice(_PROSE_OPENERS)}\n\n{sql};\n\n"
                f"{self.lit.choice(_PROSE_CLOSERS)}"
            )
        return sql


def synthesize(prompt: str, count: int, seed: int, occurrence: int = 0) -> list[str]:
    """``count`` completions for ``prompt``; a pure function of its arguments.

    ``occurrence`` numbers the successful answers already given to the same
    prompt text, so a prompt asked again is sampled afresh, as a model at a
    non-zero temperature would. Like a sampled model, the answers settle on
    one to three query structures and vary mostly in their constants, so
    many collapse into duplicates once literals are normalized away.
    """
    info = parse_prompt(prompt)
    if not info.tables:
        return ["I could not find any tables in the request."] * count
    lit = random.Random(_stable_int(seed, occurrence, prompt))
    structures = lit.randint(1, 3)
    out = []
    for _ in range(count):
        structure = random.Random(_stable_int(seed, occurrence, prompt, lit.randrange(structures)))
        out.append(_Composer(info, structure, lit).compose())
    return out


class CompletionServer:
    """Threaded loopback HTTP server answering completion requests.

    ``reset()`` forgets which prompts were seen, so each pipeline run starts
    from the same state; the counters it returns describe the run before.
    """

    def __init__(self, seed: int, service_delay_s: float = 0.010):
        self.seed = seed
        self.service_delay_s = service_delay_s
        self._lock = threading.Lock()
        self._attempts: dict = {}
        self._served: dict = {}
        self._stats = self.zero_stats()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @staticmethod
    def zero_stats() -> dict:
        return {"requests": 0, "http_503": 0, "service_s": 0.0}

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/completions"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()

    def reset(self) -> dict:
        with self._lock:
            stats, self._stats = self._stats, self.zero_stats()
            self._attempts.clear()
            self._served.clear()
        return stats

    def _answer(self, payload: dict) -> tuple[int, dict]:
        started = time.perf_counter()
        prompt = payload["prompt"]
        count = int(payload.get("params", {}).get("n_completions", 1))
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
            refuse = attempt == 1 and (
                _stable_int(self.seed, "503", key) % 1000 < FIRST_ATTEMPT_503_SHARE * 1000
            )
            occurrence = self._served.get(key, 0)
            if not refuse:
                self._served[key] = occurrence + 1
        if refuse:
            status, body = 503, {"error": "overloaded, retry"}
        else:
            status, body = 200, {"completions": synthesize(prompt, count, self.seed, occurrence)}
            time.sleep(self.service_delay_s)
        with self._lock:
            self._stats["requests"] += 1
            self._stats["http_503"] += status == 503
            self._stats["service_s"] += time.perf_counter() - started
        return status, body

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 5  # idle keep-alive connections of finished runs close

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                try:
                    payload = json.loads(self.rfile.read(length))
                    status, body = server._answer(payload)
                except (ValueError, KeyError, TypeError) as exc:
                    status, body = 400, {"error": str(exc)}
                data = json.dumps(body).encode("utf-8")
                reason = self.responses[status][0]
                head = (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n"
                ).encode("ascii")
                self.wfile.write(head + data)

            def log_message(self, format, *args):
                pass

        return Handler
