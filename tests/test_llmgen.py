from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from sqlsynth.errors import ArityError, BackendError
from sqlsynth.llmgen import (
    BIAS_SENTENCES,
    CANONICAL_SETTINGS,
    GenParams,
    HttpBackend,
    PromptSetting,
    StubBackend,
    build_prompt,
    extract_sql,
    generate_llm,
    prompt_hash,
)
from sqlsynth.mechgen import SeedExample
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.util import decode, fields_of


@pytest.fixture(scope="module")
def nation_region(tpch_catalog_inferred):
    graph = build_join_graph(tpch_catalog_inferred)
    subs = enumerate_subschemas(graph)
    return next(s for s in subs if s.tables == ("nation", "region"))


def make_examples(n):
    return [
        SeedExample(sql=f"SELECT n_name FROM nation WHERE n_nationkey = {i}", features=frozenset())
        for i in range(n)
    ]


class TestPromptSetting:
    def test_six_canonical_settings(self):
        assert len(CANONICAL_SETTINGS) == 6
        labels = {s.label for s in CANONICAL_SETTINGS}
        assert "0-shot:none" in labels and "3-shot:group_by" in labels

    def test_parse_labels(self):
        assert PromptSetting.parse("3-shot:group_by") == PromptSetting(3, "group_by")
        assert PromptSetting.parse("0:none") == PromptSetting(0, "none")

    def test_invalid_bias(self):
        with pytest.raises(ValueError):
            PromptSetting(0, "having")


class TestGenParams:
    def test_defaults_valid(self):
        GenParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"repetition_penalty": 0.9},
            {"n_completions": 0},
            {"max_tokens": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs).validate()

    def test_round_trip(self):
        params = GenParams(temperature=0.5, n_completions=2)
        assert decode(GenParams, fields_of(params)) == params


class TestBuildPrompt:
    def test_zero_shot_structure(self, nation_region, tpch_catalog_inferred):
        prompt = build_prompt(
            nation_region, tpch_catalog_inferred, PromptSetting(0, "none"), []
        )
        assert prompt.startswith("These tables have been created:\n")
        assert prompt.count("CREATE TABLE") == 2
        assert (
            "Write an interesting and complicated SQL query that uses all of these tables:\n"
            "nation, region" in prompt
        )
        assert "These are some examples:" not in prompt
        assert "Whenever possible" not in prompt

    def test_three_shot_group_by(self, nation_region, tpch_catalog_inferred):
        prompt = build_prompt(
            nation_region,
            tpch_catalog_inferred,
            PromptSetting(3, "group_by"),
            make_examples(3),
        )
        assert (
            "Whenever possible, please use a group by clause. "
            "Use operators for more complex groups." in prompt
        )
        assert "These are some examples:" in prompt
        assert "1. SELECT" in prompt and "3. SELECT" in prompt
        # the constraint precedes the examples
        assert prompt.index("Whenever possible") < prompt.index("These are some examples:")

    def test_order_by_sentence(self, nation_region, tpch_catalog_inferred):
        prompt = build_prompt(
            nation_region, tpch_catalog_inferred, PromptSetting(0, "order_by"), []
        )
        assert BIAS_SENTENCES["order_by"] in prompt

    def test_arity_mismatch(self, nation_region, tpch_catalog_inferred):
        with pytest.raises(ArityError):
            build_prompt(
                nation_region, tpch_catalog_inferred, PromptSetting(3, "none"), make_examples(2)
            )

    def test_deterministic(self, nation_region, tpch_catalog_inferred):
        args = (nation_region, tpch_catalog_inferred, PromptSetting(3, "none"))
        assert build_prompt(*args, make_examples(3)) == build_prompt(*args, make_examples(3))

    def test_column_filter_narrows_create(self, nation_region, tpch_catalog_inferred):
        prompt = build_prompt(
            nation_region,
            tpch_catalog_inferred,
            PromptSetting(0, "none"),
            [],
            column_filter={"nation": {"n_nationkey", "n_name"}},
        )
        assert "n_comment" not in prompt


class TestStubBackend:
    def test_replays_completions(self, tmp_path):
        prompt = "some prompt"
        StubBackend.store(tmp_path, prompt, ["SELECT 1;", "SELECT 2;"])
        backend = StubBackend(tmp_path)
        got = generate_llm(prompt, backend, GenParams(n_completions=2))
        assert got == ["SELECT 1;", "SELECT 2;"]

    def test_caps_at_n_completions(self, tmp_path):
        prompt = "p"
        StubBackend.store(tmp_path, prompt, ["a", "b", "c"])
        assert generate_llm(prompt, StubBackend(tmp_path), GenParams(n_completions=1)) == ["a"]

    def test_missing_prompt_errors(self, tmp_path):
        with pytest.raises(BackendError):
            generate_llm("unknown", StubBackend(tmp_path), GenParams())


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.seen.append((dict(self.headers), body))
        if _Handler.behavior == "ok":
            payload = {"completions": [f"SELECT {i}" for i in range(body["params"]["n_completions"])]}
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(data)
        elif _Handler.behavior == "server_error":
            self.send_response(503)
            self.end_headers()
        elif _Handler.behavior == "bad_json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
        else:
            self.send_response(400)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.seen = []
    _Handler.behavior = "ok"
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()


class TestHttpBackend:
    def test_round_trip(self, http_server, monkeypatch):
        monkeypatch.setenv("SQLSYNTH_API_TOKEN", "secret-token")
        backend = HttpBackend(http_server, model="test-model")
        got = generate_llm("hello", backend, GenParams(n_completions=3))
        assert got == ["SELECT 0", "SELECT 1", "SELECT 2"]
        headers, body = _Handler.seen[0]
        assert headers["Authorization"] == "Bearer secret-token"
        assert body["model"] == "test-model"
        assert body["prompt"] == "hello"
        assert body["params"]["temperature"] == pytest.approx(0.8)

    def test_no_token_no_header(self, http_server, monkeypatch):
        monkeypatch.delenv("SQLSYNTH_API_TOKEN", raising=False)
        HttpBackend(http_server, model="m").complete("x", GenParams())
        headers, _ = _Handler.seen[0]
        assert "Authorization" not in headers

    def test_server_error_is_retryable(self, http_server):
        _Handler.behavior = "server_error"
        with pytest.raises(BackendError) as err:
            HttpBackend(http_server, model="m").complete("x", GenParams())
        assert err.value.retryable

    def test_client_error_not_retryable(self, http_server):
        _Handler.behavior = "client_error"
        with pytest.raises(BackendError) as err:
            HttpBackend(http_server, model="m").complete("x", GenParams())
        assert not err.value.retryable

    def test_malformed_response(self, http_server):
        _Handler.behavior = "bad_json"
        with pytest.raises(BackendError):
            HttpBackend(http_server, model="m").complete("x", GenParams())

    def test_unreachable(self):
        backend = HttpBackend("http://127.0.0.1:1/nope", model="m", timeout=0.2)
        with pytest.raises(BackendError) as err:
            backend.complete("x", GenParams())
        assert err.value.retryable


class TestExtractSql:
    def test_fenced_block(self):
        assert extract_sql("```sql\nSELECT 1;\n```") == ["SELECT 1;"]

    def test_bare_fence(self):
        assert extract_sql("```\nSELECT a FROM t\n```") == ["SELECT a FROM t"]

    def test_prose_fallback(self):
        assert extract_sql("Here is a query: SELECT a FROM t") == ["SELECT a FROM t"]

    def test_fallback_stops_at_semicolon(self):
        got = extract_sql("Sure! SELECT a FROM t; hope that helps")
        assert got == ["SELECT a FROM t;"]

    def test_no_sql(self):
        assert extract_sql("I cannot help with that.") == []

    def test_multiple_fences(self):
        text = "First:\n```sql\nSELECT 1\n```\nThen:\n```sql\nSELECT 2\n```"
        assert extract_sql(text) == ["SELECT 1", "SELECT 2"]

    def test_fence_without_sql_skipped(self):
        assert extract_sql("```\nnot a query\n```") == []

    def test_with_statement(self):
        got = extract_sql("Try:\n```sql\nWITH w AS (SELECT 1) SELECT * FROM w\n```")
        assert got == ["WITH w AS (SELECT 1) SELECT * FROM w"]

    def test_prose_before_sql_inside_fence(self):
        got = extract_sql("```\nThe query below:\nSELECT a FROM t\n```")
        assert got == ["SELECT a FROM t"]

    def test_every_result_contains_select_or_with(self):
        for text in ["nothing here", "```\nplain\n```", "SELECT x", "use WITH care"]:
            for candidate in extract_sql(text):
                lowered = candidate.lower()
                assert "select" in lowered or "with" in lowered


class TestPromptHash:
    def test_stable(self):
        assert prompt_hash("abc") == prompt_hash("abc")
        assert prompt_hash("abc") != prompt_hash("abd")


class TestExtractFuzz:
    def test_results_always_contain_sql_token(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        import re

        token_re = re.compile(r"\b(select|with)\b", re.IGNORECASE)

        @given(st.text(max_size=300))
        @settings(max_examples=300, deadline=None)
        def run(text):
            for candidate in extract_sql(text):
                assert token_re.search(candidate), (text, candidate)

        run()
