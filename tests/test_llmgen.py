from __future__ import annotations

import importlib.util
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

from sqlsynth.config import load_config
import sqlsynth.pipeline as pipeline_mod
from sqlsynth.cli import main as cli_main
from sqlsynth.errors import ArityError, BackendError, SqlsynthError
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
from sqlsynth.mechgen import MechConfig, SeedExample
from sqlsynth.pipeline import ChildAnalysis, InlineAnalysis, run_pipeline
from sqlsynth.records import load_records
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.util import decode, fields_of

from tests.conftest import REPO_ROOT


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

    @pytest.mark.parametrize("text", ["[]", "not json", '{"completions": "SELECT 1"}'])
    def test_malformed_file_is_a_backend_error(self, tmp_path, text):
        (tmp_path / f"{prompt_hash('p')}.json").write_text(text, encoding="utf-8")
        with pytest.raises(BackendError, match="malformed completion payload") as err:
            StubBackend(tmp_path).complete("p", GenParams())
        assert not err.value.retryable


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
        elif _Handler.behavior.startswith("body:"):
            self.send_response(200)
            self.end_headers()
            self.wfile.write(_Handler.behavior[len("body:"):].encode())
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
    server.server_close()


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

    @pytest.mark.parametrize("body", ["[]", "null", '"x"', '{"completions": {}}'])
    def test_json_that_is_not_a_payload(self, http_server, body):
        _Handler.behavior = f"body:{body}"
        with pytest.raises(BackendError, match="malformed completion payload") as err:
            HttpBackend(http_server, model="m").complete("x", GenParams())
        assert not err.value.retryable


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 completion endpoint that records each request's client
    address and, in the ``close`` modes, closes the connection after its
    response, announced by a ``Connection: close`` header or not."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        with server.lock:
            server.clients.append(self.client_address)
            server.paths.append(self.path)
        data = json.dumps({"completions": [f"SELECT {body['prompt']}"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if server.mode == "close_announced":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = server.mode != "keep_alive"

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, mode):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.mode = mode
        self.lock = threading.Lock()
        self.clients = []
        self.paths = []
        self.closed = threading.Semaphore(0)  # one release per connection closed

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture()
def keep_alive_server(request):
    server = _KeepAliveServer(getattr(request, "param", "keep_alive"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def backend(keep_alive_server):
    url = f"http://127.0.0.1:{keep_alive_server.server_port}/v1/completions?stream=0"
    backend = HttpBackend(url, model="m")
    yield backend
    backend.close()


class TestHttpBackendConnections:
    def test_sequential_calls_share_one_connection(self, keep_alive_server, backend):
        for i in range(5):
            assert backend.complete(str(i), GenParams()) == [f"SELECT {i}"]
        assert len(keep_alive_server.clients) == 5
        assert len(set(keep_alive_server.clients)) == 1

    def test_threads_reuse_at_most_one_connection_each(self, keep_alive_server, backend):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the stack's critical sections
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda i: backend.complete(str(i), GenParams()), range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [[f"SELECT {i}"] for i in range(8)]
        assert len(keep_alive_server.clients) == 8
        assert len(set(keep_alive_server.clients)) <= 4

    @pytest.mark.parametrize(
        "keep_alive_server", ["close_announced", "close_silently"], indirect=True
    )
    def test_closed_connections_cost_no_attempt(self, keep_alive_server, backend):
        # complete() does not retry: every call succeeds on its one attempt,
        # each over a connection of its own
        for i in range(5):
            assert backend.complete(str(i), GenParams()) == [f"SELECT {i}"]
            assert keep_alive_server.closed.acquire(timeout=5)
        assert len(keep_alive_server.clients) == 5
        assert len(set(keep_alive_server.clients)) == 5

    def test_query_string_is_part_of_the_target(self, keep_alive_server, backend):
        backend.complete("1", GenParams())
        assert keep_alive_server.paths == ["/v1/completions?stream=0"]


def _completion_server_module(monkeypatch):
    path = REPO_ROOT / "perfbench" / "completion_server.py"
    spec = importlib.util.spec_from_file_location("completion_server", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestHttpPipeline:
    def test_concurrent_http_runs_are_byte_identical(self, tmp_path, monkeypatch):
        server_module = _completion_server_module(monkeypatch)
        config = load_config(REPO_ROOT / "data" / "demo" / "demo.toml")
        config.loop_limit = 0
        config.execution.enabled = False
        config.llm.backend = "http"
        config.llm.concurrency = 4
        outputs = []
        with server_module.CompletionServer(seed=1) as server:
            config.llm.url = server.url
            for run in ("a", "b"):
                config.out_dir = str(tmp_path / run)
                manifest = run_pipeline(config)
                stats = server.reset()
                counts = manifest["counts"]
                assert counts["llm_calls"] > 0 and counts["llm_failures"] == 0
                # one request per prompt plus one per refused first attempt
                assert stats["requests"] == counts["llm_calls"] + stats["http_503"]
                outputs.append(Path(config.out_dir))
        for name in ("records.jsonl", "kept.jsonl"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name

    def test_child_analysis_writes_what_inline_analysis_writes(self, tmp_path, monkeypatch):
        # steering on: three batches whose prompts follow the coverage gaps.
        # The parent makes each batch's prompted subschemas and none of the
        # others, its default share of them twice, then all of them; the
        # inline run makes and analyses everything.
        server_module = _completion_server_module(monkeypatch)
        config = _steered_http_config()
        parent_validations = []
        validate = pipeline_mod.validate_record

        def counted_validate(record, *check):
            parent_validations.append(record.origin)  # the child appends to its own copy
            validate(record, *check)

        monkeypatch.setattr(pipeline_mod, "validate_record", counted_validate)
        default = pipeline_mod.PARENT_MECH_SHARE
        runs = {"inline": default, "none": 0.0, "default": default,
                "default again": default, "all": 1.0}
        outputs, requests, validated = {}, {}, {}
        with server_module.CompletionServer(seed=3) as server:
            config.llm.url = server.url
            for run, share in runs.items():
                monkeypatch.setattr(pipeline_mod, "PARENT_MECH_SHARE", share)
                # the inline run forces the stub path's analysis through the seam
                monkeypatch.setattr(pipeline_mod, "ChildAnalysis",
                                    InlineAnalysis if run == "inline" else ChildAnalysis)
                parent_validations.clear()
                config.out_dir = str(tmp_path / run)
                manifest = run_pipeline(config)
                requests[run] = server.reset()["requests"]
                outputs[run] = Path(config.out_dir)
                validated[run] = (parent_validations.count("mechanical"),
                                  parent_validations.count("llm"))
                assert multiprocessing.active_children() == []
        counts = manifest["counts"]
        assert counts["batches"] == 3 and counts["llm_calls"] > 0
        assert counts["llm_failures"] == 0 and counts["rejected"] > 0
        # the parent validated exactly its share of the mechanical candidates,
        # the prompted subschemas' and its share of the others', and the
        # child every LLM candidate
        per_subschema = config.mech_per_subschema * counts["batches"]
        mechanical = counts["subschemas"] * per_subschema
        assert validated["inline"] == (mechanical, counts["generated"] - mechanical)
        prompted = config.subschema.llm_sample_count
        others = counts["subschemas"] - prompted
        assert validated["none"] == (prompted * per_subschema, 0)
        assert validated["all"] == (mechanical, 0)
        share = (prompted + math.ceil(default * others)) * per_subschema
        assert validated["default"] == validated["default again"] == (share, 0)
        assert len(set(requests.values())) == 1
        for run in runs:
            names = sorted(path.name for path in outputs[run].iterdir())
            assert names == sorted(path.name for path in outputs["inline"].iterdir())
            for name in names:
                got, inline = (outputs[side] / name for side in (run, "inline"))
                if name == "manifest.json":  # the server's URL apart
                    assert _without_url(got) == _without_url(inline)
                else:
                    assert got.read_bytes() == inline.read_bytes(), (run, name)

    def test_overlapped_batches_under_thread_stress(self, tmp_path, monkeypatch):
        # more request threads than cores, switching often, hand completions
        # to the child while the main thread makes mechanical queries
        server_module = _completion_server_module(monkeypatch)
        config = _steered_http_config()
        config.llm.concurrency = 8
        outputs = {}
        interval = sys.getswitchinterval()
        with server_module.CompletionServer(seed=4) as server:
            config.llm.url = server.url
            for run in ("inline", "child"):
                monkeypatch.setattr(pipeline_mod, "ChildAnalysis",
                                    InlineAnalysis if run == "inline" else ChildAnalysis)
                config.out_dir = str(tmp_path / run)
                sys.setswitchinterval(1e-5)
                try:
                    run_pipeline(config)
                finally:
                    sys.setswitchinterval(interval)
                server.reset()  # each run meets every prompt afresh
                outputs[run] = Path(config.out_dir)
        assert multiprocessing.active_children() == []
        for name in ("records.jsonl", "kept.jsonl", "coverage.json"):
            got, inline = (outputs[run] / name for run in ("child", "inline"))
            assert got.read_bytes() == inline.read_bytes(), name

    def test_stub_backend_replays_what_http_wrote(self, tmp_path, monkeypatch):
        # the HTTP run stores each prompt's completions as a stub file; the
        # stub backend replaying them writes the same bytes
        server_module = _completion_server_module(monkeypatch)
        config = load_config(REPO_ROOT / "data" / "demo" / "demo.toml")
        config.loop_limit = 2
        config.execution.enabled = False
        stub_dir = tmp_path / "stub"
        make_backend = pipeline_mod.make_backend
        with server_module.CompletionServer(seed=5) as server:
            config.llm.backend, config.llm.url = "http", server.url
            config.out_dir = str(tmp_path / "http")
            backend = StoringBackend(make_backend(config), stub_dir)
            monkeypatch.setattr(pipeline_mod, "make_backend", lambda config: backend)
            http_manifest = run_pipeline(config)
        monkeypatch.setattr(pipeline_mod, "make_backend", make_backend)
        # a repeated prompt would be answered afresh and overwrite its file
        assert len(backend.hashes) == len(set(backend.hashes)) > 0
        config.llm.backend, config.llm.stub_dir = "stub", str(stub_dir)
        config.out_dir = str(tmp_path / "stub_out")
        stub_manifest = run_pipeline(config)
        assert stub_manifest["counts"] == http_manifest["counts"]
        for name in ("kept.jsonl", "records.jsonl", "coverage.json",
                     "coverage_facets.csv", "coverage_clauses.csv"):
            got, http = (tmp_path / run / name for run in ("stub_out", "http"))
            assert got.read_bytes() == http.read_bytes(), name


def _steered_http_config():
    config = load_config(REPO_ROOT / "data" / "demo" / "demo.toml")
    config.loop_limit = 2
    config.coverage.min_clause_freq = 0.99  # the gaps stay open: every batch runs
    config.execution.enabled = False
    config.llm.backend = "http"
    config.llm.concurrency = 2
    return config


def _without_url(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["config"]["llm"].pop("url").startswith("http://127.0.0.1:")
    return manifest


class StoringBackend:
    """Wraps ``backend`` and stores each prompt's completions as the stub
    backend's file for it in ``directory``; records each prompt's hash."""

    def __init__(self, backend, directory):
        self.backend, self.directory = backend, directory
        self.hashes = []
        self.lock = threading.Lock()

    def complete(self, prompt, params):
        completions = self.backend.complete(prompt, params)
        with self.lock:
            self.hashes.append(prompt_hash(prompt))
            StubBackend.store(self.directory, prompt, completions)
        return completions

    def close(self):
        self.backend.close()


class ScriptedBackend:
    """Answers every prompt with one fixed completion after ``latency``
    seconds, a request's round trip, and on its ``at``-th call runs ``act``
    first. Records the analysis children alive at each call."""

    def __init__(self, at, act, latency=0.0):
        self.at, self.act, self.latency = at, act, latency
        self.calls = 0
        self.children = []
        self.lock = threading.Lock()

    def complete(self, prompt, params):
        with self.lock:
            self.calls += 1
            call = self.calls
            self.children.append(len(multiprocessing.active_children()))
        if call == self.at:
            self.act()
        time.sleep(self.latency)
        return ["```sql\nSELECT r_name FROM region WHERE r_regionkey = %d\n```" % call]

    def close(self):
        pass


PARENT_KILLED = """
import multiprocessing, time
import sqlsynth.pipeline as pipeline_mod
from tests.test_llmgen import ScriptedBackend, _steered_http_config

def block():
    [child] = multiprocessing.active_children()
    print(child.pid, flush=True)
    time.sleep(600)

pipeline_mod.make_backend = lambda config: ScriptedBackend(at=1, act=block)
config = _steered_http_config()
config.llm.url = "http://127.0.0.1:9/v1/completions"
config.out_dir = {out!r}
pipeline_mod.run_pipeline(config)
"""


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestAnalysisChild:
    """With the HTTP backend the analysis runs in one child process, which
    never outlives ``run_pipeline``, whatever ends it."""

    def _run(self, tmp_path, monkeypatch, backend, config=None):
        config = config or _steered_http_config()
        config.llm.url = "http://127.0.0.1:9/v1/completions"  # never contacted
        config.out_dir = str(tmp_path / "out")
        monkeypatch.setattr(pipeline_mod, "make_backend", lambda config: backend)
        try:
            return run_pipeline(config)
        finally:
            assert multiprocessing.active_children() == []

    def test_normal_return(self, tmp_path, monkeypatch):
        backend = ScriptedBackend(at=0, act=None)
        manifest = self._run(tmp_path, monkeypatch, backend)
        assert backend.children and set(backend.children) == {1}
        assert manifest["counts"]["llm_calls"] == backend.calls
        # one candidate per prompt, every one accounted for
        kept = load_records(tmp_path / "out" / "kept.jsonl")
        rows = kept + load_records(tmp_path / "out" / "records.jsonl")
        assert sum(record.origin == "llm" for record in rows) == backend.calls
        assert all(record.validation is not None for record in rows)

    @pytest.mark.parametrize("batch", [0, 1], ids=["batch0", "batch1"])
    def test_interrupt_mid_batch(self, tmp_path, monkeypatch, batch):
        # in batch 1 the interrupt comes after batch 0's rows were appended.
        # Rows are appended as a batch settles, from the parent's share of
        # its mechanical queries on, so in batch 0 the parent starts its
        # share once the interrupt has come, after its prompted subschemas
        config = _steered_http_config()
        prompted = config.subschema.llm_sample_count
        earlier = batch * prompted * len(config.llm.settings)
        append_jsonl, appended, appended_at_interrupt = pipeline_mod.append_jsonl, [], []
        parent, generate, made = os.getpid(), pipeline_mod.generate_mechanical, []
        interrupted = threading.Event()

        def counted(fh, rows):
            rows = list(rows)
            appended.append(len(rows))
            append_jsonl(fh, rows)

        def interrupt():
            appended_at_interrupt.append(sum(appended))
            interrupted.set()
            raise KeyboardInterrupt

        def share_after_interrupt(*args, **kwargs):
            if os.getpid() == parent:
                made.append(args[0].id)
                if batch == 0 and len(made) == prompted + 1:
                    assert interrupted.wait(10)
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "append_jsonl", counted)
        monkeypatch.setattr(pipeline_mod, "generate_mechanical", share_after_interrupt)
        backend = ScriptedBackend(at=earlier + 2, act=interrupt, latency=0.05)
        with pytest.raises(KeyboardInterrupt):
            self._run(tmp_path, monkeypatch, backend)
        assert backend.children[0] == 1
        assert (appended_at_interrupt[0] > 0) == (batch > 0)
        assert not (tmp_path / "out" / "kept.jsonl").exists()
        assert not list((tmp_path / "out").glob("*.part"))
        # the requests in flight end; the batch's queued ones are never sent
        assert backend.calls <= earlier + config.llm.concurrency + 1

    def test_child_killed_mid_batch(self, tmp_path, monkeypatch):
        # the child dies once batch 0's mechanical queries are all in, while
        # it analyses the batch's completions
        mechanical_done = threading.Event()
        records = pipeline_mod.PromptRequests.records

        def signalled(*args, **kwargs):
            mechanical_done.set()  # read once the batch's mechanical queries are all in
            yield from records(*args, **kwargs)

        def kill_child():
            assert mechanical_done.wait(10)
            [child] = multiprocessing.active_children()
            os.kill(child.pid, signal.SIGKILL)

        monkeypatch.setattr(pipeline_mod.PromptRequests, "records", signalled)
        backend = ScriptedBackend(at=5, act=kill_child)
        with pytest.raises(SqlsynthError, match="LLM batch 0: the analysis process died"):
            self._run(tmp_path, monkeypatch, backend)
        assert backend.children[0] == 1
        assert not (tmp_path / "out" / "kept.jsonl").exists()
        assert not (tmp_path / "out" / "records.jsonl").exists()
        assert not list((tmp_path / "out").glob("*.part"))

    def test_child_killed_during_mechanical_share(self, tmp_path, monkeypatch):
        # the parent kills the child as it starts its own share of batch 0,
        # before the batch's first prompt is sent
        parent, killed = os.getpid(), []
        generate = pipeline_mod.generate_mechanical

        def kill_child_first(*args, **kwargs):
            if os.getpid() == parent and not killed:
                [child] = multiprocessing.active_children()
                os.kill(child.pid, signal.SIGKILL)
                killed.append(child.pid)
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "generate_mechanical", kill_child_first)
        backend = ScriptedBackend(at=0, act=None)
        with pytest.raises(SqlsynthError, match="mechanical batch 0: the analysis process died"):
            self._run(tmp_path, monkeypatch, backend)
        # no request of a later batch is sent
        config = _steered_http_config()
        assert killed
        assert backend.calls <= config.subschema.llm_sample_count * len(config.llm.settings)
        assert not (tmp_path / "out" / "kept.jsonl").exists()
        assert not (tmp_path / "out" / "records.jsonl").exists()
        assert not list((tmp_path / "out").glob("*.part"))

    def test_error_in_mechanical_share_sends_no_queued_request(self, tmp_path, monkeypatch):
        # the parent fails in its share of batch 0's other subschemas once
        # the batch's first request is in flight
        parent, calls, requested = os.getpid(), [], threading.Event()
        prompted = _steered_http_config().subschema.llm_sample_count
        generate = pipeline_mod.generate_mechanical

        def fail_in_share(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(args[0].id)
                if len(calls) == prompted + 2:
                    assert requested.wait(10)
                    raise RuntimeError("mechanical share failed")
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "generate_mechanical", fail_in_share)
        backend = ScriptedBackend(at=1, act=requested.set, latency=0.05)
        with pytest.raises(RuntimeError, match="mechanical share failed"):
            self._run(tmp_path, monkeypatch, backend)
        assert not (tmp_path / "out" / "kept.jsonl").exists()
        # the requests in flight end; the batch's queued ones are never sent
        assert 1 <= backend.calls <= _steered_http_config().llm.concurrency + 1
        assert not list((tmp_path / "out").glob("*.part"))

    @pytest.mark.parametrize("share, analysis", [
        pytest.param(share, "child", id=str(share))
        for share in (pipeline_mod.PARENT_MECH_SHARE, 1.0)
    ] + [pytest.param(pipeline_mod.PARENT_MECH_SHARE, "inline", id="inline")])
    def test_requests_overlap_the_parents_share(self, tmp_path, monkeypatch, share, analysis):
        # the parent's last generate_mechanical call of each batch waits for
        # the batch's first request, which is sent before the parent's share
        # of the mechanical queries is done. With the stub backend the
        # analysis is inline, so the parent's share is every subschema.
        monkeypatch.setattr(pipeline_mod, "PARENT_MECH_SHARE", share)
        config = _steered_http_config()
        subschemas = pipeline_mod.build_subschemas(config, pipeline_mod.build_catalog(config))
        prompted = config.subschema.llm_sample_count
        parent_calls = prompted + math.ceil(share * (len(subschemas) - prompted))
        if analysis == "inline":
            config.llm.backend = "stub"  # make_backend is patched: no file is read
            parent_calls = len(subschemas)
        parent, requested, waited = os.getpid(), threading.Event(), []
        calls: dict[int, int] = {}
        generate = pipeline_mod.generate_mechanical

        def last_waits(*args, seed, **kwargs):
            if os.getpid() == parent:
                calls[seed] = calls.get(seed, 0) + 1  # one seed per batch
                if calls[seed] == 1:
                    requested.clear()  # the previous batch's requests are all done
                if calls[seed] == parent_calls:
                    waited.append(requested.wait(10))
            return generate(*args, seed=seed, **kwargs)

        class SignallingBackend(ScriptedBackend):
            def complete(self, prompt, params):
                requested.set()
                return super().complete(prompt, params)

        monkeypatch.setattr(pipeline_mod, "generate_mechanical", last_waits)
        manifest = self._run(tmp_path, monkeypatch, SignallingBackend(at=0, act=None), config)
        assert waited == [True] * manifest["counts"]["batches"]

    def test_child_exits_when_its_parent_is_killed(self, tmp_path):
        # the parent prints its analysis child's pid, then blocks in a request
        script = PARENT_KILLED.format(out=str(tmp_path / "out"))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH=f"{REPO_ROOT / 'src'}:{REPO_ROOT}"),
        )
        child = int(parent.stdout.readline())
        parent.kill()
        parent.wait(10)
        parent.stdout.close()
        deadline = time.monotonic() + 10
        while _running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _running(child):
            os.kill(child, signal.SIGKILL)
            pytest.fail("the analysis child outlived its parent")

    def test_stub_backend_starts_no_process(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the stub path started a process pool")

        monkeypatch.setattr(pipeline_mod, "_fork_pool", no_pool)
        demo = REPO_ROOT / "data" / "demo" / "demo.toml"
        config = load_config(demo)
        out = tmp_path / "out"
        config.out_dir = str(out)
        config.execution.enabled = False
        manifest = run_pipeline(config)
        assert manifest["counts"]["llm_calls"] > 0
        # gen-mech and gen-llm write their candidates unvalidated
        common = ["--config", str(demo), "--catalog", str(out / "catalog.json"),
                  "--subschemas", str(out / "subschemas.jsonl")]
        mech, llm = tmp_path / "mech.jsonl", tmp_path / "llm.jsonl"
        assert cli_main(["gen-mech", *common, "--out", str(mech)]) == 0
        assert cli_main(["gen-llm", *common, "--pool", str(out / "kept.jsonl"),
                         "--out", str(llm)]) == 0
        for path in (mech, llm):
            records = load_records(path)
            assert records and all(r.validation is None and r.profile is None for r in records)

    def test_gen_llm_makes_no_mechanical_query(self, tmp_path, monkeypatch):
        # gen-llm's prompts draw only on --pool: it never calls the generator
        demo = REPO_ROOT / "data" / "demo" / "demo.toml"
        config = load_config(demo)
        out = tmp_path / "out"
        config.out_dir = str(out)
        config.execution.enabled = False
        run_pipeline(config)

        def fails(*args, **kwargs):
            raise AssertionError("gen-llm made a mechanical query")

        monkeypatch.setattr(pipeline_mod, "generate_mechanical", fails)
        llm = tmp_path / "llm.jsonl"
        assert cli_main([
            "gen-llm", "--config", str(demo), "--catalog", str(out / "catalog.json"),
            "--subschemas", str(out / "subschemas.jsonl"), "--pool", str(out / "kept.jsonl"),
            "--out", str(llm),
        ]) == 0
        assert load_records(llm)


SETTLED_FILES = ("kept.jsonl", "records.jsonl", "coverage.json",
                 "coverage_facets.csv", "coverage_clauses.csv", "manifest.json")


def _settled_whole(generate_batch):
    """``generate_batch`` as one chunk: the batch settles once it is all made."""
    def whole(*args, **kwargs):
        yield [record for chunk in generate_batch(*args, **kwargs) for record in chunk]
    return whole


class TestStreamedSettle:
    """Each batch settles chunk by chunk as its candidates arrive, and writes
    what settling the whole batch at once writes."""

    @pytest.mark.parametrize("path", ["http", "stub", "llm_off"])
    def test_streamed_settle_writes_what_a_whole_batch_settle_writes(
        self, tmp_path, monkeypatch, path
    ):
        server_module = _completion_server_module(monkeypatch)
        config = _steered_http_config()
        if path == "stub":
            config = load_config(REPO_ROOT / "data" / "demo" / "demo.toml")
            config.execution.enabled = False
        if path == "llm_off":
            config.llm.enabled = False
            # one projected column and few filters: duplicates within a batch
            config.mechanical = MechConfig(
                p_where=0.3, p_group_by=0.0, p_having=0.0, p_order_by=0.0, p_aggregate=0.0,
                projection_count_range=(1, 1),
            )
        validate_record = pipeline_mod.validate_record

        def also_rejecting(record, *check):
            # a second validator, in the analysis child too: it rejects the
            # accepted candidates whose id ends in 0, under one of 16 reasons
            # by the digit before, so that reasons first appear all through
            # a batch, among its duplicates
            validate_record(record, *check)
            if record.validation.accepted and record.id[-1] == "0":
                record.validation.rejection_reasons = [f"ends_in_{record.id[-2:]}"]
                record.profile = None

        monkeypatch.setattr(pipeline_mod, "validate_record", also_rejecting)
        generate_batch = pipeline_mod.generate_batch
        with server_module.CompletionServer(seed=6) as server:
            config.llm.url = server.url
            for run in ("streamed", "whole"):
                monkeypatch.setattr(pipeline_mod, "generate_batch", generate_batch
                                    if run == "streamed" else _settled_whole(generate_batch))
                config.out_dir = str(tmp_path / run)
                run_pipeline(config)
                server.reset()  # each run meets every prompt afresh
        out = tmp_path / "streamed"
        for name in SETTLED_FILES:
            got, whole = out / name, tmp_path / "whole" / name
            if name == "manifest.json":
                assert _without_url(got) == _without_url(whole)
            else:
                assert got.read_bytes() == whole.read_bytes(), name
        # some batch's first duplicate comes before a reason first seen
        # later in the batch, and the duplicates are still counted last
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert all(list(b["rejected_by_reason"])[-1] == "duplicate"
                   for b in manifest["batches"] if b["dedup_dropped"])
        first_seen = {}  # (batch, reason) -> row in the batch, in candidate order
        for row, record in enumerate(load_records(out / "records.jsonl")):
            for reason in record.validation.rejection_reasons:
                first_seen.setdefault((record.batch, reason), row)
        assert any(
            first_seen[batch, "duplicate"] < row
            for (batch, reason), row in first_seen.items()
            if reason != "duplicate" and (batch, "duplicate") in first_seen
        )

    def test_rows_reach_disk_before_the_childs_share_returns(self, tmp_path, monkeypatch):
        # the child makes its share of batch 0 only once a kept row of the
        # batch is in kept.jsonl.part: the parent settles its own share first
        config = _steered_http_config()
        out = tmp_path / "out"
        config.out_dir = str(out)
        config.llm.url = "http://127.0.0.1:9/v1/completions"  # never contacted
        settled = multiprocessing.get_context("fork").Event()
        parent, append_jsonl = os.getpid(), pipeline_mod.append_jsonl
        generate = pipeline_mod.generate_mechanical

        def signalled(fh, rows):
            rows = list(rows)
            append_jsonl(fh, rows)
            if rows and fh.name.endswith("kept.jsonl.part") and not settled.is_set():
                fh.flush()
                settled.set()

        def waits_in_child(*args, **kwargs):
            if os.getpid() != parent:
                assert settled.wait(10), "no kept row before the child's share"
                rows = (out / "kept.jsonl.part").read_text(encoding="utf-8").splitlines()
                assert len(rows) > 1  # the header and a row
            return generate(*args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "append_jsonl", signalled)
        monkeypatch.setattr(pipeline_mod, "generate_mechanical", waits_in_child)
        monkeypatch.setattr(pipeline_mod, "make_backend",
                            lambda config: ScriptedBackend(at=0, act=None))
        manifest = run_pipeline(config)
        assert settled.is_set()
        assert manifest["counts"]["batches"] == 3
        assert multiprocessing.active_children() == []


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
