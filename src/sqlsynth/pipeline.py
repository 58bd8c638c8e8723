"""End-to-end orchestration: preprocess, subschemas, generate, validate,
coverage-steer, select, execute, with JSONL checkpoints and a run manifest.

Stage outputs land in the configured output directory:

* ``catalog.json``       schema catalog (after inference and profiling)
* ``subschemas.jsonl``   enumerated generation targets
* ``records.jsonl``      the candidates not kept (rejected or duplicates),
  with their rejection reasons, in candidate order
* ``kept.jsonl``         the deduplicated kept corpus
* ``coverage.json``      per-setting and overall coverage reports
* ``coverage_facets.csv`` / ``coverage_clauses.csv`` tabular exports
* ``training.jsonl``     the training subset's query ids, in corpus order
  (runs with ``[selection] size``)
* ``labels.jsonl``       runtime labels of the kept records, one row per
  query and engine (execution runs)
* ``manifest.json``      counts, accounting, file map, config snapshot

Each stage has one implementation, here or in its own module.
:func:`run_pipeline` calls them in turn, and each per-stage command of
:mod:`sqlsynth.cli` calls the same one from the same config:

==============  ==========================================================
``preprocess``  :func:`build_catalog`
``subschemas``  :func:`build_subschemas`
``gen-mech``    :func:`generate_batch` (batch 0, no backend, not validated)
``gen-llm``     :func:`generate_batch` (batch 0, seeds from ``--pool``, not validated)
``validate``    :func:`validate_batch`
``coverage``    :func:`coverage_reports`, then :func:`write_coverage`
``execute``     :func:`~sqlsynth.execution.label_corpus`
==============  ==========================================================

So ``run`` with ``loop_limit = 0`` and that chain of commands write the same
bytes, runtimes apart.

Each candidate is analysed as it arrives, and its row is written once, as
its batch settles: ``kept.jsonl`` holds the kept ones and ``records.jsonl``
the rest (:func:`settle_chunk`). Each batch's rows are appended to the two
files under the names ``kept.jsonl.part`` and ``records.jsonl.part``, which
are moved onto their names when the loop ends and deleted if it raises, so
a run that fails publishes neither.
:func:`~sqlsynth.records.make_record` derives each candidate's id from its
literal normalized form, and the record holds both forms as strings. A
mechanical candidate holds the syntax tree it was built as: one walk of
:func:`~sqlsynth.sqltree.print_sql` over that tree writes its SQL and
prints its forms, so it is never scanned, tokenized or parsed. An LLM
candidate, or a record read from a file, is scanned once for its forms and
parsed once.
:func:`generate_batch` makes candidates one subschema at a time and
:class:`PromptRequests` one prompt at a time, and :func:`validate_record`
analyses each: it takes the record's tree or parses its SQL, resolves the
references in the one walk over the tree, derives the relevance codes from
them, profiles an accepted candidate from the counts that walk took and
takes its dedup key from the record's forms; the forms and the tree are
dropped there. An LLM prompt's completions are analysed together
(:func:`analyse_completions`: extract the SQL, make the records, validate
them). Every backend, and each generation command, makes its batches
through one function, :func:`generate_batch`, which overlaps a batch's
requests with its generation: the parent first makes the queries of the
subschemas the batch prompts for (none with the LLM off), sending each
one's prompts as soon as its seed pool is filled (:class:`PromptRequests`),
then makes the other subschemas' queries while the requests are in flight.
``gen-mech`` prompts for none and ``gen-llm`` makes no query: its prompts
draw on the seed pools of ``--pool``. Only the analysis that holds the
batch depends on the backend. With the HTTP backend one forked child
process per :func:`run_pipeline` call (:class:`ChildAnalysis`) makes all
but the parent's share (:data:`PARENT_MECH_SHARE`) of those other
subschemas, then analyses each prompt's completions, which the request
threads hand it as they arrive (:func:`make_mechanical` and
:func:`analyse_completions` on either side). So generation, requests and
analysis run on two cores, and no request waits for the queries its prompt
does not draw on. With the stub backend or the LLM off there is no wait to
hide, and forking would only add its cost, so everything runs in the parent
(:class:`InlineAnalysis`), which analyses each prompt's completions once
every request is in. Either way the records come back in subschema and
prompt order, so the outputs are the same.

A batch settles as its candidates arrive, not once it is all made:
:func:`generate_batch` yields them in candidate order as lists of
consecutive candidates, each list as soon as it and every candidate before
it exist, and :func:`settle_batch` settles each list in turn
(:func:`settle_chunk`). It counts the candidates, deduplicates the accepted
ones against the set of normalized forms already kept, which it extends
with the new records only, appends their rows and folds the newly kept
profiles. So the parent settles its own share of the mechanical queries
while the analysis child makes the rest, and the child's share and each
prompt's records while the later requests are in flight; when the batch's
last candidate arrives, only its own list and the coverage report are left.
No batch re-parses, re-normalizes or re-profiles what an earlier batch
kept. Mechanical candidates carry the clause tags of their construction
into the seed pools (:class:`~sqlsynth.mechgen.SeedExample`), so seed
selection parses nothing. One :class:`~sqlsynth.coverage.CoverageFold` per
setting label adds the newly kept profiles. Only the overall coverage
report steers: each batch reads it off the merge of those folds, and
``coverage.json``'s per-setting reports are read off them once, at the
end. So between batches the loop holds no record: only the kept corpus's
normalized forms, the seed pools, the batches' accounting and the folds,
and the only records in memory are those of the batch being made that are
not yet settled. The stages after generation read the kept corpus back
from ``kept.jsonl``, as ``--resume`` does.

Every file is written and read through the typed codec of
:mod:`sqlsynth.util`: a row's keys are its dataclass's fields, in
declaration order, and a file with a missing, unknown or mistyped field
fails to load with a DataFileError naming the file, the line and the
field. The manifest's ``batches`` are the :class:`BatchAccounting` rows,
which ``--resume`` reads back through the same codec.

Everything stochastic draws through seeds derived from the global seed plus
stage/batch labels, so a rerun with the same config is byte-identical up to
(and excluding) measured runtimes. The manifest carries no timestamps for
the same reason. With ``resume=True`` existing checkpoints are loaded
instead of recomputed, once the config matches the manifest's
(:func:`~sqlsynth.config.check_resume`).
"""

from __future__ import annotations

import logging
import math
import os
import random
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, CancelledError, ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .config import PipelineConfig, check_resume, config_snapshot
from .coverage import (
    CoverageFold,
    CoverageReport,
    RegenDirectives,
    clause_presence_rows,
    facet_stats_rows,
    plan_regeneration,
    profile_tree,
    write_csv,
)
from .errors import BackendError, SqlsynthError
from .execution import label_corpus, save_labels
from .llmgen import (
    HttpBackend,
    PromptSetting,
    StubBackend,
    build_prompt,
    extract_sql,
    generate_llm,
    prompt_hash,
)
from .mechgen import SeedExample, generate_mechanical, select_seed_examples
from .records import ORIGIN_LLM, QueryRecord, load_records, make_record
from .schema import (
    CsvDirSampler,
    derive_column_prefixes,
    infer_foreign_keys,
    ingest_ddl,
    load_catalog,
    profile_columns,
    save_catalog,
)
from .subschema import build_join_graph, enumerate_subschemas, load_subschemas, save_subschemas
from .sqltree import normalized_forms
from .training import select_training_subset
from .util import (
    SCHEMA_VERSION,
    append_jsonl,
    decode_in,
    derive_seed,
    dump_json,
    fields_of,
    load_json,
    open_jsonl,
    write_jsonl,
)
from .validation import (
    REJECT_SYNTAX,
    ValidationReport,
    deduplicate,
    relevance_codes,
    resolve_references,
    validate_syntax,
)

logger = logging.getLogger(__name__)

FILES = {
    "catalog": "catalog.json",
    "subschemas": "subschemas.jsonl",
    "records": "records.jsonl",
    "kept": "kept.jsonl",
    "coverage": "coverage.json",
    "facets_csv": "coverage_facets.csv",
    "clauses_csv": "coverage_clauses.csv",
    "training": "training.jsonl",
    "labels": "labels.jsonl",
    "manifest": "manifest.json",
}


@dataclass
class BatchAccounting:
    batch: int
    generated: int = 0
    kept: int = 0
    rejected: int = 0
    dedup_dropped: int = 0
    rejected_by_reason: dict = field(default_factory=dict)
    llm_calls: int = 0
    llm_failures: int = 0


def make_backend(config: PipelineConfig):
    if config.llm.backend == "stub":
        return StubBackend(config.llm.stub_dir)
    return HttpBackend(
        url=config.llm.url,
        model=config.llm.model,
        auth_env=config.llm.auth_env,
        timeout=config.llm.timeout,
    )


def run_pipeline(config: PipelineConfig, resume: bool = False) -> dict:
    """Run the full pipeline; returns the manifest dict (also written to
    ``manifest.json``). Stage-fatal errors raise after the manifest-so-far
    is flushed; per-item failures are recorded and never abort."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / name for key, name in FILES.items()}
    manifest_prev = load_json(paths["manifest"]) if resume and paths["manifest"].exists() else None
    if manifest_prev is not None:
        check_resume(manifest_prev.get("config") or {}, config)

    # -- preprocessing -----------------------------------------------------
    if resume and paths["catalog"].exists():
        catalog = load_catalog(paths["catalog"])
    else:
        catalog = build_catalog(config)
        save_catalog(catalog, paths["catalog"])

    # -- subschema enumeration ----------------------------------------------
    if resume and paths["subschemas"].exists():
        subschemas = load_subschemas(paths["subschemas"])
    else:
        subschemas = build_subschemas(config, catalog)
        save_subschemas(subschemas, paths["subschemas"])

    # -- generation loop -----------------------------------------------------
    # the batch accounting lives in the manifest: without it, generate again
    if manifest_prev is not None and paths["kept"].exists() and paths["records"].exists():
        batches = decode_in(
            list[BatchAccounting], manifest_prev.get("batches", []), paths["manifest"],
            path=("batches",),
        )
        gaps_remaining = manifest_prev.get("counts", {}).get("gaps_remaining", 0)
    else:
        backend = make_backend(config) if config.llm.enabled else None
        try:
            batches, gaps_remaining = _generate(
                config, catalog, subschemas, backend, paths
            )
        finally:
            if backend is not None:
                backend.close()

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "manifest",
        "name": config.name,
        "seed": config.seed,
        "config": config_snapshot(config),
        "files": {
            key: FILES[key]
            for key in ("catalog", "subschemas", "records", "kept",
                        "coverage", "facets_csv", "clauses_csv")
            if paths[key].exists()
        },
        "batches": [fields_of(b) for b in batches],
        "counts": {
            "tables": len(catalog.tables),
            "fk_edges": len(catalog.fk_edges),
            "subschemas": len(subschemas),
            "batches": len(batches),
            "generated": sum(b.generated for b in batches),
            "kept": sum(b.kept for b in batches),
            "rejected": sum(b.rejected for b in batches),
            "dedup_dropped": sum(b.dedup_dropped for b in batches),
            "llm_calls": sum(b.llm_calls for b in batches),
            "llm_failures": sum(b.llm_failures for b in batches),
            "gaps_remaining": gaps_remaining,
        },
        "rejected_by_reason": _merge_reason_counts(batches),
    }

    # manifest reflects completed stages even if a later stage fails
    dump_json(manifest, paths["manifest"])

    # the later stages read the kept corpus back from its file
    if config.selection.size is not None or config.execution.enabled:
        kept_records = load_records(paths["kept"])

    # -- training-subset selection ----------------------------------------------
    if config.selection.size is not None:
        training = select_training_subset(
            kept_records, config.selection.size, config.selection.mode
        )
        write_jsonl(paths["training"], "training_ids", ({"query_id": r.id} for r in training))
        manifest["files"]["training"] = FILES["training"]
        manifest["counts"]["training_selected"] = len(training)
        dump_json(manifest, paths["manifest"])

    # -- execution labeling ---------------------------------------------------
    if config.execution.enabled:
        labels, label_counts = label_corpus(config.execution, catalog, kept_records, out)
        save_labels(labels, paths["labels"])
        manifest["files"]["labels"] = FILES["labels"]
        manifest["counts"].update(label_counts)
        dump_json(manifest, paths["manifest"])

    return manifest


def _merge_reason_counts(batches) -> dict:
    merged: dict = {}
    for batch in batches:
        for reason, count in batch.rejected_by_reason.items():
            merged[reason] = merged.get(reason, 0) + count
    return dict(sorted(merged.items()))


def build_catalog(config: PipelineConfig):
    """Ingest the DDL, infer foreign keys and profile columns, as configured."""
    schema = config.schema
    catalog = ingest_ddl(Path(schema.ddl).read_text(encoding="utf-8"), name=config.name)
    if schema.infer_fks:
        prefixes = derive_column_prefixes(catalog)
        prefixes.update(schema.prefixes)
        catalog = infer_foreign_keys(catalog, prefixes)
    if schema.sample_data_dir:
        catalog = profile_columns(
            catalog,
            CsvDirSampler(schema.sample_data_dir, catalog),
            sample_cap=schema.sample_cap,
            enum_threshold=schema.enum_threshold,
            label_columns={tuple(column.split(".", 1)) for column in schema.label_columns},
        )
    return catalog


def build_subschemas(config: PipelineConfig, catalog):
    """Enumerate the connected table subsets the subschema policy allows."""
    return enumerate_subschemas(
        build_join_graph(catalog),
        max_tables=config.subschema.max_tables,
        min_tables=config.subschema.min_tables,
        safety_limit=config.subschema.safety_limit,
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _generate(config, catalog, subschemas, backend, paths):
    """Generate, validate and steer batch by batch, prompting ``backend``
    (None when the LLM is off). Appends each batch's rows to the candidates
    not kept and the kept corpus as the batch settles, and writes coverage
    at the end. Returns the batches' accounting and the gaps left open."""
    subschema_by_id = {s.id: s for s in subschemas}
    mech_pools: dict[str, list[SeedExample]] = {}
    seen_forms: set[str] = set()  # normalized forms of the kept corpus
    folds: dict[str, CoverageFold] = {}  # the kept corpus's totals per setting label
    batches: list[BatchAccounting] = []
    directives = RegenDirectives()

    check = (catalog, subschema_by_id, config.validators)
    remote = backend is not None and config.llm.backend == "http"
    # the files open once the analysis child is forked, so it inherits neither
    with (ChildAnalysis if remote else InlineAnalysis)(check) as analysis, \
            _appending(paths["records"], paths["kept"]) as files:
        batch = 0
        while True:
            accounting = BatchAccounting(batch=batch)
            # closed on any error, so that the batch's queued requests are not sent
            with closing(generate_batch(
                config, catalog, subschemas, mech_pools, directives, backend, batch,
                accounting, analysis,
            )) as chunks:
                settle_batch(chunks, seen_forms, accounting, files, folds)
            batches.append(accounting)

            # the overall coverage of the cumulative kept corpus steers the next batch
            gaps_remaining = 0
            if folds:
                overall = _merged(folds).report("all", catalog, config.coverage)
                gaps_remaining = len(overall.gap_list)
                directives = plan_regeneration(overall, subschemas, catalog)

            batch += 1
            if batch > config.loop_limit:
                break
            if gaps_remaining == 0:
                break
            kept = sum(b.kept for b in batches)
            if config.kept_target is not None and kept >= config.kept_target:
                break

    write_coverage(_setting_reports(folds, catalog, config.coverage), paths["coverage"])
    return batches, gaps_remaining


@contextmanager
def _appending(*paths):
    """The JSONL files of query records at ``paths``, each open under the
    name ``<name>.part`` to append rows to. When the block ends they are
    moved onto ``paths``, in order; if it raises they are deleted, so a
    file at one of ``paths`` is always whole."""
    parts = [path.with_name(path.name + ".part") for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open_jsonl(part, "query_records")) for part in parts]
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    for part, path in zip(parts, paths):
        os.replace(part, path)


#: The share of each mechanical batch's subschemas that no prompt draws on,
#: from the first, that :func:`generate_batch` makes in the parent while
#: the analysis child makes the others; on the HTTP path the parent makes
#: the prompted subschemas too, first, so it makes 3 + 12 of the demo's 32
#: and the child 17. A constant, not a measured split, so each side's
#: share, and the counts a trace takes of it, repeat from call to call. On
#: ``steer_loop``, in alternating in-process calls on a shared 2-core host
#: (seeds 902-905, 12 calls per share), the median call took 1.124, 1.013,
#: 0.949 and 1.069 s at 40%; 1.135, 1.028, 1.003 and 1.064 s at 50%; 1.210
#: and 1.085 s at 60% and 1.349 and 1.155 s at 70% (seeds 902-903); 0.967
#: and 1.057 s at 35% (seeds 904-905).
PARENT_MECH_SHARE = 0.4


def generate_batch(
    config, catalog, subschemas, mech_pools, directives, backend, batch, accounting, analysis,
):
    """One batch of candidates, prompting ``backend`` (None for none) and
    analysed by ``analysis`` (:class:`ChildAnalysis` or
    :class:`InlineAnalysis`). The parent makes the queries of the
    subschemas the batch prompts for first, adding them to the seed pools
    ``mech_pools`` and sending each one's prompts as soon as its pool is
    filled, then the first :data:`PARENT_MECH_SHARE` of the other
    subschemas' queries, while the analysis makes the rest
    (``analysis.submit(make_mechanical, ...)``). ``run`` makes
    each batch here; ``gen-mech`` makes batch 0 with no backend and an
    analysis without a check, which validates nothing, and ``gen-llm`` with
    ``mech_per_subschema`` 0, so that its prompts draw on the pools it read.

    Yields the candidates in candidate order, mechanical in subschema order
    then LLM in prompt order, as lists of consecutive candidates, each as
    soon as it and every candidate before it exist: the parent's subschemas
    up to the analysis's first, the rest once the analysis's share is in,
    then each prompt's records as its request and analysis end, counting
    the calls and failures into ``accounting``. So the caller settles the
    batch while the rest of it is made. SqlsynthError names the batch if
    the analysis child dies."""
    n = config.mech_per_subschema
    prompted = [] if backend is None else _choose_subschemas(config, subschemas, directives, batch)
    prompted_ids = {subschema.id for subschema in prompted}
    # gen-llm's batch makes no mechanical query: its seed pools come filled
    others = [s for s in subschemas if s.id not in prompted_ids] if n else []
    split = math.ceil(PARENT_MECH_SHARE * len(others))
    seed = derive_seed(config.seed, "mechanical-batch", batch)
    args = (catalog, config.mechanical, n, seed, batch)
    made: dict[str, list[QueryRecord]] = {}  # subschema id -> its records

    def add(records):
        for record in records:
            made.setdefault(record.subschema_id, []).append(record)
            mech_pools.setdefault(record.subschema_id, []).append(SeedExample.from_record(record))

    with PromptRequests(config, catalog, directives, backend, batch, analysis) as requests:
        tail = analysis.submit(make_mechanical, others[split:], *args)
        for subschema in prompted:
            if n:
                add(make_mechanical([subschema], *args, analysis.check))
            requests.send(subschema, mech_pools.get(subschema.id, []))
        for subschema in others[:split]:
            add(make_mechanical([subschema], *args, analysis.check))
        # the parent's subschemas up to the analysis's first, then the rest
        ahead = next((i for i, s in enumerate(subschemas) if s.id not in made), len(subschemas))
        if ahead:
            yield [record for subschema in subschemas[:ahead] for record in made[subschema.id]]
        try:
            add(tail.result())
        except BrokenExecutor as exc:
            raise SqlsynthError(
                f"mechanical batch {batch}: the analysis process died ({exc})"
            ) from exc
        if n and ahead < len(subschemas):
            yield [record for subschema in subschemas[ahead:] for record in made[subschema.id]]
        yield from requests.records(accounting)


def make_mechanical(subschemas, catalog, mech, n: int, seed: int, batch: int, check=None):
    """``n`` mechanical queries over each of ``subschemas`` in turn
    (:func:`~sqlsynth.mechgen.generate_mechanical` with ``mech`` and
    ``seed``), marked with ``batch`` and, given ``check``, validated
    (:func:`validate_record`). A pure function of its arguments, so it
    gives the same records in the analysis child as in the parent."""
    records = []
    for subschema in subschemas:
        for record in generate_mechanical(subschema, catalog, mech, n, seed=seed):
            record.batch = batch
            if check is not None:
                validate_record(record, *check)
            records.append(record)
    return records


def validate_record(record, catalog, subschema_by_id, validators) -> None:
    """Validate one candidate from a single tree and resolution, against its
    subschema in ``subschema_by_id``.

    Takes the tree a mechanical record was built as (``record.tree``), or
    parses ``record.sql`` for an LLM record or one read from a file, which
    have none, and the normalized forms the record holds (``record.forms``,
    from :func:`~sqlsynth.records.make_record`), or scans ``record.sql`` for
    them for a record read from a file; both are dropped. Sets
    ``record.validation`` and ``record.profile``: an accepted candidate's
    profile is read off the same resolution, and its report holds its dedup
    key, which is chosen here only: the normalized form under
    ``validators.literal_placeholder_dedup``. A rejected one's profile is
    None.
    """
    forms, tree = record.forms, record.tree
    record.forms = record.tree = None
    record.profile = None
    try:
        if tree is None:
            tree = validate_syntax(record.sql)
    except SqlsynthError:
        record.validation = ValidationReport(rejection_reasons=[REJECT_SYNTAX])
        return
    refs = resolve_references(tree, catalog)
    subschema = subschema_by_id.get(record.subschema_id)
    codes = relevance_codes(refs, subschema, validators.require_exact_tables)
    if codes:
        record.validation = ValidationReport(rejection_reasons=codes)
        return
    literal, placeholder = forms if forms is not None else normalized_forms(record.sql)
    key = placeholder if validators.literal_placeholder_dedup else literal
    record.validation = ValidationReport(normalized_form=key)
    record.profile = profile_tree(refs)


def settle_batch(chunks, seen_forms, accounting, files, folds) -> None:
    """Settle one batch of validated candidates, which come as ``chunks``,
    lists of consecutive candidates in candidate order: each chunk as it
    arrives (:func:`settle_chunk`), so that a batch still being made is
    settled as far as it exists. The batch's duplicates are counted into
    ``accounting.rejected_by_reason`` last, after every validator reason."""
    for chunk in chunks:
        settle_chunk(chunk, seen_forms, accounting, files, folds)
    if accounting.dedup_dropped:
        accounting.rejected_by_reason["duplicate"] = accounting.dedup_dropped


def settle_chunk(chunk, seen_forms, accounting, files, folds) -> None:
    """Settle consecutive validated candidates of a batch: count them into
    ``accounting``, deduplicate the accepted ones against ``seen_forms``
    (the kept corpus's normalized forms, extended in place; a duplicate
    loses its profile), append the rows of the candidates not kept
    (rejected or duplicates) to ``files[0]`` and those of the newly kept to
    ``files[1]``, each in candidate order, and fold the newly kept profiles
    into ``folds`` (:func:`_fold_by_setting`). So each candidate's row is
    written once."""
    accounting.generated += len(chunk)
    accepted: list[QueryRecord] = []
    for record in chunk:
        if record.validation.accepted:
            accepted.append(record)
        else:
            accounting.rejected += 1
            for reason in record.validation.rejection_reasons:
                accounting.rejected_by_reason[reason] = (
                    accounting.rejected_by_reason.get(reason, 0) + 1
                )
    kept, dropped = deduplicate(accepted, seen=seen_forms)
    accounting.kept += len(kept)
    accounting.dedup_dropped += len(dropped)
    for record in dropped:
        record.profile = None  # a duplicate is not part of the corpus
    append_jsonl(files[0], [r for r in chunk if not r.validation.accepted])
    append_jsonl(files[1], kept)
    _fold_by_setting(folds, kept)


def validate_batch(config, catalog, subschema_by_id, candidates, paths) -> BatchAccounting:
    """The ``validate`` stage: validate each of ``candidates``
    (:func:`validate_record`), then settle them as one batch
    (:func:`settle_batch`), writing the rows of those not kept to
    ``paths[0]`` and of the kept ones to ``paths[1]``. Returns the batch's
    accounting."""
    for record in candidates:
        validate_record(record, catalog, subschema_by_id, config.validators)
    accounting = BatchAccounting(batch=0)
    with _appending(*map(Path, paths)) as files:
        settle_batch([candidates], set(), accounting, files, {})
    return accounting


def analyse_completions(completions, draft: dict, check=None) -> list[QueryRecord]:
    """The records of one prompt's ``completions``: each SQL statement
    :func:`~sqlsynth.llmgen.extract_sql` finds, made a record with the
    :func:`~sqlsynth.records.make_record` arguments ``draft`` and, given
    ``check`` (the catalog, subschemas by id and validator settings of
    :func:`validate_record`), validated. A pure function of its arguments,
    so it gives the same records in the analysis child as in the parent."""
    records = []
    for completion in completions:
        for sql in extract_sql(completion):
            record = make_record(sql, ORIGIN_LLM, **draft)
            if check is not None:
                validate_record(record, *check)
            records.append(record)
    return records


class InlineAnalysis:
    """Runs the analysis's work in the calling thread when the records are
    read: ``submit(work, *args)``, ``work`` being :func:`make_mechanical` or
    :func:`analyse_completions`, returns a deferred ``work(*args,
    check=check)`` with the ``result()`` of a future. So the parent makes
    every query of a batch and analyses each prompt's completions once
    every request is in. This is the analysis of the stub backend, of a run
    with the LLM off and of ``gen-mech`` and ``gen-llm``, which give no
    ``check``: their records are not validated."""

    def __init__(self, check=None):
        self.check = check

    def submit(self, work, *args):
        return _Deferred(partial(work, *args, check=self.check))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class _Deferred:
    """A call that runs when its ``result()`` is asked for."""

    def __init__(self, call):
        self.result = call


class ChildAnalysis:
    """Makes the analysis's share of each mechanical batch (the subschemas
    no prompt draws on, after the parent's :data:`PARENT_MECH_SHARE` of
    them), then analyses each prompt's completions, in one child process,
    with the submit interface of :class:`InlineAnalysis`: :meth:`submit`,
    which :func:`generate_batch` and the request threads call, returns a
    future of finished records, validated and profiled, their forms and
    trees dropped and a mechanical record's clause tags kept. ``work`` is
    pickled by reference, so it must be a module-level function. The HTTP
    backend's path.

    The child is forked (``multiprocessing`` start method ``fork``) when the
    pool is made, before the first batch's request threads start. spawn
    and forkserver would import the package afresh in every call, about
    150-200 ms on a shared 2-core host, which a short run cannot hide. The child holds ``check``
    from its start, so a prompt's completions cross without the catalog;
    the mechanical share's arguments carry it, once per batch. It
    ignores SIGINT: a Ctrl-C stops the parent, whose ``__exit__`` then
    stops the child; and it exits by itself within a second of its parent's
    death. It neither logs nor draws random numbers. Python 3.12 and later
    warn when a process with live threads forks, as one running an
    in-process completion server does. Leaving the ``with`` block shuts
    the child down, whatever ended the block; a child that dies makes the
    batch raise SqlsynthError (see :func:`generate_batch`)."""

    def __init__(self, check):
        self.check = check
        self._pool = _fork_pool(check)
        self._pool.submit(int)  # a fork pool forks at its first submit

    def submit(self, work, *args):
        return self._pool.submit(_in_child, work, *args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(cancel_futures=True)


def _fork_pool(check):
    """A pool of one forked process that starts holding ``check``."""
    # multiprocessing is imported here, so that only the HTTP path loads it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_enter_child,
        initargs=(check,),
    )


_child_check = None  # the analysis child's ``check``, set when it starts


def _enter_child(check) -> None:
    global _child_check
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    _child_check = check


def _exit_with_parent(parent: int) -> None:
    """End the analysis child once its parent is gone, as when the parent
    is killed: the child would otherwise wait for work forever."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _in_child(work, *args):  # the analysis child's one entry point
    return work(*args, check=_child_check)


class PromptRequests:
    """One batch's prompts to ``backend``. Each prompt is sent as soon as it
    is made, ``llm.concurrency`` at a time, and its completions go to
    ``analysis`` from the request's thread as they arrive, so neither waits
    for the caller, which may be making mechanical queries meanwhile. An
    exception in a request (other than a BackendError, which counts as the
    prompt's failure) sends no queued request, and neither does leaving the
    ``with`` block: at most the requests in flight end."""

    def __init__(self, config, catalog, directives, backend, batch: int, analysis):
        self.config, self.catalog, self.directives = config, catalog, directives
        self.backend, self.batch, self.analysis = backend, batch, analysis
        self.settings = _batch_settings(config, directives)
        self._pool = ThreadPoolExecutor(max_workers=config.llm.concurrency)
        self._failed = threading.Event()
        self._sent: list = []  # (subschema, setting, request future) in prompt order

    def send(self, subschema, pool) -> None:
        """Prompt for ``subschema`` once per setting, with seed examples
        drawn from ``pool``; a setting wanting more shots than ``pool``
        holds is skipped."""
        config, batch = self.config, self.batch
        for setting in self.settings:
            if len(pool) < setting.shots:
                logger.warning(
                    "skipping %s on %s: pool of %d can't seed %d shots",
                    setting.label, subschema.id, len(pool), setting.shots,
                )
                continue
            examples = select_seed_examples(
                pool,
                setting.shots,
                bias=None if setting.bias == "none" else setting.bias,
                bias_weight=0.9,
                rng_seed=derive_seed(config.seed, "examples", batch, subschema.id, setting.label),
            )
            prompt = build_prompt(
                subschema,
                self.catalog,
                setting,
                examples,
                column_filter=self.directives.column_filters or None,
            )
            draft = {
                "subschema_id": subschema.id,
                "batch": batch,
                "prompt_setting": setting,
                "prompt_hash": prompt_hash(prompt),
                "model_name": config.llm.model,
                "generation_params": config.llm.params,
            }
            request = self._pool.submit(self._request, prompt, draft)
            self._sent.append((subschema, setting, request))

    def _request(self, prompt, draft):
        """Runs in a request thread: the analysis's future of the prompt's
        records, or the BackendError of its last attempt."""
        if self._failed.is_set():
            raise CancelledError  # an earlier request failed the batch
        try:
            retries = self.config.llm.retries
            for attempt in range(retries + 1):
                try:
                    completions = generate_llm(prompt, self.backend, self.config.llm.params)
                except BackendError as exc:
                    if not exc.retryable or attempt == retries:
                        return exc
                else:
                    return self.analysis.submit(analyse_completions, completions, draft)
        except BaseException:
            self._failed.set()
            raise

    def records(self, accounting):
        """Yield the list of records of each prompt's completions, in prompt
        order, as soon as the prompt's request and analysis end, counting
        the calls and failures into ``accounting``. SqlsynthError names the
        batch if the analysis child dies."""
        try:
            for subschema, setting, request in self._sent:
                accounting.llm_calls += 1
                outcome = request.result()
                if isinstance(outcome, BackendError):
                    accounting.llm_failures += 1
                    logger.warning(
                        "backend failure for %s on %s: %s", setting.label, subschema.id, outcome
                    )
                    continue
                yield outcome.result()
        except BrokenExecutor as exc:
            raise SqlsynthError(
                f"LLM batch {self.batch}: the analysis process died ({exc})"
            ) from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(cancel_futures=True)  # send no queued request


def _choose_subschemas(config, subschemas, directives, batch):
    count = min(config.subschema.llm_sample_count, len(subschemas))
    rng = random.Random(derive_seed(config.seed, "subschema-choice", batch))
    weights = directives.subschema_weights or {}
    # weighted sampling without replacement (exponential-key trick)
    keyed = sorted(
        subschemas,
        key=lambda s: rng.random() ** (1.0 / weights.get(s.id, 1.0)),
        reverse=True,
    )
    return keyed[:count]


def _batch_settings(config, directives):
    settings = list(config.llm.settings)
    if directives.bias_override:
        overridden = [PromptSetting(shots=s.shots, bias=directives.bias_override)
                      for s in settings]
        unique = []
        for setting in overridden:
            if setting not in unique:
                unique.append(setting)
        return unique
    return settings


def coverage_reports(config, catalog, kept_records) -> list[CoverageReport]:
    """Coverage of a profiled kept corpus: one report per setting label, in
    label order, then the overall report ``"all"`` last. No reports for an
    empty corpus."""
    folds: dict[str, CoverageFold] = {}
    _fold_by_setting(folds, kept_records)
    return _setting_reports(folds, catalog, config.coverage)


def _fold_by_setting(folds, kept_records) -> None:
    """Add each kept record's profile to the fold of its setting label in
    ``folds``, making the fold of a label not seen before."""
    for record in kept_records:
        fold = folds.get(record.setting_label)
        if fold is None:
            fold = folds[record.setting_label] = CoverageFold()
        fold.add((record.profile,))


def _merged(folds) -> CoverageFold:
    """The fold of the whole corpus whose setting labels' ``folds`` these are."""
    overall = CoverageFold()
    for fold in folds.values():
        overall.merge(fold)
    return overall


def _setting_reports(folds, catalog, targets) -> list[CoverageReport]:
    """The reports of :func:`coverage_reports`, read off the corpus's
    ``folds`` (setting label -> fold)."""
    if not folds:
        return []
    reports = [folds[label].report(label, catalog, targets) for label in sorted(folds)]
    return reports + [_merged(folds).report("all", catalog, targets)]


def write_coverage(reports, path) -> None:
    """Write ``coverage.json`` to ``path`` and, when there are reports, the
    facet and clause CSVs next to it."""
    path = Path(path)
    dump_json({"schema_version": SCHEMA_VERSION, "kind": "coverage", "reports": reports}, path)
    if reports:
        write_csv(facet_stats_rows(reports), path.with_name(FILES["facets_csv"]))
        write_csv(clause_presence_rows(reports), path.with_name(FILES["clauses_csv"]))


#: The name ``perfbench/run.py`` probes the execution stage by, until its
#: probes name the stage itself (ROADMAP item 10).
_execute = label_corpus
