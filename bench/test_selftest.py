"""Self-tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/test_selftest.py
"""

from __future__ import annotations

import pytest

import checks
import gen
import run
import spans

run.import_journet()
journet = run.journet


def test_generator_is_deterministic(tmp_path):
    first = gen.write_tables(gen.generate(5, 80), tmp_path / "a")
    second = gen.write_tables(gen.generate(5, 80), tmp_path / "b")
    for name in gen.TABLES:
        assert first[name].read_bytes() == second[name].read_bytes()
    assert gen.generate(6, 80) != gen.generate(5, 80)


def test_generator_follows_its_distributions():
    tables = gen.generate(3, 400)
    model = checks.CsvModel(tables)
    teams = list(model.team.values())
    assert {len(t) for t in teams} == set(gen.TEAM_SIZE_WEIGHTS)
    slots = sum(len(t) for t in teams)
    assert abs(len(model.authors) / slots - gen.NEW_AUTHOR_SHARE) < 0.02
    written = [sum(aid in t for t in teams) for aid in model.authors]
    # Preferential attachment gives a heavy tail: most authors write one
    # paper, the most productive ones tens.
    assert sorted(written)[len(written) // 2] == 1 and max(written) >= 20
    assert {len(c) for c in model.codes.values()} == set(gen.PACS_PER_PAPER_WEIGHTS)
    assert len(set().union(*model.codes.values())) <= gen.PACS_CODE_COUNT
    assert {len(k) for k in model.keys.values()} == set(gen.REFS_PER_PAPER)
    assert abs(len(model.arcs) / model.reference_rows - gen.INTERNAL_SHARE) < 0.02
    assert len(model.issues) == 20


def one_pass(ops):
    tally = run.Tally()
    results, _ = run.time_ops(ops)
    run.record(ops, results, tally)
    return tally


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    journal = run.Journal("j0", 4, 40, tmp_path_factory.mktemp("survey"))
    run.call_cli(journal.ingest_argv())
    ops = run.survey_ops(journal)
    return ops, one_pass(ops)


def pinned(tally):
    return {label: {k: checks.sha256(v) for k, v in texts.items()} for label, (_, texts) in tally.first.items()}


def test_checks_pass_on_true_outputs(survey):
    ops, tally = survey
    assert run.verify(ops, tally, pinned(tally)) == (0, [])


def flip_one_byte(text: str) -> str:
    i = len(text) // 2
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("label, name", [
    ("stats coauthorship", "stdout"),
    ("distribution coupling", "out"),
    ("evolution coauthorship mean_clustering", "out"),
    ("export pajek cocitation", "out"),
    ("export adjacency coauthorship", "out"),
])
def test_one_byte_change_fails_the_pinned_digest(survey, label, name):
    ops, tally = survey
    golden = pinned(tally)
    raw, texts = tally.first[label]
    tally.first[label] = (raw, {**texts, name: flip_one_byte(texts[name])})
    try:
        failed, problems = run.verify(ops, tally, golden)
    finally:
        tally.first[label] = (raw, texts)
    assert failed >= 1
    assert any(p.startswith(label) for p in problems)


def test_one_byte_change_fails_structural_checks_without_digests(survey):
    ops, tally = survey
    raw, texts = tally.first["export pajek coupling"]
    lines = texts["out"].splitlines(keepends=True)
    lines[-1] = lines[-1].rstrip("\n")[:-1] + "9\n"  # the last edge's weight
    tally.first["export pajek coupling"] = (raw, {**texts, "out": "".join(lines)})
    try:
        failed, problems = run.verify(ops, tally, None)
    finally:
        tally.first["export pajek coupling"] = (raw, texts)
    assert failed >= 1
    assert any("parsed file differs from build_layer" in p for p in problems)


def test_changed_output_between_passes_counts_as_failed(survey):
    ops, tally = survey
    label = "stats paper-citation"
    tally.digests[label].append("0" * 64)
    try:
        failed, problems = run.verify(ops, tally, None)
    finally:
        tally.digests[label].pop()
    assert failed == 1
    assert any("changed between passes" in p for p in problems)


def test_session_and_dendrogram_checks_pass(tmp_path):
    journal = run.Journal("j0", 9, 40, tmp_path / "j0")
    run.call_cli(journal.ingest_argv())
    journal.load()
    for ops in (run.related_ops(journal, 9), run.communities_ops([journal])):
        tally = one_pass(ops)
        assert run.verify(ops, tally, None) == (0, [])


def test_missing_wrapped_function_marks_its_metrics_absent(tmp_path, monkeypatch):
    journal = run.Journal("j0", 4, 40, tmp_path / "j0")
    run.call_cli(journal.ingest_argv())
    stats_ops = [op for op in run.survey_ops(journal) if op.label.startswith("stats")]
    monkeypatch.setitem(spans.WRAPPED, "metrics", spans.WRAPPED["metrics"] + ("no_such_function",))
    monkeypatch.setitem(run.SPAN_METRICS, "metrics.gone_calls", ("count", "metrics.no_such_function", "calls"))
    monkeypatch.setitem(run.NEEDS, "metrics.gone_calls", {"metrics.no_such_function"})
    tracer = spans.Tracer()
    passes = run.measure(run.Workload([journal], stats_ops, False, ()), 0, run.Tally(), tracer)
    assert len(passes.setup) == 2 * run.SETUPS_PER_PASS
    metrics, missing = run.layer_metrics(tracer, 0, passes, stats_ops, None)
    assert tracer.absent == ["metrics.no_such_function"]
    assert "metrics.gone_calls" in missing and "metrics.gone_calls" not in metrics
    assert "communities.edge_betweenness_once_s" in missing
    assert metrics["metrics.bfs_calls"]["value"] > 0
    assert metrics["trace.span_share"]["value"] == pytest.approx(1.0, abs=0.01)


def test_tracer_catches_nested_calls_and_restores(survey):
    ops, _ = survey
    original = journet.cli.build_layer
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = one_pass([op for op in ops if op.label == "evolution coauthorship mean_clustering"])
    finally:
        tracer.uninstall()
    assert journet.cli.build_layer is original
    assert tracer.absent == []
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.evolution"
    assert names.count("corpus.snapshot") == names.count("metrics.metrics_report") == 20
    selfs = spans.self_times(tracer.spans, 0, len(tracer.spans))
    top = tracer.spans[0]
    assert sum(selfs) == pytest.approx(top[2] - top[1])
    assert tally.attempted == 1
