"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that inputs follow the seed, that the tail rule and the
self-time arithmetic are right, that the references agree with bindet on
known cases and that tracing does not change any output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refimpl  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import CERT_TAMPERS, WORKLOADS, tamper  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def first_rounds(name, seed, work_dir, count=3):
    wl = WORKLOADS[name](seed, work_dir)
    wl.generate()
    rounds = wl.rounds()
    return [[op.describe() for op in next(rounds)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    assert first_rounds(name, 5, tmp_path) == first_rounds(name, 5, tmp_path)
    assert first_rounds(name, 5, tmp_path) != first_rounds(name, 6, tmp_path)


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(21, 3000):
        p = run.tail_percentile(n)
        assert run.samples_beyond(n, p) >= 10
        higher = [q for q in run.TAIL_LADDER if q > p]
        if higher:
            assert run.samples_beyond(n, higher[0]) < 10
        vals = list(range(n))
        assert sum(v > run.percentile(vals, p) for v in vals) == run.samples_beyond(n, p)


def test_self_time_on_hand_built_tree():
    # root [0, 100] with overlapping children A [10, 40] and B [30, 60];
    # A's child C [20, 50] sticks out of A and is clipped to [20, 40].
    tree = [
        ["root", 0, 100, -1, 0, 0],
        ["A", 10, 40, 0, 0, 0],
        ["B", 30, 60, 0, 0, 0],
        ["C", 20, 50, 1, 0, 7],
    ]
    assert spans.self_times(tree) == [50, 10, 30, 30]
    totals = spans.aggregate(tree + [["C", 70, 75, 0, 1, 3]])
    assert totals["C"] == {"calls": 2, "self_ns": 35, "count": 10}
    assert totals["root"]["self_ns"] == 45


def test_every_listed_metric_has_a_rule():
    for m in SPEC["per_layer"]:
        assert run.layer_value(m["name"], {}, 1, 10**9, 0) >= 0
    values, _ = run.end_to_end([10**6, 2 * 10**6], [3 * 10**6], [0.5], 1024, 2.0)
    assert sorted(values) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert values["latency_p50_ms"] == pytest.approx(3.0)
    assert values["ops_per_s"] == pytest.approx(2 / 0.003 / 2)
    assert values["setup_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_length_is_whole_periods(name):
    wl = WORKLOADS[name]
    for seconds in (0.1, 1, 20, 60):
        rounds = run.rounds_for(wl, seconds)
        assert rounds >= wl.PERIOD and rounds % wl.PERIOD == 0


def test_cli_failures_do_not_depend_on_the_seed(tmp_path):
    # Every period of cli-oneshot rounds holds each certificate tamper
    # equally often, so a run's expected failures (the sign_swap tampers
    # that verify accepts at the seed) are the same for every seed.
    wl_cls = WORKLOADS["cli-oneshot"]
    counts = set()
    for seed in (1, 2, 3):
        kinds = [d[2] for r in first_rounds("cli-oneshot", seed, tmp_path, wl_cls.PERIOD)
                 for d in r if d[0] == "verify" and d[1][3] == "certificate"]
        counts.add(kinds.count("sign_swap"))
    assert counts == {wl_cls.PERIOD // len(CERT_TAMPERS)}


def test_wrappers_record_under_every_caller_name():
    from bindet import construction, exact

    original = exact.det_exact
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert construction.det_exact is exact.det_exact is not original
        construction.det_exact([[1, 0], [0, 1]])  # outside an op: not recorded
        tracer.op_id = 0
        construction.det_exact([[2, 0], [0, 3]])
    finally:
        undo()
    assert construction.det_exact is original
    assert [s[0] for s in tracer.spans] == ["exact.det_exact"]


def test_references_match_bindet_on_known_cases():
    from bindet import construct_matrix, oracle
    from bindet.fibk import bound_table

    for n, a in ((10, 20), (10, -20), (33, 0), (64, 12345)):
        cert = construct_matrix(n, a)
        text, rows = refimpl.construct(n, a)
        assert cert.to_text() == text
        assert refimpl.det(rows) == a
    for n in (32, 77, 128):
        table = bound_table(n)
        assert f"theorem_bound {table.theorem_bound}\n" in refimpl.bound_text(n)
    rows = refimpl.construction_rows(18, 4)[1:]
    values = oracle.spectrum_family(rows).values
    assert tuple(refimpl.family_values(rows).tolist()) == values


def test_tampers_change_the_document():
    text, rows = refimpl.construct(12, -37)
    for kind in CERT_TAMPERS:
        damaged, _ = tamper(text, kind, 0.4, 0.7)
        assert damaged != text
    flipped, flipped_rows = tamper(refimpl.matrix_text(rows), "bit", 0.4, 0.7)
    assert sum(a != b for r, s in zip(rows, flipped_rows) for a, b in zip(r, s)) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_unchanged(name, tmp_path):
    digests = []
    for traced in (False, True):
        tracer = spans.Tracer() if traced else None
        work_dir = tmp_path / str(traced)
        work_dir.mkdir()
        wl = WORKLOADS[name](3, work_dir, tracer)
        wl.generate()
        wl.warm()
        undo = spans.install(tracer) if traced else None
        try:
            *_, digest = run.run_loop(wl, 1, tracer)
        finally:
            if undo:
                undo()
        digests.append(digest)
    assert digests[0] == digests[1]
    assert {s[4] for s in tracer.spans} >= {0}
    if name == "cli-oneshot":
        assert "cli.main" in {s[0] for s in tracer.spans}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectrum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
