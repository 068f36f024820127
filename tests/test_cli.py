import contextlib
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psp_centrality import UncertainGraph, load_graph, save_graph
from psp_centrality.cli import main
from psp_centrality.scores_io import read_scores, write_scores
from psp_centrality.deterministic import CentralityVector

from conftest import random_uncertain_graph


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_er_roundtrip(tmp_path):
    out = tmp_path / "g.el"
    assert run("generate", "er", "--n", 100, "--p", 0.05, "--prob", "uniform",
               "--seed", 7, "-o", out) == 0
    g = load_graph(out)
    assert g.node_count == 100
    assert g.edge_count > 0
    assert np.all((g.probs >= 0.0) & (g.probs <= 1.0))


def test_generate_ba_edge_count(tmp_path):
    out = tmp_path / "g.el"
    assert run("generate", "ba", "--n", 50, "--m", 5, "--seed", 1, "-o", out) == 0
    assert load_graph(out).edge_count == 230


def test_generate_usage_error(tmp_path, capsys):
    for options, message in [
        (("er", "--p", 1.5), "er needs p in [0, 1]"),
        (("er", "--p", 0.5, "--seed", -1), "seed must be >= 0"),
        (("rh", "--k", "nan", "--gamma", 3), "rh needs a finite k > 0"),
        (("rh", "--k", "inf", "--gamma", 3), "rh needs a finite k > 0"),
        (("rh", "--k", 6, "--gamma", "nan"), "rh needs a finite gamma > 2"),
        (("rh", "--k", 6, "--gamma", "inf"), "rh needs a finite gamma > 2"),
        (("rh", "--k", 6, "--gamma", 3), "rh cannot reach average degree k=6 with n=10 nodes"),
        (("rh", "--k", 3, "--gamma", 400),
         "rh cannot calibrate average degree k=3 with n=10 nodes and gamma=400"),
    ]:
        with pytest.raises(SystemExit) as exc:
            run("generate", *options, "--n", 10, "-o", tmp_path / "x.el")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # The usage lines, then one error line; no warning or traceback.
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert message in line
        assert "Warning" not in err and "Traceback" not in err


def test_centrality_commands_and_determinism(tmp_path):
    graph_path = tmp_path / "g.el"
    g = random_uncertain_graph(np.random.default_rng(3), n=10, edge_prob=0.35, max_uncertain=8)
    save_graph(g, graph_path)

    for method, extra in [
        ("psp-harmonic", ["--phi", "0.8"]),
        ("psp-betweenness", ["--phi", "0.8"]),
        ("mc-harmonic", ["--samples", "2000", "--seed", "5"]),
        ("mc-betweenness", ["--samples", "1000", "--seed", "5"]),
        ("exact-harmonic", []),
        ("exact-betweenness", []),
    ]:
        outputs = []
        worker_opts = [[]] if method.startswith("exact") else [["--workers", "1"], ["--workers", "4"]]
        for i, wopt in enumerate(worker_opts * 2):
            out = tmp_path / f"{method}-{i}.scores"
            assert run(method, graph_path, "-o", out, *extra, *wopt) == 0
            outputs.append(out.read_bytes())
        assert all(blob == outputs[0] for blob in outputs)


def test_exact_refuses_above_cap(tmp_path, capsys):
    graph_path = tmp_path / "big.el"
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    save_graph(UncertainGraph(8, edges, [0.5] * len(edges)), graph_path)
    code = run("exact-harmonic", graph_path, "-o", tmp_path / "s.scores", "--cap", "20")
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_psp_phi_zero_gives_zero_scores(tmp_path, detour):
    graph_path = tmp_path / "g.el"
    save_graph(detour, graph_path)
    out = tmp_path / "h.scores"
    assert run("psp-harmonic", graph_path, "-o", out, "--phi", "0", "--workers", "1") == 0
    assert not read_scores(out).scores.any()


def test_compare_same_file(tmp_path, capsys):
    graph_path = tmp_path / "g.el"
    save_graph(random_uncertain_graph(np.random.default_rng(8), n=8), graph_path)
    scores = tmp_path / "a.scores"
    assert run("psp-harmonic", graph_path, "-o", scores, "--workers", "1") == 0
    assert run("compare", scores, scores) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method_a"]["phi"] == 0.8  # a number, as written, not the string "0.8"
    assert report["mae"] == 0.0
    assert report["scc"] == pytest.approx(1.0, abs=1e-12)


def test_compare_node_mismatch(tmp_path, capsys):
    a = tmp_path / "a.scores"
    b = tmp_path / "b.scores"
    write_scores(a, CentralityVector(np.zeros(3), method="x", params={}))
    write_scores(b, CentralityVector(np.zeros(4), method="x", params={}))
    assert run("compare", a, b) == 1
    assert "mismatch" in capsys.readouterr().err


def test_compare_constant_ranking_is_a_one_line_error(tmp_path, capsys):
    a = tmp_path / "a.scores"
    write_scores(a, CentralityVector(np.zeros(3), method="psp-harmonic", params={"phi": 0.0}))
    for fmt in ("json", "csv"):
        assert run("compare", a, a, "--format", fmt) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: constant ranking: Spearman correlation undefined\n"


def test_compare_csv_row(tmp_path, capsys):
    graph_path = tmp_path / "g.el"
    save_graph(random_uncertain_graph(np.random.default_rng(8), n=8), graph_path)
    a = tmp_path / "a.scores"
    b = tmp_path / "b.scores"
    assert run("psp-harmonic", graph_path, "-o", a, "--workers", "1") == 0
    assert run("mc-harmonic", graph_path, "-o", b, "--samples", "500", "--seed", "2",
               "--workers", "1") == 0
    assert run("compare", a, b, "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("graph_id,model,prob_dist,measure,method")
    assert "psp-harmonic" in lines[1]


def test_reproduce_figure_examples(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    assert run("reproduce", "figure-examples", "--out-dir", out_dir) == 0
    stdout = capsys.readouterr().out
    assert "2.05" in stdout
    assert "2.0864" in stdout
    payload = json.loads((out_dir / "figure_examples.json").read_text())
    assert payload["detour"]["estimated_d_er"] == pytest.approx(2.05, abs=1e-9)
    assert payload["detour"]["exact_d_er"] == pytest.approx(1.69 / 0.81, abs=1e-9)
    assert payload["parallel_paths"]["estimated_d_er"] == pytest.approx(2.0, abs=1e-12)


def test_reproduce_sweep_smoke(tmp_path):
    out_dir = tmp_path / "sweep"
    assert run(
        "reproduce", "random-graph-sweep", "--out-dir", out_dir,
        "--graphs-per-cell", 1, "--n", 60, "--samples", 200,
        "--phi-grid", "0.4,0.8", "--seed", 9, "--jobs", 2,
    ) == 0
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    # header + 3 models * 2 dists * 1 graph * 2 measures * 2 phi values
    assert len(lines) == 1 + 24
    assert (out_dir / "summary.json").exists()


def test_reproduce_sweep_rerun_identical(tmp_path):
    args = ["reproduce", "random-graph-sweep", "--graphs-per-cell", 1, "--n", 60,
            "--samples", 100, "--phi-grid", "0.8", "--seed", 4]
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert run(*args, "--jobs", 1, "--out-dir", d1) == 0
    assert run(*args, "--jobs", 2, "--out-dir", d2) == 0
    strip = lambda p: "\n".join(
        ",".join(col for i, col in enumerate(line.split(",")) if i not in (9, 10))
        for line in (p / "sweep.csv").read_text().splitlines()
    )
    assert strip(d1) == strip(d2)  # identical apart from runtime columns


def test_sweep_rejects_a_bad_phi_grid_before_running(tmp_path, capsys, monkeypatch):
    from psp_centrality import evaluation, experiments

    calls = []  # every graph generated and every MC pass run

    def recording(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    for module, name in ((evaluation, "mc_harmonic"), (evaluation, "mc_betweenness"),
                         (experiments, "mc_harmonic_betweenness"), (experiments, "generate")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    out_dir = tmp_path / "sweep"
    # A negative seed, a graph count or sample count below 1, and a model that
    # cannot be built at the sweep's n, are refused at the same point.
    for option, message in [
        (("--phi-grid", "0.5,1.5"), "phi must lie in [0, 1]"),
        (("--phi-grid", "0.5,"), "--phi-grid item '' is not a number"),
        (("--phi-grid", "0.5,x"), "--phi-grid item 'x' is not a number"),
        (("--seed", -1), "seed must be >= 0"),
        (("--graphs-per-cell", 0), "graphs_per_cell must be >= 1"),
        (("--graphs-per-cell", -2), "graphs_per_cell must be >= 1"),
        (("--samples", 0), "samples must be >= 1"),
        (("--n", 10), "rh cannot reach average degree k=6 with n=10 nodes"),
    ]:
        code = run("reproduce", "random-graph-sweep", "--out-dir", out_dir, "--graphs-per-cell", 1,
                   "--n", 20, "--samples", 50, *option, "--jobs", 1)
        assert code == 1
        assert_one_line_error(capsys, message)
        assert calls == []
        assert not out_dir.exists()


@pytest.mark.parametrize("phi", [2, "nan"])
def test_figure_examples_checks_phi_before_making_its_directory(tmp_path, capsys, phi):
    out_dir = tmp_path / "fresh"
    assert run("reproduce", "figure-examples", "--phi", phi, "--out-dir", out_dir) == 1
    assert capsys.readouterr().err.splitlines() == ["error: phi must lie in [0, 1]"]
    assert not out_dir.exists()


def test_negative_exact_cap_is_a_one_line_error(tmp_path, capsys):
    # Only certain edges: nothing to enumerate, and still the cap is refused.
    graph_path = tmp_path / "g.el"
    save_graph(UncertainGraph(3, [(0, 1), (1, 2)], [1.0, 1.0]), graph_path)
    out = tmp_path / "o.scores"
    for method in ("exact-harmonic", "exact-betweenness"):
        assert run(method, graph_path, "-o", out, "--cap", -1) == 1
        assert capsys.readouterr().err.splitlines() == ["error: cap must be >= 0"]
        assert not out.exists()
    assert run("exact-harmonic", graph_path, "-o", out, "--cap", 0) == 0


def test_sweep_settings_come_from_the_options_by_field_name(tmp_path, monkeypatch):
    from psp_centrality import experiments

    built = []

    def recording_sweep(settings):
        built.append(settings)
        return []

    monkeypatch.setattr(experiments, "phi_sweep", recording_sweep)
    monkeypatch.setattr(experiments, "write_sweep_outputs", lambda *args: None)
    assert run("reproduce", "random-graph-sweep", "--out-dir", tmp_path, "--jobs", 1) == 0
    assert built == [dataclasses.replace(experiments.SweepSettings(), jobs=1)]

    built.clear()
    assert run("reproduce", "random-graph-sweep", "--out-dir", tmp_path, "--graphs-per-cell", 2,
               "--n", 30, "--samples", 40, "--phi-grid", "0.25,0.75", "--seed", 5,
               "--jobs", 3) == 0
    assert built == [experiments.SweepSettings(graphs_per_cell=2, n=30, samples=40,
                                               phi_grid=(0.25, 0.75), seed=5, jobs=3)]


def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert fragment in lines[0]


def test_negative_node_count_header_is_a_one_line_error(tmp_path, capsys):
    graph_path = tmp_path / "neg.el"
    graph_path.write_text("# nodes -3\n")
    code = run("psp-harmonic", graph_path, "-o", tmp_path / "h.scores", "--workers", "1")
    assert code == 1
    assert_one_line_error(capsys, "line 1: negative node count")


def test_psp_phi_out_of_range_is_a_one_line_error(tmp_path, capsys, detour):
    graph_path = tmp_path / "g.el"
    save_graph(detour, graph_path)
    out = tmp_path / "h.scores"
    assert run("psp-harmonic", graph_path, "-o", out, "--phi", 1.5, "--workers", 1) == 1
    assert capsys.readouterr().err.splitlines() == ["error: phi must lie in [0, 1]"]


def test_bad_workers_variable_is_a_one_line_error(tmp_path, capsys, monkeypatch, detour):
    monkeypatch.setenv("PSP_CENTRALITY_WORKERS", "abc")
    graph_path = tmp_path / "g.el"
    save_graph(detour, graph_path)
    assert run("psp-harmonic", graph_path, "-o", tmp_path / "h.scores") == 1
    assert_one_line_error(capsys, "PSP_CENTRALITY_WORKERS must be an integer, got 'abc'")


@pytest.mark.parametrize(
    "argv,env,fragment",
    [
        (["psp-harmonic", "--workers", "0"], None, "workers must be >= 1"),
        (["psp-harmonic", "--workers", "-3"], None, "workers must be >= 1"),
        (["mc-harmonic", "--samples", "10", "--workers", "0"], None, "workers must be >= 1"),
        (["psp-betweenness"], "-5", "PSP_CENTRALITY_WORKERS must be >= 1, got '-5'"),
        (["sweep", "--jobs", "0"], None, "workers must be >= 1"),
    ],
)
def test_worker_count_below_one_is_a_one_line_error(
    tmp_path, capsys, monkeypatch, detour, argv, env, fragment
):
    if env is None:
        monkeypatch.delenv("PSP_CENTRALITY_WORKERS", raising=False)
    else:
        monkeypatch.setenv("PSP_CENTRALITY_WORKERS", env)
    graph_path = tmp_path / "g.el"
    save_graph(detour, graph_path)
    if argv[0] == "sweep":
        argv = ["reproduce", "random-graph-sweep", "--graphs-per-cell", 1, "--n", 12,
                "--samples", 10, "--phi-grid", "0.8", "--out-dir", tmp_path / "out", *argv[1:]]
    else:
        argv = [argv[0], graph_path, "-o", tmp_path / "s.scores", *argv[1:]]
    assert run(*argv) == 1
    assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "out").exists()  # the sweep makes --out-dir only after its checks


def test_compare_gap_in_node_ids_is_a_one_line_error(tmp_path, capsys):
    a = tmp_path / "a.scores"
    a.write_text("# method x\n0 0.5\n2 0.25\n")
    assert run("compare", a, a) == 1
    assert_one_line_error(capsys, "id 1 is missing")


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("# nodes 2\n0 0.5 7\n1 0.25\n", "line 3: expected '<node> <score>', got '0 0.5 7'"),
        ("# nodes two\n0 0.5\n", "line 2: # nodes is not an integer: 'two'"),
        ("# seed 1.5\n0 0.5\n", "line 2: # seed is not an integer: '1.5'"),
        ("0 nan\n", "line 2: score is not finite: 'nan'"),
        ("0 0.5\n1 -inf\n", "line 3: score is not finite: '-inf'"),
    ],
)
def test_compare_malformed_score_file_is_a_one_line_error(tmp_path, capsys, body, fragment):
    bad = tmp_path / "bad.scores"
    bad.write_text("# method x\n" + body)
    assert run("compare", bad, bad) == 1
    assert_one_line_error(capsys, f"{bad}: {fragment}")


def test_scores_io_roundtrip(tmp_path):
    vec = CentralityVector(np.array([0.25, 1 / 3, 0.0]), method="psp-harmonic",
                           params={"phi": 0.8}, seed=None)
    path = tmp_path / "v.scores"
    write_scores(path, vec)
    back = read_scores(path)
    assert np.array_equal(back.scores, vec.scores)
    assert back.method == "psp-harmonic"
    assert back.params == {"phi": 0.8}
    assert back.seed is None


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("0 0.5\n2 0.25\n", "id 1 is missing"),
        ("0 0.5\n1 0.25\n1 0.75\n", "line 4: duplicate node id 1"),
        ("# nodes 3\n0 0.5\n1 0.25\n", "header declares 3 nodes, file has 2"),
        ("# params phi=0.8)\n0 0.5\n", "bad parameter value"),
        ("0 nan\n", "line 2: score is not finite: 'nan'"),
        ("0 0.5\n1 inf\n", "line 3: score is not finite: 'inf'"),
        ("0 0.5\n1 Infinity\n", "line 3: score is not finite: 'Infinity'"),
        ("# params phi=1e999\n0 0.5\n", "line 2: bad parameter value 'phi=1e999'"),
        ("# params phi=-1e999\n0 0.5\n", "line 2: bad parameter value 'phi=-1e999'"),
    ],
)
def test_read_scores_rejects_malformed_files(tmp_path, body, fragment):
    path = tmp_path / "bad.scores"
    path.write_text("# method x\n" + body)
    with pytest.raises(ValueError, match=fragment):
        read_scores(path)


# --- fuzzed inputs ----------------------------------------------------------
# Lines are built from a small token grammar. Node ids and "# nodes" values stay
# below 100: a graph holds one adjacency list per node, so a large header would
# only test the memory of the machine.

TOKENS = ["0", "1", "2", "3", "7", "42", "99", "0.5", "-1", "nan", "inf", "1e3", "#", "nodes",
          "method", "params", "phi=", "phi=0.5", "phi=1e999", "seed", "none", "stray"]
SMALL_IDS = st.integers(min_value=0, max_value=12)
NUMBERS = st.sampled_from(["0", "1", "0.5", "1.0", "0.25", "-1", "nan", "inf", "1e3"])
HEADERS = st.sampled_from(["# method psp-harmonic", "# method mc-harmonic", "# method x",
                           "# params phi=0.8", "# params samples=10 seed=3", "# seed 3",
                           "# seed none", "# nodes", ""])
EDGE_LINES = st.tuples(SMALL_IDS, SMALL_IDS, NUMBERS).map("{0[0]} {0[1]} {0[2]}".format)
FUZZ_LINES = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join),
    HEADERS,
    st.integers(min_value=0, max_value=99).map(lambda k: f"# nodes {k}"),
    EDGE_LINES,
    st.tuples(SMALL_IDS, NUMBERS).map("{0[0]} {0[1]}".format),
)


def _text(parts):
    return "\n".join(line for part in parts for line in part) + "\n"


FUZZ_TEXT = st.lists(FUZZ_LINES, max_size=12).map(lambda lines: _text([lines]))
# Near-valid files: headers, a well-formed body, then a few fuzzed lines.
GRAPH_TEXT = st.tuples(
    st.lists(HEADERS, max_size=2),
    st.lists(EDGE_LINES, max_size=10),
    st.lists(FUZZ_LINES, max_size=2),
).map(_text)
SCORE_TEXT = st.tuples(
    st.lists(HEADERS, max_size=3),
    st.lists(st.one_of(st.floats(0, 1).map(repr), NUMBERS), max_size=8).map(
        lambda vals: [f"{i} {v}" for i, v in enumerate(vals)]),
    st.lists(FUZZ_LINES, max_size=1),
).map(_text)


def _run_quietly(*argv):
    """Run the CLI with captured streams; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, err):
    assert "Traceback" not in err
    assert code in (0, 1)
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def _reject_constant(name):
    raise AssertionError(f"compare printed {name}, which is not JSON")


@settings(max_examples=150, deadline=None)
@given(st.one_of(FUZZ_TEXT, GRAPH_TEXT), st.one_of(FUZZ_TEXT, SCORE_TEXT))
def test_fuzzed_inputs_end_in_a_result_or_a_one_line_error(graph_text, scores_text):
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.el")
        scores = os.path.join(tmp, "s.scores")
        psp_out = os.path.join(tmp, "psp.scores")
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(graph_text)
        with open(scores, "w", encoding="utf-8") as fh:
            fh.write(scores_text)
        for reader, path in ((load_graph, graph), (read_scores, scores)):
            try:
                reader(path)
            except ValueError:
                pass
        code, _, err = _run_quietly("psp-harmonic", graph, "-o", psp_out, "--workers", 1)
        _assert_clean_exit(code, err)
        pairs = [(scores, scores)] + ([(psp_out, scores)] if code == 0 else [])
        for a, b in pairs:
            code, out, err = _run_quietly("compare", a, b)
            _assert_clean_exit(code, err)
            if code == 0:
                json.loads(out, parse_constant=_reject_constant)
