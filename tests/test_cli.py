import csv
import hashlib
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dyadembed import cli, verifiers
from dyadembed.bellman import BellmanKernel, kernel_of
from dyadembed.cli import FUNCTION_KINDS, SEQUENCE_KINDS, RunConfig, main
from dyadembed.corpus import (CorpusSpec, gen_carleson_sequence, gen_test_function,
                              load_corpus, write_corpus)
from dyadembed.verifiers import (verify_buckley_classic, verify_d_embed, verify_embed,
                                 verify_embed2, verify_fd_embed, verify_folk)
from dyadembed.weights import DyadicWeight


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Six-weight corpus: fast but covers all kinds."""
    out = tmp_path_factory.mktemp("corpus")
    specs = [
        CorpusSpec("constant", 6, (1.0,)),
        CorpusSpec("random-martingale", 6, (0.1,), 1),
        CorpusSpec("random-martingale", 7, (0.3,), 2),
        CorpusSpec("spike", 7),
        CorpusSpec("lacunary", 6, (0.25,)),
        CorpusSpec("two-level-gap", 7, (1.0,)),
    ]
    return write_corpus(out, specs)


def test_gen_corpus_command(tmp_path):
    rc = main(["gen-corpus", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
    assert len(manifest["entries"]) == 50


def test_unknown_theorem_is_config_error(tmp_path):
    rc = main(["verify", "--theorem", "nonsense", "--out", str(tmp_path)])
    assert rc == 3


def test_missing_corpus_is_config_error(tmp_path):
    rc = main(["verify", "--theorem", "d-embed",
               "--corpus", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 3


def test_verify_d_embed_small(small_corpus, tmp_path):
    rc = main(["verify", "--theorem", "d-embed", "--corpus", str(small_corpus),
               "--out", str(tmp_path)])
    assert rc == 0
    results = json.loads((tmp_path / "certificates_d-embed.json").read_text())
    assert len(results) == 6
    assert all(r["verdict"] == "pass" for r in results)
    with open(tmp_path / "summary_d-embed.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "depth", "lhs", "rhs", "ratio", "verdict"]
    assert len(rows) == 7


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_verify_buc_classic_reports_without_assertion(small_corpus, tmp_path):
    # report-only ratios: verdict pass, constant null, strict JSON
    for theorem in ("buc-classic", "folk"):
        rc = main(["verify", "--theorem", theorem, "--corpus", str(small_corpus),
                   "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / f"certificates_{theorem}.json").read_text()
        results = json.loads(text, parse_constant=_reject_constant)
        assert all(r["verdict"] == "pass" for r in results)
        assert all(r["theorem"] == theorem for r in results)   # the CLI id
        assert any(r["constant"] is None for r in results)
    results = json.loads((tmp_path / "certificates_buc-classic.json").read_text())
    spike = [r for r in results if "spike" in r["weight"]][0]
    assert spike["ratio"] == pytest.approx(28.0)  # 4 * depth at depth 7
    assert spike["constant"] is None


def test_verify_workers_byte_identical(small_corpus, tmp_path):
    # 2, 3 and 8 workers are the parent and 1, 2 and 5 children
    for workers in ("1", "2", "3", "8"):
        assert main(["verify", "--theorem", "embed", "--corpus", str(small_corpus),
                     "--out", str(tmp_path / f"w{workers}"), "--workers", workers]) == 0
    for workers in ("2", "3", "8"):
        for name in ("certificates_embed.json", "summary_embed.csv"):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / f"w{workers}" / name).read_bytes())


def test_verify_failure_demo(tmp_path):
    rc = main(["verify", "--theorem", "failure-demo", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "failure_demo.json").read_text())
    assert report["depths"] == list(range(6, 13))     # the default --depth 12
    assert report["classical_ratios"][0] == 24.0
    assert report["classical_ratios"][-1] == 48.0
    assert report["verdict"] == "pass"


@pytest.mark.parametrize("family", ["loglog-bump", "parametric"])
def test_failure_demo_passes_for_every_family(family, tmp_path):
    # the verdict is classical growth >= 1.8 and every spike d-embed
    # certificate passing; the bounded ratio's change is reported only, and
    # for these families it exceeds the 16% that log-bump at alpha = 2 meets
    rc = main(["verify", "--theorem", "failure-demo", "--psi-family", family,
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "failure_demo.json").read_text())
    assert report["verdict"] == "pass"
    assert report["classical_growth"] == pytest.approx(2.0)
    assert report["d_embed_change"] > 0.16


CORPUS_THEOREMS = ("buc-classic", "folk", "d-embed", "fd-embed", "embed", "embed2",
                   "bump-embed")


def _library_rows(theorem, entry, w, psi):
    """The rows of one weight, each certificate computed on its own."""
    label = entry.spec.label
    seqs = [(k, gen_carleson_sequence(k, w.depth, 0)) for k in SEQUENCE_KINDS]
    fns = [(k, gen_test_function(k, w.depth, s, weight=w)) for k, s in FUNCTION_KINDS]
    if theorem == "buc-classic":
        certs = [(verify_buckley_classic(w), label)]
    elif theorem == "folk":
        certs = [(verify_folk(w, q, assert_rhi_bound=entry.is_ainfty), f"{label}|{k}")
                 for k, q in seqs]
    elif theorem == "d-embed":
        certs = [(verify_d_embed(w, psi), label)]
    elif theorem == "fd-embed":
        certs = [(verify_fd_embed(w, f, psi), f"{label}|{k}") for k, f in fns]
    elif theorem == "embed":
        certs = [(verify_embed(w, q, psi), f"{label}|{k}") for k, q in seqs]
    else:
        q = gen_carleson_sequence("random", w.depth, 0)
        certs = [(verify_embed2(w, f, q, psi), f"{label}|random|{k}") for k, f in fns]
    return [{**json.loads(json.dumps(c.to_dict())), "weight": lab, "depth": w.depth}
            for c, lab in certs]


@pytest.mark.parametrize("theorem", CORPUS_THEOREMS)
def test_one_task_per_weight(theorem, small_corpus, tmp_path, monkeypatch):
    # every corpus theorem runs one task per weight; its rows stay
    # weight-major, are the same for 1 and 2 workers, and equal the
    # certificates computed one at a time
    entries = load_corpus(small_corpus)
    tasks = []
    run_task = cli._run_task

    def recording(task):
        tasks.append(task)
        return run_task(task)

    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    argv = ["verify", "--theorem", theorem, "--corpus", str(small_corpus)]
    with monkeypatch.context() as m:
        m.setattr(cli, "_run_task", recording)
        assert main(argv + ["--out", str(out1), "--workers", "1"]) == 0
    assert [(t[0], t[2], t[3].values.tolist()) for t in tasks] == [
        (theorem, entry, w.values.tolist()) for entry, w in entries]
    assert main(argv + ["--out", str(out2), "--workers", "2"]) == 0
    for name in (f"certificates_{theorem}.json", f"summary_{theorem}.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = json.loads((out1 / f"certificates_{theorem}.json").read_text())
    psi = RunConfig().psi()
    assert rows == [r for entry, w in entries for r in _library_rows(theorem, entry, w, psi)]


def test_run_task_sorts_the_weight_once(small_corpus, monkeypatch):
    # a task that went through pickle, as to a pool worker, holds its own
    # copy of the weight; its five embed2 certificates share one sort of it
    entry, w = load_corpus(small_corpus)[2]
    task = pickle.loads(pickle.dumps(("embed2", RunConfig(), entry, w)))
    sorts = []
    sorted_levels = verifiers._sorted_levels

    def counting(w, phi):
        sorts.append(w)
        return sorted_levels(w, phi)

    monkeypatch.setattr(verifiers, "_sorted_levels", counting)
    rows = cli._run_task(task)
    assert len(rows) == len(FUNCTION_KINDS)
    assert len(sorts) == 1 and sorts[0] is task[3]


def test_library_calls_sort_the_weight_once(small_corpus, monkeypatch):
    # direct calls on one weight in a shuffled order, as a library sweep
    # makes them: d-embed, embed and folk for each sequence, fd-embed and
    # embed2 for each test function; every certificate reads one sort
    entry, w = load_corpus(small_corpus)[2]
    psi = RunConfig().psi()
    seqs = {k: gen_carleson_sequence(k, w.depth, 0) for k in SEQUENCE_KINDS}
    funcs = [gen_test_function(k, w.depth, s, weight=w) for k, s in FUNCTION_KINDS]
    calls = [lambda: verify_d_embed(w, psi)]
    for seq in seqs.values():
        calls += [lambda seq=seq: verify_embed(w, seq, psi), lambda seq=seq: verify_folk(w, seq)]
    for f in funcs:
        calls += [lambda f=f: verify_fd_embed(w, f, psi),
                  lambda f=f: verify_embed2(w, f, seqs["random"], psi)]
    sorts = []
    sorted_levels = verifiers._sorted_levels
    monkeypatch.setattr(verifiers, "_sorted_levels",
                        lambda w, phi: sorts.append(w) or sorted_levels(w, phi))
    verifiers._current = None
    for k in np.random.default_rng(5).permutation(len(calls)):
        assert calls[k]().passed
    assert len(sorts) == 1 and sorts[0] is w


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from this process while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def test_pool_is_capped_at_the_number_of_weights(small_corpus, tmp_path, forks):
    # the parent runs a share of the tasks, so k processes fork k - 1 children
    counts = []
    for workers in ("64", "3"):
        assert main(["verify", "--theorem", "d-embed", "--corpus", str(small_corpus),
                     "--out", str(tmp_path), "--workers", workers]) == 0
        counts.append(len(forks) - sum(counts))
    assert counts == [5, 2]


@pytest.mark.parametrize("theorem, flag, value", [
    ("embed", "--seed", "-1"), ("folk", "--seed", "-1"), ("embed2", "--seed", "-1"),
    ("bellman-checks", "--seed", "-1"),
    ("d-embed", "--workers", "0"), ("d-embed", "--workers", "-3"),
])
def test_bad_seed_or_workers_is_config_error(theorem, flag, value, small_corpus,
                                             tmp_path, capsys, forks):
    rc = main(["verify", "--theorem", theorem, "--corpus", str(small_corpus),
               flag, value, "--out", str(tmp_path)])
    assert rc == 3
    assert f"{flag} must be >= " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert forks == []


def test_workers_without_fork_is_config_error(small_corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    rc = main(["verify", "--theorem", "d-embed", "--corpus", str(small_corpus),
               "--workers", "2", "--out", str(tmp_path)])
    assert rc == 3
    assert "--workers above 1 needs os.fork" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("raiser", ["child", "parent"])
def test_task_error_reaches_the_caller_and_no_child_is_left(raiser, small_corpus, tmp_path,
                                                           monkeypatch):
    # the parent starts on its tasks only once the child holds one, so each
    # side runs a task: the child raises on its task while the parent works,
    # or hangs on it while the parent raises, and must then be killed
    parent, taken = os.getpid(), tmp_path / "taken"
    run_task = cli._run_task

    def task(t):
        if os.getpid() != parent:
            taken.touch()
            if raiser == "child":
                raise ValueError(f"no certificate for {t[2].spec.label}")
            time.sleep(60)
        deadline = time.monotonic() + 30
        while not taken.exists():
            assert time.monotonic() < deadline, "no child took a task"
            time.sleep(0.01)
        if raiser == "parent":
            raise ValueError(f"no certificate for {t[2].spec.label}")
        return run_task(t)

    monkeypatch.setattr(cli, "_run_task", task)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="no certificate for "):
        main(["verify", "--theorem", "d-embed", "--corpus", str(small_corpus),
              "--workers", "2", "--out", str(tmp_path / "out")])
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _deadlock_alarm(signum, frame):
    raise TimeoutError("the runner is stuck")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_tasks_returns_rows_in_task_order(workers, monkeypatch):
    # the rows of each child's share of 20,000 tasks do not fit in one pipe
    # (64 kB), so a parent that waited for a child before reading all of
    # its pipe would never return; the alarm turns a deadlock into a failure
    weights = [DyadicWeight(d, np.ones(2 ** d)) for d in (1, 3, 2)]
    tasks = [("buc-classic", None, k, weights[k % 3]) for k in range(20000)]
    monkeypatch.setattr(cli, "_run_task", lambda t: [{"task": t[2], "depth": t[3].depth}])
    previous = signal.signal(signal.SIGALRM, _deadlock_alarm)
    signal.alarm(60)
    try:
        rows = cli._run_tasks(tasks, workers)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rows == [[{"task": k, "depth": weights[k % 3].depth}] for k in range(20000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tasks_are_dealt_at_fork_time(workers, monkeypatch):
    # in the order largest depth first, ties in task order, this process
    # runs every k-th task from the first, and each child one of the other
    # k - 1 shares, whatever the tasks cost
    weights = [DyadicWeight(d, np.ones(2 ** d)) for d in (1, 3, 2)]
    tasks = [("buc-classic", None, k, weights[k % 3]) for k in range(10)]
    order = [1, 4, 7, 2, 5, 8, 0, 3, 6, 9]
    monkeypatch.setattr(cli, "_run_task", lambda t: [{"task": t[2], "pid": os.getpid()}])
    rows = cli._run_tasks(tasks, workers)
    assert [r["task"] for task_rows in rows for r in task_rows] == list(range(10))
    ran = {}
    for k in order:
        ran.setdefault(rows[k][0]["pid"], []).append(k)
    shares = [order[r::workers] for r in range(workers)]
    assert ran.pop(os.getpid()) == shares[0]
    assert sorted(ran.values()) == sorted(shares[1:])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_tasks_with_more_workers_than_tasks(monkeypatch, forks):
    # the children past the last task get an empty share and still send
    # back their (empty) rows
    tasks = [("buc-classic", None, k, DyadicWeight(k + 1, np.ones(2 ** (k + 1))))
             for k in range(2)]
    monkeypatch.setattr(cli, "_run_task", lambda t: [{"task": t[2]}])
    assert cli._run_tasks(tasks, 5) == [[{"task": 0}], [{"task": 1}]]
    assert len(forks) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_bellman_checks(tmp_path):
    rc = main(["verify", "--theorem", "bellman-checks", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "bellman_checks.json").read_text())
    assert report["bprime_1"] == pytest.approx(1.0)


@pytest.mark.parametrize("family", ["loglog-bump", "log-bump"])
def test_bellman_checks_builds_one_kernel_per_psi(family, tmp_path, monkeypatch):
    # the normalization multiplier's base Psi's kernel, then the Psi's own,
    # which the normalization check, the profile, the T-convexity grid and
    # the pointwise sweep all read from kernel_of.  The log family's
    # multiplier is 1, so its base Psi equals the Psi and one kernel serves
    built = []
    init = BellmanKernel.__init__

    def counting(self, psi):
        built.append(psi)
        init(self, psi)

    monkeypatch.setattr(BellmanKernel, "__init__", counting)
    cli._psi.cache_clear()
    kernel_of.cache_clear()
    rc = main(["verify", "--theorem", "bellman-checks", "--depth", "4",
               "--psi-family", family, "--out", str(tmp_path)])
    assert rc == 0
    psi = RunConfig(psi_family=family).psi()
    base = replace(psi, k=1.0)
    assert built == ([base, psi] if family == "loglog-bump" else [psi])
    assert (base == psi) == (family == "log-bump")


def test_psi_table(tmp_path):
    rc = main(["psi-table", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "psi_table_log-bump_a2.csv"
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1000
    psis = np.array([float(r["psi"]) for r in rows])
    phis = np.array([float(r["phi"]) for r in rows])
    bprime = np.array([float(r["bprime"]) for r in rows])
    assert np.all(np.diff(psis) <= 1e-12)       # psi nonincreasing
    assert np.all(np.diff(phis) >= -1e-15)      # phi nondecreasing
    assert bprime[-1] == pytest.approx(1.0)     # B'(1) endpoint
    assert float(rows[-1]["s"]) == 1.0


@pytest.mark.parametrize("blocked", ["out-is-a-file", "result-is-a-directory"])
@pytest.mark.parametrize("command, result", [
    (["verify", "--theorem", "d-embed"], "certificates_d-embed.json"),
    (["psi-table"], "psi_table_log-bump_a2.csv"),
])
def test_unwritable_out_is_config_error(command, result, blocked, small_corpus, tmp_path,
                                        capsys):
    # --out naming a file, or a result file whose name is taken by a
    # directory: one line on stderr and exit 3, not a traceback
    out = tmp_path / "out"
    if blocked == "out-is-a-file":
        out.write_text("")
    else:
        (out / result).mkdir(parents=True)
    if command[0] == "verify":
        command = command + ["--corpus", str(small_corpus)]
    assert main(command + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


def test_psi_table_inadmissible_reports(tmp_path):
    rc = main(["psi-table", "--alpha", "0.8", "--out", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_nonfinite_alpha_is_config_error(alpha, tmp_path):
    assert main(["psi-table", "--alpha", alpha, "--out", str(tmp_path)]) == 3
    assert main(["verify", "--theorem", "d-embed", "--alpha", alpha,
                 "--out", str(tmp_path)]) == 3
    assert main(["psi-table", "--psi-family", "parametric", "--alpha", alpha,
                 "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("alpha", ["200", "1e3", "1e308"])
@pytest.mark.parametrize("family", ["log-bump", "loglog-bump", "parametric"])
def test_large_alpha_is_config_error(family, alpha, tmp_path, capsys):
    # a clamp value past the largest float, a clamp point exp(-alpha) that
    # underflows to 0, or a Phi*Phi' that overflows on the admissibility
    # grid: the Psi cannot be built, and both commands say so.  The
    # loglog-bump clamp value at alpha = 200 is 8.5e120, a float, so that
    # Psi is built and tabulated (verify would go on to the corpus)
    builds = (family, alpha) == ("loglog-bump", "200")
    commands = [["psi-table"]] + ([] if builds else [["verify", "--theorem", "d-embed"]])
    for command in commands:
        rc = main(command + ["--psi-family", family, "--alpha", alpha,
                             "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if builds:
            assert rc == 0
        else:
            assert rc == 3
            assert "is too large" in err


@pytest.mark.parametrize("family", ["log-bump", "loglog-bump"])
@pytest.mark.parametrize("clamp, message", [
    ("nan", "clamp_s0 must be finite and positive"),
    ("-1", "clamp_s0 must be finite and positive"),
    ("0", "clamp_s0 must be finite and positive"),
    ("1", "clamp_s0 beyond the monotonicity knot"),
])
def test_bad_clamp_s0_is_config_error(clamp, message, family, tmp_path, capsys):
    for command in (["psi-table"], ["verify", "--theorem", "d-embed"]):
        rc = main(command + ["--psi-family", family, "--clamp-s0", clamp,
                             "--out", str(tmp_path)])
        assert rc == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "2"])
def test_bellman_checks_shallow_depth_is_config_error(depth, tmp_path, capsys):
    rc = main(["verify", "--theorem", "bellman-checks", "--depth", depth,
               "--out", str(tmp_path)])
    assert rc == 3
    assert "--depth >= 3" in capsys.readouterr().err
    assert not (tmp_path / "bellman_checks.json").exists()


@pytest.mark.parametrize("theorem", [t for t in cli.THEOREMS if t not in cli.DEPTH_THEOREMS])
def test_depth_for_a_corpus_theorem_is_config_error(theorem, small_corpus, tmp_path, capsys):
    # a corpus theorem runs on the weights' own depths; --depth would be
    # ignored, so it is refused before anything is written
    out = tmp_path / "out"
    rc = main(["verify", "--theorem", theorem, "--depth", "12",
               "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 3
    assert "--depth applies to failure-demo and bellman-checks only" in capsys.readouterr().err
    assert not out.exists()


def test_failure_demo_shallow_depth_is_config_error(tmp_path):
    rc = main(["verify", "--theorem", "failure-demo", "--depth", "3",
               "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "failure_demo.json").exists()


def test_failure_demo_depth_ceiling_is_config_error(tmp_path, capsys):
    # a 2^40-cell spike is refused before anything is allocated
    t0 = time.perf_counter()
    rc = main(["verify", "--theorem", "failure-demo", "--depth", "40",
               "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    assert "exceeds the ceiling 24" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bump_embed_alias(small_corpus, tmp_path):
    rc = main(["verify", "--theorem", "bump-embed", "--corpus", str(small_corpus),
               "--out", str(tmp_path)])
    assert rc == 0
    results = json.loads((tmp_path / "certificates_bump-embed.json").read_text())
    assert len(results) == 30  # 6 weights x 5 functions
    assert all(r["verdict"] == "pass" for r in results)


@pytest.mark.parametrize("flag", ["--tolerance-ineq", "--tolerance-identity"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_tolerance_is_config_error(flag, value, small_corpus, tmp_path, capsys):
    rc = main(["verify", "--theorem", "d-embed", "--corpus", str(small_corpus),
               flag, value, "--out", str(tmp_path)])
    assert rc == 3
    assert f"{flag} must be finite and >= 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("certificates_*.json"))


@pytest.mark.parametrize("theorem", ["embed2", "bump-embed", "bellman-checks"])
@pytest.mark.parametrize("family, alpha", [("loglog-bump", "2"), ("log-bump", "1.5"),
                                           ("parametric", "2")])
def test_unnormalized_psi_is_config_error(theorem, family, alpha, small_corpus,
                                          tmp_path, capsys):
    # these inequalities need int_0^1 ds/phi <= 1 and phi(s) >= s
    rc = main(["verify", "--theorem", theorem, "--corpus", str(small_corpus),
               "--psi-family", family, "--alpha", alpha, "--no-normalize",
               "--out", str(tmp_path)])
    assert rc == 3
    assert f"{theorem} requires a normalized Psi" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("case", ["not-json", "entries-not-a-list", "hash-mismatch",
                                  "entry-edited", "entry-depth-rehashed"])
def test_malformed_manifest_is_config_error(case, small_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(Path(small_corpus).parent, corpus)
    manifest = corpus / "manifest.json"
    if case == "not-json":
        manifest.write_text("{not json")
    elif case == "entries-not-a-list":
        manifest.write_text('{"entries": 3}')
    elif case.startswith("entry-"):
        # entry 0 is a depth-6 constant weight; a depth that disagrees with
        # the weight file is refused even under a recomputed manifest hash
        data = json.loads(manifest.read_text())
        data["entries"][0].update(kind="spike", depth=3)
        if case == "entry-depth-rehashed":
            data["manifest_sha256"] = hashlib.sha256(
                json.dumps(data["entries"], sort_keys=True).encode()).hexdigest()
        manifest.write_text(json.dumps(data))
    else:  # a weight file edited after its hash was recorded
        weight = corpus / json.loads(manifest.read_text())["entries"][0]["file"]
        w = json.loads(weight.read_text())
        w["values"][0] += 1.0
        weight.write_text(json.dumps(w))
    rc = main(["verify", "--theorem", "d-embed", "--corpus", str(manifest),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "is malformed" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("certificates_*.json"))


def test_parametric_clamp_s0_is_config_error(tmp_path, capsys):
    for command in (["psi-table"], ["verify", "--theorem", "d-embed"]):
        rc = main(command + ["--psi-family", "parametric", "--clamp-s0", "0.01",
                             "--out", str(tmp_path)])
        assert rc == 3
        assert "--clamp-s0 applies to the closed-form families only" in capsys.readouterr().err


def test_parametric_family_end_to_end(tmp_path):
    # the normalized parametric Psi passes every bounded certificate; every
    # Psi value is a root solve, so the corpus is kept to two weights
    corpus = write_corpus(tmp_path / "corpus", [CorpusSpec("spike", 7),
                                                CorpusSpec("random-martingale", 6, (0.3,), 2)])
    flags = ["--psi-family", "parametric", "--out", str(tmp_path)]
    for theorem in ("d-embed", "embed", "fd-embed", "embed2"):
        assert main(["verify", "--theorem", theorem, "--corpus", str(corpus)]
                    + flags) == 0
        results = json.loads((tmp_path / f"certificates_{theorem}.json").read_text())
        assert results and all(r["verdict"] == "pass" for r in results)
    assert main(["verify", "--theorem", "bellman-checks"] + flags) == 0
    report = json.loads((tmp_path / "bellman_checks.json").read_text())
    assert report["bprime_1"] == pytest.approx(1.0)
    assert report["verdict"] == "pass"
    assert main(["psi-table"] + flags) == 0
    with open(tmp_path / "psi_table_parametric_a2.csv") as fh:
        rows = list(csv.DictReader(fh))
    psis = np.array([float(r["psi"]) for r in rows])
    phis = np.array([float(r["phi"]) for r in rows])
    assert np.all(np.diff(psis) <= 1e-12) and np.all(np.diff(phis) >= -1e-15)
    assert float(rows[-1]["bprime"]) == pytest.approx(1.0)


def test_import_does_not_load_scipy_interpolate(small_corpus, tmp_path):
    # nor any other scipy module: the root-finder, E_n and the Gauss-Legendre
    # rule are the package's own, and a whole d-embed run loads none either
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dyadembed, dyadembed.cli; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not scipy(), scipy(); "
            "argv = ['verify', '--theorem', 'd-embed', '--corpus', sys.argv[2], "
            "'--out', sys.argv[3]]; "
            "assert dyadembed.cli.main(argv) == 0; "
            "assert not scipy(), scipy()")
    subprocess.run([sys.executable, "-c", code, str(src), str(small_corpus),
                    str(tmp_path)], check=True)
