"""The benchmark's own tests: the checker accepts genuine output and rejects
tampered elements, verdicts and witnesses.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import families as F  # noqa: E402
import workloads  # noqa: E402
from checks import CAP, BAD_EXIT, EXCEPTION, WRONG, Outcome  # noqa: E402


class Case:
    """One job on the given documents, run for real through recset.cli.main."""

    def __init__(self, tmp_path, command, *args, docs=(), metas=None, meta=None):
        self.docs = {f"d{i}": doc for i, doc in enumerate(docs)}
        self.metas = metas or {name: {} for name in self.docs}
        argv = [command] + [str(a) for a in args]
        self.job = workloads.Job(command, argv, tuple(a[1:] for a in argv if a.startswith("@")), meta or {})
        for name, doc in self.docs.items():
            (tmp_path / f"{name}.aut").write_bytes(workloads.doc_bytes(doc))
        from recset.cli import main
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([f"{tmp_path}/{a[1:]}.aut" if a.startswith("@") else a for a in argv])
        self.outcome = Outcome(rc, out.getvalue(), err.getvalue())

    def verdict(self, outcome=None):
        return checks.check(self.job, outcome or self.outcome, self.docs, self.metas)[0]

    def tampered(self, old, new, rc=None):
        assert old in self.outcome.out, (old, self.outcome.out)
        out = self.outcome.out.replace(old, new, 1)
        return self.verdict(Outcome(self.outcome.rc if rc is None else rc, out, self.outcome.err))


def test_syndetic_witness_and_verdict_tampering(tmp_path):
    case = Case(tmp_path, "syndetic", "@d0", docs=[F.example1()], metas={"d0": {"family": "example1"}})
    assert case.verdict() is None
    assert "m: 1\n" in case.outcome.out
    assert case.tampered("m: 1\n", "m: 2\n") == WRONG
    assert case.tampered("a: 1\n", "a: 2\n") == WRONG
    assert case.tampered("verdict: not-syndetic", "verdict: syndetic", rc=0) == WRONG


def test_syndetic_certificate_tampering(tmp_path):
    case = Case(tmp_path, "syndetic", "@d0", docs=[F.multiples(7, 2)], metas={"d0": {"family": "multiples", "k": 7}})
    assert case.verdict() is None
    c = checks.fields(case.outcome.out)["C"]
    assert case.tampered(f"C: {c}\n", f"C: {int(c) + 1}\n") == WRONG
    assert case.tampered("verdict: syndetic", "verdict: finite") == WRONG


def test_refute_certificate_tampering(tmp_path):
    case = Case(tmp_path, "refute", "@d0", "@d1", docs=[F.naturals(3), F.example1()], meta={"expect": "refuted"})
    assert case.verdict() is None
    element = checks.fields(case.outcome.out)["element"]
    assert case.tampered(f"element: {element}", "element: 1000") == WRONG
    kw = checks.fields(case.outcome.out)["kronecker"]
    assert case.tampered(f"kronecker: {kw}", "kronecker: K=1 L=1") == WRONG
    assert case.verdict(Outcome(1, "absent: no refutation\n", "")) == WRONG


def test_equal_sets_must_be_absent(tmp_path):
    case = Case(tmp_path, "refute", "@d0", "@d1", docs=[F.naturals(2), F.naturals(3)], meta={"expect": "absent"})
    assert case.outcome.rc == 1 and case.verdict() is None
    assert case.verdict(Outcome(0, "refuted: true\n", "")) == WRONG


def test_enum_tampered_element_rejected(tmp_path):
    case = Case(tmp_path, "enum", "@d0", 30, docs=[F.multiples(3, 2)])
    assert case.verdict() is None
    assert case.tampered("\n9\n", "\n10\n") == WRONG      # not an element
    assert case.tampered("\n9\n", "\n") == WRONG          # one element skipped


def test_member_profile_kronecker_minimize_tampering(tmp_path):
    member = Case(tmp_path, "member", "@d0", 3 ** 40, docs=[F.multiples(3, 2)])
    assert member.verdict() is None
    assert member.verdict(Outcome(1, "false\n", "")) == WRONG

    profile = Case(tmp_path, "profile", "@d0", 1, docs=[F.chain(9, 2)], metas={"d0": {"family": "chain", "n": 9}})
    assert profile.verdict() is None
    assert profile.tampered("period: 8", "period: 4") == WRONG

    kron = Case(tmp_path, "kronecker", 2, 1, 1, 1, 1, 1, 2, 3)
    assert kron.verdict() is None
    assert kron.tampered("k: 3", "k: 4") == WRONG

    minimize = Case(tmp_path, "minimize", "@d0", docs=[F.chain(12, 2)], metas={"d0": {"family": "chain", "n": 12}})
    assert minimize.verdict() is None
    assert minimize.tampered('"finals": [11]', '"finals": [10]') == WRONG


def test_lenient_loading_repairs_only_leading_zero_documents(tmp_path):
    # the start state is re-entered, so a repaired copy would have one more state
    loop = F.document(2, 2, 0, [1], {(0, 1): 1, (1, 0): 0, (1, 1): 1}, False)
    gappy = F.document(2, 2, 0, [1], {(0, 0): 1, (0, 1): 1, (1, 0): 0}, False)
    for doc in (loop, gappy):
        case = Case(tmp_path, "trim", "@d0", "--lenient", docs=[doc])
        assert case.verdict() is None
        assert case.verdict(Outcome(0, workloads.doc_bytes(F.example1()).decode(), "")) == WRONG


def test_unknown_lines_ignored_and_contract_classes(tmp_path):
    case = Case(tmp_path, "witness-empty", "@d0", docs=[F.example1()])
    assert case.verdict() is None
    noisy = Outcome(case.outcome.rc, "verified_k: 0..8\nnote: extra\n" + case.outcome.out, "")
    assert case.verdict(noisy) is None
    assert case.verdict(Outcome(3, "", "error: cap reached\n")) == CAP
    assert case.verdict(Outcome(2, "", "")) == BAD_EXIT
    assert case.verdict(Outcome(7, "", "error: x\n")) == BAD_EXIT
    assert case.verdict(Outcome(None, "", "", "AssertionError: boom")) == EXCEPTION


def test_workload_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, b, c = workloads.build(name, 5), workloads.build(name, 5), workloads.build(name, 6)
        assert a.manifest() == b.manifest()
        assert a.manifest()["digest"] != c.manifest()["digest"]
        assert len(a.jobs) >= 100
        for job in a.jobs:
            assert not any(arg in ("--k-check", "--cap") for arg in job.argv)


@pytest.mark.parametrize("seed", [3])
def test_tracing_leaves_outputs_unchanged(tmp_path, seed):
    import run
    from tracing import Tracer
    run.import_recset()
    wl = workloads.build("elements", seed)
    wl.jobs = wl.jobs[:40]
    for name, doc in wl.docs.items():
        (tmp_path / f"{name}.aut").write_bytes(workloads.doc_bytes(doc))
    runner = run.Runner(wl, tmp_path)
    runner.run_pass()
    plain = dict(runner.outcomes)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    runner.run_pass(tracer)
    tracer.enabled = False
    assert runner.outcomes == {k: 2 for k in plain}
    metrics = tracer.metrics(1)
    assert metrics["cli.jobs"][0] == 40
    assert all(value >= 0 for value, _ in metrics.values())
