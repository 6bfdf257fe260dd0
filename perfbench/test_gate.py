"""Self-tests of the benchmark: the correctness gate and span arithmetic.

A wrong pinned count and a non-zero exit must each come out of a run as
a failed operation with a message.  Run with
``python -m pytest perfbench`` from the repository root.
"""

import child
import run
import spans
import workloads
from workloads import Step, Workload

FIELD3 = Step("info", ("field-info", "--field", "{n}"), 3, {"order": 9})  # GF(8) has order 8
BAD_N = Step("search", ("search", "normalized", "--field", "{n}", "--workers", "1"), 4)  # n=4 is out of range


def _envelope(**result):
    return {"manifest": {"digest": "sha256:0"}, "result": result}


def test_pin_mismatch_is_a_problem():
    step = Step("census", ("kloosterman", "census", "--field", "{n}"), 15, {"zero_count": 285})
    assert workloads.check_step(step, 0, _envelope(zero_count=285), None) == []
    problems = workloads.check_step(step, 0, _envelope(zero_count=284), None)
    assert problems == ["zero_count = 284, pinned 285"]


def test_stage_pins_and_verdicts():
    step = Step("search", (), 5, {"stage:bijective": 0})
    result = {"stages": [{"name": "bijective", "survivors": 1}], "verdict": "violated"}
    problems = workloads.check_step(step, 2, _envelope(**result), None)
    assert problems == ["exit code 2", "verdict 'violated'", "stage:bijective = 1, pinned 0"]
    assert workloads.check_step(Step("verify", (), 4), 0, _envelope(ok=False), None) == ["ok is false"]


def test_raise_and_missing_report_are_problems():
    assert workloads.check_step(BAD_N, None, None, "ValueError: boom") == ["raised ValueError: boom"]
    assert workloads.check_step(BAD_N, 0, None, None) == ["no JSON report on stdout"]


def _tiny_run(monkeypatch):
    tiny = Workload("tiny", (FIELD3, BAD_N))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    # run the child in this process instead of a fresh interpreter
    monkeypatch.setattr(run, "run_child", lambda spec, deadline: child.main(dict(spec, t_spawn=child.now())))
    return run.Run(tiny, seed=1)


def test_run_counts_gate_failures_with_messages(monkeypatch, capsys):
    r = _tiny_run(monkeypatch)
    res = r.iterate()
    assert (r.attempted, r.failed) == (2, 2)
    pin, exit_ = (st["problems"] for st in res["steps"])
    assert pin[0] == "order = 8, pinned 9"
    assert exit_[:2] == ["exit code 1", "no JSON report on stdout"]
    assert "normalized search supports 5 <= n <= 8" in exit_[2]
    err = capsys.readouterr().err
    assert "FAILED field-info --field 3:0xd: order = 8, pinned 9" in err
    assert "FAILED search normalized --field 4:0x19 --workers 1: exit code 1" in err


def test_crashed_child_fails_every_step(monkeypatch, capsys):
    r = _tiny_run(monkeypatch)

    def crash(spec, deadline):
        raise run.ChildFailed("exit code 1: Traceback")

    monkeypatch.setattr(run, "run_child", crash)
    assert r.iterate() is None
    assert (r.attempted, r.failed) == (2, 2)
    assert "iteration failed: exit code 1" in capsys.readouterr().err


def test_seed_picks_modulus():
    w = workloads.WORKLOADS["full-n3n4"]
    assert workloads.choose_moduli(w, 0) == {3: 0xB, 4: 0x13}
    assert workloads.choose_moduli(w, 1) == {3: 0xD, 4: 0x19}
    argv = workloads.step_argv(w.steps[0], {3: 0xD, 4: 0x19}, workers=2)
    assert argv == ["search", "full", "--field", "3:0xd", "--workers", "2"]


def test_self_time_subtracts_children():
    clock = iter([0.0, 1.0, 3.0, 2.0, 4.0, 10.0]).__next__
    rec = spans.Recorder("r", clock)
    with rec.span("outer"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    selfs = spans.self_times(rec.spans)
    # outer [0, 10] has children a [1, 3] and b [2, 4], which cover [1, 4]
    assert selfs == {0: 7.0, 1: 2.0, 2: 2.0}
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
