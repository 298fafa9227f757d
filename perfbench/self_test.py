#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/self_test.py

Runs all four workloads at tiny size through run.py, untraced and traced,
and asserts that
  * BENCHMARK.json is exactly what `run.py --write-spec` writes and stays
    within its key, name, unit, bound and size limits;
  * every run exits 0 with a correct result;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    BENCHMARK.json lists is emitted with its unit, and nothing else;
  * each traced run wrote its Chrome trace and a fingerprinted record.
Exits non-zero on the first failed assertion.
"""
import contextlib
import io
import json
import os
import re
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as f:
        text = f.read()
    assert text == run.spec_text(), "BENCHMARK.json is stale: run --write-spec"
    spec = json.loads(text)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(text.encode()) <= 64 * 1024


def run_tiny(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                         "1", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    assert code == 0, "%s trace=%d exited %d" % (workload, trace, code)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    problems = run.check_result(result, trace)
    assert not problems, problems
    record = os.path.join(run.OUT_DIR, "record-%s-seed3-trace%d.json" %
                          (workload, trace))
    with open(record) as f:
        fingerprint = json.load(f)["fingerprint"]
    for key in ("nproc", "cpu_model", "compiler", "flags", "build_type",
                "source", "compute_threads"):
        assert fingerprint.get(key) not in (None, ""), key
    if trace:
        assert os.path.isfile(os.path.join(
            run.OUT_DIR, "trace-%s-seed3.json" % workload))


def main():
    check_spec()
    print("spec ok")
    for workload, _ in run.WORKLOADS:
        for trace in (0, 1):
            run_tiny(workload, trace)
            print("%s trace=%d ok" % (workload, trace), flush=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
