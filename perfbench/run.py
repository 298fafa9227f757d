#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sim-resnet18 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the hadfl libraries plus the hadfl_perf binary) into
.bench_build/ on first use, runs hadfl_perf in its own process group, checks
that it reported every metric BENCHMARK.json lists, and prints its
result as the last line of stdout. Exits non-zero when the build fails, a
correctness check fails, or the result is incomplete.

    python3 perfbench/run.py --write-spec   # regenerate BENCHMARK.json
    python3 perfbench/self_test.py          # tiny run of all four workloads

This file is the single definition of the workloads and metrics; see
perfbench/README.md for what each one measures.
"""
import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170

# name -> one-line reason it is in the benchmark (BENCHMARK.json "why").
WORKLOADS = [
    ("sim-resnet18",
     "sim backend on the paper cell: devices train in turn, every GEMM fans "
     "out over the shared pool, time is tensor/nn; default backend of every "
     "table"),
    ("rt-resnet18",
     "same scenario on four device threads sharing one compute pool: tensor/"
     "nn run device-parallel, exposing pool or kernel changes that help sim "
     "but cost rt"),
    ("net-mlp-topk",
     "4 hadfl_node processes, top-k 1% codec, ~1 ms compute per round: time "
     "is rt collectives, codec, wire framing, sockets and heartbeats"),
    ("fleet-1m",
     "K=10^6 devices, cohort 64, momentum 0.9, 2% churn: the only workload "
     "where per-round O(K) scalar work and slab residency dominate"),
]

# (name, unit, better, bound): bound is the share of the parent's median a
# metric may worsen by.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_wall_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("time_to_target_s", "s", "lower", 0.25),
    ("round_wall_s.p50", "s", "lower", 0.25),
    ("round_wall_s.p90", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("best_accuracy", "frac", "higher", 0.1),
    ("virtual_time_to_target_s", "s", "lower", 0.25),
]

_NN_KINDS = ["conv2d", "batchnorm", "dense", "pool", "activation", "residual"]
_FLEET_PHASES = ["clock", "select", "train", "fold"]

PER_LAYER = (
    [
        ("tensor.gemm.gflops.single", "GFLOP/s", "higher"),
        ("tensor.gemm.gflops.concurrent4", "GFLOP/s", "higher"),
        ("tensor.gemm.roofline_frac", "frac", "higher"),
        ("nn.step_s", "s", "lower"),
        ("nn.sgd_update_s", "s", "lower"),
    ]
    + [("nn.fwd_s." + k, "s", "lower") for k in _NN_KINDS]
    + [("nn.bwd_s." + k, "s", "lower") for k in _NN_KINDS]
    + [
        ("data.batch_s", "s", "lower"),
        ("rt.train_s", "s", "lower"),
        ("rt.stall_share", "frac", "lower"),
        ("rt.sync_s.p50", "s", "lower"),
        ("rt.buffer_pool.miss_ratio", "frac", "lower"),
        ("comm.encode_gbps.topk", "GB/s", "higher"),
        ("comm.decode_gbps.topk", "GB/s", "higher"),
        ("comm.fold_gbps", "GB/s", "higher"),
        ("comm.wire_bytes_per_round", "B", "lower"),
        ("comm.compression_ratio", "ratio", "higher"),
        ("net.frames_per_round", "count", "lower"),
        ("net.bytes_per_round", "B", "lower"),
        ("net.heartbeat_frame_share", "frac", "lower"),
        ("net.frame_codec_ns", "ns", "lower"),
        ("net.tcp_roundtrip_us.p50", "us", "lower"),
        ("net.tcp_roundtrip_us.p90", "us", "lower"),
    ]
    + [("fleet.%s_s" % p, "s", "lower") for p in _FLEET_PHASES]
    + [("fleet.%s_share" % p, "frac", "lower") for p in _FLEET_PHASES]
    + [
        ("fleet.peak_state_mb", "MB", "lower"),
        ("fleet.warn_lines_per_round", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

RUN_SECONDS = 15


def spec():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def spec_text():
    return json.dumps(spec(), indent=2) + "\n"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def nproc():
    return len(os.sched_getaffinity(0))


def local_env():
    """The environment for child processes, with temporary files kept
    inside the checkout."""
    tmp = os.path.join(os.path.dirname(build_dir()), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds hadfl_perf and hadfl_node; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no hadfl sources next to perfbench/ (src/ missing)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build_log = os.path.join(out, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(nproc()), "--target", "hadfl_perf",
         "hadfl_node"],
    ]
    with open(build_log, "w") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                               env=local_env()) != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RuntimeError("build failed: " + " ".join(cmd))
    return (os.path.join(out, "hadfl_perf"),
            os.path.join(out, "hadfl_src", "tools", "hadfl_node"))


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def become_subreaper():
    """Orphaned grandchildren (node processes of an aborted run) re-parent
    to this process, so they can be killed and reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_all(timeout_s=10.0):
    """Waits for every remaining child (adopted orphans included)."""
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)
    log("children still running after %.0f s" % timeout_s)


def kill_stale_run():
    """A run killed before its cleanup leaves its process group id behind;
    make sure nothing of it is still running."""
    pid_file = os.path.join(OUT_DIR, "hadfl_perf.pgid")
    try:
        with open(pid_file) as f:
            kill_group(int(f.read().strip()))
    except (OSError, ValueError):
        pass


def run_hadfl_perf(binary, node, args):
    """Runs hadfl_perf; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    kill_stale_run()
    become_subreaper()
    cmd = [
        binary,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--node-binary=" + node,
        "--out-dir=" + OUT_DIR,
        "--threads=%d" % nproc(),
        "--source-id=" + source_id(),
    ]
    if args.tiny:
        cmd.append("--tiny")
    stderr_path = os.path.join(
        OUT_DIR, "%s-seed%d-trace%d.log" % (args.workload, args.seed, args.trace))
    with open(stderr_path, "w") as errf:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errf,
                                text=True, start_new_session=True, cwd=ROOT,
                                env=local_env())
        with open(os.path.join(OUT_DIR, "hadfl_perf.pgid"), "w") as f:
            f.write(str(proc.pid))
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            kill_group(proc.pid)
            out, _ = proc.communicate()
            log("hadfl_perf timed out after %d s" % RUN_TIMEOUT_S)
            code = 124
        finally:
            kill_group(proc.pid)
            reap_all()
    os.remove(os.path.join(OUT_DIR, "hadfl_perf.pgid"))
    if code != 0:
        with open(stderr_path) as f:
            sys.stderr.write(f.read()[-2000:])
    return code, out.splitlines()


def check_result(result, trace):
    """Problems with a parsed result line (empty list when it is complete)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    want = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(want)):
        problems.append("unlisted metric " + name)
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s: unit %r, want %r" % (name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s: value %r is not a number" % (name, m.get("value")))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads (self-test)")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions here")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(spec_text())
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.time()
    try:
        binary, node = build()
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    log("built in %.1f s" % (time.time() - started))

    code, lines = run_hadfl_perf(binary, node, args)
    if not lines:
        log("hadfl_perf printed nothing (exit %d)" % code)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("hadfl_perf's last line is not a JSON result (exit %d)" % code)
        return code or 1
    for line in lines[:-1]:
        print(line)
    problems = check_result(result, args.trace)
    for p in problems:
        log(p)
    print(lines[-1], flush=True)
    if problems or not result.get("correct"):
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
