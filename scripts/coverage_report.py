#!/usr/bin/env python3
"""Which lines of src/wsq does the system run, and which only its tests?

Usage, from the repository root:

    python3 scripts/coverage_report.py [--build-dir .coverage_build]
        [--jobs 2] [--out table.txt]

The script builds the tree with --coverage -O0 in its own directory (the
repository tree under <build-dir>/wsq, and perfbench/CMakeLists.txt
under <build-dir>/perfbench), then measures twice from zeroed counters:

  test     tier-1: every ctest test;
  product  what the system runs: every figure, table and ablation bench;
           the examples with every controller name and codec; wsqd
           against the loopback bench (plain, burst, traced, and with
           its admission settings on); the codec, C10K, netchaos (both
           codecs) and live fleet benches; Table III under four fault
           plans and both codecs; the observability flags in every
           output format; and each perfbench workload for
           PERFBENCH_SECONDS, traced.

Line counts come from gcov's JSON output, merged over every translation
unit, so header lines count once however many units include them. The
table lists, per file under src/wsq, the instrumented lines, the lines
each phase ran, and the test-only lines: run by tier-1 but by no product
run. Totals close the table. The test-only line numbers of each file,
as ranges, go to <build-dir>/test_only_lines.txt: the list to check
callers against before deleting anything.

The exit code is non-zero when the build or a product run fails. A failed
tier-1 test is listed but does not fail the script: an instrumented -O0
build is not where tier-1 is gated. bench_codec's timing ceiling is the
one check no -O0 build can meet, so for that bench a run whose
correctness checks passed and whose last output is the gate line counts
as a pass.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "wsq")
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Coverage",
                  "-DCMAKE_CXX_FLAGS=-O0 --coverage",
                  "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
RUN_TIMEOUT_S = 1800
PERFBENCH_SECONDS = 3
CONTROLLERS = ["constant", "adaptive", "hybrid", "hybrid_s", "mimd",
               "model_quadratic", "model_parabolic", "self_tuning",
               "fixed:100"]
FIGURE_BENCHES = [
    "bench_fig1_concurrent_jobs", "bench_fig2_concurrent_queries",
    "bench_fig2_event_driven", "bench_fig3_wan_fixed_profiles",
    "bench_fig4_wan_decisions", "bench_fig5_b1_convergence",
    "bench_fig6_lan_conf21", "bench_fig7_lan_conf22",
    "bench_fig8_profile_switching", "bench_fig9_enhanced_model_based",
    "bench_table1_wan_normalized", "bench_table2_model_based",
    "bench_table3_degradation", "bench_linear_schemes",
    "bench_ablation_averaging", "bench_ablation_dither",
    "bench_ablation_phase_criterion", "bench_ablation_model_samples",
    "bench_ablation_rls",
]
PERFBENCH_WORKLOADS = ["live-chatty", "live-bulk", "sim-shared-server"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_call(cmd, **kwargs):
    log("+ " + " ".join(cmd))
    if subprocess.run(cmd, stdout=sys.stderr, **kwargs).returncode:
        sys.exit("coverage_report: failed: " + " ".join(cmd))


def build(build_dir, jobs):
    for source, binary in ((ROOT, "wsq"),
                           (os.path.join(ROOT, "perfbench"), "perfbench")):
        out = os.path.join(build_dir, binary)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            check_call(["cmake", "-S", source, "-B", out] + generator +
                       COVERAGE_FLAGS)
        check_call(["cmake", "--build", out, "-j", str(jobs)])


def reset_counters(build_dir):
    for dirpath, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(".gcda"):
                os.remove(os.path.join(dirpath, name))


def collect(build_dir):
    """Merges gcov's JSON over every .gcda: {file: {line: hit}}."""
    by_dir = {}
    for dirpath, _, names in os.walk(build_dir):
        gcdas = sorted(n for n in names if n.endswith(".gcda"))
        if gcdas:
            by_dir[dirpath] = gcdas
    lines = {}
    for dirpath, gcdas in sorted(by_dir.items()):
        proc = subprocess.run(["gcov", "--json-format", "--stdout"] + gcdas,
                              cwd=dirpath, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        decoder = json.JSONDecoder()
        text, pos = proc.stdout, 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            cwd = doc.get("current_working_directory", dirpath)
            for entry in doc.get("files", []):
                path = os.path.normpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(SRC + os.sep):
                    continue
                merged = lines.setdefault(os.path.relpath(path, SRC), {})
                for line in entry["lines"]:
                    number = line["line_number"]
                    merged[number] = merged.get(number, False) or \
                        line["count"] > 0
    return lines


class ProductRuns:
    """Runs product commands, logging each under <out>; records failures."""

    def __init__(self, build_dir, jobs):
        self.wsq = os.path.join(build_dir, "wsq")
        self.out = os.path.join(build_dir, "product-out")
        self.jobs = jobs
        self.failures = []
        os.makedirs(self.out, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out, name)

    def bench(self, name, *args):
        return [os.path.join(self.wsq, "bench", name)] + list(args)

    def example(self, name, *args):
        return [os.path.join(self.wsq, "examples", name)] + list(args)

    def run(self, label, cmd, accept=None):
        with open(self.path(label + ".log"), "w") as logfile:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=logfile, text=True,
                                      timeout=RUN_TIMEOUT_S)
                logfile.write(proc.stdout)
                ok = proc.returncode == 0 or (
                    accept is not None and accept(proc.stdout))
            except subprocess.TimeoutExpired:
                ok = False
        log(("ok    " if ok else "FAIL  ") + label)
        if not ok:
            self.failures.append(label)

    def run_all(self, runs):
        with concurrent.futures.ThreadPoolExecutor(self.jobs) as pool:
            for future in [pool.submit(self.run, *r) for r in runs]:
                future.result()

    def start_wsqd(self, label, *args):
        port_file = self.path(label + ".port")
        if os.path.exists(port_file):
            os.remove(port_file)
        logfile = open(self.path(label + ".log"), "w")
        proc = subprocess.Popen(
            [os.path.join(self.wsq, "src", "wsqd"), "--port=0",
             "--port-file=" + port_file] + list(args),
            stdout=logfile, stderr=logfile)
        for _ in range(600):
            if os.path.exists(port_file) and open(port_file).read().strip():
                return proc, int(open(port_file).read())
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        self.stop_wsqd(label, proc)
        return None, None

    def stop_wsqd(self, label, proc):
        ok = False
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                ok = proc.wait(timeout=120) == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        log(("ok    " if ok else "FAIL  ") + label)
        if not ok:
            self.failures.append(label)

    def with_wsqd(self, label, wsqd_args, clients, usr1_stats=None):
        """Runs each client command against one wsqd; "{port}" in a
        client argument is replaced by the daemon's port."""
        proc, port = self.start_wsqd(label, *wsqd_args)
        if proc is None:
            return
        for client_label, cmd in clients:
            self.run(client_label, [a.replace("{port}", str(port))
                                    for a in cmd])
        if usr1_stats is not None:
            proc.send_signal(signal.SIGUSR1)
            for _ in range(100):
                if os.path.exists(usr1_stats) and os.path.getsize(usr1_stats):
                    break
                time.sleep(0.1)
        self.stop_wsqd(label, proc)


def run_product(build_dir, jobs):
    p = ProductRuns(build_dir, jobs)

    # Simulation products: independent processes, run side by side.
    sim = [(name, p.bench(name)) for name in FIGURE_BENCHES]
    sim.append(("fleet_sim", p.bench("bench_fleet_tenancy", "--skip-live")))
    sim += [
        ("fig4_observed", p.bench(
            "bench_fig4_wan_decisions", "--jobs=1",
            "--trace-out=" + p.path("fig4.trace.json"),
            "--metrics-out=" + p.path("fig4.metrics.json"))),
        ("fig4_jsonl_csv", p.bench(
            "bench_fig4_wan_decisions", "--jobs=2",
            "--bench-json=" + p.path("BENCH_fig4.json"),
            "--trace-out=" + p.path("fig4.trace.jsonl"),
            "--metrics-out=" + p.path("fig4.metrics.csv"))),
        ("fig4_text_metrics", p.bench(
            "bench_fig4_wan_decisions",
            "--metrics-out=" + p.path("fig4.metrics.txt"))),
    ]
    for plan in ("burst", "latency", "stall", "flaky"):
        for codec in ("soap", "binary"):
            label = "table3_%s_%s" % (plan, codec)
            sim.append((label, p.bench(
                "bench_table3_degradation", "--fault-plan=" + plan,
                "--codec=" + codec,
                "--metrics-out=" + p.path(label + ".metrics.json"))))
    sim.append(("table3_binary_lz", p.bench(
        "bench_table3_degradation", "--codec=binary+lz")))
    for name in CONTROLLERS:
        sim.append(("quickstart_" + name.replace(":", "_"),
                    p.example("quickstart", name)))
    for codec in ("binary", "binary+lz"):
        sim.append(("quickstart_" + codec, p.example(
            "quickstart", "hybrid", "--codec=" + codec)))
    for name in ("adaptive_vs_static", "ws_enrichment", "profile_capture",
                 "long_running_tracking", "model_based_tuning"):
        sim.append((name, p.example(name)))
    sim.append(("bench_codec", p.bench(
        "bench_codec", "--rows=2000", "--reps=3",
        "--bench-json=" + p.path("BENCH_codec.json")),
        lambda out: "codec-speedup:" in out and
        out.rstrip("\n").split("\n")[-1].startswith("codec-gate:")))
    p.run_all(sim)

    # Live products: sockets, one daemon at a time.
    p.with_wsqd("wsqd_plain", ["--scale=0.02"], [
        ("live_plain", p.bench(
            "bench_live_loopback", "--port={port}", "--clients=4",
            "--runs=2", "--bench-json=" + p.path("BENCH_live.json"))),
        ("quickstart_live", p.example(
            "quickstart", "hybrid", "--live=127.0.0.1:{port}")),
    ])
    p.run("live_burst", p.bench(
        "bench_live_loopback", "--fault-plan=burst", "--controller=fixed:100",
        "--scale=0.01", "--clients=2", "--runs=1"))
    stats = p.path("wsqd_traced.stats.json")
    p.with_wsqd("wsqd_traced", ["--scale=0.01", "--codec=binary",
                                "--stats-out=" + stats], [
        ("live_traced", p.bench(
            "bench_live_loopback", "--port={port}", "--clients=2",
            "--runs=1", "--codec=binary",
            "--trace-out=" + p.path("live.trace.json"),
            "--stats-out=" + p.path("live.stats.json"))),
        ("quickstart_live_binary", p.example(
            "quickstart", "hybrid", "--live=127.0.0.1:{port}",
            "--codec=binary")),
    ], usr1_stats=stats)
    p.with_wsqd("wsqd_admission", [
        "--scale=0.01", "--codec=binary+lz", "--profile=loaded",
        "--fault-plan=latency", "--workers=2", "--max-connections=64",
        "--rate-limit=1000", "--rate-limit-burst=100",
        "--idle-timeout-s=30", "--session-ttl-s=30", "--stats-interval-s=1",
        "--stats-out=" + p.path("wsqd_admission.stats.json")], [
        ("live_admission", p.bench(
            "bench_live_loopback", "--port={port}", "--clients=2",
            "--runs=1", "--codec=binary+lz")),
    ])
    p.run("c10k", p.bench(
        "bench_c10k_churn", "--connections=200", "--waves=1",
        "--shed-connections=50",
        "--bench-json=" + p.path("BENCH_c10k.json")))
    for codec in ("binary", "soap"):
        p.run("netchaos_" + codec, p.bench(
            "bench_netchaos", "--codec=" + codec, "--jobs=1",
            "--bench-json=" + p.path("BENCH_netchaos_%s.json" % codec)))
    p.with_wsqd("wsqd_fleet", [
        "--scale=0.4", "--seed=7", "--shed-watermark=4",
        "--stats-out=" + p.path("wsqd_fleet.stats.json")], [
        ("fleet_live", p.bench(
            "bench_fleet_tenancy", "--live-port={port}", "--live-tenants=8",
            "--runs=2", "--bench-json=" + p.path("BENCH_fleet.json"),
            "--metrics-out=" + p.path("fleet_metrics.json"))),
    ])

    perfbench = os.path.join(build_dir, "perfbench", "wsq_perfbench")
    for workload in PERFBENCH_WORKLOADS:
        p.run("perfbench_" + workload, [
            perfbench, "--workload", workload, "--seed", "1",
            "--seconds", str(PERFBENCH_SECONDS), "--trace", "1",
            "--spans", p.path("spans-%s.json" % workload)])
    return p.failures


def run_tests(build_dir, jobs):
    proc = subprocess.run(
        ["ctest", "-j", str(jobs), "--timeout", str(RUN_TIMEOUT_S)],
        cwd=os.path.join(build_dir, "wsq"), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    tail = proc.stdout.rstrip("\n").split("\n")[-12:]
    log("\n".join(tail))
    return proc.returncode


def ranges(numbers):
    out, start, prev = [], None, None
    for n in sorted(numbers) + [None]:
        if start is not None and (n is None or n != prev + 1):
            out.append("%d" % start if start == prev
                       else "%d-%d" % (start, prev))
            start = None
        if n is not None and start is None:
            start = n
        prev = n
    return ",".join(out)


def report(test, product):
    rows, totals = [], [0, 0, 0, 0]
    for path in sorted(set(test) | set(product)):
        t, p = test.get(path, {}), product.get(path, {})
        lines = set(t) | set(p)
        test_hit = {n for n in lines if t.get(n)}
        product_hit = {n for n in lines if p.get(n)}
        cells = [len(lines), len(product_hit), len(test_hit),
                 len(test_hit - product_hit)]
        totals = [a + b for a, b in zip(totals, cells)]
        rows.append([path] + cells)
    rows.append(["TOTAL"] + totals)
    width = max(len(r[0]) for r in rows)
    header = "%-*s %12s %8s %8s %10s" % (width, "file (src/wsq)",
                                           "instrumented", "product", "test",
                                           "test-only")
    body = ["%-*s %12d %8d %8d %10d" % (width, *r) for r in rows]
    return "\n".join([header] + body[:-1] + ["-" * len(header), body[-1]])


def test_only_lines(test, product):
    out = []
    for path in sorted(test):
        only = {n for n, hit in test[path].items()
                if hit and not product.get(path, {}).get(n)}
        if only:
            out.append("%s: %s\n" % (path, ranges(only)))
    return "".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".coverage_build"))
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    build(build_dir, args.jobs)
    reset_counters(build_dir)
    if run_tests(build_dir, args.jobs):
        log("coverage_report: some tier-1 tests failed in the "
            "coverage build (listed above)")
    test = collect(build_dir)
    reset_counters(build_dir)
    failures = run_product(build_dir, args.jobs)
    product = collect(build_dir)

    table = report(test, product)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")
    with open(os.path.join(build_dir, "test_only_lines.txt"), "w") as f:
        f.write(test_only_lines(test, product))
    if failures:
        print("product runs failed: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
