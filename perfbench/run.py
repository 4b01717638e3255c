"""Certification benchmark for matroid-spheres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is used from ``src/`` as it
is, with nothing installed.  The inputs are made from ``--seed`` (see
``inputs.py``).  Ops run closed-loop, one at a time, with at most one child
process alive:

- CLI ops run as child processes, so each one pays interpreter start-up
  as a shell user does; peak RSS comes from ``os.wait4`` for that child;
- the library workload (flag-pairs) runs in one worker child process
  (``worker.py``) that times each op.

Every reported time is scaled to a reference host speed by a calibration
loop timed next to it (``hostspeed.py``), because the shared host's own
speed drifts by up to 2x within minutes.

With ``--trace 0`` the op list is run in passes for ``--seconds`` (see
``measure``) and the end-to-end metrics are printed.  With ``--trace 1``
one untraced pass, one untraced in-process pass and one traced in-process
pass are run; the traced pass gives the per-layer metrics and must agree
with the untraced ones, op by op, on exit codes and verdicts.

Every output is checked by ``oracle.py``.  An op fails when its outcome is
not the known answer; ``correct`` is false when any failure is not one of
the documented known defects (``inputs.KNOWN_DEFECTS``) or the traced pass
disagrees.  ``attempted`` counts the ops of the op list, ``failed`` those
with a failed run.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

# The console entry point, plus an exit hook that writes the process's own
# peak RSS (VmHWM) to $PERFBENCH_HWM.  os.wait4's ru_maxrss is no use here:
# Linux carries the pre-exec high-water mark into the child, so it reads at
# least this benchmark's own peak RSS.
ENTRY = """import atexit, os, sys
def peak():
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            open(os.environ["PERFBENCH_HWM"], "w").write(line.split()[1])
atexit.register(peak)
from matroid_spheres.cli import main
sys.exit(main())"""
SETUPS = 5  # set-up repetitions per run; setup_s is their median
OP_DEADLINE_S = 60.0  # a CLI op or a worker pass that runs longer is killed
RUN_LIMIT_S = 170.0  # no op is started later than this into the run


class Run:
    """One benchmark run: its work directory, clock and op records."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # Outputs never depend on the hash seed, but op times do (set and
        # dict layouts); one fixed seed removes that spread between runs.
        self.env["PYTHONHASHSEED"] = "0"
        self.records: list[dict] = []  # every op run, in every pass
        self.speed = hostspeed.HostSpeed()  # calibrations between parent-timed spans
        self.calib_s: list[float] = []  # calibration times taken in worker children

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def spawn(self, argv, cwd: Path, calibrate=True) -> dict:
        """Run one child to its end; wall and CPU time, peak RSS, exit code
        and output.  With ``calibrate`` the host-speed loop runs every
        PERIOD_S while the child runs."""
        out_path, err_path = cwd / ".child_out", cwd / ".child_err"
        hwm_path = cwd / ".child_hwm"
        hwm_path.unlink(missing_ok=True)
        env = {**self.env, "PERFBENCH_HWM": str(hwm_path)}
        deadline = max(0.0, min(OP_DEADLINE_S, self.remaining()))
        timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], hostspeed.PERIOD_S)[0]:
                    if not timed_out and perf_counter() - start >= deadline:
                        timed_out = True
                        proc.kill()
                    elif calibrate:
                        self.speed.calibrate()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(exited)
            latency = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if timed_out:
            stderr += f"\nkilled: missed the {deadline:.0f} s deadline"
        return {"start": start, "latency_s": latency, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_kb": int(hwm_path.read_text()) if hwm_path.exists() else usage.ru_maxrss,
                "exit": code,
                "stdout": out_path.read_text(errors="replace"), "stderr": stderr[-2000:],
                "timed_out": timed_out}

    def scaled(self, rec: dict) -> float:
        """A child's CPU time, scaled to the reference host speed."""
        return rec["cpu_s"] * self.speed.scale(rec["start"], rec["start"] + rec["latency_s"])

    def cli(self, args, cwd: Path) -> dict:
        return self.spawn([sys.executable, "-c", ENTRY] + list(args), cwd)

    def worker(self, job: dict, cwd: Path) -> tuple[dict, dict]:
        """Run worker.py on a job; its result and the child's own record."""
        job = {"root": str(ROOT), "workdir": str(cwd), "result": str(cwd / ".worker.json"),
               **job}
        (cwd / ".job.json").write_text(json.dumps(job))
        # A worker that runs ops calibrates itself, between its ops.
        child = self.spawn([sys.executable, str(HERE / "worker.py"), str(cwd / ".job.json")],
                           cwd, calibrate=job.get("setup_only", False))
        if child["exit"] != 0:
            return {"ops": []}, child
        return json.loads((cwd / ".worker.json").read_text()), child

    # -- set-up ---------------------------------------------------------------

    def setup(self, index: int):
        """Write the inputs; start the CLI once after the set-up ops, or for
        the library workload import, load and enumerate flags in a worker.
        Returns (plan, directory, seconds): the CPU time of this process
        (without the host-speed loops) and of its children, scaled."""
        self.speed.calibrate()
        start, cpu, loops = perf_counter(), thread_time(), self.speed.loop_cpu
        plan = inputs.build(self.workload, self.seed)
        cwd = self.work / f"setup{index}"
        inputs.write_plan(plan, cwd)
        if self.workload == "flag-pairs":
            _, child = self.worker({"ops": plan.ops, "setup_only": True}, cwd)
            if child["exit"] != 0:
                fail(f"worker set-up exited {child['exit']}: {child['stderr'][-300:]}")
            children = [child]
        else:
            children = []
            for op in plan.setup + [{"id": "start the CLI", "args": ["--help"]}]:
                children.append(rec := self.cli(op["args"], cwd))
                if rec["exit"] != 0:
                    fail(f"set-up op {op['id']} exited {rec['exit']}: {rec['stderr'][-300:]}")
        cpu = (thread_time() - cpu - (self.speed.loop_cpu - loops)
               + sum(c["cpu_s"] for c in children))
        end = perf_counter()
        self.speed.calibrate()
        return plan, cwd, cpu * self.speed.scale(start, end)

    # -- passes ---------------------------------------------------------------

    def run_pass(self, ops, cwd: Path, in_process=False, trace=False, stop=None, typical=None):
        """Run the ops in order, one record per op run, judged by the oracle.

        With ``stop`` (a perf_counter time) an op runs only if it would
        finish by then, judged by its ``typical`` latency (the worker stops
        at the first op past the budget); otherwise every op runs unless the
        run's hard limit is reached.
        """
        extra = {}
        finished = True  # False when the pass was cut by the hard limit
        if self.workload == "flag-pairs" or in_process:
            job = {"ops": ops, "trace": trace}
            if stop is not None:
                job["budget_s"] = stop - perf_counter()
            if trace:
                out = ROOT / ".perfbench_out"
                out.mkdir(exist_ok=True)
                job["spans"] = str(out / f"spans-{self.workload}.tsv")
            result, child = self.worker(job, cwd)
            recs = result["ops"]
            for rec in recs:
                rec["rss_kb"] = result.get("hwm_kb", child["rss_kb"])
            if child["exit"] != 0:
                finished = False
                print(f"# worker exited {child['exit']}: {child['stderr'][-300:]}")
            extra["tracer"] = result.get("tracer")
            extra["calib_s"] = result.get("calib_s", [])
            self.calib_s += extra["calib_s"]
        else:
            recs = []
            for op in ops:
                if self.remaining() <= 0:
                    finished = False
                    break
                if stop is not None and perf_counter() + typical[op["id"]] > stop:
                    continue
                self.speed.calibrate()
                recs.append({"op": op, **self.cli(op["args"], cwd)})
            self.speed.calibrate()
            for rec in recs:
                rec["scaled_s"] = self.scaled(rec)
        if self.workload == "flag-pairs" or in_process:
            for op, rec in zip(ops, recs):
                rec["op"] = op
        for rec in recs:
            rec["status"], rec["detail"] = oracle.check(
                rec["op"], rec["exit"], rec["stdout"], rec["stderr"], cwd, rec.get("payload"))
            if rec.get("timed_out"):
                rec["status"] = "wrong"
        if not finished:
            ran = {id(rec["op"]) for rec in recs}
            recs += [{"op": op, "latency_s": 0.0, "scaled_s": 0.0, "rss_kb": 0, "exit": None,
                      "status": "wrong", "detail": "not run: hard time limit"}
                     for op in ops if id(op) not in ran]
        self.records.extend(recs)
        return recs, extra

    def startup_s(self, cwd: Path) -> float:
        """Median scaled time of three ``--help`` children."""
        times = []
        for _ in range(3):
            self.speed.calibrate()
            rec = self.cli(["--help"], cwd)
            self.speed.calibrate()
            times.append(self.scaled(rec))
        return statistics.median(times)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics from passes over the op list for ``seconds``.

    The first pass runs every op.  Later passes run the ops with the fewest
    samples first and, among those, the cheapest first, each only if it
    fits in the time left, so that as many ops as possible get another
    sample.  Each op's latency is the median of its scaled samples
    (``hostspeed.py``): wall_s is their sum and the percentiles are taken
    over them.
    """
    setups = [run.setup(i) for i in range(SETUPS)]
    plan, cwd, _ = setups[-1]
    stop = perf_counter() + seconds
    raw: dict[str, list[float]] = {op["id"]: [] for op in plan.ops}  # for the schedule
    samples: dict[str, list[float]] = {op["id"]: [] for op in plan.ops}
    order = plan.ops
    passes = 0
    while True:
        recs, _ = run.run_pass(order, cwd, stop=stop if passes else None,
                               typical=latency(raw))
        passes += 1
        for r in recs:
            if r["exit"] is not None:
                raw[r["op"]["id"]].append(r["latency_s"])
                samples[r["op"]["id"]].append(r["scaled_s"])
        typical = latency(raw)
        if (not recs or run.remaining() <= 0 or len(typical) < len(plan.ops)
                or min(typical.values()) > stop - perf_counter()):
            break
        order = sorted(plan.ops, key=lambda op: (len(raw[op["id"]]), typical[op["id"]]))
    per_op = list(latency(samples).values())
    if len(plan.ops) <= 40:
        for op in plan.ops:
            xs = samples[op["id"]]
            print(f"# op {op['id']}: {statistics.median(xs):.4f} s over {len(xs)} samples")
    top = inputs.TOP_RUNG[run.workload]
    tops = [x for op in plan.ops if op["rung"] == top for x in samples[op["id"]]]
    calib = statistics.median(run.speed.times + run.calib_s)
    print(f"# {passes} passes, {sum(map(len, samples.values()))} samples of "
          f"{len(plan.ops)} ops, {len(tops)} top-rung samples ({top}), {SETUPS} set-ups")
    print(f"# host speed: calibration loop median {1000 * calib:.2f} ms "
          f"(reference {1000 * hostspeed.REF_S:.2f} ms); unscaled wall_s "
          f"{sum(latency(raw).values()):.4f} s")
    return {
        "wall_s": (sum(per_op), "s"),
        "top_rung_s": (statistics.median(tops), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(per_op, n=10)[8], "ms"),
        "peak_rss_mb": (max(r["rss_kb"] for r in run.records) / 1024, "MB"),
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
    }


def latency(samples: dict) -> dict:
    """Median latency of each op that has samples."""
    return {k: statistics.median(v) for k, v in samples.items() if v}


def trace(run: Run) -> tuple[dict, bool]:
    """Per-layer metrics from one traced pass, and whether the traced
    pass's exit codes and verdicts equal the untraced passes'."""
    plan, cwd, _ = run.setup(0)
    startup = run.startup_s(cwd)
    reference, _ = run.run_pass(plan.ops, cwd)
    if run.workload == "flag-pairs":
        untraced = reference
    else:
        untraced, _ = run.run_pass(plan.ops, cwd, in_process=True)
    traced, extra = run.run_pass(plan.ops, cwd, in_process=True, trace=True)
    agree = True
    for ref, other in ((reference, untraced), (reference, traced)):
        for a, b in zip(ref, other):
            if (a["exit"], a["status"]) != (b["exit"], b["status"]):
                agree = False
                print(f"# trace self-check: {a['op']['id']}: untraced exit {a['exit']} "
                      f"{a['status']}, in-process exit {b['exit']} {b['status']}")
    overhead = (sum(r["scaled_s"] for r in traced)
                / max(sum(r["scaled_s"] for r in untraced), 1e-9))
    calib_ms = 1000 * statistics.median(run.speed.times + run.calib_s)
    summary = extra["tracer"] or {"totals": {}, "counts": {}, "distinct": {}}
    selfs = sorted(((v[2], k) for k, v in summary["totals"].items()), reverse=True)
    total_self = sum(s for s, _ in selfs) or 1.0
    print("# traced self time by layer: " + ", ".join(
        f"{k} {s:.3f} s ({100 * s / total_self:.0f}%)" for s, k in selfs[:6]))
    # One scale for the whole traced pass, from the worker's calibrations.
    scale = hostspeed.REF_S / statistics.median(extra["calib_s"] or [hostspeed.REF_S])
    metrics = tracer.per_layer_metrics(
        summary, {"cli.startup_s": startup, "trace.overhead_ratio": overhead,
                  "host.calib_ms": calib_ms}, time_scale=scale)
    return metrics, agree


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "matroid_spheres" / "cli.py").is_file():
        fail(f"no program source under {ROOT / 'src'}; run from a full checkout")

    print(f"# pinned to CPU {hostspeed.pin()} with every child (see hostspeed.py)")
    run = Run(args.workload, args.seed)
    try:
        # Start the CLI once so that byte-compilation is not timed.
        run.work.mkdir(parents=True, exist_ok=True)
        run.cli(["--help"], run.work)
        if args.trace:
            metrics, agree = trace(run)
        else:
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in measure(run, args.seconds).items()}
            agree = True
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    # An op of the op list is attempted once per run however many times it
    # ran, and failed if any of its runs failed, so the counts do not depend
    # on how many passes fitted in the run.
    statuses: dict[str, set] = {}
    for r in run.records:
        statuses.setdefault(r["op"]["id"], set()).add(r["status"])
        if r["status"] != "ok":
            print(f"# failed: {r['op']['id']}: {r['status']}: {r['detail']}")
    failed = [k for k, v in statuses.items() if v != {"ok"}]
    wrong = [k for k, v in statuses.items() if "wrong" in v]
    print(f"# fail_ratio {len(failed)}/{len(statuses)} = "
          f"{len(failed) / len(statuses):.4f} (known defects "
          f"{len(failed) - len(wrong)}, wrong {len(wrong)}; {len(run.records)} op runs)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": agree and not wrong, "attempted": len(statuses),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
