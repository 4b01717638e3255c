"""Run a list of ops in one process and write what happened as JSON.

    python3 perfbench/worker.py JOB.json

The job names the repository root, the work directory, the ops, and
whether to trace.  CLI ops run in-process through
``cli.main(..., standalone_mode=False)``; library ops call the public API.
With ``"setup_only"`` the worker stops after import, loading the matroids
and enumerating their flags, which is the library workload's set-up.
Each op's time is given as wall time, and as CPU time scaled to the
reference host speed (see ``hostspeed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time


def run_cli(cli, args):
    """Exit code, stdout and stderr of one in-process CLI call, with the
    interpreter's behaviour for an uncaught exception (traceback, exit 1)."""
    import click

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="matroid-spheres", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.exceptions.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.exceptions.Abort:
            code = 1
        except Exception:  # an uncaught exception ends the real CLI with exit 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def load_flags(ops):
    """Lattices and their complete flags for the library ops (the set-up)."""
    from matroid_spheres import all_complete_flags
    from matroid_spheres.jsonio import load_matroid_file

    cache = {}
    for op in ops:
        for key in ("matroid", "m", "n"):
            path = op.get(key)
            if path and path not in cache:
                lattice = load_matroid_file(path)
                cache[path] = (lattice, all_complete_flags(lattice))
    return cache


def run_lib(op, lattices):
    from matroid_spheres import default_flag, poset_map_search, retraction_map, verify_retraction

    if op["kind"] == "pair":
        lattice, flags = lattices[op["matroid"]]
        report = verify_retraction(retraction_map(lattice, flags[op["a"]], flags[op["b"]]))
        return {"ok": report.ok, "flags": len(flags)}
    m, n = lattices[op["m"]][0], lattices[op["n"]][0]
    result = poset_map_search(m, n, default_flag(m))
    return {"found": result.found, "nodes": result.nodes}


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import PERIOD_S, HostSpeed
    os.chdir(job["workdir"])
    ops = job["ops"]

    t0 = perf_counter()
    from matroid_spheres import cli

    lattices = load_flags(ops)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "ops": []}
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        # Library ops are short, so the loop runs every PERIOD_S, not per op.
        speed = HostSpeed(every_s=PERIOD_S)
        begin = perf_counter()
        for i, op in enumerate(ops):
            if perf_counter() - begin > job.get("budget_s", float("inf")):
                break
            speed.calibrate()
            if tracer is not None:
                tracer.op, tracer.weak_source = i, None
                tracer.scope = op["id"] if op["kind"] == "cli" else "lib"
            code, out, err, payload = 0, "", "", None
            start, cpu = perf_counter(), thread_time()
            if op["kind"] == "cli":
                code, out, err = run_cli(cli, op["args"])
            else:
                try:
                    payload = run_lib(op, lattices)
                except Exception:
                    code, err = 1, traceback.format_exc()
            cpu, end = thread_time() - cpu, perf_counter()
            result["ops"].append({"start": start, "end": end, "latency_s": end - start,
                                  "cpu_s": cpu, "exit": code, "stdout": out,
                                  "stderr": err[-2000:], "payload": payload})
        speed.calibrate(force=True)
        for rec in result["ops"]:
            rec["scaled_s"] = rec["cpu_s"] * speed.scale(rec.pop("start"), rec.pop("end"))
        result["calib_s"] = speed.times
        if tracer is not None:
            result["tracer"] = tracer.summary()
            if job.get("spans"):
                tracer.write_spans(job["spans"])
    with open("/proc/self/status") as status:
        result["hwm_kb"] = next(int(line.split()[1]) for line in status
                                if line.startswith("VmHWM:"))
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
