"""Closed-loop benchmark of lacunary: one caller, each operation starting
after the previous one returns.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from --seed through public calls (timed as
setup_s), runs whole rounds of operations until --seconds have passed, then
checks every output against the references in oracle.py. Times are reported
at the reference speed of calib.py: each is divided by the time of a fixed
kernel run around it, which takes the shared host's speed swings out of the
figures; the raw times are in the run record. With --trace 0 the last line of
standard output is the result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run (see spans.py).
--corrupt flips one output before the check, to show that the check catches
it. Run from the root of a source checkout: the package is imported from
src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calib import kernel_seconds, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up runs in at least this many batches of at least SETUP_BATCH_S each,
# until this much time has passed; setup_s is the median over the batches.
SETUP_MIN_BATCHES = 5
SETUP_BATCH_S = 0.1
SETUP_MIN_SECONDS = 1.0
# The reference kernel is timed about this often while ops run (see calib.py).
CALIB_EVERY_S = 0.2
# op_tail_s is the highest percentile with at least this many samples above it.
TAIL_SAMPLES_BEYOND = 10


def machine(seed: int) -> dict:
    """What the numbers were measured on."""
    import numpy

    info: dict = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": None,
        "seed": seed,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        info["git_sha"] = ref
    return info


def timed_setup(workload):
    """Set-up repeated in batches of at least SETUP_BATCH_S, each batch between
    two timings of the workload's reference kernel. Returns the median set-up
    time at the reference speed, the median raw time, the repeat count and the
    inputs."""
    costs, times = [], []
    before = kernel_seconds(workload.KERNEL)
    while len(costs) < SETUP_MIN_BATCHES or sum(times) < SETUP_MIN_SECONDS:
        batch = []
        while not batch or sum(batch) < SETUP_BATCH_S:
            t0 = perf_counter()
            inputs = workload.setup()
            batch.append(perf_counter() - t0)
        after = kernel_seconds(workload.KERNEL)
        costs.append(sum(batch) / len(batch) / ((before + after) / 2))
        times.extend(batch)
        before = after
    return statistics.median(costs) * reference_seconds(workload.KERNEL), statistics.median(times), len(times), inputs


class Raised:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def run_op(call):
    t0 = perf_counter()
    try:
        out = call()
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        out = Raised(exc)
    return out, perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES_BEYOND - 1], 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


def check_all(workload, done, corrupt: bool) -> list[str]:
    failures = []
    for i, (op, out) in enumerate(done):
        if isinstance(out, Raised):
            failures.append(f"{op.name} raised {out.message}")
            continue
        if corrupt and i == 0:
            out = workload.corrupt(out)
        try:
            problem = workload.check(op, out)
        except Exception as exc:  # a malformed output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.name}: {problem}")
    return failures


def warm_up(workload) -> None:
    """One round before timing, so lazy imports and caches are filled."""
    for op in workload.round(-1):
        run_op(op.call)


def measure(workload, seconds: float):
    """Whole rounds until `seconds` have passed. The workload's reference
    kernel is timed before the first op and after each op that ends CALIB_EVERY_S or more
    after the last timing; each op's time is divided by the mean of the two
    kernel times around it. Returns per op (op, output, seconds, kernel
    units, position in its round) and the rounds run."""
    ops, pending = [], []
    start = perf_counter()
    before = kernel_seconds(workload.KERNEL)
    mark = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        for i, op in enumerate(workload.round(r)):
            out, dt = run_op(op.call)
            pending.append((op, out, dt, i))
            if perf_counter() - mark >= CALIB_EVERY_S:
                after = kernel_seconds(workload.KERNEL)
                ref = (before + after) / 2
                ops.extend((op, out, dt, dt / ref, i) for op, out, dt, i in pending)
                before, pending, mark = after, [], perf_counter()
        r += 1
    if pending:
        ref = (before + kernel_seconds(workload.KERNEL)) / 2
        ops.extend((op, out, dt, dt / ref, i) for op, out, dt, i in pending)
    return ops, r


def measure_traced(workload, seconds: float):
    """Each round runs untraced and traced on the same inputs, the order
    alternating from round to round."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, done, mismatches = [], [], [], []

    def untraced_pass(ops):
        outs = []
        for op in ops:
            out, dt = run_op(op.call)
            plain.append(dt)
            done.append((op, out))
            outs.append(out)
        return outs

    def traced_pass(ops):
        outs = []
        tracer.install()
        try:
            for op in ops:
                out, dt = run_op(lambda: tracer.call(op.name, op.fn, *op.args))
                traced.append(dt)
                outs.append(out)
        finally:
            tracer.uninstall()
        return outs

    start = perf_counter()
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        ops = workload.round(r)
        if r % 2:
            traced_outs, plain_outs = traced_pass(ops), untraced_pass(ops)
        else:
            plain_outs, traced_outs = untraced_pass(ops), traced_pass(ops)
        for op, a, b in zip(ops, plain_outs, traced_outs):
            if isinstance(a, Raised) or isinstance(b, Raised) or workload.digest(a) != workload.digest(b):
                mismatches.append(f"{op.name}: traced output differs from the untraced one")
        r += 1
    return tracer, plain, traced, done, mismatches, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "dependence-mc", "certificates"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true", help="flip the first output before checking it")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lacunary
    except ImportError as exc:
        print(f"cannot import lacunary from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(lacunary.__file__).resolve().parents:
        print(f"lacunary was imported from {lacunary.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s, setup_raw_s, setup_repeats, inputs = timed_setup(workload)
    problems = workload.prepare(inputs)
    warm_up(workload)

    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    details["setup"] = {"raw_median_s": setup_raw_s, "repeats": setup_repeats}
    if args.trace:
        from spans import layer_metrics, unit

        tracer, plain, traced, done, mismatches, rounds = measure_traced(workload, args.seconds)
        failures = check_all(workload, done, args.corrupt) + mismatches
        attempted = len(plain) + len(traced)
        values = layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file)
        details.update(rounds=rounds, traced_ops=len(traced), spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)))
    else:
        ops, rounds = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = [(op, out) for op, out, _, _, _ in ops]
        failures = check_all(workload, done, args.corrupt)
        attempted = len(ops)
        latencies = [dt for _, _, dt, _, _ in ops]
        units = [u for _, _, _, u, _ in ops]
        # a round's cost is the sum over its positions of the median cost of
        # the op at that position, so each kind of op counts as often as the
        # round holds it
        by_position: dict[int, list[float]] = {}
        for _, _, _, u, i in ops:
            by_position.setdefault(i, []).append(u)
        medians = [statistics.median(costs) for costs in by_position.values()]
        round_cost = sum(medians)
        tail_units, tail_pct = tail(units)
        ref_s = reference_seconds(workload.KERNEL)
        metrics = {
            "ops_per_s": {"value": len(by_position) / (round_cost * ref_s), "unit": "1/s"},
            # on a round of several kinds of op, the median of all ops falls
            # between two kinds and follows the seed; the geometric mean of
            # the kinds' medians does not
            "op_p50_s": {"value": statistics.geometric_mean(medians) * ref_s, "unit": "s"},
            "op_tail_s": {"value": tail_units * ref_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        details.update(
            rounds=rounds,
            ops=attempted,
            op_tail={"percentile": tail_pct, "samples": attempted},
            raw={
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_s": statistics.median(latencies),
                "op_tail_s": tail(latencies)[0],
                "kernel_s": sum(latencies) / sum(units),
            },
        )

    details.update(failed_frac=len(failures) / attempted, setup_problems=problems, failures=failures[:5], machine=machine(args.seed))
    print(json.dumps(details))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
