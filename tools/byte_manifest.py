"""Byte-identity manifest: run a fixed list of CLI invocations and pipeline
records and print {name: sha256 of the bytes written} as sorted JSON.

    python tools/byte_manifest.py > manifest.json

Run it on two checkouts and diff the two files: every name whose hash differs
is an output that changed. Records are hashed without their timestamp keys
(`created_utc`, `elapsed_seconds`), and the pipeline commands' stdout without
the line naming the record's file, so two runs on one tree give identical
manifests. The package is imported from this checkout's `src/`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lacunary import (  # noqa: E402
    IntegerSet, blockwise_schedule, decompose, decreasing_density_schedule, dyadic_partition, generate_primes
)
from lacunary._util import canonical_json  # noqa: E402
from lacunary.cli import main  # noqa: E402
from lacunary.experiments import ExperimentConfig, run_block_independence, run_certification  # noqa: E402

# the small configs whose records tests/test_experiments_cli.py pins
SMALL_BLOCK = dict(
    source={"kind": "integers", "n_max": 2048},
    partition={"kind": "dyadic", "k_max": "auto"},
    schedule={"kind": "linear_blocks"},
    s_values=(2,),
    trials=30,
    seed=17,
    tail_start=5,
)
SMALL_CERT = dict(
    source={"kind": "primes", "limit": 2**14},
    partition={"kind": "dyadic", "k_max": "auto"},
    schedule={"kind": "linear_blocks"},
    s_values=(2,),
    trials=12,
    seed=5,
    tail_start=9,
    scan_checkpoints=3,
    grid_cap=2**16,
)
# criterion 10 of tests/test_acceptance.py, cut to two trials
CRITERION_10 = dict(
    source={"kind": "primes", "limit": 2**20},
    partition={"kind": "dyadic", "k_max": 20},
    schedule={"kind": "linear_blocks"},
    s_values=(2,),
    trials=2,
    seed=20260810,
    tail_start=12,
    psi_fractions=(0.25, 1.0),
    thresholds={"tail_independence": 0.95, "psi_decay": 0.90},
    compute_scan=True,
    label="acceptance-10",
)

# (name, argv); an argument "{file}" is the path of that file in the work
# directory. Later invocations read the files earlier ones wrote.
CLI = [
    ("generate-primes-json", ["generate", "--primes", "--limit", "200", "--out-file", "{primes.json}"]),
    (
        "generate-primes-lines",
        ["generate", "--primes", "--limit", "200", "--format", "lines", "--out-file", "{primes.lines}"],
    ),
    ("generate-polynomial", ["generate", "--polynomial", "1,0,1", "--k-max", "40", "--out-file", "{poly.json}"]),
    ("generate-geometric", ["generate", "--geometric", "--base", "3", "--k-max", "60", "--out-file", "{geo.json}"]),
    (
        "generate-geometric-lines",
        ["generate", "--geometric", "--base", "3", "--k-max", "60", "--format", "lines", "--out-file", "{geo.lines}"],
    ),
    # 51 + 11k - k^2 on 1..40: three +-n ties and five collapsed values
    (
        "generate-polynomial-signed-lines",
        ["generate", "--polynomial", "51,11,-1", "--k-max", "40", "--format", "lines", "--out-file", "{signed.lines}"],
    ),
    ("generate-sumset", ["generate", "--sumset", "{geo.json}", "--j", "2", "--label", "sums", "--format", "lines"]),
    ("generate-integers", ["generate", "--integers", "--n-max", "30", "--out-file", "{ints.json}"]),
    ("partition-dyadic", ["partition", "--kind", "dyadic", "--k-max", "7"]),
    ("partition-gross", ["partition", "--kind", "gross", "--k-max", "3", "--exponents", "2,5,13"]),
    ("select-density", ["--seed", "3", "select", "--set", "{primes.json}", "--density", "0.3"]),
    ("select-density-lines-set", ["--seed", "3", "select", "--set", "{primes.lines}", "--density", "0.3"]),
    (
        "select-entries-schedule-selected-out",
        ["--seed", "4", "select", "--set", "{primes.json}", "--schedule", "{entries.json}",
         "--out-file", "{entries-trial.json}", "--selected-out", "{entries-selected.json}"],
    ),
    (
        "select-block-schedule",
        ["--seed", "5", "select", "--set", "{primes.json}", "--schedule", "{blocks.json}", "--out-file", "{trial.json}"],
    ),
    (
        "select-block-schedule-bitmap",
        ["--seed", "5", "select", "--set", "{primes.json}", "--schedule", "{blocks.json}", "--format", "bitmap",
         "--out-file", "{bitmap.json}"],
    ),
    ("independence-geometric", ["independence", "--set", "{geo.json}", "--s", "2"]),
    ("independence-primes", ["independence", "--set", "{primes.json}", "--s", "2"]),
    ("independence-integers", ["independence", "--set", "{ints.json}", "--s", "3"]),
    ("independence-planted-length-4", ["independence", "--set", "{planted-4.json}", "--s", "2"]),
    ("independence-planted-straddle", ["independence", "--set", "{planted-straddle.json}", "--s", "3"]),
    ("weyl-means-json", ["weyl", "--set", "{poly.json}", "--points", "1/2,1/3,0.41421356237309515"]),
    ("weyl-means-k-bignum", ["weyl", "--set", "{geo.json}", "--k", "50", "--points", "1/5,2/7,0.6180339887498949"]),
    ("weyl-scan-json", ["weyl", "--set", "{primes.json}", "--ks", "10,20,46", "--points", "1/2,1/4,0.3183098861837907"]),
    ("weyl-scan-csv", ["weyl", "--set", "{primes.json}", "--ks", "10,20,46", "--format", "csv"]),
    ("psi-block-schedule", ["psi", "--set", "{primes.json}", "--schedule", "{blocks.json}", "--trial", "{trial.json}"]),
    (
        "psi-block-schedule-bitmap-trial",
        ["psi", "--set", "{primes.json}", "--schedule", "{blocks.json}", "--trial", "{bitmap.json}", "--k", "30"],
    ),
    (
        "psi-entries-schedule",
        ["psi", "--set", "{primes.json}", "--schedule", "{entries.json}", "--trial", "{entries-trial.json}"],
    ),
    (
        "montecarlo-dependence",
        ["--seed", "7", "montecarlo", "--mode", "dependence", "--set", "{ints.json}", "--ell", "6", "--s", "2",
         "--trials", "40"],
    ),
    (
        "montecarlo-bernstein",
        ["--seed", "7", "montecarlo", "--mode", "bernstein", "--n", "50", "--a", "5,10,20", "--trials", "300",
         "--dist", "selector:0.3"],
    ),
    (
        "pipeline-block-independence",
        ["--config", "{block-config.json}", "--out", "{records}", "pipeline", "block-independence"],
    ),
    ("pipeline-certify", ["--config", "{cert-config.json}", "--out", "{records}", "pipeline", "certify"]),
]


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _payload(doc: dict) -> str:
    return canonical_json({key: value for key, value in doc.items() if key not in ("created_utc", "elapsed_seconds")})


def _write_inputs(work: Path) -> None:
    """The schedule, set and config files the invocations read, written through
    the library: an entries schedule and a block schedule of the primes <= 200,
    two dependent sets, and the two small pipeline configs. The sets hold one
    planted relation each: p + q = r + t among about 200 int64 elements below
    2^50, and 3x = a + b + c among about 135 elements below 2^81, whose run of
    +1 coefficients the witness order splits."""
    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    (work / "blocks.json").write_text(blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)]).to_json())
    (work / "entries.json").write_text(decreasing_density_schedule(E, "power_law", 0.5).to_json())
    rng = random.Random(29)
    elems = {rng.randrange(1 << 40, 1 << 50) for _ in range(196)}
    p, q, r = rng.sample(sorted(elems), 3)
    (work / "planted-4.json").write_text(IntegerSet.from_iterable(elems | {p + q - r}).to_json())
    elems = {rng.getrandbits(81) for _ in range(132)}
    a, b = rng.sample(sorted(elems), 2)
    x = rng.getrandbits(80)
    (work / "planted-straddle.json").write_text(IntegerSet.from_iterable(elems | {x, 3 * x - a - b}).to_json())
    (work / "block-config.json").write_text(ExperimentConfig(**SMALL_BLOCK).to_json())
    (work / "cert-config.json").write_text(ExperimentConfig(**{**SMALL_CERT, "trials": 3}).to_json())


def _cli_entries(work: Path) -> dict[str, str]:
    """Per invocation: its exit code and stdout, and each file it was told to
    write (--out-file, --selected-out); a pipeline's record, read back from
    the directory it was saved in."""
    out = {}
    for name, argv in CLI:
        args = [str(work / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        text = stdout.getvalue()
        if name.startswith("pipeline-"):  # the record's file name holds its timestamp
            text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("record: "))
            (saved,) = (work / "records" / "records").glob("*.json")
            out[f"cli/{name}/record"] = _sha256(_payload(json.loads(saved.read_text())))
            saved.unlink()
        out[f"cli/{name}/stdout"] = _sha256(f"exit {code}\n{text}")
        for flag, path in zip(args, args[1:]):
            if flag in ("--out-file", "--selected-out"):
                out[f"cli/{name}/{flag[2:]}"] = _sha256(Path(path).read_bytes())
    return out


def _record_entries() -> dict[str, str]:
    out = {}
    runs = [
        ("block-independence/small/threads-1", run_block_independence, SMALL_BLOCK, 1),
        ("block-independence/small/threads-2", run_block_independence, SMALL_BLOCK, 2),
        ("certification/small-with-psi/threads-1", run_certification, SMALL_CERT, 1),
        ("certification/small-with-psi/threads-2", run_certification, SMALL_CERT, 2),
        ("certification/criterion-10-trials-2/threads-1", run_certification, CRITERION_10, 1),
        ("certification/criterion-10-trials-2/threads-2", run_certification, CRITERION_10, 2),
    ]
    for name, run, spec, threads in runs:
        record = run(ExperimentConfig(**spec), threads=threads)
        out[f"record/{name}"] = _sha256(canonical_json(record.canonical_payload()))
    return out


def manifest() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        entries = _cli_entries(work)
    entries.update(_record_entries())
    return entries


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2, sort_keys=True))
