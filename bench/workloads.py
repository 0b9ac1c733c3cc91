"""The three workloads. Each builds its inputs through public calls
(`setup`, timed), derives the reference data it checks against (`prepare`,
untimed), and hands the driver rounds of operations. A round is the unit the
driver repeats, so every run covers whole rounds and the same mix of
operations.
"""

from __future__ import annotations

import dataclasses
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import lacunary as L
from lacunary import experiments as X

import oracle as O


@dataclass
class Op:
    name: str  # the public function called, as <module>.<function>
    fn: Callable[..., Any]
    args: tuple
    info: dict  # what the check needs to know about the inputs

    def call(self):
        return self.fn(*self.args)


def _random_set(rng: random.Random, size: int, lo: int, hi: int) -> list[int]:
    out: set[int] = set()
    while len(out) < size:
        out.add(rng.randrange(lo, hi))
    return sorted(out)


def _moduli_problem(got_rows, want_rows) -> str | None:
    for got, want in zip(got_rows, want_rows, strict=True):
        for g, w in zip(got, want, strict=True):
            if not abs(g - abs(w)) <= O.WEYL_TOL:
                return f"modulus {g!r} differs from reference {abs(w)!r}"
    return None


# -- certify ------------------------------------------------------------------

# Criterion 10 of the acceptance suite, one trial per call.
CERTIFY_LIMIT = 2**20
CERTIFY_K_MAX = 20
CERTIFY_PSI_FRACTIONS = (0.25, 1.0)
CERTIFY_GRID_CAP = 1 << 20
CERTIFY_SCAN_CHECKPOINTS = 4
# The psi reference costs two FFTs of up to 2^20 points, so psi is checked on
# every fourth call; selections, verdicts and scans on every call.
CERTIFY_PSI_CHECK_EVERY = 4


class Certify:
    """`run_certification` on the criterion-10 config (primes <= 2^20, dyadic
    k <= 20, linear_blocks, s = 2, psi at 1/4 and all of the source, scan on),
    scaled to one trial per call; each call gets its own config seed."""

    # psi's FFTs over arrays of up to 2^20 points, select's Fraction
    # thresholds and the sieve (see calib.py)
    KERNEL = ("interpreter", "numpy", "memory")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    @staticmethod
    def config(seed: int) -> X.ExperimentConfig:
        return X.ExperimentConfig(
            source={"kind": "primes", "limit": CERTIFY_LIMIT},
            partition={"kind": "dyadic", "k_max": CERTIFY_K_MAX},
            schedule={"kind": "linear_blocks"},
            s_values=(2,),
            trials=1,
            seed=seed,
            tail_start=12,
            grid_cap=CERTIFY_GRID_CAP,
            psi_fractions=CERTIFY_PSI_FRACTIONS,
            scan_checkpoints=CERTIFY_SCAN_CHECKPOINTS,
            compute_scan=True,
            label="bench-certify",
        )

    def setup(self):
        cfg = self.config(0)
        source = X.build_source(cfg.source)
        partition = X.build_partition(cfg.partition, source)
        return X.build_schedule(cfg.schedule, L.decompose(source, partition))

    def prepare(self, schedule) -> list[str]:
        primes = O.primes_upto(CERTIFY_LIMIT)
        problems = []
        if schedule.elements != tuple(int(p) for p in primes):
            problems.append("generated source differs from the reference primes")
        # dyadic block k holds (2^(k-1), 2^k]; block 0 holds [0, 1]
        stops = [int(x) for x in np.searchsorted(primes, [1 << k for k in range(CERTIFY_K_MAX + 1)], side="right")]
        self.bounds = list(zip([0, *stops[:-1]], stops))
        # linear_blocks keeps ell_k = min(k, |E_k|) of block k
        deltas = [Fraction(min(k, hi - lo), hi - lo) if hi > lo else Fraction(0) for k, (lo, hi) in enumerate(self.bounds)]
        densities = [d for d, (lo, hi) in zip(deltas, self.bounds) for _ in range(hi - lo)]
        self.primes = primes
        self.thresholds = O.thresholds(densities)
        self.density_floats = np.array([float(d) for d in densities])
        n = len(primes)
        self.psi_ks = sorted({max(1, math.ceil(f * n)) for f in CERTIFY_PSI_FRACTIONS})
        self.sigmas = {
            k: sum((max(0, min(k, hi) - lo) * d for d, (lo, hi) in zip(deltas, self.bounds)), Fraction(0))
            for k in self.psi_ks
        }
        return problems

    def round(self, r: int) -> list[Op]:
        seed = self.rng.getrandbits(63)
        cfg = self.config(seed)
        info = {"seed": seed, "check_psi": r % CERTIFY_PSI_CHECK_EVERY == 0}
        return [Op("experiments.run_certification", L.run_certification, (cfg,), info)]

    @staticmethod
    def digest(record) -> str:
        return O.digest(record.canonical_payload())

    @staticmethod
    def corrupt(record):
        verdict = record.stages["blocks"][5]["independence"]["2"]
        verdict["independent_frequency"] = 1.0 - verdict["independent_frequency"]
        return record

    def check(self, op: Op, record) -> str | None:
        mask = O.selection_mask(O.trial_seed(op.info["seed"], 0), self.thresholds)
        counts, verdicts = [], []
        for lo, hi in self.bounds:
            picked = self.primes[lo:hi][mask[lo:hi]]
            counts.append(float(len(picked)))
            verdicts.append(0.0 if O.s2_instances(int(q) for q in picked) else 1.0)
        blocks = record.stages["blocks"]
        got = {
            "block_counts": [b["mean_selected"] for b in blocks],
            "verdicts": [b["independence"]["2"]["independent_frequency"] for b in blocks],
        }
        if O.digest(got) != O.digest({"block_counts": counts, "verdicts": verdicts}):
            return f"block counts or verdicts differ from the reference (seed {op.info['seed']})"

        values = record.stages["psi"]["per_trial"][0]["values"]
        for k in self.psi_ks if op.info["check_psi"] else ():
            v = values.get(str(k))
            ref = O.psi_sup(self.primes, mask, self.density_floats, self.sigmas[k], k, CERTIFY_GRID_CAP)
            if v is None or not O.within_grid_guarantee(v, ref):
                return f"psi({k}) = {v!r} outside the grid guarantee of the reference {ref!r}"

        selected = [int(q) for q in self.primes[mask]]
        m = len(selected)
        ks = sorted({max(1, math.ceil(m * (i + 1) / CERTIFY_SCAN_CHECKPOINTS)) for i in range(CERTIFY_SCAN_CHECKPOINTS)})
        scan = record.stages["scan"]
        if scan["ks"] != ks:
            return f"scan checkpoints {scan['ks']} differ from {ks}"
        return _moduli_problem(scan["moduli"], O.running_means(selected, ks, scan["points"]))


# -- dependence-mc ------------------------------------------------------------

MC_N = 4096
MC_ELLS = (2, 3, 4)


class DependenceMC:
    """`monte_carlo_dependence` on 1..4096 at s = 2, one trial per call, the
    round cycling ell over 2, 3, 4: the shape of criterion 04."""

    # nearly all of an op is select's pure-Python Fraction thresholds
    KERNEL = ("interpreter",)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self):
        return L.generate_integers(MC_N)

    def prepare(self, E) -> list[str]:
        self.E = E
        self.thresholds = {ell: O.thresholds([Fraction(ell, MC_N)] * MC_N) for ell in MC_ELLS}
        return [] if E.elements == tuple(range(1, MC_N + 1)) else ["generated set differs from 1..4096"]

    def round(self, r: int) -> list[Op]:
        ops = []
        for ell in MC_ELLS:
            seed = self.rng.getrandbits(63)
            args = (self.E, ell, 2, 1, seed)
            ops.append(Op("selection.monte_carlo_dependence", L.monte_carlo_dependence, args, {"ell": ell, "seed": seed}))
        return ops

    @staticmethod
    def digest(est) -> str:
        return O.digest(est.to_json_dict())

    @staticmethod
    def corrupt(est):
        return dataclasses.replace(est, dependent_count=1 - est.dependent_count)

    def check(self, op: Op, est) -> str | None:
        ell, seed = op.info["ell"], op.info["seed"]
        mask = O.selection_mask(O.trial_seed(seed, 0), self.thresholds[ell])
        dependent = 1 if O.s2_instances(int(i) + 1 for i in np.nonzero(mask)[0]) else 0
        got = [est.ell, est.set_size, est.trials, est.dependent_count]
        if O.digest(got) != O.digest([ell, MC_N, 1, dependent]):
            return f"estimate {got} differs from the reference {[ell, MC_N, 1, dependent]} (seed {seed})"
        return None


# -- certificates ---------------------------------------------------------------

SQUARES_K = 100_000
GEOMETRIC_K = 5000
INDEPENDENCE_CASES = (
    # name, s; sizes keep each witness search on one input class
    ("dfs", 2),
    ("int64", 2),
    ("bignum", 2),
    ("s3", 3),
    ("dfs_dependent", 2),
    ("int64_dependent", 2),
    ("bignum_dependent", 2),
)


class Certificates:
    """The two certificates on fixed generated sets, no selection: witness
    searches that run to exhaustion on s-independent sets of each input class
    and exit early on dependent ones, and Weyl means and scans over squares and
    a bignum geometric set at rational and angle points."""

    # witness searches in the interpreter and on int64 arrays, character
    # sums over arrays of up to 10^5 elements
    KERNEL = ("interpreter", "numpy", "memory")

    def __init__(self, seed: int):
        self.seed = seed

    def _raw_sets(self) -> tuple[dict[str, list[int]], list[str]]:
        rng = random.Random(self.seed)
        powers = [3**k for k in range(1, 201)]
        sets = {
            "dfs": _random_set(rng, 60, 1, 1 << 40),
            "int64": _random_set(rng, 256, 1 << 40, 1 << 50),
            # 3^k is s-independent for s <= 3: in a vanishing sum the lowest
            # power's coefficient is a multiple of 3, so +-3 under weight 6;
            # cancelling it needs -+1 or +-2 on the next power, and neither
            # completes to a zero-sum relation of weight <= 6
            "bignum": powers,
            "s3": powers[:40],
        }
        a, d = rng.randrange(1, 1 << 39), rng.randrange(1, 1 << 38)
        sets["dfs_dependent"] = sorted(set(_random_set(rng, 57, 1, 1 << 40)) | {a, a + d, a + 2 * d})
        p, q, r = (rng.randrange(1 << 45, 1 << 46) for _ in range(3))
        sets["int64_dependent"] = sorted(set(_random_set(rng, 252, 1 << 40, 1 << 50)) | {p, q, r, p + q - r})
        hi, mid, lo = sorted(rng.sample(range(1, 201), 3), reverse=True)
        sets["bignum_dependent"] = sorted(powers + [3**hi + 3**mid - 3**lo])
        points = [f"{rng.randrange(1, q)}/{q}" for q in (rng.randrange(17, 1000) for _ in range(4))]
        points += [repr(rng.uniform(0.05, 0.95)) for _ in range(4)]
        return sets, points

    def setup(self):
        sets, points = self._raw_sets()
        return (
            {name: L.IntegerSet.from_iterable(vals) for name, vals in sets.items()},
            L.generate_polynomial([0, 0, 1], SQUARES_K),
            L.generate_geometric(3, GEOMETRIC_K),
            [L.CirclePoint.parse(p) for p in points],
        )

    def prepare(self, inputs) -> list[str]:
        self.sets, self.squares, self.geometric, self.points = inputs
        raw, self.point_texts = self._raw_sets()
        self.expected = {name: O.s2_instances(vals) for name, vals in raw.items() if name != "s3"}
        self.expected["s3"] = set()
        self.members = {name: set(vals) for name, vals in raw.items()}
        squares = np.arange(1, SQUARES_K + 1, dtype=np.int64) ** 2
        geometric = [3**k for k in range(1, GEOMETRIC_K + 1)]
        self.sequences = {"squares": squares, "geometric": geometric}
        self.scan_ks = {
            name: [len(seq) * i // 4 for i in range(1, 5)] for name, seq in self.sequences.items()
        }
        self.references: dict[tuple, list[list[complex]]] = {}
        problems = []
        if self.squares.elements != tuple(int(x) for x in squares):
            problems.append("generated squares differ from the reference")
        if self.geometric.elements != tuple(geometric):
            problems.append("generated geometric set differs from the reference")
        return problems

    def round(self, r: int) -> list[Op]:
        ops = [
            Op("relations.is_s_independent", L.is_s_independent, (self.sets[name], s), {"case": name, "s": s})
            for name, s in INDEPENDENCE_CASES
        ]
        for name, E in (("squares", self.squares), ("geometric", self.geometric)):
            k = len(E)
            ops.append(Op("equidistribution.weyl_means", L.weyl_means, (E, k, self.points), {"seq": name, "ks": [k]}))
            ks = self.scan_ks[name]
            ops.append(
                Op("equidistribution.equidistribution_scan", L.equidistribution_scan, (E, ks, self.points), {"seq": name, "ks": ks})
            )
        return ops

    @staticmethod
    def digest(report) -> str:
        if isinstance(report, L.WeylReport):
            return O.digest([[v.real, v.imag] for v in report.values])
        return O.digest(report.to_json_dict())

    @staticmethod
    def corrupt(report):
        return types.SimpleNamespace(independent=not report.independent, s=report.s)

    def _reference(self, seq: str, ks: list[int]) -> list[list[complex]]:
        key = (seq, tuple(ks))
        if key not in self.references:
            self.references[key] = O.running_means(self.sequences[seq], ks, self.point_texts)
        return self.references[key]

    def check(self, op: Op, report) -> str | None:
        if op.name == "relations.is_s_independent":
            case, s = op.info["case"], op.info["s"]
            instances = self.expected[case]
            if report.independent != (not instances):
                return f"{case}: verdict independent={report.independent}, reference has {len(instances)} relations"
            if not report.independent:
                problem = O.witness_problem(report, s, self.members[case])
                if problem is None and O.witness_key(report) not in instances:
                    problem = "witness is not among the reference relations"
                return f"{case}: {problem}" if problem else None
            return None
        ref = self._reference(op.info["seq"], op.info["ks"])
        if op.name == "equidistribution.weyl_means":
            if report.k != op.info["ks"][0]:
                return f"weyl_means k={report.k}"
            for got, want in zip(report.values, ref[0], strict=True):
                if not abs(got - want) <= O.WEYL_TOL:
                    return f"weyl mean {got!r} differs from reference {want!r}"
            return None
        if list(report.ks) != op.info["ks"]:
            return f"scan checkpoints {list(report.ks)} differ from {op.info['ks']}"
        return _moduli_problem(report.moduli, ref)


WORKLOADS = {"certify": Certify, "dependence-mc": DependenceMC, "certificates": Certificates}
