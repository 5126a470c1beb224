"""Job lists of the three workloads, as a pure function of the seed.

A job is one cold ``tlbgram`` invocation.  A workload is a fixed round
of jobs repeated ``rounds`` times; the seed picks the free arguments
(sizes within a class of equal cost, ``--seed`` values, oracle points)
and the order inside each round.  Every round holds the same mix, so
two seeds differ in which instances run, never in how much work of each
kind a run does.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

# Round cost on the reference machine (2-core VM, Python 3.11), seconds,
# taken from its slower spells.  It turns --seconds into a round count,
# so a run's job count depends on --seconds alone and never on how fast
# the program under test is.
NOMINAL_ROUND_S = {"basis": 6.5, "nullity": 10.0, "symbolic": 10.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the oracle expects of it."""

    command: str
    args: tuple[int, ...] = ()
    opts: tuple[tuple[str, object], ...] = ()
    expect_exit: int = 0
    # Set on out-of-range jobs that break the CLI contract at the
    # reference commit (ROADMAP open item 5); they are run and counted.
    known_bug: str = ""
    # (a, d) integer points at which the oracle evaluates a symbolic
    # determinant.
    points: tuple[tuple[int, int], ...] = ()

    def argv(self) -> list[str]:
        out = [self.command, *map(str, self.args)]
        for flag, value in self.opts:
            out += [flag, str(value)]
        return out + ["--format", "json"]

    def label(self) -> str:
        return " ".join(self.argv()[:-2])


# Out-of-range arguments.  The contract is exit 2, a one-line error and
# no traceback.
CONTRACT_JOBS = (
    Job("gram", (6,), expect_exit=2),
    Job("nullity-gram", (3, 4), expect_exit=2),
    Job("counts", (0, 1), expect_exit=2,
        known_bug="exit 1 with an AssertionError traceback"),
    Job("counts", (2, -1), expect_exit=2,
        known_bug="exit 1 with an AssertionError traceback"),
    Job("telescoping", (-3,), expect_exit=2,
        known_bug="exit 0 with an empty result list"),
)

# counts n k: n + k <= 8 is the enumerate_disk guard, n <= 6 that of
# count_atmost.
_COUNTS_ARGS = tuple(
    (n, k) for n in range(1, 7) for k in range(0, 9 - n)
)


def _seed_arg(rng: Random) -> int:
    return rng.randrange(2**31)


def _basis_round(rng: Random) -> list[Job]:
    jobs = [Job("enumerate", (n,)) for n in range(1, 7)]
    jobs += [Job("gram", (n,)) for n in (3, 4, 5)]
    jobs += [Job("lemma2", (n,)) for n in (3, 4, 5)]
    jobs += [Job("bijection", (n, rng.randint(1, n))) for n in range(1, 6)]
    jobs += [Job("counts", nk) for nk in rng.sample(_COUNTS_ARGS, 4)]
    jobs += [Job("telescoping", (rng.randint(1, 100),)) for _ in range(2)]
    jobs.append(Job("det-verify", (4,), (
        ("--mode", "modular"), ("--trials", rng.randint(1, 8)),
        ("--seed", _seed_arg(rng)))))
    # One n = 5 trial costs about as much as the whole gram 5 job.  With
    # one trial, each of these two jobs joins gram 5 and lemma2 5 in one
    # cost band of four jobs a round, and the tail (ten jobs beyond it)
    # falls in the middle of that band, not on its edge.  The trial count
    # varies on n = 4.
    jobs += [Job("det-verify", (5,), (
        ("--mode", "modular"), ("--trials", 1), ("--seed", _seed_arg(rng))))
        for _ in range(2)]
    jobs += CONTRACT_JOBS
    rng.shuffle(jobs)
    return jobs


def _nullity_round(rng: Random) -> list[Job]:
    # The mix places the two order statistics inside a cost class on
    # every seed.  n = 3 jobs come twice per route and k, so the median
    # job is an n = 3 job.  Two jobs a round cost seconds (gram 4 4,
    # skein 4 2) and nullity-gram 4 2 comes three times, so the job with
    # ten beyond it is the middle of nine gram 4 2 jobs.  Left out:
    # nullity-gram 4 3, whose cost falls between gram 4 2 and 4 4 on the
    # same 70x70 rank path, and nullity-skein 4 3 and 4 4, at 12 s and
    # 23 s a job, each a third of a run on its own.
    specs = [(route, 3, k) for route in ("nullity-gram", "nullity-skein")
             for k in (1, 2, 3) for _ in range(2)]
    specs += [("nullity-gram", 4, k) for k in (1, 2, 2, 2, 4)]
    specs += [("nullity-skein", 4, k) for k in (1, 2)]
    jobs = [Job(route, (n, k), (("--seed", _seed_arg(rng)),))
            for route, n, k in specs]
    rng.shuffle(jobs)
    return jobs


def _symbolic_round(rng: Random) -> list[Job]:
    # Only det-verify 3 and jones-wenzl 6 cost more than jones-wenzl 5,
    # six jobs in three rounds.  So the tail (ten jobs beyond it) is the
    # fifth slowest of 24 jones-wenzl 5 jobs, clear of that class's few
    # slow outliers, and the median falls inside the same class.
    jobs = [
        Job("det-verify", (n,), points=tuple(
            (rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)))
        for n in (1, 2, 3)
    ]
    jobs += [Job("jones-wenzl", (k,)) for k in (3, 4, 6)]
    jobs += [Job("jones-wenzl", (5,))] * 8
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {
    "basis": _basis_round,
    "nullity": _nullity_round,
    "symbolic": _symbolic_round,
}
WORKLOADS = tuple(_ROUNDS)

# The cheapest instance of each subcommand a workload runs; the set-up
# pass runs each of them once, cold.
WARMUP = {
    "basis": (
        Job("enumerate", (1,)),
        Job("gram", (3,)),
        Job("lemma2", (3,)),
        Job("bijection", (1, 1)),
        Job("counts", (1, 0)),
        Job("telescoping", (1,)),
        Job("det-verify", (4,), (("--mode", "modular"), ("--trials", 1),
                                 ("--seed", 0))),
        Job("nullity-gram", (3, 4), expect_exit=2),
    ),
    "nullity": (
        Job("nullity-gram", (3, 1), (("--seed", 0),)),
        Job("nullity-skein", (3, 1), (("--seed", 0),)),
    ),
    "symbolic": (
        Job("det-verify", (1,), points=((2, 3),)),
        Job("jones-wenzl", (3,)),
    ),
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def job_list(workload: str, seed: int, rounds: int) -> list[Job]:
    """The jobs of a run; equal arguments give equal lists."""
    make = _ROUNDS[workload]
    rng = Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    for _ in range(rounds):
        jobs += make(rng)
    return jobs
