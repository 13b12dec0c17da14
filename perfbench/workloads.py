"""The three workloads: seeded documents plus the job list of one pass.

Every parameter range is fixed in the tables below before the seeded draw,
and drawn jobs are never filtered afterwards.  Sizes and bases sit on a fixed
grid across each range (see `families.grid`); the seed draws the structure of
the random documents, the final states of the prime-cycle sets, the states
profiled, the numbers asked about and the order of the jobs.  So two seeds
differ in detail, not in the shape or total size of the mix.

Job command lines use positional arguments and defaults only, so they survive
the removal or renaming of tuning flags such as `--k-check` and `--cap`.  Two
flags are used where nothing else reaches the code: `gaps --horizon`, which
has no positional form, and `--lenient`, whose repair of leading-zero
documents is the only way from the command line to `automata.product`.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field

import families as F

WORKLOADS = ("decide", "refute", "elements")
INDEPENDENT_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7))


@dataclass
class Job:
    command: str
    argv: list            # "@name" stands for the path of document `name`
    docs: tuple = ()
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    docs: dict            # name -> document
    metas: dict           # name -> facts known by construction
    jobs: list

    def argv(self, job: Job, directory: str) -> list[str]:
        return [f"{directory}/{a[1:]}.aut" if a.startswith("@") else a for a in job.argv]

    def manifest(self) -> dict:
        digest = hashlib.sha256()
        for name in sorted(self.docs):
            digest.update(name.encode() + b"\0" + doc_bytes(self.docs[name]))
        for job in self.jobs:
            digest.update(json.dumps(job.argv).encode())
        used = [self.docs[d] for job in self.jobs for d in job.docs]
        return {
            "workload": self.name,
            "seed": self.seed,
            "jobs": len(self.jobs),
            "jobs_per_command": dict(sorted(Counter(j.command for j in self.jobs).items())),
            "bases": dict(sorted(Counter(str(d["base"]) for d in used).items())),
            "declared_states": dict(sorted(Counter(_bucket(d["state_count"]) for d in used).items())),
            "digest": digest.hexdigest()[:32],
        }


def _bucket(n: int) -> str:
    for hi in (10, 50, 100, 200, 400, 1000):
        if n <= hi:
            return f"<={hi}"
    return ">1000"


def doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


class _Maker:
    def __init__(self, name: str, seed: int):
        # the workload name is mixed in so the three workloads of one seed differ
        self.rng = random.Random(f"{name}:{seed}")
        self.docs: dict = {}
        self.metas: dict = {}
        self.jobs: list = []

    def doc(self, doc: dict, **meta) -> str:
        name = f"d{len(self.docs)}"
        self.docs[name] = doc
        self.metas[name] = meta
        return name

    def job(self, command: str, *args, meta=None):
        argv = [command] + [str(a) for a in args]
        docs = tuple(a[1:] for a in argv if a.startswith("@"))
        self.jobs.append(Job(command, argv, docs, meta or {}))

    def sizes(self, lo: int, hi: int, count: int) -> list[int]:
        return F.grid(lo, hi, count)

    def cycle(self, options, count: int) -> list:
        return [options[i % len(options)] for i in range(count)]

    def finish(self, name: str, seed: int) -> Workload:
        self.rng.shuffle(self.jobs)
        return Workload(name, seed, self.docs, self.metas, self.jobs)


def _random(b: _Maker, lo: int, hi: int, count: int, bases=(2, 3, 5, 10)) -> list[str]:
    return [b.doc(F.random_trimmed(b.rng, n, base), family="random")
            for n, base in zip(b.sizes(lo, hi, count), b.cycle(bases, count))]


def _multiples(b: _Maker, lo: int, hi: int, count: int, bases=(2, 3, 5, 10)) -> list[str]:
    return [b.doc(F.multiples(k, base), family="multiples", k=k)
            for k, base in zip(b.sizes(lo, hi, count), b.cycle(bases, count))]


def _chains(b: _Maker, lo: int, hi: int, count: int, bases=(2, 3)) -> list[str]:
    return [b.doc(F.chain(n, base), family="chain", n=n)
            for n, base in zip(b.sizes(lo, hi, count), b.cycle(bases, count))]


def _primes(b: _Maker, count: int) -> list[str]:
    return [b.doc(F.prime_cycles(b.rng), family="prime_cycles") for _ in range(count)]


def _periodic(b: _Maker, count: int, bases=(2, 3, 5, 10)) -> list[str]:
    out = []
    for k, base in zip(b.sizes(2, 30, count), b.cycle(bases, count)):
        residues = sorted(b.rng.sample(range(k), max(1, k // 2)))
        out.append(b.doc(F.periodic(residues, k, base), family="periodic",
                         k=k, residues=residues))
    return out


def _profile_state(b: _Maker, name: str) -> int:
    doc = b.docs[name]
    # over-declared documents: profile one of the states that carry transitions.
    # State 0 is left out unless it is alone: in a prime-cycle set it mixes
    # every cycle, period 510510, and one such draw would take most of a pass.
    live = 1 + max([t[0] for t in doc["transitions"]] + [doc["initial"]])
    return b.rng.randrange(1, live) if live > 1 else 0


def build_decide(seed: int) -> Workload:
    """Length profiles, minimization and the syndeticity decision."""
    b = _Maker("decide", seed)
    plan = [
        # (documents for n jobs, {command: n}); each command gets its own
        # documents spread over the whole size range
        (lambda n: _random(b, 50, 400, n),
         {"syndetic": 8, "witness-nonempty": 4, "witness-empty": 4, "profile": 8,
          "minimize": 8, "right-dense": 8, "trim": 8}),
        (lambda n: _multiples(b, 50, 1000, n),
         {"syndetic": 6, "witness-nonempty": 2, "witness-empty": 2, "profile": 4,
          "minimize": 4, "right-dense": 2, "trim": 2}),
        # Moore-worst chains: large for minimize, smaller where every state is profiled
        (lambda n: _chains(b, 200, 1000, n),
         {"minimize": 3, "profile": 3, "trim": 2, "right-dense": 2}),
        (lambda n: _chains(b, 100, 250, n, bases=(2,)),
         {"syndetic": 2, "witness-nonempty": 1, "witness-empty": 1}),
        (lambda n: _primes(b, n),
         {"syndetic": 3, "witness-nonempty": 1, "witness-empty": 2, "profile": 3,
          "minimize": 2, "right-dense": 1, "trim": 1}),
        # declared state_count far above the reachable part
        (lambda n: [b.doc(F.overdeclared(b.rng, declared, base), family="overdeclared")
                    for declared, base in zip(b.sizes(20000, 100000, n), b.cycle((2, 3), n))],
         {"minimize": 1, "trim": 1, "right-dense": 1, "syndetic": 1, "profile": 1,
          "witness-empty": 1}),
        (lambda n: [b.doc(F.example1(), family="example1")] * n,
         {"syndetic": 1, "right-dense": 1}),
        # documents that accept leading zeros: only lenient loading takes them,
        # and its repair is the one way from the command line to `product`
        (lambda n: [b.doc(F.raw_random(b.rng, size, base), family="raw")
                    for size, base in zip(b.sizes(50, 200, n), b.cycle((2, 3, 5, 10), n))],
         {"minimize": 2, "trim": 2, "syndetic": 2, "right-dense": 2}),
    ]
    for make, commands in plan:
        for command, count in commands.items():
            for name in make(count):
                if command == "profile":
                    b.job(command, f"@{name}", _profile_state(b, name))
                elif b.metas[name]["family"] == "raw":
                    b.job(command, f"@{name}", "--lenient")
                else:
                    b.job(command, f"@{name}")
    return b.finish("decide", seed)


def build_refute(seed: int) -> Workload:
    """Cross-base refutation, the Kronecker exponent search, independence."""
    b = _Maker("refute", seed)
    # The Kronecker search's cost is heavy-tailed: its median is well under a
    # millisecond, but a few tuples or pairs take seconds or hit the cap.
    # Drawn per seed, those few made jobs_per_s vary sixfold between seeds, so
    # the inputs that reach the search in earnest (the random pairs and the
    # tuples) come from one stream that --seed does not change.  Whatever that
    # stream holds stays in every run; the seed draws the other documents,
    # the indep bases and the job order.
    fixed = random.Random(1203)  # the seed of acceptance criterion 3
    pairs = b.cycle(INDEPENDENT_PAIRS, 42)
    sizes_p, sizes_q = b.sizes(8, 40, 42), b.sizes(8, 40, 42)[::-1]
    for (p, q), n_p, n_q in zip(pairs, sizes_p, sizes_q):
        if fixed.random() < 0.5:
            p, q = q, p
        left = b.doc(F.random_trimmed(fixed, n_p, p), family="random")
        right = b.doc(F.random_trimmed(fixed, n_q, q), family="random")
        b.job("refute", f"@{left}", f"@{right}")
    # Kronecker tuples drawn like the acceptance criterion's, over the four pairs
    for _ in range(30):
        p, q = fixed.choice(INDEPENDENT_PAIRS)
        n = fixed.randint(1, 19)
        m = fixed.randint(n + 1, 20)
        a, bb, c, d = (fixed.randint(1, 5) for _ in range(4))
        b.job("kronecker", m, n, a, bb, c, d, p, q)
    # known different: an infinite set over base 3, 5 or 7 against example1
    gappy = b.doc(F.example1(), family="example1")
    for i, p in enumerate(b.cycle((3, 5, 7), 6)):
        if i % 3 == 0:
            left = b.doc(F.naturals(p), family="naturals")
        elif i % 3 == 1:
            k = b.rng.randint(2, 12)
            left = b.doc(F.multiples(k, p), family="multiples", k=k)
        else:
            left = _periodic(b, 1, bases=(p,))[0]
        b.job("refute", f"@{left}", f"@{gappy}", meta={"expect": "refuted"})
    # equal sets written in two bases: no empty family, so "absent"
    for i, (p, q) in enumerate(b.cycle(INDEPENDENT_PAIRS, 10)):
        if i < 2:
            left, right = b.doc(F.naturals(p), family="naturals"), b.doc(F.naturals(q), family="naturals")
        else:
            k = b.rng.randint(2, 30)
            residues = sorted(b.rng.sample(range(k), max(1, k // 2)))
            left = b.doc(F.periodic(residues, k, p), family="periodic", k=k, residues=residues)
            right = b.doc(F.periodic(residues, k, q), family="periodic", k=k, residues=residues)
        b.job("refute", f"@{left}", f"@{right}", meta={"expect": "absent"})
    for _ in range(12):
        root = b.rng.randint(2, 6)
        if b.rng.random() < 0.5:  # dependent: two powers of one root
            b.job("indep", root ** b.rng.randint(1, 4), root ** b.rng.randint(1, 4))
        else:
            b.job("indep", b.rng.randint(2, 40), b.rng.randint(2, 40))
    return b.finish("refute", seed)


def _big(rng: random.Random, digits: int) -> int:
    return rng.randrange(10 ** (digits - 1), 10 ** digits)


def build_elements(seed: int) -> Workload:
    """Forward membership walks, ordered enumeration, gap scans, the codec."""
    b = _Maker("elements", seed)
    gappy = b.doc(F.example1(), family="example1")
    # member on large n, over every family
    names = (_random(b, 20, 150, 20) + _multiples(b, 10, 1000, 12) + _chains(b, 50, 500, 8)
             + _primes(b, 8) + [gappy] * 4 + _periodic(b, 8))
    for name, digits in zip(names, b.sizes(20, 400, len(names))):
        b.job("member", f"@{name}", _big(b.rng, digits))
    # enum N: layers are materialised whole, so chains stay inside their first layer
    names = (_random(b, 20, 120, 16) + _multiples(b, 10, 1000, 10) + _primes(b, 6)
             + _periodic(b, 6) + [gappy] * 4)
    for name, limit in zip(names, b.sizes(50, 2000, len(names))):
        b.job("enum", f"@{name}", limit)
    for name in _chains(b, 8, 14, 8, bases=(2,)):
        b.job("enum", f"@{name}", 2 ** (b.metas[name]["n"] - 3))
    # gaps up to a horizon; a chain's horizon sits three quarters into its first layer
    for name, horizon in zip(_random(b, 20, 120, 12, bases=(2, 3, 5)), b.sizes(1000, 20000, 12)):
        b.job("gaps", f"@{name}", "--horizon", horizon)
    for name, horizon in zip(_multiples(b, 10, 1000, 10), b.sizes(10000, 100000, 10)):
        b.job("gaps", f"@{name}", "--horizon", horizon)
    for name in _chains(b, 8, 14, 6, bases=(2,)):
        n = b.metas[name]["n"]
        b.job("gaps", f"@{name}", "--horizon", 2 ** (n - 2) + 2 ** (n - 3))
    for horizon in b.sizes(1000, 100000, 6):
        b.job("gaps", f"@{gappy}", "--horizon", horizon)
    for name, horizon in zip(_periodic(b, 6), b.sizes(1000, 50000, 6)):
        b.job("gaps", f"@{name}", "--horizon", horizon)
    # the digit codec
    for digits, base in zip(b.sizes(1, 300, 30), b.cycle(range(2, 17), 30)):
        b.job("encode", _big(b.rng, digits), base)
    for length, base in zip(b.sizes(1, 300, 30), b.cycle(range(2, 17), 30)):
        b.job("decode", ",".join(str(b.rng.randrange(base)) for _ in range(length)), base)
    return b.finish("elements", seed)


_WORKLOADS = {"decide": build_decide, "refute": build_refute, "elements": build_elements}


def build(name: str, seed: int) -> Workload:
    return _WORKLOADS[name](seed)
