"""The four benchmark workloads.

Each workload turns the workload seed into a deterministic sequence of op
inputs (``make_input``), runs one op (``op``) and checks its result against
an oracle (``check``).  Inputs for timed ops and for the warm-up op are
drawn from disjoint seed ranges, so a per-object memo filled during warm-up
can never turn a timed op into a hit.

``rate`` is the number of ops per second this workload completes on the
reference machine (2 cores, Python 3.11, numpy 2.4).  A run executes
``round(seconds * rate)`` ops, so the work in a run is fixed for a given
``--seconds`` and two runs on one seed execute exactly the same ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import reedychain.classify as cl
import reedychain.cli as cli
import reedychain.harness as hn
import reedychain.lifting as lf
import reedychain.sampling as sm
import reedychain.serialization as sz
from reedychain.errors import ResourceCapError

P = 101
# Level-dimension bound of acceptance a08, used for lift-jwindow's fibrations
# and classify-mix's boxed cofibrations.  Boxes multiply level dimensions by
# up to ten and one cofibration feeds thirteen boxes, so an unbounded draw
# (level dimensions reach 25) puts a cluster of 0.5 s to 2 s ops into one
# run and not the next.
DIM_BOUND = 8
# Sampler systems above SAMPLE_CAP**2 entries are refused (ResourceCapError)
# and the scan moves on.  Without the cap a few draws per run allocate tens
# of MB and take seconds, and peak_rss_mb followed them (0.35 spread over
# ten classify-mix seeds).
SAMPLE_CAP = 512
_SEED_SPAN = 2**39
_WARM_BASE = 2**40


def _hash_int(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def timed_seed(*parts) -> int:
    """Sampler seed for a timed op, in [0, 2**39)."""
    return _hash_int(*parts) % _SEED_SPAN


def warm_seed(*parts) -> int:
    """Sampler seed for a warm-up op, in [2**40, 2**40 + 2**39): disjoint
    from every timed seed, even after a forward scan of many steps."""
    return _WARM_BASE + _hash_int("warm", *parts) % _SEED_SPAN


def interleave(groups):
    """Smooth weighted round-robin over (label, count) pairs.

    Every prefix of the result holds each label in close to its share of
    the total, so a run that stops partway through a cycle still has the
    cycle's mix.
    """
    total = sum(c for _, c in groups)
    taken = [0] * len(groups)
    out = []
    for step in range(1, total + 1):
        i = max(range(len(groups)), key=lambda g: groups[g][1] * step / total - taken[g])
        taken[i] += 1
        out.append(groups[i][0])
    return out


def level_dims(x) -> tuple[int, ...]:
    return tuple(sum(x.level(n).dims) for n in range(x.N + 1))


def max_level_dim(f) -> int:
    return max(max(level_dims(f.source)), max(level_dims(f.target)))


def within_dim_bound(f) -> bool:
    return max_level_dim(f) <= DIM_BOUND


class Workload:
    name = ""
    rate = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rejected = 0

    def sample(self, kind: str, N: int, seed: int, accept=None):
        """``sampling.sample(kind, 101, N, seed, cap=SAMPLE_CAP)``, scanning
        forward as acceptance a08 does (seed += 100003) past draws that hit
        the cap or fail ``accept``.  Rejected draws are counted."""
        while True:
            try:
                f = sm.sample(kind, P, N, seed=seed, cap=SAMPLE_CAP)
                if accept is None or accept(f):
                    return f
            except ResourceCapError:
                pass
            self.rejected += 1
            seed += 100003

    def make_input(self, j: int):
        raise NotImplementedError

    def warm_input(self):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def record(self) -> dict:
        return {"rejected_draws": self.rejected}


# ---------------------------------------------------------------------------
# classify-mix: the decision path on prebuilt objects


MAP_KINDS = (
    "reedy_fibration",
    "equifibered_fibration",
    "equifibered_exact",
    "trivial_fibration",
    "reedy_cofibration",
)

# Verdicts each sampler advertises.  equifibered_exact maps are level
# equivalences (acceptance a06); trivial fibrations are equifibered
# realization equivalences (a07).
EXPECTED = {
    "reedy_fibration": ("reedy_fib",),
    "equifibered_fibration": ("reedy_fib", "equifibered"),
    "equifibered_exact": ("equifibered", "realization_we", "realization_exact", "level_we"),
    "trivial_fibration": ("reedy_trivial_fib", "equifibered", "realization_we"),
    "reedy_cofibration": ("reedy_cof",),
}


def _classify_schedule():
    maps = [(("map", kind, N), 1) for N in (2, 3) for kind in MAP_KINDS]
    sched = interleave(maps + [(("box",), 13)])
    boxes = iter(range(13))
    return [("box", next(boxes)) if lab == ("box",) else lab for lab in sched]


# Boxes cost 10 ms to 65 ms each, by cofibration (those of level-trivial
# cofibrations cost the most), and thirteen boxes share one cofibration.
# Drawn per workload seed, the twenty cofibrations of a run moved op_ms.p50
# by 40% between seeds.  So every run boxes the same COFIBRATIONS
# cofibrations, drawn from a seed stream of their own, and the workload
# seed sets their order; the maps are drawn per workload seed.
COFIBRATIONS = 20


class ClassifyMix(Workload):
    """One op is ``classify.classify(f)``.  A cycle of 23 ops holds one map
    from each sampler at N=2 and N=3, and the 13 boxes of one Reedy
    cofibration with every ``harness.injective_pool(2)`` member."""

    name = "classify-mix"
    rate = 30.0
    SCHEDULE = _classify_schedule()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = hn.injective_pool(2)
        self.cof_order = random.Random(timed_seed(self.name, seed)).sample(
            range(COFIBRATIONS), COFIBRATIONS
        )
        self._cof = (None, None, None)  # (cycle, cofibration, level-trivial)

    def _cofibration(self, c):
        if self._cof[0] != c:
            k = self.cof_order[c % COFIBRATIONS]
            seed = timed_seed(self.name, "box", k)
            f = self.sample("reedy_cofibration", 2, seed, within_dim_bound)
            self._cof = (c, f, cl.level_we_witness(f) is None)
        return self._cof[1:]

    def make_input(self, j):
        c, slot = divmod(j, len(self.SCHEDULE))
        label = self.SCHEDULE[slot]
        if label[0] == "map":
            _, kind, N = label
            f = self.sample(kind, N, timed_seed(self.name, self.seed, c, kind, N))
            return ((c, label), f, kind, None)
        cof, trivial = self._cofibration(c)
        return ((c, label), cl.pushout_product(cof, self.pool[label[1]][1]), "box", trivial)

    def warm_input(self):
        f = self.sample("equifibered_fibration", 2, warm_seed(self.name, self.seed))
        return ("warm", f, "equifibered_fibration", None)

    def op(self, inp):
        return cl.classify(inp[1])

    def check(self, inp, out):
        _, _, kind, trivial = inp
        if kind == "box":
            return out.reedy_cof and (out.level_we or not trivial)
        return all(getattr(out, attr) for attr in EXPECTED[kind])


# ---------------------------------------------------------------------------
# lift-jwindow: generator construction plus large linear systems


# Op cost of lift-jwindow grows with the total level dimension of the map
# (source plus target, all levels): about 0.3 s up to 14, 0.5 s up to 20,
# 0.7 s (1.8 s for the rare maps above 27) beyond.  Every twenty ops take
# these buckets 4 : 8 : 8, close to the shares of 338 bounded draws (21%,
# 38%, 41%), so the mix of a run does not depend on its seed.
# (upper end, ops per twenty)
LIFT_BUCKETS = ((14, 4), (20, 8), (None, 8))
LIFT_KIND = "equifibered_fibration"
# Sampler seeds pinned per bucket by make_golden.py.  Most bounded draws are
# rejected, and how many depends on the seed; drawing from the pins makes
# set-up the same work for every workload seed.
LIFT_SEEDS = Path(__file__).resolve().parent / "lift_seeds.json"


def lift_bucket(f):
    total = sum(level_dims(f.source)) + sum(level_dims(f.target))
    return next(top for top, _ in LIFT_BUCKETS if top is None or total <= top)


def lift_accept(bucket):
    return lambda f: within_dim_bound(f) and lift_bucket(f) == bucket


class LiftJWindow(Workload):
    """One op is ``harness.check_j_injective_vs_equifibered`` over the J'
    and J'' window (-1, 3) x (0, 2) on an equifibered fibration at N=2 with
    level dimensions at most 8, as drawn by acceptance a08's forward scan.
    Op j takes a map of bucket SCHEDULE[j % 20].  The maps come from the
    sampler seeds pinned in LIFT_SEEDS: the workload seed shuffles each
    bucket's pins, and ops take them in that order.  The warm-up map is
    pinned too, from the warm-up seed range.  Each pin is checked
    again when it is sampled; one that no longer passes is scanned forward
    from, and the extra draws are counted as rejected."""

    name = "lift-jwindow"
    rate = 1.5
    SCHEDULE = interleave(LIFT_BUCKETS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pins = json.loads(LIFT_SEEDS.read_text(encoding="utf-8"))
        rng = random.Random(timed_seed(self.name, seed))
        self.queues = {}
        for top, _ in LIFT_BUCKETS:
            pool = pins["timed"][str(top)]
            rng.shuffle(pool)
            # A run longer than the pool reuses it from the start.
            self.queues[top] = itertools.cycle(pool)
        self.warm_seed = pins["warm"]

    def make_input(self, j):
        bucket = self.SCHEDULE[j % len(self.SCHEDULE)]
        f = self.sample(LIFT_KIND, 2, next(self.queues[bucket]), lift_accept(bucket))
        return (("g", j), f)

    def warm_input(self):
        return ("warm", self.sample(LIFT_KIND, 2, self.warm_seed, lift_accept(20)))

    def op(self, inp):
        return hn.check_j_injective_vs_equifibered(inp[1], window=(-1, 3), n_range=(0, 2))

    def check(self, inp, out):
        return out["equifibered"] and out["rlp_all"] and out["violations"] == []


# ---------------------------------------------------------------------------
# cotensor-match: a few large kernels


# sampling.random_small_map(101, 3, .) draws fall into nine level-dimension
# classes.  The two whose level dimensions grow with n (tensor with the
# 1-simplex: 8% and 7.5% of draws) hold every large cotensor0 system and
# cost 3 s and 6 s per trial; the other seven cost 0.1 s to 1 s and mix so
# unevenly that a 15 s run cannot hold enough of them for a steady median.
# cotensor-match therefore alternates the two growing classes, one to one
# as the sampler draws them; cli-mix's `check lem-match` runs the small
# trials.  Warm-up ops use the first class.
GROWING_CLASSES = (
    ((2, 3, 4, 5), (2, 3, 4, 5)),
    ((4, 6, 8, 10), (4, 6, 8, 10)),
)


class CotensorMatch(Workload):
    """One op is one lem-match trial: ``classify.matching_cotensor_comparison``
    for n = 0..3 on a ``sampling.random_small_map(101, 3, rng)`` draw from
    one of GROWING_CLASSES, drawn by rejection."""

    name = "cotensor-match"
    rate = 0.22
    N = 3
    MAX_DRAWS = 10000

    def _draw(self, target, *token):
        for a in range(self.MAX_DRAWS):
            rng = sm.rng_for(":".join(str(t) for t in ("perfbench", self.name, *token, a)))
            f = sm.random_small_map(P, self.N, rng)
            if (level_dims(f.source), level_dims(f.target)) == target:
                return f
            self.rejected += 1
        raise RuntimeError(f"no draw of class {target} in {self.MAX_DRAWS} tries")

    def make_input(self, j):
        target = GROWING_CLASSES[j % len(GROWING_CLASSES)]
        return (("f", j), self._draw(target, self.seed, j))

    def warm_input(self):
        return ("warm", self._draw(GROWING_CLASSES[0], "warm", self.seed))

    def op(self, inp):
        return [cl.matching_cotensor_comparison(inp[1], n) for n in range(self.N + 1)]

    def check(self, inp, out):
        return all(out)


# ---------------------------------------------------------------------------
# cli-mix: the command line the way users call it


# cli-mix is a fixed corpus: every seeded command runs on inputs k = 0..9,
# so a 15 s run (10 rotations) holds each (command, k) once and only the
# order, which starts at rotation base(seed), follows the seed.  The
# check suites' cost per k spans 0.13 s to 2.2 s, and runs holding
# different subsets of a larger pool differed by a third in ops_per_s.
GOLDEN_POOL = 10
_BASE = ["--p", str(P), "--trunc", "2"]
_CLASSIFY_KINDS = MAP_KINDS


def _suite(name, samples, *extra):
    return lambda k, d: [*_BASE, "--samples", str(samples), "--seed", str(10 * k), "check", name, *extra]


# (name, seeded, argv builder).  Seeded commands read input k; the others
# are the same every time.  Reports are compared with golden.json, except
# for sm7-realization (see CliMix.check).
CLI_COMMANDS = (
    ("classify", True, lambda k, d: [*_BASE, "classify", str(d / f"classify-{k}.json")]),
    ("check-sm7", True, _suite("sm7", 3)),
    ("generators", False, lambda k, d: [*_BASE, "--window=-1..3", "generators", "J'"]),
    ("check-realization-axiom", True, _suite("realization-axiom", 3)),
    ("rlp", True, lambda k, d: [*_BASE, "rlp", str(d / f"rlp-{k}.json")]),
    ("check-lem-match", True, _suite("lem-match", 2)),
    ("counterexample", False, lambda k, d: [*_BASE, "counterexample", "reedy-sm7"]),
    ("check-prop-proof", True, _suite("prop-proof", 3)),
    ("realize", False, lambda k, d: [*_BASE, "realize", "const:disk:1"]),
    ("check-prop-i-cof", True, _suite("prop-i-cof", 3)),
    ("cotensor", False, lambda k, d: ["--p", str(P), "--trunc", "3", "cotensor", "const:disk:0", "boundary:2"]),
    ("sm7-realization", True, _suite("sm7", 4, "--structure", "realization")),
)
SM7_REALIZATION_SAMPLES = 4


def classify_input(k: int):
    return sm.sample(_CLASSIFY_KINDS[k % len(_CLASSIFY_KINDS)], P, 2, seed=k)


def rlp_input(k: int) -> lf.LiftingProblem:
    """A commuting square with a known lift h: top = h i, bottom = q h."""
    gens = lf.generators("J'", P, 2, (0, 1), (0, 1)).members
    i = gens[k % len(gens)].map
    q = sm.sample("equifibered_fibration", P, 2, seed=k)
    h = sm.random_smap(i.target, q.source, sm.rng_for(f"perfbench:cli-mix:rlp:{k}"))
    return lf.LiftingProblem(i=i, p=q, top=h @ i, bottom=q @ h)


def write_inputs(k: int, d: Path) -> None:
    for stem, build in (("classify", classify_input), ("rlp", rlp_input)):
        path = d / f"{stem}-{k}.json"
        if not path.exists():
            path.write_text(sz.dumps(build(k)), encoding="utf-8")


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def golden_key(name: str, seeded: bool, k: int) -> str:
    return f"{name}:{k}" if seeded else name


class CliMix(Workload):
    """One op is one in-process ``cli.main(argv)`` with stdout captured; ops
    rotate through CLI_COMMANDS, and rotation r reads input
    k = (base + r) mod GOLDEN_POOL."""

    name = "cli-mix"
    rate = 8.0
    GOLDEN = Path(__file__).resolve().parent / "golden.json"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        self.base = timed_seed(self.name, seed) % GOLDEN_POOL
        self.sm7_violations = 0

    def make_input(self, j):
        rot, slot = divmod(j, len(CLI_COMMANDS))
        k = (self.base + rot) % GOLDEN_POOL
        name, seeded, build = CLI_COMMANDS[slot]
        if seeded and name in ("classify", "rlp"):
            write_inputs(k, self.workdir)
        return (golden_key(name, seeded, k), build(k, self.workdir), name)

    def warm_input(self):
        s = warm_seed(self.name, self.seed)
        path = self.workdir / "warm.json"
        path.write_text(sz.dumps(sm.sample("reedy_fibration", P, 2, seed=s)), encoding="utf-8")
        return ("warm", [*_BASE, "classify", str(path)], "warm")

    def op(self, inp):
        return run_cli(inp[1])

    def check(self, inp, out):
        key, _, name = inp
        code, text = out
        if name == "warm":
            return code == 0 and json.loads(text)["command"] == "classify"
        if name == "sm7-realization":
            # Exit 1 on truncation-limited cases is an open defect: accept
            # it, count its violations, and require only a consistent report.
            rep = json.loads(text)
            self.sm7_violations += len(rep["violations"])
            return (
                code == (1 if rep["violations"] else 0)
                and rep["trials"] == SM7_REALIZATION_SAMPLES
            )
        want_code, want_digest = self.golden[key]
        return code == want_code and digest(text) == want_digest

    def record(self):
        return {**super().record(), "sm7_realization_violations": self.sm7_violations}


WORKLOADS = {w.name: w for w in (ClassifyMix, LiftJWindow, CotensorMatch, CliMix)}
