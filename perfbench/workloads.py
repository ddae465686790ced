"""Seeded workloads of the bcclab benchmark and their exact-answer gate.

Each workload is a fixed list of jobs. A job's ``run`` makes the library
calls (the timed part); its ``check`` re-validates the answer exactly and
returns a canonical, JSON-serialisable result whose SHA-256 digest must
match the one pinned in ``pinned.json``. Checks call no ``bcclab``
function, so a traced run attributes nothing to them.

The benchmark draws its own inputs (restricted growth strings, pairings,
row subsets) from ``--seed`` and never uses the library's samplers, whose
streams are free to change. Principal row subsets and two-party inputs
are drawn from fixed pools whose entries each have a pinned digest, so
every seed's answers are checked against pinned values.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from bcclab import algorithms as al
from bcclab import crossing as cr
from bcclab import families as fm
from bcclab import indist as ig
from bcclab import joinmatrix as jm
from bcclab import matching as mt
from bcclab import partitions as pt
from bcclab import reduction as rd
from bcclab import sim

WORKLOADS = ("rank", "family", "fool", "twoparty")

# Sizes. Each repetition of a job list takes a few seconds on a 2-core
# machine, so a run of ~30 s holds several repetitions.
PRINCIPAL_ROWS = 220  # seeded principal submatrix of M^7
# Candidate row subsets whose principal submatrix has full rank, confirmed
# by exact elimination at pin time. A random subset need not give a full
# rank (candidates 0, 15 and 16 do not); the rank-deficient case is the
# M^6 job's.
PRINCIPAL_POOL = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18)
FAMILY_N = 8
FAMILY_T = 2
FOOL_N = 300
FOOL_SAMPLE = 8
TWO_PARTY_N = 128  # ground size of the pair partitions
TWO_PARTY_T = 18  # FullExchangeSparse(2) budget: 2 slots x 9-bit ids (<= 3n)
JOIN_N = 200
YES_POOL = 16  # pairings whose join is the one-block partition
RANDOM_POOL = 16  # independent uniform pairings
JOIN_POOL = 64  # GENERAL partition pairs for the join correspondence
JOINS_PER_REP = 40

# Exact answers the gate compares against, beside the pinned digests.
EXPECTED = {
    "rank/M6": 203,
    "rank/E8": 105,
    "rank/M6-deficient": 202,
    "rank/M7-build": 877,
    "family/enumerate": {"v1": 2520, "t": {3: 672, 4: 315}},
    "family/kmatch-right-k1": "KMatching",
    "family/kmatch-right-k2": "KMatching",
    "family/kmatch-right-k3": "HallViolation",
    "family/kmatch-left-k1": "HallViolation",
}


class GateError(Exception):
    """A job's answer failed its exact check."""


def gate(ok, message):
    if not ok:
        raise GateError(message)


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rows_sha(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(bytes(row))
    return h.hexdigest()


@dataclass(frozen=True)
class Job:
    id: str  # key of the pinned digest
    run: Callable  # (RepContext) -> result; the timed library work
    check: Callable  # result -> canonical result; raises GateError


@dataclass
class RepContext:
    """State shared by the jobs of one repetition."""

    machine: Callable = lambda m: m  # the tracer wraps machines here
    shared: dict = field(default_factory=dict)


# -- seeded inputs -------------------------------------------------------------

def random_rgs_partition(rng, n):
    """Partition of {1..n} from a restricted growth string, element by element.

    Element i joins one of the blocks so far or opens a new one, each
    choice equally likely (not uniform over set partitions).
    """
    rgs = [0] * n
    top = 0
    for i in range(1, n):
        rgs[i] = rng.randint(0, top + 1)
        top = max(top, rgs[i])
    return pt.SetPartition.from_rgs(rgs)


def random_pairing(rng, n):
    items = list(range(1, n + 1))
    rng.shuffle(items)
    return pt.SetPartition(n, [(items[i], items[i + 1]) for i in range(0, n, 2)])


def one_cycle_pairings(rng, n):
    """Pairings A, B whose union is a single cycle, so join(A, B) is trivial."""
    items = list(range(1, n + 1))
    rng.shuffle(items)
    a = [(items[i], items[i + 1]) for i in range(0, n, 2)]
    b = [(items[i + 1], items[(i + 2) % n]) for i in range(0, n, 2)]
    return pt.SetPartition(n, a), pt.SetPartition(n, b)


class PoolEntry(NamedTuple):
    name: str
    p_a: object
    p_b: object
    table_seed: int = 0  # RandomTable seed for the two-party runs
    truth: object = None  # the Verdict the construction guarantees, if any


def pool_entry(kind, index):
    """The deterministic `index`-th entry of a pool ("yes", "rand" or "join")."""
    rng = random.Random(f"bcclab-bench/pool/{kind}/{index}")
    name = f"{kind}-{index:02d}"
    if kind == "yes":
        p_a, p_b = one_cycle_pairings(rng, TWO_PARTY_N)
        return PoolEntry(name, p_a, p_b, rng.randrange(1 << 30), sim.Verdict.YES)
    if kind == "rand":
        p_a = random_pairing(rng, TWO_PARTY_N)
        p_b = random_pairing(rng, TWO_PARTY_N)
        return PoolEntry(name, p_a, p_b, rng.randrange(1 << 30))
    if kind == "join":
        return PoolEntry(name, random_rgs_partition(rng, JOIN_N), random_rgs_partition(rng, JOIN_N))
    raise ValueError(f"unknown pool {kind!r}")


def _rng(workload, seed):
    return random.Random(f"bcclab-bench/{workload}/{seed}")


# -- rank ----------------------------------------------------------------------

def _matrix_canonical(job_id, matrix, rank=None):
    gate(matrix.dimension == EXPECTED[job_id], f"{job_id}: dimension {matrix.dimension}")
    if rank is not None:
        gate(rank == EXPECTED[job_id], f"{job_id}: rank {rank}")
    return {
        "kind": matrix.kind, "n": matrix.n, "dimension": matrix.dimension,
        "rank": rank, "index": matrix.index_hash(), "rows": _rows_sha(matrix.rows),
    }


def _built_and_ranked(kind, n, key):
    def run(ctx):
        matrix = jm.build_join_matrix(kind, n)
        ctx.shared[key] = matrix
        return matrix, jm.exact_rank(matrix)

    return run


def _deficient_rank(ctx):
    rows = [list(r) for r in ctx.shared["M6"].rows]
    rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return jm.exact_rank(rows)


def _check_deficient(rank):
    gate(rank == EXPECTED["rank/M6-deficient"], f"deficient M6 rank {rank}")
    return {"rank": rank}


def _build_m7(ctx):
    ctx.shared["M7"] = jm.build_join_matrix("M", 7)
    return ctx.shared["M7"]


def principal_subset(index):
    rng = random.Random(f"bcclab-bench/pool/principal/{index}")
    return sorted(rng.sample(range(EXPECTED["rank/M7-build"]), PRINCIPAL_ROWS))


def principal_job(index):
    subset = principal_subset(index)

    def check(full):
        gate(full is True, f"principal submatrix {index} not full rank")
        return {"rows": _sha(repr(subset)), "full_rank": full}

    return Job(
        f"rank/M7-principal-{index:02d}",
        lambda ctx: jm.verify_principal_submatrix_rank(ctx.shared["M7"], subset),
        check,
    )


def rank_jobs(seed):
    return [
        Job("rank/M6", _built_and_ranked("M", 6, "M6"),
            lambda r: _matrix_canonical("rank/M6", *r)),
        Job("rank/E8", _built_and_ranked("E", 8, "E8"),
            lambda r: _matrix_canonical("rank/E8", *r)),
        Job("rank/M6-deficient", _deficient_rank, _check_deficient),
        Job("rank/M7-build", _build_m7, lambda m: _matrix_canonical("rank/M7-build", m)),
        principal_job(_rng("rank", seed).choice(PRINCIPAL_POOL)),
    ]


# -- family --------------------------------------------------------------------

def _enumerate(ctx):
    ctx.shared["family"] = fm.enumerate_family(FAMILY_N)
    return ctx.shared["family"], fm.family_counts(FAMILY_N)


def _check_enumerate(result):
    fam, counts = result
    want = EXPECTED["family/enumerate"]
    gate(fam.v1_size == counts.v1 == want["v1"], f"|V1| = {fam.v1_size}")
    gate(fam.t_sizes() == counts.t_counts == want["t"], f"|T_i| = {fam.t_sizes()}")
    return {
        "v1": fam.v1_size, "t": fam.t_sizes(),
        "one_cycles": _sha(repr(fam.one_cycles)),
        "two_cycles": _sha(repr(sorted(fam.two_cycles.items()))),
    }


def validate_k_matching(adjacency, k, result):
    """Re-check a k-matching or a Hall violation against the adjacency."""
    if isinstance(result, mt.KMatching):
        gate(result.k == k and set(result.assignment) == set(adjacency),
             "k-matching does not saturate the left side")
        used = set()
        for u, rs in result.assignment.items():
            gate(len(rs) == k, f"{u} assigned {len(rs)} != {k}")
            gate(all(r in adjacency[u] for r in rs), f"{u} assigned a non-edge")
            gate(used.isdisjoint(rs), "assigned sets overlap")
            used.update(rs)
        return {"kind": "KMatching", "k": k, "size": len(result.assignment)}
    gate(isinstance(result, mt.HallViolation), f"unexpected result {type(result).__name__}")
    subset = result.subset
    gate(subset and subset <= set(adjacency), "violating set is empty or not left vertices")
    nbh = set()
    for u in subset:
        nbh.update(adjacency[u])
    gate(nbh == set(result.neighborhood), "reported neighbourhood is wrong")
    gate(len(nbh) < k * len(subset), "|N(S)| >= k|S|: not a violation")
    return {"kind": "HallViolation", "k": k, "subset": len(subset), "neighborhood": len(nbh)}


def _kmatch_job(side, k):
    job_id = f"family/kmatch-{side}-k{k}"

    def run(ctx):
        graph = ctx.shared["graph"]
        if side == "right":
            adjacency = {rk: sorted(lks) for rk, lks in graph.right_adjacency.items()}
        else:
            adjacency = graph.bipartite_adjacency(positive_degree_only=False)
        return adjacency, mt.k_matching(adjacency, k)

    def check(result):
        adjacency, matching = result
        canonical = validate_k_matching(adjacency, k, matching)
        gate(canonical["kind"] == EXPECTED[job_id], f"{job_id}: got {canonical['kind']}")
        return canonical

    return Job(job_id, run, check)


def family_jobs(seed):
    table_seed = _rng("family", seed).randrange(1 << 30)

    def indist(ctx):
        fam = ctx.shared["family"]
        machine = ctx.machine(al.RandomTable(table_seed, modulus=3))
        # every vertex of a KT0 cycle broadcasts the same sequence under this
        # machine; x = y = that sequence makes every directed edge active
        probe = sim.simulate(fam.one_cycle_instance(fam.one_cycles[0]), machine, FAMILY_T)
        x = probe.sent[0]
        graph = ig.build_indist_graph(fam, machine, FAMILY_T, x, x)
        ctx.shared["graph"] = graph
        return probe, graph, ig.degree_stats(graph)

    def check_indist(result):
        probe, graph, stats = result
        gate(all(s == probe.sent[0] for s in probe.sent), "broadcasts are not common")
        gate(stats.handshake_ok, "handshake identity fails")
        gate(set(graph.active_directed.values()) == {2 * FAMILY_N}, "not every edge active")
        return {
            "stats": stats.to_record(), "edges": graph.edge_count(),
            "ops": sum(graph.op_counts.values()),
        }

    return [
        Job("family/enumerate", _enumerate, _check_enumerate),
        Job("family/indist", indist, check_indist),
        _kmatch_job("right", 1),
        _kmatch_job("right", 2),
        _kmatch_job("right", 3),
        _kmatch_job("left", 1),
    ]


# -- fool ----------------------------------------------------------------------

def _fool_job(name, factory, t, sample_seed):
    def run(ctx):
        inst = sim.make_instance(FOOL_N, [(i, (i + 1) % FOOL_N) for i in range(FOOL_N)])
        return cr.find_fooling_pairs(
            inst, ctx.machine(factory()), t, verify="sampled", sample=FOOL_SAMPLE,
            rng=random.Random(sample_seed),
        )

    def check(report):
        want = {"mode": "sampled", "checked": min(FOOL_SAMPLE, len(report)), "failures": 0}
        gate(report.verification == want, f"verification {report.verification}")
        labels = ",".join("".join(str(s) for s in label) for label in report.labels)
        return {
            "pairs": len(report),
            "pairs_sha": hashlib.sha256(report.pairs.astype("<i8").tobytes()).hexdigest(),
            "labels_sha": _sha(labels),
            "buckets": len(report.bucket_sizes()),
        }

    return Job(f"fool/{name}-t{t}", run, check)


def fool_jobs(seed):
    rng = _rng("fool", seed)
    return [
        _fool_job("id-exchange", lambda: al.IdExchange(bits=10), 2, rng.randrange(1 << 30)),
        _fool_job("id-exchange", lambda: al.IdExchange(bits=10), 3, rng.randrange(1 << 30)),
        _fool_job("always-yes", al.AlwaysYes, 2, rng.randrange(1 << 30)),
    ]


# -- twoparty ------------------------------------------------------------------

def _rounds_sha(trace):
    return _sha(";".join(
        "".join(str(int(s)) for s in a) + "|" + "".join(str(int(s)) for s in b)
        for a, b in trace.rounds
    ))


def _check_two_party(result):
    gate(result.equivalent, "two-party run differs from the monolithic run")
    gate(result.trace.symbols_per_message == TWO_PARTY_N, "wrong message size")
    gate(result.trace.total_symbols == 2 * TWO_PARTY_T * TWO_PARTY_N, "wrong symbol count")
    return {
        "system": result.system.value, "total_symbols": result.trace.total_symbols,
        "rounds": _rounds_sha(result.trace),
    }


def two_party_jobs(entry):
    name, p_a, p_b, table_seed, expected = entry

    def full_exchange(ctx):
        machine = ctx.machine(al.FullExchangeSparse(max_degree=2))
        result = rd.two_party_simulate(machine, p_a, p_b, rd.TWO_REGULAR, TWO_PARTY_T)
        return result, rd.multicycle_ground_truth(p_a, p_b)

    def check_full_exchange(pair):
        result, truth = pair
        canonical = _check_two_party(result)
        gate(result.system == truth, f"verdict {result.system} != ground truth {truth}")
        gate(expected is None or truth == expected, f"ground truth {truth} != {expected}")
        return canonical

    def random_table(ctx):
        machine = ctx.machine(al.RandomTable(table_seed, modulus=3))
        return rd.two_party_simulate(machine, p_a, p_b, rd.TWO_REGULAR, TWO_PARTY_T)

    return [
        Job(f"twoparty/{name}/full-exchange-sparse", full_exchange, check_full_exchange),
        Job(f"twoparty/{name}/random-table", random_table, _check_two_party),
    ]


def join_job(entry):
    def check(holds):
        gate(holds is True, f"join correspondence fails on {entry.name}")
        return {"holds": holds}

    return Job(
        f"twoparty/{entry.name}",
        lambda ctx: rd.verify_join_correspondence(entry.p_a, entry.p_b, rd.GENERAL),
        check,
    )


def twoparty_jobs(seed):
    rng = _rng("twoparty", seed)
    entries = [pool_entry("yes", rng.randrange(YES_POOL)),
               pool_entry("rand", rng.randrange(RANDOM_POOL))]
    joins = rng.sample(range(JOIN_POOL), JOINS_PER_REP)
    jobs = [job for e in entries for job in two_party_jobs(e)]
    return jobs + [join_job(pool_entry("join", i)) for i in joins]


def all_pool_jobs():
    """Every pool entry's jobs, for pinning their digests (M^7 built first)."""
    jobs = [job for job in rank_jobs(0) if job.id == "rank/M7-build"]
    jobs += [principal_job(i) for i in PRINCIPAL_POOL]
    for kind, size in (("yes", YES_POOL), ("rand", RANDOM_POOL)):
        for i in range(size):
            jobs.extend(two_party_jobs(pool_entry(kind, i)))
    return jobs + [join_job(pool_entry("join", i)) for i in range(JOIN_POOL)]


JOB_LISTS = {
    "rank": rank_jobs,
    "family": family_jobs,
    "fool": fool_jobs,
    "twoparty": twoparty_jobs,
}


def build_jobs(workload, seed):
    return JOB_LISTS[workload](seed)
