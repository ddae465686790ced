"""Command-line entry point: every operation as a subcommand.

Structured output is line-delimited JSON with stable field names; every
record embeds the tool version and the full configuration, so identical
configurations produce byte-identical reports. Exit codes: 0 success or
verified, 1 a verification failed (the report carries the witness), 2
usage errors (argparse's own convention), including input the library
rejects, such as a malformed partition or a size over a limit, and a
file that cannot be read or written; these print one "bcclab: error:"
line on stderr.
"""

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

from . import __version__
from . import bounds as bd
from . import families as fm
from . import indist as ig
from . import joinmatrix as jm
from . import matching as mt
from . import partitions as pt
from . import reduction as rd
from .algorithms import make_algorithm
from .crossing import cross, find_fooling_pairs, oriented_edge
from .errors import PY_OP, InternalConsistencyError, ResourceLimitError
from .errors import capped_count, check_work
from .sim import (
    KT0,
    KT1,
    SYMBOL_FROM_CHAR,
    Verdict,
    evaluate_error,
    instance_from_json,
    instance_to_json,
    make_instance,
    simulate,
)

DEFAULT_SEED = 1789


class _Reporter:
    def __init__(self, args):
        self.format = args.format
        self.out = args.out
        # the --out file is opened by the first record, so a rejected
        # command leaves an earlier report in place
        self.stream = None if args.out else sys.stdout
        self.config = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out") and v is not None
        }

    def emit(self, record):
        if self.stream is None:
            self.stream = open(self.out, "w")
        doc = {
            "tool": "bcclab",
            "version": __version__,
            "config": self.config,
            "record": record,
        }
        if self.format == "jsonl":
            self.stream.write(json.dumps(doc, sort_keys=True) + "\n")
        else:
            for key, value in record.items():
                self.stream.write(f"{key}: {value}\n")
            self.stream.write("\n")

    def close(self):
        if self.stream not in (None, sys.stdout):
            self.stream.close()


def _fraction_str(f):
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _parse_symbols(text):
    try:
        return tuple(SYMBOL_FROM_CHAR[c] for c in text)
    except KeyError as e:
        raise ValueError(f"bad symbol {e.args[0]!r}; use characters 0, 1, -") from None


def _algorithm(args, instance=None):
    params = {
        key: getattr(args, key) for key in ("bits", "max_degree", "modulus")
        if getattr(args, key, None) is not None
    }
    if args.algo == "random-table":
        params.setdefault("seed", getattr(args, "seed", DEFAULT_SEED))
    return make_algorithm(args.algo, instance=instance, **params)


# ---------------------------------------------------------------- commands


def cmd_bell(args, rep):
    rep.emit({"n": args.n, "bell": pt.bell(args.n)})
    return 0


def cmd_partitions(args, rep):
    count, enum = jm.KINDS["E" if args.pairs else "M"]  # the two index families
    seq, expected = enum(args.n), count(args.n)
    count = 0
    for i, p in enumerate(seq):
        if not args.count_only:
            rep.emit({"index": i, "partition": str(p)})
        count += 1
    rep.emit({"count": count, "expected": expected, "expected_source": "formula",
              "pass": count == expected})
    return 0 if count == expected else 1


def cmd_join(args, rep):
    p = pt.parse_partition(args.p)
    q = pt.parse_partition(args.q)
    rep.emit({"p": str(p), "q": str(q), "join": str(pt.join(p, q))})
    return 0


def cmd_matrix_rank(args, rep):
    matrix = jm.build_join_matrix(args.kind, args.n)
    record = jm.rank_report(matrix)
    record["expected_source"] = "formula"
    record["index_hash"] = matrix.index_hash()
    if args.export_text:
        with open(args.export_text, "w") as f:
            f.write(jm.export_text(matrix))
        record["exported_text"] = args.export_text
    if args.export_binary:
        with open(args.export_binary, "wb") as f:
            f.write(jm.export_binary(matrix))
        record["exported_binary"] = args.export_binary
    rep.emit(record)
    return 0 if record["pass"] else 1


def cmd_family(args, rep):
    counts = fm.family_counts(args.n, args.min_cycle_len)
    record = {
        "n": args.n,
        "min_cycle_len": args.min_cycle_len,
        "v1_closed": counts.v1,
        "t_closed": {str(i): c for i, c in counts.t_counts.items()},
        "v2_closed": counts.v2,
        "ratio": _fraction_str(counts.ratio),
        "ratio_float": counts.ratio_float,
        "expected_source": "formula",
    }
    code = 0
    if args.enumerate or args.dump_members:
        fam = fm.enumerate_family(args.n, args.min_cycle_len)
        record["v1_enumerated"] = fam.v1_size
        record["t_enumerated"] = {str(i): c for i, c in fam.t_sizes().items()}
        record["v2_enumerated"] = fam.v2_size
        record["pass"] = (
            fam.v1_size == counts.v1 and fam.t_sizes() == counts.t_counts
        )
        code = 0 if record["pass"] else 1
    rep.emit(record)
    if args.dump_members:
        for key in fam.one_cycles:
            rep.emit({"one_cycle": list(key)})
        for key in fam.all_two_cycle_keys():
            rep.emit({"two_cycle": [list(c) for c in key]})
    return code


def _family_and_machine(args, mode=KT0):
    """The family of args.n and the machine, its defaults from the first one-cycle."""
    fam = fm.enumerate_family(args.n, args.min_cycle_len)
    return fam, _algorithm(args, fam.one_cycle_instance(fam.one_cycles[0], mode=mode))


def _built_graph(args):
    fam, algorithm = _family_and_machine(args)
    # x and y default to all-silent strings of length t
    x = _parse_symbols(args.x if args.x else "-" * args.t)
    y = _parse_symbols(args.y if args.y else "-" * args.t)
    return fam, ig.build_indist_graph(fam, algorithm, args.t, x, y)


def cmd_indist_build(args, rep):
    fam, graph = _built_graph(args)
    rep.emit({
        "n": args.n, "t": args.t, "algo": args.algo,
        "v1": fam.v1_size, "v2": fam.v2_size,
        "edges": graph.edge_count(),
        "operations": graph.edge_count(),  # one operation per edge
    })
    if args.dump_edges:
        for lk in sorted(graph.adjacency):
            rep.emit({
                "one_cycle": list(lk),
                "neighbors": [[list(c) for c in rk] for rk in sorted(graph.adjacency[lk])],
            })
    return 0


def cmd_indist_stats(args, rep):
    fam, graph = _built_graph(args)
    try:
        stats = ig.degree_stats(graph)
    except InternalConsistencyError as e:
        rep.emit({"pass": False, "witness": str(e)})
        return 1
    record = stats.to_record()
    bound_ok = True
    for i, size in fam.t_sizes().items():
        bound = Fraction(fam.v1_size * args.n, i * (args.n - i))
        if size > bound:
            bound_ok = False
            record["ti_bound_witness"] = {"i": i, "size": size, "bound": str(bound)}
    record["ti_bound_ok"] = bound_ok
    record["pass"] = stats.handshake_ok and bound_ok
    rep.emit(record)
    return 0 if record["pass"] else 1


def cmd_kmatch(args, rep):
    if not 0 <= args.density <= 1:  # NaN included
        raise ValueError(f"--density must lie in [0, 1], got {args.density}")
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        adjacency = {
            u: [r for r in range(args.right) if rng.random() < args.density]
            for u in range(args.left)
        }
        result = mt.k_matching(adjacency, args.k)
        saturated = isinstance(result, mt.KMatching)
        hall_ok, witness = mt.exhaustive_hall_check(adjacency, args.k)
        agree = saturated == hall_ok
        record = {"trial": trial, "saturated": saturated, "hall_ok": hall_ok,
                  "agree": agree}
        if not agree and witness is not None:
            record["witness"] = sorted(witness.subset)
        if not agree:
            failures += 1
        rep.emit(record)
    rep.emit({"trials": args.trials, "failures": failures, "pass": failures == 0})
    return 0 if failures == 0 else 1


def cmd_cross(args, rep):
    cycles = [tuple(int(v) for v in c.split(",")) for c in args.cycle]
    inst = fm.instance_from_cycles(cycles)
    pairs = [tuple(int(v) for v in text.split(",")) for text in (args.e1, args.e2)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"--e1 and --e2 take one head,tail pair each, got {pairs}")
    e1, e2 = (oriented_edge(inst, *pair) for pair in pairs)
    crossed = cross(inst, e1, e2)
    rep.emit({
        "input_cycles": [list(c) for c in fm.cycles_of_instance(inst)],
        "crossed_cycles": [list(c) for c in fm.cycles_of_instance(crossed)],
        "instance": json.loads(instance_to_json(crossed)),
    })
    return 0


def cmd_fool(args, rep):
    inst = make_instance(args.n, [(i, (i + 1) % args.n) for i in range(args.n)])
    algorithm = _algorithm(args, inst)
    try:
        report = find_fooling_pairs(
            inst, algorithm, args.t,
            verify=args.verify, sample=args.sample,
            rng=random.Random(args.seed),
        )
    except InternalConsistencyError as e:
        rep.emit({"pass": False, "witness": str(e)})
        return 1
    for idx in range(min(len(report), args.limit)):
        e1, e2 = report.pair(idx)
        rep.emit({
            "t": args.t,
            "label": "".join(str(s) for s in report.labels[report.pairs[idx][0]]),
            "pair": [[e1.head, e1.tail], [e2.head, e2.tail]],
            "split_lengths": list(report.split_lengths(idx)),
            "verified": report.verification["failures"] == 0,
        })
    rep.emit({
        "n": args.n, "t": args.t, "algo": args.algo,
        "pairs": len(report),
        "buckets": len(report.bucket_sizes()),
        "verification": report.verification,
    })
    return 0


def cmd_reduce(args, rep):
    p_a = pt.parse_partition(args.pa)
    p_b = pt.parse_partition(args.pb)
    graph = rd.build_reduction(args.variant, p_a, p_b)
    components = rd.components_partition(graph)
    expected = pt.join(p_a, p_b)
    record = {
        "variant": args.variant,
        "components": str(components),
        "join": str(expected),
        "pass": components == expected,
    }
    if args.dump:
        record["instance"] = json.loads(instance_to_json(graph.instance))
    rep.emit(record)
    return 0 if record["pass"] else 1


def _join_pairs(args):
    """The (p_a, p_b) pairs a verify-join sweep checks, in sweep order."""
    pairings = args.variant == rd.TWO_REGULAR
    if args.exhaustive:
        count, enum = jm.KINDS["E" if pairings else "M"]
        members = capped_count(count, args.n)  # a pair: about 100 n Python-level operations
        check_work(f"the exhaustive sweep at n={args.n}",
                   members * members * 100 * args.n * PY_OP, members * 100 * args.n)
        yield from product(list(enum(args.n)), repeat=2)
        return
    smallest = 2 if pairings else 1
    if args.random and args.size < smallest:
        raise ValueError(f"--size must be at least {smallest}, got {args.size}")
    rng = random.Random(args.seed)
    draw = pt.random_pair_partition if pairings else pt.random_partition
    for _ in range(args.random):
        size = 2 * rng.randint(1, args.size // 2) if pairings else rng.randint(1, args.size)
        yield draw(rng, size), draw(rng, size)


def cmd_verify_join(args, rep):
    checked = failures = 0
    witness = None
    for p_a, p_b in _join_pairs(args):
        checked += 1
        if not rd.verify_join_correspondence(p_a, p_b, args.variant):
            failures += 1
            witness = witness or (str(p_a), str(p_b))
    record = {"checked": checked, "failures": failures, "pass": failures == 0}
    if witness:
        record["witness"] = list(witness)
    rep.emit(record)
    return 0 if failures == 0 else 1


def cmd_twoparty(args, rep):
    p_a = pt.parse_partition(args.pa)
    p_b = pt.parse_partition(args.pb)
    graph = rd.build_reduction(args.variant, p_a, p_b)
    algorithm = _algorithm(args, graph.instance)
    t = args.t
    if t is None:
        t = algorithm.round_budget(graph.instance)
        if t is None:
            raise ValueError("--t is required for algorithms without a budget")
    result = rd.two_party_simulate_graph(graph, algorithm, t)
    record = {
        "variant": args.variant,
        "t": t,
        "system": result.system.value,
        "ground_truth": rd.multicycle_ground_truth(p_a, p_b).value,
        "equivalent": result.equivalent,
        "symbols_per_message": result.trace.symbols_per_message,
        "total_symbols": result.trace.total_symbols,
    }
    if args.dump:
        record["rounds_hex"] = result.trace.hex_rounds()
    rep.emit(record)
    return 0 if result.equivalent else 1


def cmd_simulate(args, rep):
    with open(args.instance) as f:
        inst = instance_from_json(f.read())
    algorithm = _algorithm(args, inst)
    if args.coins and set(args.coins) - {"0", "1"}:
        raise ValueError(f"--coins must be a 0/1 string, got {args.coins!r}")
    coins = tuple(int(c) for c in args.coins) if args.coins else ()
    run = simulate(inst, algorithm, args.t, coins)
    rep.emit({
        "n": inst.n,
        "mode": inst.mode,
        "t": args.t,
        "system": run.system_verdict.value,
        "verdicts": [v.value for v in run.verdicts],
        "sent": ["".join(str(s) for s in run.sent[v]) for v in range(inst.n)],
        "rounds": [
            "".join(str(run.sent[v][r]) for v in range(inst.n))
            for r in range(args.t)
        ],
    })
    return 0


def cmd_error_eval(args, rep):
    fam, algorithm = _family_and_machine(args, args.mode)
    yes_family = [fam.one_cycle_instance(k, mode=args.mode) for k in fam.one_cycles]
    no_family = [
        fam.two_cycle_instance(k, mode=args.mode) for k in fam.all_two_cycle_keys()
    ]
    t = args.t
    if t is None:
        t = algorithm.round_budget(yes_family[0]) or 0
    error = evaluate_error(algorithm, t, yes_family, no_family)
    rep.emit({
        "n": args.n, "t": t, "algo": args.algo, "mode": args.mode,
        "yes_size": len(yes_family), "no_size": len(no_family),
        "error": _fraction_str(error), "error_float": float(error),
    })
    return 0


def cmd_bounds(args, rep):
    # the config echoes --comm-bits whatever --which says, and JSON has no NaN
    if not math.isfinite(args.comm_bits):
        raise ValueError(f"--comm-bits must be finite, got {args.comm_bits}")
    if args.which == "pigeonhole":
        report = bd.pigeonhole_report(args.n, args.t)
    elif args.which == "entropy":
        try:
            eps = Fraction(args.eps)
        except ZeroDivisionError:
            raise ValueError(f"--eps {args.eps} has a zero denominator") from None
        report = bd.entropy_report(args.n, eps)
    else:
        report = bd.round_bound_report(args.comm_bits, args.n)
    rep.emit(report.to_record())
    return 0


# ---------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bcclab",
        description="exact checks for broadcast-clique lower-bound combinatorics",
    )
    parser.add_argument("--format", choices=("jsonl", "human"), default="jsonl")
    parser.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("bell", cmd_bell, help="exact Bell number")
    p.add_argument("--n", type=int, required=True)

    p = add("partitions", cmd_partitions, help="enumerate partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", action="store_true", help="perfect pairings only")
    p.add_argument("--count-only", action="store_true")

    p = add("join", cmd_join, help="join of two partitions")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("matrix-rank", cmd_matrix_rank, help="exact rank of a join matrix")
    p.add_argument("--kind", choices=("M", "E"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--export-text", help="also write the matrix as text here")
    p.add_argument("--export-binary", help="also write the packed dump here")

    p = add("family", cmd_family, help="cycle family counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--min-cycle-len", type=int, default=3)
    p.add_argument("--enumerate", action="store_true",
                   help="also enumerate and compare against the closed forms")
    p.add_argument("--dump-members", action="store_true",
                   help="emit every canonical cycle key (implies --enumerate)")

    for name, func in (("indist-build", cmd_indist_build),
                       ("indist-stats", cmd_indist_stats)):
        p = add(name, func, help=f"{name.replace('-', ' ')} over a family")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, default=0)
        p.add_argument("--min-cycle-len", type=int, default=3)
        p.add_argument("--algo", default="always-silent")
        p.add_argument("--bits", type=int)
        p.add_argument("--modulus", type=int)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--x", help="head broadcast string over 0,1,-")
        p.add_argument("--y", help="tail broadcast string over 0,1,-")
        if name == "indist-build":
            p.add_argument("--dump-edges", action="store_true")

    p = add("kmatch", cmd_kmatch, help="k-matching vs the exhaustive Hall oracle")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("cross", cmd_cross, help="port-preserving crossing of two edges")
    p.add_argument("--cycle", action="append", required=True,
                   help="comma-separated vertex indices; repeatable")
    p.add_argument("--e1", required=True, help="head,tail")
    p.add_argument("--e2", required=True, help="head,tail")

    p = add("fool", cmd_fool, help="fooling pairs on a canonical cycle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--algo", default="id-exchange")
    p.add_argument("--bits", type=int)
    p.add_argument("--modulus", type=int)
    p.add_argument("--verify", choices=("sampled", "full", "none"),
                   default="sampled")
    p.add_argument("--sample", type=int, default=8)
    p.add_argument("--limit", type=int, default=20,
                   help="per-pair records to emit")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("reduce", cmd_reduce, help="build G(P_A,P_B) and check the join")
    p.add_argument("--variant", choices=(rd.GENERAL, rd.TWO_REGULAR),
                   default=rd.GENERAL)
    p.add_argument("--pa", required=True)
    p.add_argument("--pb", required=True)
    p.add_argument("--dump", action="store_true")

    p = add("verify-join", cmd_verify_join, help="join correspondence sweeps")
    p.add_argument("--variant", choices=(rd.GENERAL, rd.TWO_REGULAR),
                   default=rd.GENERAL)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--random", type=int, default=100)
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("twoparty", cmd_twoparty, help="Alice/Bob simulation of a KT1 run")
    p.add_argument("--variant", choices=(rd.GENERAL, rd.TWO_REGULAR),
                   default=rd.TWO_REGULAR)
    p.add_argument("--pa", required=True)
    p.add_argument("--pb", required=True)
    p.add_argument("--algo", default="full-exchange-sparse")
    p.add_argument("--max-degree", type=int)
    p.add_argument("--bits", type=int)
    p.add_argument("--t", type=int, help="defaults to the algorithm's budget")
    p.add_argument("--dump", action="store_true")

    p = add("simulate", cmd_simulate, help="run an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--algo", default="always-yes")
    p.add_argument("--bits", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--modulus", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--coins", help="shared coin tape as a 0/1 string")

    p = add("error-eval", cmd_error_eval, help="exact error on cycle families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--algo", default="always-yes")
    p.add_argument("--mode", choices=(KT0, KT1), default=KT0)
    p.add_argument("--min-cycle-len", type=int, default=3)
    p.add_argument("--bits", type=int)
    p.add_argument("--max-degree", type=int)

    p = add("bounds", cmd_bounds, help="bound arithmetic reports")
    p.add_argument("--which", choices=("pigeonhole", "entropy", "rounds"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--eps", default="0")
    p.add_argument("--comm-bits", type=float, default=1.0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):  # admitted exact counts pass 4300 digits
        sys.set_int_max_str_digits(0)
    rep = _Reporter(args)
    try:
        for name in ("left", "right", "trials", "limit", "sample", "random"):  # count options
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name} must be nonnegative, got {getattr(args, name)}")
        return args.func(args, rep)
    except (ResourceLimitError, ValueError, OSError) as e:  # bad input or path
        parser.exit(2, f"{parser.prog}: error: {e}\n")
    finally:
        rep.close()


if __name__ == "__main__":
    sys.exit(main())
