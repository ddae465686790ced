"""Reference readings of library objects that only the tests take.

Each function reads a library object the long way, to be compared with
what the library computes another way; none is used by the library.
"""

from fractions import Fraction

from bcclab.crossing import oriented_edge
from bcclab.families import two_cycle_classes


def received(run, v, round_no):
    """Symbols delivered to v of `run` at the end of `round_no`, keyed by port.

    Rebuilt from the senders' rows and v's port row: the symbol v sees in
    round r on the port facing u is ``run.sent[u][r - 1]``.
    """
    if not 1 <= round_no <= run.t:
        raise ValueError(f"round {round_no} outside 1..{run.t}")
    row = run.instance.port_row(v)
    return {row[u]: sent[round_no - 1] for u, sent in enumerate(run.sent) if u != v}


def directed_input_edges(instance):
    """Both orientations of every input edge, in deterministic order."""
    out = []
    for u, v in sorted(instance.input_edges):
        out.append(oriented_edge(instance, u, v))
        out.append(oriented_edge(instance, v, u))
    return tuple(out)


def family_ratio_terms(n, min_cycle_len=3):
    """|T_i|/|V1| simplifies to n/(2 i (n-i)), halved at i = n/2."""
    terms = {}
    for i in two_cycle_classes(n, min_cycle_len):
        term = Fraction(n, 2 * i * (n - i))
        if 2 * i == n:
            term /= 2
        terms[i] = term
    return terms
