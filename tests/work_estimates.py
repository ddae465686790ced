"""Read the estimates the library's size checks make, without the work.

Every size check goes through ``bcclab.errors.check_work``, which each
module imports by name. :func:`estimate` swaps it, in every such module,
for a recorder that stops the call at the check it is after, so an input
can be judged against the limits however large it is.
"""

from bcclab import cli, crossing, errors, families, indist, joinmatrix, matching, partitions, sim

CHECKING_MODULES = (partitions, joinmatrix, families, matching, sim, indist, crossing, cli)


class _Estimated(Exception):
    pass


def estimate(call, *args, site=""):
    """(what, steps, memory) of the first check that call(*args) makes
    whose label starts with `site`; earlier checks run as usual."""
    found = []

    def record(what, steps, memory):
        if not what.startswith(site):
            return errors.check_work(what, steps, memory)
        found.append((what, steps, memory))
        raise _Estimated

    saved = [module.check_work for module in CHECKING_MODULES]
    for module in CHECKING_MODULES:
        module.check_work = record
    try:
        result = call(*args)
        if hasattr(result, "__next__"):  # a generator checks at its first next()
            next(result)
    except _Estimated:
        return found[0]
    finally:
        for module, check in zip(CHECKING_MODULES, saved):
            module.check_work = check
    raise AssertionError(f"{call.__name__}{args} made no check labelled {site!r}")


def admitted(record):
    _, steps, memory = record
    return steps <= errors.STEP_LIMIT and memory <= errors.MEMORY_LIMIT


def largest_admitted(call, site, start):
    """The largest n from `start` on whose check `site` admits call(n)."""
    n = start
    while admitted(estimate(call, n + 1, site=site)):
        n += 1
    assert admitted(estimate(call, n, site=site))
    return n
