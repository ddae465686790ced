"""Recompute pinned.json: the digest of every job's canonical result.

Usage, from the repository root, at a commit whose answers are trusted:

    python3 perfbench/pin.py

Every fixed job and every pool entry runs once and must pass
its exact checks. A change that alters a pinned answer is a change in
behaviour; re-pin only with the reason stated.
"""

import json
import sys

import run
import workloads as wl


def main():
    jobs = [job for w in ("rank", "family", "fool") for job in wl.build_jobs(w, 0)]
    jobs += wl.all_pool_jobs()
    ctx = wl.RepContext()
    pinned = {}
    for job in jobs:
        pinned[job.id] = wl.digest(job.check(job.run(ctx)))
        print(job.id, pinned[job.id], file=sys.stderr)
    with open(run.PINNED, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
