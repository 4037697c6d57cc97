"""Rebuild the stored reference outputs in ``perfbench/ref``.

    python3 perfbench/make_refs.py

Runs every operation of every workload's pool once and records its output.
References must come from a commit whose outputs are trusted: a change that
claims identical outputs is checked against them, not regenerated.
"""

import os
import sys
import time

import bootstrap


def make_reference(workload, state):
    """{op key: recorded output} over the whole pool, plus the set-up record."""
    ref = {"setup": workload.record_setup(state)}
    for key in workload.pool(state):
        ref[key] = workload.record(key, workload.run(state, key))
    return ref


def main():
    bootstrap.pin_blas()
    bootstrap.use_checkout_source()
    import workloads

    os.makedirs(os.path.join(bootstrap.BENCH_DIR, "ref"), exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        start = time.perf_counter()
        ref = make_reference(workload, workload.setup())
        path = os.path.join(bootstrap.BENCH_DIR, "ref", name + workload.reference_suffix)
        workload.save_reference(ref, path)
        print(f"{name}: {len(ref) - 1} operations in {time.perf_counter() - start:.1f}s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
