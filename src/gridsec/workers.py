"""The one worker map: independent units over this process and ``os.fork``
children, one per usable CPU. Training and labelling map over it; nothing else forks."""

import os
import pickle
import signal


def resolve_jobs(n_units):
    """Workers for ``n_units`` units: one per usable CPU, at most ``n_units`` but at least 1;
    1, with no fork, where the OS does not report them (``os.sched_getaffinity``)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_units))


def _run(fn, units, indices):
    """(i, True, fn(units[i])) per i of ``indices``, up to the first (i, False, exception)."""
    done = []
    for i in indices:
        try:
            done.append((i, True, fn(units[i])))
        except Exception as exc:
            done.append((i, False, exc))
            break
    return done


def map_units(fn, units, lost):
    """``[fn(unit) for unit in units]``, unit i on worker i % jobs: this process
    or an ``os.fork`` child, which pickles its results back over a pipe. Returns
    them in unit order, or raises the lowest failing unit's error, or
    ``lost(status, its units)`` for a child that ended with none."""
    jobs = resolve_jobs(len(units))
    children = {}  # pid: (worker, read end of its pipe)
    try:
        for worker in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(pickle.dumps(_run(fn, units, range(worker, len(units), jobs))))
                    status = 0
                finally:  # skip the parent's cleanup and exit handlers
                    os._exit(status)
            os.close(write_fd)
            children[pid] = (worker, os.fdopen(read_fd, "rb"))
        done = _run(fn, units, range(0, len(units), jobs))
        for pid in list(children):
            worker, fh = children[pid]
            with fh:
                payload = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise lost(status, units[worker::jobs])
            done += pickle.loads(payload)  # bytes that this worker wrote
    finally:
        for pid, (_, fh) in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(i, exc) for i, ok, exc in done if not ok]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [result for _, _, result in sorted(done, key=lambda d: d[0])]
