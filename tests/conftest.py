import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import gridsec
from gridsec.model import load_bundled_case

TC_LINES = ("17-43", "18-42", "24-68", "38-46", "43-44", "47-48", "47-53", "54-55")
CSC_LINES = ("18-49", "21-22", "30-61", "36-61", "40-41", "40-48", "41-42", "67-68")
CSC_LINES_9BUS = ("4-5", "7-8", "6-9")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The numpy build on which the byte-exact goldens in tests/data were last
# read byte for byte: a new numpy or BLAS release may move their last digits.
GOLDEN_BUILD = Path(__file__).parent / "data" / "golden_build.json"


@pytest.fixture(scope="session")
def case2():
    return load_bundled_case("case2")


@pytest.fixture(scope="session")
def case9():
    return load_bundled_case("case9")


@pytest.fixture(scope="session")
def case68():
    return load_bundled_case("case68")


def use_cpus(monkeypatch, n):
    """Make ``workers.resolve_jobs`` pick up to ``n`` workers on any machine:
    ``os.sched_getaffinity`` reports ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """A list that gains one entry per ``os.fork`` this process makes."""
    made = []
    fork = os.fork

    def counted_fork():
        made.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def numpy_build():
    """This process's numpy build, with the keys of ``GOLDEN_BUILD``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # an older numpy has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "python": platform.python_version(),
            "machine": platform.machine()}


def assert_golden(got: bytes, path: Path):
    """``got`` is the golden file ``path`` byte for byte; a failure names the
    numpy build the goldens were recorded on and the one running, without
    diffing the bytes."""
    if got != path.read_bytes():
        recorded = json.loads(GOLDEN_BUILD.read_text(encoding="utf-8"))
        pytest.fail(f"{path.name} differs; goldens recorded on {recorded}, running on "
                    f"{numpy_build()}", pytrace=False)


def unpinned_env(**extra):
    """This process's environment for a ``gridsec`` subprocess: ``src`` on
    PYTHONPATH and no BLAS thread-count variable (importing gridsec here set
    them to 1), so the subprocess pins BLAS itself; then ``extra``."""
    src = str(Path(gridsec.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return {**env, **extra}


@pytest.fixture(params=[1, 2], ids=["1-blas-thread", "2-blas-threads"])
def blas_threads(request):
    """Run the test with numpy's bundled OpenBLAS on 1 and on 2 threads, and
    set it back to gridsec's 1 afterwards. The chord's guard band, not bit
    equality, keeps the chord screen equal to the all-exact one: at 2 threads
    the bits differ (up to 8.7e-12 in the case68 features), so its verdicts
    are checked there too. Where gridsec found no bundled OpenBLAS the
    thread count cannot be set, and the 2-thread case is skipped."""
    blas = gridsec.OPENBLAS
    if blas is None and request.param != 1:
        pytest.skip("no bundled OpenBLAS whose thread count can be set")
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(request.param)
    yield request.param
    if blas is not None:
        blas.scipy_openblas_set_num_threads64_(1)
