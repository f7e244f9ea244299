"""Run one rcsw command in this fresh interpreter and time it.

    python3 child.py RESULT.json MODE RUN_ID [RCSW ARGS...]

MODE is one of:

- ``setup``: import ``rcsw.cli`` and build the ``RunConfig``, then stop;
  the result also carries the interpreter's numpy/scipy/BLAS facts.
- ``run``: run the command through ``rcsw.cli.main``.
- ``trace``: as ``run``, with spans recorded around the calls into each
  rcsw module, at the names ``rcsw.cli`` looks up.

The result file holds monotonic-clock stamps for the end of set-up and of
the run, the exit code, any error, and in trace mode the spans.  Spans stay
in memory until the command ends.  The parent reads the same clock
(CLOCK_MONOTONIC is system-wide on Linux), so it can time set-up from the
moment it spawned this process.
"""
import functools
import inspect
import itertools
import json
import sys
import threading
import time
import traceback


class Tracer:
    """Records one span per call of a wrapped function.

    A span has an id, name, start, end, parent span id, thread name and the
    run id.  The parent is the innermost traced call open on the same
    thread, or 0, the command itself, for calls made directly by the CLI or
    by its worker pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else 0,
                    "thread": threading.current_thread().name,
                    "run": self.run_id}
            stack.append(span["id"])
            span["start"] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.monotonic()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(count(bound.arguments, out))
            return out

        return traced


def _gate_count(c) -> int:
    return sum(len(lay.gates) for lay in c.layers)


def _count_run(a, out):
    # Every 1q and ZZ gate sweeps all 2^n amplitudes once.
    c = a["c"]
    return {"amp_updates": _gate_count(c) * 2 ** c.n}


def _count_trajectories(a, out):
    # Gates plus the per-qubit memory dephasing after each 2q layer; the
    # randomly injected error Paulis are not counted.  The ideal reference
    # run inside is a nested statevector.run span with its own count.
    c, nm, n_traj = a["c"], a["nm"], a["n_traj"]
    per_traj = _gate_count(c) + (c.n * c.depth if nm.eps_mem > 0.0 else 0)
    return {"traj": n_traj, "amp_updates": n_traj * per_traj * 2 ** c.n}


def _count_ci(a, out):
    return {"resamples": a["r"]}


def _count_slices(a, out):
    return {"slices": len(out.sliced)}


def _count_evolve(a, out):
    state, report = out
    return {"flops_est": report.flops_est, "max_bond": state.max_bond}


def install_tracer(cli, tracer: Tracer):
    """Wrap the public functions at the names ``rcsw.cli`` calls them by.

    Functions the CLI reaches through a module (``statevector.run``) are
    replaced on that module, so calls from inside the module, such as the
    ideal run and the sampling inside ``run_trajectories``, become nested
    spans.  Functions the CLI imported by name are replaced on ``rcsw.cli``.
    """
    targets = [
        (cli.graphs, "sample_colored_graph", "graphs.sample_colored_graph", None),
        (cli.graphs, "sample_grid", "graphs.sample_grid", None),
        (cli.circuits, "build_rg_circuit", "circuits.build_rg_circuit", None),
        (cli.circuits, "build_2d_circuit", "circuits.build_2d_circuit", None),
        (cli.circuits, "build_mirror", "circuits.build_mirror", None),
        (cli.statevector, "run", "statevector.run", _count_run),
        (cli.statevector, "run_trajectories", "statevector.run_trajectories",
         _count_trajectories),
        (cli.statevector, "sample", "statevector.sample", None),
        (cli, "gate_counting", "estimators.gate_counting", None),
        (cli, "bootstrap_ci", "bootstrap.bootstrap_ci", _count_ci),
        (cli, "circuit_to_tn", "tn.circuit_to_tn", None),
        (cli, "optimize_order", "tn.optimize_order", None),
        (cli, "slice_tree", "tn.slice_tree", _count_slices),
        (cli, "summarize", "tn.summarize", None),
        (cli, "evolve", "mps.evolve", _count_evolve),
    ]
    for owner, attr, name, count in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def environment_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    result_path, mode, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    result: dict = {"mode": mode}
    if mode == "trace":
        import numpy  # noqa: F401  every layer needs it; keep it out of the next figure
        t = time.monotonic()
        import rcsw.bootstrap  # noqa: F401
        result["bootstrap_import_s"] = time.monotonic() - t
    from rcsw import cli

    if mode == "setup":
        cli.config_from_args(cli.build_parser().parse_args(argv))
        result["setup_end"] = time.monotonic()
        result["facts"] = environment_facts()
    else:
        build_config = cli.config_from_args

        def config_from_args(args):
            cfg = build_config(args)
            result["setup_end"] = time.monotonic()
            return cfg

        cli.config_from_args = config_from_args
        tracer = Tracer(run_id)
        if mode == "trace":
            install_tracer(cli, tracer)
        try:
            result["exit_code"] = cli.main(argv)
        except SystemExit as exc:
            result["exit_code"] = exc.code
        except Exception:
            result["exit_code"] = 1
            result["error"] = traceback.format_exc(limit=-3)
        result["end"] = time.monotonic()
        result["spans"] = tracer.spans
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
