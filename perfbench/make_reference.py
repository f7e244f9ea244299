"""Record the reference outputs that the benchmark checks rcsw against.

    python3 perfbench/make_reference.py

Runs every fidelity and mps command of every workload once for each rcsw
seed in the pool (``run.SEED_POOL``) and writes ``perfbench/reference.json``.
Run it only on a commit whose outputs are known to be right: the file pins
the XEB, mirror and gate-counting values (checked to 1e-9 relative) and
F_mps (checked to 10%).  Cost-scan rows are checked against bounds instead.
"""
import json

import run


def main() -> int:
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    outputs = {}
    for wl in run.WORKLOADS.values():
        for args in wl.commands:
            if args[0] not in ("fidelity", "mps"):
                continue
            for seed in range(run.SEED_POOL):
                argv = [*args, "--seed", str(seed)]
                inv = run.invoke("run", argv, "reference", env)
                if inv["status"] != 0 or "error" in inv:
                    raise SystemExit(f"{' '.join(argv)} failed: {inv.get('error', '')}")
                work = run.WORK / "out"
                values = (run.fidelity_values(work) if args[0] == "fidelity"
                          else run.mps_values(work))
                outputs[run.reference_key(argv)] = values
                print(run.reference_key(argv), flush=True)
    doc = {"src_sha256": run.source_digest(), "outputs": outputs}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
