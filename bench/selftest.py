"""Self-test of the benchmark on the smallest rounds of every workload.

Run from the root of a checkout (about two minutes on two cores):

    python3 bench/selftest.py

For each workload it checks that one tiny round gives identical rows with
and without tracing, and that those rows pass the benchmark's checks; then
that ``run.py --tiny`` reports correct and prints every end-to-end metric
named in BENCHMARK.json (``--trace 0``) and every per-layer metric
(``--trace 1``), each with its declared unit and nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def check_rows_identical(workload, ref: dict) -> None:
    spec = next(workloads.rounds(workload, 0, tiny=True))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        plain = workload.run_round(spec, workloads.Context(Path(tmp)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workload.run_round(spec, workloads.Context(Path(tmp), tracer))
        finally:
            tracer.uninstall()
    assert repr(plain) == repr(traced), f"{workload.name}: traced rows differ"
    assert tracer.spans, f"{workload.name}: no spans recorded"
    wrong = [m for s, m in workload.check(plain, ref) if s == workloads.WRONG]
    assert not wrong, f"{workload.name}: rows outside tolerance: {wrong}"


def check_metrics(name: str, trace: int, declared: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, f"{name} trace={trace}: not correct"
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared, (
        f"{name} trace={trace}: printed {sorted(printed.items())} "
        f"!= declared {sorted(declared.items())}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref = workloads.load_reference(HERE / "reference.json")
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        check_rows_identical(workload, ref)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            check_metrics(name, trace, {m["name"]: m["unit"]
                                        for m in bench[group]})
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
