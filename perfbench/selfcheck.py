"""Self-tests of the benchmark, on its small smoke configuration.

    python3 perfbench/selfcheck.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit (and the report names the figures behind them), that a corrupted
apply output or a changed plan digest is counted as a failed operation and
makes the exit code nonzero, and that the benchmark fails without a result
in a directory holding only BENCHMARK.json and the benchmark's own files.
Takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Figures the report prints by name and unit, per workload.
REPORT_NAMES = {
    "table1": ["setup_s = {} s", "design_s = {} s", "plan_load_s = {} s",
               "adds_per_entry = {} adds", "peak_rss_mb = {} MB",
               "failed_frac = {} ratio"],
    "deploy": ["setup_s = {} s", "plan_load_s = {} s", "verify_s = {} s",
               "apply_vectors_per_s = {} 1/s", "apply_p50_ms = {} ms",
               "apply_tail_ms = {} ms", "adds_per_entry = {} adds",
               "peak_rss_mb = {} MB", "failed_frac = {} ratio"],
}
REPORT_NAMES["table2"] = REPORT_NAMES["table1"]

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seconds", "1", "--smoke", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=170)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and not lines[-1].startswith("#"):
        result = json.loads(lines[-1])
    return p.returncode, result, p.stdout


def report_value(stdout: str, name: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(f"# metric {name} = "):
            return float(line.split()[4])
    return float("nan")


def main() -> int:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            # seed 0 has recorded plan digests; seed 7 uses the repeat check
            code, result, out = run(workload, "--trace", str(trace),
                                    "--seed", "0" if trace == 0 else "7")
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0, f"{tag}: passes its gates")
            got = {k: v["unit"] for k, v in (result or {}).get(
                "metrics", {}).items()}
            expect(got == want, f"{tag}: prints every {key} metric with "
                                f"its unit")
            if trace == 0:
                for pattern in REPORT_NAMES[workload]:
                    prefix = "# metric " + pattern.split("{}")[0]
                    unit = pattern.split("{}")[1]
                    found = any(line.startswith(prefix) and unit in line
                                for line in out.splitlines())
                    expect(found, f"{tag}: report prints "
                                  f"{pattern.format('<value>')}")

    for workload, inject in (("table1", "digest"), ("table2", "digest"),
                             ("deploy", "apply")):
        code, result, out = run(workload, "--trace", "0", "--inject", inject)
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1
               and report_value(out, "failed_frac") > 0,
               f"{workload} --inject {inject}: counted in failed_frac, "
               f"exit code 1")

    isolated = ROOT / ".bench_out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, isolated / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    code, result, _ = run("table1", "--trace", "0", cwd=isolated)
    expect(code != 0 and result is None,
           "without the package source: nonzero exit, no result")
    shutil.rmtree(isolated, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
