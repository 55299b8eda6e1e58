#!/usr/bin/env python3
"""Bits do not move: hold the smoke run's value checksums to the golden row.

Usage: check_smoke_checksums.py RESULT_DIR        (CI: benchmark/out)

RESULT_DIR holds the untraced `<workload>.json` results `benchmark/ci.sh`
leaves behind (`--smoke`, seed 2013, 2 frames). Each checksum must equal the
one `tests/golden/bench_checksums.json` lists for that workload under the
SIMD ISA the result records; an ISA without a row prints
`skipped: no row for <isa>` and passes (the vector arms agree with each other
to 1e-12, not bitwise). Exits 1 naming every workload whose bits moved, whose
result is missing, or whose result is not the smoke run the row was taken on.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "bench_checksums.json"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    golden = json.loads(GOLDEN.read_text())
    workloads = next(iter(golden["checksums"].values()))
    errors, checked = [], 0
    for workload in workloads:
        path = Path(sys.argv[1]) / f"{workload}.json"
        if not path.exists():
            errors.append(f"{workload}: no {path}")
            continue
        result = json.loads(path.read_text())
        isa = result["details"]["environment"]["simd_isa"]
        row = golden["checksums"].get(isa)
        if row is None:
            print(f"skipped: no row for {isa}")
            continue
        ran = (result["traced"], result["seed"], result["frames"])
        if ran != (False, golden["seed"], golden["frames"]):
            errors.append(f"{workload}: (traced, seed, frames) = {ran}, not the smoke run of the golden row")
        elif result["checksum"] != row[workload]:
            errors.append(f"{workload} ({isa}): checksum {result['checksum']}, golden {row[workload]}")
        else:
            checked += 1
    if errors:
        sys.exit("\n".join(errors))
    print(f"{checked} smoke checksum(s) equal their golden row")


if __name__ == "__main__":
    main()
