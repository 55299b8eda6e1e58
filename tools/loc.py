#!/usr/bin/env python3
"""Non-test Rust lines per crate: the lines of each `src/**/*.rs` file before
its first top-level `#[cfg(test)]` (`-v`: also per file); a file its parent
declares as `#[cfg(test)] mod name;` counts none. The last row is every Rust
line outside `benchmark/`, tests included (ROADMAP aim 2).
`--budget N` exits 1 when the non-test total exceeds N: a PR that needs
more lines raises the number CI passes, in the diff a reviewer sees."""
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {"target", "benchmark", ".bench_build", ".git"}


def test_modules(path):
    """The files `path` declares as `#[cfg(test)] mod name;`."""
    lines = path.read_text().splitlines()
    home = path.parent if path.stem in ("lib", "main", "mod") else path.with_suffix("")
    for attr, decl in zip(lines, lines[1:]):
        name = re.fullmatch(r"\s*mod (\w+);", decl)
        if name and attr.strip() == "#[cfg(test)]":
            yield home / f"{name[1]}.rs"
            yield home / name[1] / "mod.rs"


def non_test_lines(path):
    if path in TEST_ONLY:
        return 0
    lines = path.read_text().splitlines()
    return next((i for i, l in enumerate(lines) if l == "#[cfg(test)]"), len(lines))


files = [p for p in sorted(ROOT.rglob("*.rs")) if not SKIP & set(p.relative_to(ROOT).parts)]
TEST_ONLY = {t for p in files for t in test_modules(p)}
per_crate = Counter()
for p in files:
    parts = p.relative_to(ROOT).parts
    if "src" in parts:
        crate = "/".join(parts[: parts.index("src")]) or "."
        per_crate[crate] += non_test_lines(p)
        if "-v" in sys.argv:
            print(f"{non_test_lines(p):7}  {p.relative_to(ROOT)}")
for crate, n in sorted(per_crate.items()):
    print(f"{n:7}  {crate}")
total = sum(per_crate.values())
print(f"{total:7}  non-test total")
print(f"{sum(len(p.read_text().splitlines()) for p in files):7}  all Rust lines (tests included)")
if "--budget" in sys.argv:
    budget = int(sys.argv[sys.argv.index("--budget") + 1])
    if total > budget:
        sys.exit(f"non-test total {total} exceeds the budget of {budget} lines")
