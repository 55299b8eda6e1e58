#!/usr/bin/env python3
"""Public functions without a caller (ROADMAP aim 2: no knob without an effect).

Usage: dead_pub.py [--max N]

Scans every `pub` / `pub(crate)` fn under `crates/*/src` outside test code and
lists those whose name occurs in no other line of non-test Rust: `crates/*/src`,
the facade `src/`, `examples/` and the frozen `benchmark/src` (a caller the
benchmark needs counts). Test code is what `tools/loc.py` leaves out: each file
from its first top-level `#[cfg(test)]` on, and files declared
`#[cfg(test)] mod name;`. Comments are not callers, and neither is a `pub use`
re-export (all its lines, to the `;`): naming a function in a re-export calls
nothing. The match is by name, so a function shares its callers with every
other function of that name: the scan under-reports, never over-reports, and a
method whose name another item also has is confirmed dead only by a build with
it removed. `--max N` exits 1 when more than N are found; N only moves down,
like `loc.py --budget`.
"""
import argparse
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Functions that only another crate's tests reach, which a `#[cfg(test)]`
# item cannot serve: name -> why it stays public.
ALLOW = {
    "displace_band": "the moving-mesh edit of the plan, serve and root patch tests",
    "clip_polygon": "geometry/tests/clip_properties.rs' general-clip reference",
    "to_polygon": "Rect's half of that reference (Triangle's has callers)",
}

FN = re.compile(r"^\s*pub(?:\(crate\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
WORD = re.compile(r"\b\w+\b")
REEXPORT = re.compile(r"^\s*pub(?:\(crate\))?\s+use\b")


def test_modules(path, lines):
    """The files `path` declares as `#[cfg(test)] mod name;`."""
    home = path.parent if path.stem in ("lib", "main", "mod") else path.with_suffix("")
    for attr, decl in zip(lines, lines[1:]):
        name = re.fullmatch(r"\s*mod (\w+);", decl)
        if name and attr.strip() == "#[cfg(test)]":
            yield home / f"{name[1]}.rs"
            yield home / name[1] / "mod.rs"


def non_test(path):
    """`path`'s lines before its first top-level `#[cfg(test)]`, comments cut."""
    lines = path.read_text().splitlines()
    end = next((i for i, l in enumerate(lines) if l == "#[cfg(test)]"), len(lines))
    return [l.split("//", 1)[0] for l in lines[:end]]


def callers(lines):
    """`lines` without the `pub use` re-exports, which call nothing."""
    in_use = False
    for line in lines:
        in_use = in_use or bool(REEXPORT.match(line))
        if not in_use:
            yield line
        in_use = in_use and ";" not in line


def sources():
    roots = [ROOT / "src", ROOT / "examples", ROOT / "benchmark" / "src"]
    roots += sorted((ROOT / "crates").glob("*/src"))
    files = [p for r in roots for p in sorted(r.rglob("*.rs"))]
    texts = {p: p.read_text().splitlines() for p in files}
    test_only = {t for p in files for t in test_modules(p, texts[p])}
    return [p for p in files if p not in test_only]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int)
    args = ap.parse_args()

    uses = Counter()
    defs = []
    for path in sources():
        lines = non_test(path)
        for line in callers(lines):
            uses.update(WORD.findall(line))
        if path.relative_to(ROOT).parts[0] == "crates":
            rel = path.relative_to(ROOT)
            defs += [(m[1], f"{rel}:{i + 1}") for i, l in enumerate(lines) if (m := FN.match(l))]
    # A name is dead when every occurrence of it is one of its definitions.
    n_defs = Counter(name for name, _ in defs)
    dead = [(name, at) for name, at in defs if uses[name] == n_defs[name] and name not in ALLOW]
    for name, at in dead:
        print(f"{at}: {name}")
    print(f"{len(dead)} public fns without a caller")
    if args.max is not None and len(dead) > args.max:
        sys.exit(f"{len(dead)} exceeds --max {args.max}: call, delete or move under #[cfg(test)]")


if __name__ == "__main__":
    main()
