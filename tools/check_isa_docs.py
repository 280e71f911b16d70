#!/usr/bin/env python3
"""Checks that the ISA format doc lists exactly the ops in src/isa/ops.def.

Reads every backquoted word under the "## Operation mnemonics" heading of the
markdown file and every mnemonic column of the op table, and fails when the
two sets differ or the doc names a mnemonic twice.

Usage: check_isa_docs.py <isa_format.md> <ops.def>
Exit codes: 0 ok, 1 mismatch, 2 bad input.
"""
import re
import sys


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        print(f"check_isa_docs: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-2], file=sys.stderr)
        return 2
    doc, table = read(sys.argv[1]), read(sys.argv[2])
    section = re.search(r"^## Operation mnemonics\n(.*?)(?=^## |\Z)", doc, re.M | re.S)
    if not section:
        print("check_isa_docs: no '## Operation mnemonics' section", file=sys.stderr)
        return 2
    documented = [w for span in re.findall(r"`([^`]*)`", section.group(1)) for w in span.split()]
    declared = re.findall(r'^MAT2C_OP\(\s*\w+\s*,\s*"([^"]+)"', table, re.M)
    if not declared:
        print("check_isa_docs: no MAT2C_OP rows", file=sys.stderr)
        return 2
    problems = []
    dupes = sorted({w for w in documented if documented.count(w) > 1})
    if dupes:
        problems.append("listed twice in the doc: " + " ".join(dupes))
    missing = sorted(set(declared) - set(documented))
    if missing:
        problems.append("in ops.def but not the doc: " + " ".join(missing))
    extra = sorted(set(documented) - set(declared))
    if extra:
        problems.append("in the doc but not ops.def: " + " ".join(extra))
    for p in problems:
        print(f"check_isa_docs: {p}")
    if problems:
        return 1
    print(f"check_isa_docs: ok ({len(declared)} mnemonics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
