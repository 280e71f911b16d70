#!/usr/bin/env python3
"""Checks that a doc section lists exactly the rows of an X-macro table.

Reads every backquoted word under the "## <heading>" heading of the markdown
file, and the first quoted string of every row of the table whose macro name
starts with <macro> (so MAT2C_BUILTIN also reads MAT2C_BUILTIN_UNARY rows). It
fails when the two sets differ or the doc names a row twice.

  check_isa_docs.py docs/isa_format.md "Operation mnemonics" src/isa/ops.def MAT2C_OP
  check_isa_docs.py docs/language_subset.md "Builtins (compiled)" src/sema/builtins.def MAT2C_BUILTIN
  check_isa_docs.py docs/pipeline.md "Pass toggles" src/opt/passes.def MAT2C_PASS

Usage: check_isa_docs.py <doc.md> <heading> <table.def> <macro>
Exit codes: 0 ok, 1 mismatch, 2 bad input.
"""
import os
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
    if len(sys.argv) != 5:
        print(__doc__.strip().splitlines()[-2], file=sys.stderr)
        return 2
    doc, heading, table, macro = read(sys.argv[1]), sys.argv[2], read(sys.argv[3]), sys.argv[4]
    name = os.path.basename(sys.argv[3])
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", doc, re.M | re.S)
    if not section:
        print(f"check_isa_docs: no '## {heading}' section", file=sys.stderr)
        return 2
    documented = [w for span in re.findall(r"`([^`]*)`", section.group(1)) for w in span.split()]
    declared = re.findall(rf'^{re.escape(macro)}\w*\([^"\n]*"([^"]+)"', table, re.M)
    if not declared:
        print(f"check_isa_docs: no {macro} rows", file=sys.stderr)
        return 2
    problems = []
    dupes = sorted({w for w in documented if documented.count(w) > 1})
    if dupes:
        problems.append("listed twice in the doc: " + " ".join(dupes))
    missing = sorted(set(declared) - set(documented))
    if missing:
        problems.append(f"in {name} but not the doc: " + " ".join(missing))
    extra = sorted(set(documented) - set(declared))
    if extra:
        problems.append(f"in the doc but not {name}: " + " ".join(extra))
    for p in problems:
        print(f"check_isa_docs: {p}")
    if problems:
        return 1
    print(f"check_isa_docs: ok ({len(declared)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
