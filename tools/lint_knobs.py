#!/usr/bin/env python3
"""Check that every KernelConfig, SystemOptions and BoardConfig field is set somewhere.

A config field that nothing ever assigns only ever holds its default: it is
a constant that makes readers think about configurations no caller runs.
This lint fails when a field of `struct KernelConfig` (src/kernel/kconfig.h),
`struct SystemOptions` (src/vos/system.h) or `struct BoardConfig`
(src/hw/board.h) has no assignment outside its declaration in src/, tests/,
bench/, vosbench/ or examples/. Fold such a field into a constexpr next to
its reader instead.

A write is `.field =` or `->field =` (compound assignments and designated
initializers too), an assignment to a member of the field, or a
push_back/emplace_back/insert/assign on it (the FsSpec options fill their
file lists). The match is by field name, not by type.
Exempt: `cost` (MakeConfig scales the whole CostModel) and the ALLOWLIST
(deployment settings kept configurable even while one value is in use).
Run from anywhere: paths are resolved relative to this file.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STRUCTS = (
    ("KernelConfig", os.path.join(ROOT, "src", "kernel", "kconfig.h")),
    ("SystemOptions", os.path.join(ROOT, "src", "vos", "system.h")),
    ("BoardConfig", os.path.join(ROOT, "src", "hw", "board.h")),
)
SEARCH_DIRS = ("src", "tests", "bench", "vosbench", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")
EXEMPT_TYPES = {"CostModel"}
ALLOWLIST = {"net_ip"}  # the stack's own address: a deployment setting
WRITE = (r"(?:\.|->)\s*%s(?:\.\w+)*"
         r"(?:\s*[-+*/|&^]?=(?!=)|\.(?:push_back|emplace_back|insert|assign)\()")


def struct_fields(name, path):
    text = open(path).read()
    m = re.search(r"struct %s \{(.*?)\n\};" % name, text, re.S)
    if not m:
        sys.exit(f"lint_knobs: cannot find `struct {name}` in {path}")
    fields = []
    depth = 0
    for line in m.group(1).splitlines():
        code = re.sub(r"//.*", "", line).strip()
        # Fields sit at brace depth 0 of the struct body; member function
        # bodies open braces of their own.
        if depth == 0:
            fm = re.match(r"([\w:<>,\s&()]+?)\s+(\w+)\s*(=[^;]*|\{[^;]*\})?;$", code)
            # A parenthesis outside a template argument list is a function.
            if fm and ("(" not in fm.group(1) or "<" in fm.group(1)):
                fields.append((fm.group(1).strip(), fm.group(2)))
        depth += code.count("{") - code.count("}")
    if not fields:
        sys.exit(f"lint_knobs: found no fields in `struct {name}`")
    return fields


def source_text():
    chunks = []
    for d in SEARCH_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                if f.endswith(SOURCE_EXTS):
                    chunks.append(open(os.path.join(dirpath, f), errors="replace").read())
    return "\n".join(chunks)


def main():
    text = source_text()
    never_set = []
    total = 0
    for name, path in STRUCTS:
        for ftype, field in struct_fields(name, path):
            if ftype in EXEMPT_TYPES or field in ALLOWLIST:
                continue
            total += 1
            if not re.search(WRITE % re.escape(field), text):
                never_set.append(f"{name}::{field}")
    if never_set:
        for f in never_set:
            print(f"lint_knobs: {f} is never set; make it a constexpr at its reader")
        return 1
    print(f"lint_knobs: OK ({total} fields, each set somewhere)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
