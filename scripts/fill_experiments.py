#!/usr/bin/env python3
"""Copy the measured tables from a bench log into EXPERIMENTS.md.

Usage: sbt -batch "bench/test" | tee bench.log && python3 scripts/fill_experiments.py bench.log

Each bench suite prints its table under a banner line
`===== Fig N — ... =====`; this script extracts every markdown table block
and substitutes the matching `<!-- FIGN -->` placeholder. sbt's `[info] `
line prefix, if present, is ignored.
"""
import re
import sys

if len(sys.argv) != 2:
    sys.exit(__doc__.strip().splitlines()[2])

with open(sys.argv[1], encoding="utf-8") as f:
    bench = "".join(re.sub(r"^\[info\] ?", "", line) for line in f)
exp = open("EXPERIMENTS.md", encoding="utf-8").read()

blocks = {}
for m in re.finditer(r"===== (Fig \d).*?=====\n(.*?)\n\n", bench, re.S):
    fig = m.group(1).replace(" ", "").upper()  # FIG3
    table = "\n".join(
        line for line in m.group(2).splitlines() if line.startswith("|"))
    blocks[fig] = table

missing = []
for fig in ["FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "FIG8"]:
    ph = f"<!-- {fig} -->"
    if fig in blocks and ph in exp:
        exp = exp.replace(ph, blocks[fig])
    elif ph in exp:
        missing.append(fig)

open("EXPERIMENTS.md", "w", encoding="utf-8").write(exp)
print("filled:", sorted(set(blocks) - set(missing)))
if missing:
    print("MISSING:", missing)
    sys.exit(1)
