#!/usr/bin/env python3
"""Copy the measured tables from a bench log into EXPERIMENTS.md.

Usage: sbt -batch "bench/test" | tee bench.log && python3 scripts/fill_experiments.py bench.log

Each bench suite prints its table under a banner line
`===== Fig N — ... =====`; this script extracts every markdown table block
and writes it between the markers `<!-- FIGN -->` and `<!-- /FIGN -->`,
replacing what was there, so a figure can be refreshed any number of times.
A bare `<!-- FIGN -->` with no closing marker (a figure never filled) gets
the closing marker added. sbt's `[info] ` line prefix, if present, is
ignored. Figures absent from the log keep their current text.
"""
import re
import sys

FIGS = ["FIG3", "FIG4", "FIG5", "FIG6", "FIG7", "FIG8"]

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

filled = []
for fig in FIGS:
    if fig not in blocks:
        continue
    start, end = f"<!-- {fig} -->", f"<!-- /{fig} -->"
    marked = f"{start}\n{blocks[fig]}\n{end}"
    pair = re.compile(re.escape(start) + r"\n.*?" + re.escape(end), re.S)
    if pair.search(exp):
        exp = pair.sub(lambda _: marked, exp, count=1)
    elif start in exp:
        exp = exp.replace(start, marked, 1)
    else:
        continue
    filled.append(fig)

open("EXPERIMENTS.md", "w", encoding="utf-8").write(exp)
print("filled:", filled)
unfilled = [fig for fig in FIGS
            if f"<!-- {fig} -->" in exp and f"<!-- /{fig} -->" not in exp]
if unfilled:
    print("still unfilled:", unfilled)
if not filled:
    sys.exit("no figure table in the log matches a marker in EXPERIMENTS.md")
