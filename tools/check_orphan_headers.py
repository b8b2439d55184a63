#!/usr/bin/env python3
"""Orphaned-header check: every header under src/ must have a user.

Lists each tracked src/**/*.h that no tracked C++ file outside tests/
includes (the header's own .cc does not count) and exits 1 if there is
any. Run from anywhere; CI runs it in the docs job.
"""

import os
import re
import subprocess
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
tracked = subprocess.run(["git", "-C", root, "ls-files"], check=True,
                         capture_output=True, text=True).stdout.splitlines()
includers: dict[str, set[str]] = {}
for path in tracked:
    if path.startswith("tests/") or not path.endswith((".h", ".cc", ".cpp")):
        continue
    with open(os.path.join(root, path), encoding="utf-8") as f:
        for name in INCLUDE.findall(f.read()):
            for target in (os.path.join(os.path.dirname(path), name),
                           os.path.join("src", name)):
                includers.setdefault(os.path.normpath(target), set()).add(path)

orphans = [path for path in tracked
           if path.startswith("src/") and path.endswith(".h")
           and not includers.get(path, set()) - {path[:-2] + ".cc"}]
for path in orphans:
    print(f"orphaned header (nothing outside tests/ includes it): {path}")
sys.exit(1 if orphans else 0)
