"""Run one assetsvm CLI command in a fresh process and report its peak RSS.

Usage: python3 bench/child.py SRC_DIR COMMAND [ARGS...]
Prints, as its last line, {"exit": <code>, "peak_rss_kib": <high-water RSS>}.

The high-water mark is read from VmHWM in /proc/self/status, which belongs
to this process's own address space. ``ru_maxrss`` would not do: on Linux
it also counts the parent's resident set at the moment of the fork.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from assetsvm.cli import main  # noqa: E402


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


code = main(sys.argv[2:])
print(json.dumps({"exit": code, "peak_rss_kib": peak_rss_kib()}))
