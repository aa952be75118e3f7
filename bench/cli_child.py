"""Run the rftsim CLI and record its own peak resident set size.

Usage: python3 bench/cli_child.py <peak-rss-file> <rftsim arguments>...

This is ``python -m rftsim.cli <rftsim arguments>`` that also writes the
process's VmHWM, in KiB, to ``<peak-rss-file>`` when the CLI returns.
The parent cannot take the child's peak from ``getrusage``: Linux counts
in a child's ``ru_maxrss`` the high-water mark of the address space it
had before ``exec``, which under fork or vfork is the parent's, so a
large parent hides the CLI's own peak.  VmHWM covers only the address
space the CLI ran in.
"""

import sys
from pathlib import Path

from rftsim.cli import main


def vm_hwm_kib() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[2:])
    Path(sys.argv[1]).write_text(f"{vm_hwm_kib()}\n")
    sys.exit(code)
