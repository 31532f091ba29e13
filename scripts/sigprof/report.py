#!/usr/bin/env python3
"""Self time per symbol from a scripts/sigprof/sampler.c sample file.

Usage:
    python3 scripts/sigprof/report.py <SIGPROF_OUT>.<pid> [--top N]

Each sampled instruction pointer is placed in the mapping that holds it
(the file's `# maps` section, a copy of the process's /proc/self/maps),
turned into an address in that ELF file, and looked up in the file's
symbol table with `nm` (`nm -D` where the file has only dynamic
symbols). A sample counts toward the symbol whose start is the nearest
below it: self time, not time in callees. Samples in anonymous memory or
in a file without symbols are listed under the mapping's name.
"""

import argparse
import bisect
import collections
import subprocess
import sys


def read_samples(path):
    ips, maps, section = [], [], "samples"
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
            elif line.startswith("#"):
                continue
            elif section == "samples":
                ips.append(int(line, 16))
            else:
                fields = line.split(maxsplit=5)
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) > 5 else "[anon]"
                maps.append((lo, hi, int(fields[2], 16), name))
    return ips, sorted(maps)


def is_shared_object(path):
    """ET_DYN (a PIE or a shared library): symbols are relative to the
    load base. ET_EXEC: symbols are absolute addresses."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return False
    return header[:4] == b"\x7fELF" and header[16] == 3


def symbols(path):
    """Sorted (address, name) of the file's function symbols."""
    for flags in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "--defined-only", *flags, path],
                             capture_output=True, text=True).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWi" and parts[0]:
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return sorted(syms)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()

    ips, maps = read_samples(args.samples)
    if not ips:
        sys.exit("no samples")
    starts = [m[0] for m in maps]
    # The load base of each file: where its lowest mapping starts, less
    # that mapping's file offset.
    base = {}
    for lo, _, offset, name in maps:
        base.setdefault(name, lo - offset)
    tables = {}
    counts = collections.Counter()
    for ip in ips:
        i = bisect.bisect_right(starts, ip) - 1
        if i < 0 or ip >= maps[i][1]:
            counts["[unmapped]"] += 1
            continue
        name = maps[i][3]
        if not name.startswith("/"):
            counts[name] += 1
            continue
        if name not in tables:
            tables[name] = symbols(name)
        syms = tables[name]
        addr = ip - base[name] if is_shared_object(name) else ip
        j = bisect.bisect_right(syms, (addr, "￿")) - 1
        counts[syms[j][1] if j >= 0 else name] += 1

    total = len(ips)
    print(f"{total} samples")
    print(f"{'self %':>7}  {'samples':>8}  symbol")
    for sym, n in counts.most_common(args.top):
        print(f"{100.0 * n / total:7.2f}  {n:8d}  {sym}")


if __name__ == "__main__":
    main()
