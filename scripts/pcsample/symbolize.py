#!/usr/bin/env python3
"""Turn a pcsample.<pid>.raw file into a flat profile.

    python3 scripts/pcsample/symbolize.py pcsample.<pid>.raw [--top N]

Each sampled PC is placed in its mapped file from the /proc/self/maps
copy at the head of the raw file, then resolved with `addr2line -f -i
-C` (one batched call per file). addr2line -i lists the inline chain
innermost first, so every sample is charged twice over:

  * "self" — the innermost function, inlined or not: where the
    instruction's source line is;
  * "enclosing" — the outermost entry of the chain: the real,
    out-of-line function the CPU was executing.

PCs in a file without a full symbol table (a stripped libc or libm
has only its exported symbols, so addr2line names the nearest exported
one) are charged to "[file] near <symbol>", so their time still shows
as a share without a misleading function name.
"""

import argparse
import collections
import os
import subprocess
import sys


def read_raw(path):
    maps, pcs, header = [], [], ""
    section = None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
                continue
            if line.startswith("# samples"):
                section = "samples"
                header = line[2:].strip()
                continue
            if section == "maps":
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line.strip():
                pcs.append(int(line, 16))
    return maps, pcs, header


def place(maps, pc):
    for lo, hi, offset, path in maps:
        if lo <= pc < hi:
            return path, pc - lo + offset
    return None, None


def resolve(path, addrs):
    """Inline chain (innermost first) of each address in @p path."""
    if not os.path.isfile(path):
        return {a: [] for a in addrs}
    proc = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", path]
        + [hex(a) for a in addrs],
        capture_output=True, text=True, check=False)
    chains, current = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        fn = line
        loc = lines[i + 1] if i + 1 < len(lines) else "??:0"
        if fn != "??" and current is not None:
            chains[current].append((fn, loc))
        i += 2
    return chains


def has_symtab(path):
    proc = subprocess.run(["readelf", "-S", "-W", path],
                          capture_output=True, text=True, check=False)
    return ".symtab" in proc.stdout


def short(name, width=100):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw")
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()

    maps, pcs, header = read_raw(args.raw)
    if not pcs:
        sys.exit("symbolize: no samples in " + args.raw)
    by_file = collections.defaultdict(collections.Counter)
    unplaced = 0
    for pc in pcs:
        path, addr = place(maps, pc)
        if path is None:
            unplaced += 1
        else:
            by_file[path][addr] += 1

    self_count = collections.Counter()
    enclosing = collections.Counter()
    files = collections.Counter()
    for path, counts in by_file.items():
        chains = resolve(path, sorted(counts))
        base = os.path.basename(path)
        full = os.path.isfile(path) and has_symtab(path)
        for addr, n in counts.items():
            files[base] += n
            chain = chains.get(addr) or []
            if chain and full:
                self_count[chain[0][0]] += n
                enclosing[chain[-1][0]] += n
            else:
                name = f"[{base}]"
                if chain:
                    name += " near " + chain[-1][0]
                self_count[name] += n
                enclosing[name] += n

    total = len(pcs)
    print(f"{total} samples ({header}), {unplaced} outside any mapped file")
    for title, counter in (("by file", files),
                           ("self (innermost inline frame)", self_count),
                           ("enclosing (out-of-line function)", enclosing)):
        print(f"\n{title}:")
        for name, n in counter.most_common(args.top):
            print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {short(name)}")


if __name__ == "__main__":
    main()
