#!/usr/bin/env python3
"""Turn a pcsample.<pid>.raw file into a flat profile.

    python3 scripts/pcsample/symbolize.py pcsample.<pid>.raw [--top N]
                                          [--by-thread]

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

--by-thread prints the self and enclosing rankings once per sampled
thread, in the order the threads were first sampled (the first is the
main thread), each share a share of that thread's samples. Raw files
from before thread ids were recorded read as one thread.
"""

import argparse
import collections
import os
import subprocess
import sys


def read_raw(path):
    """Maps, (pc, tid) samples and the header line of a raw file."""
    maps, samples, header = [], [], ""
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
                parts = line.split()
                tid = int(parts[1]) if len(parts) > 1 else 0
                samples.append((int(parts[0], 16), tid))
    return maps, samples, header


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


def names(maps, samples):
    """Map each placed (path, offset) to its (file, self, enclosing)
    names, resolving every file once."""
    by_file = collections.defaultdict(set)
    for pc, _ in samples:
        path, addr = place(maps, pc)
        if path is not None:
            by_file[path].add(addr)
    named = {}
    for path, addrs in by_file.items():
        chains = resolve(path, sorted(addrs))
        base = os.path.basename(path)
        full = os.path.isfile(path) and has_symtab(path)
        for addr in addrs:
            chain = chains.get(addr) or []
            if chain and full:
                named[(path, addr)] = (base, chain[0][0], chain[-1][0])
            else:
                name = f"[{base}]"
                if chain:
                    name += " near " + chain[-1][0]
                named[(path, addr)] = (base, name, name)
    return named


def rank(title, counter, total, top):
    print(f"\n{title}:")
    for name, n in counter.most_common(top):
        print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {short(name)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--by-thread", action="store_true",
                    help="rank each sampled thread's samples apart")
    args = ap.parse_args()

    maps, samples, header = read_raw(args.raw)
    if not samples:
        sys.exit("symbolize: no samples in " + args.raw)
    named = names(maps, samples)

    # One group of counters per thread (first sampled first), or one
    # for the whole process.
    groups = {}
    sampled = collections.Counter()
    unplaced = 0
    for pc, tid in samples:
        key = tid if args.by_thread else 0
        if key not in groups:
            groups[key] = [collections.Counter() for _ in range(3)]
        sampled[key] += 1
        path, addr = place(maps, pc)
        if path is None:
            unplaced += 1
            continue
        for counter, name in zip(groups[key], named[(path, addr)]):
            counter[name] += 1

    total = len(samples)
    print(f"{total} samples ({header}), {unplaced} outside any mapped file")
    for i, (tid, (files, self_count, enclosing)) in enumerate(
            groups.items()):
        n = sampled[tid]
        if args.by_thread:
            role = "main thread" if i == 0 else f"thread {i + 1}"
            print(f"\n=== {role} (tid {tid}): {n} samples, "
                  f"{100.0 * n / total:.2f}% of all")
        else:
            rank("by file", files, n, args.top)
        rank("self (innermost inline frame)", self_count, n, args.top)
        rank("enclosing (out-of-line function)", enclosing, n, args.top)


if __name__ == "__main__":
    main()
