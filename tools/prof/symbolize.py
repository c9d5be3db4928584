#!/usr/bin/env python3
"""Turn the dumps of tools/prof/sampler.c or heap.c into folded stacks.

    python3 tools/prof/symbolize.py [--require TEXT] DUMP... > out.folded

Each DUMP is a <prefix>.<pid>.stacks (CPU samples) or .heap (live bytes at
the heap peak) file, or the .maps file beside it (found by name); shell
globs such as /tmp/prof/run.* work. Every sample becomes one line
"root;...;leaf 1" and every heap stack one line "root;...;leaf bytes",
merged into "stack weight" lines, the format flame-graph tools read. One
run's dumps are all of one kind; mixing them is refused.

Each address is mapped through the process's /proc/self/maps copy to the
binary it was sampled in, and every binary is symbolized with one
`addr2line -f -C` call on (return address - 1), so a frame names the call
site, not the instruction after it. The profilers' own frames, and below
the sampler's the signal trampoline, are dropped.

A dump is only meaningful against the exact binary that was sampled: a
rebuild moves every function and silently misattributes every frame. The
maps copy records each binary's inode, so a binary whose inode changed
since the run is refused.

--require TEXT exits 1 unless at least one stack has a frame containing
TEXT (CI uses 'ftmr::' to check that the engine's frames resolve).
"""
import argparse
import collections
import os
import struct
import subprocess
import sys

SELF = "libftmr_prof"


def read_maps(path):
    """The file-backed mappings of one process: (start, end, offset, inode, path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), int(parts[4]), parts[5].strip()))
    return maps


def elf_loads(path, cache={}):
    """None for a fixed-address executable (ET_EXEC), whose sampled
    addresses are link-time addresses already; else the (file offset, file
    size, link-time address) of each PT_LOAD segment of a shared object or
    PIE (ET_DYN). 64-bit little-endian ELF only."""
    if path not in cache:
        loads = []
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
                cache[path] = []
                return []
            if struct.unpack_from("<H", head, 16)[0] == 2:
                cache[path] = None
                return None
            phoff, = struct.unpack_from("<Q", head, 32)
            phentsize, phnum = struct.unpack_from("<HH", head, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
        for i in range(phnum):
            kind, _, offset, vaddr, _, filesz = struct.unpack_from(
                "<IIQQQQ", table, i * phentsize)
            if kind == 1:  # PT_LOAD
                loads.append((offset, filesz, vaddr))
        cache[path] = loads
    return cache[path]


def locate(addr, maps):
    """(binary, address addr2line expects) for a sampled address, or None."""
    for lo, hi, offset, _, path in maps:
        if lo <= addr < hi:
            loads = elf_loads(path)
            if loads is None:
                return path, addr
            at = addr - lo + offset  # offset in the file
            for seg_off, size, vaddr in loads:
                if seg_off <= at < seg_off + size:
                    return path, at - seg_off + vaddr
            return None
    return None


def addr2line(binary, addrs):
    """Function name per address, by one addr2line call."""
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-e", binary] + ["%x" % a for a in addrs],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
    ).stdout.splitlines()
    names = out[0::2]
    names += ["??"] * (len(addrs) - len(names))
    return names


def check_inodes(maps):
    """Refuse binaries replaced since they were sampled."""
    stale = []
    for path, inode in sorted({(m[4], m[3]) for m in maps}):
        try:
            now = os.stat(path).st_ino
        except OSError:
            now = None
        if now != inode:
            stale.append("%s (inode %s then, %s now)" % (path, inode, now))
    for line in stale:
        sys.stderr.write("symbolize: not the binary that was sampled: %s\n" % line)
    if stale:
        sys.exit("symbolize: refusing stale binaries; rerun the sampled program")


def load(prefix, kind):
    """One process's stacks as (weight, frames), the frames (binary,
    address) leaf first (None for an address outside every file mapping),
    and its maps. A .stacks line is one sample (its first field is the
    depth); a .heap line's first field is its live bytes at the peak."""
    maps = read_maps(prefix + ".maps")
    where = {}
    samples = []
    with open(prefix + kind) as f:
        for line in f:
            if line.startswith("#"):
                continue
            fields = line.split()
            frames = []
            for field in fields[1:]:
                pc = int(field, 16)
                if pc not in where:
                    where[pc] = locate(pc - 1, maps)
                frames.append(where[pc])
            samples.append((int(fields[0]) if kind == ".heap" else 1, frames))
    return samples, maps


def fold(prefixes, kind):
    """Folded stacks of every process, each binary symbolized once."""
    processes = [load(p, kind) for p in prefixes]
    check_inodes([m for _, maps in processes for m in maps
                  if not os.path.basename(m[4]).startswith(SELF)])
    wanted = collections.defaultdict(set)  # binary -> addresses
    for samples, _ in processes:
        for _, frames in samples:
            for hit in frames:
                if hit:
                    wanted[hit[0]].add(hit[1])
    names = {}
    for binary, addrs in wanted.items():
        if os.path.basename(binary).startswith(SELF):
            continue
        ordered = sorted(addrs)
        for a, name in zip(ordered, addr2line(binary, ordered)):
            names[(binary, a)] = name
    folded = collections.Counter()
    for samples, _ in processes:
        for weight, frames in samples:
            # The profiler's own frames; below the sampler's handler, the
            # signal trampoline (__restore_rt) it returns through. Then the
            # interrupted (or allocating) code.
            skip = 0
            while skip < len(frames) and frames[skip] and \
                    os.path.basename(frames[skip][0]).startswith(SELF):
                skip += 1
            if skip and kind == ".stacks":
                skip += 1
            out = []
            for hit in frames[skip:]:
                if hit is None:
                    out.append("[unknown]")
                elif not os.path.basename(hit[0]).startswith(SELF):
                    name = names.get(hit, "??")
                    out.append(name if name != "??" else "[%s]" % os.path.basename(hit[0]))
            if out:
                folded[";".join(reversed(out))] += weight
    return folded


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dumps", nargs="+")
    ap.add_argument("--require", help="exit 1 unless some frame contains this")
    args = ap.parse_args()
    prefixes = sorted({d.rsplit(".", 1)[0] for d in args.dumps
                       if d.endswith((".stacks", ".heap", ".maps"))})
    prefixes = [p for p in prefixes if os.path.exists(p + ".maps")]
    kinds = {k for p in prefixes for k in (".stacks", ".heap")
             if os.path.exists(p + k)}
    if len(kinds) > 1:
        sys.exit("symbolize: both .stacks and .heap dumps given; pass one kind")
    kind = kinds.pop() if kinds else ".stacks"
    prefixes = [p for p in prefixes if os.path.exists(p + kind)]
    total = fold(prefixes, kind)
    for stack, count in sorted(total.items()):
        print("%s %d" % (stack, count))
    sys.stderr.write("symbolize: %d %s in %d stacks from %d processes\n"
                     % (sum(total.values()),
                        "bytes at the heap peak" if kind == ".heap" else "samples",
                        len(total), len(prefixes)))
    if args.require and not any(args.require in s for s in total):
        sys.stderr.write("symbolize: no stack has a frame containing %r\n" % args.require)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
