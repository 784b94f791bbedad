#!/usr/bin/env python3
"""Fail when x86 vector code leaves the upper YMM/ZMM state dirty.

    check_vzeroupper.py <library.a | directory>...

A directory stands for every libadalsh_*.a in it. Each archive is
disassembled with `objdump -d -r`, and every function that writes a %ymm or
%zmm register is followed along its control flow: a `call`, a `ret`, or a
`jmp` that leaves the function (a tail call) reached while the upper state
may be dirty, with no `vzeroupper` (or `vzeroall`) on the way, is reported.
Baseline SSE code run in that state pays the AVX-to-SSE transition penalty
on every instruction (util/simd_kernels.h).

Exit status: 0 clean, 1 violations found, 2 usage error, 77 (ctest's
SKIP_RETURN_CODE) when objdump is missing or the host is not x86.
"""

import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

SKIP = 77

LABEL = re.compile(r"^([0-9a-f]+) <(.*)>:$")
INSN = re.compile(r"^\s*([0-9a-f]+):\t(.*)$")
RELOC = re.compile(r"^\s*([0-9a-f]+): R_")
TARGET = re.compile(r"^([0-9a-f]+) <")
WIDE_REG = re.compile(r"^%[yz]mm\d+")
PREFIXES = {"bnd", "notrack", "rep", "repz"}  # seen before jmp/ret


def last_operand(operands):
    """The destination in AT&T syntax: the text after the last top-level
    comma (commas inside a memory operand's parentheses do not count)."""
    depth = 0
    start = 0
    for i, ch in enumerate(operands):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            start = i + 1
    return operands[start:].strip()


def parse(text):
    """Yields (object, function, instructions); each instruction is
    [address, mnemonic, operands, has_relocation]."""
    obj = "?"
    name = None
    insns = []
    for line in text.splitlines():
        if "file format" in line:
            if name is not None:
                yield obj, name, insns
            obj, name, insns = line.split(":")[0], None, []
            continue
        if line.startswith("Disassembly of section"):
            if name is not None:
                yield obj, name, insns
            name, insns = None, []
            continue
        label = LABEL.match(line)
        if label:
            if name is not None:
                yield obj, name, insns
            name, insns = label.group(2), []
            continue
        reloc = RELOC.match(line)
        if reloc:
            if insns:
                insns[-1][3] = True
            continue
        insn = INSN.match(line)
        if insn and name is not None:
            words = insn.group(2).split("#")[0].split()
            while words and words[0] in PREFIXES:
                words = words[1:]
            if not words:
                continue
            operands = " ".join(words[1:])
            insns.append([int(insn.group(1), 16), words[0], operands, False])
    if name is not None:
        yield obj, name, insns


def violations(insns):
    """Forward may-be-dirty dataflow over the function's control flow graph.
    Returns the (address, mnemonic) of every exit reached dirty."""
    if not any(WIDE_REG.match(last_operand(op)) for _, _, op, _ in insns):
        return []
    index = {addr: i for i, (addr, _, _, _) in enumerate(insns)}
    end = insns[-1][0] + 1
    start = insns[0][0]

    def internal_target(i):
        _, _, operands, relocated = insns[i]
        match = TARGET.match(operands)
        if relocated or match is None:
            return None  # a relocated or indirect branch leaves the function
        target = int(match.group(1), 16)
        return index.get(target) if start <= target < end else None

    dirty = [False] * len(insns)
    seen = [False] * len(insns)
    work = [0]
    seen[0] = True
    found = set()
    while work:
        i = work.pop()
        _, mnemonic, operands, _ = insns[i]
        state = dirty[i]
        if state and (mnemonic.startswith("call") or
                      mnemonic.startswith("ret")):
            found.add(i)
        if mnemonic in ("vzeroupper", "vzeroall"):
            state = False
        elif WIDE_REG.match(last_operand(operands)):
            state = True
        successors = []
        if mnemonic.startswith("ret") or mnemonic == "ud2":
            pass
        elif mnemonic.startswith("jmp"):
            target = internal_target(i)
            if target is None:
                if state:
                    found.add(i)
            else:
                successors.append(target)
        else:
            if mnemonic.startswith("j"):
                target = internal_target(i)
                if target is not None:
                    successors.append(target)
            if i + 1 < len(insns):
                successors.append(i + 1)
        for s in successors:
            if not seen[s] or (state and not dirty[s]):
                seen[s] = True
                dirty[s] = dirty[s] or state
                work.append(s)
    return [(insns[i][0], insns[i][1]) for i in sorted(found)]


def archives(paths):
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.glob("libadalsh_*.a"))
        else:
            yield path


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    if shutil.which("objdump") is None:
        print("SKIP: objdump not found")
        return SKIP
    if platform.machine().lower() not in ("x86_64", "amd64", "i386", "i686"):
        print(f"SKIP: {platform.machine()} is not x86")
        return SKIP
    libs = list(archives(argv[1:]))
    if not libs:
        print("no libadalsh_*.a found in " + " ".join(argv[1:]),
              file=sys.stderr)
        return 2
    total = 0
    for lib in libs:
        text = subprocess.run(["objdump", "-d", "-r", "-C",
                               "--no-show-raw-insn", str(lib)],
                              check=True, stdout=subprocess.PIPE,
                              text=True).stdout
        for obj, name, insns in parse(text):
            for addr, mnemonic in violations(insns):
                print(f"{lib.name}({obj}): {name}: {mnemonic} at {addr:#x} "
                      "with the upper YMM/ZMM state dirty")
                total += 1
    print(f"{total} violation(s) in {len(libs)} archive(s)")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
