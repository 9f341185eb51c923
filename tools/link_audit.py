#!/usr/bin/env python3
"""Link audit (the `link_audit` ctest target): library code that no
shipped program uses must be deleted or named on the allowlist.

The top-level build compiles every function into its own section and
links with --gc-sections, so a program keeps exactly the library
functions it can call.  A function the optimizer inlined into all its
callers is used all the same, though its out-of-line copy is dropped;
the audit finds those in the libraries' debug information, where each
inlined call is a DW_TAG_inlined_subroutine of the function it was
inlined into.  A library function is used when a shipped program keeps
it, or when it is inlined into a used function.

The audit lists the strong (non-inline, non-template) function symbols
the libraries define, removes the used ones, and compares what is left
-- by qualified name, overloads folded -- with the allowlist.  It
fails, one line per problem on stderr, when

- an unused function is not on the allowlist: delete it, or add it
  with a reason;
- an allowlisted name is used by a shipped program again, or is no
  longer defined by any library: drop the stale line.

Allowlist format: one entry per line, the qualified name (as `nm -C`
prints it, without the parameter list) followed by a one-line reason;
blank lines and lines starting with `#` are ignored.

Usage:
    tools/link_audit.py --nm NM --readelf READELF --allowlist FILE
        --libs LIB.a... --programs PROGRAM...
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

_TRAILING_QUALIFIERS = (" const", " volatile", " &&", " &")

# readelf --debug-dump=info: a DIE header, then one line per attribute.
_DIE_RE = re.compile(r"^\s*<(\d+)><([0-9a-f]+)>: Abbrev Number: \d+ "
                     r"\((DW_TAG_\w+)\)")
_ATTR_RE = re.compile(r"^\s*<[0-9a-f]+>\s+(DW_AT_\w+)\s*:\s*(.*)$")
_REF_RE = re.compile(r"<0x([0-9a-f]+)>")


def function_name(signature):
    """`ns::C::f(int) const` -> `ns::C::f`, ABI tags dropped."""
    sig = signature.strip()
    stripped = True
    while stripped:
        stripped = False
        for qual in _TRAILING_QUALIFIERS:
            if sig.endswith(qual):
                sig = sig[: -len(qual)]
                stripped = True
    if sig.endswith(")"):
        depth = 0
        for i in range(len(sig) - 1, -1, -1):
            if sig[i] == ")":
                depth += 1
            elif sig[i] == "(":
                depth -= 1
                if depth == 0:
                    sig = sig[:i]
                    break
    while "[abi:" in sig:
        start = sig.index("[abi:")
        sig = sig[:start] + sig[sig.index("]", start) + 1:]
    return sig


def run(*command):
    return subprocess.run(command, check=True, capture_output=True,
                          text=True).stdout


def defined_symbols(nm, path, kinds=None):
    """Demangled signatures of the symbols @p path defines."""
    symbols = set()
    for line in run(nm, "--defined-only", "-C", path).splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue  # archive member headers and blank lines
        if kinds is None or parts[1] in kinds:
            symbols.add(parts[2])
    return symbols


def inline_edges(readelf, path):
    """(caller, inlinee) mangled-name pairs: each function inlined
    into each out-of-line function body of the archive @p path.  The
    caller is None when the body has no linkage name (a lambda, or a
    template instantiated on one)."""
    edges = set()
    dies = {}       # offset -> [linkage name, referenced offset]
    parents = []    # (offset, tag) per nesting level
    inlined = []    # (enclosing subprogram offset, inlined DIE offset)
    current = None

    def flush():
        def name_of(offset, hops=0):
            die = dies.get(offset)
            if die is None or hops > 8:
                return None
            return die[0] or (die[1] and name_of(die[1], hops + 1))
        for caller, callee in inlined:
            callee = name_of(callee)
            if callee:
                edges.add((name_of(caller), callee))
        dies.clear()
        parents.clear()
        inlined.clear()

    text = run(readelf, "--debug-dump=info", path)
    for line in text.splitlines():
        if line.startswith("File: "):
            flush()  # offsets restart in every archive member
            continue
        if "Abbrev Number" in line:
            die = _DIE_RE.match(line)
            if not die:
                continue  # a null entry ends a sibling list
            level, offset, tag = int(die[1]), int(die[2], 16), die[3]
            del parents[level:]
            parents.append((offset, tag))
            current = dies.setdefault(offset, [None, None])
            if tag == "DW_TAG_inlined_subroutine":
                for parent, parent_tag in reversed(parents[:-1]):
                    if parent_tag == "DW_TAG_subprogram":
                        inlined.append((parent, offset))
                        break
            continue
        if not ("linkage_name" in line or "DW_AT_specification" in line or
                "DW_AT_abstract_origin" in line):
            continue
        attr = _ATTR_RE.match(line)
        if not attr or current is None:
            continue
        if attr[1] in ("DW_AT_linkage_name", "DW_AT_MIPS_linkage_name"):
            current[0] = attr[2].rsplit(" ", 1)[-1]
        elif attr[1] in ("DW_AT_specification", "DW_AT_abstract_origin"):
            ref = _REF_RE.search(attr[2])
            if ref:
                current[1] = int(ref[1], 16)
    flush()
    return edges


def demangle(nm, names):
    """{mangled: demangled} through the c++filt beside @p nm."""
    cxxfilt = (shutil.which("c++filt", path=os.path.dirname(nm)) or
               shutil.which("c++filt"))
    names = sorted(names)
    out = subprocess.run([cxxfilt], input="\n".join(names) + "\n",
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    return dict(zip(names, out))


def read_allowlist(path, problems):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split(None, 1)
            where = f"{path}:{lineno}"
            if len(fields) < 2:
                problems.append(f"{where}: '{fields[0]}' has no reason")
            elif fields[0] in entries:
                problems.append(f"{where}: '{fields[0]}' is listed twice")
            entries[fields[0]] = where
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nm", required=True)
    parser.add_argument("--readelf", required=True)
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("--libs", nargs="+", required=True)
    parser.add_argument("--programs", nargs="+", required=True)
    args = parser.parse_args()

    library = set()
    mangled_edges = set()
    for lib in args.libs:
        library |= defined_symbols(args.nm, lib, kinds={"T"})
        mangled_edges |= inline_edges(args.readelf, lib)
    used = set()
    for program in args.programs:
        used |= defined_symbols(args.nm, program)
    if not library or not used or not mangled_edges:
        print("link_audit: no symbols or no inlining records read; the "
              "audit needs nm, readelf and a build with debug info",
              file=sys.stderr)
        return 1

    # A nameless body cannot be matched to a program's symbols, so what
    # is inlined into it counts as used: the audit may miss a function
    # only a dead lambda calls, but never flags a live one.
    demangled = demangle(args.nm, {n for e in mangled_edges for n in e
                                   if n})
    demangled[None] = None
    inlinees = {}
    for caller, callee in mangled_edges:
        inlinees.setdefault(demangled[caller], set()).add(
            demangled[callee])
    used |= inlinees.get(None, set())
    work = list(used)
    while work:
        for callee in inlinees.get(work.pop(), ()):
            if callee not in used:
                used.add(callee)
                work.append(callee)

    defined = {function_name(sig) for sig in library}
    unused = {function_name(sig) for sig in library - used}

    problems = []
    allowed = read_allowlist(args.allowlist, problems)
    for name in sorted(unused - allowed.keys()):
        problems.append(
            f"{name}: no shipped program uses it; delete it, or add "
            f"it to {args.allowlist} with a reason")
    for name, where in sorted(allowed.items()):
        if name not in defined:
            problems.append(f"{where}: '{name}' is no longer defined by "
                            "any library; drop the line")
        elif name not in unused:
            problems.append(f"{where}: '{name}' is used by a shipped "
                            "program now; drop the line")

    for problem in problems:
        print(f"link_audit: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"link_audit: {len(args.programs)} programs use all but the "
          f"{len(allowed)} allowlisted of {len(defined)} library "
          "functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
