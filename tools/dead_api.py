#!/usr/bin/env python3
"""Fails when an external function defined in src/ has no caller.

Usage: tools/dead_api.py <build-dir> [<more-build-dirs> ...]

Reads the object files of CMake build trees with nm and readelf. A
function that an object under <build-dir>/src defines (nm type T) is
reported when all of these hold:
  - no other object, in any of the given trees, references it (nm type
    U); a constructor's or destructor's variants count as one function;
  - no relocation in its own object names it (an out-of-line call in its
    own file, a vtable slot);
  - its unqualified name appears only once in its own source file, so a
    caller in the same file that the optimiser inlined still counts.
What the scan cannot see: header-only inline functions and template
instances (nm type W) are not definitions here, so an unused one
escapes it; so does a function whose only caller is itself.

Exit status: 0 when nothing is reported, 1 otherwise.
"""
import collections
import glob
import os
import re
import subprocess
import sys

# Demangled-name prefixes kept on purpose although nothing calls them.
# Each entry says why. Keep this list short: delete dead code instead.
ALLOWED = {
}


def objects(tree):
    return glob.glob(os.path.join(tree, '**', 'CMakeFiles', '**', '*.o'),
                     recursive=True)


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True,
                          check=True).stdout


def merged(symbol):
    """Folds constructor (C1/C2/C3) and destructor (D0/D1/D2) variants."""
    return re.sub(r'(C[123]|D[012])E', 'XE', symbol)


def source_of(tree, obj):
    """build/src/x/CMakeFiles/t.dir/y.cc.o -> src/x/y.cc"""
    directory, rest = os.path.relpath(obj, tree).split(os.sep + 'CMakeFiles'
                                                       + os.sep, 1)
    return os.path.join(directory, rest.split('.dir' + os.sep, 1)[1][:-2])


def unqualified(demangled):
    """The function's own name: 'ns::Cls::peek(int) const' -> 'peek'."""
    depth = 0
    for i, c in enumerate(demangled):
        if c == '<':
            depth += 1
        elif c == '>':
            depth -= 1
        elif c == '(' and depth == 0 and not demangled[:i].endswith(
                'operator'):
            head = re.sub(r'\[abi:\w+\]', '', demangled[:i])
            return head.split('::')[-1]
    return demangled


def main(trees):
    library = os.path.join(trees[0], 'src')
    defined = {}
    referenced = collections.defaultdict(set)
    for tree in trees:
        for obj in objects(tree):
            for line in run('nm', obj).splitlines():
                fields = line.split()
                if (len(fields) == 3 and fields[1] == 'T' and
                        obj.startswith(library + os.sep)):
                    defined[merged(fields[2])] = obj
                elif len(fields) == 2 and fields[0] == 'U':
                    referenced[merged(fields[1])].add(obj)

    relocated = {}
    unused = []
    for symbol, obj in sorted(defined.items()):
        if referenced[symbol] - {obj}:
            continue
        if obj not in relocated:
            relocated[obj] = {
                merged(f[4]) for f in
                (line.split() for line in run('readelf', '-rW',
                                              obj).splitlines())
                if len(f) >= 5 and f[2].startswith('R_')}
        if symbol in relocated[obj]:
            continue
        demangled = run('c++filt', symbol).strip()
        if any(demangled.startswith(p) for p in ALLOWED):
            continue
        source = source_of(trees[0], obj)
        with open(source, encoding='utf-8') as f:
            text = f.read()
        name = unqualified(demangled)
        if len(re.findall(r'(?<![\w~])' + re.escape(name) + r'\b',
                          text)) < 2:
            unused.append(f'{source}: {demangled}')

    for line in unused:
        print(f'dead API: {line}', file=sys.stderr)
    print(f'dead-API scan: {len(defined)} functions, {len(unused)} without '
          'a caller')
    return 1 if unused else 0


if __name__ == '__main__':
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
