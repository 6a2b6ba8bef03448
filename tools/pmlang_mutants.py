#!/usr/bin/env python3
"""Runs seeded token mutants of PMLang sources through pmc.

Usage:
  tools/pmlang_mutants.py --contract PMC [options] [FILE ...]
  tools/pmlang_mutants.py --diff OLD_PMC NEW_PMC [options] [FILE ...]
  tools/pmlang_mutants.py --show K [options] [FILE ...]

Each mutant applies one edit to the tokens of one source file (by
default examples/pmlang/*.pm): it deletes a token, duplicates it, swaps
it with a token up to eight places later, or substitutes a token drawn
from the file's own spellings and a few PMLang keywords and operators.
Mutant K depends only on --seed, K and the file list, so a run with the
same arguments makes the same mutants.

--contract runs every mutant through PMC twice, with `--print-ir` and
with `--optimize --target ALL --simulate`. Each run must exit 0 (ok) or
1 (a user error) and print no sanitizer report; exiting 2 (an internal
error), dying on a signal or running past TIMEOUT_S is a failure.

--diff runs every mutant through both binaries with `--print-ir` and
lists each mutant whose exit code, stdout or stderr differ, then counts
the differences by exit-code pair.

--show prints mutant K's source on stdout and its edit on stderr.

Exit status: 0 when no run fails (--contract) or nothing differs
(--diff); 1 otherwise; 2 on bad usage.
"""
import argparse
import collections
import concurrent.futures
import glob
import os
import random
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOKEN = re.compile(
    r'(\s+|//[^\n]*|/\*.*?\*/)'                   # skipped
    r'|("[^"\n]*"|[A-Za-z_]\w*'                   # strings, names
    r'|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?'      # numbers
    r'|<=|>=|==|!=|&&|\|\||.)', re.S)             # operators

# Spellings every substitution may draw besides the file's own.
EXTRA = ['0', '1', '2', '0.5', '^', '<', '&&', '!', 'sum', 'max',
         'sigmoid', 'index', 'float', 'int', 'bin', 'input', 'output',
         'state', 'param', 'DA', '[', ']', '(', ')', ';', ',', '?', ':']

CONTRACT_RUNS = (['--print-ir'],
                 ['--optimize', '--target', 'ALL', '--simulate'])

SANITIZER = re.compile(r'Sanitizer|runtime error:')

# Seconds one pmc run may take: far above the 0.1 s an ASan build's
# --simulate of an example takes, so only a hang reaches it.
TIMEOUT_S = 60

# pmc runs in flight at once: four ASan pmc processes fit a small host.
JOBS = 4


def tokens(src):
    """The (start, end) span of every token of @p src."""
    return [m.span(2) for m in TOKEN.finditer(src) if m.group(2)]


def position(src, offset):
    """line:column of @p offset, as pmc reports it."""
    line = src.count('\n', 0, offset) + 1
    column = offset - (src.rfind('\n', 0, offset) + 1) + 1
    return f'{line}:{column}'


def mutant(sources, seed, k):
    """Mutant @p k: (name of its file, description, mutated source)."""
    name, src, spans = sources[k % len(sources)]
    rng = random.Random(seed * 1_000_003 + k)
    i = rng.randrange(len(spans))
    start, end = spans[i]
    text = src[start:end]
    where = f"'{text}' at {position(src, start)}"
    kind = rng.choice(('delete', 'duplicate', 'swap', 'substitute'))
    if kind == 'delete':
        out = src[:start] + src[end:]
    elif kind == 'duplicate':
        out = src[:end] + ' ' + text + src[end:]
    elif kind == 'swap':
        j = min(i + rng.randint(1, 8), len(spans) - 1)
        start2, end2 = spans[j]
        if j == i:  # the last token: swap with the one before
            start, end, start2, end2 = spans[i - 1] + spans[i]
            text = src[start:end]
        other = src[start2:end2]
        where = f"'{text}' <-> '{other}' at {position(src, start2)}"
        out = (src[:start] + other + src[end:start2] + text +
               src[end2:])
    else:
        vocab = sorted({src[a:b] for a, b in spans} | set(EXTRA))
        new = rng.choice(vocab)
        where += f" -> '{new}'"
        out = src[:start] + new + src[end:]
    return name, f'{kind} {where}', out


def run(pmc, args, source):
    """(exit code or 'timeout', stdout, stderr) of one pmc run."""
    try:
        p = subprocess.run([pmc, *args, '-'], input=source.encode(),
                           capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 'timeout', b'', b''
    return p.returncode, p.stdout, p.stderr


def first_line(stream):
    return stream.decode(errors='replace').strip().split('\n')[0][:160]


def contract(opts, sources):
    def check(k):
        name, what, src = mutant(sources, opts.seed, k)
        failures = []
        for args in CONTRACT_RUNS:
            code, _, err = run(opts.contract, args, src)
            bad_err = SANITIZER.search(err.decode(errors='replace'))
            if code not in (0, 1) or bad_err:
                failures.append(f'mutant {k} ({name}: {what}): '
                                f'{" ".join(args)} exited {code}: '
                                f'{first_line(err)}')
        return failures

    failed = 0
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for failures in pool.map(check, range(opts.count)):
            for line in failures:
                print(line)
            failed += len(failures)
    print(f'contract: {opts.count} mutants, '
          f'{opts.count * len(CONTRACT_RUNS)} runs, {failed} failed')
    return 1 if failed else 0


def diff(opts, sources):
    old_pmc, new_pmc = opts.diff

    def compare(k):
        name, what, src = mutant(sources, opts.seed, k)
        old = run(old_pmc, ['--print-ir'], src)
        new = run(new_pmc, ['--print-ir'], src)
        return k, name, what, old, new

    pairs = collections.Counter()
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for k, name, what, old, new in pool.map(compare,
                                                range(opts.count)):
            if old == new:
                continue
            pair = f'{old[0]} -> {new[0]}'
            if old[0] == new[0]:
                pair += (' (stderr differs)' if old[2] != new[2]
                         else ' (stdout differs)')
            pairs[pair] += 1
            print(f'mutant {k} ({name}: {what}): exit {pair}')
            print(f'  old: {first_line(old[2]) or first_line(old[1])}')
            print(f'  new: {first_line(new[2]) or first_line(new[1])}')
    differing = sum(pairs.values())
    print(f'diff: {opts.count} mutants, {differing} differ')
    for pair, n in sorted(pairs.items()):
        print(f'  {n:6d}  exit {pair}')
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split('\n')[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument('--contract', metavar='PMC')
    mode.add_argument('--diff', nargs=2, metavar=('OLD_PMC', 'NEW_PMC'))
    mode.add_argument('--show', type=int, metavar='K')
    parser.add_argument('--count', type=int, default=1000,
                        help='number of mutants (default 1000)')
    parser.add_argument('--seed', type=int, default=1,
                        help='mutation seed (default 1)')
    parser.add_argument('files', nargs='*',
                        help='sources to mutate '
                             '(default examples/pmlang/*.pm)')
    opts = parser.parse_args()
    if opts.count < 0:
        parser.error('--count must be >= 0')

    files = opts.files or sorted(
        glob.glob(os.path.join(ROOT, 'examples', 'pmlang', '*.pm')))
    sources = []
    for path in files:
        with open(path, encoding='utf-8') as f:
            src = f.read()
        if len(tokens(src)) >= 2:
            sources.append((os.path.basename(path), src, tokens(src)))
    if not sources:
        parser.error('no source with two or more tokens')

    if opts.show is not None:
        name, what, src = mutant(sources, opts.seed, opts.show)
        print(f'mutant {opts.show} ({name}: {what})', file=sys.stderr)
        sys.stdout.write(src)
        return 0
    if opts.contract:
        return contract(opts, sources)
    return diff(opts, sources)


if __name__ == '__main__':
    sys.exit(main())
