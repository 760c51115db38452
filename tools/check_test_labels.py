#!/usr/bin/env python3
"""Check the ctest label table in tests/CMakeLists.txt against the test list.

tests/CMakeLists.txt assigns each gtest name one ctest label through the
gtest filter patterns of ETSQP_TEST_GROUPS. Sanitizer CI steps select tests
by label, so a pattern that silently matches nothing, or a parameterized
instance its suite's pattern misses, drops tests out of those steps. This
script reads the patterns, lists the tests of the etsqp_tests binary with
--gtest_list_tests, and fails when:

  * a pattern matches no test name; or
  * an instance name `Prefix/Suite.Test/N` matches no pattern although the
    bare `Suite.Test` would match one (the pattern misses the prefix).

Usage:
    tools/check_test_labels.py build/tests/etsqp_tests [tests/CMakeLists.txt]

Stdlib only: no third-party dependencies.
"""

import fnmatch
import pathlib
import re
import subprocess
import sys


def read_groups(cmake_path):
    """Returns [(label, [pattern, ...])] from the ETSQP_TEST_GROUPS set()."""
    text = pathlib.Path(cmake_path).read_text()
    m = re.search(r"set\(ETSQP_TEST_GROUPS(.*?)\)", text, re.S)
    if m is None:
        raise SystemExit(f"{cmake_path}: no set(ETSQP_TEST_GROUPS ...)")
    groups = []
    for entry in re.findall(r'"([^"]*)"', m.group(1)):
        label, patterns = entry.split("=", 1)
        groups.append((label, patterns.split(":")))
    return groups


def list_tests(binary):
    """Full gtest names (`Prefix/Suite.Test/N` for parameterized tests)."""
    out = subprocess.run([binary, "--gtest_list_tests"], capture_output=True,
                         text=True, check=True).stdout
    names, suite = [], None
    for line in out.splitlines():
        name = line.split("#", 1)[0].strip()
        if not name:
            continue
        if line.startswith(" "):
            names.append(suite + name)
        else:
            suite = name
    return names


def bare_name(name):
    """`Prefix/Suite.Test/N` -> `Suite.Test`; other names unchanged."""
    suite, test = name.split(".", 1)
    return suite.split("/")[-1] + "." + test.split("/")[0]


def main():
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    binary = sys.argv[1]
    cmake_path = sys.argv[2] if len(sys.argv) == 3 else "tests/CMakeLists.txt"
    groups = read_groups(cmake_path)
    names = list_tests(binary)
    patterns = [(label, p) for label, ps in groups for p in ps]

    def matches(name):
        return any(fnmatch.fnmatchcase(name, p) for _, p in patterns)

    errors = []
    for label, p in patterns:
        if not any(fnmatch.fnmatchcase(n, p) for n in names):
            errors.append(f"{label}: pattern {p!r} matches no test")
    for n in names:
        if bare_name(n) != n and not matches(n) and matches(bare_name(n)):
            errors.append(f"{n}: unlabeled, but {bare_name(n)} would match")
    for e in errors:
        print(e)
    print(f"{len(names)} tests, {len(patterns)} patterns, "
          f"{len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
