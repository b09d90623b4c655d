#!/usr/bin/env python3
"""Repo-invariant linter: mechanical checks the compiler cannot express.

Run from anywhere:  python3 tools/lint_invariants.py [--root REPO]
Self-check:         python3 tools/lint_invariants.py --self-test

Rules (each violation prints as `path:line: [rule-id] message`):

  sync-wrappers   Naked standard synchronization primitives (std::mutex,
                  std::lock_guard, std::condition_variable, ...) are
                  banned outside src/util/. Everything must go through
                  the annotated topkjoin::Mutex / MutexLock / CondVar
                  wrappers (src/util/mutex.h) so Clang Thread Safety
                  Analysis sees every lock in the tree.

  no-test-sleep   Wall-clock sleeps in tests/ are banned: they are
                  either a flaky race papered over with latency or dead
                  weight. Tests must synchronize on condition variables,
                  futures, or latches.

  include-guard   Every header needs an include guard (#ifndef/#define
                  or #pragma once) near the top.

  include-path    #include paths must be repo-rooted ("src/..." /
                  "tests/..."); `../` or `./` relative includes are
                  banned -- they break as files move and defeat
                  include-what-you-use reasoning.

  failpoint-gate  Failpoint evaluation from production code (src/) must
                  be gated on kFailpointsEnabled so default builds
                  (TOPKJOIN_FAILPOINTS=OFF) compile the registry lookup
                  out entirely. Tests and benches arm/inspect the
                  registry directly and are exempt.

  tsa-suppress    Every NO_THREAD_SAFETY_ANALYSIS needs an adjacent
                  `SAFETY:` comment explaining why the suppression is
                  sound. A bare suppression is an unreviewed hole in the
                  lock discipline.
"""

import argparse
import os
import re
import sys

BANNED_SYNC = [
    "std::mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::condition_variable",
    "std::condition_variable_any",
]

SLEEP_RE = re.compile(r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\s*\(")

# How far back (in lines) a kFailpointsEnabled gate or a SAFETY: rationale
# may sit from the line it covers.
GATE_WINDOW = 15
SAFETY_WINDOW = 12

SOURCE_EXTS = (".h", ".cc")


def strip_comments(text):
    """Blanks out // and /* */ comments (and string literals), keeping
    line structure so reported line numbers stay meaningful."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = root
        self.violations = []

    def report(self, path, line_no, rule, message):
        rel = os.path.relpath(path, self.root)
        self.violations.append((rel, line_no, rule, message))

    # ---------------------------------------------------------- rules

    def check_sync_wrappers(self, path, code_lines):
        rel = os.path.relpath(path, self.root)
        if rel.startswith(os.path.join("src", "util") + os.sep):
            return
        for i, line in enumerate(code_lines, 1):
            for token in BANNED_SYNC:
                # Token must not be a prefix of a longer identifier
                # (std::mutex inside std::mutex_like).
                for m in re.finditer(re.escape(token), line):
                    end = m.end()
                    if end < len(line) and (line[end].isalnum() or line[end] == "_"):
                        continue
                    self.report(
                        path, i, "sync-wrappers",
                        f"naked {token}; use the annotated wrappers in "
                        "src/util/mutex.h (topkjoin::Mutex / MutexLock / "
                        "CondVar)")
                    break

    def check_no_test_sleep(self, path, code_lines):
        for i, line in enumerate(code_lines, 1):
            if SLEEP_RE.search(line):
                self.report(
                    path, i, "no-test-sleep",
                    "wall-clock sleep in a test; synchronize on a "
                    "CondVar/future/latch instead")

    def check_failpoint_gate(self, path, code_lines):
        rel = os.path.relpath(path, self.root)
        if rel in (os.path.join("src", "util", "failpoint.h"),
                   os.path.join("src", "util", "failpoint.cc")):
            return  # the definition site
        for i, line in enumerate(code_lines, 1):
            if "FailpointRegistry::Global" not in line:
                continue
            lo = max(0, i - 1 - GATE_WINDOW)
            window = code_lines[lo:i]
            if "kFailpointsEnabled" in line or any(
                    "kFailpointsEnabled" in w for w in window):
                continue
            self.report(
                path, i, "failpoint-gate",
                "failpoint evaluation not visibly gated on "
                "kFailpointsEnabled (gate within the preceding "
                f"{GATE_WINDOW} lines); default builds must compile "
                "failpoints out entirely")

    def check_include_guard(self, path, raw_lines):
        has_pragma = any(l.strip().startswith("#pragma once") for l in raw_lines)
        has_guard = False
        for j, l in enumerate(raw_lines):
            if l.strip().startswith("#ifndef") and j + 1 < len(raw_lines):
                if raw_lines[j + 1].strip().startswith("#define"):
                    has_guard = True
                    break
        if not (has_pragma or has_guard):
            self.report(path, 1, "include-guard",
                        "header has neither an include guard nor #pragma once")

    def check_include_paths(self, path, raw_lines):
        for i, line in enumerate(raw_lines, 1):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if m and (m.group(1).startswith("../") or m.group(1).startswith("./")):
                self.report(
                    path, i, "include-path",
                    f'relative include "{m.group(1)}"; use a repo-rooted '
                    'path ("src/..." / "tests/...")')

    def check_tsa_suppress(self, path, raw_lines):
        rel = os.path.relpath(path, self.root)
        if rel == os.path.join("src", "util", "thread_annotations.h"):
            return  # the definition site
        for i, line in enumerate(raw_lines, 1):
            if "NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            if re.search(r"#\s*define", line):
                continue
            lo = max(0, i - 1 - SAFETY_WINDOW)
            window = raw_lines[lo:i]
            if not any("SAFETY:" in w for w in window):
                self.report(
                    path, i, "tsa-suppress",
                    "NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                    "`SAFETY:` comment explaining why the suppression "
                    "is sound")

    # ----------------------------------------------------------- run

    def lint_file(self, path):
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        code_lines = strip_comments(raw).splitlines()

        rel = os.path.relpath(path, self.root)
        parts = rel.split(os.sep)
        in_tests = parts[0] == "tests"
        in_src = parts[0] == "src"

        self.check_sync_wrappers(path, code_lines)
        if in_tests:
            self.check_no_test_sleep(path, code_lines)
        if in_src:
            self.check_failpoint_gate(path, code_lines)
        if path.endswith(".h"):
            self.check_include_guard(path, raw_lines)
        self.check_include_paths(path, raw_lines)
        self.check_tsa_suppress(path, raw_lines)

    def run(self):
        for top in ("src", "tests"):
            for dirpath, _, files in sorted(os.walk(os.path.join(self.root, top))):
                for name in sorted(files):
                    if name.endswith(SOURCE_EXTS):
                        self.lint_file(os.path.join(dirpath, name))
        return self.violations


def self_test(repo_root):
    """Runs the linter over the known-bad fixtures and asserts every
    planted violation is caught (and that a clean fixture stays clean)."""
    fixture_root = os.path.join(repo_root, "tools", "lint_fixtures")
    linter = Linter(fixture_root)
    for dirpath, _, files in sorted(os.walk(fixture_root)):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTS):
                linter.lint_file(os.path.join(dirpath, name))
    got = {(rel, rule) for rel, _, rule, _ in linter.violations}

    j = os.path.join
    expected = {
        (j("src", "serving", "bad_sync.cc"), "sync-wrappers"),
        (j("tests", "bad_sleep_test.cc"), "no-test-sleep"),
        (j("src", "anyk", "bad_guard.h"), "include-guard"),
        (j("src", "anyk", "bad_include.h"), "include-path"),
        (j("src", "serving", "bad_suppress.h"), "tsa-suppress"),
        (j("src", "serving", "bad_failpoint.cc"), "failpoint-gate"),
    }
    clean = {j("src", "anyk", "good.h")}

    ok = True
    for want in sorted(expected):
        if want not in got:
            print(f"SELF-TEST FAIL: fixture violation not caught: {want}")
            ok = False
    for rel, _, rule, _ in linter.violations:
        if rel in clean:
            print(f"SELF-TEST FAIL: false positive [{rule}] in clean fixture {rel}")
            ok = False
    unexpected = got - expected
    for rel, rule in sorted(unexpected):
        if rel not in clean:
            print(f"SELF-TEST FAIL: unexpected violation [{rule}] in {rel}")
            ok = False
    if ok:
        print(f"self-test OK: {len(expected)} planted violations caught, "
              "clean fixture clean")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script's dir)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the known-bad fixtures and verify every "
                             "planted violation is caught")
    args = parser.parse_args()

    repo_root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return self_test(repo_root)

    violations = Linter(repo_root).run()
    for rel, line_no, rule, message in violations:
        print(f"{rel}:{line_no}: [{rule}] {message}")
    if violations:
        print(f"\n{len(violations)} invariant violation(s).")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
