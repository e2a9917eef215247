#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Checked invariants (library code = everything under src/):

  header-guard     every header under src/ is guarded by
                   DAR_<PATH>_H_ derived from its path (src/birch/acf.h ->
                   DAR_BIRCH_ACF_H_), with a matching #define and a trailing
                   `#endif  // GUARD` comment.
  no-iostream      no std::cout / std::cerr / std::abort / abort() in
                   library code outside common/logging.h; the library
                   reports failures through Status/Result and fatal checks
                   through the DAR_CHECK macros.
  no-naked-new     no `new` / `delete` expressions in library code; use
                   std::make_unique / std::make_shared and containers
                   (`= delete` member declarations are fine).
  no-unseeded-rng  no rand()/srand(), std::random_device, or direct
                   std::mt19937 outside common/random.h; all randomness
                   flows through dar::Rng with an explicit seed so every
                   run is reproducible.
  no-raw-mutex     no std::mutex / std::shared_mutex / std::lock_guard /
                   std::unique_lock / std::scoped_lock / std::shared_lock /
                   std::condition_variable outside common/mutex.h; library
                   locking goes through dar::Mutex & friends, whose Clang
                   thread-safety capability annotations let the compiler
                   prove the locking discipline (raw std primitives are
                   invisible to the analysis).
  no-detached-thread
                   no std::thread::detach() in library code; a detached
                   thread outlives Stop()/join and escapes every shutdown
                   invariant the thread-safety annotations document. Keep
                   the handle and join it.
  no-lingering-deprecated
                   no [[deprecated]] symbols in library code outside
                   common/: this repo deletes an API in the release after
                   its replacement ships (migrating all callers in the same
                   change) instead of letting shims accrete. common/ is
                   allowlisted so a shared DAR_DEPRECATED macro could live
                   there during a migration window.
  test-registered  every tests/*_test.cc is registered with dar_add_test()
                   in tests/CMakeLists.txt (an unregistered test silently
                   never runs).
  unique-temp-path no `TempDir() + "..."` literal under tests/ outside
                   tests/test_util.h: gtest_discover_tests runs every TEST
                   as its own process, so a fixed file name under
                   testing::TempDir() collides under `ctest -j`. Use
                   testutil::TempPath(name), which prefixes the running
                   test and the process id.
  wire-in-codec    persist::WireReader / WireWriter appear under src/ only
                   in the codec files (persist/wire, checkpoint_io, codec,
                   persist_peer; serve/protocol, client, server): every
                   wire layout is a field list or a hand-written codec
                   there, so a record is never laid out twice.

Usage: tools/dar_lint.py [--root REPO_ROOT]

Prints one `path:line: [rule] message` per finding (sorted, deterministic)
and exits 1 when anything is found, 0 on a clean tree.
"""

import argparse
import pathlib
import re
import sys

# Files whose job is exactly the thing the rule bans elsewhere.
LOGGING_ALLOWLIST = {"src/common/logging.h"}
RNG_ALLOWLIST = {"src/common/random.h"}
MUTEX_ALLOWLIST = {"src/common/mutex.h"}
TEMP_PATH_ALLOWLIST = {"tests/test_util.h"}
DEPRECATED_ALLOWLIST_PREFIX = "src/common/"
WIRE_ALLOWLIST = {
    f"src/{name}" for name in (
        "persist/wire.h", "persist/wire.cc", "persist/checkpoint_io.cc",
        "persist/codec.h", "persist/codec.cc", "persist/persist_peer.h",
        "serve/protocol.h", "serve/protocol.cc", "serve/client.h",
        "serve/client.cc", "serve/server.cc")}

IOSTREAM_RE = re.compile(r"std::cout|std::cerr|(?<![\w:.])(?:std::)?abort\s*\(")
NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![\w.])delete(\[\])?\s+[A-Za-z_*(]|(?<![\w.])delete\[\]")
RNG_RE = re.compile(
    r"(?<![\w:.])(?:std::)?(?:rand|srand)\s*\(|std::random_device|std::mt19937")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
DEPRECATED_RE = re.compile(r"\[\[\s*(?:\w+\s*::\s*)?deprecated\b")
TEMP_PATH_RE = re.compile(r"\bTempDir\(\)\s*\+\s*\"")
WIRE_RE = re.compile(r"\bWire(?:Reader|Writer)\b")
GUARD_IF_RE = re.compile(r"^#ifndef\s+(\S+)\s*$")
GUARD_DEF_RE = re.compile(r"^#define\s+(\S+)\s*$")
GUARD_END_RE = re.compile(r"^#endif\s*//\s*(\S+)\s*$")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line breaks
    so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def expected_guard(rel_path):
    stem = re.sub(r"[./]", "_", str(rel_path.with_suffix("")))
    return f"DAR_{stem.upper()}_H_"


def check_header_guard(path, rel, text, findings):
    guard = expected_guard(rel.relative_to("src"))
    lines = text.splitlines()
    ifndef_line = None
    for i, line in enumerate(lines):
        if line.strip() and not line.lstrip().startswith("//"):
            ifndef_line = i
            break
    if ifndef_line is None:
        findings.append((rel, 1, "header-guard", f"empty header, expected guard {guard}"))
        return
    m = GUARD_IF_RE.match(lines[ifndef_line].strip())
    if not m or m.group(1) != guard:
        findings.append((rel, ifndef_line + 1, "header-guard",
                         f"first directive must be '#ifndef {guard}'"))
        return
    if ifndef_line + 1 >= len(lines):
        findings.append((rel, ifndef_line + 1, "header-guard",
                         f"missing '#define {guard}'"))
        return
    m = GUARD_DEF_RE.match(lines[ifndef_line + 1].strip())
    if not m or m.group(1) != guard:
        findings.append((rel, ifndef_line + 2, "header-guard",
                         f"second directive must be '#define {guard}'"))
        return
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].strip():
            m = GUARD_END_RE.match(lines[i].strip())
            if not m or m.group(1) != guard:
                findings.append((rel, i + 1, "header-guard",
                                 f"header must end with '#endif  // {guard}'"))
            return


def check_code_rules(rel, text, findings):
    rel_str = str(rel)
    code = strip_comments_and_strings(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        if rel_str not in LOGGING_ALLOWLIST:
            if IOSTREAM_RE.search(line):
                findings.append((rel, lineno, "no-iostream",
                                 "std::cout/std::cerr/abort are reserved for "
                                 "common/logging.h; return a Status or use "
                                 "DAR_CHECK"))
        if NEW_RE.search(line) or DELETE_RE.search(line):
            findings.append((rel, lineno, "no-naked-new",
                             "use std::make_unique/std::make_shared or a "
                             "container instead of new/delete"))
        if rel_str not in RNG_ALLOWLIST and RNG_RE.search(line):
            findings.append((rel, lineno, "no-unseeded-rng",
                             "use dar::Rng (common/random.h) with an "
                             "explicit seed"))
        if rel_str not in MUTEX_ALLOWLIST and RAW_MUTEX_RE.search(line):
            findings.append((rel, lineno, "no-raw-mutex",
                             "use dar::Mutex/dar::SharedMutex with "
                             "dar::MutexLock/ReaderLock/CondVar "
                             "(common/mutex.h) so the Clang thread-safety "
                             "analysis can check the locking"))
        if DETACH_RE.search(line):
            findings.append((rel, lineno, "no-detached-thread",
                             "detached threads escape every shutdown/join "
                             "path; keep the std::thread handle and join "
                             "it (see RuleServer::ReapFinished)"))
        if (not rel_str.startswith(DEPRECATED_ALLOWLIST_PREFIX)
                and DEPRECATED_RE.search(line)):
            findings.append((rel, lineno, "no-lingering-deprecated",
                             "delete the deprecated symbol and migrate its "
                             "callers instead of shipping a shim; this repo "
                             "removes an API in the release after its "
                             "replacement lands"))
        if rel_str not in WIRE_ALLOWLIST and WIRE_RE.search(line):
            findings.append((rel, lineno, "wire-in-codec",
                             "wire layouts live in the codec files "
                             "(persist/codec.cc, serve/protocol.cc); add a "
                             "field list there instead of reading or "
                             "writing wire bytes here"))


def check_tests_registered(root, findings):
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.is_file():
        return
    registered = set(re.findall(r"dar_add_test\(\s*(\w+)", cmake.read_text()))
    for test in sorted((root / "tests").glob("*_test.cc")):
        if test.stem not in registered:
            findings.append((test.relative_to(root), 1, "test-registered",
                             f"add 'dar_add_test({test.stem})' to "
                             "tests/CMakeLists.txt or the test never runs"))


def check_temp_paths(root, findings):
    tests = root / "tests"
    for path in sorted(tests.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        rel = path.relative_to(root)
        if str(rel) in TEMP_PATH_ALLOWLIST:
            continue
        text = path.read_text()
        # The literal itself is blanked in the stripped view, so match the
        # raw line and use the stripped one (same columns) to skip matches
        # inside comments and strings.
        code = strip_comments_and_strings(text).splitlines()
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = TEMP_PATH_RE.search(line)
            if m and code[lineno - 1][m.start()] == "T":
                findings.append((rel, lineno, "unique-temp-path",
                                 "fixed file names under testing::TempDir() "
                                 "collide under ctest -j; use "
                                 "testutil::TempPath (tests/test_util.h)"))


def run(root):
    findings = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        rel = path.relative_to(root)
        text = path.read_text()
        if path.suffix == ".h":
            check_header_guard(path, rel, text, findings)
        check_code_rules(rel, text, findings)
    check_tests_registered(root, findings)
    check_temp_paths(root, findings)
    findings.sort(key=lambda f: (str(f[0]), f[1], f[2]))
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    return 1 if findings else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root to lint (default: this repo)")
    args = parser.parse_args()
    status = run(args.root.resolve())
    if status == 0:
        print("dar_lint: clean", file=sys.stderr)
    sys.exit(status)


if __name__ == "__main__":
    main()
