#!/usr/bin/env python3
"""orx_lint: repo-specific correctness lint for ORX.

Checks invariants the compiler cannot (or that -Wall only covers half
of):

  status-discard  `(void)Foo(...)` casts of *calls* are banned everywhere.
                  Status/StatusOr are [[nodiscard]]; the one sanctioned
                  way to drop an error is orx::IgnoreError(Foo(...)),
                  which reads as a decision and is greppable. ((void)var
                  of an already-materialized variable is fine.)
  fp-contract     The power-iteration kernel TUs (graph/spmv_layout.cc,
                  core/objectrank.cc) must keep -ffp-contract=off in
                  src/CMakeLists.txt - the batch-vs-single bit-identity
                  guarantee dies silently if the property is dropped.
  no-rand         rand()/std::rand() are banned (not reproducible, not
                  thread-safe); use common/rng.h.
  naked-new       `new`/`delete` expressions in src/ outside the two
                  sanctioned shapes: the static leaky-singleton idiom
                  (`static ... = *new T(...)` / `static T* x = new T`,
                  which deliberately never destructs), and allocator
                  machinery spelled through `::operator new/delete`.
                  Everything else must use containers or smart pointers.
  include-guard   src/ headers must guard with ORX_<PATH>_H_ (e.g.
                  src/graph/validate.h -> ORX_GRAPH_VALIDATE_H_), so
                  guards never collide after a file move.
  raw-mutex       std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable (and friends) are banned in
                  src/ outside common/mutex.{h,cc}: every lock goes
                  through the annotated orx::Mutex layer so the Clang
                  thread-safety analysis and the runtime lock-order
                  validator see it.
  detached-thread std::thread construction is banned in src/ and tools/
                  outside common/thread_pool.{h,cc} (use the pool, or
                  allowlist the sanctioned long-lived service threads),
                  and .detach() is banned everywhere scanned — a
                  detached thread outlives every shutdown contract.
                  (std::thread::id / std::this_thread are fine.)
  hardware-concurrency
                  std::thread::hardware_concurrency and get_nprocs are
                  banned everywhere scanned outside
                  common/thread_pool.cc: glibc re-reads sysfs on each
                  call, so the count is read once per process there and
                  everyone else asks ThreadPool::HardwareThreads().

Allowlist: tools/orx_lint_allow.txt, one entry per line:
    <rule> <path-suffix>[ <substring>]
suppresses findings of <rule> in files whose path ends with
<path-suffix>; with <substring>, only findings whose line contains it.
Blank lines and # comments are ignored.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
--self-test feeds known-bad snippets through every checker and fails if
any goes undetected (guards against the linter rotting into a no-op).
"""

import argparse
import os
import re
import sys

KERNEL_TUS = ("graph/spmv_layout.cc", "core/objectrank.cc")

# (void) cast directly applied to a call: `(void)Foo(`, `(void) obj.Bar(`,
# `(void)ns::Baz(`. A cast of a bare variable has no following '('.
STATUS_DISCARD_RE = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][A-Za-z0-9_]*(?:(?:::|\.|->)[A-Za-z_][A-Za-z0-9_]*)*\s*\(")

RAND_RE = re.compile(r"(?:\bstd::rand\b|(?<![A-Za-z0-9_.])rand\s*\(\s*\))")

NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")

GUARD_RE = re.compile(r"^#ifndef\s+([A-Z0-9_]+)\s*$", re.MULTILINE)

# The raw synchronization vocabulary the orx::Mutex layer replaces.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")
RAW_MUTEX_EXEMPT = ("src/common/mutex.h", "src/common/mutex.cc")

# `std::thread t(...)` but not `std::thread::id` / `std::thread::
# hardware_concurrency` (scope-resolution uses are queries, not spawns).
THREAD_SPAWN_RE = re.compile(r"\bstd::thread\b(?!\s*::)")
THREAD_SPAWN_EXEMPT = ("src/common/thread_pool.h", "src/common/thread_pool.cc")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")

# The hardware thread count queries whose glibc answer is a sysfs read.
HARDWARE_CONCURRENCY_RE = re.compile(
    r"\bstd::thread::hardware_concurrency\b|\bget_nprocs(?:_conf)?\b")
HARDWARE_CONCURRENCY_EXEMPT = ("src/common/thread_pool.cc",)


def strip_comments_and_strings(line):
    """Blanks out // comments and string/char literals so banned tokens
    inside them don't count. Line-local (block comments spanning lines are
    rare in this codebase and /// docs are caught by the // rule)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] in "/*":
            if line[i + 1] == "/":
                break  # rest is a // comment
            # /* ... */ within one line; if unterminated, drop the rest.
            end = line.find("*/", i + 2)
            if end == -1:
                break
            i = end + 2
            continue
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, lineno, line, message):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.line = line
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.lineno}" if self.lineno else self.path
        return f"{loc}: [{self.rule}] {self.message}\n    {self.line.strip()}"


def check_status_discard(path, text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if STATUS_DISCARD_RE.search(line):
            yield Finding(
                "status-discard", path, lineno, raw,
                "(void)-cast of a call discards its result invisibly; "
                "use orx::IgnoreError(...) if dropping it is deliberate")


def check_no_rand(path, text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if RAND_RE.search(line):
            yield Finding(
                "no-rand", path, lineno, raw,
                "rand()/std::rand() is banned (irreproducible, not "
                "thread-safe); use orx::Rng from common/rng.h")


def check_naked_new(path, text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if line.lstrip().startswith("#"):
            continue  # preprocessor (`#include <new>` is not an expression)
        if NEW_RE.search(line):
            allowed = (
                "operator new" in line
                or "*new" in line.replace("* new", "*new")
                or ("static" in line and "= new" in line.replace("=new", "= new"))
                or "placement new" in line
            )
            if not allowed:
                yield Finding(
                    "naked-new", path, lineno, raw,
                    "naked `new` outside the static leaky-singleton idiom; "
                    "use a container or std::make_unique/make_shared")
        if DELETE_RE.search(line):
            allowed = (
                "operator delete" in line
                or "= delete" in line.replace("=delete", "= delete")
            )
            if not allowed:
                yield Finding(
                    "naked-new", path, lineno, raw,
                    "naked `delete`; owning raw pointers are banned in src/")


def check_raw_mutex(path, text):
    if path in RAW_MUTEX_EXEMPT:
        return
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if line.lstrip().startswith("#"):
            continue  # `#include <mutex>` inside common/mutex.h etc.
        if RAW_MUTEX_RE.search(line):
            yield Finding(
                "raw-mutex", path, lineno, raw,
                "raw std:: synchronization in src/; use orx::Mutex / "
                "orx::MutexLock / orx::CondVar from common/mutex.h so the "
                "thread-safety analysis and lock-order validator cover it")


def check_detached_thread(path, text, ban_spawn):
    exempt_spawn = path in THREAD_SPAWN_EXEMPT
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comments_and_strings(raw)
        if line.lstrip().startswith("#"):
            continue
        if ban_spawn and not exempt_spawn and THREAD_SPAWN_RE.search(line):
            yield Finding(
                "detached-thread", path, lineno, raw,
                "std::thread outside common/thread_pool; submit to a "
                "ThreadPool, or allowlist a sanctioned long-lived service "
                "thread in tools/orx_lint_allow.txt")
        if DETACH_RE.search(line):
            yield Finding(
                "detached-thread", path, lineno, raw,
                ".detach() is banned: a detached thread outlives every "
                "shutdown/drain contract; keep the handle and join it")


def check_hardware_concurrency(path, text):
    if path in HARDWARE_CONCURRENCY_EXEMPT:
        return
    for lineno, raw in enumerate(text.splitlines(), 1):
        if HARDWARE_CONCURRENCY_RE.search(strip_comments_and_strings(raw)):
            yield Finding(
                "hardware-concurrency", path, lineno, raw,
                "hardware thread count read outside common/thread_pool.cc "
                "(glibc re-reads sysfs per call); use "
                "ThreadPool::HardwareThreads(), read once per process")


def expected_guard(rel_path):
    # src/graph/validate.h -> ORX_GRAPH_VALIDATE_H_
    inner = rel_path[len("src/"):] if rel_path.startswith("src/") else rel_path
    stem = inner[:-2] if inner.endswith(".h") else inner
    return "ORX_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guard(path, text, rel_path):
    match = GUARD_RE.search(text)
    want = expected_guard(rel_path)
    if not match:
        yield Finding("include-guard", path, 1, text.splitlines()[0] if text else "",
                      f"header has no #ifndef include guard (want {want})")
        return
    got = match.group(1)
    if got != want:
        yield Finding("include-guard", path,
                      text[:match.start()].count("\n") + 1, match.group(0),
                      f"include guard {got} does not match path (want {want})")
    if f"#define {got}" not in text:
        yield Finding("include-guard", path, 1, match.group(0),
                      f"guard {got} is never #defined")


def check_fp_contract(root):
    """The kernel TUs' bit-identity promise requires -ffp-contract=off as
    a source-file property in src/CMakeLists.txt."""
    path = os.path.join(root, "src", "CMakeLists.txt")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        yield Finding("fp-contract", path, 0, "", "src/CMakeLists.txt not readable")
        return
    for block_match in re.finditer(
            r"set_source_files_properties\s*\(([^)]*)\)", text, re.DOTALL):
        block = block_match.group(1)
        if "-ffp-contract=off" in block and "COMPILE_OPTIONS" in block:
            missing = [tu for tu in KERNEL_TUS if tu not in block]
            for tu in missing:
                yield Finding(
                    "fp-contract", path,
                    text[:block_match.start()].count("\n") + 1, block_match.group(0).splitlines()[0],
                    f"kernel TU {tu} is missing from the -ffp-contract=off "
                    "property (its kernels would silently lose bit-identity)")
            return
    yield Finding(
        "fp-contract", path, 0, "",
        "no set_source_files_properties(... COMPILE_OPTIONS \"-ffp-contract=off\") "
        f"block found; kernel TUs {KERNEL_TUS} require it")


def load_allowlist(root):
    entries = []
    path = os.path.join(root, "tools", "orx_lint_allow.txt")
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                print(f"orx_lint: malformed allowlist entry: {line!r}",
                      file=sys.stderr)
                sys.exit(2)
            rule, suffix = parts[0], parts[1]
            substring = parts[2] if len(parts) > 2 else None
            entries.append((rule, suffix, substring))
    return entries


def allowed(finding, allowlist):
    for rule, suffix, substring in allowlist:
        if rule != finding.rule:
            continue
        if not finding.path.replace(os.sep, "/").endswith(suffix):
            continue
        if substring is not None and substring not in finding.line:
            continue
        return True
    return False


def iter_source_files(root):
    scan_dirs = ("src", "tools", "tests", "fuzz", "bench", "examples")
    exts = (".h", ".cc", ".cpp")
    for scan in scan_dirs:
        top = os.path.join(root, scan)
        if not os.path.isdir(top):
            continue
        for dirpath, _, filenames in os.walk(top):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def lint_tree(root):
    findings = []
    for path in iter_source_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as err:
            findings.append(Finding("io", path, 0, "", str(err)))
            continue
        findings.extend(check_status_discard(rel, text))
        findings.extend(check_no_rand(rel, text))
        # .detach() is banned in every scanned dir; bare std::thread only
        # in src/ and tools/ (tests spawn scenario threads legitimately).
        findings.extend(check_detached_thread(
            rel, text,
            ban_spawn=rel.startswith("src/") or rel.startswith("tools/")))
        findings.extend(check_hardware_concurrency(rel, text))
        if rel.startswith("src/"):
            findings.extend(check_raw_mutex(rel, text))
            findings.extend(check_naked_new(rel, text))
            if rel.endswith(".h"):
                findings.extend(check_include_guard(rel, text, rel))
    findings.extend(check_fp_contract(root))
    return findings


def self_test():
    """Every rule must flag its canonical bad snippet and pass its good
    twin; a checker that stops firing is worse than no checker."""
    cases = [
        # (checker-lambda, bad snippet, good snippet)
        (lambda t: list(check_status_discard("x.cc", t)),
         "  (void)DoThing(arg);\n",
         "  orx::IgnoreError(DoThing(arg));\n  (void)unused_var;\n"),
        (lambda t: list(check_status_discard("x.cc", t)),
         "  (void) obj->Save(path);\n",
         "  // (void)InComment();\n  s = \"(void)InString()\";\n"),
        (lambda t: list(check_no_rand("x.cc", t)),
         "  int x = std::rand();\n",
         "  orx::Rng rng(7); rng.Next();\n"),
        (lambda t: list(check_no_rand("x.cc", t)),
         "  seed = rand();\n",
         "  value = grand();\n  b = brand(1);\n"),
        (lambda t: list(check_naked_new("src/x.cc", t)),
         "  auto* p = new Widget();\n",
         "  static auto& w = *new Widget();\n"),
        (lambda t: list(check_naked_new("src/x.cc", t)),
         "  delete ptr;\n",
         "  Widget(const Widget&) = delete;\n"
         "  ::operator delete(p, std::align_val_t(64));\n"),
        (lambda t: list(check_include_guard("src/graph/thing.h", t,
                                            "src/graph/thing.h")),
         "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n",
         "#ifndef ORX_GRAPH_THING_H_\n#define ORX_GRAPH_THING_H_\n#endif\n"),
        (lambda t: list(check_raw_mutex("src/x.cc", t)),
         "  std::lock_guard<std::mutex> lock(mu_);\n",
         "  orx::MutexLock lock(mu_);\n  // std::mutex in a comment\n"),
        (lambda t: list(check_raw_mutex("src/x.h", t)),
         "  std::condition_variable cv_;\n  std::unique_lock<std::mutex> l;\n",
         "  orx::CondVar cv_;\n  orx::Mutex mu_;\n#include <mutex>\n"),
        # The wrapper's own implementation files may use the raw
        # vocabulary (None = no bad half: nothing should fire there).
        (lambda t: list(check_raw_mutex("src/common/mutex.cc", t)),
         None,
         "  std::mutex mu_;\n  std::unique_lock<std::mutex> lock(mu.mu_);\n"),
        (lambda t: list(check_detached_thread("src/x.cc", t, True)),
         "  std::thread t([] {});\n",
         "  std::thread::id id = std::this_thread::get_id();\n"
         "  n = std::thread::hardware_concurrency();\n"),
        (lambda t: list(check_detached_thread("tests/x.cc", t, False)),
         "  worker.detach();\n",
         "  std::thread t([] {});\n  t.join();\n"),
        (lambda t: list(check_hardware_concurrency("bench/x.cc", t)),
         "  n = std::thread::hardware_concurrency();\n",
         "  n = ThreadPool::HardwareThreads();\n"
         "  // std::thread::hardware_concurrency in a comment\n"),
        (lambda t: list(check_hardware_concurrency("tests/x.cc", t)),
         "  int cpus = get_nprocs();\n",
         "#include <sys/sysinfo.h>\n  s = \"get_nprocs\";\n"),
        # The one sanctioned reader (None = no bad half).
        (lambda t: list(check_hardware_concurrency(
            "src/common/thread_pool.cc", t)),
         None,
         "  static const size_t count = std::thread::hardware_concurrency();\n"),
    ]
    failures = 0
    for i, (checker, bad, good) in enumerate(cases):
        if bad is not None and not checker(bad):
            print(f"self-test case {i}: BAD snippet not flagged:\n{bad}")
            failures += 1
        hits = checker(good) if good is not None else []
        if hits:
            print(f"self-test case {i}: GOOD snippet flagged:\n"
                  + "\n".join(str(h) for h in hits))
            failures += 1
    if failures:
        print(f"orx_lint self-test: {failures} failure(s)")
        return 1
    print(f"orx_lint self-test: {len(cases)} cases OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the linter's "
                             "grandparent directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule self-test and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    allowlist = load_allowlist(root)
    findings = [f for f in lint_tree(root) if not allowed(f, allowlist)]
    for finding in findings:
        print(finding)
    if findings:
        print(f"orx_lint: {len(findings)} finding(s)")
        sys.exit(1)
    print("orx_lint: clean")
    sys.exit(0)


if __name__ == "__main__":
    main()
