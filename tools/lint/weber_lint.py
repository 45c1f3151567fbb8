#!/usr/bin/env python3
"""weber-lint: repo-specific static checks for the weber codebase.

Rules (see tools/lint/rules.md for rationale and examples):

  threads          std::thread / std::jthread / std::async only in
                   src/core/executor.*
  randomness       rand() / srand() / std::random_device / std::mt19937 /
                   std::time only in src/util/random.*
  metrics          every "weber.*" metric literal emitted by src/ must be
                   documented in DESIGN.md's metric catalog table
  using-namespace  no `using namespace std;` anywhere
  include-hygiene  every header under src/ compiles standalone
                   (g++ -fsyntax-only)
  indexed-access   in designated hot-path files, indexing with an
                   id/index-named variable needs a WEBER_[D]CHECK nearby or
                   an explicit `// lint: allow(indexed-access)` escape
  file-io          fopen/open/mmap/fstream only under src/storage/ (and
                   src/model/io.h) — every fsync/atomicity decision lives
                   in the durability layer; `// lint: allow(file-io)`
                   escapes with a reason
  socket-io        socket syscalls (::socket/::bind/::connect/...) and
                   <sys/socket.h>/<sys/un.h> only under src/serve/ — the
                   serving front end owns every network entry point;
                   `// lint: allow(socket-io)` escapes with a reason
  raw-sync         std::mutex / std::condition_variable / std::shared_mutex
                   (and their lock wrappers) only in src/util/sync.h — all
                   locking goes through the annotated weber::util types so
                   clang -Wthread-safety sees every acquisition;
                   `// lint: allow(raw-sync)` escapes with a reason
  hot-path-dedup   no std::unordered_set<EntityId / uint32_t> or IdPairSet
                   in src/serve/ and src/incremental/ — the ingest path
                   dedups candidates through util::StampSet;
                   `// lint: allow(hot-path-dedup)` escapes with a reason

Usage:
  tools/lint/weber_lint.py              lint the repo; exit 1 on findings
  tools/lint/weber_lint.py --fix        also append missing metric rows to
                                        DESIGN.md's catalog table
  tools/lint/weber_lint.py --self-test  seed one violation per rule in a
                                        scratch tree and assert each fires
  tools/lint/weber_lint.py --skip-compile
                                        skip the (slower) include-hygiene
                                        compiles

Stdlib-only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Files whose job is to own the banned construct.
THREAD_OWNERS = ("src/core/executor.h", "src/core/executor.cc")
RANDOM_OWNERS = ("src/util/random.h", "src/util/random.cc")
# The annotated sync layer wraps the raw primitives exactly once; every
# other acquisition goes through weber::util::{Mutex,MutexLock,CondVar} so
# the clang thread-safety analysis sees it.
SYNC_OWNERS = ("src/util/sync.h",)

# Where file I/O is sanctioned: the durability layer owns every
# fsync-ordering and atomicity decision (src/storage/file_io.* are the
# audited entry points), and model/io.h is the historical text-format
# reader. Everything else in src/ takes streams or bytes from callers.
FILE_IO_OWNER_PREFIXES = ("src/storage/", "src/model/io.h")

# Where socket I/O is sanctioned: the serving front end (UnixServer,
# ServeClient and the framed transport). Everything else in src/ speaks
# in-process types; network entry points concentrate where shutdown
# draining and typed overload are enforced.
SOCKET_IO_OWNER_PREFIXES = ("src/serve/",)

# Hot-path files where unchecked indexing has caused (or nearly caused)
# out-of-bounds reads; see rules.md.
INDEXED_ACCESS_FILES = (
    "src/util/intersect.h",
    "src/blocking/block.cc",
    "src/matching/signatures.cc",
    "src/metablocking/blocking_graph.cc",
)

THREAD_RE = re.compile(r"\bstd::(thread|jthread|async)\b")
RANDOM_RE = re.compile(
    r"(\b(rand|srand)\s*\(|\bstd::(random_device|mt19937(_64)?|time)\b)")
USING_STD_RE = re.compile(r"\busing\s+namespace\s+std\s*;")
METRIC_RE = re.compile(r'"(weber\.[a-z0-9_.]+)"')
CATALOG_ROW_RE = re.compile(r"^\|\s*`(weber\.[a-z0-9_.]+)`\s*\|")
ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")
INDEX_VAR_RE = re.compile(
    r"(?:\[\s*|\.at\(\s*)([A-Za-z_]*(?:id|idx|index)[A-Za-z_]*)\s*[\]\)]")
# C and C++ file-opening constructs. `\bopen\b` stays word-bounded so
# `is_open()` / `Open()` do not fire; stream types fire at the point of
# construction or .open() call alike.
FILE_IO_RE = re.compile(
    r"(\b(fopen|freopen|openat|creat|mmap)\s*\(|\bopen\s*\(|"
    r"\bstd::(i|o)?fstream\b|\bstd::filebuf\b)")
# Socket syscalls are matched with their global-scope `::` qualifier (the
# repo idiom for raw syscalls), which keeps common identifiers like a
# method named `connect` or `shutdown` from firing; the headers are
# matched outright.
SOCKET_IO_RE = re.compile(
    r"(::\s*(socket|socketpair|bind|listen|accept4?|connect|recv|recvfrom|"
    r"recvmsg|send|sendto|sendmsg|setsockopt|getsockopt|getsockname|"
    r"getpeername)\s*\(|#\s*include\s*<sys/(socket|un)\.h>)")
CHECK_NEAR_RE = re.compile(r"WEBER_D?CHECK")
# Raw synchronization primitives and the std lock wrappers that take them.
# Matching the wrappers too keeps a rogue `std::unique_lock<weber::...>`
# from smuggling an unannotated acquisition past the analysis.
RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")

# Hash-set candidate dedup on the per-entity ingest path. The serve and
# incremental layers dedup through one generation-stamped array
# (util::StampSet); a hash set there costs a probe and an allocation per
# candidate.
HOT_PATH_DEDUP_PREFIXES = ("src/serve/", "src/incremental/")
HOT_PATH_DEDUP_RE = re.compile(
    r"(\bstd::unordered_set\s*<\s*(?:(?:weber::)?model::)?"
    r"(?:EntityId|(?:std::)?uint32_t)\s*[,>]|\bIdPairSet\b)")

CATALOG_HEADER = "### Metric catalog"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replaces comment and string-literal contents with spaces, keeping
    newlines so line numbers survive. Rules then cannot be tripped (or
    silenced) by prose."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line | block | string | char
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
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def iter_files(root: str, subdirs, suffixes):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(tuple(suffixes)):
                    yield os.path.join(dirpath, name)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root)


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def allowed_lines(raw: str, rule: str):
    """Line numbers (1-based) carrying `// lint: allow(<rule>)`, which
    silence that rule on their own line and the next one."""
    allowed = set()
    for lineno, line in enumerate(raw.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m and m.group(1) == rule:
            allowed.add(lineno)
            allowed.add(lineno + 1)
    return allowed


def check_pattern_rule(root, files, regex, rule, owners, message):
    findings = []
    for path in files:
        r = rel(root, path)
        if r.replace(os.sep, "/") in owners:
            continue
        raw = read(path)
        allow = allowed_lines(raw, rule)
        stripped = strip_comments_and_strings(raw)
        for lineno, line in enumerate(stripped.splitlines(), 1):
            m = regex.search(line)
            if m and lineno not in allow:
                findings.append(Finding(r, lineno, rule,
                                        message.format(found=m.group(0))))
    return findings


def catalog_names(design_text: str):
    return {m.group(1) for line in design_text.splitlines()
            if (m := CATALOG_ROW_RE.match(line))}


def emitted_metrics(root, files):
    """Metric literals with one representative site each."""
    sites = {}
    for path in files:
        raw = read(path)
        for lineno, line in enumerate(raw.splitlines(), 1):
            for m in METRIC_RE.finditer(line):
                sites.setdefault(m.group(1), (rel(root, path), lineno))
    return sites


def check_metrics(root, files, fix=False):
    findings = []
    design_path = os.path.join(root, "DESIGN.md")
    if not os.path.exists(design_path):
        return [Finding("DESIGN.md", 1, "metrics", "DESIGN.md not found")]
    design = read(design_path)
    documented = catalog_names(design)
    if not documented:
        return [Finding("DESIGN.md", 1, "metrics",
                        f"no '{CATALOG_HEADER}' table rows found")]
    sites = emitted_metrics(root, files)
    missing = sorted(set(sites) - documented)
    for name in missing:
        path, lineno = sites[name]
        findings.append(Finding(
            path, lineno, "metrics",
            f"metric '{name}' is not documented in DESIGN.md's metric "
            "catalog"))
    stale = sorted(documented - set(sites))
    for name in stale:
        findings.append(Finding(
            "DESIGN.md", 1, "metrics",
            f"catalog documents '{name}' but nothing emits it"))
    if fix and missing:
        lines = design.splitlines(keepends=True)
        # Append after the last existing catalog row.
        last_row = max(i for i, line in enumerate(lines)
                       if CATALOG_ROW_RE.match(line))
        rows = [f"| `{name}` | _undocumented_ | TODO: describe |\n"
                for name in missing]
        lines[last_row + 1:last_row + 1] = rows
        with open(design_path, "w", encoding="utf-8") as f:
            f.writelines(lines)
        print(f"weber-lint: --fix appended {len(missing)} catalog row(s) to "
              "DESIGN.md (fill in the TODO descriptions)")
    return findings


def check_include_hygiene(root, compiler="g++"):
    """Each header under src/ must compile on its own: a consumer should
    never need to pre-include its dependencies."""
    findings = []
    if shutil.which(compiler) is None:
        return findings
    headers = sorted(iter_files(root, ["src"], [".h"]))
    with tempfile.TemporaryDirectory() as tmp:
        probe = os.path.join(tmp, "probe.cc")
        for path in headers:
            r = rel(root, path)
            include = r.replace(os.sep, "/")[len("src/"):]
            with open(probe, "w", encoding="utf-8") as f:
                f.write(f'#include "{include}"\n')
            proc = subprocess.run(
                [compiler, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(root, "src"), probe],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = proc.stderr.strip().splitlines()
                detail = first[0] if first else "compile failed"
                findings.append(Finding(
                    r, 1, "include-hygiene",
                    f"header does not compile standalone: {detail}"))
    return findings


def check_file_io(root, files):
    """File I/O must flow through the durability layer's audited entry
    points (src/storage/file_io.* and friends); scattered fopen/mmap calls
    are where fsync-ordering bugs hide."""
    scoped = [
        path for path in files
        if not rel(root, path).replace(os.sep, "/")
        .startswith(FILE_IO_OWNER_PREFIXES)]
    return check_pattern_rule(
        root, scoped, FILE_IO_RE, "file-io", (),
        "'{found}' outside src/storage/ and src/model/io.h — file I/O "
        "belongs to the durability layer (or add "
        "`// lint: allow(file-io)` with a reason)")


def check_socket_io(root, files):
    """Network entry points must live in the serving front end
    (src/serve/), where connection draining, typed overload and the frame
    protocol are enforced in one place."""
    scoped = [
        path for path in files
        if not rel(root, path).replace(os.sep, "/")
        .startswith(SOCKET_IO_OWNER_PREFIXES)]
    return check_pattern_rule(
        root, scoped, SOCKET_IO_RE, "socket-io", (),
        "'{found}' outside src/serve/ — socket I/O belongs to the serving "
        "front end (or add `// lint: allow(socket-io)` with a reason)")


def check_hot_path_dedup(root, files):
    """Candidate dedup on the per-entity ingest path goes through
    util::StampSet, not a hash set per entity or batch."""
    scoped = [
        path for path in files
        if rel(root, path).replace(os.sep, "/")
        .startswith(HOT_PATH_DEDUP_PREFIXES)]
    return check_pattern_rule(
        root, scoped, HOT_PATH_DEDUP_RE, "hot-path-dedup", (),
        "'{found}' in the serve/incremental ingest path — dedup candidates "
        "through util::StampSet (or add `// lint: allow(hot-path-dedup)` "
        "with a reason)")


def check_indexed_access(root):
    findings = []
    for r in INDEXED_ACCESS_FILES:
        path = os.path.join(root, r)
        if not os.path.exists(path):
            continue
        raw = read(path)
        allow = allowed_lines(raw, "indexed-access")
        lines = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(lines, 1):
            m = INDEX_VAR_RE.search(line)
            if m is None or lineno in allow:
                continue
            var = m.group(1)
            # A contract on the same line or within the preceding window
            # that names the variable counts as adjacent.
            window = lines[max(0, lineno - 11):lineno]
            guarded = any(
                CHECK_NEAR_RE.search(w)
                and re.search(rf"\b{re.escape(var)}\b", w)
                for w in window)
            if not guarded:
                findings.append(Finding(
                    r, lineno, "indexed-access",
                    f"index '{var}' is used without a nearby WEBER_[D]CHECK "
                    "bound (add one, or `// lint: allow(indexed-access)` "
                    "with a reason)"))
    return findings


def run_lint(root, fix=False, skip_compile=False):
    lib_files = sorted(iter_files(root, ["src"], [".h", ".cc"]))
    all_files = sorted(iter_files(
        root, ["src", "tests", "examples", "bench", "tools"],
        [".h", ".cc"]))
    findings = []
    findings += check_pattern_rule(
        root, lib_files, THREAD_RE, "threads", THREAD_OWNERS,
        "'{found}' outside src/core/executor.* — all parallelism must run "
        "on the shared executor")
    findings += check_pattern_rule(
        root, lib_files, RANDOM_RE, "randomness", RANDOM_OWNERS,
        "'{found}' outside src/util/random.* — all randomness must flow "
        "from the seeded util::Rng")
    findings += check_pattern_rule(
        root, lib_files, RAW_SYNC_RE, "raw-sync", SYNC_OWNERS,
        "'{found}' outside src/util/sync.h — lock through the annotated "
        "weber::util::{{Mutex,MutexLock,CondVar}} types so the clang "
        "thread-safety analysis sees the acquisition (or add "
        "`// lint: allow(raw-sync)` with a reason)")
    findings += check_pattern_rule(
        root, all_files, USING_STD_RE, "using-namespace", (),
        "'using namespace std' pollutes every including scope")
    findings += check_file_io(root, lib_files)
    findings += check_socket_io(root, lib_files)
    findings += check_hot_path_dedup(root, lib_files)
    findings += check_metrics(root, lib_files, fix=fix)
    if not skip_compile:
        findings += check_include_hygiene(root)
    findings += check_indexed_access(root)
    return findings


# ---------------------------------------------------------------------------
# Self-test: seed one violation per rule in a scratch tree and assert that
# exactly that rule fires on it.
# ---------------------------------------------------------------------------

SELF_TEST_SEEDS = {
    "threads": ("src/blocking/rogue.cc",
                "#include <thread>\nvoid f() { std::thread t([]{}); }\n"),
    "randomness": ("src/matching/rogue.cc",
                   "#include <cstdlib>\nint f() { return rand(); }\n"),
    "using-namespace": ("src/model/rogue.cc", "using namespace std;\n"),
    "metrics": ("src/obs/rogue.cc",
                'const char* k = "weber.rogue.undocumented";\n'),
    "include-hygiene": ("src/util/rogue.h",
                        "#ifndef R_H_\n#define R_H_\n"
                        "inline std::string f() { return {}; }\n"
                        "#endif\n"),
    "indexed-access": ("src/util/intersect.h",
                       "inline int Pick(const int* xs, int the_index) {\n"
                       "  return xs[the_index];\n}\n"),
    "file-io": ("src/eval/rogue.cc",
                "#include <fstream>\n"
                'void f() { std::ifstream in("leak.txt"); }\n'),
    "socket-io": ("src/eval/rogue_sock.cc",
                  "#include <sys/socket.h>\n"
                  "void f() { ::socket(1, 1, 0); }\n"),
    "raw-sync": ("src/core/rogue_sync.cc",
                 "#include <mutex>\n"
                 "std::mutex rogue_mu;\n"
                 "void f() { std::lock_guard<std::mutex> l(rogue_mu); }\n"),
    "hot-path-dedup": ("src/serve/rogue_dedup.cc",
                       "#include <unordered_set>\n"
                       "void f() { std::unordered_set<uint32_t> seen; }\n"),
}


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        with open(os.path.join(tmp, "DESIGN.md"), "w") as f:
            f.write(f"{CATALOG_HEADER}\n\n"
                    "| metric | kind | meaning |\n|---|---|---|\n"
                    "| `weber.ok.documented` | counter | fine |\n")
        with open(os.path.join(tmp, "src", "ok.cc"), "w") as f:
            f.write('const char* k = "weber.ok.documented";\n'
                    "// std::thread in a comment must not fire\n"
                    'const char* s = "prose about std::thread";\n')
        baseline = run_lint(tmp)
        if baseline:
            failures.append(
                f"clean scratch tree produced findings: {baseline[0]}")
        for rule, (relpath, content) in SELF_TEST_SEEDS.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(content)
            found = [f for f in run_lint(tmp) if f.rule == rule]
            if not found:
                failures.append(f"seeded {rule} violation was not detected")
            os.remove(path)
        # The allow-comment escape must silence indexed-access.
        path = os.path.join(tmp, "src/util/intersect.h")
        with open(path, "w") as f:
            f.write("inline int Pick(const int* xs, int the_index) {\n"
                    "  // lint: allow(indexed-access) bound checked by caller\n"
                    "  return xs[the_index];\n}\n")
        if any(f.rule == "indexed-access" for f in run_lint(tmp)):
            failures.append("allow(indexed-access) escape did not silence")
        os.remove(path)
        # ... and file-io; and the storage directory itself is sanctioned.
        path = os.path.join(tmp, "src/eval/rogue.cc")
        with open(path, "w") as f:
            f.write("#include <cstdio>\n"
                    "// lint: allow(file-io) reads its own proc stats\n"
                    'void f() { std::fopen("/proc/self/statm", "r"); }\n')
        owner = os.path.join(tmp, "src/storage/rogue.cc")
        os.makedirs(os.path.dirname(owner), exist_ok=True)
        with open(owner, "w") as f:
            f.write("#include <cstdio>\n"
                    'void g() { std::fopen("wal", "a"); }\n')
        if any(f.rule == "file-io" for f in run_lint(tmp)):
            failures.append("file-io allow/owner escapes did not silence")
        os.remove(path)
        os.remove(owner)
        # ... and raw-sync; the sync layer itself is sanctioned.
        path = os.path.join(tmp, "src/core/rogue_sync.cc")
        with open(path, "w") as f:
            f.write("#include <mutex>\n"
                    "// lint: allow(raw-sync) adapts a third-party callback\n"
                    "std::mutex escape_mu;\n")
        owner = os.path.join(tmp, "src/util/sync.h")
        os.makedirs(os.path.dirname(owner), exist_ok=True)
        with open(owner, "w") as f:
            f.write("#include <mutex>\n"
                    "struct M { std::mutex mu_; };\n")
        if any(f.rule == "raw-sync" for f in run_lint(tmp)):
            failures.append("raw-sync allow/owner escapes did not silence")
        os.remove(path)
        os.remove(owner)
        # ... and socket-io; the serve directory itself is sanctioned.
        path = os.path.join(tmp, "src/eval/rogue_sock.cc")
        with open(path, "w") as f:
            f.write("#include <cstdint>\n"
                    "// lint: allow(socket-io) probe of a local agent\n"
                    "void f() { ::socket(1, 1, 0); }\n")
        owner = os.path.join(tmp, "src/serve/rogue.cc")
        os.makedirs(os.path.dirname(owner), exist_ok=True)
        with open(owner, "w") as f:
            f.write("#include <sys/socket.h>\n"
                    "void g() { ::socket(1, 1, 0); }\n")
        if any(f.rule == "socket-io" for f in run_lint(tmp)):
            failures.append("socket-io allow/owner escapes did not silence")
        os.remove(path)
        os.remove(owner)
        # ... and hot-path-dedup; other directories are out of its scope.
        path = os.path.join(tmp, "src/incremental/rogue_dedup.cc")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("#include <unordered_set>\n"
                    "// lint: allow(hot-path-dedup) persistent tombstones\n"
                    "inline std::unordered_set<uint32_t> removed;\n"
                    "// lint: allow(hot-path-dedup) as above\n"
                    "inline std::unordered_set<model::EntityId> gone;\n")
        outside = os.path.join(tmp, "src/eval/rogue_dedup.cc")
        with open(outside, "w") as f:
            f.write("#include <unordered_set>\n"
                    "std::unordered_set<uint32_t> seen;\n")
        if any(f.rule == "hot-path-dedup" for f in run_lint(tmp)):
            failures.append("hot-path-dedup allow/scope escapes did not "
                            "silence")
        os.remove(path)
        os.remove(outside)
    for failure in failures:
        print(f"weber-lint: self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(f"weber-lint: self-test passed "
              f"({len(SELF_TEST_SEEDS)} rules verified)")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=REPO_ROOT)
    parser.add_argument("--fix", action="store_true",
                        help="append missing metric rows to DESIGN.md")
    parser.add_argument("--skip-compile", action="store_true",
                        help="skip include-hygiene compiles")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = run_lint(args.root, fix=args.fix,
                        skip_compile=args.skip_compile)
    for finding in findings:
        print(finding)
    if findings:
        print(f"weber-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("weber-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
