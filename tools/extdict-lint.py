#!/usr/bin/env python3
"""extdict-lint: ExtDict house-invariant static checks.

Enforces project rules the generic .clang-tidy configuration cannot express:

  naked-sync-primitive   std::mutex / std::condition_variable (and friends,
                         including their headers) may appear only in
                         src/util/sync.hpp. Everything else uses the
                         annotated wrappers so the locking protocol stays
                         visible to -Wthread-safety.

  missing-shape-contract every public kernel entry in src/la/,
                         src/sparsecoding/ and src/solvers/ (a non-helper
                         function taking a Matrix / CscMatrix / span /
                         Vector) calls
                         EXTDICT_REQUIRE_SHAPE before its first loop touches
                         the data. Waive intentionally shape-free entries
                         with `// extdict-lint: allow(missing-shape-contract)
                         <reason>` on the line above the definition.

  hot-loop-allocation    loops guarded by EXTDICT_HOT_ASSERT are the
                         measured hot paths; heap allocation inside them
                         (push_back, resize, std::string, new, ...) is a
                         perf bug. The assert's own detail argument is
                         exempt — it only evaluates on failure.

  cpp-include            no `#include` of a .cpp file; internal translation
                         units are not headers.

  trace-in-hot-path      src/la/ and src/sparsecoding/ are the measured
                         inner-loop kernels: even a disabled TraceScope /
                         TraceRecorder call costs an atomic load per
                         invocation, which multiplied by per-element call
                         rates is measurable. Trace at the phase level
                         (core/, dist/, solvers/) instead, or waive with
                         `// extdict-lint: allow(trace-in-hot-path) <reason>`.

  omp-default-none       every `#pragma omp parallel ...` directive must
                         carry default(none) so each variable's sharing is
                         an explicit decision. This is the fast text-level
                         gate; tools/extdict-analyze.py's omp-sharing rule
                         does the whole-program race verification on top.

  metric-name-style      string literals handed to metric and trace entry
                         points (counter, add, gauge, span, observe,
                         histogram, instant, TraceScope, ...) must be lowercase
                         dot-paths: [a-z0-9_]+ segments joined by single
                         dots (docs/OBSERVABILITY.md §1). Snapshots sort
                         keys lexicographically, so one CamelCase name
                         breaks the subsystem grouping every dashboard and
                         diff relies on.

  per-column-encode-loop an `omp parallel` region outside src/sparsecoding/
                         must not call `.encode(` per column: Alg. 1's
                         per-thread block encode (one Dᵀ·X product per
                         block, reused workspace) is
                         `BatchOmp::encode_columns` / `encode_all`. A
                         hand-rolled loop of single encodes pays one gemv_t
                         and a fresh workspace per column.

  orphan-module          every src/ header must be included by another
                         src/ file or by bench/, not only by tests/,
                         examples/ and its own .cpp. A module only tests or
                         demos reach serves no figure, table or workload: a
                         second implementation or a test oracle shipped in
                         the library. Delete it, move an oracle to
                         tests/support/, or waive the header's `#pragma once`
                         line with the paper claim or tool it serves. Tree
                         scans only: the rule needs every includer, so file
                         arguments skip it.

Usage:
  tools/extdict-lint.py [--root DIR]        # scan the tree (default: repo)
  tools/extdict-lint.py FILE [FILE...]      # scan specific files
  tools/extdict-lint.py --self-test         # run on tests/lint_fixtures/

Self-test fixtures are single files under tests/lint_fixtures/, plus whole
trees under tests/lint_fixtures/trees/<name>/ (a src/ + tests/ + ... layout
scanned like a repository, for the tree-level rules). Every fixture file
declares its expected rules with an `extdict-lint-expect:` comment.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
Waivers: `// extdict-lint: allow(<rule>) <reason>` on the offending line or
the line directly above it.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULE_SYNC = "naked-sync-primitive"
RULE_SHAPE = "missing-shape-contract"
RULE_HOT_ALLOC = "hot-loop-allocation"
RULE_CPP_INCLUDE = "cpp-include"
RULE_TRACE = "trace-in-hot-path"
RULE_OMP_DEFAULT = "omp-default-none"
RULE_METRIC_NAME = "metric-name-style"
RULE_ORPHAN = "orphan-module"
RULE_ENCODE_LOOP = "per-column-encode-loop"

ALL_RULES = (RULE_SYNC, RULE_SHAPE, RULE_HOT_ALLOC, RULE_CPP_INCLUDE,
             RULE_TRACE, RULE_OMP_DEFAULT, RULE_METRIC_NAME, RULE_ORPHAN,
             RULE_ENCODE_LOOP)

# Directories whose files are per-element hot kernels: no tracing there.
TRACE_FORBIDDEN_PREFIXES = ("src/la/", "src/sparsecoding/")

TRACE_USE_RE = re.compile(r"\b(?:util::)?Trace(?:Scope|Recorder)\b")

# The one translation unit allowed to touch the raw primitives.
SYNC_ALLOWED = ("src/util/sync.hpp",)

SYNC_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"(?:mutex|condition_variable(?:_any)?)\b"
)
SYNC_HEADER_RE = re.compile(r"^(?:mutex|condition_variable|shared_mutex)$")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^<>"]+)[>"]')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

# Includers that do not make a src/ module live: tests check it, examples
# only demonstrate it.
NON_CALLER_PREFIXES = ("tests/", "examples/")

WAIVER_RE = re.compile(r"extdict-lint:\s*allow\(([\w-]+)\)")

# Dimensioned parameter types that make a function a "kernel entry".
DIM_PARAM_RE = re.compile(
    r"(?:\bMatrix\s*[&*]|\bCscMatrix\s*[&*]|\bspan\s*<|\bVector\s*[&*])"
)

REQUIRE_SHAPE_RE = re.compile(r"\bEXTDICT_REQUIRE_SHAPE\s*\(")
LOOP_RE = re.compile(r"\b(?:for|while)\s*\(")

ALLOC_PATTERNS = (
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\.\s*push_back\s*\("), "push_back"),
    (re.compile(r"\.\s*emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.\s*resize\s*\("), "resize"),
    (re.compile(r"\.\s*reserve\s*\("), "reserve"),
    (re.compile(r"\bmake_unique\s*<"), "make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "make_shared"),
    (re.compile(r"\bstd::string\s*[({]"), "std::string construction"),
    (re.compile(r"\bto_string\s*\("), "to_string"),
    (re.compile(r"\bstd::vector\s*<[^;{}]*>\s+\w+\s*[({;]"), "local std::vector"),
)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "do", "else"}

# Only `parallel` directives take a default clause; a nested `#pragma omp
# for` inherits the enclosing region's data-sharing rules.
OMP_PARALLEL_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+parallel\b")
DEFAULT_NONE_RE = re.compile(r"\bdefault\s*\(\s*none\s*\)")

# The sparse coder's own files hold the block encode itself.
ENCODE_LOOP_ALLOWED_PREFIX = "src/sparsecoding/"
ENCODE_CALL_RE = re.compile(r"(?:\.|->)\s*encode\s*\(")

# MetricsRegistry and TraceRecorder entry points whose first argument is the
# metric or event name.
METRIC_CALL_RE = re.compile(
    r"\b(?:counter|add|update_max|value|span|record_span|span_seconds"
    r"|span_count|gauge|distribution|observe|histogram|instant|TraceScope)"
    r"\s*\(\s*\"([^\"]*)\""
)
# A named TraceScope whose name literal comes first or after one leading
# argument (the recorder, or the span handle of the span form).
TRACE_SCOPE_RE = re.compile(
    r"\bTraceScope\s+\w+\s*[({]\s*(?:[\w:.]+(?:\([^()]*\)[\w:.]*)*\s*,\s*)?"
    r"\"([^\"]*)\""
)
# Lowercase dot-path: [a-z0-9_]+ segments joined by single dots. Names built
# by concatenation (`"trace.events.rank" + ...`) are checked on their literal
# prefix, which must already be well-formed.
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(?:\.[a-z0-9_]+)*$")


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def mask_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Replaces comment and string/char-literal contents with spaces.

    Same length as the input (newlines preserved), so offsets and line
    numbers map 1:1 onto the original file. With keep_strings, literal
    contents survive (only comments are blanked) — for rules that inspect
    the literals themselves, like metric-name-style.
    """
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "string"
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                if not keep_strings:
                    out[i] = " "
                    if nxt != "\n":
                        out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = "code"
            elif c != "\n" and not keep_strings:
                out[i] = " "
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def waived_lines(text: str) -> dict[int, set[str]]:
    """Maps line number -> rules waived on that line (raw text: comments)."""
    waivers: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in WAIVER_RE.finditer(line):
            waivers.setdefault(lineno, set()).add(m.group(1))
    return waivers


def is_waived(waivers: dict[int, set[str]], line: int, rule: str) -> bool:
    for probe in (line, line - 1):
        if rule in waivers.get(probe, set()):
            return True
    return False


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] == '{'. -1 if none."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def anonymous_namespace_spans(masked: str) -> list[tuple[int, int]]:
    spans = []
    for m in re.finditer(r"\bnamespace\s*\{", masked):
        end = match_brace(masked, m.end() - 1)
        if end > 0:
            spans.append((m.start(), end))
    return spans


def function_definitions(masked: str):
    """Yields (header_start, name, params, body_start, body_end).

    Heuristic scanner good enough for this codebase's .cpp style: walks every
    '{', reconstructs the preceding "header" back to the last ; { or }, and
    keeps the ones shaped like `qualified_name(params) [qualifiers] {`.
    """
    for m in re.finditer(r"\{", masked):
        open_idx = m.start()
        header_start = max(
            masked.rfind(";", 0, open_idx),
            masked.rfind("{", 0, open_idx),
            masked.rfind("}", 0, open_idx),
        ) + 1
        header = masked[header_start:open_idx]
        if "(" not in header or ")" not in header:
            continue
        stripped = header.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if re.search(r"\b(?:namespace|class|struct|enum|union)\b", header):
            continue
        if "=" in header.split("(", 1)[0]:
            continue  # assignment / initialisation, not a definition
        # Find the parameter list: the first top-level (...) group after the
        # function name (initialiser lists come after ')' and ':').
        paren = header.find("(")
        depth, close = 0, -1
        for i in range(paren, len(header)):
            if header[i] == "(":
                depth += 1
            elif header[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close < 0:
            continue
        name_m = re.search(r"([A-Za-z_~][\w]*(?:\s*::\s*[A-Za-z_~][\w]*)*)\s*$",
                           header[:paren])
        if not name_m:
            continue
        name = re.sub(r"\s+", "", name_m.group(1))
        last = name.split("::")[-1].lstrip("~")
        if last in CONTROL_KEYWORDS:
            continue
        tail = header[close + 1:]
        # A definition's tail holds only qualifiers / an initialiser list.
        if not re.fullmatch(
            r"(?:\s|const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+"
            r"|\[\[[^\]]*\]\]|EXTDICT_\w+\s*\([^)]*\)|EXTDICT_\w+"
            r"|:\s*.*)*",
            tail,
            re.S,
        ):
            continue
        body_end = match_brace(masked, open_idx)
        if body_end < 0:
            continue
        yield header_start, name, header[paren + 1:close], open_idx + 1, body_end - 1


def omp_parallel_bodies(masked: str):
    """Yields (pragma_line, body) for each `#pragma omp parallel` directive:
    the statement the directive applies to (a `for` loop or a block)."""
    for m in re.finditer(r"^[ \t]*#[ \t]*pragma[ \t]+omp[ \t]+parallel\b.*$",
                         masked, re.M):
        end = m.end()
        while masked[m.start():end].rstrip().endswith("\\"):
            nl = masked.find("\n", end + 1)
            end = len(masked) if nl < 0 else nl
        i = end
        while i < len(masked) and masked[i].isspace():
            i += 1
        if masked.startswith("for", i):
            paren = masked.find("(", i)
            depth, j = 0, paren
            while j < len(masked):
                depth += {"(": 1, ")": -1}.get(masked[j], 0)
                j += 1
                if depth == 0:
                    break
            i = j
            while i < len(masked) and masked[i].isspace():
                i += 1
        if i < len(masked) and masked[i] == "{":
            close = match_brace(masked, i)
            body = masked[i:close if close > 0 else len(masked)]
        else:
            semi = masked.find(";", i)
            body = masked[i:semi if semi >= 0 else len(masked)]
        yield line_of(masked, m.start()), body


def innermost_hot_loops(masked: str):
    """Yields (loop_start, body_start, body_end) for the innermost loops
    containing an EXTDICT_HOT_ASSERT."""
    loops = []
    for m in LOOP_RE.finditer(masked):
        # Find the loop body '{' after the closing paren of the condition.
        depth, i = 0, masked.find("(", m.start())
        close = -1
        for j in range(i, len(masked)):
            if masked[j] == "(":
                depth += 1
            elif masked[j] == ")":
                depth -= 1
                if depth == 0:
                    close = j
                    break
        if close < 0:
            continue
        k = close + 1
        while k < len(masked) and masked[k] in " \t\n":
            k += 1
        if k >= len(masked) or masked[k] != "{":
            continue  # single-statement loop: nothing to allocate in
        body_end = match_brace(masked, k)
        if body_end < 0:
            continue
        loops.append((m.start(), k + 1, body_end - 1))

    for assert_m in re.finditer(r"\bEXTDICT_HOT_ASSERT\s*\(", masked):
        pos = assert_m.start()
        enclosing = [l for l in loops if l[1] <= pos < l[2]]
        if not enclosing:
            continue
        yield max(enclosing, key=lambda l: l[1])  # innermost = latest body start


def hot_assert_arg_spans(masked: str) -> list[tuple[int, int]]:
    spans = []
    for m in re.finditer(r"\bEXTDICT_HOT_ASSERT\s*\(", masked):
        depth, start = 0, m.end() - 1
        for i in range(start, len(masked)):
            if masked[i] == "(":
                depth += 1
            elif masked[i] == ")":
                depth -= 1
                if depth == 0:
                    spans.append((m.start(), i + 1))
                    break
    return spans


def check_file(path: Path, rel: str, violations: list[Violation]) -> None:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        violations.append(Violation(path, 0, "io-error", str(e)))
        return
    masked = mask_comments_and_strings(text)
    waivers = waived_lines(text)

    rel_posix = rel.replace("\\", "/")

    # -- cpp-include & sync headers (raw, line-based) -------------------------
    for lineno, line in enumerate(text.splitlines(), start=1):
        inc = INCLUDE_RE.match(line)
        if not inc:
            continue
        target = inc.group(1)
        if target.endswith(".cpp"):
            if not is_waived(waivers, lineno, RULE_CPP_INCLUDE):
                violations.append(Violation(
                    path, lineno, RULE_CPP_INCLUDE,
                    f'includes translation unit "{target}"; '
                    "extract a header instead"))
        if SYNC_HEADER_RE.match(target) and rel_posix not in SYNC_ALLOWED:
            if not is_waived(waivers, lineno, RULE_SYNC):
                violations.append(Violation(
                    path, lineno, RULE_SYNC,
                    f"<{target}> outside util/sync.hpp; use the annotated "
                    "wrappers (util::Mutex / util::CondVar)"))

    # -- naked std primitives -------------------------------------------------
    if rel_posix not in SYNC_ALLOWED:
        for m in SYNC_PRIMITIVE_RE.finditer(masked):
            lineno = line_of(masked, m.start())
            if is_waived(waivers, lineno, RULE_SYNC):
                continue
            violations.append(Violation(
                path, lineno, RULE_SYNC,
                f"naked {m.group(0)} outside util/sync.hpp; use util::Mutex "
                "/ util::CondVar so -Wthread-safety sees the protocol"))

    # -- hot-loop allocations -------------------------------------------------
    arg_spans = hot_assert_arg_spans(masked)
    reported: set[tuple[int, str]] = set()
    for _, body_start, body_end in set(innermost_hot_loops(masked)):
        body = masked[body_start:body_end]
        # Blank out the HOT_ASSERT argument lists: the detail string may
        # build diagnostics (to_string etc.) — evaluated only on failure.
        chars = list(body)
        for s, e in arg_spans:
            if s >= body_start and e <= body_end:
                for i in range(s - body_start, e - body_start):
                    if chars[i] != "\n":
                        chars[i] = " "
        scrubbed = "".join(chars)
        for pattern, what in ALLOC_PATTERNS:
            for m in pattern.finditer(scrubbed):
                lineno = line_of(masked, body_start + m.start())
                if is_waived(waivers, lineno, RULE_HOT_ALLOC):
                    continue
                key = (lineno, what)
                if key in reported:
                    continue
                reported.add(key)
                violations.append(Violation(
                    path, lineno, RULE_HOT_ALLOC,
                    f"heap allocation ({what}) inside an "
                    "EXTDICT_HOT_ASSERT-marked loop"))

    # -- tracing inside hot kernel files --------------------------------------
    if rel_posix.startswith(TRACE_FORBIDDEN_PREFIXES):
        for m in TRACE_USE_RE.finditer(masked):
            lineno = line_of(masked, m.start())
            if is_waived(waivers, lineno, RULE_TRACE):
                continue
            violations.append(Violation(
                path, lineno, RULE_TRACE,
                f"{m.group(0)} in a hot kernel file; trace at the phase "
                "level (core/, dist/, solvers/) — per-element call sites "
                "pay the enabled-check on every invocation"))

    # -- omp parallel directives must declare default(none) -------------------
    # Scans masked text (commented-out pragmas are not directives) and joins
    # backslash continuations: every real pragma in this tree wraps.
    masked_lines = masked.splitlines()
    lineno = 0
    while lineno < len(masked_lines):
        start = lineno
        line = masked_lines[lineno]
        lineno += 1
        if not OMP_PARALLEL_RE.match(line):
            continue
        pragma = line
        while pragma.rstrip().endswith("\\") and lineno < len(masked_lines):
            pragma = pragma.rstrip()[:-1] + " " + masked_lines[lineno]
            lineno += 1
        if DEFAULT_NONE_RE.search(pragma):
            continue
        if is_waived(waivers, start + 1, RULE_OMP_DEFAULT):
            continue
        violations.append(Violation(
            path, start + 1, RULE_OMP_DEFAULT,
            "omp parallel directive without default(none); list every "
            "variable's sharing explicitly (shared/private/firstprivate/"
            "reduction) so nothing is shared by accident"))

    # -- per-column encode loops in parallel regions --------------------------
    if not rel_posix.startswith(ENCODE_LOOP_ALLOWED_PREFIX):
        for start, body in omp_parallel_bodies(masked):
            if not ENCODE_CALL_RE.search(body):
                continue
            if is_waived(waivers, start, RULE_ENCODE_LOOP):
                continue
            violations.append(Violation(
                path, start, RULE_ENCODE_LOOP,
                "omp parallel region calls .encode( per column; code "
                "column blocks with BatchOmp::encode_columns (one Dᵀ·X "
                "product per block, reused workspace)"))

    # -- metric name style ----------------------------------------------------
    # The default mask blanks string literals, so this rule scans a
    # comments-only mask where the literals survive.
    literals_visible = mask_comments_and_strings(text, keep_strings=True)
    for m in [*METRIC_CALL_RE.finditer(literals_visible),
              *TRACE_SCOPE_RE.finditer(literals_visible)]:
        name = m.group(1)
        if METRIC_NAME_RE.match(name):
            continue
        lineno = line_of(literals_visible, m.start())
        if is_waived(waivers, lineno, RULE_METRIC_NAME):
            continue
        violations.append(Violation(
            path, lineno, RULE_METRIC_NAME,
            f'metric name "{name}" is not a lowercase dot-path '
            "([a-z0-9_]+ segments joined by single dots; "
            "docs/OBSERVABILITY.md)"))

    # -- shape contracts at kernel entry --------------------------------------
    if (rel_posix.startswith(("src/la/", "src/sparsecoding/", "src/solvers/"))
            and rel_posix.endswith(".cpp")):
        anon_spans = anonymous_namespace_spans(masked)
        for header_start, name, params, body_start, body_end in \
                function_definitions(masked):
            if any(s <= header_start < e for s, e in anon_spans):
                continue  # file-local helper, not a public kernel entry
            if not DIM_PARAM_RE.search(params):
                continue
            sig_line = line_of(masked, header_start + len(
                masked[header_start:body_start]) - len(
                masked[header_start:body_start].lstrip()))
            # line of the first non-blank char of the header:
            first_char = header_start
            while first_char < body_start and masked[first_char] in " \t\n":
                first_char += 1
            sig_line = line_of(masked, first_char)
            if is_waived(waivers, sig_line, RULE_SHAPE):
                continue
            body = masked[body_start:body_end]
            shape = REQUIRE_SHAPE_RE.search(body)
            loop = LOOP_RE.search(body)
            if shape and (not loop or shape.start() < loop.start()):
                continue
            if shape:
                msg = (f"{name}: EXTDICT_REQUIRE_SHAPE appears only after the "
                       "first loop; validate before touching data")
            else:
                msg = (f"{name}: public kernel entry takes dimensioned "
                       "arguments but never calls EXTDICT_REQUIRE_SHAPE "
                       "(waive with `// extdict-lint: "
                       "allow(missing-shape-contract) <reason>`)")
            violations.append(Violation(path, sig_line, RULE_SHAPE, msg))


def check_orphan_modules(root: Path, files: list[Path],
                         violations: list[Violation]) -> None:
    """Flags src/ headers included only by tests/, examples/ and own .cpp.

    The violation sits on the header's `#pragma once` line, so a waiver on
    that line or the one above it applies.

    `#include "x"` resolves against src/ first (the project's include root),
    then against the including file's directory.
    """
    root = root.resolve()
    includers: dict[str, set[str]] = {}
    rels = {path: path.resolve().relative_to(root).as_posix() for path in files}
    for path, rel in rels.items():
        text = path.read_text(encoding="utf-8", errors="replace")
        for line in text.splitlines():
            inc = INCLUDE_RE.match(line)
            if not inc:
                continue
            for candidate in (root / "src" / inc.group(1),
                              path.resolve().parent / inc.group(1)):
                if candidate.is_file():
                    target = candidate.resolve().relative_to(root).as_posix()
                    includers.setdefault(target, set()).add(rel)
                    break
    for path, rel in rels.items():
        if not rel.startswith("src/") or path.suffix not in (".hpp", ".h"):
            continue
        own_units = {Path(rel).with_suffix(s).as_posix() for s in (".cpp", ".cc")}
        callers = {u for u in includers.get(rel, set())
                   if u not in own_units
                   and not u.startswith(NON_CALLER_PREFIXES)}
        if callers:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        line = next((n for n, src in enumerate(text.splitlines(), start=1)
                     if PRAGMA_ONCE_RE.match(src)), 1)
        if is_waived(waived_lines(text), line, RULE_ORPHAN):
            continue
        violations.append(Violation(
            path, line, RULE_ORPHAN,
            f"{rel} is included only by tests/, examples/ and its own "
            "translation unit; delete the module, move it to tests/support/ "
            "or waive its `#pragma once` line with what it serves"))


def gather_tree_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            if "lint_fixtures" in rel or "analyze_fixtures" in rel or \
                    "thread_safety_compile_test" in rel:
                continue  # deliberate violations / compile fixtures
            files.append(path)
    return files


def scan(root: Path, files: list[Path]) -> list[Violation]:
    violations: list[Violation] = []
    for path in files:
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        check_file(path, rel, violations)
    return violations


def scan_tree(root: Path) -> tuple[list[Path], list[Violation]]:
    """Every per-file rule over the tree, plus the tree-level rules."""
    files = gather_tree_files(root)
    violations = scan(root, files)
    check_orphan_modules(root, files, violations)
    return files, violations


EXPECT_RE = re.compile(r"extdict-lint-expect:\s*([\w\s-]+)")
HIT_MARK_RE = re.compile(r"//\s*extdict-lint-hit\s*$")


def fixture_behaves(path: Path, rel: str, violations: list[Violation]) -> bool:
    """Checks one fixture's violations against its declared expectations."""
    text = path.read_text(encoding="utf-8")
    m = EXPECT_RE.search(text)
    if not m:
        print(f"SELF-TEST FAIL {rel}: no extdict-lint-expect header")
        return False
    expected = set(m.group(1).split()) - {"none"}
    found = {v.rule for v in violations}
    # Opt-in line check: when a fixture ends lines with
    # `// extdict-lint-hit`, exactly those lines must be flagged.
    marked = {n for n, line in enumerate(text.splitlines(), start=1)
              if HIT_MARK_RE.search(line)}
    flagged = {v.line for v in violations}
    if marked and marked != flagged:
        print(f"SELF-TEST FAIL {rel}: marked lines {sorted(marked)}, "
              f"flagged lines {sorted(flagged)}")
        return False
    if found != expected:
        print(f"SELF-TEST FAIL {rel}: expected {sorted(expected) or '[]'}, "
              f"found {sorted(found) or '[]'}")
        for v in violations:
            print(f"    {v}")
        return False
    print(f"self-test ok: {rel} -> {sorted(found) or ['clean']}")
    return True


def self_test(repo_root: Path) -> int:
    """Checks every fixture produces exactly its declared rule hits."""
    fixture_root = repo_root / "tests" / "lint_fixtures"
    if not fixture_root.is_dir():
        print(f"extdict-lint: no fixtures at {fixture_root}", file=sys.stderr)
        return 2
    tree_root = fixture_root / "trees"
    fixtures = [p for p in sorted(fixture_root.rglob("*.cpp"))
                if tree_root not in p.parents]
    trees = sorted(p for p in tree_root.iterdir() if p.is_dir()) \
        if tree_root.is_dir() else []
    if not fixtures or not trees:
        print("extdict-lint: file or tree fixtures missing", file=sys.stderr)
        return 2
    failures = checked = 0
    for path in fixtures:
        rel = path.relative_to(fixture_root).as_posix()
        violations: list[Violation] = []
        check_file(path, rel, violations)
        checked += 1
        failures += not fixture_behaves(path, rel, violations)
    for tree in trees:
        files, violations = scan_tree(tree)
        for path in files:
            rel = path.relative_to(fixture_root).as_posix()
            checked += 1
            failures += not fixture_behaves(
                path, rel, [v for v in violations if v.path == path])
    if failures:
        print(f"extdict-lint self-test: {failures} fixture(s) failed")
        return 1
    print(f"extdict-lint self-test: all {checked} fixtures behave "
          f"({len(trees)} trees)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="extdict-lint",
        description="ExtDict house-invariant static checks")
    parser.add_argument("files", nargs="*", type=Path,
                        help="files to scan (default: the whole tree)")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: this script's ../)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against tests/lint_fixtures/")
    args = parser.parse_args(argv)

    script_root = Path(__file__).resolve().parent.parent
    root = (args.root or script_root).resolve()

    if args.self_test:
        return self_test(script_root)

    if args.files:
        files, violations = args.files, scan(root, args.files)
    else:
        files, violations = scan_tree(root)
    if not files:
        print(f"extdict-lint: nothing to scan under {root}", file=sys.stderr)
        return 2
    for v in violations:
        print(v)
    if violations:
        print(f"extdict-lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)")
        return 1
    print(f"extdict-lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
