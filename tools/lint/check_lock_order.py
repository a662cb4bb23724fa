#!/usr/bin/env python3
"""Lock-order lint for streamflow.

The runtime enforces a total lock order at Debug time (sf::Mutex ranks,
src/core/thread_annotations.hpp); this lint enforces the same order —
plus the annotation discipline that makes it work — statically, so a
violation fails CI even on paths no test happens to execute.

Rules (waivable per site with `// lock-order-lint: ignores <rule>` on
the offending line or the line above):

  raw-mutex       std::mutex / std::condition_variable / std::lock_guard
                  / std::unique_lock / std::scoped_lock anywhere under
                  src/ outside core/thread_annotations.hpp.  Raw mutexes
                  are invisible to both the thread-safety analysis and
                  the rank checker; all locking goes through sf::Mutex.

  raw-atomic      An explicit memory_order_* argument or a
                  std::atomic_thread_fence / atomic_signal_fence call
                  without an adjacent `// lockfree-lint: spsc` marker
                  (same line or within 8 lines above) whose comment
                  states the happens-before argument (it must mention
                  one of: happens-before, pairs with, owns, Dekker).
                  Raw atomics are the one concurrency tool the rank
                  checker cannot see at all; the marker pins the proof
                  obligation to the site so a reviewer — and this lint —
                  can hold each ordering to its documented pairing.
                  The cancel-set fast path (core/tracer.hpp) is the
                  intended user.

  unranked-mutex  An sf::Mutex member constructed without an explicit
                  LockRank.  Unranked mutexes opt out of the runtime
                  order check, which defeats the registry.

  missing-guard   An sf::Mutex member that no SF_GUARDED_BY / SF_REQUIRES
                  in its class refers to.  A mutex that guards nothing is
                  either dead or — worse — guarding state the annotations
                  do not know about.

  order           A lock acquisition (MutexLock site or SF_REQUIRES
                  context) while already holding a mutex of an equal or
                  higher LockRank.  Mirrors the Debug runtime check:
                  ranks must be strictly increasing along any acquisition
                  chain.

  cycle           A cycle in the acquisition graph built from all
                  acquired-while-holding edges (including edges between
                  unranked mutexes, which the rank rule cannot see).

The acquisition graph is built from the sources listed in
build*/compile_commands.json when present (headers always included);
SF_REQUIRES annotations seed the held set of out-of-line definitions via
the declarations in headers.

Exit status 0 when clean, 1 with one line per finding otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from lintutil import (is_waived, line_of, match_brace, parse_waivers,
                      source_files, strip_comments_and_strings)

FINDINGS: list[str] = []

TOOL = "lock-order"

RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

RAW_ATOMIC_RE = re.compile(
    r"\bmemory_order_(?:relaxed|consume|acquire|release|acq_rel|seq_cst)\b"
    r"|\batomic_(?:thread|signal)_fence\s*\(")

# The atomics waiver class: an explicit marker within reach of the site,
# plus a stated happens-before rationale somewhere in the marker-to-site
# comment block.
SPSC_MARKER = "lockfree-lint: spsc"
SPSC_MARKER_REACH = 8  # lines above the site the marker may sit
SPSC_RATIONALE_RE = re.compile(
    r"happens?[- ](?:before|after)|pairs? with|pairing|\bowns\b|Dekker",
    re.IGNORECASE)

MUTEX_DECL_RE = re.compile(
    r"\b(?:sf::)?Mutex\s+(\w+)\s*(\{[^;{}]*\}|=[^;]*)?;")

ACQUIRE_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([\w.\->]+)\s*\)")

REQUIRES_RE = re.compile(r"\bSF_REQUIRES\s*\(([^)]*)\)")


def report(path: pathlib.Path, line: int, msg: str) -> None:
    FINDINGS.append(f"{path}:{line}: {msg}")


def parse_lock_ranks(annotations_hpp: str) -> dict[str, int]:
    """LockRank enumerator -> numeric value, from thread_annotations.hpp."""
    clean = strip_comments_and_strings(annotations_hpp)
    m = re.search(r"enum\s+class\s+LockRank[^{]*\{([^}]*)\}", clean)
    if not m:
        sys.exit("check_lock_order: cannot find LockRank enum in "
                 "thread_annotations.hpp")
    ranks: dict[str, int] = {}
    for item in m.group(1).split(","):
        em = re.match(r"\s*(k\w+)\s*=\s*(-?\d+)", item)
        if em:
            ranks[em.group(1)] = int(em.group(2))
    if not ranks:
        sys.exit("check_lock_order: LockRank enum parsed empty")
    return ranks


def class_ranges(clean: str) -> list[tuple[str, int, int]]:
    """(name, body_open, body_close) for each class/struct definition."""
    out = []
    for m in re.finditer(
            r"\b(?:class|struct)\s+(?:SF_\w+\s*\([^)]*\)\s*)?(\w+)"
            r"[^;{()]*\{", clean):
        out.append((m.group(1), m.end() - 1, match_brace(clean, m.end() - 1)))
    return out


def innermost_class(classes: list[tuple[str, int, int]], pos: int) -> str:
    best = ""
    best_span = None
    for name, lo, hi in classes:
        if lo <= pos < hi:
            span = hi - lo
            if best_span is None or span < best_span:
                best, best_span = name, span
    return best


def member_name(expr: str) -> str:
    """`cache.mu_` / `self->mu_` / `mu_` -> `mu_`."""
    return re.split(r"\.|->", expr)[-1].strip()


class Registry:
    """Accumulates mutex declarations and acquisition edges repo-wide."""

    def __init__(self, ranks: dict[str, int]) -> None:
        self.rank_values = ranks
        # node ("Class::member") -> (rank value or None, decl site)
        self.nodes: dict[str, tuple[int | None, str]] = {}
        # member -> set of owning classes (for cross-class resolution)
        self.by_member: dict[str, set[str]] = {}
        # (held_node, acquired_node) -> first site
        self.edges: dict[tuple[str, str], str] = {}

    def declare(self, owner: str, member: str, rank: int | None,
                site: str) -> None:
        self.nodes[f"{owner}::{member}"] = (rank, site)
        self.by_member.setdefault(member, set()).add(owner)

    def resolve(self, owner: str, expr: str) -> str:
        """Best-effort node id for a lock expression seen inside `owner`."""
        member = member_name(expr)
        if f"{owner}::{member}" in self.nodes:
            return f"{owner}::{member}"
        owners = self.by_member.get(member, set())
        if len(owners) == 1:
            return f"{next(iter(owners))}::{member}"
        return f"?::{member}"

    def rank_of(self, node: str) -> int | None:
        entry = self.nodes.get(node)
        return entry[0] if entry else None


def scan_declarations(reg: Registry, rel: pathlib.Path, raw: str, clean: str,
                      waivers: dict[int, set[str]]) -> None:
    classes = class_ranges(clean)
    for m in MUTEX_DECL_RE.finditer(clean):
        owner = innermost_class(classes, m.start())
        if not owner:
            continue  # local or free mutex; acquisition scan still sees it
        line = line_of(clean, m.start())
        init = m.group(2) or ""
        rank = None
        rm = re.search(r"LockRank::(k\w+)", init)
        if rm and rm.group(1) in reg.rank_values:
            rank = reg.rank_values[rm.group(1)]
        if rank is None and not is_waived(waivers, line, "unranked-mutex"):
            report(rel, line,
                   f"sf::Mutex '{owner}::{m.group(1)}' has no explicit "
                   f"LockRank — unranked mutexes bypass the runtime order "
                   f"check (rule: unranked-mutex)")
        reg.declare(owner, m.group(1), rank, f"{rel}:{line}")
        # missing-guard: some SF_GUARDED_BY/SF_REQUIRES in the class body
        # must name this mutex.
        cls = next((c for c in classes
                    if c[0] == owner and c[1] <= m.start() < c[2]), None)
        if cls is not None:
            body = clean[cls[1]:cls[2]]
            if not re.search(
                    r"SF_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES(?:_SHARED)?|"
                    r"EXCLUDES|ACQUIRE|RELEASE)\s*\(\s*" +
                    re.escape(m.group(1)) + r"\s*\)", body) \
                    and not is_waived(waivers, line, "missing-guard"):
                report(rel, line,
                       f"sf::Mutex '{owner}::{m.group(1)}' guards nothing: "
                       f"no SF_GUARDED_BY / SF_REQUIRES in the class names "
                       f"it (rule: missing-guard)")


def requires_decl_map(files: list[dict]) -> dict[tuple[str, str], list[str]]:
    """(class, method) -> SF_REQUIRES mutexes, from header declarations."""
    out: dict[tuple[str, str], list[str]] = {}
    for f in files:
        clean = f["clean"]
        classes = f["classes"]
        for m in REQUIRES_RE.finditer(clean):
            # Declaration if a ';' comes before any '{' after the REQUIRES.
            tail = clean[m.end():m.end() + 200]
            semi, brace = tail.find(";"), tail.find("{")
            if semi < 0 or (0 <= brace < semi):
                continue
            owner = innermost_class(classes, m.start())
            if not owner:
                continue
            # The method name: last identifier before the '(' preceding
            # this annotation's argument list's matching signature.
            head = clean[:m.start()]
            sig = re.search(r"(\w+)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
                            r"(?:\s*const)?\s*$", head)
            if not sig:
                continue
            mutexes = [member_name(x)
                       for x in m.group(1).split(",") if x.strip()]
            out.setdefault((owner, sig.group(1)), []).extend(mutexes)
    return out


def scan_acquisitions(reg: Registry, f: dict,
                      decl_requires: dict[tuple[str, str], list[str]]) -> None:
    """Collect acquired-while-holding edges in one file."""
    clean, classes, rel = f["clean"], f["classes"], f["rel"]

    # Held intervals: (start, end, node) — SF_REQUIRES on definitions and
    # out-of-line definitions of annotated declarations.
    held: list[tuple[int, int, str]] = []

    for m in REQUIRES_RE.finditer(clean):
        tail = clean[m.end():m.end() + 200]
        brace = tail.find("{")
        semi = tail.find(";")
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration, not definition
        open_idx = m.end() + brace
        close = match_brace(clean, open_idx)
        owner = innermost_class(classes, m.start())
        for x in m.group(1).split(","):
            if x.strip():
                held.append((open_idx, close,
                             reg.resolve(owner, member_name(x))))

    for m in re.finditer(r"\b(\w+)::(~?\w+)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
                         r"[^;{}]*\{", clean):
        key = (m.group(1), m.group(2))
        if key not in decl_requires:
            continue
        open_idx = m.end() - 1
        close = match_brace(clean, open_idx)
        for mu in decl_requires[key]:
            held.append((open_idx, close, reg.resolve(m.group(1), mu)))

    # MutexLock scopes: held from the acquisition to the end of the
    # innermost enclosing brace.
    braces = [(i, match_brace(clean, i))
              for i, ch in enumerate(clean) if ch == "{"]

    acquisitions = []
    for m in ACQUIRE_RE.finditer(clean):
        pos = m.start()
        owner = ""
        # Owner class: out-of-line `Class::method` context wins over the
        # lexical class (lambdas aside, there is no other nesting).
        head = clean[:pos]
        qm = None
        for qm_i in re.finditer(
                r"\b(\w+)::(~?\w+)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
                r"[^;{}]*\{", head):
            qm = qm_i
        if qm is not None and match_brace(clean, qm.end() - 1) > pos:
            owner = qm.group(1)
        if not owner:
            owner = innermost_class(classes, pos)
        node = reg.resolve(owner, m.group(1))
        enclosing = [b for b in braces if b[0] < pos < b[1]]
        end = min((b[1] for b in enclosing), default=len(clean))
        acquisitions.append((pos, end, node))

    for pos, end, node in acquisitions:
        line = line_of(clean, pos)
        site = f"{rel}:{line}"
        for hlo, hhi, hnode in held:
            if hlo <= pos < hhi and hnode != node:
                reg.edges.setdefault((hnode, node), site)
        for apos, aend, anode in acquisitions:
            if apos < pos < aend and anode != node:
                reg.edges.setdefault((anode, node), site)
        f["acquire_sites"].append((line, node))


def check_order(reg: Registry,
                waivers_by_rel: dict[pathlib.Path, dict[int, set[str]]]
                ) -> None:
    for (held, acquired), site in sorted(reg.edges.items()):
        hrank, arank = reg.rank_of(held), reg.rank_of(acquired)
        if hrank is None or arank is None:
            continue
        if arank <= hrank:
            rel_str, line_str = site.rsplit(":", 1)
            waivers = waivers_by_rel.get(pathlib.Path(rel_str), {})
            if is_waived(waivers, int(line_str), "order"):
                continue
            FINDINGS.append(
                f"{site}: acquires '{acquired}' (rank {arank}) while "
                f"holding '{held}' (rank {hrank}) — lock ranks must be "
                f"strictly increasing (rule: order)")


def check_cycles(reg: Registry) -> None:
    graph: dict[str, list[str]] = {}
    for held, acquired in reg.edges:
        graph.setdefault(held, []).append(acquired)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    stack: list[str] = []

    def dfs(n: str) -> list[str] | None:
        color[n] = GRAY
        stack.append(n)
        for nxt in graph.get(n, []):
            c = color.get(nxt, WHITE)
            if c == GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if c == WHITE:
                color.setdefault(nxt, WHITE)
                cyc = dfs(nxt)
                if cyc is not None:
                    return cyc
        color[n] = BLACK
        stack.pop()
        return None

    for n in list(graph):
        if color.get(n, WHITE) == WHITE:
            cyc = dfs(n)
            if cyc is not None:
                sites = [reg.edges[(cyc[i], cyc[i + 1])]
                         for i in range(len(cyc) - 1)]
                FINDINGS.append(
                    "lock acquisition cycle: " + " -> ".join(cyc) +
                    " (sites: " + ", ".join(sites) + ") (rule: cycle)")
                return  # one cycle is enough to fail; keep output short


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("--files", nargs="*", type=pathlib.Path, default=None,
                    help="lint exactly these files instead of src/ "
                         "(fixture self-tests)")
    args = ap.parse_args()

    annotations = args.root / "src" / "core" / "thread_annotations.hpp"
    ranks = parse_lock_ranks(annotations.read_text())

    if args.files is not None:
        paths = [p.resolve() for p in args.files]
    else:
        paths = source_files(args.root)

    reg = Registry(ranks)
    files = []
    waivers_by_rel: dict[pathlib.Path, dict[int, set[str]]] = {}
    for path in paths:
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        try:
            rel = path.relative_to(args.root)
        except ValueError:
            rel = path
        waivers = parse_waivers(raw, TOOL)
        waivers_by_rel[rel] = waivers
        files.append({"rel": rel, "raw": raw, "clean": clean,
                      "classes": class_ranges(clean),
                      "waivers": waivers, "acquire_sites": []})

        if path != annotations.resolve():
            for m in RAW_MUTEX_RE.finditer(clean):
                line = line_of(clean, m.start())
                if is_waived(waivers, line, "raw-mutex"):
                    continue
                report(rel, line,
                       f"raw std::{m.group(1)} — use sf::Mutex / "
                       f"sf::MutexLock / sf::CondVar so the thread-safety "
                       f"analysis and the rank checker see it "
                       f"(rule: raw-mutex)")

        raw_lines = raw.splitlines()
        for m in RAW_ATOMIC_RE.finditer(clean):
            line = line_of(clean, m.start())
            if is_waived(waivers, line, "raw-atomic"):
                continue
            marker_line = None
            for cand in range(line, max(0, line - SPSC_MARKER_REACH - 1),
                              -1):
                if cand <= len(raw_lines) and \
                        SPSC_MARKER in raw_lines[cand - 1]:
                    marker_line = cand
                    break
            if marker_line is None:
                report(rel, line,
                       f"explicit atomic ordering without a "
                       f"`// {SPSC_MARKER}` marker on the line or within "
                       f"{SPSC_MARKER_REACH} lines above — every raw "
                       f"atomic site must carry its happens-before "
                       f"argument (rule: raw-atomic)")
                continue
            block = "\n".join(raw_lines[marker_line - 1:line])
            if not SPSC_RATIONALE_RE.search(block):
                report(rel, line,
                       f"`// {SPSC_MARKER}` marker at line {marker_line} "
                       f"states no happens-before argument (mention the "
                       f"pairing: happens-before / pairs with / owns / "
                       f"Dekker) (rule: raw-atomic)")

        scan_declarations(reg, rel, raw, clean, waivers)

    decl_requires = requires_decl_map(files)
    for f in files:
        scan_acquisitions(reg, f, decl_requires)

    check_order(reg, waivers_by_rel)
    check_cycles(reg)

    for f in FINDINGS:
        print(f)
    n_sites = sum(len(f["acquire_sites"]) for f in files)
    print(f"check_lock_order: {len(reg.nodes)} mutexes, {n_sites} "
          f"acquisition sites, {len(reg.edges)} order edges, "
          f"{len(FINDINGS)} problem(s)")
    return 1 if FINDINGS else 0


if __name__ == "__main__":
    sys.exit(main())
