#!/usr/bin/env python3
"""Protocol lint for streamflow.

Static checks that clang-tidy cannot express, run in CI next to it:

1. Message-dispatch completeness.  The alternatives of the Message payload
   variant are parsed out of src/runtime/message.hpp.  Every on_message()
   *definition* in src/ must either mention each alternative (via
   std::get_if<X> / std::holds_alternative<X>) or carry an explicit waiver
   comment inside the function body:

       // protocol-lint: ignores StatusUpdate, Command

   Waivers are per-function and name the kinds that rank deliberately
   drops, so adding a ninth message kind fails the lint everywhere until
   each dispatcher either handles it or documents why it will not.

2. No naked new / delete in src/ (RAII only; `= delete` declarations and
   comments/strings are excluded).  .clang-tidy enables no owning-memory
   check, so nothing else enforces this.

3. Payload-kind side-table completeness.  Every variant alternative must
   have an operator()(const X&) in message.cpp's ByteSizer (the network
   cost model) and in invariants.cpp's payload Namer (checker
   diagnostics).  Adding a message kind — the failover control plane
   added MasterBeacon and ControlAck — without costing and naming it
   fails the lint, not the first faulted run.

4. Tree-coordination coverage.  The master-tree kinds (SeedRelay) belong
   to the hybrid algorithm: each must be constructed in
   src/algorithms/hybrid.cpp and nowhere else — only a root master
   brokers seed demand, so a relay minted by another layer would bypass
   the brokering invariants (single relay in flight, no re-escalation).

Randomness hygiene (unseeded RNG / wall-clock engines) lives in
check_determinism.py, next to the other sources of nondeterminism.
Switch exhaustiveness over Command::Type is the compiler's job: -Wswitch
(in -Wall) flags a missing enumerator in a switch without default:, and
CI builds with -Werror.

Translation units come from build*/compile_commands.json when present
(headers are always globbed); see lintutil.source_files.

Exit status 0 when clean, 1 with one line per finding otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from lintutil import (line_of, match_brace, source_files,
                      strip_comments_and_strings)

FINDINGS: list[str] = []


def report(path: pathlib.Path, line: int, msg: str) -> None:
    FINDINGS.append(f"{path}:{line}: {msg}")


def parse_message_alternatives(message_hpp: str) -> list[str]:
    clean = strip_comments_and_strings(message_hpp)
    m = re.search(r"std::variant<([^;]*?)>\s*\n?\s*payload\s*;", clean,
                  re.DOTALL)
    if not m:
        sys.exit("check_protocol: cannot find Message payload variant in "
                 "message.hpp")
    names = [a.strip() for a in m.group(1).split(",")]
    if not all(re.fullmatch(r"\w+", a) for a in names):
        sys.exit(f"check_protocol: unparsable variant alternatives: {names}")
    return names


def check_dispatch(path: pathlib.Path, raw: str, clean: str,
                   alternatives: list[str]) -> int:
    """Returns the number of on_message definitions found in this file."""
    count = 0
    for m in re.finditer(r"\bon_message\s*\(", clean):
        close = clean.find(")", m.end())
        if close < 0:
            continue
        after = clean[close + 1:close + 120]
        brace_rel = re.match(r"[\s\w]*\{", after)
        if not brace_rel:  # pure-virtual declaration or call site
            continue
        body_open = close + 1 + brace_rel.end() - 1
        body_end = match_brace(clean, body_open)
        body = clean[body_open:body_end]
        # Waivers live in comments (blanked in `clean`), so read them from
        # the raw text of the same region — strip is length-preserving.
        raw_body = raw[body_open:body_end]
        waived: set[str] = set()
        for w in re.finditer(r"protocol-lint:\s*ignores[ \t]+([^\n]*)",
                             raw_body):
            waived.update(x for x in re.split(r"[,\s]+", w.group(1)) if x)
        count += 1
        for alt in alternatives:
            handled = re.search(
                r"(?:get_if|holds_alternative)\s*<\s*" + alt + r"\s*>", body)
            if not handled and alt not in waived:
                report(path, line_of(clean, m.start()),
                       f"on_message neither handles nor waives message kind "
                       f"'{alt}' (add std::get_if<{alt}> handling or a "
                       f"'// protocol-lint: ignores {alt}' comment)")
        for extra in waived - set(alternatives):
            report(path, line_of(clean, m.start()),
                   f"protocol-lint waiver names unknown message kind "
                   f"'{extra}'")
    return count


def check_naked_new_delete(path: pathlib.Path, clean: str) -> None:
    for m in re.finditer(r"\bnew\b(?!\s*\()", clean):
        report(path, line_of(clean, m.start()),
               "naked 'new' (use std::make_unique / containers)")
    for m in re.finditer(r"\bdelete\b(?:\s*\[\s*\])?", clean):
        before = clean[:m.start()].rstrip()
        if before.endswith("="):  # deleted special member function
            continue
        if before.endswith("operator"):
            continue
        report(path, line_of(clean, m.start()),
               "naked 'delete' (use RAII ownership)")


def check_payload_side_table(path: pathlib.Path, clean: str,
                             alternatives: list[str], table: str) -> None:
    """Every payload kind needs an operator()(const X&) overload here."""
    for alt in alternatives:
        if not re.search(r"operator\s*\(\s*\)\s*\(\s*const\s+" + alt + r"\s*&",
                         clean):
            report(path, 1,
                   f"{table} has no operator()(const {alt}&) overload — "
                   f"every Message payload kind must be covered")


TREE_KINDS = ["SeedRelay"]


def check_tree_kinds(files: list[pathlib.Path], root: pathlib.Path,
                     alternatives: list[str]) -> None:
    """Master-tree payload kinds belong to the hybrid algorithm, both ways."""
    kinds = [a for a in alternatives if a in TREE_KINDS]
    owner = root / "src" / "algorithms" / "hybrid.cpp"
    owner_text = strip_comments_and_strings(owner.read_text())
    for kind in kinds:
        if not re.search(r"\b" + kind + r"\s*\{", owner_text):
            report(pathlib.Path("src/algorithms/hybrid.cpp"), 1,
                   f"tree message kind '{kind}' is never constructed by the "
                   f"hybrid algorithm — wire it up or drop it from the "
                   f"Message variant")
    for path in files:
        if path == owner:
            continue
        if path.name in ("message.hpp", "message.cpp", "invariants.cpp"):
            continue  # variant declaration and the side tables
        clean = strip_comments_and_strings(path.read_text())
        for kind in kinds:
            for m in re.finditer(r"\b" + kind + r"\s*\{", clean):
                report(path.relative_to(root), line_of(clean, m.start()),
                       f"tree message kind '{kind}' constructed outside "
                       f"src/algorithms/hybrid.cpp — only root masters "
                       f"broker seed demand")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    args = ap.parse_args()

    src = args.root / "src"
    message_hpp = (src / "runtime" / "message.hpp").read_text()
    alternatives = parse_message_alternatives(message_hpp)

    files = source_files(args.root)
    dispatchers = 0
    for path in files:
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        rel = path.relative_to(args.root)
        dispatchers += check_dispatch(rel, raw, clean, alternatives)
        check_naked_new_delete(rel, clean)

    for rel_path, table in [
        (pathlib.Path("src/runtime/message.cpp"), "ByteSizer"),
        (pathlib.Path("src/check/invariants.cpp"), "payload Namer"),
    ]:
        clean = strip_comments_and_strings((args.root / rel_path).read_text())
        check_payload_side_table(rel_path, clean, alternatives, table)

    check_tree_kinds(files, args.root, alternatives)

    if dispatchers == 0:
        FINDINGS.append("check_protocol: found no on_message definitions — "
                        "the dispatch scan is broken")

    for f in FINDINGS:
        print(f)
    print(f"check_protocol: {dispatchers} dispatchers, "
          f"{len(alternatives)} message kinds, "
          f"{len(FINDINGS)} problem(s)")
    return 1 if FINDINGS else 0


if __name__ == "__main__":
    sys.exit(main())
