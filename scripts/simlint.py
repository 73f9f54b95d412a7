#!/usr/bin/env python3
"""Determinism and protocol-contract lint for the OCOR simulator.

Usage: simlint.py [--list-rules] DIR_OR_FILE...

The simulator must be bit-reproducible: two runs with the same
configuration and seed produce identical metrics, traces and stats
(ROADMAP tier-1 property, enforced by the determinism tests). The
classic ways C++ code silently breaks that are iterating an unordered
container into simulation-visible state, consuming ambient entropy
(wall clock, rand(), random_device), and ordering on raw pointer
values, all of which vary run to run. On top of those, the protocol
layers carry contracts the compiler cannot check: nextWake() must be
a pure observer (the run loop calls it at will), every blocked-idle
charge must reach the COH ledger, and every stats-struct field must
be registered or it silently vanishes from stats.json.

Engine: a self-contained C++ tokenizer plus a structural parser
(brace/paren matching, function-body classification, struct-field
extraction). Tokens, not lines, drive every rule, so string literals
and comments can no longer produce false positives and multi-line
constructs resolve correctly. When the libclang python bindings are
importable an AST pass supplements two rules (typedefs and autos
resolve); the container image for this repo has no libclang, so the
tokenizer engine is the one CI exercises and is authoritative.

Rules (suppress one occurrence with a `simlint: allow(<rule>)`
comment on the same or the preceding line):

  unordered-iteration   range-for or .begin() iteration over a
                        container declared std::unordered_* in the
                        same file. Hash-table order is
                        implementation- and run-dependent; iterate a
                        sorted mirror (std::map/std::set) or sort the
                        results instead.
  ambient-entropy       rand()/srand()/random_device/time()/
                        gettimeofday/clock()/system_clock/
                        high_resolution_clock. Simulation randomness
                        must come from the seeded common/rng.hh
                        stream. (steady_clock is tolerated: it is the
                        documented convention for host wall-time
                        profiling, which never feeds sim state.)
  pointer-keyed-order   std::map/std::set keyed by a raw pointer
                        type. Heap addresses differ across runs, so
                        any iteration order leaks nondeterminism.
  missing-field-init    scalar field without a default initializer in
                        a struct named *Packet/*Flit/*Config/
                        *Params/*Fields/*Shape. These structs are
                        created ad hoc all over the codebase; a field
                        someone forgets to set must read 0, not
                        stack garbage.
  unconditional-tick    range-for whose body ticks every element of a
                        component container unconditionally
                        (`x->tick(now)` with no guard). The run loop
                        (DESIGN.md §13) ticks a component only on
                        cycles its nextWake() marks as due; a
                        for-all-components loop silently re-introduces
                        the per-cycle O(components) cost that gating
                        removes. Gate the call on `nextWake() <= now`
                        (see System::tick). Only loops over components
                        whose own tick() gates itself (Network::tick's
                        routers and NIs) carry allow annotations.
  nextwake-impure       a nextWake() definition that is not
                        const-qualified, or whose body mutates a
                        member (`x_ = ...`, `++x_`, `this->x = ...`).
                        The run loop (DESIGN.md §13) calls
                        nextWake() any number of times per cycle to
                        compute the next event horizon; a mutation
                        makes the horizon depend on how often the
                        scheduler polls, which is schedule-dependent
                        and breaks determinism. Local variables are
                        fine; members (trailing-underscore or
                        this->) are not.
  ledger-site           a `counters.blockedIdleCycles` increment in a
                        function that never calls chargeCohCauses()
                        or ledger->charge(). blockedIdleCycles is the
                        Equation-1 COH numerator; charging it without
                        the per-cause ledger split makes the causal
                        attribution (DESIGN.md §14) drift from the
                        aggregate it must decompose.
  stats-registration    a field of a *Stats/*Counters struct that is
                        registered nowhere, while sibling fields of
                        the same struct are. An unregistered field is
                        invisible in stats.json and escapes the
                        determinism digest. Structs no registerStats()
                        walk touches at all are out of scope (they
                        aggregate through other paths).

Exit status: 0 when clean, 1 when any finding is reported, 2 on
usage errors -- including a path that does not exist and a directory
argument containing no C++ sources (a silently empty lint run is a
lint failure: CI would report green while checking nothing).
"""

import os
import re
import sys

CXX_EXT = (".hh", ".cc", ".cpp", ".hpp", ".cxx")

RULES = {
    "unordered-iteration":
        "iteration over an unordered container (hash order is not "
        "deterministic)",
    "ambient-entropy":
        "ambient entropy source; use the seeded common/rng.hh stream",
    "pointer-keyed-order":
        "ordered container keyed by a raw pointer (address order "
        "varies per run)",
    "missing-field-init":
        "scalar struct field without a default initializer",
    "unconditional-tick":
        "per-cycle for-all-components tick loop (defeats the run "
        "loop's nextWake() gating; guard on nextWake() <= now)",
    "nextwake-impure":
        "nextWake() must be a const pure observer (the run loop "
        "polls it freely; mutation makes the horizon "
        "schedule-dependent)",
    "ledger-site":
        "blocked-idle charge without a paired COH-ledger charge in "
        "the same function (Equation-1 attribution drifts)",
    "stats-registration":
        "stats struct field never registered in any registerStats() "
        "walk (invisible in stats.json and the determinism digest)",
}

ALLOW_RE = re.compile(r"simlint:\s*allow\(([a-z-]+)\)")


def allowed(lines, idx, rule):
    """A `simlint: allow(rule)` on this or the preceding line."""
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = ALLOW_RE.search(lines[i])
            if m and m.group(1) == rule:
                return True
    return False


# --- tokenizer -------------------------------------------------------
#
# kinds: "id" (identifiers and keywords), "num", "str", "chr",
# "punct". Comments and preprocessor directives are consumed here,
# so no rule can ever match inside one.

PUNCTS3 = ("<<=", ">>=", "->*", "...")
PUNCTS2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==",
           "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
           "|=", "^=")
RAW_PREFIXES = ("R", "LR", "uR", "UR", "u8R")


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


def tokenize(text):
    """Return the token list of text."""
    toks = []
    i, n, line = 0, len(text), 1
    bol = True  # only whitespace seen since line start
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            bol = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and bol:
            # Preprocessor directive: swallow it, honoring
            # backslash continuations.
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                if text[j - 1] == "\\" or \
                        (j >= 2 and text[j - 2:j] == "\\\r"):
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        bol = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            line += text.count("\n", i, end)
            i = end
            continue
        if c == '"':
            if toks and toks[-1].kind == "id" and \
                    toks[-1].text in RAW_PREFIXES:
                # Raw string: R"delim( ... )delim"
                toks.pop()
                j = text.find("(", i)
                delim = text[i + 1:j] if j > 0 else ""
                close = ")" + delim + '"'
                k = text.find(close, j + 1)
                end = n if k < 0 else k + len(close)
                seg = text[i:end]
                toks.append(Tok("str", seg, line))
                line += seg.count("\n")
                i = end
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("str", text[i:j], line))
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("chr", text[i:j], line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and
                           text[i + 1].isdigit()):
            j = i + 1
            while j < n:
                d = text[j]
                if d.isalnum() or d in "'._":
                    j += 1
                elif d in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for p in PUNCTS3:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += 3
                break
        else:
            for p in PUNCTS2:
                if text.startswith(p, i):
                    toks.append(Tok("punct", p, line))
                    i += 2
                    break
            else:
                toks.append(Tok("punct", c, line))
                i += 1
    return toks


def match_pairs(toks, open_c, close_c):
    """open-index <-> close-index map; strays are tolerated."""
    pairs, stack = {}, []
    for idx, t in enumerate(toks):
        if t.kind != "punct":
            continue
        if t.text == open_c:
            stack.append(idx)
        elif t.text == close_c and stack:
            o = stack.pop()
            pairs[o] = idx
            pairs[idx] = o
    return pairs


# --- structural parser ----------------------------------------------

CTRL_KEYWORDS = {"if", "for", "while", "switch", "catch"}
TRAIL_QUALS = {"const", "noexcept", "override", "final"}


def find_functions(toks, braces, parens):
    """Classify brace blocks that are function bodies.

    A body's opening brace is reached by walking back over trailing
    qualifiers to a `)` whose matching `(` is preceded by a
    non-control-keyword identifier (the function name, possibly
    `Class::`-qualified) or by `]` (a lambda). Constructor
    member-init lists classify as a body named after the last
    initializer, which is harmless: the name-driven rules only look
    for nextWake/registerStats.

    Returns [{name, const, line, open, close}].
    """
    fns = []
    for idx, t in enumerate(toks):
        if t.kind != "punct" or t.text != "{" or idx not in braces:
            continue
        j = idx - 1
        is_const = False
        while j >= 0:
            tj = toks[j]
            if tj.kind == "id" and tj.text in TRAIL_QUALS:
                is_const = is_const or tj.text == "const"
                j -= 1
                continue
            if tj.kind == "punct" and tj.text in ("&",):
                j -= 1
                continue
            if tj.kind == "punct" and tj.text == ")" and j in parens:
                o = parens[j]
                before = o - 1
                if before >= 0 and toks[before].kind == "id" and \
                        toks[before].text == "noexcept":
                    j = before - 1  # noexcept(expr): keep walking
                    continue
            break
        if j < 0:
            continue
        tj = toks[j]
        if tj.kind != "punct" or tj.text != ")" or j not in parens:
            continue
        o = parens[j]
        before = o - 1
        if before < 0:
            continue
        tb = toks[before]
        if tb.kind == "punct" and tb.text == "]":
            fns.append({"name": "<lambda>", "const": False,
                        "line": t.line, "open": idx,
                        "close": braces[idx]})
            continue
        if tb.kind != "id" or tb.text in CTRL_KEYWORDS:
            continue
        fns.append({"name": tb.text, "const": is_const,
                    "line": tb.line, "open": idx,
                    "close": braces[idx]})
    return fns


def find_structs(toks, braces):
    """[(name, open_idx, close_idx, line)] for struct/class blocks."""
    out = []
    for idx, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("struct", "class"):
            continue
        if idx > 0 and toks[idx - 1].kind == "id" and \
                toks[idx - 1].text == "enum":
            continue  # enum class: constants are not fields
        if idx + 1 >= len(toks) or toks[idx + 1].kind != "id":
            continue
        name = toks[idx + 1].text
        k = idx + 2
        while k < len(toks) and toks[k].text not in \
                ("{", ";", "(", ")", "="):
            k += 1
        if k < len(toks) and toks[k].text == "{" and k in braces:
            out.append((name, k, braces[k], toks[idx + 1].line))
    return out


FIELD_SKIP_LEAD = {"using", "typedef", "static", "friend", "template",
                   "operator", "public", "private", "protected",
                   "struct", "class", "enum", "union", "explicit",
                   "virtual", "constexpr", "inline"}


def struct_fields(toks, braces, open_idx, close_idx):
    """Field declarations directly inside a struct block.

    Returns [(name, line, type_tokens, initialized)]. Member
    functions (any run containing '(') and nested types are skipped;
    a brace or '=' initializer marks the field initialized.
    """
    fields = []
    run = []
    i = open_idx + 1
    while i < close_idx:
        t = toks[i]
        if t.kind == "punct" and t.text == "{":
            close = braces.get(i, close_idx)
            if any(x.kind == "punct" and x.text == "(" for x in run) \
                    or (run and run[0].kind == "id" and
                        run[0].text in FIELD_SKIP_LEAD):
                run = []  # method body / nested type: not a field
            else:
                run.append(t)  # brace initializer
            i = close + 1
            continue
        if t.kind == "punct" and t.text == ";":
            if run:
                fields.append(run)
            run = []
            i += 1
            continue
        run.append(t)
        i += 1

    out = []
    for run in fields:
        if run[0].kind == "id" and run[0].text in FIELD_SKIP_LEAD:
            continue
        if any(x.kind == "punct" and x.text == "(" for x in run):
            continue  # function declaration
        name_idx = None
        for k, x in enumerate(run):
            if x.kind == "punct" and x.text in ("=", "{", "[", ":"):
                break
            if x.kind == "id":
                name_idx = k
        if name_idx is None:
            continue
        initialized = any(
            x.kind == "punct" and x.text in ("=", "{") for x in run)
        out.append((run[name_idx].text, run[name_idx].line,
                    run[:name_idx], initialized))
    return out


# --- per-file model --------------------------------------------------

class FileModel:
    """Tokens plus the structural facts every rule consumes."""

    def __init__(self, path, text):
        self.path = path
        self.lines = text.splitlines()
        self.toks = tokenize(text)
        self.braces = match_pairs(self.toks, "{", "}")
        self.parens = match_pairs(self.toks, "(", ")")
        self.functions = find_functions(self.toks, self.braces,
                                        self.parens)
        self.structs = find_structs(self.toks, self.braces)

    def excerpt(self, line):
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def allowed(self, line, rule):
        return allowed(self.lines, line - 1, rule)


# --- determinism rules (token engine) --------------------------------

UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset"}
ORDERED = {"map", "set", "multimap", "multiset"}


def skip_angles(toks, i):
    """i indexes '<'; return the index just past the matching '>'."""
    depth = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == "<<":
                depth += 2
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t.text in (";", "{"):
                return i  # not a template argument list after all
        i += 1
    return i


def unordered_names(model):
    """Names declared with an unordered container type."""
    names = set()
    toks = model.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in UNORDERED:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        j = skip_angles(toks, i + 1)
        if j < len(toks) and toks[j].kind == "id" and \
                j + 1 < len(toks) and toks[j + 1].text in \
                (";", "=", "{", ","):
            names.add(toks[j].text)
    return names


def rule_unordered_iteration(model, report):
    hot = unordered_names(model)
    if not hot:
        return
    toks = model.toks
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in hot:
            # NAME.begin( / NAME->begin(
            if i + 2 < len(toks) and toks[i + 1].text in (".", "->") \
                    and toks[i + 2].text == "begin":
                if not model.allowed(t.line, "unordered-iteration"):
                    report(model.path, t.line, "unordered-iteration",
                           model.excerpt(t.line))
            # for ( ... : [&] NAME )
            if i + 1 < len(toks) and toks[i + 1].text == ")":
                k = i - 1
                if k >= 0 and toks[k].text in ("&", "*"):
                    k -= 1
                if k >= 0 and toks[k].text == ":":
                    if not model.allowed(t.line,
                                         "unordered-iteration"):
                        report(model.path, t.line,
                               "unordered-iteration",
                               model.excerpt(t.line))


ENTROPY_CALLS = {"rand", "srand", "gettimeofday"}
ENTROPY_CHRONO = {"system_clock", "high_resolution_clock"}


def rule_ambient_entropy(model, report):
    toks = model.toks

    def flag(line):
        if not model.allowed(line, "ambient-entropy"):
            report(model.path, line, "ambient-entropy",
                   model.excerpt(line))

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        prev = toks[i - 1] if i > 0 else None
        member = prev is not None and prev.kind == "punct" and \
            prev.text in (".", "->")
        # A call never follows a type name; `unsigned rand()` is a
        # (questionable but different) declaration, not a use.
        decl = prev is not None and prev.kind == "id" and \
            prev.text not in ("return", "co_return", "case", "else",
                              "do", "goto")
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        calls = nxt is not None and nxt.text == "(" and not decl
        if t.text in ENTROPY_CALLS and calls and not member:
            flag(t.line)
        elif t.text == "time" and calls and not member:
            # time(), time(NULL), time(nullptr), time(0)
            arg = toks[i + 2] if i + 2 < len(toks) else None
            close = toks[i + 3] if i + 3 < len(toks) else None
            if arg is not None and (
                    arg.text == ")" or
                    (arg.text in ("NULL", "nullptr", "0") and
                     close is not None and close.text == ")")):
                flag(t.line)
        elif t.text == "clock" and calls and not member:
            arg = toks[i + 2] if i + 2 < len(toks) else None
            if arg is not None and arg.text == ")":
                flag(t.line)
        elif t.text == "random_device":
            flag(t.line)
        elif t.text in ENTROPY_CHRONO and prev is not None and \
                prev.text == "::":
            flag(t.line)


def rule_pointer_keyed_order(model, report):
    toks = model.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ORDERED:
            continue
        if i < 2 or toks[i - 1].text != "::" or \
                toks[i - 2].text != "std":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        # Scan the first template argument (the key type).
        depth, j = 0, i + 1
        star = False
        while j < len(toks):
            x = toks[j]
            if x.kind == "punct":
                if x.text == "<":
                    depth += 1
                elif x.text in (">", ">>"):
                    depth -= 2 if x.text == ">>" else 1
                    if depth <= 0:
                        break
                elif x.text == "," and depth == 1:
                    break
                elif x.text == "*" and depth == 1:
                    star = True
                elif x.text in (";", "{"):
                    break
            j += 1
        if star and not model.allowed(t.line, "pointer-keyed-order"):
            report(model.path, t.line, "pointer-keyed-order",
                   model.excerpt(t.line))


def rule_unconditional_tick(model, report):
    toks = model.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "for":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(" or \
                (i + 1) not in model.parens:
            continue
        close = model.parens[i + 1]
        inner = toks[i + 2:close]
        if not any(x.kind == "punct" and x.text == ":"
                   for x in inner) or \
                any(x.kind == "punct" and x.text == ";"
                    for x in inner):
            continue  # not a range-for
        k = close + 1
        if k < len(toks) and toks[k].text == "{":
            k += 1
        if k + 3 < len(toks) and toks[k].kind == "id" and \
                toks[k + 1].text in (".", "->") and \
                toks[k + 2].text == "tick" and \
                toks[k + 3].text == "(":
            if not model.allowed(t.line, "unconditional-tick"):
                report(model.path, t.line, "unconditional-tick",
                       model.excerpt(t.line))


# --- missing-field-init (token engine) -------------------------------

INIT_STRUCT_RE = re.compile(
    r"(Packet|Flit|Config|Params|Fields|Shape)$")
SCALAR_QUALS = {"mutable", "const", "volatile", "unsigned", "signed",
                "long", "short"}
SCALAR_NAMES = {"bool", "char", "short", "int", "long", "unsigned",
                "float", "double", "size_t",
                "uint8_t", "uint16_t", "uint32_t", "uint64_t",
                "int8_t", "int16_t", "int32_t", "int64_t",
                "ptrdiff_t",
                "Cycle", "Addr", "NodeId", "ThreadId", "OneHot",
                "MsgType"}


def scalar_type(type_toks):
    """Do the pre-name tokens spell a scalar (or scalar-pointer)?"""
    core = []
    for t in type_toks:
        if t.kind == "id" and t.text in SCALAR_QUALS:
            continue
        if t.kind == "id" and t.text == "std":
            continue
        if t.kind == "punct" and t.text in ("::", "*"):
            continue
        core.append(t)
    if not core:
        # e.g. `unsigned x;` -- the qualifiers alone name the type.
        return any(t.kind == "id" and t.text in
                   ("unsigned", "signed", "long", "short", "const",
                    "mutable") for t in type_toks)
    return len(core) == 1 and core[0].kind == "id" and \
        core[0].text in SCALAR_NAMES


def rule_missing_field_init(model, report):
    for name, sopen, sclose, _ in model.structs:
        if not INIT_STRUCT_RE.search(name):
            continue
        for fname, fline, type_toks, initialized in \
                struct_fields(model.toks, model.braces, sopen,
                              sclose):
            if initialized or not scalar_type(type_toks):
                continue
            if not model.allowed(fline, "missing-field-init"):
                report(model.path, fline, "missing-field-init",
                       model.excerpt(fline))


# --- protocol-contract rules (structural engine) ---------------------

MUTATING_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                "<<=", ">>="}


def member_like(toks, idx):
    """toks[idx] names a member: trailing-underscore convention or
    an explicit this-> access."""
    t = toks[idx]
    if t.kind != "id":
        return False
    if t.text.endswith("_"):
        return True
    return idx >= 2 and toks[idx - 1].text == "->" and \
        toks[idx - 2].text == "this"


def rule_nextwake_impure(model, report):
    toks = model.toks
    for fn in model.functions:
        if fn["name"] != "nextWake":
            continue
        if not fn["const"]:
            if not model.allowed(fn["line"], "nextwake-impure"):
                report(model.path, fn["line"], "nextwake-impure",
                       model.excerpt(fn["line"]))
        for i in range(fn["open"] + 1, fn["close"]):
            t = toks[i]
            if t.kind != "punct":
                continue
            if t.text in MUTATING_OPS and t.text != "=":
                if i > 0 and member_like(toks, i - 1) and \
                        not model.allowed(t.line, "nextwake-impure"):
                    report(model.path, t.line, "nextwake-impure",
                           model.excerpt(t.line))
            elif t.text == "=":
                # Assignment, not comparison: the tokenizer already
                # folded ==/<=/>=/!= into single tokens.
                if i > 0 and member_like(toks, i - 1) and \
                        not model.allowed(t.line, "nextwake-impure"):
                    report(model.path, t.line, "nextwake-impure",
                           model.excerpt(t.line))
            elif t.text in ("++", "--"):
                for adj in (i - 1, i + 1):
                    if 0 <= adj < len(toks) and \
                            member_like(toks, adj):
                        if not model.allowed(t.line,
                                             "nextwake-impure"):
                            report(model.path, t.line,
                                   "nextwake-impure",
                                   model.excerpt(t.line))
                        break


def charge_sites(toks, lo, hi):
    """Token indexes of `counters.blockedIdleCycles` mutations."""
    sites = []
    for i in range(lo, hi):
        t = toks[i]
        if t.kind != "id" or t.text != "blockedIdleCycles":
            continue
        if i < 2 or toks[i - 1].text != "." or \
                toks[i - 2].text != "counters":
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        if nxt is not None and nxt.kind == "punct" and \
                (nxt.text in MUTATING_OPS or nxt.text in
                 ("++", "--")):
            sites.append(i)
            continue
        # Prefix ++/--: walk back over the object path to the head.
        h = i - 2
        while h >= 2 and toks[h - 1].text in (".", "->"):
            h -= 2
        if h >= 1 and toks[h - 1].text in ("++", "--"):
            sites.append(i)
    return sites


def has_ledger_charge(toks, lo, hi):
    for i in range(lo, hi):
        t = toks[i]
        if t.kind != "id":
            continue
        if t.text == "chargeCohCauses":
            return True
        if t.text == "charge" and i >= 2 and \
                toks[i - 1].text in (".", "->") and \
                toks[i - 2].kind == "id" and \
                toks[i - 2].text.startswith("ledger"):
            return True
    return False


def rule_ledger_site(model, report):
    toks = model.toks
    for fn in model.functions:
        lo, hi = fn["open"] + 1, fn["close"]
        sites = charge_sites(toks, lo, hi)
        if not sites:
            continue
        if has_ledger_charge(toks, lo, hi):
            continue
        for i in sites:
            line = toks[i].line
            if not model.allowed(line, "ledger-site"):
                report(model.path, line, "ledger-site",
                       model.excerpt(line))


STATS_STRUCT_RE = re.compile(r"(Stats|Counters)$")


def stats_struct_fields(model):
    """[(struct, field, line, allowed)] for *Stats/*Counters."""
    out = []
    for name, sopen, sclose, _ in model.structs:
        if not STATS_STRUCT_RE.search(name):
            continue
        for fname, fline, _, _ in \
                struct_fields(model.toks, model.braces, sopen,
                              sclose):
            out.append((name, fname, fline,
                        model.allowed(fline, "stats-registration")))
    return out


REGISTER_FN_RE = re.compile(r"^register\w*Stats$")


def registered_identifiers(model):
    """All identifiers inside register*Stats() bodies (the stats
    walks: registerStats, registerAggregateStats, ...)."""
    ids = set()
    for fn in model.functions:
        if not REGISTER_FN_RE.match(fn["name"]):
            continue
        for i in range(fn["open"] + 1, fn["close"]):
            if model.toks[i].kind == "id":
                ids.add(model.toks[i].text)
    return ids


def check_stats_registration(per_file_fields, registered, report):
    """Cross-file pass: a partially registered stats struct must be
    fully registered. Structs with no registered field at all are
    out of scope (they aggregate through other paths, e.g. the
    result-cache merges ThreadCounters structurally)."""
    by_struct = {}
    for path, rows in per_file_fields:
        for sname, fname, fline, allow in rows:
            by_struct.setdefault((path, sname), []).append(
                (fname, fline, allow))
    for (path, sname), rows in sorted(by_struct.items()):
        names = {f for f, _, _ in rows}
        if not names & registered:
            continue
        for fname, fline, allow in rows:
            if fname in registered or allow:
                continue
            report(path, fline, "stats-registration",
                   f"{sname}::{fname} is never registered")


# --- optional libclang engine ---------------------------------------

def try_libclang(paths):
    """AST versions of two rules when python-clang is installed.

    Returns None when the bindings are unavailable (the common case
    in this repo's container); callers then rely on the tokenizer
    engine alone. Findings are (path, line, rule, excerpt) tuples.
    """
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return None

    from clang.cindex import CursorKind, Index

    findings = []
    index = Index.create()
    for path in paths:
        if not path.endswith((".cc", ".cpp", ".cxx")):
            continue
        tu = index.parse(path, args=["-std=c++20", "-I", "src"])
        for cur in tu.cursor.walk_preorder():
            if str(cur.location.file) != path:
                continue
            if cur.kind == CursorKind.CXX_FOR_RANGE_STMT:
                children = list(cur.get_children())
                if children and "unordered_" in (
                        children[-2].type.spelling
                        if len(children) >= 2 else ""):
                    findings.append(
                        (path, cur.location.line,
                         "unordered-iteration", cur.spelling or ""))
            if cur.kind == CursorKind.FIELD_DECL:
                parent = cur.semantic_parent
                if parent is None or not re.search(
                        r"(Packet|Flit|Config|Params|Fields|Shape)$",
                        parent.spelling or ""):
                    continue
                if cur.type.get_canonical().kind.name in (
                        "BOOL", "INT", "UINT", "ULONG", "LONG",
                        "FLOAT", "DOUBLE", "POINTER", "ENUM",
                        "UCHAR", "CHAR_S", "USHORT", "SHORT",
                        "ULONGLONG", "LONGLONG"):
                    toks = " ".join(
                        t.spelling for t in cur.get_tokens())
                    if "=" not in toks and "{" not in toks:
                        findings.append(
                            (path, cur.location.line,
                             "missing-field-init", toks))
    return findings


# --- driver ----------------------------------------------------------

PER_FILE_RULES = (
    rule_unordered_iteration,
    rule_ambient_entropy,
    rule_pointer_keyed_order,
    rule_unconditional_tick,
    rule_missing_field_init,
    rule_nextwake_impure,
    rule_ledger_site,
)


def collect(roots):
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        if not os.path.isdir(root):
            print(f"simlint: no such file or directory: {root}",
                  file=sys.stderr)
            sys.exit(2)
        matched = []
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(CXX_EXT):
                    matched.append(os.path.join(dirpath, name))
        if not matched:
            # An empty lint run must not report green: CI pointing
            # at a renamed directory would silently check nothing.
            print(f"simlint: no C++ sources under: {root}",
                  file=sys.stderr)
            sys.exit(2)
        files += matched
    return sorted(set(files))


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        for rule, what in RULES.items():
            print(f"{rule:22} {what}")
        return 0
    if not args:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    findings = []

    def report(path, lineno, rule, excerpt):
        findings.append((path, lineno, rule, excerpt))

    files = collect(args)
    stats_rows = []
    registered = set()
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        model = FileModel(path, text)
        for rule in PER_FILE_RULES:
            rule(model, report)
        stats_rows.append((path, stats_struct_fields(model)))
        registered |= registered_identifiers(model)

    check_stats_registration(stats_rows, registered, report)

    ast = try_libclang(files)
    if ast:
        known = {(p, ln, r) for p, ln, r, _ in findings}
        findings += [f for f in ast if f[:3] not in known]

    for path, lineno, rule, excerpt in sorted(set(findings)):
        print(f"{path}:{lineno}: [{rule}] {RULES[rule]}")
        print(f"    {excerpt[:100]}")
    n = len(set(findings))
    print(f"simlint: {len(files)} files, "
          f"{n} finding{'s' if n != 1 else ''}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
