"""frontend_builtin — the self-contained C++ frontend of ftmr-lint.

It needs no compiler bindings, so the same frontend runs in CI, on
developer machines and in hermetic containers. It is a real structural
parser over the cpplex token stream — it tracks namespace / class /
function / block scopes, member and local declarations, scoped lock
lifetimes and call expressions — not a set of line regexes. It lowers to
the event IR in model.py, which the self-test fixtures pin.

Known approximations (shared with the checks' design):
  * both arms of an #if are lexed; the parser tolerates the extra tokens;
  * liveness is linearized per function (see model.ScopeTracker);
  * receiver types resolve through one level of member/local declarations.
"""

from __future__ import annotations

import os

from cpplex import IDENT, PUNCT, lex
from model import ClassInfo, Event, FileIR, FunctionIR, Model, parse_allows

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "do", "else", "case", "default", "goto", "break",
    "continue", "alignof", "alignas", "decltype", "static_assert",
    "co_await", "co_return", "co_yield", "assert",
}

_TYPE_QUALS = {
    "const", "mutable", "static", "inline", "constexpr", "volatile",
    "unsigned", "signed", "long", "short", "struct", "class", "typename",
    "friend", "extern", "explicit", "virtual", "thread_local", "register",
    "auto", "void", "bool", "char", "int", "float", "double", "size_t",
    "noexcept", "override", "final", "nodiscard", "maybe_unused",
}

# Scoped-lock declarations that begin a lock's lifetime.
_SCOPED_LOCK_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock"}

# Trailing tokens legal between a function's `)` and its `{` body.
_FN_ANNOT_MACROS = {
    "FTMR_REQUIRES", "FTMR_EXCLUDES", "FTMR_ACQUIRE", "FTMR_RELEASE",
    "FTMR_TRY_ACQUIRE", "FTMR_ASSERT_CAPABILITY", "FTMR_RETURN_CAPABILITY",
    "FTMR_NO_THREAD_SAFETY_ANALYSIS", "FTMR_MAY_PARK",
}


def _join_expr(tokens) -> str:
    out = []
    for t in tokens:
        if out and t.kind == IDENT and out[-1] and out[-1][-1].isalnum():
            out.append(" " + t.text)
        else:
            out.append(t.text)
    return "".join(out).strip()


class _Scanner:
    """Structural pass over one file: classes, members, function spans."""

    def __init__(self, toks, path):
        self.toks = toks
        self.path = path
        self.classes = {}      # name -> ClassInfo (members hold raw type text)
        self.decl_annots = []  # (cls, name, set(annots), [requires exprs])
        self.fn_spans = []     # (FunctionIR, body_start, body_end)

    # -- token helpers -----------------------------------------------------
    def _match_balanced(self, i, open_c, close_c):
        """toks[i] == open_c; return index just past the matching close."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == open_c:
                depth += 1
            elif t == close_c:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    def _skip_template_args(self, i):
        """toks[i] == '<': best-effort skip of template args; returns index
        past '>' or i if this doesn't look like template args."""
        depth = 0
        j = i
        n = len(self.toks)
        while j < n and j - i < 64:
            t = self.toks[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t in (";", "{", "}") or self.toks[j].kind == "string":
                return i
            j += 1
        return i

    def _ident_chain_end(self, i):
        """Starting at ident toks[i], consume ident ('::' ident)*; returns
        (name, next_index)."""
        parts = [self.toks[i].text]
        j = i + 1
        n = len(self.toks)
        while j + 1 < n and self.toks[j].text == "::" and self.toks[j + 1].kind == IDENT:
            parts.append(self.toks[j + 1].text)
            j += 2
        return "::".join(parts), j

    # -- structural scan ---------------------------------------------------
    def scan(self):
        self._scan_region(0, len(self.toks), ctx=[])
        return self

    def _class_of_ctx(self, ctx):
        for kind, name in reversed(ctx):
            if kind == "class":
                return name
        return ""

    def _scan_region(self, i, end, ctx):
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.kind != IDENT:
                if t.text == "{":  # stray block (e.g. extern "C")
                    close = self._match_balanced(i, "{", "}")
                    self._scan_region(i + 1, close - 1, ctx)
                    i = close
                    continue
                i += 1
                continue
            if t.text == "namespace":
                j = i + 1
                name_parts = []
                while j < end and (toks[j].kind == IDENT or toks[j].text == "::"):
                    if toks[j].kind == IDENT:
                        name_parts.append(toks[j].text)
                    j += 1
                if j < end and toks[j].text == "{":
                    close = self._match_balanced(j, "{", "}")
                    self._scan_region(j + 1, close - 1,
                                      ctx + [("ns", "::".join(name_parts) or "<anon>")])
                    i = close
                else:  # alias or odd form
                    while j < end and toks[j].text != ";":
                        j += 1
                    i = j + 1
                continue
            if t.text in ("class", "struct", "union"):
                i = self._scan_class(i, end, ctx)
                continue
            if t.text == "enum":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";"):
                    j += 1
                i = self._match_balanced(j, "{", "}") if j < end and toks[j].text == "{" else j + 1
                continue
            if t.text == "template":
                j = i + 1
                if j < end and toks[j].text == "<":
                    k = self._skip_template_args(j)
                    i = k if k != j else j + 1
                else:
                    i = j
                continue
            if t.text in ("using", "typedef"):
                j = i
                while j < end and toks[j].text != ";":
                    if toks[j].text == "{":
                        j = self._match_balanced(j, "{", "}") - 1
                    j += 1
                i = j + 1
                continue
            i = self._scan_declaration(i, end, ctx)

    def _scan_class(self, i, end, ctx):
        toks = self.toks
        j = i + 1
        name = ""
        while j < end:
            t = toks[j]
            if t.kind == IDENT and t.text not in ("final", "alignas") and \
                    not t.text.startswith("FTMR_"):
                name = t.text
            elif t.text == "(":  # attribute macro args e.g. FTMR_CAPABILITY("mutex")
                j = self._match_balanced(j, "(", ")") - 1
            elif t.text == ":":
                # base clause: scan to the body '{'
                while j < end and toks[j].text != "{":
                    if toks[j].text == "<":
                        k = self._skip_template_args(j)
                        j = k - 1 if k != j else j
                    j += 1
                break
            elif t.text in ("{", ";"):
                break
            j += 1
        if j >= end or toks[j].text == ";":
            return j + 1  # forward declaration
        close = self._match_balanced(j, "{", "}")
        if name:
            self.classes.setdefault(name, ClassInfo(name=name))
            self._scan_region(j + 1, close - 1, ctx + [("class", name)])
        # skip trailing `;` / variable names
        k = close
        while k < end and toks[k].text != ";":
            k += 1
        return k + 1

    def _scan_declaration(self, i, end, ctx):
        """A declaration at namespace/class scope: member variable, function
        declaration, or function definition."""
        toks = self.toks
        j = i
        pre = []            # tokens before the parameter list / semicolon
        paren_at = -1
        while j < end:
            t = toks[j]
            if t.kind == IDENT and t.text.startswith("FTMR_") and \
                    j + 1 < end and toks[j + 1].text == "(":
                # annotation macro attached to a member declaration
                j = self._match_balanced(j + 1, "(", ")")
                continue
            if t.text == "(":
                paren_at = j
                break
            if t.text == "<":
                k = self._skip_template_args(j)
                if k != j:
                    j = k
                    continue
            if t.text in (";", "}"):
                self._record_member(pre, ctx)
                return j + 1
            if t.text == "{":
                # brace-initialized member: `std::atomic<bool> x{true};`
                close = self._match_balanced(j, "{", "}")
                self._record_member(pre, ctx)
                while close < end and toks[close].text != ";":
                    close += 1
                return close + 1
            if t.text == "=":
                self._record_member(pre, ctx)
                while j < end and toks[j].text != ";":
                    if toks[j].text == "{":
                        j = self._match_balanced(j, "{", "}") - 1
                    j += 1
                return j + 1
            pre.append(t)
            j += 1
        if paren_at < 0:
            return j + 1
        close_paren = self._match_balanced(paren_at, "(", ")")
        # Operator declarators: fold `operator==` etc. into the name.
        return self._scan_after_params(i, pre, paren_at, close_paren, end, ctx)

    def _scan_after_params(self, decl_start, pre, paren_at, close_paren, end, ctx):
        toks = self.toks
        annots = set()
        requires = []
        j = close_paren
        while j < end:
            t = toks[j]
            if t.kind == IDENT and t.text in _FN_ANNOT_MACROS:
                annots.add(t.text)
                if j + 1 < end and toks[j + 1].text == "(":
                    argc = self._match_balanced(j + 1, "(", ")")
                    if t.text == "FTMR_REQUIRES":
                        requires.extend(_split_args(toks[j + 2:argc - 1]))
                    j = argc
                    continue
                j += 1
                continue
            if t.text in ("const", "noexcept", "override", "final", "try",
                          "mutable", "&", "&&", "->", "::", "[", "]", "*") or \
                    t.kind == IDENT:
                if t.text == "noexcept" and j + 1 < end and toks[j + 1].text == "(":
                    j = self._match_balanced(j + 1, "(", ")")
                    continue
                j += 1
                continue
            if t.text == "<":
                k = self._skip_template_args(j)
                if k != j:
                    j = k
                    continue
                j += 1
                continue
            break
        name, cls = _declarator_name(pre, self._class_of_ctx(ctx))
        if j < end and toks[j].text == ":" and name and cls and \
                name.rsplit("::", 1)[-1] == cls.rsplit("::", 1)[-1].split("<")[0]:
            # constructor initializer list: walk member(…)/member{…} items
            j += 1
            while j < end:
                if toks[j].text == "(":
                    j = self._match_balanced(j, "(", ")")
                elif toks[j].text == "{":
                    # either a member brace-init followed by ',', or the body
                    close = self._match_balanced(j, "{", "}")
                    if close < end and toks[close].text == ",":
                        j = close + 1
                        continue
                    # check: is this `member{...} <body{>`? If the brace is
                    # directly preceded by ')' or an initializer comma chain
                    # ended, treat it as the body.
                    break
                elif toks[j].text in (";",):
                    break
                else:
                    j += 1
        if j >= end or toks[j].text != "{":
            # declaration only (or = default / = delete)
            if name:
                self.decl_annots.append((cls, name, annots, requires))
            k = j
            while k < end and toks[k].text != ";":
                if toks[k].text == "{":
                    k = self._match_balanced(k, "{", "}") - 1
                k += 1
            return k + 1
        body_close = self._match_balanced(j, "{", "}")
        if name:
            fn = FunctionIR(
                qname=(cls + "::" + name) if (cls and "::" not in name) else name,
                cls=cls or (name.rsplit("::", 1)[0] if "::" in name else ""),
                file=self.path, line=toks[decl_start].line)
            fn.may_park_annot = "FTMR_MAY_PARK" in annots
            fn.requires = [(r, "") for r in requires]
            fn.params = _parse_params(self.toks[paren_at + 1:close_paren - 1])
            self.fn_spans.append((fn, j + 1, body_close - 1))
        return body_close

    def _record_member(self, pre, ctx):
        cls = self._class_of_ctx(ctx)
        if not cls or not pre:
            return
        qualifiers = {"mutable", "static", "const", "constexpr", "inline",
                      "volatile", "thread_local", "alignas"}
        pre = [t for t in pre if not (t.kind == IDENT and t.text in qualifiers)]
        idents = [t for t in pre if t.kind == IDENT]
        if len(idents) < 2:
            return
        name = idents[-1].text
        type_toks = pre[:-1]
        # strip trailing &/* between type and name
        while type_toks and type_toks[-1].text in ("&", "*", "&&"):
            type_toks = type_toks[:-1]
        if not type_toks or type_toks[-1].kind != IDENT or type_toks[-1].text == name:
            # `pre` may end with the name itself; recompute
            pass
        type_text = _join_expr(type_toks)
        info = self.classes.setdefault(cls, ClassInfo(name=cls))
        info.members[name] = type_text
        base = type_text.rsplit("::", 1)[-1]
        if base in ("Mutex", "mutex") or type_text.endswith("std::mutex"):
            info.mutexes.add(name)


def _split_args(toks):
    out, cur, depth = [], [], 0
    for t in toks:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == "," and depth == 0:
            if cur:
                out.append(_join_expr(cur))
            cur = []
        else:
            cur.append(t)
    if cur:
        out.append(_join_expr(cur))
    return out


def _parse_params(toks):
    """Parameter list -> {name: principal type ident}."""
    params = {}
    for arg in _split_raw_args(toks):
        idents = [t for t in arg if t.kind == IDENT and t.text not in _TYPE_QUALS]
        if len(idents) >= 2:
            params[idents[-1].text] = idents[-2].text
        elif len(idents) == 1:
            # unnamed param or bare type; ignore
            pass
    return params


def _split_raw_args(toks):
    out, cur, depth = [], [], 0
    for t in toks:
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "<":
            depth += 1
        elif t.text in (">", ">>"):
            depth -= 1 if t.text == ">" else 2
        if t.text == "," and depth <= 0:
            out.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        out.append(cur)
    return out


def _declarator_name(pre, ctx_class):
    """From the tokens before a '(' pull the function name (possibly
    Class::name qualified) and its class."""
    if not pre:
        return "", ctx_class
    # operator overloads
    for k, t in enumerate(pre):
        if t.kind == IDENT and t.text == "operator":
            sym = "".join(x.text for x in pre[k + 1:])
            name = "operator" + sym
            cls = ctx_class
            if k >= 2 and pre[k - 1].text == "::" and pre[k - 2].kind == IDENT:
                cls = pre[k - 2].text
            return name, cls
    j = len(pre) - 1
    if pre[j].kind != IDENT:
        if pre[j].text == "~" :
            return "", ctx_class
        return "", ctx_class
    parts = [pre[j].text]
    j -= 1
    tilde = False
    while j >= 0:
        if pre[j].text == "~":
            tilde = True
            j -= 1
            continue
        if pre[j].text == "::" and j >= 1 and pre[j - 1].kind == IDENT:
            parts.insert(0, pre[j - 1].text)
            j -= 2
            continue
        break
    if tilde:
        parts[-1] = "~" + parts[-1]
    if len(parts) >= 2:
        return "::".join(parts[-2:]), parts[-2]
    name = parts[0]
    # Heuristic: a single trailing ident preceded by type tokens is the name.
    return name, ctx_class


# ---------------------------------------------------------------------------
# Function body parsing (pass B2): events.
# ---------------------------------------------------------------------------

class _BodyParser:
    def __init__(self, toks, fn: FunctionIR, classes, class_names, cfg):
        self.toks = toks
        self.fn = fn
        self.classes = classes
        self.class_names = class_names
        self.cfg = cfg
        self.locals = dict(fn.params)   # var -> type ident
        self.lock_vars = set()
        self.scope = [0]
        self.counter = [0]

    def _scope(self):
        return tuple(self.scope)

    def resolve_base(self, base: str) -> str:
        if not base:
            return ""
        if base == "this":
            return self.fn.cls
        ty = self.locals.get(base)
        if ty and ty in self.class_names:
            return ty
        cls = self.classes.get(self.fn.cls)
        if cls and base in cls.members:
            t = cls.members[base]
            for ident in reversed(t.replace("::", " ").replace("<", " ")
                                  .replace(">", " ").replace(",", " ").split()):
                if ident in self.class_names:
                    return ident
        return ""

    def canon_lock(self, expr: str) -> str:
        expr = expr.strip()
        for sep in ("->", "."):
            if sep in expr:
                base, member = expr.rsplit(sep, 1)
                base = base.split("(")[0].split("[")[0].strip().lstrip("*&")
                base = base.rsplit("->", 1)[-1].rsplit(".", 1)[-1].strip()
                member = member.strip()
                bcls = self.resolve_base(base)
                if bcls and member in self.classes.get(bcls, ClassInfo("")).mutexes:
                    return f"{bcls}::{member}"
                return ""
        member = expr
        cls = self.classes.get(self.fn.cls)
        if cls and member in cls.mutexes:
            return f"{self.fn.cls}::{member}"
        if self.locals.get(member) == "Mutex":
            return ""  # a Mutex& parameter: identity unknown statically
        return ""

    def parse(self, start, end):
        # canonicalize REQUIRES entry locks now that the registry is complete
        self.fn.requires = [(e, self.canon_lock(e)) for e, _ in self.fn.requires]
        toks = self.toks
        i = start
        while i < end:
            t = toks[i]
            if t.text == "{":
                self.counter[-1] += 1
                self.scope.append(self.counter[-1])
                self.counter.append(0)
                i += 1
                continue
            if t.text == "}":
                if len(self.scope) > 1:
                    self.scope.pop()
                    self.counter.pop()
                i += 1
                continue
            if t.kind != IDENT:
                i += 1
                continue
            name = t.text
            # --- macros that are calls in disguise (FTMR_WARN << ...) ---
            mapped = self.cfg.get("macro_ident_calls", {}).get(name)
            if mapped:
                self.fn.events.append(
                    Event("call", mapped, self._scope(), t.line))
                i += 1
                continue
            # --- scoped lock declaration ---
            if name in _SCOPED_LOCK_TYPES or (
                    name == "std" and i + 2 < end and toks[i + 1].text == "::"
                    and toks[i + 2].text in _SCOPED_LOCK_TYPES):
                i = self._scan_lock_decl(i, end)
                continue
            # --- local declaration of a known class type ---
            if name in self.class_names and name not in _KEYWORDS:
                nd = self._try_local_decl(i, end)
                if nd is not None:
                    i = nd
                    continue
            # --- call / chain ---
            chain, after = Scanner_chain(toks, i, end)
            if after < end and toks[after].text == "(" and chain not in _KEYWORDS:
                i = self._handle_call(i, chain, after, end)
                continue
            # template call `foo<T>(...)`
            if after < end and toks[after].text == "<":
                k = _skip_simple_template(toks, after, end)
                if k is not None and k < end and toks[k].text == "(" and \
                        chain not in _KEYWORDS:
                    i = self._handle_call(i, chain, k, end)
                    continue
            # --- watched-member mutation / banned type ---
            self._maybe_member_event(i, end)
            # The chain may be qualified (std::unordered_map): test every
            # component, not just the leading identifier.
            banned = self.cfg.get("banned_type_tokens", ())
            for part in chain.split("::"):
                if part in banned:
                    self.fn.events.append(
                        Event("type", part, self._scope(), t.line))
            i = after if after > i else i + 1
        return self

    def _scan_lock_decl(self, i, end):
        toks = self.toks
        # Consume the (possibly qualified) type name: ident(::ident)*.
        j = i + 1
        while j + 1 < end and toks[j].text == "::" and toks[j + 1].kind == IDENT:
            j += 2
        # template args
        if j < end and toks[j].text == "<":
            k = _skip_simple_template(toks, j, end)
            j = k if k is not None else j + 1
        if j >= end or toks[j].kind != IDENT:
            # `MutexLock(mu)` temporary or something else: skip the ident
            return i + 1
        var = toks[j].text
        j += 1
        if j >= end or toks[j].text not in ("(", "{"):
            return i + 1
        close = _match_balanced_at(toks, j, end)
        args = _split_args(toks[j + 1:close - 1])
        expr = args[0] if args else ""
        # std::adopt_lock / defer_lock in later args still means "held here"
        # for our purposes (adopt) — defer_lock is not used in this codebase.
        self.fn.events.append(Event(
            "acquire", expr, self._scope(), toks[i].line, var=var,
            canon=self.canon_lock(expr)))
        self.lock_vars.add(var)
        return close

    def _try_local_decl(self, i, end):
        toks = self.toks
        ty = toks[i].text
        j = i + 1
        while j < end and toks[j].text in ("&", "*", "&&", "const"):
            j += 1
        if j < end and toks[j].text == "<":
            k = _skip_simple_template(toks, j, end)
            if k is None:
                return None
            j = k
            while j < end and toks[j].text in ("&", "*", "&&", "const"):
                j += 1
        if j >= end or toks[j].kind != IDENT:
            return None
        var = toks[j].text
        nxt = toks[j + 1].text if j + 1 < end else ";"
        if nxt in ("=", ";", "(", "{", ",", ")"):
            self.locals[var] = ty
            return j + 1
        return None

    def _handle_call(self, i, chain, paren_at, end):
        toks = self.toks
        line = toks[i].line
        recv, recv_cls = "", ""
        if i > 0 and toks[i - 1].text in (".", "->"):
            recv = _receiver_before(toks, i - 1)
            recv_cls = self.resolve_base(recv)
        leaf = chain.rsplit("::", 1)[-1]
        # explicit Class::method calls carry their class
        if "::" in chain and not recv:
            recv_cls = chain.rsplit("::", 2)[-2]
        # A bare call through a local/parameter callable (std::function,
        # lambda) is opaque: it must not resolve by name to some method
        # that happens to share the identifier.
        if not recv and "::" not in chain and \
                (chain in self.fn.params or chain in self.locals):
            recv_cls = "<callable>"
        # lock variable manipulation
        if leaf in ("unlock", "lock") and recv:
            if recv in self.lock_vars:
                kind = "unlock" if leaf == "unlock" else "relock"
                self.fn.events.append(Event(kind, recv, self._scope(), line, var=recv))
                return _match_balanced_at(toks, paren_at, end)
            canon = self.canon_lock(recv)
            held_exprs = {e for e, _ in self.fn.requires} | \
                {ev.name for ev in self.fn.events if ev.kind == "acquire"}
            if canon or self.locals.get(recv) == "Mutex" or recv in held_exprs:
                if leaf == "lock":
                    if recv in held_exprs or recv in {e for e, _ in self.fn.requires}:
                        self.fn.events.append(
                            Event("relock", recv, self._scope(), line, var=recv))
                    else:
                        self.fn.events.append(Event(
                            "acquire", recv, self._scope(), line, var=recv,
                            canon=canon))
                else:
                    self.fn.events.append(
                        Event("unlock", recv, self._scope(), line, var=recv))
                return _match_balanced_at(toks, paren_at, end)
        self.fn.events.append(Event(
            "call", chain, self._scope(), line, recv=recv, recv_cls=recv_cls))
        return paren_at + 1  # descend into the argument list (nested calls)

    def _maybe_member_event(self, i, end):
        toks = self.toks
        t = toks[i]
        watched = self.cfg.get("watched_members", ())
        if t.text not in watched:
            return
        if i == 0 or toks[i - 1].text not in (".", "->"):
            return
        base = _receiver_before(toks, i - 1)
        nxt = toks[i + 1].text if i + 1 < end else ";"
        mutators = self.cfg.get("mutating_methods", ())
        is_mut = False
        if nxt in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"):
            is_mut = True
        elif nxt in (".", "->") and i + 2 < end and toks[i + 2].text in mutators \
                and i + 3 < end and toks[i + 3].text == "(":
            is_mut = True
        else:
            # prefix ++/-- before the base expression
            j = i - 2
            while j >= 0 and toks[j].kind == IDENT or (j >= 0 and toks[j].text in
                                                      (".", "->", "]", ")")):
                if toks[j].text in ("]", ")"):
                    j = _match_balanced_back(toks, j)
                j -= 1
            if j >= 0 and toks[j].text in ("++", "--"):
                is_mut = True
        if is_mut:
            self.fn.events.append(Event(
                "mutate", t.text, self._scope(), t.line, recv=base,
                recv_cls=self.resolve_base(base)))


def Scanner_chain(toks, i, end):
    parts = [toks[i].text]
    j = i + 1
    while j + 1 < end and toks[j].text == "::" and toks[j + 1].kind == IDENT:
        parts.append(toks[j + 1].text)
        j += 2
    return "::".join(parts), j


def _skip_simple_template(toks, i, end):
    """toks[i] == '<'; return index past matching '>' if the contents look
    like template args, else None."""
    depth = 0
    j = i
    while j < end and j - i < 48:
        t = toks[j]
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t.text == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t.text in (";", "{", "}", "&&", "||") or t.kind == "string":
            return None
        j += 1
    return None


def _match_balanced_at(toks, i, end):
    open_c = toks[i].text
    close_c = {"(": ")", "{": "}", "[": "]"}[open_c]
    depth = 0
    while i < end:
        if toks[i].text == open_c:
            depth += 1
        elif toks[i].text == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return end


def _match_balanced_back(toks, i):
    close_c = toks[i].text
    open_c = {")": "(", "]": "["}[close_c]
    depth = 0
    while i >= 0:
        if toks[i].text == close_c:
            depth += 1
        elif toks[i].text == open_c:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return 0


def _receiver_before(toks, dot_i):
    """Best-effort simple receiver for the '.'/'->' at dot_i: the last
    plain identifier of the base expression."""
    j = dot_i - 1
    if j >= 0 and toks[j].text in (")", "]"):
        j = _match_balanced_back(toks, j) - 1
    if j >= 0 and toks[j].kind == IDENT:
        return toks[j].text
    return ""


# ---------------------------------------------------------------------------
# Project-level driver.
# ---------------------------------------------------------------------------

class BuiltinFrontend:
    name = "builtin"

    def __init__(self, cfg):
        self.cfg = cfg

    def parse_project(self, units, root) -> Model:
        """units: list of (source_path, include_dirs). Parses each TU's main
        file plus the project headers it includes (transitively), each file
        once."""
        model = Model(root=os.path.abspath(root))
        lexed = {}     # path -> (tokens, comments, includes)
        incdirs_of = {}

        def want(path):
            p = os.path.abspath(path)
            return p.startswith(model.root + os.sep) and os.path.isfile(p)

        queue = []
        for src, incs in units:
            src = os.path.abspath(src)
            if want(src):
                queue.append((src, incs))
        seen = set()
        while queue:
            path, incs = queue.pop()
            if path in seen:
                continue
            seen.add(path)
            try:
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    text = f.read()
            except OSError:
                continue
            toks, comments, includes = lex(text)
            lexed[path] = (toks, comments)
            incdirs_of[path] = incs
            for _line, inc in includes:
                cand = []
                cand.append(os.path.join(os.path.dirname(path), inc))
                for d in incs:
                    cand.append(os.path.join(d, inc))
                for c in cand:
                    c = os.path.abspath(c)
                    if want(c):
                        queue.append((c, incs))
                        break

        excluded = tuple(self.cfg.get("exclude_files", ()))

        # Pass B1: structure.
        scanners = {}
        for path, (toks, comments) in lexed.items():
            rel = model.rel(path)
            if any(rel.endswith(e) for e in excluded):
                continue
            sc = _Scanner(toks, path).scan()
            scanners[path] = sc
            fir = FileIR(path=path)
            fir.allows, fir.allow_errors = parse_allows(comments)
            model.files[path] = fir
            for name, info in sc.classes.items():
                if name in model.classes:
                    model.classes[name].members.update(info.members)
                    model.classes[name].mutexes |= info.mutexes
                else:
                    model.classes[name] = info

        class_names = set(model.classes.keys())

        # Merge declaration annotations (FTMR_MAY_PARK / REQUIRES on decls).
        decl_annots = {}
        for sc in scanners.values():
            for cls, name, annots, requires in sc.decl_annots:
                leaf = name.rsplit("::", 1)[-1]
                key = (cls or (name.rsplit("::", 1)[0] if "::" in name else ""), leaf)
                cur = decl_annots.setdefault(key, (set(), []))
                cur[0].update(annots)
                cur[1].extend(requires)

        # Pass B2: function bodies.
        for path, sc in scanners.items():
            for fn, b0, b1 in sc.fn_spans:
                key = (fn.cls, fn.name)
                if key in decl_annots:
                    annots, reqs = decl_annots[key]
                    fn.may_park_annot |= "FTMR_MAY_PARK" in annots
                    have = {e for e, _ in fn.requires}
                    for r in reqs:
                        if r not in have:
                            fn.requires.append((r, ""))
                # Canonicalize REQUIRES exprs: a bare member name held on
                # entry resolves against the owning class.
                resolved = []
                for expr, canon in fn.requires:
                    if not canon and fn.cls:
                        ci = model.classes.get(fn.cls)
                        leaf = expr.rsplit("->", 1)[-1].rsplit(".", 1)[-1]
                        if ci and (leaf in ci.mutexes or leaf in ci.members):
                            canon = f"{fn.cls}::{leaf}"
                    resolved.append((expr, canon))
                fn.requires = resolved
                _BodyParser(sc.toks, fn, model.classes, class_names,
                            self.cfg).parse(b0, b1)
                model.files[path].functions.append(fn)
                model.functions.append(fn)
        return model
