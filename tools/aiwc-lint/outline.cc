#include "outline.hh"

#include <algorithm>
#include <set>

namespace aiwc::lint
{

namespace
{

bool
isPunct(const std::vector<Token> &ts, std::size_t i, const char *text)
{
    return i < ts.size() && ts[i].kind == TokenKind::Punct &&
           ts[i].text == text;
}

bool
isIdent(const std::vector<Token> &ts, std::size_t i, const char *text)
{
    return i < ts.size() && ts[i].kind == TokenKind::Identifier &&
           ts[i].text == text;
}

/** Index just past the '}' matching ts[open] == "{". */
std::size_t
skipBraces(const std::vector<Token> &ts, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        if (isPunct(ts, i, "{"))
            ++depth;
        else if (isPunct(ts, i, "}") && --depth == 0)
            return i + 1;
    }
    return ts.size();
}

/** Index just past the '>' matching ts[open] == "<". */
std::size_t
skipAngles(const std::vector<Token> &ts, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        if (isPunct(ts, i, "<"))
            ++depth;
        else if (isPunct(ts, i, ">") && --depth == 0)
            return i + 1;
        else if (isPunct(ts, i, ";"))  // runaway: not a template list
            return open + 1;
    }
    return ts.size();
}

/** Index just past the ']]' matching ts[open] == "[" "[" (attribute). */
std::size_t
skipAttribute(const std::vector<Token> &ts, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        if (isPunct(ts, i, "["))
            ++depth;
        else if (isPunct(ts, i, "]") && --depth == 0)
            return i + 1;
    }
    return ts.size();
}

/** Index just past the ')' matching ts[open] == "(". */
std::size_t
skipParens(const std::vector<Token> &ts, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        if (isPunct(ts, i, "("))
            ++depth;
        else if (isPunct(ts, i, ")") && --depth == 0)
            return i + 1;
    }
    return ts.size();
}

/** Advance past the next ';' at brace depth 0 (or a top-level '{...}'). */
std::size_t
skipStatement(const std::vector<Token> &ts, std::size_t i)
{
    while (i < ts.size()) {
        if (isPunct(ts, i, ";"))
            return i + 1;
        if (isPunct(ts, i, "{"))
            return skipBraces(ts, i);
        ++i;
    }
    return i;
}

/**
 * ts[i] == ":" after a constructor's parameter list: skip the member
 * initializer list (each item is a possibly qualified name followed by
 * a parenthesized or braced initializer) and return the index of the
 * body '{' — or wherever scanning stopped on unexpected input.
 */
std::size_t
skipCtorInit(const std::vector<Token> &ts, std::size_t i)
{
    ++i;  // ':'
    while (i < ts.size()) {
        while (i < ts.size() &&
               (ts[i].kind == TokenKind::Identifier || isPunct(ts, i, "::")))
            ++i;
        if (isPunct(ts, i, "<")) {
            i = skipAngles(ts, i);
            continue;  // templated base class name
        }
        if (isPunct(ts, i, "("))
            i = skipParens(ts, i);
        else if (isPunct(ts, i, "{"))
            i = skipBraces(ts, i);
        else
            return i;
        if (isPunct(ts, i, ",")) {
            ++i;
            continue;
        }
        return i;  // the body '{' (or ';' on malformed input)
    }
    return i;
}

// ---------------------------------------------------------------------------
// v3: capability annotation capture. The lock-order graph reads
// AIWC_ACQUIRED_BEFORE and AIWC_REQUIRES straight from the token stream;
// the other annotation macros are recognised only so declarations parse
// through them (clang's -Wthread-safety checks what they say).

struct AnnotationCapture {
    std::vector<std::string> acquired_before;
    std::vector<std::string> requires_locks;
};

bool
isAnnotationMacro(const std::string &s)
{
    return s == "AIWC_GUARDED_BY" || s == "AIWC_PT_GUARDED_BY" ||
           s == "AIWC_ACQUIRED_BEFORE" || s == "AIWC_REQUIRES" ||
           s == "AIWC_EXCLUDES";
}

/**
 * ts[i] is an annotation macro name with ts[i + 1] == "(": record the
 * comma-separated arguments of AIWC_ACQUIRED_BEFORE / AIWC_REQUIRES
 * (each joined to one string, e.g. "other.mutex_") into `cap` and
 * return the index past the ')'.
 */
std::size_t
parseAnnotation(const std::vector<Token> &ts, std::size_t i,
                AnnotationCapture &cap)
{
    const std::string &macro = ts[i].text;
    const std::size_t end = skipParens(ts, i + 1);
    std::vector<std::string> *into =
        macro == "AIWC_ACQUIRED_BEFORE" ? &cap.acquired_before
        : macro == "AIWC_REQUIRES"      ? &cap.requires_locks
                                        : nullptr;
    if (into == nullptr)
        return end;
    std::string cur;
    int depth = 0;
    for (std::size_t k = i + 2; k + 1 < end; ++k) {
        const Token &t = ts[k];
        if (t.kind == TokenKind::Comment || t.kind == TokenKind::PpDirective)
            continue;
        if (t.kind == TokenKind::Punct) {
            if (t.text == "(" || t.text == "[" || t.text == "<") {
                ++depth;
            } else if (t.text == ")" || t.text == "]" || t.text == ">") {
                --depth;
            } else if (t.text == "," && depth == 0) {
                if (!cur.empty())
                    into->push_back(cur);
                cur.clear();
                continue;
            }
        }
        cur += t.text;
    }
    if (!cur.empty())
        into->push_back(cur);
    return end;
}

struct Parser {
    const std::vector<Token> &ts;
    Outline &out;
    std::vector<std::string> ns;      //!< enclosing namespace + class names
    std::vector<std::string> owners;  //!< enclosing class names only

    std::string
    qualify(const std::string &name) const
    {
        std::string q;
        for (const std::string &part : ns) {
            q += part.empty() ? "(anonymous)" : part;
            q += "::";
        }
        return q + name;
    }

    void
    recordDecl(DeclKind kind, const std::string &name, int line, Decl d)
    {
        d.kind = kind;
        d.name = name;
        d.qualified = qualify(name);
        d.line = line;
        if (d.owner.empty() && !owners.empty())
            d.owner = owners.back();
        out.decls.push_back(std::move(d));
    }

    void
    record(DeclKind kind, const std::string &name, int line,
           const Decl *flags = nullptr)
    {
        recordDecl(kind, name, line, flags ? *flags : Decl{});
    }

    /**
     * Out-of-line member declarators: when the declared name at
     * ts[name_idx] is written `Type::name` (or `Type::~name`), the
     * qualifier is the owning class.
     */
    void
    ownerFromDeclarator(Decl &d, std::size_t name_idx) const
    {
        std::size_t k = name_idx;
        if (k >= 1 && isPunct(ts, k - 1, "~"))
            --k;
        if (k >= 2 && isPunct(ts, k - 1, "::") &&
            ts[k - 2].kind == TokenKind::Identifier)
            d.owner = ts[k - 2].text;
    }

    /** Parse declarations until '}' or end of stream; returns index past. */
    std::size_t
    parseScope(std::size_t i)
    {
        while (i < ts.size()) {
            const Token &t = ts[i];
            if (t.kind == TokenKind::Comment ||
                t.kind == TokenKind::PpDirective) {
                ++i;
                continue;
            }
            if (isPunct(ts, i, "}"))
                return i + 1;
            if (isPunct(ts, i, ";")) {
                ++i;
                continue;
            }
            if (isPunct(ts, i, "[") && isPunct(ts, i + 1, "[")) {
                i = skipAttribute(ts, i);
                continue;
            }
            if (t.kind != TokenKind::Identifier) {
                ++i;  // stray punctuation; resynchronize
                continue;
            }

            if (t.text == "namespace") {
                i = parseNamespace(i);
                continue;
            }
            if (t.text == "using" || t.text == "typedef") {
                i = parseAlias(i);
                continue;
            }
            if (t.text == "template") {
                ++i;
                if (isPunct(ts, i, "<"))
                    i = skipAngles(ts, i);
                continue;  // the templated declaration parses normally
            }
            if (t.text == "extern" && i + 1 < ts.size() &&
                ts[i + 1].kind == TokenKind::String) {
                // extern "C" { ... } is transparent; extern "C" decl is
                // handled by the generic declaration path below.
                if (isPunct(ts, i + 2, "{")) {
                    i = parseScope(i + 3);
                    continue;
                }
            }
            if (t.text == "class" || t.text == "struct" ||
                t.text == "union" || t.text == "enum") {
                i = parseType(i);
                continue;
            }
            if (t.text == "static_assert" || t.text == "friend") {
                i = skipStatement(ts, i);
                continue;
            }
            i = parseDeclaration(i);
        }
        return i;
    }

    /** ts[i] == "namespace". */
    std::size_t
    parseNamespace(std::size_t i)
    {
        ++i;
        std::vector<std::string> opened;
        std::string last_name;
        while (i < ts.size()) {
            if (ts[i].kind == TokenKind::Identifier &&
                !isIdent(ts, i, "inline")) {
                last_name = ts[i].text;
                ++i;
                if (isPunct(ts, i, "::")) {  // nested: namespace a::b {
                    opened.push_back(last_name);
                    ++i;
                    continue;
                }
                continue;
            }
            if (isPunct(ts, i, "=")) {  // namespace alias
                record(DeclKind::Alias, last_name, ts[i].line);
                return skipStatement(ts, i);
            }
            if (isPunct(ts, i, "{"))
                break;
            if (isPunct(ts, i, ";"))
                return i + 1;
            ++i;
        }
        if (i >= ts.size())
            return i;
        opened.push_back(last_name);  // "" for anonymous namespaces
        const int line = ts[i].line;
        if (!last_name.empty())
            record(DeclKind::Namespace, last_name, line);
        for (const std::string &part : opened)
            ns.push_back(part);
        i = parseScope(i + 1);
        ns.resize(ns.size() - opened.size());
        return i;
    }

    /** ts[i] == "using" or "typedef". */
    std::size_t
    parseAlias(std::size_t i)
    {
        const bool is_typedef = ts[i].text == "typedef";
        if (!is_typedef && isIdent(ts, i + 1, "namespace"))
            return skipStatement(ts, i);  // using-directive, not a decl
        if (!is_typedef && i + 2 < ts.size() &&
            ts[i + 1].kind == TokenKind::Identifier &&
            isPunct(ts, i + 2, "=")) {
            record(DeclKind::Alias, ts[i + 1].text, ts[i + 1].line);
            return skipStatement(ts, i + 2);
        }
        // typedef ... X;  or  using a::b; — the declared name is the last
        // identifier before the terminating ';'.
        std::string name;
        int line = ts[i].line;
        std::size_t j = i + 1;
        while (j < ts.size() && !isPunct(ts, j, ";")) {
            if (isPunct(ts, j, "<")) {
                j = skipAngles(ts, j);
                continue;
            }
            if (ts[j].kind == TokenKind::Identifier) {
                name = ts[j].text;
                line = ts[j].line;
            }
            ++j;
        }
        if (!name.empty())
            record(DeclKind::Alias, name, line);
        return j < ts.size() ? j + 1 : j;
    }

    /** ts[i] == class/struct/union/enum. */
    std::size_t
    parseType(std::size_t i)
    {
        const bool is_enum = ts[i].text == "enum";
        bool scoped_enum = false;
        ++i;
        if (is_enum &&
            (isIdent(ts, i, "class") || isIdent(ts, i, "struct"))) {
            scoped_enum = true;
            ++i;
        }
        while (isPunct(ts, i, "[") && isPunct(ts, i + 1, "["))
            i = skipAttribute(ts, i);
        // Capability annotations sit between the class-key and the name:
        // `class AIWC_CAPABILITY("mutex") Mutex { ... }`.
        while (i < ts.size() && ts[i].kind == TokenKind::Identifier &&
               (ts[i].text == "AIWC_CAPABILITY" ||
                ts[i].text == "AIWC_SCOPED_CAPABILITY")) {
            ++i;
            if (isPunct(ts, i, "("))
                i = skipParens(ts, i);
        }

        std::string name;
        int line = i < ts.size() ? ts[i].line : 0;
        if (i < ts.size() && ts[i].kind == TokenKind::Identifier) {
            name = ts[i].text;
            line = ts[i].line;
            ++i;
        }
        // Scan to the body, a terminating ';' (forward declaration or a
        // member type used as a return type — resynchronize either way).
        while (i < ts.size() && !isPunct(ts, i, "{") &&
               !isPunct(ts, i, ";")) {
            if (isPunct(ts, i, "<")) {
                i = skipAngles(ts, i);
                continue;
            }
            ++i;
        }
        if (i >= ts.size())
            return i;
        if (isPunct(ts, i, ";")) {
            if (!name.empty())
                record(DeclKind::Type, name, line);
            return i + 1;
        }
        if (!name.empty())
            record(DeclKind::Type, name, line);
        if (is_enum && !scoped_enum)
            parseEnumerators(i);
        if (!is_enum && !name.empty()) {
            // Descend into the class body: member fields, their
            // annotations, and inline method bodies feed the lock-set
            // pass. skipBraces below stays the authoritative advance,
            // so a confused member scan cannot derail the outer walk.
            owners.push_back(name);
            ns.push_back(name);
            parseMembers(i + 1);
            ns.pop_back();
            owners.pop_back();
        }
        i = skipBraces(ts, i);
        // `struct X { ... } instance;` — the trailing declarator is a
        // namespace-scope variable (a member field inside a class).
        while (i < ts.size() && !isPunct(ts, i, ";")) {
            if (ts[i].kind == TokenKind::Identifier &&
                !isIdent(ts, i, "const")) {
                Decl flags;
                flags.has_initializer = true;
                flags.type_name = name;
                record(owners.empty() ? DeclKind::Variable : DeclKind::Field,
                       ts[i].text, ts[i].line, &flags);
                return skipStatement(ts, i);
            }
            ++i;
        }
        return i < ts.size() ? i + 1 : i;
    }

    /**
     * Class body: declarations until the matching '}' (which the
     * caller skips). Mirrors parseScope with member-only syntax added:
     * access specifiers, constructors/destructors, bit-fields, and
     * trailing capability annotations.
     */
    void
    parseMembers(std::size_t i)
    {
        while (i < ts.size()) {
            const Token &t = ts[i];
            if (t.kind == TokenKind::Comment ||
                t.kind == TokenKind::PpDirective) {
                ++i;
                continue;
            }
            if (isPunct(ts, i, "}"))
                return;
            if (isPunct(ts, i, ";")) {
                ++i;
                continue;
            }
            if (isPunct(ts, i, "[") && isPunct(ts, i + 1, "[")) {
                i = skipAttribute(ts, i);
                continue;
            }
            if (isPunct(ts, i, "~")) {  // destructor
                i = parseDeclaration(i, /*member=*/true);
                continue;
            }
            if (t.kind != TokenKind::Identifier) {
                ++i;  // stray punctuation; resynchronize
                continue;
            }
            if ((t.text == "public" || t.text == "private" ||
                 t.text == "protected") &&
                isPunct(ts, i + 1, ":")) {
                i += 2;
                continue;
            }
            if (t.text == "using" || t.text == "typedef") {
                i = parseAlias(i);
                continue;
            }
            if (t.text == "template") {
                ++i;
                if (isPunct(ts, i, "<"))
                    i = skipAngles(ts, i);
                continue;  // the templated member parses normally
            }
            if (t.text == "class" || t.text == "struct" ||
                t.text == "union" || t.text == "enum") {
                i = parseType(i);
                continue;
            }
            if (t.text == "static_assert" || t.text == "friend") {
                i = skipStatement(ts, i);
                continue;
            }
            i = parseDeclaration(i, /*member=*/true);
        }
    }

    /** ts[open] == "{" of an unscoped enum body: record enumerators. */
    void
    parseEnumerators(std::size_t open)
    {
        std::size_t i = open + 1;
        bool expect_name = true;
        int depth = 1;
        while (i < ts.size() && depth > 0) {
            if (isPunct(ts, i, "{") || isPunct(ts, i, "(")) {
                ++depth;
            } else if (isPunct(ts, i, "}") || isPunct(ts, i, ")")) {
                --depth;
            } else if (depth == 1 && expect_name &&
                       ts[i].kind == TokenKind::Identifier) {
                record(DeclKind::Enumerator, ts[i].text, ts[i].line);
                expect_name = false;
            } else if (depth == 1 && isPunct(ts, i, ",")) {
                expect_name = true;
            }
            ++i;
        }
    }

    /**
     * Generic declaration: qualifiers, a type, a declarator. Stops at
     * the first of '(' (function or parenthesized declarator), '=' /
     * '{' / '[' / ';' (variable / field). `member` switches the
     * variable kind to Field and enables destructor ('~') and
     * bit-field (':') declarators. Capability annotation macros are
     * captured wherever they appear and never become the declared
     * name. Good enough for scope outlines; not a grammar.
     */
    std::size_t
    parseDeclaration(std::size_t i, bool member = false)
    {
        Decl flags;
        AnnotationCapture cap;
        std::string name;
        std::string prev_ident;  // the type identifier before the name
        int line = ts[i].line;
        std::size_t name_idx = 0;
        bool saw_ident = false;
        bool paren_declarator = false;  // name came from `( * name )`
        bool dtor = false;

        if (member && isPunct(ts, i, "~")) {
            dtor = true;
            ++i;
        }

        while (i < ts.size()) {
            const Token &t = ts[i];
            if (t.kind == TokenKind::Comment ||
                t.kind == TokenKind::PpDirective) {
                ++i;
                continue;
            }
            if (t.kind == TokenKind::Identifier) {
                if (isAnnotationMacro(t.text) && isPunct(ts, i + 1, "(")) {
                    i = parseAnnotation(ts, i, cap);
                    continue;
                }
                if (t.text == "const") {
                    flags.is_const = true;
                } else if (t.text == "constexpr" || t.text == "constinit" ||
                           t.text == "consteval") {
                    flags.is_constexpr = true;
                } else if (t.text == "static") {
                    flags.is_static = true;
                } else if (t.text == "thread_local") {
                    flags.is_thread_local = true;
                } else if (t.text == "extern") {
                    flags.is_extern = true;
                } else if (t.text == "inline") {
                    flags.is_inline = true;
                } else if (t.text == "operator") {
                    prev_ident = name;
                    name = "operator";
                    line = t.line;
                    name_idx = i;
                    saw_ident = true;
                    // Skip the operator symbol up to its '(' parameter
                    // list so `operator<` does not open an angle scan.
                    while (i + 1 < ts.size() && !isPunct(ts, i + 1, "("))
                        ++i;
                } else {
                    prev_ident = name;
                    name = t.text;
                    line = t.line;
                    name_idx = i;
                    saw_ident = true;
                }
                ++i;
                continue;
            }
            if (isPunct(ts, i, "::")) {
                // Qualified declarator (out-of-line member): keep the
                // chain, the final identifier is the declared name.
                ++i;
                continue;
            }
            if (member && isPunct(ts, i, "~")) {
                dtor = true;  // `inline ~X()` — destructor after qualifiers
                ++i;
                continue;
            }
            if (isPunct(ts, i, "<")) {
                i = skipAngles(ts, i);
                continue;
            }
            if (isPunct(ts, i, "[") && isPunct(ts, i + 1, "[")) {
                i = skipAttribute(ts, i);
                continue;
            }
            if (isPunct(ts, i, "*") || isPunct(ts, i, "&") ||
                isPunct(ts, i, "&&")) {
                ++i;
                continue;
            }
            if (isPunct(ts, i, "(")) {
                // `void (*fp)(int)` — the declarator hides inside the
                // parens; otherwise this is a function's parameter list.
                std::size_t j = i + 1;
                while (isPunct(ts, j, "*") || isPunct(ts, j, "&"))
                    ++j;
                if (j > i + 1 && j < ts.size() &&
                    ts[j].kind == TokenKind::Identifier &&
                    isPunct(ts, j + 1, ")")) {
                    prev_ident = name;
                    name = ts[j].text;
                    line = ts[j].line;
                    name_idx = j;
                    saw_ident = true;
                    paren_declarator = true;
                    i = skipParens(ts, i);
                    continue;
                }
                if (paren_declarator) {
                    // `void (*fp)(int)` — this '(' is the pointee's
                    // parameter list, not a function being declared;
                    // the variable records at the '='/';' below.
                    i = skipParens(ts, i);
                    continue;
                }
                if (!saw_ident)
                    return skipStatement(ts, i);  // unparsable; resync
                i = skipParens(ts, i);
                // Trailing specifiers and annotations, an optional
                // constructor initializer list, then a body or ';'.
                while (i < ts.size()) {
                    const Token &tt = ts[i];
                    if (tt.kind == TokenKind::Comment ||
                        tt.kind == TokenKind::PpDirective) {
                        ++i;
                        continue;
                    }
                    if (tt.kind == TokenKind::Identifier &&
                        isAnnotationMacro(tt.text) &&
                        isPunct(ts, i + 1, "(")) {
                        i = parseAnnotation(ts, i, cap);
                        continue;
                    }
                    if (isPunct(ts, i, "(")) {  // noexcept(...) etc.
                        i = skipParens(ts, i);
                        continue;
                    }
                    if (isPunct(ts, i, "<")) {
                        i = skipAngles(ts, i);
                        continue;
                    }
                    if (isPunct(ts, i, ":")) {
                        i = skipCtorInit(ts, i);
                        continue;
                    }
                    if (isPunct(ts, i, "{") || isPunct(ts, i, ";") ||
                        isPunct(ts, i, "="))
                        break;
                    ++i;
                }
                Decl d = flags;
                d.type_name = prev_ident;
                d.requires_locks = cap.requires_locks;
                if (!member)
                    ownerFromDeclarator(d, name_idx);
                if (dtor)
                    name = "~" + name;
                if (isPunct(ts, i, "{")) {
                    d.body_begin = static_cast<int>(i);
                    const std::size_t past = skipBraces(ts, i);
                    d.body_end = static_cast<int>(past) - 1;
                    recordDecl(DeclKind::Function, name, line, std::move(d));
                    return past;
                }
                recordDecl(DeclKind::Function, name, line, std::move(d));
                return skipStatement(ts, i);
            }
            if (isPunct(ts, i, "=") || isPunct(ts, i, "{") ||
                isPunct(ts, i, "[") || isPunct(ts, i, ";") ||
                (member && isPunct(ts, i, ":"))) {
                if (!saw_ident)
                    return skipStatement(ts, i);
                Decl d = flags;
                d.has_initializer =
                    isPunct(ts, i, "=") || isPunct(ts, i, "{");
                d.type_name = prev_ident;
                d.acquired_before = cap.acquired_before;
                if (!member)
                    ownerFromDeclarator(d, name_idx);
                recordDecl(member ? DeclKind::Field : DeclKind::Variable,
                           name, line, std::move(d));
                return skipStatement(ts, i);
            }
            ++i;  // punctuation we do not model (",", "...", etc.)
        }
        return i;
    }
};

} // namespace

Outline
parseOutline(const std::vector<Token> &tokens)
{
    Outline out;

    // Macro names from #define directives.
    for (const Token &t : tokens) {
        if (t.kind != TokenKind::PpDirective)
            continue;
        std::size_t p = t.text.find_first_not_of(" \t", 1);  // skip '#'
        if (p == std::string::npos ||
            t.text.compare(p, 6, "define") != 0)
            continue;
        p = t.text.find_first_not_of(" \t", p + 6);
        if (p == std::string::npos)
            continue;
        std::size_t e = p;
        while (e < t.text.size() &&
               (std::isalnum(static_cast<unsigned char>(t.text[e])) ||
                t.text[e] == '_'))
            ++e;
        if (e > p) {
            Decl d;
            d.kind = DeclKind::Macro;
            d.name = t.text.substr(p, e - p);
            d.qualified = d.name;
            d.line = t.line;
            out.decls.push_back(std::move(d));
        }
    }

    Parser parser{tokens, out, {}, {}};
    parser.parseScope(0);
    return out;
}

std::vector<std::string>
declaredNames(const Outline &o)
{
    std::set<std::string> names;
    for (const Decl &d : o.decls) {
        if (d.kind == DeclKind::Namespace)
            continue;  // sharing a namespace is not using the header
        if (!d.owner.empty())
            continue;  // members are reachable only through their class
        if (!d.name.empty())
            names.insert(d.name);
    }
    return {names.begin(), names.end()};
}

} // namespace aiwc::lint
