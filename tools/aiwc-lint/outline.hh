/**
 * @file
 * Outline parser: just enough C++ structure for whole-program rules.
 *
 * A recursive descent over the lexer's token stream that recovers the
 * *shape* of a translation unit — namespace nesting, class/struct/enum
 * scopes, function signatures, namespace-scope variable declarations,
 * and (v3) class member fields with their concurrency annotations and
 * function body token ranges — without attempting expressions,
 * overload resolution, or templates beyond skipping their parameter
 * lists. The rules built on it (mutable-global, unused-include's
 * symbol index, the lock-set pass) only need names, scopes,
 * annotations, and a handful of declaration qualifiers.
 *
 * Like the rule engine it is a deliberate heuristic: on input it does
 * not understand it skips forward to the next ';' or balanced '}' and
 * keeps going, because a linter must degrade gracefully rather than
 * reject code the compiler accepts.
 */

#pragma once

#include <string>
#include <vector>

#include "lexer.hh"

namespace aiwc::lint
{

enum class DeclKind {
    Namespace,  //!< namespace scope (anonymous: empty name)
    Type,       //!< class / struct / union / enum definition
    Enumerator, //!< one enumerator of an unscoped enum
    Function,   //!< function or out-of-line member definition/declaration
    Variable,   //!< namespace-scope variable definition or declaration
    Field,      //!< class member variable (v3: lock-set analysis input)
    Alias,      //!< `using X = ...` or `typedef ... X` at namespace scope
    Macro,      //!< object- or function-like #define
};

struct Decl {
    DeclKind kind = DeclKind::Variable;
    std::string name;       //!< unqualified name ("" for anon namespaces)
    std::string qualified;  //!< "::"-joined namespace path + name
    int line = 0;           //!< physical line of the declared name

    // Qualifiers seen in the declaration head (Variable/Function only).
    bool is_const = false;
    bool is_constexpr = false;  //!< also constinit and consteval
    bool is_static = false;
    bool is_thread_local = false;
    bool is_extern = false;     //!< extern without an initializer
    bool is_inline = false;
    bool has_initializer = false;

    // v3 concurrency-model capture (Field / Function only).
    /** Unqualified enclosing class name: set for members declared in a
     *  class body and for out-of-line `Type::member` definitions. */
    std::string owner;
    /** Last type identifier before the declarator (e.g. "Mutex" for
     *  `mutable aiwc::Mutex mu_;`) — how the lock pass spots mutexes. */
    std::string type_name;
    std::vector<std::string> acquired_before;  //!< AIWC_ACQUIRED_BEFORE args
    std::vector<std::string> requires_locks;   //!< AIWC_REQUIRES args
    /** Token indices of a function definition's '{' and its matching
     *  '}' in the stream given to parseOutline; -1 when bodyless. */
    int body_begin = -1;
    int body_end = -1;
};

struct Outline {
    std::vector<Decl> decls;
};

/**
 * Parse the outline of one file. `tokens` is the raw lexer output
 * (the parser reads PpDirective tokens for #define names and skips
 * comments itself).
 */
Outline parseOutline(const std::vector<Token> &tokens);

/**
 * Names an includer could plausibly reference: every top-level type,
 * function, alias, enumerator, macro, and variable name declared in
 * `o`, deduplicated and sorted. The unused-include symbol index.
 * Class members (owner != "") are excluded — they are only reachable
 * through their class's name, which is already indexed.
 */
std::vector<std::string> declaredNames(const Outline &o);

} // namespace aiwc::lint
