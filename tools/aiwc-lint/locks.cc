#include "locks.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "lexer.hh"

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

/** Index just past the ')' matching ts[open] == "(". */
std::size_t
matchParen(const std::vector<Token> &ts, std::size_t open)
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

/** Final identifier of a lock expression: "other.mutex_" -> "mutex_". */
std::string
finalIdent(const std::string &expr)
{
    std::size_t e = expr.size();
    auto word = [](char ch) {
        return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
               (ch >= '0' && ch <= '9') || ch == '_';
    };
    while (e > 0 && !word(expr[e - 1]))
        --e;
    std::size_t b = e;
    while (b > 0 && word(expr[b - 1]))
        --b;
    const std::string id = expr.substr(b, e - b);
    return (id.empty() || (id[0] >= '0' && id[0] <= '9')) ? "" : id;
}

/** ts[k] is `.lock(` / `->unlock(` / `.try_lock(`: a member lock call. */
bool
isLockMemberCall(const std::vector<Token> &ts, std::size_t k)
{
    const std::string &s = ts[k].text;
    return ts[k].kind == TokenKind::Identifier &&
           (s == "lock" || s == "unlock" || s == "try_lock") &&
           (isPunct(ts, k - 1, ".") ||
            (k >= 2 && isPunct(ts, k - 1, ">") && isPunct(ts, k - 2, "-"))) &&
           isPunct(ts, k + 1, "(");
}

// ---------------------------------------------------------------------------
// The concurrency model: mutex-typed fields and AIWC_REQUIRES contracts,
// merged from the file's outline and its companion header's so .cc
// bodies see the class model declared in the module's public header.

bool
isMutexKind(const std::string &type_name)
{
    return type_name == "Mutex" || type_name == "mutex" ||
           type_name == "timed_mutex" || type_name == "recursive_mutex" ||
           type_name == "shared_mutex" || type_name == "shared_timed_mutex" ||
           type_name == "recursive_timed_mutex";
}

struct ClassInfo {
    std::map<std::string, std::string> field_types;  //!< field -> type_name
    std::map<std::string, std::vector<std::string>> requires_locks;
};

struct Model {
    std::map<std::string, ClassInfo> classes;
};

void
mergeList(std::vector<std::string> &into, const std::vector<std::string> &from)
{
    for (const std::string &s : from)
        if (std::find(into.begin(), into.end(), s) == into.end())
            into.push_back(s);
}

void
addOutline(const Outline &o, Model &m)
{
    for (const Decl &d : o.decls) {
        if (d.owner.empty())
            continue;
        ClassInfo &cls = m.classes[d.owner];
        if (d.kind == DeclKind::Field) {
            std::string &type = cls.field_types[d.name];
            if (type.empty())
                type = d.type_name;
        } else if (d.kind == DeclKind::Function) {
            mergeList(cls.requires_locks[d.name], d.requires_locks);
        }
    }
}

/**
 * Order-graph node for the lock named `key` acquired inside a method
 * of `owner`: the enclosing class's field of that name when it is
 * mutex-typed, else the unique mutex-typed field of that name across
 * every known class. Ambiguous or unknown names resolve to "" and
 * contribute no edge — the graph only asserts what it can name.
 */
std::string
resolveNode(const std::string &key, const std::string &owner, const Model &m)
{
    if (key.empty())
        return "";
    if (!owner.empty()) {
        const auto cls = m.classes.find(owner);
        if (cls != m.classes.end()) {
            const auto f = cls->second.field_types.find(key);
            if (f != cls->second.field_types.end() && isMutexKind(f->second))
                return owner + "::" + key;
        }
    }
    std::string match;
    int count = 0;
    for (const auto &[cls_name, info] : m.classes) {
        const auto f = info.field_types.find(key);
        if (f != info.field_types.end() && isMutexKind(f->second)) {
            ++count;
            match = cls_name + "::" + key;
        }
    }
    return count == 1 ? match : "";
}

// ---------------------------------------------------------------------------
// Per-function lock-set walk.

bool
isGuardType(const std::string &s)
{
    return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
           s == "MutexLock" || s == "MutexLock2";
}

/** One live RAII guard (or a REQUIRES seed, at depth 0). */
struct GuardScope {
    std::string var;                 //!< "" for REQUIRES seeds
    std::vector<std::string> nodes;  //!< resolved nodes ("" = unknown)
    bool active = false;
    bool deferred = false;           //!< constructed with std::defer_lock
    bool ever_locked = false;
    int depth = 0;                   //!< brace depth at declaration
    int line = 0;
};

const std::string kManualMsgTail =
    "() risks leaking the mutex on every early return and "
    "exception path; hold locks via std::lock_guard / "
    "std::scoped_lock / std::unique_lock construction";

struct BodyWalker {
    const std::string &path;
    const std::vector<Token> &ts;
    const Model &model;
    const bool discipline;
    std::vector<Finding> &findings;
    std::vector<LockEdge> &edges;

    std::vector<GuardScope> guards;
    std::string owner;  //!< enclosing class of the current function

    void
    emitEdges(const std::vector<std::string> &new_nodes, int line)
    {
        std::set<std::string> held;
        for (const GuardScope &g : guards)
            if (g.active)
                for (const std::string &n : g.nodes)
                    if (!n.empty())
                        held.insert(n);
        for (const std::string &from : held)
            for (const std::string &to : new_nodes)
                if (!to.empty() && to != from)
                    edges.push_back({from, to, line, false});
    }

    /** Guard going out of scope: the defer_lock-and-forgot check. */
    void
    release(const GuardScope &g)
    {
        if (discipline && g.deferred && !g.ever_locked)
            findings.push_back(
                {path, g.line, "lock-discipline",
                 "deferred guard '" + g.var +
                     "' (std::defer_lock) is never .lock()-ed; it "
                     "protects nothing — lock it or drop defer_lock"});
    }

    /**
     * Try to parse a guard declaration starting at identifier ts[k]
     * (`[std::|aiwc::]guard_type[<...>] [var] ( args )`). Returns the
     * index of the closing ')' when one was consumed, else k.
     */
    std::size_t
    tryGuardDecl(std::size_t k, int depth)
    {
        std::size_t g;
        if ((ts[k].text == "std" || ts[k].text == "aiwc") &&
            isPunct(ts, k + 1, "::") && k + 2 < ts.size() &&
            ts[k + 2].kind == TokenKind::Identifier &&
            isGuardType(ts[k + 2].text))
            g = k + 2;
        else if (isGuardType(ts[k].text) && !isPunct(ts, k - 1, "::") &&
                 k + 1 < ts.size())
            g = k;
        else
            return k;

        std::size_t j = g + 1;
        if (isPunct(ts, j, "<"))
            j = skipAngles(ts, j);
        std::string var;
        if (j < ts.size() && ts[j].kind == TokenKind::Identifier &&
            isPunct(ts, j + 1, "(")) {
            var = ts[j].text;
            ++j;
        }
        if (!isPunct(ts, j, "("))
            return k;  // member access or declaration without args
        const std::size_t close = matchParen(ts, j) - 1;

        // Split the constructor arguments at top-level commas; each
        // argument contributes its final identifier — a lock key, or a
        // std::defer_lock / adopt_lock / try_to_lock tag.
        GuardScope gs;
        gs.var = var;
        gs.depth = depth;
        gs.line = ts[g].line;
        bool defer = false;
        bool adopt = false;
        std::string fin;
        int nest = 0;
        auto finish = [&]() {
            if (fin.empty())
                return;
            if (fin == "defer_lock") {
                defer = true;
            } else if (fin == "adopt_lock") {
                adopt = true;
            } else if (fin != "try_to_lock") {
                gs.nodes.push_back(resolveNode(fin, owner, model));
            }
            fin.clear();
        };
        for (std::size_t m = j + 1; m < close; ++m) {
            const Token &t = ts[m];
            if (t.kind == TokenKind::Comment ||
                t.kind == TokenKind::PpDirective)
                continue;
            if (t.kind == TokenKind::Punct) {
                if (t.text == "(" || t.text == "[" || t.text == "<")
                    ++nest;
                else if (t.text == ")" || t.text == "]" || t.text == ">")
                    --nest;
                else if (t.text == "," && nest == 0)
                    finish();
                continue;
            }
            if (t.kind == TokenKind::Identifier)
                fin = t.text;
        }
        finish();

        if (defer) {
            gs.deferred = true;
        } else {
            gs.active = true;
            gs.ever_locked = true;
            if (!adopt)
                emitEdges(gs.nodes, gs.line);
        }
        // An anonymous temporary (`std::lock_guard<std::mutex>(m_);`)
        // dies at the semicolon — its edges count, its scope does not.
        if (!var.empty())
            guards.push_back(std::move(gs));
        return close;
    }

    /** `.lock()` / `.unlock()` / `.try_lock()` with a member receiver. */
    void
    onMutexMemberCall(std::size_t k)
    {
        std::size_t recv = ts.size();
        if (k >= 2 && isPunct(ts, k - 1, ".") &&
            ts[k - 2].kind == TokenKind::Identifier)
            recv = k - 2;
        else if (k >= 3 && isPunct(ts, k - 1, ">") &&
                 isPunct(ts, k - 2, "-") &&
                 ts[k - 3].kind == TokenKind::Identifier)
            recv = k - 3;

        GuardScope *g = nullptr;
        if (recv != ts.size())
            for (auto it = guards.rbegin(); it != guards.rend(); ++it)
                if (it->var == ts[recv].text) {
                    g = &*it;
                    break;
                }

        if (g == nullptr) {
            if (discipline)
                findings.push_back({path, ts[k].line, "lock-discipline",
                                    "manual ." + ts[k].text + kManualMsgTail});
            return;
        }
        if (ts[k].text == "unlock") {
            if (!g->active && discipline)
                findings.push_back(
                    {path, ts[k].line, "lock-discipline",
                     "guard '" + g->var +
                         "' unlocked here but does not hold its mutex"});
            g->active = false;
            return;
        }
        // lock() / try_lock() on the guard object.
        if (g->active) {
            if (discipline)
                findings.push_back(
                    {path, ts[k].line, "lock-discipline",
                     "guard '" + g->var +
                         "' locked here while already holding its mutex "
                         "(double lock is undefined behavior)"});
            return;
        }
        emitEdges(g->nodes, ts[k].line);
        g->active = true;
        g->ever_locked = true;
    }

    /** Walk one function body; [begin, end] are its '{' and '}'. */
    void
    walk(const Decl &fn, std::size_t begin, std::size_t end)
    {
        guards.clear();
        owner = fn.owner;

        // The function's lock contract seeds the entry lock-set: its
        // own AIWC_REQUIRES plus the companion-declared ones.
        std::vector<std::string> requires_locks = fn.requires_locks;
        if (!owner.empty()) {
            const auto cls = model.classes.find(owner);
            if (cls != model.classes.end()) {
                const auto req = cls->second.requires_locks.find(fn.name);
                if (req != cls->second.requires_locks.end())
                    mergeList(requires_locks, req->second);
            }
        }
        for (const std::string &req : requires_locks) {
            GuardScope seed;
            seed.nodes.push_back(resolveNode(finalIdent(req), owner, model));
            seed.active = true;
            seed.ever_locked = true;
            seed.depth = 0;  // never released inside the body
            seed.line = fn.line;
            guards.push_back(std::move(seed));
        }

        int depth = 0;
        for (std::size_t k = begin; k <= end && k < ts.size(); ++k) {
            const Token &t = ts[k];
            if (t.kind == TokenKind::Comment ||
                t.kind == TokenKind::PpDirective)
                continue;
            if (isPunct(ts, k, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(ts, k, "}")) {
                --depth;
                while (!guards.empty() && guards.back().depth > depth) {
                    release(guards.back());
                    guards.pop_back();
                }
                continue;
            }
            if (t.kind != TokenKind::Identifier)
                continue;

            const std::size_t past = tryGuardDecl(k, depth);
            if (past != k) {
                k = past;
                continue;
            }
            if (isLockMemberCall(ts, k))
                onMutexMemberCall(k);
        }
        for (const GuardScope &g : guards)
            if (g.depth > 0)
                release(g);
    }
};

} // namespace

void
analyzeLocks(const std::string &path, const std::vector<Token> &tokens,
             const Outline &outline, const Outline *companion,
             bool discipline, std::vector<Finding> &findings,
             std::vector<LockEdge> &edges)
{
    Model model;
    addOutline(outline, model);
    if (companion != nullptr)
        addOutline(*companion, model);

    // Function bodies, in token order; everything outside them gets
    // the plain manual-call scan below (macro bodies, initializers,
    // code the outline failed to index — degrade, don't miss).
    std::vector<const Decl *> fns;
    for (const Decl &d : outline.decls)
        if (d.kind == DeclKind::Function && d.body_begin >= 0 &&
            d.body_end > d.body_begin &&
            static_cast<std::size_t>(d.body_end) < tokens.size())
            fns.push_back(&d);
    std::sort(fns.begin(), fns.end(),
              [](const Decl *a, const Decl *b) {
                  return a->body_begin < b->body_begin;
              });

    std::vector<char> covered(tokens.size(), 0);
    BodyWalker walker{path, tokens, model, discipline, findings, edges,
                      {},   {}};
    for (const Decl *fn : fns) {
        const auto b = static_cast<std::size_t>(fn->body_begin);
        const auto e = static_cast<std::size_t>(fn->body_end);
        if (covered[b])
            continue;  // overlapping ranges: parser confusion, walk once
        for (std::size_t k = b; k <= e; ++k)
            covered[k] = 1;
        walker.walk(*fn, b, e);
    }

    if (discipline) {
        for (std::size_t k = 0; k < tokens.size(); ++k) {
            if (!covered[k] && isLockMemberCall(tokens, k))
                findings.push_back({path, tokens[k].line, "lock-discipline",
                                    "manual ." + tokens[k].text +
                                        kManualMsgTail});
        }
    }

    // Declared order: AIWC_ACQUIRED_BEFORE on this file's own mutex
    // fields (the companion emits its own edges when it is analyzed).
    for (const Decl &d : outline.decls) {
        if (d.kind != DeclKind::Field || d.owner.empty() ||
            d.acquired_before.empty() || !isMutexKind(d.type_name))
            continue;
        const std::string from = d.owner + "::" + d.name;
        for (const std::string &after : d.acquired_before) {
            const std::string to =
                resolveNode(finalIdent(after), d.owner, model);
            if (!to.empty() && to != from)
                edges.push_back({from, to, d.line, true});
        }
    }

    std::sort(edges.begin(), edges.end(),
              [](const LockEdge &a, const LockEdge &b) {
                  if (a.from != b.from)
                      return a.from < b.from;
                  if (a.to != b.to)
                      return a.to < b.to;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.declared < b.declared;
              });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const LockEdge &a, const LockEdge &b) {
                                return a.from == b.from && a.to == b.to &&
                                       a.line == b.line &&
                                       a.declared == b.declared;
                            }),
                edges.end());
}

// ---------------------------------------------------------------------------
// locks.txt

bool
LockSpec::parse(const std::string &text, LockSpec &out, std::string &error)
{
    out = LockSpec{};
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string keyword;
        if (!(fields >> keyword))
            continue;

        if (keyword == "lock") {
            std::string alias;
            std::string node;
            if (!(fields >> alias >> node)) {
                error = "locks.txt:" + std::to_string(lineno) +
                        ": lock needs `lock <alias> <Class::field>`";
                return false;
            }
            std::string extra;
            if (fields >> extra) {
                error = "locks.txt:" + std::to_string(lineno) +
                        ": unexpected trailing field '" + extra + "'";
                return false;
            }
            if (node.find("::") == std::string::npos) {
                error = "locks.txt:" + std::to_string(lineno) + ": node '" +
                        node + "' must be a Class::field name";
                return false;
            }
            if (!out.locks.emplace(alias, node).second) {
                error = "locks.txt:" + std::to_string(lineno) +
                        ": duplicate lock alias '" + alias + "'";
                return false;
            }
        } else if (keyword == "order") {
            std::string a;
            std::string b;
            if (!(fields >> a >> b)) {
                error = "locks.txt:" + std::to_string(lineno) +
                        ": order needs `order <held-first> <then>`";
                return false;
            }
            for (const std::string &alias : {a, b}) {
                if (out.locks.count(alias) == 0) {
                    error = "locks.txt:" + std::to_string(lineno) +
                            ": unknown lock alias '" + alias +
                            "' (declare it with a `lock` line first)";
                    return false;
                }
            }
            if (a == b) {
                error = "locks.txt:" + std::to_string(lineno) +
                        ": an order edge cannot be a self-loop";
                return false;
            }
            out.orders.push_back({out.locks[a], out.locks[b], lineno});
        } else {
            error = "locks.txt:" + std::to_string(lineno) +
                    ": unknown keyword '" + keyword + "'";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// Whole-program order graph.

namespace
{

struct EdgeInfo {
    std::string file;  //!< source file, or the spec path
    int line = 0;
    bool observed = false;
};

std::string
provenance(const EdgeInfo &e)
{
    return (e.observed ? "observed " : "declared ") + e.file + ":" +
           std::to_string(e.line);
}

} // namespace

void
checkLockOrder(const std::vector<const FileAnalysis *> &records,
               const LockSpec *spec, const std::string &spec_path,
               std::vector<Finding> &out)
{
    // One edge per (from, to); an observed acquisition is the better
    // witness, so it wins over a declared duplicate.
    std::map<std::string, std::map<std::string, EdgeInfo>> adj;
    auto add = [&adj](const std::string &from, const std::string &to,
                      EdgeInfo info) {
        if (from == to)
            return;
        auto [it, inserted] = adj[from].emplace(to, info);
        if (!inserted && info.observed && !it->second.observed)
            it->second = info;
        adj.emplace(to, std::map<std::string, EdgeInfo>{});
    };

    if (spec != nullptr)
        for (const LockSpec::Order &o : spec->orders)
            add(o.from, o.to, {spec_path, o.line, false});
    for (const FileAnalysis *fa : records)
        for (const LockEdge &e : fa->lock_edges)
            add(e.from, e.to, {fa->path, e.line, !e.declared});

    // Iterative DFS, mirroring graph.cc's include-cycle walk: the
    // sorted maps make traversal — and therefore witness paths —
    // deterministic.
    enum class State { White, Grey, Black };
    std::map<std::string, State> state;
    for (const auto &[node, _] : adj)
        state[node] = State::White;

    struct Frame {
        std::string node;
        std::map<std::string, EdgeInfo>::const_iterator next;
    };
    std::vector<std::string> chain;

    for (const auto &[root, _] : adj) {
        if (state[root] != State::White)
            continue;
        std::vector<Frame> stack;
        stack.push_back({root, adj[root].begin()});
        state[root] = State::Grey;
        chain.push_back(root);
        while (!stack.empty()) {
            Frame &f = stack.back();
            const auto &edges_of = adj[f.node];
            bool descended = false;
            while (f.next != edges_of.end()) {
                const std::string &target = f.next->first;
                const EdgeInfo &info = f.next->second;
                ++f.next;
                const State s = state[target];
                if (s == State::Black)
                    continue;
                if (s == State::Grey) {
                    // Witness: the chain from `target` around to
                    // f.node, closed by this edge; label every hop.
                    std::vector<std::string> cycle;
                    bool in_cycle = false;
                    for (const std::string &n : chain) {
                        if (n == target)
                            in_cycle = true;
                        if (in_cycle)
                            cycle.push_back(n);
                    }
                    cycle.push_back(target);
                    std::ostringstream msg;
                    msg << "lock acquisition order cycle: ";
                    const EdgeInfo *anchor = nullptr;
                    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
                        const EdgeInfo &hop =
                            i + 2 == cycle.size()
                                ? info
                                : adj[cycle[i]].at(cycle[i + 1]);
                        if (hop.observed &&
                            (anchor == nullptr || !anchor->observed))
                            anchor = &hop;
                        if (anchor == nullptr && i == 0)
                            anchor = &hop;
                        msg << cycle[i] << " -> " << cycle[i + 1] << " ("
                            << provenance(hop) << ")";
                        if (i + 2 < cycle.size())
                            msg << ", ";
                    }
                    msg << "; every thread must acquire these mutexes in "
                           "one global order — the law is "
                        << spec_path;
                    out.push_back({anchor->file, anchor->line,
                                   "lock-order-cycle", msg.str()});
                    continue;
                }
                state[target] = State::Grey;
                chain.push_back(target);
                stack.push_back({target, adj[target].begin()});
                descended = true;
                break;
            }
            if (!descended) {
                state[f.node] = State::Black;
                chain.pop_back();
                stack.pop_back();
            }
        }
    }
}

} // namespace aiwc::lint
