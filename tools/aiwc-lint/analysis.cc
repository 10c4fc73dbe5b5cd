#include "analysis.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "locks.hh"

namespace aiwc::lint
{

namespace
{

/**
 * Cache format version. Bump on ANY change to rule behaviour, the
 * lexer, the outline parser, or the record layout — a stale hit must
 * be impossible by construction. (CI additionally keys its cache
 * restore on the tool binary's hash, which subsumes this, but local
 * runs only have this line.)
 */
const char kCacheHeader[] = "aiwc-lint-cache 4";

/** FNV-1a continuation: mix `more` into an existing hash. */
std::uint64_t
mixHash(std::uint64_t h, const std::string &more)
{
    for (const char ch : more) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * The cache key: file content plus (when present) the companion
 * header's content, because collectUnorderedDecls reads the companion
 * — a record must go stale when either input changes.
 */
std::uint64_t
combinedHash(const SourceFile &f)
{
    std::uint64_t h = contentHash(f.content);
    if (f.has_companion) {
        h = mixHash(h, "\x1f");
        h = mixHash(h, f.companion);
    }
    return h;
}

std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string w;
    while (in >> w)
        out.push_back(std::move(w));
    return out;
}

std::string
joinWords(const std::vector<std::string> &words)
{
    std::string out;
    for (const std::string &w : words) {
        if (!out.empty())
            out += " ";
        out += w;
    }
    return out;
}

/** Split `line` on tabs into at most `max_fields` fields (last keeps tabs). */
std::vector<std::string>
splitTabs(const std::string &line, std::size_t max_fields)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (fields.size() + 1 < max_fields) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos)
            break;
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
    fields.push_back(line.substr(start));
    return fields;
}

bool
parseInt(const std::string &s, int &out)
{
    if (s.empty())
        return false;
    int v = 0;
    for (const char ch : s) {
        if (ch < '0' || ch > '9')
            return false;
        v = v * 10 + (ch - '0');
    }
    out = v;
    return true;
}

bool
parseHash(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (const char ch : s) {
        int digit;
        if (ch >= '0' && ch <= '9')
            digit = ch - '0';
        else if (ch >= 'a' && ch <= 'f')
            digit = ch - 'a' + 10;
        else
            return false;
        v = v * 16 + static_cast<std::uint64_t>(digit);
    }
    out = v;
    return true;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------------------------
// unused-include

bool
underSrcTree(const std::string &path)
{
    return path.rfind("src/", 0) == 0;
}

bool
headerPath(const std::string &path)
{
    return (path.size() > 3 &&
            path.compare(path.size() - 3, 3, ".hh") == 0) ||
           (path.size() > 2 &&
            path.compare(path.size() - 2, 2, ".h") == 0);
}

/** src/<mod>/<stem>.cc -> src/include/aiwc/<mod>/<stem>.hh, else "". */
std::string
companionOf(const std::string &path)
{
    if (path.rfind("src/", 0) != 0 ||
        path.rfind("src/include/", 0) == 0)
        return "";
    if (path.size() < 4 || path.compare(path.size() - 3, 3, ".cc") != 0)
        return "";
    return "src/include/aiwc/" +
           path.substr(4, path.size() - 4 - 3) + ".hh";
}

/**
 * Names an includer can legitimately get from `path`: the header's own
 * top-level declarations plus, transitively, those of the project
 * headers it re-includes — so umbrella headers count as supplying what
 * they forward. Memoized; cycles (already reported by include-cycle)
 * contribute what was collected before closing the loop.
 */
const std::set<std::string> &
exportedNames(const std::string &path,
              const std::map<std::string, FileAnalysis> &records,
              std::map<std::string, std::set<std::string>> &memo,
              std::set<std::string> &visiting)
{
    const auto hit = memo.find(path);
    if (hit != memo.end())
        return hit->second;

    static const std::set<std::string> empty;
    const auto rec = records.find(path);
    if (rec == records.end())
        return empty;

    if (visiting.count(path) > 0)
        return empty;
    visiting.insert(path);

    std::set<std::string> names(rec->second.declared.begin(),
                                rec->second.declared.end());
    for (const IncludeEdge &e : rec->second.includes)
        if (!e.resolved.empty()) {
            const std::set<std::string> &sub =
                exportedNames(e.resolved, records, memo, visiting);
            names.insert(sub.begin(), sub.end());
        }

    visiting.erase(path);
    return memo[path] = std::move(names);
}

void
checkUnusedIncludes(const std::map<std::string, FileAnalysis> &records,
                    std::vector<Finding> &out)
{
    std::map<std::string, std::set<std::string>> memo;
    std::set<std::string> visiting;

    for (const auto &[path, rec] : records) {
        if (!underSrcTree(path))
            continue;
        // A header declaring nothing of its own is a forwarding
        // (umbrella) header: re-exporting without using is its job.
        if (headerPath(path) && rec.declared.empty())
            continue;
        const std::string companion = companionOf(path);
        const std::set<std::string> used(rec.used.begin(), rec.used.end());

        for (const IncludeEdge &e : rec.includes) {
            if (e.resolved.empty() || !headerPath(e.resolved))
                continue;
            // A .cc always keeps its module header: the include *is*
            // the declaration/definition consistency check.
            if (e.resolved == companion)
                continue;
            const auto target = records.find(e.resolved);
            if (target == records.end())
                continue;
            // Operator overloads are found by ADL without the name
            // ever appearing; a header declaring them is always "used".
            if (target->second.declares_operator)
                continue;
            const std::set<std::string> &supplied =
                exportedNames(e.resolved, records, memo, visiting);
            // A header exporting nothing we can index (macros handled
            // above — #defines are declared names) is out of scope.
            if (supplied.empty())
                continue;
            const bool any_used = std::any_of(
                supplied.begin(), supplied.end(),
                [&used](const std::string &n) {
                    return used.count(n) > 0;
                });
            if (!any_used)
                out.push_back(
                    {path, e.line, "unused-include",
                     "include of '" + e.spelled +
                         "' supplies no name this file uses; drop it "
                         "(or include what you use directly)"});
        }
    }
}

} // namespace

// ---------------------------------------------------------------------------
// AnalysisCache

bool
AnalysisCache::load(const std::string &text)
{
    entries_.clear();
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kCacheHeader)
        return false;

    FileAnalysis cur;
    bool open = false;
    const auto commit = [this, &cur, &open]() {
        if (open)
            entries_[cur.path] = std::move(cur);
        cur = FileAnalysis{};
        open = false;
    };

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> head = splitTabs(line, 2);
        const std::string &tag = head[0];
        if (tag == "file") {
            commit();
            const std::vector<std::string> f = splitTabs(line, 4);
            int op = 0;
            if (f.size() != 4 || !parseHash(f[2], cur.hash) ||
                !parseInt(f[3], op)) {
                entries_.clear();
                return false;
            }
            cur.path = f[1];
            cur.declares_operator = op != 0;
            open = true;
            continue;
        }
        if (!open) {
            entries_.clear();
            return false;
        }
        bool ok = true;
        int n = 0;
        if (tag == "f") {
            const std::vector<std::string> f = splitTabs(line, 4);
            ok = f.size() == 4 && parseInt(f[1], n);
            if (ok)
                cur.findings.push_back({cur.path, n, f[2], f[3]});
        } else if (tag == "s") {
            const std::vector<std::string> f = splitTabs(line, 3);
            ok = f.size() == 3 && parseInt(f[1], n);
            if (ok)
                cur.suppressions.emplace_back(n, f[2]);
        } else if (tag == "i") {
            const std::vector<std::string> f = splitTabs(line, 4);
            int angled = 0;
            ok = f.size() == 4 && parseInt(f[1], n) &&
                 parseInt(f[2], angled);
            if (ok) {
                IncludeEdge e;
                e.spelled = f[3];
                e.line = n;
                e.angled = angled != 0;
                cur.includes.push_back(std::move(e));
            }
        } else if (tag == "le") {
            const std::vector<std::string> f = splitTabs(line, 5);
            int declared = 0;
            ok = f.size() == 5 && parseInt(f[1], declared) &&
                 parseInt(f[2], n);
            if (ok)
                cur.lock_edges.push_back({f[3], f[4], n, declared != 0});
        } else if (tag == "d") {
            cur.declared = splitWords(splitTabs(line, 2)[1]);
        } else if (tag == "u") {
            cur.used = splitWords(splitTabs(line, 2)[1]);
        } else {
            ok = false;
        }
        if (!ok) {
            entries_.clear();
            return false;
        }
    }
    commit();
    return true;
}

std::string
AnalysisCache::serialize() const
{
    std::ostringstream os;
    os << kCacheHeader << "\n";
    for (const auto &[path, rec] : entries_) {
        os << "file\t" << path << "\t" << hashHex(rec.hash) << "\t"
           << (rec.declares_operator ? 1 : 0) << "\n";
        for (const Finding &f : rec.findings)
            os << "f\t" << f.line << "\t" << f.rule << "\t" << f.message
               << "\n";
        for (const auto &[line, rule] : rec.suppressions)
            os << "s\t" << line << "\t" << rule << "\n";
        for (const IncludeEdge &e : rec.includes)
            os << "i\t" << e.line << "\t" << (e.angled ? 1 : 0) << "\t"
               << e.spelled << "\n";
        for (const LockEdge &e : rec.lock_edges)
            os << "le\t" << (e.declared ? 1 : 0) << "\t" << e.line << "\t"
               << e.from << "\t" << e.to << "\n";
        if (!rec.declared.empty())
            os << "d\t" << joinWords(rec.declared) << "\n";
        if (!rec.used.empty())
            os << "u\t" << joinWords(rec.used) << "\n";
    }
    return os.str();
}

const FileAnalysis *
AnalysisCache::lookup(const std::string &path, std::uint64_t hash) const
{
    const auto it = entries_.find(path);
    if (it == entries_.end() || it->second.hash != hash)
        return nullptr;
    return &it->second;
}

void
AnalysisCache::store(FileAnalysis record)
{
    entries_[record.path] = std::move(record);
}

// ---------------------------------------------------------------------------
// analyzeProject

ProjectResult
analyzeProject(const std::vector<SourceFile> &files,
               const ProjectOptions &options, AnalysisCache *cache)
{
    ProjectResult res;

    // Phase 1: per-file records, from the cache when the inputs match.
    std::map<std::string, FileAnalysis> records;
    for (const SourceFile &f : files) {
        const std::uint64_t key = combinedHash(f);
        if (cache != nullptr) {
            const FileAnalysis *hit = cache->lookup(f.path, key);
            if (hit != nullptr) {
                records[f.path] = *hit;
                ++res.cached;
                continue;
            }
        }
        FileAnalysis fa = analyzeSource(
            f.path, f.content, f.has_companion ? &f.companion : nullptr);
        fa.hash = key;
        if (cache != nullptr)
            cache->store(fa);
        records[f.path] = std::move(fa);
        ++res.fresh;
    }

    // Phase 2: resolve includes against the tree as it is *now* and
    // run the graph rules. Resolution is never cached — which files
    // exist is an input the content hash cannot see.
    std::set<std::string> known;
    for (const auto &[path, rec] : records)
        known.insert(path);

    IncludeGraph graph;
    for (auto &[path, rec] : records) {
        resolveIncludes(path, rec.includes, known);
        graph[path] = rec.includes;
    }

    std::vector<Finding> cross;
    if (!options.layers_text.empty()) {
        LayerSpec spec;
        std::string err;
        if (!LayerSpec::parse(options.layers_text, spec, err)) {
            res.error = err;
            return res;
        }
        checkLayering(graph, spec, cross);
    }
    checkCycles(graph, cross);
    checkUnusedIncludes(records, cross);

    // The whole-program lock-order graph: every record's edges plus
    // the locks.txt spec when one is configured.
    {
        LockSpec lock_spec;
        const LockSpec *spec = nullptr;
        if (!options.locks_text.empty()) {
            std::string err;
            if (!LockSpec::parse(options.locks_text, lock_spec, err)) {
                res.error = err;
                return res;
            }
            spec = &lock_spec;
        }
        std::vector<const FileAnalysis *> recs;
        recs.reserve(records.size());
        for (const auto &[path, rec] : records)
            recs.push_back(&rec);
        checkLockOrder(recs, spec, options.locks_path, cross);
    }

    // Findings anchored at the spec file (a cycle made of declared
    // edges only) have no record to scope or suppress through; they
    // are reported unconditionally below.
    std::map<std::string, std::vector<Finding>> cross_by_file;
    std::vector<Finding> spec_anchored;
    for (Finding &f : cross) {
        if (records.count(f.file) > 0)
            cross_by_file[f.file].push_back(std::move(f));
        else
            spec_anchored.push_back(std::move(f));
    }

    // Reporting scope: everything, or the changed set's reverse
    // include-closure when one was given.
    std::set<std::string> scope;
    const bool scoped = !options.changed.empty();
    if (scoped)
        scope = reverseClosure(graph, options.changed);

    // One suppression table per file filters per-file and cross-file
    // findings alike — an allow() next to an #include silences
    // layer-violation or unused-include the same way it does det-random.
    for (const auto &[path, rec] : records) {
        if (scoped && scope.count(path) == 0)
            continue;
        ++res.reported_files;
        const std::set<std::pair<int, std::string>> allowed(
            rec.suppressions.begin(), rec.suppressions.end());
        const auto keep = [&](const Finding &f) {
            if (allowed.count({f.line, f.rule}) == 0)
                res.findings.push_back(f);
        };
        for (const Finding &f : rec.findings)
            keep(f);
        const auto extra = cross_by_file.find(path);
        if (extra != cross_by_file.end())
            for (const Finding &f : extra->second)
                keep(f);
    }
    for (Finding &f : spec_anchored)
        res.findings.push_back(std::move(f));
    std::sort(res.findings.begin(), res.findings.end());
    return res;
}

// ---------------------------------------------------------------------------
// SARIF

namespace
{

std::string
sarifEscape(const std::string &s)
{
    std::string out;
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out.push_back(ch);
            }
        }
    }
    return out;
}

} // namespace

std::string
renderSarif(const std::vector<Finding> &findings)
{
    const std::vector<std::string> &rules = knownRules();
    std::map<std::string, std::size_t> rule_index;
    for (std::size_t i = 0; i < rules.size(); ++i)
        rule_index[rules[i]] = i;

    std::ostringstream os;
    os << "{\n"
          "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"runs\": [\n"
          "    {\n"
          "      \"tool\": {\n"
          "        \"driver\": {\n"
          "          \"name\": \"aiwc-lint\",\n"
          "          \"version\": \"3.0.0\",\n"
          "          \"informationUri\": "
          "\"https://example.invalid/aiwc/CONTRIBUTING.md\",\n"
          "          \"rules\": [";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        os << (i == 0 ? "" : ",") << "\n            {\"id\": \""
           << sarifEscape(rules[i])
           << "\", \"shortDescription\": {\"text\": \""
           << sarifEscape(ruleDescription(rules[i])) << "\"}}";
    }
    os << "\n          ]\n"
          "        }\n"
          "      },\n"
          "      \"results\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i == 0 ? "" : ",") << "\n        {\"ruleId\": \""
           << sarifEscape(f.rule)
           << "\", \"ruleIndex\": " << rule_index[f.rule]
           << ", \"level\": \"error\", \"message\": {\"text\": \""
           << sarifEscape(f.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << sarifEscape(f.file)
           << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]}";
    }
    if (!findings.empty())
        os << "\n      ";
    os << "]\n"
          "    }\n"
          "  ]\n"
          "}\n";
    return os.str();
}

} // namespace aiwc::lint
