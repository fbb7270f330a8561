#include "analysis/engines.hh"

#include <algorithm>
#include <cctype>
#include <deque>

#include "lint/lint.hh"

namespace hllc::analysis
{

namespace
{

using lint::Finding;

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Path without its extension, for the `.cc includes its .hh` pair. */
std::string
stemOf(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
}

void
report(std::vector<Finding> &findings, const std::string &file,
       int line, const char *rule, std::string message)
{
    findings.push_back({ file, line, rule, std::move(message), "" });
}

/** (file index, function index) key into the call graph. */
using FnKey = std::pair<std::size_t, std::size_t>;

/**
 * The function whose body covers @p line in @p file, or SIZE_MAX.
 * Bodies never nest (lambdas are part of their enclosing function), so
 * the first range hit wins.
 */
std::size_t
functionAt(const FileIndex &file, int line)
{
    for (std::size_t i = 0; i < file.functions.size(); ++i) {
        const FunctionDef &fn = file.functions[i];
        if (line >= fn.line && line <= fn.bodyEnd && fn.bodyEnd != 0)
            return i;
    }
    return SIZE_MAX;
}

// ---------------------------------------------------------------- //
//  failpoint-coverage                                              //
// ---------------------------------------------------------------- //

void
checkFailpointCoverage(const TreeIndex &tree,
                       std::vector<Finding> &findings)
{
    static const char *const rule = "failpoint-coverage";

    // The closed catalog: allFailpoints() in common/failpoint.cc. An
    // empty catalog (failpoint.cc outside the walked paths) disables
    // the name checks but not the reachability check.
    const FileIndex *catalog_file =
        tree.byPath("src/common/failpoint.cc");
    std::set<std::string> catalog;
    if (catalog_file != nullptr) {
        for (const CatalogEntry &entry : catalog_file->catalog)
            catalog.insert(entry.name);
    }

    std::set<std::string> site_names;
    for (const FileIndex &file : tree.files) {
        // Tests may probe synthetic names on purpose; they neither
        // anchor a catalog entry nor get name-drift checked.
        if (startsWith(file.path, "tests/"))
            continue;
        for (const FailpointSite &site : file.failpoints) {
            site_names.insert(site.name);
            if (!catalog.empty() && catalog.count(site.name) == 0) {
                const char *form =
                    site.macroSite ? "HLLC_FAILPOINT" : "shouldFail";
                report(findings, file.path, site.line, rule,
                       std::string(form) + "(\"" + site.name +
                       "\") is not in the closed catalog"
                       " (common/failpoint.cc allFailpoints());"
                       " a site missing there can never fire");
            }
        }
    }
    if (catalog_file != nullptr) {
        for (const CatalogEntry &entry : catalog_file->catalog) {
            if (site_names.count(entry.name) == 0) {
                report(findings, catalog_file->path, entry.line, rule,
                       "catalog entry \"" + entry.name +
                       "\" has no HLLC_FAILPOINT site left in the"
                       " tree; prune it or restore the site");
            }
        }
    }

    // Reachability: BFS along name-based call edges from every
    // function that contains a failpoint (macro or shouldFail form).
    std::map<std::string, std::vector<FnKey>> by_name;
    for (std::size_t f = 0; f < tree.files.size(); ++f) {
        const FileIndex &file = tree.files[f];
        for (std::size_t i = 0; i < file.functions.size(); ++i)
            by_name[file.functions[i].name].push_back({ f, i });
    }
    std::set<FnKey> covered;
    std::deque<FnKey> queue;
    for (std::size_t f = 0; f < tree.files.size(); ++f) {
        const FileIndex &file = tree.files[f];
        for (const FailpointSite &site : file.failpoints) {
            const std::size_t fn = functionAt(file, site.line);
            if (fn != SIZE_MAX && covered.insert({ f, fn }).second)
                queue.push_back({ f, fn });
        }
    }
    while (!queue.empty()) {
        const FnKey key = queue.front();
        queue.pop_front();
        const FileIndex &file = tree.files[key.first];
        const FunctionDef &fn = file.functions[key.second];
        for (const IdentRef &ref : file.refs) {
            if (ref.line < fn.bodyBegin || ref.line > fn.bodyEnd)
                continue;
            const auto it = by_name.find(file.symbols[ref.sym]);
            if (it == by_name.end())
                continue;
            for (const FnKey &callee : it->second) {
                if (covered.insert(callee).second)
                    queue.push_back(callee);
            }
        }
    }

    for (std::size_t f = 0; f < tree.files.size(); ++f) {
        const FileIndex &file = tree.files[f];
        if (startsWith(file.path, "src/common/serialize.") ||
            startsWith(file.path, "tests/")) {
            continue;
        }
        for (const SyscallSite &site : file.syscalls) {
            const std::size_t fn = functionAt(file, site.line);
            if (fn != SIZE_MAX && covered.count({ f, fn }) != 0)
                continue;
            const std::string where = fn == SIZE_MAX
                ? "outside any indexed function"
                : "in " + file.functions[fn].name + "()";
            report(findings, file.path, site.line, rule,
                   "fallible '" + site.name + "' call " + where +
                   " is not reachable from any compiled-in"
                   " HLLC_FAILPOINT; chaos runs cannot exercise this"
                   " failure path");
        }
    }
}

// ---------------------------------------------------------------- //
//  lock-discipline                                                 //
// ---------------------------------------------------------------- //

/** One guarded field with its declaring file attached. */
struct GuardedDecl
{
    const GuardedField *field;
    const FileIndex *declFile;
};

void
checkLockDiscipline(const TreeIndex &tree,
                    std::vector<Finding> &findings)
{
    static const char *const rule = "lock-discipline";

    std::map<std::string, std::vector<GuardedDecl>> by_name;
    for (const FileIndex &file : tree.files) {
        for (const GuardedField &field : file.guardedFields)
            by_name[field.name].push_back({ &field, &file });
    }
    if (by_name.empty())
        return;

    for (const FileIndex &file : tree.files) {
        // Fields visible here: declared in this file or in a directly
        // included project header.
        std::set<std::string> visible_paths = { file.path };
        for (const IncludeRef &inc : file.includes)
            visible_paths.insert("src/" + inc.path);

        for (const IdentRef &ref : file.refs) {
            const std::string &name = file.symbols[ref.sym];
            const auto decls = by_name.find(name);
            if (decls == by_name.end() || ref.qualified)
                continue;
            bool relevant = false;
            bool is_decl_line = false;
            bool locked = false;
            std::set<std::string> mutexes;
            std::set<std::string> owners;
            for (const GuardedDecl &decl : decls->second) {
                if (visible_paths.count(decl.declFile->path) == 0)
                    continue;
                relevant = true;
                mutexes.insert(decl.field->mutex);
                owners.insert(decl.field->klass);
                if (decl.declFile == &file &&
                    decl.field->line == ref.line) {
                    is_decl_line = true;
                }
            }
            if (!relevant || is_decl_line)
                continue;
            for (const LockScope &scope : file.lockScopes) {
                if (ref.line >= scope.beginLine &&
                    ref.line <= scope.endLine &&
                    mutexes.count(scope.mutex) != 0) {
                    locked = true;
                    break;
                }
            }
            if (locked)
                continue;
            const std::size_t fn = functionAt(file, ref.line);
            if (fn != SIZE_MAX) {
                const FunctionDef &def = file.functions[fn];
                // The owning class's constructor/destructor runs
                // single-owner; HLLC_REQUIRES(m) shifts the locking
                // obligation to the caller.
                if (owners.count(def.name) != 0)
                    continue;
                bool required = false;
                for (const std::string &m : def.requiresMutexes)
                    required = required || mutexes.count(m) != 0;
                if (required)
                    continue;
            }
            report(findings, file.path, ref.line, rule,
                   "'" + name + "' is HLLC_GUARDED_BY(" +
                   *mutexes.begin() + ") but is referenced without a"
                   " MutexLock on it in scope");
        }
    }
}

// ---------------------------------------------------------------- //
//  rng-discipline                                                  //
// ---------------------------------------------------------------- //

bool
seedDerived(const std::vector<std::string> &idents)
{
    for (const std::string &ident : idents) {
        if (ident == "childStream" || ident == "childSeed" ||
            ident == "fork" || ident == "mix64") {
            return true;
        }
        if (ident.find("seed") != std::string::npos ||
            ident.find("Seed") != std::string::npos) {
            return true;
        }
    }
    return false;
}

void
checkRngDiscipline(const TreeIndex &tree,
                   std::vector<Finding> &findings)
{
    static const char *const rule = "rng-discipline";

    for (const FileIndex &file : tree.files) {
        // The seeding contract binds the stream-scoped layers only.
        if (!startsWith(file.path, "src/sim/") &&
            !startsWith(file.path, "src/serve/") &&
            !startsWith(file.path, "src/ingest/")) {
            continue;
        }
        for (const RngSite &site : file.rngSites) {
            if (!seedDerived(site.seedIdents)) {
                report(findings, file.path, site.line, rule,
                       "Xoshiro256StarStar here is not seeded from"
                       " childStream/childSeed/fork or a seed-derived"
                       " expression; ad hoc seeds silently fork the"
                       " jobs=1 vs jobs=N determinism contract");
            }
        }
    }
}

// ---------------------------------------------------------------- //
//  schema-drift                                                    //
// ---------------------------------------------------------------- //

void
checkSchemaDrift(const TreeIndex &tree,
                 const std::map<std::string, std::set<std::string>>
                     &tables,
                 std::vector<Finding> &findings)
{
    static const char *const rule = "schema-drift";

    for (const auto &entry : schemaExporters()) {
        const std::string &schema = entry.first;
        const FileIndex *file = tree.byPath(entry.second);
        if (file == nullptr)
            continue; // exporter outside the walked paths
        const auto table = tables.find(schema);
        if (table == tables.end()) {
            report(findings, file->path, 1, rule,
                   "exporter of schema '" + schema +
                   "' has no `schema-keys: " + schema +
                   "` table in EXPERIMENTS.md");
            continue;
        }
        std::map<std::string, int> emitted;
        for (const JsonKey &key : file->jsonKeys)
            emitted.emplace(key.key, key.line);
        for (const auto &key : emitted) {
            if (table->second.count(key.first) == 0) {
                report(findings, file->path, key.second, rule,
                       "JSON key \"" + key.first +
                       "\" is not in the EXPERIMENTS.md schema-keys"
                       " table for '" + schema +
                       "'; document it or drop the field");
            }
        }
        for (const std::string &key : table->second) {
            if (emitted.count(key) == 0) {
                report(findings, file->path, 1, rule,
                       "documented key \"" + key + "\" of schema '" +
                       schema + "' is never emitted; the table and"
                       " the exporter have drifted apart");
            }
        }
    }
}

// ---------------------------------------------------------------- //
//  include-graph                                                   //
// ---------------------------------------------------------------- //

void
checkIncludeGraph(const TreeIndex &tree, std::vector<Finding> &findings)
{
    static const char *const rule = "include-graph";

    std::map<std::string, std::vector<std::string>> header_graph;
    for (const FileIndex &file : tree.files) {
        if (!endsWith(file.path, ".hh"))
            continue;
        std::vector<std::string> edges;
        for (const IncludeRef &inc : file.includes)
            edges.push_back("src/" + inc.path);
        header_graph[file.path] = std::move(edges);
    }
    lint::checkIncludeCycles(header_graph, findings);

    for (const FileIndex &file : tree.files) {
        const std::set<std::string> used = file.identifierSet();
        for (const IncludeRef &inc : file.includes) {
            const std::string resolved = "src/" + inc.path;
            const FileIndex *header = tree.byPath(resolved);
            if (header == nullptr || header == &file)
                continue;
            if (stemOf(resolved) == stemOf(file.path))
                continue; // a .cc always includes its own header
            bool any_decl = false;
            bool any_used = false;
            for (const Declaration &decl : header->decls) {
                any_decl = true;
                if (used.count(decl.name) != 0) {
                    any_used = true;
                    break;
                }
            }
            // A header providing nothing the indexer can see is given
            // the benefit of the doubt.
            if (any_decl && !any_used) {
                report(findings, file.path, inc.line, rule,
                       "include of \"" + inc.path + "\" is unused:"
                       " none of the names it declares are referenced"
                       " in this file");
            }
        }
    }
}

} // anonymous namespace

const FileIndex *
TreeIndex::byPath(const std::string &path) const
{
    for (const FileIndex &file : files) {
        if (file.path == path)
            return &file;
    }
    return nullptr;
}

const std::map<std::string, std::string> &
schemaExporters()
{
    static const std::map<std::string, std::string> exporters = {
        { "hllc-stats-v1", "src/common/metrics.cc" },
        { "hllc-bench-v1", "bench/bench_micro.cpp" },
        { "hllc-serve-bench-v1", "tools/hllc_loadgen.cpp" },
        { "hllc-ingest-v1", "tools/hllc_ingest.cpp" },
        { "hllc-failures-v1", "src/sim/resilience.cc" },
        { "hllc-lint-v1", "src/lint/lint.cc" },
    };
    return exporters;
}

std::map<std::string, std::set<std::string>>
parseSchemaTables(const std::string &text)
{
    std::map<std::string, std::set<std::string>> tables;
    static const std::string marker = "schema-keys:";

    std::vector<std::string> lines;
    std::string current;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current += c;
        }
    }
    lines.push_back(std::move(current));

    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind(marker, 0) != 0)
            continue;
        std::string schema = lines[i].substr(marker.size());
        schema.erase(0, schema.find_first_not_of(" \t"));
        const std::size_t end = schema.find_last_not_of(" \t");
        schema = end == std::string::npos ? "" : schema.substr(0, end + 1);
        if (schema.empty())
            continue;
        std::set<std::string> &keys = tables[schema];
        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            const std::string &line = lines[j];
            if (line.empty() || line.rfind("```", 0) == 0)
                break;
            std::string word;
            for (char c : line + " ") {
                if (std::isspace(static_cast<unsigned char>(c))) {
                    if (!word.empty() && word[0] != '#')
                        keys.insert(word);
                    word.clear();
                } else {
                    word += c;
                }
            }
        }
    }
    return tables;
}

std::vector<Finding>
runSemanticEngines(const TreeIndex &tree,
                   const std::map<std::string, std::set<std::string>>
                       &schemaTables,
                   const lint::Options &rules)
{
    std::vector<Finding> findings;
    if (rules.ruleEnabled("failpoint-coverage"))
        checkFailpointCoverage(tree, findings);
    if (rules.ruleEnabled("lock-discipline"))
        checkLockDiscipline(tree, findings);
    if (rules.ruleEnabled("rng-discipline"))
        checkRngDiscipline(tree, findings);
    if (rules.ruleEnabled("schema-drift"))
        checkSchemaDrift(tree, schemaTables, findings);
    if (rules.ruleEnabled("include-graph"))
        checkIncludeGraph(tree, findings);
    return findings;
}

} // namespace hllc::analysis
