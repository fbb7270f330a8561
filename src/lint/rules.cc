#include "lint/rules.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "lint/lexer.hh"

namespace hllc::lint
{

namespace
{

const char *const kDeterminism = "determinism";
const char *const kAtomicIo = "atomic-io";
const char *const kAtomicRename = "atomic-rename";
const char *const kLocale = "locale";
const char *const kNoExit = "no-exit-in-library";
const char *const kHeaderHygiene = "header-hygiene";
// Semantic rules: engines live in analysis/engines.cc, but the names
// are registered here so waivers, --no-rule and the JSON counts treat
// them exactly like the token-level rules.
const char *const kFailpointCoverage = "failpoint-coverage";
const char *const kLockDiscipline = "lock-discipline";
const char *const kRngDiscipline = "rng-discipline";
const char *const kSchemaDrift = "schema-drift";
const char *const kIncludeGraph = "include-graph";
const char *const kSuppression = "suppression";

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h") ||
           endsWith(path, ".hpp");
}

/** The src/ module a path belongs to ("" when not under src/). */
std::string
moduleOf(const std::string &path)
{
    if (!startsWith(path, "src/"))
        return "";
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

/**
 * The CMake layering DAG, transitively closed: module -> modules it may
 * include from (itself is always allowed). A module missing here is a
 * finding: new subsystems must take a conscious layering position.
 */
const std::map<std::string, std::set<std::string>> &
layerDeps()
{
    static const std::map<std::string, std::set<std::string>> deps = {
        { "common", {} },
        { "compression", { "common" } },
        { "fault", { "common" } },
        { "cache", { "common" } },
        { "lint", { "common" } },
        { "analysis", { "common", "lint" } },
        { "hybrid", { "common", "cache", "compression", "fault" } },
        { "workload", { "common", "compression" } },
        { "replay",
          { "common", "cache", "compression", "fault", "hybrid" } },
        { "hierarchy",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay" } },
        { "forecast",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy" } },
        { "sim",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast" } },
        { "check",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim" } },
        { "serve",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim",
            "check" } },
        { "ingest",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim",
            "check" } },
    };
    return deps;
}

/** HLLC_<PATH>_HH expected for @p path (leading "src/" dropped). */
std::string
expectedGuard(const std::string &path)
{
    std::string stem = startsWith(path, "src/") ? path.substr(4) : path;
    const std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos)
        stem = stem.substr(0, dot);
    std::string guard = "HLLC_";
    for (char c : stem) {
        guard += std::isalnum(static_cast<unsigned char>(c))
            ? static_cast<char>(
                  std::toupper(static_cast<unsigned char>(c)))
            : '_';
    }
    return guard + "_HH";
}

/** Trimmed copy of 1-based line @p line of @p content. */
std::string
lineAt(const std::vector<std::string> &lines, int line)
{
    if (line < 1 || static_cast<std::size_t>(line) > lines.size())
        return "";
    std::string s = lines[static_cast<std::size_t>(line) - 1];
    const auto notspace = [](char c) {
        return !std::isspace(static_cast<unsigned char>(c));
    };
    s.erase(s.begin(), std::find_if(s.begin(), s.end(), notspace));
    s.erase(std::find_if(s.rbegin(), s.rend(), notspace).base(), s.end());
    return s;
}

std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::string current;
    for (char c : content) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current += c;
        }
    }
    lines.push_back(std::move(current));
    return lines;
}

/**
 * A token stream with the comments filtered out (rules reason about
 * code tokens by index) but kept on the side for suppressions.
 */
struct CodeView
{
    std::vector<Token> code;
    std::vector<Token> comments;

    explicit CodeView(std::vector<Token> tokens)
    {
        for (Token &tok : tokens) {
            if (tok.kind == TokKind::Comment)
                comments.push_back(std::move(tok));
            else
                code.push_back(std::move(tok));
        }
    }

    bool isPunct(std::size_t i, char c) const
    {
        return i < code.size() && code[i].kind == TokKind::Punct &&
               code[i].text.size() == 1 && code[i].text[0] == c;
    }
    bool isIdent(std::size_t i, const char *text) const
    {
        return i < code.size() && code[i].kind == TokKind::Identifier &&
               code[i].text == text;
    }

    /** tokens[i] reached via `.` or `->` (a member, not the std one). */
    bool memberAccessBefore(std::size_t i) const
    {
        if (i >= 1 && isPunct(i - 1, '.'))
            return true;
        return i >= 2 && isPunct(i - 2, '-') && isPunct(i - 1, '>');
    }

    /** tokens[i] qualified as `<ns>::tokens[i]`; "" when unqualified. */
    std::string qualifierBefore(std::size_t i) const
    {
        if (i >= 3 && isPunct(i - 1, ':') && isPunct(i - 2, ':') &&
            code[i - 3].kind == TokKind::Identifier) {
            return code[i - 3].text;
        }
        return "";
    }

    bool callAfter(std::size_t i) const { return isPunct(i + 1, '('); }
};

/** Context shared by the per-file rule engines. */
struct FileLint
{
    const std::string &path;
    const CodeView &view;
    const std::vector<std::string> &lines;
    std::vector<Finding> findings;

    void
    report(const char *rule, int line, std::string message)
    {
        findings.push_back(
            { path, line, rule, std::move(message), lineAt(lines, line) });
    }
};

void
checkDeterminism(FileLint &ctx)
{
    if (startsWith(ctx.path, "src/common/rng."))
        return;
    // Engine types are banned wherever they appear; plain functions only
    // when actually called (an identifier named `rand` is legal).
    static const std::set<std::string> engines = {
        "random_device", "mt19937",      "mt19937_64",
        "default_random_engine",         "minstd_rand",
        "minstd_rand0",  "ranlux24",     "ranlux48",
        "knuth_b",       "random_shuffle",
    };
    static const std::set<std::string> calls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
        "pthread_self", "gettid",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (engines.count(tok.text) != 0) {
            ctx.report(kDeterminism, tok.line,
                       "'" + tok.text + "' is a non-deterministic source;"
                       " derive randomness from common/rng streams");
            continue;
        }
        if (calls.count(tok.text) != 0 && v.callAfter(i)) {
            ctx.report(kDeterminism, tok.line,
                       "'" + tok.text + "()' is non-deterministic;"
                       " derive randomness from common/rng streams");
            continue;
        }
        // Seeding from the wall clock: time(nullptr) / time(NULL) /
        // time(0).
        if (tok.text == "time" && v.callAfter(i) &&
            (v.isIdent(i + 2, "nullptr") || v.isIdent(i + 2, "NULL") ||
             (i + 2 < v.code.size() &&
              v.code[i + 2].kind == TokKind::Number &&
              v.code[i + 2].text == "0")) &&
            v.isPunct(i + 3, ')')) {
            ctx.report(kDeterminism, tok.line,
                       "seeding from the wall clock breaks grid"
                       " reproducibility; use common/rng childStream");
        }
        if (tok.text == "get_id" &&
            v.qualifierBefore(i) == "this_thread") {
            ctx.report(kDeterminism, tok.line,
                       "thread-id-derived values break the jobs=1 vs"
                       " jobs=N contract; key on the grid index instead");
        }
    }
}

void
checkAtomicIo(FileLint &ctx)
{
    if (startsWith(ctx.path, "src/common/serialize."))
        return;
    static const std::set<std::string> types = { "ofstream", "wofstream",
                                                 "fstream" };
    static const std::set<std::string> calls = {
        "fopen", "fopen64", "freopen", "creat", "mkstemp", "tmpfile",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        const bool banned_type = types.count(tok.text) != 0;
        const bool banned_call =
            calls.count(tok.text) != 0 && v.callAfter(i);
        if (banned_type || banned_call) {
            ctx.report(kAtomicIo, tok.line,
                       "raw file creation via '" + tok.text +
                       "' can leave torn output on a crash; write"
                       " through serial::writeFileAtomic");
        }
    }
}

void
checkAtomicRename(FileLint &ctx)
{
    // serialize.cc owns the rename(2) that commits an atomic write (and
    // fsyncs the parent directory afterwards); everywhere else a raw
    // rename publishes a file whose durability is unknown.
    if (startsWith(ctx.path, "src/common/serialize."))
        return;
    static const std::set<std::string> calls = { "rename", "renameat",
                                                 "renameat2" };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std" && qual != "filesystem")
            continue; // somebody else's rename()
        ctx.report(kAtomicRename, tok.line,
                   "'" + tok.text + "' outside common/serialize bypasses"
                   " the atomic-write protocol (tmp + fsync + rename +"
                   " parent-dir fsync); go through"
                   " serial::writeFileAtomic");
    }
}

void
checkLocale(FileLint &ctx)
{
    if (startsWith(ctx.path, "src/common/numfmt."))
        return;
    static const std::set<std::string> calls = {
        "to_string", "setprecision", "stod",   "stof",   "stold",
        "strtod",    "strtof",       "strtold", "atof",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std")
            continue; // somebody else's to_string
        ctx.report(kLocale, tok.line,
                   "'" + tok.text + "' honours the process locale;"
                   " use common/numfmt (formatDouble/formatU64/"
                   "parseDoubleExact)");
    }
}

void
checkNoExitInLibrary(FileLint &ctx)
{
    // Only library code: CLI mains (tools/bench/examples) and tests may
    // terminate the process. logging owns the sanctioned sinks.
    if (!startsWith(ctx.path, "src/") ||
        startsWith(ctx.path, "src/common/logging.")) {
        return;
    }
    static const std::set<std::string> calls = {
        "exit", "_exit", "_Exit", "quick_exit", "abort",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std")
            continue;
        ctx.report(kNoExit, tok.line,
                   "library code must not '" + tok.text +
                   "'; throw hllc::IoError (fatal() lives in CLI"
                   " mains)");
    }
}

void
checkHeaderHygiene(FileLint &ctx, const std::vector<Token> &all_tokens)
{
    const CodeView &v = ctx.view;
    const bool header = isHeaderPath(ctx.path);

    if (header) {
        // Include guard: the first two directives must be
        // #ifndef/#define of the path-derived name.
        const std::string want = expectedGuard(ctx.path);
        std::vector<const Token *> directives;
        for (const Token &tok : all_tokens) {
            if (tok.kind == TokKind::Directive)
                directives.push_back(&tok);
        }
        if (directives.size() < 2 ||
            directives[0]->text != "ifndef" ||
            directives[1]->text != "define" ||
            directives[1]->payload != directives[0]->payload) {
            ctx.report(kHeaderHygiene,
                       directives.empty() ? 1 : directives[0]->line,
                       "header must open with the include guard"
                       " #ifndef/#define " + want);
        } else if (directives[0]->payload != want) {
            ctx.report(kHeaderHygiene, directives[0]->line,
                       "include guard '" + directives[0]->payload +
                       "' does not match the path-derived name '" +
                       want + "'");
        }
        for (const Token *dir : directives) {
            if (dir->text == "pragma" &&
                startsWith(dir->payload, "once")) {
                ctx.report(kHeaderHygiene, dir->line,
                           "#pragma once: this project uses named"
                           " include guards (" + want + ")");
            }
        }
        for (std::size_t i = 0; i + 1 < v.code.size(); ++i) {
            if (v.isIdent(i, "using") && v.isIdent(i + 1, "namespace")) {
                ctx.report(kHeaderHygiene, v.code[i].line,
                           "'using namespace' in a header leaks into"
                           " every includer");
            }
        }
    }

    // Include-graph layering: modules may only include from layers the
    // CMake DAG says they link against.
    const std::string module = moduleOf(ctx.path);
    if (module.empty())
        return; // tools/bench/tests/examples may include anything
    const auto &deps = layerDeps();
    const auto self = deps.find(module);
    for (const Token &tok : all_tokens) {
        if (tok.kind != TokKind::Directive || tok.text != "include")
            continue;
        const std::string &arg = tok.payload;
        if (arg.size() < 2 || arg.front() != '"')
            continue; // system include
        const std::string target = arg.substr(1, arg.size() - 2);
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos)
            continue; // same-directory include
        const std::string target_module = target.substr(0, slash);
        if (target_module == module)
            continue;
        if (self == deps.end()) {
            ctx.report(kHeaderHygiene, tok.line,
                       "module '" + module + "' is not in the layering"
                       " table; add it to lint/rules.cc layerDeps()");
            return;
        }
        if (deps.find(target_module) == deps.end()) {
            ctx.report(kHeaderHygiene, tok.line,
                       "include of unknown module '" + target_module +
                       "'; add it to lint/rules.cc layerDeps()");
            continue;
        }
        if (self->second.count(target_module) == 0) {
            ctx.report(kHeaderHygiene, tok.line,
                       "layering violation: module '" + module +
                       "' must not include from '" + target_module +
                       "' (see the CMake dependency DAG)");
        }
    }
}

/**
 * Parse suppression comments. A waiver covers its own line(s); when the
 * comment stands alone on its line it also covers the next line.
 * Malformed waivers (no justification, unknown rule) are reported when
 * @p ctx is non-null; parseWaivers() passes null because lintSource()
 * already reported them once.
 */
std::vector<Waiver>
collectWaivers(const CodeView &view, std::size_t line_count,
               FileLint *ctx, const Options &options)
{
    static const std::string marker = "hllc-lint:";
    std::vector<Waiver> out;
    for (const Token &comment : view.comments) {
        const std::size_t at = comment.text.find(marker);
        if (at == std::string::npos)
            continue;
        std::size_t pos = at + marker.size();
        const auto skipSpace = [&] {
            while (pos < comment.text.size() &&
                   std::isspace(
                       static_cast<unsigned char>(comment.text[pos]))) {
                ++pos;
            }
        };
        skipSpace();
        if (comment.text.compare(pos, 6, "allow(") != 0) {
            if (ctx != nullptr) {
                ctx->report(kSuppression, comment.line,
                            "malformed waiver; expected 'hllc-lint:"
                            " allow(RULE) JUSTIFICATION'");
            }
            continue;
        }
        pos += 6;
        const std::size_t close = comment.text.find(')', pos);
        if (close == std::string::npos) {
            if (ctx != nullptr) {
                ctx->report(kSuppression, comment.line,
                            "unterminated 'allow(' in waiver");
            }
            continue;
        }
        // Prose quoting the waiver syntax ("allow(RULE)", angle-bracket
        // placeholders, ellipses) is not a waiver attempt: rule names
        // are strictly [a-z-].
        bool prose = false;
        for (std::size_t i = pos; i < close; ++i) {
            const char c = comment.text[i];
            if (!std::islower(static_cast<unsigned char>(c)) &&
                c != '-' && c != ',' &&
                !std::isspace(static_cast<unsigned char>(c))) {
                prose = true;
                break;
            }
        }
        if (prose)
            continue;
        Waiver sup;
        sup.firstLine = comment.line;
        sup.lastLine = comment.endLine;
        std::string name;
        for (std::size_t i = pos; i <= close; ++i) {
            const char c = comment.text[i];
            if (c == ',' || c == ')') {
                if (std::find(allRules().begin(), allRules().end(),
                              name) == allRules().end()) {
                    if (ctx != nullptr) {
                        ctx->report(kSuppression, comment.line,
                                    "waiver names unknown rule '" +
                                    name + "'");
                    }
                } else {
                    sup.rules.insert(name);
                }
                name.clear();
            } else if (!std::isspace(static_cast<unsigned char>(c))) {
                name += c;
            }
        }
        std::string justification = comment.text.substr(close + 1);
        const auto notspace = [](char c) {
            return !std::isspace(static_cast<unsigned char>(c));
        };
        justification.erase(justification.begin(),
                            std::find_if(justification.begin(),
                                         justification.end(), notspace));
        if (justification.empty() && ctx != nullptr &&
            options.ruleEnabled(kSuppression)) {
            ctx->report(kSuppression, comment.line,
                        "waiver needs a justification after allow(...)");
        }
        // A comment sharing its line with code waives that line. A
        // standalone comment (possibly continued over further comment
        // lines) waives the next line that holds code.
        std::set<int> code_lines;
        for (const Token &code : view.code)
            code_lines.insert(code.line);
        if (code_lines.count(comment.line) == 0) {
            int line = sup.lastLine + 1;
            const int limit = static_cast<int>(line_count);
            while (line < limit && code_lines.count(line) == 0)
                ++line;
            sup.lastLine = line;
        }
        if (!sup.rules.empty())
            out.push_back(std::move(sup));
    }
    return out;
}

} // anonymous namespace

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        kDeterminism,    kAtomicIo,      kAtomicRename,
        kLocale,         kNoExit,        kHeaderHygiene,
        kFailpointCoverage, kLockDiscipline, kRngDiscipline,
        kSchemaDrift,    kIncludeGraph,  kSuppression,
    };
    return rules;
}

bool
Options::ruleEnabled(const std::string &rule) const
{
    return std::find(disabledRules.begin(), disabledRules.end(), rule) ==
           disabledRules.end();
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const Options &options)
{
    const std::vector<Token> tokens = lex(content);
    const CodeView view(tokens);
    const std::vector<std::string> lines = splitLines(content);
    FileLint ctx{ path, view, lines, {} };

    if (options.ruleEnabled(kDeterminism))
        checkDeterminism(ctx);
    if (options.ruleEnabled(kAtomicIo))
        checkAtomicIo(ctx);
    if (options.ruleEnabled(kAtomicRename))
        checkAtomicRename(ctx);
    if (options.ruleEnabled(kLocale))
        checkLocale(ctx);
    if (options.ruleEnabled(kNoExit))
        checkNoExitInLibrary(ctx);
    if (options.ruleEnabled(kHeaderHygiene))
        checkHeaderHygiene(ctx, tokens);

    const std::vector<Waiver> waivers =
        collectWaivers(view, lines.size(), &ctx, options);
    std::vector<Finding> kept;
    for (Finding &finding : ctx.findings) {
        bool waived = false;
        for (const Waiver &sup : waivers) {
            if (finding.rule != kSuppression &&
                sup.covers(finding.rule, finding.line)) {
                waived = true;
                break;
            }
        }
        if (!waived)
            kept.push_back(std::move(finding));
    }
    std::stable_sort(kept.begin(), kept.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.line < b.line;
                     });
    return kept;
}

std::vector<Waiver>
parseWaivers(const std::string &content)
{
    const CodeView view(lex(content));
    return collectWaivers(view, splitLines(content).size(), nullptr,
                          Options{});
}

} // namespace hllc::lint
